//! Intentionally broken wafer programs, one per failure mode of the
//! whole-fabric passes.
//!
//! Each fixture is a complete, runnable program that violates exactly one
//! invariant. They are shared by three consumers:
//!
//! * the fixture tests in `wse-lint`, which assert the matching rule fires
//!   **statically** with a concrete witness;
//! * the dynamic cross-check tests, which *run* each fixture and assert it
//!   misbehaves the way the diagnostic predicts (a deadlocked or starved
//!   program stalls the watchdog; a racy program trips the runtime
//!   sanitizer);
//! * the `wse-lint` CLI's `fixture:NAME` mode, which the repo's
//!   `lint_fixtures` verify stage diffs against checked-in expected
//!   diagnostics.
//!
//! Every fixture both `mark_entry`s its tasks (so static reachability sees
//! them) and `activate`s them (so the program runs without a host driver).

use wse_arch::dsr::mk;
use wse_arch::fabric::Fabric;
use wse_arch::instr::{Op, Stmt, Task, TensorInstr};
use wse_arch::types::{DsrId, Dtype, Port};

/// Names of every fixture, in the order `build` knows them.
pub const ALL: &[&str] = &[
    "deadlock-request-reply",
    "deadlock-backpressure",
    "race-overlapping-writes",
    "race-write-after-read",
    "starved-no-producer",
    "starved-unreached-consumer",
];

/// Builds a fixture by name (`None` for an unknown name).
pub fn build(name: &str) -> Option<Fabric> {
    Some(match name {
        "deadlock-request-reply" => deadlock_request_reply(),
        "deadlock-backpressure" => deadlock_backpressure(),
        "race-overlapping-writes" => race_overlapping_writes(),
        "race-write-after-read" => race_write_after_read(),
        "starved-no-producer" => starved_no_producer(),
        "starved-unreached-consumer" => starved_unreached_consumer(),
        _ => return None,
    })
}

fn copy(dst: DsrId, a: DsrId) -> Stmt {
    Stmt::Exec(TensorInstr { op: Op::Copy, dst: Some(dst), a: Some(a), b: None })
}

/// Two tiles, each of which **receives before it sends** — the classic
/// request-reply deadlock. Tile (0,0) waits for color 2 from (1,0) before
/// sending color 1; tile (1,0) waits for color 1 before sending color 2.
/// Neither send can ever start, so both receives wait forever: a cyclic
/// wait through two producer edges and two task-order gates.
pub fn deadlock_request_reply() -> Fabric {
    let mut f = Fabric::new(2, 1);
    f.set_route(0, 0, Port::Ramp, 1, &[Port::East]);
    f.set_route(0, 0, Port::East, 2, &[Port::Ramp]);
    f.set_route(1, 0, Port::West, 1, &[Port::Ramp]);
    f.set_route(1, 0, Port::Ramp, 2, &[Port::West]);
    for (x, rx_color, tx_color) in [(0usize, 2u8, 1u8), (1, 1, 2)] {
        let t = f.tile_mut(x, 0);
        let buf = t.mem.alloc_vec(4, Dtype::F16).unwrap();
        let d_rx = t.core.add_dsr(mk::rx16(rx_color, 4));
        let d_buf = t.core.add_dsr(mk::tensor16(buf, 4));
        let d_src = t.core.add_dsr(mk::tensor16(buf, 4));
        let d_tx = t.core.add_dsr(mk::tx16(tx_color, 4));
        let task = t.core.add_task(Task::new("reply", vec![copy(d_buf, d_rx), copy(d_tx, d_src)]));
        t.core.mark_entry(task);
        t.core.activate(task);
    }
    f
}

/// Two tiles that each start a **synchronous send longer than the path can
/// buffer** (48 words against 32 words of ramp-out + queue slack), with the
/// matching receive sequenced *after* their own send. Both senders wedge on
/// backpressure waiting for the other side to drain, which it never does —
/// a cyclic wait through two backpressure edges and two task-order gates.
pub fn deadlock_backpressure() -> Fabric {
    const N: u32 = 48; // > ramp-out + per-hop queues + ramp-in = 32 flits
    let mut f = Fabric::new(2, 1);
    f.set_route(0, 0, Port::Ramp, 1, &[Port::East]);
    f.set_route(0, 0, Port::East, 2, &[Port::Ramp]);
    f.set_route(1, 0, Port::West, 1, &[Port::Ramp]);
    f.set_route(1, 0, Port::Ramp, 2, &[Port::West]);
    for (x, tx_color, rx_color) in [(0usize, 1u8, 2u8), (1, 2, 1)] {
        let t = f.tile_mut(x, 0);
        let buf = t.mem.alloc_vec(N, Dtype::F16).unwrap();
        let d_src = t.core.add_dsr(mk::tensor16(buf, N));
        let d_tx = t.core.add_dsr(mk::tx16(tx_color, N));
        let d_rx = t.core.add_dsr(mk::rx16(rx_color, N));
        let d_dst = t.core.add_dsr(mk::tensor16(buf, N));
        let task =
            t.core.add_task(Task::new("exchange", vec![copy(d_tx, d_src), copy(d_dst, d_rx)]));
        t.core.mark_entry(task);
        t.core.activate(task);
    }
    f
}

/// One tile whose entry task launches **two background copies into the same
/// buffer** with no ordering between them: element interleaving (the
/// round-robin datapath) decides every byte of the result.
pub fn race_overlapping_writes() -> Fabric {
    let mut f = Fabric::new(1, 1);
    let t = f.tile_mut(0, 0);
    let buf = t.mem.alloc_vec(16, Dtype::F16).unwrap();
    let src_a = t.mem.alloc_vec(16, Dtype::F16).unwrap();
    let src_b = t.mem.alloc_vec(16, Dtype::F16).unwrap();
    let d_buf0 = t.core.add_dsr(mk::tensor16(buf, 16));
    let d_buf1 = t.core.add_dsr(mk::tensor16(buf, 16));
    let d_a = t.core.add_dsr(mk::tensor16(src_a, 16));
    let d_b = t.core.add_dsr(mk::tensor16(src_b, 16));
    let task = t.core.add_task(Task::new(
        "scatter",
        vec![
            Stmt::Launch {
                slot: 0,
                instr: TensorInstr { op: Op::Copy, dst: Some(d_buf0), a: Some(d_a), b: None },
                on_complete: None,
            },
            Stmt::Launch {
                slot: 1,
                instr: TensorInstr { op: Op::Copy, dst: Some(d_buf1), a: Some(d_b), b: None },
                on_complete: None,
            },
        ],
    ));
    t.core.mark_entry(task);
    t.core.activate(task);
    f
}

/// One tile that launches a background **send reading a buffer**, then
/// immediately **overwrites the same buffer** on the main thread without
/// waiting for the send to complete: the stream on the wire is a mix of old
/// and new values. The sent words come back over the ramp loopback into a
/// separate scratch buffer (so the program terminates and nothing else
/// lints); the only defect is the write-after-read. Note the writer does
/// *not* receive what the reader sends — this is exactly the broken cousin
/// of the sanctioned flow-through in-place update.
pub fn race_write_after_read() -> Fabric {
    let mut f = Fabric::new(1, 1);
    f.set_route(0, 0, Port::Ramp, 0, &[Port::Ramp]);
    let t = f.tile_mut(0, 0);
    let buf = t.mem.alloc_vec(16, Dtype::F16).unwrap();
    let next = t.mem.alloc_vec(16, Dtype::F16).unwrap();
    let scratch = t.mem.alloc_vec(16, Dtype::F16).unwrap();
    let d_buf_r = t.core.add_dsr(mk::tensor16(buf, 16));
    let d_buf_w = t.core.add_dsr(mk::tensor16(buf, 16));
    let d_next = t.core.add_dsr(mk::tensor16(next, 16));
    let d_scratch = t.core.add_dsr(mk::tensor16(scratch, 16));
    let d_tx = t.core.add_dsr(mk::tx16(0, 16));
    let d_rx = t.core.add_dsr(mk::rx16(0, 16));
    let task = t.core.add_task(Task::new(
        "overlap",
        vec![
            Stmt::Launch {
                slot: 0,
                instr: TensorInstr { op: Op::Copy, dst: Some(d_tx), a: Some(d_buf_r), b: None },
                on_complete: None,
            },
            copy(d_buf_w, d_next),
            copy(d_scratch, d_rx),
        ],
    ));
    t.core.mark_entry(task);
    t.core.activate(task);
    f
}

/// A consumer whose tile routes color 6 to its own ramp and arms a receive
/// — but **nothing in the whole ensemble produces color 6**. The receive
/// waits forever; statically this is starvation, not a routing error (the
/// local delivery route exists).
pub fn starved_no_producer() -> Fabric {
    let mut f = Fabric::new(2, 1);
    f.set_route(1, 0, Port::West, 6, &[Port::Ramp]);
    let t = f.tile_mut(1, 0);
    let buf = t.mem.alloc_vec(4, Dtype::F16).unwrap();
    let d_rx = t.core.add_dsr(mk::rx16(6, 4));
    let d_buf = t.core.add_dsr(mk::tensor16(buf, 4));
    let task = t.core.add_task(Task::new("listener", vec![copy(d_buf, d_rx)]));
    t.core.mark_entry(task);
    t.core.activate(task);
    f
}

/// Color 6 **is** produced — at (0,0), flowing east to the consumer at
/// (1,0) — but a second consumer at (0,1) also arms a receive whose local
/// delivery route is fed by nothing: no producer's route flow ever reaches
/// it. The first consumer finishes; the second waits forever.
pub fn starved_unreached_consumer() -> Fabric {
    let mut f = Fabric::new(2, 2);
    f.set_route(0, 0, Port::Ramp, 6, &[Port::East]);
    f.set_route(1, 0, Port::West, 6, &[Port::Ramp]);
    f.set_route(0, 1, Port::East, 6, &[Port::Ramp]);
    {
        let t = f.tile_mut(0, 0);
        let buf = t.mem.alloc_vec(4, Dtype::F16).unwrap();
        let d_src = t.core.add_dsr(mk::tensor16(buf, 4));
        let d_tx = t.core.add_dsr(mk::tx16(6, 4));
        let task = t.core.add_task(Task::new("producer", vec![copy(d_tx, d_src)]));
        t.core.mark_entry(task);
        t.core.activate(task);
    }
    for y in [0usize, 1] {
        let t = f.tile_mut(if y == 0 { 1 } else { 0 }, y);
        let buf = t.mem.alloc_vec(4, Dtype::F16).unwrap();
        let d_rx = t.core.add_dsr(mk::rx16(6, 4));
        let d_buf = t.core.add_dsr(mk::tensor16(buf, 4));
        let task = t.core.add_task(Task::new("consumer", vec![copy(d_buf, d_rx)]));
        t.core.mark_entry(task);
        t.core.activate(task);
    }
    f
}
