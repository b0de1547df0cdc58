//! One intentionally broken fixture per lint rule, plus a minimal clean
//! program that must produce zero diagnostics.
//!
//! Every fixture builds a tiny fabric, breaks exactly one invariant, and
//! asserts the corresponding rule fires. The clean fixture is the control:
//! it exercises routes, a send, a receive, a FIFO, and a completion trigger
//! without tripping anything.

use wse_arch::dsr::mk;
use wse_arch::fabric::Fabric;
use wse_arch::fifo::Fifo;
use wse_arch::instr::{Op, Stmt, Task, TaskAction, TensorInstr};
use wse_arch::types::{DsrId, Dtype};
use wse_arch::Port;
use wse_lint::{lint, Rule};

fn assert_fires(fabric: &Fabric, rule: Rule) {
    let diags = lint(fabric);
    assert!(diags.iter().any(|d| d.rule == rule), "expected {rule} to fire; got: {diags:#?}");
}

fn copy(dst: DsrId, a: DsrId) -> Stmt {
    Stmt::Exec(TensorInstr { op: Op::Copy, dst: Some(dst), a: Some(a), b: None })
}

#[test]
fn clean_minimal_program_lints_zero() {
    // One tile sends itself four fp16 words over the ramp loopback and
    // accumulates them through a FIFO drained by an onpush task.
    let mut f = Fabric::new(1, 1);
    f.set_route(0, 0, Port::Ramp, 0, &[Port::Ramp]);
    let t = f.tile_mut(0, 0);
    let src = t.mem.alloc_vec(4, Dtype::F16).unwrap();
    let fbuf = t.mem.alloc_vec(8, Dtype::F16).unwrap();
    let dst = t.mem.alloc_vec(4, Dtype::F16).unwrap();

    let sink = t.core.add_task(Task::new("sink", vec![]).blocked());
    let fifo = t.core.add_fifo(Fifo::new(fbuf, 8, Dtype::F16, Some(sink)));
    let d_src = t.core.add_dsr(mk::tensor16(src, 4));
    let d_tx = t.core.add_dsr(mk::tx16(0, 4));
    let d_rx = t.core.add_dsr(mk::rx16(0, 4));
    let d_fifo_w = t.core.add_dsr(mk::fifo(fifo));
    let d_fifo_r = t.core.add_dsr(mk::fifo(fifo));
    let d_dst = t.core.add_dsr(mk::tensor16(dst, 4));

    let entry = t.core.add_task(Task::new(
        "entry",
        vec![
            Stmt::Launch {
                slot: 0,
                instr: TensorInstr { op: Op::Copy, dst: Some(d_tx), a: Some(d_src), b: None },
                on_complete: Some((sink, TaskAction::Unblock)),
            },
            copy(d_fifo_w, d_rx),
        ],
    ));
    t.core.set_task_body(sink, vec![copy(d_dst, d_fifo_r)]);
    t.core.mark_entry(entry);

    let diags = lint(&f);
    assert!(diags.is_empty(), "clean program must lint zero, got: {diags:#?}");
}

#[test]
fn route_cycle_is_detected() {
    // A 2x2 ring on color 7: (0,0)S→E, (1,0)W→S, (1,1)N→W, (0,1)E→N.
    // Every hop has a consumer route, so only the cycle rule fires.
    let mut f = Fabric::new(2, 2);
    f.set_route(0, 0, Port::South, 7, &[Port::East]);
    f.set_route(1, 0, Port::West, 7, &[Port::South]);
    f.set_route(1, 1, Port::North, 7, &[Port::West]);
    f.set_route(0, 1, Port::East, 7, &[Port::North]);
    assert_fires(&f, Rule::RouteCycle);
    // No other rule should fire: the ring is self-consistent except for
    // being a deadlock.
    let diags = lint(&f);
    assert!(diags.iter().all(|d| d.rule == Rule::RouteCycle), "{diags:#?}");
}

#[test]
fn dangling_route_is_detected() {
    // (0,0) forwards color 3 East, but (1,0) has no rule for (West, 3).
    let mut f = Fabric::new(2, 1);
    f.set_route(0, 0, Port::Ramp, 3, &[Port::East]);
    assert_fires(&f, Rule::RouteDangling);
}

#[test]
fn dangling_segment_fed_by_two_input_ports_is_reported_once() {
    // Both the ramp and the west input forward color 3 into the same dead
    // east segment. The segment's fate is one fact about the program, so
    // it must yield one diagnostic, not one per feeding direction.
    let mut f = Fabric::new(3, 1);
    f.set_route(0, 0, Port::Ramp, 3, &[Port::East]);
    f.set_route(1, 0, Port::Ramp, 3, &[Port::East]);
    f.set_route(1, 0, Port::West, 3, &[Port::East]);
    let diags = lint(&f);
    let dangling: Vec<_> =
        diags.iter().filter(|d| d.rule == Rule::RouteDangling && d.tile == (1, 0)).collect();
    assert_eq!(dangling.len(), 1, "one report per dead segment: {dangling:#?}");
}

#[test]
fn route_off_fabric_is_detected() {
    // Fabric::set_route guards this at config time; programs that configure
    // routers directly (or deserialize route tables) bypass that, which is
    // what the lint rule is for.
    let mut f = Fabric::new(1, 1);
    f.tile_mut(0, 0).router.set_route(Port::Ramp, 2, &[Port::North]);
    assert_fires(&f, Rule::RouteOffFabric);
}

#[test]
fn declared_edge_port_egress_lints_clean() {
    // A boundary fanout through a declared edge channel is host-drained
    // I/O, not a mistake: a complete edge-egress program must lint zero.
    let mut f = Fabric::new(1, 1);
    f.open_edge(0, 0, Port::East, 2);
    f.set_route(0, 0, Port::Ramp, 2, &[Port::East]);
    let t = f.tile_mut(0, 0);
    let buf = t.mem.alloc_vec(4, Dtype::F16).unwrap();
    let d_src = t.core.add_dsr(mk::tensor16(buf, 4));
    let d_tx = t.core.add_dsr(mk::tx16(2, 4));
    let task = t.core.add_task(Task::new("tx", vec![copy(d_tx, d_src)]));
    t.core.mark_entry(task);
    let diags = lint(&f);
    assert!(diags.is_empty(), "declared edge egress must lint clean: {diags:#?}");
}

#[test]
fn undeclared_edge_fanout_still_fires_beside_a_declared_one() {
    // Declaration is per (tile, port, color): the declared channel is
    // exempt, the undeclared fanout right next to it stays an error.
    let mut f = Fabric::new(1, 1);
    f.open_edge(0, 0, Port::East, 2);
    f.tile_mut(0, 0).router.set_route(Port::Ramp, 2, &[Port::East]);
    f.tile_mut(0, 0).router.set_route(Port::Ramp, 3, &[Port::East]); // not declared
    let diags = lint(&f);
    let off: Vec<_> = diags.iter().filter(|d| d.rule == Rule::RouteOffFabric).collect();
    assert_eq!(off.len(), 1, "exactly the undeclared fanout fires: {diags:#?}");
    assert!(off[0].message.contains("color 3"), "{:#?}", off[0]);
}

#[test]
fn dead_delivery_is_detected() {
    // Color 1 is delivered to the ramp but nothing on the tile receives it.
    let mut f = Fabric::new(1, 1);
    f.set_route(0, 0, Port::Ramp, 1, &[Port::Ramp]);
    assert_fires(&f, Rule::DeadDelivery);
}

#[test]
fn unreachable_receive_is_detected() {
    // A task receives color 4, but no route delivers color 4 to the ramp.
    let mut f = Fabric::new(1, 1);
    let t = f.tile_mut(0, 0);
    let buf = t.mem.alloc_vec(4, Dtype::F16).unwrap();
    let d_rx = t.core.add_dsr(mk::rx16(4, 4));
    let d_buf = t.core.add_dsr(mk::tensor16(buf, 4));
    let task = t.core.add_task(Task::new("rx", vec![copy(d_buf, d_rx)]));
    t.core.mark_entry(task);
    assert_fires(&f, Rule::UnreachableReceive);
}

#[test]
fn missing_ramp_route_is_detected() {
    // A task sends on color 5 with no (Ramp, 5) route configured.
    let mut f = Fabric::new(1, 1);
    let t = f.tile_mut(0, 0);
    let buf = t.mem.alloc_vec(4, Dtype::F16).unwrap();
    let d_src = t.core.add_dsr(mk::tensor16(buf, 4));
    let d_tx = t.core.add_dsr(mk::tx16(5, 4));
    let task = t.core.add_task(Task::new("tx", vec![copy(d_tx, d_src)]));
    t.core.mark_entry(task);
    assert_fires(&f, Rule::MissingRampRoute);
}

#[test]
fn color_conflict_between_concurrent_receives_is_detected() {
    // Two background threads both receiving color 9 in one task: flit
    // attribution between them depends on arrival order.
    let mut f = Fabric::new(1, 1);
    f.set_route(0, 0, Port::Ramp, 9, &[Port::Ramp]);
    let t = f.tile_mut(0, 0);
    let b0 = t.mem.alloc_vec(4, Dtype::F16).unwrap();
    let b1 = t.mem.alloc_vec(4, Dtype::F16).unwrap();
    let d_rx0 = t.core.add_dsr(mk::rx16(9, 4));
    let d_rx1 = t.core.add_dsr(mk::rx16(9, 4));
    let d_b0 = t.core.add_dsr(mk::tensor16(b0, 4));
    let d_b1 = t.core.add_dsr(mk::tensor16(b1, 4));
    let task = t.core.add_task(Task::new(
        "rx2",
        vec![
            Stmt::Launch {
                slot: 0,
                instr: TensorInstr { op: Op::Copy, dst: Some(d_b0), a: Some(d_rx0), b: None },
                on_complete: None,
            },
            Stmt::Launch {
                slot: 1,
                instr: TensorInstr { op: Op::Copy, dst: Some(d_b1), a: Some(d_rx1), b: None },
                on_complete: None,
            },
        ],
    ));
    t.core.mark_entry(task);
    assert_fires(&f, Rule::ColorConflict);
}

#[test]
fn sequential_receives_on_one_color_are_allowed() {
    // Two synchronous receives of the same color are serialized by the
    // main thread — the BiCGStab phase-reuse pattern. No conflict.
    let mut f = Fabric::new(1, 1);
    f.set_route(0, 0, Port::Ramp, 9, &[Port::Ramp]);
    let t = f.tile_mut(0, 0);
    let b0 = t.mem.alloc_vec(4, Dtype::F16).unwrap();
    let d_rx = t.core.add_dsr(mk::rx16(9, 4));
    let d_b0 = t.core.add_dsr(mk::tensor16(b0, 4));
    let d_tx = t.core.add_dsr(mk::tx16(9, 4));
    let task = t
        .core
        .add_task(Task::new("rxseq", vec![copy(d_tx, d_b0), copy(d_b0, d_rx), copy(d_b0, d_rx)]));
    t.core.mark_entry(task);
    let diags = lint(&f);
    assert!(
        diags.iter().all(|d| d.rule != Rule::ColorConflict),
        "sequential same-color receives must not conflict: {diags:#?}"
    );
}

#[test]
fn color_out_of_range_is_detected() {
    let mut f = Fabric::new(1, 1);
    let t = f.tile_mut(0, 0);
    let buf = t.mem.alloc_vec(4, Dtype::F16).unwrap();
    let d_rx = t.core.add_dsr(mk::rx16(99, 4));
    let d_buf = t.core.add_dsr(mk::tensor16(buf, 4));
    let task = t.core.add_task(Task::new("rx", vec![copy(d_buf, d_rx)]));
    t.core.mark_entry(task);
    assert_fires(&f, Rule::ColorOutOfRange);
}

#[test]
fn out_of_range_send_color_is_a_diagnostic_not_a_panic() {
    // No route table has a slot for color 99, so every pass that follows a
    // send into the route graph must treat it as unroutable rather than
    // index with it.
    let mut f = Fabric::new(1, 1);
    let t = f.tile_mut(0, 0);
    let buf = t.mem.alloc_vec(4, Dtype::F16).unwrap();
    let d_buf = t.core.add_dsr(mk::tensor16(buf, 4));
    let d_tx = t.core.add_dsr(mk::tx16(99, 4));
    let task = t.core.add_task(Task::new("tx", vec![copy(d_tx, d_buf)]));
    t.core.mark_entry(task);
    assert_fires(&f, Rule::ColorOutOfRange);
    assert_fires(&f, Rule::MissingRampRoute);
}

#[test]
fn sram_over_budget_is_detected() {
    // A used descriptor whose extent reaches past the 48 KB SRAM.
    let mut f = Fabric::new(1, 1);
    let t = f.tile_mut(0, 0);
    let buf = t.mem.alloc_vec(100, Dtype::F16).unwrap();
    let d_src = t.core.add_dsr(mk::tensor16(buf, 100));
    let d_big = t.core.add_dsr(mk::tensor16(48 * 1024 - 8, 100));
    let task = t.core.add_task(Task::new("spill", vec![copy(d_big, d_src)]));
    t.core.mark_entry(task);
    assert_fires(&f, Rule::SramOverBudget);
}

#[test]
fn unallocated_extent_is_detected() {
    // A used descriptor over memory the allocator never handed out.
    let mut f = Fabric::new(1, 1);
    let t = f.tile_mut(0, 0);
    let buf = t.mem.alloc_vec(16, Dtype::F16).unwrap(); // [0, 32)
    let d_src = t.core.add_dsr(mk::tensor16(buf, 16));
    let d_wild = t.core.add_dsr(mk::tensor16(1024, 16)); // nowhere near it
    let task = t.core.add_task(Task::new("wild", vec![copy(d_wild, d_src)]));
    t.core.mark_entry(task);
    assert_fires(&f, Rule::UnallocatedExtent);
}

#[test]
fn partial_dsr_overlap_is_detected() {
    // dst shifted one element into src: streamed writes clobber unread
    // source elements.
    let mut f = Fabric::new(1, 1);
    let t = f.tile_mut(0, 0);
    let buf = t.mem.alloc_vec(32, Dtype::F16).unwrap();
    let d_src = t.core.add_dsr(mk::tensor16(buf, 16));
    let d_dst = t.core.add_dsr(mk::tensor16(buf + 2, 16));
    let task = t.core.add_task(Task::new("shift", vec![copy(d_dst, d_src)]));
    t.core.mark_entry(task);
    assert_fires(&f, Rule::DsrOverlap);
}

#[test]
fn identical_extent_in_place_update_is_allowed() {
    // dst == src exactly (the in-place AddAssign/Xpay idiom): no finding.
    let mut f = Fabric::new(1, 1);
    let t = f.tile_mut(0, 0);
    let buf = t.mem.alloc_vec(16, Dtype::F16).unwrap();
    let d_a = t.core.add_dsr(mk::tensor16(buf, 16));
    let d_dst = t.core.add_dsr(mk::tensor16(buf, 16));
    let task = t.core.add_task(Task::new(
        "inplace",
        vec![Stmt::Exec(TensorInstr {
            op: Op::AddAssign,
            dst: Some(d_dst),
            a: Some(d_a),
            b: None,
        })],
    ));
    t.core.mark_entry(task);
    let diags = lint(&f);
    assert!(
        diags.iter().all(|d| d.rule != Rule::DsrOverlap),
        "identical-extent in-place update must be allowed: {diags:#?}"
    );
}

#[test]
fn unreachable_task_is_detected() {
    let mut f = Fabric::new(1, 1);
    let t = f.tile_mut(0, 0);
    t.core.add_task(Task::new("orphan", vec![]));
    assert_fires(&f, Rule::UnreachableTask);
}

#[test]
fn completion_chain_reaches_tasks() {
    // A task activated only through a thread-completion trigger is
    // reachable; the trigger's Unblock edge also clears BlockedForever.
    let mut f = Fabric::new(1, 1);
    f.set_route(0, 0, Port::Ramp, 0, &[Port::Ramp]);
    let t = f.tile_mut(0, 0);
    let buf = t.mem.alloc_vec(4, Dtype::F16).unwrap();
    let d_src = t.core.add_dsr(mk::tensor16(buf, 4));
    let d_tx = t.core.add_dsr(mk::tx16(0, 4));
    let d_rx = t.core.add_dsr(mk::rx16(0, 4));
    let d_dst = t.core.add_dsr(mk::tensor16(buf, 4));
    let barrier = t.core.add_task(Task::new("barrier", vec![]));
    let entry = t.core.add_task(Task::new(
        "entry",
        vec![
            Stmt::Launch {
                slot: 0,
                instr: TensorInstr { op: Op::Copy, dst: Some(d_tx), a: Some(d_src), b: None },
                on_complete: Some((barrier, TaskAction::Activate)),
            },
            copy(d_dst, d_rx),
        ],
    ));
    t.core.mark_entry(entry);
    let diags = lint(&f);
    assert!(diags.is_empty(), "completion-chain program must lint clean: {diags:#?}");
}

#[test]
fn blocked_forever_is_detected() {
    // Reachable (activated by the entry) but starts blocked with no
    // reachable unblock.
    let mut f = Fabric::new(1, 1);
    let t = f.tile_mut(0, 0);
    let stuck = t.core.add_task(Task::new("stuck", vec![]).blocked());
    let entry = t.core.add_task(Task::new(
        "entry",
        vec![Stmt::TaskCtl { task: stuck, action: TaskAction::Activate }],
    ));
    t.core.mark_entry(entry);
    assert_fires(&f, Rule::BlockedForever);
}

#[test]
fn fifo_with_no_onpush_or_reader_is_detected() {
    let mut f = Fabric::new(1, 1);
    f.set_route(0, 0, Port::Ramp, 0, &[Port::Ramp]);
    let t = f.tile_mut(0, 0);
    let fbuf = t.mem.alloc_vec(8, Dtype::F16).unwrap();
    let buf = t.mem.alloc_vec(4, Dtype::F16).unwrap();
    let fifo = t.core.add_fifo(Fifo::new(fbuf, 8, Dtype::F16, None));
    let d_src = t.core.add_dsr(mk::tensor16(buf, 4));
    let d_fifo = t.core.add_dsr(mk::fifo(fifo));
    let task = t.core.add_task(Task::new("push", vec![copy(d_fifo, d_src)]));
    t.core.mark_entry(task);
    assert_fires(&f, Rule::FifoNeverDrained);
}

#[test]
fn diagnostics_format_and_sort() {
    let mut f = Fabric::new(1, 1);
    f.set_route(0, 0, Port::Ramp, 1, &[Port::Ramp]);
    let diags = lint(&f);
    assert_eq!(diags.len(), 1);
    let rendered = diags[0].to_string();
    assert!(rendered.contains("error"), "{rendered}");
    assert!(rendered.contains("dead-delivery"), "{rendered}");
    assert!(rendered.contains("tile (0, 0)"), "{rendered}");
}
