//! Reference-vs-optimized stepper equivalence.
//!
//! The activity-driven `Fabric::step()` must be cycle-for-cycle
//! bit-identical to the retained full-scan `Fabric::step_reference()`.
//! These tests build the *same* program twice (no cloning — construction is
//! deterministic), pin one fabric to the reference stepper, drive both in
//! lockstep, and assert identical quiescence, perf counters, and final
//! machine state: SRAM bytes, registers, router queues, and ramp residues.
//!
//! Coverage: randomized multi-stream wafer programs (proptest), the
//! lint-fixture-style *broken* programs that wedge or idle forever (the
//! activity set must not "optimize away" their stuck state), fault
//! injection, armed tracing and sanitizing, a whole 24×24 fabric backed up
//! at once, and the places router credits could go stale: a flit lost on
//! the wire, a multi-color ramp-out with one color held, a whole tile
//! replaced by `blit_region` mid-run. The two property tests also have
//! `#[ignore]`d `_deep` variants at 2048 cases each, which
//! `scripts/verify.sh` runs in release.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use wse_arch::dsr::mk;
use wse_arch::fault::{FaultKind, FaultPlan};
use wse_arch::instr::{Op, Stmt, Task, TaskAction, TensorInstr};
use wse_arch::trace::{TraceConfig, TraceEventKind};
use wse_arch::types::{Dtype, Flit, Port, TaskId, NUM_COLORS};
use wse_arch::{Fabric, Region};
use wse_float::F16;

/// Configures a Manhattan (x-then-y) route from `src` to `dst` on `color`.
fn route_xy(f: &mut Fabric, src: (usize, usize), dst: (usize, usize), color: u8) {
    let (mut x, mut y) = src;
    let mut in_port: Option<Port> = None; // None = comes from the ramp
    loop {
        let out = if x < dst.0 {
            Port::East
        } else if x > dst.0 {
            Port::West
        } else if y < dst.1 {
            Port::South
        } else if y > dst.1 {
            Port::North
        } else {
            Port::Ramp
        };
        let from = in_port.unwrap_or(Port::Ramp);
        f.set_route(x, y, from, color, &[out]);
        if out == Port::Ramp {
            break;
        }
        let (dx, dy) = out.delta();
        x = (x as i64 + dx as i64) as usize;
        y = (y as i64 + dy as i64) as usize;
        in_port = Some(out.opposite().unwrap());
    }
}

/// Installs a sender streaming `data` on `color` from `src` and a receiver
/// storing into a fresh buffer at `dst`.
fn install_stream(
    f: &mut Fabric,
    src: (usize, usize),
    dst: (usize, usize),
    color: u8,
    data: &[F16],
) {
    let n = data.len() as u32;
    {
        let t = f.tile_mut(src.0, src.1);
        let addr = t.mem.alloc_vec(n, Dtype::F16).unwrap();
        t.mem.store_f16_slice(addr, data);
        let dsrc = t.core.add_dsr(mk::tensor16(addr, n));
        let dtx = t.core.add_dsr(mk::tx16(color, n));
        let task = t.core.add_task(Task::new(
            "send",
            vec![Stmt::Exec(TensorInstr { op: Op::Copy, dst: Some(dtx), a: Some(dsrc), b: None })],
        ));
        t.core.activate(task);
    }
    let t = f.tile_mut(dst.0, dst.1);
    let out = t.mem.alloc_vec(n, Dtype::F16).unwrap();
    let drx = t.core.add_dsr(mk::rx16(color, n));
    let ddst = t.core.add_dsr(mk::tensor16(out, n));
    let task = t.core.add_task(Task::new(
        "recv",
        vec![Stmt::Exec(TensorInstr { op: Op::Copy, dst: Some(ddst), a: Some(drx), b: None })],
    ));
    t.core.activate(task);
}

/// Asserts that two fabrics are in bit-identical machine states.
fn assert_same_state(a: &Fabric, b: &Fabric, ctx: &str) {
    assert_eq!(a.cycle(), b.cycle(), "{ctx}: cycle");
    let (pa, pb) = (a.perf(), b.perf());
    assert_eq!(pa, pb, "{ctx}: perf");
    for y in 0..a.height() {
        for x in 0..a.width() {
            let (ta, tb) = (a.tile(x, y), b.tile(x, y));
            assert_eq!(ta.mem.as_bytes(), tb.mem.as_bytes(), "{ctx}: SRAM of tile ({x},{y})");
            assert_eq!(ta.core.regs, tb.core.regs, "{ctx}: regs of tile ({x},{y})");
            assert_eq!(
                ta.router.queued(),
                tb.router.queued(),
                "{ctx}: router queue of tile ({x},{y})"
            );
            assert_eq!(
                ta.core.ramp_in_residue(),
                tb.core.ramp_in_residue(),
                "{ctx}: ramp-in residue of tile ({x},{y})"
            );
            assert_eq!(
                ta.core.ramp_out_len(),
                tb.core.ramp_out_len(),
                "{ctx}: ramp-out of tile ({x},{y})"
            );
            assert_eq!(
                ta.core.is_quiescent(),
                tb.core.is_quiescent(),
                "{ctx}: core quiescence of tile ({x},{y})"
            );
            for c in 0..NUM_COLORS as u8 {
                let flits = |q: &wse_arch::types::Ring| q.iter().collect::<Vec<Flit>>();
                assert_eq!(
                    (flits(ta.core.ramp_in(c)), flits(ta.core.ramp_out(c))),
                    (flits(tb.core.ramp_in(c)), flits(tb.core.ramp_out(c))),
                    "{ctx}: ramp queues of tile ({x},{y}) color {c}"
                );
                for p in Port::ALL {
                    assert_eq!(
                        ta.router.space(p, c),
                        tb.router.space(p, c),
                        "{ctx}: router queue {p:?}/{c} of tile ({x},{y})"
                    );
                }
            }
        }
    }
}

/// Builds the program twice, pins one copy to the reference stepper, and
/// drives both for exactly `cycles` cycles, checking equivalence at every
/// cycle boundary. Returns the pair for any test-specific postconditions.
fn lockstep(build: impl Fn() -> Fabric, cycles: u64) -> (Fabric, Fabric) {
    let mut opt = build();
    let mut reference = build();
    reference.use_reference_stepper(true);
    drive(&mut opt, &mut reference, cycles);
    (opt, reference)
}

/// Steps an (optimized, reference-pinned) pair `cycles` cycles: quiescence
/// and every perf counter compared each cycle, the whole machine at the end.
fn drive(opt: &mut Fabric, reference: &mut Fabric, cycles: u64) {
    for c in 0..cycles {
        assert_eq!(
            opt.is_quiescent(),
            reference.is_quiescent(),
            "quiescence diverged at cycle {c}"
        );
        opt.step();
        reference.step();
        assert_eq!(opt.perf(), reference.perf(), "perf diverged in cycle {c}");
    }
    assert_same_state(opt, reference, "after lockstep");
    assert_eq!(opt.is_quiescent(), reference.is_quiescent(), "final quiescence");
}

/// Random multi-stream programs on small fabrics: every stream takes a
/// Manhattan route, streams share links and colors sparsely, some programs
/// finish and idle, longer ones are still in flight at the horizon. Drawn
/// as `(w, h, endpoints, horizon)`.
fn stream_programs() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize, usize)>, u64)> {
    (
        2usize..5,
        2usize..5,
        prop::collection::vec((0usize..16, 0usize..16, 1usize..24), 1..6),
        50u64..400,
    )
}

/// The two steppers must agree at every cycle of a [`stream_programs`] case.
fn stream_program_steps_identically(
    (w, h, endpoints, horizon): (usize, usize, Vec<(usize, usize, usize)>, u64),
) -> Result<(), TestCaseError> {
    let build = || {
        let mut f = Fabric::new(w, h);
        for (k, &(s, d, n)) in endpoints.iter().enumerate() {
            let src = (s % w, s / w % h);
            let mut dst = (d % w, d / w % h);
            if dst == src {
                dst = ((src.0 + 1) % w, src.1);
            }
            let color = k as u8; // disjoint colors: routes never collide
            let data: Vec<F16> =
                (0..n).map(|i| F16::from_f64(((i * 5 + k) % 17) as f64 * 0.5)).collect();
            route_xy(&mut f, src, dst, color);
            install_stream(&mut f, src, dst, color, &data);
        }
        f
    };
    let (opt, reference) = lockstep(build, horizon);
    // Quiescent runs must also agree on *when* they quiesced.
    prop_assert_eq!(opt.cycle(), reference.cycle());
    Ok(())
}

/// A fault plan's drawn cycles and bits, as `((kill_at, flip_at, drop_at,
/// bit, horizon), (corrupt_at, corrupt_bit, stuck_at))`.
type FaultCase = ((u64, u64, u64, u8, u64), (u64, u8, u64));

/// Every on-wafer fault kind lands on the same running streams at a drawn
/// cycle: an SRAM flip, a dropped flit, a tile kill, a corrupted flit and
/// a stuck port.
fn fault_plans() -> impl Strategy<Value = FaultCase> {
    ((5u64..60, 1u64..80, 1u64..40, 0u8..16, 100u64..250), (1u64..12, 0u8..16, 1u64..24))
}

/// Fault plans (kills, SRAM flips, link faults, stuck ports) applied to a
/// running stream: the activity-driven stepper must apply every fault at
/// the same cycle with the same effect, including faults landing on tiles
/// the optimizer would otherwise skip.
fn fault_plan_steps_identically(
    ((kill_at, flip_at, drop_at, bit, horizon), (corrupt_at, corrupt_bit, stuck_at)): FaultCase,
) -> Result<(), TestCaseError> {
    let build = || {
        let mut f = Fabric::new(4, 2);
        let data: Vec<F16> = (0..24).map(|i| F16::from_f64((i % 9) as f64)).collect();
        route_xy(&mut f, (0, 0), (3, 0), 1);
        install_stream(&mut f, (0, 0), (3, 0), 1, &data);
        route_xy(&mut f, (0, 1), (3, 1), 2);
        install_stream(&mut f, (0, 1), (3, 1), 2, &data);
        // The victim address exists on every tile (fresh allocator).
        let addr = f.tile_mut(2, 1).mem.alloc_vec(4, Dtype::F16).unwrap();
        f.arm_faults(
            &FaultPlan::new()
                // The row-0 stream crosses (1,0) East in its first dozen
                // cycles too, where it may meet the drop on the same port.
                .with(
                    corrupt_at,
                    FaultKind::LinkCorrupt { x: 1, y: 0, port: Port::East, bit: corrupt_bit },
                )
                .with(flip_at, FaultKind::SramBitFlip { x: 2, y: 1, addr, bit })
                .with(drop_at, FaultKind::LinkDrop { x: 1, y: 0, port: Port::East })
                .with(kill_at, FaultKind::TileKill { x: 2, y: 0 })
                .with(
                    corrupt_at,
                    FaultKind::LinkCorrupt { x: 1, y: 1, port: Port::East, bit: corrupt_bit },
                )
                .with(stuck_at, FaultKind::StuckPort { x: 2, y: 1, port: Port::East }),
        );
        f
    };
    let (opt, reference) = lockstep(build, horizon);
    let (la, lb) = (opt.fault_log().unwrap(), reference.fault_log().unwrap());
    prop_assert_eq!(la.applied.len(), lb.applied.len());
    prop_assert_eq!(la.dropped_flits, lb.dropped_flits);
    prop_assert_eq!(la.corrupted_flits, lb.corrupted_flits);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_stream_programs_step_identically(case in stream_programs()) {
        stream_program_steps_identically(case)?;
    }

    #[test]
    fn fault_injection_steps_identically(case in fault_plans()) {
        fault_plan_steps_identically(case)?;
    }
}

// The same two properties at 2048 cases each: `scripts/verify.sh` runs them
// in release (`cargo test --release -p wse-arch -- --ignored`).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    #[ignore = "deep sweep, run in release by scripts/verify.sh"]
    fn random_stream_programs_step_identically_deep(case in stream_programs()) {
        stream_program_steps_identically(case)?;
    }

    #[test]
    #[ignore = "deep sweep, run in release by scripts/verify.sh"]
    fn fault_injection_steps_identically_deep(case in fault_plans()) {
        fault_plan_steps_identically(case)?;
    }
}

/// The lint fixtures' *broken* programs still execute (that is the point of
/// the dynamic simulator); their wedged end states must be identical under
/// both steppers.
#[test]
fn broken_dangling_route_steps_identically() {
    // (0,0) streams east; (1,0) has no route for (West, color): flits pile
    // up in (1,0)'s input queue until backpressure wedges the sender.
    let data: Vec<F16> = (0..32).map(|i| F16::from_f64(i as f64 * 0.25)).collect();
    let build = || {
        let mut f = Fabric::new(2, 1);
        f.set_route(0, 0, Port::Ramp, 3, &[Port::East]);
        let t = f.tile_mut(0, 0);
        let addr = t.mem.alloc_vec(32, Dtype::F16).unwrap();
        t.mem.store_f16_slice(addr, &data);
        let dsrc = t.core.add_dsr(mk::tensor16(addr, 32));
        let dtx = t.core.add_dsr(mk::tx16(3, 32));
        let task = t.core.add_task(Task::new(
            "send",
            vec![Stmt::Exec(TensorInstr { op: Op::Copy, dst: Some(dtx), a: Some(dsrc), b: None })],
        ));
        t.core.activate(task);
        f
    };
    let (opt, _) = lockstep(build, 300);
    assert!(!opt.is_quiescent(), "the dangling route must wedge, not finish");
}

#[test]
fn broken_unreachable_receive_steps_identically() {
    // A receiver blocks forever on a color nothing sends: the optimized
    // stepper may *skip* the idle-blocked tile but must report identical
    // idle accounting and non-quiescence.
    let build = || {
        let mut f = Fabric::new(2, 2);
        let t = f.tile_mut(1, 1);
        let buf = t.mem.alloc_vec(4, Dtype::F16).unwrap();
        let d_rx = t.core.add_dsr(mk::rx16(4, 4));
        let d_buf = t.core.add_dsr(mk::tensor16(buf, 4));
        let task = t.core.add_task(Task::new(
            "rx",
            vec![Stmt::Exec(TensorInstr {
                op: Op::Copy,
                dst: Some(d_buf),
                a: Some(d_rx),
                b: None,
            })],
        ));
        t.core.activate(task);
        f
    };
    let (opt, _) = lockstep(build, 200);
    assert!(!opt.is_quiescent(), "the receive can never complete");
}

#[test]
fn broken_blocked_forever_task_steps_identically() {
    // An entry task activates a permanently blocked task. A blocked task
    // *reads* as quiescent (which is exactly why BlockedForever needs the
    // static lint) — the steppers must agree on that reading cycle by
    // cycle, including the early cycles where the entry task runs.
    let build = || {
        let mut f = Fabric::new(1, 1);
        let t = f.tile_mut(0, 0);
        let stuck = t.core.add_task(Task::new("stuck", vec![]).blocked());
        let entry = t.core.add_task(Task::new(
            "entry",
            vec![Stmt::TaskCtl { task: stuck, action: TaskAction::Activate }],
        ));
        t.core.activate(entry);
        f
    };
    let (opt, _) = lockstep(build, 150);
    assert!(opt.is_quiescent(), "a blocked task reads as quiescent (the lint's job to flag)");
}

#[test]
fn broken_route_cycle_with_injected_traffic_steps_identically() {
    // The lint fixture's 2x2 routing ring, but with a tile injecting into
    // it: flits orbit forever. Forwarding activity never ceases, so the
    // active set can never shrink to empty.
    let build = || {
        let mut f = Fabric::new(2, 2);
        f.set_route(0, 0, Port::South, 7, &[Port::East]);
        f.set_route(0, 0, Port::Ramp, 7, &[Port::East]); // injection point
        f.set_route(1, 0, Port::West, 7, &[Port::South]);
        f.set_route(1, 1, Port::North, 7, &[Port::West]);
        f.set_route(0, 1, Port::East, 7, &[Port::North]);
        let t = f.tile_mut(0, 0);
        let addr = t.mem.alloc_vec(4, Dtype::F16).unwrap();
        t.mem.store_f16_slice(addr, &[F16::from_f64(1.0); 4]);
        let dsrc = t.core.add_dsr(mk::tensor16(addr, 4));
        let dtx = t.core.add_dsr(mk::tx16(7, 4));
        let task = t.core.add_task(Task::new(
            "inject",
            vec![Stmt::Exec(TensorInstr { op: Op::Copy, dst: Some(dtx), a: Some(dsrc), b: None })],
        ));
        t.core.activate(task);
        f
    };
    let (opt, reference) = lockstep(build, 400);
    assert!(!opt.is_quiescent(), "orbiting flits never drain");
    assert!(opt.perf().flits_routed > 100, "the ring must actually be orbiting");
    assert_eq!(opt.perf().flits_routed, reference.perf().flits_routed);
}

#[test]
fn trace_armed_runs_step_identically() {
    // Arming a trace wakes no tile (skipped tiles' deferred idle is in the
    // window baselines); counters, window baselines, and per-tile trace
    // totals must match the reference.
    let data: Vec<F16> = (0..16).map(|i| F16::from_f64((i % 7) as f64)).collect();
    let build = |trace: bool| {
        let mut f = Fabric::new(3, 3);
        route_xy(&mut f, (0, 0), (2, 2), 5);
        install_stream(&mut f, (0, 0), (2, 2), 5, &data);
        if trace {
            f.arm_trace(TraceConfig::default());
        }
        f
    };
    let (mut opt, mut reference) = lockstep(|| build(true), 120);
    let (ta, tb) = (opt.take_trace().unwrap(), reference.take_trace().unwrap());
    assert_eq!(ta.start_cycle, tb.start_cycle);
    assert_eq!(ta.end_cycle, tb.end_cycle);
    for (a, b) in ta.tiles.iter().zip(tb.tiles.iter()) {
        assert_eq!(a.busy_cycles, b.busy_cycles, "tile ({},{})", a.x, a.y);
        assert_eq!(a.idle_cycles, b.idle_cycles, "tile ({},{})", a.x, a.y);
        assert_eq!(a.flits_routed, b.flits_routed, "tile ({},{})", a.x, a.y);
    }
    // Armed and disarmed runs take identical cycle counts.
    let mut plain = build(false);
    let c = plain.run_watched(10_000, 10_000).unwrap();
    let mut traced = build(true);
    let ct = traced.run_watched(10_000, 10_000).unwrap();
    assert_eq!(c, ct, "tracing must not perturb timing");
}

#[test]
fn mid_run_mutation_reactivates_tiles() {
    // Mutating a quiescent fabric through tile_mut (program loading after
    // a run) must wake the touched tiles under the optimized stepper.
    let data: Vec<F16> = (0..8).map(|i| F16::from_f64(i as f64)).collect();
    let build = || {
        let mut f = Fabric::new(3, 1);
        route_xy(&mut f, (0, 0), (2, 0), 1);
        install_stream(&mut f, (0, 0), (2, 0), 1, &data);
        f
    };
    let mut opt = build();
    let mut reference = build();
    reference.use_reference_stepper(true);
    let ca = opt.run_watched(10_000, 10_000).unwrap();
    let cb = reference.run_watched(10_000, 10_000).unwrap();
    assert_eq!(ca, cb);
    // Load a second program into both (identical construction order).
    for f in [&mut opt, &mut reference] {
        let t = f.tile_mut(1, 0);
        let addr = t.mem.alloc_vec(4, Dtype::F16).unwrap();
        t.mem.store_f16_slice(addr, &data[..4]);
        let dsrc = t.core.add_dsr(mk::tensor16(addr, 4));
        let dtx = t.core.add_dsr(mk::tx16(9, 4));
        let task = t.core.add_task(Task::new(
            "late",
            vec![Stmt::Exec(TensorInstr { op: Op::Copy, dst: Some(dtx), a: Some(dsrc), b: None })],
        ));
        t.core.activate(task);
        f.set_route(1, 0, Port::Ramp, 9, &[Port::East]);
        f.set_route(2, 0, Port::West, 9, &[Port::Ramp]);
        let t = f.tile_mut(2, 0);
        let out = t.mem.alloc_vec(4, Dtype::F16).unwrap();
        let drx = t.core.add_dsr(mk::rx16(9, 4));
        let ddst = t.core.add_dsr(mk::tensor16(out, 4));
        let task = t.core.add_task(Task::new(
            "late-recv",
            vec![Stmt::Exec(TensorInstr { op: Op::Copy, dst: Some(ddst), a: Some(drx), b: None })],
        ));
        t.core.activate(task);
    }
    assert!(!opt.is_quiescent(), "the late program must be visible immediately");
    let ca = opt.run_watched(10_000, 10_000).unwrap();
    let cb = reference.run_watched(10_000, 10_000).unwrap();
    assert_eq!(ca, cb, "the late program must run identically");
    assert_same_state(&opt, &reference, "after late program");
}

/// A receiver that sits on its hands for ~`busy / 4` cycles (a long local
/// copy) before it starts consuming `n` fp16 words from `color` — so the
/// path behind it fills to capacity and backpressures first.
fn install_late_receiver(f: &mut Fabric, at: (usize, usize), color: u8, n: u32, busy: u32) {
    let t = f.tile_mut(at.0, at.1);
    let scratch = t.mem.alloc_vec(2 * busy, Dtype::F16).unwrap();
    let d_from = t.core.add_dsr(mk::tensor16(scratch, busy));
    let d_to = t.core.add_dsr(mk::tensor16(scratch + 2 * busy, busy));
    let out = t.mem.alloc_vec(n, Dtype::F16).unwrap();
    let d_rx = t.core.add_dsr(mk::rx16(color, n));
    let d_out = t.core.add_dsr(mk::tensor16(out, n));
    let task = t.core.add_task(Task::new(
        "late-recv",
        vec![
            Stmt::Exec(TensorInstr { op: Op::Copy, dst: Some(d_to), a: Some(d_from), b: None }),
            Stmt::Exec(TensorInstr { op: Op::Copy, dst: Some(d_out), a: Some(d_rx), b: None }),
        ],
    ));
    t.core.activate(task);
}

/// Installs a sender streaming `data` on `color` from `src` (no receiver).
fn install_sender(
    f: &mut Fabric,
    src: (usize, usize),
    color: u8,
    data: &[F16],
    slot: u8,
) -> TaskId {
    let n = data.len() as u32;
    let t = f.tile_mut(src.0, src.1);
    let addr = t.mem.alloc_vec(n, Dtype::F16).unwrap();
    t.mem.store_f16_slice(addr, data);
    let dsrc = t.core.add_dsr(mk::tensor16(addr, n));
    let dtx = t.core.add_dsr(mk::tx16(color, n));
    let task = t.core.add_task(Task::new(
        "send",
        vec![Stmt::Launch {
            slot,
            instr: TensorInstr { op: Op::Copy, dst: Some(dtx), a: Some(dsrc), b: None },
            on_complete: None,
        }],
    ));
    t.core.activate(task);
    task
}

#[test]
fn a_flit_lost_on_the_wire_keeps_the_link_at_full_depth() {
    // A long stream into a receiver that starts late: every queue on the
    // path fills to its eight slots and the sender stalls on credits. One
    // flit is dropped on the second link early on, as the middle router
    // forwards it. The queue it was headed for never saw it, so that router
    // must get the credit it spent back, and the slot the flit vacated must
    // still be credited to the router upstream — a credit leaked either way
    // would cap a link at seven in flight and shift every later
    // backpressure cycle.
    let data: Vec<F16> = (0..96).map(|i| F16::from_f64((i % 13) as f64 * 0.5)).collect();
    let build = || {
        let mut f = Fabric::new(3, 1);
        route_xy(&mut f, (0, 0), (2, 0), 4);
        install_sender(&mut f, (0, 0), 4, &data, 0);
        install_late_receiver(&mut f, (2, 0), 4, 96, 320);
        f.arm_faults(
            &FaultPlan::new().with(6, FaultKind::LinkDrop { x: 1, y: 0, port: Port::East }),
        );
        f
    };
    let (opt, _) = lockstep(build, 400);
    assert_eq!(opt.fault_log().unwrap().dropped_flits, 1);
    assert!(opt.perf().backpressure_total() > 50, "the path must have backed up");
    assert_eq!(opt.tile(1, 0).router.queued(), 0, "everything that survived was delivered");
}

#[test]
fn link_faults_strike_in_ascending_tile_order() {
    // Two streams cross (2,0) East and (1,1) East in the same cycles. Three
    // one-shot faults arm at once: a drop on the lower-index tile (2,0),
    // then a drop and a corruption on (1,1). Struck in ascending tile
    // order, (2,0)'s drop is spent first, and its swap-remove moves (1,1)'s
    // corruption ahead of (1,1)'s drop: the first flit through (1,1) East
    // is corrupted and the next one lost. Struck the other way round, that
    // first flit would be the one lost, and the receiver's SRAM would differ.
    let data: Vec<F16> = (0..24).map(|i| F16::from_f64((i % 9) as f64)).collect();
    let build = || {
        let mut f = Fabric::new(4, 2);
        route_xy(&mut f, (0, 1), (3, 1), 2);
        install_stream(&mut f, (0, 1), (3, 1), 2, &data);
        route_xy(&mut f, (0, 0), (3, 0), 1);
        install_stream(&mut f, (0, 0), (3, 0), 1, &data);
        f.arm_faults(
            &FaultPlan::new()
                .with(4, FaultKind::LinkDrop { x: 2, y: 0, port: Port::East })
                .with(4, FaultKind::LinkDrop { x: 1, y: 1, port: Port::East })
                .with(4, FaultKind::LinkCorrupt { x: 1, y: 1, port: Port::East, bit: 3 }),
        );
        f
    };
    let (opt, reference) = lockstep(build, 80);
    for f in [&opt, &reference] {
        let log = f.fault_log().unwrap();
        assert_eq!(log.applied.len(), 3);
        assert_eq!((log.dropped_flits, log.corrupted_flits), (2, 1), "all three must fire");
    }
}

#[test]
fn held_color_does_not_block_the_other_ramp_out_colors() {
    // One core streams on three colors at once. Color 6 runs into a tile
    // with no route for it and wedges after 16 words (8 in the downstream
    // queue, 8 in the core's own); colors 5 and 7 keep flowing, east and
    // south, sharing the ramp round-robin with the held color skipped.
    let data: Vec<F16> = (0..40).map(|i| F16::from_f64((i % 11) as f64 * 0.25)).collect();
    let build = || {
        let mut f = Fabric::new(2, 2);
        route_xy(&mut f, (0, 0), (1, 0), 5);
        f.set_route(0, 0, Port::Ramp, 6, &[Port::East]); // (1,0) has no route for it
        route_xy(&mut f, (0, 0), (0, 1), 7);
        for (slot, color) in [(0, 5), (1, 6), (2, 7)] {
            install_sender(&mut f, (0, 0), color, &data, slot);
        }
        install_late_receiver(&mut f, (1, 0), 5, 40, 64);
        install_late_receiver(&mut f, (0, 1), 7, 40, 8);
        f
    };
    let (opt, _) = lockstep(build, 300);
    assert!(!opt.is_quiescent(), "color 6 stays wedged");
    assert_eq!(opt.tile(0, 0).core.ramp_out(6).len(), 8, "held color keeps its own queue full");
    assert_eq!(opt.tile(0, 0).core.ramp_out_len(), 8, "the other two colors drained");
    assert_eq!(opt.tile(1, 0).core.ramp_in_residue() + opt.tile(0, 1).core.ramp_in_residue(), 0);
}

#[test]
fn sanitizer_armed_runs_step_identically() {
    // Armed, every tensor instruction takes the per-element path (shadow
    // marks are per access) inside the activity-driven stepper; the run
    // must match both the reference and the disarmed run, and both steppers
    // must report the same observations.
    let data: Vec<F16> = (0..24).map(|i| F16::from_f64((i % 5) as f64)).collect();
    let build = |armed: bool| {
        let mut f = Fabric::new(3, 2);
        route_xy(&mut f, (0, 0), (2, 1), 2);
        install_stream(&mut f, (0, 0), (2, 1), 2, &data);
        route_xy(&mut f, (2, 0), (0, 1), 9);
        install_stream(&mut f, (2, 0), (0, 1), 9, &data);
        // A receive nothing ever feeds: a growing channel-wait streak.
        let t = f.tile_mut(1, 0);
        let d_rx = t.core.add_dsr(mk::rx16(13, 1));
        let starved = t.core.add_task(Task::new(
            "starved",
            vec![Stmt::Exec(TensorInstr {
                op: Op::LoadReg { reg: 3 },
                dst: None,
                a: Some(d_rx),
                b: None,
            })],
        ));
        t.core.activate(starved);
        if armed {
            f.arm_sanitizer();
        }
        f
    };
    let (mut opt, mut reference) = lockstep(|| build(true), 150);
    let (ra, rb) = (opt.take_sanitizer().unwrap(), reference.take_sanitizer().unwrap());
    assert_eq!(ra.cycles, rb.cycles);
    assert_eq!(ra.total_trips(), rb.total_trips());
    assert_eq!(ra.longest_channel_wait(), rb.longest_channel_wait());
    assert!(ra
        .longest_channel_wait()
        .is_some_and(|(x, y, c, n)| (x, y, c) == (1, 0, 13) && n > 100));
    for (a, b) in ra.tiles.iter().zip(&rb.tiles) {
        assert_eq!(a.chan_wait, b.chan_wait, "tile ({},{})", a.x, a.y);
    }
    // Armed and disarmed runs are the same machine, cycle for cycle.
    let mut plain = build(false);
    let mut armed = build(true);
    for _ in 0..150 {
        plain.step();
        armed.step();
    }
    assert_same_state(&plain, &armed, "armed vs disarmed");
}

#[test]
fn a_skipped_tile_ends_its_channel_wait_streaks() {
    // (0,0) starves on color 13 for 20 cycles, gets its one flit, idles,
    // then starves again for 10. The reference steps the idle tile, and
    // each of those cycles ends the streak; the activity stepper skips it,
    // and must end the streak all the same.
    let recv = |t: &mut wse_arch::Tile, name| {
        let d_rx = t.core.add_dsr(mk::rx16(13, 1));
        let load = TensorInstr { op: Op::LoadReg { reg: 3 }, dst: None, a: Some(d_rx), b: None };
        t.core.add_task(Task::new(name, vec![Stmt::Exec(load)]))
    };
    let build = || {
        let mut f = Fabric::new(2, 1);
        f.set_route(1, 0, Port::Ramp, 13, &[Port::West]);
        f.set_route(0, 0, Port::East, 13, &[Port::Ramp]);
        let first = recv(f.tile_mut(0, 0), "first");
        f.tile_mut(0, 0).core.activate(first);
        recv(f.tile_mut(0, 0), "second");
        let t = f.tile_mut(1, 0);
        let addr = t.mem.alloc_vec(1, Dtype::F16).unwrap();
        let d_src = t.core.add_dsr(mk::tensor16(addr, 1));
        let d_tx = t.core.add_dsr(mk::tx16(13, 1));
        let send = TensorInstr { op: Op::Copy, dst: Some(d_tx), a: Some(d_src), b: None };
        t.core.add_task(Task::new("send", vec![Stmt::Exec(send)]));
        f.arm_sanitizer();
        f
    };
    let (mut opt, mut reference) = lockstep(build, 20);
    for f in [&mut opt, &mut reference] {
        f.tile_mut(1, 0).core.activate(0);
    }
    drive(&mut opt, &mut reference, 20);
    assert!(opt.is_quiescent(), "the first receive has its flit");
    for f in [&mut opt, &mut reference] {
        f.tile_mut(0, 0).core.activate(1);
    }
    drive(&mut opt, &mut reference, 10);
    let (ra, rb) = (opt.take_sanitizer().unwrap(), reference.take_sanitizer().unwrap());
    // The first wait is the longest: the second (10 cycles) starts afresh.
    assert_eq!(ra.longest_channel_wait(), Some((0, 0, 13, 22)));
    assert_eq!(ra.longest_channel_wait(), rb.longest_channel_wait());
    for (a, b) in ra.tiles.iter().zip(&rb.tiles) {
        assert_eq!(a.chan_wait, b.chan_wait, "tile ({},{})", a.x, a.y);
        assert_eq!(a.longest_wait, b.longest_wait, "tile ({},{})", a.x, a.y);
    }
}

#[test]
fn blit_over_a_stepped_fabric_steps_identically() {
    // (0,0) streams east into a tile with no route for the color: the
    // stream wedges with (1,0)'s West queue full. Then a template with
    // *different* routes — West/3 now reaches the core, and there is a
    // receiver — is blitted over (1,0). The whole tile is replaced, queues
    // included, so everything derived from it (the credits (0,0) holds for
    // that queue above all) must be re-derived before the next step; the
    // stream then resumes, identically under both steppers.
    let data: Vec<F16> = (0..32).map(|i| F16::from_f64(i as f64 * 0.25)).collect();
    let build = || {
        let mut f = Fabric::new(2, 1);
        f.set_route(0, 0, Port::Ramp, 3, &[Port::East]);
        install_sender(&mut f, (0, 0), 3, &data, 0);
        f
    };
    let (mut opt, mut reference) = lockstep(build, 80);
    assert_eq!(opt.tile(1, 0).router.space(Port::West, 3), 0, "wedged on a full queue");

    let mut template = Fabric::new(1, 1);
    template.set_route(0, 0, Port::West, 3, &[Port::Ramp]);
    let t = template.tile_mut(0, 0);
    let out = t.mem.alloc_vec(24, Dtype::F16).unwrap();
    let d_rx = t.core.add_dsr(mk::rx16(3, 24));
    let d_out = t.core.add_dsr(mk::tensor16(out, 24));
    let recv = t.core.add_task(Task::new(
        "recv",
        vec![Stmt::Exec(TensorInstr { op: Op::Copy, dst: Some(d_out), a: Some(d_rx), b: None })],
    ));
    for f in [&mut opt, &mut reference] {
        f.blit_region(Region::new(1, 0, 1, 1), &template);
        f.tile_mut(1, 0).core.activate(recv);
    }
    drive(&mut opt, &mut reference, 120);
    // The eight words in the replaced queue are gone; the other 24 arrive.
    assert!(opt.is_quiescent(), "the stream must resume and finish");
    assert_eq!(opt.tile(1, 0).mem.load_f16_slice(out, 24), data[8..]);
}

/// Adds a task copying `n` fp16 words within tile `at` (busy for about
/// `n / 4` cycles, no fabric traffic) and returns it, not yet activated.
fn add_local_copy(f: &mut Fabric, at: (usize, usize), n: u32) -> TaskId {
    let t = f.tile_mut(at.0, at.1);
    let buf = t.mem.alloc_vec(2 * n, Dtype::F16).unwrap();
    let d_from = t.core.add_dsr(mk::tensor16(buf, n));
    let d_to = t.core.add_dsr(mk::tensor16(buf + 2 * n, n));
    t.core.add_task(Task::new(
        "copy",
        vec![Stmt::Exec(TensorInstr { op: Op::Copy, dst: Some(d_to), a: Some(d_from), b: None })],
    ))
}

#[test]
fn blit_over_an_idle_tile_starts_its_accounting_at_the_blit() {
    // (1,0) runs a long local copy while (0,0) has nothing to do, so the
    // activity stepper skips (0,0) and defers its idle cycles. A template
    // is then blitted over (0,0): the core that accrued that idle time is
    // gone, and the new one must be billed only from the blit cycle on —
    // in its counters and, under an armed trace, in its event stamps.
    for traced in [false, true] {
        let build = || {
            let mut f = Fabric::new(2, 1);
            let copy = add_local_copy(&mut f, (1, 0), 4096);
            f.tile_mut(1, 0).core.activate(copy);
            if traced {
                f.arm_trace(TraceConfig::default());
            }
            f
        };
        let (mut opt, mut reference) = lockstep(build, 100);
        let mut template = Fabric::new(1, 1);
        let copy = add_local_copy(&mut template, (0, 0), 8);
        let blit_at = opt.cycle();
        for f in [&mut opt, &mut reference] {
            f.blit_region(Region::new(0, 0, 1, 1), &template);
            f.tile_mut(0, 0).core.activate(copy);
        }
        drive(&mut opt, &mut reference, 10);
        assert!(!opt.is_quiescent(), "(1,0) is still copying");
        for f in [&mut opt, &mut reference] {
            f.settle_idle();
            let perf = f.tile(0, 0).core.perf;
            assert_eq!(perf.busy_cycles + perf.idle_cycles, 10, "traced: {traced}");
        }
        if traced {
            let (ta, tb) = (opt.take_trace().unwrap(), reference.take_trace().unwrap());
            let start = TraceEventKind::TaskStart { task: copy, name: "copy" };
            for t in [&ta, &tb] {
                let first = t.tile(0, 0).events.first().expect("the ring outlives the blit");
                assert_eq!((first.cycle, first.kind), (blit_at, start), "blitted core's stamp");
            }
            for (a, b) in ta.tiles.iter().zip(&tb.tiles) {
                assert_eq!(a.idle_cycles, b.idle_cycles, "tile ({},{})", a.x, a.y);
                assert_eq!(a.stall, b.stall, "tile ({},{})", a.x, a.y);
            }
        }
    }
}

#[test]
fn overwriting_a_skipped_tile_steps_identically() {
    // (1,0) idles while (0,0) copies, so the activity stepper skips it and
    // defers its idle cycles; then the whole tile is replaced through
    // `tile_mut`. The replaced core takes those cycles with it: the new
    // one is billed from the overwrite on, as under the reference.
    let build = || {
        let mut f = Fabric::new(2, 1);
        let copy = add_local_copy(&mut f, (0, 0), 4096);
        f.tile_mut(0, 0).core.activate(copy);
        f
    };
    let (mut opt, mut reference) = lockstep(build, 50);
    for f in [&mut opt, &mut reference] {
        *f.tile_mut(1, 0) = wse_arch::Tile::default();
    }
    drive(&mut opt, &mut reference, 5);
    opt.settle_idle();
    assert_eq!(opt.tile(1, 0).core.perf.idle_cycles, 5);
}

#[test]
fn dense_backpressure_steps_identically() {
    // 24×24 tiles, all but the last two columns streaming two hops east on
    // three interleaved colors into receivers that start late: more than
    // 512 tiles are active and staging at once — the only case here where
    // nearly every tile delivers and hands credits back in the same cycle —
    // and every path fills up and runs out of credits before it drains.
    let (w, h) = (24usize, 24usize);
    let data: Vec<F16> = (0..48).map(|i| F16::from_f64((i % 7) as f64 * 0.5)).collect();
    let build = || {
        let mut f = Fabric::new(w, h);
        // Senders first, so every tile's send task is scheduled ahead of
        // its (long) receive task and all streams start together.
        for y in 0..h {
            for x in 0..w - 2 {
                let color = (x % 3) as u8;
                route_xy(&mut f, (x, y), (x + 2, y), color);
                install_sender(&mut f, (x, y), color, &data, 0);
            }
        }
        for y in 0..h {
            for x in 0..w - 2 {
                install_late_receiver(&mut f, (x + 2, y), (x % 3) as u8, 48, 160);
            }
        }
        f
    };
    let (opt, _) = lockstep(build, 200);
    assert!(opt.perf().backpressure_total() > 10_000, "every path must have backed up");
    assert!(opt.is_quiescent(), "all streams must have landed");
}
