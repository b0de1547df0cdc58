//! Fault-injection, watchdog, and checkpoint/rollback recovery — the
//! robustness story end to end.
//!
//! The fabric has no hardware ECC and the routing plane has no timeouts, so
//! before this subsystem a misrouted flit or a corrupted word meant either a
//! silently wrong answer or a simulation spinning its full cycle budget.
//! These tests pin the contract from the other side: every injected fault
//! either leaves a verifiably correct solve, or is *named* — by a
//! [`StallReport`] from the watchdog or a non-`Converged` outcome in the
//! [`RecoveryLog`].

use proptest::prelude::*;
use wafer_stencil::arch::dsr::mk;
use wafer_stencil::arch::fabric::StallReport;
use wafer_stencil::arch::instr::{Op, Stmt, Task, TensorInstr};
use wafer_stencil::arch::types::{Dtype, Port};
use wafer_stencil::arch::{FaultKind, FaultKindClass, FaultPlan};
use wafer_stencil::kernels::recovery::{
    true_rel_residual, RecoveryLog, RecoveryOutcome, RecoveryPolicy, ResidualTripwire,
};
use wafer_stencil::kernels::WaferBicgstabMulti;
use wafer_stencil::prelude::*;
use wse_multi::{HostLink, MultiFabric};

/// fp16-scale recovery policy: the wafer iterates in fp16, so convergence is
/// declared at the fp16 floor and verified against a commensurate true
/// residual (defaults target fp64-scale solves).
fn fp16_policy() -> RecoveryPolicy {
    RecoveryPolicy {
        checkpoint_every: 0, // keep only the clean post-load checkpoint
        max_retries: 3,
        verify_rel: 0.1,
        tripwire: ResidualTripwire { converged: 2e-2, diverged: 1e6 },
        label: String::new(),
    }
}

fn fp16_problem(mesh: Mesh3D) -> (DiaMatrix<F16>, Vec<F16>) {
    let p = manufactured(mesh, (1.0, -0.5, 0.5), 11).preconditioned();
    (p.matrix.convert(), p.rhs.iter().map(|&v| F16::from_f64(v)).collect())
}

/// Builds a solver, runs one fault-free recovering solve, and returns the
/// cycle horizon it took (for scheduling faults "mid-solve") plus its log.
fn baseline(mesh: Mesh3D, w: usize, h: usize) -> (u64, RecoveryLog) {
    let (a, b) = fp16_problem(mesh);
    let mut fabric = Fabric::new(w, h);
    let solver = WaferBicgstab::build(&mut fabric, &a);
    let (_, _, log) = solver.solve_with_recovery(&mut fabric, &a, &b, 16, &fp16_policy());
    (fabric.cycle(), log)
}

/// The wse-lint `dangling_route_is_detected` fixture shape — (0,0) forwards
/// color 3 East, (1,0) has no rule for (West, 3) — but with linting *not*
/// run and traffic actually sent: the watchdog must return a structured
/// [`StallReport`] instead of spinning the full cycle budget.
#[test]
fn watchdog_names_an_undeliverable_route_without_lint() {
    let mut f = Fabric::new(2, 1);
    f.set_route(0, 0, Port::Ramp, 3, &[Port::East]);
    // Deliberately no route at (1,0): flits pile up in its West queue.

    let t = f.tile_mut(0, 0);
    let n = 64;
    let src = t.mem.alloc_vec(n, Dtype::F16).unwrap();
    let data: Vec<F16> = (0..n).map(|i| F16::from_f64(i as f64)).collect();
    t.mem.store_f16_slice(src, &data);
    let d_src = t.core.add_dsr(mk::tensor16(src, n));
    let d_tx = t.core.add_dsr(mk::tx16(3, n));
    let send = t.core.add_task(Task::new(
        "send",
        vec![Stmt::Exec(TensorInstr { op: Op::Copy, dst: Some(d_tx), a: Some(d_src), b: None })],
    ));
    t.core.activate(send);

    let budget = 1_000_000;
    let report: Box<StallReport> = f.run_watched(budget, 256).unwrap_err();
    // Deadlock was *detected*, not timed out, and long before the budget.
    assert!(!report.deadline_exceeded, "watchdog should catch the wedge, not the deadline");
    assert!(report.cycle < budget / 10, "detected at cycle {}, too late", report.cycle);
    assert!(report.total_stalled >= 1);
    // The receiving tile is named with its backed-up router queue.
    let rx = report
        .stalled
        .iter()
        .find(|t| t.x == 1 && t.y == 0)
        .expect("tile (1,0) must appear in the report");
    assert!(rx.router_queued > 0, "undelivered flits must be visible: {rx:?}");
}

/// A killed tile on the 4×4 solve fabric: every retry re-wedges, so the
/// recovering solve terminates with `RetriesExhausted` and a stall count —
/// it does not hang and does not claim convergence.
#[test]
fn killed_tile_terminates_with_recovery_log() {
    let mesh = Mesh3D::new(4, 4, 8);
    let (horizon, base) = baseline(mesh, 4, 4);
    assert_eq!(base.outcome, RecoveryOutcome::Converged, "baseline: {base}");

    let (a, b) = fp16_problem(mesh);
    let mut fabric = Fabric::new(4, 4);
    let solver = WaferBicgstab::build(&mut fabric, &a);
    fabric.arm_faults(&FaultPlan::new().with(horizon / 3, FaultKind::TileKill { x: 2, y: 1 }));
    let (_, _, log) = solver.solve_with_recovery(&mut fabric, &a, &b, 16, &fp16_policy());

    assert_eq!(log.outcome, RecoveryOutcome::RetriesExhausted, "{log}");
    assert_eq!(log.rollbacks, 3, "the whole retry budget is consumed: {log}");
    assert!(log.stalls >= 4, "initial stall plus one per retry: {log}");
    assert!(fabric.tile_dead(2, 1));
    // Every stall left a trail naming the wedge.
    assert!(!log.events.is_empty());
}

/// Same shape for a stuck router port: permanent, so bounded retries then a
/// structured failure.
#[test]
fn stuck_port_terminates_with_recovery_log() {
    let mesh = Mesh3D::new(4, 4, 8);
    let (horizon, _) = baseline(mesh, 4, 4);

    let (a, b) = fp16_problem(mesh);
    let mut fabric = Fabric::new(4, 4);
    let solver = WaferBicgstab::build(&mut fabric, &a);
    fabric.arm_faults(
        &FaultPlan::new().with(horizon / 3, FaultKind::StuckPort { x: 1, y: 2, port: Port::East }),
    );
    let (_, _, log) = solver.solve_with_recovery(&mut fabric, &a, &b, 16, &fp16_policy());

    assert_ne!(log.outcome, RecoveryOutcome::Converged, "a wedged fabric cannot converge");
    assert!(log.stalls >= 1, "{log}");
    assert!(log.rollbacks >= 1, "{log}");
}

/// A deterministic high-bit flip in the iterate `x` mid-solve. The
/// recursive residual never reads `x`, so the solve still *claims*
/// convergence — the engine's true-residual verification must catch the
/// lie, roll back to the clean post-load checkpoint, and replay to a
/// verified answer (one-shot faults do not re-fire).
#[test]
fn x_corruption_is_caught_and_repaired_by_rollback() {
    let mesh = Mesh3D::new(2, 2, 4);
    let (horizon, base) = baseline(mesh, 2, 2);
    assert_eq!(base.outcome, RecoveryOutcome::Converged);

    let (a, b) = fp16_problem(mesh);
    let mut fabric = Fabric::new(2, 2);
    let solver = WaferBicgstab::build(&mut fabric, &a);
    // Bit 14 is the top exponent bit: the flipped word jumps to ~1e4.
    let addr = solver.x_addr(1, 1) + 2; // second word of (1,1)'s x slice
    fabric.arm_faults(
        &FaultPlan::new().with(horizon / 2, FaultKind::SramBitFlip { x: 1, y: 1, addr, bit: 14 }),
    );
    let (x, _, log) = solver.solve_with_recovery(&mut fabric, &a, &b, 16, &fp16_policy());

    assert_eq!(log.outcome, RecoveryOutcome::Converged, "{log}");
    assert!(log.false_convergences >= 1, "the corrupted claim must be rejected: {log}");
    assert!(log.rollbacks >= 1, "{log}");
    let true_rel = true_rel_residual(&a, &x, &b);
    assert!(true_rel < 0.1, "returned iterate must be verifiably good: {true_rel}");
}

/// Seeded fault generation and the recovering solve are deterministic:
/// identical seeds produce identical plans and bit-identical recovery logs.
#[test]
fn seeded_runs_are_bit_for_bit_reproducible() {
    let mesh = Mesh3D::new(2, 2, 4);
    let (a, b) = fp16_problem(mesh);
    let run = || {
        let mut fabric = Fabric::new(2, 2);
        let solver = WaferBicgstab::build(&mut fabric, &a);
        let plan = FaultPlan::random(
            0xfeed_beef,
            3,
            50_000,
            wafer_stencil::arch::Region::new(0, 0, 2, 2),
            fabric.tile(0, 0).mem.used() / 2,
            &wafer_stencil::arch::FaultKindClass::ALL,
        );
        fabric.arm_faults(&plan);
        let (x, stats, log) = solver.solve_with_recovery(&mut fabric, &a, &b, 12, &fp16_policy());
        (x, stats.residuals.clone(), format!("{log:?}"), format!("{:?}", fabric.fault_log()))
    };
    let first = run();
    let second = run();
    assert_eq!(first.0, second.0, "iterates differ");
    assert_eq!(first.1, second.1, "residual histories differ");
    assert_eq!(first.2, second.2, "recovery logs differ");
    assert_eq!(first.3, second.3, "fault logs differ");
}

/// Checkpoint restore must not rewind the global clock, the cumulative perf
/// counters, or trace timestamps: rollback discards *solver* state, not
/// *observability* state. Exported traces spanning a rollback must still
/// validate (per-track monotone timestamps).
#[test]
fn checkpoint_restore_preserves_monotone_perf_and_trace_counters() {
    use wafer_stencil::arch::TraceConfig;
    use wafer_stencil::kernels::recovery::FabricCheckpoint;

    let mesh = Mesh3D::new(2, 2, 4);
    let (a, b) = fp16_problem(mesh);
    let mut fabric = Fabric::new(2, 2);
    let solver = WaferBicgstab::build(&mut fabric, &a);
    solver.load_rhs(&mut fabric, &b);
    fabric.arm_trace(TraceConfig::default());

    solver.iterate(&mut fabric);
    let ckpt = FabricCheckpoint::capture(&mut fabric);

    solver.iterate(&mut fabric);
    let cycle_before = fabric.cycle();
    let perf_before = fabric.perf();

    ckpt.restore(&mut fabric);
    assert_eq!(fabric.cycle(), cycle_before, "restore must not rewind the clock");
    let perf_after = fabric.perf();
    assert!(perf_after.busy_cycles >= perf_before.busy_cycles, "busy cycles rewound");
    assert!(perf_after.idle_cycles >= perf_before.idle_cycles, "idle cycles rewound");
    assert!(perf_after.flits_routed >= perf_before.flits_routed, "flit count rewound");
    assert!(perf_after.ctrl_stmts >= perf_before.ctrl_stmts, "ctrl count rewound");
    assert!(
        perf_after.backpressure_total() >= perf_before.backpressure_total(),
        "backpressure counters rewound"
    );

    // Replay the rolled-back iteration: the clock and counters keep rising.
    solver.iterate(&mut fabric);
    assert!(fabric.cycle() > cycle_before, "replay must advance the clock");
    assert!(fabric.perf().busy_cycles > perf_after.busy_cycles);

    let trace = fabric.take_trace().expect("tracing was armed");
    for pair in trace.phases.windows(2) {
        assert!(pair[1].start >= pair[0].start, "phase spans out of order: {pair:?}");
    }
    let json = wse_trace::export_trace_json(&trace);
    let stats = wse_trace::validate_trace_json(&json)
        .expect("trace spanning a rollback must still export a valid Perfetto document");
    assert!(stats.slices > 0, "expected task slices from three iterations");
}

/// The activity-driven stepper defers per-tile idle accounting, so a
/// checkpoint captured mid-solve sees pending idle debt. Capture must
/// settle that debt into the cores' counters: an immediate second
/// capture is bit-identical, and replaying an iteration after a restore
/// reproduces the pre-rollback iteration bit for bit.
#[test]
fn checkpoint_capture_settles_idle_debt_bit_identically() {
    use wafer_stencil::kernels::recovery::FabricCheckpoint;

    let mesh = Mesh3D::new(2, 2, 4);
    let (a, b) = fp16_problem(mesh);
    let mut fabric = Fabric::new(2, 2);
    let solver = WaferBicgstab::build(&mut fabric, &a);
    solver.load_rhs(&mut fabric, &b);
    // One iteration leaves deferred idle debt on every tile that went
    // quiet before the phase ended.
    solver.iterate(&mut fabric);

    let first = FabricCheckpoint::capture(&mut fabric);
    let second = FabricCheckpoint::capture(&mut fabric);
    assert_eq!(
        format!("{first:?}"),
        format!("{second:?}"),
        "back-to-back captures of the same quiescent state must agree"
    );

    // Replay bit-identity across a rollback.
    solver.iterate(&mut fabric);
    let x_a = solver.read_x(&fabric);
    let rr_a = solver.residual_norm(&mut fabric);
    first.restore(&mut fabric);
    solver.iterate(&mut fabric);
    let x_b = solver.read_x(&fabric);
    let rr_b = solver.residual_norm(&mut fabric);
    assert_eq!(x_a, x_b, "replayed iteration must be bit-identical");
    assert_eq!(rr_a.to_bits(), rr_b.to_bits(), "replayed residual must be bit-identical");
}

/// fp16-scale policy for the (smaller) ensemble meshes.
fn multi_policy() -> RecoveryPolicy {
    fp16_policy()
}

fn multi_problem() -> (Mesh3D, DiaMatrix<F16>, Vec<F16>) {
    let mesh = Mesh3D::new(4, 2, 4);
    let (a, b) = fp16_problem(mesh);
    (mesh, a, b)
}

/// Fault-free k=2 recovering solve: returns the cycle horizon (for
/// scheduling faults mid-solve) and its log.
fn multi_baseline() -> (u64, RecoveryLog) {
    let (_, a, b) = multi_problem();
    let mut multi = MultiFabric::new(4, 2, 2, HostLink::paper_default());
    let solver = WaferBicgstabMulti::build(&mut multi, &a);
    let (_, _, log) = solver.solve_with_recovery(&mut multi, &a, &b, 16, &multi_policy());
    (multi.cycle(), log)
}

/// The PR's acceptance path: a k=2 hierarchical solve with a host-link
/// frame drop injected mid-solve completes — the reliable transport
/// retransmits (or the engine rolls back) — and the claimed convergence
/// is verified against the f64 true residual.
#[test]
fn k2_host_link_drop_mid_solve_recovers_and_verifies() {
    let (horizon, base) = multi_baseline();
    assert_eq!(base.outcome, RecoveryOutcome::Converged, "baseline: {base}");

    let (_, a, b) = multi_problem();
    let mut multi = MultiFabric::new(4, 2, 2, HostLink::paper_default());
    let solver = WaferBicgstabMulti::build(&mut multi, &a);
    multi.arm_faults(
        &FaultPlan::new().with(horizon / 2, FaultKind::HostLinkDrop { seam: 0, dir: 0 }),
    );
    let (x, _, log) = solver.solve_with_recovery(&mut multi, &a, &b, 16, &multi_policy());

    assert_eq!(log.outcome, RecoveryOutcome::Converged, "{log}");
    let true_rel = true_rel_residual(&a, &x, &b);
    assert!(true_rel < 0.1, "returned iterate must be verifiably good: {true_rel}");
    // The drop actually happened and was masked, not skipped.
    let flog = multi.fault_log();
    assert_eq!(flog.dropped_flits, 1, "the armed drop must fire: {flog:?}");
    assert!(
        multi.retransmits() >= 1 || log.rollbacks >= 1,
        "the drop must be repaired by retransmission or rollback: {log}"
    );
    assert!(!multi.any_link_down(), "a single drop must not kill the link");
}

/// A tile killed on wafer 1 only, at every tenth of the fault-free horizon:
/// `run_each` returns the stall with the two wafers' clocks apart, and a
/// stalled wafer cannot be idled forward. The rollback must bring the
/// clocks together again — the retry steps the ensemble linked, which
/// asserts it — and the outcome is structured, never a panic.
#[test]
fn k2_wafer_local_stall_leaves_shard_clocks_equal() {
    let (horizon, base) = multi_baseline();
    assert_eq!(base.outcome, RecoveryOutcome::Converged, "baseline: {base}");

    let (_, a, b) = multi_problem();
    for tenth in 1..10 {
        let mut multi = MultiFabric::new(4, 2, 2, HostLink::paper_default());
        let solver = WaferBicgstabMulti::build(&mut multi, &a);
        multi.shard_mut(1).arm_faults(
            &FaultPlan::new().with(horizon * tenth / 10, FaultKind::TileKill { x: 1, y: 1 }),
        );
        let (_, _, log) = solver.solve_with_recovery(&mut multi, &a, &b, 16, &multi_policy());

        assert_ne!(log.outcome, RecoveryOutcome::Converged, "tenth {tenth}: {log}");
        assert!(log.stalls >= 1, "tenth {tenth}: the kill must wedge wafer 1: {log}");
        assert_eq!(
            multi.shard(0).cycle(),
            multi.shard(1).cycle(),
            "tenth {tenth}: shard clocks skewed after {log}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: a single fp16 bit flip anywhere in the iterate `x`, at any
    /// point of the solve, either still yields a *verifiably* correct
    /// answer, or is flagged in the log — never a silently wrong answer
    /// reported as converged below tolerance.
    #[test]
    fn single_x_bit_flip_never_yields_a_silent_wrong_answer(
        tx in 0usize..2,
        ty in 0usize..2,
        word in 0u32..4,    // each tile holds z = 4 words of x
        bit in 0u8..16,
        frac in 1u64..10,
    ) {
        let mesh = Mesh3D::new(2, 2, 4);
        let (a, b) = fp16_problem(mesh);

        // Fault-free horizon for cycle scheduling.
        let (horizon, base) = baseline(mesh, 2, 2);
        prop_assume!(base.outcome == RecoveryOutcome::Converged);

        let mut fabric = Fabric::new(2, 2);
        let solver = WaferBicgstab::build(&mut fabric, &a);
        let addr = solver.x_addr(tx, ty) + 2 * word;
        let at = (horizon * frac / 10).max(1);
        fabric.arm_faults(&FaultPlan::new().with(
            at,
            FaultKind::SramBitFlip { x: tx, y: ty, addr, bit },
        ));
        let (x, _, log) =
            solver.solve_with_recovery(&mut fabric, &a, &b, 16, &fp16_policy());

        if log.outcome == RecoveryOutcome::Converged {
            // A converged claim must be *true* — the engine verified it, and
            // we re-verify independently here.
            let true_rel = true_rel_residual(&a, &x, &b);
            prop_assert!(
                true_rel < 0.1,
                "claimed convergence with true rel {true_rel:.3e}; log: {log}"
            );
        } else {
            // Not converged: the failure is named, not silent.
            prop_assert!(
                log.outcome == RecoveryOutcome::MaxIterations
                    || log.outcome == RecoveryOutcome::RetriesExhausted
            );
        }
    }

    /// Property: a single seeded host-link fault (frame drop or payload
    /// corruption), at any point of a k=2 solve, either still yields a
    /// *verifiably* correct answer — masked by retransmission or repaired
    /// by rollback — or is flagged in the recovery log. Never a silently
    /// wrong answer reported as converged.
    #[test]
    fn single_host_link_fault_never_yields_a_silent_wrong_answer(
        seed in 0u64..1 << 32,
        frac in 1u64..10,
    ) {
        let (horizon, base) = multi_baseline();
        prop_assume!(base.outcome == RecoveryOutcome::Converged);

        let (_, a, b) = multi_problem();
        let mut multi = MultiFabric::new(4, 2, 2, HostLink::paper_default());
        let solver = WaferBicgstabMulti::build(&mut multi, &a);
        // One drop-or-corrupt fault, seeded placement, scheduled at a
        // seeded fraction of the fault-free horizon.
        let pool =
            [FaultKindClass::HostLinkDrop, FaultKindClass::HostLinkCorrupt];
        let plan = FaultPlan::random_host_link(seed, 1, (horizon * frac / 10).max(1), 2, &pool);
        multi.arm_faults(&plan);
        let (x, _, log) =
            solver.solve_with_recovery(&mut multi, &a, &b, 16, &multi_policy());

        if log.outcome == RecoveryOutcome::Converged {
            let true_rel = true_rel_residual(&a, &x, &b);
            prop_assert!(
                true_rel < 0.1,
                "claimed convergence with true rel {true_rel:.3e}; plan {plan:?}; log: {log}"
            );
        } else {
            prop_assert!(
                log.outcome == RecoveryOutcome::MaxIterations
                    || log.outcome == RecoveryOutcome::RetriesExhausted,
                "failure must be structured: {log}"
            );
        }
    }
}
