//! Fault-injection sweep: solve-success probability and iteration overhead
//! under seeded faults, per fault kind and fault count.
//!
//! For every fault kind (SRAM bit flip, tile kill, stuck router port, link
//! corruption, link drop) and fault count, this driver runs several
//! independently-seeded trials of the wafer BiCGStab solve with a random
//! [`FaultPlan`] armed, under the checkpoint/rollback recovery engine, and
//! tabulates how often the solve still (verifiably) converges and what the
//! recovery cost was. Everything is seeded — two invocations with the same
//! arguments produce bit-identical output, which `scripts/verify.sh`
//! exploits as a reproducibility check.
//!
//! Usage:
//! ```text
//! fault_sweep [--smoke] [--seed N] [--trials N] [--json] [--multi K]
//! ```
//!
//! `--smoke` runs one seeded fault of each kind on a small problem
//! (sub-second; the CI smoke stage). The default sweep uses the test-scale
//! 4×4 wafer and several counts and trials. `--json` replaces the table
//! with a single machine-readable JSON document (same data, same
//! determinism).
//!
//! `--multi K` switches to the **ensemble leg**: a k-wafer hierarchical
//! BiCGStab ([`wse_core::WaferBicgstabMulti`]) under the paper-default
//! host link, sweeping the host-level fault classes (frame drop, frame
//! corruption, link stall, wafer stall) through the reliable seam
//! transport and the ensemble checkpoint/rollback engine. The table gains
//! `retrans` (frames retransmitted) and `link_down` (retry-budget
//! exhaustions) columns. Same seeding discipline, same bit-identical
//! reproducibility.

use stencil::mesh::Mesh3D;
use stencil::problem::manufactured;
use wse_arch::{Fabric, FaultKindClass, FaultPlan, SplitMix64};
use wse_core::recovery::{RecoveryLog, RecoveryOutcome, RecoveryPolicy, ResidualTripwire};
use wse_core::{Krylov, WaferBicgstab, WaferBicgstabMulti};
use wse_float::F16;
use wse_multi::{HostLink, MultiFabric};

struct SweepConfig {
    mesh: Mesh3D,
    fabric: (usize, usize),
    iters: usize,
    counts: Vec<usize>,
    trials: usize,
    seed: u64,
    json: bool,
    /// `Some(k)`: ensemble leg over k wafers and host-level fault classes.
    multi: Option<usize>,
}

/// Per-(kind, count) aggregate over trials.
#[derive(Default)]
struct Cell {
    converged: usize,
    applied: u64,
    committed_iters: usize,
    rollbacks: usize,
    iterations_lost: usize,
    stalls: usize,
    trips: usize,
    false_conv: usize,
    /// Ensemble leg only: frames retransmitted by the reliable transport.
    retransmits: u64,
    /// Ensemble leg only: links declared down (retry budget exhausted).
    link_downs: usize,
}

fn policy() -> RecoveryPolicy {
    // fp16 iterates floor the recursive residual around 1e-3–1e-2 on these
    // problem sizes; stop there rather than at the fp64-scale 1e-7 default,
    // and accept a true residual consistent with that floor.
    RecoveryPolicy {
        checkpoint_every: 2,
        max_retries: 3,
        verify_rel: 0.1,
        tripwire: ResidualTripwire { converged: 2e-2, diverged: 1e6 },
        label: String::new(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json = args.iter().any(|a| a == "--json");
    let flag = |name: &str| {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(|v| {
            v.parse::<u64>().unwrap_or_else(|_| panic!("{name} expects an integer, got '{v}'"))
        })
    };
    let seed = flag("--seed").unwrap_or(42);
    let multi = flag("--multi").map(|k| {
        assert!(k >= 2, "--multi expects at least 2 wafers, got {k}");
        k as usize
    });
    let cfg = if let Some(k) = multi {
        // Ensemble leg: k slabs of at least 2 tiles each along X.
        if smoke {
            SweepConfig {
                mesh: Mesh3D::new(2 * k, 2, 4),
                fabric: (2 * k, 2),
                iters: 10,
                counts: vec![1],
                trials: flag("--trials").unwrap_or(1) as usize,
                seed,
                json,
                multi,
            }
        } else {
            SweepConfig {
                mesh: Mesh3D::new(4 * k, 4, 8),
                fabric: (4 * k, 4),
                iters: 16,
                counts: vec![1, 2, 4],
                trials: flag("--trials").unwrap_or(3) as usize,
                seed,
                json,
                multi,
            }
        }
    } else if smoke {
        SweepConfig {
            mesh: Mesh3D::new(2, 2, 4),
            fabric: (2, 2),
            iters: 10,
            counts: vec![1],
            trials: flag("--trials").unwrap_or(1) as usize,
            seed,
            json,
            multi,
        }
    } else {
        SweepConfig {
            mesh: Mesh3D::new(4, 4, 8),
            fabric: (4, 4),
            iters: 16,
            counts: vec![1, 2, 4],
            trials: flag("--trials").unwrap_or(3) as usize,
            seed,
            json,
            multi,
        }
    };
    if cfg.multi.is_some() {
        run_multi_sweep(&cfg);
    } else {
        run_sweep(&cfg);
    }
}

fn run_sweep(cfg: &SweepConfig) {
    let p = manufactured(cfg.mesh, (1.0, -0.5, 0.5), 11).preconditioned();
    let a16: stencil::DiaMatrix<F16> = p.matrix.convert();
    let b16: Vec<F16> = p.rhs.iter().map(|&v| F16::from_f64(v)).collect();
    let (w, h) = cfg.fabric;
    let pol = policy();

    // Fault-free baseline: fixes the per-iteration cost, the convergence
    // point, and the cycle horizon faults are scheduled within.
    let mut fabric = Fabric::new(w, h);
    let solver = WaferBicgstab::build(&mut fabric, &a16);
    let live_words = fabric.tile(0, 0).mem.used() / 2;
    let (_, stats, log) = solver.solve_with_recovery(&mut fabric, &a16, &b16, cfg.iters, &pol);
    let horizon = fabric.cycle().max(1);
    assert_eq!(
        log.outcome,
        RecoveryOutcome::Converged,
        "baseline must converge ({} iters, rel {:.3e}); residuals: {:?}",
        log.iterations,
        log.final_rel_residual,
        stats.residuals
    );

    let mut rows: Vec<(FaultKindClass, usize, Cell)> = Vec::new();
    for kind in FaultKindClass::ALL {
        for &count in &cfg.counts {
            let mut cell = Cell::default();
            for trial in 0..cfg.trials {
                // One deterministic seed per (kind, count, trial) cell,
                // decorrelated through SplitMix64.
                let mut mix = SplitMix64::new(
                    cfg.seed ^ (kind as u64) << 32 ^ (count as u64) << 16 ^ trial as u64,
                );
                let plan_seed = mix.next_u64();
                run_trial(cfg, &a16, &b16, plan_seed, count, kind, live_words, horizon, &mut cell);
            }
            rows.push((kind, count, cell));
        }
    }

    if cfg.json {
        print_json(cfg, &log, horizon, &rows);
    } else {
        print_table(cfg, &pol, &log, horizon, &rows);
    }
}

fn print_table(
    cfg: &SweepConfig,
    pol: &RecoveryPolicy,
    baseline: &RecoveryLog,
    horizon: u64,
    rows: &[(FaultKindClass, usize, Cell)],
) {
    let (w, h) = cfg.fabric;
    println!(
        "fault_sweep: BiCGStab on {w}x{h} wafer, mesh {}x{}x{}, \
         {} trials/cell, seed {}",
        cfg.mesh.nx, cfg.mesh.ny, cfg.mesh.nz, cfg.trials, cfg.seed
    );
    println!(
        "policy: checkpoint every {} iters, {} retries, converge rel < {:.1e} \
         (verified true rel < {:.1e})",
        pol.checkpoint_every, pol.max_retries, pol.tripwire.converged, pol.verify_rel
    );
    println!(
        "baseline (fault-free): {:?} in {} iterations, rel {:.3e}, {} cycles",
        baseline.outcome, baseline.iterations, baseline.final_rel_residual, horizon
    );
    println!();
    println!(
        "{:<14} {:>6} {:>7} {:>8} {:>9} {:>9} {:>10} {:>9} {:>7} {:>6} {:>8}",
        "kind",
        "faults",
        "trials",
        "success",
        "avg_appl",
        "avg_iter",
        "avg_rollbk",
        "avg_lost",
        "stalls",
        "trips",
        "false_cv"
    );
    let t = cfg.trials as f64;
    for (kind, count, cell) in rows {
        println!(
            "{:<14} {:>6} {:>7} {:>8.2} {:>9.2} {:>9.2} {:>10.2} {:>9.2} {:>7.2} {:>6.2} {:>8.2}",
            kind.label(),
            count,
            cfg.trials,
            cell.converged as f64 / t,
            cell.applied as f64 / t,
            cell.committed_iters as f64 / t,
            cell.rollbacks as f64 / t,
            cell.iterations_lost as f64 / t,
            cell.stalls as f64 / t,
            cell.trips as f64 / t,
            cell.false_conv as f64 / t,
        );
    }
    println!();
    println!(
        "iteration overhead = avg_iter - {} (baseline); avg_appl counts faults \
         that actually fired; avg_lost counts rolled-back work",
        baseline.iterations
    );
}

/// Hand-serialized (the build is offline; no serde) machine-readable dump of
/// the same data the table shows. Keys and ordering are fixed, so identical
/// arguments still produce bit-identical output.
fn print_json(
    cfg: &SweepConfig,
    baseline: &RecoveryLog,
    horizon: u64,
    rows: &[(FaultKindClass, usize, Cell)],
) {
    let (w, h) = cfg.fabric;
    println!("{{");
    println!(
        "  \"config\": {{\"fabric\": [{w}, {h}], \"mesh\": [{}, {}, {}], \
         \"iters\": {}, \"trials\": {}, \"seed\": {}}},",
        cfg.mesh.nx, cfg.mesh.ny, cfg.mesh.nz, cfg.iters, cfg.trials, cfg.seed
    );
    println!(
        "  \"baseline\": {{\"outcome\": \"{:?}\", \"iterations\": {}, \
         \"rel_residual\": {:.6e}, \"cycles\": {horizon}}},",
        baseline.outcome, baseline.iterations, baseline.final_rel_residual
    );
    println!("  \"cells\": [");
    for (i, (kind, count, cell)) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        println!(
            "    {{\"kind\": \"{}\", \"faults\": {count}, \"trials\": {}, \
             \"converged\": {}, \"applied\": {}, \"committed_iters\": {}, \
             \"rollbacks\": {}, \"iterations_lost\": {}, \"stalls\": {}, \
             \"tripwire_trips\": {}, \"false_convergences\": {}}}{comma}",
            kind.label(),
            cfg.trials,
            cell.converged,
            cell.applied,
            cell.committed_iters,
            cell.rollbacks,
            cell.iterations_lost,
            cell.stalls,
            cell.trips,
            cell.false_conv,
        );
    }
    println!("  ]");
    println!("}}");
}

#[allow(clippy::too_many_arguments)]
fn run_trial(
    cfg: &SweepConfig,
    a16: &stencil::DiaMatrix<F16>,
    b16: &[F16],
    plan_seed: u64,
    count: usize,
    kind: FaultKindClass,
    live_words: u32,
    horizon: u64,
    cell: &mut Cell,
) {
    let (w, h) = cfg.fabric;
    let mut fabric = Fabric::new(w, h);
    let solver = WaferBicgstab::build(&mut fabric, a16);
    // Schedule within the first 3/4 of the baseline horizon so most faults
    // actually land inside the solve.
    let plan =
        FaultPlan::random(plan_seed, count, (horizon * 3 / 4).max(1), w, h, live_words, &[kind]);
    fabric.arm_faults(&plan);
    let (_, _, log) = solver.solve_with_recovery(&mut fabric, a16, b16, cfg.iters, &policy());
    if log.outcome == RecoveryOutcome::Converged {
        cell.converged += 1;
    }
    cell.applied += fabric.fault_log().map_or(0, |l| l.applied.len() as u64);
    cell.committed_iters += log.iterations;
    cell.rollbacks += log.rollbacks;
    cell.iterations_lost += log.iterations_lost;
    cell.stalls += log.stalls;
    cell.trips += log.tripwire_trips;
    cell.false_conv += log.false_convergences;
}

// ---------------------------------------------------------------- ensemble

/// The `--multi K` leg: host-level fault classes against the k-wafer
/// hierarchical solver, through the reliable seam transport and the
/// ensemble checkpoint/rollback engine.
fn run_multi_sweep(cfg: &SweepConfig) {
    let k = cfg.multi.expect("multi leg requires --multi K");
    let p = manufactured(cfg.mesh, (1.0, -0.5, 0.5), 11).preconditioned();
    let a16: stencil::DiaMatrix<F16> = p.matrix.convert();
    let b16: Vec<F16> = p.rhs.iter().map(|&v| F16::from_f64(v)).collect();
    let (w, h) = cfg.fabric;
    let pol = policy();

    // Fault-free ensemble baseline fixes the horizon and convergence point.
    let mut multi = MultiFabric::new(w, h, k, HostLink::paper_default());
    let solver = WaferBicgstabMulti::build(&mut multi, &a16);
    let (_, stats, log) = solver.solve_with_recovery(&mut multi, &a16, &b16, cfg.iters, &pol);
    let horizon = multi.cycle().max(1);
    assert_eq!(
        log.outcome,
        RecoveryOutcome::Converged,
        "ensemble baseline must converge ({} iters, rel {:.3e}); residuals: {:?}",
        log.iterations,
        log.final_rel_residual,
        stats.residuals
    );

    let mut rows: Vec<(FaultKindClass, usize, Cell)> = Vec::new();
    for kind in FaultKindClass::HOST_LINK {
        for &count in &cfg.counts {
            let mut cell = Cell::default();
            for trial in 0..cfg.trials {
                // Same per-cell seeding discipline as the on-wafer sweep.
                let mut mix = SplitMix64::new(
                    cfg.seed ^ (kind as u64) << 32 ^ (count as u64) << 16 ^ trial as u64,
                );
                let plan_seed = mix.next_u64();
                run_multi_trial(cfg, k, &a16, &b16, plan_seed, count, kind, horizon, &mut cell);
            }
            rows.push((kind, count, cell));
        }
    }

    if cfg.json {
        print_multi_json(cfg, k, &log, horizon, &rows);
    } else {
        print_multi_table(cfg, k, &pol, &log, horizon, &rows);
    }
}

#[allow(clippy::too_many_arguments)]
fn run_multi_trial(
    cfg: &SweepConfig,
    k: usize,
    a16: &stencil::DiaMatrix<F16>,
    b16: &[F16],
    plan_seed: u64,
    count: usize,
    kind: FaultKindClass,
    horizon: u64,
    cell: &mut Cell,
) {
    let (w, h) = cfg.fabric;
    let mut multi = MultiFabric::new(w, h, k, HostLink::paper_default());
    let solver = WaferBicgstabMulti::build(&mut multi, a16);
    let plan = FaultPlan::random_host_link(plan_seed, count, (horizon * 3 / 4).max(1), k, &[kind]);
    multi.arm_faults(&plan);
    let (_, _, log) = solver.solve_with_recovery(&mut multi, a16, b16, cfg.iters, &policy());
    if log.outcome == RecoveryOutcome::Converged {
        cell.converged += 1;
    }
    cell.applied += multi.fault_log().applied.len() as u64;
    cell.committed_iters += log.iterations;
    cell.rollbacks += log.rollbacks;
    cell.iterations_lost += log.iterations_lost;
    cell.stalls += log.stalls;
    cell.trips += log.tripwire_trips;
    cell.false_conv += log.false_convergences;
    cell.retransmits += multi.retransmits();
    cell.link_downs += multi.link_down_records().len();
}

fn print_multi_table(
    cfg: &SweepConfig,
    k: usize,
    pol: &RecoveryPolicy,
    baseline: &RecoveryLog,
    horizon: u64,
    rows: &[(FaultKindClass, usize, Cell)],
) {
    let (w, h) = cfg.fabric;
    println!(
        "fault_sweep --multi {k}: hierarchical BiCGStab on {k}x {}x{h} wafers \
         (global {w}x{h}), mesh {}x{}x{}, {} trials/cell, seed {}",
        w / k,
        cfg.mesh.nx,
        cfg.mesh.ny,
        cfg.mesh.nz,
        cfg.trials,
        cfg.seed
    );
    println!(
        "policy: checkpoint every {} iters, {} retries, converge rel < {:.1e} \
         (verified true rel < {:.1e}); paper-default host link, reliable transport",
        pol.checkpoint_every, pol.max_retries, pol.tripwire.converged, pol.verify_rel
    );
    println!(
        "baseline (fault-free): {:?} in {} iterations, rel {:.3e}, {} cycles",
        baseline.outcome, baseline.iterations, baseline.final_rel_residual, horizon
    );
    println!();
    println!(
        "{:<18} {:>6} {:>7} {:>8} {:>9} {:>9} {:>10} {:>8} {:>9} {:>7} {:>8}",
        "kind",
        "faults",
        "trials",
        "success",
        "avg_appl",
        "avg_iter",
        "avg_rollbk",
        "retrans",
        "link_down",
        "stalls",
        "false_cv"
    );
    let t = cfg.trials as f64;
    for (kind, count, cell) in rows {
        println!(
            "{:<18} {:>6} {:>7} {:>8.2} {:>9.2} {:>9.2} {:>10.2} {:>8.2} {:>9.2} {:>7.2} {:>8.2}",
            kind.label(),
            count,
            cfg.trials,
            cell.converged as f64 / t,
            cell.applied as f64 / t,
            cell.committed_iters as f64 / t,
            cell.rollbacks as f64 / t,
            cell.retransmits as f64 / t,
            cell.link_downs as f64 / t,
            cell.stalls as f64 / t,
            cell.false_conv as f64 / t,
        );
    }
    println!();
    println!(
        "retrans = seam frames re-sent by the go-back-N transport; link_down = \
         links whose retry budget exhausted (every one is named in the log)"
    );
}

fn print_multi_json(
    cfg: &SweepConfig,
    k: usize,
    baseline: &RecoveryLog,
    horizon: u64,
    rows: &[(FaultKindClass, usize, Cell)],
) {
    let (w, h) = cfg.fabric;
    println!("{{");
    println!(
        "  \"config\": {{\"wafers\": {k}, \"fabric\": [{w}, {h}], \"mesh\": [{}, {}, {}], \
         \"iters\": {}, \"trials\": {}, \"seed\": {}}},",
        cfg.mesh.nx, cfg.mesh.ny, cfg.mesh.nz, cfg.iters, cfg.trials, cfg.seed
    );
    println!(
        "  \"baseline\": {{\"outcome\": \"{:?}\", \"iterations\": {}, \
         \"rel_residual\": {:.6e}, \"cycles\": {horizon}}},",
        baseline.outcome, baseline.iterations, baseline.final_rel_residual
    );
    println!("  \"cells\": [");
    for (i, (kind, count, cell)) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        println!(
            "    {{\"kind\": \"{}\", \"faults\": {count}, \"trials\": {}, \
             \"converged\": {}, \"applied\": {}, \"committed_iters\": {}, \
             \"rollbacks\": {}, \"retransmits\": {}, \"link_downs\": {}, \
             \"stalls\": {}, \"false_convergences\": {}}}{comma}",
            kind.label(),
            cfg.trials,
            cell.converged,
            cell.applied,
            cell.committed_iters,
            cell.rollbacks,
            cell.retransmits,
            cell.link_downs,
            cell.stalls,
            cell.false_conv,
        );
    }
    println!("  ]");
    println!("}}");
}
