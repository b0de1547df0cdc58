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
use stencil::DiaMatrix;
use wse_arch::{Fabric, FaultKindClass, FaultPlan, Region, SplitMix64};
use wse_core::recovery::{RecoveryLog, RecoveryOutcome, RecoveryPolicy, ResidualTripwire};
use wse_core::{Krylov, WaferBicgstab, WaferBicgstabMulti};
use wse_float::F16;
use wse_multi::{HostLink, MultiFabric};

/// Which solver the sweep injects faults into.
#[derive(Copy, Clone)]
enum Leg {
    /// One wafer, on-wafer fault classes.
    Wafer,
    /// A k-wafer ensemble, host-level fault classes.
    Ensemble(usize),
}

struct SweepConfig {
    mesh: Mesh3D,
    fabric: (usize, usize),
    iters: usize,
    counts: Vec<usize>,
    trials: usize,
    seed: u64,
    json: bool,
    leg: Leg,
}

/// Per-(kind, count) aggregate over trials.
#[derive(Default)]
struct Cell {
    converged: u64,
    applied: u64,
    committed_iters: u64,
    rollbacks: u64,
    iterations_lost: u64,
    stalls: u64,
    trips: u64,
    false_conv: u64,
    /// Ensemble leg only: frames retransmitted by the reliable transport.
    retransmits: u64,
    /// Ensemble leg only: links declared down (retry budget exhausted).
    link_downs: u64,
}

/// One reported quantity: JSON key, table header, column width, and its
/// per-cell total.
type Metric = (&'static str, &'static str, usize, fn(&Cell) -> u64);

const WAFER_METRICS: [Metric; 8] = [
    ("converged", "success", 8, |c| c.converged),
    ("applied", "avg_appl", 9, |c| c.applied),
    ("committed_iters", "avg_iter", 9, |c| c.committed_iters),
    ("rollbacks", "avg_rollbk", 10, |c| c.rollbacks),
    ("iterations_lost", "avg_lost", 9, |c| c.iterations_lost),
    ("stalls", "stalls", 7, |c| c.stalls),
    ("tripwire_trips", "trips", 6, |c| c.trips),
    ("false_convergences", "false_cv", 8, |c| c.false_conv),
];

const ENSEMBLE_METRICS: [Metric; 8] = [
    ("converged", "success", 8, |c| c.converged),
    ("applied", "avg_appl", 9, |c| c.applied),
    ("committed_iters", "avg_iter", 9, |c| c.committed_iters),
    ("rollbacks", "avg_rollbk", 10, |c| c.rollbacks),
    ("retransmits", "retrans", 8, |c| c.retransmits),
    ("link_downs", "link_down", 9, |c| c.link_downs),
    ("stalls", "stalls", 7, |c| c.stalls),
    ("false_convergences", "false_cv", 8, |c| c.false_conv),
];

/// A seeded fault plan to arm before a solve.
struct Faults {
    seed: u64,
    count: usize,
    kind: FaultKindClass,
    /// Cycle window the faults are scheduled within.
    window: u64,
    /// SRAM words a bit flip may land in (the fault-free build's footprint).
    live_words: u32,
}

/// What one solve reports.
struct Run {
    log: RecoveryLog,
    residuals: Vec<f64>,
    cycles: u64,
    live_words: u32,
    applied: u64,
    retransmits: u64,
    link_downs: u64,
}

impl Leg {
    fn kinds(self) -> &'static [FaultKindClass] {
        match self {
            Leg::Wafer => &FaultKindClass::ALL,
            Leg::Ensemble(_) => &FaultKindClass::HOST_LINK,
        }
    }

    fn metrics(self) -> &'static [Metric; 8] {
        match self {
            Leg::Wafer => &WAFER_METRICS,
            Leg::Ensemble(_) => &ENSEMBLE_METRICS,
        }
    }

    /// Width of the table's `kind` column.
    fn kind_width(self) -> usize {
        match self {
            Leg::Wafer => 14,
            Leg::Ensemble(_) => 18,
        }
    }

    /// Builds a fresh solver, arms `faults` if any, and solves under the
    /// recovery policy.
    fn solve(
        self,
        cfg: &SweepConfig,
        a16: &DiaMatrix<F16>,
        b16: &[F16],
        faults: Option<Faults>,
    ) -> Run {
        let (w, h) = cfg.fabric;
        match self {
            Leg::Wafer => {
                let mut fabric = Fabric::new(w, h);
                let solver = WaferBicgstab::build(&mut fabric, a16);
                let live_words = fabric.tile(0, 0).mem.used() / 2;
                if let Some(f) = faults {
                    let kinds = [f.kind];
                    let region = Region::new(0, 0, w, h);
                    let plan =
                        FaultPlan::random(f.seed, f.count, f.window, region, f.live_words, &kinds);
                    fabric.arm_faults(&plan);
                }
                let (_, stats, log) =
                    solver.solve_with_recovery(&mut fabric, a16, b16, cfg.iters, &policy());
                let applied = fabric.fault_log().map_or(0, |l| l.applied.len() as u64);
                let cycles = fabric.cycle();
                let residuals = stats.residuals;
                Run { log, residuals, cycles, live_words, applied, retransmits: 0, link_downs: 0 }
            }
            Leg::Ensemble(k) => {
                let mut multi = MultiFabric::new(w, h, k, HostLink::paper_default());
                let solver = WaferBicgstabMulti::build(&mut multi, a16);
                if let Some(f) = faults {
                    let plan = FaultPlan::random_host_link(f.seed, f.count, f.window, k, &[f.kind]);
                    multi.arm_faults(&plan);
                }
                let (_, stats, log) =
                    solver.solve_with_recovery(&mut multi, a16, b16, cfg.iters, &policy());
                Run {
                    log,
                    residuals: stats.residuals,
                    cycles: multi.cycle(),
                    live_words: 0,
                    applied: multi.fault_log().applied.len() as u64,
                    retransmits: multi.retransmits(),
                    link_downs: multi.link_down_records().len() as u64,
                }
            }
        }
    }
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
    let leg = flag("--multi").map_or(Leg::Wafer, |k| {
        assert!(k >= 2, "--multi expects at least 2 wafers, got {k}");
        Leg::Ensemble(k as usize)
    });
    // The ensemble leg runs k slabs of the single-wafer shape along X.
    let k = match leg {
        Leg::Wafer => 1,
        Leg::Ensemble(k) => k,
    };
    let (mesh, fabric, iters, counts, trials) = if smoke {
        (Mesh3D::new(2 * k, 2, 4), (2 * k, 2), 10, vec![1], 1)
    } else {
        (Mesh3D::new(4 * k, 4, 8), (4 * k, 4), 16, vec![1, 2, 4], 3)
    };
    let trials = flag("--trials").map_or(trials, |t| t as usize);
    run_sweep(&SweepConfig { mesh, fabric, iters, counts, trials, seed, json, leg });
}

fn run_sweep(cfg: &SweepConfig) {
    let p = manufactured(cfg.mesh, (1.0, -0.5, 0.5), 11).preconditioned();
    let a16: DiaMatrix<F16> = p.matrix.convert();
    let b16: Vec<F16> = p.rhs.iter().map(|&v| F16::from_f64(v)).collect();

    // Fault-free baseline: fixes the per-iteration cost, the convergence
    // point, and the cycle horizon faults are scheduled within.
    let baseline = cfg.leg.solve(cfg, &a16, &b16, None);
    let horizon = baseline.cycles.max(1);
    let log = &baseline.log;
    assert_eq!(
        log.outcome,
        RecoveryOutcome::Converged,
        "baseline must converge ({} iters, rel {:.3e}); residuals: {:?}",
        log.iterations,
        log.final_rel_residual,
        baseline.residuals
    );

    let mut rows: Vec<(FaultKindClass, usize, Cell)> = Vec::new();
    for &kind in cfg.leg.kinds() {
        for &count in &cfg.counts {
            let mut cell = Cell::default();
            for trial in 0..cfg.trials {
                // One deterministic seed per (kind, count, trial) cell,
                // decorrelated through SplitMix64.
                let mut mix = SplitMix64::new(
                    cfg.seed ^ (kind as u64) << 32 ^ (count as u64) << 16 ^ trial as u64,
                );
                // Schedule within the first 3/4 of the baseline horizon so
                // most faults actually land inside the solve.
                let faults = Faults {
                    seed: mix.next_u64(),
                    count,
                    kind,
                    window: (horizon * 3 / 4).max(1),
                    live_words: baseline.live_words,
                };
                let run = cfg.leg.solve(cfg, &a16, &b16, Some(faults));
                cell.converged += u64::from(run.log.outcome == RecoveryOutcome::Converged);
                cell.applied += run.applied;
                cell.committed_iters += run.log.iterations as u64;
                cell.rollbacks += run.log.rollbacks as u64;
                cell.iterations_lost += run.log.iterations_lost as u64;
                cell.stalls += run.log.stalls as u64;
                cell.trips += run.log.tripwire_trips as u64;
                cell.false_conv += run.log.false_convergences as u64;
                cell.retransmits += run.retransmits;
                cell.link_downs += run.link_downs;
            }
            rows.push((kind, count, cell));
        }
    }

    if cfg.json {
        print_json(cfg, log, horizon, &rows);
    } else {
        print_table(cfg, log, horizon, &rows);
    }
}

fn print_table(
    cfg: &SweepConfig,
    baseline: &RecoveryLog,
    horizon: u64,
    rows: &[(FaultKindClass, usize, Cell)],
) {
    let (w, h) = cfg.fabric;
    let (title, link) = match cfg.leg {
        Leg::Wafer => (format!("fault_sweep: BiCGStab on {w}x{h} wafer"), ""),
        Leg::Ensemble(k) => (
            format!(
                "fault_sweep --multi {k}: hierarchical BiCGStab on {k}x {}x{h} wafers \
                 (global {w}x{h})",
                w / k
            ),
            "; paper-default host link, reliable transport",
        ),
    };
    let pol = policy();
    println!(
        "{title}, mesh {}x{}x{}, {} trials/cell, seed {}",
        cfg.mesh.nx, cfg.mesh.ny, cfg.mesh.nz, cfg.trials, cfg.seed
    );
    println!(
        "policy: checkpoint every {} iters, {} retries, converge rel < {:.1e} \
         (verified true rel < {:.1e}){link}",
        pol.checkpoint_every, pol.max_retries, pol.tripwire.converged, pol.verify_rel
    );
    println!(
        "baseline (fault-free): {:?} in {} iterations, rel {:.3e}, {} cycles",
        baseline.outcome, baseline.iterations, baseline.final_rel_residual, horizon
    );
    println!();
    let kw = cfg.leg.kind_width();
    let metrics = cfg.leg.metrics();
    print!("{:<kw$} {:>6} {:>7}", "kind", "faults", "trials");
    for &(_, name, width, _) in metrics {
        print!(" {name:>width$}");
    }
    println!();
    let t = cfg.trials as f64;
    for (kind, count, cell) in rows {
        print!("{:<kw$} {count:>6} {:>7}", kind.label(), cfg.trials);
        for &(_, _, width, total) in metrics {
            print!(" {:>width$.2}", total(cell) as f64 / t);
        }
        println!();
    }
    println!();
    match cfg.leg {
        Leg::Wafer => println!(
            "iteration overhead = avg_iter - {} (baseline); avg_appl counts faults \
             that actually fired; avg_lost counts rolled-back work",
            baseline.iterations
        ),
        Leg::Ensemble(_) => println!(
            "retrans = seam frames re-sent by the go-back-N transport; link_down = \
             links whose retry budget exhausted (every one is named in the log)"
        ),
    }
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
    let wafers = match cfg.leg {
        Leg::Wafer => String::new(),
        Leg::Ensemble(k) => format!("\"wafers\": {k}, "),
    };
    println!("{{");
    println!(
        "  \"config\": {{{wafers}\"fabric\": [{w}, {h}], \"mesh\": [{}, {}, {}], \
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
        let label = kind.label();
        print!("    {{\"kind\": \"{label}\", \"faults\": {count}, \"trials\": {}", cfg.trials);
        for &(key, _, _, total) in cfg.leg.metrics() {
            print!(", \"{key}\": {}", total(cell));
        }
        println!("}}{comma}");
    }
    println!("  ]");
    println!("}}");
}
