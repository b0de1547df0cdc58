//! Checkpoint/rollback recovery and residual tripwires for the wafer solvers.
//!
//! The simulated wafer has no hardware ECC (see `wse-arch`), so an injected
//! fault — an SRAM bit flip, a killed tile, a stuck router port — either
//! corrupts the Krylov state silently or wedges the fabric. This module
//! supplies the host-side defenses the drivers share:
//!
//! * [`ResidualTripwire`] — the convergence/divergence monitor every solve
//!   loop runs on the fused relative residual. A single documented policy
//!   replaces the guard that was previously copy-pasted across the BiCGStab,
//!   CG, and 2D BiCGStab drivers.
//! * [`FabricCheckpoint`] — a host-side snapshot of everything a solver
//!   iteration mutates: per-tile allocated SRAM (the Krylov vectors and
//!   scratch), the scalar register file, and the task-scheduler start state.
//!   Programs, routes, and DSR *descriptors* are immutable after build and
//!   are not copied.
//! * [`run_with_recovery`] — the rollback engine: step the solver under the
//!   fabric stall watchdog, take periodic checkpoints at quiescent iteration
//!   boundaries, and on a stall or tripwire trip restore the last checkpoint
//!   and retry within a strict total-retry budget. Every decision is recorded
//!   in a [`RecoveryLog`].
//!
//! # Why convergence is re-verified
//!
//! BiCGStab's recursive residual is computed from the `r` vector, which never
//! reads the iterate `x` back — a corrupted `x` is invisible to it. A solve
//! may therefore report convergence while holding a wrong answer. The engine
//! guards against this by re-checking every `Converged` verdict against the
//! *true* residual ‖b − A x‖/‖b‖ computed host-side in f64; a mismatch is a
//! false convergence and triggers a rollback like any other trip. With this
//! check in place, a fault can cost iterations or retries, but never a silent
//! wrong answer.

use crate::exec::WaferExec;
use stencil::dia::DiaMatrix;
use wse_arch::fabric::StallReport;
use wse_arch::types::NUM_REGS;
use wse_arch::{Fabric, SchedSnapshot};
use wse_float::F16;
use wse_multi::MultiFabric;

/// The stall-watchdog window the drivers' fallible phase runners use.
pub use wse_arch::fabric::STALL_WINDOW;

/// Verdict of a [`ResidualTripwire`] check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TripwireVerdict {
    /// Residual is in the healthy band: keep iterating.
    Continue,
    /// Residual fell below the convergence threshold.
    Converged,
    /// Residual grew past the divergence threshold.
    Diverged,
    /// Residual is NaN or infinite (an ε-regularized breakdown, or a fault
    /// that propagated into the scalar recurrences).
    NonFinite,
}

impl TripwireVerdict {
    /// Whether this verdict ends a plain (non-recovering) solve loop.
    pub fn stops(self) -> bool {
        !matches!(self, TripwireVerdict::Continue)
    }
}

/// Host-side convergence/divergence monitor on the relative residual.
///
/// The host drives the iteration count (the hardware tasks carry no
/// conditionals), so after each iteration it inspects the on-wafer residual
/// and decides whether to launch another. Historically each driver carried
/// its own copy of the same three-way guard; this type is the single
/// documented policy they all share:
///
/// * `rel < converged` — converged to the fp16 floor; stop.
/// * `rel` NaN/∞ — a breakdown (ρ or ω underflowed into the ε regularizer)
///   or fault-corrupted arithmetic; stop.
/// * `rel > diverged` — runaway growth; ε-regularized breakdowns show up as
///   growth rather than exceptions, so this bounds wasted work.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResidualTripwire {
    /// Convergence threshold (strict `<`). Default `1e-7`.
    pub converged: f64,
    /// Divergence threshold (strict `>`). Default `1e6`.
    pub diverged: f64,
}

impl Default for ResidualTripwire {
    fn default() -> Self {
        ResidualTripwire { converged: 1e-7, diverged: 1e6 }
    }
}

impl ResidualTripwire {
    /// Classifies one relative-residual sample.
    pub fn check(&self, rel: f64) -> TripwireVerdict {
        if !rel.is_finite() {
            TripwireVerdict::NonFinite
        } else if rel < self.converged {
            TripwireVerdict::Converged
        } else if rel > self.diverged {
            TripwireVerdict::Diverged
        } else {
            TripwireVerdict::Continue
        }
    }
}

/// Tuning knobs for [`run_with_recovery`].
#[derive(Clone, Debug)]
pub struct RecoveryPolicy {
    /// Take a checkpoint every this many committed iterations (`0` keeps
    /// only the post-load checkpoint). Cadence trades checkpoint cost
    /// against replay length *and* against the risk of checkpointing
    /// not-yet-detected corruption: a flip that takes three iterations to
    /// trip the wire can be baked into a cadence-1 checkpoint.
    pub checkpoint_every: usize,
    /// Total rollback budget across the whole solve (including reload
    /// retries). Permanent faults (killed tile, stuck port) stall every
    /// retry, so this strictly bounds termination.
    pub max_retries: usize,
    /// Acceptance threshold for the f64 true relative residual when
    /// verifying a `Converged` verdict. fp16 quantization of the iterate
    /// floors the true residual near `κ·ε_fp16`, well above the recursive
    /// residual's `1e-7` stop; `1e-2` separates a healthy converged iterate
    /// (≲1e-3 on the shipped problems) from a corrupted one (≳1e-1).
    pub verify_rel: f64,
    /// Residual monitor applied after every iteration.
    pub tripwire: ResidualTripwire,
    /// Job/tenant attribution label. Copied into [`RecoveryLog::label`] and
    /// prefixed (as `[label]`) onto every event string, so rollbacks in a
    /// shared-fabric service are billable to the job that incurred them
    /// instead of appearing as anonymous ensemble events. Empty disables
    /// the prefix.
    pub label: String,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            checkpoint_every: 4,
            max_retries: 3,
            verify_rel: 1e-2,
            tripwire: ResidualTripwire::default(),
            label: String::new(),
        }
    }
}

impl RecoveryPolicy {
    /// This policy with the given attribution label (builder-style).
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

/// Terminal state of a recovering solve.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// Recursive residual converged *and* the f64 true residual agreed.
    Converged,
    /// Iteration budget exhausted without (verified) convergence.
    #[default]
    MaxIterations,
    /// Rollback budget exhausted — a permanent fault keeps wedging or
    /// corrupting the fabric faster than rollbacks can make progress.
    RetriesExhausted,
}

/// Structured account of a [`run_with_recovery`] solve.
#[derive(Clone, Debug, Default)]
pub struct RecoveryLog {
    /// How the solve ended.
    pub outcome: RecoveryOutcome,
    /// Committed iterations at exit (rolled-back work excluded).
    pub iterations: usize,
    /// Iterations discarded by rollbacks (work done, then undone).
    pub iterations_lost: usize,
    /// Checkpoints captured (the post-load checkpoint counts).
    pub checkpoints_taken: usize,
    /// Rollbacks performed (equals retries consumed).
    pub rollbacks: usize,
    /// Fabric stalls caught by the watchdog.
    pub stalls: usize,
    /// Diverged/NonFinite tripwire trips.
    pub tripwire_trips: usize,
    /// `Converged` verdicts rejected by the true-residual check.
    pub false_convergences: usize,
    /// Last committed relative (recursive) residual.
    pub final_rel_residual: f64,
    /// The job/tenant label from [`RecoveryPolicy::label`] (empty when
    /// unlabeled) — lets a billing table attribute this log without
    /// carrying the policy around.
    pub label: String,
    /// Human-readable trail of every anomaly, in order. Each entry is
    /// prefixed with `[label]` when a label is set.
    pub events: Vec<String>,
}

impl std::fmt::Display for RecoveryLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "recovery: {:?} after {} iterations (rel {:.3e}); {} checkpoints, \
             {} rollbacks ({} iterations lost), {} stalls, {} trips, {} false convergences",
            self.outcome,
            self.iterations,
            self.final_rel_residual,
            self.checkpoints_taken,
            self.rollbacks,
            self.iterations_lost,
            self.stalls,
            self.tripwire_trips,
            self.false_convergences,
        )
    }
}

/// One tile's share of a [`FabricCheckpoint`].
#[derive(Clone, Debug)]
struct TileCheckpoint {
    /// The allocated prefix of SRAM, as raw 16-bit words (bit-exact; F16
    /// round-trips arbitrary bit patterns).
    sram: Vec<F16>,
    regs: [f32; NUM_REGS],
    sched: SchedSnapshot,
}

/// Host-side snapshot of the solver-mutable wafer state.
///
/// Captures, per tile, the allocated SRAM prefix (Krylov vectors,
/// coefficients, scratch — everything the bump allocator handed out), the
/// fp32 register file, and the scheduler's DSR-cursor/task-flag state.
/// Restore pairs with [`Fabric::reset_transient`], which discards whatever a
/// fault left in flight, so the restored state replays from a clean,
/// quiescent machine. Capture must itself happen at a quiescent iteration
/// boundary — in-flight flits and running threads are deliberately *not*
/// part of the snapshot.
#[derive(Clone, Debug)]
pub struct FabricCheckpoint {
    tiles: Vec<TileCheckpoint>,
    w: usize,
    h: usize,
}

impl FabricCheckpoint {
    /// Snapshots the fabric. Call only at a quiescent boundary.
    ///
    /// The activity-driven stepper defers per-tile idle accounting, so the
    /// capture first settles that debt into the cores' counters
    /// ([`Fabric::settle_idle`]) — otherwise two captures of the same
    /// logical state could disagree on perf counters, and a restore would
    /// not be bit-identical under the optimized stepper.
    pub fn capture(fabric: &mut Fabric) -> FabricCheckpoint {
        fabric.settle_idle();
        let (w, h) = (fabric.width(), fabric.height());
        let tiles = (0..w * h).map(|i| {
            let t = fabric.tile(i % w, i / w);
            let words = (t.mem.used() as usize).div_ceil(2);
            let sram = t.mem.load_f16_slice(0, words);
            TileCheckpoint { sram, regs: t.core.regs, sched: t.core.sched_state() }
        });
        FabricCheckpoint { tiles: tiles.collect(), w, h }
    }

    /// Rolls the fabric back to this snapshot: clears all transient
    /// execution state, then restores SRAM, registers, and scheduler state.
    /// Perf counters, the cycle counter, and armed fault schedules are
    /// untouched (already-applied one-shot faults do not re-fire).
    pub fn restore(&self, fabric: &mut Fabric) {
        assert_eq!(
            (self.w, self.h),
            (fabric.width(), fabric.height()),
            "checkpoint/fabric shape mismatch"
        );
        fabric.reset_transient();
        for (i, c) in self.tiles.iter().enumerate() {
            let t = fabric.tile_mut(i % self.w, i / self.w);
            t.mem.store_f16_slice(0, &c.sram);
            t.core.regs = c.regs;
            t.core.restore_sched_state(&c.sched);
        }
    }

    /// Total snapshot payload in bytes (cost-model observability).
    pub fn bytes(&self) -> usize {
        self.tiles.iter().map(|t| 2 * t.sram.len() + 4 * NUM_REGS).sum()
    }
}

/// Coordinated snapshot of a whole `k`-wafer ensemble: one
/// [`FabricCheckpoint`] per wafer, captured together at an ensemble
/// quiescent point. The host-combine state of the hierarchical AllReduce
/// needs no separate capture — it lives in the root tiles' registers,
/// which the per-wafer snapshots already hold; nothing may be in flight
/// on the seams at capture time (asserted).
#[derive(Clone, Debug)]
pub struct EnsembleCheckpoint {
    shards: Vec<FabricCheckpoint>,
}

impl EnsembleCheckpoint {
    /// Snapshots every wafer. Call only at an ensemble quiescent boundary
    /// (nothing queued on or in flight across any seam).
    ///
    /// # Panics
    /// Panics if the ensemble is not quiescent.
    pub fn capture(multi: &mut MultiFabric) -> EnsembleCheckpoint {
        assert!(
            multi.is_quiescent(),
            "ensemble checkpoint requires quiescence (seam traffic in flight)"
        );
        let shards =
            (0..multi.k()).map(|m| FabricCheckpoint::capture(multi.shard_mut(m))).collect();
        EnsembleCheckpoint { shards }
    }

    /// Rolls the whole ensemble back: clears seam and reliable-transport
    /// transients ([`MultiFabric::reset_transient`] — both ends of every
    /// link restart their sequence space, down flags clear), then restores
    /// every wafer.
    pub fn restore(&self, multi: &mut MultiFabric) {
        assert_eq!(self.shards.len(), multi.k(), "checkpoint/ensemble shape mismatch");
        multi.reset_transient();
        for (m, ckpt) in self.shards.iter().enumerate() {
            ckpt.restore(multi.shard_mut(m));
        }
    }

    /// Total snapshot payload in bytes across all wafers.
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(FabricCheckpoint::bytes).sum()
    }
}

/// The f64 reference residual ‖b − A x‖₂ / ‖b‖₂ (or the absolute norm when
/// `b = 0`). This is the ground truth the recovery engine verifies
/// `Converged` verdicts against — it reads the iterate itself, so it catches
/// corruption the recursive residual is blind to.
pub fn true_rel_residual(a: &DiaMatrix<F16>, x: &[F16], b: &[F16]) -> f64 {
    let xf: Vec<f64> = x.iter().map(|v| v.to_f64()).collect();
    let mut ax = vec![0.0f64; xf.len()];
    a.matvec_f64(&xf, &mut ax);
    let num: f64 = b.iter().zip(&ax).map(|(b, ax)| (b.to_f64() - ax) * (b.to_f64() - ax)).sum();
    let den: f64 = b.iter().map(|b| b.to_f64() * b.to_f64()).sum();
    (if den == 0.0 { num } else { num / den }).sqrt()
}

/// Runs a solver iteration loop under checkpoint/rollback recovery.
///
/// Generic over [`WaferExec`], so the same engine recovers a single-wafer
/// solve (checkpointing one [`Fabric`]) or a multi-wafer ensemble solve
/// (checkpointing all `k` wafers together via [`EnsembleCheckpoint`]).
///
/// * `init` loads the problem onto a (possibly faulty) machine; a stall
///   here is retried from a [`WaferExec::reset_transient`] machine.
/// * `step(exec, i)` runs committed iteration `i` and returns the
///   relative (recursive) residual. After a rollback it is re-invoked with
///   the rolled-back index — implementations owning per-iteration records
///   must truncate them to `i` on entry.
/// * `verify` computes the f64 true relative residual; it gates every
///   `Converged` verdict (see the module docs on false convergence).
///
/// Rollbacks across the whole solve (including `init` retries) are capped
/// at `policy.max_retries`, so the engine always terminates: worst case is
/// `max_iters` committed steps plus `max_retries` replayed segments.
pub fn run_with_recovery<E: WaferExec>(
    exec: &mut E,
    max_iters: usize,
    policy: &RecoveryPolicy,
    mut init: impl FnMut(&mut E) -> Result<(), Box<StallReport>>,
    mut step: impl FnMut(&mut E, usize) -> Result<f64, Box<StallReport>>,
    mut verify: impl FnMut(&E) -> f64,
) -> RecoveryLog {
    let fabric = exec;
    let mut log = RecoveryLog { label: policy.label.clone(), ..RecoveryLog::default() };
    let tag = if policy.label.is_empty() { String::new() } else { format!("[{}] ", policy.label) };
    loop {
        match init(fabric) {
            Ok(()) => break,
            Err(r) => {
                log.stalls += 1;
                log.events.push(format!("{tag}load: {r}"));
                if log.rollbacks >= policy.max_retries {
                    log.outcome = RecoveryOutcome::RetriesExhausted;
                    return log;
                }
                log.rollbacks += 1;
                fabric.reset_transient();
            }
        }
    }

    let mut ckpt = fabric.checkpoint();
    let mut ckpt_iter = 0usize;
    log.checkpoints_taken = 1;
    fabric.phase_marker("checkpoint");

    // Committed-iteration cursor; rolled back on every recovery action.
    let mut it = 0usize;
    while it < max_iters {
        // What happened this iteration, and does it commit or roll back?
        enum Next {
            Advance(f64),
            Rollback(String),
        }
        let next = match step(fabric, it) {
            Err(r) => {
                log.stalls += 1;
                Next::Rollback(format!("{tag}iter {it}: {r}"))
            }
            Ok(rel) => match policy.tripwire.check(rel) {
                TripwireVerdict::Continue => Next::Advance(rel),
                TripwireVerdict::Converged => {
                    let true_rel = verify(fabric);
                    if true_rel <= policy.verify_rel {
                        log.outcome = RecoveryOutcome::Converged;
                        log.final_rel_residual = rel;
                        log.iterations = it + 1;
                        return log;
                    }
                    log.false_convergences += 1;
                    Next::Rollback(format!(
                        "{tag}iter {it}: false convergence (recursive rel {rel:.3e}, true rel {true_rel:.3e})"
                    ))
                }
                v @ (TripwireVerdict::Diverged | TripwireVerdict::NonFinite) => {
                    log.tripwire_trips += 1;
                    Next::Rollback(format!("{tag}iter {it}: tripwire {v:?} (rel {rel:.3e})"))
                }
            },
        };
        match next {
            Next::Advance(rel) => {
                it += 1;
                log.final_rel_residual = rel;
                if policy.checkpoint_every > 0
                    && it.is_multiple_of(policy.checkpoint_every)
                    && it < max_iters
                {
                    ckpt = fabric.checkpoint();
                    ckpt_iter = it;
                    log.checkpoints_taken += 1;
                    fabric.phase_marker("checkpoint");
                }
            }
            Next::Rollback(why) => {
                log.events.push(why);
                if log.rollbacks >= policy.max_retries {
                    log.outcome = RecoveryOutcome::RetriesExhausted;
                    log.iterations = it;
                    return log;
                }
                log.rollbacks += 1;
                log.iterations_lost += it - ckpt_iter;
                it = ckpt_iter;
                fabric.restore_checkpoint(&ckpt);
                fabric.phase_marker("rollback");
            }
        }
    }
    log.outcome = RecoveryOutcome::MaxIterations;
    log.iterations = it;
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tripwire_matches_the_historical_guard() {
        let t = ResidualTripwire::default();
        for rel in [1e-3, 1.0, 999_999.0, 1e-7] {
            let old = rel < 1e-7 || !f64::is_finite(rel) || rel > 1e6;
            assert_eq!(t.check(rel).stops(), old, "rel {rel}");
        }
        assert_eq!(t.check(5e-8), TripwireVerdict::Converged);
        assert_eq!(t.check(2e6), TripwireVerdict::Diverged);
        assert_eq!(t.check(f64::NAN), TripwireVerdict::NonFinite);
        assert_eq!(t.check(f64::INFINITY), TripwireVerdict::NonFinite);
        assert_eq!(t.check(-1.0), TripwireVerdict::Converged); // negative ⇒ below floor
    }

    #[test]
    fn engine_verifies_convergence_and_rolls_back_lies() {
        // A fake solver whose recursive residual claims convergence at
        // iteration 2, but whose true residual is bad until after one
        // rollback (modeling a corrupted iterate that a replay repairs).
        let mut fabric = Fabric::new(1, 1);
        let mut lied = false;
        let truth = std::cell::Cell::new(f64::INFINITY);
        let log = run_with_recovery(
            &mut fabric,
            10,
            &RecoveryPolicy { checkpoint_every: 1, ..Default::default() },
            |_| Ok(()),
            |_, i| {
                if i == 2 && !lied {
                    lied = true;
                    truth.set(1.0); // corrupted iterate: recursive lies, truth is bad
                    Ok(1e-9)
                } else if i == 2 {
                    truth.set(1e-4); // replay is clean
                    Ok(1e-9)
                } else {
                    Ok(1e-2)
                }
            },
            |_| truth.get(),
        );
        assert_eq!(log.outcome, RecoveryOutcome::Converged);
        assert_eq!(log.false_convergences, 1);
        assert_eq!(log.rollbacks, 1);
        assert_eq!(log.iterations, 3);
        assert_eq!(log.iterations_lost, 0); // checkpointed at iter 2 boundary
    }

    #[test]
    fn engine_retry_budget_is_a_hard_bound() {
        let mut fabric = Fabric::new(1, 1);
        let policy = RecoveryPolicy { max_retries: 3, ..Default::default() };
        let mut steps = 0usize;
        let log = run_with_recovery(
            &mut fabric,
            100,
            &policy,
            |_| Ok(()),
            |_, _| {
                steps += 1;
                Ok(f64::NAN) // every iteration trips NonFinite
            },
            |_| f64::INFINITY,
        );
        assert_eq!(log.outcome, RecoveryOutcome::RetriesExhausted);
        assert_eq!(log.rollbacks, 3);
        assert_eq!(log.tripwire_trips, 4); // initial attempt + 3 retries
        assert_eq!(steps, 4);
        assert_eq!(log.iterations, 0);
    }

    #[test]
    fn checkpoint_roundtrips_sram_and_regs() {
        let mut fabric = Fabric::new(2, 2);
        let addr = fabric.tile_mut(1, 1).mem.alloc_vec(4, wse_arch::Dtype::F16).unwrap();
        let vals: Vec<F16> = (0..4).map(|i| F16::from_f64(i as f64 + 0.5)).collect();
        fabric.tile_mut(1, 1).mem.store_f16_slice(addr, &vals);
        fabric.tile_mut(0, 1).core.regs[7] = 42.0;
        let ckpt = FabricCheckpoint::capture(&mut fabric);
        assert!(ckpt.bytes() > 0);
        // Corrupt both, then restore.
        fabric.tile_mut(1, 1).mem.flip_bit(addr, 14);
        fabric.tile_mut(0, 1).core.regs[7] = -1.0;
        ckpt.restore(&mut fabric);
        assert_eq!(fabric.tile(1, 1).mem.load_f16_slice(addr, 4), vals);
        assert_eq!(fabric.tile(0, 1).core.regs[7], 42.0);
    }
}
