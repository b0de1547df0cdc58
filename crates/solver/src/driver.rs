//! The one host solve loop: a `wse_core::krylov` recurrence — the step
//! tables the wafer runs — executed over host vectors by [`HostExec`],
//! with the host's bookkeeping around it: ‖b‖, the residual history,
//! stopping, and Table I's operation ledger, counted from the kernels the
//! step table runs.
//!
//! Nothing is computed that the wafer does not compute. A vanishing
//! denominator is regularized by the tables' `x / (y + ε)` guard exactly as
//! on the fabric, so there is no breakdown verdict: a stalled method runs
//! out its budget, and an overflow surfaces as
//! [`BiCgStabOutcome::NonFinite`] after the iteration that produced it.

use crate::convergence::{true_relative_residual, History, IterationRecord};
use crate::policy::{OpCounts, Precision};
use stencil::{DiaMatrix, Scalar};
use wse_core::krylov::{HostExec, Recurrence};
use wse_float::reduce::norm2_f64;

/// Solver options.
#[derive(Copy, Clone, Debug)]
pub struct SolveOptions {
    /// Maximum iterations.
    pub max_iters: usize,
    /// Stop when the recursive relative residual falls below this.
    pub rtol: f64,
    /// Record the f64 true residual every iteration (costs an extra f64
    /// SpMV per iteration; disable for timing runs).
    pub record_true_residual: bool,
}

impl Default for SolveOptions {
    fn default() -> SolveOptions {
        SolveOptions { max_iters: 200, rtol: 1e-8, record_true_residual: true }
    }
}

/// Why the solve stopped.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BiCgStabOutcome {
    /// Recursive residual reached `rtol`.
    Converged,
    /// Iteration budget exhausted.
    MaxIterations,
    /// The residual or the iterate went non-finite (overflow/NaN — a real
    /// fp16 hazard).
    NonFinite,
}

/// Result of a solve.
#[derive(Clone, Debug)]
pub struct SolveResult<S> {
    /// The final iterate.
    pub x: Vec<S>,
    /// Why iteration stopped.
    pub outcome: BiCgStabOutcome,
    /// Number of completed iterations.
    pub iters: usize,
    /// Residual history (one record per iteration).
    pub history: History,
    /// Accumulated floating-point operation counts.
    pub ops: OpCounts,
}

fn norm<S: Scalar>(v: &[S]) -> f64 {
    norm2_f64(&v.iter().map(|v| v.to_f64()).collect::<Vec<_>>())
}

/// Solves `A x = b` from `x = 0` by running `recurrence` under precision
/// policy `P`, with `a`'s storage-precision matvec as its SpMV.
///
/// # Panics
/// Panics if `b.len() != a.nrows()`.
pub fn solve<P: Precision>(
    recurrence: &'static Recurrence,
    a: &DiaMatrix<P::Storage>,
    b: &[P::Storage],
    opts: &SolveOptions,
) -> SolveResult<P::Storage> {
    assert_eq!(b.len(), a.nrows(), "rhs length mismatch");
    let (mut ops, mut history) = (OpCounts::default(), History::default());
    let norm_b = norm(b);
    if norm_b == 0.0 {
        let x = vec![P::Storage::zero(); b.len()];
        return SolveResult { x, outcome: BiCgStabOutcome::Converged, iters: 0, history, ops };
    }
    // The paper's per-band SpMV cost: one multiply per band and element
    // except on a unit main diagonal, and `bands − 1` adds (the first
    // product initializes the output).
    let (n, bands) = (b.len() as u64, a.offsets().len() as u64);
    let muls = if stencil::precond::has_unit_diagonal(a) { bands - 1 } else { bands };

    let mut exec = HostExec::<P, _>::new(recurrence, |x: &[P::Storage], y: &mut [P::Storage]| {
        a.matvec(x, y);
    });
    exec.load_rhs(b);
    let (mut outcome, mut iters) = (BiCgStabOutcome::MaxIterations, 0);
    while iters < opts.max_iters {
        let ran = exec.iterate();
        iters += 1;
        ops.matvec_mul += ran.spmvs * muls * n;
        ops.matvec_add += ran.spmvs * (bands - 1) * n;
        ops.dot_mul += ran.dots * n;
        ops.dot_add += ran.dots * n;
        ops.axpy_mul += ran.axpys * n;
        ops.axpy_add += ran.axpys * n;

        // Observability, outside the ledger: the paper likewise excludes
        // residual calculations, noting "they could be overlapped with
        // other computations".
        let recursive_rel = norm(exec.r()) / norm_b;
        let true_rel = if opts.record_true_residual {
            true_relative_residual(a, exec.x(), b)
        } else {
            f64::NAN
        };
        history.push(IterationRecord { iter: iters, recursive_rel, true_rel });
        if !recursive_rel.is_finite() || exec.x().iter().any(|v| v.is_non_finite()) {
            outcome = BiCgStabOutcome::NonFinite;
            break;
        }
        if recursive_rel < opts.rtol {
            outcome = BiCgStabOutcome::Converged;
            break;
        }
    }
    SolveResult { x: exec.x().to_vec(), outcome, iters, history, ops }
}
