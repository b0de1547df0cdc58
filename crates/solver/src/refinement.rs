//! Mixed-precision iterative refinement — the correction scheme the paper
//! points to for recovering accuracy beyond the fp16 plateau.
//!
//! §VI.B: "We expect that for some realistic situations, mixed precision
//! solvers are usable as is; in others they may need to be coupled with a
//! correction scheme such as an iterative refinement", citing Carson &
//! Higham's three-precision refinement.
//!
//! The scheme: keep the *system* and the *iterate* in high precision; solve
//! only the **correction equation** `A d = r` in low precision:
//!
//! ```text
//! x = 0
//! repeat:
//!   r = b − A x          (high precision)
//!   d ≈ solve(A, r)      (low-precision BiCGStab, a few iterations)
//!   x = x + d            (high precision)
//! ```
//!
//! Because each inner solve only needs to reduce *its own* residual by a
//! constant factor, the fp16 accuracy floor no longer limits the final
//! answer — each outer pass re-scales the problem so the floor applies to
//! an ever smaller correction. The Fig. 9 extension experiment shows the
//! mixed-precision plateau at ~1e-2 broken down to fp64-level residuals.

use crate::convergence::{History, IterationRecord};
use crate::policy::Precision;
use crate::{bicgstab, SolveOptions};
use stencil::scalar::convert_slice;
use stencil::{DiaMatrix, Scalar};
use wse_float::reduce::norm2_f64;

/// Options for the outer refinement loop.
#[derive(Copy, Clone, Debug)]
pub struct RefinementOptions {
    /// Maximum outer corrections.
    pub max_outer: usize,
    /// Inner (low-precision) BiCGStab iterations per correction.
    pub inner_iters: usize,
    /// Stop when the high-precision relative residual falls below this.
    pub rtol: f64,
}

impl Default for RefinementOptions {
    fn default() -> RefinementOptions {
        RefinementOptions { max_outer: 20, inner_iters: 8, rtol: 1e-10 }
    }
}

/// Result of a refined solve.
#[derive(Clone, Debug)]
pub struct RefinementResult {
    /// The high-precision iterate.
    pub x: Vec<f64>,
    /// Outer iterations performed.
    pub outer_iters: usize,
    /// Relative residual after each outer correction (high precision).
    pub history: History,
    /// Total inner (low-precision) BiCGStab iterations.
    pub inner_total: usize,
    /// `true` if `rtol` was reached.
    pub converged: bool,
}

/// Solves `A x = b` (given in f64) by iterative refinement with the inner
/// correction solve running under precision policy `P`.
///
/// On the wafer this corresponds to keeping `x` and the residual refresh in
/// fp32 on-core while the heavy BiCGStab inner iterations run at the fp16
/// rates the paper measures — the refresh costs one extra SpMV per outer
/// pass.
///
/// # Panics
/// Panics if `b.len() != a.nrows()`.
pub fn iterative_refinement<P: Precision>(
    a: &DiaMatrix<f64>,
    b: &[f64],
    opts: &RefinementOptions,
) -> RefinementResult {
    assert_eq!(b.len(), a.nrows(), "rhs length mismatch");
    let n = b.len();
    let a_low: DiaMatrix<P::Storage> = a.convert();
    let norm_b = norm2_f64(b);
    let mut x = vec![0.0f64; n];
    let mut history = History::default();
    let mut inner_total = 0;
    let mut converged = false;
    let mut outer_iters = 0;

    if norm_b == 0.0 {
        return RefinementResult { x, outer_iters: 0, history, inner_total: 0, converged: true };
    }

    let inner_opts = SolveOptions {
        max_iters: opts.inner_iters,
        rtol: 1e-30, // the outer loop owns convergence
        record_true_residual: false,
    };

    for outer in 0..opts.max_outer {
        // High-precision residual.
        let mut ax = vec![0.0f64; n];
        a.matvec_f64(&x, &mut ax);
        let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect();
        let rel = norm2_f64(&r) / norm_b;
        history.push(IterationRecord { iter: outer, recursive_rel: rel, true_rel: rel });
        if rel < opts.rtol {
            converged = true;
            break;
        }
        outer_iters = outer + 1;

        // Scale the correction problem to O(1) so fp16's limited *range*
        // (max 65504, min normal 6e-5) never truncates a shrinking
        // residual — this scaling is what makes fp16 refinement work.
        let scale = r.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        if scale == 0.0 {
            converged = true;
            break;
        }
        let r_scaled: Vec<f64> = r.iter().map(|&v| v / scale).collect();
        let r_low: Vec<P::Storage> = convert_slice(&r_scaled);
        let inner = bicgstab::<P>(&a_low, &r_low, &inner_opts);
        inner_total += inner.iters;

        // x += scale · d  (high precision).
        for (xi, di) in x.iter_mut().zip(&inner.x) {
            *xi += scale * di.to_f64();
        }
    }

    // Record the final residual if the loop ended without the early check.
    if !converged {
        let mut ax = vec![0.0f64; n];
        a.matvec_f64(&x, &mut ax);
        let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect();
        let rel = norm2_f64(&r) / norm_b;
        history.push(IterationRecord { iter: opts.max_outer, recursive_rel: rel, true_rel: rel });
        converged = rel < opts.rtol;
    }

    RefinementResult { x, outer_iters, history, inner_total, converged }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{MixedF16, PureF16};
    use crate::study::run_policy;
    use stencil::mesh::Mesh3D;
    use stencil::problem::manufactured;

    fn system() -> (DiaMatrix<f64>, Vec<f64>, Vec<f64>) {
        let p = manufactured(Mesh3D::new(6, 6, 8), (1.5, -0.5, 0.5), 13).preconditioned();
        (p.matrix.clone(), p.rhs.clone(), p.exact.unwrap())
    }

    #[test]
    fn refinement_breaks_the_fp16_plateau() {
        let (a, b, exact) = system();
        // Plain mixed-precision BiCGStab stalls around 1e-3..1e-2.
        let plain = run_policy::<MixedF16>(
            &a,
            &b,
            &SolveOptions { max_iters: 30, rtol: 1e-14, record_true_residual: true },
        );
        // Refinement with the same inner arithmetic reaches fp64 levels.
        let refined = iterative_refinement::<MixedF16>(&a, &b, &RefinementOptions::default());
        assert!(refined.converged, "refinement must converge");
        let final_rel = refined.history.final_recursive();
        assert!(final_rel < 1e-10, "refined residual {final_rel}");
        assert!(
            final_rel < plain.best() * 1e-4,
            "refinement must beat the plateau: {final_rel} vs {}",
            plain.best()
        );
        let err = refined.x.iter().zip(&exact).map(|(x, e)| (x - e).abs()).fold(0.0f64, f64::max);
        assert!(err < 1e-8, "solution error {err}");
    }

    #[test]
    fn residuals_decrease_monotonically_per_outer_pass() {
        let (a, b, _) = system();
        let r = iterative_refinement::<MixedF16>(&a, &b, &RefinementOptions::default());
        let resids: Vec<f64> = r.history.records.iter().map(|rec| rec.true_rel).collect();
        for w in resids.windows(2) {
            assert!(w[1] < w[0] * 0.9, "each outer pass must make progress: {resids:?}");
        }
    }

    #[test]
    fn works_even_with_pure_fp16_inner_solver() {
        // Even the ablation policy (fp16 dot accumulation) refines to high
        // accuracy — the outer loop forgives the inner solver a lot.
        let (a, b, _) = system();
        let opts = RefinementOptions { max_outer: 40, inner_iters: 10, rtol: 1e-9 };
        let r = iterative_refinement::<PureF16>(&a, &b, &opts);
        assert!(r.converged, "final rel {}", r.history.final_recursive());
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let (a, _, _) = system();
        let b = vec![0.0; a.nrows()];
        let r = iterative_refinement::<MixedF16>(&a, &b, &RefinementOptions::default());
        assert!(r.converged);
        assert_eq!(r.inner_total, 0);
        assert!(r.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn respects_outer_budget() {
        let (a, b, _) = system();
        let opts = RefinementOptions { max_outer: 2, inner_iters: 1, rtol: 1e-14 };
        let r = iterative_refinement::<MixedF16>(&a, &b, &opts);
        assert!(!r.converged);
        assert_eq!(r.outer_iters, 2);
        assert_eq!(r.inner_total, 2);
    }
}
