//! BiCGStab — Algorithm 1 of the paper, instrumented.
//!
//! ```text
//! 1: r0 := b, p0 := r0                     (x0 = 0)
//! 2: for i = 0,1,2,...
//! 3:   s := A p
//! 4:   α := (r0,r) / (r0,s)
//! 5:   q := r − α s
//! 6:   y := A q
//! 7:   ω := (q,y) / (y,y)
//! 8:   x := x + α p + ω q
//! 9:   r' := q − ω y
//! 10:  β := (α/ω) · (r0,r') / (r0,r)
//! 11:  p := r' + β (p − ω s)
//! ```
//!
//! Kernel inventory per iteration, reproducing Table I: **2 SpMVs** (six
//! multiplies and six adds per meshpoint each for the unit-diagonal 7-point
//! operator), **4 dot products** — `(r0,s)`, `(q,y)`, `(y,y)`, `(r0,r')`
//! (the `(r0,r)` value is carried over from the previous iteration) — and
//! **6 AXPYs** (lines 5 and 9 one each; lines 8 and 11 two each). Totals per
//! meshpoint: 22 multiplies + 22 adds = 44 ops, of which the 4 dot-adds run
//! at fp32 under the mixed policy and the other 40 at fp16.
//!
//! The iteration is [`krylov::BICGSTAB`] — the step table the wafer runs —
//! executed over host vectors by the one host driver, [`crate::solve`],
//! which counts the ledger from the kernels the table runs. The
//! residual-norm check used for stopping is *not* part of the ledger.

use crate::driver::{solve, SolveOptions, SolveResult};
use crate::policy::Precision;
use stencil::DiaMatrix;
use wse_core::krylov;

/// Solves `A x = b` by BiCGStab under precision policy `P`, starting from
/// `x = 0`: [`solve`] over [`krylov::BICGSTAB`], the table the wafer runs.
///
/// The matrix should be diagonally preconditioned (unit main diagonal) to
/// match the paper's operation counts, but any [`DiaMatrix`] works.
///
/// # Panics
/// Panics if `b.len() != a.nrows()`.
pub fn bicgstab<P: Precision>(
    a: &DiaMatrix<P::Storage>,
    b: &[P::Storage],
    opts: &SolveOptions,
) -> SolveResult<P::Storage> {
    solve::<P>(&krylov::BICGSTAB, a, b, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::BiCgStabOutcome;
    use crate::policy::{Fp32, Fp64, MixedF16};
    use stencil::mesh::Mesh3D;
    use stencil::problem::manufactured;
    use wse_float::F16;

    fn solve_f64(mesh: Mesh3D, vel: (f64, f64, f64)) -> (SolveResult<f64>, Vec<f64>) {
        let p = manufactured(mesh, vel, 42).preconditioned();
        let result = bicgstab::<Fp64>(&p.matrix, &p.rhs, &SolveOptions::default());
        (result, p.exact.unwrap())
    }

    #[test]
    fn converges_on_symmetric_problem() {
        let (res, exact) = solve_f64(Mesh3D::new(6, 6, 6), (0.0, 0.0, 0.0));
        assert_eq!(res.outcome, BiCgStabOutcome::Converged);
        let err: f64 = res.x.iter().zip(&exact).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        assert!(err < 1e-6, "max err {err}");
    }

    #[test]
    fn converges_on_nonsymmetric_problem() {
        let (res, exact) = solve_f64(Mesh3D::new(6, 5, 7), (2.0, -1.0, 0.5));
        assert_eq!(res.outcome, BiCgStabOutcome::Converged);
        let err: f64 = res.x.iter().zip(&exact).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        assert!(err < 1e-6, "max err {err}");
    }

    #[test]
    fn residual_history_is_monotone_enough() {
        let (res, _) = solve_f64(Mesh3D::new(6, 6, 6), (1.0, 0.0, 0.0));
        let first = res.history.records.first().unwrap().true_rel;
        let last = res.history.records.last().unwrap().true_rel;
        assert!(last < first * 1e-4, "first {first}, last {last}");
    }

    #[test]
    fn op_counts_match_table1() {
        // Unit-diagonal 7-point stencil: exactly 44 ops per meshpoint per
        // iteration — 12+12 matvec, 4+4 dot, 6+6 axpy.
        let p = manufactured(Mesh3D::new(5, 5, 5), (1.0, 0.5, -0.5), 1).preconditioned();
        let opts = SolveOptions { max_iters: 8, rtol: 0.0, record_true_residual: false };
        let res = bicgstab::<Fp64>(&p.matrix, &p.rhs, &opts);
        assert_eq!(res.iters, 8);
        let pp = res.ops.per_point_per_iter(p.matrix.nrows(), res.iters);
        assert_eq!(pp.matvec_mul, 12.0);
        assert_eq!(pp.matvec_add, 12.0);
        assert_eq!(pp.dot_mul, 4.0);
        assert_eq!(pp.dot_add, 4.0);
        assert_eq!(pp.axpy_mul, 6.0);
        assert_eq!(pp.axpy_add, 6.0);
        assert_eq!(pp.total(), 44.0);
        // Mixed-precision split: 4 fp32 ops (dot adds), 40 fp16.
        assert_eq!(res.ops.global_ops(), 4 * p.matrix.nrows() as u64 * 8);
        assert_eq!(res.ops.storage_ops(), 40 * p.matrix.nrows() as u64 * 8);
    }

    #[test]
    fn fp32_converges_to_fp32_level() {
        let p = manufactured(Mesh3D::new(6, 6, 6), (1.0, 0.0, 0.0), 9).preconditioned();
        let a32: stencil::DiaMatrix<f32> = p.matrix.convert();
        let b32: Vec<f32> = p.rhs.iter().map(|&v| v as f32).collect();
        let opts = SolveOptions { max_iters: 60, rtol: 1e-6, ..Default::default() };
        let res = bicgstab::<Fp32>(&a32, &b32, &opts);
        assert!(res.history.best_true() < 1e-5, "best {}", res.history.best_true());
    }

    #[test]
    fn mixed_f16_reaches_f16_plateau() {
        // Fig. 9's qualitative claim: mixed tracks at first, then plateaus
        // around 1e-2..1e-3 (fp16 machine precision ~1e-3 minus conditioning).
        let p = manufactured(Mesh3D::new(6, 6, 6), (1.0, 0.0, 0.0), 9).preconditioned();
        let a16: stencil::DiaMatrix<F16> = p.matrix.convert();
        let b16: Vec<F16> = p.rhs.iter().map(|&v| F16::from_f64(v)).collect();
        let opts = SolveOptions { max_iters: 40, rtol: 1e-10, ..Default::default() };
        let res = bicgstab::<MixedF16>(&a16, &b16, &opts);
        let best = res.history.best_true();
        assert!(best < 5e-2, "mixed should reach ~1e-2, got {best}");
        assert!(best > 1e-6, "mixed cannot reach fp64 accuracy, got {best}");
    }

    #[test]
    fn zero_rhs_returns_zero_solution() {
        let p = manufactured(Mesh3D::new(4, 4, 4), (0.0, 0.0, 0.0), 5).preconditioned();
        let b = vec![0.0f64; p.matrix.nrows()];
        let res = bicgstab::<Fp64>(&p.matrix, &b, &SolveOptions::default());
        assert_eq!(res.outcome, BiCgStabOutcome::Converged);
        assert_eq!(res.iters, 0);
        assert!(res.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "rhs length mismatch")]
    fn mismatched_rhs_panics() {
        let p = manufactured(Mesh3D::new(3, 3, 3), (0.0, 0.0, 0.0), 5).preconditioned();
        let b = vec![0.0f64; 5];
        bicgstab::<Fp64>(&p.matrix, &b, &SolveOptions::default());
    }

    #[test]
    fn respects_max_iters() {
        let p = manufactured(Mesh3D::new(8, 8, 8), (3.0, -2.0, 1.0), 2).preconditioned();
        let opts = SolveOptions { max_iters: 3, rtol: 1e-30, record_true_residual: false };
        let res = bicgstab::<Fp64>(&p.matrix, &p.rhs, &opts);
        assert_eq!(res.outcome, BiCgStabOutcome::MaxIterations);
        assert_eq!(res.iters, 3);
        assert_eq!(res.history.records.len(), 3);
    }
}
