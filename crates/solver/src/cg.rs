//! Conjugate gradients — the symmetric Krylov baseline.
//!
//! "Discretized partial differential equations lead to systems of linear
//! equations that are commonly solved using Krylov subspace iterative
//! methods such as the conjugate gradient (CG) method. The Biconjugate
//! Gradient Method extends CG to nonsymmetric systems." CG is implemented as
//! the baseline the paper's algorithm generalizes; it also provides the
//! HPCG-style reference workload for the machine-balance discussion (Fig 1).
//!
//! Both of the wafer's CG tables run on the host through [`crate::solve`]:
//! [`krylov::CG`] (two blocking reductions per iteration) is [`cg`], and
//! Chronopoulos–Gear CG, [`krylov::CG_SINGLE`] (`γ = (r, r)` and
//! `δ = (r, A r)` reduced in one round, `A p` kept by recurrence), is
//! `solve` over that table.

use crate::driver::{solve, SolveOptions, SolveResult};
use crate::policy::Precision;
use stencil::DiaMatrix;
use wse_core::krylov;

/// Solves SPD `A x = b` by conjugate gradients under precision policy `P`,
/// starting from `x = 0`: [`solve`] over [`krylov::CG`].
///
/// # Panics
/// Panics if `b.len() != a.nrows()`.
pub fn cg<P: Precision>(
    a: &DiaMatrix<P::Storage>,
    b: &[P::Storage],
    opts: &SolveOptions,
) -> SolveResult<P::Storage> {
    solve::<P>(&krylov::CG, a, b, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::BiCgStabOutcome;
    use crate::policy::{Fp64, MixedF16};
    use stencil::dia::Offset3;
    use stencil::mesh::Mesh3D;
    use stencil::precond::jacobi_scale;
    use stencil::stencil7::poisson;
    use wse_float::F16;

    fn spd_problem() -> (DiaMatrix<f64>, Vec<f64>, Vec<f64>) {
        let mesh = Mesh3D::new(6, 6, 6);
        let a = poisson(mesh);
        let exact: Vec<f64> = (0..mesh.len()).map(|i| ((i * 13) % 17) as f64 * 0.1 - 0.5).collect();
        let mut b = vec![0.0; mesh.len()];
        a.matvec_f64(&exact, &mut b);
        (a, b, exact)
    }

    #[test]
    fn cg_solves_poisson() {
        let (a, b, exact) = spd_problem();
        let res = cg::<Fp64>(&a, &b, &SolveOptions::default());
        assert_eq!(res.outcome, BiCgStabOutcome::Converged);
        let err = res.x.iter().zip(&exact).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        assert!(err < 1e-6, "max err {err}");
    }

    #[test]
    fn cg_per_iteration_cost_is_half_bicgstab() {
        // CG: 1 SpMV + 2 dots + 3 AXPYs per iteration. On the unit-diagonal
        // 7-point operator: 6+6 matvec + 2+2 dot + 3+3 axpy = 22 ops/point,
        // exactly half of BiCGStab's 44 — the paper's "uses four dot
        // products per iteration instead of two" heritage.
        let mesh = Mesh3D::new(5, 5, 5);
        let a = poisson(mesh);
        let sys = jacobi_scale(&a, &vec![1.0; mesh.len()]);
        let opts = SolveOptions { max_iters: 4, rtol: 0.0, record_true_residual: false };
        let res = cg::<Fp64>(&sys.matrix, &sys.rhs, &opts);
        assert_eq!(res.iters, 4);
        let pp = res.ops.per_point_per_iter(mesh.len(), res.iters);
        assert_eq!(pp.total(), 22.0);
    }

    #[test]
    fn single_reduction_tracks_standard_cg() {
        let (a, b, exact) = spd_problem();
        let opts = SolveOptions { max_iters: 200, rtol: 1e-9, record_true_residual: true };
        let single = solve::<Fp64>(&krylov::CG_SINGLE, &a, &b, &opts);
        let standard = cg::<Fp64>(&a, &b, &opts);
        assert_eq!(single.outcome, BiCgStabOutcome::Converged);
        let err = single.x.iter().zip(&exact).map(|(x, e)| (x - e).abs()).fold(0.0, f64::max);
        assert!(err < 1e-6, "err {err}");
        // The same recurrence up to rounding: iteration counts within a
        // couple, and the early trajectories within a percent.
        assert!(
            single.iters.abs_diff(standard.iters) <= 3,
            "{} vs {}",
            single.iters,
            standard.iters
        );
        let records = single.history.records.iter().zip(&standard.history.records);
        for (r1, r2) in records.take(8) {
            let ratio = (r1.true_rel / r2.true_rel).max(r2.true_rel / r1.true_rel);
            assert!(ratio < 1.01, "iter {}: {} vs {}", r1.iter, r1.true_rel, r2.true_rel);
        }
    }

    #[test]
    fn narrowing_overflow_surfaces_as_non_finite() {
        // A ≈ εI with ε at the fp16 subnormal floor. γ = (r, r) ≈ n while
        // δ = (r, A r) ≈ εn, so α = γ/δ ≈ 1/ε ≈ 1.7e5 — finite in the f32
        // global precision but past fp16's 65504 max: narrowed to storage it
        // rounds to +∞, and the iteration that used it ends the solve.
        let mesh = Mesh3D::new(2, 2, 2);
        let mut a: DiaMatrix<F16> = DiaMatrix::new(mesh, &[Offset3::CENTER]);
        let eps = F16::from_f64(6e-6);
        assert!(eps.to_f64() > 0.0, "ε must stay representable");
        a.band_mut(0).fill(eps);
        let b = vec![F16::from_f64(1.0); mesh.len()];
        let opts = SolveOptions { max_iters: 10, rtol: 1e-12, record_true_residual: false };
        let res = solve::<MixedF16>(&krylov::CG_SINGLE, &a, &b, &opts);
        assert_eq!(res.outcome, BiCgStabOutcome::NonFinite);
        assert_eq!(res.iters, 1);
    }

    #[test]
    fn cg_zero_rhs() {
        let a = poisson(Mesh3D::new(3, 3, 3));
        for rec in [&krylov::CG, &krylov::CG_SINGLE] {
            let res = solve::<Fp64>(rec, &a, &[0.0; 27], &SolveOptions::default());
            assert_eq!(res.iters, 0);
            assert_eq!(res.outcome, BiCgStabOutcome::Converged);
        }
    }
}
