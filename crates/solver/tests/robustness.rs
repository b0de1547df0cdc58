//! Solver robustness: breakdown-prone, singular, and extreme systems must
//! produce *reported outcomes*, never panics or silent garbage.

use solver::policy::{Fp64, MixedF16};
use solver::refinement::{iterative_refinement, RefinementOptions};
use solver::{bicgstab, BiCgStabOutcome, SolveOptions};
use stencil::dia::{DiaMatrix, Offset3};
use stencil::mesh::Mesh3D;
use stencil::problem::manufactured;
use stencil::Scalar;
use wse_float::F16;

/// The identity: converges in one iteration.
#[test]
fn identity_converges_immediately() {
    let mesh = Mesh3D::new(3, 3, 3);
    let mut a = DiaMatrix::<f64>::new(mesh, &Offset3::seven_point());
    for (x, y, z) in mesh.iter() {
        a.set(x, y, z, Offset3::CENTER, 1.0);
    }
    let b: Vec<f64> = (0..27).map(|i| i as f64 * 0.1).collect();
    let res = bicgstab::<Fp64>(&a, &b, &SolveOptions::default());
    assert_eq!(res.outcome, BiCgStabOutcome::Converged);
    assert_eq!(res.iters, 1);
    for (xi, bi) in res.x.iter().zip(&b) {
        assert!((xi - bi).abs() < 1e-12);
    }
}

/// A singular (all-zero-row-sums, pure Neumann) operator: BiCGStab must
/// terminate with a reported outcome rather than looping or panicking.
#[test]
fn singular_system_reports_an_outcome() {
    let mesh = Mesh3D::new(3, 3, 3);
    let mut a = DiaMatrix::<f64>::new(mesh, &Offset3::seven_point());
    for (x, y, z) in mesh.iter() {
        let mut nb = 0.0;
        for off in &Offset3::seven_point()[1..] {
            if mesh.neighbor(x, y, z, off.dx, off.dy, off.dz).is_some() {
                a.set(x, y, z, *off, -1.0);
                nb += 1.0;
            }
        }
        a.set(x, y, z, Offset3::CENTER, nb); // zero row sums: singular
    }
    // b with a component in the null space (constants).
    let b = vec![1.0; 27];
    let opts = SolveOptions { max_iters: 50, rtol: 1e-12, record_true_residual: false };
    let res = bicgstab::<Fp64>(&a, &b, &opts);
    // Must finish, whatever the outcome.
    assert!(matches!(
        res.outcome,
        BiCgStabOutcome::MaxIterations | BiCgStabOutcome::NonFinite | BiCgStabOutcome::Converged
    ));
    assert!(res.iters <= 50);
}

/// fp16 overflow (coefficients near 65504) is detected as NonFinite or
/// survives with finite output — never silent NaN in a "Converged" result.
#[test]
fn fp16_overflow_is_detected() {
    let mesh = Mesh3D::new(3, 3, 3);
    let mut a = DiaMatrix::<F16>::new(mesh, &Offset3::seven_point());
    for (x, y, z) in mesh.iter() {
        a.set(x, y, z, Offset3::CENTER, F16::from_f64(1.0));
        for off in &Offset3::seven_point()[1..] {
            if mesh.neighbor(x, y, z, off.dx, off.dy, off.dz).is_some() {
                a.set(x, y, z, *off, F16::from_f64(-30000.0));
            }
        }
    }
    let b: Vec<F16> = (0..27).map(|i| F16::from_f64(1000.0 + i as f64)).collect();
    let opts = SolveOptions { max_iters: 30, rtol: 1e-10, record_true_residual: false };
    let res = bicgstab::<MixedF16>(&a, &b, &opts);
    if res.outcome == BiCgStabOutcome::Converged {
        assert!(res.x.iter().all(|v| !v.is_non_finite()), "converged must mean finite");
    }
}

/// Refinement with an inner solver that cannot converge (1 iteration on a
/// hard problem) still respects its outer budget and reports non-convergence.
#[test]
fn refinement_never_spins() {
    let p = manufactured(Mesh3D::new(6, 6, 6), (8.0, -8.0, 8.0), 3).preconditioned();
    let opts = RefinementOptions { max_outer: 5, inner_iters: 1, rtol: 1e-14 };
    let res = iterative_refinement::<MixedF16>(&p.matrix, &p.rhs, &opts);
    assert!(res.outer_iters <= 5);
    assert_eq!(res.inner_total, 5);
    assert!(res.history.records.len() <= 7);
}

/// Tiny 2-cell problem (minimum mesh) solves correctly end to end.
#[test]
fn minimum_mesh_works() {
    let p = manufactured(Mesh3D::new(2, 2, 2), (0.5, 0.5, 0.5), 1).preconditioned();
    let res = bicgstab::<Fp64>(&p.matrix, &p.rhs, &SolveOptions::default());
    assert_eq!(res.outcome, BiCgStabOutcome::Converged);
    let exact = p.exact.unwrap();
    for (xi, e) in res.x.iter().zip(&exact) {
        assert!((xi - e).abs() < 1e-8);
    }
}

/// Huge right-hand sides that overflow fp16 storage are caught by the
/// non-finite check instead of propagating junk.
#[test]
fn oversized_rhs_in_fp16() {
    let p = manufactured(Mesh3D::new(3, 3, 3), (0.0, 0.0, 0.0), 2).preconditioned();
    let a16: DiaMatrix<F16> = p.matrix.convert();
    let b16: Vec<F16> = p.rhs.iter().map(|&v| F16::from_f64(v * 1e9)).collect();
    // The rhs itself saturates to ±inf in fp16; the solver must not panic.
    let opts = SolveOptions { max_iters: 10, rtol: 1e-8, record_true_residual: false };
    let res = bicgstab::<MixedF16>(&a16, &b16, &opts);
    assert!(matches!(
        res.outcome,
        BiCgStabOutcome::NonFinite | BiCgStabOutcome::MaxIterations | BiCgStabOutcome::Converged
    ));
}
