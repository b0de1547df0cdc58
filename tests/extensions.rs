//! Integration tests for the post-reproduction extensions: hard matrix
//! classes on the wafer, refinement to fp64 accuracy, and the
//! communication-reduced solvers.

use wafer_stencil::kernels::cg::{CgVariant, WaferCg};
use wafer_stencil::prelude::*;
use wafer_stencil::solver_::refinement::{iterative_refinement, RefinementOptions};
use wafer_stencil::stencil_::precond::jacobi_scale;
use wafer_stencil::stencil_::variable::{
    anisotropic_diffusion, variable_diffusion, DiffusivityField,
};

/// Heterogeneous-media system (1000:1 contrast) solved on the wafer.
#[test]
fn wafer_solves_heterogeneous_diffusion() {
    let mesh = Mesh3D::new(4, 4, 10);
    let field = DiffusivityField::random(mesh, 1e-2, 10.0, 99);
    let a = variable_diffusion(&field);
    let exact: Vec<f64> = (0..mesh.len()).map(|i| ((i % 9) as f64) * 0.1 - 0.4).collect();
    let mut b = vec![0.0; mesh.len()];
    a.matvec_f64(&exact, &mut b);
    let sys = jacobi_scale(&a, &b);
    let a16: DiaMatrix<F16> = sys.matrix.convert();
    let b16: Vec<F16> = sys.rhs.iter().map(|&v| F16::from_f64(v)).collect();
    let mut fabric = Fabric::new(4, 4);
    let wafer = WaferBicgstab::build(&mut fabric, &a16);
    let (_, stats) = wafer.solve(&mut fabric, &b16, 25);
    let best = stats.residuals.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(best < 0.05, "heterogeneous system on wafer: best residual {best}");
}

/// The SPD anisotropic operator solved by wafer CG in both variants.
#[test]
fn wafer_cg_handles_anisotropy() {
    let mesh = Mesh3D::new(4, 4, 8);
    let a = anisotropic_diffusion(mesh, 1.0, 1.0, 8.0);
    let exact: Vec<f64> = (0..mesh.len()).map(|i| ((i % 5) as f64) * 0.125).collect();
    let mut b = vec![0.0; mesh.len()];
    a.matvec_f64(&exact, &mut b);
    let sys = jacobi_scale(&a, &b);
    let a16: DiaMatrix<F16> = sys.matrix.convert();
    let b16: Vec<F16> = sys.rhs.iter().map(|&v| F16::from_f64(v)).collect();
    for variant in [CgVariant::Standard, CgVariant::SingleReduction] {
        let mut fabric = Fabric::new(4, 4);
        let cg = WaferCg::build(&mut fabric, &a16, variant);
        let residuals = cg.solve(&mut fabric, &b16, 30).1.residuals;
        let best = residuals.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(best < 0.05, "{variant:?}: best residual {best}");
    }
}

/// Refinement recovers fp64 accuracy on a heterogeneous system whose fp16
/// plateau would otherwise be severe.
#[test]
fn refinement_handles_high_contrast_media() {
    let mesh = Mesh3D::new(5, 5, 6);
    let field = DiffusivityField::layered(mesh, 1e-2, 1.0);
    let a = variable_diffusion(&field);
    let exact: Vec<f64> = (0..mesh.len()).map(|i| ((i % 7) as f64) * 0.2 - 0.6).collect();
    let mut b = vec![0.0; mesh.len()];
    a.matvec_f64(&exact, &mut b);
    let sys = jacobi_scale(&a, &b);
    let opts = RefinementOptions { max_outer: 40, inner_iters: 10, rtol: 1e-9 };
    let res = iterative_refinement::<MixedF16>(&sys.matrix, &sys.rhs, &opts);
    assert!(res.converged, "final {:.2e}", res.history.final_recursive());
    let err = res.x.iter().zip(&exact).map(|(x, e)| (x - e).abs()).fold(0.0_f64, f64::max);
    assert!(err < 1e-7, "solution error {err}");
}

/// The fused BiCGStab matches the standard one on a CFD momentum system.
#[test]
fn fused_bicgstab_on_cfd_system() {
    use wafer_stencil::cfd_::grid::Component;
    let mut cavity = Cavity::new(4, 4, 4, 0.1);
    cavity.run(3);
    let sys = cavity.momentum_system(Component::U);
    let scaled = jacobi_scale(&sys.matrix, &sys.rhs);
    let a16: DiaMatrix<F16> = scaled.matrix.convert();
    let b16: Vec<F16> = scaled.rhs.iter().map(|&v| F16::from_f64(v)).collect();
    let mesh = a16.mesh();

    let mut f = Fabric::new(mesh.nx, mesh.ny);
    let solver = WaferBicgstab::build_fused(&mut f, &a16);
    let (_, stats) = solver.solve(&mut f, &b16, 8);
    assert!(stats.residuals.last().unwrap() < &0.02, "{:?}", stats.residuals);
}
