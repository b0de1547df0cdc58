//! Wafer against host: every single-wafer table, built by its builder at
//! its `tests/krylov_pins.rs` shapes and solved on the fabric, against
//! [`HostExec`] over the same table (mixed fp16/fp32, host matvec).
//!
//! The two agree to a bound, not bit for bit: the wafer's fp32 AllReduce
//! associates in an order that depends on the fabric's history, which no
//! host executor can reproduce. Once either trajectory reaches the fp16
//! storage noise floor (2^-11 ≈ 4.9e-4 relative), recursive residuals are
//! rounding noise and their ratio is instance-dependent, so the comparison
//! is clamped there.

use stencil::decomp::Block2D;
use stencil::mesh::Mesh3D;
use stencil::precond::jacobi_scale;
use stencil::problem::manufactured;
use stencil::stencil7::poisson;
use stencil::stencil9::convection_diffusion9;
use stencil::{DiaMatrix, MixedF16};
use wse_arch::Fabric;
use wse_core::bicgstab2d::WaferBicgstab2d;
use wse_core::cg::{CgVariant, WaferCg};
use wse_core::krylov::{self, HostExec, Program, Recurrence};
use wse_core::{Krylov, WaferBicgstab};
use wse_float::F16;

const ITERS: usize = 6;
const FLOOR: f64 = 5e-4;

fn narrowed(a: DiaMatrix<f64>, b: &[f64]) -> (DiaMatrix<F16>, Vec<F16>) {
    (a.convert(), b.iter().map(|&v| F16::from_f64(v)).collect())
}

fn system3d(mesh: Mesh3D) -> (DiaMatrix<F16>, Vec<F16>) {
    let p = manufactured(mesh, (1.0, -0.5, 0.5), 11).preconditioned();
    narrowed(p.matrix, &p.rhs)
}

/// Jacobi-scaled system with a deterministic non-trivial exact solution.
fn scaled(a: DiaMatrix<f64>, exact: impl Fn(usize) -> f64) -> (DiaMatrix<F16>, Vec<F16>) {
    let exact: Vec<f64> = (0..a.mesh().len()).map(exact).collect();
    let mut b = vec![0.0; exact.len()];
    a.matvec_f64(&exact, &mut b);
    let sys = jacobi_scale(&a, &b);
    narrowed(sys.matrix, &sys.rhs)
}

fn norm(v: &[F16]) -> f64 {
    v.iter().map(|v| v.to_f64() * v.to_f64()).sum::<f64>().sqrt()
}

/// Solves `b` on the fabric and on the host over `recurrence`, and bounds
/// the ratio of their relative residuals iteration by iteration.
fn check(
    name: &str,
    recurrence: &'static Recurrence,
    a: &DiaMatrix<F16>,
    b: &[F16],
    fabric: &mut Fabric,
    solver: &Program,
) {
    let wafer = solver.solve(fabric, b, ITERS).1.residuals;
    let mut host = HostExec::<MixedF16, _>::new(recurrence, |x: &[F16], y: &mut [F16]| {
        a.matvec(x, y);
    });
    host.load_rhs(b);
    assert!(!wafer.is_empty(), "{name}: no iteration ran");
    for (i, &wafer) in wafer.iter().enumerate() {
        host.iterate();
        let host = norm(host.r()) / norm(b);
        let (w, h) = (wafer.max(FLOOR), host.max(FLOOR));
        let ratio = (w / h).max(h / w);
        assert!(ratio < 5.0, "{name} iter {}: wafer {wafer:.3e} vs host {host:.3e}", i + 1);
    }
}

#[test]
fn every_single_wafer_table_tracks_its_host_executor() {
    type Build = fn(&mut Fabric, &DiaMatrix<F16>) -> WaferBicgstab;
    let (classic, fused): (Build, Build) = (WaferBicgstab::build, WaferBicgstab::build_fused);
    let bicgstab = [
        ("BICGSTAB", &krylov::BICGSTAB, classic, (4, 4, 8)),
        ("BICGSTAB", &krylov::BICGSTAB, classic, (3, 5, 7)),
        ("BICGSTAB_FUSED", &krylov::BICGSTAB_FUSED, fused, (8, 8, 16)),
        ("BICGSTAB_FUSED", &krylov::BICGSTAB_FUSED, fused, (3, 5, 7)),
    ];
    for (name, recurrence, build, (w, h, z)) in bicgstab {
        let (a, b) = system3d(Mesh3D::new(w, h, z));
        let mut fabric = Fabric::new(w, h);
        let solver = build(&mut fabric, &a);
        check(&format!("{name} {w}x{h}x{z}"), recurrence, &a, &b, &mut fabric, &solver);
    }

    let cg = [
        ("CG", &krylov::CG, CgVariant::Standard),
        ("CG_SINGLE", &krylov::CG_SINGLE, CgVariant::SingleReduction),
    ];
    for (name, recurrence, variant) in cg {
        for (w, h, z) in [(4, 4, 8), (5, 2, 9)] {
            let exact = |i: usize| ((i * 7) % 9) as f64 * 0.125 - 0.5;
            let (a, b) = scaled(poisson(Mesh3D::new(w, h, z)), exact);
            let mut fabric = Fabric::new(w, h);
            let solver = WaferCg::build(&mut fabric, &a, variant);
            check(&format!("{name} {w}x{h}x{z}"), recurrence, &a, &b, &mut fabric, &solver);
        }
    }

    // A 4 × 4 block per tile on 3 × 3 tiles, and a 3 × 5 block on a 2 × 3
    // region at (1, 2) of a 4 × 6 fabric.
    for (block, (w, h), (fw, fh), origin) in
        [(Block2D::new(4, 4), (3, 3), (3, 3), (0, 0)), (Block2D::new(3, 5), (2, 3), (4, 6), (1, 2))]
    {
        let a = convection_diffusion9(block.covered_mesh(w, h), (1.5, -0.5));
        let (a, b) = scaled(a, |i| (i % 9) as f64 * 0.125 - 0.5);
        let mut fabric = Fabric::new(fw, fh);
        let solver = WaferBicgstab2d::build_at(&mut fabric, &a, block, origin);
        let name = format!("BICGSTAB_BLOCK {block:?} at {origin:?}");
        check(&name, &krylov::BICGSTAB_BLOCK, &a, &b, &mut fabric, &solver);
    }
}
