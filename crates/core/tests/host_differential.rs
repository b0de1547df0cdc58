//! Wafer against host: every table, built by its builder at its
//! `tests/krylov_pins.rs` shapes and solved on the fabric (or on a
//! multi-wafer ensemble), against [`HostExec`] over the same table (mixed
//! fp16/fp32, host matvec).
//!
//! The two agree to a bound, not bit for bit: the wafer's fp32 AllReduce
//! associates in an order that depends on the fabric's history, which no
//! host executor can reproduce (nor the ensemble's per-wafer partials and
//! host combine). Once either trajectory reaches the fp16
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
use wse_arch::{Fabric, Region};
use wse_core::bicgstab2d::WaferBicgstab2d;
use wse_core::cg::{CgVariant, WaferCg};
use wse_core::krylov::{self, HostExec, Program, Recurrence};
use wse_core::recovery::{ResidualTripwire, TripwireVerdict};
use wse_core::{Krylov, WaferBicgstab, WaferBicgstabMulti};
use wse_float::F16;
use wse_multi::{HostLink, MultiFabric};

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
    compare(name, recurrence, a, b, &solver.solve(fabric, b, ITERS).1.residuals);
}

/// Runs `recurrence` on the host from `b`, and bounds the ratio of its
/// relative residuals to the `wafer` ones iteration by iteration.
fn compare(
    name: &str,
    recurrence: &'static Recurrence,
    a: &DiaMatrix<F16>,
    b: &[F16],
    wafer: &[f64],
) {
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
    // region blitted to (1, 2) of a 4 × 6 fabric.
    for (block, (w, h), (fw, fh), origin) in
        [(Block2D::new(4, 4), (3, 3), (3, 3), (0, 0)), (Block2D::new(3, 5), (2, 3), (4, 6), (1, 2))]
    {
        let a = convection_diffusion9(block.covered_mesh(w, h), (1.5, -0.5));
        let (a, b) = scaled(a, |i| (i % 9) as f64 * 0.125 - 0.5);
        let mut image = Fabric::new(w, h);
        let solver = WaferBicgstab2d::build(&mut image, &a, block).rebased(origin);
        let mut fabric = Fabric::new(fw, fh);
        fabric.blit_region(Region::new(origin.0, origin.1, w, h), &image);
        let name = format!("BICGSTAB_BLOCK {block:?} at {origin:?}");
        check(&name, &krylov::BICGSTAB_BLOCK, &a, &b, &mut fabric, &solver);
    }
}

#[test]
fn every_ensemble_table_tracks_its_host_executor() {
    type Build = fn(&mut MultiFabric, &DiaMatrix<F16>) -> WaferBicgstabMulti;
    let (classic, fused): (Build, Build) =
        (WaferBicgstabMulti::build, WaferBicgstabMulti::build_fused);
    let single = &krylov::BICGSTAB_SINGLE;
    let cases = [
        ("BICGSTAB_SINGLE", single, fused, (6, 4, 8), 2),
        ("BICGSTAB", &krylov::BICGSTAB, classic, (6, 4, 8), 2),
        ("BICGSTAB_SINGLE", single, fused, (6, 4, 8), 1),
        // Uneven slabs: 3 / 2 / 2.
        ("BICGSTAB_SINGLE", single, fused, (7, 3, 5), 3),
    ];
    for (name, recurrence, build, (w, h, z), k) in cases {
        // `tests/krylov_pins.rs`'s ensemble systems.
        let (a, b) = scaled(poisson(Mesh3D::new(w, h, z)), |i| (i * 29 % 101) as f64 / 101.0 - 0.4);
        let mut multi = MultiFabric::new(w, h, k, HostLink::paper_default());
        let solver = build(&mut multi, &a);
        let wafer = solver.solve(&mut multi, &b, ITERS).1.residuals;
        compare(&format!("{name} {w}x{h}x{z} k={k}"), recurrence, &a, &b, &wafer);
    }
}

/// A NaN ‖r‖² reads as non-finite, never as converged. Off-diagonals a
/// thousand times the unit diagonal overflow fp16 in the first iteration:
/// on one wafer, on the fused ensemble at k = 1 and 2, and on the host.
#[test]
fn a_nan_residual_stops_every_executor_as_non_finite() {
    let mesh = Mesh3D::new(4, 4, 8);
    let mut a = poisson(mesh);
    for band in 0..a.offsets().len() {
        let center = a.offsets()[band].is_center();
        a.band_mut(band).iter_mut().for_each(|v| *v = if center { 1.0 } else { *v * 1000.0 });
    }
    let b: Vec<f64> = (0..mesh.len()).map(|i| if i % 3 == 0 { 100.0 } else { 1.0 }).collect();
    let (a, b) = narrowed(a, &b);

    let mut fabric = Fabric::new(4, 4);
    let solver = WaferBicgstab::build(&mut fabric, &a);
    let (x, stats) = solver.solve(&mut fabric, &b, ITERS);
    let mut solves = vec![("one wafer", x, stats.residuals)];
    for (name, k) in [("k = 1", 1), ("k = 2", 2)] {
        let mut multi = MultiFabric::new(4, 4, k, HostLink::paper_default());
        let solver = WaferBicgstabMulti::build_fused(&mut multi, &a);
        let (x, stats) = solver.solve(&mut multi, &b, ITERS);
        solves.push((name, x, stats.residuals));
    }
    for (name, x, residuals) in solves {
        let last = *residuals.last().expect("an iteration ran");
        let verdict = ResidualTripwire::default().check(last);
        assert_eq!(verdict, TripwireVerdict::NonFinite, "{name}: {residuals:?}");
        assert!(x.iter().all(|v| !v.to_f64().is_finite()), "{name}: a finite iterate entry");
    }

    let mut host = HostExec::<MixedF16, _>::new(&krylov::BICGSTAB, |x: &[F16], y: &mut [F16]| {
        a.matvec(x, y);
    });
    host.load_rhs(&b);
    host.iterate();
    assert!(host.r().iter().all(|v| !v.to_f64().is_finite()), "a finite host r entry");
}
