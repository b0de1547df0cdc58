//! Every shipped kernel configuration must pass `wse-lint` with zero
//! diagnostics. This is the linter's "no false positives on real programs"
//! contract: the fixture tests in `wse-lint` prove each rule *fires* on a
//! broken program; this file proves none of them fire on a working one.

use stencil::decomp::Block2D;
use stencil::dia::DiaMatrix;
use stencil::mesh::Mesh3D;
use stencil::precond::jacobi_scale;
use stencil::problem::manufactured;
use stencil::stencil9::convection_diffusion9;
use wse_arch::types::Dtype;
use wse_arch::Fabric;
use wse_core::allreduce::{Payload, Reduction};
use wse_core::bicgstab2d::WaferBicgstab2d;
use wse_core::cg::{CgVariant, WaferCg};
use wse_core::WaferBicgstab;
use wse_dsl::{lower, StencilSpec};
use wse_float::F16;
use wse_lint::lint;

fn assert_clean(fabric: &Fabric, what: &str) {
    let diags = lint(fabric);
    assert!(
        diags.is_empty(),
        "{what}: expected zero diagnostics, got {}:\n{}",
        diags.len(),
        diags.iter().map(|d| format!("  {d}")).collect::<Vec<_>>().join("\n")
    );
}

/// A unit-diagonal 7-point system sized for a `w × h` fabric.
fn system3d(w: usize, h: usize, z: usize) -> DiaMatrix<F16> {
    let mesh = Mesh3D::new(w, h, z);
    manufactured(mesh, (1.0, -0.5, 0.5), 11).preconditioned().matrix.convert()
}

/// A unit-diagonal 9-point 2-D system covering `w × h` tiles of `block`.
fn system2d(w: usize, h: usize, block: Block2D) -> DiaMatrix<F16> {
    let mesh = block.covered_mesh(w, h);
    let a = convection_diffusion9(mesh, (1.5, -0.5));
    let exact: Vec<f64> = (0..mesh.len()).map(|i| ((i % 9) as f64) * 0.125 - 0.5).collect();
    let mut b = vec![0.0; mesh.len()];
    a.matvec_f64(&exact, &mut b);
    jacobi_scale(&a, &b).matrix.convert()
}

#[test]
fn spmv3d_lints_clean() {
    for (w, h) in [(3, 3), (2, 4)] {
        let a = system3d(w, h, 8);
        let mut fabric = Fabric::new(w, h);
        lower(&mut fabric, &StencilSpec::var_seven_point_3d(), &a.convert(), None).unwrap();
        assert_clean(&fabric, &format!("spmv3d {w}x{h}"));
    }
}

#[test]
fn spmv3d_single_tile_column_lints_clean() {
    // The degenerate 1x1 mapping: no neighbors, no FIFOs, no sumtask.
    let a = system3d(1, 1, 8);
    let mut fabric = Fabric::new(1, 1);
    lower(&mut fabric, &StencilSpec::var_seven_point_3d(), &a.convert(), None).unwrap();
    assert_clean(&fabric, "spmv3d 1x1");
}

#[test]
fn spmv2d_lints_clean() {
    let block = Block2D::new(4, 4);
    let a = system2d(3, 3, block);
    let mut fabric = Fabric::new(3, 3);
    lower(&mut fabric, &StencilSpec::var_nine_point_2d(), &a.convert(), Some(block)).unwrap();
    assert_clean(&fabric, "spmv2d 3x3");
}

#[test]
fn allreduce_standalone_lints_clean() {
    // Includes shapes where a center row/column sits on the fabric edge
    // (empty half-streams) and asymmetric regions.
    // The split and lane forms run over the same shapes; the lanes also
    // over the degenerate one-row and one-column regions.
    let scalar = Payload::Scalar { r_in: 24, r_out: 25, r_acc: 26 };
    for (w, h) in [(2, 2), (3, 3), (4, 4), (5, 3), (2, 7), (1, 4), (4, 1)] {
        if w >= 2 && h >= 2 {
            let mut fabric = Fabric::new(w, h);
            let _ = Reduction::build(&mut fabric, w, h, scalar);
            assert_clean(&fabric, &format!("allreduce {w}x{h}"));
            let mut fabric = Fabric::new(w, h);
            let _ = Reduction::build_split(&mut fabric, w, h, scalar);
            assert_clean(&fabric, &format!("allreduce split {w}x{h}"));
        }
        let mut fabric = Fabric::new(w, h);
        let (mut pay, mut reply) = (0, 0);
        for i in 0..w * h {
            let mem = &mut fabric.tile_mut(i % w, i / w).mem;
            pay = mem.alloc_vec(14, Dtype::F32).unwrap();
            reply = mem.alloc_vec(7, Dtype::F32).unwrap();
        }
        let regs = &[2, 3, 6, 7, 12, 9, 11];
        let _ =
            Reduction::build_split(&mut fabric, w, h, Payload::Lanes { pay, m: 14, reply, regs });
        assert_clean(&fabric, &format!("allreduce lanes {w}x{h}"));
    }
}

#[test]
fn bicgstab_standard_lints_clean() {
    let a = system3d(3, 3, 6);
    let mut fabric = Fabric::new(3, 3);
    let _ = WaferBicgstab::build(&mut fabric, &a);
    assert_clean(&fabric, "bicgstab standard 3x3");
}

#[test]
fn bicgstab_fused_lints_clean() {
    let a = system3d(3, 3, 6);
    let mut fabric = Fabric::new(3, 3);
    let _ = WaferBicgstab::build_fused(&mut fabric, &a);
    assert_clean(&fabric, "bicgstab fused 3x3");
}

#[test]
fn cg_lints_clean_in_both_variants() {
    for variant in [CgVariant::Standard, CgVariant::SingleReduction] {
        let a = system3d(3, 3, 6);
        let mut fabric = Fabric::new(3, 3);
        let _ = WaferCg::build(&mut fabric, &a, variant);
        assert_clean(&fabric, &format!("cg {variant:?} 3x3"));
    }
}

#[test]
fn bicgstab2d_lints_clean() {
    let block = Block2D::new(3, 3);
    let a = system2d(3, 3, block);
    let mut fabric = Fabric::new(3, 3);
    let _ = WaferBicgstab2d::build(&mut fabric, &a, block);
    assert_clean(&fabric, "bicgstab2d 3x3");
}
