//! DSL-retrofit bit-exactness regression.
//!
//! The 3D 7-point and 2D 9-point SpMVs build through `wse-dsl`'s lowering
//! layer: [`wse_dsl::lower`] over the all-variable specs, on an fp16
//! matrix widened to `f64`. When they were retrofitted, this file carried
//! verbatim copies of the hand-written builders they replaced and asserted
//! equal [`program_digest`]s (a hash of every tile's SRAM contents, textual
//! program dump, register file, and routing table); that parity proof is
//! in git history. What remains are the six digests those builders
//! produced, recorded once and pinned here, beside pins for every catalog
//! operator and for the relay emitter.
//!
//! If a change to the lowering layer alters allocation order, DSR order,
//! task order, route insertion order, task names, or any emitted byte, this
//! test fails — exactly the regression the retrofit promised not to cause.

use stencil::decomp::Block2D;
use stencil::dia::DiaMatrix;
use stencil::mesh::{Mesh2D, Mesh3D};
use stencil::precond::jacobi_scale;
use stencil::stencil7::convection_diffusion;
use stencil::stencil9::laplace9;
use wse_arch::Fabric;
use wse_dsl::{catalog, lower, lower_spec, StencilSpec};
use wse_float::F16;
use wse_serve::program::program_digest;

/// Digest of the 3D 7-point program for a Jacobi-scaled
/// convection-diffusion system, one mesh column per tile.
fn digest_3d(nx: usize, ny: usize, nz: usize) -> u64 {
    let mesh = Mesh3D::new(nx, ny, nz);
    let a = convection_diffusion(mesh, (1.0, -0.5, 0.25), 1.0);
    let a: DiaMatrix<F16> = jacobi_scale(&a, &vec![0.0; mesh.len()]).matrix.convert();
    let mut fabric = Fabric::new(nx, ny);
    lower(&mut fabric, &StencilSpec::var_seven_point_3d(), &a.convert(), None).unwrap();
    program_digest(&fabric)
}

/// Digest of the 2D 9-point Laplacian program on an `nx × ny` mesh cut into
/// `bx × by` blocks.
fn digest_2d(nx: usize, ny: usize, bx: usize, by: usize) -> u64 {
    let a: DiaMatrix<F16> = laplace9(Mesh2D::new(nx, ny)).convert();
    let mut fabric = Fabric::new(nx / bx, ny / by);
    let spec = StencilSpec::var_nine_point_2d();
    lower(&mut fabric, &spec, &a.convert(), Some(Block2D::new(bx, by))).unwrap();
    program_digest(&fabric)
}

#[test]
fn lowered_spmv3d_program_is_byte_identical_to_legacy_builder() {
    assert_eq!(digest_3d(3, 3, 12), 0x0d98_5b0e_c182_8864, "3D retrofit changed the program");
}

#[test]
fn lowered_spmv3d_single_column_is_byte_identical_to_legacy_builder() {
    assert_eq!(digest_3d(1, 1, 16), 0xbb58_a30a_0d88_b31a);
}

#[test]
fn lowered_spmv2d_program_is_byte_identical_to_legacy_builder() {
    assert_eq!(digest_2d(12, 8, 4, 4), 0x8fa6_3b3c_e963_6670, "2D retrofit changed the program");
}

#[test]
fn lowered_spmv2d_single_tile_is_byte_identical_to_legacy_builder() {
    assert_eq!(digest_2d(6, 6, 6, 6), 0x2fae_29e8_f41b_d8bc);
}

#[test]
fn lowered_spmv2d_tall_and_wide_edge_tiles_are_byte_identical() {
    // Asymmetric fabric shapes exercise every has_e/has_w/has_s/has_n
    // combination in the halo-exchange task emission.
    assert_eq!(digest_2d(12, 3, 3, 3), 0x23b4_af79_3b98_578c, "4x1 fabric");
    assert_eq!(digest_2d(3, 12, 3, 3), 0x889e_89ed_bf77_32e4, "1x4 fabric");
}

// ---------------------------------------------------------------------------
// Every emitter's bytes: each catalog operator through `lower_spec`, and a
// 7-point operator whose diagonal is not all ones, which leaves Listing 1 for
// the relay emitter with its coefficients in SRAM. Recorded once, pinned.
// ---------------------------------------------------------------------------

/// Digest of catalog operator `name` over `mesh` on a `w × h` fabric, after
/// checking which emitter `lower_spec` chose.
fn digest_catalog(name: &str, mesh: Mesh3D, (w, h): (usize, usize), kind: &str) -> u64 {
    let block = (mesh.nz == 1).then(|| Block2D::new(mesh.nx / w, mesh.ny / h));
    let mut fabric = Fabric::new(w, h);
    let lowered = lower_spec(&mut fabric, &catalog::get(name).unwrap(), mesh, block).unwrap();
    assert_eq!(lowered.kind(), kind, "{name}");
    program_digest(&fabric)
}

#[test]
fn catalog_programs_are_pinned() {
    let plane = Mesh3D::new(12, 12, 1);
    for (name, mesh, fabric, kind, digest) in [
        ("star5-2d", plane, (3, 3), "block", 0x2755_023b_3f35_2d72),
        ("box9-2d", plane, (3, 3), "block", 0xc1cb_eb66_9b76_db42),
        ("star9-2d", plane, (3, 3), "block", 0xc0c4_b455_f78b_c065),
        ("star7-3d", Mesh3D::new(3, 3, 12), (3, 3), "listing1", 0xfb3d_10f0_22f4_7de9),
        ("star25-3d", Mesh3D::new(9, 6, 12), (9, 6), "relay", 0x602d_7703_6180_dfb8),
    ] {
        assert_eq!(digest_catalog(name, mesh, fabric, kind), digest, "{name} changed the program");
    }
}

#[test]
fn relay_with_sram_coefficients_is_pinned() {
    // Convection-diffusion without Jacobi scaling: the diagonal is not 1.
    let mesh = Mesh3D::new(4, 3, 10);
    let a = convection_diffusion(mesh, (1.0, -0.5, 0.25), 1.0);
    let mut fabric = Fabric::new(4, 3);
    let lowered = lower(&mut fabric, &StencilSpec::var_seven_point_3d(), &a, None).unwrap();
    assert_eq!(lowered.kind(), "relay");
    assert_eq!(program_digest(&fabric), 0x2af1_4a17_d767_d461, "relay changed the program");
}

// ---------------------------------------------------------------------------
// Cache soundness for DSL-keyed tenants: same DSL source => same key =>
// same compiled digest, so `box9-2d` jobs from different tenants share one
// cache entry exactly like the built-in operators do.
// ---------------------------------------------------------------------------

#[test]
fn dsl_operator_is_a_cacheable_tenant() {
    use wse_serve::program::CompiledProgram;
    use wse_serve::{ProgramKey, StencilKind};

    let key = ProgramKey::bicgstab2d((8, 8), (4, 4), StencilKind::dsl("box9-2d"));
    assert_eq!(key, ProgramKey::bicgstab2d((8, 8), (4, 4), StencilKind::dsl("box9-2d")));

    // Same DSL source, two independent compiles: the lint gate passes and
    // the images are byte-identical.
    let a = CompiledProgram::compile(&key).expect("DSL operator must pass the admission gate");
    let b = CompiledProgram::compile(&key).expect("DSL operator must pass the admission gate");
    assert_eq!(a.digest(), b.digest(), "same DSL source must compile to the same digest");

    // `box9-2d` (center 1, eight neighbors -1/8) IS the Jacobi-scaled
    // 9-point Laplacian, so the DSL source must reproduce the hand-built
    // `Laplace9` program byte for byte — distinct keys, identical images.
    let laplace = ProgramKey::bicgstab2d((8, 8), (4, 4), StencilKind::Laplace9);
    assert_ne!(key, laplace);
    let c = CompiledProgram::compile(&laplace).unwrap();
    assert_eq!(a.digest(), c.digest(), "box9-2d must lower to the scaled-Laplacian program");

    // A genuinely different operator compiles to a different program.
    let conv = ProgramKey::bicgstab2d((8, 8), (4, 4), StencilKind::convection(1.5, -0.5));
    let d = CompiledProgram::compile(&conv).unwrap();
    assert_ne!(a.digest(), d.digest(), "distinct operators must not share an image");
}
