//! Property tests for the DSL front door.
//!
//! Two contracts, straight from the subsystem's promise:
//!
//! 1. **Legal in, lint-clean out.** Any well-formed spec the planner
//!    accepts — random tap subsets within the routable neighborhood, mixed
//!    precisions — lowers to a program that passes the full `wse-lint`
//!    ensemble (routes/colors/SRAM/deadlock/race/progress) on the first
//!    try. No legal stencil can emit a program the static verifier
//!    rejects.
//! 2. **Illegal in, structured error out, fabric untouched.** Specs that
//!    reach beyond the routable radius or overflow the 48 KB tile SRAM are
//!    rejected with the matching [`DslError`] variant before a single
//!    route, allocation, or task exists on the fabric.

use proptest::prelude::*;
use stencil::decomp::Block2D;
use stencil::dia::{DiaMatrix, Offset3};
use stencil::mesh::{Mesh2D, Mesh3D};
use stencil::stencil9::laplace9;
use wse_arch::Fabric;
use wse_dsl::plan::{BLOCK_MAX_RADIUS, ROUTABLE_RADIUS};
use wse_dsl::{Boundary, DslError, Precision, StencilSpec, Tap};

/// Power-of-two weights: fp16-exact, so precision choice never affects
/// legality.
const WEIGHTS: [f64; 6] = [1.0, -0.5, 0.25, -0.25, 0.125, -0.0625];

fn precision() -> impl Strategy<Value = Precision> {
    any::<bool>().prop_map(|half| if half { Precision::F16 } else { Precision::F32 })
}

/// A random legal 2D spec: distinct offsets inside the block-mapping
/// neighborhood (radius ≤ 2), constant power-of-two weights.
fn legal_2d_spec() -> impl Strategy<Value = StencilSpec> {
    let r = BLOCK_MAX_RADIUS as i32;
    let tap = (-r..=r, -r..=r, 0..WEIGHTS.len());
    (proptest::collection::vec(tap, 1..10), precision()).prop_map(|(raw, prec)| {
        let mut taps: Vec<Tap> = Vec::new();
        for (dx, dy, wi) in raw {
            if !taps.iter().any(|t| t.off.dx == dx && t.off.dy == dy) {
                taps.push(Tap::constant(dx, dy, 0, WEIGHTS[wi]));
            }
        }
        StencilSpec::new("prop-2d", taps, prec, Boundary::Dirichlet0)
    })
}

/// A random legal 3D star: distinct axis-aligned offsets, per-axis reach
/// within the relay limits (x/y ≤ ROUTABLE_RADIUS, z kept short of the
/// column).
fn legal_3d_spec() -> impl Strategy<Value = StencilSpec> {
    let r = ROUTABLE_RADIUS as i32;
    let tap = (0..3usize, -r..=r, 0..WEIGHTS.len());
    (proptest::collection::vec(tap, 1..12), precision()).prop_map(|(raw, prec)| {
        let mut taps: Vec<Tap> = Vec::new();
        for (axis, d, wi) in raw {
            let (dx, dy, dz) = match axis {
                0 => (d, 0, 0),
                1 => (0, d, 0),
                // Keep |dz| ≤ 2 so any z ≥ 4 column satisfies rz < z.
                _ => (0, 0, d.clamp(-2, 2)),
            };
            if !taps.iter().any(|t| t.off.dx == dx && t.off.dy == dy && t.off.dz == dz) {
                taps.push(Tap::constant(dx, dy, dz, WEIGHTS[wi]));
            }
        }
        StencilSpec::new("prop-3d", taps, prec, Boundary::Dirichlet0)
    })
}

/// Every tile still pristine: no SRAM allocated, no program text, no routes.
fn fabric_untouched(fabric: &Fabric) -> bool {
    for y in 0..fabric.height() {
        for x in 0..fabric.width() {
            let tile = fabric.tile(x, y);
            if tile.mem.used() != 0 || !tile.core.dump_program().is_empty() {
                return false;
            }
            if tile.router.routes().next().is_some() {
                return false;
            }
        }
    }
    true
}

#[test]
fn caller_bands_outside_the_spec_are_rejected_before_fabric() {
    // A 9-band matrix under the 5-point star: every emitter and both host
    // mirrors walk the spec's taps, so the four corner bands would vanish.
    let spec = wse_dsl::catalog::get("star5-2d").unwrap();
    let mesh = Mesh3D::new(8, 8, 1);
    let block = Some(Block2D::new(4, 4));
    let a = laplace9(Mesh2D::new(8, 8));
    let mut fabric = Fabric::new(2, 2);
    let err = wse_dsl::lower(&mut fabric, &spec, &a, block).unwrap_err();
    assert_eq!(err, DslError::BandOutsideSpec(Offset3::new(1, 1, 0)));
    assert!(fabric_untouched(&fabric), "rejection must precede fabric mutation");

    // All-zero bands outside the spec carry nothing and lower as before.
    let star = spec.matrix(mesh).unwrap();
    let mut padded = DiaMatrix::<f64>::new(mesh, &Offset3::nine_point_2d());
    for off in spec.offsets() {
        let b = padded.band_index(off).unwrap();
        padded.band_mut(b).copy_from_slice(star.band_of(off).unwrap());
    }
    wse_dsl::lower(&mut fabric, &spec, &padded, block).expect("zero bands are harmless");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn legal_2d_specs_lower_lint_clean(spec in legal_2d_spec(), bx in 4usize..7, by in 4usize..7) {
        let mesh = Mesh3D::new(2 * bx, 2 * by, 1);
        let mut fabric = Fabric::new(2, 2);
        let lowered = wse_dsl::lower_spec(&mut fabric, &spec, mesh, Some(Block2D::new(bx, by)))
            .expect("legal 2D spec must lower");
        prop_assert_eq!(lowered.dtype, spec.precision.dtype());
        let diags = wse_lint::lint(&fabric);
        prop_assert!(diags.is_empty(), "lint findings on a legal spec: {:?}", diags);
    }

    #[test]
    fn legal_3d_specs_lower_lint_clean(spec in legal_3d_spec(), z in 5usize..12) {
        let mesh = Mesh3D::new(3, 3, z);
        let mut fabric = Fabric::new(3, 3);
        wse_dsl::lower_spec(&mut fabric, &spec, mesh, None).expect("legal 3D spec must lower");
        let diags = wse_lint::lint(&fabric);
        prop_assert!(diags.is_empty(), "lint findings on a legal spec: {:?}", diags);
    }

    #[test]
    fn radius_overflow_is_rejected_before_fabric(
        spec in legal_3d_spec(),
        reach in (ROUTABLE_RADIUS as i32 + 1)..=(ROUTABLE_RADIUS as i32 + 4),
        flip in any::<bool>(),
        on_y in any::<bool>(),
    ) {
        let mut spec = spec;
        let d = if flip { -reach } else { reach };
        let (dx, dy) = if on_y { (0, d) } else { (d, 0) };
        spec.taps.retain(|t| !(t.off.dx == dx && t.off.dy == dy && t.off.dz == 0));
        spec.taps.push(Tap::constant(dx, dy, 0, 0.25));
        let mut fabric = Fabric::new(10, 10);
        let err = wse_dsl::lower_spec(&mut fabric, &spec, Mesh3D::new(3, 3, 8), None)
            .expect_err("out-of-radius tap must be rejected");
        prop_assert!(
            matches!(err, DslError::RadiusOverflow { max, .. } if max == ROUTABLE_RADIUS),
            "wrong rejection: {}", err
        );
        prop_assert!(fabric_untouched(&fabric), "rejection must precede fabric mutation");
    }

    #[test]
    fn sram_overflow_is_rejected_before_fabric(spec in legal_3d_spec(), z in 13000usize..16000) {
        // Even the leanest layout (single register-held tap, no relay
        // buffers) needs the padded iterate plus the result — 4z bytes at
        // fp16 — so any z above 12288 overflows the 48 KB budget for every
        // generated spec and precision.
        let mut fabric = Fabric::new(2, 2);
        let err = wse_dsl::lower_spec(&mut fabric, &spec, Mesh3D::new(2, 2, z), None)
            .expect_err("oversized column must be rejected");
        prop_assert!(
            matches!(err, DslError::SramOverflow { need, budget } if need > budget),
            "wrong rejection: {}", err
        );
        prop_assert!(fabric_untouched(&fabric), "rejection must precede fabric mutation");
    }

    #[test]
    fn lowering_is_deterministic(spec in legal_2d_spec()) {
        // Same source, same program: the cache-soundness precondition.
        let mesh = Mesh3D::new(8, 8, 1);
        let build = |spec: &StencilSpec| {
            let mut fabric = Fabric::new(2, 2);
            let lowered =
                wse_dsl::lower_spec(&mut fabric, spec, mesh, Some(Block2D::new(4, 4))).unwrap();
            (lowered.fingerprint, fabric.tile(0, 0).core.dump_program())
        };
        prop_assert_eq!(build(&spec), build(&spec));
    }
}
