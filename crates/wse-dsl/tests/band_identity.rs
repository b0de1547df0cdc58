//! Bit-identity pins for the band-by-band coefficient walk.
//!
//! [`StencilSpec::matrix`] walks taps outermost and adds each tap's weight
//! into whole bands, and lowering narrows the matrix with
//! [`DiaMatrix::convert`]. This file keeps the earlier point-major walk and
//! the per-entry fp16 narrowing as test-local references and holds the new
//! code to them: every band bit for bit, and the identical `Err` value.
//! Where the point-major walk panics (a mirror image past the far edge of
//! a short axis, folded onto a carried band), the band walk must return a
//! typed error instead.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use stencil::dia::{DiaMatrix, Offset3};
use stencil::mesh::Mesh3D;
use stencil::scalar::Scalar;
use wse_dsl::{Boundary, CoefKind, DslError, Precision, StencilSpec, Tap};
use wse_float::F16;

/// The point-major reference: per mesh row, taps in spec order, each
/// entry read and written through the single-entry accessors.
fn point_major_matrix(spec: &StencilSpec, mesh: Mesh3D) -> Result<DiaMatrix<f64>, DslError> {
    spec.validate()?;
    if !spec.all_const() {
        return Err(DslError::VarNeedsMatrix);
    }
    let offsets = spec.offsets();
    let mut a = DiaMatrix::<f64>::new(mesh, &offsets);
    let reflect = |i: i64, n: usize| -> i64 {
        if i < 0 {
            -i - 1
        } else if i >= n as i64 {
            2 * n as i64 - 1 - i
        } else {
            i
        }
    };
    for (x, y, z) in mesh.iter() {
        for t in &spec.taps {
            let CoefKind::Const(c) = t.coef else { unreachable!("all_const checked") };
            let (sx, sy, sz) = (
                x as i64 + t.off.dx as i64,
                y as i64 + t.off.dy as i64,
                z as i64 + t.off.dz as i64,
            );
            let inside = sx >= 0
                && sy >= 0
                && sz >= 0
                && sx < mesh.nx as i64
                && sy < mesh.ny as i64
                && sz < mesh.nz as i64;
            if inside {
                let cur = a.coeff(x, y, z, t.off);
                a.set(x, y, z, t.off, cur + c);
                continue;
            }
            if spec.boundary == Boundary::NeumannMirror {
                let (mx, my, mz) =
                    (reflect(sx, mesh.nx), reflect(sy, mesh.ny), reflect(sz, mesh.nz));
                let fold = Offset3::new(
                    (mx - x as i64) as i32,
                    (my - y as i64) as i32,
                    (mz - z as i64) as i32,
                );
                if !offsets.contains(&fold) {
                    return Err(DslError::MirrorNeedsBand(fold));
                }
                let cur = a.coeff(x, y, z, fold);
                a.set(x, y, z, fold, cur + c);
            }
        }
    }
    Ok(a)
}

/// The per-entry fp16 narrowing reference: in-mesh entries only.
fn per_entry_f16(a: &DiaMatrix<f64>) -> DiaMatrix<F16> {
    let mesh = a.mesh();
    let mut out = DiaMatrix::<F16>::new(mesh, a.offsets());
    for off in a.offsets().to_vec() {
        for (x, y, z) in mesh.iter() {
            if mesh.neighbor(x, y, z, off.dx, off.dy, off.dz).is_some() {
                out.set(x, y, z, off, F16::from_f64(a.coeff(x, y, z, off)));
            }
        }
    }
    out
}

/// Coefficients that stress the summation: signed zeros, f64 and fp16
/// subnormals, both signs, values that round in fp16, and overflow bait.
const POOL: [f64; 14] = [
    0.0,
    -0.0,
    1.0,
    -0.25,
    0.1,
    -3.5,
    5e-324,
    -5e-324,
    -1.1125369292536007e-308,
    6.103515625e-05,
    -5.960464477539063e-08,
    2.9802322387695312e-08,
    65504.0,
    -1e300,
];

fn coefficient() -> impl Strategy<Value = f64> {
    (0..POOL.len() + 1, any::<u64>()).prop_map(|(i, bits)| match POOL.get(i) {
        Some(&c) => c,
        None => Some(f64::from_bits(bits)).filter(|c| c.is_finite()).unwrap_or(0.5),
    })
}

/// A constant spec of radius ≤ 4 in one of three shapes: random offsets in
/// the cube, a symmetric star around the center (the shape mirror folds
/// land on), or every offset of a radius-1 or -2 cube (folds always carried
/// when the axes are long enough).
fn constant_spec() -> impl Strategy<Value = StencilSpec> {
    let tap = (-4i32..=4, -4i32..=4, -4i32..=4, coefficient());
    (0usize..3, 1i32..=4, prop::collection::vec(tap, 1..9), any::<bool>(), coefficient()).prop_map(
        |(shape, r, raw, mirror, c0)| {
            let mut taps: Vec<Tap> = Vec::new();
            let mut push = |dx: i32, dy: i32, dz: i32, c: f64| {
                if !taps.iter().any(|t| t.off == Offset3::new(dx, dy, dz)) {
                    taps.push(Tap::constant(dx, dy, dz, c));
                }
            };
            match shape {
                0 => {
                    for (dx, dy, dz, c) in raw {
                        push(dx.clamp(-r, r), dy.clamp(-r, r), dz.clamp(-r, r), c);
                    }
                }
                1 => {
                    push(0, 0, 0, c0);
                    for (dx, dy, dz, c) in raw {
                        let d = 1 + (dx + dy + dz).rem_euclid(r);
                        let (ex, ey, ez) =
                            [(d, 0, 0), (0, d, 0), (0, 0, d)][dz.rem_euclid(3) as usize];
                        push(ex, ey, ez, c);
                        push(-ex, -ey, -ez, -c);
                    }
                }
                _ => {
                    let r = 1 + r % 2;
                    let mut cs = raw.iter().map(|t| t.3).cycle();
                    for dx in -r..=r {
                        for dy in -r..=r {
                            for dz in -r..=r {
                                push(dx, dy, dz, cs.next().unwrap_or(c0));
                            }
                        }
                    }
                }
            }
            let boundary = if mirror { Boundary::NeumannMirror } else { Boundary::Dirichlet0 };
            StencilSpec::new("prop-bands", taps, Precision::F16, boundary)
        },
    )
}

fn band_bits<S: Scalar>(a: &DiaMatrix<S>, bits: impl Fn(S) -> u64) -> Vec<(Offset3, Vec<u64>)> {
    a.offsets()
        .iter()
        .enumerate()
        .map(|(b, off)| (*off, a.band(b).iter().map(|&v| bits(v)).collect()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn band_walk_matches_point_major_walk(
        spec in constant_spec(),
        nx in 1usize..=6,
        ny in 1usize..=6,
        nz in 1usize..=6,
    ) {
        let mesh = Mesh3D::new(nx, ny, nz);
        let got = spec.matrix(mesh);
        match catch_unwind(AssertUnwindSafe(|| point_major_matrix(&spec, mesh))) {
            Ok(Ok(want)) => {
                let a = got.expect("the point-major walk assembled this spec");
                prop_assert_eq!(band_bits(&a, f64::to_bits), band_bits(&want, f64::to_bits));
                let f16_bits = |h: F16| u64::from(h.to_bits());
                prop_assert_eq!(
                    band_bits(&a.convert::<F16>(), f16_bits),
                    band_bits(&per_entry_f16(&want), f16_bits)
                );
            }
            Ok(Err(want)) => prop_assert_eq!(got.unwrap_err(), want),
            Err(_) => prop_assert!(
                matches!(got, Err(DslError::MeshMismatch(_))),
                "a mirror image past the far edge must be a typed error, got {:?}", got
            ),
        }
    }
}

#[test]
fn mirror_fold_onto_a_missing_band_is_named() {
    // On a 3×3 mesh the (0, 2) tap's ghost at y = 1 folds onto (0, 1), and
    // the (−2, 0) tap's ghost at x = 0 folds onto (1, 0); neither is
    // carried. The band walk meets the (0, 2) tap first, but the (−2, 0)
    // ghost sits at row 0, ahead of row 1, so that is the fold named.
    let spec = StencilSpec::new(
        "fold",
        vec![
            Tap::constant(0, 0, 0, 1.0),
            Tap::constant(0, 2, 0, 0.5),
            Tap::constant(-2, 0, 0, 0.25),
        ],
        Precision::F16,
        Boundary::NeumannMirror,
    );
    let mesh = Mesh3D::new(3, 3, 1);
    let want = DslError::MirrorNeedsBand(Offset3::new(1, 0, 0));
    assert_eq!(point_major_matrix(&spec, mesh).unwrap_err(), want);
    assert_eq!(spec.matrix(mesh).unwrap_err(), want);
}

#[test]
fn mirror_image_past_the_far_edge_is_a_typed_error() {
    // On a 1-point x axis the +2 tap's ghost mirrors once to x = −1: still
    // off the mesh, though the fold offset −1 is carried. The point-major
    // walk panicked here.
    let spec = StencilSpec::new(
        "far",
        vec![
            Tap::constant(0, 0, 0, 1.0),
            Tap::constant(2, 0, 0, 0.5),
            Tap::constant(-1, 0, 0, 0.5),
        ],
        Precision::F16,
        Boundary::NeumannMirror,
    );
    let mesh = Mesh3D::new(1, 2, 2);
    assert!(catch_unwind(|| point_major_matrix(&spec, mesh)).is_err());
    let err = spec.matrix(mesh).unwrap_err();
    assert!(matches!(err, DslError::MeshMismatch(_)), "{err}");
}
