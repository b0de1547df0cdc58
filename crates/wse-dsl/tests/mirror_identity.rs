//! Bit-identity pins for the host mirrors in [`wse_dsl::host`].
//!
//! The mirrors compute in the datapath type itself ([`F16`] or `f32`) and
//! round each input once. This file keeps the earlier form as a test-local
//! reference — every value carried as `f64` and re-rounded through the
//! dtype at every primitive — and holds both mirrors to it bit for bit on
//! seeded random cases: fp16 and fp32, block radius 1 and 2 on several
//! block shapes, relay with register constants and with matrix bands (Var
//! coefficients or a Neumann boundary). Iterates and coefficients carry
//! full mantissas and include ±0, subnormal and near-overflow values of
//! the dtype. The default case count keeps the debug suite fast; the
//! `#[ignore]`d sweep runs many more cases in release
//! (`cargo test --release -p wse-dsl -- --ignored`).

use stencil::decomp::Block2D;
use stencil::dia::{DiaMatrix, Offset3};
use stencil::mesh::Mesh3D;
use wse_arch::types::Dtype;
use wse_arch::SplitMix64;
use wse_dsl::host::{block_reference_apply, relay_reference_apply};
use wse_dsl::{Boundary, CoefKind, Precision, StencilSpec, Tap};
use wse_float::{fma16, F16};

/// The earlier f64-carried mirrors, kept as the reference (the crate-private
/// `relay_uses_registers` test is spelled out in `relay`).
mod reference {
    use super::*;

    fn rnd(dt: Dtype, v: f64) -> f64 {
        match dt {
            Dtype::F16 => F16::from_f64(v).to_f64(),
            Dtype::F32 => v as f32 as f64,
        }
    }

    fn mul(dt: Dtype, a: f64, b: f64) -> f64 {
        match dt {
            Dtype::F16 => (F16::from_f64(a) * F16::from_f64(b)).to_f64(),
            Dtype::F32 => (a as f32 * b as f32) as f64,
        }
    }

    fn add(dt: Dtype, a: f64, b: f64) -> f64 {
        match dt {
            Dtype::F16 => (F16::from_f64(a) + F16::from_f64(b)).to_f64(),
            Dtype::F32 => (a as f32 + b as f32) as f64,
        }
    }

    fn fma(dt: Dtype, a: f64, b: f64, c: f64) -> f64 {
        match dt {
            Dtype::F16 => fma16(F16::from_f64(a), F16::from_f64(b), F16::from_f64(c)).to_f64(),
            Dtype::F32 => (a as f32).mul_add(b as f32, c as f32) as f64,
        }
    }

    fn scale_reg(dt: Dtype, r: f32, a: f64) -> f64 {
        match dt {
            Dtype::F16 => (F16::from_f32(r) * F16::from_f64(a)).to_f64(),
            Dtype::F32 => (r * a as f32) as f64,
        }
    }

    fn axpy_reg(dt: Dtype, r: f32, a: f64, cur: f64) -> f64 {
        match dt {
            Dtype::F16 => fma16(F16::from_f32(r), F16::from_f64(a), F16::from_f64(cur)).to_f64(),
            Dtype::F32 => r.mul_add(a as f32, cur as f32) as f64,
        }
    }

    pub fn relay(spec: &StencilSpec, a: &DiaMatrix<f64>, dt: Dtype, v: &[f64]) -> Vec<f64> {
        let mesh = a.mesh();
        let use_regs = spec.all_const() && spec.boundary == Boundary::Dirichlet0;
        let bands: Vec<Option<&[f64]>> = spec.taps.iter().map(|t| a.band_of(t.off)).collect();
        let mut out = vec![0.0; mesh.len()];
        for (row, (x, y, z)) in mesh.iter().enumerate() {
            let mut u = 0.0f64;
            for (o, t) in spec.taps.iter().enumerate() {
                let src = match mesh.neighbor(x, y, z, t.off.dx, t.off.dy, t.off.dz) {
                    Some(idx) => rnd(dt, v[idx]),
                    None => 0.0,
                };
                let first = o == 0;
                u = if use_regs {
                    let CoefKind::Const(c) = t.coef else { unreachable!() };
                    if first {
                        scale_reg(dt, c as f32, src)
                    } else {
                        axpy_reg(dt, c as f32, src, u)
                    }
                } else {
                    let coef = bands[o].map_or(0.0, |band| rnd(dt, band[row]));
                    if first {
                        mul(dt, coef, src)
                    } else {
                        fma(dt, coef, src, u)
                    }
                };
            }
            out[row] = u;
        }
        out
    }

    #[allow(clippy::too_many_arguments)]
    pub fn block(
        a: &DiaMatrix<f64>,
        offsets: &[Offset3],
        block: Block2D,
        w: usize,
        h: usize,
        r: usize,
        dt: Dtype,
        v: &[f64],
    ) -> Vec<f64> {
        let mesh = a.mesh();
        let (bx, by) = (block.bx, block.by);
        let (ew, eh) = (bx + 2 * r, by + 2 * r);
        let eidx = |i: usize, j: usize| i * eh + j;
        let tidx = |tx: usize, ty: usize| ty * w + tx;
        let mut ext = vec![vec![0.0f64; ew * eh]; w * h];
        for ty in 0..h {
            for tx in 0..w {
                let e = &mut ext[tidx(tx, ty)];
                for off in offsets {
                    let band = a.band_of(Offset3::new(-off.dx, -off.dy, 0));
                    for i in 0..bx {
                        for j in 0..by {
                            let gi = tx * bx + i;
                            let gj = ty * by + j;
                            let ri = gi as i64 + off.dx as i64;
                            let rj = gj as i64 + off.dy as i64;
                            let inside =
                                ri >= 0 && rj >= 0 && ri < mesh.nx as i64 && rj < mesh.ny as i64;
                            let coef = match band {
                                Some(band) if inside => {
                                    rnd(dt, band[mesh.idx(ri as usize, rj as usize, 0)])
                                }
                                _ => 0.0,
                            };
                            let vv = rnd(dt, v[mesh.idx(gi, gj, 0)]);
                            let di = (i as i64 + r as i64 + off.dx as i64) as usize;
                            let dj = (j as i64 + r as i64 + off.dy as i64) as usize;
                            e[eidx(di, dj)] = fma(dt, coef, vv, e[eidx(di, dj)]);
                        }
                    }
                }
            }
        }
        let snap = ext.clone();
        for ty in 0..h {
            for tx in 0..w {
                let e = &mut ext[tidx(tx, ty)];
                if tx + 1 < w {
                    let nb = &snap[tidx(tx + 1, ty)];
                    for c in 0..r {
                        for j in 0..eh {
                            e[eidx(bx + c, j)] = add(dt, e[eidx(bx + c, j)], nb[eidx(c, j)]);
                        }
                    }
                }
                if tx > 0 {
                    let nb = &snap[tidx(tx - 1, ty)];
                    for c in 0..r {
                        for j in 0..eh {
                            e[eidx(r + c, j)] = add(dt, e[eidx(r + c, j)], nb[eidx(bx + r + c, j)]);
                        }
                    }
                }
            }
        }
        let snap = ext.clone();
        for ty in 0..h {
            for tx in 0..w {
                let e = &mut ext[tidx(tx, ty)];
                if ty + 1 < h {
                    let nb = &snap[tidx(tx, ty + 1)];
                    for k in 0..r {
                        for i in r..r + bx {
                            e[eidx(i, by + k)] = add(dt, e[eidx(i, by + k)], nb[eidx(i, k)]);
                        }
                    }
                }
                if ty > 0 {
                    let nb = &snap[tidx(tx, ty - 1)];
                    for k in 0..r {
                        for i in r..r + bx {
                            e[eidx(i, r + k)] = add(dt, e[eidx(i, r + k)], nb[eidx(i, by + r + k)]);
                        }
                    }
                }
            }
        }
        let mut out = vec![0.0; mesh.len()];
        for ty in 0..h {
            for tx in 0..w {
                let e = &ext[tidx(tx, ty)];
                for i in 0..bx {
                    for j in 0..by {
                        out[mesh.idx(tx * bx + i, ty * by + j, 0)] = e[eidx(i + r, j + r)];
                    }
                }
            }
        }
        out
    }
}

/// A full-mantissa value in `dt`'s range: ±0, a subnormal, a value within
/// a factor of two of overflow, a value just past a rounding tie (where
/// rounding through a narrower type first would land on the tie and round
/// the other way), or (most often) a moderate normal.
fn value(rng: &mut SplitMix64, dt: Dtype) -> f64 {
    let (max_exp, min_exp, mant) = match dt {
        Dtype::F16 => (15, -24, 10),
        Dtype::F32 => (127, -149, 23),
    };
    let sign = if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
    // 52 random mantissa bits.
    let frac = 1.0 + (rng.next_u64() >> 12) as f64 * (2.0f64).powi(-52);
    let scale = (2.0f64).powi(rng.below(13) as i32 - 6);
    sign * match rng.below(11) {
        0 => 0.0,
        1 => frac * (2.0f64).powi(min_exp + rng.below(10) as i32),
        2 => frac * (2.0f64).powi(max_exp),
        3 => (1.0 + (2.0f64).powi(-mant - 1) + (2.0f64).powi(-40)) * scale,
        _ => frac * scale,
    }
}

fn values(rng: &mut SplitMix64, dt: Dtype, n: usize) -> Vec<f64> {
    (0..n).map(|_| value(rng, dt)).collect()
}

fn precision(rng: &mut SplitMix64) -> Precision {
    if rng.next_u64() & 1 == 0 {
        Precision::F16
    } else {
        Precision::F32
    }
}

/// `n` distinct offsets drawn from `-r..=r` per axis (`dz` only when `z`).
fn offsets(rng: &mut SplitMix64, n: usize, r: i32, z: bool) -> Vec<Offset3> {
    let mut offs: Vec<Offset3> = Vec::new();
    let draw = |rng: &mut SplitMix64| rng.below(2 * r as u64 + 1) as i32 - r;
    while offs.len() < n {
        let off = Offset3::new(draw(rng), draw(rng), if z { draw(rng) } else { 0 });
        if !offs.contains(&off) {
            offs.push(off);
        }
    }
    offs
}

/// A matrix on `mesh` carrying random full-mantissa bands at each of
/// `offs` that survives a coin flip (a missing band reads as zero).
fn random_matrix(
    rng: &mut SplitMix64,
    mesh: Mesh3D,
    offs: &[Offset3],
    dt: Dtype,
) -> DiaMatrix<f64> {
    let kept: Vec<Offset3> = offs.iter().copied().filter(|_| rng.below(5) != 0).collect();
    let mut a = DiaMatrix::new(mesh, &kept);
    for b in 0..kept.len() {
        for c in a.band_mut(b) {
            *c = value(rng, dt);
        }
    }
    a
}

fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (row, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: row {row}: {g:e} vs {w:e}");
    }
}

/// One seeded block case: radius 1 or 2, a block of at least `r` per
/// exchanging axis, 1–3 tiles per axis.
fn block_case(seed: u64, max_side: u64) {
    let mut rng = SplitMix64::new(seed);
    let dt = precision(&mut rng).dtype();
    let r = 1 + rng.below(2) as usize;
    let (w, h) = (1 + rng.below(3) as usize, 1 + rng.below(3) as usize);
    let (bx, by) = (r + rng.below(max_side) as usize, r + rng.below(max_side) as usize);
    let mesh = Mesh3D::new(w * bx, h * by, 1);
    let n_taps = 1 + rng.below((2 * r as u64 + 1).pow(2)) as usize;
    let offs = offsets(&mut rng, n_taps, r as i32, false);
    let bands: Vec<Offset3> = offs.iter().map(|o| Offset3::new(-o.dx, -o.dy, 0)).collect();
    let a = random_matrix(&mut rng, mesh, &bands, dt);
    let v = values(&mut rng, dt, mesh.len());
    let block = Block2D::new(bx, by);
    let got = block_reference_apply(&a, &offs, block, w, h, r, dt, &v);
    let want = reference::block(&a, &offs, block, w, h, r, dt, &v);
    let what = format!("seed {seed}: block {dt:?} r={r} {w}x{h} tiles of {bx}x{by}");
    assert_bits_eq(&got, &want, &what);
}

/// One seeded relay case: register constants (all-const, Dirichlet), or
/// matrix bands (a Var tap, or a Neumann boundary).
fn relay_case(seed: u64, max_side: u64) {
    let mut rng = SplitMix64::new(seed);
    let precision = precision(&mut rng);
    let dt = precision.dtype();
    let side = |rng: &mut SplitMix64| 1 + rng.below(max_side) as usize;
    let mesh = Mesh3D::new(side(&mut rng), side(&mut rng), side(&mut rng));
    let n_taps = 1 + rng.below(10) as usize;
    let offs = offsets(&mut rng, n_taps, 2, true);
    let mode = rng.below(3);
    let boundary = if mode == 2 { Boundary::NeumannMirror } else { Boundary::Dirichlet0 };
    let taps: Vec<Tap> = offs
        .iter()
        .map(|&off| {
            let coef = if mode == 1 && rng.below(2) == 0 {
                CoefKind::Var
            } else {
                CoefKind::Const(value(&mut rng, dt))
            };
            Tap { off, coef }
        })
        .collect();
    let spec = StencilSpec::new("mirror-case", taps, precision, boundary);
    let a = random_matrix(&mut rng, mesh, &offs, dt);
    let v = values(&mut rng, dt, mesh.len());
    let got = relay_reference_apply(&spec, &a, dt, &v);
    let want = reference::relay(&spec, &a, dt, &v);
    let what =
        format!("seed {seed}: relay {dt:?} {mesh:?} {boundary:?} all_const={}", spec.all_const());
    assert_bits_eq(&got, &want, &what);
}

#[test]
fn block_mirror_matches_the_f64_reference() {
    for seed in 0..256 {
        block_case(seed, 5);
    }
}

#[test]
fn relay_mirror_matches_the_f64_reference() {
    for seed in 0..256 {
        relay_case(seed, 5);
    }
}

/// The catalog operators at the benchmark's shapes, on full-mantissa
/// iterates, at both precisions.
#[test]
fn catalog_operators_match_the_f64_reference() {
    let mut rng = SplitMix64::new(7);
    for precision in [Precision::F16, Precision::F32] {
        let dt = precision.dtype();
        for name in ["star5-2d", "star9-2d", "box9-2d"] {
            let spec = wse_dsl::catalog::get(name).unwrap().with_precision(precision);
            let mesh = Mesh3D::new(32, 32, 1);
            let a = spec.matrix(mesh).unwrap();
            let v = values(&mut rng, dt, mesh.len());
            let (rx, ry, _) = spec.radius();
            let (r, b) = (rx.max(ry), Block2D::new(8, 8));
            let got = block_reference_apply(&a, &spec.offsets(), b, 4, 4, r, dt, &v);
            let want = reference::block(&a, &spec.offsets(), b, 4, 4, r, dt, &v);
            assert_bits_eq(&got, &want, &format!("{name} {dt:?}"));
        }
        for name in ["star7-3d", "star25-3d"] {
            let spec = wse_dsl::catalog::get(name).unwrap().with_precision(precision);
            let mesh = Mesh3D::new(6, 6, 24);
            let a = spec.matrix(mesh).unwrap();
            let v = values(&mut rng, dt, mesh.len());
            let got = relay_reference_apply(&spec, &a, dt, &v);
            let want = reference::relay(&spec, &a, dt, &v);
            assert_bits_eq(&got, &want, &format!("{name} {dt:?}"));
        }
    }
}

#[test]
#[ignore = "20,000 cases on larger meshes; run in release"]
fn mirrors_match_the_f64_reference_sweep() {
    for seed in 1_000..11_000 {
        block_case(seed, 12);
        relay_case(seed, 9);
    }
}
