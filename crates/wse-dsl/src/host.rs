//! Host reference applies that mirror the lowered programs' arithmetic
//! **order and rounding exactly**, per datapath dtype.
//!
//! The device kernels are deterministic elementwise pipelines (taps in spec
//! order, then at most one halo add per direction per cell), so a host loop
//! that performs the same primitive operations in the same order produces
//! **bit-identical** results at fp32 and fp16 alike. Values are carried as
//! `f64` (exact for both dtypes, [`stencil::scalar::Scalar::to_f64`]), and
//! every primitive rounds through the dtype like the core's datapath does
//! ([`wse_float::fma16`] for the fp16 FMA forms, `f32::mul_add` for fp32).

use crate::ir::{CoefKind, StencilSpec};
use crate::plan::relay_uses_registers;
use stencil::decomp::Block2D;
use stencil::dia::{DiaMatrix, Offset3};
use wse_arch::types::Dtype;
use wse_float::{fma16, F16};

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

/// The fused `dst = a·b + c` form ([`wse_arch`] `FmaAssign`).
fn fma(dt: Dtype, a: f64, b: f64, c: f64) -> f64 {
    match dt {
        Dtype::F16 => fma16(F16::from_f64(a), F16::from_f64(b), F16::from_f64(c)).to_f64(),
        Dtype::F32 => (a as f32).mul_add(b as f32, c as f32) as f64,
    }
}

/// `dst = r · a` with the scalar in an fp32 register (`Scale`).
fn scale_reg(dt: Dtype, r: f32, a: f64) -> f64 {
    match dt {
        Dtype::F16 => (F16::from_f32(r) * F16::from_f64(a)).to_f64(),
        Dtype::F32 => (r * a as f32) as f64,
    }
}

/// `dst = r · a + dst` with the scalar in an fp32 register (`Axpy`).
fn axpy_reg(dt: Dtype, r: f32, a: f64, cur: f64) -> f64 {
    match dt {
        Dtype::F16 => fma16(F16::from_f32(r), F16::from_f64(a), F16::from_f64(cur)).to_f64(),
        Dtype::F32 => r.mul_add(a as f32, cur as f32) as f64,
    }
}

/// Mirror of the relay (and pure-z) compute task: per mesh row, taps in
/// spec order; off-mesh sources read exact zeros (the device's
/// zero-initialized buffers and pads), and so does a tap whose band the
/// matrix lacks. Matches the lowered relay program bit-for-bit at both
/// precisions.
pub fn relay_reference_apply(
    spec: &StencilSpec,
    a: &DiaMatrix<f64>,
    dt: Dtype,
    v: &[f64],
) -> Vec<f64> {
    let mesh = a.mesh();
    assert_eq!(v.len(), mesh.len(), "iterate length");
    let use_regs = relay_uses_registers(spec);
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
                let c = match t.coef {
                    CoefKind::Const(c) => c as f32,
                    CoefKind::Var => unreachable!("register path is all-const"),
                };
                if first {
                    scale_reg(dt, c, src)
                } else {
                    axpy_reg(dt, c, src, u)
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

/// Mirror of the 2D block mapping: per-tile extended buffers, FMA passes
/// in tap order, then the x-wing exchange and the y-row exchange (each on
/// pre-round snapshots — the device's sends read regions its receives
/// never write). Matches the lowered block program bit-for-bit at both
/// precisions.
#[allow(clippy::too_many_arguments)]
pub fn block_reference_apply(
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
    assert_eq!(mesh.nz, 1, "block mapping is 2D");
    assert_eq!(v.len(), mesh.len(), "iterate length");
    let (bx, by) = (block.bx, block.by);
    let (ew, eh) = (bx + 2 * r, by + 2 * r);
    let eidx = |i: usize, j: usize| i * eh + j;
    let tidx = |tx: usize, ty: usize| ty * w + tx;

    // FMA passes per tile, tap order, rows ascending (the device's
    // per-row FmaAssign instructions).
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
                        // The stored column coefficient (transpose view),
                        // zero when the target row falls off-mesh or the
                        // matrix lacks the band.
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

    // Round 1: x wings, full height. My interior columns [bx, bx+r) gain
    // the east neighbor's west wing [0, r); my columns [r, 2r) gain the
    // west neighbor's east wing [bx+r, bx+2r).
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

    // Round 2: y rows, interior width, on post-x values. My rows
    // [by, by+r) gain the south neighbor's rows [0, r); my rows [r, 2r)
    // gain the north neighbor's rows [by+r, by+2r).
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

    // Gather interiors.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_like_each_dtype() {
        // fp16: 1 + 2^-12 rounds away; fp32 keeps it.
        let tiny = (2.0f64).powi(-12);
        assert_eq!(add(Dtype::F16, 1.0, tiny), 1.0);
        assert_eq!(add(Dtype::F32, 1.0, tiny), 1.0 + tiny);
        // The fused form rounds once: fma16(a, b, c) differs from
        // mul-then-add when the product needs the extra bits.
        let a = 1.0 + (2.0f64).powi(-10);
        let fused = fma(Dtype::F16, a, a, 1.0);
        let unfused = add(Dtype::F16, mul(Dtype::F16, a, a), 1.0);
        assert!(fused.is_finite() && unfused.is_finite());
    }
}
