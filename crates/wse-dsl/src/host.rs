//! Host reference applies that mirror the lowered programs' arithmetic
//! **order and rounding exactly**, per datapath dtype.
//!
//! The device kernels are deterministic elementwise pipelines (taps in spec
//! order, then at most one halo add per direction per cell), so a host loop
//! that performs the same primitive operations in the same order produces
//! **bit-identical** results at fp32 and fp16 alike. Each mirror dispatches
//! once on the [`Dtype`] to a body generic over [`Scalar`] ([`F16`] for
//! fp16, `f32` for fp32), so values are carried in the datapath type and
//! each primitive is the core's own: [`Scalar::mul`], [`Scalar::add`] and
//! the single-rounding [`Scalar::mul_add`] ([`wse_float::fma16`] or
//! `f32::mul_add`). Each input is rounded into that type once: the iterate
//! and each coefficient band once per call, and a register constant from
//! the fp32 value its register holds.

use crate::ir::{CoefKind, StencilSpec};
use crate::plan::relay_uses_registers;
use stencil::decomp::Block2D;
use stencil::dia::{DiaMatrix, Offset3};
use stencil::mesh::Mesh3D;
use stencil::scalar::{convert_slice, Scalar};
use wse_arch::types::Dtype;
use wse_float::F16;

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
    match dt {
        Dtype::F16 => relay_apply::<F16>(spec, a, v),
        Dtype::F32 => relay_apply::<f32>(spec, a, v),
    }
}

fn relay_apply<S: Scalar>(spec: &StencilSpec, a: &DiaMatrix<f64>, v: &[f64]) -> Vec<f64> {
    let mesh = a.mesh();
    assert_eq!(v.len(), mesh.len(), "iterate length");
    let v: Vec<S> = convert_slice(v);
    let use_regs = relay_uses_registers(spec);
    let mut u = vec![S::zero(); mesh.len()];
    let (mut coef, mut src) = (u.clone(), u.clone());
    for (o, t) in spec.taps.iter().enumerate() {
        match (use_regs, a.band_of(t.off)) {
            (true, _) => {
                let CoefKind::Const(c) = t.coef else { unreachable!("register path is all-const") };
                coef.fill(S::from_f64(c as f32 as f64));
            }
            (false, Some(band)) => {
                coef.iter_mut().zip(band).for_each(|(c, &b)| *c = S::from_f64(b));
            }
            (false, None) => coef.fill(S::zero()),
        }
        gather_tap(mesh, t.off, &v, &mut src);
        let terms = u.iter_mut().zip(&coef).zip(&src);
        if o == 0 {
            terms.for_each(|((u, &c), &s)| *u = c.mul(s));
        } else {
            terms.for_each(|((u, &c), &s)| *u = u.mul_add(c, s));
        }
    }
    u.iter().map(|x| x.to_f64()).collect()
}

/// `src[row] = v[row + step]` for every row whose source at `off` lies on
/// the mesh, exact zero for the rest: one fixed index step, copied a
/// contiguous run of valid rows at a time.
fn gather_tap<S: Scalar>(mesh: Mesh3D, off: Offset3, v: &[S], src: &mut [S]) {
    src.fill(S::zero());
    // Coordinates `c` with `0 <= c + d < n`.
    let valid = |d: i32, n: usize| {
        let lo = (-(d as i64)).max(0);
        lo..(n as i64 - d as i64).min(n as i64).max(lo)
    };
    let (xs, ys, zs) = (valid(off.dx, mesh.nx), valid(off.dy, mesh.ny), valid(off.dz, mesh.nz));
    let (ny, nz) = (mesh.ny as i64, mesh.nz as i64);
    let step = (off.dx as i64 * ny + off.dy as i64) * nz + off.dz as i64;
    // One copy per run: a valid z-range, or every valid y-row of one x
    // when the whole z-range is valid.
    let (ys, len) = if zs.end - zs.start == nz {
        (ys.start..ys.start + 1, (ys.end - ys.start) * nz)
    } else {
        (ys, zs.end - zs.start)
    };
    let len = len as usize;
    if len == 0 {
        return;
    }
    for x in xs {
        for y in ys.clone() {
            let row = (x * ny + y) * nz + zs.start;
            let from = (row + step) as usize;
            src[row as usize..][..len].copy_from_slice(&v[from..][..len]);
        }
    }
}

/// Mirror of the 2D block mapping: per-tile extended buffers, FMA passes
/// in tap order, then the x-wing exchange and the y-row exchange. Each
/// exchange reads only wing columns or rows that it never writes (the
/// device's sends read regions its receives never write), so it runs in
/// place. Matches the lowered block program bit-for-bit at both
/// precisions.
///
/// # Panics
/// Panics if the mesh is not 2D, `v` is not one value per mesh point, or
/// a block that exchanges a halo is narrower than `r`.
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
    match dt {
        Dtype::F16 => block_apply::<F16>(a, offsets, block, w, h, r, v),
        Dtype::F32 => block_apply::<f32>(a, offsets, block, w, h, r, v),
    }
}

fn block_apply<S: Scalar>(
    a: &DiaMatrix<f64>,
    offsets: &[Offset3],
    block: Block2D,
    w: usize,
    h: usize,
    r: usize,
    v: &[f64],
) -> Vec<f64> {
    let mesh = a.mesh();
    assert_eq!(mesh.nz, 1, "block mapping is 2D");
    assert_eq!(v.len(), mesh.len(), "iterate length");
    let (bx, by) = (block.bx, block.by);
    assert!((w == 1 || bx >= r) && (h == 1 || by >= r), "halo exchange needs blocks >= r");
    let v: Vec<S> = convert_slice(v);
    let (ew, eh) = (bx + 2 * r, by + 2 * r);
    // Every tile's extended buffer in one array: tiles row-major, each
    // tile's buffer column by column.
    let at = |tx: usize, ty: usize, i: usize, j: usize| ((ty * w + tx) * ew + i) * eh + j;
    let mut ext = vec![S::zero(); w * h * ew * eh];

    // FMA passes, tap order, rows ascending (the device's per-row
    // FmaAssign instructions). Taps run outermost: a tap writes each cell
    // at most once, so every cell still takes its taps in order. A
    // point's coefficient is the stored column entry (transpose view) of
    // the row at `off`, zero when that row falls off-mesh or the matrix
    // lacks the band.
    let mut coef = vec![S::zero(); mesh.len()];
    for off in offsets {
        match a.band_of(Offset3::new(-off.dx, -off.dy, 0)) {
            Some(band) => gather_tap(mesh, *off, &convert_slice::<f64, S>(band), &mut coef),
            None => coef.fill(S::zero()),
        }
        let dj = (r as i64 + off.dy as i64) as usize;
        for ty in 0..h {
            for tx in 0..w {
                for i in 0..bx {
                    let g = mesh.idx(tx * bx + i, ty * by, 0);
                    let di = (i as i64 + r as i64 + off.dx as i64) as usize;
                    let e = &mut ext[at(tx, ty, di, dj)..][..by];
                    let terms = e.iter_mut().zip(&coef[g..][..by]).zip(&v[g..][..by]);
                    terms.for_each(|((e, &c), &x)| *e = e.mul_add(c, x));
                }
            }
        }
    }

    // Round 1: x wings, full height. My interior columns [bx, bx+r) gain
    // the east neighbor's west wing [0, r); my columns [r, 2r) gain the
    // west neighbor's east wing [bx+r, bx+2r).
    for ty in 0..h {
        for tx in 0..w {
            let east = (tx + 1 < w).then(|| (tx + 1, bx, 0));
            let west = (tx > 0).then(|| (tx - 1, r, bx + r));
            for (ntx, mine, theirs) in [east, west].into_iter().flatten() {
                for c in 0..r {
                    for j in 0..eh {
                        let (e, n) = (at(tx, ty, mine + c, j), at(ntx, ty, theirs + c, j));
                        ext[e] = ext[e].add(ext[n]);
                    }
                }
            }
        }
    }

    // Round 2: y rows, interior width, on post-x values. My rows
    // [by, by+r) gain the south neighbor's rows [0, r); my rows [r, 2r)
    // gain the north neighbor's rows [by+r, by+2r).
    for ty in 0..h {
        for tx in 0..w {
            let south = (ty + 1 < h).then(|| (ty + 1, by, 0));
            let north = (ty > 0).then(|| (ty - 1, r, by + r));
            for (nty, mine, theirs) in [south, north].into_iter().flatten() {
                for k in 0..r {
                    for i in r..r + bx {
                        let (e, n) = (at(tx, ty, i, mine + k), at(tx, nty, i, theirs + k));
                        ext[e] = ext[e].add(ext[n]);
                    }
                }
            }
        }
    }

    // Gather interiors.
    let mut out = vec![0.0; mesh.len()];
    for ty in 0..h {
        for tx in 0..w {
            for i in 0..bx {
                for j in 0..by {
                    out[mesh.idx(tx * bx + i, ty * by + j, 0)] =
                        ext[at(tx, ty, i + r, j + r)].to_f64();
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Boundary, Precision, Tap};

    #[test]
    fn primitives_round_like_each_dtype() {
        // Row 0 is `1·v0` then `c·v1 + u`, both coefficients in registers.
        let relay = |c: f64, v: [f64; 2], dt: Dtype| {
            let taps = vec![Tap::constant(0, 0, 0, 1.0), Tap::constant(0, 0, 1, c)];
            let spec = StencilSpec::new("t", taps, Precision::F16, Boundary::Dirichlet0);
            let a = DiaMatrix::new(Mesh3D::new(1, 1, 2), &spec.offsets());
            relay_reference_apply(&spec, &a, dt, &v)[0]
        };
        // fp16: 1 + 2^-12 rounds away; fp32 keeps it.
        let tiny = (2.0f64).powi(-12);
        assert_eq!(relay(1.0, [1.0, tiny], Dtype::F16), 1.0);
        assert_eq!(relay(1.0, [1.0, tiny], Dtype::F32), 1.0 + tiny);
        // The fused form rounds once: a·a − (1 + 2^-9) keeps the product's
        // 2^-20 tail, which rounding the product first would drop.
        let a = 1.0 + (2.0f64).powi(-10);
        assert_eq!(relay(a, [-(1.0 + (2.0f64).powi(-9)), a], Dtype::F16), (2.0f64).powi(-20));
    }
}
