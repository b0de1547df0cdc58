//! The generalized 2D block mapping with output-halo exchange (§IV.2 of the
//! paper), radius `r ≤ 2`.
//!
//! "For the 2D problem we map a rectangular region of the mesh of v to each
//! core, and store all elements of the corresponding columns of A. After
//! multiplication of the local v with the local A we have generated products
//! in an output halo that must be sent to neighboring tiles. ... We complete
//! a round of send and add in one direction, then a round for the other
//! direction, and in this way avoid communication along diagonals of the
//! tile grid."
//!
//! Per core: the local `bx × by` block of `v` is multiplied against the
//! stored **column** coefficient arrays (one per tap) with fused FMACs into
//! a `(bx+2r) × (by+2r)` extended output buffer; the edge wings (the output
//! halo, `r` columns/rows deep) are then exchanged — first the x direction
//! (full-height wings, so corner products ride along), then the y direction
//! — and added into the neighbors' interiors.
//!
//! At radius 1 with fp16 and the nine-point tap order this emits a program
//! **byte-identical** to the original hand-written 2D SpMV builder (the
//! retrofit regression in `tests/dsl_retrofit.rs` pins the program
//! digest), which is why some orderings below look arbitrary: they are
//! frozen by that contract. The x-round wing is `r` *contiguous*
//! extended columns, so any radius still needs exactly one send and one
//! receive thread per side; the y round streams each of the `r` halo rows
//! on its own color pair ([`crate::colors::halo_s`]). Every halo stream is
//! one send or receive launch and the inter-round barrier is one barrier
//! chain, all from the emitters' shared `dataflow` module.

use crate::colors::{halo_n, halo_s, HALO_E, HALO_W};
use crate::dataflow::{barrier_chain, recv, send, t_mem, t_strided};
use stencil::decomp::Block2D;
use stencil::dia::{DiaMatrix, Offset3};
use stencil::scalar::Scalar;
use wse_arch::instr::{Op, Stmt, Task, TaskAction, TensorInstr};
use wse_arch::types::{Dtype, Port, Reg, TaskId};
use wse_arch::{Fabric, Tile};
use wse_float::F16;

/// Register used as the zero constant when clearing the output buffer.
const R_ZERO: Reg = 30;

/// Byte addresses of one tile's block-mapped data.
#[derive(Clone, Debug)]
pub struct BlockLayout {
    /// Block extents.
    pub block: Block2D,
    /// Halo radius.
    pub r: usize,
    /// Element type.
    pub dtype: Dtype,
    /// Column-coefficient arrays (`bx·by` each), one per tap in spec order.
    pub coef: Vec<u32>,
    /// Local iterate block, `bx·by` words, row-major (y fastest).
    pub v: u32,
    /// Extended output buffer, `(bx+2r)·(by+2r)` words, row-major with
    /// width `by + 2r`.
    pub ubuf: u32,
}

impl BlockLayout {
    /// Allocates the layout in a tile's SRAM, in the frozen order
    /// (coefficient arrays, iterate, output buffer).
    ///
    /// # Panics
    /// Panics when the block exceeds the 48 KB budget; [`crate::plan()`]
    /// rejects such specs before any tile exists.
    pub fn alloc(
        tile: &mut Tile,
        block: Block2D,
        ntaps: usize,
        r: usize,
        dtype: Dtype,
    ) -> BlockLayout {
        let n = (block.bx * block.by) as u32;
        let mut coef = Vec::with_capacity(ntaps);
        for _ in 0..ntaps {
            coef.push(tile.mem.alloc_vec(n, dtype).expect("SRAM: 2D coefficients"));
        }
        let v = tile.mem.alloc_vec(n, dtype).expect("SRAM: 2D iterate");
        let ubuf = tile
            .mem
            .alloc_vec(((block.bx + 2 * r) * (block.by + 2 * r)) as u32, dtype)
            .expect("SRAM: 2D output buffer");
        BlockLayout { block, r, dtype, coef, v, ubuf }
    }

    /// Byte address of `ubuf[i][j]` (extended coordinates, `i` along x).
    pub fn u_addr(&self, i: usize, j: usize) -> u32 {
        self.ubuf + self.dtype.bytes() * (i * (self.block.by + 2 * self.r) + j) as u32
    }

    /// Byte address of `v[i][j]` (block coordinates).
    pub fn v_addr(&self, i: usize, j: usize) -> u32 {
        self.v + self.dtype.bytes() * (i * self.block.by + j) as u32
    }
}

/// Halo-exchange routing for a `w × h` region at the fabric origin.
/// Routing is boundary-aware in **region** coordinates: no route crosses
/// the region's edge, so a built region blitted next to another program
/// cannot interfere with it (the multi-tenant containment invariant,
/// checked by `wse-lint`'s region lint). The x direction uses one color
/// pair regardless of radius (the wing is contiguous); the y direction
/// uses one pair per halo ring.
pub fn configure_block_routes(fabric: &mut Fabric, w: usize, h: usize, r: usize) {
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                fabric.set_route(x, y, Port::Ramp, HALO_E, &[Port::East]);
                fabric.set_route(x, y, Port::East, HALO_W, &[Port::Ramp]);
            }
            if x > 0 {
                fabric.set_route(x, y, Port::Ramp, HALO_W, &[Port::West]);
                fabric.set_route(x, y, Port::West, HALO_E, &[Port::Ramp]);
            }
            if y + 1 < h {
                for k in 0..r {
                    fabric.set_route(x, y, Port::Ramp, halo_s(k), &[Port::South]);
                    fabric.set_route(x, y, Port::South, halo_n(k), &[Port::Ramp]);
                }
            }
            if y > 0 {
                for k in 0..r {
                    fabric.set_route(x, y, Port::Ramp, halo_n(k), &[Port::North]);
                    fabric.set_route(x, y, Port::North, halo_s(k), &[Port::Ramp]);
                }
            }
        }
    }
}

/// Stores per-core **column** coefficients: `coef[o][i][j]` multiplies
/// local `v[i][j]` and contributes to the output at extended position
/// `(i+r+dx, j+r+dy)` — i.e. it is the matrix entry
/// `A[(gi+dx, gj+dy), (gi, gj)]`, the transpose view of the row-stored DIA
/// bands. The `f64` matrix carries scalar values exactly
/// ([`Scalar::to_f64`] is exact for every implementor), so rounding once
/// into `dtype` here reproduces the bytes a native-precision matrix would
/// have stored.
pub fn load_block_coefficients<S: Scalar>(
    tile: &mut Tile,
    layout: &BlockLayout,
    a: &DiaMatrix<S>,
    offsets: &[Offset3],
    tx: usize,
    ty: usize,
) {
    let mesh = a.mesh();
    assert_eq!(mesh.nz, 1, "block mapping is 2D");
    let b = layout.block;
    // Block coordinates `k` whose row `origin + k + d` lies in `0..n`.
    let in_mesh = |origin: usize, len: usize, d: i32, n: usize| {
        let first = origin as i64 + d as i64;
        let lo = (-first).clamp(0, len as i64);
        lo as usize..(n as i64 - first).clamp(lo, len as i64) as usize
    };
    for (o, off) in offsets.iter().enumerate() {
        let mut data = vec![0.0f64; b.bx * b.by];
        // Row = (gi+dx, gj+dy); its coefficient toward column (gi, gj) sits
        // at offset (-dx, -dy) in row storage, and a run of j is a run of
        // rows. A missing band loads zeros.
        let js = in_mesh(ty * b.by, b.by, off.dy, mesh.ny);
        let band = a.band_of(Offset3::new(-off.dx, -off.dy, 0)).filter(|_| !js.is_empty());
        if let Some(band) = band {
            for i in in_mesh(tx * b.bx, b.bx, off.dx, mesh.nx) {
                let ri = (tx * b.bx + i) as i64 + off.dx as i64;
                let rj = (ty * b.by + js.start) as i64 + off.dy as i64;
                let row = mesh.idx(ri as usize, rj as usize, 0);
                let dst = &mut data[i * b.by + js.start..i * b.by + js.end];
                for (d, s) in dst.iter_mut().zip(&band[row..row + js.len()]) {
                    *d = s.to_f64();
                }
            }
        }
        store_scalar_slice(tile, layout.coef[o], &data, layout.dtype);
    }
}

/// Stores `data` at `addr`, rounding each value once into `dtype`.
pub fn store_scalar_slice(tile: &mut Tile, addr: u32, data: &[f64], dtype: Dtype) {
    match dtype {
        Dtype::F16 => {
            let h: Vec<F16> = data.iter().map(|&v| F16::from_f64(v)).collect();
            tile.mem.store_f16_slice(addr, &h);
        }
        Dtype::F32 => {
            for (i, &v) in data.iter().enumerate() {
                tile.mem.write_f32(addr + 4 * i as u32, f32::from_f64(v));
            }
        }
    }
}

/// Loads `len` values from `addr`, widening each exactly to `f64`.
pub fn load_scalar_slice(tile: &Tile, addr: u32, len: usize, dtype: Dtype) -> Vec<f64> {
    match dtype {
        Dtype::F16 => tile.mem.load_f16_slice(addr, len).iter().map(|h| h.to_f64()).collect(),
        Dtype::F32 => (0..len).map(|i| tile.mem.read_f32(addr + 4 * i as u32) as f64).collect(),
    }
}

/// Builds the per-tile task: zero `ubuf`, one FMAC pass per tap (row at a
/// time), then the two-round halo exchange with a barrier between rounds.
/// The caller marks the returned task as an entry point.
pub fn build_block_tile_task(
    tile: &mut Tile,
    layout: &BlockLayout,
    offsets: &[Offset3],
    tx: usize,
    ty: usize,
    w: usize,
    h: usize,
) -> TaskId {
    let b = layout.block;
    let (bx, by) = (b.bx, b.by);
    let r = layout.r;
    let dt = layout.dtype;
    let esz = dt.bytes();
    let core = &mut tile.core;
    let ub_w = (by + 2 * r) as u32;

    let mut body: Vec<Stmt> = vec![Stmt::SetReg { reg: R_ZERO, value: 0.0 }];

    // Zero the extended buffer with a register broadcast (source-free: a
    // single DSR, so the cursor semantics are trivially correct on every
    // invocation).
    let n_ub = ((bx + 2 * r) * (by + 2 * r)) as u32;
    let d_ub_all = core.add_dsr(t_mem(layout.ubuf, n_ub, dt));
    body.push(Stmt::Exec(TensorInstr {
        op: Op::StoreReg { reg: R_ZERO },
        dst: Some(d_ub_all),
        a: None,
        b: None,
    }));

    // One fused multiply-accumulate pass per tap × bx rows. (This is where
    // the paper's "all 9 multiplies and adds ... on the same core, we are
    // able to use the fused multiply-accumulate instruction" shows up.)
    for (o, off) in offsets.iter().enumerate() {
        for i in 0..bx {
            let d_dst = core.add_dsr(t_mem(
                layout.u_addr(
                    (i as i64 + r as i64 + off.dx as i64) as usize,
                    (r as i64 + off.dy as i64) as usize,
                ),
                by as u32,
                dt,
            ));
            let d_coef = core.add_dsr(t_mem(layout.coef[o] + esz * (i * by) as u32, by as u32, dt));
            let d_v = core.add_dsr(t_mem(layout.v_addr(i, 0), by as u32, dt));
            body.push(Stmt::Exec(TensorInstr {
                op: Op::FmaAssign,
                dst: Some(d_dst),
                a: Some(d_coef),
                b: Some(d_v),
            }));
        }
    }

    // --- Halo exchange round 1: x direction, full-height wings of r
    // contiguous extended columns. Send the east wing (extended columns
    // bx+r .. bx+2r), receive the east neighbor's westward wing into
    // interior columns bx .. bx+r; symmetric westward. ---
    let strip_h = (r * (by + 2 * r)) as u32;
    let has_e = tx + 1 < w;
    let has_w = tx > 0;
    let has_s = ty + 1 < h;
    let has_n = ty > 0;

    // Barrier between rounds: a chain over round 1's launched threads (a
    // send and an add-from-neighbor per x neighbor).
    let round2 = core.add_task(Task::new("halo-y", vec![]));
    let r1_threads = 2 * (usize::from(has_e) + usize::from(has_w));
    let chain = barrier_chain(core, "halo-x-barrier", r1_threads, Some(round2));

    // Per side: (present, first column out, first column in, colors).
    let wing = |i: usize| t_mem(layout.u_addr(i, 0), strip_h, dt);
    let sides = [(has_e, bx + r, bx, HALO_E, HALO_W), (has_w, 0, r, HALO_W, HALO_E)];
    let mut k = 0;
    for (_, out, into, c_out, c_in) in sides.into_iter().filter(|side| side.0) {
        send(core, &mut body, k as u8, wing(out), c_out, chain.trigger(k));
        recv(core, &mut body, k as u8 + 1, c_in, Op::AddAssign, wing(into), chain.trigger(k + 1));
        k += 2;
    }
    if r1_threads == 0 {
        // No x neighbors: go straight to round 2.
        body.push(Stmt::TaskCtl { task: round2, action: TaskAction::Activate });
    }

    // --- Round 2 (y direction): interior-width strips, one per halo ring,
    // each ring on its own color pair; the +y side sends extended rows
    // by+r+ring and adds into rows by+ring, the −y side sends rows ring and
    // adds into rows r+ring. A "row j = const" strip is strided by
    // (by + 2r). ---
    let mut r2_body: Vec<Stmt> = Vec::new();
    // Radius 1 keeps the frozen slot base 4 (round-1 slots stay untouched);
    // radius 2 needs 4r = 8 launch slots, so it reuses the round-1 slots —
    // safe because the inter-round barrier guarantees they retired, and a
    // busy slot only stall-retries anyway.
    let mut slot = if 4 * r + 4 <= 9 { 4u8 } else { 0u8 };
    let strip = |j: usize| t_strided(layout.u_addr(r, j), bx as u32, ub_w, dt);
    let sides = [(has_s, by + r, by, [halo_s, halo_n]), (has_n, 0, r, [halo_n, halo_s])];
    for (_, out, into, [c_out, c_in]) in sides.into_iter().filter(|side| side.0) {
        for ring in 0..r {
            send(core, &mut r2_body, slot, strip(out + ring), c_out(ring), None);
            recv(core, &mut r2_body, slot + 1, c_in(ring), Op::AddAssign, strip(into + ring), None);
            slot += 2;
        }
    }
    core.set_task_body(round2, r2_body);

    // The task name is frozen at "spmv2d" for program-digest stability with
    // the original hand-written builder.
    core.add_task(Task::new("spmv2d", body))
}
