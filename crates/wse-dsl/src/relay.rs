//! Store-and-forward relay rounds for wide 3D star stencils (the 25-point
//! star of Jacquelin et al., "Scalable Distributed High-Order Stencil
//! Computations", maps this way on the WSE).
//!
//! The Fig.-5 tessellation broadcasts one hop. A radius-4 star needs
//! columns from tiles up to four hops away, but colors are scarce: instead
//! of one channel per (direction, distance) pair, **round `d` re-sends the
//! column received in round `d − 1`** on the same four direction colors
//! ([`crate::colors::RELAY_E`] …). Per-link in-order delivery plus a
//! per-tile barrier between rounds keeps the streams unambiguous, so four
//! colors serve any radius.
//!
//! Memory: each tile holds its own z-column (zero-padded by `rz` on both
//! ends) plus one `z`-length buffer per (direction, distance) pair. A
//! buffer whose source tile falls off the fabric is simply never written:
//! SRAM is zero-initialized, so off-mesh taps read exact zeros — the
//! homogeneous Dirichlet boundary for free. The compute task then applies
//! the taps in spec order: constant coefficients live in core registers
//! (AXPY/Scale forms), per-cell-variable ones in SRAM coefficient columns
//! (FMAC forms).
//!
//! Each round's sends and receives are the shared `dataflow` stream
//! launches, joined by its barrier chain.

use crate::colors::{RELAY_E, RELAY_N, RELAY_S, RELAY_W};
use crate::dataflow::{barrier_chain, recv, send, t_mem};
use crate::ir::{CoefKind, StencilSpec};
use crate::plan::{distinct_consts, relay_uses_registers, CONST_REG_BASE};
use stencil::dia::DiaMatrix;
use wse_arch::instr::{Op, Stmt, Task, TaskAction, TensorInstr};
use wse_arch::types::{Color, Dtype, Port, Reg, TaskId};
use wse_arch::{Fabric, Tile};

/// Direction indices into [`RelayLayout::bufs`]: data *from* the +x, −x,
/// +y, −y neighbor respectively.
pub const XP: usize = 0;
/// Data from the −x side.
pub const XM: usize = 1;
/// Data from the +y side.
pub const YP: usize = 2;
/// Data from the −y side.
pub const YM: usize = 3;

/// Byte addresses of one tile's relay-mapped data.
#[derive(Clone, Debug)]
pub struct RelayLayout {
    /// Local Z extent.
    pub z: u32,
    /// Fabric radii (x, y) and the in-core z radius.
    pub radius: (usize, usize, usize),
    /// Element type.
    pub dtype: Dtype,
    /// Per-tap coefficient columns (`z` words each, tap order); empty when
    /// constants live in registers.
    pub coefvecs: Vec<u32>,
    /// Zero-padded iterate: `z + 2·rz` words, live data at `[rz, rz+z)`.
    pub vpad: u32,
    /// Result vector `u`, `z` words.
    pub u: u32,
    /// Neighbor-column buffers `bufs[dir][dist−1]`, each `z` words;
    /// `bufs[XP]`/`bufs[XM]` have `rx` entries, `bufs[YP]`/`bufs[YM]` `ry`.
    pub bufs: [Vec<u32>; 4],
}

impl RelayLayout {
    /// Allocates the layout (coefficient columns, padded iterate, result,
    /// then XP/XM/YP/YM buffers in that order).
    ///
    /// # Panics
    /// Panics on SRAM exhaustion; [`crate::plan()`] rejects such specs first.
    pub fn alloc(
        tile: &mut Tile,
        z: u32,
        ncoefvecs: usize,
        (rx, ry, rz): (usize, usize, usize),
        dtype: Dtype,
    ) -> RelayLayout {
        let mut coefvecs = Vec::with_capacity(ncoefvecs);
        for _ in 0..ncoefvecs {
            coefvecs.push(tile.mem.alloc_vec(z, dtype).expect("SRAM: relay coefficients"));
        }
        let vpad = tile.mem.alloc_vec(z + 2 * rz as u32, dtype).expect("SRAM: relay vpad");
        let u = tile.mem.alloc_vec(z, dtype).expect("SRAM: relay u");
        let mut bufs: [Vec<u32>; 4] = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        for (dir, buf) in bufs.iter_mut().enumerate() {
            let depth = if dir < 2 { rx } else { ry };
            for _ in 0..depth {
                buf.push(tile.mem.alloc_vec(z, dtype).expect("SRAM: relay buffer"));
            }
        }
        RelayLayout { z, radius: (rx, ry, rz), dtype, coefvecs, vpad, u, bufs }
    }

    /// Base address of the live (unpadded) part of `v`.
    pub fn v_live(&self) -> u32 {
        self.vpad + self.dtype.bytes() * self.radius.2 as u32
    }
}

/// Relay routing for a `w × h` region at the fabric origin: each direction
/// color hops exactly one tile (ramp → neighbor port, neighbor port →
/// ramp), and the per-round re-send extends the reach. Axes the spec never
/// reaches along (`rx == 0` / `ry == 0`) get no routes at all — a route
/// delivering to a ramp nobody reads is a dead delivery the lint rejects.
pub fn configure_relay_routes(fabric: &mut Fabric, w: usize, h: usize, rx: usize, ry: usize) {
    for y in 0..h {
        for x in 0..w {
            if rx > 0 {
                if x + 1 < w {
                    fabric.set_route(x, y, Port::Ramp, RELAY_E, &[Port::East]);
                    fabric.set_route(x, y, Port::East, RELAY_W, &[Port::Ramp]);
                }
                if x > 0 {
                    fabric.set_route(x, y, Port::Ramp, RELAY_W, &[Port::West]);
                    fabric.set_route(x, y, Port::West, RELAY_E, &[Port::Ramp]);
                }
            }
            if ry > 0 {
                if y + 1 < h {
                    fabric.set_route(x, y, Port::Ramp, RELAY_S, &[Port::South]);
                    fabric.set_route(x, y, Port::South, RELAY_N, &[Port::Ramp]);
                }
                if y > 0 {
                    fabric.set_route(x, y, Port::Ramp, RELAY_N, &[Port::North]);
                    fabric.set_route(x, y, Port::North, RELAY_S, &[Port::Ramp]);
                }
            }
        }
    }
}

/// Loads a tile's per-cell coefficient columns (tap order) from the `f64`
/// matrix, a missing band as zeros. No-op when the layout keeps constants
/// in registers.
pub fn load_relay_coefficients(
    tile: &mut Tile,
    layout: &RelayLayout,
    spec: &StencilSpec,
    a: &DiaMatrix<f64>,
    x: usize,
    y: usize,
) {
    if layout.coefvecs.is_empty() {
        return;
    }
    let z = layout.z as usize;
    let base = a.mesh().idx(x, y, 0);
    let zeros = vec![0.0; z];
    for (o, t) in spec.taps.iter().enumerate() {
        let col = a.band_of(t.off).map_or(&zeros[..], |band| &band[base..base + z]);
        crate::block2d::store_scalar_slice(tile, layout.coefvecs[o], col, layout.dtype);
    }
}

/// Builds one tile's relay program: `max(rx, ry)` forwarding rounds, a
/// barrier between consecutive rounds, then the tap-order compute task.
/// Marks the entry task (round 1, or the compute task when no rounds exist)
/// and returns it; activate it to start one apply.
pub fn build_relay_tile(
    tile: &mut Tile,
    x: usize,
    y: usize,
    w: usize,
    h: usize,
    layout: &RelayLayout,
    spec: &StencilSpec,
) -> TaskId {
    let z = layout.z;
    let (rx, ry, rz) = layout.radius;
    let dt = layout.dtype;
    let esz = dt.bytes();
    let rounds = rx.max(ry);
    let use_regs = relay_uses_registers(spec);
    let consts = distinct_consts(spec);
    let reg_of = |c: f32| -> Reg {
        CONST_REG_BASE + consts.iter().position(|s| s.to_bits() == c.to_bits()).unwrap() as Reg
    };

    let core = &mut tile.core;

    // --- Compute task (created first; the last round activates it). ---
    let mut cbody: Vec<Stmt> = Vec::new();
    if use_regs {
        for (i, &c) in consts.iter().enumerate() {
            cbody.push(Stmt::SetReg { reg: CONST_REG_BASE + i as Reg, value: c });
        }
    }
    for (o, t) in spec.taps.iter().enumerate() {
        // Source column for this tap: a window of the padded local column
        // for z taps (pads read zero), a neighbor buffer for x/y taps
        // (absent neighbors read an all-zero buffer).
        let src_addr = if t.off.dx > 0 {
            layout.bufs[XP][t.off.dx as usize - 1]
        } else if t.off.dx < 0 {
            layout.bufs[XM][(-t.off.dx) as usize - 1]
        } else if t.off.dy > 0 {
            layout.bufs[YP][t.off.dy as usize - 1]
        } else if t.off.dy < 0 {
            layout.bufs[YM][(-t.off.dy) as usize - 1]
        } else {
            layout.vpad + esz * (rz as i64 + t.off.dz as i64) as u32
        };
        let d_src = core.add_dsr(t_mem(src_addr, z, dt));
        let d_u = core.add_dsr(t_mem(layout.u, z, dt));
        let first = o == 0;
        let op = match (use_regs, first, &t.coef) {
            (true, true, CoefKind::Const(c)) => {
                cbody.push(Stmt::Exec(TensorInstr {
                    op: Op::Scale { scalar: reg_of(*c as f32) },
                    dst: Some(d_u),
                    a: Some(d_src),
                    b: None,
                }));
                continue;
            }
            (true, false, CoefKind::Const(c)) => {
                cbody.push(Stmt::Exec(TensorInstr {
                    op: Op::Axpy { scalar: reg_of(*c as f32) },
                    dst: Some(d_u),
                    a: Some(d_src),
                    b: None,
                }));
                continue;
            }
            (_, true, _) => Op::Mul,
            (_, false, _) => Op::FmaAssign,
        };
        let d_coef = core.add_dsr(t_mem(layout.coefvecs[o], z, dt));
        cbody.push(Stmt::Exec(TensorInstr { op, dst: Some(d_u), a: Some(d_coef), b: Some(d_src) }));
    }
    let compute = core.add_task(Task::new("dsl-compute", cbody));

    // --- Forwarding rounds, built last-to-first so each can name its
    // successor. Round d (1-based) sends the column that originated d−1
    // hops away and receives the column from d hops away. ---
    let mut next: TaskId = compute;
    for d in (1..=rounds).rev() {
        // (slot, color, src, dst): sends use slots 0–3, receives 4–7.
        let mut sends: Vec<(u8, Color, u32)> = Vec::new();
        let mut recvs: Vec<(u8, Color, u32)> = Vec::new();
        let from_prev = |dir: usize| layout.bufs[dir][d - 2];
        if d <= rx {
            // Eastward: the east neighbor needs the column from x+1−d.
            if x + 1 < w && x >= d - 1 {
                let src = if d == 1 { layout.v_live() } else { from_prev(XM) };
                sends.push((0, RELAY_E, src));
            }
            // Westward: the west neighbor needs the column from x−1+d.
            if x > 0 && x + (d - 1) < w {
                let src = if d == 1 { layout.v_live() } else { from_prev(XP) };
                sends.push((1, RELAY_W, src));
            }
            if x >= d {
                recvs.push((4, RELAY_E, layout.bufs[XM][d - 1]));
            }
            if x + d < w {
                recvs.push((5, RELAY_W, layout.bufs[XP][d - 1]));
            }
        }
        if d <= ry {
            if y + 1 < h && y >= d - 1 {
                let src = if d == 1 { layout.v_live() } else { from_prev(YM) };
                sends.push((2, RELAY_S, src));
            }
            if y > 0 && y + (d - 1) < h {
                let src = if d == 1 { layout.v_live() } else { from_prev(YP) };
                sends.push((3, RELAY_N, src));
            }
            if y >= d {
                recvs.push((6, RELAY_S, layout.bufs[YM][d - 1]));
            }
            if y + d < h {
                recvs.push((7, RELAY_N, layout.bufs[YP][d - 1]));
            }
        }

        // Completion chain over this round's background threads, the same
        // two-way-barrier idiom as the Z-column kernel; the last barrier
        // activates the next round (or the compute task).
        let nlaunch = sends.len() + recvs.len();
        let chain = barrier_chain(core, "dsl-relay-barrier", nlaunch, Some(next));
        let mut body: Vec<Stmt> = Vec::new();
        for (k, &(slot, color, src)) in sends.iter().enumerate() {
            send(core, &mut body, slot, t_mem(src, z, dt), color, chain.trigger(k));
        }
        for (k, &(slot, color, dst)) in recvs.iter().enumerate() {
            let done = chain.trigger(sends.len() + k);
            recv(core, &mut body, slot, color, Op::Copy, t_mem(dst, z, dt), done);
        }
        if nlaunch == 0 {
            body.push(Stmt::TaskCtl { task: next, action: TaskAction::Activate });
        }
        // Task names are static; rounds are capped at ROUTABLE_RADIUS = 4.
        const ROUND_NAMES: [&str; 4] = ["dsl-relay-1", "dsl-relay-2", "dsl-relay-3", "dsl-relay-4"];
        next = core.add_task(Task::new(ROUND_NAMES[d - 1], body));
    }

    core.mark_entry(next);
    next
}
