//! The per-tile half of program construction: the one SRAM allocator and
//! the one emitter that turns kernel *values* into DSRs and statements.
//!
//! "The kernel operations in the algorithm are sparse matrix - dense vector
//! multiply (SpMV), AXPY ... and inner product." AXPYs "operate on
//! core-local fp16 data and use the four-way SIMD capability"; the dot uses
//! the mixed-precision inner-product instruction. What each phase task *is*
//! lives in its recurrence's phase table ([`crate::krylov`]) as a body of
//! `Kernel`s; `TileMap::emit` alone makes those program bytes, and
//! `launched` turns a background row's body into threads.

use crate::krylov::{Addrs, Kernel, Sum, V};
use std::fmt::Debug;
use wse_arch::core::Core;
use wse_arch::dsr::mk;
use wse_arch::instr::{Op, RegOp, Stmt, TensorInstr};
use wse_arch::types::{Dtype, Reg, NUM_THREADS};
use wse_arch::Tile;

/// The thread slot of a background row's first tensor instruction; each
/// further one takes the next. A background row runs only under a
/// reduction, while no SpMV (slots 0–3, 5, 6) or seam halo (7, 8) thread
/// is live.
const BACKGROUND_SLOT: u8 = 4;

/// A background row's task priority: above the round's tasks (0), so the
/// row launches before a round task takes the main thread and blocks on
/// its receive.
pub(crate) const BACKGROUND_PRIORITY: u8 = 1;

/// `body` with each tensor instruction launched as a background thread in
/// a slot of its own, from [`BACKGROUND_SLOT`] up; the task retires once
/// its control statements have run, and the threads share the datapath
/// with whatever task runs next.
pub(crate) fn launched(body: Vec<Stmt>) -> Vec<Stmt> {
    let mut slot = BACKGROUND_SLOT;
    let launch = |stmt| match stmt {
        Stmt::Exec(instr) => {
            assert!(
                (slot as usize) < NUM_THREADS,
                "a background row needs a thread per instruction"
            );
            slot += 1;
            Stmt::Launch { slot: slot - 1, instr, on_complete: None }
        }
        stmt => stmt,
    };
    body.into_iter().map(launch).collect()
}

/// The one SRAM allocation site of the solver builders: `len` elements of
/// type `ty` for `what` on the tile at `at`. Panics when the tile is out of
/// SRAM (too large a z, usually), naming all of that and the bytes left.
pub(crate) fn alloc(
    tile: &mut Tile,
    at: (usize, usize),
    what: impl Debug,
    len: u32,
    ty: Dtype,
) -> u32 {
    tile.mem.alloc_vec(len, ty).unwrap_or_else(|_| {
        let (need, free) = (len * ty.bytes(), tile.mem.bytes_free());
        panic!("SRAM: {what:?} on tile {at:?} needs {need} B, {free} B free")
    })
}

/// Where one tile's vectors live, as the emitter addresses them: every
/// vector is `rows` contiguous slices of `len` fp16 words, slice `i` of
/// vector `v` at byte address `at[v] + i · stride[v]`.
pub(crate) struct TileMap {
    pub(crate) at: Addrs,
    pub(crate) stride: Addrs,
    pub(crate) rows: u32,
    pub(crate) len: u32,
}

impl TileMap {
    /// §IV.1: every vector is one contiguous z-column.
    pub(crate) fn column(at: Addrs, z: u32) -> TileMap {
        TileMap { at, stride: [0; V::COUNT], rows: 1, len: z }
    }

    /// Emits one phase task's body: allocates its DSRs on `core` (slice by
    /// slice, in the order each kernel's variant documents — DSR ids are
    /// program bytes) and returns its statements. A z-column is the
    /// one-slice case of the block's row-wise expansion. `acc` is the
    /// recurrence's local dot accumulator.
    pub(crate) fn emit(&self, core: &mut Core, body: &[Kernel], acc: Reg) -> Vec<Stmt> {
        let rows = self.rows as usize;
        let stmts = |kernel: &Kernel| match *kernel {
            Kernel::Dot(_, _, Sum::Rearmed(_)) => 2 + 3 * rows,
            Kernel::Dot(_, _, Sum::Acc) => 1 + rows,
            Kernel::Dot(..) => 2 + rows,
            Kernel::AxpySourcesFirst(each) => each.len() * rows,
            Kernel::Xpay(..) | Kernel::Axpy(..) => rows,
            Kernel::Arith(..) | Kernel::Set(..) => 1,
        };
        let exact = body.iter().map(stmts).sum();
        let mut out = Vec::with_capacity(exact);
        let slice = |v: V, i: u32| {
            mk::tensor16(self.at[v as usize] + i * self.stride[v as usize], self.len)
        };
        let exec = |op, dst, a, b| Stmt::Exec(TensorInstr { op, dst, a, b });
        let axpy = |scalar, dst, a| exec(Op::Axpy { scalar }, Some(dst), Some(a), None);
        for &kernel in body {
            match kernel {
                Kernel::Dot(a, b, into) => {
                    out.push(Stmt::SetReg { reg: acc, value: 0.0 });
                    for i in 0..self.rows {
                        let (da, db) = (core.add_dsr(slice(a, i)), core.add_dsr(slice(b, i)));
                        if let Sum::Rearmed(_) = into {
                            out.push(Stmt::InitDsr { dsr: da, desc: slice(a, i) });
                            out.push(Stmt::InitDsr { dsr: db, desc: slice(b, i) });
                        }
                        out.push(exec(Op::MacReg { acc }, None, Some(da), Some(db)));
                    }
                    out.extend(match into {
                        Sum::Rearmed(reg) | Sum::Plain(reg) => {
                            Some(Stmt::RegArith { op: RegOp::Mov, dst: reg, a: acc, b: acc })
                        }
                        Sum::Lane(j) => {
                            let lane = mk::tensor32(self.at[V::Pay as usize] + 4 * j, 1);
                            Some(exec(
                                Op::StoreReg { reg: acc },
                                Some(core.add_dsr(lane)),
                                None,
                                None,
                            ))
                        }
                        Sum::Acc => None,
                    });
                }
                Kernel::Xpay(scalar, dst, a, b) => {
                    for i in 0..self.rows {
                        let [dst, a, b] = [dst, a, b].map(|v| Some(core.add_dsr(slice(v, i))));
                        out.push(exec(Op::Xpay { scalar }, dst, a, b));
                    }
                }
                Kernel::Axpy(scalar, dst, a) => {
                    for i in 0..self.rows {
                        let [dst, a] = [dst, a].map(|v| core.add_dsr(slice(v, i)));
                        out.push(axpy(scalar, dst, a));
                    }
                }
                Kernel::AxpySourcesFirst(each) => {
                    for i in 0..self.rows {
                        let sources: Vec<_> =
                            each.iter().map(|&(_, _, a)| core.add_dsr(slice(a, i))).collect();
                        for (&(scalar, dst, _), a) in each.iter().zip(sources) {
                            out.push(axpy(scalar, core.add_dsr(slice(dst, i)), a));
                        }
                    }
                }
                Kernel::Arith(op, dst, a, b) => out.push(Stmt::RegArith { op, dst, a, b }),
                Kernel::Set(reg, value) => out.push(Stmt::SetReg { reg, value }),
            }
        }
        debug_assert_eq!(out.len(), exact, "a task body is allocated once, at its size");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wse_arch::instr::Task;
    use wse_arch::Memory;
    use wse_float::F16;

    /// Runs `body` twice on a tile holding the vectors `x`, `p`, `q`, with
    /// `r1 = −0.5` and `r2 = 2`; returns `x` and the core.
    fn run_twice(x: &[f64], p: &[f64], q: &[f64], body: &[Kernel]) -> (Vec<f64>, Core) {
        let (mut mem, mut core, mut at) = (Memory::new(), Core::new(), [0; V::COUNT]);
        for (v, data) in [(V::X, x), (V::P, p), (V::Q, q)] {
            let data: Vec<F16> = data.iter().map(|&x| F16::from_f64(x)).collect();
            at[v as usize] = mem.alloc_vec(data.len() as u32, Dtype::F16).unwrap();
            mem.store_f16_slice(at[v as usize], &data);
        }
        (core.regs[1], core.regs[2]) = (-0.5, 2.0);
        let body = TileMap::column(at, x.len() as u32).emit(&mut core, body, 20);
        let task = core.add_task(Task::new("kernel", body));
        for _ in 0..2 {
            core.activate(task);
            (0..20).for_each(|cycle| core.step(&mut mem, cycle));
            assert!(core.is_quiescent());
        }
        let x = mem.load_f16_slice(at[V::X as usize], x.len());
        (x.iter().map(|v| v.to_f64()).collect(), core)
    }

    #[test]
    fn axpy_accumulates_in_either_dsr_order() {
        for kernel in [Kernel::Axpy(2, V::X, V::P), Kernel::AxpySourcesFirst(&[(2, V::X, V::P)])] {
            let (x, _) = run_twice(&[10.0; 3], &[1.0, 2.0, 3.0], &[0.0; 3], &[kernel]);
            assert_eq!(x, [14.0, 18.0, 22.0], "{kernel:?}"); // x += 2 p, twice
        }
    }

    #[test]
    fn xpay_writes_dst() {
        let xpay = Kernel::Xpay(1, V::X, V::P, V::Q);
        let (x, _) = run_twice(&[0.0; 2], &[1.0, 1.0], &[4.0, 8.0], &[xpay]);
        assert_eq!(x, [-1.0, -3.0]); // 1 − 0.5·4, 1 − 0.5·8
    }

    #[test]
    fn every_dot_flavour_can_be_rerun() {
        // The second run must not double-count: SetReg clears the
        // accumulator, and the cursors rewind (re-armed or not).
        for into in [Sum::Rearmed(21), Sum::Plain(21)] {
            let dot = Kernel::Dot(V::X, V::X, into);
            let (_, core) = run_twice(&[1.0, 2.0, 3.0, 4.0], &[0.0; 4], &[0.0; 4], &[dot]);
            assert_eq!(core.regs[21], 30.0, "{into:?}");
        }
    }
}
