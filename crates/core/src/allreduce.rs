//! The scalar AllReduce of Fig. 6.
//!
//! "The reduction is performed in parallel along fabric rows, then along two
//! central columns. ... We use two cores in the center, each receiving input
//! from one direction at the rate of one datum per cycle. ... the partial
//! sums are reduced along two columns towards the central four cores that
//! finally reduce their content to a single core. ... The broadcast is done
//! in reverse, sending the result along two central columns and then across
//! all rows."
//!
//! All arithmetic is fp32 ("we do the AllReduce at 32-bit precision"). The
//! single-cycle-per-hop fabric makes the whole operation complete "in a
//! cycle count only about 10% greater than the diameter of the system" —
//! the latency tests below check exactly that property. The order in which
//! the fp32 sums associate depends on the fabric's history (a fabric that
//! has already run a reduction can round differently from a fresh one on
//! the same inputs), so results are bit-identical only between runs with
//! identical histories.

use wse_arch::dsr::mk;
use wse_arch::fabric::STALL_WINDOW;
use wse_arch::instr::{Op, RegOp, Stmt, Task, TensorInstr};
use wse_arch::types::{Color, DsrId, Port, Reg, TaskId};
use wse_arch::{Core, Fabric};

/// Virtual channels used by the AllReduce, as offsets from a configurable
/// base (disjoint instances let several scalars reduce **concurrently** —
/// the communication-fusion variant merges the ω-step's two reductions into
/// one round this way). The default base is 10, clear of the SpMV's 0..5.
pub mod colors {
    /// Default color base (the whole-wafer allocation lives in
    /// [`wse_dsl::colors`]).
    pub const DEFAULT_BASE: u8 = wse_dsl::colors::ALLREDUCE_BASE;
    /// Colors consumed per instance.
    pub const SPAN: u8 = wse_dsl::colors::ALLREDUCE_SPAN;
    /// Left half-rows flowing east toward the center-left column.
    pub const ROW_E: u8 = 0;
    /// Right half-rows flowing west toward the center-right column.
    pub const ROW_W: u8 = 1;
    /// Upper half of the central columns flowing south.
    pub const COL_S: u8 = 2;
    /// Lower half of the central columns flowing north.
    pub const COL_N: u8 = 3;
    /// The final 4:1 reduction to the root.
    pub const FIN: u8 = 4;
    /// Result broadcast.
    pub const BC: u8 = 5;
}

/// The geometry of one Fig. 6 tree over a `w × h` region: the two central
/// columns the rows reduce into and the two central rows of those columns.
/// The root is `(cx0, cy0)`.
#[derive(Clone, Copy)]
struct Tree {
    w: usize,
    h: usize,
    cx0: usize,
    cx1: usize,
    cy0: usize,
    cy1: usize,
}

/// A built AllReduce program over the `w × h` region at the fabric origin
/// (a region blitted elsewhere carries it along: routing and tasks are
/// per-tile state). The handle is `Clone`.
#[derive(Clone)]
pub struct AllReduce {
    tree: Tree,
    /// Input register (each core's contribution).
    pub r_in: Reg,
    /// Output register (the global sum, on every core).
    pub r_out: Reg,
    /// Scratch accumulator register.
    pub r_acc: Reg,
    base: u8,
    tasks: Vec<TaskId>,
}

impl AllReduce {
    /// Builds the routing and per-tile tasks. Requires `w ≥ 2` and `h ≥ 2`.
    ///
    /// # Panics
    /// Panics if the region is smaller than 2×2 or exceeds the fabric.
    pub fn build(
        fabric: &mut Fabric,
        w: usize,
        h: usize,
        r_in: Reg,
        r_out: Reg,
        r_acc: Reg,
    ) -> AllReduce {
        Self::build_with_base(fabric, w, h, r_in, r_out, r_acc, colors::DEFAULT_BASE)
    }

    /// Like [`AllReduce::build`], on a custom virtual-channel base so that
    /// several instances can coexist and run concurrently.
    ///
    /// # Panics
    /// Panics if the region is smaller than 2×2 or exceeds the fabric.
    pub fn build_with_base(
        fabric: &mut Fabric,
        w: usize,
        h: usize,
        r_in: Reg,
        r_out: Reg,
        r_acc: Reg,
        base: u8,
    ) -> AllReduce {
        let mut net = Self::routed(fabric, w, h, r_in, r_out, r_acc, base);
        net.tasks.reserve(w * h);
        for y in 0..h {
            for x in 0..w {
                let (mut body, root_tail, recv) = net.tile_body_parts(fabric, x, y);
                body.extend(root_tail);
                body.extend(recv);
                let core = &mut fabric.tile_mut(x, y).core;
                let id = core.add_task(Task::new("allreduce", body));
                core.mark_entry(id);
                net.tasks.push(id);
            }
        }
        net
    }

    /// The network with its tree geometry derived and its routes set, and
    /// no tasks yet: what [`AllReduce`] and [`AllReduceSplit`] both start
    /// from.
    ///
    /// # Panics
    /// Panics if the region is smaller than 2×2 or exceeds the fabric.
    fn routed(
        fabric: &mut Fabric,
        w: usize,
        h: usize,
        r_in: Reg,
        r_out: Reg,
        r_acc: Reg,
        base: u8,
    ) -> AllReduce {
        assert!(w >= 2 && h >= 2, "AllReduce needs at least a 2x2 region");
        assert!(w <= fabric.width() && h <= fabric.height(), "region exceeds fabric");
        let (cx0, cy0) = ((w - 1) / 2, (h - 1) / 2);
        let tree = Tree { w, h, cx0, cx1: cx0 + 1, cy0, cy1: cy0 + 1 };
        let net = AllReduce { tree, r_in, r_out, r_acc, base, tasks: Vec::new() };
        net.configure_routes(fabric);
        net
    }

    /// The task id to activate on tile `(x, y)` (for phase chaining).
    pub fn task(&self, x: usize, y: usize) -> TaskId {
        self.tasks[y * self.tree.w + x]
    }

    fn configure_routes(&self, fabric: &mut Fabric) {
        let Tree { w, h, cx0, cx1, cy0, cy1 } = self.tree;
        let base = self.base;
        let (row_e, row_w, col_s, col_n, fin, bc) = (
            base + colors::ROW_E,
            base + colors::ROW_W,
            base + colors::COL_S,
            base + colors::COL_N,
            base + colors::FIN,
            base + colors::BC,
        );
        let mut sr = |x: usize, y: usize, from: Port, color: u8, fan: &[Port]| {
            fabric.set_route(x, y, from, color, fan);
        };
        // --- Row reduction. ---
        for y in 0..h {
            for x in 0..cx0 {
                sr(x, y, Port::Ramp, row_e, &[Port::East]);
                if x > 0 {
                    sr(x, y, Port::West, row_e, &[Port::East]);
                }
            }
            if cx0 > 0 {
                sr(cx0, y, Port::West, row_e, &[Port::Ramp]);
            }
            for x in cx1 + 1..w {
                sr(x, y, Port::Ramp, row_w, &[Port::West]);
                if x < w - 1 {
                    sr(x, y, Port::East, row_w, &[Port::West]);
                }
            }
            if cx1 < w - 1 {
                sr(cx1, y, Port::East, row_w, &[Port::Ramp]);
            }
        }
        // --- Column reduction on the two central columns. ---
        for &cx in &[cx0, cx1] {
            for y in 0..cy0 {
                sr(cx, y, Port::Ramp, col_s, &[Port::South]);
                if y > 0 {
                    sr(cx, y, Port::North, col_s, &[Port::South]);
                }
            }
            if cy0 > 0 {
                sr(cx, cy0, Port::North, col_s, &[Port::Ramp]);
            }
            for y in cy1 + 1..h {
                sr(cx, y, Port::Ramp, col_n, &[Port::North]);
                if y < h - 1 {
                    sr(cx, y, Port::South, col_n, &[Port::North]);
                }
            }
            if cy1 < h - 1 {
                sr(cx, cy1, Port::South, col_n, &[Port::Ramp]);
            }
        }
        // --- 4:1 to the root (cx0, cy0). ---
        sr(cx1, cy0, Port::Ramp, fin, &[Port::West]);
        sr(cx0, cy0, Port::East, fin, &[Port::Ramp]);
        sr(cx1, cy1, Port::Ramp, fin, &[Port::West]);
        sr(cx0, cy1, Port::East, fin, &[Port::North]);
        sr(cx0, cy1, Port::Ramp, fin, &[Port::North]);
        sr(cx0, cy0, Port::South, fin, &[Port::Ramp]);
        // --- Broadcast from the root. ---
        {
            let mut fan = vec![Port::East, Port::South];
            if cx0 > 0 {
                fan.push(Port::West);
            }
            if cy0 > 0 {
                fan.push(Port::North);
            }
            sr(cx0, cy0, Port::Ramp, bc, &fan);
        }
        {
            // (cx1, cy0) relays vertically and into its row's right segment.
            let mut fan = vec![Port::Ramp, Port::South];
            if cy0 > 0 {
                fan.push(Port::North);
            }
            if cx1 < w - 1 {
                fan.push(Port::East);
            }
            sr(cx1, cy0, Port::West, bc, &fan);
        }
        // Central columns relay away from the root and into their rows.
        for (cx, row_port, row_exists) in
            [(cx0, Port::West, cx0 > 0), (cx1, Port::East, cx1 < w - 1)]
        {
            for y in 0..h {
                if y == cy0 {
                    continue; // root / relay handled above
                }
                let from = if y < cy0 { Port::South } else { Port::North };
                let mut fan = vec![Port::Ramp];
                if y < cy0 && y > 0 {
                    fan.push(Port::North);
                }
                if y > cy0 && y < h - 1 {
                    fan.push(Port::South);
                }
                if row_exists {
                    fan.push(row_port);
                }
                sr(cx, y, from, bc, &fan);
            }
        }
        // Row tiles outside the central columns relay outward.
        for y in 0..h {
            for x in 0..cx0 {
                let mut fan = vec![Port::Ramp];
                if x > 0 {
                    fan.push(Port::West);
                }
                sr(x, y, Port::East, bc, &fan);
            }
            for x in cx1 + 1..w {
                let mut fan = vec![Port::Ramp];
                if x < w - 1 {
                    fan.push(Port::East);
                }
                sr(x, y, Port::West, bc, &fan);
            }
        }
    }

    /// Builds one tile's statements, split into three parts: the *upstream
    /// reduction work* (sends and partial sums, ending with the wafer-local
    /// total in the root's `r_acc`), the *root's broadcast transmit*, and
    /// the *broadcast receive*. Fusing lets two instances interleave (both
    /// upstream parts before either blocking receive); the hierarchical
    /// multi-wafer AllReduce instead cuts between the reduction and the
    /// broadcast so the host can combine the per-wafer partial sums.
    fn tile_body_parts(
        &self,
        fabric: &mut Fabric,
        x: usize,
        y: usize,
    ) -> (Vec<Stmt>, Vec<Stmt>, Vec<Stmt>) {
        let Tree { w, h, cx0, cx1, cy0, cy1 } = self.tree;
        let (base, r_in, r_out, r_acc) = (self.base, self.r_in, self.r_out, self.r_acc);
        let (row_e, row_w, col_s, col_n, fin, bc) = (
            base + colors::ROW_E,
            base + colors::ROW_W,
            base + colors::COL_S,
            base + colors::COL_N,
            base + colors::FIN,
            base + colors::BC,
        );
        let core = &mut fabric.tile_mut(x, y).core;
        let mut body = Vec::new();
        let in_central_col = x == cx0 || x == cx1;

        if !in_central_col {
            // Plain tile: contribute to the row reduction, then await the
            // broadcast.
            let color = if x < cx0 { row_e } else { row_w };
            let d_tx = core.add_dsr(mk::tx32(color, 1));
            body.push(Stmt::InitDsr { dsr: d_tx, desc: mk::tx32(color, 1) });
            body.push(Stmt::Exec(TensorInstr {
                op: Op::StoreReg { reg: r_in },
                dst: Some(d_tx),
                a: None,
                b: None,
            }));
        } else {
            // Row-center tile: accumulate own value + the half-row stream
            // (absent when this center column sits on the fabric edge).
            let (color, len) = if x == cx0 { (row_e, cx0) } else { (row_w, w - 1 - cx1) };
            body.push(Stmt::RegArith { op: RegOp::Mov, dst: r_acc, a: r_in, b: r_in });
            if len > 0 {
                let d_rx = core.add_dsr(mk::rx32(color, len as u32));
                body.push(Stmt::InitDsr { dsr: d_rx, desc: mk::rx32(color, len as u32) });
                body.push(Stmt::Exec(TensorInstr {
                    op: Op::SumReg { acc: r_acc },
                    dst: None,
                    a: Some(d_rx),
                    b: None,
                }));
            }

            if y != cy0 && y != cy1 {
                // Column contributor.
                let color = if y < cy0 { col_s } else { col_n };
                let d_tx = core.add_dsr(mk::tx32(color, 1));
                body.push(Stmt::InitDsr { dsr: d_tx, desc: mk::tx32(color, 1) });
                body.push(Stmt::Exec(TensorInstr {
                    op: Op::StoreReg { reg: r_acc },
                    dst: Some(d_tx),
                    a: None,
                    b: None,
                }));
            } else {
                // One of the central four: fold in the half-column stream
                // (absent when the center row sits on the fabric edge).
                let (color, len) = if y == cy0 { (col_s, cy0) } else { (col_n, h - 1 - cy1) };
                if len > 0 {
                    let d_rx = core.add_dsr(mk::rx32(color, len as u32));
                    body.push(Stmt::InitDsr { dsr: d_rx, desc: mk::rx32(color, len as u32) });
                    body.push(Stmt::Exec(TensorInstr {
                        op: Op::SumReg { acc: r_acc },
                        dst: None,
                        a: Some(d_rx),
                        b: None,
                    }));
                }

                let is_root = x == cx0 && y == cy0;
                if is_root {
                    let d_rx = core.add_dsr(mk::rx32(fin, 3));
                    body.push(Stmt::InitDsr { dsr: d_rx, desc: mk::rx32(fin, 3) });
                    body.push(Stmt::Exec(TensorInstr {
                        op: Op::SumReg { acc: r_acc },
                        dst: None,
                        a: Some(d_rx),
                        b: None,
                    }));
                    let d_tx = core.add_dsr(mk::tx32(bc, 1));
                    let root_tail = vec![
                        Stmt::InitDsr { dsr: d_tx, desc: mk::tx32(bc, 1) },
                        Stmt::Exec(TensorInstr {
                            op: Op::StoreReg { reg: r_acc },
                            dst: Some(d_tx),
                            a: None,
                            b: None,
                        }),
                        Stmt::RegArith { op: RegOp::Mov, dst: r_out, a: r_acc, b: r_acc },
                    ];
                    return (body, root_tail, Vec::new()); // the root keeps its own copy
                }
                let d_tx = core.add_dsr(mk::tx32(fin, 1));
                body.push(Stmt::InitDsr { dsr: d_tx, desc: mk::tx32(fin, 1) });
                body.push(Stmt::Exec(TensorInstr {
                    op: Op::StoreReg { reg: r_acc },
                    dst: Some(d_tx),
                    a: None,
                    b: None,
                }));
            }
        }

        // Everyone except the root receives the broadcast — returned as the
        // separate blocking part.
        let d_bc = core.add_dsr(mk::rx32(bc, 1));
        let recv = vec![
            Stmt::InitDsr { dsr: d_bc, desc: mk::rx32(bc, 1) },
            Stmt::Exec(TensorInstr {
                op: Op::LoadReg { reg: r_out },
                dst: None,
                a: Some(d_bc),
                b: None,
            }),
        ];
        (body, Vec::new(), recv)
    }

    /// Builds a per-tile task that runs `self` and `other` **concurrently**:
    /// both instances' upstream work first, then both broadcast receives.
    /// Both instances must have been built over the same region.
    ///
    /// # Panics
    /// Panics if the regions differ.
    pub fn build_fused_task(
        &self,
        other: &AllReduce,
        fabric: &mut Fabric,
        x: usize,
        y: usize,
    ) -> TaskId {
        let dims = |net: &AllReduce| (net.tree.w, net.tree.h);
        assert_eq!(dims(self), dims(other), "regions must match");
        let (w1, t1, r1) = self.tile_body_parts(fabric, x, y);
        let (w2, t2, r2) = other.tile_body_parts(fabric, x, y);
        let mut body = w1;
        body.extend(t1);
        body.extend(w2);
        body.extend(t2);
        body.extend(r1);
        body.extend(r2);
        let core = &mut fabric.tile_mut(x, y).core;
        let id = core.add_task(Task::new("allreduce-fused", body));
        core.mark_entry(id);
        id
    }

    /// Host-driven execution: sets each tile's input register, activates
    /// every task, runs to quiescence, and reads back every tile's output
    /// register. Returns the per-tile results and the cycle count.
    ///
    /// # Panics
    /// Panics if `values.len() != w*h` or the fabric stalls.
    pub fn run(&self, fabric: &mut Fabric, values: &[f32]) -> (Vec<f32>, u64) {
        assert_eq!(values.len(), self.tree.w * self.tree.h, "one value per tile");
        for y in 0..self.tree.h {
            for x in 0..self.tree.w {
                let core = &mut fabric.tile_mut(x, y).core;
                core.regs[self.r_in as usize] = values[y * self.tree.w + x];
                core.activate(self.tasks[y * self.tree.w + x]);
            }
        }
        let cycles = fabric
            .run_watched(100_000, STALL_WINDOW)
            .unwrap_or_else(|e| panic!("allreduce stalled: {e}"));
        let mut out = Vec::with_capacity(values.len());
        for y in 0..self.tree.h {
            for x in 0..self.tree.w {
                out.push(fabric.tile(x, y).core.regs[self.r_out as usize]);
            }
        }
        (out, cycles)
    }
}

/// The hierarchical split of the AllReduce: the on-wafer fp32 reduction
/// tree and the broadcast are **separate tasks**, so a host-level combine
/// can run between them. After the reduce phase quiesces, the wafer-local
/// sum sits in the root tile's `r_acc`; the multi-wafer driver reads every
/// wafer's partial sum over the host interconnect, combines them in fp32,
/// writes the global sum back into each root's `r_acc`, and runs the
/// broadcast phase (root transmits `r_acc`, every other tile receives into
/// `r_out`). On a single wafer, reduce followed immediately by broadcast
/// is arithmetically identical to [`AllReduce`].
pub struct AllReduceSplit {
    w: usize,
    root: (usize, usize),
    /// Input register (each core's contribution).
    pub r_in: Reg,
    /// Output register (the global sum, on every core).
    pub r_out: Reg,
    /// Scratch accumulator; holds the wafer-local sum on the root between
    /// the two phases.
    pub r_acc: Reg,
    reduce: Vec<TaskId>,
    bcast: Vec<TaskId>,
}

impl AllReduceSplit {
    /// Builds the routing and the per-tile reduce/broadcast task pairs on
    /// the default virtual-channel base. Requires `w ≥ 2` and `h ≥ 2`.
    ///
    /// # Panics
    /// Panics if the region is smaller than 2×2 or exceeds the fabric.
    pub fn build(
        fabric: &mut Fabric,
        w: usize,
        h: usize,
        r_in: Reg,
        r_out: Reg,
        r_acc: Reg,
    ) -> AllReduceSplit {
        let net = AllReduce::routed(fabric, w, h, r_in, r_out, r_acc, colors::DEFAULT_BASE);
        let mut reduce = Vec::with_capacity(w * h);
        let mut bcast = Vec::with_capacity(w * h);
        for y in 0..h {
            for x in 0..w {
                let (up, root_tail, recv) = net.tile_body_parts(fabric, x, y);
                let core = &mut fabric.tile_mut(x, y).core;
                let red = core.add_task(Task::new("allreduce-reduce", up));
                core.mark_entry(red);
                reduce.push(red);
                let mut bc_body = root_tail;
                bc_body.extend(recv);
                let bc = core.add_task(Task::new("allreduce-bcast", bc_body));
                core.mark_entry(bc);
                bcast.push(bc);
            }
        }
        let root = (net.tree.cx0, net.tree.cy0);
        AllReduceSplit { w, root, r_in, r_out, r_acc, reduce, bcast }
    }

    /// The reduce-phase task to activate on tile `(x, y)`.
    pub fn reduce_task(&self, x: usize, y: usize) -> TaskId {
        self.reduce[y * self.w + x]
    }

    /// The broadcast-phase task to activate on tile `(x, y)`.
    pub fn bcast_task(&self, x: usize, y: usize) -> TaskId {
        self.bcast[y * self.w + x]
    }

    /// The root tile holding the wafer-local sum in `r_acc` after the
    /// reduce phase.
    pub fn root(&self) -> (usize, usize) {
        self.root
    }
}

/// Virtual channels for the [`ChainReduce`] vector AllReduce. These alias
/// the 2-D SpMV's halo colors (16..20), which is safe: the two programs are
/// never resident on the same fabric, and routes are per-tile.
pub mod chain_colors {
    /// Westward row chains (every row reduces toward `x = 0`).
    pub const ROW: u8 = 16;
    /// Northward column chain on `x = 0` (toward the root `(0, 0)`).
    pub const COL: u8 = 17;
    /// Result broadcast from the root.
    pub const BC: u8 = 18;
}

/// A **vector** AllReduce: element-wise sum of an `m`-word fp32 payload
/// resident at the same address `pay` on every tile, reduced to the root
/// tile `(0, 0)` by systolic chains (west along every row, then north along
/// column 0), plus a broadcast phase that streams a host-written reply from
/// the root to every tile's registers.
///
/// The scalar [`AllReduce`] tree cannot carry multi-word payloads — its
/// `SumReg` fan-in interleaves flits from several senders, which is fine for
/// commutative scalar accumulation but scrambles vector lanes. The chains
/// here have exactly one upstream neighbour per tile, so lanes stay
/// aligned: each relay computes `tx[i] = rx[i] + pay[i]` in lock-step.
///
/// This is the transport under the fused single-reduction BiCGStab: all of
/// an iteration's dot products ride one payload, the host combines the
/// per-wafer roots' partials over the host links (binomial tree), writes
/// the derived scalars back to each root, and the broadcast loads them into
/// every tile's registers — one host round-trip per solver iteration.
pub struct ChainReduce {
    w: usize,
    /// Byte address of the `m`-word fp32 payload on every tile. After the
    /// reduce phase, the root's copy holds the element-wise global sum.
    pub pay: u32,
    /// Payload length in fp32 words.
    pub m: u32,
    /// Byte address (root tile only) of the host-written broadcast source.
    pub bc_src: u32,
    reduce: Vec<TaskId>,
    bcast: Vec<TaskId>,
}

/// Appends tile `pos` of a `len`-tile systolic sum chain on `color` that
/// flows toward `pos = 0`: the far end sends its `m`-word payload at `pay`
/// (DSR `d_pay`), each middle relays `rx + pay`, and `pos = 0` folds the
/// stream into its payload.
fn chain_link(
    core: &mut Core,
    body: &mut Vec<Stmt>,
    d_pay: DsrId,
    (pay, m): (u32, u32),
    pos: usize,
    len: usize,
    color: Color,
) {
    body.push(Stmt::InitDsr { dsr: d_pay, desc: mk::tensor32(pay, m) });
    let tx = (pos > 0).then(|| core.add_dsr(mk::tx32(color, m)));
    let rx = (pos + 1 < len).then(|| core.add_dsr(mk::rx32(color, m)));
    body.extend(tx.map(|dsr| Stmt::InitDsr { dsr, desc: mk::tx32(color, m) }));
    body.extend(rx.map(|dsr| Stmt::InitDsr { dsr, desc: mk::rx32(color, m) }));
    let (op, dst, a, b) = match (tx, rx) {
        (Some(tx), None) => (Op::Copy, tx, d_pay, None),
        (Some(tx), Some(rx)) => (Op::Add, tx, rx, Some(d_pay)),
        (None, rx) => (Op::AddAssign, d_pay, rx.expect("a chain has two ends"), None),
    };
    body.push(Stmt::Exec(TensorInstr { op, dst: Some(dst), a: Some(a), b }));
}

impl ChainReduce {
    /// Builds routes and per-tile reduce/broadcast tasks over the `w × h`
    /// region at the fabric origin. `pay` is the payload address (same on
    /// every tile); `bc_src` is where the host writes the reply on the root
    /// before the broadcast phase; `bc_regs` lists the registers every tile
    /// loads from the reply stream, in stream order.
    ///
    /// # Panics
    /// Panics if the region is empty, exceeds the fabric, or `bc_regs` is
    /// empty.
    pub fn build(
        fabric: &mut Fabric,
        w: usize,
        h: usize,
        pay: u32,
        m: u32,
        bc_src: u32,
        bc_regs: &[Reg],
    ) -> ChainReduce {
        assert!(w >= 1 && h >= 1, "ChainReduce needs a non-empty region");
        assert!(w <= fabric.width() && h <= fabric.height(), "region exceeds fabric");
        assert!(!bc_regs.is_empty(), "broadcast payload must be non-empty");
        let nbc = bc_regs.len() as u32;

        // --- Routes. ---
        for y in 0..h {
            // Row chains flow west; each relay consumes at the ramp and
            // re-emits its partial from the ramp.
            if w > 1 {
                fabric.set_route(w - 1, y, Port::Ramp, chain_colors::ROW, &[Port::West]);
                for x in 1..w - 1 {
                    fabric.set_route(x, y, Port::East, chain_colors::ROW, &[Port::Ramp]);
                    fabric.set_route(x, y, Port::Ramp, chain_colors::ROW, &[Port::West]);
                }
                fabric.set_route(0, y, Port::East, chain_colors::ROW, &[Port::Ramp]);
            }
        }
        if h > 1 {
            fabric.set_route(0, h - 1, Port::Ramp, chain_colors::COL, &[Port::North]);
            for y in 1..h - 1 {
                fabric.set_route(0, y, Port::South, chain_colors::COL, &[Port::Ramp]);
                fabric.set_route(0, y, Port::Ramp, chain_colors::COL, &[Port::North]);
            }
            fabric.set_route(0, 0, Port::South, chain_colors::COL, &[Port::Ramp]);
        }
        // Broadcast: east along row 0, south down every column.
        {
            let mut fan = Vec::new();
            if w > 1 {
                fan.push(Port::East);
            }
            if h > 1 {
                fan.push(Port::South);
            }
            if !fan.is_empty() {
                fabric.set_route(0, 0, Port::Ramp, chain_colors::BC, &fan);
            }
        }
        for x in 1..w {
            let mut fan = vec![Port::Ramp];
            if x < w - 1 {
                fan.push(Port::East);
            }
            if h > 1 {
                fan.push(Port::South);
            }
            fabric.set_route(x, 0, Port::West, chain_colors::BC, &fan);
        }
        for y in 1..h {
            for x in 0..w {
                let mut fan = vec![Port::Ramp];
                if y < h - 1 {
                    fan.push(Port::South);
                }
                fabric.set_route(x, y, Port::North, chain_colors::BC, &fan);
            }
        }

        // --- Tasks. ---
        let mut reduce = Vec::with_capacity(w * h);
        let mut bcast = Vec::with_capacity(w * h);
        for y in 0..h {
            for x in 0..w {
                let core = &mut fabric.tile_mut(x, y).core;
                let d_pay = core.add_dsr(mk::tensor32(pay, m));
                let mut body = Vec::new();
                // Row segment, then the column segment on x = 0 (after the
                // row fold). The row's payload DSR exists even on a
                // one-column region.
                if w > 1 {
                    chain_link(core, &mut body, d_pay, (pay, m), x, w, chain_colors::ROW);
                }
                if x == 0 && h > 1 {
                    let d_pay = core.add_dsr(mk::tensor32(pay, m));
                    chain_link(core, &mut body, d_pay, (pay, m), y, h, chain_colors::COL);
                }
                let red = core.add_task(Task::new("chain-reduce", body));
                core.mark_entry(red);
                reduce.push(red);

                // Broadcast task: the root streams the host reply out and
                // loads its own registers from memory; everyone else loads
                // the registers straight off the stream, in order.
                let mut bc_body = Vec::new();
                if x == 0 && y == 0 {
                    if w > 1 || h > 1 {
                        let d_src = core.add_dsr(mk::tensor32(bc_src, nbc));
                        let d_tx = core.add_dsr(mk::tx32(chain_colors::BC, nbc));
                        bc_body.push(Stmt::InitDsr { dsr: d_src, desc: mk::tensor32(bc_src, nbc) });
                        bc_body.push(Stmt::InitDsr {
                            dsr: d_tx,
                            desc: mk::tx32(chain_colors::BC, nbc),
                        });
                        bc_body.push(Stmt::Exec(TensorInstr {
                            op: Op::Copy,
                            dst: Some(d_tx),
                            a: Some(d_src),
                            b: None,
                        }));
                    }
                    for (i, &reg) in bc_regs.iter().enumerate() {
                        let desc = mk::tensor32(bc_src + 4 * i as u32, 1);
                        let d = core.add_dsr(desc);
                        bc_body.push(Stmt::InitDsr { dsr: d, desc });
                        bc_body.push(Stmt::Exec(TensorInstr {
                            op: Op::LoadReg { reg },
                            dst: None,
                            a: Some(d),
                            b: None,
                        }));
                    }
                } else {
                    for &reg in bc_regs {
                        let desc = mk::rx32(chain_colors::BC, 1);
                        let d = core.add_dsr(desc);
                        bc_body.push(Stmt::InitDsr { dsr: d, desc });
                        bc_body.push(Stmt::Exec(TensorInstr {
                            op: Op::LoadReg { reg },
                            dst: None,
                            a: Some(d),
                            b: None,
                        }));
                    }
                }
                let bc = core.add_task(Task::new("chain-bcast", bc_body));
                core.mark_entry(bc);
                bcast.push(bc);
            }
        }
        ChainReduce { w, pay, m, bc_src, reduce, bcast }
    }

    /// The reduce-phase task to activate on tile `(x, y)`.
    pub fn reduce_task(&self, x: usize, y: usize) -> TaskId {
        self.reduce[y * self.w + x]
    }

    /// The broadcast-phase task to activate on tile `(x, y)`.
    pub fn bcast_task(&self, x: usize, y: usize) -> TaskId {
        self.bcast[y * self.w + x]
    }

    /// The root tile whose payload holds the reduced vector.
    pub fn root(&self) -> (usize, usize) {
        (0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const R_IN: Reg = 24;
    const R_OUT: Reg = 25;
    const R_ACC: Reg = 26;

    fn reduce(w: usize, h: usize, values: &[f32]) -> (Vec<f32>, u64) {
        let mut fabric = Fabric::new(w, h);
        let ar = AllReduce::build(&mut fabric, w, h, R_IN, R_OUT, R_ACC);
        ar.run(&mut fabric, values)
    }

    #[test]
    fn sums_ones_on_various_sizes() {
        for (w, h) in [(2, 2), (3, 3), (4, 4), (5, 3), (2, 7), (8, 8), (9, 5)] {
            let n = w * h;
            let (out, cycles) = reduce(w, h, &vec![1.0; n]);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, n as f32, "{w}x{h} tile {i} after {cycles} cycles");
            }
        }
    }

    #[test]
    fn wedged_run_panics_with_the_watchdog_report() {
        // A killed row tile never forwards its partial sum: the watchdog
        // proves the deadlock one window in and names the dead tile instead
        // of spinning the whole cycle budget.
        use wse_arch::fault::{FaultKind, FaultPlan};
        let (w, h) = (4, 3);
        let mut fabric = Fabric::new(w, h);
        let ar = AllReduce::build(&mut fabric, w, h, R_IN, R_OUT, R_ACC);
        fabric.arm_faults(&FaultPlan::new().with(0, FaultKind::TileKill { x: 1, y: 1 }));
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ar.run(&mut fabric, &[1.0; 12])
        }))
        .expect_err("a wedged AllReduce must panic");
        let msg = panic.downcast_ref::<String>().expect("a formatted panic message");
        assert!(msg.contains("no progress for 2048 cycles"), "{msg}");
        assert!(msg.contains("tile(1,1)"), "{msg}");
        assert!(fabric.cycle() < 100_000, "the watchdog fired at cycle {}", fabric.cycle());
    }

    #[test]
    fn sums_distinct_values() {
        let (w, h) = (6, 5);
        let values: Vec<f32> = (0..w * h).map(|i| (i as f32) - 7.5).collect();
        let expect: f32 = values.iter().sum();
        let (out, _) = reduce(w, h, &values);
        for v in out {
            assert!((v - expect).abs() <= 1e-3, "got {v}, expect {expect}");
        }
    }

    #[test]
    fn reruns_produce_fresh_results() {
        let (w, h) = (4, 4);
        let mut fabric = Fabric::new(w, h);
        let ar = AllReduce::build(&mut fabric, w, h, R_IN, R_OUT, R_ACC);
        let (out1, _) = ar.run(&mut fabric, &[2.0; 16]);
        assert!(out1.iter().all(|&v| v == 32.0));
        let (out2, _) = ar.run(&mut fabric, &[0.5; 16]);
        assert!(out2.iter().all(|&v| v == 8.0), "{out2:?}");
    }

    #[test]
    fn latency_tracks_the_diameter() {
        // Paper: "cycle count only about 10% greater than the diameter".
        // Our model adds a constant per-phase task overhead; check that the
        // per-hop slope is ~1 by differencing two sizes.
        let c16 = reduce(16, 16, &vec![1.0; 256]).1;
        let c32 = reduce(32, 32, &vec![1.0; 1024]).1;
        let slope = (c32 - c16) as f64 / 32.0; // diameter grew by 32 hops
        assert!(
            (0.8..2.5).contains(&slope),
            "per-hop latency slope should be near 1, got {slope} (c16={c16}, c32={c32})"
        );
        let diameter = 62.0;
        assert!(
            (c32 as f64) < 3.0 * diameter + 60.0,
            "allreduce latency {c32} too far above diameter {diameter}"
        );
    }

    #[test]
    fn split_reduce_then_bcast_matches_fused() {
        // Reduce to the root, meddle with nothing, broadcast: every tile
        // must end with the same sum the one-task AllReduce produces, and
        // the root's r_acc must already hold it after the reduce phase
        // alone (the host-combine interposition point).
        let (w, h) = (5, 4);
        let values: Vec<f32> = (0..w * h).map(|i| (i as f32) * 0.5 - 3.0).collect();
        let expect: f32 = values.iter().sum();
        let mut fabric = Fabric::new(w, h);
        let ar = AllReduceSplit::build(&mut fabric, w, h, R_IN, R_OUT, R_ACC);
        for y in 0..h {
            for x in 0..w {
                let core = &mut fabric.tile_mut(x, y).core;
                core.regs[R_IN as usize] = values[y * w + x];
                core.activate(ar.reduce_task(x, y));
            }
        }
        fabric.run_watched(100_000, 100_000).unwrap();
        let (rx, ry) = ar.root();
        let partial = fabric.tile(rx, ry).core.regs[R_ACC as usize];
        assert!((partial - expect).abs() <= 1e-3, "root partial {partial} vs {expect}");
        for y in 0..h {
            for x in 0..w {
                fabric.tile_mut(x, y).core.activate(ar.bcast_task(x, y));
            }
        }
        fabric.run_watched(100_000, 100_000).unwrap();
        for y in 0..h {
            for x in 0..w {
                let got = fabric.tile(x, y).core.regs[R_OUT as usize];
                assert!((got - expect).abs() <= 1e-3, "tile ({x},{y}) got {got}");
            }
        }
    }

    #[test]
    fn chain_reduce_sums_vector_payloads_lane_aligned() {
        // Each tile contributes a distinct m-word payload; the root must
        // end with the exact element-wise sum (fp32, deterministic order).
        let (w, h, m) = (5usize, 4usize, 14u32);
        let mut fabric = Fabric::new(w, h);
        let mut pay = 0;
        let mut bc_src = 0;
        for y in 0..h {
            for x in 0..w {
                let t = fabric.tile_mut(x, y);
                pay = t.mem.alloc_vec(m, wse_arch::types::Dtype::F32).unwrap();
                bc_src = t.mem.alloc_vec(7, wse_arch::types::Dtype::F32).unwrap();
                for j in 0..m {
                    let v = (y * w + x) as f32 + j as f32 * 0.125;
                    t.mem.write_f32(pay + 4 * j, v);
                }
            }
        }
        let regs: [Reg; 7] = [2, 3, 6, 7, 12, 9, 11];
        let cr = ChainReduce::build(&mut fabric, w, h, pay, m, bc_src, &regs);
        for y in 0..h {
            for x in 0..w {
                let t = cr.reduce_task(x, y);
                fabric.tile_mut(x, y).core.activate(t);
            }
        }
        fabric.run_watched(100_000, 100_000).unwrap();
        let tile_sum: f32 = (0..w * h).map(|i| i as f32).sum();
        for j in 0..m {
            let got = fabric.tile(0, 0).mem.read_f32(pay + 4 * j);
            let expect = tile_sum + (w * h) as f32 * j as f32 * 0.125;
            assert!((got - expect).abs() < 1e-3, "lane {j}: got {got}, expect {expect}");
        }
        // Host writes a 7-word reply on the root; broadcast loads it into
        // the named registers on every tile.
        for (i, _) in regs.iter().enumerate() {
            fabric.tile_mut(0, 0).mem.write_f32(bc_src + 4 * i as u32, 10.0 + i as f32);
        }
        for y in 0..h {
            for x in 0..w {
                let t = cr.bcast_task(x, y);
                fabric.tile_mut(x, y).core.activate(t);
            }
        }
        fabric.run_watched(100_000, 100_000).unwrap();
        for y in 0..h {
            for x in 0..w {
                for (i, &r) in regs.iter().enumerate() {
                    let got = fabric.tile(x, y).core.regs[r as usize];
                    assert_eq!(got, 10.0 + i as f32, "tile ({x},{y}) reg {r}");
                }
            }
        }
    }

    #[test]
    fn chain_reduce_reruns_and_degenerate_regions() {
        // Re-running must re-fold from the current payload (descriptors
        // rewound per activation), and 1xN / Nx1 / 1x1 regions must work.
        for (w, h) in [(1usize, 1usize), (1, 4), (4, 1), (3, 3)] {
            let mut fabric = Fabric::new(w.max(2), h.max(2));
            let mut pay = 0;
            let mut bc_src = 0;
            for y in 0..h.max(2) {
                for x in 0..w.max(2) {
                    let t = fabric.tile_mut(x, y);
                    pay = t.mem.alloc_vec(3, wse_arch::types::Dtype::F32).unwrap();
                    bc_src = t.mem.alloc_vec(1, wse_arch::types::Dtype::F32).unwrap();
                }
            }
            let cr = ChainReduce::build(&mut fabric, w, h, pay, 3, bc_src, &[5]);
            for round in 1..=2u32 {
                for y in 0..h {
                    for x in 0..w {
                        let t = fabric.tile_mut(x, y);
                        for j in 0..3 {
                            t.mem.write_f32(pay + 4 * j, round as f32);
                        }
                        let task = cr.reduce_task(x, y);
                        t.core.activate(task);
                    }
                }
                fabric.run_watched(100_000, 100_000).unwrap();
                let got = fabric.tile(0, 0).mem.read_f32(pay + 4);
                assert_eq!(got, (w * h) as f32 * round as f32, "{w}x{h} round {round}");
            }
        }
    }

    #[test]
    fn fp32_precision_is_used() {
        // 4096 ones: fp16 accumulation would stagnate at 2048; fp32 is
        // exact. 64x64 fabric gives 4096 contributions.
        let (w, h) = (64, 64);
        let (out, _) = reduce(w, h, &vec![1.0; w * h]);
        assert_eq!(out[0], 4096.0, "fp32 accumulation must be exact here");
    }
}
