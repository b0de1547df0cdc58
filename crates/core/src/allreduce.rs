//! The on-wafer reductions: the scalar AllReduce of Fig. 6 and the lane
//! chains under the ensemble's single-reduction iteration.
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
//!
//! One [`Reduction`] is both networks; its [`Payload`] picks the geometry.
//! A scalar rides the Fig. 6 tree, whose fan-ins sum in any order. `m`
//! lanes ride systolic chains to `(0, 0)` — west along every row, then
//! north along column 0 — because a fan-in would interleave the lanes of
//! several senders. Either geometry is a list of *legs*, paths of tiles
//! toward a sink, and a list of broadcast paths; one walk sets the routes
//! of both and gives every tile its part in each leg, and one emitter turns
//! those parts into tasks.

use crate::bicgstab::regs;
use wse_arch::dsr::{mk, Descriptor};
use wse_arch::fabric::STALL_WINDOW;
use wse_arch::instr::{Op, RegOp, Stmt, Task, TensorInstr};
use wse_arch::types::{Color, DsrId, Port, Reg, TaskId};
use wse_arch::{Core, Fabric};
use wse_dsl::colors::{ALLREDUCE_BASE, ALLREDUCE_SPAN, CHAIN_BC, CHAIN_COL, CHAIN_ROW};

/// What a [`Reduction`] sums.
#[derive(Clone, Copy, Debug)]
pub enum Payload {
    /// One fp32 scalar per tile, in registers, over the Fig. 6 tree.
    /// Needs a region of at least 2×2.
    Scalar {
        /// Each tile's contribution.
        r_in: Reg,
        /// The total, on every tile after the broadcast.
        r_out: Reg,
        /// The running sum; the root's holds the total between the phases.
        r_acc: Reg,
    },
    /// `m` fp32 lanes in memory, over the chains to the root `(0, 0)`.
    Lanes {
        /// Byte address of the lanes on every tile; after the reduce the
        /// root's copy holds their element-wise sum.
        pay: u32,
        /// Lane count.
        m: u32,
        /// Byte address, on the root, of the reply the host writes before
        /// the broadcast.
        reply: u32,
        /// The registers every tile loads the reply into, in stream order.
        regs: &'static [Reg],
    },
}

/// Tiles in path order, each adjacent to the next.
type Path = Vec<(usize, usize)>;

/// A path toward its sink, the last tile, on one color: every other tile
/// sends toward the sink.
struct Leg {
    color: Color,
    tiles: Path,
}

/// One tile's part in one leg.
#[derive(Clone, Copy)]
enum Role {
    /// Sends toward the sink; `fed` if an upstream tile sends through it.
    Send { color: Color, fed: bool },
    /// The sink of `n` upstream tiles (of every leg ending here on `color`).
    Sink { color: Color, n: u32 },
}

/// A built reduction over the `w × h` region at the fabric origin (a
/// region blitted elsewhere carries it along: routing and tasks are
/// per-tile state).
#[derive(Clone)]
pub struct Reduction {
    w: usize,
    h: usize,
    payload: Payload,
    root: (usize, usize),
    bc: Color,
    /// Per tile, `y * w + x`, its tasks in phase order: one, or a reduce
    /// and a broadcast.
    tasks: Vec<TaskId>,
}

impl Reduction {
    /// Builds the routes and one task per tile that reduces and then
    /// broadcasts: the single-wafer form.
    ///
    /// # Panics
    /// Panics if the region exceeds the fabric, a scalar region is smaller
    /// than 2×2, or the payload is lanes (their reply comes from the host,
    /// between the phases).
    pub fn build(fabric: &mut Fabric, w: usize, h: usize, payload: Payload) -> Reduction {
        assert!(matches!(payload, Payload::Scalar { .. }), "lanes reduce with build_split");
        let (mut net, roles) = Self::routed(fabric, w, h, payload, ALLREDUCE_BASE);
        net.tasks = emit(fabric, &[(&net, &roles)], false);
        net
    }

    /// Builds the routes and, per tile, a reduce task and a broadcast task,
    /// so that a host can combine the partials between them: the ensemble
    /// form. After the reduce the wafer's partials sit on the
    /// [`root`](Reduction::root): the scalar's `r_acc` or the lanes. The
    /// broadcast sends what the host then writes there (`r_acc`, or the
    /// reply block).
    ///
    /// # Panics
    /// Panics if the region is empty or exceeds the fabric, or a scalar
    /// region is smaller than 2×2.
    pub fn build_split(fabric: &mut Fabric, w: usize, h: usize, payload: Payload) -> Reduction {
        let (mut net, roles) = Self::routed(fabric, w, h, payload, ALLREDUCE_BASE);
        net.tasks = emit(fabric, &[(&net, &roles)], true);
        net
    }

    /// The single-wafer Krylov reductions, per tile in `y * w + x` order:
    /// the one-task tree on `AR_IN`/`AR_OUT`/`AR_ACC` (`Slot::Reduce`) and,
    /// with `both`, one task running it interleaved with a second tree on
    /// `AR_IN2`/`AR_OUT2`/`AR_ACC2`, on the next color span
    /// (`Slot::ReduceBoth`). The second tree has no task of its own.
    pub(crate) fn krylov(
        fabric: &mut Fabric,
        w: usize,
        h: usize,
        both: bool,
    ) -> Vec<(TaskId, Option<TaskId>)> {
        let scalar = |r_in, r_out, r_acc| Payload::Scalar { r_in, r_out, r_acc };
        let first = scalar(regs::AR_IN, regs::AR_OUT, regs::AR_ACC);
        let (mut one, roles) = Self::routed(fabric, w, h, first, ALLREDUCE_BASE);
        one.tasks = emit(fabric, &[(&one, &roles)], false);
        let fused = both.then(|| {
            let second = scalar(regs::AR_IN2, regs::AR_OUT2, regs::AR_ACC2);
            let base = ALLREDUCE_BASE + ALLREDUCE_SPAN;
            let (two, two_roles) = Self::routed(fabric, w, h, second, base);
            emit(fabric, &[(&one, &roles), (&two, &two_roles)], false)
        });
        (0..w * h).map(|i| (one.tasks[i], fused.as_ref().map(|f| f[i]))).collect()
    }

    /// The network with its routes set and no tasks yet, and every tile's
    /// roles, in `y * w + x` order.
    fn routed(
        fabric: &mut Fabric,
        w: usize,
        h: usize,
        payload: Payload,
        base: Color,
    ) -> (Reduction, Vec<Vec<Role>>) {
        assert!(w <= fabric.width() && h <= fabric.height(), "region exceeds fabric");
        let ((legs, paths, root, bc), relay) = match payload {
            Payload::Scalar { .. } => (tree(w, h, base), false),
            Payload::Lanes { .. } => (chains(w, h), true),
        };
        let roles = walk(fabric, (w, h), &legs, relay, &paths, bc);
        (Reduction { w, h, payload, root, bc, tasks: Vec::new() }, roles)
    }

    /// Tile `(x, y)`'s tasks in phase order: the one task, or the reduce
    /// task and the broadcast task.
    pub fn tasks(&self, x: usize, y: usize) -> &[TaskId] {
        let per_tile = self.tasks.len() / (self.w * self.h);
        &self.tasks[(y * self.w + x) * per_tile..][..per_tile]
    }

    /// The tile the reduce ends on and the broadcast starts from.
    pub fn root(&self) -> (usize, usize) {
        self.root
    }

    /// The partials read off the root after the reduce: the scalar's
    /// `r_acc`, or the `m` lanes.
    pub(crate) fn partials(&self, fabric: &Fabric) -> Vec<f32> {
        let tile = fabric.tile(self.root.0, self.root.1);
        match self.payload {
            Payload::Scalar { r_acc, .. } => vec![tile.core.regs[r_acc as usize]],
            Payload::Lanes { pay, m, .. } => {
                (0..m).map(|j| tile.mem.read_f32(pay + 4 * j)).collect()
            }
        }
    }

    /// Writes the host's reply where the root's broadcast picks it up.
    pub(crate) fn write_reply(&self, fabric: &mut Fabric, reply: &[f32]) {
        let tile = fabric.tile_mut(self.root.0, self.root.1);
        match self.payload {
            Payload::Scalar { r_acc, .. } => tile.core.regs[r_acc as usize] = reply[0],
            Payload::Lanes { reply: at, .. } => {
                for (i, &val) in reply.iter().enumerate() {
                    tile.mem.write_f32(at + 4 * i as u32, val);
                }
            }
        }
    }

    /// Host-driven scalar reduction: sets each tile's input register, runs
    /// every phase to quiescence, and reads back every tile's output
    /// register. Returns the per-tile results and the cycle count.
    ///
    /// # Panics
    /// Panics on a lane payload, if `values.len() != w*h`, or if the fabric
    /// stalls.
    pub fn run(&self, fabric: &mut Fabric, values: &[f32]) -> (Vec<f32>, u64) {
        let Payload::Scalar { r_in, r_out, .. } = self.payload else {
            panic!("run drives a scalar reduction")
        };
        let (w, h) = (self.w, self.h);
        assert_eq!(values.len(), w * h, "one value per tile");
        for (i, &v) in values.iter().enumerate() {
            fabric.tile_mut(i % w, i / w).core.regs[r_in as usize] = v;
        }
        let mut cycles = 0;
        for phase in 0..self.tasks.len() / (w * h) {
            for i in 0..w * h {
                let task = self.tasks(i % w, i / w)[phase];
                fabric.tile_mut(i % w, i / w).core.activate(task);
            }
            cycles += fabric
                .run_watched(100_000, STALL_WINDOW)
                .unwrap_or_else(|e| panic!("allreduce stalled: {e}"));
        }
        let out = (0..w * h).map(|i| fabric.tile(i % w, i / w).core.regs[r_out as usize]);
        (out.collect(), cycles)
    }

    /// Builds tile `(x, y)`'s statements, split into three parts: the
    /// *upstream work* (its part in every leg, in leg order, ending on the
    /// root with the partials), the *root's broadcast transmit*, and the
    /// *broadcast receive*.
    fn parts(&self, core: &mut Core, roles: &[Role], (x, y): (usize, usize)) -> [Vec<Stmt>; 3] {
        let (mut up, mut tail) = (Vec::new(), Vec::new());
        let bc = self.bc;
        match self.payload {
            Payload::Scalar { r_in, r_out, r_acc } => {
                // A tile sends its own value until it first sinks a leg;
                // from then on it sends its running sum.
                let mut src = r_in;
                for &role in roles {
                    match role {
                        Role::Send { color, .. } => {
                            let tx = bind(core, &mut up, mk::tx32(color, 1));
                            up.push(exec(Op::StoreReg { reg: src }, Some(tx), None, None));
                        }
                        Role::Sink { color, n } => {
                            if src == r_in {
                                up.push(mov(r_acc, r_in));
                                src = r_acc;
                            }
                            if n > 0 {
                                let rx = bind(core, &mut up, mk::rx32(color, n));
                                up.push(exec(Op::SumReg { acc: r_acc }, None, Some(rx), None));
                            }
                        }
                    }
                }
                if (x, y) == self.root {
                    let tx = bind(core, &mut tail, mk::tx32(bc, 1));
                    tail.push(exec(Op::StoreReg { reg: r_acc }, Some(tx), None, None));
                    tail.push(mov(r_out, r_acc));
                }
            }
            Payload::Lanes { pay, m, reply, regs } => {
                for &role in roles {
                    let (tx, rx) = match role {
                        Role::Send { color, fed } => (Some(color), fed.then_some(color)),
                        Role::Sink { color, n } => (None, (n > 0).then_some(color)),
                    };
                    // A leg of one tile moves nothing.
                    if tx.is_none() && rx.is_none() {
                        continue;
                    }
                    // Every other leg binds the lanes afresh.
                    let d_pay = bind(core, &mut up, mk::tensor32(pay, m));
                    let tx = tx.map(|color| bind(core, &mut up, mk::tx32(color, m)));
                    let rx = rx.map(|color| bind(core, &mut up, mk::rx32(color, m)));
                    // The far end sends its lanes, a relay sends `rx + pay`,
                    // the sink folds the stream in.
                    up.push(match (tx, rx) {
                        (Some(tx), None) => exec(Op::Copy, Some(tx), Some(d_pay), None),
                        (Some(tx), rx) => exec(Op::Add, Some(tx), rx, Some(d_pay)),
                        (None, rx) => exec(Op::AddAssign, Some(d_pay), rx, None),
                    });
                }
                if (x, y) == self.root {
                    // The root streams the host's reply out (when there is
                    // anyone to hear it) and loads its own copy from memory.
                    let n = regs.len() as u32;
                    if self.w > 1 || self.h > 1 {
                        let src = bind(core, &mut tail, mk::tensor32(reply, n));
                        let tx = bind(core, &mut tail, mk::tx32(bc, n));
                        tail.push(exec(Op::Copy, Some(tx), Some(src), None));
                    }
                    for (i, &reg) in regs.iter().enumerate() {
                        let at = bind(core, &mut tail, mk::tensor32(reply + 4 * i as u32, 1));
                        tail.push(exec(Op::LoadReg { reg }, None, Some(at), None));
                    }
                }
            }
        }
        // Everyone else loads the reply registers straight off the stream.
        let mut recv = Vec::new();
        let regs = match &self.payload {
            Payload::Scalar { r_out, .. } => std::slice::from_ref(r_out),
            Payload::Lanes { regs, .. } => regs,
        };
        if (x, y) != self.root {
            for &reg in regs {
                let rx = bind(core, &mut recv, mk::rx32(bc, 1));
                recv.push(exec(Op::LoadReg { reg }, None, Some(rx), None));
            }
        }
        [up, tail, recv]
    }
}

/// Allocates a DSR for `desc` on `core` and initializes it in `body`.
fn bind(core: &mut Core, body: &mut Vec<Stmt>, desc: Descriptor) -> DsrId {
    let dsr = core.add_dsr(desc);
    body.push(Stmt::InitDsr { dsr, desc });
    dsr
}

fn exec(op: Op, dst: Option<DsrId>, a: Option<DsrId>, b: Option<DsrId>) -> Stmt {
    Stmt::Exec(TensorInstr { op, dst, a, b })
}

fn mov(dst: Reg, src: Reg) -> Stmt {
    Stmt::RegArith { op: RegOp::Mov, dst, a: src, b: src }
}

/// The one task emitter: per tile, in `y * w + x` order, the statement
/// parts of every network in `nets` (built over one region) grouped into
/// tasks. One network: a single task, reduce then broadcast (a single
/// wafer), or with `split` a reduce task and a broadcast task (an
/// ensemble). Two networks: one task with both upstream parts before either
/// blocking receive, so the two reduce concurrently.
fn emit(fabric: &mut Fabric, nets: &[(&Reduction, &Vec<Vec<Role>>)], split: bool) -> Vec<TaskId> {
    let (w, h) = (nets[0].0.w, nets[0].0.h);
    let lanes = matches!(nets[0].0.payload, Payload::Lanes { .. });
    let names: &[&'static str] = match (nets.len(), split, lanes) {
        (2, ..) => &["allreduce-fused"],
        (_, false, _) => &["allreduce"],
        (_, true, false) => &["allreduce-reduce", "allreduce-bcast"],
        (_, true, true) => &["chain-reduce", "chain-bcast"],
    };
    let (mut tasks, last) = (Vec::with_capacity(w * h * names.len()), names.len() - 1);
    for y in 0..h {
        for x in 0..w {
            let core = &mut fabric.tile_mut(x, y).core;
            let mut bodies = vec![Vec::new(); names.len()];
            let mut recvs = Vec::new();
            for (net, roles) in nets {
                let [up, tail, recv] = net.parts(core, &roles[y * w + x], (x, y));
                bodies[0].extend(up);
                bodies[last].extend(tail);
                recvs.extend(recv);
            }
            bodies[last].extend(recvs);
            for (&name, body) in names.iter().zip(bodies) {
                let id = core.add_task(Task::new(name, body));
                core.mark_entry(id);
                tasks.push(id);
            }
        }
    }
    tasks
}

/// The Fig. 6 tree over `w × h` on the colors `base..base + 6`, with
/// `cx0`/`cx1` the central columns, `cy0`/`cy1` the central rows of those
/// and the root at `(cx0, cy0)`. Every row and every half-column is one
/// path from its hub outward; the reduce runs them inward (rows into the
/// central columns, the column halves into the central four, then the
/// 4:1 step to the root), and the broadcast outward, the lower column
/// halves hanging off the upper halves' hubs. Returns the legs, the
/// broadcast paths (in each tile's fan order), the root and the broadcast
/// color.
fn tree(w: usize, h: usize, base: Color) -> (Vec<Leg>, Vec<Path>, (usize, usize), Color) {
    assert!(w >= 2 && h >= 2, "the AllReduce tree needs at least a 2x2 region");
    let (cx0, cy0) = ((w - 1) / 2, (h - 1) / 2);
    let (cx1, cy1) = (cx0 + 1, cy0 + 1);
    let west = |y| (0..=cx0).rev().map(|x| (x, y)).collect::<Vec<_>>();
    let east = |y| (cx1..w).map(|x| (x, y)).collect::<Vec<_>>();
    let up = |x| (0..=cy0).rev().map(|y| (x, y)).collect::<Vec<_>>();
    let down = |x| (cy1..h).map(|y| (x, y)).collect::<Vec<_>>();
    let leg = |color: u8, mut tiles: Vec<_>| {
        tiles.reverse();
        Leg { color: base + color, tiles }
    };
    let mut legs = Vec::new();
    for y in 0..h {
        legs.extend([leg(0, west(y)), leg(1, east(y))]);
    }
    for x in [cx0, cx1] {
        legs.extend([leg(2, up(x)), leg(3, down(x))]);
    }
    legs.push(leg(4, vec![(cx0, cy0), (cx1, cy0)]));
    legs.push(leg(4, vec![(cx0, cy0), (cx0, cy1), (cx1, cy1)]));

    let hung = |x| [vec![(x, cy0)], down(x)].concat();
    let mut paths = vec![vec![(cx0, cy0), (cx1, cy0)], hung(cx0), west(cy0), up(cx0)];
    paths.extend([hung(cx1), up(cx1), east(cy0)]);
    for y in (0..h).filter(|&y| y != cy0) {
        paths.extend([west(y), east(y)]);
    }
    (legs, paths, (cx0, cy0), base + 5)
}

/// The lane chains over `w × h`: every row west to column 0, then column 0
/// north to the root `(0, 0)`; the broadcast runs east along row 0 and
/// south down every column. Returns what [`tree`] does.
fn chains(w: usize, h: usize) -> (Vec<Leg>, Vec<Path>, (usize, usize), Color) {
    assert!(w >= 1 && h >= 1, "a reduction needs a non-empty region");
    let row = |y| (0..w).map(|x| (x, y)).collect::<Vec<_>>();
    let col = |x| (0..h).map(|y| (x, y)).collect::<Vec<_>>();
    let leg = |color, mut tiles: Vec<_>| {
        tiles.reverse();
        Leg { color, tiles }
    };
    let mut legs: Vec<Leg> = (0..h).map(|y| leg(CHAIN_ROW, row(y))).collect();
    legs.extend((h > 1).then(|| leg(CHAIN_COL, col(0))));
    let paths = [vec![row(0)], (0..w).map(col).collect()].concat();
    (legs, paths, (0, 0), CHAIN_BC)
}

/// The port of tile `from` facing its neighbour `to`.
fn toward(from: (usize, usize), to: (usize, usize)) -> Port {
    let delta = (to.0 as i32 - from.0 as i32, to.1 as i32 - from.1 as i32);
    Port::ALL.into_iter().find(|p| *p != Port::Ramp && p.delta() == delta).expect("adjacent tiles")
}

/// The one route walk. Along each leg every tile but the sink injects from
/// its ramp toward the sink, and takes an upstream flit either on toward
/// the sink (forward: the router passes it through and the sink sums every
/// sender) or down to its ramp (`relay`: each tile sends `rx + pay`); the
/// sink takes the leg in at its ramp. The broadcast starts at the root's
/// ramp; along each path (outward from a tile already reached) a tile takes
/// the flit from its parent, keeps a copy and passes it on. Returns every
/// tile's roles, in leg order, in `y * w + x` order.
fn walk(
    fabric: &mut Fabric,
    (w, h): (usize, usize),
    legs: &[Leg],
    relay: bool,
    paths: &[Path],
    bc: Color,
) -> Vec<Vec<Role>> {
    let mut roles = vec![Vec::new(); w * h];
    for &Leg { color, ref tiles } in legs {
        for (i, &(x, y)) in tiles.iter().enumerate() {
            let out = tiles.get(i + 1).map(|&next| toward((x, y), next));
            let from = (i > 0).then(|| toward((x, y), tiles[i - 1]));
            if let Some(out) = out {
                fabric.set_route(x, y, Port::Ramp, color, &[out]);
            }
            if let Some(from) = from {
                let pass = out.filter(|_| !relay).unwrap_or(Port::Ramp);
                fabric.set_route(x, y, from, color, &[pass]);
            }
            let role = match out {
                Some(_) => Role::Send { color, fed: from.is_some() },
                None => Role::Sink { color, n: i as u32 },
            };
            // Legs sharing a sink (the tree's 4:1 step) fold into one role.
            let tile = &mut roles[y * w + x];
            match (tile.last_mut(), role) {
                (Some(Role::Sink { color: c, n }), Role::Sink { n: more, .. }) if *c == color => {
                    *n += more
                }
                _ => tile.push(role),
            }
        }
    }

    let mut fans = vec![(Port::Ramp, Vec::new()); w * h];
    for hop in paths.iter().flat_map(|path| path.windows(2)) {
        let (a, b) = (hop[0], hop[1]);
        fans[a.1 * w + a.0].1.push(toward(a, b));
        fans[b.1 * w + b.0] = (toward(b, a), vec![Port::Ramp]);
    }
    for (i, (from, fan)) in fans.iter().enumerate().filter(|(_, (_, fan))| !fan.is_empty()) {
        fabric.set_route(i % w, i / w, *from, bc, fan);
    }
    roles
}

#[cfg(test)]
mod tests {
    use super::*;

    const R_IN: Reg = 24;
    const R_OUT: Reg = 25;
    const R_ACC: Reg = 26;

    const SCALAR: Payload = Payload::Scalar { r_in: R_IN, r_out: R_OUT, r_acc: R_ACC };

    fn reduce(w: usize, h: usize, values: &[f32]) -> (Vec<f32>, u64) {
        let mut fabric = Fabric::new(w, h);
        let ar = Reduction::build(&mut fabric, w, h, SCALAR);
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
        let ar = Reduction::build(&mut fabric, w, h, SCALAR);
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
        let ar = Reduction::build(&mut fabric, w, h, SCALAR);
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
        let ar = Reduction::build_split(&mut fabric, w, h, SCALAR);
        for y in 0..h {
            for x in 0..w {
                let core = &mut fabric.tile_mut(x, y).core;
                core.regs[R_IN as usize] = values[y * w + x];
                core.activate(ar.tasks(x, y)[0]);
            }
        }
        fabric.run_watched(100_000, 100_000).unwrap();
        let (rx, ry) = ar.root();
        let partial = fabric.tile(rx, ry).core.regs[R_ACC as usize];
        assert!((partial - expect).abs() <= 1e-3, "root partial {partial} vs {expect}");
        for y in 0..h {
            for x in 0..w {
                fabric.tile_mut(x, y).core.activate(ar.tasks(x, y)[1]);
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
        let regs: &[Reg; 7] = &[2, 3, 6, 7, 12, 9, 11];
        let cr = Reduction::build_split(
            &mut fabric,
            w,
            h,
            Payload::Lanes { pay, m, reply: bc_src, regs },
        );
        for y in 0..h {
            for x in 0..w {
                let t = cr.tasks(x, y)[0];
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
                let t = cr.tasks(x, y)[1];
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
            let lanes = Payload::Lanes { pay, m: 3, reply: bc_src, regs: &[5] };
            let cr = Reduction::build_split(&mut fabric, w, h, lanes);
            for round in 1..=2u32 {
                for y in 0..h {
                    for x in 0..w {
                        let t = fabric.tile_mut(x, y);
                        for j in 0..3 {
                            t.mem.write_f32(pay + 4 * j, round as f32);
                        }
                        let task = cr.tasks(x, y)[0];
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
