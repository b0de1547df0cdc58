//! The dataflow vocabulary the SpMV emitters ([`crate::zcolumn`],
//! [`crate::block2d`], [`crate::relay`]) write their tasks in: rewinding
//! memory tensors, the send and receive stream launches, and Listing 1's
//! two-way barrier chain, each written once. The order in which a helper
//! allocates DSRs and tasks is part of every emitted program's bytes (the
//! pinned program digests depend on it), so each helper documents it and
//! an emitter calls a helper only where that order is its own.

use wse_arch::dsr::Descriptor;
use wse_arch::instr::{Op, Stmt, Task, TaskAction, TensorInstr};
use wse_arch::types::{Color, Dtype, TaskId};
use wse_arch::Core;

/// What a background thread fires when it completes.
pub(crate) type Trigger = Option<(TaskId, TaskAction)>;

/// Contiguous rewinding memory tensor of `dtype`.
pub(crate) fn t_mem(addr: u32, len: u32, dtype: Dtype) -> Descriptor {
    t_strided(addr, len, 1, dtype)
}

/// Strided rewinding memory tensor of `dtype`.
pub(crate) fn t_strided(addr: u32, len: u32, stride: u32, dtype: Dtype) -> Descriptor {
    Descriptor::Mem { addr, len, stride, dtype, rewind: true }
}

/// Length and element type of memory tensor `mem`: a fabric stream to or
/// from it carries the same.
fn shape(mem: Descriptor) -> (u32, Dtype) {
    (mem.len().expect("memory tensor"), mem.dtype().expect("memory tensor"))
}

/// Streams memory tensor `src` out on `color` from background slot `slot`:
/// allocates the source DSR, then the transmit DSR, and appends to `body`
/// the transmit re-arm and the `Copy` launch firing `done`.
pub(crate) fn send(
    core: &mut Core,
    body: &mut Vec<Stmt>,
    slot: u8,
    src: Descriptor,
    color: Color,
    done: Trigger,
) {
    let (len, dtype) = shape(src);
    let tx = Descriptor::FabricOut { color, len, dtype };
    let d_src = core.add_dsr(src);
    let d_tx = core.add_dsr(tx);
    body.push(Stmt::InitDsr { dsr: d_tx, desc: tx });
    let instr = TensorInstr { op: Op::Copy, dst: Some(d_tx), a: Some(d_src), b: None };
    body.push(Stmt::Launch { slot, instr, on_complete: done });
}

/// Streams `color` into memory tensor `dst` from background slot `slot`,
/// storing (`Op::Copy`) or accumulating (`Op::AddAssign`): allocates the
/// receive DSR, then the destination DSR, and appends to `body` the receive
/// re-arm and the launch firing `done`.
pub(crate) fn recv(
    core: &mut Core,
    body: &mut Vec<Stmt>,
    slot: u8,
    color: Color,
    op: Op,
    dst: Descriptor,
    done: Trigger,
) {
    let (len, dtype) = shape(dst);
    let rx = Descriptor::FabricIn { color, len, dtype };
    let d_rx = core.add_dsr(rx);
    let d_dst = core.add_dsr(dst);
    body.push(Stmt::InitDsr { dsr: d_rx, desc: rx });
    let instr = TensorInstr { op, dst: Some(d_dst), a: Some(d_rx), b: None };
    body.push(Stmt::Launch { slot, instr, on_complete: done });
}

/// A completion chain of two-way barriers over a fixed number of background
/// threads (the paper's `xdone/ydone/.../xycdone` tree, as a chain).
pub(crate) struct Chain {
    barriers: Vec<TaskId>,
    then: Option<TaskId>,
}

/// Builds the chain joining `threads` background threads: `threads − 1`
/// tasks named `name`, each starting blocked, so it runs only once both its
/// `Activate` and its `Unblock` trigger arrived. Each barrier re-blocks
/// itself first ("task xdone { block(xdone), unblock(xydone) }"), which
/// re-arms the chain for the next invocation, then activates the next
/// barrier; the last activates `then`. With one thread there is no barrier
/// and its completion activates `then` directly; with none, the caller's
/// body must activate `then` itself.
pub(crate) fn barrier_chain(
    core: &mut Core,
    name: &'static str,
    threads: usize,
    then: Option<TaskId>,
) -> Chain {
    let barriers: Vec<TaskId> =
        (1..threads).map(|_| core.add_task(Task::new(name, vec![]).blocked())).collect();
    for (i, &barrier) in barriers.iter().enumerate() {
        let mut body = vec![Stmt::TaskCtl { task: barrier, action: TaskAction::Block }];
        if let Some(task) = barriers.get(i + 1).copied().or(then) {
            body.push(Stmt::TaskCtl { task, action: TaskAction::Activate });
        }
        core.set_task_body(barrier, body);
    }
    Chain { barriers, then }
}

impl Chain {
    /// The completion trigger of thread `k` (0-based): thread 0 activates
    /// the first barrier, thread `k ≥ 1` unblocks barrier `k − 1`.
    pub(crate) fn trigger(&self, k: usize) -> Trigger {
        match (k, self.barriers.first()) {
            (_, None) => self.then.map(|task| (task, TaskAction::Activate)),
            (0, Some(&first)) => Some((first, TaskAction::Activate)),
            (k, Some(_)) => Some((self.barriers[k - 1], TaskAction::Unblock)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wse_arch::instr::RegOp;
    use wse_arch::types::Reg;
    use wse_arch::Fabric;

    const COUNT: Reg = 0;
    const ONE: Reg = 1;

    /// A 1×1 fabric with a chain over `threads` threads whose successor
    /// bumps register `COUNT`.
    struct Rig {
        fabric: Fabric,
        chain: Chain,
        successor: TaskId,
        threads: usize,
        bufs: (u32, u32),
    }

    impl Rig {
        fn new(threads: usize) -> Rig {
            let mut fabric = Fabric::new(1, 1);
            let tile = fabric.tile_mut(0, 0);
            let bufs = (
                tile.mem.alloc_vec(4, Dtype::F16).unwrap(),
                tile.mem.alloc_vec(4, Dtype::F16).unwrap(),
            );
            let bump = vec![
                Stmt::SetReg { reg: ONE, value: 1.0 },
                Stmt::RegArith { op: RegOp::Add, dst: COUNT, a: COUNT, b: ONE },
            ];
            let successor = tile.core.add_task(Task::new("successor", bump));
            let chain = barrier_chain(&mut tile.core, "barrier", threads, Some(successor));
            Rig { fabric, chain, successor, threads, bufs }
        }

        /// An entry task launching one short memory copy per thread but
        /// `withheld`, each completion firing its trigger.
        fn entry(&mut self, withheld: Option<usize>) -> TaskId {
            let core = &mut self.fabric.tile_mut(0, 0).core;
            let mut body = Vec::new();
            for k in (0..self.threads).filter(|&k| Some(k) != withheld) {
                let d_a = core.add_dsr(t_mem(self.bufs.0, 4, Dtype::F16));
                let d_b = core.add_dsr(t_mem(self.bufs.1, 4, Dtype::F16));
                let instr = TensorInstr { op: Op::Copy, dst: Some(d_b), a: Some(d_a), b: None };
                body.push(Stmt::Launch {
                    slot: k as u8,
                    instr,
                    on_complete: self.chain.trigger(k),
                });
            }
            if self.threads == 0 {
                body.push(Stmt::TaskCtl { task: self.successor, action: TaskAction::Activate });
            }
            core.add_task(Task::new("entry", body))
        }

        /// Runs `entry` to quiescence; returns how often the successor ran.
        fn invoke(&mut self, entry: TaskId) -> f32 {
            self.fabric.tile_mut(0, 0).core.activate(entry);
            self.fabric.run_watched(10_000, 10_000).unwrap();
            self.fabric.tile(0, 0).core.regs[COUNT as usize]
        }
    }

    #[test]
    fn successor_runs_once_per_invocation() {
        for threads in 0..=6 {
            let mut rig = Rig::new(threads);
            let all = rig.entry(None);
            assert_eq!(rig.invoke(all), 1.0, "{threads} threads, first invocation");
            assert_eq!(rig.invoke(all), 2.0, "{threads} threads, second invocation");
        }
    }

    #[test]
    fn successor_waits_for_every_thread_and_the_chain_rearms() {
        for threads in 1..=6 {
            for withheld in 0..threads {
                let mut fresh = Rig::new(threads);
                let partial = fresh.entry(Some(withheld));
                assert_eq!(fresh.invoke(partial), 0.0, "{threads} threads, {withheld} withheld");
                // After one full invocation every barrier has re-blocked
                // itself, so a partial one must again not get through.
                let mut used = Rig::new(threads);
                let (all, partial) = (used.entry(None), used.entry(Some(withheld)));
                assert_eq!(used.invoke(all), 1.0);
                assert_eq!(used.invoke(partial), 1.0, "{threads} threads, {withheld} withheld");
            }
        }
    }
}
