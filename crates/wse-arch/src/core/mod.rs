//! The processor core: task scheduler, background threads, and the shared
//! SIMD datapath.
//!
//! Execution model, from the paper:
//!
//! * "Code consists of tasks that react to events. Tasks are triggered by
//!   other tasks, or by arriving data words."
//! * "An instruction with tensor operands can run synchronously or ... as a
//!   background thread that shares the datapath with other threads including
//!   the main one. ... The core supports nine concurrent threads of
//!   execution."
//! * "The hardware directly implements scheduling activities that would
//!   normally be performed by an operating system."
//!
//! The cycle model: each cycle the core may retire one *control* statement
//! of the running task (task/DSR bookkeeping, register arithmetic, thread
//! launch) and may issue the datapath to exactly one runnable thread
//! (round-robin), which processes up to its SIMD width of elements, stalling
//! on fabric/FIFO availability.

mod datapath;
mod program;
mod reference;

pub use program::CoreImage;

use crate::dsr::Dsr;
use crate::fifo::Fifo;
use crate::instr::{Op, OpClass, RegOp, Stmt, TaskAction, TensorInstr};
use crate::memory::Memory;
use crate::sanitize::CoreSanitizer;
use crate::trace::{CoreTrace, StallCause, TraceEventKind};
use crate::types::{Color, Flit, Ring, SlotTable, TaskId, NUM_COLORS, NUM_REGS, NUM_THREADS};
use std::sync::Arc;

/// Performance counters for one core.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CorePerf {
    /// Cycles in which the datapath issued at least one element.
    pub busy_cycles: u64,
    /// Cycles in which the datapath had nothing runnable.
    pub idle_cycles: u64,
    /// fp16 floating-point operations executed.
    pub flops_f16: u64,
    /// fp32 floating-point operations executed.
    pub flops_f32: u64,
    /// Flits injected into the fabric.
    pub flits_sent: u64,
    /// Flits consumed from the fabric.
    pub flits_received: u64,
    /// Control statements retired.
    pub ctrl_stmts: u64,
    /// Datapath-idle cycles by cause, indexed by [`StallCause::index`]
    /// (they sum to `idle_cycles`).
    pub stall: [u64; StallCause::COUNT],
    /// Tensor instructions retired per class, indexed by
    /// [`OpClass::index`].
    pub retired: [u64; OpClass::COUNT],
}

/// Snapshot of a core's persistent scheduler state at a quiescent point
/// (see [`Core::sched_state`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SchedSnapshot {
    dsr_pos: Vec<u32>,
    tasks: usize,
    flags: Vec<[u64; 2]>,
}

/// Indices into each word pair of [`Core`]'s task flags.
const ACTIVATED: usize = 0;
const BLOCKED: usize = 1;

#[derive(Copy, Clone, Debug)]
struct ActiveInstr {
    instr: TensorInstr,
    on_complete: Option<(TaskId, TaskAction)>,
}

/// Content of a datapath slot whose `live` bit is clear (never read).
const NO_INSTR: ActiveInstr = ActiveInstr {
    instr: TensorInstr { op: Op::Copy, dst: None, a: None, b: None },
    on_complete: None,
};

/// Datapath slots: the background threads, then the main thread's
/// synchronous instruction.
const SLOTS: usize = NUM_THREADS + 1;

/// The pseudo-slot of the main thread's synchronous instruction.
const MAIN_SLOT: usize = NUM_THREADS;

/// `live` bit of [`MAIN_SLOT`]: the running task waits on a synchronous
/// tensor instruction.
const MAIN_BIT: u16 = 1 << MAIN_SLOT;

#[derive(Clone, Debug)]
struct RunningTask {
    id: TaskId,
    pc: usize,
}

/// One tile's core: its program image, shared by clones, and the state
/// that runs it.
#[derive(Clone, Debug)]
pub struct Core {
    /// Scalar register file (fp32).
    pub regs: [f32; NUM_REGS],
    /// The program stepping never writes, shared by clones.
    image: Arc<CoreImage>,
    /// DSRs: instructions advance their cursors and `InitDsr` replaces them.
    dsrs: Vec<Dsr>,
    fifos: Vec<Fifo>,
    main: Option<RunningTask>,
    /// The instruction in each datapath slot; meaningful where `live` is set.
    slots: [ActiveInstr; SLOTS],
    /// Bit `s` set while slot `s` holds an unfinished instruction.
    live: u16,
    /// The slot the datapath's round-robin tries first.
    rr_cursor: u8,
    /// Every task's activated and blocked flag: bit `id % 64` of
    /// `flags[id / 64][ACTIVATED]` and of `flags[id / 64][BLOCKED]`. A task
    /// is runnable when activated and not blocked, so [`Core::schedule`]
    /// visits only those.
    flags: Vec<[u64; 2]>,
    /// Runnable tasks; keeps [`Core::is_quiescent`] O(1).
    runnable: usize,
    /// Per task, one past the fabric cycle that last retired it (zero
    /// before its first retirement): see [`Core::task_end`]. Sized at the
    /// first retirement, so a program that never runs allocates none.
    ended: Vec<u64>,
    /// Words received from the router, one queue per color.
    ramp_in: SlotTable<Ring, NUM_COLORS>,
    /// Words awaiting injection into the router, one queue per color (the
    /// hardware gives every fabric color its own egress queue). Injection
    /// round-robins across non-empty colors so a thin stream (e.g. a seam
    /// halo) is never starved behind a bulk stream sharing the ramp.
    ramp_out: SlotTable<Ring, NUM_COLORS>,
    /// Bit `c` set while `ramp_in[c]` / `ramp_out[c]` is non-empty.
    ramp_in_mask: u32,
    ramp_out_mask: u32,
    /// Round-robin cursor over `ramp_out` colors.
    ramp_rr: u8,
    /// Performance counters, stall causes and retire classes included;
    /// always on.
    pub perf: CorePerf,
}

/// The host instruments one core step reports to, lent by the fabric from
/// its per-tile state: a core owns none, so replacing or cloning one loses
/// or copies none. An absent one costs one pointer test per hook.
pub(crate) struct Observers<'a> {
    /// Fabric cycle of the step: the stamp of every event and race trip.
    pub(crate) cycle: u64,
    /// The tile's task-event ring, while a trace is armed.
    pub(crate) trace: Option<&'a mut CoreTrace>,
    /// The tile's sanitizer shadow state, while the sanitizer is armed.
    pub(crate) sanitize: Option<&'a mut CoreSanitizer>,
}

impl Observers<'_> {
    /// Records a task event (a no-op with no trace attached).
    fn event(&mut self, kind: TraceEventKind) {
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.record(self.cycle, kind);
        }
    }
}

impl Default for Core {
    fn default() -> Core {
        Core::new()
    }
}

impl Core {
    /// A fresh core with empty task table and register file.
    pub fn new() -> Core {
        Core {
            regs: [0.0; NUM_REGS],
            image: Arc::default(),
            dsrs: Vec::new(),
            fifos: Vec::new(),
            main: None,
            slots: [NO_INSTR; SLOTS],
            live: 0,
            rr_cursor: 0,
            flags: Vec::new(),
            runnable: 0,
            ended: Vec::new(),
            ramp_in: SlotTable::default(),
            ramp_out: SlotTable::default(),
            ramp_in_mask: 0,
            ramp_out_mask: 0,
            ramp_rr: 0,
            perf: CorePerf::default(),
        }
    }

    /// Task `id`'s flag `which` ([`ACTIVATED`] or [`BLOCKED`]).
    fn flag(&self, id: TaskId, which: usize) -> bool {
        self.flags[id as usize / 64][which] >> (id % 64) & 1 != 0
    }

    /// Sets or clears task `id`'s flag `which`, keeping the runnable count.
    #[inline]
    fn set_flag(&mut self, id: TaskId, which: usize, on: bool) {
        let (word, bit) = (&mut self.flags[id as usize / 64], 1 << (id % 64));
        let was = word[ACTIVATED] & !word[BLOCKED] & bit != 0;
        if on {
            word[which] |= bit;
        } else {
            word[which] &= !bit;
        }
        let is = word[ACTIVATED] & !word[BLOCKED] & bit != 0;
        self.runnable = self.runnable + is as usize - was as usize;
    }

    /// Externally activates a task (the host-side "go" signal).
    pub fn activate(&mut self, task: TaskId) {
        self.set_flag(task, ACTIVATED, true);
    }

    /// Applies a scheduling action to a task.
    fn apply_action(&mut self, task: TaskId, action: TaskAction) {
        match action {
            TaskAction::Activate => self.set_flag(task, ACTIVATED, true),
            TaskAction::Block => self.set_flag(task, BLOCKED, true),
            TaskAction::Unblock => self.set_flag(task, BLOCKED, false),
        }
    }

    /// `true` when nothing is running or runnable and no output is pending.
    pub fn is_quiescent(&self) -> bool {
        self.main.is_none() && self.live == 0 && self.ramp_out_mask == 0 && self.runnable == 0
    }

    /// `true` when undelivered ramp-in data sits on a color with a task
    /// binding — the one condition under which a quiescent core can wake
    /// itself on a future step (via the data trigger). The fabric's
    /// activity set must keep such a tile live even though
    /// [`Core::is_quiescent`] holds.
    pub fn has_pending_bound_data(&self) -> bool {
        self.ramp_in_mask & self.image.bound_mask != 0
    }

    /// Accounts `n` cycles the fabric *skipped* stepping this core because
    /// it was provably quiescent. A quiescent core's step is pure idle —
    /// no trigger fires, nothing schedules, the datapath records one idle
    /// cycle of stall cause `Idle` — so batching the bookkeeping is
    /// bit-identical to stepping.
    pub(crate) fn account_idle(&mut self, n: u64) {
        self.perf.idle_cycles += n;
        self.perf.stall[StallCause::Idle.index()] += n;
    }

    /// Space left in the ramp-in queue for `color` (router-side check).
    pub fn ramp_in_space(&self, color: Color) -> usize {
        self.ramp_in[color as usize].space()
    }

    /// The ramp-in queues, by color (what the tile's router stages against).
    pub(crate) fn ramp_in_queues(&self) -> &SlotTable<Ring, NUM_COLORS> {
        &self.ramp_in
    }

    /// The ramp-in queue of `color` (test/diagnostic access).
    pub fn ramp_in(&self, color: Color) -> &Ring {
        &self.ramp_in[color as usize]
    }

    /// The ramp-out queue of `color` (test/diagnostic access).
    pub fn ramp_out(&self, color: Color) -> &Ring {
        &self.ramp_out[color as usize]
    }

    /// Delivers a flit from the router to the core.
    ///
    /// # Panics
    /// Panics if the queue is full (the router must check first).
    pub fn deliver(&mut self, color: Color, flit: Flit) {
        assert!(self.ramp_in_space(color) > 0, "ramp-in overflow on color {color}");
        self.ramp_in.entry(color as usize).push_back(flit);
        self.ramp_in_mask |= 1 << color;
    }

    /// Pending injection queue length across all colors (diagnostics).
    pub fn ramp_out_len(&self) -> usize {
        (0..NUM_COLORS).map(|c| self.ramp_out[c].len()).sum()
    }

    /// Pops the first flit (in round-robin arbiter order) that fits
    /// `budget` bytes and whose color passes `ready` — a blocked color
    /// does not head-of-line-block the other colors' queues. This is the
    /// injection arbiter's only entry point.
    pub fn pop_ramp_out_ready(
        &mut self,
        budget: u32,
        ready: impl Fn(Color) -> bool,
    ) -> Option<(Color, Flit)> {
        // Non-empty colors in (ramp_rr + k) % NUM_COLORS order: the bits at
        // or above the cursor ascending, then the ones below it.
        let pending = self.ramp_out_mask;
        for mut seg in [pending & (!0 << self.ramp_rr), pending & ((1 << self.ramp_rr) - 1)] {
            while seg != 0 {
                let c = seg.trailing_zeros() as usize;
                seg &= seg - 1;
                let flit = self.ramp_out[c].front().expect("mask bit set on a non-empty queue");
                if flit.bytes() <= budget && ready(c as Color) {
                    self.ramp_out.entry(c).pop_front();
                    if self.ramp_out[c].is_empty() {
                        self.ramp_out_mask &= !(1 << c);
                    }
                    self.ramp_rr = ((c + 1) % NUM_COLORS) as u8;
                    return Some((c as Color, flit));
                }
            }
        }
        None
    }

    /// Unconsumed ramp-in words (diagnostics; should be zero after a
    /// well-formed program quiesces).
    pub fn ramp_in_residue(&self) -> usize {
        (0..NUM_COLORS).map(|c| self.ramp_in[c].len()).sum()
    }

    /// Name of the task currently occupying the main thread, if any
    /// (stall diagnostics).
    pub fn current_task_name(&self) -> Option<&'static str> {
        self.main.as_ref().map(|r| self.image.tasks[r.id as usize].name)
    }

    /// Number of occupied background-thread slots (stall diagnostics).
    pub fn active_threads(&self) -> usize {
        (self.live & !MAIN_BIT).count_ones() as usize
    }

    /// Clears all transient execution state — running task, background
    /// threads, ramp queues, FIFO contents — and rewinds every task's
    /// scheduling flags to its declared start state and every DSR cursor to
    /// zero. Programs, routes-side bindings, registers and perf counters
    /// are retained.
    ///
    /// This is the core half of checkpoint restore: after a fault wedges
    /// the fabric mid-phase, the recovery layer calls this and then
    /// [`Core::restore_sched_state`] with a snapshot taken at a quiescent
    /// iteration boundary.
    pub fn reset_transient(&mut self) {
        self.main = None;
        self.live = 0;
        self.rr_cursor = 0;
        for q in self.ramp_in.values_mut().iter_mut().chain(self.ramp_out.values_mut()) {
            q.clear();
        }
        self.ramp_in_mask = 0;
        self.ramp_out_mask = 0;
        self.ramp_rr = 0;
        self.flags.fill([0, 0]);
        for (id, t) in self.image.tasks.iter().enumerate() {
            self.flags[id / 64][ACTIVATED] |= (t.start_activated as u64) << (id % 64);
            self.flags[id / 64][BLOCKED] |= (t.start_blocked as u64) << (id % 64);
        }
        self.recount_runnable();
        for d in &mut self.dsrs {
            d.reset();
        }
        for f in &mut self.fifos {
            f.clear();
        }
    }

    /// Snapshots the scheduler-visible state that persists across quiescent
    /// points: DSR cursors (accumulator descriptors deliberately keep their
    /// position between instructions) and per-task activation/blocked
    /// flags (protocols park tasks in specific block states between
    /// phases).
    pub fn sched_state(&self) -> SchedSnapshot {
        SchedSnapshot {
            dsr_pos: self.dsrs.iter().map(|d| d.pos).collect(),
            tasks: self.image.tasks.len(),
            flags: self.flags.clone(),
        }
    }

    /// Restores a snapshot taken by [`Core::sched_state`].
    ///
    /// # Panics
    /// Panics if the snapshot shape does not match this core's program.
    pub fn restore_sched_state(&mut self, snap: &SchedSnapshot) {
        assert_eq!(snap.dsr_pos.len(), self.dsrs.len(), "snapshot from a different program");
        assert_eq!(snap.tasks, self.image.tasks.len(), "snapshot from a different program");
        for (d, &pos) in self.dsrs.iter_mut().zip(&snap.dsr_pos) {
            d.pos = pos;
        }
        self.flags.clone_from(&snap.flags);
        self.recount_runnable();
    }

    /// Re-derives the runnable count after task flags were set wholesale.
    fn recount_runnable(&mut self) {
        self.runnable = self.flags.iter().map(|[a, b]| (a & !b).count_ones() as usize).sum();
    }

    /// Executes fabric cycle `cycle` with no observer attached. `mem` is
    /// the tile's SRAM.
    pub fn step(&mut self, mem: &mut Memory, cycle: u64) {
        self.step_with(mem, false, Observers { cycle, trace: None, sanitize: None });
    }

    /// [`Core::step`] with every tensor instruction on the per-element
    /// datapath — the executable specification the batched datapath is
    /// tested against ([`crate::fabric::Fabric::step_reference`] steps
    /// cores this way).
    pub fn step_reference(&mut self, mem: &mut Memory, cycle: u64) {
        self.step_with(mem, true, Observers { cycle, trace: None, sanitize: None });
    }

    /// One step reporting to `obs`: how the fabric steps its cores.
    pub(crate) fn step_with(&mut self, mem: &mut Memory, per_element: bool, mut obs: Observers) {
        self.data_triggers();
        self.schedule(&mut obs);
        self.control_step(&mut obs);
        self.datapath_step(mem, per_element, &mut obs);
    }

    /// Activates tasks bound to colors with pending data.
    fn data_triggers(&mut self) {
        let hot = self.ramp_in_mask & self.image.bound_mask;
        if hot == 0 {
            return;
        }
        for k in 0..self.image.bindings.len() {
            let b = self.image.bindings[k];
            if hot >> b.color & 1 != 0 {
                self.activate(b.task);
            }
        }
    }

    /// Picks a task for the main thread if it is free.
    fn schedule(&mut self, obs: &mut Observers) {
        if self.main.is_some() || self.runnable == 0 {
            return;
        }
        // Highest priority wins; ascending ids with a strict `>` keep the
        // lowest id among equals.
        let mut best: Option<(u8, TaskId)> = None;
        for (w, [a, b]) in self.flags.iter().enumerate() {
            let mut bits = a & !b;
            while bits != 0 {
                let id = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let priority = self.image.tasks[id].priority;
                if best.is_none_or(|(p, _)| priority > p) {
                    best = Some((priority, id as TaskId));
                }
            }
        }
        let Some((_, id)) = best else { return };
        self.set_flag(id, ACTIVATED, false); // activation is consumed
        self.main = Some(RunningTask { id, pc: 0 });
        let name = self.image.tasks[id as usize].name;
        obs.event(TraceEventKind::TaskStart { task: id, name });
    }

    /// Retires at most one control statement of the running task.
    fn control_step(&mut self, obs: &mut Observers) {
        let Some(running) = self.main.as_ref() else { return };
        if self.live & MAIN_BIT != 0 {
            return; // waiting on a synchronous tensor instruction
        }
        let task_id = running.id;
        let pc = running.pc;
        let body_len = self.image.tasks[task_id as usize].body.len();
        if pc >= body_len {
            self.retire(task_id, obs);
            return;
        }
        // Every statement payload is `Copy`, so the arms bind copies and the
        // task table is not borrowed while they run.
        match self.image.tasks[task_id as usize].body[pc] {
            Stmt::Exec(instr) => {
                self.slots[MAIN_SLOT] = ActiveInstr { instr, on_complete: None };
                self.live |= MAIN_BIT;
            }
            Stmt::Launch { slot, instr, on_complete } => {
                let slot = slot as usize;
                assert!(slot < NUM_THREADS, "thread slot out of range");
                if self.live >> slot & 1 != 0 {
                    // Slot busy: stall (retry next cycle). Real programs
                    // avoid this; the stall keeps the model safe.
                    return;
                }
                self.slots[slot] = ActiveInstr { instr, on_complete };
                self.live |= 1 << slot;
                if let Some(san) = obs.sanitize.as_deref_mut() {
                    san.on_launch(slot);
                }
            }
            Stmt::InitDsr { dsr, desc } => self.dsrs[dsr as usize] = Dsr::new(desc),
            Stmt::TaskCtl { task, action } => self.apply_action(task, action),
            Stmt::RegArith { op, dst, a, b } => {
                let (va, vb) = (self.regs[a as usize], self.regs[b as usize]);
                self.regs[dst as usize] = match op {
                    RegOp::Add => va + vb,
                    RegOp::Sub => va - vb,
                    RegOp::Mul => va * vb,
                    RegOp::Div => va / vb,
                    RegOp::Neg => -va,
                    RegOp::Mov => va,
                };
            }
            Stmt::SetReg { reg, value } => self.regs[reg as usize] = value,
        }
        self.perf.ctrl_stmts += 1;
        // A task whose body is exhausted (and not waiting) retires.
        if self.live & MAIN_BIT == 0 && pc + 1 >= body_len {
            self.retire(task_id, obs);
        } else {
            self.main = Some(RunningTask { id: task_id, pc: pc + 1 });
        }
    }

    /// Retires task `id`, whose body is done, from the main thread: stamps
    /// its end ([`Core::task_end`]) and reports the event to `obs`.
    fn retire(&mut self, id: TaskId, obs: &mut Observers) {
        self.main = None;
        if self.ended.len() <= id as usize {
            self.ended.resize(self.image.tasks.len(), 0);
        }
        self.ended[id as usize] = obs.cycle + 1;
        obs.event(TraceEventKind::TaskEnd { task: id });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsr::mk;
    use crate::instr::{ColorBinding, Task};
    use crate::types::{DsrId, Dtype, FifoId, RAMP_OUT_CAPACITY};
    use wse_float::F16;

    fn run(core: &mut Core, mem: &mut Memory, cycles: usize) {
        for c in 0..cycles {
            core.step(mem, c as u64);
        }
    }

    /// What a router with unlimited queue space takes from the core in one
    /// cycle at `budget_bytes` of port bandwidth.
    fn drain_ramp_out(core: &mut Core, budget_bytes: u32) -> Vec<(Color, Flit)> {
        let mut out = Vec::new();
        let mut budget = budget_bytes;
        while let Some((color, flit)) = core.pop_ramp_out_ready(budget, |_| true) {
            budget -= flit.bytes();
            out.push((color, flit));
        }
        out
    }

    /// Builds a core+memory with two fp16 vectors in SRAM.
    fn setup(a: &[f64], b: &[f64]) -> (Core, Memory, u32, u32) {
        let mut mem = Memory::new();
        let va: Vec<F16> = a.iter().map(|&v| F16::from_f64(v)).collect();
        let vb: Vec<F16> = b.iter().map(|&v| F16::from_f64(v)).collect();
        let addr_a = mem.alloc_vec(a.len() as u32, Dtype::F16).unwrap();
        let addr_b = mem.alloc_vec(b.len() as u32, Dtype::F16).unwrap();
        mem.store_f16_slice(addr_a, &va);
        mem.store_f16_slice(addr_b, &vb);
        (Core::new(), mem, addr_a, addr_b)
    }

    #[test]
    fn elementwise_mul_task() {
        let (mut core, mut mem, aa, ab) = setup(&[1.0, 2.0, 3.0, 4.0, 5.0], &[2.0; 5]);
        let dst_addr = mem.alloc_vec(5, Dtype::F16).unwrap();
        let da = core.add_dsr(mk::tensor16(aa, 5));
        let db = core.add_dsr(mk::tensor16(ab, 5));
        let dd = core.add_dsr(mk::tensor16(dst_addr, 5));
        let t = core.add_task(Task::new(
            "mul",
            vec![Stmt::Exec(TensorInstr { op: Op::Mul, dst: Some(dd), a: Some(da), b: Some(db) })],
        ));
        core.activate(t);
        run(&mut core, &mut mem, 10);
        assert!(core.is_quiescent());
        let out = mem.load_f16_slice(dst_addr, 5);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v.to_f64(), 2.0 * (i + 1) as f64);
        }
        assert_eq!(core.perf.flops_f16, 5);
    }

    #[test]
    fn simd4_throughput_for_f16() {
        // 16 elements at 4 lanes = 4 busy datapath cycles.
        let (mut core, mut mem, aa, ab) = setup(&[1.0; 16], &[1.0; 16]);
        let da = core.add_dsr(mk::tensor16(aa, 16));
        let db = core.add_dsr(mk::tensor16(ab, 16));
        let dst = mem.alloc_vec(16, Dtype::F16).unwrap();
        let dd = core.add_dsr(mk::tensor16(dst, 16));
        let t = core.add_task(Task::new(
            "add",
            vec![Stmt::Exec(TensorInstr { op: Op::Add, dst: Some(dd), a: Some(da), b: Some(db) })],
        ));
        core.activate(t);
        run(&mut core, &mut mem, 20);
        assert!(core.is_quiescent());
        assert_eq!(core.perf.flops_f16, 16);
        assert_eq!(core.perf.busy_cycles, 4, "4 lanes/cycle");
    }

    #[test]
    fn axpy_uses_register_scalar() {
        let (mut core, mut mem, ax, ay) = setup(&[1.0, 2.0, 3.0], &[10.0, 10.0, 10.0]);
        let dx = core.add_dsr(mk::tensor16(ax, 3));
        let dy = core.add_dsr(mk::tensor16(ay, 3));
        let t = core.add_task(Task::new(
            "axpy",
            vec![
                Stmt::SetReg { reg: 0, value: 0.5 },
                Stmt::Exec(TensorInstr {
                    op: Op::Axpy { scalar: 0 },
                    dst: Some(dy),
                    a: Some(dx),
                    b: None,
                }),
            ],
        ));
        core.activate(t);
        run(&mut core, &mut mem, 10);
        assert!(core.is_quiescent());
        let out = mem.load_f16_slice(ay, 3);
        assert_eq!(out[0].to_f64(), 10.5);
        assert_eq!(out[1].to_f64(), 11.0);
        assert_eq!(out[2].to_f64(), 11.5);
    }

    #[test]
    fn mixed_mac_accumulates_in_register() {
        let (mut core, mut mem, aa, ab) = setup(&[1.0, 2.0, 3.0, 4.0], &[1.0, 1.0, 1.0, 1.0]);
        let da = core.add_dsr(mk::tensor16(aa, 4));
        let db = core.add_dsr(mk::tensor16(ab, 4));
        let t = core.add_task(Task::new(
            "dot",
            vec![Stmt::Exec(TensorInstr {
                op: Op::MacReg { acc: 3 },
                dst: None,
                a: Some(da),
                b: Some(db),
            })],
        ));
        core.activate(t);
        run(&mut core, &mut mem, 10);
        assert!(core.is_quiescent());
        assert_eq!(core.regs[3], 10.0);
        // Mixed throughput: 2 elements/cycle → 2 busy cycles for 4 elements.
        assert_eq!(core.perf.busy_cycles, 2);
    }

    #[test]
    fn fifo_decoupled_producer_consumer() {
        // Producer: mul of two memory vectors into a FIFO. Consumer task
        // (onpush-activated) drains the FIFO into an accumulator vector.
        let n = 12u32;
        let (mut core, mut mem, aa, ab) =
            setup(&vec![2.0; n as usize], &(0..n).map(|i| i as f64).collect::<Vec<_>>());
        let acc_addr = mem.alloc_vec(n, Dtype::F16).unwrap();
        mem.store_f16_slice(acc_addr, &vec![F16::from_f64(1.0); n as usize]);
        let fifo_mem = mem.alloc_vec(4, Dtype::F16).unwrap();

        let da = core.add_dsr(mk::tensor16(aa, n));
        let db = core.add_dsr(mk::tensor16(ab, n));
        let dacc = core.add_dsr(mk::acc16(acc_addr, n));

        // Consumer defined first so the fifo can name it.
        let sum_task = core.add_task(Task::new("sum", vec![]).priority(1));
        let fid = core.add_fifo(Fifo::new(fifo_mem, 4, Dtype::F16, Some(sum_task)));
        let dfifo = core.add_dsr(mk::fifo(fid));
        // Patch the consumer body now that DSR ids exist.
        core.set_task_body(
            sum_task,
            vec![Stmt::Exec(TensorInstr {
                op: Op::AddAssign,
                dst: Some(dacc),
                a: Some(dfifo),
                b: None,
            })],
        );

        let producer = core.add_task(Task::new(
            "mul",
            vec![Stmt::Launch {
                slot: 0,
                instr: TensorInstr { op: Op::Mul, dst: Some(dfifo), a: Some(da), b: Some(db) },
                on_complete: None,
            }],
        ));
        core.activate(producer);
        run(&mut core, &mut mem, 80);
        assert!(core.is_quiescent(), "core did not quiesce");
        let out = mem.load_f16_slice(acc_addr, n as usize);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v.to_f64(), 1.0 + 2.0 * i as f64, "element {i}");
        }
        assert_eq!(core.fifo(fid).total_pushed, n as u64);
        assert!(core.fifo(fid).peak_occupancy <= 4);
    }

    #[test]
    fn fabric_out_then_loopback_in() {
        // Without a router, deliver manually: the core sends, we shuttle the
        // flits back to its own ramp-in on another color, a second task sums
        // them into a register.
        let (mut core, mut mem, aa, _) = setup(&[1.5, 2.5, 3.0], &[0.0; 3]);
        let dsrc = core.add_dsr(mk::tensor16(aa, 3));
        let dtx = core.add_dsr(mk::tx16(2, 3));
        let drx = core.add_dsr(mk::rx16(5, 3));
        let send = core.add_task(Task::new(
            "send",
            vec![Stmt::Exec(TensorInstr { op: Op::Copy, dst: Some(dtx), a: Some(dsrc), b: None })],
        ));
        let recv = core.add_task(Task::new(
            "recv",
            vec![Stmt::Exec(TensorInstr {
                op: Op::SumReg { acc: 1 },
                dst: None,
                a: Some(drx),
                b: None,
            })],
        ));
        core.activate(send);
        core.activate(recv);
        for c in 0..40 {
            core.step(&mut mem, c);
            for (color, flit) in drain_ramp_out(&mut core, 4) {
                assert_eq!(color, 2);
                core.deliver(5, flit);
            }
        }
        assert!(core.is_quiescent());
        assert_eq!(core.regs[1], 7.0);
        assert_eq!(core.perf.flits_sent, 3);
        assert_eq!(core.perf.flits_received, 3);
    }

    #[test]
    fn completion_tree_with_block_unblock() {
        // Mirror the paper's two-way barrier: two launched threads trigger
        // `done` via Activate and Unblock respectively; `done` must run only
        // after both complete.
        let (mut core, mut mem, aa, ab) = setup(&[1.0; 8], &[2.0; 8]);
        let d1 = core.add_dsr(mk::tensor16(aa, 8));
        let d2 = core.add_dsr(mk::tensor16(ab, 8));
        let o1 = mem.alloc_vec(8, Dtype::F16).unwrap();
        let o2 = mem.alloc_vec(8, Dtype::F16).unwrap();
        let do1 = core.add_dsr(mk::tensor16(o1, 8));
        let do2 = core.add_dsr(mk::tensor16(o2, 8));

        let done =
            core.add_task(Task::new("done", vec![Stmt::SetReg { reg: 7, value: 42.0 }]).blocked());
        let start = core.add_task(Task::new(
            "start",
            vec![
                Stmt::Launch {
                    slot: 0,
                    instr: TensorInstr { op: Op::Copy, dst: Some(do1), a: Some(d1), b: None },
                    on_complete: Some((done, TaskAction::Activate)),
                },
                Stmt::Launch {
                    slot: 1,
                    instr: TensorInstr { op: Op::Copy, dst: Some(do2), a: Some(d2), b: None },
                    on_complete: Some((done, TaskAction::Unblock)),
                },
            ],
        ));
        core.activate(start);
        run(&mut core, &mut mem, 60);
        assert!(core.is_quiescent());
        assert_eq!(core.regs[7], 42.0, "done must have run after both triggers");
    }

    #[test]
    fn priority_wins_scheduling() {
        let (mut core, mut mem, _, _) = setup(&[0.0], &[0.0]);
        let lo = core.add_task(Task::new("lo", vec![Stmt::SetReg { reg: 0, value: 1.0 }]));
        let hi = Task::new(
            "hi",
            vec![Stmt::SetReg { reg: 1, value: 1.0 }, Stmt::SetReg { reg: 2, value: 1.0 }],
        )
        .priority(5);
        let hi = core.add_task(hi);
        core.activate(lo);
        core.activate(hi);
        // One step: hi must be scheduled first.
        core.step(&mut mem, 0);
        assert_eq!(core.regs[1], 1.0);
        assert_eq!(core.regs[0], 0.0);
        run(&mut core, &mut mem, 5);
        assert_eq!(core.regs[0], 1.0);
    }

    /// The runnable bitset has no cap: with 200 tasks, mixed priorities and
    /// many ties, `schedule` picks what a scan of the whole table picks
    /// (highest priority, then lowest id), through incremental flag changes
    /// and wholesale restores alike.
    #[test]
    fn schedule_matches_brute_force_scan_beyond_128_tasks() {
        let (mut core, _, _, _) = setup(&[0.0], &[0.0]);
        let mut rng = crate::fault::SplitMix64::new(0x5C4E_D01E);
        for _ in 0..200 {
            let task = Task::new("t", vec![]).priority(rng.below(4) as u8);
            core.add_task(if rng.below(5) == 0 { task.blocked() } else { task });
        }
        let snap = core.sched_state();
        let mut picked = 0;
        for round in 0..2000 {
            for _ in 0..1 + rng.below(6) {
                let id = rng.below(200) as TaskId;
                let action = [TaskAction::Activate, TaskAction::Block, TaskAction::Unblock]
                    [rng.below(3) as usize];
                core.apply_action(id, action);
            }
            if round % 500 == 499 {
                core.restore_sched_state(&snap);
            }
            let runnable = |core: &Core| -> Vec<TaskId> {
                (0..200).filter(|&id| core.task_activated(id) && !core.task_blocked(id)).collect()
            };
            let want = runnable(&core)
                .into_iter()
                .max_by_key(|&id| (core.image.tasks[id as usize].priority, TaskId::MAX - id));
            core.schedule(&mut Observers { cycle: 0, trace: None, sanitize: None });
            assert_eq!(core.main.take().map(|r| r.id), want, "round {round}");
            picked += want.is_some() as usize;
            assert_eq!(core.runnable, runnable(&core).len());
        }
        assert!(picked > 1000, "only {picked} rounds had a runnable task");
    }

    #[test]
    fn data_triggered_task_activation() {
        let (mut core, mut mem, _, _) = setup(&[0.0], &[0.0]);
        let drx = core.add_dsr(mk::rx16(4, 1));
        let t = core.add_task(Task::new(
            "on_data",
            vec![Stmt::Exec(TensorInstr {
                op: Op::LoadReg { reg: 9 },
                dst: None,
                a: Some(drx),
                b: None,
            })],
        ));
        core.bind_color(4, t);
        run(&mut core, &mut mem, 3);
        assert_eq!(core.regs[9], 0.0, "nothing happened yet");
        core.deliver(4, Flit::f16(F16::from_f32(6.0).to_bits()));
        run(&mut core, &mut mem, 5);
        assert!(core.is_quiescent());
        assert_eq!(core.regs[9], 6.0);
    }

    #[test]
    fn reg_arith_statements() {
        let (mut core, mut mem, _, _) = setup(&[0.0], &[0.0]);
        let t = core.add_task(Task::new(
            "regs",
            vec![
                Stmt::SetReg { reg: 0, value: 12.0 },
                Stmt::SetReg { reg: 1, value: 4.0 },
                Stmt::RegArith { op: RegOp::Div, dst: 2, a: 0, b: 1 },
                Stmt::RegArith { op: RegOp::Sub, dst: 3, a: 2, b: 1 },
                Stmt::RegArith { op: RegOp::Neg, dst: 4, a: 3, b: 3 },
                Stmt::RegArith { op: RegOp::Mul, dst: 5, a: 2, b: 2 },
            ],
        ));
        core.activate(t);
        run(&mut core, &mut mem, 10);
        assert_eq!(core.regs[2], 3.0);
        assert_eq!(core.regs[3], -1.0);
        assert_eq!(core.regs[4], 1.0);
        assert_eq!(core.regs[5], 9.0);
    }

    #[test]
    fn dump_program_renders_everything() {
        let (mut core, mut mem, aa, ab) = setup(&[1.0; 4], &[2.0; 4]);
        let fifo_mem = mem.alloc_vec(4, Dtype::F16).unwrap();
        let consumer = core.add_task(Task::new("consumer", vec![]));
        let fid = core.add_fifo(Fifo::new(fifo_mem, 4, Dtype::F16, Some(consumer)));
        let da = core.add_dsr(mk::tensor16(aa, 4));
        let db = core.add_dsr(mk::tensor16(ab, 4));
        let df = core.add_dsr(mk::fifo(fid));
        let producer = core.add_task(Task::new(
            "producer",
            vec![
                Stmt::SetReg { reg: 1, value: 2.5 },
                Stmt::Launch {
                    slot: 0,
                    instr: TensorInstr { op: Op::Mul, dst: Some(df), a: Some(da), b: Some(db) },
                    on_complete: None,
                },
            ],
        ));
        core.bind_color(5, consumer);
        let text = core.dump_program();
        assert!(text.contains("\"producer\""), "{text}");
        assert!(text.contains("\"consumer\""));
        assert!(text.contains("launch@0 Mul"));
        assert!(text.contains("r1 = 2.5"));
        assert!(text.contains("fifo 0"));
        assert!(text.contains("on color 5 activate task"));
        let _ = producer;
    }

    #[test]
    #[should_panic(expected = "task table full: ids stop at 65534")]
    fn add_task_refuses_the_empty_slot_mark() {
        let mut core = Core::new();
        for want in 0..TaskId::MAX {
            assert_eq!(core.add_task(Task::new("t", vec![])), want);
        }
        core.add_task(Task::new("t", vec![]));
    }

    #[test]
    #[should_panic(expected = "DSR table full: ids stop at 65535")]
    fn add_dsr_refuses_an_id_past_16_bits() {
        let mut core = Core::new();
        for want in 0..=DsrId::MAX {
            assert_eq!(core.add_dsr(mk::tensor16(0, 1)), want);
        }
        core.add_dsr(mk::tensor16(0, 1));
    }

    #[test]
    #[should_panic(expected = "FIFO table full: ids stop at 65535")]
    fn add_fifo_refuses_an_id_past_16_bits() {
        let mut core = Core::new();
        for want in 0..=FifoId::MAX {
            assert_eq!(core.add_fifo(Fifo::new(0, 1, Dtype::F16, None)), want);
        }
        core.add_fifo(Fifo::new(0, 1, Dtype::F16, None));
    }

    #[test]
    fn injection_arbiter_matches_a_plain_round_robin_scan() {
        // The arbiter walks a non-empty-color bitmask; the specification is
        // the plain scan: starting at the cursor, the first color whose head
        // flit fits the budget and is ready wins, and the cursor moves past
        // it. Drive both with the same pushes, budgets, and held colors.
        use std::collections::VecDeque;
        let mut core = Core::new();
        let mut model: Vec<VecDeque<Flit>> = vec![VecDeque::new(); NUM_COLORS];
        let mut model_rr = 0usize;
        let mut rng = crate::fault::SplitMix64::new(2020);
        let mut rand = |n: u64| rng.below(n);
        for step in 0..4000 {
            if rand(3) > 0 {
                let c = [0usize, 1, 7, 12, 22, 23][rand(6) as usize];
                if model[c].len() < RAMP_OUT_CAPACITY {
                    let flit =
                        if rand(4) == 0 { Flit::f32(step as f32) } else { Flit::f16(step as u16) };
                    model[c].push_back(flit);
                    core.ramp_out.entry(c).push_back(flit);
                    core.ramp_out_mask |= 1 << c;
                }
            }
            let budget = [0u32, 2, 4][rand(3) as usize];
            let held = rand(1 << NUM_COLORS) as u32 & rand(1 << NUM_COLORS) as u32;
            let ready = |c: Color| held >> c & 1 == 0;
            let want = (0..NUM_COLORS).map(|i| (model_rr + i) % NUM_COLORS).find_map(|c| {
                let flit = *model[c].front()?;
                (flit.bytes() <= budget && ready(c as Color)).then_some((c as Color, flit))
            });
            if let Some((c, _)) = want {
                model[c as usize].pop_front();
                model_rr = (c as usize + 1) % NUM_COLORS;
            }
            assert_eq!(core.pop_ramp_out_ready(budget, ready), want, "step {step}");
            assert_eq!(core.ramp_out_len(), model.iter().map(|q| q.len()).sum::<usize>());
        }
    }

    #[test]
    fn ramp_out_backpressure_stalls_sender() {
        // Send more than RAMP_OUT_CAPACITY without draining: the thread
        // must stall rather than overflow.
        let n = 32;
        let vals: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        let (mut core, mut mem, aa, _) = setup(&vals, &[0.0]);
        let dsrc = core.add_dsr(mk::tensor16(aa, n as u32));
        let dtx = core.add_dsr(mk::tx16(1, n as u32));
        let t = core.add_task(Task::new(
            "send",
            vec![Stmt::Exec(TensorInstr { op: Op::Copy, dst: Some(dtx), a: Some(dsrc), b: None })],
        ));
        core.activate(t);
        run(&mut core, &mut mem, 50);
        assert!(!core.is_quiescent(), "sender must be stalled on backpressure");
        assert_eq!(core.ramp_out_len(), RAMP_OUT_CAPACITY);
        // Drain and let it finish.
        let mut got = Vec::new();
        for c in 0..100 {
            got.extend(drain_ramp_out(&mut core, 4));
            core.step(&mut mem, c);
        }
        got.extend(drain_ramp_out(&mut core, 4));
        assert!(core.is_quiescent());
        assert_eq!(got.len(), n);
    }

    #[test]
    fn reset_transient_rewinds_to_start_state() {
        // Wedge a core mid-send (ramp_out backpressure, never drained),
        // then reset and confirm it can run the same program again.
        let vals: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let (mut core, mut mem, aa, _) = setup(&vals, &[0.0]);
        let dsrc = core.add_dsr(mk::tensor16(aa, 16));
        let dtx = core.add_dsr(mk::tx16(1, 16));
        let t = core.add_task(Task::new(
            "send",
            vec![Stmt::Exec(TensorInstr { op: Op::Copy, dst: Some(dtx), a: Some(dsrc), b: None })],
        ));
        core.activate(t);
        run(&mut core, &mut mem, 30);
        assert!(!core.is_quiescent(), "must be wedged on backpressure");
        assert_eq!(core.current_task_name(), Some("send"));

        core.reset_transient();
        assert!(core.is_quiescent());
        assert_eq!(core.current_task_name(), None);
        assert_eq!(core.active_threads(), 0);
        assert_eq!(core.ramp_out_len(), 0);
        assert_eq!(core.dsr(dsrc).pos, 0, "DSR cursors rewound");

        // The program is intact: re-activating and draining completes it.
        core.activate(t);
        let mut got = 0;
        for c in 0..80 {
            core.step(&mut mem, c);
            got += drain_ramp_out(&mut core, 4).len();
        }
        assert!(core.is_quiescent());
        assert_eq!(got, 16);
    }

    #[test]
    fn sched_state_roundtrip() {
        let (mut core, _, aa, _) = setup(&[0.0; 8], &[0.0]);
        let d = core.add_dsr(mk::acc16(aa, 8));
        let a = core.add_task(Task::new("a", vec![]));
        let b = core.add_task(Task::new("b", vec![]).blocked());
        core.dsrs[d as usize].advance(5);
        core.activate(a);
        let snap = core.sched_state();

        core.reset_transient();
        assert_eq!(core.dsr(d).pos, 0);
        assert!(!core.task_activated(a));

        core.restore_sched_state(&snap);
        assert_eq!(core.dsr(d).pos, 5);
        assert!(core.task_activated(a));
        assert!(core.task_blocked(b));
        assert_eq!(core.sched_state(), snap);
    }

    #[test]
    fn read_only_views_expose_program_structure() {
        let mut core = Core::new();
        let d = core.add_dsr(mk::tensor16(0, 8));
        let f = core.add_fifo(Fifo::new(64, 20, Dtype::F16, None));
        let a = core.add_task(Task::new("entry", vec![]));
        let b = core.add_task(Task::new("helper", vec![]).blocked().priority(3));
        core.bind_color(5, b);
        core.mark_entry(a);
        core.mark_entry(a); // idempotent

        assert_eq!(core.image().tasks.len(), 2);
        assert_eq!(core.image().tasks[b as usize].name, "helper");
        assert_eq!(core.image().tasks[b as usize].priority, 3);
        let names: Vec<_> = core.tasks().map(|(id, t)| (id, t.name)).collect();
        assert_eq!(names, vec![(a, "entry"), (b, "helper")]);
        assert!(core.task_blocked(b));
        assert!(!core.task_blocked(a));
        assert!(!core.task_activated(a));
        core.activate(a);
        assert!(core.task_activated(a));

        assert_eq!(core.image().bindings, [ColorBinding { color: 5, task: b }]);
        assert_eq!(core.image().entries, [a]);

        assert_eq!(core.num_dsrs(), 1);
        assert_eq!(core.dsrs().next().unwrap().0, d);
        assert_eq!(core.num_fifos(), 1);
        let (fid, fifo) = core.fifos().next().unwrap();
        assert_eq!(fid, f);
        assert_eq!(fifo.capacity, 20);
    }
}
