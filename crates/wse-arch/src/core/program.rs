//! The core's program: the [`CoreImage`] (tasks, color bindings, entry
//! points), which stepping never writes and clones share, the per-tile DSR
//! and FIFO tables, their builders and views, and the disassembler text.

use super::{Core, ACTIVATED, BLOCKED};
use crate::dsr::{Descriptor, Dsr};
use crate::fifo::Fifo;
use crate::instr::{ColorBinding, Stmt, Task};
use crate::types::{Color, DsrId, FifoId, TaskId, NUM_COLORS};
use std::sync::Arc;

/// What of a core's program stepping never writes. A [`Core`] holds it
/// behind an `Arc`, so a cloned or blitted tile shares its source's image;
/// the builders copy it on write, so an edit reaches no other tile.
#[derive(Clone, Debug, Default, PartialEq, Hash)]
pub struct CoreImage {
    /// The task table (body, priority, name, start flags), by [`TaskId`].
    pub tasks: Vec<Task>,
    /// The color → task data-trigger bindings.
    pub bindings: Vec<ColorBinding>,
    /// Tasks the host is expected to activate externally (entry points).
    /// Purely declarative — recorded by kernel builders so static analysis
    /// knows where control can enter; the simulator never reads it.
    pub entries: Vec<TaskId>,
    /// Bit `c` set when some task is bound to color `c`.
    pub(super) bound_mask: u32,
}

/// The id of a `len`-entry table's next entry; refuses one past `limit`.
fn next_id(len: usize, limit: u16, what: &str) -> u16 {
    match u16::try_from(len) {
        Ok(id) if id <= limit => id,
        _ => panic!("{what} table full: ids stop at {limit}"),
    }
}

impl Core {
    /// Registers a DSR, returning its id (panics past [`DsrId::MAX`]).
    pub fn add_dsr(&mut self, desc: Descriptor) -> DsrId {
        let id = next_id(self.dsrs.len(), DsrId::MAX, "DSR");
        self.dsrs.push(Dsr::new(desc));
        id
    }

    /// Reads a DSR's state (test/diagnostic access).
    pub fn dsr(&self, id: DsrId) -> &Dsr {
        &self.dsrs[id as usize]
    }

    /// Registers a hardware FIFO, returning its id (panics past [`FifoId::MAX`]).
    pub fn add_fifo(&mut self, fifo: Fifo) -> FifoId {
        let id = next_id(self.fifos.len(), FifoId::MAX, "FIFO");
        self.fifos.push(fifo);
        id
    }

    /// Reads a FIFO's state (test/diagnostic access).
    pub fn fifo(&self, id: FifoId) -> &Fifo {
        &self.fifos[id as usize]
    }

    /// Registers a task, returning its id. Panics rather than hand out
    /// [`TaskId::MAX`], which callers keep as an empty-slot mark.
    pub fn add_task(&mut self, task: Task) -> TaskId {
        let id = next_id(self.image.tasks.len(), TaskId::MAX - 1, "task");
        if id.is_multiple_of(64) {
            self.flags.push([0, 0]);
        }
        self.set_flag(id, ACTIVATED, task.start_activated);
        self.set_flag(id, BLOCKED, task.start_blocked);
        Arc::make_mut(&mut self.image).tasks.push(task);
        id
    }

    /// Replaces a task's body. Kernel builders use this when a task must
    /// exist (so FIFOs/triggers can name it) before the DSRs its body
    /// references have been created.
    ///
    /// # Panics
    /// Panics if the task is currently running.
    pub fn set_task_body(&mut self, task: TaskId, body: Vec<Stmt>) {
        assert!(
            self.main.as_ref().is_none_or(|r| r.id != task),
            "cannot rewrite the body of a running task"
        );
        Arc::make_mut(&mut self.image).tasks[task as usize].body = body.into_boxed_slice();
    }

    /// Binds arriving data on `color` to activate `task`.
    ///
    /// # Panics
    /// Panics if `color` is not one of the [`NUM_COLORS`] channels.
    pub fn bind_color(&mut self, color: Color, task: TaskId) {
        assert!((color as usize) < NUM_COLORS, "color {color} out of range");
        let image = Arc::make_mut(&mut self.image);
        image.bindings.push(ColorBinding { color, task });
        image.bound_mask |= 1 << color;
    }

    /// Declares `task` an entry point the host will activate externally.
    /// Kernel builders call this for every task they hand back to host-side
    /// drivers, so the static verifier can seed its reachability analysis.
    pub fn mark_entry(&mut self, task: TaskId) {
        if !self.image.entries.contains(&task) {
            Arc::make_mut(&mut self.image).entries.push(task);
        }
    }

    /// The core's program image, shared with every clone of this core that
    /// no builder has edited since.
    pub fn image(&self) -> &Arc<CoreImage> {
        &self.image
    }

    /// Iterates every registered task with its id.
    pub fn tasks(&self) -> impl Iterator<Item = (TaskId, &Task)> {
        self.image.tasks.iter().enumerate().map(|(id, t)| (id as TaskId, t))
    }

    /// Current blocked flag of a task (equals `start_blocked` before the
    /// first cycle, which is when the linter looks).
    pub fn task_blocked(&self, id: TaskId) -> bool {
        self.flag(id, BLOCKED)
    }

    /// Current activation flag of a task.
    pub fn task_activated(&self, id: TaskId) -> bool {
        self.flag(id, ACTIVATED)
    }

    /// One past the fabric cycle whose step last retired task `id` (zero
    /// before its first retirement): a run over cycles `[t0, t1)` ran the
    /// task to its end iff `t0 < task_end(id) <= t1`.
    pub fn task_end(&self, id: TaskId) -> u64 {
        self.ended.get(id as usize).copied().unwrap_or(0)
    }

    /// Every task's activation and blocked flags, 64 tasks per pair of
    /// words (bit `id % 64` of `[activated, blocked]` at `id / 64`): the run
    /// state the image leaves out.
    pub fn task_flags(&self) -> &[[u64; 2]] {
        &self.flags
    }

    /// Number of registered DSRs.
    pub fn num_dsrs(&self) -> usize {
        self.dsrs.len()
    }

    /// Iterates every DSR with its id.
    pub fn dsrs(&self) -> impl Iterator<Item = (DsrId, &Dsr)> {
        self.dsrs.iter().enumerate().map(|(id, d)| (id as DsrId, d))
    }

    /// Number of registered FIFOs.
    pub fn num_fifos(&self) -> usize {
        self.fifos.len()
    }

    /// Iterates every FIFO with its id.
    pub fn fifos(&self) -> impl Iterator<Item = (FifoId, &Fifo)> {
        self.fifos.iter().enumerate().map(|(id, f)| (id as FifoId, f))
    }

    /// Renders the core's program (tasks, bodies, DSRs, FIFOs) as
    /// CSL-flavored text — the disassembler view for debugging kernel
    /// builders.
    pub fn dump_program(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, d) in self.dsrs.iter().enumerate() {
            let _ = writeln!(out, "dsr {i}: {:?} (pos {})", d.desc, d.pos);
        }
        for (i, f) in self.fifos.iter().enumerate() {
            let _ = writeln!(
                out,
                "fifo {i}: base {} cap {} {:?} onpush {:?} (len {})",
                f.base,
                f.capacity,
                f.dtype,
                f.onpush,
                f.len()
            );
        }
        let running = self.main.as_ref().map(|r| r.id);
        for (i, t) in self.tasks() {
            let _ = writeln!(
                out,
                "task {i} \"{}\" prio {}{}{}{} {{",
                t.name,
                t.priority,
                if self.task_blocked(i) { " [blocked]" } else { "" },
                if self.task_activated(i) { " [activated]" } else { "" },
                if running == Some(i) { " [running]" } else { "" },
            );
            for stmt in &t.body {
                let line = match stmt {
                    Stmt::Exec(instr) => format!(
                        "exec {:?} dst={:?} a={:?} b={:?}",
                        instr.op, instr.dst, instr.a, instr.b
                    ),
                    Stmt::Launch { slot, instr, on_complete } => format!(
                        "launch@{slot} {:?} dst={:?} a={:?} b={:?} then {:?}",
                        instr.op, instr.dst, instr.a, instr.b, on_complete
                    ),
                    Stmt::InitDsr { dsr, desc } => format!("init dsr {dsr} = {desc:?}"),
                    Stmt::TaskCtl { task, action } => format!("{action:?}(task {task})"),
                    Stmt::RegArith { op, dst, a, b } => format!("r{dst} = r{a} {op:?} r{b}"),
                    Stmt::SetReg { reg, value } => format!("r{reg} = {value}"),
                };
                let _ = writeln!(out, "  {line}");
            }
            let _ = writeln!(out, "}}");
        }
        for b in &self.image.bindings {
            let _ = writeln!(out, "on color {} activate task {}", b.color, b.task);
        }
        out
    }
}
