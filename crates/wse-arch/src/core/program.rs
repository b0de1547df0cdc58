//! The core's program tables — tasks, DSRs, FIFOs and color bindings — with
//! their builders, read-only views and the disassembler text.

use super::{Core, TaskState};
use crate::dsr::{Descriptor, Dsr};
use crate::fifo::Fifo;
use crate::instr::{ColorBinding, Stmt, Task};
use crate::types::{Color, DsrId, FifoId, TaskId, NUM_COLORS};

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
        let st = TaskState { activated: task.start_activated, blocked: task.start_blocked, task };
        let id = next_id(self.tasks.len(), TaskId::MAX - 1, "task");
        if id.is_multiple_of(64) {
            self.runnable_bits.push(0);
        }
        if st.activated && !st.blocked {
            self.set_runnable(id, true);
        }
        self.tasks.push(st);
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
        self.tasks[task as usize].task.body = body.into_boxed_slice();
    }

    /// Binds arriving data on `color` to activate `task`.
    ///
    /// # Panics
    /// Panics if `color` is not one of the [`NUM_COLORS`] channels.
    pub fn bind_color(&mut self, color: Color, task: TaskId) {
        assert!((color as usize) < NUM_COLORS, "color {color} out of range");
        self.bindings.push(ColorBinding { color, task });
        self.bound_mask |= 1 << color;
    }

    /// Declares `task` an entry point the host will activate externally.
    /// Kernel builders call this for every task they hand back to host-side
    /// drivers, so the static verifier can seed its reachability analysis.
    pub fn mark_entry(&mut self, task: TaskId) {
        if !self.entries.contains(&task) {
            self.entries.push(task);
        }
    }

    /// Tasks declared as host-activated entry points (see
    /// [`Core::mark_entry`]).
    pub fn entry_tasks(&self) -> &[TaskId] {
        &self.entries
    }

    /// Number of registered tasks.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Read-only view of a task's program (body, priority, name).
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id as usize].task
    }

    /// Iterates every registered task with its id.
    pub fn tasks(&self) -> impl Iterator<Item = (TaskId, &Task)> {
        self.tasks.iter().enumerate().map(|(id, st)| (id as TaskId, &st.task))
    }

    /// Current blocked flag of a task (equals `start_blocked` before the
    /// first cycle, which is when the linter looks).
    pub fn task_blocked(&self, id: TaskId) -> bool {
        self.tasks[id as usize].blocked
    }

    /// Current activation flag of a task.
    pub fn task_activated(&self, id: TaskId) -> bool {
        self.tasks[id as usize].activated
    }

    /// The color → task data-trigger bindings.
    pub fn bindings(&self) -> &[ColorBinding] {
        &self.bindings
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
        let running = self.main.as_ref().map(|r| r.id as usize);
        for (i, t) in self.tasks.iter().enumerate() {
            let _ = writeln!(
                out,
                "task {i} \"{}\" prio {}{}{}{} {{",
                t.task.name,
                t.task.priority,
                if t.blocked { " [blocked]" } else { "" },
                if t.activated { " [activated]" } else { "" },
                if running == Some(i) { " [running]" } else { "" },
            );
            for stmt in &t.task.body {
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
        for b in &self.bindings {
            let _ = writeln!(out, "on color {} activate task {}", b.color, b.task);
        }
        out
    }
}
