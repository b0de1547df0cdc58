//! Task-activation reachability.
//!
//! Tasks only run when something activates them: the host (declared via
//! [`wse_arch::core::Core::mark_entry`]), a data trigger (color binding), another task's
//! `TaskCtl`, a thread-completion trigger, or a FIFO push with an `onpush`
//! target. This module computes the fixpoint of "can ever activate" from
//! those sources and reports:
//!
//! * tasks outside the fixpoint ([`crate::Rule::UnreachableTask`]) — dead
//!   code, or a missing `mark_entry`/trigger edge;
//! * tasks that start blocked with no reachable unblock
//!   ([`crate::Rule::BlockedForever`]) — activation without an unblock
//!   never runs, the silent variant of a dropped barrier edge;
//! * FIFOs that are written but have neither an `onpush` task nor any
//!   reachable reader ([`crate::Rule::FifoNeverDrained`]).

use crate::classes::Finding;
use crate::program::TileFacts;
use crate::Rule;
use wse_arch::dsr::Descriptor;
use wse_arch::instr::{Stmt, TaskAction};
use wse_arch::types::TaskId;

/// Runs the task rules on one tile class.
pub(crate) fn check(facts: &TileFacts<'_>, findings: &mut Vec<Finding>) {
    let core = &facts.tile.core;

    // Unblock edges available from reachable code.
    let mut unblockable = vec![false; core.image().tasks.len()];
    let mut unblock = |t: TaskId| {
        if let Some(slot) = unblockable.get_mut(t as usize) {
            *slot = true;
        }
    };
    for (id, task) in core.tasks() {
        if !facts.reachable[id as usize] {
            continue;
        }
        for stmt in &task.body {
            if let Stmt::TaskCtl { task: t, action: TaskAction::Unblock } = stmt {
                unblock(*t);
            }
        }
    }
    for (_, site) in facts.reachable_sites() {
        if let Some((t, TaskAction::Unblock)) = site.on_complete {
            unblock(t);
        }
    }

    for (id, task) in core.tasks() {
        if !facts.reachable[id as usize] {
            findings.push(Finding::error(
                Rule::UnreachableTask,
                format!(
                    "task {id} (\"{}\") can never activate: it is not an entry point, \
                     has no deliverable data trigger, and no reachable task or thread \
                     completion activates it",
                    task.name
                ),
            ));
        } else if core.task_blocked(id) && !unblockable[id as usize] {
            findings.push(Finding::error(
                Rule::BlockedForever,
                format!(
                    "task {id} (\"{}\") starts blocked and nothing reachable ever \
                     unblocks it; activations will queue forever",
                    task.name
                ),
            ));
        }
    }

    for (fid, fifo) in core.fifos() {
        let names = |desc: Descriptor| matches!(desc, Descriptor::Fifo { fifo } if fifo == fid);
        let written = facts.reachable_sites().any(|(_, s)| s.dst.is_some_and(names));
        let read = || facts.reachable_sites().any(|(_, s)| s.sources().any(names));
        if written && fifo.onpush.is_none() && !read() {
            findings.push(Finding::error(
                Rule::FifoNeverDrained,
                format!(
                    "fifo {fid} is written by a reachable task but has no onpush \
                     target and no reachable reader; pushes fill it and stall the \
                     writer"
                ),
            ));
        }
    }
}
