//! Color-discipline checks.
//!
//! The tessellation function `spmv_color` exists to guarantee that the five
//! streams a tile receives concurrently (its own loopback plus four
//! neighbor broadcasts) arrive on pairwise-distinct colors. This module
//! checks that invariant *generically*: within one task, no two receive
//! streams that can be in flight at the same time may share a color — the
//! router merges same-color flits into one ramp-in queue, so attribution
//! between the two streams would depend on arrival interleaving.
//!
//! Concurrency is approximated statically: a `Launch`ed receive is live for
//! the rest of the task, so two `Launch` sites on one color conflict, as
//! does a `Launch` plus a synchronous `Exec` receive. Two `Exec` receives
//! are serialized by the main thread and are fine (phase-separated reuse,
//! as in BiCGStab, never trips this rule because scopes are per-task).
//!
//! Also here: [`crate::Rule::ColorOutOfRange`] for identifiers outside the
//! hardware's [`NUM_COLORS`] virtual channels.

use crate::classes::Finding;
use crate::program::TileFacts;
use crate::Rule;
use std::collections::BTreeMap;
use wse_arch::dsr::Descriptor;
use wse_arch::types::{Color, TaskId, NUM_COLORS};

/// Runs the color rules on one tile class.
pub(crate) fn check(facts: &TileFacts<'_>, findings: &mut Vec<Finding>) {
    let core = &facts.tile.core;

    // Out-of-range identifiers anywhere a color can appear.
    for desc in facts.descriptors() {
        let (color, dir) = match desc {
            Descriptor::FabricIn { color, .. } => (color, "receives"),
            Descriptor::FabricOut { color, .. } => (color, "sends"),
            _ => continue,
        };
        if color as usize >= NUM_COLORS {
            findings.push(Finding::error(
                Rule::ColorOutOfRange,
                format!(
                    "a descriptor {dir} on color {color}, but the hardware has only \
                     {NUM_COLORS} colors"
                ),
            ));
        }
    }
    for b in &core.image().bindings {
        if b.color as usize >= NUM_COLORS {
            findings.push(Finding::error(
                Rule::ColorOutOfRange,
                format!(
                    "task {} (\"{}\") is bound to color {}, but the hardware has only \
                     {NUM_COLORS} colors",
                    b.task,
                    core.image().tasks[b.task as usize].name,
                    b.color
                ),
            ));
        }
    }

    // Per-task concurrent-receive conflicts. For each task, every receive
    // site per color: (statement index, background?).
    let mut per_task: BTreeMap<TaskId, BTreeMap<Color, Vec<(usize, bool)>>> = BTreeMap::new();
    for site in &facts.sites {
        for desc in site.operands() {
            if let Descriptor::FabricIn { color, .. } = desc {
                per_task
                    .entry(site.task)
                    .or_default()
                    .entry(color)
                    .or_default()
                    .push((site.stmt, site.background));
            }
        }
    }
    for (task, colors) in per_task {
        let name = core.image().tasks[task as usize].name;
        for (color, uses) in colors {
            let launches = uses.iter().filter(|(_, bg)| *bg).count();
            // Conflict when two receives can be live at once: two launched
            // threads, or a launched thread alongside a synchronous one.
            // Multiple synchronous receives are serialized and fine.
            if launches >= 2 || (launches >= 1 && uses.len() > launches) {
                let stmts: Vec<String> = uses
                    .iter()
                    .map(|(s, bg)| format!("stmt {s} ({})", if *bg { "thread" } else { "sync" }))
                    .collect();
                findings.push(Finding::error(
                    Rule::ColorConflict,
                    format!(
                        "task {task} (\"{name}\") receives color {color} from {} \
                         concurrent streams [{}]; same-color flits share one queue, so \
                         attribution between the streams depends on arrival order",
                        uses.len(),
                        stmts.join(", ")
                    ),
                ));
            }
        }
    }
}
