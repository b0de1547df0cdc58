//! Data-race / determinism checking over per-task SRAM access sets.
//!
//! A tile's main thread serializes task bodies, so two synchronous
//! statements can never race. Concurrency enters through `Launch`: a
//! background thread is live from its launch until its operands exhaust,
//! overlapping every statement the main thread executes in the meantime.
//! For each background site this pass computes the SRAM bytes it reads
//! and writes (from the resolved instruction sites, the same model
//! [`crate::rules::memory`] audits) and compares them against every site
//! that can run while the thread is live:
//!
//! * later statements of the launching task (any kind);
//! * statements of every task reachable *from the launch onward* through
//!   the activation graph — `TaskCtl` activations, other sites' completion
//!   triggers, FIFO `onpush` targets, and local data triggers fed by
//!   colors the dispatch itself produces.
//!
//! Ordered code is exempt: tasks whose every activation path begins at
//! this launch's own completion trigger run strictly after the thread
//! finishes. Distinct host entry points are assumed host-sequenced (the
//! run model activates one dispatch and drains it), and FIFO traffic is
//! exempt — push/pop through the hardware FIFO is the sanctioned
//! synchronization. So is the pipelined in-place loopback idiom: one site
//! reads a buffer and streams it into the fabric, the other receives the
//! same color and writes the same buffer back — the channel delivers
//! element `i` only after it was read, so with identical descriptors the
//! write of `i` always happens after the read of `i`. And so are pairs of
//! read-modify-write *accumulations* (`u += ...`): the datapath issues one
//! context per cycle, making each element update atomic, and the adds
//! commute — the paper's FIFO-drain `sumtask` accumulating next to the
//! loopback add relies on exactly this. Other overlapping writes, or a
//! write overlapping a concurrent read, are [`crate::Rule::DataRace`]
//! errors: element interleaving between threads is scheduler-dependent, so
//! the result is nondeterministic.

use crate::classes::{Finding, LoopRace};
use crate::dataflow::Model;
use crate::program::{Access, InstrSite, TileFacts, Via};
use crate::{Diagnostic, Rule};
use wse_arch::dsr::Descriptor;
use wse_arch::instr::TaskAction;
use wse_arch::types::{Color, TaskId};

/// The per-tile half: resolves each class's pending loopback exemptions
/// with one flow query per `(tile, color)` and reports what is left.
pub(crate) fn check(model: &Model<'_>, diags: &mut Vec<Diagnostic>) {
    for (s, x, y, class) in model.tiles() {
        let mut asked: Vec<(Color, bool)> = Vec::new();
        for race in &class.loop_races {
            let looped = match asked.iter().find(|(c, _)| *c == race.color) {
                Some(&(_, looped)) => looped,
                None => {
                    let looped = model
                        .flow_from_ramp(s, x, y, race.color)
                        .delivered
                        .contains_key(&(s, x, y));
                    asked.push((race.color, looped));
                    looped
                }
            };
            if let Some(message) = if looped { &race.looped } else { &race.unlooped } {
                diags.push(model.ens.error(s, x, y, Rule::DataRace, message.clone()));
            }
        }
    }
}

impl Access {
    /// Whether any byte of `self` can coincide with a byte of `other`.
    /// Dense accesses overlap iff their extents do; equal-stride strided
    /// accesses additionally need congruent residues — two interleaved
    /// strips (`addr` differing by less than the stride) share an extent
    /// but never a byte. Unequal strides fall back to the extent test.
    fn overlaps(self, other: Access) -> bool {
        if !self.extent_overlaps(other) {
            return false;
        }
        if self.period != other.period {
            return true;
        }
        let p = self.period;
        let ra = self.start % p;
        let rb = other.start % p;
        (rb + p - ra) % p < self.elem || (ra + p - rb) % p < other.elem
    }
}

/// The class half: every launch of a reachable task against every site
/// that can run while its thread is live.
pub(crate) fn check_local(
    facts: &TileFacts<'_>,
    findings: &mut Vec<Finding>,
    loop_races: &mut Vec<LoopRace>,
) {
    let mut order = Ordering::new(facts);
    for (li, launch) in facts.reachable_sites() {
        if !launch.background {
            continue;
        }
        order.around(li);
        for (si, other) in facts.reachable_sites() {
            if si == li {
                continue;
            }
            let live_overlap = if other.task == launch.task {
                // Earlier same-task *background* pairs are reported once,
                // from the earlier launch's iteration.
                other.stmt > launch.stmt
            } else {
                order.concurrent[other.task as usize] && !order.after[other.task as usize]
            };
            if !live_overlap {
                continue;
            }
            let (l_writes, o_writes) = (launch.write.as_slice(), other.write.as_slice());
            // Channel-ordered in-place loopback pairs are deterministic.
            let pairs = [
                (l_writes, o_writes, "write", "write", Exempt::No),
                (l_writes, &other.reads[..], "write", "read", flow_through(facts, other, launch)),
                (&launch.reads[..], o_writes, "read", "write", flow_through(facts, launch, other)),
            ];
            for (a, b, a_kind, b_kind, exempt) in pairs {
                let report = |exempt| first_overlap(launch, other, a, b, a_kind, b_kind, exempt);
                match exempt {
                    Exempt::No => findings.extend(report(None).map(race)),
                    Exempt::Yes(extent) => findings.extend(report(Some(extent)).map(race)),
                    Exempt::IfLooped(color, extent) => {
                        let (looped, unlooped) = (report(Some(extent)), report(None));
                        if looped == unlooped {
                            findings.extend(looped.map(race));
                        } else {
                            loop_races.push(LoopRace { color, looped, unlooped });
                        }
                    }
                }
            }
        }
    }
}

fn race(message: String) -> Finding {
    Finding::error(Rule::DataRace, message)
}

/// The first reportable overlap between two access lists, as the
/// diagnostic message — one per site pair and direction is enough.
fn first_overlap(
    launch: &InstrSite,
    other: &InstrSite,
    a: &[Access],
    b: &[Access],
    a_kind: &str,
    b_kind: &str,
    exempt: Option<Access>,
) -> Option<String> {
    for ea in a {
        for eb in b {
            if !ea.overlaps(*eb) {
                continue;
            }
            // Two atomic accumulations commute; the sum lands either way.
            if ea.accum && eb.accum {
                continue;
            }
            if exempt == Some(*ea) && exempt == Some(*eb) {
                continue;
            }
            let lo = ea.start.max(eb.start);
            let hi = ea.end.min(eb.end);
            return Some(format!(
                "task {} (\"{}\") stmt {} launches a thread whose {a_kind} of \
                 [{}, {}) races the {b_kind} of [{}, {}) by task {} (\"{}\") stmt \
                 {}{} on bytes [{lo}, {hi}); the two are not ordered by the \
                 activation graph, so element interleaving decides the result",
                launch.task,
                launch.task_name,
                launch.stmt,
                ea.start,
                ea.end,
                eb.start,
                eb.end,
                other.task,
                other.task_name,
                other.stmt,
                if other.background { " (thread)" } else { "" },
            ));
        }
    }
    None
}

/// Whether a site pair is the pipelined in-place loopback idiom, and for
/// which extent.
enum Exempt {
    No,
    /// The tile's own router loops the color `Ramp -> Ramp`.
    Yes(Access),
    /// A route takes the color off the ramp but not straight back: only a
    /// flow query from the member tile can tell whether it returns.
    IfLooped(Color, Access),
}

/// The pipelined in-place loopback idiom: `reader` reads a memory
/// descriptor and streams it out on a color, `writer` receives that color
/// and writes the *identical* descriptor back, and a route loops the color
/// from this ramp back to this ramp. The channel delivers element `i` only
/// after the reader consumed it, so the write of `i` is ordered after the
/// read of `i` and the pair is deterministic.
fn flow_through(facts: &TileFacts<'_>, reader: &InstrSite, writer: &InstrSite) -> Exempt {
    let Some((color, _)) = reader.send() else { return Exempt::No };
    if !writer
        .sources()
        .any(|d| matches!(d, Descriptor::FabricIn { color: c, len, .. } if c == color && len > 0))
    {
        return Exempt::No;
    }
    let Some(wdst) = writer.dst else { return Exempt::No };
    let Some(extent) = Access::of(&wdst) else { return Exempt::No };
    if !reader.sources().any(|d| d == wdst) {
        return Exempt::No;
    }
    if facts.looped.contains(color) {
        Exempt::Yes(extent)
    } else if facts.ramp_routed.contains(color) {
        Exempt::IfLooped(color, extent)
    } else {
        Exempt::No
    }
}

/// Which tasks are ordered against, and which can run alongside, one
/// launched thread — two worklist closures over the activation graph of
/// [`TileFacts`], with scratch reused across the launches of a tile.
struct Ordering<'f, 'a> {
    facts: &'f TileFacts<'a>,
    /// Tasks ordered strictly *after* the launched thread completes: the
    /// completion trigger's target, grown by tasks whose every activation
    /// source already lies in the set.
    after: Vec<bool>,
    /// Tasks that can run while the launched thread is live: the closure
    /// of the launching task under local activation edges — `TaskCtl`
    /// activations, completion triggers of *other* sites, FIFO `onpush`
    /// targets, and data triggers fed by colors the closure itself sends
    /// to its own ramp. Distinct host entry points are assumed
    /// host-sequenced and excluded unless the closure reaches them.
    concurrent: Vec<bool>,
    /// Per task: activation sources already inside `after`.
    inside: Vec<u32>,
    /// Whether a task may join `after` at all: not already activated, not a
    /// host entry point, not data-triggered — each of those can start it
    /// with no regard to the thread.
    joinable: Vec<bool>,
    work: Vec<TaskId>,
}

impl<'f, 'a> Ordering<'f, 'a> {
    fn new(facts: &'f TileFacts<'a>) -> Self {
        let core = &facts.tile.core;
        let n = core.image().tasks.len();
        let joinable = core
            .tasks()
            .map(|(id, task)| {
                let started_otherwise = task.start_activated
                    || core.task_activated(id)
                    || core.image().entries.contains(&id)
                    || core.image().bindings.iter().any(|b| b.task == id);
                facts.reachable[id as usize] && !started_otherwise
            })
            .collect();
        Ordering {
            facts,
            after: vec![false; n],
            concurrent: vec![false; n],
            inside: vec![0; n],
            joinable,
            work: Vec::new(),
        }
    }

    /// Recomputes both sets for the launch at `sites[li]`.
    fn around(&mut self, li: usize) {
        let facts = self.facts;
        let launch = &facts.sites[li];
        let n = self.after.len();

        self.after.fill(false);
        self.inside.fill(0);
        if let Some((seed, TaskAction::Activate | TaskAction::Unblock)) = launch.on_complete {
            if (seed as usize) < n {
                self.after[seed as usize] = true;
                self.work.push(seed);
            }
        }
        while let Some(id) = self.work.pop() {
            // Only reachable code counts as an activation source.
            if !facts.reachable[id as usize] {
                continue;
            }
            for e in facts.activates[id as usize].iter().filter(|e| e.via != Via::Loop) {
                let to = e.to as usize;
                self.inside[to] += 1;
                if !self.after[to]
                    && self.joinable[to]
                    && self.inside[to] == facts.activation_sources[to]
                {
                    self.after[to] = true;
                    self.work.push(e.to);
                }
            }
        }

        self.concurrent.fill(false);
        self.concurrent[launch.task as usize] = true;
        self.work.push(launch.task);
        while let Some(id) = self.work.pop() {
            for e in &facts.activates[id as usize] {
                let to = e.to as usize;
                if e.via != Via::Complete(li) && facts.reachable[to] && !self.concurrent[to] {
                    self.concurrent[to] = true;
                    self.work.push(e.to);
                }
            }
        }
    }
}
