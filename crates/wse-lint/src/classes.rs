//! Tile classes: the SPMD structure of a wafer program, recovered.
//!
//! The paper's programs are one task program per tile with a handful of
//! edge variants, so almost everything a tile-local rule can say about a
//! tile it can say about every tile configured the same way. Two tiles are
//! in one *class* when they agree on exactly what the tile-local rules
//! read:
//!
//! * the program image ([`wse_arch::CoreImage`]: every task's body, name,
//!   priority and start flags, the data-trigger bindings and the declared
//!   entry tasks) and every task's current activated / blocked flags;
//! * every DSR's registered descriptor (not its cursor);
//! * every FIFO's base, capacity, element type and `onpush` task;
//! * the allocation map;
//! * the route table.
//!
//! SRAM *contents* and the register file are deliberately not part of the
//! key — no rule reads them, and with coefficients loaded every tile would
//! be its own class. Neither is the tile's position: findings that depend
//! on the neighbourhood (dangling and off-fabric routes, route cycles, flow
//! queries) are not class properties and stay per tile.
//!
//! Classes are found by a digest and **confirmed by structural equality**
//! ([`same_class`]): a digest collision costs a comparison, never a shared
//! verdict. A tile nothing else resembles is simply a class of one — there
//! is no second, per-tile walk.

use crate::dataflow::WaitSite;
use crate::program::{ColorSet, TileFacts};
use crate::rules;
use crate::{LintStats, Pass, Rule, Severity};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;
use wse_arch::fabric::Tile;
use wse_arch::types::Color;

/// A tile-local finding: a diagnostic without its coordinates.
#[derive(Clone, Debug)]
pub(crate) struct Finding {
    pub rule: Rule,
    pub severity: Severity,
    pub message: String,
}

impl Finding {
    pub fn error(rule: Rule, message: String) -> Finding {
        Finding { rule, severity: Severity::Error, message }
    }
}

/// A data race whose verdict hangs on one whole-fabric fact the class
/// cannot know: whether `color`, injected at the tile's ramp, finds its way
/// back to that ramp *through other tiles* (the in-place loopback exemption
/// of [`rules::races`]). Each member tile answers with one flow query.
#[derive(Clone, Debug)]
pub(crate) struct LoopRace {
    pub color: Color,
    /// What to report where the color loops back (`None`: exempt).
    pub looped: Option<String>,
    /// What to report where it does not.
    pub unlooped: Option<String>,
}

/// Everything the linter keeps of one tile class once its facts are
/// dropped.
pub(crate) struct Class {
    /// Findings every member tile shares, to be stamped with coordinates.
    pub findings: Vec<Finding>,
    /// Race findings pending a per-tile loopback query.
    pub loop_races: Vec<LoopRace>,
    /// Wait sites of reachable tasks in task then statement order, with
    /// zero coordinates.
    pub waits: Vec<WaitSite>,
    /// Per wait site: the latest *synchronous* wait before it in the same
    /// task body, as an index into `waits`.
    pub gates: Vec<Option<usize>>,
    /// Colors the tile waits for (data-trigger bindings of reachable tasks
    /// and receive sites) that its own router delivers to the ramp.
    pub consumers: Vec<Color>,
    /// Colors the tile's wait sites send on.
    pub sends: ColorSet,
}

impl Class {
    /// Runs every tile-local rule once over the facts of `tile`.
    pub fn analyze(tile: &Tile, stats: &mut LintStats) -> Class {
        let mut clock = Instant::now();
        let facts = TileFacts::build(tile, stats);
        let (waits, gates) = wait_sites(&facts);
        let mut wanted = ColorSet::default();
        for b in tile
            .core
            .image()
            .bindings
            .iter()
            .filter(|b| facts.reachable.get(b.task as usize) == Some(&true))
        {
            wanted.insert(b.color);
        }
        let mut sends = ColorSet::default();
        for w in &waits {
            if let Some((c, _)) = w.recv {
                wanted.insert(c);
            }
            if let Some((c, _)) = w.send {
                sends.insert(c);
            }
        }
        let consumers = wanted.iter().filter(|&c| facts.delivered.contains(c)).collect();
        stats.lap(Pass::Model, &mut clock);

        let mut findings = Vec::new();
        let mut loop_races = Vec::new();
        rules::routes::check_local(&facts, &mut findings);
        stats.lap(Pass::Routes, &mut clock);
        rules::colors::check(&facts, &mut findings);
        stats.lap(Pass::Colors, &mut clock);
        rules::memory::check(&facts, &mut findings);
        stats.lap(Pass::Memory, &mut clock);
        rules::tasks::check(&facts, &mut findings);
        stats.lap(Pass::Tasks, &mut clock);
        rules::races::check_local(&facts, &mut findings, &mut loop_races);
        stats.lap(Pass::Races, &mut clock);
        Class { findings, loop_races, waits, gates, consumers, sends }
    }
}

/// Extracts the wait sites of the reachable tasks — the statements that can
/// block the main thread or gate later ones: fabric receives and sends —
/// and each one's gate.
fn wait_sites(facts: &TileFacts<'_>) -> (Vec<WaitSite>, Vec<Option<usize>>) {
    let mut waits: Vec<WaitSite> = Vec::new();
    let mut gates = Vec::new();
    // The latest synchronous wait seen so far in the current task.
    let mut gate: Option<usize> = None;
    for (_, site) in facts.reachable_sites() {
        let (recv, send) = (site.recv(), site.send());
        if recv.is_none() && send.is_none() {
            continue;
        }
        if waits.last().is_some_and(|w| w.task != site.task) {
            gate = None;
        }
        gates.push(gate);
        if !site.background {
            gate = Some(waits.len());
        }
        waits.push(WaitSite {
            shard: 0,
            x: 0,
            y: 0,
            task: site.task,
            task_name: site.task_name,
            stmt: site.stmt,
            background: site.background,
            recv,
            send,
        });
    }
    (waits, gates)
}

/// A multiply-rotate hasher (the FxHash recurrence): the class digest is
/// hashed field by field through derived `Hash` impls, which is many small
/// writes — the shape SipHash is slowest at. Collisions only cost an
/// equality check, so strength is not a concern.
#[derive(Default)]
struct Digest(u64);

impl Hasher for Digest {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// Digest of the class key.
pub(crate) fn digest(tile: &Tile) -> u64 {
    let mut h = Digest::default();
    let core = &tile.core;
    (core.image(), core.task_flags()).hash(&mut h);
    core.num_dsrs().hash(&mut h);
    for (_, d) in core.dsrs() {
        d.desc.hash(&mut h);
    }
    core.num_fifos().hash(&mut h);
    for (_, f) in core.fifos() {
        (f.base, f.capacity, f.dtype, f.onpush).hash(&mut h);
    }
    tile.mem.allocations().hash(&mut h);
    for route in tile.router.routes() {
        route.hash(&mut h);
    }
    h.finish()
}

/// Structural equality over the class key (see the module docs); tiles
/// sharing one image skip comparing it.
pub(crate) fn same_class(a: &Tile, b: &Tile) -> bool {
    let (ca, cb) = (&a.core, &b.core);
    (Arc::ptr_eq(ca.image(), cb.image()) || ca.image() == cb.image())
        && ca.task_flags() == cb.task_flags()
        && ca.num_dsrs() == cb.num_dsrs()
        && ca.dsrs().zip(cb.dsrs()).all(|((_, da), (_, db))| da.desc == db.desc)
        && ca.num_fifos() == cb.num_fifos()
        && ca.fifos().zip(cb.fifos()).all(|((_, fa), (_, fb))| {
            (fa.base, fa.capacity, fa.dtype, fa.onpush)
                == (fb.base, fb.capacity, fb.dtype, fb.onpush)
        })
        && a.mem.allocations() == b.mem.allocations()
        && a.router.routes().eq(b.router.routes())
}
