//! Static verifier for wafer programs.
//!
//! A wafer program is routing tables, task bodies, DSR descriptors, FIFOs,
//! and color bindings spread across tens of thousands of tiles. Most
//! configuration mistakes — a route into a port nobody drains, two streams
//! sharing a color inside one task, a descriptor reaching past its buffer —
//! surface at runtime as a silent stall hundreds of thousands of cycles in,
//! with nothing but full queues to look at. On hardware that is a hung
//! wafer; in the simulator it is a watchdog `StallReport` naming the wedged
//! tiles, after the fact.
//!
//! `wse-lint` takes a fully configured [`Fabric`] **before any cycle is
//! stepped** and checks the static invariants the paper's programs rely on:
//!
//! * **Route graph** ([`rules::routes`]) — per-color forwarding graphs:
//!   cycles (credit-backpressure deadlock risk), fanout into off-fabric
//!   edges or into neighbor ports with no forwarding rule, ramp deliveries
//!   no task ever consumes, receive configurations no route can feed, and
//!   sends with no route out of the ramp.
//! * **Color discipline** ([`rules::colors`]) — the pairwise-distinct-
//!   channels invariant `spmv_color` promises, checked generically: no two
//!   concurrent receive streams within one task may share a color. Colors
//!   must also be inside the hardware's 24.
//! * **Memory budget** ([`rules::memory`]) — descriptor and FIFO extents
//!   against the 48 KB SRAM and the allocation map, plus partial-overlap
//!   (aliasing) checks between instruction operands.
//! * **Task activation** ([`rules::tasks`]) — reachability from declared
//!   entry points, data triggers, and completion chains: tasks that can
//!   never activate, tasks blocked forever, FIFO pushes with no bound task
//!   or reader.
//! * **Deadlock** ([`rules::deadlock`]) — the whole-fabric waits-for graph
//!   over synchronous sends, receives, and queue backpressure, across seam
//!   channels in an ensemble; every cycle is reported with its full
//!   witness.
//! * **Data races** ([`rules::races`]) — per-task SRAM read/write sets
//!   from resolved instruction sites; overlapping accesses between a
//!   launched background thread and code not ordered against it.
//! * **Progress** ([`rules::progress`]) — every armed consumer is fed by
//!   some producer's route flow, and every seam channel that carries
//!   traffic can drain at its ingress.
//!
//! The entry point is [`lint`] for a single fabric and [`lint_ensemble`]
//! for a multi-wafer ensemble; [`assert_clean`] is the panic-on-findings
//! wrapper kernel builders call in debug builds.
//!
//! A wafer program is SPMD — one task program per tile with a handful of
//! edge variants — and the linter's cost follows that structure, not the
//! tile count: tiles are interned into *classes* (`classes.rs`), each
//! class's program facts (`program.rs`) are derived once, and every
//! tile-local rule runs once per class; only what depends on a tile's
//! neighbourhood (where a fanout lands, route cycles, flow queries) is done
//! per tile. [`lint_with_stats`] reports the work a pass did.

#![warn(missing_docs)]

use std::fmt;
use std::time::Instant;
use wse_arch::fabric::{Fabric, Tile};

mod classes;
pub mod dataflow;
pub mod fixtures;
pub mod mutation;
mod program;
pub mod rules;

#[cfg(test)]
mod tests;

/// How bad a finding is.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but conceivably intended; the program may still run.
    Warning,
    /// The program will stall, lose data, or compute garbage.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Which check produced a finding.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// A route forwards off the edge of the fabric.
    RouteOffFabric,
    /// A route forwards into a neighbor port with no forwarding rule: flits
    /// pile up in that queue and backpressure the sender forever.
    RouteDangling,
    /// The per-color forwarding graph has a cycle; with credit-based
    /// backpressure a filled cycle can never drain (deadlock risk).
    RouteCycle,
    /// A route delivers a color to the ramp of a core with no receive
    /// descriptor for it; the ramp-in queue fills and stalls the router.
    DeadDelivery,
    /// A task consumes a color no route ever delivers to this tile — the
    /// receive can never complete.
    UnreachableReceive,
    /// A task sends on a color with no route out of the ramp — the send
    /// queue fills and the thread never finishes.
    MissingRampRoute,
    /// Two concurrent receive streams in one task share a color; flit
    /// attribution between them is nondeterministic.
    ColorConflict,
    /// A color identifier is outside the hardware's range.
    ColorOutOfRange,
    /// A descriptor or FIFO extent reaches past the 48 KB tile SRAM.
    SramOverBudget,
    /// A descriptor or FIFO extent is not contained in any allocation.
    UnallocatedExtent,
    /// An instruction's destination partially overlaps a source extent;
    /// streamed element order makes the result order-dependent.
    DsrOverlap,
    /// A task can never activate: no entry declaration, data trigger,
    /// completion trigger, or reachable activation names it.
    UnreachableTask,
    /// A task starts blocked and nothing reachable ever unblocks it.
    BlockedForever,
    /// A FIFO is written but has no `onpush` task and no reachable reader —
    /// pushed data is never drained.
    FifoNeverDrained,
    /// A cycle in the whole-fabric waits-for graph: a set of synchronous
    /// sends and receives (and the queues between them) that can never all
    /// retire once the bounded slack fills.
    DeadlockCycle,
    /// A launched background thread's SRAM accesses overlap an access by
    /// code not ordered against it; element interleaving decides the result.
    DataRace,
    /// A consumer routes a color to its ramp but no producer flow in the
    /// whole ensemble reaches it — the consumer arms and waits forever.
    ColorStarved,
    /// Traffic reaches a seam channel whose ingress router cannot forward
    /// it; the queue fills, credits stop returning, the sender wedges.
    CreditStarvation,
}

impl Rule {
    /// Stable kebab-case name (CLI output, test assertions).
    pub fn name(self) -> &'static str {
        match self {
            Rule::RouteOffFabric => "route-off-fabric",
            Rule::RouteDangling => "route-dangling",
            Rule::RouteCycle => "route-cycle",
            Rule::DeadDelivery => "dead-delivery",
            Rule::UnreachableReceive => "unreachable-receive",
            Rule::MissingRampRoute => "missing-ramp-route",
            Rule::ColorConflict => "color-conflict",
            Rule::ColorOutOfRange => "color-out-of-range",
            Rule::SramOverBudget => "sram-over-budget",
            Rule::UnallocatedExtent => "unallocated-extent",
            Rule::DsrOverlap => "dsr-overlap",
            Rule::UnreachableTask => "unreachable-task",
            Rule::BlockedForever => "blocked-forever",
            Rule::FifoNeverDrained => "fifo-never-drained",
            Rule::DeadlockCycle => "deadlock-cycle",
            Rule::DataRace => "data-race",
            Rule::ColorStarved => "color-starved",
            Rule::CreditStarvation => "credit-starvation",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Tile coordinates `(x, y)`.
    pub tile: (usize, usize),
    /// How bad it is.
    pub severity: Severity,
    /// Which check fired.
    pub rule: Rule,
    /// Human-readable detail.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: [{}] tile ({}, {}): {}",
            self.severity, self.rule, self.tile.0, self.tile.1, self.message
        )
    }
}

/// The passes [`LintStats::pass_ns`] attributes host time to.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Pass {
    /// Route rules: the class-local findings, the per-tile link checks and
    /// the cycle searches.
    Routes,
    /// Color rules.
    Colors,
    /// Memory rules.
    Memory,
    /// Task rules.
    Tasks,
    /// Building the model: class interning, program facts, wait sites.
    Model,
    /// The deadlock pass.
    Deadlock,
    /// The race pass: the class-local comparison and the per-tile loopback
    /// queries.
    Races,
    /// The progress pass.
    Progress,
}

impl Pass {
    /// Every pass, in [`LintStats::pass_ns`] order.
    pub const ALL: [Pass; 8] = [
        Pass::Routes,
        Pass::Colors,
        Pass::Memory,
        Pass::Tasks,
        Pass::Model,
        Pass::Deadlock,
        Pass::Races,
        Pass::Progress,
    ];

    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Pass::Routes => "routes",
            Pass::Colors => "colors",
            Pass::Memory => "memory",
            Pass::Tasks => "tasks",
            Pass::Model => "model",
            Pass::Deadlock => "deadlock",
            Pass::Races => "races",
            Pass::Progress => "progress",
        }
    }
}

/// The work one lint pass did. Every counter is deterministic — a function
/// of the program alone; only [`LintStats::pass_ns`] is wall-clock.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LintStats {
    /// Tiles in the ensemble.
    pub tiles: usize,
    /// Tile classes found: sets of tiles configured identically in everything
    /// the tile-local rules read.
    pub classes: usize,
    /// Times the instruction sites of a tile were resolved.
    pub site_resolutions: usize,
    /// Times a tile's activation graph (and reachable set) was built.
    pub graph_builds: usize,
    /// Route-flow searches run by the whole-fabric passes.
    pub flow_queries: usize,
    /// Wait sites in the deadlock graph.
    pub wait_sites: usize,
    /// Host nanoseconds per pass, indexed like [`Pass::ALL`].
    pub pass_ns: [u64; 8],
}

impl LintStats {
    /// Charges the time since `clock` to `pass` and restarts the clock.
    fn lap(&mut self, pass: Pass, clock: &mut Instant) {
        let now = Instant::now();
        self.pass_ns[pass as usize] += now.duration_since(*clock).as_nanos() as u64;
        *clock = now;
    }
}

/// Runs every rule over a configured fabric. No cycle is stepped; the
/// fabric is read-only. Findings are ordered by tile, then rule.
pub fn lint(fabric: &Fabric) -> Vec<Diagnostic> {
    lint_with_stats(fabric).0
}

/// [`lint`], plus an account of the work the pass did.
pub fn lint_with_stats(fabric: &Fabric) -> (Vec<Diagnostic>, LintStats) {
    run(&dataflow::Ensemble::single(fabric), &|_, tile| classes::digest(tile))
}

/// Runs every rule over one rectangular region of a fabric — the
/// admission-control lint gate of the multi-tenant service: a tenant
/// program is verified *in isolation* before (or after) it is placed on
/// the shared fabric.
///
/// The region's tiles are extracted into a scratch region-sized fabric
/// ([`Fabric::extract_region`] — routing is per-tile, so the extract is
/// exactly the program a dedicated fabric of that shape would hold) and
/// linted there. This makes containment an enforced invariant for free: a
/// route that escapes the region surfaces as `route-off-fabric` /
/// `route-dangling` on the extract. Diagnostic coordinates are mapped
/// back to absolute fabric coordinates.
///
/// # Panics
/// Panics if the region reaches outside the fabric.
pub fn lint_region(fabric: &Fabric, region: wse_arch::Region) -> Vec<Diagnostic> {
    let scratch = fabric.extract_region(region);
    let mut diags = lint(&scratch);
    for d in &mut diags {
        d.tile.0 += region.x;
        d.tile.1 += region.y;
    }
    diags
}

/// Runs every rule over a multi-wafer ensemble: the per-shard rules on each
/// shard (diagnostic x coordinates globalized by the shard's offset), then
/// the whole-ensemble passes — deadlock, data races, progress — over the
/// shared dataflow model with seam channels included. No cycle is stepped.
pub fn lint_ensemble(ens: &dataflow::Ensemble<'_>) -> Vec<Diagnostic> {
    run(ens, &|_, tile| classes::digest(tile)).0
}

/// The one lint pass. `digest(tile index, tile)` only *proposes* classes —
/// membership is confirmed by structural equality — so tests can salt it
/// (every tile its own class) or flatten it (every tile collides) and must
/// get the same diagnostics.
fn run(
    ens: &dataflow::Ensemble<'_>,
    digest: &dyn Fn(usize, &Tile) -> u64,
) -> (Vec<Diagnostic>, LintStats) {
    let mut stats = LintStats::default();
    let model = dataflow::Model::build(ens, digest, &mut stats);
    let mut diags = Vec::new();
    let mut clock = Instant::now();
    model.local_findings(&mut diags);
    stats.lap(Pass::Model, &mut clock);
    rules::routes::check(&model, &mut diags);
    stats.lap(Pass::Routes, &mut clock);
    rules::deadlock::check(&model, &mut diags);
    stats.lap(Pass::Deadlock, &mut clock);
    rules::races::check(&model, &mut diags);
    stats.lap(Pass::Races, &mut clock);
    rules::progress::check(&model, &mut diags);
    stats.lap(Pass::Progress, &mut clock);
    stats.flow_queries = model.flow_queries();
    diags.sort_by(|a, b| {
        (a.tile.1, a.tile.0, a.rule, &a.message).cmp(&(b.tile.1, b.tile.0, b.rule, &b.message))
    });
    (diags, stats)
}

/// Lints and panics with a formatted report if any diagnostic is found.
/// Kernel builders call this at the end of program construction in debug
/// builds, so a misconfigured program fails at build time, not as a stall a
/// million cycles later.
///
/// # Panics
/// Panics if [`lint`] returns any diagnostics.
pub fn assert_clean(fabric: &Fabric) {
    let diags = lint(fabric);
    if !diags.is_empty() {
        let mut report = format!("wse-lint: {} diagnostic(s):\n", diags.len());
        for d in &diags {
            report.push_str(&format!("  {d}\n"));
        }
        panic!("{report}");
    }
}
