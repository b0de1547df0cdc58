//! The 2D tile fabric: the wafer.
//!
//! A [`Fabric`] is a `w × h` grid of [`Tile`]s (core + 48 KB SRAM + router)
//! stepped on a global clock. Links have single-cycle per-hop latency: a
//! flit staged on an output port this cycle is available in the neighbor's
//! input queue next cycle ("nanosecond per hop message latencies" at
//! ~1 cycle/hop).
//!
//! The stepper is *activity-driven*: each cycle touches only tiles that can
//! possibly change state (busy cores, non-empty routers, delivery targets),
//! routers decide admission from credits they hold themselves, and all
//! per-cycle buffers live in reusable scratch storage owned by the fabric,
//! so the steady-state cost of a cycle is O(active tiles) with zero heap
//! allocations. The skipped-tile bookkeeping (deferred idle accounting) is
//! bit-identical to stepping every tile; [`Fabric::step_reference`] retains
//! the naive full-scan stepper and the equivalence tests drive both in
//! lockstep.

use crate::core::Core;
use crate::fault::{FaultEvent, FaultKind, FaultLog, FaultPlan, FaultRecord};
use crate::memory::{Memory, TILE_SRAM_BYTES};
use crate::router::{Router, StagedFlit};
use crate::sanitize::{SanitizerReport, TileSanitizer};
use crate::trace::{FabricTrace, PhaseSpan, TileTrace, TraceConfig};
use crate::types::{Color, Flit, Port, NUM_COLORS, PORT_BYTES_PER_CYCLE};
use std::collections::HashMap;

/// The four cardinal ports, in [`Port::ALL`] order (no ramp).
const CARDINAL: [Port; 4] = [Port::North, Port::South, Port::East, Port::West];

/// One tile: processor core, private SRAM, and router.
#[derive(Clone, Debug, Default)]
pub struct Tile {
    /// The tile's 48 KB SRAM.
    pub mem: Memory,
    /// The processor core.
    pub core: Core,
    /// The router.
    pub router: Router,
}

/// Stall-watchdog window (cycles of zero fabric-wide progress) for
/// [`Fabric::run_watched`] callers that have no sharper bound. The
/// simulator is deterministic and closed, so any zero-progress window
/// proves a permanent deadlock; this value only bounds detection latency
/// and sits comfortably above the deepest credit-backpressure chain on the
/// fabrics we simulate.
pub const STALL_WINDOW: u64 = 2_048;

/// One wedged tile in a [`StallReport`].
#[derive(Clone, Debug)]
pub struct StalledTile {
    /// Tile x coordinate.
    pub x: usize,
    /// Tile y coordinate.
    pub y: usize,
    /// Name of the task on the main thread, if one is running.
    pub task: Option<&'static str>,
    /// Flits wedged in the router's input queues.
    pub router_queued: usize,
    /// Undelivered words in the core's ramp-in queues.
    pub ramp_in: usize,
    /// Words stuck awaiting injection.
    pub ramp_out: usize,
    /// Occupied background-thread slots.
    pub active_threads: usize,
}

impl std::fmt::Display for StalledTile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tile({},{}) task={} threads={} router_queued={} ramp_in={} ramp_out={}",
            self.x,
            self.y,
            self.task.unwrap_or("-"),
            self.active_threads,
            self.router_queued,
            self.ramp_in,
            self.ramp_out
        )
    }
}

/// Structured stall diagnosis from [`Fabric::run_watched`]: the watchdog
/// observed `window` consecutive cycles with zero progress (no flits moved,
/// no datapath issue, no control statements retired) while work remained.
///
/// The simulator is deterministic and closed — nothing external can wake a
/// tile — so a zero-progress window of any length is a *permanent* deadlock,
/// not a transient lull; the watchdog window only bounds detection latency.
#[derive(Clone, Debug)]
pub struct StallReport {
    /// Cycle at which the watchdog fired.
    pub cycle: u64,
    /// Length of the observed no-progress window.
    pub window: u64,
    /// `true` when the overall cycle deadline expired before a full
    /// no-progress window was seen (slow progress rather than proven
    /// deadlock).
    pub deadline_exceeded: bool,
    /// The wedged tiles (capped at [`StallReport::MAX_TILES`]).
    pub stalled: Vec<StalledTile>,
    /// Total number of wedged tiles (may exceed `stalled.len()`).
    pub total_stalled: usize,
}

impl StallReport {
    /// Cap on the per-tile detail recorded in `stalled`.
    pub const MAX_TILES: usize = 16;
}

impl std::fmt::Display for StallReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.deadline_exceeded {
            write!(f, "fabric exceeded its cycle deadline at cycle {}", self.cycle)?;
        } else {
            write!(
                f,
                "fabric stalled at cycle {}: no progress for {} cycles",
                self.cycle, self.window
            )?;
        }
        write!(f, "; {} tile(s) wedged", self.total_stalled)?;
        for t in self.stalled.iter().take(8) {
            write!(f, "; {t}")?;
        }
        if self.total_stalled > 8 {
            write!(f, "; ...")?;
        }
        Ok(())
    }
}

impl std::error::Error for StallReport {}

/// Armed fault-injection state (present only when a plan is armed, so the
/// healthy-path cost is one pointer test per phase).
#[derive(Clone, Debug)]
struct FaultState {
    /// Scheduled events, sorted by cycle.
    events: Vec<FaultEvent>,
    /// Index of the next unapplied event.
    next: usize,
    /// Armed one-shot link faults: (tile index, out port, `Some(bit)` to
    /// corrupt / `None` to drop).
    pending_links: Vec<(usize, Port, Option<u8>)>,
    /// Audit trail.
    log: FaultLog,
}

/// Aggregate performance counters across the fabric.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FabricPerf {
    /// Total fp16 flops executed.
    pub flops_f16: u64,
    /// Total fp32 flops executed.
    pub flops_f32: u64,
    /// Total datapath-busy core-cycles.
    pub busy_cycles: u64,
    /// Total idle core-cycles.
    pub idle_cycles: u64,
    /// Total flits forwarded by routers.
    pub flits_routed: u64,
    /// Total control statements retired by cores.
    pub ctrl_stmts: u64,
    /// Router backpressure totals per output port (cycles a routed head
    /// flit was held because that downstream queue was full), indexed by
    /// [`Port::index`] and summed over all tiles.
    pub backpressure: [u64; 5],
}

impl FabricPerf {
    /// Total backpressure flit-hold cycles across all ports and tiles.
    pub fn backpressure_total(&self) -> u64 {
        self.backpressure.iter().sum()
    }
}

/// A declared boundary I/O channel (see [`Fabric::open_edge`]): flits
/// routed out of `port` at tile `(x, y)` on `color` leave the wafer into
/// the host-visible `queue`, gated by host-granted `credits`; the host
/// injects inbound flits through the same channel with
/// [`Fabric::inject_edge`]. Undeclared boundary fanouts keep the
/// historical hold-forever semantics.
#[derive(Clone, Debug)]
struct EdgePort {
    x: usize,
    y: usize,
    port: Port,
    color: Color,
    /// Host-granted egress admission budget: staged off-wafer flits are
    /// admitted while `queue.len() < credits` (snapshotted at the start
    /// of phase 3, like every other admission check). Zero — the default
    /// — holds flits exactly like an undeclared edge.
    credits: usize,
    /// Egress flits awaiting host pickup, in staged order.
    queue: Vec<Flit>,
}

/// Driver-marked phase spans, kept whether or not a trace is armed: the
/// one phase record, read by [`Fabric::take_trace`] or handed to any other
/// reader by [`Fabric::drain_phases`].
#[derive(Default)]
struct PhaseLog {
    /// Spans in open order (starts are nondecreasing).
    spans: Vec<PhaseSpan>,
    /// Index into `spans` of the currently open span, if any.
    open: Option<usize>,
}

/// Armed trace state (present only while tracing, mirroring `FaultState`).
struct TraceState {
    /// Fabric cycle at arm time.
    start_cycle: u64,
    /// Per-tile counter baselines at arm time, so the exported trace
    /// carries window deltas: `(busy, idle, flits_routed, backpressure)`.
    base: Vec<(u64, u64, u64, [u64; 5])>,
    /// Per-tile event ring capacity, kept so tiles replaced mid-window
    /// (a [`Fabric::blit_region`]) can be re-armed consistently.
    ring_capacity: usize,
}

/// Reusable per-cycle scratch storage owned by the fabric. Every buffer is
/// sized once at construction and reused each cycle, so the steady-state
/// stepper performs no heap allocations (staged-flit vectors keep their
/// high-water capacity).
struct StepScratch {
    /// Per-tile staged-flit buffers (cleared after delivery each cycle).
    staged: Vec<Vec<StagedFlit>>,
    /// Tiles with non-empty routers this cycle (the staging worklist).
    stagers: Vec<usize>,
    /// Dedup flag per tile: already recorded as a delivery destination.
    dest_flag: Vec<bool>,
    /// Delivery destinations this cycle (drained into the active set).
    dest_list: Vec<usize>,
}

impl StepScratch {
    fn new(n: usize) -> StepScratch {
        StepScratch {
            staged: vec![Vec::new(); n],
            stagers: Vec::new(),
            dest_flag: vec![false; n],
            dest_list: Vec::new(),
        }
    }
}

/// Every tile's neighbor through each cardinal port, tabulated once — the
/// delivery phase asks per flit.
struct Links(Vec<[u32; 4]>);

impl Links {
    /// Marks a port that faces off the wafer.
    const EDGE: u32 = u32::MAX;

    fn new(w: usize, h: usize) -> Links {
        assert!(w * h < Links::EDGE as usize, "fabric too large");
        let toward = |i: usize, p: Port| {
            let (dx, dy) = p.delta();
            let nx = (i % w) as i64 + dx as i64;
            let ny = (i / w) as i64 + dy as i64;
            if nx < 0 || ny < 0 || nx >= w as i64 || ny >= h as i64 {
                Links::EDGE
            } else {
                (ny as usize * w + nx as usize) as u32
            }
        };
        Links((0..w * h).map(|i| CARDINAL.map(|p| toward(i, p))).collect())
    }

    /// Index of the neighbor of tile `i` through cardinal port `p`, or
    /// `None` at the wafer edge.
    #[inline]
    fn toward(&self, i: usize, p: Port) -> Option<usize> {
        let ni = self.0[i][p.index()];
        (ni != Links::EDGE).then_some(ni as usize)
    }

    /// The router holding the credit for the input queue a forwarded flit
    /// left: `freed` is that queue's port on tile `i`; the answer is the
    /// tile it faces and that tile's output port (`None` when nothing on
    /// the wafer feeds it).
    #[inline]
    fn upstream(&self, i: usize, freed: Option<Port>) -> Option<(usize, Port)> {
        let p = freed?;
        Some((self.toward(i, p)?, p.opposite()?))
    }
}

/// Fused phases 1+2 for one tile: settle deferred idle, step the core, then
/// drain its injection queue into the router's ramp input (bounded by port
/// bandwidth and queue space). Returns this tile's progress delta
/// (busy cycles + retired control statements).
///
/// Phases 1 and 2 touch only the tile's own core/router, so fusing them
/// per-tile is order-equivalent to the reference's two full passes.
fn step_and_drain(t: &mut Tile, accounted: &mut u64, cycle: u64) -> u64 {
    let Tile { mem, core, router } = t;
    core.account_idle(cycle - *accounted);
    *accounted = cycle + 1;
    let before = core.perf.busy_cycles + core.perf.ctrl_stmts;
    core.step(mem);
    // Drain one flit at a time, checking the target color's queue.
    let mut budget = PORT_BYTES_PER_CYCLE;
    while let Some((color, flit)) =
        core.pop_ramp_out_ready(budget, |c| router.space(Port::Ramp, c) > 0)
    {
        router.enqueue(Port::Ramp, color, flit);
        budget -= flit.bytes();
    }
    core.perf.busy_cycles + core.perf.ctrl_stmts - before
}

/// The wafer: a grid of tiles with a global clock.
pub struct Fabric {
    w: usize,
    h: usize,
    links: Links,
    tiles: Vec<Tile>,
    cycle: u64,
    /// Armed fault injection; `None` (the default) keeps [`Fabric::step`]
    /// on a no-op fast path.
    faults: Option<Box<FaultState>>,
    /// Per-tile kill flags set by an applied [`FaultKind::TileKill`]: a
    /// killed tile freezes (no core step, no forwarding, no idle billing)
    /// until the next [`Fabric::arm_faults`] revives it.
    dead: Vec<bool>,
    /// Armed tracing; `None` (the default) keeps every hook on a no-op
    /// fast path.
    trace: Option<Box<TraceState>>,
    /// Driver-marked phases since the log was last drained or a trace
    /// armed.
    phases: PhaseLog,
    /// Cycle at which the runtime sanitizer was armed (`None` = disarmed;
    /// the per-core shadow state lives in each [`Core`]).
    sanitize_start: Option<u64>,
    /// Per-tile "observably busy" flag: core not quiescent or router
    /// non-empty — exactly the reference per-tile quiescence predicate.
    busy: Vec<bool>,
    /// Number of set `busy` flags: `is_quiescent()` is an O(1) read.
    busy_count: usize,
    /// Per-tile membership flag for `active_list`.
    active: Vec<bool>,
    /// Tiles the stepper must touch next cycle: every busy tile, plus
    /// quiescent tiles holding bound ramp-in data (they can self-wake).
    active_list: Vec<usize>,
    /// Per-tile membership flag for `dirty_list`.
    dirty: Vec<bool>,
    /// Tiles handed out via [`Fabric::tile_mut`] since the last step:
    /// their routes/masks/busy state are re-derived before stepping.
    dirty_list: Vec<usize>,
    /// Per-tile cycle up to which idle time has been accounted: skipped
    /// quiescent tiles accrue an idle *debt* (`cycle - accounted[i]`) that
    /// is settled lazily, keeping counters bit-identical to full stepping.
    accounted: Vec<u64>,
    /// Monotone progress counter (busy cycles, retired control statements,
    /// and forwarded flits), maintained incrementally — the stall
    /// watchdog's O(1) replacement for a full perf rescan.
    progress: u64,
    /// When set, [`Fabric::step`] delegates to the retained full-scan
    /// [`Fabric::step_reference`] (equivalence testing / benchmarking).
    force_reference: bool,
    /// Declared boundary I/O channels, in declaration order.
    edge_ports: Vec<EdgePort>,
    /// Lookup: `(tile index, out port, color)` → index into `edge_ports`.
    edge_index: HashMap<(usize, Port, Color), usize>,
    /// Reusable per-cycle buffers.
    scratch: StepScratch,
}

impl Fabric {
    /// Creates a `w × h` fabric of fresh tiles.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(w: usize, h: usize) -> Fabric {
        assert!(w > 0 && h > 0, "fabric dimensions must be nonzero");
        let n = w * h;
        Fabric {
            w,
            h,
            links: Links::new(w, h),
            tiles: (0..n).map(|_| Tile::default()).collect(),
            cycle: 0,
            faults: None,
            dead: vec![false; n],
            trace: None,
            phases: PhaseLog::default(),
            sanitize_start: None,
            busy: vec![false; n],
            busy_count: 0,
            active: vec![false; n],
            active_list: Vec::new(),
            dirty: vec![false; n],
            dirty_list: Vec::new(),
            accounted: vec![0; n],
            progress: 0,
            force_reference: false,
            edge_ports: Vec::new(),
            edge_index: HashMap::new(),
            scratch: StepScratch::new(n),
        }
    }

    /// Arms a fault-injection plan. Events are validated against the fabric
    /// shape and applied in cycle order as [`Fabric::step`] reaches them
    /// (events scheduled in the past fire on the next step). Re-arming
    /// replaces any previous plan and clears its log; kill/stuck state
    /// already applied to tiles is *not* undone, except that tiles killed
    /// by the *previous* plan resume stepping.
    ///
    /// # Panics
    /// Panics if an event names a tile, port, address, or bit outside the
    /// fabric.
    pub fn arm_faults(&mut self, plan: &FaultPlan) {
        let events = plan.events();
        for ev in &events {
            let (x, y) = match ev.kind {
                FaultKind::SramBitFlip { x, y, addr, bit } => {
                    assert!(addr + 2 <= TILE_SRAM_BYTES, "bit flip at {addr} outside SRAM");
                    assert!(bit < 16, "bit index {bit} out of range");
                    (x, y)
                }
                FaultKind::TileKill { x, y }
                | FaultKind::StuckPort { x, y, .. }
                | FaultKind::LinkDrop { x, y, .. } => (x, y),
                FaultKind::LinkCorrupt { x, y, bit, .. } => {
                    assert!(bit < 32, "payload bit {bit} out of range");
                    (x, y)
                }
                host => panic!(
                    "{} targets the host interconnect: arm it on the MultiFabric \
                     (wse-multi), not on a single wafer",
                    host.label()
                ),
            };
            assert!(x < self.w && y < self.h, "fault targets tile ({x},{y}) outside fabric");
        }
        // Tiles killed under the old plan come back to life. They were
        // frozen, not idle: restart their idle accounting *now* so the dead
        // gap is never billed, and wake them so the stepper sees them again.
        for i in 0..self.dead.len() {
            if std::mem::take(&mut self.dead[i]) {
                self.accounted[i] = self.cycle;
                self.refresh_busy(i);
                self.mark_active(i);
            }
        }
        self.faults = Some(Box::new(FaultState {
            events,
            next: 0,
            pending_links: Vec::new(),
            log: FaultLog::default(),
        }));
    }

    /// `true` when a fault plan is armed.
    pub fn faults_armed(&self) -> bool {
        self.faults.is_some()
    }

    /// The audit trail of applied faults, if a plan is armed.
    pub fn fault_log(&self) -> Option<&FaultLog> {
        self.faults.as_ref().map(|f| &f.log)
    }

    /// `true` if tile `(x, y)` has been killed by an applied
    /// [`FaultKind::TileKill`].
    pub fn tile_dead(&self, x: usize, y: usize) -> bool {
        self.dead[self.index(x, y)]
    }

    /// Arms fabric-wide tracing: every core begins collecting task events,
    /// stall attribution, and retire counts (bounded per-tile rings), and
    /// the phase log starts afresh, so the trace holds exactly the phases
    /// opened from now on. The disarmed hooks cost one pointer test each,
    /// mirroring fault arming. Re-arming replaces any previous trace state.
    pub fn arm_trace(&mut self, config: TraceConfig) {
        // Settle all deferred idle debt first: the per-tile baselines below
        // must include every pre-arm cycle so the trace window starts clean.
        self.settle_idle();
        for t in &mut self.tiles {
            t.core.arm_trace(self.cycle, config.ring_capacity);
        }
        let base = self
            .tiles
            .iter()
            .map(|t| {
                (
                    t.core.perf.busy_cycles,
                    t.core.perf.idle_cycles,
                    t.router.flits_routed,
                    t.router.backpressure,
                )
            })
            .collect();
        self.phases = PhaseLog::default();
        self.trace = Some(Box::new(TraceState {
            start_cycle: self.cycle,
            base,
            ring_capacity: config.ring_capacity,
        }));
        // Conservatively wake every tile: arming must never be masked by
        // activity skipping (idle tiles fall back out after one sweep).
        for i in 0..self.tiles.len() {
            self.mark_active(i);
        }
    }

    /// `true` while tracing is armed.
    pub fn trace_armed(&self) -> bool {
        self.trace.is_some()
    }

    /// Arms the runtime sanitizer on every core: shadow SRAM access marks
    /// (race detection with launch-epoch happens-before) and channel-wait
    /// streaks. The disarmed hooks cost one pointer test each, mirroring
    /// fault and trace arming; the sanitizer is observation-only, so an
    /// armed run is cycle-identical to a disarmed one. Re-arming replaces
    /// any previous shadow state.
    pub fn arm_sanitizer(&mut self) {
        // Settle deferred idle debt first so every core's `now` stamp
        // starts aligned with the fabric clock.
        self.settle_idle();
        for t in &mut self.tiles {
            t.core.arm_sanitizer(self.cycle);
        }
        self.sanitize_start = Some(self.cycle);
        // Conservatively wake every tile, as with trace arming.
        for i in 0..self.tiles.len() {
            self.mark_active(i);
        }
    }

    /// `true` while the sanitizer is armed.
    pub fn sanitizer_armed(&self) -> bool {
        self.sanitize_start.is_some()
    }

    /// Disarms the sanitizer and returns everything it observed (`None` if
    /// it was not armed).
    pub fn take_sanitizer(&mut self) -> Option<SanitizerReport> {
        let start = self.sanitize_start.take()?;
        // Settle idle debt so shadow clocks are complete before draining.
        self.settle_idle();
        let w = self.w;
        let tiles = self
            .tiles
            .iter_mut()
            .enumerate()
            .map(|(i, t)| {
                let san = t
                    .core
                    .take_sanitizer()
                    .expect("every core is armed for the lifetime of the fabric sanitizer");
                TileSanitizer {
                    x: i % w,
                    y: i / w,
                    trips: san.trips,
                    total_trips: san.total_trips,
                    chan_wait: san.chan_wait,
                    longest_wait: san.longest_wait,
                }
            })
            .collect();
        Some(SanitizerReport { w: self.w, h: self.h, cycles: self.cycle - start, tiles })
    }

    /// Opens a phase span named `name` at the current cycle, closing any
    /// span still open (phases are flat, not nested). Recorded in the
    /// fabric's phase log whether or not a trace is armed.
    pub fn phase_begin(&mut self, name: &'static str) {
        self.phase_end();
        let log = &mut self.phases;
        log.open = Some(log.spans.len());
        log.spans.push(PhaseSpan { name, start: self.cycle, end: self.cycle });
    }

    /// Closes the open phase span at the current cycle, if any.
    pub fn phase_end(&mut self) {
        if let Some(i) = self.phases.open.take() {
            self.phases.spans[i].end = self.cycle;
        }
    }

    /// Records an instant marker (a zero-length [`PhaseSpan`]) at the
    /// current cycle — checkpoint/rollback stamps. Does not disturb an
    /// open phase span.
    pub fn phase_marker(&mut self, name: &'static str) {
        self.phases.spans.push(PhaseSpan { name, start: self.cycle, end: self.cycle });
    }

    /// Retroactively records a span over `[start, end)` — attribution the
    /// driver can only compute after a phase ran (e.g. how much of a merged
    /// compute+communication window the communication was exposed for).
    /// The span may overlap other phases; [`PhaseReport`] consumers treat
    /// such overlap rows as annotations, not wall-clock partitions. Does
    /// not disturb an open phase span.
    pub fn phase_span(&mut self, name: &'static str, start: u64, end: u64) {
        debug_assert!(start <= end, "phase_span: start {start} after end {end}");
        let log = &mut self.phases;
        // Keep the log sorted by start (the documented invariant) even
        // though this span is recorded after later phases opened.
        let at = log.spans.partition_point(|s| s.start <= start);
        log.spans.insert(at, PhaseSpan { name, start, end: end.max(start) });
        if let Some(open) = log.open.as_mut() {
            if at <= *open {
                *open += 1;
            }
        }
    }

    /// Hands the phase log to its reader and starts it afresh: every span
    /// recorded since the last drain (or [`Fabric::arm_trace`]), in open
    /// order, with any open span closed at the current cycle. The log has
    /// one reader at a time — an armed trace's [`Fabric::take_trace`] drains
    /// it too — and grows by one [`PhaseSpan`] per phase until it is read.
    pub fn drain_phases(&mut self) -> Vec<PhaseSpan> {
        self.phase_end();
        std::mem::take(&mut self.phases.spans)
    }

    /// Disarms tracing and returns the collected [`FabricTrace`] (`None`
    /// if tracing was not armed), with the phase log drained into it. Any
    /// open phase span is closed at the current cycle.
    pub fn take_trace(&mut self) -> Option<FabricTrace> {
        if self.trace.is_some() {
            // Settle deferred idle debt so the window totals below (read
            // straight from the per-tile counters) are complete.
            self.settle_idle();
        }
        let perf = self.perf();
        let cycle = self.cycle;
        let ts = self.trace.take()?;
        let phases = self.drain_phases();
        let w = self.w;
        let tiles = self
            .tiles
            .iter_mut()
            .enumerate()
            .map(|(i, t)| {
                let (busy0, idle0, flits0, bp0) = ts.base[i];
                let core = t
                    .core
                    .take_trace()
                    .expect("every core is armed for the lifetime of the fabric trace");
                let mut backpressure = t.router.backpressure;
                for (b, b0) in backpressure.iter_mut().zip(bp0) {
                    *b -= b0;
                }
                let mut events: Vec<_> = core.events().copied().collect();
                // Per-tile stamps are monotone by construction; killed
                // tiles freeze rather than rewind, so sorting is a no-op
                // kept as a cheap invariant.
                events.sort_by_key(|e| e.cycle);
                TileTrace {
                    x: i % w,
                    y: i / w,
                    events,
                    dropped_events: core.dropped_events(),
                    stall: core.stall,
                    retired: core.retired,
                    busy_cycles: t.core.perf.busy_cycles - busy0,
                    idle_cycles: t.core.perf.idle_cycles - idle0,
                    flits_routed: t.router.flits_routed - flits0,
                    backpressure,
                }
            })
            .collect();
        Some(FabricTrace {
            w: self.w,
            h: self.h,
            start_cycle: ts.start_cycle,
            end_cycle: cycle,
            phases,
            tiles,
            perf,
        })
    }

    /// Fabric width in tiles.
    pub fn width(&self) -> usize {
        self.w
    }

    /// Fabric height in tiles.
    pub fn height(&self) -> usize {
        self.h
    }

    /// Elapsed cycles.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    #[inline]
    fn index(&self, x: usize, y: usize) -> usize {
        debug_assert!(x < self.w && y < self.h, "tile ({x},{y}) outside fabric");
        y * self.w + x
    }

    /// Immutable tile access.
    pub fn tile(&self, x: usize, y: usize) -> &Tile {
        &self.tiles[self.index(x, y)]
    }

    /// Mutable tile access (program loading). Marks the tile dirty: its
    /// activity state and the router credits around it are re-derived
    /// before the next step, so external mutation can never be skipped.
    pub fn tile_mut(&mut self, x: usize, y: usize) -> &mut Tile {
        let i = self.index(x, y);
        if !self.dirty[i] {
            self.dirty[i] = true;
            self.dirty_list.push(i);
        }
        &mut self.tiles[i]
    }

    /// Configures a route on tile `(x, y)`.
    pub fn set_route(&mut self, x: usize, y: usize, in_port: Port, color: Color, outs: &[Port]) {
        // Validate that no output points off the wafer, unless a matching
        // edge port has been declared ([`Fabric::open_edge`]).
        for &o in outs {
            if o == Port::Ramp {
                continue;
            }
            let (dx, dy) = o.delta();
            let (nx, ny) = (x as i64 + dx as i64, y as i64 + dy as i64);
            assert!(
                (nx >= 0 && ny >= 0 && nx < self.w as i64 && ny < self.h as i64)
                    || self.edge_port_declared(x, y, o, color),
                "route at ({x},{y}) port {o:?} points off the fabric"
            );
        }
        self.tile_mut(x, y).router.set_route(in_port, color, outs);
    }

    /// Declares a host-visible boundary I/O channel at tile `(x, y)`:
    /// `port` must point off the wafer. Once declared, routes may fan out
    /// through `port` on `color` — staged flits land in the channel's
    /// egress queue instead of holding forever, gated by host-granted
    /// credits ([`Fabric::set_edge_credits`], default 0 = hold) that are
    /// snapshotted at the start of phase 3 like every other admission
    /// check. The host collects egress with [`Fabric::drain_edge_out`]
    /// and injects inbound flits with [`Fabric::inject_edge`]. Egress
    /// queues live host-side: they do not keep the fabric busy, so
    /// [`Fabric::is_quiescent`] can report `true` with undrained egress.
    ///
    /// # Panics
    /// Panics if `port` is the ramp or points to an on-wafer neighbor, if
    /// `color` is out of range, or if the channel is already declared.
    pub fn open_edge(&mut self, x: usize, y: usize, port: Port, color: Color) {
        let i = self.index(x, y);
        assert!(port != Port::Ramp, "edge port must be cardinal");
        assert!((color as usize) < NUM_COLORS, "color {color} out of range");
        assert!(
            self.links.toward(i, port).is_none(),
            "edge port at ({x},{y}) {port:?} points to an on-wafer neighbor"
        );
        let id = self.edge_ports.len();
        let prev = self.edge_index.insert((i, port, color), id);
        assert!(prev.is_none(), "edge port at ({x},{y}) {port:?} color {color} already declared");
        self.edge_ports.push(EdgePort { x, y, port, color, credits: 0, queue: Vec::new() });
    }

    /// `true` when [`Fabric::open_edge`] has declared this channel.
    pub fn edge_port_declared(&self, x: usize, y: usize, port: Port, color: Color) -> bool {
        if x >= self.w || y >= self.h {
            return false;
        }
        self.edge_index.contains_key(&(y * self.w + x, port, color))
    }

    /// Every declared edge channel as `(x, y, port, color)`, in
    /// declaration order (ensemble runners use this to pair seams).
    pub fn edge_ports(&self) -> impl Iterator<Item = (usize, usize, Port, Color)> + '_ {
        self.edge_ports.iter().map(|e| (e.x, e.y, e.port, e.color))
    }

    /// Index of a declared edge channel, panicking with a useful message
    /// on an undeclared one.
    fn edge_id(&self, x: usize, y: usize, port: Port, color: Color) -> usize {
        let i = self.index(x, y);
        *self
            .edge_index
            .get(&(i, port, color))
            .unwrap_or_else(|| panic!("no edge port declared at ({x},{y}) {port:?} color {color}"))
    }

    /// Sets the egress admission budget for a declared edge channel: the
    /// fabric stages off-wafer flits into the channel while its queue
    /// holds fewer than `credits` flits (evaluated against the phase-3
    /// snapshot). The host models downstream capacity by adjusting this
    /// between steps.
    ///
    /// # Panics
    /// Panics if the channel is not declared.
    pub fn set_edge_credits(
        &mut self,
        x: usize,
        y: usize,
        port: Port,
        color: Color,
        credits: usize,
    ) {
        let e = self.edge_id(x, y, port, color);
        self.edge_ports[e].credits = credits;
    }

    /// Number of egress flits waiting in a declared edge channel.
    ///
    /// # Panics
    /// Panics if the channel is not declared.
    pub fn edge_out_len(&self, x: usize, y: usize, port: Port, color: Color) -> usize {
        self.edge_ports[self.edge_id(x, y, port, color)].queue.len()
    }

    /// Removes and returns all egress flits from a declared edge channel,
    /// in the order they were staged.
    ///
    /// # Panics
    /// Panics if the channel is not declared.
    pub fn drain_edge_out(&mut self, x: usize, y: usize, port: Port, color: Color) -> Vec<Flit> {
        let e = self.edge_id(x, y, port, color);
        std::mem::take(&mut self.edge_ports[e].queue)
    }

    /// Injects a host-carried flit into the fabric through a declared
    /// edge channel: it enters the router's `port` input queue exactly as
    /// a neighbor delivery would, subject to the same per-color queue
    /// space. Returns `false` (delivering nothing) when the queue is
    /// full — the host retries on a later cycle, which is precisely the
    /// credit backpressure an on-wafer sender would experience.
    ///
    /// # Panics
    /// Panics if the channel is not declared.
    pub fn inject_edge(
        &mut self,
        x: usize,
        y: usize,
        port: Port,
        color: Color,
        flit: Flit,
    ) -> bool {
        let _ = self.edge_id(x, y, port, color);
        let i = self.index(x, y);
        if self.tiles[i].router.space(port, color) == 0 {
            return false;
        }
        self.tiles[i].router.enqueue(port, color, flit);
        self.refresh_busy(i);
        self.mark_active(i);
        true
    }

    /// Space left in the router input queue a declared edge channel
    /// injects into — what an ideal (lockstep) host link grants the
    /// remote sender as next-cycle credit.
    ///
    /// # Panics
    /// Panics if the channel is not declared.
    pub fn edge_in_space(&self, x: usize, y: usize, port: Port, color: Color) -> usize {
        let _ = self.edge_id(x, y, port, color);
        self.tiles[self.index(x, y)].router.space(port, color)
    }

    /// Adds `i` to the active set (idempotent).
    fn mark_active(&mut self, i: usize) {
        if !self.active[i] {
            self.active[i] = true;
            self.active_list.push(i);
        }
    }

    /// Recomputes the busy flag for tile `i` from live state.
    fn refresh_busy(&mut self, i: usize) {
        let t = &self.tiles[i];
        let now = !t.core.is_quiescent() || t.router.queued() > 0;
        if now != self.busy[i] {
            self.busy[i] = now;
            if now {
                self.busy_count += 1;
            } else {
                self.busy_count -= 1;
            }
        }
    }

    /// The credit row tile `i` should hold for cardinal output `q`: the free
    /// space of the queues that port feeds, zero off the wafer (a declared
    /// edge channel's credit is granted afresh every cycle).
    fn credit_row(&self, i: usize, q: Port) -> [u8; NUM_COLORS] {
        match self.links.toward(i, q) {
            Some(ni) => self.tiles[ni].router.space_row(q.opposite().expect("cardinal")),
            None => [0; NUM_COLORS],
        }
    }

    /// Re-derives credits, busy flags, and activity for every tile mutated
    /// through [`Fabric::tile_mut`] since the last step. Nothing is derived
    /// from routes, so a tile the driver merely activates or reloads costs
    /// the eight credit rows of its four links (a constant fill each while
    /// the queue it mirrors is empty).
    fn flush_dirty(&mut self) {
        while let Some(i) = self.dirty_list.pop() {
            self.dirty[i] = false;
            for q in CARDINAL {
                let row = self.credit_row(i, q);
                self.tiles[i].router.set_credit_row(q, row);
                if let Some(ni) = self.links.toward(i, q) {
                    let back = q.opposite().expect("cardinal");
                    let row = self.credit_row(ni, back);
                    self.tiles[ni].router.set_credit_row(back, row);
                }
            }
            self.refresh_busy(i);
            self.mark_active(i);
        }
    }

    /// Settles every live tile's deferred idle debt up to the current cycle
    /// (killed tiles are frozen and accrue nothing).
    ///
    /// The activity-driven stepper defers per-tile idle accounting; any
    /// observer that reads per-core counters directly (checkpoint capture,
    /// external snapshots) must settle first, exactly as [`Fabric::arm_trace`]
    /// does. Idempotent and cheap when there is no outstanding debt.
    pub fn settle_idle(&mut self) {
        let cycle = self.cycle;
        let Fabric { tiles, dead, accounted, .. } = self;
        for (i, t) in tiles.iter_mut().enumerate() {
            if !dead[i] {
                t.core.account_idle(cycle - accounted[i]);
                accounted[i] = cycle;
            }
        }
    }

    /// Rebuilds the busy flags and active list from a full scan (reference
    /// stepping and transient resets — paths where incremental maintenance
    /// was bypassed).
    fn rebuild_activity(&mut self) {
        // Everything `flush_dirty` derives per tile is re-derived for all.
        for i in self.dirty_list.drain(..) {
            self.dirty[i] = false;
        }
        // Those paths moved flits without keeping credits.
        for i in 0..self.tiles.len() {
            for q in CARDINAL {
                let row = self.credit_row(i, q);
                self.tiles[i].router.set_credit_row(q, row);
            }
        }
        let Fabric { tiles, dead, busy, busy_count, active, active_list, .. } = self;
        active_list.clear();
        *busy_count = 0;
        for (i, t) in tiles.iter().enumerate() {
            let b = !t.core.is_quiescent() || t.router.queued() > 0;
            busy[i] = b;
            if b {
                *busy_count += 1;
            }
            let keep = (b || t.core.has_pending_bound_data()) && !dead[i];
            active[i] = keep;
            if keep {
                active_list.push(i);
            }
        }
    }

    /// Applies every armed fault whose cycle has arrived. Affected tiles
    /// are conservatively re-activated so a fault landing on an idle tile
    /// is never silently skipped by the activity-driven stepper.
    fn apply_due_faults(&mut self) {
        let w = self.w;
        let cycle = self.cycle;
        let Fabric { tiles, faults, dead, accounted, active, active_list, .. } = self;
        let Some(fs) = faults.as_deref_mut() else { return };
        let mut mark = |i: usize| {
            if !active[i] {
                active[i] = true;
                active_list.push(i);
            }
        };
        while fs.next < fs.events.len() && fs.events[fs.next].at_cycle <= cycle {
            let ev = fs.events[fs.next];
            fs.next += 1;
            match ev.kind {
                FaultKind::SramBitFlip { x, y, addr, bit } => {
                    let i = y * w + x;
                    tiles[i].mem.flip_bit(addr, bit);
                    mark(i);
                }
                FaultKind::TileKill { x, y } => {
                    let i = y * w + x;
                    if !dead[i] {
                        // The tile idled up to now and freezes from here:
                        // settle its debt once, at the moment of death.
                        tiles[i].core.account_idle(cycle - accounted[i]);
                        accounted[i] = cycle;
                        dead[i] = true;
                    }
                    mark(i);
                }
                FaultKind::StuckPort { x, y, port } => {
                    let i = y * w + x;
                    tiles[i].router.stick_port(port);
                    mark(i);
                }
                FaultKind::LinkCorrupt { x, y, port, bit } => {
                    fs.pending_links.push((y * w + x, port, Some(bit)));
                    mark(y * w + x);
                }
                FaultKind::LinkDrop { x, y, port } => {
                    fs.pending_links.push((y * w + x, port, None));
                    mark(y * w + x);
                }
                // Host-level kinds are rejected by `arm_faults`.
                host => unreachable!("{} cannot reach a single fabric", host.label()),
            }
            fs.log.applied.push(FaultRecord { cycle, kind: ev.kind });
        }
    }

    /// Advances the fabric one cycle.
    ///
    /// Semantically identical to [`Fabric::step_reference`] (the equivalence
    /// is enforced by tests), but iterates only the active set and reuses
    /// the fabric-owned scratch buffers.
    pub fn step(&mut self) {
        if self.force_reference {
            self.step_reference();
            return;
        }
        self.flush_dirty();
        // Phase 0: fault injection (no-op unless a plan is armed).
        if self.faults.is_some() {
            self.apply_due_faults();
        }
        let w = self.w;
        let cycle = self.cycle;

        // Phases 1+2: active cores execute and inject (independent per
        // tile). Killed tiles freeze: their cores stop stepping entirely.
        // Skipped tiles are provably quiescent; their idle accrues as
        // deferred debt.
        let stepped: u64 = {
            let Fabric { tiles, accounted, active_list, dead, .. } = &mut *self;
            let mut delta = 0u64;
            for &i in active_list.iter() {
                if !dead[i] {
                    delta += step_and_drain(&mut tiles[i], &mut accounted[i], cycle);
                }
            }
            delta
        };

        // Phase 3: routers with queued flits stage against their credits
        // and their own core's ramp-in queues. Credits equal the downstream
        // queues' start-of-cycle free space all phase long — staging spends
        // only the stager's own, and what a forward frees downstream is
        // handed back in phase 4 — so no occupancy snapshot is taken.
        let forwarded: u64 = {
            let Fabric { tiles, active_list, dead, scratch, edge_ports, .. } = &mut *self;
            let StepScratch { staged, stagers, .. } = scratch;
            stagers.clear();
            for &i in active_list.iter() {
                // A killed tile's router forwards nothing; arrivals pile
                // up in its queues until backpressure stalls upstream.
                if !dead[i] && tiles[i].router.queued() > 0 {
                    stagers.push(i);
                }
            }
            // Edge channels: the host's admission budget is this cycle's
            // credit for the off-wafer port.
            for e in edge_ports.iter() {
                let room = e.credits.saturating_sub(e.queue.len());
                tiles[e.y * w + e.x].router.set_credit(
                    e.port,
                    e.color,
                    u8::try_from(room).unwrap_or(u8::MAX),
                );
            }
            let mut forwarded = 0u64;
            for &si in stagers.iter() {
                let t = &mut tiles[si];
                forwarded += t.router.stage_into(t.core.ramp_in_queues(), &mut staged[si]) as u64;
            }
            forwarded
        };
        self.progress += stepped + forwarded;

        // Phase 4: deliveries land (1 cycle/hop), and every flit forwarded
        // out of a cardinal input queue hands the credit it freed back to
        // the router upstream of that queue.
        {
            let Fabric { tiles, links, faults, scratch, edge_ports, edge_index, .. } = &mut *self;
            let links: &Links = links;
            let StepScratch { staged, stagers, dest_flag, dest_list, .. } = scratch;
            // Armed one-shot link faults intercept flits in flight: the
            // first flit leaving the chosen (tile, port) is corrupted or
            // dropped. Scan in ascending tile order — the order the
            // reference delivery loop encounters flits.
            if let Some(fs) = faults.as_deref_mut() {
                if !fs.pending_links.is_empty() {
                    for (i, buf) in staged.iter_mut().enumerate() {
                        if buf.is_empty() {
                            continue;
                        }
                        let mut k = 0;
                        while k < buf.len() {
                            let hit = fs
                                .pending_links
                                .iter()
                                .position(|&(ti, p, _)| ti == i && p == buf[k].out);
                            match hit {
                                Some(j) => match fs.pending_links.swap_remove(j).2 {
                                    Some(bit) => {
                                        buf[k].flit.bits ^= 1 << bit;
                                        fs.log.corrupted_flits += 1;
                                        k += 1;
                                    }
                                    None => {
                                        fs.log.dropped_flits += 1;
                                        // The flit vanishes on the wire: the
                                        // queue it was headed for keeps its
                                        // slot, so the sender gets the credit
                                        // back, and the credit its forwarding
                                        // freed is returned here and now.
                                        let s = buf.remove(k);
                                        if s.out != Port::Ramp {
                                            tiles[i].router.return_credit(s.out, s.color);
                                        }
                                        if let Some((ui, out)) = links.upstream(i, s.freed) {
                                            tiles[ui].router.return_credit(out, s.color);
                                        }
                                    }
                                },
                                None => k += 1,
                            }
                        }
                        if fs.pending_links.is_empty() {
                            break;
                        }
                    }
                }
            }
            // Push each stager's flits to their destinations. Each (dest,
            // in-port, color) queue has exactly one source tile, so
            // cross-tile delivery order is immaterial.
            for &si in stagers.iter() {
                let mut k = 0;
                while k < staged[si].len() {
                    let s = staged[si][k];
                    k += 1;
                    if let Some((ui, out)) = links.upstream(si, s.freed) {
                        tiles[ui].router.return_credit(out, s.color);
                    }
                    let di = match s.out {
                        Port::Ramp => {
                            tiles[si].core.deliver(s.color, s.flit);
                            Some(si)
                        }
                        out => match links.toward(si, out) {
                            Some(ni) => {
                                tiles[ni].router.enqueue(out.opposite().unwrap(), s.color, s.flit);
                                Some(ni)
                            }
                            None => {
                                // Accepted off-wafer: land in the
                                // declared channel's egress queue
                                // (no on-wafer destination to wake).
                                let e = edge_index[&(si, out, s.color)];
                                edge_ports[e].queue.push(s.flit);
                                None
                            }
                        },
                    };
                    if let Some(di) = di {
                        if !dest_flag[di] {
                            dest_flag[di] = true;
                            dest_list.push(di);
                        }
                    }
                }
                staged[si].clear();
            }
        }
        // Every delivery destination has queued work next cycle: wake it.
        while let Some(di) = self.scratch.dest_list.pop() {
            self.scratch.dest_flag[di] = false;
            self.mark_active(di);
        }

        self.cycle += 1;

        // End-of-step sweep: refresh busy flags for the tiles we touched
        // and retire the ones that can no longer change state on their own
        // (quiescent, empty router, no bound ramp-in data, or killed).
        let mut k = 0;
        while k < self.active_list.len() {
            let i = self.active_list[k];
            let (busy_now, keep) = {
                let t = &self.tiles[i];
                let b = !t.core.is_quiescent() || t.router.queued() > 0;
                (b, b || t.core.has_pending_bound_data())
            };
            if busy_now != self.busy[i] {
                self.busy[i] = busy_now;
                if busy_now {
                    self.busy_count += 1;
                } else {
                    self.busy_count -= 1;
                }
            }
            if keep && !self.dead[i] {
                k += 1;
            } else {
                self.active[i] = false;
                self.active_list.swap_remove(k);
            }
        }
    }

    /// Routes all subsequent [`Fabric::step`] calls through the retained
    /// full-scan reference stepper (`true`) or the activity-driven stepper
    /// (`false`, the default). The two are cycle-for-cycle bit-identical;
    /// the switch exists for equivalence testing and benchmarking.
    pub fn use_reference_stepper(&mut self, on: bool) {
        self.force_reference = on;
    }

    /// Advances the fabric one cycle with the naive full-scan stepper: every
    /// tile is visited in every phase, cores run the per-element datapath
    /// ([`Core::step_reference`]), routers stage against freshly allocated
    /// occupancy snapshots ([`Router::stage`]). Retained as the executable
    /// specification the optimized [`Fabric::step`] is tested against.
    pub fn step_reference(&mut self) {
        self.flush_dirty();
        // Phase 0: fault injection (no-op unless a plan is armed).
        if self.faults.is_some() {
            self.apply_due_faults();
        }
        // The reference steps every core, so all deferred idle debt must be
        // settled first (it then stays settled, cycle by cycle).
        self.settle_idle();
        let p0 = self.perf();
        let dead = &self.dead;

        // Phase 1: cores execute (independent per tile). Killed tiles
        // freeze: their cores stop stepping entirely.
        for (i, t) in self.tiles.iter_mut().enumerate() {
            if dead[i] {
                continue;
            }
            let Tile { mem, core, .. } = t;
            core.step_reference(mem);
        }

        // Phase 2: core injection moves into the router's ramp-input queues
        // (bounded by port bandwidth and queue space).
        for (i, t) in self.tiles.iter_mut().enumerate() {
            if dead[i] {
                continue;
            }
            // Respect the ramp queue's *minimum* color space conservatively:
            // drain one flit at a time, checking the target queue.
            let mut budget = PORT_BYTES_PER_CYCLE;
            let (core, router) = (&mut t.core, &mut t.router);
            while let Some((color, flit)) =
                core.pop_ramp_out_ready(budget, |c| router.space(Port::Ramp, c) > 0)
            {
                router.enqueue(Port::Ramp, color, flit);
                budget -= flit.bytes();
            }
        }

        // Phase 3: routers stage flits against a start-of-phase snapshot of
        // destination occupancy, then deliveries land (1 cycle/hop).
        let all_staged: Vec<(usize, Vec<StagedFlit>)>;
        {
            // Occupancy snapshots (immutable borrows end before staging).
            let router_space: Vec<[[usize; NUM_COLORS]; 5]> = self
                .tiles
                .iter()
                .map(|t| {
                    let mut s = [[0usize; NUM_COLORS]; 5];
                    for p in Port::ALL {
                        for (c, slot) in s[p.index()].iter_mut().enumerate() {
                            *slot = t.router.space(p, c as Color);
                        }
                    }
                    s
                })
                .collect();
            let ramp_space: Vec<[usize; NUM_COLORS]> = self
                .tiles
                .iter()
                .map(|t| {
                    let mut s = [0usize; NUM_COLORS];
                    for (c, slot) in s.iter_mut().enumerate() {
                        *slot = t.core.ramp_in_space(c as Color);
                    }
                    s
                })
                .collect();

            // Edge-channel admission snapshot (start-of-phase room).
            let edge_room: Vec<usize> =
                self.edge_ports.iter().map(|e| e.credits.saturating_sub(e.queue.len())).collect();
            let edge_index = &self.edge_index;

            let w = self.w;
            let h = self.h;
            all_staged = self
                .tiles
                .iter_mut()
                .enumerate()
                .map(|(i, t)| {
                    // A killed tile's router forwards nothing; arrivals pile
                    // up in its queues until backpressure stalls upstream.
                    if dead[i] {
                        return (i, Vec::new());
                    }
                    let (x, y) = (i % w, i / w);
                    let staged = t.router.stage(|out, color, already| {
                        match out {
                            Port::Ramp => already < ramp_space[i][color as usize],
                            _ => {
                                let (dx, dy) = out.delta();
                                let (nx, ny) = (x as i64 + dx as i64, y as i64 + dy as i64);
                                if nx < 0 || ny < 0 || nx >= w as i64 || ny >= h as i64 {
                                    // Off-wafer: declared edge channel with
                                    // credit, or hold forever.
                                    return match edge_index.get(&(i, out, color)) {
                                        Some(&e) => already < edge_room[e],
                                        None => false,
                                    };
                                }
                                let ni = ny as usize * w + nx as usize;
                                let in_port = out.opposite().unwrap();
                                already < router_space[ni][in_port.index()][color as usize]
                            }
                        }
                    });
                    (i, staged)
                })
                .collect();
        }

        // Phase 4: deliveries. Armed one-shot link faults intercept flits
        // in flight here: the first flit leaving the chosen (tile, port)
        // after the fault's cycle is corrupted or lost.
        let links = &self.links;
        let (tiles, faults) = (&mut self.tiles, &mut self.faults);
        let (edge_ports, edge_index) = (&mut self.edge_ports, &self.edge_index);
        let mut fs = faults.as_deref_mut();
        for (i, staged) in all_staged {
            for s in staged {
                let mut flit = s.flit;
                if let Some(fs) = fs.as_deref_mut() {
                    if !fs.pending_links.is_empty() {
                        if let Some(k) =
                            fs.pending_links.iter().position(|&(ti, p, _)| ti == i && p == s.out)
                        {
                            let (_, _, corrupt) = fs.pending_links.swap_remove(k);
                            match corrupt {
                                Some(bit) => {
                                    flit.bits ^= 1 << bit;
                                    fs.log.corrupted_flits += 1;
                                }
                                None => {
                                    fs.log.dropped_flits += 1;
                                    continue; // the flit vanishes on the wire
                                }
                            }
                        }
                    }
                }
                match s.out {
                    Port::Ramp => {
                        tiles[i].core.deliver(s.color, flit);
                    }
                    out => match links.toward(i, out) {
                        Some(ni) => {
                            let in_port = out.opposite().unwrap();
                            tiles[ni].router.enqueue(in_port, s.color, flit);
                        }
                        None => {
                            // Accepted off-wafer: the declared channel's
                            // host-visible egress queue.
                            let e = edge_index[&(i, out, s.color)];
                            edge_ports[e].queue.push(flit);
                        }
                    },
                }
            }
        }

        self.cycle += 1;
        // Every live core was just stepped through the previous cycle.
        for (a, &dead) in self.accounted.iter_mut().zip(&self.dead) {
            if !dead {
                *a = self.cycle;
            }
        }
        self.rebuild_activity();
        let p1 = self.perf();
        self.progress += (p1.busy_cycles - p0.busy_cycles)
            + (p1.ctrl_stmts - p0.ctrl_stmts)
            + (p1.flits_routed - p0.flits_routed);
    }

    /// `true` when every core is quiescent and every queue is empty. An
    /// O(1) counter read (adjusted for externally mutated tiles awaiting
    /// their pre-step refresh) instead of a full-fabric scan.
    pub fn is_quiescent(&self) -> bool {
        let mut busy = self.busy_count;
        for &i in &self.dirty_list {
            let t = &self.tiles[i];
            if !t.core.is_quiescent() || t.router.queued() > 0 {
                return false;
            }
            if self.busy[i] {
                busy -= 1;
            }
        }
        let quiet = busy == 0;
        #[cfg(debug_assertions)]
        {
            let full = self.tiles.iter().all(|t| t.core.is_quiescent() && t.router.queued() == 0);
            debug_assert_eq!(quiet, full, "activity-set quiescence diverged from a full scan");
        }
        quiet
    }

    /// Steps until quiescent under a stall watchdog, returning the number
    /// of cycles elapsed since the call began — the one way to run a
    /// fabric.
    ///
    /// If `stall_window` consecutive cycles pass with zero progress (no
    /// datapath issue, no control statement retired, no flit forwarded
    /// anywhere) while work remains, it stops early and names the wedged
    /// tiles. The simulator is deterministic and closed, so a zero-progress
    /// window is a proven permanent deadlock; `stall_window` only bounds how
    /// long detection takes, and anything comfortably above the deepest
    /// backpressure chain (a few hundred cycles) is safe — [`STALL_WINDOW`]
    /// when there is no sharper bound. `stall_window = max_cycles` spends
    /// the whole budget before reporting.
    ///
    /// # Errors
    /// Returns a [`StallReport`] on a zero-progress window, or with
    /// `deadline_exceeded` set if `max_cycles` elapse first.
    ///
    /// # Panics
    /// Panics if `stall_window` is zero.
    pub fn run_watched(
        &mut self,
        max_cycles: u64,
        stall_window: u64,
    ) -> Result<u64, Box<StallReport>> {
        assert!(stall_window > 0, "stall window must be nonzero");
        let start = self.cycle;
        // The watchdog reads the incrementally maintained progress counter:
        // anything a cycle can accomplish — a datapath issue, a retired
        // control statement, a forwarded flit — advances it.
        let mut last_progress = self.progress;
        let mut window_start = self.cycle;
        while !self.is_quiescent() {
            if self.cycle - start >= max_cycles {
                return Err(Box::new(self.stall_report(self.cycle - window_start, true)));
            }
            self.step();
            if self.progress != last_progress {
                last_progress = self.progress;
                window_start = self.cycle;
            } else if self.cycle - window_start >= stall_window {
                return Err(Box::new(self.stall_report(self.cycle - window_start, false)));
            }
        }
        Ok(self.cycle - start)
    }

    /// Monotone progress counter (busy cycles, retired control statements,
    /// forwarded flits) — what the stall watchdog reads. Ensemble runners
    /// sum it across fabrics for a cross-wafer watchdog.
    pub fn progress(&self) -> u64 {
        self.progress
    }

    /// Advances the clock `cycles` without stepping: host-modeled dead
    /// time (e.g. off-wafer interconnect latency, or equalizing ensemble
    /// clocks after independent per-wafer phases) during which the fabric
    /// is provably idle. The span is billed as idle through the usual
    /// deferred-idle accounting.
    ///
    /// # Panics
    /// Panics if the fabric is not quiescent.
    pub fn advance_idle(&mut self, cycles: u64) {
        assert!(self.is_quiescent(), "advance_idle requires a quiescent fabric");
        self.cycle += cycles;
    }

    /// Builds the structured stall diagnosis for [`Fabric::run_watched`]
    /// (public so ensemble runners can merge per-wafer reports).
    pub fn stall_report(&self, window: u64, deadline_exceeded: bool) -> StallReport {
        let mut stalled = Vec::new();
        let mut total = 0;
        for y in 0..self.h {
            for x in 0..self.w {
                let t = self.tile(x, y);
                if t.core.is_quiescent() && t.router.queued() == 0 {
                    continue;
                }
                total += 1;
                if stalled.len() < StallReport::MAX_TILES {
                    stalled.push(StalledTile {
                        x,
                        y,
                        task: t.core.current_task_name(),
                        router_queued: t.router.queued(),
                        ramp_in: t.core.ramp_in_residue(),
                        ramp_out: t.core.ramp_out_len(),
                        active_threads: t.core.active_threads(),
                    });
                }
            }
        }
        StallReport { cycle: self.cycle, window, deadline_exceeded, stalled, total_stalled: total }
    }

    /// Clears all transient execution state fabric-wide — running tasks,
    /// background threads, ramp and router queues, FIFO contents — and
    /// rewinds task scheduling flags and DSR cursors to their declared
    /// start states (see [`Core::reset_transient`]). Loaded programs,
    /// routes, memory contents, registers, perf counters, the cycle
    /// counter, and armed fault and trace state are retained — in
    /// particular, trace timestamps stay monotone across a rollback.
    ///
    /// This is the fabric half of checkpoint rollback: it discards
    /// whatever a fault left in flight so a restored Krylov state replays
    /// from a clean, quiescent machine.
    pub fn reset_transient(&mut self) {
        // Settle idle debt before wiping: the skipped cycles happened.
        self.settle_idle();
        for t in &mut self.tiles {
            t.core.reset_transient();
            t.router.clear_queues();
        }
        // In-flight edge egress is transient too; host-granted credits are
        // configuration and survive, like routes.
        for e in &mut self.edge_ports {
            e.queue.clear();
        }
        if let Some(fs) = self.faults.as_deref_mut() {
            fs.pending_links.clear();
        }
        self.rebuild_activity();
    }

    /// Aggregates performance counters over all tiles. Idle time deferred
    /// for skipped quiescent tiles is added back virtually, so the totals
    /// are always identical to full-scan stepping.
    pub fn perf(&self) -> FabricPerf {
        let mut p = FabricPerf::default();
        for (i, t) in self.tiles.iter().enumerate() {
            p.flops_f16 += t.core.perf.flops_f16;
            p.flops_f32 += t.core.perf.flops_f32;
            p.busy_cycles += t.core.perf.busy_cycles;
            p.idle_cycles += t.core.perf.idle_cycles;
            p.flits_routed += t.router.flits_routed;
            p.ctrl_stmts += t.core.perf.ctrl_stmts;
            if !self.dead[i] {
                p.idle_cycles += self.cycle - self.accounted[i];
            }
            for (slot, bp) in p.backpressure.iter_mut().zip(t.router.backpressure) {
                *slot += bp;
            }
        }
        p
    }
}

/// A rectangular tile region of a fabric — the unit of multi-tenant
/// partitioning. Tenant programs are built region-relative (routing is
/// per-tile and therefore translation-invariant), so the same compiled
/// program image can be placed at any origin whose region fits the fabric.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Region {
    /// Leftmost tile column.
    pub x: usize,
    /// Topmost tile row.
    pub y: usize,
    /// Width in tiles.
    pub w: usize,
    /// Height in tiles.
    pub h: usize,
}

impl Region {
    /// Creates a region; extents must be nonzero.
    ///
    /// # Panics
    /// Panics if either extent is zero.
    pub fn new(x: usize, y: usize, w: usize, h: usize) -> Region {
        assert!(w > 0 && h > 0, "region extents must be nonzero");
        Region { x, y, w, h }
    }

    /// Number of tiles in the region.
    pub fn area(&self) -> usize {
        self.w * self.h
    }

    /// `true` if absolute tile `(x, y)` lies inside the region.
    pub fn contains(&self, x: usize, y: usize) -> bool {
        x >= self.x && x < self.x + self.w && y >= self.y && y < self.y + self.h
    }

    /// `true` if the two regions share at least one tile.
    pub fn overlaps(&self, other: &Region) -> bool {
        self.x < other.x + other.w
            && other.x < self.x + self.w
            && self.y < other.y + other.h
            && other.y < self.y + self.h
    }

    /// `true` if a `w × h` program shape fits inside this region.
    pub fn fits(&self, w: usize, h: usize) -> bool {
        w <= self.w && h <= self.h
    }
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}@({},{})", self.w, self.h, self.x, self.y)
    }
}

/// A read-only view of one region of a fabric: region-relative tile access
/// plus the SRAM accounting the admission-control capacity checks read.
pub struct RegionView<'a> {
    fabric: &'a Fabric,
    region: Region,
}

impl RegionView<'_> {
    /// The viewed region.
    pub fn region(&self) -> Region {
        self.region
    }

    /// Tile at *region-relative* coordinates `(rx, ry)`.
    ///
    /// # Panics
    /// Panics if the coordinates fall outside the region.
    pub fn tile(&self, rx: usize, ry: usize) -> &Tile {
        assert!(rx < self.region.w && ry < self.region.h, "tile ({rx},{ry}) outside region");
        self.fabric.tile(self.region.x + rx, self.region.y + ry)
    }

    /// Largest per-tile SRAM allocation in the region, in bytes — the
    /// number admission control compares against [`crate::TILE_SRAM_BYTES`].
    pub fn sram_used_max(&self) -> u32 {
        let mut max = 0;
        for ry in 0..self.region.h {
            for rx in 0..self.region.w {
                max = max.max(self.tile(rx, ry).mem.used());
            }
        }
        max
    }

    /// `true` when every tile in the region is individually quiescent
    /// (core idle and router empty) — the precondition for replacing the
    /// resident program.
    pub fn is_quiescent(&self) -> bool {
        for ry in 0..self.region.h {
            for rx in 0..self.region.w {
                let t = self.tile(rx, ry);
                if !t.core.is_quiescent() || t.router.queued() > 0 {
                    return false;
                }
            }
        }
        true
    }
}

impl Fabric {
    /// Asserts `region` lies inside the fabric.
    fn check_region(&self, region: Region) {
        assert!(
            region.x + region.w <= self.w && region.y + region.h <= self.h,
            "region {region} outside {}x{} fabric",
            self.w,
            self.h
        );
    }

    /// A read-only [`RegionView`] of `region`.
    ///
    /// # Panics
    /// Panics if the region reaches outside the fabric.
    pub fn region(&self, region: Region) -> RegionView<'_> {
        self.check_region(region);
        RegionView { fabric: self, region }
    }

    /// Clones the tiles of `region` into a fresh region-sized fabric
    /// (origin shifted to `(0, 0)`).
    ///
    /// Because routing state is per-tile, the extract is exactly the
    /// program a region-sized fabric would hold — which makes it the
    /// region-scoped lint entry's input: a route that escapes the region
    /// surfaces as an off-fabric/dangling diagnostic on the extract.
    /// Declared edge channels are *not* carried over (tenant programs are
    /// required to be self-contained).
    ///
    /// # Panics
    /// Panics if the region reaches outside the fabric.
    pub fn extract_region(&self, region: Region) -> Fabric {
        self.check_region(region);
        let mut out = Fabric::new(region.w, region.h);
        for ry in 0..region.h {
            for rx in 0..region.w {
                *out.tile_mut(rx, ry) = self.tile(region.x + rx, region.y + ry).clone();
            }
        }
        out
    }

    /// Copies a region-sized `template` fabric's tiles into `region`,
    /// replacing whatever program was resident there — the warm path of
    /// the compiled-program cache. Tiles are handed out via
    /// [`Fabric::tile_mut`], so activity state and the credits of the links
    /// into and out of the region are re-derived before the next step.
    ///
    /// # Panics
    /// Panics if the region reaches outside the fabric or the template's
    /// dimensions differ from the region's.
    pub fn blit_region(&mut self, region: Region, template: &Fabric) {
        self.check_region(region);
        assert_eq!(
            (template.width(), template.height()),
            (region.w, region.h),
            "template shape does not match region {region}"
        );
        debug_assert!(template.is_quiescent(), "program template must be quiescent");
        for ry in 0..region.h {
            for rx in 0..region.w {
                *self.tile_mut(region.x + rx, region.y + ry) = template.tile(rx, ry).clone();
                // The idle debt deferred for the replaced core went with it:
                // the new core is accounted from the blit on.
                let i = self.index(region.x + rx, region.y + ry);
                self.accounted[i] = self.cycle;
            }
        }
        // Under an armed trace the blit just replaced whole cores, whose
        // clones carry the template's (unarmed, zeroed) trace and perf
        // state. Re-arm them at the current cycle and rebase their counter
        // baselines so the window stays consistent — otherwise take_trace
        // would find unarmed cores and underflowing deltas.
        if self.trace.is_some() {
            let cycle = self.cycle;
            let cap = self.trace.as_deref().expect("armed").ring_capacity;
            for ry in 0..region.h {
                for rx in 0..region.w {
                    let i = self.index(region.x + rx, region.y + ry);
                    let t = &mut self.tiles[i];
                    t.core.arm_trace(cycle, cap);
                    let base = (
                        t.core.perf.busy_cycles,
                        t.core.perf.idle_cycles,
                        t.router.flits_routed,
                        t.router.backpressure,
                    );
                    self.trace.as_deref_mut().expect("armed").base[i] = base;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsr::mk;
    use crate::instr::{Op, Stmt, Task, TensorInstr};
    use crate::types::Dtype;
    use wse_float::F16;

    /// Two tiles: (0,0) sends three fp16 values east on color 1; (1,0)
    /// receives and stores them.
    #[test]
    fn point_to_point_transfer() {
        let mut f = Fabric::new(2, 1);
        // Route: sender ramp -> East; receiver West -> Ramp.
        f.set_route(0, 0, Port::Ramp, 1, &[Port::East]);
        f.set_route(1, 0, Port::West, 1, &[Port::Ramp]);

        // Sender program.
        {
            let t = f.tile_mut(0, 0);
            let data: Vec<F16> = [1.0, 2.0, 3.0].iter().map(|&v| F16::from_f64(v)).collect();
            let addr = t.mem.alloc_vec(3, Dtype::F16).unwrap();
            t.mem.store_f16_slice(addr, &data);
            let dsrc = t.core.add_dsr(mk::tensor16(addr, 3));
            let dtx = t.core.add_dsr(mk::tx16(1, 3));
            let task = t.core.add_task(Task::new(
                "send",
                vec![Stmt::Exec(TensorInstr {
                    op: Op::Copy,
                    dst: Some(dtx),
                    a: Some(dsrc),
                    b: None,
                })],
            ));
            t.core.activate(task);
        }
        // Receiver program.
        let raddr;
        {
            let t = f.tile_mut(1, 0);
            raddr = t.mem.alloc_vec(3, Dtype::F16).unwrap();
            let drx = t.core.add_dsr(mk::rx16(1, 3));
            let ddst = t.core.add_dsr(mk::tensor16(raddr, 3));
            let task = t.core.add_task(Task::new(
                "recv",
                vec![Stmt::Exec(TensorInstr {
                    op: Op::Copy,
                    dst: Some(ddst),
                    a: Some(drx),
                    b: None,
                })],
            ));
            t.core.activate(task);
        }

        let cycles = f.run_watched(1000, 1000).expect("must quiesce");
        assert!(cycles > 0 && cycles < 50, "cycles = {cycles}");
        let got = f.tile(1, 0).mem.load_f16_slice(raddr, 3);
        assert_eq!(got.iter().map(|v| v.to_f64()).collect::<Vec<_>>(), vec![1.0, 2.0, 3.0]);
        assert_eq!(f.perf().flits_routed, 6, "3 flits through 2 routers");
    }

    /// A flit crossing k hops takes ~k cycles (single-cycle per hop).
    #[test]
    fn hop_latency_is_about_one_cycle() {
        let n = 12;
        let mut f = Fabric::new(n, 1);
        // Pass-through routes on color 0, west→east.
        f.set_route(0, 0, Port::Ramp, 0, &[Port::East]);
        for x in 1..n - 1 {
            f.set_route(x, 0, Port::West, 0, &[Port::East]);
        }
        f.set_route(n - 1, 0, Port::West, 0, &[Port::Ramp]);

        {
            let t = f.tile_mut(0, 0);
            let addr = t.mem.alloc_vec(1, Dtype::F16).unwrap();
            t.mem.store_f16_slice(addr, &[F16::from_f64(9.0)]);
            let dsrc = t.core.add_dsr(mk::tensor16(addr, 1));
            let dtx = t.core.add_dsr(mk::tx16(0, 1));
            let task = t.core.add_task(Task::new(
                "send",
                vec![Stmt::Exec(TensorInstr {
                    op: Op::Copy,
                    dst: Some(dtx),
                    a: Some(dsrc),
                    b: None,
                })],
            ));
            t.core.activate(task);
        }
        {
            let t = f.tile_mut(n - 1, 0);
            let drx = t.core.add_dsr(mk::rx16(0, 1));
            let task = t.core.add_task(Task::new(
                "recv",
                vec![Stmt::Exec(TensorInstr {
                    op: Op::LoadReg { reg: 0 },
                    dst: None,
                    a: Some(drx),
                    b: None,
                })],
            ));
            t.core.activate(task);
        }
        let cycles = f.run_watched(1000, 1000).unwrap();
        assert_eq!(f.tile(n - 1, 0).core.regs[0], 9.0);
        // n-1 hops plus a few cycles of launch/ramp overhead.
        assert!(
            cycles as usize >= n - 1 && (cycles as usize) < n + 12,
            "expected ~{} cycles, got {cycles}",
            n - 1
        );
    }

    /// Fanout: one sender broadcasts to all four neighbors simultaneously.
    #[test]
    fn broadcast_to_four_neighbors() {
        let mut f = Fabric::new(3, 3);
        f.set_route(1, 1, Port::Ramp, 2, &[Port::North, Port::South, Port::East, Port::West]);
        for (x, y, port) in [
            (1usize, 0usize, Port::South),
            (1, 2, Port::North),
            (2, 1, Port::West),
            (0, 1, Port::East),
        ] {
            f.set_route(x, y, port, 2, &[Port::Ramp]);
            let t = f.tile_mut(x, y);
            let drx = t.core.add_dsr(mk::rx16(2, 1));
            let task = t.core.add_task(Task::new(
                "recv",
                vec![Stmt::Exec(TensorInstr {
                    op: Op::LoadReg { reg: 5 },
                    dst: None,
                    a: Some(drx),
                    b: None,
                })],
            ));
            t.core.activate(task);
        }
        {
            let t = f.tile_mut(1, 1);
            let addr = t.mem.alloc_vec(1, Dtype::F16).unwrap();
            t.mem.store_f16_slice(addr, &[F16::from_f64(4.0)]);
            let dsrc = t.core.add_dsr(mk::tensor16(addr, 1));
            let dtx = t.core.add_dsr(mk::tx16(2, 1));
            let task = t.core.add_task(Task::new(
                "send",
                vec![Stmt::Exec(TensorInstr {
                    op: Op::Copy,
                    dst: Some(dtx),
                    a: Some(dsrc),
                    b: None,
                })],
            ));
            t.core.activate(task);
        }
        f.run_watched(100, 100).unwrap();
        for (x, y) in [(1, 0), (1, 2), (2, 1), (0, 1)] {
            assert_eq!(f.tile(x, y).core.regs[5], 4.0, "neighbor ({x},{y})");
        }
    }

    #[test]
    fn stalled_reports_diagnostics() {
        let mut f = Fabric::new(2, 1);
        // Receiver waits for data that never comes.
        let t = f.tile_mut(1, 0);
        let drx = t.core.add_dsr(mk::rx16(0, 1));
        let task = t.core.add_task(Task::new(
            "recv",
            vec![Stmt::Exec(TensorInstr {
                op: Op::LoadReg { reg: 0 },
                dst: None,
                a: Some(drx),
                b: None,
            })],
        ));
        t.core.activate(task);
        let err = f.run_watched(1_000, 64).unwrap_err();
        assert!(!err.deadline_exceeded, "a proven deadlock, not a timeout: {err}");
        assert!(err.cycle < 1_000 && err.window == 64, "{err}");
        assert_eq!(err.total_stalled, 1);
        assert_eq!((err.stalled[0].x, err.stalled[0].y), (1, 0));
        assert_eq!(err.stalled[0].task, Some("recv"));
        assert!(err.to_string().contains("tile(1,0) task=recv"), "{err}");
    }

    #[test]
    fn trace_collects_events_phases_and_stalls() {
        use crate::instr::OpClass;
        use crate::trace::{StallCause, TraceConfig, TraceEventKind};
        let (mut f, _) = sender_receiver(8);
        f.arm_trace(TraceConfig::default());
        assert!(f.trace_armed());
        f.phase_begin("stream");
        f.run_watched(1_000, 1_000).unwrap();
        f.phase_end();
        f.phase_marker("checkpoint");
        let tr = f.take_trace().expect("trace was armed");
        assert!(!f.trace_armed(), "take_trace disarms");
        assert_eq!((tr.w, tr.h), (2, 1));
        assert_eq!(tr.start_cycle, 0);
        assert_eq!(tr.end_cycle, f.cycle());
        // Phases: one closed span plus the marker.
        assert_eq!(tr.phases.len(), 2);
        assert_eq!(tr.phases[0].name, "stream");
        assert!(tr.phases[0].cycles() > 0);
        assert!(tr.phases[1].is_marker());
        // Both tiles saw exactly one task start/end pair, with monotone
        // in-window stamps.
        for tile in &tr.tiles {
            let evs = &tile.events;
            assert_eq!(evs.len(), 2, "start+end on tile ({},{})", tile.x, tile.y);
            assert!(matches!(evs[0].kind, TraceEventKind::TaskStart { .. }));
            assert!(matches!(evs[1].kind, TraceEventKind::TaskEnd { .. }));
            assert!(evs[0].cycle <= evs[1].cycle);
            assert!(evs[1].cycle <= tr.end_cycle);
            assert_eq!(tile.dropped_events, 0);
        }
        // The copy streams retire as Move-class instructions.
        assert_eq!(tr.retire_totals()[OpClass::Move.index()], 2);
        // The receiver waited on fabric data at least once while the first
        // flits crossed the link.
        let recv = tr.tile(1, 0);
        assert!(recv.stall[StallCause::FifoWait.index()] > 0, "stalls: {:?}", recv.stall);
        // Stall attribution covers every idle cycle on every tile.
        for tile in &tr.tiles {
            assert_eq!(
                tile.stall.iter().sum::<u64>(),
                tile.idle_cycles,
                "tile ({},{})",
                tile.x,
                tile.y
            );
        }
        // Bank conflicts are unmodeled: always zero.
        assert_eq!(tr.stall_totals()[StallCause::BankConflict.index()], 0);
    }

    #[test]
    fn disarmed_trace_hooks_are_inert_and_deterministic() {
        // Disarmed, phase calls only reach the phase log (there is no trace
        // to take), and an armed run must not perturb simulated timing:
        // cycle-for-cycle identical to disarmed.
        let (mut a, _) = sender_receiver(16);
        a.phase_begin("ignored");
        a.phase_end();
        let cycles_a = a.run_watched(1_000, 1_000).unwrap();
        assert!(a.take_trace().is_none());

        let (mut b, _) = sender_receiver(16);
        b.arm_trace(TraceConfig { ring_capacity: 64 });
        let cycles_b = b.run_watched(1_000, 1_000).unwrap();
        assert_eq!(cycles_a, cycles_b, "tracing must not change simulated time");
        let pa = a.perf();
        let pb = b.perf();
        assert_eq!(pa.busy_cycles, pb.busy_cycles);
        assert_eq!(pa.flits_routed, pb.flits_routed);
    }

    #[test]
    fn tile_footprint_fits_in_four_kib() {
        // 3,344 B on x86-64: the core's 2,936 (1,728 of them its 48 ramp
        // rings), the router's 352 with its routed queues on the heap, and
        // the lazily backed SRAM's handle.
        assert!(std::mem::size_of::<Tile>() <= 4096, "{} B", std::mem::size_of::<Tile>());
    }

    #[test]
    fn phase_log_records_unarmed_and_a_trace_sees_only_its_own_window() {
        let (mut f, _) = sender_receiver(8);
        f.phase_marker("load");
        f.phase_begin("stream");
        f.run_watched(1_000, 1_000).unwrap();
        let end = f.cycle();
        f.phase_span("late", 2, 5);
        // The open span is closed at the drain, and the log starts afresh.
        let log = f.drain_phases();
        let want = [
            PhaseSpan { name: "load", start: 0, end: 0 },
            PhaseSpan { name: "stream", start: 0, end },
            PhaseSpan { name: "late", start: 2, end: 5 },
        ];
        assert_eq!(log, want);
        assert!(f.drain_phases().is_empty());

        // A span opened before arming is not the trace's: arming starts the
        // log afresh, so its close records nothing.
        f.phase_begin("before");
        f.step();
        f.arm_trace(TraceConfig::default());
        f.phase_end();
        f.phase_begin("after");
        f.step();
        let tr = f.take_trace().unwrap();
        assert_eq!(tr.phases, [PhaseSpan { name: "after", start: end + 1, end: end + 2 }]);
        assert!(f.drain_phases().is_empty(), "take_trace drained the log");
    }

    #[test]
    fn sanitizer_is_inert_and_clean_on_ordered_program() {
        // An armed sanitizer must not perturb simulated timing, and a
        // properly synchronized stream must produce zero race trips while
        // still observing the receiver's channel waits.
        let (mut a, _) = sender_receiver(16);
        let cycles_a = a.run_watched(1_000, 1_000).unwrap();
        assert!(a.take_sanitizer().is_none(), "disarmed take returns None");

        let (mut b, _) = sender_receiver(16);
        b.arm_sanitizer();
        assert!(b.sanitizer_armed());
        let cycles_b = b.run_watched(1_000, 1_000).unwrap();
        assert_eq!(cycles_a, cycles_b, "sanitizing must not change simulated time");
        let pa = a.perf();
        let pb = b.perf();
        assert_eq!(pa.busy_cycles, pb.busy_cycles);
        assert_eq!(pa.flits_routed, pb.flits_routed);
        let rep = b.take_sanitizer().expect("sanitizer was armed");
        assert!(!b.sanitizer_armed(), "take_sanitizer disarms");
        assert!(rep.is_clean(), "ordered stream tripped: {rep}");
        assert_eq!(rep.cycles, cycles_b);
        // The receiver stalled on color 1 at least once while the first
        // flits crossed the link; the shadow channel-wait saw it.
        let recv = &rep.tiles[1];
        assert!(recv.chan_wait[1] > 0, "receiver never waited on color 1");
        assert!(rep.longest_channel_wait().is_some());
    }

    #[test]
    fn sanitizer_trips_on_unordered_overlapping_writes() {
        // Main launches a background copy into `buf` and immediately
        // overwrites the same buffer synchronously, with no completion
        // ordering between them — the defining data race.
        use crate::dsr::mk;
        use crate::instr::{Op, Stmt, Task, TensorInstr};
        let mut f = Fabric::new(1, 1);
        {
            let t = f.tile_mut(0, 0);
            let buf = t.mem.alloc_vec(16, Dtype::F16).unwrap();
            let src_a = t.mem.alloc_vec(16, Dtype::F16).unwrap();
            let src_b = t.mem.alloc_vec(16, Dtype::F16).unwrap();
            let d_buf1 = t.core.add_dsr(mk::tensor16(buf, 16));
            let d_buf2 = t.core.add_dsr(mk::tensor16(buf, 16));
            let d_a = t.core.add_dsr(mk::tensor16(src_a, 16));
            let d_b = t.core.add_dsr(mk::tensor16(src_b, 16));
            let task = t.core.add_task(Task::new(
                "racy",
                vec![
                    Stmt::Launch {
                        slot: 0,
                        instr: TensorInstr {
                            op: Op::Copy,
                            dst: Some(d_buf1),
                            a: Some(d_a),
                            b: None,
                        },
                        on_complete: None,
                    },
                    Stmt::Exec(TensorInstr {
                        op: Op::Copy,
                        dst: Some(d_buf2),
                        a: Some(d_b),
                        b: None,
                    }),
                ],
            ));
            t.core.activate(task);
        }
        f.arm_sanitizer();
        f.run_watched(1_000, 1_000).unwrap();
        let rep = f.take_sanitizer().unwrap();
        assert!(!rep.is_clean(), "unordered overlapping writes must trip");
        let tile = &rep.tiles[0];
        assert!(tile.total_trips > 0);
        assert!(!tile.trips.is_empty());
        // Both contexts wrote the same bytes; whichever access came second
        // names the other as prior.
        let trip = tile.trips[0];
        assert!(trip.ctx != trip.prior_ctx);
    }

    #[test]
    fn trace_window_baselines_exclude_pre_arm_work() {
        // Run one stream untraced, then arm and run a second: the trace
        // window must only account the second stream's work.
        let (mut f, _) = sender_receiver(8);
        f.run_watched(1_000, 1_000).unwrap();
        let busy_before: u64 = f.perf().busy_cycles;
        assert!(busy_before > 0);
        f.arm_trace(TraceConfig::default());
        let armed_at = f.cycle();
        for _ in 0..10 {
            f.step(); // idle cycles only: nothing active
        }
        let tr = f.take_trace().unwrap();
        assert_eq!(tr.start_cycle, armed_at);
        assert_eq!(tr.window_cycles(), 10);
        for tile in &tr.tiles {
            assert_eq!(tile.busy_cycles, 0, "pre-arm work leaked into the window");
            assert_eq!(tile.idle_cycles, 10);
            assert_eq!(tile.events.len(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "points off the fabric")]
    fn edge_route_panics() {
        let mut f = Fabric::new(2, 2);
        f.set_route(0, 0, Port::Ramp, 0, &[Port::West]);
    }

    /// A 1×1 fabric streaming `n` fp16 words out of a declared east edge
    /// channel on color 1.
    fn edge_sender(n: u32) -> Fabric {
        let mut f = Fabric::new(1, 1);
        f.open_edge(0, 0, Port::East, 1);
        f.set_route(0, 0, Port::Ramp, 1, &[Port::East]);
        let t = f.tile_mut(0, 0);
        let data: Vec<F16> = (1..=n).map(|i| F16::from_f64(i as f64)).collect();
        let addr = t.mem.alloc_vec(n, Dtype::F16).unwrap();
        t.mem.store_f16_slice(addr, &data);
        let dsrc = t.core.add_dsr(mk::tensor16(addr, n));
        let dtx = t.core.add_dsr(mk::tx16(1, n));
        let task = t.core.add_task(Task::new(
            "send",
            vec![Stmt::Exec(TensorInstr { op: Op::Copy, dst: Some(dtx), a: Some(dsrc), b: None })],
        ));
        t.core.activate(task);
        f
    }

    #[test]
    fn edge_egress_holds_without_credits_and_streams_in_order_with_them() {
        let mut f = edge_sender(5);
        // Default credits = 0: identical to an undeclared edge — flits
        // hold in the router and the watchdog sees a wedged fabric.
        assert!(f.run_watched(10_000, 64).is_err(), "zero-credit edge must hold");
        assert_eq!(f.edge_out_len(0, 0, Port::East, 1), 0);
        // Granting credits lets the stream drain through the channel.
        f.set_edge_credits(0, 0, Port::East, 1, 5);
        f.run_watched(10_000, 64).expect("credited edge egress must drain");
        // Egress queues live host-side: the fabric is quiescent even
        // though nothing has collected the flits yet.
        assert!(f.is_quiescent());
        assert_eq!(f.edge_out_len(0, 0, Port::East, 1), 5);
        let flits = f.drain_edge_out(0, 0, Port::East, 1);
        let got: Vec<f64> =
            flits.iter().map(|fl| F16::from_bits(fl.bits as u16).to_f64()).collect();
        assert_eq!(got, vec![1.0, 2.0, 3.0, 4.0, 5.0], "staged order preserved");
        assert_eq!(f.edge_out_len(0, 0, Port::East, 1), 0);
    }

    #[test]
    fn edge_egress_is_stepper_equivalent() {
        let run = |reference: bool| {
            let mut f = edge_sender(6);
            f.use_reference_stepper(reference);
            f.set_edge_credits(0, 0, Port::East, 1, 2);
            // Narrow credit window: the host collects two flits at a time,
            // exercising snapshot-credit holds in both steppers.
            let mut out = Vec::new();
            let mut cycles = 0u64;
            while out.len() < 6 {
                f.step();
                cycles += 1;
                out.extend(f.drain_edge_out(0, 0, Port::East, 1));
                assert!(cycles < 1_000, "edge stream wedged");
            }
            let vals: Vec<f64> =
                out.iter().map(|fl| F16::from_bits(fl.bits as u16).to_f64()).collect();
            (cycles, vals, f.perf().flits_routed)
        };
        let (oc, ov, of) = run(false);
        let (rc, rv, rf) = run(true);
        assert_eq!(oc, rc, "steppers diverged on edge egress timing");
        assert_eq!(ov, rv);
        assert_eq!(of, rf);
        assert_eq!(ov, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn edge_injection_obeys_queue_space_and_color_routing() {
        let mut f = Fabric::new(1, 1);
        f.open_edge(0, 0, Port::West, 1);
        f.set_route(0, 0, Port::West, 1, &[Port::Ramp]);
        let raddr;
        {
            let t = f.tile_mut(0, 0);
            raddr = t.mem.alloc_vec(12, Dtype::F16).unwrap();
            let drx = t.core.add_dsr(mk::rx16(1, 12));
            let ddst = t.core.add_dsr(mk::tensor16(raddr, 12));
            let task = t.core.add_task(Task::new(
                "recv",
                vec![Stmt::Exec(TensorInstr {
                    op: Op::Copy,
                    dst: Some(ddst),
                    a: Some(drx),
                    b: None,
                })],
            ));
            t.core.activate(task);
        }
        // Injection fills the same bounded per-color input queue an
        // on-wafer neighbor would: exactly QUEUE_CAPACITY flits fit, then
        // the host is backpressured.
        assert_eq!(f.edge_in_space(0, 0, Port::West, 1), crate::types::QUEUE_CAPACITY);
        let mut sent = 0u32;
        while sent < 12 {
            if !f.inject_edge(0, 0, Port::West, 1, Flit::f16(F16::from_f64(sent as f64).to_bits()))
            {
                break;
            }
            sent += 1;
        }
        assert_eq!(sent as usize, crate::types::QUEUE_CAPACITY, "queue bounds injection");
        assert!(!f.inject_edge(0, 0, Port::West, 1, Flit::f16(0)), "full queue backpressures");
        // Draining the fabric frees space; the host finishes the stream.
        let mut guard = 0;
        while sent < 12 {
            f.step();
            guard += 1;
            assert!(guard < 1_000, "injected stream wedged");
            while sent < 12
                && f.inject_edge(
                    0,
                    0,
                    Port::West,
                    1,
                    Flit::f16(F16::from_f64(sent as f64).to_bits()),
                )
            {
                sent += 1;
            }
        }
        f.run_watched(10_000, 64).expect("receiver must finish");
        let got = f.tile(0, 0).mem.load_f16_slice(raddr, 12);
        for (i, v) in got.iter().enumerate() {
            assert_eq!(v.to_f64(), i as f64, "word {i} delivered in order");
        }
    }

    #[test]
    #[should_panic(expected = "no edge port declared")]
    fn edge_injection_requires_declaration() {
        let mut f = Fabric::new(2, 2);
        f.inject_edge(0, 0, Port::West, 3, Flit::f16(0));
    }

    #[test]
    fn unused_edge_ports_are_cycle_identical() {
        // The same workload with and without (unused) declared edge
        // channels, under both steppers: declaring edges must not perturb
        // a single cycle or counter.
        let run = |edges: bool, reference: bool| {
            let (mut f, raddr) = sender_receiver(8);
            if edges {
                f.open_edge(0, 0, Port::West, 1);
                f.open_edge(0, 0, Port::North, 5);
                f.open_edge(1, 0, Port::East, 1);
                f.set_edge_credits(1, 0, Port::East, 1, 4);
            }
            f.use_reference_stepper(reference);
            let cycles = f.run_watched(100_000, 100_000).expect("stream finishes");
            let p = f.perf();
            let data = f.tile(1, 0).mem.load_f16_slice(raddr, 8);
            (cycles, p.busy_cycles, p.idle_cycles, p.flits_routed, p.ctrl_stmts, data)
        };
        let base = run(false, false);
        assert_eq!(run(true, false), base, "unused edges perturbed the optimized stepper");
        assert_eq!(run(true, true), base, "unused edges perturbed the reference stepper");
        assert_eq!(run(false, true), base, "steppers diverged on the baseline");
    }

    /// Builds the standard 2-tile sender/receiver pair used by the fault
    /// tests: (0,0) streams `n` fp16 values east on color 1 into a vector
    /// at the returned address on (1,0).
    fn sender_receiver(n: u32) -> (Fabric, u32) {
        let mut f = Fabric::new(2, 1);
        f.set_route(0, 0, Port::Ramp, 1, &[Port::East]);
        f.set_route(1, 0, Port::West, 1, &[Port::Ramp]);
        {
            let t = f.tile_mut(0, 0);
            let data: Vec<F16> = (1..=n).map(|i| F16::from_f64(i as f64)).collect();
            let addr = t.mem.alloc_vec(n, Dtype::F16).unwrap();
            t.mem.store_f16_slice(addr, &data);
            let dsrc = t.core.add_dsr(mk::tensor16(addr, n));
            let dtx = t.core.add_dsr(mk::tx16(1, n));
            let task = t.core.add_task(Task::new(
                "send",
                vec![Stmt::Exec(TensorInstr {
                    op: Op::Copy,
                    dst: Some(dtx),
                    a: Some(dsrc),
                    b: None,
                })],
            ));
            t.core.activate(task);
        }
        let raddr;
        {
            let t = f.tile_mut(1, 0);
            raddr = t.mem.alloc_vec(n, Dtype::F16).unwrap();
            let drx = t.core.add_dsr(mk::rx16(1, n));
            let ddst = t.core.add_dsr(mk::tensor16(raddr, n));
            let task = t.core.add_task(Task::new(
                "recv",
                vec![Stmt::Exec(TensorInstr {
                    op: Op::Copy,
                    dst: Some(ddst),
                    a: Some(drx),
                    b: None,
                })],
            ));
            t.core.activate(task);
        }
        (f, raddr)
    }

    #[test]
    fn sram_bit_flip_applies_at_scheduled_cycle() {
        let mut f = Fabric::new(1, 1);
        let addr = f.tile_mut(0, 0).mem.alloc_vec(4, Dtype::F16).unwrap();
        f.tile_mut(0, 0).mem.store_f16_slice(addr, &[F16::from_f64(1.0); 4]);
        let before = f.tile(0, 0).mem.read_f16(addr + 2).to_bits();
        f.arm_faults(
            &FaultPlan::new()
                .with(5, FaultKind::SramBitFlip { x: 0, y: 0, addr: addr + 2, bit: 9 }),
        );
        for _ in 0..5 {
            f.step();
        }
        assert!(f.fault_log().unwrap().applied.is_empty(), "not yet due");
        f.step(); // cycle 5 begins: the flip lands
        let after = f.tile(0, 0).mem.read_f16(addr + 2).to_bits();
        assert_eq!(after, before ^ (1 << 9));
        assert_eq!(f.fault_log().unwrap().applied.len(), 1);
        // Untouched neighbors are unchanged.
        assert_eq!(f.tile(0, 0).mem.read_f16(addr).to_bits(), before);
    }

    #[test]
    fn sram_bit_flip_on_unbacked_sram_flips_a_zero_word() {
        let mut f = Fabric::new(1, 1);
        let addr = 40_000;
        f.arm_faults(
            &FaultPlan::new().with(0, FaultKind::SramBitFlip { x: 0, y: 0, addr, bit: 4 }),
        );
        f.step();
        assert_eq!(f.fault_log().unwrap().applied.len(), 1);
        assert_eq!(f.tile(0, 0).mem.read_f16(addr).to_bits(), 1 << 4);
        assert_eq!(f.tile(0, 0).mem.read_f16(addr - 2).to_bits(), 0);
        assert_eq!(f.tile(0, 0).mem.as_bytes().len(), addr as usize + 2);
    }

    #[test]
    fn fresh_fabric_backs_no_sram() {
        let f = Fabric::new(64, 64);
        for y in 0..64 {
            for x in 0..64 {
                assert!(f.tile(x, y).mem.as_bytes().is_empty(), "tile ({x},{y})");
            }
        }
    }

    #[test]
    fn link_drop_loses_exactly_one_flit() {
        let (mut f, raddr) = sender_receiver(3);
        f.arm_faults(
            &FaultPlan::new().with(0, FaultKind::LinkDrop { x: 0, y: 0, port: Port::East }),
        );
        // The receiver waits forever for its third word: watchdog fires.
        let err = f.run_watched(10_000, 64).unwrap_err();
        assert!(!err.deadline_exceeded);
        assert_eq!(f.fault_log().unwrap().dropped_flits, 1);
        assert_eq!(err.total_stalled, 1, "only the receiver is wedged: {err}");
        assert_eq!(err.stalled[0].x, 1);
        // The two delivered words made it.
        let got = f.tile(1, 0).mem.load_f16_slice(raddr, 2);
        assert_eq!(got[0].to_f64(), 2.0, "first word was the dropped one");
        assert_eq!(got[1].to_f64(), 3.0);
    }

    #[test]
    fn link_corrupt_flips_one_payload_bit() {
        let (mut f, raddr) = sender_receiver(3);
        f.arm_faults(
            &FaultPlan::new()
                .with(0, FaultKind::LinkCorrupt { x: 0, y: 0, port: Port::East, bit: 3 }),
        );
        f.run_watched(10_000, 64).expect("corruption does not stall the fabric");
        assert_eq!(f.fault_log().unwrap().corrupted_flits, 1);
        let got = f.tile(1, 0).mem.load_f16_slice(raddr, 3);
        assert_eq!(got[0].to_bits(), F16::from_f64(1.0).to_bits() ^ (1 << 3));
        assert_eq!(got[1].to_f64(), 2.0);
        assert_eq!(got[2].to_f64(), 3.0);
    }

    #[test]
    fn tile_kill_stalls_with_report_naming_the_dead_neighborhood() {
        let (mut f, _) = sender_receiver(64);
        f.arm_faults(&FaultPlan::new().with(20, FaultKind::TileKill { x: 1, y: 0 }));
        let err = f.run_watched(100_000, 128).unwrap_err();
        assert!(!err.deadline_exceeded, "must be a detected deadlock, not a timeout");
        assert!(f.tile_dead(1, 0));
        assert!(err.total_stalled >= 1);
        assert!(
            err.stalled.iter().any(|t| (t.x, t.y) == (1, 0) && t.router_queued > 0),
            "dead tile holds undrained queues: {err}"
        );
    }

    #[test]
    fn stuck_port_wedges_the_route() {
        let (mut f, _) = sender_receiver(8);
        f.arm_faults(
            &FaultPlan::new().with(0, FaultKind::StuckPort { x: 0, y: 0, port: Port::East }),
        );
        let err = f.run_watched(50_000, 128).unwrap_err();
        assert!(!err.deadline_exceeded);
        assert!(err
            .stalled
            .iter()
            .any(|t| (t.x, t.y) == (0, 0) && (t.router_queued > 0 || t.ramp_out > 0)));
    }

    #[test]
    fn run_watched_matches_unwatched_on_healthy_fabric() {
        let (mut f, raddr) = sender_receiver(8);
        let cycles = f.run_watched(10_000, 256).expect("healthy run must complete");
        assert!(cycles > 0 && cycles < 100);
        let got = f.tile(1, 0).mem.load_f16_slice(raddr, 8);
        assert_eq!(got[7].to_f64(), 8.0);
        assert!(!f.faults_armed());
        assert!(f.fault_log().is_none());
    }

    #[test]
    fn reset_transient_recovers_a_wedged_fabric() {
        // Drop a flit so the receiver wedges, then reset and re-run the
        // same program successfully (the driver re-activates tasks).
        let (mut f, _) = sender_receiver(4);
        f.arm_faults(
            &FaultPlan::new().with(0, FaultKind::LinkDrop { x: 0, y: 0, port: Port::East }),
        );
        f.run_watched(10_000, 64).unwrap_err();
        f.reset_transient();
        assert!(f.is_quiescent(), "reset must leave the fabric quiescent");
        // Replay: same tiles, fresh activation; the one-shot drop is spent.
        let sdata: Vec<F16> = (1..=4).map(|i| F16::from_f64(i as f64)).collect();
        let (saddr, raddr2);
        {
            let t = f.tile_mut(0, 0);
            saddr = t.mem.alloc_vec(4, Dtype::F16).unwrap();
            t.mem.store_f16_slice(saddr, &sdata);
            let dsrc = t.core.add_dsr(mk::tensor16(saddr, 4));
            let dtx = t.core.add_dsr(mk::tx16(1, 4));
            let task = t.core.add_task(Task::new(
                "send2",
                vec![Stmt::Exec(TensorInstr {
                    op: Op::Copy,
                    dst: Some(dtx),
                    a: Some(dsrc),
                    b: None,
                })],
            ));
            t.core.activate(task);
        }
        {
            let t = f.tile_mut(1, 0);
            raddr2 = t.mem.alloc_vec(4, Dtype::F16).unwrap();
            let drx = t.core.add_dsr(mk::rx16(1, 4));
            let ddst = t.core.add_dsr(mk::tensor16(raddr2, 4));
            let task = t.core.add_task(Task::new(
                "recv2",
                vec![Stmt::Exec(TensorInstr {
                    op: Op::Copy,
                    dst: Some(ddst),
                    a: Some(drx),
                    b: None,
                })],
            ));
            t.core.activate(task);
        }
        f.run_watched(10_000, 64).expect("replay must complete");
        assert_eq!(f.tile(1, 0).mem.load_f16_slice(raddr2, 4), sdata);
    }

    #[test]
    fn fault_free_plan_changes_nothing() {
        // Arming an empty plan must not perturb a healthy run's results.
        let (mut f, raddr) = sender_receiver(8);
        f.arm_faults(&FaultPlan::new());
        f.run_watched(10_000, 256).unwrap();
        let got = f.tile(1, 0).mem.load_f16_slice(raddr, 8);
        let want: Vec<F16> = (1..=8).map(|i| F16::from_f64(i as f64)).collect();
        assert_eq!(got, want);
        assert!(f.fault_log().unwrap().applied.is_empty());
    }

    #[test]
    fn faults_on_sleeping_tiles_apply_and_settle_idle_accounting() {
        // A fully idle fabric: the activity-driven stepper skips every
        // tile, yet scheduled faults must still land on time and the
        // killed tile's idle counter must reflect exactly its live cycles.
        let mut f = Fabric::new(3, 1);
        let addr = f.tile_mut(2, 0).mem.alloc_vec(1, Dtype::F16).unwrap();
        f.tile_mut(2, 0).mem.store_f16_slice(addr, &[F16::from_f64(1.0)]);
        let before = f.tile(2, 0).mem.read_f16(addr).to_bits();
        f.arm_faults(
            &FaultPlan::new()
                .with(5, FaultKind::SramBitFlip { x: 2, y: 0, addr, bit: 3 })
                .with(8, FaultKind::TileKill { x: 2, y: 0 }),
        );
        for _ in 0..20 {
            f.step();
        }
        assert_eq!(f.tile(2, 0).mem.read_f16(addr).to_bits(), before ^ (1 << 3));
        assert!(f.tile_dead(2, 0));
        // Killed at cycle 8 after idling through cycles 0..8.
        assert_eq!(f.tile(2, 0).core.perf.idle_cycles, 8);
        // The two surviving tiles idle through all 20 cycles.
        assert_eq!(f.perf().idle_cycles, 8 + 2 * 20);
    }

    #[test]
    fn rearming_faults_revives_killed_tiles_without_back_idle() {
        let mut f = Fabric::new(1, 1);
        f.arm_faults(&FaultPlan::new().with(3, FaultKind::TileKill { x: 0, y: 0 }));
        for _ in 0..10 {
            f.step();
        }
        assert!(f.tile_dead(0, 0));
        assert_eq!(f.perf().idle_cycles, 3, "idle froze at the kill");
        // Re-arming drops the old plan's kill flags: the tile resumes
        // stepping, and the 7 frozen cycles are never billed as idle.
        f.arm_faults(&FaultPlan::new());
        assert!(!f.tile_dead(0, 0));
        for _ in 0..4 {
            f.step();
        }
        assert_eq!(f.perf().idle_cycles, 7);
    }

    #[test]
    fn skipped_idle_tiles_accrue_identical_idle_counters() {
        let (mut a, ra) = sender_receiver(8);
        let ca = a.run_watched(1_000, 1_000).unwrap();
        let (mut b, rb) = sender_receiver(8);
        b.use_reference_stepper(true);
        let cb = b.run_watched(1_000, 1_000).unwrap();
        assert_eq!(ca, cb, "cycle-for-cycle identical");
        let (pa, pb) = (a.perf(), b.perf());
        assert_eq!(pa.idle_cycles, pb.idle_cycles);
        assert_eq!(pa.busy_cycles, pb.busy_cycles);
        assert_eq!(pa.flits_routed, pb.flits_routed);
        assert_eq!(pa.ctrl_stmts, pb.ctrl_stmts);
        assert_eq!(a.tile(1, 0).mem.load_f16_slice(ra, 8), b.tile(1, 0).mem.load_f16_slice(rb, 8));
    }
}
