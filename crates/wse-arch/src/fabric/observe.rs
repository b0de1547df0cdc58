//! Observers the fabric keeps per tile and lends to each core step: the
//! trace, the runtime sanitizer, and the driver-marked phase log.

use super::{Fabric, FabricPerf};
use crate::core::Observers;
use crate::memory::TILE_SRAM_BYTES;
use crate::sanitize::{CoreSanitizer, SanitizerReport, TileSanitizer};
use crate::trace::{CoreTrace, FabricTrace, PhaseSpan, TileTrace, TraceConfig};

/// Driver-marked phase spans, kept whether or not a trace is armed: the
/// one phase record, read by [`Fabric::take_trace`] or handed to any other
/// reader by [`Fabric::drain_phases`].
#[derive(Default)]
pub(super) struct PhaseLog {
    /// Spans in open order (starts are nondecreasing).
    spans: Vec<PhaseSpan>,
    /// Index into `spans` of the currently open span, if any.
    open: Option<usize>,
}

/// Armed trace state (present only while tracing, mirroring `FaultState`),
/// per tile in tile order. A tile's window share of its counters is
/// `banked` plus what it accrued since `base`.
pub(super) struct TraceState {
    /// Fabric cycle at arm time.
    start_cycle: u64,
    /// Each tile's counters ([`Fabric::tile_perf`]) at arm time, or at its
    /// last [`Fabric::tile_mut`] handout, which may replace them.
    pub(super) base: Vec<FabricPerf>,
    /// What each tile accrued in the window before that handout.
    pub(super) banked: Vec<FabricPerf>,
    /// Each tile's task-event ring.
    rings: Vec<CoreTrace>,
}

/// Armed sanitizer state: each tile's shadow state, in tile order.
pub(super) struct SanitizerState {
    /// Fabric cycle at arm time.
    start_cycle: u64,
    tiles: Vec<CoreSanitizer>,
}

/// Tile `i`'s armed observers for a step at `cycle`.
pub(super) fn observers<'a>(
    trace: &'a mut Option<Box<TraceState>>,
    sanitize: &'a mut Option<Box<SanitizerState>>,
    i: usize,
    cycle: u64,
) -> Observers<'a> {
    Observers {
        cycle,
        trace: trace.as_deref_mut().map(|ts| &mut ts.rings[i]),
        sanitize: sanitize.as_deref_mut().map(|ss| &mut ss.tiles[i]),
    }
}

impl Fabric {
    /// Arms fabric-wide tracing: each tile's core records task events into
    /// a bounded ring the fabric keeps and lends it, the counters are
    /// snapshotted so the trace reports the window's share of them, and the
    /// phase log starts afresh, so the trace holds exactly the phases opened
    /// from now on. The disarmed event hook costs one pointer test,
    /// mirroring fault arming. Re-arming replaces any previous trace state.
    pub fn arm_trace(&mut self, config: TraceConfig) {
        let n = self.tiles.len();
        self.phases = PhaseLog::default();
        self.trace = Some(Box::new(TraceState {
            start_cycle: self.cycle,
            base: (0..n).map(|i| self.tile_perf(i)).collect(),
            banked: vec![FabricPerf::default(); n],
            rings: (0..n).map(|_| CoreTrace::new(config.ring_capacity)).collect(),
        }));
    }

    /// `true` while tracing is armed.
    pub fn trace_armed(&self) -> bool {
        self.trace.is_some()
    }

    /// Arms the runtime sanitizer, shadow state the fabric keeps per tile and
    /// lends to its core: SRAM access marks (race detection with
    /// launch-epoch happens-before) and channel-wait streaks. The disarmed
    /// hooks cost one pointer test each, mirroring fault and trace arming;
    /// the sanitizer is observation-only, so an armed run is cycle-identical
    /// to a disarmed one. Re-arming replaces any previous shadow state.
    pub fn arm_sanitizer(&mut self) {
        let tiles = (0..self.tiles.len()).map(|_| CoreSanitizer::new(TILE_SRAM_BYTES as usize));
        self.sanitize =
            Some(Box::new(SanitizerState { start_cycle: self.cycle, tiles: tiles.collect() }));
    }

    /// Disarms the sanitizer and returns everything it observed (`None` if
    /// it was not armed).
    pub fn take_sanitizer(&mut self) -> Option<SanitizerReport> {
        let ss = self.sanitize.take()?;
        let w = self.w;
        let tiles = (ss.tiles.into_iter().enumerate())
            .map(|(i, san)| TileSanitizer {
                x: i % w,
                y: i / w,
                trips: san.trips,
                total_trips: san.total_trips,
                chan_wait: san.chan_wait,
                longest_wait: san.longest_wait,
            })
            .collect();
        Some(SanitizerReport { w, h: self.h, cycles: self.cycle - ss.start_cycle, tiles })
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
    /// The span may overlap other phases; phase-report consumers treat
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
    /// open phase span is closed at the current cycle. Every counter in
    /// it, per tile and fabric-wide, covers only the traced window.
    pub fn take_trace(&mut self) -> Option<FabricTrace> {
        // Rebase tiles handed out since the last step first.
        self.flush_dirty();
        let ts = self.trace.take()?;
        let phases = self.drain_phases();
        let mut perf = FabricPerf::default();
        let mut tiles = Vec::with_capacity(self.tiles.len());
        for (i, ring) in ts.rings.into_iter().enumerate() {
            let d = self.tile_perf(i).since(&ts.base[i]).zip(&ts.banked[i], |a, b| a + b);
            perf = perf.zip(&d, |a, b| a + b);
            tiles.push(TileTrace {
                x: i % self.w,
                y: i / self.w,
                // Stamps come from the fabric clock, so they are monotone.
                events: ring.buf.into(),
                dropped_events: ring.dropped,
                stall: d.stall,
                retired: d.retired,
                busy_cycles: d.busy_cycles,
                idle_cycles: d.idle_cycles,
                flits_routed: d.flits_routed,
                backpressure: d.backpressure,
            });
        }
        Some(FabricTrace {
            w: self.w,
            h: self.h,
            start_cycle: ts.start_cycle,
            end_cycle: self.cycle,
            phases,
            tiles,
            perf,
        })
    }
}
