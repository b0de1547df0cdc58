//! Per-tile tracing: the stall-cause vocabulary, the task-event ring, and
//! the [`FabricTrace`] window snapshot.
//!
//! Stall causes and per-[`OpClass`] retire counts are plain counters in
//! every core's [`CorePerf`](crate::core::CorePerf), kept whether or not a
//! trace is armed; arming buys only the event rings, which the
//! [`Fabric`](crate::fabric::Fabric) keeps per tile and lends to the
//! tile's core for each step (a disarmed hook is one `Option` test, the
//! idiom of fault arming), so a core replaced or cloned mid-window takes no
//! ring with it. A trace's counters are window deltas off the arm-time
//! snapshot. Export
//! and analysis (Perfetto JSON, heatmaps, phase reports) live in the
//! separate `wse-trace` crate, which consumes the [`FabricTrace`] snapshot
//! this module produces.

use crate::fabric::FabricPerf;
use crate::instr::OpClass;
use crate::types::TaskId;
use std::collections::VecDeque;

/// Why a core's datapath made no progress in a cycle.
///
/// Every core counts each cycle its datapath fails to issue under one
/// cause ([`CorePerf::stall`](crate::core::CorePerf::stall)), armed or
/// not; cycles that retire a control statement but leave the datapath idle
/// still count by their datapath state, and the cycles a quiescent tile is
/// skipped count as [`StallCause::Idle`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum StallCause {
    /// An active instruction is starved for input: an empty hardware FIFO,
    /// or an empty fabric-in (ramp) queue — the core is waiting on data.
    FifoWait,
    /// An active instruction's destination cannot accept: the ramp-out
    /// queue is full (router credit backpressure) or a hardware FIFO is
    /// full.
    Backpressure,
    /// Nothing was runnable.
    Idle,
}

impl StallCause {
    /// Number of stall causes (array sizing).
    pub const COUNT: usize = 3;

    /// Every cause, in index order.
    pub const ALL: [StallCause; StallCause::COUNT] =
        [StallCause::FifoWait, StallCause::Backpressure, StallCause::Idle];

    /// Dense index for counter arrays.
    pub fn index(self) -> usize {
        match self {
            StallCause::FifoWait => 0,
            StallCause::Backpressure => 1,
            StallCause::Idle => 2,
        }
    }

    /// Short stable label (reports, CSV columns).
    pub fn label(self) -> &'static str {
        match self {
            StallCause::FifoWait => "fifo_wait",
            StallCause::Backpressure => "backpressure",
            StallCause::Idle => "idle",
        }
    }
}

/// What happened, in a [`TraceEvent`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TraceEventKind {
    /// The scheduler put a task on the main thread.
    TaskStart {
        /// The task's id on its core.
        task: TaskId,
        /// The task's debug name.
        name: &'static str,
    },
    /// The main-thread task retired (body exhausted and nothing pending).
    TaskEnd {
        /// The task's id on its core.
        task: TaskId,
    },
}

/// One structured event recorded by a core.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle the event occurred at (global fabric clock).
    pub cycle: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

/// A tile's armed trace: a bounded ring of task events. When full, the
/// oldest event is dropped (and counted), so a long armed window costs
/// bounded memory per tile; it allocates as it records, so a tile that
/// records nothing costs no event storage. Each event carries the fabric
/// cycle its core step ran at, so stamps are monotone across checkpoint
/// rollbacks and tile kills alike.
pub(crate) struct CoreTrace {
    /// Recorded events, oldest first.
    pub(crate) buf: VecDeque<TraceEvent>,
    cap: usize,
    /// Events evicted from the full ring.
    pub(crate) dropped: u64,
}

impl CoreTrace {
    /// An empty ring holding at most `ring_capacity` events.
    pub(crate) fn new(ring_capacity: usize) -> CoreTrace {
        assert!(ring_capacity > 0, "event ring capacity must be nonzero");
        CoreTrace { buf: VecDeque::new(), cap: ring_capacity, dropped: 0 }
    }

    pub(crate) fn record(&mut self, cycle: u64, kind: TraceEventKind) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(TraceEvent { cycle, kind });
    }
}

/// Tracing configuration (see [`crate::fabric::Fabric::arm_trace`]).
#[derive(Copy, Clone, Debug)]
pub struct TraceConfig {
    /// Per-tile event ring capacity; the oldest events are dropped (and
    /// counted) beyond this.
    pub ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig { ring_capacity: 4096 }
    }
}

/// One driver-marked phase: a half-open cycle interval on the global clock.
/// A zero-length span (`start == end`) is an instant marker (checkpoint,
/// rollback).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Phase name ("spmv", "dot", "allreduce", ...).
    pub name: &'static str,
    /// First cycle of the phase.
    pub start: u64,
    /// One past the last cycle of the phase.
    pub end: u64,
}

impl PhaseSpan {
    /// Cycles spent in the span.
    pub fn cycles(&self) -> u64 {
        self.end - self.start
    }

    /// `true` for instant markers (checkpoint/rollback stamps).
    pub fn is_marker(&self) -> bool {
        self.start == self.end
    }
}

/// One tile's collected trace, with fabric-window perf deltas attached.
#[derive(Clone, Debug)]
pub struct TileTrace {
    /// Tile x coordinate.
    pub x: usize,
    /// Tile y coordinate.
    pub y: usize,
    /// Recorded events, oldest first (bounded; see `dropped_events`).
    pub events: Vec<TraceEvent>,
    /// Events evicted from the full ring.
    pub dropped_events: u64,
    /// Stall-cause cycles within the traced window, indexed by
    /// [`StallCause::index`].
    pub stall: [u64; StallCause::COUNT],
    /// Instructions retired within the traced window, per class, indexed
    /// by [`OpClass::index`].
    pub retired: [u64; OpClass::COUNT],
    /// Datapath-busy cycles within the traced window.
    pub busy_cycles: u64,
    /// Datapath-idle cycles within the traced window.
    pub idle_cycles: u64,
    /// Flits forwarded by this tile's router within the window.
    pub flits_routed: u64,
    /// Router backpressure (flit-held cycles) per output port within the
    /// window, indexed by [`crate::types::Port::index`].
    pub backpressure: [u64; 5],
}

impl TileTrace {
    /// Datapath utilization over the traced window (0 when the window is
    /// empty).
    pub fn utilization(&self) -> f64 {
        let total = self.busy_cycles + self.idle_cycles;
        if total == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / total as f64
        }
    }
}

/// The whole-fabric trace snapshot produced by
/// [`crate::fabric::Fabric::take_trace`]; the input to every exporter in
/// the `wse-trace` crate.
#[derive(Clone, Debug)]
pub struct FabricTrace {
    /// Fabric width in tiles.
    pub w: usize,
    /// Fabric height in tiles.
    pub h: usize,
    /// Fabric cycle when tracing was armed.
    pub start_cycle: u64,
    /// Fabric cycle when the trace was taken.
    pub end_cycle: u64,
    /// Driver-marked phases, in open order (starts are nondecreasing).
    pub phases: Vec<PhaseSpan>,
    /// Per-tile traces in row-major order.
    pub tiles: Vec<TileTrace>,
    /// Aggregate perf counters over the traced window (the fabric's totals
    /// at take time less those at arm time).
    pub perf: FabricPerf,
}

impl FabricTrace {
    /// Cycles covered by the traced window.
    pub fn window_cycles(&self) -> u64 {
        self.end_cycle - self.start_cycle
    }

    /// The trace of tile `(x, y)`.
    pub fn tile(&self, x: usize, y: usize) -> &TileTrace {
        &self.tiles[y * self.w + x]
    }

    /// Fabric-wide stall-cause totals, indexed by [`StallCause::index`].
    pub fn stall_totals(&self) -> [u64; StallCause::COUNT] {
        let mut totals = [0u64; StallCause::COUNT];
        for t in &self.tiles {
            for (slot, v) in totals.iter_mut().zip(t.stall) {
                *slot += v;
            }
        }
        totals
    }

    /// Fabric-wide retire totals, indexed by [`OpClass::index`].
    pub fn retire_totals(&self) -> [u64; OpClass::COUNT] {
        let mut totals = [0u64; OpClass::COUNT];
        for t in &self.tiles {
            for (slot, v) in totals.iter_mut().zip(t.retired) {
                *slot += v;
            }
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut tr = CoreTrace::new(2);
        tr.record(0, TraceEventKind::TaskStart { task: 0, name: "a" });
        tr.record(1, TraceEventKind::TaskEnd { task: 0 });
        tr.record(2, TraceEventKind::TaskStart { task: 1, name: "b" });
        assert_eq!(tr.dropped, 1);
        let evs: Vec<_> = tr.buf.iter().copied().collect();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].cycle, 1, "oldest surviving event");
        assert_eq!(evs[1].kind, TraceEventKind::TaskStart { task: 1, name: "b" });
    }

    #[test]
    fn ring_allocates_as_it_records() {
        let mut tr = CoreTrace::new(4096);
        assert_eq!(tr.buf.capacity(), 0, "arming allocates no events");
        tr.record(0, TraceEventKind::TaskStart { task: 0, name: "a" });
        assert!(tr.buf.capacity() < 1024);
    }

    #[test]
    fn stall_cause_indices_are_dense() {
        for (i, c) in StallCause::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn phase_span_markers() {
        let s = PhaseSpan { name: "spmv", start: 10, end: 25 };
        assert_eq!(s.cycles(), 15);
        assert!(!s.is_marker());
        let m = PhaseSpan { name: "checkpoint", start: 30, end: 30 };
        assert!(m.is_marker());
    }
}
