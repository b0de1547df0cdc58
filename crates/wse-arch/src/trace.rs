//! Per-tile tracing primitives: structured events, stall-cause attribution,
//! and instruction-class retire accounting.
//!
//! Collection lives here, next to the machine model, so the hooks in
//! [`crate::core::Core`], [`crate::router::Router`], and
//! [`crate::fabric::Fabric`] stay allocation-free and branch on a single
//! `Option` when tracing is disarmed (the same idiom as fault arming).
//! Export and analysis (Perfetto JSON, heatmaps, phase reports) live in the
//! separate `wse-trace` crate, which consumes the [`FabricTrace`] snapshot
//! this module produces.

use crate::fabric::FabricPerf;
use crate::instr::OpClass;
use crate::types::TaskId;
use std::collections::VecDeque;

/// Why a core's datapath made no progress in a cycle.
///
/// Attribution runs only when tracing is armed, and only on cycles the
/// datapath failed to issue; cycles that retire a control statement but
/// leave the datapath idle still count by their datapath state.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum StallCause {
    /// An active instruction is starved for input: an empty hardware FIFO,
    /// or an empty fabric-in (ramp) queue — the core is waiting on data.
    FifoWait,
    /// An active instruction's destination cannot accept: the ramp-out
    /// queue is full (router credit backpressure) or a hardware FIFO is
    /// full.
    Backpressure,
    /// Memory-bank conflict. The simulator deliberately does not model
    /// bank conflicts (the SIMD widths already encode sustainable stream
    /// rates), so this bucket is always zero; it is reserved so the stall
    /// taxonomy matches the hardware's.
    BankConflict,
    /// Nothing was runnable.
    Idle,
}

impl StallCause {
    /// Number of stall causes (array sizing).
    pub const COUNT: usize = 4;

    /// Every cause, in index order.
    pub const ALL: [StallCause; StallCause::COUNT] = [
        StallCause::FifoWait,
        StallCause::Backpressure,
        StallCause::BankConflict,
        StallCause::Idle,
    ];

    /// Dense index for counter arrays.
    pub fn index(self) -> usize {
        match self {
            StallCause::FifoWait => 0,
            StallCause::Backpressure => 1,
            StallCause::BankConflict => 2,
            StallCause::Idle => 3,
        }
    }

    /// Short stable label (reports, CSV columns).
    pub fn label(self) -> &'static str {
        match self {
            StallCause::FifoWait => "fifo_wait",
            StallCause::Backpressure => "backpressure",
            StallCause::BankConflict => "bank_conflict",
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

/// Bounded event ring: when full, the oldest event is dropped (and counted)
/// so a long armed window costs bounded memory per tile. It allocates as it
/// records, so an armed core that records nothing costs no event storage.
#[derive(Clone, Debug)]
struct EventRing {
    buf: VecDeque<TraceEvent>,
    cap: usize,
    dropped: u64,
}

impl EventRing {
    fn new(cap: usize) -> EventRing {
        EventRing { buf: VecDeque::new(), cap, dropped: 0 }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }
}

/// Per-core trace collection state (present only while armed).
///
/// The cycle stamp `now` is seeded from the fabric clock at arm time and
/// advanced once per core step. It is deliberately *not* rewound by
/// [`crate::core::Core::reset_transient`], so events recorded after a
/// checkpoint rollback keep monotonically increasing timestamps — exported
/// traces never travel back in time.
#[derive(Clone, Debug)]
pub struct CoreTrace {
    pub(crate) now: u64,
    ring: EventRing,
    pub(crate) stall: [u64; StallCause::COUNT],
    pub(crate) retired: [u64; OpClass::COUNT],
}

impl CoreTrace {
    /// Fresh collection state stamped at fabric cycle `now`.
    pub fn new(now: u64, ring_capacity: usize) -> CoreTrace {
        assert!(ring_capacity > 0, "event ring capacity must be nonzero");
        CoreTrace {
            now,
            ring: EventRing::new(ring_capacity),
            stall: [0; StallCause::COUNT],
            retired: [0; OpClass::COUNT],
        }
    }

    /// Current cycle stamp.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Recorded events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf_iter()
    }

    fn buf_iter(&self) -> std::collections::vec_deque::Iter<'_, TraceEvent> {
        self.ring.buf.iter()
    }

    /// Events evicted from the full ring.
    pub fn dropped_events(&self) -> u64 {
        self.ring.dropped
    }

    /// Instructions of `class` retired while armed.
    pub fn retired(&self, class: OpClass) -> u64 {
        self.retired[class.index()]
    }

    pub(crate) fn record_task_start(&mut self, task: TaskId, name: &'static str) {
        self.ring
            .push(TraceEvent { cycle: self.now, kind: TraceEventKind::TaskStart { task, name } });
    }

    pub(crate) fn record_task_end(&mut self, task: TaskId) {
        self.ring.push(TraceEvent { cycle: self.now, kind: TraceEventKind::TaskEnd { task } });
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
    /// Stall-cause cycle attribution, indexed by [`StallCause::index`].
    pub stall: [u64; StallCause::COUNT],
    /// Instruction-class retire counts, indexed by [`OpClass::index`].
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
    /// Aggregate perf counters at the moment the trace was taken.
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
        let mut tr = CoreTrace::new(0, 2);
        tr.record_task_start(0, "a");
        tr.now = 1;
        tr.record_task_end(0);
        tr.now = 2;
        tr.record_task_start(1, "b");
        assert_eq!(tr.dropped_events(), 1);
        let evs: Vec<_> = tr.events().copied().collect();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].cycle, 1, "oldest surviving event");
        assert_eq!(evs[1].kind, TraceEventKind::TaskStart { task: 1, name: "b" });
    }

    #[test]
    fn ring_allocates_as_it_records() {
        let mut tr = CoreTrace::new(0, 4096);
        assert_eq!(tr.ring.buf.capacity(), 0, "arming allocates no events");
        tr.record_task_start(0, "a");
        assert!(tr.ring.buf.capacity() < 1024);
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
