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

mod edge;
mod faults;
mod observe;
mod reference;
mod region;
mod step;

pub use region::Region;

use crate::core::Core;
use crate::instr::OpClass;
use crate::memory::Memory;
use crate::router::Router;
use crate::trace::StallCause;
use crate::types::{Color, Port};
use edge::EdgePort;
use faults::FaultState;
use observe::{PhaseLog, SanitizerState, TraceState};
use std::collections::HashMap;
use step::{Busy, StepScratch, TileSet};

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

impl Tile {
    /// `true` when the core is quiescent and the router holds no flit: the
    /// per-tile test every fabric-wide quiescence check is made of.
    pub(crate) fn is_quiescent(&self) -> bool {
        self.core.is_quiescent() && self.router.queued() == 0
    }
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
    /// Datapath-idle core-cycles by cause, indexed by
    /// [`StallCause::index`] (they sum to `idle_cycles`).
    pub stall: [u64; StallCause::COUNT],
    /// Tensor instructions retired per class, indexed by
    /// [`OpClass::index`].
    pub retired: [u64; OpClass::COUNT],
}

impl FabricPerf {
    /// Total backpressure flit-hold cycles across all ports and tiles.
    pub fn backpressure_total(&self) -> u64 {
        self.backpressure.iter().sum()
    }

    /// The counters accrued since `earlier`, a snapshot of the same tiles.
    pub fn since(&self, earlier: &FabricPerf) -> FabricPerf {
        self.zip(earlier, |now, then| now - then)
    }

    /// Field-by-field `f(self, other)` over every counter.
    fn zip(&self, o: &FabricPerf, f: impl Fn(u64, u64) -> u64) -> FabricPerf {
        FabricPerf {
            flops_f16: f(self.flops_f16, o.flops_f16),
            flops_f32: f(self.flops_f32, o.flops_f32),
            busy_cycles: f(self.busy_cycles, o.busy_cycles),
            idle_cycles: f(self.idle_cycles, o.idle_cycles),
            flits_routed: f(self.flits_routed, o.flits_routed),
            ctrl_stmts: f(self.ctrl_stmts, o.ctrl_stmts),
            backpressure: std::array::from_fn(|k| f(self.backpressure[k], o.backpressure[k])),
            stall: std::array::from_fn(|k| f(self.stall[k], o.stall[k])),
            retired: std::array::from_fn(|k| f(self.retired[k], o.retired[k])),
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
    /// Armed runtime sanitizer; `None` (the default) as for `trace`.
    sanitize: Option<Box<SanitizerState>>,
    /// Which tiles are busy, and how many: `is_quiescent()` is an O(1)
    /// read.
    busy: Busy,
    /// Tiles the stepper must touch next cycle: every busy tile, plus
    /// quiescent tiles holding bound ramp-in data (they can self-wake).
    active: TileSet,
    /// Tiles handed out via [`Fabric::tile_mut`] since the last step:
    /// their routes/masks/busy state are re-derived before stepping.
    dirty: TileSet,
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
            sanitize: None,
            busy: Busy::new(n),
            active: TileSet::new(n),
            dirty: TileSet::new(n),
            accounted: vec![0; n],
            progress: 0,
            force_reference: false,
            edge_ports: Vec::new(),
            edge_index: HashMap::new(),
            scratch: StepScratch::new(n),
        }
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
    /// The caller may replace the tile, counters and all: its deferred
    /// idle is billed to the core it has now, and an armed trace banks the
    /// tile's window share here and rebases it there.
    pub fn tile_mut(&mut self, x: usize, y: usize) -> &mut Tile {
        let i = self.index(x, y);
        if self.dirty.insert(i) {
            self.settle(i);
            if self.trace.is_some() {
                let now = self.tile_perf(i);
                let ts = self.trace.as_deref_mut().expect("trace is armed");
                ts.banked[i] = now.since(&ts.base[i]).zip(&ts.banked[i], |a, b| a + b);
            }
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

    /// Settles every live tile's deferred idle debt up to the current cycle
    /// (killed tiles are frozen and accrue nothing).
    ///
    /// The activity-driven stepper defers per-tile idle accounting; any
    /// observer that reads per-core counters directly (checkpoint capture,
    /// external snapshots) must settle first. [`Fabric::perf`] and the
    /// trace add the debt themselves. Idempotent and cheap when there is no
    /// outstanding debt.
    pub fn settle_idle(&mut self) {
        for i in 0..self.tiles.len() {
            self.settle(i);
        }
    }

    /// Settles live tile `i`'s deferred idle debt up to the current cycle.
    fn settle(&mut self, i: usize) {
        if !self.dead[i] {
            self.tiles[i].core.account_idle(self.cycle - self.accounted[i]);
            self.accounted[i] = self.cycle;
        }
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
        self.flush_dirty(); // handed-out tiles are rebased before the clock moves
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
                if t.is_quiescent() {
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
        (0..self.tiles.len())
            .fold(FabricPerf::default(), |p, i| p.zip(&self.tile_perf(i), |a, b| a + b))
    }

    /// Tile `i`'s counters as a one-tile [`FabricPerf`], its deferred idle
    /// debt billed as [`StallCause::Idle`] (a killed tile accrues none).
    fn tile_perf(&self, i: usize) -> FabricPerf {
        let Tile { core, router, .. } = &self.tiles[i];
        let debt = if self.dead[i] { 0 } else { self.cycle - self.accounted[i] };
        let mut stall = core.perf.stall;
        stall[StallCause::Idle.index()] += debt;
        FabricPerf {
            flops_f16: core.perf.flops_f16,
            flops_f32: core.perf.flops_f32,
            busy_cycles: core.perf.busy_cycles,
            idle_cycles: core.perf.idle_cycles + debt,
            flits_routed: router.flits_routed,
            ctrl_stmts: core.perf.ctrl_stmts,
            backpressure: router.backpressure,
            stall,
            retired: core.perf.retired,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsr::mk;
    use crate::fault::{FaultKind, FaultPlan};
    use crate::instr::{Op, Stmt, Task, TensorInstr};
    use crate::trace::{PhaseSpan, TraceConfig};
    use crate::types::Dtype;
    use crate::types::Flit;
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
    fn tile_and_program_sizes_are_pinned() {
        // On x86-64: a tile is 1,088 B (core 680, router 352, the lazily
        // backed SRAM's handle 56), a statement 20, an instruction 14, a DSR
        // 20. Any id or register index re-widened to `usize`, observer state
        // moved back into the core, or program tables moved back out of its
        // shared image, fails here.
        use crate::dsr::Dsr;
        use crate::instr::{Stmt, TensorInstr};
        use std::mem::size_of;
        let sizes =
            [size_of::<Tile>(), size_of::<Stmt>(), size_of::<TensorInstr>(), size_of::<Dsr>()];
        assert!(
            sizes[0] <= 1088 && sizes[1] <= 24 && sizes[2] <= 16 && sizes[3] <= 20,
            "{sizes:?}"
        );
    }

    #[test]
    fn a_cloned_tile_shares_its_image_until_a_builder_edits_the_clone() {
        use std::sync::Arc;
        let (f, _) = sender_receiver(8);
        let src = f.tile(0, 0);
        let before = src.core.dump_program();
        let mut copy = src.clone();
        assert!(Arc::ptr_eq(copy.core.image(), src.core.image()));
        let extract = f.extract_region(Region::new(0, 0, 1, 1));
        assert!(Arc::ptr_eq(extract.tile(0, 0).core.image(), src.core.image()));

        copy.core.set_task_body(0, vec![Stmt::SetReg { reg: 3, value: 1.0 }]);
        assert!(!Arc::ptr_eq(copy.core.image(), src.core.image()));
        let mut other = src.clone();
        other.core.bind_color(5, 0);
        other.core.mark_entry(0);
        assert_eq!(src.core.dump_program(), before, "an edit to a clone reached its source");
        assert_ne!(copy.core.dump_program(), before);
        assert_ne!(other.core.dump_program(), before);
        assert_eq!(copy.core.image().bindings, []);
        assert_eq!(src.core.image().entries, []);
    }

    #[test]
    fn a_blitted_image_is_shared_and_steps_like_a_fresh_build() {
        use std::sync::Arc;
        // The template's tasks are activated by the host after placement,
        // as the program cache does; `reset_transient` leaves it quiescent.
        let quiet = || {
            let (mut f, raddr) = sender_receiver(8);
            for x in 0..2 {
                f.tile_mut(x, 0).core.reset_transient();
            }
            (f, raddr)
        };
        let (template, raddr) = quiet();
        let mut blitted = Fabric::new(2, 1);
        blitted.blit_region(Region::new(0, 0, 2, 1), &template);
        let (mut fresh, _) = quiet();
        let shared = |f: &Fabric| {
            (0..2).all(|x| Arc::ptr_eq(f.tile(x, 0).core.image(), template.tile(x, 0).core.image()))
        };
        assert!(shared(&blitted));
        let go = |f: &mut Fabric| {
            for x in 0..2 {
                f.tile_mut(x, 0).core.activate(0);
            }
            f.run_watched(1_000, 1_000).unwrap();
            let got = f.tile(1, 0).mem.load_f16_slice(raddr, 8);
            (f.cycle(), f.perf(), f.tile(1, 0).core.dump_program(), got)
        };
        for round in 0..2 {
            assert_eq!(go(&mut blitted), go(&mut fresh), "round {round}");
            for f in [&mut blitted, &mut fresh] {
                for x in 0..2 {
                    f.tile_mut(x, 0).core.reset_transient();
                }
            }
        }
        assert!(shared(&blitted), "running and resetting never copies the image");
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
        let cycles_b = b.run_watched(1_000, 1_000).unwrap();
        assert_eq!(cycles_a, cycles_b, "sanitizing must not change simulated time");
        let pa = a.perf();
        let pb = b.perf();
        assert_eq!(pa.busy_cycles, pb.busy_cycles);
        assert_eq!(pa.flits_routed, pb.flits_routed);
        let rep = b.take_sanitizer().expect("sanitizer was armed");
        assert!(b.take_sanitizer().is_none(), "take_sanitizer disarms");
        assert!(rep.is_clean(), "ordered stream tripped: {rep}");
        assert_eq!(rep.cycles, cycles_b);
        // The receiver stalled on color 1 at least once while the first
        // flits crossed the link; the shadow channel-wait saw it.
        let recv = &rep.tiles[1];
        assert!(recv.chan_wait[1] > 0, "receiver never waited on color 1");
        assert!(rep.longest_channel_wait().is_some());
    }

    /// Main launches a background copy into `buf` and immediately
    /// overwrites the same buffer synchronously on tile `(0, 0)`, with no
    /// completion ordering between them — the defining data race.
    fn install_race(f: &mut Fabric) {
        let t = f.tile_mut(0, 0);
        let buf = t.mem.alloc_vec(16, Dtype::F16).unwrap();
        let src_a = t.mem.alloc_vec(16, Dtype::F16).unwrap();
        let src_b = t.mem.alloc_vec(16, Dtype::F16).unwrap();
        let d_buf1 = t.core.add_dsr(mk::tensor16(buf, 16));
        let d_buf2 = t.core.add_dsr(mk::tensor16(buf, 16));
        let d_a = t.core.add_dsr(mk::tensor16(src_a, 16));
        let d_b = t.core.add_dsr(mk::tensor16(src_b, 16));
        let background = TensorInstr { op: Op::Copy, dst: Some(d_buf1), a: Some(d_a), b: None };
        let task = t.core.add_task(Task::new(
            "racy",
            vec![
                Stmt::Launch { slot: 0, instr: background, on_complete: None },
                Stmt::Exec(TensorInstr { op: Op::Copy, dst: Some(d_buf2), a: Some(d_b), b: None }),
            ],
        ));
        t.core.activate(task);
    }

    #[test]
    fn sanitizer_trips_on_unordered_overlapping_writes() {
        let mut f = Fabric::new(1, 1);
        install_race(&mut f);
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
    fn a_blit_under_an_armed_sanitizer_keeps_its_trips() {
        // The race trips on (0,0), then a fresh template is blitted over
        // that very tile: the sanitizer stays armed, and the trips recorded
        // before the blit are reported as if it had never happened.
        let run = |blit: bool| {
            let mut f = Fabric::new(2, 1);
            install_race(&mut f);
            f.arm_sanitizer();
            f.run_watched(1_000, 1_000).unwrap();
            if blit {
                f.blit_region(Region::new(0, 0, 1, 1), &Fabric::new(1, 1));
            }
            f.step();
            f.take_sanitizer().expect("a blit leaves the sanitizer armed")
        };
        let (blitted, plain) = (run(true), run(false));
        assert!(blitted.tiles[0].total_trips > 0, "{blitted}");
        assert_eq!(blitted.tiles[0].trips, plain.tiles[0].trips);
        assert_eq!(blitted.tiles[0].total_trips, plain.tiles[0].total_trips);
        assert_eq!(blitted.cycles, plain.cycles);
    }

    #[test]
    fn a_tile_overwrite_under_an_armed_trace_keeps_window_deltas() {
        // The stream runs before the trace is armed, so (1,0)'s counters
        // are well above zero at arm time; the overwrite then replaces them
        // with a fresh tile's. Every tile still reports its share of the
        // five-cycle window: five idle cycles, nothing more.
        let (mut f, _) = sender_receiver(8);
        f.run_watched(1_000, 1_000).unwrap();
        f.arm_trace(TraceConfig::default());
        f.step();
        *f.tile_mut(1, 0) = Tile::default();
        for _ in 0..4 {
            f.step();
        }
        let tr = f.take_trace().expect("an overwrite leaves the trace armed");
        assert_eq!(tr.window_cycles(), 5);
        for t in &tr.tiles {
            assert_eq!((t.busy_cycles, t.idle_cycles), (0, 5), "tile ({},{})", t.x, t.y);
            assert_eq!(t.stall[StallCause::Idle.index()], 5, "tile ({},{})", t.x, t.y);
        }
        assert_eq!((tr.perf.busy_cycles, tr.perf.idle_cycles), (0, 10));
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
    fn a_revived_tile_stamps_its_events_at_the_fabric_clock() {
        // Under an armed trace the tile is killed at cycle 3 and revived at
        // 10 by re-arming the fault plan: the task it runs next is stamped
        // at the fabric cycles it ran in, not 7 cycles behind them.
        use crate::trace::{TraceEvent, TraceEventKind};
        let mut f = Fabric::new(1, 1);
        let body = vec![Stmt::SetReg { reg: 0, value: 1.0 }, Stmt::SetReg { reg: 1, value: 2.0 }];
        let task = f.tile_mut(0, 0).core.add_task(Task::new("set", body));
        f.arm_trace(TraceConfig::default());
        f.arm_faults(&FaultPlan::new().with(3, FaultKind::TileKill { x: 0, y: 0 }));
        for _ in 0..10 {
            f.step();
        }
        f.arm_faults(&FaultPlan::new());
        let revived = f.cycle();
        f.tile_mut(0, 0).core.activate(task);
        f.run_watched(100, 100).unwrap();
        let tr = f.take_trace().unwrap();
        let want = [
            TraceEvent { cycle: revived, kind: TraceEventKind::TaskStart { task, name: "set" } },
            TraceEvent { cycle: revived + 1, kind: TraceEventKind::TaskEnd { task } },
        ];
        assert_eq!(tr.tile(0, 0).events, want);
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
