//! Multi-wafer ensemble runtime.
//!
//! The paper closes by asking whether clustering several wafer-scale
//! systems, with sufficient interconnect bandwidth, can scale the stencil
//! solver beyond one wafer (§VIII.B). `perf-model::multiwafer` answers
//! that analytically; this crate answers it executably: a [`MultiFabric`]
//! holds `k` independent [`Fabric`] instances, each simulating one wafer's
//! X-slab of the global mesh, stitched together along their east/west
//! boundaries by a [`HostLink`] interconnect model. Flits cross between
//! wafers through the declared edge channels added to `wse-arch`
//! ([`Fabric::open_edge`]): seam egress queues are drained by the host,
//! carried across the link, and injected into the neighbor wafer.
//!
//! Two stepping regimes:
//!
//! - **Lockstep / ideal link** ([`HostLink::ideal`]): every wafer steps on
//!   the same global clock, seam credits mirror the remote input queue's
//!   start-of-cycle space, and drained flits are injected before the next
//!   cycle. This reproduces the fused single-fabric simulation *bit for
//!   bit* — a router's cardinal input-queue occupancy at the start of
//!   phase 3 of cycle `t` equals its occupancy at the end of cycle `t-1`
//!   (phases 1–2 only touch ramp queues), so a host-granted credit read
//!   between steps is exactly the snapshot the fused stepper would take.
//!   The distributed solver's transparent mode runs on this and must match
//!   the single-wafer residual trajectory exactly.
//! - **Modeled link** ([`HostLink::new`]): finite bandwidth and latency.
//!   Drained flits serialize onto a full-duplex per-seam channel at
//!   `bytes_per_cycle` and arrive `latency_cycles` later, modeling the
//!   host interconnect that carries fp16 halo planes between neighbor
//!   wafers and the top level of the hierarchical AllReduce.

//!
//! A third concern rides on top of both: **reliable transport**
//! ([`MultiFabric::arm_transport`] / [`MultiFabric::arm_faults`]). When
//! armed, seam traffic is framed with sequence numbers and checksums,
//! acked, and retransmitted on timeout, so injected host-link faults
//! ([`FaultKind::HostLinkDrop`] and friends) are detected and masked —
//! or surfaced as a structured [`LinkDown`] when the retry budget
//! exhausts. Disarmed, the ensemble pays one pointer test per step and
//! is bit-identical to the baseline path.
//!
//! [`FaultKind::HostLinkDrop`]: wse_arch::fault::FaultKind::HostLinkDrop

#![warn(missing_docs)]

pub mod tenancy;
pub mod transport;

use crate::transport::{frame_checksum, Frame, TransportState};
use std::collections::VecDeque;
use stencil::decomp::split_even;
use wse_arch::fabric::{Fabric, StallReport};
use wse_arch::fault::{FaultKind, FaultLog, FaultPlan, FaultRecord};
use wse_arch::types::{Color, Flit, Port};

pub use crate::transport::{LinkDown, LinkStats, ACK_SLACK, MAX_BACKOFF_DOUBLINGS, RETRY_BUDGET};

/// Host interconnect model between neighboring wafers, in units of the
/// wafer clock (the simulator's cycle).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct HostLink {
    /// Link bandwidth per direction, in bytes per wafer-clock cycle
    /// (`f64::INFINITY` for the ideal link).
    pub bytes_per_cycle: f64,
    /// One-way link latency in wafer-clock cycles.
    pub latency_cycles: u64,
}

impl HostLink {
    /// A link with the given bandwidth (GB/s), one-way latency (µs), and
    /// wafer clock (GHz), converted to per-cycle units.
    pub fn new(gb_per_s: f64, latency_us: f64, clock_ghz: f64) -> HostLink {
        assert!(gb_per_s > 0.0 && clock_ghz > 0.0 && latency_us >= 0.0);
        HostLink {
            bytes_per_cycle: gb_per_s / clock_ghz,
            latency_cycles: (latency_us * clock_ghz * 1000.0).round() as u64,
        }
    }

    /// The paper-configuration default, matching `perf-model`'s
    /// `MultiWafer`: 1000 GB/s per direction, 0.2 µs one-way, at the
    /// 0.9 GHz paper clock (180 cycles latency, ~1111 bytes/cycle).
    pub fn paper_default() -> HostLink {
        HostLink::new(1000.0, 0.2, 0.9)
    }

    /// An infinitely fast link: unlimited bandwidth, zero latency. Under
    /// this link [`MultiFabric::run_linked`] is bit-for-bit identical to
    /// simulating the unsplit fabric.
    pub fn ideal() -> HostLink {
        HostLink { bytes_per_cycle: f64::INFINITY, latency_cycles: 0 }
    }

    /// `true` for [`HostLink::ideal`].
    pub fn is_ideal(&self) -> bool {
        self.bytes_per_cycle.is_infinite() && self.latency_cycles == 0
    }
}

/// One seam channel: a declared edge egress on the `src` wafer paired
/// with the matching edge ingress on the `dst` wafer.
#[derive(Copy, Clone, Debug)]
struct Channel {
    /// Egress wafer index.
    src: usize,
    /// Egress tile (shard-local) and boundary port.
    sx: usize,
    sy: usize,
    sport: Port,
    /// Ingress wafer index (always `src ± 1`).
    dst: usize,
    /// Ingress tile (shard-local) and boundary port.
    dx: usize,
    dy: usize,
    dport: Port,
    /// The fabric color carried by the channel.
    color: Color,
}

impl Channel {
    /// Seam index (between wafer `min(src,dst)` and `+1`) and direction
    /// (0 = eastward, 1 = westward) — the serialization unit: each seam
    /// is one full-duplex physical link.
    fn seam_dir(&self) -> (usize, usize) {
        if self.dst > self.src {
            (self.src, 0)
        } else {
            (self.dst, 1)
        }
    }
}

/// `k` wafers simulating X-slabs of a `global_w × h` tile grid, linked by
/// a [`HostLink`].
pub struct MultiFabric {
    shards: Vec<Fabric>,
    /// Global x of each shard's first tile column.
    offsets: Vec<usize>,
    global_w: usize,
    h: usize,
    link: HostLink,
    channels: Vec<Channel>,
    /// Per-channel in-flight flits: `(arrival cycle, flit)` in FIFO order.
    in_flight: Vec<VecDeque<(u64, Flit)>>,
    /// Per-seam, per-direction serialization cursor: the cycle (fractional)
    /// at which the link finishes the last byte accepted so far.
    link_ready: Vec<[f64; 2]>,
    /// Flits injected into ingress queues so far — counted as ensemble
    /// progress so a long-latency link never trips the stall watchdog.
    injected: u64,
    /// Reliable-transport state; `None` (the common case) costs one
    /// pointer test per step, mirroring trace/sanitizer arming.
    transport: Option<Box<TransportState>>,
}

impl MultiFabric {
    /// `k` fresh (empty) wafers covering a `global_w × h` grid with
    /// [`split_even`] X-slab widths. The caller loads per-wafer programs
    /// (through [`MultiFabric::shard_mut`]), declares seam edge channels
    /// on boundary tiles, then calls [`MultiFabric::pair_seams`].
    ///
    /// # Panics
    /// Panics if `k` is zero or exceeds `global_w`.
    pub fn new(global_w: usize, h: usize, k: usize, link: HostLink) -> MultiFabric {
        assert!(k > 0 && k <= global_w, "need 1..=width wafers, got {k} for width {global_w}");
        let slabs = split_even(global_w, k);
        let shards: Vec<Fabric> = slabs.iter().map(|s| Fabric::new(s.len(), h)).collect();
        MultiFabric {
            shards,
            offsets: slabs.iter().map(|s| s.start).collect(),
            global_w,
            h,
            link,
            channels: Vec::new(),
            in_flight: Vec::new(),
            link_ready: vec![[0.0; 2]; k.saturating_sub(1)],
            injected: 0,
            transport: None,
        }
    }

    /// Splits a fully configured single fabric into `k` X-slab wafers:
    /// tiles (programs, memory, routes, registers) are cloned column
    /// ranges; every route fanout that crossed a cut becomes a paired
    /// seam edge channel. Under [`HostLink::ideal`] the resulting
    /// ensemble steps bit-for-bit like the original. All tile state —
    /// programs, activated tasks, memory, queued flits — carries over;
    /// the ensemble clock restarts at zero.
    ///
    /// # Panics
    /// Panics if `k` is out of range.
    pub fn split_x(fabric: &Fabric, k: usize, link: HostLink) -> MultiFabric {
        let (w, h) = (fabric.width(), fabric.height());
        let mut multi = MultiFabric::new(w, h, k, link);
        for m in 0..k {
            let x0 = multi.offsets[m];
            let lw = multi.shards[m].width();
            for ly in 0..h {
                for lx in 0..lw {
                    *multi.shards[m].tile_mut(lx, ly) = fabric.tile(x0 + lx, ly).clone();
                }
            }
        }
        // Every fanout crossing a cut becomes a seam channel. One edge
        // channel per (tile, port, color) — multiple in-ports fanning the
        // same color through the same boundary port share it.
        for m in 0..k - 1 {
            let cut = multi.offsets[m + 1];
            let (lw, rw) = (multi.shards[m].width(), multi.shards[m + 1].width());
            debug_assert_eq!(cut, multi.offsets[m] + lw);
            let _ = rw;
            for y in 0..h {
                let mut eastward: Vec<Color> = fabric
                    .tile(cut - 1, y)
                    .router
                    .routes()
                    .filter(|(_, _, fanout)| fanout.contains(&Port::East))
                    .map(|(_, c, _)| c)
                    .collect();
                eastward.sort_unstable();
                eastward.dedup();
                for c in eastward {
                    multi.open_seam_channel(m, lw - 1, y, Port::East, m + 1, 0, y, Port::West, c);
                }
                let mut westward: Vec<Color> = fabric
                    .tile(cut, y)
                    .router
                    .routes()
                    .filter(|(_, _, fanout)| fanout.contains(&Port::West))
                    .map(|(_, c, _)| c)
                    .collect();
                westward.sort_unstable();
                westward.dedup();
                for c in westward {
                    multi.open_seam_channel(m + 1, 0, y, Port::West, m, lw - 1, y, Port::East, c);
                }
            }
        }
        multi
    }

    /// Declares both ends of one seam channel and records it.
    #[allow(clippy::too_many_arguments)]
    fn open_seam_channel(
        &mut self,
        src: usize,
        sx: usize,
        sy: usize,
        sport: Port,
        dst: usize,
        dx: usize,
        dy: usize,
        dport: Port,
        color: Color,
    ) {
        self.shards[src].open_edge(sx, sy, sport, color);
        self.shards[dst].open_edge(dx, dy, dport, color);
        self.channels.push(Channel { src, sx, sy, sport, dst, dx, dy, dport, color });
        self.in_flight.push(VecDeque::new());
    }

    /// Pairs seam channels from the edge declarations the per-wafer
    /// program builders made: an east-edge declaration on wafer `m` pairs
    /// with the matching west-edge declaration at the same `(y, color)`
    /// on wafer `m + 1` (and symmetrically westward). Call once, after
    /// all programs are built. Channels where only one side routes
    /// egress simply never carry flits in that direction.
    ///
    /// # Panics
    /// Panics if an east/west boundary declaration has no matching
    /// declaration on the neighboring wafer.
    pub fn pair_seams(&mut self) {
        assert!(self.channels.is_empty(), "seams already paired");
        let k = self.shards.len();
        let mut pairs: Vec<Channel> = Vec::new();
        for m in 0..k {
            let lw = self.shards[m].width();
            for (x, y, port, color) in self.shards[m].edge_ports() {
                match port {
                    Port::East if m + 1 < k => {
                        assert_eq!(x, lw - 1);
                        assert!(
                            self.shards[m + 1].edge_port_declared(0, y, Port::West, color),
                            "east edge ({x},{y}) color {color} on wafer {m} has no west peer"
                        );
                        pairs.push(Channel {
                            src: m,
                            sx: x,
                            sy: y,
                            sport: Port::East,
                            dst: m + 1,
                            dx: 0,
                            dy: y,
                            dport: Port::West,
                            color,
                        });
                    }
                    Port::West if m > 0 => {
                        assert_eq!(x, 0);
                        let nw = self.shards[m - 1].width();
                        assert!(
                            self.shards[m - 1].edge_port_declared(nw - 1, y, Port::East, color),
                            "west edge ({x},{y}) color {color} on wafer {m} has no east peer"
                        );
                        pairs.push(Channel {
                            src: m,
                            sx: x,
                            sy: y,
                            sport: Port::West,
                            dst: m - 1,
                            dx: nw - 1,
                            dy: y,
                            dport: Port::East,
                            color,
                        });
                    }
                    _ => panic!(
                        "edge port ({x},{y}) {port:?} color {color} on wafer {m} faces no \
                         neighboring wafer"
                    ),
                }
            }
        }
        for ch in pairs {
            self.channels.push(ch);
            self.in_flight.push(VecDeque::new());
        }
    }

    /// Number of wafers.
    pub fn k(&self) -> usize {
        self.shards.len()
    }

    /// Global grid width in tiles.
    pub fn global_width(&self) -> usize {
        self.global_w
    }

    /// Grid height in tiles.
    pub fn height(&self) -> usize {
        self.h
    }

    /// The global x-range wafer `m` owns.
    pub fn slab(&self, m: usize) -> std::ops::Range<usize> {
        self.offsets[m]..self.offsets[m] + self.shards[m].width()
    }

    /// Maps a global tile column to `(wafer, local column)`.
    pub fn to_local(&self, gx: usize) -> (usize, usize) {
        assert!(gx < self.global_w, "column {gx} outside global width {}", self.global_w);
        let m = self.offsets.partition_point(|&o| o <= gx) - 1;
        (m, gx - self.offsets[m])
    }

    /// Immutable access to wafer `m`.
    pub fn shard(&self, m: usize) -> &Fabric {
        &self.shards[m]
    }

    /// Mutable access to wafer `m` (program loading).
    pub fn shard_mut(&mut self, m: usize) -> &mut Fabric {
        &mut self.shards[m]
    }

    /// The link model in use.
    pub fn link(&self) -> HostLink {
        self.link
    }

    /// The ensemble clock: wafer 0's cycle (all wafers agree outside the
    /// interior of [`MultiFabric::run_each`], and from a stalled one until
    /// the [`MultiFabric::reset_transient`] that follows it).
    pub fn cycle(&self) -> u64 {
        self.shards[0].cycle()
    }

    /// Sum of per-wafer progress counters plus cross-link deliveries —
    /// the ensemble stall watchdog's progress measure. With the reliable
    /// transport armed, retransmission attempts count too: the watchdog
    /// holds off while the transport is still retrying and fires once it
    /// has declared the link down (or a stall outlasts the window).
    pub fn total_progress(&self) -> u64 {
        self.shards.iter().map(Fabric::progress).sum::<u64>()
            + self.injected
            + self.transport.as_ref().map_or(0, |t| t.activity)
    }

    /// `true` when every wafer is quiescent and nothing is queued on or
    /// in flight across any seam. With the reliable transport armed,
    /// undelivered frames on the wire or held at the receiver also count
    /// as pending work (unacked-but-delivered frames do not: acks are
    /// control plane and never carry payload).
    pub fn is_quiescent(&self) -> bool {
        self.shards.iter().all(Fabric::is_quiescent)
            && self.in_flight.iter().all(VecDeque::is_empty)
            && self.transport.as_ref().is_none_or(|t| {
                t.channels.iter().all(|ch| ch.wire.is_empty() && ch.rx_hold.is_empty())
            })
            && self
                .channels
                .iter()
                .all(|c| self.shards[c.src].edge_out_len(c.sx, c.sy, c.sport, c.color) == 0)
    }

    /// Opens a named trace phase on every wafer (no-op for untraced ones).
    pub fn phase_begin(&mut self, name: &'static str) {
        for f in &mut self.shards {
            f.phase_begin(name);
        }
    }

    /// Closes the open trace phase on every wafer.
    pub fn phase_end(&mut self) {
        for f in &mut self.shards {
            f.phase_end();
        }
    }

    /// Drops a zero-length phase marker on every traced wafer (no-op for
    /// untraced ones) — recovery actions (`checkpoint`, `rollback`,
    /// `halo_retry`) stamp the ensemble timeline through this.
    pub fn phase_marker(&mut self, name: &'static str) {
        for f in &mut self.shards {
            f.phase_marker(name);
        }
    }

    /// Records a retroactive phase span `[start, end]` on every traced
    /// wafer. The overlapped halo schedule uses this: how much of a merged
    /// `spmv+halo` window was hidden (`halo_overlap`) versus exposed
    /// (`halo_exposed`) is only known once the window closes, so the
    /// driver stamps those sub-spans after the fact.
    pub fn phase_span(&mut self, name: &'static str, start: u64, end: u64) {
        for f in &mut self.shards {
            f.phase_span(name, start, end);
        }
    }

    /// Advances every wafer's clock by `cycles` without stepping
    /// (host-side dead time, e.g. the top level of the hierarchical
    /// AllReduce). Requires ensemble quiescence.
    pub fn advance_idle(&mut self, cycles: u64) {
        for f in &mut self.shards {
            f.advance_idle(cycles);
        }
    }

    /// Arms the reliable seam transport with a schedule of ensemble-level
    /// faults (see [`FaultPlan::random_host_link`]). Framing, acks, and
    /// retransmission activate for all seam traffic; the scheduled faults
    /// fire at their cycles. With an empty plan this is
    /// [`MultiFabric::arm_transport`].
    ///
    /// # Panics
    /// Panics if the plan contains an on-wafer fault kind (arm those on
    /// the target shard via [`MultiFabric::shard_mut`]), or if a seam /
    /// wafer index is out of range for this ensemble.
    pub fn arm_faults(&mut self, plan: &FaultPlan) {
        let k = self.k();
        let events = plan.events();
        for ev in &events {
            match ev.kind {
                FaultKind::HostLinkDrop { seam, dir } => {
                    assert!(seam + 1 < k, "seam {seam} out of range for k={k}");
                    assert!(dir < 2, "direction {dir} out of range");
                }
                FaultKind::HostLinkCorrupt { seam, dir, bit } => {
                    assert!(seam + 1 < k, "seam {seam} out of range for k={k}");
                    assert!(dir < 2, "direction {dir} out of range");
                    assert!(bit < 32, "payload bit {bit} out of range");
                }
                FaultKind::HostLinkStall { seam, cycles } => {
                    assert!(seam + 1 < k, "seam {seam} out of range for k={k}");
                    assert!(cycles > 0, "zero-length stall");
                }
                FaultKind::WaferStall { wafer, cycles } => {
                    assert!(wafer < k, "wafer {wafer} out of range for k={k}");
                    assert!(cycles > 0, "zero-length stall");
                }
                wafer_local => panic!(
                    "{} targets one wafer: arm it on the shard (shard_mut), not the ensemble",
                    wafer_local.label()
                ),
            }
        }
        self.transport =
            Some(Box::new(TransportState::new(self.channels.len(), k.saturating_sub(1), events)));
    }

    /// Arms the reliable transport with no scheduled faults: framing,
    /// acks, and retransmission guard the seams against nothing — and
    /// cost nothing, cycle-for-cycle (the identity is asserted by tests
    /// and the `iter_profile` bench).
    pub fn arm_transport(&mut self) {
        self.arm_faults(&FaultPlan::new());
    }

    /// `true` once [`MultiFabric::arm_faults`] or
    /// [`MultiFabric::arm_transport`] has run.
    pub fn transport_armed(&self) -> bool {
        self.transport.is_some()
    }

    /// The ensemble fault audit trail, if the transport is armed.
    pub fn fault_log(&self) -> Option<&FaultLog> {
        self.transport.as_ref().map(|t| &t.log)
    }

    /// Transport counters for seam `seam`, direction `dir` (0 = eastward,
    /// 1 = westward). Zeroes when the transport is disarmed.
    pub fn link_stats(&self, seam: usize, dir: usize) -> LinkStats {
        assert!(seam + 1 < self.k() && dir < 2, "no seam {seam} direction {dir}");
        self.transport.as_ref().map_or(LinkStats::default(), |t| t.stats[seam][dir])
    }

    /// Total frames retransmitted across every seam — the per-link
    /// counter surfaced next to the `link_retransmit` trace markers.
    pub fn retransmits(&self) -> u64 {
        self.transport.as_ref().map_or(0, |t| t.stats.iter().flatten().map(|s| s.retransmits).sum())
    }

    /// Every link-down declaration made so far, oldest first. Survives
    /// [`MultiFabric::reset_transient`] so recovery logs can report the
    /// full history.
    pub fn link_down_records(&self) -> &[LinkDown] {
        self.transport.as_ref().map_or(&[], |t| &t.down_history)
    }

    /// `true` if any seam direction is currently declared down.
    pub fn any_link_down(&self) -> bool {
        self.transport.as_ref().is_some_and(|t| t.down.iter().flatten().any(|&d| d))
    }

    /// Clears in-flight ensemble state after a fault: every shard's
    /// transient core/router/queue state (see [`Fabric::reset_transient`];
    /// SRAM, programs, and clocks survive), everything in flight on the
    /// seams, and — when the transport is armed — all framing state
    /// (sequence spaces restart at zero on both ends) plus down flags, so
    /// a rolled-back solve retries on fresh links. Stall windows, fault
    /// schedules, stats, and the down history persist: the wall clock is
    /// not rewound, so an outage outlives a rollback. Clocks are equalized
    /// to the slowest wafer: a [`MultiFabric::run_each`] that stalled left
    /// them skewed, and every shard is quiescent right after its reset.
    pub fn reset_transient(&mut self) {
        for f in &mut self.shards {
            f.reset_transient();
        }
        self.equalize_clocks();
        for q in &mut self.in_flight {
            q.clear();
        }
        if let Some(t) = self.transport.as_deref_mut() {
            for ch in &mut t.channels {
                ch.reset();
            }
            for d in t.down.iter_mut().flatten() {
                *d = false;
            }
        }
    }

    /// Applies fault events due at `cycle`: stall windows open, one-shot
    /// drop/corrupt arms against the next matching frame.
    fn apply_due_link_faults(&mut self, cycle: u64) {
        let k = self.shards.len();
        let Some(t) = self.transport.as_deref_mut() else { return };
        while t.next_event < t.events.len() && t.events[t.next_event].at_cycle <= cycle {
            let ev = t.events[t.next_event];
            t.next_event += 1;
            match ev.kind {
                FaultKind::HostLinkDrop { seam, dir } => {
                    t.pending_drop[seam][dir as usize] += 1;
                }
                FaultKind::HostLinkCorrupt { seam, dir, bit } => {
                    t.pending_corrupt[seam][dir as usize].push_back(bit);
                }
                FaultKind::HostLinkStall { seam, cycles } => {
                    for until in &mut t.stall_until[seam] {
                        *until = (*until).max(cycle + cycles);
                    }
                }
                FaultKind::WaferStall { wafer, cycles } => {
                    let mut darken = |seam: usize| {
                        for until in &mut t.stall_until[seam] {
                            *until = (*until).max(cycle + cycles);
                        }
                    };
                    if wafer > 0 {
                        darken(wafer - 1);
                    }
                    if wafer + 1 < k {
                        darken(wafer);
                    }
                }
                _ => unreachable!("arm_faults rejects on-wafer kinds"),
            }
            t.log.applied.push(FaultRecord { cycle, kind: ev.kind });
        }
    }

    /// One linked ensemble cycle: grant seam credits, step every wafer,
    /// drain seam egress onto the link, deliver arrivals.
    ///
    /// Under [`HostLink::ideal`], credits mirror the remote input queue's
    /// start-of-cycle space and drained flits are injected immediately —
    /// the constructively bit-exact lockstep of the fused fabric. Under a
    /// modeled link, egress admission is capped only by the channel
    /// buffer, and arrival times follow bandwidth serialization plus
    /// latency.
    pub fn step_linked(&mut self) {
        if self.transport.is_some() {
            self.step_linked_reliable();
            return;
        }
        let ideal = self.link.is_ideal();
        // Seam credits for the coming cycle.
        for ci in 0..self.channels.len() {
            let c = self.channels[ci];
            let credits = if ideal {
                self.shards[c.dst].edge_in_space(c.dx, c.dy, c.dport, c.color)
            } else {
                // The host drains egress every cycle; a small standing
                // budget keeps the fabric streaming without modeling an
                // unbounded host buffer.
                8
            };
            self.shards[c.src].set_edge_credits(c.sx, c.sy, c.sport, c.color, credits);
        }

        // Wafers are independent within a cycle (seams exchange between
        // cycles), so the order is immaterial.
        for f in &mut self.shards {
            f.step();
        }
        let now = self.shards[0].cycle();
        debug_assert!(
            self.shards.iter().all(|f| f.cycle() == now),
            "linked wafers must share a clock"
        );

        // Drain egress onto the link in fixed channel order (the
        // deterministic host service order).
        for ci in 0..self.channels.len() {
            let c = self.channels[ci];
            let flits = self.shards[c.src].drain_edge_out(c.sx, c.sy, c.sport, c.color);
            if flits.is_empty() {
                continue;
            }
            let (seam, dir) = c.seam_dir();
            for flit in flits {
                let due = if ideal {
                    now
                } else {
                    let ready = &mut self.link_ready[seam][dir];
                    *ready =
                        ready.max(now as f64) + f64::from(flit.bytes()) / self.link.bytes_per_cycle;
                    ready.ceil() as u64 + self.link.latency_cycles
                };
                self.in_flight[ci].push_back((due, flit));
            }
        }

        // Deliver due arrivals, per channel in FIFO order; a full ingress
        // queue holds the head (host-side backpressure).
        for ci in 0..self.channels.len() {
            let c = self.channels[ci];
            while let Some(&(due, flit)) = self.in_flight[ci].front() {
                if due > now {
                    break;
                }
                if !self.shards[c.dst].inject_edge(c.dx, c.dy, c.dport, c.color, flit) {
                    debug_assert!(!ideal, "ideal-link credits guarantee ingress space");
                    break;
                }
                self.in_flight[ci].pop_front();
                self.injected += 1;
            }
        }
    }

    /// [`MultiFabric::step_linked`] with the reliable transport armed:
    /// the same credit grant, wafer step, and serialization model,
    /// plus framing / ack / retransmit bookkeeping and fault application.
    ///
    /// With no fault due, this path is cycle-identical to the disarmed
    /// stepper: fresh frames serialize with the exact arithmetic of the
    /// baseline path (headers and acks are control-plane metadata the
    /// host carries out-of-band), delivery order per channel is FIFO, and
    /// ack timeouts are sized off the frame's own delivery time so a
    /// healthy link never retransmits.
    fn step_linked_reliable(&mut self) {
        let ideal = self.link.is_ideal();
        let link = self.link;
        let now0 = self.cycle();
        self.apply_due_link_faults(now0);

        // Sender side, before the step: process due acks, then fire any
        // ack timeouts (go-back-N retransmission with bounded backoff).
        for ci in 0..self.channels.len() {
            let (seam, dir) = self.channels[ci].seam_dir();
            let src = self.channels[ci].src;
            let TransportState {
                channels,
                stats,
                stall_until,
                down,
                down_history,
                pending_drop,
                pending_corrupt,
                log,
                activity,
                ..
            } = self.transport.as_deref_mut().unwrap();
            if now0 < stall_until[seam][dir] {
                continue; // the dark seam holds frames *and* acks
            }
            let ch = &mut channels[ci];
            while let Some(&(due, cum)) = ch.acks.front() {
                if due > now0 {
                    break;
                }
                ch.acks.pop_front();
                stats[seam][dir].acks += 1;
                while ch.unacked.front().is_some_and(|f| f.seq < cum) {
                    ch.unacked.pop_front();
                    ch.attempts = 0;
                }
                if ch.unacked.is_empty() {
                    ch.deadline = u64::MAX;
                }
            }
            if down[seam][dir] || now0 < ch.deadline {
                continue;
            }
            ch.attempts += 1;
            if ch.attempts > RETRY_BUDGET {
                down[seam][dir] = true;
                down_history.push(LinkDown { cycle: now0, seam, dir, attempts: ch.attempts - 1 });
                ch.deadline = u64::MAX;
                continue;
            }
            stats[seam][dir].retransmits += ch.unacked.len() as u64;
            *activity += ch.unacked.len() as u64;
            let mut last_due = now0;
            for i in 0..ch.unacked.len() {
                let frame = ch.unacked[i];
                let due = if ideal {
                    now0
                } else {
                    let ready = &mut self.link_ready[seam][dir];
                    *ready = ready.max(now0 as f64)
                        + f64::from(frame.flit.bytes()) / link.bytes_per_cycle;
                    ready.ceil() as u64 + link.latency_cycles
                };
                last_due = last_due.max(due);
                // Retransmissions cross the same flaky wire: a pending
                // one-shot fault hits whatever frame crosses next.
                if pending_drop[seam][dir] > 0 {
                    pending_drop[seam][dir] -= 1;
                    stats[seam][dir].fault_dropped += 1;
                    log.dropped_flits += 1;
                } else {
                    let mut wired = frame;
                    if let Some(bit) = pending_corrupt[seam][dir].pop_front() {
                        wired.flit.bits ^= 1 << bit;
                        stats[seam][dir].fault_corrupted += 1;
                        log.corrupted_flits += 1;
                    }
                    ch.wire.push_back((due, wired));
                }
            }
            ch.deadline = last_due + link.latency_cycles + TransportState::slack(ch.attempts);
            self.shards[src].phase_marker("link_retransmit");
        }

        // Seam credits for the coming cycle (identical to the baseline).
        for ci in 0..self.channels.len() {
            let c = self.channels[ci];
            let credits = if ideal {
                self.shards[c.dst].edge_in_space(c.dx, c.dy, c.dport, c.color)
            } else {
                8
            };
            self.shards[c.src].set_edge_credits(c.sx, c.sy, c.sport, c.color, credits);
        }

        for f in &mut self.shards {
            f.step();
        }
        let now = self.shards[0].cycle();
        debug_assert!(
            self.shards.iter().all(|f| f.cycle() == now),
            "linked wafers must share a clock"
        );

        // Drain egress into frames, applying any armed one-shot faults.
        // Fresh frames serialize with the baseline arithmetic (a faulted
        // frame occupies the wire whether or not it survives it).
        for ci in 0..self.channels.len() {
            let c = self.channels[ci];
            let flits = self.shards[c.src].drain_edge_out(c.sx, c.sy, c.sport, c.color);
            if flits.is_empty() {
                continue;
            }
            let (seam, dir) = c.seam_dir();
            let TransportState { channels, stats, pending_drop, pending_corrupt, log, .. } =
                self.transport.as_deref_mut().unwrap();
            let ch = &mut channels[ci];
            for flit in flits {
                let seq = ch.next_seq;
                ch.next_seq += 1;
                let frame = Frame { seq, flit, checksum: frame_checksum(seq, flit) };
                stats[seam][dir].frames += 1;
                let due = if ideal {
                    now
                } else {
                    let ready = &mut self.link_ready[seam][dir];
                    *ready = ready.max(now as f64) + f64::from(flit.bytes()) / link.bytes_per_cycle;
                    ready.ceil() as u64 + link.latency_cycles
                };
                if pending_drop[seam][dir] > 0 {
                    pending_drop[seam][dir] -= 1;
                    stats[seam][dir].fault_dropped += 1;
                    log.dropped_flits += 1;
                } else {
                    let mut wired = frame;
                    if let Some(bit) = pending_corrupt[seam][dir].pop_front() {
                        wired.flit.bits ^= 1 << bit;
                        stats[seam][dir].fault_corrupted += 1;
                        log.corrupted_flits += 1;
                    }
                    ch.wire.push_back((due, wired));
                }
                ch.unacked.push_back(frame);
                let deadline = due + link.latency_cycles + TransportState::slack(ch.attempts);
                ch.deadline =
                    if ch.deadline == u64::MAX { deadline } else { ch.deadline.max(deadline) };
            }
        }

        // Receiver side: validated payloads held for ingress space drain
        // first (FIFO with the wire), then due arrivals — checksum, then
        // sequence check; in-order frames deliver and ack cumulatively.
        for ci in 0..self.channels.len() {
            let c = self.channels[ci];
            let (seam, dir) = c.seam_dir();
            let TransportState { channels, stats, stall_until, .. } =
                self.transport.as_deref_mut().unwrap();
            let dark = now < stall_until[seam][dir];
            let ch = &mut channels[ci];
            loop {
                if let Some(&flit) = ch.rx_hold.front() {
                    if self.shards[c.dst].inject_edge(c.dx, c.dy, c.dport, c.color, flit) {
                        ch.rx_hold.pop_front();
                        self.injected += 1;
                        continue;
                    }
                    debug_assert!(!ideal, "ideal-link credits guarantee ingress space");
                    break;
                }
                let Some(&(due, frame)) = ch.wire.front() else { break };
                if due > now || dark {
                    break;
                }
                ch.wire.pop_front();
                if frame_checksum(frame.seq, frame.flit) != frame.checksum {
                    stats[seam][dir].checksum_discarded += 1;
                    continue; // no ack: the sender's timeout recovers it
                }
                match frame.seq.cmp(&ch.expected) {
                    std::cmp::Ordering::Less => {
                        stats[seam][dir].dup_discarded += 1;
                        ch.acks.push_back((now + link.latency_cycles, ch.expected));
                    }
                    std::cmp::Ordering::Greater => {
                        // A gap: an earlier frame was lost. Go-back-N
                        // discards until the retransmission arrives.
                        stats[seam][dir].gap_discarded += 1;
                        ch.acks.push_back((now + link.latency_cycles, ch.expected));
                    }
                    std::cmp::Ordering::Equal => {
                        ch.expected += 1;
                        ch.rx_hold.push_back(frame.flit);
                        ch.acks.push_back((now + link.latency_cycles, ch.expected));
                    }
                }
            }
        }
    }

    /// Steps the linked ensemble until quiescence under a stall watchdog
    /// (the ensemble analogue of [`Fabric::run_watched`]). Returns cycles
    /// elapsed.
    ///
    /// # Errors
    /// Returns a merged [`StallReport`] (tile coordinates globalized) on
    /// a zero-progress window or an exceeded deadline.
    pub fn run_linked(
        &mut self,
        max_cycles: u64,
        stall_window: u64,
    ) -> Result<u64, Box<StallReport>> {
        assert!(stall_window > 0, "stall window must be nonzero");
        let start = self.cycle();
        let mut last_progress = self.total_progress();
        let mut window_start = start;
        while !self.is_quiescent() {
            if self.cycle() - start >= max_cycles {
                return Err(self.ensemble_stall(self.cycle() - window_start, true));
            }
            self.step_linked();
            let p = self.total_progress();
            if p != last_progress {
                last_progress = p;
                window_start = self.cycle();
            } else if self.cycle() - window_start >= stall_window {
                return Err(self.ensemble_stall(self.cycle() - window_start, false));
            }
        }
        Ok(self.cycle() - start)
    }

    /// Runs every wafer *independently* to quiescence, one after another
    /// — the compute phases of the hierarchical driver, where wafers only
    /// talk at halo/AllReduce boundaries. Clocks are then equalized to the
    /// slowest wafer (ensemble time is the max), and the maximum per-wafer
    /// elapsed cycle count is returned.
    ///
    /// # Errors
    /// Returns the first failing wafer's [`StallReport`], globalized. Every
    /// wafer has still run, and a stalled one cannot be advanced, so the
    /// clocks stay skewed until [`MultiFabric::reset_transient`].
    pub fn run_each(
        &mut self,
        max_cycles: u64,
        stall_window: u64,
    ) -> Result<u64, Box<StallReport>> {
        let results: Vec<Result<u64, Box<StallReport>>> =
            self.shards.iter_mut().map(|f| f.run_watched(max_cycles, stall_window)).collect();
        let mut max_elapsed = 0;
        for (m, r) in results.into_iter().enumerate() {
            match r {
                Ok(c) => max_elapsed = max_elapsed.max(c),
                Err(mut report) => {
                    for t in &mut report.stalled {
                        t.x += self.offsets[m];
                    }
                    return Err(report);
                }
            }
        }
        self.equalize_clocks();
        Ok(max_elapsed)
    }

    /// Advances every wafer's clock to the slowest wafer's. Every wafer
    /// must be quiescent ([`Fabric::advance_idle`] asserts it).
    fn equalize_clocks(&mut self) {
        let target = self.shards.iter().map(Fabric::cycle).max().unwrap();
        for f in &mut self.shards {
            f.advance_idle(target - f.cycle());
        }
    }

    /// The paired seam channels in `wse-lint`'s [`SeamEdge`] form — the
    /// ensemble topology the whole-fabric verification passes follow when
    /// tracing producer flows across wafers.
    ///
    /// [`SeamEdge`]: wse_lint::dataflow::SeamEdge
    pub fn seam_edges(&self) -> Vec<wse_lint::dataflow::SeamEdge> {
        self.channels
            .iter()
            .map(|c| wse_lint::dataflow::SeamEdge {
                src_shard: c.src,
                sx: c.sx,
                sy: c.sy,
                sport: c.sport,
                dst_shard: c.dst,
                dx: c.dx,
                dy: c.dy,
                dport: c.dport,
                color: c.color,
            })
            .collect()
    }

    /// Runs every `wse-lint` rule over the whole ensemble: per-shard rules
    /// on each wafer (diagnostic x coordinates globalized by the wafer's
    /// slab offset) plus the whole-ensemble deadlock, race, and progress
    /// passes with seam channels included. Call after the programs are
    /// built and seams are paired; no cycle is stepped.
    pub fn lint(&self) -> Vec<wse_lint::Diagnostic> {
        let ens = wse_lint::dataflow::Ensemble {
            shards: self.shards.iter().collect(),
            offsets: self.offsets.clone(),
            seams: self.seam_edges(),
        };
        wse_lint::lint_ensemble(&ens)
    }

    /// Merges per-wafer stall diagnoses into one globalized report.
    fn ensemble_stall(&self, window: u64, deadline_exceeded: bool) -> Box<StallReport> {
        let mut merged = StallReport {
            cycle: self.cycle(),
            window,
            deadline_exceeded,
            stalled: Vec::new(),
            total_stalled: 0,
        };
        for (m, f) in self.shards.iter().enumerate() {
            let r = f.stall_report(window, deadline_exceeded);
            merged.total_stalled += r.total_stalled;
            for mut t in r.stalled {
                t.x += self.offsets[m];
                if merged.stalled.len() < StallReport::MAX_TILES {
                    merged.stalled.push(t);
                }
            }
        }
        Box::new(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wse_arch::dsr::mk;
    use wse_arch::instr::{Op, Stmt, Task, TensorInstr};
    use wse_arch::types::Dtype;
    use wse_float::F16;

    /// A 1×w fabric streaming `n` words from (0,0) to (w-1,0) on color 1.
    fn stream_fabric(w: usize, n: u32) -> (Fabric, u32) {
        let mut f = Fabric::new(w, 1);
        f.set_route(0, 0, Port::Ramp, 1, &[Port::East]);
        for x in 1..w - 1 {
            f.set_route(x, 0, Port::West, 1, &[Port::East]);
        }
        f.set_route(w - 1, 0, Port::West, 1, &[Port::Ramp]);
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
            let t = f.tile_mut(w - 1, 0);
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
    fn ideal_split_is_bit_identical_to_fused() {
        let n = 24u32;
        let (mut fused, raddr) = stream_fabric(6, n);
        let (template, _) = stream_fabric(6, n);
        for k in [2usize, 3] {
            let mut multi = MultiFabric::split_x(&template, k, HostLink::ideal());
            let fused_cycles = fused.run_until_quiescent(100_000).unwrap();
            let split_cycles = multi.run_linked(100_000, 2_048).unwrap();
            assert_eq!(fused_cycles, split_cycles, "k={k} diverged from the fused fabric");
            let (m, lx) = multi.to_local(5);
            let got = multi.shard(m).tile(lx, 0).mem.load_f16_slice(raddr, n as usize);
            let want = fused.tile(5, 0).mem.load_f16_slice(raddr, n as usize);
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            );
            // Re-run the fused fabric fresh for the next k.
            let (f2, _) = stream_fabric(6, n);
            fused = f2;
        }
    }

    #[test]
    fn modeled_link_adds_latency_and_serialization() {
        let n = 16u32;
        let (template, raddr) = stream_fabric(4, n);
        let mut ideal = MultiFabric::split_x(&template, 2, HostLink::ideal());
        let ideal_cycles = ideal.run_linked(100_000, 2_048).unwrap();

        let mut slow = MultiFabric::split_x(&template, 2, HostLink::new(1000.0, 0.2, 0.9));
        assert_eq!(slow.link().latency_cycles, 180);
        let slow_cycles = slow.run_linked(100_000, 2_048).unwrap();
        assert!(
            slow_cycles >= ideal_cycles + 180,
            "modeled link must pay its latency: {slow_cycles} vs ideal {ideal_cycles}"
        );
        // Payload integrity across the modeled link.
        let (m, lx) = slow.to_local(3);
        let got = slow.shard(m).tile(lx, 0).mem.load_f16_slice(raddr, n as usize);
        for (i, v) in got.iter().enumerate() {
            assert_eq!(v.to_f64(), (i + 1) as f64);
        }
    }

    /// Runs `stream_fabric(w, n)` split across `k` wafers and returns
    /// (elapsed cycles, the received payload bits).
    fn run_split(
        multi: &mut MultiFabric,
        w: usize,
        n: u32,
        raddr: u32,
    ) -> Result<(u64, Vec<u16>), Box<StallReport>> {
        let cycles = multi.run_linked(200_000, 2_048)?;
        let (m, lx) = multi.to_local(w - 1);
        let bits = multi
            .shard(m)
            .tile(lx, 0)
            .mem
            .load_f16_slice(raddr, n as usize)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        Ok((cycles, bits))
    }

    #[test]
    fn armed_transport_without_faults_is_cycle_identical() {
        let n = 24u32;
        let (template, raddr) = stream_fabric(6, n);
        for link in [HostLink::ideal(), HostLink::paper_default(), HostLink::new(10.0, 0.05, 0.9)] {
            let mut plain = MultiFabric::split_x(&template, 2, link);
            let (base_cycles, base_bits) = run_split(&mut plain, 6, n, raddr).unwrap();

            let mut armed = MultiFabric::split_x(&template, 2, link);
            armed.arm_transport();
            let (cycles, bits) = run_split(&mut armed, 6, n, raddr).unwrap();
            assert_eq!(base_cycles, cycles, "armed transport changed timing on {link:?}");
            assert_eq!(base_bits, bits, "armed transport changed payload on {link:?}");
            assert_eq!(armed.retransmits(), 0, "healthy link retransmitted on {link:?}");
            let stats = armed.link_stats(0, 0);
            assert_eq!(stats.frames, u64::from(n), "every flit must be framed");
            assert!(armed.link_down_records().is_empty());
        }
    }

    #[test]
    fn host_link_drop_recovers_via_retransmission() {
        let n = 16u32;
        let (template, raddr) = stream_fabric(4, n);
        let mut plain = MultiFabric::split_x(&template, 2, HostLink::paper_default());
        let (base_cycles, base_bits) = run_split(&mut plain, 4, n, raddr).unwrap();

        let mut armed = MultiFabric::split_x(&template, 2, HostLink::paper_default());
        armed.arm_faults(&FaultPlan::new().with(2, FaultKind::HostLinkDrop { seam: 0, dir: 0 }));
        let (cycles, bits) = run_split(&mut armed, 4, n, raddr).unwrap();
        assert_eq!(base_bits, bits, "retransmission must mask the drop bit-exactly");
        assert!(cycles > base_cycles, "the retransmit round-trip costs cycles");
        let stats = armed.link_stats(0, 0);
        assert_eq!(stats.fault_dropped, 1);
        assert!(stats.retransmits >= 1, "the lost frame must be re-sent");
        assert!(stats.gap_discarded >= 1, "frames behind the loss are go-back-N discards");
        assert_eq!(armed.fault_log().unwrap().dropped_flits, 1);
        assert!(armed.link_down_records().is_empty());
    }

    #[test]
    fn host_link_corrupt_is_detected_and_masked() {
        let n = 16u32;
        let (template, raddr) = stream_fabric(4, n);
        let mut plain = MultiFabric::split_x(&template, 2, HostLink::paper_default());
        let (_, base_bits) = run_split(&mut plain, 4, n, raddr).unwrap();

        let mut armed = MultiFabric::split_x(&template, 2, HostLink::paper_default());
        armed.arm_faults(
            &FaultPlan::new().with(2, FaultKind::HostLinkCorrupt { seam: 0, dir: 0, bit: 7 }),
        );
        let (_, bits) = run_split(&mut armed, 4, n, raddr).unwrap();
        assert_eq!(base_bits, bits, "checksum must catch the flip; retransmit must mask it");
        let stats = armed.link_stats(0, 0);
        assert_eq!(stats.fault_corrupted, 1);
        assert_eq!(stats.checksum_discarded, 1, "the damaged frame is discarded, not delivered");
        assert!(stats.retransmits >= 1);
    }

    #[test]
    fn short_host_link_stall_rides_through() {
        let n = 16u32;
        let (template, raddr) = stream_fabric(4, n);
        let mut plain = MultiFabric::split_x(&template, 2, HostLink::paper_default());
        let (base_cycles, base_bits) = run_split(&mut plain, 4, n, raddr).unwrap();

        for kind in [
            FaultKind::HostLinkStall { seam: 0, cycles: 300 },
            FaultKind::WaferStall { wafer: 1, cycles: 300 },
        ] {
            let mut armed = MultiFabric::split_x(&template, 2, HostLink::paper_default());
            armed.arm_faults(&FaultPlan::new().with(5, kind));
            let (cycles, bits) = run_split(&mut armed, 4, n, raddr).unwrap();
            assert_eq!(base_bits, bits, "{kind:?} must not damage payload");
            assert!(cycles >= base_cycles, "{kind:?} cannot speed the stream up");
            assert!(armed.link_down_records().is_empty(), "{kind:?} is transient");
        }
    }

    #[test]
    fn unrelenting_drops_declare_the_link_down() {
        let n = 16u32;
        let (template, _) = stream_fabric(4, n);
        let mut armed = MultiFabric::split_x(&template, 2, HostLink::paper_default());
        // Swallow every frame and every retransmission: the retry budget
        // must exhaust into a structured LinkDown, then the watchdog
        // reports the stall — never a silent partial delivery.
        let mut plan = FaultPlan::new();
        for _ in 0..10_000 {
            plan.push(0, FaultKind::HostLinkDrop { seam: 0, dir: 0 });
        }
        armed.arm_faults(&plan);
        let err = armed.run_linked(200_000, 2_048).unwrap_err();
        assert!(!err.deadline_exceeded, "this is a stall, not a deadline");
        let downs = armed.link_down_records();
        assert_eq!(downs.len(), 1, "exactly one declaration per seam direction");
        assert_eq!((downs[0].seam, downs[0].dir), (0, 0));
        assert_eq!(downs[0].attempts, RETRY_BUDGET);
        assert!(armed.any_link_down());
        // Rollback path: transient reset clears the down flag but keeps
        // the history and the (already-applied) fault arming.
        armed.reset_transient();
        assert!(!armed.any_link_down());
        assert_eq!(armed.link_down_records().len(), 1);
    }

    #[test]
    #[should_panic(expected = "targets one wafer")]
    fn ensemble_rejects_on_wafer_fault_kinds() {
        let (template, _) = stream_fabric(4, 4);
        let mut multi = MultiFabric::split_x(&template, 2, HostLink::ideal());
        multi.arm_faults(
            &FaultPlan::new().with(0, FaultKind::LinkDrop { x: 0, y: 0, port: Port::East }),
        );
    }

    #[test]
    fn to_local_round_trips() {
        let multi = MultiFabric::new(10, 2, 3, HostLink::ideal());
        for gx in 0..10 {
            let (m, lx) = multi.to_local(gx);
            assert_eq!(multi.slab(m).start + lx, gx);
        }
        assert_eq!(multi.slab(0).len() + multi.slab(1).len() + multi.slab(2).len(), 10);
    }
}
