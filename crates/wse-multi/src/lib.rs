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
//! Every seam runs a **reliable transport** ([`transport`]): seam traffic is
//! framed with sequence numbers and checksums, acked, and retransmitted on
//! timeout, so host-link faults armed with [`MultiFabric::arm_faults`]
//! ([`FaultKind::HostLinkDrop`] and friends) are detected and masked — or
//! surfaced as a structured [`LinkDown`] when the retry budget exhausts.
//! Frame headers and acks are control-plane metadata the host carries
//! out-of-band, so on a healthy link framing costs no cycle. The link model
//! sets the timing:
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
//! [`FaultKind::HostLinkDrop`]: wse_arch::fault::FaultKind::HostLinkDrop

#![warn(missing_docs)]

pub mod tenancy;
pub mod transport;

use crate::transport::{frame_checksum, ChannelState, Frame, TransportState};
use stencil::decomp::split_even;
use wse_arch::fabric::{Fabric, StallReport};
use wse_arch::fault::{FaultKind, FaultLog, FaultPlan, FaultRecord};
use wse_arch::types::{Color, Port};

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
    pub const fn new(gb_per_s: f64, latency_us: f64, clock_ghz: f64) -> HostLink {
        assert!(gb_per_s > 0.0 && clock_ghz > 0.0 && latency_us >= 0.0);
        HostLink {
            bytes_per_cycle: gb_per_s / clock_ghz,
            latency_cycles: (latency_us * clock_ghz * 1000.0).round() as u64,
        }
    }

    /// The paper-configuration default, matching `perf-model`'s
    /// `MultiWafer`: 1000 GB/s per direction, 0.2 µs one-way, at the
    /// 0.9 GHz paper clock (180 cycles latency, ~1111 bytes/cycle).
    pub const fn paper_default() -> HostLink {
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

    /// Arrival cycle of a `bytes`-byte frame handed to one seam direction
    /// at cycle `now`: it serializes behind everything the direction has
    /// already accepted (`ready`, the fractional cycle at which the link
    /// finishes its last byte), then pays the latency. The ideal link
    /// delivers in the same cycle.
    fn arrival(&self, ready: &mut f64, now: u64, bytes: u32) -> u64 {
        if self.is_ideal() {
            return now;
        }
        *ready = ready.max(now as f64) + f64::from(bytes) / self.bytes_per_cycle;
        ready.ceil() as u64 + self.latency_cycles
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
    /// Per-seam, per-direction serialization cursor: the cycle (fractional)
    /// at which the link finishes the last byte accepted so far.
    link_ready: Vec<[f64; 2]>,
    /// Flits injected into ingress queues so far — counted as ensemble
    /// progress so a long-latency link never trips the stall watchdog.
    injected: u64,
    /// Reliable-transport state: one go-back-N channel per entry of
    /// `channels`, per-seam counters, and the host-link fault schedule.
    transport: TransportState,
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
            link_ready: vec![[0.0; 2]; k.saturating_sub(1)],
            injected: 0,
            transport: TransportState::new(k.saturating_sub(1)),
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
        self.add_channel(Channel { src, sx, sy, sport, dst, dx, dy, dport, color });
    }

    /// Records a paired seam channel together with its transport state.
    fn add_channel(&mut self, channel: Channel) {
        self.channels.push(channel);
        self.transport.channels.push(ChannelState::new());
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
            self.add_channel(ch);
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

    /// Sum of per-wafer progress counters plus cross-link deliveries and
    /// retransmission attempts — the ensemble stall watchdog's progress
    /// measure: the watchdog holds off while the transport is still
    /// retrying and fires once it has declared the link down (or a stall
    /// outlasts the window).
    pub fn total_progress(&self) -> u64 {
        self.shards.iter().map(Fabric::progress).sum::<u64>()
            + self.injected
            + self.transport.activity
    }

    /// `true` when every wafer is quiescent and nothing is queued on or
    /// in flight across any seam: frames on the wire or held at the
    /// receiver count as pending work (unacked-but-delivered frames do
    /// not: acks are control plane and never carry payload).
    pub fn is_quiescent(&self) -> bool {
        self.shards.iter().all(Fabric::is_quiescent)
            && self.transport.channels.iter().all(|ch| ch.wire.is_empty() && ch.rx_hold.is_empty())
            && self
                .channels
                .iter()
                .all(|c| self.shards[c.src].edge_out_len(c.sx, c.sy, c.sport, c.color) == 0)
    }

    /// Opens a named phase in every wafer's phase log.
    pub fn phase_begin(&mut self, name: &'static str) {
        for f in &mut self.shards {
            f.phase_begin(name);
        }
    }

    /// Closes the open phase on every wafer.
    pub fn phase_end(&mut self) {
        for f in &mut self.shards {
            f.phase_end();
        }
    }

    /// Drops a zero-length phase marker on every wafer — recovery actions (`checkpoint`, `rollback`,
    /// `halo_retry`) stamp the ensemble timeline through this.
    pub fn phase_marker(&mut self, name: &'static str) {
        for f in &mut self.shards {
            f.phase_marker(name);
        }
    }

    /// Records a retroactive phase span `[start, end]` on every wafer. The overlapped halo schedule uses this: how much of a merged
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

    /// Installs `plan` as the ensemble's host-link fault schedule (see
    /// [`FaultPlan::random_host_link`]), replacing any previous schedule
    /// (faults it already applied stay applied) and clearing the ensemble
    /// fault log. The scheduled faults fire at their cycles against the
    /// framed seam traffic.
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
        let t = &mut self.transport;
        (t.events, t.next_event, t.log) = (events, 0, FaultLog::default());
    }

    /// The ensemble fault audit trail.
    pub fn fault_log(&self) -> &FaultLog {
        &self.transport.log
    }

    /// Transport counters for seam `seam`, direction `dir` (0 = eastward,
    /// 1 = westward).
    pub fn link_stats(&self, seam: usize, dir: usize) -> LinkStats {
        assert!(seam + 1 < self.k() && dir < 2, "no seam {seam} direction {dir}");
        self.transport.stats[seam][dir]
    }

    /// Total frames retransmitted across every seam — the per-link
    /// counter surfaced next to the `link_retransmit` trace markers.
    pub fn retransmits(&self) -> u64 {
        self.transport.stats.iter().flatten().map(|s| s.retransmits).sum()
    }

    /// Every link-down declaration made so far, oldest first. Survives
    /// [`MultiFabric::reset_transient`] so recovery logs can report the
    /// full history.
    pub fn link_down_records(&self) -> &[LinkDown] {
        &self.transport.down_history
    }

    /// `true` if any seam direction is currently declared down.
    pub fn any_link_down(&self) -> bool {
        self.transport.down.iter().flatten().any(|&d| d)
    }

    /// Clears in-flight ensemble state after a fault: every shard's
    /// transient core/router/queue state (see [`Fabric::reset_transient`];
    /// SRAM, programs, and clocks survive), everything in flight on the
    /// seams, and all framing state (sequence spaces restart at zero on
    /// both ends) plus down flags, so a rolled-back solve retries on fresh
    /// links. Stall windows, fault schedules, stats, and the down history
    /// persist: the wall clock is not rewound, so an outage outlives a
    /// rollback. Clocks are equalized
    /// to the slowest wafer: a [`MultiFabric::run_each`] that stalled left
    /// them skewed, and every shard is quiescent right after its reset.
    pub fn reset_transient(&mut self) {
        for f in &mut self.shards {
            f.reset_transient();
        }
        self.equalize_clocks();
        for ch in &mut self.transport.channels {
            ch.reset();
        }
        for d in self.transport.down.iter_mut().flatten() {
            *d = false;
        }
    }

    /// Applies fault events due at `cycle`: stall windows open, one-shot
    /// drop/corrupt arms against the next matching frame.
    fn apply_due_link_faults(&mut self, cycle: u64) {
        let k = self.shards.len();
        let t = &mut self.transport;
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

    /// One linked ensemble cycle: apply due host-link faults, process
    /// acks and fire ack timeouts (go-back-N retransmission with bounded
    /// backoff), grant seam credits, step every wafer, frame seam egress
    /// onto the link, and deliver validated in-order arrivals.
    ///
    /// Under [`HostLink::ideal`], credits mirror the remote input queue's
    /// start-of-cycle space and drained flits are injected immediately —
    /// the constructively bit-exact lockstep of the fused fabric. Under a
    /// modeled link, egress admission is capped only by the channel
    /// buffer, and arrival times follow bandwidth serialization plus
    /// latency. Headers and acks are carried out-of-band, delivery per
    /// channel is FIFO, and ack timeouts are sized off each frame's own
    /// delivery time, so with no fault due a healthy link never
    /// retransmits and framing costs no cycle.
    pub fn step_linked(&mut self) {
        let link = self.link;
        let now0 = self.cycle();
        self.apply_due_link_faults(now0);

        // Sender side, before the step: process due acks, then fire any
        // ack timeouts (go-back-N retransmission with bounded backoff).
        for ci in 0..self.channels.len() {
            let c = self.channels[ci];
            let (seam, dir) = c.seam_dir();
            let t = &mut self.transport;
            if now0 < t.stall_until[seam][dir] {
                continue; // the dark seam holds frames *and* acks
            }
            let ch = &mut t.channels[ci];
            while let Some(&(due, cum)) = ch.acks.front() {
                if due > now0 {
                    break;
                }
                ch.acks.pop_front();
                t.stats[seam][dir].acks += 1;
                while ch.unacked.front().is_some_and(|f| f.seq < cum) {
                    ch.unacked.pop_front();
                    ch.attempts = 0;
                }
                if ch.unacked.is_empty() {
                    ch.deadline = u64::MAX;
                }
            }
            if t.down[seam][dir] || now0 < ch.deadline {
                continue;
            }
            ch.attempts += 1;
            if ch.attempts > RETRY_BUDGET {
                t.down[seam][dir] = true;
                t.down_history.push(LinkDown { cycle: now0, seam, dir, attempts: ch.attempts - 1 });
                ch.deadline = u64::MAX;
                continue;
            }
            let window = ch.unacked.len();
            t.stats[seam][dir].retransmits += window as u64;
            t.activity += window as u64;
            let mut last_due = now0;
            for i in 0..window {
                let frame = self.transport.channels[ci].unacked[i];
                let due = link.arrival(&mut self.link_ready[seam][dir], now0, frame.flit.bytes());
                last_due = last_due.max(due);
                // Retransmissions cross the same flaky wire.
                self.put_on_wire(ci, due, frame);
            }
            let ch = &mut self.transport.channels[ci];
            ch.deadline = last_due + link.latency_cycles + TransportState::slack(ch.attempts);
            self.shards[c.src].phase_marker("link_retransmit");
        }

        // Seam credits for the coming cycle: the ideal link mirrors the
        // remote queue; otherwise the host drains egress every cycle, and a
        // small standing budget keeps the fabric streaming without modeling
        // an unbounded host buffer.
        for c in &self.channels {
            let credits = if link.is_ideal() {
                self.shards[c.dst].edge_in_space(c.dx, c.dy, c.dport, c.color)
            } else {
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

        // Drain egress into fresh frames, in fixed channel order (the
        // deterministic host service order).
        for ci in 0..self.channels.len() {
            let c = self.channels[ci];
            let (seam, dir) = c.seam_dir();
            for flit in self.shards[c.src].drain_edge_out(c.sx, c.sy, c.sport, c.color) {
                let ch = &mut self.transport.channels[ci];
                let seq = ch.next_seq;
                ch.next_seq += 1;
                let frame = Frame { seq, flit, checksum: frame_checksum(seq, flit) };
                self.transport.stats[seam][dir].frames += 1;
                let due = link.arrival(&mut self.link_ready[seam][dir], now, flit.bytes());
                self.put_on_wire(ci, due, frame);
                let ch = &mut self.transport.channels[ci];
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
            let t = &mut self.transport;
            let dark = now < t.stall_until[seam][dir];
            let stats = &mut t.stats[seam][dir];
            let ch = &mut t.channels[ci];
            loop {
                if let Some(&flit) = ch.rx_hold.front() {
                    if self.shards[c.dst].inject_edge(c.dx, c.dy, c.dport, c.color, flit) {
                        ch.rx_hold.pop_front();
                        self.injected += 1;
                        continue;
                    }
                    debug_assert!(!link.is_ideal(), "ideal-link credits guarantee ingress space");
                    break;
                }
                let Some(&(due, frame)) = ch.wire.front() else { break };
                if due > now || dark {
                    break;
                }
                ch.wire.pop_front();
                if frame_checksum(frame.seq, frame.flit) != frame.checksum {
                    stats.checksum_discarded += 1;
                    continue; // no ack: the sender's timeout recovers it
                }
                match frame.seq.cmp(&ch.expected) {
                    std::cmp::Ordering::Less => stats.dup_discarded += 1,
                    // A gap: an earlier frame was lost. Go-back-N discards
                    // until the retransmission arrives.
                    std::cmp::Ordering::Greater => stats.gap_discarded += 1,
                    std::cmp::Ordering::Equal => {
                        ch.expected += 1;
                        ch.rx_hold.push_back(frame.flit);
                    }
                }
                ch.acks.push_back((now + link.latency_cycles, ch.expected));
            }
        }
    }

    /// Hands `frame` to channel `ci`'s wire, to arrive at `due` — unless a
    /// pending one-shot host-link fault on its seam direction drops or
    /// damages it first (a faulted frame occupies the wire whether or not
    /// it survives it).
    fn put_on_wire(&mut self, ci: usize, due: u64, mut frame: Frame) {
        let (seam, dir) = self.channels[ci].seam_dir();
        let t = &mut self.transport;
        if t.pending_drop[seam][dir] > 0 {
            t.pending_drop[seam][dir] -= 1;
            t.stats[seam][dir].fault_dropped += 1;
            t.log.dropped_flits += 1;
            return;
        }
        if let Some(bit) = t.pending_corrupt[seam][dir].pop_front() {
            frame.flit.bits ^= 1 << bit;
            t.stats[seam][dir].fault_corrupted += 1;
            t.log.corrupted_flits += 1;
        }
        t.channels[ci].wire.push_back((due, frame));
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
    use wse_arch::fabric::STALL_WINDOW;
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
            let fused_cycles = fused.run_watched(100_000, 100_000).unwrap();
            let split_cycles = multi.run_linked(100_000, STALL_WINDOW).unwrap();
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
        let ideal_cycles = ideal.run_linked(100_000, STALL_WINDOW).unwrap();

        let mut slow = MultiFabric::split_x(&template, 2, HostLink::new(1000.0, 0.2, 0.9));
        assert_eq!(slow.link().latency_cycles, 180);
        let slow_cycles = slow.run_linked(100_000, STALL_WINDOW).unwrap();
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
        let cycles = multi.run_linked(200_000, STALL_WINDOW)?;
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
        // Framing on a healthy link costs no cycle: the ideal link matches
        // the fused fabric, and the two modeled links keep the cycle counts
        // pinned for this stream (recorded from a stepper that trusted the
        // link and framed nothing).
        let n = 24u32;
        let (template, raddr) = stream_fabric(6, n);
        let (mut fused, _) = stream_fabric(6, n);
        let fused_cycles = fused.run_watched(100_000, 100_000).unwrap();
        let want: Vec<u16> = fused
            .tile(5, 0)
            .mem
            .load_f16_slice(raddr, n as usize)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        for (link, expected_cycles) in [
            (HostLink::ideal(), fused_cycles),
            (HostLink::paper_default(), 199),
            (HostLink::new(10.0, 0.05, 0.9), 64),
        ] {
            let mut multi = MultiFabric::split_x(&template, 2, link);
            let (cycles, bits) = run_split(&mut multi, 6, n, raddr).unwrap();
            assert_eq!(cycles, expected_cycles, "framing changed timing on {link:?}");
            assert_eq!(bits, want, "framing changed payload on {link:?}");
            assert_eq!(multi.retransmits(), 0, "healthy link retransmitted on {link:?}");
            let stats = multi.link_stats(0, 0);
            assert_eq!(stats.frames, u64::from(n), "every flit must be framed");
            assert!(multi.link_down_records().is_empty());
        }
    }

    #[test]
    fn host_link_drop_recovers_via_retransmission() {
        let n = 16u32;
        let (template, raddr) = stream_fabric(4, n);
        let mut healthy = MultiFabric::split_x(&template, 2, HostLink::paper_default());
        let (base_cycles, base_bits) = run_split(&mut healthy, 4, n, raddr).unwrap();

        let mut armed = MultiFabric::split_x(&template, 2, HostLink::paper_default());
        armed.arm_faults(&FaultPlan::new().with(2, FaultKind::HostLinkDrop { seam: 0, dir: 0 }));
        let (cycles, bits) = run_split(&mut armed, 4, n, raddr).unwrap();
        assert_eq!(base_bits, bits, "retransmission must mask the drop bit-exactly");
        assert!(cycles > base_cycles, "the retransmit round-trip costs cycles");
        let stats = armed.link_stats(0, 0);
        assert_eq!(stats.fault_dropped, 1);
        assert!(stats.retransmits >= 1, "the lost frame must be re-sent");
        assert!(stats.gap_discarded >= 1, "frames behind the loss are go-back-N discards");
        assert_eq!(armed.fault_log().dropped_flits, 1);
        assert!(armed.link_down_records().is_empty());
    }

    #[test]
    fn host_link_corrupt_is_detected_and_masked() {
        let n = 16u32;
        let (template, raddr) = stream_fabric(4, n);
        let mut healthy = MultiFabric::split_x(&template, 2, HostLink::paper_default());
        let (_, base_bits) = run_split(&mut healthy, 4, n, raddr).unwrap();

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
        let mut healthy = MultiFabric::split_x(&template, 2, HostLink::paper_default());
        let (base_cycles, base_bits) = run_split(&mut healthy, 4, n, raddr).unwrap();

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
        let err = armed.run_linked(200_000, STALL_WINDOW).unwrap_err();
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
