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

use crate::transport::{frame_checksum, Channel, Frame, Link, TransportState};
use stencil::decomp::split_even;
use wse_arch::fabric::{Fabric, StallReport, Tile};
use wse_arch::fault::{FaultKind, FaultLog, FaultPlan, FaultRecord};
use wse_arch::types::{Color, Port};
use wse_lint::dataflow::SeamEdge;

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

/// `k` wafers simulating X-slabs of a `global_w × h` tile grid, linked by
/// a [`HostLink`].
pub struct MultiFabric {
    shards: Vec<Fabric>,
    /// Global x of each shard's first tile column.
    offsets: Vec<usize>,
    global_w: usize,
    h: usize,
    link: HostLink,
    /// The paired seam channels, each with its go-back-N state.
    channels: Vec<Channel>,
    /// One record per seam direction: `links[2·seam + dir]`.
    links: Vec<Link>,
    /// Flits injected into ingress queues plus frames retransmitted — the
    /// seams' share of ensemble progress, so a long-latency link never
    /// trips the stall watchdog while one still retrying holds it off.
    seam_progress: u64,
    /// The host-link fault schedule, its log, and the link-down history.
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
            links: vec![Link::default(); 2 * (k - 1)],
            seam_progress: 0,
            transport: TransportState::default(),
        }
    }

    /// Splits a fully configured single fabric into `k` X-slab wafers:
    /// tiles (programs, memory, routes, registers) are cloned column
    /// ranges; every `(row, color)` some route fans out across a cut is
    /// declared at both ends of it, and [`MultiFabric::pair_seams`] turns
    /// each routed direction into a seam channel. Under
    /// [`HostLink::ideal`] the resulting ensemble steps bit-for-bit like
    /// the original. All tile state — programs, activated tasks, memory,
    /// queued flits — carries over; the ensemble clock restarts at zero.
    ///
    /// # Panics
    /// Panics if `k` is out of range.
    pub fn split_x(fabric: &Fabric, k: usize, link: HostLink) -> MultiFabric {
        let h = fabric.height();
        let mut multi = MultiFabric::new(fabric.width(), h, k, link);
        for gx in 0..fabric.width() {
            for y in 0..h {
                *multi.tile_mut(gx, y) = fabric.tile(gx, y).clone();
            }
        }
        for m in 0..k - 1 {
            let (cut, east) = (multi.offsets[m + 1], multi.shards[m].width() - 1);
            for y in 0..h {
                let crossing = |x, port| {
                    let routes = fabric.tile(x, y).router.routes();
                    routes.filter(move |(.., fanout)| fanout.contains(&port)).map(|(_, c, _)| c)
                };
                let mut colors: Vec<Color> =
                    crossing(cut - 1, Port::East).chain(crossing(cut, Port::West)).collect();
                colors.sort_unstable();
                colors.dedup();
                for c in colors {
                    multi.shards[m].open_edge(east, y, Port::East, c);
                    multi.shards[m + 1].open_edge(0, y, Port::West, c);
                }
            }
        }
        multi.pair_seams();
        multi
    }

    /// Pairs seam channels from the edge declarations the per-wafer
    /// program builders made: an east-edge declaration on wafer `m` pairs
    /// with the matching west-edge declaration at the same `(y, color)`
    /// on wafer `m + 1`, and symmetrically westward. A declaration becomes
    /// a channel only where some route at its tile fans out through its
    /// port on its color — a direction nothing routes into never carries
    /// a flit. Call once, after all programs are built.
    ///
    /// # Panics
    /// Panics if an east/west boundary declaration has no matching
    /// declaration on the neighboring wafer, or faces no neighboring wafer.
    pub fn pair_seams(&mut self) {
        assert!(self.channels.is_empty(), "seams already paired");
        let k = self.shards.len();
        for m in 0..k {
            let shard = &self.shards[m];
            for (sx, sy, sport, color) in shard.edge_ports() {
                let (dst_shard, edge_x, dx, dport, link) = match sport {
                    Port::East if m + 1 < k => (m + 1, shard.width() - 1, 0, Port::West, 2 * m),
                    Port::West if m > 0 => {
                        (m - 1, 0, self.shards[m - 1].width() - 1, Port::East, 2 * m - 1)
                    }
                    _ => panic!(
                        "edge port ({sx},{sy}) {sport:?} color {color} on wafer {m} faces no \
                         neighboring wafer"
                    ),
                };
                assert_eq!(sx, edge_x, "{sport:?} edge declared off the boundary column");
                assert!(
                    self.shards[dst_shard].edge_port_declared(dx, sy, dport, color),
                    "{sport:?} edge ({sx},{sy}) color {color} on wafer {m} has no {dport:?} peer"
                );
                let mut routes = shard.tile(sx, sy).router.routes();
                if routes.any(|(_, c, fanout)| c == color && fanout.contains(&sport)) {
                    let (src_shard, dy) = (m, sy);
                    let edge =
                        SeamEdge { src_shard, sx, sy, sport, dst_shard, dx, dy, dport, color };
                    self.channels.push(Channel::new(edge, link));
                }
            }
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

    /// The tile at global column `gx`, row `y`.
    pub fn tile(&self, gx: usize, y: usize) -> &Tile {
        let (m, lx) = self.to_local(gx);
        self.shards[m].tile(lx, y)
    }

    /// Mutable access to the tile at global column `gx`, row `y`.
    pub fn tile_mut(&mut self, gx: usize, y: usize) -> &mut Tile {
        let (m, lx) = self.to_local(gx);
        self.shards[m].tile_mut(lx, y)
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
        self.shards.iter().map(Fabric::progress).sum::<u64>() + self.seam_progress
    }

    /// `true` when every wafer is quiescent and nothing is queued on or
    /// in flight across any seam: frames on the wire or held at the
    /// receiver count as pending work (unacked-but-delivered frames do
    /// not: acks are control plane and never carry payload).
    pub fn is_quiescent(&self) -> bool {
        self.shards.iter().all(Fabric::is_quiescent)
            && self.channels.iter().all(|ch| {
                let e = ch.edge;
                ch.wire.is_empty()
                    && ch.rx_hold.is_empty()
                    && self.shards[e.src_shard].edge_out_len(e.sx, e.sy, e.sport, e.color) == 0
            })
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
        self.links[2 * seam + dir].stats
    }

    /// Total frames retransmitted across every seam — the per-link
    /// counter surfaced next to the `link_retransmit` trace markers.
    pub fn retransmits(&self) -> u64 {
        self.links.iter().map(|l| l.stats.retransmits).sum()
    }

    /// Every link-down declaration made so far, oldest first. Survives
    /// [`MultiFabric::reset_transient`] so recovery logs can report the
    /// full history.
    pub fn link_down_records(&self) -> &[LinkDown] {
        &self.transport.down_history
    }

    /// `true` if any seam direction is currently declared down.
    pub fn any_link_down(&self) -> bool {
        self.links.iter().any(|l| l.down)
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
        for ch in &mut self.channels {
            ch.reset();
        }
        for l in &mut self.links {
            l.down = false;
        }
    }

    /// Applies fault events due at `cycle`: stall windows open, one-shot
    /// drop/corrupt arms against the next matching frame.
    fn apply_due_link_faults(&mut self, cycle: u64) {
        let t = &mut self.transport;
        while let Some(&ev) = t.events.get(t.next_event).filter(|ev| ev.at_cycle <= cycle) {
            t.next_event += 1;
            // A stall darkens both directions of each seam it covers.
            let darken = |links: &mut [Link], cycles| {
                for l in links {
                    l.dark_until = l.dark_until.max(cycle + cycles);
                }
            };
            match ev.kind {
                FaultKind::HostLinkDrop { seam, dir } => {
                    self.links[2 * seam + dir as usize].pending_drop += 1;
                }
                FaultKind::HostLinkCorrupt { seam, dir, bit } => {
                    self.links[2 * seam + dir as usize].pending_corrupt.push_back(bit);
                }
                FaultKind::HostLinkStall { seam, cycles } => {
                    darken(&mut self.links[2 * seam..2 * seam + 2], cycles);
                }
                FaultKind::WaferStall { wafer, cycles } => {
                    // The seams on the wafer's west and east edges.
                    let seams = 2 * wafer.saturating_sub(1)..(2 * wafer + 2).min(self.links.len());
                    darken(&mut self.links[seams], cycles);
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
        let model = self.link;
        let now0 = self.cycle();
        self.apply_due_link_faults(now0);

        // Sender side, before the step: process due acks, then fire any
        // ack timeouts (go-back-N retransmission with bounded backoff).
        for ch in &mut self.channels {
            let link = &mut self.links[ch.link];
            if now0 < link.dark_until {
                continue; // the dark seam holds frames *and* acks
            }
            while let Some(&(due, cum)) = ch.acks.front() {
                if due > now0 {
                    break;
                }
                ch.acks.pop_front();
                link.stats.acks += 1;
                while ch.unacked.front().is_some_and(|f| f.seq < cum) {
                    ch.unacked.pop_front();
                    ch.attempts = 0;
                }
                if ch.unacked.is_empty() {
                    ch.deadline = u64::MAX;
                }
            }
            if link.down || now0 < ch.deadline {
                continue;
            }
            ch.attempts += 1;
            if ch.attempts > RETRY_BUDGET {
                link.down = true;
                let (seam, dir, attempts) = (ch.link / 2, ch.link % 2, ch.attempts - 1);
                self.transport.down_history.push(LinkDown { cycle: now0, seam, dir, attempts });
                ch.deadline = u64::MAX;
                continue;
            }
            let window = ch.unacked.len() as u64;
            link.stats.retransmits += window;
            self.seam_progress += window;
            let mut last_due = now0;
            for &frame in &ch.unacked {
                // Retransmissions cross the same flaky wire.
                let due = link.send(model, now0, frame, &mut ch.wire, &mut self.transport.log);
                last_due = last_due.max(due);
            }
            ch.deadline = last_due + model.latency_cycles + TransportState::slack(ch.attempts);
            self.shards[ch.edge.src_shard].phase_marker("link_retransmit");
        }

        // Seam credits for the coming cycle: the ideal link mirrors the
        // remote queue; otherwise the host drains egress every cycle, and a
        // small standing budget keeps the fabric streaming without modeling
        // an unbounded host buffer.
        for e in self.channels.iter().map(|ch| &ch.edge) {
            let credits = if model.is_ideal() {
                self.shards[e.dst_shard].edge_in_space(e.dx, e.dy, e.dport, e.color)
            } else {
                8
            };
            self.shards[e.src_shard].set_edge_credits(e.sx, e.sy, e.sport, e.color, credits);
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
        for ch in &mut self.channels {
            let (e, link) = (ch.edge, &mut self.links[ch.link]);
            for flit in self.shards[e.src_shard].drain_edge_out(e.sx, e.sy, e.sport, e.color) {
                let seq = ch.next_seq;
                ch.next_seq += 1;
                let frame = Frame { seq, flit, checksum: frame_checksum(seq, flit) };
                link.stats.frames += 1;
                let due = link.send(model, now, frame, &mut ch.wire, &mut self.transport.log);
                ch.unacked.push_back(frame);
                let deadline = due + model.latency_cycles + TransportState::slack(ch.attempts);
                ch.deadline =
                    if ch.deadline == u64::MAX { deadline } else { ch.deadline.max(deadline) };
            }
        }

        // Receiver side: validated payloads held for ingress space drain
        // first (FIFO with the wire), then due arrivals — checksum, then
        // sequence check; in-order frames deliver and ack cumulatively.
        for ch in &mut self.channels {
            let (e, link) = (ch.edge, &mut self.links[ch.link]);
            let dark = now < link.dark_until;
            loop {
                if let Some(&flit) = ch.rx_hold.front() {
                    if self.shards[e.dst_shard].inject_edge(e.dx, e.dy, e.dport, e.color, flit) {
                        ch.rx_hold.pop_front();
                        self.seam_progress += 1;
                        continue;
                    }
                    debug_assert!(!model.is_ideal(), "ideal-link credits guarantee ingress space");
                    break;
                }
                let Some(&(due, frame)) = ch.wire.front() else { break };
                if due > now || dark {
                    break;
                }
                ch.wire.pop_front();
                let stats = &mut link.stats;
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
                ch.acks.push_back((now + model.latency_cycles, ch.expected));
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
                    self.globalize(m, &mut report);
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
    pub fn seam_edges(&self) -> Vec<SeamEdge> {
        self.channels.iter().map(|ch| ch.edge).collect()
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
            let mut r = f.stall_report(window, deadline_exceeded);
            self.globalize(m, &mut r);
            merged.total_stalled += r.total_stalled;
            let room = StallReport::MAX_TILES - merged.stalled.len();
            merged.stalled.extend(r.stalled.into_iter().take(room));
        }
        Box::new(merged)
    }

    /// Moves wafer `m`'s stall report onto global tile columns.
    fn globalize(&self, m: usize, report: &mut StallReport) {
        for t in &mut report.stalled {
            t.x += self.offsets[m];
        }
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

    /// A 1×w fabric streaming `n` words on color 1 from (from,0) to
    /// (to,0), eastward or westward.
    fn stream_between(w: usize, from: usize, to: usize, n: u32) -> (Fabric, u32) {
        let (out, inp) =
            if to > from { (Port::East, Port::West) } else { (Port::West, Port::East) };
        let mut f = Fabric::new(w, 1);
        f.set_route(from, 0, Port::Ramp, 1, &[out]);
        for x in from.min(to) + 1..from.max(to) {
            f.set_route(x, 0, inp, 1, &[out]);
        }
        f.set_route(to, 0, inp, 1, &[Port::Ramp]);
        let exec =
            |a, b| Stmt::Exec(TensorInstr { op: Op::Copy, dst: Some(a), a: Some(b), b: None });
        let t = f.tile_mut(from, 0);
        let data: Vec<F16> = (1..=n).map(|i| F16::from_f64(i as f64)).collect();
        let addr = t.mem.alloc_vec(n, Dtype::F16).unwrap();
        t.mem.store_f16_slice(addr, &data);
        let (dsrc, dtx) = (t.core.add_dsr(mk::tensor16(addr, n)), t.core.add_dsr(mk::tx16(1, n)));
        let task = t.core.add_task(Task::new("send", vec![exec(dtx, dsrc)]));
        t.core.activate(task);
        let t = f.tile_mut(to, 0);
        let raddr = t.mem.alloc_vec(n, Dtype::F16).unwrap();
        let (drx, ddst) = (t.core.add_dsr(mk::rx16(1, n)), t.core.add_dsr(mk::tensor16(raddr, n)));
        let task = t.core.add_task(Task::new("recv", vec![exec(ddst, drx)]));
        t.core.activate(task);
        (f, raddr)
    }

    #[test]
    fn westward_drop_counts_on_its_own_link_direction() {
        let n = 16u32;
        let (template, raddr) = stream_between(4, 3, 0, n);
        let mut healthy = MultiFabric::split_x(&template, 2, HostLink::paper_default());
        // run_split reads column `w - 1`: the receiver here is column 0.
        let (_, base_bits) = run_split(&mut healthy, 1, n, raddr).unwrap();
        assert_eq!(healthy.link_stats(0, 1).frames, u64::from(n));

        let mut armed = MultiFabric::split_x(&template, 2, HostLink::paper_default());
        armed.arm_faults(&FaultPlan::new().with(2, FaultKind::HostLinkDrop { seam: 0, dir: 1 }));
        let (_, bits) = run_split(&mut armed, 1, n, raddr).unwrap();
        assert_eq!(bits, base_bits, "retransmission must mask the westward drop");
        assert_eq!(armed.link_stats(0, 1).fault_dropped, 1);
        assert_eq!(armed.link_stats(0, 0), LinkStats::default(), "eastward carried nothing");
    }

    #[test]
    fn faults_reach_only_the_seam_they_name() {
        // Six columns over three wafers ([0,2), [2,4), [4,6)): the stream
        // from column 3 to column 5 crosses seam 1 eastward and nothing else.
        let n = 16u32;
        let (template, raddr) = stream_between(6, 3, 5, n);
        let run = |plan: FaultPlan| {
            let mut multi = MultiFabric::split_x(&template, 3, HostLink::paper_default());
            multi.arm_faults(&plan);
            let (cycles, bits) = run_split(&mut multi, 6, n, raddr).unwrap();
            (cycles, bits, multi)
        };
        let (base_cycles, base_bits, _) = run(FaultPlan::new());
        let stall = |wafer| FaultPlan::new().with(5, FaultKind::WaferStall { wafer, cycles: 300 });
        let (cycles, bits, _) = run(stall(0));
        assert_eq!((cycles, &bits), (base_cycles, &base_bits), "wafer 0 touches only seam 0");
        let (cycles, bits, _) = run(stall(2));
        assert!(cycles > base_cycles, "wafer 2 darkens seam 1: {cycles} vs {base_cycles}");
        assert_eq!(bits, base_bits);

        let corrupt = FaultKind::HostLinkCorrupt { seam: 1, dir: 0, bit: 3 };
        let (_, bits, multi) = run(FaultPlan::new().with(2, corrupt));
        assert_eq!(bits, base_bits);
        let stats = multi.link_stats(1, 0);
        assert_eq!((stats.fault_corrupted, stats.checksum_discarded), (1, 1));
        for (seam, dir) in [(0, 0), (0, 1), (1, 1)] {
            assert_eq!(multi.link_stats(seam, dir), LinkStats::default(), "seam {seam} dir {dir}");
        }
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
