//! Reliable seam transport: framing, acks, retransmission, host-link faults.
//!
//! Production host links drop and damage traffic — PCIe hiccups drop
//! frames, marginal cables flip bits, driver resets make a wafer vanish for
//! milliseconds. [`MultiFabric`] therefore carries every seam channel over
//! a go-back-N reliable transport:
//!
//! * each flit is framed with a **sequence number** and a **checksum**
//!   computed before the wire, so drops surface as sequence gaps and
//!   corruption surfaces as checksum mismatches;
//! * the receiver acks cumulatively; the sender retransmits its unacked
//!   window on **ack timeout** with bounded exponential backoff;
//! * when the retry budget exhausts, the link is declared down — a
//!   structured [`LinkDown`] record, never silent data loss.
//!
//! On a healthy link framing costs no cycle: frame headers and acks are
//! control-plane metadata carried out-of-band by the host (only payload
//! bytes charge the data-plane bandwidth model), and the ack timeout is
//! derived from the frame's own delivery time plus link latency plus slack,
//! so a healthy link never times out spuriously.
//!
//! [`MultiFabric`]: crate::MultiFabric

use crate::HostLink;
use std::collections::VecDeque;
use wse_arch::fabric::STALL_WINDOW;
use wse_arch::fault::{FaultEvent, FaultLog};
use wse_arch::types::Flit;
use wse_lint::dataflow::SeamEdge;

/// Consecutive ack-timeout retransmissions of the same window before the
/// sender declares the link down.
pub const RETRY_BUDGET: u32 = 8;

/// Grace cycles added on top of the expected round-trip (frame delivery +
/// ack latency) before an ack timeout fires. Doubled per retry, capped at
/// [`MAX_BACKOFF_DOUBLINGS`].
pub const ACK_SLACK: u64 = 64;

/// Cap on exponential-backoff doublings of [`ACK_SLACK`]. Chosen so the
/// worst inter-retry gap (`ACK_SLACK << 4` plus link latency and
/// serialization) stays inside the [`STALL_WINDOW`]: the ensemble watchdog
/// must never preempt a transport that is still actively retrying.
pub const MAX_BACKOFF_DOUBLINGS: u32 = 4;

const _: () = assert!(
    (ACK_SLACK << MAX_BACKOFF_DOUBLINGS) + crate::HostLink::paper_default().latency_cycles
        < STALL_WINDOW,
    "the worst retry gap on the paper-default link must fit the stall window"
);

/// One framed flit: payload plus the control-plane header the reliable
/// transport adds (sequence number and pre-wire checksum).
#[derive(Copy, Clone, Debug)]
pub(crate) struct Frame {
    pub seq: u64,
    pub flit: Flit,
    pub checksum: u32,
}

/// FNV-1a over the sequence number, payload bits, and payload width —
/// computed before the wire so any in-flight bit damage is detected.
pub(crate) fn frame_checksum(seq: u64, flit: Flit) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    let mut eat = |b: u8| h = (h ^ u32::from(b)).wrapping_mul(0x0100_0193);
    for b in seq.to_le_bytes() {
        eat(b);
    }
    for b in flit.bits.to_le_bytes() {
        eat(b);
    }
    eat(flit.bytes() as u8);
    h
}

/// Per-seam, per-direction transport counters and wire occupancy.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Fresh frames handed to the wire (excludes retransmissions).
    pub frames: u64,
    /// Frames re-sent on ack timeout (go-back-N counts every frame in the
    /// retransmitted window).
    pub retransmits: u64,
    /// Frames consumed by an armed [`HostLinkDrop`] fault.
    ///
    /// [`HostLinkDrop`]: wse_arch::fault::FaultKind::HostLinkDrop
    pub fault_dropped: u64,
    /// Frames damaged by an armed [`HostLinkCorrupt`] fault.
    ///
    /// [`HostLinkCorrupt`]: wse_arch::fault::FaultKind::HostLinkCorrupt
    pub fault_corrupted: u64,
    /// Frames the receiver discarded on checksum mismatch.
    pub checksum_discarded: u64,
    /// Duplicate frames (sequence below expected) the receiver discarded.
    pub dup_discarded: u64,
    /// Out-of-order frames (sequence above expected — a gap) discarded.
    pub gap_discarded: u64,
    /// Cumulative acks processed by the sender.
    pub acks: u64,
    /// Cycles in which at least one frame was on the wire, each from its
    /// hand-off to its arrival (overlapping frames count once).
    pub wire_busy: u64,
    /// Arrival cycle of the latest frame handed to the wire: it is idle
    /// from then on.
    pub wire_until: u64,
}

/// A structured link-down declaration: the sender on one seam direction
/// exhausted its retry budget without ack progress.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LinkDown {
    /// Ensemble cycle of the declaration.
    pub cycle: u64,
    /// Seam index (between wafer `seam` and `seam + 1`).
    pub seam: usize,
    /// Direction: 0 = eastward, 1 = westward.
    pub dir: usize,
    /// Retransmission attempts made before giving up.
    pub attempts: u32,
}

impl LinkDown {
    /// One-line description for recovery logs.
    pub fn describe(&self) -> String {
        format!(
            "link down: seam {} {} declared dead at cycle {} after {} retransmit attempts",
            self.seam,
            if self.dir == 0 { "eastward" } else { "westward" },
            self.cycle,
            self.attempts
        )
    }
}

/// One seam channel: a declared edge egress paired with the matching edge
/// ingress on the neighboring wafer, the link direction it rides, and its
/// go-back-N state.
#[derive(Clone, Debug)]
pub(crate) struct Channel {
    /// The two paired edge ports and the color they carry.
    pub edge: SeamEdge,
    /// Index of the link direction it rides in `MultiFabric::links`
    /// (`2·seam + dir`, dir 0 = eastward).
    pub link: usize,
    /// Next fresh sequence number the sender assigns.
    pub next_seq: u64,
    /// Sent-but-unacked frames, in sequence order (the go-back-N window).
    pub unacked: VecDeque<Frame>,
    /// Ensemble cycle at which an ack timeout fires (`u64::MAX` when the
    /// window is empty).
    pub deadline: u64,
    /// Consecutive timeout retransmissions without ack progress.
    pub attempts: u32,
    /// Receiver: next expected sequence number.
    pub expected: u64,
    /// Frames in flight on the wire: `(arrival cycle, frame)` FIFO.
    pub wire: VecDeque<(u64, Frame)>,
    /// Cumulative acks in flight back to the sender: `(arrival cycle,
    /// next-expected-seq)` FIFO.
    pub acks: VecDeque<(u64, u64)>,
    /// Validated in-order payloads awaiting ingress-queue space.
    pub rx_hold: VecDeque<Flit>,
}

impl Channel {
    pub fn new(edge: SeamEdge, link: usize) -> Channel {
        Channel {
            edge,
            link,
            next_seq: 0,
            unacked: VecDeque::new(),
            deadline: u64::MAX,
            attempts: 0,
            expected: 0,
            wire: VecDeque::new(),
            acks: VecDeque::new(),
            rx_hold: VecDeque::new(),
        }
    }

    /// Drops transient traffic and restarts both ends at sequence zero
    /// (ensemble rollback: sender and receiver replay from the same
    /// checkpoint, so their sequence spaces must agree).
    pub fn reset(&mut self) {
        *self = Channel::new(self.edge, self.link);
    }
}

/// One direction of one seam — the serialization unit: each seam is one
/// full-duplex physical link, shared by every channel that crosses it in
/// that direction.
#[derive(Clone, Debug, Default)]
pub(crate) struct Link {
    /// Serialization cursor: the cycle (fractional) at which the link
    /// finishes the last byte accepted so far.
    pub ready: f64,
    /// Transport counters.
    pub stats: LinkStats,
    /// The link is dark (stall faults) before this cycle.
    pub dark_until: u64,
    /// Declared down after an exhausted retry budget.
    pub down: bool,
    /// Armed one-shot drops pending against the next frames.
    pub pending_drop: u64,
    /// Armed one-shot corruptions (payload bit) pending, consumed FIFO.
    pub pending_corrupt: VecDeque<u8>,
}

impl Link {
    /// Serializes `frame` onto this link at cycle `now` and hands it to
    /// `wire`, returning its arrival cycle — unless a pending one-shot
    /// fault drops or damages it first (a faulted frame occupies the link
    /// whether or not it survives it).
    pub fn send(
        &mut self,
        model: HostLink,
        now: u64,
        mut frame: Frame,
        wire: &mut VecDeque<(u64, Frame)>,
        log: &mut FaultLog,
    ) -> u64 {
        let due = model.arrival(&mut self.ready, now, frame.flit.bytes());
        let stats = &mut self.stats;
        stats.wire_busy += due.saturating_sub(now.max(stats.wire_until));
        stats.wire_until = stats.wire_until.max(due);
        if self.pending_drop > 0 {
            self.pending_drop -= 1;
            self.stats.fault_dropped += 1;
            log.dropped_flits += 1;
            return due;
        }
        if let Some(bit) = self.pending_corrupt.pop_front() {
            frame.flit.bits ^= 1 << bit;
            self.stats.fault_corrupted += 1;
            log.corrupted_flits += 1;
        }
        wire.push_back((due, frame));
        due
    }
}

/// Ensemble-wide transport state: the host-link fault schedule
/// `MultiFabric::arm_faults` installs, its audit trail, and the link-down
/// history.
#[derive(Clone, Debug, Default)]
pub(crate) struct TransportState {
    /// Every link-down declaration made so far (survives
    /// `reset_transient`, so recovery logs can report them).
    pub down_history: Vec<LinkDown>,
    /// The scheduled fault events, sorted by cycle.
    pub events: Vec<FaultEvent>,
    /// Index of the next unapplied event.
    pub next_event: usize,
    /// Audit trail (same shape as the on-wafer fault log).
    pub log: FaultLog,
}

impl TransportState {
    /// The backoff-scaled ack slack for the current attempt count.
    pub fn slack(attempts: u32) -> u64 {
        ACK_SLACK << attempts.min(MAX_BACKOFF_DOUBLINGS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_detects_any_single_bit_flip() {
        let flit = Flit::f16(0x3c00);
        let good = frame_checksum(7, flit);
        for bit in 0..16 {
            let mut damaged = flit;
            damaged.bits ^= 1 << bit;
            assert_ne!(good, frame_checksum(7, damaged), "bit {bit} slipped through");
        }
        assert_ne!(good, frame_checksum(8, flit), "sequence change slipped through");
    }

    #[test]
    fn backoff_is_bounded() {
        assert_eq!(TransportState::slack(0), ACK_SLACK);
        assert_eq!(TransportState::slack(3), ACK_SLACK * 8);
        assert_eq!(TransportState::slack(60), ACK_SLACK << MAX_BACKOFF_DOUBLINGS);
    }
}
