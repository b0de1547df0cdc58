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

use std::collections::VecDeque;
use wse_arch::fabric::STALL_WINDOW;
use wse_arch::fault::{FaultEvent, FaultLog};
use wse_arch::types::Flit;

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

/// Per-seam, per-direction transport counters.
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

/// Per-channel reliable-transport state (parallel to
/// `MultiFabric::channels`).
#[derive(Clone, Debug)]
pub(crate) struct ChannelState {
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

impl ChannelState {
    pub fn new() -> ChannelState {
        ChannelState {
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
        self.next_seq = 0;
        self.unacked.clear();
        self.deadline = u64::MAX;
        self.attempts = 0;
        self.expected = 0;
        self.wire.clear();
        self.acks.clear();
        self.rx_hold.clear();
    }
}

/// Whole-ensemble transport state; `MultiFabric::arm_faults` installs its
/// fault schedule.
#[derive(Clone, Debug)]
pub(crate) struct TransportState {
    /// Per-channel go-back-N state.
    pub channels: Vec<ChannelState>,
    /// Per-seam `[eastward, westward]` counters.
    pub stats: Vec<[LinkStats; 2]>,
    /// Per-seam `[eastward, westward]` dark-until cycle (stall faults).
    pub stall_until: Vec<[u64; 2]>,
    /// Per-seam `[eastward, westward]` link-down flags.
    pub down: Vec<[bool; 2]>,
    /// Every link-down declaration made so far (survives
    /// `reset_transient`, so recovery logs can report them).
    pub down_history: Vec<LinkDown>,
    /// Armed one-shot drops pending per seam-direction.
    pub pending_drop: Vec<[u64; 2]>,
    /// Armed one-shot corruptions (payload bit) pending per
    /// seam-direction, consumed FIFO.
    pub pending_corrupt: Vec<[VecDeque<u8>; 2]>,
    /// Monotone count of recovery actions taken (frames retransmitted).
    /// Feeds the ensemble progress measure so the stall watchdog holds
    /// off while the transport is still actively retrying — and fires
    /// once it has given up.
    pub activity: u64,
    /// The scheduled fault events, sorted by cycle.
    pub events: Vec<FaultEvent>,
    /// Index of the next unapplied event.
    pub next_event: usize,
    /// Audit trail (same shape as the on-wafer fault log).
    pub log: FaultLog,
}

impl TransportState {
    /// No channels yet (they are added as seams are paired) and no faults.
    pub fn new(n_seams: usize) -> TransportState {
        TransportState {
            channels: Vec::new(),
            stats: vec![[LinkStats::default(); 2]; n_seams],
            stall_until: vec![[0; 2]; n_seams],
            down: vec![[false; 2]; n_seams],
            down_history: Vec::new(),
            pending_drop: vec![[0; 2]; n_seams],
            pending_corrupt: vec![[VecDeque::new(), VecDeque::new()]; n_seams],
            activity: 0,
            events: Vec::new(),
            next_event: 0,
            log: FaultLog::default(),
        }
    }

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
