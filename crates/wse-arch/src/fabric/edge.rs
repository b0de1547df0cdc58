//! Edge I/O: declared boundary channels through which flits leave the
//! wafer into host-visible queues and the host injects flits back in.

use super::Fabric;
use crate::types::{Color, Flit, Port, NUM_COLORS};

/// A declared boundary I/O channel (see [`Fabric::open_edge`]): flits
/// routed out of `port` at tile `(x, y)` on `color` leave the wafer into
/// the host-visible `queue`, gated by host-granted `credits`; the host
/// injects inbound flits through the same channel with
/// [`Fabric::inject_edge`]. Undeclared boundary fanouts keep the
/// historical hold-forever semantics.
#[derive(Clone, Debug)]
pub(super) struct EdgePort {
    pub(super) x: usize,
    pub(super) y: usize,
    pub(super) port: Port,
    pub(super) color: Color,
    /// Host-granted egress admission budget: staged off-wafer flits are
    /// admitted while `queue.len() < credits` (snapshotted at the start
    /// of phase 3, like every other admission check). Zero — the default
    /// — holds flits exactly like an undeclared edge.
    pub(super) credits: usize,
    /// Egress flits awaiting host pickup, in staged order.
    pub(super) queue: Vec<Flit>,
}

impl Fabric {
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
        self.wake(i);
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
}
