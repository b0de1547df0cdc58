//! The per-tile router.
//!
//! "The core connects to a local router that has five bidirectional links,
//! one to each of its four nearest neighbors and one to its own core. The
//! router can move data into and out of these five links, in parallel, on
//! every cycle. ... Communication between potentially distant processors
//! occurs along predetermined routes. Routing is configured offline ... The
//! fanout of data to multiple destinations is done through the routing; the
//! router can forward an input word to any subset of its five output ports."
//!
//! Each (input-port, color) pair has a small hardware queue; each output
//! port moves [`PORT_BYTES_PER_CYCLE`] per cycle; a flit forwards only when
//! *all* of its fanout destinations can accept it (credit-based
//! backpressure, which is how the hardware avoids loss).
//!
//! Of the 120 pairs a router models, a tile's program routes a handful, so
//! a pair's queue and fanout are stored only once the pair is routed or a
//! flit reaches it; every other pair reads as an empty queue with no route.

use crate::types::{Color, Flit, Port, Ring, NUM_COLORS, PORT_BYTES_PER_CYCLE, QUEUE_CAPACITY};

/// Routing table entry: the output ports of one (input, color), inline and
/// in configured order (`len == 0` = no route). The order is kept, rather
/// than a bare port mask, because it is the order copies are staged in and
/// one-shot link faults pick their victim by staged position.
#[derive(Copy, Clone, Debug)]
struct Fanout {
    ports: [Port; 5],
    len: u8,
}

impl Default for Fanout {
    fn default() -> Fanout {
        Fanout { ports: [Port::North; 5], len: 0 }
    }
}

impl Fanout {
    #[inline]
    fn as_slice(&self) -> &[Port] {
        &self.ports[..self.len as usize]
    }
}

/// One backed (in_port, color) pair: its input queue and its fanout.
#[derive(Copy, Clone, Debug, Default)]
struct Lane {
    queue: Ring,
    fanout: Fanout,
}

/// Number of (in_port, color) arbitration pairs.
const PAIRS: usize = 5 * NUM_COLORS;

/// The router of one tile.
#[derive(Clone, Debug, Default)]
pub struct Router {
    /// `slot[in_port][color]`: one plus the index into `lanes` of that
    /// pair, or 0 while the pair is unbacked — never routed and never
    /// reached by a flit, so its queue is empty and it has no route.
    slot: [[u8; NUM_COLORS]; 5],
    /// The backed pairs, in the order they were first routed or reached.
    lanes: Vec<Lane>,
    /// `credit[out_port][color]` for the four cardinal outputs: flits the
    /// queue that port feeds can still take. The fabric keeps it equal to
    /// the downstream queue's free space at the start of the cycle (zero
    /// where nothing is downstream); [`Router::stage_into`] spends it as it
    /// stages, and what downstream forwards comes back in the delivery
    /// phase. The ramp output needs no entry — its queue is the tile's own
    /// core, read directly.
    credit: [[u8; NUM_COLORS]; 4],
    /// Round-robin arbitration cursor over (in_port, color) pairs.
    rr: usize,
    /// Bitmask of permanently stuck *output* ports (fault injection); a
    /// flit whose fanout touches a stuck port never forwards. Zero on a
    /// healthy router, so the check is a single AND on the hot path.
    stuck: u8,
    /// Bit `in_port * NUM_COLORS + color` set when that pair has a
    /// configured route. Lets staging visit only pairs that can possibly
    /// forward instead of all 120.
    routed_mask: u128,
    /// Bit `in_port * NUM_COLORS + color` set when that input queue is
    /// non-empty. Maintained by enqueue/stage/clear.
    occupied_mask: u128,
    /// Total queued flits across all pairs (O(1) [`Router::queued`]).
    queued_count: usize,
    /// Flits forwarded (perf counter).
    pub flits_routed: u64,
    /// Per-output-port backpressure counter: cycles a head flit with a
    /// configured route was held because that downstream port's queue was
    /// full, indexed by [`Port::index`]. Bandwidth exhaustion and stuck
    /// ports are *not* counted — only downstream occupancy.
    pub backpressure: [u64; 5],
}

/// A flit staged for delivery at the end of the cycle.
#[derive(Copy, Clone, Debug)]
pub struct StagedFlit {
    /// Output port it leaves through.
    pub out: Port,
    /// Its color.
    pub color: Color,
    /// The payload.
    pub flit: Flit,
    /// Set on the first staged copy of a flit forwarded out of a cardinal
    /// input queue: the delivery phase returns one credit for that queue
    /// to the router upstream of it. (Only [`Router::stage_into`] sets it.)
    pub freed: Option<Port>,
}

impl Router {
    /// A router with no routes configured.
    pub fn new() -> Router {
        Router::default()
    }

    /// The lane of `(pi, color)`, if the pair is backed.
    #[inline]
    fn lane(&self, pi: usize, color: usize) -> Option<&Lane> {
        match self.slot[pi][color] {
            0 => None,
            s => Some(&self.lanes[s as usize - 1]),
        }
    }

    /// Index into `lanes` of `(pi, color)`, backing the pair first if it is
    /// not yet.
    #[inline]
    fn lane_index(&mut self, pi: usize, color: usize) -> usize {
        if self.slot[pi][color] == 0 {
            self.back(pi, color);
        }
        self.slot[pi][color] as usize - 1
    }

    /// Backs `(pi, color)` with an empty, unrouted lane.
    #[cold]
    fn back(&mut self, pi: usize, color: usize) {
        self.lanes.reserve_exact(1);
        self.lanes.push(Lane::default());
        self.slot[pi][color] = self.lanes.len() as u8;
    }

    /// Configures (replaces) the fanout for `(in_port, color)`.
    ///
    /// A cardinal port may not reflect back out the same link; the ramp
    /// *may* route back to the ramp — that is the paper's loopback ("we loop
    /// back the outgoing local data and route it in").
    ///
    /// # Panics
    /// Panics if the fanout is empty, names a port twice, or u-turns a
    /// cardinal port.
    pub fn set_route(&mut self, in_port: Port, color: Color, outs: &[Port]) {
        assert!(!outs.is_empty(), "empty fanout");
        assert!(
            in_port == Port::Ramp || !outs.contains(&in_port),
            "route reflects {in_port:?} back to itself on color {color}"
        );
        let mut fanout = Fanout::default();
        for (k, &o) in outs.iter().enumerate() {
            assert!(!outs[..k].contains(&o), "fanout names {o:?} twice on color {color}");
            fanout.ports[k] = o;
        }
        fanout.len = outs.len() as u8;
        let li = self.lane_index(in_port.index(), color as usize);
        self.lanes[li].fanout = fanout;
        self.routed_mask |= 1u128 << (in_port.index() * NUM_COLORS + color as usize);
    }

    /// The configured fanout, if any.
    pub fn route(&self, in_port: Port, color: Color) -> Option<&[Port]> {
        let fanout = &self.lane(in_port.index(), color as usize)?.fanout;
        (fanout.len > 0).then(|| fanout.as_slice())
    }

    /// Iterates every configured route as `(in_port, color, fanout)` —
    /// the read-only view the static verifier walks.
    pub fn routes(&self) -> impl Iterator<Item = (Port, Color, &[Port])> {
        Port::ALL.into_iter().flat_map(move |p| {
            (0..NUM_COLORS)
                .filter_map(move |c| self.route(p, c as Color).map(|f| (p, c as Color, f)))
        })
    }

    /// Space available in the `(in_port, color)` queue.
    pub fn space(&self, in_port: Port, color: Color) -> usize {
        self.lane(in_port.index(), color as usize).map_or(QUEUE_CAPACITY, |l| l.queue.space())
    }

    /// Enqueues an arriving flit. A flit on a pair with no route is held
    /// (and counted) like any other; its queue is backed on first arrival.
    ///
    /// # Panics
    /// Panics on overflow (senders must honor [`Router::space`]).
    pub fn enqueue(&mut self, in_port: Port, color: Color, flit: Flit) {
        let li = self.lane_index(in_port.index(), color as usize);
        let queue = &mut self.lanes[li].queue;
        assert!(queue.space() > 0, "router queue overflow at {in_port:?}/{color}");
        queue.push_back(flit);
        self.occupied_mask |= 1u128 << (in_port.index() * NUM_COLORS + color as usize);
        self.queued_count += 1;
    }

    /// Total queued flits (diagnostics / quiescence). O(1).
    pub fn queued(&self) -> usize {
        self.queued_count
    }

    /// Permanently disables output port `out` (fault injection: a stuck
    /// port). Flits routed through it are held forever by backpressure.
    pub fn stick_port(&mut self, out: Port) {
        self.stuck |= 1 << out.index();
    }

    /// `true` if `out` has been stuck by [`Router::stick_port`].
    pub fn port_stuck(&self, out: Port) -> bool {
        self.stuck & (1 << out.index()) != 0
    }

    /// Discards every queued flit and rewinds the arbitration cursor
    /// (checkpoint restore). Routes, stuck-port state, and the forwarded
    /// and backpressure counters are retained.
    pub fn clear_queues(&mut self) {
        for lane in &mut self.lanes {
            lane.queue.clear();
        }
        self.occupied_mask = 0;
        self.queued_count = 0;
        self.rr = 0;
    }

    /// Free space of every color's queue on `in_port` — the credit row the
    /// router feeding that port should hold.
    pub(crate) fn space_row(&self, in_port: Port) -> [u8; NUM_COLORS] {
        let mut row = [QUEUE_CAPACITY as u8; NUM_COLORS];
        let shift = in_port.index() * NUM_COLORS;
        let mut occupied = (self.occupied_mask >> shift) as u32 & ((1 << NUM_COLORS) - 1);
        while occupied != 0 {
            let c = occupied.trailing_zeros() as usize;
            occupied &= occupied - 1;
            row[c] = self.lanes[self.slot[in_port.index()][c] as usize - 1].queue.space() as u8;
        }
        row
    }

    /// Replaces the credits of cardinal output `out` (all colors).
    pub(crate) fn set_credit_row(&mut self, out: Port, row: [u8; NUM_COLORS]) {
        self.credit[out.index()] = row;
    }

    /// Sets the credit of one `(out, color)` (edge channels: the host's
    /// admission budget, re-granted every cycle).
    pub(crate) fn set_credit(&mut self, out: Port, color: Color, credit: u8) {
        self.credit[out.index()][color as usize] = credit;
    }

    /// Returns one credit for `(out, color)`: the queue downstream of
    /// cardinal port `out` forwarded (or the wire lost) a flit.
    pub(crate) fn return_credit(&mut self, out: Port, color: Color) {
        self.credit[out.index()][color as usize] += 1;
    }

    /// Selects flits to forward this cycle — the reference form, kept as
    /// the oracle [`Router::stage_into`] is tested against.
    ///
    /// `can_accept(out, color, already_staged_to_that_destination)` tells the
    /// router whether the *next hop* (neighbor queue or core ramp) can take
    /// one more flit; the reference stepper provides it from a
    /// start-of-cycle snapshot. Credits are neither read nor spent.
    pub fn stage(
        &mut self,
        mut can_accept: impl FnMut(Port, Color, usize) -> bool,
    ) -> Vec<StagedFlit> {
        let mut staged = Vec::new();
        let mut budget = [PORT_BYTES_PER_CYCLE; 5];
        // counts[(out, color)] of flits already staged this cycle.
        let mut counts = [[0usize; NUM_COLORS]; 5];
        let mut forwarded = false;
        // Backpressure is counted on the first arbitration sweep only, so a
        // held flit charges each full downstream port exactly once per cycle
        // even though the sweep loop may revisit it.
        let mut first_sweep = true;
        loop {
            let mut moved = false;
            let live = self.routed_mask & self.occupied_mask;
            // Two segments walk the live bits in (rr + k) % PAIRS order:
            // slots rr..PAIRS ascending, then 0..rr ascending. Pairs outside
            // the live set are no-ops in a full 120-pair scan (no flit, or
            // no route ⇒ no state change, no backpressure charge).
            let segments = [live & (!0u128 << self.rr), live & ((1u128 << self.rr) - 1)];
            for mut seg in segments {
                while seg != 0 {
                    let slot = seg.trailing_zeros() as usize;
                    seg &= seg - 1;
                    let (pi, color) = (slot / NUM_COLORS, slot % NUM_COLORS);
                    let li = self.slot[pi][color] as usize - 1;
                    let Lane { queue, fanout } = &self.lanes[li];
                    let (Some(flit), fanout) = (queue.front(), *fanout) else { continue };
                    let mut fits = true;
                    for &o in fanout.as_slice() {
                        if self.stuck & (1 << o.index()) != 0 || budget[o.index()] < flit.bytes() {
                            fits = false;
                            continue;
                        }
                        if !can_accept(o, color as Color, counts[o.index()][color]) {
                            fits = false;
                            if first_sweep {
                                self.backpressure[o.index()] += 1;
                            }
                        }
                    }
                    if !fits {
                        continue;
                    }
                    self.pop(li, slot);
                    for &o in fanout.as_slice() {
                        budget[o.index()] -= flit.bytes();
                        counts[o.index()][color] += 1;
                        staged.push(StagedFlit {
                            out: o,
                            color: color as Color,
                            flit,
                            freed: None,
                        });
                    }
                    forwarded = true;
                    moved = true;
                }
            }
            first_sweep = false;
            if !moved {
                break;
            }
        }
        if forwarded {
            self.rr = (self.rr + 1) % PAIRS;
        }
        staged
    }

    /// Pops the head of lane `li`, the queue of pair bit `pair`, as
    /// forwarded.
    #[inline]
    fn pop(&mut self, li: usize, pair: usize) {
        let q = &mut self.lanes[li].queue;
        q.pop_front();
        if q.is_empty() {
            self.occupied_mask &= !(1u128 << pair);
        }
        self.queued_count -= 1;
        self.flits_routed += 1;
    }

    /// [`Router::stage`] for the activity-driven stepper: admission is
    /// decided from state the router already holds — its cardinal credits
    /// and `ramp_in`, the tile's own core-side queues — so staging touches
    /// no other tile and allocates nothing. Appends staged flits to a
    /// caller-owned buffer and returns the number of flits *forwarded* (one
    /// per queue pop, regardless of fanout width).
    ///
    /// Arbitration, bandwidth, all-or-nothing fanout and backpressure
    /// accounting are those of [`Router::stage`]; "`already` staged there
    /// is below the snapshot space" reads `credit > 0` because every staged
    /// copy spends its credit on the spot.
    ///
    /// Room only shrinks while a cycle stages: budgets and credits are spent
    /// and `ramp_in` space is fixed. A pair that did not forward in one sweep
    /// keeps its head flit and cannot forward in a later one, so each sweep
    /// after the first visits only the pairs that forwarded in the sweep
    /// before it. (Backpressure is charged on the first sweep only, so the
    /// skipped visits would have changed nothing.)
    pub(crate) fn stage_into(
        &mut self,
        ramp_in: &[Ring; NUM_COLORS],
        staged: &mut Vec<StagedFlit>,
    ) -> usize {
        const RAMP: usize = 4;
        let mut budget = [PORT_BYTES_PER_CYCLE; 5];
        // Flits staged toward the core this cycle, per color.
        let mut to_core = [0u8; NUM_COLORS];
        let mut forwarded = 0usize;
        let mut first_sweep = true;
        let mut candidates = self.routed_mask;
        loop {
            let mut moved = 0u128;
            let live = candidates & self.occupied_mask;
            let segments = [live & (!0u128 << self.rr), live & ((1u128 << self.rr) - 1)];
            for mut seg in segments {
                while seg != 0 {
                    let slot = seg.trailing_zeros() as usize;
                    seg &= seg - 1;
                    let (pi, color) = (slot / NUM_COLORS, slot % NUM_COLORS);
                    let li = self.slot[pi][color] as usize - 1;
                    let Lane { queue, fanout } = &self.lanes[li];
                    let (flit, fanout) = (queue.front().expect("occupied pair"), *fanout);
                    let mut fits = true;
                    for &o in fanout.as_slice() {
                        let oi = o.index();
                        if self.stuck & (1 << oi) != 0 || budget[oi] < flit.bytes() {
                            fits = false;
                            continue;
                        }
                        let room = if oi == RAMP {
                            (to_core[color] as usize) < ramp_in[color].space()
                        } else {
                            self.credit[oi][color] > 0
                        };
                        if !room {
                            fits = false;
                            if first_sweep {
                                self.backpressure[oi] += 1;
                            }
                        }
                    }
                    if !fits {
                        continue;
                    }
                    self.pop(li, slot);
                    let mut freed = (pi != RAMP).then_some(Port::ALL[pi]);
                    for &o in fanout.as_slice() {
                        let oi = o.index();
                        budget[oi] -= flit.bytes();
                        if oi == RAMP {
                            to_core[color] += 1;
                        } else {
                            self.credit[oi][color] -= 1;
                        }
                        staged.push(StagedFlit {
                            out: o,
                            color: color as Color,
                            flit,
                            freed: freed.take(),
                        });
                    }
                    forwarded += 1;
                    moved |= 1u128 << slot;
                }
            }
            first_sweep = false;
            if moved == 0 {
                break;
            }
            candidates = moved;
        }
        if forwarded > 0 {
            self.rr = (self.rr + 1) % PAIRS;
        }
        forwarded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forwards_along_configured_route() {
        let mut r = Router::new();
        r.set_route(Port::West, 3, &[Port::East]);
        r.enqueue(Port::West, 3, Flit::f16(0x1234));
        let staged = r.stage(|_, _, _| true);
        assert_eq!(staged.len(), 1);
        assert_eq!(staged[0].out, Port::East);
        assert_eq!(staged[0].color, 3);
        assert_eq!(staged[0].flit.bits, 0x1234);
        assert_eq!(r.queued(), 0);
    }

    #[test]
    fn fanout_duplicates_to_all_ports() {
        let mut r = Router::new();
        r.set_route(Port::Ramp, 1, &[Port::North, Port::South, Port::East, Port::West]);
        r.enqueue(Port::Ramp, 1, Flit::f16(7));
        let staged = r.stage(|_, _, _| true);
        assert_eq!(staged.len(), 4, "one flit fans out to four ports");
        assert_eq!(r.flits_routed, 1);
    }

    #[test]
    fn port_bandwidth_limits_f16_to_two_per_cycle() {
        let mut r = Router::new();
        r.set_route(Port::West, 0, &[Port::East]);
        for i in 0..5 {
            r.enqueue(Port::West, 0, Flit::f16(i));
        }
        let staged = r.stage(|_, _, _| true);
        assert_eq!(staged.len(), 2, "4 bytes/cycle = two fp16 flits");
        assert_eq!(r.queued(), 3);
        let staged = r.stage(|_, _, _| true);
        assert_eq!(staged.len(), 2);
    }

    #[test]
    fn f32_moves_one_per_cycle() {
        let mut r = Router::new();
        r.set_route(Port::North, 2, &[Port::South]);
        r.enqueue(Port::North, 2, Flit::f32(1.0));
        r.enqueue(Port::North, 2, Flit::f32(2.0));
        assert_eq!(r.stage(|_, _, _| true).len(), 1);
    }

    #[test]
    fn backpressure_holds_flit() {
        let mut r = Router::new();
        r.set_route(Port::West, 0, &[Port::East]);
        r.enqueue(Port::West, 0, Flit::f16(1));
        let staged = r.stage(|_, _, _| false);
        assert!(staged.is_empty());
        assert_eq!(r.queued(), 1, "flit must stay queued under backpressure");
    }

    #[test]
    fn fanout_is_all_or_nothing() {
        let mut r = Router::new();
        r.set_route(Port::Ramp, 0, &[Port::North, Port::South]);
        r.enqueue(Port::Ramp, 0, Flit::f16(1));
        // South blocked: nothing moves, not even the North copy.
        let staged = r.stage(|o, _, _| o != Port::South);
        assert!(staged.is_empty());
        assert_eq!(r.queued(), 1);
    }

    #[test]
    fn distinct_colors_share_port_bandwidth() {
        let mut r = Router::new();
        r.set_route(Port::West, 0, &[Port::East]);
        r.set_route(Port::West, 1, &[Port::East]);
        r.enqueue(Port::West, 0, Flit::f16(1));
        r.enqueue(Port::West, 1, Flit::f16(2));
        r.enqueue(Port::West, 0, Flit::f16(3));
        let staged = r.stage(|_, _, _| true);
        assert_eq!(staged.len(), 2, "East port carries 4 bytes total");
    }

    #[test]
    #[should_panic(expected = "back to itself")]
    fn self_route_panics() {
        let mut r = Router::new();
        r.set_route(Port::East, 0, &[Port::East]);
    }

    #[test]
    fn unrouted_flits_stay_queued() {
        // The arrival backs its pair's queue, gives it no route, and is
        // held: never forwarded, never lost.
        let mut r = Router::new();
        r.set_route(Port::West, 0, &[Port::East]);
        r.enqueue(Port::North, 9, Flit::f16(1));
        r.enqueue(Port::North, 9, Flit::f16(2));
        assert_eq!(r.lanes.len(), 2);
        assert_eq!((r.route(Port::North, 9), r.routes().count()), (None, 1));
        assert_eq!(r.space(Port::North, 9), QUEUE_CAPACITY - 2);
        assert_eq!(r.space_row(Port::North)[9], (QUEUE_CAPACITY - 2) as u8);
        for _ in 0..3 {
            assert!(r.stage(|_, _, _| true).is_empty());
            assert_eq!(r.stage_into(&[Ring::default(); NUM_COLORS], &mut Vec::new()), 0);
        }
        assert_eq!((r.queued(), r.flits_routed), (2, 0));
        // Routing the pair later reuses its queue and releases the flits.
        r.set_route(Port::North, 9, &[Port::South]);
        assert_eq!(r.lanes.len(), 2);
        let staged = r.stage(|_, _, _| true);
        assert_eq!(staged.iter().map(|s| s.flit.bits).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(r.queued(), 0);
    }

    #[test]
    fn routes_iterator_lists_configured_entries() {
        // Port-major (`Port::ALL`), colors ascending, whatever order routes
        // were set or flits arrived in: `program_digest` and the linter's
        // class keys hash routes in this order.
        let mut r = Router::new();
        assert_eq!(r.routes().count(), 0);
        r.enqueue(Port::East, 2, Flit::f16(1));
        r.set_route(Port::Ramp, 1, &[Port::North, Port::Ramp]);
        r.set_route(Port::West, 3, &[Port::East]);
        r.set_route(Port::North, 7, &[Port::South]);
        r.set_route(Port::West, 0, &[Port::North]);
        let all: Vec<_> = r.routes().map(|(p, c, f)| (p, c, f.to_vec())).collect();
        assert_eq!(
            all,
            vec![
                (Port::North, 7, vec![Port::South]),
                (Port::West, 0, vec![Port::North]),
                (Port::West, 3, vec![Port::East]),
                (Port::Ramp, 1, vec![Port::North, Port::Ramp]),
            ]
        );
    }

    #[test]
    fn unbacked_pairs_read_as_empty_queues() {
        let mut r = Router::new();
        r.set_route(Port::West, 3, &[Port::East]);
        for p in Port::ALL {
            for c in 0..NUM_COLORS as Color {
                assert_eq!(r.space(p, c), QUEUE_CAPACITY, "{p:?}/{c}");
            }
        }
        assert_eq!(r.space_row(Port::West), [QUEUE_CAPACITY as u8; NUM_COLORS]);
        assert_eq!(r.lanes.len(), 1, "only the routed pair is backed");
    }

    #[test]
    fn a_cloned_router_is_independent() {
        let mut r = Router::new();
        r.set_route(Port::West, 0, &[Port::East]);
        r.enqueue(Port::West, 0, Flit::f16(1));
        let mut c = r.clone();
        c.enqueue(Port::West, 0, Flit::f16(2));
        c.enqueue(Port::South, 4, Flit::f16(3));
        c.set_route(Port::West, 0, &[Port::North]);
        c.clear_queues();
        assert_eq!((r.queued(), r.space(Port::West, 0)), (1, QUEUE_CAPACITY - 1));
        assert_eq!(r.space(Port::South, 4), QUEUE_CAPACITY);
        assert_eq!(r.route(Port::West, 0), Some(&[Port::East][..]));
        let staged = r.stage(|_, _, _| true);
        assert_eq!((staged.len(), staged[0].out, staged[0].flit.bits), (1, Port::East, 1));
        assert_eq!((c.queued(), c.route(Port::West, 0)), (0, Some(&[Port::North][..])));
    }

    #[test]
    fn full_queue_at_one_fanout_destination_stalls_every_branch() {
        // Model the neighbor-side queues explicitly: South's downstream
        // queue is full (QUEUE_CAPACITY flits, draining nothing), North's is
        // empty. The all-or-nothing fanout must hold the flit back from BOTH
        // branches until South drains — the credit discipline the deadlock
        // linter rule reasons about.
        let mut r = Router::new();
        r.set_route(Port::Ramp, 2, &[Port::North, Port::South]);
        for i in 0..4 {
            r.enqueue(Port::Ramp, 2, Flit::f16(i));
        }
        let mut south_used = QUEUE_CAPACITY;
        let mut north_used = 0usize;
        for _ in 0..10 {
            let staged = r.stage(|o, _, staged_here| {
                let used = if o == Port::South { south_used } else { north_used };
                used + staged_here < QUEUE_CAPACITY
            });
            assert!(staged.is_empty(), "no branch may advance while South is full");
        }
        assert_eq!(r.queued(), 4, "all four flits still held");
        // One credit opens up at South: exactly one flit crosses, to both.
        south_used = QUEUE_CAPACITY - 1;
        let staged = r.stage(|o, _, staged_here| {
            let used = if o == Port::South { south_used } else { north_used };
            used + staged_here < QUEUE_CAPACITY
        });
        assert_eq!(staged.len(), 2, "one flit, fanned out to both ports");
        north_used += 1;
        assert_eq!(north_used, 1);
        assert_eq!(r.queued(), 3);
    }

    #[test]
    fn stuck_port_holds_flits_forever() {
        let mut r = Router::new();
        r.set_route(Port::West, 0, &[Port::East]);
        r.set_route(Port::North, 1, &[Port::South]);
        r.stick_port(Port::East);
        assert!(r.port_stuck(Port::East));
        assert!(!r.port_stuck(Port::South));
        r.enqueue(Port::West, 0, Flit::f16(1));
        r.enqueue(Port::North, 1, Flit::f16(2));
        let staged = r.stage(|_, _, _| true);
        // Only the South-bound flit moves; the East-bound one is wedged.
        assert_eq!(staged.len(), 1);
        assert_eq!(staged[0].out, Port::South);
        assert_eq!(r.queued(), 1);
        for _ in 0..5 {
            assert!(r.stage(|_, _, _| true).is_empty());
        }
    }

    #[test]
    fn backpressure_counter_charges_full_downstream_once_per_cycle() {
        let mut r = Router::new();
        r.set_route(Port::Ramp, 0, &[Port::North, Port::South]);
        r.enqueue(Port::Ramp, 0, Flit::f16(1));
        // South full, North open: one charge to South per stage() cycle,
        // none to North (it could accept; the hold is all-or-nothing).
        for cycle in 1..=3u64 {
            assert!(r.stage(|o, _, _| o != Port::South).is_empty());
            assert_eq!(r.backpressure[Port::South.index()], cycle);
            assert_eq!(r.backpressure[Port::North.index()], 0);
        }
        // Unblocked: the flit moves, counters stop advancing.
        assert_eq!(r.stage(|_, _, _| true).len(), 2);
        assert_eq!(r.backpressure[Port::South.index()], 3);
        // Bandwidth exhaustion is not backpressure: five queued f16 flits
        // behind a 2-flit/cycle port charge nothing.
        let mut r2 = Router::new();
        r2.set_route(Port::West, 0, &[Port::East]);
        for i in 0..5 {
            r2.enqueue(Port::West, 0, Flit::f16(i));
        }
        assert_eq!(r2.stage(|_, _, _| true).len(), 2);
        assert_eq!(r2.backpressure, [0; 5]);
    }

    #[test]
    fn clear_queues_discards_flits_but_keeps_routes() {
        let mut r = Router::new();
        r.set_route(Port::West, 0, &[Port::East]);
        r.enqueue(Port::West, 0, Flit::f16(1));
        r.enqueue(Port::West, 0, Flit::f16(2));
        r.clear_queues();
        assert_eq!(r.queued(), 0);
        assert!(r.route(Port::West, 0).is_some(), "routes survive a clear");
        r.enqueue(Port::West, 0, Flit::f16(3));
        assert_eq!(r.stage(|_, _, _| true).len(), 1, "router still forwards");
    }

    #[test]
    fn round_robin_shares_port_under_sustained_contention() {
        // Two input streams (distinct colors, distinct in-ports) both
        // forwarding to East. East carries 2 fp16/cycle; round-robin
        // arbitration must keep both streams progressing rather than
        // starving one.
        let mut r = Router::new();
        r.set_route(Port::West, 0, &[Port::East]);
        r.set_route(Port::North, 1, &[Port::East]);
        let mut from_west = 0usize;
        let mut from_north = 0usize;
        for _ in 0..32 {
            // Keep both queues topped up: sustained contention.
            while r.space(Port::West, 0) > 0 {
                r.enqueue(Port::West, 0, Flit::f16(0xAAAA));
            }
            while r.space(Port::North, 1) > 0 {
                r.enqueue(Port::North, 1, Flit::f16(0xBBBB));
            }
            for s in r.stage(|_, _, _| true) {
                assert_eq!(s.out, Port::East);
                match s.color {
                    0 => from_west += 1,
                    1 => from_north += 1,
                    c => panic!("unexpected color {c}"),
                }
            }
        }
        assert_eq!(from_west + from_north, 64, "East sustains 2 fp16/cycle");
        assert!(from_west >= 16, "West starved: {from_west}/64");
        assert!(from_north >= 16, "North starved: {from_north}/64");
    }

    /// `stage_into` (credits + the core's own queues) against `stage`
    /// (closure over an occupancy snapshot) for one seed: random fanouts plus
    /// two that share the East port, mixed-width traffic with multi-flit
    /// bursts into one pair, random downstream space, stuck ports, several
    /// cycles. Returns the number of cycles in which some cardinal pair
    /// forwarded twice, i.e. a second sweep moved a flit and a third sweep
    /// revisited it.
    fn check_credit_staging(seed: u64) -> Result<usize, proptest::test_runner::TestCaseError> {
        let mut rng = crate::fault::SplitMix64::new(seed);
        let mut oracle = Router::new();
        for _ in 0..2 + rng.below(10) {
            let in_port = Port::ALL[rng.below(5) as usize];
            let mut outs: Vec<Port> = Port::ALL
                .into_iter()
                .filter(|&o| (o != in_port || o == Port::Ramp) && rng.below(3) == 0)
                .collect();
            if outs.is_empty() {
                outs.push(if in_port == Port::East { Port::West } else { Port::East });
            }
            if rng.below(2) == 0 {
                outs.reverse();
            }
            oracle.set_route(in_port, rng.below(6) as Color, &outs);
        }
        // Two fanouts that share East, on colors of their own.
        oracle.set_route(Port::North, 6, &[Port::East, Port::Ramp]);
        oracle.set_route(Port::West, 7, &[Port::South, Port::East]);
        if rng.below(4) == 0 {
            oracle.stick_port(Port::ALL[rng.below(5) as usize]);
        }
        let mut router = oracle.clone();
        let mut resweep_cycles = 0;

        for _cycle in 0..5 {
            // Arrivals: the same flits into both routers. A burst fills one
            // pair with up to four flits of one width.
            let random_flit = |rng: &mut crate::fault::SplitMix64, wide: bool| {
                if wide {
                    Flit::f32(rng.below(100) as f32)
                } else {
                    Flit::f16(rng.below(1 << 16) as u16)
                }
            };
            for _ in 0..rng.below(20) {
                let (p, c) = (Port::ALL[rng.below(5) as usize], rng.below(8) as Color);
                let (wide, burst) = (rng.below(3) == 0, 1 + rng.below(4));
                for _ in 0..burst {
                    if oracle.space(p, c) > 0 {
                        let flit = random_flit(&mut rng, wide);
                        oracle.enqueue(p, c, flit);
                        router.enqueue(p, c, flit);
                    }
                }
            }
            // Downstream free space this cycle, by (out port, color).
            let mut space = [[0usize; NUM_COLORS]; 5];
            for row in &mut space {
                for s in row.iter_mut().take(8) {
                    *s = rng.below(QUEUE_CAPACITY as u64 + 1) as usize;
                }
            }
            let mut ramp_in = [Ring::default(); NUM_COLORS];
            for (c, ring) in ramp_in.iter_mut().enumerate() {
                for _ in space[4][c]..QUEUE_CAPACITY {
                    ring.push_back(Flit::f16(0));
                }
            }
            for p in &Port::ALL[..4] {
                router.set_credit_row(*p, space[p.index()].map(|s| s as u8));
            }

            let space_before =
                Port::ALL.map(|p| [0, 1, 2, 3, 4, 5, 6, 7].map(|c| router.space(p, c)));
            let routed_before = router.flits_routed;
            let want = oracle.stage(|o, c, already| already < space[o.index()][c as usize]);
            let mut got = Vec::new();
            let forwarded = router.stage_into(&ramp_in, &mut got);

            let key = |s: &StagedFlit| (s.out, s.color, s.flit);
            proptest::prop_assert_eq!(
                got.iter().map(key).collect::<Vec<_>>(),
                want.iter().map(key).collect::<Vec<_>>()
            );
            proptest::prop_assert_eq!(router.queued(), oracle.queued());
            proptest::prop_assert_eq!(router.rr, oracle.rr);
            proptest::prop_assert_eq!(router.flits_routed, oracle.flits_routed);
            proptest::prop_assert_eq!(router.backpressure, oracle.backpressure);
            proptest::prop_assert_eq!(router.occupied_mask, oracle.occupied_mask);
            // Every staged copy spent one credit; every forward out of a
            // cardinal queue is marked once, on its first copy.
            for p in &Port::ALL[..4] {
                for (c, &granted) in space[p.index()].iter().enumerate() {
                    let sent = got.iter().filter(|s| s.out == *p && s.color as usize == c).count();
                    proptest::prop_assert_eq!(router.credit[p.index()][c] as usize + sent, granted);
                }
            }
            let mut resweep = false;
            for p in Port::ALL {
                for c in 0..8u8 {
                    let marked = got.iter().filter(|s| s.freed == Some(p) && s.color == c).count();
                    let left = router.space(p, c) - space_before[p.index()][c as usize];
                    proptest::prop_assert_eq!(marked, if p == Port::Ramp { 0 } else { left });
                    resweep |= marked > 1;
                }
            }
            proptest::prop_assert_eq!(forwarded as u64, router.flits_routed - routed_before);
            resweep_cycles += resweep as usize;
        }
        Ok(resweep_cycles)
    }

    /// The staging corpus reaches the later sweeps: some pair forwards twice
    /// in one cycle.
    #[test]
    fn credit_staging_corpus_resweeps() {
        let resweeps: usize = (0..32).map(|seed| check_credit_staging(seed).unwrap()).sum();
        assert!(resweeps > 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn credit_staging_matches_snapshot_staging(seed in 0u64..u64::MAX) {
            check_credit_staging(seed)?;
        }
    }
}
