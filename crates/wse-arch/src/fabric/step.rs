//! The activity-driven stepper and its bookkeeping: which tiles are busy,
//! which the next cycle must touch, and which were handed out for mutation.

use super::observe::observers;
use super::{Fabric, Links, Tile, CARDINAL};
use crate::core::Observers;
use crate::router::StagedFlit;
use crate::types::{Port, NUM_COLORS, PORT_BYTES_PER_CYCLE};

/// A set of tile indices: a membership flag per tile plus the members in a
/// list, so an insert is an idempotent O(1) and a walk costs one step per
/// member, not per tile.
pub(super) struct TileSet {
    member: Vec<bool>,
    list: Vec<usize>,
}

impl TileSet {
    pub(super) fn new(n: usize) -> TileSet {
        TileSet { member: vec![false; n], list: Vec::new() }
    }

    /// Adds tile `i`; `true` if it was not a member yet.
    pub(super) fn insert(&mut self, i: usize) -> bool {
        let new = !self.member[i];
        if new {
            self.member[i] = true;
            self.list.push(i);
        }
        new
    }

    /// Removes and returns the last member in list order.
    fn pop(&mut self) -> Option<usize> {
        let i = self.list.pop()?;
        self.member[i] = false;
        Some(i)
    }

    /// Removes every member.
    fn clear(&mut self) {
        while self.pop().is_some() {}
    }

    /// Keeps the members `keep` accepts; a dropped member's list slot takes
    /// the last member, as in [`Vec::swap_remove`].
    fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let mut k = 0;
        while k < self.list.len() {
            let i = self.list[k];
            if keep(i) {
                k += 1;
            } else {
                self.member[i] = false;
                self.list.swap_remove(k);
            }
        }
    }

    /// The members, in list order.
    fn list(&self) -> &[usize] {
        &self.list
    }
}

/// The per-tile "observably busy" flags (a tile is busy when it is not
/// [`Tile::is_quiescent`]) and how many are set.
pub(super) struct Busy {
    flags: Vec<bool>,
    count: usize,
}

impl Busy {
    pub(super) fn new(n: usize) -> Busy {
        Busy { flags: vec![false; n], count: 0 }
    }

    /// Re-reads tile `i`'s flag from `t`, its live state; returns it.
    fn refresh(&mut self, i: usize, t: &Tile) -> bool {
        let now = !t.is_quiescent();
        if now != self.flags[i] {
            self.flags[i] = now;
            if now {
                self.count += 1;
            } else {
                self.count -= 1;
            }
        }
        now
    }
}

/// The "keep active" rule: a live tile stays in the active set while it is
/// busy or holds bound ramp-in data (the one way an idle core self-wakes).
fn stays_active(t: &Tile, busy: bool, dead: bool) -> bool {
    (busy || t.core.has_pending_bound_data()) && !dead
}

/// Reusable per-cycle scratch storage owned by the fabric. Every buffer is
/// sized once at construction and reused each cycle, so the steady-state
/// stepper performs no heap allocations (staged-flit vectors keep their
/// high-water capacity).
pub(super) struct StepScratch {
    /// Per-tile staged-flit buffers (cleared after delivery each cycle).
    staged: Vec<Vec<StagedFlit>>,
    /// Tiles with non-empty routers this cycle (the staging worklist).
    stagers: Vec<usize>,
    /// Delivery destinations this cycle (drained into the active set).
    dest: TileSet,
}

impl StepScratch {
    pub(super) fn new(n: usize) -> StepScratch {
        StepScratch { staged: vec![Vec::new(); n], stagers: Vec::new(), dest: TileSet::new(n) }
    }
}

/// Fused phases 1+2 for one tile: settle deferred idle, step the core
/// reporting to `obs`, then drain its injection queue into the router's
/// ramp input (bounded by port bandwidth and queue space). Returns this
/// tile's progress delta (busy cycles + retired control statements).
///
/// Phases 1 and 2 touch only the tile's own core/router, so fusing them
/// per-tile is order-equivalent to the reference's two full passes.
fn step_and_drain(t: &mut Tile, accounted: &mut u64, obs: Observers) -> u64 {
    let Tile { mem, core, router } = t;
    core.account_idle(obs.cycle - *accounted);
    *accounted = obs.cycle + 1;
    let before = core.perf.busy_cycles + core.perf.ctrl_stmts;
    core.step_with(mem, false, obs);
    // Drain one flit at a time, checking the target color's queue.
    let mut budget = PORT_BYTES_PER_CYCLE;
    while let Some((color, flit)) =
        core.pop_ramp_out_ready(budget, |c| router.space(Port::Ramp, c) > 0)
    {
        router.enqueue(Port::Ramp, color, flit);
        budget -= flit.bytes();
    }
    core.perf.busy_cycles + core.perf.ctrl_stmts - before
}

impl Fabric {
    /// Re-reads tile `i`'s busy flag from live state and adds it to the
    /// active set.
    pub(super) fn wake(&mut self, i: usize) {
        self.busy.refresh(i, &self.tiles[i]);
        self.active.insert(i);
    }

    /// The credit row tile `i` should hold for cardinal output `q`: the free
    /// space of the queues that port feeds, zero off the wafer (a declared
    /// edge channel's credit is granted afresh every cycle).
    fn credit_row(&self, i: usize, q: Port) -> [u8; NUM_COLORS] {
        match self.links.toward(i, q) {
            Some(ni) => self.tiles[ni].router.space_row(q.opposite().expect("cardinal")),
            None => [0; NUM_COLORS],
        }
    }

    /// Re-derives credits, busy flags, activity and a trace's counter base
    /// for every tile mutated through [`Fabric::tile_mut`] since the clock
    /// last moved. Nothing is derived from routes, so a tile the driver
    /// merely activates or reloads costs the eight credit rows of its four
    /// links (a constant fill each while the queue it mirrors is empty).
    pub(super) fn flush_dirty(&mut self) {
        while let Some(i) = self.dirty.pop() {
            if self.trace.is_some() {
                let now = self.tile_perf(i);
                self.trace.as_deref_mut().expect("trace is armed").base[i] = now;
            }
            for q in CARDINAL {
                let row = self.credit_row(i, q);
                self.tiles[i].router.set_credit_row(q, row);
                if let Some(ni) = self.links.toward(i, q) {
                    let back = q.opposite().expect("cardinal");
                    let row = self.credit_row(ni, back);
                    self.tiles[ni].router.set_credit_row(back, row);
                }
            }
            self.wake(i);
        }
    }

    /// Rebuilds the busy flags and active set from a full scan (reference
    /// stepping and transient resets — paths where incremental maintenance
    /// was bypassed).
    pub(super) fn rebuild_activity(&mut self) {
        // Everything `flush_dirty` derives per tile is re-derived for all.
        self.dirty.clear();
        // Those paths moved flits without keeping credits.
        for i in 0..self.tiles.len() {
            for q in CARDINAL {
                let row = self.credit_row(i, q);
                self.tiles[i].router.set_credit_row(q, row);
            }
        }
        let Fabric { tiles, dead, busy, active, .. } = self;
        active.clear();
        for (i, t) in tiles.iter().enumerate() {
            if stays_active(t, busy.refresh(i, t), dead[i]) {
                active.insert(i);
            }
        }
    }

    /// Advances the fabric one cycle.
    ///
    /// Semantically identical to [`Fabric::step_reference`] (the equivalence
    /// is enforced by tests), but iterates only the active set and reuses
    /// the fabric-owned scratch buffers.
    pub fn step(&mut self) {
        if self.force_reference {
            self.step_reference();
            return;
        }
        self.flush_dirty();
        // Phase 0: fault injection (no-op unless a plan is armed).
        if self.faults.is_some() {
            self.apply_due_faults();
        }
        let w = self.w;
        let cycle = self.cycle;

        // Phases 1+2: active cores execute and inject (independent per
        // tile). Killed tiles freeze: their cores stop stepping entirely.
        // Skipped tiles are provably quiescent; their idle accrues as
        // deferred debt.
        let stepped: u64 = {
            let Fabric { tiles, accounted, active, dead, trace, sanitize, .. } = &mut *self;
            let mut delta = 0u64;
            for &i in active.list() {
                if !dead[i] {
                    let obs = observers(trace, sanitize, i, cycle);
                    delta += step_and_drain(&mut tiles[i], &mut accounted[i], obs);
                }
            }
            delta
        };

        // Phase 3: routers with queued flits stage against their credits
        // and their own core's ramp-in queues. Credits equal the downstream
        // queues' start-of-cycle free space all phase long — staging spends
        // only the stager's own, and what a forward frees downstream is
        // handed back in phase 4 — so no occupancy snapshot is taken.
        let forwarded: u64 = {
            let Fabric { tiles, active, dead, scratch, edge_ports, .. } = &mut *self;
            let StepScratch { staged, stagers, .. } = scratch;
            stagers.clear();
            for &i in active.list() {
                // A killed tile's router forwards nothing; arrivals pile
                // up in its queues until backpressure stalls upstream.
                if !dead[i] && tiles[i].router.queued() > 0 {
                    stagers.push(i);
                }
            }
            // Edge channels: the host's admission budget is this cycle's
            // credit for the off-wafer port.
            for e in edge_ports.iter() {
                let room = e.credits.saturating_sub(e.queue.len());
                tiles[e.y * w + e.x].router.set_credit(
                    e.port,
                    e.color,
                    u8::try_from(room).unwrap_or(u8::MAX),
                );
            }
            let mut forwarded = 0u64;
            for &si in stagers.iter() {
                let t = &mut tiles[si];
                forwarded += t.router.stage_into(t.core.ramp_in_queues(), &mut staged[si]) as u64;
            }
            forwarded
        };
        self.progress += stepped + forwarded;

        // Phase 4: deliveries land (1 cycle/hop), and every flit forwarded
        // out of a cardinal input queue hands the credit it freed back to
        // the router upstream of that queue.
        {
            let Fabric { tiles, links, faults, scratch, edge_ports, edge_index, .. } = &mut *self;
            let links: &Links = links;
            let StepScratch { staged, stagers, dest } = scratch;
            // Armed one-shot link faults intercept flits in flight: the
            // first flit leaving the chosen (tile, port) is corrupted or
            // dropped. Which of two faults on one port strikes first can
            // hang on the order they are struck in, so while one is pending
            // the stagers go in ascending tile order, as the reference
            // delivers. Otherwise each (dest, in-port, color) queue has
            // exactly one source tile, and cross-tile order is immaterial.
            let mut faults = faults.as_deref_mut().filter(|fs| !fs.pending_links.is_empty());
            if faults.is_some() {
                stagers.sort_unstable();
            }
            for &si in stagers.iter() {
                let mut k = 0;
                while k < staged[si].len() {
                    let mut s = staged[si][k];
                    k += 1;
                    if let Some((ui, out)) = links.upstream(si, s.freed) {
                        tiles[ui].router.return_credit(out, s.color);
                    }
                    if faults
                        .as_deref_mut()
                        .is_some_and(|fs| fs.strike_link(si, s.out, &mut s.flit))
                    {
                        // The flit vanishes on the wire: the queue it was
                        // headed for keeps its slot, so the sender gets the
                        // credit back.
                        if s.out != Port::Ramp {
                            tiles[si].router.return_credit(s.out, s.color);
                        }
                        continue;
                    }
                    let di = match s.out {
                        Port::Ramp => {
                            tiles[si].core.deliver(s.color, s.flit);
                            Some(si)
                        }
                        out => match links.toward(si, out) {
                            Some(ni) => {
                                tiles[ni].router.enqueue(out.opposite().unwrap(), s.color, s.flit);
                                Some(ni)
                            }
                            None => {
                                // Accepted off-wafer: land in the
                                // declared channel's egress queue
                                // (no on-wafer destination to wake).
                                let e = edge_index[&(si, out, s.color)];
                                edge_ports[e].queue.push(s.flit);
                                None
                            }
                        },
                    };
                    if let Some(di) = di {
                        dest.insert(di);
                    }
                }
                staged[si].clear();
            }
        }
        // Every delivery destination has queued work next cycle: wake it.
        while let Some(di) = self.scratch.dest.pop() {
            self.active.insert(di);
        }

        self.cycle += 1;

        // End-of-step sweep: refresh busy flags for the tiles we touched
        // and retire the ones that can no longer change state on their own
        // (quiescent, empty router, no bound ramp-in data, or killed).
        let Fabric { tiles, dead, busy, active, .. } = self;
        active.retain(|i| stays_active(&tiles[i], busy.refresh(i, &tiles[i]), dead[i]));
    }

    /// `true` when every core is quiescent and every queue is empty. An
    /// O(1) counter read (adjusted for externally mutated tiles awaiting
    /// their pre-step refresh) instead of a full-fabric scan.
    pub fn is_quiescent(&self) -> bool {
        let mut busy = self.busy.count;
        for &i in self.dirty.list() {
            if !self.tiles[i].is_quiescent() {
                return false;
            }
            if self.busy.flags[i] {
                busy -= 1;
            }
        }
        let quiet = busy == 0;
        debug_assert_eq!(
            quiet,
            self.tiles.iter().all(Tile::is_quiescent),
            "activity-set quiescence diverged from a full scan"
        );
        quiet
    }
}
