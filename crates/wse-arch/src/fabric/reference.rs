//! The full-scan reference stepper: the executable specification the
//! activity-driven stepper is tested against, cycle for cycle.

use super::observe::observers;
use super::{Fabric, Tile};
use crate::router::StagedFlit;
use crate::types::{Color, Port, NUM_COLORS, PORT_BYTES_PER_CYCLE};

impl Fabric {
    /// Routes all subsequent [`Fabric::step`] calls through the retained
    /// full-scan reference stepper (`true`) or the activity-driven stepper
    /// (`false`, the default). The two are cycle-for-cycle bit-identical;
    /// the switch exists for equivalence testing and benchmarking.
    pub fn use_reference_stepper(&mut self, on: bool) {
        self.force_reference = on;
    }

    /// Advances the fabric one cycle with the naive full-scan stepper: every
    /// tile is visited in every phase, cores run the per-element datapath
    /// ([`Core::step_reference`]), routers stage against freshly allocated
    /// occupancy snapshots ([`Router::stage`]). Retained as the executable
    /// specification the optimized [`Fabric::step`] is tested against.
    ///
    /// [`Core::step_reference`]: crate::core::Core::step_reference
    /// [`Router::stage`]: crate::router::Router::stage
    pub fn step_reference(&mut self) {
        self.flush_dirty();
        // Phase 0: fault injection (no-op unless a plan is armed).
        if self.faults.is_some() {
            self.apply_due_faults();
        }
        // The reference steps every core, so all deferred idle debt must be
        // settled first (it then stays settled, cycle by cycle).
        self.settle_idle();
        let p0 = self.perf();
        let dead = &self.dead;

        // Phase 1: cores execute (independent per tile). Killed tiles
        // freeze: their cores stop stepping entirely.
        let cycle = self.cycle;
        for (i, t) in self.tiles.iter_mut().enumerate() {
            if dead[i] {
                continue;
            }
            let Tile { mem, core, .. } = t;
            let obs = observers(&mut self.trace, &mut self.sanitize, i, cycle);
            core.step_with(mem, true, obs);
        }

        // Phase 2: core injection moves into the router's ramp-input queues
        // (bounded by port bandwidth and queue space).
        for (i, t) in self.tiles.iter_mut().enumerate() {
            if dead[i] {
                continue;
            }
            // Respect the ramp queue's *minimum* color space conservatively:
            // drain one flit at a time, checking the target queue.
            let mut budget = PORT_BYTES_PER_CYCLE;
            let (core, router) = (&mut t.core, &mut t.router);
            while let Some((color, flit)) =
                core.pop_ramp_out_ready(budget, |c| router.space(Port::Ramp, c) > 0)
            {
                router.enqueue(Port::Ramp, color, flit);
                budget -= flit.bytes();
            }
        }

        // Phase 3: routers stage flits against a start-of-phase snapshot of
        // destination occupancy, then deliveries land (1 cycle/hop).
        let all_staged: Vec<(usize, Vec<StagedFlit>)>;
        {
            // Occupancy snapshots (immutable borrows end before staging).
            let router_space: Vec<[[usize; NUM_COLORS]; 5]> = self
                .tiles
                .iter()
                .map(|t| {
                    let mut s = [[0usize; NUM_COLORS]; 5];
                    for p in Port::ALL {
                        for (c, slot) in s[p.index()].iter_mut().enumerate() {
                            *slot = t.router.space(p, c as Color);
                        }
                    }
                    s
                })
                .collect();
            let ramp_space: Vec<[usize; NUM_COLORS]> = self
                .tiles
                .iter()
                .map(|t| {
                    let mut s = [0usize; NUM_COLORS];
                    for (c, slot) in s.iter_mut().enumerate() {
                        *slot = t.core.ramp_in_space(c as Color);
                    }
                    s
                })
                .collect();

            // Edge-channel admission snapshot (start-of-phase room).
            let edge_room: Vec<usize> =
                self.edge_ports.iter().map(|e| e.credits.saturating_sub(e.queue.len())).collect();
            let edge_index = &self.edge_index;

            let w = self.w;
            let h = self.h;
            all_staged = self
                .tiles
                .iter_mut()
                .enumerate()
                .map(|(i, t)| {
                    // A killed tile's router forwards nothing; arrivals pile
                    // up in its queues until backpressure stalls upstream.
                    if dead[i] {
                        return (i, Vec::new());
                    }
                    let (x, y) = (i % w, i / w);
                    let staged = t.router.stage(|out, color, already| {
                        match out {
                            Port::Ramp => already < ramp_space[i][color as usize],
                            _ => {
                                let (dx, dy) = out.delta();
                                let (nx, ny) = (x as i64 + dx as i64, y as i64 + dy as i64);
                                if nx < 0 || ny < 0 || nx >= w as i64 || ny >= h as i64 {
                                    // Off-wafer: declared edge channel with
                                    // credit, or hold forever.
                                    return match edge_index.get(&(i, out, color)) {
                                        Some(&e) => already < edge_room[e],
                                        None => false,
                                    };
                                }
                                let ni = ny as usize * w + nx as usize;
                                let in_port = out.opposite().unwrap();
                                already < router_space[ni][in_port.index()][color as usize]
                            }
                        }
                    });
                    (i, staged)
                })
                .collect();
        }

        // Phase 4: deliveries. Armed one-shot link faults intercept flits
        // in flight here: the first flit leaving the chosen (tile, port)
        // after the fault's cycle is corrupted or lost.
        let links = &self.links;
        let (tiles, faults) = (&mut self.tiles, &mut self.faults);
        let (edge_ports, edge_index) = (&mut self.edge_ports, &self.edge_index);
        let mut fs = faults.as_deref_mut();
        for (i, staged) in all_staged {
            for s in staged {
                let mut flit = s.flit;
                if fs.as_deref_mut().is_some_and(|fs| fs.strike_link(i, s.out, &mut flit)) {
                    continue; // the flit vanishes on the wire
                }
                match s.out {
                    Port::Ramp => {
                        tiles[i].core.deliver(s.color, flit);
                    }
                    out => match links.toward(i, out) {
                        Some(ni) => {
                            let in_port = out.opposite().unwrap();
                            tiles[ni].router.enqueue(in_port, s.color, flit);
                        }
                        None => {
                            // Accepted off-wafer: the declared channel's
                            // host-visible egress queue.
                            let e = edge_index[&(i, out, s.color)];
                            edge_ports[e].queue.push(flit);
                        }
                    },
                }
            }
        }

        self.cycle += 1;
        // Every live core was just stepped through the previous cycle.
        for (a, &dead) in self.accounted.iter_mut().zip(&self.dead) {
            if !dead {
                *a = self.cycle;
            }
        }
        self.rebuild_activity();
        let p1 = self.perf();
        self.progress += (p1.busy_cycles - p0.busy_cycles)
            + (p1.ctrl_stmts - p0.ctrl_stmts)
            + (p1.flits_routed - p0.flits_routed);
    }
}
