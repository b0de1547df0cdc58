//! Fault arming and application: the armed plan, the events applied as
//! the clock reaches them, and the one-shot link faults both steppers spend.

use super::Fabric;
use crate::fault::{FaultEvent, FaultKind, FaultLog, FaultPlan, FaultRecord};
use crate::memory::TILE_SRAM_BYTES;
use crate::types::{Flit, Port};

/// Armed fault-injection state (present only when a plan is armed, so the
/// healthy-path cost is one pointer test per phase).
#[derive(Clone, Debug)]
pub(super) struct FaultState {
    /// Scheduled events, sorted by cycle.
    pub(super) events: Vec<FaultEvent>,
    /// Index of the next unapplied event.
    pub(super) next: usize,
    /// Armed one-shot link faults: (tile index, out port, `Some(bit)` to
    /// corrupt / `None` to drop).
    pub(super) pending_links: Vec<(usize, Port, Option<u8>)>,
    /// Audit trail.
    pub(super) log: FaultLog,
}

impl FaultState {
    /// Spends the armed one-shot link fault on tile `i`'s output `out`, if
    /// there is one, on `flit`, the next flit through it: a corrupt flips
    /// one payload bit, a drop loses the flit. Returns `true` when the flit
    /// is lost; what that does to credits is the stepper's business.
    pub(super) fn strike_link(&mut self, i: usize, out: Port, flit: &mut Flit) -> bool {
        let Some(k) = self.pending_links.iter().position(|&(ti, p, _)| ti == i && p == out) else {
            return false;
        };
        match self.pending_links.swap_remove(k).2 {
            Some(bit) => {
                flit.bits ^= 1 << bit;
                self.log.corrupted_flits += 1;
                false
            }
            None => {
                self.log.dropped_flits += 1;
                true
            }
        }
    }
}

impl Fabric {
    /// Arms a fault-injection plan. Events are validated against the fabric
    /// shape and applied in cycle order as [`Fabric::step`] reaches them
    /// (events scheduled in the past fire on the next step). Re-arming
    /// replaces any previous plan and clears its log; kill/stuck state
    /// already applied to tiles is *not* undone, except that tiles killed
    /// by the *previous* plan resume stepping.
    ///
    /// # Panics
    /// Panics if an event names a tile, port, address, or bit outside the
    /// fabric.
    pub fn arm_faults(&mut self, plan: &FaultPlan) {
        let events = plan.events();
        for ev in &events {
            let (x, y) = match ev.kind {
                FaultKind::SramBitFlip { x, y, addr, bit } => {
                    assert!(addr + 2 <= TILE_SRAM_BYTES, "bit flip at {addr} outside SRAM");
                    assert!(bit < 16, "bit index {bit} out of range");
                    (x, y)
                }
                FaultKind::TileKill { x, y }
                | FaultKind::StuckPort { x, y, .. }
                | FaultKind::LinkDrop { x, y, .. } => (x, y),
                FaultKind::LinkCorrupt { x, y, bit, .. } => {
                    assert!(bit < 32, "payload bit {bit} out of range");
                    (x, y)
                }
                host => panic!(
                    "{} targets the host interconnect: arm it on the MultiFabric \
                     (wse-multi), not on a single wafer",
                    host.label()
                ),
            };
            assert!(x < self.w && y < self.h, "fault targets tile ({x},{y}) outside fabric");
        }
        // Tiles killed under the old plan come back to life. They were
        // frozen, not idle: restart their idle accounting *now* so the dead
        // gap is never billed, and wake them so the stepper sees them again.
        for i in 0..self.dead.len() {
            if std::mem::take(&mut self.dead[i]) {
                self.accounted[i] = self.cycle;
                self.wake(i);
            }
        }
        self.faults = Some(Box::new(FaultState {
            events,
            next: 0,
            pending_links: Vec::new(),
            log: FaultLog::default(),
        }));
    }

    /// The audit trail of applied faults, if a plan is armed.
    pub fn fault_log(&self) -> Option<&FaultLog> {
        self.faults.as_ref().map(|f| &f.log)
    }

    /// `true` if tile `(x, y)` has been killed by an applied
    /// [`FaultKind::TileKill`].
    pub fn tile_dead(&self, x: usize, y: usize) -> bool {
        self.dead[self.index(x, y)]
    }

    /// Applies every armed fault whose cycle has arrived. Affected tiles
    /// are conservatively re-activated so a fault landing on an idle tile
    /// is never silently skipped by the activity-driven stepper.
    pub(super) fn apply_due_faults(&mut self) {
        let w = self.w;
        let cycle = self.cycle;
        let Fabric { tiles, faults, dead, accounted, active, .. } = self;
        let Some(fs) = faults.as_deref_mut() else { return };
        while fs.next < fs.events.len() && fs.events[fs.next].at_cycle <= cycle {
            let ev = fs.events[fs.next];
            fs.next += 1;
            match ev.kind {
                FaultKind::SramBitFlip { x, y, addr, bit } => {
                    let i = y * w + x;
                    tiles[i].mem.flip_bit(addr, bit);
                    active.insert(i);
                }
                FaultKind::TileKill { x, y } => {
                    let i = y * w + x;
                    if !dead[i] {
                        // The tile idled up to now and freezes from here:
                        // settle its debt once, at the moment of death.
                        tiles[i].core.account_idle(cycle - accounted[i]);
                        accounted[i] = cycle;
                        dead[i] = true;
                    }
                    active.insert(i);
                }
                FaultKind::StuckPort { x, y, port } => {
                    let i = y * w + x;
                    tiles[i].router.stick_port(port);
                    active.insert(i);
                }
                FaultKind::LinkCorrupt { x, y, port, bit } => {
                    fs.pending_links.push((y * w + x, port, Some(bit)));
                    active.insert(y * w + x);
                }
                FaultKind::LinkDrop { x, y, port } => {
                    fs.pending_links.push((y * w + x, port, None));
                    active.insert(y * w + x);
                }
                // Host-level kinds are rejected by `arm_faults`.
                host => unreachable!("{} cannot reach a single fabric", host.label()),
            }
            fs.log.applied.push(FaultRecord { cycle, kind: ev.kind });
        }
    }
}
