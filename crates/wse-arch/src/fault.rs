//! Deterministic fault injection for the fabric.
//!
//! The paper's wafer mapping assumes a flawless fabric; this module lets the
//! simulator model the unhappy paths: a [`FaultPlan`] schedules faults at
//! exact cycles, the fabric applies them during [`Fabric::step`], and a
//! [`FaultLog`] records exactly what was injected so runs are auditable and
//! bit-for-bit reproducible. The plan is either built explicitly or drawn
//! from a seeded generator ([`FaultPlan::random`]) — no global RNG state, so
//! the same seed always yields the same fault schedule.
//!
//! Fault taxonomy (mirrors the failure modes of a real wafer):
//!
//! * **SRAM bit flip** — a single-event upset in a tile's 48 KB memory.
//!   Transient data corruption; the fabric keeps running.
//! * **Tile kill** — the core and router of one tile freeze permanently
//!   (e.g. a dead PE). Incoming flits pile up in the dead router's queues
//!   until credit-based backpressure stalls the neighborhood.
//! * **Stuck router port** — one output port stops forwarding. Because
//!   fanout is all-or-nothing, any route through that port blocks.
//! * **Link corrupt / link drop** — a one-shot transmission error: the next
//!   flit leaving the chosen port is bit-flipped or silently lost.
//!
//! A second family targets the *ensemble* plane — the host interconnect
//! that stitches wafers into a `MultiFabric` (wse-multi). These faults are
//! armed on the ensemble, not on a single [`Fabric`] (arming one there
//! panics — a lone wafer has no host links):
//!
//! * **Host-link drop / corrupt** — a one-shot wire error on the next frame
//!   crossing one seam in one direction. The reliable transport detects
//!   both (checksum + sequence gap) and retransmits.
//! * **Host-link stall** — one seam goes dark for a bounded window in both
//!   directions: frames and acks in transit are held, new traffic queues.
//! * **Wafer stall** — one wafer drops off the host fabric for a window:
//!   every seam touching it goes dark, modeling a host-visible machine
//!   pause (PCIe hiccup, driver reset).
//!
//! [`Fabric::step`]: crate::fabric::Fabric::step
//! [`Fabric`]: crate::fabric::Fabric

use crate::fabric::Region;
use crate::types::Port;

/// One kind of injectable fault.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip bit `bit` (0–15) of the 16-bit SRAM word at byte `addr` of tile
    /// `(x, y)`. Transient: a later write repairs it.
    SramBitFlip {
        /// Tile x coordinate.
        x: usize,
        /// Tile y coordinate.
        y: usize,
        /// Byte address of the (2-byte aligned) word.
        addr: u32,
        /// Bit index within the word, `0..16`.
        bit: u8,
    },
    /// Permanently freeze tile `(x, y)`: its core stops executing and its
    /// router stops forwarding. Queues into the dead tile fill and
    /// backpressure propagates outward.
    TileKill {
        /// Tile x coordinate.
        x: usize,
        /// Tile y coordinate.
        y: usize,
    },
    /// Permanently stick output port `port` of tile `(x, y)`'s router: no
    /// flit is ever staged through it again.
    StuckPort {
        /// Tile x coordinate.
        x: usize,
        /// Tile y coordinate.
        y: usize,
        /// The output port that sticks.
        port: Port,
    },
    /// Corrupt the next flit leaving tile `(x, y)` through `port` by XORing
    /// one payload bit. One-shot.
    LinkCorrupt {
        /// Tile x coordinate.
        x: usize,
        /// Tile y coordinate.
        y: usize,
        /// The output port whose next flit is corrupted.
        port: Port,
        /// Payload bit to flip, `0..32`.
        bit: u8,
    },
    /// Silently drop the next flit leaving tile `(x, y)` through `port`.
    /// One-shot.
    LinkDrop {
        /// Tile x coordinate.
        x: usize,
        /// Tile y coordinate.
        y: usize,
        /// The output port whose next flit is lost.
        port: Port,
    },
    /// Drop the next frame crossing host-link seam `seam` in direction
    /// `dir` (0 = eastward, 1 = westward). One-shot; ensemble-level.
    HostLinkDrop {
        /// Seam index (between wafer `seam` and `seam + 1`).
        seam: usize,
        /// Direction: 0 = eastward, 1 = westward.
        dir: u8,
    },
    /// Corrupt the next frame crossing host-link seam `seam` in direction
    /// `dir` by XORing one payload bit (the frame checksum is computed
    /// before the wire, so the receiver detects the damage). One-shot;
    /// ensemble-level.
    HostLinkCorrupt {
        /// Seam index.
        seam: usize,
        /// Direction: 0 = eastward, 1 = westward.
        dir: u8,
        /// Payload bit to flip, `0..32`.
        bit: u8,
    },
    /// Seam `seam` goes dark for `cycles` ensemble cycles in both
    /// directions: nothing in flight is delivered and acks are held.
    /// Bounded-window; ensemble-level.
    HostLinkStall {
        /// Seam index.
        seam: usize,
        /// Length of the dark window in ensemble cycles.
        cycles: u64,
    },
    /// Wafer `wafer` drops off the host fabric for `cycles` ensemble
    /// cycles: every seam touching it goes dark (a host-visible machine
    /// pause). Bounded-window; ensemble-level.
    WaferStall {
        /// Wafer index within the ensemble.
        wafer: usize,
        /// Length of the pause in ensemble cycles.
        cycles: u64,
    },
}

impl FaultKind {
    /// Short stable label for reports and sweep tables.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::SramBitFlip { .. } => "sram_bit_flip",
            FaultKind::TileKill { .. } => "tile_kill",
            FaultKind::StuckPort { .. } => "stuck_port",
            FaultKind::LinkCorrupt { .. } => "link_corrupt",
            FaultKind::LinkDrop { .. } => "link_drop",
            FaultKind::HostLinkDrop { .. } => "host_link_drop",
            FaultKind::HostLinkCorrupt { .. } => "host_link_corrupt",
            FaultKind::HostLinkStall { .. } => "host_link_stall",
            FaultKind::WaferStall { .. } => "wafer_stall",
        }
    }
}

/// A fault scheduled for a specific cycle.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Fabric cycle at (or after) which the fault applies.
    pub at_cycle: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic schedule of fault events.
///
/// Events are applied in cycle order by the fabric once the plan is armed
/// via [`Fabric::arm_faults`]; link faults arm at their cycle and fire on
/// the next flit that crosses the chosen link.
///
/// [`Fabric::arm_faults`]: crate::fabric::Fabric::arm_faults
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedules `kind` at `at_cycle` (builder style).
    pub fn with(mut self, at_cycle: u64, kind: FaultKind) -> FaultPlan {
        self.push(at_cycle, kind);
        self
    }

    /// Schedules `kind` at `at_cycle`.
    pub fn push(&mut self, at_cycle: u64, kind: FaultKind) {
        self.events.push(FaultEvent { at_cycle, kind });
    }

    /// The scheduled events, sorted by cycle (stable for equal cycles).
    pub fn events(&self) -> Vec<FaultEvent> {
        let mut evs = self.events.clone();
        evs.sort_by_key(|e| e.at_cycle);
        evs
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Draws `n` faults of `kind_pool` kinds uniformly over `0..horizon`
    /// cycles on the tiles of `region`, deterministically from `seed`. A
    /// whole `w × h` fabric is `Region::new(0, 0, w, h)`; a smaller region
    /// models a fault domain confined to one tenant's partition. The draw
    /// depends only on the region's extent and its origin is added to every
    /// coordinate, so a region plan at any origin is the same logical plan.
    ///
    /// `sram_words` bounds the byte addresses bit flips may target (pass the
    /// portion of SRAM actually holding data so flips land where they
    /// matter). The same arguments always produce the same plan.
    ///
    /// # Panics
    /// Panics if `kind_pool` contains an ensemble-level class (those draw
    /// seam/wafer coordinates — use [`FaultPlan::random_host_link`]).
    pub fn random(
        seed: u64,
        n: usize,
        horizon: u64,
        region: Region,
        sram_words: u32,
        kind_pool: &[FaultKindClass],
    ) -> FaultPlan {
        assert!(!kind_pool.is_empty(), "empty fault kind pool");
        assert!(sram_words > 0, "sram_words must be nonzero");
        let mut rng = SplitMix64::new(seed);
        let mut plan = FaultPlan::new();
        for _ in 0..n {
            let at_cycle = rng.below(horizon.max(1));
            let x = region.x + rng.below(region.w as u64) as usize;
            let y = region.y + rng.below(region.h as u64) as usize;
            let class = kind_pool[rng.below(kind_pool.len() as u64) as usize];
            let port = Port::ALL[rng.below(4) as usize]; // cardinal ports only
            let kind = match class {
                FaultKindClass::SramBitFlip => FaultKind::SramBitFlip {
                    x,
                    y,
                    addr: 2 * rng.below(sram_words as u64) as u32,
                    bit: rng.below(16) as u8,
                },
                FaultKindClass::TileKill => FaultKind::TileKill { x, y },
                FaultKindClass::StuckPort => FaultKind::StuckPort { x, y, port },
                FaultKindClass::LinkCorrupt => {
                    FaultKind::LinkCorrupt { x, y, port, bit: rng.below(16) as u8 }
                }
                FaultKindClass::LinkDrop => FaultKind::LinkDrop { x, y, port },
                FaultKindClass::HostLinkDrop
                | FaultKindClass::HostLinkCorrupt
                | FaultKindClass::HostLinkStall
                | FaultKindClass::WaferStall => {
                    panic!(
                        "ensemble-level class {class:?} in an on-wafer pool (use random_host_link)"
                    )
                }
            };
            plan.push(at_cycle, kind);
        }
        plan
    }

    /// Draws `n` ensemble-level faults of `kind_pool` classes uniformly
    /// over `0..horizon` cycles on a `k`-wafer ensemble, deterministically
    /// from `seed`. Seam indices land in `0..k-1`, wafer indices in
    /// `0..k`, and stall windows in `64..1088` cycles — short enough that
    /// the reliable transport usually rides them out, long enough that
    /// some trip the ensemble watchdog and exercise rollback.
    ///
    /// # Panics
    /// Panics if `k < 2` (no seams), the pool is empty, or the pool
    /// contains an on-wafer class.
    pub fn random_host_link(
        seed: u64,
        n: usize,
        horizon: u64,
        k: usize,
        kind_pool: &[FaultKindClass],
    ) -> FaultPlan {
        assert!(k >= 2, "host-link faults need at least 2 wafers, got {k}");
        assert!(!kind_pool.is_empty(), "empty fault kind pool");
        let mut rng = SplitMix64::new(seed);
        let mut plan = FaultPlan::new();
        for _ in 0..n {
            let at_cycle = rng.below(horizon.max(1));
            let seam = rng.below(k as u64 - 1) as usize;
            let dir = rng.below(2) as u8;
            let kind = match kind_pool[rng.below(kind_pool.len() as u64) as usize] {
                FaultKindClass::HostLinkDrop => FaultKind::HostLinkDrop { seam, dir },
                FaultKindClass::HostLinkCorrupt => {
                    FaultKind::HostLinkCorrupt { seam, dir, bit: rng.below(16) as u8 }
                }
                FaultKindClass::HostLinkStall => {
                    FaultKind::HostLinkStall { seam, cycles: 64 + rng.below(1024) }
                }
                FaultKindClass::WaferStall => FaultKind::WaferStall {
                    wafer: rng.below(k as u64) as usize,
                    cycles: 64 + rng.below(1024),
                },
                class => panic!("on-wafer class {class:?} in a host-link pool (use random)"),
            };
            plan.push(at_cycle, kind);
        }
        plan
    }
}

/// Parameter-free fault classes, used to name kinds when drawing random
/// plans (the concrete coordinates are drawn from the seed).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultKindClass {
    /// See [`FaultKind::SramBitFlip`].
    SramBitFlip,
    /// See [`FaultKind::TileKill`].
    TileKill,
    /// See [`FaultKind::StuckPort`].
    StuckPort,
    /// See [`FaultKind::LinkCorrupt`].
    LinkCorrupt,
    /// See [`FaultKind::LinkDrop`].
    LinkDrop,
    /// See [`FaultKind::HostLinkDrop`].
    HostLinkDrop,
    /// See [`FaultKind::HostLinkCorrupt`].
    HostLinkCorrupt,
    /// See [`FaultKind::HostLinkStall`].
    HostLinkStall,
    /// See [`FaultKind::WaferStall`].
    WaferStall,
}

impl FaultKindClass {
    /// All **on-wafer** classes, in a stable order (single-wafer sweep axes
    /// iterate this; the name predates the ensemble-level classes, which
    /// live in [`FaultKindClass::HOST_LINK`] so existing sweep output is
    /// unchanged).
    pub const ALL: [FaultKindClass; 5] = [
        FaultKindClass::SramBitFlip,
        FaultKindClass::TileKill,
        FaultKindClass::StuckPort,
        FaultKindClass::LinkCorrupt,
        FaultKindClass::LinkDrop,
    ];

    /// All ensemble-level classes, in a stable order (multi-wafer sweep
    /// axes iterate this).
    pub const HOST_LINK: [FaultKindClass; 4] = [
        FaultKindClass::HostLinkDrop,
        FaultKindClass::HostLinkCorrupt,
        FaultKindClass::HostLinkStall,
        FaultKindClass::WaferStall,
    ];

    /// Short stable label (matches [`FaultKind::label`]).
    pub fn label(&self) -> &'static str {
        match self {
            FaultKindClass::SramBitFlip => "sram_bit_flip",
            FaultKindClass::TileKill => "tile_kill",
            FaultKindClass::StuckPort => "stuck_port",
            FaultKindClass::LinkCorrupt => "link_corrupt",
            FaultKindClass::LinkDrop => "link_drop",
            FaultKindClass::HostLinkDrop => "host_link_drop",
            FaultKindClass::HostLinkCorrupt => "host_link_corrupt",
            FaultKindClass::HostLinkStall => "host_link_stall",
            FaultKindClass::WaferStall => "wafer_stall",
        }
    }
}

/// One fault as actually applied by the fabric.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FaultRecord {
    /// Cycle the fault took effect.
    pub cycle: u64,
    /// What was applied.
    pub kind: FaultKind,
}

/// Audit trail of injected faults (see [`Fabric::fault_log`]).
///
/// [`Fabric::fault_log`]: crate::fabric::Fabric::fault_log
#[derive(Clone, Debug, Default)]
pub struct FaultLog {
    /// Faults applied so far, in application order.
    pub applied: Vec<FaultRecord>,
    /// Flits silently dropped by [`FaultKind::LinkDrop`] faults.
    pub dropped_flits: u64,
    /// Flits corrupted by [`FaultKind::LinkCorrupt`] faults.
    pub corrupted_flits: u64,
}

/// SplitMix64: a tiny, high-quality, seedable PRNG. Kept private to this
/// crate so fault plans never depend on an external RNG's version-dependent
/// stream (determinism is a hard requirement for reproducing failures).
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift; bias is negligible for the small ranges used here.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_events_sorted_by_cycle() {
        let plan = FaultPlan::new()
            .with(90, FaultKind::TileKill { x: 1, y: 1 })
            .with(10, FaultKind::LinkDrop { x: 0, y: 0, port: Port::East })
            .with(50, FaultKind::SramBitFlip { x: 0, y: 0, addr: 4, bit: 3 });
        let evs = plan.events();
        assert_eq!(evs.len(), 3);
        assert!(evs.windows(2).all(|w| w[0].at_cycle <= w[1].at_cycle));
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
    }

    #[test]
    fn random_plan_is_reproducible() {
        let a =
            FaultPlan::random(42, 16, 10_000, Region::new(0, 0, 4, 4), 256, &FaultKindClass::ALL);
        let b =
            FaultPlan::random(42, 16, 10_000, Region::new(0, 0, 4, 4), 256, &FaultKindClass::ALL);
        assert_eq!(a.events(), b.events());
        let c =
            FaultPlan::random(43, 16, 10_000, Region::new(0, 0, 4, 4), 256, &FaultKindClass::ALL);
        assert_ne!(a.events(), c.events(), "different seed, different plan");
    }

    #[test]
    fn random_plan_respects_bounds() {
        let plan =
            FaultPlan::random(7, 64, 1000, Region::new(0, 0, 3, 2), 128, &FaultKindClass::ALL);
        for ev in plan.events() {
            assert!(ev.at_cycle < 1000);
            match ev.kind {
                FaultKind::SramBitFlip { x, y, addr, bit } => {
                    assert!(x < 3 && y < 2);
                    assert!(addr < 256 && addr % 2 == 0);
                    assert!(bit < 16);
                }
                FaultKind::TileKill { x, y } => assert!(x < 3 && y < 2),
                FaultKind::StuckPort { x, y, port }
                | FaultKind::LinkCorrupt { x, y, port, .. }
                | FaultKind::LinkDrop { x, y, port } => {
                    assert!(x < 3 && y < 2);
                    assert_ne!(port, Port::Ramp, "random link faults target cardinal ports");
                }
                host => panic!("on-wafer pool drew ensemble-level fault {host:?}"),
            }
        }
    }

    #[test]
    fn random_plan_moves_with_its_region_origin() {
        let at = |x, y| {
            FaultPlan::random(5, 32, 1000, Region::new(x, y, 3, 2), 64, &FaultKindClass::ALL)
        };
        let shift = |k: FaultKind| match k {
            FaultKind::SramBitFlip { x, y, addr, bit } => {
                FaultKind::SramBitFlip { x: x + 4, y: y + 7, addr, bit }
            }
            FaultKind::TileKill { x, y } => FaultKind::TileKill { x: x + 4, y: y + 7 },
            FaultKind::StuckPort { x, y, port } => {
                FaultKind::StuckPort { x: x + 4, y: y + 7, port }
            }
            FaultKind::LinkCorrupt { x, y, port, bit } => {
                FaultKind::LinkCorrupt { x: x + 4, y: y + 7, port, bit }
            }
            FaultKind::LinkDrop { x, y, port } => FaultKind::LinkDrop { x: x + 4, y: y + 7, port },
            host => panic!("on-wafer pool drew ensemble-level fault {host:?}"),
        };
        let moved: Vec<FaultEvent> = at(0, 0)
            .events()
            .into_iter()
            .map(|e| FaultEvent { kind: shift(e.kind), ..e })
            .collect();
        assert_eq!(at(4, 7).events(), moved);
    }

    #[test]
    fn random_host_link_plan_respects_bounds_and_reproduces() {
        let k = 4;
        let a = FaultPlan::random_host_link(99, 32, 5000, k, &FaultKindClass::HOST_LINK);
        let b = FaultPlan::random_host_link(99, 32, 5000, k, &FaultKindClass::HOST_LINK);
        assert_eq!(a.events(), b.events());
        for ev in a.events() {
            assert!(ev.at_cycle < 5000);
            assert!(matches!(
                ev.kind,
                FaultKind::HostLinkDrop { .. }
                    | FaultKind::HostLinkCorrupt { .. }
                    | FaultKind::HostLinkStall { .. }
                    | FaultKind::WaferStall { .. }
            ));
            match ev.kind {
                FaultKind::HostLinkDrop { seam, dir } => {
                    assert!(seam < k - 1 && dir < 2);
                }
                FaultKind::HostLinkCorrupt { seam, dir, bit } => {
                    assert!(seam < k - 1 && dir < 2 && bit < 16);
                }
                FaultKind::HostLinkStall { seam, cycles } => {
                    assert!(seam < k - 1 && (64..1088).contains(&cycles));
                }
                FaultKind::WaferStall { wafer, cycles } => {
                    assert!(wafer < k && (64..1088).contains(&cycles));
                }
                wafer_local => panic!("host-link pool drew on-wafer fault {wafer_local:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "ensemble-level class")]
    fn on_wafer_pool_rejects_host_link_classes() {
        let _ = FaultPlan::random(
            1,
            1,
            100,
            Region::new(0, 0, 2, 2),
            16,
            &[FaultKindClass::HostLinkDrop],
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(FaultKind::TileKill { x: 0, y: 0 }.label(), "tile_kill");
        assert_eq!(FaultKindClass::TileKill.label(), "tile_kill");
        assert_eq!(FaultKind::HostLinkDrop { seam: 0, dir: 0 }.label(), "host_link_drop");
        assert_eq!(FaultKindClass::WaferStall.label(), "wafer_stall");
    }
}
