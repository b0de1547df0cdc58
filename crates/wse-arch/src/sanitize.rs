//! Runtime race and channel-wait sanitizer.
//!
//! The static passes in `wse-lint` prove properties of the *program*; the
//! sanitizer observes one *execution* and cross-checks them. It is armed the
//! same way as fault injection and tracing ([`crate::fabric::Fabric::arm_sanitizer`]):
//! disarmed, every hook is one pointer test; armed, the fabric keeps shadow
//! state per tile, lent to the tile's core for each step, that tracks
//!
//! * **SRAM access marks** — per byte, the last writer and last reader
//!   context (main thread or background slot) with a launch epoch. A byte
//!   touched by two contexts that could overlap in time, where at least one
//!   access is a write, is a **race trip** — unless both accesses are
//!   read-modify-write accumulations (the datapath issues one context per
//!   cycle, so element RMW is atomic and addition commutes; this is the
//!   paper's sanctioned concurrent-accumulation dataflow).
//! * **Channel waits** — on every cycle the datapath cannot issue, the
//!   colors some active receive is starved on (found by the same scan that
//!   classifies the core's stall cause). The per-color longest
//!   consecutive wait is the runtime face of the static progress pass: a
//!   `color-starved` program shows an ever-growing streak. A cycle that
//!   starves nothing ends every streak unless it issues.
//!
//! The sanitizer's clock is the fabric's: it keeps the cycle of the last
//! core step it saw, and a race trip is stamped with it.
//!
//! Happens-before is tracked with launch epochs: the core's epoch counter
//! bumps at every `Stmt::Launch`, and a slot's *birth* is the epoch of its
//! launch. A mark made before a thread's birth is ordered before everything
//! that thread does (the launching code wrote it first); a mark made by a
//! thread that has since completed is ordered before later accesses (the
//! core observed the completion). What remains — two contexts alive
//! together, touching a byte — is exactly the interleaving-decided overlap
//! the static race pass reports.
//!
//! The sanitizer is observation-only: arming it never changes a single
//! architectural state transition, so an armed run is cycle-identical to a
//! disarmed one (asserted by `wse-core`'s `sanitizer_clean` tests).

use crate::types::{Color, NUM_COLORS, NUM_THREADS};
use std::fmt;

/// Context id of the main thread's synchronous-exec pseudo-slot (background
/// slots are `0..NUM_THREADS`).
pub const MAIN_CTX: u8 = NUM_THREADS as u8;

/// How a race trip was detected (what the second access was, relative to
/// the mark it collided with).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TripKind {
    /// A write hit a byte another live context wrote.
    WriteAfterWrite,
    /// A write hit a byte another live context read.
    WriteAfterRead,
    /// A read hit a byte another live context wrote.
    ReadAfterWrite,
}

impl fmt::Display for TripKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TripKind::WriteAfterWrite => "write-after-write",
            TripKind::WriteAfterRead => "write-after-read",
            TripKind::ReadAfterWrite => "read-after-write",
        })
    }
}

/// One detected race: two unordered contexts touched the same SRAM byte.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RaceTrip {
    /// Fabric cycle of the second access.
    pub cycle: u64,
    /// First conflicting byte address.
    pub addr: u32,
    /// What collided.
    pub kind: TripKind,
    /// The context making the second access (`MAIN_CTX` = main thread).
    pub ctx: u8,
    /// The context that made the first, conflicting access.
    pub prior_ctx: u8,
}

impl fmt::Display for RaceTrip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = |c: u8| -> String {
            if c == MAIN_CTX {
                "main".into()
            } else {
                format!("thread {c}")
            }
        };
        write!(
            f,
            "cycle {}: {} at sram byte {} ({} after {})",
            self.cycle,
            self.kind,
            self.addr,
            name(self.ctx),
            name(self.prior_ctx)
        )
    }
}

/// Cap on detailed [`RaceTrip`] records kept per core; further trips only
/// bump the total (a racing loop would otherwise record every element).
pub const MAX_TRIPS_KEPT: usize = 16;

// Mark packing: `epoch << 8 | (ctx + 1) << 1 | accum`. Zero means the byte
// was never touched; `ctx + 1` keeps slot 0 distinguishable from "none".
#[inline]
fn pack(epoch: u64, ctx: u8, accum: bool) -> u64 {
    (epoch << 8) | ((ctx as u64 + 1) << 1) | accum as u64
}

#[inline]
fn unpack(mark: u64) -> (u64, u8, bool) {
    (mark >> 8, ((mark >> 1) & 0x7f) as u8 - 1, mark & 1 == 1)
}

/// One tile's shadow state. Allocated only when armed (two SRAM-sized `u64`
/// shadow planes per tile, 768 KiB); the disarmed hook is one pointer test.
pub(crate) struct CoreSanitizer {
    /// Bumped on every thread launch; orders marks against births.
    epoch: u64,
    /// Launch epoch of the thread currently (or last) occupying each slot.
    birth: [u64; NUM_THREADS],
    /// Set by `begin()` for the duration of one `process()` call:
    /// `(context id, is accumulation)`.
    cur: Option<(u8, bool)>,
    /// Which background slots were live at `begin()` time.
    live: [bool; NUM_THREADS],
    /// Last-writer mark per SRAM byte.
    write_marks: Vec<u64>,
    /// Last-reader mark per SRAM byte.
    read_marks: Vec<u64>,
    /// First [`MAX_TRIPS_KEPT`] race trips, in detection order.
    pub trips: Vec<RaceTrip>,
    /// All race trips, including those past the detail cap.
    pub total_trips: u64,
    /// Cycles each color spent starving an active receive.
    pub chan_wait: [u64; NUM_COLORS],
    /// Current consecutive starved-cycle streak per color.
    streak: [u64; NUM_COLORS],
    /// Longest consecutive starved-cycle streak per color.
    pub longest_wait: [u64; NUM_COLORS],
    /// Fabric cycle of the last step observed.
    seen: u64,
}

impl CoreSanitizer {
    /// Fresh shadow state over `sram_bytes` of SRAM.
    pub fn new(sram_bytes: usize) -> CoreSanitizer {
        CoreSanitizer {
            epoch: 0,
            birth: [0; NUM_THREADS],
            cur: None,
            live: [false; NUM_THREADS],
            write_marks: vec![0; sram_bytes],
            read_marks: vec![0; sram_bytes],
            trips: Vec::new(),
            total_trips: 0,
            chan_wait: [0; NUM_COLORS],
            streak: [0; NUM_COLORS],
            longest_wait: [0; NUM_COLORS],
            seen: 0,
        }
    }

    /// A step in fabric cycle `cycle`. Cycles since the last one that did
    /// not step the tile (skipped while quiescent, or killed) starved
    /// nothing, so they end every streak.
    fn see(&mut self, cycle: u64) {
        if cycle > self.seen + 1 {
            self.streak = [0; NUM_COLORS];
        }
        self.seen = cycle;
    }

    /// A thread was launched into `slot`: new epoch, new birth. Marks made
    /// before this instant have epoch < birth and are ordered before the
    /// thread (the launching code came first).
    pub(crate) fn on_launch(&mut self, slot: usize) {
        self.epoch += 1;
        self.birth[slot] = self.epoch;
    }

    /// The datapath is about to issue context `ctx` (a background slot, or
    /// [`MAIN_CTX`]) in fabric cycle `cycle`; `accum` is true for
    /// read-modify-write accumulations; `live` is the current
    /// background-slot occupancy.
    pub(crate) fn begin(&mut self, ctx: u8, accum: bool, live: [bool; NUM_THREADS], cycle: u64) {
        self.see(cycle);
        self.cur = Some((ctx, accum));
        self.live = live;
    }

    /// The `process()` call returned; SRAM hooks go quiet again.
    pub(crate) fn end(&mut self) {
        self.cur = None;
    }

    /// Is a mark by `(mark_epoch, mark_ctx)` concurrent with the current
    /// accessor `ctx`? Same context never conflicts. A background marker
    /// conflicts only if it is still live *and* the mark postdates its
    /// birth (older marks belong to a previous occupant of the slot). A
    /// main-thread marker conflicts with background accessor `s` only if
    /// the mark postdates `s`'s birth (pre-launch writes are the sanctioned
    /// "parent initializes, child reads" pattern).
    fn concurrent(&self, ctx: u8, mark_epoch: u64, mark_ctx: u8) -> bool {
        if mark_ctx == ctx {
            return false;
        }
        if mark_ctx < NUM_THREADS as u8 {
            let s = mark_ctx as usize;
            self.live[s] && mark_epoch >= self.birth[s]
        } else {
            // Marker is the main thread.
            if ctx < NUM_THREADS as u8 {
                mark_epoch >= self.birth[ctx as usize]
            } else {
                false
            }
        }
    }

    fn trip(&mut self, addr: u32, kind: TripKind, ctx: u8, prior_ctx: u8) {
        self.total_trips += 1;
        if self.trips.len() < MAX_TRIPS_KEPT {
            self.trips.push(RaceTrip { cycle: self.seen, addr, kind, ctx, prior_ctx });
        }
    }

    /// One element-read of `bytes` bytes at `addr` by the current context.
    pub(crate) fn on_read(&mut self, addr: u32, bytes: u32) {
        let Some((ctx, accum)) = self.cur else { return };
        let lo = addr as usize;
        let hi = (addr + bytes).min(self.write_marks.len() as u32) as usize;
        let mark = pack(self.epoch, ctx, accum);
        for b in lo..hi {
            let w = self.write_marks[b];
            if w != 0 {
                let (we, wc, wa) = unpack(w);
                if self.concurrent(ctx, we, wc) && !(accum && wa) {
                    self.trip(b as u32, TripKind::ReadAfterWrite, ctx, wc);
                }
            }
            self.read_marks[b] = mark;
        }
    }

    /// One element-write of `bytes` bytes at `addr` by the current context.
    pub(crate) fn on_write(&mut self, addr: u32, bytes: u32) {
        let Some((ctx, accum)) = self.cur else { return };
        let lo = addr as usize;
        let hi = (addr + bytes).min(self.write_marks.len() as u32) as usize;
        let mark = pack(self.epoch, ctx, accum);
        for b in lo..hi {
            let w = self.write_marks[b];
            if w != 0 {
                let (we, wc, wa) = unpack(w);
                if self.concurrent(ctx, we, wc) && !(accum && wa) {
                    self.trip(b as u32, TripKind::WriteAfterWrite, ctx, wc);
                }
            }
            let r = self.read_marks[b];
            if r != 0 {
                let (re, rc, ra) = unpack(r);
                if self.concurrent(ctx, re, rc) && !(accum && ra) {
                    self.trip(b as u32, TripKind::WriteAfterRead, ctx, rc);
                }
            }
            self.write_marks[b] = mark;
        }
    }

    /// A non-issuing datapath cycle `cycle`; bit `c` of `starved` is set
    /// where some active receive is starved on color `c`.
    pub(crate) fn on_stall(&mut self, starved: u32, cycle: u64) {
        self.see(cycle);
        for c in 0..NUM_COLORS {
            if starved >> c & 1 != 0 {
                self.chan_wait[c] += 1;
                self.streak[c] += 1;
                if self.streak[c] > self.longest_wait[c] {
                    self.longest_wait[c] = self.streak[c];
                }
            } else {
                self.streak[c] = 0;
            }
        }
    }
}

/// One tile's slice of a [`SanitizerReport`].
#[derive(Clone, Debug)]
pub struct TileSanitizer {
    /// Tile x coordinate.
    pub x: usize,
    /// Tile y coordinate.
    pub y: usize,
    /// First [`MAX_TRIPS_KEPT`] race trips on this tile.
    pub trips: Vec<RaceTrip>,
    /// Total race trips on this tile.
    pub total_trips: u64,
    /// Total starved-receive cycles per color.
    pub chan_wait: [u64; NUM_COLORS],
    /// Longest consecutive starved-receive streak per color.
    pub longest_wait: [u64; NUM_COLORS],
}

/// Everything the armed sanitizer observed, per tile, plus the window.
#[derive(Clone, Debug)]
pub struct SanitizerReport {
    /// Fabric width.
    pub w: usize,
    /// Fabric height.
    pub h: usize,
    /// Cycles in the observation window.
    pub cycles: u64,
    /// Per-tile shadow-state summaries (row-major, all tiles).
    pub tiles: Vec<TileSanitizer>,
}

impl SanitizerReport {
    /// Total race trips across the fabric.
    pub fn total_trips(&self) -> u64 {
        self.tiles.iter().map(|t| t.total_trips).sum()
    }

    /// `true` when no race tripped anywhere.
    pub fn is_clean(&self) -> bool {
        self.total_trips() == 0
    }

    /// The longest consecutive starved-receive streak anywhere, as
    /// `(x, y, color, cycles)` — the runtime signature of starvation.
    pub fn longest_channel_wait(&self) -> Option<(usize, usize, Color, u64)> {
        self.tiles
            .iter()
            .flat_map(|t| {
                t.longest_wait.iter().enumerate().map(move |(c, &n)| (t.x, t.y, c as Color, n))
            })
            .filter(|&(_, _, _, n)| n > 0)
            .max_by_key(|&(_, _, _, n)| n)
    }
}

impl fmt::Display for SanitizerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "sanitizer: {} race trip(s) over {} cycles on {}x{} tiles",
            self.total_trips(),
            self.cycles,
            self.w,
            self.h
        )?;
        for t in &self.tiles {
            for trip in &t.trips {
                writeln!(f, "  tile ({}, {}): {trip}", t.x, t.y)?;
            }
            if t.total_trips > t.trips.len() as u64 {
                writeln!(
                    f,
                    "  tile ({}, {}): ... and {} more trip(s)",
                    t.x,
                    t.y,
                    t.total_trips - t.trips.len() as u64
                )?;
            }
        }
        if let Some((x, y, c, n)) = self.longest_channel_wait() {
            writeln!(f, "  longest channel wait: color {c} at ({x}, {y}) starved {n} cycles")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_packing_roundtrips() {
        for epoch in [0u64, 1, 7, 1 << 40] {
            for ctx in 0..=NUM_THREADS as u8 {
                for accum in [false, true] {
                    assert_eq!(unpack(pack(epoch, ctx, accum)), (epoch, ctx, accum));
                }
            }
        }
    }

    #[test]
    fn pre_launch_writes_do_not_trip() {
        let mut san = CoreSanitizer::new(64);
        // Main writes, then launches slot 2, which reads the same bytes.
        san.begin(MAIN_CTX, false, [false; NUM_THREADS], 0);
        san.on_write(0, 4);
        san.end();
        san.on_launch(2);
        let mut live = [false; NUM_THREADS];
        live[2] = true;
        san.begin(2, false, live, 0);
        san.on_read(0, 4);
        san.end();
        assert_eq!(san.total_trips, 0);
    }

    #[test]
    fn post_launch_main_write_trips_against_live_reader() {
        let mut san = CoreSanitizer::new(64);
        san.on_launch(1);
        let mut live = [false; NUM_THREADS];
        live[1] = true;
        san.begin(1, false, live, 0);
        san.on_read(8, 4);
        san.end();
        san.begin(MAIN_CTX, false, live, 0);
        san.on_write(8, 4);
        san.end();
        assert_eq!(san.total_trips, 4);
        assert_eq!(san.trips[0].kind, TripKind::WriteAfterRead);
        assert_eq!(san.trips[0].prior_ctx, 1);
    }

    #[test]
    fn both_accumulations_are_exempt() {
        let mut san = CoreSanitizer::new(64);
        san.on_launch(0);
        let mut live = [false; NUM_THREADS];
        live[0] = true;
        san.begin(0, true, live, 0);
        san.on_write(16, 2);
        san.end();
        san.begin(MAIN_CTX, true, live, 0);
        san.on_write(16, 2);
        san.end();
        assert_eq!(san.total_trips, 0);
        // A plain (non-accumulating) write against a live accumulator's
        // mark still trips (shadow keeps the last writer, so test on fresh
        // bytes where thread 0's mark is the one standing).
        san.begin(0, true, live, 0);
        san.on_write(20, 2);
        san.end();
        san.begin(MAIN_CTX, false, live, 0);
        san.on_write(20, 2);
        san.end();
        assert_eq!(san.total_trips, 2);
    }

    #[test]
    fn dead_slot_marks_are_ordered() {
        let mut san = CoreSanitizer::new(64);
        san.on_launch(3);
        let mut live = [false; NUM_THREADS];
        live[3] = true;
        san.begin(3, false, live, 0);
        san.on_write(32, 4);
        san.end();
        // Slot 3 completes; main then writes the same bytes.
        san.begin(MAIN_CTX, false, [false; NUM_THREADS], 0);
        san.on_write(32, 4);
        san.end();
        assert_eq!(san.total_trips, 0);
    }

    #[test]
    fn slot_reuse_does_not_alias_prior_occupant() {
        let mut san = CoreSanitizer::new(64);
        // First occupant of slot 0 writes, completes.
        san.on_launch(0);
        let mut live = [false; NUM_THREADS];
        live[0] = true;
        san.begin(0, false, live, 0);
        san.on_write(40, 4);
        san.end();
        // Second occupant launched into the same slot; main reads the old
        // bytes while the *new* occupant is live. The old mark has
        // epoch < birth, so it must not trip.
        san.on_launch(0);
        san.begin(MAIN_CTX, false, live, 0);
        san.on_read(40, 4);
        san.end();
        assert_eq!(san.total_trips, 0);
    }

    #[test]
    fn channel_wait_streaks() {
        let mut san = CoreSanitizer::new(64);
        san.on_stall(1 << 5, 0);
        san.on_stall(1 << 5, 1);
        san.on_stall(0, 2);
        san.on_stall(1 << 5, 3);
        assert_eq!(san.chan_wait[5], 3);
        assert_eq!(san.longest_wait[5], 2);
    }
}
