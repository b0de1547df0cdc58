//! Execution-target abstraction for the phase-driven solvers.
//!
//! The BiCGStab driver only needs a handful of host operations between
//! fabric-quiescent points: activate a task on a tile, run to quiescence
//! under the stall watchdog, and move data in and out of tile SRAM and
//! registers. [`WaferExec`] captures exactly that surface, so the same
//! solver drives either a single [`Fabric`] or a [`MultiFabric`] ensemble
//! of wafers **transparently** — the ensemble addresses tiles by their
//! *global* coordinates and steps its wafers in lockstep through the host
//! interconnect ([`wse_multi::HostLink`]). Under the ideal link, the
//! split execution is bit-for-bit identical to the fused fabric, which is
//! the cross-validation backbone of the multi-wafer runtime.

use crate::recovery::{EnsembleCheckpoint, FabricCheckpoint};
use wse_arch::fabric::StallReport;
use wse_arch::types::{Reg, TaskId};
use wse_arch::Fabric;
use wse_float::F16;
use wse_multi::MultiFabric;

/// A machine the phase-driven solvers can run on: a single wafer or a
/// linked multi-wafer ensemble addressed by global tile coordinates.
///
/// Beyond the data-movement surface, the trait carries the recovery
/// surface the checkpoint/rollback engine
/// ([`crate::recovery::run_with_recovery`]) needs: snapshot, restore,
/// transient reset, and trace markers — so the same engine drives a
/// single wafer or a whole ensemble.
pub trait WaferExec {
    /// Host-side snapshot of the solver-mutable machine state.
    type Checkpoint;

    /// Global tile-grid dimensions `(width, height)`.
    fn dims(&self) -> (usize, usize);
    /// Activates a task on tile `(x, y)` (global coordinates).
    fn activate(&mut self, x: usize, y: usize, task: TaskId);
    /// Runs to quiescence under the stall watchdog, bracketed as trace
    /// phase `name`. Returns cycles elapsed.
    ///
    /// # Errors
    /// Returns the watchdog's [`StallReport`] on a stall or exceeded
    /// budget.
    fn run_phase(
        &mut self,
        name: &'static str,
        budget: u64,
        window: u64,
    ) -> Result<u64, Box<StallReport>>;
    /// Writes fp16 words into tile `(x, y)`'s SRAM.
    fn store_f16(&mut self, x: usize, y: usize, addr: u32, data: &[F16]);
    /// Reads fp16 words from tile `(x, y)`'s SRAM.
    fn load_f16(&self, x: usize, y: usize, addr: u32, len: usize) -> Vec<F16>;
    /// Sets a core register on tile `(x, y)`.
    fn set_reg(&mut self, x: usize, y: usize, reg: Reg, value: f32);
    /// Reads a core register on tile `(x, y)`.
    fn reg(&self, x: usize, y: usize, reg: Reg) -> f32;
    /// Snapshots the solver-mutable state. Call only at a quiescent
    /// boundary (deferred idle accounting is settled first, so the
    /// capture is bit-exact under the activity-driven stepper).
    fn checkpoint(&mut self) -> Self::Checkpoint;
    /// Rolls back to a snapshot, discarding whatever a fault left in
    /// flight.
    fn restore_checkpoint(&mut self, ckpt: &Self::Checkpoint);
    /// Clears transient execution state so a retry starts from a clean
    /// machine (programs, SRAM, and clocks survive).
    fn reset_transient(&mut self);
    /// Drops a zero-length trace marker (no-op when untraced).
    fn phase_marker(&mut self, name: &'static str);
}

impl WaferExec for Fabric {
    type Checkpoint = FabricCheckpoint;

    fn dims(&self) -> (usize, usize) {
        (self.width(), self.height())
    }

    fn activate(&mut self, x: usize, y: usize, task: TaskId) {
        self.tile_mut(x, y).core.activate(task);
    }

    fn run_phase(
        &mut self,
        name: &'static str,
        budget: u64,
        window: u64,
    ) -> Result<u64, Box<StallReport>> {
        self.phase_begin(name);
        let r = self.run_watched(budget, window);
        self.phase_end();
        r
    }

    fn store_f16(&mut self, x: usize, y: usize, addr: u32, data: &[F16]) {
        self.tile_mut(x, y).mem.store_f16_slice(addr, data);
    }

    fn load_f16(&self, x: usize, y: usize, addr: u32, len: usize) -> Vec<F16> {
        self.tile(x, y).mem.load_f16_slice(addr, len)
    }

    fn set_reg(&mut self, x: usize, y: usize, reg: Reg, value: f32) {
        self.tile_mut(x, y).core.regs[reg as usize] = value;
    }

    fn reg(&self, x: usize, y: usize, reg: Reg) -> f32 {
        self.tile(x, y).core.regs[reg as usize]
    }

    fn checkpoint(&mut self) -> FabricCheckpoint {
        FabricCheckpoint::capture(self)
    }

    fn restore_checkpoint(&mut self, ckpt: &FabricCheckpoint) {
        ckpt.restore(self);
    }

    fn reset_transient(&mut self) {
        Fabric::reset_transient(self);
    }

    fn phase_marker(&mut self, name: &'static str) {
        Fabric::phase_marker(self, name);
    }
}

/// Global-coordinate execution over a wafer ensemble. Phases run in
/// linked lockstep ([`MultiFabric::run_linked`]) so mid-phase traffic may
/// cross wafer seams through the declared edge channels — with
/// [`wse_multi::HostLink::ideal`] this is bit-for-bit the fused fabric.
impl WaferExec for MultiFabric {
    type Checkpoint = EnsembleCheckpoint;

    fn dims(&self) -> (usize, usize) {
        (self.global_width(), self.height())
    }

    fn activate(&mut self, x: usize, y: usize, task: TaskId) {
        self.tile_mut(x, y).core.activate(task);
    }

    fn run_phase(
        &mut self,
        name: &'static str,
        budget: u64,
        window: u64,
    ) -> Result<u64, Box<StallReport>> {
        self.phase_begin(name);
        let r = self.run_linked(budget, window);
        self.phase_end();
        r
    }

    fn store_f16(&mut self, x: usize, y: usize, addr: u32, data: &[F16]) {
        self.tile_mut(x, y).mem.store_f16_slice(addr, data);
    }

    fn load_f16(&self, x: usize, y: usize, addr: u32, len: usize) -> Vec<F16> {
        self.tile(x, y).mem.load_f16_slice(addr, len)
    }

    fn set_reg(&mut self, x: usize, y: usize, reg: Reg, value: f32) {
        self.tile_mut(x, y).core.regs[reg as usize] = value;
    }

    fn reg(&self, x: usize, y: usize, reg: Reg) -> f32 {
        self.tile(x, y).core.regs[reg as usize]
    }

    fn checkpoint(&mut self) -> EnsembleCheckpoint {
        EnsembleCheckpoint::capture(self)
    }

    fn restore_checkpoint(&mut self, ckpt: &EnsembleCheckpoint) {
        ckpt.restore(self);
    }

    fn reset_transient(&mut self) {
        MultiFabric::reset_transient(self);
    }

    fn phase_marker(&mut self, name: &'static str) {
        MultiFabric::phase_marker(self, name);
    }
}
