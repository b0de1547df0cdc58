//! The dense workload under both steppers, in tier-1.
//!
//! `e2e-bench`'s `solve3d-dense` — the paper's seven-point fp16/fp32
//! BiCGStab, 8×8×64 on an 8×8 fabric — is where host time goes to the
//! `wse-arch` step loop, so it is the program the optimized stepper has to
//! get right. Two iterations are driven on two fabrics at once, one pinned
//! to `Fabric::step_reference` (full scan, occupancy snapshots, per-element
//! datapath): every perf counter is compared after every cycle, SRAM and
//! registers at the end, and the cycle total against the pinned 1656.
//! (`crates/wse-arch/tests/step_equiv.rs` holds the synthetic cases; it
//! runs under `cargo test --workspace`, this under `cargo test`.)

use stencil::mesh::Mesh3D;
use stencil::problem::manufactured;
use stencil::DiaMatrix;
use wse_arch::fabric::StallReport;
use wse_arch::types::{Reg, TaskId};
use wse_arch::Fabric;
use wse_core::recovery::FabricCheckpoint;
use wse_core::{WaferBicgstab, WaferExec};
use wse_float::F16;

/// Two fabrics holding the same program, driven as one machine: host
/// operations go to both, phases step both in lockstep.
struct Pair {
    fast: Fabric,
    oracle: Fabric,
}

impl WaferExec for Pair {
    type Checkpoint = (FabricCheckpoint, FabricCheckpoint);

    fn dims(&self) -> (usize, usize) {
        self.fast.dims()
    }

    fn activate(&mut self, x: usize, y: usize, task: TaskId) {
        self.fast.activate(x, y, task);
        self.oracle.activate(x, y, task);
    }

    fn run_phase(
        &mut self,
        name: &'static str,
        budget: u64,
        _window: u64,
    ) -> Result<u64, Box<StallReport>> {
        let start = self.fast.cycle();
        while !self.fast.is_quiescent() {
            assert!(self.fast.cycle() - start < budget, "phase {name} overran its budget");
            self.fast.step();
            self.oracle.step();
            assert_eq!(
                self.fast.perf(),
                self.oracle.perf(),
                "phase {name}: counters diverged in cycle {}",
                self.fast.cycle()
            );
        }
        assert!(self.oracle.is_quiescent(), "phase {name}: only one stepper quiesced");
        Ok(self.fast.cycle() - start)
    }

    fn store_f16(&mut self, x: usize, y: usize, addr: u32, data: &[F16]) {
        self.fast.store_f16(x, y, addr, data);
        self.oracle.store_f16(x, y, addr, data);
    }

    fn load_f16(&self, x: usize, y: usize, addr: u32, len: usize) -> Vec<F16> {
        let words = self.fast.load_f16(x, y, addr, len);
        let bits = |v: &[F16]| v.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&words), bits(&self.oracle.load_f16(x, y, addr, len)));
        words
    }

    fn set_reg(&mut self, x: usize, y: usize, reg: Reg, value: f32) {
        self.fast.set_reg(x, y, reg, value);
        self.oracle.set_reg(x, y, reg, value);
    }

    fn reg(&self, x: usize, y: usize, reg: Reg) -> f32 {
        let value = WaferExec::reg(&self.fast, x, y, reg);
        assert_eq!(value.to_bits(), WaferExec::reg(&self.oracle, x, y, reg).to_bits());
        value
    }

    fn checkpoint(&mut self) -> Self::Checkpoint {
        (self.fast.checkpoint(), self.oracle.checkpoint())
    }

    fn restore_checkpoint(&mut self, ckpt: &Self::Checkpoint) {
        self.fast.restore_checkpoint(&ckpt.0);
        self.oracle.restore_checkpoint(&ckpt.1);
    }

    fn reset_transient(&mut self) {
        WaferExec::reset_transient(&mut self.fast);
        WaferExec::reset_transient(&mut self.oracle);
    }

    fn phase_marker(&mut self, name: &'static str) {
        WaferExec::phase_marker(&mut self.fast, name);
        WaferExec::phase_marker(&mut self.oracle, name);
    }
}

#[test]
fn dense_bicgstab_steps_identically_under_both_steppers() {
    // The bench's problem (e2e-bench/src/workloads/solve3d.rs, seed 2020).
    let mesh = Mesh3D::new(8, 8, 64);
    let problem = manufactured(mesh, (0.5, -0.25, 0.25), 2020).preconditioned();
    let a: DiaMatrix<F16> = problem.matrix.convert();
    let b: Vec<F16> = problem.rhs.iter().map(|&v| F16::from_f64(v)).collect();

    let mut pair = Pair { fast: Fabric::new(8, 8), oracle: Fabric::new(8, 8) };
    pair.oracle.use_reference_stepper(true);
    let solver = WaferBicgstab::build(&mut pair.fast, &a);
    WaferBicgstab::build(&mut pair.oracle, &a);

    solver.load_rhs(&mut pair, &b);
    let cycles: u64 = (0..2).map(|_| solver.iterate(&mut pair).total()).sum();
    assert_eq!(cycles, 1656, "the pinned two-iteration cycle count (legacy.dense_2iter_cycles)");

    assert_eq!(pair.fast.cycle(), pair.oracle.cycle());
    for y in 0..8 {
        for x in 0..8 {
            let (fast, oracle) = (pair.fast.tile(x, y), pair.oracle.tile(x, y));
            assert!(fast.mem.as_bytes() == oracle.mem.as_bytes(), "SRAM of tile ({x},{y})");
            assert_eq!(
                fast.core.regs.map(f32::to_bits),
                oracle.core.regs.map(f32::to_bits),
                "registers of tile ({x},{y})"
            );
        }
    }
}
