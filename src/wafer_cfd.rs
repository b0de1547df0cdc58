//! SIMPLE CFD with its four linear solves on the simulated wafer — the
//! §VI vision ("four linear systems are solved at every time step, one for
//! each of the solution variables, three velocity components u, v, w and
//! pressure p") as a running prototype.
//!
//! Division of labor in this prototype: the *assembly* steps (momentum
//! coefficients, pressure correction, field update) run host-side in the
//! `cfd` crate — the paper's Table II costs them analytically — while every
//! **BiCGStab solve executes on the simulated wafer**, with its fp16/fp32
//! arithmetic, SpMV dataflow, and AllReduces, and its cycles accounted.
//! MFIX's production mapping would keep the coefficients resident; here
//! each solve gets a fresh fabric (the simulator's bump allocator does not
//! free), which costs host time but no simulated cycles.

use cfd::continuity::{apply_corrections, assemble_pressure_correction};
use cfd::fields::FlowField;
use cfd::grid::{Component, StaggeredGrid};
use cfd::momentum::assemble_momentum;
use cfd::simple::SimpleParams;
use stencil::precond::jacobi_scale;
use stencil::DiaMatrix;
use wse_arch::Fabric;
use wse_core::{Krylov, WaferBicgstab};
use wse_float::F16;

/// Cycle accounting for one wafer-SIMPLE iteration.
#[derive(Copy, Clone, Debug, Default)]
pub struct WaferSimpleStats {
    /// Simulated cycles spent in the three momentum solves.
    pub momentum_cycles: u64,
    /// Simulated cycles in the continuity solve.
    pub continuity_cycles: u64,
    /// Final relative residual of the worst momentum solve.
    pub momentum_residual: f64,
    /// RMS divergence after the field update.
    pub mass_residual: f64,
}

/// The wafer-coupled SIMPLE driver.
pub struct WaferSimple {
    /// The flow state (host-resident between solves).
    pub field: FlowField,
    /// SIMPLE controls (iteration caps per solve as in the paper: 5 for
    /// momentum, 20 for continuity).
    pub params: SimpleParams,
    /// Per-iteration statistics.
    pub history: Vec<WaferSimpleStats>,
}

/// Solves one assembled f64 system on a fresh simulated wafer at the
/// paper's precision; returns the widened solution and simulated cycles.
fn solve_on_wafer(a: &DiaMatrix<f64>, b: &[f64], iters: usize) -> (Vec<f64>, u64) {
    let sys = jacobi_scale(a, b);
    let a16: DiaMatrix<F16> = sys.matrix.convert();
    let b16: Vec<F16> = sys.rhs.iter().map(|&v| F16::from_f64(v)).collect();
    let mesh = a16.mesh();
    let mut fabric = Fabric::new(mesh.nx, mesh.ny);
    let solver = WaferBicgstab::build(&mut fabric, &a16);
    let (x, stats) = solver.solve(&mut fabric, &b16, iters);
    let cycles = stats.iterations.iter().map(|c| c.total()).sum();
    (x.iter().map(|v| v.to_f64()).collect(), cycles)
}

impl WaferSimple {
    /// A quiescent cavity on an `n³` grid.
    pub fn new(n: usize, params: SimpleParams) -> WaferSimple {
        let grid = StaggeredGrid::new(n, n, n, 1.0 / n as f64);
        WaferSimple { field: FlowField::zeros(grid), params, history: Vec::new() }
    }

    /// Runs one SIMPLE iteration with all four solves on the wafer.
    pub fn iterate(&mut self) -> WaferSimpleStats {
        let mut stats = WaferSimpleStats::default();
        let mut aps: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];

        for (ci, comp) in [Component::U, Component::V, Component::W].into_iter().enumerate() {
            let sys = assemble_momentum(&self.field, comp, &self.params.props);
            let (x, cycles) = solve_on_wafer(&sys.matrix, &sys.rhs, self.params.momentum_iters);
            stats.momentum_cycles += cycles;
            // Track the true residual of the fp16 solution against the f64
            // system.
            let scaled = jacobi_scale(&sys.matrix, &sys.rhs);
            let mut ax = vec![0.0; x.len()];
            scaled.matrix.matvec_f64(&x, &mut ax);
            let num: f64 =
                scaled.rhs.iter().zip(&ax).map(|(b, a)| (b - a) * (b - a)).sum::<f64>().sqrt();
            let den: f64 = scaled.rhs.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-300);
            stats.momentum_residual = stats.momentum_residual.max(num / den);
            *self.field.component_mut(comp) = x;
            aps[ci] = sys.ap;
        }

        let psys = assemble_pressure_correction(&self.field, &aps[0], &aps[1], &aps[2]);
        let (p_prime, cycles) =
            solve_on_wafer(&psys.matrix, &psys.rhs, self.params.continuity_iters);
        stats.continuity_cycles = cycles;
        apply_corrections(&mut self.field, &psys, &p_prime, self.params.alpha_p);

        stats.mass_residual = self.field.divergence_rms();
        self.history.push(stats);
        stats
    }

    /// Runs `n` iterations; returns the last statistics.
    pub fn run(&mut self, n: usize) -> WaferSimpleStats {
        let mut last = WaferSimpleStats::default();
        for _ in 0..n {
            last = self.iterate();
        }
        last
    }

    /// Total simulated solver cycles so far.
    pub fn total_cycles(&self) -> u64 {
        self.history.iter().map(|s| s.momentum_cycles + s.continuity_cycles).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wafer_simple_develops_cavity_flow() {
        let mut ws = WaferSimple::new(4, SimpleParams::default());
        let last = ws.run(6);
        assert!(ws.field.kinetic_energy() > 1e-7, "flow must develop");
        assert!(last.mass_residual < 0.1, "mass residual {}", last.mass_residual);
        assert!(last.momentum_cycles > 0 && last.continuity_cycles > 0);
        // The continuity solve gets 4x the iteration budget of a momentum
        // solve (20 vs 5) but there are three momentum solves.
        assert!(
            last.continuity_cycles > last.momentum_cycles / 3,
            "continuity is the long solve: {last:?}"
        );
    }

    #[test]
    fn wafer_simple_tracks_host_simple() {
        // The wafer solves run at fp16 with capped iterations; the flow
        // field should still track the all-f64 host SIMPLE qualitatively.
        let n = 4;
        let params = SimpleParams::default();
        let mut ws = WaferSimple::new(n, params);
        ws.run(6);
        let mut host =
            cfd::simple::SimpleSolver::new(StaggeredGrid::new(n, n, n, 1.0 / n as f64), params);
        host.run(6);
        // Compare the u-fields: correlated within fp16-solve tolerance.
        let (a, b) = (&ws.field.u, &host.field.u);
        let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
        let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
        let cosine = dot / (na * nb).max(1e-300);
        assert!(cosine > 0.95, "wafer and host flow fields correlate: {cosine}");
    }
}
