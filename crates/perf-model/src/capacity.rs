//! Memory-capacity frontier and the §VIII use cases.
//!
//! §VIII.B: "A technology shrink from the 16 nm to 7 nm technology node will
//! provide about 40 GB of SRAM on the wafer and further increases (to 50 GB
//! at 5 nm) will follow." This module models which problems fit each
//! generation, and quantifies the three §VIII.B campaign use cases — wind
//! turbine design optimization (Madsen et al.), the 1,505-run carbon-capture
//! UQ campaign (Xu et al.), and the 83-hour ship-hull CFD case (Jasak et
//! al.) — under the §VI.A CS-1 rate versus a conventional cluster.

use crate::cs1::Cs1Model;
use crate::mfix::MfixProjection;

/// One wafer generation.
#[derive(Copy, Clone, Debug)]
pub struct WaferGeneration {
    /// Marketing name / node.
    pub name: &'static str,
    /// Total on-wafer SRAM in GiB.
    pub sram_gib: f64,
    /// Cores (kept at the CS-1 count for the paper's projections).
    pub cores: usize,
}

/// The generations the paper names: CS-1 at 16 nm, then 7 nm and 5 nm.
pub fn generations() -> [WaferGeneration; 3] {
    [
        WaferGeneration { name: "CS-1 (16 nm)", sram_gib: 18.0, cores: 380_000 },
        WaferGeneration { name: "7 nm shrink", sram_gib: 40.0, cores: 380_000 },
        WaferGeneration { name: "5 nm shrink", sram_gib: 50.0, cores: 380_000 },
    ]
}

impl WaferGeneration {
    /// Bytes of SRAM per core.
    pub fn bytes_per_core(&self) -> f64 {
        self.sram_gib * (1u64 << 30) as f64 / self.cores as f64
    }

    /// Largest Z per core for the BiCGStab 3D mapping (10 Z fp16 words of
    /// solver data plus ~1 KB of code/FIFO overhead per core).
    pub fn max_z(&self) -> usize {
        ((self.bytes_per_core() - 1024.0) / (10.0 * 2.0)) as usize
    }

    /// Total solvable mesh points under the 3D mapping.
    pub fn max_points(&self, fabric_w: usize, fabric_h: usize) -> u64 {
        (fabric_w as u64) * (fabric_h as u64) * self.max_z() as u64
    }
}

/// A §VIII.B campaign use case.
#[derive(Copy, Clone, Debug)]
pub struct Campaign {
    /// Name, as cited by the paper.
    pub name: &'static str,
    /// Number of (sequential, for optimization; independent, for UQ)
    /// simulations.
    pub runs: u32,
    /// Mesh cells per simulation.
    pub cells: u64,
    /// Simulated time steps per run.
    pub steps_per_run: u32,
    /// `true` if the runs must execute sequentially (optimization loops).
    pub sequential: bool,
}

/// The paper's three §VIII.B examples, with representative magnitudes.
pub fn paper_campaigns() -> [Campaign; 3] {
    [
        // Madsen et al.: 14–50 M cells, hundreds-to-thousands of sequential
        // simulations for shape optimization.
        Campaign {
            name: "wind-turbine shape optimization",
            runs: 500,
            cells: 14_000_000,
            steps_per_run: 20_000,
            sequential: true,
        },
        // Xu et al.: 1,505 simulations, each ~600 s of simulated time.
        Campaign {
            name: "carbon-capture UQ (1505 runs)",
            runs: 1505,
            cells: 1_000_000,
            steps_per_run: 60_000,
            sequential: false,
        },
        // Jasak et al.: 11.7 M cells, 83 h on an engineering cluster.
        Campaign {
            name: "ship self-propulsion CFD",
            runs: 1,
            cells: 11_700_000,
            steps_per_run: 100_000,
            sequential: true,
        },
    ]
}

/// Time for one campaign on the CS-1, using the §VI.A SIMPLE rate scaled to
/// the campaign's cell count (rate ∝ 1/Z at fixed fabric ⇒ ∝ 1/cells with
/// the x–y footprint pinned at the fabric).
pub fn campaign_hours_cs1(c: &Campaign) -> f64 {
    let proj = MfixProjection::default().project();
    // steps/s at 600³ = 2.16e8 cells; scale inversely with cells.
    let base_cells = 600f64.powi(3);
    let steps_per_sec = 0.5
        * (proj.steps_per_sec_low + proj.steps_per_sec_high)
        * (base_cells / c.cells as f64).min(50.0);
    (c.runs as f64 * c.steps_per_run as f64 / steps_per_sec) / 3600.0
}

/// Time for the same campaign on a 16,384-core cluster partition (the
/// §VI.A comparison point: the CS-1 runs >200× faster per step).
pub fn campaign_hours_cluster(c: &Campaign) -> f64 {
    let proj = MfixProjection::default().project();
    campaign_hours_cs1(c) * proj.speedup_vs_joule
}

/// The largest BiCGStab problem fitting each generation (summary rows).
pub fn capacity_table(model: &Cs1Model) -> Vec<(WaferGeneration, usize, u64)> {
    generations()
        .into_iter()
        .map(|g| {
            let z = g.max_z();
            let pts = g.max_points(model.fabric_w, model.fabric_h);
            (g, z, pts)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cs1_generation_matches_known_limits() {
        let g = generations()[0];
        assert!((g.bytes_per_core() - 48.0 * 1024.0).abs() < 4096.0, "~48 KB/core");
        // Paper Z = 1536 fits, with headroom to ~2.3k.
        assert!(g.max_z() > 1536);
        assert!(g.max_z() < 3000);
    }

    #[test]
    fn shrinks_grow_capacity_monotonically() {
        let gens = generations();
        assert!(gens[1].max_z() > 2 * gens[0].max_z());
        assert!(gens[2].max_z() > gens[1].max_z());
        // 7 nm: "about 40 GB" supports Z over 5000.
        assert!(gens[1].max_z() > 5000);
    }

    #[test]
    fn max_points_scale_with_sram() {
        let m = Cs1Model::default();
        let rows = capacity_table(&m);
        assert_eq!(rows.len(), 3);
        assert!(rows[2].2 > rows[0].2 * 2);
        // CS-1: 600²×1536-class problems ≈ 0.55–0.9 G points.
        assert!(rows[0].2 > 500_000_000);
    }

    #[test]
    fn campaigns_are_tractable_on_wafer_and_not_on_cluster() {
        for c in paper_campaigns() {
            let wafer = campaign_hours_cs1(&c);
            let cluster = campaign_hours_cluster(&c);
            assert!(wafer > 0.0 && wafer.is_finite());
            assert!(
                cluster > 100.0 * wafer,
                "{}: cluster {cluster:.1} h vs wafer {wafer:.1} h",
                c.name
            );
        }
        // The ship case: tens of hours on a cluster-class machine (paper:
        // 83 h on an engineering system), well under an hour per run-hour
        // equivalent on the wafer.
        let ship = paper_campaigns()[2];
        assert!(campaign_hours_cs1(&ship) < campaign_hours_cluster(&ship) / 200.0);
    }
}
