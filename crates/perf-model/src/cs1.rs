//! The CS-1 machine model and the BiCGStab per-iteration cycle model.
//!
//! Machine facts from the paper: ~380,000 cores at 48 KB SRAM each (18 GB),
//! "up to eight 16-bit floating point operations per cycle" per core,
//! "16 bytes of read and 8 bytes of write bandwidth to the memory per
//! cycle", a 602×595 compute fabric on the experiment system, total power
//! 20 kW. The clock is not stated; **0.9 GHz** is inferred jointly from
//! three published numbers — 0.86 PFLOPS being "about one third" of peak on
//! 357,000 used cores, the sub-1.5 µs AllReduce over a ~1197-hop diameter,
//! and the 28.1 µs iteration — and all three reproduce within ten percent
//! under it.
//!
//! The per-iteration cycle model mirrors the schedule the simulator runs
//! (Table I's 2 SpMVs, 4 dots and 6 AXPYs in four AllReduce rounds, with
//! the `(y, y)` dot and two AXPYs on background threads under three of
//! the rounds, so that 3 dots and 4 AXPYs stay on the critical path), and
//! the multi-wafer ensemble's single-reduction iteration from the same
//! slopes ([`Cs1Model::predict_iteration_single`]); the per-element slopes
//! are calibrated against `wse-arch` runs on small fabrics and the fixed
//! offsets cover task scheduling and pipeline fill.

use crate::allreduce::AllReduceModel;

/// Machine and calibration parameters.
#[derive(Copy, Clone, Debug)]
pub struct Cs1Model {
    /// Clock frequency in GHz (inferred; see module docs).
    pub clock_ghz: f64,
    /// Usable compute fabric width (the experiment machine: 602).
    pub fabric_w: usize,
    /// Usable compute fabric height (595).
    pub fabric_h: usize,
    /// Peak fp16 flops per core per cycle (SIMD-4 FMAC).
    pub peak_flops_per_core_cycle: f64,
    /// Total system power in kW (paper: 20).
    pub power_kw: f64,
    /// SpMV cycles per Z element (simulator-calibrated; ideal datapath
    /// bound is 3.0, measured ≈ 3.8 with thread interleave overhead).
    pub spmv_cycles_per_z: f64,
    /// Fixed SpMV cycles (launch, fill, completion tree).
    pub spmv_fixed: f64,
    /// Dot-product cycles per element (mixed MAC: 2 elements/cycle).
    pub dot_cycles_per_z: f64,
    /// Fixed per-dot overhead.
    pub dot_fixed: f64,
    /// AXPY/XPAY cycles per element (SIMD-4).
    pub axpy_cycles_per_z: f64,
    /// Fixed per-update overhead.
    pub axpy_fixed: f64,
    /// The AllReduce latency model.
    pub allreduce: AllReduceModel,
}

impl Default for Cs1Model {
    fn default() -> Cs1Model {
        Cs1Model {
            clock_ghz: 0.9,
            fabric_w: 602,
            fabric_h: 595,
            peak_flops_per_core_cycle: 8.0,
            power_kw: 20.0,
            spmv_cycles_per_z: 3.8,
            spmv_fixed: 30.0,
            dot_cycles_per_z: 0.5,
            dot_fixed: 10.0,
            axpy_cycles_per_z: 0.25,
            axpy_fixed: 8.0,
            allreduce: AllReduceModel::default(),
        }
    }
}

/// A per-iteration prediction.
#[derive(Copy, Clone, Debug)]
pub struct IterationPrediction {
    /// Cycles in the two SpMVs.
    pub spmv_cycles: f64,
    /// Cycles in the local dots on the critical path.
    pub dot_cycles: f64,
    /// Cycles in the vector updates on the critical path.
    pub update_cycles: f64,
    /// Cycles in the AllReduce rounds, each charged the longer of itself
    /// and the work it hides.
    pub allreduce_cycles: f64,
    /// Total cycles.
    pub total_cycles: f64,
    /// Wall time in microseconds.
    pub time_us: f64,
    /// Achieved floating-point rate in PFLOPS (44 ops/meshpoint, Table I).
    pub pflops: f64,
    /// Fraction of the used cores' peak.
    pub utilization: f64,
}

impl Cs1Model {
    /// Total cores on the usable fabric.
    pub fn cores(&self) -> usize {
        self.fabric_w * self.fabric_h
    }

    /// Peak fp16 PFLOPS of `cores` cores.
    pub fn peak_pflops(&self, cores: usize) -> f64 {
        cores as f64 * self.peak_flops_per_core_cycle * self.clock_ghz * 1e9 / 1e15
    }

    /// Predicts one BiCGStab iteration for an `mx × my × z` mesh mapped to
    /// an `mx × my` fabric region (the reduction spans the full machine, as
    /// on the real system): 3 dots and 4 AXPYs on the critical path, and
    /// four rounds, three of which carry the `(y, y)` dot, `x += α p` and
    /// `p −= ω s` on background threads.
    pub fn predict_iteration(&self, mx: usize, my: usize, z: usize) -> IterationPrediction {
        let (dot, axpy) = self.sweeps(z);
        self.schedule(mx, my, z, (3.0 * dot, 4.0 * axpy), 4.0, &[dot, axpy, axpy])
    }

    /// Predicts one iteration of the single-reduction BiCGStab a
    /// multi-wafer ensemble runs, on one wafer: two SpMVs (the first
    /// hides the p-update), one task of eleven dots that pays the fixed
    /// dot cost once, seven visible AXPYs, and one lane-chain round.
    pub fn predict_iteration_single(&self, mx: usize, my: usize, z: usize) -> IterationPrediction {
        let (dot, axpy) = self.sweeps(z);
        let dots = 11.0 * (dot - self.dot_fixed) + self.dot_fixed;
        self.schedule(mx, my, z, (dots, 7.0 * axpy), 1.0, &[])
    }

    /// Cycles of one local dot and of one AXPY over `z` elements.
    fn sweeps(&self, z: usize) -> (f64, f64) {
        let zf = z as f64;
        (self.dot_cycles_per_z * zf + self.dot_fixed, self.axpy_cycles_per_z * zf + self.axpy_fixed)
    }

    /// One iteration of a schedule: `(dot, update)` cycles of local dots
    /// and vector updates on the critical path, `rounds` AllReduce rounds'
    /// worth of reduction, and one round per entry of `hidden` carrying a
    /// kernel of that many cycles, charged the longer of the two.
    fn schedule(
        &self,
        mx: usize,
        my: usize,
        z: usize,
        (dot, update): (f64, f64),
        rounds: f64,
        hidden: &[f64],
    ) -> IterationPrediction {
        assert!(mx <= self.fabric_w && my <= self.fabric_h, "mesh exceeds fabric");
        let spmv = 2.0 * (self.spmv_cycles_per_z * z as f64 + self.spmv_fixed);
        let round = self.allreduce.cycles(self.fabric_w, self.fabric_h);
        let carried: f64 = hidden.iter().map(|&work| round.max(work)).sum();
        let allreduce = (rounds - hidden.len() as f64) * round + carried;
        let total = spmv + dot + update + allreduce;
        let time_us = total / (self.clock_ghz * 1e3);
        let points = (mx * my * z) as f64;
        let flops = 44.0 * points; // Table I
        let pflops = flops / (time_us * 1e-6) / 1e15;
        let utilization = pflops / self.peak_pflops(mx * my);
        IterationPrediction {
            spmv_cycles: spmv,
            dot_cycles: dot,
            update_cycles: update,
            allreduce_cycles: allreduce,
            total_cycles: total,
            time_us,
            pflops,
            utilization,
        }
    }

    /// Table I's iteration as the paper ran it: every dot, AXPY and
    /// AllReduce round on the critical path.
    pub fn predict_iteration_blocking(
        &self,
        mx: usize,
        my: usize,
        z: usize,
    ) -> IterationPrediction {
        let (dot, axpy) = self.sweeps(z);
        self.schedule(mx, my, z, (4.0 * dot, 6.0 * axpy), 4.0, &[])
    }

    /// The paper's headline experiment as the paper ran it: 600 × 595 ×
    /// 1536 under the blocking schedule ([`Cs1Model::predict_iteration_blocking`]).
    pub fn predict_headline(&self) -> IterationPrediction {
        self.predict_iteration_blocking(600, 595, 1536)
    }

    /// Prediction under the **fused ω-reduction** variant: the `(q,y)` and
    /// `(y,y)` reductions share one round over two concurrent networks.
    /// Measured on the simulator, the combined round costs about 1.5× a
    /// single round (center-port contention), so the iteration spends
    /// `3.5×` rather than `4×` the AllReduce latency — but both ω-step dots
    /// and all but one AXPY (`p −= ω s`, under the ρ round) stay on the
    /// critical path.
    pub fn predict_iteration_fused(&self, mx: usize, my: usize, z: usize) -> IterationPrediction {
        let (dot, axpy) = self.sweeps(z);
        self.schedule(mx, my, z, (4.0 * dot, 5.0 * axpy), 3.5, &[axpy])
    }

    /// Prediction for a fully **communication-hiding** variant (pipelined
    /// BiCGStab): reductions overlap the SpMVs and only surface when longer
    /// than the compute they hide — at the paper's Z the SpMV is far longer
    /// than a reduction, so the AllReduce term vanishes entirely.
    pub fn predict_iteration_pipelined(
        &self,
        mx: usize,
        my: usize,
        z: usize,
    ) -> IterationPrediction {
        let mut p = self.predict_iteration(mx, my, z);
        let hidden = p.allreduce_cycles.min(p.spmv_cycles);
        p.allreduce_cycles -= hidden;
        p.total_cycles -= hidden;
        p.time_us = p.total_cycles / (self.clock_ghz * 1e3);
        let flops = 44.0 * (mx * my * z) as f64;
        p.pflops = flops / (p.time_us * 1e-6) / 1e15;
        p.utilization = p.pflops / self.peak_pflops(mx * my);
        p
    }

    /// Performance per watt (PFLOPS per kW) for a prediction.
    pub fn pflops_per_kw(&self, p: &IterationPrediction) -> f64 {
        p.pflops / self.power_kw
    }

    /// Predicted time per iteration for alternative mesh shapes (the
    /// paper's "effect of changing mesh size and shape").
    pub fn shape_sweep(
        &self,
        shapes: &[(usize, usize, usize)],
    ) -> Vec<(usize, usize, usize, IterationPrediction)> {
        shapes.iter().map(|&(x, y, z)| (x, y, z, self.predict_iteration(x, y, z))).collect()
    }

    /// Calibrates the per-element slopes from simulator measurements:
    /// `(z, spmv_cycles)` pairs from two or more runs (least squares line).
    pub fn calibrate_spmv(&mut self, samples: &[(usize, u64)]) {
        assert!(samples.len() >= 2, "need at least two samples");
        let n = samples.len() as f64;
        let sx: f64 = samples.iter().map(|&(z, _)| z as f64).sum();
        let sy: f64 = samples.iter().map(|&(_, c)| c as f64).sum();
        let sxx: f64 = samples.iter().map(|&(z, _)| (z as f64) * (z as f64)).sum();
        let sxy: f64 = samples.iter().map(|&(z, c)| z as f64 * c as f64).sum();
        let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
        let intercept = (sy - slope * sx) / n;
        self.spmv_cycles_per_z = slope;
        self.spmv_fixed = intercept.max(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_matches_paper_within_tolerance() {
        let m = Cs1Model::default();
        let p = m.predict_headline();
        // Paper: 28.1 µs per iteration, 0.86 PFLOPS, ~1/3 of peak.
        assert!(
            (p.time_us - 28.1).abs() / 28.1 < 0.15,
            "time {:.1} µs vs paper 28.1 µs",
            p.time_us
        );
        assert!((p.pflops - 0.86).abs() / 0.86 < 0.15, "rate {:.3} PFLOPS vs paper 0.86", p.pflops);
        assert!(
            (0.25..0.45).contains(&p.utilization),
            "utilization {:.2} should be about one third",
            p.utilization
        );
    }

    #[test]
    fn peak_is_about_2_5_pflops() {
        let m = Cs1Model::default();
        let peak = m.peak_pflops(600 * 595);
        assert!((2.0..3.2).contains(&peak), "peak {peak}");
    }

    #[test]
    fn spmv_dominates_the_iteration() {
        let p = Cs1Model::default().predict_headline();
        assert!(p.spmv_cycles > p.dot_cycles);
        assert!(p.spmv_cycles > p.update_cycles);
        assert!(p.spmv_cycles > p.allreduce_cycles);
        assert!(p.spmv_cycles / p.total_cycles > 0.4);
    }

    #[test]
    fn smaller_z_shifts_balance_toward_allreduce() {
        let m = Cs1Model::default();
        let big = m.predict_iteration(600, 595, 1536);
        let small = m.predict_iteration(600, 595, 64);
        assert!(
            small.allreduce_cycles / small.total_cycles > big.allreduce_cycles / big.total_cycles
        );
        assert!(small.utilization < big.utilization, "small problems waste the machine");
    }

    #[test]
    fn shape_sweep_covers_inputs() {
        let m = Cs1Model::default();
        let out = m.shape_sweep(&[(100, 100, 100), (600, 595, 1536)]);
        assert_eq!(out.len(), 2);
        assert!(out[1].3.time_us > out[0].3.time_us * 0.9); // same allreduce floor
    }

    /// The ensemble's iteration: eleven dot sweeps behind one fixed cost,
    /// seven AXPYs, one round, and the classic law's two SpMVs.
    #[test]
    fn single_reduction_law_prices_its_one_round() {
        let m = Cs1Model::default();
        let (single, classic) =
            (m.predict_iteration_single(4, 4, 64), m.predict_iteration(4, 4, 64));
        assert_eq!(single.dot_cycles, 11.0 * 0.5 * 64.0 + 10.0);
        assert_eq!(single.update_cycles, 7.0 * (0.25 * 64.0 + 8.0));
        assert_eq!(single.allreduce_cycles, m.allreduce.cycles(602, 595));
        assert_eq!(single.spmv_cycles, classic.spmv_cycles);
        assert!(single.allreduce_cycles < classic.allreduce_cycles / 3.0);
    }

    #[test]
    fn calibration_fits_a_line() {
        let mut m = Cs1Model::default();
        // Synthetic measurements on the line 4z + 100.
        m.calibrate_spmv(&[(64, 356), (256, 1124), (1024, 4196)]);
        assert!((m.spmv_cycles_per_z - 4.0).abs() < 1e-6);
        assert!((m.spmv_fixed - 100.0).abs() < 1e-6);
    }

    #[test]
    fn perf_per_watt_is_finite_and_positive() {
        let m = Cs1Model::default();
        let p = m.predict_headline();
        let ppw = m.pflops_per_kw(&p);
        assert!(ppw > 0.0 && ppw.is_finite());
        // ~0.86 PFLOPS at 20 kW → ~43 TFLOPS/kW.
        assert!((0.03..0.06).contains(&ppw), "PFLOPS/kW {ppw}");
    }
}
