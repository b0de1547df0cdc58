//! Deterministic workload generation and the service cost model.
//!
//! The front door is driven open-loop: jobs arrive on a seeded Poisson
//! process regardless of how fast the service drains them, which is how
//! real multi-tenant load looks and what makes p99 sojourn time a
//! meaningful number. Everything here is a pure function of the seed —
//! two runs with the same seed produce the same arrival times to the bit.

use wse_arch::SplitMix64;

/// Simulated-time cost model for the service scheduler.
///
/// Solve time comes from the cycle-stepped simulation (cycles ÷ 0.9 GHz).
/// The host-side costs — compiling a program and DMA-loading a region
/// image over the host link — are modeled with fixed, documented constants
/// so the latency report is deterministic; host *wall-clock* is measured
/// separately and only feeds the report's cold and warm host timings.
#[derive(Copy, Clone, Debug)]
pub struct CostModel {
    /// Fabric clock in GHz (paper: 0.9).
    pub clock_ghz: f64,
    /// Charged once per cold compile (builder + lint on the host), in µs.
    /// Stands in for the minutes-scale place-and-route of the real
    /// toolchain, scaled to keep the simulation balanced.
    pub compile_us: f64,
    /// Host-link bandwidth used to charge region-image loads, in bytes/µs
    /// (16 GB/s ≈ 16 000 B/µs, the ideal host link).
    pub load_bytes_per_us: f64,
    /// Fixed per-load latency floor, in µs.
    pub load_floor_us: f64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            clock_ghz: 0.9,
            compile_us: 10_000.0,
            load_bytes_per_us: 16_000.0,
            load_floor_us: 10.0,
        }
    }
}

impl CostModel {
    /// Converts fabric cycles to microseconds.
    pub fn cycles_to_us(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_ghz * 1e3)
    }

    /// Cost of blitting a region image of `bytes` program state onto the
    /// fabric through the host link.
    pub fn load_us(&self, bytes: u64) -> f64 {
        self.load_floor_us + bytes as f64 / self.load_bytes_per_us
    }
}

/// Arrival times (µs) of `n` jobs from a seeded open-loop Poisson process
/// with mean rate `per_us` (jobs per microsecond). Inter-arrival gaps are
/// exponential via inverse-transform sampling on a [`SplitMix64`] stream;
/// the same `(seed, n, per_us)` always yields the same times.
///
/// # Panics
/// Panics if `per_us` is not strictly positive.
pub fn open_loop_arrivals(seed: u64, n: usize, per_us: f64) -> Vec<f64> {
    assert!(per_us > 0.0, "arrival rate must be positive");
    let mut rng = SplitMix64::new(seed);
    let mut t = 0.0;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        // u uniform in (0, 1]: take 53 high bits, bias away from zero so
        // ln(u) is finite.
        let u = ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        t += -u.ln() / per_us;
        out.push(t);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_deterministic_and_increasing() {
        let a = open_loop_arrivals(42, 100, 0.01);
        let b = open_loop_arrivals(42, 100, 0.01);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        let c = open_loop_arrivals(43, 100, 0.01);
        assert_ne!(a, c);
    }

    #[test]
    fn mean_gap_tracks_the_rate() {
        // 4000 exponential gaps at rate 0.01/µs: mean 100 µs, sample mean
        // within a loose 10% band.
        let a = open_loop_arrivals(7, 4000, 0.01);
        let mean = a.last().unwrap() / a.len() as f64;
        assert!((mean - 100.0).abs() < 10.0, "mean gap {mean}");
    }

    #[test]
    fn cost_model_arithmetic() {
        let m = CostModel::default();
        assert!((m.cycles_to_us(900) - 1.0).abs() < 1e-12);
        assert!((m.load_us(16_000) - 11.0).abs() < 1e-12);
    }
}
