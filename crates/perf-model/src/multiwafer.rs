//! Multi-wafer clustering — §VIII.B's closing direction: "Solutions
//! involving the clustering, with sufficient bandwidth, of several
//! wafer-scale systems is certainly a possibility."
//!
//! Model: `k` wafers tile the mesh along X, under the schedule the
//! `wse-core` multi-wafer solver runs (overlapped halo exchange, fused
//! single reduction). Each inter-wafer interface crosses a Y×Z plane of the
//! mesh twice per BiCGStab iteration (once per SpMV), in fp16, behind the
//! SpMV it feeds: only wire time outlasting the SpMV is exposed. The one
//! global reduction per iteration pays a round-trip over the binomial host
//! tree. The model answers the §VIII.B question directly: *how much*
//! inter-wafer bandwidth is "sufficient"?

use crate::cs1::Cs1Model;

/// Multi-wafer configuration.
#[derive(Copy, Clone, Debug)]
pub struct MultiWafer {
    /// The per-wafer machine.
    pub wafer: Cs1Model,
    /// Number of wafers, tiled along the mesh X axis.
    pub k: usize,
    /// Inter-wafer link bandwidth per interface, GB/s.
    pub link_gb_s: f64,
    /// One-way inter-wafer message latency, µs.
    pub link_latency_us: f64,
}

impl Default for MultiWafer {
    fn default() -> MultiWafer {
        MultiWafer { wafer: Cs1Model::default(), k: 2, link_gb_s: 1000.0, link_latency_us: 0.2 }
    }
}

/// One prediction row.
#[derive(Copy, Clone, Debug)]
pub struct MultiWaferPrediction {
    /// Wafers.
    pub k: usize,
    /// Mesh solved (x-extent grows with k).
    pub mesh: (usize, usize, usize),
    /// Time per iteration, µs.
    pub time_us: f64,
    /// Aggregate PFLOPS.
    pub pflops: f64,
    /// Parallel efficiency vs. one wafer on 1/k of the mesh.
    pub efficiency: f64,
}

impl MultiWafer {
    /// Predicts one BiCGStab iteration for a `(k·600) × 595 × z` mesh split
    /// across the `k` wafers (weak scaling in X) — the paper-scale shape.
    pub fn predict(&self, z: usize) -> MultiWaferPrediction {
        self.predict_mesh(600, 595, z)
    }

    /// Predicts one BiCGStab iteration for a general `(k·mx) × my × z`
    /// mesh (per-wafer slab `mx × my × z`, weak scaling in X): the
    /// single-reduction iteration on one wafer
    /// ([`Cs1Model::predict_iteration_single`]) plus
    /// [`MultiWafer::interconnect_overlapped_us`] with the iteration's SpMV
    /// window (two per iteration). This is the shape the `wse-multi`
    /// simulation cross-validates against.
    pub fn predict_mesh(&self, mx: usize, my: usize, z: usize) -> MultiWaferPrediction {
        let base = self.wafer.predict_iteration_single(mx, my, z);
        let window_us = base.spmv_cycles / 2.0 / (self.wafer.clock_ghz * 1e3);
        let (halo_us, reduce_us) = self.interconnect_overlapped_us(my, z, window_us);
        let time_us = base.time_us + halo_us + reduce_us;
        let points = (self.k * mx * my * z) as f64;
        let pflops = 44.0 * points / (time_us * 1e-6) / 1e15;
        MultiWaferPrediction {
            k: self.k,
            mesh: (self.k * mx, my, z),
            time_us,
            pflops,
            efficiency: base.time_us / time_us,
        }
    }

    /// The per-iteration interconnect terms `(halo_exposed_us, reduce_us)`
    /// of the **overlapped + fused** schedule the `wse-core` multi-wafer
    /// solver runs, for a `my × z` seam plane: what the host link adds on
    /// top of the single-wafer iteration. The halo term is only the wire
    /// time left exposed after hiding one `my × z` fp16 plane behind an
    /// SpMV window of `spmv_window_us` (two windows per iteration), and the
    /// reduction term is the *single* fused round-trip per iteration — 11
    /// fp32 dot lanes up and a 6-word fp32 reply down the `⌈log₂ k⌉`-level
    /// binomial host tree. Exposed so the simulator's measured exposed halo
    /// and host-AllReduce cycles can be checked against the model's terms
    /// in isolation.
    pub fn interconnect_overlapped_us(
        &self,
        my: usize,
        z: usize,
        spmv_window_us: f64,
    ) -> (f64, f64) {
        if self.k <= 1 {
            return (0.0, 0.0);
        }
        let plane_bytes = my as f64 * z as f64 * 2.0;
        let wire_us = self.link_latency_us + plane_bytes / (self.link_gb_s * 1e3);
        let halo_exposed_us = 2.0 * (wire_us - spmv_window_us).max(0.0);
        let levels = (self.k as f64).log2().ceil();
        let [lanes_us, reply_us] = [11.0, 6.0].map(|words| words * 4.0 / (self.link_gb_s * 1e3));
        let reduce_us = levels * (2.0 * self.link_latency_us + lanes_us + reply_us);
        (halo_exposed_us, reduce_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_wafer_reduces_to_base_model() {
        let mw = MultiWafer { k: 1, ..Default::default() };
        let p = mw.predict(1536);
        let base = Cs1Model::default().predict_iteration_single(600, 595, 1536);
        assert!((p.time_us - base.time_us).abs() < 1e-9);
        assert!((p.efficiency - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_wafers_with_good_links_stay_efficient() {
        let mw = MultiWafer::default(); // 1 TB/s, 0.2 µs
        let p = mw.predict(1536);
        assert!(p.efficiency > 0.75, "efficiency {}", p.efficiency);
        assert!(p.pflops > 1.2, "two wafers should well exceed one: {}", p.pflops);
        assert_eq!(p.mesh.0, 1200);
    }

    #[test]
    fn starved_links_destroy_scaling() {
        let mw = MultiWafer { link_gb_s: 1.0, ..Default::default() };
        let p = mw.predict(1536);
        assert!(p.efficiency < 0.5, "1 GB/s cannot feed a wafer: {}", p.efficiency);
    }

    #[test]
    fn overlapped_interconnect_hides_the_halo_behind_a_wide_spmv() {
        let mw = MultiWafer::default();
        // The serial floor: both planes' full wire time, and four scalar
        // rounds over the ⌈log₂ k⌉-level tree (k = 2: one level).
        let (lat, plane_us) = (mw.link_latency_us, 595.0 * 1536.0 * 2.0 / (mw.link_gb_s * 1e3));
        let (serial_halo, serial_reduce) = (2.0 * (lat + plane_us), 8.0 * lat);
        // A paper-scale SpMV window (tens of µs) swallows the wire time
        // entirely: nothing exposed, and the fused single reduction costs
        // far less than four scalar rounds.
        let (exposed, reduce) = mw.interconnect_overlapped_us(595, 1536, 30.0);
        assert_eq!(exposed, 0.0, "wire time should hide behind a 30 µs window");
        assert!(reduce < serial_reduce / 3.0, "fused {reduce} vs serial {serial_reduce}");
        // A zero-width window degenerates to the serial halo term.
        let (all_exposed, _) = mw.interconnect_overlapped_us(595, 1536, 0.0);
        assert!((all_exposed - serial_halo).abs() < 1e-9);
        // k=1 has no seams in either schedule.
        let solo = MultiWafer { k: 1, ..mw };
        assert_eq!(solo.interconnect_overlapped_us(595, 1536, 0.0), (0.0, 0.0));
    }

    #[test]
    fn overlapped_exposure_is_monotone_in_window_width() {
        let mw = MultiWafer { link_gb_s: 10.0, ..Default::default() };
        let mut prev = f64::INFINITY;
        for window in [0.0, 5.0, 50.0, 500.0] {
            let (exposed, _) = mw.interconnect_overlapped_us(595, 1536, window);
            assert!(exposed <= prev, "wider window must expose less: {exposed} > {prev}");
            prev = exposed;
        }
        assert_eq!(prev, 0.0, "a huge window hides even a starved link's transfer");
    }

    #[test]
    fn efficiency_degrades_gracefully_with_k() {
        let mut prev = 1.0;
        for k in [1usize, 2, 4, 8] {
            let p = MultiWafer { k, ..Default::default() }.predict(1536);
            assert!(p.efficiency <= prev + 1e-12, "monotone: {} then {}", prev, p.efficiency);
            prev = p.efficiency;
        }
        assert!(prev > 0.5, "8 wafers at 400 GB/s still worthwhile: {prev}");
    }
}
