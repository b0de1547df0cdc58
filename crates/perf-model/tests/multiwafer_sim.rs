//! Cross-validation of `MultiWafer` against the `wse-multi` simulation:
//! the model's interconnect terms (exposed halo wire time + the host-level
//! AllReduce round-trip) must bracket the cycles the cycle-accurate
//! ensemble actually spends on exposed halo and in `host_allreduce`.
//!
//! The model is a *floor*: it prices pure wire time (serialization +
//! link latency), while the simulation additionally executes the on-wafer
//! seam tasks (DSR arming, launch slots, ramp traversal) and the on-wafer
//! re-broadcast half of the hierarchical AllReduce. The measured delta is
//! documented in DESIGN.md §12.

use perf_model::cs1::Cs1Model;
use perf_model::multiwafer::MultiWafer;
use stencil::dia::DiaMatrix;
use stencil::mesh::Mesh3D;
use stencil::precond::jacobi_scale;
use stencil::stencil7::poisson;
use wse_core::WaferBicgstabMulti;
use wse_float::F16;
use wse_multi::{HostLink, MultiFabric};

/// The smoke shape: a fixed 4×4-tile, z = 16 slab per wafer.
const H: usize = 4;
const Z: usize = 16;

/// A k-wafer ensemble over paper-default host links, and the weak-scaled
/// (global width `4k`) Jacobi-scaled Poisson system it solves.
fn weak_scaled(k: usize) -> (MultiFabric, DiaMatrix<F16>, Vec<F16>) {
    let mesh = Mesh3D::new(4 * k, H, Z);
    let a64 = poisson(mesh);
    let b64: Vec<f64> = (0..mesh.len()).map(|i| ((i * 29 % 101) as f64 / 101.0) - 0.4).collect();
    let sys = jacobi_scale(&a64, &b64);
    let b = sys.rhs.iter().map(|&v| F16::from_f64(v)).collect();
    let link = HostLink::new(1000.0, 0.2, Cs1Model::default().clock_ghz);
    (MultiFabric::new(4 * k, H, k, link), sys.matrix.convert(), b)
}

#[test]
fn simulated_overlapped_fused_beats_the_serial_wire_floor() {
    // Weak-scaled shapes under the overlapped interior-first schedule plus
    // the single-reduction fused solver.
    let clock_ghz = Cs1Model::default().clock_ghz;
    for k in [2usize, 4] {
        let (mut multi, a, b) = weak_scaled(k);
        let dist = WaferBicgstabMulti::build_fused(&mut multi, &a);
        dist.load_rhs(&mut multi, &b);
        let c = dist.iterate(&mut multi);
        let sim_extra = c.halo + c.host_allreduce;
        eprintln!(
            "fused k={k}: halo_exposed={} halo_hidden={} host_allreduce={} spmv={}",
            c.halo, c.halo_hidden, c.host_allreduce, c.compute.spmv
        );

        // The whole point of the schedule: the overlapped + fused
        // interconnect time drops below the wire-time floor of a blocking
        // schedule — both halo planes' full wire time plus four scalar
        // rounds over the ⌈log₂ k⌉-level host tree.
        let model = MultiWafer { k, ..Default::default() };
        let (lat, bw) = (model.link_latency_us, model.link_gb_s * 1e3);
        let levels = (k as f64).log2().ceil();
        let serial_us = 2.0 * (lat + (H * Z * 2) as f64 / bw) + 8.0 * levels * lat;
        let serial_floor = (serial_us * clock_ghz * 1e3) as u64;
        assert!(
            sim_extra < serial_floor,
            "k={k}: overlapped+fused ({sim_extra} cycles) should beat the serial wire floor \
             ({serial_floor})"
        );

        // The overlapped model brackets the measured terms when fed the
        // simulator's own SpMV window (two windows per iteration): each
        // term from below, and their sum within [1x, 2x].
        let window_us = (c.compute.spmv as f64 / 2.0) / (clock_ghz * 1e3);
        let (exposed_us, fused_reduce_us) = model.interconnect_overlapped_us(H, Z, window_us);
        let reduce_cycles = (fused_reduce_us * clock_ghz * 1e3) as u64;
        assert!(
            c.host_allreduce >= reduce_cycles && c.host_allreduce <= 2 * reduce_cycles,
            "k={k}: fused host round-trip {} outside [{reduce_cycles}, {}]",
            c.host_allreduce,
            2 * reduce_cycles
        );
        let exposed_floor = (exposed_us * clock_ghz * 1e3) as u64;
        assert!(
            c.halo >= exposed_floor,
            "k={k}: measured exposure {} beat the model's exposed wire time {exposed_floor}",
            c.halo
        );
        let model_cycles = ((exposed_us + fused_reduce_us) * clock_ghz * 1e3) as u64;
        assert!(
            sim_extra >= model_cycles && sim_extra <= 2 * model_cycles,
            "k={k}: interconnect {sim_extra} cycles vs modeled {model_cycles} (want [1x, 2x])"
        );
    }
}

#[test]
fn k2_weak_efficiency_beats_the_serial_schedule() {
    // Two fused iterations per ensemble. The pre-overlap serial schedule
    // reached 0.31 at this shape; the overlapped + fused one measures 0.40.
    let cycles = |k: usize| -> u64 {
        let (mut multi, a, b) = weak_scaled(k);
        let dist = WaferBicgstabMulti::build_fused(&mut multi, &a);
        dist.load_rhs(&mut multi, &b);
        (0..2).map(|_| dist.iterate(&mut multi).total()).sum()
    };
    let efficiency = cycles(1) as f64 / cycles(2) as f64;
    assert!(efficiency > 0.31, "k=2 weak efficiency {efficiency:.3} fell to the serial schedule");
}

#[test]
fn predict_mesh_generalizes_predict() {
    let mw = MultiWafer::default();
    for z in [64usize, 512, 1536] {
        let a = mw.predict(z);
        let b = mw.predict_mesh(600, 595, z);
        assert!((a.time_us - b.time_us).abs() < 1e-12);
        assert_eq!(a.mesh, b.mesh);
    }
    // Smaller meshes scale the halo term with the seam plane area: with no
    // window to hide behind, the smoke plane's wire time is the smaller.
    let small = mw.predict_mesh(4, 4, 16);
    let (halo_small, _) = mw.interconnect_overlapped_us(4, 16, 0.0);
    let (halo_paper, _) = mw.interconnect_overlapped_us(595, 1536, 0.0);
    assert!(halo_small < halo_paper);
    assert_eq!(small.mesh, (8, 4, 16));
    // predict_mesh prices the overlapped schedule: the single-reduction
    // iteration plus the exposed halo behind its own SpMV window and one
    // fused round-trip.
    let base = mw.wafer.predict_iteration_single(4, 4, 16);
    let window_us = base.spmv_cycles / 2.0 / (mw.wafer.clock_ghz * 1e3);
    let (exposed, reduce) = mw.interconnect_overlapped_us(4, 16, window_us);
    assert!((small.time_us - (base.time_us + exposed + reduce)).abs() < 1e-12);
}
