//! `multiwafer-k2`: the fused single-reduction BiCGStab on two linked
//! wafers (8×4×64, paper-default 1 TB/s / 0.2 µs host link), plus the
//! k=1 4×4×64 reference `weak_efficiency` divides by. The same stepper as
//! `solve3d-dense`, driven in lockstep through seams, halo overlap and
//! the host tree combine.
//!
//! Two phases, because the two halves have different clocks worth gating:
//!
//! - **k=2** (at most ten rounds): its simulated metrics repeat exactly,
//!   so ten rounds prove them. Its host time does not repeat at all —
//!   `MultiFabric::step_linked` spawns a thread per wafer per cycle, so
//!   most of it is the scheduler — and every call here is a diagnostic,
//!   in neither `op_host_ms` nor `setup_s`.
//! - **k=1 reference** (the rest of the run): one shard, so no thread is
//!   ever spawned. Its set-up and units are the gated host floor of the
//!   lockstep driver.

use super::solve3d::{assemble, exact_iter_cycles, solve_digests, true_rel_residual};
use super::{Outcome, Phase, Workload};
use crate::harness::{Kind, Round};
use crate::metrics::CLOCK_GHZ;
use perf_model::cs1::Cs1Model;
use perf_model::multiwafer::MultiWafer;
use std::collections::BTreeMap;
use std::time::Instant;
use stencil::mesh::Mesh3D;
use wse_arch::TraceConfig;
use wse_core::bicgstab::IterCycles;
use wse_core::{MultiIterCycles, WaferBicgstabMulti};
use wse_multi::{HostLink, MultiFabric};

/// Per-wafer slab: 4×4 tiles, 64 deep.
const SLAB: (usize, usize, usize) = (4, 4, 64);
const ITERS: usize = 4;
const LINK_GB_S: f64 = 1000.0;
const LINK_LATENCY_US: f64 = 0.2;
/// ‖b−Ax‖/‖b‖ after 4 iterations (observed 0.010 at k=1, 0.015–0.017 at k=2).
const REL_RESIDUAL_BOUND: f64 = 0.2;

pub struct Multi {
    seed: u64,
}

impl Multi {
    pub fn new(seed: u64) -> Multi {
        Multi { seed }
    }
}

/// Names of one ensemble size's calls, in program order.
struct Calls {
    assemble: &'static str,
    new: &'static str,
    build: &'static str,
    load_rhs: &'static str,
    iterate: &'static str,
    residual_norm: &'static str,
    read_x: &'static str,
}

const K1: Calls = Calls {
    assemble: "stencil.assemble",
    new: "wse-multi.new",
    build: "wse-core.build",
    load_rhs: "wse-core.load_rhs",
    iterate: "wse-core.iterate",
    residual_norm: "wse-core.residual_norm",
    read_x: "wse-core.read_x",
};

const K2: Calls = Calls {
    assemble: "wse-multi.k2_assemble",
    new: "wse-multi.k2_new",
    build: "wse-multi.k2_build",
    load_rhs: "wse-multi.k2_load_rhs",
    iterate: "wse-multi.k2_iterate",
    residual_norm: "wse-multi.k2_residual_norm",
    read_x: "wse-multi.k2_read_x",
};

impl Multi {
    /// One solve on `k` wafers. `gated` rounds record set-up and op calls;
    /// the others record diagnostics only.
    fn solve(&self, k: usize, r: &mut Round<'_>, armed: bool) -> Result<Outcome, String> {
        let gated = k == 1;
        let calls = if gated { &K1 } else { &K2 };
        let (setup, op) = if gated { (Kind::Setup, Kind::Op) } else { (Kind::Diag, Kind::Diag) };

        let (w, h, z) = (SLAB.0 * k, SLAB.1, SLAB.2);
        let (a64, a16, b16) =
            r.call(setup, calls.assemble, || assemble(Mesh3D::new(w, h, z), self.seed));
        let link = HostLink::new(LINK_GB_S, LINK_LATENCY_US, CLOCK_GHZ);
        let mut multi = r.call(setup, calls.new, || MultiFabric::new(w, h, k, link));
        let solver =
            r.call(setup, calls.build, || WaferBicgstabMulti::build_fused(&mut multi, &a16));
        if armed {
            for m in 0..k {
                multi.shard_mut(m).arm_trace(TraceConfig::default());
            }
        }

        let cycle0 = multi.cycle();
        let perf0: Vec<_> = (0..k).map(|m| multi.shard(m).perf()).collect();
        let t0 = Instant::now();
        r.call(op, calls.load_rhs, || solver.load_rhs(&mut multi, &b16));
        let iters: Vec<MultiIterCycles> =
            (0..ITERS).map(|_| r.call(op, calls.iterate, || solver.iterate(&mut multi))).collect();
        let wafer_norm = r.call(op, calls.residual_norm, || solver.residual_norm(&mut multi));
        let x = r.call(op, calls.read_x, || solver.read_x(&multi));
        let op_host_us = t0.elapsed().as_secs_f64() * 1e6;
        let op_cycles = multi.cycle() - cycle0;

        let mut out = Outcome::default();
        if armed {
            let trace = r.diag("wse-trace.take_trace", || multi.shard_mut(0).take_trace());
            let trace = trace.ok_or("armed shard returned no trace")?;
            let events = out.push_trace("shard 0", &trace, 0);
            out.host.push(("wse-trace.events".into(), events as f64));
        }

        let rel = true_rel_residual(&a64, &b16, &x);
        let iter_cycles: u64 = iters.iter().map(MultiIterCycles::total).sum();
        let us_per_iter = iter_cycles as f64 / ITERS as f64 / (CLOCK_GHZ * 1e3);
        if gated {
            out.exact("wse-multi.k1_sim_us_per_iter", us_per_iter);
            out.exact("wse-multi.k1_rel_residual", rel);
            out.exact("wse-arch.tile_cycles", (iter_cycles * (w * h) as u64) as f64);
        } else {
            let sum = |f: fn(&MultiIterCycles) -> u64| iters.iter().map(f).sum::<u64>();
            let (exposed, hidden) = (sum(|c| c.halo), sum(|c| c.halo_hidden));
            let wafer = Cs1Model { fabric_w: SLAB.0, fabric_h: SLAB.1, ..Cs1Model::default() };
            let model =
                MultiWafer { wafer, k, link_gb_s: LINK_GB_S, link_latency_us: LINK_LATENCY_US };
            let pred_us = model.predict_mesh(SLAB.0, SLAB.1, SLAB.2).time_us;
            let perf: Vec<_> =
                perf0.into_iter().enumerate().map(|(m, p)| (p, multi.shard(m).perf())).collect();
            out.exact_perf(&perf);
            out.exact("op_sim_cycles", op_cycles as f64);
            out.exact("sim_us_per_iter", us_per_iter);
            out.exact("rel_residual_final", rel);
            out.exact("wse-multi.halo_exposed_cycles", exposed as f64);
            out.exact("wse-multi.halo_hidden_cycles", hidden as f64);
            out.exact("wse-multi.host_allreduce_cycles", sum(|c| c.host_allreduce) as f64);
            out.exact("wse-multi.hidden_share", hidden as f64 / (exposed + hidden).max(1) as f64);
            out.exact("wse-multi.retransmits", multi.retransmits() as f64);
            out.exact("perf-model.pred_us_per_iter", pred_us);
            out.exact("perf-model.sim_over_pred", us_per_iter / pred_us);
            let compute: Vec<IterCycles> = iters.iter().map(|c| c.compute).collect();
            exact_iter_cycles(&mut out, &compute);
            out.host.push(("wse-multi.k2_op_host_ms".into(), op_host_us / 1e3));
            out.host.push((
                "wse-multi.host_us_per_cycle_p50".into(),
                op_host_us / op_cycles.max(1) as f64,
            ));
        }

        let totals = iters.iter().map(MultiIterCycles::total);
        (out.output_digest, out.input_digest) = solve_digests(wafer_norm, &x, totals, &b16);

        if rel.is_nan() || rel >= REL_RESIDUAL_BOUND {
            return Err(format!("k={k}: residual {rel:.3e} is not below {REL_RESIDUAL_BOUND}"));
        }
        if multi.retransmits() != 0 {
            return Err(format!("k={k}: {} seam retransmits", multi.retransmits()));
        }
        Ok(out)
    }
}

impl Workload for Multi {
    fn phases(&self) -> Vec<Phase> {
        vec![
            Phase { max_rounds: 10, budget_share: 0.4 },
            Phase { max_rounds: u32::MAX, budget_share: 1.0 },
        ]
    }

    fn round(&self, phase: usize, r: &mut Round<'_>, armed: bool) -> Result<Outcome, String> {
        self.solve(if phase == 0 { 2 } else { 1 }, r, armed)
    }

    fn step_calls(&self) -> &'static [&'static str] {
        &["wse-core.iterate"]
    }

    fn derive(&self, metrics: &mut BTreeMap<String, f64>) {
        if let (Some(k1), Some(k2)) =
            (metrics.get("wse-multi.k1_sim_us_per_iter"), metrics.get("sim_us_per_iter"))
        {
            metrics.insert("weak_efficiency".into(), k1 / k2);
        }
    }
}
