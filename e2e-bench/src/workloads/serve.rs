//! `serve-mixed`: `BENCH_service.json`'s configuration — two tenants on
//! an 8×4 fabric, 48 jobs over three `bicgstab2d` shapes — through the
//! `wse-serve` front door. The same layers as the other workloads, used
//! differently: compile is reached through the program cache, programs
//! are placed by `blit_region`, and the stepper runs one 3×2 region of a
//! 32-tile fabric with the trace armed for billing.
//!
//! Simulated clock: open loop, each sojourn timed from the job's
//! scheduled arrival. Host clock: closed loop, one client (this thread).

use super::{Outcome, Workload};
use crate::harness::{digest, Round, SimSpan};
use crate::metrics::CLOCK_GHZ;
use wse_arch::Fabric;
use wse_serve::{
    open_loop_arrivals, Backend, JobSpec, ProgramKey, StencilKind, TenantSpec, WaferService,
};

const FABRIC: (usize, usize) = (8, 4);
const JOBS: usize = 48;
const MAX_ITERS: usize = 6;
/// Jobs per same-shape wave (two per tenant), and per `run` call.
const WAVE: usize = 4;
/// Mean arrival rate, jobs per simulated microsecond.
const ARRIVAL_RATE: f64 = 0.004;
/// The arrival schedule is part of the workload, not of the seeded data:
/// queueing (and with it every simulated metric here) moves by percents
/// with the schedule, and the driver compares runs of different seeds.
const ARRIVAL_SEED: u64 = 2020;
/// `service_bench` numbers its right-hand sides from here at seed 2020.
const RHS_SEED_BASE: u64 = 9000;

pub struct Serve {
    seed: u64,
}

impl Serve {
    pub fn new(seed: u64) -> Serve {
        Serve { seed }
    }
}

fn shapes() -> [ProgramKey; 3] {
    [
        ProgramKey::bicgstab2d((8, 8), (4, 4), StencilKind::Laplace9),
        ProgramKey::bicgstab2d((8, 8), (4, 4), StencilKind::convection(1.5, -0.5)),
        ProgramKey::bicgstab2d((12, 8), (4, 4), StencilKind::Laplace9),
    ]
}

impl Workload for Serve {
    fn round(&self, _phase: usize, r: &mut Round<'_>, _armed: bool) -> Result<Outcome, String> {
        // The service arms its own trace (billing needs it), so an armed
        // round does nothing extra here.
        let (specs, arrivals) = r.setup("wse-serve.generate", || {
            let shapes = shapes();
            // Tenants interleave; each submits same-shape runs so all
            // three tiers occur (cold build, cache-hit blit, resident).
            let first_rhs =
                RHS_SEED_BASE.wrapping_add(self.seed.wrapping_sub(2020).wrapping_mul(JOBS as u64));
            let specs: Vec<JobSpec> = (0..JOBS)
                .map(|i| JobSpec {
                    tenant: i % 2,
                    key: shapes[(i / WAVE) % 3],
                    rhs_seed: first_rhs.wrapping_add(i as u64),
                    max_iters: MAX_ITERS,
                })
                .collect();
            (specs, open_loop_arrivals(ARRIVAL_SEED, JOBS, ARRIVAL_RATE))
        });
        let fabric = r.setup("wse-arch.fabric_new", || Fabric::new(FABRIC.0, FABRIC.1));
        let mut svc = r
            .setup("wse-serve.service_new", || {
                let tenants = vec![
                    TenantSpec::new("acme", (3, 2), JOBS),
                    TenantSpec::new("zenith", (3, 2), JOBS),
                ];
                WaferService::new(Backend::Single(fabric), tenants)
            })
            .map_err(|e| format!("tenants do not fit: {e:?}"))?;

        // One `run` per wave of four same-shape jobs. The service batches
        // within a tenant's run of one shape, which never crosses a wave,
        // so the schedule is the one a single 48-job `run` produces (the
        // legacy check pins it) — and a 9 ms unit finds a quiet moment on
        // this box far more often than a 110 ms one.
        for (jobs, due) in specs.chunks(WAVE).zip(arrivals.chunks(WAVE)) {
            r.unit("wse-serve.run", || {
                svc.run(jobs, due);
            });
        }
        let report = r.unit("wse-serve.report", || svc.report());

        let mut out = Outcome::default();
        let solve_cycles: u64 = report.records.iter().map(|j| j.window.1 - j.window.0).sum();
        let iterations: usize = report.records.iter().map(|j| j.iterations).sum();
        let sojourn_max = report.records.iter().map(|j| j.sojourn_us()).fold(0.0, f64::max);
        out.exact("op_sim_cycles", report.makespan_us * CLOCK_GHZ * 1e3);
        out.exact("sim_sojourn_us_p50", report.p50_us);
        out.exact("sim_solves_per_s", report.solves_per_sec);
        out.exact("wse-serve.sim_sojourn_us_max", sojourn_max);
        out.exact("wse-serve.cache_hit_rate", report.cache.hit_rate());
        out.exact("wse-serve.tier_cold", report.tiers.0 as f64);
        out.exact("wse-serve.tier_hit", report.tiers.1 as f64);
        out.exact("wse-serve.tier_resident", report.tiers.2 as f64);
        out.exact("wse-serve.completed", report.completed as f64);
        out.exact("wse-serve.rejected", report.rejected as f64);
        out.exact("wse-serve.iterations", iterations as f64);
        out.exact("wse-arch.tile_cycles", (solve_cycles * (FABRIC.0 * FABRIC.1) as u64) as f64);

        let floor = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        out.host.push(("wse-serve.cold_build_us".into(), floor(&report.cold_host_us)));
        out.host.push(("wse-serve.warm_lookup_us".into(), floor(&report.warm_host_us)));

        // The billing rows carry the per-phase cycles the service carved
        // out of its own trace: the simulated side of the trace file.
        let mut at = 0;
        for row in &report.billing {
            for (name, cycles) in &row.phase_cycles {
                out.sim_spans.push(SimSpan {
                    name: format!("{}/{name}", row.tenant),
                    start_cycle: at,
                    cycles: *cycles,
                });
                at += cycles;
            }
        }

        out.output_digest =
            digest(report.records.iter().flat_map(|j| {
                [j.iterations as u64, j.final_rel.to_bits(), j.completion_us.to_bits()]
            }));
        out.input_digest =
            digest(specs.iter().map(|s| s.rhs_seed).chain(arrivals.iter().map(|t| t.to_bits())));

        if report.completed != JOBS || report.rejected != 0 {
            return Err(format!("{} completed, {} rejected", report.completed, report.rejected));
        }
        if report.tiers != (3, 21, 24) {
            return Err(format!("cache tiers {:?}, expected (3, 21, 24)", report.tiers));
        }
        if let Some(j) = report.records.iter().find(|j| !j.final_rel.is_finite()) {
            return Err(format!("job {} ended with residual {}", j.job, j.final_rel));
        }
        Ok(out)
    }

    fn step_calls(&self) -> &'static [&'static str] {
        &["wse-serve.run"]
    }
}
