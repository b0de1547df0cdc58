//! The multi-tenant wafer service: admission, placement, batching,
//! execution under recovery, and per-tenant billing.
//!
//! One [`WaferService`] owns the machine (a single [`Fabric`] or a
//! [`MultiFabric`] ensemble) and a set of tenants, each pinned to a
//! rectangular region placed by `wse-multi`'s shelf packer. Jobs flow
//! through a fixed pipeline:
//!
//! ```text
//! submit → admission (quota, region fit, SRAM estimate, lint gate)
//!        → program cache (cold compile on scratch / hit)
//!        → placement (blit image into region + rebase solver; skipped
//!          when the program is already resident)
//!        → solve under checkpoint/rollback recovery, labeled tenant/job
//!        → billing (per-job cycle window carved from the shard's phase log)
//! ```
//!
//! Time accounting is split in two, deliberately. *Simulated* time — the
//! numbers in every report — is deterministic: fabric cycles at 0.9 GHz
//! plus the [`CostModel`]'s fixed compile/load charges, scheduled against
//! seeded open-loop arrivals. *Host wall-clock* is measured only around
//! cache lookups to report the cold-vs-warm compile speedup, and is kept
//! out of the deterministic report text.

use crate::cache::{CacheStats, ProgramCache};
use crate::key::ProgramKey;
use crate::program::AdmitError;
use crate::sim::CostModel;
use std::fmt::Write as _;
use std::time::Instant;
use wse_arch::{Fabric, Region, TILE_SRAM_BYTES};
use wse_core::bicgstab2d::WaferBicgstab2d;
use wse_core::recovery::RecoveryPolicy;
use wse_core::Krylov;
use wse_float::F16;
use wse_multi::tenancy::{place_regions, PlacementOverflow};
use wse_multi::MultiFabric;
use wse_trace::PhaseReport;

/// The machine a service fronts: one wafer or a seam-linked ensemble.
// One Backend exists per service (never stored in bulk), so the size
// spread between a whole Fabric and a MultiFabric handle is irrelevant.
#[allow(clippy::large_enum_variant)]
pub enum Backend {
    /// A single fabric.
    Single(Fabric),
    /// A multi-wafer ensemble; tenant regions never span a seam.
    Ensemble(MultiFabric),
}

impl Backend {
    /// Tile dimensions of each shard, in shard index order.
    pub fn shard_dims(&self) -> Vec<(usize, usize)> {
        match self {
            Backend::Single(f) => vec![(f.width(), f.height())],
            Backend::Ensemble(m) => {
                (0..m.k()).map(|i| (m.shard(i).width(), m.shard(i).height())).collect()
            }
        }
    }

    fn shard_mut(&mut self, m: usize) -> &mut Fabric {
        match self {
            Backend::Single(f) => {
                assert_eq!(m, 0, "single-fabric backend has one shard");
                f
            }
            Backend::Ensemble(multi) => multi.shard_mut(m),
        }
    }
}

/// A tenant's static contract with the service.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Display name (used in recovery labels and billing rows).
    pub name: String,
    /// Requested region extents in tiles.
    pub tiles: (usize, usize),
    /// Jobs this tenant may have admitted per service run.
    pub quota: usize,
}

impl TenantSpec {
    /// A tenant named `name` holding `tiles` with the given job quota.
    pub fn new(name: impl Into<String>, tiles: (usize, usize), quota: usize) -> TenantSpec {
        TenantSpec { name: name.into(), tiles, quota }
    }
}

/// One solve request.
#[derive(Copy, Clone, Debug)]
pub struct JobSpec {
    /// Index of the submitting tenant.
    pub tenant: usize,
    /// The program shape to run.
    pub key: ProgramKey,
    /// Seed for the manufactured right-hand side.
    pub rhs_seed: u64,
    /// Iteration budget.
    pub max_iters: usize,
}

/// How a job's program reached the fabric.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CacheTier {
    /// Compiled from scratch (builder + lint), then blitted.
    Cold,
    /// Served from the program cache, blitted (no builder, no lint).
    Hit,
    /// Already resident in the tenant's region — no blit at all.
    Resident,
}

/// The service's account of one submitted job.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// Submission index.
    pub job: usize,
    /// Submitting tenant.
    pub tenant: usize,
    /// The program shape.
    pub key: ProgramKey,
    /// `None` when the job was refused admission.
    pub tier: Option<CacheTier>,
    /// The admission error for refused jobs.
    pub reject: Option<AdmitError>,
    /// Shard the tenant lives on.
    pub shard: usize,
    /// Arrival time, µs (from the open-loop process).
    pub arrival_us: f64,
    /// When service began (≥ arrival; the shard is a serial server).
    pub start_us: f64,
    /// When service finished.
    pub completion_us: f64,
    /// Fabric cycle window `[start, end)` of the solve, for billing.
    pub window: (u64, u64),
    /// Committed solver iterations.
    pub iterations: usize,
    /// Rollbacks taken by the recovery engine.
    pub rollbacks: usize,
    /// Final recursive relative residual.
    pub final_rel: f64,
    /// Whether the solve verified convergence.
    pub converged: bool,
}

impl JobRecord {
    /// Sojourn time (queueing + service), µs. Zero for rejected jobs.
    pub fn sojourn_us(&self) -> f64 {
        self.completion_us - self.arrival_us
    }
}

/// Per-tenant billing: attributed cycles and recovery activity.
#[derive(Clone, Debug)]
pub struct BillingRow {
    /// Tenant name.
    pub tenant: String,
    /// Jobs completed.
    pub completed: usize,
    /// Jobs refused admission.
    pub rejected: usize,
    /// Total fabric cycles attributed to this tenant's job windows.
    pub cycles: u64,
    /// Cycles by phase name, first-seen order, from the shard phase-log
    /// windows of this tenant's jobs.
    pub phase_cycles: Vec<(&'static str, u64)>,
    /// Instant-marker counts (e.g. `checkpoint`, `rollback`) in the same
    /// windows — see `PhaseReport::marker_counts`.
    pub markers: Vec<(&'static str, u64)>,
    /// Rollbacks across this tenant's jobs.
    pub rollbacks: usize,
    /// Cold compiles this tenant triggered.
    pub cold_builds: usize,
}

/// Everything a service run produced. [`ServiceReport::render`] is
/// deterministic; the host-wall-clock fields are not and stay out of it.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// Jobs submitted.
    pub submitted: usize,
    /// Jobs that ran to completion.
    pub completed: usize,
    /// Jobs refused admission.
    pub rejected: usize,
    /// Completed jobs per tier: `(cold, hit, resident)`.
    pub tiers: (usize, usize, usize),
    /// Program-cache counters.
    pub cache: CacheStats,
    /// Median sojourn over completed jobs, µs.
    pub p50_us: f64,
    /// 99th-percentile sojourn over completed jobs, µs.
    pub p99_us: f64,
    /// Mean sojourn over completed jobs, µs.
    pub mean_us: f64,
    /// Last completion time, µs.
    pub makespan_us: f64,
    /// Completed solves per simulated second.
    pub solves_per_sec: f64,
    /// Per-tenant billing rows, tenant order.
    pub billing: Vec<BillingRow>,
    /// Per-job records, submission order.
    pub records: Vec<JobRecord>,
    /// Host wall-clock µs of each cold cache fill (builder + lint).
    pub cold_host_us: Vec<f64>,
    /// Host wall-clock µs of each warm cache lookup.
    pub warm_host_us: Vec<f64>,
}

impl ServiceReport {
    /// Deterministic fixed-precision report: identical inputs render
    /// identical text (the smoke test diffs two runs).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "wse-serve report");
        let _ = writeln!(
            out,
            "jobs: submitted={} completed={} rejected={}",
            self.submitted, self.completed, self.rejected
        );
        let _ = writeln!(
            out,
            "tiers: cold={} hit={} resident={}",
            self.tiers.0, self.tiers.1, self.tiers.2
        );
        let _ = writeln!(
            out,
            "cache: cold={} hits={} rejected={} hit-rate={:.3}",
            self.cache.cold,
            self.cache.hits,
            self.cache.rejected,
            self.cache.hit_rate()
        );
        let _ = writeln!(
            out,
            "latency-us: p50={:.3} p99={:.3} mean={:.3} makespan={:.3}",
            self.p50_us, self.p99_us, self.mean_us, self.makespan_us
        );
        let _ = writeln!(out, "throughput: {:.3} solves/sec", self.solves_per_sec);
        for row in &self.billing {
            let _ = writeln!(
                out,
                "tenant {}: completed={} rejected={} cycles={} rollbacks={} cold-builds={}",
                row.tenant, row.completed, row.rejected, row.cycles, row.rollbacks, row.cold_builds
            );
            for (name, cycles) in &row.phase_cycles {
                let _ = writeln!(out, "  phase {name}: {cycles}");
            }
            for (name, count) in &row.markers {
                let _ = writeln!(out, "  marker {name}: {count}");
            }
        }
        out
    }
}

/// Per-tenant runtime state.
struct Tenant {
    spec: TenantSpec,
    shard: usize,
    region: Region,
    /// Key of the program currently blitted into the region, if any.
    resident: Option<ProgramKey>,
    /// Solver handle rebased to the region origin, paired with
    /// `resident`.
    solver: Option<WaferBicgstab2d>,
    admitted: usize,
    rejected: usize,
}

/// Max same-`(tenant, key)` jobs coalesced into one placement.
const BATCH_MAX: usize = 4;

/// The service front door. See the module docs for the pipeline.
pub struct WaferService {
    backend: Backend,
    tenants: Vec<Tenant>,
    cache: ProgramCache,
    /// Per-shard serial-server horizon, µs.
    server_free: Vec<f64>,
    records: Vec<JobRecord>,
    cold_host_us: Vec<f64>,
    warm_host_us: Vec<f64>,
}

impl WaferService {
    /// Builds a service over `backend`, placing every tenant's region via
    /// first-fit shelf packing (deterministic). Billing reads each shard's
    /// phase log, drained here so that it starts with the service.
    pub fn new(
        mut backend: Backend,
        specs: Vec<TenantSpec>,
    ) -> Result<WaferService, PlacementOverflow> {
        let dims = backend.shard_dims();
        let requests: Vec<(usize, usize)> = specs.iter().map(|t| t.tiles).collect();
        let placements = place_regions(&dims, &requests)?;
        let shards = dims.len();
        for m in 0..shards {
            backend.shard_mut(m).drain_phases();
        }
        let tenants = specs
            .into_iter()
            .zip(placements)
            .map(|(spec, p)| Tenant {
                spec,
                shard: p.shard,
                region: p.region,
                resident: None,
                solver: None,
                admitted: 0,
                rejected: 0,
            })
            .collect();
        Ok(WaferService {
            backend,
            tenants,
            cache: ProgramCache::new(),
            server_free: vec![0.0; shards],
            records: Vec::new(),
            cold_host_us: Vec::new(),
            warm_host_us: Vec::new(),
        })
    }

    /// A tenant's placed region (shard index, region in shard tiles).
    pub fn placement(&self, tenant: usize) -> (usize, Region) {
        (self.tenants[tenant].shard, self.tenants[tenant].region)
    }

    /// Runs `jobs` against their `arrivals` (µs, nondecreasing, one per
    /// job — use [`crate::sim::open_loop_arrivals`]). Jobs are served in
    /// submission order per tenant; consecutive same-`(tenant, key)` jobs
    /// are batched (up to four) so one placement serves all of
    /// them. Returns the records appended by this call.
    ///
    /// # Panics
    /// Panics if the slices differ in length, a job names an unknown
    /// tenant, or arrivals decrease.
    pub fn run(&mut self, jobs: &[JobSpec], arrivals: &[f64]) -> &[JobRecord] {
        assert_eq!(jobs.len(), arrivals.len(), "one arrival per job");
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]), "arrivals must be nondecreasing");
        let first = self.records.len();
        let mut done = vec![false; jobs.len()];
        for i in 0..jobs.len() {
            if done[i] {
                continue;
            }
            assert!(jobs[i].tenant < self.tenants.len(), "unknown tenant {}", jobs[i].tenant);
            // Batch: pull forward later same-(tenant, key) jobs, stopping
            // at the tenant's next different-shaped job so per-tenant FIFO
            // order is preserved (other tenants' jobs are skipped over —
            // that is scheduling, not reordering).
            let mut batch = vec![i];
            for (j, job) in jobs.iter().enumerate().skip(i + 1) {
                if batch.len() >= BATCH_MAX {
                    break;
                }
                if done[j] || job.tenant != jobs[i].tenant {
                    continue;
                }
                if job.key != jobs[i].key {
                    break;
                }
                batch.push(j);
            }
            for &j in &batch {
                done[j] = true;
                self.execute(j, &jobs[j], arrivals[j]);
            }
        }
        &self.records[first..]
    }

    /// Admits and executes one job, appending its record.
    fn execute(&mut self, index: usize, job: &JobSpec, arrival_us: f64) {
        let (shard, region) = (self.tenants[job.tenant].shard, self.tenants[job.tenant].region);
        let reject = |err: AdmitError, this: &mut WaferService| {
            this.tenants[job.tenant].rejected += 1;
            this.records.push(JobRecord {
                job: index,
                tenant: job.tenant,
                key: job.key,
                tier: None,
                reject: Some(err),
                shard,
                arrival_us,
                start_us: arrival_us,
                completion_us: arrival_us,
                window: (0, 0),
                iterations: 0,
                rollbacks: 0,
                final_rel: f64::NAN,
                converged: false,
            });
        };

        // Admission. Shape checks first (static properties of the request,
        // refused regardless of quota), then the quota; the lint gate runs
        // inside the cold compile itself.
        let need = job.key.region_tiles();
        if !region.fits(need.0, need.1) {
            return reject(AdmitError::RegionTooSmall { need, have: (region.w, region.h) }, self);
        }
        if job.key.sram_estimate() > TILE_SRAM_BYTES {
            let err = AdmitError::SramOverBudget {
                need: job.key.sram_estimate(),
                budget: TILE_SRAM_BYTES,
            };
            return reject(err, self);
        }
        let quota = self.tenants[job.tenant].spec.quota;
        if self.tenants[job.tenant].admitted >= quota {
            let err = AdmitError::QuotaExceeded {
                tenant: self.tenants[job.tenant].spec.name.clone(),
                quota,
            };
            return reject(err, self);
        }

        let t0 = Instant::now();
        let (program, hit) = match self.cache.get_or_compile(&job.key) {
            Ok(pair) => pair,
            Err(err) => return reject(err, self),
        };
        let lookup_us = t0.elapsed().as_secs_f64() * 1e6;
        if hit {
            self.warm_host_us.push(lookup_us);
        } else {
            self.cold_host_us.push(program.build_host_us);
        }

        // Placement: blit unless this exact program is already resident in
        // the tenant's region (the batching payoff).
        let resident = self.tenants[job.tenant].resident == Some(job.key);
        let tier = match (resident, hit) {
            (true, _) => CacheTier::Resident,
            (false, true) => CacheTier::Hit,
            (false, false) => CacheTier::Cold,
        };
        let (w, h) = need;
        let slot = Region::new(region.x, region.y, w, h);
        let fabric = self.backend.shard_mut(shard);
        if !resident {
            fabric.blit_region(slot, &program.image);
            // Containment re-check on the placed copy. Debug builds only:
            // the identical bytes already passed the full lint at compile
            // time and blitting is translation-invariant (the determinism
            // test pins this down), so the warm path genuinely skips lint
            // in release — that skip is the cache's point.
            #[cfg(debug_assertions)]
            {
                let diags = wse_lint::lint_region(fabric, slot);
                assert!(diags.is_empty(), "placed program failed region lint: {}", diags[0]);
            }
            self.tenants[job.tenant].resident = Some(job.key);
            self.tenants[job.tenant].solver = Some(program.solver.rebased((region.x, region.y)));
        }
        let solver = self.tenants[job.tenant].solver.as_ref().expect("resident solver");

        // Manufacture the right-hand side: a seeded exact solution pushed
        // through the scaled operator, so convergence is checkable.
        let n = job.key.points();
        let mut rng = wse_arch::SplitMix64::new(job.rhs_seed);
        let exact: Vec<f64> =
            (0..n).map(|_| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 - 0.5).collect();
        let mut b64 = vec![0.0f64; n];
        program.matrix_f64.matvec_f64(&exact, &mut b64);
        let b: Vec<F16> = b64.iter().map(|&v| F16::from_f64(v)).collect();

        let policy = RecoveryPolicy::default()
            .labeled(format!("{}/job{}", self.tenants[job.tenant].spec.name, index));
        let cycle_start = fabric.cycle();
        let (_, stats, log) =
            solver.solve_with_recovery(fabric, &program.matrix, &b, job.max_iters, &policy);
        let cycle_end = fabric.cycle();

        // Deterministic latency: solve cycles plus the modeled host-side
        // cost of whatever this tier actually did.
        let cost = CostModel::default();
        let image_bytes = program.sram_peak as u64 * (w * h) as u64;
        let penalty_us = match tier {
            CacheTier::Cold => cost.compile_us + cost.load_us(image_bytes),
            CacheTier::Hit => cost.load_us(image_bytes),
            CacheTier::Resident => 0.0,
        };
        let service_us = cost.cycles_to_us(cycle_end - cycle_start) + penalty_us;
        let start_us = arrival_us.max(self.server_free[shard]);
        let completion_us = start_us + service_us;
        self.server_free[shard] = completion_us;

        self.tenants[job.tenant].admitted += 1;
        self.records.push(JobRecord {
            job: index,
            tenant: job.tenant,
            key: job.key,
            tier: Some(tier),
            reject: None,
            shard,
            arrival_us,
            start_us,
            completion_us,
            window: (cycle_start, cycle_end),
            iterations: log.iterations,
            rollbacks: log.rollbacks,
            final_rel: stats.residuals.last().copied().unwrap_or(f64::NAN),
            converged: log.outcome == wse_core::recovery::RecoveryOutcome::Converged,
        });
    }

    /// Closes the books: drains every shard's phase log, attributes each
    /// job's cycle window to its tenant, and summarizes latency and
    /// throughput. The service can keep running afterwards; the next report
    /// bills phases from here on.
    pub fn report(&mut self) -> ServiceReport {
        let shards = self.server_free.len();
        // Every span in a log starts at or after the previous drain, so a
        // job billed by an earlier report overlaps none of them.
        let logs: Vec<_> = (0..shards).map(|m| self.backend.shard_mut(m).drain_phases()).collect();

        let mut billing: Vec<BillingRow> = self
            .tenants
            .iter()
            .map(|t| BillingRow {
                tenant: t.spec.name.clone(),
                completed: 0,
                rejected: t.rejected,
                cycles: 0,
                phase_cycles: Vec::new(),
                markers: Vec::new(),
                rollbacks: 0,
                cold_builds: 0,
            })
            .collect();
        let mut tiers = (0usize, 0usize, 0usize);
        let mut sojourns: Vec<f64> = Vec::new();
        let mut makespan = 0.0f64;
        for rec in &self.records {
            let row = &mut billing[rec.tenant];
            match rec.tier {
                None => continue,
                Some(CacheTier::Cold) => {
                    tiers.0 += 1;
                    row.cold_builds += 1;
                }
                Some(CacheTier::Hit) => tiers.1 += 1,
                Some(CacheTier::Resident) => tiers.2 += 1,
            }
            row.completed += 1;
            row.cycles += rec.window.1 - rec.window.0;
            row.rollbacks += rec.rollbacks;
            let phase =
                PhaseReport::from_spans_window(&logs[rec.shard], rec.window.0, rec.window.1);
            for r in &phase.rows {
                if r.cycles > 0 {
                    match row.phase_cycles.iter_mut().find(|(n, _)| *n == r.name) {
                        Some((_, c)) => *c += r.cycles,
                        None => row.phase_cycles.push((r.name, r.cycles)),
                    }
                }
            }
            for (name, count) in phase.marker_counts() {
                match row.markers.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, c)) => *c += count,
                    None => row.markers.push((name, count)),
                }
            }
            sojourns.push(rec.sojourn_us());
            makespan = makespan.max(rec.completion_us);
        }
        sojourns.sort_by(f64::total_cmp);
        let completed = sojourns.len();
        let pct = |q: f64| -> f64 {
            if sojourns.is_empty() {
                return 0.0;
            }
            let k = ((q * completed as f64).ceil() as usize).clamp(1, completed) - 1;
            sojourns[k]
        };
        let mean =
            if completed == 0 { 0.0 } else { sojourns.iter().sum::<f64>() / completed as f64 };
        ServiceReport {
            submitted: self.records.len(),
            completed,
            rejected: self.records.len() - completed,
            tiers,
            cache: self.cache.stats(),
            p50_us: pct(0.50),
            p99_us: pct(0.99),
            mean_us: mean,
            makespan_us: makespan,
            solves_per_sec: if makespan > 0.0 { completed as f64 / (makespan / 1e6) } else { 0.0 },
            billing,
            records: self.records.clone(),
            cold_host_us: self.cold_host_us.clone(),
            warm_host_us: self.warm_host_us.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::StencilKind;
    use crate::sim::open_loop_arrivals;

    fn key_8x8() -> ProgramKey {
        ProgramKey::bicgstab2d((8, 8), (4, 4), StencilKind::Laplace9)
    }

    fn key_12x8() -> ProgramKey {
        ProgramKey::bicgstab2d((12, 8), (4, 4), StencilKind::convection(1.5, -0.5))
    }

    fn two_tenant_service() -> WaferService {
        WaferService::new(
            Backend::Single(Fabric::new(8, 4)),
            vec![TenantSpec::new("acme", (3, 2), 8), TenantSpec::new("zenith", (3, 2), 8)],
        )
        .unwrap()
    }

    #[test]
    fn tenants_get_disjoint_regions() {
        let svc = two_tenant_service();
        let (s0, r0) = svc.placement(0);
        let (s1, r1) = svc.placement(1);
        assert_eq!((s0, s1), (0, 0));
        assert!(!r0.overlaps(&r1));
    }

    #[test]
    fn repeat_shapes_hit_the_cache_and_go_resident() {
        let mut svc = two_tenant_service();
        let jobs: Vec<JobSpec> = (0..4)
            .map(|i| JobSpec { tenant: 0, key: key_8x8(), rhs_seed: 100 + i, max_iters: 4 })
            .collect();
        let arrivals = open_loop_arrivals(1, 4, 0.001);
        svc.run(&jobs, &arrivals);
        let report = svc.report();
        assert_eq!(report.completed, 4);
        // First job compiles cold; the batch keeps the program resident.
        assert_eq!(report.tiers, (1, 0, 3));
        assert_eq!(report.cache.cold, 1);
        assert!(report.records.iter().all(|r| r.iterations > 0));
    }

    #[test]
    fn second_tenant_same_shape_is_a_cache_hit_not_a_rebuild() {
        let mut svc = two_tenant_service();
        let jobs = [
            JobSpec { tenant: 0, key: key_8x8(), rhs_seed: 1, max_iters: 3 },
            JobSpec { tenant: 1, key: key_8x8(), rhs_seed: 2, max_iters: 3 },
        ];
        let arrivals = open_loop_arrivals(2, 2, 0.001);
        svc.run(&jobs, &arrivals);
        let report = svc.report();
        assert_eq!(report.tiers, (1, 1, 0));
        assert_eq!(report.cache.cold, 1);
        assert_eq!(report.cache.hits, 1);
        assert!(report.cache.hit_rate() > 0.0);
    }

    #[test]
    fn quota_and_fit_rejections_are_recorded() {
        let mut svc = WaferService::new(
            Backend::Single(Fabric::new(8, 4)),
            vec![TenantSpec::new("tiny", (2, 2), 1)],
        )
        .unwrap();
        let jobs = [
            JobSpec { tenant: 0, key: key_8x8(), rhs_seed: 1, max_iters: 2 },
            // 3x2 tiles do not fit the 2x2 region.
            JobSpec { tenant: 0, key: key_12x8(), rhs_seed: 2, max_iters: 2 },
            // Over quota (quota = 1, one job already admitted).
            JobSpec { tenant: 0, key: key_8x8(), rhs_seed: 3, max_iters: 2 },
        ];
        let arrivals = open_loop_arrivals(3, 3, 0.001);
        svc.run(&jobs, &arrivals);
        let report = svc.report();
        assert_eq!(report.completed, 1);
        assert_eq!(report.rejected, 2);
        let rejects: Vec<_> = report.records.iter().filter_map(|r| r.reject.as_ref()).collect();
        assert!(rejects.iter().any(|e| matches!(e, AdmitError::RegionTooSmall { .. })));
        assert!(rejects.iter().any(|e| matches!(e, AdmitError::QuotaExceeded { .. })));
    }

    #[test]
    fn oversized_estimate_is_refused_before_anything_is_built() {
        // ≈ 4.3 GB per tile on a 2x2 region; the estimate must saturate,
        // not wrap under the budget.
        let mut svc = two_tenant_service();
        let key = ProgramKey::bicgstab2d((23170, 23170), (11585, 11585), StencilKind::Laplace9);
        let jobs = [JobSpec { tenant: 0, key, rhs_seed: 1, max_iters: 2 }];
        svc.run(&jobs, &open_loop_arrivals(8, 1, 0.001));
        let report = svc.report();
        assert_eq!(report.rejected, 1);
        assert_eq!(
            report.records[0].reject,
            Some(AdmitError::SramOverBudget { need: u32::MAX, budget: TILE_SRAM_BYTES })
        );
        assert_eq!(report.cache.cold, 0, "nothing compiled");
    }

    #[test]
    fn billing_attributes_cycles_to_the_right_tenant() {
        let mut svc = two_tenant_service();
        let jobs = [
            JobSpec { tenant: 0, key: key_8x8(), rhs_seed: 1, max_iters: 3 },
            JobSpec { tenant: 1, key: key_8x8(), rhs_seed: 2, max_iters: 6 },
        ];
        let arrivals = open_loop_arrivals(4, 2, 0.001);
        svc.run(&jobs, &arrivals);
        let report = svc.report();
        assert_eq!(report.billing.len(), 2);
        let (a, z) = (&report.billing[0], &report.billing[1]);
        assert!(a.cycles > 0 && z.cycles > 0);
        // Twice the iterations ⇒ strictly more cycles billed.
        assert!(z.cycles > a.cycles, "acme {} vs zenith {}", a.cycles, z.cycles);
        // Phase attribution covers the solver's marked phases.
        assert!(a.phase_cycles.iter().any(|(n, _)| *n == "spmv"));
        // The recovery engine stamps its post-load checkpoint per job.
        assert!(a.markers.iter().any(|(n, c)| *n == "checkpoint" && *c > 0));
    }

    #[test]
    fn billing_arms_no_core_trace() {
        let untraced = |svc: &mut WaferService| !svc.backend.shard_mut(0).trace_armed();
        let mut svc = two_tenant_service();
        assert!(untraced(&mut svc), "after new");
        let jobs = [
            JobSpec { tenant: 0, key: key_8x8(), rhs_seed: 1, max_iters: 3 },
            JobSpec { tenant: 1, key: key_12x8(), rhs_seed: 2, max_iters: 3 },
        ];
        svc.run(&jobs, &open_loop_arrivals(9, 2, 0.001));
        assert!(untraced(&mut svc), "after run");
        let report = svc.report();
        assert!(untraced(&mut svc), "after report");
        assert!(report
            .billing
            .iter()
            .all(|row| row.phase_cycles.iter().any(|(n, _)| *n == "spmv")));
    }

    #[test]
    fn batching_pulls_forward_same_key_jobs_but_keeps_tenant_fifo() {
        let mut svc = two_tenant_service();
        let (a, b) = (key_8x8(), key_12x8());
        // Tenant 0 submits a, a, b, a: the third `a` must NOT jump the `b`.
        let jobs = [
            JobSpec { tenant: 0, key: a, rhs_seed: 1, max_iters: 2 },
            JobSpec { tenant: 0, key: a, rhs_seed: 2, max_iters: 2 },
            JobSpec { tenant: 0, key: b, rhs_seed: 3, max_iters: 2 },
            JobSpec { tenant: 0, key: a, rhs_seed: 4, max_iters: 2 },
        ];
        let arrivals = open_loop_arrivals(5, 4, 0.001);
        svc.run(&jobs, &arrivals);
        let report = svc.report();
        let order: Vec<usize> = report.records.iter().map(|r| r.job).collect();
        assert_eq!(order, vec![0, 1, 2, 3], "per-tenant submission order preserved");
        // Job 3 re-places `a` after `b` evicted it: a cache hit, not cold.
        assert_eq!(report.records[3].tier, Some(CacheTier::Hit));
        assert_eq!(report.cache.cold, 2);
    }

    #[test]
    fn ensemble_backend_spreads_tenants_across_shards() {
        let multi = MultiFabric::new(8, 4, 2, wse_multi::HostLink::ideal());
        let mut svc = WaferService::new(
            Backend::Ensemble(multi),
            vec![TenantSpec::new("left", (3, 3), 4), TenantSpec::new("right", (3, 3), 4)],
        )
        .unwrap();
        assert_eq!(svc.placement(0).0, 0);
        assert_eq!(svc.placement(1).0, 1, "second 3x3 cannot fit beside the first on a 4x4 shard");
        let jobs = [
            JobSpec { tenant: 0, key: key_8x8(), rhs_seed: 1, max_iters: 3 },
            JobSpec { tenant: 1, key: key_8x8(), rhs_seed: 2, max_iters: 3 },
        ];
        let arrivals = open_loop_arrivals(6, 2, 0.001);
        svc.run(&jobs, &arrivals);
        let report = svc.report();
        assert_eq!(report.completed, 2);
        assert!(report.billing.iter().all(|row| row.cycles > 0));
    }

    #[test]
    fn latency_accounting_is_deterministic_and_ordered() {
        let run = || {
            let mut svc = two_tenant_service();
            let jobs: Vec<JobSpec> = (0..6)
                .map(|i| JobSpec {
                    tenant: (i % 2) as usize,
                    key: key_8x8(),
                    rhs_seed: i,
                    max_iters: 3,
                })
                .collect();
            let arrivals = open_loop_arrivals(7, 6, 0.01);
            svc.run(&jobs, &arrivals);
            svc.report()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.render(), b.render(), "deterministic report text");
        for rec in &a.records {
            assert!(rec.start_us >= rec.arrival_us);
            assert!(rec.completion_us > rec.start_us);
        }
        assert!(a.p99_us >= a.p50_us);
        assert!(a.solves_per_sec > 0.0);
    }
}
