//! The service report of the `serve-mixed` configuration, pinned byte for
//! byte: two tenants of 3×2 tiles on an 8×4 fabric, 48 jobs over three
//! `bicgstab2d` shapes, six iterations each, seeded open-loop arrivals.
//!
//! Every number in `ServiceReport::render()` is simulated (cycles, modeled
//! compile and load charges, phase spans carved per job), so a change to
//! how the service observes the fabric — billing's phase source, what it
//! arms — must leave this text exactly as it is.

use wse_arch::Fabric;
use wse_serve::{
    open_loop_arrivals, Backend, JobSpec, ProgramKey, StencilKind, TenantSpec, WaferService,
};

const JOBS: usize = 48;
/// Jobs per same-shape wave, and per `run` call.
const WAVE: usize = 4;

const EXPECTED: &str = "\
wse-serve report
jobs: submitted=48 completed=48 rejected=0
tiers: cold=3 hit=21 resident=24
cache: cold=3 hits=45 rejected=0 hit-rate=0.938
latency-us: p50=22237.521 p99=28333.786 mean=22029.792 makespan=30376.101
throughput: 1580.190 solves/sec
tenant acme: completed=24 rejected=0 cycles=40304 rollbacks=0 cold-builds=3
  phase dot: 7440
  phase allreduce: 9176
  phase scalar: 2472
  phase spmv: 17760
  phase update: 3456
  marker checkpoint: 48
tenant zenith: completed=24 rejected=0 cycles=40304 rollbacks=0 cold-builds=0
  phase dot: 7440
  phase allreduce: 9176
  phase scalar: 2472
  phase spmv: 17760
  phase update: 3456
  marker checkpoint: 48
";

#[test]
fn serve_mixed_report_is_pinned() {
    let shapes = [
        ProgramKey::bicgstab2d((8, 8), (4, 4), StencilKind::Laplace9),
        ProgramKey::bicgstab2d((8, 8), (4, 4), StencilKind::convection(1.5, -0.5)),
        ProgramKey::bicgstab2d((12, 8), (4, 4), StencilKind::Laplace9),
    ];
    let jobs: Vec<JobSpec> = (0..JOBS)
        .map(|i| JobSpec {
            tenant: i % 2,
            key: shapes[(i / WAVE) % 3],
            rhs_seed: 9000 + i as u64,
            max_iters: 6,
        })
        .collect();
    let arrivals = open_loop_arrivals(2020, JOBS, 0.004);
    let tenants =
        vec![TenantSpec::new("acme", (3, 2), JOBS), TenantSpec::new("zenith", (3, 2), JOBS)];
    let mut svc = WaferService::new(Backend::Single(Fabric::new(8, 4)), tenants).unwrap();
    for (wave, due) in jobs.chunks(WAVE).zip(arrivals.chunks(WAVE)) {
        svc.run(wave, due);
    }
    let text = svc.report().render();
    assert_eq!(text.lines().count(), 20);
    assert_eq!(text, EXPECTED);
}
