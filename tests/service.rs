//! Integration tests for the multi-tenant wafer service: program-build
//! determinism (the cache's correctness precondition), translation
//! invariance (the blit placement's correctness precondition), tenant
//! fault isolation, labeled recovery, and the end-to-end service loop.

use proptest::prelude::*;
use wse_arch::{Fabric, FaultKind, FaultKindClass, FaultPlan, Region, SplitMix64};
use wse_core::recovery::{RecoveryLog, RecoveryPolicy};
use wse_core::Krylov;
use wse_float::F16;
use wse_serve::{
    open_loop_arrivals, program_digest, Backend, CompiledProgram, JobSpec, ProgramKey, StencilKind,
    TenantSpec, WaferService,
};

/// The service's manufactured right-hand side: a seeded exact solution
/// pushed through the scaled operator (mirrors `WaferService::execute`).
fn rhs_for(p: &CompiledProgram, seed: u64) -> Vec<F16> {
    let n = p.key.points();
    let mut rng = SplitMix64::new(seed);
    let exact: Vec<f64> =
        (0..n).map(|_| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 - 0.5).collect();
    let mut b = vec![0.0f64; n];
    p.matrix_f64.matvec_f64(&exact, &mut b);
    b.iter().map(|&v| F16::from_f64(v)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Compiling the same [`ProgramKey`] twice yields byte-identical
    /// per-tile programs (SRAM image, task programs, routing tables,
    /// registers — everything the digest covers). This is the property
    /// that makes the compiled-program cache sound: a hit returns exactly
    /// the bytes a fresh build would have produced.
    #[test]
    fn program_builds_are_byte_identical(
        w in 2usize..4,
        h in 2usize..4,
        bx in 3usize..6,
        by in 3usize..6,
        convection in any::<bool>(),
    ) {
        let stencil = if convection {
            StencilKind::convection(1.5, -0.5)
        } else {
            StencilKind::Laplace9
        };
        let key = ProgramKey::bicgstab2d((w * bx, h * by), (bx, by), stencil);
        let first = CompiledProgram::compile(&key).unwrap();
        let second = CompiledProgram::compile(&key).unwrap();
        prop_assert_eq!(first.digest(), second.digest());
        prop_assert_eq!(first.sram_peak, second.sram_peak);
        prop_assert_eq!(program_digest(&first.image), program_digest(&second.image));
    }
}

/// A compiled image blitted into a region of a larger fabric carries the
/// same per-tile bytes — routing and task state are per-tile, so programs
/// are translation-invariant. This is what lets the service place one
/// cached image anywhere via blit+rebase.
#[test]
fn compiled_programs_are_translation_invariant() {
    let key = ProgramKey::bicgstab2d((12, 8), (4, 4), StencilKind::convection(1.5, -0.5));
    let p = CompiledProgram::compile(&key).unwrap();
    let region = Region::new(2, 1, 3, 2);

    // The blit path used by the service reproduces the scratch image's
    // bytes.
    let mut blitted = Fabric::new(6, 4);
    blitted.blit_region(region, &p.image);
    assert_eq!(program_digest(&blitted.extract_region(region)), p.digest());
}

/// Runs tenant A then tenant B co-resident on one fabric; returns B's
/// solution and residual trajectory plus A's recovery log.
fn co_resident_run(
    p: &CompiledProgram,
    faults: Option<&FaultPlan>,
) -> (Vec<F16>, Vec<f64>, RecoveryLog) {
    let region_a = Region::new(0, 0, 2, 2);
    let region_b = Region::new(4, 1, 2, 2);
    let mut fabric = Fabric::new(8, 4);
    fabric.blit_region(region_a, &p.image);
    fabric.blit_region(region_b, &p.image);
    let solver_a = p.solver.rebased((region_a.x, region_a.y));
    let solver_b = p.solver.rebased((region_b.x, region_b.y));
    if let Some(plan) = faults {
        fabric.arm_faults(plan);
    }
    let rhs_a = rhs_for(p, 33);
    let rhs_b = rhs_for(p, 77);
    let policy_a = RecoveryPolicy::default().labeled("acme/job0");
    let (_, _, log_a) = solver_a.solve_with_recovery(&mut fabric, &p.matrix, &rhs_a, 6, &policy_a);
    let (x_b, stats_b, _) =
        solver_b.solve_with_recovery(&mut fabric, &p.matrix, &rhs_b, 6, &RecoveryPolicy::default());
    (x_b, stats_b.residuals, log_a)
}

/// A fault plan confined to one tenant's region never perturbs a
/// co-resident tenant: B's solution and residual trajectory are
/// bit-identical whether or not A's region is being bombarded. Containment
/// holds because routing never crosses a region edge (the lint gate proves
/// it on the compiled image), so no wavelet can carry corruption out.
#[test]
fn faults_in_one_tenant_region_never_perturb_a_co_resident() {
    let key = ProgramKey::bicgstab2d((8, 8), (4, 4), StencilKind::convection(1.5, -0.5));
    let p = CompiledProgram::compile(&key).unwrap();
    let (clean_x, clean_res, clean_log) = co_resident_run(&p, None);
    assert_eq!(clean_log.rollbacks, 0, "clean run must not roll back");

    for seed in [5u64, 6, 7] {
        let plan = FaultPlan::random(
            seed,
            6,
            30_000,
            Region::new(0, 0, 2, 2),
            p.sram_peak / 2,
            &[FaultKindClass::SramBitFlip],
        );
        let (x_b, res_b, log_a) = co_resident_run(&p, Some(&plan));
        assert_eq!(log_a.label, "acme/job0");
        assert_eq!(clean_x, x_b, "seed {seed}: tenant B's solution changed");
        assert_eq!(clean_res.len(), res_b.len(), "seed {seed}: trajectory length changed");
        for (i, (c, f)) in clean_res.iter().zip(&res_b).enumerate() {
            assert_eq!(c.to_bits(), f.to_bits(), "seed {seed}: B residual {i} diverged");
        }
    }
}

/// Recovery events carry the `[tenant/job]` attribution label, so
/// rollbacks on a shared fabric are billable to the job that incurred
/// them.
#[test]
fn recovery_log_events_carry_the_tenant_job_label() {
    let key = ProgramKey::bicgstab2d((8, 8), (4, 4), StencilKind::Laplace9);
    let p = CompiledProgram::compile(&key).unwrap();
    let mut fabric = Fabric::new(4, 2);
    fabric.blit_region(Region::new(0, 0, 2, 2), &p.image);
    // A permanent kill inside the region: every retry stalls, so the log
    // fills with labeled events until retries exhaust.
    fabric.arm_faults(&FaultPlan::new().with(500, FaultKind::TileKill { x: 1, y: 1 }));
    let policy = RecoveryPolicy::default().labeled("acme/job7");
    let rhs = rhs_for(&p, 9);
    let (_, _, log) = p.solver.solve_with_recovery(&mut fabric, &p.matrix, &rhs, 6, &policy);
    assert_eq!(log.label, "acme/job7");
    assert!(!log.events.is_empty(), "expected labeled stall events");
    for ev in &log.events {
        assert!(ev.starts_with("[acme/job7] "), "unlabeled event: {ev}");
    }
}

/// End-to-end: two tenants share one fabric through the service front
/// door; repeat shapes hit the cache, the report is deterministic, and
/// both tenants get billed for the cycles they used.
#[test]
fn two_tenants_share_a_fabric_through_the_service() {
    let run = || {
        let mut svc = WaferService::new(
            Backend::Single(Fabric::new(8, 4)),
            vec![TenantSpec::new("acme", (3, 2), 8), TenantSpec::new("zenith", (3, 2), 8)],
        )
        .unwrap();
        let shapes = [
            ProgramKey::bicgstab2d((8, 8), (4, 4), StencilKind::Laplace9),
            ProgramKey::bicgstab2d((8, 8), (4, 4), StencilKind::convection(1.5, -0.5)),
            ProgramKey::bicgstab2d((12, 8), (4, 4), StencilKind::Laplace9),
        ];
        let jobs: Vec<JobSpec> = (0..9)
            .map(|i| JobSpec {
                tenant: i % 2,
                key: shapes[i % 3],
                rhs_seed: 1000 + i as u64,
                max_iters: 4,
            })
            .collect();
        let arrivals = open_loop_arrivals(11, jobs.len(), 0.005);
        svc.run(&jobs, &arrivals);
        svc.report()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.render(), b.render(), "service report must be deterministic");
    assert_eq!(a.completed, 9);
    assert!(a.cache.hit_rate() > 0.0, "repeat shapes must hit the cache");
    assert!(a.cache.cold >= 3, "three distinct shapes compile cold");
    assert!(a.billing.iter().all(|row| row.completed > 0 && row.cycles > 0));
    assert!(a.p99_us >= a.p50_us && a.solves_per_sec > 0.0);
}
