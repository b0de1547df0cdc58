//! Byte-identity pins for the Krylov drivers.
//!
//! Every constant below was recorded at the commit *before* the solver
//! drivers were unified into `wse_core::krylov` and must never be edited
//! to make a refactor pass: program bytes (`wse_serve::program_digest`
//! after build), the per-iteration cycle breakdown, `f64::to_bits` of
//! every relative residual, an FNV-1a digest of the iterate, and — per
//! driver — the `RecoveryLog` of one solve under seeded SRAM bit flips.
//! (The 2D driver of that commit reported only per-iteration totals; its
//! per-phase split was read off an instrumented build of the same commit.
//! Only the calls changed with the unification: one `solve` shape instead
//! of three.)
//!
//! One behaviour change re-pinned lines on purpose: the ensemble stopped
//! running a calibration pass of its SpMV windows at load, and splits each
//! window where its compute ends. That moved the overlapped builders'
//! (`build`, `build_fused`) residual bits, iterate digests, recovery logs
//! and compute/halo split columns; every per-iteration total, program
//! digest and `build_serial` line stayed.
//!
//! Later the blocking halo schedule (`build_serial`) was deleted, and its
//! two ensemble pin lines with it; every remaining line is unchanged.
//!
//! Then the reduction rounds began to carry independent work on background
//! threads (the z-column BiCGStab's `(y, y)` dot, `x += α p` and
//! `p −= ω s`; the fused table's `p −= ω s`; textbook CG's `x += α p`):
//! that moved every z-column BiCGStab and CG program digest (both CG
//! variants and both ω-step variants share a phase table), their cycle
//! columns, the `ReduceBoth` digests of the reduction sweep, and the
//! recovery logs whose seeded flips now land in other phases. Every
//! residual bit and iterate digest of a plain solve stayed. The ensemble's
//! residual-norm round, which ends at the host, was then charged one pass
//! over the host tree instead of a round trip, which moved the fused
//! ensemble's recovery log the same way.
//!
//! Then the fused ensemble stopped computing three dots whose only use was
//! an unread reply register (14 payload lanes and a 7-word reply became 11
//! and 6). That moved every `build_fused` line: its program digests, its
//! dot and allreduce cycle columns (the shorter dot phase and payload),
//! its residual bits and iterate digest (the α/ω/β arithmetic is the same,
//! but the fp16 SpMV's accumulation order depends on fabric state that
//! survives quiescence, and the shorter phases shift it), and the k = 2
//! recovery log (the seeded flips are drawn over a tile's used SRAM, which
//! shrank by 16 bytes, so they land on other words and cycles). Every
//! classic `build` line and every single-wafer line is unchanged.

use stencil::decomp::Block2D;
use stencil::mesh::Mesh3D;
use stencil::precond::jacobi_scale;
use stencil::problem::manufactured;
use stencil::stencil7::poisson;
use stencil::stencil9::convection_diffusion9;
use stencil::DiaMatrix;
use wse_arch::{Fabric, FaultKindClass, FaultPlan, Region};
use wse_core::bicgstab2d::WaferBicgstab2d;
use wse_core::cg::{CgVariant, WaferCg};
use wse_core::krylov::{Program, SolveStats};
use wse_core::recovery::{RecoveryLog, RecoveryPolicy, ResidualTripwire};
use wse_core::{Krylov, MultiIterCycles, WaferBicgstab, WaferBicgstabMulti};
use wse_float::F16;
use wse_multi::{HostLink, MultiFabric};
use wse_serve::program_digest;

/// Everything one driven solve leaves behind, bit-exact.
#[derive(Debug, PartialEq)]
struct Pin {
    /// `program_digest` after build (ensembles: one per wafer).
    program: Vec<u64>,
    /// Per-iteration cycles `[spmv, dot, allreduce, update, scalar]`
    /// (ensembles append `[halo, halo_hidden, host_allreduce]`).
    cycles: Vec<Vec<u64>>,
    /// `f64::to_bits` of each relative residual.
    residuals: Vec<u64>,
    /// FNV-1a over the iterate's fp16 bit patterns.
    x: u64,
}

fn pin<const N: usize>(program: &[u64], cycles: &[[u64; N]], residuals: &[u64], x: u64) -> Pin {
    Pin {
        program: program.to_vec(),
        cycles: cycles.iter().map(|c| c.to_vec()).collect(),
        residuals: residuals.to_vec(),
        x,
    }
}

/// A fresh `w × h` fabric with `image` blitted at `(x, y)`: the one
/// placement path, the service's.
fn placed(image: &Fabric, (w, h): (usize, usize), (x, y): (usize, usize)) -> Fabric {
    let mut fabric = Fabric::new(w, h);
    fabric.blit_region(Region::new(x, y, image.width(), image.height()), image);
    fabric
}

/// Solves on one fabric through the shared driver and collects the pin.
fn solve(fabric: &mut Fabric, solver: &Program, b: &[F16], iters: usize) -> Pin {
    let program = vec![program_digest(fabric)];
    let (x, SolveStats { iterations, residuals }) = solver.solve(fabric, b, iters);
    let cycles =
        iterations.iter().map(|c| vec![c.spmv, c.dot, c.allreduce, c.update, c.scalar]).collect();
    Pin { program, cycles, residuals: bits(&residuals), x: x_digest(&x) }
}

fn x_digest(x: &[F16]) -> u64 {
    x.iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

fn bits(residuals: &[f64]) -> Vec<u64> {
    residuals.iter().map(|r| r.to_bits()).collect()
}

fn multi_cycles(c: &MultiIterCycles) -> Vec<u64> {
    let k = c.compute;
    vec![k.spmv, k.dot, k.allreduce, k.update, k.scalar, c.halo, c.halo_hidden, c.host_allreduce]
}

/// The recovery log as pinned text: the summary line plus every event.
fn render(log: &RecoveryLog) -> String {
    format!("{log} | {}", log.events.join(" | "))
}

fn system3d(mesh: Mesh3D) -> (DiaMatrix<F16>, Vec<F16>) {
    let p = manufactured(mesh, (1.0, -0.5, 0.5), 11).preconditioned();
    (p.matrix.convert(), p.rhs.iter().map(|&v| F16::from_f64(v)).collect())
}

/// Jacobi-scaled system with a deterministic non-trivial exact solution.
fn scaled(a: DiaMatrix<f64>, exact: impl Fn(usize) -> f64) -> (DiaMatrix<F16>, Vec<F16>) {
    let exact: Vec<f64> = (0..a.mesh().len()).map(exact).collect();
    let mut b = vec![0.0; exact.len()];
    a.matvec_f64(&exact, &mut b);
    let sys = jacobi_scale(&a, &b);
    (sys.matrix.convert(), sys.rhs.iter().map(|&v| F16::from_f64(v)).collect())
}

fn system2d(w: usize, h: usize, block: Block2D) -> (DiaMatrix<F16>, Vec<F16>) {
    let a = convection_diffusion9(block.covered_mesh(w, h), (1.5, -0.5));
    scaled(a, |i| (i % 9) as f64 * 0.125 - 0.5)
}

fn spd_system(mesh: Mesh3D) -> (DiaMatrix<F16>, Vec<F16>) {
    scaled(poisson(mesh), |i| ((i * 7) % 9) as f64 * 0.125 - 0.5)
}

fn multi_system() -> (DiaMatrix<F16>, Vec<F16>) {
    scaled(poisson(Mesh3D::new(6, 4, 8)), |i| (i * 29 % 101) as f64 / 101.0 - 0.4)
}

type MultiBuild = fn(&mut MultiFabric, &DiaMatrix<F16>) -> WaferBicgstabMulti;

/// fp16-scale recovery policy with a mid-solve checkpoint cadence.
fn policy() -> RecoveryPolicy {
    RecoveryPolicy {
        checkpoint_every: 2,
        max_retries: 3,
        verify_rel: 0.1,
        tripwire: ResidualTripwire { converged: 4e-3, diverged: 1e6 },
        label: String::new(),
    }
}

/// Seeded SRAM bit flips over the data-holding part of a `w × h` fabric.
fn flips(seed: u64, fabric: &Fabric, w: usize, h: usize) -> FaultPlan {
    let words = fabric.tile(0, 0).mem.used() / 2;
    FaultPlan::random(
        seed,
        24,
        8_000,
        Region::new(0, 0, w, h),
        words,
        &[FaultKindClass::SramBitFlip],
    )
}

#[test]
fn bicgstab3d_classic() {
    let (a, b) = system3d(Mesh3D::new(4, 4, 8));
    let mut fabric = Fabric::new(4, 4);
    let solver = WaferBicgstab::build(&mut fabric, &a);
    let got = solve(&mut fabric, &solver, &b, 4);
    let want = pin(
        &[12478008622862908362],
        &[[104, 24, 88, 8, 17], [104, 24, 88, 8, 17], [104, 24, 88, 8, 17], [103, 24, 88, 8, 17]],
        &[4591880568433472291, 4583956917081667674, 4578194679802881717, 4576464123997942970],
        619672358127573295,
    );
    assert_eq!(got, want);
}

#[test]
fn bicgstab3d_omega_fused() {
    let (a, b) = system3d(Mesh3D::new(8, 8, 16));
    let mut fabric = Fabric::new(8, 8);
    let solver = WaferBicgstab::build_fused(&mut fabric, &a);
    let got = solve(&mut fabric, &solver, &b, 3);
    let want = pin(
        &[18018661276709525821],
        &[[158, 48, 105, 20, 16], [164, 48, 104, 20, 16], [159, 48, 104, 20, 16]],
        &[4600130674357753811, 4595377121838907936, 4590405312591771467],
        5674372085720162475,
    );
    assert_eq!(got, want);
}

#[test]
fn bicgstab2d_at_origin_and_rebased() {
    const PROGRAM: u64 = 11026655737627275334;
    let want = |program: u64| {
        pin(
            &[program],
            // Totals 288, 286, 292, 286.
            &[
                [142, 40, 66, 24, 16],
                [142, 40, 64, 24, 16],
                [142, 40, 70, 24, 16],
                [142, 40, 64, 24, 16],
            ],
            &[4584024342590148053, 4583042965677946175, 4566224865108686756, 4561045633490671539],
            2113677286868873213,
        )
    };
    let block = Block2D::new(4, 4);
    let (a, b) = system2d(3, 3, block);

    let mut fabric = Fabric::new(3, 3);
    let solver = WaferBicgstab2d::build(&mut fabric, &a, block);
    assert_eq!(solve(&mut fabric, &solver, &b, 4), want(PROGRAM));

    // The same program blitted to (2, 1) of a larger fabric — region bytes
    // identical, whole-fabric digest pinned too — driven through a
    // rebased handle.
    let mut image = Fabric::new(3, 3);
    let built = WaferBicgstab2d::build(&mut image, &a, block);
    let mut big = placed(&image, (6, 5), (2, 1));
    assert_eq!(program_digest(&big.extract_region(Region::new(2, 1, 3, 3))), PROGRAM);
    let solver = built.rebased((2, 1));
    assert_eq!(solve(&mut big, &solver, &b, 4), want(3419288559842228509));
}

#[test]
fn cg_both_variants() {
    let (a, b) = spd_system(Mesh3D::new(4, 4, 8));
    let want = [
        pin(
            &[16573616514746544726],
            &[[52, 16, 43, 4, 5], [51, 16, 43, 4, 5], [52, 16, 43, 4, 5], [52, 16, 43, 4, 5]],
            &[4599097329464941088, 4591149551683346457, 4585291340794383038, 4580270122678187503],
            3228667008488097442,
        ),
        pin(
            &[8238080077612281503],
            &[[53, 16, 32, 8, 8], [52, 16, 33, 8, 11], [51, 16, 33, 8, 11], [52, 16, 33, 8, 11]],
            &[4599097324109761090, 4591149254712702949, 4585287802949700660, 4580274119508173433],
            8093184009548978188,
        ),
    ];
    for (variant, want) in [CgVariant::Standard, CgVariant::SingleReduction].into_iter().zip(want) {
        let mut fabric = Fabric::new(4, 4);
        let solver = WaferCg::build(&mut fabric, &a, variant);
        assert_eq!(solve(&mut fabric, &solver, &b, 4), want, "{variant:?}");
    }
}

#[test]
fn multi_k2_all_three_builders() {
    let (a, b) = multi_system();
    let cases: [(&str, MultiBuild, Pin); 2] = [
        (
            "build",
            WaferBicgstabMulti::build,
            pin(
                &[80536323273891261, 12691456425855917967],
                &[
                    [104, 24, 76, 8, 17, 278, 100, 1440],
                    [105, 24, 76, 8, 17, 277, 101, 1440],
                    [107, 24, 76, 8, 17, 275, 103, 1440],
                ],
                &[4591597939489792024, 4583063400275660561, 4580153507358731840],
                2550208857357764554,
            ),
        ),
        (
            "build_fused",
            WaferBicgstabMulti::build_fused,
            pin(
                &[9161216108756143976, 16395865114564301010],
                &[
                    [107, 66, 55, 14, 0, 275, 103, 362],
                    [109, 66, 55, 14, 0, 273, 105, 362],
                    [109, 66, 55, 14, 0, 273, 105, 362],
                ],
                &[4591589100812354968, 4583058897445785478, 4580154270164298541],
                7390374900691992543,
            ),
        ),
    ];
    for (name, build, want) in cases {
        let mut multi = MultiFabric::new(6, 4, 2, HostLink::paper_default());
        let solver = build(&mut multi, &a);
        let program = (0..2).map(|m| program_digest(multi.shard(m))).collect();
        let (x, stats) = solver.solve(&mut multi, &b, 3);
        let cycles = stats.iterations.iter().map(multi_cycles).collect();
        let got = Pin { program, cycles, residuals: bits(&stats.residuals), x: x_digest(&x) };
        assert_eq!(got, want, "{name}");
    }
}

/// One recovering solve's pinned outcome: rendered log, residual bits of
/// the committed iterations, iterate digest.
type Recovered = (String, Vec<u64>, u64);

fn recovered(log: &str, residuals: &[u64], x: u64) -> Recovered {
    (log.to_string(), residuals.to_vec(), x)
}

#[test]
fn recovery_under_seeded_bit_flips_single_wafer() {
    let (a, b) = system3d(Mesh3D::new(4, 4, 8));
    let mut fabric = Fabric::new(4, 4);
    let solver = WaferBicgstab::build(&mut fabric, &a);
    fabric.arm_faults(&flips(29, &fabric, 4, 4));
    let (x, stats, log) = solver.solve_with_recovery(&mut fabric, &a, &b, 12, &policy());
    assert_eq!(
        (render(&log), bits(&stats.residuals), x_digest(&x)),
        recovered(
            "recovery: RetriesExhausted after 7 iterations (rel 2.239e-2); 4 checkpoints, 3 \
             rollbacks (3 iterations lost), 0 stalls, 0 trips, 4 false convergences | iter 7: \
             false convergence (recursive rel 3.556e-3, true rel 2.927e2) | iter 7: false \
             convergence (recursive rel 3.564e-3, true rel 2.927e2) | iter 7: false convergence \
             (recursive rel 3.564e-3, true rel 2.927e2) | iter 7: false convergence (recursive \
             rel 3.564e-3, true rel 2.927e2)",
            &[
                4591880568433472291,
                4583956917081667674,
                4578194679802881717,
                4576464123997942970,
                4579738096378973761,
                4584147863198528970,
                4582110360511703181
            ],
            0xc00baa0b2dcef3d1,
        )
    );

    let block = Block2D::new(4, 4);
    let (a, b) = system2d(3, 3, block);
    let mut fabric = Fabric::new(3, 3);
    let solver = WaferBicgstab2d::build(&mut fabric, &a, block);
    fabric.arm_faults(&flips(20, &fabric, 3, 3));
    let (x, stats, log) = solver.solve_with_recovery(&mut fabric, &a, &b, 12, &policy());
    assert_eq!(
        (render(&log), bits(&stats.residuals), x_digest(&x)),
        recovered(
            "recovery: Converged after 3 iterations (rel 1.992e-3); 2 checkpoints, 1 rollbacks \
             (1 iterations lost), 0 stalls, 1 trips, 0 false convergences | iter 1: tripwire \
             NonFinite (rel NaN)",
            &[4584024342590148053, 4583042965677946175, 4566738615956866940],
            0x1d092eb7e2001c49,
        )
    );
}

/// CG under flips. Seed 25 trips the wire in iteration 1 of the
/// single-reduction solve, so the rollback lands on the post-load
/// checkpoint and the replay must take the β = 0 first-iteration path
/// again; seed 37 rolls back to a mid-solve checkpoint, where it must not.
#[test]
fn recovery_under_seeded_bit_flips_cg() {
    let (a, b) = spd_system(Mesh3D::new(4, 4, 8));
    let cases = [
        (
            CgVariant::Standard,
            37,
            recovered(
                "recovery: Converged after 6 iterations (rel 2.347e-3); 3 checkpoints, 1 \
                 rollbacks (1 iterations lost), 0 stalls, 1 trips, 0 false convergences | iter \
                 3: tripwire NonFinite (rel NaN)",
                &[
                    4599097329464941088,
                    4591149551683346457,
                    4585291451519114633,
                    4580258184486184507,
                    4573092320888854213,
                    4567558806899502580,
                ],
                0x33e3b6763a289098,
            ),
        ),
        (
            CgVariant::SingleReduction,
            25,
            recovered(
                "recovery: Converged after 6 iterations (rel 2.341e-3); 3 checkpoints, 1 \
                 rollbacks (1 iterations lost), 0 stalls, 1 trips, 0 false convergences | iter \
                 1: tripwire NonFinite (rel inf)",
                &[
                    4599097324109761090,
                    4591170507499002920,
                    4585293999570527128,
                    4580291599775474025,
                    4573089499241665476,
                    4567544922111706052,
                ],
                0x8d81bc02a794e43b,
            ),
        ),
        (
            CgVariant::SingleReduction,
            37,
            recovered(
                "recovery: Converged after 6 iterations (rel 2.267e-3); 3 checkpoints, 1 \
                 rollbacks (1 iterations lost), 0 stalls, 1 trips, 0 false convergences | iter \
                 3: tripwire NonFinite (rel inf)",
                &[
                    4599097324109761090,
                    4591149254712702949,
                    4585287633164846807,
                    4580195666843256412,
                    4573025498870318754,
                    4567373936647200543,
                ],
                0xd277a1a9ddc55dea,
            ),
        ),
    ];
    for (variant, seed, want) in cases {
        let mut fabric = Fabric::new(4, 4);
        let solver = WaferCg::build(&mut fabric, &a, variant);
        fabric.arm_faults(&flips(seed, &fabric, 4, 4));
        let (x, stats, log) = solver.solve_with_recovery(&mut fabric, &a, &b, 12, &policy());
        let got = (render(&log), bits(&stats.residuals), x_digest(&x));
        assert_eq!(got, want, "{variant:?} seed {seed}");
    }
}

#[test]
fn recovery_under_seeded_bit_flips_multi_k2() {
    let (a, b) = multi_system();
    let cases: [(&str, MultiBuild, u64, Recovered); 2] = [
        (
            "build",
            WaferBicgstabMulti::build,
            12,
            recovered(
                "recovery: Converged after 6 iterations (rel 2.864e-3); 3 checkpoints, 0 \
                 rollbacks (0 iterations lost), 0 stalls, 0 trips, 0 false convergences | ",
                &[
                    4591597939489792024,
                    4583066408803585948,
                    4580110331994398639,
                    4576793799025522118,
                    4573003590534093947,
                    4568749756599082264,
                ],
                0x41adb2762b6a9031,
            ),
        ),
        (
            "build_fused",
            WaferBicgstabMulti::build_fused,
            24,
            recovered(
                "recovery: RetriesExhausted after 8 iterations (rel 2.235e-2); 5 checkpoints, 3 \
                 rollbacks (0 iterations lost), 0 stalls, 0 trips, 4 false convergences | iter \
                 8: false convergence (recursive rel 3.434e-3, true rel 1.463e-1) | iter 8: false \
                 convergence (recursive rel 3.433e-3, true rel 1.463e-1) | iter 8: false \
                 convergence (recursive rel 3.433e-3, true rel 1.463e-1) | iter 8: false \
                 convergence (recursive rel 3.433e-3, true rel 1.463e-1)",
                &[
                    4591589100812354968,
                    4583058897445785478,
                    4580154270164298541,
                    4576784990234124056,
                    4585525235054650596,
                    4576659272476379106,
                    4574915917050065502,
                    4582100259101951277,
                ],
                0xb3fa808c5a781ee,
            ),
        ),
    ];
    for (name, build, seed, want) in cases {
        let mut multi = MultiFabric::new(6, 4, 2, HostLink::paper_default());
        let solver = build(&mut multi, &a);
        // The flips land on wafer 0's slab.
        let plan = flips(seed, multi.shard(0), 3, 4);
        multi.shard_mut(0).arm_faults(&plan);
        let (x, stats, log) = solver.solve_with_recovery(&mut multi, &a, &b, 12, &policy());
        assert_eq!((render(&log), bits(&stats.residuals), x_digest(&x)), want, "{name}");
    }
}

// ---------------------------------------------------------------------
// A second, awkward shape per builder variant (non-square fabrics, odd z,
// a `bx != by` block off the origin, uneven k = 3 slabs), recorded with
// the hand-written builders at the commit before they became tables.
// ---------------------------------------------------------------------

#[test]
fn awkward_bicgstab3d_both_variants() {
    let (a, b) = system3d(Mesh3D::new(3, 5, 7));
    type Build = fn(&mut Fabric, &DiaMatrix<F16>) -> WaferBicgstab;
    // Same arithmetic either way at this size: only the program and the
    // reduction rounds differ.
    let residuals = [4589211500550235520, 4581489764413554478];
    let cases: [(&str, Build, Pin); 2] = [
        (
            "build",
            WaferBicgstab::build,
            pin(
                &[1607504863618019477],
                &[[100, 24, 76, 8, 17], [103, 24, 76, 8, 17]],
                &residuals,
                1552073169969474409,
            ),
        ),
        (
            "build_fused",
            WaferBicgstab::build_fused,
            pin(
                &[11657469689372283089],
                &[[100, 32, 66, 10, 16], [103, 32, 66, 10, 16]],
                &residuals,
                1552073169969474409,
            ),
        ),
    ];
    for (name, build, want) in cases {
        let mut fabric = Fabric::new(3, 5);
        let solver = build(&mut fabric, &a);
        assert_eq!(solve(&mut fabric, &solver, &b, 2), want, "{name}");
    }
}

#[test]
fn awkward_cg_both_variants() {
    let (a, b) = spd_system(Mesh3D::new(5, 2, 9));
    let want = [
        pin(
            &[7759417170376207067],
            &[[49, 18, 33, 6, 5], [48, 18, 33, 6, 5]],
            &[4598287175790107441, 4590662686575061322],
            6519288228156074577,
        ),
        pin(
            &[10885861668446099538],
            &[[49, 18, 25, 12, 8], [48, 18, 25, 12, 11]],
            &[4598287190992801006, 4590654657114568827],
            9139634422530143261,
        ),
    ];
    for (variant, want) in [CgVariant::Standard, CgVariant::SingleReduction].into_iter().zip(want) {
        let mut fabric = Fabric::new(5, 2);
        let solver = WaferCg::build(&mut fabric, &a, variant);
        assert_eq!(solve(&mut fabric, &solver, &b, 2), want, "{variant:?}");
    }
}

/// A 3 × 5 block per tile on a 2 × 3 region at (1, 2) of a 4 × 6 fabric.
#[test]
fn awkward_bicgstab2d_off_origin() {
    let block = Block2D::new(3, 5);
    let (a, b) = system2d(2, 3, block);
    let mut image = Fabric::new(2, 3);
    let solver = WaferBicgstab2d::build(&mut image, &a, block).rebased((1, 2));
    let mut big = placed(&image, (4, 6), (1, 2));
    assert_eq!(program_digest(&big.extract_region(Region::new(1, 2, 2, 3))), 12419929318559041521);
    let want = pin(
        &[14703937395703444160],
        &[[164, 44, 59, 36, 16], [164, 44, 56, 36, 16]],
        &[4584856864056267430, 4574818007623506872],
        1618200339555371800,
    );
    assert_eq!(solve(&mut big, &solver, &b, 2), want);
}

/// Global width 7 over k = 3 wafers: slabs 3 / 2 / 2, so the middle wafer
/// is all seam tiles.
#[test]
fn awkward_multi_k3_all_three_builders() {
    let (a, b) = scaled(poisson(Mesh3D::new(7, 3, 5)), |i| (i * 29 % 101) as f64 / 101.0 - 0.4);
    let cases: [(&str, MultiBuild, Pin); 2] = [
        (
            "build",
            WaferBicgstabMulti::build,
            pin(
                &[17082732655761538722, 15491875225357717095, 8373723149159256152],
                &[[95, 21, 70, 8, 17, 285, 91, 2880], [96, 21, 68, 8, 17, 284, 92, 2880]],
                &[4588924690073301781, 4582833092470267766],
                18006390359464154482,
            ),
        ),
        (
            "build_fused",
            WaferBicgstabMulti::build_fused,
            pin(
                &[7868126767292549009, 11337668916586535664, 2713276645766975427],
                &[[98, 55, 52, 14, 0, 282, 94, 724], [102, 55, 52, 14, 0, 278, 98, 724]],
                &[4588958196458314098, 4582849216378739683],
                16706310221729867905,
            ),
        ),
    ];
    for (name, build, want) in cases {
        let mut multi = MultiFabric::new(7, 3, 3, HostLink::paper_default());
        assert_eq!((0..3).map(|m| multi.slab(m).len()).collect::<Vec<_>>(), [3, 2, 2]);
        let solver = build(&mut multi, &a);
        let program = (0..3).map(|m| program_digest(multi.shard(m))).collect();
        let (x, stats) = solver.solve(&mut multi, &b, 2);
        let cycles = stats.iterations.iter().map(multi_cycles).collect();
        let got = Pin { program, cycles, residuals: bits(&stats.residuals), x: x_digest(&x) };
        assert_eq!(got, want, "{name}");
    }
}

// ---------------------------------------------------------------------
// The reduction networks on their own: the scalar tree as one task per
// tile and as a reduce/broadcast pair, the lane chains, and the
// interleaved pair of trees a `ReduceBoth` round runs. Recorded while the
// scalar tree, its split form and the lane chains were three separate
// builders.
// ---------------------------------------------------------------------

/// FNV-1a over 32-bit words.
fn words_digest(words: impl IntoIterator<Item = u32>) -> u64 {
    words
        .into_iter()
        .flat_map(u32::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Tile `i`'s scalar contribution: non-uniform, so a change of summation
/// order shows in the bits.
fn contribution(i: usize) -> f32 {
    (i * 37 % 101) as f32 / 16.0 - 2.9
}

#[test]
fn reduction_networks_sweep() {
    use wse_arch::fabric::STALL_WINDOW;
    use wse_arch::instr::Stmt;
    use wse_arch::types::{Dtype, Reg};
    use wse_core::allreduce::{Payload, Reduction};
    const R_IN: Reg = 24;
    const R_OUT: Reg = 25;
    const R_ACC: Reg = 26;
    const SCALAR: Payload = Payload::Scalar { r_in: R_IN, r_out: R_OUT, r_acc: R_ACC };
    let run = |fabric: &mut Fabric| fabric.run_watched(100_000, STALL_WINDOW).unwrap();
    let scalar_shapes = [(2, 2), (2, 7), (3, 3), (4, 4), (5, 3), (9, 5)];

    // The one-task scalar tree: (digest, cycles, every tile's output bits).
    let mut one = Vec::new();
    for (w, h) in scalar_shapes.into_iter().chain([8, 16, 32, 48].map(|n| (n, n))) {
        let mut fabric = Fabric::new(w, h);
        let net = Reduction::build(&mut fabric, w, h, SCALAR);
        let digest = program_digest(&fabric);
        let values: Vec<f32> = (0..w * h).map(contribution).collect();
        let (out, cycles) = net.run(&mut fabric, &values);
        one.push((digest, cycles, words_digest(out.iter().map(|v| v.to_bits()))));
    }

    // The split tree: (digest, [reduce, broadcast] cycles, the root's
    // partial bits, every tile's output bits).
    let mut split = Vec::new();
    for (w, h) in scalar_shapes {
        let mut fabric = Fabric::new(w, h);
        let net = Reduction::build_split(&mut fabric, w, h, SCALAR);
        let digest = program_digest(&fabric);
        for y in 0..h {
            for x in 0..w {
                let core = &mut fabric.tile_mut(x, y).core;
                core.regs[R_IN as usize] = contribution(y * w + x);
                core.activate(net.tasks(x, y)[0]);
            }
        }
        let reduce = run(&mut fabric);
        let (rx, ry) = net.root();
        let partial = fabric.tile(rx, ry).core.regs[R_ACC as usize].to_bits();
        for y in 0..h {
            for x in 0..w {
                fabric.tile_mut(x, y).core.activate(net.tasks(x, y)[1]);
            }
        }
        let bcast = run(&mut fabric);
        let out = (0..w * h).map(|i| fabric.tile(i % w, i / w).core.regs[R_OUT as usize].to_bits());
        split.push((digest, [reduce, bcast], partial, words_digest(out)));
    }

    // The lane chains, m = 14 with a 7-register reply: (digest, [reduce,
    // broadcast] cycles, the root's lane bits, every tile's reply bits).
    const M: u32 = 14;
    const REPLY: [Reg; 7] = [2, 3, 6, 7, 12, 9, 11];
    let mut lanes = Vec::new();
    for (w, h) in [(1, 1), (1, 4), (4, 1), (3, 3), (5, 4)] {
        let mut fabric = Fabric::new(w, h);
        let (mut pay, mut reply) = (0, 0);
        for i in 0..w * h {
            let t = fabric.tile_mut(i % w, i / w);
            pay = t.mem.alloc_vec(M, Dtype::F32).unwrap();
            reply = t.mem.alloc_vec(REPLY.len() as u32, Dtype::F32).unwrap();
            for j in 0..M as usize {
                t.mem.write_f32(pay + 4 * j as u32, contribution(i * 14 + j));
            }
        }
        let payload = Payload::Lanes { pay, m: M, reply, regs: &REPLY };
        let net = Reduction::build_split(&mut fabric, w, h, payload);
        let digest = program_digest(&fabric);
        // Every DSR a tile registers is named by one of its statements.
        for i in 0..w * h {
            let core = &fabric.tile(i % w, i / w).core;
            let mut named = vec![false; core.num_dsrs()];
            for stmt in core.tasks().flat_map(|(_, task)| task.body.iter()) {
                let ids = match *stmt {
                    Stmt::Exec(t) | Stmt::Launch { instr: t, .. } => [t.dst, t.a, t.b],
                    Stmt::InitDsr { dsr, .. } => [Some(dsr), None, None],
                    _ => [None; 3],
                };
                ids.into_iter().flatten().for_each(|id| named[id as usize] = true);
            }
            assert!(named.iter().all(|&n| n), "{w}x{h} lanes: tile {i} has an unnamed DSR");
        }
        for i in 0..w * h {
            fabric.tile_mut(i % w, i / w).core.activate(net.tasks(i % w, i / w)[0]);
        }
        let reduce = run(&mut fabric);
        let root = fabric.tile_mut(0, 0);
        let sums: Vec<u32> = (0..M).map(|j| root.mem.read_f32(pay + 4 * j).to_bits()).collect();
        for i in 0..REPLY.len() as u32 {
            root.mem.write_f32(reply + 4 * i, contribution(i as usize) * 3.0);
        }
        for i in 0..w * h {
            fabric.tile_mut(i % w, i / w).core.activate(net.tasks(i % w, i / w)[1]);
        }
        let bcast = run(&mut fabric);
        let out = (0..w * h).flat_map(|i| {
            let regs = fabric.tile(i % w, i / w).core.regs;
            REPLY.map(|r| regs[r as usize].to_bits())
        });
        lanes.push((digest, [reduce, bcast], words_digest(sums), words_digest(out)));
    }

    // The interleaved pair of a `ReduceBoth` round, on shapes with the
    // root's column on the edge (`cx0 = 0`) and the root on the edge.
    let mut both = Vec::new();
    for (w, h) in [(2, 2), (3, 5), (5, 3)] {
        let (a, _) = system3d(Mesh3D::new(w, h, 4));
        let mut fabric = Fabric::new(w, h);
        let _ = WaferBicgstab::build_fused(&mut fabric, &a);
        both.push(program_digest(&fabric));
    }

    let want_one = [
        (8020299545844045590, 12, 12687659582356861445),
        (11954788661332408597, 19, 7406531698931595657),
        (17810186214931492784, 16, 11469340748627151651),
        (786018500385399560, 21, 7855811143944219333),
        (12901260619221297418, 18, 920569913830202127),
        (9701908728362815966, 26, 10486525283343384618),
        (15095898339764764804, 29, 6134694655109477797),
        (2640543549278214020, 45, 12449333386027876133),
        (10829810465514120228, 77, 15501502731012504357),
        (18088322980166744216, 109, 9752801592811614501),
    ];
    let want_split = [
        (1143853689188743982, [7, 5], 3229692724, 12687659582356861445),
        (14969855639206325047, [12, 7], 3206126000, 7406531698931595657),
        (6981622887276948592, [11, 5], 1051511984, 11469340748627151651),
        (4557406046499213058, [14, 7], 3223165344, 7855811143944219333),
        (529168419717323304, [12, 6], 3224109062, 920569913830202127),
        (2620156717475699642, [17, 9], 1086980087, 10486525283343384618),
    ];
    let want_lanes = [
        (10316224740216103419, [1, 14], 12173610704589214781, 17906120680088862580),
        (8066843665698495782, [22, 20], 14311866551555774424, 3912444044278087445),
        (9983194775616266386, [22, 20], 14311866551555774424, 3912444044278087445),
        (7504975452640170187, [40, 20], 13922611525635273799, 10214923133787964116),
        (17033814652611561472, [46, 23], 10839319953888556098, 9008367607563520469),
    ];
    assert_eq!(one, want_one);
    assert_eq!(split, want_split);
    assert_eq!(lanes, want_lanes);
    assert_eq!(both, [10125434581689272037, 17932186433939580235, 14524373073855980381]);
}
