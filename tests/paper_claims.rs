//! One test per headline claim of the paper — the contract EXPERIMENTS.md
//! reports against.

use wafer_stencil::perf::allreduce::AllReduceModel;
use wafer_stencil::perf::balance::{cs1_balance, cs1_bytes_per_flop};
use wafer_stencil::perf::mfix::MfixProjection;
use wafer_stencil::perf::opcounts;
use wafer_stencil::prelude::*;

/// §II: "48 KB ... totals 18 GB across the wafer" for ~380k cores — and the
/// experiment fabric is 602×595.
#[test]
fn memory_capacity_arithmetic() {
    let cores: u64 = 380_000;
    let total_gb = cores * 48 * 1024 / (1 << 30);
    assert_eq!(total_gb, 17, "48 KB × 380k cores ≈ 17.4 GB ('18 GB')");
    assert_eq!(602 * 595, 358_190, "compute fabric core count");
}

/// §IV: 10 Z words/core; Z = 1536 uses "about 31 KB out of 48 KB".
#[test]
fn storage_claim() {
    let m = Mapping3D::paper();
    assert_eq!(m.words_per_core(), 10 * 1536);
    let kb = m.bytes_per_core() as f64 / 1024.0;
    assert!((29.0..32.0).contains(&kb), "{kb} KB");
}

/// Table I: 44 operations per meshpoint per iteration; 40 fp16 + 4 fp32.
#[test]
fn table1_claim() {
    assert_eq!(opcounts::total_ops_per_point(), 44);
    assert_eq!(opcounts::mixed_hp_ops_per_point(), 40);
    assert_eq!(opcounts::mixed_sp_ops_per_point(), 4);
}

/// §V: 28.1 µs/iteration and 0.86 PFLOPS, about one third of peak.
#[test]
fn headline_claim_from_model() {
    let p = Cs1Model::default().predict_headline();
    assert!((p.time_us - 28.1).abs() / 28.1 < 0.15, "{} us", p.time_us);
    assert!((p.pflops - 0.86).abs() / 0.86 < 0.15, "{} PFLOPS", p.pflops);
    assert!((0.25..0.45).contains(&p.utilization));
}

/// §IV.3: scalar AllReduce under 1.5 µs across ~380k cores.
#[test]
fn allreduce_claim() {
    let m = AllReduceModel::default();
    let t = m.time_us(602, 595, Cs1Model::default().clock_ghz);
    assert!(t < 1.5, "{t} us");
}

/// §V.A: the 16K-core cluster takes "about 214 times more" than the CS-1.
#[test]
fn cluster_ratio_claim() {
    let joule = JouleModel::default();
    let cs1 = Cs1Model::default().predict_headline();
    let ratio = joule.time_per_iteration(600, 16384) / (cs1.time_us * 1e-6);
    assert!((170.0..270.0).contains(&ratio), "{ratio}x");
}

/// §V.A: 75 ms at 1024 cores scaling to ~6 ms at 16K on 600³; the 370³ mesh
/// fails to scale beyond 8K cores.
#[test]
fn scaling_claims() {
    let j = JouleModel::default();
    assert!((j.time_per_iteration(600, 1024) - 0.075).abs() < 0.002);
    assert!((j.time_per_iteration(600, 16384) - 0.006).abs() < 0.0002);
    let t8 = j.time_per_iteration(370, 8192);
    let t16 = j.time_per_iteration(370, 16384);
    assert!(t16 > 0.9 * t8, "no meaningful gain past 8K: {t8} -> {t16}");
}

/// §IV.2: 38×38 blocks fit (22800² geometry); 8×8 blocks stay under 20%
/// overhead (4800² geometry).
#[test]
fn two_d_mapping_claims() {
    assert_eq!(Block2D::max_square(), 38);
    let m = Block2D::new(38, 38).covered_mesh(600, 600);
    assert_eq!((m.nx, m.ny), (22_800, 22_800));
    assert!(Block2D::new(8, 8).overhead_fraction() < 0.20);
    let m = Block2D::new(8, 8).covered_mesh(600, 600);
    assert_eq!((m.nx, m.ny), (4_800, 4_800));
}

/// §II: "three bytes to and from memory for every flop"; the CS-1 sits at
/// the bottom of the flops-per-word scale.
#[test]
fn balance_claims() {
    assert_eq!(cs1_bytes_per_flop(), 3.0);
    assert!(cs1_balance().flops_per_mem_word < 1.0);
}

/// §VI.A: 80–125 timesteps/s projected; >200× the 16,384-core cluster.
#[test]
fn mfix_projection_claims() {
    let r = MfixProjection::default().project();
    assert!(r.steps_per_sec_low < 125.0 && r.steps_per_sec_high > 80.0);
    assert!(r.speedup_vs_joule > 200.0);
}

/// Fig. 9: mixed precision tracks fp32 early, then plateaus around 1e-2
/// while fp32 keeps going — measured on an actual momentum system.
#[test]
fn fig9_claim() {
    use wafer_stencil::cfd_::cavity::fig9_momentum_system;
    use wafer_stencil::solver_::study::run_policy;
    use wafer_stencil::stencil_::precond::jacobi_scale;
    let sys = fig9_momentum_system(10, 3);
    let scaled = jacobi_scale(&sys.matrix, &sys.rhs);
    let opts = SolveOptions { max_iters: 16, rtol: 1e-14, record_true_residual: true };
    let fp32 = run_policy::<Fp32>(&scaled.matrix, &scaled.rhs, &opts);
    let mixed = run_policy::<MixedF16>(&scaled.matrix, &scaled.rhs, &opts);
    // Plateau level: order 1e-2 (allow 1e-3..5e-2).
    assert!((1e-3..5e-2).contains(&mixed.best()), "mixed plateau {:.2e}", mixed.best());
    // fp32 goes at least 10x further down.
    assert!(
        fp32.best() * 10.0 < mixed.best(),
        "fp32 {:.2e} vs mixed {:.2e}",
        fp32.best(),
        mixed.best()
    );
    // Early iterations track: within 2x at iteration 3.
    let k = 2;
    let ratio = mixed.residuals[k] / fp32.residuals[k];
    assert!((0.5..2.0).contains(&ratio), "iteration-3 ratio {ratio}");
}

/// Builds BiCGStab on a `w×h` fabric for a `w×h×z` manufactured problem,
/// with the right-hand side loaded.
fn traced_setup(w: usize, h: usize, z: usize) -> (Fabric, WaferBicgstab) {
    let p = manufactured(Mesh3D::new(w, h, z), (1.0, -0.5, 0.5), 3).preconditioned();
    let a16: DiaMatrix<F16> = p.matrix.convert();
    let b16: Vec<F16> = p.rhs.iter().map(|&v| F16::from_f64(v)).collect();
    let mut fabric = Fabric::new(w, h);
    let solver = WaferBicgstab::build(&mut fabric, &a16);
    solver.load_rhs(&mut fabric, &b16);
    (fabric, solver)
}

/// §IV splits an iteration by where the datapath waits. Stall causes and
/// retire classes are counted on every run: over one 8×8×64 iteration, a
/// fabric that was never armed reports, between two `perf()` snapshots,
/// the same stall and retire totals as an armed trace of the same run.
#[test]
fn stall_and_retire_counts_need_no_trace() {
    use wafer_stencil::arch::{StallCause, TraceConfig};

    let (mut plain, solver) = traced_setup(8, 8, 64);
    let before = plain.perf();
    solver.iterate(&mut plain);
    let counted = plain.perf().since(&before);

    let (mut armed, solver) = traced_setup(8, 8, 64);
    armed.arm_trace(TraceConfig::default());
    solver.iterate(&mut armed);
    let trace = armed.take_trace().expect("trace was armed");

    assert_eq!(trace.stall_totals(), counted.stall);
    assert_eq!(trace.retire_totals(), counted.retired);
    assert_eq!(trace.perf, counted, "the trace's window is the unarmed run's delta");
    assert_eq!(counted.stall.iter().sum::<u64>(), counted.idle_cycles);
    assert!(counted.stall[StallCause::FifoWait.index()] > 0, "{:?}", counted.stall);
    assert!(counted.retired.iter().all(|&n| n > 0), "{:?}", counted.retired);
}

/// Fits every per-phase slope of the analytic model from untraced counter
/// measurements: two z values on a 4×4 fabric, plus a 2×2 fabric for the
/// AllReduce's perimeter term. The solver runs 2 SpMVs, 3 dots and 4
/// AXPY-grade update sweeps on the critical path, and 4 AllReduce rounds
/// (three carrying the other dot and AXPYs, which at these z are shorter
/// than a round) per iteration — the same multipliers `predict_iteration`
/// applies.
fn calibrated_model() -> Cs1Model {
    let measure = |w, h, z| {
        let (mut fabric, solver) = traced_setup(w, h, z);
        solver.iterate(&mut fabric)
    };
    let (w, h) = (4, 4);
    let (z1, z2) = (8, 16);
    let m1 = measure(w, h, z1);
    let m2 = measure(w, h, z2);
    let (sw, sh, sz) = (2, 2, 8);
    let ms = measure(sw, sh, sz);

    let mut model = Cs1Model::default();
    let dz = (z2 - z1) as f64;
    let fit = |c1: u64, c2: u64, per_iter: f64| {
        let (y1, y2) = (c1 as f64 / per_iter, c2 as f64 / per_iter);
        let slope = (y2 - y1) / dz;
        (slope, y2 - slope * z2 as f64)
    };
    (model.spmv_cycles_per_z, model.spmv_fixed) = fit(m1.spmv, m2.spmv, 2.0);
    (model.dot_cycles_per_z, model.dot_fixed) = fit(m1.dot, m2.dot, 3.0);
    (model.axpy_cycles_per_z, model.axpy_fixed) = fit(m1.update, m2.update, 4.0);
    // AllReduce latency depends on fabric perimeter, not z: fit from the
    // two fabric sizes (4 reduction rounds per iteration).
    model.allreduce.calibrate(&[(w, h, m1.allreduce / 4), (sw, sh, ms.allreduce / 4)]);
    model
}

/// §IV's per-phase cost model against the simulator's own trace: an armed
/// trace lands on the disarmed run's cycles and iterate bits (tracing
/// observes, never perturbs), and the traced phase split of a 4×4×32
/// iteration agrees with the model calibrated on other shapes within 15%
/// per phase, so the comparison is an interpolation test, not an identity.
#[test]
fn traced_iteration_matches_the_calibrated_phase_model() {
    use wafer_stencil::arch::TraceConfig;
    use wse_trace::{cross_validate, PhaseReport};

    let (w, h, z) = (4, 4, 32);
    let run = |armed: bool| {
        let (mut fabric, solver) = traced_setup(w, h, z);
        if armed {
            fabric.arm_trace(TraceConfig::default());
        }
        let cycles = (solver.iterate(&mut fabric), fabric.cycle());
        let bits: Vec<u16> = solver.read_x(&fabric).iter().map(|v| v.to_bits()).collect();
        (cycles, bits, fabric.take_trace())
    };
    let (plain, plain_bits, _) = run(false);
    let (armed, armed_bits, trace) = run(true);
    assert_eq!(armed, plain, "tracing changed simulated time");
    assert_eq!(armed_bits, plain_bits, "tracing changed the iterate");

    let report = PhaseReport::from_trace(&trace.expect("trace was armed"));
    let model = Cs1Model { fabric_w: w, fabric_h: h, ..calibrated_model() };
    let cv = cross_validate(&report, 1, &model, w, h, z);
    assert!(
        cv.all_within(0.15),
        "traced phase breakdown disagrees with the analytic model by more than 15%:\n{}",
        cv.render()
    );
}
