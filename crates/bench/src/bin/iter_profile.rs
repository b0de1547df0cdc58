//! Per-iteration phase profiler for the wafer BiCGStab solver, built on the
//! `wse-arch` tracing subsystem and the `wse-trace` exporters.
//!
//! The run has three parts:
//!
//! 1. **Calibration** — short *untraced* solves whose [`IterCycles`] counter
//!    returns fit the analytic [`Cs1Model`]'s per-phase slopes (the same
//!    flow the headline experiment uses via `calibrate_spmv`, extended to
//!    every phase). Calibration uses different fabric/z configurations than
//!    the validation run, so the comparison below is an interpolation test,
//!    not an identity.
//! 2. **Validation** — the target configuration runs twice, disarmed and
//!    armed. The two runs must land on the *same* fabric cycle count:
//!    tracing must observe the simulation, never perturb it. The armed
//!    run's [`FabricTrace`] yields the phase report, the Perfetto export
//!    (validated for well-formedness and monotone timestamps), and the
//!    utilization heatmap.
//! 3. **Cross-validation** — the *traced* phase breakdown is compared
//!    against the calibrated model's prediction; every phase must agree
//!    within 15%. The paper-scale context (28.1 µs iteration, <1.5 µs
//!    AllReduce) is printed alongside.
//!
//! Wall-clock timings go to **stderr** only: stdout is bit-for-bit
//! deterministic, which `scripts/verify.sh` checks by diffing two `--smoke`
//! runs. Outside `--smoke`, the binary also asserts the disarmed
//! configuration is at least as fast as the armed one (within generous
//! noise margins) — the disarmed hooks are a single pointer test per cycle.
//!
//! Usage:
//! ```text
//! iter_profile [--smoke] [--iters N] [--out trace.json]
//! ```

use perf_model::cs1::Cs1Model;
use std::time::Instant;
use stencil::mesh::Mesh3D;
use stencil::problem::manufactured;
use stencil::DiaMatrix;
use wse_arch::{Fabric, FabricTrace, TraceConfig};
use wse_core::bicgstab::IterCycles;
use wse_core::{build_transparent, WaferBicgstab};
use wse_float::F16;
use wse_multi::HostLink;
use wse_trace::{
    cross_validate, export_trace_json, stall_breakdown, utilization_ascii, validate_trace_json,
    PhaseReport,
};

struct Config {
    /// Two same-fabric calibration runs at different z (per-z slope fits).
    cal_z: (usize, usize),
    cal_fabric: (usize, usize),
    /// Extra small-fabric run for the AllReduce (w+h) fit.
    cal_small: (usize, usize, usize),
    /// The traced validation configuration.
    val: (usize, usize, usize),
    iters: usize,
    smoke: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args.iter().position(|a| a == "--out").and_then(|i| args.get(i + 1)).cloned();
    let iters_flag =
        args.iter().position(|a| a == "--iters").and_then(|i| args.get(i + 1)).map(|v| {
            v.parse::<usize>().unwrap_or_else(|_| panic!("--iters expects an integer, got '{v}'"))
        });
    let cfg = if smoke {
        Config {
            cal_z: (8, 16),
            cal_fabric: (4, 4),
            cal_small: (2, 2, 8),
            val: (4, 4, 32),
            iters: iters_flag.unwrap_or(1),
            smoke,
        }
    } else {
        Config {
            cal_z: (32, 64),
            cal_fabric: (4, 4),
            cal_small: (6, 6, 32),
            val: (8, 8, 128),
            iters: iters_flag.unwrap_or(2),
            smoke,
        }
    };
    run(&cfg, out.as_deref());
}

/// Builds the solver for a `w×h×z` manufactured problem, loads the RHS, and
/// returns everything ready to iterate.
fn setup(w: usize, h: usize, z: usize) -> (Fabric, WaferBicgstab) {
    let p = manufactured(Mesh3D::new(w, h, z), (1.0, -0.5, 0.5), 3).preconditioned();
    let a16: DiaMatrix<F16> = p.matrix.convert();
    let b16: Vec<F16> = p.rhs.iter().map(|&v| F16::from_f64(v)).collect();
    let mut fabric = Fabric::new(w, h);
    let solver = WaferBicgstab::build(&mut fabric, &a16);
    solver.load_rhs(&mut fabric, &b16);
    (fabric, solver)
}

/// One untraced iteration's counter-derived cycle breakdown.
fn measure(w: usize, h: usize, z: usize) -> IterCycles {
    let (mut fabric, solver) = setup(w, h, z);
    solver.iterate(&mut fabric)
}

/// Fits every per-phase slope of the analytic model from untraced counter
/// measurements. The solver runs 2 SpMVs, 4 dots, and 4 AllReduce rounds
/// per iteration, and the model groups the vector updates as 6 AXPY-grade
/// sweeps — the same multipliers `predict_iteration` applies.
fn calibrate(cfg: &Config) -> Cs1Model {
    let (w, h) = cfg.cal_fabric;
    let (z1, z2) = cfg.cal_z;
    let m1 = measure(w, h, z1);
    let m2 = measure(w, h, z2);
    let (sw, sh, sz) = cfg.cal_small;
    let ms = measure(sw, sh, sz);

    let mut model = Cs1Model::default();
    let dz = (z2 - z1) as f64;
    let fit = |c1: u64, c2: u64, per_iter: f64| {
        let (y1, y2) = (c1 as f64 / per_iter, c2 as f64 / per_iter);
        let slope = (y2 - y1) / dz;
        (slope, y2 - slope * z2 as f64)
    };
    (model.spmv_cycles_per_z, model.spmv_fixed) = fit(m1.spmv, m2.spmv, 2.0);
    (model.dot_cycles_per_z, model.dot_fixed) = fit(m1.dot, m2.dot, 4.0);
    (model.axpy_cycles_per_z, model.axpy_fixed) = fit(m1.update, m2.update, 6.0);
    // AllReduce latency depends on fabric perimeter, not z: fit from the
    // two fabric sizes (4 reduction rounds per iteration).
    model.allreduce.calibrate(&[(w, h, m1.allreduce / 4), (sw, sh, ms.allreduce / 4)]);
    model
}

/// Runs `iters` iterations and returns total cycles plus wall time.
fn run_iters(fabric: &mut Fabric, solver: &WaferBicgstab, iters: usize) -> (u64, f64) {
    let start_cycle = fabric.cycle();
    let wall = Instant::now();
    for _ in 0..iters {
        solver.iterate(fabric);
    }
    (fabric.cycle() - start_cycle, wall.elapsed().as_secs_f64())
}

/// FNV-1a of the exported JSON: cheap stdout fingerprint so the determinism
/// diff covers the whole Perfetto document, not just its summary stats.
fn fnv1a(data: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in data.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn run(cfg: &Config, out: Option<&str>) {
    let (vw, vh, vz) = cfg.val;
    println!(
        "iter_profile: BiCGStab on {vw}x{vh} wafer, z = {vz}, {} traced iteration(s)",
        cfg.iters
    );

    let model = calibrate(cfg);
    println!(
        "calibrated model: spmv {:.3}z+{:.1}, dot {:.3}z+{:.1}, axpy {:.3}z+{:.1}, \
         allreduce {:.2}(w+h)+{:.1}",
        model.spmv_cycles_per_z,
        model.spmv_fixed,
        model.dot_cycles_per_z,
        model.dot_fixed,
        model.axpy_cycles_per_z,
        model.axpy_fixed,
        model.allreduce.hop_factor,
        model.allreduce.fixed
    );

    // Disarmed run: the baseline cycle count tracing must not perturb.
    let (mut fabric, solver) = setup(vw, vh, vz);
    let (disarmed_cycles, disarmed_wall) = run_iters(&mut fabric, &solver, cfg.iters);

    // Armed run on an identical fresh setup.
    let (mut fabric, solver) = setup(vw, vh, vz);
    fabric.arm_trace(TraceConfig::default());
    let (armed_cycles, armed_wall) = run_iters(&mut fabric, &solver, cfg.iters);
    let trace: FabricTrace = fabric.take_trace().expect("trace was armed");

    assert_eq!(
        disarmed_cycles, armed_cycles,
        "tracing perturbed the simulation: {disarmed_cycles} cycles disarmed vs \
         {armed_cycles} armed"
    );
    println!("cycle identity: {disarmed_cycles} cycles armed and disarmed");

    // Reference-stepper run: the activity-driven optimized stepper must be
    // cycle-for-cycle identical to the retained full-scan reference.
    let (mut fabric, solver) = setup(vw, vh, vz);
    fabric.use_reference_stepper(true);
    let (reference_cycles, reference_wall) = run_iters(&mut fabric, &solver, cfg.iters);
    assert_eq!(
        disarmed_cycles, reference_cycles,
        "optimized stepper diverged from the reference: {disarmed_cycles} cycles optimized vs \
         {reference_cycles} reference"
    );
    println!("cycle identity: {reference_cycles} cycles reference and optimized steppers");

    // Sanitizer run: the runtime race/wait shadow state must observe the
    // simulation (same cycle count) and find the shipped solver clean.
    let (mut fabric, solver) = setup(vw, vh, vz);
    fabric.arm_sanitizer();
    let (sanitized_cycles, sanitized_wall) = run_iters(&mut fabric, &solver, cfg.iters);
    let sanitizer = fabric.take_sanitizer().expect("sanitizer was armed");
    assert_eq!(
        disarmed_cycles, sanitized_cycles,
        "sanitizer perturbed the simulation: {disarmed_cycles} cycles disarmed vs \
         {sanitized_cycles} sanitized"
    );
    assert!(sanitizer.is_clean(), "runtime sanitizer tripped on the shipped solver:\n{sanitizer}");
    println!(
        "cycle identity: {sanitized_cycles} cycles with runtime sanitizer armed \
         ({} race trips)",
        sanitizer.total_trips()
    );

    // Reliable-transport run: every seam is framed, so the same program
    // split across a k=2 ensemble over the ideal link must land on the
    // unsplit fabric's cycle count — frame headers and acks are
    // control-plane metadata, so reliability costs nothing until a fault
    // actually fires — and a healthy link never retransmits.
    let p = manufactured(Mesh3D::new(vw, vh, vz), (1.0, -0.5, 0.5), 3).preconditioned();
    let a16: DiaMatrix<F16> = p.matrix.convert();
    let b16: Vec<F16> = p.rhs.iter().map(|&v| F16::from_f64(v)).collect();
    let (solver, mut multi) = build_transparent(&a16, 2, HostLink::ideal());
    solver.load_rhs(&mut multi, &b16);
    let start = multi.cycle();
    for _ in 0..cfg.iters {
        solver.iterate(&mut multi);
    }
    let framed_cycles = multi.cycle() - start;
    assert_eq!(
        disarmed_cycles, framed_cycles,
        "the framed k=2 split diverged from the unsplit fabric: {disarmed_cycles} cycles \
         unsplit vs {framed_cycles} split"
    );
    assert_eq!(multi.retransmits(), 0, "a healthy link must never retransmit");
    println!(
        "cycle identity: {framed_cycles} cycles unsplit and framed \
         (k=2 transparent split over the ideal link, 0 retransmits)"
    );
    eprintln!(
        "wall: disarmed {disarmed_wall:.3}s, armed {armed_wall:.3}s \
         (x{:.2} while collecting), reference {reference_wall:.3}s \
         (x{:.2} vs optimized), sanitized {sanitized_wall:.3}s \
         (x{:.2} while shadowing)",
        armed_wall / disarmed_wall.max(1e-9),
        reference_wall / disarmed_wall.max(1e-9),
        sanitized_wall / disarmed_wall.max(1e-9)
    );
    if !cfg.smoke {
        // The disarmed hooks are one pointer test per cycle; a disarmed run
        // must never be slower than an armed one beyond scheduling noise.
        assert!(
            disarmed_wall <= armed_wall * 1.25 + 0.05,
            "disarmed tracing shows measurable slowdown: {disarmed_wall:.3}s disarmed \
             vs {armed_wall:.3}s armed"
        );
        // Same bound against the armed sanitizer: its disarmed cost is the
        // identical one-pointer test, so any disarmed slowdown is noise.
        assert!(
            disarmed_wall <= sanitized_wall * 1.25 + 0.05,
            "disarmed sanitizer shows measurable slowdown: {disarmed_wall:.3}s disarmed \
             vs {sanitized_wall:.3}s sanitized"
        );
    }

    let report = PhaseReport::from_trace(&trace);
    let clock = model.clock_ghz;
    println!();
    println!(
        "phase report ({} cycles traced, {:.3} us at {clock} GHz):",
        trace.window_cycles(),
        trace.window_cycles() as f64 / (clock * 1e3)
    );
    print!("{}", report.render(clock));

    println!();
    print!("{}", stall_breakdown(&trace));

    println!();
    print!("{}", utilization_ascii(&trace));

    let json = export_trace_json(&trace);
    let stats = validate_trace_json(&json).expect("exported Perfetto trace must validate");
    println!();
    println!(
        "perfetto: {} events ({} slices, {} instants, {} metadata), max ts {} cycles, \
         fnv1a {:016x}",
        stats.events,
        stats.slices,
        stats.instants,
        stats.metadata,
        stats.max_ts,
        fnv1a(&json)
    );
    if let Some(path) = out {
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote {path} ({} bytes)", json.len());
    }

    println!();
    println!("cross-validation vs calibrated CS-1 model (cycles/iteration):");
    let cv = cross_validate(
        &report,
        cfg.iters as u64,
        &Cs1Model { fabric_w: vw, fabric_h: vh, ..model },
        vw,
        vh,
        vz,
    );
    print!("{}", cv.render());
    assert!(
        cv.all_within(0.15),
        "traced phase breakdown disagrees with the analytic model by more than 15%:\n{}",
        cv.render()
    );
    println!("all phases within 15% of the analytic prediction");
}
