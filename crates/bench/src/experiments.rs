//! Implementations of every reproduced table and figure.

use cfd::cavity::{fig9_momentum_system, Cavity};
use perf_model::allreduce::AllReduceModel;
use perf_model::balance::{cs1_balance, cs1_bytes_per_flop, reference_machines};
use perf_model::capacity::{
    campaign_hours_cluster, campaign_hours_cs1, capacity_table, paper_campaigns,
};
use perf_model::cluster::JouleModel;
use perf_model::cs1::Cs1Model;
use perf_model::mfix::{paper_table2, CycleCosts, MfixProjection};
use perf_model::opcounts;
use solver::policy::{Fp32, Fp64, MixedF16, PureF16};
use solver::refinement::{iterative_refinement, RefinementOptions};
use solver::study::{run_policy, PrecisionCurve};
use solver::{bicgstab, SolveOptions};
use stencil::decomp::{Block2D, Mapping3D};
use stencil::dia::DiaMatrix;
use stencil::mesh::Mesh3D;
use stencil::problem::manufactured;
use wse_arch::Fabric;
use wse_core::allreduce::{Payload, Reduction};
use wse_core::bicgstab::WaferBicgstab;
use wse_dsl::tess::{spmv_color, verify_tessellation};
use wse_float::F16;

/// Result of the Table I experiment.
#[derive(Debug)]
pub struct Table1Result {
    /// Measured ops per meshpoint per iteration by kernel (mul, add).
    pub matvec: (f64, f64),
    /// Dot products.
    pub dot: (f64, f64),
    /// AXPY family.
    pub axpy: (f64, f64),
    /// Total per point per iteration.
    pub total: f64,
}

/// E-T1 — Table I: operations per meshpoint per iteration, measured by the
/// instrumented solver.
pub fn table1() -> Table1Result {
    let p = manufactured(Mesh3D::new(6, 6, 6), (1.0, 0.5, -0.5), 7).preconditioned();
    let opts = SolveOptions { max_iters: 10, rtol: 0.0, record_true_residual: false };
    let res = bicgstab::<Fp64>(&p.matrix, &p.rhs, &opts);
    let pp = res.ops.per_point_per_iter(p.matrix.nrows(), res.iters);
    Table1Result {
        matvec: (pp.matvec_mul, pp.matvec_add),
        dot: (pp.dot_mul, pp.dot_add),
        axpy: (pp.axpy_mul, pp.axpy_add),
        total: pp.total(),
    }
}

/// Prints Table I next to the paper's values.
pub fn print_table1() {
    let t = table1();
    println!("== Table I: operations per meshpoint per iteration ==");
    println!(
        "{:<12} {:>8} {:>8}   (paper: SP+ SPx | mixed HP+ HPx SP+)",
        "Operation", "mul", "add"
    );
    println!("{:<12} {:>8.1} {:>8.1}   (12 12 | 12 12 0)", "Matvec (x2)", t.matvec.0, t.matvec.1);
    println!("{:<12} {:>8.1} {:>8.1}   ( 4  4 |  0  4 4)", "Dot (x4)", t.dot.0, t.dot.1);
    println!("{:<12} {:>8.1} {:>8.1}   ( 6  6 |  6  6 0)", "AXPY (x6)", t.axpy.0, t.axpy.1);
    println!("{:<12} total = {:.1}   (paper: 44; mixed split 40 hp + 4 sp)", "", t.total);
    println!(
        "paper-table check: total {} = hp {} + sp {}",
        opcounts::total_ops_per_point(),
        opcounts::mixed_hp_ops_per_point(),
        opcounts::mixed_sp_ops_per_point()
    );
}

/// Result rows of the Table II experiment.
#[derive(Debug)]
pub struct Table2Result {
    /// (step, measured cycles/point, paper low, paper high).
    pub rows: Vec<(&'static str, f64, f64, f64)>,
}

/// E-T2 — Table II: cycles per meshpoint for the SIMPLE steps, from the
/// instrumented CFD assembly converted with the datapath cycle costs.
pub fn table2(n: usize, iters: usize) -> Table2Result {
    let mut cavity = Cavity::new(n, n, n, 0.05);
    cavity.run(iters);
    let counts = cavity.solver.counts;
    let cells = cavity.solver.field.grid.cells() * iters;
    let costs = CycleCosts::default();
    let conv = |c: cfd::opcount::OpClassCounts, per: usize| -> f64 {
        let pp = c.per_point(per);
        costs.cycles(pp.merge, pp.flop, pp.sqrt, pp.div, pp.transport)
    };
    let paper = paper_table2();
    // Momentum counts accumulate over three components; report per
    // component like the paper's per-equation row.
    let rows = vec![
        ("Initialization", conv(counts.initialization, cells), paper[0].total.0, paper[0].total.1),
        ("Momentum", conv(counts.momentum, 3 * cells), paper[1].total.0, paper[1].total.1),
        ("Continuity", conv(counts.continuity, cells), paper[2].total.0, paper[2].total.1),
        ("Field Update", conv(counts.field_update, cells), paper[3].total.0, paper[3].total.1),
    ];
    Table2Result { rows }
}

/// Prints Table II (measured vs published).
pub fn print_table2(n: usize, iters: usize) {
    let t = table2(n, iters);
    println!("== Table II: cycles per meshpoint for SIMPLE (excluding solver) ==");
    println!("{:<16} {:>14} {:>18}", "Step", "ours (cycles)", "paper (low-high)");
    for (step, ours, lo, hi) in &t.rows {
        println!("{:<16} {:>14.1} {:>11.0}-{:<6.0}", step, ours, lo, hi);
    }
    println!("(our single-phase constant-property model has no equation-of-state or");
    println!(" property evaluations, so its Momentum/Continuity counts sit at or below");
    println!(" the published lower bounds — the bounds themselves are asserted in tests)");
}

/// E-F1 — Fig. 1: the machine-balance landscape.
pub fn print_fig1() {
    println!("== Fig. 1: flops per word of memory / interconnect bandwidth ==");
    println!("{:<28} {:>6} {:>12} {:>12}", "Machine", "year", "mem", "network");
    for m in reference_machines() {
        println!(
            "{:<28} {:>6} {:>12.1} {:>12.0}",
            m.name, m.year, m.flops_per_mem_word, m.flops_per_net_word
        );
    }
    let c = cs1_balance();
    println!(
        "{:<28} {:>6} {:>12.2} {:>12.1}   <-- the bottom of the scale",
        c.name, c.year, c.flops_per_mem_word, c.flops_per_net_word
    );
    println!("CS-1 moves {:.0} bytes to/from memory per flop (paper: three)", cs1_bytes_per_flop());
}

/// E-F5 — Fig. 5: tessellation routing validity.
pub fn fig5() -> Result<(), String> {
    for (w, h) in [(4, 4), (16, 16), (64, 64), (602, 595)] {
        verify_tessellation(w, h)?;
    }
    Ok(())
}

/// Prints the Fig. 5 check plus a sample color grid.
pub fn print_fig5() {
    println!("== Fig. 5: tessellation routing pattern ==");
    for y in 0..8 {
        let row: Vec<String> = (0..8).map(|x| spmv_color(x, y).to_string()).collect();
        println!("  {}", row.join(" "));
    }
    match fig5() {
        Ok(()) => println!("collision-free on every tested size up to 602x595 ✓"),
        Err(e) => println!("VIOLATION: {e}"),
    }
}

/// Result of the Fig. 6 experiment.
#[derive(Debug)]
pub struct Fig6Result {
    /// Measured `(w, h, cycles)` on the simulator.
    pub measured: Vec<(usize, usize, u64)>,
    /// Fitted cycles-per-hop slope.
    pub hop_factor: f64,
    /// Extrapolated full-machine latency in µs at the model clock.
    pub full_machine_us: f64,
}

/// E-F6 — Fig. 6: AllReduce — simulate, fit the latency model, extrapolate
/// to the full wafer.
pub fn fig6() -> Fig6Result {
    let mut measured = Vec::new();
    for (w, h) in [(8, 8), (16, 16), (32, 32), (48, 48)] {
        let mut fabric = Fabric::new(w, h);
        let ar =
            Reduction::build(&mut fabric, w, h, Payload::Scalar { r_in: 24, r_out: 25, r_acc: 26 });
        let (out, cycles) = ar.run(&mut fabric, &vec![1.0; w * h]);
        assert_eq!(out[0], (w * h) as f32, "allreduce correctness");
        measured.push((w, h, cycles));
    }
    let mut model = AllReduceModel::default();
    model.calibrate(&measured);
    let cs1 = Cs1Model::default();
    Fig6Result {
        measured,
        hop_factor: model.hop_factor,
        full_machine_us: model.time_us(602, 595, cs1.clock_ghz),
    }
}

/// Prints the Fig. 6 experiment.
pub fn print_fig6() {
    let r = fig6();
    println!("== Fig. 6: AllReduce on the fabric ==");
    for (w, h, c) in &r.measured {
        println!(
            "  {w:>3} x {h:<3} fabric: {c:>5} cycles  ({:.2} cycles/hop-diameter)",
            *c as f64 / (w + h) as f64
        );
    }
    println!("fitted cycles/hop = {:.2} (paper: ~10% over the diameter)", r.hop_factor);
    println!("extrapolated 602x595 machine: {:.2} us  (paper: under 1.5 us)", r.full_machine_us);
}

/// One calibration point of the headline experiment:
/// `(w, h, z, spmv, dot, allreduce, update, total)` cycles.
pub type CyclePoint = (usize, usize, usize, u64, u64, u64, u64, u64);

/// Result of the headline experiment.
#[derive(Debug)]
pub struct HeadlineResult {
    /// Measured simulator cycle breakdown per iteration at the calibration
    /// points.
    pub measured: Vec<CyclePoint>,
    /// Predicted full-scale iteration time (µs) under the paper's blocking
    /// schedule.
    pub time_us: f64,
    /// The same under the simulator's schedule, whose rounds carry the
    /// `(y, y)` dot and two AXPYs (µs).
    pub scheduled_us: f64,
    /// Predicted PFLOPS.
    pub pflops: f64,
    /// Predicted utilization of used-core peak.
    pub utilization: f64,
}

/// E-HL — §V: run the full wafer BiCGStab on small fabrics, calibrate the
/// cycle model, and predict the 600×595×1536 headline.
pub fn headline() -> HeadlineResult {
    let mut measured = Vec::new();
    let mut spmv_samples = Vec::new();
    for (w, h, z) in [(6, 6, 128), (6, 6, 384), (8, 8, 256)] {
        let p = manufactured(Mesh3D::new(w, h, z), (1.0, -0.5, 0.5), 3).preconditioned();
        let a16: DiaMatrix<F16> = p.matrix.convert();
        let b16: Vec<F16> = p.rhs.iter().map(|&v| F16::from_f64(v)).collect();
        let mut fabric = Fabric::new(w, h);
        let solver = WaferBicgstab::build(&mut fabric, &a16);
        solver.load_rhs(&mut fabric, &b16);
        let c = solver.iterate(&mut fabric);
        measured.push((w, h, z, c.spmv, c.dot, c.allreduce, c.update, c.total()));
        spmv_samples.push((z, c.spmv / 2)); // per-SpMV cycles
    }
    let mut model = Cs1Model::default();
    model.calibrate_spmv(&spmv_samples);
    let p = model.predict_headline();
    let scheduled_us = model.predict_iteration(600, 595, 1536).time_us;
    HeadlineResult {
        measured,
        time_us: p.time_us,
        scheduled_us,
        pflops: p.pflops,
        utilization: p.utilization,
    }
}

/// Prints the headline experiment.
pub fn print_headline() {
    let r = headline();
    println!("== §V headline: BiCGStab iteration on the wafer ==");
    println!("simulator calibration runs (cycles per iteration):");
    println!(
        "  {:>5} {:>5} {:>6} {:>8} {:>7} {:>10} {:>8} {:>8}",
        "w", "h", "z", "spmv", "dot", "allreduce", "update", "total"
    );
    for (w, h, z, s, d, a, u, t) in &r.measured {
        println!("  {w:>5} {h:>5} {z:>6} {s:>8} {d:>7} {a:>10} {u:>8} {t:>8}");
    }
    println!("prediction for 600 x 595 x 1536 on the 602x595 fabric:");
    println!("  time/iteration = {:.1} us      (paper measured: 28.1 us)", r.time_us);
    println!("  achieved       = {:.2} PFLOPS  (paper: 0.86 PFLOPS)", r.pflops);
    println!(
        "  utilization    = {:.0}%         (paper: about one third of peak)",
        r.utilization * 100.0
    );
    println!("  with the rounds carrying the (y, y) dot and two AXPYs: {:.1} us", r.scheduled_us);
}

/// E-F7/E-F8 — cluster strong scaling curves.
pub fn scaling_curve(n: usize) -> Vec<(usize, f64)> {
    JouleModel::default().scaling_curve(n, &JouleModel::paper_core_counts())
}

/// Prints Figs. 7 and 8 from the α-β-γ cluster model, plus the CS-1
/// comparison line.
pub fn print_fig7_fig8() {
    let cs1_us = Cs1Model::default().predict_headline().time_us;
    for (fig, n) in [("Fig. 7", 370usize), ("Fig. 8", 600)] {
        println!("== {fig}: scaling of BiCGStab solve time on the cluster, {n}^3 mesh ==");
        println!("  {:>8} {:>14} {:>10}", "cores", "model ms/iter", "speedup");
        let curve = scaling_curve(n);
        let t0 = curve[0].1;
        for (p, t) in &curve {
            println!("  {:>8} {:>14.2} {:>9.1}x", p, t * 1e3, t0 / t);
        }
        if n == 600 {
            let ratio = curve.last().unwrap().1 / (cs1_us * 1e-6);
            println!(
                "  CS-1 (modeled): {:.1} us/iteration -> cluster/CS-1 = {:.0}x (paper: about 214x)",
                cs1_us, ratio
            );
        } else {
            println!("  (note the flattening beyond 8K cores — the paper's \"failure to scale\")");
        }
    }
}

/// Fig. 9 curves for the three policies.
#[derive(Debug)]
pub struct Fig9Result {
    /// fp64 reference curve.
    pub fp64: PrecisionCurve,
    /// fp32 curve ("Single precision").
    pub fp32: PrecisionCurve,
    /// Mixed fp16/fp32 curve ("Mixed sp/hp").
    pub mixed: PrecisionCurve,
    /// Pure-fp16 ablation curve.
    pub pure16: PrecisionCurve,
}

/// E-F9 — Fig. 9: normwise relative residual under each precision policy on
/// a momentum system from the (scaled) 100×400×100 cavity.
pub fn fig9(scale: usize, iters: usize) -> Fig9Result {
    let sys = fig9_momentum_system(scale, 3);
    let scaled = stencil::precond::jacobi_scale(&sys.matrix, &sys.rhs);
    let opts = SolveOptions { max_iters: iters, rtol: 1e-14, record_true_residual: true };
    Fig9Result {
        fp64: run_policy::<Fp64>(&scaled.matrix, &scaled.rhs, &opts),
        fp32: run_policy::<Fp32>(&scaled.matrix, &scaled.rhs, &opts),
        mixed: run_policy::<MixedF16>(&scaled.matrix, &scaled.rhs, &opts),
        pure16: run_policy::<PureF16>(&scaled.matrix, &scaled.rhs, &opts),
    }
}

/// Prints the Fig. 9 series.
pub fn print_fig9(scale: usize, iters: usize) {
    let r = fig9(scale, iters);
    println!("== Fig. 9: normwise relative residual (momentum system, 100x400x100 / {scale}) ==");
    println!(
        "  {:>4} {:>14} {:>14} {:>14} {:>14}",
        "iter", "fp64", "fp32", "mixed sp/hp", "pure fp16"
    );
    let n = r.fp32.residuals.len().max(r.mixed.residuals.len());
    for i in 0..n {
        let g = |c: &PrecisionCurve| -> String {
            c.residuals.get(i).map_or("-".into(), |v| format!("{v:.3e}"))
        };
        println!(
            "  {:>4} {:>14} {:>14} {:>14} {:>14}",
            i + 1,
            g(&r.fp64),
            g(&r.fp32),
            g(&r.mixed),
            g(&r.pure16)
        );
    }
    println!(
        "mixed plateaus at {:.1e} (paper: ~1e-2); fp32 reaches {:.1e}",
        r.mixed.best(),
        r.fp32.best()
    );
    // Conditioning context: the plateau level is ~κ·ε₁₆ (the paper:
    // "the growth of rounding errors ... explains the loss of an
    // additional factor of 10").
    let sys = fig9_momentum_system(scale, 3);
    let scaled = stencil::precond::jacobi_scale(&sys.matrix, &sys.rhs);
    let est = solver::spectral::estimate_condition(&scaled.matrix, 60);
    println!(
        "estimated condition number of the (Jacobi-scaled) system: {:.1} -> plateau ~ k*eps16 = {:.1e}",
        est.kappa,
        est.kappa * f64::powi(2.0, -11)
    );
}

/// E-2D result.
#[derive(Debug)]
pub struct Spmv2dResult {
    /// Largest square block fitting in SRAM.
    pub max_block: usize,
    /// Mesh covered on a 600-wide fabric at that block.
    pub covered: (usize, usize),
    /// Overhead fraction at 8×8 blocks.
    pub overhead_8x8: f64,
    /// Functional check: cycles for an 8×8-block run on a 3×3 fabric.
    pub cycles_3x3_8x8: u64,
}

/// E-2D — §IV.2: the 2D mapping claims.
pub fn spmv2d_experiment() -> Spmv2dResult {
    let max_block = Block2D::max_square();
    let covered = {
        let m = Block2D::new(max_block, max_block).covered_mesh(600, 600);
        (m.nx, m.ny)
    };
    let overhead_8x8 = Block2D::new(8, 8).overhead_fraction();
    // Functional run.
    let block = Block2D::new(8, 8);
    let mesh = block.covered_mesh(3, 3);
    let m3 = mesh.as_3d();
    let mut a = DiaMatrix::<f64>::new(m3, &stencil::dia::Offset3::nine_point_2d());
    for (x, y, _z) in m3.iter() {
        a.set(x, y, 0, stencil::dia::Offset3::CENTER, 1.0);
        for off in &stencil::dia::Offset3::nine_point_2d()[1..] {
            if m3.neighbor(x, y, 0, off.dx, off.dy, 0).is_some() {
                a.set(x, y, 0, *off, -0.125);
            }
        }
    }
    let v: Vec<f64> = (0..mesh.len()).map(|i| ((i % 8) as f64) * 0.125).collect();
    let mut fabric = Fabric::new(3, 3);
    let spec = wse_dsl::StencilSpec::var_nine_point_2d();
    let spmv = wse_dsl::lower(&mut fabric, &spec, &a, Some(block)).expect("9-point operator");
    let (_, cycles) = spmv.apply(&mut fabric, &v);
    Spmv2dResult { max_block, covered, overhead_8x8, cycles_3x3_8x8: cycles }
}

/// Prints the 2D-mapping experiment.
pub fn print_spmv2d() {
    let r = spmv2d_experiment();
    println!("== §IV.2: 2D 9-point mapping ==");
    println!("largest square block fitting 48 KB: {} (paper: up-to 38x38)", r.max_block);
    println!(
        "covered geometry on a 600x600 fabric: {}x{} (paper: 22800x22800)",
        r.covered.0, r.covered.1
    );
    println!("halo overhead at 8x8 blocks: {:.1}% (paper: less than 20%)", r.overhead_8x8 * 100.0);
    println!("functional 8x8-block run on 3x3 fabric: {} cycles", r.cycles_3x3_8x8);
    // The paper: "The efficiency of this approach is approximately the same
    // as for the 3D mapping" — measure both solvers on 256-point problems.
    {
        use stencil::problem::manufactured;
        use wse_core::bicgstab2d::WaferBicgstab2d;
        let mesh3 = Mesh3D::new(4, 4, 16);
        let p3 = manufactured(mesh3, (1.0, -0.5, 0.5), 3).preconditioned();
        let a3: DiaMatrix<F16> = p3.matrix.convert();
        let b3: Vec<F16> = p3.rhs.iter().map(|&v| F16::from_f64(v)).collect();
        let mut f3 = Fabric::new(4, 4);
        let s3 = WaferBicgstab::build(&mut f3, &a3);
        s3.load_rhs(&mut f3, &b3);
        let c3 = s3.iterate(&mut f3).total() as f64 / 256.0;

        let block = Block2D::new(4, 4);
        let mesh2 = block.covered_mesh(4, 4);
        let a2d = stencil::stencil9::convection_diffusion9(mesh2, (1.0, -0.5));
        let exact: Vec<f64> = (0..mesh2.len()).map(|i| ((i % 9) as f64) * 0.125).collect();
        let mut b2d = vec![0.0; mesh2.len()];
        a2d.matvec_f64(&exact, &mut b2d);
        let sys = stencil::precond::jacobi_scale(&a2d, &b2d);
        let a16: DiaMatrix<F16> = sys.matrix.convert();
        let b16: Vec<F16> = sys.rhs.iter().map(|&v| F16::from_f64(v)).collect();
        let mut f2 = Fabric::new(4, 4);
        let s2 = WaferBicgstab2d::build(&mut f2, &a16, block);
        s2.load_rhs(&mut f2, &b16);
        let c2 = s2.iterate(&mut f2).total() as f64 / 256.0;
        println!(
            "BiCGStab cycles/meshpoint/iteration: 3D mapping {c3:.1}, 2D mapping {c2:.1} \
             (paper: \"approximately the same\")"
        );
    }
    println!("block-size overhead sweep:");
    for n in [2usize, 4, 8, 16, 38] {
        println!("  {:>2}x{:<2}: {:>5.1}%", n, n, Block2D::new(n, n).overhead_fraction() * 100.0);
    }
}

/// E-MEM — §IV storage accounting.
pub fn print_memory() {
    let m = Mapping3D::paper();
    println!("== §IV: per-core storage of the 3D mapping ==");
    println!("Z = {}, words/core = {} (paper: 10 Z)", m.z, m.words_per_core());
    println!(
        "bytes/core = {} ({:.1} KB of 48 KB; paper: about 31 KB)",
        m.bytes_per_core(),
        m.bytes_per_core() as f64 / 1024.0
    );
    println!("exact Listing-1 allocation: {} bytes", m.bytes_per_core_exact());
    println!("largest Z that fits: {} (paper runs 1536)", Mapping3D::max_z());
}

/// E-MFX — §VI.A projection.
pub fn print_mfix() {
    let rate = MfixProjection::default().project();
    println!("== §VI.A: MFIX SIMPLE on the CS-1 (600^3, 15 SIMPLE iters/step) ==");
    println!(
        "projected rate: {:.0} - {:.0} timesteps/s (paper: 80 - 125)",
        rate.steps_per_sec_low, rate.steps_per_sec_high
    );
    println!(
        "us per Z meshpoint per SIMPLE iteration: {:.2} - {:.2} (paper: \"roughly two\")",
        rate.us_per_z_point.0, rate.us_per_z_point.1
    );
    println!("speedup vs 16,384-core Joule: {:.0}x (paper: above 200x)", rate.speedup_vs_joule);
}

/// Extension E-IR — §VI.B's "correction scheme": iterative refinement with
/// a mixed-precision inner solver, breaking the Fig. 9 plateau.
pub fn print_refinement(scale: usize) {
    let sys = fig9_momentum_system(scale, 3);
    let scaled = stencil::precond::jacobi_scale(&sys.matrix, &sys.rhs);
    println!("== §VI.B extension: mixed-precision iterative refinement ==");
    let plain = run_policy::<MixedF16>(
        &scaled.matrix,
        &scaled.rhs,
        &SolveOptions { max_iters: 16, rtol: 1e-14, record_true_residual: true },
    );
    println!("plain mixed-precision BiCGStab plateau: {:.2e}", plain.best());
    let refined = iterative_refinement::<MixedF16>(
        &scaled.matrix,
        &scaled.rhs,
        &RefinementOptions { max_outer: 25, inner_iters: 8, rtol: 1e-10 },
    );
    println!("iterative refinement (8 fp16 inner iterations per outer pass):");
    for rec in &refined.history.records {
        println!("  outer {:>2}: |r|/|b| = {:.3e}", rec.iter, rec.true_rel);
    }
    println!(
        "converged = {} after {} outer passes / {} total inner iterations",
        refined.converged, refined.outer_iters, refined.inner_total
    );
    println!("(fp16 inner arithmetic, fp64 answer — the paper's suggested remedy works)");
}

/// Extension E-COMM — communication fusion/hiding: measured on the
/// simulator (standard vs fused ω-reduction), extrapolated by the model.
pub fn print_comm_hiding() {
    use stencil::problem::manufactured;
    use wse_core::bicgstab::WaferBicgstab;
    println!("== §IV.3 extension: blocking vs fused/hidden reductions ==");
    println!("simulator, 16x16 fabric, z = 32 (one iteration):");
    let mesh = Mesh3D::new(16, 16, 32);
    let p = manufactured(mesh, (1.0, -0.5, 0.5), 3).preconditioned();
    let a16: DiaMatrix<F16> = p.matrix.convert();
    let b16: Vec<F16> = p.rhs.iter().map(|&v| F16::from_f64(v)).collect();
    for fused in [false, true] {
        let mut fabric = Fabric::new(16, 16);
        let solver = if fused {
            WaferBicgstab::build_fused(&mut fabric, &a16)
        } else {
            WaferBicgstab::build(&mut fabric, &a16)
        };
        solver.load_rhs(&mut fabric, &b16);
        let c = solver.iterate(&mut fabric);
        println!(
            "  {:<9} allreduce {:>5} cycles, total {:>6} cycles",
            if fused { "fused" } else { "standard" },
            c.allreduce,
            c.total()
        );
    }
    let m = Cs1Model::default();
    println!("model extrapolation to 600x595x1536:");
    for (name, p) in [
        ("blocking (the paper's schedule)", m.predict_headline()),
        ("rounds carry work (standard)", m.predict_iteration(600, 595, 1536)),
        ("fused omega-step (3.5 rounds)", m.predict_iteration_fused(600, 595, 1536)),
        ("pipelined (reductions hidden)", m.predict_iteration_pipelined(600, 595, 1536)),
    ] {
        println!(
            "  {:<31} {:>6.1} us/iter  {:>5.2} PFLOPS  (allreduce {:>5.0} cycles)",
            name, p.time_us, p.pflops, p.allreduce_cycles
        );
    }
}

/// One row of the multi-wafer weak-scaling table (per-iteration means).
#[derive(Clone, Debug)]
pub struct MultiwaferRow {
    /// Wafers in the ensemble.
    pub k: usize,
    /// Global mesh (`4k × 4 × z`: a fixed 4×4-tile slab per wafer).
    pub mesh: (usize, usize, usize),
    /// Ensemble cycles per iteration (hidden halo cycles excluded).
    pub cycles: f64,
    /// Seam wire cycles left on the critical path.
    pub halo_exposed: f64,
    /// Seam wire cycles overlapped behind the SpMV windows.
    pub halo_hidden: f64,
    /// Host-level AllReduce tree round-trip cycles.
    pub host_tree: f64,
    /// `perf_model::multiwafer` prediction for the same shape, µs/iteration.
    pub model_us: f64,
    /// Relative residual after the last iteration.
    pub rel_residual: f64,
}

/// E-MW — weak scaling of the fused single-reduction BiCGStab with
/// overlapped halo exchange on k ∈ {1, 2, 4, 8} simulated wafers joined by
/// the paper-default host links (1 TB/s per seam, 0.2 µs one-way).
pub fn multiwafer_scaling(z: usize, iters: usize) -> Vec<MultiwaferRow> {
    use perf_model::multiwafer::MultiWafer;
    use wse_core::WaferBicgstabMulti;
    use wse_multi::{HostLink, MultiFabric};
    const SLAB: usize = 4;
    let clock_ghz = Cs1Model::default().clock_ghz;
    [1usize, 2, 4, 8]
        .into_iter()
        .map(|k| {
            let mesh = Mesh3D::new(SLAB * k, SLAB, z);
            let p = manufactured(mesh, (1.0, -0.5, 0.5), 3).preconditioned();
            let a16: DiaMatrix<F16> = p.matrix.convert();
            let b16: Vec<F16> = p.rhs.iter().map(|&v| F16::from_f64(v)).collect();
            let link = HostLink::new(1000.0, 0.2, clock_ghz);
            let mut multi = MultiFabric::new(SLAB * k, SLAB, k, link);
            let solver = WaferBicgstabMulti::build_fused(&mut multi, &a16);
            solver.load_rhs(&mut multi, &b16);
            let (mut cycles, mut exposed, mut hidden, mut tree) = (0, 0, 0, 0);
            for _ in 0..iters {
                let c = solver.iterate(&mut multi);
                cycles += c.total();
                exposed += c.halo;
                hidden += c.halo_hidden;
                tree += c.host_allreduce;
            }
            let norm_b = b16.iter().map(|v| v.to_f64() * v.to_f64()).sum::<f64>().sqrt();
            let per_iter = |c: u64| c as f64 / iters as f64;
            let model =
                MultiWafer { k, link_gb_s: 1000.0, link_latency_us: 0.2, ..Default::default() };
            MultiwaferRow {
                k,
                mesh: (mesh.nx, mesh.ny, mesh.nz),
                cycles: per_iter(cycles),
                halo_exposed: per_iter(exposed),
                halo_hidden: per_iter(hidden),
                host_tree: per_iter(tree),
                model_us: model.predict_mesh(SLAB, SLAB, z).time_us,
                rel_residual: solver.residual_norm(&mut multi) as f64 / norm_b,
            }
        })
        .collect()
}

/// Prints the multi-wafer weak-scaling table.
pub fn print_multiwafer(z: usize, iters: usize) {
    let rows = multiwafer_scaling(z, iters);
    let clock_ghz = Cs1Model::default().clock_ghz;
    println!("== multi-wafer weak scaling: k wafers x (4x4x{z}) slab, {iters} iterations ==");
    println!(
        "{:>2} {:>10} {:>11} {:>12} {:>11} {:>9} {:>8} {:>8} {:>8} {:>12}",
        "k",
        "mesh",
        "cycles/iter",
        "halo exposed",
        "halo hidden",
        "host tree",
        "us/iter",
        "model us",
        "weak eff",
        "rel residual"
    );
    for r in &rows {
        println!(
            "{:>2} {:>10} {:>11.0} {:>12.0} {:>11.0} {:>9.0} {:>8.3} {:>8.3} {:>8.3} {:>12.3e}",
            r.k,
            format!("{}x{}x{}", r.mesh.0, r.mesh.1, r.mesh.2),
            r.cycles,
            r.halo_exposed,
            r.halo_hidden,
            r.host_tree,
            r.cycles / (clock_ghz * 1e3),
            r.model_us,
            rows[0].cycles / r.cycles,
            r.rel_residual
        );
    }
    println!("(weak efficiency = cycles(k=1) / cycles(k))");
}

/// E-PWR — §I's performance-per-watt claim.
pub fn print_energy() {
    use perf_model::energy::{cluster_energy, cs1_energy, energy_advantage};
    println!("== §I: energy per BiCGStab iteration ==");
    for e in [cs1_energy(), cluster_energy()] {
        println!(
            "  {:<30} {:>7.0} kW  {:>10.6} s/iter  {:>8.2} J/iter  {:>10.3e} J/point",
            e.name, e.kw, e.time_per_iter, e.joules_per_iter, e.joules_per_point
        );
    }
    println!(
        "energy advantage per meshpoint: {:.0}x (the paper: 'beyond what has been reported')",
        energy_advantage()
    );
}

/// Extension E-CAP — §VIII.B capacity frontier and campaign use cases.
pub fn print_capacity() {
    let m = Cs1Model::default();
    println!("== §VIII.B: memory capacity frontier ==");
    println!("{:<16} {:>9} {:>8} {:>16}", "generation", "SRAM", "max Z", "max meshpoints");
    for (g, z, pts) in capacity_table(&m) {
        println!("{:<16} {:>6.0} GB {:>8} {:>16}", g.name, g.sram_gib, z, pts);
    }
    println!(
        "
campaign use cases (CS-1 at the §VI.A rate vs 16,384-core cluster):"
    );
    println!("{:<36} {:>12} {:>14}", "campaign", "wafer", "cluster");
    for c in paper_campaigns() {
        println!(
            "{:<36} {:>10.2} h {:>12.0} h",
            c.name,
            campaign_hours_cs1(&c),
            campaign_hours_cluster(&c)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_measures_44_ops() {
        let t = table1();
        assert_eq!(t.total, 44.0);
        assert_eq!(t.matvec, (12.0, 12.0));
        assert_eq!(t.dot, (4.0, 4.0));
        assert_eq!(t.axpy, (6.0, 6.0));
    }

    #[test]
    fn table2_measured_cycles_do_not_exceed_paper_highs() {
        let t = table2(6, 2);
        for (step, ours, _lo, hi) in &t.rows {
            assert!(ours <= hi, "{step}: {ours} > paper high {hi}");
            assert!(*ours > 0.0, "{step} must be nonzero");
        }
    }

    #[test]
    fn fig5_routing_is_valid() {
        assert!(fig5().is_ok());
    }

    #[test]
    fn fig6_extrapolates_under_2us() {
        let r = fig6();
        assert!(r.full_machine_us < 2.0, "got {} us", r.full_machine_us);
        assert!((0.8..2.0).contains(&r.hop_factor), "hop factor {}", r.hop_factor);
    }

    #[test]
    fn headline_prediction_in_band() {
        let r = headline();
        // The simulator-calibrated prediction must land near the paper's
        // measured 28.1 µs / 0.86 PFLOPS (same order, right winner).
        assert!((15.0..60.0).contains(&r.time_us), "predicted {:.1} us vs paper 28.1", r.time_us);
        assert!((0.4..1.7).contains(&r.pflops), "predicted {:.2} PFLOPS", r.pflops);
    }

    #[test]
    fn fig9_ordering_holds() {
        let r = fig9(25, 12);
        assert!(r.fp64.best() < r.fp32.best());
        assert!(r.fp32.best() < r.mixed.best());
        assert!(r.mixed.best() < 0.1, "mixed best {}", r.mixed.best());
    }

    #[test]
    fn spmv2d_claims() {
        let r = spmv2d_experiment();
        assert_eq!(r.max_block, 38);
        assert_eq!(r.covered, (22_800, 22_800));
        assert!(r.overhead_8x8 < 0.20);
        assert!(r.cycles_3x3_8x8 > 0);
    }

    #[test]
    fn multiwafer_rows_converge_and_pay_only_for_seams() {
        let rows = multiwafer_scaling(16, 2);
        assert_eq!(rows.iter().map(|r| r.k).collect::<Vec<_>>(), [1, 2, 4, 8]);
        assert_eq!(rows[0].halo_exposed + rows[0].halo_hidden + rows[0].host_tree, 0.0);
        for pair in rows.windows(2) {
            assert!(pair[1].cycles > pair[0].cycles, "more wafers, more interconnect");
        }
        for r in &rows {
            assert!(r.rel_residual < 0.9, "k={} residual {:.3e}", r.k, r.rel_residual);
        }
    }

    #[test]
    fn comm_variants_order_correctly() {
        let m = Cs1Model::default();
        let std = m.predict_headline();
        let fused = m.predict_iteration_fused(600, 595, 1536);
        let piped = m.predict_iteration_pipelined(600, 595, 1536);
        assert!(fused.time_us < std.time_us);
        assert!(piped.time_us < fused.time_us);
        assert_eq!(piped.allreduce_cycles, 0.0, "fully hidden at the paper's Z");
    }

    #[test]
    fn scaling_curves_have_right_shape() {
        let big = scaling_curve(600);
        assert!(big.first().unwrap().1 > big.last().unwrap().1 * 8.0, "600^3 scales well");
        let small = scaling_curve(370);
        let t8k = small.iter().find(|(p, _)| *p == 8192).unwrap().1;
        let t16k = small.iter().find(|(p, _)| *p == 16384).unwrap().1;
        assert!(t16k > t8k * 0.9, "370^3 stops scaling beyond 8K");
    }
}
