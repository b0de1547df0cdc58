//! Bit-identity pins for the host Krylov solvers.
//!
//! `tests/host_pins.expected.txt` was generated by the hand-written host
//! loops before the host solvers became an executor of the wafer's step
//! tables; that change moved only the lines CHANGES.md names. It must
//! never be edited to make a solver change pass. Per case it holds the
//! outcome, the iteration count, an FNV-1a digest of the iterate's bits,
//! the operation ledger, and `f64::to_bits` of every iteration's true and
//! recursive relative residual, one fact per line, so a change that means
//! to move one kind of fact moves only its lines. The Chronopoulos–Gear
//! cases run [`solve`] over `krylov::CG_SINGLE`.
//!
//! `UPDATE_HOST_PINS=1 cargo test -p solver --test host_pins` rewrites the
//! file; only a change that *means* to move host trajectories may commit
//! that.

use solver::policy::{Fp32, Fp64, MixedF16, Precision, PureF16};
use solver::{bicgstab, cg::cg, solve, SolveOptions, SolveResult};
use std::fmt::Write as _;
use std::path::PathBuf;
use stencil::dia::{DiaMatrix, Offset3};
use stencil::mesh::Mesh3D;
use stencil::precond::jacobi_scale;
use stencil::problem::manufactured;
use stencil::scalar::convert_slice;
use stencil::stencil7::poisson;
use stencil::Scalar;

type Solve<P> = fn(
    &DiaMatrix<<P as Precision>::Storage>,
    &[<P as Precision>::Storage],
    &SolveOptions,
) -> SolveResult<<P as Precision>::Storage>;

fn cg_single<P: Precision>(
    a: &DiaMatrix<P::Storage>,
    b: &[P::Storage],
    opts: &SolveOptions,
) -> SolveResult<P::Storage> {
    solve::<P>(&wse_core::krylov::CG_SINGLE, a, b, opts)
}

/// Narrows the f64 system to `P`'s storage, solves, and appends the case.
fn case<P: Precision>(
    out: &mut String,
    name: &str,
    solve: Solve<P>,
    a64: &DiaMatrix<f64>,
    b64: &[f64],
    opts: &SolveOptions,
) {
    let name = format!("{name} {}", P::NAME);
    let res = solve(&a64.convert(), &convert_slice(b64), opts);
    let x = res
        .x
        .iter()
        .flat_map(|v| v.to_f64().to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3));
    let o = res.ops;
    writeln!(out, "{name}: outcome {:?}", res.outcome).unwrap();
    writeln!(out, "{name}: iters {}", res.iters).unwrap();
    writeln!(out, "{name}: x {x:016x}").unwrap();
    writeln!(
        out,
        "{name}: ops matvec {}/{} dot {}/{} axpy {}/{}",
        o.matvec_mul, o.matvec_add, o.dot_mul, o.dot_add, o.axpy_mul, o.axpy_add
    )
    .unwrap();
    for rec in &res.history.records {
        writeln!(out, "{name}: iter {} true_rel {:016x}", rec.iter, rec.true_rel.to_bits())
            .unwrap();
        writeln!(
            out,
            "{name}: iter {} recursive_rel {:016x}",
            rec.iter,
            rec.recursive_rel.to_bits()
        )
        .unwrap();
    }
}

fn all_policies(out: &mut String, name: &str, a: &DiaMatrix<f64>, b: &[f64], opts: &SolveOptions) {
    case::<Fp64>(out, name, bicgstab::<Fp64>, a, b, opts);
    case::<Fp32>(out, name, bicgstab::<Fp32>, a, b, opts);
    case::<MixedF16>(out, name, bicgstab::<MixedF16>, a, b, opts);
    case::<PureF16>(out, name, bicgstab::<PureF16>, a, b, opts);
}

fn corpus() -> String {
    let mut out = String::new();
    let traced = |max_iters, rtol| SolveOptions { max_iters, rtol, record_true_residual: true };

    // The precision study's master system (`solver::study`'s tests).
    let p = manufactured(Mesh3D::new(8, 8, 8), (1.5, -0.5, 0.5), 77).preconditioned();
    all_policies(&mut out, "bicgstab study-8x8x8", &p.matrix, &p.rhs, &traced(30, 1e-12));

    // e2e-bench's `solve3d-dense` problem.
    for seed in 1..=3 {
        let p = manufactured(Mesh3D::new(8, 8, 64), (0.5, -0.25, 0.25), seed).preconditioned();
        let name = format!("bicgstab e2e-8x8x64-seed{seed}");
        all_policies(&mut out, &name, &p.matrix, &p.rhs, &traced(20, 1e-10));
    }

    // A Jacobi-scaled Poisson system with a non-trivial exact solution.
    let mesh = Mesh3D::new(6, 6, 6);
    let a = poisson(mesh);
    let exact: Vec<f64> = (0..mesh.len()).map(|i| ((i * 13) % 17) as f64 * 0.1 - 0.5).collect();
    let mut b = vec![0.0; mesh.len()];
    a.matvec_f64(&exact, &mut b);
    let spd = jacobi_scale(&a, &b);
    let opts = traced(40, 1e-10);
    case::<Fp64>(&mut out, "cg poisson-6x6x6", cg::<Fp64>, &spd.matrix, &spd.rhs, &opts);
    case::<MixedF16>(&mut out, "cg poisson-6x6x6", cg::<MixedF16>, &spd.matrix, &spd.rhs, &opts);
    let name = "cg_single_reduction poisson-6x6x6";
    case::<Fp64>(&mut out, name, cg_single::<Fp64>, &spd.matrix, &spd.rhs, &opts);
    case::<MixedF16>(&mut out, name, cg_single::<MixedF16>, &spd.matrix, &spd.rhs, &opts);

    // A = I: converges in one iteration.
    let mesh = Mesh3D::new(3, 3, 3);
    let mut eye = DiaMatrix::<f64>::new(mesh, &Offset3::seven_point());
    for (x, y, z) in mesh.iter() {
        eye.set(x, y, z, Offset3::CENTER, 1.0);
    }
    let b: Vec<f64> = (0..mesh.len()).map(|i| i as f64 * 0.1).collect();
    case::<Fp64>(&mut out, "bicgstab identity", bicgstab::<Fp64>, &eye, &b, &traced(10, 1e-8));
    case::<MixedF16>(
        &mut out,
        "bicgstab identity",
        bicgstab::<MixedF16>,
        &eye,
        &b,
        &traced(10, 1e-8),
    );

    // The zero right-hand side.
    let zero = vec![0.0; spd.rhs.len()];
    case::<Fp64>(&mut out, "bicgstab zero-rhs", bicgstab::<Fp64>, &spd.matrix, &zero, &opts);
    case::<Fp64>(&mut out, "cg zero-rhs", cg::<Fp64>, &spd.matrix, &zero, &opts);
    let name = "cg_single_reduction zero-rhs";
    case::<Fp64>(&mut out, name, cg_single::<Fp64>, &spd.matrix, &zero, &opts);
    out
}

#[test]
fn host_trajectories_are_pinned() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/host_pins.expected.txt");
    let got = corpus();
    if std::env::var_os("UPDATE_HOST_PINS").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap();
    if got != want {
        let line = got.lines().zip(want.lines()).position(|(g, w)| g != w);
        let at = line.unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "host trajectories diverge from tests/host_pins.expected.txt at line {}:\n  got:  {}\n  want: {}",
            at + 1,
            got.lines().nth(at).unwrap_or("<end>"),
            want.lines().nth(at).unwrap_or("<end>"),
        );
    }
}
