//! Lints the standard shipped kernel configurations and prints every
//! diagnostic the static verifier produces.
//!
//! Usage:
//!
//! ```text
//! wse-lint [--json] [--stats] [CONFIG ...]
//! ```
//!
//! With no arguments every standard configuration is checked. Exits with
//! status 1 if any configuration produces an error-severity diagnostic.
//! Available configurations: `spmv3d`, `spmv2d`, `allreduce`, `bicgstab`,
//! `bicgstab-fused`, `cg`, `cg-single`, `bicgstab2d`, `dsl-star9-2d`,
//! `dsl-star25-3d`, plus `fixture:NAME` for each intentionally broken
//! program in `wse_lint::fixtures` (the `lint_fixtures` verify stage diffs
//! their output against checked-in expected diagnostics).
//!
//! Two fixtures are DSL rejections rather than broken fabric programs:
//! `fixture:dsl-radius-overflow` and `fixture:dsl-sram-overflow` feed an
//! illegal stencil spec to `wse_dsl::lower_spec` and report the structured
//! error the front-end returns **before any fabric is touched** (the tool
//! verifies the fabric really is still pristine and exits 1, like any other
//! failing fixture).
//!
//! Diagnostics print in a stable order — `(tile.y, tile.x, rule, message)`
//! within each configuration, configurations in argument order — so output
//! is diffable. `--json` emits one JSON array of every diagnostic instead
//! of the human-readable report (same order, same exit status).
//!
//! `--stats` adds, per configuration, the work the pass did
//! (`wse_lint::LintStats`: tiles, tile classes, site resolutions,
//! activation-graph builds, flow queries, wait sites — all deterministic)
//! and the host microseconds each pass took, so "why did lint take N ms on
//! this operator" has an owner. The two lines go to stderr: stdout is the
//! same with or without the flag.

use stencil::decomp::Block2D;
use stencil::dia::DiaMatrix;
use stencil::mesh::Mesh3D;
use stencil::precond::jacobi_scale;
use stencil::problem::manufactured;
use stencil::stencil9::convection_diffusion9;
use wse_arch::Fabric;
use wse_core::allreduce::{Payload, Reduction};
use wse_core::bicgstab2d::WaferBicgstab2d;
use wse_core::cg::{CgVariant, WaferCg};
use wse_core::WaferBicgstab;
use wse_dsl::StencilSpec;
use wse_float::F16;
use wse_lint::{lint_with_stats, LintStats, Pass, Severity};
use wse_trace::json::escape;

const ALL: &[&str] = &[
    "spmv3d",
    "spmv2d",
    "allreduce",
    "bicgstab",
    "bicgstab-fused",
    "cg",
    "cg-single",
    "bicgstab2d",
    "dsl-star9-2d",
    "dsl-star25-3d",
];

fn system3d(w: usize, h: usize, z: usize) -> DiaMatrix<F16> {
    let mesh = Mesh3D::new(w, h, z);
    manufactured(mesh, (1.0, -0.5, 0.5), 11).preconditioned().matrix.convert()
}

fn system2d(w: usize, h: usize, block: Block2D) -> DiaMatrix<F16> {
    let mesh = block.covered_mesh(w, h);
    let a = convection_diffusion9(mesh, (1.5, -0.5));
    let x: Vec<f64> = (0..mesh.len()).map(|i| ((i % 9) as f64) * 0.125 - 0.5).collect();
    let mut b = vec![0.0; mesh.len()];
    a.matvec_f64(&x, &mut b);
    jacobi_scale(&a, &b).matrix.convert()
}

/// Builds the named configuration on a fresh fabric and returns it.
fn build(config: &str) -> Fabric {
    match config {
        "spmv3d" => {
            let a = system3d(3, 3, 8).convert();
            let mut fabric = Fabric::new(3, 3);
            wse_dsl::lower(&mut fabric, &StencilSpec::var_seven_point_3d(), &a, None)
                .expect("7-point operator must lower");
            fabric
        }
        "spmv2d" => {
            let block = Block2D::new(4, 4);
            let a = system2d(3, 3, block).convert();
            let mut fabric = Fabric::new(3, 3);
            wse_dsl::lower(&mut fabric, &StencilSpec::var_nine_point_2d(), &a, Some(block))
                .expect("9-point operator must lower");
            fabric
        }
        "allreduce" => {
            let mut fabric = Fabric::new(4, 4);
            let _ = Reduction::build(
                &mut fabric,
                4,
                4,
                Payload::Scalar { r_in: 24, r_out: 25, r_acc: 26 },
            );
            fabric
        }
        "bicgstab" => {
            let a = system3d(3, 3, 6);
            let mut fabric = Fabric::new(3, 3);
            let _ = WaferBicgstab::build(&mut fabric, &a);
            fabric
        }
        "bicgstab-fused" => {
            let a = system3d(3, 3, 6);
            let mut fabric = Fabric::new(3, 3);
            let _ = WaferBicgstab::build_fused(&mut fabric, &a);
            fabric
        }
        "cg" => {
            let a = system3d(3, 3, 6);
            let mut fabric = Fabric::new(3, 3);
            let _ = WaferCg::build(&mut fabric, &a, CgVariant::Standard);
            fabric
        }
        "cg-single" => {
            let a = system3d(3, 3, 6);
            let mut fabric = Fabric::new(3, 3);
            let _ = WaferCg::build(&mut fabric, &a, CgVariant::SingleReduction);
            fabric
        }
        "bicgstab2d" => {
            let block = Block2D::new(3, 3);
            let a = system2d(3, 3, block);
            let mut fabric = Fabric::new(3, 3);
            let _ = WaferBicgstab2d::build(&mut fabric, &a, block);
            fabric
        }
        "dsl-star9-2d" => {
            let spec = wse_dsl::catalog::get("star9-2d").expect("catalog operator");
            let mut fabric = Fabric::new(2, 2);
            wse_dsl::lower_spec(&mut fabric, &spec, Mesh3D::new(8, 8, 1), Some(Block2D::new(4, 4)))
                .expect("catalog operator must lower");
            fabric
        }
        "dsl-star25-3d" => {
            let spec = wse_dsl::catalog::get("star25-3d").expect("catalog operator");
            let mut fabric = Fabric::new(5, 4);
            wse_dsl::lower_spec(&mut fabric, &spec, Mesh3D::new(5, 4, 12), None)
                .expect("catalog operator must lower");
            fabric
        }
        other => {
            if let Some(name) = other.strip_prefix("fixture:") {
                return wse_lint::fixtures::build(name).unwrap_or_else(|| {
                    eprintln!(
                        "unknown fixture `{name}`; available: {}",
                        wse_lint::fixtures::ALL.join(", ")
                    );
                    std::process::exit(2);
                });
            }
            eprintln!("unknown configuration `{other}`; available: {}", ALL.join(", "));
            std::process::exit(2);
        }
    }
}

/// The two `--stats` lines of one configuration.
fn stats_report(config: &str, stats: &LintStats) -> String {
    let passes: Vec<String> = Pass::ALL
        .iter()
        .zip(stats.pass_ns)
        .map(|(pass, ns)| format!("{} {}", pass.name(), ns / 1000))
        .collect();
    format!(
        "{config} stats: {} tiles, {} classes, {} site resolutions, {} graph builds, \
         {} flow queries, {} wait sites\n{config} host us: {} (total {})",
        stats.tiles,
        stats.classes,
        stats.site_resolutions,
        stats.graph_builds,
        stats.flow_queries,
        stats.wait_sites,
        passes.join(", "),
        stats.pass_ns.iter().sum::<u64>() / 1000
    )
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "usage: wse-lint [--json] [--stats] [CONFIG ...]\nconfigurations: {}, fixture:NAME\nfixtures: {}",
            ALL.join(", "),
            wse_lint::fixtures::ALL.join(", ")
        );
        return;
    }
    let json = args.iter().any(|a| a == "--json");
    let show_stats = args.iter().any(|a| a == "--stats");
    args.retain(|a| a != "--json" && a != "--stats");
    let configs: Vec<&str> =
        if args.is_empty() { ALL.to_vec() } else { args.iter().map(|s| s.as_str()).collect() };

    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut records: Vec<String> = Vec::new();
    for config in configs {
        // DSL-rejection fixtures never produce a fabric; report the
        // structured front-end error in the same diffable format.
        if let Some((err, untouched)) =
            config.strip_prefix("fixture:").and_then(wse_dsl::fixtures::reject)
        {
            if json {
                records.push(format!(
                    "{{\"config\":\"{}\",\"tile\":[0,0],\"severity\":\"error\",\
                     \"rule\":\"dsl-reject\",\"message\":\"{}\"}}",
                    escape(config),
                    escape(&err.to_string())
                ));
            } else {
                println!("{config}: rejected by the DSL front-end (fabric untouched: {untouched})");
                println!("  error: [dsl-reject] {err}");
            }
            if !untouched {
                eprintln!("{config}: rejection mutated the fabric — the before-any-fabric contract is broken");
            }
            errors += 1;
            continue;
        }
        let fabric = build(config);
        let (diags, stats) = lint_with_stats(&fabric);
        if json {
            for d in &diags {
                records.push(format!(
                    "{{\"config\":\"{}\",\"tile\":[{},{}],\"severity\":\"{}\",\
                     \"rule\":\"{}\",\"message\":\"{}\"}}",
                    escape(config),
                    d.tile.0,
                    d.tile.1,
                    d.severity,
                    d.rule,
                    escape(&d.message)
                ));
            }
        } else if diags.is_empty() {
            println!("{config}: clean ({}x{} fabric)", fabric.width(), fabric.height());
        } else {
            println!("{config}: {} diagnostic(s)", diags.len());
            for d in &diags {
                println!("  {d}");
            }
        }
        if show_stats {
            eprintln!("{}", stats_report(config, &stats));
        }
        for d in &diags {
            match d.severity {
                Severity::Error => errors += 1,
                Severity::Warning => warnings += 1,
            }
        }
    }
    if json {
        println!("[{}]", records.join(","));
    }
    if errors > 0 {
        eprintln!("wse-lint: {errors} error(s), {warnings} warning(s)");
        std::process::exit(1);
    }
    if warnings > 0 && !json {
        println!("wse-lint: {warnings} warning(s)");
    }
}
