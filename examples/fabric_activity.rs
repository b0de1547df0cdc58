//! Fabric activity of one BiCGStab iteration, read from the trace: the
//! phase table (SpMV bursts, dot products, reduction latency, update
//! bursts), the stall breakdown and the per-tile utilization heatmap. Given
//! a path, it also writes the trace as Perfetto JSON (open it in
//! ui.perfetto.dev).
//!
//! ```text
//! cargo run --release --example fabric_activity [-- <fabric-edge> <z> [trace.json]]
//! ```

use wafer_stencil::arch::TraceConfig;
use wafer_stencil::prelude::*;
use wse_trace::{
    export_trace_json, stall_breakdown, utilization_ascii, validate_trace_json, PhaseReport,
};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(8);
    let z: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(96);
    let out = args.next();

    let mesh = Mesh3D::new(n, n, z);
    let problem = manufactured(mesh, (1.0, -0.5, 0.5), 7).preconditioned();
    let a16: DiaMatrix<F16> = problem.matrix.convert();
    let b16: Vec<F16> = problem.rhs.iter().map(|&v| F16::from_f64(v)).collect();

    let mut fabric = Fabric::new(n, n);
    let solver = WaferBicgstab::build(&mut fabric, &a16);
    solver.load_rhs(&mut fabric, &b16);

    // Trace exactly one iteration.
    fabric.arm_trace(TraceConfig::default());
    let cycles = solver.iterate(&mut fabric);
    let trace = fabric.take_trace().expect("trace was armed");

    println!("one BiCGStab iteration on a {n}x{n} fabric, z = {z}: {} cycles", cycles.total());
    println!(
        "phases: spmv {} | dot {} | allreduce {} | update {} | scalar {}",
        cycles.spmv, cycles.dot, cycles.allreduce, cycles.update, cycles.scalar
    );
    println!();
    print!("{}", PhaseReport::from_trace(&trace).render(Cs1Model::default().clock_ghz));
    println!();
    print!("{}", stall_breakdown(&trace));
    println!();
    print!("{}", utilization_ascii(&trace));
    let mean = trace.tiles.iter().map(|t| t.utilization()).sum::<f64>() / trace.tiles.len() as f64;
    println!("\nmean utilization {:.0}% — the SpMV rows saturate the datapath;", mean * 100.0);
    println!("the allreduce rows are the blocking reduction rounds the paper minimizes.");

    if let Some(path) = out {
        let json = export_trace_json(&trace);
        let stats = validate_trace_json(&json).expect("exported Perfetto trace must validate");
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!(
            "\nwrote {path}: {} events ({} slices, {} metadata), max ts {} cycles",
            stats.events, stats.slices, stats.metadata, stats.max_ts
        );
    }
}
