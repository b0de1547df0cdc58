//! The Listing-1 SpMV dataflow, watched closely: broadcast on the Fig. 5
//! tessellation, FIFO-decoupled multiply/add pipelines, and the cycle
//! accounting that grounds the performance model.
//!
//! ```text
//! cargo run --release --example wafer_spmv              # 5x5 tiles, z = 64, 256, 1024
//! cargo run --release --example wafer_spmv -- 128 128 16  # one w x h x z SpMV
//! ```
//!
//! Each line also gives the host time of the SpMV (load, run, read back)
//! per simulated tile-cycle; it varies from run to run, the rest does not.

use std::time::Instant;
use wafer_stencil::prelude::*;
use wafer_stencil::stencil_::dia::Offset3;
use wse_dsl::tess::spmv_color;

fn main() {
    let args: Vec<usize> =
        std::env::args().skip(1).map(|a| a.parse().expect("usage: wafer_spmv [w h z]")).collect();
    let (w, h, zs) = match args[..] {
        [] => (5, 5, vec![64, 256, 1024]),
        [w, h, z] => (w, h, vec![z]),
        _ => panic!("usage: wafer_spmv [w h z]"),
    };
    let (tw, th) = (w.min(5), h.min(5));
    println!("Fig. 5 tessellation colors for a {tw}x{th} region:");
    for y in 0..th {
        let row: Vec<String> = (0..tw).map(|x| spmv_color(x, y).to_string()).collect();
        println!("  {}", row.join(" "));
    }
    println!("(every tile's outgoing color differs from all four incoming ones)\n");

    for z in zs {
        let mesh = Mesh3D::new(w, h, z);
        // Unit-diagonal operator with -1/8 couplings: exact in fp16.
        let mut a = DiaMatrix::<f64>::new(mesh, &Offset3::seven_point());
        for (x, y, zz) in mesh.iter() {
            a.set(x, y, zz, Offset3::CENTER, 1.0);
            for off in &Offset3::seven_point()[1..] {
                if mesh.neighbor(x, y, zz, off.dx, off.dy, off.dz).is_some() {
                    a.set(x, y, zz, *off, -0.125);
                }
            }
        }
        let a16: DiaMatrix<F16> = a.convert();
        let v: Vec<F16> =
            (0..mesh.len()).map(|i| F16::from_f64(((i % 8) as f64 - 4.0) * 0.25)).collect();
        let v64: Vec<f64> = v.iter().map(|h| h.to_f64()).collect();

        let mut fabric = Fabric::new(w, h);
        let spmv = lower(&mut fabric, &StencilSpec::var_seven_point_3d(), &a, None)
            .expect("a unit-diagonal 7-point operator lowers onto Listing 1");
        let t0 = Instant::now();
        let (u_wafer, cycles) = spmv.apply(&mut fabric, &v64);
        let host_ns = t0.elapsed().as_nanos() as f64 / (cycles * (w * h) as u64) as f64;

        // Bit-exact check against the host fp16 DIA matvec (exact
        // arithmetic data, so summation order cannot matter).
        let mut u_host = vec![F16::ZERO; mesh.len()];
        a16.matvec(&v, &mut u_host);
        let exact =
            u_wafer.iter().zip(&u_host).all(|(a, b)| F16::from_f64(*a).to_bits() == b.to_bits());

        let perf = fabric.perf();
        println!(
            "z = {z:>5}: {cycles:>6} cycles ({:>5.2} cycles/z)  flops: {} fp16  flits: {}  bit-exact vs host: {}  host: {host_ns:.0} ns/tile-cycle",
            cycles as f64 / z as f64,
            perf.flops_f16,
            perf.flits_routed,
            if exact { "yes" } else { "NO" },
        );
    }

    println!("\nThe ~3.3-3.9 cycles/z slope is what the performance model extrapolates");
    println!("to the 600x595x1536 headline (experiments binary: `experiments headline`).");
}
