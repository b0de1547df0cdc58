//! The 3D 7-point SpMV kernel — Listing 1 / Fig. 4 of the paper — now a
//! façade over [`wse_dsl::zcolumn`], where the Z-column emitter moved so
//! the DSL lowering layer and the hand-written solver drivers share one
//! implementation. The per-tile dataflow is unchanged:
//!
//! * the local iterate `v` is **broadcast** on the tile's own color to its
//!   four neighbors and looped back to its own ramp,
//! * the result is **initialized** by the in-memory `zm` term
//!   (`u[z] = zm_a[z] · v[z−1]`, via a zero-padded copy of `v`),
//! * the `zp` term is accumulated from memory with the fused FMAC
//!   (`u[z] += zp_a[z] · v[z+1]`),
//! * four background threads multiply the **incoming neighbor streams** by
//!   the `xp/xm/yp/ym` coefficient vectors into four hardware FIFOs,
//! * a high-priority `sumtask`, activated by FIFO pushes, drains the FIFOs
//!   into the result through persistent accumulator DSRs,
//! * the unit main diagonal is handled by a thread that **adds the looped-
//!   back local stream directly** — "Because the diagonal is all ones there
//!   is no FIFO and no multiplication",
//! * a chain of two-way barriers (block/unblock/activate) detects completion
//!   and hands control back (the paper's `xdone/ydone/.../xycdone` tree).
//!
//! [`WaferSpmv::build`] routes through [`wse_dsl::lower`] — the 7-point
//! spec lowers onto the Listing-1 dataflow whenever the matrix diagonal is
//! unit, which `build` asserts. The emitted program is byte-identical to
//! the original hand-written builder's (`wse-serve`'s
//! `tests/dsl_retrofit.rs` pins the program digest).

use stencil::dia::DiaMatrix;
use stencil::precond::has_unit_diagonal;
use wse_arch::Fabric;
use wse_dsl::ir::StencilSpec;
use wse_dsl::Lowered;
use wse_float::F16;

pub use wse_dsl::zcolumn::{
    build_overlap_halo, build_spmv_tile, build_spmv_tile_halo, build_spmv_tile_naive,
    build_spmv_tile_overlapped, load_coefficients, load_iterate, read_result, tile_coefficients,
    HaloBuffers, OverlapHalo, SpmvLayout, SpmvTasks, FIFO_DEPTH, HALO_RECV_SLOT, HALO_SEND_SLOT,
};

/// The whole-fabric SpMV: the lowered Listing-1 program behind an fp16
/// interface.
pub struct WaferSpmv(Lowered);

impl WaferSpmv {
    /// Distributes a unit-diagonal 7-point matrix across the fabric and
    /// builds every tile's program through the DSL lowering layer.
    ///
    /// # Panics
    /// Panics if the matrix is not unit-diagonal 7-point, or the mesh does
    /// not fit the fabric, or a tile runs out of SRAM.
    pub fn build(fabric: &mut Fabric, a: &DiaMatrix<F16>) -> WaferSpmv {
        assert!(has_unit_diagonal(a), "wafer SpMV requires a diagonally preconditioned matrix");
        assert_eq!(a.offsets().len(), 7, "wafer SpMV requires a 7-point stencil");
        let a64: DiaMatrix<f64> = a.convert();
        let spec = StencilSpec::var_seven_point_3d();
        let lowered = wse_dsl::lower(fabric, &spec, &a64, None)
            .unwrap_or_else(|e| panic!("3D SpMV lowering rejected: {e}"));
        WaferSpmv(lowered)
    }

    /// Executes `u = A v` on the fabric. `v` is in global mesh order; the
    /// result is returned in global mesh order. Returns the cycles the
    /// operation took.
    ///
    /// # Panics
    /// Panics if the fabric fails to quiesce (deadlock) or `v` has the wrong
    /// length.
    pub fn run(&self, fabric: &mut Fabric, v: &[F16]) -> (Vec<F16>, u64) {
        apply_f16(&self.0, fabric, v)
    }
}

/// [`Lowered::apply`] behind an fp16 interface: every fp16 value widens to
/// `f64` and narrows back exactly, so the round trip changes no bit.
pub(crate) fn apply_f16(lowered: &Lowered, fabric: &mut Fabric, v: &[F16]) -> (Vec<F16>, u64) {
    let v64: Vec<f64> = v.iter().map(|h| h.to_f64()).collect();
    let (u, cycles) = lowered.apply(fabric, &v64);
    (u.into_iter().map(F16::from_f64).collect(), cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil::decomp::Mapping3D;
    use stencil::dia::Offset3;
    use stencil::mesh::Mesh3D;
    use stencil::precond::jacobi_scale;
    use stencil::stencil7::{convection_diffusion, poisson};
    use wse_dsl::tess::configure_spmv_routes;

    /// Builds an exact-arithmetic test system: coefficients and iterate are
    /// small powers of two, so fp16 arithmetic is exact and the wafer result
    /// must equal the host result bit-for-bit regardless of summation order.
    fn exact_system(mesh: Mesh3D) -> (DiaMatrix<F16>, Vec<F16>) {
        let a = poisson(mesh);
        let sys = jacobi_scale(&a, &vec![1.0; mesh.len()]);
        // After scaling by 1/6 the off-diagonals are -1/6 (inexact!).
        // Instead build a hand-made unit-diagonal matrix with -1/8 couplings.
        let mut a = DiaMatrix::<f64>::new(mesh, &Offset3::seven_point());
        for (x, y, z) in mesh.iter() {
            a.set(x, y, z, Offset3::CENTER, 1.0);
            for off in &Offset3::seven_point()[1..] {
                if mesh.neighbor(x, y, z, off.dx, off.dy, off.dz).is_some() {
                    a.set(x, y, z, *off, -0.125);
                }
            }
        }
        let _ = sys;
        let v: Vec<F16> =
            (0..mesh.len()).map(|i| F16::from_f64(((i % 8) as f64 - 4.0) * 0.25)).collect();
        (a.convert(), v)
    }

    #[test]
    fn wafer_spmv_matches_host_exactly_on_exact_data() {
        let mesh = Mesh3D::new(3, 3, 8);
        let (a, v) = exact_system(mesh);
        let mut fabric = Fabric::new(3, 3);
        let spmv = WaferSpmv::build(&mut fabric, &a);
        let (wafer, cycles) = spmv.run(&mut fabric, &v);
        let mut host = vec![F16::ZERO; mesh.len()];
        a.matvec(&v, &mut host);
        for i in 0..mesh.len() {
            assert_eq!(
                wafer[i].to_bits(),
                host[i].to_bits(),
                "mismatch at {i}: wafer {} host {}",
                wafer[i],
                host[i]
            );
        }
        assert!(cycles > 0);
    }

    #[test]
    fn wafer_spmv_close_to_f64_on_general_data() {
        let mesh = Mesh3D::new(4, 3, 12);
        let a64 = convection_diffusion(mesh, (1.0, -0.5, 0.25), 1.0);
        let sys = jacobi_scale(&a64, &vec![0.0; mesh.len()]);
        let a: DiaMatrix<F16> = sys.matrix.convert();
        let v: Vec<F16> =
            (0..mesh.len()).map(|i| F16::from_f64(((i * 37 % 97) as f64 / 97.0) - 0.5)).collect();
        let mut fabric = Fabric::new(4, 3);
        let spmv = WaferSpmv::build(&mut fabric, &a);
        let (wafer, _) = spmv.run(&mut fabric, &v);
        // f64 reference on the same (rounded) coefficients.
        let vf: Vec<f64> = v.iter().map(|h| h.to_f64()).collect();
        let mut reference = vec![0.0; mesh.len()];
        a.matvec_f64(&vf, &mut reference);
        for i in 0..mesh.len() {
            let err = (wafer[i].to_f64() - reference[i]).abs();
            // 7 terms, each O(1): a handful of fp16 ulps.
            assert!(
                err < 8.0 * 0.001,
                "element {i}: wafer {} vs {reference:.5?}",
                wafer[i].to_f64()
            );
        }
    }

    #[test]
    fn repeated_spmv_reuses_program() {
        // Running the kernel twice must work (fabric DSRs re-armed by
        // InitDsr) and give identical results for identical input.
        let mesh = Mesh3D::new(2, 2, 6);
        let (a, v) = exact_system(mesh);
        let mut fabric = Fabric::new(2, 2);
        let spmv = WaferSpmv::build(&mut fabric, &a);
        let (r1, _) = spmv.run(&mut fabric, &v);
        let (r2, _) = spmv.run(&mut fabric, &v);
        assert_eq!(r1, r2);
    }

    #[test]
    fn flop_count_matches_table1_for_interior_tiles() {
        // An interior tile executes 12 fp16 flops per meshpoint per SpMV:
        // zm mul (1) + zp fused (2) + 4 × (mul+add) (8) + diagonal add (1).
        let mesh = Mesh3D::new(3, 3, 16);
        let (a, v) = exact_system(mesh);
        let mut fabric = Fabric::new(3, 3);
        let spmv = WaferSpmv::build(&mut fabric, &a);
        let _ = spmv.run(&mut fabric, &v);
        let interior = fabric.tile(1, 1).core.perf;
        assert_eq!(interior.flops_f16, 12 * 16, "12 flops per z element");
    }

    #[test]
    fn single_tile_column_works() {
        // 1×1 fabric region: no neighbors at all; only z terms + loopback.
        let mesh = Mesh3D::new(1, 1, 10);
        let (a, v) = exact_system(mesh);
        let mut fabric = Fabric::new(1, 1);
        let spmv = WaferSpmv::build(&mut fabric, &a);
        let (wafer, _) = spmv.run(&mut fabric, &v);
        let mut host = vec![F16::ZERO; mesh.len()];
        a.matvec(&v, &mut host);
        for i in 0..mesh.len() {
            assert_eq!(wafer[i].to_bits(), host[i].to_bits());
        }
    }

    #[test]
    fn cycles_scale_linearly_in_z() {
        let run_z = |z: usize| -> u64 {
            let mesh = Mesh3D::new(3, 3, z);
            let (a, v) = exact_system(mesh);
            let mut fabric = Fabric::new(3, 3);
            let spmv = WaferSpmv::build(&mut fabric, &a);
            spmv.run(&mut fabric, &v).1
        };
        let c32 = run_z(32);
        let c128 = run_z(128);
        // Slope between 2 and 8 cycles per z element once overheads wash out.
        let slope = (c128 - c32) as f64 / 96.0;
        assert!((2.0..8.0).contains(&slope), "cycles/z slope {slope}");
    }

    #[test]
    fn naive_spmv_matches_but_is_slower() {
        // Same answers, more cycles: the FIFO-decoupled dataflow's whole
        // point. (At small z the fixed overheads shrink the gap; the slope
        // difference is what matters.)
        let mesh = Mesh3D::new(3, 3, 256);
        let (a, v) = exact_system(mesh);
        // Reference: the Listing-1 kernel.
        let mut f1 = Fabric::new(3, 3);
        let spmv = WaferSpmv::build(&mut f1, &a);
        let (fast_out, fast_cycles) = spmv.run(&mut f1, &v);

        // Naive: build per tile with the ablation builder.
        let mut f2 = Fabric::new(3, 3);
        let mapping = Mapping3D::new(mesh, 3, 3);
        configure_spmv_routes(&mut f2, 3, 3);
        let mut layouts = Vec::new();
        let mut tasks = Vec::new();
        for y in 0..3 {
            for x in 0..3 {
                let tile = f2.tile_mut(x, y);
                let layout = SpmvLayout::alloc(tile, 256);
                let coeffs = tile_coefficients(&a, x, y);
                load_coefficients(tile, &layout, &coeffs);
                let t = build_spmv_tile_naive(tile, x, y, 3, 3, layout);
                layouts.push(layout);
                tasks.push(t);
            }
        }
        for y in 0..3 {
            for x in 0..3 {
                let i = y * 3 + x;
                let rows = mapping.core_rows(x, y);
                load_iterate(f2.tile_mut(x, y), &layouts[i], &v[rows]);
                f2.tile_mut(x, y).core.activate(tasks[i].start);
            }
        }
        let naive_cycles = f2.run_watched(1_000_000, 1_000_000).unwrap();
        let mut naive_out = vec![F16::ZERO; mesh.len()];
        for y in 0..3 {
            for x in 0..3 {
                let i = y * 3 + x;
                let rows = mapping.core_rows(x, y);
                let u = read_result(f2.tile(x, y), &layouts[i]);
                naive_out[rows].copy_from_slice(&u);
            }
        }
        // Same result (exact arithmetic ⇒ order irrelevant)…
        for i in 0..mesh.len() {
            assert_eq!(naive_out[i].to_bits(), fast_out[i].to_bits(), "element {i}");
        }
        // …but meaningfully more cycles.
        assert!(
            naive_cycles as f64 > 1.2 * fast_cycles as f64,
            "naive {naive_cycles} vs decoupled {fast_cycles}"
        );
    }

    #[test]
    #[should_panic(expected = "diagonally preconditioned")]
    fn rejects_non_unit_diagonal() {
        let mesh = Mesh3D::new(2, 2, 4);
        let a: DiaMatrix<F16> = poisson(mesh).convert();
        let mut fabric = Fabric::new(2, 2);
        WaferSpmv::build(&mut fabric, &a);
    }
}
