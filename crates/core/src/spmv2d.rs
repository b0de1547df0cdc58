//! The 2D 9-point SpMV with block-per-core mapping and output-halo exchange
//! (§IV.2 of the paper) — now a façade over the [`wse_dsl`] lowering layer.
//!
//! "For the 2D problem we map a rectangular region of the mesh of v to each
//! core, and store all elements of the corresponding columns of A. After
//! multiplication of the local v with the local A we have generated products
//! in an output halo that must be sent to neighboring tiles. ... We complete
//! a round of send and add in one direction, then a round for the other
//! direction, and in this way avoid communication along diagonals of the
//! tile grid."
//!
//! The emitter lives in [`wse_dsl::block2d`] (generalized to halo radius
//! ≤ 2 and both precisions); [`WaferSpmv2d`] is the nine-point fp16
//! instance of it. At radius 1 the generalized emitter produces
//! **byte-identical** programs to the original hand-written builder;
//! `wse-serve`'s `tests/dsl_retrofit.rs` pins the program digests.

use stencil::decomp::Block2D;
use stencil::dia::DiaMatrix;
use wse_arch::Fabric;
use wse_dsl::ir::StencilSpec;
use wse_dsl::Lowered;
use wse_float::F16;

/// The whole-fabric 2D SpMV: the lowered block-mapped program behind an
/// fp16 interface.
pub struct WaferSpmv2d(Lowered);

impl WaferSpmv2d {
    /// Distributes a 9-point 2D matrix over a fabric of `w × h` cores, each
    /// holding a `block` region, by lowering the nine-point stencil spec
    /// through [`wse_dsl::lower`]. The matrix mesh must equal
    /// `block.covered_mesh(w, h)`.
    ///
    /// # Panics
    /// Panics on geometry mismatch or SRAM exhaustion.
    pub fn build(fabric: &mut Fabric, a: &DiaMatrix<F16>, block: Block2D) -> WaferSpmv2d {
        let mesh3 = a.mesh();
        assert_eq!(mesh3.nz, 1, "2D kernel requires nz == 1");
        assert_eq!(a.offsets().len(), 9, "9-point stencil required");
        let (w, h) = (mesh3.nx / block.bx, mesh3.ny / block.by);
        assert_eq!(w * block.bx, mesh3.nx, "mesh x must tile evenly");
        assert_eq!(h * block.by, mesh3.ny, "mesh y must tile evenly");
        assert!(w <= fabric.width() && h <= fabric.height(), "mesh exceeds fabric");

        let a64: DiaMatrix<f64> = a.convert();
        let spec = StencilSpec::var_nine_point_2d();
        let lowered = wse_dsl::lower(fabric, &spec, &a64, Some(block))
            .unwrap_or_else(|e| panic!("2D SpMV lowering rejected: {e}"));
        WaferSpmv2d(lowered)
    }

    /// Executes `u = A v`. Input and output are in global mesh order
    /// (x-major, y fastest within a row of blocks — see
    /// [`stencil::mesh::Mesh2D::idx`]). Returns the result and cycle count.
    ///
    /// # Panics
    /// Panics on stall or length mismatch.
    pub fn run(&self, fabric: &mut Fabric, v: &[F16]) -> (Vec<F16>, u64) {
        crate::spmv3d::apply_f16(&self.0, fabric, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil::dia::Offset3;
    use stencil::mesh::Mesh2D;

    /// Exact-arithmetic 9-point operator: unit diagonal, −1/8 couplings.
    fn exact9(mesh: Mesh2D) -> (DiaMatrix<F16>, Vec<F16>) {
        let m3 = mesh.as_3d();
        let mut a = DiaMatrix::<f64>::new(m3, &Offset3::nine_point_2d());
        for (x, y, _z) in m3.iter() {
            a.set(x, y, 0, Offset3::CENTER, 1.0);
            for off in &Offset3::nine_point_2d()[1..] {
                if m3.neighbor(x, y, 0, off.dx, off.dy, 0).is_some() {
                    a.set(x, y, 0, *off, -0.125);
                }
            }
        }
        let v: Vec<F16> =
            (0..mesh.len()).map(|i| F16::from_f64(((i % 16) as f64 - 8.0) * 0.125)).collect();
        (a.convert(), v)
    }

    fn check(fabric_w: usize, fabric_h: usize, block: Block2D) {
        let mesh = block.covered_mesh(fabric_w, fabric_h);
        let (a, v) = exact9(mesh);
        let mut fabric = Fabric::new(fabric_w, fabric_h);
        let spmv = WaferSpmv2d::build(&mut fabric, &a, block);
        let (wafer, _) = spmv.run(&mut fabric, &v);
        let mut host = vec![F16::ZERO; mesh.len()];
        a.matvec(&v, &mut host);
        for i in 0..mesh.len() {
            assert_eq!(
                wafer[i].to_bits(),
                host[i].to_bits(),
                "mismatch at {i}: wafer {} host {} ({}x{} fabric, {:?})",
                wafer[i],
                host[i],
                fabric_w,
                fabric_h,
                block
            );
        }
    }

    #[test]
    fn matches_host_on_2x2_fabric_4x4_blocks() {
        check(2, 2, Block2D::new(4, 4));
    }

    #[test]
    fn matches_host_on_3x3_fabric_rectangular_blocks() {
        check(3, 3, Block2D::new(3, 5));
    }

    #[test]
    fn matches_host_on_single_row_of_tiles() {
        check(4, 1, Block2D::new(3, 3));
    }

    #[test]
    fn matches_host_on_single_tile() {
        check(1, 1, Block2D::new(6, 6));
    }

    #[test]
    fn corner_contributions_cross_diagonally() {
        // A lone 1.0 at a block corner: its NE diagonal contribution must
        // reach the diagonal neighbor via the two-round exchange.
        let block = Block2D::new(4, 4);
        let mesh = block.covered_mesh(2, 2);
        let (a, _) = exact9(mesh);
        let mut v = vec![F16::ZERO; mesh.len()];
        // Last cell of tile (0,0)'s block: global (3, 3).
        v[mesh.idx(3, 3)] = F16::ONE;
        let mut fabric = Fabric::new(2, 2);
        let spmv = WaferSpmv2d::build(&mut fabric, &a, block);
        let (wafer, _) = spmv.run(&mut fabric, &v);
        // Diagonal neighbor (4,4) lives on tile (1,1).
        let got = wafer[mesh.idx(4, 4)].to_f64();
        assert_eq!(got, -0.125, "diagonal coupling must arrive");
    }

    #[test]
    fn cycles_grow_with_block_area() {
        let run = |n: usize| {
            let block = Block2D::new(n, n);
            let mesh = block.covered_mesh(2, 2);
            let (a, v) = exact9(mesh);
            let mut fabric = Fabric::new(2, 2);
            let spmv = WaferSpmv2d::build(&mut fabric, &a, block);
            spmv.run(&mut fabric, &v).1
        };
        let c4 = run(4);
        let c8 = run(8);
        assert!(c8 > c4, "bigger blocks take longer: {c4} vs {c8}");
    }
}
