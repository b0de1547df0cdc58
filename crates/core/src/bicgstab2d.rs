//! BiCGStab on the **2D block mapping** of §IV.2.
//!
//! The paper sketches the 9-point 2D SpMV and asserts "the efficiency of
//! this approach is approximately the same as for the 3D mapping". This
//! module completes the sketch into a full solver so that claim can be
//! *measured*: the two SpMVs use the output-halo-exchange kernel (sharing
//! one copy of the nine coefficient arrays), the dots run row-wise with the
//! mixed-precision MAC, the AXPY/XPAY updates sweep the block row by row,
//! and the scalar coefficients use the same Fig. 6 AllReduce as the 3D
//! solver.
//!
//! The result vectors `s = A p` and `y = A q` are *not copied out* of the
//! extended output buffers: dot products and updates address their interior
//! rows directly (each interior row `(i+1, 1..=by)` is a contiguous slice).
//!
//! The recurrence is the table [`krylov::BICGSTAB_BLOCK`], laid out by the
//! one builder, `krylov::build`: the SpMVs own p / s / q / y, and the
//! shared emitter addresses every vector as `bx` row slices of `by` words.

use crate::krylov::{self, Program};
use stencil::decomp::Block2D;
use stencil::dia::DiaMatrix;
use wse_arch::Fabric;
use wse_dsl::Layout;
use wse_float::F16;

/// The 2D-mapped wafer BiCGStab solver: a constructor for the block-layout
/// [`Program`], which it derefs to (sequenced by [`krylov::BICGSTAB_BLOCK`]).
///
/// The program occupies the `w × h` tile region at the fabric origin. The
/// handle is `Clone`: because routing is per-tile state, a built program
/// is translation-invariant, and a region blitted elsewhere is driven
/// through [`WaferBicgstab2d::rebased`] — this is what lets the
/// multi-tenant service compile once on a scratch fabric and place the
/// cached image into any tenant region.
#[derive(Clone)]
pub struct WaferBicgstab2d(Program);

impl std::ops::Deref for WaferBicgstab2d {
    type Target = Program;
    fn deref(&self) -> &Program {
        &self.0
    }
}

impl WaferBicgstab2d {
    /// Distributes a unit-diagonal 9-point system (mesh = `block` ×
    /// region) and builds all per-tile programs.
    ///
    /// # Panics
    /// Panics on geometry mismatch, a region smaller than 2×2, a nonzero
    /// band outside the nine points (named), non-unit diagonal, or SRAM
    /// exhaustion.
    pub fn build(fabric: &mut Fabric, a: &DiaMatrix<F16>, block: Block2D) -> WaferBicgstab2d {
        let mesh = a.mesh();
        let layout = Layout::Block { block, w: mesh.nx / block.bx, h: mesh.ny / block.by };
        WaferBicgstab2d(krylov::build(fabric, a, layout, &krylov::BICGSTAB_BLOCK))
    }

    /// A handle for the **same program** resident at another origin (see
    /// [`Program::rebased`]).
    pub fn rebased(&self, origin: (usize, usize)) -> WaferBicgstab2d {
        WaferBicgstab2d(self.0.rebased(origin))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::krylov::HostExec;
    use crate::Krylov;
    use stencil::precond::jacobi_scale;
    use stencil::stencil9::convection_diffusion9;
    use stencil::MixedF16;

    fn system(w: usize, h: usize, block: Block2D) -> (DiaMatrix<F16>, Vec<F16>) {
        let mesh = block.covered_mesh(w, h);
        let a = convection_diffusion9(mesh, (1.5, -0.5));
        let exact: Vec<f64> = (0..mesh.len()).map(|i| ((i % 9) as f64) * 0.125 - 0.5).collect();
        let mut b = vec![0.0; mesh.len()];
        a.matvec_f64(&exact, &mut b);
        let sys = jacobi_scale(&a, &b);
        let a16: DiaMatrix<F16> = sys.matrix.convert();
        let b16: Vec<F16> = sys.rhs.iter().map(|&v| F16::from_f64(v)).collect();
        (a16, b16)
    }

    #[test]
    fn two_d_bicgstab_converges() {
        let block = Block2D::new(4, 4);
        let (a, b) = system(3, 3, block);
        let mut fabric = Fabric::new(3, 3);
        let solver = WaferBicgstab2d::build(&mut fabric, &a, block);
        let (_, stats) = solver.solve(&mut fabric, &b, 20);
        let residuals = stats.residuals;
        let best = residuals.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(best < 0.02, "best residual {best} ({residuals:?})");
    }

    #[test]
    fn two_d_matches_host_mixed_policy() {
        let block = Block2D::new(3, 3);
        let (a, b) = system(3, 3, block);
        let mut fabric = Fabric::new(3, 3);
        let solver = WaferBicgstab2d::build(&mut fabric, &a, block);
        let iters = 6;
        let wafer_res = solver.solve(&mut fabric, &b, iters).1.residuals;
        let mut host =
            HostExec::<MixedF16, _>::new(&krylov::BICGSTAB, |x: &[F16], y: &mut [F16]| {
                a.matvec(x, y);
            });
        host.load_rhs(&b);
        let norm = |v: &[F16]| v.iter().map(|v| v.to_f64() * v.to_f64()).sum::<f64>().sqrt();
        assert_eq!(wafer_res.len(), iters);
        for &wr in wafer_res.iter().take(4) {
            host.iterate();
            let hr = norm(host.r()) / norm(&b);
            let ratio = (wr / hr.max(1e-12)).max(hr / wr.max(1e-12));
            assert!(ratio < 5.0, "wafer {wr:.3e} vs host {hr:.3e}");
        }
    }

    #[test]
    fn efficiency_comparable_to_3d_mapping() {
        // The paper's §IV.2 claim. Compare cycles per meshpoint per
        // iteration: 3D with z = 16 on 4x4 (256 points) vs 2D with 4x4
        // blocks on 4x4 (256 points).
        use crate::bicgstab::WaferBicgstab;
        use stencil::mesh::Mesh3D;
        use stencil::problem::manufactured;

        let mesh3 = Mesh3D::new(4, 4, 16);
        let p3 = manufactured(mesh3, (1.0, -0.5, 0.5), 3).preconditioned();
        let a3: DiaMatrix<F16> = p3.matrix.convert();
        let b3: Vec<F16> = p3.rhs.iter().map(|&v| F16::from_f64(v)).collect();
        let mut f3 = Fabric::new(4, 4);
        let s3 = WaferBicgstab::build(&mut f3, &a3);
        s3.load_rhs(&mut f3, &b3);
        let c3 = s3.iterate(&mut f3).total() as f64 / 256.0;

        let block = Block2D::new(4, 4);
        let (a2, b2) = system(4, 4, block);
        let mut f2 = Fabric::new(4, 4);
        let s2 = WaferBicgstab2d::build(&mut f2, &a2, block);
        s2.load_rhs(&mut f2, &b2);
        let c2 = s2.iterate(&mut f2).total() as f64 / 256.0;

        let ratio = (c2 / c3).max(c3 / c2);
        assert!(
            ratio < 4.0,
            "2D and 3D mappings should be within a small factor: {c3:.1} vs {c2:.1} cycles/point"
        );
    }
}
