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
//! The recurrence is the table [`krylov::BICGSTAB_BLOCK`]; this module
//! lays the block out (the SpMVs own p / s / q / y) and hands the shared
//! emitter a `TileMap` whose vectors are `bx` row slices of `by` words.

use crate::allreduce::AllReduce;
use crate::bicgstab::regs;
use crate::kernels::{alloc, TileMap};
use crate::krylov::{self, Layout, Program, Slot, Tasks, V};
use stencil::decomp::Block2D;
use stencil::dia::{DiaMatrix, Offset3};
use wse_arch::types::Dtype;
use wse_arch::Fabric;
use wse_dsl::block2d::{self, BlockLayout};
use wse_float::F16;

/// The 2D-mapped wafer BiCGStab solver: a constructor for the block-layout
/// [`Program`], which it derefs to (sequenced by [`krylov::BICGSTAB_BLOCK`]).
///
/// The program occupies the `w × h` tile region whose top-left tile sits
/// at the build origin (`(0, 0)` unless built with
/// [`WaferBicgstab2d::build_at`]). The handle is `Clone`: because routing
/// is per-tile state, a built program is translation-invariant, and a
/// region blitted elsewhere is driven through [`WaferBicgstab2d::rebased`]
/// — this is what lets the multi-tenant service compile once on a scratch
/// fabric and place the cached image into any tenant region.
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
    /// fabric) and builds all per-tile programs.
    ///
    /// # Panics
    /// Panics on geometry mismatch, non-unit diagonal, or SRAM exhaustion.
    pub fn build(fabric: &mut Fabric, a: &DiaMatrix<F16>, block: Block2D) -> WaferBicgstab2d {
        Self::build_at(fabric, a, block, (0, 0))
    }

    /// Like [`WaferBicgstab2d::build`], with the program's `w × h` tile
    /// region placed so its top-left tile sits at `origin` — the
    /// origin-parameterized builder tenant regions are populated with. All
    /// routes and tasks stay strictly inside the region, so co-resident
    /// programs in disjoint regions cannot interact.
    ///
    /// # Panics
    /// Panics on geometry mismatch, non-unit diagonal, SRAM exhaustion, or
    /// a region reaching past the fabric.
    pub fn build_at(
        fabric: &mut Fabric,
        a: &DiaMatrix<F16>,
        block: Block2D,
        origin: (usize, usize),
    ) -> WaferBicgstab2d {
        assert!(stencil::precond::has_unit_diagonal(a), "matrix must be diagonally preconditioned");
        let mesh3 = a.mesh();
        assert_eq!(mesh3.nz, 1, "2D mapping requires nz == 1");
        let (w, h) = (mesh3.nx / block.bx, mesh3.ny / block.by);
        assert_eq!(w * block.bx, mesh3.nx, "mesh x must tile evenly");
        assert_eq!(h * block.by, mesh3.ny, "mesh y must tile evenly");

        assert!(w >= 2 && h >= 2, "2D solver needs at least a 2x2 tile region");
        let (ox, oy) = origin;
        assert!(ox + w <= fabric.width() && oy + h <= fabric.height(), "region exceeds fabric");
        block2d::configure_block_routes_at(fabric, ox, oy, w, h, 1);
        let allreduce = AllReduce::build_at(
            fabric,
            ox,
            oy,
            w,
            h,
            regs::AR_IN,
            regs::AR_OUT,
            regs::AR_ACC,
            crate::allreduce::colors::DEFAULT_BASE,
        );

        let recurrence = &krylov::BICGSTAB_BLOCK;
        let (bx, by) = (block.bx, block.by);
        let n = (bx * by) as u32;
        let offsets = Offset3::nine_point_2d();
        let mut tiles = Vec::with_capacity(w * h);

        for ty in 0..h {
            for tx in 0..w {
                let at = (ox + tx, oy + ty);
                let tile = fabric.tile_mut(at.0, at.1);
                // One copy of the nine coefficient arrays, shared by both
                // SpMV instances (as the paper's memory accounting assumes):
                // `lp` allocates them with p and s, `lq` adds only q and y.
                let lp = BlockLayout::alloc(tile, block, offsets.len(), 1, Dtype::F16);
                let ub = ((bx + 2) * (by + 2)) as u32;
                let lq = BlockLayout {
                    v: alloc(tile, at, V::Q, n, Dtype::F16),
                    ubuf: alloc(tile, at, V::Y, ub, Dtype::F16),
                    ..lp.clone()
                };
                block2d::load_block_coefficients(tile, &lp, a, &offsets, tx, ty);

                // Every vector is `bx` rows of `by` words: dense blocks,
                // except that each SpMV's product is read in place, as the
                // interior rows of its extended output buffer.
                let mut map = TileMap {
                    at: [0; V::COUNT],
                    stride: [2 * by as u32; V::COUNT],
                    rows: bx as u32,
                    len: by as u32,
                };
                // The 2D SpMV's halo exchange happens inside its task
                // chain, so it is attributed to the "spmv" phase, matching
                // how the paper accounts the broadcast.
                let mut tasks = Tasks::new();
                for (l, &(slot, source, product)) in [&lp, &lq].into_iter().zip(recurrence.spmvs) {
                    map.at[source as usize] = l.v;
                    map.at[product as usize] = l.u_addr(1, 1);
                    map.stride[product as usize] = l.u_addr(2, 1) - l.u_addr(1, 1);
                    tasks[slot] = block2d::build_block_tile_task(tile, l, &offsets, tx, ty, w, h);
                }
                // The rest of the storage table, in its order: r, r̂₀, x.
                let owned = |v: V| recurrence.spmvs.iter().any(|&(_, s, u)| v == s || v == u);
                for &(v, _) in recurrence.storage.iter().filter(|&&(v, _)| !owned(v)) {
                    map.at[v as usize] = alloc(tile, at, v, n, Dtype::F16);
                }
                tasks[Slot::Reduce] = allreduce.task(tx, ty);
                recurrence.emit(&mut tile.core, &map, &mut tasks);
                tiles.push((tasks, map.at));
            }
        }
        crate::debug_lint(fabric);
        let layout = Layout::Block { block, w, h };
        WaferBicgstab2d(Program::new(recurrence, layout, origin, tiles))
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
