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

use crate::allreduce::AllReduce;
use crate::bicgstab::{build_coefficient_tasks, coefficient_names, regs};
use crate::krylov::{self, Layout, Program, Slot, Tasks, Vecs};
use stencil::decomp::Block2D;
use stencil::dia::{DiaMatrix, Offset3};
use wse_arch::dsr::mk;
use wse_arch::instr::{Op, RegOp, Stmt, Task, TensorInstr};
use wse_arch::types::Dtype;
use wse_arch::{Fabric, Tile};
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

/// Emits `bx` row-wise statements applying `f(row_dst, row_a, row_b)` over
/// contiguous row slices of length `by`.
fn rowwise(
    tile: &mut Tile,
    bx: usize,
    by: usize,
    mut row_addrs: impl FnMut(usize) -> (u32, u32, Option<u32>),
    op: Op,
) -> Vec<Stmt> {
    let mut body = Vec::with_capacity(bx);
    for i in 0..bx {
        let (dst, a, b) = row_addrs(i);
        let dd = tile.core.add_dsr(mk::tensor16(dst, by as u32));
        let da = tile.core.add_dsr(mk::tensor16(a, by as u32));
        let db = b.map(|addr| tile.core.add_dsr(mk::tensor16(addr, by as u32)));
        body.push(Stmt::Exec(TensorInstr { op, dst: Some(dd), a: Some(da), b: db }));
    }
    body
}

/// Emits a row-wise mixed-precision dot of two block-shaped operands into
/// `AR_IN`-style registers.
fn rowwise_dot(
    tile: &mut Tile,
    bx: usize,
    by: usize,
    mut row_addrs: impl FnMut(usize) -> (u32, u32),
    move_to: usize,
) -> Vec<Stmt> {
    let mut body = vec![Stmt::SetReg { reg: regs::DOT_ACC, value: 0.0 }];
    for i in 0..bx {
        let (a, b) = row_addrs(i);
        let da = tile.core.add_dsr(mk::tensor16(a, by as u32));
        let db = tile.core.add_dsr(mk::tensor16(b, by as u32));
        body.push(Stmt::Exec(TensorInstr {
            op: Op::MacReg { acc: regs::DOT_ACC },
            dst: None,
            a: Some(da),
            b: Some(db),
        }));
    }
    body.push(Stmt::RegArith { op: RegOp::Mov, dst: move_to, a: regs::DOT_ACC, b: regs::DOT_ACC });
    body
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

        let (bx, by) = (block.bx, block.by);
        let n = (bx * by) as u32;
        let offsets = Offset3::nine_point_2d();
        let mut tiles = Vec::with_capacity(w * h);

        for ty in 0..h {
            for tx in 0..w {
                let tile = fabric.tile_mut(ox + tx, oy + ty);
                // One copy of the nine coefficient arrays, shared by both
                // SpMV instances (as the paper's memory accounting assumes):
                // `lp` allocates them with p and s, `lq` adds only q and y.
                let lp = BlockLayout::alloc(tile, block, offsets.len(), 1, Dtype::F16);
                let ub = ((bx + 2) * (by + 2)) as u32;
                let lq = BlockLayout {
                    v: tile.mem.alloc_vec(n, Dtype::F16).expect("SRAM: q"),
                    ubuf: tile.mem.alloc_vec(ub, Dtype::F16).expect("SRAM: y"),
                    ..lp.clone()
                };
                block2d::load_block_coefficients(tile, &lp, a, &offsets, tx, ty);
                let tv = Vecs {
                    r: tile.mem.alloc_vec(n, Dtype::F16).expect("SRAM: r"),
                    r0: tile.mem.alloc_vec(n, Dtype::F16).expect("SRAM: r0"),
                    x: tile.mem.alloc_vec(n, Dtype::F16).expect("SRAM: x"),
                    p: lp.v,
                    ..Vecs::default()
                };

                // The 2D SpMV's halo exchange happens inside its task
                // chain, so it is attributed to the "spmv" phase, matching
                // how the paper accounts the broadcast.
                let mut tasks = Tasks::new();
                tasks[Slot::SpmvPs] =
                    block2d::build_block_tile_task(tile, &lp, &offsets, tx, ty, w, h);
                tasks[Slot::SpmvQy] =
                    block2d::build_block_tile_task(tile, &lq, &offsets, tx, ty, w, h);
                tasks[Slot::Reduce] = allreduce.task(tx, ty);

                let row = |base: u32, i: usize| base + 2 * (i * by) as u32;
                let s_row = |i: usize| lp.u_addr(i + 1, 1);
                let y_row = |i: usize| lq.u_addr(i + 1, 1);

                // --- Dots. ---
                tasks[Slot::DotR0s] = {
                    let body =
                        rowwise_dot(tile, bx, by, |i| (row(tv.r0, i), s_row(i)), regs::AR_IN);
                    tile.core.add_task(Task::new("2d_dot_r0s", body))
                };
                tasks[Slot::DotQy] = {
                    let body = rowwise_dot(tile, bx, by, |i| (row(lq.v, i), y_row(i)), regs::AR_IN);
                    tile.core.add_task(Task::new("2d_dot_qy", body))
                };
                tasks[Slot::DotYy] = {
                    let body = rowwise_dot(tile, bx, by, |i| (y_row(i), y_row(i)), regs::AR_IN);
                    tile.core.add_task(Task::new("2d_dot_yy", body))
                };
                tasks[Slot::DotRho] = {
                    let body =
                        rowwise_dot(tile, bx, by, |i| (row(tv.r0, i), row(tv.r, i)), regs::AR_IN);
                    tile.core.add_task(Task::new("2d_dot_rho", body))
                };
                tasks[Slot::DotRr] = {
                    let body =
                        rowwise_dot(tile, bx, by, |i| (row(tv.r, i), row(tv.r, i)), regs::AR_IN);
                    tile.core.add_task(Task::new("2d_dot_rr", body))
                };

                // --- Scalar phases (same algebra as the 3D solver). ---
                let names = coefficient_names!("2d_");
                build_coefficient_tasks(&mut tile.core, &mut tasks, names, false);

                // --- Vector updates (row-wise). ---
                // q := r − α s  (q is the second SpMV's input block).
                tasks[Slot::UpdQ] = {
                    let body = rowwise(
                        tile,
                        bx,
                        by,
                        |i| (row(lq.v, i), row(tv.r, i), Some(s_row(i))),
                        Op::Xpay { scalar: regs::NEG_ALPHA },
                    );
                    tile.core.add_task(Task::new("2d_upd_q", body))
                };
                // x += α p; x += ω q.
                tasks[Slot::UpdX] = {
                    let mut body = rowwise(
                        tile,
                        bx,
                        by,
                        |i| (row(tv.x, i), row(lp.v, i), None),
                        Op::Axpy { scalar: regs::ALPHA },
                    );
                    body.extend(rowwise(
                        tile,
                        bx,
                        by,
                        |i| (row(tv.x, i), row(lq.v, i), None),
                        Op::Axpy { scalar: regs::OMEGA },
                    ));
                    tile.core.add_task(Task::new("2d_upd_x", body))
                };
                // r := q − ω y.
                tasks[Slot::UpdR] = {
                    let body = rowwise(
                        tile,
                        bx,
                        by,
                        |i| (row(tv.r, i), row(lq.v, i), Some(y_row(i))),
                        Op::Xpay { scalar: regs::NEG_OMEGA },
                    );
                    tile.core.add_task(Task::new("2d_upd_r", body))
                };
                // p := r + β (p − ω s): tilt then XPAY, row-wise, one task.
                tasks[Slot::UpdP1] = {
                    let mut body = rowwise(
                        tile,
                        bx,
                        by,
                        |i| (row(lp.v, i), row(lp.v, i), Some(s_row(i))),
                        Op::Xpay { scalar: regs::NEG_OMEGA },
                    );
                    body.extend(rowwise(
                        tile,
                        bx,
                        by,
                        |i| (row(lp.v, i), row(tv.r, i), Some(row(lp.v, i))),
                        Op::Xpay { scalar: regs::BETA },
                    ));
                    tile.core.add_task(Task::new("2d_upd_p", body))
                };

                // Every phase task is a host-activated entry point.
                tasks.mark_entries(&mut tile.core);
                tiles.push((tasks, tv));
            }
        }
        crate::debug_lint(fabric);
        let layout = Layout::Block { block, w, h };
        let budget = 2_000 * (block.points() as u64) + 100_000;
        WaferBicgstab2d(Program::new(&krylov::BICGSTAB_BLOCK, layout, origin, tiles, budget))
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
    use crate::Krylov;
    use solver::policy::MixedF16;
    use solver::{bicgstab as host_bicgstab, SolveOptions};
    use stencil::precond::jacobi_scale;
    use stencil::stencil9::convection_diffusion9;

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
        let host = host_bicgstab::<MixedF16>(
            &a,
            &b,
            &SolveOptions { max_iters: iters, rtol: 0.0, record_true_residual: false },
        );
        for (wr, hr) in wafer_res.iter().zip(&host.history.records).take(4) {
            let ratio = (wr / hr.recursive_rel.max(1e-12)).max(hr.recursive_rel / wr.max(1e-12));
            assert!(ratio < 5.0, "wafer {wr:.3e} vs host {:.3e}", hr.recursive_rel);
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
