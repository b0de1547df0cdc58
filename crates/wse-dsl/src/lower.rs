//! The shared lowering layer: spec + matrix + fabric geometry → a fully
//! built, lint-clean wafer program behind one handle.
//!
//! [`lower`] first runs [`crate::plan()`] (all structured rejections happen
//! there, before any fabric state exists), then dispatches to one of the
//! three emitters:
//!
//! * 2D meshes → [`crate::block2d`] (the 9-point section's block mapping,
//!   generalized to radius ≤ 2);
//! * 3D 7-point fp16 stars over a unit-diagonal matrix → [`crate::zcolumn`]
//!   (the paper's Listing-1 dataflow — the fastest path, so it wins
//!   whenever eligible);
//! * every other 3D star → [`crate::relay`] (store-and-forward rounds,
//!   radius ≤ 4 per axis on four colors).
//!
//! The emitted program is verified by `wse-lint` in debug builds before the
//! handle is returned: a `Lowered` is lint-clean by construction.
//!
//! Every mapping lays a tile's points out in one [`Layout`], and every
//! emitter leaves one record per tile — entry task, iterate address,
//! product address and product row stride — so [`Lowered::apply`] is one
//! scatter, run and gather for all three.

use stencil::decomp::{Block2D, Mapping3D};
use stencil::dia::DiaMatrix;
use stencil::mesh::{Mesh2D, Mesh3D};
use stencil::precond::has_unit_diagonal;
use stencil::Scalar;
use wse_arch::fabric::STALL_WINDOW;
use wse_arch::types::{Dtype, TaskId};
use wse_arch::Fabric;
use wse_float::F16;

use crate::block2d::{
    build_block_tile_task, configure_block_routes, load_block_coefficients, load_scalar_slice,
    store_scalar_slice, BlockLayout,
};
use crate::ir::{DslError, StencilSpec};
use crate::plan::{listing1_eligible, plan, Geometry, MappingPlan};
use crate::relay::{
    build_relay_tile, configure_relay_routes, load_relay_coefficients, RelayLayout,
};
use crate::tess::configure_spmv_routes;
use crate::zcolumn::{build_spmv_tile, load_coefficients, tile_coefficients, SpmvLayout};

/// How a tile region's local vectors map to the global mesh order — the
/// one answer to "which mesh point is element `k` of tile `(x, y)`" for
/// the lowered SpMVs and the Krylov solvers alike.
#[derive(Copy, Clone, Debug)]
pub enum Layout {
    /// §IV.1: one contiguous z-column per tile.
    ZColumn(Mapping3D),
    /// §IV.2: one `bx × by` block per tile of a `w × h` region.
    Block {
        /// Per-tile block shape.
        block: Block2D,
        /// Region width in tiles.
        w: usize,
        /// Region height in tiles.
        h: usize,
    },
}

impl Layout {
    /// §IV.1 for `a` on `fabric`: one z-column of its mesh per tile.
    pub fn columns<S: Scalar>(fabric: &Fabric, a: &DiaMatrix<S>) -> Layout {
        Layout::ZColumn(Mapping3D::new(a.mesh(), fabric.width(), fabric.height()))
    }

    /// Region extents `(w, h)` in tiles.
    pub fn dims(&self) -> (usize, usize) {
        match *self {
            Layout::ZColumn(m) => (m.fabric_w, m.fabric_h),
            Layout::Block { w, h, .. } => (w, h),
        }
    }

    /// A tile's points as `rows` rows of `len`, `k = row · len + i`: a
    /// z-column is one row, a block `bx` rows of `by`.
    fn rows(&self) -> (usize, usize) {
        match *self {
            Layout::ZColumn(m) => (1, m.z),
            Layout::Block { block, .. } => (block.bx, block.by),
        }
    }

    /// Points per tile.
    pub fn local_len(&self) -> usize {
        let (rows, len) = self.rows();
        rows * len
    }

    /// Global mesh index of tile `(tx, ty)`'s `k`-th local point.
    pub fn row(&self, tx: usize, ty: usize, k: usize) -> usize {
        match *self {
            Layout::ZColumn(m) => m.core_rows(tx, ty).start + k,
            Layout::Block { block: Block2D { bx, by }, w, h } => {
                Mesh2D::new(w * bx, h * by).idx(tx * bx + k / by, ty * by + k % by)
            }
        }
    }
}

/// A stencil operator lowered onto a fabric: routes configured, SRAM
/// packed, coefficients loaded, tasks wired, and (in debug builds)
/// lint-verified. Drive it with [`Lowered::apply`].
pub struct Lowered {
    /// The spec's name.
    pub name: String,
    /// The spec fingerprint ([`StencilSpec::fingerprint`]) — cache key
    /// material for compiled-program caches.
    pub fingerprint: u64,
    /// Element type of the datapath.
    pub dtype: Dtype,
    kind: &'static str,
    layout: Layout,
    /// Cycle budget of one apply (only a stall ever reaches it).
    budget: u64,
    /// Per-tile SpMV records, region-relative `y * w + x` order.
    tiles: Vec<TileSpmv>,
}

/// One tile's SpMV as the host drives it.
#[derive(Copy, Clone, Debug)]
struct TileSpmv {
    /// Activating it starts one apply.
    entry: TaskId,
    /// The iterate's [`Layout::local_len`] words, in local order.
    source: u32,
    /// The product's first row.
    product: u32,
    /// Bytes from one product row to the next.
    stride: u32,
}

/// Lowers `spec` with its coefficient matrix `a` onto `fabric`.
///
/// `block` supplies the per-tile block extents for 2D meshes (ignored for
/// 3D). All validation happens in [`plan`], and a nonzero band of `a` at an
/// offset the spec lacks is [`DslError::BandOutsideSpec`], **before any
/// fabric state is created**; on `Err` the fabric is untouched. A spec tap
/// whose band `a` lacks reads as zero.
pub fn lower(
    fabric: &mut Fabric,
    spec: &StencilSpec,
    a: &DiaMatrix<f64>,
    block: Option<Block2D>,
) -> Result<Lowered, DslError> {
    let mesh = a.mesh();
    let geometry = Geometry { fabric_w: fabric.width(), fabric_h: fabric.height(), block };
    let p = plan(spec, mesh, geometry)?;
    spec.check_bands(a)?;
    let offsets = spec.offsets();

    let mut tiles = Vec::new();
    let (kind, layout, budget) = match p.mapping {
        MappingPlan::Block { w, h, block, r } => {
            configure_block_routes(fabric, w, h, r);
            for ty in 0..h {
                for tx in 0..w {
                    let tile = fabric.tile_mut(tx, ty);
                    let layout = BlockLayout::alloc(tile, block, offsets.len(), r, p.dtype);
                    load_block_coefficients(tile, &layout, a, &offsets, tx, ty);
                    let entry = build_block_tile_task(tile, &layout, &offsets, tx, ty, w, h);
                    tile.core.mark_entry(entry);
                    let product = layout.u_addr(r, r);
                    let stride = layout.u_addr(r + 1, r) - product;
                    tiles.push(TileSpmv { entry, source: layout.v, product, stride });
                }
            }
            let budget = 2_000 * block.points() as u64 + 100_000;
            ("block", Layout::Block { block, w, h }, budget)
        }
        MappingPlan::Relay { .. } if listing1_eligible(spec) && has_unit_diagonal(a) => {
            // The paper's Listing-1 dataflow: strictly faster than one
            // relay round (neighbor columns stream through FIFOs while the
            // diagonal FMACs run), so it wins whenever eligible.
            let a16 = a.convert::<F16>();
            let m = Mapping3D::new(mesh, fabric.width(), fabric.height());
            configure_spmv_routes(fabric, m.fabric_w, m.fabric_h);
            for y in 0..m.fabric_h {
                for x in 0..m.fabric_w {
                    let tile = fabric.tile_mut(x, y);
                    let layout = SpmvLayout::alloc(tile, m.z as u32);
                    load_coefficients(tile, &layout, &tile_coefficients(&a16, x, y));
                    let (w, h) = (m.fabric_w, m.fabric_h);
                    let entry = build_spmv_tile(tile, x, y, w, h, layout, None);
                    let source = layout.v_live();
                    tiles.push(TileSpmv { entry, source, product: layout.u, stride: 0 });
                }
            }
            ("listing1", Layout::ZColumn(m), 64 * m.z as u64 + 10_000)
        }
        MappingPlan::Relay { w, h, z, rx, ry, rz, rounds } => {
            configure_relay_routes(fabric, w, h, rx, ry);
            let ncoefvecs =
                if crate::plan::relay_uses_registers(spec) { 0 } else { spec.taps.len() };
            for y in 0..h {
                for x in 0..w {
                    let tile = fabric.tile_mut(x, y);
                    let layout =
                        RelayLayout::alloc(tile, z as u32, ncoefvecs, (rx, ry, rz), p.dtype);
                    load_relay_coefficients(tile, &layout, spec, a, x, y);
                    let entry = build_relay_tile(tile, x, y, w, h, &layout, spec);
                    let source = layout.v_live();
                    tiles.push(TileSpmv { entry, source, product: layout.u, stride: 0 });
                }
            }
            let budget = (rounds as u64 + 4) * (64 * z as u64 + 10_000) + 100_000;
            ("relay", Layout::ZColumn(Mapping3D { fabric_w: w, fabric_h: h, z }), budget)
        }
    };
    crate::debug_lint(fabric);

    Ok(Lowered {
        name: spec.name.clone(),
        fingerprint: p.fingerprint,
        dtype: p.dtype,
        kind,
        layout,
        budget,
        tiles,
    })
}

/// Lowers an **all-constant** spec by materializing its matrix on `mesh`
/// first ([`StencilSpec::matrix`]). Per-cell-variable specs need a caller
/// matrix — use [`lower`].
pub fn lower_spec(
    fabric: &mut Fabric,
    spec: &StencilSpec,
    mesh: Mesh3D,
    block: Option<Block2D>,
) -> Result<Lowered, DslError> {
    let a = spec.matrix(mesh)?;
    lower(fabric, spec, &a, block)
}

impl std::fmt::Debug for Lowered {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lowered")
            .field("name", &self.name)
            .field("fingerprint", &self.fingerprint)
            .field("dtype", &self.dtype)
            .field("kind", &self.kind())
            .finish()
    }
}

impl Lowered {
    /// Which emitter produced the program: `"block"`, `"listing1"`, or
    /// `"relay"`.
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// Executes one operator application `u = A v` on the fabric. `v` is in
    /// global mesh order (exact dtype-representable values); returns the
    /// result (widened exactly to `f64`) and the cycle count.
    ///
    /// # Panics
    /// Panics if the fabric fails to quiesce or `v` has the wrong length.
    pub fn apply(&self, fabric: &mut Fabric, v: &[f64]) -> (Vec<f64>, u64) {
        let (w, _) = self.layout.dims();
        let (rows, len) = self.layout.rows();
        assert_eq!(v.len(), self.tiles.len() * rows * len, "iterate length mismatch");
        for (i, t) in self.tiles.iter().enumerate() {
            let (tx, ty) = (i % w, i / w);
            let local: Vec<f64> = (0..rows * len).map(|k| v[self.layout.row(tx, ty, k)]).collect();
            let tile = fabric.tile_mut(tx, ty);
            store_scalar_slice(tile, t.source, &local, self.dtype);
            tile.core.activate(t.entry);
        }
        let cycles = fabric
            .run_watched(self.budget, STALL_WINDOW)
            .unwrap_or_else(|e| panic!("dsl {} apply stalled: {e}", self.kind));
        let mut out = vec![0.0; v.len()];
        for (i, t) in self.tiles.iter().enumerate() {
            let (tx, ty) = (i % w, i / w);
            for r in 0..rows {
                let addr = t.product + r as u32 * t.stride;
                let row = load_scalar_slice(fabric.tile(tx, ty), addr, len, self.dtype);
                for (k, u) in (r * len..).zip(row) {
                    out[self.layout.row(tx, ty, k)] = u;
                }
            }
        }
        (out, cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::host::{block_reference_apply, relay_reference_apply};
    use crate::ir::Precision;

    /// Deterministic dtype-exact test iterate: a few mantissa bits, so fp16
    /// round-trips exactly and exact-arithmetic comparisons are meaningful.
    fn test_iterate(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 37 + 11) % 23) as f64 * 0.0625 - 0.625).collect()
    }

    /// Every layout's `row` over all tiles and all local points hits each
    /// mesh index exactly once.
    #[test]
    fn layout_rows_are_a_bijection() {
        let blocks = [((1, 1), (1, 1)), ((1, 1), (3, 2)), ((3, 2), (2, 5)), ((4, 3), (3, 1))];
        let blocks =
            blocks.map(|((w, h), (bx, by))| Layout::Block { block: Block2D::new(bx, by), w, h });
        let columns = [(1, 1, 1), (1, 1, 7), (3, 4, 5), (5, 2, 1)]
            .map(|(nx, ny, nz)| Layout::ZColumn(Mapping3D::new(Mesh3D::new(nx, ny, nz), nx, ny)));
        for layout in blocks.into_iter().chain(columns) {
            let (w, h) = layout.dims();
            let mut hits = vec![0; w * h * layout.local_len()];
            for (ty, tx) in (0..h).flat_map(|ty| (0..w).map(move |tx| (ty, tx))) {
                for k in 0..layout.local_len() {
                    hits[layout.row(tx, ty, k)] += 1;
                }
            }
            assert!(hits.iter().all(|&n| n == 1), "{layout:?}: {hits:?}");
        }
    }

    #[test]
    fn star9_2d_block_matches_reference_bitwise_f16() {
        let spec = catalog::get("star9-2d").unwrap();
        let mesh = Mesh3D::new(8, 8, 1);
        let a = spec.matrix(mesh).unwrap();
        let mut fabric = Fabric::new(2, 2);
        let lowered = lower_spec(&mut fabric, &spec, mesh, Some(Block2D::new(4, 4))).unwrap();
        assert_eq!(lowered.kind(), "block");
        let v = test_iterate(mesh.len());
        let (got, _cycles) = lowered.apply(&mut fabric, &v);
        let want =
            block_reference_apply(&a, &spec.offsets(), Block2D::new(4, 4), 2, 2, 2, Dtype::F16, &v);
        assert_eq!(got, want, "device and host mirror must agree bit-for-bit");
    }

    #[test]
    fn star9_2d_block_matches_reference_bitwise_f32() {
        let spec = catalog::get("star9-2d").unwrap().with_precision(Precision::F32);
        let mesh = Mesh3D::new(8, 8, 1);
        let a = spec.matrix(mesh).unwrap();
        let mut fabric = Fabric::new(2, 2);
        let lowered = lower_spec(&mut fabric, &spec, mesh, Some(Block2D::new(4, 4))).unwrap();
        let v: Vec<f64> = (0..mesh.len()).map(|i| ((i * 13 + 5) % 97) as f64 * 1e-2).collect();
        let (got, _cycles) = lowered.apply(&mut fabric, &v);
        let want =
            block_reference_apply(&a, &spec.offsets(), Block2D::new(4, 4), 2, 2, 2, Dtype::F32, &v);
        assert_eq!(got, want, "fp32 must agree bit-for-bit");
        // And the fp32 result tracks the f64 reference closely.
        let mut exact = vec![0.0; mesh.len()];
        a.matvec_f64(&v, &mut exact);
        for (g, e) in got.iter().zip(&exact) {
            assert!((g - e).abs() < 1e-5, "{g} vs {e}");
        }
    }

    #[test]
    fn star25_3d_relay_matches_reference_bitwise() {
        let spec = catalog::get("star25-3d").unwrap();
        let mesh = Mesh3D::new(5, 4, 12);
        let a = spec.matrix(mesh).unwrap();
        let mut fabric = Fabric::new(5, 4);
        let lowered = lower_spec(&mut fabric, &spec, mesh, None).unwrap();
        assert_eq!(lowered.kind(), "relay");
        let v = test_iterate(mesh.len());
        let (got, _cycles) = lowered.apply(&mut fabric, &v);
        let want = relay_reference_apply(&spec, &a, Dtype::F16, &v);
        assert_eq!(got, want, "device and host mirror must agree bit-for-bit");
        // Exact data ⇒ the fp16 result equals the f64 reference exactly.
        let mut exact = vec![0.0; mesh.len()];
        a.matvec_f64(&v, &mut exact);
        assert_eq!(got, exact);
    }

    #[test]
    fn star7_3d_selects_listing1_and_matches_exact_reference() {
        let spec = catalog::get("star7-3d").unwrap();
        let mesh = Mesh3D::new(3, 3, 8);
        let a = spec.matrix(mesh).unwrap();
        let mut fabric = Fabric::new(3, 3);
        let lowered = lower_spec(&mut fabric, &spec, mesh, None).unwrap();
        assert_eq!(lowered.kind(), "listing1", "unit-diagonal 7-point goes to Listing 1");
        let v = test_iterate(mesh.len());
        let (got, _cycles) = lowered.apply(&mut fabric, &v);
        let mut exact = vec![0.0; mesh.len()];
        a.matvec_f64(&v, &mut exact);
        assert_eq!(got, exact, "exact data ⇒ order-independent, bit-equal result");
    }

    #[test]
    fn five_point_runs_on_single_tile() {
        let spec = catalog::get("star5-2d").unwrap();
        let mesh = Mesh3D::new(4, 4, 1);
        let a = spec.matrix(mesh).unwrap();
        let mut fabric = Fabric::new(1, 1);
        let lowered = lower_spec(&mut fabric, &spec, mesh, Some(Block2D::new(4, 4))).unwrap();
        let v = test_iterate(mesh.len());
        let (got, _cycles) = lowered.apply(&mut fabric, &v);
        let want =
            block_reference_apply(&a, &spec.offsets(), Block2D::new(4, 4), 1, 1, 1, Dtype::F16, &v);
        assert_eq!(got, want);
    }

    /// `name`'s catalog matrix on `mesh` (unit diagonal, every coupling
    /// −1/8 for `star7-3d` and `box9-2d`) and an iterate of multiples of
    /// 1/8: fp16 arithmetic on them is exact, so the wafer must equal the
    /// f64 product bit for bit in any summation order.
    fn exact_system(name: &str, mesh: Mesh3D) -> (DiaMatrix<f64>, Vec<f64>) {
        let a = catalog::get(name).unwrap().matrix(mesh).unwrap();
        (a, (0..mesh.len()).map(|i| ((i % 16) as f64 - 8.0) * 0.125).collect())
    }

    fn product(a: &DiaMatrix<f64>, v: &[f64]) -> Vec<f64> {
        let mut u = vec![0.0; v.len()];
        a.matvec_f64(v, &mut u);
        u
    }

    /// `a` lowered through the all-variable 7-point spec, on Listing 1.
    fn listing1(fabric: &mut Fabric, a: &DiaMatrix<f64>) -> Lowered {
        let lowered = lower(fabric, &StencilSpec::var_seven_point_3d(), a, None).unwrap();
        assert_eq!(lowered.kind(), "listing1");
        lowered
    }

    #[test]
    fn wafer_spmv_matches_host_exactly_on_exact_data() {
        let (a, v) = exact_system("star7-3d", Mesh3D::new(3, 3, 8));
        let mut fabric = Fabric::new(3, 3);
        let (got, cycles) = listing1(&mut fabric, &a).apply(&mut fabric, &v);
        assert_eq!(got, product(&a, &v));
        assert!(cycles > 0);
    }

    #[test]
    fn wafer_spmv_close_to_f64_on_general_data() {
        use stencil::precond::jacobi_scale;
        use stencil::stencil7::convection_diffusion;
        let mesh = Mesh3D::new(4, 3, 12);
        let a64 = convection_diffusion(mesh, (1.0, -0.5, 0.25), 1.0);
        let sys = jacobi_scale(&a64, &vec![0.0; mesh.len()]);
        // The f64 reference runs on the fp16-rounded coefficients.
        let a = sys.matrix.convert::<F16>().convert::<f64>();
        let v: Vec<f64> = (0..mesh.len())
            .map(|i| F16::from_f64(((i * 37 % 97) as f64 / 97.0) - 0.5).to_f64())
            .collect();
        let mut fabric = Fabric::new(4, 3);
        let (got, _) = listing1(&mut fabric, &a).apply(&mut fabric, &v);
        for (i, (g, r)) in got.iter().zip(product(&a, &v)).enumerate() {
            // 7 terms, each O(1): a handful of fp16 ulps.
            assert!((g - r).abs() < 8.0 * 0.001, "element {i}: wafer {g} vs {r:.5}");
        }
    }

    #[test]
    fn repeated_spmv_reuses_program() {
        // Running the kernel twice must work (fabric DSRs re-armed by
        // InitDsr) and give identical results for identical input.
        let (a, v) = exact_system("star7-3d", Mesh3D::new(2, 2, 6));
        let mut fabric = Fabric::new(2, 2);
        let spmv = listing1(&mut fabric, &a);
        let (r1, _) = spmv.apply(&mut fabric, &v);
        let (r2, _) = spmv.apply(&mut fabric, &v);
        assert_eq!(r1, r2);
    }

    #[test]
    fn flop_count_matches_table1_for_interior_tiles() {
        // An interior tile executes 12 fp16 flops per meshpoint per SpMV:
        // zm mul (1) + zp fused (2) + 4 × (mul+add) (8) + diagonal add (1).
        let (a, v) = exact_system("star7-3d", Mesh3D::new(3, 3, 16));
        let mut fabric = Fabric::new(3, 3);
        listing1(&mut fabric, &a).apply(&mut fabric, &v);
        assert_eq!(fabric.tile(1, 1).core.perf.flops_f16, 12 * 16, "12 flops per z element");
    }

    #[test]
    fn single_tile_column_works() {
        // 1×1 fabric region: no neighbors at all; only z terms + loopback.
        let (a, v) = exact_system("star7-3d", Mesh3D::new(1, 1, 10));
        let mut fabric = Fabric::new(1, 1);
        let (got, _) = listing1(&mut fabric, &a).apply(&mut fabric, &v);
        assert_eq!(got, product(&a, &v));
    }

    #[test]
    fn cycles_scale_linearly_in_z() {
        let run_z = |z: usize| -> u64 {
            let (a, v) = exact_system("star7-3d", Mesh3D::new(3, 3, z));
            let mut fabric = Fabric::new(3, 3);
            listing1(&mut fabric, &a).apply(&mut fabric, &v).1
        };
        let c32 = run_z(32);
        let c128 = run_z(128);
        // Slope between 2 and 8 cycles per z element once overheads wash out.
        let slope = (c128 - c32) as f64 / 96.0;
        assert!((2.0..8.0).contains(&slope), "cycles/z slope {slope}");
    }

    /// The all-variable nine-point spec over `box9-2d`'s exact system on a
    /// `fabric_w × fabric_h` block mapping: the result and its cycles.
    fn block9(fabric_w: usize, fabric_h: usize, block: Block2D) -> (Vec<f64>, Vec<f64>, u64) {
        let (a, v) = exact_system("box9-2d", block.covered_mesh(fabric_w, fabric_h).as_3d());
        let mut fabric = Fabric::new(fabric_w, fabric_h);
        let spec = StencilSpec::var_nine_point_2d();
        let lowered = lower(&mut fabric, &spec, &a, Some(block)).unwrap();
        let (got, cycles) = lowered.apply(&mut fabric, &v);
        (got, product(&a, &v), cycles)
    }

    fn check9(fabric_w: usize, fabric_h: usize, block: Block2D) {
        let (got, want, _) = block9(fabric_w, fabric_h, block);
        assert_eq!(got, want, "{fabric_w}x{fabric_h} fabric, {block:?}");
    }

    #[test]
    fn matches_host_on_2x2_fabric_4x4_blocks() {
        check9(2, 2, Block2D::new(4, 4));
    }

    #[test]
    fn matches_host_on_3x3_fabric_rectangular_blocks() {
        check9(3, 3, Block2D::new(3, 5));
    }

    #[test]
    fn matches_host_on_single_row_of_tiles() {
        check9(4, 1, Block2D::new(3, 3));
    }

    #[test]
    fn matches_host_on_single_tile() {
        check9(1, 1, Block2D::new(6, 6));
    }

    #[test]
    fn corner_contributions_cross_diagonally() {
        // A lone 1.0 at a block corner: its NE diagonal contribution must
        // reach the diagonal neighbor via the two-round exchange.
        let block = Block2D::new(4, 4);
        let mesh = block.covered_mesh(2, 2).as_3d();
        let (a, _) = exact_system("box9-2d", mesh);
        let mut v = vec![0.0; mesh.len()];
        // Last cell of tile (0,0)'s block: global (3, 3).
        v[mesh.idx(3, 3, 0)] = 1.0;
        let mut fabric = Fabric::new(2, 2);
        let spec = StencilSpec::var_nine_point_2d();
        let lowered = lower(&mut fabric, &spec, &a, Some(block)).unwrap();
        let (got, _) = lowered.apply(&mut fabric, &v);
        // Diagonal neighbor (4,4) lives on tile (1,1).
        assert_eq!(got[mesh.idx(4, 4, 0)], -0.125, "diagonal coupling must arrive");
    }

    #[test]
    fn cycles_grow_with_block_area() {
        let c4 = block9(2, 2, Block2D::new(4, 4)).2;
        let c8 = block9(2, 2, Block2D::new(8, 8)).2;
        assert!(c8 > c4, "bigger blocks take longer: {c4} vs {c8}");
    }

    #[test]
    fn errors_precede_fabric_mutation() {
        // A spec too wide for the block mapping fails in plan(); the fabric
        // is reusable for a subsequent legal lowering.
        let wide = StencilSpec::new(
            "wide",
            vec![crate::ir::Tap::constant(0, 0, 0, 1.0), crate::ir::Tap::constant(3, 0, 0, 0.5)],
            Precision::F16,
            crate::ir::Boundary::Dirichlet0,
        );
        let mesh = Mesh3D::new(8, 8, 1);
        let mut fabric = Fabric::new(2, 2);
        let err = lower_spec(&mut fabric, &wide, mesh, Some(Block2D::new(4, 4))).unwrap_err();
        assert!(matches!(err, DslError::RadiusOverflow { .. }));
        let spec = catalog::get("box9-2d").unwrap();
        lower_spec(&mut fabric, &spec, mesh, Some(Block2D::new(4, 4))).unwrap();
    }
}
