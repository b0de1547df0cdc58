//! Validation and resource planning: spec + mesh + geometry → a concrete
//! mapping choice, with every illegal input rejected as a structured
//! [`DslError`] **before any fabric is touched**.
//!
//! [`plan`] selects one of two mappings:
//!
//! * **Block** — the 2D block mapping of the 9-point section: each tile owns
//!   a `bx × by` block, computes into an output buffer with a radius-`r`
//!   ghost ring, and exchanges output halos (x wings first, then y rows).
//!   Radius ≤ [`BLOCK_MAX_RADIUS`]: ring colors beyond 2 would collide with
//!   the multi-wafer seam channels, and the x/y exchange rounds would need
//!   more background-thread slots than a core has.
//! * **Relay** — store-and-forward rounds for wide 3D stars (Jacquelin et
//!   al.'s 25-point star): round `d` forwards the columns received in round
//!   `d − 1`, so four colors serve any radius ≤ [`ROUTABLE_RADIUS`].
//!
//! A third dataflow, the paper's Listing-1 Z-column 7-point kernel (one
//! mesh column per tile, neighbor columns streamed through hardware FIFOs),
//! is not a plan outcome: only the unit-diagonal 7-point fp16 shape is
//! eligible, and the unit diagonal is a property of the matrix, so
//! [`crate::lower()`] substitutes it for a `Relay` plan when
//! [`listing1_eligible`] holds and the matrix qualifies. The plan's SRAM
//! bound covers both.

use stencil::decomp::Block2D;
use stencil::mesh::Mesh3D;
use wse_arch::memory::TILE_SRAM_BYTES;
use wse_arch::types::{Dtype, Reg};

use crate::ir::{Boundary, CoefKind, DslError, Precision, StencilSpec};

/// Maximum halo radius of the 2D block mapping (see module docs).
pub const BLOCK_MAX_RADIUS: usize = 2;

/// Maximum per-axis fabric radius of the relay mapping: round `d` relays
/// what round `d − 1` delivered, so the limit is background-thread slots
/// and buffer SRAM, not colors. Four covers the 25-point star.
pub const ROUTABLE_RADIUS: usize = 4;

/// First core register the relay compute task may bind a constant
/// coefficient to (lower registers are reserved for solver scalars).
pub const CONST_REG_BASE: Reg = 8;

/// Number of registers available for constant coefficients.
pub const CONST_REG_SPAN: usize = 16;

/// Where and how a spec runs on the fabric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MappingPlan {
    /// 2D block mapping on a `w × h` tile region.
    Block {
        /// Tiles along x.
        w: usize,
        /// Tiles along y.
        h: usize,
        /// Per-tile block extents.
        block: Block2D,
        /// Halo radius.
        r: usize,
    },
    /// Store-and-forward relay rounds for wide 3D stars.
    Relay {
        /// Tiles along x.
        w: usize,
        /// Tiles along y.
        h: usize,
        /// Z points per tile.
        z: usize,
        /// Fabric radius along x.
        rx: usize,
        /// Fabric radius along y.
        ry: usize,
        /// In-core radius along z.
        rz: usize,
        /// Relay rounds (`max(rx, ry)`).
        rounds: usize,
    },
}

/// The validated lowering plan for one spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Plan {
    /// The selected mapping.
    pub mapping: MappingPlan,
    /// Element type of the datapath.
    pub dtype: Dtype,
    /// Worst-tile SRAM bytes the lowered program will allocate.
    pub sram_need: u32,
    /// The spec fingerprint (cache key material).
    pub fingerprint: u64,
}

/// The fabric region a spec is lowered onto.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Geometry {
    /// Tiles available along x.
    pub fabric_w: usize,
    /// Tiles available along y.
    pub fabric_h: usize,
    /// Per-tile block extents — required by (and only meaningful for) the
    /// 2D block mapping.
    pub block: Option<Block2D>,
}

/// Bump-allocator footprint of `count` vectors of `len` elements each
/// (2-byte aligned), summed over `vectors`. Sized in `u64` and saturated to
/// `u32`, so no mesh is large enough to wrap it back under the budget.
fn footprint(dtype: Dtype, vectors: &[(usize, usize)]) -> u32 {
    let total = vectors.iter().fold(0u64, |sum, &(count, len)| {
        let bytes = (len as u64).saturating_mul(u64::from(dtype.bytes())).saturating_add(1) & !1;
        sum.saturating_add((count as u64).saturating_mul(bytes))
    });
    u32::try_from(total).unwrap_or(u32::MAX)
}

fn element_size(p: Precision) -> Dtype {
    p.dtype()
}

/// Worst-tile SRAM for the 2D block mapping: `ntaps` coefficient arrays and
/// the iterate (`bx·by` each) plus the extended output buffer.
fn block_sram(ntaps: usize, block: Block2D, r: usize, dtype: Dtype) -> u32 {
    let n = block.bx.saturating_mul(block.by);
    let ext = block.bx.saturating_add(2 * r).saturating_mul(block.by.saturating_add(2 * r));
    footprint(dtype, &[(ntaps, n), (1, n), (1, ext)])
}

/// Worst-tile SRAM for the Listing-1 dataflow: six off-diagonal coefficient
/// columns, the padded iterate, the result, and up to four neighbor FIFOs.
fn listing1_sram(z: usize, dtype: Dtype) -> u32 {
    let fifo = crate::zcolumn::FIFO_DEPTH as usize;
    footprint(dtype, &[(6, z), (1, z.saturating_add(2)), (1, z), (4, fifo)])
}

/// Worst-tile SRAM for the relay mapping: optional per-tap coefficient
/// columns, the z-padded iterate, the result, and one column buffer per
/// (direction, distance) pair.
fn relay_sram(spec: &StencilSpec, z: usize, rx: usize, ry: usize, rz: usize, dtype: Dtype) -> u32 {
    let coef = if relay_uses_registers(spec) { 0 } else { spec.taps.len() };
    footprint(dtype, &[(coef, z), (1, z.saturating_add(2 * rz)), (1, z), (2 * (rx + ry), z)])
}

/// `true` when the relay compute task can bind coefficients to registers:
/// every tap constant and the boundary plain Dirichlet-zero (a mirror
/// boundary folds ghost weights per-cell, which needs coefficient vectors).
pub(crate) fn relay_uses_registers(spec: &StencilSpec) -> bool {
    spec.all_const() && spec.boundary == Boundary::Dirichlet0
}

/// Distinct constant coefficients, compared by their f32 register image.
pub(crate) fn distinct_consts(spec: &StencilSpec) -> Vec<f32> {
    let mut seen: Vec<f32> = Vec::new();
    for t in &spec.taps {
        if let CoefKind::Const(c) = t.coef {
            let c32 = c as f32;
            if !seen.iter().any(|s| s.to_bits() == c32.to_bits()) {
                seen.push(c32);
            }
        }
    }
    seen
}

/// `true` when the spec's offset set is exactly the 7-point star — the
/// shape eligible for the Listing-1 dataflow (the final choice also checks
/// the matrix's unit diagonal in [`crate::lower()`]).
pub fn listing1_eligible(spec: &StencilSpec) -> bool {
    use stencil::dia::Offset3;
    if spec.precision != Precision::F16 || spec.boundary != Boundary::Dirichlet0 {
        return false;
    }
    let seven = Offset3::seven_point();
    spec.taps.len() == seven.len() && seven.iter().all(|o| spec.taps.iter().any(|t| t.off == *o))
}

/// Validates `spec` against `mesh` and `geometry` and selects a mapping.
///
/// Errors are structured and complete: the first failed check is returned,
/// and no fabric, memory, or task state exists yet at that point.
pub fn plan(spec: &StencilSpec, mesh: Mesh3D, geometry: Geometry) -> Result<Plan, DslError> {
    spec.validate()?;
    let dtype = element_size(spec.precision);
    let (rx, ry, rz) = spec.radius();
    let fingerprint = spec.fingerprint();

    if mesh.nz == 1 {
        // 2D problem → block mapping.
        if !spec.is_2d() {
            return Err(DslError::MeshMismatch(
                "spec has z taps but the mesh is a single plane".into(),
            ));
        }
        let block = geometry.block.ok_or_else(|| {
            DslError::MeshMismatch("2D block mapping requires a block size".into())
        })?;
        let r = rx.max(ry);
        if r > BLOCK_MAX_RADIUS {
            let off = spec
                .taps
                .iter()
                .map(|t| t.off)
                .find(|o| {
                    o.dx.unsigned_abs() as usize > BLOCK_MAX_RADIUS
                        || o.dy.unsigned_abs() as usize > BLOCK_MAX_RADIUS
                })
                .expect("some tap exceeds the radius");
            return Err(DslError::RadiusOverflow { off, max: BLOCK_MAX_RADIUS });
        }
        if !mesh.nx.is_multiple_of(block.bx) || !mesh.ny.is_multiple_of(block.by) {
            return Err(DslError::MeshMismatch(format!(
                "mesh {}x{} does not tile evenly into {}x{} blocks",
                mesh.nx, mesh.ny, block.bx, block.by
            )));
        }
        let (w, h) = (mesh.nx / block.bx, mesh.ny / block.by);
        if w > geometry.fabric_w || h > geometry.fabric_h {
            return Err(DslError::FabricTooSmall {
                need: (w, h),
                have: (geometry.fabric_w, geometry.fabric_h),
            });
        }
        if (w > 1 && block.bx < 2 * r) || (h > 1 && block.by < 2 * r) {
            return Err(DslError::BlockTooSmall { need: 2 * r, got: (block.bx, block.by) });
        }
        let sram_need = block_sram(spec.taps.len(), block, r, dtype);
        if sram_need > TILE_SRAM_BYTES {
            return Err(DslError::SramOverflow { need: sram_need, budget: TILE_SRAM_BYTES });
        }
        return Ok(Plan {
            mapping: MappingPlan::Block { w, h, block, r },
            dtype,
            sram_need,
            fingerprint,
        });
    }

    // 3D problem → Z-column mappings (Listing 1 or relay).
    if let Some(t) = spec
        .taps
        .iter()
        .find(|t| [t.off.dx, t.off.dy, t.off.dz].iter().filter(|&&c| c != 0).count() > 1)
    {
        return Err(DslError::NotAStar(t.off));
    }
    if rx > ROUTABLE_RADIUS || ry > ROUTABLE_RADIUS {
        let off = spec
            .taps
            .iter()
            .map(|t| t.off)
            .find(|o| {
                o.dx.unsigned_abs() as usize > ROUTABLE_RADIUS
                    || o.dy.unsigned_abs() as usize > ROUTABLE_RADIUS
            })
            .expect("some tap exceeds the radius");
        return Err(DslError::RadiusOverflow { off, max: ROUTABLE_RADIUS });
    }
    let (w, h, z) = (mesh.nx, mesh.ny, mesh.nz);
    if w > geometry.fabric_w || h > geometry.fabric_h {
        return Err(DslError::FabricTooSmall {
            need: (w, h),
            have: (geometry.fabric_w, geometry.fabric_h),
        });
    }
    if rz as i64 >= z as i64 && z > 1 {
        // A z tap reaching past a whole column would read the far pad as
        // zero mid-mesh; keep the contract simple and reject it.
        return Err(DslError::MeshMismatch(format!(
            "z radius {rz} must be smaller than the {z}-point column"
        )));
    }
    if relay_uses_registers(spec) {
        let distinct = distinct_consts(spec).len();
        if distinct > CONST_REG_SPAN {
            return Err(DslError::TooManyConstants { distinct, max: CONST_REG_SPAN });
        }
    }
    let relay_need = relay_sram(spec, z, rx, ry, rz, dtype);
    let sram_need =
        if listing1_eligible(spec) { relay_need.max(listing1_sram(z, dtype)) } else { relay_need };
    if sram_need > TILE_SRAM_BYTES {
        return Err(DslError::SramOverflow { need: sram_need, budget: TILE_SRAM_BYTES });
    }
    let rounds = rx.max(ry);
    Ok(Plan {
        mapping: MappingPlan::Relay { w, h, z, rx, ry, rz, rounds },
        dtype,
        sram_need,
        fingerprint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn geo(w: usize, h: usize, block: Option<Block2D>) -> Geometry {
        Geometry { fabric_w: w, fabric_h: h, block }
    }

    #[test]
    fn nine_point_plans_onto_blocks() {
        let spec = StencilSpec::var_nine_point_2d();
        let p = plan(&spec, Mesh3D::new(8, 8, 1), geo(2, 2, Some(Block2D::new(4, 4)))).unwrap();
        assert_eq!(p.mapping, MappingPlan::Block { w: 2, h: 2, block: Block2D::new(4, 4), r: 1 });
    }

    #[test]
    fn star25_plans_onto_relay() {
        let spec = catalog::get("star25-3d").unwrap();
        let p = plan(&spec, Mesh3D::new(6, 5, 24), geo(8, 8, None)).unwrap();
        match p.mapping {
            MappingPlan::Relay { w: 6, h: 5, z: 24, rx: 4, ry: 4, rz: 4, rounds: 4 } => {}
            other => panic!("unexpected mapping {other:?}"),
        }
    }

    #[test]
    fn radius_overflow_is_structured() {
        let spec = StencilSpec::new(
            "wide",
            vec![crate::ir::Tap::constant(0, 0, 0, 1.0), crate::ir::Tap::constant(5, 0, 0, 1.0)],
            Precision::F16,
            Boundary::Dirichlet0,
        );
        let err = plan(&spec, Mesh3D::new(8, 8, 8), geo(16, 16, None)).unwrap_err();
        assert!(matches!(err, DslError::RadiusOverflow { max: ROUTABLE_RADIUS, .. }), "{err}");
    }

    #[test]
    fn sram_overflow_is_structured() {
        let spec = catalog::get("star7-3d").unwrap();
        let err = plan(&spec, Mesh3D::new(4, 4, 4096), geo(8, 8, None)).unwrap_err();
        match err {
            DslError::SramOverflow { need, budget } => {
                assert!(need > budget);
                assert_eq!(budget, TILE_SRAM_BYTES);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn sram_estimates_do_not_wrap() {
        // Columns whose byte counts pass u32::MAX must not wrap back under
        // the budget. Only the plan is sized; nothing is allocated.
        let spec = catalog::get("star7-3d").unwrap();
        for z in [1usize << 31, (1 << 32) + 64, usize::MAX / 2] {
            let err = plan(&spec, Mesh3D::new(4, 4, z), geo(8, 8, None)).unwrap_err();
            assert_eq!(err, DslError::SramOverflow { need: u32::MAX, budget: TILE_SRAM_BYTES });
        }
        let spec = catalog::get("star9-2d").unwrap();
        let huge = usize::MAX / 4;
        let err =
            plan(&spec, Mesh3D::new(huge, huge, 1), geo(1, 1, Some(Block2D::new(huge, huge))))
                .unwrap_err();
        assert_eq!(err, DslError::SramOverflow { need: u32::MAX, budget: TILE_SRAM_BYTES });
    }

    #[test]
    fn fabric_too_small_is_structured() {
        let spec = catalog::get("star7-3d").unwrap();
        let err = plan(&spec, Mesh3D::new(9, 9, 8), geo(8, 8, None)).unwrap_err();
        assert_eq!(err, DslError::FabricTooSmall { need: (9, 9), have: (8, 8) });
    }

    #[test]
    fn diagonal_3d_tap_is_not_a_star() {
        let spec = StencilSpec::new(
            "diag",
            vec![crate::ir::Tap::constant(0, 0, 0, 1.0), crate::ir::Tap::constant(1, 1, 1, 0.5)],
            Precision::F16,
            Boundary::Dirichlet0,
        );
        let err = plan(&spec, Mesh3D::new(4, 4, 4), geo(8, 8, None)).unwrap_err();
        assert!(matches!(err, DslError::NotAStar(_)));
    }

    #[test]
    fn block_too_small_for_radius_two() {
        let spec = catalog::get("star9-2d").unwrap();
        let err =
            plan(&spec, Mesh3D::new(6, 6, 1), geo(2, 2, Some(Block2D::new(3, 3)))).unwrap_err();
        assert_eq!(err, DslError::BlockTooSmall { need: 4, got: (3, 3) });
        // A single tile needs no halo at all, so tiny blocks are fine there.
        plan(&spec, Mesh3D::new(3, 3, 1), geo(1, 1, Some(Block2D::new(3, 3)))).unwrap();
    }

    #[test]
    fn listing1_shape_detection() {
        assert!(listing1_eligible(&catalog::get("star7-3d").unwrap()));
        assert!(listing1_eligible(&StencilSpec::var_seven_point_3d()));
        assert!(!listing1_eligible(&catalog::get("star25-3d").unwrap()));
    }
}
