//! Cache keys for compiled wafer programs.
//!
//! A compiled program is fully determined by the problem geometry and the
//! kernel configuration — the builders are deterministic functions of
//! these (the program-build determinism test in `tests/` proves it), which
//! is the correctness precondition for caching compiled images by value.

use std::fmt;
use stencil::dia::DiaMatrix;
use stencil::mesh::Mesh2D;

/// Which 9-point operator a job solves.
///
/// Real-valued parameters are stored as IEEE-754 bit patterns so the key
/// stays `Eq + Hash` without tolerating any numeric fuzz: two jobs share a
/// compiled program only if their operators are bit-identical.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum StencilKind {
    /// The 9-point Laplacian.
    Laplace9,
    /// 9-point convection–diffusion with the given velocity field
    /// (`f64::to_bits` of each component).
    ConvectionDiffusion9 {
        /// Bit pattern of the x velocity.
        vx_bits: u64,
        /// Bit pattern of the y velocity.
        vy_bits: u64,
    },
    /// A declarative operator from the `wse-dsl` catalog.
    ///
    /// The name alone is not a sound cache key — a catalog revision could
    /// silently alias a stale compiled program — so the key also pins the
    /// spec's [`wse_dsl::StencilSpec::fingerprint`], which covers every
    /// tap, coefficient bit pattern, precision, and boundary condition.
    Dsl {
        /// Catalog name (see [`wse_dsl::catalog::NAMES`]), e.g. `box9-2d`.
        name: &'static str,
        /// Fingerprint of the named spec at key-construction time.
        fingerprint: u64,
    },
}

impl StencilKind {
    /// Convection–diffusion with velocity `(vx, vy)`.
    pub fn convection(vx: f64, vy: f64) -> StencilKind {
        StencilKind::ConvectionDiffusion9 { vx_bits: vx.to_bits(), vy_bits: vy.to_bits() }
    }

    /// A catalog-defined DSL operator as a cacheable tenant stencil.
    ///
    /// The 2D solver consumes 9-point radius-1 operators, so the named
    /// spec must cover exactly the 2D box neighborhood: nine constant taps
    /// with `|dx| ≤ 1`, `|dy| ≤ 1`, `dz = 0` (`box9-2d` qualifies;
    /// `star5-2d` and the wider stars do not).
    ///
    /// # Panics
    /// Panics if the name is not in the catalog or the spec is not a
    /// 9-point 2D box operator.
    pub fn dsl(name: &'static str) -> StencilKind {
        let spec = wse_dsl::catalog::get(name).unwrap_or_else(|| {
            panic!(
                "unknown catalog operator `{name}`; available: {}",
                wse_dsl::catalog::NAMES.join(", ")
            )
        });
        let offsets = spec.offsets();
        let is_box9 = offsets.len() == 9
            && offsets.iter().all(|o| o.dx.abs() <= 1 && o.dy.abs() <= 1 && o.dz == 0);
        assert!(
            is_box9,
            "catalog operator `{name}` is not a 9-point 2D box stencil \
             (the 2D solver's operator shape)"
        );
        StencilKind::Dsl { name, fingerprint: spec.fingerprint() }
    }

    /// Assembles the operator on `mesh` (unscaled, f64).
    pub fn matrix(&self, mesh: Mesh2D) -> DiaMatrix<f64> {
        match *self {
            StencilKind::Laplace9 => stencil::stencil9::laplace9(mesh),
            StencilKind::ConvectionDiffusion9 { vx_bits, vy_bits } => {
                stencil::stencil9::convection_diffusion9(
                    mesh,
                    (f64::from_bits(vx_bits), f64::from_bits(vy_bits)),
                )
            }
            StencilKind::Dsl { name, fingerprint } => {
                let spec = wse_dsl::catalog::get(name)
                    .unwrap_or_else(|| panic!("catalog operator `{name}` vanished"));
                assert_eq!(
                    spec.fingerprint(),
                    fingerprint,
                    "catalog operator `{name}` changed since this key was built"
                );
                spec.matrix(mesh.as_3d()).expect("catalog operator must assemble")
            }
        }
    }
}

impl fmt::Display for StencilKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            StencilKind::Laplace9 => write!(f, "laplace9"),
            StencilKind::ConvectionDiffusion9 { vx_bits, vy_bits } => {
                write!(f, "convdiff9({},{})", f64::from_bits(vx_bits), f64::from_bits(vy_bits))
            }
            StencilKind::Dsl { name, fingerprint } => {
                write!(f, "dsl:{name}@{fingerprint:016x}")
            }
        }
    }
}

/// The compiled-program cache key: everything the builders read. The
/// service compiles one solver, the §IV.2 2D BiCGStab with fp16 vectors,
/// which [`fmt::Display`] names as the key's last two fields.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct ProgramKey {
    /// Global mesh extents `(nx, ny)`.
    pub mesh: (usize, usize),
    /// Per-core block extents `(bx, by)`; must divide the mesh evenly.
    pub block: (usize, usize),
    /// The operator.
    pub stencil: StencilKind,
}

impl ProgramKey {
    /// A 2D BiCGStab key. `mesh` must tile evenly by `block` into a region
    /// of at least 2×2 tiles (the solver's minimum).
    ///
    /// # Panics
    /// Panics if the geometry is inconsistent.
    pub fn bicgstab2d(mesh: (usize, usize), block: (usize, usize), stencil: StencilKind) -> Self {
        let key = ProgramKey { mesh, block, stencil };
        let (w, h) = key.region_tiles();
        assert!(w >= 2 && h >= 2, "2D solver needs at least 2x2 tiles, got {w}x{h}");
        key
    }

    /// Tile extents `(w, h)` of the region this program occupies.
    ///
    /// # Panics
    /// Panics if the mesh does not tile evenly by the block.
    pub fn region_tiles(&self) -> (usize, usize) {
        let (nx, ny) = self.mesh;
        let (bx, by) = self.block;
        assert!(bx > 0 && by > 0 && nx % bx == 0 && ny % by == 0, "mesh must tile evenly");
        (nx / bx, ny / by)
    }

    /// Number of mesh points.
    pub fn points(&self) -> usize {
        self.mesh.0 * self.mesh.1
    }

    /// Conservative per-tile SRAM footprint estimate in bytes, used by
    /// admission control *before* compiling: 9 coefficient arrays, the two
    /// SpMV inputs `p`/`q`, the vectors `r`/`r0`/`x`, and two extended
    /// `(bx+2)(by+2)` output buffers, all fp16. The builder's bump
    /// allocator enforces the real budget; this estimate only lets the
    /// service refuse obviously-oversized jobs without building them. An
    /// estimate past `u32::MAX` saturates rather than wrapping.
    pub fn sram_estimate(&self) -> u32 {
        let (bx, by) = self.block;
        let bytes = || {
            let block_arrays = bx.checked_mul(by)?.checked_mul(14)?;
            let ubufs = (bx.checked_add(2)?).checked_mul(by.checked_add(2)?)?.checked_mul(2)?;
            u32::try_from(block_arrays.checked_add(ubufs)?.checked_mul(2)?).ok()
        };
        bytes().unwrap_or(u32::MAX)
    }
}

impl fmt::Display for ProgramKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ((nx, ny), (bx, by)) = (self.mesh, self.block);
        write!(f, "{nx}x{ny}/{bx}x{by}/{}/bicgstab2d/f16", self.stencil)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_hash_and_compare_by_value() {
        use std::collections::HashSet;
        let a = ProgramKey::bicgstab2d((8, 8), (4, 4), StencilKind::convection(1.5, -0.5));
        let b = ProgramKey::bicgstab2d((8, 8), (4, 4), StencilKind::convection(1.5, -0.5));
        let c = ProgramKey::bicgstab2d((8, 8), (4, 4), StencilKind::convection(1.5, -0.25));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let set: HashSet<_> = [a, b, c].into_iter().collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn region_and_estimate_arithmetic() {
        let k = ProgramKey::bicgstab2d((12, 8), (4, 4), StencilKind::Laplace9);
        assert_eq!(k.region_tiles(), (3, 2));
        assert_eq!(k.points(), 96);
        // 14 arrays of 16 + 2 buffers of 36, fp16.
        assert_eq!(k.sram_estimate(), 2 * (14 * 16 + 2 * 36));
        assert_eq!(k.to_string(), "12x8/4x4/laplace9/bicgstab2d/f16");
        // ≈ 4.3 GB per tile: saturates instead of wrapping to a few KB.
        let k = ProgramKey::bicgstab2d((23170, 23170), (11585, 11585), StencilKind::Laplace9);
        assert_eq!(k.sram_estimate(), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "at least 2x2")]
    fn rejects_degenerate_regions() {
        let _ = ProgramKey::bicgstab2d((8, 4), (4, 4), StencilKind::Laplace9);
    }

    #[test]
    fn dsl_keys_are_stable_values() {
        let a = StencilKind::dsl("box9-2d");
        let b = StencilKind::dsl("box9-2d");
        assert_eq!(a, b);
        assert_ne!(a, StencilKind::Laplace9);
        let k = ProgramKey::bicgstab2d((8, 8), (4, 4), a);
        let fp = wse_dsl::catalog::get("box9-2d").unwrap().fingerprint();
        assert_eq!(k.to_string(), format!("8x8/4x4/dsl:box9-2d@{fp:016x}/bicgstab2d/f16"));
        // The DSL operator assembles over the same mesh shape the built-in
        // stencils do: 9 bands on an nz = 1 mesh.
        let m = a.matrix(Mesh2D::new(8, 8));
        assert_eq!(m.offsets().len(), 9);
        assert_eq!(m.mesh().nz, 1);
    }

    #[test]
    #[should_panic(expected = "not a 9-point 2D box stencil")]
    fn rejects_non_box9_dsl_operators() {
        let _ = StencilKind::dsl("star5-2d");
    }

    #[test]
    #[should_panic(expected = "unknown catalog operator")]
    fn rejects_unknown_dsl_operators() {
        let _ = StencilKind::dsl("no-such-operator");
    }
}
