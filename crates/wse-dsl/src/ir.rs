//! The declarative stencil IR.
//!
//! A stencil is **data**: a named list of [`Tap`]s (relative mesh offsets,
//! each with a constant or per-cell-variable coefficient), a datapath
//! [`Precision`], and a [`Boundary`] condition. The lowering layer
//! ([`crate::lower()`]) turns a spec into a wafer program; [`crate::plan()`]
//! validates it and rejects illegal specs with a structured [`DslError`]
//! before any fabric is touched.

use stencil::dia::{DiaMatrix, Offset3};
use stencil::mesh::Mesh3D;
use stencil::scalar::Scalar;
use wse_arch::types::Dtype;

/// Datapath precision of a lowered stencil apply.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 16-bit floats everywhere (the paper's default).
    F16,
    /// 32-bit floats everywhere.
    F32,
}

impl Precision {
    /// The wafer element type this precision lowers to.
    pub fn dtype(self) -> Dtype {
        match self {
            Precision::F16 => Dtype::F16,
            Precision::F32 => Dtype::F32,
        }
    }
}

/// Boundary condition a spec's materialized operator applies at mesh edges.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Boundary {
    /// Off-mesh neighbors read as zero (homogeneous Dirichlet).
    Dirichlet0,
    /// Off-mesh neighbors mirror the interior (homogeneous Neumann,
    /// cell-centered): the ghost cell at index −1 reads cell 0, etc.
    NeumannMirror,
}

/// How a tap's coefficient is supplied.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum CoefKind {
    /// One value for every mesh cell. Lowering may keep it in a core
    /// register instead of an SRAM vector.
    Const(f64),
    /// Per-cell values, supplied by a [`DiaMatrix`] at lowering time.
    Var,
}

/// One stencil tap: a relative offset and its coefficient.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Tap {
    /// Relative mesh offset of the source cell.
    pub off: Offset3,
    /// Coefficient kind.
    pub coef: CoefKind,
}

impl Tap {
    /// A constant-coefficient tap.
    pub fn constant(dx: i32, dy: i32, dz: i32, c: f64) -> Tap {
        Tap { off: Offset3::new(dx, dy, dz), coef: CoefKind::Const(c) }
    }

    /// A per-cell-variable tap.
    pub fn var(dx: i32, dy: i32, dz: i32) -> Tap {
        Tap { off: Offset3::new(dx, dy, dz), coef: CoefKind::Var }
    }
}

/// A declarative stencil: the DSL's unit of input.
#[derive(Clone, Debug, PartialEq)]
pub struct StencilSpec {
    /// Operator name (keys program caches; part of the fingerprint).
    pub name: String,
    /// The taps, in the order the lowered program accumulates them.
    pub taps: Vec<Tap>,
    /// Datapath precision.
    pub precision: Precision,
    /// Boundary condition.
    pub boundary: Boundary,
}

/// Structured rejection produced by validation/planning **before any
/// fabric is touched**.
#[derive(Clone, Debug, PartialEq)]
pub enum DslError {
    /// The spec has no taps.
    Empty,
    /// Two taps share one offset.
    DuplicateTap(Offset3),
    /// A constant coefficient is NaN or infinite.
    NonFinite(Offset3),
    /// A 3D tap is not axis-aligned (the Z-column mappings relay whole
    /// columns along one axis at a time; diagonal 3D taps are not
    /// routable).
    NotAStar(Offset3),
    /// A tap reaches beyond the mapping's routable radius.
    RadiusOverflow {
        /// The offending tap offset.
        off: Offset3,
        /// The mapping's maximum radius on the offending axis.
        max: usize,
    },
    /// The 2D block is too small for the halo radius (`bx, by ≥ 2r`
    /// whenever a neighbor exists in that direction).
    BlockTooSmall {
        /// Required minimum block extent.
        need: usize,
        /// Actual `(bx, by)`.
        got: (usize, usize),
    },
    /// Spec, mesh, and geometry disagree (dimensionality, tiling, or
    /// missing block size).
    MeshMismatch(String),
    /// The mesh needs more tiles than the fabric region provides.
    FabricTooSmall {
        /// Tiles required `(w, h)`.
        need: (usize, usize),
        /// Tiles available `(w, h)`.
        have: (usize, usize),
    },
    /// The per-tile working set exceeds the 48 KB SRAM budget.
    SramOverflow {
        /// Bytes the worst tile needs.
        need: u32,
        /// The per-tile budget.
        budget: u32,
    },
    /// More distinct constant coefficients than free core registers.
    TooManyConstants {
        /// Distinct constants found.
        distinct: usize,
        /// Registers available.
        max: usize,
    },
    /// The spec has variable taps but no matrix was supplied.
    VarNeedsMatrix,
    /// Mirror boundary folds a ghost contribution onto an offset the spec
    /// does not carry.
    MirrorNeedsBand(Offset3),
    /// The caller's matrix has a nonzero band at an offset that is not one
    /// of the spec's taps; the lowered program would silently drop it.
    BandOutsideSpec(Offset3),
}

impl std::fmt::Display for DslError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let off = |o: &Offset3| format!("({}, {}, {})", o.dx, o.dy, o.dz);
        match self {
            DslError::Empty => write!(f, "stencil has no taps"),
            DslError::DuplicateTap(o) => write!(f, "duplicate tap at offset {}", off(o)),
            DslError::NonFinite(o) => {
                write!(f, "non-finite constant coefficient at offset {}", off(o))
            }
            DslError::NotAStar(o) => write!(
                f,
                "3D tap {} is not axis-aligned; Z-column mappings route star stencils only",
                off(o)
            ),
            DslError::RadiusOverflow { off: o, max } => write!(
                f,
                "tap {} reaches beyond the routable radius {max} of the selected mapping",
                off(o)
            ),
            DslError::BlockTooSmall { need, got } => write!(
                f,
                "block {}x{} too small for the halo radius: need extents >= {need} toward \
                 every neighbor",
                got.0, got.1
            ),
            DslError::MeshMismatch(s) => write!(f, "spec/mesh mismatch: {s}"),
            DslError::FabricTooSmall { need, have } => write!(
                f,
                "mesh needs a {}x{} tile region but the fabric provides {}x{}",
                need.0, need.1, have.0, have.1
            ),
            DslError::SramOverflow { need, budget } => {
                write!(f, "per-tile working set of {need} B exceeds the {budget} B SRAM budget")
            }
            DslError::TooManyConstants { distinct, max } => write!(
                f,
                "{distinct} distinct constant coefficients exceed the {max} free registers"
            ),
            DslError::VarNeedsMatrix => {
                write!(f, "spec has per-cell-variable taps; lowering requires a matrix")
            }
            DslError::MirrorNeedsBand(o) => write!(
                f,
                "mirror boundary folds a ghost contribution onto offset {}, which the spec \
                 does not carry",
                off(o)
            ),
            DslError::BandOutsideSpec(o) => write!(
                f,
                "matrix has a nonzero band at offset {}, which is not one of the spec's taps",
                off(o)
            ),
        }
    }
}

impl std::error::Error for DslError {}

impl StencilSpec {
    /// A new spec. Call [`StencilSpec::validate`] (or let
    /// [`crate::plan::plan`] do it) before lowering.
    pub fn new(
        name: impl Into<String>,
        taps: Vec<Tap>,
        precision: Precision,
        boundary: Boundary,
    ) -> StencilSpec {
        StencilSpec { name: name.into(), taps, precision, boundary }
    }

    /// The all-variable 9-point 2D spec (taps in [`Offset3::nine_point_2d`]
    /// order): the §IV.2 block SpMV, and the operator `wse-core`'s block
    /// Krylov builder accepts.
    pub fn var_nine_point_2d() -> StencilSpec {
        let taps =
            Offset3::nine_point_2d().iter().map(|o| Tap { off: *o, coef: CoefKind::Var }).collect();
        StencilSpec::new("spmv2d-9pt", taps, Precision::F16, Boundary::Dirichlet0)
    }

    /// The all-variable 7-point 3D spec (taps in [`Offset3::seven_point`]
    /// order): the Listing-1 SpMV, and the operator `wse-core`'s z-column
    /// Krylov builders accept.
    pub fn var_seven_point_3d() -> StencilSpec {
        let taps =
            Offset3::seven_point().iter().map(|o| Tap { off: *o, coef: CoefKind::Var }).collect();
        StencilSpec::new("spmv3d-7pt", taps, Precision::F16, Boundary::Dirichlet0)
    }

    /// This spec with a different precision.
    pub fn with_precision(mut self, precision: Precision) -> StencilSpec {
        self.precision = precision;
        self
    }

    /// The tap offsets, in spec order.
    pub fn offsets(&self) -> Vec<Offset3> {
        self.taps.iter().map(|t| t.off).collect()
    }

    /// Checks that `a` holds no operator this spec would drop: a nonzero
    /// band of `a` at an offset that is not one of the taps is
    /// [`DslError::BandOutsideSpec`]. (A tap whose band `a` lacks reads as
    /// zero.) Reads the bands in place; nothing is copied or converted.
    ///
    /// # Errors
    /// The first foreign nonzero band, in `a`'s band order.
    pub fn check_bands<S: Scalar>(&self, a: &DiaMatrix<S>) -> Result<(), DslError> {
        for (b, off) in a.offsets().iter().enumerate() {
            let tapped = self.taps.iter().any(|t| t.off == *off);
            if !tapped && a.band(b).iter().any(|&v| v.to_f64() != 0.0) {
                return Err(DslError::BandOutsideSpec(*off));
            }
        }
        Ok(())
    }

    /// `true` when every tap keeps `dz == 0`.
    pub fn is_2d(&self) -> bool {
        self.taps.iter().all(|t| t.off.dz == 0)
    }

    /// `true` when every tap is axis-aligned (at most one nonzero
    /// component) — the shape the Z-column mappings can route.
    pub fn is_star(&self) -> bool {
        self.taps.iter().all(|t| {
            let nz = [t.off.dx, t.off.dy, t.off.dz].iter().filter(|&&c| c != 0).count();
            nz <= 1
        })
    }

    /// Per-axis reach `(rx, ry, rz)`.
    pub fn radius(&self) -> (usize, usize, usize) {
        let mut r = (0usize, 0usize, 0usize);
        for t in &self.taps {
            r.0 = r.0.max(t.off.dx.unsigned_abs() as usize);
            r.1 = r.1.max(t.off.dy.unsigned_abs() as usize);
            r.2 = r.2.max(t.off.dz.unsigned_abs() as usize);
        }
        r
    }

    /// `true` when every tap has a constant coefficient.
    pub fn all_const(&self) -> bool {
        self.taps.iter().all(|t| matches!(t.coef, CoefKind::Const(_)))
    }

    /// Basic well-formedness: taps exist, offsets are unique, constants are
    /// finite. Mapping-specific limits (radius, SRAM, geometry) live in
    /// [`crate::plan::plan`].
    pub fn validate(&self) -> Result<(), DslError> {
        if self.taps.is_empty() {
            return Err(DslError::Empty);
        }
        for (i, t) in self.taps.iter().enumerate() {
            for prev in &self.taps[..i] {
                if prev.off == t.off {
                    return Err(DslError::DuplicateTap(t.off));
                }
            }
            if let CoefKind::Const(c) = t.coef {
                if !c.is_finite() {
                    return Err(DslError::NonFinite(t.off));
                }
            }
        }
        Ok(())
    }

    /// Content fingerprint (FNV-1a over name, taps, precision, boundary).
    /// Equal DSL sources produce equal fingerprints; the service cache key
    /// builds on this.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.name.as_bytes());
        eat(&[
            0xff,
            match self.precision {
                Precision::F16 => 1,
                Precision::F32 => 2,
            },
        ]);
        eat(&[match self.boundary {
            Boundary::Dirichlet0 => 1,
            Boundary::NeumannMirror => 2,
        }]);
        eat(&(self.taps.len() as u64).to_le_bytes());
        for t in &self.taps {
            eat(&t.off.dx.to_le_bytes());
            eat(&t.off.dy.to_le_bytes());
            eat(&t.off.dz.to_le_bytes());
            match t.coef {
                CoefKind::Const(c) => {
                    eat(&[1]);
                    eat(&c.to_bits().to_le_bytes());
                }
                CoefKind::Var => eat(&[2]),
            }
        }
        h
    }

    /// Materializes an all-constant spec into a row-stored [`DiaMatrix`]
    /// over `mesh`, applying the boundary condition.
    ///
    /// Under [`Boundary::Dirichlet0`] a tap whose source falls off-mesh
    /// simply contributes nothing. Under [`Boundary::NeumannMirror`] the
    /// ghost source reflects back into the mesh, and its coefficient folds
    /// onto the offset that reaches the mirrored cell — which must itself
    /// be one of the spec's taps, else [`DslError::MirrorNeedsBand`]. The
    /// mirror reflects once, so a tap reaching more than an axis extent past
    /// the edge can land outside the mesh: [`DslError::MeshMismatch`].
    ///
    /// The walk is tap by tap, each tap adding its weight into whole bands,
    /// so every `(row, band)` entry sums its contributions in tap order.
    /// Of several failing ghosts, the error names the first in mesh-row
    /// order (then tap order).
    pub fn matrix(&self, mesh: Mesh3D) -> Result<DiaMatrix<f64>, DslError> {
        self.validate()?;
        if !self.all_const() {
            return Err(DslError::VarNeedsMatrix);
        }
        let mut a = DiaMatrix::<f64>::new(mesh, &self.offsets());
        let mirror = self.boundary == Boundary::NeumannMirror;
        // The failing ghost with the lowest row, kept with its error.
        let mut first_err: Option<(usize, DslError)> = None;
        for (b, t) in self.taps.iter().enumerate() {
            let CoefKind::Const(c) = t.coef else { unreachable!("all_const checked") };
            let (gx, gy, gz) =
                (ghosts(t.off.dx, mesh.nx), ghosts(t.off.dy, mesh.ny), ghosts(t.off.dz, mesh.nz));
            // The rows whose source is in the mesh form one z-run per line.
            let zlo = gz.iter().take_while(|g| g.is_some()).count();
            let zhi = zlo + gz[zlo..].iter().take_while(|g| g.is_none()).count();
            // The last fold looked up, and its band.
            let mut fold_band = (t.off, Some(b));
            'rows: for (x, gx) in gx.iter().enumerate() {
                for (y, gy) in gy.iter().enumerate() {
                    let line = (x * mesh.ny + y) * mesh.nz;
                    let inside = gx.is_none() && gy.is_none();
                    if inside {
                        for v in &mut a.band_mut(b)[line + zlo..line + zhi] {
                            *v += c;
                        }
                    }
                    if !mirror {
                        continue;
                    }
                    let zs = if inside {
                        (0..zlo).chain(zhi..mesh.nz)
                    } else {
                        (0..0).chain(0..mesh.nz)
                    };
                    for z in zs {
                        let [fx, fy, fz] = [(gx, t.off.dx), (gy, t.off.dy), (&gz[z], t.off.dz)]
                            .map(|(g, d)| g.map_or((d, true), |g| g));
                        let fold = Offset3::new(fx.0, fy.0, fz.0);
                        if fold != fold_band.0 {
                            fold_band = (fold, a.band_index(fold));
                        }
                        let err = match fold_band.1 {
                            None => DslError::MirrorNeedsBand(fold),
                            Some(fb) if fx.1 && fy.1 && fz.1 => {
                                a.band_mut(fb)[line + z] += c;
                                continue;
                            }
                            Some(_) => DslError::MeshMismatch(format!(
                                "mirror boundary reflects tap ({}, {}, {}) past the far edge of \
                                 the {}x{}x{} mesh",
                                t.off.dx, t.off.dy, t.off.dz, mesh.nx, mesh.ny, mesh.nz
                            )),
                        };
                        let row = line + z;
                        if first_err.as_ref().is_none_or(|(r, _)| row < *r) {
                            first_err = Some((row, err));
                        }
                        break 'rows;
                    }
                }
            }
        }
        match first_err {
            Some((_, err)) => Err(err),
            None => Ok(a),
        }
    }
}

/// Where a tap reaching `d` along an axis of extent `n` finds its source,
/// per row coordinate: `None` inside the mesh; for a ghost, the offset that
/// reaches its once-mirrored (cell-centered) image and whether that image
/// lies inside the mesh.
fn ghosts(d: i32, n: usize) -> Vec<Option<(i32, bool)>> {
    let n = n as i64;
    (0..n)
        .map(|i| {
            let s = i + d as i64;
            if (0..n).contains(&s) {
                return None;
            }
            let m = if s < 0 { -s - 1 } else { 2 * n - 1 - s };
            Some(((m - i) as i32, (0..n).contains(&m)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let a = StencilSpec::var_nine_point_2d();
        let b = StencilSpec::var_nine_point_2d();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = a.clone().with_precision(Precision::F32);
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = a.clone();
        d.taps[3].coef = CoefKind::Const(0.25);
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn validate_rejects_duplicates_and_nan() {
        let dup = StencilSpec::new(
            "dup",
            vec![Tap::constant(0, 0, 0, 1.0), Tap::constant(0, 0, 0, 2.0)],
            Precision::F16,
            Boundary::Dirichlet0,
        );
        assert!(matches!(dup.validate(), Err(DslError::DuplicateTap(_))));
        let nan = StencilSpec::new(
            "nan",
            vec![Tap::constant(1, 0, 0, f64::NAN)],
            Precision::F16,
            Boundary::Dirichlet0,
        );
        assert!(matches!(nan.validate(), Err(DslError::NonFinite(_))));
        assert!(matches!(
            StencilSpec::new("e", vec![], Precision::F16, Boundary::Dirichlet0).validate(),
            Err(DslError::Empty)
        ));
    }

    #[test]
    fn dirichlet_matrix_drops_offmesh_taps() {
        let spec = StencilSpec::new(
            "lap5",
            vec![
                Tap::constant(0, 0, 0, 1.0),
                Tap::constant(1, 0, 0, -0.25),
                Tap::constant(-1, 0, 0, -0.25),
                Tap::constant(0, 1, 0, -0.25),
                Tap::constant(0, -1, 0, -0.25),
            ],
            Precision::F16,
            Boundary::Dirichlet0,
        );
        let mesh = Mesh3D::new(4, 4, 1);
        let a = spec.matrix(mesh).unwrap();
        assert_eq!(a.coeff(0, 0, 0, Offset3::new(-1, 0, 0)), 0.0);
        assert_eq!(a.coeff(1, 1, 0, Offset3::new(-1, 0, 0)), -0.25);
    }

    #[test]
    fn mirror_matrix_folds_ghosts_onto_interior_bands() {
        let spec = StencilSpec::new(
            "lap5m",
            vec![
                Tap::constant(0, 0, 0, 1.0),
                Tap::constant(1, 0, 0, -0.25),
                Tap::constant(-1, 0, 0, -0.25),
                Tap::constant(0, 1, 0, -0.25),
                Tap::constant(0, -1, 0, -0.25),
            ],
            Precision::F16,
            Boundary::NeumannMirror,
        );
        let mesh = Mesh3D::new(4, 4, 1);
        let a = spec.matrix(mesh).unwrap();
        // At x = 0 the −x ghost mirrors onto the cell itself: center picks
        // up the fold.
        assert_eq!(a.coeff(0, 1, 0, Offset3::CENTER), 0.75);
        // Row sums are zero everywhere for a conservative mirror operator.
        for (x, y, z) in mesh.iter() {
            let sum: f64 = spec.offsets().iter().map(|o| a.coeff(x, y, z, *o)).sum();
            assert!(sum.abs() < 1e-12, "row ({x},{y},{z}) sums to {sum}");
        }
    }
}
