//! Diagonal-storage sparse matrices.
//!
//! "A has seven nonzero diagonals; but with diagonal preconditioning the main
//! diagonal is all ones. Therefore, we only store six other diagonals." —
//! each structured-mesh offset `(dx, dy, dz)` contributes one *band*: a dense
//! array, aligned to the **row** index, whose entry `i` multiplies
//! `x[neighbor(i)]`. Entries whose neighbor falls off the mesh are zero and
//! are never touched by the matvec.
//!
//! The matvec is *precision-faithful* to the on-wafer SpMV of Listing 1:
//! every band is applied as an elementwise **multiply** (rounded in storage
//! precision — the products pass through fp16 FIFOs on the wafer) followed by
//! an elementwise **add** into the accumulator (also rounded in storage
//! precision — `sumtask` adds fp16 tensors). Band order matches the paper's
//! dataflow: the shifted-`zm` product initializes the result, then the other
//! bands accumulate.

use std::ops::Range;

use crate::mesh::Mesh3D;
use crate::scalar::Scalar;

/// A signed stencil offset `(dx, dy, dz)` identifying one matrix diagonal.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Offset3 {
    /// Offset along X.
    pub dx: i32,
    /// Offset along Y.
    pub dy: i32,
    /// Offset along Z.
    pub dz: i32,
}

impl Offset3 {
    /// Convenience constructor.
    pub const fn new(dx: i32, dy: i32, dz: i32) -> Offset3 {
        Offset3 { dx, dy, dz }
    }

    /// The center (main-diagonal) offset.
    pub const CENTER: Offset3 = Offset3::new(0, 0, 0);

    /// `true` for the main diagonal.
    pub fn is_center(&self) -> bool {
        self.dx == 0 && self.dy == 0 && self.dz == 0
    }

    /// The seven offsets of the 3D 7-point stencil, center first.
    pub fn seven_point() -> [Offset3; 7] {
        [
            Offset3::CENTER,
            Offset3::new(1, 0, 0),
            Offset3::new(-1, 0, 0),
            Offset3::new(0, 1, 0),
            Offset3::new(0, -1, 0),
            Offset3::new(0, 0, 1),
            Offset3::new(0, 0, -1),
        ]
    }

    /// The nine offsets of the 2D 9-point stencil (dz = 0), center first.
    pub fn nine_point_2d() -> [Offset3; 9] {
        [
            Offset3::CENTER,
            Offset3::new(1, 0, 0),
            Offset3::new(-1, 0, 0),
            Offset3::new(0, 1, 0),
            Offset3::new(0, -1, 0),
            Offset3::new(1, 1, 0),
            Offset3::new(1, -1, 0),
            Offset3::new(-1, 1, 0),
            Offset3::new(-1, -1, 0),
        ]
    }
}

/// A structured-mesh sparse matrix stored by diagonals, generic over storage
/// precision.
#[derive(Clone, Debug)]
pub struct DiaMatrix<S> {
    mesh: Mesh3D,
    offsets: Vec<Offset3>,
    /// `bands[o][row]` multiplies `x[row + shift(o)]`; zero where the
    /// neighbor is outside the mesh.
    bands: Vec<Vec<S>>,
}

impl<S: Scalar> DiaMatrix<S> {
    /// Creates a zero matrix over `mesh` with the given diagonals.
    ///
    /// # Panics
    /// Panics if `offsets` contains duplicates.
    pub fn new(mesh: Mesh3D, offsets: &[Offset3]) -> DiaMatrix<S> {
        for (i, a) in offsets.iter().enumerate() {
            for b in &offsets[..i] {
                assert_ne!(a, b, "duplicate stencil offset {a:?}");
            }
        }
        DiaMatrix {
            mesh,
            offsets: offsets.to_vec(),
            bands: offsets.iter().map(|_| vec![S::zero(); mesh.len()]).collect(),
        }
    }

    /// The mesh this matrix discretizes.
    pub fn mesh(&self) -> Mesh3D {
        self.mesh
    }

    /// Number of rows (= mesh points).
    pub fn nrows(&self) -> usize {
        self.mesh.len()
    }

    /// The stencil offsets, in band order.
    pub fn offsets(&self) -> &[Offset3] {
        &self.offsets
    }

    /// Index of the band for `offset`, if present.
    pub fn band_index(&self, offset: Offset3) -> Option<usize> {
        self.offsets.iter().position(|&o| o == offset)
    }

    /// Immutable view of one band's coefficient array (row-aligned).
    pub fn band(&self, band: usize) -> &[S] {
        &self.bands[band]
    }

    /// The band for `offset` (row-aligned), or `None` if the matrix does not
    /// carry that diagonal — a missing band reads as all zeros. A loop over
    /// rows looks its band up here once and indexes it by row.
    pub fn band_of(&self, offset: Offset3) -> Option<&[S]> {
        self.band_index(offset).map(|b| self.band(b))
    }

    /// Mutable view of one band's coefficient array (row-aligned).
    ///
    /// Callers must leave out-of-mesh entries at zero; [`DiaMatrix::validate`]
    /// checks this.
    pub fn band_mut(&mut self, band: usize) -> &mut [S] {
        &mut self.bands[band]
    }

    /// Sets the coefficient coupling row `(x, y, z)` to its neighbor at
    /// `offset`.
    ///
    /// A single-entry accessor: every call searches the offsets for the
    /// band and checks the neighbor. A loop over rows takes the band once
    /// ([`DiaMatrix::band_mut`]) and writes it by row instead.
    ///
    /// # Panics
    /// Panics if `offset` is not one of the matrix diagonals or the neighbor
    /// is outside the mesh.
    pub fn set(&mut self, x: usize, y: usize, z: usize, offset: Offset3, value: S) {
        let band =
            self.band_index(offset).unwrap_or_else(|| panic!("offset {offset:?} not in stencil"));
        assert!(
            self.mesh.neighbor(x, y, z, offset.dx, offset.dy, offset.dz).is_some(),
            "coefficient at ({x},{y},{z}) offset {offset:?} reaches outside the mesh"
        );
        let row = self.mesh.idx(x, y, z);
        self.bands[band][row] = value;
    }

    /// Reads the coefficient coupling row `(x, y, z)` to its neighbor at
    /// `offset` (zero if the neighbor is outside the mesh).
    ///
    /// A single-entry accessor: every call searches the offsets for the
    /// band. A loop over rows takes the band once ([`DiaMatrix::band_of`])
    /// and reads it by row instead.
    pub fn coeff(&self, x: usize, y: usize, z: usize, offset: Offset3) -> S {
        match self.band_index(offset) {
            Some(band) => self.bands[band][self.mesh.idx(x, y, z)],
            None => S::zero(),
        }
    }

    /// Checks the structural invariant: every coefficient whose neighbor is
    /// off-mesh is exactly zero.
    pub fn validate(&self) -> Result<(), String> {
        for (b, off) in self.offsets.iter().enumerate() {
            for (x, y, z) in self.mesh.iter() {
                if self.mesh.neighbor(x, y, z, off.dx, off.dy, off.dz).is_none() {
                    let v = self.bands[b][self.mesh.idx(x, y, z)];
                    if v != S::zero() {
                        return Err(format!(
                            "nonzero out-of-mesh coefficient at ({x},{y},{z}) offset {off:?}: {v:?}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// `y = A x` with storage-precision rounding at every step, band-by-band
    /// (multiply rounds, then add rounds), mirroring the wafer dataflow.
    ///
    /// # Panics
    /// Panics if `x` or `y` length differs from the number of rows.
    pub fn matvec(&self, x: &[S], y: &mut [S]) {
        assert_eq!(x.len(), self.nrows(), "matvec input length");
        assert_eq!(y.len(), self.nrows(), "matvec output length");
        y.fill(S::zero());
        for (band, off) in self.bands.iter().zip(&self.offsets) {
            self.apply_band(band, *off, x, y);
        }
    }

    /// Applies one band: `y[row] += band[row] * x[row + shift]` over the
    /// valid row range, with both operations rounding in `S`.
    fn apply_band(&self, band: &[S], off: Offset3, x: &[S], y: &mut [S]) {
        let m = &self.mesh;
        let (nx, ny, nz) = (m.nx as i64, m.ny as i64, m.nz as i64);
        // Valid row coordinate ranges such that row+offset stays in-mesh.
        let xr = clamp_range(off.dx as i64, nx);
        let yr = clamp_range(off.dy as i64, ny);
        let zr = clamp_range(off.dz as i64, nz);
        let shift = (off.dx as i64 * ny + off.dy as i64) * nz + off.dz as i64;
        for xi in xr.clone() {
            for yi in yr.clone() {
                let row0 = ((xi * ny + yi) * nz + zr.start) as usize;
                let nbr0 = (row0 as i64 + shift) as usize;
                let len = (zr.end - zr.start) as usize;
                let a = &band[row0..row0 + len];
                let xs = &x[nbr0..nbr0 + len];
                let ys = &mut y[row0..row0 + len];
                for i in 0..len {
                    // Two roundings, like the wafer: FIFO product, then add.
                    let t = a[i].mul(xs[i]);
                    ys[i] = ys[i].add(t);
                }
            }
        }
    }

    /// `y = A x` evaluated in f64 regardless of storage precision (reference
    /// for accuracy measurements: the matrix *values* are still the stored,
    /// rounded ones, but no further rounding occurs).
    pub fn matvec_f64(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.nrows(), "matvec input length");
        assert_eq!(y.len(), self.nrows(), "matvec output length");
        y.fill(0.0);
        let m = &self.mesh;
        let (nx, ny, nz) = (m.nx as i64, m.ny as i64, m.nz as i64);
        for (band, off) in self.bands.iter().zip(&self.offsets) {
            let xr = clamp_range(off.dx as i64, nx);
            let yr = clamp_range(off.dy as i64, ny);
            let zr = clamp_range(off.dz as i64, nz);
            let shift = (off.dx as i64 * ny + off.dy as i64) * nz + off.dz as i64;
            for xi in xr.clone() {
                for yi in yr.clone() {
                    let row0 = ((xi * ny + yi) * nz + zr.start) as usize;
                    let nbr0 = (row0 as i64 + shift) as usize;
                    let len = (zr.end - zr.start) as usize;
                    for i in 0..len {
                        y[row0 + i] += band[row0 + i].to_f64() * x[nbr0 + i];
                    }
                }
            }
        }
    }

    /// `y = Aᵀ x` evaluated in f64 (spectral estimation; the transpose of
    /// a DIA matrix scatters each band to the mirrored offset).
    pub fn matvec_transpose_f64(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.nrows(), "matvec input length");
        assert_eq!(y.len(), self.nrows(), "matvec output length");
        y.fill(0.0);
        let m = &self.mesh;
        for (band, off) in self.bands.iter().zip(&self.offsets) {
            for (x0, y0, z0) in m.iter() {
                if let Some(col) = m.neighbor(x0, y0, z0, off.dx, off.dy, off.dz) {
                    let row = m.idx(x0, y0, z0);
                    y[col] += band[row].to_f64() * x[row];
                }
            }
        }
    }

    /// True residual `b - A x` evaluated in f64 (for normwise relative
    /// residual reporting, Fig. 9).
    pub fn residual_f64(&self, x: &[S], b: &[S]) -> Vec<f64> {
        let xf: Vec<f64> = x.iter().map(|v| v.to_f64()).collect();
        let mut ax = vec![0.0; self.nrows()];
        self.matvec_f64(&xf, &mut ax);
        b.iter().zip(&ax).map(|(bi, axi)| bi.to_f64() - axi).collect()
    }

    /// Converts storage precision, rounding each coefficient once.
    pub fn convert<T: Scalar>(&self) -> DiaMatrix<T> {
        DiaMatrix {
            mesh: self.mesh,
            offsets: self.offsets.clone(),
            bands: self
                .bands
                .iter()
                .map(|band| band.iter().map(|&v| T::from_f64(v.to_f64())).collect())
                .collect(),
        }
    }

    /// Dense row of the matrix as `(column, value)` pairs (test helper; only
    /// sensible for small meshes).
    pub fn row_entries(&self, row: usize) -> Vec<(usize, f64)> {
        let (x, y, z) = self.mesh.coords(row);
        let mut out = Vec::new();
        for (b, off) in self.offsets.iter().enumerate() {
            if let Some(col) = self.mesh.neighbor(x, y, z, off.dx, off.dy, off.dz) {
                let v = self.bands[b][row].to_f64();
                if v != 0.0 {
                    out.push((col, v));
                }
            }
        }
        out.sort_by_key(|&(c, _)| c);
        out
    }

    /// Infinity norm of the matrix (max absolute row sum), in f64.
    pub fn norm_inf(&self) -> f64 {
        let mut best = 0.0f64;
        for row in 0..self.nrows() {
            let s: f64 = self.row_entries(row).iter().map(|(_, v)| v.abs()).sum();
            best = best.max(s);
        }
        best
    }
}

/// Replaces every entry `v` of band `off` whose neighbor lies inside the
/// mesh — the entries a builder may write — with `f(v)`.
///
/// # Panics
/// Panics if `off` is not one of the matrix diagonals.
pub(crate) fn update_in_mesh<S: Scalar>(a: &mut DiaMatrix<S>, off: Offset3, f: impl Fn(S) -> S) {
    let b = a.band_index(off).unwrap_or_else(|| panic!("offset {off:?} not in stencil"));
    let mesh = a.mesh;
    let band = a.band_mut(b);
    for run in in_mesh_runs(mesh, off) {
        for v in &mut band[run] {
            *v = f(*v);
        }
    }
}

/// The rows of `mesh` whose neighbor at `off` lies inside the mesh, as
/// contiguous z-runs in storage order.
fn in_mesh_runs(mesh: Mesh3D, off: Offset3) -> impl Iterator<Item = Range<usize>> {
    let (ny, nz) = (mesh.ny as i64, mesh.nz as i64);
    let yr = clamp_range(off.dy as i64, ny);
    let zr = clamp_range(off.dz as i64, nz);
    clamp_range(off.dx as i64, mesh.nx as i64).flat_map(move |x| {
        let zr = zr.clone();
        yr.clone().map(move |y| {
            let row0 = ((x * ny + y) * nz + zr.start) as usize;
            row0..row0 + (zr.end - zr.start) as usize
        })
    })
}

/// Row-coordinate range `[start, end)` along one axis such that
/// `coord + offset` stays within `[0, n)`.
fn clamp_range(off: i64, n: i64) -> Range<i64> {
    if off >= 0 {
        0..(n - off).max(0)
    } else {
        (-off).min(n)..n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::Mesh3D;
    use wse_float::F16;

    fn laplacian_3x3x3() -> DiaMatrix<f64> {
        let mesh = Mesh3D::new(3, 3, 3);
        let mut a = DiaMatrix::new(mesh, &Offset3::seven_point());
        for (x, y, z) in mesh.iter() {
            a.set(x, y, z, Offset3::CENTER, 6.0);
            for off in &Offset3::seven_point()[1..] {
                if mesh.neighbor(x, y, z, off.dx, off.dy, off.dz).is_some() {
                    a.set(x, y, z, *off, -1.0);
                }
            }
        }
        a
    }

    #[test]
    fn clamp_range_cases() {
        assert_eq!(clamp_range(0, 5), 0..5);
        assert_eq!(clamp_range(1, 5), 0..4);
        assert_eq!(clamp_range(-1, 5), 1..5);
        assert_eq!(clamp_range(2, 2), 0..0);
        assert_eq!(clamp_range(-7, 5), 5..5);
    }

    #[test]
    fn matvec_constant_vector_interior() {
        let a = laplacian_3x3x3();
        let x = vec![1.0; 27];
        let mut y = vec![0.0; 27];
        a.matvec(&x, &mut y);
        // Interior point: 6 - 6*1 = 0; corner: 6 - 3 = 3; edge: 6-4=2; face: 6-5=1.
        let m = a.mesh();
        assert_eq!(y[m.idx(1, 1, 1)], 0.0);
        assert_eq!(y[m.idx(0, 0, 0)], 3.0);
        assert_eq!(y[m.idx(1, 0, 0)], 2.0);
        assert_eq!(y[m.idx(1, 1, 0)], 1.0);
    }

    #[test]
    fn matvec_matches_row_entries() {
        let a = laplacian_3x3x3();
        let x: Vec<f64> = (0..27).map(|i| (i as f64) * 0.5 - 3.0).collect();
        let mut y = vec![0.0; 27];
        a.matvec(&x, &mut y);
        for (row, yr) in y.iter().enumerate() {
            let expect: f64 = a.row_entries(row).iter().map(|&(c, v)| v * x[c]).sum();
            // The main diagonal contributes too; row_entries includes it.
            assert!((yr - expect).abs() < 1e-12, "row {row}: {yr} vs {expect}");
        }
    }

    #[test]
    fn matvec_f64_agrees_for_f64_storage() {
        let a = laplacian_3x3x3();
        let x: Vec<f64> = (0..27).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let mut y1 = vec![0.0; 27];
        let mut y2 = vec![0.0; 27];
        a.matvec(&x, &mut y1);
        a.matvec_f64(&x, &mut y2);
        for i in 0..27 {
            assert!((y1[i] - y2[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn f16_matvec_rounds_each_step() {
        // With storage fp16, products round: 0.1 is inexact, so A(0.1-vector)
        // differs from the f64 result but matches the step-by-step reference.
        let a16: DiaMatrix<F16> = laplacian_3x3x3().convert();
        let x = vec![F16::from_f64(0.1); 27];
        let mut y = vec![F16::ZERO; 27];
        a16.matvec(&x, &mut y);
        // Reference: same band order, explicit rounding.
        let m = a16.mesh();
        let (cx, cy, cz) = (1, 1, 1);
        let mut acc = F16::ZERO;
        for off in a16.offsets() {
            let v = a16.coeff(cx, cy, cz, *off);
            if m.neighbor(cx, cy, cz, off.dx, off.dy, off.dz).is_some() {
                let t = v * x[0];
                acc += t;
            }
        }
        assert_eq!(y[m.idx(cx, cy, cz)].to_bits(), acc.to_bits());
    }

    #[test]
    fn validate_catches_out_of_mesh_nonzero() {
        let mesh = Mesh3D::new(2, 2, 2);
        let mut a: DiaMatrix<f64> = DiaMatrix::new(mesh, &Offset3::seven_point());
        assert!(a.validate().is_ok());
        // Poke an illegal value directly into a band.
        let b = a.band_index(Offset3::new(1, 0, 0)).unwrap();
        let row = mesh.idx(1, 1, 1); // x+1 out of mesh
        a.band_mut(b)[row] = 5.0;
        assert!(a.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "outside the mesh")]
    fn set_out_of_mesh_panics() {
        let mesh = Mesh3D::new(2, 2, 2);
        let mut a: DiaMatrix<f64> = DiaMatrix::new(mesh, &Offset3::seven_point());
        a.set(1, 0, 0, Offset3::new(1, 0, 0), 1.0);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_offsets_panic() {
        let mesh = Mesh3D::new(2, 2, 2);
        let _: DiaMatrix<f64> = DiaMatrix::new(mesh, &[Offset3::CENTER, Offset3::CENTER]);
    }

    #[test]
    fn convert_roundtrip_f64_f32() {
        let a = laplacian_3x3x3();
        let a32: DiaMatrix<f32> = a.convert();
        let back: DiaMatrix<f64> = a32.convert();
        for row in 0..27 {
            assert_eq!(a.row_entries(row), back.row_entries(row));
        }
    }

    #[test]
    fn norm_inf_of_laplacian() {
        // Interior row: |6| + 6*|-1| = 12.
        assert_eq!(laplacian_3x3x3().norm_inf(), 12.0);
    }

    #[test]
    fn nine_point_2d_offsets_have_zero_dz() {
        for off in Offset3::nine_point_2d() {
            assert_eq!(off.dz, 0);
        }
        assert_eq!(Offset3::nine_point_2d().len(), 9);
    }

    #[test]
    fn transpose_matvec_matches_explicit_transpose() {
        let mesh = Mesh3D::new(3, 3, 3);
        let a = crate::stencil7::convection_diffusion(mesh, (2.0, -1.0, 0.5), 1.0);
        let x: Vec<f64> = (0..27).map(|i| ((i * 5) % 13) as f64 * 0.25 - 1.0).collect();
        let mut y = vec![0.0; 27];
        a.matvec_transpose_f64(&x, &mut y);
        // Reference: accumulate row entries transposed.
        let mut expect = vec![0.0; 27];
        for (row, &xr) in x.iter().enumerate() {
            for (col, v) in a.row_entries(row) {
                expect[col] += v * xr;
            }
        }
        for i in 0..27 {
            assert!((y[i] - expect[i]).abs() < 1e-12, "i={i}: {} vs {}", y[i], expect[i]);
        }
    }

    #[test]
    fn transpose_equals_forward_for_symmetric_matrix() {
        let a = laplacian_3x3x3();
        let x: Vec<f64> = (0..27).map(|i| (i % 7) as f64 - 3.0).collect();
        let mut y1 = vec![0.0; 27];
        let mut y2 = vec![0.0; 27];
        a.matvec_f64(&x, &mut y1);
        a.matvec_transpose_f64(&x, &mut y2);
        for i in 0..27 {
            assert!((y1[i] - y2[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn residual_f64_zero_for_exact_solution() {
        let a = laplacian_3x3x3();
        let xs: Vec<f64> = (0..27).map(|i| (i % 5) as f64 - 2.0).collect();
        let mut b = vec![0.0; 27];
        a.matvec_f64(&xs, &mut b);
        let r = a.residual_f64(&xs, &b);
        assert!(r.iter().all(|&v| v.abs() < 1e-12));
    }
}
