//! 9-point 2D stencil operator builders (the paper's §IV.2 mapping).
//!
//! "We sketch an implementation of SpMV (u = Av as above) for a 9-point
//! stencil in 2D. For the 2D problem we map a rectangular region of the mesh
//! of v to each core." The 9-point stencil couples a point to its 8
//! neighbors (including diagonals) plus itself.

use crate::dia::{update_in_mesh, DiaMatrix, Offset3};
use crate::mesh::Mesh2D;

/// The 9-point 2D Laplacian (Patankar/Mehrstellen weights): center `8/3`,
/// edge neighbors `-1/3`, corner neighbors `-1/3` — scaled by 3 to keep
/// coefficients exact in binary16: center `8`, all eight neighbors `-1`.
/// Symmetric, weakly diagonally dominant with Dirichlet boundaries.
pub fn laplace9(mesh: Mesh2D) -> DiaMatrix<f64> {
    let mut a = DiaMatrix::new(mesh.as_3d(), &Offset3::nine_point_2d());
    update_in_mesh(&mut a, Offset3::CENTER, |_| 8.0);
    for off in &Offset3::nine_point_2d()[1..] {
        update_in_mesh(&mut a, *off, |_| -1.0);
    }
    a
}

/// A nonsymmetric 2D 9-point operator: `laplace9` plus first-order upwind
/// convection along the axis directions (the diagonal couplings stay
/// symmetric). `velocity` is `(ux, uy)` in cell-Péclet units.
pub fn convection_diffusion9(mesh: Mesh2D, velocity: (f64, f64)) -> DiaMatrix<f64> {
    let mut a = laplace9(mesh);
    let (ux, uy) = velocity;
    // Every row's diagonal gains the same sum, boundary rows included; the
    // off-diagonal entry exists only in-mesh.
    let mut extra_diag = 0.0;
    for (off, c) in [
        (Offset3::new(1, 0, 0), (-ux).max(0.0)),
        (Offset3::new(-1, 0, 0), ux.max(0.0)),
        (Offset3::new(0, 1, 0), (-uy).max(0.0)),
        (Offset3::new(0, -1, 0), uy.max(0.0)),
    ] {
        if c == 0.0 {
            continue;
        }
        extra_diag += c;
        update_in_mesh(&mut a, off, |old| old - c);
    }
    update_in_mesh(&mut a, Offset3::CENTER, |old| old + extra_diag);
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stencil7::{diagonal_dominance_slack, is_symmetric};

    #[test]
    fn laplace9_structure() {
        let a = laplace9(Mesh2D::new(4, 5));
        assert!(a.validate().is_ok());
        assert!(is_symmetric(&a));
        // Interior row: 8 entries of -1 + diagonal 8 → row sum 0.
        let row = a.mesh().idx(2, 2, 0);
        let sum: f64 = a.row_entries(row).iter().map(|(_, v)| v).sum();
        assert_eq!(sum, 0.0);
        assert_eq!(a.row_entries(row).len(), 9);
    }

    #[test]
    fn corner_row_has_four_entries() {
        let a = laplace9(Mesh2D::new(4, 5));
        // Corner (0,0): itself + E + N + NE = 4 entries.
        assert_eq!(a.row_entries(0).len(), 4);
    }

    #[test]
    fn convection_breaks_symmetry_keeps_dominance() {
        let mesh = Mesh2D::new(5, 5);
        let a = convection_diffusion9(mesh, (3.0, -1.5));
        assert!(a.validate().is_ok());
        assert!(!is_symmetric(&a));
        assert!(diagonal_dominance_slack(&a) >= -1e-12);
    }

    #[test]
    fn zero_velocity_reduces_to_laplace9() {
        let mesh = Mesh2D::new(4, 4);
        let a = convection_diffusion9(mesh, (0.0, 0.0));
        let l = laplace9(mesh);
        for row in 0..mesh.len() {
            assert_eq!(a.row_entries(row), l.row_entries(row));
        }
    }
}
