//! Flow diagnostics for the lid-driven cavity — the standard quantities the
//! CFD validation literature reports (centerline profiles, primary-vortex
//! location, circulation), used to sanity-check the SIMPLE substrate
//! qualitatively against the classic benchmark behavior.

use crate::fields::FlowField;
use crate::grid::Component;

/// The u-velocity profile along the vertical centerline (x = y = center),
/// bottom to lid — the curve every cavity paper plots.
pub fn centerline_u_profile(field: &FlowField) -> Vec<f64> {
    let g = field.grid;
    let um = g.face_mesh(Component::U);
    let (ic, jc) = (g.nx / 2, g.ny / 2);
    (0..g.nz).map(|k| field.u[um.idx(ic, jc, k)]).collect()
}

/// Cell-centered y-vorticity `ω_y = ∂u/∂z − ∂w/∂x` on the mid-y plane
/// (the rotation plane of the primary vortex for an x-driven lid).
#[allow(clippy::needless_range_loop)] // 2-D stencil index math reads better with i/k
pub fn vorticity_y_midplane(field: &FlowField) -> Vec<Vec<f64>> {
    let g = field.grid;
    let um = g.face_mesh(Component::U);
    let wm = g.face_mesh(Component::W);
    let j = g.ny / 2;
    let mut out = vec![vec![0.0; g.nz]; g.nx];
    for i in 0..g.nx {
        for k in 0..g.nz {
            // du/dz via u at the two z-extremes of the cell (face averages).
            let u_top = if k + 1 < g.nz {
                0.5 * (field.u[um.idx(i, j, k + 1)] + field.u[um.idx(i + 1, j, k + 1)])
            } else {
                0.0
            };
            let u_bot = if k > 0 {
                0.5 * (field.u[um.idx(i, j, k - 1)] + field.u[um.idx(i + 1, j, k - 1)])
            } else {
                0.0
            };
            let dudz = (u_top - u_bot) / (2.0 * g.h);
            let w_e = if i + 1 < g.nx {
                0.5 * (field.w[wm.idx(i + 1, j, k)] + field.w[wm.idx(i + 1, j, k + 1)])
            } else {
                0.0
            };
            let w_w = if i > 0 {
                0.5 * (field.w[wm.idx(i - 1, j, k)] + field.w[wm.idx(i - 1, j, k + 1)])
            } else {
                0.0
            };
            let dwdx = (w_e - w_w) / (2.0 * g.h);
            out[i][k] = dudz - dwdx;
        }
    }
    out
}

/// Locates the primary vortex: the cell of extreme y-vorticity magnitude on
/// the mid-y plane, returned as normalized `(x, z)` in `[0, 1]²`.
#[allow(clippy::needless_range_loop)] // interior scan over (i, k) cells
pub fn primary_vortex_center(field: &FlowField) -> (f64, f64) {
    let g = field.grid;
    let vort = vorticity_y_midplane(field);
    let mut best = (0usize, 0usize);
    let mut best_mag = -1.0f64;
    for i in 1..g.nx - 1 {
        for k in 1..g.nz - 1 {
            if vort[i][k].abs() > best_mag {
                best_mag = vort[i][k].abs();
                best = (i, k);
            }
        }
    }
    ((best.0 as f64 + 0.5) / g.nx as f64, (best.1 as f64 + 0.5) / g.nz as f64)
}

/// Total circulation on the mid-y plane: Σ ω_y h² (signed).
pub fn circulation(field: &FlowField) -> f64 {
    let g = field.grid;
    vorticity_y_midplane(field).iter().flatten().sum::<f64>() * g.h * g.h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::StaggeredGrid;
    use crate::simple::{SimpleParams, SimpleSolver};

    fn developed(n: usize, iters: usize) -> FlowField {
        let grid = StaggeredGrid::new(n, n, n, 1.0 / n as f64);
        let mut s = SimpleSolver::new(grid, SimpleParams::default());
        s.run(iters);
        s.field
    }

    #[test]
    fn centerline_profile_has_cavity_shape() {
        let f = developed(8, 14);
        let u = centerline_u_profile(&f);
        // Positive at the lid, negative return flow somewhere below.
        assert!(*u.last().unwrap() > 0.0, "lid-adjacent u: {u:?}");
        assert!(u.iter().any(|&v| v < 0.0), "return flow expected: {u:?}");
    }

    #[test]
    fn primary_vortex_sits_in_the_upper_half() {
        // At moderate effective Reynolds numbers the primary vortex of a
        // lid-driven cavity sits above mid-height, biased toward the
        // downstream (lid-motion) side.
        let f = developed(8, 14);
        let (x, z) = primary_vortex_center(&f);
        assert!(z > 0.4, "vortex height {z}");
        assert!((0.0..=1.0).contains(&x) && (0.0..=1.0).contains(&z));
    }

    #[test]
    fn circulation_matches_lid_direction() {
        // Lid moving in +x over the +z wall drives clockwise rotation in
        // the x-z plane: ∂u/∂z > 0 near the lid dominates, giving positive
        // net y-vorticity under our sign convention.
        let f = developed(8, 14);
        let c = circulation(&f);
        assert!(c > 0.0, "circulation {c}");
    }

    #[test]
    fn quiescent_field_has_no_structure() {
        let f = FlowField::zeros(StaggeredGrid::new(6, 6, 6, 1.0 / 6.0));
        assert_eq!(circulation(&f), 0.0);
        assert!(centerline_u_profile(&f).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn finer_mesh_refines_not_destroys_the_vortex() {
        let coarse = developed(6, 12);
        let fine = developed(10, 12);
        let (cx, cz) = primary_vortex_center(&coarse);
        let (fx, fz) = primary_vortex_center(&fine);
        // Same qualitative location within a generous tolerance.
        assert!((cx - fx).abs() < 0.5 && (cz - fz).abs() < 0.5, "({cx},{cz}) vs ({fx},{fz})");
    }
}
