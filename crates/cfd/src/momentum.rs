//! Implicit momentum assembly with first-order upwinding.
//!
//! For each velocity component, the time-implicit finite-volume
//! discretization on its staggered control volume produces a **nonsymmetric
//! 7-point system** — the exact class of matrix the paper's wafer solver
//! targets, and the source of Fig. 9's test system.
//!
//! Discretization (Patankar power-law simplified to first-order upwind):
//! per control-volume face, diffusive conductance `D = ν·h` and convective
//! mass flux `F = h²·(interpolated normal velocity)`, giving neighbor
//! coefficients `a_nb = D + max(∓F, 0)`. The diagonal collects
//! `Σ a_nb + Σ F (net outflow) + h³/Δt`; the right-hand side carries the
//! previous time level and the pressure gradient. Faces *on* walls in their
//! normal direction become identity rows (Dirichlet); tangential walls enter
//! through a half-cell conductance `2D` ghost coupling (this is how the
//! moving lid drives the cavity).

use crate::fields::FlowField;
use crate::grid::Component;
use crate::opcount::OpClassCounts;
use stencil::dia::{DiaMatrix, Offset3};

/// Fluid and scheme parameters.
#[derive(Copy, Clone, Debug)]
pub struct FluidProps {
    /// Kinematic viscosity ν.
    pub nu: f64,
    /// Time step Δt of the implicit discretization.
    pub dt: f64,
    /// Lid speed (x-direction, applied at the z-top wall).
    pub lid_velocity: f64,
}

impl Default for FluidProps {
    fn default() -> FluidProps {
        FluidProps { nu: 0.1, dt: 0.1, lid_velocity: 1.0 }
    }
}

/// One assembled momentum system.
#[derive(Clone, Debug)]
pub struct MomentumSystem {
    /// Which component.
    pub component: Component,
    /// The nonsymmetric 7-point matrix on the component's face mesh.
    pub matrix: DiaMatrix<f64>,
    /// Right-hand side.
    pub rhs: Vec<f64>,
    /// Diagonal coefficients (used by the pressure correction's `d`
    /// factors; 1.0 on Dirichlet rows).
    pub ap: Vec<f64>,
    /// Instrumented operation counts for the assembly.
    pub counts: OpClassCounts,
}

/// Axis unit steps for the three directions.
const AXES: [(i32, i32, i32); 3] = [(1, 0, 0), (0, 1, 0), (0, 0, 1)];

fn axis_of(c: Component) -> usize {
    match c {
        Component::U => 0,
        Component::V => 1,
        Component::W => 2,
    }
}

/// The component measuring velocity along `axis`.
fn component_of(axis: usize) -> Component {
    match axis {
        0 => Component::U,
        1 => Component::V,
        _ => Component::W,
    }
}

/// Tangential wall velocity seen by component `c` at the wall normal to
/// `axis` on the `plus` side: the moving lid is the +z wall moving in +x.
fn wall_velocity(c: Component, axis: usize, plus: bool, props: &FluidProps) -> f64 {
    if c == Component::U && axis == 2 && plus {
        props.lid_velocity
    } else {
        0.0
    }
}

/// Assembles the implicit momentum system for component `c` around the
/// current field (coefficients frozen at the current iterate — a Picard
/// linearization, as in MFIX).
pub fn assemble_momentum(field: &FlowField, c: Component, props: &FluidProps) -> MomentumSystem {
    let grid = field.grid;
    let mesh = grid.face_mesh(c);
    let n_axis = axis_of(c);
    let area = grid.area();
    let vol = grid.vol();
    let d_cond = props.nu * grid.h; // ν·h²/h
    let inertia = vol / props.dt;
    let mut counts = OpClassCounts::default();

    let mut matrix = DiaMatrix::new(mesh, &Offset3::seven_point());
    let mut rhs = vec![0.0; mesh.len()];
    let mut ap_out = vec![1.0; mesh.len()];
    let old = field.component(c);

    for (fx, fy, fz) in mesh.iter() {
        let row = mesh.idx(fx, fy, fz);
        if grid.is_normal_boundary(c, fx, fy, fz) {
            // Dirichlet identity row: stationary walls.
            matrix.set(fx, fy, fz, Offset3::CENTER, 1.0);
            rhs[row] = 0.0;
            counts.merge += 1; // boundary mask
            continue;
        }

        let pos = [fx as i32, fy as i32, fz as i32];
        let mut ap = inertia;
        let mut b = inertia * old[row];
        counts.flop += 1; // inertia * old

        // The two cells sharing this face (cell indices on the p-mesh).
        let mut cell_minus = pos;
        cell_minus[n_axis] -= 1;
        let cell_plus = pos;

        for axis in 0..3 {
            for (sign, plus) in [(1i32, true), (-1i32, false)] {
                // Neighbor face in the component's own mesh.
                let (dx, dy, dz) = AXES[axis];
                let nb = [pos[0] + sign * dx, pos[1] + sign * dy, pos[2] + sign * dz];
                let nb_exists =
                    mesh.neighbor(fx, fy, fz, sign * dx, sign * dy, sign * dz).is_some();

                // Convective flux through this CV face.
                let f_flux = if axis == n_axis {
                    // Normal direction: average of this face and the
                    // neighbor face of the same component.
                    let here = old[row];
                    let there = if nb_exists {
                        old[mesh.idx(nb[0] as usize, nb[1] as usize, nb[2] as usize)]
                    } else {
                        0.0
                    };
                    counts.transport += 1;
                    counts.flop += 2; // average
                    area * 0.5 * (here + there)
                } else {
                    // Tangential direction: average the crossing component
                    // at the faces of the two adjacent cells. At a wall
                    // (cell face on the boundary) those values are the
                    // stored boundary-face values (zero for no-penetration).
                    let cross = component_of(axis);
                    let cmesh = grid.face_mesh(cross);
                    let carr = field.component(cross);
                    let face_off = if plus { 1 } else { 0 };
                    let mut f1 = cell_minus;
                    f1[axis] += face_off;
                    let mut f2 = cell_plus;
                    f2[axis] += face_off;
                    let v1 = carr[cmesh.idx(f1[0] as usize, f1[1] as usize, f1[2] as usize)];
                    let v2 = carr[cmesh.idx(f2[0] as usize, f2[1] as usize, f2[2] as usize)];
                    counts.transport += 2;
                    counts.flop += 2;
                    area * 0.5 * (v1 + v2)
                };
                // Outflow-positive on the plus side, inflow-positive on the
                // minus side.
                let f_signed = if plus { f_flux } else { -f_flux };

                if nb_exists {
                    // Upwind neighbor coefficient.
                    let a_nb = d_cond + (-f_signed).max(0.0);
                    counts.merge += 1; // max()
                    counts.flop += 2; // add + sign fold
                    let nb_is_wall =
                        grid.is_normal_boundary(c, nb[0] as usize, nb[1] as usize, nb[2] as usize);
                    if nb_is_wall {
                        // The neighbor is a Dirichlet wall face (value 0):
                        // fold it into the right-hand side so the interior
                        // operator stays decoupled from identity rows.
                        // b += a_nb * 0.0
                    } else {
                        matrix.set(
                            fx,
                            fy,
                            fz,
                            Offset3::new(sign * dx, sign * dy, sign * dz),
                            -a_nb,
                        );
                    }
                    ap += a_nb + f_signed;
                    counts.flop += 2;
                } else {
                    // Tangential wall: half-cell ghost with value from the
                    // wall (the lid for U at the +z wall). No convection
                    // (no penetration).
                    let vw = wall_velocity(c, axis, plus, props);
                    ap += 2.0 * d_cond;
                    b += 2.0 * d_cond * vw;
                    counts.merge += 1; // boundary select
                    counts.flop += 3;
                }
            }
        }

        // Pressure gradient: (p_minus − p_plus) · area along the normal.
        let pmesh = grid.p_mesh();
        let pm = field.p
            [pmesh.idx(cell_minus[0] as usize, cell_minus[1] as usize, cell_minus[2] as usize)];
        let pp =
            field.p[pmesh.idx(cell_plus[0] as usize, cell_plus[1] as usize, cell_plus[2] as usize)];
        b += (pm - pp) * area;
        counts.transport += 2;
        counts.flop += 2;

        matrix.set(fx, fy, fz, Offset3::CENTER, ap);
        rhs[row] = b;
        ap_out[row] = ap;
    }

    MomentumSystem { component: c, matrix, rhs, ap: ap_out, counts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::StaggeredGrid;
    use stencil::stencil7::{diagonal_dominance_slack, is_symmetric};

    fn lid_field() -> FlowField {
        let grid = StaggeredGrid::new(4, 4, 4, 0.25);
        let mut f = FlowField::zeros(grid);
        // A little motion so convection is nonzero.
        for u in f.u.iter_mut() {
            *u = 0.3;
        }
        f
    }

    #[test]
    fn quiescent_system_is_symmetric_diffusion() {
        // With zero velocity everywhere, upwinding has nothing to upwind:
        // the interior of the operator is symmetric (diffusion + inertia).
        let f = FlowField::zeros(StaggeredGrid::new(4, 4, 4, 0.25));
        let sys = assemble_momentum(&f, Component::U, &FluidProps::default());
        assert!(sys.matrix.validate().is_ok());
        assert!(is_symmetric(&sys.matrix));
        assert!(diagonal_dominance_slack(&sys.matrix) > 0.0);
    }

    #[test]
    fn moving_field_gives_nonsymmetric_system() {
        let f = lid_field();
        let sys = assemble_momentum(&f, Component::U, &FluidProps::default());
        assert!(sys.matrix.validate().is_ok());
        assert!(!is_symmetric(&sys.matrix), "convection must break symmetry");
        assert!(
            diagonal_dominance_slack(&sys.matrix) >= -1e-12,
            "upwinding must preserve dominance"
        );
    }

    #[test]
    fn boundary_rows_are_identity() {
        let f = lid_field();
        let sys = assemble_momentum(&f, Component::U, &FluidProps::default());
        let mesh = f.grid.face_mesh(Component::U);
        let row = mesh.idx(0, 2, 2); // x-normal wall face
        assert_eq!(sys.matrix.row_entries(row), vec![(row, 1.0)]);
        assert_eq!(sys.rhs[row], 0.0);
        assert_eq!(sys.ap[row], 1.0);
    }

    #[test]
    fn lid_drives_top_adjacent_u_faces() {
        let f = FlowField::zeros(StaggeredGrid::new(4, 4, 4, 0.25));
        let props = FluidProps { lid_velocity: 2.0, ..Default::default() };
        let sys = assemble_momentum(&f, Component::U, &props);
        let mesh = f.grid.face_mesh(Component::U);
        let top = mesh.idx(2, 2, 3); // k = nz-1: adjacent to the lid
        let inner = mesh.idx(2, 2, 1);
        assert!(sys.rhs[top] > 0.0, "lid must inject momentum");
        assert_eq!(sys.rhs[inner], 0.0);
        // The v-component must NOT be driven by the lid.
        let sysv = assemble_momentum(&f, Component::V, &props);
        assert!(sysv.rhs.iter().all(|&b| b == 0.0));
    }

    #[test]
    fn pressure_gradient_enters_rhs() {
        let grid = StaggeredGrid::new(4, 4, 4, 0.25);
        let mut f = FlowField::zeros(grid);
        let pmesh = grid.p_mesh();
        for (i, j, k) in pmesh.iter() {
            f.p[pmesh.idx(i, j, k)] = i as f64; // gradient in +x
        }
        let sys = assemble_momentum(&f, Component::U, &FluidProps::default());
        let mesh = grid.face_mesh(Component::U);
        let row = mesh.idx(2, 2, 2);
        // p increases with x → (pm - pp) negative → rhs negative.
        assert!(sys.rhs[row] < 0.0);
        // V faces see no x-gradient.
        let sysv = assemble_momentum(&f, Component::V, &FluidProps::default());
        let vrow = grid.face_mesh(Component::V).idx(2, 2, 2);
        assert_eq!(sysv.rhs[vrow], 0.0);
    }

    #[test]
    fn op_counts_are_recorded() {
        let f = lid_field();
        let sys = assemble_momentum(&f, Component::U, &FluidProps::default());
        let interior = (f.grid.nx - 1) * f.grid.ny * f.grid.nz;
        let pp = sys.counts.per_point(interior);
        assert!(pp.flop > 10.0, "flops per point {}", pp.flop);
        assert!(pp.transport >= 6.0, "transports per point {}", pp.transport);
        assert!(pp.merge >= 4.0, "merges per point {}", pp.merge);
    }

    #[test]
    fn all_three_components_assemble() {
        let f = lid_field();
        for c in [Component::U, Component::V, Component::W] {
            let sys = assemble_momentum(&f, c, &FluidProps::default());
            assert!(sys.matrix.validate().is_ok(), "{c:?}");
            assert_eq!(sys.rhs.len(), f.grid.face_mesh(c).len());
        }
    }
}
