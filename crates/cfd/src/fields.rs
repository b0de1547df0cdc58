//! The flow state: staggered velocity components and cell-centered pressure.

use crate::grid::{Component, StaggeredGrid};

/// Velocities on faces, pressure at centers.
#[derive(Clone, Debug)]
pub struct FlowField {
    /// Grid geometry.
    pub grid: StaggeredGrid,
    /// x-velocity on x-faces, `(nx+1) × ny × nz`.
    pub u: Vec<f64>,
    /// y-velocity on y-faces, `nx × (ny+1) × nz`.
    pub v: Vec<f64>,
    /// z-velocity on z-faces, `nx × ny × (nz+1)`.
    pub w: Vec<f64>,
    /// Pressure at cell centers.
    pub p: Vec<f64>,
}

impl FlowField {
    /// A quiescent (zero) field.
    pub fn zeros(grid: StaggeredGrid) -> FlowField {
        FlowField {
            grid,
            u: vec![0.0; grid.face_mesh(Component::U).len()],
            v: vec![0.0; grid.face_mesh(Component::V).len()],
            w: vec![0.0; grid.face_mesh(Component::W).len()],
            p: vec![0.0; grid.p_mesh().len()],
        }
    }

    /// The component's value array.
    pub fn component(&self, c: Component) -> &[f64] {
        match c {
            Component::U => &self.u,
            Component::V => &self.v,
            Component::W => &self.w,
        }
    }

    /// The component's value array, mutable.
    pub fn component_mut(&mut self, c: Component) -> &mut Vec<f64> {
        match c {
            Component::U => &mut self.u,
            Component::V => &mut self.v,
            Component::W => &mut self.w,
        }
    }

    /// `u` at face `(i, j, k)` of the u-mesh.
    #[inline]
    pub fn u_at(&self, i: usize, j: usize, k: usize) -> f64 {
        self.u[self.grid.face_mesh(Component::U).idx(i, j, k)]
    }

    /// `v` at face `(i, j, k)` of the v-mesh.
    #[inline]
    pub fn v_at(&self, i: usize, j: usize, k: usize) -> f64 {
        self.v[self.grid.face_mesh(Component::V).idx(i, j, k)]
    }

    /// `w` at face `(i, j, k)` of the w-mesh.
    #[inline]
    pub fn w_at(&self, i: usize, j: usize, k: usize) -> f64 {
        self.w[self.grid.face_mesh(Component::W).idx(i, j, k)]
    }

    /// Net volumetric outflow of cell `(i, j, k)` divided by `h²` (i.e. the
    /// sum of face-velocity differences) — zero for a divergence-free field.
    pub fn divergence(&self, i: usize, j: usize, k: usize) -> f64 {
        (self.u_at(i + 1, j, k) - self.u_at(i, j, k))
            + (self.v_at(i, j + 1, k) - self.v_at(i, j, k))
            + (self.w_at(i, j, k + 1) - self.w_at(i, j, k))
    }

    /// RMS of the cell divergences — the mass-conservation residual.
    pub fn divergence_rms(&self) -> f64 {
        let mesh = self.grid.p_mesh();
        let mut sum = 0.0;
        for (i, j, k) in mesh.iter() {
            let d = self.divergence(i, j, k);
            sum += d * d;
        }
        (sum / mesh.len() as f64).sqrt()
    }

    /// Total kinetic energy proxy: Σ of squared face velocities.
    pub fn kinetic_energy(&self) -> f64 {
        let s: f64 = self.u.iter().map(|x| x * x).sum::<f64>()
            + self.v.iter().map(|x| x * x).sum::<f64>()
            + self.w.iter().map(|x| x * x).sum::<f64>();
        0.5 * s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_field_is_divergence_free() {
        let f = FlowField::zeros(StaggeredGrid::new(3, 3, 3, 1.0));
        assert_eq!(f.divergence_rms(), 0.0);
        assert_eq!(f.kinetic_energy(), 0.0);
    }

    #[test]
    fn uniform_flow_is_divergence_free() {
        let mut f = FlowField::zeros(StaggeredGrid::new(4, 3, 2, 1.0));
        for u in f.u.iter_mut() {
            *u = 2.5;
        }
        assert_eq!(f.divergence_rms(), 0.0);
        assert!(f.kinetic_energy() > 0.0);
    }

    #[test]
    fn point_source_shows_divergence() {
        let g = StaggeredGrid::new(3, 3, 3, 1.0);
        let mut f = FlowField::zeros(g);
        // Outflow through the +x face of cell (1,1,1).
        let um = g.face_mesh(Component::U);
        f.u[um.idx(2, 1, 1)] = 1.0;
        assert_eq!(f.divergence(1, 1, 1), 1.0);
        assert_eq!(f.divergence(2, 1, 1), -1.0);
        assert!(f.divergence_rms() > 0.0);
    }

    #[test]
    fn component_accessors_roundtrip() {
        let g = StaggeredGrid::new(2, 2, 2, 1.0);
        let mut f = FlowField::zeros(g);
        f.component_mut(Component::V)[0] = 3.0;
        assert_eq!(f.component(Component::V)[0], 3.0);
        assert_eq!(f.v_at(0, 0, 0), 3.0);
    }
}
