//! Residual tracking and stopping criteria shared by the solvers.

use stencil::{DiaMatrix, Scalar};
use wse_float::reduce::norm2_f64;

/// One iteration's residual record.
#[derive(Copy, Clone, Debug)]
pub struct IterationRecord {
    /// Iteration number (1-based: recorded after the update).
    pub iter: usize,
    /// Normwise relative *recursive* residual `‖r_i‖ / ‖b‖`, where `r_i` is
    /// the vector the iteration carries (what the wafer can observe cheaply).
    pub recursive_rel: f64,
    /// Normwise relative *true* residual `‖b − A x_i‖ / ‖b‖` evaluated in
    /// f64 against the solved (storage-precision) system — the honest
    /// quantity Fig. 9 plots.
    pub true_rel: f64,
}

/// Complete residual history of a solve.
#[derive(Clone, Debug, Default)]
pub struct History {
    /// Records, one per iteration.
    pub records: Vec<IterationRecord>,
}

impl History {
    /// Appends a record.
    pub fn push(&mut self, rec: IterationRecord) {
        self.records.push(rec);
    }

    /// The smallest true relative residual reached.
    pub fn best_true(&self) -> f64 {
        self.records.iter().map(|r| r.true_rel).fold(f64::INFINITY, f64::min)
    }

    /// The final recursive relative residual.
    pub fn final_recursive(&self) -> f64 {
        self.records.last().map_or(f64::INFINITY, |r| r.recursive_rel)
    }
}

/// Computes `‖b − A x‖₂ / ‖b‖₂` in f64, with the matrix and vectors in any
/// storage precision.
pub fn true_relative_residual<S: Scalar>(a: &DiaMatrix<S>, x: &[S], b: &[S]) -> f64 {
    let r = a.residual_f64(x, b);
    let bn: Vec<f64> = b.iter().map(|v| v.to_f64()).collect();
    let denom = norm2_f64(&bn);
    if denom == 0.0 {
        norm2_f64(&r)
    } else {
        norm2_f64(&r) / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil::mesh::Mesh3D;
    use stencil::stencil7::poisson;

    #[test]
    fn true_residual_zero_at_solution() {
        let a = poisson(Mesh3D::new(3, 3, 3));
        let x: Vec<f64> = (0..27).map(|i| (i % 4) as f64).collect();
        let mut b = vec![0.0; 27];
        a.matvec_f64(&x, &mut b);
        assert!(true_relative_residual(&a, &x, &b) < 1e-14);
    }

    #[test]
    fn true_residual_one_at_zero_guess() {
        let a = poisson(Mesh3D::new(3, 3, 3));
        let xs = vec![1.0; 27];
        let mut b = vec![0.0; 27];
        a.matvec_f64(&xs, &mut b);
        let x0 = vec![0.0; 27];
        let r = true_relative_residual(&a, &x0, &b);
        assert!((r - 1.0).abs() < 1e-14);
    }
}
