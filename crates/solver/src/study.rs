//! Precision-study driver: the machinery behind Fig. 9.
//!
//! The paper "took a linear system from the timestep discretization ... of
//! the momentum equation" and compared single and mixed sp/hp BiCGStab. This
//! module takes an f64 master system, narrows the matrix and right-hand side
//! to each policy's storage precision, solves, and reports the normwise
//! relative residual **against the original f64 system** every iteration —
//! so the rounding of the matrix itself (an O(ε₁₆)·‖A‖ perturbation) is
//! correctly charged to the low-precision runs, as it would be on hardware.

use crate::policy::Precision;
use crate::{bicgstab, SolveOptions};
use stencil::scalar::convert_slice;
use stencil::{DiaMatrix, Scalar};
use wse_float::reduce::norm2_f64;

/// One precision's residual trajectory.
#[derive(Clone, Debug)]
pub struct PrecisionCurve {
    /// Policy display name ("fp32", "mixed16/32", ...).
    pub policy: &'static str,
    /// Relative true residual vs the **original f64 system**, per iteration
    /// (index 0 = after iteration 1).
    pub residuals: Vec<f64>,
    /// Iterations actually run.
    pub iters: usize,
    /// How the solve ended, as a display string.
    pub outcome: String,
}

impl PrecisionCurve {
    /// Best (smallest) residual along the trajectory.
    pub fn best(&self) -> f64 {
        self.residuals.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Runs BiCGStab under policy `P` on a narrowed copy of the f64 master
/// system, measuring residuals against the master.
pub fn run_policy<P: Precision>(
    a64: &DiaMatrix<f64>,
    b64: &[f64],
    opts: &SolveOptions,
) -> PrecisionCurve {
    let a: DiaMatrix<P::Storage> = a64.convert();
    let b: Vec<P::Storage> = convert_slice(b64);
    let result = bicgstab::<P>(&a, &b, opts);
    // Reported: the true residuals of the narrowed system, with the last
    // point taken against the f64 master.
    let mut residuals: Vec<f64> = result.history.records.iter().map(|r| r.true_rel).collect();
    let xf: Vec<f64> = result.x.iter().map(|v| v.to_f64()).collect();
    let mut ax = vec![0.0; xf.len()];
    a64.matvec_f64(&xf, &mut ax);
    let final_master: f64 = {
        let r: Vec<f64> = b64.iter().zip(&ax).map(|(b, a)| b - a).collect();
        norm2_f64(&r) / norm2_f64(b64)
    };
    if let Some(last) = residuals.last_mut() {
        *last = final_master;
    }
    PrecisionCurve {
        policy: P::NAME,
        residuals,
        iters: result.iters,
        outcome: format!("{:?}", result.outcome),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Fp32, Fp64, MixedF16, PureF16};
    use stencil::mesh::Mesh3D;
    use stencil::problem::manufactured;

    fn master() -> (DiaMatrix<f64>, Vec<f64>) {
        let p = manufactured(Mesh3D::new(8, 8, 8), (1.5, -0.5, 0.5), 77).preconditioned();
        (p.matrix, p.rhs)
    }

    #[test]
    fn fig9_ordering_of_attainable_accuracy() {
        let (a, b) = master();
        let opts = SolveOptions { max_iters: 30, rtol: 1e-12, record_true_residual: true };
        let c64 = run_policy::<Fp64>(&a, &b, &opts);
        let c32 = run_policy::<Fp32>(&a, &b, &opts);
        let cmx = run_policy::<MixedF16>(&a, &b, &opts);
        assert!(c64.best() < 1e-10, "fp64 best {}", c64.best());
        assert!(c32.best() < 1e-4, "fp32 best {}", c32.best());
        assert!(c32.best() > c64.best(), "fp32 cannot beat fp64");
        assert!(cmx.best() < 5e-2, "mixed best {}", cmx.best());
        assert!(cmx.best() > c32.best(), "mixed plateaus above fp32");
    }

    #[test]
    fn mixed_tracks_fp32_early_then_plateaus() {
        // Fig 9: "Up to iteration 7 the mixed precision implementation
        // tracks the 32-bit, but then fails to reduce the residual further."
        let (a, b) = master();
        let opts = SolveOptions { max_iters: 25, rtol: 1e-12, record_true_residual: true };
        let c32 = run_policy::<Fp32>(&a, &b, &opts);
        let cmx = run_policy::<MixedF16>(&a, &b, &opts);
        // Early iterations: same order of magnitude.
        let k = 2.min(cmx.residuals.len() - 1);
        let ratio = cmx.residuals[k] / c32.residuals[k].max(1e-300);
        assert!(ratio < 30.0, "early-iteration divergence too large: {ratio}");
        // Late iterations: mixed stuck well above fp32's floor.
        assert!(cmx.best() / c32.best().max(1e-300) > 10.0);
    }

    #[test]
    fn pure_f16_is_no_better_than_mixed() {
        let (a, b) = master();
        let opts = SolveOptions { max_iters: 25, rtol: 1e-12, record_true_residual: true };
        let cmx = run_policy::<MixedF16>(&a, &b, &opts);
        let cpu = run_policy::<PureF16>(&a, &b, &opts);
        assert!(cpu.best() >= cmx.best() * 0.5, "pure fp16 should not beat mixed meaningfully");
    }
}
