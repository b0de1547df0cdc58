//! Conjugate gradients on the wafer — the symmetric baseline, in two
//! communication flavors.
//!
//! * [`CgVariant::Standard`] — textbook CG: two blocking reduction rounds
//!   per iteration (`(p, Ap)` and `(r, r)`).
//! * [`CgVariant::SingleReduction`] — Chronopoulos–Gear CG: `γ = (r, r)`
//!   and `δ = (r, A r)` reduce **together in one round** over the two
//!   concurrent Fig. 6 networks, and `q = A p` is maintained by recurrence
//!   — the communication-reducing restructuring the paper's discussion of
//!   communication-avoiding methods points toward, here actually running on
//!   the (simulated) fabric.
//!
//! Both are tables in [`crate::krylov`] ([`krylov::CG`] /
//! [`krylov::CG_SINGLE`]: one phase table, two storage orders), built by
//! the one builder, `krylov::build`; this module owns CG's register map.

use crate::krylov::{self, Program};
use stencil::dia::DiaMatrix;
use wse_arch::Fabric;
use wse_dsl::Layout;
use wse_float::F16;

/// Register allocation. The reduction inputs / outputs and the breakdown
/// guard are the BiCGStab map's own (the shared builder wires the networks);
/// CG's private registers are disjoint from the *classic* BiCGStab set
/// (0..=11 and the dot accumulator 20). They are not disjoint from the
/// single-reduction ensemble's: `GAMMA` shares r12 with `ALPHA_OMEGA`.
pub(crate) mod regs {
    use crate::bicgstab::regs as classic;
    pub use crate::bicgstab::regs::{AR_IN, AR_IN2, AR_OUT, AR_OUT2, EPS};
    use wse_arch::types::Reg;
    pub const GAMMA: Reg = 12;
    pub const GAMMA_PREV: Reg = 13;
    pub const DELTA: Reg = 14;
    pub const ALPHA: Reg = 15;
    pub const ALPHA_PREV: Reg = 16;
    pub const NEG_ALPHA: Reg = 17;
    pub const BETA: Reg = 18;
    pub const TMP: Reg = 19;
    pub const DOT_ACC: Reg = 21;

    // The private run 12..=19 sits above the classic scalars (RR is the last)
    // and below the classic dot accumulator; CG's own is just past it.
    const _: () = assert!(GAMMA > classic::RR && TMP < classic::DOT_ACC);
    const _: () = assert!(DOT_ACC > classic::DOT_ACC && DOT_ACC < AR_IN);
}

/// Which CG formulation to run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CgVariant {
    /// Two reduction rounds per iteration.
    Standard,
    /// Chronopoulos–Gear: one (dual-network) round per iteration.
    SingleReduction,
}

/// The wafer-resident CG solver: a constructor for the z-column
/// [`Program`], which it derefs to (sequenced by [`krylov::CG`] or
/// [`krylov::CG_SINGLE`]).
pub struct WaferCg(Program);

impl std::ops::Deref for WaferCg {
    type Target = Program;
    fn deref(&self) -> &Program {
        &self.0
    }
}

impl WaferCg {
    /// Distributes the (SPD, unit-diagonal, 7-point) system and builds the
    /// per-tile programs.
    ///
    /// # Panics
    /// Panics on non-unit-diagonal input, a nonzero band outside the seven
    /// points (named), fabric overflow, or SRAM exhaustion.
    pub fn build(fabric: &mut Fabric, a: &DiaMatrix<F16>, variant: CgVariant) -> WaferCg {
        let recurrence = match variant {
            CgVariant::Standard => &krylov::CG,
            CgVariant::SingleReduction => &krylov::CG_SINGLE,
        };
        WaferCg(krylov::build(fabric, a, Layout::columns(fabric, a), recurrence))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Krylov;
    use stencil::mesh::Mesh3D;
    use stencil::precond::jacobi_scale;
    use stencil::stencil7::poisson;

    fn spd_system(mesh: Mesh3D) -> (DiaMatrix<F16>, Vec<F16>, Vec<f64>) {
        let a = poisson(mesh);
        let exact: Vec<f64> = (0..mesh.len()).map(|i| ((i * 7) % 9) as f64 * 0.125 - 0.5).collect();
        let mut b = vec![0.0; mesh.len()];
        a.matvec_f64(&exact, &mut b);
        let sys = jacobi_scale(&a, &b);
        let a16: DiaMatrix<F16> = sys.matrix.convert();
        let b16: Vec<F16> = sys.rhs.iter().map(|&v| F16::from_f64(v)).collect();
        (a16, b16, exact)
    }

    #[test]
    fn standard_cg_converges_on_wafer() {
        let mesh = Mesh3D::new(4, 4, 8);
        let (a, b, exact) = spd_system(mesh);
        let mut fabric = Fabric::new(4, 4);
        let cg = WaferCg::build(&mut fabric, &a, CgVariant::Standard);
        let (x, stats) = cg.solve(&mut fabric, &b, 20);
        let last = *stats.residuals.last().unwrap();
        assert!(last < 0.02, "residual {last}");
        let err = x.iter().zip(&exact).map(|(a, b)| (a.to_f64() - b).abs()).fold(0.0_f64, f64::max);
        assert!(err < 0.05, "max err {err}");
    }

    #[test]
    fn single_reduction_cg_matches_standard() {
        let mesh = Mesh3D::new(4, 4, 8);
        let (a, b, _) = spd_system(mesh);

        let mut f1 = Fabric::new(4, 4);
        let std_cg = WaferCg::build(&mut f1, &a, CgVariant::Standard);
        let (_, s1) = std_cg.solve(&mut f1, &b, 10);

        let mut f2 = Fabric::new(4, 4);
        let cg2 = WaferCg::build(&mut f2, &a, CgVariant::SingleReduction);
        let (_, s2) = cg2.solve(&mut f2, &b, 10);

        // Same math, same trajectory (to fp16/f32 rounding noise).
        for (a, b) in s1.residuals.iter().zip(&s2.residuals).take(6) {
            let ratio = (a / b).max(b / a);
            assert!(ratio < 1.5, "trajectories: {a} vs {b}");
        }
        // Half the blocking rounds: the single fused round costs less than
        // the two standard rounds.
        let ar1: u64 = s1.iterations.iter().map(|c| c.allreduce).sum();
        let ar2: u64 = s2.iterations.iter().map(|c| c.allreduce).sum();
        assert!(
            (ar2 as f64) < 0.8 * ar1 as f64,
            "single-reduction must cut reduction cycles: {ar1} -> {ar2}"
        );
    }

    #[test]
    fn cg_cycles_breakdown_is_sane() {
        let mesh = Mesh3D::new(3, 3, 32);
        let (a, b, _) = spd_system(mesh);
        let mut fabric = Fabric::new(3, 3);
        let cg = WaferCg::build(&mut fabric, &a, CgVariant::Standard);
        cg.load_rhs(&mut fabric, &b);
        let c = cg.iterate(&mut fabric);
        assert!(c.spmv > 0 && c.dot > 0 && c.allreduce > 0 && c.update > 0);
        // CG has one SpMV per iteration: roughly half BiCGStab's SpMV time.
        assert!(c.spmv < 2 * 4 * 32, "one SpMV only: {c:?}");
    }
}
