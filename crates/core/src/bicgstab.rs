//! The complete BiCGStab iteration on the wafer over the §IV.1 z-column
//! mapping.
//!
//! Vectors and matrix diagonals live entirely in tile SRAM; the two SpMVs
//! use the Listing-1 dataflow; the four inner products use the local
//! mixed-precision MAC followed by the Fig. 6 fp32 AllReduce; the six
//! AXPY/XPAY updates run on core-local fp16 data; the scalar coefficient
//! arithmetic (α, ω, β) is computed redundantly by every core in fp32
//! registers from the broadcast reductions.
//!
//! All of that is table data in [`crate::krylov`] ([`krylov::BICGSTAB`] /
//! [`krylov::BICGSTAB_FUSED`]), laid out by the one builder,
//! `krylov::build`. This module owns the register map.

use crate::krylov::{self, Program};
use stencil::dia::DiaMatrix;
use wse_arch::Fabric;
use wse_dsl::Layout;
use wse_float::F16;

pub use crate::krylov::{IterCycles, SolveStats};

/// Register allocation for the solver (per core).
pub mod regs {
    use wse_arch::types::Reg;
    /// ρ = (r̂₀, r) carried across iterations.
    pub const RHO: Reg = 0;
    /// (r̂₀, s).
    pub const R0S: Reg = 1;
    /// α.
    pub const ALPHA: Reg = 2;
    /// −α (AXPY subtracts via a negated register scalar).
    pub const NEG_ALPHA: Reg = 3;
    /// (q, y).
    pub const QY: Reg = 4;
    /// (y, y).
    pub const YY: Reg = 5;
    /// ω.
    pub const OMEGA: Reg = 6;
    /// −ω.
    pub const NEG_OMEGA: Reg = 7;
    /// ρ' = (r̂₀, r').
    pub const RHO_NEXT: Reg = 8;
    /// β.
    pub const BETA: Reg = 9;
    /// Scratch.
    pub const TMP: Reg = 10;
    /// ‖r‖² from the observability dot.
    pub const RR: Reg = 11;
    /// α·ω — the fused single-reduction iteration's `r += αω·(A s)`
    /// correction scalar (see `crate::multi`).
    pub const ALPHA_OMEGA: Reg = 12;
    /// Local dot accumulator.
    pub const DOT_ACC: Reg = 20;
    /// AllReduce input.
    pub const AR_IN: Reg = 24;
    /// AllReduce output.
    pub const AR_OUT: Reg = 25;
    /// AllReduce scratch.
    pub const AR_ACC: Reg = 26;
    /// Second AllReduce input (fused ω-step reduction).
    pub const AR_IN2: Reg = 27;
    /// Second AllReduce output.
    pub const AR_OUT2: Reg = 28;
    /// Second AllReduce scratch.
    pub const AR_ACC2: Reg = 29;
    /// Tiny denominator guard (set by `load_rhs`): the coefficient tasks
    /// have no conditionals, so breakdown-adjacent divisions are regularized
    /// with `x/(y+ε)` instead of being branched around.
    pub const EPS: Reg = 31;
}

/// The wafer-resident BiCGStab solver: a constructor for the z-column
/// [`Program`], which it derefs to (`load_rhs`, `iterate`, `read_x`, and —
/// with [`crate::Krylov`] in scope — `solve` / `solve_with_recovery`).
pub struct WaferBicgstab(Program);

impl std::ops::Deref for WaferBicgstab {
    type Target = Program;
    fn deref(&self) -> &Program {
        &self.0
    }
}

impl WaferBicgstab {
    /// Distributes the system matrix and builds every tile's programs.
    ///
    /// # Panics
    /// Panics if the matrix is not a unit-diagonal 7-point operator (a
    /// nonzero band at any other offset is named), the mesh exceeds the
    /// fabric, or any tile runs out of SRAM.
    pub fn build(fabric: &mut Fabric, a: &DiaMatrix<F16>) -> WaferBicgstab {
        WaferBicgstab(krylov::build(fabric, a, Layout::columns(fabric, a), &krylov::BICGSTAB))
    }

    /// Builds the **communication-fused** variant: the ω-step's two inner
    /// products `(q,y)` and `(y,y)` reduce **concurrently** over two
    /// disjoint virtual-channel networks, cutting the blocking reduction
    /// rounds per iteration from four to three. (The paper notes it "did
    /// not use a communication-hiding variant of BiCGStab", making the
    /// collectives blocking; this is the first step of that optimization,
    /// implementable with routing alone.)
    ///
    /// # Panics
    /// As for [`WaferBicgstab::build`].
    pub fn build_fused(fabric: &mut Fabric, a: &DiaMatrix<F16>) -> WaferBicgstab {
        WaferBicgstab(krylov::build(fabric, a, Layout::columns(fabric, a), &krylov::BICGSTAB_FUSED))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::krylov::HostExec;
    use crate::Krylov;
    use stencil::mesh::Mesh3D;
    use stencil::problem::manufactured;
    use stencil::MixedF16;

    fn problem(mesh: Mesh3D) -> (DiaMatrix<F16>, Vec<F16>, Vec<f64>) {
        let p = manufactured(mesh, (1.0, -0.5, 0.5), 11).preconditioned();
        let a16: DiaMatrix<F16> = p.matrix.convert();
        let b16: Vec<F16> = p.rhs.iter().map(|&v| F16::from_f64(v)).collect();
        (a16, b16, p.exact.unwrap())
    }

    #[test]
    fn wafer_bicgstab_converges() {
        let mesh = Mesh3D::new(4, 4, 8);
        let (a, b, exact) = problem(mesh);
        let mut fabric = Fabric::new(4, 4);
        let solver = WaferBicgstab::build(&mut fabric, &a);
        let (x, stats) = solver.solve(&mut fabric, &b, 12);
        let last = *stats.residuals.last().unwrap();
        assert!(last < 0.05, "relative residual after 12 iters: {last}");
        // Solution should be close to the exact one at fp16 level.
        let err = x.iter().zip(&exact).map(|(a, b)| (a.to_f64() - b).abs()).fold(0.0, f64::max);
        let scale = exact.iter().map(|v| v.abs()).fold(0.0, f64::max);
        assert!(err < 0.15 * scale.max(1.0), "max err {err} (scale {scale})");
    }

    #[test]
    fn wafer_matches_host_mixed_policy_trajectory() {
        // The wafer solve and the host MixedF16 solve use the same
        // arithmetic classes (fp16 storage, fp32 dot accumulation); their
        // residual trajectories agree to within rounding-order noise.
        let mesh = Mesh3D::new(3, 3, 6);
        let (a, b, _) = problem(mesh);
        let mut fabric = Fabric::new(3, 3);
        let solver = WaferBicgstab::build(&mut fabric, &a);
        let iters = 6;
        let (_, stats) = solver.solve(&mut fabric, &b, iters);

        let mut host =
            HostExec::<MixedF16, _>::new(&krylov::BICGSTAB, |x: &[F16], y: &mut [F16]| {
                a.matvec(x, y);
            });
        host.load_rhs(&b);
        let norm = |v: &[F16]| v.iter().map(|v| v.to_f64() * v.to_f64()).sum::<f64>().sqrt();
        // Once either trajectory reaches the fp16 storage noise floor
        // (2^-11 ≈ 4.9e-4 relative), recursive residuals are rounding noise
        // and their ratio is instance-dependent; clamp the comparison there.
        let floor = 5e-4;
        assert_eq!(stats.residuals.len(), iters);
        for (i, &wafer) in stats.residuals.iter().enumerate() {
            host.iterate();
            let wafer = wafer.max(floor);
            let host_rel = (norm(host.r()) / norm(&b)).max(floor);
            let ratio = (wafer / host_rel).max(host_rel / wafer);
            assert!(ratio < 5.0, "iter {}: wafer {wafer:.3e} vs host {host_rel:.3e}", i + 1,);
        }
    }

    #[test]
    fn spmv_dominates_iteration_cycles_for_large_z() {
        let mesh = Mesh3D::new(3, 3, 64);
        let (a, b, _) = problem(mesh);
        let mut fabric = Fabric::new(3, 3);
        let solver = WaferBicgstab::build(&mut fabric, &a);
        solver.load_rhs(&mut fabric, &b);
        let c = solver.iterate(&mut fabric);
        assert!(c.spmv > c.dot, "{c:?}");
        assert!(c.spmv > c.update, "{c:?}");
        assert!(c.total() > 0);
    }

    #[test]
    fn solve_writes_only_allocated_sram() {
        // The e2e `solve3d-dense` shape. A tile's SRAM is backed up to its
        // furthest allocation or write, so after build, load and two
        // iterations the backing must end exactly at the allocator: a
        // longer one is a write outside every allocation.
        let (a, b, _) = problem(Mesh3D::new(8, 8, 64));
        let mut fabric = Fabric::new(8, 8);
        let solver = WaferBicgstab::build(&mut fabric, &a);
        solver.load_rhs(&mut fabric, &b);
        for _ in 0..2 {
            solver.iterate(&mut fabric);
        }
        for y in 0..8 {
            for x in 0..8 {
                let mem = &fabric.tile(x, y).mem;
                assert_eq!(mem.as_bytes().len(), mem.used() as usize, "tile ({x},{y})");
            }
        }
    }

    #[test]
    fn fused_variant_matches_standard_and_cuts_reduction_rounds() {
        let mesh = Mesh3D::new(8, 8, 16);
        let (a, b, _) = problem(mesh);
        let iters = 6;

        let mut f1 = Fabric::new(8, 8);
        let standard = WaferBicgstab::build(&mut f1, &a);
        let (_, s1) = standard.solve(&mut f1, &b, iters);

        let mut f2 = Fabric::new(8, 8);
        let fused = WaferBicgstab::build_fused(&mut f2, &a);
        let (_, s2) = fused.solve(&mut f2, &b, iters);

        // Same numerics up to reduction-order rounding: under port
        // contention the two networks' f32 sums associate differently, so
        // trajectories agree early and may drift late (as with any
        // reduction-order change). Check the early iterations tightly and
        // overall convergence loosely.
        for (r1, r2) in s1.residuals.iter().zip(&s2.residuals).take(3) {
            let ratio = (r1 / r2).max(r2 / r1);
            assert!(ratio < 1.2, "early trajectories must agree: {r1} vs {r2}");
        }
        let best1 = s1.residuals.iter().copied().fold(f64::INFINITY, f64::min);
        let best2 = s2.residuals.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(best2 < 10.0 * best1 + 0.05, "fused must converge comparably: {best1} vs {best2}");
        // Fewer blocking reduction rounds -> fewer allreduce cycles. (The
        // benefit grows with fabric diameter; at 8x8 it is ~10%, at 24x24
        // ~14%, and at machine scale the fused round approaches the cost of
        // a single one.)
        let ar1: u64 = s1.iterations.iter().map(|c| c.allreduce).sum();
        let ar2: u64 = s2.iterations.iter().map(|c| c.allreduce).sum();
        assert!((ar2 as f64) < 0.95 * ar1 as f64, "fused must cut reduction time: {ar1} -> {ar2}");
        assert!(s2.mean_cycles() < s1.mean_cycles(), "fused iteration is faster overall");
    }

    #[test]
    fn memory_fits_paper_z() {
        use crate::cg::{CgVariant, WaferCg};
        use crate::WaferBicgstabMulti;
        use wse_multi::{HostLink, MultiFabric};

        // Every storage table must accommodate the paper's Z = 1536 in
        // 48 KB. The ensembles are measured on a seam tile, which adds a
        // halo buffer; the single-reduction one has under 3 KB to spare.
        let (a, ..) = problem(Mesh3D::new(4, 2, 1536));
        let single = |build: &dyn Fn(&mut Fabric)| {
            let mut fabric = Fabric::new(4, 2);
            build(&mut fabric);
            fabric.tile(0, 0).mem.used()
        };
        type Build = fn(&mut MultiFabric, &DiaMatrix<F16>) -> WaferBicgstabMulti;
        let seam_tile = |build: Build| {
            let mut multi = MultiFabric::new(4, 2, 2, HostLink::paper_default());
            build(&mut multi, &a);
            multi.shard(0).tile(1, 0).mem.used()
        };
        // (builder, bytes used, z-vectors the layout must hold)
        let cases = [
            ("bicgstab", single(&|f| drop(WaferBicgstab::build(f, &a))), 13),
            ("cg", single(&|f| drop(WaferCg::build(f, &a, CgVariant::Standard))), 10),
            ("cg-single", single(&|f| drop(WaferCg::build(f, &a, CgVariant::SingleReduction))), 11),
            ("ensemble", seam_tile(WaferBicgstabMulti::build), 14),
            ("ensemble-single", seam_tile(WaferBicgstabMulti::build_fused), 15),
        ];
        for (name, used, vectors) in cases {
            assert!(used <= 48 * 1024, "{name}: tile memory {used} exceeds SRAM");
            assert!(used > 2 * 1536 * vectors, "{name}: {vectors} Z-vectors expected, got {used}");
        }
    }

    #[test]
    #[should_panic(expected = "SRAM: X on tile (0, 0) needs 4000 B, 1144 B free")]
    fn too_large_a_z_names_the_vector_that_did_not_fit() {
        WaferBicgstab::build(&mut Fabric::new(2, 2), &problem(Mesh3D::new(2, 2, 2000)).0);
    }
}
