//! The complete BiCGStab iteration on the wafer: program construction.
//!
//! Vectors and matrix diagonals live entirely in tile SRAM; the two SpMVs
//! use the Listing-1 dataflow; the four inner products use the local
//! mixed-precision MAC followed by the Fig. 6 fp32 AllReduce; the six
//! AXPY/XPAY updates run on core-local fp16 data; the scalar coefficient
//! arithmetic (α, ω, β) is computed redundantly by every core in fp32
//! registers from the broadcast reductions.
//!
//! This module lays out SRAM and emits the per-tile tasks; the built
//! [`Program`] is sequenced by the shared driver in [`crate::krylov`]
//! (tables [`krylov::BICGSTAB`] / [`krylov::BICGSTAB_FUSED`]).

use crate::allreduce::AllReduce;
use crate::kernels::{dot_stmts, reg_mov, reg_neg, reg_op, xpay_stmts};
use crate::krylov::{self, Layout, Program, Slot, Tasks, Vecs};
use crate::spmv3d::{build_spmv_tile, load_coefficients, tile_coefficients, SpmvLayout};
use stencil::decomp::Mapping3D;
use stencil::dia::DiaMatrix;
use stencil::precond::has_unit_diagonal;
use wse_arch::core::Core;
use wse_arch::dsr::mk;
use wse_arch::instr::{Op, RegOp, Stmt, Task, TensorInstr};
use wse_arch::types::Dtype;
use wse_arch::{Fabric, Tile};
use wse_dsl::tess::configure_spmv_routes;
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

/// Per-tile memory layout of the solver vectors (byte addresses). Shared
/// with the multi-wafer driver ([`crate::multi`]), which lays its tiles
/// out identically.
#[derive(Copy, Clone, Debug)]
pub(crate) struct TileVecs {
    /// Padded p (SpMV source), `z + 2` words; live at `+2` bytes.
    pub(crate) p_pad: u32,
    /// Padded q (SpMV source), `z + 2` words.
    pub(crate) q_pad: u32,
    /// s = A p.
    pub(crate) s: u32,
    /// y = A q.
    pub(crate) y: u32,
    /// Residual r.
    pub(crate) r: u32,
    /// Shadow residual r̂₀.
    pub(crate) r0: u32,
    /// Iterate x.
    pub(crate) x: u32,
}

/// Allocates one solver tile's SRAM: six coefficient diagonals followed by
/// the seven iteration vectors, in the fixed order both drivers share.
///
/// # Panics
/// Panics if the tile runs out of SRAM.
pub(crate) fn alloc_solver_vecs(tile: &mut Tile, z: u32) -> ([u32; 6], TileVecs) {
    let mut diag = [0u32; 6];
    for d in &mut diag {
        *d = tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM: diagonals");
    }
    let vecs = TileVecs {
        p_pad: tile.mem.alloc_vec(z + 2, Dtype::F16).expect("SRAM: p"),
        q_pad: tile.mem.alloc_vec(z + 2, Dtype::F16).expect("SRAM: q"),
        s: tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM: s"),
        y: tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM: y"),
        r: tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM: r"),
        r0: tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM: r0"),
        x: tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM: x"),
    };
    (diag, vecs)
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
    /// Panics if the matrix is not a unit-diagonal 7-point operator, the
    /// mesh exceeds the fabric, or any tile runs out of SRAM.
    pub fn build(fabric: &mut Fabric, a: &DiaMatrix<F16>) -> WaferBicgstab {
        Self::build_inner(fabric, a, false)
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
        Self::build_inner(fabric, a, true)
    }

    fn build_inner(fabric: &mut Fabric, a: &DiaMatrix<F16>, fused: bool) -> WaferBicgstab {
        assert!(has_unit_diagonal(a), "matrix must be diagonally preconditioned");
        assert_eq!(a.offsets().len(), 7, "7-point stencil required");
        let mesh = a.mesh();
        let mapping = Mapping3D::new(mesh, fabric.width(), fabric.height());
        let (w, h) = (mapping.fabric_w, mapping.fabric_h);
        let z = mapping.z as u32;

        configure_spmv_routes(fabric, w, h);
        let allreduce = AllReduce::build(fabric, w, h, regs::AR_IN, regs::AR_OUT, regs::AR_ACC);
        let allreduce2 = fused.then(|| {
            AllReduce::build_with_base(
                fabric,
                w,
                h,
                regs::AR_IN2,
                regs::AR_OUT2,
                regs::AR_ACC2,
                crate::allreduce::colors::DEFAULT_BASE + crate::allreduce::colors::SPAN,
            )
        });

        let mut tiles = Vec::with_capacity(w * h);
        for y in 0..h {
            for x in 0..w {
                // Fused mode: one combined task per tile drives both
                // reduction networks concurrently.
                let reduce_both = allreduce2
                    .as_ref()
                    .map(|second| allreduce.build_fused_task(second, fabric, x, y));
                let tile = fabric.tile_mut(x, y);

                // Shared coefficient storage for both SpMVs.
                let (diag, vecs) = alloc_solver_vecs(tile, z);
                let coeffs = tile_coefficients(a, x, y);
                let lay_ps = SpmvLayout { z, diag, vpad: vecs.p_pad, u: vecs.s };
                let lay_qy = SpmvLayout { z, diag, vpad: vecs.q_pad, u: vecs.y };
                load_coefficients(tile, &lay_ps, &coeffs);
                // Zero the pads once; the live parts are rewritten by XPAYs.
                tile.mem.write_f16(vecs.p_pad, F16::ZERO);
                tile.mem.write_f16(vecs.p_pad + 2 * (z + 1), F16::ZERO);
                tile.mem.write_f16(vecs.q_pad, F16::ZERO);
                tile.mem.write_f16(vecs.q_pad + 2 * (z + 1), F16::ZERO);

                let spmv_ps = build_spmv_tile(tile, x, y, w, h, lay_ps, None);
                let spmv_qy = build_spmv_tile(tile, x, y, w, h, lay_qy, None);
                let mut tasks = build_scalar_tasks(&mut tile.core, &vecs, z);
                tasks[Slot::SpmvPs] = spmv_ps.start;
                tasks[Slot::SpmvQy] = spmv_qy.start;
                tasks[Slot::Reduce] = allreduce.task(x, y);
                if let Some(t) = reduce_both {
                    tasks[Slot::ReduceBoth] = t;
                }
                let host = Vecs {
                    x: vecs.x,
                    r: vecs.r,
                    r0: vecs.r0,
                    p: vecs.p_pad + 2,
                    ..Vecs::default()
                };
                tiles.push((tasks, host));
            }
        }
        crate::debug_lint(fabric);
        let recurrence = if fused { &krylov::BICGSTAB_FUSED } else { &krylov::BICGSTAB };
        let budget = 200 * mapping.z as u64 + 200 * (w + h) as u64 + 50_000;
        WaferBicgstab(Program::new(recurrence, Layout::ZColumn(mapping), (0, 0), tiles, budget))
    }
}

/// The scalar coefficient tasks' debug names (part of the program bytes)
/// under a layout's name prefix, in [`build_coefficient_tasks`] order.
macro_rules! coefficient_names {
    ($prefix:literal) => {
        [
            concat!($prefix, "post_r0s"),
            concat!($prefix, "post_qy"),
            concat!($prefix, "post_yy"),
            concat!($prefix, "post_rho"),
            concat!($prefix, "post_omega_fused"),
            concat!($prefix, "init_rho"),
            concat!($prefix, "post_rr"),
        ]
    };
}
pub(crate) use coefficient_names;

/// Emits the scalar coefficient tasks — α, ω, β and the ρ / ‖r‖² stashes,
/// computed redundantly by every core from the broadcast reductions — into
/// their slots. The algebra is layout-independent, so every BiCGStab
/// builder shares it; `names` is [`coefficient_names!`] of the layout's
/// prefix, and only the ω-fused recurrence needs `post_omega_fused`.
pub(crate) fn build_coefficient_tasks(
    core: &mut Core,
    tasks: &mut Tasks,
    names: [&'static str; 7],
    with_omega_fused: bool,
) {
    let [post_r0s, post_qy, post_yy, post_rho, post_omega_fused, init_rho, post_rr] = names;
    tasks[Slot::PostR0s] = core.add_task(Task::new(
        post_r0s,
        vec![
            reg_mov(regs::R0S, regs::AR_OUT),
            reg_op(RegOp::Add, regs::R0S, regs::R0S, regs::EPS),
            reg_op(RegOp::Div, regs::ALPHA, regs::RHO, regs::R0S),
            reg_neg(regs::NEG_ALPHA, regs::ALPHA),
        ],
    ));
    tasks[Slot::PostQy] = core.add_task(Task::new(post_qy, vec![reg_mov(regs::QY, regs::AR_OUT)]));
    // ω := (q,y) / (y,y) once both are in QY / YY.
    let omega = || {
        [
            reg_op(RegOp::Add, regs::YY, regs::YY, regs::EPS),
            reg_op(RegOp::Div, regs::OMEGA, regs::QY, regs::YY),
            reg_neg(regs::NEG_OMEGA, regs::OMEGA),
        ]
    };
    let body = [reg_mov(regs::YY, regs::AR_OUT)].into_iter().chain(omega()).collect();
    tasks[Slot::PostYy] = core.add_task(Task::new(post_yy, body));
    tasks[Slot::PostRho] = core.add_task(Task::new(
        post_rho,
        vec![
            reg_mov(regs::RHO_NEXT, regs::AR_OUT),
            reg_op(RegOp::Add, regs::TMP, regs::OMEGA, regs::EPS),
            reg_op(RegOp::Div, regs::TMP, regs::ALPHA, regs::TMP),
            reg_op(RegOp::Add, regs::BETA, regs::RHO, regs::EPS),
            reg_op(RegOp::Div, regs::BETA, regs::RHO_NEXT, regs::BETA),
            reg_op(RegOp::Mul, regs::BETA, regs::TMP, regs::BETA),
            reg_mov(regs::RHO, regs::RHO_NEXT),
        ],
    ));
    if with_omega_fused {
        let loads = [reg_mov(regs::QY, regs::AR_OUT), reg_mov(regs::YY, regs::AR_OUT2)];
        let body = loads.into_iter().chain(omega()).collect();
        tasks[Slot::PostOmegaFused] = core.add_task(Task::new(post_omega_fused, body));
    }
    tasks[Slot::InitRho] =
        core.add_task(Task::new(init_rho, vec![reg_mov(regs::RHO, regs::AR_OUT)]));
    tasks[Slot::PostRr] = core.add_task(Task::new(post_rr, vec![reg_mov(regs::RR, regs::AR_OUT)]));
}

/// Builds every core-local phase task on one z-column tile — the dots,
/// the scalar coefficient arithmetic, and the six vector updates — and
/// marks each as a host-activated entry point. Shared verbatim by the
/// single-wafer and multi-wafer drivers (the phases touch no fabric, so
/// sharding cannot change them); the caller adds the SpMV and reduction
/// slots.
pub(crate) fn build_scalar_tasks(core: &mut Core, vecs: &TileVecs, z: u32) -> Tasks {
    let p_live = vecs.p_pad + 2;
    let q_live = vecs.q_pad + 2;
    let mut tasks = Tasks::new();

    // --- Dot phases (local MAC + move to the AllReduce input).
    let dot = |core: &mut Core, name, a, b| {
        let body = dot_stmts(core, regs::DOT_ACC, regs::AR_IN, a, b, z);
        core.add_task(Task::new(name, body))
    };
    tasks[Slot::DotR0s] = dot(core, "dot_r0s", vecs.r0, vecs.s);
    tasks[Slot::DotQy] = dot(core, "dot_qy", q_live, vecs.y);
    tasks[Slot::DotYy] = dot(core, "dot_yy", vecs.y, vecs.y);
    tasks[Slot::DotQyYy] = {
        let mut body = dot_stmts(core, regs::DOT_ACC, regs::AR_IN, q_live, vecs.y, z);
        body.extend(dot_stmts(core, regs::DOT_ACC, regs::AR_IN2, vecs.y, vecs.y, z));
        core.add_task(Task::new("dot_qy_yy", body))
    };
    tasks[Slot::DotRho] = dot(core, "dot_rho", vecs.r0, vecs.r);
    tasks[Slot::DotRr] = dot(core, "dot_rr", vecs.r, vecs.r);

    build_coefficient_tasks(core, &mut tasks, coefficient_names!(""), true);

    // --- Vector update phases.
    let xpay = |core: &mut Core, name, scalar, dst, a, b| {
        let body = xpay_stmts(core, scalar, dst, a, b, z);
        core.add_task(Task::new(name, body))
    };
    tasks[Slot::UpdQ] = xpay(core, "upd_q", regs::NEG_ALPHA, q_live, vecs.r, vecs.s);
    tasks[Slot::UpdX] = {
        let dp = core.add_dsr(mk::tensor16(p_live, z));
        let dq = core.add_dsr(mk::tensor16(q_live, z));
        let dx1 = core.add_dsr(mk::tensor16(vecs.x, z));
        let dx2 = core.add_dsr(mk::tensor16(vecs.x, z));
        core.add_task(Task::new(
            "upd_x",
            vec![
                Stmt::Exec(TensorInstr {
                    op: Op::Axpy { scalar: regs::ALPHA },
                    dst: Some(dx1),
                    a: Some(dp),
                    b: None,
                }),
                Stmt::Exec(TensorInstr {
                    op: Op::Axpy { scalar: regs::OMEGA },
                    dst: Some(dx2),
                    a: Some(dq),
                    b: None,
                }),
            ],
        ))
    };
    tasks[Slot::UpdR] = xpay(core, "upd_r", regs::NEG_OMEGA, vecs.r, q_live, vecs.y);
    tasks[Slot::UpdP1] = xpay(core, "upd_p1", regs::NEG_OMEGA, p_live, p_live, vecs.s);
    tasks[Slot::UpdP2] = xpay(core, "upd_p2", regs::BETA, p_live, vecs.r, p_live);

    tasks.mark_entries(core);
    tasks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Krylov;
    use solver::policy::MixedF16;
    use solver::{bicgstab as host_bicgstab, SolveOptions};
    use stencil::mesh::Mesh3D;
    use stencil::problem::manufactured;

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

        let opts = SolveOptions { max_iters: iters, rtol: 0.0, record_true_residual: false };
        let host = host_bicgstab::<MixedF16>(&a, &b, &opts);
        // Once either trajectory reaches the fp16 storage noise floor
        // (2^-11 ≈ 4.9e-4 relative), recursive residuals are rounding noise
        // and their ratio is instance-dependent; clamp the comparison there.
        let floor = 5e-4;
        for (i, rec) in host.history.records.iter().enumerate() {
            let wafer = stats.residuals[i].max(floor);
            let host_rel = rec.recursive_rel.max(floor);
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
        // The solver layout must accommodate the paper's Z = 1536 in 48 KB.
        let mesh = Mesh3D::new(2, 2, 1536);
        let a16: DiaMatrix<F16> = {
            let p = manufactured(mesh, (0.0, 0.0, 0.0), 1).preconditioned();
            p.matrix.convert()
        };
        let mut fabric = Fabric::new(2, 2);
        let _solver = WaferBicgstab::build(&mut fabric, &a16);
        let used = fabric.tile(0, 0).mem.used();
        assert!(used <= 48 * 1024, "tile memory {used} exceeds SRAM");
        assert!(used > 26 * 1536, "layout should hold 13 Z-vectors: {used}");
    }
}
