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

use crate::allreduce::{colors as ar_colors, AllReduce};
use crate::kernels::{dot_stmts, reg_mov, reg_neg, reg_op};
use crate::krylov::{self, Layout, Program, Slot, Tasks, Vecs};
use crate::spmv3d::{build_spmv_tile, load_coefficients, tile_coefficients, SpmvLayout};
use stencil::decomp::Mapping3D;
use stencil::dia::DiaMatrix;
use stencil::precond::has_unit_diagonal;
use wse_arch::dsr::mk;
use wse_arch::instr::{Op, RegOp, Stmt, Task, TensorInstr};
use wse_arch::types::Dtype;
use wse_arch::Fabric;
use wse_dsl::tess::configure_spmv_routes;
use wse_float::F16;

/// Register allocation (disjoint from the BiCGStab map so both solvers can
/// coexist on one fabric in tests).
pub(crate) mod regs {
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
    pub const AR_IN: Reg = 24;
    pub const AR_OUT: Reg = 25;
    pub const AR_ACC: Reg = 26;
    pub const AR_IN2: Reg = 27;
    pub const AR_OUT2: Reg = 28;
    pub const AR_ACC2: Reg = 29;
    pub const EPS: Reg = 31;
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
    /// Panics on non-unit-diagonal input, fabric overflow, or SRAM
    /// exhaustion.
    pub fn build(fabric: &mut Fabric, a: &DiaMatrix<F16>, variant: CgVariant) -> WaferCg {
        assert!(has_unit_diagonal(a), "matrix must be diagonally preconditioned");
        assert_eq!(a.offsets().len(), 7, "7-point stencil required");
        let mesh = a.mesh();
        let mapping = Mapping3D::new(mesh, fabric.width(), fabric.height());
        let (w, h) = (mapping.fabric_w, mapping.fabric_h);
        let z = mapping.z as u32;

        configure_spmv_routes(fabric, w, h);
        let allreduce = AllReduce::build(fabric, w, h, regs::AR_IN, regs::AR_OUT, regs::AR_ACC);
        let allreduce2 = (variant == CgVariant::SingleReduction).then(|| {
            AllReduce::build_with_base(
                fabric,
                w,
                h,
                regs::AR_IN2,
                regs::AR_OUT2,
                regs::AR_ACC2,
                ar_colors::DEFAULT_BASE + ar_colors::SPAN,
            )
        });

        let mut tiles = Vec::with_capacity(w * h);
        for y in 0..h {
            for x in 0..w {
                let reduce_both = allreduce2
                    .as_ref()
                    .map(|second| allreduce.build_fused_task(second, fabric, x, y));
                let tile = fabric.tile_mut(x, y);
                let mut diag = [0u32; 6];
                for d in &mut diag {
                    *d = tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM: diagonals");
                }
                let src_pad = tile.mem.alloc_vec(z + 2, Dtype::F16).expect("SRAM: src");
                let av = tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM: Av");
                let x_vec = tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM: x");
                // Standard: p lives in the padded source, r separate.
                // SingleReduction: r lives in the padded source, p and q
                // separate.
                let (r, p, q) = match variant {
                    CgVariant::Standard => {
                        let r = tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM: r");
                        (r, src_pad + 2, av)
                    }
                    CgVariant::SingleReduction => {
                        let p = tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM: p");
                        let q = tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM: q");
                        (src_pad + 2, p, q)
                    }
                };
                let vecs = Vecs { x: x_vec, r, p, q, ..Vecs::default() };

                let coeffs = tile_coefficients(a, x, y);
                let layout = SpmvLayout { z, diag, vpad: src_pad, u: av };
                load_coefficients(tile, &layout, &coeffs);
                tile.mem.write_f16(src_pad, F16::ZERO);
                tile.mem.write_f16(src_pad + 2 * (z + 1), F16::ZERO);

                let spmv = build_spmv_tile(tile, x, y, w, h, layout, None);
                let core = &mut tile.core;
                let mut tasks = Tasks::new();
                tasks[Slot::CgSpmv] = spmv.start;
                tasks[Slot::Reduce] = allreduce.task(x, y);
                if let Some(t) = reduce_both {
                    tasks[Slot::ReduceBoth] = t;
                }

                // --- Dots. ---
                tasks[Slot::CgDotPq] = {
                    let body = dot_stmts(core, regs::DOT_ACC, regs::AR_IN, vecs.p, av, z);
                    core.add_task(Task::new("cg_dot_pq", body))
                };
                tasks[Slot::DotRr] = {
                    let body = dot_stmts(core, regs::DOT_ACC, regs::AR_IN, vecs.r, vecs.r, z);
                    core.add_task(Task::new("cg_dot_rr", body))
                };
                tasks[Slot::CgDotGammaDelta] = {
                    let mut body = dot_stmts(core, regs::DOT_ACC, regs::AR_IN, vecs.r, vecs.r, z);
                    body.extend(dot_stmts(core, regs::DOT_ACC, regs::AR_IN2, vecs.r, av, z));
                    core.add_task(Task::new("cg_dot_gd", body))
                };

                // --- Scalar phases. ---
                // Standard: α = γ / (p, Ap); γ carried in GAMMA.
                tasks[Slot::CgAlpha] = core.add_task(Task::new(
                    "cg_alpha",
                    vec![
                        reg_op(RegOp::Add, regs::TMP, regs::AR_OUT, regs::EPS),
                        reg_op(RegOp::Div, regs::ALPHA, regs::GAMMA, regs::TMP),
                        reg_neg(regs::NEG_ALPHA, regs::ALPHA),
                    ],
                ));
                // Standard: β = γ' / γ; roll γ.
                tasks[Slot::CgBeta] = core.add_task(Task::new(
                    "cg_beta",
                    vec![
                        reg_op(RegOp::Div, regs::BETA, regs::AR_OUT, regs::GAMMA),
                        reg_mov(regs::GAMMA, regs::AR_OUT),
                    ],
                ));
                // Fused: γ = AR_OUT, δ = AR_OUT2; β = γ/γ_prev (iteration
                // 0 has no γ_prev and runs `cg_init` below instead);
                // α = γ / (δ − β γ / α_prev).
                tasks[Slot::CgFused] = core.add_task(Task::new(
                    "cg_fused_coeffs",
                    vec![
                        reg_mov(regs::GAMMA, regs::AR_OUT),
                        reg_mov(regs::DELTA, regs::AR_OUT2),
                        reg_op(RegOp::Add, regs::TMP, regs::GAMMA_PREV, regs::EPS),
                        reg_op(RegOp::Div, regs::BETA, regs::GAMMA, regs::TMP),
                        // TMP = β γ / α_prev
                        reg_op(RegOp::Mul, regs::TMP, regs::BETA, regs::GAMMA),
                        reg_op(RegOp::Div, regs::TMP, regs::TMP, regs::ALPHA_PREV),
                        reg_op(RegOp::Sub, regs::TMP, regs::DELTA, regs::TMP),
                        reg_op(RegOp::Div, regs::ALPHA, regs::GAMMA, regs::TMP),
                        reg_neg(regs::NEG_ALPHA, regs::ALPHA),
                        reg_mov(regs::GAMMA_PREV, regs::GAMMA),
                        reg_mov(regs::ALPHA_PREV, regs::ALPHA),
                    ],
                ));
                // First fused iteration: β = 0, α = γ/δ.
                tasks[Slot::CgInit] = core.add_task(Task::new(
                    "cg_init",
                    vec![
                        reg_mov(regs::GAMMA, regs::AR_OUT),
                        reg_mov(regs::DELTA, regs::AR_OUT2),
                        Stmt::SetReg { reg: regs::BETA, value: 0.0 },
                        reg_op(RegOp::Add, regs::TMP, regs::DELTA, regs::EPS),
                        reg_op(RegOp::Div, regs::ALPHA, regs::GAMMA, regs::TMP),
                        reg_neg(regs::NEG_ALPHA, regs::ALPHA),
                        reg_mov(regs::GAMMA_PREV, regs::GAMMA),
                        reg_mov(regs::ALPHA_PREV, regs::ALPHA),
                    ],
                ));

                // --- Vector updates. ---
                // Standard: x += α p; r −= α q.
                tasks[Slot::CgUpdXr] = {
                    let dp = core.add_dsr(mk::tensor16(vecs.p, z));
                    let dq = core.add_dsr(mk::tensor16(av, z));
                    let dx = core.add_dsr(mk::tensor16(vecs.x, z));
                    let dr = core.add_dsr(mk::tensor16(vecs.r, z));
                    core.add_task(Task::new(
                        "cg_upd_xr",
                        vec![
                            Stmt::Exec(TensorInstr {
                                op: Op::Axpy { scalar: regs::ALPHA },
                                dst: Some(dx),
                                a: Some(dp),
                                b: None,
                            }),
                            Stmt::Exec(TensorInstr {
                                op: Op::Axpy { scalar: regs::NEG_ALPHA },
                                dst: Some(dr),
                                a: Some(dq),
                                b: None,
                            }),
                        ],
                    ))
                };
                // Standard: p = r + β p (XPAY with dst aliasing b).
                tasks[Slot::CgUpdP] = {
                    let dd = core.add_dsr(mk::tensor16(vecs.p, z));
                    let da = core.add_dsr(mk::tensor16(vecs.r, z));
                    let db = core.add_dsr(mk::tensor16(vecs.p, z));
                    core.add_task(Task::new(
                        "cg_upd_p",
                        vec![Stmt::Exec(TensorInstr {
                            op: Op::Xpay { scalar: regs::BETA },
                            dst: Some(dd),
                            a: Some(da),
                            b: Some(db),
                        })],
                    ))
                };
                // SingleReduction: p = r + β p; q = s + β q; x += α p;
                // r −= α q.
                tasks[Slot::CgUpdAll] = {
                    let dp1 = core.add_dsr(mk::tensor16(vecs.p, z));
                    let dr1 = core.add_dsr(mk::tensor16(vecs.r, z));
                    let dp2 = core.add_dsr(mk::tensor16(vecs.p, z));
                    let dq1 = core.add_dsr(mk::tensor16(vecs.q, z));
                    let ds1 = core.add_dsr(mk::tensor16(av, z));
                    let dq2 = core.add_dsr(mk::tensor16(vecs.q, z));
                    let dx = core.add_dsr(mk::tensor16(vecs.x, z));
                    let dp3 = core.add_dsr(mk::tensor16(vecs.p, z));
                    let dr2 = core.add_dsr(mk::tensor16(vecs.r, z));
                    let dq3 = core.add_dsr(mk::tensor16(vecs.q, z));
                    core.add_task(Task::new(
                        "cg2_upd",
                        vec![
                            Stmt::Exec(TensorInstr {
                                op: Op::Xpay { scalar: regs::BETA },
                                dst: Some(dp1),
                                a: Some(dr1),
                                b: Some(dp2),
                            }),
                            Stmt::Exec(TensorInstr {
                                op: Op::Xpay { scalar: regs::BETA },
                                dst: Some(dq1),
                                a: Some(ds1),
                                b: Some(dq2),
                            }),
                            Stmt::Exec(TensorInstr {
                                op: Op::Axpy { scalar: regs::ALPHA },
                                dst: Some(dx),
                                a: Some(dp3),
                                b: None,
                            }),
                            Stmt::Exec(TensorInstr {
                                op: Op::Axpy { scalar: regs::NEG_ALPHA },
                                dst: Some(dr2),
                                a: Some(dq3),
                                b: None,
                            }),
                        ],
                    ))
                };

                // Every phase task is a host-activated entry point.
                tasks.mark_entries(core);
                tiles.push((tasks, vecs));
            }
        }
        crate::debug_lint(fabric);
        let recurrence = match variant {
            CgVariant::Standard => &krylov::CG,
            CgVariant::SingleReduction => &krylov::CG_SINGLE,
        };
        let budget = 200 * mapping.z as u64 + 200 * (w + h) as u64 + 50_000;
        WaferCg(Program::new(recurrence, Layout::ZColumn(mapping), (0, 0), tiles, budget))
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
