//! Small per-tile kernel builders: AXPY, XPAY, the local mixed-precision
//! dot product, and the fp32 register statements of the scalar
//! coefficient tasks.
//!
//! These are the building blocks of the BiCGStab iteration besides the SpMV:
//! "The kernel operations in the algorithm are sparse matrix - dense vector
//! multiply (SpMV), AXPY ... and inner product." AXPYs "operate on
//! core-local fp16 data and use the four-way SIMD capability"; the dot uses
//! the mixed-precision inner-product instruction.

use wse_arch::core::Core;
use wse_arch::dsr::mk;
use wse_arch::instr::{Op, RegOp, Stmt, Task, TensorInstr};
use wse_arch::types::{Reg, TaskId};

/// The statement `dst := a op b` on the core's fp32 registers.
pub fn reg_op(op: RegOp, dst: Reg, a: Reg, b: Reg) -> Stmt {
    Stmt::RegArith { op, dst, a, b }
}

/// The statement `dst := src`.
pub fn reg_mov(dst: Reg, src: Reg) -> Stmt {
    reg_op(RegOp::Mov, dst, src, src)
}

/// The statement `dst := −src`.
pub fn reg_neg(dst: Reg, src: Reg) -> Stmt {
    reg_op(RegOp::Neg, dst, src, src)
}

/// Builds a task computing `y[i] += r_scalar · x[i]` over fp16 vectors at
/// byte addresses `x`/`y` of length `len`.
pub fn axpy_task(core: &mut Core, scalar: Reg, x: u32, y: u32, len: u32) -> TaskId {
    let dx = core.add_dsr(mk::tensor16(x, len));
    let dy = core.add_dsr(mk::tensor16(y, len));
    core.add_task(Task::new(
        "axpy",
        vec![Stmt::Exec(TensorInstr {
            op: Op::Axpy { scalar },
            dst: Some(dy),
            a: Some(dx),
            b: None,
        })],
    ))
}

/// Statements computing `dst[i] = a[i] + r_scalar · b[i]` (fused), appended
/// to an existing body.
pub fn xpay_stmts(core: &mut Core, scalar: Reg, dst: u32, a: u32, b: u32, len: u32) -> Vec<Stmt> {
    let dd = core.add_dsr(mk::tensor16(dst, len));
    let da = core.add_dsr(mk::tensor16(a, len));
    let db = core.add_dsr(mk::tensor16(b, len));
    vec![Stmt::Exec(TensorInstr {
        op: Op::Xpay { scalar },
        dst: Some(dd),
        a: Some(da),
        b: Some(db),
    })]
}

/// Statements computing the local mixed-precision dot `acc = Σ a·b` (fp16
/// multiplies, fp32 accumulate) and moving it into `r_move_to`.
pub fn dot_stmts(core: &mut Core, acc: Reg, move_to: Reg, a: u32, b: u32, len: u32) -> Vec<Stmt> {
    let da = core.add_dsr(mk::tensor16(a, len));
    let db = core.add_dsr(mk::tensor16(b, len));
    vec![
        Stmt::SetReg { reg: acc, value: 0.0 },
        Stmt::InitDsr { dsr: da, desc: mk::tensor16(a, len) },
        Stmt::InitDsr { dsr: db, desc: mk::tensor16(b, len) },
        Stmt::Exec(TensorInstr { op: Op::MacReg { acc }, dst: None, a: Some(da), b: Some(db) }),
        Stmt::RegArith { op: RegOp::Mov, dst: move_to, a: acc, b: acc },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use wse_arch::types::Dtype;
    use wse_arch::Memory;
    use wse_float::F16;

    fn mem_with(v: &[f64]) -> (Memory, u32) {
        let mut m = Memory::new();
        let data: Vec<F16> = v.iter().map(|&x| F16::from_f64(x)).collect();
        let addr = m.alloc_vec(v.len() as u32, Dtype::F16).unwrap();
        m.store_f16_slice(addr, &data);
        (m, addr)
    }

    #[test]
    fn axpy_task_works() {
        let (mut mem, ax) = mem_with(&[1.0, 2.0, 3.0]);
        let ay = mem.alloc_vec(3, Dtype::F16).unwrap();
        mem.store_f16_slice(ay, &[F16::from_f64(10.0); 3]);
        let mut core = Core::new();
        core.regs[2] = 2.0;
        let t = axpy_task(&mut core, 2, ax, ay, 3);
        core.activate(t);
        for _ in 0..10 {
            core.step(&mut mem);
        }
        assert!(core.is_quiescent());
        let out = mem.load_f16_slice(ay, 3);
        assert_eq!(out.iter().map(|v| v.to_f64()).collect::<Vec<_>>(), vec![12.0, 14.0, 16.0]);
    }

    #[test]
    fn xpay_writes_dst() {
        let (mut mem, aa) = mem_with(&[1.0, 1.0]);
        let ab = mem.alloc_vec(2, Dtype::F16).unwrap();
        mem.store_f16_slice(ab, &[F16::from_f64(4.0), F16::from_f64(8.0)]);
        let ad = mem.alloc_vec(2, Dtype::F16).unwrap();
        let mut core = Core::new();
        core.regs[1] = -0.5;
        let body = xpay_stmts(&mut core, 1, ad, aa, ab, 2);
        let t = core.add_task(Task::new("xpay", body));
        core.activate(t);
        for _ in 0..10 {
            core.step(&mut mem);
        }
        let out = mem.load_f16_slice(ad, 2);
        assert_eq!(out[0].to_f64(), -1.0); // 1 - 0.5*4
        assert_eq!(out[1].to_f64(), -3.0); // 1 - 0.5*8
    }

    #[test]
    fn dot_stmts_rearm_for_reuse() {
        let (mut mem, aa) = mem_with(&[1.0, 2.0, 3.0, 4.0]);
        let mut core = Core::new();
        let body = dot_stmts(&mut core, 20, 21, aa, aa, 4);
        let t = core.add_task(Task::new("dot", body));
        core.activate(t);
        for _ in 0..20 {
            core.step(&mut mem);
        }
        assert_eq!(core.regs[21], 30.0);
        // Run again: InitDsr re-arms the cursors, SetReg clears the acc.
        core.activate(t);
        for _ in 0..20 {
            core.step(&mut mem);
        }
        assert_eq!(core.regs[21], 30.0, "second run must not double-count");
    }
}
