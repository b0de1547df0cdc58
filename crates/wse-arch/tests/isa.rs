//! Golden tests for every tensor operation of the ISA, including strided
//! descriptors, fp32 tensors, and FIFO dtypes — randomized against host
//! references.

use proptest::prelude::*;
use wse_arch::core::Core;
use wse_arch::dsr::{mk, Descriptor};
use wse_arch::fifo::Fifo;
use wse_arch::instr::{Op, Stmt, Task, TensorInstr};
use wse_arch::types::Dtype;
use wse_arch::Memory;
use wse_float::{fma16, F16};

fn setup_f16(values: &[&[f64]]) -> (Core, Memory, Vec<u32>) {
    let mut mem = Memory::new();
    let mut addrs = Vec::new();
    for v in values {
        let data: Vec<F16> = v.iter().map(|&x| F16::from_f64(x)).collect();
        let a = mem.alloc_vec(v.len() as u32, Dtype::F16).unwrap();
        mem.store_f16_slice(a, &data);
        addrs.push(a);
    }
    (Core::new(), mem, addrs)
}

fn run_to_quiescence(core: &mut Core, mem: &mut Memory) {
    for c in 0..10_000 {
        core.step(mem, c);
        if core.is_quiescent() {
            return;
        }
    }
    panic!("core failed to quiesce");
}

fn exec(core: &mut Core, mem: &mut Memory, instr: TensorInstr) {
    let t = core.add_task(Task::new("t", vec![Stmt::Exec(instr)]));
    core.activate(t);
    run_to_quiescence(core, mem);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Add/Mul match scalar fp16 arithmetic elementwise.
    #[test]
    fn add_mul_golden(
        a in prop::collection::vec(-50i32..50, 1..40),
        b in prop::collection::vec(-50i32..50, 1..40),
        mul in any::<bool>(),
    ) {
        let n = a.len().min(b.len());
        let av: Vec<f64> = a[..n].iter().map(|&v| v as f64 / 8.0).collect();
        let bv: Vec<f64> = b[..n].iter().map(|&v| v as f64 / 8.0).collect();
        let (mut core, mut mem, addrs) = setup_f16(&[&av, &bv]);
        let out = mem.alloc_vec(n as u32, Dtype::F16).unwrap();
        let da = core.add_dsr(mk::tensor16(addrs[0], n as u32));
        let db = core.add_dsr(mk::tensor16(addrs[1], n as u32));
        let dd = core.add_dsr(mk::tensor16(out, n as u32));
        let op = if mul { Op::Mul } else { Op::Add };
        exec(&mut core, &mut mem, TensorInstr { op, dst: Some(dd), a: Some(da), b: Some(db) });
        let got = mem.load_f16_slice(out, n);
        for i in 0..n {
            let (x, y) = (F16::from_f64(av[i]), F16::from_f64(bv[i]));
            let expect = if mul { x * y } else { x + y };
            prop_assert_eq!(got[i].to_bits(), expect.to_bits(), "i={}", i);
        }
    }

    /// FmaAssign is the fused dst += a*b.
    #[test]
    fn fma_assign_golden(
        a in prop::collection::vec(-32i32..32, 1..24),
        b in prop::collection::vec(-32i32..32, 1..24),
        d in prop::collection::vec(-32i32..32, 1..24),
    ) {
        let n = a.len().min(b.len()).min(d.len());
        let av: Vec<f64> = a[..n].iter().map(|&v| v as f64 / 16.0).collect();
        let bv: Vec<f64> = b[..n].iter().map(|&v| v as f64 / 16.0).collect();
        let dv: Vec<f64> = d[..n].iter().map(|&v| v as f64 / 16.0).collect();
        let (mut core, mut mem, addrs) = setup_f16(&[&av, &bv, &dv]);
        let da = core.add_dsr(mk::tensor16(addrs[0], n as u32));
        let db = core.add_dsr(mk::tensor16(addrs[1], n as u32));
        let dd = core.add_dsr(mk::tensor16(addrs[2], n as u32));
        exec(&mut core, &mut mem, TensorInstr { op: Op::FmaAssign, dst: Some(dd), a: Some(da), b: Some(db) });
        let got = mem.load_f16_slice(addrs[2], n);
        for i in 0..n {
            let expect = fma16(F16::from_f64(av[i]), F16::from_f64(bv[i]), F16::from_f64(dv[i]));
            prop_assert_eq!(got[i].to_bits(), expect.to_bits(), "i={}", i);
        }
    }

    /// Xpay: dst = a + r·b with the register scalar.
    #[test]
    fn xpay_golden(
        a in prop::collection::vec(-32i32..32, 1..24),
        b in prop::collection::vec(-32i32..32, 1..24),
        s in -64i32..64,
    ) {
        let n = a.len().min(b.len());
        let av: Vec<f64> = a[..n].iter().map(|&v| v as f64 / 16.0).collect();
        let bv: Vec<f64> = b[..n].iter().map(|&v| v as f64 / 16.0).collect();
        let scalar = s as f32 / 16.0;
        let (mut core, mut mem, addrs) = setup_f16(&[&av, &bv]);
        core.regs[3] = scalar;
        let out = mem.alloc_vec(n as u32, Dtype::F16).unwrap();
        let da = core.add_dsr(mk::tensor16(addrs[0], n as u32));
        let db = core.add_dsr(mk::tensor16(addrs[1], n as u32));
        let dd = core.add_dsr(mk::tensor16(out, n as u32));
        exec(&mut core, &mut mem, TensorInstr { op: Op::Xpay { scalar: 3 }, dst: Some(dd), a: Some(da), b: Some(db) });
        let got = mem.load_f16_slice(out, n);
        for i in 0..n {
            let expect = fma16(F16::from_f32(scalar), F16::from_f64(bv[i]), F16::from_f64(av[i]));
            prop_assert_eq!(got[i].to_bits(), expect.to_bits(), "i={}", i);
        }
    }

    /// Scale: dst = r·a.
    #[test]
    fn scale_golden(a in prop::collection::vec(-32i32..32, 1..24), s in -16i32..16) {
        let av: Vec<f64> = a.iter().map(|&v| v as f64 / 8.0).collect();
        let n = av.len();
        let scalar = s as f32 / 4.0;
        let (mut core, mut mem, addrs) = setup_f16(&[&av]);
        core.regs[1] = scalar;
        let out = mem.alloc_vec(n as u32, Dtype::F16).unwrap();
        let da = core.add_dsr(mk::tensor16(addrs[0], n as u32));
        let dd = core.add_dsr(mk::tensor16(out, n as u32));
        exec(&mut core, &mut mem, TensorInstr { op: Op::Scale { scalar: 1 }, dst: Some(dd), a: Some(da), b: None });
        let got = mem.load_f16_slice(out, n);
        for i in 0..n {
            let expect = F16::from_f32(scalar) * F16::from_f64(av[i]);
            prop_assert_eq!(got[i].to_bits(), expect.to_bits(), "i={}", i);
        }
    }

    /// MacReg accumulates the mixed-precision dot into a register.
    #[test]
    fn mac_reg_golden(
        a in prop::collection::vec(-32i32..32, 1..40),
        b in prop::collection::vec(-32i32..32, 1..40),
    ) {
        let n = a.len().min(b.len());
        let av: Vec<f64> = a[..n].iter().map(|&v| v as f64 / 16.0).collect();
        let bv: Vec<f64> = b[..n].iter().map(|&v| v as f64 / 16.0).collect();
        let (mut core, mut mem, addrs) = setup_f16(&[&av, &bv]);
        let da = core.add_dsr(mk::tensor16(addrs[0], n as u32));
        let db = core.add_dsr(mk::tensor16(addrs[1], n as u32));
        exec(&mut core, &mut mem, TensorInstr { op: Op::MacReg { acc: 7 }, dst: None, a: Some(da), b: Some(db) });
        // Reference: sequential f32 accumulation of exact fp16 products.
        let mut acc = 0.0f32;
        for i in 0..n {
            acc += F16::from_f64(av[i]).to_f32() * F16::from_f64(bv[i]).to_f32();
        }
        prop_assert_eq!(core.regs[7], acc);
    }

    /// Strided reads: a stride-2 source gathers every other element.
    #[test]
    fn strided_copy_golden(a in prop::collection::vec(-64i32..64, 2..40)) {
        let av: Vec<f64> = a.iter().map(|&v| v as f64 / 8.0).collect();
        let n = av.len();
        let m = n / 2;
        prop_assume!(m >= 1);
        let (mut core, mut mem, addrs) = setup_f16(&[&av]);
        let out = mem.alloc_vec(m as u32, Dtype::F16).unwrap();
        let da = core.add_dsr(Descriptor::Mem {
            addr: addrs[0],
            len: m as u32,
            stride: 2,
            dtype: Dtype::F16,
            rewind: true,
        });
        let dd = core.add_dsr(mk::tensor16(out, m as u32));
        exec(&mut core, &mut mem, TensorInstr { op: Op::Copy, dst: Some(dd), a: Some(da), b: None });
        let got = mem.load_f16_slice(out, m);
        for i in 0..m {
            prop_assert_eq!(got[i].to_f64(), F16::from_f64(av[2 * i]).to_f64(), "i={}", i);
        }
    }
}

#[test]
fn f32_fifo_roundtrip() {
    // fp32 values pushed through a FIFO by one instruction and drained by
    // another retain exact bit patterns.
    let mut mem = Memory::new();
    let mut core = Core::new();
    let n = 9u32;
    let src = mem.alloc_vec(n, Dtype::F32).unwrap();
    let dst = mem.alloc_vec(n, Dtype::F32).unwrap();
    for i in 0..n {
        mem.write_f32(src + 4 * i, i as f32 * 0.3 - 1.0);
    }
    let fifo_mem = mem.alloc_vec(4, Dtype::F32).unwrap();
    let drain = core.add_task(Task::new("drain", vec![]));
    let fid = core.add_fifo(Fifo::new(fifo_mem, 4, Dtype::F32, Some(drain)));
    let dfifo = core.add_dsr(mk::fifo(fid));
    // The drain task re-runs on every push; its destination cursor must
    // persist across invocations (like the SpMV accumulators).
    let ddst = core.add_dsr(mk::acc32(dst, n));
    core.set_task_body(
        drain,
        vec![Stmt::Exec(TensorInstr { op: Op::Copy, dst: Some(ddst), a: Some(dfifo), b: None })],
    );
    let dsrc = core.add_dsr(mk::tensor32(src, n));
    let dfifo2 = core.add_dsr(mk::fifo(fid));
    let push = core.add_task(Task::new(
        "push",
        vec![Stmt::Launch {
            slot: 0,
            instr: TensorInstr { op: Op::Copy, dst: Some(dfifo2), a: Some(dsrc), b: None },
            on_complete: None,
        }],
    ));
    core.activate(push);
    for c in 0..500 {
        core.step(&mut mem, c);
        if core.is_quiescent() {
            break;
        }
    }
    assert!(core.is_quiescent());
    for i in 0..n {
        assert_eq!(mem.read_f32(dst + 4 * i), i as f32 * 0.3 - 1.0);
    }
}

#[test]
fn load_reg_takes_last_element() {
    let mut mem = Memory::new();
    let mut core = Core::new();
    let data: Vec<F16> = [1.0, 2.0, 5.5].iter().map(|&v| F16::from_f64(v)).collect();
    let a = mem.alloc_vec(3, Dtype::F16).unwrap();
    mem.store_f16_slice(a, &data);
    let da = core.add_dsr(mk::tensor16(a, 3));
    let t = core.add_task(Task::new(
        "ld",
        vec![Stmt::Exec(TensorInstr {
            op: Op::LoadReg { reg: 4 },
            dst: None,
            a: Some(da),
            b: None,
        })],
    ));
    core.activate(t);
    for c in 0..50 {
        core.step(&mut mem, c);
    }
    assert_eq!(core.regs[4], 5.5, "last streamed element sticks");
}

#[test]
fn store_reg_broadcasts_into_memory() {
    let mut mem = Memory::new();
    let mut core = Core::new();
    let out = mem.alloc_vec(6, Dtype::F16).unwrap();
    core.regs[2] = 2.25;
    let dd = core.add_dsr(mk::tensor16(out, 6));
    let t = core.add_task(Task::new(
        "st",
        vec![Stmt::Exec(TensorInstr {
            op: Op::StoreReg { reg: 2 },
            dst: Some(dd),
            a: None,
            b: None,
        })],
    ));
    core.activate(t);
    for c in 0..50 {
        core.step(&mut mem, c);
    }
    for v in mem.load_f16_slice(out, 6) {
        assert_eq!(v.to_f64(), 2.25);
    }
}
