//! The tensor instruction set and task-program statements.
//!
//! An instruction names DSRs for its destination and source operands; the
//! hardware streams elements through the datapath at the SIMD rate the
//! operand types allow, stalling on fabric/FIFO availability. "All of this
//! is accomplished using only two machine instructions that run as
//! independent threads."

use crate::dsr::Descriptor;
use crate::types::{Color, DsrId, Dtype, Reg, TaskId};
use std::hash::{Hash, Hasher};
use std::ops::{Add, Mul};
use wse_float::F16;

/// The arithmetic performed per element pair.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// `dst[i] = a[i]` — data movement (memory↔fabric↔FIFO).
    Copy,
    /// `dst[i] = a[i] + b[i]` in the destination precision.
    Add,
    /// `dst[i] = dst[i] + a[i]` (read-modify-write accumulate; Listing 1's
    /// `c_acc[] = c_acc[] + c_rx[]` and the `sumtask` adds).
    AddAssign,
    /// `dst[i] = a[i] * b[i]` in the destination precision.
    Mul,
    /// `dst[i] = dst[i] + a[i] * b[i]` with the fused FMAC ("no rounding of
    /// the product prior to the add") — the multiply-accumulate tensor
    /// instruction used when both operands are local (the 2D SpMV, and the
    /// z-direction terms when sourced from memory).
    FmaAssign,
    /// `dst[i] = a[i] + r · b[i]` (fused) — the XPAY form used by BiCGStab's
    /// `q := r − α s`, `r := q − ω y` and `p := r + β (p − ω s)` updates.
    Xpay {
        /// Register holding the scalar multiplier.
        scalar: Reg,
    },
    /// `dst[i] = dst[i] + r · a[i]` with the fused fp16 FMAC — the AXPY
    /// instruction ("y = y + a × x where the operand a is a scalar held in a
    /// register").
    Axpy {
        /// Register holding the scalar multiplier.
        scalar: Reg,
    },
    /// `dst[i] = r · a[i]` (scaled copy).
    Scale {
        /// Register holding the scalar multiplier.
        scalar: Reg,
    },
    /// `acc += Σ a[i] · b[i]` — the mixed-precision inner-product
    /// instruction: fp16 multiplies (exact in fp32), fp32 accumulation into
    /// a register, two elements per cycle.
    MacReg {
        /// fp32 accumulator register.
        acc: Reg,
    },
    /// `acc += Σ a[i]` in fp32 — the AllReduce center-core accumulation.
    SumReg {
        /// fp32 accumulator register.
        acc: Reg,
    },
    /// `dst[i] = r` — broadcast a register value into a stream (used to send
    /// scalar partial sums onto the fabric).
    StoreReg {
        /// Source register.
        reg: Reg,
    },
    /// `r = a[last]` — load each streamed element into a register (the last
    /// one sticks; with `len = 1` this receives a broadcast scalar).
    LoadReg {
        /// Destination register.
        reg: Reg,
    },
}

/// Coarse instruction classes for trace retire accounting: which kind of
/// datapath work an instruction represents, independent of its operands.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum OpClass {
    /// Pure data movement: `Copy`, `StoreReg`, `LoadReg`.
    Move,
    /// Unfused elementwise arithmetic: `Add`, `AddAssign`, `Mul`, `Scale`.
    Elementwise,
    /// Fused multiply-add forms: `FmaAssign`, `Xpay`, `Axpy`.
    Fma,
    /// The mixed-precision inner-product instruction: `MacReg`.
    Mac,
    /// Register reductions: `SumReg`.
    Reduce,
}

impl OpClass {
    /// Number of classes (array sizing).
    pub const COUNT: usize = 5;

    /// Every class, in index order.
    pub const ALL: [OpClass; OpClass::COUNT] =
        [OpClass::Move, OpClass::Elementwise, OpClass::Fma, OpClass::Mac, OpClass::Reduce];

    /// Dense index for counter arrays.
    pub fn index(self) -> usize {
        match self {
            OpClass::Move => 0,
            OpClass::Elementwise => 1,
            OpClass::Fma => 2,
            OpClass::Mac => 3,
            OpClass::Reduce => 4,
        }
    }

    /// Short stable label (reports, CSV columns).
    pub fn label(self) -> &'static str {
        match self {
            OpClass::Move => "move",
            OpClass::Elementwise => "elementwise",
            OpClass::Fma => "fma",
            OpClass::Mac => "mac",
            OpClass::Reduce => "reduce",
        }
    }
}

impl Op {
    /// The instruction class used for trace retire accounting.
    pub fn class(self) -> OpClass {
        match self {
            Op::Copy | Op::StoreReg { .. } | Op::LoadReg { .. } => OpClass::Move,
            Op::Add | Op::AddAssign | Op::Mul | Op::Scale { .. } => OpClass::Elementwise,
            Op::FmaAssign | Op::Xpay { .. } | Op::Axpy { .. } => OpClass::Fma,
            Op::MacReg { .. } => OpClass::Mac,
            Op::SumReg { .. } => OpClass::Reduce,
        }
    }

    /// `true` if the op reads the destination before writing it.
    pub fn reads_dst(self) -> bool {
        matches!(self, Op::AddAssign | Op::Axpy { .. } | Op::FmaAssign)
    }

    /// `true` if the op writes a destination stream; `MacReg`, `SumReg` and
    /// `LoadReg` write a register instead.
    pub(crate) fn writes_dst(self) -> bool {
        !matches!(self, Op::MacReg { .. } | Op::SumReg { .. } | Op::LoadReg { .. })
    }

    /// Number of source operands expected (besides the destination).
    pub fn num_srcs(self) -> usize {
        match self {
            Op::Copy
            | Op::AddAssign
            | Op::Scale { .. }
            | Op::Axpy { .. }
            | Op::SumReg { .. }
            | Op::LoadReg { .. } => 1,
            Op::Add | Op::Mul | Op::MacReg { .. } | Op::FmaAssign | Op::Xpay { .. } => 2,
            Op::StoreReg { .. } => 0,
        }
    }

    /// Floating-point operations per element at element type `dtype`, as
    /// `(fp16, fp32)`.
    pub(crate) fn flops(self, dtype: Dtype) -> (u64, u64) {
        let n = match self {
            Op::Copy | Op::StoreReg { .. } | Op::LoadReg { .. } => 0,
            Op::Add | Op::AddAssign | Op::Mul | Op::Scale { .. } => 1,
            Op::FmaAssign | Op::Xpay { .. } | Op::Axpy { .. } => 2,
            // An fp16 multiply and an fp32 accumulate, at either type.
            Op::MacReg { .. } => return (1, 1),
            Op::SumReg { .. } => return (0, 1),
        };
        match dtype {
            Dtype::F16 => (n, 0),
            Dtype::F32 => (0, n),
        }
    }

    /// Runs the op over `elems` at element type `dtype` — its arithmetic and
    /// the register it reads or updates — and returns [`Op::flops`]. The op
    /// is dispatched once, outside the element loop.
    pub(crate) fn apply(self, dtype: Dtype, elems: &mut impl Elements) -> (u64, u64) {
        match dtype {
            Dtype::F16 => self.apply_in::<F16>(elems),
            Dtype::F32 => self.apply_in::<f32>(elems),
        }
        self.flops(dtype)
    }

    /// [`Op::apply`] in lane type `L`: the one definition of each op's
    /// result bits from `(a, b, current dst, register)`, and of what it
    /// leaves in the register.
    #[inline(always)]
    fn apply_in<L: Lane>(self, elems: &mut impl Elements) {
        let x = L::of;
        match self {
            Op::Copy => elems.each(|a, _, _| a),
            Op::Add => elems.each(|a, b, _| (x(a) + x(b)).bits()),
            Op::AddAssign => elems.each(|a, _, cur| (x(cur) + x(a)).bits()),
            Op::Mul => elems.each(|a, b, _| (x(a) * x(b)).bits()),
            Op::FmaAssign => elems.each(|a, b, cur| L::fma(x(a), x(b), x(cur)).bits()),
            // The ops that read the register as a scalar, converted once.
            Op::Xpay { scalar: r }
            | Op::Axpy { scalar: r }
            | Op::Scale { scalar: r }
            | Op::StoreReg { reg: r } => {
                let s = L::from_reg(*elems.reg(r));
                match self {
                    Op::Xpay { .. } => elems.each(|a, b, _| L::fma(s, x(b), x(a)).bits()),
                    Op::Axpy { .. } => elems.each(|a, _, cur| L::fma(s, x(a), x(cur)).bits()),
                    Op::Scale { .. } => elems.each(|a, _, _| (s * x(a)).bits()),
                    _ => elems.each(|_, _, _| s.bits()),
                }
            }
            // The ops that write the register, through a local.
            Op::MacReg { acc: r } | Op::SumReg { acc: r } | Op::LoadReg { reg: r } => {
                let mut reg = *elems.reg(r);
                match self {
                    // fp16 products are exact in fp32; only the sum rounds.
                    Op::MacReg { .. } => elems.each(|a, b, _| {
                        reg += F16::of(a).to_reg() * F16::of(b).to_reg();
                        0
                    }),
                    Op::SumReg { .. } => elems.each(|a, _, _| {
                        reg += x(a).to_reg();
                        0
                    }),
                    // The last element sticks.
                    _ => elems.each(|a, _, _| {
                        reg = x(a).to_reg();
                        0
                    }),
                }
                *elems.reg(r) = reg;
            }
        }
    }
}

/// The elements an op's arithmetic runs over: one SIMD group on the
/// batched datapath, one element on the per-element one.
pub(crate) trait Elements {
    /// Applies `rule(a, b, cur)` to each element in order — `a` and `b` the
    /// sources' bits (0 when absent), `cur` the destination's current bits
    /// (0 unless the op reads it) — and writes the result to the
    /// destination (dropped when there is none).
    fn each(&mut self, rule: impl FnMut(u32, u32, u32) -> u32);

    /// The core's register `r`.
    fn reg(&mut self, r: Reg) -> &mut f32;
}

/// A datapath element type: its bits, its conversions from and to an fp32
/// register, and its fused multiply-add.
trait Lane: Copy + Add<Output = Self> + Mul<Output = Self> {
    fn of(bits: u32) -> Self;
    fn bits(self) -> u32;
    fn from_reg(v: f32) -> Self;
    fn to_reg(self) -> f32;
    /// `a · b + c`, rounded once.
    fn fma(a: Self, b: Self, c: Self) -> Self;
}

impl Lane for F16 {
    fn of(bits: u32) -> F16 {
        F16::from_bits(bits as u16)
    }
    fn bits(self) -> u32 {
        self.to_bits() as u32
    }
    fn from_reg(v: f32) -> F16 {
        F16::from_f32(v)
    }
    fn to_reg(self) -> f32 {
        self.to_f32()
    }
    fn fma(a: F16, b: F16, c: F16) -> F16 {
        wse_float::fma16(a, b, c)
    }
}

impl Lane for f32 {
    fn of(bits: u32) -> f32 {
        f32::from_bits(bits)
    }
    fn bits(self) -> u32 {
        self.to_bits()
    }
    fn from_reg(v: f32) -> f32 {
        v
    }
    fn to_reg(self) -> f32 {
        self
    }
    fn fma(a: f32, b: f32, c: f32) -> f32 {
        a.mul_add(b, c)
    }
}

/// A tensor instruction: op plus DSR operands.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct TensorInstr {
    /// The per-element operation.
    pub op: Op,
    /// Destination DSR (`None` for reductions into registers).
    pub dst: Option<DsrId>,
    /// First source DSR.
    pub a: Option<DsrId>,
    /// Second source DSR.
    pub b: Option<DsrId>,
}

/// Scheduling-state manipulation, mirroring Listing 1's `block()/unblock()/
/// activate()` and the `.trig/.act` fields of fabric descriptors.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum TaskAction {
    /// Make the task runnable (it runs when unblocked and scheduled).
    Activate,
    /// Prevent the task from being scheduled even if activated.
    Block,
    /// Remove a block.
    Unblock,
}

/// One statement of a task body.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// Run a tensor instruction synchronously in the main thread; the task
    /// does not advance until it completes.
    Exec(TensorInstr),
    /// Launch a tensor instruction as a background thread in `slot`; the
    /// task advances on the next cycle. `on_complete` manipulates a task's
    /// state when the thread finishes (the fabric descriptors' `.trig`).
    Launch {
        /// Thread slot 0..[`crate::types::NUM_THREADS`].
        slot: u8,
        /// The instruction to run.
        instr: TensorInstr,
        /// State change applied when the thread completes.
        on_complete: Option<(TaskId, TaskAction)>,
    },
    /// Re-initialize a DSR with a fresh descriptor (cursor reset) — Listing
    /// 1 does this for the fabric descriptors at the top of the spmv task.
    InitDsr {
        /// Which DSR.
        dsr: DsrId,
        /// New descriptor.
        desc: Descriptor,
    },
    /// Manipulate another task's scheduling state.
    TaskCtl {
        /// Target task.
        task: TaskId,
        /// What to do.
        action: TaskAction,
    },
    /// Scalar register arithmetic (f32): `dst = a (op) b`.
    RegArith {
        /// Operation.
        op: RegOp,
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        a: Reg,
        /// Right operand register.
        b: Reg,
    },
    /// Load an immediate into a register.
    SetReg {
        /// Destination register.
        reg: Reg,
        /// Value.
        value: f32,
    },
}

/// Register statements hash only their destination: `f32` has no `Hash`,
/// and statements that compare equal still hash equal.
impl Hash for Stmt {
    fn hash<H: Hasher>(&self, h: &mut H) {
        std::mem::discriminant(self).hash(h);
        match self {
            Stmt::Exec(instr) => instr.hash(h),
            Stmt::Launch { slot, instr, on_complete } => (slot, instr, on_complete).hash(h),
            Stmt::InitDsr { dsr, desc } => (dsr, desc).hash(h),
            Stmt::TaskCtl { task, action } => (task, action).hash(h),
            Stmt::RegArith { dst, .. } | Stmt::SetReg { reg: dst, .. } => dst.hash(h),
        }
    }
}

/// Scalar register operations.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RegOp {
    /// `dst = a + b`.
    Add,
    /// `dst = a - b`.
    Sub,
    /// `dst = a * b`.
    Mul,
    /// `dst = a / b`.
    Div,
    /// `dst = -a` (b ignored).
    Neg,
    /// `dst = a` (b ignored).
    Mov,
}

/// A task: a body of statements plus scheduling metadata.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct Task {
    /// Statements executed in order when the task runs, stored at their
    /// exact length.
    pub body: Box<[Stmt]>,
    /// Higher priority wins the scheduler ("It is marked as higher priority
    /// to avoid a race condition with the synchronization task tree").
    pub priority: u8,
    /// Start in the blocked state (the SpMV completion tree starts blocked).
    pub start_blocked: bool,
    /// Start activated (entry-point tasks).
    pub start_activated: bool,
    /// Debug name.
    pub name: &'static str,
}

impl Task {
    /// A normal-priority, initially idle task.
    pub fn new(name: &'static str, body: Vec<Stmt>) -> Task {
        let body = body.into_boxed_slice();
        Task { body, priority: 0, start_blocked: false, start_activated: false, name }
    }

    /// Builder: set priority.
    pub fn priority(mut self, p: u8) -> Task {
        self.priority = p;
        self
    }

    /// Builder: start blocked.
    pub fn blocked(mut self) -> Task {
        self.start_blocked = true;
        self
    }

    /// Builder: start activated.
    pub fn activated(mut self) -> Task {
        self.start_activated = true;
        self
    }
}

/// A data-triggered binding: a word arriving on `color` activates `task`
/// ("The channel of the arriving word determines the code that is
/// triggered").
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct ColorBinding {
    /// The triggering virtual channel.
    pub color: Color,
    /// The task activated when data arrives.
    pub task: TaskId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_metadata() {
        assert!(Op::AddAssign.reads_dst());
        assert!(Op::Axpy { scalar: 0 }.reads_dst());
        assert!(!Op::Mul.reads_dst());
        assert!(Op::StoreReg { reg: 0 }.writes_dst());
        assert!(!Op::SumReg { acc: 0 }.writes_dst());
        assert_eq!(Op::Mul.num_srcs(), 2);
        assert_eq!(Op::Copy.num_srcs(), 1);
        assert_eq!(Op::StoreReg { reg: 0 }.num_srcs(), 0);
        assert_eq!(Op::MacReg { acc: 1 }.num_srcs(), 2);
    }

    #[test]
    fn op_classes_are_dense_and_total() {
        for (i, c) in OpClass::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i);
            assert!(!c.label().is_empty());
        }
        assert_eq!(Op::Copy.class(), OpClass::Move);
        assert_eq!(Op::StoreReg { reg: 0 }.class(), OpClass::Move);
        assert_eq!(Op::AddAssign.class(), OpClass::Elementwise);
        assert_eq!(Op::Xpay { scalar: 0 }.class(), OpClass::Fma);
        assert_eq!(Op::MacReg { acc: 0 }.class(), OpClass::Mac);
        assert_eq!(Op::SumReg { acc: 0 }.class(), OpClass::Reduce);
    }

    #[test]
    fn task_builder() {
        let t = Task::new("t", vec![]).priority(3).blocked().activated();
        assert_eq!(t.priority, 3);
        assert!(t.start_blocked);
        assert!(t.start_activated);
        assert_eq!(t.name, "t");
    }
}
