//! The per-element datapath: every element re-checks exhaustion and
//! readiness first. It is the specification the batched datapath is tested
//! against, the path for issues that datapath declines, and the path the
//! sanitizer's per-access hooks run on.

use super::{Core, Observers};
use crate::dsr::Descriptor;
use crate::instr::{Elements, Op, TensorInstr};
use crate::memory::Memory;
use crate::types::{Color, DsrId, Dtype, Flit, Reg, TaskId, NUM_REGS};

impl Core {
    /// Element dtype governing an instruction (destination wins; register
    /// reductions use the source type).
    fn instr_dtype(&self, instr: &TensorInstr) -> Dtype {
        let of = |id: Option<DsrId>| -> Option<Dtype> {
            id.and_then(|d| match self.dsrs[d as usize].desc {
                Descriptor::Fifo { fifo } => Some(self.fifos[fifo as usize].dtype),
                ref other => other.dtype(),
            })
        };
        of(instr.dst).or_else(|| of(instr.a)).unwrap_or(Dtype::F16)
    }

    /// [`Core::process`] one element at a time, re-checking exhaustion and
    /// readiness before each — the datapath's specification, and the path
    /// for issues [`Core::decode`] declines.
    pub(super) fn process_per_element(
        &mut self,
        mem: &mut Memory,
        instr: &TensorInstr,
        obs: &mut Observers,
    ) -> (u32, bool) {
        // A destination must not share a DSR with a source: the shared
        // cursor would advance twice per element. (Aliasing the same
        // *memory* through two DSRs is fine and common.)
        if let Some(d) = instr.dst {
            debug_assert!(instr.a != Some(d), "dst and src a share DSR {d}");
            debug_assert!(instr.b != Some(d), "dst and src b share DSR {d}");
        }
        let dtype = self.instr_dtype(instr);
        let lanes = Self::lanes(instr.op, dtype);
        let mut processed = 0;
        let mut fifo_src_empty = false;

        for _ in 0..lanes {
            // Completion on exhausted fixed-length operands.
            if self.any_operand_exhausted(instr) {
                return (processed, true);
            }
            // Availability checks.
            if !self.sources_ready(instr) {
                if self.fifo_source_empty(instr) {
                    fifo_src_empty = true;
                }
                break;
            }
            if !self.dst_ready(instr) {
                break;
            }
            self.execute_element(mem, instr, dtype, obs);
            processed += 1;
        }

        if self.any_operand_exhausted(instr) {
            return (processed, true);
        }
        // FIFO-source semantics: "Each add pulls as much data as it can from
        // its input FIFO, finishing when empty."
        if fifo_src_empty || (processed > 0 && self.fifo_source_empty(instr)) {
            return (processed, true);
        }
        (processed, false)
    }

    fn any_operand_exhausted(&self, instr: &TensorInstr) -> bool {
        [instr.dst, instr.a, instr.b]
            .into_iter()
            .flatten()
            .any(|id| self.dsrs[id as usize].remaining() == 0)
    }

    fn fifo_source_empty(&self, instr: &TensorInstr) -> bool {
        [instr.a, instr.b].into_iter().flatten().any(|id| self.supply(id) == Supply::FifoEmpty)
    }

    fn sources_ready(&self, instr: &TensorInstr) -> bool {
        [instr.a, instr.b].into_iter().flatten().all(|id| match self.supply(id) {
            Supply::Ready => true,
            Supply::ColorEmpty(_) | Supply::FifoEmpty => false,
            Supply::Unreadable => panic!("FabricOut used as a source"),
        })
    }

    /// Whether source `id` can give an element now.
    pub(super) fn supply(&self, id: DsrId) -> Supply {
        match self.dsrs[id as usize].desc {
            Descriptor::Mem { .. } => Supply::Ready,
            Descriptor::FabricIn { color, .. } if self.ramp_in[color as usize].is_empty() => {
                Supply::ColorEmpty(color)
            }
            Descriptor::FabricIn { .. } => Supply::Ready,
            Descriptor::FabricOut { .. } => Supply::Unreadable,
            Descriptor::Fifo { fifo } if self.fifos[fifo as usize].is_empty() => Supply::FifoEmpty,
            Descriptor::Fifo { .. } => Supply::Ready,
        }
    }

    pub(super) fn dst_ready(&self, instr: &TensorInstr) -> bool {
        let Some(id) = instr.dst else { return true };
        match self.dsrs[id as usize].desc {
            Descriptor::Mem { .. } => true,
            Descriptor::FabricIn { .. } => panic!("FabricIn used as a destination"),
            Descriptor::FabricOut { color, .. } => self.ramp_out[color as usize].space() > 0,
            Descriptor::Fifo { fifo } => !self.fifos[fifo as usize].is_full(),
        }
    }

    /// Reads one element from a source DSR, advancing it.
    fn read_src(&mut self, mem: &Memory, id: DsrId, obs: &mut Observers) -> (u32, Dtype) {
        let dsr = self.dsrs[id as usize];
        match dsr.desc {
            Descriptor::Mem { dtype, .. } => {
                let addr = dsr.current_addr().unwrap();
                self.dsrs[id as usize].advance(1);
                if let Some(san) = obs.sanitize.as_deref_mut() {
                    san.on_read(addr, dtype.bytes());
                }
                (mem.read_bits(addr, dtype), dtype)
            }
            Descriptor::FabricIn { color, dtype, .. } => {
                let queue = self.ramp_in.entry(color as usize);
                let flit = queue.pop_front().expect("sources_ready checked");
                if queue.is_empty() {
                    self.ramp_in_mask &= !(1 << color);
                }
                debug_assert_eq!(flit.dtype, dtype, "flit dtype mismatch on color {color}");
                self.dsrs[id as usize].advance(1);
                self.perf.flits_received += 1;
                (flit.bits, dtype)
            }
            Descriptor::Fifo { fifo } => {
                let f = &self.fifos[fifo as usize];
                let dtype = f.dtype;
                let addr = f.pop_addr().expect("sources_ready checked");
                let bits = mem.read_bits(addr, dtype);
                self.fifos[fifo as usize].commit_pop();
                (bits, dtype)
            }
            Descriptor::FabricOut { .. } => unreachable!(),
        }
    }

    /// Writes one element to the destination DSR, advancing it. Returns a
    /// task to activate (FIFO onpush), if any.
    fn write_dst(
        &mut self,
        mem: &mut Memory,
        id: DsrId,
        bits: u32,
        dtype: Dtype,
        obs: &mut Observers,
    ) -> Option<TaskId> {
        let dsr = self.dsrs[id as usize];
        match dsr.desc {
            Descriptor::Mem { dtype: d, .. } => {
                debug_assert_eq!(d, dtype);
                let addr = dsr.current_addr().unwrap();
                mem.write_bits(addr, d, bits);
                self.dsrs[id as usize].advance(1);
                if let Some(san) = obs.sanitize.as_deref_mut() {
                    san.on_write(addr, d.bytes());
                }
                None
            }
            Descriptor::FabricOut { color, dtype: d, .. } => {
                debug_assert_eq!(d, dtype);
                let flit = Flit { bits, dtype: d };
                self.ramp_out.entry(color as usize).push_back(flit);
                self.ramp_out_mask |= 1 << color;
                self.dsrs[id as usize].advance(1);
                self.perf.flits_sent += 1;
                None
            }
            Descriptor::Fifo { fifo } => {
                let f = &self.fifos[fifo as usize];
                debug_assert_eq!(f.dtype, dtype);
                let addr = f.push_addr().expect("dst_ready checked");
                mem.write_bits(addr, dtype, bits);
                self.fifos[fifo as usize].commit_push()
            }
            Descriptor::FabricIn { .. } => unreachable!(),
        }
    }

    /// Reads the destination's current element *without* advancing
    /// (read-modify-write ops).
    fn peek_dst(&self, mem: &Memory, id: DsrId) -> u32 {
        let dsr = self.dsrs[id as usize];
        match dsr.desc {
            Descriptor::Mem { dtype, .. } => mem.read_bits(dsr.current_addr().unwrap(), dtype),
            _ => panic!("read-modify-write destination must be in memory"),
        }
    }

    /// Executes one element of `instr`: reads the operands the op uses,
    /// runs its arithmetic at the first source's element type (`dtype` when
    /// it has none) and writes the result.
    fn execute_element(
        &mut self,
        mem: &mut Memory,
        instr: &TensorInstr,
        dtype: Dtype,
        obs: &mut Observers,
    ) {
        let op = instr.op;
        let cur = if op.reads_dst() { self.peek_dst(mem, instr.dst.expect("dst")) } else { 0 };
        let (mut a, mut b, mut dt) = (0, 0, dtype);
        if op.num_srcs() >= 1 {
            (a, dt) = self.read_src(mem, instr.a.expect("src a"), obs);
        }
        if op.num_srcs() == 2 {
            let dtb;
            (b, dtb) = self.read_src(mem, instr.b.expect("src b"), obs);
            debug_assert_eq!(dt, dtb, "mixed-dtype {op:?}");
        }
        debug_assert!(
            !matches!(op, Op::MacReg { .. }) || dt == Dtype::F16,
            "mixed mac sources are fp16"
        );
        let mut el = Element { a, b, cur, out: 0, regs: &mut self.regs };
        let (f16, f32) = op.apply(dt, &mut el);
        let out = el.out;
        self.perf.flops_f16 += f16;
        self.perf.flops_f32 += f32;
        if op.writes_dst() {
            if let Some(task) = self.write_dst(mem, instr.dst.expect("dst"), out, dt, obs) {
                self.activate(task);
            }
        }
    }
}

/// Whether a source operand can give an element now.
#[derive(Copy, Clone, PartialEq, Eq)]
pub(super) enum Supply {
    /// An element is ready (a memory source always has one).
    Ready,
    /// Starved: the fabric color's ramp-in queue is empty.
    ColorEmpty(Color),
    /// Starved: the FIFO is empty.
    FifoEmpty,
    /// A fabric output, which cannot be read.
    Unreadable,
}

/// One element's operand bits, the result the op's arithmetic gives, and
/// the register file it reads and updates.
struct Element<'a> {
    a: u32,
    b: u32,
    cur: u32,
    out: u32,
    regs: &'a mut [f32; NUM_REGS],
}

impl Elements for Element<'_> {
    fn each(&mut self, mut rule: impl FnMut(u32, u32, u32) -> u32) {
        self.out = rule(self.a, self.b, self.cur);
    }

    fn reg(&mut self, r: Reg) -> &mut f32 {
        &mut self.regs[r as usize]
    }
}
