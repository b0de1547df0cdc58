//! The batched datapath: one issue per cycle to a round-robin thread, each
//! issue decoded once and its SIMD group run in one go, and the
//! classification of a cycle with no issue.

use super::reference::Supply;
use super::{Core, Observers, MAIN_SLOT, SLOTS};
use crate::dsr::Descriptor;
use crate::instr::{Elements, Op, TensorInstr};
use crate::memory::Memory;
use crate::trace::StallCause;
use crate::types::{DsrId, Dtype, Flit, Reg, SIMD_F16, SIMD_F32, SIMD_MIXED};

/// Where one operand of an issue streams from or to, resolved from its DSR
/// once per issue (`Absent`: the instruction has no such operand). `Mem`
/// carries the byte address of the element at the cursor and the byte step
/// to the next.
#[derive(Copy, Clone, PartialEq, Eq)]
enum Operand {
    Absent,
    Mem { addr: u32, step: u32 },
    FabricIn { color: usize },
    FabricOut { color: usize },
    Fifo { fifo: usize },
}

/// One issue of a tensor instruction the batched datapath can run: every
/// operand resolved, one element type, and the SIMD-group size settled.
struct Issue {
    dst: Operand,
    a: Operand,
    b: Operand,
    dtype: Dtype,
    /// Elements this issue processes.
    n: u32,
    /// The shortest fixed-length operand is exhausted after `n` elements.
    exhausts: bool,
}

/// One decoded group, as the op's arithmetic runs over it: per element,
/// read `a`, read `b`, read the destination's current value if `reads_dst`,
/// apply the rule and write the result.
struct Group<'a> {
    core: &'a mut Core,
    mem: &'a mut Memory,
    issue: &'a mut Issue,
    reads_dst: bool,
}

impl Elements for Group<'_> {
    #[inline(always)]
    fn each(&mut self, mut rule: impl FnMut(u32, u32, u32) -> u32) {
        let (core, mem, issue) = (&mut *self.core, &mut *self.mem, &mut *self.issue);
        let (dtype, reads_dst) = (issue.dtype, self.reads_dst);
        let mut onpush = None;
        for _ in 0..issue.n {
            let a = core.take(mem, &mut issue.a, dtype);
            let b = core.take(mem, &mut issue.b, dtype);
            let cur = match issue.dst {
                Operand::Mem { addr, .. } if reads_dst => mem.read_bits(addr, dtype),
                _ => 0,
            };
            let bits = rule(a, b, cur);
            match &mut issue.dst {
                Operand::Absent => {}
                Operand::Mem { addr, step } => {
                    mem.write_bits(*addr, dtype, bits);
                    *addr += *step;
                }
                Operand::FabricOut { color } => {
                    core.ramp_out.entry(*color).push_back(Flit { bits, dtype })
                }
                Operand::Fifo { fifo } => {
                    let fifo = &mut core.fifos[*fifo];
                    mem.write_bits(fifo.push_addr().expect("group sized to fit"), dtype, bits);
                    onpush = fifo.commit_push();
                }
                Operand::FabricIn { .. } => unreachable!("rejected by decode"),
            }
        }
        if let Some(task) = onpush {
            core.activate(task);
        }
    }

    fn reg(&mut self, r: Reg) -> &mut f32 {
        &mut self.core.regs[r as usize]
    }
}

impl Core {
    /// Issues the datapath to one runnable thread (round-robin).
    pub(super) fn datapath_step(
        &mut self,
        mem: &mut Memory,
        per_element: bool,
        obs: &mut Observers,
    ) {
        let mut issued = false;
        // Live slots in (rr_cursor + k) % SLOTS order: the bits at or above
        // the cursor ascending, then the ones below it.
        let (live, rr) = (self.live, self.rr_cursor);
        'slots: for mut seg in [live & (!0 << rr), live & ((1 << rr) - 1)] {
            while seg != 0 {
                let slot = seg.trailing_zeros() as usize;
                seg &= seg - 1;
                let instr = self.slots[slot].instr;
                if let Some(san) = obs.sanitize.as_deref_mut() {
                    // Slot occupancy *before* issuing: launches happen in
                    // control_step and completions after process() returns,
                    // so it is exact for the duration of the call.
                    let threads = std::array::from_fn(|s| live >> s & 1 != 0);
                    san.begin(slot as u8, instr.op.reads_dst(), threads, obs.cycle);
                }
                // The sanitizer's shadow marks are per element access.
                let batched = !per_element && obs.sanitize.is_none();
                let (progress, complete) = match batched.then(|| self.decode(&instr)).flatten() {
                    Some(issue) => self.process(mem, &instr, issue),
                    None => self.process_per_element(mem, &instr, obs),
                };
                if let Some(san) = obs.sanitize.as_deref_mut() {
                    san.end();
                }
                if complete {
                    self.finish_operands(&instr);
                    self.perf.retired[instr.op.class().index()] += 1;
                    if let Some((task, action)) = self.slots[slot].on_complete {
                        self.apply_action(task, action);
                    }
                    self.live &= !(1 << slot);
                    if slot == MAIN_SLOT {
                        // Retire the task if the body is done.
                        let r = self.main.as_ref().expect("a synchronous instruction has a task");
                        let id = r.id;
                        if r.pc >= self.image.tasks[id as usize].body.len() {
                            self.retire(id, obs);
                        }
                    }
                }
                if progress > 0 || complete {
                    self.rr_cursor = ((slot + 1) % SLOTS) as u8;
                    issued = progress > 0;
                    break 'slots;
                }
            }
        }
        if issued {
            self.perf.busy_cycles += 1;
        } else {
            // Why did the datapath sit this cycle out, and which colors is
            // some active receive starved on?
            let (cause, starved) = self.classify_stall();
            self.perf.idle_cycles += 1;
            self.perf.stall[cause.index()] += 1;
            if let Some(san) = obs.sanitize.as_deref_mut() {
                san.on_stall(starved, obs.cycle);
            }
        }
    }

    /// The unfinished instructions, background threads first.
    fn active_instrs(&self) -> impl Iterator<Item = &TensorInstr> {
        self.slots
            .iter()
            .enumerate()
            .filter(|&(s, _)| self.live >> s & 1 != 0)
            .map(|(_, a)| &a.instr)
    }

    /// Classifies a non-issuing datapath cycle in one scan of the active
    /// instructions: starved sources win over blocked destinations; no
    /// active instruction at all is `Idle`. Bank conflicts are deliberately
    /// unmodeled (see [`StallCause`]), so that bucket never fires. Also
    /// returns the colors some active receive is starved on (bit `c` for
    /// color `c`), the sanitizer's channel waits.
    fn classify_stall(&self) -> (StallCause, u32) {
        let (mut fifo_wait, mut backpressured, mut starved) = (false, false, 0u32);
        for instr in self.active_instrs() {
            for id in [instr.a, instr.b].into_iter().flatten() {
                match self.supply(id) {
                    Supply::ColorEmpty(color) => {
                        fifo_wait = true;
                        starved |= 1 << color;
                    }
                    Supply::FifoEmpty => fifo_wait = true,
                    Supply::Ready | Supply::Unreadable => {}
                }
            }
            backpressured |= !self.dst_ready(instr);
        }
        let cause = if fifo_wait {
            StallCause::FifoWait
        } else if backpressured {
            StallCause::Backpressure
        } else {
            // An active instruction that is neither starved nor blocked can
            // only follow a zero-progress completion this cycle; fold it
            // into Idle.
            StallCause::Idle
        };
        (cause, starved)
    }

    /// Rewinds rewinding DSR operands at instruction completion.
    fn finish_operands(&mut self, instr: &TensorInstr) {
        for id in [instr.dst, instr.a, instr.b].into_iter().flatten() {
            self.dsrs[id as usize].finish_instruction();
        }
    }

    /// SIMD lanes available to `op` at element type `dtype`.
    pub(super) fn lanes(op: Op, dtype: Dtype) -> u32 {
        match op {
            Op::MacReg { .. } => SIMD_MIXED,
            _ => match dtype {
                Dtype::F16 => SIMD_F16,
                Dtype::F32 => SIMD_F32,
            },
        }
    }

    /// Decodes one issue of `instr` for the batched datapath: resolves the
    /// operands and settles the SIMD-group size
    /// `n = min(lanes, remaining, source availability, destination space)`
    /// — the element at which the per-element loop would stop.
    ///
    /// `None` sends the issue to [`Core::process_per_element`]: whenever the
    /// per-element loop's outcome depends on more than the start-of-issue
    /// state — two operands sharing a DSR cursor, a FIFO, or a fabric
    /// color, so that one's progress changes the other's readiness — and
    /// for operand shapes only that loop gives a meaning to (an operand the
    /// op ignores, a source used as a destination, mixed element types).
    fn decode(&self, instr: &TensorInstr) -> Option<Issue> {
        let srcs = instr.op.num_srcs();
        if instr.a.is_some() != (srcs >= 1)
            || instr.b.is_some() != (srcs == 2)
            || instr.dst.is_some() != instr.op.writes_dst()
            || instr.dst.is_some() && (instr.dst == instr.a || instr.dst == instr.b)
            || instr.a.is_some() && instr.a == instr.b
        {
            return None;
        }
        // Resolve each present operand from its DSR; `widths` collects the
        // element types seen (bit 0: fp16, bit 1: fp32).
        let mut remaining = u32::MAX;
        let mut widths = 0u8;
        let mut resolve = |id: Option<DsrId>| -> Operand {
            let Some(id) = id else { return Operand::Absent };
            let dsr = &self.dsrs[id as usize];
            remaining = remaining.min(dsr.remaining());
            let (operand, dtype) = match dsr.desc {
                Descriptor::Mem { addr, stride, dtype, .. } => {
                    let step = stride * dtype.bytes();
                    (Operand::Mem { addr: addr + dsr.pos * step, step }, dtype)
                }
                Descriptor::FabricIn { color, dtype, .. } => {
                    (Operand::FabricIn { color: color as usize }, dtype)
                }
                Descriptor::FabricOut { color, dtype, .. } => {
                    (Operand::FabricOut { color: color as usize }, dtype)
                }
                Descriptor::Fifo { fifo } => {
                    (Operand::Fifo { fifo: fifo as usize }, self.fifos[fifo as usize].dtype)
                }
            };
            widths |= 1 << dtype as u8;
            operand
        };
        let (dst, a, b) = (resolve(instr.dst), resolve(instr.a), resolve(instr.b));
        let dtype = match widths {
            1 => Dtype::F16,
            2 if !matches!(instr.op, Op::MacReg { .. }) => Dtype::F32,
            _ => return None,
        };

        let mut n = Self::lanes(instr.op, dtype).min(remaining);
        match dst {
            Operand::Absent | Operand::Mem { .. } => {}
            _ if instr.op.reads_dst() => return None,
            Operand::FabricOut { color } => n = n.min(self.ramp_out[color].space() as u32),
            Operand::Fifo { fifo } => n = n.min(self.fifos[fifo].capacity - self.fifos[fifo].len()),
            Operand::FabricIn { .. } => return None,
        }
        for src in [a, b] {
            match src {
                Operand::Absent | Operand::Mem { .. } => {}
                Operand::FabricIn { color } => n = n.min(self.ramp_in[color].len() as u32),
                Operand::Fifo { fifo } => n = n.min(self.fifos[fifo].len()),
                Operand::FabricOut { .. } => return None,
            }
        }
        // Two operands on one FIFO or one fabric color feed (or starve)
        // each other mid-group. (`Mem` operands compare unequal or alias
        // only memory, which element order already handles.)
        let queue = |o: Operand| matches!(o, Operand::Fifo { .. } | Operand::FabricIn { .. });
        if queue(a) && (a == b || a == dst) || queue(b) && b == dst {
            return None;
        }
        Some(Issue { dst, a, b, dtype, n, exhausts: n == remaining })
    }

    /// Processes up to one SIMD group of `instr`. Returns
    /// `(elements_processed, completed)`.
    ///
    /// `issue` is `instr` decoded once ([`Core::decode`]); the group's `n`
    /// elements run back to back, in element order (so operands aliasing
    /// the same *memory* through different DSRs see each other's writes
    /// exactly as in the per-element loop); cursors, counters and queue
    /// masks are then advanced by `n` in one go.
    fn process(&mut self, mem: &mut Memory, instr: &TensorInstr, mut issue: Issue) -> (u32, bool) {
        let n = issue.n;
        if n > 0 {
            self.run_group(mem, instr.op, &mut issue);
            for (id, operand) in [(instr.dst, issue.dst), (instr.a, issue.a), (instr.b, issue.b)] {
                match operand {
                    Operand::Absent | Operand::Fifo { .. } => continue,
                    Operand::Mem { .. } => {}
                    Operand::FabricIn { color } => {
                        self.perf.flits_received += n as u64;
                        if self.ramp_in[color].is_empty() {
                            self.ramp_in_mask &= !(1 << color);
                        }
                    }
                    Operand::FabricOut { color } => {
                        self.perf.flits_sent += n as u64;
                        self.ramp_out_mask |= 1 << color;
                    }
                }
                self.dsrs[id.expect("a resolved operand has a DSR") as usize].advance(n);
            }
        }
        // Completion: a fixed-length operand ran out, or — "Each add pulls
        // as much data as it can from its input FIFO, finishing when empty"
        // — a FIFO source is empty once the group has run (whether it
        // stopped the group or the group drained it).
        let drained = [issue.a, issue.b]
            .into_iter()
            .any(|src| matches!(src, Operand::Fifo { fifo } if self.fifos[fifo].is_empty()));
        (n, issue.exhausts || drained)
    }

    /// Runs the `issue.n` elements of one group with the op dispatched once.
    fn run_group(&mut self, mem: &mut Memory, op: Op, issue: &mut Issue) {
        let (n, reads_dst) = (issue.n as u64, op.reads_dst());
        let (f16, f32) = op.apply(issue.dtype, &mut Group { core: self, mem, issue, reads_dst });
        self.perf.flops_f16 += f16 * n;
        self.perf.flops_f32 += f32 * n;
    }

    /// Reads one element from a decoded source, advancing it (0 from an
    /// absent one).
    #[inline(always)]
    fn take(&mut self, mem: &Memory, src: &mut Operand, dtype: Dtype) -> u32 {
        match src {
            Operand::Absent => 0,
            Operand::Mem { addr, step } => {
                let bits = mem.read_bits(*addr, dtype);
                *addr += *step;
                bits
            }
            Operand::FabricIn { color } => {
                let flit =
                    self.ramp_in.entry(*color).pop_front().expect("group sized to what is queued");
                debug_assert_eq!(flit.dtype, dtype, "flit dtype mismatch on color {color}");
                flit.bits
            }
            Operand::Fifo { fifo } => {
                let fifo = &mut self.fifos[*fifo];
                let bits = mem.read_bits(fifo.pop_addr().expect("group sized to fit"), dtype);
                fifo.commit_pop();
                bits
            }
            Operand::FabricOut { .. } => unreachable!("rejected by decode"),
        }
    }
}
