//! Data Structure Registers — tensor descriptors.
//!
//! "Special purpose Data Structure Registers (DSRs) generate tensor access
//! addresses in hardware eliminating overheads of nested loops." A DSR holds
//! a descriptor (where the tensor lives and how to step through it) plus a
//! cursor. Crucially, cursors **persist across instructions** unless the
//! descriptor rewinds: Listing 1's accumulator descriptors (`xp_acc`, ...)
//! "advance asynchronously" across repeated `sumtask` invocations, which is
//! what lets each add instruction contribute exactly once per output element.

use crate::types::{Color, Dtype, FifoId};

/// What a DSR points at.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Descriptor {
    /// A strided tensor in tile memory.
    Mem {
        /// Base byte address.
        addr: u32,
        /// Length in elements.
        len: u32,
        /// Stride between elements, in elements (1 = contiguous).
        stride: u32,
        /// Element type.
        dtype: Dtype,
        /// Rewind the cursor to 0 when an instruction completes (Listing
        /// 1's "outer dimension stride of zero to return the DSR to its
        /// initial position"). Accumulator descriptors set this to `false`.
        rewind: bool,
    },
    /// A stream received from the fabric on `color`.
    FabricIn {
        /// Virtual channel to consume.
        color: Color,
        /// Elements to receive before the instruction completes.
        len: u32,
        /// Element type.
        dtype: Dtype,
    },
    /// A stream sent to the fabric on `color`.
    FabricOut {
        /// Virtual channel to inject on.
        color: Color,
        /// Elements to send.
        len: u32,
        /// Element type.
        dtype: Dtype,
    },
    /// A hardware FIFO (reads drain it; writes push into it).
    Fifo {
        /// Which FIFO.
        fifo: FifoId,
    },
}

impl Descriptor {
    /// Element type of the data behind this descriptor. FIFOs defer to the
    /// FIFO's own dtype, so this returns `None` for them.
    pub fn dtype(&self) -> Option<Dtype> {
        match *self {
            Descriptor::Mem { dtype, .. }
            | Descriptor::FabricIn { dtype, .. }
            | Descriptor::FabricOut { dtype, .. } => Some(dtype),
            Descriptor::Fifo { .. } => None,
        }
    }

    /// Declared length in elements (`None` for FIFOs, which are unbounded
    /// streams gated by occupancy).
    pub fn len(&self) -> Option<u32> {
        match *self {
            Descriptor::Mem { len, .. }
            | Descriptor::FabricIn { len, .. }
            | Descriptor::FabricOut { len, .. } => Some(len),
            Descriptor::Fifo { .. } => None,
        }
    }

    /// `true` if the descriptor declares zero length.
    pub fn is_empty(&self) -> bool {
        self.len() == Some(0)
    }
}

/// A DSR: descriptor plus persistent cursor.
#[derive(Copy, Clone, Debug)]
pub struct Dsr {
    /// The descriptor.
    pub desc: Descriptor,
    /// Elements consumed/produced so far.
    pub pos: u32,
}

impl Dsr {
    /// A DSR with its cursor at the start.
    pub fn new(desc: Descriptor) -> Dsr {
        Dsr { desc, pos: 0 }
    }

    /// Elements remaining before this DSR is exhausted (`u32::MAX` for
    /// FIFOs).
    pub fn remaining(&self) -> u32 {
        match self.desc.len() {
            Some(len) => len.saturating_sub(self.pos),
            None => u32::MAX,
        }
    }

    /// Byte address of the element at the cursor (memory descriptors only).
    pub fn current_addr(&self) -> Option<u32> {
        match self.desc {
            Descriptor::Mem { addr, stride, dtype, .. } => {
                Some(addr + self.pos * stride * dtype.bytes())
            }
            _ => None,
        }
    }

    /// Rewinds the cursor to the start (checkpoint restore).
    pub fn reset(&mut self) {
        self.pos = 0;
    }

    /// Advances the cursor by `n` elements.
    pub fn advance(&mut self, n: u32) {
        self.pos += n;
    }

    /// Applies end-of-instruction rewind semantics.
    pub fn finish_instruction(&mut self) {
        if let Descriptor::Mem { rewind: true, .. } = self.desc {
            self.pos = 0;
        }
        if matches!(self.desc, Descriptor::FabricIn { .. } | Descriptor::FabricOut { .. }) {
            // Fabric descriptors are one-shot; Listing 1 re-initializes them
            // inside the spmv task before each use. Leave the cursor where
            // it ended so reuse without re-init is detectable.
        }
    }
}

/// Convenience constructors mirroring Listing 1's declarations.
pub mod mk {
    use super::*;

    /// Contiguous fp16 memory tensor that rewinds after each instruction.
    pub fn tensor16(addr: u32, len: u32) -> Descriptor {
        Descriptor::Mem { addr, len, stride: 1, dtype: Dtype::F16, rewind: true }
    }

    /// Contiguous fp16 accumulator tensor whose cursor persists across
    /// instructions (Listing 1's `*_acc`).
    pub fn acc16(addr: u32, len: u32) -> Descriptor {
        Descriptor::Mem { addr, len, stride: 1, dtype: Dtype::F16, rewind: false }
    }

    /// Contiguous fp32 memory tensor (rewinding).
    pub fn tensor32(addr: u32, len: u32) -> Descriptor {
        Descriptor::Mem { addr, len, stride: 1, dtype: Dtype::F32, rewind: true }
    }

    /// Contiguous fp32 accumulator tensor whose cursor persists across
    /// instructions (for FIFO-drained fp32 streams).
    pub fn acc32(addr: u32, len: u32) -> Descriptor {
        Descriptor::Mem { addr, len, stride: 1, dtype: Dtype::F32, rewind: false }
    }

    /// fp16 fabric receive stream.
    pub fn rx16(color: Color, len: u32) -> Descriptor {
        Descriptor::FabricIn { color, len, dtype: Dtype::F16 }
    }

    /// fp16 fabric transmit stream.
    pub fn tx16(color: Color, len: u32) -> Descriptor {
        Descriptor::FabricOut { color, len, dtype: Dtype::F16 }
    }

    /// fp32 fabric receive stream.
    pub fn rx32(color: Color, len: u32) -> Descriptor {
        Descriptor::FabricIn { color, len, dtype: Dtype::F32 }
    }

    /// fp32 fabric transmit stream.
    pub fn tx32(color: Color, len: u32) -> Descriptor {
        Descriptor::FabricOut { color, len, dtype: Dtype::F32 }
    }

    /// FIFO descriptor.
    pub fn fifo(fifo: FifoId) -> Descriptor {
        Descriptor::Fifo { fifo }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_cursor_addressing() {
        let mut d = Dsr::new(mk::tensor16(100, 8));
        assert_eq!(d.current_addr(), Some(100));
        d.advance(3);
        assert_eq!(d.current_addr(), Some(106));
        assert_eq!(d.remaining(), 5);
        d.finish_instruction();
        assert_eq!(d.pos, 0, "rewinding tensor resets");
    }

    #[test]
    fn acc_cursor_persists() {
        let mut d = Dsr::new(mk::acc16(0, 10));
        d.advance(4);
        d.finish_instruction();
        assert_eq!(d.pos, 4, "accumulator keeps its position");
        assert_eq!(d.remaining(), 6);
    }

    #[test]
    fn strided_addressing() {
        let d = Dsr {
            desc: Descriptor::Mem { addr: 0, len: 4, stride: 3, dtype: Dtype::F32, rewind: true },
            pos: 2,
        };
        // element 2 at byte 2 * 3 * 4 = 24
        assert_eq!(d.current_addr(), Some(24));
    }

    #[test]
    fn fabric_descriptors_have_no_addr() {
        let d = Dsr::new(mk::rx16(3, 5));
        assert_eq!(d.current_addr(), None);
        assert_eq!(d.remaining(), 5);
    }

    #[test]
    fn fifo_descriptor_is_unbounded() {
        let d = Dsr::new(mk::fifo(0));
        assert_eq!(d.remaining(), u32::MAX);
        assert_eq!(d.desc.len(), None);
        assert_eq!(d.desc.dtype(), None);
    }
}
