//! Shared identifier and data types for the tile architecture.

/// Element datatype of a tensor, fabric stream, or FIFO.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Dtype {
    /// IEEE binary16 — 2 bytes on the fabric and in memory.
    F16,
    /// IEEE binary32 — 4 bytes.
    F32,
}

impl Dtype {
    /// Size in bytes.
    #[inline]
    pub fn bytes(self) -> u32 {
        match self {
            Dtype::F16 => 2,
            Dtype::F32 => 4,
        }
    }
}

/// A virtual-channel identifier ("color"). The hardware routes each color
/// independently; Fig. 5's tessellation uses five distinct colors per tile
/// neighborhood.
pub type Color = u8;

/// Number of virtual channels modeled (the WSE provides 24).
pub const NUM_COLORS: usize = 24;

/// One word in flight on the fabric: raw bits plus the width it occupies.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Flit {
    /// Raw bit pattern (low 16 bits significant for `F16`).
    pub bits: u32,
    /// Width of the payload.
    pub dtype: Dtype,
}

impl Flit {
    /// An fp16 flit.
    #[inline]
    pub fn f16(bits: u16) -> Flit {
        Flit { bits: bits as u32, dtype: Dtype::F16 }
    }

    /// An fp32 flit.
    #[inline]
    pub fn f32(value: f32) -> Flit {
        Flit { bits: value.to_bits(), dtype: Dtype::F32 }
    }

    /// Payload size in bytes.
    #[inline]
    pub fn bytes(self) -> u32 {
        self.dtype.bytes()
    }
}

/// A fixed-capacity inline flit queue: eight slots, the depth of every
/// hardware queue modeled ([`QUEUE_CAPACITY`] and [`RAMP_OUT_CAPACITY`]).
///
/// Payload bits are stored unpacked from [`Flit`] — one `u32` per slot plus
/// one width bit per slot — so a ring is 36 bytes with no heap behind it.
/// A tile's 168 queues are `SlotTable` entries, backed only once used.
#[derive(Copy, Clone, Debug, Default)]
pub struct Ring {
    bits: [u32; Ring::CAPACITY],
    /// Bit `k` set when slot `k` holds an fp32 flit.
    wide: u8,
    head: u8,
    len: u8,
}

impl Ring {
    /// Slots per ring.
    pub const CAPACITY: usize = 8;

    /// What an unbacked queue reads as.
    const EMPTY: Ring = Ring { bits: [0; Ring::CAPACITY], wide: 0, head: 0, len: 0 };

    /// Queued flits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` when nothing is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Free slots.
    #[inline]
    pub fn space(&self) -> usize {
        Ring::CAPACITY - self.len as usize
    }

    #[inline]
    fn flit_at(&self, slot: usize) -> Flit {
        let dtype = if self.wide >> slot & 1 != 0 { Dtype::F32 } else { Dtype::F16 };
        Flit { bits: self.bits[slot], dtype }
    }

    /// The oldest flit, if any.
    #[inline]
    pub fn front(&self) -> Option<Flit> {
        (self.len > 0).then(|| self.flit_at(self.head as usize))
    }

    /// Appends a flit.
    ///
    /// # Panics
    /// Panics when full (senders must honor [`Ring::space`]).
    #[inline]
    pub fn push_back(&mut self, flit: Flit) {
        assert!((self.len as usize) < Ring::CAPACITY, "push into a full ring");
        let slot = (self.head + self.len) as usize % Ring::CAPACITY;
        self.bits[slot] = flit.bits;
        let wide = (flit.dtype == Dtype::F32) as u8;
        self.wide = self.wide & !(1 << slot) | wide << slot;
        self.len += 1;
    }

    /// Removes and returns the oldest flit.
    #[inline]
    pub fn pop_front(&mut self) -> Option<Flit> {
        let flit = self.front()?;
        self.head = (self.head + 1) % Ring::CAPACITY as u8;
        self.len -= 1;
        Some(flit)
    }

    /// Discards every queued flit and rewinds the head.
    #[inline]
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }

    /// The queued flits, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = Flit> + '_ {
        (0..self.len).map(|k| self.flit_at((self.head + k) as usize % Ring::CAPACITY))
    }
}

/// `N` (at most 255) keyed entries, each stored once first used: `slot[k]`
/// is one plus the index into `items` of key `k`'s entry, 0 while unbacked.
/// A tile uses a handful of its 120 router pairs and 2×24 ramp queues.
#[derive(Clone, Debug)]
pub(crate) struct SlotTable<T, const N: usize> {
    slot: [u8; N],
    items: Vec<T>,
}

impl<T, const N: usize> Default for SlotTable<T, N> {
    fn default() -> Self {
        SlotTable { slot: [0; N], items: Vec::new() }
    }
}

impl<T: Default, const N: usize> SlotTable<T, N> {
    /// Key `k`'s entry, if it is backed.
    #[inline]
    pub(crate) fn get(&self, k: usize) -> Option<&T> {
        self.slot[k].checked_sub(1).map(|s| &self.items[s as usize])
    }

    /// Key `k`'s entry, backed with `T::default()` first if it is not yet.
    #[inline]
    pub(crate) fn entry(&mut self, k: usize) -> &mut T {
        if self.slot[k] == 0 {
            self.back(k);
        }
        &mut self.items[self.slot[k] as usize - 1]
    }

    #[cold]
    fn back(&mut self, k: usize) {
        self.items.reserve_exact(1);
        self.items.push(T::default());
        self.slot[k] = self.items.len() as u8;
    }

    /// The backed entries, in first-use order.
    pub(crate) fn values_mut(&mut self) -> &mut [T] {
        &mut self.items
    }
}

/// A queue table reads an unbacked queue as empty.
impl<const N: usize> std::ops::Index<usize> for SlotTable<Ring, N> {
    type Output = Ring;

    #[inline]
    fn index(&self, k: usize) -> &Ring {
        self.get(k).unwrap_or(&Ring::EMPTY)
    }
}

/// One of the router's five bidirectional ports.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Port {
    /// Toward `y - 1`.
    North,
    /// Toward `y + 1`.
    South,
    /// Toward `x + 1`.
    East,
    /// Toward `x - 1`.
    West,
    /// The tile's own core (the "ramp").
    Ramp,
}

impl Port {
    /// All five ports, in a fixed arbitration order.
    pub const ALL: [Port; 5] = [Port::North, Port::South, Port::East, Port::West, Port::Ramp];

    /// Index into per-port arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Port::North => 0,
            Port::South => 1,
            Port::East => 2,
            Port::West => 3,
            Port::Ramp => 4,
        }
    }

    /// The port on the *neighboring* router that receives what this port
    /// sends (None for the ramp).
    pub fn opposite(self) -> Option<Port> {
        match self {
            Port::North => Some(Port::South),
            Port::South => Some(Port::North),
            Port::East => Some(Port::West),
            Port::West => Some(Port::East),
            Port::Ramp => None,
        }
    }

    /// Grid displacement of the neighbor this port faces.
    pub fn delta(self) -> (i32, i32) {
        match self {
            Port::North => (0, -1),
            Port::South => (0, 1),
            Port::East => (1, 0),
            Port::West => (-1, 0),
            Port::Ramp => (0, 0),
        }
    }
}

/// Identifies a task within a core's task table.
pub type TaskId = u16;

/// Identifies a data-structure register (tensor descriptor slot).
pub type DsrId = u16;

/// Identifies a hardware FIFO within a tile.
pub type FifoId = u16;

/// Identifies a scalar register (f32) in the core's register file.
pub type Reg = u8;

/// Number of scalar registers modeled per core.
pub const NUM_REGS: usize = 32;

/// Number of background thread slots per core ("the core supports nine
/// concurrent threads of execution").
pub const NUM_THREADS: usize = 9;

/// Bytes each router port can move per cycle in each direction. 4 bytes
/// matches the observations that a core "can receive only one [32-bit word]
/// from the fabric" per cycle while fp16 streams flow at two elements per
/// cycle.
pub const PORT_BYTES_PER_CYCLE: u32 = 4;

/// Capacity, in flits, of each (input-port, color) router queue.
pub const QUEUE_CAPACITY: usize = Ring::CAPACITY;

/// Capacity, in flits, of the core's injection (ramp-out) queue.
pub const RAMP_OUT_CAPACITY: usize = Ring::CAPACITY;

/// SIMD lanes for two-operand fp16 tensor instructions (8 fp16 flops per
/// cycle peak = 4 FMAC lanes).
pub const SIMD_F16: u32 = 4;

/// Lanes for the mixed-precision (fp16 multiply / fp32 accumulate) dot
/// instruction: "the throughput is two FMACs per core per cycle".
pub const SIMD_MIXED: u32 = 2;

/// Lanes for pure fp32 tensor instructions (one FMAC per cycle; two plain
/// adds per cycle for the AllReduce accumulation).
pub const SIMD_F32: u32 = 2;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_opposites_are_involutive() {
        for p in [Port::North, Port::South, Port::East, Port::West] {
            assert_eq!(p.opposite().unwrap().opposite().unwrap(), p);
        }
        assert_eq!(Port::Ramp.opposite(), None);
    }

    #[test]
    fn port_deltas_sum_to_zero_for_opposites() {
        for p in [Port::North, Port::South, Port::East, Port::West] {
            let (dx, dy) = p.delta();
            let (ox, oy) = p.opposite().unwrap().delta();
            assert_eq!((dx + ox, dy + oy), (0, 0));
        }
    }

    #[test]
    fn port_indices_are_distinct() {
        let mut seen = [false; 5];
        for p in Port::ALL {
            assert!(!seen[p.index()]);
            seen[p.index()] = true;
        }
    }

    #[test]
    fn flit_sizes() {
        assert_eq!(Flit::f16(0x3C00).bytes(), 2);
        assert_eq!(Flit::f32(1.0).bytes(), 4);
        assert_eq!(Flit::f32(1.0).bits, 1.0f32.to_bits());
    }

    #[test]
    fn ring_is_fifo_across_wraparound_and_keeps_widths() {
        assert!(std::mem::size_of::<Ring>() <= 40, "rings must stay packed");
        let mut r = Ring::default();
        assert!(r.is_empty() && r.front().is_none() && r.pop_front().is_none());
        // Fill, drain five, refill past the wrap point with mixed widths.
        for i in 0..8u16 {
            r.push_back(Flit::f16(i));
        }
        assert_eq!(r.space(), 0);
        for i in 0..5u32 {
            assert_eq!(r.pop_front().unwrap().bits, i);
        }
        for v in [1.5f32, 2.5, 3.5] {
            r.push_back(Flit::f32(v));
        }
        r.push_back(Flit::f16(0xBEEF));
        let got: Vec<Flit> = r.iter().collect();
        let want = [
            Flit::f16(5),
            Flit::f16(6),
            Flit::f16(7),
            Flit::f32(1.5),
            Flit::f32(2.5),
            Flit::f32(3.5),
            Flit::f16(0xBEEF),
        ];
        assert_eq!(got, want);
        assert_eq!(r.len(), 7);
        for w in want {
            assert_eq!(r.front(), Some(w));
            assert_eq!(r.pop_front(), Some(w));
        }
        r.push_back(Flit::f32(9.0));
        r.clear();
        assert!(r.is_empty() && r.iter().next().is_none());
    }

    #[test]
    #[should_panic(expected = "full ring")]
    fn ring_overflow_panics() {
        let mut r = Ring::default();
        for i in 0..9 {
            r.push_back(Flit::f16(i));
        }
    }

    #[test]
    fn two_f16_per_cycle_fit_one_port() {
        assert_eq!(PORT_BYTES_PER_CYCLE / Dtype::F16.bytes(), 2);
        assert_eq!(PORT_BYTES_PER_CYCLE / Dtype::F32.bytes(), 1);
    }
}
