//! Per-tile SRAM.
//!
//! Each tile owns 48 KB of private SRAM ("Local memory is 48 KB ... There is
//! no shared memory"). The model is byte-addressed with typed fp16/fp32
//! accessors and a bump allocator used by kernel builders; exceeding the
//! 48 KB capacity is a hard error, which is how the paper's memory-footprint
//! constraints (10 Z words, 38×38 blocks) become enforced invariants rather
//! than documentation.
//!
//! SRAM is zero-initialised, so the model backs only its *materialized
//! prefix*: bytes up to the allocator's high end or the end of the furthest
//! write, whichever reaches further. A read past the prefix (inside 48 KB)
//! returns zeros, a write past it grows the prefix to the write's end, and
//! any access reaching past 48 KB panics. A fresh tile therefore holds no
//! SRAM bytes, and copying a tile copies only its prefix.

use crate::types::Dtype;
use wse_float::F16;

/// Capacity of one tile's SRAM in bytes.
pub const TILE_SRAM_BYTES: u32 = 48 * 1024;

const SRAM_LEN: usize = TILE_SRAM_BYTES as usize;

/// A tile's private memory with a bump allocator.
#[derive(Clone, Debug)]
pub struct Memory {
    /// The materialized prefix of SRAM; every byte past it is zero.
    bytes: Vec<u8>,
    next: u32,
    peak: u32,
    allocs: Vec<Allocation>,
}

/// One recorded allocation: a contiguous byte extent handed out by
/// [`Memory::alloc`]. The linter audits descriptor extents against these.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Allocation {
    /// First byte of the extent.
    pub base: u32,
    /// Length in bytes (after 2-byte alignment rounding).
    pub len: u32,
}

impl Allocation {
    /// One past the last byte of the extent.
    #[inline]
    pub fn end(self) -> u32 {
        self.base + self.len
    }

    /// `true` if `[base, base + len)` lies entirely inside this extent.
    #[inline]
    pub fn contains(self, base: u32, len: u32) -> bool {
        base >= self.base && base + len <= self.end()
    }
}

/// Error returned when an allocation exceeds SRAM capacity.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct OutOfSram {
    /// Bytes requested.
    pub requested: u32,
    /// Bytes still free.
    pub free: u32,
}

impl std::fmt::Display for OutOfSram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tile SRAM exhausted: requested {} B, free {} B", self.requested, self.free)
    }
}

impl std::error::Error for OutOfSram {}

impl Default for Memory {
    fn default() -> Memory {
        Memory::new()
    }
}

impl Memory {
    /// A fresh, zeroed 48 KB SRAM. No byte of it is materialized yet.
    pub fn new() -> Memory {
        Memory { bytes: Vec::new(), next: 0, peak: 0, allocs: Vec::new() }
    }

    /// Allocates `nbytes` (2-byte aligned), returning the base address. The
    /// extent is materialized (zero-filled if it was never written).
    pub fn alloc(&mut self, nbytes: u32) -> Result<u32, OutOfSram> {
        // Rounded in u64: `nbytes + 1` wraps at u32::MAX.
        let aligned = (u64::from(nbytes) + 1) & !1;
        let free = TILE_SRAM_BYTES - self.next;
        if aligned > u64::from(free) {
            return Err(OutOfSram { requested: u32::try_from(aligned).unwrap_or(u32::MAX), free });
        }
        let (base, len) = (self.next, aligned as u32);
        self.next += len;
        self.peak = self.peak.max(self.next);
        self.allocs.push(Allocation { base, len });
        self.materialize(self.next as usize);
        Ok(base)
    }

    /// Allocates a vector of `len` elements of `dtype`. A byte count past
    /// `u32::MAX` saturates, so it is refused like any other oversize.
    pub fn alloc_vec(&mut self, len: u32, dtype: Dtype) -> Result<u32, OutOfSram> {
        self.alloc(len.saturating_mul(dtype.bytes()))
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u32 {
        self.next
    }

    /// Bytes still available to the allocator.
    pub fn bytes_free(&self) -> u32 {
        TILE_SRAM_BYTES - self.next
    }

    /// High-water mark of the allocator.
    pub fn peak(&self) -> u32 {
        self.peak
    }

    /// The materialized prefix of SRAM as raw bytes (equivalence testing and
    /// checkpoint tooling). It covers at least `[0, peak())`; every byte
    /// past it is zero.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Every live allocation, in allocation order (the allocation map the
    /// linter audits descriptors against).
    pub fn allocations(&self) -> &[Allocation] {
        &self.allocs
    }

    /// Grows the materialized prefix to `end` bytes, zero-filled.
    #[cold]
    fn materialize(&mut self, end: usize) {
        if end > self.bytes.len() {
            self.bytes.resize(end, 0);
        }
    }

    /// The `N` bytes at byte address `addr`.
    #[inline]
    fn load<const N: usize>(&self, addr: u32) -> [u8; N] {
        let a = addr as usize;
        match self.bytes.get(a..a + N).and_then(|b| b.try_into().ok()) {
            Some(b) => b,
            None => self.load_past_prefix(a),
        }
    }

    /// [`Memory::load`] of bytes that reach past the prefix: those read zero.
    #[cold]
    #[inline(never)]
    fn load_past_prefix<const N: usize>(&self, a: usize) -> [u8; N] {
        check_in_sram(a, N);
        let mut out = [0; N];
        if let Some(tail) = self.bytes.get(a..) {
            out[..tail.len()].copy_from_slice(tail);
        }
        out
    }

    /// Writes `b` at byte address `addr`.
    #[inline]
    fn store<const N: usize>(&mut self, addr: u32, b: [u8; N]) {
        let a = addr as usize;
        match self.bytes.get_mut(a..a + N) {
            Some(dst) => dst.copy_from_slice(&b),
            None => self.store_past_prefix(a, b),
        }
    }

    /// [`Memory::store`] that reaches past the prefix: grows it first.
    #[cold]
    #[inline(never)]
    fn store_past_prefix<const N: usize>(&mut self, a: usize, b: [u8; N]) {
        check_in_sram(a, N);
        self.materialize(a + N);
        self.bytes[a..a + N].copy_from_slice(&b);
    }

    /// Reads an fp16 element at byte address `addr`.
    #[inline]
    pub fn read_f16(&self, addr: u32) -> F16 {
        F16::from_bits(u16::from_le_bytes(self.load(addr)))
    }

    /// Writes an fp16 element at byte address `addr`.
    #[inline]
    pub fn write_f16(&mut self, addr: u32, v: F16) {
        self.store(addr, v.to_bits().to_le_bytes());
    }

    /// Reads an fp32 element at byte address `addr`.
    #[inline]
    pub fn read_f32(&self, addr: u32) -> f32 {
        f32::from_le_bytes(self.load(addr))
    }

    /// Writes an fp32 element at byte address `addr`.
    #[inline]
    pub fn write_f32(&mut self, addr: u32, v: f32) {
        self.store(addr, v.to_le_bytes());
    }

    /// Reads raw bits of an element of `dtype` (for fabric transport).
    #[inline]
    pub fn read_bits(&self, addr: u32, dtype: Dtype) -> u32 {
        match dtype {
            Dtype::F16 => self.read_f16(addr).to_bits() as u32,
            Dtype::F32 => self.read_f32(addr).to_bits(),
        }
    }

    /// Writes raw bits of an element of `dtype`.
    #[inline]
    pub fn write_bits(&mut self, addr: u32, dtype: Dtype, bits: u32) {
        match dtype {
            Dtype::F16 => self.write_f16(addr, F16::from_bits(bits as u16)),
            Dtype::F32 => self.write_f32(addr, f32::from_bits(bits)),
        }
    }

    /// Flips bit `bit` (0–15) of the 16-bit word at byte address `addr` —
    /// the fault injector's model of an SRAM single-event upset.
    ///
    /// # Panics
    /// Panics if `bit >= 16` or the word lies outside SRAM.
    pub fn flip_bit(&mut self, addr: u32, bit: u8) {
        assert!(bit < 16, "bit index {bit} out of range for a 16-bit word");
        let word = u16::from_le_bytes(self.load(addr)) ^ (1u16 << bit);
        self.store(addr, word.to_le_bytes());
    }

    /// Copies an fp16 slice into memory starting at `addr` (host-side data
    /// loading, standing in for the CS-1's host interface).
    pub fn store_f16_slice(&mut self, addr: u32, data: &[F16]) {
        // One growth for the whole slice; clamped, so a slice that runs
        // past SRAM still panics at its first out-of-range element.
        self.materialize((addr as usize + 2 * data.len()).min(SRAM_LEN));
        for (i, &v) in data.iter().enumerate() {
            self.write_f16(addr + 2 * i as u32, v);
        }
    }

    /// Reads `len` fp16 elements starting at `addr`.
    pub fn load_f16_slice(&self, addr: u32, len: usize) -> Vec<F16> {
        (0..len).map(|i| self.read_f16(addr + 2 * i as u32)).collect()
    }
}

/// Panics unless the `n`-byte access at `a` lies inside SRAM.
fn check_in_sram(a: usize, n: usize) {
    let end = a + n;
    assert!(end <= SRAM_LEN, "SRAM access [{a}, {end}) outside the {SRAM_LEN}-byte tile SRAM");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_until_full() {
        let mut m = Memory::new();
        let a = m.alloc(100).unwrap();
        let b = m.alloc(3).unwrap(); // rounds to 4
        assert_eq!(a, 0);
        assert_eq!(b, 100);
        assert_eq!(m.used(), 104);
        let err = m.alloc(TILE_SRAM_BYTES).unwrap_err();
        assert_eq!(err.free, TILE_SRAM_BYTES - 104);
        // Exactly the rest fits.
        assert!(m.alloc(TILE_SRAM_BYTES - 104).is_ok());
        assert_eq!(m.used(), TILE_SRAM_BYTES);
        assert!(m.alloc(2).is_err());
    }

    #[test]
    fn paper_3d_footprint_fits_with_room() {
        // 10 vectors of Z=1536 fp16: ~30 KB of 48 KB.
        let mut m = Memory::new();
        for _ in 0..10 {
            m.alloc_vec(1536, Dtype::F16).unwrap();
        }
        assert_eq!(m.used(), 10 * 1536 * 2);
        assert!(m.used() < TILE_SRAM_BYTES);
    }

    #[test]
    fn rw_roundtrip_f16_f32() {
        let mut m = Memory::new();
        m.write_f16(10, F16::from_f32(1.5));
        assert_eq!(m.read_f16(10).to_f32(), 1.5);
        m.write_f32(100, -2.25);
        assert_eq!(m.read_f32(100), -2.25);
        // bits path
        m.write_bits(20, Dtype::F16, F16::from_f32(3.0).to_bits() as u32);
        assert_eq!(m.read_bits(20, Dtype::F16), F16::from_f32(3.0).to_bits() as u32);
        m.write_bits(24, Dtype::F32, 7.5f32.to_bits());
        assert_eq!(m.read_f32(24), 7.5);
    }

    #[test]
    fn slice_roundtrip() {
        let mut m = Memory::new();
        let data: Vec<F16> = (0..17).map(|i| F16::from_f64(i as f64 * 0.5)).collect();
        let addr = m.alloc_vec(17, Dtype::F16).unwrap();
        m.store_f16_slice(addr, &data);
        assert_eq!(m.load_f16_slice(addr, 17), data);
    }

    #[test]
    fn bytes_free_tracks_allocations() {
        let mut m = Memory::new();
        assert_eq!(m.bytes_free(), TILE_SRAM_BYTES);
        m.alloc(100).unwrap();
        assert_eq!(m.bytes_free(), TILE_SRAM_BYTES - 100);
        m.alloc(3).unwrap(); // rounds to 4
        assert_eq!(m.bytes_free(), TILE_SRAM_BYTES - 104);
        assert_eq!(m.bytes_free(), TILE_SRAM_BYTES - m.used());
    }

    #[test]
    fn allocation_map_records_extents() {
        let mut m = Memory::new();
        let a = m.alloc(100).unwrap();
        let b = m.alloc_vec(8, Dtype::F32).unwrap();
        let map = m.allocations();
        assert_eq!(map.len(), 2);
        assert_eq!(map[0], Allocation { base: a, len: 100 });
        assert_eq!(map[1], Allocation { base: b, len: 32 });
        assert_eq!(map[1].end(), b + 32);
        assert!(map[0].contains(a, 100));
        assert!(map[0].contains(a + 10, 50));
        assert!(!map[0].contains(a + 10, 100), "extends past the extent");
        assert!(!map[1].contains(a, 4), "wrong extent");
    }

    #[test]
    fn sizes_past_u32_are_refused_not_wrapped() {
        let mut m = Memory::new();
        let err = m.alloc(u32::MAX).unwrap_err();
        assert_eq!(err, OutOfSram { requested: u32::MAX, free: TILE_SRAM_BYTES });
        // 2^31 fp16 elements are 2^32 bytes.
        assert!(m.alloc_vec(1 << 31, Dtype::F16).is_err());
        assert!(m.alloc_vec(u32::MAX, Dtype::F32).is_err());
        assert_eq!((m.used(), m.peak()), (0, 0));
        assert!(m.allocations().is_empty());
        assert!(m.as_bytes().is_empty());
    }

    #[test]
    fn only_allocated_or_written_bytes_are_materialized() {
        let mut m = Memory::new();
        assert!(m.as_bytes().is_empty());
        m.alloc(100).unwrap();
        m.alloc(3).unwrap();
        assert_eq!(m.as_bytes().len(), 104, "exactly up to the allocator's next");
        // A write past the prefix grows it to exactly the write's end.
        m.write_f16(200, F16::from_f32(1.0));
        assert_eq!(m.as_bytes().len(), 202);
        m.write_f32(300, 1.0);
        assert_eq!(m.as_bytes().len(), 304);
        m.write_bits(400, Dtype::F16, 1);
        assert_eq!(m.as_bytes().len(), 402);
        m.flip_bit(500, 0);
        assert_eq!(m.as_bytes().len(), 502);
        m.store_f16_slice(600, &[F16::from_f32(2.0); 5]);
        assert_eq!(m.as_bytes().len(), 610);
        // Writes inside the prefix leave it alone.
        m.write_f32(0, 1.0);
        assert_eq!(m.as_bytes().len(), 610);
        assert!(m.as_bytes()[202..300].iter().all(|&b| b == 0));
    }

    #[test]
    fn unwritten_bytes_read_zero() {
        let mut m = Memory::new();
        assert_eq!(m.read_f16(0).to_bits(), 0);
        assert_eq!(m.read_f32(1000).to_bits(), 0);
        assert_eq!(m.read_f16(TILE_SRAM_BYTES - 2).to_bits(), 0);
        assert_eq!(m.read_f32(TILE_SRAM_BYTES - 4).to_bits(), 0);
        assert_eq!(m.load_f16_slice(4000, 3), vec![F16::from_bits(0); 3]);
        // An f32 straddling the prefix end: materialized low half, zero high half.
        let a = m.alloc(6).unwrap();
        m.write_f16(a + 4, F16::from_bits(0xABCD));
        assert_eq!(m.as_bytes().len(), 6);
        assert_eq!(m.read_f32(a + 4).to_bits(), 0x0000_ABCD);
        assert_eq!(m.read_bits(a + 4, Dtype::F32), 0x0000_ABCD);
        assert_eq!(m.as_bytes().len(), 6, "reads do not materialize");
        // The last word of SRAM is writable.
        m.write_f16(TILE_SRAM_BYTES - 2, F16::from_bits(7));
        assert_eq!(m.as_bytes().len(), TILE_SRAM_BYTES as usize);
        assert_eq!(m.read_f16(TILE_SRAM_BYTES - 2).to_bits(), 7);
    }

    #[test]
    fn accesses_past_sram_still_panic() {
        type Access = fn(&mut Memory, u32);
        let accesses: [(&str, Access); 7] = [
            ("read_f16", |m, a| _ = m.read_f16(a)),
            ("read_f32", |m, a| _ = m.read_f32(a)),
            ("read_bits", |m, a| _ = m.read_bits(a, Dtype::F16)),
            ("write_f16", |m, a| m.write_f16(a, F16::from_bits(1))),
            ("write_f32", |m, a| m.write_f32(a, 1.0)),
            ("write_bits", |m, a| m.write_bits(a, Dtype::F16, 1)),
            ("flip_bit", |m, a| m.flip_bit(a, 0)),
        ];
        for addr in [TILE_SRAM_BYTES - 1, TILE_SRAM_BYTES] {
            // Both on a fresh memory and on one backed to the last byte.
            for backed in [false, true] {
                for (name, access) in accesses {
                    let mut m = Memory::new();
                    if backed {
                        m.alloc(TILE_SRAM_BYTES).unwrap();
                    }
                    let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        access(&mut m, addr)
                    }));
                    assert!(hit.is_err(), "{name} at {addr} (backed: {backed}) did not panic");
                }
            }
        }
    }
}
