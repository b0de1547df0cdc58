//! Bit-identity pins for the binary16 conversions and `fma16`.
//!
//! The references below are the straightforward algorithms: a bit-by-bit
//! widening with explicit subnormal renormalisation, a narrowing that
//! rounds the discarded bits by comparison with the halfway point, and an
//! `fma16` that evaluates in `f64` and narrows once. The library's
//! branch-light versions must produce the same bits on every input tried
//! here. The debug tests cover every binary16 input and every place a
//! rounding decision changes; the `#[ignore]`d tests (run them with
//! `cargo test --release -p wse-float -- --ignored`) sweep all 2^32 binary32
//! inputs and 4·10^8 random triples.

use wse_float::{fma16, F16};

/// Reference widening.
fn widen_ref(bits: u16) -> f32 {
    let sign = ((bits & 0x8000) as u32) << 16;
    let exp = ((bits & 0x7C00) >> 10) as u32;
    let man = (bits & 0x03FF) as u32;
    let out = match (exp, man) {
        (0, 0) => sign,
        (0, _) => {
            let shift = man.leading_zeros() - 21;
            sign | ((113 - shift) << 23) | (((man << shift) & 0x3FF) << 13)
        }
        (0x1F, _) => sign | 0x7F80_0000 | (man << 13),
        _ => sign | ((exp + 127 - 15) << 23) | (man << 13),
    };
    f32::from_bits(out)
}

/// Reference narrowing, round to nearest, ties to even.
fn narrow_ref(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let man = bits & 0x007F_FFFF;
    if exp == 0xFF {
        return if man == 0 { sign | 0x7C00 } else { sign | 0x7E00 | ((man >> 13) as u16 & 0x3FF) };
    }
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7C00;
    }
    let (full, shift, base) = if unbiased >= -14 {
        (man, 13, ((unbiased + 15) as u32) << 10)
    } else if unbiased >= -25 {
        (man | 0x0080_0000, (-14 - unbiased) as u32 + 13, 0)
    } else {
        return sign;
    };
    let mut out = base | (full >> shift);
    let rem = full & ((1 << shift) - 1);
    let halfway = 1 << (shift - 1);
    if rem > halfway || (rem == halfway && out & 1 == 1) {
        out += 1;
    }
    sign | out as u16
}

/// Reference fused multiply-accumulate: evaluate in `f64`, narrow once.
fn fma_ref(a: F16, b: F16, c: F16) -> F16 {
    let w = |h: F16| widen_ref(h.to_bits()) as f64;
    F16::from_f64(w(a) * w(b) + w(c))
}

fn check_narrow(x: f32) {
    let got = F16::from_f32(x).to_bits();
    assert_eq!(got, narrow_ref(x), "from_f32({x:e}) [{:#010x}]", x.to_bits());
    assert_eq!(got, F16::from_f64(x as f64).to_bits(), "from_f64 disagrees at {x:e}");
}

/// Exact bits, except that a NaN result only has to be a NaN: Rust leaves
/// the payload of an arithmetic NaN unspecified (which NaN operand wins an
/// `a + b` depends on how the compiler orders it), so the reference itself
/// does not pin one.
fn fma_agrees(a: F16, b: F16, c: F16) -> bool {
    let (got, want) = (fma16(a, b, c), fma_ref(a, b, c));
    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
}

fn check_fma(a: F16, b: F16, c: F16) {
    let (got, want) = (fma16(a, b, c).to_bits(), fma_ref(a, b, c).to_bits());
    assert!(fma_agrees(a, b, c), "fma16({a:?}, {b:?}, {c:?}) = {got:#06x}, reference {want:#06x}");
}

/// SplitMix64: a seeded, dependency-free source for the random corpora.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn f16(&mut self) -> F16 {
        F16::from_bits(self.next() as u16)
    }

    /// A binary16 value with the given sign and unbiased exponent
    /// (-24..=15; below -14 a subnormal) and a random significand.
    fn with_exp(&mut self, negative: bool, exp: i32) -> F16 {
        let bits = if exp >= -14 {
            (((exp + 15) as u16) << 10) | (self.next() as u16 & 0x3FF)
        } else {
            let top = 1u16 << (exp + 24);
            top | (self.next() as u16 & (top - 1))
        };
        F16::from_bits(bits | if negative { 0x8000 } else { 0 })
    }

    /// A random sign and an exponent in `lo..lo + span`.
    fn around(&mut self, lo: i32, span: u64) -> F16 {
        let (negative, exp) = (self.next() & 1 != 0, lo + (self.next() % span) as i32);
        self.with_exp(negative, exp)
    }

    /// An exponent for [`Rng::with_exp`], subnormals included.
    fn exp(&mut self) -> i32 {
        (self.next() % 40) as i32 - 24
    }
}

#[test]
fn widening_matches_reference_on_every_input() {
    for bits in 0..=u16::MAX {
        let (got, want) = (F16::from_bits(bits).to_f32(), widen_ref(bits));
        assert_eq!(got.to_bits(), want.to_bits(), "to_f32({bits:#06x})");
    }
}

#[test]
fn narrowing_matches_reference_around_every_rounding_boundary() {
    // Every binary16 value and every midpoint between neighbours, ±4 f32
    // ulps: each binade, the ties, the carry into the next binade, and the
    // subnormal range (the midpoints below 2^-14 sit at odd multiples of
    // 2^-25).
    for bits in 0..0x7C00u16 {
        let lo = widen_ref(bits) as f64;
        let hi = widen_ref(bits + 1) as f64;
        for centre in [lo as f32, ((lo + hi) / 2.0) as f32] {
            for d in -4i32..=4 {
                let x = f32::from_bits(centre.to_bits().wrapping_add_signed(d));
                check_narrow(x);
                check_narrow(-x);
            }
        }
    }
    // The subnormal/normal edge and the underflow edge, densely.
    for edge in [2f32.powi(-14), 2f32.powi(-24), 2f32.powi(-25), 2f32.powi(-26)] {
        for d in -4096i32..=4096 {
            let x = f32::from_bits(edge.to_bits().wrapping_add_signed(d));
            check_narrow(x);
            check_narrow(-x);
        }
    }
    // The overflow edge: every f32 from 65504 to a little past 65520.
    let mut x = 65504.0f32;
    while x <= 65536.0 {
        check_narrow(x);
        check_narrow(-x);
        x = f32::from_bits(x.to_bits() + 1);
    }
    // Zeros, infinities, NaN payloads and f32 subnormals.
    for bits in [0, 1, 0x007F_FFFF, 0x7F80_0000, 0x7F80_0001, 0x7FC0_0000, 0x7FC1_2000, 0x7FFF_FFFF]
    {
        check_narrow(f32::from_bits(bits));
        check_narrow(f32::from_bits(bits | 0x8000_0000));
    }
    // A strided sweep over every pattern.
    for bits in (0..=u32::MAX).step_by(4099) {
        check_narrow(f32::from_bits(bits));
    }
}

#[test]
fn fma16_matches_reference_on_random_triples() {
    let mut rng = Rng(0x5EED_F16A);
    for _ in 0..1_000_000 {
        check_fma(rng.f16(), rng.f16(), rng.f16());
    }
}

#[test]
fn fma16_matches_reference_on_structured_corpus() {
    let mut rng = Rng(27);
    // Exponent gaps 0..=60 between the product and the addend, either way
    // round and in every sign combination. Products span 2^-48..2^31.
    for gap in 0..=60 {
        for _ in 0..256 {
            let (ea, eb) = (rng.exp(), rng.exp());
            for ec in [ea + eb + gap, ea + eb - gap] {
                if !(-24..=15).contains(&ec) {
                    continue;
                }
                for signs in 0..8 {
                    let a = rng.with_exp(signs & 1 != 0, ea);
                    let b = rng.with_exp(signs & 2 != 0, eb);
                    check_fma(a, b, rng.with_exp(signs & 4 != 0, ec));
                }
            }
        }
    }
    // Exact and near cancellation: c is -(a·b) rounded, and its neighbours.
    for _ in 0..20_000 {
        let (a, b) = (rng.f16(), rng.f16());
        let c = -(a * b);
        for c in [c, c.next_up(), -((-c).next_up())] {
            check_fma(a, b, c);
        }
    }
    // Results at and next to binary16 midpoints: c plus a product equal to
    // half an ulp of c, nudged by one product ulp either way.
    for bits in (0x0400u16..0x7BFF).step_by(7) {
        let c = F16::from_bits(bits);
        let half_ulp = (widen_ref(bits + 1) - widen_ref(bits)) / 2.0;
        let h = F16::from_f32(half_ulp);
        if h.to_f32() != half_ulp {
            continue; // half an ulp below 2^-24 is not a binary16 value
        }
        for m in [1.0f32, 1.0 + 2f32.powi(-10), 1.0 - 2f32.powi(-11), 3.0] {
            let m = F16::from_f32(m);
            for (x, y) in [(h, m), (-h, m), (m, h)] {
                check_fma(x, y, c);
                check_fma(x, y, -c);
            }
        }
    }
    // Subnormal results: tiny products beside subnormal addends.
    for _ in 0..50_000 {
        let (a, b) = (rng.around(-14, 8), rng.around(-10, 8));
        let c = F16::from_bits((rng.next() as u16) & 0x83FF);
        check_fma(a, b, c);
    }
    // Overflow: products and sums around 65504..65520 and beyond.
    for _ in 0..50_000 {
        let (a, b, c) = (rng.around(7, 3), rng.around(6, 3), rng.around(13, 3));
        check_fma(a, b, c);
    }
    // Signed zeros, infinities and NaNs against every class of operand.
    let specials = [
        F16::ZERO,
        F16::NEG_ZERO,
        F16::INFINITY,
        F16::NEG_INFINITY,
        F16::NAN,
        F16::from_bits(0xFE01),
        F16::from_bits(0x7D55),
        F16::ONE,
        F16::NEG_ONE,
        F16::MAX,
        F16::MIN,
        F16::MIN_POSITIVE_SUBNORMAL,
        -F16::MIN_POSITIVE_SUBNORMAL,
        F16::MIN_POSITIVE,
    ];
    for &a in &specials {
        for &b in &specials {
            for &c in &specials {
                check_fma(a, b, c);
            }
        }
    }
}

#[test]
#[ignore = "full 2^32 sweep; run in release"]
fn narrowing_matches_reference_on_every_f32() {
    for bits in 0..=u32::MAX {
        let x = f32::from_bits(bits);
        let got = F16::from_f32(x).to_bits();
        if got != narrow_ref(x) || got != F16::from_f64(x as f64).to_bits() {
            check_narrow(x); // panics with the details
        }
    }
}

#[test]
#[ignore = "4·10^8 random triples; run in release"]
fn fma16_matches_reference_on_many_random_triples() {
    let mut rng = Rng(0xF16A_0027);
    for _ in 0..400_000_000u64 {
        let x = rng.next();
        let (a, b, c) = (
            F16::from_bits(x as u16),
            F16::from_bits((x >> 16) as u16),
            F16::from_bits((x >> 32) as u16),
        );
        if !fma_agrees(a, b, c) {
            check_fma(a, b, c); // panics with the details
        }
    }
}
