//! Bit-level IEEE 754 binary16 ("half precision", `fp16`).
//!
//! Layout: 1 sign bit, 5 exponent bits (bias 15), 10 explicit significand
//! bits (11 with the hidden bit). All conversions round to nearest with ties
//! to even, the only rounding mode the CS-1 datapath exposes.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// An IEEE 754 binary16 floating point number stored as its raw bit pattern.
///
/// Arithmetic is correctly rounded (round-to-nearest, ties-to-even); see the
/// crate docs for why routing through `f32` achieves this.
#[derive(Copy, Clone, Default)]
pub struct F16(u16);

const SIGN_MASK: u16 = 0x8000;
const EXP_MASK: u16 = 0x7C00;
const MAN_MASK: u16 = 0x03FF;

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0x0000);
    /// Negative zero.
    pub const NEG_ZERO: F16 = F16(0x8000);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Negative one.
    pub const NEG_ONE: F16 = F16(0xBC00);
    /// Two.
    pub const TWO: F16 = F16(0x4000);
    /// One half.
    pub const HALF: F16 = F16(0x3800);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xFC00);
    /// A quiet NaN.
    pub const NAN: F16 = F16(0x7E00);
    /// Machine epsilon: the gap between 1.0 and the next representable
    /// value, `2^-10`. The paper quotes "machine precision is about 1e-3"
    /// for this format.
    pub const EPSILON: F16 = F16(0x1400);
    /// Largest finite value, 65504.
    pub const MAX: F16 = F16(0x7BFF);
    /// Most negative finite value, -65504.
    pub const MIN: F16 = F16(0xFBFF);
    /// Smallest positive normal value, `2^-14`.
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Smallest positive subnormal value, `2^-24`.
    pub const MIN_POSITIVE_SUBNORMAL: F16 = F16(0x0001);

    /// Number of significand bits including the hidden bit.
    pub const MANTISSA_DIGITS: u32 = 11;

    /// Reinterprets raw bits as an `F16`.
    #[inline]
    pub const fn from_bits(bits: u16) -> F16 {
        F16(bits)
    }

    /// Returns the raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts from `f32`, rounding to nearest (ties to even).
    #[inline]
    pub fn from_f32(value: f32) -> F16 {
        F16(f32_to_f16_bits(value))
    }

    /// Converts from `f64`, rounding to nearest (ties to even).
    ///
    /// Performed as a single rounding directly from the binary64 encoding;
    /// going through `f32` first could double-round (24 bits is enough
    /// headroom for *arithmetic on f16 operands*, not for arbitrary `f64`
    /// inputs).
    #[inline]
    pub fn from_f64(value: f64) -> F16 {
        F16(f64_to_f16_bits(value))
    }

    /// Widens to `f32` (exact: every binary16 value is representable).
    #[inline]
    pub fn to_f32(self) -> f32 {
        f16_bits_to_f32(self.0)
    }

    /// Widens to `f64` (exact).
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.to_f32() as f64
    }

    /// `true` if the value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & EXP_MASK) == EXP_MASK && (self.0 & MAN_MASK) != 0
    }

    /// `true` if the value is +∞ or -∞.
    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & !SIGN_MASK) == EXP_MASK
    }

    /// `true` if the value is neither infinite nor NaN.
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & EXP_MASK) != EXP_MASK
    }

    /// `true` if the value is subnormal (nonzero with a zero exponent field).
    #[inline]
    pub fn is_subnormal(self) -> bool {
        (self.0 & EXP_MASK) == 0 && (self.0 & MAN_MASK) != 0
    }

    /// `true` for +0.0 and -0.0.
    #[inline]
    pub fn is_zero(self) -> bool {
        (self.0 & !SIGN_MASK) == 0
    }

    /// `true` if the sign bit is set (includes -0.0 and NaNs with the sign
    /// bit set).
    #[inline]
    pub fn is_sign_negative(self) -> bool {
        (self.0 & SIGN_MASK) != 0
    }

    /// Absolute value (clears the sign bit; exact).
    #[inline]
    pub fn abs(self) -> F16 {
        F16(self.0 & !SIGN_MASK)
    }

    /// Correctly rounded square root.
    ///
    /// `sqrt` is one of the operations for which double rounding through
    /// binary32 is innocuous at this precision.
    #[inline]
    pub fn sqrt(self) -> F16 {
        F16::from_f32(self.to_f32().sqrt())
    }

    /// Correctly rounded reciprocal `1/x`.
    #[inline]
    pub fn recip(self) -> F16 {
        F16::from_f32(1.0 / self.to_f32())
    }

    /// IEEE `minNum`: the smaller operand, preferring a number over NaN.
    #[inline]
    pub fn min(self, other: F16) -> F16 {
        F16::from_f32(self.to_f32().min(other.to_f32()))
    }

    /// IEEE `maxNum`: the larger operand, preferring a number over NaN.
    #[inline]
    pub fn max(self, other: F16) -> F16 {
        F16::from_f32(self.to_f32().max(other.to_f32()))
    }

    /// IEEE 754 `totalOrder` predicate, mirroring [`f32::total_cmp`].
    pub fn total_cmp(&self, other: &F16) -> Ordering {
        let mut l = self.0 as i16;
        let mut r = other.0 as i16;
        l ^= (((l >> 15) as u16) >> 1) as i16;
        r ^= (((r >> 15) as u16) >> 1) as i16;
        l.cmp(&r)
    }

    /// Next representable value toward +∞ (saturates at +∞; NaN maps to NaN).
    pub fn next_up(self) -> F16 {
        if self.is_nan() || self.0 == Self::INFINITY.0 {
            return self;
        }
        if self.0 == Self::NEG_ZERO.0 || self.0 == Self::ZERO.0 {
            return Self::MIN_POSITIVE_SUBNORMAL;
        }
        if self.is_sign_negative() {
            F16(self.0 - 1)
        } else {
            F16(self.0 + 1)
        }
    }

    /// Distance from `self` to `other` in units-in-the-last-place of the
    /// binary16 lattice (using the monotone total-order mapping). Useful in
    /// accuracy tests.
    pub fn ulp_distance(self, other: F16) -> u32 {
        fn key(h: F16) -> i32 {
            let b = h.0 as i32;
            if b & (SIGN_MASK as i32) != 0 {
                (SIGN_MASK as i32) - b
            } else {
                b
            }
        }
        (key(self) - key(other)).unsigned_abs()
    }
}

/// `(15 - 127) << 23`: moves a binary16 exponent field, shifted into the
/// binary32 position, onto the binary32 bias.
const REBIAS: u32 = 112 << 23;

/// `2^-14`, the smallest normal binary16 value, as binary32 bits.
const MIN_NORMAL: u32 = REBIAS + (1 << 23);

/// Lossless widening conversion: shift exponent and mantissa into place and
/// rebias. Inf/NaN (exponent 31) take a second rebias to reach exponent 255,
/// keeping the payload; a subnormal or zero is read as `2^-14 * (1 + m/1024)`
/// and renormalised by one exact f32 subtraction of `2^-14`.
#[inline]
fn f16_bits_to_f32(bits: u16) -> f32 {
    let sign = ((bits & SIGN_MASK) as u32) << 16;
    let mut mag = ((bits & !SIGN_MASK) as u32) << 13;
    match bits & EXP_MASK {
        EXP_MASK => mag += 2 * REBIAS,
        0 => mag = (f32::from_bits(mag + MIN_NORMAL) - f32::from_bits(MIN_NORMAL)).to_bits(),
        _ => mag += REBIAS,
    }
    f32::from_bits(sign | mag)
}

/// Narrowing conversion with round-to-nearest, ties-to-even.
///
/// Normals round in integer arithmetic: adding `0xFFF` plus the lowest kept
/// bit to the 13 discarded bits carries exactly when RNE rounds up (the
/// carry may run into the exponent, up to infinity). Below `2^-14` one f32
/// addition of `0.5` rounds to the subnormal quantum `2^-24` (the hardware
/// rounds once, ties to even), leaving the subnormal significand in the low
/// bits.
#[inline]
fn f32_to_f16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & (SIGN_MASK as u32)) as u16;
    let abs = bits & 0x7FFF_FFFF;
    if abs >= 0x4780_0000 {
        // At least 2^16: overflows to infinity, or is infinity or NaN.
        return if abs > 0x7F80_0000 {
            // NaN: preserve the top payload bits, force quiet.
            sign | EXP_MASK | 0x0200 | ((abs >> 13) as u16 & MAN_MASK)
        } else {
            sign | EXP_MASK
        };
    }
    let out = if abs < MIN_NORMAL {
        const HALF: f32 = 0.5;
        (f32::from_bits(abs) + HALF).to_bits() - HALF.to_bits()
    } else {
        (abs - REBIAS + 0xFFF + ((abs >> 13) & 1)) >> 13
    };
    sign | out as u16
}

/// Narrowing conversion from binary64 with a single round-to-nearest-even.
fn f64_to_f16_bits(value: f64) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 48) & (SIGN_MASK as u64)) as u16;
    let exp = ((bits >> 52) & 0x7FF) as i32;
    let man = bits & 0x000F_FFFF_FFFF_FFFF;

    if exp == 0x7FF {
        return if man == 0 {
            sign | EXP_MASK
        } else {
            sign | EXP_MASK | 0x0200 | ((man >> 42) as u16 & MAN_MASK)
        };
    }

    let unbiased = exp - 1023;
    if unbiased > 15 {
        return sign | EXP_MASK;
    }
    if unbiased >= -14 {
        let half_exp = (unbiased + 15) as u64;
        let mut out = ((half_exp << 10) | (man >> 42)) as u32;
        let rem = man & 0x3FF_FFFF_FFFF;
        let halfway = 0x200_0000_0000u64;
        if rem > halfway || (rem == halfway && (out & 1) == 1) {
            out += 1;
        }
        return sign | out as u16;
    }
    if unbiased >= -25 {
        let man = man | 0x0010_0000_0000_0000;
        let shift = (-14 - unbiased) as u32 + 42;
        let out = man >> shift;
        let rem = man & ((1u64 << shift) - 1);
        let halfway = 1u64 << (shift - 1);
        let mut out = out as u16;
        if rem > halfway || (rem == halfway && (out & 1) == 1) {
            out += 1;
        }
        return sign | out;
    }
    // Below 2^-25 in magnitude, i.e. strictly under half the smallest
    // subnormal: rounds to signed zero. (The exact halfway point 2^-25 has
    // unbiased == -25 and is handled above, where it ties to even = zero.)
    sign
}

impl PartialEq for F16 {
    fn eq(&self, other: &F16) -> bool {
        self.to_f32() == other.to_f32() // IEEE semantics: NaN != NaN, -0 == +0
    }
}

impl PartialOrd for F16 {
    fn partial_cmp(&self, other: &F16) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl Add for F16 {
    type Output = F16;
    #[inline]
    fn add(self, rhs: F16) -> F16 {
        F16::from_f32(self.to_f32() + rhs.to_f32())
    }
}

impl Sub for F16 {
    type Output = F16;
    #[inline]
    fn sub(self, rhs: F16) -> F16 {
        F16::from_f32(self.to_f32() - rhs.to_f32())
    }
}

impl Mul for F16 {
    type Output = F16;
    #[inline]
    fn mul(self, rhs: F16) -> F16 {
        F16::from_f32(self.to_f32() * rhs.to_f32())
    }
}

impl Div for F16 {
    type Output = F16;
    #[inline]
    fn div(self, rhs: F16) -> F16 {
        F16::from_f32(self.to_f32() / rhs.to_f32())
    }
}

impl Neg for F16 {
    type Output = F16;
    #[inline]
    fn neg(self) -> F16 {
        F16(self.0 ^ SIGN_MASK)
    }
}

impl AddAssign for F16 {
    #[inline]
    fn add_assign(&mut self, rhs: F16) {
        *self = *self + rhs;
    }
}

impl SubAssign for F16 {
    #[inline]
    fn sub_assign(&mut self, rhs: F16) {
        *self = *self - rhs;
    }
}

impl MulAssign for F16 {
    #[inline]
    fn mul_assign(&mut self, rhs: F16) {
        *self = *self * rhs;
    }
}

impl DivAssign for F16 {
    #[inline]
    fn div_assign(&mut self, rhs: F16) {
        *self = *self / rhs;
    }
}

impl From<f32> for F16 {
    fn from(v: f32) -> F16 {
        F16::from_f32(v)
    }
}

impl From<F16> for f32 {
    fn from(v: F16) -> f32 {
        v.to_f32()
    }
}

impl From<F16> for f64 {
    fn from(v: F16) -> f64 {
        v.to_f64()
    }
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}f16", self.to_f32())
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

impl FromStr for F16 {
    type Err = std::num::ParseFloatError;
    fn from_str(s: &str) -> Result<F16, Self::Err> {
        Ok(F16::from_f64(s.parse::<f64>()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_have_expected_values() {
        assert_eq!(F16::ZERO.to_f32(), 0.0);
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(F16::NEG_ONE.to_f32(), -1.0);
        assert_eq!(F16::TWO.to_f32(), 2.0);
        assert_eq!(F16::HALF.to_f32(), 0.5);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::MIN.to_f32(), -65504.0);
        assert_eq!(F16::EPSILON.to_f64(), f64::powi(2.0, -10));
        assert_eq!(F16::MIN_POSITIVE.to_f64(), f64::powi(2.0, -14));
        assert_eq!(F16::MIN_POSITIVE_SUBNORMAL.to_f64(), f64::powi(2.0, -24));
        assert!(F16::NAN.is_nan());
        assert!(F16::INFINITY.is_infinite());
        assert!(!F16::INFINITY.is_sign_negative());
        assert!(F16::NEG_INFINITY.is_infinite());
        assert!(F16::NEG_INFINITY.is_sign_negative());
    }

    #[test]
    fn machine_precision_near_1e_minus_3() {
        // The paper: "With this precision, machine precision is about 1e-3".
        let eps = F16::EPSILON.to_f64();
        assert!(eps > 5e-4 && eps < 2e-3, "eps = {eps}");
    }

    #[test]
    fn roundtrip_all_finite_bit_patterns_through_f32() {
        for bits in 0..=u16::MAX {
            let h = F16::from_bits(bits);
            if h.is_nan() {
                assert!(F16::from_f32(h.to_f32()).is_nan());
            } else {
                assert_eq!(F16::from_f32(h.to_f32()).to_bits(), bits, "bits {bits:#06x}");
            }
        }
    }

    #[test]
    fn roundtrip_all_finite_bit_patterns_through_f64() {
        for bits in 0..=u16::MAX {
            let h = F16::from_bits(bits);
            if h.is_nan() {
                assert!(F16::from_f64(h.to_f64()).is_nan());
            } else {
                assert_eq!(F16::from_f64(h.to_f64()).to_bits(), bits, "bits {bits:#06x}");
            }
        }
    }

    #[test]
    fn f32_conversion_agrees_with_f64_conversion() {
        // Every f32 must round to the same f16 whether narrowed directly or
        // widened to f64 first (widening is exact, so these must agree).
        let mut x = 1.0e-9f32;
        while x < 1.0e9 {
            for v in [x, -x, x * 1.0000001, x * 0.9999999] {
                let a = F16::from_f32(v).to_bits();
                let b = F16::from_f64(v as f64).to_bits();
                assert_eq!(a, b, "v = {v}");
            }
            x *= 1.37;
        }
    }

    #[test]
    fn rounding_ties_to_even() {
        // 1 + 2^-11 is exactly halfway between 1 and 1 + 2^-10: ties to 1 (even).
        assert_eq!(F16::from_f64(1.0 + f64::powi(2.0, -11)).to_f64(), 1.0);
        // 1 + 3*2^-11 is halfway between 1 + 2^-10 and 1 + 2^-9: ties to even
        // mantissa (..10), i.e. 1 + 2^-9.
        assert_eq!(
            F16::from_f64(1.0 + 3.0 * f64::powi(2.0, -11)).to_f64(),
            1.0 + f64::powi(2.0, -9)
        );
        // Just above the halfway point rounds up.
        assert_eq!(
            F16::from_f64(1.0 + f64::powi(2.0, -11) + f64::powi(2.0, -20)).to_f64(),
            1.0 + f64::powi(2.0, -10)
        );
    }

    #[test]
    fn overflow_rounds_to_infinity() {
        assert!(F16::from_f32(65520.0).is_infinite()); // first value that rounds up
        assert_eq!(F16::from_f32(65519.0).to_f32(), 65504.0); // rounds down to MAX
        assert!(F16::from_f32(1e30).is_infinite());
        assert!(F16::from_f32(-1e30).is_infinite());
        assert!(F16::from_f32(-1e30).is_sign_negative());
    }

    #[test]
    fn underflow_and_subnormals() {
        let tiny = f64::powi(2.0, -24);
        assert_eq!(F16::from_f64(tiny).to_bits(), 1);
        assert!(F16::from_f64(tiny).is_subnormal());
        // Halfway between 0 and the smallest subnormal ties to even (zero).
        assert_eq!(F16::from_f64(tiny / 2.0).to_bits(), 0);
        // Slightly above halfway rounds to the subnormal.
        assert_eq!(F16::from_f64(tiny * 0.5000001).to_bits(), 1);
        // Below half of the smallest subnormal: flushes to (signed) zero.
        assert_eq!(F16::from_f64(tiny / 4.0).to_bits(), 0);
        assert_eq!(F16::from_f64(-tiny / 4.0).to_bits(), SIGN_MASK);
        // Largest subnormal.
        let largest_sub = F16::from_bits(0x03FF);
        assert!(largest_sub.is_subnormal());
        assert_eq!(largest_sub.to_f64(), 1023.0 * f64::powi(2.0, -24));
    }

    #[test]
    fn rounding_carry_across_binade() {
        // The largest value below 2.0 plus half an ulp rounds up into the
        // next binade; the carry out of the mantissa must propagate.
        let below_two = F16::from_bits(0x3FFF); // 1.9990234375
        let v = below_two.to_f64() + f64::powi(2.0, -11);
        assert_eq!(F16::from_f64(v).to_f64(), 2.0);
    }

    #[test]
    fn signed_zero_semantics() {
        assert_eq!(F16::NEG_ZERO, F16::ZERO);
        assert!(F16::NEG_ZERO.is_sign_negative());
        assert!(!F16::ZERO.is_sign_negative());
        assert_eq!((-F16::ZERO).to_bits(), F16::NEG_ZERO.to_bits());
    }

    #[test]
    fn nan_comparisons() {
        assert_ne!(F16::NAN, F16::NAN);
        assert!(F16::NAN.partial_cmp(&F16::ONE).is_none());
        assert_eq!(F16::NAN.total_cmp(&F16::NAN), Ordering::Equal);
    }

    #[test]
    fn total_cmp_orders_the_lattice() {
        let seq = [
            F16::NEG_INFINITY,
            F16::MIN,
            F16::NEG_ONE,
            -F16::MIN_POSITIVE_SUBNORMAL,
            F16::NEG_ZERO,
            F16::ZERO,
            F16::MIN_POSITIVE_SUBNORMAL,
            F16::MIN_POSITIVE,
            F16::ONE,
            F16::MAX,
            F16::INFINITY,
        ];
        for w in seq.windows(2) {
            assert_eq!(w[0].total_cmp(&w[1]), Ordering::Less, "{:?} < {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn arithmetic_matches_f64_reference() {
        // Exhaustive over a spread of operand pairs: op in f16 must equal
        // round16(op computed exactly), exercising the double-rounding claim.
        let samples: Vec<F16> = (0..2000)
            .map(|i| F16::from_bits((i * 31 + 7) as u16))
            .filter(|h| h.is_finite())
            .collect();
        for &a in &samples {
            for &b in samples.iter().step_by(97) {
                let (af, bf) = (a.to_f64(), b.to_f64());
                assert_eq!((a + b).to_bits(), F16::from_f64(af + bf).to_bits(), "{a:?}+{b:?}");
                assert_eq!((a - b).to_bits(), F16::from_f64(af - bf).to_bits(), "{a:?}-{b:?}");
                assert_eq!((a * b).to_bits(), F16::from_f64(af * bf).to_bits(), "{a:?}*{b:?}");
            }
        }
    }

    #[test]
    fn division_and_sqrt_reference() {
        for i in 1..500u16 {
            let a = F16::from_bits(i * 64);
            if !a.is_finite() || a.is_zero() {
                continue;
            }
            let r = (F16::ONE / a).to_f64();
            let expect = F16::from_f64(1.0 / a.to_f64()).to_f64();
            assert_eq!(r, expect, "1/{a:?}");
            if !a.is_sign_negative() {
                assert_eq!(a.sqrt().to_bits(), F16::from_f64(a.to_f64().sqrt()).to_bits());
            }
        }
    }

    #[test]
    fn next_up_and_ulp_distance() {
        assert_eq!(F16::ZERO.next_up().to_bits(), 1);
        assert_eq!(F16::ONE.ulp_distance(F16::ONE), 0);
        assert_eq!(F16::ONE.ulp_distance(F16::ONE.next_up()), 1);
        assert_eq!(F16::NEG_ZERO.ulp_distance(F16::ZERO), 0);
        let a = F16::from_f32(-1.0);
        assert_eq!(a.ulp_distance(a.next_up()), 1);
    }

    #[test]
    fn nan_payload_preserved_on_narrowing() {
        let nan32 = f32::from_bits(0x7FC1_2000);
        assert!(F16::from_f32(nan32).is_nan());
        let nan64 = f64::from_bits(0x7FF8_1230_0000_0000);
        assert!(F16::from_f64(nan64).is_nan());
    }

    #[test]
    fn display_and_parse() {
        assert_eq!(format!("{}", F16::from_f32(1.5)), "1.5");
        assert_eq!("0.25".parse::<F16>().unwrap().to_f32(), 0.25);
        assert_eq!(format!("{:?}", F16::TWO), "2f16");
    }
}
