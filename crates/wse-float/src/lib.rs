//! Software implementation of the floating-point datapath of the Cerebras
//! CS-1 wafer-scale engine, as described in *Fast Stencil-Code Computation on
//! a Wafer-Scale Processor* (SC'20).
//!
//! The CS-1 instruction set operates on IEEE 754 binary16 (`fp16`) and
//! binary32 (`fp32`) values. Three arithmetic flavours matter for the paper:
//!
//! * **Pure fp16** — adds, multiplies and fused multiply-accumulates
//!   (FMAC, *"with no rounding of the product prior to the add"*) executed
//!   4-wide SIMD. Used for the AXPY and SpMV kernels.
//! * **Mixed precision** — fp16 multiplies feeding fp32 accumulation, used by
//!   the hardware inner-product instruction. The paper's BiCGStab does its
//!   four dot products this way.
//! * **Pure fp32** — one FMAC per core per cycle; used for the AllReduce.
//!
//! This crate provides bit-exact software equivalents:
//!
//! * [`F16`] — a bit-level binary16 with correctly rounded (round-to-nearest,
//!   ties-to-even) arithmetic,
//! * [`F16x4`] — the 4-lane SIMD view of the datapath,
//! * [`mixed`] — mixed-precision FMAC/dot accumulators,
//! * [`reduce`] — reference reductions (pairwise, compensated) used to build
//!   trustworthy baselines for the accuracy experiments (Fig. 9).
//!
//! # Correct rounding strategy
//!
//! binary32 carries 24 significand bits, which is `2 * 11 + 2` for binary16's
//! 11 — exactly the classical threshold at which *double rounding is
//! innocuous* for `+`, `-`, `*`, `/` and `sqrt`. So those operations convert
//! to `f32`, compute, and round back, and are nevertheless correctly rounded.
//! The fused multiply-accumulate (see [`fma16`]) also stays in `f32`: the
//! product of two binary16 values is exact in binary32, TwoSum recovers the
//! exact error of adding the addend, and rounding that sum to odd at 24 bits
//! and then to nearest-even at 11 bits is a single rounding of the exact
//! result (24 ≥ 11 + 2).

#![warn(missing_docs)]

pub mod f16;
pub mod mixed;
pub mod reduce;
pub mod simd;

pub use f16::F16;
pub use mixed::{dot_mixed, dot_pure_f16, MixedAccumulator};
pub use simd::F16x4;

/// Fused multiply-accumulate in binary16: `round16(a * b + c)` with a single
/// rounding, matching the CS-1 FMAC ("no rounding of the product prior to the
/// add").
///
/// `p = a * b` is exact in `f32` (two 11-bit significands make at most 22
/// bits, and binary16's range sits well inside binary32's). `s = p + c` is
/// rounded, but TwoSum gives its error `err` exactly. Where `err != 0` the
/// sum is replaced by its round-to-odd value: the truncation of the exact sum
/// with the last bit forced to one. Round-to-odd at 24 bits followed by
/// round-to-nearest-even at 11 bits equals one rounding of the exact sum,
/// since 24 ≥ 11 + 2. A non-finite `s` means a non-finite operand and takes
/// a cold path that evaluates in `f64`.
///
/// The `f64` expression gives the same bits on finite operands too, though
/// it is not exact (a product as small as `2^-48` beside an addend near
/// `2^15` spans about 64 bits): it rounds only when the product lies far
/// below half a binary16 ulp of the addend or the sum overflows binary16
/// anyway, so its one `f64` rounding never crosses a binary16 rounding
/// boundary.
#[inline(always)]
pub fn fma16(a: F16, b: F16, c: F16) -> F16 {
    let (p, addend) = (a.to_f32() * b.to_f32(), c.to_f32());
    let s = p + addend;
    if !s.is_finite() {
        return fma16_nonfinite(a, b, c);
    }
    // TwoSum: s + err == p + addend exactly. Both terms are multiples of
    // 2^-48, so a nonzero err and s are at least 2^-48 and `err * s` cannot
    // underflow to zero.
    let p_part = s - addend;
    let err = (p - p_part) + (addend - (s - p_part));
    // Round to odd: truncate toward zero (one ulp down in magnitude when the
    // exact sum lies inside s), then set the last bit if anything was lost.
    let inward = (err * s < 0.0) as u32;
    let inexact = (err != 0.0) as u32;
    F16::from_f32(f32::from_bits((s.to_bits() - inward) | inexact))
}

/// [`fma16`] with an infinite or NaN operand.
#[cold]
#[inline(never)]
fn fma16_nonfinite(a: F16, b: F16, c: F16) -> F16 {
    F16::from_f64(a.to_f64() * b.to_f64() + c.to_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fma16_single_rounding_differs_from_two_roundings() {
        // Choose operands where round(round(a*b) + c) != round(a*b + c).
        // a = 1 + 2^-10 (last ulp set), b = 1 + 2^-10. Product = 1 + 2^-9 + 2^-20.
        // Rounded product (11 bits) = 1 + 2^-9; exact keeps the 2^-20 tail.
        // c = -(1 + 2^-9) cancels the head, leaving 2^-20 vs 0.
        let a = F16::from_f64(1.0 + f64::powi(2.0, -10));
        let b = a;
        let c = -F16::from_f64(1.0 + f64::powi(2.0, -9));
        let fused = fma16(a, b, c);
        let unfused = a * b + c;
        assert!(fused.to_f64() > 0.0, "fused keeps the low product bits");
        assert_eq!(unfused.to_f64(), 0.0, "unfused rounds them away");
    }

    #[test]
    fn fma16_nan_propagates() {
        assert!(fma16(F16::NAN, F16::ONE, F16::ONE).is_nan());
        assert!(fma16(F16::ONE, F16::NAN, F16::ONE).is_nan());
        assert!(fma16(F16::ONE, F16::ONE, F16::NAN).is_nan());
    }
}
