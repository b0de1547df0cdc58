//! The numeric abstraction over which every operator and solver is generic.
//!
//! The paper's implementation runs "16-bit for all arithmetic except the
//! inner products"; the accuracy study (Fig. 9) compares the same solver in
//! 32-bit and mixed 16/32-bit. Making the stencil matvec and the Krylov
//! vectors generic over [`Scalar`] lets one code path produce all the curves;
//! a [`Precision`] policy pairs the storage scalar with the one its dot
//! products and coefficients use.

use std::fmt::Debug;
use wse_float::F16;

/// A floating-point scalar usable as vector/matrix storage.
///
/// Every operation rounds in the implementing type's precision, so running a
/// solver at `S = F16` reproduces exactly the roundoff behaviour of the
/// 16-bit wafer datapath.
pub trait Scalar: Copy + Default + PartialEq + Debug + Send + Sync + 'static {
    /// Human-readable precision name used in experiment output.
    const NAME: &'static str;

    /// Converts from f64, rounding once.
    fn from_f64(v: f64) -> Self;
    /// Widens to f64 (exact for all implementors here).
    fn to_f64(self) -> f64;

    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;

    /// `self + rhs`, rounded in `Self`.
    fn add(self, rhs: Self) -> Self;
    /// `self - rhs`, rounded in `Self`.
    fn sub(self, rhs: Self) -> Self;
    /// `self * rhs`, rounded in `Self`.
    fn mul(self, rhs: Self) -> Self;
    /// `self / rhs`, rounded in `Self`.
    fn div(self, rhs: Self) -> Self;
    /// Negation (sign flip; exact).
    fn neg(self) -> Self;

    /// Fused multiply-add `a * b + self` with a single rounding, matching
    /// the hardware FMAC ("no rounding of the product prior to the add").
    fn mul_add(self, a: Self, b: Self) -> Self;

    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root, correctly rounded.
    fn sqrt(self) -> Self;

    /// `true` if the value is NaN or infinite — used by solvers to detect
    /// breakdown/overflow (a real hazard in fp16).
    fn is_non_finite(self) -> bool;
}

impl Scalar for f64 {
    const NAME: &'static str = "fp64";

    #[inline]
    fn from_f64(v: f64) -> f64 {
        v
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn zero() -> f64 {
        0.0
    }
    #[inline]
    fn one() -> f64 {
        1.0
    }
    #[inline]
    fn add(self, rhs: f64) -> f64 {
        self + rhs
    }
    #[inline]
    fn sub(self, rhs: f64) -> f64 {
        self - rhs
    }
    #[inline]
    fn mul(self, rhs: f64) -> f64 {
        self * rhs
    }
    #[inline]
    fn div(self, rhs: f64) -> f64 {
        self / rhs
    }
    #[inline]
    fn neg(self) -> f64 {
        -self
    }
    #[inline]
    fn mul_add(self, a: f64, b: f64) -> f64 {
        f64::mul_add(a, b, self)
    }
    #[inline]
    fn abs(self) -> f64 {
        f64::abs(self)
    }
    #[inline]
    fn sqrt(self) -> f64 {
        f64::sqrt(self)
    }
    #[inline]
    fn is_non_finite(self) -> bool {
        !self.is_finite()
    }
}

impl Scalar for f32 {
    const NAME: &'static str = "fp32";

    #[inline]
    fn from_f64(v: f64) -> f32 {
        v as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn zero() -> f32 {
        0.0
    }
    #[inline]
    fn one() -> f32 {
        1.0
    }
    #[inline]
    fn add(self, rhs: f32) -> f32 {
        self + rhs
    }
    #[inline]
    fn sub(self, rhs: f32) -> f32 {
        self - rhs
    }
    #[inline]
    fn mul(self, rhs: f32) -> f32 {
        self * rhs
    }
    #[inline]
    fn div(self, rhs: f32) -> f32 {
        self / rhs
    }
    #[inline]
    fn neg(self) -> f32 {
        -self
    }
    #[inline]
    fn mul_add(self, a: f32, b: f32) -> f32 {
        f32::mul_add(a, b, self)
    }
    #[inline]
    fn abs(self) -> f32 {
        f32::abs(self)
    }
    #[inline]
    fn sqrt(self) -> f32 {
        f32::sqrt(self)
    }
    #[inline]
    fn is_non_finite(self) -> bool {
        !self.is_finite()
    }
}

impl Scalar for F16 {
    const NAME: &'static str = "fp16";

    #[inline]
    fn from_f64(v: f64) -> F16 {
        F16::from_f64(v)
    }
    #[inline]
    fn to_f64(self) -> f64 {
        F16::to_f64(self)
    }
    #[inline]
    fn zero() -> F16 {
        F16::ZERO
    }
    #[inline]
    fn one() -> F16 {
        F16::ONE
    }
    #[inline]
    fn add(self, rhs: F16) -> F16 {
        self + rhs
    }
    #[inline]
    fn sub(self, rhs: F16) -> F16 {
        self - rhs
    }
    #[inline]
    fn mul(self, rhs: F16) -> F16 {
        self * rhs
    }
    #[inline]
    fn div(self, rhs: F16) -> F16 {
        self / rhs
    }
    #[inline]
    fn neg(self) -> F16 {
        -self
    }
    #[inline]
    fn mul_add(self, a: F16, b: F16) -> F16 {
        wse_float::fma16(a, b, self)
    }
    #[inline]
    fn abs(self) -> F16 {
        F16::abs(self)
    }
    #[inline]
    fn sqrt(self) -> F16 {
        F16::sqrt(self)
    }
    #[inline]
    fn is_non_finite(self) -> bool {
        !self.is_finite()
    }
}

/// Converts a slice between scalar types, rounding each element once.
pub fn convert_slice<A: Scalar, B: Scalar>(src: &[A]) -> Vec<B> {
    src.iter().map(|&v| B::from_f64(v.to_f64())).collect()
}

/// A floating-point precision configuration for the solvers: the
/// **storage** scalar used for vectors, matrix diagonals and AXPY
/// arithmetic, and the **global** scalar used for dot products and the
/// α/ω/β coefficient arithmetic. The paper's production configuration is
/// [`MixedF16`]: "0.86 PFLOPS in mixed precision floating point that uses
/// 16-bit for all arithmetic except the inner products and a mixed
/// precision inner product with 16-bit multiply and 32-bit add".
pub trait Precision: 'static {
    /// Vector / matrix storage scalar; AXPY and SpMV round in this type.
    type Storage: Scalar;
    /// Scalar used for dot-product results and coefficient arithmetic.
    type Global: Scalar;
    /// Display name used in experiment output.
    const NAME: &'static str;

    /// Inner product of storage vectors, accumulated in the global type.
    ///
    /// # Panics
    /// Implementations panic on length mismatch.
    fn dot(x: &[Self::Storage], y: &[Self::Storage]) -> Self::Global;
}

/// Everything in binary64 (the cluster baseline: "64-bit floating point
/// results obtained on Joule").
pub struct Fp64;

impl Precision for Fp64 {
    type Storage = f64;
    type Global = f64;
    const NAME: &'static str = "fp64";

    fn dot(x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len(), "dot operand length mismatch");
        x.iter().zip(y).map(|(a, b)| a * b).sum()
    }
}

/// Everything in binary32 (the "Single precision" curve of Fig. 9).
pub struct Fp32;

impl Precision for Fp32 {
    type Storage = f32;
    type Global = f32;
    const NAME: &'static str = "fp32";

    fn dot(x: &[f32], y: &[f32]) -> f32 {
        assert_eq!(x.len(), y.len(), "dot operand length mismatch");
        let mut acc = 0.0f32;
        for (a, b) in x.iter().zip(y) {
            acc += a * b;
        }
        acc
    }
}

/// The paper's configuration: fp16 storage and AXPY/SpMV arithmetic, dot
/// products with fp16 multiplies and fp32 accumulation ("Mixed sp/hp" in
/// Fig. 9).
pub struct MixedF16;

impl Precision for MixedF16 {
    type Storage = F16;
    type Global = f32;
    const NAME: &'static str = "mixed16/32";

    fn dot(x: &[F16], y: &[F16]) -> f32 {
        wse_float::dot_mixed(x, y)
    }
}

/// Ablation: *everything* in fp16, including dot-product accumulation. The
/// paper's design avoids this; comparing against [`MixedF16`] quantifies why
/// the mixed inner-product instruction matters.
pub struct PureF16;

impl Precision for PureF16 {
    type Storage = F16;
    type Global = F16;
    const NAME: &'static str = "pure-fp16";

    fn dot(x: &[F16], y: &[F16]) -> F16 {
        wse_float::dot_pure_f16(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<S: Scalar>() {
        let two = S::from_f64(2.0);
        let three = S::from_f64(3.0);
        assert_eq!(two.add(three).to_f64(), 5.0);
        assert_eq!(three.sub(two).to_f64(), 1.0);
        assert_eq!(two.mul(three).to_f64(), 6.0);
        assert_eq!(three.div(two).to_f64(), 1.5);
        assert_eq!(two.neg().to_f64(), -2.0);
        assert_eq!(S::zero().to_f64(), 0.0);
        assert_eq!(S::one().to_f64(), 1.0);
        assert_eq!(S::one().mul_add(two, three).to_f64(), 7.0);
        assert_eq!(S::from_f64(-4.0).abs().to_f64(), 4.0);
        assert_eq!(S::from_f64(9.0).sqrt().to_f64(), 3.0);
        assert!(!two.is_non_finite());
        assert!(S::from_f64(f64::INFINITY).is_non_finite());
        assert!(S::from_f64(f64::NAN).is_non_finite());
    }

    #[test]
    fn all_scalars_satisfy_basic_algebra() {
        exercise::<f64>();
        exercise::<f32>();
        exercise::<F16>();
    }

    #[test]
    fn names_are_distinct() {
        assert_eq!(f64::NAME, "fp64");
        assert_eq!(f32::NAME, "fp32");
        assert_eq!(F16::NAME, "fp16");
    }

    #[test]
    fn f16_ops_round_in_f16() {
        // 1 + eps16/2 rounds back to 1 in fp16 but not in fp32/f64.
        let one = F16::one();
        let tiny = F16::from_f64(f64::powi(2.0, -12));
        assert_eq!(one.add(tiny).to_f64(), 1.0);
        let one32 = <f32 as Scalar>::one();
        let tiny32 = <f32 as Scalar>::from_f64(f64::powi(2.0, -12));
        assert!(one32.add(tiny32).to_f64() > 1.0);
    }

    #[test]
    fn convert_slice_rounds_once() {
        let src = vec![1.0f64, 0.1, -2.5];
        let out: Vec<F16> = convert_slice(&src);
        assert_eq!(out[0].to_f64(), 1.0);
        assert_eq!(out[2].to_f64(), -2.5);
        // 0.1 is inexact in binary16
        assert!((out[1].to_f64() - 0.1).abs() < 1e-4);
        let back: Vec<f64> = convert_slice(&out);
        assert_eq!(back[0], 1.0);
    }

    #[test]
    fn policy_names() {
        assert_eq!(Fp64::NAME, "fp64");
        assert_eq!(Fp32::NAME, "fp32");
        assert_eq!(MixedF16::NAME, "mixed16/32");
        assert_eq!(PureF16::NAME, "pure-fp16");
    }

    #[test]
    fn dots_agree_on_exact_inputs() {
        let x64 = vec![1.0f64, 2.0, 3.0];
        let y64 = vec![0.5f64, -1.0, 2.0];
        assert_eq!(Fp64::dot(&x64, &y64), 4.5);
        let x32: Vec<f32> = convert_slice(&x64);
        let y32: Vec<f32> = convert_slice(&y64);
        assert_eq!(Fp32::dot(&x32, &y32), 4.5);
        let xh: Vec<F16> = convert_slice(&x64);
        let yh: Vec<F16> = convert_slice(&y64);
        assert_eq!(MixedF16::dot(&xh, &yh), 4.5);
        assert_eq!(PureF16::dot(&xh, &yh).to_f64(), 4.5);
    }

    #[test]
    fn mixed_dot_accumulates_in_f32() {
        let x = vec![F16::ONE; 4096];
        assert_eq!(MixedF16::dot(&x, &x), 4096.0);
        assert_eq!(PureF16::dot(&x, &x).to_f64(), 2048.0); // fp16 stagnation
    }
}
