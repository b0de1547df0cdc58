//! Reference reduction algorithms.
//!
//! The on-wafer AllReduce accumulates fp32 partial sums along rows and
//! columns (a fixed, data-independent association order). For the accuracy
//! experiments we need trustworthy baselines: pairwise summation (error
//! growth O(log n)) and Kahan compensated summation (O(1)), both in f64.

/// Pairwise summation in f64 (reference).
pub fn sum_pairwise_f64(v: &[f64]) -> f64 {
    match v.len() {
        0 => 0.0,
        1 => v[0],
        2 => v[0] + v[1],
        n => {
            let (lo, hi) = v.split_at(n / 2);
            sum_pairwise_f64(lo) + sum_pairwise_f64(hi)
        }
    }
}

/// Kahan compensated summation in f64 — near-exact baseline.
pub fn sum_kahan_f64(v: &[f64]) -> f64 {
    let mut sum = 0.0f64;
    let mut c = 0.0f64;
    for &x in v {
        let y = x - c;
        let t = sum + y;
        c = (t - sum) - y;
        sum = t;
    }
    sum
}

/// Euclidean norm of an f64 slice via compensated accumulation of squares.
pub fn norm2_f64(v: &[f64]) -> f64 {
    let sq: Vec<f64> = v.iter().map(|&x| x * x).collect();
    sum_kahan_f64(&sq).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_singleton() {
        assert_eq!(sum_pairwise_f64(&[2.5]), 2.5);
        assert_eq!(sum_kahan_f64(&[]), 0.0);
    }

    #[test]
    fn all_agree_on_exact_sums() {
        let v64: Vec<f64> = (0..1000).map(f64::from).collect();
        let expect = 999.0 * 1000.0 / 2.0;
        assert_eq!(sum_pairwise_f64(&v64), expect);
        assert_eq!(sum_kahan_f64(&v64), expect);
    }

    #[test]
    fn kahan_is_near_exact() {
        let v: Vec<f64> = (0..100_000).map(|i| ((i % 7) as f64 - 3.0) * 1e-3 + 1e7).collect();
        let exact: f64 = {
            // integer-exact computation of the same sum
            let base = 1e7f64 * 100_000.0;
            let resid: i64 = (0..100_000i64).map(|i| (i % 7) - 3).sum();
            base + resid as f64 * 1e-3
        };
        let err = (sum_kahan_f64(&v) - exact).abs();
        assert!(err <= 1e-6, "kahan err {err}");
    }

    #[test]
    fn norm2_matches_hand_value() {
        assert_eq!(norm2_f64(&[3.0, 4.0]), 5.0);
        assert_eq!(norm2_f64(&[]), 0.0);
    }
}
