//! Precision policies and the operation ledger.
//!
//! A policy fixes two types: the **storage** scalar used for vectors, matrix
//! diagonals and AXPY arithmetic, and the **global** scalar used for dot
//! products and the α/ω/β coefficient arithmetic. The policies are defined
//! in `stencil`, next to the [`stencil::Scalar`] trait they are built on
//! (the wafer's host executor takes them too), and re-exported here.

pub use stencil::{Fp32, Fp64, MixedF16, Precision, PureF16};

/// Counts of floating-point operations by kernel and by precision class,
/// accumulated by the solvers. This is the raw material for Table I.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Multiplies inside SpMV (storage precision).
    pub matvec_mul: u64,
    /// Adds inside SpMV (storage precision).
    pub matvec_add: u64,
    /// Multiplies inside dot products (storage precision on the wafer's
    /// mixed instruction).
    pub dot_mul: u64,
    /// Adds inside dot products (**global** precision — fp32 under
    /// [`MixedF16`]).
    pub dot_add: u64,
    /// Multiplies inside AXPY-family updates (storage precision).
    pub axpy_mul: u64,
    /// Adds inside AXPY-family updates (storage precision).
    pub axpy_add: u64,
}

impl OpCounts {
    /// Total floating-point operations.
    pub fn total(&self) -> u64 {
        self.matvec_mul
            + self.matvec_add
            + self.dot_mul
            + self.dot_add
            + self.axpy_mul
            + self.axpy_add
    }

    /// Operations that execute in storage (half, under mixed) precision.
    pub fn storage_ops(&self) -> u64 {
        self.total() - self.dot_add
    }

    /// Operations that execute in global (single, under mixed) precision.
    pub fn global_ops(&self) -> u64 {
        self.dot_add
    }

    /// Per-meshpoint per-iteration averages, the form Table I reports.
    pub fn per_point_per_iter(&self, points: usize, iters: usize) -> PerPointOps {
        let denom = (points * iters) as f64;
        PerPointOps {
            matvec_mul: self.matvec_mul as f64 / denom,
            matvec_add: self.matvec_add as f64 / denom,
            dot_mul: self.dot_mul as f64 / denom,
            dot_add: self.dot_add as f64 / denom,
            axpy_mul: self.axpy_mul as f64 / denom,
            axpy_add: self.axpy_add as f64 / denom,
        }
    }
}

/// Per-meshpoint per-iteration operation averages (Table I rows).
#[derive(Copy, Clone, Debug, Default)]
pub struct PerPointOps {
    /// SpMV multiplies per point per iteration (paper: 12).
    pub matvec_mul: f64,
    /// SpMV adds per point per iteration (paper: 12).
    pub matvec_add: f64,
    /// Dot multiplies per point per iteration (paper: 4).
    pub dot_mul: f64,
    /// Dot adds per point per iteration (paper: 4).
    pub dot_add: f64,
    /// AXPY multiplies per point per iteration (paper: 6).
    pub axpy_mul: f64,
    /// AXPY adds per point per iteration (paper: 6).
    pub axpy_add: f64,
}

impl PerPointOps {
    /// Grand total per point per iteration (paper: 44).
    pub fn total(&self) -> f64 {
        self.matvec_mul
            + self.matvec_add
            + self.dot_mul
            + self.dot_add
            + self.axpy_mul
            + self.axpy_add
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcounts_partition() {
        let c = OpCounts {
            matvec_mul: 12,
            matvec_add: 12,
            dot_mul: 4,
            dot_add: 4,
            axpy_mul: 6,
            axpy_add: 6,
        };
        assert_eq!(c.total(), 44);
        assert_eq!(c.storage_ops(), 40);
        assert_eq!(c.global_ops(), 4);
        let pp = c.per_point_per_iter(1, 1);
        assert_eq!(pp.total(), 44.0);
    }
}
