//! Host-side Krylov solvers, generic over floating-point precision policies.
//!
//! The host solvers are the wafer's own algorithms: [`solve`] runs a
//! `wse_core::krylov` recurrence — the step tables the wafer runs — over
//! host vectors through `wse_core::krylov::HostExec`, so there is one
//! definition of each method, executed twice, and Table I is a property of
//! that definition. On top of it:
//!
//! * [`mod@bicgstab`] — Algorithm 1 of the paper, with per-kernel operation
//!   counting that reproduces Table I (44 operations per meshpoint per
//!   iteration; 40 in fp16 and 4 in fp32 under the mixed policy),
//! * [`cg`] — conjugate gradients, the symmetric baseline BiCGStab extends
//!   (and, through [`solve`], its Chronopoulos–Gear single-reduction form),
//! * [`policy`] — precision policies (fp64 / fp32 / mixed 16-32 / pure fp16,
//!   defined in `stencil`) that make one solver code path produce every
//!   curve of Fig. 9, and the operation ledger,
//! * [`refinement`] — mixed-precision iterative refinement (§VI.B's
//!   "correction scheme"), which recovers fp64 accuracy from fp16 inner
//!   solves,
//! * [`study`] — helpers that take an f64 master problem, narrow it to a
//!   policy's storage precision, solve, and record normwise relative
//!   residuals against the original system.

#![warn(missing_docs)]

pub mod bicgstab;
pub mod cg;
pub mod convergence;
pub mod driver;
pub mod policy;
pub mod refinement;
pub mod spectral;
pub mod study;

pub use bicgstab::bicgstab;
pub use driver::{solve, BiCgStabOutcome, SolveOptions, SolveResult};
pub use policy::{Fp32, Fp64, MixedF16, Precision, PureF16};
