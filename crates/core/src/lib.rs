//! On-wafer solvers — the paper's primary contribution.
//!
//! This crate maps the BiCGStab stencil solver onto the simulated
//! wafer-scale engine (`wse-arch`). The SpMV dataflows it runs — the
//! 7-point Listing-1 / Fig. 4 z-column kernel and the §IV.2 9-point block
//! kernel with output-halo exchange — are emitted by [`wse_dsl`]
//! ([`wse_dsl::zcolumn`], [`wse_dsl::block2d`]); a bare SpMV is
//! [`wse_dsl::lower()`] plus [`wse_dsl::Lowered::apply`]. This crate adds:
//!
//! * [`allreduce`] — one reduction network: the scalar AllReduce of Fig. 6
//!   or the lane chains of the ensemble's single-reduction iteration, plus
//!   broadcast,
//! * [`kernels`] — the one emitter of AXPY/XPAY, dot and register kernels,
//! * [`krylov`] — the one solver driver and the one single-wafer builder:
//!   recurrences as storage, phase and step tables, a built solver as a
//!   [`krylov::Program`] over a [`wse_dsl::Layout`], and the [`Krylov`]
//!   trait whose `solve` / `solve_with_recovery` all share,
//! * [`bicgstab`] — the complete BiCGStab iteration on the z-column
//!   mapping (with a communication-fused variant), and [`bicgstab2d`] —
//!   the same solver on the 2D block mapping,
//! * [`cg`] — conjugate gradients, in standard and Chronopoulos–Gear
//!   single-reduction forms,
//! * [`multi`] — distributed BiCGStab across a multi-wafer ensemble,
//! * [`recovery`] — shared residual tripwire plus checkpoint/rollback
//!   recovery so solves survive injected faults (see `wse-arch::fault`).
//!
//! Every builder ends with [`wse_dsl::debug_lint`]: in debug builds a
//! program `wse-lint` flags panics at build time.

#![warn(missing_docs)]

pub mod allreduce;
pub mod bicgstab;
pub mod bicgstab2d;
pub mod cg;
pub mod exec;
pub mod kernels;
pub mod krylov;
pub mod multi;
pub mod recovery;

pub use bicgstab::WaferBicgstab;
pub use exec::WaferExec;
pub use krylov::Krylov;
pub use multi::{build_transparent, MultiIterCycles, WaferBicgstabMulti};
pub use recovery::{
    EnsembleCheckpoint, FabricCheckpoint, RecoveryLog, RecoveryOutcome, RecoveryPolicy,
    ResidualTripwire, TripwireVerdict,
};
