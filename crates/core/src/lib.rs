//! On-wafer kernels — the paper's primary contribution.
//!
//! This crate maps the BiCGStab stencil solver onto the simulated
//! wafer-scale engine (`wse-arch`), reproducing:
//!
//! * [`spmv3d`] — the 7-point SpMV dataflow of Listing 1 / Fig. 4
//!   (broadcast, FIFO-decoupled multiply/add pipelines, loopback main
//!   diagonal, completion-barrier tree) on the Fig. 5 tessellation channel
//!   assignment ([`wse_dsl::tess`]),
//! * [`spmv2d`] — the 2D 9-point block mapping of §IV.2 with output-halo
//!   exchange, and [`bicgstab2d`] — the full solver on that mapping,
//! * [`allreduce`] — the row/column scalar AllReduce of Fig. 6 plus
//!   broadcast,
//! * [`kernels`] — the one emitter of AXPY/XPAY, dot and register kernels,
//! * [`krylov`] — the one solver driver: recurrences as storage, phase and
//!   step tables, a built solver as a [`krylov::Program`], and the
//!   [`Krylov`] trait whose `solve` / `solve_with_recovery` all share,
//! * [`bicgstab`] — the complete BiCGStab iteration on the fabric (with a
//!   communication-fused variant) and the shared z-column builder,
//! * [`cg`] — conjugate gradients, in standard and Chronopoulos–Gear
//!   single-reduction forms,
//! * [`multi`] — distributed BiCGStab across a multi-wafer ensemble,
//! * [`recovery`] — shared residual tripwire plus checkpoint/rollback
//!   recovery so solves survive injected faults (see `wse-arch::fault`).

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
pub mod spmv2d;
pub mod spmv3d;

pub use bicgstab::WaferBicgstab;
pub use exec::WaferExec;
pub use krylov::Krylov;
pub use multi::{build_transparent, MultiIterCycles, WaferBicgstabMulti};
pub use recovery::{
    EnsembleCheckpoint, FabricCheckpoint, RecoveryLog, RecoveryOutcome, RecoveryPolicy,
    ResidualTripwire, TripwireVerdict,
};
pub use spmv3d::WaferSpmv;

/// Statically verifies a fully built wafer program in debug builds,
/// panicking with the diagnostic report on any finding. Every kernel
/// builder calls this after program construction, so a misconfigured
/// program fails at build time instead of stalling the simulation a
/// million cycles later. Release builds skip the check (it is a pure
/// debugging aid and the shipped configurations are lint-clean).
pub fn debug_lint(fabric: &wse_arch::Fabric) {
    #[cfg(debug_assertions)]
    wse_lint::assert_clean(fabric);
    #[cfg(not(debug_assertions))]
    let _ = fabric;
}
