//! Declarative stencil front-end and the shared lowering layer.
//!
//! Routing, virtual-channel (color) assignment, SRAM layout and task
//! wiring for the SpMV dataflows live here, once:
//!
//! * [`ir`] — the stencil IR: a named set of taps (relative mesh offsets
//!   with constant or per-cell-variable coefficients), a precision, and a
//!   boundary condition. Operators are **data**, not builder code;
//!   [`StencilSpec::check_bands`] refuses a matrix band a spec would drop.
//! * [`colors`] — the single whole-wafer virtual-channel map every emitter
//!   consumes.
//! * [`plan`](mod@plan) — validation and resource planning: structured
//!   [`ir::DslError`]s for illegal specs (offset beyond the routable
//!   radius, SRAM over the 48 KB budget) **before any fabric is touched**.
//! * [`tess`] — the Fig. 5 tessellation channel assignment.
//! * [`block2d`] — the generalized radius-`r` 2D block mapping with
//!   output-halo exchange; at radius 1 it emits byte-identical programs to
//!   the original hand-written 2D SpMV builder.
//! * [`zcolumn`] — the Listing-1 Z-column dataflow, one entry point
//!   ([`zcolumn::build_spmv_tile`]), which releases a wafer-seam tile's
//!   halo fold task ([`zcolumn::build_overlap_halo`]) when it has one.
//! * [`relay`] — store-and-forward relay rounds for wide 3D star stencils
//!   (e.g. the 25-point star of Jacquelin et al.) using only four colors.
//! * `dataflow` (private) — the vocabulary those three emitters write their
//!   tasks in, each piece once: rewinding memory tensors, the send and
//!   receive stream launches, and Listing 1's two-way barrier chain.
//! * [`lower`](mod@lower) — the dispatch from spec + mesh to one of the three
//!   mappings, producing a [`lower::Lowered`] program handle; a bare SpMV
//!   is [`lower()`] plus [`Lowered::apply`]. [`Layout`] is the one region
//!   layout (a z-column or a `bx × by` block per tile) by which `Lowered`
//!   and `wse-core`'s Krylov programs scatter and gather.
//! * [`host`] — order-mirroring host reference applies (bit-exact per
//!   datapath dtype).
//!
//! `wse-core`'s Krylov builder checks its operator with
//! [`StencilSpec::check_bands`], lays its vectors out by [`Layout`], calls
//! [`tess`], [`block2d`] and [`zcolumn`] directly, and ends, like
//! [`lower()`], with [`debug_lint`].

#![warn(missing_docs)]

pub mod block2d;
pub mod catalog;
pub mod colors;
mod dataflow;
pub mod fixtures;
pub mod host;
pub mod ir;
pub mod lower;
pub mod plan;
pub mod relay;
pub mod tess;
pub mod zcolumn;

pub use ir::{Boundary, CoefKind, DslError, Precision, StencilSpec, Tap};
pub use lower::{lower, lower_spec, Layout, Lowered};
pub use plan::{plan, Plan};

/// Statically verifies a fully built wafer program in debug builds,
/// panicking with the diagnostic report on any finding. [`lower()`] and
/// every `wse-core` builder call this after program construction, so a
/// misconfigured program fails at build time instead of stalling the
/// simulation a million cycles later. Release builds skip the check (it is
/// a pure debugging aid and the shipped configurations are lint-clean).
pub fn debug_lint(fabric: &wse_arch::Fabric) {
    #[cfg(debug_assertions)]
    wse_lint::assert_clean(fabric);
    #[cfg(not(debug_assertions))]
    let _ = fabric;
}
