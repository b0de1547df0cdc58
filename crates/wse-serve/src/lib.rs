//! Multi-tenant wafer service.
//!
//! The paper demonstrates one solve running fast on one wafer; the missing
//! layer between that demonstration and a production system serving heavy
//! traffic is a *service* in front of the fabric. This crate supplies it:
//!
//! * **Tenancy** — a [`Fabric`](wse_arch::Fabric) (or a
//!   [`MultiFabric`](wse_multi::MultiFabric) ensemble) is partitioned into
//!   rectangular tenant regions by the deterministic shelf packer in
//!   `wse-multi::tenancy`; tenant programs are built region-contained, so
//!   co-residents cannot interact (routing never crosses a region edge —
//!   `wse-lint`'s region lint proves it).
//! * **Admission control** ([`service`]) — per-tenant job quotas, a
//!   region-fit check, a conservative SRAM footprint check, and the lint
//!   gate: a tenant program is compiled and statically verified on a
//!   *scratch* fabric before it ever touches the shared machine.
//! * **Compiled-program cache** ([`cache`]) — wafer program construction
//!   (layout + routing + task compilation + lint) dominates turnaround for
//!   repeat shapes, so compiled region images are cached under a
//!   [`ProgramKey`] of `(mesh, block, stencil)`.
//!   Programs are translation-invariant (routing is per-tile state), so a
//!   cached image built at origin `(0,0)` is *blitted* into any tenant
//!   region and driven through a rebased solver handle — repeat shapes
//!   skip builder and lint entirely.
//! * **Batching** ([`service`]) — consecutive queued solves of the same
//!   `(tenant, key)` are coalesced so one program placement serves the
//!   whole batch; later jobs of a batch run against the already-resident
//!   image ("resident" tier, no blit at all).
//! * **Recovery & billing** — each job runs under the checkpoint/rollback
//!   engine with a `tenant/job` label, so rollbacks are attributable; the
//!   per-job cycle window is carved out of the shared fabric's phase log
//!   (`Fabric::drain_phases`, `PhaseReport::from_spans_window`) into a
//!   per-tenant billing table; no core trace is armed.
//!
//! The whole front door is deterministic: arrivals come from a seeded
//! open-loop process ([`sim`]), service order, placement, batching, and
//! every report number are pure functions of the seeds. Host wall-clock is
//! measured only to report the cold-build vs cache-hit speedup and never
//! enters the simulated-time accounting.

#![warn(missing_docs)]

pub mod cache;
pub mod key;
pub mod program;
pub mod service;
pub mod sim;

pub use cache::{CacheStats, ProgramCache};
pub use key::{ProgramKey, StencilKind};
pub use program::{program_digest, AdmitError, CompiledProgram};
pub use service::{
    Backend, BillingRow, CacheTier, JobRecord, JobSpec, ServiceReport, TenantSpec, WaferService,
};
pub use sim::{open_loop_arrivals, CostModel};
