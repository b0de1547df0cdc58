//! `e2e-bench`: one benchmark over the whole wafer stack, on two clocks.
//!
//! - **Host clock** — what anyone running this code waits for. Every
//!   host-time metric is a *floor*: each workload is a loop of identical
//!   deterministic rounds, each round is cut into calls into one layer's
//!   public function, a call's time is its minimum over all rounds, and
//!   `op_host_ms` is the sum of its units' minima.
//! - **Simulated clock** — what the paper reports. Fabric cycles repeat
//!   bit for bit, whatever the host is doing.
//!
//! See `README.md` for the estimator, the metric and workload tables and
//! how to read the trace.

#![warn(missing_docs)]

pub mod chrome;
pub mod harness;
pub mod metrics;
pub mod run;
pub mod workloads;
