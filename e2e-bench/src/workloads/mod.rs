//! The four workloads. Each is a deterministic round — fresh set-up, then
//! the op, cut into timed calls into one layer each — plus the checks
//! that make the round count as a success.

mod catalog;
mod multi;
mod serve;
mod solve3d;

use crate::harness::{Round, SimSpan};
use std::collections::BTreeMap;
use wse_arch::{FabricPerf, FabricTrace};

/// What one round produced.
#[derive(Default)]
pub struct Outcome {
    /// Values that must repeat bit for bit in every round and every run
    /// of the same seed — simulated metrics and exact counts — under
    /// their final metric names.
    pub exact: Vec<(String, f64)>,
    /// Digest of the round's outputs; must repeat bit for bit.
    pub output_digest: u64,
    /// Digest of the generated inputs the program saw.
    pub input_digest: u64,
    /// Host-clock values the program measured itself; the harness takes
    /// the floor over rounds (the median for names ending in `_p50`).
    pub host: Vec<(String, f64)>,
    /// Phase spans on the simulated clock (armed rounds only).
    pub sim_spans: Vec<SimSpan>,
}

impl Outcome {
    /// Records an exact value.
    pub fn exact(&mut self, name: impl Into<String>, value: f64) {
        self.exact.push((name.into(), value));
    }

    /// Records the exact activity counters of the op, summed over its
    /// fabrics: one `(Fabric::perf() before, after)` pair each.
    pub fn exact_perf(&mut self, fabrics: &[(FabricPerf, FabricPerf)]) {
        let sum = |f: fn(&FabricPerf) -> u64| {
            fabrics.iter().map(|(before, after)| f(after) - f(before)).sum::<u64>()
        };
        let (busy, idle) = (sum(|p| p.busy_cycles), sum(|p| p.idle_cycles));
        self.exact("wse-arch.core_utilization", busy as f64 / (busy + idle).max(1) as f64);
        self.exact("wse-arch.flops_f16", sum(|p| p.flops_f16) as f64);
        self.exact("wse-arch.flits_routed", sum(|p| p.flits_routed) as f64);
        self.exact("wse-arch.backpressure_cycles", sum(FabricPerf::backpressure_total) as f64);
    }

    /// Adds a drained fabric trace to the round's simulated timeline at
    /// cycle `at`: one span named `label` over the traced window, and
    /// inside it the phase spans the driver marked. Returns the number of
    /// events the trace kept.
    pub fn push_trace(&mut self, label: &str, trace: &FabricTrace, at: u64) -> u64 {
        let place = |cycle: u64| at + cycle.saturating_sub(trace.start_cycle);
        self.sim_spans.push(SimSpan {
            name: label.to_string(),
            start_cycle: at,
            cycles: trace.window_cycles(),
        });
        for p in trace.phases.iter().filter(|p| !p.is_marker()) {
            self.sim_spans.push(SimSpan {
                name: p.name.to_string(),
                start_cycle: place(p.start),
                cycles: p.cycles(),
            });
        }
        trace.tiles.iter().map(|t| t.events.len() as u64).sum()
    }
}

/// One stretch of a workload's rounds.
pub struct Phase {
    /// Stop after this many rounds even if time is left.
    pub max_rounds: u32,
    /// Share of the remaining measuring time this phase may use.
    pub budget_share: f64,
}

/// A workload: generated inputs plus the round that consumes them.
pub trait Workload {
    /// The phases rounds run in; one unbounded phase unless overridden.
    fn phases(&self) -> Vec<Phase> {
        vec![Phase { max_rounds: u32::MAX, budget_share: 1.0 }]
    }

    /// Runs one round of `phase`: set-up from scratch, the op, the checks.
    /// `armed` turns the program's own fabric trace on. `Err` is a failed
    /// op.
    fn round(&self, phase: usize, round: &mut Round<'_>, armed: bool) -> Result<Outcome, String>;

    /// Call-name prefixes whose floors are time in the `wse-arch` step
    /// loop; with the exact `wse-arch.tile_cycles` they give host
    /// nanoseconds per simulated tile-cycle.
    fn step_calls(&self) -> &'static [&'static str];

    /// Adds exact values that combine the exact values of several phases.
    fn derive(&self, _exact: &mut BTreeMap<String, f64>) {}
}

/// Builds the named workload over the inputs `seed` generates.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "solve3d-dense" => Box::new(solve3d::Solve3d::new(seed)),
        "compile-catalog" => Box::new(catalog::Catalog::new(seed)),
        "serve-mixed" => Box::new(serve::Serve::new(seed)),
        "multiwafer-k2" => Box::new(multi::Multi::new(seed)),
        _ => return None,
    })
}
