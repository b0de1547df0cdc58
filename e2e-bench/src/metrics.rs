//! The metric tables: names, units, directions and bounds. `BENCHMARK.json`
//! at the repository root is [`manifest`] rendered; a test keeps the two
//! equal.

use std::fmt::Write as _;

/// The four workloads and why each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "solve3d-dense",
        "paper's 7-point BiCGStab, 8x8x64 on an 8x8 fabric: every tile busy, ~99% of host time is the wse-arch step loop",
    ),
    (
        "compile-catalog",
        "cold plan/lower/lint/first-apply of the four catalog operators: lint and lowering dominate, the step loop runs a few hundred cycles",
    ),
    (
        "serve-mixed",
        "48 jobs, two tenants, three shapes through wse-serve: program cache (3 cold/21 hit/24 resident), blit, sparse stepping with the trace armed",
    ),
    (
        "multiwafer-k2",
        "fused BiCGStab on two linked wafers plus the k=1 reference: lockstep stepping through seams, halo overlap, host tree combine",
    ),
];

/// The catalog operators `compile-catalog` lowers, in order.
pub const OPERATORS: [&str; 4] = ["star5-2d", "star9-2d", "star7-3d", "star25-3d"];

/// Simulated clock, GHz (the paper's CS-1 figure; `perf_model::cs1`).
pub const CLOCK_GHZ: f64 = 0.9;

/// An end-to-end metric: gated by the driver on every workload.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median it may worsen by.
    pub bound: f64,
}

/// The end-to-end metrics. All four are defined, non-zero and independent
/// of `--seed` on every workload. The host bounds are three times the
/// spread seen between 30 s runs on the development box in a loud period
/// (README, "Repeatability"): floors up to 5.8 %, peak RSS up to 2.8 %.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "op_host_ms", unit: "ms", better: "lower", bound: 0.20 },
    EndToEnd { name: "op_sim_cycles", unit: "cycles", better: "lower", bound: 0.001 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.10 },
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
];

/// Workload-specific simulated metrics `--aa` gates next to the
/// end-to-end ones: `(name, bound)`. They repeat bit for bit for one seed,
/// but are only defined on some workloads (and the accuracy ones move
/// with the seed), so the driver cannot gate them.
pub const AA_EXACT: [(&str, f64); 5] = [
    ("sim_us_per_iter", 0.001),
    ("rel_residual_final", 0.001),
    ("sim_sojourn_us_p50", 0.001),
    ("sim_solves_per_s", 0.001),
    ("weak_efficiency", 0.001),
];

/// `(name, unit, better)` of every per-layer metric, in print order. A
/// metric a workload does not exercise reads 0 there.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: &'static str| {
        out.push((name.to_string(), unit, better));
    };
    // Simulated results that are defined on some workloads only.
    add("sim_us_per_iter", "sim_us", "lower");
    add("rel_residual_final", "ratio", "lower");
    add("sim_sojourn_us_p50", "sim_us", "lower");
    add("sim_solves_per_s", "1/sim_s", "higher");
    add("weak_efficiency", "ratio", "higher");

    add("stencil.assemble_ms", "ms", "lower");

    add("wse-dsl.plan_ms", "ms", "lower");
    add("wse-dsl.lower_ms", "ms", "lower");
    add("wse-dsl.apply_ms", "ms", "lower");
    for op in OPERATORS {
        add(&format!("wse-dsl.lower_ms.{op}"), "ms", "lower");
    }
    for op in OPERATORS {
        add(&format!("wse-dsl.apply_sim_cycles.{op}"), "cycles", "lower");
    }
    for op in OPERATORS {
        add(&format!("wse-dsl.cycles_per_point.{op}"), "cycles/pt", "lower");
    }

    add("wse-lint.lint_ms", "ms", "lower");
    for op in OPERATORS {
        add(&format!("wse-lint.lint_ms.{op}"), "ms", "lower");
    }
    add("wse-lint.lint_share", "ratio", "lower");
    add("wse-lint.diagnostics", "count", "lower");

    add("wse-arch.fabric_new_ms", "ms", "lower");
    add("wse-arch.host_ns_per_tile_cycle", "ns", "lower");
    add("wse-arch.tile_cycles_per_host_s", "1/s", "higher");
    add("wse-arch.core_utilization", "ratio", "higher");
    add("wse-arch.flops_f16", "count", "higher");
    add("wse-arch.flits_routed", "count", "lower");
    add("wse-arch.backpressure_cycles", "cycles", "lower");

    add("wse-core.build_ms", "ms", "lower");
    add("wse-core.load_rhs_ms", "ms", "lower");
    add("wse-core.iterate_ms", "ms", "lower");
    add("wse-core.residual_norm_ms", "ms", "lower");
    add("wse-core.read_x_ms", "ms", "lower");
    for phase in ["spmv", "dot", "update", "allreduce", "scalar"] {
        add(&format!("wse-core.sim_cycles.{phase}"), "cycles", "lower");
    }

    add("solver.host_bicgstab_ms", "ms", "lower");
    add("solver.residual_gap", "ratio", "lower");

    add("perf-model.pred_us_per_iter", "sim_us", "lower");
    add("perf-model.sim_over_pred", "ratio", "lower");

    add("wse-serve.service_new_ms", "ms", "lower");
    add("wse-serve.run_ms", "ms", "lower");
    add("wse-serve.report_ms", "ms", "lower");
    add("wse-serve.host_ms_per_job", "ms", "lower");
    add("wse-serve.cold_build_us", "us", "lower");
    add("wse-serve.warm_lookup_us", "us", "lower");
    add("wse-serve.cache_hit_rate", "ratio", "higher");
    add("wse-serve.tier_cold", "count", "lower");
    add("wse-serve.tier_hit", "count", "higher");
    add("wse-serve.tier_resident", "count", "higher");
    add("wse-serve.rejected", "count", "lower");
    add("wse-serve.sim_sojourn_us_max", "sim_us", "lower");

    add("wse-multi.new_ms", "ms", "lower");
    add("wse-multi.k2_op_host_ms", "ms", "lower");
    add("wse-multi.host_us_per_cycle_p50", "us", "lower");
    add("wse-multi.halo_exposed_cycles", "cycles", "lower");
    add("wse-multi.halo_hidden_cycles", "cycles", "higher");
    add("wse-multi.host_allreduce_cycles", "cycles", "lower");
    add("wse-multi.hidden_share", "ratio", "higher");
    add("wse-multi.retransmits", "count", "lower");

    add("wse-trace.armed_overhead_pct", "%", "lower");
    add("wse-trace.cycle_identity", "count", "higher");
    add("wse-trace.take_trace_ms", "ms", "lower");
    add("wse-trace.export_ms", "ms", "lower");
    add("wse-trace.events", "count", "lower");

    add("harness.rounds", "count", "higher");
    add("harness.samples", "count", "higher");
    add("harness.op_host_ms_p50", "ms", "lower");
    add("harness.op_host_ms_p90", "ms", "lower");
    add("harness.noise_ratio", "ratio", "lower");
    add("harness.span_overhead_pct", "%", "lower");
    out
}

/// The unit of a metric outside the tables: every call floor is printed
/// as `<layer>.<call>_ms`, and workloads add a few exact values.
pub fn unit_by_suffix(name: &str) -> &'static str {
    if name.contains("_ms") {
        "ms"
    } else if name.contains("sim_us") {
        "sim_us"
    } else if name.contains("residual") {
        "ratio"
    } else {
        "count"
    }
}

/// Seconds one driver run measures (`run_seconds` in the manifest, and
/// the default of `--seconds`).
pub const RUN_SECONDS: u32 = 30;

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> String {
    let mut s = String::new();
    s.push_str(
        "{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", ",
    );
    s.push_str("\"--manifest-path\", \"e2e-bench/Cargo.toml\", \"--\"],\n");
    s.push_str("  \"paths\": [\"e2e-bench\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(s, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name, m.unit, m.better, m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, (name, unit, better)) in layers.iter().enumerate() {
        let comma = if i + 1 == layers.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}"
        );
    }
    s.push_str("  ]\n}\n");
    s
}
