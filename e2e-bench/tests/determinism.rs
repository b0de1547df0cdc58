//! What the benchmark promises about itself: simulated metrics and exact
//! counts repeat bit for bit, the gated ones do not move with the seed,
//! the per-layer host floors add up to `op_host_ms`, the trace is well
//! formed, and `BENCHMARK.json` is the metric tables rendered.
//!
//! Every test runs whole workloads in the short `--seconds 1` mode; use
//! `cargo test --release` if the default profile is too slow.

use e2e_bench::metrics::{self, END_TO_END, WORKLOADS};
use e2e_bench::run::{run, Config, Report};
use std::path::PathBuf;
use wse_trace::json::{self, Json};

fn quick(workload: &str, seed: u64, trace: bool) -> Report {
    let cfg = Config {
        workload: workload.into(),
        seed,
        seconds: 1.0,
        trace,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{seed}")),
    };
    let report = run(&cfg).expect("known workload");
    assert_eq!(report.failed, 0, "{workload} seed {seed}: {:?}", report.failures);
    assert!(report.attempted >= 2, "{workload}: a second round is compared with the first");
    report
}

fn bits(report: &Report) -> Vec<(&String, u64)> {
    report.exact.iter().map(|(k, v)| (k, v.to_bits())).collect()
}

#[test]
fn same_seed_repeats_every_simulated_metric_and_exact_count() {
    for (workload, _) in WORKLOADS {
        let (a, b) = (quick(workload, 2020, false), quick(workload, 2020, false));
        assert_eq!(bits(&a), bits(&b), "{workload}: exact values moved between two runs");
        assert_eq!(a.input_digest, b.input_digest, "{workload}: same seed, different inputs");
        assert!(a.exact.contains_key("op_sim_cycles"), "{workload} reports no simulated time");
    }
}

#[test]
fn another_seed_changes_the_inputs_but_no_gated_simulated_metric() {
    for (workload, _) in WORKLOADS {
        let (a, b) = (quick(workload, 2020, false), quick(workload, 77, false));
        assert_ne!(
            a.input_digest, b.input_digest,
            "{workload}: the seed does not reach the inputs"
        );
        // The driver compares runs of different seeds, so what it gates
        // must not depend on the data.
        assert_eq!(
            a.exact["op_sim_cycles"].to_bits(),
            b.exact["op_sim_cycles"].to_bits(),
            "{workload}: op_sim_cycles moved with the seed"
        );
    }
}

#[test]
fn op_host_ms_is_the_sum_of_the_per_layer_unit_floors() {
    for (workload, _) in WORKLOADS {
        let r = quick(workload, 2020, false);
        assert!(r.op_host_ns > 0, "{workload}: no op unit was timed");
        assert_eq!(r.op_floors_ns.values().sum::<u64>(), r.op_host_ns, "{workload}");
        assert_eq!(r.metrics["op_host_ms"].to_bits(), (r.op_host_ns as f64 / 1e6).to_bits());
        for m in END_TO_END {
            let v = r.metrics[m.name];
            assert!(v.is_finite() && v > 0.0, "{workload}: {} = {v}", m.name);
        }
    }
}

#[test]
fn traced_run_writes_a_well_formed_trace_with_parent_and_round_ids() {
    for (workload, _) in WORKLOADS {
        let r = quick(workload, 2020, true);
        assert_eq!(r.metrics["wse-trace.cycle_identity"], 1.0, "{workload}: arming moved a cycle");
        let path = r.trace_path.expect("traced run writes a trace");
        let doc = json::parse(&std::fs::read_to_string(&path).expect("trace file")).expect("JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
        let host: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .filter(|e| e.get("pid").and_then(Json::as_num) == Some(1.0))
            .collect();
        assert!(!host.is_empty(), "{workload}: no host spans");
        let arg = |e: &Json, k: &str| e.get("args").and_then(|a| a.get(k)).and_then(Json::as_num);
        let ids: Vec<f64> = host.iter().map(|e| arg(e, "id").expect("span id")).collect();
        for e in &host {
            let parent = arg(e, "parent").expect("parent id");
            assert!(arg(e, "round").is_some(), "{workload}: span without a round id");
            assert!(parent == 0.0 || ids.contains(&parent), "{workload}: dangling parent {parent}");
        }
        let simulated =
            events.iter().filter(|e| e.get("pid").and_then(Json::as_num) == Some(2.0)).count();
        assert!(simulated > 1, "{workload}: no simulated-clock spans in the trace");
    }
}

#[test]
fn benchmark_json_is_the_metric_tables_rendered() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let checked_in = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(checked_in, metrics::manifest(), "regenerate with `e2e-bench --manifest`");
    assert!(json::parse(&checked_in).is_ok(), "BENCHMARK.json is not JSON");
    assert!(metrics::per_layer().len() <= 128);
}
