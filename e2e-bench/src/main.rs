//! Command line of the benchmark.
//!
//! ```text
//! e2e-bench [--workload NAME] [--seconds 30] [--seed 2020] [--trace [0|1]]
//!           [--json PATH] [--aa] [--legacy-check] [--manifest]
//! ```
//!
//! With `--workload` the run happens in this process and the last line of
//! standard output is the driver's JSON object. Without it every workload
//! runs in a child process of its own (so `peak_rss_mb` is per workload).

use e2e_bench::metrics::{self, AA_EXACT, END_TO_END, RUN_SECONDS, WORKLOADS};
use e2e_bench::run::{run, Config, Report};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

struct Args {
    workload: Option<String>,
    seconds: f64,
    seed: u64,
    trace: bool,
    json: Option<PathBuf>,
    aa: bool,
    legacy_check: bool,
    manifest: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: e2e-bench [--workload NAME] [--seconds {RUN_SECONDS}] [--seed 2020] [--trace [0|1]] \
         [--json PATH] [--aa] [--legacy-check] [--manifest]\nworkloads: {}",
        names.join(" ")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seconds: RUN_SECONDS as f64,
        seed: 2020,
        trace: false,
        json: None,
        aa: false,
        legacy_check: false,
        manifest: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let value = |it: &mut dyn Iterator<Item = String>| {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it)?;
                if !WORKLOADS.iter().any(|(n, _)| *n == name) {
                    return Err(format!("unknown workload '{name}'"));
                }
                args.workload = Some(name);
            }
            "--seconds" => {
                let v = value(&mut it)?;
                args.seconds =
                    v.parse().ok().filter(|s: &f64| s.is_finite() && *s >= 0.0).ok_or_else(
                        || format!("--seconds expects a non-negative number, got '{v}'"),
                    )?;
            }
            "--seed" => {
                let v = value(&mut it)?;
                // Any 64-bit integer is a seed; a negative one by its bits.
                args.seed = v
                    .parse::<u64>()
                    .or_else(|_| v.parse::<i64>().map(|s| s as u64))
                    .map_err(|_| format!("--seed expects an integer, got '{v}'"))?;
            }
            "--trace" => {
                // `--trace` alone turns tracing on; the driver passes 0 or 1.
                args.trace = match it.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                };
            }
            "--json" => args.json = Some(PathBuf::from(value(&mut it)?)),
            "--aa" => args.aa = true,
            "--legacy-check" => args.legacy_check = true,
            "--manifest" => args.manifest = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    Ok(args)
}

/// `(name, unit)` of the measured metrics in print order: end-to-end, the
/// per-layer table, then every other call floor and exact value.
fn print_order(metrics: &BTreeMap<String, f64>) -> Vec<(String, &'static str)> {
    let mut order: Vec<(String, &'static str)> =
        END_TO_END.iter().map(|m| (m.name.to_string(), m.unit)).collect();
    order.extend(metrics::per_layer().into_iter().map(|(n, unit, _)| (n, unit)));
    order.retain(|(n, _)| metrics.contains_key(n));
    let rest: Vec<_> = metrics
        .keys()
        .filter(|k| !order.iter().any(|(n, _)| n == *k))
        .map(|k| (k.clone(), metrics::unit_by_suffix(k)))
        .collect();
    order.extend(rest);
    order
}

/// One metric as the JSON the driver (and `--json`) reads; a value that
/// is not a number reads 0.
fn metric_json(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

/// The driver's result object: every end-to-end metric without tracing,
/// every per-layer metric with it.
fn driver_json(report: &Report, trace: bool) -> String {
    let names: Vec<(String, &str)> = if trace {
        metrics::per_layer().into_iter().map(|(n, unit, _)| (n, unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name.to_string(), m.unit)).collect()
    };
    // A per-layer metric this workload does not exercise reads 0.
    let values: Vec<f64> =
        names.iter().map(|(n, _)| report.metrics.get(n).copied().unwrap_or(0.0)).collect();
    let finite = values.iter().all(|v| v.is_finite());
    let body: Vec<String> =
        names.iter().zip(&values).map(|((n, unit), v)| metric_json(n, *v, unit)).collect();
    let body = body.join(", ");
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        report.failed == 0 && finite,
        report.attempted.max(1),
        report.failed
    )
}

/// Runs one workload in this process and prints its lines.
fn run_one(args: &Args, workload: &str) -> ExitCode {
    let cfg = Config {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let Some(report) = run(&cfg) else {
        eprintln!("unknown workload '{workload}'");
        return ExitCode::from(2);
    };
    for (name, unit) in print_order(&report.metrics) {
        println!("{workload} {name} {} {unit}", report.metrics[&name]);
    }
    println!("{workload} ops_attempted {} count", report.attempted);
    println!("{workload} ops_failed {} count", report.failed);
    for why in &report.failures {
        eprintln!("{workload}: FAILED: {why}");
    }
    if let Some(path) = &report.trace_path {
        eprintln!("{workload}: wrote {}", path.display());
    }
    println!("{}", driver_json(&report, args.trace));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `workload → metric → (value, unit)` of one whole set.
type Set = BTreeMap<String, BTreeMap<String, (f64, String)>>;

/// Runs every workload, each in a child process of its own, echoing the
/// children's lines. Returns the set and whether every op succeeded.
fn run_set(args: &Args) -> Result<(Set, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut set = Set::new();
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        let child = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {workload}: {e}"))?;
        let out = child.wait_with_output().map_err(|e| format!("waiting for {workload}: {e}"))?;
        ok &= out.status.success();
        let text = String::from_utf8_lossy(&out.stdout);
        let rows = set.entry(workload.to_string()).or_default();
        for line in text.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            if let [w, name, value, unit] = f[..] {
                if let (true, Ok(v)) = (w == workload, value.parse::<f64>()) {
                    println!("{line}");
                    rows.insert(name.to_string(), (v, unit.to_string()));
                }
            }
        }
    }
    Ok((set, ok))
}

fn render_set_json(args: &Args, set: &Set) -> String {
    let mut s = format!(
        "{{\n  \"seed\": {}, \"seconds\": {},\n  \"workloads\": {{\n",
        args.seed, args.seconds
    );
    for (wi, (workload, rows)) in set.iter().enumerate() {
        let _ = writeln!(s, "    \"{workload}\": {{");
        for (i, (name, (v, unit))) in rows.iter().enumerate() {
            let comma = if i + 1 == rows.len() { "" } else { "," };
            let v = if v.is_finite() { *v } else { 0.0 };
            let _ =
                writeln!(s, "      \"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}{comma}");
        }
        let _ = writeln!(s, "    }}{}", if wi + 1 == set.len() { "" } else { "," });
    }
    s.push_str("  }\n}\n");
    s
}

/// `--aa`: the whole set twice, back to back; every gated metric's
/// relative difference next to its bound.
fn run_aa(args: &Args) -> Result<bool, String> {
    let (a, ok_a) = run_set(args)?;
    let (b, ok_b) = run_set(args)?;
    let mut ok = ok_a && ok_b;
    let gated: Vec<(&str, f64)> =
        END_TO_END.iter().map(|m| (m.name, m.bound)).chain(AA_EXACT).collect();
    println!("# A/A: same code, same seed, two sets back to back");
    println!("# workload metric first second rel_diff bound verdict");
    for (workload, _) in WORKLOADS {
        for (name, bound) in &gated {
            let (Some((x, _)), Some((y, _))) = (a[workload].get(*name), b[workload].get(*name))
            else {
                continue;
            };
            let rel = if x == y { 0.0 } else { (y - x).abs() / x.abs().max(f64::MIN_POSITIVE) };
            let pass = rel <= *bound;
            ok &= pass;
            println!(
                "aa {workload} {name} {x} {y} {rel:.5} {bound} {}",
                if pass { "ok" } else { "EXCEEDS" }
            );
        }
    }
    Ok(ok)
}

/// `--legacy-check`: do the new workloads reproduce the numbers checked
/// in as `BENCH_service.json` and `BENCH_sim_throughput.json`? Printed,
/// never fatal.
fn legacy_check() {
    let quick = |workload: &str| {
        run(&Config {
            workload: workload.into(),
            seed: 2020,
            seconds: 0.0,
            trace: false,
            out_dir: PathBuf::new(),
        })
        .expect("known workload")
    };
    let check = |file: &str, field: &str, got: String, want: &str| {
        let verdict = if got == want { "agrees" } else { "DIFFERS" };
        println!("legacy-check {file} {field}: {got} vs {want}: {verdict}");
    };
    let serve = quick("serve-mixed");
    let v = |r: &Report, name: &str| r.exact.get(name).copied().unwrap_or(f64::NAN);
    let file = "BENCH_service.json";
    check(file, "latency_us.p50", format!("{:.3}", v(&serve, "sim_sojourn_us_p50")), "22237.521");
    check(file, "solves_per_sec", format!("{:.3}", v(&serve, "sim_solves_per_s")), "1580.190");
    check(
        file,
        "latency_us.makespan",
        format!("{:.3}", v(&serve, "op_sim_cycles") / (metrics::CLOCK_GHZ * 1e3)),
        "30376.101",
    );
    let tiers = ["tier_cold", "tier_hit", "tier_resident"]
        .map(|t| format!("{}", v(&serve, &format!("wse-serve.{t}"))))
        .join("-");
    check(file, "tiers", tiers, "3-21-24");
    let dense = quick("solve3d-dense");
    check(
        "BENCH_sim_throughput.json",
        "dense_bicgstab 8x8 cycles (2 iterations)",
        format!("{}", v(&dense, "legacy.dense_2iter_cycles")),
        "1764",
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", metrics::manifest());
        return ExitCode::SUCCESS;
    }
    if args.legacy_check {
        legacy_check();
        return ExitCode::SUCCESS;
    }
    if let Some(workload) = &args.workload {
        return run_one(&args, workload);
    }
    let result = if args.aa {
        run_aa(&args)
    } else {
        run_set(&args).map(|(set, ok)| {
            if let Some(path) = &args.json {
                match std::fs::write(path, render_set_json(&args, &set)) {
                    Ok(()) => eprintln!("wrote {}", path.display()),
                    Err(e) => eprintln!("writing {}: {e}", path.display()),
                }
            }
            ok
        })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
