//! Runs one workload: the measuring pass (untraced), the optional traced
//! pass, and the metrics both add up to.

use crate::harness::{call_overhead_ns, peak_rss_mib, Kind, Recorder, SimSpan};
use crate::workloads::{self, Outcome, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Rounds of a traced pass whose spans go to the trace file. The pass
/// itself runs as long as the untraced one, so that the two floors it is
/// compared by come from windows of the same length.
const SPAN_ROUNDS: u32 = 20;

/// What to run.
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Seed the inputs are generated from.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Also run the traced pass and write the Chrome trace.
    pub trace: bool,
    /// Directory the trace file goes to.
    pub out_dir: PathBuf,
}

/// What one run measured.
pub struct Report {
    /// Ops attempted (one per round, traced rounds included).
    pub attempted: u64,
    /// Ops that failed a check.
    pub failed: u64,
    /// Why, for the first few.
    pub failures: Vec<String>,
    /// Every metric, by name.
    pub metrics: BTreeMap<String, f64>,
    /// The subset of `metrics` that repeats bit for bit for one seed.
    pub exact: BTreeMap<String, f64>,
    /// The op's host floor in integer nanoseconds …
    pub op_host_ns: u64,
    /// … and the per-call floors it is the sum of.
    pub op_floors_ns: BTreeMap<&'static str, u64>,
    /// Digest of the generated inputs.
    pub input_digest: u64,
    /// Where the Chrome trace went, if one was written.
    pub trace_path: Option<PathBuf>,
}

/// One pass over a workload's phases.
struct Pass {
    rec: Recorder,
    attempted: u64,
    failures: Vec<String>,
    failed: u64,
    /// First round's exact values, phase after phase.
    exact: Vec<(String, f64)>,
    input_digest: u64,
    host: BTreeMap<String, Vec<f64>>,
    sim_spans: Vec<(u32, Vec<SimSpan>)>,
}

fn same_bits(a: &[(String, f64)], b: &[(String, f64)]) -> Option<String> {
    if a.len() != b.len() {
        return Some("a different set of values".into());
    }
    a.iter()
        .zip(b)
        .find(|((na, va), (nb, vb))| na != nb || va.to_bits() != vb.to_bits())
        .map(|((na, va), (_, vb))| format!("{na}: {va} became {vb}"))
}

fn measure(wl: &dyn Workload, seconds: f64, armed: bool) -> Pass {
    let mut pass = Pass {
        rec: Recorder::new(if armed { SPAN_ROUNDS } else { 0 }),
        attempted: 0,
        failures: Vec::new(),
        failed: 0,
        exact: Vec::new(),
        input_digest: 0,
        host: BTreeMap::new(),
        sim_spans: Vec::new(),
    };
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    for (pi, phase) in wl.phases().iter().enumerate() {
        let now = Instant::now();
        let budget = end.saturating_duration_since(now).mul_f64(phase.budget_share);
        let deadline = now + budget;
        let mut first: Option<Outcome> = None;
        let mut n = 0;
        // Two rounds at least: the second is compared with the first.
        while n < phase.max_rounds && (n < 2 || Instant::now() < deadline) {
            let id = pass.rec.rounds();
            let mut round = pass.rec.round();
            let result = wl.round(pi, &mut round, armed);
            round.finish();
            pass.attempted += 1;
            n += 1;
            let failure = match result {
                Err(why) => Some(why),
                Ok(mut out) => {
                    for (name, v) in out.host.drain(..) {
                        pass.host.entry(name).or_default().push(v);
                    }
                    if armed && id < SPAN_ROUNDS {
                        pass.sim_spans.push((id, std::mem::take(&mut out.sim_spans)));
                    }
                    match &first {
                        None => {
                            first = Some(out);
                            None
                        }
                        Some(f) => same_bits(&f.exact, &out.exact)
                            .or_else(|| {
                                (f.output_digest != out.output_digest)
                                    .then(|| "outputs are not bit-identical".to_string())
                            })
                            .or_else(|| {
                                (f.input_digest != out.input_digest)
                                    .then(|| "inputs are not bit-identical".to_string())
                            })
                            .map(|why| format!("round {id} differs from its phase's first: {why}")),
                    }
                }
            };
            if let Some(why) = failure {
                pass.failed += 1;
                if pass.failures.len() < 5 {
                    pass.failures.push(why);
                }
            }
        }
        if let Some(f) = first {
            pass.exact.extend(f.exact);
            pass.input_digest ^= f.input_digest.rotate_left(pi as u32);
        }
    }
    pass
}

/// `<layer>.<call>[.<part>]` → (`<layer>.<call>_ms[.<part>]`, and the
/// `<layer>.<call>_ms` total it also counts towards, if it has a part).
fn floor_metric_names(call: &str) -> (String, Option<String>) {
    let mut it = call.splitn(3, '.');
    let (layer, name, part) = (it.next().unwrap_or(""), it.next().unwrap_or(""), it.next());
    match part {
        Some(part) => (format!("{layer}.{name}_ms.{part}"), Some(format!("{layer}.{name}_ms"))),
        None => (format!("{layer}.{name}_ms"), None),
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v[(v.len() - 1) / 2]
}

/// Folds one pass's floors and the program's own host values in.
fn add_host_metrics(m: &mut BTreeMap<String, f64>, pass: &Pass) {
    for kind in [Kind::Setup, Kind::Op, Kind::Diag] {
        for (call, ns) in pass.rec.floors_by_name(kind) {
            let (name, total) = floor_metric_names(call);
            *m.entry(name).or_insert(0.0) += ms(ns);
            if let Some(total) = total {
                *m.entry(total).or_insert(0.0) += ms(ns);
            }
        }
    }
    for (name, samples) in &pass.host {
        let v = if name.ends_with("_p50") {
            median(samples)
        } else {
            samples.iter().copied().fold(f64::INFINITY, f64::min)
        };
        m.insert(name.clone(), v);
    }
}

/// Runs `cfg`'s workload; `None` if there is no workload of that name.
pub fn run(cfg: &Config) -> Option<Report> {
    let wl = workloads::build(&cfg.workload, cfg.seed)?;
    // A traced run splits its time: end-to-end numbers always come from
    // an untraced pass, and the traced pass is measured against it.
    let plain_seconds = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    let started = Instant::now();
    let plain = measure(wl.as_ref(), plain_seconds, false);
    let peak_rss = peak_rss_mib().unwrap_or(0.0);

    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut exact: BTreeMap<String, f64> = plain.exact.iter().cloned().collect();
    wl.derive(&mut exact);
    m.extend(exact.clone());
    add_host_metrics(&mut m, &plain);

    let rec = &plain.rec;
    let op_host_ns = rec.floor_ns(Kind::Op);
    let p50_ns = rec.op_total_quantile_ns(0.5);
    m.insert("op_host_ms".into(), ms(op_host_ns));
    m.insert("setup_s".into(), rec.floor_ns(Kind::Setup) as f64 / 1e9);
    m.insert("peak_rss_mb".into(), peak_rss);
    m.insert("harness.rounds".into(), rec.rounds() as f64);
    m.insert("harness.samples".into(), rec.samples() as f64);
    m.insert("harness.op_host_ms_p50".into(), ms(p50_ns));
    m.insert("harness.op_host_ms_p90".into(), ms(rec.op_total_quantile_ns(0.9)));
    m.insert("harness.noise_ratio".into(), p50_ns as f64 / op_host_ns.max(1) as f64);
    if let Some(lint) = m.get("wse-lint.lint_ms").copied() {
        m.insert("wse-lint.lint_share".into(), lint / ms(op_host_ns.max(1)));
    }
    if let Some(tile_cycles) = exact.get("wse-arch.tile_cycles").copied() {
        let step_ns: u64 = rec
            .floors_by_name(Kind::Op)
            .iter()
            .filter(|(call, _)| wl.step_calls().iter().any(|p| call.starts_with(p)))
            .map(|(_, ns)| ns)
            .sum();
        m.insert("wse-arch.host_ns_per_tile_cycle".into(), step_ns as f64 / tile_cycles);
        m.insert("wse-arch.tile_cycles_per_host_s".into(), tile_cycles / (step_ns as f64 / 1e9));
    }
    if let (Some(run_ms), Some(jobs)) =
        (m.get("wse-serve.run_ms"), exact.get("wse-serve.completed"))
    {
        m.insert("wse-serve.host_ms_per_job".into(), run_ms / jobs);
    }

    let mut trace_path = None;
    let (mut attempted, mut failed, mut failures) = (plain.attempted, plain.failed, plain.failures);
    if cfg.trace {
        let left = (cfg.seconds - started.elapsed().as_secs_f64()).max(0.0);
        let traced = measure(wl.as_ref(), left, true);
        let mut t: BTreeMap<String, f64> = BTreeMap::new();
        add_host_metrics(&mut t, &traced);
        for name in ["wse-trace.take_trace_ms", "wse-trace.export_ms", "wse-trace.events"] {
            m.insert(name.into(), t.get(name).copied().unwrap_or(0.0));
        }
        let armed_ns = traced.rec.floor_ns(Kind::Op);
        m.insert(
            "wse-trace.armed_overhead_pct".into(),
            100.0 * (armed_ns as f64 - op_host_ns as f64) / op_host_ns.max(1) as f64,
        );
        let identical = same_bits(&plain.exact, &traced.exact);
        m.insert("wse-trace.cycle_identity".into(), identical.is_none() as u8 as f64);
        // Keeping a span costs this much per call, outside every timed
        // region; as a share of the op's floor.
        let (bare_ns, kept_ns) = call_overhead_ns(20_000);
        let calls_per_round = traced.rec.samples() as f64 / traced.rec.rounds().max(1) as f64;
        m.insert(
            "harness.span_overhead_pct".into(),
            100.0 * (kept_ns - bare_ns).max(0.0) * calls_per_round / op_host_ns.max(1) as f64,
        );
        if let Some(why) = identical {
            failed += 1;
            failures.push(format!("armed and disarmed runs differ: {why}"));
        }
        attempted += traced.attempted;
        failed += traced.failed;
        failures.extend(traced.failures);

        let path = cfg.out_dir.join(format!("trace-{}.json", cfg.workload));
        let doc = crate::chrome::render(&cfg.workload, traced.rec.spans(), &traced.sim_spans);
        let written =
            std::fs::create_dir_all(&cfg.out_dir).and_then(|()| std::fs::write(&path, doc));
        match written {
            Ok(()) => trace_path = Some(path),
            Err(e) => {
                failed += 1;
                failures.push(format!("writing {}: {e}", path.display()));
            }
        }
    }

    Some(Report {
        attempted,
        failed,
        failures,
        metrics: m,
        exact,
        op_host_ns,
        op_floors_ns: rec.floors_by_name(Kind::Op),
        input_digest: plain.input_digest,
        trace_path,
    })
}
