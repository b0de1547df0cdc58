//! Phase-level profiling: aggregate driver-marked [`PhaseSpan`]s into a
//! cycles-per-phase table convertible to microseconds at a given clock.

use std::fmt::Write as _;
use wse_arch::{FabricTrace, PhaseSpan};

/// One aggregated phase (or marker) row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseRow {
    /// Phase name as marked by the driver.
    pub name: &'static str,
    /// Number of spans (for markers: number of stamps).
    pub spans: u64,
    /// Total cycles across all spans (always 0 for markers).
    pub cycles: u64,
}

/// Cycles-per-phase aggregation of a [`FabricTrace`].
#[derive(Clone, Debug, Default)]
pub struct PhaseReport {
    /// Rows in first-seen order.
    pub rows: Vec<PhaseRow>,
    /// Cycles covered by the traced window.
    pub window_cycles: u64,
}

impl PhaseReport {
    /// Aggregates `trace.phases` by name, keeping first-seen order. Instant
    /// markers (checkpoint/rollback stamps) become zero-cycle rows whose
    /// `spans` field counts occurrences.
    pub fn from_trace(trace: &FabricTrace) -> PhaseReport {
        let mut report = PhaseReport { rows: Vec::new(), window_cycles: trace.window_cycles() };
        for span in &trace.phases {
            report.add(span);
        }
        report
    }

    /// Aggregates only the spans overlapping the cycle window `[lo, hi)`,
    /// clipping each span to it — the per-job attribution primitive of the
    /// multi-tenant service: the driver records the fabric cycle at which
    /// each job starts and finishes, and this carves one job's share out of
    /// a shared phase log (drained with `Fabric::drain_phases`). Phase
    /// names are `&'static str`, so attribution is by *when* work ran, not
    /// by dynamic labels. Markers are kept when their stamp cycle falls
    /// inside the window. `window_cycles` is the window's width.
    pub fn from_spans_window(spans: &[PhaseSpan], lo: u64, hi: u64) -> PhaseReport {
        let mut report = PhaseReport { rows: Vec::new(), window_cycles: hi.saturating_sub(lo) };
        for span in spans {
            if span.start == span.end {
                // Instant marker: inside the half-open window?
                if span.start >= lo && span.start < hi {
                    report.add(span);
                }
            } else if span.start < hi && span.end > lo {
                let clipped =
                    PhaseSpan { name: span.name, start: span.start.max(lo), end: span.end.min(hi) };
                report.add(&clipped);
            }
        }
        report
    }

    fn add(&mut self, span: &PhaseSpan) {
        match self.rows.iter_mut().find(|r| r.name == span.name) {
            Some(row) => {
                row.spans += 1;
                row.cycles += span.cycles();
            }
            None => self.rows.push(PhaseRow { name: span.name, spans: 1, cycles: span.cycles() }),
        }
    }

    /// Total cycles attributed to phase `name` (0 if absent).
    pub fn cycles(&self, name: &str) -> u64 {
        self.rows.iter().find(|r| r.name == name).map_or(0, |r| r.cycles)
    }

    /// Number of spans recorded for phase `name` (0 if absent).
    pub fn spans(&self, name: &str) -> u64 {
        self.rows.iter().find(|r| r.name == name).map_or(0, |r| r.spans)
    }

    /// Cycles of phase `name` converted to microseconds at `clock_ghz`.
    pub fn us(&self, name: &str, clock_ghz: f64) -> f64 {
        self.cycles(name) as f64 / (clock_ghz * 1e3)
    }

    /// All instant markers (zero-cycle stamp rows) in first-seen order, as
    /// `(name, count)`. The recovery engine stamps `"checkpoint"` and
    /// `"rollback"`; the multi-wafer reliable transport stamps
    /// `"link_retransmit"` (once per retransmitted seam window) and the
    /// distributed solver `"halo_retry"` (once per failed halo exchange
    /// handed to the recovery engine) — so a trace answers "how many
    /// retransmissions in this window" without scanning raw spans.
    pub fn marker_counts(&self) -> Vec<(&'static str, u64)> {
        self.rows.iter().filter(|r| r.cycles == 0).map(|r| (r.name, r.spans)).collect()
    }

    /// Window cycles not covered by any marked phase (drivers mark phases
    /// back-to-back, so this is normally setup/teardown overhead).
    pub fn unattributed_cycles(&self) -> u64 {
        let marked: u64 = self.rows.iter().map(|r| r.cycles).sum();
        self.window_cycles.saturating_sub(marked)
    }

    /// Renders a fixed-width table. Deterministic for identical traces: all
    /// numbers use fixed-precision formatting.
    pub fn render(&self, clock_ghz: f64) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:>7} {:>12} {:>10} {:>7}",
            "phase", "spans", "cycles", "us", "window"
        );
        for row in &self.rows {
            let us = row.cycles as f64 / (clock_ghz * 1e3);
            let pct = if self.window_cycles == 0 {
                0.0
            } else {
                100.0 * row.cycles as f64 / self.window_cycles as f64
            };
            let _ = writeln!(
                out,
                "{:<12} {:>7} {:>12} {:>10.3} {:>6.1}%",
                row.name, row.spans, row.cycles, us, pct
            );
        }
        let un = self.unattributed_cycles();
        let pct = if self.window_cycles == 0 {
            0.0
        } else {
            100.0 * un as f64 / self.window_cycles as f64
        };
        let _ = writeln!(
            out,
            "{:<12} {:>7} {:>12} {:>10.3} {:>6.1}%",
            "(other)",
            "-",
            un,
            un as f64 / (clock_ghz * 1e3),
            pct
        );
        let _ = writeln!(
            out,
            "{:<12} {:>7} {:>12} {:>10.3} {:>6.1}%",
            "window",
            "-",
            self.window_cycles,
            self.window_cycles as f64 / (clock_ghz * 1e3),
            100.0
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wse_arch::FabricPerf;

    fn trace_with_phases(phases: Vec<PhaseSpan>, window: u64) -> FabricTrace {
        FabricTrace {
            w: 1,
            h: 1,
            start_cycle: 0,
            end_cycle: window,
            phases,
            tiles: Vec::new(),
            perf: FabricPerf::default(),
        }
    }

    #[test]
    fn aggregates_by_name_in_first_seen_order() {
        let t = trace_with_phases(
            vec![
                PhaseSpan { name: "spmv", start: 0, end: 40 },
                PhaseSpan { name: "dot", start: 40, end: 60 },
                PhaseSpan { name: "checkpoint", start: 60, end: 60 },
                PhaseSpan { name: "spmv", start: 60, end: 110 },
            ],
            120,
        );
        let r = PhaseReport::from_trace(&t);
        assert_eq!(
            r.rows.iter().map(|x| x.name).collect::<Vec<_>>(),
            ["spmv", "dot", "checkpoint"]
        );
        assert_eq!(r.cycles("spmv"), 90);
        assert_eq!(r.spans("spmv"), 2);
        assert_eq!(r.cycles("checkpoint"), 0);
        assert_eq!(r.spans("checkpoint"), 1);
        assert_eq!(r.cycles("missing"), 0);
        assert_eq!(r.unattributed_cycles(), 120 - 110);
    }

    #[test]
    fn transport_markers_surface_as_counts() {
        let t = trace_with_phases(
            vec![
                PhaseSpan { name: "halo", start: 0, end: 40 },
                PhaseSpan { name: "link_retransmit", start: 25, end: 25 },
                PhaseSpan { name: "link_retransmit", start: 33, end: 33 },
                PhaseSpan { name: "halo_retry", start: 40, end: 40 },
                PhaseSpan { name: "rollback", start: 41, end: 41 },
            ],
            50,
        );
        let r = PhaseReport::from_trace(&t);
        assert_eq!(r.marker_counts(), [("link_retransmit", 2), ("halo_retry", 1), ("rollback", 1)]);
        // Markers never claim cycles: the halo phase keeps its 40.
        assert_eq!(r.cycles("halo"), 40);
        assert_eq!(r.unattributed_cycles(), 10);
    }

    #[test]
    fn overlap_attribution_spans_aggregate_alongside_the_merged_window() {
        // The overlapped multi-wafer driver emits one merged "spmv+halo"
        // span per window plus retroactive attribution sub-spans: the
        // hidden share at the window's head, the exposed share at its
        // tail. The report must keep all three rows separately so
        // hidden-vs-exposed wire time can be read without re-parsing raw
        // spans, and the attribution rows must never claim cycles the
        // merged window doesn't cover.
        let t = trace_with_phases(
            vec![
                PhaseSpan { name: "spmv+halo", start: 100, end: 300 },
                PhaseSpan { name: "halo_overlap", start: 100, end: 180 },
                PhaseSpan { name: "halo_exposed", start: 280, end: 300 },
                PhaseSpan { name: "spmv+halo", start: 350, end: 540 },
                PhaseSpan { name: "halo_overlap", start: 350, end: 420 },
            ],
            600,
        );
        let r = PhaseReport::from_trace(&t);
        assert_eq!(r.spans("spmv+halo"), 2);
        assert_eq!(r.cycles("spmv+halo"), 390);
        assert_eq!(r.cycles("halo_overlap"), 150);
        assert_eq!(r.cycles("halo_exposed"), 20);
        // Attribution stays inside the windows it annotates.
        assert!(r.cycles("halo_overlap") + r.cycles("halo_exposed") <= r.cycles("spmv+halo"));
        // A fully hidden exchange simply has no exposed row.
        let hidden_only = PhaseReport::from_trace(&trace_with_phases(
            vec![
                PhaseSpan { name: "spmv+halo", start: 0, end: 200 },
                PhaseSpan { name: "halo_overlap", start: 0, end: 90 },
            ],
            200,
        ));
        assert_eq!(hidden_only.cycles("halo_exposed"), 0);
        assert_eq!(hidden_only.spans("halo_exposed"), 0);
    }

    #[test]
    fn window_report_clips_spans_and_attributes_markers() {
        // Two back-to-back "jobs" on one fabric: job A runs [0, 60), job B
        // [60, 120). A span straddling the boundary is split between them.
        let t = trace_with_phases(
            vec![
                PhaseSpan { name: "spmv", start: 0, end: 50 },
                PhaseSpan { name: "dot", start: 50, end: 70 },
                PhaseSpan { name: "checkpoint", start: 55, end: 55 },
                PhaseSpan { name: "spmv", start: 70, end: 110 },
                PhaseSpan { name: "rollback", start: 80, end: 80 },
            ],
            120,
        );
        let a = PhaseReport::from_spans_window(&t.phases, 0, 60);
        assert_eq!(a.cycles("spmv"), 50);
        assert_eq!(a.cycles("dot"), 10); // clipped at 60
        assert_eq!(a.marker_counts(), [("checkpoint", 1)]);
        assert_eq!(a.window_cycles, 60);

        let b = PhaseReport::from_spans_window(&t.phases, 60, 120);
        assert_eq!(b.cycles("dot"), 10); // the other half
        assert_eq!(b.cycles("spmv"), 40);
        assert_eq!(b.marker_counts(), [("rollback", 1)]);

        // The two windows partition the full-trace attribution.
        let full = PhaseReport::from_trace(&t);
        for name in ["spmv", "dot"] {
            assert_eq!(a.cycles(name) + b.cycles(name), full.cycles(name), "{name}");
        }
    }

    #[test]
    fn converts_cycles_to_paper_microseconds() {
        let t = trace_with_phases(vec![PhaseSpan { name: "spmv", start: 0, end: 900 }], 900);
        let r = PhaseReport::from_trace(&t);
        // 900 cycles at 0.9 GHz is exactly 1 µs.
        assert!((r.us("spmv", 0.9) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn render_is_deterministic_and_mentions_every_phase() {
        let t = trace_with_phases(
            vec![
                PhaseSpan { name: "spmv", start: 0, end: 40 },
                PhaseSpan { name: "allreduce", start: 40, end: 50 },
            ],
            50,
        );
        let r = PhaseReport::from_trace(&t);
        let a = r.render(0.9);
        assert_eq!(a, r.render(0.9));
        assert!(a.contains("spmv"));
        assert!(a.contains("allreduce"));
        assert!(a.contains("window"));
    }
}
