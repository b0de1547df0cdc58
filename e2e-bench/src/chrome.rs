//! Chrome-trace (`chrome://tracing`, Perfetto) rendering of a traced
//! pass: the harness's host-clock spans as process 1, the program's own
//! phase spans on the simulated clock as process 2.

use crate::harness::{SimSpan, Span};
use crate::metrics::CLOCK_GHZ;
use std::fmt::Write as _;
use wse_trace::json::escape;

/// Renders the trace document. Every host span carries its id, its
/// parent's id and its round; a span's self time is its duration minus
/// its children's. Simulated spans of round `n` carry `round: n` too, and
/// are laid out round after round on their own clock (cycles at 0.9 GHz).
pub fn render(workload: &str, spans: &[Span], sim: &[(u32, Vec<SimSpan>)]) -> String {
    let mut s = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    let _ = writeln!(
        s,
        "{{\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", \"args\": {{\"name\": \"{} host clock\"}}}},",
        escape(workload)
    );
    let _ = write!(
        s,
        "{{\"ph\": \"M\", \"pid\": 2, \"name\": \"process_name\", \"args\": {{\"name\": \"{} simulated clock ({CLOCK_GHZ} GHz)\"}}}}",
        escape(workload)
    );
    for sp in spans {
        let _ = write!(
            s,
            ",\n{{\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"name\": \"{}\", \"cat\": \"{}\", \
             \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}, \"round\": {}}}}}",
            escape(sp.name),
            sp.cat,
            sp.start_ns as f64 / 1e3,
            sp.dur_ns as f64 / 1e3,
            sp.id,
            sp.parent,
            sp.round
        );
    }
    let us = |cycles: u64| cycles as f64 / (CLOCK_GHZ * 1e3);
    let mut origin = 0u64;
    for (round, phases) in sim {
        let mut end = origin;
        for p in phases {
            let _ = write!(
                s,
                ",\n{{\"ph\": \"X\", \"pid\": 2, \"tid\": 1, \"name\": \"{}\", \"cat\": \"sim\", \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"round\": {}, \"cycles\": {}}}}}",
                escape(&p.name),
                us(origin + p.start_cycle),
                us(p.cycles),
                round,
                p.cycles
            );
            end = end.max(origin + p.start_cycle + p.cycles);
        }
        origin = end;
    }
    s.push_str("\n]}\n");
    s
}
