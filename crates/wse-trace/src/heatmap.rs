//! Per-tile utilization heatmaps (CSV and ASCII) and the fabric-wide
//! stall-cause breakdown table.

use std::fmt::Write as _;
use wse_arch::{FabricTrace, StallCause};

/// Shade ramp for ASCII heatmaps, low to high utilization.
const RAMP: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];

/// Per-tile datapath utilization as CSV: a `y\x` header row, then one row
/// per tile row with utilization in `[0,1]` at 4 decimal places.
pub fn utilization_csv(trace: &FabricTrace) -> String {
    let mut out = String::new();
    out.push_str("y\\x");
    for x in 0..trace.w {
        let _ = write!(out, ",{x}");
    }
    out.push('\n');
    for y in 0..trace.h {
        let _ = write!(out, "{y}");
        for x in 0..trace.w {
            let _ = write!(out, ",{:.4}", trace.tile(x, y).utilization());
        }
        out.push('\n');
    }
    out
}

/// Per-tile utilization as an ASCII shade map (one character per tile, one
/// line per row), with a legend line.
pub fn utilization_ascii(trace: &FabricTrace) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "utilization heatmap {}x{} (' '=0% .. '@'=100%)", trace.w, trace.h);
    for y in 0..trace.h {
        for x in 0..trace.w {
            let u = trace.tile(x, y).utilization();
            let idx = ((u * RAMP.len() as f64) as usize).min(RAMP.len() - 1);
            out.push(RAMP[idx]);
        }
        out.push('\n');
    }
    out
}

/// Fabric-wide stall-cause cycle attribution as a fixed-width table, with
/// each cause's share of all non-issuing cycles.
pub fn stall_breakdown(trace: &FabricTrace) -> String {
    let totals = trace.stall_totals();
    let sum: u64 = totals.iter().sum();
    let mut out = String::new();
    let _ = writeln!(out, "{:<14} {:>14} {:>7}", "stall cause", "cycles", "share");
    for cause in StallCause::ALL {
        let n = totals[cause.index()];
        let pct = if sum == 0 { 0.0 } else { 100.0 * n as f64 / sum as f64 };
        let _ = writeln!(out, "{:<14} {:>14} {:>6.1}%", cause.label(), n, pct);
    }
    let bp = trace.perf.backpressure_total();
    let _ = writeln!(out, "{:<14} {:>14}", "router bp", bp);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wse_arch::{FabricPerf, OpClass, TileTrace};

    fn trace_2x2(busy: [u64; 4]) -> FabricTrace {
        let tiles = (0..4)
            .map(|i| TileTrace {
                x: i % 2,
                y: i / 2,
                events: Vec::new(),
                dropped_events: 0,
                stall: [3, 2, 5],
                retired: [0; OpClass::COUNT],
                busy_cycles: busy[i],
                idle_cycles: 10 - busy[i],
                flits_routed: 0,
                backpressure: [0; 5],
            })
            .collect();
        FabricTrace {
            w: 2,
            h: 2,
            start_cycle: 0,
            end_cycle: 10,
            phases: Vec::new(),
            tiles,
            perf: FabricPerf::default(),
        }
    }

    #[test]
    fn csv_has_header_and_one_row_per_tile_row() {
        let csv = utilization_csv(&trace_2x2([10, 5, 0, 10]));
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "y\\x,0,1");
        assert_eq!(lines[1], "0,1.0000,0.5000");
        assert_eq!(lines[2], "1,0.0000,1.0000");
    }

    #[test]
    fn ascii_shades_extremes() {
        let art = utilization_ascii(&trace_2x2([10, 0, 5, 10]));
        let lines: Vec<_> = art.lines().collect();
        assert_eq!(lines[1], "@ ");
        assert_eq!(lines[2], "+@");
    }

    #[test]
    fn stall_breakdown_lists_every_cause_with_shares() {
        let table = stall_breakdown(&trace_2x2([5, 5, 5, 5]));
        for cause in StallCause::ALL {
            assert!(table.contains(cause.label()), "missing {}", cause.label());
        }
        // 4 tiles x (3 fifo_wait of 10 total stall cycles) = 30%.
        assert!(table.contains("30.0%"), "{table}");
    }

    #[test]
    fn router_bp_row_covers_only_the_traced_window() {
        // The prologue streams into a receiver that starts late, so the
        // routers back up; a trace armed after it drained sees none of it.
        use wse_arch::dsr::mk;
        use wse_arch::instr::{Op, Stmt, Task, TensorInstr};
        use wse_arch::{Dtype, Fabric, Port, TraceConfig};
        let n = 256;
        let mut f = Fabric::new(2, 1);
        f.set_route(0, 0, Port::Ramp, 1, &[Port::East]);
        f.set_route(1, 0, Port::West, 1, &[Port::Ramp]);
        let buf: Vec<u32> =
            (0..2).map(|x| f.tile_mut(x, 0).mem.alloc_vec(n, Dtype::F16).unwrap()).collect();
        let mut copy = |x: usize, dst, src| {
            let t = f.tile_mut(x, 0);
            let (dst, src) = (t.core.add_dsr(dst), t.core.add_dsr(src));
            let instr = TensorInstr { op: Op::Copy, dst: Some(dst), a: Some(src), b: None };
            t.core.add_task(Task::new("copy", vec![Stmt::Exec(instr)]))
        };
        let send = copy(0, mk::tx16(1, n), mk::tensor16(buf[0], n));
        let recv = copy(1, mk::tensor16(buf[1], n), mk::rx16(1, n));
        f.tile_mut(0, 0).core.activate(send);
        for _ in 0..100 {
            f.step();
        }
        f.tile_mut(1, 0).core.activate(recv);
        f.run_watched(10_000, 1_000).unwrap();
        assert!(f.perf().backpressure_total() > 0, "the prologue must back up");

        f.arm_trace(TraceConfig::default());
        for _ in 0..10 {
            f.step();
        }
        let trace = f.take_trace().unwrap();
        let tiles_bp: u64 = trace.tiles.iter().flat_map(|t| t.backpressure).sum();
        assert_eq!(trace.perf.backpressure_total(), tiles_bp);
        let table = stall_breakdown(&trace);
        let bp_row = table.lines().find(|l| l.starts_with("router bp")).unwrap();
        assert_eq!(bp_row.split_whitespace().last(), Some("0"), "{table}");
    }
}
