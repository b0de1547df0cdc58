//! Whole-fabric deadlock detection over the channel-dependency graph.
//!
//! The fabric blocks in exactly three places: a synchronous receive with
//! no flits, a synchronous send with no queue space, and a router queue
//! held by credit backpressure. This pass builds the graph of *who waits
//! for whom* across every tile (and across seam channels in an ensemble)
//! and reports its cycles — each one a set of waits that can never all
//! retire:
//!
//! * **gate edges** — a wait site cannot start until the previous
//!   synchronous wait in its task body completes (`Launch` sites are
//!   issued in program order too, so they gate the same way);
//! * **producer edges** — a receive of color `c` waits for some send of
//!   `c` whose route flow reaches this tile's ramp;
//! * **backpressure edges** — a synchronous send longer than the queue
//!   capacity along its delivery path cannot complete until the consumer
//!   drains, so it waits on the consumer's receive site (seam-crossing
//!   paths are exempt: the host link buffers them).
//!
//! A cycle is reported once with the full witness: every wait site on it,
//! with tile coordinates, colors, lengths, and the queue capacities that
//! bound how much slack the cycle has ([`crate::Rule::DeadlockCycle`]).

use crate::dataflow::{path_capacity, Model};
use crate::{Diagnostic, Rule};
use std::collections::BTreeMap;
use wse_arch::types::{Color, QUEUE_CAPACITY, RAMP_OUT_CAPACITY};

/// Builds the waits-for graph over the model's wait sites and reports
/// every cycle found.
pub(crate) fn check(model: &Model<'_>, diags: &mut Vec<Diagnostic>) {
    let sites = &model.waits;
    let n = sites.len();
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];

    // Gate edges: site -> the latest *synchronous* wait site before it in
    // the same task body (transitively covers the whole prefix chain).
    for (s, x, y, class) in model.tiles() {
        let first = model.tile(s, x, y).1;
        for (k, gate) in class.gates.iter().enumerate() {
            succ[first + k].extend(gate.map(|g| first + g));
        }
    }

    // Producer and backpressure edges, per sending site. What a send can
    // reach — the receive sites of its color on every ramp its route flow
    // delivers to, in site order — is memoized per (origin tile, color):
    // senders often share an origin.
    type Reached = Vec<(usize, usize, bool)>;
    let mut reached: BTreeMap<(usize, usize, usize, Color), Reached> = BTreeMap::new();
    for (j, sender) in sites.iter().enumerate() {
        let Some((color, send_len)) = sender.send else { continue };
        let receivers =
            reached.entry((sender.shard, sender.x, sender.y, color)).or_insert_with(|| {
                let flow = model.flow_from_ramp(sender.shard, sender.x, sender.y, color);
                let mut receivers = Reached::new();
                for (&(s, x, y), &(dist, seamed)) in &flow.delivered {
                    let (class, first) = model.tile(s, x, y);
                    for (k, w) in class.waits.iter().enumerate() {
                        if matches!(w.recv, Some((c, _)) if c == color) {
                            receivers.push((first + k, dist, seamed));
                        }
                    }
                }
                receivers.sort_unstable();
                receivers
            });
        for &(i, dist, seamed) in receivers.iter() {
            if i == j {
                // A site that both receives and sends one color moves
                // elements through itself; it is not its own producer.
                continue;
            }
            // The receive waits for this producer's send to run.
            succ[i].push(j);
            // The send waits for the receive to drain — only when it is
            // synchronous (something downstream in its task waits on it)
            // and too long for the path's queues, with no host-buffered
            // seam on the way.
            if !sender.background && !seamed && send_len > path_capacity(dist) {
                succ[j].push(i);
            }
        }
    }

    // Iterative DFS; one report per back edge, then the entry node is
    // closed so each cycle is reported once.
    let mut state = vec![0u8; n]; // 0 unvisited, 1 on path, 2 done
    for start in 0..n {
        if state[start] != 0 {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        state[start] = 1;
        while let Some(&(node, cursor)) = stack.last() {
            if cursor >= succ[node].len() {
                state[node] = 2;
                stack.pop();
                continue;
            }
            stack.last_mut().unwrap().1 += 1;
            let next = succ[node][cursor];
            match state[next] {
                0 => {
                    state[next] = 1;
                    stack.push((next, 0));
                }
                1 => {
                    let from = stack.iter().position(|&(k, _)| k == next).unwrap_or(0);
                    let cycle: Vec<usize> = stack[from..].iter().map(|&(k, _)| k).collect();
                    report_cycle(model, &cycle, diags);
                    state[next] = 2;
                }
                _ => {}
            }
        }
    }
}

fn report_cycle(model: &Model<'_>, cycle: &[usize], diags: &mut Vec<Diagnostic>) {
    let ens = model.ens;
    let witness: Vec<String> = cycle.iter().map(|&i| model.waits[i].describe(ens)).collect();
    let head = &model.waits[cycle[0]];
    diags.push(ens.error(
        head.shard,
        head.x,
        head.y,
        Rule::DeadlockCycle,
        format!(
            "cyclic wait across {} site(s): {} -> back to start; every queue on the \
             cycle is bounded (ramp-out {RAMP_OUT_CAPACITY}, router/ramp-in \
             {QUEUE_CAPACITY} flits), so once the slack fills no wait can retire",
            cycle.len(),
            witness.join(" -> "),
        ),
    ));
}
