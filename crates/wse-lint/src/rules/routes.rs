//! Route-graph analysis.
//!
//! Routing is configured offline and never changes at runtime, so the
//! forwarding behavior of the whole wafer is a static per-color directed
//! graph whose nodes are `(tile, input port)` pairs. This module walks that
//! graph looking for the ways a route configuration can wedge the fabric:
//!
//! * fanout off the edge of the fabric ([`crate::Rule::RouteOffFabric`]);
//! * fanout into a neighbor queue nothing ever drains
//!   ([`crate::Rule::RouteDangling`]);
//! * delivery to a core that never consumes the color
//!   ([`crate::Rule::DeadDelivery`]);
//! * receive descriptors no route can feed
//!   ([`crate::Rule::UnreachableReceive`]);
//! * sends with no route out of the ramp
//!   ([`crate::Rule::MissingRampRoute`]);
//! * directed cycles — with credit-based backpressure and all-or-nothing
//!   fanout, a cycle that fills can never drain
//!   ([`crate::Rule::RouteCycle`]). Each shard's graph is searched on its
//!   own; in an ensemble the graph is then searched again with seam edges
//!   included and only seam-crossing cycles are reported (purely local
//!   ones were already caught per shard).
//!
//! The three findings that only need the tile's own program and route
//! table are class properties (`check_local`); where a fanout lands and
//! whether the graph closes a loop depends on the neighbourhood and is
//! checked tile by tile (`check`).

use crate::classes::Finding;
use crate::dataflow::{neighbor, Model, Node};
use crate::program::TileFacts;
use crate::{Diagnostic, Rule};
use std::collections::BTreeSet;
use wse_arch::types::{Color, Port, NUM_COLORS};

/// The class half: deliveries nobody consumes, receives nothing feeds,
/// sends with no way out.
pub(crate) fn check_local(facts: &TileFacts<'_>, findings: &mut Vec<Finding>) {
    // A delivery is a property of the color, however many input ports feed
    // it: report it once, naming the first.
    let mut reported: BTreeSet<Color> = BTreeSet::new();
    for (in_port, color, fanout) in facts.tile.router.routes() {
        // Delivery: the core must have a receive descriptor for it.
        if fanout.contains(&Port::Ramp)
            && !facts.consumed.contains(&color)
            && reported.insert(color)
        {
            findings.push(Finding::error(
                Rule::DeadDelivery,
                format!(
                    "route ({in_port:?}, color {color}) delivers to the ramp but no \
                     task on this tile receives color {color}; the ramp-in queue \
                     will fill and stall the router"
                ),
            ));
        }
    }

    // A receive nothing feeds: some route on this tile must deliver the
    // color to the ramp.
    for &color in &facts.consumed {
        if !facts.delivered.contains(color) {
            findings.push(Finding::error(
                Rule::UnreachableReceive,
                format!(
                    "a task receives color {color} but no route on this tile delivers \
                     color {color} to the ramp; the receive can never complete"
                ),
            ));
        }
    }

    // A send with nowhere to go: injected flits enter the router at the
    // ramp input port.
    for &color in &facts.produced {
        if !facts.ramp_routed.contains(color) {
            findings.push(Finding::error(
                Rule::MissingRampRoute,
                format!(
                    "a task sends on color {color} but the router has no rule for \
                     (Ramp, color {color}); the injection queue will fill and the \
                     send thread never finishes"
                ),
            ));
        }
    }
}

/// The per-tile half: where every cardinal fanout lands, then the cycle
/// searches over the colors any route uses.
pub(crate) fn check(model: &Model<'_>, diags: &mut Vec<Diagnostic>) {
    let mut used = [false; NUM_COLORS];
    for (s, x, y, _) in model.tiles() {
        check_links(model, s, x, y, &mut used, diags);
    }
    for color in (0..NUM_COLORS as Color).filter(|&c| used[c as usize]) {
        check_cycles(model, color, false, diags);
        if !model.ens.seams.is_empty() {
            check_cycles(model, color, true, diags);
        }
    }
}

fn check_links(
    model: &Model<'_>,
    s: usize,
    x: usize,
    y: usize,
    used: &mut [bool; NUM_COLORS],
    diags: &mut Vec<Diagnostic>,
) {
    let fabric = model.ens.shards[s];
    let mut error = |rule, message| diags.push(model.ens.error(s, x, y, rule, message));
    // The same outgoing segment `(out, color)` may be fed by several input
    // ports; its fate is a property of the segment, so report it once, not
    // once per direction.
    let mut reported: BTreeSet<(usize, Color)> = BTreeSet::new();
    for (in_port, color, fanout) in fabric.tile(x, y).router.routes() {
        used[color as usize] = true;
        for &out in fanout.iter().filter(|&&o| o != Port::Ramp) {
            // Forwarding: the neighbor must exist and must do something
            // with what arrives. A boundary fanout is legal only through a
            // declared edge channel (`Fabric::open_edge`) — the host drains
            // it, so nothing on-wafer needs to.
            let Some((nx, ny)) = neighbor(fabric, x, y, out) else {
                if !fabric.edge_port_declared(x, y, out, color)
                    && reported.insert((out.index(), color))
                {
                    error(
                        Rule::RouteOffFabric,
                        format!(
                            "route ({in_port:?}, color {color}) forwards {out:?} off the \
                             {}x{} fabric edge with no declared edge port",
                            fabric.width(),
                            fabric.height()
                        ),
                    );
                }
                continue;
            };
            let arrives_at = out.opposite().expect("cardinal port");
            if fabric.tile(nx, ny).router.route(arrives_at, color).is_none()
                && reported.insert((out.index(), color))
            {
                error(
                    Rule::RouteDangling,
                    format!(
                        "route ({in_port:?}, color {color}) forwards {out:?} to tile \
                         ({nx}, {ny}) but that router has no rule for ({arrives_at:?}, \
                         color {color}); flits will pile up and backpressure the sender"
                    ),
                );
            }
        }
    }
}

/// Depth-first search for directed cycles in one color's forwarding graph.
/// Nodes are `(shard, tile, input port)`; an edge exists where a configured
/// route forwards out of a cardinal port into the neighbor's opposite port
/// — or, with `seams`, off a shard edge into the ingress of a paired seam
/// channel, in which case only cycles that cross a seam are reported.
fn check_cycles(model: &Model<'_>, color: Color, seams: bool, diags: &mut Vec<Diagnostic>) {
    let ens = model.ens;
    // 0 = unvisited, 1 = on the current path, 2 = done.
    let mut state = vec![0u8; model.num_nodes()];
    // The current path: (node, its successors' range in `arena`, next
    // successor, arrived through a seam).
    let mut stack: Vec<(Node, usize, usize, bool)> = Vec::new();
    let mut arena: Vec<(Node, Option<usize>)> = Vec::new();
    for (s, x, y, _) in model.tiles() {
        for port in Port::ALL {
            let start = (s, x, y, port);
            if state[model.node_id(start)] != 0 {
                continue;
            }
            state[model.node_id(start)] = 1;
            stack.push((start, arena.len(), arena.len(), false));
            model.successors(start, color, seams, &mut arena);
            while let Some(&(node, first, cursor, _)) = stack.last() {
                if cursor == arena.len() {
                    state[model.node_id(node)] = 2;
                    arena.truncate(first);
                    stack.pop();
                    continue;
                }
                let (next, seam) = arena[cursor];
                stack.last_mut().expect("non-empty path").2 += 1;
                let via_seam = seam.is_some();
                match state[model.node_id(next)] {
                    0 => {
                        state[model.node_id(next)] = 1;
                        stack.push((next, arena.len(), arena.len(), via_seam));
                        model.successors(next, color, seams, &mut arena);
                    }
                    1 => {
                        // Back edge: reconstruct the cycle from the stack.
                        let from = stack.iter().position(|e| e.0 == next).unwrap_or(0);
                        let crossed = via_seam || stack[from + 1..].iter().any(|e| e.3);
                        // With seam edges in the graph, purely local cycles
                        // are the per-shard search's to report.
                        if !seams || crossed {
                            let path: Vec<String> = stack[from..]
                                .iter()
                                .map(|&((s, x, y, p), ..)| match seams {
                                    true => format!("{}:{p:?}", ens.label(s, x, y)),
                                    false => format!("({x},{y}):{p:?}"),
                                })
                                .collect();
                            let (ns, nx, ny, _) = next;
                            diags.push(ens.error(
                                ns,
                                nx,
                                ny,
                                Rule::RouteCycle,
                                format!(
                                    "color {color} forwarding graph has a cycle{} [{}]; with \
                                     credit backpressure a filled cycle can never drain",
                                    if seams { " through seam channels" } else { "" },
                                    path.join(" -> ")
                                ),
                            ));
                        }
                        // One report per cycle entry point is enough.
                        state[model.node_id(next)] = 2;
                    }
                    _ => {}
                }
            }
        }
    }
}
