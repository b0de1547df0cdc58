//! Progress / termination analysis: every armed consumer must be able to
//! quiesce.
//!
//! [`crate::rules::routes`] already rejects a receive no *local* route can
//! feed. This pass closes the global half of that argument over the
//! whole-fabric `crate::dataflow::Model`:
//!
//! * **Starved colors** ([`crate::Rule::ColorStarved`]) — a tile consumes a
//!   color and its router would deliver it to the ramp, but no producer
//!   anywhere in the ensemble (no sending task's ramp, no external edge
//!   injection point) has a route flow reaching this tile. The consumer
//!   arms, waits, and never fires; a watchdog reports the stall only after
//!   its whole cycle budget burns.
//! * **Credit starvation** ([`crate::Rule::CreditStarvation`]) — traffic
//!   reaches a seam channel whose ingress tile has no forwarding rule for
//!   the arriving `(port, color)`. The host link delivers the first flits,
//!   the ingress router queue fills, seam credits stop returning, and the
//!   egress wafer wedges. Ensemble-only: a single fabric has no seams.
//!
//! Both diagnostics carry the witness the operator needs: the consumer or
//! seam endpoint, the producers that were considered, and why the flow
//! never arrives.

use crate::dataflow::{Flow, Model};
use crate::{Diagnostic, Rule};
use std::collections::{BTreeMap, BTreeSet};
use wse_arch::types::Color;

/// Runs the progress pass over the whole ensemble.
pub(crate) fn check(model: &Model<'_>, diags: &mut Vec<Diagnostic>) {
    let mut flows = Flows::new();
    check_starved_colors(model, &mut flows, diags);
    if !model.ens.seams.is_empty() {
        check_seam_credits(model, &mut flows, diags);
    }
}

/// The flow of each color from all of its injection points, with the
/// number of injection points considered; filled on first use.
type Flows = BTreeMap<Color, (Flow, usize)>;

fn flow_of<'f>(model: &Model<'_>, flows: &'f mut Flows, color: Color) -> &'f (Flow, usize) {
    flows.entry(color).or_insert_with(|| {
        let sources = model.sources(color);
        (model.flow(color, &sources), sources.len())
    })
}

/// Every consumer — a tile class's data-trigger bindings and receive sites
/// of reachable tasks, where a local route actually delivers the color to
/// the ramp (otherwise [`crate::Rule::UnreachableReceive`] already reported
/// the tile) — must be reached by some producer's flow.
fn check_starved_colors(model: &Model<'_>, flows: &mut Flows, diags: &mut Vec<Diagnostic>) {
    for (s, x, y, class) in model.tiles() {
        for &color in &class.consumers {
            let (flow, n_sources) = flow_of(model, flows, color);
            if flow.delivered.contains_key(&(s, x, y)) {
                continue;
            }
            let why = if *n_sources == 0 {
                "nothing in the ensemble produces it (no sending task, no external \
                 edge injection point)"
                    .to_string()
            } else {
                format!(
                    "none of the {n_sources} producer injection point(s) has a route \
                     flow reaching this tile"
                )
            };
            diags.push(model.ens.error(
                s,
                x,
                y,
                Rule::ColorStarved,
                format!(
                    "{} consumes color {color} and routes it to the ramp, but {why}; \
                     the consumer arms and waits forever",
                    model.ens.label(s, x, y),
                ),
            ));
        }
    }
}

/// Every seam channel that traffic can reach must have a forwarding rule at
/// its ingress `(tile, port, color)` — otherwise the ingress queue fills,
/// credits stop returning across the seam, and the egress wafer wedges.
fn check_seam_credits(model: &Model<'_>, flows: &mut Flows, diags: &mut Vec<Diagnostic>) {
    let mut reached: BTreeSet<usize> = BTreeSet::new();
    let colors: BTreeSet<Color> = model.ens.seams.iter().map(|e| e.color).collect();
    for color in colors {
        reached.extend(flow_of(model, flows, color).0.seams_reached.iter().copied());
    }
    for &i in &reached {
        let seam = &model.ens.seams[i];
        let dst = model.ens.shards[seam.dst_shard].tile(seam.dx, seam.dy);
        if dst.router.route(seam.dport, seam.color).is_some() {
            continue;
        }
        diags.push(model.ens.error(
            seam.src_shard,
            seam.sx,
            seam.sy,
            Rule::CreditStarvation,
            format!(
                "seam channel color {} from {} ({:?}) to {} ({:?}) carries traffic, \
                 but the ingress router has no rule for ({:?}, color {}); the ingress \
                 queue fills, seam credits stop returning, and the sending wafer \
                 wedges",
                seam.color,
                model.ens.label(seam.src_shard, seam.sx, seam.sy),
                seam.sport,
                model.ens.label(seam.dst_shard, seam.dx, seam.dy),
                seam.dport,
                seam.dport,
                seam.color,
            ),
        ));
    }
}
