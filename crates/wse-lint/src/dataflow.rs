//! Whole-fabric dataflow model shared by the global verification passes.
//!
//! [`crate::rules::routes`] reasons per tile and per color; the passes
//! built on this module ([`crate::rules::deadlock`],
//! [`crate::rules::races`], [`crate::rules::progress`]) reason about the
//! *whole* program: which producer can feed which consumer (following
//! routes across seam channels in a multi-wafer ensemble), in what order
//! each task's synchronous waits retire, and how much queue buffering a
//! transfer can hide in before its sender blocks.
//!
//! The model is built once per lint run from read-only fabric state and
//! shared by every pass. Building it is where tiles are interned into
//! classes (`classes.rs`): each class's program facts are derived and
//! its tile-local rules run exactly once, and the model keeps per tile only
//! a class index and the offset of its wait sites. Everything here is
//! deterministic: tiles are visited row-major, sites in
//! task-then-statement order, and breadth-first searches expand in fixed
//! port order.

use crate::classes::{self, Class};
use crate::{Diagnostic, LintStats, Pass, Rule, Severity};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::time::Instant;
use wse_arch::fabric::{Fabric, Tile};
use wse_arch::types::{Color, Port, TaskId, NUM_COLORS, QUEUE_CAPACITY, RAMP_OUT_CAPACITY};

/// One paired seam channel between two shards of a multi-wafer ensemble:
/// flits leaving `src_shard` through the declared edge port
/// `(sx, sy, sport)` arrive at `dst_shard`'s router input port
/// `(dx, dy, dport)` on the same color.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SeamEdge {
    /// Egress shard index.
    pub src_shard: usize,
    /// Egress tile x (shard-local).
    pub sx: usize,
    /// Egress tile y.
    pub sy: usize,
    /// Egress boundary port.
    pub sport: Port,
    /// Ingress shard index.
    pub dst_shard: usize,
    /// Ingress tile x (shard-local).
    pub dx: usize,
    /// Ingress tile y.
    pub dy: usize,
    /// Ingress boundary port.
    pub dport: Port,
    /// The fabric color the channel carries.
    pub color: Color,
}

/// The unit the global passes analyze: a single fabric, or `k` shards plus
/// the seam channels that stitch them into one logical mesh.
pub struct Ensemble<'a> {
    /// The shards (exactly one for a single fabric).
    pub shards: Vec<&'a Fabric>,
    /// Global x offset of each shard's first tile column (diagnostic
    /// coordinates; all zero is fine when shards don't tile a global mesh).
    pub offsets: Vec<usize>,
    /// Paired seam channels between shards.
    pub seams: Vec<SeamEdge>,
}

impl<'a> Ensemble<'a> {
    /// Wraps one fabric as a trivial ensemble.
    pub fn single(fabric: &'a Fabric) -> Ensemble<'a> {
        Ensemble { shards: vec![fabric], offsets: vec![0], seams: Vec::new() }
    }

    /// Globalized diagnostic coordinates for a shard-local tile.
    pub fn global_tile(&self, shard: usize, x: usize, y: usize) -> (usize, usize) {
        (self.offsets[shard] + x, y)
    }

    /// An error-severity diagnostic at a shard-local tile.
    pub(crate) fn error(
        &self,
        shard: usize,
        x: usize,
        y: usize,
        rule: Rule,
        message: String,
    ) -> Diagnostic {
        Diagnostic { tile: self.global_tile(shard, x, y), severity: Severity::Error, rule, message }
    }

    /// Human-readable tile label: `"tile (x, y)"`, prefixed with the wafer
    /// index when the ensemble has more than one shard.
    pub fn label(&self, shard: usize, x: usize, y: usize) -> String {
        if self.shards.len() > 1 {
            format!("wafer {shard} tile ({x}, {y})")
        } else {
            format!("tile ({x}, {y})")
        }
    }
}

/// A statement that can block the main thread (or gate later statements):
/// a fabric receive or send, resolved from the instruction sites of a
/// reachable task.
#[derive(Copy, Clone, Debug)]
pub(crate) struct WaitSite {
    /// Shard index.
    pub shard: usize,
    /// Tile x (shard-local).
    pub x: usize,
    /// Tile y.
    pub y: usize,
    /// The task whose body contains the site.
    pub task: TaskId,
    /// The task's debug name.
    pub task_name: &'static str,
    /// Statement index within the body.
    pub stmt: usize,
    /// `true` for `Launch` sites (background thread; does not block the
    /// main thread, but is only *issued* once earlier synchronous waits
    /// complete).
    pub background: bool,
    /// `(color, len)` of a `FabricIn` source, if the site receives.
    pub recv: Option<(Color, u32)>,
    /// `(color, len)` of a `FabricOut` destination, if the site sends.
    pub send: Option<(Color, u32)>,
}

impl WaitSite {
    /// Witness fragment: what this site does and where.
    pub fn describe(&self, ens: &Ensemble<'_>) -> String {
        let what = match (self.recv, self.send) {
            (Some((rc, rl)), Some((sc, sl))) => {
                format!("recv color {rc} (len {rl}) -> send color {sc} (len {sl})")
            }
            (Some((rc, rl)), None) => format!("recv color {rc} (len {rl})"),
            (None, Some((sc, sl))) => format!("send color {sc} (len {sl})"),
            (None, None) => "wait".to_string(),
        };
        format!(
            "{} task {} (\"{}\") stmt {}{}: {what}",
            ens.label(self.shard, self.x, self.y),
            self.task,
            self.task_name,
            self.stmt,
            if self.background { " (thread)" } else { "" },
        )
    }
}

/// Where a color's flits are delivered when injected at an origin router
/// node, with the buffering available along the way.
#[derive(Clone, Debug, Default)]
pub(crate) struct Flow {
    /// Delivered ramps: `(shard, x, y)` → `(router nodes on the shortest
    /// path, crossed a seam)`. Host-buffered seam crossings make the
    /// effective buffering unbounded for backpressure purposes.
    pub delivered: BTreeMap<(usize, usize, usize), (usize, bool)>,
    /// Seam indices whose egress port the flow reaches.
    pub seams_reached: BTreeSet<usize>,
}

/// Conservative flit capacity between a sender and a receiver `dist`
/// router nodes away: the sender's ramp-out queue, one router queue per
/// node on the path, and the receiver's ramp-in queue. A synchronous send
/// longer than this cannot complete until the receiver drains.
pub(crate) fn path_capacity(dist: usize) -> u32 {
    (RAMP_OUT_CAPACITY + (dist + 1) * QUEUE_CAPACITY) as u32
}

/// A router input node: `(shard, x, y, input port)`.
pub(crate) type Node = (usize, usize, usize, Port);

/// The on-shard tile the cardinal port `out` of `(x, y)` faces, if any.
pub(crate) fn neighbor(fabric: &Fabric, x: usize, y: usize, out: Port) -> Option<(usize, usize)> {
    let (dx, dy) = out.delta();
    let nx = x as i64 + dx as i64;
    let ny = y as i64 + dy as i64;
    if nx < 0 || ny < 0 || nx >= fabric.width() as i64 || ny >= fabric.height() as i64 {
        None
    } else {
        Some((nx as usize, ny as usize))
    }
}

/// The whole-ensemble model: the tile classes, each tile's class and wait
/// sites, and route-flow queries.
pub(crate) struct Model<'a> {
    /// The ensemble under analysis.
    pub ens: &'a Ensemble<'a>,
    /// The tile classes, in order of first appearance.
    pub classes: Vec<Class>,
    /// Wait sites of reachable tasks, in shard/tile/task/statement order.
    pub waits: Vec<WaitSite>,
    /// Per shard: the node id of its first tile's first port.
    node_base: Vec<usize>,
    /// Per tile (indexed by node id / 5): its class, and the index of its
    /// first wait site in `waits`.
    tile_class: Vec<usize>,
    tile_waits: Vec<usize>,
    /// Seam indices by egress `(node id, color)`.
    seam_egress: BTreeMap<(usize, Color), Vec<usize>>,
    /// Node ids of every seam endpoint, either direction.
    seam_ports: BTreeSet<usize>,
    flow_queries: Cell<usize>,
}

impl<'a> Model<'a> {
    /// Builds the model: interns every tile into its class — found by
    /// `digest(tile index, tile)`, confirmed by structural equality — and
    /// analyzes each new class once. Read-only; no cycle is stepped.
    pub fn build(
        ens: &'a Ensemble<'a>,
        digest: &dyn Fn(usize, &Tile) -> u64,
        stats: &mut LintStats,
    ) -> Model<'a> {
        let mut clock = Instant::now();
        let mut node_base = Vec::with_capacity(ens.shards.len());
        let mut tiles = 0usize;
        for f in &ens.shards {
            node_base.push(tiles * 5);
            tiles += f.width() * f.height();
        }
        let mut model = Model {
            ens,
            classes: Vec::new(),
            waits: Vec::new(),
            node_base,
            tile_class: Vec::with_capacity(tiles),
            tile_waits: Vec::with_capacity(tiles),
            seam_egress: BTreeMap::new(),
            seam_ports: BTreeSet::new(),
            flow_queries: Cell::new(0),
        };
        for (i, e) in ens.seams.iter().enumerate() {
            let egress = model.node_id((e.src_shard, e.sx, e.sy, e.sport));
            model.seam_egress.entry((egress, e.color)).or_default().push(i);
            model.seam_ports.insert(egress);
            model.seam_ports.insert(model.node_id((e.dst_shard, e.dx, e.dy, e.dport)));
        }

        // Class representatives, and class ids by digest.
        let mut reps: Vec<&Tile> = Vec::new();
        let mut by_digest: HashMap<u64, Vec<usize>> = HashMap::new();
        for (s, fabric) in ens.shards.iter().enumerate() {
            for y in 0..fabric.height() {
                for x in 0..fabric.width() {
                    let tile = fabric.tile(x, y);
                    let candidates =
                        by_digest.entry(digest(model.tile_class.len(), tile)).or_default();
                    let class =
                        match candidates.iter().find(|&&c| classes::same_class(reps[c], tile)) {
                            Some(&c) => c,
                            None => {
                                stats.lap(Pass::Model, &mut clock);
                                model.classes.push(Class::analyze(tile, stats));
                                clock = Instant::now();
                                reps.push(tile);
                                candidates.push(reps.len() - 1);
                                reps.len() - 1
                            }
                        };
                    model.tile_class.push(class);
                    model.tile_waits.push(model.waits.len());
                    model.waits.extend(model.classes[class].waits.iter().map(|w| WaitSite {
                        shard: s,
                        x,
                        y,
                        ..*w
                    }));
                }
            }
        }
        stats.tiles = tiles;
        stats.classes = model.classes.len();
        stats.wait_sites = model.waits.len();
        stats.lap(Pass::Model, &mut clock);
        model
    }

    /// Flow queries answered so far.
    pub fn flow_queries(&self) -> usize {
        self.flow_queries.get()
    }

    /// Dense id of a router input node.
    pub fn node_id(&self, (s, x, y, port): Node) -> usize {
        self.node_base[s] + (y * self.ens.shards[s].width() + x) * 5 + port.index()
    }

    /// Number of router input nodes in the ensemble.
    pub fn num_nodes(&self) -> usize {
        self.tile_class.len() * 5
    }

    /// Every tile with its class, shard-major then row-major.
    pub fn tiles(&self) -> impl Iterator<Item = (usize, usize, usize, &Class)> {
        let coords = self.ens.shards.iter().enumerate().flat_map(|(s, f)| {
            let w = f.width();
            (0..w * f.height()).map(move |i| (s, i % w, i / w))
        });
        coords.zip(&self.tile_class).map(|((s, x, y), &c)| (s, x, y, &self.classes[c]))
    }

    /// The class of a tile and the index of its first wait site.
    pub fn tile(&self, shard: usize, x: usize, y: usize) -> (&Class, usize) {
        let t = self.node_id((shard, x, y, Port::North)) / 5;
        (&self.classes[self.tile_class[t]], self.tile_waits[t])
    }

    /// Stamps every class's tile-local findings with its members'
    /// coordinates.
    pub fn local_findings(&self, diags: &mut Vec<Diagnostic>) {
        for (s, x, y, class) in self.tiles() {
            diags.extend(class.findings.iter().map(|f| Diagnostic {
                tile: self.ens.global_tile(s, x, y),
                severity: f.severity,
                rule: f.rule,
                message: f.message.clone(),
            }));
        }
    }

    /// The configured fanout of a router input node. Colors outside the
    /// hardware's range have none.
    fn route(&self, (s, x, y, port): Node, color: Color) -> Option<&'a [Port]> {
        if color as usize >= NUM_COLORS {
            return None;
        }
        self.ens.shards[s].tile(x, y).router.route(port, color)
    }

    /// Appends the router input nodes that `color` flits forwarded from
    /// `node` arrive at, in fanout order: the on-shard neighbor of each
    /// cardinal output or — with `seams`, off the shard edge — the ingress
    /// of every paired seam channel (tagged with the seam index). The one
    /// successor function every route-graph walk shares.
    pub fn successors(
        &self,
        node: Node,
        color: Color,
        seams: bool,
        out: &mut Vec<(Node, Option<usize>)>,
    ) {
        let (s, x, y, _) = node;
        for &port in self.route(node, color).unwrap_or(&[]) {
            if port == Port::Ramp {
                continue;
            }
            if let Some((nx, ny)) = neighbor(self.ens.shards[s], x, y, port) {
                out.push(((s, nx, ny, port.opposite().expect("cardinal port")), None));
            } else if seams {
                let egress = (self.node_id((s, x, y, port)), color);
                for &i in self.seam_egress.get(&egress).map_or(&[][..], |v| v) {
                    let e = &self.ens.seams[i];
                    out.push(((e.dst_shard, e.dx, e.dy, e.dport), Some(i)));
                }
            }
        }
    }

    /// Flow of `color` injected at the ramp of `(shard, x, y)`: every ramp
    /// it is delivered to, following routes and crossing paired seams.
    pub fn flow_from_ramp(&self, shard: usize, x: usize, y: usize, color: Color) -> Flow {
        self.flow(color, &[(shard, x, y, Port::Ramp)])
    }

    /// Flow of `color` from a set of origin router nodes. Breadth-first
    /// over the per-color forwarding graph; seam egress ports continue at
    /// the paired ingress.
    pub fn flow(&self, color: Color, origins: &[Node]) -> Flow {
        self.flow_queries.set(self.flow_queries.get() + 1);
        let mut flow = Flow::default();
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut queue: VecDeque<(Node, usize, bool)> = VecDeque::new();
        for &node in origins {
            if seen.insert(self.node_id(node)) {
                queue.push_back((node, 1, false));
            }
        }
        let mut next = Vec::new();
        while let Some((node, dist, seamed)) = queue.pop_front() {
            let (s, x, y, _) = node;
            if self.route(node, color).is_some_and(|f| f.contains(&Port::Ramp)) {
                let e = flow.delivered.entry((s, x, y)).or_insert((dist, seamed));
                // Keep the shortest path; a seam on *any* delivering
                // path means host buffering can absorb the transfer.
                e.1 |= seamed;
            }
            self.successors(node, color, true, &mut next);
            for (to, seam) in next.drain(..) {
                flow.seams_reached.extend(seam);
                if seen.insert(self.node_id(to)) {
                    queue.push_back((to, dist + 1, seamed || seam.is_some()));
                }
            }
        }
        flow
    }

    /// All origin router nodes that can introduce `color` flits into the
    /// ensemble: the ramp of every tile whose reachable program sends on
    /// it, plus declared edge ports that are *not* seam-internal (external
    /// host injection points).
    pub fn sources(&self, color: Color) -> Vec<Node> {
        let mut origins: Vec<Node> = self
            .tiles()
            .filter(|(.., class)| class.sends.contains(color))
            .map(|(s, x, y, _)| (s, x, y, Port::Ramp))
            .collect();
        for (s, fabric) in self.ens.shards.iter().enumerate() {
            for (x, y, port, c) in fabric.edge_ports() {
                if c == color && !self.seam_ports.contains(&self.node_id((s, x, y, port))) {
                    origins.push((s, x, y, port));
                }
            }
        }
        origins
    }
}
