//! A read-only model of one tile's program, built once and shared by every
//! rule.
//!
//! The rules reason about *instruction sites*: every `Exec` or `Launch`
//! statement in every task body, with each DSR operand resolved to the
//! descriptor it will hold when the statement runs. Resolution tracks
//! `InitDsr` statements linearly through each body (the re-arm idiom at the
//! top of Listing 1's `spmv` task); a DSR not re-armed in the body keeps
//! the descriptor it was registered with.
//!
//! [`TileFacts`] is everything the tile-local rules derive from one tile
//! and then keep re-reading: the resolved sites with their SRAM access
//! sets, the local activation graph (forward adjacency plus per-task
//! in-degree), the activation-reachable task set, and the colors the
//! program consumes, produces and the router delivers. It reads only what
//! [`crate::classes`] puts in the class key, so one `TileFacts` stands for
//! every tile of its class.

use crate::LintStats;
use std::collections::BTreeSet;
use std::ops::Range;
use wse_arch::core::Core;
use wse_arch::dsr::Descriptor;
use wse_arch::fabric::Tile;
use wse_arch::instr::{Stmt, TaskAction, TensorInstr};
use wse_arch::types::{Color, DsrId, Port, TaskId, NUM_COLORS};

/// One strided SRAM access: `len` elements of `elem` bytes, `period`
/// bytes apart, starting at `start`. `end` is the exclusive byte bound.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct Access {
    pub start: u32,
    pub end: u32,
    pub period: u32,
    pub elem: u32,
    /// The access is the destination of a read-modify-write accumulation
    /// (`AddAssign`, `Axpy`, `FmaAssign` — all `u += ...`). The datapath
    /// issues one context per cycle, so each element update is atomic, and
    /// addition commutes: two concurrent accumulations into the same
    /// elements produce the sum in some order, not a torn value.
    pub accum: bool,
}

impl Access {
    /// SRAM bytes a descriptor touches. FIFO and fabric descriptors return
    /// `None`: fabric traffic never touches SRAM, and FIFO push/pop is
    /// hardware-serialized (the sanctioned cross-thread handoff).
    pub fn of(desc: &Descriptor) -> Option<Access> {
        match *desc {
            Descriptor::Mem { addr, len, stride, dtype, .. } if len > 0 => Some(Access {
                start: addr,
                end: addr + ((len - 1) * stride + 1) * dtype.bytes(),
                period: stride.max(1) * dtype.bytes(),
                elem: dtype.bytes(),
                accum: false,
            }),
            _ => None,
        }
    }

    /// Whether the byte extents intersect (ignoring strides).
    pub fn extent_overlaps(self, other: Access) -> bool {
        self.start < other.end && other.start < self.end
    }
}

/// An `Exec` or `Launch` statement with resolved operands.
#[derive(Clone, Debug)]
pub(crate) struct InstrSite {
    /// The task whose body contains the statement.
    pub task: TaskId,
    /// The task's debug name.
    pub task_name: &'static str,
    /// Statement index within the body.
    pub stmt: usize,
    /// `true` for `Launch` (background thread), `false` for `Exec`.
    pub background: bool,
    /// The instruction itself.
    pub instr: TensorInstr,
    /// The descriptor the destination DSR holds when the statement runs.
    pub dst: Option<Descriptor>,
    /// Likewise for the first source operand.
    pub a: Option<Descriptor>,
    /// Likewise for the second source operand.
    pub b: Option<Descriptor>,
    /// Completion trigger, for `Launch` sites.
    pub on_complete: Option<(TaskId, TaskAction)>,
    /// SRAM extents the site reads: the sources, then a read-modify-write
    /// destination (`AddAssign`, `FmaAssign`, ...).
    pub reads: Vec<Access>,
    /// The SRAM extent the site writes.
    pub write: Option<Access>,
}

impl InstrSite {
    fn resolve(
        task: TaskId,
        task_name: &'static str,
        stmt: usize,
        instr: &TensorInstr,
        background: bool,
        on_complete: Option<(TaskId, TaskAction)>,
        effective: &[Descriptor],
    ) -> InstrSite {
        let operand = |id: Option<DsrId>| id.map(|dsr| effective[dsr as usize]);
        let (dst, a, b) = (operand(instr.dst), operand(instr.a), operand(instr.b));
        let extent = |op: Option<Descriptor>| op.as_ref().and_then(Access::of);
        let write = extent(dst).map(|e| Access { accum: instr.op.reads_dst(), ..e });
        InstrSite {
            task,
            task_name,
            stmt,
            background,
            instr: *instr,
            dst,
            a,
            b,
            on_complete,
            reads: [extent(a), extent(b), write.filter(|w| w.accum)]
                .into_iter()
                .flatten()
                .collect(),
            write,
        }
    }

    /// The resolved operands present on this site, destination first.
    pub fn operands(&self) -> impl Iterator<Item = Descriptor> {
        [self.dst, self.a, self.b].into_iter().flatten()
    }

    /// Source operands only.
    pub fn sources(&self) -> impl Iterator<Item = Descriptor> {
        [self.a, self.b].into_iter().flatten()
    }

    /// `(color, len)` of a non-empty `FabricIn` source, if the site receives.
    /// Zero-length receives complete without consuming a flit.
    pub fn recv(&self) -> Option<(Color, u32)> {
        self.sources().find_map(|desc| match desc {
            Descriptor::FabricIn { color, len, .. } if len > 0 => Some((color, len)),
            _ => None,
        })
    }

    /// `(color, len)` of a non-empty `FabricOut` destination, if the site
    /// sends.
    pub fn send(&self) -> Option<(Color, u32)> {
        match self.dst {
            Some(Descriptor::FabricOut { color, len, .. }) if len > 0 => Some((color, len)),
            _ => None,
        }
    }
}

/// A set of hardware colors. Identifiers outside the hardware's
/// [`NUM_COLORS`] are never members: no route can carry them.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct ColorSet(u32);

impl ColorSet {
    pub fn insert(&mut self, color: Color) {
        if (color as usize) < NUM_COLORS {
            self.0 |= 1 << color;
        }
    }

    pub fn contains(self, color: Color) -> bool {
        (color as usize) < NUM_COLORS && self.0 >> color & 1 == 1
    }

    /// Members in ascending order.
    pub fn iter(self) -> impl Iterator<Item = Color> {
        (0..NUM_COLORS as Color).filter(move |&c| self.contains(c))
    }
}

/// How one task activates another.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Via {
    /// A `TaskCtl { action: Activate }` statement.
    Ctl,
    /// The completion trigger of the `Launch` at this index of
    /// [`TileFacts::sites`].
    Complete(usize),
    /// A push into a FIFO whose `onpush` names the target.
    Push,
    /// A send on a color the tile's own router loops `Ramp -> Ramp`, where a
    /// data trigger binds the target. Only the race pass follows these: the
    /// reachability seeds already cover every deliverable binding.
    Loop,
}

/// One edge of the local activation graph.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Activation {
    pub to: TaskId,
    pub via: Via,
}

/// Everything the tile-local rules need to know about one tile's program.
pub(crate) struct TileFacts<'a> {
    /// The tile the facts were read from.
    pub tile: &'a Tile,
    /// Every instruction site of every task, in task then statement order.
    pub sites: Vec<InstrSite>,
    /// Forward activation adjacency by source task. Edges naming a task the
    /// core does not have are dropped: nothing can ever ask about them.
    pub activates: Vec<Vec<Activation>>,
    /// Per task: how many non-[`Via::Loop`] edges from *reachable* tasks
    /// activate it (the reverse adjacency, as the count the ordering
    /// argument needs).
    pub activation_sources: Vec<u32>,
    /// The activation-reachability fixpoint: tasks that can ever run, seeded
    /// from already-activated tasks, declared entry points, and data
    /// triggers whose color some local route delivers to the ramp; grown
    /// through `TaskCtl` activations, thread-completion triggers, and FIFO
    /// `onpush` targets of reachable code.
    pub reachable: Vec<bool>,
    /// Every `FabricIn` color an instruction site actually reads through
    /// (non-empty receives only).
    pub consumed: BTreeSet<Color>,
    /// Every `FabricOut` color an instruction site writes through.
    pub produced: BTreeSet<Color>,
    /// Colors some local route (from any port) delivers to the ramp.
    pub delivered: ColorSet,
    /// Colors with a route out of the ramp input port.
    pub ramp_routed: ColorSet,
    /// Colors the local router loops straight from the ramp back to it.
    pub looped: ColorSet,
}

impl<'a> TileFacts<'a> {
    /// Resolves the sites, builds the activation graph and runs the
    /// reachability fixpoint — each exactly once.
    pub fn build(tile: &'a Tile, stats: &mut LintStats) -> TileFacts<'a> {
        let core = &tile.core;
        stats.site_resolutions += 1;
        let (sites, task_sites) = resolve_sites(core);

        let [mut delivered, mut ramp_routed, mut looped] = [ColorSet::default(); 3];
        for (port, color, fanout) in tile.router.routes() {
            if port == Port::Ramp {
                ramp_routed.insert(color);
            }
            if fanout.contains(&Port::Ramp) {
                delivered.insert(color);
                if port == Port::Ramp {
                    looped.insert(color);
                }
            }
        }

        let (mut consumed, mut produced) = (BTreeSet::new(), BTreeSet::new());
        for desc in sites.iter().flat_map(InstrSite::operands) {
            match desc {
                Descriptor::FabricIn { color, len, .. } if len > 0 => {
                    consumed.insert(color);
                }
                Descriptor::FabricOut { color, .. } => {
                    produced.insert(color);
                }
                _ => {}
            }
        }

        stats.graph_builds += 1;
        let activates = activation_graph(core, &sites, &task_sites, looped);
        let reachable = reachable_tasks(core, &activates, delivered);

        let mut activation_sources = vec![0u32; core.image().tasks.len()];
        for (id, edges) in activates.iter().enumerate() {
            if reachable[id] {
                for e in edges.iter().filter(|e| e.via != Via::Loop) {
                    activation_sources[e.to as usize] += 1;
                }
            }
        }

        TileFacts {
            tile,
            sites,
            activates,
            activation_sources,
            reachable,
            consumed,
            produced,
            delivered,
            ramp_routed,
            looped,
        }
    }

    /// The sites of reachable tasks, with their index into [`Self::sites`].
    pub fn reachable_sites(&self) -> impl Iterator<Item = (usize, &InstrSite)> {
        self.sites.iter().enumerate().filter(|(_, s)| self.reachable[s.task as usize])
    }

    /// Every descriptor some instruction can actually use: the resolved
    /// operands of every instruction site. A DSR that is registered (or
    /// re-armed) but never named by an `Exec`/`Launch` operand is inert —
    /// builders commonly pre-register descriptors for neighbors that turn
    /// out to be absent — so it contributes nothing here.
    pub fn descriptors(&self) -> impl Iterator<Item = Descriptor> + '_ {
        self.sites.iter().flat_map(InstrSite::operands)
    }
}

/// The forward activation adjacency of `core`, by source task.
fn activation_graph(
    core: &Core,
    sites: &[InstrSite],
    task_sites: &[Range<usize>],
    looped: ColorSet,
) -> Vec<Vec<Activation>> {
    let n = core.image().tasks.len();
    let mut activates: Vec<Vec<Activation>> = vec![Vec::new(); n];
    for (id, task) in core.tasks() {
        let out = &mut activates[id as usize];
        let mut edge = |to: TaskId, via: Via| {
            if (to as usize) < n {
                out.push(Activation { to, via });
            }
        };
        for stmt in &task.body {
            if let Stmt::TaskCtl { task: t, action: TaskAction::Activate } = stmt {
                edge(*t, Via::Ctl);
            }
        }
        for i in task_sites[id as usize].clone() {
            let site = &sites[i];
            if let Some((t, TaskAction::Activate)) = site.on_complete {
                edge(t, Via::Complete(i));
            }
            match site.dst {
                Some(Descriptor::Fifo { fifo }) => {
                    if let Some(t) = core.fifo(fifo).onpush {
                        edge(t, Via::Push);
                    }
                }
                Some(Descriptor::FabricOut { color, len, .. })
                    if len > 0 && looped.contains(color) =>
                {
                    for b in core.image().bindings.iter().filter(|b| b.color == color) {
                        edge(b.task, Via::Loop);
                    }
                }
                _ => {}
            }
        }
    }
    activates
}

/// The activation-reachability fixpoint, as a worklist over `activates`.
fn reachable_tasks(core: &Core, activates: &[Vec<Activation>], delivered: ColorSet) -> Vec<bool> {
    let mut reachable = vec![false; activates.len()];
    let mut work: Vec<TaskId> = Vec::new();
    let mut reach = |id: TaskId, work: &mut Vec<TaskId>| {
        if (id as usize) < reachable.len() && !reachable[id as usize] {
            reachable[id as usize] = true;
            work.push(id);
        }
    };
    for (id, task) in core.tasks() {
        if task.start_activated || core.task_activated(id) {
            reach(id, &mut work);
        }
    }
    for &id in &core.image().entries {
        reach(id, &mut work);
    }
    for b in &core.image().bindings {
        if delivered.contains(b.color) {
            reach(b.task, &mut work);
        }
    }
    while let Some(id) = work.pop() {
        for e in activates[id as usize].iter().filter(|e| e.via != Via::Loop) {
            reach(e.to, &mut work);
        }
    }
    reachable
}

/// Every instruction site of every task on `core`, in task order then
/// statement order, and each task's range of them.
fn resolve_sites(core: &Core) -> (Vec<InstrSite>, Vec<Range<usize>>) {
    let registered: Vec<Descriptor> = core.dsrs().map(|(_, d)| d.desc).collect();
    // Effective descriptor per DSR, updated by InitDsr as we walk.
    let mut effective = registered.clone();
    let mut sites = Vec::new();
    let mut task_sites = Vec::with_capacity(core.image().tasks.len());
    for (task_id, task) in core.tasks() {
        effective.copy_from_slice(&registered);
        let first = sites.len();
        for (stmt_idx, stmt) in task.body.iter().enumerate() {
            match stmt {
                Stmt::InitDsr { dsr, desc } => effective[*dsr as usize] = *desc,
                Stmt::Exec(instr) => sites.push(InstrSite::resolve(
                    task_id, task.name, stmt_idx, instr, false, None, &effective,
                )),
                Stmt::Launch { instr, on_complete, .. } => sites.push(InstrSite::resolve(
                    task_id,
                    task.name,
                    stmt_idx,
                    instr,
                    true,
                    *on_complete,
                    &effective,
                )),
                Stmt::TaskCtl { .. } | Stmt::RegArith { .. } | Stmt::SetReg { .. } => {}
            }
        }
        task_sites.push(first..sites.len());
    }
    (sites, task_sites)
}
