//! Byte-identity pins for `wse-lint` diagnostics.
//!
//! `tests/lint_pins.expected.txt` was generated by the linter of the commit
//! *before* the per-tile rules were interned by tile class and must never
//! be edited to make a linter change pass. Two halves:
//!
//! * the eight `scripts/expected_lints/` fixtures, linted (or, for the two
//!   DSL rejections, lowered) through the library and rendered the way the
//!   `wse-lint` binary prints them — the same files `scripts/verify.sh`
//!   diffs against the binary;
//! * a seeded single-tile mutation corpus over clean programs: one tile of
//!   a lowered operator or a built solver gets one defect (a dropped
//!   route, a swapped color, a descriptor shifted into its neighbour
//!   buffer, a removed completion trigger, a removed data trigger) and the
//!   whole diagnostic list is pinned.
//!
//! `UPDATE_LINT_PINS=1 cargo test --test lint_pins` rewrites the corpus
//! file; only a change that *means* to move diagnostics may commit that.

use std::fmt::Write as _;
use std::path::PathBuf;
use stencil::decomp::Block2D;
use stencil::dia::DiaMatrix;
use stencil::mesh::Mesh3D;
use stencil::precond::jacobi_scale;
use stencil::problem::manufactured;
use stencil::stencil9::convection_diffusion9;
use wse_arch::dsr::{mk, Descriptor};
use wse_arch::fabric::Tile;
use wse_arch::fifo::Fifo;
use wse_arch::instr::{Op, Stmt, Task, TaskAction, TensorInstr};
use wse_arch::router::Router;
use wse_arch::types::{Dtype, Port, NUM_COLORS};
use wse_arch::{Core, Fabric, SplitMix64};
use wse_core::bicgstab2d::WaferBicgstab2d;
use wse_core::{WaferBicgstab, WaferBicgstabMulti};
use wse_float::F16;
use wse_multi::{HostLink, MultiFabric};

fn repo_file(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

// ------------------------------------------------------- shipped fixtures

/// What `wse-lint fixture:NAME` prints on stdout.
fn render_fixture(name: &str) -> String {
    if let Some((err, untouched)) = wse_dsl::fixtures::reject(name) {
        return format!(
            "fixture:{name}: rejected by the DSL front-end (fabric untouched: {untouched})\n  \
             error: [dsl-reject] {err}\n"
        );
    }
    let fabric = wse_lint::fixtures::build(name).expect("known fixture");
    let diags = wse_lint::lint(&fabric);
    let mut out = format!("fixture:{name}: {} diagnostic(s)\n", diags.len());
    for d in &diags {
        writeln!(out, "  {d}").unwrap();
    }
    out
}

#[test]
fn expected_lints_match_through_the_library() {
    let names: Vec<&str> =
        wse_lint::fixtures::ALL.iter().chain(wse_dsl::fixtures::ALL).copied().collect();
    let on_disk = std::fs::read_dir(repo_file("scripts/expected_lints")).unwrap().count();
    assert_eq!(names.len(), on_disk, "every scripts/expected_lints file has a fixture");
    for name in names {
        let want =
            std::fs::read_to_string(repo_file(&format!("scripts/expected_lints/{name}.txt")))
                .unwrap();
        assert_eq!(render_fixture(name), want, "fixture {name}");
    }
}

// ------------------------------------------------------- mutation corpus

/// Every subject is a [`MultiFabric`]: a single fabric is the `k = 1`
/// ensemble (one shard, no seams — exactly what `wse_lint::lint` wraps).
fn single(fabric: Fabric) -> MultiFabric {
    let mut multi = MultiFabric::new(fabric.width(), fabric.height(), 1, HostLink::ideal());
    *multi.shard_mut(0) = fabric;
    multi
}

/// Every tile as `(shard, x, y)`, shard-major then row-major.
fn tiles(multi: &MultiFabric) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    for s in 0..multi.k() {
        let f = multi.shard(s);
        for y in 0..f.height() {
            for x in 0..f.width() {
                out.push((s, x, y));
            }
        }
    }
    out
}

fn system3d(w: usize, h: usize, z: usize) -> DiaMatrix<F16> {
    manufactured(Mesh3D::new(w, h, z), (1.0, -0.5, 0.5), 11).preconditioned().matrix.convert()
}

fn lowered(
    operator: &str,
    fabric: (usize, usize),
    mesh: Mesh3D,
    block: Option<Block2D>,
) -> MultiFabric {
    let spec = wse_dsl::catalog::get(operator).expect("catalog operator");
    let mut f = Fabric::new(fabric.0, fabric.1);
    wse_dsl::lower_spec(&mut f, &spec, mesh, block).expect("catalog operator must lower");
    single(f)
}

/// The clean programs, small enough that a debug-build lint of each is
/// milliseconds but every one has interior, edge and corner tiles.
fn subjects() -> Vec<(&'static str, MultiFabric)> {
    let block = Block2D::new(4, 4);
    let mut out = vec![
        ("star5-2d", lowered("star5-2d", (4, 4), Mesh3D::new(16, 16, 1), Some(block))),
        ("star9-2d", lowered("star9-2d", (4, 4), Mesh3D::new(16, 16, 1), Some(block))),
        ("star7-3d", lowered("star7-3d", (4, 4), Mesh3D::new(4, 4, 8), None)),
        ("star25-3d", lowered("star25-3d", (5, 4), Mesh3D::new(5, 4, 12), None)),
    ];
    let mut f = Fabric::new(3, 3);
    let _ = WaferBicgstab::build(&mut f, &system3d(3, 3, 6));
    out.push(("bicgstab-3d", single(f)));

    let block = Block2D::new(3, 3);
    let mesh = block.covered_mesh(3, 3);
    let a = convection_diffusion9(mesh, (1.5, -0.5));
    let x: Vec<f64> = (0..mesh.len()).map(|i| ((i % 9) as f64) * 0.125 - 0.5).collect();
    let mut b = vec![0.0; mesh.len()];
    a.matvec_f64(&x, &mut b);
    let mut f = Fabric::new(3, 3);
    let _ = WaferBicgstab2d::build(&mut f, &jacobi_scale(&a, &b).matrix.convert(), block);
    out.push(("bicgstab-2d", single(f)));

    let mut multi = MultiFabric::new(4, 3, 2, HostLink::paper_default());
    let _ = WaferBicgstabMulti::build_fused(&mut multi, &system3d(4, 3, 6));
    out.push(("fused-k2", multi));
    out.push(("triggers", single(trigger_pipeline())));
    out
}

/// No shipped builder uses data triggers (`Core::bind_color`), so the
/// corpus brings its own: a 3x1 pipeline where every downstream task is
/// started by arriving data. Tile 0 sends color 3 east; tile 1's bound
/// task receives it on a thread whose completion activates a forwarder;
/// the forwarder launches color 4 both east and back to its own ramp,
/// where a second bound task (a locally looped data trigger) echoes it
/// into a scratch buffer; tile 2's bound task sinks it.
fn trigger_pipeline() -> Fabric {
    const N: u32 = 4;
    let copy = |dst, a| TensorInstr { op: Op::Copy, dst: Some(dst), a: Some(a), b: None };
    let mut f = Fabric::new(3, 1);
    f.set_route(0, 0, Port::Ramp, 3, &[Port::East]);
    f.set_route(1, 0, Port::West, 3, &[Port::Ramp]);
    f.set_route(1, 0, Port::Ramp, 4, &[Port::Ramp, Port::East]);
    f.set_route(2, 0, Port::West, 4, &[Port::Ramp]);
    {
        let t = f.tile_mut(0, 0);
        let buf = t.mem.alloc_vec(N, Dtype::F16).unwrap();
        let d_buf = t.core.add_dsr(mk::tensor16(buf, N));
        let d_tx = t.core.add_dsr(mk::tx16(3, N));
        let src = t.core.add_task(Task::new("src", vec![Stmt::Exec(copy(d_tx, d_buf))]));
        t.core.mark_entry(src);
    }
    {
        let t = f.tile_mut(1, 0);
        let buf = t.mem.alloc_vec(N, Dtype::F16).unwrap();
        let scratch = t.mem.alloc_vec(N, Dtype::F16).unwrap();
        let d_rx3 = t.core.add_dsr(mk::rx16(3, N));
        let d_in = t.core.add_dsr(mk::tensor16(buf, N));
        let d_out = t.core.add_dsr(mk::tensor16(buf, N));
        let d_tx4 = t.core.add_dsr(mk::tx16(4, N));
        let d_rx4 = t.core.add_dsr(mk::rx16(4, N));
        let d_scratch = t.core.add_dsr(mk::tensor16(scratch, N));
        let fwd = t.core.add_task(Task::new(
            "fwd",
            vec![Stmt::Launch { slot: 1, instr: copy(d_tx4, d_out), on_complete: None }],
        ));
        let on_data = t.core.add_task(Task::new(
            "on_data",
            vec![Stmt::Launch {
                slot: 0,
                instr: copy(d_in, d_rx3),
                on_complete: Some((fwd, TaskAction::Activate)),
            }],
        ));
        let echo = t.core.add_task(Task::new("echo", vec![Stmt::Exec(copy(d_scratch, d_rx4))]));
        t.core.bind_color(3, on_data);
        t.core.bind_color(4, echo);
    }
    {
        let t = f.tile_mut(2, 0);
        let buf = t.mem.alloc_vec(N, Dtype::F16).unwrap();
        let d_rx = t.core.add_dsr(mk::rx16(4, N));
        let d_buf = t.core.add_dsr(mk::tensor16(buf, N));
        let sink = t.core.add_task(Task::new("sink", vec![Stmt::Exec(copy(d_buf, d_rx))]));
        t.core.bind_color(4, sink);
    }
    f
}

#[derive(Copy, Clone, Debug)]
enum Mutation {
    DropRoute,
    SwapColor,
    ShiftDsr,
    RemoveOnComplete,
    Unbind,
}

const MUTATIONS: [Mutation; 5] = [
    Mutation::DropRoute,
    Mutation::SwapColor,
    Mutation::ShiftDsr,
    Mutation::RemoveOnComplete,
    Mutation::Unbind,
];

/// One place a descriptor lives: a registered DSR, or an `InitDsr`
/// statement `(task, stmt)` that re-arms one.
#[derive(Copy, Clone)]
enum Slot {
    Dsr(usize),
    Init(usize, usize),
}

fn descriptor_slots(core: &Core) -> Vec<(Slot, Descriptor)> {
    let mut slots: Vec<(Slot, Descriptor)> =
        core.dsrs().map(|(id, d)| (Slot::Dsr(id), d.desc)).collect();
    for (t, task) in core.tasks() {
        for (s, stmt) in task.body.iter().enumerate() {
            if let Stmt::InitDsr { desc, .. } = stmt {
                slots.push((Slot::Init(t, s), *desc));
            }
        }
    }
    slots
}

/// What to change while copying a core through its public builder API.
#[derive(Default)]
struct CoreEdit {
    dsr: Option<(usize, Descriptor)>,
    stmt: Option<(usize, usize, Stmt)>,
    unbind: Option<usize>,
}

impl CoreEdit {
    fn descriptor(core: &Core, slot: Slot, desc: Descriptor) -> CoreEdit {
        match slot {
            Slot::Dsr(id) => CoreEdit { dsr: Some((id, desc)), ..CoreEdit::default() },
            Slot::Init(t, s) => {
                let Stmt::InitDsr { dsr, .. } = core.task(t).body[s] else {
                    unreachable!("slot names an InitDsr statement")
                };
                CoreEdit { stmt: Some((t, s, Stmt::InitDsr { dsr, desc })), ..CoreEdit::default() }
            }
        }
    }
}

/// Copies everything the linter reads of `core` — descriptors, FIFOs, task
/// programs and flags, bindings, entry points — applying `edit` on the way.
fn rebuild_core(core: &Core, edit: &CoreEdit) -> Core {
    let mut out = Core::new();
    for (id, d) in core.dsrs() {
        let desc = match edit.dsr {
            Some((e, desc)) if e == id => desc,
            _ => d.desc,
        };
        out.add_dsr(desc);
    }
    for (_, f) in core.fifos() {
        out.add_fifo(Fifo::new(f.base, f.capacity, f.dtype, f.onpush));
    }
    for (id, task) in core.tasks() {
        let mut task = task.clone();
        if let Some((t, s, stmt)) = &edit.stmt {
            if *t == id {
                task.body[*s] = stmt.clone();
            }
        }
        let activated = core.task_activated(id) && !task.start_activated;
        assert_eq!(core.task_blocked(id), task.start_blocked, "subjects are unstepped");
        out.add_task(task);
        if activated {
            out.activate(id);
        }
    }
    for (i, b) in core.bindings().iter().enumerate() {
        if edit.unbind != Some(i) {
            out.bind_color(b.color, b.task);
        }
    }
    for &t in core.entry_tasks() {
        out.mark_entry(t);
    }
    out.regs = core.regs;
    out
}

/// Applies `m` to a copy of `tile`; `None` when the tile has nothing of
/// that kind to break. `pick` selects among the candidates.
fn mutate(tile: &Tile, m: Mutation, pick: u64) -> Option<(Tile, String)> {
    let nth = |n: usize| (pick % n as u64) as usize;
    let mut out = tile.clone();
    let what = match m {
        Mutation::DropRoute => {
            let routes: Vec<_> = tile.router.routes().map(|(p, c, f)| (p, c, f.to_vec())).collect();
            if routes.is_empty() {
                return None;
            }
            let drop = nth(routes.len());
            out.router = Router::new();
            for (i, (p, c, f)) in routes.iter().enumerate() {
                if i != drop {
                    out.router.set_route(*p, *c, f);
                }
            }
            let (p, c, f) = &routes[drop];
            format!("drop route ({p:?}, color {c}) -> {f:?}")
        }
        Mutation::SwapColor => {
            let slots: Vec<_> = descriptor_slots(&tile.core)
                .into_iter()
                .filter(|(_, d)| {
                    matches!(d, Descriptor::FabricIn { len, .. } | Descriptor::FabricOut { len, .. } if *len > 0)
                })
                .collect();
            if slots.is_empty() {
                return None;
            }
            let (slot, desc) = slots[nth(slots.len())];
            let bump = |c: u8| {
                ((c as u64 + 1 + (pick >> 16) % (NUM_COLORS as u64 - 1)) % NUM_COLORS as u64) as u8
            };
            let (swapped, from, to) = match desc {
                Descriptor::FabricIn { color, len, dtype } => {
                    (Descriptor::FabricIn { color: bump(color), len, dtype }, color, bump(color))
                }
                Descriptor::FabricOut { color, len, dtype } => {
                    (Descriptor::FabricOut { color: bump(color), len, dtype }, color, bump(color))
                }
                _ => unreachable!("filtered to fabric descriptors"),
            };
            out.core = rebuild_core(&tile.core, &CoreEdit::descriptor(&tile.core, slot, swapped));
            format!("swap {} color {from} -> {to}", slot_name(slot))
        }
        Mutation::ShiftDsr => {
            let slots: Vec<_> = descriptor_slots(&tile.core)
                .into_iter()
                .filter(|(_, d)| matches!(d, Descriptor::Mem { len, .. } if *len > 1))
                .collect();
            if slots.is_empty() {
                return None;
            }
            let (slot, desc) = slots[nth(slots.len())];
            let Descriptor::Mem { addr, len, stride, dtype, rewind } = desc else {
                unreachable!("filtered to memory descriptors")
            };
            // Half the extent forward: the tail lands in whatever the
            // allocator placed next.
            let shift = (len / 2) * stride.max(1) * dtype.bytes();
            let shifted = Descriptor::Mem { addr: addr + shift, len, stride, dtype, rewind };
            out.core = rebuild_core(&tile.core, &CoreEdit::descriptor(&tile.core, slot, shifted));
            format!("shift {} addr {addr} -> {}", slot_name(slot), addr + shift)
        }
        Mutation::RemoveOnComplete => {
            let mut sites = Vec::new();
            for (t, task) in tile.core.tasks() {
                for (s, stmt) in task.body.iter().enumerate() {
                    if let Stmt::Launch { slot, instr, on_complete: Some(oc) } = stmt {
                        sites.push((t, s, *slot, *instr, *oc));
                    }
                }
            }
            if sites.is_empty() {
                return None;
            }
            let (t, s, slot, instr, oc) = sites[nth(sites.len())];
            let edit = CoreEdit {
                stmt: Some((t, s, Stmt::Launch { slot, instr, on_complete: None })),
                ..CoreEdit::default()
            };
            out.core = rebuild_core(&tile.core, &edit);
            format!("remove on_complete {oc:?} of task {t} stmt {s}")
        }
        Mutation::Unbind => {
            let bindings = tile.core.bindings();
            if bindings.is_empty() {
                return None;
            }
            let i = nth(bindings.len());
            out.core =
                rebuild_core(&tile.core, &CoreEdit { unbind: Some(i), ..CoreEdit::default() });
            format!("unbind color {} from task {}", bindings[i].color, bindings[i].task)
        }
    };
    Some((out, what))
}

fn slot_name(slot: Slot) -> String {
    match slot {
        Slot::Dsr(id) => format!("dsr {id}"),
        Slot::Init(t, s) => format!("InitDsr at task {t} stmt {s}"),
    }
}

/// The corpus: every subject × mutation × seed, one section each.
fn corpus() -> String {
    const SEEDS: u64 = 4;
    let mut out = String::new();
    for (name, mut subject) in subjects() {
        assert!(subject.lint().is_empty(), "{name} must start clean");
        let tiles = tiles(&subject);
        for m in MUTATIONS {
            for seed in 0..SEEDS {
                let mut rng = SplitMix64::new(0x11A7 ^ (seed << 8) ^ m as u64);
                let start = rng.below(tiles.len() as u64) as usize;
                let pick = rng.next_u64();
                // First tile at or after the drawn one that has a candidate.
                let hit = (0..tiles.len()).find_map(|k| {
                    let (s, x, y) = tiles[(start + k) % tiles.len()];
                    mutate(subject.shard(s).tile(x, y), m, pick).map(|(t, what)| (s, x, y, t, what))
                });
                let Some((s, x, y, broken, what)) = hit else {
                    writeln!(out, "## {name} {m:?} seed {seed}: no candidate").unwrap();
                    continue;
                };
                writeln!(out, "## {name} {m:?} seed {seed}: shard {s} tile ({x}, {y}): {what}")
                    .unwrap();
                let original = std::mem::replace(subject.shard_mut(s).tile_mut(x, y), broken);
                let diags = subject.lint();
                *subject.shard_mut(s).tile_mut(x, y) = original;
                if diags.is_empty() {
                    writeln!(out, "(clean)").unwrap();
                }
                for d in &diags {
                    writeln!(out, "{d}").unwrap();
                }
            }
        }
        assert!(subject.lint().is_empty(), "{name} must be restored clean");
    }
    out
}

#[test]
fn mutation_corpus_is_pinned() {
    let path = repo_file("tests/lint_pins.expected.txt");
    let got = corpus();
    if std::env::var_os("UPDATE_LINT_PINS").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap();
    if got != want {
        let line = got.lines().zip(want.lines()).position(|(g, w)| g != w);
        let at = line.unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "mutation corpus diverges from tests/lint_pins.expected.txt at line {}:\n  got:  {}\n  want: {}",
            at + 1,
            got.lines().nth(at).unwrap_or("<end>"),
            want.lines().nth(at).unwrap_or("<end>"),
        );
    }
}
