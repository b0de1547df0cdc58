//! Seeded single-tile defects for clean programs: the mutation half of the
//! linter's test corpus.
//!
//! The broken programs in [`crate::fixtures`] are hand-built to violate one
//! invariant each. This module goes the other way: it takes a tile of a
//! *clean* program — a lowered catalog operator, a built solver — and breaks
//! one thing on it, the way a builder bug would. The tier-1 diagnostic pins
//! (`tests/lint_pins.rs`) lint the result and pin every diagnostic byte
//! for byte; the class-sharing property test inside this crate lints it
//! with and without tile-class sharing and requires the same answer.
//!
//! A tile's program is only editable through the builder API: a mutation
//! edits a task body with [`Core::set_task_body`] on a copy of the tile,
//! and rebuilds the core (or router) from its read-only view for the edits
//! no builder makes — a registered descriptor, a binding removed.

use wse_arch::dsr::{mk, Descriptor};
use wse_arch::fabric::{Fabric, Tile};
use wse_arch::fifo::Fifo;
use wse_arch::instr::{Op, Stmt, Task, TaskAction, TensorInstr};
use wse_arch::router::Router;
use wse_arch::types::{DsrId, Dtype, Port, TaskId, NUM_COLORS};
use wse_arch::Core;

/// One kind of defect.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Remove one route from the tile's router.
    DropRoute,
    /// Move one fabric descriptor to a different (in-range) color.
    SwapColor,
    /// Shift one memory descriptor half its extent forward, so its tail
    /// lands in whatever the allocator placed next.
    ShiftDsr,
    /// Remove the completion trigger of one `Launch`.
    RemoveOnComplete,
    /// Remove one data-trigger binding.
    Unbind,
}

impl Mutation {
    /// Every kind of defect.
    pub const ALL: [Mutation; 5] = [
        Mutation::DropRoute,
        Mutation::SwapColor,
        Mutation::ShiftDsr,
        Mutation::RemoveOnComplete,
        Mutation::Unbind,
    ];
}

/// One place a descriptor lives: a registered DSR, or an `InitDsr`
/// statement `(task, stmt)` that re-arms one.
#[derive(Copy, Clone)]
enum Slot {
    Dsr(DsrId),
    Init(TaskId, usize),
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
    dsr: Option<(DsrId, Descriptor)>,
    unbind: Option<usize>,
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
        let activated = core.task_activated(id) && !task.start_activated;
        assert_eq!(core.task_blocked(id), task.start_blocked, "subjects are unstepped");
        out.add_task(task.clone());
        if activated {
            out.activate(id);
        }
    }
    for (i, b) in core.image().bindings.iter().enumerate() {
        if edit.unbind != Some(i) {
            out.bind_color(b.color, b.task);
        }
    }
    for &t in &core.image().entries {
        out.mark_entry(t);
    }
    out.regs = core.regs;
    out
}

/// Replaces statement `s` of task `t` of `core`.
fn set_stmt(core: &mut Core, t: TaskId, s: usize, edit: impl FnOnce(&mut Stmt)) {
    let mut body = core.image().tasks[t as usize].body.to_vec();
    edit(&mut body[s]);
    core.set_task_body(t, body);
}

/// Puts `desc` in `slot` of `core`.
fn set_descriptor(core: &mut Core, slot: Slot, desc: Descriptor) {
    match slot {
        Slot::Dsr(id) => {
            *core = rebuild_core(core, &CoreEdit { dsr: Some((id, desc)), ..CoreEdit::default() })
        }
        Slot::Init(t, s) => set_stmt(core, t, s, |stmt| match stmt {
            Stmt::InitDsr { desc: d, .. } => *d = desc,
            _ => unreachable!("slot names an InitDsr statement"),
        }),
    }
}

/// Applies `m` to a copy of `tile` and describes what it did; `None` when
/// the tile has nothing of that kind to break. `pick` selects among the
/// candidates.
pub fn mutate(tile: &Tile, m: Mutation, pick: u64) -> Option<(Tile, String)> {
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
            set_descriptor(&mut out.core, slot, swapped);
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
            set_descriptor(&mut out.core, slot, shifted);
            format!("shift {} addr {addr} -> {}", slot_name(slot), addr + shift)
        }
        Mutation::RemoveOnComplete => {
            let mut sites = Vec::new();
            for (t, task) in tile.core.tasks() {
                for (s, stmt) in task.body.iter().enumerate() {
                    if let Stmt::Launch { on_complete: Some(oc), .. } = stmt {
                        sites.push((t, s, *oc));
                    }
                }
            }
            if sites.is_empty() {
                return None;
            }
            let (t, s, oc) = sites[nth(sites.len())];
            set_stmt(&mut out.core, t, s, |stmt| {
                if let Stmt::Launch { on_complete, .. } = stmt {
                    *on_complete = None;
                }
            });
            format!("remove on_complete {oc:?} of task {t} stmt {s}")
        }
        Mutation::Unbind => {
            let bindings = &tile.core.image().bindings;
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

/// A clean program for the corpus. No shipped builder uses data triggers
/// (`Core::bind_color`), so the corpus brings its own: a 3x1 pipeline where every downstream task is
/// started by arriving data. Tile 0 sends color 3 east; tile 1's bound
/// task receives it on a thread whose completion activates a forwarder;
/// the forwarder launches color 4 both east and back to its own ramp,
/// where a second bound task (a locally looped data trigger) echoes it
/// into a scratch buffer; tile 2's bound task sinks it.
pub fn trigger_pipeline() -> Fabric {
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
