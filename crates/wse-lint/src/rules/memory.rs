//! Memory-budget and aliasing audit.
//!
//! Tile SRAM is 48 KB with no protection: a descriptor whose stride walks
//! past its buffer silently reads a neighbor allocation, and an instruction
//! whose destination partially overlaps a source produces order-dependent
//! garbage as elements stream through the datapath. This module audits,
//! per tile:
//!
//! * every memory descriptor and FIFO extent against [`TILE_SRAM_BYTES`]
//!   ([`crate::Rule::SramOverBudget`]);
//! * every extent against the allocator's map — data must live inside a
//!   recorded allocation ([`crate::Rule::UnallocatedExtent`]);
//! * every instruction's destination extent against its source extents —
//!   partial overlap is an error; *identical* extents (the in-place
//!   `y = x + βy`-style updates) are the deliberate idiom and are allowed
//!   ([`crate::Rule::DsrOverlap`]).

use crate::classes::Finding;
use crate::program::{Access, InstrSite, TileFacts};
use crate::Rule;
use wse_arch::core::Core;
use wse_arch::dsr::Descriptor;
use wse_arch::fifo::Fifo;
use wse_arch::memory::{Memory, TILE_SRAM_BYTES};

/// A byte extent `[start, end)` in tile SRAM.
type Extent = (u32, u32);

fn mem_extent(desc: &Descriptor) -> Option<Extent> {
    Access::of(desc).map(|a| (a.start, a.end))
}

/// The circular buffer behind a FIFO.
fn fifo_extent(f: &Fifo) -> Extent {
    (f.base, f.base + f.capacity * f.dtype.bytes())
}

/// The backing region an operand touches in SRAM: a memory descriptor's
/// extent, or the circular buffer behind a FIFO descriptor.
fn operand_extent(core: &Core, desc: Descriptor) -> Option<Extent> {
    match desc {
        Descriptor::Fifo { fifo } => Some(fifo_extent(core.fifo(fifo))),
        _ => mem_extent(&desc),
    }
}

fn inside_allocation(mem: &Memory, (start, end): Extent) -> bool {
    mem.allocations().iter().any(|a| a.contains(start, end - start))
}

/// Runs the memory rules on one tile class.
pub(crate) fn check(facts: &TileFacts<'_>, findings: &mut Vec<Finding>) {
    let core = &facts.tile.core;

    // Budget + allocation audit for every descriptor the program can hold.
    let mut seen: Vec<(Extent, &'static str)> =
        facts.descriptors().filter_map(|d| mem_extent(&d)).map(|e| (e, "descriptor")).collect();
    seen.extend(core.fifos().map(|(_, f)| (fifo_extent(f), "fifo")));
    seen.sort_by_key(|&(e, _)| e);
    seen.dedup();
    for ((start, end), what) in seen {
        if end > TILE_SRAM_BYTES {
            findings.push(Finding::error(
                Rule::SramOverBudget,
                format!(
                    "{what} extent [{start}, {end}) reaches past the {TILE_SRAM_BYTES}-byte tile SRAM"
                ),
            ));
        } else if !inside_allocation(&facts.tile.mem, (start, end)) {
            findings.push(Finding::error(
                Rule::UnallocatedExtent,
                format!(
                    "{what} extent [{start}, {end}) is not contained in any allocation; it \
                     aliases whatever the allocator hands out next"
                ),
            ));
        }
    }

    // Destination/source aliasing per instruction site.
    for site in &facts.sites {
        check_site_overlap(core, site, findings);
    }
}

fn check_site_overlap(core: &Core, site: &InstrSite, findings: &mut Vec<Finding>) {
    let Some(dst) = site.dst else { return };
    let Some(dst_e) = operand_extent(core, dst) else { return };
    for src in site.sources() {
        let Some(src_e) = operand_extent(core, src) else { continue };
        if dst_e.0 >= src_e.1 || src_e.0 >= dst_e.1 {
            continue;
        }
        // The in-place idiom: destination and source are the *same* view
        // (same address, length, stride, type). Element i is read before
        // element i is written, so streaming semantics are well defined.
        if matches!(dst, Descriptor::Mem { .. }) && dst == src {
            continue;
        }
        findings.push(Finding::error(
            Rule::DsrOverlap,
            format!(
                "task {} (\"{}\") stmt {}: {:?} destination extent [{}, {}) partially \
                 overlaps a source extent [{}, {}); streamed writes will clobber \
                 unread source elements",
                site.task,
                site.task_name,
                site.stmt,
                site.instr.op,
                dst_e.0,
                dst_e.1,
                src_e.0,
                src_e.1
            ),
        ));
    }
}
