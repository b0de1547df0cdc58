//! Host heap per simulated tile: building the paper's 7-point BiCGStab on
//! the 8×8×64 manufactured problem (the `solve3d-dense` build) must leave
//! at most 14 KB of live heap per tile — the tiles themselves, their
//! routers' lanes and ramp rings, every task, statement, DSR and FIFO, and
//! the materialized SRAM prefix.
//!
//! The measure is a counting global allocator, so this file holds a single
//! test: no other test of this binary allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use stencil::mesh::Mesh3D;
use stencil::problem::manufactured;
use stencil::DiaMatrix;
use wse_arch::Fabric;
use wse_core::WaferBicgstab;
use wse_float::F16;

/// Live heap bytes: allocated minus freed.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is only a statistic and publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn bicgstab_program_fits_in_14_kib_of_heap_per_tile() {
    let (w, h, z) = (8, 8, 64);
    let problem = manufactured(Mesh3D::new(w, h, z), (0.5, -0.25, 0.25), 1).preconditioned();
    let a16: DiaMatrix<F16> = problem.matrix.convert();

    let before = LIVE.load(Ordering::Relaxed);
    let mut fabric = Fabric::new(w, h);
    let solver = WaferBicgstab::build(&mut fabric, &a16);
    let per_tile = (LIVE.load(Ordering::Relaxed) - before) / (w * h) as isize;
    drop((solver, fabric));

    assert!(per_tile <= 14 * 1024, "{per_tile} B of heap per tile");
}
