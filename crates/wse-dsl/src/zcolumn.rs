//! The Listing-1 / Fig. 4 Z-column dataflow emitters, shared by the
//! lowering layer and `wse-core`'s Krylov builders.
//!
//! Per tile, the kernel computes `u = A v` for its Z-column of the mesh:
//!
//! * the local iterate `v` is **broadcast** on the tile's own color to its
//!   four neighbors and looped back to its own ramp,
//! * the result is **initialized** by the in-memory `zm` term
//!   (`u[z] = zm_a[z] · v[z−1]`, via a zero-padded copy of `v`),
//! * the `zp` term is accumulated from memory with the fused FMAC
//!   (`u[z] += zp_a[z] · v[z+1]`),
//! * four background threads multiply the **incoming neighbor streams** by
//!   the `xp/xm/yp/ym` coefficient vectors into four hardware FIFOs,
//! * a high-priority `sumtask`, activated by FIFO pushes, drains the FIFOs
//!   into the result through persistent accumulator DSRs,
//! * the unit main diagonal is handled by a thread that **adds the looped-
//!   back local stream directly** — "Because the diagonal is all ones there
//!   is no FIFO and no multiplication",
//! * a chain of two-way barriers (block/unblock/activate) detects completion
//!   (the paper's `xdone/ydone/.../xycdone` tree), built by the emitters'
//!   shared `dataflow::barrier_chain`.
//!
//! [`build_spmv_tile`] is the one entry point; its `fold` releases a
//! wafer-seam tile's [`build_overlap_halo`] fold task, and without one it
//! builds the plain kernel.
//!
//! One deviation from Listing 1 is documented in DESIGN.md: the paper also
//! sources the `zp` term from the loopback to save memory bandwidth; this
//! model folds memory bandwidth into the datapath SIMD widths, so `zp` reads
//! the in-memory copy and the loopback feeds only the main-diagonal add.

use crate::dataflow::{barrier_chain, recv};
use crate::tess::{incoming_colors, spmv_color};
use stencil::dia::{DiaMatrix, Offset3};
use wse_arch::dsr::mk;
use wse_arch::fifo::Fifo;
use wse_arch::instr::{Op, Stmt, Task, TaskAction, TensorInstr};
use wse_arch::types::{Color, Dtype, TaskId};
use wse_arch::Tile;
use wse_float::F16;

/// Depth of the intermediate-product FIFOs ("We used a FIFO depth of 20").
pub const FIFO_DEPTH: u32 = 20;

/// Background-thread slot the overlapped seam-halo send launches into (the
/// SpMV kernel itself occupies slots 0–3, 5 and 6).
pub const HALO_SEND_SLOT: u8 = 7;
/// Background-thread slot the overlapped seam-halo receive launches into.
pub const HALO_RECV_SLOT: u8 = 8;

/// Byte addresses of one tile's SpMV data.
#[derive(Copy, Clone, Debug)]
pub struct SpmvLayout {
    /// Local Z extent.
    pub z: u32,
    /// Coefficient vectors `[xp, xm, yp, ym, zp, zm]`, each `z` fp16 words.
    pub diag: [u32; 6],
    /// Zero-padded iterate: `z + 2` words, live data at `[1 ..= z]`.
    pub vpad: u32,
    /// Result vector `u`, `z` words.
    pub u: u32,
}

impl SpmvLayout {
    /// Allocates the layout in a tile's SRAM and zeroes the iterate's two
    /// pad words, once: applies rewrite only the live part.
    ///
    /// # Panics
    /// Panics if the tile runs out of SRAM (the 48 KB budget is real).
    pub fn alloc(tile: &mut Tile, z: u32) -> SpmvLayout {
        let mut diag = [0u32; 6];
        for d in &mut diag {
            *d = tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM for diagonals");
        }
        let vpad = tile.mem.alloc_vec(z + 2, Dtype::F16).expect("SRAM for vpad");
        tile.mem.write_f16(vpad, F16::ZERO);
        tile.mem.write_f16(vpad + 2 * (z + 1), F16::ZERO);
        let u = tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM for u");
        SpmvLayout { z, diag, vpad, u }
    }

    /// Base address of the live (unpadded) part of `v`.
    pub fn v_live(&self) -> u32 {
        self.vpad + 2
    }
}

/// Which neighbors a tile has (edge tiles have fewer streams).
#[derive(Copy, Clone, Debug, Default)]
struct Neighbors {
    xp: bool,
    xm: bool,
    yp: bool,
    ym: bool,
}

/// Builds one tile's SpMV program, marks its entry task and returns it;
/// activate the entry task to run one SpMV. On a wafer-seam tile `fold` is
/// its [`build_overlap_halo`] fold task, which carries the ±x halo term:
/// the SpMV body only *unblocks* it once `u` is initialized, and it fires
/// when its receive also completes, so halo wire time hides behind the
/// interior compute. Off every seam it is `None`.
///
/// The caller must have configured the tessellation routes
/// ([`crate::tess::configure_spmv_routes`]) and loaded coefficients via
/// [`load_coefficients`].
pub fn build_spmv_tile(
    tile: &mut Tile,
    x: usize,
    y: usize,
    region_w: usize,
    region_h: usize,
    layout: SpmvLayout,
    fold: Option<TaskId>,
) -> TaskId {
    let z = layout.z;
    let mine = spmv_color(x, y);
    let (cxp, cxm, cyp, cym) = incoming_colors(x, y);
    let nb = Neighbors { xp: x + 1 < region_w, xm: x > 0, yp: y + 1 < region_h, ym: y > 0 };

    let core = &mut tile.core;

    // --- DSRs over memory (coefficients, padded iterate, result). ---
    let d_send_src = core.add_dsr(mk::tensor16(layout.v_live(), z));
    let d_zm_a = core.add_dsr(mk::tensor16(layout.diag[5], z));
    let d_zm_b = core.add_dsr(mk::tensor16(layout.vpad, z)); // v[z-1]
    let d_zp_a = core.add_dsr(mk::tensor16(layout.diag[4], z));
    let d_zp_b = core.add_dsr(mk::tensor16(layout.vpad + 4, z)); // v[z+1]
    let d_u_init = core.add_dsr(mk::tensor16(layout.u, z));
    let d_u_zp = core.add_dsr(mk::tensor16(layout.u, z));
    let d_xp_a = core.add_dsr(mk::tensor16(layout.diag[0], z));
    let d_xm_a = core.add_dsr(mk::tensor16(layout.diag[1], z));
    let d_yp_a = core.add_dsr(mk::tensor16(layout.diag[2], z));
    let d_ym_a = core.add_dsr(mk::tensor16(layout.diag[3], z));

    // Fabric and accumulator DSRs are re-initialized at the top of each SpMV
    // invocation (their cursors are consumed by use).
    let d_tx = core.add_dsr(mk::tx16(mine, z));
    let d_c_rx = core.add_dsr(mk::rx16(mine, z));
    let d_c_acc = core.add_dsr(mk::acc16(layout.u, z));
    let d_xp_rx = core.add_dsr(mk::rx16(cxp, z));
    let d_xm_rx = core.add_dsr(mk::rx16(cxm, z));
    let d_yp_rx = core.add_dsr(mk::rx16(cyp, z));
    let d_ym_rx = core.add_dsr(mk::rx16(cym, z));
    let d_xp_acc = core.add_dsr(mk::acc16(layout.u, z));
    let d_xm_acc = core.add_dsr(mk::acc16(layout.u, z));
    let d_yp_acc = core.add_dsr(mk::acc16(layout.u, z));
    let d_ym_acc = core.add_dsr(mk::acc16(layout.u, z));

    // --- Completion chain. Participating threads: one per existing
    // neighbor, plus the loopback add and the send. Nothing follows the
    // last barrier: the SpMV is complete when the fabric goes quiescent.
    let threads = 2 + [nb.xp, nb.xm, nb.yp, nb.ym].iter().filter(|&&p| p).count();
    let chain = barrier_chain(core, "spmv-barrier", threads, None);

    // --- FIFOs + sumtask. ---
    // sumtask is created first (empty) so FIFOs can reference it; its body
    // is filled once FIFO DSR ids exist. A tile with no neighbors (1x1
    // fabric) has no FIFOs and therefore no sumtask at all.
    let present = [nb.xp, nb.xm, nb.yp, nb.ym];
    let sumtask =
        present.iter().any(|&p| p).then(|| core.add_task(Task::new("sumtask", vec![]).priority(3)));
    let mut fifo_dsrs = Vec::new();
    let mut sum_body = Vec::new();
    let accs = [d_xp_acc, d_xm_acc, d_yp_acc, d_ym_acc];
    for i in 0..4 {
        if !present[i] {
            fifo_dsrs.push(None);
            continue;
        }
        let base = tile.mem.alloc_vec(FIFO_DEPTH, Dtype::F16).expect("SRAM for fifo");
        let fid = core.add_fifo(Fifo::new(base, FIFO_DEPTH, Dtype::F16, sumtask));
        let dsr = core.add_dsr(mk::fifo(fid));
        fifo_dsrs.push(Some(dsr));
        sum_body.push(Stmt::Exec(TensorInstr {
            op: Op::AddAssign,
            dst: Some(accs[i]),
            a: Some(dsr),
            b: None,
        }));
    }
    if let Some(sumtask) = sumtask {
        core.set_task_body(sumtask, sum_body);
    }

    // --- The spmv entry task. ---
    let mut body = vec![
        // Re-arm the one-shot fabric descriptors and accumulators.
        Stmt::InitDsr { dsr: d_tx, desc: mk::tx16(mine, z) },
        Stmt::InitDsr { dsr: d_c_rx, desc: mk::rx16(mine, z) },
        Stmt::InitDsr { dsr: d_c_acc, desc: mk::acc16(layout.u, z) },
    ];
    let rxs = [d_xp_rx, d_xm_rx, d_yp_rx, d_ym_rx];
    let colors = [cxp, cxm, cyp, cym];
    for i in 0..4 {
        if present[i] {
            body.push(Stmt::InitDsr { dsr: rxs[i], desc: mk::rx16(colors[i], z) });
            body.push(Stmt::InitDsr { dsr: accs[i], desc: mk::acc16(layout.u, z) });
        }
    }

    let mut thread_no = 0;
    // Send local vector to neighbors + loopback.
    body.push(Stmt::Launch {
        slot: 5,
        instr: TensorInstr { op: Op::Copy, dst: Some(d_tx), a: Some(d_send_src), b: None },
        on_complete: chain.trigger(thread_no),
    });
    thread_no += 1;

    // Initialize u with the zm term, then accumulate zp — both synchronous.
    body.push(Stmt::Exec(TensorInstr {
        op: Op::Mul,
        dst: Some(d_u_init),
        a: Some(d_zm_a),
        b: Some(d_zm_b),
    }));
    body.push(Stmt::Exec(TensorInstr {
        op: Op::FmaAssign,
        dst: Some(d_u_zp),
        a: Some(d_zp_a),
        b: Some(d_zp_b),
    }));

    // Wafer-seam halo term: `u` is now initialized, so release the fold
    // barrier — it fires as soon as its background receive also lands,
    // concurrently with the product threads below (the fold is an
    // accumulate-class FMA, so it commutes with the FIFO drains).
    if let Some(fold) = fold {
        body.push(Stmt::TaskCtl { task: fold, action: TaskAction::Unblock });
    }

    // Neighbor product threads into FIFOs.
    let diags = [d_xp_a, d_xm_a, d_yp_a, d_ym_a];
    for i in 0..4 {
        if !present[i] {
            continue;
        }
        body.push(Stmt::Launch {
            slot: i as u8,
            instr: TensorInstr {
                op: Op::Mul,
                dst: Some(fifo_dsrs[i].unwrap()),
                a: Some(rxs[i]),
                b: Some(diags[i]),
            },
            on_complete: chain.trigger(thread_no),
        });
        thread_no += 1;
    }

    // Main-diagonal add from the loopback (no FIFO, no multiply).
    body.push(Stmt::Launch {
        slot: 6,
        instr: TensorInstr { op: Op::AddAssign, dst: Some(d_c_acc), a: Some(d_c_rx), b: None },
        on_complete: chain.trigger(thread_no),
    });

    let start = core.add_task(Task::new("spmv", body));
    core.mark_entry(start);
    start
}

/// Task ids of one seam tile's overlapped halo machinery for one SpMV
/// flavor (one iterate vector). The driver activates `send` and `recv`
/// together with the SpMV entry task, in the same phase.
#[derive(Copy, Clone, Debug)]
pub struct OverlapHalo {
    /// Launches the boundary column outbound on a background thread and
    /// retires immediately — the main thread is free for interior compute.
    pub send: TaskId,
    /// Launches the background receive of the neighbor wafer's column into
    /// the halo buffer; its completion `Activate`s `fold`.
    pub recv: TaskId,
    /// Two-way barrier folding `u += coeff · halo`: `Activate`d by the
    /// receive landing, `Unblock`ed by the SpMV body once `u` is
    /// initialized. Re-blocks itself first, so it is armed again for the
    /// next invocation.
    pub fold: TaskId,
}

/// Builds the interior-first halo exchange for one seam side of one tile:
/// a launch-and-retire send of `src_live`, a background receive into
/// `buf`, and the fold task adding `coeff · buf` into `u`. Pass the fold
/// id to [`build_spmv_tile`] so the SpMV releases it at the right time.
#[allow(clippy::too_many_arguments)]
pub fn build_overlap_halo(
    tile: &mut Tile,
    src_live: u32,
    buf: u32,
    coeff: u32,
    u: u32,
    send_color: Color,
    recv_color: Color,
    z: u32,
) -> OverlapHalo {
    let core = &mut tile.core;
    let d_src = core.add_dsr(mk::tensor16(src_live, z));
    let d_tx = core.add_dsr(mk::tx16(send_color, z));
    let d_rx = core.add_dsr(mk::rx16(recv_color, z));
    let d_buf_w = core.add_dsr(mk::tensor16(buf, z));
    let d_buf_r = core.add_dsr(mk::tensor16(buf, z));
    let d_coeff = core.add_dsr(mk::tensor16(coeff, z));
    let d_u = core.add_dsr(mk::tensor16(u, z));

    let fold = core.add_task(Task::new("halo-fold", vec![]).blocked());
    core.set_task_body(
        fold,
        vec![
            Stmt::TaskCtl { task: fold, action: TaskAction::Block },
            Stmt::Exec(TensorInstr {
                op: Op::FmaAssign,
                dst: Some(d_u),
                a: Some(d_coeff),
                b: Some(d_buf_r),
            }),
        ],
    );

    let send = core.add_task(Task::new(
        "halo-send",
        vec![
            Stmt::InitDsr { dsr: d_tx, desc: mk::tx16(send_color, z) },
            Stmt::Launch {
                slot: HALO_SEND_SLOT,
                instr: TensorInstr { op: Op::Copy, dst: Some(d_tx), a: Some(d_src), b: None },
                on_complete: None,
            },
        ],
    ));
    let recv = core.add_task(Task::new(
        "halo-recv",
        vec![
            Stmt::InitDsr { dsr: d_rx, desc: mk::rx16(recv_color, z) },
            Stmt::Launch {
                slot: HALO_RECV_SLOT,
                instr: TensorInstr { op: Op::Copy, dst: Some(d_buf_w), a: Some(d_rx), b: None },
                on_complete: Some((fold, TaskAction::Activate)),
            },
        ],
    ));
    core.mark_entry(send);
    core.mark_entry(recv);
    OverlapHalo { send, recv, fold }
}

/// Builds the **naive ablation** of the SpMV: no FIFO decoupling, no
/// multiply/receive overlap — each neighbor stream is received *fully* into
/// a scratch buffer (blocking, sequential), and only then multiplied and
/// accumulated. This is the design the paper's Listing-1 dataflow exists to
/// beat; `experiments commhiding`-style measurements quantify the gap.
///
/// Costs four extra `z`-length scratch buffers of SRAM.
pub fn build_spmv_tile_naive(
    tile: &mut Tile,
    x: usize,
    y: usize,
    region_w: usize,
    region_h: usize,
    layout: SpmvLayout,
) -> TaskId {
    let z = layout.z;
    let mine = spmv_color(x, y);
    let (cxp, cxm, cyp, cym) = incoming_colors(x, y);
    let present = [x + 1 < region_w, x > 0, y + 1 < region_h, y > 0];
    let colors = [cxp, cxm, cyp, cym];

    // Scratch receive buffers.
    let mut bufs = [0u32; 4];
    for (i, b) in bufs.iter_mut().enumerate() {
        if present[i] {
            *b = tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM: naive rx buffer");
        }
    }
    let cbuf = tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM: naive loopback buffer");

    let core = &mut tile.core;
    let d_send_src = core.add_dsr(mk::tensor16(layout.v_live(), z));
    let d_tx = core.add_dsr(mk::tx16(mine, z));
    let d_zm_a = core.add_dsr(mk::tensor16(layout.diag[5], z));
    let d_zm_b = core.add_dsr(mk::tensor16(layout.vpad, z));
    let d_zp_a = core.add_dsr(mk::tensor16(layout.diag[4], z));
    let d_zp_b = core.add_dsr(mk::tensor16(layout.vpad + 4, z));
    let d_u_init = core.add_dsr(mk::tensor16(layout.u, z));
    let d_u_zp = core.add_dsr(mk::tensor16(layout.u, z));

    // Completion chain over the background threads (send, loopback copy, one
    // receive per present neighbor), same two-way-barrier idiom as the real
    // kernel. The receives must all run CONCURRENTLY even in the naive
    // variant: the broadcast fanout is all-or-nothing, so draining neighbor
    // streams one at a time lets an undrained branch backpressure a sender
    // that a third tile is blocked on — a circular wait once z outgrows the
    // queue slack. The multiplies wait for the whole chain: no
    // receive/multiply overlap, which is the point of the ablation.
    let fma = core.add_task(Task::new("spmv-naive-fma", vec![]));
    let threads = 2 + present.iter().filter(|&&p| p).count();
    let chain = barrier_chain(core, "naive-barrier", threads, Some(fma));

    let mut body = vec![
        Stmt::InitDsr { dsr: d_tx, desc: mk::tx16(mine, z) },
        Stmt::Launch {
            slot: 5,
            instr: TensorInstr { op: Op::Copy, dst: Some(d_tx), a: Some(d_send_src), b: None },
            on_complete: chain.trigger(0),
        },
    ];
    let mut thread_no = 1;

    // Each neighbor stream is received *fully* into scratch by a background
    // thread; every multiply pass — including the purely local z terms —
    // happens only after all streams landed. Zero receive/compute overlap.
    let mut fma_body = vec![
        Stmt::Exec(TensorInstr {
            op: Op::Mul,
            dst: Some(d_u_init),
            a: Some(d_zm_a),
            b: Some(d_zm_b),
        }),
        Stmt::Exec(TensorInstr {
            op: Op::FmaAssign,
            dst: Some(d_u_zp),
            a: Some(d_zp_a),
            b: Some(d_zp_b),
        }),
    ];
    for i in (0..4).filter(|&i| present[i]) {
        let dst = mk::tensor16(bufs[i], z);
        recv(core, &mut body, i as u8, colors[i], Op::Copy, dst, chain.trigger(thread_no));
        thread_no += 1;
        let d_buf_r = core.add_dsr(mk::tensor16(bufs[i], z));
        let d_a = core.add_dsr(mk::tensor16(layout.diag[i], z));
        let d_u = core.add_dsr(mk::tensor16(layout.u, z));
        fma_body.push(Stmt::Exec(TensorInstr {
            op: Op::FmaAssign,
            dst: Some(d_u),
            a: Some(d_a),
            b: Some(d_buf_r),
        }));
    }
    // Loopback diagonal, equally buffered through scratch.
    recv(core, &mut body, 6, mine, Op::Copy, mk::tensor16(cbuf, z), chain.trigger(thread_no));
    let d_cbuf_r = core.add_dsr(mk::tensor16(cbuf, z));
    let d_u_c = core.add_dsr(mk::tensor16(layout.u, z));
    fma_body.push(Stmt::Exec(TensorInstr {
        op: Op::AddAssign,
        dst: Some(d_u_c),
        a: Some(d_cbuf_r),
        b: None,
    }));
    core.set_task_body(fma, fma_body);

    let start = core.add_task(Task::new("spmv-naive", body));
    core.mark_entry(start);
    start
}

/// Extracts tile `(x, y)`'s six off-diagonal coefficient vectors from a
/// unit-diagonal 7-point matrix, in the kernel's `[xp, xm, yp, ym, zp, zm]`
/// order. A band the matrix lacks loads as zeros.
pub fn tile_coefficients(a: &DiaMatrix<F16>, x: usize, y: usize) -> [Vec<F16>; 6] {
    let mesh = a.mesh();
    let base = mesh.idx(x, y, 0);
    let order = [
        Offset3::new(1, 0, 0),
        Offset3::new(-1, 0, 0),
        Offset3::new(0, 1, 0),
        Offset3::new(0, -1, 0),
        Offset3::new(0, 0, 1),
        Offset3::new(0, 0, -1),
    ];
    order.map(|off| match a.band_of(off) {
        Some(band) => band[base..base + mesh.nz].to_vec(),
        None => vec![F16::ZERO; mesh.nz],
    })
}

/// Loads a tile's coefficients into its SRAM.
pub fn load_coefficients(tile: &mut Tile, layout: &SpmvLayout, coeffs: &[Vec<F16>; 6]) {
    for (i, c) in coeffs.iter().enumerate() {
        assert_eq!(c.len() as u32, layout.z, "coefficient length");
        tile.mem.store_f16_slice(layout.diag[i], c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tess::configure_spmv_routes;
    use crate::{catalog, lower, StencilSpec};
    use stencil::decomp::Mapping3D;
    use stencil::mesh::Mesh3D;
    use wse_arch::Fabric;

    #[test]
    fn naive_spmv_matches_but_is_slower() {
        // Same answers, more cycles: the FIFO-decoupled dataflow's whole
        // point. (At small z the fixed overheads shrink the gap; the slope
        // difference is what matters.) `star7-3d` has a unit diagonal and
        // −1/8 couplings, and the iterate is multiples of 1/8, so fp16
        // arithmetic is exact and summation order cannot show.
        let mesh = Mesh3D::new(3, 3, 256);
        let a64 = catalog::get("star7-3d").unwrap().matrix(mesh).unwrap();
        let v64: Vec<f64> = (0..mesh.len()).map(|i| ((i % 16) as f64 - 8.0) * 0.125).collect();
        // Reference: the Listing-1 kernel.
        let mut f1 = Fabric::new(3, 3);
        let spmv = lower(&mut f1, &StencilSpec::var_seven_point_3d(), &a64, None).unwrap();
        let (fast_out, fast_cycles) = spmv.apply(&mut f1, &v64);

        // Naive: build per tile with the ablation builder.
        let a = a64.convert::<F16>();
        let v: Vec<F16> = v64.iter().map(|&x| F16::from_f64(x)).collect();
        let mut f2 = Fabric::new(3, 3);
        let mapping = Mapping3D::new(mesh, 3, 3);
        configure_spmv_routes(&mut f2, 3, 3);
        let mut layouts = Vec::new();
        let mut tasks = Vec::new();
        for y in 0..3 {
            for x in 0..3 {
                let tile = f2.tile_mut(x, y);
                let layout = SpmvLayout::alloc(tile, 256);
                load_coefficients(tile, &layout, &tile_coefficients(&a, x, y));
                tasks.push(build_spmv_tile_naive(tile, x, y, 3, 3, layout));
                layouts.push(layout);
            }
        }
        for y in 0..3 {
            for x in 0..3 {
                let i = y * 3 + x;
                f2.tile_mut(x, y)
                    .mem
                    .store_f16_slice(layouts[i].v_live(), &v[mapping.core_rows(x, y)]);
                f2.tile_mut(x, y).core.activate(tasks[i]);
            }
        }
        let naive_cycles = f2.run_watched(1_000_000, 1_000_000).unwrap();
        let mut naive_out = vec![0.0; mesh.len()];
        for y in 0..3 {
            for x in 0..3 {
                let u = f2.tile(x, y).mem.load_f16_slice(layouts[y * 3 + x].u, 256);
                let rows = &mut naive_out[mapping.core_rows(x, y)];
                rows.iter_mut().zip(u).for_each(|(o, h)| *o = h.to_f64());
            }
        }
        // Same result (exact arithmetic ⇒ order irrelevant)…
        assert_eq!(naive_out, fast_out);
        // …but meaningfully more cycles.
        assert!(
            naive_cycles as f64 > 1.2 * fast_cycles as f64,
            "naive {naive_cycles} vs decoupled {fast_cycles}"
        );
    }
}
