//! Distributed BiCGStab across a multi-wafer ensemble (§VIII.B), with
//! the seams hidden: overlapped halo exchange, a binomial-tree host
//! combine, and a single-reduction fused iteration.
//!
//! The global `nx × ny × nz` mesh is sharded along X into `k` slabs, one
//! per wafer ([`wse_multi::MultiFabric`]). Each wafer runs the same
//! per-tile programs as the single-wafer solver ([`crate::bicgstab`])
//! over its slab; at the wafer seams the default schedule works to keep
//! the interconnect off the critical path:
//!
//! * **Overlapped halo exchange** — a seam tile's ±x mesh neighbor lives
//!   on another wafer, so no broadcast stream arrives for it. Instead of
//!   a blocking halo phase, each SpMV runs as one *merged window*
//!   ([`MultiFabric::run_linked`]): seam tiles launch their outbound
//!   iterate column on a background thread (colors [`HALO_EAST`] /
//!   [`HALO_WEST`], through the declared edge ports and the host
//!   interconnect, [`wse_multi::HostLink`]) while every tile computes the
//!   interior SpMV; the inbound plane lands in a halo buffer that a
//!   receive-triggered fold task adds in with one fused multiply-add
//!   ([`crate::spmv3d::build_overlap_halo`]). Wire time that fits under
//!   the calibrated compute window is *hidden*
//!   ([`MultiIterCycles::halo_hidden`], trace span `"halo_overlap"`);
//!   only the remainder is *exposed* ([`MultiIterCycles::halo`], trace
//!   span `"halo_exposed"` at the window's tail).
//! * **Tree host combine** — each wafer reduces on-wafer in fp32; the
//!   host then combines the `k` partials over a binomial tree
//!   (`⌈log₂ k⌉` levels up, the same back down — `2·⌈log₂ k⌉` link
//!   latencies instead of the serial `k`-hop scan), writes the global
//!   result back, and triggers the on-wafer broadcast (trace span
//!   `"host_allreduce"`).
//! * **Single-reduction fused iteration** ([`build_fused`][WaferBicgstabMulti::build_fused],
//!   the bench default) — the rearranged recurrences batch all fourteen
//!   dot products of one BiCGStab iteration into one fp32 payload,
//!   reduced by one on-wafer [`ChainReduce`] plus one binomial host
//!   round-trip per iteration; the host derives α, ω, β from the lanes
//!   and broadcasts seven scalars back. Iteration order: window A
//!   (`p := r + β(p − ω s)` co-scheduled with `v := A r` and the halo of
//!   `r` — the update widens the window the wire latency hides behind),
//!   `upd_s`, window B (`zv := A s` over the halo of `s`), the fused dot
//!   task, the single reduction, then the trailing updates.
//!
//! Compute phases run **concurrently, one thread per wafer**
//! ([`MultiFabric::run_each`]); the ensemble synchronizes only at the
//! merged windows and the reduction, mirroring how a real host runtime
//! would drive k machines. [`build_serial`][WaferBicgstabMulti::build_serial]
//! retains the blocking schedule (trace phase `"halo"`, four scalar
//! round-trips) as the measured baseline the overlapped gates compare
//! against.
//!
//! The hierarchical modes are numerically equivalent — but not bit-equal
//! — to the single-wafer solve (reduction and halo summation orders
//! differ). The bit-exact cross-validation path is *transparent* mode:
//! build the ordinary [`WaferBicgstab`] on one fused fabric, split it
//! with [`MultiFabric::split_x`], and drive it through the
//! [`crate::exec::WaferExec`] impl for `MultiFabric` — under
//! [`wse_multi::HostLink::ideal`] that reproduces the single-wafer
//! residual trajectory bit for bit.

use crate::allreduce::{AllReduceSplit, ChainReduce};
use crate::bicgstab::{alloc_solver_vecs, build_scalar_tasks, regs, TileVecs};
use crate::exec::WaferExec;
use crate::kernels::xpay_stmts;
use crate::krylov::{self, IterCycles, Krylov, Phase, Slot, SolveStats, Step, Tasks};
use crate::recovery::{self, RecoveryLog, RecoveryPolicy};
use crate::routing::configure_spmv_routes;
use crate::spmv3d::{
    build_overlap_halo, build_spmv_tile_halo, build_spmv_tile_overlapped, load_coefficients,
    tile_coefficients, HaloBuffers, OverlapHalo, SpmvLayout, SpmvTasks,
};
use crate::WaferBicgstab;
use std::cell::Cell;
use stencil::decomp::Mapping3D;
use stencil::dia::DiaMatrix;
use stencil::precond::has_unit_diagonal;
use wse_arch::dsr::mk;
use wse_arch::fabric::StallReport;
use wse_arch::instr::{Op, Stmt, Task, TensorInstr};
use wse_arch::types::{Color, Dtype, Port, Reg, TaskId};
use wse_float::F16;
use wse_multi::MultiFabric;

/// Virtual channel carrying halo planes eastward across wafer seams.
/// Clear of the SpMV tessellation (0..5) and both AllReduce instances
/// (10..22); allocated in [`wse_dsl::colors`].
pub const HALO_EAST: Color = wse_dsl::colors::SEAM_EAST;
/// Virtual channel carrying halo planes westward across wafer seams.
pub const HALO_WEST: Color = wse_dsl::colors::SEAM_WEST;

/// Number of fp32 dot-product lanes in the fused iteration's payload.
const PAY_LANES: u32 = 14;

/// Broadcast reply registers of the fused iteration, in host write /
/// chain stream order: `[α, −α, ω, −ω, αω, β, ‖r_new‖²]`.
const BC_REGS: [Reg; 7] = [
    regs::ALPHA,
    regs::NEG_ALPHA,
    regs::OMEGA,
    regs::NEG_OMEGA,
    regs::ALPHA_OMEGA,
    regs::BETA,
    regs::RR,
];

/// How seam halo exchanges are scheduled relative to the SpMV compute.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum HaloSchedule {
    /// A dedicated blocking halo phase before each SpMV (the pre-overlap
    /// schedule): the whole ensemble waits out the seam wire time.
    Serial,
    /// Interior-first overlapped schedule: the seam columns are launched
    /// on background threads, interior compute starts immediately, and
    /// only the boundary fold waits on the inbound stream — the wire time
    /// hides behind the SpMV window.
    #[default]
    Overlapped,
}

/// Per-tile halo-exchange tasks (seam tiles only): one per SpMV source
/// vector.
#[derive(Copy, Clone, Debug)]
struct HaloTasks {
    /// Exchanges the live part of `p` (before `s := A p`).
    p: TaskId,
    /// Exchanges the live part of `q` (before `y := A q`).
    q: TaskId,
}

/// The overlapped halo programs of one seam tile, one per SpMV flavor.
struct OverlapPair {
    /// Halo of `p` overlapping `s := A p`.
    ps: OverlapHalo,
    /// Halo of `q` overlapping `y := A q`.
    qy: OverlapHalo,
}

/// A tile's seam communication program (depends on the schedule).
enum SeamComm {
    /// Interior tile: no seam traffic.
    None,
    /// [`HaloSchedule::Serial`]: blocking exchange tasks.
    Serial(HaloTasks),
    /// [`HaloSchedule::Overlapped`]: background send/recv + fold barriers.
    Overlap(OverlapPair),
}

/// One tile's full program in the distributed solver.
struct TileProgram {
    vecs: TileVecs,
    /// The [`krylov::BICGSTAB`] slots (SpMV entries and core-local phases;
    /// the reductions are the per-wafer [`AllReduceSplit`]s).
    tasks: Tasks,
    seam: SeamComm,
}

/// Cycle counts of one distributed iteration.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MultiIterCycles {
    /// The wafer-local phases (SpMVs, dots, on-wafer reduce+broadcast,
    /// updates, scalar arithmetic).
    pub compute: IterCycles,
    /// **Exposed** seam-halo cycles: wall-clock time the ensemble stalled
    /// on seam traffic. Under [`HaloSchedule::Serial`] this is the whole
    /// exchange; under [`HaloSchedule::Overlapped`] only the part that
    /// outlasted the SpMV window.
    pub halo: u64,
    /// Seam-halo wire cycles hidden behind SpMV compute (overlapped
    /// schedule only). Informational: not part of [`Self::total`].
    pub halo_hidden: u64,
    /// The host-level AllReduce hops (combine latency + broadcast).
    pub host_allreduce: u64,
}

impl MultiIterCycles {
    /// Total ensemble cycles of the iteration (hidden halo cycles are not
    /// wall-clock, so they do not count).
    pub fn total(&self) -> u64 {
        self.compute.total() + self.halo + self.host_allreduce
    }
}

/// One seam tile's memory layout and tasks in the fused single-reduction
/// solver (see [`WaferBicgstabMulti::build_fused`]).
struct FusedTile {
    /// Padded `r` (SpMV source for `v := A r`), `z + 2` words.
    r_pad: u32,
    /// Padded `s` (SpMV source for `zv := A s`), `z + 2` words.
    s_pad: u32,
    /// `v = A r`.
    v: u32,
    /// `zv = A s`.
    zv: u32,
    /// Search direction `p`.
    p: u32,
    /// Scratch `q = r − α s`; its storage doubles as the recurrence
    /// carrier `t = s − ω·zv` (q's last read in `upd_rt` precedes t's
    /// write there, and t's last read in `upd_s` precedes q's write in
    /// `upd_xq` — the lifetimes never overlap).
    q: u32,
    /// Shadow residual r̂₀.
    r0: u32,
    /// Iterate x.
    x: u32,
    spmv_rv: SpmvTasks,
    spmv_szv: SpmvTasks,
    upd_p: TaskId,
    upd_s: TaskId,
    /// All fourteen dot products of the iteration, stored to the payload.
    dots: TaskId,
    upd_xq: TaskId,
    upd_rt: TaskId,
    /// `(r, r)` into payload lane 0 (for [`WaferBicgstabMulti::residual_norm`]).
    dot_rr: TaskId,
    /// Overlapped halo of `r` (seam tiles only).
    halo_r: Option<OverlapHalo>,
    /// Overlapped halo of `s` (seam tiles only).
    halo_s: Option<OverlapHalo>,
}

/// The fused single-reduction solver's ensemble-level parts.
struct FusedParts {
    /// Per-tile programs, global `y * fabric_w + x` order.
    tiles: Vec<FusedTile>,
    /// Per-wafer vector AllReduce (local coordinates).
    chains: Vec<ChainReduce>,
    /// Host round-trip cycles of the 14-lane combine + 7-word reply over
    /// the binomial host tree.
    hop_cycles: u64,
    /// Byte address of the 14-lane fp32 dot payload (same on every tile).
    pay: u32,
    /// Byte address of the 7-word fp32 host reply (same on every tile).
    bc_src: u32,
}

/// The distributed BiCGStab driver: per-wafer subdomain programs plus the
/// host-side orchestration of halo exchanges and the hierarchical
/// AllReduce.
pub struct WaferBicgstabMulti {
    mapping: Mapping3D,
    tiles: Vec<TileProgram>,
    /// Per-wafer split reduction (local coordinates).
    reductions: Vec<AllReduceSplit>,
    /// Modeled cycles of the host-level combine tree: `2·⌈log₂ k⌉` one-way
    /// link latencies (up and down).
    host_hop_cycles: u64,
    /// Halo/SpMV schedule of the classic iteration.
    schedule: HaloSchedule,
    /// Modeled one-way wire cycles of one seam halo exchange (latency plus
    /// the two fp16 boundary planes crossing the link).
    halo_wire_cycles: u64,
    /// Measured cycles of the two pure-compute SpMV windows (calibrated
    /// once at [`WaferBicgstabMulti::load_rhs`]); split each merged
    /// `spmv+halo` window into compute and exposed-halo parts. For the
    /// fused solver window 0 is `upd_p + spmv_rv` (the p-update is
    /// co-scheduled so the halo latency hides behind more compute) and
    /// window 1 is `spmv_szv`; the classic overlapped schedule calibrates
    /// one `spmv_ps` window and uses it for both.
    spmv_compute: [Cell<u64>; 2],
    /// Present when built by [`WaferBicgstabMulti::build_fused`]; replaces
    /// `tiles`/`reductions` wholesale.
    fused: Option<FusedParts>,
}

impl WaferBicgstabMulti {
    /// Distributes the system matrix across the ensemble's slabs and
    /// builds every wafer's subdomain program. `multi` must be freshly
    /// created by [`MultiFabric::new`] (this builder declares the seam
    /// channels and pairs them).
    ///
    /// # Panics
    /// Panics if the matrix is not a unit-diagonal 7-point operator, the
    /// mesh does not exactly fill the ensemble grid, any slab is narrower
    /// than 2 tiles (the on-wafer AllReduce needs a 2×2 region), or a
    /// tile runs out of SRAM.
    pub fn build(multi: &mut MultiFabric, a: &DiaMatrix<F16>) -> WaferBicgstabMulti {
        Self::build_with_schedule(multi, a, HaloSchedule::Overlapped)
    }

    /// Like [`WaferBicgstabMulti::build`], with the pre-overlap blocking
    /// halo schedule — the seam exchange runs as a dedicated phase before
    /// each SpMV and the ensemble pays the full wire time. Kept for
    /// A/B comparison and as the schedule `perf-model`'s serial
    /// interconnect model prices.
    ///
    /// # Panics
    /// As [`WaferBicgstabMulti::build`].
    pub fn build_serial(multi: &mut MultiFabric, a: &DiaMatrix<F16>) -> WaferBicgstabMulti {
        Self::build_with_schedule(multi, a, HaloSchedule::Serial)
    }

    /// What every builder starts with: validates the system against the
    /// ensemble grid, then programs each wafer's tessellation routes and
    /// its seam halo channels (edge declarations plus ramp routes).
    fn prepare_shards(multi: &mut MultiFabric, a: &DiaMatrix<F16>) -> Mapping3D {
        assert!(has_unit_diagonal(a), "matrix must be diagonally preconditioned");
        assert_eq!(a.offsets().len(), 7, "7-point stencil required");
        let mapping = Mapping3D::new(a.mesh(), multi.global_width(), multi.height());
        assert_eq!(
            (mapping.fabric_w, mapping.fabric_h),
            (multi.global_width(), multi.height()),
            "mesh X×Y must exactly fill the ensemble grid (slab bookkeeping)"
        );
        let (h, k) = (mapping.fabric_h, multi.k());
        for m in 0..k {
            let lw = multi.slab(m).len();
            assert!(lw >= 2 && h >= 2, "each wafer slab needs at least 2×2 tiles, got {lw}×{h}");
            let shard = multi.shard_mut(m);
            configure_spmv_routes(shard, lw, h);
            if m + 1 < k {
                for y in 0..h {
                    shard.open_edge(lw - 1, y, Port::East, HALO_EAST);
                    shard.open_edge(lw - 1, y, Port::East, HALO_WEST);
                    shard.set_route(lw - 1, y, Port::Ramp, HALO_EAST, &[Port::East]);
                    shard.set_route(lw - 1, y, Port::East, HALO_WEST, &[Port::Ramp]);
                }
            }
            if m > 0 {
                for y in 0..h {
                    shard.open_edge(0, y, Port::West, HALO_WEST);
                    shard.open_edge(0, y, Port::West, HALO_EAST);
                    shard.set_route(0, y, Port::Ramp, HALO_WEST, &[Port::West]);
                    shard.set_route(0, y, Port::West, HALO_EAST, &[Port::Ramp]);
                }
            }
        }
        mapping
    }

    fn build_with_schedule(
        multi: &mut MultiFabric,
        a: &DiaMatrix<F16>,
        schedule: HaloSchedule,
    ) -> WaferBicgstabMulti {
        let mapping = Self::prepare_shards(multi, a);
        let (gw, h) = (mapping.fabric_w, mapping.fabric_h);
        let z = mapping.z as u32;
        let k = multi.k();

        // The per-wafer split AllReduce.
        let reductions = (0..k)
            .map(|m| {
                let lw = multi.slab(m).len();
                let shard = multi.shard_mut(m);
                AllReduceSplit::build(shard, lw, h, regs::AR_IN, regs::AR_OUT, regs::AR_ACC)
            })
            .collect();

        // Per-tile programs, addressed by global coordinates.
        let mut tiles = Vec::with_capacity(gw * h);
        for y in 0..h {
            for gx in 0..gw {
                let (m, lx) = multi.to_local(gx);
                let lw = multi.slab(m).len();
                let east_seam = lx == lw - 1 && gx + 1 < gw;
                let west_seam = lx == 0 && gx > 0;
                let tile = multi.shard_mut(m).tile_mut(lx, y);

                let (diag, vecs) = alloc_solver_vecs(tile, z);
                let coeffs = tile_coefficients(a, gx, y);
                let lay_ps = SpmvLayout { z, diag, vpad: vecs.p_pad, u: vecs.s };
                let lay_qy = SpmvLayout { z, diag, vpad: vecs.q_pad, u: vecs.y };
                load_coefficients(tile, &lay_ps, &coeffs);
                tile.mem.write_f16(vecs.p_pad, F16::ZERO);
                tile.mem.write_f16(vecs.p_pad + 2 * (z + 1), F16::ZERO);
                tile.mem.write_f16(vecs.q_pad, F16::ZERO);
                tile.mem.write_f16(vecs.q_pad + 2 * (z + 1), F16::ZERO);

                let (spmv_ps, spmv_qy, seam) = if !(east_seam || west_seam) {
                    // Interior tile: no seam machinery, byte-identical
                    // program under both schedules.
                    let none = HaloBuffers { xp: None, xm: None };
                    (
                        build_spmv_tile_halo(tile, lx, y, lw, h, lay_ps, none, None),
                        build_spmv_tile_halo(tile, lx, y, lw, h, lay_qy, none, None),
                        SeamComm::None,
                    )
                } else {
                    // A slab is ≥ 2 wide, so a tile sits on at most one seam.
                    let buf = tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM: halo buffer");
                    let (send, recv_color, coeff) = if east_seam {
                        (HALO_EAST, HALO_WEST, diag[0])
                    } else {
                        (HALO_WEST, HALO_EAST, diag[1])
                    };
                    match schedule {
                        HaloSchedule::Serial => {
                            let bufs = HaloBuffers {
                                xp: east_seam.then_some(buf),
                                xm: west_seam.then_some(buf),
                            };
                            let spmv_ps =
                                build_spmv_tile_halo(tile, lx, y, lw, h, lay_ps, bufs, None);
                            let spmv_qy =
                                build_spmv_tile_halo(tile, lx, y, lw, h, lay_qy, bufs, None);
                            let p = build_halo_task(
                                tile,
                                "halo-p",
                                vecs.p_pad + 2,
                                buf,
                                send,
                                recv_color,
                                z,
                            );
                            let q = build_halo_task(
                                tile,
                                "halo-q",
                                vecs.q_pad + 2,
                                buf,
                                send,
                                recv_color,
                                z,
                            );
                            (spmv_ps, spmv_qy, SeamComm::Serial(HaloTasks { p, q }))
                        }
                        HaloSchedule::Overlapped => {
                            // Both flavors share the halo buffer: their
                            // windows never overlap in the iteration.
                            let ps = build_overlap_halo(
                                tile,
                                vecs.p_pad + 2,
                                buf,
                                coeff,
                                vecs.s,
                                send,
                                recv_color,
                                z,
                            );
                            let qy = build_overlap_halo(
                                tile,
                                vecs.q_pad + 2,
                                buf,
                                coeff,
                                vecs.y,
                                send,
                                recv_color,
                                z,
                            );
                            let spmv_ps = build_spmv_tile_overlapped(
                                tile,
                                lx,
                                y,
                                lw,
                                h,
                                lay_ps,
                                vec![ps.fold],
                                None,
                            );
                            let spmv_qy = build_spmv_tile_overlapped(
                                tile,
                                lx,
                                y,
                                lw,
                                h,
                                lay_qy,
                                vec![qy.fold],
                                None,
                            );
                            (spmv_ps, spmv_qy, SeamComm::Overlap(OverlapPair { ps, qy }))
                        }
                    }
                };
                let mut tasks = build_scalar_tasks(&mut tile.core, &vecs, z);
                tasks[Slot::SpmvPs] = spmv_ps.start;
                tasks[Slot::SpmvQy] = spmv_qy.start;
                tiles.push(TileProgram { vecs, tasks, seam });
            }
        }
        multi.pair_seams();
        for m in 0..k {
            crate::debug_lint(multi.shard(m));
        }

        let levels = (k as f64).log2().ceil() as u64;
        let host_hop_cycles = 2 * levels * multi.link().latency_cycles;
        WaferBicgstabMulti {
            mapping,
            tiles,
            reductions,
            host_hop_cycles,
            schedule,
            halo_wire_cycles: halo_wire_cycles(multi, z),
            spmv_compute: [Cell::new(0), Cell::new(0)],
            fused: None,
        }
    }

    /// Builds the **fused single-reduction** distributed solver: the same
    /// BiCGStab trajectory re-derived so all fourteen scalar products of an
    /// iteration are computed *before* α and ω are known, batched into one
    /// 14-lane fp32 payload, and reduced in a single hierarchical
    /// AllReduce ([`crate::allreduce::ChainReduce`] on-wafer, binomial
    /// host tree across wafers) — one host round-trip per iteration
    /// instead of three, on top of the overlapped halo schedule.
    ///
    /// The recurrence port follows `solver::pipelined::cg_single_reduction`:
    /// with `v = A r` and `zv = A s` every classic scalar is a polynomial
    /// in the pre-α dots (see `DESIGN.md` §12). The host keeps no state —
    /// β and ω live in tile registers — so checkpoint/rollback recovery
    /// works unchanged.
    ///
    /// # Panics
    /// As [`WaferBicgstabMulti::build`].
    pub fn build_fused(multi: &mut MultiFabric, a: &DiaMatrix<F16>) -> WaferBicgstabMulti {
        let mapping = Self::prepare_shards(multi, a);
        let (gw, h) = (mapping.fabric_w, mapping.fabric_h);
        let z = mapping.z as u32;
        let k = multi.k();

        // Per-tile programs. The payload/reply blocks must land at the
        // same address on every tile (the chain streams them blind), so
        // the layout is allocated identically everywhere and asserted.
        let mut tiles = Vec::with_capacity(gw * h);
        let mut pay_addr: Option<u32> = None;
        let mut bc_addr: Option<u32> = None;
        for y in 0..h {
            for gx in 0..gw {
                let (m, lx) = multi.to_local(gx);
                let lw = multi.slab(m).len();
                let east_seam = lx == lw - 1 && gx + 1 < gw;
                let west_seam = lx == 0 && gx > 0;
                let tile = multi.shard_mut(m).tile_mut(lx, y);

                let mut diag = [0u32; 6];
                for d in &mut diag {
                    *d = tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM: diagonals");
                }
                let r_pad = tile.mem.alloc_vec(z + 2, Dtype::F16).expect("SRAM: r");
                let s_pad = tile.mem.alloc_vec(z + 2, Dtype::F16).expect("SRAM: s");
                let v = tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM: v");
                let zv = tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM: zv");
                let p = tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM: p");
                let q = tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM: q");
                let r0 = tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM: r0");
                let x = tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM: x");
                let pay = tile.mem.alloc_vec(PAY_LANES, Dtype::F32).expect("SRAM: dot payload");
                let bc_src =
                    tile.mem.alloc_vec(BC_REGS.len() as u32, Dtype::F32).expect("SRAM: reply");
                assert_eq!(*pay_addr.get_or_insert(pay), pay, "payload address must be uniform");
                assert_eq!(*bc_addr.get_or_insert(bc_src), bc_src, "reply address must be uniform");

                let coeffs = tile_coefficients(a, gx, y);
                let lay_rv = SpmvLayout { z, diag, vpad: r_pad, u: v };
                let lay_szv = SpmvLayout { z, diag, vpad: s_pad, u: zv };
                load_coefficients(tile, &lay_rv, &coeffs);
                tile.mem.write_f16(r_pad, F16::ZERO);
                tile.mem.write_f16(r_pad + 2 * (z + 1), F16::ZERO);
                tile.mem.write_f16(s_pad, F16::ZERO);
                tile.mem.write_f16(s_pad + 2 * (z + 1), F16::ZERO);

                let (halo_r, halo_s) = if east_seam || west_seam {
                    let buf = tile.mem.alloc_vec(z, Dtype::F16).expect("SRAM: halo buffer");
                    let (send, recv_color, coeff) = if east_seam {
                        (HALO_EAST, HALO_WEST, diag[0])
                    } else {
                        (HALO_WEST, HALO_EAST, diag[1])
                    };
                    let hr =
                        build_overlap_halo(tile, r_pad + 2, buf, coeff, v, send, recv_color, z);
                    let hs =
                        build_overlap_halo(tile, s_pad + 2, buf, coeff, zv, send, recv_color, z);
                    (Some(hr), Some(hs))
                } else {
                    (None, None)
                };
                let folds_r = halo_r.iter().map(|o| o.fold).collect();
                let folds_s = halo_s.iter().map(|o| o.fold).collect();
                let spmv_rv = build_spmv_tile_overlapped(tile, lx, y, lw, h, lay_rv, folds_r, None);
                let spmv_szv =
                    build_spmv_tile_overlapped(tile, lx, y, lw, h, lay_szv, folds_s, None);
                let tasks = build_fused_tasks(
                    &mut tile.core,
                    FusedAddrs { r: r_pad + 2, s: s_pad + 2, v, zv, p, q, r0, x, pay },
                    z,
                );
                tiles.push(FusedTile {
                    r_pad,
                    s_pad,
                    v,
                    zv,
                    p,
                    q,
                    r0,
                    x,
                    spmv_rv,
                    spmv_szv,
                    upd_p: tasks.upd_p,
                    upd_s: tasks.upd_s,
                    dots: tasks.dots,
                    upd_xq: tasks.upd_xq,
                    upd_rt: tasks.upd_rt,
                    dot_rr: tasks.dot_rr,
                    halo_r,
                    halo_s,
                });
            }
        }

        // The on-wafer vector AllReduce, one instance per shard (built
        // after tile allocation: it references the uniform payload/reply
        // addresses).
        let pay = pay_addr.expect("ensemble has at least one tile");
        let bc_src = bc_addr.expect("ensemble has at least one tile");
        let mut chains = Vec::with_capacity(k);
        for m in 0..k {
            let lw = multi.slab(m).len();
            let shard = multi.shard_mut(m);
            chains.push(ChainReduce::build(shard, lw, h, pay, PAY_LANES, bc_src, &BC_REGS));
        }
        multi.pair_seams();
        for m in 0..k {
            crate::debug_lint(multi.shard(m));
        }

        // One host round-trip per iteration: 14 fp32 lanes up, 7 down,
        // over the binomial tree.
        let levels = (k as f64).log2().ceil() as u64;
        let link = multi.link();
        let payload_bytes = (PAY_LANES * 4) as f64;
        let xfer = if link.bytes_per_cycle.is_finite() {
            (payload_bytes / link.bytes_per_cycle).ceil() as u64
        } else {
            0
        };
        let hop_cycles = 2 * levels * (link.latency_cycles + xfer);
        WaferBicgstabMulti {
            mapping,
            tiles: Vec::new(),
            reductions: Vec::new(),
            host_hop_cycles: hop_cycles,
            schedule: HaloSchedule::Overlapped,
            halo_wire_cycles: halo_wire_cycles(multi, z),
            spmv_compute: [Cell::new(0), Cell::new(0)],
            fused: Some(FusedParts { tiles, chains, hop_cycles, pay, bc_src }),
        }
    }

    /// The global mesh→grid mapping.
    pub fn mapping(&self) -> Mapping3D {
        self.mapping
    }

    fn idx(&self, x: usize, y: usize) -> usize {
        y * self.mapping.fabric_w + x
    }

    /// Cycle budget of one wafer-local phase (only a stall reaches it).
    fn compute_budget(&self) -> u64 {
        let m = self.mapping;
        200 * m.z as u64 + 200 * (m.fabric_w + m.fabric_h) as u64 + 50_000
    }

    /// Runs all wafers **independently to quiescence**, one thread per
    /// wafer, as trace phase `name` (nothing activated may touch a seam).
    /// Returns max per-wafer cycles.
    fn try_run_each(
        &self,
        multi: &mut MultiFabric,
        name: &'static str,
    ) -> Result<u64, Box<StallReport>> {
        multi.phase_begin(name);
        let r = multi.run_each(self.compute_budget(), recovery::STALL_WINDOW);
        multi.phase_end();
        r
    }

    /// Activates on every tile the task `pick(wafer, local_x, y)` names.
    fn activate_per_wafer(
        &self,
        multi: &mut MultiFabric,
        pick: impl Fn(usize, usize, usize) -> TaskId,
    ) {
        for y in 0..self.mapping.fabric_h {
            for gx in 0..self.mapping.fabric_w {
                let (m, x) = multi.to_local(gx);
                multi.activate(gx, y, pick(m, x, y));
            }
        }
    }

    /// Activates one wafer-local phase task on every tile — `pick` maps
    /// the tile index to it — and runs the phase with
    /// [`Self::try_run_each`].
    fn try_local_phase(
        &self,
        multi: &mut MultiFabric,
        name: &'static str,
        pick: impl Fn(usize) -> TaskId,
    ) -> Result<u64, Box<StallReport>> {
        let m = self.mapping;
        for y in 0..m.fabric_h {
            for x in 0..m.fabric_w {
                multi.activate(x, y, pick(self.idx(x, y)));
            }
        }
        self.try_run_each(multi, name)
    }

    /// One serial-schedule seam halo exchange: every seam tile streams its
    /// column across the host link while blocking on the opposite stream
    /// into its halo buffer. Runs the ensemble in linked lockstep (traffic
    /// crosses seams), bracketed as trace phase `"halo"`.
    fn try_halo_phase(
        &self,
        multi: &mut MultiFabric,
        pick: impl Fn(&HaloTasks) -> TaskId,
    ) -> Result<u64, Box<StallReport>> {
        let m = self.mapping;
        let mut any = false;
        for y in 0..m.fabric_h {
            for x in 0..m.fabric_w {
                if let SeamComm::Serial(halo) = &self.tiles[self.idx(x, y)].seam {
                    multi.activate(x, y, pick(halo));
                    any = true;
                }
            }
        }
        if !any {
            return Ok(0); // k = 1: no seams, no phase
        }
        let budget =
            16 * m.z as u64 + 2 * multi.link().latency_cycles + 200 * m.fabric_h as u64 + 50_000;
        multi.phase_begin("halo");
        let r = multi.run_linked(budget, recovery::STALL_WINDOW);
        multi.phase_end();
        if r.is_err() {
            // The exchange wedged (link down, or a stall outlasting the
            // watchdog): stamp the timeline so the recovery engine's
            // re-run of this halo is visible in traces.
            multi.phase_marker("halo_retry");
        }
        r
    }

    /// Runs one merged `spmv+halo` window of the overlapped schedule.
    /// `pick` maps a tile index to its SpMV entry task, an optional
    /// independent compute task co-scheduled into the same window (the
    /// fused solver folds `upd_p` into the first window so the halo
    /// latency hides behind more compute), plus, on seam tiles, the
    /// background halo `(send, recv)` pair launched alongside it. With no
    /// seams anywhere (k = 1) this degenerates to a plain `"spmv"`
    /// compute phase.
    ///
    /// Returns `(compute, exposed, hidden)`: the window up to the
    /// calibrated pure-compute time (`spmv_compute[cal]`) is compute, the
    /// tail is exposed halo, and `hidden` is the part of the modeled wire
    /// time that the window absorbed. The two attributions are stamped
    /// retroactively as trace spans `"halo_overlap"` / `"halo_exposed"`
    /// inside the window.
    fn try_merged_spmv(
        &self,
        multi: &mut MultiFabric,
        cal: usize,
        pick: impl Fn(usize) -> (TaskId, Option<TaskId>, Option<(TaskId, TaskId)>),
    ) -> Result<(u64, u64, u64), Box<StallReport>> {
        let m = self.mapping;
        let mut any_seam = false;
        for y in 0..m.fabric_h {
            for x in 0..m.fabric_w {
                let (spmv, extra, halo) = pick(self.idx(x, y));
                // Send/recv launch-and-retire first so the boundary column
                // is on the wire before the SpMV occupies the core.
                if let Some((send, recv)) = halo {
                    multi.activate(x, y, send);
                    multi.activate(x, y, recv);
                    any_seam = true;
                }
                if let Some(task) = extra {
                    multi.activate(x, y, task);
                }
                multi.activate(x, y, spmv);
            }
        }
        if !any_seam {
            return Ok((self.try_run_each(multi, "spmv")?, 0, 0));
        }
        let budget = self.compute_budget()
            + 16 * m.z as u64
            + 2 * multi.link().latency_cycles
            + 200 * m.fabric_h as u64
            + 50_000;
        let t0 = multi.cycle();
        multi.phase_begin("spmv+halo");
        let r = multi.run_linked(budget, recovery::STALL_WINDOW);
        multi.phase_end();
        if r.is_err() {
            multi.phase_marker("halo_retry");
        }
        let merged = r?;
        let t1 = t0 + merged;
        let cal = self.spmv_compute[cal].get();
        let compute = if cal == 0 { merged } else { cal.min(merged) };
        let exposed = merged - compute;
        let hidden = self.halo_wire_cycles.saturating_sub(exposed).min(merged);
        if hidden > 0 {
            multi.phase_span("halo_overlap", t0, t0 + hidden);
        }
        if exposed > 0 {
            multi.phase_span("halo_exposed", t1 - exposed, t1);
        }
        Ok((compute, exposed, hidden))
    }

    /// Calibrates the overlapped schedule's compute/halo attribution: runs
    /// each SpMV window once with **no** seam traffic (trace phase
    /// `"spmv_calibrate"`) and records its cycles. The fold barriers are
    /// host-`Activate`d so they fire on the zero-filled halo buffers
    /// (`u += coeff · 0`, a numeric no-op): the calibrated window prices
    /// interior compute *and* fold execution, leaving only genuine
    /// wait-for-remote-data as the exposed term. A fired fold re-blocks
    /// itself, restoring the built two-way-barrier state.
    ///
    /// The fused solver calibrates window 0 as `upd_p + spmv_rv` (the
    /// iteration co-schedules them; `upd_p` under the zeroed registers
    /// computes `p := r`, exactly what iteration 0 needs) and window 1 as
    /// `spmv_szv`. The classic schedule calibrates one `spmv_ps` window
    /// and uses it for both. No-op for the serial schedule or a seamless
    /// (k = 1) ensemble.
    fn calibrate_spmv(&self, multi: &mut MultiFabric) -> Result<(), Box<StallReport>> {
        if self.schedule != HaloSchedule::Overlapped {
            return Ok(());
        }
        let m = self.mapping;
        let fold_of = |i: usize, win: usize| -> Option<TaskId> {
            match &self.fused {
                Some(f) => {
                    let t = &f.tiles[i];
                    let h = if win == 0 { &t.halo_r } else { &t.halo_s };
                    h.as_ref().map(|h| h.fold)
                }
                None => match &self.tiles[i].seam {
                    SeamComm::Overlap(pair) => Some(pair.ps.fold),
                    _ => None,
                },
            }
        };
        let any_seam = (0..m.fabric_h * m.fabric_w).any(|i| fold_of(i, 0).is_some());
        if !any_seam {
            return Ok(());
        }
        let windows: usize = if self.fused.is_some() { 2 } else { 1 };
        for win in 0..windows {
            for y in 0..m.fabric_h {
                for x in 0..m.fabric_w {
                    let i = self.idx(x, y);
                    match &self.fused {
                        Some(f) => {
                            if win == 0 {
                                multi.activate(x, y, f.tiles[i].upd_p);
                                multi.activate(x, y, f.tiles[i].spmv_rv.start);
                            } else {
                                multi.activate(x, y, f.tiles[i].spmv_szv.start);
                            }
                        }
                        None => multi.activate(x, y, self.tiles[i].tasks[Slot::SpmvPs]),
                    }
                    if let Some(fold) = fold_of(i, win) {
                        let (wm, lx) = multi.to_local(x);
                        multi.shard_mut(wm).tile_mut(lx, y).core.activate(fold);
                    }
                }
            }
            let elapsed = self.try_run_each(multi, "spmv_calibrate")?;
            self.spmv_compute[win].set(elapsed);
            if windows == 1 {
                self.spmv_compute[1].set(elapsed);
            }
            // Defensive re-arm: a fired fold already re-blocked itself;
            // this only matters if a fold was released without firing.
            for y in 0..m.fabric_h {
                for x in 0..m.fabric_w {
                    if let Some(fold) = fold_of(self.idx(x, y), win) {
                        let (wm, lx) = multi.to_local(x);
                        multi.shard_mut(wm).tile_mut(lx, y).core.block(fold);
                    }
                }
            }
        }
        Ok(())
    }

    /// One classic-iteration SpMV with its seam halo, under whichever
    /// schedule this solver was built with: [`Slot::SpmvPs`] is `s := A p`,
    /// [`Slot::SpmvQy`] is `y := A q`.
    fn try_classic_spmv(
        &self,
        multi: &mut MultiFabric,
        c: &mut MultiIterCycles,
        slot: Slot,
    ) -> Result<(), Box<StallReport>> {
        let ps = slot == Slot::SpmvPs;
        match self.schedule {
            HaloSchedule::Serial => {
                c.halo += self.try_halo_phase(multi, |h| if ps { h.p } else { h.q })?;
                c.compute.spmv +=
                    self.try_local_phase(multi, "spmv", |i| self.tiles[i].tasks[slot])?;
            }
            HaloSchedule::Overlapped => {
                let (comp, exposed, hidden) = self.try_merged_spmv(multi, 0, |i| {
                    let t = &self.tiles[i];
                    let spmv = t.tasks[slot];
                    let halo = match &t.seam {
                        SeamComm::Overlap(pair) => {
                            let o = if ps { &pair.ps } else { &pair.qy };
                            Some((o.send, o.recv))
                        }
                        _ => None,
                    };
                    (spmv, None, halo)
                })?;
                c.compute.spmv += comp;
                c.halo += exposed;
                c.halo_hidden += hidden;
            }
        }
        Ok(())
    }

    /// Walks a [`krylov::BICGSTAB`] step table with the ensemble's own
    /// handlers: an SpMV carries its seam halo, a reduction is hierarchical
    /// (on-wafer trees plus the host combine), and every other step is a
    /// wafer-local compute phase.
    fn try_classic_steps(
        &self,
        multi: &mut MultiFabric,
        steps: &[Step],
    ) -> Result<MultiIterCycles, Box<StallReport>> {
        let mut c = MultiIterCycles::default();
        for &step in steps {
            match step {
                Step::Run { phase: Phase::Spmv, slot } => {
                    self.try_classic_spmv(multi, &mut c, slot)?
                }
                Step::Run { phase, slot } => {
                    let pick = |i: usize| self.tiles[i].tasks[slot];
                    c.compute.add(phase, self.try_local_phase(multi, phase.name(), pick)?)
                }
                Step::Reduce => {
                    let (on_wafer, host) = self.try_allreduce(multi)?;
                    c.compute.allreduce += on_wafer;
                    c.host_allreduce += host;
                }
                Step::ReduceBoth | Step::CopyReg { .. } => {
                    unreachable!("not a step of the classic BiCGStab table")
                }
            }
        }
        Ok(c)
    }

    /// The hierarchical AllReduce: on-wafer reduce trees (concurrent, per
    /// wafer), host-level fp32 combine of the `k` root partial sums (in
    /// wafer order, charged `2⌈log₂ k⌉` link latencies), then the on-wafer
    /// broadcasts. Returns `(on_wafer_cycles, host_cycles)`.
    fn try_allreduce(&self, multi: &mut MultiFabric) -> Result<(u64, u64), Box<StallReport>> {
        let budget = 100 * (self.mapping.fabric_w + self.mapping.fabric_h) as u64 + 50_000;
        self.activate_per_wafer(multi, |m, x, y| self.reductions[m].reduce_task(x, y));
        multi.phase_begin("allreduce");
        let on_wafer = multi.run_each(budget, recovery::STALL_WINDOW);
        multi.phase_end();
        let on_wafer = on_wafer?;

        multi.phase_begin("host_allreduce");
        // Host-side fp32 combine over the binomial wafer tree — the
        // summation order the modeled `2⌈log₂ k⌉` hop cycles actually buy
        // (for k = 2 it coincides with a serial left-to-right sum).
        let partials: Vec<f32> = self
            .reductions
            .iter()
            .enumerate()
            .map(|(m, red)| {
                let (rx, ry) = red.root();
                multi.shard(m).tile(rx, ry).core.regs[red.r_acc]
            })
            .collect();
        let sum = binomial_combine(partials);
        for (m, red) in self.reductions.iter().enumerate() {
            let (rx, ry) = red.root();
            multi.shard_mut(m).tile_mut(rx, ry).core.regs[red.r_acc] = sum;
        }
        if self.host_hop_cycles > 0 {
            multi.advance_idle(self.host_hop_cycles);
        }
        self.activate_per_wafer(multi, |m, x, y| self.reductions[m].bcast_task(x, y));
        let bcast = multi.run_each(budget, recovery::STALL_WINDOW);
        multi.phase_end();
        // The broadcast half runs on-wafer; only the hop latency is host time.
        Ok((on_wafer + bcast?, self.host_hop_cycles))
    }

    /// Runs the per-wafer 14-lane chain reduce (trace phase
    /// `"allreduce"`); afterwards every wafer root's payload holds its
    /// wafer's lane-wise partial sums.
    fn try_chain_reduce(&self, multi: &mut MultiFabric) -> Result<u64, Box<StallReport>> {
        let f = self.fused.as_ref().expect("fused driver");
        let budget =
            400 * (self.mapping.fabric_w + self.mapping.fabric_h) as u64 * PAY_LANES as u64
                + 50_000;
        self.activate_per_wafer(multi, |m, x, y| f.chains[m].reduce_task(x, y));
        multi.phase_begin("allreduce");
        let r = multi.run_each(budget, recovery::STALL_WINDOW);
        multi.phase_end();
        r
    }

    /// Reads each wafer root's reduced payload and combines the `k`
    /// copies lane-wise over the binomial host tree.
    fn combine_payload(&self, multi: &MultiFabric) -> Vec<f32> {
        let f = self.fused.as_ref().expect("fused driver");
        let per_wafer: Vec<Vec<f32>> = f
            .chains
            .iter()
            .enumerate()
            .map(|(m, chain)| {
                let (rx, ry) = chain.root();
                let tile = multi.shard(m).tile(rx, ry);
                (0..PAY_LANES).map(|j| tile.mem.read_f32(f.pay + 4 * j)).collect()
            })
            .collect();
        (0..PAY_LANES as usize)
            .map(|j| binomial_combine(per_wafer.iter().map(|w| w[j]).collect()))
            .collect()
    }

    /// The fused single-reduction AllReduce: chain reduce on every wafer,
    /// binomial host combine of all fourteen lanes, host-side derivation
    /// of every scalar the rest of the iteration needs, and the broadcast
    /// loading the 7-word reply `[α, −α, ω, −ω, αω, β, ‖r‖²]` into tile
    /// registers. One host round-trip. Returns
    /// `(on_wafer, host, ‖r_new‖²)`.
    fn try_fused_allreduce(
        &self,
        multi: &mut MultiFabric,
    ) -> Result<(u64, u64, f32), Box<StallReport>> {
        let f = self.fused.as_ref().expect("fused driver");
        let on_wafer = self.try_chain_reduce(multi)?;

        multi.phase_begin("host_allreduce");
        let g = self.combine_payload(multi);
        // The classic scalars as polynomials in the pre-α dots: with
        // q = r − α s and y = v − α·zv, every inner product expands over
        // the measured g's (see DESIGN.md §12 for the derivation).
        const EPS: f32 = 1e-30;
        let rho = g[0];
        let alpha = g[0] / (g[1] + EPS);
        let qy = g[4] - alpha * (g[5] + g[6]) + alpha * alpha * g[7];
        let yy = g[8] - 2.0 * alpha * g[9] + alpha * alpha * g[10];
        let omega = qy / (yy + EPS);
        let rho_next = (g[0] - alpha * g[1]) - omega * (g[2] - alpha * g[3]);
        let beta = (rho_next / (rho + EPS)) * (alpha / (omega + EPS));
        let qq = g[11] - 2.0 * alpha * g[12] + alpha * alpha * g[13];
        let rr_new = qq - 2.0 * omega * qy + omega * omega * yy;
        let reply = [alpha, -alpha, omega, -omega, alpha * omega, beta, rr_new];
        for (m, chain) in f.chains.iter().enumerate() {
            let (rx, ry) = chain.root();
            let tile = multi.shard_mut(m).tile_mut(rx, ry);
            for (i, &val) in reply.iter().enumerate() {
                tile.mem.write_f32(f.bc_src + 4 * i as u32, val);
            }
        }
        if f.hop_cycles > 0 {
            multi.advance_idle(f.hop_cycles);
        }
        let budget =
            400 * (self.mapping.fabric_w + self.mapping.fabric_h) as u64 * PAY_LANES as u64
                + 50_000;
        self.activate_per_wafer(multi, |m, x, y| f.chains[m].bcast_task(x, y));
        let bcast = multi.run_each(budget, recovery::STALL_WINDOW);
        multi.phase_end();
        Ok((on_wafer + bcast?, f.hop_cycles, rr_new))
    }

    /// One fused single-reduction iteration (see
    /// [`WaferBicgstabMulti::build_fused`]).
    fn try_iterate_fused(
        &self,
        multi: &mut MultiFabric,
    ) -> Result<MultiIterCycles, Box<StallReport>> {
        let f = self.fused.as_ref().expect("fused driver");
        let mut c = MultiIterCycles::default();
        // Window A: p := r + β (p − ω s) co-scheduled with v := A r and
        // the halo of r. The p-update is independent of the SpMV (it
        // touches p/s, the SpMV reads r and writes v), so it widens the
        // compute window the halo latency hides behind; its cycles are
        // part of the calibrated window and land in the `spmv` bucket.
        let (comp, exposed, hidden) = self.try_merged_spmv(multi, 0, |i| {
            let t = &f.tiles[i];
            (t.spmv_rv.start, Some(t.upd_p), t.halo_r.as_ref().map(|o| (o.send, o.recv)))
        })?;
        c.compute.spmv += comp;
        c.halo += exposed;
        c.halo_hidden += hidden;
        // s := v + β t  (≡ A p by the recurrence t = s_prev − ω·zv_prev).
        c.compute.update += self.try_local_phase(multi, "update", |i| f.tiles[i].upd_s)?;
        // Window B: zv := A s, halo of s overlapped behind it.
        let (comp, exposed, hidden) = self.try_merged_spmv(multi, 1, |i| {
            let t = &f.tiles[i];
            (t.spmv_szv.start, None, t.halo_s.as_ref().map(|o| (o.send, o.recv)))
        })?;
        c.compute.spmv += comp;
        c.halo += exposed;
        c.halo_hidden += hidden;
        // All fourteen dots of the iteration, one task, one payload.
        c.compute.dot += self.try_local_phase(multi, "dot", |i| f.tiles[i].dots)?;
        // The single hierarchical reduction + host scalar derivation.
        let (on_wafer, host, _rr) = self.try_fused_allreduce(multi)?;
        c.compute.allreduce += on_wafer;
        c.host_allreduce += host;
        // q := r − α s;  x += α p + ω q.
        c.compute.update += self.try_local_phase(multi, "update", |i| f.tiles[i].upd_xq)?;
        // r := q − ω v + αω zv;  t := s − ω zv.
        c.compute.update += self.try_local_phase(multi, "update", |i| f.tiles[i].upd_rt)?;
        Ok(c)
    }

    /// Fused `try_load_rhs`: `r = r̂₀ = b`, all
    /// recurrence vectors and scalar registers zeroed (the first
    /// iteration's `upd_p` then sets `p := r`, and ρ is re-derived from
    /// the payload every iteration — no warm-up reduction needed).
    fn try_load_rhs_fused(
        &self,
        multi: &mut MultiFabric,
        b: &[F16],
    ) -> Result<(), Box<StallReport>> {
        let f = self.fused.as_ref().expect("fused driver");
        let m = self.mapping;
        assert_eq!(b.len(), m.cores() * m.z, "rhs length mismatch");
        let zero = vec![F16::ZERO; m.z];
        for y in 0..m.fabric_h {
            for x in 0..m.fabric_w {
                let t = &f.tiles[self.idx(x, y)];
                let rows = m.core_rows(x, y);
                let local = &b[rows];
                multi.store_f16(x, y, t.r_pad + 2, local);
                multi.store_f16(x, y, t.r0, local);
                for addr in [t.s_pad + 2, t.v, t.zv, t.p, t.q, t.x] {
                    multi.store_f16(x, y, addr, &zero);
                }
                for reg in BC_REGS {
                    multi.set_reg(x, y, reg, 0.0);
                }
            }
        }
        self.calibrate_spmv(multi)
    }

    /// Loads the right-hand side and zeroes the iterate (`r = r̂₀ = p = b`,
    /// `x = 0`), then computes ρ₀ = (r̂₀, r) hierarchically.
    ///
    /// # Panics
    /// Panics on a fabric stall.
    pub fn load_rhs(&self, multi: &mut MultiFabric, b: &[F16]) {
        self.try_load_rhs(multi, b).unwrap_or_else(|e| panic!("bicgstab load stalled: {e}"))
    }

    /// Runs one distributed BiCGStab iteration.
    ///
    /// # Panics
    /// Panics on a fabric stall.
    pub fn iterate(&self, multi: &mut MultiFabric) -> MultiIterCycles {
        self.try_iterate(multi, 0).unwrap_or_else(|e| panic!("bicgstab iteration stalled: {e}"))
    }

    /// Computes ‖r‖ on the ensemble (hierarchical reduction).
    ///
    /// # Panics
    /// Panics on a fabric stall.
    pub fn residual_norm(&self, multi: &mut MultiFabric) -> f32 {
        self.try_residual_norm(multi)
            .unwrap_or_else(|e| panic!("bicgstab residual phase stalled: {e}")) as f32
    }

    /// Reads the iterate back from tile memories (global mesh order).
    pub fn read_x(&self, multi: &MultiFabric) -> Vec<F16> {
        let m = self.mapping;
        let mut out = vec![F16::ZERO; m.cores() * m.z];
        for y in 0..m.fabric_h {
            for x in 0..m.fabric_w {
                let addr = match &self.fused {
                    Some(f) => f.tiles[self.idx(x, y)].x,
                    None => self.tiles[self.idx(x, y)].vecs.x,
                };
                let rows = m.core_rows(x, y);
                out[rows].copy_from_slice(&multi.load_f16(x, y, addr, m.z));
            }
        }
        out
    }

    /// [`Krylov::solve_with_recovery`] on the ensemble, so the solve
    /// survives injected faults — including host-link faults armed on the
    /// [`MultiFabric`]: a dropped or corrupted seam frame is usually
    /// masked by the reliable transport's retransmission, a dead link or
    /// a dark stall trips the watchdog and rolls the whole ensemble back
    /// to the last [`crate::recovery::EnsembleCheckpoint`]. Any
    /// [`wse_multi::LinkDown`] declarations made along the way are
    /// appended to the returned log's event trail, so exhausted links are
    /// reported structurally, never silently.
    pub fn solve_with_recovery(
        &self,
        multi: &mut MultiFabric,
        a: &DiaMatrix<F16>,
        b: &[F16],
        iters: usize,
        policy: &RecoveryPolicy,
    ) -> (Vec<F16>, SolveStats<MultiIterCycles>, RecoveryLog) {
        let (x, stats, mut log) = Krylov::solve_with_recovery(self, multi, a, b, iters, policy);
        log.events.extend(multi.link_down_records().iter().map(|down| down.describe()));
        (x, stats, log)
    }
}

/// The ensemble under the shared solve loops. The classic schedules walk
/// [`krylov::BICGSTAB`] — the single-wafer iteration with a halo exchange
/// at each SpMV and every AllReduce in hierarchical form; the fused
/// single-reduction recurrence keeps its own sequence.
impl Krylov<MultiFabric> for WaferBicgstabMulti {
    type Cycles = MultiIterCycles;

    fn try_load_rhs(&self, multi: &mut MultiFabric, b: &[F16]) -> Result<(), Box<StallReport>> {
        if self.fused.is_some() {
            return self.try_load_rhs_fused(multi, b);
        }
        let m = self.mapping;
        assert_eq!(b.len(), m.cores() * m.z, "rhs length mismatch");
        for y in 0..m.fabric_h {
            for x in 0..m.fabric_w {
                let vecs = &self.tiles[self.idx(x, y)].vecs;
                let rows = m.core_rows(x, y);
                let local = &b[rows];
                multi.store_f16(x, y, vecs.r, local);
                multi.store_f16(x, y, vecs.r0, local);
                multi.store_f16(x, y, vecs.p_pad + 2, local);
                multi.store_f16(x, y, vecs.x, &vec![F16::ZERO; m.z]);
                multi.set_reg(x, y, regs::EPS, 1e-30);
            }
        }
        self.try_classic_steps(multi, krylov::BICGSTAB.seed)?;
        self.calibrate_spmv(multi)
    }

    fn try_iterate(
        &self,
        multi: &mut MultiFabric,
        _it: usize,
    ) -> Result<MultiIterCycles, Box<StallReport>> {
        if self.fused.is_some() {
            return self.try_iterate_fused(multi);
        }
        self.try_classic_steps(multi, krylov::BICGSTAB.iter)
    }

    fn try_residual_norm(&self, multi: &mut MultiFabric) -> Result<f64, Box<StallReport>> {
        if let Some(f) = &self.fused {
            // ‖r‖² through payload lane 0: local dot, chain reduce, host
            // combine. No broadcast — the tiles' registers stay untouched
            // (the stale upper lanes are rewritten by the next `dots`).
            self.try_local_phase(multi, "dot", |i| f.tiles[i].dot_rr)?;
            self.try_chain_reduce(multi)?;
            multi.phase_begin("host_allreduce");
            let rr = self.combine_payload(multi)[0];
            if f.hop_cycles > 0 {
                multi.advance_idle(f.hop_cycles);
            }
            multi.phase_end();
            return Ok(rr.max(0.0).sqrt() as f64);
        }
        let (steps, reg) = krylov::BICGSTAB.norm.expect("BiCGStab reduces its norm on-wafer");
        self.try_classic_steps(multi, steps)?;
        Ok(multi.reg(0, 0, reg).max(0.0).sqrt() as f64)
    }

    fn read_x(&self, multi: &MultiFabric) -> Vec<F16> {
        WaferBicgstabMulti::read_x(self, multi)
    }
}

/// Builds one seam tile's halo-exchange task: launch the outbound column
/// on a background thread (stream `z` fp16 words from `src` onto the
/// `send` channel toward the seam), then block the main thread receiving
/// the inbound column from the `recv` channel into the halo buffer. Send
/// and receive overlap, so the two sides of a seam cannot deadlock on
/// each other's backpressure.
fn build_halo_task(
    tile: &mut wse_arch::Tile,
    name: &'static str,
    src: u32,
    buf: u32,
    send: Color,
    recv: Color,
    z: u32,
) -> TaskId {
    let core = &mut tile.core;
    let d_src = core.add_dsr(mk::tensor16(src, z));
    let d_buf = core.add_dsr(mk::tensor16(buf, z));
    let d_tx = core.add_dsr(mk::tx16(send, z));
    let d_rx = core.add_dsr(mk::rx16(recv, z));
    let body = vec![
        Stmt::InitDsr { dsr: d_tx, desc: mk::tx16(send, z) },
        Stmt::InitDsr { dsr: d_rx, desc: mk::rx16(recv, z) },
        Stmt::Launch {
            slot: 5,
            instr: TensorInstr { op: Op::Copy, dst: Some(d_tx), a: Some(d_src), b: None },
            on_complete: None,
        },
        Stmt::Exec(TensorInstr { op: Op::Copy, dst: Some(d_buf), a: Some(d_rx), b: None }),
    ];
    let id = core.add_task(Task::new(name, body));
    core.mark_entry(id);
    id
}

/// Combines fp32 partials over a binomial tree in deterministic pair
/// order — the summation shape the modeled `2⌈log₂ k⌉` host hops pay for.
fn binomial_combine(mut partials: Vec<f32>) -> f32 {
    assert!(!partials.is_empty(), "combine needs at least one wafer");
    let mut gap = 1;
    while gap < partials.len() {
        let mut i = 0;
        while i + gap < partials.len() {
            let add = partials[i + gap];
            partials[i] += add;
            i += 2 * gap;
        }
        gap *= 2;
    }
    partials[0]
}

/// Modeled one-way wire cycles of one seam halo exchange: link latency
/// plus the boundary plane (`fabric_h` tiles × `z` fp16 words per seam
/// direction) crossing the link. Used only to attribute hidden-vs-exposed
/// cycles inside the merged overlapped window — wall-clock exposure is
/// always measured, never modeled.
fn halo_wire_cycles(multi: &MultiFabric, z: u32) -> u64 {
    let link = multi.link();
    let plane_bytes = 2.0 * multi.height() as f64 * z as f64;
    let xfer = if link.bytes_per_cycle.is_finite() {
        (plane_bytes / link.bytes_per_cycle).ceil() as u64
    } else {
        0
    };
    link.latency_cycles + xfer
}

/// Byte addresses of one fused tile's vectors (live parts) and payload.
struct FusedAddrs {
    r: u32,
    s: u32,
    v: u32,
    zv: u32,
    p: u32,
    /// Doubles as `t` (see [`FusedTile::q`]).
    q: u32,
    r0: u32,
    x: u32,
    pay: u32,
}

/// The fused iteration's core-local task ids.
struct FusedTaskIds {
    upd_p: TaskId,
    upd_s: TaskId,
    dots: TaskId,
    upd_xq: TaskId,
    upd_rt: TaskId,
    dot_rr: TaskId,
}

/// Statements computing the local dot `Σ a·b` (fp16 MAC, fp32 accumulate)
/// and storing it to the fp32 payload lane at byte address `lane`.
fn fused_dot_stmts(core: &mut wse_arch::Core, a: u32, b: u32, lane: u32, z: u32) -> Vec<Stmt> {
    let da = core.add_dsr(mk::tensor16(a, z));
    let db = core.add_dsr(mk::tensor16(b, z));
    let dp = core.add_dsr(mk::tensor32(lane, 1));
    vec![
        Stmt::SetReg { reg: regs::DOT_ACC, value: 0.0 },
        Stmt::Exec(TensorInstr {
            op: Op::MacReg { acc: regs::DOT_ACC },
            dst: None,
            a: Some(da),
            b: Some(db),
        }),
        Stmt::Exec(TensorInstr {
            op: Op::StoreReg { reg: regs::DOT_ACC },
            dst: Some(dp),
            a: None,
            b: None,
        }),
    ]
}

/// Builds one tile's core-local tasks of the fused single-reduction
/// iteration: the two register-driven vector-update pairs, the fourteen
/// batched dots, and the residual-only dot. Every task is a host-activated
/// entry point.
fn build_fused_tasks(core: &mut wse_arch::Core, at: FusedAddrs, z: u32) -> FusedTaskIds {
    // p := p − ω_prev s;  p := r + β_prev p.
    let upd_p = {
        let mut body = xpay_stmts(core, regs::NEG_OMEGA, at.p, at.p, at.s, z);
        body.extend(xpay_stmts(core, regs::BETA, at.p, at.r, at.p, z));
        core.add_task(Task::new("upd_p", body))
    };
    // s := v + β_prev t   (t lives in q's storage).
    let upd_s = {
        let body = xpay_stmts(core, regs::BETA, at.s, at.v, at.q, z);
        core.add_task(Task::new("upd_s", body))
    };
    // The fourteen dots of the iteration. Lane order is the host-side
    // contract in `try_fused_allreduce`:
    //   g0 (r̂₀,r)  g1 (r̂₀,s)  g2 (r̂₀,v)  g3 (r̂₀,zv)
    //   g4 (r,v)   g5 (r,zv)  g6 (s,v)   g7 (s,zv)
    //   g8 (v,v)   g9 (v,zv)  g10 (zv,zv)
    //   g11 (r,r)  g12 (r,s)  g13 (s,s)
    let dots = {
        let pairs: [(u32, u32); PAY_LANES as usize] = [
            (at.r0, at.r),
            (at.r0, at.s),
            (at.r0, at.v),
            (at.r0, at.zv),
            (at.r, at.v),
            (at.r, at.zv),
            (at.s, at.v),
            (at.s, at.zv),
            (at.v, at.v),
            (at.v, at.zv),
            (at.zv, at.zv),
            (at.r, at.r),
            (at.r, at.s),
            (at.s, at.s),
        ];
        let mut body = Vec::new();
        for (j, &(a, b)) in pairs.iter().enumerate() {
            body.extend(fused_dot_stmts(core, a, b, at.pay + 4 * j as u32, z));
        }
        core.add_task(Task::new("fused_dots", body))
    };
    // q := r − α s;  x += α p;  x += ω q.
    let upd_xq = {
        let mut body = xpay_stmts(core, regs::NEG_ALPHA, at.q, at.r, at.s, z);
        let dp = core.add_dsr(mk::tensor16(at.p, z));
        let dq = core.add_dsr(mk::tensor16(at.q, z));
        let dx1 = core.add_dsr(mk::tensor16(at.x, z));
        let dx2 = core.add_dsr(mk::tensor16(at.x, z));
        body.push(Stmt::Exec(TensorInstr {
            op: Op::Axpy { scalar: regs::ALPHA },
            dst: Some(dx1),
            a: Some(dp),
            b: None,
        }));
        body.push(Stmt::Exec(TensorInstr {
            op: Op::Axpy { scalar: regs::OMEGA },
            dst: Some(dx2),
            a: Some(dq),
            b: None,
        }));
        core.add_task(Task::new("upd_xq", body))
    };
    // r := q − ω v;  r += αω zv  (⟹ r = q − ω y);  t := s − ω zv.
    // q's storage is rewritten as t only after its last read.
    let upd_rt = {
        let mut body = xpay_stmts(core, regs::NEG_OMEGA, at.r, at.q, at.v, z);
        let dzv = core.add_dsr(mk::tensor16(at.zv, z));
        let dr = core.add_dsr(mk::tensor16(at.r, z));
        body.push(Stmt::Exec(TensorInstr {
            op: Op::Axpy { scalar: regs::ALPHA_OMEGA },
            dst: Some(dr),
            a: Some(dzv),
            b: None,
        }));
        body.extend(xpay_stmts(core, regs::NEG_OMEGA, at.q, at.s, at.zv, z));
        core.add_task(Task::new("upd_rt", body))
    };
    // (r, r) into payload lane 0, for the residual-norm round.
    let dot_rr = {
        let body = fused_dot_stmts(core, at.r, at.r, at.pay, z);
        core.add_task(Task::new("dot_rr", body))
    };
    for t in [upd_p, upd_s, dots, upd_xq, upd_rt, dot_rr] {
        core.mark_entry(t);
    }
    FusedTaskIds { upd_p, upd_s, dots, upd_xq, upd_rt, dot_rr }
}

/// Convenience for the bit-exact **transparent** mode: builds the
/// single-wafer [`WaferBicgstab`] program on a fused fabric sized for the
/// matrix, splits it into `k` X-slab wafers, and returns the solver with
/// the linked ensemble. Under [`wse_multi::HostLink::ideal`] every phase
/// of the returned pair steps bit-for-bit like the unsplit fabric, so the
/// residual trajectory is *exactly* the single-wafer one.
pub fn build_transparent(
    a: &DiaMatrix<F16>,
    k: usize,
    link: wse_multi::HostLink,
) -> (WaferBicgstab, MultiFabric) {
    let mesh = a.mesh();
    let mut fabric = wse_arch::Fabric::new(mesh.nx, mesh.ny);
    let solver = WaferBicgstab::build(&mut fabric, a);
    let multi = MultiFabric::split_x(&fabric, k, link);
    (solver, multi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil::mesh::Mesh3D;
    use stencil::precond::jacobi_scale;
    use stencil::stencil7::poisson;
    use wse_arch::Fabric;
    use wse_multi::HostLink;

    /// A diagonally preconditioned Poisson system with a deterministic
    /// non-trivial right-hand side.
    fn test_system(nx: usize, ny: usize, nz: usize) -> (DiaMatrix<F16>, Vec<F16>) {
        let mesh = Mesh3D::new(nx, ny, nz);
        let a64 = poisson(mesh);
        let b64: Vec<f64> =
            (0..mesh.len()).map(|i| ((i * 29 % 101) as f64 / 101.0) - 0.4).collect();
        let sys = jacobi_scale(&a64, &b64);
        let a: DiaMatrix<F16> = sys.matrix.convert();
        let b: Vec<F16> = sys.rhs.iter().map(|&v| F16::from_f64(v)).collect();
        (a, b)
    }

    #[test]
    fn transparent_split_matches_single_wafer_bit_for_bit() {
        use crate::bicgstab2d::WaferBicgstab2d;
        use crate::cg::{CgVariant, WaferCg};
        use stencil::decomp::Block2D;
        use stencil::stencil9::convection_diffusion9;

        // Any program of the shared driver: built on one fabric, solved
        // there (reference) and on a pristine copy split across 2 wafers
        // over the ideal link (transparent mode) — plainly, and under the
        // recovery engine checkpointing the whole ensemble.
        fn check(
            name: &str,
            mut fabric: Fabric,
            solver: &krylov::Program,
            a: &DiaMatrix<F16>,
            b: &[F16],
        ) {
            let bits = |x: &[F16]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let mut multi = MultiFabric::split_x(&fabric, 2, HostLink::ideal());
            let mut multi_rec = MultiFabric::split_x(&fabric, 2, HostLink::ideal());
            let (x_ref, stats_ref) = solver.solve(&mut fabric, b, 4);
            let (x_split, stats_split) = solver.solve(&mut multi, b, 4);
            assert_eq!(stats_ref.residuals, stats_split.residuals, "{name}: residuals diverged");
            assert_eq!(bits(&x_ref), bits(&x_split), "{name}: iterate bits diverged");
            let policy = RecoveryPolicy { checkpoint_every: 2, ..RecoveryPolicy::default() };
            let (x_rec, stats_rec, log) =
                solver.solve_with_recovery(&mut multi_rec, a, b, 4, &policy);
            assert_eq!((log.checkpoints_taken, log.rollbacks), (2, 0), "{name}: {log}");
            assert_eq!(stats_ref.residuals, stats_rec.residuals, "{name}: recovering residuals");
            assert_eq!(bits(&x_ref), bits(&x_rec), "{name}: recovering iterate bits");
        }

        let (a, b) = test_system(6, 4, 8);
        let mut fabric = Fabric::new(6, 4);
        let solver = WaferBicgstab::build(&mut fabric, &a);
        check("bicgstab", fabric, &solver, &a, &b);

        let mut fabric = Fabric::new(6, 4);
        let solver = WaferCg::build(&mut fabric, &a, CgVariant::Standard);
        check("cg", fabric, &solver, &a, &b);

        let block = Block2D::new(3, 3);
        let a64 = convection_diffusion9(block.covered_mesh(4, 3), (1.5, -0.5));
        let b64: Vec<f64> = (0..a64.mesh().len()).map(|i| (i % 7) as f64 * 0.25 - 0.6).collect();
        let sys = jacobi_scale(&a64, &b64);
        let a: DiaMatrix<F16> = sys.matrix.convert();
        let b: Vec<F16> = sys.rhs.iter().map(|&v| F16::from_f64(v)).collect();
        let mut fabric = Fabric::new(4, 3);
        let solver = WaferBicgstab2d::build(&mut fabric, &a, block);
        check("bicgstab2d", fabric, &solver, &a, &b);
    }

    #[test]
    fn hierarchical_two_wafer_solve_tracks_single_wafer_trajectory() {
        let (a, b) = test_system(6, 4, 8);
        let iters = 5;

        let mut fabric = Fabric::new(6, 4);
        let solver = WaferBicgstab::build(&mut fabric, &a);
        let (_, stats_ref) = solver.solve(&mut fabric, &b, iters);

        let mut multi = MultiFabric::new(6, 4, 2, HostLink::paper_default());
        let dist = WaferBicgstabMulti::build(&mut multi, &a);
        let (_, stats) = dist.solve(&mut multi, &b, iters);

        assert_eq!(stats.residuals.len(), stats_ref.residuals.len());
        for (i, (got, want)) in stats.residuals.iter().zip(&stats_ref.residuals).enumerate() {
            // Same algorithm, different fp16/fp32 summation orders: the
            // trajectories agree to a modest ratio with an absolute floor.
            let close = (got - want).abs() < 5e-4 || got / want < 5.0 && want / got < 5.0;
            assert!(close, "iteration {i}: distributed {got} vs single {want}");
        }
        // Halo and host-AllReduce time was actually accounted. Under the
        // overlapped default the wire time may be fully hidden, so the
        // exposed part can legitimately be zero — but the exchange itself
        // must have been attributed somewhere.
        let c = &stats.iterations[0];
        assert!(c.halo + c.halo_hidden > 0, "two wafers must exchange halos");
        assert!(c.host_allreduce > 0, "host combine must cost time");
        assert!(c.compute.spmv > 0 && c.compute.allreduce > 0);
    }

    #[test]
    fn hierarchical_matches_host_solution() {
        // The distributed iterate must approximately solve the system.
        let (a, b) = test_system(4, 4, 6);
        let mut multi = MultiFabric::new(4, 4, 2, HostLink::paper_default());
        let dist = WaferBicgstabMulti::build(&mut multi, &a);
        let (x, stats) = dist.solve(&mut multi, &b, 12);
        let rel = recovery::true_rel_residual(&a, &x, &b);
        assert!(rel < 0.15, "true relative residual {rel} (residuals {:?})", stats.residuals);
        assert!(stats.residuals.last().unwrap() < &0.2);
    }

    #[test]
    fn k1_runs_through_the_multi_driver() {
        // One wafer: no seams, no halo phases, host combine degenerates to
        // a copy — the driver must still work (uniform bench code path).
        let (a, b) = test_system(4, 3, 6);
        let mut multi = MultiFabric::new(4, 3, 1, HostLink::paper_default());
        let dist = WaferBicgstabMulti::build(&mut multi, &a);
        let (_, stats) = dist.solve(&mut multi, &b, 3);
        assert_eq!(stats.iterations.len(), 3);
        assert_eq!(stats.iterations[0].halo, 0, "k=1 has no seams");
        assert!(stats.residuals[2] < stats.residuals[0]);
    }

    #[test]
    fn overlapped_interior_program_is_bit_identical_to_serial_at_k1() {
        // A seamless ensemble must not pay for the overlap machinery: the
        // two schedules build byte-identical programs, so the solves agree
        // bit for bit.
        let (a, b) = test_system(4, 3, 6);
        let mut m1 = MultiFabric::new(4, 3, 1, HostLink::paper_default());
        let s1 = WaferBicgstabMulti::build_serial(&mut m1, &a);
        let (x1, st1) = s1.solve(&mut m1, &b, 4);
        let mut m2 = MultiFabric::new(4, 3, 1, HostLink::paper_default());
        let s2 = WaferBicgstabMulti::build(&mut m2, &a);
        let (x2, st2) = s2.solve(&mut m2, &b, 4);
        assert_eq!(st1.residuals, st2.residuals, "residual trajectory diverged");
        assert_eq!(
            x1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            x2.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "iterate bits diverged"
        );
    }

    #[test]
    fn overlapped_two_wafer_solve_tracks_serial_schedule() {
        // Same algorithm, same arithmetic, different halo-fold interleave:
        // the overlapped schedule must stay numerically on the serial
        // trajectory while accounting some halo time as hidden.
        let (a, b) = test_system(6, 4, 8);
        let iters = 5;
        let mut ms = MultiFabric::new(6, 4, 2, HostLink::paper_default());
        let ss = WaferBicgstabMulti::build_serial(&mut ms, &a);
        let (_, sts) = ss.solve(&mut ms, &b, iters);
        let mut mo = MultiFabric::new(6, 4, 2, HostLink::paper_default());
        let so = WaferBicgstabMulti::build(&mut mo, &a);
        let (_, sto) = so.solve(&mut mo, &b, iters);
        assert_eq!(sts.residuals.len(), sto.residuals.len());
        for (i, (got, want)) in sto.residuals.iter().zip(&sts.residuals).enumerate() {
            let close = (got - want).abs() < 5e-4 || got / want < 5.0 && want / got < 5.0;
            assert!(close, "iteration {i}: overlapped {got} vs serial {want}");
        }
        let cs = &sts.iterations[0];
        let co = &sto.iterations[0];
        assert_eq!(cs.halo_hidden, 0, "serial schedule hides nothing");
        assert!(co.halo_hidden > 0, "overlap must hide some wire time");
        assert!(
            co.halo < cs.halo,
            "overlap must expose less halo time than serial ({} vs {})",
            co.halo,
            cs.halo
        );
    }

    #[test]
    fn fused_solver_tracks_classic_trajectory_and_solution() {
        let (a, b) = test_system(6, 4, 8);
        let iters = 6;
        let mut mc = MultiFabric::new(6, 4, 2, HostLink::paper_default());
        let sc = WaferBicgstabMulti::build(&mut mc, &a);
        let (_, stc) = sc.solve(&mut mc, &b, iters);
        let mut mf = MultiFabric::new(6, 4, 2, HostLink::paper_default());
        let sf = WaferBicgstabMulti::build_fused(&mut mf, &a);
        let (xf, stf) = sf.solve(&mut mf, &b, iters);
        assert_eq!(stf.residuals.len(), stc.residuals.len());
        for (i, (got, want)) in stf.residuals.iter().zip(&stc.residuals).enumerate() {
            // Rearranged recurrences in fp16/fp32: same trajectory to a
            // modest ratio with an absolute floor.
            let close = (got - want).abs() < 5e-4 || got / want < 5.0 && want / got < 5.0;
            assert!(close, "iteration {i}: fused {got} vs classic {want}");
        }
        // Never a silent wrong answer: the converged iterate must satisfy
        // the system in f64.
        let rel = recovery::true_rel_residual(&a, &xf, &b);
        assert!(rel < 0.15, "fused true relative residual {rel} ({:?})", stf.residuals);
        // One host round-trip per iteration: the fused host time must be
        // well below the classic three-round-trip budget.
        let cf = &stf.iterations[0];
        let cc = &stc.iterations[0];
        assert!(
            cf.host_allreduce < cc.host_allreduce,
            "fused host reduction time {} must undercut classic {}",
            cf.host_allreduce,
            cc.host_allreduce
        );
        assert_eq!(cf.compute.scalar, 0, "fused iterations have no scalar phase");
    }

    #[test]
    fn fused_solver_runs_at_k1() {
        // The weak-scaling baseline: the fused driver on one wafer (no
        // seams, chain reduce only).
        let (a, b) = test_system(4, 4, 6);
        let mut multi = MultiFabric::new(4, 4, 1, HostLink::paper_default());
        let dist = WaferBicgstabMulti::build_fused(&mut multi, &a);
        let (x, stats) = dist.solve(&mut multi, &b, 8);
        assert_eq!(stats.iterations[0].halo, 0, "k=1 has no seams");
        assert_eq!(stats.iterations[0].halo_hidden, 0);
        let rel = recovery::true_rel_residual(&a, &x, &b);
        assert!(rel < 0.2, "true relative residual {rel} ({:?})", stats.residuals);
    }

    #[test]
    fn traced_run_records_halo_and_host_allreduce_phases() {
        use wse_arch::trace::TraceConfig;
        use wse_trace::PhaseReport;
        let (a, b) = test_system(6, 4, 6);
        let mut multi = MultiFabric::new(6, 4, 2, HostLink::paper_default());
        let dist = WaferBicgstabMulti::build_serial(&mut multi, &a);
        dist.load_rhs(&mut multi, &b);
        multi.shard_mut(0).arm_trace(TraceConfig::default());
        dist.iterate(&mut multi);
        let trace = multi.shard_mut(0).take_trace().expect("trace was armed");
        let report = PhaseReport::from_trace(&trace);
        assert!(report.spans("halo") > 0, "halo phase must be traced");
        assert!(report.spans("host_allreduce") > 0, "host_allreduce phase must be traced");
        assert!(report.cycles("spmv") > 0);
    }

    #[test]
    fn traced_overlapped_run_attributes_halo_cycles() {
        use wse_arch::trace::TraceConfig;
        use wse_trace::PhaseReport;
        let (a, b) = test_system(6, 4, 6);
        let mut multi = MultiFabric::new(6, 4, 2, HostLink::paper_default());
        let dist = WaferBicgstabMulti::build(&mut multi, &a);
        dist.load_rhs(&mut multi, &b);
        multi.shard_mut(0).arm_trace(TraceConfig::default());
        let c = dist.iterate(&mut multi);
        let trace = multi.shard_mut(0).take_trace().expect("trace was armed");
        let report = PhaseReport::from_trace(&trace);
        // The merged window replaces the dedicated halo phase...
        assert!(report.spans("spmv+halo") > 0, "merged windows must be traced");
        assert_eq!(report.spans("halo"), 0, "no blocking halo phase may remain");
        // ...and its halo share is attributed as overlap and/or exposure,
        // consistent with the iteration's cycle accounting.
        let attributed = report.cycles("halo_overlap") + report.cycles("halo_exposed");
        assert!(attributed > 0, "halo cycles must be attributed inside the window");
        assert_eq!(c.halo_hidden, report.cycles("halo_overlap"), "hidden cycles match the spans");
        assert_eq!(c.halo, report.cycles("halo_exposed"), "exposed cycles match the spans");
        assert!(c.compute.spmv > 0);
    }

    #[test]
    fn rollback_recovers_from_a_stall_inside_an_overlap_window() {
        use wse_arch::fault::{FaultKind, FaultPlan};

        // A seam that goes dark *while a merged spmv+halo window is in
        // flight* must trip the stall watchdog mid-overlap and roll the
        // fused ensemble back to the last checkpoint — the checkpoint
        // machinery may only run at quiescent iteration boundaries, so a
        // window torn down halfway must replay cleanly.
        let (a, b) = test_system(6, 4, 8);
        let iters = 6;
        let pol = RecoveryPolicy {
            checkpoint_every: 2,
            max_retries: 5,
            verify_rel: 0.1,
            tripwire: recovery::ResidualTripwire { converged: 2e-2, diverged: 1e6 },
            label: String::new(),
        };

        // Fault-free fused baseline fixes the horizon (calibration plus a
        // few committed iterations), so the stall can be aimed at the
        // middle of the solve — deep inside the windows, which dominate
        // every iteration's cycles.
        let mut base = MultiFabric::new(6, 4, 2, HostLink::paper_default());
        let solver = WaferBicgstabMulti::build_fused(&mut base, &a);
        let (_, _, log0) = solver.solve_with_recovery(&mut base, &a, &b, iters, &pol);
        assert_eq!(log0.outcome, recovery::RecoveryOutcome::Converged, "baseline must converge");
        let horizon = base.cycle();

        let mut multi = MultiFabric::new(6, 4, 2, HostLink::paper_default());
        let solver = WaferBicgstabMulti::build_fused(&mut multi, &a);
        // Dark for two watchdog windows: the first replay may hit the
        // still-dark seam and retry again, the next one must get through.
        multi.arm_faults(
            &FaultPlan::new().with(horizon / 2, FaultKind::HostLinkStall { seam: 0, cycles: 4096 }),
        );
        let (x, _, log) = solver.solve_with_recovery(&mut multi, &a, &b, iters, &pol);
        assert_eq!(
            log.outcome,
            recovery::RecoveryOutcome::Converged,
            "recovery must outlast a mid-window seam stall (events: {:?})",
            log.events
        );
        assert!(log.rollbacks >= 1, "a dark seam must trip the watchdog and roll back");
        let rel = recovery::true_rel_residual(&a, &x, &b);
        assert!(rel < 0.1, "recovered iterate must still solve the system ({rel})");
    }
}
