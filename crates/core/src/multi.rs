//! Distributed BiCGStab across a multi-wafer ensemble (§VIII.B), with
//! the seams hidden: overlapped halo exchange, a binomial-tree host
//! combine, and a single-reduction fused iteration.
//!
//! The global `nx × ny × nz` mesh is sharded along X into `k` slabs, one
//! per wafer ([`wse_multi::MultiFabric`]). Each wafer runs the same
//! per-tile programs as the single-wafer solver ([`crate::bicgstab`])
//! over its slab; at the wafer seams the schedule works to keep the
//! interconnect off the critical path:
//!
//! * **Overlapped halo exchange** — a seam tile's ±x mesh neighbor lives
//!   on another wafer. Each SpMV runs as one *merged window*
//!   ([`MultiFabric::run_linked`]): seam tiles stream their outbound
//!   column on a background thread (colors [`HALO_EAST`] / [`HALO_WEST`],
//!   through the edge ports and [`wse_multi::HostLink`]) while every tile
//!   computes the interior SpMV, and a receive-triggered fold task adds
//!   the inbound plane in ([`wse_dsl::zcolumn::build_overlap_halo`]). The
//!   window splits where its compute ends: wire time before that cycle is
//!   *hidden* ([`MultiIterCycles::halo_hidden`]), the wait after it
//!   *exposed* ([`MultiIterCycles::halo`]).
//! * **Tree host combine** — each wafer reduces on-wafer in fp32; the host
//!   combines the `k` partials over a binomial tree (`2·⌈log₂ k⌉` link
//!   latencies instead of the serial `k`-hop scan), writes the global
//!   result back, and triggers the on-wafer broadcast.
//! * **Single-reduction fused iteration** ([`build_fused`][WaferBicgstabMulti::build_fused],
//!   the bench default) — one fp32 payload of eleven dots, one on-wafer
//!   lane [`Reduction`] and one host round-trip per iteration.
//!
//! Every builder produces the same thing: a [`krylov::Program`] over the
//! global tile grid (one `(Tasks, Addrs)` record per tile, allocated and
//! emitted from a [`krylov::Recurrence`]'s tables — [`krylov::BICGSTAB`] or
//! [`krylov::BICGSTAB_SINGLE`]), one `Seam` record per tile, and one
//! split [`Reduction`] per wafer. The crate's one step walk runs the table on
//! an ensemble executor that gives two kinds of step their seam-crossing
//! meaning: an SpMV is a seam window, a reduction is hierarchical. Scatter,
//! gather and ‖r‖ are the `Program`'s own.
//!
//! Compute phases run **each wafer independently on its own clock**
//! ([`MultiFabric::run_each`], ensemble time being the slowest wafer's);
//! the ensemble synchronizes only at the merged windows and the reduction,
//! mirroring how a real host runtime would drive k machines.
//!
//! The hierarchical modes are numerically equivalent — but not bit-equal
//! — to the single-wafer solve (reduction and halo summation orders
//! differ); [`build_transparent`] is the bit-exact cross-validation path.

use crate::allreduce::{Payload, Reduction};
use crate::bicgstab::regs;
use crate::exec::WaferExec;
use crate::kernels::{alloc, TileMap};
use crate::krylov::{
    self, check_operator, IterCycles, Krylov, Phase, Program, ReduceKind, Slot, SolveStats,
    StepExec, Tasks, PAY_LANES, V,
};
use crate::recovery::{self, RecoveryLog, RecoveryPolicy};
use crate::WaferBicgstab;
use stencil::decomp::Mapping3D;
use stencil::dia::DiaMatrix;
use wse_arch::fabric::StallReport;
use wse_arch::types::{Color, Dtype, Port, Reg, TaskId};
use wse_dsl::tess::configure_spmv_routes;
use wse_dsl::zcolumn::{build_overlap_halo, build_spmv_tile, OverlapHalo};
use wse_dsl::Layout;
use wse_float::F16;
use wse_multi::{LinkStats, MultiFabric};

/// Virtual channel carrying halo planes eastward across wafer seams.
/// Clear of the SpMV tessellation (0..5) and both AllReduce instances
/// (10..22); allocated in [`wse_dsl::colors`].
pub const HALO_EAST: Color = wse_dsl::colors::SEAM_EAST;
/// Virtual channel carrying halo planes westward across wafer seams.
pub const HALO_WEST: Color = wse_dsl::colors::SEAM_WEST;

/// One tile's overlapped halo exchange, per SpMV window of the iteration
/// (window 0 is the first SpMV's, window 1 the second's); `None` off every
/// seam. The seam columns are launched on background threads, interior
/// compute starts immediately, and only the boundary fold waits on the
/// inbound stream — the wire time hides behind the SpMV window.
type Seam = Option<[OverlapHalo; 2]>;

/// Cycle counts of one distributed iteration.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MultiIterCycles {
    /// The wafer-local phases (SpMVs, dots, on-wafer reduce+broadcast,
    /// updates, scalar arithmetic).
    pub compute: IterCycles,
    /// **Exposed** seam-halo cycles: wall-clock time the ensemble stalled
    /// on seam traffic — the part of each merged SpMV window after its
    /// compute ended.
    pub halo: u64,
    /// Seam-halo wire cycles hidden behind SpMV compute: the busiest seam
    /// direction's cycles with a frame on the wire before the window's
    /// compute ended. Informational: not part of [`Self::total`].
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

/// The distributed BiCGStab driver: per-wafer subdomain programs plus the
/// host-side orchestration of halo exchanges and the hierarchical
/// AllReduce.
pub struct WaferBicgstabMulti {
    /// The recurrence table and every tile's tasks and vectors, addressed
    /// by global coordinates.
    program: Program,
    /// Per-tile seam programs, in the program's tile order.
    seams: Vec<Seam>,
    /// Per-wafer reduction, split for the host combine (local
    /// coordinates).
    reductions: Vec<Reduction>,
    /// Cycle budget a seam crossing adds to a phase (only a stall reaches it).
    seam_budget: u64,
    /// Modeled cycles of one pass over the host-level combine tree:
    /// `⌈log₂ k⌉` levels, each a link latency plus the payload's transfer
    /// time. A round that replies takes two passes, up and back down; one
    /// that ends at the host, one.
    host_pass_cycles: u64,
}

impl WaferBicgstabMulti {
    /// Distributes the system matrix across the ensemble's slabs and
    /// builds every wafer's subdomain program. `multi` must be freshly
    /// created by [`MultiFabric::new`] (this builder declares the seam
    /// channels and pairs them).
    ///
    /// # Panics
    /// Panics if the matrix is not a unit-diagonal 7-point operator (a
    /// nonzero band at any other offset is named), the mesh does not
    /// exactly fill the ensemble grid, any slab is narrower
    /// than 2 tiles (the on-wafer AllReduce needs a 2×2 region), or a
    /// tile runs out of SRAM.
    pub fn build(multi: &mut MultiFabric, a: &DiaMatrix<F16>) -> WaferBicgstabMulti {
        Self::build_inner(multi, a, false)
    }

    /// Builds the **fused single-reduction** distributed solver
    /// ([`krylov::BICGSTAB_SINGLE`]): all eleven scalar products of an
    /// iteration are reduced in one hierarchical AllReduce — one host
    /// round-trip per iteration instead of three, on top of the overlapped
    /// halo schedule. The iteration order is the table's.
    ///
    /// The recurrence port follows Chronopoulos–Gear CG
    /// ([`crate::krylov::CG_SINGLE`]): with `v = A r` and `zv = A s` every
    /// classic scalar is a polynomial in the pre-α dots (see `DESIGN.md`
    /// §12). The host keeps no state — β and ω live in tile registers — so
    /// checkpoint/rollback recovery works unchanged.
    ///
    /// # Panics
    /// As [`WaferBicgstabMulti::build`].
    pub fn build_fused(multi: &mut MultiFabric, a: &DiaMatrix<F16>) -> WaferBicgstabMulti {
        Self::build_inner(multi, a, true)
    }

    /// What every builder starts with: validates the system against the
    /// ensemble grid, then programs each wafer's tessellation routes and
    /// its seam halo channels (edge declarations plus ramp routes).
    fn prepare_shards(multi: &mut MultiFabric, a: &DiaMatrix<F16>) -> Mapping3D {
        let mapping = Mapping3D::new(a.mesh(), multi.global_width(), multi.height());
        check_operator(a, &Layout::ZColumn(mapping));
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
            let east = (m + 1 < k, lw - 1, Port::East, HALO_EAST, HALO_WEST);
            let west = (m > 0, 0, Port::West, HALO_WEST, HALO_EAST);
            for (on_seam, x, port, outbound, inbound) in [east, west] {
                for y in (0..h).filter(|_| on_seam) {
                    shard.open_edge(x, y, port, outbound);
                    shard.open_edge(x, y, port, inbound);
                    shard.set_route(x, y, Port::Ramp, outbound, &[port]);
                    shard.set_route(x, y, port, inbound, &[Port::Ramp]);
                }
            }
        }
        mapping
    }

    /// The one builder: `fused` picks the recurrence and its tile program
    /// ([`krylov::BICGSTAB_SINGLE`] with the 11-lane chains, or
    /// [`krylov::BICGSTAB`] with per-wafer scalar reduce trees).
    fn build_inner(multi: &mut MultiFabric, a: &DiaMatrix<F16>, fused: bool) -> WaferBicgstabMulti {
        let recurrence = if fused { &krylov::BICGSTAB_SINGLE } else { &krylov::BICGSTAB };
        let mapping = Self::prepare_shards(multi, a);
        let (gw, h) = (mapping.fabric_w, mapping.fabric_h);
        let z = mapping.z as u32;
        let k = multi.k();

        // The per-wafer scalar reduce trees go in before the tiles (task
        // and DSR order is part of the program bytes).
        let mut reductions = Vec::with_capacity(k);
        if !fused {
            for m in 0..k {
                let (lw, shard) = (multi.slab(m).len(), multi.shard_mut(m));
                let (r_in, r_out, r_acc) = (regs::AR_IN, regs::AR_OUT, regs::AR_ACC);
                let payload = Payload::Scalar { r_in, r_out, r_acc };
                reductions.push(Reduction::build_split(shard, lw, h, payload));
            }
        }

        // Per-tile programs, addressed by global coordinates.
        let mut tiles = Vec::with_capacity(gw * h);
        let mut seams = Vec::with_capacity(gw * h);
        for y in 0..h {
            for gx in 0..gw {
                let (m, lx) = multi.to_local(gx);
                let lw = multi.slab(m).len();
                let east_seam = lx == lw - 1 && gx + 1 < gw;
                let west_seam = lx == 0 && gx > 0;
                let tile = multi.shard_mut(m).tile_mut(lx, y);

                let (at, layouts) = recurrence.place_column(tile, a, (gx, y), z);
                // Both ensemble recurrences have two SpMVs: window 0 and 1.
                let lay = [layouts[0], layouts[1]];

                let (spmv, seam) = if !(east_seam || west_seam) {
                    // Interior tile: no seam machinery.
                    (lay.map(|l| build_spmv_tile(tile, lx, y, lw, h, l, None)), None)
                } else {
                    // A slab is ≥ 2 wide, so a tile sits on at most one seam.
                    let buf = alloc(tile, (gx, y), "halo buffer", z, Dtype::F16);
                    let (send, recv, coeff) = if east_seam {
                        (HALO_EAST, HALO_WEST, lay[0].diag[0])
                    } else {
                        (HALO_WEST, HALO_EAST, lay[0].diag[1])
                    };
                    // Both windows share the halo buffer: they never
                    // overlap in the iteration.
                    let halo = [0, 1].map(|i| {
                        let l = lay[i];
                        build_overlap_halo(tile, l.v_live(), buf, coeff, l.u, send, recv, z)
                    });
                    let spmv = [0, 1]
                        .map(|i| build_spmv_tile(tile, lx, y, lw, h, lay[i], Some(halo[i].fold)));
                    (spmv, Some(halo))
                };
                let mut tasks = Tasks::new();
                for (&spmv, &(slot, ..)) in spmv.iter().zip(recurrence.spmvs) {
                    tasks[slot] = spmv;
                }
                recurrence.emit(&mut tile.core, &TileMap::column(at, z), &mut tasks);
                tiles.push((tasks, at));
                seams.push(seam);
            }
        }

        // The on-wafer vector AllReduce, one instance per shard, goes in
        // after the tiles. The chains stream the payload/reply blocks blind:
        // they must sit at one address on every tile, as one storage table
        // allocates them.
        if fused {
            let blocks = |at: &krylov::Addrs| (at[V::Pay as usize], at[V::Reply as usize]);
            let (pay, bc_src) = blocks(&tiles[0].1);
            assert!(tiles.iter().all(|(_, at)| blocks(at) == (pay, bc_src)), "uniform payload");
            for m in 0..k {
                let (lw, shard) = (multi.slab(m).len(), multi.shard_mut(m));
                let regs = recurrence.reply;
                let payload = Payload::Lanes { pay, m: PAY_LANES, reply: bc_src, regs };
                reductions.push(Reduction::build_split(shard, lw, h, payload));
            }
        }
        for (i, (tasks, _)) in tiles.iter_mut().enumerate() {
            let (m, lx) = multi.to_local(i % gw);
            let pair = reductions[m].tasks(lx, i / gw);
            (tasks[Slot::Reduce], tasks[Slot::Bcast]) = (pair[0], pair[1]);
        }
        multi.pair_seams();
        for m in 0..k {
            wse_dsl::debug_lint(multi.shard(m));
        }

        // One pass over the binomial tree. The scalar trees move one word
        // each way and are charged latency only; the chains move 11 fp32
        // lanes up and a 6-word reply down, charged as 11 lanes both ways
        // (an ideal link's infinite bandwidth divides to no cycles).
        let levels = (k as f64).log2().ceil() as u64;
        let link = multi.link();
        let xfer = (PAY_LANES * 4) as f64 / link.bytes_per_cycle;
        let xfer = if fused { xfer.ceil() as u64 } else { 0 };
        WaferBicgstabMulti {
            program: Program::new(recurrence, Layout::ZColumn(mapping), tiles),
            seams,
            reductions,
            seam_budget: 16 * z as u64 + 2 * link.latency_cycles + 200 * h as u64 + 50_000,
            host_pass_cycles: levels * (link.latency_cycles + xfer),
        }
    }

    /// Every tile's global coordinates, tasks and seam program.
    fn tiles(&self) -> impl Iterator<Item = (usize, usize, &Tasks, &Seam)> {
        self.program.tiles().zip(&self.seams).map(|((x, y, tasks, _), seam)| (x, y, tasks, seam))
    }

    /// The ensemble as a step executor, its cycle record zero.
    fn on<'a>(&'a self, multi: &'a mut MultiFabric) -> OnEnsemble<'a> {
        OnEnsemble { solver: self, multi, cycles: MultiIterCycles::default(), window: 0 }
    }

    /// Scatters the right-hand side and zeroes the iterate, then seeds
    /// the recurrence: the classic iteration starts from `r = r̂₀ = p = b`
    /// and computes ρ₀ = (r̂₀, r) hierarchically; the fused one from
    /// `r = r̂₀ = b` with every other vector and the reply registers zero
    /// (its first `upd_p` then sets `p := r`, and ρ is re-derived from the
    /// payload every iteration — nothing is reduced, and the load takes
    /// no cycle).
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
        self.program.read_x(multi)
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

/// The ensemble as a step executor: an SpMV is a seam window, a reduction
/// is hierarchical, and every other step is a wafer-local compute phase.
struct OnEnsemble<'a> {
    solver: &'a WaferBicgstabMulti,
    multi: &'a mut MultiFabric,
    cycles: MultiIterCycles,
    /// The SpMV window the next SpMV step opens.
    window: usize,
}

impl OnEnsemble<'_> {
    /// Activates `slot`'s task on every tile.
    fn activate(&mut self, slot: Slot) {
        for (x, y, tasks, _) in self.solver.tiles() {
            self.multi.activate(x, y, tasks[slot]);
        }
    }

    /// Runs all wafers **independently to quiescence** as trace phase
    /// `name` (nothing activated may touch a seam). Returns max per-wafer
    /// cycles.
    fn try_run_each(&mut self, name: &'static str) -> Result<u64, Box<StallReport>> {
        self.multi.phase_begin(name);
        let r = self.multi.run_each(self.solver.program.phase_budget, recovery::STALL_WINDOW);
        self.multi.phase_end();
        r
    }

    /// The cycle by which every tile had retired, within the run `[t0, t1)`,
    /// its last task outside window `window`'s halo exchange: the SpMV's
    /// completion barriers and FIFO drains, and the co-scheduled task.
    fn compute_end(&self, window: usize, t0: u64, t1: u64) -> u64 {
        let ends = self.solver.tiles().flat_map(|(x, y, _, seam)| {
            let halo =
                seam.map_or([TaskId::MAX; 3], |h| [h[window].send, h[window].recv, h[window].fold]);
            let core = &self.multi.tile(x, y).core;
            core.tasks().filter(move |(id, _)| !halo.contains(id)).map(|(id, _)| core.task_end(id))
        });
        ends.filter(|&end| end <= t1).fold(t0, u64::max)
    }
}

/// Every seam direction's transport counters, `2·seam + dir`.
fn seam_links(multi: &MultiFabric) -> Vec<LinkStats> {
    (0..multi.k() - 1).flat_map(|seam| [0, 1].map(|dir| multi.link_stats(seam, dir))).collect()
}

impl StepExec for OnEnsemble<'_> {
    type Error = Box<StallReport>;

    fn run(&mut self, phase: Phase, slot: Slot) -> Result<(), Self::Error> {
        self.activate(slot);
        let cycles = self.try_run_each(phase.name())?;
        self.cycles.compute.add(phase, cycles);
        Ok(())
    }

    /// One SpMV with its seam halo — the iteration's next window — `with`
    /// co-scheduled into the window: each seam tile's halo `(send, recv)`
    /// pair launches alongside the SpMV in one `"spmv+halo"` window. The
    /// window splits at the cycle by which every tile has retired its last
    /// task outside the halo exchange: compute before it, exposed halo
    /// after it (span `"halo_exposed"`). Hidden halo (span `"halo_overlap"`)
    /// is the busiest seam direction's wire time before it. With no seams
    /// (k = 1) the window is a plain `"spmv"` compute phase.
    fn spmv(&mut self, slot: Slot, with: Option<Slot>) -> Result<(), Self::Error> {
        let (solver, window) = (self.solver, self.window);
        self.window += 1;
        let mut overlapped = false;
        for (x, y, tasks, seam) in solver.tiles() {
            // Send/recv launch-and-retire first so the boundary column
            // is on the wire before the SpMV occupies the core.
            if let Some(halo) = seam {
                self.multi.activate(x, y, halo[window].send);
                self.multi.activate(x, y, halo[window].recv);
                overlapped = true;
            }
            if let Some(with) = with {
                self.multi.activate(x, y, tasks[with]);
            }
            self.multi.activate(x, y, tasks[slot]);
        }
        if !overlapped {
            self.cycles.compute.spmv += self.try_run_each("spmv")?;
            return Ok(());
        }
        let t0 = self.multi.cycle();
        let links = seam_links(self.multi);
        // The window runs in linked lockstep: traffic crosses seams.
        let budget = solver.program.phase_budget + solver.seam_budget;
        let merged = self.multi.run_phase("spmv+halo", budget, recovery::STALL_WINDOW);
        if merged.is_err() {
            // The exchange wedged (link down, or a stall outlasting the
            // watchdog): stamp the timeline so a recovery re-run shows.
            self.multi.phase_marker("halo_retry");
        }
        let t1 = t0 + merged?;
        let done = self.compute_end(window, t0, t1);
        let (compute, exposed) = (done - t0, t1 - done);
        // A direction's frames stream back to back, so its wire is busy
        // without a break from `done` to its last arrival (a retransmission
        // after a gap there makes this an undercount).
        let hidden = (links.iter().zip(seam_links(self.multi)))
            .map(|(s0, s1)| {
                let busy = s1.wire_busy - s0.wire_busy;
                busy - busy.min(s1.wire_until.saturating_sub(done))
            })
            .max()
            .unwrap_or(0);
        if hidden > 0 {
            self.multi.phase_span("halo_overlap", t0, t0 + hidden);
        }
        if exposed > 0 {
            self.multi.phase_span("halo_exposed", done, t1);
        }
        self.cycles.compute.spmv += compute;
        self.cycles.halo += exposed;
        self.cycles.halo_hidden += hidden;
        Ok(())
    }

    /// The hierarchical AllReduce: `with` activated and then the on-wafer
    /// reduce, the host's fp32 combine of the `k` roots' partial lanes
    /// (trace span `"host_allreduce"`), then — unless the round ends at
    /// the host — the recurrence's [`derive`](krylov::Recurrence::derive)
    /// of them written to every root and broadcast on-wafer. The host
    /// combine is charged one pass over the tree per direction the round
    /// takes: up, and back down unless it ends at the host.
    fn reduce(&mut self, kind: ReduceKind, with: Option<Slot>) -> Result<Vec<f32>, Self::Error> {
        assert!(kind != ReduceKind::Both, "an ensemble has one reduction network");
        let solver = self.solver;
        if let Some(with) = with {
            self.activate(with);
        }
        self.activate(Slot::Reduce);
        self.cycles.compute.allreduce += self.try_run_each("allreduce")?;

        self.multi.phase_begin("host_allreduce");
        // Host-side fp32 combine over the binomial wafer tree, lane by lane
        // — the summation order the modeled `2⌈log₂ k⌉` hop cycles actually
        // buy (for k = 2 it coincides with a serial left-to-right sum).
        let multi = &*self.multi;
        let per_wafer: Vec<Vec<f32>> =
            solver.reductions.iter().enumerate().map(|(w, r)| r.partials(multi.shard(w))).collect();
        let lanes: Vec<f32> = (0..per_wafer[0].len())
            .map(|j| binomial_combine(per_wafer.iter().map(|w| w[j]).collect()))
            .collect();
        let reply = kind == ReduceKind::One;
        if reply {
            let reply = (solver.program.recurrence.derive)(&lanes);
            for (w, red) in solver.reductions.iter().enumerate() {
                red.write_reply(self.multi.shard_mut(w), &reply);
            }
        }
        let host = if reply { 2 } else { 1 } * solver.host_pass_cycles;
        self.multi.advance_idle(host);
        self.cycles.host_allreduce += host;
        let mut bcast = Ok(0);
        if reply {
            self.activate(Slot::Bcast);
            bcast = self.multi.run_each(solver.program.phase_budget, recovery::STALL_WINDOW);
        }
        self.multi.phase_end();
        // The broadcast half runs on-wafer; only the hop latency is host time.
        self.cycles.compute.allreduce += bcast?;
        Ok(lanes)
    }

    fn copy_reg(&mut self, dst: Reg, src: Reg) {
        self.solver.program.on(self.multi).copy_reg(dst, src);
    }
}

/// The ensemble under the shared solve loops: every method is the
/// program's recurrence table walked on the ensemble.
impl Krylov<MultiFabric> for WaferBicgstabMulti {
    type Cycles = MultiIterCycles;

    fn try_load_rhs(&self, multi: &mut MultiFabric, b: &[F16]) -> Result<(), Box<StallReport>> {
        self.program.scatter_rhs(multi, b);
        krylov::walk(self.program.recurrence.seed, &mut self.on(multi)).map(drop)
    }

    fn try_iterate(
        &self,
        multi: &mut MultiFabric,
        it: usize,
    ) -> Result<MultiIterCycles, Box<StallReport>> {
        let mut on = self.on(multi);
        krylov::walk(self.program.recurrence.iteration(it), &mut on)?;
        Ok(on.cycles)
    }

    fn try_residual_norm(&self, multi: &mut MultiFabric) -> Result<f64, Box<StallReport>> {
        self.program.try_norm(multi, |multi, steps| krylov::walk(steps, &mut self.on(multi)))
    }

    fn read_x(&self, multi: &MultiFabric) -> Vec<F16> {
        WaferBicgstabMulti::read_x(self, multi)
    }
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
            let (fabric_start, multi_start) = (fabric.cycle(), multi.cycle());
            let (x_ref, stats_ref) = solver.solve(&mut fabric, b, 4);
            let (x_split, stats_split) = solver.solve(&mut multi, b, 4);
            assert_eq!(stats_ref.residuals, stats_split.residuals, "{name}: residuals diverged");
            assert_eq!(bits(&x_ref), bits(&x_split), "{name}: iterate bits diverged");
            // Every seam is framed, but headers and acks are control-plane
            // metadata: over a healthy link the split lands on the unsplit
            // fabric's cycle count and never retransmits.
            assert_eq!(
                fabric.cycle() - fabric_start,
                multi.cycle() - multi_start,
                "{name}: the framed split's cycle count diverged"
            );
            assert_eq!(multi.retransmits(), 0, "{name}: a healthy link retransmitted");
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
        // Halo and host-AllReduce time was actually accounted. The wire
        // time may be fully hidden, so the exposed part can legitimately be
        // zero — but the exchange itself must have been attributed
        // somewhere.
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
        // The halo runs inside the merged windows, never as a phase of its
        // own...
        assert!(report.spans("spmv+halo") > 0, "merged windows must be traced");
        assert_eq!(report.spans("halo"), 0, "no separate halo phase may run");
        // ...and its halo share is attributed as overlap and/or exposure,
        // consistent with the iteration's cycle accounting.
        let attributed = report.cycles("halo_overlap") + report.cycles("halo_exposed");
        assert!(attributed > 0, "halo cycles must be attributed inside the window");
        assert_eq!(c.halo_hidden, report.cycles("halo_overlap"), "hidden cycles match the spans");
        assert_eq!(c.halo, report.cycles("halo_exposed"), "exposed cycles match the spans");
        assert!(report.spans("host_allreduce") > 0, "host_allreduce phase must be traced");
        assert!(c.compute.spmv > 0);
    }

    #[test]
    fn load_runs_only_the_seed_walk() {
        let (a, b) = test_system(6, 4, 8);
        // The fused seed walk is empty: loading scatters and takes no cycle.
        let mut multi = MultiFabric::new(6, 4, 2, HostLink::paper_default());
        let fused = WaferBicgstabMulti::build_fused(&mut multi, &a);
        let start = multi.cycle();
        fused.load_rhs(&mut multi, &b);
        assert_eq!(multi.cycle(), start, "the fused load must take no cycle");
        assert!(multi.shard_mut(0).drain_phases().is_empty(), "the fused load ran a phase");
        // The classic seed walk is ρ₀ = (r̂₀, r): a dot, its hierarchical
        // reduction and the scalar step, and nothing else.
        let mut multi = MultiFabric::new(6, 4, 2, HostLink::paper_default());
        let classic = WaferBicgstabMulti::build(&mut multi, &a);
        classic.load_rhs(&mut multi, &b);
        let phases = multi.shard_mut(0).drain_phases();
        let names: Vec<&str> = phases.iter().map(|span| span.name).collect();
        assert_eq!(names, ["dot", "allreduce", "host_allreduce", "scalar"]);
    }

    #[test]
    fn window_split_covers_each_merged_window() {
        // Compute and exposed halo partition every `spmv+halo` window, at
        // the paper link and at a slow one whose latency outlasts compute.
        let (a, b) = test_system(6, 4, 8);
        let slow = HostLink::new(10.0, 2.0, 0.9);
        type Build = fn(&mut MultiFabric, &DiaMatrix<F16>) -> WaferBicgstabMulti;
        let builds: [Build; 2] = [WaferBicgstabMulti::build, WaferBicgstabMulti::build_fused];
        let cases = [HostLink::paper_default(), slow].map(|l| builds.map(|b| (l, b)));
        for (link, build) in cases.into_iter().flatten() {
            let mut multi = MultiFabric::new(6, 4, 2, link);
            let solver = build(&mut multi, &a);
            solver.load_rhs(&mut multi, &b);
            for it in 0..3 {
                multi.shard_mut(0).drain_phases();
                let c = solver.iterate(&mut multi);
                let phases = multi.shard_mut(0).drain_phases();
                let windows = phases.iter().filter(|span| span.name == "spmv+halo");
                let merged: u64 = windows.map(|span| span.cycles()).sum();
                assert_eq!(c.compute.spmv + c.halo, merged, "{link:?} iteration {it}");
                assert!(c.halo_hidden <= c.compute.spmv, "{link:?} iteration {it}: {c:?}");
                if link == slow {
                    assert!(c.halo > 0, "a slow link must expose halo time: {c:?}");
                }
            }
        }
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

        // Fault-free fused baseline fixes the horizon (a few committed
        // iterations), so the stall can be aimed at the middle of the
        // solve — deep inside the windows, which dominate every
        // iteration's cycles.
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
