//! One Krylov driver: recurrences as step tables over [`WaferExec`].
//!
//! The paper's solver is one fixed recurrence — SpMVs, local dots each
//! followed by an AllReduce, vector updates, and a few scalar coefficient
//! tasks — sequenced by the host between fabric-quiescent points. (The
//! production system chains phases with the task tree; global quiescence
//! is a slightly conservative stand-in — it can only make our cycle counts
//! *worse* than the hardware's, never better.) This module owns that
//! whole driving side, once:
//!
//! * a recurrence is **data** — a [`Recurrence`] of `&'static [Step]`
//!   tables ([`BICGSTAB`], [`BICGSTAB_FUSED`], [`BICGSTAB_BLOCK`],
//!   [`CG`], [`CG_SINGLE`], and the ensemble's [`BICGSTAB_SINGLE`]);
//! * a built solver is **data** — a [`Program`]: tile region and origin,
//!   a per-tile task table indexed by [`Slot`], the vector addresses the
//!   host scatters into and gathers from, and the mesh layout (one
//!   z-column or one 2D block per tile);
//! * one interpreter runs any table on any [`WaferExec`]; the multi-wafer
//!   [`crate::multi::WaferBicgstabMulti`] is a [`Program`] too, walked by
//!   one ensemble interpreter that gives the SpMV and reduction steps
//!   their seam-crossing meaning; and the four-method [`Krylov`] trait
//!   gives both the same `solve` and `solve_with_recovery` loops.
//!
//! What stays per layout is program *construction* (SRAM allocation and
//! task emission in [`crate::bicgstab`], [`crate::bicgstab2d`],
//! [`crate::cg`]): DSR allocation order and task names are part of the
//! pinned program bytes.

use crate::bicgstab::regs;
use crate::cg::regs as cg_regs;
use crate::exec::WaferExec;
use crate::recovery::{
    self, run_with_recovery, RecoveryLog, RecoveryOutcome, RecoveryPolicy, ResidualTripwire,
};
use std::cell::Cell;
use std::ops::{Index, IndexMut};
use stencil::decomp::{Block2D, Mapping3D};
use stencil::dia::DiaMatrix;
use stencil::mesh::Mesh2D;
use wse_arch::fabric::StallReport;
use wse_arch::types::{Reg, TaskId};
use wse_float::F16;
use Phase::{Dot, Scalar, Update};
use Step::{Reduce, ReduceBoth};

/// The kind of work a step does: its trace-phase name and the
/// [`IterCycles`] bucket its cycles land in.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Sparse matrix–vector product (halo traffic included).
    Spmv,
    /// Local mixed-precision dot products.
    Dot,
    /// Fabric-wide reduction and broadcast.
    Allreduce,
    /// AXPY/XPAY vector updates.
    Update,
    /// Scalar coefficient arithmetic.
    Scalar,
}

impl Phase {
    /// The trace-phase name (billing carves on these).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Spmv => "spmv",
            Phase::Dot => "dot",
            Phase::Allreduce => "allreduce",
            Phase::Update => "update",
            Phase::Scalar => "scalar",
        }
    }
}

/// Cycle counts of one iteration, by phase kind.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct IterCycles {
    /// The SpMVs.
    pub spmv: u64,
    /// The local dot products.
    pub dot: u64,
    /// The AllReduce rounds.
    pub allreduce: u64,
    /// The AXPY/XPAY vector updates.
    pub update: u64,
    /// Scalar coefficient arithmetic.
    pub scalar: u64,
}

impl IterCycles {
    /// Total cycles of the iteration.
    pub fn total(&self) -> u64 {
        self.spmv + self.dot + self.allreduce + self.update + self.scalar
    }

    /// Accounts `cycles` to `phase`'s bucket.
    pub fn add(&mut self, phase: Phase, cycles: u64) {
        *match phase {
            Phase::Spmv => &mut self.spmv,
            Phase::Dot => &mut self.dot,
            Phase::Allreduce => &mut self.allreduce,
            Phase::Update => &mut self.update,
            Phase::Scalar => &mut self.scalar,
        } += cycles;
    }
}

/// Statistics of a whole solve; `C` is the driver's per-iteration cycle
/// record ([`IterCycles`], or [`crate::multi::MultiIterCycles`] for an
/// ensemble).
#[derive(Clone, Debug)]
pub struct SolveStats<C = IterCycles> {
    /// Per-iteration cycle breakdowns.
    pub iterations: Vec<C>,
    /// Relative residual ‖r‖/‖b‖ per iteration.
    pub residuals: Vec<f64>,
}

impl<C> Default for SolveStats<C> {
    fn default() -> Self {
        SolveStats { iterations: Vec::new(), residuals: Vec::new() }
    }
}

impl SolveStats {
    /// Mean cycles per iteration.
    pub fn mean_cycles(&self) -> f64 {
        if self.iterations.is_empty() {
            return 0.0;
        }
        self.iterations.iter().map(|i| i.total() as f64).sum::<f64>() / self.iterations.len() as f64
    }
}

/// Declares [`Slot`] together with [`Slot::ALL`], so the per-tile table
/// ([`Tasks`]) is sized by the enum itself: a slot appended here can never
/// index past the end of a table sized by some earlier "last" variant.
macro_rules! slots {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// A per-tile task role. A [`Program`] maps each slot its recurrence
        /// uses to the task the layout's builder emitted for it.
        #[derive(Copy, Clone, Debug, PartialEq, Eq)]
        pub enum Slot {
            $($(#[$doc])* $name,)*
        }

        impl Slot {
            /// Every slot, in declaration (= table index) order.
            pub const ALL: &'static [Slot] = &[$(Slot::$name,)*];
        }
    };
}

slots! {
    /// The Fig. 6 AllReduce of `AR_IN` into `AR_OUT`; on an ensemble, its
    /// on-wafer reduce half.
    Reduce,
    /// Ensembles: the broadcast half, run once the host has replied.
    Bcast,
    /// Both reduction networks concurrently (`AR_IN2` into `AR_OUT2` too).
    ReduceBoth,
    /// `s := A p`.
    SpmvPs,
    /// `y := A q`.
    SpmvQy,
    /// `(r̂₀, s)`.
    DotR0s,
    /// `(q, y)`.
    DotQy,
    /// `(y, y)`.
    DotYy,
    /// `(q, y)` and `(y, y)` in one task, for [`Slot::ReduceBoth`].
    DotQyYy,
    /// `(r̂₀, r)`.
    DotRho,
    /// `(r, r)`.
    DotRr,
    /// `α := ρ / (r̂₀, s)`.
    PostR0s,
    /// Stashes `(q, y)`.
    PostQy,
    /// `ω := (q, y) / (y, y)`.
    PostYy,
    /// ω from the two concurrent reduction outputs.
    PostOmegaFused,
    /// `β`, and ρ rolls over.
    PostRho,
    /// `ρ₀ := (r̂₀, r)`.
    InitRho,
    /// Stashes `‖r‖²`.
    PostRr,
    /// `q := r − α s`.
    UpdQ,
    /// `x := x + α p + ω q`.
    UpdX,
    /// `r := q − ω y`.
    UpdR,
    /// `p := p − ω s` (the block mapping fuses [`Slot::UpdP2`] into it).
    UpdP1,
    /// `p := r + β p`.
    UpdP2,
    /// CG: the one SpMV (`q := A p`, or `s := A r` single-reduction).
    CgSpmv,
    /// CG: `(p, A p)`.
    CgDotPq,
    /// CG: `γ = (r, r)` and `δ = (r, A r)` in one task.
    CgDotGammaDelta,
    /// CG: `α := γ / (p, A p)`.
    CgAlpha,
    /// CG: `β := γ' / γ`, and γ rolls over.
    CgBeta,
    /// Single-reduction CG: β and α from γ, δ and the previous pair.
    CgFused,
    /// Single-reduction CG, first iteration: `β := 0`, `α := γ / δ`.
    CgInit,
    /// CG: `x += α p; r −= α q`.
    CgUpdXr,
    /// CG: `p := r + β p`.
    CgUpdP,
    /// Single-reduction CG: the p, q, x, r recurrences in one task.
    CgUpdAll,
    /// Single-reduction ensemble BiCGStab: `v := A r`.
    SpmvRv,
    /// Single-reduction ensemble BiCGStab: `zv := A s`.
    SpmvSzv,
    /// `p := r + β (p − ω s)` in one task.
    UpdP,
    /// `s := v + β t`, with `t = s − ω·zv` carried from the last iteration.
    UpdS,
    /// All fourteen dots of one iteration, stored to the fp32 payload.
    Dots14,
    /// `q := r − α s;  x += α p + ω q`.
    UpdXq,
    /// `r := q − ω v + αω·zv;  t := s − ω·zv`.
    UpdRt,
}

/// One tile's tasks by [`Slot`]. Slots the program's recurrence never
/// names stay unset (activating one would be out of range on the core).
#[derive(Copy, Clone, Debug)]
pub(crate) struct Tasks([TaskId; Tasks::SLOTS]);

impl Tasks {
    const SLOTS: usize = Slot::ALL.len();

    /// A table with every slot unset.
    pub(crate) fn new() -> Tasks {
        Tasks([TaskId::MAX; Tasks::SLOTS])
    }

    /// Declares every set slot a host-activated entry point.
    pub(crate) fn mark_entries(&self, core: &mut wse_arch::Core) {
        for &t in self.0.iter().filter(|&&t| t != TaskId::MAX) {
            core.mark_entry(t);
        }
    }
}

impl Index<Slot> for Tasks {
    type Output = TaskId;
    fn index(&self, slot: Slot) -> &TaskId {
        &self.0[slot as usize]
    }
}

impl IndexMut<Slot> for Tasks {
    fn index_mut(&mut self, slot: Slot) -> &mut TaskId {
        &mut self.0[slot as usize]
    }
}

/// The per-tile vectors the host touches (byte addresses of live parts).
#[derive(Copy, Clone, Debug, Default)]
pub(crate) struct Vecs {
    /// Iterate.
    pub(crate) x: u32,
    /// Residual.
    pub(crate) r: u32,
    /// Shadow residual r̂₀ (BiCGStab).
    pub(crate) r0: u32,
    /// Search direction.
    pub(crate) p: u32,
    /// `q = A p` recurrence vector (single-reduction CG); the scratch
    /// `q = r − α s` of the single-reduction ensemble BiCGStab.
    pub(crate) q: u32,
    /// `s` (single-reduction ensemble BiCGStab).
    pub(crate) s: u32,
    /// `v = A r` (single-reduction ensemble BiCGStab).
    pub(crate) v: u32,
    /// `zv = A s` (single-reduction ensemble BiCGStab).
    pub(crate) zv: u32,
}

/// One step of a recurrence.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Activate `slot`'s task on every tile and run to quiescence,
    /// accounted to `phase`.
    Run {
        /// Trace phase and cycle bucket.
        phase: Phase,
        /// The task role to activate.
        slot: Slot,
    },
    /// One SpMV, trace phase `spmv`: `slot`'s task on every tile. On an
    /// ensemble the step is one seam window ([`crate::multi`]): the halo
    /// of the SpMV's source rides along, and `with` names an independent
    /// core-local task co-scheduled into the window to widen the compute
    /// the wire latency hides behind.
    Spmv {
        /// The SpMV entry task.
        slot: Slot,
        /// The co-scheduled task, if any.
        with: Option<Slot>,
    },
    /// One AllReduce round ([`Slot::Reduce`]). On an ensemble: on-wafer
    /// reduce, binomial host combine, the recurrence's
    /// [`derive`](Recurrence::derive), broadcast of its reply.
    Reduce,
    /// Both reduction networks in one round ([`Slot::ReduceBoth`]).
    ReduceBoth,
    /// Ensembles only: on-wafer reduce and host combine, nothing sent
    /// back — the tiles' registers stay untouched.
    ReduceToHost,
    /// The host copies core register `src` to `dst` on every tile.
    CopyReg {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
}

/// A Krylov recurrence: what `load_rhs` initializes and the step tables
/// of its phases.
pub struct Recurrence {
    /// Which of [`Vecs`] start as the tile's slice of `b`, and which as
    /// zero (`x` always does).
    init: fn(&Vecs) -> (Vec<u32>, Vec<u32>),
    /// Registers `load_rhs` presets on every tile, and their value.
    presets: (&'static [Reg], f32),
    /// Seeds the carried scalar (ρ₀ / γ₀) after the scatter.
    pub(crate) seed: &'static [Step],
    /// Iteration 0, where it differs from the steady state.
    first: Option<&'static [Step]>,
    /// One steady-state iteration.
    pub(crate) iter: &'static [Step],
    /// How ‖r‖² is obtained.
    pub(crate) norm: Norm,
    /// What an ensemble's host sends back down in a [`Step::Reduce`], as
    /// a pure function of the combined lanes: the identity, except where
    /// the host derives the iteration's scalars. (A single wafer's
    /// reduction never leaves the fabric.)
    pub(crate) derive: fn(&[f32]) -> Vec<f32>,
}

impl Recurrence {
    /// The SpMVs of one steady-state iteration, in order: `(slot, with)`
    /// of each [`Step::Spmv`].
    pub(crate) fn spmv_windows(&self) -> impl Iterator<Item = (Slot, Option<Slot>)> {
        self.iter.iter().filter_map(|step| match *step {
            Step::Spmv { slot, with } => Some((slot, with)),
            _ => None,
        })
    }
}

/// How a recurrence's ‖r‖² is obtained.
pub(crate) enum Norm {
    /// The host reads `r` back and sums in f64.
    ReadBack,
    /// The steps leave ‖r‖² in the given register of every tile.
    InReg(&'static [Step], Reg),
    /// The steps end in [`Step::ReduceToHost`]: ‖r‖² is lane 0 of the
    /// host's combine.
    AtHost(&'static [Step]),
}

const fn run(phase: Phase, slot: Slot) -> Step {
    Step::Run { phase, slot }
}

const fn spmv(slot: Slot) -> Step {
    Step::Spmv { slot, with: None }
}

/// The breakdown guard every coefficient task divides through.
const EPS_PRESET: (&[Reg], f32) = (&[regs::EPS], 1e-30);

fn bicgstab_init(v: &Vecs) -> (Vec<u32>, Vec<u32>) {
    (vec![v.r, v.r0, v.p], vec![v.x])
}

const BICGSTAB_SEED: &[Step] = &[run(Dot, Slot::DotRho), Reduce, run(Scalar, Slot::InitRho)];
const BICGSTAB_NORM: Norm =
    Norm::InReg(&[run(Dot, Slot::DotRr), Reduce, run(Scalar, Slot::PostRr)], regs::RR);

/// One z-column BiCGStab iteration; the last step is the second half of
/// the p-update.
const BICGSTAB_ITER: &[Step] = &[
    // s := A p;  α := ρ / (r̂₀, s);  q := r − α s
    spmv(Slot::SpmvPs),
    run(Dot, Slot::DotR0s),
    Reduce,
    run(Scalar, Slot::PostR0s),
    run(Update, Slot::UpdQ),
    // y := A q;  ω := (q, y) / (y, y)
    spmv(Slot::SpmvQy),
    run(Dot, Slot::DotQy),
    Reduce,
    run(Scalar, Slot::PostQy),
    run(Dot, Slot::DotYy),
    Reduce,
    run(Scalar, Slot::PostYy),
    // x := x + α p + ω q;  r := q − ω y
    run(Update, Slot::UpdX),
    run(Update, Slot::UpdR),
    // β and ρ roll-over;  p := r + β (p − ω s)
    run(Dot, Slot::DotRho),
    Reduce,
    run(Scalar, Slot::PostRho),
    run(Update, Slot::UpdP1),
    run(Update, Slot::UpdP2),
];

/// Table I's BiCGStab: 2 SpMV, 4 dot + AllReduce, 6 AXPY.
pub static BICGSTAB: Recurrence = Recurrence {
    init: bicgstab_init,
    presets: EPS_PRESET,
    seed: BICGSTAB_SEED,
    first: None,
    iter: BICGSTAB_ITER,
    norm: BICGSTAB_NORM,
    derive: <[f32]>::to_vec,
};

/// [`BICGSTAB`] with the ω-step's two inner products reduced concurrently
/// over two virtual-channel networks: three blocking rounds instead of four.
pub static BICGSTAB_FUSED: Recurrence = Recurrence {
    init: bicgstab_init,
    presets: EPS_PRESET,
    seed: BICGSTAB_SEED,
    first: None,
    iter: &[
        spmv(Slot::SpmvPs),
        run(Dot, Slot::DotR0s),
        Reduce,
        run(Scalar, Slot::PostR0s),
        run(Update, Slot::UpdQ),
        spmv(Slot::SpmvQy),
        run(Dot, Slot::DotQyYy),
        ReduceBoth,
        run(Scalar, Slot::PostOmegaFused),
        run(Update, Slot::UpdX),
        run(Update, Slot::UpdR),
        run(Dot, Slot::DotRho),
        Reduce,
        run(Scalar, Slot::PostRho),
        run(Update, Slot::UpdP1),
        run(Update, Slot::UpdP2),
    ],
    norm: BICGSTAB_NORM,
    derive: <[f32]>::to_vec,
};

/// [`BICGSTAB`] on the 2D block mapping, whose row-wise p-update is one
/// task (tilt then XPAY, in [`Slot::UpdP1`]): the same table less its last
/// step.
pub static BICGSTAB_BLOCK: Recurrence = Recurrence {
    init: bicgstab_init,
    presets: EPS_PRESET,
    seed: BICGSTAB_SEED,
    first: None,
    iter: BICGSTAB_ITER.split_at(BICGSTAB_ITER.len() - 1).0,
    norm: BICGSTAB_NORM,
    derive: <[f32]>::to_vec,
};

/// Textbook CG: two blocking reduction rounds per iteration.
pub static CG: Recurrence = Recurrence {
    init: |v| (vec![v.r, v.p], vec![v.x]),
    presets: EPS_PRESET,
    // γ₀ = (r, r), moved into place by the host.
    seed: &[
        run(Dot, Slot::DotRr),
        Reduce,
        Step::CopyReg { dst: cg_regs::GAMMA, src: cg_regs::AR_OUT },
    ],
    first: None,
    iter: &[
        // q = A p;  α from (p, q);  x += α p, r −= α q
        spmv(Slot::CgSpmv),
        run(Dot, Slot::CgDotPq),
        Reduce,
        run(Scalar, Slot::CgAlpha),
        run(Update, Slot::CgUpdXr),
        // β from (r, r), γ rolls over;  p = r + β p
        run(Dot, Slot::DotRr),
        Reduce,
        run(Scalar, Slot::CgBeta),
        run(Update, Slot::CgUpdP),
    ],
    norm: Norm::ReadBack,
    derive: <[f32]>::to_vec,
};

/// Chronopoulos–Gear CG: `γ = (r, r)` and `δ = (r, A r)` reduce together
/// in one dual-network round; nothing to seed, but iteration 0 takes the
/// β = 0 coefficient path.
pub static CG_SINGLE: Recurrence = Recurrence {
    init: |v| (vec![v.r, v.p], vec![v.x, v.q]),
    presets: EPS_PRESET,
    seed: &[],
    first: Some(&[
        spmv(Slot::CgSpmv),
        run(Dot, Slot::CgDotGammaDelta),
        ReduceBoth,
        run(Scalar, Slot::CgInit),
        run(Update, Slot::CgUpdAll),
    ]),
    iter: &[
        spmv(Slot::CgSpmv),
        run(Dot, Slot::CgDotGammaDelta),
        ReduceBoth,
        run(Scalar, Slot::CgFused),
        run(Update, Slot::CgUpdAll),
    ],
    norm: Norm::ReadBack,
    derive: <[f32]>::to_vec,
};

/// Broadcast reply registers of [`BICGSTAB_SINGLE`], in host write /
/// chain stream order: `[α, −α, ω, −ω, αω, β, ‖r_new‖²]`.
pub(crate) const BC_REGS: [Reg; 7] = [
    regs::ALPHA,
    regs::NEG_ALPHA,
    regs::OMEGA,
    regs::NEG_OMEGA,
    regs::ALPHA_OMEGA,
    regs::BETA,
    regs::RR,
];

/// Every scalar the rest of a [`BICGSTAB_SINGLE`] iteration needs, in
/// [`BC_REGS`] order, from the fourteen combined dots (lane order: the
/// `Slot::Dots14` task in [`crate::multi`]). The classic scalars are
/// polynomials in the pre-α dots: with `q = r − α s` and `y = v − α·zv`,
/// every inner product expands over the measured lanes (see DESIGN.md
/// §12 for the derivation).
pub(crate) fn single_reduction_scalars(g: &[f32]) -> [f32; 7] {
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
    [alpha, -alpha, omega, -omega, alpha * omega, beta, rr_new]
}

/// The ensemble's single-reduction BiCGStab ([`crate::multi`]): the same
/// trajectory re-derived so that all fourteen scalar products of an
/// iteration are taken *before* α and ω are known and reduced in one
/// round, from which the host derives every scalar. Nothing to seed — ρ
/// is re-derived from the lanes every iteration, and with the reply
/// registers preset to zero the first `UpdP` computes `p := r`.
pub static BICGSTAB_SINGLE: Recurrence = Recurrence {
    init: |v| (vec![v.r, v.r0], vec![v.s, v.v, v.zv, v.p, v.q, v.x]),
    presets: (&BC_REGS, 0.0),
    seed: &[],
    first: None,
    iter: &[
        // Window A: p := r + β (p − ω s) beside v := A r. The p-update is
        // independent of the SpMV (it touches p/s, the SpMV reads r and
        // writes v); its cycles land in the `spmv` bucket.
        Step::Spmv { slot: Slot::SpmvRv, with: Some(Slot::UpdP) },
        // s := v + β t  (≡ A p by the recurrence t = s_prev − ω·zv_prev).
        run(Update, Slot::UpdS),
        // Window B: zv := A s.
        spmv(Slot::SpmvSzv),
        run(Dot, Slot::Dots14),
        Reduce,
        // q := r − α s;  x += α p + ω q;  r := q − ω v + αω zv;  t := s − ω zv.
        run(Update, Slot::UpdXq),
        run(Update, Slot::UpdRt),
    ],
    // ‖r‖² through payload lane 0 (the stale upper lanes are rewritten by
    // the next `Dots14`).
    norm: Norm::AtHost(&[run(Dot, Slot::DotRr), Step::ReduceToHost]),
    derive: |g| single_reduction_scalars(g).to_vec(),
};

/// How a tile region's local vectors map to the global mesh order.
#[derive(Copy, Clone, Debug)]
pub(crate) enum Layout {
    /// §IV.1: one contiguous z-column per tile.
    ZColumn(Mapping3D),
    /// §IV.2: one `bx × by` block per tile of a `w × h` region.
    Block {
        /// Per-tile block shape.
        block: Block2D,
        /// Region width in tiles.
        w: usize,
        /// Region height in tiles.
        h: usize,
    },
}

impl Layout {
    fn dims(&self) -> (usize, usize) {
        match *self {
            Layout::ZColumn(m) => (m.fabric_w, m.fabric_h),
            Layout::Block { w, h, .. } => (w, h),
        }
    }

    /// Points per tile.
    fn local_len(&self) -> usize {
        match *self {
            Layout::ZColumn(m) => m.z,
            Layout::Block { block, .. } => block.points(),
        }
    }

    /// Global mesh index of tile `(tx, ty)`'s `k`-th local point.
    fn row(&self, tx: usize, ty: usize, k: usize) -> usize {
        match *self {
            Layout::ZColumn(m) => m.core_rows(tx, ty).start + k,
            Layout::Block { block: Block2D { bx, by }, w, h } => {
                Mesh2D::new(w * bx, h * by).idx(tx * bx + k / by, ty * by + k % by)
            }
        }
    }
}

/// A built solver: everything the driver needs to run a [`Recurrence`] on
/// the tile region whose top-left tile sits at `origin`. Routing and task
/// state are per-tile, so the program is translation-invariant: a region
/// blitted elsewhere is driven through [`Program::rebased`].
#[derive(Clone)]
pub struct Program {
    pub(crate) recurrence: &'static Recurrence,
    layout: Layout,
    origin: (usize, usize),
    /// Per-tile tasks and vectors, region-relative `y * w + x` order.
    tiles: Vec<(Tasks, Vecs)>,
    /// Cycle budget of one [`Step::Run`] (only a stall ever reaches it).
    pub(crate) phase_budget: u64,
    /// Iterations since `load_rhs`: picks the recurrence's first-iteration
    /// table for callers stepping [`Program::iterate`] by hand.
    iteration: Cell<usize>,
}

impl Program {
    pub(crate) fn new(
        recurrence: &'static Recurrence,
        layout: Layout,
        origin: (usize, usize),
        tiles: Vec<(Tasks, Vecs)>,
        phase_budget: u64,
    ) -> Program {
        Program { recurrence, layout, origin, tiles, phase_budget, iteration: Cell::new(0) }
    }

    /// A handle for the **same program** resident at another origin — used
    /// after blitting the built region (e.g. a cached compiled image) to a
    /// different place on a possibly different fabric. Task ids and SRAM
    /// addresses are per-tile state that the blit copied verbatim.
    pub fn rebased(&self, origin: (usize, usize)) -> Program {
        Program { origin, ..self.clone() }
    }

    /// SRAM address of region tile `(x, y)`'s slice of the iterate (fault
    /// targeting and inspection).
    pub fn x_addr(&self, x: usize, y: usize) -> u32 {
        self.tiles[y * self.layout.dims().0 + x].1.x
    }

    /// Every tile's fabric coordinates, tasks and vectors, row-major.
    pub(crate) fn tiles(&self) -> impl Iterator<Item = (usize, usize, &Tasks, &Vecs)> {
        let (w, _) = self.layout.dims();
        let (ox, oy) = self.origin;
        self.tiles.iter().enumerate().map(move |(i, (t, v))| (ox + i % w, oy + i / w, t, v))
    }

    /// Activates `slot`'s task on every tile and runs to quiescence under
    /// the stall watchdog, bracketed as trace phase `phase` (inert unless
    /// tracing is armed); a wedged fabric surfaces as a [`StallReport`]
    /// the recovery layer can act on.
    fn try_run(
        &self,
        exec: &mut impl WaferExec,
        phase: Phase,
        slot: Slot,
        budget: u64,
    ) -> Result<u64, Box<StallReport>> {
        for (x, y, tasks, _) in self.tiles() {
            exec.activate(x, y, tasks[slot]);
        }
        exec.run_phase(phase.name(), budget, recovery::STALL_WINDOW)
    }

    /// Interprets a step table, returning its cycles by phase.
    fn try_steps(
        &self,
        exec: &mut impl WaferExec,
        steps: &[Step],
    ) -> Result<IterCycles, Box<StallReport>> {
        let (w, h) = self.layout.dims();
        let reduce_budget = 100 * (w + h) as u64 + 50_000;
        let mut c = IterCycles::default();
        for &step in steps {
            let (phase, slot, budget) = match step {
                Step::Run { phase, slot } => (phase, slot, self.phase_budget),
                Step::Spmv { slot, with: None } => (Phase::Spmv, slot, self.phase_budget),
                Step::Spmv { with: Some(_), .. } | Step::ReduceToHost => {
                    unreachable!("a step of the ensemble's interpreter (crate::multi)")
                }
                Step::Reduce => (Phase::Allreduce, Slot::Reduce, reduce_budget),
                Step::ReduceBoth => (Phase::Allreduce, Slot::ReduceBoth, reduce_budget),
                Step::CopyReg { dst, src } => {
                    for (x, y, ..) in self.tiles() {
                        let v = exec.reg(x, y, src);
                        exec.set_reg(x, y, dst, v);
                    }
                    continue;
                }
            };
            c.add(phase, self.try_run(exec, phase, slot, budget)?);
        }
        Ok(c)
    }

    /// The host-write half of `load_rhs`: scatters `b` (global mesh order)
    /// into the recurrence's starting vectors, zeroes the others, and
    /// presets its registers.
    pub(crate) fn scatter_rhs(&self, exec: &mut impl WaferExec, b: &[F16]) {
        let n = self.layout.local_len();
        assert_eq!(b.len(), self.tiles.len() * n, "rhs length mismatch");
        let zero = vec![F16::ZERO; n];
        let (ox, oy) = self.origin;
        let (regs, value) = self.recurrence.presets;
        for (x, y, _, vecs) in self.tiles() {
            let local: Vec<F16> = (0..n).map(|k| b[self.layout.row(x - ox, y - oy, k)]).collect();
            let (from_b, zeroed) = (self.recurrence.init)(vecs);
            for addr in from_b {
                exec.store_f16(x, y, addr, &local);
            }
            for addr in zeroed {
                exec.store_f16(x, y, addr, &zero);
            }
            for &reg in regs {
                exec.set_reg(x, y, reg, value);
            }
        }
        self.iteration.set(0);
    }

    /// Scatters `b` (global mesh order) into the recurrence's starting
    /// vectors, zeroes the iterate, and seeds the carried scalars.
    ///
    /// # Panics
    /// Panics on a fabric stall.
    pub fn load_rhs(&self, exec: &mut impl WaferExec, b: &[F16]) {
        self.try_load_rhs(exec, b).unwrap_or_else(|e| panic!("solver load stalled: {e}"))
    }

    /// Runs one iteration, returning its cycle breakdown.
    ///
    /// # Panics
    /// Panics on a fabric stall.
    pub fn iterate(&self, exec: &mut impl WaferExec) -> IterCycles {
        self.try_iterate(exec, self.iteration.get())
            .unwrap_or_else(|e| panic!("solver iteration stalled: {e}"))
    }

    /// The absolute residual norm ‖r‖ (observability; not part of Table
    /// I's per-iteration operation budget).
    ///
    /// # Panics
    /// Panics on a fabric stall.
    pub fn residual_norm(&self, exec: &mut impl WaferExec) -> f32 {
        self.try_residual_norm(exec)
            .unwrap_or_else(|e| panic!("solver residual phase stalled: {e}")) as f32
    }

    /// Gathers the iterate from tile memories (global mesh order).
    pub fn read_x(&self, exec: &impl WaferExec) -> Vec<F16> {
        let n = self.layout.local_len();
        let mut out = vec![F16::ZERO; self.tiles.len() * n];
        let (ox, oy) = self.origin;
        for (x, y, _, vecs) in self.tiles() {
            for (k, v) in exec.load_f16(x, y, vecs.x, n).into_iter().enumerate() {
                out[self.layout.row(x - ox, y - oy, k)] = v;
            }
        }
        out
    }
}

/// What a driver must provide to be solved with: the four operations of a
/// Krylov solve, fallible so the recovery engine can roll back instead of
/// panicking. [`Krylov::solve`] and [`Krylov::solve_with_recovery`] are
/// the only solve loops in the crate.
pub trait Krylov<E: WaferExec> {
    /// Per-iteration cycle record.
    type Cycles;

    /// Loads the right-hand side and zeroes the iterate.
    ///
    /// # Errors
    /// Returns the watchdog's [`StallReport`] on a stall.
    fn try_load_rhs(&self, exec: &mut E, b: &[F16]) -> Result<(), Box<StallReport>>;

    /// Runs iteration `it` (counted from the last load; after a rollback
    /// the recovery engine passes the rolled-back index).
    ///
    /// # Errors
    /// Returns the watchdog's [`StallReport`] on a stall.
    fn try_iterate(&self, exec: &mut E, it: usize) -> Result<Self::Cycles, Box<StallReport>>;

    /// The absolute residual norm ‖r‖.
    ///
    /// # Errors
    /// Returns the watchdog's [`StallReport`] on a stall.
    fn try_residual_norm(&self, exec: &mut E) -> Result<f64, Box<StallReport>>;

    /// Reads the iterate back (global mesh order).
    fn read_x(&self, exec: &E) -> Vec<F16>;

    /// Loads `b`, runs up to `iters` iterations, and returns the final
    /// iterate plus per-iteration statistics (cycles and relative
    /// residuals). The host stops early on the [`ResidualTripwire`]
    /// thresholds — it chooses the iteration budget; the hardware tasks
    /// carry no conditionals.
    ///
    /// # Panics
    /// Panics on a fabric stall.
    fn solve(&self, exec: &mut E, b: &[F16], iters: usize) -> (Vec<F16>, SolveStats<Self::Cycles>) {
        let mut stats = SolveStats::default();
        let norm_b = norm2(b);
        if norm_b == 0.0 {
            // A zero right-hand side has the zero solution; iterating
            // would divide 0/0 in the coefficient tasks.
            return (vec![F16::ZERO; b.len()], stats);
        }
        let tripwire = ResidualTripwire::default();
        let mut run = || -> Result<(), Box<StallReport>> {
            self.try_load_rhs(exec, b)?;
            for it in 0..iters {
                stats.iterations.push(self.try_iterate(exec, it)?);
                let rel = self.try_residual_norm(exec)? / norm_b;
                stats.residuals.push(rel);
                if tripwire.check(rel).stops() {
                    break;
                }
            }
            Ok(())
        };
        run().unwrap_or_else(|e| panic!("solve stalled: {e}"));
        (self.read_x(exec), stats)
    }

    /// Like [`Krylov::solve`], but under the checkpoint/rollback recovery
    /// engine ([`crate::recovery`]) so the solve survives injected faults:
    /// fabric stalls are caught by the watchdog, residual anomalies by the
    /// tripwire, and `Converged` claims are verified against `a`'s f64
    /// true residual before being believed (a corrupted iterate is
    /// invisible to the recursive residual). `a` must be on the same
    /// global mesh order as `b` and `read_x`. Returns the iterate, the
    /// committed-iteration statistics, and the full [`RecoveryLog`].
    fn solve_with_recovery(
        &self,
        exec: &mut E,
        a: &DiaMatrix<F16>,
        b: &[F16],
        iters: usize,
        policy: &RecoveryPolicy,
    ) -> (Vec<F16>, SolveStats<Self::Cycles>, RecoveryLog) {
        let mut stats = SolveStats::default();
        let norm_b = norm2(b);
        if norm_b == 0.0 {
            let log = RecoveryLog { outcome: RecoveryOutcome::Converged, ..RecoveryLog::default() };
            return (vec![F16::ZERO; b.len()], stats, log);
        }
        let log = run_with_recovery(
            exec,
            iters,
            policy,
            |e| self.try_load_rhs(e, b),
            |e, it| {
                // Re-entered with a rolled-back index after recovery: drop
                // the records of the discarded iterations.
                stats.iterations.truncate(it);
                stats.residuals.truncate(it);
                let c = self.try_iterate(e, it)?;
                let rel = self.try_residual_norm(e)? / norm_b;
                stats.iterations.push(c);
                stats.residuals.push(rel);
                Ok(rel)
            },
            |e| recovery::true_rel_residual(a, &self.read_x(e), b),
        );
        stats.iterations.truncate(log.iterations);
        stats.residuals.truncate(log.iterations);
        (self.read_x(exec), stats, log)
    }
}

fn norm2(b: &[F16]) -> f64 {
    b.iter().map(|v| v.to_f64() * v.to_f64()).sum::<f64>().sqrt()
}

impl<E: WaferExec> Krylov<E> for Program {
    type Cycles = IterCycles;

    fn try_load_rhs(&self, exec: &mut E, b: &[F16]) -> Result<(), Box<StallReport>> {
        self.scatter_rhs(exec, b);
        self.try_steps(exec, self.recurrence.seed).map(|_| ())
    }

    fn try_iterate(&self, exec: &mut E, it: usize) -> Result<IterCycles, Box<StallReport>> {
        let steps = match self.recurrence.first {
            Some(first) if it == 0 => first,
            _ => self.recurrence.iter,
        };
        let c = self.try_steps(exec, steps)?;
        self.iteration.set(it + 1);
        Ok(c)
    }

    fn try_residual_norm(&self, exec: &mut E) -> Result<f64, Box<StallReport>> {
        match self.recurrence.norm {
            Norm::ReadBack => {
                let n = self.layout.local_len();
                let r: Vec<F16> = self
                    .tiles()
                    .flat_map(|(x, y, _, vecs)| exec.load_f16(x, y, vecs.r, n))
                    .collect();
                Ok(norm2(&r))
            }
            Norm::InReg(steps, reg) => {
                self.try_steps(exec, steps)?;
                let (ox, oy) = self.origin;
                Ok(exec.reg(ox, oy, reg).max(0.0).sqrt() as f64)
            }
            Norm::AtHost(_) => unreachable!("a host-side reduction needs an ensemble"),
        }
    }

    fn read_x(&self, exec: &E) -> Vec<F16> {
        Program::read_x(self, exec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_slot_a_table_names_indexes_inside_tasks() {
        for rec in [&BICGSTAB, &BICGSTAB_FUSED, &BICGSTAB_BLOCK, &BICGSTAB_SINGLE, &CG, &CG_SINGLE]
        {
            let norm = match rec.norm {
                Norm::ReadBack => &[],
                Norm::InReg(steps, _) | Norm::AtHost(steps) => steps,
            };
            for step in [rec.seed, rec.first.unwrap_or(&[]), rec.iter, norm].concat() {
                let slots = match step {
                    Step::Run { slot, .. } => [Some(slot), None],
                    Step::Spmv { slot, with } => [Some(slot), with],
                    Step::Reduce | Step::ReduceToHost => [Some(Slot::Reduce), None],
                    Step::ReduceBoth => [Some(Slot::ReduceBoth), None],
                    Step::CopyReg { .. } => [None, None],
                };
                for slot in slots.into_iter().flatten() {
                    assert_eq!(Tasks::new()[slot], TaskId::MAX, "{slot:?} must index inside");
                }
            }
        }
    }

    /// Lanes computed in f64 from random vectors must give back the
    /// classic α = ρ/(r̂₀,s), ω = (q,y)/(y,y), β and ‖r_new‖² with
    /// q = r − αs, y = v − α·zv, each in its [`BC_REGS`] position.
    #[test]
    fn single_reduction_scalars_reproduce_the_classic_coefficients() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut vector = || -> Vec<f64> {
            let mut draw = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            };
            (0..24).map(|_| draw()).collect()
        };
        let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
        let axpy = |a: &[f64], c: f64, b: &[f64]| -> Vec<f64> {
            a.iter().zip(b).map(|(x, y)| x + c * y).collect()
        };
        let mut checked = 0;
        for _ in 0..64 {
            let [r0, r, s, v, zv] = [(); 5].map(|_| vector());
            let pairs = [
                (&r0, &r),
                (&r0, &s),
                (&r0, &v),
                (&r0, &zv),
                (&r, &v),
                (&r, &zv),
                (&s, &v),
                (&s, &zv),
                (&v, &v),
                (&v, &zv),
                (&zv, &zv),
                (&r, &r),
                (&r, &s),
                (&s, &s),
            ];
            let lanes: Vec<f32> = pairs.iter().map(|(a, b)| dot(a, b) as f32).collect();
            let (rho, alpha) = (dot(&r0, &r), dot(&r0, &r) / dot(&r0, &s));
            let (q, y) = (axpy(&r, -alpha, &s), axpy(&v, -alpha, &zv));
            let omega = dot(&q, &y) / dot(&y, &y);
            let r_new = axpy(&q, -omega, &y);
            if rho.abs().min(omega.abs()) < 0.05 || alpha.abs() > 4.0 {
                continue; // a near-breakdown draw amplifies the fp32 lane rounding
            }
            let want = |reg: Reg| match reg {
                regs::ALPHA => alpha,
                regs::NEG_ALPHA => -alpha,
                regs::OMEGA => omega,
                regs::NEG_OMEGA => -omega,
                regs::ALPHA_OMEGA => alpha * omega,
                regs::BETA => dot(&r0, &r_new) / rho * (alpha / omega),
                regs::RR => dot(&r_new, &r_new),
                _ => unreachable!("not a reply register"),
            };
            for (reg, got) in BC_REGS.into_iter().zip(single_reduction_scalars(&lanes)) {
                let err = (got as f64 - want(reg)).abs();
                assert!(err < 2e-4 * want(reg).abs().max(1.0), "r{reg}: {got} vs {}", want(reg));
            }
            checked += 1;
        }
        assert!(checked >= 16, "only {checked} well-conditioned draws");
    }
}
