//! One Krylov driver and one builder: recurrences as tables over
//! [`WaferExec`].
//!
//! The paper's solver is one fixed recurrence — SpMVs, local dots each
//! followed by an AllReduce, vector updates, and a few scalar coefficient
//! tasks — sequenced by the host between fabric-quiescent points. A step
//! may open a *window* for work that does not need it: an SpMV takes an
//! independent core-local row into its run, and an AllReduce round an
//! independent *background* row, each tensor instruction of which is a
//! thread of its own, launched by a task that outranks the round's — so
//! the datapath works while the round's tasks wait on the fabric
//! (`Recurrence::check_windows` holds every such row independent of its
//! window). This module owns that recurrence, once, as data:
//!
//! * a [`Recurrence`] ([`BICGSTAB`], [`BICGSTAB_FUSED`], [`BICGSTAB_BLOCK`],
//!   [`CG`], [`CG_SINGLE`], and the ensemble's [`BICGSTAB_SINGLE`]) carries
//!   its **construction** — a storage table (the SRAM allocation order of
//!   its vectors, by role `V`), its SpMV instances, and a phase table of
//!   one `Row` per task in emission order, each a name and a body of
//!   `Kernel` values — and its **sequencing**: `&'static [Step]` tables;
//! * one allocator and one emitter ([`crate::kernels`]) turn those tables
//!   into a tile's SRAM layout, DSRs and tasks, for either mesh layout.
//!   Allocation, DSR and task order and task names are program bytes
//!   (`wse_serve::program_digest`, `tests/krylov_pins.rs`): they are the
//!   order of the table rows and the order each `Kernel` variant documents,
//!   nowhere else. One builder, `build`, adds a single wafer's routes,
//!   reductions and SpMV dataflow for either mapping, and one placement
//!   per mapping lays a tile out (the ensemble's [`crate::multi`] shares
//!   the z-column one and adds the seam machinery);
//! * a built solver is **data** — a [`Program`]: tile region and origin,
//!   per tile a task table indexed by [`Slot`] and the vector addresses
//!   indexed by `V`, and the mesh layout (z-columns or 2D blocks);
//! * one `walk` runs any table on any of three executors, each with its
//!   own accounting: a [`Program`] on one fabric (any [`WaferExec`]); the
//!   multi-wafer [`crate::multi::WaferBicgstabMulti`], a [`Program`] too,
//!   where an SpMV is a seam window and a reduction is hierarchical; and
//!   [`HostExec`], over host vectors under any precision policy. The
//!   [`Krylov`] trait gives the wafer two the same `solve` and
//!   `solve_with_recovery` loops; the host solvers (`solver::{bicgstab,
//!   cg}`) are [`HostExec`], so the algorithm the wafer runs is the only
//!   BiCGStab and CG there are.

use crate::allreduce::Reduction;
use crate::bicgstab::regs;
use crate::cg::regs as cg;
use crate::exec::WaferExec;
use crate::kernels::{alloc, launched, TileMap, BACKGROUND_PRIORITY};
use crate::recovery::{
    self, run_with_recovery, RecoveryLog, RecoveryOutcome, RecoveryPolicy, ResidualTripwire,
};
use std::cell::Cell;
use std::convert::Infallible;
use std::ops::{Index, IndexMut};
use stencil::decomp::Block2D;
use stencil::dia::{DiaMatrix, Offset3};
use stencil::precond::has_unit_diagonal;
use stencil::{Precision, Scalar as _};
use wse_arch::fabric::StallReport;
use wse_arch::instr::{RegOp, Task};
use wse_arch::types::{Dtype, Reg, TaskId, NUM_REGS};
use wse_arch::{Core, Fabric, Tile};
use wse_dsl::block2d::{self, BlockLayout};
use wse_dsl::tess::configure_spmv_routes;
use wse_dsl::zcolumn::{build_spmv_tile, load_coefficients, tile_coefficients, SpmvLayout};
use wse_dsl::{Layout, StencilSpec};
use wse_float::F16;
use Kernel::{Arith, Axpy, AxpySourcesFirst, Xpay};
use Phase::{Dot, Scalar, Update};
use RegOp::{Add, Div, Mul, Sub};
use Store::{Alias, Lanes, Padded, Vector};
use V::{Ar, As, Pay, Reply, P, Q, R, R0, S, X, Y};

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
#[derive(Clone, Debug, Default)]
pub struct SolveStats<C = IterCycles> {
    /// Per-iteration cycle breakdowns.
    pub iterations: Vec<C>,
    /// Relative residual ‖r‖/‖b‖ per iteration.
    pub residuals: Vec<f64>,
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

/// Declares a fieldless enum together with its `COUNT`, so a table indexed
/// by the enum is sized by the enum itself: a variant appended later can
/// never index past the end of a table sized by some earlier "last" one.
macro_rules! indexed_enum {
    ($(#[$meta:meta])* $vis:vis enum $ty:ident { $($(#[$doc:meta])* $name:ident,)* }) => {
        $(#[$meta])*
        #[derive(Copy, Clone, Debug, PartialEq, Eq)]
        $vis enum $ty {
            $($(#[$doc])* $name,)*
        }

        impl $ty {
            /// Number of variants (their `as usize` run `0..COUNT`).
            $vis const COUNT: usize = [$($ty::$name,)*].len();
        }
    };
}

indexed_enum! {
    /// A per-tile task role: the index of `Tasks`. What a role's task
    /// *does* is the body of its row in the recurrence's phase table (or
    /// its SpMV instance); the step tables say when it runs.
    pub enum Slot {
        /// The Fig. 6 AllReduce of `AR_IN` into `AR_OUT`; on an ensemble, its
        /// on-wafer reduce half.
        Reduce,
        /// Ensembles: the broadcast half, run once the host has replied.
        Bcast,
        /// Both reduction networks concurrently (`AR_IN2` into `AR_OUT2` too).
        ReduceBoth,
        /// BiCGStab's first SpMV.
        SpmvPs,
        /// BiCGStab's second SpMV.
        SpmvQy,
        /// The α-step's inner product.
        DotR0s,
        /// The ω-step's numerator product.
        DotQy,
        /// The ω-step's denominator product (z-columns: left in the dot
        /// accumulator by a background thread).
        DotYy,
        /// Both ω-step products in one task, for [`Slot::ReduceBoth`].
        DotQyYy,
        /// The ρ product.
        DotRho,
        /// The residual-norm product (CG: γ).
        DotRr,
        /// α from the reduced α-step product.
        PostR0s,
        /// Stashes the reduced ω numerator.
        PostQy,
        /// ω once the denominator arrives.
        PostYy,
        /// ω from the two concurrent reduction outputs.
        PostOmegaFused,
        /// β, and ρ rolls over.
        PostRho,
        /// Stashes ρ₀.
        InitRho,
        /// Stashes `‖r‖²`.
        PostRr,
        /// The q update (α-step).
        UpdQ,
        /// The iterate update (z-columns: `x += α p`, on a background
        /// thread).
        UpdX,
        /// The residual update (z-columns: with `x += ω q` first).
        UpdR,
        /// The p update's first half, `p −= ω s`, on a background thread
        /// (the block mapping: both halves, on the main thread).
        UpdP1,
        /// The p update's second half.
        UpdP2,
        /// CG: the one SpMV.
        CgSpmv,
        /// CG: the α denominator product.
        CgDotPq,
        /// Single-reduction CG: γ and δ in one task.
        CgDotGammaDelta,
        /// CG: α.
        CgAlpha,
        /// CG: β, and γ rolls over.
        CgBeta,
        /// Single-reduction CG: β and α from γ, δ and the previous pair.
        CgFused,
        /// Single-reduction CG, first iteration: the β = 0 path.
        CgInit,
        /// CG: the residual update.
        CgUpdR,
        /// CG: the iterate update, on a background thread.
        CgUpdX,
        /// CG: the p update.
        CgUpdP,
        /// Single-reduction CG: the p, q, x, r recurrences in one task.
        CgUpdAll,
        /// Single-reduction ensemble BiCGStab: the SpMV of r.
        SpmvRv,
        /// Single-reduction ensemble BiCGStab: the SpMV of s.
        SpmvSzv,
        /// The whole p update in one task.
        UpdP,
        /// The s recurrence that replaces `s := A p`.
        UpdS,
        /// All eleven dots of one iteration, stored to the fp32 payload.
        Dots,
        /// The q and iterate updates.
        UpdXq,
        /// The residual update and the carrier of the s recurrence.
        UpdRt,
    }
}

/// One tile's tasks by [`Slot`]. Slots the program's recurrence never
/// names may stay unset; [`Program::new`] refuses one it does name.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Tasks([TaskId; Slot::COUNT]);

impl Tasks {
    /// A table with every slot unset.
    pub(crate) fn new() -> Tasks {
        Tasks([TaskId::MAX; Slot::COUNT])
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

indexed_enum! {
    /// A vector's role in a recurrence: the index of a tile's [`Addrs`].
    pub(crate) enum V {
        /// Iterate.
        X,
        /// Residual.
        R,
        /// Shadow residual r̂₀ (BiCGStab).
        R0,
        /// Search direction.
        P,
        /// BiCGStab's intermediate residual `q`, whose storage doubles as the
        /// single-reduction recurrence's carrier `t` (q's last read in `upd_rt`
        /// precedes t's write there, and t's last read in `upd_s` precedes q's
        /// write in `upd_xq`: the lifetimes never overlap); CG's `q = A p`.
        Q,
        /// The first SpMV's product `s` (CG: the one SpMV's); also the second
        /// SpMV's padded *source* in the single-reduction ensemble recurrence.
        S,
        /// `y = A q`.
        Y,
        /// `v = A r` (single-reduction ensemble BiCGStab).
        Ar,
        /// `zv = A s` (single-reduction ensemble BiCGStab).
        As,
        /// The fp32 dot payload the on-wafer chains reduce.
        Pay,
        /// The fp32 host reply the chains broadcast.
        Reply,
    }
}

/// One tile's vector addresses by `V as usize`: the byte address of each
/// role's live part (zero for a role the recurrence does not store).
pub(crate) type Addrs = [u32; V::COUNT];

/// How a storage-table row is laid out in a z-column tile's SRAM.
#[derive(Copy, Clone, Debug)]
pub(crate) enum Store {
    /// `z` fp16 words.
    Vector,
    /// An SpMV source: `z + 2` fp16 words, zero pads around the live part.
    Padded,
    /// A block of fp32 lanes.
    Lanes(u32),
    /// No storage of its own: the role shares an earlier row's address.
    Alias(V),
}

/// Where a local dot's sum goes, and with it the flavour of the emitted
/// statements (all three are pinned program bytes).
#[derive(Copy, Clone, Debug)]
pub(crate) enum Sum {
    /// Moved into the register; the operand DSRs are re-armed with
    /// `InitDsr` before each MAC (the z-column builders).
    Rearmed(Reg),
    /// Moved into the register, no re-arm (the block builder).
    Plain(Reg),
    /// Stored to fp32 lane `j` of the [`V::Pay`] block through a DSR
    /// allocated after the operands', no re-arm.
    Lane(u32),
    /// Left in the accumulator, no re-arm: a background row's dot, whose
    /// move would run before its MAC thread ends. A later row moves it.
    Acc,
}

/// One kernel of a phase task's body, as a value; [`TileMap::emit`] is its
/// only meaning. Operand DSRs are allocated per vector slice, in the order
/// each variant states.
#[derive(Copy, Clone, Debug)]
pub(crate) enum Kernel {
    /// `Dot(a, b, into)`: the local dot `Σ a·b` (fp16 multiplies, fp32
    /// accumulate in the recurrence's `dot_acc`); DSRs `(a, b)`.
    Dot(V, V, Sum),
    /// `Xpay(scalar, dst, a, b)`: `dst := a + r[scalar] · b`, fused; `dst`
    /// may alias an operand. DSRs `(dst, a, b)`.
    Xpay(Reg, V, V, V),
    /// `Axpy(scalar, dst, a)`: `dst += r[scalar] · a`; DSRs `(dst, a)`.
    Axpy(Reg, V, V),
    /// [`Kernel::Axpy`] for each `(scalar, dst, a)` in turn, with the DSRs
    /// of every `a` allocated before those of every `dst`.
    AxpySourcesFirst(&'static [(Reg, V, V)]),
    /// `Arith(op, dst, a, b)`: `r[dst] := r[a] op r[b]` in fp32.
    Arith(RegOp, Reg, Reg, Reg),
    /// `Set(reg, value)`: `r[reg] := value`.
    Set(Reg, f32),
}

/// One phase task: its slot, its debug name (program bytes), its body.
pub(crate) type Row = (Slot, &'static str, &'static [Kernel]);

/// A register or a vector role, as a kernel reads or writes it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Loc {
    Register(Reg),
    Vector(V),
}

/// What two `(reads, writes)` sets share that one of them writes.
fn conflict(
    (a_reads, a_writes): &(Vec<Loc>, Vec<Loc>),
    (b_reads, b_writes): &(Vec<Loc>, Vec<Loc>),
) -> Option<Loc> {
    let hit =
        |writes: &[Loc], other: &[Loc]| writes.iter().copied().find(|loc| other.contains(loc));
    hit(a_writes, b_reads).or(hit(a_writes, b_writes)).or(hit(b_writes, a_reads))
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
    /// `Recurrence::derive`, broadcast of its reply. `with` names an
    /// independent background row, activated with the round: its threads
    /// run on the datapath while the round's tasks wait on the fabric, and
    /// its cycles land in the `allreduce` bucket.
    Reduce {
        /// The co-scheduled background row, if any.
        with: Option<Slot>,
    },
    /// Both reduction networks in one round ([`Slot::ReduceBoth`]), `with`
    /// as for [`Step::Reduce`].
    ReduceBoth {
        /// The co-scheduled background row, if any.
        with: Option<Slot>,
    },
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

/// What a reduction step sends back: [`Step::Reduce`], [`Step::ReduceBoth`]
/// and [`Step::ReduceToHost`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum ReduceKind {
    One,
    Both,
    ToHost,
}

/// What each kind of [`Step`] means on one executor, which keeps its own
/// accounting; [`walk`] sequences them.
pub(crate) trait StepExec {
    /// A fabric stall (the host cannot fail).
    type Error;
    fn run(&mut self, phase: Phase, slot: Slot) -> Result<(), Self::Error>;
    fn spmv(&mut self, slot: Slot, with: Option<Slot>) -> Result<(), Self::Error>;
    /// Returns the lanes the host combined (none if they stay on-fabric).
    fn reduce(&mut self, kind: ReduceKind, with: Option<Slot>) -> Result<Vec<f32>, Self::Error>;
    fn copy_reg(&mut self, dst: Reg, src: Reg);
}

/// Runs a step table on `exec`: the only code that executes a [`Step`].
/// Returns the lanes of the table's last reduction.
pub(crate) fn walk<X: StepExec>(steps: &[Step], exec: &mut X) -> Result<Vec<f32>, X::Error> {
    let mut lanes = Vec::new();
    for &step in steps {
        match step {
            Step::Run { phase, slot } => exec.run(phase, slot)?,
            Step::Spmv { slot, with } => exec.spmv(slot, with)?,
            Step::Reduce { with } => lanes = exec.reduce(ReduceKind::One, with)?,
            Step::ReduceBoth { with } => lanes = exec.reduce(ReduceKind::Both, with)?,
            Step::ReduceToHost => lanes = exec.reduce(ReduceKind::ToHost, None)?,
            Step::CopyReg { dst, src } => exec.copy_reg(dst, src),
        }
    }
    Ok(lanes)
}

/// A Krylov recurrence: how its tiles are built, what `load_rhs`
/// initializes, and the step tables of its phases.
pub struct Recurrence {
    /// A z-column tile's SRAM allocation order after the six coefficient
    /// diagonals. (The block layout's SpMVs own their sources and products;
    /// [`Recurrence::place_block`] allocates the remaining rows, in this
    /// order.)
    pub(crate) storage: &'static [(V, Store)],
    /// The SpMV instances: entry slot, source, product.
    pub(crate) spmvs: &'static [(Slot, V, V)],
    /// The core-local phase tasks, in emission (= task id) order. Every
    /// recurrence of a family shares one table, so a variant also carries
    /// the tasks only its siblings activate.
    phases: &'static [Row],
    /// The background rows, emitted after `phases`: each tensor
    /// instruction a thread of its own, launched by a task that outranks
    /// the round's. A reduction step's `with` names one of these, and an
    /// SpMV's `with` a row of `phases` (`Recurrence::check_windows`).
    background: &'static [Row],
    /// The local dot accumulator.
    dot_acc: Reg,
    /// The vectors that start as the tile's slice of `b`.
    from_b: &'static [V],
    /// The vectors that start as zero (`x` always does).
    zeroed: &'static [V],
    /// Registers `load_rhs` presets on every tile, and their value (the
    /// breakdown guard every coefficient task divides through, or zeros).
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
    /// The registers a lane round's reply lands in on every tile, in order
    /// (empty for a register round, `AR_IN` into `AR_OUT`).
    pub(crate) reply: &'static [Reg],
}

impl Recurrence {
    /// Every step of every table.
    fn steps(&self) -> impl Iterator<Item = &'static Step> {
        let norm = match self.norm {
            Norm::ReadBack => &[],
            Norm::InReg(steps, _) | Norm::AtHost(steps) => steps,
        };
        [self.seed, self.first.unwrap_or(&[]), self.iter, norm].into_iter().flatten()
    }

    /// Every slot a step of any table names.
    pub(crate) fn slots(&self) -> impl Iterator<Item = Slot> {
        self.steps().flat_map(Self::activated).flatten()
    }

    /// The slots `step` activates: its own and its co-scheduled row's.
    fn activated(step: &Step) -> [Option<Slot>; 2] {
        match *step {
            Step::Run { slot, .. } => [Some(slot), None],
            Step::Spmv { slot, with } => [Some(slot), with],
            Step::Reduce { with } => [Some(Slot::Reduce), with],
            Step::ReduceToHost => [Some(Slot::Reduce), None],
            Step::ReduceBoth { with } => [Some(Slot::ReduceBoth), with],
            Step::CopyReg { .. } => [None, None],
        }
    }

    /// Every phase task's row, the background ones last.
    fn rows(&self) -> impl Iterator<Item = &'static Row> {
        self.phases.iter().chain(self.background)
    }

    /// Checks the rule every co-scheduled (`with`) row keeps, over every
    /// table: the row is a background row exactly when its window is a
    /// reduction; a background row's kernels run as concurrent threads, so
    /// none writes what another of them reads or writes; and the row shares
    /// nothing with its window but reads. An SpMV window reads its source
    /// and writes its product; a round reads and writes the `AR_*`
    /// registers of both networks, the payload, the reply block and the
    /// reply registers. Returns the first breach.
    pub(crate) fn check_windows(&self) -> Result<(), String> {
        const ROUND: [Reg; 6] =
            [regs::AR_IN, regs::AR_OUT, regs::AR_ACC, regs::AR_IN2, regs::AR_OUT2, regs::AR_ACC2];
        for &step in self.steps() {
            let (with, window, reduction) = match step {
                Step::Spmv { slot, with: Some(with) } => {
                    let spmv = self.spmvs.iter().find(|spmv| spmv.0 == slot);
                    let (_, source, product) = *spmv.expect("every SpMV step has an instance");
                    (with, (vec![self.vector(source)], vec![self.vector(product)]), false)
                }
                Step::Reduce { with: Some(with) } | Step::ReduceBoth { with: Some(with) } => {
                    let regs = ROUND.iter().chain(self.reply).map(|&reg| Loc::Register(reg));
                    let state: Vec<Loc> =
                        regs.chain([self.vector(Pay), self.vector(Reply)]).collect();
                    (with, (state.clone(), state), true)
                }
                _ => continue,
            };
            let background = self.background.iter().any(|row| row.0 == with);
            if background != reduction {
                let window = if reduction { "a reduction" } else { "an SpMV" };
                let not = if background { "" } else { "not " };
                return Err(format!("{with:?} rides {window} but is {not}a background row"));
            }
            let row = self.rows().find(|row| row.0 == with).expect("every named slot has a row");
            let effects: Vec<_> = row.2.iter().map(|kernel| self.effects(kernel)).collect();
            if background {
                for (i, a) in effects.iter().enumerate() {
                    for b in &effects[i + 1..] {
                        if let Some(loc) = conflict(a, b) {
                            return Err(format!("{with:?}: two of its threads share {loc:?}"));
                        }
                    }
                }
            }
            for kernel in &effects {
                if let Some(loc) = conflict(kernel, &window) {
                    return Err(format!("{with:?} shares {loc:?} with its window {step:?}"));
                }
            }
        }
        Ok(())
    }

    /// Checks that nothing a lane round moves is dead: each reply register
    /// is read by some row, and every iteration table's `Sum::Lane` dots
    /// write each lane `0..PAY_LANES` exactly once, the host deriving the
    /// reply from all of them (and none, for a recurrence without a lane
    /// reply). Returns the first breach.
    pub(crate) fn check_lanes(&self) -> Result<(), String> {
        let kernels = || self.rows().flat_map(|row| row.2);
        let read = |reg| kernels().any(|k| self.effects(k).0.contains(&Loc::Register(reg)));
        if let Some(reg) = self.reply.iter().find(|&&reg| !read(reg)) {
            return Err(format!("reply register {reg} is read by no row"));
        }
        let payload = if self.reply.is_empty() { 0 } else { PAY_LANES };
        for table in self.first.into_iter().chain([self.iter]) {
            let slots: Vec<Slot> = table.iter().flat_map(Self::activated).flatten().collect();
            let run = self.rows().filter(|row| slots.contains(&row.0)).flat_map(|row| row.2);
            let lane =
                |k: &Kernel| if let Kernel::Dot(_, _, Sum::Lane(j)) = *k { Some(j) } else { None };
            let mut lanes: Vec<u32> = run.filter_map(lane).collect();
            lanes.sort_unstable();
            if !lanes.iter().copied().eq(0..payload) {
                return Err(format!("an iteration writes lanes {lanes:?}, not 0..{payload}"));
            }
        }
        Ok(())
    }

    /// What `kernel` reads and writes.
    fn effects(&self, kernel: &Kernel) -> (Vec<Loc>, Vec<Loc>) {
        use Loc::Register as Rg;
        let vc = |v| self.vector(v);
        match *kernel {
            Kernel::Dot(a, b, sum) => {
                let into = match sum {
                    Sum::Rearmed(reg) | Sum::Plain(reg) => Some(Rg(reg)),
                    Sum::Lane(_) => Some(vc(Pay)),
                    Sum::Acc => None,
                };
                (vec![vc(a), vc(b)], [Some(Rg(self.dot_acc)), into].into_iter().flatten().collect())
            }
            Xpay(s, dst, a, b) => (vec![Rg(s), vc(a), vc(b)], vec![vc(dst)]),
            Axpy(s, dst, a) => (vec![Rg(s), vc(dst), vc(a)], vec![vc(dst)]),
            AxpySourcesFirst(each) => (
                each.iter().flat_map(|&(s, dst, a)| [Rg(s), vc(dst), vc(a)]).collect(),
                each.iter().map(|&(_, dst, _)| vc(dst)).collect(),
            ),
            Arith(_, dst, a, b) => (vec![Rg(a), Rg(b)], vec![Rg(dst)]),
            Kernel::Set(reg, _) => (vec![], vec![Rg(reg)]),
        }
    }

    /// Vector role `v` as a location: the role whose storage it has
    /// (textbook CG's `Q` is its `S`).
    fn vector(&self, v: V) -> Loc {
        match self.storage.iter().find(|&&(stored, _)| stored == v) {
            Some(&(_, Alias(of))) => Loc::Vector(of),
            _ => Loc::Vector(v),
        }
    }

    /// The step table of iteration `it`, counted from the load.
    pub(crate) fn iteration(&self, it: usize) -> &'static [Step] {
        self.first.filter(|_| it == 0).unwrap_or(self.iter)
    }

    /// The z-column placement of the tile at `at` (fabric coordinates):
    /// allocates the six coefficient diagonals, then the storage table in
    /// order, and loads the tile's coefficients once for every SpMV
    /// instance. Returns the vectors' live addresses and each instance's
    /// layout. The pads are zeroed once, here; the live parts are rewritten
    /// by XPAYs and the host.
    pub(crate) fn place_column(
        &self,
        tile: &mut Tile,
        a: &DiaMatrix<F16>,
        at: (usize, usize),
        z: u32,
    ) -> (Addrs, Vec<SpmvLayout>) {
        let diag = [(); 6].map(|()| alloc(tile, at, "diagonal", z, Dtype::F16));
        let mut addrs = [0; V::COUNT];
        for &(v, store) in self.storage {
            addrs[v as usize] = match store {
                Vector => alloc(tile, at, v, z, Dtype::F16),
                Padded => {
                    let pad = alloc(tile, at, v, z + 2, Dtype::F16);
                    tile.mem.write_f16(pad, F16::ZERO);
                    tile.mem.write_f16(pad + 2 * (z + 1), F16::ZERO);
                    pad + 2
                }
                Lanes(n) => alloc(tile, at, v, n, Dtype::F32),
                Alias(of) => addrs[of as usize],
            };
        }
        let layouts: Vec<SpmvLayout> = self
            .spmvs
            .iter()
            .map(|&(_, v, u)| SpmvLayout {
                z,
                diag,
                vpad: addrs[v as usize] - 2,
                u: addrs[u as usize],
            })
            .collect();
        load_coefficients(tile, &layouts[0], &tile_coefficients(a, at.0, at.1));
        (addrs, layouts)
    }

    /// The block placement of tile `at` of a `w × h` region: both SpMV
    /// instances' [`BlockLayout`]s over one copy of the nine coefficient
    /// arrays (which it loads), their tasks, then the rest of the storage
    /// table. Every vector is `bx` rows of `by` words: dense blocks, except
    /// that each SpMV's product is read in place, as the interior rows of
    /// its extended output buffer.
    pub(crate) fn place_block(
        &self,
        tile: &mut Tile,
        a: &DiaMatrix<F16>,
        block: Block2D,
        at: (usize, usize),
        (w, h): (usize, usize),
    ) -> (Tasks, TileMap) {
        let (bx, by) = (block.bx, block.by);
        let n = (bx * by) as u32;
        let offsets = Offset3::nine_point_2d();
        // `lp` allocates the coefficients with p and s, `lq` adds only q
        // and y (as the paper's memory accounting assumes).
        let lp = BlockLayout::alloc(tile, block, offsets.len(), 1, Dtype::F16);
        let ub = ((bx + 2) * (by + 2)) as u32;
        let lq = BlockLayout {
            v: alloc(tile, at, V::Q, n, Dtype::F16),
            ubuf: alloc(tile, at, V::Y, ub, Dtype::F16),
            ..lp.clone()
        };
        block2d::load_block_coefficients(tile, &lp, a, &offsets, at.0, at.1);
        let mut map = TileMap {
            at: [0; V::COUNT],
            stride: [2 * by as u32; V::COUNT],
            rows: bx as u32,
            len: by as u32,
        };
        // The 2D SpMV's halo exchange happens inside its task chain, so it
        // is attributed to the "spmv" phase, matching how the paper
        // accounts the broadcast.
        let mut tasks = Tasks::new();
        for (l, &(slot, source, product)) in [&lp, &lq].into_iter().zip(self.spmvs) {
            map.at[source as usize] = l.v;
            map.at[product as usize] = l.u_addr(1, 1);
            map.stride[product as usize] = l.u_addr(2, 1) - l.u_addr(1, 1);
            tasks[slot] = block2d::build_block_tile_task(tile, l, &offsets, at.0, at.1, w, h);
        }
        // The rest of the storage table, in its order: r, r̂₀, x.
        let owned = |v: V| self.spmvs.iter().any(|&(_, s, u)| v == s || v == u);
        for &(v, _) in self.storage.iter().filter(|&&(v, _)| !owned(v)) {
            map.at[v as usize] = alloc(tile, at, v, n, Dtype::F16);
        }
        (tasks, map)
    }

    /// Emits the phase table and then the background rows onto a tile —
    /// after its SpMV tasks, whose slots the caller has filled in — and
    /// declares every set slot a host-activated entry point.
    pub(crate) fn emit(&self, core: &mut Core, map: &TileMap, tasks: &mut Tasks) {
        for &(slot, name, body) in self.phases {
            let body = map.emit(core, body, self.dot_acc);
            tasks[slot] = core.add_task(Task::new(name, body));
        }
        for &(slot, name, body) in self.background {
            let body = launched(map.emit(core, body, self.dot_acc));
            tasks[slot] = core.add_task(Task::new(name, body).priority(BACKGROUND_PRIORITY));
        }
        tasks.0.iter().filter(|&&task| task != TaskId::MAX).for_each(|&task| core.mark_entry(task));
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

const REDUCE: Step = Step::Reduce { with: None };
const REDUCE_BOTH: Step = Step::ReduceBoth { with: None };

/// The z-column builders' dot: re-armed, summed into `into`.
const fn dot(a: V, b: V, into: Reg) -> Kernel {
    Kernel::Dot(a, b, Sum::Rearmed(into))
}

const fn mov(dst: Reg, src: Reg) -> Kernel {
    Arith(RegOp::Mov, dst, src, src)
}

const fn neg(dst: Reg, src: Reg) -> Kernel {
    Arith(RegOp::Neg, dst, src, src)
}

// ---- BiCGStab. The scalar coefficients α, ω, β are computed redundantly
// by every core in fp32 registers from the broadcast reductions; the algebra
// is layout-independent, so the z-column and block tables share the bodies.

/// `α := ρ / (r̂₀, s)`.
const POST_R0S: &[Kernel] = &[
    mov(regs::R0S, regs::AR_OUT),
    Arith(Add, regs::R0S, regs::R0S, regs::EPS),
    Arith(Div, regs::ALPHA, regs::RHO, regs::R0S),
    neg(regs::NEG_ALPHA, regs::ALPHA),
];
/// `ω := (q, y) / (y, y)` once both are in `QY` / `YY`.
const OMEGA: [Kernel; 3] = [
    Arith(Add, regs::YY, regs::YY, regs::EPS),
    Arith(Div, regs::OMEGA, regs::QY, regs::YY),
    neg(regs::NEG_OMEGA, regs::OMEGA),
];
const POST_QY: &[Kernel] = &[mov(regs::QY, regs::AR_OUT)];
const POST_YY: &[Kernel] = &[mov(regs::YY, regs::AR_OUT), OMEGA[0], OMEGA[1], OMEGA[2]];
/// `β := (ρ' / ρ) · (α / ω)`, and ρ rolls over.
const POST_RHO: &[Kernel] = &[
    mov(regs::RHO_NEXT, regs::AR_OUT),
    Arith(Add, regs::TMP, regs::OMEGA, regs::EPS),
    Arith(Div, regs::TMP, regs::ALPHA, regs::TMP),
    Arith(Add, regs::BETA, regs::RHO, regs::EPS),
    Arith(Div, regs::BETA, regs::RHO_NEXT, regs::BETA),
    Arith(Mul, regs::BETA, regs::TMP, regs::BETA),
    mov(regs::RHO, regs::RHO_NEXT),
];
const POST_OMEGA_FUSED: &[Kernel] =
    &[mov(regs::QY, regs::AR_OUT), mov(regs::YY, regs::AR_OUT2), OMEGA[0], OMEGA[1], OMEGA[2]];
const INIT_RHO: &[Kernel] = &[mov(regs::RHO, regs::AR_OUT)];
const POST_RR: &[Kernel] = &[mov(regs::RR, regs::AR_OUT)];

/// `q := r − α s`.
const UPD_Q: Kernel = Xpay(regs::NEG_ALPHA, Q, R, S);
/// `x += α p + ω q`, as the z-column builders allocate it.
const UPD_X: Kernel = AxpySourcesFirst(&[(regs::ALPHA, X, P), (regs::OMEGA, X, Q)]);
/// `r := q − ω y`.
const UPD_R: Kernel = Xpay(regs::NEG_OMEGA, R, Q, Y);
/// `p := r + β (p − ω s)`: tilt, then XPAY with `dst` aliasing `b`.
const UPD_P: [Kernel; 2] = [Xpay(regs::NEG_OMEGA, P, P, S), Xpay(regs::BETA, P, R, P)];

const BICGSTAB_PHASES: &[Row] = &[
    (Slot::DotR0s, "dot_r0s", &[dot(R0, S, regs::AR_IN)]),
    (Slot::DotQy, "dot_qy", &[dot(Q, Y, regs::AR_IN)]),
    // One product per reduction network.
    (Slot::DotQyYy, "dot_qy_yy", &[dot(Q, Y, regs::AR_IN), dot(Y, Y, regs::AR_IN2)]),
    (Slot::DotRho, "dot_rho", &[dot(R0, R, regs::AR_IN)]),
    (Slot::DotRr, "dot_rr", &[dot(R, R, regs::AR_IN)]),
    (Slot::PostR0s, "post_r0s", POST_R0S),
    // Stashes (q, y) and puts up (y, y), summed under the (q, y) round.
    (Slot::PostQy, "post_qy", &[mov(regs::QY, regs::AR_OUT), mov(regs::AR_IN, regs::DOT_ACC)]),
    (Slot::PostYy, "post_yy", POST_YY),
    (Slot::PostRho, "post_rho", POST_RHO),
    (Slot::PostOmegaFused, "post_omega_fused", POST_OMEGA_FUSED),
    (Slot::InitRho, "init_rho", INIT_RHO),
    (Slot::PostRr, "post_rr", POST_RR),
    (Slot::UpdQ, "upd_q", &[UPD_Q]),
    (Slot::UpdR, "upd_xr", &[Axpy(regs::OMEGA, X, Q), UPD_R]),
    (Slot::UpdP2, "upd_p2", &[UPD_P[1]]),
];

/// The z-column rows a round hides, one per round: none needs the round
/// it runs under.
const BICGSTAB_BACKGROUND: &[Row] = &[
    (Slot::DotYy, "dot_yy_acc", &[Kernel::Dot(Y, Y, Sum::Acc)]),
    (Slot::UpdX, "upd_x_alpha", &[Axpy(regs::ALPHA, X, P)]),
    (Slot::UpdP1, "upd_p1", &[UPD_P[0]]),
];

/// The block builder's dot: no re-arm, summed into `AR_IN`.
const fn dot2d(a: V, b: V) -> Kernel {
    Kernel::Dot(a, b, Sum::Plain(regs::AR_IN))
}

/// [`BICGSTAB_PHASES`] as the block builder emits it: `2d_` names, plain
/// dots, no ω-fused tasks, the iterate update in `(dst, a)` DSR order, and
/// the whole p-update in one task.
const BLOCK_PHASES: &[Row] = &[
    (Slot::DotR0s, "2d_dot_r0s", &[dot2d(R0, S)]),
    (Slot::DotQy, "2d_dot_qy", &[dot2d(Q, Y)]),
    (Slot::DotYy, "2d_dot_yy", &[dot2d(Y, Y)]),
    (Slot::DotRho, "2d_dot_rho", &[dot2d(R0, R)]),
    (Slot::DotRr, "2d_dot_rr", &[dot2d(R, R)]),
    (Slot::PostR0s, "2d_post_r0s", POST_R0S),
    (Slot::PostQy, "2d_post_qy", POST_QY),
    (Slot::PostYy, "2d_post_yy", POST_YY),
    (Slot::PostRho, "2d_post_rho", POST_RHO),
    (Slot::InitRho, "2d_init_rho", INIT_RHO),
    (Slot::PostRr, "2d_post_rr", POST_RR),
    (Slot::UpdQ, "2d_upd_q", &[UPD_Q]),
    (Slot::UpdX, "2d_upd_x", &[Axpy(regs::ALPHA, X, P), Axpy(regs::OMEGA, X, Q)]),
    (Slot::UpdR, "2d_upd_r", &[UPD_R]),
    (Slot::UpdP1, "2d_upd_p", &UPD_P),
];

/// One z-column BiCGStab iteration: Table I's order, with the `(y, y)`
/// dot and two of the six AXPYs, one kernel per round, under rounds they
/// do not need. (`x += ω q` stays on the main thread, in `upd_xr`: as a
/// second thread under the ρ round it hides a little more, but the round's
/// changed timing carries through the routers' arbitration state into the
/// next seam window, whose accumulation order then moves a two-wafer
/// iterate.)
const BICGSTAB_ITER: &[Step] = &[
    // s := A p;  α;  q
    spmv(Slot::SpmvPs),
    run(Dot, Slot::DotR0s),
    REDUCE,
    run(Scalar, Slot::PostR0s),
    run(Update, Slot::UpdQ),
    // y := A q;  ω, with (y, y) under the (q, y) round and x += α p under
    // the (y, y) round
    spmv(Slot::SpmvQy),
    run(Dot, Slot::DotQy),
    Step::Reduce { with: Some(Slot::DotYy) },
    run(Scalar, Slot::PostQy),
    Step::Reduce { with: Some(Slot::UpdX) },
    run(Scalar, Slot::PostYy),
    // x, r
    run(Update, Slot::UpdR),
    // β and ρ roll-over, with p −= ω s under the round;  p
    run(Dot, Slot::DotRho),
    Step::Reduce { with: Some(Slot::UpdP1) },
    run(Scalar, Slot::PostRho),
    run(Update, Slot::UpdP2),
];

const CLASSIC: Recurrence = Recurrence {
    storage: &[
        (P, Padded),
        (Q, Padded),
        (S, Vector),
        (Y, Vector),
        (R, Vector),
        (R0, Vector),
        (X, Vector),
    ],
    spmvs: &[(Slot::SpmvPs, P, S), (Slot::SpmvQy, Q, Y)],
    phases: BICGSTAB_PHASES,
    background: BICGSTAB_BACKGROUND,
    dot_acc: regs::DOT_ACC,
    from_b: &[R, R0, P],
    zeroed: &[X],
    presets: (&[regs::EPS], 1e-30),
    seed: &[run(Dot, Slot::DotRho), REDUCE, run(Scalar, Slot::InitRho)],
    first: None,
    iter: BICGSTAB_ITER,
    norm: Norm::InReg(&[run(Dot, Slot::DotRr), REDUCE, run(Scalar, Slot::PostRr)], regs::RR),
    derive: <[f32]>::to_vec,
    reply: &[],
};

/// Table I's BiCGStab: 2 SpMV, 4 dot + AllReduce, 6 AXPY.
pub static BICGSTAB: Recurrence = CLASSIC;

/// [`BICGSTAB`] with the ω-step's two inner products reduced concurrently
/// over two virtual-channel networks: three blocking rounds instead of four.
/// Only the ρ round carries work: `x += α p` under the two-network round
/// would reorder that round's fp32 sums, so it runs as a phase of its own.
pub static BICGSTAB_FUSED: Recurrence = Recurrence {
    iter: &[
        spmv(Slot::SpmvPs),
        run(Dot, Slot::DotR0s),
        REDUCE,
        run(Scalar, Slot::PostR0s),
        run(Update, Slot::UpdQ),
        spmv(Slot::SpmvQy),
        run(Dot, Slot::DotQyYy),
        REDUCE_BOTH,
        run(Scalar, Slot::PostOmegaFused),
        run(Update, Slot::UpdX),
        run(Update, Slot::UpdR),
        run(Dot, Slot::DotRho),
        Step::Reduce { with: Some(Slot::UpdP1) },
        run(Scalar, Slot::PostRho),
        run(Update, Slot::UpdP2),
    ],
    ..CLASSIC
};

/// [`BICGSTAB`] on the 2D block mapping, in Table I's phase order with no
/// background rows: a block row issues one instruction per block row, and
/// the row-wise p-update is one task (in [`Slot::UpdP1`]).
pub static BICGSTAB_BLOCK: Recurrence = Recurrence {
    phases: BLOCK_PHASES,
    background: &[],
    iter: &[
        spmv(Slot::SpmvPs),
        run(Dot, Slot::DotR0s),
        REDUCE,
        run(Scalar, Slot::PostR0s),
        run(Update, Slot::UpdQ),
        spmv(Slot::SpmvQy),
        run(Dot, Slot::DotQy),
        REDUCE,
        run(Scalar, Slot::PostQy),
        run(Dot, Slot::DotYy),
        REDUCE,
        run(Scalar, Slot::PostYy),
        run(Update, Slot::UpdX),
        run(Update, Slot::UpdR),
        run(Dot, Slot::DotRho),
        REDUCE,
        run(Scalar, Slot::PostRho),
        run(Update, Slot::UpdP1),
    ],
    ..CLASSIC
};

// ---- CG. Both variants emit one phase table (registers: `cg::regs`); the
// SpMV's product is `S` in both, so the rows read the same either way.

/// Standard: α = γ / (p, A p); γ carried in GAMMA.
const CG_ALPHA: &[Kernel] = &[
    Arith(Add, cg::TMP, cg::AR_OUT, cg::EPS),
    Arith(Div, cg::ALPHA, cg::GAMMA, cg::TMP),
    neg(cg::NEG_ALPHA, cg::ALPHA),
];
/// Standard: β = γ' / γ; roll γ.
const CG_BETA: &[Kernel] =
    &[Arith(Div, cg::BETA, cg::AR_OUT, cg::GAMMA), mov(cg::GAMMA, cg::AR_OUT)];
/// Single-reduction: γ = AR_OUT, δ = AR_OUT2; β = γ/γ_prev (iteration 0 has
/// no γ_prev and runs `cg_init` instead); α = γ / (δ − β γ / α_prev).
const CG_FUSED: &[Kernel] = &[
    mov(cg::GAMMA, cg::AR_OUT),
    mov(cg::DELTA, cg::AR_OUT2),
    Arith(Add, cg::TMP, cg::GAMMA_PREV, cg::EPS),
    Arith(Div, cg::BETA, cg::GAMMA, cg::TMP),
    // TMP = β γ / α_prev
    Arith(Mul, cg::TMP, cg::BETA, cg::GAMMA),
    Arith(Div, cg::TMP, cg::TMP, cg::ALPHA_PREV),
    Arith(Sub, cg::TMP, cg::DELTA, cg::TMP),
    Arith(Div, cg::ALPHA, cg::GAMMA, cg::TMP),
    neg(cg::NEG_ALPHA, cg::ALPHA),
    mov(cg::GAMMA_PREV, cg::GAMMA),
    mov(cg::ALPHA_PREV, cg::ALPHA),
];
/// First single-reduction iteration: β = 0, α = γ/δ.
const CG_INIT: &[Kernel] = &[
    mov(cg::GAMMA, cg::AR_OUT),
    mov(cg::DELTA, cg::AR_OUT2),
    Kernel::Set(cg::BETA, 0.0),
    Arith(Add, cg::TMP, cg::DELTA, cg::EPS),
    Arith(Div, cg::ALPHA, cg::GAMMA, cg::TMP),
    neg(cg::NEG_ALPHA, cg::ALPHA),
    mov(cg::GAMMA_PREV, cg::GAMMA),
    mov(cg::ALPHA_PREV, cg::ALPHA),
];
/// Single-reduction: p = r + β p; q = A r + β q; x += α p; r −= α q.
const CG_UPD_ALL: &[Kernel] = &[
    Xpay(cg::BETA, P, R, P),
    Xpay(cg::BETA, Q, S, Q),
    Axpy(cg::ALPHA, X, P),
    Axpy(cg::NEG_ALPHA, R, Q),
];

const CG_PHASES: &[Row] = &[
    (Slot::CgDotPq, "cg_dot_pq", &[dot(P, S, cg::AR_IN)]),
    (Slot::DotRr, "cg_dot_rr", &[dot(R, R, cg::AR_IN)]),
    // γ = (r, r) and δ = (r, A r), one per reduction network.
    (Slot::CgDotGammaDelta, "cg_dot_gd", &[dot(R, R, cg::AR_IN), dot(R, S, cg::AR_IN2)]),
    (Slot::CgAlpha, "cg_alpha", CG_ALPHA),
    (Slot::CgBeta, "cg_beta", CG_BETA),
    (Slot::CgFused, "cg_fused_coeffs", CG_FUSED),
    (Slot::CgInit, "cg_init", CG_INIT),
    // Standard: r −= α A p.
    (Slot::CgUpdR, "cg_upd_r", &[Axpy(cg::NEG_ALPHA, R, S)]),
    // Standard: p = r + β p (XPAY with dst aliasing b).
    (Slot::CgUpdP, "cg_upd_p", &[Xpay(cg::BETA, P, R, P)]),
    (Slot::CgUpdAll, "cg2_upd", CG_UPD_ALL),
];

/// Textbook CG: two blocking reduction rounds per iteration. `p` lives in
/// the padded SpMV source; `q` only names the product, for the sibling's
/// rows.
pub static CG: Recurrence = CG_STANDARD;

const CG_STANDARD: Recurrence = Recurrence {
    storage: &[(P, Padded), (S, Vector), (X, Vector), (R, Vector), (Q, Alias(S))],
    spmvs: &[(Slot::CgSpmv, P, S)],
    phases: CG_PHASES,
    // Standard: x += α p, under the (r, r) round.
    background: &[(Slot::CgUpdX, "cg_upd_x", &[Axpy(cg::ALPHA, X, P)])],
    dot_acc: cg::DOT_ACC,
    from_b: &[R, P],
    zeroed: &[X],
    presets: (&[regs::EPS], 1e-30),
    // γ₀ = (r, r), moved into place by the host.
    seed: &[run(Dot, Slot::DotRr), REDUCE, Step::CopyReg { dst: cg::GAMMA, src: cg::AR_OUT }],
    first: None,
    iter: &[
        // A p;  α;  r
        spmv(Slot::CgSpmv),
        run(Dot, Slot::CgDotPq),
        REDUCE,
        run(Scalar, Slot::CgAlpha),
        run(Update, Slot::CgUpdR),
        // β, γ rolls over, with x += α p under the round;  p
        run(Dot, Slot::DotRr),
        Step::Reduce { with: Some(Slot::CgUpdX) },
        run(Scalar, Slot::CgBeta),
        run(Update, Slot::CgUpdP),
    ],
    norm: Norm::ReadBack,
    derive: <[f32]>::to_vec,
    reply: &[],
};

/// Chronopoulos–Gear CG: `γ = (r, r)` and `δ = (r, A r)` reduce together
/// in one dual-network round; nothing to seed, but iteration 0 takes the
/// β = 0 coefficient path. `r` lives in the padded SpMV source; `p` and
/// `q = A p` (maintained by recurrence) are separate vectors.
pub static CG_SINGLE: Recurrence = Recurrence {
    storage: &[(R, Padded), (S, Vector), (X, Vector), (P, Vector), (Q, Vector)],
    spmvs: &[(Slot::CgSpmv, R, S)],
    zeroed: &[X, Q],
    seed: &[],
    first: Some(&[
        spmv(Slot::CgSpmv),
        run(Dot, Slot::CgDotGammaDelta),
        REDUCE_BOTH,
        run(Scalar, Slot::CgInit),
        run(Update, Slot::CgUpdAll),
    ]),
    iter: &[
        spmv(Slot::CgSpmv),
        run(Dot, Slot::CgDotGammaDelta),
        REDUCE_BOTH,
        run(Scalar, Slot::CgFused),
        run(Update, Slot::CgUpdAll),
    ],
    ..CG_STANDARD
};

/// Number of fp32 dot-product lanes in [`BICGSTAB_SINGLE`]'s payload.
pub(crate) const PAY_LANES: u32 = DOTS.len() as u32;

/// Broadcast reply registers of [`BICGSTAB_SINGLE`], in host write /
/// chain stream order: `[α, −α, ω, −ω, αω, β]`.
pub(crate) const BC_REGS: [Reg; 6] =
    [regs::ALPHA, regs::NEG_ALPHA, regs::OMEGA, regs::NEG_OMEGA, regs::ALPHA_OMEGA, regs::BETA];

/// Every scalar the rest of a [`BICGSTAB_SINGLE`] iteration needs, in
/// [`BC_REGS`] order, from the eleven combined dots (lane order: the
/// `Slot::Dots` row of `SINGLE_PHASES`). The classic scalars are
/// polynomials in the pre-α dots: with `q = r − α s` and `y = v − α·zv`,
/// every inner product expands over the measured lanes (see DESIGN.md
/// §12 for the derivation).
pub(crate) fn single_reduction_scalars(g: &[f32]) -> [f32; 6] {
    const EPS: f32 = 1e-30;
    let rho = g[0];
    let alpha = g[0] / (g[1] + EPS);
    let qy = g[4] - alpha * (g[5] + g[6]) + alpha * alpha * g[7];
    let yy = g[8] - 2.0 * alpha * g[9] + alpha * alpha * g[10];
    let omega = qy / (yy + EPS);
    let rho_next = (g[0] - alpha * g[1]) - omega * (g[2] - alpha * g[3]);
    let beta = (rho_next / (rho + EPS)) * (alpha / (omega + EPS));
    [alpha, -alpha, omega, -omega, alpha * omega, beta]
}

/// The ensemble's dot: stored to payload lane `j`.
const fn lane(j: u32, a: V, b: V) -> Kernel {
    Kernel::Dot(a, b, Sum::Lane(j))
}

/// All eleven dots of an iteration; lane order is the host-side contract
/// of [`single_reduction_scalars`].
const DOTS: &[Kernel] = &[
    lane(0, R0, R),
    lane(1, R0, S),
    lane(2, R0, Ar),
    lane(3, R0, As),
    lane(4, R, Ar),
    lane(5, R, As),
    lane(6, S, Ar),
    lane(7, S, As),
    lane(8, Ar, Ar),
    lane(9, Ar, As),
    lane(10, As, As),
];
/// `r := q − ω v;  r += αω zv` (⟹ `r = q − ω y`); `t := s − ω zv` — q's
/// storage is rewritten as t only after its last read.
const UPD_RT: &[Kernel] = &[
    Xpay(regs::NEG_OMEGA, R, Q, Ar),
    AxpySourcesFirst(&[(regs::ALPHA_OMEGA, R, As)]),
    Xpay(regs::NEG_OMEGA, Q, S, As),
];

const SINGLE_PHASES: &[Row] = &[
    // With the previous iteration's ω and β.
    (Slot::UpdP, "upd_p", &UPD_P),
    // s := v + β t  (t lives in q's storage).
    (Slot::UpdS, "upd_s", &[Xpay(regs::BETA, S, Ar, Q)]),
    (Slot::Dots, "fused_dots", DOTS),
    (Slot::UpdXq, "upd_xq", &[UPD_Q, UPD_X]),
    (Slot::UpdRt, "upd_rt", UPD_RT),
    // Into lane 0, for the residual-norm round.
    (Slot::DotRr, "dot_rr", &[lane(0, R, R)]),
];

/// The ensemble's single-reduction BiCGStab ([`crate::multi`]): the same
/// trajectory re-derived so that all eleven scalar products of an
/// iteration are taken *before* α and ω are known and reduced in one
/// round, from which the host derives every scalar. Nothing to seed — ρ
/// is re-derived from the lanes every iteration, and with the reply
/// registers preset to zero the first `UpdP` computes `p := r`. The
/// payload and reply blocks land at the same address on every tile (the
/// chains stream them blind).
pub static BICGSTAB_SINGLE: Recurrence = Recurrence {
    storage: &[
        (R, Padded),
        (S, Padded),
        (Ar, Vector),
        (As, Vector),
        (P, Vector),
        (Q, Vector),
        (R0, Vector),
        (X, Vector),
        (Pay, Lanes(PAY_LANES)),
        (Reply, Lanes(BC_REGS.len() as u32)),
    ],
    spmvs: &[(Slot::SpmvRv, R, Ar), (Slot::SpmvSzv, S, As)],
    phases: SINGLE_PHASES,
    background: &[],
    dot_acc: regs::DOT_ACC,
    from_b: &[R, R0],
    zeroed: &[S, Ar, As, P, Q, X],
    presets: (&BC_REGS, 0.0),
    seed: &[],
    first: None,
    iter: &[
        // Window A: the p-update beside v := A r. It is independent of the
        // SpMV (it writes p; both read r; the SpMV writes v); its cycles
        // land in the `spmv` bucket.
        Step::Spmv { slot: Slot::SpmvRv, with: Some(Slot::UpdP) },
        // s  (≡ A p by the recurrence t = s_prev − ω·zv_prev).
        run(Update, Slot::UpdS),
        // Window B: zv := A s.
        spmv(Slot::SpmvSzv),
        run(Dot, Slot::Dots),
        REDUCE,
        run(Update, Slot::UpdXq),
        run(Update, Slot::UpdRt),
    ],
    // ‖r‖² through payload lane 0 (the stale upper lanes are rewritten by
    // the next `Dots`).
    norm: Norm::AtHost(&[run(Dot, Slot::DotRr), Step::ReduceToHost]),
    derive: |g| single_reduction_scalars(g).to_vec(),
    reply: &BC_REGS,
};

/// Checks `a` against the operator `layout`'s SpMV computes: the
/// unit-diagonal seven-point z-column or nine-point block (a tap missing
/// from `a` reads as zero) and, for a block, the region's mesh.
///
/// # Panics
/// With the [`wse_dsl::DslError`] text, which names the offset, on a
/// nonzero band the SpMV would drop; on a non-unit diagonal; on a block
/// mesh that is not `block` times the region.
pub(crate) fn check_operator(a: &DiaMatrix<F16>, layout: &Layout) {
    let spec = match *layout {
        Layout::ZColumn(_) => StencilSpec::var_seven_point_3d(),
        Layout::Block { block, w, h } => {
            let region = block.covered_mesh(w, h).as_3d();
            assert_eq!(a.mesh(), region, "mesh must be the block times the tile region");
            StencilSpec::var_nine_point_2d()
        }
    };
    spec.check_bands(a).unwrap_or_else(|e| panic!("{e}"));
    assert!(has_unit_diagonal(a), "matrix must be diagonally preconditioned");
}

/// The one single-wafer Krylov builder: lays `recurrence` out over
/// `layout` on the region at the fabric origin and returns the
/// [`Program`]. In program-byte order: checks the operator, sets the
/// mapping's SpMV routes, builds the Fig. 6 AllReduce with its tasks
/// ([`Reduction::krylov`]: one per tile, plus the task interleaving it with
/// a second tree iff a step table reduces over both), then per tile the
/// mapping's placement, the reduction slots and the phase table. A region
/// blitted elsewhere is driven through [`Program::rebased`].
///
/// # Panics
/// On an operator [`check_operator`] refuses, a region smaller than 2×2 or
/// past the fabric, or a tile out of SRAM.
pub(crate) fn build(
    fabric: &mut Fabric,
    a: &DiaMatrix<F16>,
    layout: Layout,
    recurrence: &'static Recurrence,
) -> Program {
    check_operator(a, &layout);
    let (w, h) = layout.dims();
    assert!(w <= fabric.width() && h <= fabric.height(), "region exceeds fabric");
    match layout {
        Layout::ZColumn(_) => configure_spmv_routes(fabric, w, h),
        Layout::Block { .. } => block2d::configure_block_routes(fabric, w, h, 1),
    }
    let both = recurrence.slots().any(|slot| slot == Slot::ReduceBoth);
    let reductions = Reduction::krylov(fabric, w, h, both);

    let mut tiles = Vec::with_capacity(w * h);
    for y in 0..h {
        for x in 0..w {
            let tile = fabric.tile_mut(x, y);
            let (mut tasks, map) = match layout {
                Layout::ZColumn(m) => {
                    let z = m.z as u32;
                    let (at, spmvs) = recurrence.place_column(tile, a, (x, y), z);
                    let mut tasks = Tasks::new();
                    for (&(slot, ..), l) in recurrence.spmvs.iter().zip(spmvs) {
                        tasks[slot] = build_spmv_tile(tile, x, y, w, h, l, None);
                    }
                    (tasks, TileMap::column(at, z))
                }
                Layout::Block { block, .. } => {
                    recurrence.place_block(tile, a, block, (x, y), (w, h))
                }
            };
            let (reduce, reduce_both) = reductions[y * w + x];
            tasks[Slot::Reduce] = reduce;
            if let Some(t) = reduce_both {
                tasks[Slot::ReduceBoth] = t;
            }
            recurrence.emit(&mut tile.core, &map, &mut tasks);
            tiles.push((tasks, map.at));
        }
    }
    wse_dsl::debug_lint(fabric);
    Program::new(recurrence, layout, tiles)
}

/// A built solver: everything the driver needs to run a [`Recurrence`] on
/// the tile region whose top-left tile sits at `origin` — the fabric's
/// `(0, 0)` as built. Routing and task state are per-tile, so the program
/// is translation-invariant: a region blitted elsewhere is driven through
/// [`Program::rebased`].
#[derive(Clone)]
pub struct Program {
    pub(crate) recurrence: &'static Recurrence,
    layout: Layout,
    origin: (usize, usize),
    /// Per-tile tasks and vectors, region-relative `y * w + x` order.
    tiles: Vec<(Tasks, Addrs)>,
    /// Cycle budget of one [`Step::Run`] (only a stall ever reaches it).
    pub(crate) phase_budget: u64,
    /// Iterations since `load_rhs`: picks the recurrence's first-iteration
    /// table for callers stepping [`Program::iterate`] by hand.
    iteration: Cell<usize>,
}

impl Program {
    /// # Panics
    /// Panics if a tile leaves unset a slot the step tables name — at build
    /// time, by name, not as an out-of-range task activation mid-solve —
    /// and, in debug builds (where the builders lint), if a co-scheduled
    /// row breaks `Recurrence::check_windows` or a lane round moves a dead
    /// lane or reply register (`Recurrence::check_lanes`).
    pub(crate) fn new(
        recurrence: &'static Recurrence,
        layout: Layout,
        tiles: Vec<(Tasks, Addrs)>,
    ) -> Program {
        if cfg!(debug_assertions) {
            recurrence.check_windows().unwrap_or_else(|e| panic!("co-scheduled row: {e}"));
            recurrence.check_lanes().unwrap_or_else(|e| panic!("lane round: {e}"));
        }
        let (w, h) = layout.dims();
        let phase_budget = match layout {
            Layout::ZColumn(m) => 200 * m.z as u64 + 200 * (w + h) as u64 + 50_000,
            Layout::Block { block, .. } => 2_000 * block.points() as u64 + 100_000,
        };
        let iteration = Cell::new(0);
        let program =
            Program { recurrence, layout, origin: (0, 0), tiles, phase_budget, iteration };
        for (x, y, tasks, _) in program.tiles() {
            if let Some(slot) = recurrence.slots().find(|&slot| tasks[slot] == TaskId::MAX) {
                panic!("tile ({x}, {y}) has no task for {slot:?}, which the recurrence names");
            }
        }
        program
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
        self.tiles[y * self.layout.dims().0 + x].1[X as usize]
    }

    /// Every tile's fabric coordinates, tasks and vectors, row-major.
    pub(crate) fn tiles(&self) -> impl Iterator<Item = (usize, usize, &Tasks, &Addrs)> {
        let (w, _) = self.layout.dims();
        let (ox, oy) = self.origin;
        self.tiles.iter().enumerate().map(move |(i, (t, v))| (ox + i % w, oy + i / w, t, v))
    }

    /// The program on `exec` as a step executor, its cycle record zero.
    pub(crate) fn on<'a, E>(&'a self, exec: &'a mut E) -> OnWafer<'a, E> {
        OnWafer { program: self, exec, cycles: IterCycles::default() }
    }

    /// ‖r‖ by the recurrence's [`Norm`], `walk_on` walking its steps on
    /// `exec`: ‖r‖² from the register or lane 0 of the host's combine, a
    /// rounding below zero as zero and a NaN as NaN (for the tripwire).
    pub(crate) fn try_norm<E: WaferExec>(
        &self,
        exec: &mut E,
        walk_on: impl FnOnce(&mut E, &[Step]) -> Result<Vec<f32>, Box<StallReport>>,
    ) -> Result<f64, Box<StallReport>> {
        let rr = match self.recurrence.norm {
            Norm::ReadBack => {
                let n = self.layout.local_len();
                let r: Vec<F16> = self
                    .tiles()
                    .flat_map(|(x, y, _, at)| exec.load_f16(x, y, at[R as usize], n))
                    .collect();
                return Ok(norm2(&r));
            }
            Norm::InReg(steps, reg) => {
                walk_on(exec, steps)?;
                exec.reg(self.origin.0, self.origin.1, reg)
            }
            Norm::AtHost(steps) => walk_on(exec, steps)?[0],
        };
        Ok(if rr < 0.0 { 0.0 } else { rr }.sqrt() as f64)
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
        for (x, y, _, at) in self.tiles() {
            let local: Vec<F16> = (0..n).map(|k| b[self.layout.row(x - ox, y - oy, k)]).collect();
            for &v in self.recurrence.from_b {
                exec.store_f16(x, y, at[v as usize], &local);
            }
            for &v in self.recurrence.zeroed {
                exec.store_f16(x, y, at[v as usize], &zero);
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
        for (x, y, _, at) in self.tiles() {
            for (k, v) in exec.load_f16(x, y, at[X as usize], n).into_iter().enumerate() {
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
    type Cycles: Default;

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
        walk(self.recurrence.seed, &mut self.on(exec)).map(drop)
    }

    fn try_iterate(&self, exec: &mut E, it: usize) -> Result<IterCycles, Box<StallReport>> {
        let mut on = self.on(exec);
        walk(self.recurrence.iteration(it), &mut on)?;
        self.iteration.set(it + 1);
        Ok(on.cycles)
    }

    fn try_residual_norm(&self, exec: &mut E) -> Result<f64, Box<StallReport>> {
        self.try_norm(exec, |exec, steps| walk(steps, &mut self.on(exec)))
    }

    fn read_x(&self, exec: &E) -> Vec<F16> {
        Program::read_x(self, exec)
    }
}

/// A [`Program`] on one fabric: a step activates its task on every tile
/// and runs to quiescence under the stall watchdog, as a trace phase.
pub(crate) struct OnWafer<'a, E> {
    program: &'a Program,
    exec: &'a mut E,
    cycles: IterCycles,
}

impl<E: WaferExec> OnWafer<'_, E> {
    /// Activates `with` (if any) and then `slot` on every tile and runs to
    /// quiescence within `budget` cycles, accounted to `phase`.
    fn dispatch(
        &mut self,
        phase: Phase,
        slot: Slot,
        with: Option<Slot>,
        budget: u64,
    ) -> Result<(), Box<StallReport>> {
        for slot in with.into_iter().chain([slot]) {
            for (x, y, tasks, _) in self.program.tiles() {
                self.exec.activate(x, y, tasks[slot]);
            }
        }
        self.cycles.add(phase, self.exec.run_phase(phase.name(), budget, recovery::STALL_WINDOW)?);
        Ok(())
    }
}

impl<E: WaferExec> StepExec for OnWafer<'_, E> {
    type Error = Box<StallReport>;

    fn run(&mut self, phase: Phase, slot: Slot) -> Result<(), Self::Error> {
        self.dispatch(phase, slot, None, self.program.phase_budget)
    }

    fn spmv(&mut self, slot: Slot, with: Option<Slot>) -> Result<(), Self::Error> {
        self.dispatch(Phase::Spmv, slot, with, self.program.phase_budget)
    }

    /// A round, and the row co-scheduled into it: the round's budget, and
    /// a phase's more for the row.
    fn reduce(&mut self, kind: ReduceKind, with: Option<Slot>) -> Result<Vec<f32>, Self::Error> {
        let slot = match kind {
            ReduceKind::One => Slot::Reduce,
            ReduceKind::Both => Slot::ReduceBoth,
            ReduceKind::ToHost => unreachable!("a single wafer's reduction never leaves it"),
        };
        let (w, h) = self.program.layout.dims();
        let row = with.map_or(0, |_| self.program.phase_budget);
        let budget = 100 * (w + h) as u64 + 50_000 + row;
        self.dispatch(Phase::Allreduce, slot, with, budget).map(|()| Vec::new())
    }

    fn copy_reg(&mut self, dst: Reg, src: Reg) {
        for (x, y, ..) in self.program.tiles() {
            let v = self.exec.reg(x, y, src);
            self.exec.set_reg(x, y, dst, v);
        }
    }
}

/// The kernels one [`HostExec::iterate`] ran, by kind: Table I's ledger as
/// the step table spells it.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// SpMV steps.
    pub spmvs: u64,
    /// Local dot products.
    pub dots: u64,
    /// AXPY-family vector updates (one per `(scalar, dst, source)`).
    pub axpys: u64,
    /// Blocking reduction rounds (both networks of a dual round count once).
    pub reductions: u64,
}

/// Any [`Recurrence`] run over host vectors under precision policy `P`,
/// with the SpMV handed in as a closure `spmv(source, product)`.
///
/// The semantics are the wafer's, kernel by kernel: a dot is `P::dot` (the
/// one-tile case of the zeroed MAC), or its fp32 rounding in a payload
/// lane; a register round copies `AR_IN` to `AR_OUT`, a lane round writes
/// the recurrence's `Recurrence::derive` to its reply registers;
/// register arithmetic runs in `P::Global`; an update reads its scalar
/// register narrowed once to storage; an SpMV's or a round's co-scheduled
/// row runs first. The wafer's fp32 reduction order is not reproduced — it depends
/// on the fabric's history ([`crate::allreduce`]) — so wafer and host
/// trajectories agree to a bound, not bit for bit.
pub struct HostExec<P: Precision, M> {
    recurrence: &'static Recurrence,
    spmv: M,
    /// Each role's index into `vectors`, storage aliases resolved.
    home: [usize; V::COUNT],
    /// One vector per storage row; empty until first written.
    vectors: Vec<Vec<P::Storage>>,
    regs: [P::Global; NUM_REGS],
    /// The fp32 dot payload.
    pay: [f32; PAY_LANES as usize],
    iteration: usize,
    /// The kernels run since the last [`HostExec::iterate`] began.
    tally: Tally,
}

impl<P: Precision, M: FnMut(&[P::Storage], &mut [P::Storage])> HostExec<P, M> {
    /// An executor of `recurrence` with `spmv` as its matrix.
    pub fn new(recurrence: &'static Recurrence, spmv: M) -> Self {
        let mut home = [usize::MAX; V::COUNT];
        let mut rows = 0;
        for &(v, store) in recurrence.storage {
            home[v as usize] = match store {
                Alias(of) => home[of as usize],
                _ => {
                    rows += 1;
                    rows - 1
                }
            };
        }
        let (regs, vectors) = ([P::Global::zero(); NUM_REGS], vec![Vec::new(); rows]);
        let (pay, tally) = ([0.0; PAY_LANES as usize], Tally::default());
        HostExec { recurrence, spmv, home, vectors, regs, pay, iteration: 0, tally }
    }

    /// Starts from `b`: the recurrence's starting vectors take `b`, its
    /// zeroed ones (the iterate among them) zeros, its preset registers
    /// their value; then the seed table runs.
    pub fn load_rhs(&mut self, b: &[P::Storage]) {
        let rec = self.recurrence;
        for &v in rec.from_b {
            self.vectors[self.home[v as usize]] = b.to_vec();
        }
        for &v in rec.zeroed {
            self.vectors[self.home[v as usize]] = vec![P::Storage::zero(); b.len()];
        }
        let (preset, value) = rec.presets;
        for &reg in preset {
            self.regs[reg as usize] = P::Global::from_f64(value.into());
        }
        let Ok(_) = walk(rec.seed, self);
        self.iteration = 0;
    }

    /// Runs one iteration (the first-iteration table after a load, where
    /// the recurrence has one).
    pub fn iterate(&mut self) -> Tally {
        let steps = self.recurrence.iteration(self.iteration);
        self.iteration += 1;
        self.tally = Tally::default();
        let Ok(_) = walk(steps, self);
        self.tally
    }

    /// The iterate.
    pub fn x(&self) -> &[P::Storage] {
        self.vector(X)
    }

    /// The residual the recurrence carries.
    pub fn r(&self) -> &[P::Storage] {
        self.vector(R)
    }

    fn vector(&self, v: V) -> &[P::Storage] {
        let vector = &self.vectors[self.home[v as usize]];
        assert!(!vector.is_empty(), "{v:?} is read before it is written");
        vector
    }

    /// `dst := a + r[s] · b`, fused, with the register narrowed once to
    /// storage; `dst` may alias either operand. (An AXPY `dst += r[s] · a`
    /// is the case `a = dst`.)
    fn xpay(&mut self, s: Reg, dst: V, a: V, b: V) {
        let s = P::Storage::from_f64(self.regs[s as usize].to_f64());
        let out = self.vector(a).iter().zip(self.vector(b)).map(|(&a, &b)| a.mul_add(s, b));
        self.vectors[self.home[dst as usize]] = out.collect();
        self.tally.axpys += 1;
    }
}

impl<P: Precision, M: FnMut(&[P::Storage], &mut [P::Storage])> StepExec for HostExec<P, M> {
    type Error = Infallible;

    fn run(&mut self, _: Phase, slot: Slot) -> Result<(), Infallible> {
        let row = self.recurrence.rows().find(|row| row.0 == slot);
        for &kernel in row.expect("every slot a table runs has a row").2 {
            match kernel {
                Kernel::Dot(a, b, sum) => {
                    let dot = P::dot(self.vector(a), self.vector(b));
                    match sum {
                        Sum::Rearmed(reg) | Sum::Plain(reg) => self.regs[reg as usize] = dot,
                        Sum::Lane(j) => self.pay[j as usize] = dot.to_f64() as f32,
                        Sum::Acc => self.regs[self.recurrence.dot_acc as usize] = dot,
                    }
                    self.tally.dots += 1;
                }
                Xpay(s, dst, a, b) => self.xpay(s, dst, a, b),
                Axpy(s, dst, a) => self.xpay(s, dst, dst, a),
                AxpySourcesFirst(each) => {
                    for &(s, dst, a) in each {
                        self.xpay(s, dst, dst, a);
                    }
                }
                Arith(op, dst, a, b) => {
                    let (a, b) = (self.regs[a as usize], self.regs[b as usize]);
                    self.regs[dst as usize] = match op {
                        Add => a.add(b),
                        Sub => a.sub(b),
                        Mul => a.mul(b),
                        Div => a.div(b),
                        RegOp::Neg => a.neg(),
                        RegOp::Mov => a,
                    };
                }
                Kernel::Set(reg, value) => {
                    self.regs[reg as usize] = P::Global::from_f64(value.into())
                }
            }
        }
        Ok(())
    }

    fn spmv(&mut self, slot: Slot, with: Option<Slot>) -> Result<(), Infallible> {
        if let Some(with) = with {
            self.run(Phase::Update, with)?;
        }
        let spmv = self.recurrence.spmvs.iter().find(|spmv| spmv.0 == slot);
        let (_, source, product) = *spmv.expect("every SpMV step has an instance");
        let (source, product) = (self.home[source as usize], self.home[product as usize]);
        let mut out = std::mem::take(&mut self.vectors[product]);
        out.resize(self.vectors[source].len(), P::Storage::zero());
        (self.spmv)(&self.vectors[source], &mut out);
        self.vectors[product] = out;
        self.tally.spmvs += 1;
        Ok(())
    }

    fn reduce(&mut self, kind: ReduceKind, with: Option<Slot>) -> Result<Vec<f32>, Infallible> {
        if let Some(with) = with {
            self.run(Phase::Allreduce, with)?;
        }
        self.tally.reductions += 1;
        let rec = self.recurrence;
        if rec.reply.is_empty() {
            self.regs[regs::AR_OUT as usize] = self.regs[regs::AR_IN as usize];
            if kind == ReduceKind::Both {
                self.regs[regs::AR_OUT2 as usize] = self.regs[regs::AR_IN2 as usize];
            }
            return Ok(Vec::new());
        }
        if kind != ReduceKind::ToHost {
            for (&reg, value) in rec.reply.iter().zip((rec.derive)(&self.pay)) {
                self.regs[reg as usize] = P::Global::from_f64(value.into());
            }
        }
        Ok(self.pay.to_vec())
    }

    fn copy_reg(&mut self, dst: Reg, src: Reg) {
        self.regs[dst as usize] = self.regs[src as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bicgstab2d::WaferBicgstab2d;
    use crate::{WaferBicgstab, WaferBicgstabMulti};
    use stencil::mesh::Mesh3D;
    use wse_multi::{HostLink, MultiFabric};

    /// A unit-diagonal operator on `mesh` with −1/8 on every other band of
    /// `offsets`.
    fn unit_operator(mesh: Mesh3D, offsets: &[Offset3]) -> DiaMatrix<F16> {
        let mut a = DiaMatrix::<f64>::new(mesh, offsets);
        for (x, y, z) in mesh.iter() {
            for &off in offsets {
                let c = if off == Offset3::CENTER { 1.0 } else { -0.125 };
                if mesh.neighbor(x, y, z, off.dx, off.dy, off.dz).is_some() {
                    a.set(x, y, z, off, c);
                }
            }
        }
        a.convert()
    }

    /// Seven bands with (1, 1, 0) in place of (0, 0, −1): the band count
    /// is right, the operator is not one the z-column SpMV computes.
    fn foreign_seven_point(mesh: Mesh3D) -> DiaMatrix<F16> {
        let mut offsets = Offset3::seven_point();
        offsets[6] = Offset3::new(1, 1, 0);
        unit_operator(mesh, &offsets)
    }

    #[test]
    #[should_panic(expected = "nonzero band at offset (1, 1, 0)")]
    fn zcolumn_build_names_a_foreign_band() {
        WaferBicgstab::build(&mut Fabric::new(3, 3), &foreign_seven_point(Mesh3D::new(3, 3, 4)));
    }

    #[test]
    #[should_panic(expected = "nonzero band at offset (2, 0, 0)")]
    fn block_build_names_a_foreign_band() {
        let block = Block2D::new(4, 4);
        let mut offsets = Offset3::nine_point_2d().to_vec();
        offsets.push(Offset3::new(2, 0, 0));
        let a = unit_operator(block.covered_mesh(2, 2).as_3d(), &offsets);
        WaferBicgstab2d::build(&mut Fabric::new(2, 2), &a, block);
    }

    #[test]
    #[should_panic(expected = "nonzero band at offset (1, 1, 0)")]
    fn ensemble_build_names_a_foreign_band() {
        let mut multi = MultiFabric::new(4, 2, 2, HostLink::paper_default());
        WaferBicgstabMulti::build(&mut multi, &foreign_seven_point(Mesh3D::new(4, 2, 4)));
    }

    #[test]
    fn every_slot_a_table_names_indexes_inside_tasks() {
        for rec in [&BICGSTAB, &BICGSTAB_FUSED, &BICGSTAB_BLOCK, &BICGSTAB_SINGLE, &CG, &CG_SINGLE]
        {
            for slot in rec.slots() {
                assert_eq!(Tasks::new()[slot], TaskId::MAX, "{slot:?} must index inside");
                // ...and something builds it: a phase row, an SpMV instance,
                // or the builder's reduction.
                let built = rec.rows().any(|&(row, ..)| row == slot)
                    || rec.spmvs.iter().any(|&(spmv, ..)| spmv == slot)
                    || [Slot::Reduce, Slot::Bcast, Slot::ReduceBoth].contains(&slot);
                assert!(built, "{slot:?} is named by a step table but never built");
            }
            // Every vector a row, an SpMV instance or `load_rhs` names is stored.
            let operands = |kernel: &Kernel| {
                if let Kernel::Dot(_, _, Sum::Lane(j)) = *kernel {
                    assert!(j < PAY_LANES, "lane {j} is past the payload");
                }
                let (reads, writes) = rec.effects(kernel);
                let vectors = |loc| if let Loc::Vector(v) = loc { Some(v) } else { None };
                reads.into_iter().chain(writes).filter_map(vectors).collect::<Vec<_>>()
            };
            let in_rows = rec.rows().flat_map(|row| row.2).flat_map(operands);
            let in_spmvs = rec.spmvs.iter().flat_map(|&(_, source, product)| [source, product]);
            for v in in_rows.chain(in_spmvs).chain([rec.from_b, rec.zeroed].concat()) {
                assert!(rec.storage.iter().any(|&(stored, _)| stored == v), "{v:?} has no storage");
            }
            for &(_, source, _) in rec.spmvs {
                let padded = |&(v, store): &(V, Store)| v == source && matches!(store, Padded);
                assert!(rec.storage.iter().any(padded), "SpMV source {source:?} must be padded");
            }
        }
    }

    /// Table I as each table spells it, per iteration: BiCGStab 2 SpMV / 4
    /// dots / 6 AXPY in four reduction rounds (three when ω is fused), CG
    /// 1 / 2 / 3 in two, Chronopoulos–Gear CG 1 / 2 / 4 in one, and the
    /// ensemble's single-reduction BiCGStab 2 / 11 / 9 in one (its window-A
    /// p-update among the nine).
    #[test]
    fn host_tallies_spell_table_one() {
        let tally = |spmvs, dots, axpys, reductions| Tally { spmvs, dots, axpys, reductions };
        let cases = [
            (&BICGSTAB, tally(2, 4, 6, 4)),
            (&BICGSTAB_FUSED, tally(2, 4, 6, 3)),
            (&BICGSTAB_BLOCK, tally(2, 4, 6, 4)),
            (&CG, tally(1, 2, 3, 2)),
            (&CG_SINGLE, tally(1, 2, 4, 1)),
            (&BICGSTAB_SINGLE, tally(2, 11, 9, 1)),
        ];
        let laplace = |x: &[f64], y: &mut [f64]| {
            for (i, y) in y.iter_mut().enumerate() {
                let side = |j: Option<usize>| j.and_then(|j| x.get(j)).copied().unwrap_or(0.0);
                *y = 4.0 * x[i] - side(i.checked_sub(1)) - side(Some(i + 1));
            }
        };
        let b: Vec<f64> = (1..=8).map(f64::from).collect();
        for (rec, want) in cases {
            let mut host = HostExec::<stencil::Fp64, _>::new(rec, laplace);
            host.load_rhs(&b);
            for _ in 0..3 {
                assert_eq!(host.iterate(), want);
            }
        }
    }

    #[test]
    fn every_co_scheduled_row_is_independent_of_its_window() {
        for rec in [&BICGSTAB, &BICGSTAB_FUSED, &BICGSTAB_BLOCK, &BICGSTAB_SINGLE, &CG, &CG_SINGLE]
        {
            assert_eq!(rec.check_windows(), Ok(()));
        }
    }

    /// A row that writes a round's input, two background threads on one
    /// vector, a background row beside an SpMV, and a row reading an
    /// SpMV's product are each refused by name.
    #[test]
    fn a_row_that_touches_its_window_is_refused() {
        const fn rec(background: &'static [Row], iter: &'static [Step]) -> Recurrence {
            Recurrence { background, iter, ..CLASSIC }
        }
        static CASES: [(Recurrence, &str); 4] = [
            (
                rec(
                    &[(Slot::DotYy, "bad", &[dot(Y, Y, regs::AR_IN)])],
                    &[Step::Reduce { with: Some(Slot::DotYy) }],
                ),
                "DotYy shares Register(24) with its window Reduce",
            ),
            (
                rec(
                    &[(Slot::UpdX, "bad", &[Axpy(regs::ALPHA, X, P), Axpy(regs::OMEGA, X, Q)])],
                    &[Step::Reduce { with: Some(Slot::UpdX) }],
                ),
                "UpdX: two of its threads share Vector(X)",
            ),
            (
                rec(
                    BICGSTAB_BACKGROUND,
                    &[Step::Spmv { slot: Slot::SpmvPs, with: Some(Slot::UpdX) }],
                ),
                "UpdX rides an SpMV but is a background row",
            ),
            (
                rec(&[], &[Step::Spmv { slot: Slot::SpmvPs, with: Some(Slot::UpdQ) }]),
                "UpdQ shares Vector(S) with its window Spmv",
            ),
        ];
        for (rec, want) in &CASES {
            let err = rec.check_windows().expect_err(want);
            assert!(err.starts_with(want), "{err}");
        }
    }

    #[test]
    fn every_reply_register_and_lane_is_live() {
        for rec in [&BICGSTAB, &BICGSTAB_FUSED, &BICGSTAB_BLOCK, &BICGSTAB_SINGLE, &CG, &CG_SINGLE]
        {
            assert_eq!(rec.check_lanes(), Ok(()));
        }
    }

    /// ‖r_new‖² put back into the reply (no row reads `RR`), an iteration
    /// that leaves lanes 1–10 unwritten, and one that writes lane 0 twice
    /// are each refused by name.
    #[test]
    fn a_dead_reply_register_or_lane_is_refused() {
        const REPLY: [Reg; 7] = [
            regs::ALPHA,
            regs::NEG_ALPHA,
            regs::OMEGA,
            regs::NEG_OMEGA,
            regs::ALPHA_OMEGA,
            regs::BETA,
            regs::RR,
        ];
        // (`norm` is not `Copy`; the rule never reads it.)
        const fn single(iter: &'static [Step], reply: &'static [Reg]) -> Recurrence {
            Recurrence { iter, reply, norm: Norm::ReadBack, ..BICGSTAB_SINGLE }
        }
        static CASES: [(Recurrence, &str); 3] = [
            (single(BICGSTAB_SINGLE.iter, &REPLY), "reply register 11 is read by no row"),
            (
                single(&[run(Dot, Slot::DotRr), REDUCE], &BC_REGS),
                "an iteration writes lanes [0], not 0..11",
            ),
            (
                single(&[run(Dot, Slot::Dots), run(Dot, Slot::DotRr), REDUCE], &BC_REGS),
                "an iteration writes lanes [0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10], not 0..11",
            ),
        ];
        for (rec, want) in &CASES {
            assert_eq!(rec.check_lanes(), Err(want.to_string()));
        }
    }

    #[test]
    #[should_panic(expected = "tile (1, 0) has no task for DotRho")]
    fn a_named_slot_left_unset_fails_at_build_time() {
        let mapping = stencil::decomp::Mapping3D::new(Mesh3D::new(2, 1, 4), 2, 1);
        let tiles = vec![(Tasks([0; Slot::COUNT]), [0; V::COUNT]), (Tasks::new(), [0; V::COUNT])];
        Program::new(&BICGSTAB, Layout::ZColumn(mapping), tiles);
    }

    /// Lanes computed in f64 from random vectors must give back the
    /// classic α = ρ/(r̂₀,s), ω = (q,y)/(y,y) and β with q = r − αs,
    /// y = v − α·zv, each in its [`BC_REGS`] position.
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
