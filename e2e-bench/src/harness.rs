//! The round recorder: a bare `Instant` pair around every call into a
//! layer, and the floor (minimum over rounds) of each call.
//!
//! A workload is a loop of identical deterministic *rounds*. Every round
//! redoes the set-up from scratch and then runs the op; both are cut into
//! calls into one layer's public function. On a shared two-core box the
//! neighbours only ever *add* time, in bursts, so the estimator that
//! repeats is the minimum: a call's time is its minimum over all rounds,
//! `op_host_ms` is the sum of its units' minima and `setup_s` the sum of
//! the set-up calls' minima — which is why the per-layer host numbers add
//! up to the end-to-end numbers exactly (the sums are kept in integer
//! nanoseconds).

use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hasher};
use std::time::Instant;

/// What a timed call belongs to.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Part of the fresh set-up every round redoes; counted in `setup_s`.
    Setup,
    /// A unit of the op; counted in `op_host_ms`.
    Op,
    /// Timed and reported per layer, but in neither end-to-end metric
    /// (reference baselines, trace draining, the spawn-per-cycle k=2 run).
    Diag,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Setup => "setup",
            Kind::Op => "op",
            Kind::Diag => "diag",
        }
    }
}

/// One recorded span of a traced run. `parent` is a span id (0 = none);
/// `round` is the identifier all spans of one round share.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id, from 1.
    pub id: u32,
    /// Id of the enclosing span, 0 for a round's root.
    pub parent: u32,
    /// Round the span belongs to.
    pub round: u32,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Category shown in the trace viewer.
    pub cat: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// A phase span on the simulated clock, taken from the program's own
/// trace of one armed round.
#[derive(Clone, Debug)]
pub struct SimSpan {
    /// Phase name as the driver marked it.
    pub name: String,
    /// First cycle, on the round's simulated timeline.
    pub start_cycle: u64,
    /// Cycles covered.
    pub cycles: u64,
}

/// Floors and samples of every call seen, over all rounds recorded.
pub struct Recorder {
    epoch: Instant,
    span_rounds: u32,
    spans: Vec<Span>,
    /// `(name, occurrence within the round)` → `(kind, minimum ns)`.
    floors: BTreeMap<(&'static str, u32), (Kind, u64)>,
    op_totals_ns: Vec<u64>,
    rounds: u32,
    samples: u64,
}

impl Recorder {
    /// A recorder that keeps every call of its first `span_rounds` rounds
    /// as a [`Span`] for the Chrome trace (0 outside traced passes).
    pub fn new(span_rounds: u32) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            span_rounds,
            spans: Vec::new(),
            floors: BTreeMap::new(),
            op_totals_ns: Vec::new(),
            rounds: 0,
            samples: 0,
        }
    }

    /// Opens the next round.
    pub fn round(&mut self) -> Round<'_> {
        let id = self.rounds;
        let now = self.now_ns();
        let base = self.spans.len();
        let keep_spans = id < self.span_rounds;
        if keep_spans {
            // Root, set-up and op spans; their durations are filled in
            // when the round finishes.
            for (k, (name, cat)) in
                [("harness.round", "round"), ("harness.setup", "setup"), ("harness.op", "op")]
                    .into_iter()
                    .enumerate()
            {
                let parent = if k == 0 { 0 } else { base as u32 + 1 };
                self.spans.push(Span {
                    id: (base + k) as u32 + 1,
                    parent,
                    round: id,
                    name,
                    cat,
                    start_ns: now,
                    dur_ns: 0,
                });
            }
        }
        Round {
            rec: self,
            id,
            keep_spans,
            base,
            start_ns: now,
            setup_end_ns: None,
            op_end_ns: now,
            op_ns: 0,
            seen: Vec::new(),
            inner_ns: 0,
            enclosing: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Rounds recorded.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Calls timed, over all rounds.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// `(name, summed floor)` of every call name of `kind`, by name.
    pub fn floors_by_name(&self, kind: Kind) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for ((name, _), (k, ns)) in &self.floors {
            if *k == kind {
                *out.entry(*name).or_insert(0) += ns;
            }
        }
        out
    }

    /// The host floor of everything of `kind`: the sum of every such
    /// call's minimum. `Op` gives `op_host_ms`, `Setup` gives `setup_s`.
    pub fn floor_ns(&self, kind: Kind) -> u64 {
        self.floors.values().filter(|(k, _)| *k == kind).map(|(_, ns)| ns).sum()
    }

    /// The `q`-quantile of the per-round op totals (nearest rank).
    pub fn op_total_quantile_ns(&self, q: f64) -> u64 {
        let mut v = self.op_totals_ns.clone();
        if v.is_empty() {
            return 0;
        }
        v.sort_unstable();
        let k = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
        v[k]
    }

    /// Spans kept (traced runs only).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// One round being recorded. Calls are timed in program order; the first
/// op unit closes the set-up.
pub struct Round<'r> {
    rec: &'r mut Recorder,
    id: u32,
    keep_spans: bool,
    base: usize,
    start_ns: u64,
    setup_end_ns: Option<u64>,
    op_end_ns: u64,
    op_ns: u64,
    seen: Vec<(&'static str, u32)>,
    /// Time of the calls completed inside the innermost open
    /// [`Round::unit_with`].
    inner_ns: u64,
    /// Span the calls made now are children of, inside a `unit_with`.
    enclosing: Option<u32>,
}

impl Round<'_> {
    /// Times a set-up call.
    pub fn setup<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.call(Kind::Setup, name, f)
    }

    /// Times one unit of the op.
    pub fn unit<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.call(Kind::Op, name, f)
    }

    /// Times a diagnostic call (in neither end-to-end metric).
    pub fn diag<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.call(Kind::Diag, name, f)
    }

    /// Times `f` as a call of `kind` named `name`.
    pub fn call<T>(&mut self, kind: Kind, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(kind);
        let t0 = Instant::now();
        let out = f();
        let dur_ns = t0.elapsed().as_nanos() as u64;
        self.inner_ns += dur_ns;
        self.note(kind, name, dur_ns);
        if self.keep_spans {
            let at = self.push_span(kind, name);
            self.close_span(at, kind, dur_ns);
        }
        out
    }

    /// Times a unit of the op that makes timed calls of its own through
    /// the round it is handed. Its floor is its **self time** — its
    /// duration minus the calls inside it — so that the op stays the sum
    /// of its units, now cut finer: on a loud box a 1 ms call finds a
    /// quiet moment far more often than the 17 ms one around it.
    pub fn unit_with<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.begin(Kind::Op);
        let outer = (std::mem::take(&mut self.inner_ns), self.enclosing);
        let at = self.keep_spans.then(|| self.push_span(Kind::Op, name));
        if let Some(at) = at {
            self.enclosing = Some(self.rec.spans[at].id);
        }
        let t0 = Instant::now();
        let out = f(self);
        let dur_ns = t0.elapsed().as_nanos() as u64;
        let self_ns = dur_ns.saturating_sub(self.inner_ns);
        (self.inner_ns, self.enclosing) = (outer.0 + dur_ns, outer.1);
        self.note(Kind::Op, name, self_ns);
        if let Some(at) = at {
            self.close_span(at, Kind::Op, dur_ns);
        }
        out
    }

    /// The first op unit closes the set-up.
    fn begin(&mut self, kind: Kind) {
        if kind == Kind::Op && self.setup_end_ns.is_none() {
            self.setup_end_ns = Some(self.rec.now_ns());
        }
    }

    /// Folds one sample into the floor of `(name, occurrence)`.
    fn note(&mut self, kind: Kind, name: &'static str, ns: u64) {
        let occ = match self.seen.iter_mut().find(|(n, _)| *n == name) {
            Some((_, k)) => {
                *k += 1;
                *k
            }
            None => {
                self.seen.push((name, 0));
                0
            }
        };
        let floor = self.rec.floors.entry((name, occ)).or_insert((kind, u64::MAX));
        floor.1 = floor.1.min(ns);
        self.rec.samples += 1;
        if kind == Kind::Op {
            self.op_ns += ns;
        }
    }

    /// Opens a span under the enclosing unit, or under the round's
    /// set-up / op / root span; returns its index.
    fn push_span(&mut self, kind: Kind, name: &'static str) -> usize {
        let parent = self.enclosing.unwrap_or(match kind {
            Kind::Setup => self.base as u32 + 2,
            Kind::Op => self.base as u32 + 3,
            Kind::Diag => self.base as u32 + 1,
        });
        let at = self.rec.spans.len();
        self.rec.spans.push(Span {
            id: at as u32 + 1,
            parent,
            round: self.id,
            name,
            cat: kind.label(),
            start_ns: 0,
            dur_ns: 0,
        });
        at
    }

    /// Closes the span at `at`, which ends now and lasted `dur_ns`.
    fn close_span(&mut self, at: usize, kind: Kind, dur_ns: u64) {
        let end_ns = self.rec.now_ns();
        if kind == Kind::Op {
            self.op_end_ns = end_ns;
        }
        self.rec.spans[at].start_ns = end_ns.saturating_sub(dur_ns);
        self.rec.spans[at].dur_ns = dur_ns;
    }

    /// Closes the round and folds it into the recorder's floors.
    pub fn finish(self) {
        let end_ns = self.rec.now_ns();
        if self.setup_end_ns.is_some() {
            self.rec.op_totals_ns.push(self.op_ns);
        }
        if self.keep_spans {
            let setup_end = self.setup_end_ns.unwrap_or(self.start_ns);
            self.rec.spans[self.base].dur_ns = end_ns - self.start_ns;
            self.rec.spans[self.base + 1].dur_ns = setup_end - self.start_ns;
            self.rec.spans[self.base + 2].start_ns = setup_end;
            self.rec.spans[self.base + 2].dur_ns = self.op_end_ns.saturating_sub(setup_end);
        }
        self.rec.rounds += 1;
    }
}

/// Bookkeeping cost of one recorded call in nanoseconds, measured over
/// `n` empty calls: `(without spans, with spans)`. The timed region of a
/// call excludes it, so it only lengthens a round, never a unit.
pub fn call_overhead_ns(n: u32) -> (f64, f64) {
    let measure = |keep_spans: bool| {
        let mut rec = Recorder::new(keep_spans as u32);
        let t0 = Instant::now();
        let mut round = rec.round();
        for _ in 0..n {
            round.unit("harness.empty", || std::hint::black_box(()));
        }
        round.finish();
        t0.elapsed().as_nanos() as f64 / n as f64
    };
    (measure(false), measure(true))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Digest of a sequence of 64-bit words: what outputs and inputs are
/// compared by. (`DefaultHasher::new()` is keyed with constants, so equal
/// words give equal digests in every run of one build.)
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = DefaultHasher::new();
    words.into_iter().for_each(|w| h.write_u64(w));
    h.finish()
}
