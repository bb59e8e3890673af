//! Single-pass sensitization-aware true-path enumeration (paper §IV.B).
//!
//! The algorithm starts at a circuit input and advances node to node. For
//! every fanout gate and every sensitization vector of the traversed pin it
//! saves the process state (an implication-trail mark), assigns the
//! vector's side values, propagates implications forward through the whole
//! circuit (early conflict detection with semi-undetermined values), and
//! checks that the accumulated requirements are justifiable from the
//! primary inputs. On a conflict all paths sharing the current sub-path are
//! discarded and the search jumps back to the last saved state. Reaching an
//! output emits a [`TruePath`] carrying a witness input vector and the
//! polynomial-model delay accumulated *during* the traversal — the
//! "single-pass" property: no second sensitization step is ever needed.
//!
//! Both launch polarities are traced simultaneously through the dual-value
//! logic system (`sta-logic`), so each path is traversed once.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use serde::Serialize;
use sta_cells::{Corner, Edge, Library, Polarity};
use sta_charlib::{CompiledCorner, TimingLibrary};
use sta_logic::{Dual, ImplicationEngine, Mask, Toggle, TriVal, V9};

use crate::justify::{JustifyBudget, JustifyCache, JustifyOutcome, JustifyScratch};
use sta_netlist::{GateId, GateKind, NetId, Netlist};

use crate::arrival::ArcBounds;
use crate::learn::{self, ConeScratch, NogoodKey, NogoodStore, NogoodView};
use crate::parallel::RunBudget;
use crate::path::{LaunchTiming, PathArc, PiValue, TruePath};

/// Configuration of a true-path enumeration run.
#[derive(Clone, Debug)]
pub struct EnumerationConfig {
    /// Operating corner for delay evaluation.
    pub corner: Corner,
    /// Transition time applied at the primary inputs, ps.
    pub input_slew: f64,
    /// Keep only the N worst paths and prune the search with static
    /// bounds; `None` enumerates everything.
    pub n_worst: Option<usize>,
    /// Safety margin of the static pruning bound (only used with
    /// `n_worst`).
    pub prune_margin: f64,
    /// Abort the run after this many search decisions (0 = unlimited),
    /// counted over the whole run at any thread count. When hit,
    /// [`EnumerationStats::truncated`] is set.
    pub max_decisions: u64,
    /// Stop after this many emitted paths, counted over the whole run
    /// (safety valve for pathological circuits).
    pub max_paths: Option<usize>,
    /// Effort cap per justification call (0 = unlimited). Refutations of
    /// unsatisfiable requirement sets over reconvergent XOR logic are
    /// exponential; when a call exceeds this many candidate decisions the
    /// branch is dropped and counted in
    /// [`EnumerationStats::justify_aborts`].
    pub justify_decision_limit: u64,
    /// Worker threads for the enumeration. The search roots — (primary
    /// input, launch gate, sensitization vector) triples — are
    /// distributed over a work-stealing pool (see the `parallel`
    /// module); a pool of one runs on the caller's thread. The emitted
    /// path set of an untruncated [`PathEnumerator::run`] is identical
    /// at any thread count; a budget-truncated one is reproducible at one
    /// thread and schedule-dependent above.
    pub threads: usize,
    /// Conflict-driven nogood learning plus the per-source dominance cut
    /// (see `sta_core::learn`). Refutation-only and bound-safe: the
    /// emitted path set and every certificate byte are identical either
    /// way whenever the `max_decisions` budget does not bite (skipped
    /// refutations spend no decisions, so a budget-truncated run can
    /// truncate at a different point). Disable to time the unpruned
    /// search.
    pub learning: bool,
    /// Restricts the run to a subset of the primary inputs: entry `i`
    /// gates the source at position `i` of `Netlist::inputs()`. `None`
    /// runs every source. The paths emitted for an enabled source are
    /// identical to what a run over all sources emits for it *when
    /// [`EnumerationConfig::per_source_n_worst`] isolates the admission
    /// threshold* (or in full enumeration) — the property the ECO
    /// incremental re-analysis relies on (see `sta_core::eco`).
    pub source_filter: Option<Arc<Vec<bool>>>,
    /// Isolate the N-worst admission threshold per source: each worker
    /// resets its threshold and admitted-arrival set at every source
    /// switch and shares a per-source bound, so each source's emitted
    /// superset contains its own N worst paths and is independent of
    /// which other sources run. Costs pruning power on multi-source
    /// runs; the point is cacheability, not speed.
    pub per_source_n_worst: bool,
    /// Observability handle. Disabled by default; when enabled the run
    /// records phase spans, per-worker metrics and (if installed) progress
    /// counters. Observation is strictly read-only with respect to the
    /// search — the emitted path set is byte-identical either way — and
    /// the field is ignored by `PartialEq`.
    pub obs: sta_obs::Observer,
}

/// Configuration equality for tests and memo keys: every *analysis*
/// parameter participates; the observer (which cannot influence results)
/// does not.
impl PartialEq for EnumerationConfig {
    fn eq(&self, other: &Self) -> bool {
        self.corner == other.corner
            && self.input_slew == other.input_slew
            && self.n_worst == other.n_worst
            && self.prune_margin == other.prune_margin
            && self.max_decisions == other.max_decisions
            && self.max_paths == other.max_paths
            && self.justify_decision_limit == other.justify_decision_limit
            && self.threads == other.threads
            && self.learning == other.learning
            && self.source_filter == other.source_filter
            && self.per_source_n_worst == other.per_source_n_worst
    }
}

impl EnumerationConfig {
    /// A reasonable default at the given corner: 60 ps input slew, full
    /// enumeration, 50 M decision budget.
    pub fn new(corner: Corner) -> Self {
        EnumerationConfig {
            corner,
            input_slew: 60.0,
            n_worst: None,
            prune_margin: 1.25,
            max_decisions: 50_000_000,
            max_paths: None,
            justify_decision_limit: 20_000,
            threads: 1,
            learning: true,
            source_filter: None,
            per_source_n_worst: false,
            obs: sta_obs::Observer::disabled(),
        }
    }

    /// Restricts the run to the N worst paths (enables pruning).
    pub fn with_n_worst(mut self, n: usize) -> Self {
        self.n_worst = Some(n);
        self
    }

    /// Sets the worker thread count (values below 1 mean one).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enables or disables nogood learning and the dominance cut (on by
    /// default). Never changes what the run computes (see
    /// [`EnumerationConfig::learning`]).
    pub fn with_learning(mut self, on: bool) -> Self {
        self.learning = on;
        self
    }

    /// Attaches an observability handle (see `sta-obs`). Never changes
    /// what the run computes.
    pub fn with_observer(mut self, obs: sta_obs::Observer) -> Self {
        self.obs = obs;
        self
    }

    /// Restricts the run to the sources whose entry (by position in
    /// `Netlist::inputs()`) is `true`; see
    /// [`EnumerationConfig::source_filter`].
    ///
    /// # Panics
    ///
    /// The run panics if the filter length differs from the input count.
    pub fn with_source_filter(mut self, filter: Arc<Vec<bool>>) -> Self {
        self.source_filter = Some(filter);
        self
    }

    /// Isolates the N-worst admission threshold per source; see
    /// [`EnumerationConfig::per_source_n_worst`].
    pub fn with_per_source_n_worst(mut self, on: bool) -> Self {
        self.per_source_n_worst = on;
        self
    }
}

/// Counters describing an enumeration run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct EnumerationStats {
    /// Emitted paths (path × vector combinations).
    pub paths: usize,
    /// Emitted input vectors (each surviving launch polarity of each path
    /// counts once — the paper's "Input vectors" column).
    pub input_vectors: usize,
    /// Search decisions taken (arc choices + justification candidates).
    pub decisions: u64,
    /// Conflicts encountered (subtrees discarded).
    pub conflicts: u64,
    /// Subtrees pruned by the static N-worst bound.
    pub pruned: u64,
    /// Justification calls dropped at the per-call effort cap (their
    /// subtrees are conservatively discarded).
    pub justify_aborts: u64,
    /// Justification candidate enumerations answered from the per-worker
    /// memo table over candidate enumeration (`sta_core::justify`).
    pub justify_cache_hits: u64,
    /// Arc evaluations (one per alive polarity) served by the
    /// corner-compiled kernel table.
    pub compiled_evals: u64,
    /// Nogoods learned, verified and stored (see `sta_core::learn`).
    pub learn_stored: u64,
    /// Justification calls skipped because a stored nogood refuted every
    /// alive polarity.
    pub learn_hits: u64,
    /// Estimated justification decisions those hits saved (the original
    /// refutation cost of each firing nogood).
    pub learn_decisions_saved: u64,
    /// Arcs cut by the per-source dominance bound before justification
    /// started.
    pub learn_bound_cuts: u64,
    /// Refutations offered to the learner (definitive `Unsatisfiable`
    /// results costing at least `learn::MIN_LEARN_DECISIONS`).
    pub learn_attempts: u64,
    /// Decisions spent inside justification calls (a subset of
    /// `decisions`; the remainder are arc-selection decisions).
    pub justify_decisions: u64,
    /// The share of `justify_decisions` spent on calls that ended in a
    /// definitive refutation — the pool nogood learning can recover.
    pub justify_unsat_decisions: u64,
    /// Stored clauses whose literals are the arc's side values alone
    /// (context-free; every future try of the key is a guaranteed hit).
    pub learn_side_clauses: u64,
    /// Candidate clauses that failed verification replay (per polarity);
    /// nothing was stored for that polarity.
    pub learn_verify_failures: u64,
    /// High-water mark of the shared side-assignment scratch stack
    /// (deepest nesting of pending side values across the DFS).
    pub scratch_side_hwm: usize,
    /// High-water mark of the path node stack (longest partial path).
    pub scratch_path_hwm: usize,
    /// Whether a budget cut the run short.
    pub truncated: bool,
}

impl EnumerationStats {
    /// Folds another run's (or worker's) counters into this one. All
    /// counters are sums except the scratch high-water marks (maxima) and
    /// `truncated` (an OR). Used to aggregate per-worker statistics after
    /// a multi-threaded run.
    pub fn merge(&mut self, other: &EnumerationStats) {
        self.paths += other.paths;
        self.input_vectors += other.input_vectors;
        self.decisions += other.decisions;
        self.conflicts += other.conflicts;
        self.pruned += other.pruned;
        self.justify_aborts += other.justify_aborts;
        self.justify_cache_hits += other.justify_cache_hits;
        self.compiled_evals += other.compiled_evals;
        self.learn_stored += other.learn_stored;
        self.learn_hits += other.learn_hits;
        self.learn_decisions_saved += other.learn_decisions_saved;
        self.learn_bound_cuts += other.learn_bound_cuts;
        self.learn_attempts += other.learn_attempts;
        self.justify_decisions += other.justify_decisions;
        self.justify_unsat_decisions += other.justify_unsat_decisions;
        self.learn_side_clauses += other.learn_side_clauses;
        self.learn_verify_failures += other.learn_verify_failures;
        self.scratch_side_hwm = self.scratch_side_hwm.max(other.scratch_side_hwm);
        self.scratch_path_hwm = self.scratch_path_hwm.max(other.scratch_path_hwm);
        self.truncated |= other.truncated;
    }
}

/// The true-path enumeration engine.
///
/// # Example
///
/// See the crate-level documentation of `sta-core`.
pub struct PathEnumerator<'a> {
    pub(crate) nl: &'a Netlist,
    pub(crate) lib: &'a Library,
    pub(crate) tlib: &'a TimingLibrary,
    pub(crate) cfg: EnumerationConfig,
    /// Corner-compiled kernel table, built once at construction — or
    /// injected pre-built via [`PathEnumerator::with_prebuilt`], e.g. by
    /// the timing daemon which keeps it resident across requests — and
    /// shared read-only by every worker.
    pub(crate) kernel: Arc<CompiledCorner>,
    /// Caller-injected nogood store (see
    /// [`PathEnumerator::with_prebuilt`]); when `None` and learning is
    /// on, each run creates its own.
    pub(crate) nogood_store: Option<Arc<NogoodStore>>,
}

impl<'a> PathEnumerator<'a> {
    /// Creates an enumerator over a mapped netlist.
    ///
    /// # Panics
    ///
    /// Panics if the netlist contains unmapped primitive gates (run the
    /// technology mapper first) or a combinational cycle.
    pub fn new(
        nl: &'a Netlist,
        lib: &'a Library,
        tlib: &'a TimingLibrary,
        cfg: EnumerationConfig,
    ) -> Self {
        let kernel = Arc::new(tlib.compile_corner(cfg.corner));
        Self::with_prebuilt(nl, lib, tlib, cfg, kernel, None)
    }

    /// Like [`PathEnumerator::new`], but reuses caller-owned state
    /// instead of building it: the corner-compiled kernel table (valid
    /// for a (timing library, corner) pair — it does not depend on the
    /// netlist, so it survives ECO edits; this is what lets the timing
    /// daemon pay compilation once per loaded circuit rather than once
    /// per request) and optionally a shared nogood store.
    ///
    /// A caller-owned `nogood_store` lets the caller inspect what was
    /// learned afterwards (the lint LEARN rules replay every stored
    /// clause); it is ignored when [`EnumerationConfig::learning`] is
    /// off, and `None` gives each run a store of its own. Sharing a warm
    /// store across runs is sound — clauses are verified against the
    /// netlist and source, not any per-run state — but each run's
    /// `learn.*` counters then reflect the warm start.
    ///
    /// # Panics
    ///
    /// As [`PathEnumerator::new`].
    pub fn with_prebuilt(
        nl: &'a Netlist,
        lib: &'a Library,
        tlib: &'a TimingLibrary,
        cfg: EnumerationConfig,
        kernel: Arc<CompiledCorner>,
        nogood_store: Option<Arc<NogoodStore>>,
    ) -> Self {
        assert_eq!(nl.topo_gates().len(), nl.num_gates(), "netlist has a cycle");
        assert!(
            nl.gate_ids()
                .all(|g| matches!(nl.gate(g).kind(), GateKind::Cell(_))),
            "netlist must be technology-mapped"
        );
        PathEnumerator {
            nl,
            lib,
            tlib,
            cfg,
            kernel,
            nogood_store,
        }
    }

    /// The corner-compiled kernel table.
    pub fn kernel(&self) -> &CompiledCorner {
        &self.kernel
    }

    /// Shared handle on the kernel table (for callers that keep it
    /// resident across enumerator rebuilds, e.g. the timing daemon).
    pub fn kernel_arc(&self) -> Arc<CompiledCorner> {
        Arc::clone(&self.kernel)
    }

    /// Runs the enumeration and returns the discovered true paths (sorted
    /// by the canonical order of [`TruePath::canonical_cmp`]: descending
    /// worst arrival with deterministic tie-breaking) together with run
    /// statistics. Unless a budget truncates the run, the returned path
    /// set is identical at any [`EnumerationConfig::threads`] setting.
    pub fn run(&self) -> (Vec<TruePath>, EnumerationStats) {
        let mut collected: Vec<TruePath> = Vec::new();
        let stats = self.run_with(|p| collected.push(p));
        collected.sort_by(TruePath::canonical_cmp);
        if let Some(n) = self.cfg.n_worst {
            collected.truncate(n);
        }
        (collected, stats)
    }

    /// Streaming variant of [`PathEnumerator::run`]: every emitted path is
    /// handed to `sink` instead of being stored (essential for full
    /// enumerations that produce hundreds of thousands of vectors, where
    /// the caller only wants counts or per-structural-path aggregates).
    ///
    /// With `n_worst` configured, the admission threshold still prunes the
    /// search, but paths below the final threshold may reach the sink —
    /// the sink sees a superset of the N worst.
    pub fn run_with(&self, mut sink: impl FnMut(TruePath)) -> EnumerationStats {
        let stats = crate::parallel::run(self, &mut sink);
        self.ingest_stats(&stats);
        stats
    }

    /// Static pruning bounds for N-worst mode (`None` in full
    /// enumeration), computed through the kernel table.
    pub(crate) fn prune_bounds(&self) -> Option<Vec<f64>> {
        self.cfg.n_worst.map(|_| {
            let timing = crate::arrival::static_bounds_compiled(
                self.nl,
                self.tlib,
                &self.kernel,
                self.cfg.input_slew,
                self.cfg.prune_margin,
            );
            crate::arrival::record_bounds_metrics(&self.cfg.obs, self.nl, &timing);
            timing.remaining
        })
    }

    /// Per-arc delay bound table of the dominance cut (`None` unless
    /// learning and N-worst mode are both on), computed once per run
    /// through the kernel table and shared read-only by every worker.
    pub(crate) fn learn_arc_bounds(&self) -> Option<Arc<ArcBounds>> {
        // The swept bound evaluates the model over the whole clamped slew
        // domain, so it needs only the small wiggle margin, not the
        // conservative `prune_margin` of the single-point static pass.
        (self.cfg.learning && self.cfg.n_worst.is_some()).then(|| {
            Arc::new(crate::arrival::arc_bounds_compiled(
                self.nl,
                self.tlib,
                &self.kernel,
                self.cfg.input_slew,
                crate::arrival::ARC_SWEEP_MARGIN,
            ))
        })
    }

    /// Folds a finished run's statistics into the observer's metrics
    /// registry, and registers the full enumeration metric name set —
    /// including the per-worker counters — so that every manifest has the
    /// same structure, even for a run with no root tasks. Pure
    /// side-state: a disabled observer makes this a no-op.
    fn ingest_stats(&self, stats: &EnumerationStats) {
        let obs = &self.cfg.obs;
        if !obs.is_enabled() {
            return;
        }
        obs.counter("enumerate.paths").add(stats.paths as u64);
        obs.counter("enumerate.input_vectors")
            .add(stats.input_vectors as u64);
        obs.counter("enumerate.decisions").add(stats.decisions);
        obs.counter("enumerate.conflicts").add(stats.conflicts);
        obs.counter("enumerate.pruned").add(stats.pruned);
        obs.counter("enumerate.justify_aborts")
            .add(stats.justify_aborts);
        obs.counter("enumerate.justify_cache_hits")
            .add(stats.justify_cache_hits);
        obs.counter("enumerate.compiled_evals")
            .add(stats.compiled_evals);
        obs.counter("learn.nogoods_stored").add(stats.learn_stored);
        obs.counter("learn.hits").add(stats.learn_hits);
        obs.counter("learn.decisions_saved")
            .add(stats.learn_decisions_saved);
        obs.counter("learn.bound_cuts").add(stats.learn_bound_cuts);
        obs.counter("learn.attempts").add(stats.learn_attempts);
        obs.counter("learn.side_clauses")
            .add(stats.learn_side_clauses);
        obs.counter("learn.verify_failures")
            .add(stats.learn_verify_failures);
        obs.counter("justify.decisions")
            .add(stats.justify_decisions);
        obs.counter("justify.unsat_decisions")
            .add(stats.justify_unsat_decisions);
        obs.counter("enumerate.truncated")
            .add(u64::from(stats.truncated));
        obs.gauge("enumerate.scratch_side_hwm")
            .set(stats.scratch_side_hwm as f64);
        obs.gauge("enumerate.scratch_path_hwm")
            .set(stats.scratch_path_hwm as f64);
        // Touching a handle registers the name; a run without root tasks
        // registers the worker counters too (at zero) for structural
        // identity.
        obs.counter("parallel.steals");
        obs.counter("parallel.tasks");
        obs.counter("enumerate.bound_updates");
        obs.histogram("justify.decisions_per_call");
        obs.histogram("enumerate.path_gates");
    }

    /// Equivalent fanout per gate, precomputed once per run and shared
    /// read-only by every worker.
    pub(crate) fn fanouts(&self) -> Vec<f64> {
        self.nl
            .gate_ids()
            .map(|g| {
                let gate = self.nl.gate(g);
                let cell = cell_of(self.nl, g);
                self.tlib.equivalent_fanout(self.nl, gate.output(), cell)
            })
            .collect()
    }

    /// Primary-output flag per net.
    pub(crate) fn output_flags(&self) -> Vec<bool> {
        let mut v = vec![false; self.nl.num_nets()];
        for &o in self.nl.outputs() {
            v[o.index()] = true;
        }
        v
    }
}

pub(crate) fn cell_of(nl: &Netlist, g: GateId) -> sta_netlist::CellId {
    match nl.gate(g).kind() {
        GateKind::Cell(c) => c,
        GateKind::Prim(_) => unreachable!("checked at construction"),
    }
}

/// Per-source static reachability: can a transition at a net still reach a
/// primary output through arcs whose side requirements do not contradict
/// the toggle analysis? An arc is *potentially sensitizable* iff some
/// vector of the traversed pin requires no stable side value on a net
/// that provably toggles. Sound (necessary-condition) pruning: a net with
/// `reach = false` has no true continuation, so the DFS never forks into
/// it — this is what keeps reconvergent XOR fabrics (c499/c1355) from
/// exploding into 2^depth refuted sub-paths.
pub(crate) fn sensitizable_reach(
    nl: &Netlist,
    lib: &Library,
    deltas: &[Toggle],
    is_output: &[bool],
) -> Vec<bool> {
    let mut reach = vec![false; nl.num_nets()];
    for (i, &po) in is_output.iter().enumerate() {
        if po {
            reach[i] = true;
        }
    }
    let order = nl.topo_gates();
    for &g in order.iter().rev() {
        let gate = nl.gate(g);
        if !reach[gate.output().index()] {
            continue;
        }
        let cell = lib.cell(cell_of(nl, g));
        for pin in 0..gate.fanin() as u8 {
            let input = gate.inputs()[pin as usize];
            if reach[input.index()] {
                continue;
            }
            let arc_ok = cell.vectors_of(pin).iter().any(|v| {
                (0..gate.fanin() as u8).all(|p| {
                    p == pin
                        || v.side_value(p).is_none()
                        || deltas[gate.inputs()[p as usize].index()] != Toggle::One
                })
            });
            if arc_ok {
                reach[input.index()] = true;
            }
        }
    }
    reach
}

/// Arrival/slew of one launch polarity.
#[derive(Clone, Copy, Debug, PartialEq)]
struct EdgeState {
    arrival: f64,
    slew: f64,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct PolTimings {
    r: EdgeState,
    f: EdgeState,
}

impl PolTimings {
    pub(crate) fn launch(input_slew: f64) -> Self {
        let e = EdgeState {
            arrival: 0.0,
            slew: input_slew,
        };
        PolTimings { r: e, f: e }
    }

    pub(crate) fn worst_alive(&self, mask: Mask) -> f64 {
        let mut w = f64::NEG_INFINITY;
        if mask.r {
            w = w.max(self.r.arrival);
        }
        if mask.f {
            w = w.max(self.f.arrival);
        }
        w
    }
}

pub(crate) struct Search<'a, 'b> {
    pub(crate) nl: &'a Netlist,
    pub(crate) lib: &'a Library,
    pub(crate) cfg: &'a EnumerationConfig,
    /// Corner-compiled delay kernels.
    pub(crate) kernel: &'a CompiledCorner,
    pub(crate) eng: ImplicationEngine<'a>,
    pub(crate) remaining: Option<Vec<f64>>,
    /// Equivalent fanout per gate (precomputed).
    pub(crate) fanouts: Vec<f64>,
    pub(crate) is_output: Vec<bool>,
    /// Per-source sensitizable reachability (see [`sensitizable_reach`]).
    pub(crate) reach: Vec<bool>,
    /// Nets whose values were assigned (not implied) and therefore need
    /// justification from the PIs.
    pub(crate) obligations: Vec<NetId>,
    /// Per-gate delays along the current partial path, per polarity.
    pub(crate) delays_r: Vec<f64>,
    pub(crate) delays_f: Vec<f64>,
    /// Where emitted paths go.
    pub(crate) sink: &'b mut dyn FnMut(TruePath),
    /// The run-wide decision and path tally every worker spends from.
    pub(crate) budget: &'a RunBudget,
    /// Worst arrivals of admitted paths (threshold bookkeeping in N-worst
    /// mode).
    pub(crate) worst_arrivals: Vec<f64>,
    /// N-worst admission threshold (−∞ until the set is full).
    pub(crate) threshold: f64,
    /// Tightest published N-worst threshold, shared by all workers of the
    /// run (total-order f64 encoding, monotone `fetch_max`; see the
    /// `parallel` module).
    pub(crate) shared_bound: &'a AtomicU64,
    /// Memo table over justification candidate enumeration.
    pub(crate) justify_cache: JustifyCache,
    /// Shared stack of pending side assignments: each [`Search::try_arc`]
    /// activation appends its slice and truncates on exit, so the hot loop
    /// never allocates.
    pub(crate) side_scratch: Vec<(NetId, bool)>,
    /// Reusable obligation list handed to the justification engine.
    pub(crate) justify_todo: Vec<NetId>,
    /// Reusable buffers of the justification search itself.
    pub(crate) justify_scratch: JustifyScratch,
    /// Scratch engine for learn-time nogood verification replays (`None`
    /// with learning off). Reset before and after every replay; never
    /// carries search state.
    pub(crate) learn_eng: Option<ImplicationEngine<'a>>,
    /// Shared learned-nogood store (`None` with learning off); every
    /// worker clones one `Arc` (see `sta_core::learn` for the sharing and
    /// soundness story).
    pub(crate) nogoods: Option<Arc<NogoodStore>>,
    /// Per-worker epoch-validated read cache over the store.
    pub(crate) nogood_view: NogoodView,
    /// Reusable cone-walk buffers of the nogood cut extraction.
    pub(crate) cone_scratch: ConeScratch,
    /// Reusable side-net list handed to the cut extraction.
    pub(crate) learn_todo: Vec<NetId>,
    /// Reusable justification buffers of the verification replay (kept
    /// apart from `justify_scratch` for clarity; both are transient).
    pub(crate) learn_scratch: JustifyScratch,
    /// Per-arc delay bounds of the dominance cut (`None` unless learning
    /// and N-worst mode are both on).
    pub(crate) arc_bounds: Option<Arc<ArcBounds>>,
    /// Per-source tightened remaining bounds (see
    /// `arrival::tightened_remaining`), refreshed at every source switch;
    /// `None` whenever `arc_bounds` is.
    pub(crate) tight_rem: Option<Vec<f64>>,
    pub(crate) stats: EnumerationStats,
    /// Progress tap (installed via `sta_obs::Observer::install_progress`);
    /// relaxed side-state counters only, never read back by the search.
    pub(crate) progress: Option<std::sync::Arc<sta_obs::Progress>>,
    /// Per-call justification effort histogram (inert when disabled).
    pub(crate) justify_hist: sta_obs::Histogram,
    /// Admitted-path length histogram, arcs per path (inert when
    /// disabled).
    pub(crate) path_len_hist: sta_obs::Histogram,
    /// N-worst admission-threshold tightenings (inert when disabled).
    pub(crate) bound_updates: sta_obs::Counter,
}

impl Search<'_, '_> {
    /// The N-worst admission threshold in force: the worker-local one,
    /// tightened by the shared bound published by other workers. Every
    /// published value is some worker's N-th-largest admitted arrival,
    /// which never exceeds the global N-th-largest (a subset's N-th
    /// largest is at most the superset's), so tightening with it never
    /// drops a path that belongs in the final N — see the `parallel`
    /// module docs for the full argument.
    pub(crate) fn effective_threshold(&self) -> f64 {
        self.threshold.max(crate::parallel::decode_bound(
            self.shared_bound.load(std::sync::atomic::Ordering::Relaxed),
        ))
    }

    fn publish_threshold(&self) {
        if self.threshold > f64::NEG_INFINITY {
            self.shared_bound.fetch_max(
                crate::parallel::encode_bound(self.threshold),
                std::sync::atomic::Ordering::Relaxed,
            );
        }
    }

    /// Checks the run-wide budget, latching `stats.truncated` once it has
    /// tripped.
    pub(crate) fn budget_exhausted(&mut self) -> bool {
        if self.budget.exhausted() {
            self.stats.truncated = true;
        }
        self.stats.truncated
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs_inner(
        &mut self,
        net: NetId,
        parity: bool,
        mask: Mask,
        timing: PolTimings,
        nodes: &mut Vec<NetId>,
        arcs: &mut Vec<PathArc>,
    ) {
        if self.budget_exhausted() {
            return;
        }
        nodes.push(net);
        if nodes.len() > self.stats.scratch_path_hwm {
            self.stats.scratch_path_hwm = nodes.len();
        }
        let mut mask = mask;
        if self.is_output[net.index()] && !arcs.is_empty() {
            mask = self.emit(mask, &timing, nodes, arcs);
        }
        if mask.any() {
            // Pruning against the N-worst threshold. The per-source
            // tightened bound (learning mode) is never looser than the
            // global structural one, so preferring it only prunes more.
            let prune = if let Some(rem) = self.tight_rem.as_ref().or(self.remaining.as_ref()) {
                let threshold = self.effective_threshold();
                self.cfg.n_worst.is_some()
                    && threshold > f64::NEG_INFINITY
                    && timing.worst_alive(mask) + rem[net.index()] < threshold
            } else {
                false
            };
            if prune {
                self.stats.pruned += 1;
            } else {
                // The netlist borrow (`'a`, immutable for the whole run)
                // is independent of `&mut self`, so the fanout list is
                // iterated in place — the old per-visit `to_vec` snapshot
                // was the hottest allocation of the DFS.
                let nl = self.nl;
                for pr in nl.net(net).fanout() {
                    let out_net = nl.gate(pr.gate).output();
                    if !self.reach[out_net.index()] && !self.is_output[out_net.index()] {
                        continue;
                    }
                    let cell_id = cell_of(nl, pr.gate);
                    let n_vectors = self.lib.cell(cell_id).vectors_of(pr.pin as u8).len();
                    for vector in 0..n_vectors {
                        if self.budget_exhausted() {
                            break;
                        }
                        self.try_arc(
                            pr.gate,
                            pr.pin as u8,
                            vector,
                            parity,
                            mask,
                            timing,
                            nodes,
                            arcs,
                        );
                    }
                }
            }
        }
        nodes.pop();
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn try_arc(
        &mut self,
        gate: GateId,
        pin: u8,
        vector: usize,
        parity: bool,
        mask: Mask,
        timing: PolTimings,
        nodes: &mut Vec<NetId>,
        arcs: &mut Vec<PathArc>,
    ) {
        // Dominance cut (learning + N-worst only): if even the most
        // optimistic completion through this arc — current worst alive
        // arrival, plus this arc's delay bound, plus the tightened
        // remaining bound from its output — cannot reach the admission
        // threshold, the whole subtree is cut before any side value is
        // assigned. Bound-safe: every path in the subtree would be
        // rejected by `record` anyway (strict `<`, and the threshold
        // only tightens), so the emitted set is unchanged.
        if let (Some(tight), Some(ab)) = (&self.tight_rem, &self.arc_bounds) {
            let threshold = self.effective_threshold();
            if threshold > f64::NEG_INFINITY {
                let out_net = self.nl.gate(gate).output();
                let best =
                    timing.worst_alive(mask) + ab.get(gate, pin, vector) + tight[out_net.index()];
                if best < threshold {
                    self.stats.learn_bound_cuts += 1;
                    return;
                }
            }
        }
        self.stats.decisions += 1;
        self.budget.spend(1);
        let cell_id = cell_of(self.nl, gate);
        let cell = self.lib.cell(cell_id);
        let sv = &cell.vectors_of(pin)[vector];
        let polarity = sv.polarity;
        let mark = self.eng.mark();
        let obligations_before = self.obligations.len();

        // Assign the vector's side values and propagate. The side list
        // lives in the shared scratch stack (truncated on exit) — nested
        // activations each own a disjoint tail slice.
        let side_start = self.side_scratch.len();
        {
            let g = self.nl.gate(gate);
            for p in 0..g.fanin() as u8 {
                if p == pin {
                    continue;
                }
                if let Some(v) = sv.side_value(p) {
                    self.side_scratch.push((g.inputs()[p as usize], v));
                }
            }
        }
        let side_end = self.side_scratch.len();
        if side_end > self.stats.scratch_side_hwm {
            self.stats.scratch_side_hwm = side_end;
        }
        let mut alive = mask;
        for i in side_start..side_end {
            let (side_net, value) = self.side_scratch[i];
            let conflicts = self.eng.assign(side_net, Dual::stable(value), alive);
            alive = alive.minus(conflicts);
            if !alive.any() {
                break;
            }
        }
        if alive.any() {
            for i in side_start..side_end {
                self.obligations.push(self.side_scratch[i].0);
            }
            // Feasibility: the values just assigned must be justifiable
            // from the PIs (the paper: "justify the logic values assigned
            // until the inputs of the circuit are reached"). This is an
            // incremental check — joint satisfiability of *all*
            // accumulated requirements is re-established at emission. The
            // witness is rolled back; only the requirements and their
            // forward implications persist on the trail.
            let key = NogoodKey {
                src: nodes[0],
                gate,
                pin,
                vector: vector as u32,
            };
            let justified = if side_start == side_end {
                Some(alive)
            } else if let Some(saved) = self.consult_nogoods(key, alive) {
                // A stored clause refutes every alive polarity: the
                // justification below could only have returned `None`.
                // Taking the same branch keeps the path set byte-exact
                // (full-kill rule — see `sta_core::learn`).
                self.stats.learn_hits += 1;
                self.stats.learn_decisions_saved += saved;
                None
            } else {
                let witness_mark = self.eng.mark();
                self.justify_todo.clear();
                for i in side_start..side_end {
                    let n = self.side_scratch[i].0;
                    self.justify_todo.push(n);
                }
                let decisions_before = self.stats.decisions;
                let (out, unsat) = self.justify_staged(alive);
                self.eng.rollback(witness_mark);
                if unsat {
                    // Definitive refutation (never a budget abort): worth
                    // learning if it cost enough to re-derive.
                    let spent = self.stats.decisions - decisions_before;
                    if spent >= learn::MIN_LEARN_DECISIONS {
                        let via = self.nl.gate(gate).inputs()[pin as usize];
                        self.learn_from_refutation(key, via, alive, side_start..side_end, spent);
                    }
                }
                out
            };
            if let Some(m3) = justified {
                if m3.any() {
                    let new_timing =
                        self.advance_timing(gate, cell_id, pin, vector, parity, m3, timing);
                    let out = self.nl.gate(gate).output();
                    arcs.push(PathArc {
                        gate,
                        pin,
                        vector,
                        polarity,
                    });
                    let inverted = polarity == Polarity::Inverting;
                    self.dfs_inner(out, parity ^ inverted, m3, new_timing, nodes, arcs);
                    arcs.pop();
                    self.delays_r.pop();
                    self.delays_f.pop();
                }
            } else {
                self.stats.conflicts += 1;
            }
        } else {
            self.stats.conflicts += 1;
        }
        self.obligations.truncate(obligations_before);
        self.side_scratch.truncate(side_start);
        self.eng.rollback(mark);
    }

    /// Adds the arc's polynomial delay/slew per alive polarity, evaluated
    /// through the corner-compiled kernels, and pushes the per-gate delay
    /// entries.
    #[allow(clippy::too_many_arguments)]
    fn advance_timing(
        &mut self,
        gate: GateId,
        cell_id: sta_netlist::CellId,
        pin: u8,
        vector: usize,
        parity: bool,
        mask: Mask,
        timing: PolTimings,
    ) -> PolTimings {
        let fo = self.fanouts[gate.index()];
        let kernel = self.kernel;
        let arc = kernel.arc_id(cell_id, pin, vector);
        let step = |state: &mut EdgeState, launch: Edge, alive: bool| -> f64 {
            if !alive {
                return 0.0;
            }
            let in_edge = if parity { launch.invert() } else { launch };
            let (d, s) = kernel.eval(arc, in_edge, fo, state.slew);
            // Clamp against degenerate extrapolation: delays and slews
            // are physical quantities.
            let d = d.max(0.1);
            let s = s.max(0.5);
            state.arrival += d;
            state.slew = s;
            d
        };
        let mut out = timing;
        let dr = step(&mut out.r, Edge::Rise, mask.r);
        let df = step(&mut out.f, Edge::Fall, mask.f);
        self.stats.compiled_evals += u64::from(mask.r) + u64::from(mask.f);
        self.delays_r.push(dr);
        self.delays_f.push(df);
        out
    }

    /// Emits a path ending at `net` if the accumulated requirements are
    /// justifiable; returns the (possibly reduced) alive mask.
    fn emit(&mut self, mask: Mask, timing: &PolTimings, nodes: &[NetId], arcs: &[PathArc]) -> Mask {
        let witness_mark = self.eng.mark();
        let justified = self.justify(mask);
        let m3 = match justified {
            Some(m) if m.any() => m,
            _ => {
                self.eng.rollback(witness_mark);
                self.stats.conflicts += 1;
                return Mask::NONE;
            }
        };
        // Witness is active: extract the PI vector.
        let source = nodes[0];
        let input_vector: Vec<PiValue> = self
            .nl
            .inputs()
            .iter()
            .map(|&pi| {
                if pi == source {
                    return PiValue::Transition;
                }
                let d = self.eng.value(pi);
                let v = if m3.r { d.r } else { d.f };
                match (v.init(), v.fin()) {
                    (TriVal::X, TriVal::X) => PiValue::X,
                    _ if v == V9::S0 => PiValue::Zero,
                    _ if v == V9::S1 => PiValue::One,
                    // Semi-undetermined at a PI: only the settled frame is
                    // constrained; report that.
                    (_, TriVal::Zero) => PiValue::Zero,
                    (_, TriVal::One) => PiValue::One,
                    _ => PiValue::X,
                }
            })
            .collect();
        self.eng.rollback(witness_mark);

        let parity_edge = |launch: Edge, gate_count: usize| -> Edge {
            let inversions = arcs[..gate_count]
                .iter()
                .filter(|a| a.polarity == Polarity::Inverting)
                .count();
            if inversions % 2 == 1 {
                launch.invert()
            } else {
                launch
            }
        };
        let mk = |launch: Edge, st: &EdgeState, delays: &[f64]| LaunchTiming {
            launch_edge: launch,
            arrival: st.arrival,
            slew: st.slew,
            final_edge: parity_edge(launch, arcs.len()),
            gate_delays: delays.to_vec(),
        };
        let path = TruePath {
            source,
            nodes: nodes.to_vec(),
            arcs: arcs.to_vec(),
            rise: m3.r.then(|| mk(Edge::Rise, &timing.r, &self.delays_r)),
            fall: m3.f.then(|| mk(Edge::Fall, &timing.f, &self.delays_f)),
            input_vector,
        };
        self.record(path);
        m3
    }

    fn record(&mut self, path: TruePath) {
        self.stats.paths += 1;
        self.stats.input_vectors += path.num_polarities();
        if let Some(n) = self.cfg.n_worst {
            let w = path.worst_arrival();
            // Ties with the threshold are admitted (strict `<`): the final
            // cutoff arrival may be shared by several paths, and the
            // deterministic truncation in `run` needs all of them in the
            // sink to pick the same N regardless of discovery order (and
            // of thread count). The local threshold stays −∞ until N
            // local admissions, so the shared bound alone can also reject
            // (any published bound is ≤ the global N-th largest arrival).
            if w < self.effective_threshold() {
                return;
            }
            self.note_emission(&path);
            self.worst_arrivals.push(w);
            self.budget.admit();
            (self.sink)(path);
            // Keep the threshold set loosely bounded; refresh the
            // admission threshold from the current N-th worst.
            if self.worst_arrivals.len() >= 2 * n {
                self.worst_arrivals.sort_by(|a, b| b.total_cmp(a));
                self.worst_arrivals.truncate(n);
            }
            if self.worst_arrivals.len() >= n {
                let mut arrivals = self.worst_arrivals.clone();
                arrivals.sort_by(f64::total_cmp);
                self.threshold = arrivals[arrivals.len() - n];
                self.bound_updates.inc();
                if let Some(p) = &self.progress {
                    p.set_bound(self.threshold);
                }
                self.publish_threshold();
            }
        } else {
            self.note_emission(&path);
            self.budget.admit();
            (self.sink)(path);
        }
    }

    /// Observability tap on path admission: progress counters and the
    /// path-length histogram. Side-state only — nothing here is read back
    /// by the search.
    fn note_emission(&mut self, path: &TruePath) {
        self.path_len_hist.observe(path.arcs.len() as f64);
        if let Some(p) = &self.progress {
            use std::sync::atomic::Ordering::Relaxed;
            p.paths.fetch_add(1, Relaxed);
            p.frontier_depth.store(path.nodes.len() as u64, Relaxed);
        }
    }

    /// Complete backward justification of every pending obligation.
    /// On success the witness assignments are left on the trail (the
    /// caller rolls back to its own mark) and the surviving mask is
    /// returned; `None` means no witness exists for any alive polarity
    /// (or the decision budget ran out — `stats.truncated` is set then).
    fn justify(&mut self, mask: Mask) -> Option<Mask> {
        self.justify_todo.clear();
        self.justify_todo.extend_from_slice(&self.obligations);
        self.justify_staged(mask).0
    }

    /// Consults the nogood store for the current arc: `Some(saved)` when
    /// stored clauses refute every alive polarity of the engine's state
    /// (the full-kill rule), `None` otherwise or with learning off.
    fn consult_nogoods(&mut self, key: NogoodKey, alive: Mask) -> Option<u64> {
        let store = self.nogoods.as_ref()?;
        let list = self.nogood_view.get(store.as_ref(), key)?;
        learn::full_kill(&list, &self.eng, alive)
    }

    /// Extracts, verifies and stores nogoods from a definitive
    /// justification refutation of the side nets in
    /// `side_scratch[sides]`, one per alive polarity. Verification
    /// replays the candidate cut on the scratch engine under the same
    /// toggle deltas; anything not *provably* unjustifiable there is
    /// dropped — soundness by construction (see `sta_core::learn`).
    fn learn_from_refutation(
        &mut self,
        key: NogoodKey,
        via: NetId,
        alive: Mask,
        sides: std::ops::Range<usize>,
        cost: u64,
    ) {
        let Some(store) = self.nogoods.clone() else {
            return;
        };
        if self.learn_eng.is_none() {
            return;
        }
        // A saturated key cannot store anything — skip the extraction and
        // verification work outright.
        if store
            .get(&key)
            .is_some_and(|l| l.len() >= learn::MAX_PER_KEY)
        {
            return;
        }
        self.learn_todo.clear();
        self.learn_todo.push(via);
        for i in sides.clone() {
            let n = self.side_scratch[i].0;
            self.learn_todo.push(n);
        }
        self.stats.learn_attempts += 1;
        for pol_r in [true, false] {
            if !(if pol_r { alive.r } else { alive.f }) {
                continue;
            }
            // Most general candidate first: the arc's own side values
            // plus the transition arriving on the propagating pin, with
            // no further partial-path context. When that verifies
            // unsatisfiable, any future try of this key with the same
            // arrival direction is a guaranteed hit (the engine assigns
            // exactly these values on every activation of the arc) — one
            // verification buys a near-permanent refutation of the arc.
            let mut side_lits: Vec<(NetId, V9)> = sides
                .clone()
                .map(|i| {
                    let (n, b) = self.side_scratch[i];
                    (n, V9::stable(b))
                })
                .collect();
            let via_val = {
                let v = self.eng.value(via);
                if pol_r {
                    v.r
                } else {
                    v.f
                }
            };
            // Stable values only — see `learn::extract_cut`: the
            // justifier's refutations are definitive over stable
            // requirements, not transitions.
            if via_val == V9::S0 || via_val == V9::S1 {
                side_lits.push((via, via_val));
            }
            let verified_side = learn::verify_cut(
                self.learn_eng.as_mut().expect("learning engine"),
                self.nl,
                self.eng.toggles(),
                key.src,
                pol_r,
                &side_lits,
                &mut self.justify_todo,
                &mut self.learn_scratch,
            );
            let lits = if verified_side {
                self.stats.learn_side_clauses += 1;
                side_lits
            } else {
                // Context-dependent refutation: fall back to the fanin
                // cone cut, which captures the partial-path state the
                // proof leaned on.
                let Some(cone_lits) = learn::extract_cut(
                    &self.eng,
                    self.nl,
                    &self.learn_todo,
                    pol_r,
                    &mut self.cone_scratch,
                ) else {
                    self.stats.learn_verify_failures += 1;
                    continue;
                };
                let verified = learn::verify_cut(
                    self.learn_eng.as_mut().expect("learning engine"),
                    self.nl,
                    self.eng.toggles(),
                    key.src,
                    pol_r,
                    &cone_lits,
                    &mut self.justify_todo,
                    &mut self.learn_scratch,
                );
                if !verified {
                    self.stats.learn_verify_failures += 1;
                    continue;
                }
                cone_lits
            };
            let clause = crate::learn::Nogood { pol_r, lits, cost };
            if store.insert(key, clause) {
                self.stats.learn_stored += 1;
            }
        }
    }

    /// Justifies the obligations currently staged in `justify_todo`
    /// (which is left in an unspecified state). The second return is
    /// `true` only on a definitive [`JustifyOutcome::Unsatisfiable`] —
    /// the learn trigger; a budget abort proves nothing and must never
    /// be learned from.
    fn justify_staged(&mut self, mask: Mask) -> (Option<Mask>, bool) {
        let mut budget = if self.cfg.justify_decision_limit == 0 {
            JustifyBudget::unbounded()
        } else {
            JustifyBudget::with_decision_limit(self.cfg.justify_decision_limit)
        };
        let mut todo = std::mem::take(&mut self.justify_todo);
        let out = crate::justify::justify_in(
            &mut self.eng,
            self.nl,
            &mut todo,
            mask,
            &mut budget,
            Some(&mut self.justify_cache),
            &mut self.justify_scratch,
            Some(&self.justify_hist),
        );
        self.justify_todo = todo;
        self.stats.decisions += budget.decisions;
        self.budget.spend(budget.decisions);
        self.stats.justify_decisions += budget.decisions;
        if matches!(out, JustifyOutcome::Unsatisfiable) {
            self.stats.justify_unsat_decisions += budget.decisions;
        }
        if let Some(p) = &self.progress {
            p.decisions
                .fetch_add(budget.decisions, std::sync::atomic::Ordering::Relaxed);
        }
        // Latch truncation now: a long call may have spent the run's last
        // decisions.
        self.budget_exhausted();
        match out {
            JustifyOutcome::Satisfied(m) => (Some(m), false),
            JustifyOutcome::BudgetExhausted => {
                self.stats.justify_aborts += 1;
                (None, false)
            }
            JustifyOutcome::Unsatisfiable => (None, true),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sta_cells::Technology;
    use sta_charlib::{characterize, CharConfig};
    use sta_netlist::GateKind;

    fn setup(tech: &Technology) -> (&'static Library, &'static TimingLibrary) {
        use std::collections::HashMap;
        use std::sync::{Mutex, OnceLock};
        static LIB: OnceLock<Library> = OnceLock::new();
        static TLIBS: OnceLock<Mutex<HashMap<String, &'static TimingLibrary>>> = OnceLock::new();
        let lib = LIB.get_or_init(Library::standard);
        let mut map = TLIBS
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .unwrap();
        let tlib = *map.entry(tech.name.clone()).or_insert_with(|| {
            Box::leak(Box::new(
                characterize(lib, tech, &CharConfig::fast()).unwrap(),
            ))
        });
        (lib, tlib)
    }

    /// An inverter chain has exactly one path per polarity pair.
    #[test]
    fn inverter_chain_single_path() {
        let tech = Technology::n90();
        let (lib, tlib) = setup(&tech);
        let inv = lib.cell_by_name("INV").unwrap().id();
        let mut nl = Netlist::new("chain");
        let a = nl.add_input("a");
        let x = nl.add_gate(GateKind::Cell(inv), &[a], None).unwrap();
        let y = nl.add_gate(GateKind::Cell(inv), &[x], None).unwrap();
        nl.mark_output(y);
        let cfg = EnumerationConfig::new(Corner::nominal(&tech));
        let (paths, stats) = PathEnumerator::new(&nl, lib, tlib, cfg).run();
        assert_eq!(paths.len(), 1);
        assert_eq!(stats.input_vectors, 2); // both polarities survive
        let p = &paths[0];
        assert!(p.rise.is_some() && p.fall.is_some());
        assert_eq!(p.nodes.len(), 3);
        assert!(p.worst_arrival() > 0.0);
        // Gate delays sum to the arrival.
        let r = p.rise.as_ref().unwrap();
        let sum: f64 = r.gate_delays.iter().sum();
        assert!((sum - r.arrival).abs() < 1e-9);
        assert_eq!(r.final_edge, Edge::Rise); // two inversions
    }

    /// AND2 with both inputs: each input yields one path; the side input
    /// must be justified to 1 and is reported in the witness vector.
    #[test]
    fn and2_paths_with_witness() {
        let tech = Technology::n90();
        let (lib, tlib) = setup(&tech);
        let and2 = lib.cell_by_name("AND2").unwrap().id();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let z = nl.add_gate(GateKind::Cell(and2), &[a, b], None).unwrap();
        nl.mark_output(z);
        let cfg = EnumerationConfig::new(Corner::nominal(&tech));
        let (paths, _) = PathEnumerator::new(&nl, lib, tlib, cfg).run();
        assert_eq!(paths.len(), 2);
        for p in &paths {
            assert_eq!(p.num_polarities(), 2);
            // The side input must be 1 in the witness.
            let side_idx = if p.source == a { 1 } else { 0 };
            assert_eq!(p.input_vector[side_idx], PiValue::One);
        }
    }

    /// AO22 contributes one path per sensitization vector: 3 per input.
    #[test]
    fn ao22_emits_one_path_per_vector() {
        let tech = Technology::n90();
        let (lib, tlib) = setup(&tech);
        let ao22 = lib.cell_by_name("AO22").unwrap().id();
        let mut nl = Netlist::new("t");
        let ins: Vec<_> = (0..4).map(|i| nl.add_input(format!("i{i}"))).collect();
        let z = nl.add_gate(GateKind::Cell(ao22), &ins, None).unwrap();
        nl.mark_output(z);
        let cfg = EnumerationConfig::new(Corner::nominal(&tech));
        let (paths, stats) = PathEnumerator::new(&nl, lib, tlib, cfg).run();
        // 4 inputs × 3 vectors.
        assert_eq!(paths.len(), 12, "{stats:?}");
        // Vector-specific delays differ between cases of the same pin.
        let through_a: Vec<&TruePath> = paths.iter().filter(|p| p.source == ins[0]).collect();
        assert_eq!(through_a.len(), 3);
        let d: Vec<f64> = through_a
            .iter()
            .map(|p| p.fall.as_ref().unwrap().arrival)
            .collect();
        assert!(
            (d[0] - d[1]).abs() > 1e-6 || (d[0] - d[2]).abs() > 1e-6,
            "case delays should differ: {d:?}"
        );
    }

    /// A blocked path (constant side input cannot be justified) is not
    /// reported: NAND(a, b) with b also required 0 through another cone.
    #[test]
    fn false_path_is_rejected() {
        let tech = Technology::n90();
        let (lib, tlib) = setup(&tech);
        let and2 = lib.cell_by_name("AND2").unwrap().id();
        let nor2 = lib.cell_by_name("NOR2").unwrap().id();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        // x = AND(a, a) fine; y = NOR(a, a) = !a; z = AND(x, y) = a & !a = 0.
        let x = nl.add_gate(GateKind::Cell(and2), &[a, a], None).unwrap();
        let y = nl.add_gate(GateKind::Cell(nor2), &[a, a], None).unwrap();
        let z = nl.add_gate(GateKind::Cell(and2), &[x, y], None).unwrap();
        nl.mark_output(z);
        let cfg = EnumerationConfig::new(Corner::nominal(&tech));
        let (paths, _stats) = PathEnumerator::new(&nl, lib, tlib, cfg).run();
        // z is constant 0: no transition can reach it. The static toggle /
        // reachability analyses typically refute the whole cone before a
        // single engine conflict is even raised.
        assert!(paths.is_empty(), "{:?}", paths.len());
    }

    /// Reconvergent c17: every reported path must be electrically sound —
    /// cross-check the witness vector by three-valued evaluation.
    #[test]
    fn c17_paths_have_consistent_witnesses() {
        let tech = Technology::n90();
        let (lib, tlib) = setup(&tech);
        let nand2 = lib.cell_by_name("NAND2").unwrap().id();
        let mut nl = Netlist::new("c17");
        let i1 = nl.add_input("1");
        let i2 = nl.add_input("2");
        let i3 = nl.add_input("3");
        let i6 = nl.add_input("6");
        let i7 = nl.add_input("7");
        let n10 = nl.add_gate(GateKind::Cell(nand2), &[i1, i3], None).unwrap();
        let n11 = nl.add_gate(GateKind::Cell(nand2), &[i3, i6], None).unwrap();
        let n16 = nl
            .add_gate(GateKind::Cell(nand2), &[i2, n11], None)
            .unwrap();
        let n19 = nl
            .add_gate(GateKind::Cell(nand2), &[n11, i7], None)
            .unwrap();
        let n22 = nl
            .add_gate(GateKind::Cell(nand2), &[n10, n16], None)
            .unwrap();
        let n23 = nl
            .add_gate(GateKind::Cell(nand2), &[n16, n19], None)
            .unwrap();
        nl.mark_output(n22);
        nl.mark_output(n23);
        let cfg = EnumerationConfig::new(Corner::nominal(&tech));
        let (paths, stats) = PathEnumerator::new(&nl, lib, tlib, cfg).run();
        assert!(!paths.is_empty());
        assert!(!stats.truncated);
        // Verify every witness by two-pattern simulation: flipping the
        // source value must flip the path endpoint.
        for p in &paths {
            let launches = [
                p.rise.as_ref().map(|_| Edge::Rise),
                p.fall.as_ref().map(|_| Edge::Fall),
            ];
            for launch in launches.into_iter().flatten() {
                let assign = |source_val: bool| -> Vec<bool> {
                    nl.inputs()
                        .iter()
                        .zip(&p.input_vector)
                        .map(|(_, v)| match v {
                            PiValue::Transition => source_val,
                            PiValue::One => true,
                            // Don't-cares: 0 is as good as any for a
                            // *static* sensitization check.
                            PiValue::Zero | PiValue::X => false,
                        })
                        .collect()
                };
                let (init, fin) = match launch {
                    Edge::Rise => (false, true),
                    Edge::Fall => (true, false),
                };
                let before = lib.eval_netlist(&nl, &assign(init));
                let after = lib.eval_netlist(&nl, &assign(fin));
                let endpoint = p.endpoint();
                let po_idx = nl.outputs().iter().position(|&o| o == endpoint).unwrap();
                assert_ne!(
                    before[po_idx],
                    after[po_idx],
                    "witness fails to toggle endpoint for {:?}",
                    p.describe(&nl, lib)
                );
            }
        }
    }

    /// The streaming sink sees exactly the paths the collecting API
    /// returns (full enumeration), and never allocates the result vector.
    #[test]
    fn run_with_streams_every_emission() {
        let tech = Technology::n90();
        let (lib, tlib) = setup(&tech);
        let ao22 = lib.cell_by_name("AO22").unwrap().id();
        let mut nl = Netlist::new("t");
        let ins: Vec<_> = (0..4).map(|i| nl.add_input(format!("i{i}"))).collect();
        let z = nl.add_gate(GateKind::Cell(ao22), &ins, None).unwrap();
        nl.mark_output(z);
        let cfg = EnumerationConfig::new(Corner::nominal(&tech));
        let (collected, stats_a) = PathEnumerator::new(&nl, lib, tlib, cfg.clone()).run();
        let mut streamed = 0usize;
        let stats_b = PathEnumerator::new(&nl, lib, tlib, cfg).run_with(|_| streamed += 1);
        assert_eq!(collected.len(), streamed);
        assert_eq!(stats_a, stats_b, "deterministic search");
    }

    /// N-worst mode returns the same top paths as full enumeration.
    #[test]
    fn n_worst_agrees_with_full_enumeration() {
        let tech = Technology::n90();
        let (lib, tlib) = setup(&tech);
        let nand2 = lib.cell_by_name("NAND2").unwrap().id();
        let oa12 = lib.cell_by_name("OA12").unwrap().id();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let x = nl.add_gate(GateKind::Cell(nand2), &[a, b], None).unwrap();
        let y = nl.add_gate(GateKind::Cell(oa12), &[x, b, c], None).unwrap();
        let z = nl.add_gate(GateKind::Cell(nand2), &[y, a], None).unwrap();
        nl.mark_output(z);
        let corner = Corner::nominal(&tech);
        let (all_paths, _) =
            PathEnumerator::new(&nl, lib, tlib, EnumerationConfig::new(corner)).run();
        let (top, _) = PathEnumerator::new(
            &nl,
            lib,
            tlib,
            EnumerationConfig::new(corner).with_n_worst(3),
        )
        .run();
        assert!(top.len() <= 3);
        let full_top: Vec<f64> = all_paths
            .iter()
            .take(top.len())
            .map(TruePath::worst_arrival)
            .collect();
        let got: Vec<f64> = top.iter().map(TruePath::worst_arrival).collect();
        for (a, b) in full_top.iter().zip(&got) {
            assert!((a - b).abs() < 1e-6, "full {full_top:?} vs nworst {got:?}");
        }
    }
}
