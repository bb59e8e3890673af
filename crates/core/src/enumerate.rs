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
//!
//! Per source, one backward pass over the arcs whose side requirements
//! the source's toggle analysis allows
//! ([`crate::arrival::tightened_remaining`]) marks the nets that can still
//! reach an output; the DFS never forks into the rest. In N-worst mode
//! the same pass bounds the delay the rest of a path can add, which is
//! what the search prunes with. [`PathEnumerator::run`] returns the
//! admitted paths, canonically sorted and truncated to N.
//!
//! One search serves every corner of one timing library
//! ([`PathEnumerator::with_corners`]): temperature and supply are inputs
//! of the delay model (§IV.A), and the search's logic — implication,
//! justification, toggle deltas, reachability, every witness — reads no
//! delay. What does is per corner: the timing along the partial path and
//! its compiled kernel, the arc bounds and remaining bounds, the N-worst
//! admission set and the budget tally. Each DFS frame carries the set of
//! corners whose own search would be there; a subtree or arc is cut for
//! the corners whose bound falls short of their threshold, and skipped
//! once no corner is left. An emitted path enters each corner whose
//! threshold it reaches, timed at that corner, and
//! [`PathEnumerator::run_corners`] sorts and truncates each corner's
//! list. A single-corner run is the one-corner case of the same code.

use std::sync::Arc;

use serde::Serialize;
use sta_cells::{Corner, Edge, Library, Polarity};
use sta_charlib::{CompiledCorner, TimingLibrary};
use sta_logic::{Dual, ImplicationEngine, Mask, TriVal, V9};

use crate::justify::{JustifyBudget, JustifyCache, JustifyOutcome, JustifyScratch};
use sta_netlist::{GateId, GateKind, NetId, Netlist};

use crate::arrival::ArcBounds;
use crate::parallel::{Admissions, RunBudget, Seed};
use crate::path::{canonical_top_n, LaunchTiming, PathArc, PiValue, TruePath};

/// Configuration of a true-path enumeration run.
#[derive(Clone, Debug)]
pub struct EnumerationConfig {
    /// Operating corner for delay evaluation: [`PathEnumerator::new`]
    /// compiles its kernel for it. A search over several corners
    /// ([`PathEnumerator::with_corners`]) takes them from its kernels.
    pub corner: Corner,
    /// Transition time applied at the primary inputs, ps; it also seeds
    /// the slew hulls of the dominance cut's arc bounds.
    pub input_slew: f64,
    /// Keep only the N worst paths and prune the search with the
    /// per-arc dominance cut (see [`crate::arrival::tightened_remaining`]);
    /// `None` enumerates everything, with no pruning at all.
    pub n_worst: Option<usize>,
    /// Safety margin of the single-point structural bound
    /// ([`crate::arrival::static_bounds_compiled`]). The search does not
    /// prune with that bound; the whole-flow audit (lint AI002 and the
    /// daemon's `audit`) computes it at this margin and checks that it
    /// dominates the interval hull.
    pub prune_margin: f64,
    /// Abort the run after this many search decisions (0 = unlimited),
    /// counted over the whole run at any thread count, and per corner in
    /// a search over several: a corner is charged the decisions its own
    /// search would make and stops when they reach the budget. When hit,
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
    /// input, launch gate, sensitization vector) triples — form a fixed
    /// task list that the workers claim in order (see the `parallel`
    /// module); a pool of one runs on the caller's thread. The emitted
    /// path set of an untruncated [`PathEnumerator::run`] is identical
    /// at any thread count; a budget-truncated one is reproducible at one
    /// thread and schedule-dependent above.
    pub threads: usize,
    /// Restricts the run to a subset of the primary inputs: entry `i`
    /// gates the source at position `i` of `Netlist::inputs()`. `None`
    /// runs every source. In full enumeration an enabled source emits
    /// exactly what a run over all sources emits for it. In N-worst mode
    /// the run prunes against the worst paths of the enabled sources
    /// alone, and admits every path of theirs at or above the threshold
    /// it ends at; the ECO cache seeds that threshold with the paths it
    /// holds (see `sta_core::eco`).
    pub source_filter: Option<Arc<Vec<bool>>>,
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
            && self.source_filter == other.source_filter
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
            source_filter: None,
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

    /// Retired: a no-op. The ECO cache searches under the run-wide
    /// N-worst threshold (see `sta_core::eco`), so there is no per-source
    /// isolation left to switch on. The method stays for one release so
    /// that existing callers keep compiling, and goes with the next
    /// change to the benchmark harness.
    pub fn with_per_source_n_worst(self, _retired: bool) -> Self {
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
    /// Subtrees pruned by the per-source remaining bound in N-worst mode.
    pub pruned: u64,
    /// Justification calls dropped at the per-call effort cap. Their
    /// subtrees are discarded unexplored, so the run may miss true paths
    /// (see [`EnumerationStats::complete`]).
    pub justify_aborts: u64,
    /// Justification candidate enumerations answered from the per-worker
    /// memo table over candidate enumeration (`sta_core::justify`).
    pub justify_cache_hits: u64,
    /// Arc evaluations (one per alive polarity) served by the
    /// corner-compiled kernel table.
    pub compiled_evals: u64,
    /// Arcs cut by the per-arc dominance bound (N-worst mode) before any
    /// side value was assigned.
    pub learn_bound_cuts: u64,
    /// Decisions spent inside justification calls (a subset of
    /// `decisions`; the remainder are arc-selection decisions).
    pub justify_decisions: u64,
    /// The share of `justify_decisions` spent on calls that ended in a
    /// definitive refutation.
    pub justify_unsat_decisions: u64,
    /// High-water mark of the shared side-assignment scratch stack
    /// (deepest nesting of pending side values across the DFS).
    pub scratch_side_hwm: usize,
    /// High-water mark of the path node stack (longest partial path).
    pub scratch_path_hwm: usize,
    /// Whether a budget cut the run short.
    pub truncated: bool,
}

impl EnumerationStats {
    /// Whether the run explored its whole search space: no budget cut it
    /// short and no justification call was dropped at the per-call
    /// effort cap. Either can lose true paths, so only a complete run's
    /// path set is exhaustive (full enumeration) or provably the N worst.
    pub fn complete(&self) -> bool {
        !self.truncated && self.justify_aborts == 0
    }

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
        self.learn_bound_cuts += other.learn_bound_cuts;
        self.justify_decisions += other.justify_decisions;
        self.justify_unsat_decisions += other.justify_unsat_decisions;
        self.scratch_side_hwm = self.scratch_side_hwm.max(other.scratch_side_hwm);
        self.scratch_path_hwm = self.scratch_path_hwm.max(other.scratch_path_hwm);
        self.truncated |= other.truncated;
    }
}

/// The most corners one search carries ([`PathEnumerator::with_corners`]):
/// the corners still active in a DFS frame are a 64-bit mask. A batch
/// splits a larger set of one technology's operating points over several
/// searches.
pub const MAX_CORNERS: usize = 64;

/// What one search over the corners of a [`PathEnumerator`] returns.
#[derive(Clone, Debug)]
pub struct CornerRuns {
    /// Per corner, in kernel order: the paths (sorted as
    /// [`PathEnumerator::run`] sorts them) and the statistics of that
    /// corner. Each is what an independent run at that corner alone
    /// returns — byte for byte at one thread, and above one whenever the
    /// corner's run is untruncated (see the `parallel` module). A corner's
    /// `justify_cache_hits` are the shared memo table's.
    pub corners: Vec<(Vec<TruePath>, EnumerationStats)>,
    /// The search's own effort: every arc decision, justification call,
    /// conflict and kernel evaluation it made, counted once whichever
    /// corners it served. `pruned` and `learn_bound_cuts` count the
    /// subtrees and arcs every active corner cut; `truncated` is set when
    /// any corner's budget cut its run short. With one corner this equals
    /// that corner's statistics.
    pub search: EnumerationStats,
}

/// The true-path enumeration engine.
///
/// One enumerator times its paths at one or more corners of one timing
/// library, through one search (see [`PathEnumerator::with_corners`]).
///
/// # Example
///
/// See the crate-level documentation of `sta-core`.
pub struct PathEnumerator<'a> {
    pub(crate) nl: &'a Netlist,
    pub(crate) lib: &'a Library,
    pub(crate) tlib: &'a TimingLibrary,
    pub(crate) cfg: EnumerationConfig,
    /// One corner-compiled kernel table per corner, built at construction
    /// — or injected pre-built, e.g. by the timing daemon which keeps its
    /// table resident across requests — and shared read-only by every
    /// worker.
    pub(crate) kernels: Vec<Arc<CompiledCorner>>,
}

impl<'a> PathEnumerator<'a> {
    /// Creates an enumerator over a mapped netlist at the configured
    /// corner.
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
        Self::with_corners(nl, lib, tlib, cfg, vec![kernel])
    }

    /// Like [`PathEnumerator::new`], but reuses a caller-owned
    /// corner-compiled kernel table instead of building one. The table is
    /// valid for a (timing library, corner) pair and does not depend on
    /// the netlist, so it survives ECO edits; this is what lets the
    /// timing daemon pay compilation once per loaded circuit rather than
    /// once per request.
    ///
    /// `_retired` is the slot of the removed learned-nogood store. Its
    /// type admits only `None`; it stays for one release so that existing
    /// callers keep compiling, and goes with the next change to the
    /// benchmark harness.
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
        _retired: Option<std::convert::Infallible>,
    ) -> Self {
        Self::with_corners(nl, lib, tlib, cfg, vec![kernel])
    }

    /// An enumerator that times every path at each corner of `kernels`
    /// (tables compiled from `tlib`), through one search: the search's
    /// logic — implication, justification, every witness — reads no
    /// delay, so only pruning and admission are per corner (see the
    /// `parallel` module). [`PathEnumerator::run_corners`] returns one
    /// answer per kernel; `cfg.corner` is not read.
    ///
    /// # Panics
    ///
    /// As [`PathEnumerator::new`], and if `kernels` is empty or holds more
    /// than [`MAX_CORNERS`] tables.
    pub fn with_corners(
        nl: &'a Netlist,
        lib: &'a Library,
        tlib: &'a TimingLibrary,
        cfg: EnumerationConfig,
        kernels: Vec<Arc<CompiledCorner>>,
    ) -> Self {
        assert!(
            (1..=MAX_CORNERS).contains(&kernels.len()),
            "a search times 1 to {MAX_CORNERS} corners, not {}",
            kernels.len()
        );
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
            kernels,
        }
    }

    /// Shared handle on the first corner's kernel table (for callers that
    /// keep it resident across enumerator rebuilds, e.g. the timing
    /// daemon).
    pub fn kernel_arc(&self) -> Arc<CompiledCorner> {
        Arc::clone(&self.kernels[0])
    }

    /// Runs the enumeration and returns the first corner's true paths
    /// (sorted by the canonical order of [`TruePath::canonical_cmp`]:
    /// descending worst arrival with deterministic tie-breaking, and
    /// truncated to `n_worst`) together with its statistics. Unless a
    /// budget truncates the run, the returned path set is identical at
    /// any [`EnumerationConfig::threads`] setting.
    pub fn run(&self) -> (Vec<TruePath>, EnumerationStats) {
        self.run_corners().corners.swap_remove(0)
    }

    /// Runs one search for every corner and returns each corner's answer,
    /// sorted and truncated as [`PathEnumerator::run`] does, with the
    /// search's own statistics.
    pub fn run_corners(&self) -> CornerRuns {
        let (mut runs, _) = crate::parallel::run(self, &Seed::default());
        self.ingest_stats(&runs.search);
        for (paths, _) in &mut runs.corners {
            canonical_top_n(paths, self.cfg.n_worst);
        }
        runs
    }

    /// The first corner's [`PathEnumerator::run`] before its final sort
    /// and truncation, with its admission set seeded by `seed`: real
    /// paths of this netlist that the caller already holds (empty for a
    /// plain run). Returns every admitted path, in root-task order, and
    /// the admission threshold the run ended at. With `n_worst`
    /// configured the paths are a superset of the N worst of the sources
    /// searched — paths admitted before the threshold rose past them stay
    /// in it — and hold every path of those sources at or above the
    /// returned threshold (see the `parallel` module).
    pub(crate) fn run_seeded(&self, seed: &Seed) -> (Vec<TruePath>, EnumerationStats, f64) {
        let (mut runs, threshold) = crate::parallel::run(self, seed);
        self.ingest_stats(&runs.search);
        let (paths, stats) = runs.corners.swap_remove(0);
        (paths, stats, threshold)
    }

    /// Per-arc delay bound tables of the dominance cut, one per corner
    /// (`None` in full enumeration), computed once per run through the
    /// kernel tables and shared read-only by every worker.
    pub(crate) fn arc_bound_tables(&self) -> Option<Vec<ArcBounds>> {
        // The bound evaluates the model itself over every slew the arc's
        // input net can carry (its forward slew hull), so it needs only
        // the small wiggle margin, not the conservative `prune_margin` of
        // the single-point static pass.
        self.cfg.n_worst.map(|_| {
            self.kernels
                .iter()
                .map(|kernel| {
                    crate::arrival::arc_bounds_compiled(
                        self.nl,
                        self.tlib,
                        kernel,
                        self.cfg.input_slew,
                        crate::arrival::ARC_SWEEP_MARGIN,
                    )
                })
                .collect()
        })
    }

    /// Folds a finished search's own statistics (the effort it made, not
    /// the per-corner tallies) into the observer's metrics registry, and
    /// registers the full enumeration metric name set — including the
    /// per-worker counters — so that every manifest has the same
    /// structure, even for a run with no root tasks. Pure side-state: a
    /// disabled observer makes this a no-op.
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
        obs.counter("learn.bound_cuts").add(stats.learn_bound_cuts);
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

/// A set of corner indices below [`MAX_CORNERS`], as a bit mask: the
/// corners whose own search would be at the current DFS frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct CornerSet(u64);

impl CornerSet {
    /// Corners `0..k`.
    pub(crate) fn first(k: usize) -> Self {
        CornerSet(u64::MAX >> (MAX_CORNERS - k))
    }

    pub(crate) fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The corners, in index order.
    pub(crate) fn iter(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let k = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                k
            })
        })
    }

    /// The corners for which `keep` holds, asked in index order.
    pub(crate) fn retain(self, mut keep: impl FnMut(usize) -> bool) -> Self {
        let mut kept = self;
        for k in self.iter() {
            if !keep(k) {
                kept.0 &= !(1 << k);
            }
        }
        kept
    }
}

/// Arrival/slew of one launch polarity.
#[derive(Clone, Copy, Debug, PartialEq)]
struct EdgeState {
    arrival: f64,
    slew: f64,
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct PolTimings {
    r: EdgeState,
    f: EdgeState,
}

impl PolTimings {
    fn launch(input_slew: f64) -> Self {
        let e = EdgeState {
            arrival: 0.0,
            slew: input_slew,
        };
        PolTimings { r: e, f: e }
    }

    fn worst_alive(&self, mask: Mask) -> f64 {
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

/// One corner's timing at one node of the current partial path: arrival
/// and slew per launch polarity, and the delay per polarity of the arc
/// that led there (zero at the launch and for a dead polarity).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Step {
    timing: PolTimings,
    delay_r: f64,
    delay_f: f64,
}

impl Step {
    pub(crate) fn launch(input_slew: f64) -> Self {
        Step {
            timing: PolTimings::launch(input_slew),
            delay_r: 0.0,
            delay_f: 0.0,
        }
    }
}

/// What one corner of a search owns: its kernel and bounds, the
/// admission set and budget tally it answers to, its timing along the
/// current partial path, and what its own search would have found and
/// counted.
pub(crate) struct CornerSearch<'a> {
    pub(crate) kernel: &'a CompiledCorner,
    /// Per-arc delay bounds of the dominance cut (`None` in full
    /// enumeration).
    pub(crate) arc_bounds: Option<&'a ArcBounds>,
    /// Per-source remaining bounds, installed at every source switch:
    /// [`crate::arrival::tightened_remaining`] in N-worst mode (the only
    /// bound the search prunes with), zero-bound in full enumeration.
    /// A `−∞` entry marks a net with no true continuation to an output;
    /// those entries are the same at every corner.
    pub(crate) rem: &'a [f64],
    /// The run's N-worst admission set of this corner, which it admits
    /// into and prunes against (see the `parallel` module).
    pub(crate) admissions: &'a Admissions,
    /// The run-wide decision and path tally of this corner, which every
    /// worker spends from.
    pub(crate) budget: &'a RunBudget,
    /// Timing along the current partial path: the launch, then one step
    /// per arc. Pushed and popped only while the corner is active.
    pub(crate) steps: Vec<Step>,
    /// Every path this corner admitted, tagged with the index of the
    /// root task that found it, in the order the worker found them.
    pub(crate) found: Vec<(usize, TruePath)>,
    /// What this corner's own search would have counted.
    pub(crate) stats: EnumerationStats,
}

impl CornerSearch<'_> {
    /// Timing at the current node.
    fn timing(&self) -> &PolTimings {
        &self
            .steps
            .last()
            .expect("a task pushes the launch step")
            .timing
    }

    /// The path ending at the current node, timed at this corner.
    fn path(
        &self,
        nodes: &[NetId],
        arcs: &[PathArc],
        alive: Mask,
        inverted: bool,
        input_vector: Vec<PiValue>,
    ) -> TruePath {
        let tip = self.timing();
        let path_steps = &self.steps[1..];
        let mk = |launch: Edge, st: &EdgeState, delay: fn(&Step) -> f64| LaunchTiming {
            launch_edge: launch,
            arrival: st.arrival,
            slew: st.slew,
            final_edge: if inverted { launch.invert() } else { launch },
            gate_delays: path_steps.iter().map(delay).collect(),
        };
        TruePath {
            source: nodes[0],
            nodes: nodes.to_vec(),
            arcs: arcs.to_vec(),
            rise: alive.r.then(|| mk(Edge::Rise, &tip.r, |s| s.delay_r)),
            fall: alive.f.then(|| mk(Edge::Fall, &tip.f, |s| s.delay_f)),
            input_vector,
        }
    }
}

pub(crate) struct Search<'a> {
    pub(crate) nl: &'a Netlist,
    pub(crate) lib: &'a Library,
    pub(crate) cfg: &'a EnumerationConfig,
    pub(crate) eng: ImplicationEngine<'a>,
    /// Equivalent fanout per gate (precomputed).
    pub(crate) fanouts: Vec<f64>,
    pub(crate) is_output: Vec<bool>,
    /// Nets whose values were assigned (not implied) and therefore need
    /// justification from the PIs.
    pub(crate) obligations: Vec<NetId>,
    /// The corners this search times, in kernel order.
    pub(crate) corners: Vec<CornerSearch<'a>>,
    /// Index of the root task being searched; admitted paths carry it.
    pub(crate) task: usize,
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
    /// The search's own effort (see [`CornerRuns::search`]).
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

impl Search<'_> {
    /// Checks corner `k`'s budget, latching its `truncated` once the
    /// corner's tally has tripped. A latched corner's own search would
    /// stop at its next check.
    fn exhausted(&mut self, k: usize) -> bool {
        let c = &mut self.corners[k];
        if c.budget.exhausted() {
            c.stats.truncated = true;
        }
        c.stats.truncated
    }

    /// The corners of `active` whose budget has not tripped: the budget
    /// check of each corner's own search, made where that search makes
    /// it.
    pub(crate) fn unexhausted(&mut self, active: CornerSet) -> CornerSet {
        active.retain(|k| !self.exhausted(k))
    }

    /// Counts one event in the search's own statistics and in those of
    /// every corner in `active`, whose own searches would each have
    /// counted it.
    fn count(&mut self, active: CornerSet, event: impl Fn(&mut EnumerationStats)) {
        event(&mut self.stats);
        for k in active.iter() {
            event(&mut self.corners[k].stats);
        }
    }

    /// Charges `decisions` to the search and to every corner in `active`,
    /// counted and spent from each corner's budget.
    fn spend(&mut self, active: CornerSet, decisions: u64) {
        self.stats.decisions += decisions;
        for k in active.iter() {
            let c = &mut self.corners[k];
            c.stats.decisions += decisions;
            c.budget.spend(decisions);
        }
    }

    /// Whether the subtrees at `net` can reach the N-worst admission
    /// threshold: the corners of `active` for which the worst alive
    /// arrival plus the per-source tightened remaining bound reaches it.
    /// Each corner that cuts counts a prune; the search counts one when
    /// every corner cuts. Never cuts in full enumeration, whose
    /// thresholds stay `−∞`.
    pub(crate) fn unpruned(&mut self, net: NetId, mask: Mask, active: CornerSet) -> CornerSet {
        let kept = active.retain(|k| {
            let c = &mut self.corners[k];
            let threshold = c.admissions.threshold();
            let prunes = threshold > f64::NEG_INFINITY
                && c.timing().worst_alive(mask) + c.rem[net.index()] < threshold;
            if prunes {
                c.stats.pruned += 1;
            }
            !prunes
        });
        if kept.is_empty() {
            self.stats.pruned += 1;
        }
        kept
    }

    /// Dominance cut (N-worst only): the corners of `active` for which
    /// the most optimistic completion through the arc — current worst
    /// alive arrival, plus this arc's delay bound, plus the tightened
    /// remaining bound from its output — can still reach the admission
    /// threshold. A corner that cuts drops the whole subtree before any
    /// side value is assigned; each counts the cut, and the search counts
    /// one when every corner cuts. Bound-safe: every path in the subtree
    /// would be rejected by that corner's admission anyway (strict `<`,
    /// and its threshold only tightens), so its emitted set is unchanged.
    fn uncut(
        &mut self,
        gate: GateId,
        pin: u8,
        vector: usize,
        mask: Mask,
        active: CornerSet,
    ) -> CornerSet {
        if self.cfg.n_worst.is_none() {
            return active;
        }
        let out = self.nl.gate(gate).output().index();
        let kept = active.retain(|k| {
            let c = &mut self.corners[k];
            let threshold = c.admissions.threshold();
            let cut = match c.arc_bounds {
                Some(ab) if threshold > f64::NEG_INFINITY => {
                    c.timing().worst_alive(mask) + ab.get(gate, pin, vector) + c.rem[out]
                        < threshold
                }
                _ => false,
            };
            if cut {
                c.stats.learn_bound_cuts += 1;
            }
            !cut
        });
        if kept.is_empty() {
            self.stats.learn_bound_cuts += 1;
        }
        kept
    }

    /// Whether any true continuation from `net` reaches an output: the
    /// first corner's remaining bound is `−∞` exactly where every
    /// corner's is.
    fn reaches(&self, net: NetId) -> bool {
        self.corners[0].rem[net.index()] != f64::NEG_INFINITY
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs_inner(
        &mut self,
        net: NetId,
        parity: bool,
        mask: Mask,
        active: CornerSet,
        nodes: &mut Vec<NetId>,
        arcs: &mut Vec<PathArc>,
    ) {
        let active = self.unexhausted(active);
        if active.is_empty() {
            return;
        }
        nodes.push(net);
        let depth = nodes.len();
        self.count(active, |s| {
            s.scratch_path_hwm = s.scratch_path_hwm.max(depth)
        });
        let mut mask = mask;
        if self.is_output[net.index()] && !arcs.is_empty() {
            mask = self.emit(mask, active, nodes, arcs);
        }
        if mask.any() {
            let mut active = self.unpruned(net, mask, active);
            // The netlist borrow (`'a`, immutable for the whole run) is
            // independent of `&mut self`, so the fanout list is iterated
            // in place — the old per-visit `to_vec` snapshot was the
            // hottest allocation of the DFS.
            let nl = self.nl;
            'fanout: for pr in nl.net(net).fanout() {
                if active.is_empty() {
                    break;
                }
                if !self.reaches(nl.gate(pr.gate).output()) {
                    continue;
                }
                let cell_id = cell_of(nl, pr.gate);
                let n_vectors = self.lib.cell(cell_id).vectors_of(pr.pin as u8).len();
                for vector in 0..n_vectors {
                    active = self.unexhausted(active);
                    if active.is_empty() {
                        break 'fanout;
                    }
                    self.try_arc(
                        pr.gate,
                        pr.pin as u8,
                        vector,
                        parity,
                        mask,
                        active,
                        nodes,
                        arcs,
                    );
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
        active: CornerSet,
        nodes: &mut Vec<NetId>,
        arcs: &mut Vec<PathArc>,
    ) {
        let active = self.uncut(gate, pin, vector, mask, active);
        if active.is_empty() {
            return;
        }
        self.spend(active, 1);
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
        self.count(active, |s| {
            s.scratch_side_hwm = s.scratch_side_hwm.max(side_end)
        });
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
            let justified = if side_start == side_end {
                Some(alive)
            } else {
                let witness_mark = self.eng.mark();
                self.justify_todo.clear();
                for i in side_start..side_end {
                    let n = self.side_scratch[i].0;
                    self.justify_todo.push(n);
                }
                let out = self.justify_staged(alive, active);
                self.eng.rollback(witness_mark);
                out
            };
            if let Some(m3) = justified {
                if m3.any() {
                    self.advance_timing(gate, cell_id, pin, vector, parity, m3, active);
                    let out = self.nl.gate(gate).output();
                    arcs.push(PathArc {
                        gate,
                        pin,
                        vector,
                        polarity,
                    });
                    let inverted = polarity == Polarity::Inverting;
                    self.dfs_inner(out, parity ^ inverted, m3, active, nodes, arcs);
                    arcs.pop();
                    for k in active.iter() {
                        self.corners[k].steps.pop();
                    }
                }
            } else {
                self.count(active, |s| s.conflicts += 1);
            }
        } else {
            self.count(active, |s| s.conflicts += 1);
        }
        self.obligations.truncate(obligations_before);
        self.side_scratch.truncate(side_start);
        self.eng.rollback(mark);
    }

    /// Pushes, for every corner of `active`, the step through the arc:
    /// its polynomial delay/slew per alive polarity, evaluated through the
    /// corner's compiled kernels.
    #[allow(clippy::too_many_arguments)]
    fn advance_timing(
        &mut self,
        gate: GateId,
        cell_id: sta_netlist::CellId,
        pin: u8,
        vector: usize,
        parity: bool,
        mask: Mask,
        active: CornerSet,
    ) {
        let fo = self.fanouts[gate.index()];
        let evals = u64::from(mask.r) + u64::from(mask.f);
        for k in active.iter() {
            let c = &mut self.corners[k];
            let kernel = c.kernel;
            let arc = kernel.arc_id(cell_id, pin, vector);
            let step = |state: &mut EdgeState, launch: Edge, alive: bool| -> f64 {
                if !alive {
                    return 0.0;
                }
                let in_edge = if parity { launch.invert() } else { launch };
                let (d, s) = kernel.eval(arc, in_edge, fo, state.slew);
                // Clamp against degenerate extrapolation: delays and
                // slews are physical quantities.
                let d = d.max(0.1);
                let s = s.max(0.5);
                state.arrival += d;
                state.slew = s;
                d
            };
            let mut timing = *c.timing();
            let delay_r = step(&mut timing.r, Edge::Rise, mask.r);
            let delay_f = step(&mut timing.f, Edge::Fall, mask.f);
            c.steps.push(Step {
                timing,
                delay_r,
                delay_f,
            });
            c.stats.compiled_evals += evals;
            self.stats.compiled_evals += evals;
        }
    }

    /// Emits a path ending at `net` if the accumulated requirements are
    /// justifiable: every corner of `active` counts it, and each admits
    /// it, timed at that corner, if its worst arrival reaches the
    /// corner's threshold. Returns the (possibly reduced) alive mask.
    fn emit(&mut self, mask: Mask, active: CornerSet, nodes: &[NetId], arcs: &[PathArc]) -> Mask {
        let witness_mark = self.eng.mark();
        let m3 = match self.justify(mask, active) {
            Some(m) if m.any() => m,
            _ => {
                self.eng.rollback(witness_mark);
                self.count(active, |s| s.conflicts += 1);
                return Mask::NONE;
            }
        };
        let polarities = usize::from(m3.r) + usize::from(m3.f);
        self.count(active, |s| {
            s.paths += 1;
            s.input_vectors += polarities;
        });
        // In N-worst mode a corner admits the path unless its worst
        // arrival falls below the corner's threshold. Ties pass (strict
        // `<` rejects): the final cutoff arrival may be shared by several
        // paths, and the deterministic truncation in `run` needs all of
        // them admitted to pick the same N regardless of discovery order
        // (and of thread count). A threshold stays −∞ until N paths have
        // been admitted.
        let admitting = if self.cfg.n_worst.is_some() {
            active.retain(|k| {
                let c = &self.corners[k];
                let rejected = c.timing().worst_alive(m3) < c.admissions.threshold();
                !rejected
            })
        } else {
            active
        };
        if admitting.is_empty() {
            self.eng.rollback(witness_mark);
            return m3;
        }
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

        let inverted = arcs
            .iter()
            .filter(|a| a.polarity == Polarity::Inverting)
            .count()
            % 2
            == 1;
        for k in admitting.iter() {
            let path = self.corners[k].path(nodes, arcs, m3, inverted, input_vector.clone());
            self.admit(k, path);
        }
        m3
    }

    /// Admits a path into corner `k`: counts it against the corner's
    /// budget, keeps it tagged with its task index, enters its arrival into
    /// the corner's N-worst admission set, and feeds the observability
    /// tap (progress counters and the path-length histogram, side-state
    /// that nothing in the search reads back).
    fn admit(&mut self, k: usize, path: TruePath) {
        self.path_len_hist.observe(path.arcs.len() as f64);
        if let Some(p) = &self.progress {
            use std::sync::atomic::Ordering::Relaxed;
            p.paths.fetch_add(1, Relaxed);
            p.frontier_depth.store(path.nodes.len() as u64, Relaxed);
        }
        let c = &mut self.corners[k];
        c.budget.admit();
        let w = path.worst_arrival();
        let source = path.source;
        c.found.push((self.task, path));
        // A path the seed holds is in the set already.
        if self.cfg.n_worst.is_some() && !c.admissions.holds(source, w) {
            if let Some(threshold) = c.admissions.insert(w) {
                self.bound_updates.inc();
                if let Some(p) = &self.progress {
                    p.set_bound(threshold);
                }
            }
        }
    }

    /// Complete backward justification of every pending obligation.
    /// On success the witness assignments are left on the trail (the
    /// caller rolls back to its own mark) and the surviving mask is
    /// returned; `None` means no witness exists for any alive polarity
    /// (or the call was dropped at the per-call cap).
    fn justify(&mut self, mask: Mask, active: CornerSet) -> Option<Mask> {
        self.justify_todo.clear();
        self.justify_todo.extend_from_slice(&self.obligations);
        self.justify_staged(mask, active)
    }

    /// Justifies the obligations currently staged in `justify_todo`
    /// (which is left in an unspecified state), charging the call to the
    /// search and to every corner of `active`. `None` covers both a
    /// refutation and an aborted call; the latter is counted in
    /// `justify_aborts`.
    fn justify_staged(&mut self, mask: Mask, active: CornerSet) -> Option<Mask> {
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
        let decisions = budget.decisions;
        let unsat = matches!(out, JustifyOutcome::Unsatisfiable);
        self.spend(active, decisions);
        self.count(active, |s| {
            s.justify_decisions += decisions;
            if unsat {
                s.justify_unsat_decisions += decisions;
            }
        });
        if let Some(p) = &self.progress {
            p.decisions
                .fetch_add(decisions, std::sync::atomic::Ordering::Relaxed);
        }
        // Latch truncation now: a long call may have spent a corner's
        // last decisions. The corner stays active until its next budget
        // check, as its own search would.
        for k in active.iter() {
            self.exhausted(k);
        }
        match out {
            JustifyOutcome::Satisfied(m) => Some(m),
            JustifyOutcome::BudgetExhausted => {
                self.count(active, |s| s.justify_aborts += 1);
                None
            }
            JustifyOutcome::Unsatisfiable => None,
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

    #[test]
    fn corner_sets_iterate_and_filter_in_index_order() {
        assert_eq!(CornerSet::first(3).iter().collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(CornerSet::first(MAX_CORNERS).iter().count(), MAX_CORNERS);
        assert_eq!(CornerSet::first(MAX_CORNERS).iter().last(), Some(63));
        let mut asked = Vec::new();
        let odd = CornerSet::first(5).retain(|k| {
            asked.push(k);
            k % 2 == 1
        });
        assert_eq!(asked, [0, 1, 2, 3, 4]);
        assert_eq!(odd.iter().collect::<Vec<_>>(), [1, 3]);
        assert!(odd.retain(|_| false).is_empty());
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

    /// The unsorted run lists the admitted paths in root-task order, so
    /// in full enumeration it is the same sequence at any thread count.
    #[test]
    fn unsorted_run_is_in_task_order_at_any_thread_count() {
        let tech = Technology::n90();
        let (lib, tlib) = setup(&tech);
        let nl = sta_circuits::catalog::mapped("c17", lib).unwrap().unwrap();
        let cfg = EnumerationConfig::new(Corner::nominal(&tech));
        let (one, ..) =
            PathEnumerator::new(&nl, lib, tlib, cfg.clone()).run_seeded(&Seed::default());
        assert!(!one.is_empty());
        for threads in [2, 4] {
            let enumr = PathEnumerator::new(&nl, lib, tlib, cfg.clone().with_threads(threads));
            assert_eq!(
                enumr.run_seeded(&Seed::default()).0,
                one,
                "{threads} threads"
            );
        }
    }

    /// N-worst mode returns the same top paths as full enumeration, an N
    /// above the path count, up to `usize::MAX`, returns them all, and
    /// N = 0 returns none.
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
        for n in [0, 3, usize::MAX] {
            let (top, _) = PathEnumerator::new(
                &nl,
                lib,
                tlib,
                EnumerationConfig::new(corner).with_n_worst(n),
            )
            .run();
            assert_eq!(top.len(), n.min(all_paths.len()));
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
}
