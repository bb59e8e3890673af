//! The true-path enumeration engine: root tasks over a work-stealing pool.
//!
//! The search space of the single-pass algorithm shards naturally into
//! **root tasks**: one per (primary input, launch-gate, sensitization
//! vector) triple, i.e. one per first arc out of a source. Each subtree is
//! independent given a private implication engine, so the tasks are
//! distributed over a crossbeam deque pool (global FIFO injector,
//! per-worker FIFO deques, stealing from siblings) and every worker runs
//! the [`Search`] machinery with its own engine and its own justification
//! memo table. `threads = 1` is a pool of one: its worker runs on the
//! caller's thread, with no spawn and no channel.
//!
//! # Deterministic merge
//!
//! Tasks are generated in depth-first opening order (sources in
//! primary-input order, then fanout arcs, then vectors) and carry a
//! sequence number. Workers buffer the paths of one task and send
//! `(seq, paths)` over a channel; the coordinator releases buffers to the
//! caller's sink strictly in sequence order. A lone worker takes its
//! tasks in sequence order, so it streams straight to the sink. In full
//! enumeration this makes the `run_with` stream — and therefore the `run`
//! result — byte-identical at any thread count.
//!
//! # Shared pruning bound (N-worst mode)
//!
//! Each worker keeps a local admission threshold (its N-th-largest
//! admitted arrival) and additionally publishes it to an `AtomicU64`
//! holding a total-order encoding of the `f64` bound (monotone
//! `fetch_max`, relaxed ordering — the bound is a pure performance hint
//! and never affects correctness). Soundness: a worker's N-th-largest
//! admitted arrival never exceeds the global N-th-largest `T` (its
//! admissions are a subset of all paths), so the effective threshold
//! `max(local, shared)` is always ≤ `T`; with tie-inclusive admission
//! (`w < threshold` rejects, ties pass) every path with arrival ≥ `T`
//! reaches the sink under any schedule. `run` then sorts by the canonical
//! total order of [`TruePath::canonical_cmp`] and truncates to N —
//! identical output at any thread count, though the *superset* streamed
//! by `run_with` (and the search-effort counters) may differ with the
//! schedule.
//!
//! # Budgets
//!
//! `max_decisions` and `max_paths` bound the whole run at every thread
//! count: every worker adds its decisions and admitted paths to one
//! [`RunBudget`] tally, checks it wherever the search checks its budget,
//! and runs no further root task once it has tripped. A worker can
//! overshoot by the work in flight when the budget trips — one arc
//! decision plus one justification call, which stops one decision past
//! `justify_decision_limit` — and admit one path past `max_paths`. At one
//! thread the trip point, and with it every byte of a truncated result,
//! is reproducible; above one it depends on the schedule, and so does
//! which paths a truncated run emits.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{mpsc, Arc};

use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use sta_cells::Library;
use sta_charlib::CompiledCorner;
use sta_logic::{toggle_analysis, Dual, ImplicationEngine, Mask, Toggle};
use sta_netlist::{GateId, NetId, Netlist};

use crate::arrival::ArcBounds;
use crate::enumerate::{
    cell_of, sensitizable_reach, EnumerationConfig, EnumerationStats, PathEnumerator, PolTimings,
    Search,
};
use crate::justify::{JustifyCache, JustifyScratch};
use crate::learn::{ConeScratch, NogoodStore, NogoodView};
use crate::path::{PathArc, TruePath};

/// Total-order encoding of an `f64` into a `u64`: `encode` is strictly
/// monotone over the reals (including infinities), so `fetch_max` on the
/// encoded value implements an atomic floating-point maximum.
pub(crate) fn encode_bound(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Inverse of [`encode_bound`].
pub(crate) fn decode_bound(e: u64) -> f64 {
    f64::from_bits(if e >> 63 == 1 { e & !(1 << 63) } else { !e })
}

/// Run-wide budget tally shared by every worker: the decisions spent and
/// the paths admitted so far, checked against the configuration's
/// `max_decisions` / `max_paths` (see the module docs). The counters
/// publish no other data, so relaxed ordering suffices.
pub(crate) struct RunBudget {
    max_decisions: u64,
    max_paths: Option<usize>,
    decisions: AtomicU64,
    paths: AtomicUsize,
}

impl RunBudget {
    fn new(cfg: &EnumerationConfig) -> Self {
        RunBudget {
            max_decisions: cfg.max_decisions,
            max_paths: cfg.max_paths,
            decisions: AtomicU64::new(0),
            paths: AtomicUsize::new(0),
        }
    }

    /// Adds `decisions` to the run's tally.
    pub(crate) fn spend(&self, decisions: u64) {
        self.decisions.fetch_add(decisions, Relaxed);
    }

    /// Counts one path handed to the sink.
    pub(crate) fn admit(&self) {
        self.paths.fetch_add(1, Relaxed);
    }

    /// Whether either limit has been reached (`max_decisions == 0` is
    /// unlimited).
    pub(crate) fn exhausted(&self) -> bool {
        (self.max_decisions != 0 && self.decisions.load(Relaxed) >= self.max_decisions)
            || self
                .max_paths
                .is_some_and(|mp| self.paths.load(Relaxed) >= mp)
    }
}

/// One shard of the search: the first arc out of a source, identified by
/// its position in the depth-first opening order.
struct RootTask {
    /// Position in opening order — the merge key.
    seq: usize,
    /// Index into the plan list.
    src: usize,
    gate: GateId,
    pin: u8,
    vector: usize,
}

/// Per-source state every task of that source needs, computed once by the
/// coordinator.
struct SrcPlan {
    src: NetId,
    deltas: Vec<Toggle>,
    reach: Vec<bool>,
    /// Toggle-compatible arrival upper bound to any PO, per net
    /// (see [`crate::arrival::tightened_remaining`]); present only when
    /// learning-mode dominance pruning is active.
    tight_rem: Option<Vec<f64>>,
}

/// Read-only context shared by all workers.
struct WorkerCtx<'a> {
    nl: &'a Netlist,
    lib: &'a Library,
    cfg: &'a EnumerationConfig,
    /// Corner-compiled kernel table, folded once by the enumerator and
    /// shared read-only by every worker.
    kernel: &'a CompiledCorner,
    plans: &'a [SrcPlan],
    remaining: &'a Option<Vec<f64>>,
    fanouts: &'a [f64],
    is_output: &'a [bool],
    injector: &'a Injector<RootTask>,
    shared_bound: &'a AtomicU64,
    /// Per-source published bounds (indexed like `plans`), replacing the
    /// single `shared_bound` when
    /// [`EnumerationConfig::per_source_n_worst`] isolates the admission
    /// threshold per source. `None` otherwise.
    src_bounds: Option<&'a [AtomicU64]>,
    budget: &'a RunBudget,
    /// Shared learned-nogood store, cloned into every worker's `Search`
    /// so clauses learned on one worker prune the others. `None` when
    /// `cfg.learning` is off.
    nogoods: Option<Arc<NogoodStore>>,
    /// Per-arc delay upper bounds for dominance pruning, computed once
    /// by the coordinator and shared read-only.
    arc_bounds: Option<Arc<ArcBounds>>,
}

/// Runs the enumeration of `enumr` over `cfg.threads` workers, streaming
/// emitted paths to `sink` in task order.
pub(crate) fn run(enumr: &PathEnumerator<'_>, sink: &mut dyn FnMut(TruePath)) -> EnumerationStats {
    let nl = enumr.nl;
    let lib = enumr.lib;
    let is_output = enumr.output_flags();
    let remaining = enumr.prune_bounds();
    let fanouts = enumr.fanouts();
    let arc_bounds = enumr.learn_arc_bounds();
    let nogoods = enumr.cfg.learning.then(|| {
        enumr
            .nogood_store
            .clone()
            .unwrap_or_else(|| Arc::new(NogoodStore::new()))
    });

    // Plan phase: the per-source setup, and the root arcs in opening
    // order.
    let mut plans: Vec<SrcPlan> = Vec::new();
    let mut tasks: Vec<RootTask> = Vec::new();
    let mut eng = ImplicationEngine::new(nl, lib);
    if let Some(f) = &enumr.cfg.source_filter {
        assert_eq!(
            f.len(),
            nl.inputs().len(),
            "source filter length must match the primary-input count"
        );
    }
    for (pi_pos, &src) in nl.inputs().iter().enumerate() {
        if let Some(f) = &enumr.cfg.source_filter {
            if !f[pi_pos] {
                continue;
            }
        }
        // Per-source static toggle analysis: O(1) refutation of
        // stable-value requirements on nets that provably toggle
        // (crucial on reconvergent XOR logic).
        let deltas = toggle_analysis(nl, lib, src);
        let reach = sensitizable_reach(nl, lib, &deltas, &is_output);
        if !reach[src.index()] {
            continue;
        }
        eng.set_toggles(Some(deltas.clone()));
        let mark = eng.mark();
        let conflicts = eng.assign(src, Dual::transition(false), Mask::BOTH);
        let mask = Mask::BOTH.minus(conflicts);
        eng.rollback(mark);
        eng.set_toggles(None);
        if !mask.any() {
            continue;
        }
        let src_idx = plans.len();
        for pr in nl.net(src).fanout() {
            let out = nl.gate(pr.gate).output();
            if !reach[out.index()] && !is_output[out.index()] {
                continue;
            }
            let cell_id = cell_of(nl, pr.gate);
            let n_vectors = lib.cell(cell_id).vectors_of(pr.pin as u8).len();
            for vector in 0..n_vectors {
                tasks.push(RootTask {
                    seq: tasks.len(),
                    src: src_idx,
                    gate: pr.gate,
                    pin: pr.pin as u8,
                    vector,
                });
            }
        }
        let tight_rem = arc_bounds
            .as_ref()
            .map(|ab| crate::arrival::tightened_remaining(nl, lib, ab, &deltas, &is_output));
        plans.push(SrcPlan {
            src,
            deltas,
            reach,
            tight_rem,
        });
    }
    let n_tasks = tasks.len();
    if n_tasks == 0 {
        return EnumerationStats::default();
    }

    let threads = enumr.cfg.threads.clamp(1, n_tasks);
    let injector = Injector::new();
    for t in tasks {
        injector.push(t);
    }
    let shared_bound = AtomicU64::new(encode_bound(f64::NEG_INFINITY));
    // Per-source bounds for threshold isolation (see the config docs):
    // one atomic per planned source, so workers on the same source still
    // share pruning progress while sources stay independent.
    let src_bounds: Option<Vec<AtomicU64>> = enumr.cfg.per_source_n_worst.then(|| {
        (0..plans.len())
            .map(|_| AtomicU64::new(encode_bound(f64::NEG_INFINITY)))
            .collect()
    });
    let budget = RunBudget::new(&enumr.cfg);
    let ctx = WorkerCtx {
        nl,
        lib,
        cfg: &enumr.cfg,
        kernel: &enumr.kernel,
        plans: &plans,
        remaining: &remaining,
        fanouts: &fanouts,
        is_output: &is_output,
        injector: &injector,
        shared_bound: &shared_bound,
        src_bounds: src_bounds.as_deref(),
        budget: &budget,
        nogoods,
        arc_bounds,
    };

    if threads == 1 {
        // A pool of one: the worker runs here and takes the tasks in
        // sequence order, so its paths go straight to the sink.
        return worker_loop(&ctx, Worker::new_fifo(), &[], sink, |_| true);
    }
    let locals: Vec<Worker<RootTask>> = (0..threads).map(|_| Worker::new_fifo()).collect();
    let stealers: Vec<Stealer<RootTask>> = locals.iter().map(Worker::stealer).collect();
    let (tx, rx) = mpsc::channel::<(usize, Vec<TruePath>)>();
    let result = crossbeam::scope(|s| {
        let mut handles = Vec::with_capacity(threads);
        for local in locals {
            let tx = tx.clone();
            let ctx = &ctx;
            let stealers = &stealers;
            handles.push(s.spawn(move |_| {
                // The task buffer the search writes into; shipped to the
                // coordinator with the task's sequence number.
                let buf = RefCell::new(Vec::new());
                worker_loop(
                    ctx,
                    local,
                    stealers,
                    &mut |p| buf.borrow_mut().push(p),
                    |seq| tx.send((seq, buf.take())).is_ok(),
                )
            }));
        }
        drop(tx);

        // Reorder window: release task buffers to the sink strictly in
        // sequence order. Tasks the budget cut never arrive; whatever
        // waits behind such a gap is released in order once every worker
        // has finished (or died — the joins below re-raise its panic).
        let mut pending: BTreeMap<usize, Vec<TruePath>> = BTreeMap::new();
        let mut next = 0usize;
        for (seq, paths) in rx {
            pending.insert(seq, paths);
            while let Some(batch) = pending.remove(&next) {
                batch.into_iter().for_each(&mut *sink);
                next += 1;
            }
        }
        for batch in pending.into_values() {
            batch.into_iter().for_each(&mut *sink);
        }

        let mut total = EnumerationStats::default();
        for h in handles {
            match h.join() {
                Ok(ws) => total.merge(&ws),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        total
    });
    match result {
        Ok(stats) => stats,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Claims the next task: own deque first, then a batch from the global
/// injector, then stealing from a sibling. `steals` counts only the
/// sibling-deque case — the work-stealing events proper.
fn next_task(
    local: &Worker<RootTask>,
    injector: &Injector<RootTask>,
    stealers: &[Stealer<RootTask>],
    steals: &sta_obs::Counter,
) -> Option<RootTask> {
    if let Some(t) = local.pop() {
        return Some(t);
    }
    loop {
        match injector.steal_batch_and_pop(local) {
            Steal::Success(t) => return Some(t),
            Steal::Retry => continue,
            Steal::Empty => break,
        }
    }
    for s in stealers {
        loop {
            match s.steal() {
                Steal::Success(t) => {
                    steals.inc();
                    return Some(t);
                }
                Steal::Retry => continue,
                Steal::Empty => break,
            }
        }
    }
    None
}

/// One worker: claims root tasks until none is left or the run budget has
/// tripped, handing emitted paths to `sink` and calling `task_done` with
/// each finished task's sequence number (`false` stops the worker).
fn worker_loop(
    ctx: &WorkerCtx<'_>,
    local: Worker<RootTask>,
    stealers: &[Stealer<RootTask>],
    sink: &mut dyn FnMut(TruePath),
    mut task_done: impl FnMut(usize) -> bool,
) -> EnumerationStats {
    let mut search = Search {
        nl: ctx.nl,
        lib: ctx.lib,
        cfg: ctx.cfg,
        kernel: ctx.kernel,
        eng: ImplicationEngine::new(ctx.nl, ctx.lib),
        remaining: ctx.remaining.clone(),
        fanouts: ctx.fanouts.to_vec(),
        is_output: ctx.is_output.to_vec(),
        reach: Vec::new(),
        obligations: Vec::new(),
        delays_r: Vec::new(),
        delays_f: Vec::new(),
        sink,
        budget: ctx.budget,
        worst_arrivals: Vec::new(),
        threshold: f64::NEG_INFINITY,
        shared_bound: ctx.shared_bound,
        justify_cache: JustifyCache::new(),
        side_scratch: Vec::new(),
        justify_todo: Vec::new(),
        justify_scratch: JustifyScratch::default(),
        learn_eng: ctx
            .cfg
            .learning
            .then(|| ImplicationEngine::new(ctx.nl, ctx.lib)),
        nogoods: ctx.nogoods.clone(),
        nogood_view: NogoodView::new(),
        cone_scratch: ConeScratch::default(),
        learn_todo: Vec::new(),
        learn_scratch: JustifyScratch::default(),
        arc_bounds: ctx.arc_bounds.clone(),
        tight_rem: None,
        stats: EnumerationStats::default(),
        progress: ctx.cfg.obs.progress(),
        justify_hist: ctx.cfg.obs.histogram("justify.decisions_per_call"),
        path_len_hist: ctx.cfg.obs.histogram("enumerate.path_gates"),
        bound_updates: ctx.cfg.obs.counter("enumerate.bound_updates"),
    };
    // Per-worker scheduling counters; the metric handles are fetched once
    // here and bumped lock-free inside the task loop.
    let steals = ctx.cfg.obs.counter("parallel.steals");
    let tasks_done = ctx.cfg.obs.counter("parallel.tasks");
    let mut current_src: Option<usize> = None;
    let mut mask = Mask::NONE;
    // Path stacks live outside the task loop: one allocation per worker.
    let mut nodes: Vec<NetId> = Vec::new();
    let mut arcs: Vec<PathArc> = Vec::new();
    while let Some(task) = next_task(&local, ctx.injector, stealers, &steals) {
        if search.budget_exhausted() {
            break;
        }
        tasks_done.inc();
        let plan = &ctx.plans[task.src];
        if current_src != Some(task.src) {
            // Install the per-source state: toggle deltas, the launched
            // transition (whose trail entries persist across this
            // source's tasks — each try_arc rolls back to its own mark),
            // and the reachability map.
            search.eng.reset();
            search.eng.set_toggles(Some(plan.deltas.clone()));
            let conflicts = search
                .eng
                .assign(plan.src, Dual::transition(false), Mask::BOTH);
            mask = Mask::BOTH.minus(conflicts);
            search.reach.clone_from(&plan.reach);
            search.tight_rem.clone_from(&plan.tight_rem);
            search.obligations.clear();
            search.delays_r.clear();
            search.delays_f.clear();
            if let Some(bounds) = ctx.src_bounds {
                // Threshold isolation: forget the previous source's
                // admissions and publish/read bounds through this
                // source's own atomic.
                search.threshold = f64::NEG_INFINITY;
                search.worst_arrivals.clear();
                search.shared_bound = &bounds[task.src];
            }
            current_src = Some(task.src);
        }
        let timing = PolTimings::launch(ctx.cfg.input_slew);
        // The root-node prune check of `dfs_inner` (preferring the
        // per-source tightened bound).
        let prune = match search.tight_rem.as_ref().or(search.remaining.as_ref()) {
            Some(rem) => {
                let threshold = search.effective_threshold();
                ctx.cfg.n_worst.is_some()
                    && threshold > f64::NEG_INFINITY
                    && timing.worst_alive(mask) + rem[plan.src.index()] < threshold
            }
            None => false,
        };
        if prune {
            search.stats.pruned += 1;
        } else if mask.any() {
            nodes.clear();
            nodes.push(plan.src);
            arcs.clear();
            search.try_arc(
                task.gate,
                task.pin,
                task.vector,
                false,
                mask,
                timing,
                &mut nodes,
                &mut arcs,
            );
        }
        if !task_done(task.seq) {
            break;
        }
    }
    search.stats.justify_cache_hits = search.justify_cache.hits;
    search.stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_encoding_round_trips_and_orders() {
        let samples = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -0.0,
            0.0,
            1e-12,
            3.25,
            1e300,
            f64::INFINITY,
        ];
        for &x in &samples {
            assert_eq!(decode_bound(encode_bound(x)).to_bits(), x.to_bits(), "{x}");
        }
        for w in samples.windows(2) {
            assert!(
                encode_bound(w[0]) <= encode_bound(w[1]),
                "{} vs {}",
                w[0],
                w[1]
            );
        }
        // Strictly monotone away from the −0.0/0.0 pair.
        assert!(encode_bound(-2.5) < encode_bound(3.25));
    }

    #[test]
    fn fetch_max_implements_float_max() {
        let bound = AtomicU64::new(encode_bound(f64::NEG_INFINITY));
        for x in [-3.0, 7.5, 2.0, 7.0] {
            bound.fetch_max(encode_bound(x), std::sync::atomic::Ordering::Relaxed);
        }
        let got = decode_bound(bound.load(std::sync::atomic::Ordering::Relaxed));
        assert_eq!(got, 7.5);
    }
}
