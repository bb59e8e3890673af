//! The true-path enumeration engine: root tasks claimed from a fixed list.
//!
//! The search space of the single-pass algorithm shards naturally into
//! **root tasks**: one per (primary input, launch-gate, sensitization
//! vector) triple, i.e. one per first arc out of a source. Each subtree is
//! independent given a private implication engine, and no task spawns
//! another, so the coordinator builds the whole task list before any
//! worker starts. Workers claim tasks in list order through one atomic
//! cursor (`fetch_add`), and every worker runs the [`Search`] machinery
//! with its own engine and its own justification memo table. `threads = 1`
//! is a pool of one: the worker function runs on the caller's thread, with
//! no spawn; a larger pool runs the same function on scoped threads.
//!
//! # Deterministic merge
//!
//! Tasks are listed in depth-first opening order (sources in
//! primary-input order, then fanout arcs, then vectors); a task's index in
//! that list is its merge key. A worker tags every path it admits with its
//! task's index and returns, with its statistics, one list per corner.
//! It claims tasks in increasing index order, so each list is in task
//! order and, within a task, in DFS order; the coordinator concatenates
//! each corner's lists and stable-sorts them by index. In full
//! enumeration the unsorted result is therefore byte-identical at any
//! thread count, and so is the `run` result.
//!
//! # Shared pruning bound (N-worst mode)
//!
//! One admission set per corner serves the whole run: a size-N min-heap
//! of the largest admitted worst arrivals behind a `Mutex`
//! ([`Admissions`]). Every admission pushes its arrival and, once the
//! heap holds N, publishes the heap's top — the N-th largest arrival
//! admitted so far — to an `AtomicU64` holding a total-order encoding of
//! the `f64` bound. Pruning, the dominance cut and admission read that
//! atomic alone, with relaxed ordering: the bound is a pure performance
//! hint. Soundness: the heap holds arrivals of real paths, so its N-th
//! largest never exceeds the N-th largest arrival `T` over all true
//! paths; with tie-inclusive admission (`w < threshold` rejects, ties
//! pass) every path with arrival ≥ `T` is admitted under any schedule.
//! `run` then sorts by the canonical total order of
//! [`TruePath::canonical_cmp`] and truncates to N — identical output at
//! any thread count, though the admitted *superset* (and the
//! search-effort counters) may differ with the schedule. Because every
//! worker prunes against the N worst paths of the whole run rather than
//! of its own admissions, a multi-worker search spends about the
//! decisions of a one-worker search.
//!
//! A caller may seed the first corner's set with the worst arrivals of
//! paths it already holds (the ECO cache's slots, see [`crate::eco`]).
//! The same argument covers them as long as they are arrivals of
//! distinct real paths of the netlist at that corner: the seeded heap's
//! N-th largest still never exceeds `T`, and every path the run's
//! sources launch at or above the threshold the run ends at is admitted.
//! A seed may hold paths of the sources the run searches, as long as it
//! holds every one of a source's paths at or above some arrival, its
//! [`Seed::held`] entry: the run keeps such a path when it finds it again
//! but does not enter it into the set a second time, so the set still
//! counts each path once. [`run`] returns the final threshold.
//!
//! # Budgets
//!
//! `max_decisions` and `max_paths` bound the whole run at every thread
//! count, per corner: every worker adds the decisions and admitted paths
//! of each corner to that corner's [`RunBudget`] tally, checks it
//! wherever the search checks its budget, and runs no further root task
//! once every corner's has tripped. A worker can overshoot by the work in
//! flight when a budget trips — one arc decision plus one justification
//! call, which stops one decision past `justify_decision_limit` — and
//! admit one path past `max_paths`. At one thread the trip point, and
//! with it every byte of a truncated result, is reproducible; above one
//! it depends on the schedule, and so does which paths a truncated run
//! emits.
//!
//! # Corners
//!
//! A search over K corners ([`PathEnumerator::with_corners`]) walks one
//! DFS and carries, per frame, the set of corners whose own search would
//! be at that frame. The logic state of a frame — engine trail,
//! obligations, the justification outcome and its witness — depends only
//! on the DFS prefix, so it is the same for every corner. A corner leaves
//! the set where its own search would stop: where its remaining bound or
//! dominance cut misses its threshold (it counts the prune or cut), and at
//! each budget check once its tally has tripped. Every arc decision and
//! justification call made while a corner is in the set is charged to
//! that corner, and an emitted path is counted by every corner in the set
//! and admitted, timed at that corner, by each whose threshold it
//! reaches. The search's own statistics count each step once.
//!
//! So at one thread each corner sees exactly the sequence of arcs, calls,
//! admissions and threshold updates its independent search would: by
//! induction over the DFS, its threshold and tally evolve only through
//! its own steps, and every choice to enter a subtree reads only its
//! threshold, its tally and the shared logic state. Its paths, its
//! statistics (but `justify_cache_hits`, which the memo table shared by
//! the corners serves) and its truncation are byte-identical to an
//! independent run, budget-truncated runs included. Above one thread an
//! untruncated corner's answer is identical by the tie-inclusive
//! admission argument above, applied per corner. The memo table is a
//! pure function of its key, so sharing it changes no decision count.
//! A search costs about its most expensive corner's: the corners' top-N
//! sets overlap, and a subtree is walked once for all corners that enter
//! it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use sta_cells::Library;
use sta_charlib::CompiledCorner;
use sta_logic::{toggle_analysis, Dual, ImplicationEngine, Mask, Toggle};
use sta_netlist::{GateId, NetId, Netlist};

use crate::arrival::{remaining_with, tightened_remaining, ArcBounds};
use crate::enumerate::{
    cell_of, CornerRuns, CornerSearch, CornerSet, EnumerationConfig, EnumerationStats,
    PathEnumerator, Search, Step,
};
use crate::justify::{JustifyCache, JustifyScratch};
use crate::path::{PathArc, TruePath};

/// Total-order encoding of an `f64` into a `u64`: `encode` is strictly
/// monotone over the reals (including infinities), so integer order on
/// encoded values — the admission heap's order — is float order, and
/// `fetch_max` on one implements an atomic floating-point maximum.
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

    /// Counts one admitted path.
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

/// An N-worst admission set shared by every worker: the N largest
/// admitted worst arrivals, and the admission threshold published from
/// them (see the module docs).
pub(crate) struct Admissions {
    n: usize,
    /// The largest admitted arrivals, at most `n` of them, encoded by
    /// [`encode_bound`] with the smallest on top.
    top: Mutex<BinaryHeap<Reverse<u64>>>,
    /// The heap's top once it holds `n` arrivals (`+∞` for `n = 0`), `−∞`
    /// before; encoded by [`encode_bound`]. Written under the lock only,
    /// so it never decreases.
    threshold: AtomicU64,
    /// The seed's [`Seed::held`] arrivals, per net.
    held: Vec<f64>,
}

/// Paths a caller already holds when it starts a search: they enter the
/// first corner's admission set before any worker runs (see the module
/// docs).
#[derive(Clone, Debug, Default)]
pub(crate) struct Seed {
    /// Their worst arrivals, timed at the first corner, one per distinct
    /// real path of the netlist.
    pub(crate) arrivals: Vec<f64>,
    /// Per net, indexed by [`NetId::index`]: an arrival at or above which
    /// every path launched from that net is among `arrivals`. A path the
    /// run finds there is kept but not entered again. Nets past the end
    /// hold nothing.
    pub(crate) held: Vec<f64>,
}

impl Admissions {
    /// A set of capacity `n` that already holds the largest `n` of the
    /// seed's arrivals.
    fn seeded(n: usize, seed: &Seed) -> Self {
        let set = Admissions {
            n,
            top: Mutex::new(BinaryHeap::new()),
            threshold: AtomicU64::new(encode_bound(f64::NEG_INFINITY)),
            held: seed.held.clone(),
        };
        for &arrival in &seed.arrivals {
            set.insert(arrival);
        }
        set
    }

    /// Whether the seed already counts the path launched from `source`
    /// with worst arrival `arrival`.
    pub(crate) fn holds(&self, source: NetId, arrival: f64) -> bool {
        self.held
            .get(source.index())
            .is_some_and(|&held| arrival >= held)
    }

    /// The admission threshold in force: a path whose worst arrival is
    /// below it cannot be among the N worst.
    pub(crate) fn threshold(&self) -> f64 {
        decode_bound(self.threshold.load(Relaxed))
    }

    /// Adds an admitted arrival. Returns the threshold it publishes once
    /// the set holds N arrivals, `None` before.
    pub(crate) fn insert(&self, arrival: f64) -> Option<f64> {
        let mut top = self.top.lock().expect("admission set poisoned");
        top.push(Reverse(encode_bound(arrival)));
        if top.len() > self.n {
            top.pop();
        }
        if top.len() < self.n {
            return None;
        }
        // N = 0 admits nothing past the first path.
        let threshold = top
            .peek()
            .map_or(f64::INFINITY, |&Reverse(nth)| decode_bound(nth));
        self.threshold.store(encode_bound(threshold), Relaxed);
        Some(threshold)
    }
}

/// One shard of the search: the first arc out of a source. Its index in
/// the task list (depth-first opening order) is its merge key.
struct RootTask {
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
    /// Remaining-delay bound to any PO over toggle-compatible arcs, per
    /// net: [`tightened_remaining`] per corner in N-worst mode, one pass
    /// with a zero arc bound in full enumeration, where every corner reads
    /// it. `−∞` marks a net with no such continuation, one the search
    /// never enters; those entries are the same in every table.
    rem: Vec<Vec<f64>>,
}

impl SrcPlan {
    /// Corner `k`'s remaining-bound table.
    fn rem(&self, k: usize) -> &[f64] {
        &self.rem[k.min(self.rem.len() - 1)]
    }
}

/// Read-only context shared by all workers.
struct WorkerCtx<'a> {
    nl: &'a Netlist,
    lib: &'a Library,
    cfg: &'a EnumerationConfig,
    /// One corner-compiled kernel table per corner, shared read-only by
    /// every worker.
    kernels: &'a [Arc<CompiledCorner>],
    plans: &'a [SrcPlan],
    fanouts: &'a [f64],
    is_output: &'a [bool],
    /// Every root task, in opening order.
    tasks: &'a [RootTask],
    /// Index of the next unclaimed task in `tasks`.
    cursor: &'a AtomicUsize,
    /// The run's N-worst admission sets, one per corner.
    admissions: &'a [Admissions],
    /// One run-wide budget tally per corner.
    budgets: &'a [RunBudget],
    /// Per-arc delay upper bounds of the dominance cut (N-worst mode), one
    /// table per corner, computed once by the coordinator and shared
    /// read-only.
    arc_bounds: Option<&'a [ArcBounds]>,
}

/// What one worker hands back: the search's own statistics, and per
/// corner its statistics and the paths it admitted, tagged with their
/// task indices.
struct WorkerOutcome {
    search: EnumerationStats,
    corners: Vec<(EnumerationStats, Vec<(usize, TruePath)>)>,
}

/// Runs the enumeration of `enumr` over `cfg.threads` workers and returns
/// every path each corner admitted, unsorted, in task order, with the
/// admission threshold the first corner's set ended at (`−∞` in full
/// enumeration). That set starts out holding `seed`, paths of the
/// netlist that the caller already has (see the module docs).
pub(crate) fn run(enumr: &PathEnumerator<'_>, seed: &Seed) -> (CornerRuns, f64) {
    let nl = enumr.nl;
    let lib = enumr.lib;
    let corners = enumr.kernels.len();
    let is_output = enumr.output_flags();
    let fanouts = enumr.fanouts();
    let arc_bounds = enumr.arc_bound_tables();
    // Full enumeration never touches its sets, so their thresholds stay
    // −∞.
    let n = enumr.cfg.n_worst.unwrap_or(usize::MAX);
    let unseeded = Seed::default();
    let admissions: Vec<Admissions> = (0..corners)
        .map(|k| {
            let first = k == 0 && enumr.cfg.n_worst.is_some();
            Admissions::seeded(n, if first { seed } else { &unseeded })
        })
        .collect();

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
        // One backward pass per corner gives both the pruning bound and
        // reachability: a `−∞` entry has no true continuation, so the
        // DFS never forks into it — this is what keeps reconvergent XOR
        // fabrics (c499/c1355) from exploding into 2^depth refuted
        // sub-paths.
        let rem = match &arc_bounds {
            Some(bounds) => bounds
                .iter()
                .map(|ab| tightened_remaining(nl, lib, ab, &deltas, &is_output))
                .collect(),
            None => vec![remaining_with(nl, lib, &deltas, &is_output, |_, _, _| 0.0)],
        };
        let reach = &rem[0];
        if reach[src.index()] == f64::NEG_INFINITY {
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
            if reach[nl.gate(pr.gate).output().index()] == f64::NEG_INFINITY {
                continue;
            }
            let cell_id = cell_of(nl, pr.gate);
            let n_vectors = lib.cell(cell_id).vectors_of(pr.pin as u8).len();
            for vector in 0..n_vectors {
                tasks.push(RootTask {
                    src: src_idx,
                    gate: pr.gate,
                    pin: pr.pin as u8,
                    vector,
                });
            }
        }
        plans.push(SrcPlan { src, deltas, rem });
    }
    if tasks.is_empty() {
        let runs = CornerRuns {
            corners: vec![(Vec::new(), EnumerationStats::default()); corners],
            search: EnumerationStats::default(),
        };
        return (runs, admissions[0].threshold());
    }

    let threads = enumr.cfg.threads.clamp(1, tasks.len());
    // The cursor publishes no data (the task list is complete before any
    // worker starts), so relaxed `fetch_add` suffices to hand out each
    // index exactly once.
    let cursor = AtomicUsize::new(0);
    let budgets: Vec<RunBudget> = (0..corners).map(|_| RunBudget::new(&enumr.cfg)).collect();
    let ctx = WorkerCtx {
        nl,
        lib,
        cfg: &enumr.cfg,
        kernels: &enumr.kernels,
        plans: &plans,
        fanouts: &fanouts,
        is_output: &is_output,
        tasks: &tasks,
        cursor: &cursor,
        admissions: &admissions,
        budgets: &budgets,
        arc_bounds: arc_bounds.as_deref(),
    };

    let results = if threads == 1 {
        // A pool of one runs on the caller's thread, so the search keeps
        // its stack.
        vec![worker_loop(&ctx)]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| s.spawn(|| worker_loop(&ctx)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    };
    let mut search = EnumerationStats::default();
    let mut merged: Vec<(EnumerationStats, Vec<(usize, TruePath)>)> =
        vec![(EnumerationStats::default(), Vec::new()); corners];
    for worker in results {
        search.merge(&worker.search);
        for ((total, all), (part, found)) in merged.iter_mut().zip(worker.corners) {
            total.merge(&part);
            all.extend(found);
        }
    }
    search.truncated = merged.iter().any(|(s, _)| s.truncated);
    let runs = CornerRuns {
        corners: merged
            .into_iter()
            .map(|(stats, mut found)| {
                // Every task index is claimed once and each worker's list
                // is in task order, so a stable sort by index restores
                // opening order and keeps DFS order within a task.
                found.sort_by_key(|&(index, _)| index);
                (found.into_iter().map(|(_, path)| path).collect(), stats)
            })
            .collect(),
        search,
    };
    (runs, admissions[0].threshold())
}

/// One worker: claims root tasks in index order until none is left or
/// every corner's budget has tripped, and returns its statistics with the
/// paths it admitted.
fn worker_loop(ctx: &WorkerCtx<'_>) -> WorkerOutcome {
    let corners = ctx
        .kernels
        .iter()
        .enumerate()
        .map(|(k, kernel)| CornerSearch {
            kernel,
            arc_bounds: ctx.arc_bounds.map(|bounds| &bounds[k]),
            rem: &[],
            admissions: &ctx.admissions[k],
            budget: &ctx.budgets[k],
            steps: Vec::new(),
            found: Vec::new(),
            stats: EnumerationStats::default(),
        })
        .collect();
    let mut search = Search {
        nl: ctx.nl,
        lib: ctx.lib,
        cfg: ctx.cfg,
        eng: ImplicationEngine::new(ctx.nl, ctx.lib),
        fanouts: ctx.fanouts.to_vec(),
        is_output: ctx.is_output.to_vec(),
        obligations: Vec::new(),
        corners,
        task: 0,
        justify_cache: JustifyCache::new(),
        side_scratch: Vec::new(),
        justify_todo: Vec::new(),
        justify_scratch: JustifyScratch::default(),
        stats: EnumerationStats::default(),
        progress: ctx.cfg.obs.progress(),
        justify_hist: ctx.cfg.obs.histogram("justify.decisions_per_call"),
        path_len_hist: ctx.cfg.obs.histogram("enumerate.path_gates"),
        bound_updates: ctx.cfg.obs.counter("enumerate.bound_updates"),
    };
    let every_corner = CornerSet::first(ctx.kernels.len());
    // The scheduling counter's handle is fetched once here and bumped
    // lock-free inside the task loop.
    let tasks_done = ctx.cfg.obs.counter("parallel.tasks");
    let mut current_src: Option<usize> = None;
    let mut mask = Mask::NONE;
    // Path stacks live outside the task loop: one allocation per worker.
    let mut nodes: Vec<NetId> = Vec::new();
    let mut arcs: Vec<PathArc> = Vec::new();
    loop {
        let index = ctx.cursor.fetch_add(1, Relaxed);
        let Some(task) = ctx.tasks.get(index) else {
            break;
        };
        // A corner whose budget has tripped runs no further task.
        let active = search.unexhausted(every_corner);
        if active.is_empty() {
            break;
        }
        tasks_done.inc();
        search.task = index;
        let plan = &ctx.plans[task.src];
        if current_src != Some(task.src) {
            // Install the per-source state: toggle deltas, the launched
            // transition (whose trail entries persist across this
            // source's tasks — each try_arc rolls back to its own mark),
            // and each corner's remaining-bound table.
            search.eng.reset();
            search.eng.set_toggles(Some(plan.deltas.clone()));
            let conflicts = search
                .eng
                .assign(plan.src, Dual::transition(false), Mask::BOTH);
            mask = Mask::BOTH.minus(conflicts);
            search.obligations.clear();
            for (k, c) in search.corners.iter_mut().enumerate() {
                c.rem = plan.rem(k);
            }
            current_src = Some(task.src);
        }
        for c in &mut search.corners {
            c.steps.clear();
            c.steps.push(Step::launch(ctx.cfg.input_slew));
        }
        // The root-node prune check of `dfs_inner`.
        let active = search.unpruned(plan.src, mask, active);
        if !active.is_empty() && mask.any() {
            nodes.clear();
            nodes.push(plan.src);
            arcs.clear();
            search.try_arc(
                task.gate,
                task.pin,
                task.vector,
                false,
                mask,
                active,
                &mut nodes,
                &mut arcs,
            );
        }
    }
    let hits = search.justify_cache.hits;
    search.stats.justify_cache_hits = hits;
    WorkerOutcome {
        search: search.stats,
        corners: search
            .corners
            .into_iter()
            .map(|c| {
                let stats = EnumerationStats {
                    justify_cache_hits: hits,
                    ..c.stats
                };
                (stats, c.found)
            })
            .collect(),
    }
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
