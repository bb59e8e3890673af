//! Conflict-driven nogood learning for the sensitization search.
//!
//! The enumeration DFS refutes the same side-input assignments over and
//! over: every partial path that reaches a gate through the same (pin,
//! vector) arc re-runs the same backward justification of the same side
//! requirements, and in the parallel engine every *root task* repeats the
//! refutations its siblings already paid for. This module caches those
//! infeasibility proofs as **nogoods** — small sets of required net
//! values that provably admit no primary-input witness under the current
//! launch source — so a dead branch is refuted once per run instead of
//! once per subtree per root task.
//!
//! # Soundness (why a nogood hit can never drop a true path)
//!
//! A stored nogood is a set of per-polarity 9-valued literals
//! `(net, value)` together with the launch source it was learned under.
//! Its meaning: *on a fresh engine with that source's toggle deltas
//! installed, requiring exactly these values is unjustifiable* — no
//! primary-input assignment forward-evaluates to values refining all of
//! them. That claim is **verified at learn time**: the candidate cut is
//! replayed on a scratch [`ImplicationEngine`] and re-justified from
//! scratch; only a definitive [`crate::JustifyOutcome::Unsatisfiable`] (or an
//! immediate assignment conflict) is stored. A budget abort during the
//! replay stores nothing — an abort proves nothing.
//!
//! Three disciplines keep a stored refutation sound, all learned from
//! c1908 worst-path regressions:
//!
//! * **The replay models the launch.** It assigns the source's
//!   transition before the literals, exactly as the DFS root does. The
//!   toggle deltas assume the source toggles, so on a fresh engine
//!   without the launch the source could be assigned neither a stable
//!   value (its own delta conflicts) nor a transition (justification
//!   candidates are stable-only) — any literal whose only support flows
//!   through the source would then be "refuted" vacuously, and the
//!   clause could kill feasible branches.
//! * **Literals are restricted to the fully-stable values `S0`/`S1`.**
//!   The justifier explores stable candidate assignments, so its
//!   `Unsatisfiable` answer is definitive exactly on stable
//!   requirements; for a transition or half-known requirement (`R`,
//!   `X0`, …) it can report a false refutation even with the launch on
//!   the trail. Extraction drops non-stable components instead
//!   (generalizing the cut, which the replay must then still prove).
//! * **The transition support of the cut must be closed**
//!   ([`support_is_closed`]). The justifier assigns only stable values
//!   to free nets, but forward propagation can derive stable values
//!   *from transitions* — two correlated transitions cancel through an
//!   XOR — so a literal can be satisfiable only by routing the launch
//!   through a cone net the replay left unknown. `Unsatisfiable` is
//!   definitive only when every net in the literals' fanin cone either
//!   already carries a fully-defined value in the replay state or
//!   provably cannot toggle (`Toggle::Zero`); otherwise the candidate
//!   clause is discarded. In the search state that fired the original
//!   refutation the partial path pins those cone nets, which is exactly
//!   why the refutation does not generalize away from it.
//!
//! At a consult site the engine's current state `cur` *refines* every
//! literal of a matching nogood (checked with the same `refines` order
//! the justification search uses). Suppose the current obligation set had
//! a witness: its forward simulation values refine `cur` on every
//! constrained net, hence refine the stored literals, and the same
//! primary-input assignment — replayed against the stored literals alone,
//! under the same toggle deltas — would witness the stored problem. That
//! contradicts the verified refutation, so no witness exists and the
//! justification call being skipped could only have returned
//! `Unsatisfiable` or `BudgetExhausted`; the caller treats both exactly
//! like a nogood hit (the branch is dropped). The emitted path set is
//! therefore unchanged — only the work spent refuting it.
//!
//! Two rules keep the claim byte-exact:
//!
//! * **Full-kill only.** A hit is acted on only when *every* alive
//!   polarity is refuted by some stored nogood. Narrowing the alive mask
//!   on a partial hit would be unsound for byte identity: the
//!   subset-minimal candidate enumeration is mask-dependent, so a
//!   narrowed mask can change which witness is found first.
//! * **Per-polarity literals, never cross-applied.** The rising and
//!   falling analyses are independent; a nogood learned from the rising
//!   components is only ever matched against rising components.
//!
//! Nogoods are keyed by `(source, gate, pin, vector)` — the toggle
//! deltas are per-source, so proofs never transfer across sources, and
//! the arc key keeps the candidate lists short and aligned with the one
//! call site that consults them. Within a source the same arc is tried
//! from many partial paths and, across workers, many root tasks; that
//! is the reuse being harvested.
//!
//! # Extraction: most general candidate first
//!
//! Learning tries two cuts per refuted polarity, in generality order:
//!
//! 1. **Side-values-only.** The literals are exactly the arc's own side
//!    requirements (the stable values the sensitization vector demands on
//!    the gate's other inputs), with no partial-path context. If *that*
//!    verifies unsatisfiable, the arc is dead for this source from
//!    anywhere: the engine assigns precisely these values on every
//!    activation of the arc, so the `refines` match is immediate and
//!    every future try of the key is a hit. One verification replay buys
//!    a permanent refutation.
//! 2. **Fanin-cone cut.** Only when the side values alone are satisfiable
//!    (the refutation leaned on upstream partial-path state) does
//!    extraction widen to the bounded fanin cone of the side nets,
//!    producing a more specific clause that still generalizes across
//!    sibling branches sharing that upstream state.
//!
//! # Sharing across the work-stealing pool
//!
//! [`NogoodStore`] is a sharded `RwLock` map with copy-on-write entry
//! lists (`Arc<Vec<Nogood>>`) and a monotonically increasing epoch
//! published through an `AtomicU64`, mirroring the shared pruning bound
//! in `parallel`. Workers consult through a per-worker [`NogoodView`]
//! cache that revalidates only when the epoch moves, so the hot path is
//! one relaxed atomic load plus a local hash lookup. Because a hit only
//! ever drops a branch that emits nothing, it is harmless that workers
//! observe insertions at different times — sharing affects *effort*,
//! never *results*, which is why the store needs no cross-thread
//! ordering beyond the locks themselves.
//!
//! The only engine-visible coupling is the run-wide decision budget
//! (`EnumerationConfig::max_decisions`): skipped justification calls do
//! not spend decisions, so a run that *truncates on that budget* can
//! truncate at a different point with learning on. The catalog budgets
//! are far above what any pinned circuit spends; byte identity is
//! guaranteed whenever the budget does not bite.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use sta_logic::{Dual, ImplicationEngine, Mask, Toggle, V9};
use sta_netlist::{GateId, NetId, Netlist};

use crate::justify::{proves_unsat, refines, JustifyBudget, JustifyScratch};

/// Shard count of the store; a small power of two keeps the modulo a
/// mask while spreading unrelated keys across locks.
const SHARDS: usize = 16;

/// Per-key cap on stored nogoods. Consulting scans the whole list, so the
/// cap bounds the hot-path cost; later proofs for a saturated key are
/// simply not stored (dropping a learnable nogood is always sound).
pub const MAX_PER_KEY: usize = 12;

/// Literal cap per nogood. A cut wider than this is too specific to ever
/// hit again and too slow to check; learning skips it.
pub const MAX_LITS: usize = 48;

/// Cap on nets visited while collecting the fanin cone of a failed side
/// set. Cuts that spill past it are abandoned.
pub const CONE_CAP: usize = 160;

/// Minimum decisions a refutation must have cost before it is worth
/// minimizing, verifying and storing. Refutations below the bar spent
/// all their effort in forward propagation, and most of those are still
/// worth caching: a hit skips the whole justification set-up, not just
/// the counted decisions.
pub const MIN_LEARN_DECISIONS: u64 = 1;

/// Decision budget of the learn-time verification replay. If the relaxed
/// (cone-only) problem cannot be refuted within this budget the candidate
/// nogood is discarded — soundness by construction.
pub const VERIFY_DECISION_BUDGET: u64 = 4096;

/// Canonical key of a learned clause: the proof is specific to the launch
/// source (toggle deltas) and indexed by the arc whose side assignment
/// failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NogoodKey {
    /// Launch source the toggle analysis — and therefore the proof —
    /// belongs to.
    pub src: NetId,
    /// Gate whose side inputs were being justified.
    pub gate: GateId,
    /// Entry pin of the arc.
    pub pin: u8,
    /// Sensitization-vector index of the arc.
    pub vector: u32,
}

/// One verified infeasible sub-assignment (see the module doc).
#[derive(Clone, Debug)]
pub struct Nogood {
    /// `true` = literals are rising-analysis components, `false` =
    /// falling. Never cross-applied.
    pub pol_r: bool,
    /// Required 9-valued values that jointly admit no witness.
    pub lits: Vec<(NetId, V9)>,
    /// Decisions the original refutation cost — the estimate credited to
    /// `learn.decisions_saved` when this nogood fires.
    pub cost: u64,
}

/// Sharded, epoch-published store of learned nogoods, shared by every
/// worker of a run.
#[derive(Debug)]
pub struct NogoodStore {
    shards: Vec<RwLock<HashMap<NogoodKey, Arc<Vec<Nogood>>>>>,
    /// Bumped on every insertion; per-worker views revalidate their
    /// cached entry lists when it moves. Pure cache invalidation — a
    /// stale view only misses hits.
    epoch: AtomicU64,
}

impl Default for NogoodStore {
    fn default() -> Self {
        Self::new()
    }
}

impl NogoodStore {
    /// An empty store.
    pub fn new() -> Self {
        NogoodStore {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            epoch: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &NogoodKey) -> &RwLock<HashMap<NogoodKey, Arc<Vec<Nogood>>>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) & (SHARDS - 1)]
    }

    /// The current publication epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// The stored list for `key`, if any.
    pub fn get(&self, key: &NogoodKey) -> Option<Arc<Vec<Nogood>>> {
        self.shard(key)
            .read()
            .expect("nogood shard")
            .get(key)
            .cloned()
    }

    /// Stores a verified nogood under `key` (copy-on-write so readers
    /// holding the old list are undisturbed). Returns `false` when the
    /// per-key cap is already reached and the clause was dropped.
    pub fn insert(&self, key: NogoodKey, nogood: Nogood) -> bool {
        {
            let mut shard = self.shard(&key).write().expect("nogood shard");
            let entry = shard.entry(key).or_insert_with(|| Arc::new(Vec::new()));
            if entry.len() >= MAX_PER_KEY {
                return false;
            }
            let mut list = Vec::with_capacity(entry.len() + 1);
            list.extend(entry.iter().cloned());
            list.push(nogood);
            *entry = Arc::new(list);
        }
        self.epoch.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Total stored nogoods across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .expect("nogood shard")
                    .values()
                    .map(|l| l.len())
                    .sum::<usize>()
            })
            .sum()
    }

    /// `true` when nothing has been learned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time copy of the whole table, for audits (the lint
    /// LEARN rules replay every entry).
    pub fn snapshot(&self) -> Vec<(NogoodKey, Arc<Vec<Nogood>>)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.read().expect("nogood shard");
            out.extend(shard.iter().map(|(k, v)| (*k, v.clone())));
        }
        out.sort_by_key(|(k, _)| (k.src, k.gate, k.pin, k.vector));
        out
    }
}

/// A cached shard read: the epoch it was taken at and the key's list,
/// if the store had one.
type CachedList = (u64, Option<Arc<Vec<Nogood>>>);

/// Per-worker read-through cache over a [`NogoodStore`]. Entries carry
/// the epoch they were read at and are refreshed only when the store's
/// epoch has moved since.
#[derive(Debug, Default)]
pub struct NogoodView {
    cache: HashMap<NogoodKey, CachedList>,
}

impl NogoodView {
    /// An empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current list for `key`, served locally while the store's
    /// epoch is unchanged.
    pub fn get(&mut self, store: &NogoodStore, key: NogoodKey) -> Option<Arc<Vec<Nogood>>> {
        let epoch = store.epoch();
        if let Some((seen, list)) = self.cache.get(&key) {
            if *seen == epoch {
                return list.clone();
            }
        }
        let list = store.get(&key);
        self.cache.insert(key, (epoch, list.clone()));
        list
    }
}

/// Returns `Some(saved)` when **every** alive polarity of the current
/// engine state is refuted by some stored nogood — the full-kill rule —
/// where `saved` is the largest original refutation cost among the
/// matching clauses (the effort estimate for `learn.decisions_saved`).
/// Returns `None` if any alive polarity survives.
pub(crate) fn full_kill(
    nogoods: &[Nogood],
    eng: &ImplicationEngine<'_>,
    alive: Mask,
) -> Option<u64> {
    let mut saved = 0u64;
    for pol_r in [true, false] {
        if !(if pol_r { alive.r } else { alive.f }) {
            continue;
        }
        let mut matched = None;
        'clause: for ng in nogoods.iter().filter(|n| n.pol_r == pol_r) {
            for &(net, v) in &ng.lits {
                let cur = eng.value(net);
                let cur = if pol_r { cur.r } else { cur.f };
                if !refines(v, cur) {
                    continue 'clause;
                }
            }
            matched = Some(ng.cost);
            break;
        }
        match matched {
            Some(cost) => saved = saved.max(cost),
            None => return None,
        }
    }
    Some(saved)
}

/// Reusable buffers of the cone-cut extraction (one set per worker).
#[derive(Debug, Default)]
pub(crate) struct ConeScratch {
    queue: Vec<NetId>,
    seen: Vec<bool>,
}

/// Extracts the candidate cut for one polarity: the non-unknown
/// `pol_r`-components of every net in the union of fanin cones of the
/// failed side nets. Returns `None` when the cone or literal caps are
/// exceeded (the cut would be too specific to pay off) or when the cut
/// is empty.
pub(crate) fn extract_cut(
    eng: &ImplicationEngine<'_>,
    nl: &Netlist,
    side: &[NetId],
    pol_r: bool,
    scratch: &mut ConeScratch,
) -> Option<Vec<(NetId, V9)>> {
    scratch.queue.clear();
    if scratch.seen.len() != nl.num_nets() {
        scratch.seen = vec![false; nl.num_nets()];
    } else {
        scratch.seen.fill(false);
    }
    for &net in side {
        if !scratch.seen[net.index()] {
            scratch.seen[net.index()] = true;
            scratch.queue.push(net);
        }
    }
    let mut lits = Vec::new();
    let mut head = 0;
    while head < scratch.queue.len() {
        if scratch.queue.len() > CONE_CAP {
            return None;
        }
        let net = scratch.queue[head];
        head += 1;
        let v = eng.value(net);
        let v = if pol_r { v.r } else { v.f };
        // Only fully-stable components may become literals: the
        // verification replay justifies over stable candidate
        // assignments (plus the launch), so its `Unsatisfiable` is
        // definitive only for stable requirements — a transition or
        // half-known component can make it report a false refutation
        // (the c1908 worst-path regression). Dropping the component
        // merely generalizes the candidate cut, and the replay still has
        // to prove the generalized clause before it is stored.
        if v == V9::S0 || v == V9::S1 {
            if lits.len() >= MAX_LITS {
                return None;
            }
            lits.push((net, v));
        }
        if let Some(driver) = nl.net(net).driver() {
            for &input in nl.gate(driver).inputs() {
                if !scratch.seen[input.index()] {
                    scratch.seen[input.index()] = true;
                    scratch.queue.push(input);
                }
            }
        }
    }
    if lits.is_empty() {
        None
    } else {
        Some(lits)
    }
}

/// The third learning discipline (see the module docs): a replayed
/// `Unsatisfiable` is definitive only when the refutation's search space
/// was closed under every route the launch could take. The justifier
/// assigns only *stable* values to free nets, while forward propagation
/// can derive stable values from transitions (two correlated transitions
/// cancel through an XOR), so a requirement can be satisfiable only via a
/// transition on a cone net the replay never pinned — a witness the
/// backward search cannot construct. This walks the literals' fanin cone
/// in the replay state and accepts it only if every net either carries a
/// fully-defined `pol_r`-component (the launch's forward implications
/// pinned it) or provably cannot toggle (`Toggle::Zero`; with no deltas
/// installed every net is treated as toggle-capable). Cones larger than
/// the extraction cap are rejected outright. Conservative by design: a
/// rejection merely discards a candidate clause.
pub fn support_is_closed(
    eng: &ImplicationEngine<'_>,
    nl: &Netlist,
    toggles: Option<&[Toggle]>,
    pol_r: bool,
    lits: &[(NetId, V9)],
) -> bool {
    let mut seen = vec![false; nl.num_nets()];
    let mut queue: Vec<NetId> = Vec::with_capacity(lits.len());
    for &(n, _) in lits {
        if !seen[n.index()] {
            seen[n.index()] = true;
            queue.push(n);
        }
    }
    let mut head = 0;
    while head < queue.len() {
        if queue.len() > CONE_CAP {
            return false;
        }
        let net = queue[head];
        head += 1;
        let v = eng.value(net);
        let v = if pol_r { v.r } else { v.f };
        if !v.is_fully_defined() && toggles.is_none_or(|t| t[net.index()] != Toggle::Zero) {
            return false;
        }
        if let Some(driver) = nl.net(net).driver() {
            for &input in nl.gate(driver).inputs() {
                if !seen[input.index()] {
                    seen[input.index()] = true;
                    queue.push(input);
                }
            }
        }
    }
    true
}

/// Learn-time verification replay: on a scratch engine carrying the same
/// toggle deltas, asserts the launch transition on `src` and then
/// requires exactly `lits` in the `pol_r` analysis, re-justifying from
/// scratch. `true` only on a *definitive* refutation — an immediate
/// assignment conflict or a complete `Unsatisfiable` within
/// [`VERIFY_DECISION_BUDGET`] whose transition support is closed
/// ([`support_is_closed`]); a budget abort or an open support cone
/// returns `false` and the candidate is discarded.
#[allow(clippy::too_many_arguments)]
pub(crate) fn verify_cut(
    eng: &mut ImplicationEngine<'_>,
    nl: &Netlist,
    toggles: Option<&[Toggle]>,
    src: NetId,
    pol_r: bool,
    lits: &[(NetId, V9)],
    todo: &mut Vec<NetId>,
    scratch: &mut JustifyScratch,
) -> bool {
    eng.reset();
    eng.set_toggles(toggles.map(|t| t.to_vec()));
    let mask = Mask {
        r: pol_r,
        f: !pol_r,
    };
    let mut alive = mask;
    // Model the launch: every hit context has the source's transition on
    // the trail (the DFS root assigns it before any arc is tried), and
    // the toggle deltas assume it — without it the replay could neither
    // assign the source a stable value (its own delta conflicts) nor a
    // transition (candidates are stable-only), so any literal whose only
    // support flows through the source would be "refuted" vacuously and
    // the stored clause could kill feasible branches (the c1908
    // worst-path regression; see the module docs).
    let conflict = eng.assign(src, Dual::transition(false), alive);
    alive = alive.minus(conflict);
    if !alive.any() {
        // The launch itself is infeasible in this polarity: no hit
        // context can arise, the clause is vacuously refutation-safe.
        eng.reset();
        return true;
    }
    for &(net, v) in lits {
        let want = if pol_r {
            Dual { r: v, f: V9::XX }
        } else {
            Dual { r: V9::XX, f: v }
        };
        let conflict = eng.assign(net, want, alive);
        alive = alive.minus(conflict);
        if !alive.any() {
            // The cut contradicts itself (or the deltas) already under
            // forward propagation — refuted outright.
            eng.reset();
            return true;
        }
    }
    todo.clear();
    todo.extend(lits.iter().map(|&(n, _)| n));
    let mut budget = JustifyBudget::with_decision_limit(VERIFY_DECISION_BUDGET);
    let refuted = proves_unsat(eng, nl, todo, alive, &mut budget, scratch)
        && support_is_closed(eng, nl, toggles, pol_r, lits);
    eng.reset();
    refuted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(src: u32, gate: u32) -> NogoodKey {
        NogoodKey {
            src: NetId::from_index(src as usize),
            gate: GateId::from_index(gate as usize),
            pin: 0,
            vector: 0,
        }
    }

    fn clause(pol_r: bool, cost: u64) -> Nogood {
        Nogood {
            pol_r,
            lits: vec![(NetId::from_index(0), V9::S0)],
            cost,
        }
    }

    #[test]
    fn insert_bumps_epoch_and_view_revalidates() {
        let store = NogoodStore::new();
        let mut view = NogoodView::new();
        let k = key(0, 1);
        assert!(view.get(&store, k).is_none());
        let e0 = store.epoch();
        assert!(store.insert(k, clause(true, 10)));
        assert!(store.epoch() > e0, "insert publishes a new epoch");
        let list = view.get(&store, k).expect("view sees the insert");
        assert_eq!(list.len(), 1);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn per_key_cap_drops_extra_clauses() {
        let store = NogoodStore::new();
        let k = key(2, 3);
        for i in 0..MAX_PER_KEY {
            assert!(store.insert(k, clause(true, i as u64)));
        }
        assert!(!store.insert(k, clause(true, 99)), "cap reached");
        assert_eq!(store.get(&k).unwrap().len(), MAX_PER_KEY);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let store = NogoodStore::new();
        store.insert(key(5, 0), clause(true, 1));
        store.insert(key(1, 0), clause(false, 2));
        store.insert(key(3, 7), clause(true, 3));
        let snap = store.snapshot();
        assert_eq!(snap.len(), 3);
        let srcs: Vec<usize> = snap.iter().map(|(k, _)| k.src.index()).collect();
        assert_eq!(srcs, vec![1, 3, 5]);
    }
}
