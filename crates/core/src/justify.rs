//! Backward line justification: finding a primary-input witness for a set
//! of required net values.
//!
//! Shared by the single-pass enumerator (unbounded, complete search) and
//! the commercial-style baseline (`sta-baseline`), which runs the same
//! search under a *backtrack limit* — the knob the paper sweeps in
//! Table 6.
//!
//! Branching uses **subset-minimal** candidate assignments: to justify a
//! gate-output requirement, only minimal partial assignments of the
//! still-unknown inputs are tried (e.g. `AND = 0` branches on *one* input
//! at 0, not on all 2ᵏ full patterns). This is complete — any witness
//! restricted to the gate's inputs contains a minimal satisfying subset,
//! and a superset of a failed candidate only adds constraints — and it
//! avoids the exponential thrash of full-pattern enumeration on wide
//! gates.
//!
//! Every branch candidate goes through the exact [`ImplicationEngine`]:
//! assign, propagate, detect a conflict, roll back. The decision and
//! backtrack counters therefore count real engine attempts, and budget
//! trip points rest on them (DESIGN.md §5.9b says why no batch screen
//! sits in front of the engine).

use std::collections::HashMap;
use std::rc::Rc;

use sta_cells::Library;
use sta_logic::{eval_prim_v9, eval_table_dual, Dual, ImplicationEngine, Mask, V9};
use sta_netlist::{GateId, GateKind, NetId, Netlist};

/// One alternative side-input assignment set justifying an obligation.
type Candidate = Vec<(NetId, bool)>;
/// All subset-minimal candidate sets of one obligation.
type Candidates = Vec<Candidate>;

/// Cache key for one [`minimal_candidates`] evaluation: the gate, the
/// requirement on its output, the alive mask, and the current values of
/// its inputs. The candidate set is a pure function of these — it never
/// consults the engine's toggle deltas or any net outside the gate — so a
/// cached entry is valid across launch sources and search branches.
///
/// The fields are packed into two words, so a lookup hashes 16 bytes:
/// `head` holds the gate index (bits 0–31), the requirement (32–39), the
/// mask (40–41) and the fan-in (42–45); `ins` holds the inputs' values,
/// 8 bits each in pin order. A value takes 8 bits as four 2-bit
/// [`TriVal`](sta_logic::TriVal) codes.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct CandKey {
    head: u64,
    ins: u64,
}

impl CandKey {
    /// Gates wider than this bypass the cache (none exist in the mapped
    /// standard-cell library; primitives can be wide).
    const MAX_FANIN: usize = 8;

    /// Packs the key of a gate with at most [`CandKey::MAX_FANIN`] inputs.
    fn pack(gate: u32, req: Dual, mask: Mask, ins: impl ExactSizeIterator<Item = Dual>) -> Self {
        let fanin = ins.len() as u64;
        debug_assert!(fanin as usize <= CandKey::MAX_FANIN);
        let head = u64::from(gate)
            | dual_bits(req) << 32
            | u64::from(mask.r) << 40
            | u64::from(mask.f) << 41
            | fanin << 42;
        let ins = ins
            .enumerate()
            .fold(0, |acc, (k, d)| acc | dual_bits(d) << (8 * k));
        CandKey { head, ins }
    }
}

/// The 8-bit code of a dual value: the [`TriVal`](sta_logic::TriVal)
/// codes of its rising initial, rising final, falling initial and falling
/// final levels.
fn dual_bits(d: Dual) -> u64 {
    [d.r.init(), d.r.fin(), d.f.init(), d.f.fin()]
        .iter()
        .enumerate()
        .fold(0, |acc, (k, t)| acc | u64::from(t.code()) << (2 * k))
}

/// Memo table over [`minimal_candidates`]: branching candidates for a
/// (gate, requirement, input values) situation. The subset-minimal
/// candidate enumeration walks up to `2^k` input patterns per call; the
/// same situations recur constantly across the enumeration DFS (sibling
/// arcs re-justify the same side-input obligations), so one per-worker
/// cache removes most of that work.
#[derive(Clone, Default)]
pub(crate) struct JustifyCache {
    /// Candidate sets are shared out by `Rc` so a cache hit in the search
    /// hot loop is a reference-count bump, not a deep clone of nested
    /// vectors (the cache is per-worker and never crosses threads).
    map: HashMap<CandKey, Rc<Candidates>>,
    /// Lookups answered from the table.
    pub(crate) hits: u64,
}

impl JustifyCache {
    /// Entry cap; the table is cleared wholesale when full.
    const CAPACITY: usize = 1 << 18;

    /// An empty cache.
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

/// Search budget and counters for one justification run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JustifyBudget {
    /// Candidate assignments tried.
    pub decisions: u64,
    /// Candidate assignments rolled back after a failed sub-search
    /// (the "backtracks" commercial tools bound).
    pub backtracks: u64,
    /// Abort threshold on `backtracks` (`u64::MAX` = unbounded).
    pub max_backtracks: u64,
    /// Abort threshold on `decisions` (`u64::MAX` = unbounded).
    ///
    /// Refuting an *unsatisfiable* requirement set with chronological
    /// backtracking can be exponential (reconvergent XOR logic — the
    /// c499 family is the classic case), so callers bound the effort per
    /// call and treat the abort as "unknown" rather than grinding.
    pub max_decisions: u64,
}

impl JustifyBudget {
    /// An unbounded budget.
    pub fn unbounded() -> Self {
        JustifyBudget {
            decisions: 0,
            backtracks: 0,
            max_backtracks: u64::MAX,
            max_decisions: u64::MAX,
        }
    }

    /// A budget with the given backtrack limit.
    pub fn with_backtrack_limit(limit: u64) -> Self {
        JustifyBudget {
            decisions: 0,
            backtracks: 0,
            max_backtracks: limit,
            max_decisions: u64::MAX,
        }
    }

    /// A budget with the given per-call decision (effort) limit.
    pub fn with_decision_limit(limit: u64) -> Self {
        JustifyBudget {
            decisions: 0,
            backtracks: 0,
            max_backtracks: u64::MAX,
            max_decisions: limit,
        }
    }
}

/// Result of a justification search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JustifyOutcome {
    /// A witness exists for the returned (non-empty) mask of launch
    /// polarities; its assignments are left on the engine trail.
    Satisfied(Mask),
    /// No witness exists for any alive polarity.
    Unsatisfiable,
    /// The backtrack limit was hit before a verdict was reached.
    BudgetExhausted,
}

/// Runs a complete backward justification of `todo` (nets carrying
/// required values) down to the primary inputs.
///
/// On [`JustifyOutcome::Satisfied`], the witness assignments remain on the
/// engine's trail — roll back to a caller-side mark to discard them. In
/// the other outcomes the engine is returned to the state it was called
/// in.
pub fn justify(
    eng: &mut ImplicationEngine<'_>,
    nl: &Netlist,
    mut todo: Vec<NetId>,
    mask: Mask,
    budget: &mut JustifyBudget,
) -> JustifyOutcome {
    let mut scratch = JustifyScratch::default();
    justify_in(eng, nl, &mut todo, mask, budget, None, &mut scratch, None)
}

/// Allocation-reusing entry point: the obligation list and the search
/// scratch buffers are borrowed from the caller, so a tight caller (the
/// enumeration hot loop) keeps one set of buffers alive across millions of
/// calls. `todo` is left in an unspecified state.
///
/// `cache`, when present, memoizes candidate enumeration (see
/// [`JustifyCache`]); it changes neither the outcome nor the witness.
/// `effort_hist`, when present, receives this call's decision count — a
/// per-call effort distribution for the observability layer. The tap is
/// write-only: it cannot influence the outcome or the witness.
#[allow(clippy::too_many_arguments)]
pub(crate) fn justify_in(
    eng: &mut ImplicationEngine<'_>,
    nl: &Netlist,
    todo: &mut Vec<NetId>,
    mask: Mask,
    budget: &mut JustifyBudget,
    mut cache: Option<&mut JustifyCache>,
    scratch: &mut JustifyScratch,
    effort_hist: Option<&sta_obs::Histogram>,
) -> JustifyOutcome {
    let decisions_at_entry = budget.decisions;
    let mark = eng.mark();
    let lib = eng.library();
    let ctx = Ctx { nl, lib };
    let out = justify_rec(eng, &ctx, todo, mask, budget, &mut cache, scratch);
    if !matches!(out, JustifyOutcome::Satisfied(_)) {
        eng.rollback(mark);
    }
    if let Some(h) = effort_hist {
        h.observe((budget.decisions - decisions_at_entry) as f64);
    }
    out
}

/// Reusable buffers of the justification search (one set per worker).
/// Contents are transient — every use clears before filling.
#[derive(Clone, Debug, Default)]
pub(crate) struct JustifyScratch {
    /// Unsatisfied obligations of the current fixpoint iteration.
    pending: Vec<(NetId, GateId)>,
    /// Per-net dedup stamps of the `pending` sweep: a net was swept in
    /// the current fixpoint iteration iff its stamp equals `epoch`.
    stamps: Vec<u32>,
    /// The current fixpoint iteration's stamp; bumped once per sweep.
    epoch: u32,
    /// Free (still-unknown) inputs of the gate under consideration.
    free: Vec<NetId>,
}

impl JustifyScratch {
    /// Starts a dedup sweep over a netlist of `nets` nets: afterwards no
    /// net carries the current stamp.
    fn next_epoch(&mut self, nets: usize) {
        if self.stamps.len() < nets {
            self.stamps.resize(nets, 0);
        }
        if self.epoch == u32::MAX {
            self.stamps.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }
}

struct Ctx<'a> {
    nl: &'a Netlist,
    lib: &'a Library,
}

/// [`minimal_candidates`] through the optional memo table.
fn cached_candidates(
    eng: &ImplicationEngine<'_>,
    ctx: &Ctx<'_>,
    gate: GateId,
    free: &[NetId],
    mask: Mask,
    cache: &mut Option<&mut JustifyCache>,
) -> Rc<Candidates> {
    let g = ctx.nl.gate(gate);
    let key = match cache {
        Some(_) if g.fanin() <= CandKey::MAX_FANIN => Some(CandKey::pack(
            gate.index() as u32,
            eng.value(g.output()),
            mask,
            g.inputs().iter().map(|n| eng.value(*n)),
        )),
        _ => None,
    };
    if let (Some(c), Some(key)) = (cache.as_deref_mut(), key) {
        if let Some(hit) = c.map.get(&key) {
            c.hits += 1;
            return Rc::clone(hit);
        }
        let cands = Rc::new(minimal_candidates(eng, ctx, gate, free, mask));
        if c.map.len() >= JustifyCache::CAPACITY {
            c.map.clear();
        }
        c.map.insert(key, Rc::clone(&cands));
        return cands;
    }
    Rc::new(minimal_candidates(eng, ctx, gate, free, mask))
}

fn justify_rec(
    eng: &mut ImplicationEngine<'_>,
    ctx: &Ctx<'_>,
    todo: &mut Vec<NetId>,
    mask: Mask,
    budget: &mut JustifyBudget,
    cache: &mut Option<&mut JustifyCache>,
    scratch: &mut JustifyScratch,
) -> JustifyOutcome {
    let nl = ctx.nl;
    let mut alive = mask;
    // Unit propagation to fixpoint: obligations with exactly one minimal
    // candidate are applied without branching; obligations with none are
    // contradictions. This (plus the toggle deltas in the engine) is what
    // tames the interlocking parity constraints of XOR-rich circuits.
    loop {
        // Collect the currently unsatisfied obligations. The pending
        // buffer and the stamps are shared down the recursion — only this
        // iteration's contents matter, and the recursive calls below
        // happen after the last read.
        scratch.pending.clear();
        scratch.next_epoch(nl.num_nets());
        for idx in (0..todo.len()).rev() {
            let net = todo[idx];
            if scratch.stamps[net.index()] == scratch.epoch || nl.net(net).is_input() {
                continue;
            }
            scratch.stamps[net.index()] = scratch.epoch;
            let gate = nl.net(net).driver().expect("validated netlist");
            let computed = eng.computed_output(gate, alive);
            let req = eng.value(net);
            let needs_r = alive.r && !refines(req.r, computed.r);
            let needs_f = alive.f && !refines(req.f, computed.f);
            if needs_r || needs_f {
                scratch.pending.push((net, gate));
            }
        }
        if scratch.pending.is_empty() {
            return JustifyOutcome::Satisfied(alive);
        }
        // Candidate counts; apply forced ones immediately, branch on the
        // most constrained otherwise (MRV).
        let mut branch: Option<(GateId, Rc<Candidates>)> = None;
        let mut forced: Option<(GateId, Rc<Candidates>)> = None;
        for i in 0..scratch.pending.len() {
            let (_net, gate) = scratch.pending[i];
            free_inputs_into(eng, nl, gate, alive, &mut scratch.free);
            if scratch.free.is_empty() {
                return JustifyOutcome::Unsatisfiable;
            }
            let cands = cached_candidates(eng, ctx, gate, &scratch.free, alive, cache);
            match cands.len() {
                0 => return JustifyOutcome::Unsatisfiable,
                1 => {
                    forced = Some((gate, cands));
                    break;
                }
                _ => {
                    if branch.as_ref().is_none_or(|(_, b)| cands.len() < b.len()) {
                        branch = Some((gate, cands));
                    }
                }
            }
        }
        if let Some((gate, cands)) = forced {
            let cand: &Candidate = &cands[0];
            budget.decisions += 1;
            if budget.decisions > budget.max_decisions {
                return JustifyOutcome::BudgetExhausted;
            }
            for &(fnet, value) in cand {
                let conflicts = eng.assign(fnet, Dual::stable(value), alive);
                alive = alive.minus(conflicts);
                if !alive.any() {
                    return JustifyOutcome::Unsatisfiable;
                }
            }
            todo.push(nl.gate(gate).output());
            todo.extend(cand.iter().map(|&(n, _)| n));
            continue;
        }
        let (gate, cands) = branch.expect("pending implies a branch point");
        let out_net = nl.gate(gate).output();
        // Each candidate extends the shared obligation list in place;
        // truncating back to `saved` on failure restores exactly the state
        // the next candidate must see (the recursion only ever appends).
        let saved = todo.len();
        for cand in cands.iter() {
            budget.decisions += 1;
            if budget.decisions > budget.max_decisions {
                return JustifyOutcome::BudgetExhausted;
            }
            let mark = eng.mark();
            let mut alive2 = alive;
            for &(fnet, value) in cand {
                let conflicts = eng.assign(fnet, Dual::stable(value), alive2);
                alive2 = alive2.minus(conflicts);
                if !alive2.any() {
                    break;
                }
            }
            if alive2.any() {
                let computed = eng.computed_output(gate, alive2);
                let req_now = eng.value(out_net);
                let ok_r = !alive2.r || refines(req_now.r, computed.r);
                let ok_f = !alive2.f || refines(req_now.f, computed.f);
                if ok_r && ok_f {
                    todo.push(out_net);
                    todo.extend(cand.iter().map(|&(n, _)| n));
                    match justify_rec(eng, ctx, todo, alive2, budget, cache, scratch) {
                        JustifyOutcome::Satisfied(m) if m.any() => {
                            return JustifyOutcome::Satisfied(m)
                        }
                        JustifyOutcome::BudgetExhausted => {
                            eng.rollback(mark);
                            return JustifyOutcome::BudgetExhausted;
                        }
                        _ => {}
                    }
                    todo.truncate(saved);
                }
            }
            eng.rollback(mark);
            budget.backtracks += 1;
            if budget.backtracks > budget.max_backtracks {
                return JustifyOutcome::BudgetExhausted;
            }
        }
        return JustifyOutcome::Unsatisfiable;
    }
}

/// The still-unknown inputs of a gate (deduplicated, pin order), written
/// into the caller's buffer.
fn free_inputs_into(
    eng: &ImplicationEngine<'_>,
    nl: &Netlist,
    gate: GateId,
    mask: Mask,
    out: &mut Vec<NetId>,
) {
    out.clear();
    out.extend(nl.gate(gate).inputs().iter().copied().filter(|n| {
        let d = eng.value(*n);
        (mask.r && !d.r.is_fully_defined()) || (mask.f && !d.f.is_fully_defined())
    }));
    out.dedup();
}

/// Enumerates the subset-minimal stable assignments of `free` inputs that
/// make the gate's computed output refine the current requirement, given
/// the current values of the remaining inputs.
fn minimal_candidates(
    eng: &ImplicationEngine<'_>,
    ctx: &Ctx<'_>,
    gate: GateId,
    free: &[NetId],
    mask: Mask,
) -> Vec<Vec<(NetId, bool)>> {
    let nl = ctx.nl;
    let g = nl.gate(gate);
    let req = eng.value(g.output());
    let current: Vec<Dual> = g.inputs().iter().map(|n| eng.value(*n)).collect();
    // Map free-net → positions in the input list (a net can feed several
    // pins).
    let positions: Vec<Vec<usize>> = free
        .iter()
        .map(|fnet| {
            g.inputs()
                .iter()
                .enumerate()
                .filter(|(_, n)| **n == *fnet)
                .map(|(i, _)| i)
                .collect()
        })
        .collect();
    let eval_with = |cand: &[(usize, bool)]| -> Dual {
        // cand holds (free index, value) pairs.
        let mut ins = current.clone();
        for &(fi, value) in cand {
            for &pos in &positions[fi] {
                // Merge the stable value into the current (possibly
                // semi-undetermined) one; incompatible merges mean the
                // candidate is locally impossible.
                ins[pos] = Dual {
                    r: ins[pos].r.meet(V9::stable(value)).unwrap_or(ins[pos].r),
                    f: ins[pos].f.meet(V9::stable(value)).unwrap_or(ins[pos].f),
                };
            }
        }
        match g.kind() {
            GateKind::Cell(c) => {
                let table = ctx.lib.cell(c).ternary_table();
                eval_table_dual(table, &ins, Mask::BOTH, Dual::XX)
            }
            GateKind::Prim(op) => {
                let per = |pick: fn(&Dual) -> V9| {
                    eval_prim_v9(op, &ins.iter().map(pick).collect::<Vec<_>>())
                };
                Dual {
                    r: per(|d| d.r),
                    f: per(|d| d.f),
                }
            }
        }
    };
    let locally_ok = |cand: &[(usize, bool)]| -> bool {
        // The candidate must be mergeable into the current input values.
        for &(fi, value) in cand {
            for &pos in &positions[fi] {
                let d = current[pos];
                let sv = V9::stable(value);
                if (mask.r && d.r.meet(sv).is_none()) || (mask.f && d.f.meet(sv).is_none()) {
                    return false;
                }
            }
        }
        let out = eval_with(cand);
        (!mask.r || refines(req.r, out.r)) && (!mask.f || refines(req.f, out.f))
    };
    let k = free.len();
    assert!(k <= 16, "cell pin counts are bounded");
    // Enumerate subsets by ascending size so minimality is by
    // construction: a candidate whose support+values contain an accepted
    // candidate is skipped.
    let mut subsets: Vec<u32> = (0..(1u32 << k)).collect();
    subsets.sort_by_key(|m| m.count_ones());
    let mut minimal: Vec<Vec<(usize, bool)>> = Vec::new();
    for subset in subsets {
        let size = subset.count_ones() as usize;
        let members: Vec<usize> = (0..k).filter(|i| subset & (1 << i) != 0).collect();
        for pattern in 0..(1u32 << size) {
            let cand: Vec<(usize, bool)> = members
                .iter()
                .enumerate()
                .map(|(j, &fi)| (fi, pattern & (1 << j) != 0))
                .collect();
            let subsumed = minimal.iter().any(|m| {
                m.iter()
                    .all(|&(mi, mv)| cand.iter().any(|&(ci, cv)| ci == mi && cv == mv))
            });
            if subsumed {
                continue;
            }
            if locally_ok(&cand) {
                minimal.push(cand);
            }
        }
    }
    minimal
        .into_iter()
        .map(|cand| {
            cand.into_iter()
                .map(|(fi, v)| (free[fi], v))
                .collect::<Vec<(NetId, bool)>>()
        })
        .collect()
}

/// `specific` satisfies the requirement `general`: consistent and at least
/// as defined.
pub(crate) fn refines(general: V9, specific: V9) -> bool {
    general.meet(specific) == Some(specific)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sta_cells::Library;
    use sta_netlist::GateKind;

    /// Justifying an AND2 output of 1 forces both inputs to 1.
    #[test]
    fn and_output_one_forces_inputs() {
        let lib = Library::standard();
        let and2 = lib.cell_by_name("AND2").unwrap().id();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let z = nl.add_gate(GateKind::Cell(and2), &[a, b], None).unwrap();
        nl.mark_output(z);
        let mut eng = ImplicationEngine::new(&nl, &lib);
        eng.assign(z, Dual::stable(true), Mask::BOTH);
        let mut budget = JustifyBudget::unbounded();
        let out = justify(&mut eng, &nl, vec![z], Mask::BOTH, &mut budget);
        assert_eq!(out, JustifyOutcome::Satisfied(Mask::BOTH));
        assert_eq!(eng.value(a), Dual::stable(true));
        assert_eq!(eng.value(b), Dual::stable(true));
    }

    /// Justifying an AND2 output of 0 assigns *one* input (minimal
    /// candidate), leaving the other as a don't-care.
    #[test]
    fn and_output_zero_is_minimal() {
        let lib = Library::standard();
        let and2 = lib.cell_by_name("AND2").unwrap().id();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let z = nl.add_gate(GateKind::Cell(and2), &[a, b], None).unwrap();
        nl.mark_output(z);
        let mut eng = ImplicationEngine::new(&nl, &lib);
        eng.assign(z, Dual::stable(false), Mask::BOTH);
        let mut budget = JustifyBudget::unbounded();
        let out = justify(&mut eng, &nl, vec![z], Mask::BOTH, &mut budget);
        assert!(matches!(out, JustifyOutcome::Satisfied(_)));
        // Exactly one of the inputs is forced to 0, the other stays X.
        let defined = [a, b]
            .iter()
            .filter(|&&n| eng.value(n).r.is_fully_defined())
            .count();
        assert_eq!(defined, 1, "minimal witness leaves a don't-care");
    }

    /// An unsatisfiable requirement (AND(a, !a) = 1) is recognized.
    #[test]
    fn contradiction_is_unsatisfiable() {
        let lib = Library::standard();
        let and2 = lib.cell_by_name("AND2").unwrap().id();
        let inv = lib.cell_by_name("INV").unwrap().id();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let na = nl.add_gate(GateKind::Cell(inv), &[a], None).unwrap();
        let z = nl.add_gate(GateKind::Cell(and2), &[a, na], None).unwrap();
        nl.mark_output(z);
        let mut eng = ImplicationEngine::new(&nl, &lib);
        let pre = eng.mark();
        eng.assign(z, Dual::stable(true), Mask::BOTH);
        let mut budget = JustifyBudget::unbounded();
        let out = justify(&mut eng, &nl, vec![z], Mask::BOTH, &mut budget);
        assert_eq!(out, JustifyOutcome::Unsatisfiable);
        // Engine restored to the pre-justification state (requirement kept).
        assert!(eng.mark() >= pre);
    }

    /// Wide-gate justification stays polynomial: a 27-input OR forced to 0
    /// has exactly one witness (all inputs 0) and must resolve without
    /// combinatorial search.
    #[test]
    fn wide_or_to_zero_is_cheap() {
        let lib = Library::standard();
        let or2 = lib.cell_by_name("OR2").unwrap().id();
        let mut nl = Netlist::new("t");
        let mut acc = nl.add_input("i0");
        for i in 1..27 {
            let x = nl.add_input(format!("i{i}"));
            acc = nl.add_gate(GateKind::Cell(or2), &[acc, x], None).unwrap();
        }
        nl.mark_output(acc);
        let mut eng = ImplicationEngine::new(&nl, &lib);
        eng.assign(acc, Dual::stable(false), Mask::BOTH);
        let mut budget = JustifyBudget::unbounded();
        let out = justify(&mut eng, &nl, vec![acc], Mask::BOTH, &mut budget);
        assert!(matches!(out, JustifyOutcome::Satisfied(_)));
        assert!(
            budget.decisions < 200,
            "expected linear work, took {} decisions",
            budget.decisions
        );
    }

    /// The candidate memo table changes neither the outcome nor the
    /// witness, and repeated situations hit the cache.
    #[test]
    fn cache_is_transparent() {
        let lib = Library::standard();
        let and2 = lib.cell_by_name("AND2").unwrap().id();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let z = nl.add_gate(GateKind::Cell(and2), &[a, b], None).unwrap();
        nl.mark_output(z);
        let mut cache = JustifyCache::new();
        for round in 0..2 {
            let mut eng = ImplicationEngine::new(&nl, &lib);
            eng.assign(z, Dual::stable(true), Mask::BOTH);
            let mut budget = JustifyBudget::unbounded();
            let out = justify_in(
                &mut eng,
                &nl,
                &mut vec![z],
                Mask::BOTH,
                &mut budget,
                Some(&mut cache),
                &mut JustifyScratch::default(),
                None,
            );
            assert_eq!(out, JustifyOutcome::Satisfied(Mask::BOTH));
            assert_eq!(eng.value(a), Dual::stable(true));
            assert_eq!(eng.value(b), Dual::stable(true));
            if round == 1 {
                assert!(cache.hits >= 1, "second round should hit the memo table");
            }
        }
    }

    /// Two memo keys pack to equal words iff their fields are equal:
    /// every gate, requirement and mask against a fixed input list, every
    /// value at every position of every fan-in up to the cap, and
    /// pseudo-random keys varying all fields at once.
    #[test]
    fn cand_keys_pack_to_equal_words_iff_fields_are_equal() {
        use sta_logic::TriVal;
        use std::collections::HashMap;
        type Fields = (u32, Dual, Mask, Vec<Dual>);
        let tri = [TriVal::Zero, TriVal::One, TriVal::X];
        let v9: Vec<V9> = tri
            .iter()
            .flat_map(|&i| tri.iter().map(move |&f| V9::new(i, f)))
            .collect();
        let duals: Vec<Dual> = v9
            .iter()
            .flat_map(|&r| v9.iter().map(move |&f| Dual { r, f }))
            .collect();
        let masks = [
            Mask::NONE,
            Mask { r: true, f: false },
            Mask { r: false, f: true },
            Mask::BOTH,
        ];
        let mut fields: Vec<Fields> = Vec::new();
        for gate in [0, 1, 7, 1 << 20, u32::MAX] {
            for &req in &duals {
                for mask in masks {
                    fields.push((gate, req, mask, vec![Dual::XX, Dual::stable(true)]));
                }
            }
        }
        for fanin in 0..=CandKey::MAX_FANIN {
            for pos in 0..fanin {
                for &d in &duals {
                    let mut ins = vec![Dual::stable(false); fanin];
                    ins[pos] = d;
                    fields.push((7, Dual::XX, Mask::BOTH, ins));
                }
            }
        }
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = |m: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % m as u64) as usize
        };
        for _ in 0..20_000 {
            let gate = next(64) as u32;
            let req = duals[next(81)];
            let mask = masks[next(4)];
            let fanin = next(CandKey::MAX_FANIN + 1);
            let ins = (0..fanin).map(|_| duals[next(81)]).collect();
            fields.push((gate, req, mask, ins));
        }
        let mut owners: HashMap<CandKey, &Fields> = HashMap::new();
        for f in &fields {
            let key = CandKey::pack(f.0, f.1, f.2, f.3.iter().copied());
            if let Some(prev) = owners.insert(key, f) {
                assert_eq!(prev, f, "distinct fields pack to the same words");
            }
        }
        let distinct: std::collections::HashSet<&Fields> = fields.iter().collect();
        assert_eq!(owners.len(), distinct.len());
    }

    /// A zero backtrack limit makes a search that needs genuine branching
    /// give up. Contradictory parity requirements (`p ⊕ q = 1` and
    /// `p ⊙ q = 1`) have no forced assignments — the solver must branch,
    /// and every branch conflicts.
    #[test]
    fn backtrack_limit_aborts() {
        let lib = Library::standard();
        let xor2 = lib.cell_by_name("XOR2").unwrap().id();
        let xnor2 = lib.cell_by_name("XNOR2").unwrap().id();
        let mut nl = Netlist::new("t");
        let p = nl.add_input("p");
        let q = nl.add_input("q");
        let x = nl.add_gate(GateKind::Cell(xor2), &[p, q], None).unwrap();
        let w = nl.add_gate(GateKind::Cell(xnor2), &[p, q], None).unwrap();
        nl.mark_output(x);
        nl.mark_output(w);
        let mut eng = ImplicationEngine::new(&nl, &lib);
        eng.assign(x, Dual::stable(true), Mask::BOTH);
        eng.assign(w, Dual::stable(true), Mask::BOTH);
        let mut strict = JustifyBudget::with_backtrack_limit(0);
        let out = justify(&mut eng, &nl, vec![x, w], Mask::BOTH, &mut strict);
        assert_eq!(out, JustifyOutcome::BudgetExhausted);
        let mut free = JustifyBudget::unbounded();
        let out = justify(&mut eng, &nl, vec![x, w], Mask::BOTH, &mut free);
        assert_eq!(out, JustifyOutcome::Unsatisfiable);
        assert!(free.backtracks >= 1, "branching was required");
    }
}
