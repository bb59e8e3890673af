//! Circuit-wide implication engine with trail-based backtracking.
//!
//! This is the machinery behind the paper's single-pass algorithm:
//! "each time a logic value is assigned to a node, such value is propagated
//! through all the gates having such node as an input — this helps in early
//! detection of logic inconsistencies" (§IV.B). Values are the
//! *dual-transition* pairs of [`Dual`]: the rising-launch and
//! falling-launch analyses run simultaneously over one stored value per
//! node, so a path is traversed once for both transition polarities.

use std::collections::VecDeque;

use sta_cells::func::Expr;
use sta_cells::Library;
use sta_netlist::{GateId, GateKind, NetId, Netlist, PrimOp};

use crate::toggle::Toggle;
use crate::value::V9;

/// A dual-transition value: the node's [`V9`] under a rising launch and
/// under a falling launch of the path input.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Dual {
    /// Value if the launched transition is rising.
    pub r: V9,
    /// Value if the launched transition is falling.
    pub f: V9,
}

impl Dual {
    /// Fully unknown in both analyses.
    pub const XX: Dual = Dual {
        r: V9::XX,
        f: V9::XX,
    };

    /// A stable logic constant (identical in both analyses).
    pub fn stable(b: bool) -> Dual {
        Dual {
            r: V9::stable(b),
            f: V9::stable(b),
        }
    }

    /// The launched transition itself: R in the rising analysis, F in the
    /// falling one. `inverted` flips both (a path with odd inversion
    /// parity).
    pub fn transition(inverted: bool) -> Dual {
        if inverted {
            Dual { r: V9::F, f: V9::R }
        } else {
            Dual { r: V9::R, f: V9::F }
        }
    }
}

/// Which launch polarities are still alive in the current search branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Mask {
    /// Rising-launch analysis alive.
    pub r: bool,
    /// Falling-launch analysis alive.
    pub f: bool,
}

impl Mask {
    /// Both polarities alive.
    pub const BOTH: Mask = Mask { r: true, f: true };
    /// Neither polarity alive.
    pub const NONE: Mask = Mask { r: false, f: false };

    /// Whether any polarity is alive.
    pub fn any(self) -> bool {
        self.r || self.f
    }

    /// Intersection.
    pub fn and(self, o: Mask) -> Mask {
        Mask {
            r: self.r && o.r,
            f: self.f && o.f,
        }
    }

    /// Removes the polarities in `conflicts`.
    pub fn minus(self, conflicts: Mask) -> Mask {
        Mask {
            r: self.r && !conflicts.r,
            f: self.f && !conflicts.f,
        }
    }
}

/// Implication engine over a mapped (or primitive) netlist.
///
/// Assignments are merged per polarity; every change is recorded on a trail
/// so the search can roll back to any [`ImplicationEngine::mark`].
#[derive(Debug)]
pub struct ImplicationEngine<'a> {
    nl: &'a Netlist,
    lib: &'a Library,
    values: Vec<Dual>,
    trail: Vec<(NetId, Dual)>,
    queue: VecDeque<GateId>,
    /// Optional per-net toggle deltas (see [`crate::toggle`]); when set,
    /// merges that contradict the delta are conflicts.
    toggles: Option<Vec<Toggle>>,
}

impl<'a> ImplicationEngine<'a> {
    /// Creates an engine with every net fully unknown.
    pub fn new(nl: &'a Netlist, lib: &'a Library) -> Self {
        ImplicationEngine {
            nl,
            lib,
            values: vec![Dual::XX; nl.num_nets()],
            trail: Vec::new(),
            queue: VecDeque::new(),
            toggles: None,
        }
    }

    /// Installs (or clears) the static toggle analysis of the current
    /// launch source. With deltas installed, any merge that would give a
    /// net a value incompatible with its delta — a stable value on a net
    /// that provably toggles, or a transition on a net that provably
    /// cannot — is reported as a conflict immediately. This is the O(1)
    /// refutation that keeps reconvergent XOR logic (c499-style) from
    /// exploding the justification search.
    ///
    /// # Panics
    ///
    /// Panics if a vector is supplied whose length differs from the net
    /// count, or if the trail is not empty (deltas are per-launch-source
    /// and must be installed before any assignment).
    pub fn set_toggles(&mut self, toggles: Option<Vec<Toggle>>) {
        if let Some(t) = &toggles {
            assert_eq!(t.len(), self.nl.num_nets(), "one delta per net");
        }
        assert!(
            self.trail.is_empty(),
            "install toggle deltas before assigning"
        );
        self.toggles = toggles;
    }

    /// The toggle deltas currently installed, if any. Lets callers clone
    /// the launch-source analysis into a second engine (e.g. the nogood
    /// verification replay in `sta-core`) without re-running it.
    pub fn toggles(&self) -> Option<&[Toggle]> {
        self.toggles.as_deref()
    }

    /// A fresh engine over the same netlist and library, with every net
    /// fully unknown. Cheaper to reason about than `Clone` (no trail or
    /// queue state is carried over) and the building block for per-worker
    /// engines in parallel enumeration.
    pub fn fork(&self) -> ImplicationEngine<'a> {
        ImplicationEngine::new(self.nl, self.lib)
    }

    /// Returns the engine to its post-construction state: every net
    /// unknown, trail and propagation queue empty, toggle deltas cleared.
    /// Equivalent to (but cheaper than) building a new engine when the
    /// allocation is to be reused across launch sources.
    pub fn reset(&mut self) {
        self.values.fill(Dual::XX);
        self.trail.clear();
        self.queue.clear();
        self.toggles = None;
    }

    /// The current value of a net.
    #[inline]
    pub fn value(&self, net: NetId) -> Dual {
        self.values[net.index()]
    }

    /// The cell library this engine resolves gate functions with.
    #[inline]
    pub fn library(&self) -> &'a Library {
        self.lib
    }

    /// The netlist this engine operates on.
    #[inline]
    pub fn netlist(&self) -> &'a Netlist {
        self.nl
    }

    /// A trail mark for later [`ImplicationEngine::rollback`].
    #[inline]
    pub fn mark(&self) -> usize {
        self.trail.len()
    }

    /// Restores every net changed since `mark` (in reverse order).
    pub fn rollback(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let (net, old) = self.trail.pop().expect("trail length checked");
            self.values[net.index()] = old;
        }
    }

    /// Assigns `want` to `net` (merging with the current value) and
    /// propagates implications forward through the fanout cone.
    ///
    /// Only the polarities in `mask` participate; dead polarities keep
    /// their old component untouched. Returns the set of polarities that
    /// ran into a conflict anywhere in the cone — the caller removes them
    /// from its alive mask (and typically backtracks when none are left).
    pub fn assign(&mut self, net: NetId, want: Dual, mask: Mask) -> Mask {
        let mut conflicts = Mask::NONE;
        self.merge(net, want, mask, &mut conflicts);
        self.propagate(mask.minus(conflicts), &mut conflicts);
        conflicts
    }

    /// Re-evaluates the fanout cones of the given nets without assigning
    /// anything new (useful after a rollback that changed the frontier).
    pub fn reevaluate(&mut self, nets: &[NetId], mask: Mask) -> Mask {
        let mut conflicts = Mask::NONE;
        for &n in nets {
            for pr in self.nl.net(n).fanout() {
                self.queue.push_back(pr.gate);
            }
        }
        self.propagate(mask, &mut conflicts);
        conflicts
    }

    /// The value a gate's output takes given the current input values.
    pub fn computed_output(&self, gate: GateId, mask: Mask) -> Dual {
        let g = self.nl.gate(gate);
        let current = self.values[g.output().index()];
        let mut out = Dual::XX;
        // Hot path of forward propagation: avoid heap allocation for the
        // small pin counts of mapped netlists; fall back to a Vec for
        // wide primitives.
        let mut small = [V9::XX; 8];
        let mut big: Vec<V9>;
        for pol in [Polarity::R, Polarity::F] {
            if !pol.alive(mask) {
                *pol.get_mut(&mut out) = pol.get(current);
                continue;
            }
            let ins: &[V9] = if g.fanin() <= small.len() {
                for (slot, n) in small.iter_mut().zip(g.inputs()) {
                    *slot = pol.get(self.values[n.index()]);
                }
                &small[..g.fanin()]
            } else {
                big = g
                    .inputs()
                    .iter()
                    .map(|n| pol.get(self.values[n.index()]))
                    .collect();
                &big
            };
            *pol.get_mut(&mut out) = match g.kind() {
                GateKind::Prim(op) => eval_prim_v9(op, ins),
                GateKind::Cell(c) => eval_expr_v9(self.lib.cell(c).expr(), ins),
            };
        }
        out
    }

    fn merge(&mut self, net: NetId, want: Dual, mask: Mask, conflicts: &mut Mask) {
        let old = self.values[net.index()];
        let delta = self
            .toggles
            .as_ref()
            .map_or(Toggle::Unknown, |t| t[net.index()]);
        let mut new = old;
        let mut changed = false;
        for pol in [Polarity::R, Polarity::F] {
            if !pol.alive(mask) || pol.alive(*conflicts) {
                continue;
            }
            match pol.get(old).meet(pol.get(want)) {
                Some(v) => {
                    if !delta.compatible(v) {
                        *pol.flag_mut(conflicts) = true;
                    } else if v != pol.get(old) {
                        *pol.get_mut(&mut new) = v;
                        changed = true;
                    }
                }
                None => *pol.flag_mut(conflicts) = true,
            }
        }
        if changed {
            self.trail.push((net, old));
            self.values[net.index()] = new;
            for pr in self.nl.net(net).fanout() {
                self.queue.push_back(pr.gate);
            }
        }
    }

    fn propagate(&mut self, mut mask: Mask, conflicts: &mut Mask) {
        while let Some(gate) = self.queue.pop_front() {
            if !mask.any() {
                self.queue.clear();
                break;
            }
            let out_net = self.nl.gate(gate).output();
            let computed = self.computed_output(gate, mask);
            self.merge(out_net, computed, mask, conflicts);
            mask = mask.minus(*conflicts);
        }
    }
}

/// Helper to address one polarity of a [`Dual`] / [`Mask`].
#[derive(Clone, Copy)]
enum Polarity {
    R,
    F,
}

impl Polarity {
    fn alive(self, m: Mask) -> bool {
        match self {
            Polarity::R => m.r,
            Polarity::F => m.f,
        }
    }

    fn get(self, d: Dual) -> V9 {
        match self {
            Polarity::R => d.r,
            Polarity::F => d.f,
        }
    }

    fn get_mut(self, d: &mut Dual) -> &mut V9 {
        match self {
            Polarity::R => &mut d.r,
            Polarity::F => &mut d.f,
        }
    }

    fn flag_mut(self, m: &mut Mask) -> &mut bool {
        match self {
            Polarity::R => &mut m.r,
            Polarity::F => &mut m.f,
        }
    }
}

/// Evaluates a primitive operator over nine-valued inputs.
pub fn eval_prim_v9(op: PrimOp, ins: &[V9]) -> V9 {
    match op {
        PrimOp::And => ins.iter().copied().fold(V9::S1, V9::and),
        PrimOp::Or => ins.iter().copied().fold(V9::S0, V9::or),
        PrimOp::Nand => ins.iter().copied().fold(V9::S1, V9::and).not(),
        PrimOp::Nor => ins.iter().copied().fold(V9::S0, V9::or).not(),
        PrimOp::Not => ins[0].not(),
        PrimOp::Buf => ins[0],
        PrimOp::Xor => ins.iter().copied().fold(V9::S0, V9::xor),
        PrimOp::Xnor => ins.iter().copied().fold(V9::S0, V9::xor).not(),
    }
}

/// Evaluates a cell expression over nine-valued pin values.
pub fn eval_expr_v9(expr: &Expr, pins: &[V9]) -> V9 {
    match expr {
        Expr::Pin(p) => pins[*p as usize],
        Expr::Not(e) => eval_expr_v9(e, pins).not(),
        Expr::And(es) => es
            .iter()
            .map(|e| eval_expr_v9(e, pins))
            .fold(V9::S1, V9::and),
        Expr::Or(es) => es
            .iter()
            .map(|e| eval_expr_v9(e, pins))
            .fold(V9::S0, V9::or),
        Expr::Xor(es) => es
            .iter()
            .map(|e| eval_expr_v9(e, pins))
            .fold(V9::S0, V9::xor),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sta_netlist::{GateKind, Netlist};

    fn lib() -> Library {
        Library::standard()
    }

    /// AND2 chain: transition with an unknown side input becomes
    /// semi-undetermined at the output, and a later 0 on the side input
    /// kills the transition.
    #[test]
    fn forward_propagation_produces_semi_undetermined() {
        let l = lib();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let and2 = l.cell_by_name("AND2").unwrap().id();
        let z = nl
            .add_gate(GateKind::Cell(and2), &[a, b], Some("z"))
            .unwrap();
        nl.mark_output(z);
        let mut eng = ImplicationEngine::new(&nl, &l);
        let c = eng.assign(a, Dual::transition(false), Mask::BOTH);
        assert_eq!(c, Mask::NONE);
        // Falling launch through AND with unknown side: X0 (paper example).
        assert_eq!(eng.value(z).f, V9::X0);
        assert_eq!(eng.value(z).r, V9::ZX);
        // Now set B=1: the transition passes in both analyses.
        let c = eng.assign(b, Dual::stable(true), Mask::BOTH);
        assert_eq!(c, Mask::NONE);
        assert_eq!(eng.value(z).r, V9::R);
        assert_eq!(eng.value(z).f, V9::F);
    }

    /// Requiring the output of a blocked gate to transition conflicts as
    /// soon as the blocking side value is propagated.
    #[test]
    fn early_conflict_detection() {
        let l = lib();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let and2 = l.cell_by_name("AND2").unwrap().id();
        let z = nl
            .add_gate(GateKind::Cell(and2), &[a, b], Some("z"))
            .unwrap();
        nl.mark_output(z);
        let mut eng = ImplicationEngine::new(&nl, &l);
        // Demand a transition at z (both analyses).
        assert_eq!(
            eng.assign(z, Dual::transition(false), Mask::BOTH),
            Mask::NONE
        );
        assert_eq!(
            eng.assign(a, Dual::transition(false), Mask::BOTH),
            Mask::NONE
        );
        // B = 0 forces z to stable 0 — conflicting with the required
        // transition in both analyses.
        let conflicts = eng.assign(b, Dual::stable(false), Mask::BOTH);
        assert_eq!(conflicts, Mask::BOTH);
    }

    /// A conflict in only one polarity leaves the other analysis usable.
    #[test]
    fn single_polarity_conflict() {
        let l = lib();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let inv = l.cell_by_name("INV").unwrap().id();
        let z = nl.add_gate(GateKind::Cell(inv), &[a], Some("z")).unwrap();
        nl.mark_output(z);
        let mut eng = ImplicationEngine::new(&nl, &l);
        assert_eq!(
            eng.assign(a, Dual::transition(false), Mask::BOTH),
            Mask::NONE
        );
        // Demand z = R in both analyses. Rising launch gives z = F →
        // conflict in r only; falling launch gives z = R → fine.
        let conflicts = eng.assign(z, Dual { r: V9::R, f: V9::R }, Mask::BOTH);
        assert_eq!(conflicts, Mask { r: true, f: false });
    }

    #[test]
    fn rollback_restores_everything() {
        let l = lib();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let nand2 = l.cell_by_name("NAND2").unwrap().id();
        let z = nl
            .add_gate(GateKind::Cell(nand2), &[a, b], Some("z"))
            .unwrap();
        nl.mark_output(z);
        let mut eng = ImplicationEngine::new(&nl, &l);
        let m0 = eng.mark();
        eng.assign(a, Dual::stable(true), Mask::BOTH);
        eng.assign(b, Dual::stable(true), Mask::BOTH);
        assert_eq!(eng.value(z).r, V9::S0);
        eng.rollback(m0);
        for n in [a, b, z] {
            assert_eq!(eng.value(n), Dual::XX, "{n:?}");
        }
    }

    /// `fork` yields an independent engine; `reset` restores the
    /// post-construction state including toggle deltas.
    #[test]
    fn fork_and_reset_give_fresh_engines() {
        let l = lib();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let inv = l.cell_by_name("INV").unwrap().id();
        let z = nl.add_gate(GateKind::Cell(inv), &[a], Some("z")).unwrap();
        nl.mark_output(z);
        let mut eng = ImplicationEngine::new(&nl, &l);
        eng.assign(a, Dual::stable(true), Mask::BOTH);
        assert_ne!(eng.value(z), Dual::XX);
        // A fork sees none of the parent's assignments.
        let forked = eng.fork();
        assert_eq!(forked.value(a), Dual::XX);
        assert_eq!(forked.value(z), Dual::XX);
        // Reset clears values, trail, and toggles.
        eng.reset();
        assert_eq!(eng.value(a), Dual::XX);
        assert_eq!(eng.mark(), 0);
        // The trail is empty again, so toggles can be (re)installed.
        eng.set_toggles(Some(vec![Toggle::Unknown; nl.num_nets()]));
        eng.reset();
        eng.set_toggles(None);
    }

    /// Propagation runs transitively through a cone (c17-like).
    #[test]
    fn transitive_propagation() {
        let l = lib();
        let mut nl = Netlist::new("t");
        let nand2 = l.cell_by_name("NAND2").unwrap().id();
        let i1 = nl.add_input("i1");
        let i2 = nl.add_input("i2");
        let i3 = nl.add_input("i3");
        let x = nl.add_gate(GateKind::Cell(nand2), &[i1, i2], None).unwrap();
        let y = nl.add_gate(GateKind::Cell(nand2), &[x, i3], None).unwrap();
        nl.mark_output(y);
        let mut eng = ImplicationEngine::new(&nl, &l);
        eng.assign(i1, Dual::transition(false), Mask::BOTH);
        eng.assign(i2, Dual::stable(true), Mask::BOTH);
        eng.assign(i3, Dual::stable(true), Mask::BOTH);
        // y = NAND(NAND(T,1),1): double inversion restores the launch.
        assert_eq!(eng.value(y).r, V9::R);
        assert_eq!(eng.value(y).f, V9::F);
    }

    /// XOR propagates transitions with data-dependent polarity.
    #[test]
    fn xor_polarity_depends_on_side() {
        let l = lib();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let xor2 = l.cell_by_name("XOR2").unwrap().id();
        let z = nl
            .add_gate(GateKind::Cell(xor2), &[a, b], Some("z"))
            .unwrap();
        nl.mark_output(z);
        let mut eng = ImplicationEngine::new(&nl, &l);
        eng.assign(a, Dual::transition(false), Mask::BOTH);
        let m = eng.mark();
        eng.assign(b, Dual::stable(false), Mask::BOTH);
        assert_eq!(eng.value(z).r, V9::R);
        eng.rollback(m);
        eng.reevaluate(&[b], Mask::BOTH);
        eng.assign(b, Dual::stable(true), Mask::BOTH);
        assert_eq!(eng.value(z).r, V9::F);
    }
}
