//! Stage two of the two-step flow: post-hoc path sensitization with a
//! backtrack limit.
//!
//! This emulates the behaviour the paper attributes to the commercial
//! tool:
//!
//! * for each complex gate on the path it "assigns the vector whose
//!   justification is simpler" — vectors are tried in ascending order of
//!   required logic-1 side values and the first locally consistent one is
//!   *committed* (no revisiting of vector choices);
//! * the remaining justification search is bounded by a backtrack limit;
//!   exceeding it abandons the path ("Backtrack limited" in Table 6);
//! * when the committed vector choices turn out to be jointly
//!   unjustifiable, the path is declared **false** — which may be wrong,
//!   exactly the misidentification the paper measures ("#False paths").

use sta_cells::Library;
use sta_core::justify::{justify, JustifyBudget, JustifyOutcome};
use sta_core::path::PiValue;
use sta_logic::{Dual, ImplicationEngine, Mask, TriVal, V9};
use sta_netlist::{GateKind, NetId, Netlist};

use crate::structural::StructuralPath;

/// Verdict of the baseline sensitization attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Classification {
    /// A sensitizing input vector was found.
    True,
    /// Declared false (no vector exists *under the committed choices* —
    /// possibly a misidentification).
    False,
    /// The backtrack limit was exceeded before a verdict.
    BacktrackLimited,
}

/// Outcome of sensitizing one structural path.
#[derive(Clone, Debug, PartialEq)]
pub struct SensitizationResult {
    /// The verdict.
    pub classification: Classification,
    /// The single committed vector index per arc (meaningful when
    /// classified true; the baseline never reports alternatives).
    pub chosen_vectors: Vec<usize>,
    /// Witness input vector when classified true.
    pub input_vector: Vec<PiValue>,
    /// Which launch polarities the witness supports.
    pub rise_ok: bool,
    /// See [`SensitizationResult::rise_ok`].
    pub fall_ok: bool,
    /// Backtracks spent.
    pub backtracks: u64,
}

/// Attempts to sensitize `path` with at most `backtrack_limit` backtracks.
///
/// # Panics
///
/// Panics if the path references unmapped gates.
pub fn sensitize_path(
    nl: &Netlist,
    lib: &Library,
    path: &StructuralPath,
    backtrack_limit: u64,
) -> SensitizationResult {
    let mut eng = ImplicationEngine::new(nl, lib);
    eng.set_toggles(Some(sta_logic::toggle_analysis(nl, lib, path.source())));
    let mut mask = Mask::BOTH;
    let mut obligations: Vec<NetId> = Vec::new();
    let mut chosen = Vec::with_capacity(path.arcs.len());
    let failure = |class: Classification, backtracks: u64| SensitizationResult {
        classification: class,
        chosen_vectors: Vec::new(),
        input_vector: Vec::new(),
        rise_ok: false,
        fall_ok: false,
        backtracks,
    };

    let conflicts = eng.assign(path.source(), Dual::transition(false), mask);
    mask = mask.minus(conflicts);
    if !mask.any() {
        return failure(Classification::False, 0);
    }

    // Commit the easiest locally-consistent vector at each gate.
    for &(gate_id, pin) in &path.arcs {
        let cell_id = match nl.gate(gate_id).kind() {
            GateKind::Cell(c) => c,
            GateKind::Prim(op) => panic!("baseline on unmapped primitive {op}"),
        };
        let cell = lib.cell(cell_id);
        let mut candidates: Vec<usize> = (0..cell.vectors_of(pin).len()).collect();
        candidates.sort_by_key(|&v| cell.vectors_of(pin)[v].ones());
        let mut committed = None;
        for v in candidates {
            let sv = &cell.vectors_of(pin)[v];
            let mark = eng.mark();
            let mut alive = mask;
            let gate = nl.gate(gate_id);
            let mut assigned = Vec::new();
            for p in 0..gate.fanin() as u8 {
                if p == pin {
                    continue;
                }
                if let Some(val) = sv.side_value(p) {
                    let net = gate.inputs()[p as usize];
                    let conflicts = eng.assign(net, Dual::stable(val), alive);
                    alive = alive.minus(conflicts);
                    assigned.push(net);
                    if !alive.any() {
                        break;
                    }
                }
            }
            if alive.any() {
                committed = Some((v, alive, assigned));
                break;
            }
            eng.rollback(mark);
        }
        match committed {
            Some((v, alive, assigned)) => {
                chosen.push(v);
                mask = alive;
                obligations.extend(assigned);
            }
            None => return failure(Classification::False, 0),
        }
    }

    // Justify everything with the bounded budget.
    let mut budget = JustifyBudget::with_backtrack_limit(backtrack_limit);
    match justify(&mut eng, nl, obligations, mask, &mut budget) {
        JustifyOutcome::Satisfied(m) => {
            let input_vector = nl
                .inputs()
                .iter()
                .map(|&pi| {
                    if pi == path.source() {
                        return PiValue::Transition;
                    }
                    let d = eng.value(pi);
                    let v = if m.r { d.r } else { d.f };
                    match (v.init(), v.fin()) {
                        (TriVal::X, TriVal::X) => PiValue::X,
                        _ if v == V9::S0 => PiValue::Zero,
                        _ if v == V9::S1 => PiValue::One,
                        (_, TriVal::Zero) => PiValue::Zero,
                        (_, TriVal::One) => PiValue::One,
                        _ => PiValue::X,
                    }
                })
                .collect();
            SensitizationResult {
                classification: Classification::True,
                chosen_vectors: chosen,
                input_vector,
                rise_ok: m.r,
                fall_ok: m.f,
                backtracks: budget.backtracks,
            }
        }
        JustifyOutcome::Unsatisfiable => failure(Classification::False, budget.backtracks),
        JustifyOutcome::BudgetExhausted => {
            failure(Classification::BacktrackLimited, budget.backtracks)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sta_netlist::{GateId, GateKind};

    fn path_of(_nl: &Netlist, nodes: Vec<NetId>, arcs: Vec<(GateId, u8)>) -> StructuralPath {
        StructuralPath {
            nodes,
            arcs,
            est_delay: 0.0,
        }
    }

    #[test]
    fn sensitizes_simple_and_gate() {
        let lib = Library::standard();
        let and2 = lib.cell_by_name("AND2").unwrap().id();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let z = nl.add_gate(GateKind::Cell(and2), &[a, b], None).unwrap();
        nl.mark_output(z);
        let g = nl.net(z).driver().unwrap();
        let p = path_of(&nl, vec![a, z], vec![(g, 0)]);
        let r = sensitize_path(&nl, &lib, &p, 1000);
        assert_eq!(r.classification, Classification::True);
        assert!(r.rise_ok && r.fall_ok);
        assert_eq!(r.input_vector[1], PiValue::One);
    }

    /// A genuinely false path is classified false.
    #[test]
    fn blocked_path_is_false() {
        let lib = Library::standard();
        let and2 = lib.cell_by_name("AND2").unwrap().id();
        let nor2 = lib.cell_by_name("NOR2").unwrap().id();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let x = nl.add_gate(GateKind::Cell(and2), &[a, a], None).unwrap();
        let y = nl.add_gate(GateKind::Cell(nor2), &[a, a], None).unwrap();
        let z = nl.add_gate(GateKind::Cell(and2), &[x, y], None).unwrap();
        nl.mark_output(z);
        let gx = nl.net(x).driver().unwrap();
        let gz = nl.net(z).driver().unwrap();
        let p = path_of(&nl, vec![a, x, z], vec![(gx, 0), (gz, 0)]);
        let r = sensitize_path(&nl, &lib, &p, 1000);
        assert_eq!(r.classification, Classification::False);
    }

    /// The baseline commits the *easiest* vector: for an AO22 entered
    /// through A it picks Case 1 (C=0, D=0) even though slower vectors
    /// exist — the misbehaviour the paper measures in Table 6.
    #[test]
    fn commits_easiest_vector() {
        let lib = Library::standard();
        let ao22 = lib.cell_by_name("AO22").unwrap().id();
        let mut nl = Netlist::new("t");
        let ins: Vec<_> = (0..4).map(|i| nl.add_input(format!("i{i}"))).collect();
        let z = nl.add_gate(GateKind::Cell(ao22), &ins, None).unwrap();
        nl.mark_output(z);
        let g = nl.net(z).driver().unwrap();
        let p = path_of(&nl, vec![ins[0], z], vec![(g, 0)]);
        let r = sensitize_path(&nl, &lib, &p, 1000);
        assert_eq!(r.classification, Classification::True);
        assert_eq!(r.chosen_vectors, vec![0], "Case 1 has the fewest ones");
    }

    /// With a zero backtrack limit, a path whose justification genuinely
    /// requires a retry is abandoned. Under unit propagation + MRV the
    /// scenario must branch: side requirements `x = p ⊕ q = 1` and
    /// `w = (p·q) + r = 1`, where the justifier branches on `w` first and
    /// its first minimal candidate (`p·q = 1` ⇒ `p = q = 1`) kills the
    /// XOR — only the retry (`r = 1`) survives.
    #[test]
    fn backtrack_limit_abandons() {
        let lib = Library::standard();
        let xor2 = lib.cell_by_name("XOR2").unwrap().id();
        let and2 = lib.cell_by_name("AND2").unwrap().id();
        let or2 = lib.cell_by_name("OR2").unwrap().id();
        let and3 = lib.cell_by_name("AND3").unwrap().id();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let p = nl.add_input("p");
        let q = nl.add_input("q");
        let r = nl.add_input("r");
        let x = nl.add_gate(GateKind::Cell(xor2), &[p, q], None).unwrap();
        let t = nl.add_gate(GateKind::Cell(and2), &[p, q], None).unwrap();
        let w = nl.add_gate(GateKind::Cell(or2), &[t, r], None).unwrap();
        let z = nl.add_gate(GateKind::Cell(and3), &[a, x, w], None).unwrap();
        nl.mark_output(z);
        let gz = nl.net(z).driver().unwrap();
        let path = path_of(&nl, vec![a, z], vec![(gz, 0)]);
        let res = sensitize_path(&nl, &lib, &path, 0);
        assert_eq!(res.classification, Classification::BacktrackLimited);
        let res = sensitize_path(&nl, &lib, &path, 1000);
        assert_eq!(res.classification, Classification::True);
        assert!(res.backtracks >= 1, "a retry was required");
    }
}
