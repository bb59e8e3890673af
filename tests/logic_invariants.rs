//! Property-based invariants of the dual-value logic system, the
//! implication engine, and the toggle analysis.

use proptest::prelude::*;

use sta_cells::Library;
use sta_circuits::map_netlist;
use sta_circuits::randlogic::{random_logic, RandParams};
use sta_logic::{toggle_analysis, Dual, ImplicationEngine, Mask, Toggle, TriVal, V9};

/// All nine logic values.
fn all_v9() -> Vec<V9> {
    let tri = [TriVal::Zero, TriVal::One, TriVal::X];
    let mut out = Vec::new();
    for &i in &tri {
        for &f in &tri {
            out.push(V9::new(i, f));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// De Morgan duality holds in the nine-valued algebra.
    #[test]
    fn v9_de_morgan(ai in 0usize..9, bi in 0usize..9) {
        let vs = all_v9();
        let (a, b) = (vs[ai], vs[bi]);
        prop_assert_eq!(a.and(b).not(), a.not().or(b.not()));
        prop_assert_eq!(a.or(b).not(), a.not().and(b.not()));
    }

    /// Meet is commutative, idempotent, and absorbs XX.
    #[test]
    fn v9_meet_lattice(ai in 0usize..9, bi in 0usize..9) {
        let vs = all_v9();
        let (a, b) = (vs[ai], vs[bi]);
        prop_assert_eq!(a.meet(b), b.meet(a));
        prop_assert_eq!(a.meet(a), Some(a));
        prop_assert_eq!(a.meet(V9::XX), Some(a));
    }

    /// AND/OR are monotone with respect to definedness: refining an input
    /// never un-refines the output.
    #[test]
    fn v9_ops_are_monotone(ai in 0usize..9, bi in 0usize..9) {
        let vs = all_v9();
        let (a, b) = (vs[ai], vs[bi]);
        // A refinement of a: meet with every concrete value.
        for &r in &all_v9() {
            if let Some(a2) = a.meet(r) {
                // a2 refines a; outputs must be consistent.
                let out1 = a.and(b);
                let out2 = a2.and(b);
                prop_assert!(
                    out1.meet(out2).is_some(),
                    "AND broke consistency: {a:?}->{a2:?} with {b:?}"
                );
                let or1 = a.or(b);
                let or2 = a2.or(b);
                prop_assert!(or1.meet(or2).is_some());
            }
        }
    }

    /// Engine rollback is exact on random circuits: assignments then a
    /// rollback restore every net value.
    #[test]
    fn engine_rollback_is_exact(seed in 0u64..40) {
        let lib = Library::standard();
        let raw = random_logic(&RandParams {
            name: "prop".into(),
            inputs: 6,
            outputs: 3,
            gates: 60,
            seed,
            window: 25,
        });
        let nl = map_netlist(&raw, &lib).expect("maps");
        let mut eng = ImplicationEngine::new(&nl, &lib);
        let before: Vec<Dual> = nl.net_ids().map(|n| eng.value(n)).collect();
        let mark = eng.mark();
        let mut mask = Mask::BOTH;
        for (i, &pi) in nl.inputs().iter().enumerate() {
            let want = if i == 0 {
                Dual::transition(false)
            } else {
                Dual::stable(i % 2 == 0)
            };
            let conflicts = eng.assign(pi, want, mask);
            mask = mask.minus(conflicts);
            if !mask.any() {
                break;
            }
        }
        eng.rollback(mark);
        for (n, &old) in nl.net_ids().zip(&before) {
            prop_assert_eq!(eng.value(n), old, "net {} not restored", n);
        }
    }

    /// The toggle analysis is sound against concrete two-pattern
    /// simulation: a `Zero` net never changes value when the source flips,
    /// and a `One` net always does.
    #[test]
    fn toggle_analysis_is_sound(seed in 0u64..40, pattern in 0u64..256) {
        let lib = Library::standard();
        let raw = random_logic(&RandParams {
            name: "prop".into(),
            inputs: 8,
            outputs: 4,
            gates: 80,
            seed,
            window: 30,
        });
        let nl = map_netlist(&raw, &lib).expect("maps");
        let src = nl.inputs()[0];
        let deltas = toggle_analysis(&nl, &lib, src);
        // Two-pattern evaluation: source 0 vs source 1, other PIs fixed.
        let assign = |src_val: bool| -> Vec<bool> {
            nl.inputs()
                .iter()
                .enumerate()
                .map(|(i, _)| if i == 0 { src_val } else { pattern >> i & 1 == 1 })
                .collect()
        };
        // Evaluate every net (not only POs): reuse the library evaluator
        // through per-net inspection via outputs of a netlist clone with
        // all nets marked out would be invasive — instead compute values
        // manually.
        let values = |assignment: &[bool]| -> Vec<bool> {
            let mut value = vec![false; nl.num_nets()];
            for (&net, &v) in nl.inputs().iter().zip(assignment) {
                value[net.index()] = v;
            }
            for g in nl.topo_gates() {
                let gate = nl.gate(g);
                let ins: Vec<bool> = gate.inputs().iter().map(|n| value[n.index()]).collect();
                value[gate.output().index()] = match gate.kind() {
                    sta_netlist::GateKind::Cell(c) => lib.cell(c).eval(&ins),
                    sta_netlist::GateKind::Prim(op) => op.eval(&ins),
                };
            }
            value
        };
        let v0 = values(&assign(false));
        let v1 = values(&assign(true));
        for n in nl.net_ids() {
            let flipped = v0[n.index()] != v1[n.index()];
            match deltas[n.index()] {
                Toggle::Zero => prop_assert!(!flipped, "Zero net {} flipped", n),
                Toggle::One => prop_assert!(flipped, "One net {} did not flip", n),
                Toggle::Unknown => {}
            }
        }
    }
}

/// The exact engine alone refutes justification candidates, per launch
/// polarity. On AND(a, b) with a = 0 propagated, a candidate requiring
/// the output at 1 conflicts while one setting b = 1 does not. With a = 0
/// known under the rising launch only, requiring the output at 1
/// conflicts under that launch alone, and the falling analysis lives on.
#[test]
fn engine_refutes_exactly_the_contradicted_candidates() {
    let lib = Library::standard();
    let mut nl = sta_netlist::Netlist::new("t");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let and2 = lib.cell_by_name("AND2").unwrap().id();
    let z = nl
        .add_gate(sta_netlist::GateKind::Cell(and2), &[a, b], Some("z"))
        .unwrap();
    nl.mark_output(z);

    let mut eng = ImplicationEngine::new(&nl, &lib);
    let unconstrained = eng.mark();
    for (net, v) in [(a, true), (a, false), (b, true), (z, true)] {
        let mark = eng.mark();
        let conflicts = eng.assign(net, Dual::stable(v), Mask::BOTH);
        assert_eq!(conflicts, Mask::NONE, "all-X admits {net} = {v}");
        eng.rollback(mark);
    }

    assert_eq!(eng.assign(a, Dual::stable(false), Mask::BOTH), Mask::NONE);
    let known = eng.mark();
    assert_eq!(eng.assign(z, Dual::stable(true), Mask::BOTH), Mask::BOTH);
    eng.rollback(known);
    assert_eq!(eng.assign(b, Dual::stable(true), Mask::BOTH), Mask::NONE);
    assert_eq!(eng.value(z), Dual::stable(false), "z = 0 through the AND");

    eng.rollback(unconstrained);
    let rising_only = Dual {
        r: V9::S0,
        f: V9::XX,
    };
    assert_eq!(eng.assign(a, rising_only, Mask::BOTH), Mask::NONE);
    let known = eng.mark();
    let conflicts = eng.assign(z, Dual::stable(true), Mask::BOTH);
    assert_eq!(conflicts, Mask { r: true, f: false }, "rising launch only");
    assert!(Mask::BOTH.minus(conflicts).any(), "falling analysis lives");
    eng.rollback(known);
    assert_eq!(eng.assign(z, Dual::stable(false), Mask::BOTH), Mask::NONE);
}
