//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

use sta_cells::func::{Expr, TernaryTable, TruthTable};
use sta_cells::sensitization::enumerate;
use sta_cells::topology::CellTopology;
use sta_cells::{Edge, Library};
use sta_charlib::poly::{PolyModel, Sample};
use sta_charlib::Lut2d;
use sta_circuits::map_netlist;
use sta_circuits::randlogic::{random_logic, RandParams};
use sta_esim::Waveform;
use sta_logic::{
    eval_expr_v9, eval_table_dual, BitSim, Dual, ImplicationEngine, Mask, Schedule, TriVal, V9,
};
use sta_netlist::bench_fmt;

/// A strategy for random cell expressions over up to 4 pins.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = (0u8..4).prop_map(Expr::Pin);
    leaf.prop_recursive(3, 12, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| e.not()),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Expr::And),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Expr::Or),
            prop::collection::vec(inner, 2..3).prop_map(Expr::Xor),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truth tables agree with direct expression evaluation.
    #[test]
    fn truth_table_matches_eval(expr in arb_expr()) {
        let tt = TruthTable::from_expr(&expr, 4);
        for row in 0..16u32 {
            let pins: Vec<bool> = (0..4).map(|k| row & (1 << k) != 0).collect();
            prop_assert_eq!(tt.value(row), expr.eval(&pins));
        }
    }

    /// Every enumerated sensitization vector really propagates a
    /// transition: flipping the pin under the vector's side values flips
    /// the output.
    #[test]
    fn sensitization_vectors_are_sound_and_complete(expr in arb_expr()) {
        let tt = TruthTable::from_expr(&expr, 4);
        let arcs = enumerate(&tt);
        for pa in &arcs {
            let mut count = 0usize;
            for side in 0u32..8 {
                // Build the full assignment with pin = 0 / 1.
                let side_pins: Vec<u8> = (0..4).filter(|&p| p != pa.pin).collect();
                let mut row0 = 0u32;
                for (k, &p) in side_pins.iter().enumerate() {
                    if side & (1 << k) != 0 {
                        row0 |= 1 << p;
                    }
                }
                if tt.value(row0) != tt.value(row0 | (1 << pa.pin)) {
                    count += 1;
                }
            }
            prop_assert_eq!(pa.vectors.len(), count, "pin {}", pa.pin);
        }
    }

    /// The derived CMOS topology computes the same function as the
    /// expression, for every input pattern.
    #[test]
    fn topology_realizes_the_function(expr in arb_expr()) {
        let tt = TruthTable::from_expr(&expr, 4);
        let topo = CellTopology::derive(&expr);
        for row in 0..16u32 {
            let pins: Vec<bool> = (0..4).map(|k| row & (1 << k) != 0).collect();
            prop_assert_eq!(topo.eval(&pins), tt.value(row));
        }
    }

    /// Nine-valued evaluation is consistent with Boolean evaluation on
    /// fully-defined values (stable or transition in both frames).
    #[test]
    fn v9_eval_projects_to_boolean(expr in arb_expr(), row0 in 0u32..16, row1 in 0u32..16) {
        let pins9: Vec<V9> = (0..4)
            .map(|k| {
                let a = row0 & (1 << k) != 0;
                let b = row1 & (1 << k) != 0;
                match (a, b) {
                    (false, false) => V9::S0,
                    (true, true) => V9::S1,
                    (false, true) => V9::R,
                    (true, false) => V9::F,
                }
            })
            .collect();
        let out = eval_expr_v9(&expr, &pins9);
        let pins_init: Vec<bool> = (0..4).map(|k| row0 & (1 << k) != 0).collect();
        let pins_fin: Vec<bool> = (0..4).map(|k| row1 & (1 << k) != 0).collect();
        let want_init = expr.eval(&pins_init);
        let want_fin = expr.eval(&pins_fin);
        prop_assert_eq!(out.init(), sta_logic::TriVal::from_bool(want_init));
        prop_assert_eq!(out.fin(), sta_logic::TriVal::from_bool(want_fin));
    }

    /// A ternary table evaluates like the expression tree on random
    /// nine-valued pins, semi-undetermined values included.
    #[test]
    fn ternary_table_matches_v9_eval(expr in arb_expr(), codes in prop::collection::vec(0usize..9, 4..5)) {
        let tri = [TriVal::Zero, TriVal::One, TriVal::X];
        let pins9: Vec<V9> = codes.iter().map(|&c| V9::new(tri[c / 3], tri[c % 3])).collect();
        let table = TernaryTable::from_expr(&expr, 4);
        let duals: Vec<Dual> = pins9.iter().map(|&v| Dual { r: v, f: v }).collect();
        let out = eval_table_dual(&table, &duals, Mask::BOTH, Dual::XX);
        prop_assert_eq!(out.r, eval_expr_v9(&expr, &pins9), "pins {:?}", pins9);
    }

    /// The technology mapper preserves circuit function on random logic.
    #[test]
    fn mapper_preserves_function(seed in 0u64..50, gates in 20usize..120) {
        let lib = Library::standard();
        let raw = random_logic(&RandParams {
            name: "prop".into(),
            inputs: 8,
            outputs: 4,
            gates,
            seed,
            window: 30,
        });
        let mapped = map_netlist(&raw, &lib).expect("mapping succeeds");
        for k in 0..12u64 {
            let v: Vec<bool> = (0..8)
                .map(|i| (seed ^ k.wrapping_mul(0x9E37_79B9)) >> (i + (k as usize % 3)) & 1 == 1)
                .collect();
            prop_assert_eq!(raw.eval_prim(&v), lib.eval_netlist(&mapped, &v));
        }
    }

    /// `.bench` writing and re-parsing round-trips random logic.
    #[test]
    fn bench_roundtrip(seed in 0u64..50) {
        let raw = random_logic(&RandParams {
            name: "rt".into(),
            inputs: 6,
            outputs: 3,
            gates: 40,
            seed,
            window: 20,
        });
        let text = bench_fmt::write(&raw);
        let back = bench_fmt::parse(&text, "rt").expect("round-trip parses");
        prop_assert_eq!(back.num_gates(), raw.num_gates());
        for k in 0..8u64 {
            let v: Vec<bool> = (0..6).map(|i| (seed + k) >> i & 1 == 1).collect();
            prop_assert_eq!(back.eval_prim(&v), raw.eval_prim(&v));
        }
    }

    /// Waveform interpolation is monotone between samples and clamps
    /// outside.
    #[test]
    fn waveform_interpolation_bounds(points in prop::collection::vec((0.0f64..1000.0, 0.0f64..1.2), 2..20)) {
        let mut pts = points;
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
        pts.dedup_by(|a, b| (a.0 - b.0).abs() < 1e-9);
        prop_assume!(pts.len() >= 2);
        let w = Waveform::new(pts.clone());
        let (lo, hi) = pts.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), p| {
            (a.min(p.1), b.max(p.1))
        });
        for t in [-10.0, 0.0, 123.4, 999.0, 2000.0] {
            let v = w.at(t);
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
        prop_assert_eq!(w.at(-1e9), pts[0].1);
        prop_assert_eq!(w.at(1e9), pts[pts.len() - 1].1);
    }

    /// Polynomial fit reproduces an exactly-representable function at any
    /// probe point (not just the training grid).
    #[test]
    fn poly_fit_is_exact_for_representable_functions(
        a in -10.0f64..10.0, b in -1.0f64..1.0, c in -0.1f64..0.1,
        probe_fo in 0.5f64..8.0, probe_tin in 10.0f64..400.0,
    ) {
        let truth = |fo: f64, tin: f64| 20.0 + a * fo + b * tin + c * fo * tin;
        let mut samples = Vec::new();
        for fo in [0.5, 1.0, 2.0, 4.0, 8.0] {
            for tin in [10.0, 50.0, 150.0, 400.0] {
                samples.push(Sample {
                    fo,
                    t_in: tin,
                    temperature: 25.0,
                    vdd: 1.0,
                    value: truth(fo, tin),
                });
            }
        }
        let m = PolyModel::fit(&samples, [1, 1, 0, 0]).expect("well-conditioned fit");
        let got = m.eval(probe_fo, probe_tin, 25.0, 1.0);
        let want = truth(probe_fo, probe_tin);
        prop_assert!((got - want).abs() < 1e-6 * (1.0 + want.abs()), "{got} vs {want}");
    }

    /// LUT interpolation is exact on bilinear functions and never leaves
    /// the convex hull of the tabulated values.
    #[test]
    fn lut_interpolation_bounds(q in 0.1f64..10.0, r in 0.01f64..1.0, fo in 0.0f64..10.0, tin in 0.0f64..600.0) {
        let lut = Lut2d::tabulate(
            vec![0.5, 2.0, 5.0, 8.0],
            vec![10.0, 100.0, 300.0, 500.0],
            |f, t| q * f + r * t,
        );
        let v = lut.eval(fo, tin);
        let lo = q * 0.5 + r * 10.0 - 1e-9;
        let hi = q * 8.0 + r * 500.0 + 1e-9;
        prop_assert!(v >= lo && v <= hi);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Cone extraction preserves the function of the extracted outputs.
    #[test]
    fn cone_extraction_preserves_function(seed in 0u64..30) {
        let raw = random_logic(&RandParams {
            name: "cone".into(),
            inputs: 7,
            outputs: 4,
            gates: 50,
            seed,
            window: 25,
        });
        let root = raw.outputs()[0];
        let cone = sta_netlist::cone::extract_cone(&raw, &[root]).expect("extracts");
        prop_assert!(cone.num_gates() <= raw.num_gates());
        // Build the cone's input assignment from the full assignment by
        // name, then compare the root's value.
        for k in 0..8u64 {
            let full: Vec<bool> = (0..7).map(|i| (seed + 3 * k) >> i & 1 == 1).collect();
            let full_out = raw.eval_prim(&full);
            let cone_assign: Vec<bool> = cone
                .inputs()
                .iter()
                .map(|&ci| {
                    let name = cone.net(ci).name().expect("cone inputs are named");
                    let oi = raw.net_by_name(name).expect("name exists in original");
                    let pos = raw.inputs().iter().position(|&n| n == oi);
                    match pos {
                        Some(p) => full[p],
                        // Cone inputs that are internal nets of the
                        // original cannot occur: extraction recurses to
                        // primary inputs.
                        None => unreachable!("cone input is an original PI"),
                    }
                })
                .collect();
            let cone_out = cone.eval_prim(&cone_assign);
            prop_assert_eq!(cone_out[0], full_out[0]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The 64-lane packed forward simulation agrees lane-by-lane with the
    /// nine-valued engine's forward simulation of the same stable/X input
    /// vector — every lane, every driven net, X propagation included.
    #[test]
    fn bitsim_matches_engine_lane_by_lane(seed in 0u64..30, gates in 20usize..60) {
        let lib = Library::standard();
        let raw = random_logic(&RandParams {
            name: "bp".into(),
            inputs: 6,
            outputs: 3,
            gates,
            seed,
            window: 20,
        });
        let nl = map_netlist(&raw, &lib).expect("mapping succeeds");
        let sched = Schedule::compile(&nl, &lib);

        // Per input, 64 lanes of three-valued stimulus: bit i of `ones`
        // is the lane's value, bit i of `xs` forces the lane to X.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let stimuli: Vec<(u64, u64)> = nl.inputs().iter().map(|_| (next(), next())).collect();

        let mut sim = BitSim::new(&sched);
        sim.begin(&sched);
        for (&pi, &(ones, xs)) in nl.inputs().iter().zip(&stimuli) {
            sim.require(pi, ones & !xs, TriVal::One);
            sim.require(pi, !ones & !xs, TriVal::Zero);
        }
        let dead = sim.run(&sched, !0);
        prop_assert_eq!(dead, 0, "PI-only seeding cannot conflict");

        let mut eng = ImplicationEngine::new(&nl, &lib);
        for lane in 0..64u32 {
            eng.reset();
            for (&pi, &(ones, xs)) in nl.inputs().iter().zip(&stimuli) {
                if xs >> lane & 1 == 1 {
                    continue;
                }
                eng.assign(pi, Dual::stable(ones >> lane & 1 == 1), Mask::BOTH);
            }
            for g in nl.topo_gates() {
                let net = nl.gate(g).output();
                // Stable/X inputs keep both polarities and timeframes
                // equal, so any single component is the whole value.
                let want = eng.value(net).r.init();
                prop_assert_eq!(
                    sim.get(net, lane),
                    Some(want),
                    "lane {} of net {}",
                    lane,
                    nl.net_label(net)
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The `.bench` parser never panics on arbitrary input — it returns
    /// structured errors instead.
    #[test]
    fn bench_parser_is_panic_free(text in "[ -~\n]{0,200}") {
        let _ = bench_fmt::parse(&text, "fuzz");
    }

    /// The structural-Verilog parser never panics on arbitrary input.
    #[test]
    fn verilog_parser_is_panic_free(text in "[ -~\n]{0,200}") {
        let _ = sta_netlist::verilog::parse_module(&text);
    }
}

/// Edge algebra is an involution and polarity application commutes.
#[test]
fn edge_involution() {
    for e in Edge::BOTH {
        assert_eq!(e.invert().invert(), e);
    }
}
