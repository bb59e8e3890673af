//! Interval abstract-interpretation enclosure properties on random logic.
//!
//! The `--audit-flow` soundness argument (DESIGN.md §5.11) rests on two
//! claims this file pins on generated netlists rather than the fixed
//! catalog:
//!
//! 1. **Table identity**: the swept per-arc interval tables, and the
//!    arc-bound table of the dominance cut with its per-net slew hulls,
//!    are bit-identical whether the underlying delay model is evaluated
//!    through the interpreted fitted polynomials or the corner-compiled
//!    kernels — neither the audit nor the cut depends on which engine
//!    evaluated the model.
//! 2. **Enclosure**: every certificate the enumeration engine emits —
//!    at any thread count — lies inside the single-source abstract
//!    intervals (endpoint arrival and slew, and every per-stage delay),
//!    and the engine's own structural pruning bound dominates the
//!    interval hull.

use std::sync::OnceLock;

use proptest::prelude::*;
use sta_cells::{Corner, Library, Technology};
use sta_charlib::{characterize, CharConfig, TimingLibrary};
use sta_circuits::map_netlist;
use sta_circuits::randlogic::{random_logic, RandParams};
use sta_core::{
    arc_bounds, arc_bounds_compiled, arc_intervals, arc_intervals_compiled, static_bounds,
    static_bounds_compiled, CertificateSet, EnumerationConfig, PathEnumerator, ARC_SWEEP_MARGIN,
};

const INPUT_SLEW: f64 = 60.0;

fn fast_tlib() -> &'static TimingLibrary {
    static TLIB: OnceLock<TimingLibrary> = OnceLock::new();
    TLIB.get_or_init(|| {
        characterize(
            &Library::standard(),
            &Technology::n90(),
            &CharConfig::fast(),
        )
        .expect("characterization succeeds")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn random_logic_certificates_are_enclosed(
        seed in 0u64..1_000,
        gates in 30usize..120,
    ) {
        let lib = Library::standard();
        let tlib = fast_tlib();
        let corner = Corner::nominal(&Technology::n90());
        let prim = random_logic(&RandParams {
            name: format!("rand{seed}"),
            inputs: 6,
            outputs: 4,
            gates,
            seed,
            window: 12,
        });
        let nl = map_netlist(&prim, &lib).expect("random logic maps");

        // Claim 1: interpreted and compiled tables are bit-identical.
        let arcs = arc_intervals(&nl, tlib, corner, INPUT_SLEW, ARC_SWEEP_MARGIN);
        let kernel = tlib.compile_corner(corner);
        let compiled =
            arc_intervals_compiled(&nl, tlib, &kernel, INPUT_SLEW, ARC_SWEEP_MARGIN);
        let bounds = arc_bounds(&nl, tlib, corner, INPUT_SLEW, ARC_SWEEP_MARGIN);
        let bounds_compiled =
            arc_bounds_compiled(&nl, tlib, &kernel, INPUT_SLEW, ARC_SWEEP_MARGIN);
        prop_assert_eq!(arcs.num_gates(), nl.num_gates());
        for gid in nl.gate_ids() {
            let pins = nl.gate(gid).inputs().len() as u8;
            for pin in 0..pins {
                prop_assert_eq!(arcs.num_vectors(gid, pin), compiled.num_vectors(gid, pin));
                for v in 0..arcs.num_vectors(gid, pin) {
                    let (a, b) = (arcs.get(gid, pin, v), compiled.get(gid, pin, v));
                    prop_assert_eq!(a.delay_lo.to_bits(), b.delay_lo.to_bits());
                    prop_assert_eq!(a.delay_hi.to_bits(), b.delay_hi.to_bits());
                    prop_assert_eq!(a.slew_lo.to_bits(), b.slew_lo.to_bits());
                    prop_assert_eq!(a.slew_hi.to_bits(), b.slew_hi.to_bits());
                    prop_assert_eq!(
                        bounds.get(gid, pin, v).to_bits(),
                        bounds_compiled.get(gid, pin, v).to_bits()
                    );
                }
            }
        }
        let bits = |r: Option<(f64, f64)>| r.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()));
        for net in nl.net_ids() {
            prop_assert_eq!(
                bits(bounds.slew_range(net)),
                bits(bounds_compiled.slew_range(net))
            );
        }

        // Claim 2a: 100 % certificate enclosure at every thread count.
        for threads in [1usize, 2, 4] {
            let cfg = EnumerationConfig::new(corner)
                .with_threads(threads)
                .with_n_worst(25);
            let (paths, _) = PathEnumerator::new(&nl, &lib, tlib, cfg).run();
            let certs = CertificateSet::new(&nl, INPUT_SLEW, paths);
            let out =
                sta_lint::audit_certificates(&nl, "rand", &compiled, &certs, INPUT_SLEW);
            prop_assert!(out.diagnostics.is_empty(), "t={threads}: {:?}", out.diagnostics);
            prop_assert_eq!(out.enclosed, out.certificates);
        }

        // Claim 2b: the pruning bound dominates the hull — through both
        // delay-model engines.
        let hull = sta_lint::hull(&nl, &compiled, INPUT_SLEW);
        let prune_margin = EnumerationConfig::new(corner).prune_margin;
        for st in [
            static_bounds(&nl, tlib, corner, INPUT_SLEW, prune_margin),
            static_bounds_compiled(&nl, tlib, &kernel, INPUT_SLEW, prune_margin),
        ] {
            let ds = sta_lint::audit_structural_dominance("rand", &nl, &hull, &st);
            prop_assert!(ds.is_empty(), "{ds:?}");
        }
    }
}
