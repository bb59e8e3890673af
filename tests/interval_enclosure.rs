//! Interval abstract-interpretation enclosure properties on random logic.
//!
//! The `--audit-flow` soundness argument (DESIGN.md §5.11) rests on an
//! enclosure claim this file pins on generated netlists rather than the
//! fixed catalog: every certificate the enumeration engine emits — at
//! any thread count — lies inside the single-source abstract intervals
//! (endpoint arrival and slew, and every per-stage delay), and the
//! structural static bound at the configuration's `prune_margin`
//! dominates the interval hull. Every table reads the corner-compiled
//! kernel the search reads.

use std::sync::OnceLock;

use proptest::prelude::*;
use sta_cells::{Corner, Library, Technology};
use sta_charlib::{characterize, CharConfig, TimingLibrary};
use sta_circuits::map_netlist;
use sta_circuits::randlogic::{random_logic, RandParams};
use sta_core::{
    arc_intervals_compiled, static_bounds_compiled, CertificateSet, EnumerationConfig,
    PathEnumerator, ARC_SWEEP_MARGIN,
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

        let kernel = tlib.compile_corner(corner);
        let arcs = arc_intervals_compiled(&nl, tlib, &kernel, INPUT_SLEW, ARC_SWEEP_MARGIN);
        prop_assert_eq!(arcs.num_gates(), nl.num_gates());

        // 100 % certificate enclosure at every thread count.
        for threads in [1usize, 2, 4] {
            let cfg = EnumerationConfig::new(corner)
                .with_threads(threads)
                .with_n_worst(25);
            let (paths, _) = PathEnumerator::new(&nl, &lib, tlib, cfg).run();
            let certs = CertificateSet::new(&nl, INPUT_SLEW, paths);
            let out = sta_lint::audit_certificates(&nl, "rand", &arcs, &certs, INPUT_SLEW);
            prop_assert!(out.diagnostics.is_empty(), "t={threads}: {:?}", out.diagnostics);
            prop_assert_eq!(out.enclosed, out.certificates);
        }

        // The structural bound at `prune_margin` dominates the hull.
        let hull = sta_lint::hull(&nl, &arcs, INPUT_SLEW);
        let prune_margin = EnumerationConfig::new(corner).prune_margin;
        let st = static_bounds_compiled(&nl, tlib, &kernel, INPUT_SLEW, prune_margin);
        let ds = sta_lint::audit_structural_dominance("rand", &nl, &hull, &st);
        prop_assert!(ds.is_empty(), "{ds:?}");
    }
}
