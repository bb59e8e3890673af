//! The N-worst search against an unpruned referee, and the completeness
//! verdict that says when such a comparison means anything.
//!
//! In N-worst mode the search prunes with the per-arc dominance cut and
//! the per-source tightened remaining bound (`sta_core::arrival`). Full
//! enumeration runs neither, so its first N paths in canonical order are
//! exactly what a sound cut must return. These tests compare the two
//! byte for byte over the serialized certificate set, at 1, 2 and 4
//! threads, on catalog circuits and on random mapped logic, at 5, 60 and
//! 400 ps primary-input slews. Both sides must be complete runs (no
//! budget trip, no aborted justification call): an incomplete referee
//! proves nothing.
//!
//! The full enumeration also checks the table the cut trusts: every
//! stage of every path it finds takes its input slew from inside the
//! slew hull of its input net, and takes no longer than its arc's bound.

use std::sync::OnceLock;

use proptest::prelude::*;

use sta_cells::{Corner, Edge, Library, Technology};
use sta_charlib::{characterize, CharConfig, TimingLibrary};
use sta_circuits::randlogic::{random_logic, RandParams};
use sta_circuits::{catalog, map_netlist};
use sta_core::{
    arc_bounds_compiled, path_delay, CertificateSet, EnumerationConfig, PathEnumerator, TruePath,
    ARC_SWEEP_MARGIN,
};
use sta_netlist::Netlist;

fn setup() -> (&'static Library, &'static TimingLibrary, Technology) {
    static LIB: OnceLock<Library> = OnceLock::new();
    static TLIB: OnceLock<TimingLibrary> = OnceLock::new();
    let tech = Technology::n90();
    let lib = LIB.get_or_init(Library::standard);
    let tlib = TLIB.get_or_init(|| {
        characterize(lib, &tech, &CharConfig::fast()).expect("characterization succeeds")
    });
    (lib, tlib, tech)
}

fn certificates(nl: &Netlist, cfg: &EnumerationConfig, paths: Vec<TruePath>) -> String {
    CertificateSet::new(nl, cfg.input_slew, paths).to_json()
}

/// The primary-input slews, ps, every referee case runs at.
const INPUT_SLEWS: [f64; 3] = [60.0, 5.0, 400.0];

/// Checks that the arc-bound table the dominance cut uses encloses every
/// stage of `paths`: the stage's input slew lies in its input net's slew
/// hull, and its delay is at most its arc's bound.
fn check_bound_table(
    nl: &Netlist,
    cfg: &EnumerationConfig,
    paths: &[TruePath],
    what: &str,
) -> Result<(), String> {
    let (_, tlib, _) = setup();
    let kernel = tlib.compile_corner(cfg.corner);
    let bounds = arc_bounds_compiled(nl, tlib, &kernel, cfg.input_slew, ARC_SWEEP_MARGIN);
    for path in paths {
        for (launch, timing) in [(Edge::Rise, &path.rise), (Edge::Fall, &path.fall)] {
            if timing.is_none() {
                continue;
            }
            let delays = path_delay(nl, tlib, path, launch, cfg.input_slew, cfg.corner)
                .map_err(|e| format!("{what}: {e}"))?;
            let mut slew_in = cfg.input_slew;
            for (arc, &(delay, slew_out)) in path.arcs.iter().zip(&delays.stages) {
                let net = nl.gate(arc.gate).inputs()[arc.pin as usize];
                match bounds.slew_range(net) {
                    Some((lo, hi)) if lo <= slew_in && slew_in <= hi => {}
                    range => {
                        return Err(format!(
                            "{what}: {launch:?} launch of a path from net {}: input slew \
                             {slew_in} ps of gate {} pin {} lies outside the hull {range:?}",
                            path.source.index(),
                            arc.gate.index(),
                            arc.pin
                        ))
                    }
                }
                let bound = bounds.get(arc.gate, arc.pin, arc.vector);
                if delay > bound {
                    return Err(format!(
                        "{what}: {launch:?} launch of a path from net {}: delay {delay} ps of \
                         gate {} pin {} vector {} exceeds its arc bound {bound} ps",
                        path.source.index(),
                        arc.gate.index(),
                        arc.pin,
                        arc.vector
                    ));
                }
                slew_in = slew_out;
            }
        }
    }
    Ok(())
}

/// Checks every N in `ns` at 1, 2 and 4 threads against one complete
/// full enumeration of `nl` at `input_slew`, and the arc-bound table
/// against every path of that enumeration. Returns the first mismatch as
/// an error message, so the proptest below can report its case.
fn referee(nl: &Netlist, what: &str, ns: &[usize], input_slew: f64) -> Result<(), String> {
    let (lib, tlib, tech) = setup();
    let what = &format!("{what} at {input_slew} ps");
    // No per-call effort cap: c432's full enumeration drops three calls
    // at the default cap, which would leave the referee incomplete.
    let mut cfg = EnumerationConfig::new(Corner::nominal(&tech));
    cfg.justify_decision_limit = 0;
    cfg.input_slew = input_slew;
    let (all, stats) = PathEnumerator::new(nl, lib, tlib, cfg.clone()).run();
    if !stats.complete() {
        return Err(format!(
            "{what}: the full enumeration is incomplete: {stats:?}"
        ));
    }
    check_bound_table(nl, &cfg, &all, what)?;
    for &n in ns {
        let want = certificates(nl, &cfg, all.iter().take(n).cloned().collect());
        for threads in [1, 2, 4] {
            let cfg = cfg.clone().with_n_worst(n).with_threads(threads);
            let (paths, stats) = PathEnumerator::new(nl, lib, tlib, cfg.clone()).run();
            if !stats.complete() {
                return Err(format!(
                    "{what} N={n} {threads} threads: incomplete: {stats:?}"
                ));
            }
            if certificates(nl, &cfg, paths) != want {
                return Err(format!(
                    "{what} N={n} {threads} threads: the N-worst certificates differ \
                     from the first {n} paths of the full enumeration"
                ));
            }
        }
    }
    Ok(())
}

fn referee_catalog(name: &str, ns: &[usize]) {
    let (lib, _, _) = setup();
    let nl = catalog::mapped(name, lib).unwrap().unwrap();
    for input_slew in INPUT_SLEWS {
        referee(&nl, name, ns, input_slew).unwrap();
    }
}

#[test]
fn c17_nworst_matches_the_full_enumeration() {
    referee_catalog("c17", &[1, 3]);
}

#[test]
fn sample_nworst_matches_the_full_enumeration() {
    referee_catalog("sample", &[5]);
}

/// Release-only: the unoptimized c432 full enumerations and their
/// N-worst runs cost minutes and add no coverage the release pass lacks.
#[cfg(not(debug_assertions))]
#[test]
fn c432_nworst_matches_the_full_enumeration() {
    referee_catalog("c432", &[25, 50]);
}

/// A justification call dropped at the per-call effort cap discards its
/// subtree unexplored, without tripping the run budget. Such a run is
/// not complete, and says so.
#[test]
fn aborted_justification_marks_the_run_incomplete() {
    let (lib, tlib, tech) = setup();
    let nl = catalog::mapped("c432", lib).unwrap().unwrap();
    let mut cfg = EnumerationConfig::new(Corner::nominal(&tech)).with_n_worst(10);
    cfg.justify_decision_limit = 1;
    let (_, stats) = PathEnumerator::new(&nl, lib, tlib, cfg).run();
    assert!(!stats.truncated, "no run budget bites: {stats:?}");
    assert!(
        stats.justify_aborts > 0,
        "calls abort at the cap: {stats:?}"
    );
    assert!(
        !stats.complete(),
        "an aborted call makes the run incomplete"
    );
}

#[test]
fn default_c17_run_is_complete() {
    let (lib, tlib, tech) = setup();
    let nl = catalog::mapped("c17", lib).unwrap().unwrap();
    let cfg = EnumerationConfig::new(Corner::nominal(&tech));
    let (paths, stats) = PathEnumerator::new(&nl, lib, tlib, cfg).run();
    assert!(!paths.is_empty());
    assert!(stats.complete(), "{stats:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random mapped logic: every N-worst answer is a prefix of the full
    /// enumeration, at every thread count.
    #[test]
    fn random_logic_nworst_matches_the_full_enumeration(
        seed in 0u64..1_000,
        gates in 10usize..41,
        inputs in 3usize..9,
    ) {
        let (lib, _, _) = setup();
        let params = RandParams {
            name: format!("referee_{seed}"),
            inputs,
            outputs: 2,
            gates,
            seed,
            window: 8,
        };
        let nl = map_netlist(&random_logic(&params), lib).expect("mapping succeeds");
        for input_slew in INPUT_SLEWS {
            let checked = referee(&nl, &format!("seed {seed}"), &[1, 3, 10], input_slew);
            prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }
    }
}
