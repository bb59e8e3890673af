//! Enumeration is byte-identical at any thread count.
//!
//! The work-stealing pool (see `sta-core`'s `parallel` module) claims
//! that `PathEnumerator::run` produces the same path list at any thread
//! count, and that in full enumeration even the `run_with` *stream* is
//! identical. These tests pin both claims on catalog circuits and on
//! randomly generated logic, and pin the run-wide budget rule: a
//! truncated run is reproducible at one thread and bounded at any.

use std::sync::OnceLock;

use proptest::prelude::*;

use sta_cells::{Corner, Library, Technology};
use sta_charlib::{characterize, CharConfig, TimingLibrary};
use sta_circuits::randlogic::{random_logic, RandParams};
use sta_circuits::{catalog, map_netlist};
use sta_core::{CertificateSet, EnumerationConfig, EnumerationStats, PathEnumerator, TruePath};
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

fn run_at(
    nl: &Netlist,
    lib: &Library,
    tlib: &TimingLibrary,
    cfg: &EnumerationConfig,
    threads: usize,
) -> (Vec<TruePath>, EnumerationStats) {
    let cfg = cfg.clone().with_threads(threads);
    PathEnumerator::new(nl, lib, tlib, cfg).run()
}

/// Byte-level equality via the serialized form — stricter than
/// `PartialEq` in that it also covers field ordering and formatting of
/// every float.
fn bytes(paths: &[TruePath]) -> String {
    serde_json::to_string(paths).expect("paths serialize")
}

/// Full enumeration: identical path lists at 1/2/4 threads on catalog
/// circuits, and the `run_with` stream itself is in the 1-thread order.
#[test]
fn full_enumeration_is_byte_identical_across_thread_counts() {
    let (lib, tlib, tech) = setup();
    for name in ["c17", "sample"] {
        let nl = catalog::mapped(name, lib).unwrap().unwrap();
        let cfg = EnumerationConfig::new(Corner::nominal(&tech));
        let (one, one_stats) = run_at(&nl, lib, tlib, &cfg, 1);
        assert!(!one.is_empty(), "{name}: 1-thread run found paths");
        for threads in [2, 4] {
            let (par, par_stats) = run_at(&nl, lib, tlib, &cfg, threads);
            assert_eq!(
                bytes(&one),
                bytes(&par),
                "{name}: {threads}-thread run() differs from 1 thread"
            );
            // Search effort is schedule-independent in full enumeration;
            // only the cache-hit counter depends on how the roots were
            // partitioned over workers.
            let mut normalized = par_stats;
            normalized.justify_cache_hits = one_stats.justify_cache_hits;
            assert_eq!(one_stats, normalized, "{name}: {threads}-thread stats");

            // The streamed emission order equals the 1-thread order, not
            // just the sorted result.
            let mut one_stream = Vec::new();
            PathEnumerator::new(&nl, lib, tlib, cfg.clone()).run_with(|p| one_stream.push(p));
            let mut par_stream = Vec::new();
            PathEnumerator::new(&nl, lib, tlib, cfg.clone().with_threads(threads))
                .run_with(|p| par_stream.push(p));
            assert_eq!(
                bytes(&one_stream),
                bytes(&par_stream),
                "{name}: {threads}-thread run_with stream differs"
            );
        }
    }
}

/// N-worst mode: the shared atomic bound prunes differently per
/// schedule, but the final result is still byte-identical.
#[test]
fn n_worst_is_byte_identical_across_thread_counts() {
    let (lib, tlib, tech) = setup();
    for (name, n) in [("c17", 3), ("c432", 40)] {
        let nl = catalog::mapped(name, lib).unwrap().unwrap();
        let cfg = EnumerationConfig::new(Corner::nominal(&tech)).with_n_worst(n);
        let (one, _) = run_at(&nl, lib, tlib, &cfg, 1);
        assert_eq!(one.len(), n, "{name}: expected {n} worst paths");
        for threads in [2, 4] {
            let (par, _) = run_at(&nl, lib, tlib, &cfg, threads);
            assert_eq!(
                bytes(&one),
                bytes(&par),
                "{name}: {threads}-thread n-worst run differs from 1 thread"
            );
        }
    }
}

/// An untruncated 1-thread N-worst search is pinned decision for
/// decision. Every justification candidate is counted as the exact
/// engine attempts it, so a change that adds, skips or re-counts search
/// work moves `stats.decisions` even when the paths stay the same.
#[test]
fn n_worst_search_effort_is_pinned_at_one_thread() {
    let (lib, tlib, tech) = setup();
    let nl = catalog::mapped("c432", lib).unwrap().unwrap();
    let cfg = EnumerationConfig::new(Corner::nominal(&tech)).with_n_worst(50);
    let (paths, stats) = run_at(&nl, lib, tlib, &cfg, 1);
    assert!(!stats.truncated, "no budget is set");
    assert_eq!(paths.len(), 50, "expected 50 worst paths");
    assert_eq!(stats.decisions, 46_418, "1-thread search effort");
    let certs = CertificateSet::new(&nl, cfg.input_slew, paths).to_json();
    assert_eq!(
        sta_obs::digest_string(certs.as_bytes()),
        "fnv1a64:d7b100e3962ab17c",
        "1-thread certificate bytes"
    );
}

/// `max_decisions` bounds the whole run: at one thread a truncated run is
/// reproducible byte for byte, and at any thread count the decisions
/// spent overshoot the budget by at most the work each worker has in
/// flight when it trips — one arc decision and one justification call,
/// which stops one decision past `justify_decision_limit`.
///
/// The 1-thread trip point is pinned: the decision count and the
/// certificate digest are exact values. Every justification candidate
/// is counted as the exact engine attempts it, so a change in how the
/// search counts decisions moves the trip point and fails here.
#[test]
fn decision_budget_bounds_the_whole_run() {
    let (lib, tlib, tech) = setup();
    let nl = catalog::mapped("c432", lib).unwrap().unwrap();
    let mut cfg = EnumerationConfig::new(Corner::nominal(&tech)).with_n_worst(10);
    cfg.max_decisions = 5_000;
    // A small per-call cap keeps the bound tight enough that a budget
    // applied per root task instead of per run overshoots it.
    cfg.justify_decision_limit = 1_000;
    let (a, a_stats) = run_at(&nl, lib, tlib, &cfg, 1);
    let (b, b_stats) = run_at(&nl, lib, tlib, &cfg, 1);
    assert!(a_stats.truncated && b_stats.truncated, "budget must bite");
    assert_eq!(bytes(&a), bytes(&b), "1-thread truncated runs differ");
    assert_eq!(a_stats.decisions, b_stats.decisions);
    assert_eq!(a_stats.decisions, 5073, "1-thread trip point");
    let certs = CertificateSet::new(&nl, cfg.input_slew, a).to_json();
    assert_eq!(
        sta_obs::digest_string(certs.as_bytes()),
        "fnv1a64:f1278492ebea6116",
        "1-thread truncated certificate bytes"
    );
    for threads in [2, 4] {
        let (_, stats) = run_at(&nl, lib, tlib, &cfg, threads);
        assert!(stats.truncated, "{threads} threads: budget must bite");
        let bound = cfg.max_decisions + threads as u64 * (cfg.justify_decision_limit + 2);
        assert!(
            stats.decisions <= bound,
            "{threads} threads: {} decisions exceed {bound}",
            stats.decisions
        );
    }
}

/// `max_paths` bounds the whole run: at one thread a truncated run stops
/// at exactly the cap and is reproducible byte for byte; at any thread
/// count each worker admits at most one path past it.
#[test]
fn path_budget_bounds_the_whole_run() {
    let (lib, tlib, tech) = setup();
    let nl = catalog::mapped("c432", lib).unwrap().unwrap();
    let mut cfg = EnumerationConfig::new(Corner::nominal(&tech));
    cfg.max_paths = Some(100);
    let (a, a_stats) = run_at(&nl, lib, tlib, &cfg, 1);
    let (b, b_stats) = run_at(&nl, lib, tlib, &cfg, 1);
    assert!(a_stats.truncated && b_stats.truncated, "budget must bite");
    assert_eq!(a.len(), 100);
    assert_eq!(bytes(&a), bytes(&b), "1-thread truncated runs differ");
    for threads in [2, 4] {
        let (paths, stats) = run_at(&nl, lib, tlib, &cfg, threads);
        assert!(stats.truncated, "{threads} threads: budget must bite");
        assert!(
            paths.len() < 100 + threads,
            "{threads} threads: {} paths past the cap",
            paths.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random mapped logic: a 2-thread full enumeration equals 1 thread.
    #[test]
    fn random_logic_two_threads_match_one(
        seed in 0u64..1_000,
        gates in 10usize..40,
        inputs in 3usize..6,
    ) {
        let (lib, tlib, tech) = setup();
        let params = RandParams {
            name: format!("rand_{seed}"),
            inputs,
            outputs: 2,
            gates,
            seed,
            window: 8,
        };
        let raw = random_logic(&params);
        let nl = map_netlist(&raw, lib).expect("mapping succeeds");
        let cfg = EnumerationConfig::new(Corner::nominal(&tech));
        let (one, _) = run_at(&nl, lib, tlib, &cfg, 1);
        let (par, _) = run_at(&nl, lib, tlib, &cfg, 2);
        prop_assert_eq!(bytes(&one), bytes(&par), "seed {}", seed);
    }
}
