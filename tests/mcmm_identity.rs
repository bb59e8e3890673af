//! MCMM batch identity oracles.
//!
//! The batch engine (`sta-core`'s `mcmm` module) shares the netlist
//! load, characterization, per-corner kernels and one true-path search
//! per technology across scenarios, and its workers claim the searches
//! in order from a fixed list. None of that sharing may change a single
//! byte of any scenario's result: these tests pin each scenario's
//! `CertificateSet` and search statistics against an independent
//! single-scenario run at batch-thread counts 1/2/4, truncated runs
//! included, and the merged slack report against submission-order
//! permutation.

use std::path::PathBuf;

use proptest::prelude::*;

use sta_cells::{Library, Technology};
use sta_charlib::CharConfig;
use sta_circuits::map_netlist;
use sta_circuits::randlogic::{random_logic, RandParams};
use sta_core::{AnalysisRequest, CertificateSet, CornerDef, Mode, Scenario};
use sta_obs::Observer;

fn cache_dir() -> PathBuf {
    // Share one characterization cache across the identity tests.
    std::env::temp_dir().join("sta-mcmm-identity-cache")
}

/// The test characterization: [`CharConfig::fast`] sampled at two
/// temperatures, 0 and 125 °C, with a linear temperature term. It is the
/// smallest grid on which the 90 nm `typ`, `slow` and `fast` corners time
/// differently: `fast()` samples 25 °C at nominal supply only, so every
/// corner of one technology would time identically and a search shared
/// across corners would go untested. Supply stays at its nominal sample
/// (the models hold boundary values outside the grid).
fn char_config() -> CharConfig {
    CharConfig {
        temp_grid: vec![0.0, 125.0],
        max_orders: [2, 2, 1, 0],
        ..CharConfig::fast()
    }
}

fn request(circuit: &str) -> AnalysisRequest {
    AnalysisRequest::new(circuit)
        .char_config(char_config())
        .cache_dir(cache_dir())
        .n_worst(Some(10))
}

/// `typ`, `slow` and `fast` 90 nm, unconstrained: three operating points
/// of one technology, so one search.
fn three_corners() -> Vec<Scenario> {
    let tech = Technology::n90();
    let corners: Vec<CornerDef> = ["typ", "slow", "fast"]
        .iter()
        .map(|c| CornerDef::parse(c, &tech).expect("corner spec parses"))
        .collect();
    Scenario::matrix(&corners, &[Mode::unconstrained()])
}

/// The 2-corner × 2-mode matrix the tests analyze: nominal and slow
/// 90 nm, unconstrained and a 400 ps clock.
fn matrix() -> Vec<Scenario> {
    let corners = vec![
        CornerDef::nominal(Technology::n90()),
        CornerDef::parse("slow", &Technology::n90()).expect("named corner parses"),
    ];
    let modes = vec![
        Mode::unconstrained(),
        Mode::with_sdc("func", "create_clock -period 400\n"),
    ];
    Scenario::matrix(&corners, &modes)
}

/// Four corner names × three modes over two technologies: `typ` and
/// `90nm` are two names for nominal 90 nm, so three operating points and
/// two searches. The modes cover every requirement source — none, an
/// explicit value, an SDC clock.
fn shared_search_matrix() -> Vec<Scenario> {
    let tech = Technology::n90();
    let corners: Vec<CornerDef> = ["typ", "90nm", "slow", "130nm:slow"]
        .iter()
        .map(|c| CornerDef::parse(c, &tech).expect("corner spec parses"))
        .collect();
    let modes = vec![
        Mode::unconstrained(),
        Mode::with_required("req", 900.0),
        Mode::with_sdc("func", "create_clock -period 400\n"),
    ];
    Scenario::matrix(&corners, &modes)
}

/// An independent single-scenario run: its certificate JSON, emitted
/// path and decision counts, truncation flag, and structural slack
/// report.
struct Single {
    certs: String,
    paths: usize,
    decisions: u64,
    truncated: bool,
    slack: sta_core::SlackReport,
}

fn single(req: AnalysisRequest) -> Single {
    let ctx = req.prepare().unwrap();
    let run = ctx.enumerate();
    let slack = ctx.slack().report;
    Single {
        certs: CertificateSet::new(&ctx.netlist, ctx.input_slew(), run.paths).to_json(),
        paths: run.stats.paths,
        decisions: run.stats.decisions,
        truncated: run.stats.truncated,
        slack,
    }
}

/// Runs `set` on c432 as one batch at batch threads 1/2/4 and checks
/// every scenario against its independent run: certificates, slack, and
/// the emitted path count, decision count and truncation flag its own
/// search would have reached. Returns the independent runs and, per
/// batch width, the batch's observed counters.
fn check_against_singles(
    set: &[Scenario],
    budget: Option<u64>,
) -> (Vec<Single>, Vec<std::collections::BTreeMap<String, u64>>) {
    let req = || request("c432").max_decisions(budget);
    let singles: Vec<Single> = set
        .iter()
        .map(|s| single(req().scenario(s.clone())))
        .collect();
    let mut counters = Vec::new();
    for batch_threads in [1usize, 2, 4] {
        let obs = Observer::enabled();
        let batch = req()
            .scenarios(set.to_vec())
            .batch_threads(batch_threads)
            .observer(obs.clone())
            .run_batch()
            .unwrap();
        for (i, s) in set.iter().enumerate() {
            let what = format!("{} at {batch_threads} batch threads", s.name());
            let stats = &batch.scenarios[i].stats;
            assert_eq!(batch.certificates(i).to_json(), singles[i].certs, "{what}");
            assert_eq!(stats.paths, singles[i].paths, "{what}");
            assert_eq!(stats.decisions, singles[i].decisions, "{what}");
            assert_eq!(stats.truncated, singles[i].truncated, "{what}");
            assert_eq!(batch.scenarios[i].slack, singles[i].slack, "{what}");
        }
        // The batch's searches serve every scenario once, and the
        // observer counts their own effort.
        let mut served: Vec<usize> = batch
            .searches
            .iter()
            .flat_map(|s| s.scenarios.iter().copied())
            .collect();
        served.sort_unstable();
        assert_eq!(served, (0..set.len()).collect::<Vec<_>>());
        let snapshot = obs.metrics_snapshot().counters;
        let effort: u64 = batch.searches.iter().map(|s| s.stats.decisions).sum();
        assert_eq!(snapshot["enumerate.decisions"], effort);
        counters.push(snapshot);
    }
    (singles, counters)
}

/// Runs the shared-search matrix on c432 at batch threads 1/2/4 and
/// checks every scenario against its independent run, plus the sharing
/// counters. Returns the independent runs.
fn check_shared_search(budget: Option<u64>) -> Vec<Single> {
    let (singles, counters) = check_against_singles(&shared_search_matrix(), budget);
    // Scenarios 0 (`typ/…`) and 9 (`130nm:slow/…`) head the two
    // searches; 6 (`slow/…`) shares the first at another operating
    // point. The three must differ for the certificate checks to bite.
    assert_ne!(singles[0].certs, singles[6].certs);
    assert_ne!(singles[0].certs, singles[9].certs);
    for counters in counters {
        assert_eq!(counters["mcmm.scenarios"], 12);
        assert_eq!(counters["mcmm.searches"], 2, "one search per technology");
        // Each shared input is built once: one netlist, one timing library
        // per technology (90 and 130 nm), one kernel per operating point
        // and one parse per distinct SDC text.
        assert_eq!(counters["mcmm.netlist_loads"], 1);
        assert_eq!(counters["mcmm.characterizations"], 2);
        assert_eq!(counters["mcmm.kernel_compiles"], 3);
        assert_eq!(counters["mcmm.sdc_parses"], 1);
    }
    singles
}

/// Three operating points of one technology time differently, run as one
/// search that costs less than the three searches it replaces, and still
/// each equal their independent run — untruncated and under a decision
/// budget, where each corner stops where its own search would.
#[test]
fn corners_of_one_technology_share_one_search() {
    let set = three_corners();
    for budget in [None, Some(5_000)] {
        let (singles, counters) = check_against_singles(&set, budget);
        for (a, b) in [(0, 1), (0, 2), (1, 2)] {
            assert_ne!(singles[a].certs, singles[b].certs, "corners {a} and {b}");
        }
        let independent: u64 = singles.iter().map(|s| s.decisions).sum();
        for counters in counters {
            assert_eq!(counters["mcmm.searches"], 1);
            assert!(
                counters["enumerate.decisions"] < independent,
                "{} decisions shared vs {independent} independent",
                counters["enumerate.decisions"]
            );
        }
        if budget.is_some() {
            assert!(singles.iter().all(|s| s.truncated && s.paths > 0));
        } else {
            // Above one search thread the untruncated answers hold too;
            // the effort counters depend on the schedule there.
            let batch = request("c432")
                .scenarios(set.clone())
                .threads(2)
                .run_batch()
                .unwrap();
            for (i, s) in set.iter().enumerate() {
                assert_eq!(
                    batch.certificates(i).to_json(),
                    singles[i].certs,
                    "{} at 2 search threads",
                    s.name()
                );
            }
        }
    }
}

/// The modes of one operating point share one search, and every scenario
/// still equals its independent run.
#[test]
fn modes_of_one_operating_point_share_one_search() {
    check_shared_search(None);
}

/// Reuse under a decision budget: shared truncated results equal the
/// independent truncated runs, so sharing adds no "untruncated only"
/// caveat.
#[test]
fn shared_search_matches_truncated_independent_runs() {
    for (i, single) in check_shared_search(Some(5_000)).iter().enumerate() {
        assert!(
            single.truncated && single.paths > 0,
            "scenario {i}: the budget must cut the search after some paths"
        );
    }
}

/// The span skeleton is batch-width-invariant: one `scenario` subtree
/// per scenario in submission order, with each technology's search as
/// the `enumerate` child of its first scenario only.
#[test]
fn span_skeleton_is_batch_width_invariant() {
    let set = shared_search_matrix();
    // Fill the characterization cache first, so no run below records
    // characterization spans the others do not.
    request("c17").scenarios(set.clone()).run_batch().unwrap();
    let skeleton = |batch_threads: usize| {
        let obs = Observer::enabled();
        request("c17")
            .scenarios(set.clone())
            .batch_threads(batch_threads)
            .observer(obs.clone())
            .run_batch()
            .unwrap();
        let tree = obs.span_tree();
        assert_eq!(tree.len(), 1);
        tree[0].clone()
    };
    let serial = skeleton(1);
    assert_eq!(serial.structure(), skeleton(2).structure());
    let scenarios: Vec<(String, String)> = serial
        .children
        .iter()
        .filter(|c| c.name == "scenario")
        .map(|c| (c.attrs["scenario"].clone(), c.structure()))
        .collect();
    let expected: Vec<(String, String)> = set
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let search = if [0, 9].contains(&i) {
                "enumerate,"
            } else {
                ""
            };
            (s.name(), format!("scenario({search}slack)"))
        })
        .collect();
    assert_eq!(scenarios, expected);
}

/// Every scenario of a batch is byte-identical (certificate JSON) to an
/// independent single-scenario run, at any batch-thread count.
#[test]
fn batch_certificates_equal_independent_runs_at_any_thread_count() {
    let set = matrix();
    for circuit in ["c17", "c432"] {
        // The independent oracles, one per scenario.
        let singles: Vec<String> = set
            .iter()
            .map(|s| {
                let one = request(circuit).scenario(s.clone()).run().unwrap();
                CertificateSet::new(&one.netlist, one.input_slew, one.paths).to_json()
            })
            .collect();
        let mut merged_at_1 = None;
        for batch_threads in [1usize, 2, 4] {
            let batch = request(circuit)
                .scenarios(set.clone())
                .batch_threads(batch_threads)
                .run_batch()
                .unwrap();
            assert_eq!(batch.scenarios.len(), set.len());
            for (i, s) in set.iter().enumerate() {
                assert_eq!(
                    batch.certificates(i).to_json(),
                    singles[i],
                    "{circuit} {} at {batch_threads} batch threads",
                    s.name()
                );
            }
            // The merged report is thread-count-invariant too.
            let merged = batch.merged.to_json();
            match &merged_at_1 {
                None => merged_at_1 = Some(merged),
                Some(first) => assert_eq!(
                    first, &merged,
                    "{circuit}: merged report differs at {batch_threads} batch threads"
                ),
            }
        }
    }
}

/// The merged report is canonical in the scenario *set*: submitting the
/// scenarios in reverse order yields the same bytes.
#[test]
fn merged_report_is_invariant_under_submission_order() {
    let set = matrix();
    let forward = request("c17").scenarios(set.clone()).run_batch().unwrap();
    let mut reversed_set = set;
    reversed_set.reverse();
    let reversed = request("c17")
        .scenarios(reversed_set)
        .batch_threads(2)
        .run_batch()
        .unwrap();
    assert_eq!(forward.merged, reversed.merged);
    assert_eq!(forward.merged.to_json(), reversed.merged.to_json());
    assert_eq!(
        forward.merged.endpoints.len(),
        forward.netlist.outputs().len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random mapped logic through the full 2×2 matrix and through three
    /// corners of one technology: each batch equals its independent
    /// runs, with the netlist supplied directly (the daemon's ECO path)
    /// rather than resolved from the catalog.
    #[test]
    fn random_logic_batch_matches_singles(
        seed in 0u64..1_000,
        gates in 10usize..40,
        inputs in 3usize..6,
    ) {
        let lib = Library::standard();
        let raw = random_logic(&RandParams {
            name: format!("mcmm_{seed}"),
            inputs,
            outputs: 2,
            gates,
            seed,
            window: 8,
        });
        let nl = map_netlist(&raw, &lib).expect("mapping succeeds");
        for set in [matrix(), three_corners()] {
            let batch = request("mcmm")
                .with_netlist(nl.clone())
                .scenarios(set.clone())
                .batch_threads(2)
                .run_batch()
                .unwrap();
            for (i, s) in set.iter().enumerate() {
                let one = request("mcmm")
                    .with_netlist(nl.clone())
                    .scenario(s.clone())
                    .run()
                    .unwrap();
                prop_assert_eq!(
                    batch.certificates(i).to_json(),
                    CertificateSet::new(&one.netlist, one.input_slew, one.paths).to_json(),
                    "seed {} scenario {}",
                    seed,
                    s.name()
                );
                prop_assert_eq!(batch.scenarios[i].stats.decisions, one.stats.decisions);
            }
        }
    }
}
