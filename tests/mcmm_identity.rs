//! MCMM batch identity oracles.
//!
//! The batch engine (`sta-core`'s `mcmm` module) shares the netlist
//! load, characterization, logic schedule, per-corner kernels and the
//! per-corner true-path search across scenarios, and fans the search
//! groups over a work-stealing pool. None of that sharing may change a
//! single byte of any scenario's result: these tests pin each scenario's
//! `CertificateSet` against an independent single-scenario run at
//! batch-thread counts 1/2/4, truncated runs included, and the merged
//! slack report against submission-order permutation.

use std::path::PathBuf;

use proptest::prelude::*;

use sta_cells::{Library, Technology};
use sta_charlib::CharConfig;
use sta_circuits::map_netlist;
use sta_circuits::randlogic::{random_logic, RandParams};
use sta_core::{AnalysisRequest, CertificateSet, CornerDef, Mode, Scenario};
use sta_obs::Observer;

fn cache_dir() -> PathBuf {
    // Share one fast-config cache across the identity tests.
    std::env::temp_dir().join("sta-mcmm-identity-cache")
}

fn request(circuit: &str) -> AnalysisRequest {
    AnalysisRequest::new(circuit)
        .char_config(CharConfig::fast())
        .cache_dir(cache_dir())
        .n_worst(Some(10))
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

/// Four corner names × three modes with three distinct search keys:
/// `typ` and `90nm` are two names for nominal 90 nm. The fast test
/// characterization samples the nominal corner only, so 90 nm `slow`
/// times exactly like `typ`; the slow point of another node makes a
/// search shared across keys visible in the certificates. The modes
/// cover every requirement source — none, an explicit value, an SDC
/// clock.
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
/// path count, truncation flag, and structural slack report.
struct Single {
    certs: String,
    paths: usize,
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
        truncated: run.stats.truncated,
        slack,
    }
}

/// Runs the shared-search matrix on c432 at batch threads 1/2/4 and
/// checks every scenario against its independent run, plus the sharing
/// counters. Returns the independent runs.
fn check_shared_search(budget: Option<u64>) -> Vec<Single> {
    let set = shared_search_matrix();
    let req = || request("c432").max_decisions(budget);
    let singles: Vec<Single> = set
        .iter()
        .map(|s| single(req().scenario(s.clone())))
        .collect();
    // Scenarios 0 (`typ/…`), 6 (`slow/…`) and 9 (`130nm:slow/…`) head
    // the three search groups. The 90 nm and 130 nm searches must differ
    // for the certificate checks to bite.
    assert_ne!(singles[0].certs, singles[9].certs);
    let distinct_paths = (singles[0].paths + singles[6].paths + singles[9].paths) as u64;
    for batch_threads in [1usize, 2, 4] {
        let obs = Observer::enabled();
        let batch = req()
            .scenarios(set.clone())
            .batch_threads(batch_threads)
            .observer(obs.clone())
            .run_batch()
            .unwrap();
        let counters = obs.metrics_snapshot().counters;
        assert_eq!(counters["mcmm.scenarios"], 12);
        assert_eq!(
            counters["mcmm.searches"], 3,
            "one search per operating point"
        );
        assert_eq!(counters["enumerate.paths"], distinct_paths);
        for (i, s) in set.iter().enumerate() {
            let what = format!("{} at {batch_threads} batch threads", s.name());
            assert_eq!(batch.certificates(i).to_json(), singles[i].certs, "{what}");
            assert_eq!(
                batch.scenarios[i].stats.truncated, singles[i].truncated,
                "{what}"
            );
            assert_eq!(batch.scenarios[i].slack, singles[i].slack, "{what}");
        }
    }
    singles
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
/// per scenario in submission order, with each group's search as the
/// `enumerate` child of its first scenario only.
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
            let search = if [0, 6, 9].contains(&i) {
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

    /// Random mapped logic through the full 2×2 matrix: batch equals
    /// the four independent runs, with the netlist supplied directly
    /// (the daemon's ECO path) rather than resolved from the catalog.
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
        let set = matrix();
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
        }
    }
}
