//! Measures what the MCMM batch engine buys over independent per-scenario
//! invocations and writes `BENCH_mcmm.json` (repo root).
//!
//! For each circuit the benchmark runs one `run_batch` over a corner ×
//! mode matrix (default: typ/fast/slow of 90 nm × func/test clocks) and
//! then the same scenarios as independent single-scenario `run`s. Three
//! things are checked before any latency is reported:
//!
//! * **sharing** — the batch did the scenario-invariant work exactly once
//!   (`mcmm.netlist_loads`, `mcmm.characterizations`,
//!   `mcmm.schedule_compiles` observability counters all equal 1) and ran
//!   one true-path search per corner, not per scenario (`mcmm.searches`
//!   equals the corner count);
//! * **identity** — every scenario's `CertificateSet` digest equals the
//!   independent run's (the per-scenario byte-identity invariant of
//!   DESIGN.md §5.12);
//! * **amortization** — the batch wall-clock beats the sum of the
//!   independent invocations.
//!
//! Usage: `bench_mcmm [circuits] [CxM]` — e.g. `bench_mcmm c432 2x2`
//! for the CI smoke (first 2 corners × first 2 modes of the matrix).

use std::time::Instant;

use serde::Serialize;
use sta_bench::cache_dir;
use sta_cells::Technology;
use sta_charlib::CharConfig;
use sta_circuits::catalog;
use sta_core::{AnalysisRequest, CertificateSet, CornerDef, Mode, Scenario};
use sta_obs::{digest_string, Observer};

#[derive(Serialize)]
struct ScenarioResult {
    scenario: String,
    paths: usize,
    truncated: bool,
    single_s: f64,
    /// FNV digest of the batch certificate set; the independent run is
    /// asserted equal before this row is emitted.
    digest: String,
    digest_identical: bool,
}

#[derive(Serialize)]
struct SharedPrep {
    netlist_loads: u64,
    /// True-path searches: one per corner, shared by its modes.
    searches: u64,
    characterizations: u64,
    schedule_compiles: u64,
    kernel_compiles: u64,
    sdc_parses: u64,
}

#[derive(Serialize)]
struct CircuitResult {
    circuit: String,
    n_worst: usize,
    decision_budget: Option<u64>,
    corners: Vec<String>,
    modes: Vec<String>,
    batch_s: f64,
    singles_sum_s: f64,
    /// `singles_sum_s / batch_s`.
    speedup: f64,
    shared_prep: SharedPrep,
    merged_worst_output: String,
    merged_worst_slack_ps: f64,
    merged_worst_scenario: String,
    scenarios: Vec<ScenarioResult>,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    technology: String,
    batch_threads: usize,
    /// `std::thread::available_parallelism` of the measuring host.
    available_parallelism: usize,
    note: &'static str,
    circuits: Vec<CircuitResult>,
}

fn request(circuit: &str, n_worst: usize) -> AnalysisRequest {
    AnalysisRequest::new(circuit)
        .n_worst(Some(n_worst))
        .char_config(CharConfig::standard())
        .cache_dir(cache_dir())
        .max_decisions(catalog::benchmark_info(circuit).and_then(|b| b.decision_budget))
}

fn main() {
    let circuits: Vec<String> = std::env::args()
        .nth(1)
        .map(|s| s.split(',').map(str::to_string).collect())
        .unwrap_or_else(|| vec!["c880".to_string()]);
    let (n_corners, n_modes) = match std::env::args().nth(2) {
        Some(spec) => {
            let (c, m) = spec
                .split_once('x')
                .unwrap_or_else(|| panic!("matrix spec {spec:?} is not CxM"));
            (
                c.parse().expect("corner count parses"),
                m.parse().expect("mode count parses"),
            )
        }
        None => (3, 2),
    };
    let tech = Technology::n90();
    // One technology, three PVT points: the batch must characterize once.
    let corners: Vec<CornerDef> = ["typ", "fast", "slow"][..n_corners]
        .iter()
        .map(|name| CornerDef::parse(name, &tech).expect("named corner parses"))
        .collect();
    let modes: Vec<Mode> = [
        Mode::with_sdc("func", "create_clock -period 1000\n"),
        Mode::with_sdc("test", "create_clock -period 1500\n"),
    ][..n_modes]
        .to_vec();
    let set = Scenario::matrix(&corners, &modes);
    let batch_threads = 2;
    let n_worst = 50;

    let mut rows = Vec::new();
    for name in &circuits {
        let budget = catalog::benchmark_info(name).and_then(|b| b.decision_budget);

        // The batch, with counters watching the shared-prep claims.
        let obs = Observer::enabled();
        let t0 = Instant::now();
        let batch = request(name, n_worst)
            .scenarios(set.clone())
            .batch_threads(batch_threads)
            .observer(obs.clone())
            .run_batch()
            .unwrap_or_else(|e| panic!("{name}: batch failed: {e}"));
        let batch_s = t0.elapsed().as_secs_f64();
        let counters = obs.metrics_snapshot().counters;
        let prep = SharedPrep {
            netlist_loads: counters["mcmm.netlist_loads"],
            searches: counters["mcmm.searches"],
            characterizations: counters["mcmm.characterizations"],
            schedule_compiles: counters["mcmm.schedule_compiles"],
            kernel_compiles: counters["mcmm.kernel_compiles"],
            sdc_parses: counters["mcmm.sdc_parses"],
        };
        assert_eq!(prep.netlist_loads, 1, "{name}: netlist loaded once");
        assert_eq!(prep.characterizations, 1, "{name}: characterized once");
        assert_eq!(prep.schedule_compiles, 1, "{name}: schedule compiled once");
        assert_eq!(
            prep.searches,
            corners.len() as u64,
            "{name}: one search per corner, shared by its modes"
        );

        // The same scenarios as independent invocations, digest-compared.
        let mut singles_sum_s = 0.0;
        let mut scenario_rows = Vec::new();
        for (i, s) in set.iter().enumerate() {
            let t0 = Instant::now();
            let single = request(name, n_worst)
                .scenario(s.clone())
                .run()
                .unwrap_or_else(|e| panic!("{name} {}: single run failed: {e}", s.name()));
            let single_s = t0.elapsed().as_secs_f64();
            singles_sum_s += single_s;
            let digest = digest_string(batch.certificates(i).to_json().as_bytes());
            let single_certs =
                CertificateSet::new(&single.netlist, single.input_slew, single.paths);
            let identical = digest_string(single_certs.to_json().as_bytes()) == digest;
            assert!(
                identical,
                "{name} {}: batch digest diverged from the independent run",
                s.name()
            );
            scenario_rows.push(ScenarioResult {
                scenario: s.name(),
                paths: batch.scenarios[i].paths.len(),
                truncated: batch.scenarios[i].stats.truncated,
                single_s,
                digest,
                digest_identical: identical,
            });
        }
        assert!(
            batch_s < singles_sum_s,
            "{name}: batch ({batch_s:.2}s) is not faster than {} independent runs \
             ({singles_sum_s:.2}s)",
            set.len()
        );

        let worst = batch.merged.worst().expect("at least one endpoint");
        let speedup = singles_sum_s / batch_s;
        println!(
            "{name:>6}: {}x{} scenarios  batch {batch_s:8.2} s  singles {singles_sum_s:8.2} s  \
             ({speedup:5.2}x)  worst {} {:+.1} ps in {}",
            corners.len(),
            modes.len(),
            worst.output,
            worst.slack,
            worst.scenario,
        );
        rows.push(CircuitResult {
            circuit: name.clone(),
            n_worst,
            decision_budget: budget,
            corners: corners.iter().map(|c| c.name.clone()).collect(),
            modes: modes.iter().map(|m| m.name.clone()).collect(),
            batch_s,
            singles_sum_s,
            speedup,
            shared_prep: prep,
            merged_worst_output: worst.output.clone(),
            merged_worst_slack_ps: worst.slack,
            merged_worst_scenario: worst.scenario.clone(),
            scenarios: scenario_rows,
        });
    }

    let report = Report {
        bench: "mcmm",
        technology: tech.name.clone(),
        batch_threads,
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        note: "one batch over the corner x mode matrix vs the same scenarios as \
               independent invocations; shared prep is counter-asserted (netlist load, \
               characterization, schedule compile each exactly once; one search per \
               corner) and every scenario's certificate digest is asserted equal to its \
               independent run before timing is reported",
        circuits: rows,
    };
    std::fs::write(
        "BENCH_mcmm.json",
        serde_json::to_string_pretty(&report).unwrap(),
    )
    .unwrap();
    println!("wrote BENCH_mcmm.json");
}
