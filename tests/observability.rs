//! Observability golden tests.
//!
//! The `sta-obs` layer makes two hard promises:
//!
//! 1. **Determinism of the record**: the manifest's span tree and the set
//!    of registered metric names are *structurally identical* across
//!    thread counts — only durations and metric values may differ. This
//!    is what makes manifests diffable between runs.
//! 2. **Non-interference**: attaching an observer (with or without a
//!    progress tap) leaves the enumerated path set **byte-identical** to
//!    an unobserved run, at every thread count.
//!
//! The characterization cache is pre-warmed once so every observed run
//! takes the cache-hit path: a cache miss adds per-cell `cell` spans
//! under `characterize`, which would (correctly) make a cold and a warm
//! run structurally different.

use std::path::PathBuf;
use std::sync::OnceLock;

use serde::Value;
use sta_cells::Technology;
use sta_charlib::CharConfig;
use sta_core::{AnalysisRequest, CertificateSet};
use sta_obs::{Observer, RunManifest};

/// Warm characterization cache shared by every test in this file.
fn warm_cache_dir() -> PathBuf {
    static WARMED: OnceLock<PathBuf> = OnceLock::new();
    WARMED
        .get_or_init(|| {
            let dir = std::env::temp_dir().join("sta-obs-golden-cache");
            let lib = sta_cells::Library::standard();
            sta_charlib::characterize_cached(&lib, &Technology::n90(), &CharConfig::fast(), &dir)
                .expect("characterization succeeds");
            dir
        })
        .clone()
}

fn request(circuit: &str) -> AnalysisRequest {
    AnalysisRequest::new(circuit)
        .char_config(CharConfig::fast())
        .cache_dir(warm_cache_dir())
}

/// Serialized certificate set — the CLI's output artifact, so equality
/// here is byte-for-byte equality of what a consumer reads.
fn certificate_bytes(outcome: &sta_core::AnalysisOutcome) -> String {
    CertificateSet::new(&outcome.netlist, outcome.input_slew, outcome.paths.clone()).to_json()
}

#[test]
fn span_tree_and_metric_names_are_identical_across_thread_counts() {
    let mut goldens: Vec<(Vec<String>, Vec<String>)> = Vec::new();
    for threads in [1, 4] {
        let obs = Observer::enabled();
        let outcome = request("c17")
            .threads(threads)
            .observer(obs.clone())
            .run()
            .expect("c17 analyzes");
        assert!(!outcome.paths.is_empty());
        drop(outcome);
        let structure: Vec<String> = obs.span_tree().iter().map(|n| n.structure()).collect();
        let names = obs.metrics_snapshot().metric_names();
        goldens.push((structure, names));
    }
    let (s1, n1) = &goldens[0];
    let (s4, n4) = &goldens[1];
    assert_eq!(s1, s4, "span tree structure must not depend on threads");
    assert_eq!(n1, n4, "metric name set must not depend on threads");
    assert_eq!(
        s1,
        &vec!["analysis(load,characterize,compile,enumerate)".to_string()],
        "the facade's phase skeleton is the golden span tree"
    );
}

#[test]
fn observation_and_progress_leave_certificates_byte_identical() {
    for circuit in ["c17", "c432"] {
        let baseline = request(circuit)
            .n_worst(Some(50))
            .run()
            .expect("baseline analyzes");
        let golden = certificate_bytes(&baseline);
        for threads in [1, 2, 4] {
            let obs = Observer::enabled();
            // Install the progress tap exactly as `--progress` does; the
            // heartbeat thread only reads it, so the tap itself is the
            // part that must not perturb the search.
            obs.install_progress()
                .expect("enabled observer has progress");
            let observed = request(circuit)
                .n_worst(Some(50))
                .threads(threads)
                .observer(obs.clone())
                .run()
                .expect("observed run analyzes");
            assert_eq!(
                golden,
                certificate_bytes(&observed),
                "{circuit}: observed {threads}-thread run must be byte-identical"
            );
            let counters = obs.metrics_snapshot();
            let names = counters.metric_names();
            assert!(
                names.iter().any(|n| n == "counter:enumerate.paths"),
                "{circuit}: engine metrics recorded ({names:?})"
            );
        }
    }
}

#[test]
fn manifest_round_trips_and_validates_against_checked_in_schema() {
    let obs = Observer::enabled();
    let outcome = request("c17")
        .observer(obs.clone())
        .run()
        .expect("c17 analyzes");
    let digest = sta_obs::digest_string(certificate_bytes(&outcome).as_bytes());
    drop(outcome);
    let manifest = RunManifest::new(
        vec!["analyze".to_string(), "c17".to_string()],
        [("circuit".to_string(), "c17".to_string())]
            .into_iter()
            .collect(),
        &obs,
        Some(digest),
    );
    let text = manifest.to_json();
    let parsed = RunManifest::from_json(&text).expect("manifest round-trips");
    assert_eq!(parsed, manifest);

    let schema_text = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("docs/manifest.schema.json"),
    )
    .expect("schema is checked in");
    let schema: Value = serde_json::from_str(&schema_text).expect("schema parses");
    let doc: Value = serde_json::from_str(&text).expect("manifest parses as a value");
    sta_obs::schema::validate(&schema, &doc).expect("manifest conforms to the schema");
}

#[test]
fn progress_counters_track_the_run() {
    let obs = Observer::enabled();
    let progress = obs.install_progress().expect("progress installs");
    let outcome = request("c17").observer(obs).run().expect("c17 analyzes");
    assert_eq!(
        progress.paths.load(std::sync::atomic::Ordering::Relaxed),
        outcome.paths.len() as u64,
        "the progress tap saw every emitted path"
    );
    let line = progress.line();
    assert!(line.starts_with("progress: paths="), "{line}");
}

#[test]
fn audit_metric_names_are_thread_count_invariant() {
    // The `--audit-flow` counters are pre-registered as a fixed set
    // before any audit rule can fire, so the registered metric-name set
    // is identical whether or not a rule found something — and across
    // thread counts, extending golden promise (1) to the audit layer.
    let mut expected: Vec<String> = sta_lint::audit_metric_names()
        .iter()
        .map(|n| format!("counter:{n}"))
        .collect();
    expected.sort();
    let mut per_thread: Vec<Vec<String>> = Vec::new();
    for threads in [1usize, 4] {
        let obs = Observer::enabled();
        sta_lint::register_audit_metrics(&obs);
        // An observed analysis mixes engine metrics into the same
        // registry; the audit.* subset must stay exactly the fixed set.
        let outcome = request("c17")
            .threads(threads)
            .observer(obs.clone())
            .run()
            .expect("c17 analyzes");
        assert!(!outcome.paths.is_empty());
        drop(outcome);
        let names: Vec<String> = obs
            .metrics_snapshot()
            .metric_names()
            .into_iter()
            .filter(|n| n.contains(":audit."))
            .collect();
        per_thread.push(names);
    }
    assert_eq!(
        per_thread[0], per_thread[1],
        "audit metric names must not depend on threads"
    );
    let mut got = per_thread.remove(0);
    got.sort();
    assert_eq!(got, expected, "the audit counter set is the fixed set");
}

/// `lint --verify-paths --audit-flow` reads one kernel per circuit: the
/// certificate replay's enumeration and the audit's enumeration, interval
/// tables, static bound and per-source cache all share the analysis's
/// compile, so its manifest holds one `compile` span and one compilation.
#[test]
fn lint_audit_flow_compiles_one_kernel_per_circuit() {
    let manifest_path = std::env::temp_dir().join("sta-obs-lint-one-kernel.json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_sta-repro"))
        .args(["lint", "c17", "--verify-paths", "--audit-flow"])
        .args(["--fast-char", "--manifest-out"])
        .arg(&manifest_path)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&manifest_path).expect("manifest written");
    let manifest = RunManifest::from_json(&text).expect("manifest parses");
    // A cold characterization cache adds `cell` spans under
    // `characterize`, so count the analysis's phases instead of pinning
    // its whole structure.
    let phases: Vec<(usize, usize)> = manifest
        .spans
        .iter()
        .filter(|s| s.name == "analysis")
        .map(|s| {
            let count = |name| s.children.iter().filter(|c| c.name == name).count();
            (count("compile"), count("enumerate"))
        })
        .collect();
    assert_eq!(phases, vec![(1, 2)], "(compile, enumerate) per circuit");
    assert_eq!(manifest.metrics.counters["kernel.compilations"], 1);
}
