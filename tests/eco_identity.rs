//! Incremental ECO re-analysis is byte-identical to a cold run.
//!
//! The timing daemon's central claim (DESIGN.md §5.10): build the
//! per-source path cache once, apply a netlist edit, re-enumerate only
//! the sources whose shards intersect the dirty cone, splice — and the
//! spliced `CertificateSet` serializes to exactly the bytes a cold
//! enumeration of the edited netlist produces, at any thread count.
//! These tests pin that claim on catalog circuits, on random logic
//! (proptest), and on a scripted session against the real `serve` binary.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use sta_cells::{Corner, Library, Technology};
use sta_charlib::{characterize, CharConfig, TimingLibrary};
use sta_circuits::randlogic::{random_logic, RandParams};
use sta_circuits::{catalog, map_netlist, resize_gate, rewire_net, GateEdit};
use sta_core::{dirty_sources, CertificateSet, EnumerationConfig, PathEnumerator, SourceCache};
use sta_netlist::{GateId, Netlist};

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

/// Runs an edit session at every requested thread count: builds the
/// cache on `nl`, applies `edit_fn(netlist, step)` for `steps` steps to
/// one netlist copy and one cache, and checks that every incremental
/// re-analysis splices to the exact bytes of a cold run over the netlist
/// at that step. Returns how many clean sources the updates re-searched
/// (the second pass of `SourceCache::update`), summed over the steps and
/// thread counts.
#[allow(clippy::too_many_arguments)]
fn assert_eco_identity(
    name: &str,
    nl: &Netlist,
    lib: &Library,
    tlib: &TimingLibrary,
    tech: &Technology,
    n_worst: Option<usize>,
    threads_list: &[usize],
    steps: usize,
    edit_fn: impl Fn(&mut Netlist, usize) -> GateEdit,
) -> usize {
    let corner = Corner::nominal(tech);
    let mut researched = 0;
    for &threads in threads_list {
        let mut cfg = EnumerationConfig::new(corner).with_threads(threads);
        if let Some(n) = n_worst {
            cfg = cfg.with_n_worst(n);
        }

        // Build the cache on the pre-edit netlist; keep the corner
        // kernel resident the way the daemon does.
        let enumr = PathEnumerator::new(nl, lib, tlib, cfg.clone());
        let (mut cache, stats) = SourceCache::build(&enumr);
        assert!(!stats.truncated, "{name}: cache build truncated");
        let kernel = enumr.kernel_arc();
        drop(enumr);

        let mut edited = nl.clone();
        for step in 0..steps {
            let edit = edit_fn(&mut edited, step);
            let dirty = dirty_sources(&edited, &edit);
            assert!(
                dirty.iter().any(|&d| d),
                "{name}: an applied edit must dirty at least one source"
            );
            if edit.function_changed {
                assert!(
                    dirty.iter().all(|&d| d),
                    "{name}: function-changing edits must dirty every source"
                );
            }

            let upd_cfg = cfg.clone().with_source_filter(Arc::new(dirty.clone()));
            let upd =
                PathEnumerator::with_prebuilt(&edited, lib, tlib, upd_cfg, kernel.clone(), None);
            let (stats, searched) = cache.update_searched(&upd);
            assert!(!stats.truncated, "{name}: incremental update truncated");
            assert!(
                dirty.iter().zip(&searched).all(|(&d, &s)| s || !d),
                "{name}: every dirty source is searched"
            );
            researched += searched.iter().filter(|&&s| s).count();
            researched -= dirty.iter().filter(|&&d| d).count();
            let spliced = CertificateSet::new(&edited, 60.0, cache.splice());

            let (cold_paths, cold_stats) =
                PathEnumerator::new(&edited, lib, tlib, cfg.clone()).run();
            assert!(!cold_stats.truncated, "{name}: cold run truncated");
            let cold = CertificateSet::new(&edited, 60.0, cold_paths);

            assert_eq!(
                spliced.to_json(),
                cold.to_json(),
                "{name}: spliced certificates differ from the cold run at edit {} of the \
                 session, {threads} thread(s)",
                step + 1
            );
        }
    }
    researched
}

/// A deterministic in-range instance name (gate `idx` modulo the gate
/// count), for building edits.
fn instance(nl: &Netlist, idx: usize) -> String {
    let gid = GateId::from_index(idx % nl.num_gates());
    nl.net_label(nl.gate(gid).output())
}

/// An edit session of `steps` resizes: step `i` resizes gate
/// `first + i * stride`. A resize toggles a cell between its drive
/// variants, so a gate that comes round again is sized back.
fn resize_session(
    lib: &Library,
    first: usize,
    stride: usize,
) -> impl Fn(&mut Netlist, usize) -> GateEdit + '_ {
    move |edited, step| {
        let inst = instance(edited, first + step * stride);
        resize_gate(edited, lib, &inst).expect("every cell has a drive variant")
    }
}

/// Delay-only resize sessions splice identically on the debug-tier
/// catalog circuits at 1/2/4 threads, every edit of them. c17's session
/// moves the threshold enough to need the second pass.
#[test]
fn resize_splices_identically_on_catalog_circuits() {
    let (lib, tlib, tech) = setup();
    for (name, n_worst, first, steps) in [
        ("c17", 10, 2, 14),
        ("sample", 10, 0, 4),
        ("c432", 10, 17, 4),
        ("c432", 50, 17, 3),
    ] {
        let nl = catalog::mapped(name, lib).unwrap().unwrap();
        let researched = assert_eco_identity(
            name,
            &nl,
            lib,
            tlib,
            &tech,
            Some(n_worst),
            &[1, 2, 4],
            steps,
            resize_session(lib, first, 7),
        );
        if name == "c17" {
            assert!(
                researched > 0,
                "c17's session never re-searched a clean source"
            );
        }
    }
}

/// Function-changing rewires conservatively dirty everything and still
/// splice identically.
#[test]
fn rewire_splices_identically_on_c17() {
    let (lib, tlib, tech) = setup();
    let nl = catalog::mapped("c17", lib).unwrap().unwrap();
    let inst = instance(&nl, 4);
    let pi = nl.net_label(nl.inputs()[0]);
    assert_eco_identity(
        "c17-rewire",
        &nl,
        lib,
        tlib,
        &tech,
        Some(10),
        &[1, 2, 4],
        1,
        |edited, _| {
            rewire_net(edited, &inst, 0, &pi).expect("rewiring an input pin to a PI is acyclic")
        },
    );
}

/// Full-enumeration mode (no `n_worst`) splices identically too: every
/// floor stays −∞ and the slots simply hold their sources' whole lists.
#[test]
fn full_enumeration_splices_identically_on_c17() {
    let (lib, tlib, tech) = setup();
    let nl = catalog::mapped("c17", lib).unwrap().unwrap();
    let researched = assert_eco_identity(
        "c17-full",
        &nl,
        lib,
        tlib,
        &tech,
        None,
        &[1, 2],
        3,
        resize_session(lib, 1, 3),
    );
    assert_eq!(
        researched, 0,
        "full enumeration never re-searches a clean source"
    );
}

/// The heavier catalog tier, exercised only in release builds (the
/// debug-tier suite must stay fast).
#[cfg(not(debug_assertions))]
#[test]
fn resize_splices_identically_on_heavy_circuits() {
    let (lib, tlib, tech) = setup();
    for (name, first, steps) in [
        ("c432", 17, 12),
        ("c880", 31, 2),
        ("c499", 11, 2),
        ("c1908", 77, 2),
    ] {
        let nl = catalog::mapped(name, lib).unwrap().unwrap();
        assert_eco_identity(
            name,
            &nl,
            lib,
            tlib,
            &tech,
            Some(50),
            &[1, 2, 4],
            steps,
            resize_session(lib, first, 7),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random logic, random edit sites: resize sessions splice
    /// identically at 1/2/4 threads. Small N moves the threshold most
    /// from edit to edit, which is where the second pass fires.
    #[test]
    fn random_edits_splice_identically(
        seed in 0u64..1_000,
        first in 0usize..64,
        which_n in 0usize..3,
    ) {
        let n_worst = [1, 4, 15][which_n];
        let (lib, tlib, tech) = setup();
        let raw = random_logic(&RandParams {
            name: "eco".into(),
            inputs: 6,
            outputs: 3,
            gates: 36,
            seed,
            window: 18,
        });
        let nl = map_netlist(&raw, lib).expect("mapping succeeds");
        assert_eco_identity(
            "randlogic",
            &nl,
            lib,
            tlib,
            &tech,
            Some(n_worst),
            &[1, 2, 4],
            6,
            resize_session(lib, first, 11),
        );
    }
}

// ---------------------------------------------------------------------------
// Scripted daemon session against the real binary
// ---------------------------------------------------------------------------

/// Spawns `sta-repro serve`, pipes a scripted ECO session through stdin,
/// and checks the NDJSON responses line by line — including the in-band
/// `verify` proof that the incremental digest matches a cold re-run.
#[test]
fn scripted_daemon_session_round_trips() {
    use std::io::Write as _;
    use std::process::{Command, Stdio};

    let lib = Library::standard();
    let nl = catalog::mapped("c17", &lib).unwrap().unwrap();
    let inst = instance(&nl, 2);

    let mut child = Command::new(env!("CARGO_BIN_EXE_sta-repro"))
        .args(["serve", "--fast-char"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve binary spawns");
    {
        let stdin = child.stdin.as_mut().expect("stdin is piped");
        writeln!(
            stdin,
            r#"{{"id":1,"op":"load","circuit":"c17","nworst":10}}"#
        )
        .unwrap();
        writeln!(
            stdin,
            r#"{{"id":2,"op":"edit","circuit":"c17","kind":"resize","instance":"{inst}"}}"#
        )
        .unwrap();
        writeln!(stdin, r#"{{"id":3,"op":"verify","circuit":"c17"}}"#).unwrap();
        writeln!(stdin, r#"{{"id":4,"op":"bogus"}}"#).unwrap();
        writeln!(stdin, r#"{{"id":5,"op":"shutdown"}}"#).unwrap();
    }
    let out = child.wait_with_output().expect("serve session finishes");
    assert!(out.status.success(), "serve exited with {:?}", out.status);

    let lines: Vec<String> = String::from_utf8(out.stdout)
        .expect("responses are UTF-8")
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(lines.len(), 5, "one response line per request: {lines:?}");
    assert!(lines[0].contains(r#""ok": true"#) || lines[0].contains(r#""ok":true"#));
    assert!(
        lines[0].contains(r#""revision":0"#),
        "load is revision 0: {}",
        lines[0]
    );
    assert!(
        lines[1].contains(r#""function_changed":false"#),
        "resize is delay-only: {}",
        lines[1]
    );
    assert!(
        lines[2].contains(r#""identical":true"#),
        "incremental digest must match the cold re-run: {}",
        lines[2]
    );
    assert!(
        lines[3].contains(r#""ok":false"#),
        "bogus op errors: {}",
        lines[3]
    );
    assert!(
        lines[4].contains(r#""requests":5"#),
        "shutdown reports the session manifest: {}",
        lines[4]
    );
}
