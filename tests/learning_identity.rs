//! Identity guarantee of the learned-nogood and dominance pruning layer.
//!
//! The pruning layer (`sta_core::learn` plus the tightened per-source
//! bounds in `sta_core::arrival`) is refutation-only and bound-safe: it
//! may skip justification work the engine would have spent refuting dead
//! branches, and it may cut partial paths that provably cannot reach the
//! N-worst admission threshold, but it must never change which paths are
//! found, their arrivals, their witness vectors, or the bytes of the
//! serialized certificate set — at any thread count. These tests pin
//! that promise against the learning-off oracle, on catalog circuits and
//! on random mapped logic, and independently re-justify every clause a
//! run stored.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use sta_cells::{Corner, Library, Technology};
use sta_charlib::{characterize, CharConfig, TimingLibrary};
use sta_circuits::randlogic::{random_logic, RandParams};
use sta_circuits::{catalog, map_netlist};
use sta_core::{CertificateSet, EnumerationConfig, NogoodStore, PathEnumerator};
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

fn certificate_bytes(
    nl: &Netlist,
    lib: &Library,
    tlib: &TimingLibrary,
    cfg: &EnumerationConfig,
) -> String {
    let (paths, _) = PathEnumerator::new(nl, lib, tlib, cfg.clone()).run();
    CertificateSet::new(nl, cfg.input_slew, paths).to_json()
}

/// Learning on vs the learning-off oracle, serial and parallel: the
/// certificate sets must match byte for byte. The N-worst budget shrinks
/// with circuit size — the layer under test is exercised hardest exactly
/// when the admission threshold is tight — and the c880 member runs in
/// release builds only: its unoptimized search costs minutes and adds no
/// coverage the release CI pass doesn't already pin.
#[test]
fn certificates_are_byte_identical_with_learning_on_or_off_at_any_thread_count() {
    let (lib, tlib, tech) = setup();
    let circuits: &[(&str, usize)] = if cfg!(debug_assertions) {
        &[("c17", 3), ("c432", 12)]
    } else {
        &[("c17", 3), ("c432", 25), ("c880", 2)]
    };
    for &(name, n_worst) in circuits {
        let nl = catalog::mapped(name, lib).unwrap().unwrap();
        let cfg = EnumerationConfig::new(Corner::nominal(&tech)).with_n_worst(n_worst);
        let golden = certificate_bytes(&nl, lib, tlib, &cfg.clone().with_learning(false));
        // Learning-off parallel runs are already pinned against serial by
        // the parallel_determinism suite; here every learning-on variant
        // is pinned against the learning-off oracle.
        for threads in [1, 2, 4] {
            let cfg = cfg.clone().with_learning(true).with_threads(threads);
            assert_eq!(
                golden,
                certificate_bytes(&nl, lib, tlib, &cfg),
                "{name}: learning-on {threads}-thread certificates must \
                 match the learning-off oracle byte for byte"
            );
        }
    }
}

/// Learning does measurable work where the search actually refutes:
/// c432's reconvergent logic stores clauses and consults them.
#[test]
fn learning_does_measurable_work_when_enabled() {
    let (lib, tlib, tech) = setup();
    let nl = catalog::mapped("c432", lib).unwrap().unwrap();
    let cfg = EnumerationConfig::new(Corner::nominal(&tech))
        .with_n_worst(25)
        .with_learning(true);
    let (_, stats) = PathEnumerator::new(&nl, lib, tlib, cfg).run();
    assert!(stats.learn_stored > 0, "c432 stores learned nogoods");
    assert!(
        stats.learn_verify_failures == 0 || stats.learn_stored > 0,
        "verification failures must not be the only outcome"
    );
    assert!(
        stats.learn_bound_cuts > 0,
        "the tightened dominance bound cuts at least one arc on c432"
    );
}

/// Every clause a run stored is independently re-justified by the lint
/// auditor: a learned nogood must never refute a satisfiable assignment
/// (that would mean the engine could drop a true path).
#[test]
fn stored_nogoods_never_refute_a_satisfiable_assignment() {
    let (lib, tlib, tech) = setup();
    let nl = catalog::mapped("c432", lib).unwrap().unwrap();
    let cfg = EnumerationConfig::new(Corner::nominal(&tech))
        .with_n_worst(25)
        .with_learning(true);
    let store = Arc::new(NogoodStore::new());
    let kernel = Arc::new(tlib.compile_corner(cfg.corner));
    let enumr =
        PathEnumerator::with_prebuilt(&nl, lib, tlib, cfg, kernel, Some(Arc::clone(&store)));
    let (_, stats) = enumr.run();
    assert!(stats.learn_stored > 0, "the run stored clauses to audit");
    let snapshot = store.snapshot();
    let audit = sta_lint::audit_nogoods(&nl, lib, "c432", &snapshot);
    assert_eq!(
        audit.checked, stats.learn_stored as usize,
        "the audit saw every stored clause"
    );
    assert!(
        audit.diagnostics.is_empty(),
        "no stored clause is malformed or refutes a satisfiable \
         assignment: {:?}",
        audit.diagnostics
    );
    assert_eq!(audit.certified + audit.skipped, audit.checked);
}

/// Regression: c1908's true worst paths (launched from n28 and n2) were
/// pruned by unsound learned clauses, through three distinct holes in
/// the verification replay. A clause with a *transition* literal was
/// "refuted" outside the stable-requirement domain where the justifier's
/// `Unsatisfiable` is definitive; a replay that omitted the *launch*
/// vacuously refuted any literal supported only through the source (the
/// source is unassignable under its own toggle deltas); and a refuted
/// clause whose fanin cone left a toggle-capable net unresolved
/// generalized a state-dependent refutation — the witness routes the
/// launch through that net and cancels to a stable value through an
/// XOR, which the stable-only backward search can never construct. The
/// replay now asserts the launch exactly as the DFS root does, literals
/// are restricted to `S0`/`S1`, and refutations only count with closed
/// transition support; this pins the full unbudgeted learning-on run
/// against the learning-off oracle on the circuit that exposed all
/// three. Release-only: the unbudgeted c1908 search costs minutes
/// unoptimized.
#[cfg(not(debug_assertions))]
#[test]
fn unbudgeted_c1908_learning_matches_the_oracle() {
    let (lib, tlib, tech) = setup();
    let nl = catalog::mapped("c1908", lib).unwrap().unwrap();
    let cfg = EnumerationConfig::new(Corner::nominal(&tech)).with_n_worst(50);
    let golden = certificate_bytes(&nl, lib, tlib, &cfg.clone().with_learning(false));
    assert_eq!(
        golden,
        certificate_bytes(&nl, lib, tlib, &cfg.with_learning(true)),
        "c1908: the learning-on certificates must match the learning-off \
         oracle byte for byte"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random mapped logic: learning on equals the learning-off oracle at
    /// 1/2/4 threads, bytes compared over the certificate set.
    #[test]
    fn random_logic_learning_matches_oracle(
        seed in 0u64..1_000,
        gates in 10usize..40,
        inputs in 3usize..6,
    ) {
        let (lib, tlib, tech) = setup();
        let params = RandParams {
            name: format!("learn_{seed}"),
            inputs,
            outputs: 2,
            gates,
            seed,
            window: 8,
        };
        let raw = random_logic(&params);
        let nl = map_netlist(&raw, lib).expect("mapping succeeds");
        let cfg = EnumerationConfig::new(Corner::nominal(&tech)).with_n_worst(10);
        let golden = certificate_bytes(&nl, lib, tlib, &cfg.clone().with_learning(false));
        for threads in [1usize, 2, 4] {
            let cfg = cfg.clone().with_learning(true).with_threads(threads);
            prop_assert_eq!(
                &golden,
                &certificate_bytes(&nl, lib, tlib, &cfg),
                "seed {} threads {}",
                seed,
                threads
            );
        }
    }
}
