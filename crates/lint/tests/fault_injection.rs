//! Fault-injection properties: every defect planted by
//! `sta_circuits::transforms` is flagged with its designated rule code,
//! and the clean catalog circuits stay free of error-severity findings.

use proptest::prelude::*;

use sta_cells::{Corner, Library, Technology};
use sta_charlib::{characterize, CharConfig};
use sta_circuits::{catalog, transforms};
use sta_lint::{lint_library, lint_netlist, Diagnostic, LibLintConfig, Severity};

const CIRCUITS: [&str; 5] = ["c17", "c432", "c499", "c880", "sample"];

fn codes(ds: &[Diagnostic]) -> Vec<&'static str> {
    ds.iter().map(|d| d.rule.code()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Each injector trips exactly the rule it documents, on both the
    /// primitive and the technology-mapped view of a catalog circuit.
    #[test]
    fn injected_defects_are_flagged(
        which in 0usize..CIRCUITS.len(),
        victim in 0usize..10_000,
        mapped in 0usize..2,
    ) {
        let name = CIRCUITS[which];
        let lib = Library::standard();
        let nl = if mapped == 1 {
            catalog::mapped(name, &lib).unwrap().unwrap()
        } else {
            catalog::primitive(name).unwrap()
        };

        // The pristine circuit carries no error-severity finding.
        let clean = lint_netlist(&nl);
        prop_assert!(
            clean.iter().all(|d| d.severity != Severity::Error),
            "{name}: {clean:?}"
        );

        let broken = lint_netlist(&transforms::break_net(&nl, victim));
        prop_assert!(codes(&broken).contains(&"NL002"), "{name}: {broken:?}");

        let cyclic = lint_netlist(&transforms::inject_cycle(&nl));
        prop_assert!(codes(&cyclic).contains(&"NL001"), "{name}: {cyclic:?}");
        prop_assert!(codes(&cyclic).contains(&"NL006"), "{name}: {cyclic:?}");

        let dangling = lint_netlist(&transforms::inject_dangling_net(&nl));
        prop_assert!(codes(&dangling).contains(&"NL004"), "{name}: {dangling:?}");

        let dead = lint_netlist(&transforms::inject_dead_input(&nl));
        prop_assert!(codes(&dead).contains(&"NL005"), "{name}: {dead:?}");
    }
}

/// Dropping a characterized sensitization vector is a LIB001 coverage gap
/// pinned to the damaged cell, and only to it.
#[test]
fn dropped_vector_is_a_coverage_gap() {
    let lib = Library::standard();
    let tech = Technology::n90();
    let mut tlib = characterize(&lib, &tech, &CharConfig::fast()).unwrap();
    let corner = Corner::nominal(&tech);
    let cfg = LibLintConfig::default();

    let before = lint_library(&lib, &tlib, corner, &cfg);
    assert!(
        !codes(&before).contains(&"LIB001"),
        "fixture library already has gaps: {before:?}"
    );

    let aoi21 = lib.cell_by_name("AOI21").unwrap().id();
    assert!(transforms::drop_sensitization_vector(&mut tlib, aoi21, 2));
    let after = lint_library(&lib, &tlib, corner, &cfg);
    let gaps: Vec<_> = after.iter().filter(|d| d.rule.code() == "LIB001").collect();
    assert!(!gaps.is_empty(), "{after:?}");
    assert!(
        gaps.iter().all(|d| d.location.contains("AOI21")),
        "{gaps:?}"
    );
}

// ---------------------------------------------------------------------------
// Whole-flow audit injectors (AI / ECO rule families)
// ---------------------------------------------------------------------------

use std::sync::OnceLock;

use sta_charlib::{CompiledCorner, TimingLibrary};
use sta_circuits::resize_gate;
use sta_core::{
    arc_intervals_compiled, corrupt_source_cache, dirty_sources, static_bounds_compiled,
    ArcIntervals, CacheCorruption, CertificateSet, EnumerationConfig, PathEnumerator, SourceCache,
    ARC_SWEEP_MARGIN,
};
use sta_lint::audit_rules::inject;
use sta_netlist::Netlist;

/// Fast-grid timing library shared by the audit-injector tests.
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

const INPUT_SLEW: f64 = 60.0;

fn nominal() -> Corner {
    Corner::nominal(&Technology::n90())
}

/// The fast library's kernel at the nominal corner.
fn kernel() -> &'static CompiledCorner {
    static KERNEL: OnceLock<CompiledCorner> = OnceLock::new();
    KERNEL.get_or_init(|| fast_tlib().compile_corner(nominal()))
}

fn intervals(nl: &Netlist) -> ArcIntervals {
    arc_intervals_compiled(nl, fast_tlib(), kernel(), INPUT_SLEW, ARC_SWEEP_MARGIN)
}

fn enumerate(nl: &Netlist, lib: &Library, n_worst: usize) -> CertificateSet {
    let cfg = EnumerationConfig::new(nominal()).with_n_worst(n_worst);
    let (paths, _) = PathEnumerator::new(nl, lib, fast_tlib(), cfg).run();
    CertificateSet::new(nl, INPUT_SLEW, paths)
}

/// Resizes the first resizable gate at or after the middle of the gate
/// list — the same deterministic sampling the CLI's `--audit-flow` uses.
fn sample_resize(nl: &mut Netlist, lib: &Library) -> Option<sta_circuits::GateEdit> {
    let gids: Vec<_> = nl.gate_ids().collect();
    let n = gids.len();
    for off in 0..n {
        let gid = gids[(n / 2 + off) % n];
        let instance = nl.net_label(nl.gate(gid).output());
        if let Ok(edit) = resize_gate(nl, lib, &instance) {
            return Some(edit);
        }
    }
    None
}

/// Every AI-family injector trips exactly its designated rule code, and
/// the pristine flow stays clean (100 % certificate enclosure).
#[test]
fn audit_injectors_pin_ai_rule_codes() {
    let lib = Library::standard();
    let nl = catalog::mapped("c432", &lib).unwrap().unwrap();
    let corner = nominal();
    let arcs = intervals(&nl);
    let certs = enumerate(&nl, &lib, 25);
    assert!(!certs.paths.is_empty());

    let clean = sta_lint::audit_certificates(&nl, "c432", &arcs, &certs, INPUT_SLEW);
    assert!(clean.diagnostics.is_empty(), "{:?}", clean.diagnostics);
    assert_eq!(clean.enclosed, clean.certificates, "100% enclosure");

    let mut bad = certs.clone();
    assert!(inject::inflate_certificate_arrival(&mut bad));
    let ds = sta_lint::audit_certificates(&nl, "c432", &arcs, &bad, INPUT_SLEW).diagnostics;
    assert!(codes(&ds).contains(&"AI001"), "{ds:?}");

    let mut bad = certs.clone();
    assert!(inject::corrupt_arc_delay(&mut bad));
    let ds = sta_lint::audit_certificates(&nl, "c432", &arcs, &bad, INPUT_SLEW).diagnostics;
    assert!(codes(&ds).contains(&"AI003"), "{ds:?}");

    let mut bad = certs.clone();
    assert!(inject::corrupt_endpoint_slew(&mut bad));
    let ds = sta_lint::audit_certificates(&nl, "c432", &arcs, &bad, INPUT_SLEW).diagnostics;
    assert!(codes(&ds).contains(&"AI004"), "{ds:?}");

    // AI002: the pruning bound dominates the hull until it is shrunk.
    let hull = sta_lint::hull(&nl, &arcs, INPUT_SLEW);
    let prune_margin = EnumerationConfig::new(corner).prune_margin;
    let mut st = static_bounds_compiled(&nl, fast_tlib(), kernel(), INPUT_SLEW, prune_margin);
    let ds = sta_lint::audit_structural_dominance("c432", &nl, &hull, &st);
    assert!(ds.is_empty(), "{ds:?}");
    assert!(inject::shrink_structural_arrival(&mut st));
    let ds = sta_lint::audit_structural_dominance("c432", &nl, &hull, &st);
    assert!(codes(&ds).contains(&"AI002"), "{ds:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The ECO-family injectors trip their designated rule codes: a
    /// shrunk dirty cone is an ECO001 under-approximation, malformed
    /// masks are ECO003, and every cache corruption mode is ECO002.
    #[test]
    fn eco_injectors_pin_eco_rule_codes(
        which in 0usize..2,
        n_worst in 3usize..8,
    ) {
        let name = ["c17", "sample"][which];
        let lib = Library::standard();
        let nl = catalog::mapped(name, &lib).unwrap().unwrap();
        let arcs = intervals(&nl);

        let mut edited = nl.clone();
        let edit = sample_resize(&mut edited, &lib).expect("catalog circuits have a resizable gate");
        prop_assert!(!edit.function_changed);
        let arcs_after = intervals(&edited);
        let dirty = dirty_sources(&edited, &edit);
        prop_assert!(dirty.iter().any(|&d| d), "a resize dirties its fanin sources");

        let audit = |mask: &[bool], e: &sta_circuits::GateEdit| {
            sta_lint::audit_dirty_sources(
                name, &nl, &arcs, &edited, &arcs_after, e, mask, INPUT_SLEW,
            )
        };

        // The honest mask is clean.
        let ds = audit(&dirty, &edit);
        prop_assert!(ds.is_empty(), "{ds:?}");

        // ECO001 — dropping a genuinely dirty source from the mask.
        let mut shrunk = dirty.clone();
        let dropped = sta_circuits::shrink_dirty_cone(&mut shrunk);
        prop_assert!(dropped.is_some());
        let ds = audit(&shrunk, &edit);
        prop_assert!(codes(&ds).contains(&"ECO001"), "{ds:?}");

        // ECO003 — wrong mask shape.
        let mut short = dirty.clone();
        short.pop();
        let ds = audit(&short, &edit);
        prop_assert!(codes(&ds).contains(&"ECO003"), "{ds:?}");

        // ECO003 — a function-changing edit must dirty every source.
        let mut fedit = edit.clone();
        fedit.function_changed = true;
        let mut partial = vec![true; dirty.len()];
        partial[0] = false;
        let ds = audit(&partial, &fedit);
        prop_assert!(codes(&ds).contains(&"ECO003"), "{ds:?}");

        // ECO002 — every cache corruption mode breaks an invariant the
        // auditor checks; the pristine cache passes with the splice
        // cross-check attached.
        let cfg = EnumerationConfig::new(nominal()).with_n_worst(n_worst);
        let enumr = PathEnumerator::new(&nl, &lib, fast_tlib(), cfg);
        let (cache, stats) = SourceCache::build(&enumr);
        drop(enumr);
        prop_assert!(!stats.truncated, "the floor clause needs a whole search");
        let certs = enumerate(&nl, &lib, n_worst);
        let ds = sta_lint::audit_source_cache(name, &nl, &cache, true, Some(&certs));
        prop_assert!(ds.is_empty(), "{ds:?}");
        for mode in [
            CacheCorruption::Misfile,
            CacheCorruption::Unsort,
            CacheCorruption::Overfill,
            CacheCorruption::LiftFloor,
        ] {
            let mut broken = cache.clone();
            prop_assert!(corrupt_source_cache(&mut broken, mode), "{mode:?} does not apply");
            let ds = sta_lint::audit_source_cache(name, &nl, &broken, true, None);
            prop_assert!(codes(&ds).contains(&"ECO002"), "{mode:?}: {ds:?}");
            // A truncated search voids the floor clause, and only that.
            let ds = sta_lint::audit_source_cache(name, &nl, &broken, false, None);
            let floor_only = mode == CacheCorruption::LiftFloor;
            prop_assert_eq!(ds.is_empty(), floor_only, "{:?}: {:?}", mode, ds);
        }
    }
}
