//! Integration tests of the reporting and export surfaces: slack
//! analysis, path reports, SDF, Liberty, Graphviz.

use std::sync::OnceLock;

use sta_cells::{Corner, Library, Technology};
use sta_charlib::{characterize, CharConfig, TimingLibrary};
use sta_circuits::catalog;
use sta_core::{
    static_bounds_compiled, worst_path_report, write_sdf, EnumerationConfig, PathEnumerator,
    SdfVectorPolicy, SlackOutcome,
};
use sta_netlist::dot::{to_dot, DotOptions};

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

#[test]
fn slack_analysis_brackets_true_paths() {
    let (lib, tlib, tech) = setup();
    let nl = catalog::mapped("sample", lib).unwrap().unwrap();
    let corner = Corner::nominal(&tech);
    // Structural worst arrival is an upper bound on every true path.
    let kernel = tlib.compile_corner(corner);
    let timing = static_bounds_compiled(&nl, tlib, &kernel, 60.0, 1.0);
    let structural_worst = timing.worst_arrival(&nl);
    let cfg = EnumerationConfig::new(corner);
    let (paths, _) = PathEnumerator::new(&nl, lib, tlib, cfg).run();
    let true_worst = paths
        .iter()
        .map(|p| p.worst_arrival())
        .fold(0.0_f64, f64::max);
    assert!(
        structural_worst >= true_worst,
        "structural {structural_worst} must bound true {true_worst}"
    );
    // Requirement at exactly the structural worst: no violations.
    let at_bound = SlackOutcome::resolve(&nl, timing, Some(structural_worst + 1e-6), None);
    assert!(at_bound.report.passes());
}

#[test]
fn worst_path_report_shows_vector() {
    let (lib, tlib, tech) = setup();
    let nl = catalog::mapped("sample", lib).unwrap().unwrap();
    let corner = Corner::nominal(&tech);
    let (summary, detail) = worst_path_report(&nl, lib, tlib, corner, 5);
    assert!(summary.lines().count() >= 2, "{summary}");
    let detail = detail.expect("sample has paths");
    assert!(detail.contains("sensitizing vector"), "{detail}");
    assert!(detail.contains("AO22"), "{detail}");
}

#[test]
fn sdf_reference_vs_worst_differ_only_on_multi_vector_cells() {
    let (lib, tlib, tech) = setup();
    let nl = catalog::mapped("c17", lib).unwrap().unwrap();
    let corner = Corner::nominal(&tech);
    // c17 is all NAND2 (single-vector arcs): both policies agree exactly.
    let a = write_sdf(&nl, lib, tlib, corner, 60.0, SdfVectorPolicy::Reference);
    let b = write_sdf(&nl, lib, tlib, corner, 60.0, SdfVectorPolicy::Worst);
    assert_eq!(a, b, "single-vector designs have no policy delta");
    // The sample circuit has an AO22: the files must differ.
    let nls = catalog::mapped("sample", lib).unwrap().unwrap();
    let a = write_sdf(&nls, lib, tlib, corner, 60.0, SdfVectorPolicy::Reference);
    let b = write_sdf(&nls, lib, tlib, corner, 60.0, SdfVectorPolicy::Worst);
    assert_ne!(a, b, "multi-vector designs expose the delta");
}

#[test]
fn graphviz_export_covers_the_whole_netlist() {
    let (lib, _, _) = setup();
    let nl = catalog::mapped("c432", lib).unwrap().unwrap();
    let dot = to_dot(&nl, &DotOptions::default());
    assert_eq!(dot.matches("shape=box").count(), nl.num_gates());
    assert!(dot.matches("->").count() >= nl.num_gates());
}

#[test]
fn liberty_export_covers_the_library() {
    let (lib, tlib, _) = setup();
    let text = sta_charlib::liberty::write_liberty(lib, tlib);
    for cell in lib.iter() {
        assert!(
            text.contains(&format!("cell ({})", cell.name())),
            "{} missing from Liberty export",
            cell.name()
        );
    }
}
