//! Corner-compiled delay kernels agree with the interpreted models.
//!
//! The kernel layer (`sta_charlib::kernel`) folds every fitted 4-variable
//! polynomial at the corner's fixed `(T, VDD)` into a dense 2-D Horner
//! table. The design invariant is **bit-identity**: the folded kernels
//! share their arithmetic with `PolyModel::eval`, so every delay the
//! search accumulates must equal the interpreted reference exactly, at
//! any thread count. These tests pin that invariant on every arc of a
//! characterized library (property-based, random operating points) and
//! end-to-end on catalog circuits against the interpreted stand-alone
//! path delay calculator.

use std::sync::OnceLock;

use proptest::prelude::*;

use sta_cells::{Corner, Edge, Library, Technology};
use sta_charlib::{characterize, CharConfig, TimingLibrary};
use sta_circuits::catalog;
use sta_core::{path_delay, EnumerationConfig, EnumerationStats, PathEnumerator, TruePath};

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

proptest! {
    /// For every fitted model in the library, the compiled kernel matches
    /// `PolyModel::eval` within 1e-9 (it is bit-identical by construction;
    /// the tolerance guards the property independently of that stronger
    /// claim) over random `(Fo, t_in)` — including out-of-range points,
    /// which both paths clamp identically.
    #[test]
    fn compiled_kernel_matches_interpreted_eval(
        fo in 0.05f64..60.0,
        t_in in 1.0f64..900.0,
        corner_sel in 0u8..2,
    ) {
        let (lib, tlib, tech) = setup();
        let corner = if corner_sel == 1 {
            Corner { temperature: 0.0, vdd: 1.05 * tech.vdd }
        } else {
            Corner::nominal(&tech)
        };
        let kernel = tlib.compile_corner(corner);
        for cell in lib.iter() {
            let ct = tlib.cell(cell.id());
            for pin in 0..cell.num_pins() {
                for v in 0..ct.num_vectors(pin) {
                    let arc = kernel.arc_id(cell.id(), pin, v);
                    for edge in Edge::BOTH {
                        let (dk, sk) = kernel.eval(arc, edge, fo, t_in);
                        let (di, si) =
                            tlib.delay_slew(cell.id(), pin, v, edge, fo, t_in, corner);
                        prop_assert!(
                            (dk - di).abs() <= 1e-9,
                            "{}/{pin}/{v} {edge:?}: delay {dk} vs {di}",
                            cell.name()
                        );
                        prop_assert!(
                            (sk - si).abs() <= 1e-9,
                            "{}/{pin}/{v} {edge:?}: slew {sk} vs {si}",
                            cell.name()
                        );
                    }
                }
            }
        }
    }
}

fn run(
    nl: &sta_netlist::Netlist,
    lib: &Library,
    tlib: &TimingLibrary,
    cfg: &EnumerationConfig,
    threads: usize,
) -> (Vec<TruePath>, EnumerationStats) {
    PathEnumerator::new(nl, lib, tlib, cfg.clone().with_threads(threads)).run()
}

/// Every emitted path's timing — per launch edge, the arrival, the output
/// slew and each gate delay — equals the interpreted stand-alone
/// calculator `path_delay` bit for bit, at several thread counts, in full
/// enumeration and N-worst mode. `path_delay` walks the interpreted
/// models with the same clamps and summation order as the search's
/// kernel-driven timing advance, so this pins both the kernels and the
/// incremental bookkeeping against the reference.
#[test]
fn emitted_timing_matches_interpreted_path_delay_bitwise() {
    let (lib, tlib, tech) = setup();
    let corner = Corner::nominal(&tech);
    for (name, nworst) in [("c17", None), ("sample", None), ("c432", Some(20))] {
        let nl = catalog::mapped(name, lib).unwrap().unwrap();
        let mut cfg = EnumerationConfig::new(corner);
        if let Some(n) = nworst {
            cfg = cfg.with_n_worst(n);
        }
        for threads in [1, 2, 3] {
            let (paths, stats) = run(&nl, lib, tlib, &cfg, threads);
            assert!(!paths.is_empty(), "{name} x{threads}: no paths");
            assert!(stats.compiled_evals > 0, "{name}: kernel table not used");
            for p in &paths {
                for (launch, timing) in [(Edge::Rise, &p.rise), (Edge::Fall, &p.fall)] {
                    let Some(t) = timing else { continue };
                    let reference =
                        path_delay(&nl, tlib, p, launch, cfg.input_slew, corner).unwrap();
                    let what = format!("{name} x{threads} {:?} {launch:?}", p.nodes);
                    assert_eq!(t.arrival.to_bits(), reference.total.to_bits(), "{what}");
                    let (_, last_slew) = *reference.stages.last().expect("non-empty path");
                    assert_eq!(t.slew.to_bits(), last_slew.to_bits(), "{what}");
                    let delays: Vec<u64> = t.gate_delays.iter().map(|d| d.to_bits()).collect();
                    let expected: Vec<u64> =
                        reference.stages.iter().map(|(d, _)| d.to_bits()).collect();
                    assert_eq!(delays, expected, "{what}");
                }
            }
        }
    }
}

/// The kernel/scratch stats counters are wired through the engine: the
/// kernel table served the evaluations, and the scratch high-water marks
/// are plausible (path HWM covers the longest path).
#[test]
fn kernel_stats_are_consistent() {
    let (lib, tlib, tech) = setup();
    let nl = catalog::mapped("c17", lib).unwrap().unwrap();
    let cfg = EnumerationConfig::new(Corner::nominal(&tech));
    let (paths, stats) = run(&nl, lib, tlib, &cfg, 1);
    assert!(stats.compiled_evals > 0);
    let longest = paths.iter().map(|p| p.nodes.len()).max().unwrap();
    assert!(stats.scratch_path_hwm >= longest);
    assert!(stats.scratch_side_hwm > 0, "c17 has side inputs");
}
