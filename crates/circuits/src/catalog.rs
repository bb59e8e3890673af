//! The benchmark catalog: ISCAS-85 names mapped to the exact c17 plus
//! structure-faithful surrogates for the rest (see DESIGN.md §4 for the
//! substitution rationale — the published ISCAS-85 netlists are not
//! shipped with this repository, so each is replaced by a generator that
//! reproduces its function family and size).

use sta_cells::Library;
use sta_netlist::{bench_fmt, Netlist, NetlistError};

use crate::alu::alu;
use crate::ecc::sec_circuit;
use crate::mapper::map_netlist;
use crate::mult::array_multiplier;
use crate::priority::interrupt_controller;
use crate::randlogic::{random_logic, RandParams};
use crate::sample::sample_circuit;
use crate::transforms::expand_xor;

/// The canonical ISCAS-85 c17 netlist (public-domain benchmark, verbatim).
pub const C17_BENCH: &str = "\
# c17 — ISCAS-85
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
";

/// Description of one catalog entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BenchmarkInfo {
    /// Benchmark name (ISCAS-85 naming).
    pub name: &'static str,
    /// What the circuit is / what surrogate realizes it.
    pub description: &'static str,
    /// Gate count of the original ISCAS-85 circuit, for reference.
    pub iscas_gates: usize,
    /// Recommended justification-decision budget for N-worst runs of
    /// this circuit (`None` = the engine default suffices). The large
    /// surrogates carry a budget so the shipped flows (the CLI defaults,
    /// MCMM batches included) terminate in bounded time; budgeted runs report
    /// `truncated` honestly. The values are the ones the pruning
    /// benchmarks established.
    pub decision_budget: Option<u64>,
}

/// All benchmarks, in the paper's Table 6 order.
pub const BENCHMARKS: [BenchmarkInfo; 12] = [
    BenchmarkInfo {
        name: "c17",
        description: "exact ISCAS-85 c17 (6 NAND2)",
        iscas_gates: 6,
        decision_budget: None,
    },
    BenchmarkInfo {
        name: "c432",
        description: "27-channel priority interrupt controller (generator)",
        iscas_gates: 160,
        decision_budget: None,
    },
    BenchmarkInfo {
        name: "c499",
        description: "32-bit single-error-correcting circuit (generator)",
        iscas_gates: 202,
        decision_budget: None,
    },
    BenchmarkInfo {
        name: "c880",
        description: "16-bit ALU (generator; 16-bit to match the c880 gate count)",
        iscas_gates: 383,
        decision_budget: None,
    },
    BenchmarkInfo {
        name: "c1355",
        description: "c499 with XORs expanded to NAND2s",
        iscas_gates: 546,
        decision_budget: None,
    },
    BenchmarkInfo {
        name: "c1908",
        description: "seeded random logic, c1908-sized",
        iscas_gates: 880,
        decision_budget: Some(2_000_000),
    },
    BenchmarkInfo {
        name: "c2670",
        description: "seeded random logic, c2670-sized",
        iscas_gates: 1193,
        decision_budget: Some(2_000_000),
    },
    BenchmarkInfo {
        name: "c3540",
        description: "seeded random logic, c3540-sized",
        iscas_gates: 1669,
        decision_budget: Some(2_000_000),
    },
    BenchmarkInfo {
        name: "c5315",
        description: "seeded random logic, c5315-sized",
        iscas_gates: 2307,
        decision_budget: Some(2_000_000),
    },
    BenchmarkInfo {
        name: "c6288",
        description: "16×16 array multiplier (generator)",
        iscas_gates: 2406,
        decision_budget: Some(1_000_000),
    },
    BenchmarkInfo {
        name: "c7552",
        description: "seeded random logic, c7552-sized",
        iscas_gates: 3512,
        decision_budget: Some(2_000_000),
    },
    BenchmarkInfo {
        name: "sample",
        description: "the paper's Fig. 4 example (AO22 on the critical path)",
        iscas_gates: 5,
        decision_budget: None,
    },
];

/// Benchmark names in catalog order.
pub fn names() -> Vec<&'static str> {
    BENCHMARKS.iter().map(|b| b.name).collect()
}

/// The catalog entry for a benchmark name (`None` for unknown names).
pub fn benchmark_info(name: &str) -> Option<BenchmarkInfo> {
    BENCHMARKS.iter().find(|b| b.name == name).copied()
}

/// Builds the primitive-gate netlist of a benchmark.
///
/// Returns `None` for unknown names.
pub fn primitive(name: &str) -> Option<Netlist> {
    let nl = match name {
        "c17" => bench_fmt::parse(C17_BENCH, "c17").expect("embedded c17 parses"),
        "c432" => renamed(interrupt_controller(3, 9), "c432"),
        "c499" => renamed(sec_circuit(), "c499"),
        "c880" => renamed(alu(16), "c880"),
        "c1355" => renamed(expand_xor(&sec_circuit()), "c1355"),
        "c1908" => random_logic(&RandParams {
            name: "c1908".into(),
            inputs: 33,
            outputs: 25,
            gates: 880,
            seed: 1908,
            window: 110,
        }),
        "c2670" => random_logic(&RandParams {
            name: "c2670".into(),
            inputs: 157,
            outputs: 64,
            gates: 1193,
            seed: 2670,
            window: 150,
        }),
        "c3540" => random_logic(&RandParams {
            name: "c3540".into(),
            inputs: 50,
            outputs: 22,
            gates: 1669,
            seed: 3540,
            window: 140,
        }),
        "c5315" => random_logic(&RandParams {
            name: "c5315".into(),
            inputs: 178,
            outputs: 123,
            gates: 2307,
            seed: 5315,
            window: 200,
        }),
        "c6288" => renamed(array_multiplier(16), "c6288"),
        "c7552" => random_logic(&RandParams {
            name: "c7552".into(),
            inputs: 207,
            outputs: 108,
            gates: 3512,
            seed: 7552,
            window: 230,
        }),
        "sample" => renamed(sample_circuit(), "sample"),
        _ => return None,
    };
    Some(nl)
}

/// Loads a primitive netlist from an ISCAS-85 `.bench` file on disk —
/// drop the published benchmark files next to the binary to run the
/// experiments on the *real* circuits instead of the surrogates.
///
/// # Errors
///
/// Returns I/O errors boxed into [`NetlistError::Parse`] message form, or
/// parse errors verbatim.
pub fn from_bench_file(path: &std::path::Path) -> Result<Netlist, NetlistError> {
    let text = std::fs::read_to_string(path).map_err(|e| NetlistError::Parse {
        line: 0,
        message: format!("cannot read {}: {e}", path.display()),
    })?;
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("bench")
        .to_string();
    bench_fmt::parse(&text, &name)
}

/// Resolves a benchmark by name with a disk override: if
/// `<dir>/<name>.bench` exists it is loaded (the real ISCAS netlist),
/// otherwise the built-in surrogate generator is used.
///
/// # Errors
///
/// Propagates parse errors from an existing-but-malformed file.
pub fn primitive_with_overrides(
    name: &str,
    dir: &std::path::Path,
) -> Result<Option<Netlist>, NetlistError> {
    let candidate = dir.join(format!("{name}.bench"));
    if candidate.is_file() {
        return from_bench_file(&candidate).map(Some);
    }
    Ok(primitive(name))
}

/// Builds the technology-mapped netlist of a benchmark.
///
/// # Errors
///
/// Propagates mapper errors; returns `Ok(None)` for unknown names.
pub fn mapped(name: &str, lib: &Library) -> Result<Option<Netlist>, NetlistError> {
    match primitive(name) {
        Some(nl) => map_netlist(&nl, lib).map(Some),
        None => Ok(None),
    }
}

fn renamed(mut nl: Netlist, name: &str) -> Netlist {
    nl.set_name(name);
    nl
}

#[cfg(test)]
mod tests {
    use super::*;
    use sta_netlist::stats::NetlistStats;

    #[test]
    fn every_catalog_entry_builds_and_validates() {
        for info in BENCHMARKS {
            let nl = primitive(info.name).expect("known name");
            nl.validate().unwrap();
            assert_eq!(nl.name(), info.name);
            let stats = NetlistStats::of(&nl);
            assert!(stats.gates > 0, "{}", info.name);
        }
        assert!(primitive("c9999").is_none());
    }

    #[test]
    fn large_surrogates_carry_decision_budgets() {
        // The shipped flows rely on the big circuits being budgeted.
        for name in ["c1908", "c2670", "c3540", "c5315", "c6288", "c7552"] {
            let info = benchmark_info(name).expect("catalog entry");
            assert!(info.decision_budget.is_some(), "{name} has no budget");
        }
        // The small circuits finish exactly; a budget would be noise.
        for name in ["c17", "c432", "c499", "c880", "c1355", "sample"] {
            let info = benchmark_info(name).expect("catalog entry");
            assert_eq!(info.decision_budget, None, "{name}");
        }
        assert!(benchmark_info("c9999").is_none());
    }

    #[test]
    fn sizes_are_in_the_iscas_ballpark() {
        for info in BENCHMARKS {
            if info.name == "sample" || info.name == "c17" {
                continue;
            }
            let nl = primitive(info.name).unwrap();
            let gates = nl.num_gates();
            let lo = info.iscas_gates / 2;
            let hi = info.iscas_gates * 2;
            assert!(
                (lo..=hi).contains(&gates),
                "{}: {gates} gates vs ISCAS {}",
                info.name,
                info.iscas_gates
            );
        }
    }

    #[test]
    fn disk_override_takes_precedence() {
        let dir = std::env::temp_dir().join("sta_catalog_override");
        let _ = std::fs::create_dir_all(&dir);
        // A fake "c17" with a single inverter.
        std::fs::write(dir.join("c17.bench"), "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n").unwrap();
        let nl = primitive_with_overrides("c17", &dir).unwrap().unwrap();
        assert_eq!(nl.num_gates(), 1, "override wins");
        // Unknown names still fall through to the catalog (None).
        assert!(primitive_with_overrides("c9999", &dir).unwrap().is_none());
        // Without an override file the built-in c17 is used.
        let clean = std::env::temp_dir().join("sta_catalog_no_override");
        let _ = std::fs::create_dir_all(&clean);
        let nl = primitive_with_overrides("c17", &clean).unwrap().unwrap();
        assert_eq!(nl.num_gates(), 6);
    }

    #[test]
    fn mapped_catalog_produces_complex_gates() {
        use sta_netlist::GateKind;
        let lib = Library::standard();
        for name in ["c432", "c880", "c6288"] {
            let raw = primitive(name).unwrap();
            let m = mapped(name, &lib).unwrap().unwrap();
            m.validate().unwrap();
            let multi = m
                .gate_ids()
                .filter(|&g| match m.gate(g).kind() {
                    GateKind::Cell(c) => lib.cell(c).is_multi_vector(),
                    GateKind::Prim(_) => false,
                })
                .count();
            assert!(multi > 0, "{name} mapped without complex gates");
            // Spot-check equivalence on a few random-ish patterns.
            let n = raw.inputs().len();
            for k in 0..8u64 {
                let v: Vec<bool> = (0..n)
                    .map(|i| (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (i % 60)) & 1 == 1)
                    .collect();
                assert_eq!(
                    raw.eval_prim(&v),
                    lib.eval_netlist(&m, &v),
                    "{name} pattern {k}"
                );
            }
        }
    }
}
