//! Interpreted-vs-compiled delay kernel benchmark (`BENCH_kernel_compile.json`).
//!
//! For each catalog circuit the harness:
//!
//! 1. enumerates true paths (untimed) to collect the circuit's real
//!    delay-evaluation workload: every arc of every emitted path with
//!    propagated slews;
//! 2. replays that workload through the interpreted
//!    [`sta_charlib::poly`] walk (`TimingLibrary::delay_slew`, the
//!    reference the kernels are checked against) and through the
//!    compiled kernel, and reports best-of-3 per-eval timings;
//! 3. records kernel compile time and footprint.
//!
//! Usage: `bench_kernels [--circuit NAME]... [--out PATH]`
//! (default circuits: c17 c432 c880; default out: BENCH_kernel_compile.json)

use std::hint::black_box;
use std::time::Instant;

use serde::Serialize;
use sta_bench::{benchmark, library, timing_library};
use sta_cells::{Corner, Edge, Technology};
use sta_core::{EnumerationConfig, PathEnumerator, TruePath};
use sta_netlist::CellId;

/// One recorded model evaluation of the replay workload.
#[derive(Clone, Copy)]
struct EvalSite {
    cell: CellId,
    pin: u8,
    vector: usize,
    edge: Edge,
    fo: f64,
    slew: f64,
}

#[derive(Serialize)]
struct EvalWorkload {
    /// Distinct recorded evaluation sites.
    sites: usize,
    /// Total evaluations timed per implementation.
    evals: usize,
    interpreted_ns_per_eval: f64,
    compiled_ns_per_eval: f64,
    /// Compiled-kernel speedup over the direct interpreted walk.
    speedup_vs_interpreted: f64,
}

#[derive(Serialize)]
struct KernelInfo {
    arcs: usize,
    coefficients: usize,
    compile_ms: f64,
}

#[derive(Serialize)]
struct CircuitReport {
    name: String,
    /// Paths whose arcs make up the replayed workload.
    paths: usize,
    eval_workload: EvalWorkload,
    kernel: KernelInfo,
}

#[derive(Serialize)]
struct Report {
    tech: String,
    circuits: Vec<CircuitReport>,
}

fn config(name: &str, corner: Corner) -> EnumerationConfig {
    let mut cfg = EnumerationConfig::new(corner);
    // Full enumeration where it is cheap, N-worst where it is not.
    if name == "c17" || name == "c432" {
        cfg.max_paths = Some(100_000);
    } else {
        cfg = cfg.with_n_worst(50);
    }
    cfg
}

/// Replays every arc of every emitted path with slew propagation,
/// recording the evaluation sites the enumerator's inner loop hits.
fn record_sites(
    nl: &sta_netlist::Netlist,
    tlib: &sta_charlib::TimingLibrary,
    corner: Corner,
    input_slew: f64,
    paths: &[TruePath],
) -> Vec<EvalSite> {
    let mut sites = Vec::new();
    for p in paths {
        for (launch, timing) in [(Edge::Rise, &p.rise), (Edge::Fall, &p.fall)] {
            if timing.is_none() {
                continue;
            }
            let mut edge = launch;
            let mut slew = input_slew;
            for arc in &p.arcs {
                let gate = nl.gate(arc.gate);
                let cell = match gate.kind() {
                    sta_netlist::GateKind::Cell(c) => c,
                    sta_netlist::GateKind::Prim(_) => unreachable!("mapped netlist"),
                };
                let fo = tlib.equivalent_fanout(nl, gate.output(), cell);
                sites.push(EvalSite {
                    cell,
                    pin: arc.pin,
                    vector: arc.vector,
                    edge,
                    fo,
                    slew,
                });
                let (_, s) = tlib.delay_slew(cell, arc.pin, arc.vector, edge, fo, slew, corner);
                slew = s.max(0.5);
                edge = edge.through(arc.polarity);
            }
        }
    }
    sites
}

/// Best-of-3 wall time of `f` over `rounds` passes of the site list,
/// in ns per evaluation.
fn time_evals(sites: &[EvalSite], rounds: usize, mut f: impl FnMut(&EvalSite) -> f64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut acc = 0.0;
        for _ in 0..rounds {
            for s in sites {
                acc += f(black_box(s));
            }
        }
        let dt = t0.elapsed().as_secs_f64();
        black_box(acc);
        best = best.min(dt * 1e9 / (rounds * sites.len()) as f64);
    }
    best
}

fn main() {
    let mut circuits: Vec<String> = Vec::new();
    let mut out = String::from("BENCH_kernel_compile.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--circuit" => circuits.push(args.next().expect("--circuit NAME")),
            "--out" => out = args.next().expect("--out PATH"),
            other => panic!("unknown argument {other}"),
        }
    }
    if circuits.is_empty() {
        circuits = ["c17", "c432", "c880"].map(String::from).to_vec();
    }

    let tech = Technology::n130();
    let lib = library();
    let tlib = timing_library(&tech);
    let corner = Corner::nominal(&tech);
    let mut report = Report {
        tech: tech.name.to_string(),
        circuits: Vec::new(),
    };

    for name in &circuits {
        let nl = benchmark(name).mapped.clone();

        // Kernel compile cost and footprint.
        let t0 = Instant::now();
        let kernel = tlib.compile_corner(corner);
        let compile_ms = t0.elapsed().as_secs_f64() * 1e3;

        // Replay the real evaluation workload through both paths.
        let cfg = config(name, corner);
        let input_slew = cfg.input_slew;
        let (paths, _) = PathEnumerator::new(&nl, lib, tlib, cfg).run();
        let sites = record_sites(&nl, tlib, corner, input_slew, &paths);
        assert!(!sites.is_empty(), "{name}: no evaluation sites recorded");
        let rounds = (1_000_000 / sites.len()).max(1);
        let interp_ns = time_evals(&sites, rounds, |s| {
            tlib.delay_slew(s.cell, s.pin, s.vector, s.edge, s.fo, s.slew, corner)
                .0
        });
        let compiled_ns = time_evals(&sites, rounds, |s| {
            kernel
                .eval(kernel.arc_id(s.cell, s.pin, s.vector), s.edge, s.fo, s.slew)
                .0
        });

        let circuit = CircuitReport {
            name: name.clone(),
            paths: paths.len(),
            eval_workload: EvalWorkload {
                sites: sites.len(),
                evals: rounds * sites.len(),
                interpreted_ns_per_eval: interp_ns,
                compiled_ns_per_eval: compiled_ns,
                speedup_vs_interpreted: interp_ns / compiled_ns,
            },
            kernel: KernelInfo {
                arcs: kernel.num_arcs(),
                coefficients: kernel.num_coefficients(),
                compile_ms,
            },
        };
        println!(
            "{name}: eval {:.1} ns interpreted / {:.1} ns compiled ({:.2}x) over {} sites \
             of {} paths; kernel compile {:.3} ms",
            interp_ns,
            compiled_ns,
            circuit.eval_workload.speedup_vs_interpreted,
            sites.len(),
            paths.len(),
            compile_ms
        );
        report.circuits.push(circuit);
    }

    let kernel_speedups = report
        .circuits
        .iter()
        .filter(|c| c.eval_workload.speedup_vs_interpreted >= 1.5)
        .count();
    assert!(
        report.circuits.len() < 2 || kernel_speedups >= 2,
        "compiled kernels must be at least 1.5x faster than the interpreted \
         path on two or more circuits"
    );
    let js = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, &js).expect("write report");
    println!("wrote {out}");
}
