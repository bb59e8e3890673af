//! Bit-parallel 64-lane logic engine benchmark (`BENCH_bitsim.json`).
//!
//! For each catalog circuit the harness times raw forward simulation of
//! random input vectors — one at a time through the nine-valued
//! [`ImplicationEngine`] vs 64 per word through the compiled [`BitSim`]
//! program — and reports ns/vector. This is the evidence for the batch
//! certificate replay of `lint --verify-paths`, which simulates 64
//! witnesses per word.
//!
//! Usage: `bench_bitsim [--circuit NAME]... [--out PATH]`
//! (default circuits: c17 c432 c880; default out: BENCH_bitsim.json)

use std::hint::black_box;
use std::time::Instant;

use serde::Serialize;
use sta_bench::{benchmark, library};
use sta_cells::Technology;
use sta_logic::{BitSim, Dual, ImplicationEngine, Mask, Schedule, TriVal};

#[derive(Serialize)]
struct VectorSim {
    /// Vectors simulated per timed pass (a multiple of 64).
    vectors: usize,
    scalar_ns_per_vector: f64,
    packed_ns_per_vector: f64,
    /// Packed speedup over one-at-a-time engine simulation.
    speedup: f64,
}

#[derive(Serialize)]
struct CircuitReport {
    name: String,
    vector_sim: VectorSim,
}

#[derive(Serialize)]
struct Report {
    tech: String,
    circuits: Vec<CircuitReport>,
}

/// Deterministic xorshift64* stream — no external RNG dependency.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Times the raw vector-simulation throughput of both engines over the
/// same `words * 64` random stable input vectors, best of 3 passes.
fn vector_sim(nl: &sta_netlist::Netlist, lib: &sta_cells::Library, words: usize) -> VectorSim {
    let inputs = nl.inputs().to_vec();
    let outputs = nl.outputs().to_vec();
    // One u64 per (word, input): bit i is input's value in lane i.
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    let stimuli: Vec<Vec<u64>> = (0..words)
        .map(|_| inputs.iter().map(|_| rng.next()).collect())
        .collect();

    let mut eng = ImplicationEngine::new(nl, lib);
    let mut scalar_best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut acc = 0u64;
        for word in &stimuli {
            for lane in 0..64u32 {
                eng.reset();
                for (&pi, bits) in inputs.iter().zip(word) {
                    eng.assign(pi, Dual::stable(bits >> lane & 1 == 1), Mask::BOTH);
                }
                for &po in &outputs {
                    acc += u64::from(eng.value(po).r == sta_logic::V9::S1);
                }
            }
        }
        black_box(acc);
        scalar_best = scalar_best.min(t0.elapsed().as_secs_f64());
    }

    let sched = Schedule::compile(nl, lib);
    let mut sim = BitSim::new(&sched);
    let mut packed_best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut acc = 0u64;
        for word in &stimuli {
            sim.begin(&sched);
            for (&pi, &bits) in inputs.iter().zip(word) {
                sim.require(pi, bits, TriVal::One);
                sim.require(pi, !bits, TriVal::Zero);
            }
            sim.run(&sched, !0);
            for &po in &outputs {
                for lane in 0..64u32 {
                    acc += u64::from(sim.get(po, lane) == Some(TriVal::One));
                }
            }
        }
        black_box(acc);
        packed_best = packed_best.min(t0.elapsed().as_secs_f64());
    }

    let vectors = words * 64;
    let scalar_ns = scalar_best * 1e9 / vectors as f64;
    let packed_ns = packed_best * 1e9 / vectors as f64;
    VectorSim {
        vectors,
        scalar_ns_per_vector: scalar_ns,
        packed_ns_per_vector: packed_ns,
        speedup: scalar_ns / packed_ns,
    }
}

fn main() {
    let mut circuits: Vec<String> = Vec::new();
    let mut out = String::from("BENCH_bitsim.json");
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
    let mut report = Report {
        tech: tech.name.to_string(),
        circuits: Vec::new(),
    };

    for name in &circuits {
        let nl = benchmark(name).mapped.clone();

        let vs = vector_sim(&nl, lib, 64);
        println!(
            "{name}: vector sim {:.1} ns scalar / {:.1} ns packed ({:.1}x)",
            vs.scalar_ns_per_vector, vs.packed_ns_per_vector, vs.speedup
        );
        report.circuits.push(CircuitReport {
            name: name.clone(),
            vector_sim: vs,
        });
    }

    // The word-level simulator must beat one-at-a-time engine simulation
    // by a wide margin everywhere.
    let packed_wins = report
        .circuits
        .iter()
        .filter(|c| c.vector_sim.speedup >= 8.0)
        .count();
    assert!(
        report.circuits.len() < 2 || packed_wins >= 2,
        "packed simulation must be at least 8x faster than scalar engine \
         simulation on two or more circuits"
    );
    let js = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, &js).expect("write report");
    println!("wrote {out}");
}
