//! Measures the parallel enumeration engine at 1/2/4/8 worker threads
//! and writes `BENCH_parallel_enum.json` (repo root) with the raw
//! wall-clock numbers, the speedup over serial, and a determinism check
//! of each configuration's path set against the serial one.

use std::time::Instant;

use serde::Serialize;
use sta_bench::{benchmark, library, timing_library};
use sta_cells::{Corner, Technology};
use sta_core::{EnumerationConfig, PathEnumerator};

#[derive(Serialize)]
struct ThreadResult {
    /// Requested worker-pool size.
    threads: usize,
    /// Workers that can actually run concurrently on this host
    /// (`min(threads, host_parallelism)`) — on a 1-core host every row
    /// reports 1 here, which is why the speedup column is flat.
    effective_threads: usize,
    /// Best-of-3 wall-clock, milliseconds.
    wall_ms: f64,
    speedup_vs_serial: f64,
    paths: usize,
    matches_serial: bool,
}

/// Echo of the enumeration configuration shared by every run, so a
/// stored report is interpretable without knowing the binary's defaults.
#[derive(Serialize)]
struct EngineConfig {
    n_worst: usize,
}

#[derive(Serialize)]
struct CircuitResult {
    circuit: String,
    n_worst: usize,
    worst_arrival_ps: f64,
    runs: Vec<ThreadResult>,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    technology: String,
    host_parallelism: usize,
    engine: EngineConfig,
    note: &'static str,
    circuits: Vec<CircuitResult>,
}

fn main() {
    let tech = Technology::n130();
    let lib = library();
    let tlib = timing_library(&tech);
    let corner = Corner::nominal(&tech);
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let n_worst = 50;

    let mut circuits = Vec::new();
    for name in ["c432", "c880"] {
        let nl = benchmark(name).mapped.clone();
        let cfg_at = |threads: usize| {
            EnumerationConfig::new(corner)
                .with_n_worst(n_worst)
                .with_threads(threads)
        };
        let (serial_paths, _) = PathEnumerator::new(&nl, lib, tlib, cfg_at(1)).run();
        let serial_bytes = serde_json::to_string(&serial_paths).unwrap();
        let worst = serial_paths.first().map_or(0.0, |p| p.worst_arrival());

        let mut runs = Vec::new();
        let mut serial_ms = 0.0;
        for threads in [1usize, 2, 4, 8] {
            // Warm-up, then best of 3.
            let enumr = PathEnumerator::new(&nl, lib, tlib, cfg_at(threads));
            let (paths, _) = enumr.run();
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                let t0 = Instant::now();
                let _ = PathEnumerator::new(&nl, lib, tlib, cfg_at(threads)).run();
                best = best.min(t0.elapsed().as_secs_f64() * 1e3);
            }
            if threads == 1 {
                serial_ms = best;
            }
            let matches = serde_json::to_string(&paths).unwrap() == serial_bytes;
            println!(
                "{name}: {threads} thread(s) {best:.1} ms ({}x), {} paths, identical={matches}",
                if best > 0.0 { serial_ms / best } else { 0.0 },
                paths.len(),
            );
            runs.push(ThreadResult {
                threads,
                effective_threads: threads.min(host),
                wall_ms: best,
                speedup_vs_serial: if best > 0.0 { serial_ms / best } else { 0.0 },
                paths: paths.len(),
                matches_serial: matches,
            });
        }
        circuits.push(CircuitResult {
            circuit: name.to_string(),
            n_worst,
            worst_arrival_ps: worst,
            runs,
        });
    }

    let report = Report {
        bench: "parallel_enum",
        technology: tech.name.clone(),
        host_parallelism: host,
        engine: EngineConfig { n_worst },
        note: "Wall-clock is best of 3 after warm-up. Speedup over serial is \
               bounded by the host's available parallelism; on a single-core \
               host all thread counts measure the serial runtime plus pool \
               overhead.",
        circuits,
    };
    let json = serde_json::to_string_pretty(&report).unwrap();
    std::fs::write("BENCH_parallel_enum.json", &json).unwrap();
    println!("wrote BENCH_parallel_enum.json ({} bytes)", json.len());
}
