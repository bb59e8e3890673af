//! Library characterization: the paper's one-time parameter-extraction
//! process (§IV.A).
//!
//! For every (cell, pin, sensitization vector, input edge) the grid of
//! (Fo × t_in × T × VDD) operating points is electrically simulated with
//! `sta-esim`, and a polynomial model is fitted per arc variant by
//! recursive order selection. In parallel, vector-blind LUT models (one
//! per pin, characterized at the Case-1 reference vector only, at the
//! nominal corner) are tabulated for the commercial-style baseline.

use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use sta_cells::{Cell, Corner, Edge, Library, SensVector, Technology};
use sta_esim::cellsim::{cell_input_cap, input_capacitance, simulate_arc, Drive};
use sta_esim::EsimError;

use crate::lut::Lut2d;
use crate::model::{ArcModel, ArcVariant, CellTiming, LutArc, TimingLibrary};
use crate::poly::{FitError, PolyModel, Sample};

/// Characterization configuration: sweep grids, fit targets, parallelism.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CharConfig {
    /// Equivalent-fanout grid.
    pub fo_grid: Vec<f64>,
    /// Input transition-time grid, ps.
    pub tin_grid: Vec<f64>,
    /// Temperature grid, °C.
    pub temp_grid: Vec<f64>,
    /// Supply grid as multiples of the nominal VDD.
    pub vdd_scale_grid: Vec<f64>,
    /// LUT fanout axis (baseline model).
    pub lut_fo: Vec<f64>,
    /// LUT transition-time axis, ps (baseline model).
    pub lut_tin: Vec<f64>,
    /// Maximum polynomial order per variable (Fo, t_in, T, VDD).
    pub max_orders: [usize; 4],
    /// Target relative RMS residual of the polynomial fit.
    pub target_rel: f64,
    /// Worker threads.
    pub threads: usize,
}

impl CharConfig {
    /// The full-quality configuration used for the paper reproduction.
    pub fn standard() -> Self {
        CharConfig {
            // The fanout axis must cover the design's real fanout spread:
            // unbuffered high-fanout nets (c499's syndrome lines drive ~30
            // pins) otherwise land outside the grid, where the polynomial
            // holds its boundary value.
            fo_grid: vec![0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
            tin_grid: vec![10.0, 30.0, 80.0, 200.0, 500.0, 1000.0],
            temp_grid: vec![0.0, 25.0, 75.0, 125.0],
            vdd_scale_grid: vec![0.9, 1.0, 1.1],
            lut_fo: vec![0.5, 2.0, 8.0, 32.0],
            lut_tin: vec![10.0, 80.0, 300.0, 1000.0],
            max_orders: [3, 3, 2, 2],
            target_rel: 0.01,
            threads: default_threads(),
        }
    }

    /// A reduced configuration for unit tests: nominal corner only, small
    /// grids. Orders of magnitude faster, still exercises every code path.
    pub fn fast() -> Self {
        CharConfig {
            fo_grid: vec![1.0, 3.0, 8.0],
            tin_grid: vec![20.0, 80.0, 250.0],
            temp_grid: vec![25.0],
            vdd_scale_grid: vec![1.0],
            lut_fo: vec![1.0, 4.0, 8.0],
            lut_tin: vec![20.0, 100.0, 250.0],
            max_orders: [2, 2, 0, 0],
            target_rel: 0.02,
            threads: default_threads(),
        }
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}

/// Errors from characterization.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum CharError {
    /// Electrical simulation failed for an arc.
    Sim {
        /// Cell being characterized.
        cell: String,
        /// Pin under test.
        pin: u8,
        /// Case number of the vector.
        case: usize,
        /// Underlying simulator error.
        source: EsimError,
    },
    /// Polynomial fitting failed for an arc's sample set.
    Fit {
        /// Cell being characterized.
        cell: String,
        /// Pin under test.
        pin: u8,
        /// Case number of the vector.
        case: usize,
        /// Underlying fit error.
        source: FitError,
    },
}

impl std::fmt::Display for CharError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CharError::Sim {
                cell,
                pin,
                case,
                source,
            } => write!(
                f,
                "characterization of {cell} pin {pin} case {case} failed: {source}"
            ),
            CharError::Fit {
                cell,
                pin,
                case,
                source,
            } => write!(
                f,
                "model fit for {cell} pin {pin} case {case} failed: {source}"
            ),
        }
    }
}

impl std::error::Error for CharError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CharError::Sim { source, .. } => Some(source),
            CharError::Fit { source, .. } => Some(source),
        }
    }
}

/// Characterizes the whole library for one technology.
///
/// # Errors
///
/// Returns [`CharError::Sim`] if any arc fails to simulate (indicative of a
/// malformed cell or an unreachable operating point).
pub fn characterize(
    lib: &Library,
    tech: &Technology,
    cfg: &CharConfig,
) -> Result<TimingLibrary, CharError> {
    characterize_observed(lib, tech, cfg, &sta_obs::Observer::disabled(), 0)
}

/// [`characterize`] with observability: each cell's characterization is
/// recorded as a span under `parent` (a `sta_obs::SpanGuard::id`), with
/// the cell's library index as the ordinal — so the merged span tree
/// lists cells in library order no matter which worker simulated them.
///
/// # Errors
///
/// Same as [`characterize`].
pub fn characterize_observed(
    lib: &Library,
    tech: &Technology,
    cfg: &CharConfig,
    obs: &sta_obs::Observer,
    parent: u64,
) -> Result<TimingLibrary, CharError> {
    let cells: Vec<&Cell> = lib.iter().collect();
    let cursor = AtomicUsize::new(0);
    let mut results: Vec<(usize, Result<CellTiming, CharError>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    // Per-worker span buffer: recording is lock-free; the
                    // batch merges into the shared recorder on drop.
                    let mut spans = obs.local();
                    let mut done = Vec::new();
                    loop {
                        let idx = cursor.fetch_add(1, Relaxed);
                        let Some(&cell) = cells.get(idx) else {
                            break;
                        };
                        let outcome = spans.time(
                            parent,
                            idx as u64,
                            "cell",
                            vec![("cell", cell.name().to_string())],
                            || characterize_cell(cell, tech, cfg),
                        );
                        done.push((idx, outcome));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    results.sort_by_key(|&(idx, _)| idx);
    let out = results
        .into_iter()
        .map(|(_, r)| r)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(TimingLibrary {
        tech: tech.clone(),
        cells: out,
    })
}

/// Characterizes one cell (all pins, vectors, edges).
///
/// # Errors
///
/// Returns [`CharError::Sim`] if an arc fails to simulate.
pub fn characterize_cell(
    cell: &Cell,
    tech: &Technology,
    cfg: &CharConfig,
) -> Result<CellTiming, CharError> {
    let avg_cin = cell_input_cap(cell, tech);
    let input_caps: Vec<f64> = (0..cell.num_pins())
        .map(|p| input_capacitance(cell, tech, p))
        .collect();

    let mut variants = Vec::new();
    let mut variant_index = Vec::new();
    let mut luts = Vec::new();
    for pin in 0..cell.num_pins() {
        let vectors = cell.vectors_of(pin);
        let mut per_pin = Vec::new();
        for v in vectors {
            let rise = fit_arc(cell, tech, cfg, v, Edge::Rise, avg_cin)?;
            let fall = fit_arc(cell, tech, cfg, v, Edge::Fall, avg_cin)?;
            per_pin.push(variants.len());
            variants.push(ArcVariant {
                pin,
                case: v.case,
                polarity: v.polarity,
                rise,
                fall,
            });
        }
        variant_index.push(per_pin);
        // Vector-blind LUT at the reference (Case 1) vector, nominal corner.
        let reference = &vectors[0];
        luts.push(tabulate_lut(cell, tech, cfg, reference, avg_cin)?);
    }
    Ok(CellTiming {
        cell: cell.id(),
        name: cell.name().to_string(),
        input_caps,
        avg_input_cap: avg_cin,
        variants,
        variant_index,
        luts,
    })
}

fn fit_arc(
    cell: &Cell,
    tech: &Technology,
    cfg: &CharConfig,
    vector: &SensVector,
    edge: Edge,
    avg_cin: f64,
) -> Result<ArcModel, CharError> {
    let mut delay_samples = Vec::new();
    let mut slew_samples = Vec::new();
    let mut max_delay: f64 = 0.0;
    for &fo in &cfg.fo_grid {
        for &t_in in &cfg.tin_grid {
            for &temperature in &cfg.temp_grid {
                for &scale in &cfg.vdd_scale_grid {
                    let corner = Corner {
                        temperature,
                        vdd: scale * tech.vdd,
                    };
                    let outcome = simulate_arc(
                        cell,
                        tech,
                        corner,
                        vector,
                        edge,
                        Drive::Ramp { transition: t_in },
                        fo * avg_cin,
                    )
                    .map_err(|source| CharError::Sim {
                        cell: cell.name().to_string(),
                        pin: vector.pin,
                        case: vector.case,
                        source,
                    })?;
                    max_delay = max_delay.max(outcome.delay);
                    delay_samples.push(Sample {
                        fo,
                        t_in,
                        temperature,
                        vdd: corner.vdd,
                        value: outcome.delay,
                    });
                    slew_samples.push(Sample {
                        fo,
                        t_in,
                        temperature,
                        vdd: corner.vdd,
                        value: outcome.output_slew,
                    });
                }
            }
        }
    }
    let fit_err = |source: FitError| CharError::Fit {
        cell: cell.name().to_string(),
        pin: vector.pin,
        case: vector.case,
        source,
    };
    Ok(ArcModel {
        delay: PolyModel::fit_auto(&delay_samples, cfg.max_orders, cfg.target_rel)
            .map_err(&fit_err)?,
        slew: PolyModel::fit_auto(&slew_samples, cfg.max_orders, cfg.target_rel)
            .map_err(&fit_err)?,
        max_sample_delay: max_delay,
    })
}

fn tabulate_lut(
    cell: &Cell,
    tech: &Technology,
    cfg: &CharConfig,
    reference: &SensVector,
    avg_cin: f64,
) -> Result<LutArc, CharError> {
    let corner = Corner::nominal(tech);
    let mut tables = Vec::new(); // rise_delay, rise_slew, fall_delay, fall_slew
    for edge in Edge::BOTH {
        let mut delays = Vec::new();
        let mut slews = Vec::new();
        for &fo in &cfg.lut_fo {
            for &t_in in &cfg.lut_tin {
                let outcome = simulate_arc(
                    cell,
                    tech,
                    corner,
                    reference,
                    edge,
                    Drive::Ramp { transition: t_in },
                    fo * avg_cin,
                )
                .map_err(|source| CharError::Sim {
                    cell: cell.name().to_string(),
                    pin: reference.pin,
                    case: reference.case,
                    source,
                })?;
                delays.push(outcome.delay);
                slews.push(outcome.output_slew);
            }
        }
        tables.push(Lut2d::new(cfg.lut_fo.clone(), cfg.lut_tin.clone(), delays));
        tables.push(Lut2d::new(cfg.lut_fo.clone(), cfg.lut_tin.clone(), slews));
    }
    let fall_slew = tables.pop().expect("four tables");
    let fall_delay = tables.pop().expect("four tables");
    let rise_slew = tables.pop().expect("four tables");
    let rise_delay = tables.pop().expect("four tables");
    Ok(LutArc {
        pin: reference.pin,
        polarity: reference.polarity,
        rise_delay,
        rise_slew,
        fall_delay,
        fall_slew,
    })
}

/// Characterizes with a JSON disk cache: if a cache file for this
/// (technology, config, library fingerprint) exists it is loaded instead
/// of re-simulating; otherwise the result is computed and stored.
///
/// # Errors
///
/// Returns [`CharError`] on simulation failure. I/O problems fall back to
/// in-memory characterization (a cache is an optimization, not a
/// requirement).
pub fn characterize_cached(
    lib: &Library,
    tech: &Technology,
    cfg: &CharConfig,
    cache_dir: &Path,
) -> Result<TimingLibrary, CharError> {
    characterize_cached_observed(lib, tech, cfg, cache_dir, &sta_obs::Observer::disabled(), 0)
}

/// [`characterize_cached`] with observability: cache hits and misses are
/// counted (`charlib.cache_hits` / `charlib.cache_misses`), and a miss
/// records the full per-cell span set of [`characterize_observed`] under
/// `parent`.
///
/// # Errors
///
/// Same as [`characterize_cached`].
pub fn characterize_cached_observed(
    lib: &Library,
    tech: &Technology,
    cfg: &CharConfig,
    cache_dir: &Path,
    obs: &sta_obs::Observer,
    parent: u64,
) -> Result<TimingLibrary, CharError> {
    let key = cache_key(lib, tech, cfg);
    let path = cache_dir.join(format!("timing_{}_{key:016x}.json", tech.name));
    if let Ok(text) = fs::read_to_string(&path) {
        if let Ok(tlib) = serde_json::from_str::<TimingLibrary>(&text) {
            if tlib.covers(lib) {
                obs.counter("charlib.cache_hits").inc();
                return Ok(tlib);
            }
        }
    }
    obs.counter("charlib.cache_misses").inc();
    let tlib = characterize_observed(lib, tech, cfg, obs, parent)?;
    if fs::create_dir_all(cache_dir).is_ok() {
        if let Ok(text) = serde_json::to_string(&tlib) {
            let _ = fs::write(&path, text);
        }
    }
    Ok(tlib)
}

/// FNV-1a fingerprint of everything that determines the characterization
/// result.
fn cache_key(lib: &Library, tech: &Technology, cfg: &CharConfig) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    eat(serde_json::to_string(cfg).unwrap_or_default().as_bytes());
    eat(serde_json::to_string(tech).unwrap_or_default().as_bytes());
    for cell in lib.iter() {
        eat(cell.name().as_bytes());
        eat(&[cell.num_pins()]);
        eat(format!("{}", cell.expr().display()).as_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use sta_cells::Library;

    #[test]
    fn characterize_inverter_fast() {
        let lib = Library::standard();
        let inv = lib.cell_by_name("INV").unwrap();
        let tech = Technology::n90();
        let cfg = CharConfig::fast();
        let ct = characterize_cell(inv, &tech, &cfg).unwrap();
        assert_eq!(ct.variants.len(), 1);
        assert_eq!(ct.luts.len(), 1);
        let corner = Corner::nominal(&tech);
        // Model predictions close to fresh simulations at an off-grid point.
        let (d, s) = ct
            .variant(0, 0)
            .for_edge(Edge::Rise)
            .eval(2.0, 50.0, corner);
        let sim = simulate_arc(
            inv,
            &tech,
            corner,
            &inv.vectors_of(0)[0],
            Edge::Rise,
            Drive::Ramp { transition: 50.0 },
            2.0 * ct.avg_input_cap,
        )
        .unwrap();
        let rel = (d - sim.delay).abs() / sim.delay;
        assert!(rel < 0.08, "poly {d} vs sim {} (rel {rel})", sim.delay);
        assert!(s > 0.0);
        // LUT is also in the right ballpark at nominal.
        let (dl, _) = ct.lut(0).eval(Edge::Rise, 2.0, 50.0);
        assert!((dl - sim.delay).abs() / sim.delay < 0.15, "lut {dl}");
    }

    #[test]
    fn vector_dependence_survives_fitting() {
        // The fitted models must preserve the paper's ordering: AO22
        // input-A fall, Case 2 slower than Case 1.
        let lib = Library::standard();
        let ao22 = lib.cell_by_name("AO22").unwrap();
        let tech = Technology::n130();
        let cfg = CharConfig::fast();
        let ct = characterize_cell(ao22, &tech, &cfg).unwrap();
        let corner = Corner::nominal(&tech);
        let d1 = ct.variant(0, 0).fall.eval(4.0, 60.0, corner).0;
        let d2 = ct.variant(0, 1).fall.eval(4.0, 60.0, corner).0;
        assert!(d2 > d1 * 1.05, "case2 {d2} vs case1 {d1}");
    }

    /// Workers claim cells in index order and hand their results back by
    /// index, so the worker count changes neither the characterized
    /// library nor the span tree (each cell span sits at its cell index).
    #[test]
    fn characterization_does_not_depend_on_the_worker_count() {
        use sta_cells::Expr;
        let mut lib = Library::new();
        lib.add("INV", 1, Expr::Pin(0).not());
        lib.add("BUF", 1, Expr::Pin(0));
        lib.add("NAND2", 2, Expr::and_pins(&[0, 1]).not());
        lib.add("NOR2", 2, Expr::or_pins(&[0, 1]).not());
        lib.add("XOR2", 2, Expr::Xor(vec![Expr::Pin(0), Expr::Pin(1)]));
        let tech = Technology::n90();
        let run = |threads: usize| {
            let cfg = CharConfig {
                threads,
                ..CharConfig::fast()
            };
            let obs = sta_obs::Observer::enabled();
            let root = obs.span("characterize");
            let tlib = characterize_observed(&lib, &tech, &cfg, &obs, root.id()).unwrap();
            root.end();
            let cells: Vec<String> = obs.span_tree()[0]
                .children
                .iter()
                .map(|c| c.attrs["cell"].clone())
                .collect();
            (tlib, cells)
        };
        let (serial, serial_cells) = run(1);
        let (pooled, pooled_cells) = run(3);
        assert!(serial == pooled, "the library depends on the worker count");
        let names: Vec<String> = lib.iter().map(|c| c.name().to_string()).collect();
        assert_eq!(serial_cells, names);
        assert_eq!(pooled_cells, names);
    }

    #[test]
    fn cache_roundtrip() {
        let mut small = Library::new();
        small.add("INV", 1, sta_cells::Expr::Pin(0).not());
        let tech = Technology::n90();
        let cfg = CharConfig::fast();
        let dir = std::env::temp_dir().join("sta_charlib_test_cache");
        let _ = std::fs::remove_dir_all(&dir);
        let a = characterize_cached(&small, &tech, &cfg, &dir).unwrap();
        // Second call must hit the cache; predictions agree to JSON float
        // precision (exact struct equality is lost in the last ULP of the
        // serialized coefficients).
        let b = characterize_cached(&small, &tech, &cfg, &dir).unwrap();
        let corner = Corner::nominal(&tech);
        let cid = sta_netlist::CellId::from_index(0);
        for edge in Edge::BOTH {
            let (da, sa) = a.delay_slew(cid, 0, 0, edge, 2.5, 60.0, corner);
            let (db, sb) = b.delay_slew(cid, 0, 0, edge, 2.5, 60.0, corner);
            assert!((da - db).abs() < 1e-6 && (sa - sb).abs() < 1e-6);
        }
        assert!(dir.read_dir().unwrap().count() >= 1);
    }
}
