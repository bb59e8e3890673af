//! Classic levelized static timing analysis.
//!
//! Used in two places: as the pruning bound of the N-worst true-path
//! search (`remaining_bound`) and as stage one of the commercial-style
//! baseline (structural arrival times, no sensitization).

use sta_cells::{Corner, Edge, Library};
use sta_charlib::{CompiledCorner, TimingLibrary};
use sta_logic::Toggle;
use sta_netlist::{CellId, GateId, GateKind, Netlist};

/// Per-net static timing quantities.
#[derive(Clone, Debug, PartialEq)]
pub struct StaticTiming {
    /// Worst-case structural arrival time per net, ps (0 at PIs).
    pub arrival: Vec<f64>,
    /// Worst-case structural delay from each net to any primary output, ps
    /// (0 at POs without fanout).
    pub remaining: Vec<f64>,
}

/// The largest modelled delay of any arc through (`cell`, `pin`): max over
/// sensitization vectors and edges of the largest characterization sample.
/// A conservative per-arc bound for structural analyses.
pub fn arc_delay_bound(tlib: &TimingLibrary, cell: sta_netlist::CellId, pin: u8) -> f64 {
    let ct = tlib.cell(cell);
    (0..ct.num_vectors(pin))
        .map(|v| {
            let var = ct.variant(pin, v);
            var.rise.max_sample_delay.max(var.fall.max_sample_delay)
        })
        .fold(0.0, f64::max)
}

/// Computes structural arrival and remaining-delay bounds with worst-case
/// per-arc delays evaluated at `default_slew` (plus the tabulated sample
/// maxima as a safety net) and the real per-net fanout loads.
///
/// `margin` scales every arc bound (≥ 1.0 recommended — the bound is used
/// to prune the N-worst search and should stay conservative with respect
/// to slew effects the static pass cannot see).
///
/// # Panics
///
/// Panics if the netlist contains unmapped primitive gates or a cycle.
pub fn static_bounds(
    nl: &Netlist,
    tlib: &TimingLibrary,
    corner: Corner,
    default_slew: f64,
    margin: f64,
) -> StaticTiming {
    bounds_with(nl, tlib, margin, |cell, pin, v, edge, fo| {
        tlib.cell(cell)
            .variant(pin, v)
            .for_edge(edge)
            .eval(fo, default_slew, corner)
            .0
    })
}

/// [`static_bounds`] evaluated through a corner-compiled kernel table.
/// Bit-identical to the interpreted bounds at the kernel's corner, so the
/// N-worst pruning decisions of a compiled run match an interpreted run
/// exactly.
pub fn static_bounds_compiled(
    nl: &Netlist,
    tlib: &TimingLibrary,
    kernel: &CompiledCorner,
    default_slew: f64,
    margin: f64,
) -> StaticTiming {
    bounds_with(nl, tlib, margin, |cell, pin, v, edge, fo| {
        kernel
            .eval(kernel.arc_id(cell, pin, v), edge, fo, default_slew)
            .0
    })
}

fn bounds_with(
    nl: &Netlist,
    tlib: &TimingLibrary,
    margin: f64,
    mut arc_delay: impl FnMut(CellId, u8, usize, Edge, f64) -> f64,
) -> StaticTiming {
    let order = nl.topo_gates();
    assert_eq!(order.len(), nl.num_gates(), "netlist has a cycle");
    // Per-gate worst arc delay (max over input pins, vectors, edges).
    let gate_bound: Vec<f64> = nl
        .gate_ids()
        .map(|g| {
            let gate = nl.gate(g);
            let cell = match gate.kind() {
                GateKind::Cell(c) => c,
                GateKind::Prim(op) => panic!("static_bounds on unmapped primitive {op}"),
            };
            let fo = tlib.equivalent_fanout(nl, gate.output(), cell);
            let ct = tlib.cell(cell);
            let mut worst: f64 = 0.0;
            for pin in 0..gate.fanin() as u8 {
                for v in 0..ct.num_vectors(pin) {
                    for edge in Edge::BOTH {
                        worst = worst.max(arc_delay(cell, pin, v, edge, fo));
                    }
                }
                worst = worst.max(arc_delay_bound(tlib, cell, pin));
            }
            worst * margin
        })
        .collect();

    let mut arrival = vec![0.0; nl.num_nets()];
    for &g in &order {
        let gate = nl.gate(g);
        let worst_in = gate
            .inputs()
            .iter()
            .map(|n| arrival[n.index()])
            .fold(0.0, f64::max);
        arrival[gate.output().index()] = worst_in + gate_bound[g.index()];
    }

    let mut remaining = vec![0.0; nl.num_nets()];
    for &g in order.iter().rev() {
        let gate = nl.gate(g);
        let through = remaining[gate.output().index()] + gate_bound[g.index()];
        for n in gate.inputs() {
            let slot = &mut remaining[n.index()];
            if through > *slot {
                *slot = through;
            }
        }
    }
    StaticTiming { arrival, remaining }
}

/// Conservative per-(gate, pin, vector) arc-delay upper bounds, ps —
/// the per-arc refinement of the per-gate maximum inside
/// [`static_bounds`]. Computed once per run and shared read-only by
/// every worker; feeds the dominance cut of the N-worst search (see
/// `sta_core::learn` and `enumerate`).
#[derive(Clone, Debug)]
pub struct ArcBounds {
    /// `per_gate[gate][pin][vector]`, already scaled by the margin.
    per_gate: Vec<Vec<Vec<f64>>>,
}

impl ArcBounds {
    /// The bound of one arc, ps.
    #[inline]
    pub fn get(&self, gate: GateId, pin: u8, vector: usize) -> f64 {
        self.per_gate[gate.index()][pin as usize][vector]
    }
}

/// Margin applied to the slew-swept per-arc bounds ([`arc_bounds`]).
/// The sweep evaluates the *model itself* on a dense fixed grid of the
/// clamped slew domain, so the only slack the margin must cover is
/// polynomial wiggle between adjacent sample points — a few percent
/// dwarfs it for the low-order fitted models. Contrast
/// `EnumerationConfig::prune_margin`, which also has to absorb the slew
/// effects the single-point [`static_bounds`] evaluation cannot see.
pub const ARC_SWEEP_MARGIN: f64 = 1.02;

/// Fixed slew sample points of the per-arc bound sweep: dense over the
/// characterized range (the models clamp their inputs to the fitted box,
/// so beyond the grid edge they hold their boundary value) plus sparse
/// log-spaced points and one effectively-infinite probe covering wider
/// grids. Fixed points keep the compiled and interpreted bound tables
/// bit-identical — both evaluators agree bitwise at any single point.
const SLEW_SWEEP: [f64; 48] = [
    0.0, 25.0, 50.0, 75.0, 100.0, 125.0, 150.0, 175.0, 200.0, 225.0, 250.0, 275.0, 300.0, 325.0,
    350.0, 375.0, 400.0, 425.0, 450.0, 475.0, 500.0, 525.0, 550.0, 575.0, 600.0, 625.0, 650.0,
    675.0, 700.0, 725.0, 750.0, 775.0, 800.0, 825.0, 850.0, 875.0, 900.0, 925.0, 950.0, 975.0,
    1000.0, 1250.0, 1600.0, 2000.0, 3000.0, 5000.0, 10000.0, 1e12,
];

/// Per-arc delay bounds: for every (pin, vector, edge) the model delay is
/// maximized over the arc's *real* fanout load and the full clamped slew
/// domain (`SLEW_SWEEP`), then scaled by `margin`. Much tighter than
/// the [`static_bounds`] recipe — that one folds in the grid-global
/// tabulated sample maximum, which a low-fanout gate never approaches —
/// while still upper-bounding every delay the search can compute for the
/// arc: the search evaluates the same clamped model at the same fanout,
/// only the slew differs, and the sweep covers the whole slew range.
///
/// # Panics
///
/// Panics if the netlist contains unmapped primitive gates.
pub fn arc_bounds(
    nl: &Netlist,
    tlib: &TimingLibrary,
    corner: Corner,
    default_slew: f64,
    margin: f64,
) -> ArcBounds {
    arc_bounds_with(
        nl,
        tlib,
        default_slew,
        margin,
        |cell, pin, v, edge, fo, slew| {
            tlib.cell(cell)
                .variant(pin, v)
                .for_edge(edge)
                .eval(fo, slew, corner)
                .0
        },
    )
}

/// [`arc_bounds`] evaluated through a corner-compiled kernel table —
/// bit-identical to the interpreted bounds at the kernel's corner, so
/// the dominance cut never depends on the kernel setting.
pub fn arc_bounds_compiled(
    nl: &Netlist,
    tlib: &TimingLibrary,
    kernel: &CompiledCorner,
    default_slew: f64,
    margin: f64,
) -> ArcBounds {
    arc_bounds_with(
        nl,
        tlib,
        default_slew,
        margin,
        |cell, pin, v, edge, fo, slew| kernel.eval(kernel.arc_id(cell, pin, v), edge, fo, slew).0,
    )
}

fn arc_bounds_with(
    nl: &Netlist,
    tlib: &TimingLibrary,
    default_slew: f64,
    margin: f64,
    mut arc_delay: impl FnMut(CellId, u8, usize, Edge, f64, f64) -> f64,
) -> ArcBounds {
    let per_gate = nl
        .gate_ids()
        .map(|g| {
            let gate = nl.gate(g);
            let cell = match gate.kind() {
                GateKind::Cell(c) => c,
                GateKind::Prim(op) => panic!("arc_bounds on unmapped primitive {op}"),
            };
            let fo = tlib.equivalent_fanout(nl, gate.output(), cell);
            let ct = tlib.cell(cell);
            (0..gate.fanin() as u8)
                .map(|pin| {
                    (0..ct.num_vectors(pin))
                        .map(|v| {
                            let mut worst = f64::NEG_INFINITY;
                            for edge in Edge::BOTH {
                                worst = worst.max(arc_delay(cell, pin, v, edge, fo, default_slew));
                                for &slew in &SLEW_SWEEP {
                                    worst = worst.max(arc_delay(cell, pin, v, edge, fo, slew));
                                }
                            }
                            worst * margin
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    ArcBounds { per_gate }
}

/// Two-sided delay and slew bounds of one timing arc, ps — the interval
/// refinement of [`ArcBounds`]: where the dominance cut only needs an
/// upper delay bound, the abstract interpreter in `sta-lint` needs both
/// sides of both quantities to propagate sound `[lo, hi]` envelopes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ArcInterval {
    /// Smallest swept delay, ps (margin-widened downward).
    pub delay_lo: f64,
    /// Largest swept delay, ps (margin-widened upward).
    pub delay_hi: f64,
    /// Smallest swept output slew, ps (margin-widened downward).
    pub slew_lo: f64,
    /// Largest swept output slew, ps (margin-widened upward).
    pub slew_hi: f64,
}

/// Per-(gate, pin, vector) two-sided arc intervals — the table the
/// `sta-lint` interval abstract interpreter consumes. Built by the same
/// fixed `SLEW_SWEEP` as [`arc_bounds`], so the interpreted and
/// compiled tables are bit-identical at the kernel's corner.
#[derive(Clone, Debug)]
pub struct ArcIntervals {
    /// `per_gate[gate][pin][vector]`, already margin-widened.
    per_gate: Vec<Vec<Vec<ArcInterval>>>,
}

impl ArcIntervals {
    /// The interval of one arc.
    #[inline]
    pub fn get(&self, gate: GateId, pin: u8, vector: usize) -> ArcInterval {
        self.per_gate[gate.index()][pin as usize][vector]
    }

    /// Number of gates covered (every gate of the netlist).
    pub fn num_gates(&self) -> usize {
        self.per_gate.len()
    }

    /// Number of characterized vectors of one (gate, pin) arc family.
    #[inline]
    pub fn num_vectors(&self, gate: GateId, pin: u8) -> usize {
        self.per_gate[gate.index()][pin as usize].len()
    }
}

/// Two-sided per-arc delay/slew intervals: for every (pin, vector) the
/// model is evaluated over both edges and the full swept slew domain at
/// the arc's real fanout, and the min/max of delay and output slew are
/// kept. The raw extrema are then widened *symmetrically* by
/// `(margin - 1) * scale` where `scale = max(|min|, |max|)` — unlike the
/// multiplicative widening of [`arc_bounds`], which is unsound for a
/// lower bound whose minimum sits near zero while the function swings
/// much larger between grid points.
///
/// # Panics
///
/// Panics if the netlist contains unmapped primitive gates.
pub fn arc_intervals(
    nl: &Netlist,
    tlib: &TimingLibrary,
    corner: Corner,
    default_slew: f64,
    margin: f64,
) -> ArcIntervals {
    arc_intervals_with(
        nl,
        tlib,
        default_slew,
        margin,
        |cell, pin, v, edge, fo, slew| {
            tlib.cell(cell)
                .variant(pin, v)
                .for_edge(edge)
                .eval(fo, slew, corner)
        },
    )
}

/// [`arc_intervals`] evaluated through a corner-compiled kernel table —
/// bit-identical to the interpreted intervals at the kernel's corner, so
/// audit verdicts never depend on the kernel setting.
pub fn arc_intervals_compiled(
    nl: &Netlist,
    tlib: &TimingLibrary,
    kernel: &CompiledCorner,
    default_slew: f64,
    margin: f64,
) -> ArcIntervals {
    arc_intervals_with(
        nl,
        tlib,
        default_slew,
        margin,
        |cell, pin, v, edge, fo, slew| kernel.eval(kernel.arc_id(cell, pin, v), edge, fo, slew),
    )
}

fn arc_intervals_with(
    nl: &Netlist,
    tlib: &TimingLibrary,
    default_slew: f64,
    margin: f64,
    mut arc_eval: impl FnMut(CellId, u8, usize, Edge, f64, f64) -> (f64, f64),
) -> ArcIntervals {
    // Symmetric scale-based widening: sound for both interval ends even
    // when an extremum sits near zero (multiplying a tiny minimum by a
    // margin < 1 would barely move it while the true inter-grid value
    // can undershoot by a fraction of the function's magnitude).
    fn widen(lo: f64, hi: f64, margin: f64) -> (f64, f64) {
        let pad = (margin - 1.0) * lo.abs().max(hi.abs());
        (lo - pad, hi + pad)
    }
    let per_gate = nl
        .gate_ids()
        .map(|g| {
            let gate = nl.gate(g);
            let cell = match gate.kind() {
                GateKind::Cell(c) => c,
                GateKind::Prim(op) => panic!("arc_intervals on unmapped primitive {op}"),
            };
            let fo = tlib.equivalent_fanout(nl, gate.output(), cell);
            let ct = tlib.cell(cell);
            (0..gate.fanin() as u8)
                .map(|pin| {
                    (0..ct.num_vectors(pin))
                        .map(|v| {
                            let mut d_lo = f64::INFINITY;
                            let mut d_hi = f64::NEG_INFINITY;
                            let mut s_lo = f64::INFINITY;
                            let mut s_hi = f64::NEG_INFINITY;
                            let mut take = |(d, s): (f64, f64)| {
                                d_lo = d_lo.min(d);
                                d_hi = d_hi.max(d);
                                s_lo = s_lo.min(s);
                                s_hi = s_hi.max(s);
                            };
                            for edge in Edge::BOTH {
                                take(arc_eval(cell, pin, v, edge, fo, default_slew));
                                for &slew in &SLEW_SWEEP {
                                    take(arc_eval(cell, pin, v, edge, fo, slew));
                                }
                            }
                            let (delay_lo, delay_hi) = widen(d_lo, d_hi, margin);
                            let (slew_lo, slew_hi) = widen(s_lo, s_hi, margin);
                            ArcInterval {
                                delay_lo,
                                delay_hi,
                                slew_lo,
                                slew_hi,
                            }
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    ArcIntervals { per_gate }
}

/// Per-source tightened remaining-delay bound: like the `remaining` half
/// of [`static_bounds`], but restricted to arcs whose side requirements
/// do not contradict the launch source's toggle analysis (the same
/// necessary condition `sensitizable_reach` uses) and taken per
/// (pin, vector) from `bounds` instead of the per-gate maximum.
///
/// `rem[net]` therefore upper-bounds the delay of *any true sensitizable
/// suffix* from `net` to a primary output under this source: every arc a
/// true path traverses must assign its side values without a toggle
/// conflict, so per-vector arcs excluded here can never appear on one.
/// Nets with no such suffix get `-inf` (the search never continues into
/// them unless they are outputs, which carry `0`).
pub fn tightened_remaining(
    nl: &Netlist,
    lib: &Library,
    bounds: &ArcBounds,
    deltas: &[Toggle],
    is_output: &[bool],
) -> Vec<f64> {
    let mut rem = vec![f64::NEG_INFINITY; nl.num_nets()];
    for (i, &po) in is_output.iter().enumerate() {
        if po {
            rem[i] = 0.0;
        }
    }
    let order = nl.topo_gates();
    for &g in order.iter().rev() {
        let gate = nl.gate(g);
        let out_rem = rem[gate.output().index()];
        if out_rem == f64::NEG_INFINITY {
            continue;
        }
        let cell_id = match gate.kind() {
            GateKind::Cell(c) => c,
            GateKind::Prim(op) => panic!("tightened_remaining on unmapped primitive {op}"),
        };
        let cell = lib.cell(cell_id);
        for pin in 0..gate.fanin() as u8 {
            let input = gate.inputs()[pin as usize];
            for (v_idx, sv) in cell.vectors_of(pin).iter().enumerate() {
                let ok = (0..gate.fanin() as u8).all(|p| {
                    p == pin
                        || sv.side_value(p).is_none()
                        || deltas[gate.inputs()[p as usize].index()] != Toggle::One
                });
                if !ok {
                    continue;
                }
                let cand = out_rem + bounds.get(g, pin, v_idx);
                if cand > rem[input.index()] {
                    rem[input.index()] = cand;
                }
            }
        }
    }
    rem
}

impl StaticTiming {
    /// The worst structural arrival over the primary outputs.
    pub fn worst_arrival(&self, nl: &Netlist) -> f64 {
        nl.outputs()
            .iter()
            .map(|o| self.arrival[o.index()])
            .fold(0.0, f64::max)
    }
}

/// Observability tap on a computed bound table: counts the computation and
/// publishes the worst structural arrival as a gauge. Side-state only —
/// the bounds themselves are untouched, so instrumented and plain runs
/// prune identically.
pub fn record_bounds_metrics(obs: &sta_obs::Observer, nl: &Netlist, timing: &StaticTiming) {
    if !obs.is_enabled() {
        return;
    }
    obs.counter("arrival.bound_computations").inc();
    obs.gauge("arrival.structural_worst_ps")
        .set(timing.worst_arrival(nl));
}

#[cfg(test)]
mod tests {
    use super::*;
    use sta_cells::{Library, Technology};
    use sta_charlib::{characterize, CharConfig};
    use sta_netlist::GateKind;

    fn small_mapped() -> (Netlist, Library) {
        let lib = Library::standard();
        let inv = lib.cell_by_name("INV").unwrap().id();
        let nand2 = lib.cell_by_name("NAND2").unwrap().id();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.add_gate(GateKind::Cell(inv), &[a], None).unwrap();
        let y = nl.add_gate(GateKind::Cell(nand2), &[x, b], None).unwrap();
        let z = nl.add_gate(GateKind::Cell(inv), &[y], None).unwrap();
        nl.mark_output(z);
        (nl, lib)
    }

    #[test]
    fn bounds_are_monotone_and_consistent() {
        let (nl, lib) = small_mapped();
        let tech = Technology::n90();
        let tlib = characterize(&lib, &tech, &CharConfig::fast()).unwrap();
        let corner = Corner::nominal(&tech);
        let st = static_bounds(&nl, &tlib, corner, 60.0, 1.1);
        let z = nl.outputs()[0];
        let a = nl.inputs()[0];
        // Arrival grows along the chain; remaining shrinks.
        assert!(st.arrival[z.index()] > 0.0);
        assert_eq!(st.arrival[a.index()], 0.0);
        assert!(st.remaining[a.index()] >= st.arrival[z.index()] - 1e-9);
        assert_eq!(st.remaining[z.index()], 0.0);
        // Worst arrival at outputs equals arrival of z here.
        assert!((st.worst_arrival(&nl) - st.arrival[z.index()]).abs() < 1e-9);
        // arrival(PI) + remaining(PI) bounds the whole path.
        assert!(st.remaining[a.index()] >= st.worst_arrival(&nl) - 1e-9);
    }

    /// The per-source tightened remaining bound never exceeds the global
    /// structural one: it restricts the arc set and refines the per-gate
    /// maximum into per-vector bounds, both of which only shrink it.
    #[test]
    fn tightened_remaining_is_never_looser() {
        let (nl, lib) = small_mapped();
        let tech = Technology::n90();
        let tlib = characterize(&lib, &tech, &CharConfig::fast()).unwrap();
        let corner = Corner::nominal(&tech);
        let st = static_bounds(&nl, &tlib, corner, 60.0, 1.25);
        let ab = arc_bounds(&nl, &tlib, corner, 60.0, 1.25);
        let mut is_output = vec![false; nl.num_nets()];
        for &o in nl.outputs() {
            is_output[o.index()] = true;
        }
        for &src in nl.inputs() {
            let deltas = sta_logic::toggle_analysis(&nl, &lib, src);
            let tight = tightened_remaining(&nl, &lib, &ab, &deltas, &is_output);
            for (i, &t) in tight.iter().enumerate() {
                if t.is_finite() {
                    assert!(
                        t <= st.remaining[i] + 1e-9,
                        "net {i}: tightened {t} > structural {}",
                        st.remaining[i]
                    );
                }
            }
        }
    }

    /// Per-arc bounds through the kernel table match the interpreted ones
    /// bitwise, so the dominance cut never depends on the kernel setting.
    #[test]
    fn compiled_arc_bounds_are_bit_identical() {
        let (nl, lib) = small_mapped();
        let tech = Technology::n90();
        let tlib = characterize(&lib, &tech, &CharConfig::fast()).unwrap();
        let corner = Corner::nominal(&tech);
        let kernel = tlib.compile_corner(corner);
        let a = arc_bounds(&nl, &tlib, corner, 60.0, 1.25);
        let b = arc_bounds_compiled(&nl, &tlib, &kernel, 60.0, 1.25);
        for g in nl.gate_ids() {
            let gate = nl.gate(g);
            let cell = match gate.kind() {
                GateKind::Cell(c) => c,
                GateKind::Prim(_) => unreachable!(),
            };
            for pin in 0..gate.fanin() as u8 {
                for v in 0..tlib.cell(cell).num_vectors(pin) {
                    assert_eq!(a.get(g, pin, v).to_bits(), b.get(g, pin, v).to_bits());
                }
            }
        }
    }

    /// Compiled and interpreted two-sided interval tables agree bitwise,
    /// and every interval is well-formed with the delay upper bound under
    /// the same-margin `arc_bounds` ceiling.
    #[test]
    fn compiled_arc_intervals_are_bit_identical_and_well_formed() {
        let (nl, lib) = small_mapped();
        let tech = Technology::n90();
        let tlib = characterize(&lib, &tech, &CharConfig::fast()).unwrap();
        let corner = Corner::nominal(&tech);
        let kernel = tlib.compile_corner(corner);
        let a = arc_intervals(&nl, &tlib, corner, 60.0, ARC_SWEEP_MARGIN);
        let b = arc_intervals_compiled(&nl, &tlib, &kernel, 60.0, ARC_SWEEP_MARGIN);
        let bounds = arc_bounds(&nl, &tlib, corner, 60.0, ARC_SWEEP_MARGIN);
        for g in nl.gate_ids() {
            let gate = nl.gate(g);
            let cell = match gate.kind() {
                GateKind::Cell(c) => c,
                GateKind::Prim(_) => unreachable!(),
            };
            for pin in 0..gate.fanin() as u8 {
                for v in 0..tlib.cell(cell).num_vectors(pin) {
                    let ia = a.get(g, pin, v);
                    let ib = b.get(g, pin, v);
                    assert_eq!(ia.delay_lo.to_bits(), ib.delay_lo.to_bits());
                    assert_eq!(ia.delay_hi.to_bits(), ib.delay_hi.to_bits());
                    assert_eq!(ia.slew_lo.to_bits(), ib.slew_lo.to_bits());
                    assert_eq!(ia.slew_hi.to_bits(), ib.slew_hi.to_bits());
                    assert!(ia.delay_lo <= ia.delay_hi);
                    assert!(ia.slew_lo <= ia.slew_hi);
                    // The interval hi pads symmetrically off the same raw
                    // maximum arc_bounds scales, so it can never exceed it
                    // for positive delays.
                    assert!(ia.delay_hi <= bounds.get(g, pin, v) + 1e-9);
                }
            }
        }
    }

    /// Kernel-table bounds match the interpreted ones bitwise, so pruning
    /// behaves identically in compiled and interpreted runs.
    #[test]
    fn compiled_bounds_are_bit_identical() {
        let (nl, lib) = small_mapped();
        let tech = Technology::n90();
        let tlib = characterize(&lib, &tech, &CharConfig::fast()).unwrap();
        let corner = Corner::nominal(&tech);
        let kernel = tlib.compile_corner(corner);
        let st = static_bounds(&nl, &tlib, corner, 60.0, 1.1);
        let sc = static_bounds_compiled(&nl, &tlib, &kernel, 60.0, 1.1);
        for (a, b) in st.arrival.iter().zip(&sc.arrival) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in st.remaining.iter().zip(&sc.remaining) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
