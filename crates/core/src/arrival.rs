//! Static timing bounds, evaluated through a corner-compiled kernel.
//!
//! [`arc_bounds_compiled`] and [`tightened_remaining`] are the bounds the
//! dominance cut of the N-worst true-path search prunes with: per-arc
//! delay bounds over each net's forward slew hull, and per-source
//! remaining-delay bounds built from them. The remaining-bound pass is
//! also the search's per-source reachability test, in full enumeration
//! too (there with a zero arc bound). [`static_bounds_compiled`] is the
//! classic levelized, slew-blind structural analysis behind structural
//! slack and the lint's dominance audit; [`arc_intervals_compiled`] is
//! the two-sided full-sweep table the lint's interval interpreter reads.
//! Every table reads the same kernel the search reads; the interpreted
//! models are only the oracles' reference (`crate::delaycalc::path_delay`
//! and the lint's LIB004).

use sta_cells::{Edge, Library};
use sta_charlib::{CompiledCorner, TimingLibrary};
use sta_logic::Toggle;
use sta_netlist::{CellId, GateId, GateKind, NetId, Netlist};

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
fn arc_delay_bound(tlib: &TimingLibrary, cell: CellId, pin: u8) -> f64 {
    let ct = tlib.cell(cell);
    (0..ct.num_vectors(pin))
        .map(|v| {
            let var = ct.variant(pin, v);
            var.rise.max_sample_delay.max(var.fall.max_sample_delay)
        })
        .fold(0.0, f64::max)
}

/// Computes structural arrival and remaining-delay bounds with worst-case
/// per-arc delays evaluated through the corner-compiled `kernel` at
/// `default_slew` (plus the tabulated sample maxima as a safety net) and
/// the real per-net fanout loads.
///
/// `margin` scales every arc bound: structural slack takes 1.0, the
/// whole-flow audit (lint AI002) the configuration's `prune_margin`,
/// which covers the slew effects this single-point evaluation cannot
/// see.
///
/// # Panics
///
/// Panics if the netlist contains unmapped primitive gates or a cycle.
pub fn static_bounds_compiled(
    nl: &Netlist,
    tlib: &TimingLibrary,
    kernel: &CompiledCorner,
    default_slew: f64,
    margin: f64,
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
                GateKind::Prim(op) => panic!("static bounds on unmapped primitive {op}"),
            };
            let fo = tlib.equivalent_fanout(nl, gate.output(), cell);
            let ct = tlib.cell(cell);
            let mut worst: f64 = 0.0;
            for pin in 0..gate.fanin() as u8 {
                for v in 0..ct.num_vectors(pin) {
                    let arc = kernel.arc_id(cell, pin, v);
                    for edge in Edge::BOTH {
                        worst = worst.max(kernel.eval(arc, edge, fo, default_slew).0);
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

/// Conservative per-(gate, pin, vector) arc-delay upper bounds, ps, and
/// the per-net slew hulls they are taken over — see [`arc_bounds_compiled`].
/// Computed once per run and shared read-only by every worker; feeds the
/// dominance cut of the N-worst search (see `enumerate`).
#[derive(Clone, Debug)]
pub struct ArcBounds {
    /// `per_gate[gate][pin][vector]`, already scaled by the margin.
    per_gate: Vec<Vec<Vec<f64>>>,
    /// `slew[net]`: the net's margin-widened slew hull, ps; `None` where
    /// no primary input reaches the net.
    slew: Vec<Option<(f64, f64)>>,
}

impl ArcBounds {
    /// The bound of one arc, ps.
    #[inline]
    pub fn get(&self, gate: GateId, pin: u8, vector: usize) -> f64 {
        self.per_gate[gate.index()][pin as usize][vector]
    }

    /// The slew hull `(lo, hi)` of `net`, ps: every transition time the
    /// search can compute at `net` lies inside it. `None` for a net no
    /// primary input reaches.
    pub fn slew_range(&self, net: NetId) -> Option<(f64, f64)> {
        self.slew[net.index()]
    }
}

/// Margin applied to the slew-swept per-arc bounds and slew hulls
/// ([`arc_bounds_compiled`]). The sweep evaluates the *model itself* at
/// the hull ends and every `SLEW_SWEEP` point between them, so the only
/// slack the margin must cover is polynomial wiggle between adjacent
/// sample points — a few percent dwarfs it for the low-order fitted
/// models. Contrast `EnumerationConfig::prune_margin`, which also has to
/// absorb the slew effects the single-point [`static_bounds_compiled`]
/// evaluation cannot see.
pub const ARC_SWEEP_MARGIN: f64 = 1.02;

/// Fixed slew sample points of the per-arc sweeps: dense over the
/// characterized range (the models clamp their inputs to the fitted box,
/// so beyond the grid edge they hold their boundary value) plus sparse
/// log-spaced points and one effectively-infinite probe covering wider
/// grids. [`arc_intervals_compiled`] sweeps all of it;
/// [`arc_bounds_compiled`] takes the points inside each net's slew hull.
const SLEW_SWEEP: [f64; 48] = [
    0.0, 25.0, 50.0, 75.0, 100.0, 125.0, 150.0, 175.0, 200.0, 225.0, 250.0, 275.0, 300.0, 325.0,
    350.0, 375.0, 400.0, 425.0, 450.0, 475.0, 500.0, 525.0, 550.0, 575.0, 600.0, 625.0, 650.0,
    675.0, 700.0, 725.0, 750.0, 775.0, 800.0, 825.0, 850.0, 875.0, 900.0, 925.0, 950.0, 975.0,
    1000.0, 1250.0, 1600.0, 2000.0, 3000.0, 5000.0, 10000.0, 1e12,
];

/// Symmetric scale-based widening of a sampled `[lo, hi]` range: sound
/// for both ends even when an extremum sits near zero (multiplying a tiny
/// minimum by a margin < 1 would barely move it while the true inter-grid
/// value can undershoot by a fraction of the function's magnitude).
fn widen(lo: f64, hi: f64, margin: f64) -> (f64, f64) {
    let pad = (margin - 1.0) * lo.abs().max(hi.abs());
    (lo - pad, hi + pad)
}

/// Per-arc delay bounds over the slews each arc can actually see,
/// evaluated through the corner-compiled `kernel`. A forward pass in
/// topological order seeds every primary input's slew hull at
/// `[input_slew, input_slew]`; each arc is evaluated, for both edges and
/// at its real fanout load, at its input net's hull ends and at every
/// `SLEW_SWEEP` point strictly between them (delay is not monotone in
/// slew, so the ends alone would not do). The largest delay, scaled by
/// `margin`, is the arc's bound; the smallest and largest output slew
/// over every arc of the gate, widened like [`arc_intervals_compiled`]
/// widens, is the hull of its output net. Delays and slews are clamped as
/// the search clamps them (0.1 ps and 0.5 ps), so the table bounds
/// exactly the arithmetic the search performs. An input net no primary
/// input reaches keeps the whole `SLEW_SWEEP` range; the search never
/// enters it.
///
/// Much tighter than the [`static_bounds_compiled`] recipe — that one
/// folds in the grid-global tabulated sample maximum, which a low-fanout
/// gate never approaches — and than a sweep of the whole slew domain,
/// whose far end is set by transition times no net of the circuit
/// carries.
///
/// # Panics
///
/// Panics if the netlist contains unmapped primitive gates or a cycle.
pub fn arc_bounds_compiled(
    nl: &Netlist,
    tlib: &TimingLibrary,
    kernel: &CompiledCorner,
    input_slew: f64,
    margin: f64,
) -> ArcBounds {
    arc_bounds_with(
        nl,
        tlib,
        input_slew,
        margin,
        |cell, pin, v, edge, fo, slew| kernel.eval(kernel.arc_id(cell, pin, v), edge, fo, slew),
    )
}

/// [`arc_bounds_compiled`] with the arc evaluator `arc_eval(cell, pin,
/// vector, edge, fanout, slew) -> (delay, slew)` as a closure, so a test
/// can inject a synthetic model.
fn arc_bounds_with(
    nl: &Netlist,
    tlib: &TimingLibrary,
    input_slew: f64,
    margin: f64,
    mut arc_eval: impl FnMut(CellId, u8, usize, Edge, f64, f64) -> (f64, f64),
) -> ArcBounds {
    let order = nl.topo_gates();
    assert_eq!(order.len(), nl.num_gates(), "netlist has a cycle");
    let mut slew = vec![None; nl.num_nets()];
    for &pi in nl.inputs() {
        slew[pi.index()] = Some((input_slew, input_slew));
    }
    let full = (SLEW_SWEEP[0], SLEW_SWEEP[SLEW_SWEEP.len() - 1]);
    let mut per_gate = vec![Vec::new(); nl.num_gates()];
    let mut samples = Vec::with_capacity(SLEW_SWEEP.len());
    for g in order {
        let gate = nl.gate(g);
        let cell = match gate.kind() {
            GateKind::Cell(c) => c,
            GateKind::Prim(op) => panic!("arc bounds on unmapped primitive {op}"),
        };
        let fo = tlib.equivalent_fanout(nl, gate.output(), cell);
        let ct = tlib.cell(cell);
        let (mut out_lo, mut out_hi) = (f64::INFINITY, f64::NEG_INFINITY);
        let mut pins = Vec::with_capacity(gate.fanin());
        for (pin, input) in gate.inputs().iter().enumerate() {
            let pin = pin as u8;
            let reached = slew[input.index()];
            let (lo, hi) = reached.unwrap_or(full);
            samples.clear();
            samples.push(lo);
            samples.extend(SLEW_SWEEP.iter().copied().filter(|&s| lo < s && s < hi));
            if hi > lo {
                samples.push(hi);
            }
            let vectors = (0..ct.num_vectors(pin))
                .map(|v| {
                    let mut worst = f64::NEG_INFINITY;
                    for edge in Edge::BOTH {
                        for &s_in in &samples {
                            // The search's clamps (`enumerate::advance_timing`).
                            let (d, s) = arc_eval(cell, pin, v, edge, fo, s_in);
                            worst = worst.max(d.max(0.1));
                            if reached.is_some() {
                                out_lo = out_lo.min(s.max(0.5));
                                out_hi = out_hi.max(s.max(0.5));
                            }
                        }
                    }
                    worst * margin
                })
                .collect();
            pins.push(vectors);
        }
        per_gate[g.index()] = pins;
        if out_lo <= out_hi {
            let (lo, hi) = widen(out_lo, out_hi, margin);
            slew[gate.output().index()] = Some((lo.max(0.5), hi));
        }
    }
    ArcBounds { per_gate, slew }
}

/// Two-sided delay and slew bounds of one timing arc over the whole
/// swept slew domain, ps. Where the dominance cut only needs an upper
/// delay bound over the slews it can see ([`ArcBounds`]), the abstract
/// interpreter in `sta-lint` needs both sides of both quantities to
/// propagate sound `[lo, hi]` envelopes.
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
/// `sta-lint` interval abstract interpreter consumes, built over the
/// whole fixed `SLEW_SWEEP` grid.
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

/// Two-sided per-arc delay/slew intervals through the corner-compiled
/// `kernel`: for every (pin, vector) the model is evaluated over both
/// edges and the full swept slew domain at the arc's real fanout, and the
/// min/max of delay and output slew are kept. The raw extrema are then
/// widened *symmetrically* by `(margin - 1) * scale` where `scale =
/// max(|min|, |max|)` — unlike the multiplicative widening of
/// [`arc_bounds_compiled`], which is unsound for a lower bound whose
/// minimum sits near zero while the function swings much larger between
/// grid points.
///
/// # Panics
///
/// Panics if the netlist contains unmapped primitive gates.
pub fn arc_intervals_compiled(
    nl: &Netlist,
    tlib: &TimingLibrary,
    kernel: &CompiledCorner,
    default_slew: f64,
    margin: f64,
) -> ArcIntervals {
    let per_gate = nl
        .gate_ids()
        .map(|g| {
            let gate = nl.gate(g);
            let cell = match gate.kind() {
                GateKind::Cell(c) => c,
                GateKind::Prim(op) => panic!("arc intervals on unmapped primitive {op}"),
            };
            let fo = tlib.equivalent_fanout(nl, gate.output(), cell);
            let ct = tlib.cell(cell);
            (0..gate.fanin() as u8)
                .map(|pin| {
                    (0..ct.num_vectors(pin))
                        .map(|v| {
                            let arc = kernel.arc_id(cell, pin, v);
                            let mut d_lo = f64::INFINITY;
                            let mut d_hi = f64::NEG_INFINITY;
                            let mut s_lo = f64::INFINITY;
                            let mut s_hi = f64::NEG_INFINITY;
                            for edge in Edge::BOTH {
                                for slew in std::iter::once(default_slew).chain(SLEW_SWEEP) {
                                    let (d, s) = kernel.eval(arc, edge, fo, slew);
                                    d_lo = d_lo.min(d);
                                    d_hi = d_hi.max(d);
                                    s_lo = s_lo.min(s);
                                    s_hi = s_hi.max(s);
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
/// of [`static_bounds_compiled`], but restricted to arcs whose side requirements
/// do not contradict the launch source's toggle analysis and taken per
/// (pin, vector) from `bounds` instead of the per-gate maximum.
///
/// `rem[net]` therefore upper-bounds the delay of *any true sensitizable
/// suffix* from `net` to a primary output under this source: every arc a
/// true path traverses must assign its side values without a toggle
/// conflict, so per-vector arcs excluded here can never appear on one.
/// Nets with no such suffix get `-inf` (the search never continues into
/// them); primary outputs carry at least `0`.
pub fn tightened_remaining(
    nl: &Netlist,
    lib: &Library,
    bounds: &ArcBounds,
    deltas: &[Toggle],
    is_output: &[bool],
) -> Vec<f64> {
    remaining_with(nl, lib, deltas, is_output, |g, pin, v| {
        bounds.get(g, pin, v)
    })
}

/// The backward pass of [`tightened_remaining`] with the per-arc bound
/// `arc_bound(gate, pin, vector)` as a closure. Which entries stay `-inf`
/// depends only on the toggle analysis and the outputs, not on the bound
/// (so long as it is never NaN or `-inf`), so with a zero bound the pass
/// is the search's per-source reachability test in full enumeration.
pub(crate) fn remaining_with(
    nl: &Netlist,
    lib: &Library,
    deltas: &[Toggle],
    is_output: &[bool],
    arc_bound: impl Fn(GateId, u8, usize) -> f64,
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
                let cand = out_rem + arc_bound(g, pin, v_idx);
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
    use sta_cells::{Corner, Library, Technology};
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

    /// The small chain with a fast-characterized library and its kernel
    /// at the 90 nm nominal corner.
    fn small_timed() -> (Netlist, Library, TimingLibrary, CompiledCorner) {
        let (nl, lib) = small_mapped();
        let tech = Technology::n90();
        let tlib = characterize(&lib, &tech, &CharConfig::fast()).unwrap();
        let kernel = tlib.compile_corner(Corner::nominal(&tech));
        (nl, lib, tlib, kernel)
    }

    #[test]
    fn bounds_are_monotone_and_consistent() {
        let (nl, _, tlib, kernel) = small_timed();
        let st = static_bounds_compiled(&nl, &tlib, &kernel, 60.0, 1.1);
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
        let (nl, lib, tlib, kernel) = small_timed();
        let st = static_bounds_compiled(&nl, &tlib, &kernel, 60.0, 1.25);
        let ab = arc_bounds_compiled(&nl, &tlib, &kernel, 60.0, 1.25);
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

    /// Delay need not be monotone in slew, so the hull sweep samples the
    /// `SLEW_SWEEP` points strictly inside each input net's hull, not only
    /// its ends. A synthetic model makes the inverter's output hull about
    /// [82, 918] ps and gives the NAND2 a delay that peaks at 1000 ps at
    /// the interior point 500 ps; a sweep of the hull ends alone bounds
    /// it at about 594 ps.
    #[test]
    fn hull_sweep_samples_interior_slews() {
        let (nl, lib) = small_mapped();
        let tlib = characterize(&lib, &Technology::n90(), &CharConfig::fast()).unwrap();
        let inv = lib.cell_by_name("INV").unwrap().id();
        let nand2 = lib.cell_by_name("NAND2").unwrap().id();
        let bounds = arc_bounds_with(
            &nl,
            &tlib,
            60.0,
            ARC_SWEEP_MARGIN,
            |cell, _, _, edge, _, slew| {
                if cell == inv {
                    (10.0, if edge == Edge::Rise { 100.0 } else { 900.0 })
                } else {
                    (1000.0 - (slew - 500.0).abs(), 100.0)
                }
            },
        );
        let g = nl
            .gate_ids()
            .find(|&g| matches!(nl.gate(g).kind(), GateKind::Cell(c) if c == nand2))
            .unwrap();
        // NAND2 pin 0 is fed by the first inverter.
        let (lo, hi) = bounds.slew_range(nl.gate(g).inputs()[0]).unwrap();
        assert!(
            (lo - 82.0).abs() < 1.0 && (hi - 918.0).abs() < 1.0,
            "inverter output hull [{lo}, {hi}]"
        );
        for v in 0..tlib.cell(nand2).num_vectors(0) {
            let bound = bounds.get(g, 0, v);
            assert!(
                bound >= 1000.0,
                "vector {v}: bound {bound} below the 1000 ps peak"
            );
        }
    }

    /// Every two-sided interval is well-formed with the delay upper bound
    /// over the same-margin arc-bound ceiling, and every net of the chain
    /// gets a slew hull.
    #[test]
    fn arc_intervals_are_well_formed_and_cover_the_arc_bounds() {
        let (nl, _, tlib, kernel) = small_timed();
        let intervals = arc_intervals_compiled(&nl, &tlib, &kernel, 60.0, ARC_SWEEP_MARGIN);
        let bounds = arc_bounds_compiled(&nl, &tlib, &kernel, 60.0, ARC_SWEEP_MARGIN);
        for net in nl.net_ids() {
            assert!(bounds.slew_range(net).is_some(), "every net is reached");
        }
        for g in nl.gate_ids() {
            for pin in 0..nl.gate(g).fanin() as u8 {
                for v in 0..intervals.num_vectors(g, pin) {
                    let iv = intervals.get(g, pin, v);
                    assert!(iv.delay_lo <= iv.delay_hi);
                    assert!(iv.slew_lo <= iv.slew_hi);
                    // The interval hi pads the maximum over the whole
                    // sweep; the bound scales the maximum over the input
                    // net's slew hull, a sub-range of it.
                    assert!(bounds.get(g, pin, v) <= iv.delay_hi + 1e-9);
                }
            }
        }
    }
}
