//! Interval abstract interpretation over the timing graph.
//!
//! One forward topological pass propagates sound `[lo, hi]` envelopes of
//! *event arrival time* and *endpoint slew* per net, built on the swept
//! two-sided per-arc intervals of `sta_core::arrival::ArcIntervals` (the
//! interval refinement of the PR 7 dominance bounds). The abstract domain
//! is the flat interval lattice over `f64` with an explicit bottom —
//! "no event can ever occur on this net" — encoded as `[+inf, -inf]`.
//!
//! Transfer function of a gate output `o` with input pins `p`:
//!
//! ```text
//! arrival_hi[o] = max over active p, vectors v: arrival_hi[in_p] + delay_hi(p, v)
//! arrival_lo[o] = min over active p, vectors v: arrival_lo[in_p] + delay_lo(p, v)
//! slew_hi[o]    = max over active p, vectors v: slew_hi(p, v)
//! slew_lo[o]    = min over active p, vectors v: slew_lo(p, v)
//! ```
//!
//! where a pin is *active* when its input net is not bottom and the arc
//! family has at least one characterized vector. An output with no active
//! pin stays bottom. Soundness: every concrete event at `o` is caused by
//! one concrete event at some input traversing one arc, and the swept arc
//! intervals bound that arc's delay and output slew over the whole
//! clamped slew domain (see `sta_core::arrival::arc_intervals_compiled`
//! for why a dense sweep — not endpoint evaluation — is required for the
//! non-monotone fitted models). Induction over the topological order does
//! the rest.
//!
//! Two seeding modes matter to the audit rules:
//!
//! * [`hull`] seeds every primary input — the envelope of *all* events
//!   the circuit can produce (AI002, AI004).
//! * [`for_source`] seeds a single primary input and leaves the rest
//!   bottom — the envelope of events launched *from that source* (AI001,
//!   and the per-source change test behind ECO001: the single-source DP
//!   only traverses arcs reachable from its seed, so an edit outside the
//!   source's fanout cone provably cannot move its table).

use sta_core::{ArcIntervals, TruePath};
use sta_netlist::{NetId, Netlist};

/// Absolute tolerance, ps, when testing a concrete value against an
/// interval end — covers prefix-sum reassociation between the search's
/// incremental arrival accumulation and the audit's recomputation.
pub const ENCLOSURE_TOL: f64 = 1e-6;

/// Sound per-net `[lo, hi]` envelopes of event arrival and slew, indexed
/// by `NetId`. Bottom (no event reachable) is `[+inf, -inf]`.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeIntervals {
    /// Earliest possible event arrival per net, ps (`+inf` = bottom).
    pub arrival_lo: Vec<f64>,
    /// Latest possible event arrival per net, ps (`-inf` = bottom).
    pub arrival_hi: Vec<f64>,
    /// Smallest possible transition time per net, ps.
    pub slew_lo: Vec<f64>,
    /// Largest possible transition time per net, ps.
    pub slew_hi: Vec<f64>,
}

impl NodeIntervals {
    /// Whether any event can occur on `net` (the net is not bottom).
    #[inline]
    pub fn has_events(&self, net: NetId) -> bool {
        self.arrival_lo[net.index()] <= self.arrival_hi[net.index()]
    }

    /// Whether a concrete arrival lies inside the net's interval
    /// (tolerance-widened). Bottom contains nothing.
    #[inline]
    pub fn contains_arrival(&self, net: NetId, t: f64) -> bool {
        t >= self.arrival_lo[net.index()] - ENCLOSURE_TOL
            && t <= self.arrival_hi[net.index()] + ENCLOSURE_TOL
    }

    /// Whether a concrete slew lies inside the net's slew interval
    /// (tolerance-widened). Bottom contains nothing.
    #[inline]
    pub fn contains_slew(&self, net: NetId, s: f64) -> bool {
        s >= self.slew_lo[net.index()] - ENCLOSURE_TOL
            && s <= self.slew_hi[net.index()] + ENCLOSURE_TOL
    }

    /// Bitwise equality of all four tables — the change detector behind
    /// the ECO001 audit (NaN-free: bottoms compare equal by bits too).
    pub fn bitwise_eq(&self, other: &NodeIntervals) -> bool {
        fn eq(a: &[f64], b: &[f64]) -> bool {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        }
        eq(&self.arrival_lo, &other.arrival_lo)
            && eq(&self.arrival_hi, &other.arrival_hi)
            && eq(&self.slew_lo, &other.slew_lo)
            && eq(&self.slew_hi, &other.slew_hi)
    }
}

/// The all-sources envelope: every primary input seeded with arrival
/// `[0, 0]` and slew `[input_slew, input_slew]`.
pub fn hull(nl: &Netlist, arcs: &ArcIntervals, input_slew: f64) -> NodeIntervals {
    compute(nl, arcs, nl.inputs(), input_slew)
}

/// The single-source envelope: only `source` launches events; every
/// other primary input is stable (bottom).
pub fn for_source(
    nl: &Netlist,
    arcs: &ArcIntervals,
    source: NetId,
    input_slew: f64,
) -> NodeIntervals {
    compute(nl, arcs, &[source], input_slew)
}

fn compute(nl: &Netlist, arcs: &ArcIntervals, seeds: &[NetId], input_slew: f64) -> NodeIntervals {
    let n = nl.num_nets();
    let mut iv = NodeIntervals {
        arrival_lo: vec![f64::INFINITY; n],
        arrival_hi: vec![f64::NEG_INFINITY; n],
        slew_lo: vec![f64::INFINITY; n],
        slew_hi: vec![f64::NEG_INFINITY; n],
    };
    for &s in seeds {
        iv.arrival_lo[s.index()] = 0.0;
        iv.arrival_hi[s.index()] = 0.0;
        iv.slew_lo[s.index()] = input_slew;
        iv.slew_hi[s.index()] = input_slew;
    }
    for g in nl.topo_gates() {
        let gate = nl.gate(g);
        let o = gate.output().index();
        for (pin, &inp) in gate.inputs().iter().enumerate() {
            if !iv.has_events(inp) {
                continue;
            }
            let pin = pin as u8;
            for v in 0..arcs.num_vectors(g, pin) {
                let a = arcs.get(g, pin, v);
                let lo = iv.arrival_lo[inp.index()] + a.delay_lo;
                let hi = iv.arrival_hi[inp.index()] + a.delay_hi;
                if lo < iv.arrival_lo[o] {
                    iv.arrival_lo[o] = lo;
                }
                if hi > iv.arrival_hi[o] {
                    iv.arrival_hi[o] = hi;
                }
                if a.slew_lo < iv.slew_lo[o] {
                    iv.slew_lo[o] = a.slew_lo;
                }
                if a.slew_hi > iv.slew_hi[o] {
                    iv.slew_hi[o] = a.slew_hi;
                }
            }
        }
    }
    iv
}

/// The arrival prefix sums of one launch timing of a certificate: entry
/// `i` is the event time at `path.nodes[i]` (0 at the source). Shared by
/// the AI001 intermediate-node check and its tests.
pub fn arrival_prefix(path: &TruePath, gate_delays: &[f64]) -> Vec<f64> {
    let mut pre = Vec::with_capacity(gate_delays.len() + 1);
    let mut t = 0.0;
    pre.push(t);
    for &d in gate_delays {
        t += d;
        pre.push(t);
    }
    debug_assert_eq!(pre.len(), path.nodes.len().max(1));
    pre
}

#[cfg(test)]
mod tests {
    use super::*;
    use sta_cells::{Corner, Library, Technology};
    use sta_charlib::{characterize, CharConfig};
    use sta_circuits::catalog;
    use sta_core::{arc_intervals_compiled, ARC_SWEEP_MARGIN};

    fn c17() -> (Netlist, ArcIntervals) {
        let lib = Library::standard();
        let tech = Technology::n90();
        let tlib = characterize(&lib, &tech, &CharConfig::fast()).unwrap();
        let kernel = tlib.compile_corner(Corner::nominal(&tech));
        let nl = catalog::mapped("c17", &lib).unwrap().unwrap();
        let arcs = arc_intervals_compiled(&nl, &tlib, &kernel, 60.0, ARC_SWEEP_MARGIN);
        (nl, arcs)
    }

    #[test]
    fn hull_reaches_every_output_and_is_well_formed() {
        let (nl, arcs) = c17();
        let iv = hull(&nl, &arcs, 60.0);
        for &po in nl.outputs() {
            assert!(iv.has_events(po), "PO unreachable in the hull");
            assert!(iv.arrival_lo[po.index()] > 0.0);
            assert!(iv.arrival_lo[po.index()] <= iv.arrival_hi[po.index()]);
            assert!(iv.slew_lo[po.index()] <= iv.slew_hi[po.index()]);
        }
    }

    #[test]
    fn single_source_is_tighter_than_hull_and_misses_unreachable_nets() {
        let (nl, arcs) = c17();
        let all = hull(&nl, &arcs, 60.0);
        for &pi in nl.inputs() {
            let one = for_source(&nl, &arcs, pi, 60.0);
            let mut reached_some_po = false;
            for net in 0..nl.num_nets() {
                let lo = one.arrival_lo[net];
                let hi = one.arrival_hi[net];
                if lo <= hi {
                    // Single-source envelopes are enclosed in the hull.
                    assert!(all.arrival_lo[net] <= lo + ENCLOSURE_TOL);
                    assert!(all.arrival_hi[net] >= hi - ENCLOSURE_TOL);
                }
            }
            for &po in nl.outputs() {
                reached_some_po |= one.has_events(po);
            }
            assert!(reached_some_po, "every c17 input reaches some output");
        }
    }

    #[test]
    fn bitwise_eq_detects_any_change() {
        let (nl, arcs) = c17();
        let a = hull(&nl, &arcs, 60.0);
        let mut b = a.clone();
        assert!(a.bitwise_eq(&b));
        b.arrival_hi[0] += 1.0;
        assert!(!a.bitwise_eq(&b));
    }
}
