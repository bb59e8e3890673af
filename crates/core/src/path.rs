//! True-path representation and reporting.

use serde::{Deserialize, Serialize};
use std::fmt;

use sta_cells::{Edge, Library, Polarity};
use sta_netlist::{GateId, NetId, Netlist};

/// One traversed timing arc of a path: which gate was entered through which
/// pin under which sensitization vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathArc {
    /// The gate traversed.
    pub gate: GateId,
    /// The input pin the path enters through.
    pub pin: u8,
    /// Index of the sensitization vector in the cell's vector list for
    /// this pin (0-based; `case = index + 1`).
    pub vector: usize,
    /// Arc polarity under that vector.
    pub polarity: Polarity,
}

/// Timing of one launch polarity of a path.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LaunchTiming {
    /// Edge launched at the path source.
    pub launch_edge: Edge,
    /// Arrival time at the endpoint, ps.
    pub arrival: f64,
    /// Transition time at the endpoint, ps.
    pub slew: f64,
    /// Edge at the endpoint.
    pub final_edge: Edge,
    /// Per-gate delays along the path, ps.
    pub gate_delays: Vec<f64>,
}

/// The value assigned to a primary input by the sensitizing vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PiValue {
    /// The launched transition (the path source).
    Transition,
    /// Stable 0.
    Zero,
    /// Stable 1.
    One,
    /// Don't-care.
    X,
}

impl fmt::Display for PiValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PiValue::Transition => "T",
            PiValue::Zero => "0",
            PiValue::One => "1",
            PiValue::X => "X",
        })
    }
}

/// A sensitized true path: a gate sequence, the sensitization vectors in
/// force at every gate, the witness primary-input vector, and the timing of
/// each surviving launch polarity.
///
/// Paths with the same gate sequence but different vectors are distinct
/// (paper §IV.B) — that is the whole point of the tool.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TruePath {
    /// The source primary input.
    pub source: NetId,
    /// Nets along the path, from the source PI to the endpoint PO.
    pub nodes: Vec<NetId>,
    /// Traversed arcs (`nodes.len() == arcs.len() + 1`).
    pub arcs: Vec<PathArc>,
    /// Timing under a rising launch, if that polarity is sensitizable.
    pub rise: Option<LaunchTiming>,
    /// Timing under a falling launch, if that polarity is sensitizable.
    pub fall: Option<LaunchTiming>,
    /// Witness PI assignment, indexed like `Netlist::inputs()`.
    pub input_vector: Vec<PiValue>,
}

impl TruePath {
    /// The endpoint net.
    pub fn endpoint(&self) -> NetId {
        *self.nodes.last().expect("paths have at least one node")
    }

    /// The worst (largest) arrival over the surviving polarities.
    pub fn worst_arrival(&self) -> f64 {
        let r = self.rise.as_ref().map_or(f64::NEG_INFINITY, |t| t.arrival);
        let f = self.fall.as_ref().map_or(f64::NEG_INFINITY, |t| t.arrival);
        r.max(f)
    }

    /// Number of surviving launch polarities (1 or 2).
    pub fn num_polarities(&self) -> usize {
        usize::from(self.rise.is_some()) + usize::from(self.fall.is_some())
    }

    /// A structural key identifying the node sequence (ignoring vectors):
    /// used to group the emissions of one structural path.
    pub fn structural_key(&self) -> Vec<NetId> {
        self.nodes.clone()
    }

    /// A canonical total order on emitted paths: descending worst
    /// arrival, then source, node sequence, and traversed arcs
    /// (pin/vector). Two distinct emissions never compare equal — the
    /// (nodes, arcs) pair identifies one search branch — so sorting a
    /// result set by this order is deterministic regardless of the order
    /// the paths were discovered in. This is what makes enumeration
    /// byte-identical at any thread count after the final sort.
    pub fn canonical_cmp(&self, other: &TruePath) -> std::cmp::Ordering {
        other
            .worst_arrival()
            .total_cmp(&self.worst_arrival())
            .then_with(|| self.source.index().cmp(&other.source.index()))
            .then_with(|| {
                self.nodes
                    .iter()
                    .map(|n| n.index())
                    .cmp(other.nodes.iter().map(|n| n.index()))
            })
            .then_with(|| {
                let key = |a: &PathArc| (a.gate.index(), a.pin, a.vector);
                self.arcs.iter().map(key).cmp(other.arcs.iter().map(key))
            })
    }

    /// Human-readable one-line description.
    pub fn describe(&self, nl: &Netlist, lib: &Library) -> String {
        let nodes: Vec<String> = self.nodes.iter().map(|&n| nl.net_label(n)).collect();
        let vecs: Vec<String> = self
            .arcs
            .iter()
            .map(|a| {
                let cell = match nl.gate(a.gate).kind() {
                    sta_netlist::GateKind::Cell(c) => lib.cell(c).name().to_string(),
                    sta_netlist::GateKind::Prim(op) => op.to_string(),
                };
                format!("{cell}/case{}", a.vector + 1)
            })
            .collect();
        format!(
            "{} [{}] worst {:.1} ps",
            nodes.join("-"),
            vecs.join(","),
            self.worst_arrival()
        )
    }

    /// Formats the witness input vector like the paper's Table 5 rows,
    /// e.g. `N1=F, N2=1, N3=X`.
    pub fn input_vector_string(&self, nl: &Netlist, launch: Edge) -> String {
        nl.inputs()
            .iter()
            .zip(&self.input_vector)
            .map(|(&n, v)| {
                let val = match (v, launch) {
                    (PiValue::Transition, Edge::Rise) => "R".to_string(),
                    (PiValue::Transition, Edge::Fall) => "F".to_string(),
                    (other, _) => other.to_string(),
                };
                format!("{}={}", nl.net_label(n), val)
            })
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// The one top-N rule: sorts `paths` by [`TruePath::canonical_cmp`] and
/// keeps the first `n` (all of them when `n` is `None`).
/// [`crate::PathEnumerator::run`], the per-source lists of
/// [`crate::SourceCache`] and its splice all apply it; the splice-identity
/// proof (see [`crate::eco`]) needs the three to be the same rule.
pub(crate) fn canonical_top_n(paths: &mut Vec<TruePath>, n: Option<usize>) {
    paths.sort_by(TruePath::canonical_cmp);
    if let Some(n) = n {
        paths.truncate(n);
    }
}

/// Groups emitted paths by their structural key (node sequence). Each
/// group holds every sensitization-vector variant of one physical path —
/// the unit the paper's Table 6 calls a "path having more than one
/// sensitization vector".
pub fn group_by_structure(paths: &[TruePath]) -> Vec<PathGroup<'_>> {
    use std::collections::HashMap;
    let mut map: HashMap<&[NetId], Vec<&TruePath>> = HashMap::new();
    for p in paths {
        map.entry(&p.nodes).or_default().push(p);
    }
    let mut groups: Vec<PathGroup<'_>> = map
        .into_iter()
        .map(|(nodes, variants)| PathGroup { nodes, variants })
        .collect();
    groups.sort_by(|a, b| b.worst_arrival().total_cmp(&a.worst_arrival()));
    groups
}

/// All vector-variants of one structural path (see [`group_by_structure`]).
#[derive(Clone, Debug)]
pub struct PathGroup<'a> {
    /// The shared node sequence.
    pub nodes: &'a [NetId],
    /// The emitted variants (≥ 1).
    pub variants: Vec<&'a TruePath>,
}

impl PathGroup<'_> {
    /// Whether this structural path has more than one sensitization
    /// vector.
    pub fn is_multi_vector(&self) -> bool {
        self.variants.len() > 1
    }

    /// The worst arrival over the variants.
    pub fn worst_arrival(&self) -> f64 {
        self.variants
            .iter()
            .map(|p| p.worst_arrival())
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The variant achieving the worst arrival.
    ///
    /// # Panics
    ///
    /// Groups are never empty by construction.
    pub fn worst_variant(&self) -> &TruePath {
        self.variants
            .iter()
            .max_by(|a, b| a.worst_arrival().total_cmp(&b.worst_arrival()))
            .expect("groups are non-empty")
    }

    /// Spread of the variants' worst arrivals, as a fraction of the
    /// fastest variant (0 for single-vector groups).
    pub fn vector_spread(&self) -> f64 {
        let worst = self.worst_arrival();
        let best = self
            .variants
            .iter()
            .map(|p| p.worst_arrival())
            .fold(f64::INFINITY, f64::min);
        if best > 0.0 {
            (worst - best) / best
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy() -> TruePath {
        TruePath {
            source: NetId::from_index(0),
            nodes: vec![NetId::from_index(0), NetId::from_index(3)],
            arcs: vec![PathArc {
                gate: GateId::from_index(0),
                pin: 0,
                vector: 1,
                polarity: Polarity::Inverting,
            }],
            rise: Some(LaunchTiming {
                launch_edge: Edge::Rise,
                arrival: 120.0,
                slew: 40.0,
                final_edge: Edge::Fall,
                gate_delays: vec![120.0],
            }),
            fall: None,
            input_vector: vec![PiValue::Transition, PiValue::One],
        }
    }

    #[test]
    fn accessors() {
        let p = dummy();
        assert_eq!(p.endpoint(), NetId::from_index(3));
        assert_eq!(p.worst_arrival(), 120.0);
        assert_eq!(p.num_polarities(), 1);
        assert_eq!(p.structural_key(), p.nodes);
    }

    #[test]
    fn grouping_collects_vector_variants() {
        let mut a = dummy();
        a.arcs[0].vector = 0;
        let mut b = dummy();
        b.arcs[0].vector = 1;
        b.rise.as_mut().unwrap().arrival = 150.0;
        let mut c = dummy();
        c.nodes = vec![NetId::from_index(1), NetId::from_index(3)];
        let paths = vec![a, b, c];
        let groups = group_by_structure(&paths);
        assert_eq!(groups.len(), 2);
        let multi = groups.iter().find(|g| g.is_multi_vector()).unwrap();
        assert_eq!(multi.variants.len(), 2);
        assert_eq!(multi.worst_arrival(), 150.0);
        assert_eq!(multi.worst_variant().arcs[0].vector, 1);
        assert!(multi.vector_spread() > 0.2);
        // Sorted worst-first.
        assert!(groups[0].worst_arrival() >= groups[1].worst_arrival());
    }

    #[test]
    fn canonical_order_is_total_on_distinct_emissions() {
        use std::cmp::Ordering;
        let a = dummy();
        // Same path compares equal to itself.
        assert_eq!(a.canonical_cmp(&a), Ordering::Equal);
        // Larger arrival sorts first.
        let mut slower = dummy();
        slower.rise.as_mut().unwrap().arrival = 200.0;
        assert_eq!(slower.canonical_cmp(&a), Ordering::Less);
        assert_eq!(a.canonical_cmp(&slower), Ordering::Greater);
        // Equal arrivals: the vector index breaks the tie deterministically.
        let mut other_vector = dummy();
        other_vector.arcs[0].vector = 0;
        assert_eq!(other_vector.canonical_cmp(&a), Ordering::Less);
        assert_eq!(a.canonical_cmp(&other_vector), Ordering::Greater);
    }

    #[test]
    fn vector_formatting() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("N1");
        let b = nl.add_input("N2");
        let _ = (a, b);
        let p = dummy();
        assert_eq!(p.input_vector_string(&nl, Edge::Fall), "N1=F, N2=1");
        assert_eq!(p.input_vector_string(&nl, Edge::Rise), "N1=R, N2=1");
    }
}
