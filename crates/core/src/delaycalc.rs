//! Stand-alone path delay calculation with the interpreted polynomial
//! model.
//!
//! The enumerator accumulates delay incrementally during traversal,
//! through the corner-compiled kernel; this module recomputes a
//! [`TruePath`]'s delay from scratch through the fitted polynomials
//! themselves. That independence is its purpose: it is the reference the
//! lint's PATH004 replay and `tests/kernel_compile.rs` check the search's
//! timing against, bit for bit.

use std::fmt;

use sta_cells::{Corner, Edge};
use sta_charlib::TimingLibrary;
use sta_netlist::{GateId, GateKind, Netlist, PrimOp};

use crate::path::TruePath;

/// Per-gate delay breakdown of one launch polarity of a path.
#[derive(Clone, Debug, PartialEq)]
pub struct PathDelayBreakdown {
    /// The launch edge this breakdown describes.
    pub launch: Edge,
    /// (delay, output slew) per traversed gate, in path order, ps.
    pub stages: Vec<(f64, f64)>,
    /// Total path delay, ps.
    pub total: f64,
}

/// Why a stand-alone delay calculation could not be carried out.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DelayCalcError {
    /// The path traverses a gate that is still a technology-independent
    /// primitive; the netlist must be technology-mapped before any delay
    /// model applies.
    UnmappedGate {
        /// The offending gate.
        gate: GateId,
        /// Its primitive operator.
        op: PrimOp,
    },
}

impl fmt::Display for DelayCalcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DelayCalcError::UnmappedGate { gate, op } => write!(
                f,
                "path traverses unmapped primitive {op} (gate #{}); run map_netlist first",
                gate.index()
            ),
        }
    }
}

impl std::error::Error for DelayCalcError {}

/// Recomputes the polynomial-model delay of `path` for the given launch
/// edge.
///
/// # Errors
///
/// Returns [`DelayCalcError::UnmappedGate`] if the path references gates
/// that are not technology-mapped.
pub fn path_delay(
    nl: &Netlist,
    tlib: &TimingLibrary,
    path: &TruePath,
    launch: Edge,
    input_slew: f64,
    corner: Corner,
) -> Result<PathDelayBreakdown, DelayCalcError> {
    let mut stages = Vec::with_capacity(path.arcs.len());
    let mut edge = launch;
    let mut slew = input_slew;
    let mut total = 0.0;
    for arc in &path.arcs {
        let gate = nl.gate(arc.gate);
        let cell = match gate.kind() {
            GateKind::Cell(c) => c,
            GateKind::Prim(op) => return Err(DelayCalcError::UnmappedGate { gate: arc.gate, op }),
        };
        let fo = tlib.equivalent_fanout(nl, gate.output(), cell);
        let (d, s) = tlib.delay_slew(cell, arc.pin, arc.vector, edge, fo, slew, corner);
        let d = d.max(0.1);
        let s = s.max(0.5);
        stages.push((d, s));
        total += d;
        slew = s;
        edge = edge.through(arc.polarity);
    }
    Ok(PathDelayBreakdown {
        launch,
        stages,
        total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::{EnumerationConfig, PathEnumerator};
    use sta_cells::Library;
    use sta_cells::Technology;
    use sta_charlib::{characterize, CharConfig};
    use sta_netlist::GateKind;

    /// The standalone calculator agrees with the enumerator's incremental
    /// accumulation.
    #[test]
    fn matches_enumerator_accumulation() {
        let lib = Library::standard();
        let tech = Technology::n90();
        let tlib = characterize(&lib, &tech, &CharConfig::fast()).unwrap();
        let nand2 = lib.cell_by_name("NAND2").unwrap().id();
        let ao22 = lib.cell_by_name("AO22").unwrap().id();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_input("d");
        let x = nl.add_gate(GateKind::Cell(nand2), &[a, b], None).unwrap();
        let y = nl
            .add_gate(GateKind::Cell(ao22), &[x, b, c, d], None)
            .unwrap();
        nl.mark_output(y);
        let corner = Corner::nominal(&tech);
        let cfg = EnumerationConfig::new(corner);
        let input_slew = cfg.input_slew;
        let (paths, _) = PathEnumerator::new(&nl, &lib, &tlib, cfg).run();
        assert!(!paths.is_empty());
        for p in &paths {
            for (launch, timing) in [(Edge::Rise, &p.rise), (Edge::Fall, &p.fall)] {
                if let Some(t) = timing {
                    let bd = path_delay(&nl, &tlib, p, launch, input_slew, corner)
                        .expect("mapped netlist");
                    assert!(
                        (bd.total - t.arrival).abs() < 1e-6,
                        "standalone {} vs incremental {}",
                        bd.total,
                        t.arrival
                    );
                    assert_eq!(bd.stages.len(), t.gate_delays.len());
                    for ((d, _), gd) in bd.stages.iter().zip(&t.gate_delays) {
                        assert!((d - gd).abs() < 1e-6);
                    }
                }
            }
        }
    }

    /// An unmapped primitive in the path is reported as an error, not a
    /// panic.
    #[test]
    fn unmapped_primitive_is_an_error() {
        use crate::path::PathArc;
        use sta_cells::Polarity;
        use sta_netlist::PrimOp;

        let lib = Library::standard();
        let tech = Technology::n90();
        let tlib = characterize(&lib, &tech, &CharConfig::fast()).unwrap();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let z = nl
            .add_gate(GateKind::Prim(PrimOp::Not), &[a], None)
            .unwrap();
        nl.mark_output(z);
        let gate = nl.net(z).driver().unwrap();
        let path = TruePath {
            source: a,
            nodes: vec![a, z],
            arcs: vec![PathArc {
                gate,
                pin: 0,
                vector: 0,
                polarity: Polarity::Inverting,
            }],
            rise: None,
            fall: None,
            input_vector: vec![crate::path::PiValue::Transition],
        };
        let corner = Corner::nominal(&tech);
        let err = path_delay(&nl, &tlib, &path, Edge::Rise, 40.0, corner).unwrap_err();
        assert_eq!(
            err,
            DelayCalcError::UnmappedGate {
                gate,
                op: PrimOp::Not
            }
        );
        assert!(err.to_string().contains("unmapped"));
    }
}
