//! Standard-cell modelling for sensitization-vector-aware timing analysis.
//!
//! This crate implements the cell-level machinery of the DATE 2011 paper
//! *"An efficient and scalable STA tool with direct path estimation and
//! exhaustive sensitization vector exploration for optimal delay
//! computation"*:
//!
//! * [`func`] — cell logic functions (expression ASTs, packed truth tables,
//!   unateness);
//! * [`sensitization`] — exhaustive enumeration of the input vectors that
//!   sensitize each pin (the paper's Tables 1–2);
//! * [`topology`] — automatic derivation of the static-CMOS transistor
//!   realization (series/parallel PDN/PUN with internal nodes — the
//!   structures behind the paper's Figs. 2–3);
//! * [`tech`] — parameter sets for the 130/90/65 nm nodes of the paper's
//!   evaluation;
//! * [`library`] — the standard-cell library container, including the
//!   complex gates AO22 and OA12 the paper studies.
//!
//! # Example
//!
//! ```
//! use sta_cells::Library;
//!
//! let lib = Library::standard();
//! let ao22 = lib.cell_by_name("AO22").expect("AO22 is a standard cell");
//! // Paper Table 1: three sensitization vectors for each AO22 input.
//! assert_eq!(ao22.vectors_of(0).len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod func;
pub mod library;
pub mod sensitization;
pub mod tech;
pub mod topology;
pub mod topology_report;

pub use func::{Expr, TernaryTable, TruthTable, Unateness};
pub use library::{Cell, Library};
pub use sensitization::{PinArcs, Polarity, SensVector};
pub use tech::{Corner, Technology};
pub use topology::{CellTopology, SpNet, Stage};

/// Edge direction of a signal transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Edge {
    /// 0 → 1.
    Rise,
    /// 1 → 0.
    Fall,
}

impl Edge {
    /// The opposite edge.
    #[inline]
    pub fn invert(self) -> Edge {
        match self {
            Edge::Rise => Edge::Fall,
            Edge::Fall => Edge::Rise,
        }
    }

    /// Applies a cell arc's polarity: non-inverting keeps the edge,
    /// inverting flips it.
    #[inline]
    pub fn through(self, polarity: Polarity) -> Edge {
        match polarity {
            Polarity::NonInverting => self,
            Polarity::Inverting => self.invert(),
        }
    }

    /// Both edges, rise first.
    pub const BOTH: [Edge; 2] = [Edge::Rise, Edge::Fall];
}

impl std::fmt::Display for Edge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Edge::Rise => "rise",
            Edge::Fall => "fall",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_algebra() {
        assert_eq!(Edge::Rise.invert(), Edge::Fall);
        assert_eq!(Edge::Rise.through(Polarity::Inverting), Edge::Fall);
        assert_eq!(Edge::Fall.through(Polarity::NonInverting), Edge::Fall);
    }
}
