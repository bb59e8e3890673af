//! Required-time and slack analysis on top of the structural arrival pass.
//!
//! Classic graph-based STA bookkeeping: given a clock period (or any
//! required arrival time at the outputs), compute per-net required times
//! against the *structural* worst arrivals and report slacks. This is the
//! conservative pre-filter a designer runs before asking the (exact, more
//! expensive) true-path engine for the N worst sensitizable paths. The
//! arrivals are [`crate::arrival::static_bounds_compiled`] at margin 1,
//! through the kernel of the analysis; [`crate::SlackOutcome::resolve`]
//! picks the requirement and builds the report.
//!
//! The analysis is conservative: per-arc delays are worst-case over
//! sensitization vectors and edges, so negative slack here is a
//! *candidate* violation that the true-path engine may still discharge
//! as false.

use sta_netlist::{NetId, Netlist};

use crate::arrival::StaticTiming;

/// Per-net slack report.
#[derive(Clone, Debug, PartialEq)]
pub struct SlackReport {
    /// The analysis this report was derived from.
    pub timing: StaticTiming,
    /// Required arrival time applied at every primary output, ps.
    pub required: f64,
    /// Per-net slack (`required − arrival − remaining`), ps: how much the
    /// worst structural path through the net clears the requirement.
    pub slack: Vec<f64>,
}

impl SlackReport {
    /// Derives the report for the requirement `required` ps at every
    /// primary output from already-computed structural bounds, so callers
    /// that evaluate several requirements against one operating point run
    /// the bound pass once.
    pub(crate) fn from_bounds(nl: &Netlist, timing: StaticTiming, required: f64) -> Self {
        let slack = nl
            .net_ids()
            .map(|n| required - timing.arrival[n.index()] - timing.remaining[n.index()])
            .collect();
        SlackReport {
            timing,
            required,
            slack,
        }
    }

    /// Slack of one net.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn of(&self, net: NetId) -> f64 {
        self.slack[net.index()]
    }

    /// The worst (most negative) slack and the net it occurs on.
    pub fn worst(&self) -> (NetId, f64) {
        let (idx, &s) = self
            .slack
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("netlists have nets");
        (NetId::from_index(idx), s)
    }

    /// Nets with negative slack, sorted most-critical first.
    pub fn violations(&self) -> Vec<(NetId, f64)> {
        let mut v: Vec<(NetId, f64)> = self
            .slack
            .iter()
            .enumerate()
            .filter(|(_, &s)| s < 0.0)
            .map(|(i, &s)| (NetId::from_index(i), s))
            .collect();
        v.sort_by(|a, b| a.1.total_cmp(&b.1));
        v
    }

    /// Whether every net meets the requirement.
    pub fn passes(&self) -> bool {
        self.slack.iter().all(|&s| s >= 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::static_bounds_compiled;
    use sta_cells::{Corner, Library, Technology};
    use sta_charlib::{characterize, CharConfig};
    use sta_netlist::GateKind;

    /// An INV–NAND2–INV chain and its structural bounds at margin 1.
    fn setup() -> (Netlist, StaticTiming) {
        let lib = Library::standard();
        let tech = Technology::n90();
        let tlib = characterize(&lib, &tech, &CharConfig::fast()).unwrap();
        let inv = lib.cell_by_name("INV").unwrap().id();
        let nand2 = lib.cell_by_name("NAND2").unwrap().id();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.add_gate(GateKind::Cell(inv), &[a], None).unwrap();
        let y = nl.add_gate(GateKind::Cell(nand2), &[x, b], None).unwrap();
        let z = nl.add_gate(GateKind::Cell(inv), &[y], None).unwrap();
        nl.mark_output(z);
        let kernel = tlib.compile_corner(Corner::nominal(&tech));
        let timing = static_bounds_compiled(&nl, &tlib, &kernel, 60.0, 1.0);
        (nl, timing)
    }

    #[test]
    fn generous_requirement_passes_tight_fails() {
        let (nl, timing) = setup();
        let loose = SlackReport::from_bounds(&nl, timing.clone(), 100_000.0);
        assert!(loose.passes());
        let tight = SlackReport::from_bounds(&nl, timing, 1.0);
        assert!(!tight.passes());
        let (worst_net, worst_slack) = tight.worst();
        assert!(worst_slack < 0.0);
        // The worst net lies on the longest chain (starts at input a).
        assert!(tight.violations().iter().any(|(n, _)| *n == worst_net));
    }

    /// Slack along a single path is constant: arrival + remaining is the
    /// same full-path delay at every net of the chain.
    #[test]
    fn slack_is_constant_along_a_chain() {
        let (nl, timing) = setup();
        let report = SlackReport::from_bounds(&nl, timing, 500.0);
        let a = nl.net_by_name("a").unwrap();
        let chain_total = report.timing.arrival[a.index()] + report.timing.remaining[a.index()];
        let first_slack = report.of(a);
        assert!((first_slack - (500.0 - chain_total)).abs() < 1e-9);
    }
}
