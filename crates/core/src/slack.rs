//! Required-time and slack analysis on top of the structural arrival pass.
//!
//! Classic graph-based STA bookkeeping: given a clock period (or any
//! required arrival time at the outputs), compute per-net required times
//! against the *structural* worst arrivals and report slacks. This is the
//! conservative pre-filter a designer runs before asking the (exact, more
//! expensive) true-path engine for the N worst sensitizable paths.

use sta_cells::Corner;
use sta_charlib::TimingLibrary;
use sta_netlist::{NetId, Netlist};

use crate::arrival::{static_bounds, StaticTiming};

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

/// Computes a structural slack report with the requirement `required` ps
/// at every primary output.
///
/// The analysis is conservative: per-arc delays are worst-case over
/// sensitization vectors and edges, so negative slack here is a *candidate*
/// violation that the true-path engine may still discharge as false.
///
/// # Panics
///
/// Panics if the netlist is unmapped or cyclic.
pub fn slack_report(
    nl: &Netlist,
    tlib: &TimingLibrary,
    corner: Corner,
    input_slew: f64,
    required: f64,
) -> SlackReport {
    SlackReport::from_bounds(
        nl,
        static_bounds(nl, tlib, corner, input_slew, 1.0),
        required,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sta_cells::{Library, Technology};
    use sta_charlib::{characterize, CharConfig};
    use sta_netlist::GateKind;

    fn setup() -> (Netlist, Library, TimingLibrary, Technology) {
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
        (nl, lib, tlib, tech)
    }

    #[test]
    fn generous_requirement_passes_tight_fails() {
        let (nl, _lib, tlib, tech) = setup();
        let corner = Corner::nominal(&tech);
        let loose = slack_report(&nl, &tlib, corner, 60.0, 100_000.0);
        assert!(loose.passes());
        let tight = slack_report(&nl, &tlib, corner, 60.0, 1.0);
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
        let (nl, _lib, tlib, tech) = setup();
        let corner = Corner::nominal(&tech);
        let report = slack_report(&nl, &tlib, corner, 60.0, 500.0);
        let a = nl.net_by_name("a").unwrap();
        let chain_total = report.timing.arrival[a.index()] + report.timing.remaining[a.index()];
        let first_slack = report.of(a);
        assert!((first_slack - (500.0 - chain_total)).abs() < 1e-9);
    }
}
