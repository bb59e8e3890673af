//! Commercial-style two-step STA baseline — the comparison target of the
//! paper's Tables 6–9.
//!
//! Architecture (paper §I, §IV.B):
//!
//! 1. [`structural`] — enumerate the K longest *structural* paths with a
//!    vector-blind LUT delay estimate (no sensitization);
//! 2. [`sensitize`] — for each path, in delay order, attempt post-hoc
//!    sensitization: commit the *easiest* vector per complex gate and
//!    justify under a backtrack limit. Paths can be wrongly declared
//!    false, or abandoned at the limit;
//! 3. [`lutdelay`] — report the path delay from the reference-vector LUT,
//!    ignoring which vector actually sensitizes the path.
//!
//! All three deficiencies are deliberate — they are precisely what the
//! paper's single-pass vector-aware tool improves on.
//!
//! # Example
//!
//! ```no_run
//! use sta_baseline::{run_baseline, BaselineConfig};
//! use sta_cells::{Library, Technology};
//! use sta_charlib::{characterize, CharConfig};
//! # fn netlist() -> sta_netlist::Netlist { unimplemented!() }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = Library::standard();
//! let tech = Technology::n130();
//! let tlib = characterize(&lib, &tech, &CharConfig::standard())?;
//! let nl = netlist();
//! let report = run_baseline(&nl, &lib, &tlib, &BaselineConfig::new(1000, 1000));
//! println!(
//!     "true {} / false {} / abandoned {}",
//!     report.num_true, report.num_false, report.num_backtrack_limited
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lutdelay;
pub mod sensitize;
pub mod structural;

pub use lutdelay::{lut_path_delay, LutPathDelay};
pub use sensitize::{sensitize_path, Classification, SensitizationResult};
pub use structural::{k_longest, lut_gate_bounds, StructuralPath};

use sta_cells::{Edge, Library};
use sta_charlib::TimingLibrary;
use sta_netlist::Netlist;

/// Baseline run configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BaselineConfig {
    /// Number of structural paths to explore (the "#Paths" column).
    pub k_paths: usize,
    /// Backtrack limit of the sensitization stage.
    pub backtrack_limit: u64,
    /// Input transition time at the PIs, in tenths of ps (stored as an
    /// integer to keep the config `Eq`; 600 = 60.0 ps).
    pub input_slew_tenths: u32,
}

impl BaselineConfig {
    /// Creates a configuration with the default 60 ps input slew.
    pub fn new(k_paths: usize, backtrack_limit: u64) -> Self {
        BaselineConfig {
            k_paths,
            backtrack_limit,
            input_slew_tenths: 600,
        }
    }

    /// The input slew in ps.
    pub fn input_slew(&self) -> f64 {
        f64::from(self.input_slew_tenths) / 10.0
    }
}

/// Verdict and timing of one explored structural path.
#[derive(Clone, Debug, PartialEq)]
pub struct BaselinePathReport {
    /// The structural path.
    pub path: StructuralPath,
    /// Sensitization verdict and (single) witness.
    pub sens: SensitizationResult,
    /// LUT delay under a rising launch, ps.
    pub delay_rise: f64,
    /// LUT delay under a falling launch, ps.
    pub delay_fall: f64,
}

impl BaselinePathReport {
    /// The worst LUT delay over both launches.
    pub fn worst_delay(&self) -> f64 {
        self.delay_rise.max(self.delay_fall)
    }
}

/// Aggregate result of a baseline run.
#[derive(Clone, Debug, PartialEq)]
pub struct BaselineReport {
    /// Per-path verdicts, in exploration (descending-estimate) order.
    pub paths: Vec<BaselinePathReport>,
    /// Paths classified true.
    pub num_true: usize,
    /// Paths declared false.
    pub num_false: usize,
    /// Paths abandoned at the backtrack limit.
    pub num_backtrack_limited: usize,
}

impl BaselineReport {
    /// The paper's "False path ratio": paths without a found vector
    /// (false + abandoned) over all explored paths.
    pub fn false_path_ratio(&self) -> f64 {
        if self.paths.is_empty() {
            return 0.0;
        }
        (self.num_false + self.num_backtrack_limited) as f64 / self.paths.len() as f64
    }
}

/// Runs the full two-step baseline flow.
///
/// # Panics
///
/// Panics if the netlist is not technology-mapped or has a cycle.
pub fn run_baseline(
    nl: &Netlist,
    lib: &Library,
    tlib: &TimingLibrary,
    cfg: &BaselineConfig,
) -> BaselineReport {
    let structural = k_longest(nl, tlib, cfg.k_paths, cfg.input_slew());
    let mut paths = Vec::with_capacity(structural.len());
    let (mut num_true, mut num_false, mut num_backtrack_limited) = (0, 0, 0);
    for path in structural {
        let sens = sensitize_path(nl, lib, &path, cfg.backtrack_limit);
        match sens.classification {
            Classification::True => num_true += 1,
            Classification::False => num_false += 1,
            Classification::BacktrackLimited => num_backtrack_limited += 1,
        }
        let delay_rise = lut_path_delay(nl, tlib, &path, Edge::Rise, cfg.input_slew()).total;
        let delay_fall = lut_path_delay(nl, tlib, &path, Edge::Fall, cfg.input_slew()).total;
        paths.push(BaselinePathReport {
            path,
            sens,
            delay_rise,
            delay_fall,
        });
    }
    BaselineReport {
        paths,
        num_true,
        num_false,
        num_backtrack_limited,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sta_cells::Technology;
    use sta_charlib::{characterize, CharConfig};
    use sta_netlist::GateKind;

    #[test]
    fn full_flow_on_small_circuit() {
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
        let report = run_baseline(&nl, &lib, &tlib, &BaselineConfig::new(100, 1000));
        assert!(!report.paths.is_empty());
        assert_eq!(
            report.num_true + report.num_false + report.num_backtrack_limited,
            report.paths.len()
        );
        assert!(report.num_true > 0);
        // Every true path has exactly one committed vector per arc.
        for p in &report.paths {
            if p.sens.classification == Classification::True {
                assert_eq!(p.sens.chosen_vectors.len(), p.path.arcs.len());
                assert!(p.worst_delay() > 0.0);
            }
        }
        assert!(report.false_path_ratio() >= 0.0);
    }
}
