//! The paper's primary contribution: a single-pass, sensitization-vector-
//! aware static timing analyzer.
//!
//! Unlike the traditional two-step flow (structural path list first,
//! post-hoc sensitization second — see the `sta-baseline` crate), this
//! engine sensitizes paths *while* traversing the circuit:
//!
//! * every sensitization vector of every complex gate spawns its own
//!   search branch, so paths that share a gate sequence but differ in the
//!   vector are kept distinct and get their own (different!) delay;
//! * forward implications over the dual-value logic system (`sta-logic`)
//!   kill inconsistent branches early, and complete backward justification
//!   guarantees every emitted path carries a concrete witness input
//!   vector;
//! * rising and falling launches are traced simultaneously, so a path is
//!   walked once for both polarities;
//! * the vector-specific polynomial delay model (`sta-charlib`) is
//!   evaluated during the traversal with slew propagation — emitting the
//!   N slowest *true* paths needs no second pass.
//!
//! # Example
//!
//! ```
//! use sta_cells::{Corner, Library, Technology};
//! use sta_charlib::{characterize, CharConfig};
//! use sta_core::{EnumerationConfig, PathEnumerator};
//! use sta_netlist::{GateKind, Netlist};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = Library::standard();
//! let tech = Technology::n90();
//! let tlib = characterize(&lib, &tech, &CharConfig::fast())?;
//!
//! // z = NAND2(a, b)
//! let nand2 = lib.cell_by_name("NAND2").expect("standard cell").id();
//! let mut nl = Netlist::new("tiny");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let z = nl.add_gate(GateKind::Cell(nand2), &[a, b], Some("z"))?;
//! nl.mark_output(z);
//!
//! let cfg = EnumerationConfig::new(Corner::nominal(&tech));
//! let (paths, stats) = PathEnumerator::new(&nl, &lib, &tlib, cfg).run();
//! assert_eq!(paths.len(), 2); // one true path per input
//! assert!(!stats.truncated);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod arrival;
pub mod delaycalc;
pub mod eco;
pub mod enumerate;
pub mod justify;
pub mod learn;
pub mod mcmm;
mod parallel;
pub mod path;
pub mod report;
pub mod scenario;
pub mod sdc;
pub mod sdf;
pub mod slack;

pub use analysis::{
    AnalysisContext, AnalysisError, AnalysisOutcome, AnalysisRequest, EnumerationRun,
    RequiredSource, SlackOutcome,
};
pub use arrival::{
    arc_bounds, arc_bounds_compiled, arc_delay_bound, arc_intervals, arc_intervals_compiled,
    record_bounds_metrics, static_bounds, static_bounds_compiled, tightened_remaining, ArcBounds,
    ArcInterval, ArcIntervals, StaticTiming, ARC_SWEEP_MARGIN,
};
pub use delaycalc::{path_delay, path_delay_compiled, DelayCalcError, PathDelayBreakdown};
pub use eco::{
    corrupt_source_cache, dirty_sources, fanin_cone, fanout_cone, CacheCorruption, SourceCache,
};
pub use enumerate::{EnumerationConfig, EnumerationStats, PathEnumerator};
pub use justify::{justify, JustifyBudget, JustifyOutcome};
pub use learn::{Nogood, NogoodKey, NogoodStore, NogoodView};
pub use mcmm::{BatchOutcome, MergedEndpoint, MergedSlackReport, ScenarioOutcome};
pub use path::{group_by_structure, LaunchTiming, PathArc, PathGroup, PiValue, TruePath};
pub use report::{path_report, summary_report, worst_path_report, CertificateSet};
pub use scenario::{CornerDef, Mode, Scenario, ScenarioError};
pub use sdc::{parse_sdc, Constraints, SdcError};
pub use sdf::{write_sdf, SdfVectorPolicy};
pub use slack::{slack_report, SlackReport};
