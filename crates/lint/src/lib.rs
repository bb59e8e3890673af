//! Static verification for the sensitization-vector-aware STA flow.
//!
//! The paper's single-pass enumeration (§IV.B) is only trustworthy if its
//! inputs are well-formed: an acyclic single-driver netlist, a
//! characterized library in which every (cell, pin, sensitization vector,
//! edge) arc has a fitted model, and polynomial models that behave sanely
//! over the region they were fitted on. This crate is the pre-flight
//! check for all of that, plus an *enumeration-independent* oracle that
//! re-certifies emitted paths by replaying their witness vectors through
//! the nine-valued forward simulator.
//!
//! Six rule families, each with stable diagnostic codes:
//!
//! * `NLxxx` — structural netlist checks ([`lint_netlist`]): combinational
//!   cycles (iterative SCC), undriven / dangling / multiply-driven nets,
//!   disconnected primary inputs and outputs, fanout-count outliers;
//! * `LIBxxx` — library semantic checks ([`lint_library`]):
//!   sensitization-vector coverage of every arc, polynomial-model sanity
//!   sampled on the fitting grid (non-negative delay/slew, monotonicity in
//!   fanout, compiled-kernel vs interpreted agreement), capacitance
//!   positivity;
//! * `PATHxxx` — path-certificate checking ([`verify_paths`]): replays
//!   each reported path's sensitization witness through
//!   `sta_logic::ImplicationEngine` and confirms the transition propagates
//!   edge-by-edge, then cross-checks the reported arrival against the
//!   stand-alone delay calculator, which evaluates the interpreted
//!   polynomials instead of the compiled kernel the search reads;
//! * `SCHEDxxx` — compiled-schedule checks ([`check_schedule`]): the flat
//!   program driving the 64-lane bit-parallel simulator
//!   (`sta_logic::bitsim`) must be a valid topological evaluation order of
//!   the netlist, or every batch verdict downstream of it is meaningless;
//! * `AIxxx` — interval abstract-interpretation audit ([`audit_certificates`],
//!   [`audit_structural_dominance`]): a forward pass over the timing graph
//!   propagates sound `[lo, hi]` arrival/slew envelopes ([`interval`]),
//!   swept through the same compiled kernel the search reads, and every
//!   certificate, stage delay and the structural static bound is checked
//!   against them;
//! * `ECOxxx` — incremental re-analysis audit ([`audit_dirty_sources`],
//!   [`audit_source_cache`]): the dirty-source over-approximation and the
//!   per-source splice invariants behind the serve daemon's ECO path.
//!
//! [`audit_flow`] runs the AI rules and ECO002 over one circuit's
//! certificates and path cache: the leg `lint --audit-flow` and the
//! daemon's `audit` op share.
//!
//! Diagnostics carry a severity ([`Severity`]) and render either as
//! human-readable lines or as JSON ([`LintReport`]); a `--deny warnings`
//! style promotion turns warnings into errors for CI gating.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit_rules;
pub mod diag;
pub mod eco_rules;
pub mod interval;
pub mod library_rules;
pub mod netlist_rules;
pub mod path_rules;
pub mod sched_rules;

pub use audit_rules::{
    audit_certificates, audit_flow, audit_metric_names, audit_structural_dominance,
    record_audit_severities, register_audit_metrics, FlowAuditInput, FlowAuditOutcome,
};
pub use diag::{Diagnostic, LintReport, RuleCode, Severity};
pub use eco_rules::{audit_dirty_sources, audit_source_cache};
pub use interval::{for_source, hull, NodeIntervals};
pub use library_rules::{lint_library, LibLintConfig};
pub use netlist_rules::lint_netlist;
pub use path_rules::{verify_path, verify_paths, PathVerifyOutcome};
pub use sched_rules::{check_compiled_schedule, check_schedule};
