//! The diagnostics framework: rule codes, severities, reports and
//! renderers.

use std::fmt;

/// How serious a diagnostic is.
///
/// `Error` means the object is unusable by the enumeration flow (a cycle,
/// a missing arc model); `Warn` means it is suspicious but analyzable (a
/// dangling net); `Info` is a statistical observation (a fanout outlier).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Statistical / stylistic observation.
    Info,
    /// Suspicious but not fatal.
    Warn,
    /// The checked object is broken for the STA flow.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warn => "warning",
            Severity::Info => "info",
        })
    }
}

/// Stable rule identifiers. The code strings (`NL001`, `LIB003`, …) are
/// part of the tool's public interface: tests, CI gates and suppression
/// lists key on them, so variants may be added but codes never renumbered.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum RuleCode {
    /// `NL001` — combinational cycle (strongly connected gate component).
    NlCycle,
    /// `NL002` — a used or output net has no driver and is not a PI.
    NlUndriven,
    /// `NL003` — a net is claimed as output by more than one gate, or the
    /// driver index disagrees with the gate list.
    NlMultiplyDriven,
    /// `NL004` — a net drives nothing and is not a primary output.
    NlDanglingNet,
    /// `NL005` — a primary input feeds no gate and is not an output.
    NlDisconnectedInput,
    /// `NL006` — a primary output whose input cone contains no PI.
    NlConstantOutput,
    /// `NL007` — a net's fanout count is a statistical outlier.
    NlFanoutOutlier,
    /// `LIB001` — sensitization-vector coverage gap: a (cell, pin, vector,
    /// edge) arc the netlist may traverse has no (or a mismatched) model.
    LibMissingArc,
    /// `LIB002` — a delay/slew model goes negative (or non-finite) on its
    /// own fitting grid.
    LibNegativeSample,
    /// `LIB003` — delay decreases with fanout beyond tolerance.
    LibNonMonotone,
    /// `LIB004` — corner-compiled kernel diverges from the interpreted
    /// model beyond 1e-9 ps.
    LibKernelDivergence,
    /// `LIB005` — non-positive pin or average input capacitance.
    LibNonPositiveCap,
    /// `PATH001` — structurally malformed certificate (broken node/arc
    /// chain, bad witness vector shape).
    PathBrokenChain,
    /// `PATH002` — certificate metadata inconsistent with the library
    /// (unknown vector, wrong polarity, wrong edge bookkeeping).
    PathVectorMismatch,
    /// `PATH003` — the witness vector fails to propagate the transition
    /// edge-by-edge in forward simulation.
    PathNotSensitized,
    /// `PATH004` — the reported arrival/slew disagrees with the
    /// stand-alone delay recomputation.
    PathTimingMismatch,
    /// `SCHED001` — the compiled bit-parallel simulation program is not a
    /// valid topological order of the netlist (an operand is read before
    /// it is written, or a driven net is not written exactly once).
    SchedNotTopological,
    /// `AI001` — a certificate's arrival leaves its endpoint's (or an
    /// intermediate node's) abstract `[lo, hi]` interval.
    AiCertOutsideInterval,
    /// `AI002` — the structural static bound fails to dominate the
    /// abstract interval hull (or the hull itself is malformed).
    AiStructuralDominance,
    /// `AI003` — a certificate's per-arc gate delay leaves the swept
    /// two-sided arc-delay interval.
    AiArcDelayOutsideBound,
    /// `AI004` — a certificate's endpoint slew leaves the abstract slew
    /// interval.
    AiSlewOutsideInterval,
    /// `ECO001` — `dirty_sources` under-approximates: a source marked
    /// clean has a per-source interval table that changed under the edit.
    EcoDirtyUnderapprox,
    /// `ECO002` — a `SourceCache` slot violates the splice invariants
    /// (misfiled source, non-canonical order, overfilled slot).
    EcoCacheInvariant,
    /// `ECO003` — a dirty-source mask is malformed (wrong length, or a
    /// function-changing edit without an all-dirty mask).
    EcoDirtyMaskMalformed,
}

impl RuleCode {
    /// The stable code string, e.g. `"NL001"`.
    pub fn code(self) -> &'static str {
        match self {
            RuleCode::NlCycle => "NL001",
            RuleCode::NlUndriven => "NL002",
            RuleCode::NlMultiplyDriven => "NL003",
            RuleCode::NlDanglingNet => "NL004",
            RuleCode::NlDisconnectedInput => "NL005",
            RuleCode::NlConstantOutput => "NL006",
            RuleCode::NlFanoutOutlier => "NL007",
            RuleCode::LibMissingArc => "LIB001",
            RuleCode::LibNegativeSample => "LIB002",
            RuleCode::LibNonMonotone => "LIB003",
            RuleCode::LibKernelDivergence => "LIB004",
            RuleCode::LibNonPositiveCap => "LIB005",
            RuleCode::PathBrokenChain => "PATH001",
            RuleCode::PathVectorMismatch => "PATH002",
            RuleCode::PathNotSensitized => "PATH003",
            RuleCode::PathTimingMismatch => "PATH004",
            RuleCode::SchedNotTopological => "SCHED001",
            RuleCode::AiCertOutsideInterval => "AI001",
            RuleCode::AiStructuralDominance => "AI002",
            RuleCode::AiArcDelayOutsideBound => "AI003",
            RuleCode::AiSlewOutsideInterval => "AI004",
            RuleCode::EcoDirtyUnderapprox => "ECO001",
            RuleCode::EcoCacheInvariant => "ECO002",
            RuleCode::EcoDirtyMaskMalformed => "ECO003",
        }
    }

    /// The rule's default severity (before any promotion).
    pub fn severity(self) -> Severity {
        match self {
            RuleCode::NlCycle
            | RuleCode::NlUndriven
            | RuleCode::NlMultiplyDriven
            | RuleCode::LibMissingArc
            | RuleCode::LibNegativeSample
            | RuleCode::LibKernelDivergence
            | RuleCode::LibNonPositiveCap
            | RuleCode::PathBrokenChain
            | RuleCode::PathVectorMismatch
            | RuleCode::PathNotSensitized
            | RuleCode::PathTimingMismatch
            | RuleCode::SchedNotTopological
            | RuleCode::AiCertOutsideInterval
            | RuleCode::AiStructuralDominance
            | RuleCode::AiArcDelayOutsideBound
            | RuleCode::AiSlewOutsideInterval
            | RuleCode::EcoDirtyUnderapprox
            | RuleCode::EcoCacheInvariant
            | RuleCode::EcoDirtyMaskMalformed => Severity::Error,
            RuleCode::NlDanglingNet | RuleCode::NlConstantOutput | RuleCode::LibNonMonotone => {
                Severity::Warn
            }
            // Unconnected inputs ship in the original ISCAS85 netlists
            // (c2670, c5315, c7552) — observation, not suspicion.
            RuleCode::NlDisconnectedInput | RuleCode::NlFanoutOutlier => Severity::Info,
        }
    }

    /// One-line rule summary (the rule-catalog entry).
    pub fn summary(self) -> &'static str {
        match self {
            RuleCode::NlCycle => "combinational cycle",
            RuleCode::NlUndriven => "undriven net",
            RuleCode::NlMultiplyDriven => "multiply-driven net",
            RuleCode::NlDanglingNet => "dangling net",
            RuleCode::NlDisconnectedInput => "disconnected primary input",
            RuleCode::NlConstantOutput => "primary output with no PI in its cone",
            RuleCode::NlFanoutOutlier => "fanout-count outlier",
            RuleCode::LibMissingArc => "sensitization-vector coverage gap",
            RuleCode::LibNegativeSample => "negative delay/slew on the fitting grid",
            RuleCode::LibNonMonotone => "delay not monotone in fanout",
            RuleCode::LibKernelDivergence => "compiled kernel diverges from interpreted model",
            RuleCode::LibNonPositiveCap => "non-positive input capacitance",
            RuleCode::PathBrokenChain => "malformed path certificate",
            RuleCode::PathVectorMismatch => "certificate inconsistent with library",
            RuleCode::PathNotSensitized => "witness fails to propagate transition",
            RuleCode::PathTimingMismatch => "arrival disagrees with recomputation",
            RuleCode::SchedNotTopological => "compiled schedule is not a topological order",
            RuleCode::AiCertOutsideInterval => "certificate arrival outside abstract interval",
            RuleCode::AiStructuralDominance => "structural bound fails to dominate interval hull",
            RuleCode::AiArcDelayOutsideBound => "certificate arc delay outside swept arc interval",
            RuleCode::AiSlewOutsideInterval => "certificate slew outside abstract slew interval",
            RuleCode::EcoDirtyUnderapprox => "dirty-source set misses an affected source",
            RuleCode::EcoCacheInvariant => "source-cache splice invariant violated",
            RuleCode::EcoDirtyMaskMalformed => "malformed dirty-source mask",
        }
    }
}

/// One finding: a rule, its (possibly promoted) severity, where, and what.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: RuleCode,
    /// Severity (the rule default unless promoted).
    pub severity: Severity,
    /// Where: `circuit:net`, `tech:CELL.pin/caseN`, or a path identifier.
    pub location: String,
    /// Human-readable description of this specific finding.
    pub message: String,
}

impl Diagnostic {
    /// A diagnostic at the rule's default severity.
    pub fn new(rule: RuleCode, location: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            rule,
            severity: rule.severity(),
            location: location.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity,
            self.rule.code(),
            self.location,
            self.message
        )
    }
}

/// A collection of diagnostics with severity accounting and renderers.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// The findings, in the order the rules produced them.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Appends a batch of diagnostics.
    pub fn extend(&mut self, ds: Vec<Diagnostic>) {
        self.diagnostics.extend(ds);
    }

    /// Number of diagnostics at the given severity.
    pub fn count(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == sev)
            .count()
    }

    /// Whether any diagnostic is an error (after any promotion).
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Observability tap: publishes severity totals
    /// (`lint.<domain>.errors|warnings|infos`) and per-rule fire counts
    /// (`lint.rule.<CODE>`). Side-state only — the report is untouched.
    pub fn record_metrics(&self, obs: &sta_obs::Observer, domain: &str) {
        if !obs.is_enabled() {
            return;
        }
        obs.counter(&format!("lint.{domain}.errors"))
            .add(self.count(Severity::Error) as u64);
        obs.counter(&format!("lint.{domain}.warnings"))
            .add(self.count(Severity::Warn) as u64);
        obs.counter(&format!("lint.{domain}.infos"))
            .add(self.count(Severity::Info) as u64);
        for d in &self.diagnostics {
            obs.counter(&format!("lint.rule.{}", d.rule.code())).inc();
        }
    }

    /// `--deny warnings`: promotes every `Warn` to `Error`. `Info` stays.
    pub fn deny_warnings(&mut self) {
        for d in &mut self.diagnostics {
            if d.severity == Severity::Warn {
                d.severity = Severity::Error;
            }
        }
    }

    /// Renders one line per diagnostic plus a summary tail, most severe
    /// first (stable within a severity).
    pub fn render_human(&self) -> String {
        let mut by_sev: Vec<&Diagnostic> = self.diagnostics.iter().collect();
        by_sev.sort_by_key(|d| std::cmp::Reverse(d.severity));
        let mut out = String::new();
        for d in by_sev {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} info\n",
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Info)
        ));
        out
    }

    /// Renders the report as a JSON document:
    ///
    /// ```json
    /// {"diagnostics": [{"rule": "NL002", "severity": "error",
    ///   "location": "c432:n5", "message": "..."}],
    ///  "errors": 1, "warnings": 0, "infos": 0}
    /// ```
    ///
    /// The schema is hand-emitted (not serde-derived) so the field names
    /// and code strings are a stable machine interface.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": {}, \"severity\": {}, \"location\": {}, \"message\": {}}}",
                json_str(d.rule.code()),
                json_str(&d.severity.to_string()),
                json_str(&d.location),
                json_str(&d.message)
            ));
        }
        if !self.diagnostics.is_empty() {
            out.push('\n');
            out.push_str("  ");
        }
        out.push_str(&format!(
            "],\n  \"errors\": {},\n  \"warnings\": {},\n  \"infos\": {}\n}}\n",
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Info)
        ));
        out
    }
}

/// Escapes a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let all = [
            RuleCode::NlCycle,
            RuleCode::NlUndriven,
            RuleCode::NlMultiplyDriven,
            RuleCode::NlDanglingNet,
            RuleCode::NlDisconnectedInput,
            RuleCode::NlConstantOutput,
            RuleCode::NlFanoutOutlier,
            RuleCode::LibMissingArc,
            RuleCode::LibNegativeSample,
            RuleCode::LibNonMonotone,
            RuleCode::LibKernelDivergence,
            RuleCode::LibNonPositiveCap,
            RuleCode::PathBrokenChain,
            RuleCode::PathVectorMismatch,
            RuleCode::PathNotSensitized,
            RuleCode::PathTimingMismatch,
            RuleCode::SchedNotTopological,
            RuleCode::AiCertOutsideInterval,
            RuleCode::AiStructuralDominance,
            RuleCode::AiArcDelayOutsideBound,
            RuleCode::AiSlewOutsideInterval,
            RuleCode::EcoDirtyUnderapprox,
            RuleCode::EcoCacheInvariant,
            RuleCode::EcoDirtyMaskMalformed,
        ];
        let mut codes: Vec<&str> = all.iter().map(|r| r.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), all.len(), "duplicate rule code");
        assert_eq!(RuleCode::NlCycle.code(), "NL001");
        assert_eq!(RuleCode::LibNonMonotone.code(), "LIB003");
        assert_eq!(RuleCode::PathVectorMismatch.code(), "PATH002");
    }

    #[test]
    fn deny_warnings_promotes_only_warnings() {
        let mut r = LintReport::new();
        r.push(Diagnostic::new(RuleCode::NlDanglingNet, "t:x", "dangling"));
        r.push(Diagnostic::new(RuleCode::NlFanoutOutlier, "t:y", "outlier"));
        assert!(!r.has_errors());
        r.deny_warnings();
        assert!(r.has_errors());
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.count(Severity::Info), 1);
    }

    #[test]
    fn human_rendering_sorts_errors_first() {
        let mut r = LintReport::new();
        r.push(Diagnostic::new(RuleCode::NlFanoutOutlier, "t:y", "outlier"));
        r.push(Diagnostic::new(RuleCode::NlCycle, "t:x", "cycle"));
        let text = r.render_human();
        let err_pos = text.find("error[NL001]").unwrap();
        let info_pos = text.find("info[NL007]").unwrap();
        assert!(err_pos < info_pos, "{text}");
        assert!(text.contains("1 error(s), 0 warning(s), 1 info"));
    }

    #[test]
    fn json_rendering_escapes_and_counts() {
        let mut r = LintReport::new();
        r.push(Diagnostic::new(
            RuleCode::NlUndriven,
            "t:a\"b",
            "line1\nline2",
        ));
        let js = r.render_json();
        assert!(js.contains("\"rule\": \"NL002\""), "{js}");
        assert!(js.contains("a\\\"b"), "{js}");
        assert!(js.contains("line1\\nline2"), "{js}");
        assert!(js.contains("\"errors\": 1"), "{js}");
        // Empty report renders a valid empty array.
        let empty = LintReport::new().render_json();
        assert!(empty.contains("\"diagnostics\": []"), "{empty}");
    }
}
