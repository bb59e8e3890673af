//! AI-family audit rules: certificates against the interval abstract
//! interpretation ([`crate::interval`]).
//!
//! * **AI001** — every arrival a certificate claims (the endpoint arrival
//!   and each intermediate prefix sum of its stage delays) lies inside
//!   the *single-source* abstract interval of the corresponding net.
//! * **AI002** — the structural static bound (single-point evaluation at
//!   `prune_margin`) dominates the all-sources interval hull, and the
//!   hull itself is well-formed. That bound feeds structural slack; the
//!   N-worst search prunes with the per-arc bound table and
//!   `tightened_remaining` instead, which this rule does not audit yet.
//! * **AI003** — every per-stage gate delay lies inside its swept
//!   two-sided arc interval.
//! * **AI004** — the endpoint slew lies inside the abstract slew
//!   interval.
//!
//! [`audit_flow`] runs these rules and the ECO002 cache invariants over
//! one circuit: the leg `lint --audit-flow` and the daemon's `audit` op
//! share.
//!
//! All rules are independent oracles: they reuse the enumeration's arc
//! models but never its search state, so a PR-7-style soundness bug in
//! the engine surfaces here as a lint error instead of a multi-hour
//! identity bisect.

use crate::diag::{Diagnostic, RuleCode, Severity};
use crate::eco_rules::audit_source_cache;
use crate::interval::{arrival_prefix, for_source, NodeIntervals, ENCLOSURE_TOL};
use sta_core::{ArcIntervals, CertificateSet, SourceCache, StaticTiming};
use sta_netlist::{NetId, Netlist};
use std::collections::HashMap;

/// What the certificate audit found, with enough accounting for the CLI
/// and daemon replies (and the `audit.*` metrics).
#[derive(Clone, Debug, Default)]
pub struct FlowAuditOutcome {
    /// The findings.
    pub diagnostics: Vec<Diagnostic>,
    /// Launch timings examined (a path contributes one per polarity).
    pub certificates: usize,
    /// Launch timings fully enclosed by their intervals.
    pub enclosed: usize,
    /// Distinct sources whose interval tables were computed.
    pub sources_checked: usize,
}

/// Audits every certificate of `certs` against single-source abstract
/// intervals (AI001/AI003/AI004). Interval tables are computed once per
/// distinct source and shared across that source's paths.
pub fn audit_certificates(
    nl: &Netlist,
    circuit: &str,
    arcs: &ArcIntervals,
    certs: &CertificateSet,
    input_slew: f64,
) -> FlowAuditOutcome {
    let mut out = FlowAuditOutcome::default();
    let mut per_source: HashMap<NetId, NodeIntervals> = HashMap::new();
    for (pi, path) in certs.paths.iter().enumerate() {
        let iv = per_source
            .entry(path.source)
            .or_insert_with(|| for_source(nl, arcs, path.source, input_slew));
        for timing in [path.rise.as_ref(), path.fall.as_ref()]
            .into_iter()
            .flatten()
        {
            out.certificates += 1;
            let mut clean = true;
            let loc = format!("{circuit}:{}#{pi}", nl.net_label(path.endpoint()));

            // AI003 — each stage delay inside its swept arc interval.
            if timing.gate_delays.len() == path.arcs.len() {
                for (k, (arc, &d)) in path.arcs.iter().zip(&timing.gate_delays).enumerate() {
                    let a = arcs.get(arc.gate, arc.pin, arc.vector);
                    if d < a.delay_lo - ENCLOSURE_TOL || d > a.delay_hi + ENCLOSURE_TOL {
                        clean = false;
                        out.diagnostics.push(Diagnostic::new(
                            RuleCode::AiArcDelayOutsideBound,
                            loc.clone(),
                            format!(
                                "{:?} launch stage {k}: delay {d:.6} ps outside swept arc \
                                 interval [{:.6}, {:.6}]",
                                timing.launch_edge, a.delay_lo, a.delay_hi
                            ),
                        ));
                    }
                }
            }

            // AI001 — endpoint arrival and every intermediate prefix sum
            // inside the single-source node intervals.
            let prefix = arrival_prefix(path, &timing.gate_delays);
            for (i, (&node, &t)) in path.nodes.iter().zip(&prefix).enumerate() {
                if !iv.contains_arrival(node, t) {
                    clean = false;
                    out.diagnostics.push(Diagnostic::new(
                        RuleCode::AiCertOutsideInterval,
                        loc.clone(),
                        format!(
                            "{:?} launch node {i} ({}): arrival {t:.6} ps outside abstract \
                             interval [{:.6}, {:.6}]",
                            timing.launch_edge,
                            nl.net_label(node),
                            iv.arrival_lo[node.index()],
                            iv.arrival_hi[node.index()]
                        ),
                    ));
                }
            }
            let end = path.endpoint();
            if !iv.contains_arrival(end, timing.arrival) {
                clean = false;
                out.diagnostics.push(Diagnostic::new(
                    RuleCode::AiCertOutsideInterval,
                    loc.clone(),
                    format!(
                        "{:?} launch endpoint arrival {:.6} ps outside abstract interval \
                         [{:.6}, {:.6}]",
                        timing.launch_edge,
                        timing.arrival,
                        iv.arrival_lo[end.index()],
                        iv.arrival_hi[end.index()]
                    ),
                ));
            }

            // AI004 — endpoint slew inside the abstract slew interval.
            if !iv.contains_slew(end, timing.slew) {
                clean = false;
                out.diagnostics.push(Diagnostic::new(
                    RuleCode::AiSlewOutsideInterval,
                    loc.clone(),
                    format!(
                        "{:?} launch endpoint slew {:.6} ps outside abstract slew interval \
                         [{:.6}, {:.6}]",
                        timing.launch_edge,
                        timing.slew,
                        iv.slew_lo[end.index()],
                        iv.slew_hi[end.index()]
                    ),
                ));
            }

            if clean {
                out.enclosed += 1;
            }
        }
    }
    out.sources_checked = per_source.len();
    out
}

/// AI002: the interval hull must be well-formed (lo ≤ hi wherever events
/// exist, bottom elsewhere stays untouched) and the structural static
/// bound — computed at the configuration's `prune_margin` — must dominate
/// the hull's upper arrival on every net. A violation means the
/// structural bound, and the slack derived from it, could sit below an
/// arrival the swept envelope admits. (The N-worst search does not read
/// this bound; it prunes with the per-arc bound table.)
pub fn audit_structural_dominance(
    circuit: &str,
    nl: &Netlist,
    hull: &NodeIntervals,
    st: &StaticTiming,
) -> Vec<Diagnostic> {
    let mut ds = Vec::new();
    for net in 0..nl.num_nets() {
        let lo = hull.arrival_lo[net];
        let hi = hull.arrival_hi[net];
        if lo > hi {
            continue; // bottom — no events, nothing to dominate
        }
        let label = || format!("{circuit}:{}", nl.net_label(NetId::from_index(net)));
        if !lo.is_finite() || !hi.is_finite() || hull.slew_lo[net] > hull.slew_hi[net] {
            ds.push(Diagnostic::new(
                RuleCode::AiStructuralDominance,
                label(),
                format!(
                    "malformed hull interval: arrival [{lo:.6}, {hi:.6}], slew [{:.6}, {:.6}]",
                    hull.slew_lo[net], hull.slew_hi[net]
                ),
            ));
            continue;
        }
        if st.arrival[net] < hi - ENCLOSURE_TOL {
            ds.push(Diagnostic::new(
                RuleCode::AiStructuralDominance,
                label(),
                format!(
                    "structural arrival bound {:.6} ps below interval hull hi {hi:.6} ps",
                    st.arrival[net]
                ),
            ));
        }
    }
    ds
}

/// One circuit's inputs to [`audit_flow`].
#[derive(Clone, Copy, Debug)]
pub struct FlowAuditInput<'a> {
    /// Reporting name (the diagnostic location prefix).
    pub circuit: &'a str,
    /// The analyzed netlist revision.
    pub netlist: &'a Netlist,
    /// Swept two-sided arc envelopes of `netlist`
    /// (`sta_core::arc_intervals_compiled`).
    pub arcs: &'a ArcIntervals,
    /// The structural static bound at the search's `prune_margin`.
    pub static_timing: &'a StaticTiming,
    /// The certificates to audit.
    pub certs: &'a CertificateSet,
    /// The per-source path cache of `netlist`.
    pub cache: &'a SourceCache,
    /// Whether the cache must meet its exactness conditions — every
    /// slot's floor and a splice that reproduces `certs` byte for byte —
    /// only when neither side was truncated.
    pub check_splice: bool,
    /// Primary-input transition time, ps.
    pub input_slew: f64,
}

/// The flow audit's shared leg over one circuit: every certificate
/// inside its source's intervals (AI001/AI003/AI004), the structural
/// bound above the interval hull (AI002), then the per-source cache
/// invariants (ECO002). Bumps `audit.certificates_checked`,
/// `audit.certificates_enclosed`, `audit.sources_checked`,
/// `audit.circuits`, and `audit.errors` / `audit.warnings` for these
/// findings; the returned outcome carries every diagnostic in that order.
pub fn audit_flow(input: FlowAuditInput, obs: &sta_obs::Observer) -> FlowAuditOutcome {
    let FlowAuditInput {
        circuit,
        netlist,
        arcs,
        static_timing,
        certs,
        cache,
        check_splice,
        input_slew,
    } = input;
    let mut outcome = audit_certificates(netlist, circuit, arcs, certs, input_slew);
    obs.counter("audit.certificates_checked")
        .add(outcome.certificates as u64);
    obs.counter("audit.certificates_enclosed")
        .add(outcome.enclosed as u64);
    obs.counter("audit.sources_checked")
        .add(outcome.sources_checked as u64);
    let hull = crate::interval::hull(netlist, arcs, input_slew);
    outcome.diagnostics.extend(audit_structural_dominance(
        circuit,
        netlist,
        &hull,
        static_timing,
    ));
    outcome.diagnostics.extend(audit_source_cache(
        circuit,
        netlist,
        cache,
        check_splice,
        check_splice.then_some(certs),
    ));
    obs.counter("audit.circuits").add(1);
    record_audit_severities(obs, &outcome.diagnostics);
    outcome
}

/// Bumps `audit.errors` / `audit.warnings` for one batch of audit
/// findings (the counters are pre-registered, so a clean run still
/// reports them at zero).
pub fn record_audit_severities(obs: &sta_obs::Observer, findings: &[Diagnostic]) {
    let errors = findings
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count() as u64;
    obs.counter("audit.errors").add(errors);
    obs.counter("audit.warnings")
        .add(findings.len() as u64 - errors);
}

/// The fixed `audit.*` metric-name set, identical at every thread count
/// (the PR 5 golden-test discipline): pre-registering the full set keeps
/// `metric_names()` thread-count-invariant even when a run fires no rule.
pub fn audit_metric_names() -> &'static [&'static str] {
    &[
        "audit.flow_runs",
        "audit.circuits",
        "audit.certificates_checked",
        "audit.certificates_enclosed",
        "audit.sources_checked",
        "audit.eco_samples",
        "audit.errors",
        "audit.warnings",
    ]
}

/// Pre-registers every `audit.*` counter at zero. Call once per audited
/// run *before* any rule fires so the metric-name set never depends on
/// which rules found something (or on the thread count).
pub fn register_audit_metrics(obs: &sta_obs::Observer) {
    if !obs.is_enabled() {
        return;
    }
    for name in audit_metric_names() {
        obs.counter(name).add(0);
    }
}

/// Fault injectors for the AI rule family. Mirrors the PR 4 discipline:
/// the input is cloned/owned by the caller, each injector breaks exactly
/// one invariant, and each maps to exactly one designated rule code.
pub mod inject {
    use sta_core::{CertificateSet, StaticTiming};

    /// Inflates the first launch timing's endpoint arrival far past any
    /// sound interval (AI001) without touching its stage delays.
    pub fn inflate_certificate_arrival(certs: &mut CertificateSet) -> bool {
        for p in &mut certs.paths {
            if let Some(t) = p.rise.as_mut().or(p.fall.as_mut()) {
                t.arrival += 1.0e6;
                return true;
            }
        }
        false
    }

    /// Corrupts the first stage delay of the first launch timing so it
    /// leaves its swept arc interval (AI003) — and drags the downstream
    /// prefix sums with it (AI001 on intermediate nodes).
    pub fn corrupt_arc_delay(certs: &mut CertificateSet) -> bool {
        for p in &mut certs.paths {
            if let Some(t) = p.rise.as_mut().or(p.fall.as_mut()) {
                if let Some(d) = t.gate_delays.first_mut() {
                    *d += 1.0e6;
                    return true;
                }
            }
        }
        false
    }

    /// Drives the first launch timing's endpoint slew negative, outside
    /// any physical slew interval (AI004).
    pub fn corrupt_endpoint_slew(certs: &mut CertificateSet) -> bool {
        for p in &mut certs.paths {
            if let Some(t) = p.rise.as_mut().or(p.fall.as_mut()) {
                t.slew = -1.0e6;
                return true;
            }
        }
        false
    }

    /// Halves every structural arrival bound so it can no longer
    /// dominate the interval hull (AI002).
    pub fn shrink_structural_arrival(st: &mut StaticTiming) -> bool {
        let mut changed = false;
        for a in &mut st.arrival {
            if *a > 0.0 {
                *a *= 0.5;
                changed = true;
            }
        }
        changed
    }
}
