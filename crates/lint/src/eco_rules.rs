//! ECO-family audit rules: the incremental re-analysis invariants.
//!
//! The PR 8 daemon's ECO path is only byte-identical to a cold run
//! because of two invariants proved in `sta_core::eco`: the dirty-source
//! set *over*-approximates the sources an edit can affect, and every
//! `SourceCache` slot stays canonically sorted, truncated, correctly
//! filed, and complete down to a floor the splice can trust. These rules
//! audit both statically.
//!
//! * **ECO001** — for a sampled edit, every source the mask marks clean
//!   must have a bitwise-unchanged *single-source* interval table between
//!   the pre- and post-edit netlists. The single-source DP only traverses
//!   arcs reachable from its seed, so if a clean source's table moved,
//!   the edit reached it — and `dirty_sources` under-approximated.
//!   (Checking "every source whose interval changed is dirty" via cones
//!   would be unsound under reconvergence; the per-source table *is* the
//!   reachability argument.)
//! * **ECO002** — structural `SourceCache` invariants behind the splice:
//!   slot count equals the PI count, each slot is canonically sorted and
//!   within `n_worst`, every cached path is filed under its own source,
//!   and, when every search that filled the cache ended untruncated,
//!   every slot holding fewer than `n_worst` paths has its floor at or
//!   below the splice's N-th arrival (the exactness condition of
//!   `sta_core::eco`) and (when the live certificate set is supplied)
//!   the splice reproduces it exactly.
//! * **ECO003** — the dirty mask itself is malformed: wrong length, or a
//!   function-changing edit whose mask is not all-dirty (the dirty-cone
//!   argument only covers delay-only edits).

use crate::diag::{Diagnostic, RuleCode};
use crate::interval::for_source;
use sta_circuits::GateEdit;
use sta_core::{ArcIntervals, CertificateSet, SourceCache, TruePath};
use sta_netlist::Netlist;

/// ECO001 + ECO003: audits one sampled edit's dirty-source mask against
/// per-source abstract intervals of the pre- and post-edit netlists.
/// `arcs_before`/`arcs_after` must be built with the same corner, slew
/// and margin so bitwise table comparison is meaningful.
#[allow(clippy::too_many_arguments)]
pub fn audit_dirty_sources(
    circuit: &str,
    nl_before: &Netlist,
    arcs_before: &ArcIntervals,
    nl_after: &Netlist,
    arcs_after: &ArcIntervals,
    edit: &GateEdit,
    dirty: &[bool],
    input_slew: f64,
) -> Vec<Diagnostic> {
    let mut ds = Vec::new();
    let inputs = nl_after.inputs();
    if dirty.len() != inputs.len() {
        ds.push(Diagnostic::new(
            RuleCode::EcoDirtyMaskMalformed,
            format!("{circuit}:edit"),
            format!(
                "dirty mask has {} entries for {} primary inputs",
                dirty.len(),
                inputs.len()
            ),
        ));
        return ds; // per-source comparison is meaningless on a bad shape
    }
    if edit.function_changed && !dirty.iter().all(|&d| d) {
        ds.push(Diagnostic::new(
            RuleCode::EcoDirtyMaskMalformed,
            format!("{circuit}:edit"),
            "function-changing edit must mark every source dirty".to_string(),
        ));
    }
    if nl_before.inputs() != inputs {
        // ECO edits never add or remove PIs; bail rather than misalign.
        ds.push(Diagnostic::new(
            RuleCode::EcoDirtyMaskMalformed,
            format!("{circuit}:edit"),
            "primary-input set changed across the edit".to_string(),
        ));
        return ds;
    }
    for (i, (&pi, &is_dirty)) in inputs.iter().zip(dirty).enumerate() {
        if is_dirty {
            continue; // over-approximation: dirty sources get re-enumerated
        }
        let before = for_source(nl_before, arcs_before, pi, input_slew);
        let after = for_source(nl_after, arcs_after, pi, input_slew);
        if !before.bitwise_eq(&after) {
            ds.push(Diagnostic::new(
                RuleCode::EcoDirtyUnderapprox,
                format!("{circuit}:{}", nl_after.net_label(pi)),
                format!(
                    "source {i} is marked clean but its per-source interval table changed \
                     under the edit — dirty_sources under-approximates"
                ),
            ));
        }
    }
    ds
}

/// ECO002: structural invariants of a built [`SourceCache`], optionally
/// cross-checked against the certificate set its splice is meant to
/// reproduce. The floor clause is an exactness condition, checked only
/// when `untruncated` says every search that filled the cache ended
/// untruncated: a budget can stop an update after it cleared a slot and
/// before it found that slot's paths again. Pass `certs` only when
/// neither side truncated its search (the splice identity does not hold
/// under truncation).
pub fn audit_source_cache(
    circuit: &str,
    nl: &Netlist,
    cache: &SourceCache,
    untruncated: bool,
    certs: Option<&CertificateSet>,
) -> Vec<Diagnostic> {
    let mut ds = Vec::new();
    let inputs = nl.inputs();
    if cache.num_sources() != inputs.len() {
        ds.push(Diagnostic::new(
            RuleCode::EcoCacheInvariant,
            format!("{circuit}:cache"),
            format!(
                "cache has {} source slots for {} primary inputs",
                cache.num_sources(),
                inputs.len()
            ),
        ));
        return ds;
    }
    let splice = cache.splice();
    // The splice's N-th worst arrival; −∞ while it holds fewer than N
    // paths, and in full enumeration.
    let nth = cache
        .n_worst()
        .and_then(|n| splice.get(n.checked_sub(1)?))
        .map_or(f64::NEG_INFINITY, TruePath::worst_arrival);
    for (i, &pi) in inputs.iter().enumerate() {
        let slot = cache.source_paths(i);
        if let Some(n) = cache.n_worst() {
            if slot.len() > n {
                ds.push(Diagnostic::new(
                    RuleCode::EcoCacheInvariant,
                    format!("{circuit}:{}", nl.net_label(pi)),
                    format!("slot {i} holds {} paths past n_worst {n}", slot.len()),
                ));
            }
        }
        let short = cache.n_worst().is_none_or(|n| slot.len() < n);
        if untruncated && short && cache.floor(i) > nth {
            ds.push(Diagnostic::new(
                RuleCode::EcoCacheInvariant,
                format!("{circuit}:{}", nl.net_label(pi)),
                format!(
                    "slot {i} holds {} paths under a floor of {} ps, above the splice's \
                     N-th arrival {nth} ps",
                    slot.len(),
                    cache.floor(i)
                ),
            ));
        }
        for w in slot.windows(2) {
            if TruePath::canonical_cmp(&w[0], &w[1]).is_gt() {
                ds.push(Diagnostic::new(
                    RuleCode::EcoCacheInvariant,
                    format!("{circuit}:{}", nl.net_label(pi)),
                    format!("slot {i} is not in canonical order"),
                ));
                break;
            }
        }
        for p in slot {
            if p.source != pi {
                ds.push(Diagnostic::new(
                    RuleCode::EcoCacheInvariant,
                    format!("{circuit}:{}", nl.net_label(pi)),
                    format!(
                        "slot {i} holds a path launched from {} — misfiled source",
                        nl.net_label(p.source)
                    ),
                ));
                break;
            }
        }
    }
    if let Some(certs) = certs {
        if splice != certs.paths {
            ds.push(Diagnostic::new(
                RuleCode::EcoCacheInvariant,
                format!("{circuit}:cache"),
                "splice of the per-source cache does not reproduce the certificate set".to_string(),
            ));
        }
    }
    ds
}
