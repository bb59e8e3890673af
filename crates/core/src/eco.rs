//! Incremental ECO re-analysis: dirty cones and the per-source path cache.
//!
//! After an engineering change order (a gate swap, resize, or net rewire —
//! see `sta_circuits::transforms`), re-enumerating the whole circuit throws
//! away everything the previous run proved about sources whose paths cannot
//! have changed. This module makes the reuse *sound*:
//!
//! 1. **Dirty cone.** For a *delay-only* edit (a resize, or a swap between
//!    cells with the same truth table), vector lists and justification
//!    outcomes are unchanged everywhere — only arc delays through the edited
//!    gate move. A path's timing changes iff it traverses one of the edited
//!    gate's pins, i.e. contains a net in `D0 = ins(G) ∪ {out(G)}`, and a
//!    source can launch such a path iff it lies in the transitive fanin of
//!    `D0`. [`dirty_sources`] computes exactly that set. For a
//!    *function-changing* edit (swap to a different truth table, or a
//!    rewire) the structural rule is unsound — justification and conflict
//!    chains couple sources through side inputs far outside any cone — so
//!    every source is conservatively dirtied and the saving reduces to the
//!    resident compiled state (kernel table, characterization).
//!
//! 2. **Per-source cache.** [`SourceCache`] stores, per primary input, the
//!    canonical `n_worst` paths launched from that input, computed with
//!    [`EnumerationConfig::per_source_n_worst`] threshold isolation so each
//!    list is independent of which other sources ran. An incremental update
//!    re-runs only the dirty sources (via
//!    [`EnumerationConfig::source_filter`]) and [`SourceCache::splice`]
//!    rebuilds the global answer: concatenate, sort by
//!    [`TruePath::canonical_cmp`], truncate to `n_worst` — the same top-N
//!    rule `PathEnumerator::run` and every per-source list apply.
//!
//! **Splice identity proof.** If a path `p` from source `s` is among the
//! global N worst, then fewer than N paths precede it in the canonical
//! order, so in particular fewer than N paths *from `s`* do: `p` is in
//! `s`'s per-source top N. Hence the union of per-source top-N lists
//! contains the global top N, and sorting the union canonically and
//! truncating to N reproduces the cold run's result byte for byte. The
//! guarantee requires untruncated searches
//! ([`EnumerationStats::truncated`] false on both sides) — decision and
//! path budgets bite at run-dependent points.

use std::collections::HashMap;

use sta_circuits::GateEdit;
use sta_netlist::{NetId, Netlist};

use crate::enumerate::{EnumerationStats, PathEnumerator};
use crate::path::{canonical_top_n, TruePath};

#[cfg(doc)]
use crate::enumerate::EnumerationConfig;

/// Transitive fanin: every net from which some seed net is structurally
/// reachable (seeds included). Returned as a mask indexed by
/// [`NetId::index`].
pub fn fanin_cone(nl: &Netlist, seeds: &[NetId]) -> Vec<bool> {
    let mut mask = vec![false; nl.num_nets()];
    let mut work: Vec<NetId> = Vec::new();
    for &s in seeds {
        if !mask[s.index()] {
            mask[s.index()] = true;
            work.push(s);
        }
    }
    while let Some(net) = work.pop() {
        if let Some(g) = nl.net(net).driver() {
            for &inp in nl.gate(g).inputs() {
                if !mask[inp.index()] {
                    mask[inp.index()] = true;
                    work.push(inp);
                }
            }
        }
    }
    mask
}

/// The sources whose cached paths an edit may invalidate, as a mask
/// indexed like [`Netlist::inputs`] (the [`EnumerationConfig::source_filter`]
/// convention).
///
/// Delay-only edits (`edit.function_changed == false`) dirty exactly the
/// primary inputs in the transitive fanin of the edited gate's touched
/// nets; function-changing edits dirty every source (see the module
/// documentation for why the structural rule is unsound there).
pub fn dirty_sources(nl: &Netlist, edit: &GateEdit) -> Vec<bool> {
    if edit.function_changed {
        return vec![true; nl.inputs().len()];
    }
    let cone = fanin_cone(nl, &edit.touched);
    nl.inputs().iter().map(|&pi| cone[pi.index()]).collect()
}

/// Per-source top-N path cache backing incremental ECO re-analysis.
///
/// Indexed by primary-input *position* (like [`Netlist::inputs`]); each
/// slot holds that source's canonically ordered worst paths, truncated to
/// the run's `n_worst` (or complete in full-enumeration mode). Built and
/// updated only from enumerations configured with
/// [`EnumerationConfig::per_source_n_worst`], which is what makes the
/// per-source lists independent of each other and the splice sound.
#[derive(Clone, Debug)]
pub struct SourceCache {
    n_worst: Option<usize>,
    per_source: Vec<Vec<TruePath>>,
}

fn pi_positions(nl: &Netlist) -> HashMap<NetId, usize> {
    nl.inputs()
        .iter()
        .enumerate()
        .map(|(i, &pi)| (pi, i))
        .collect()
}

impl SourceCache {
    /// Runs a full per-source enumeration and caches every source's list.
    ///
    /// # Panics
    ///
    /// Panics unless the enumerator's configuration has
    /// [`EnumerationConfig::per_source_n_worst`] set and no
    /// [`EnumerationConfig::source_filter`] (a build must cover all
    /// sources).
    pub fn build(enumr: &PathEnumerator) -> (SourceCache, EnumerationStats) {
        assert!(
            enumr.cfg.per_source_n_worst,
            "SourceCache requires per-source threshold isolation"
        );
        assert!(
            enumr.cfg.source_filter.is_none(),
            "SourceCache::build must enumerate every source"
        );
        let mut cache = SourceCache {
            n_worst: enumr.cfg.n_worst,
            per_source: vec![Vec::new(); enumr.nl.inputs().len()],
        };
        let stats = cache.refill(enumr);
        (cache, stats)
    }

    /// Re-enumerates the sources selected by the enumerator's
    /// [`EnumerationConfig::source_filter`] (the dirty mask from
    /// [`dirty_sources`]) over the *edited* netlist and replaces their
    /// cached lists; clean sources keep their previous lists.
    ///
    /// # Panics
    ///
    /// Panics unless the configuration has both
    /// [`EnumerationConfig::per_source_n_worst`] and a source filter, or
    /// when the enumerator's input count or `n_worst` disagrees with the
    /// cache (an ECO edit never adds or removes primary inputs).
    pub fn update(&mut self, enumr: &PathEnumerator) -> EnumerationStats {
        assert!(
            enumr.cfg.per_source_n_worst,
            "SourceCache requires per-source threshold isolation"
        );
        let filter = enumr
            .cfg
            .source_filter
            .clone()
            .expect("SourceCache::update requires a source filter");
        assert_eq!(
            filter.len(),
            self.per_source.len(),
            "edited netlist changed the primary-input count"
        );
        assert_eq!(
            enumr.cfg.n_worst, self.n_worst,
            "incremental update must keep the cache's n_worst"
        );
        for (slot, &dirty) in self.per_source.iter_mut().zip(filter.iter()) {
            if dirty {
                slot.clear();
            }
        }
        self.refill(enumr)
    }

    /// Runs `enumr`, files each path under its source, and applies the
    /// top-N rule to every slot (a no-op on the slots the run skipped).
    fn refill(&mut self, enumr: &PathEnumerator) -> EnumerationStats {
        let (paths, stats) = enumr.run_unsorted();
        let pos = pi_positions(enumr.nl);
        for p in paths {
            self.per_source[pos[&p.source]].push(p);
        }
        for slot in &mut self.per_source {
            canonical_top_n(slot, self.n_worst);
        }
        stats
    }

    /// The global answer: all cached lists concatenated, canonically
    /// sorted, and truncated to `n_worst` — byte-identical to a cold
    /// [`PathEnumerator::run`] over the same netlist when neither side
    /// truncated its search (see the module documentation).
    pub fn splice(&self) -> Vec<TruePath> {
        let mut all: Vec<TruePath> = self.per_source.iter().flatten().cloned().collect();
        canonical_top_n(&mut all, self.n_worst);
        all
    }

    /// Number of source slots (the netlist's primary-input count).
    pub fn num_sources(&self) -> usize {
        self.per_source.len()
    }

    /// The per-path truncation threshold the cache was built with.
    pub fn n_worst(&self) -> Option<usize> {
        self.n_worst
    }

    /// The cached canonical path list of one source slot (read-only —
    /// the audit layer checks the structural invariants over it).
    pub fn source_paths(&self, i: usize) -> &[TruePath] {
        &self.per_source[i]
    }
}

/// Which [`SourceCache`] structural invariant [`corrupt_source_cache`]
/// violates. Each mode maps to one clause of the ECO002 audit in
/// `sta-lint`, mirroring the fault-injector discipline of the netlist
/// and library lint rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheCorruption {
    /// Move a path into another source's slot (source membership).
    Misfile,
    /// Swap two adjacent paths out of canonical order (sort order).
    Unsort,
    /// Duplicate a path past the `n_worst` truncation limit (overfill).
    Overfill,
}

/// Fault injector: break exactly one structural invariant of a built
/// cache so the ECO002 audit rule can be pinned to it. Returns `false`
/// (cache untouched) when the cache has no slot shaped so the chosen
/// corruption is observable — e.g. `Unsort` needs a slot with two
/// strictly-ordered paths, `Misfile` needs at least two source slots
/// with one non-empty.
pub fn corrupt_source_cache(cache: &mut SourceCache, mode: CacheCorruption) -> bool {
    match mode {
        CacheCorruption::Misfile => {
            if cache.per_source.len() < 2 {
                return false;
            }
            let from = match cache.per_source.iter().position(|s| !s.is_empty()) {
                Some(i) => i,
                None => return false,
            };
            let to = if from == 0 { 1 } else { 0 };
            let path = cache.per_source[from].remove(0);
            cache.per_source[to].insert(0, path);
            true
        }
        CacheCorruption::Unsort => {
            for slot in &mut cache.per_source {
                for i in 0..slot.len().saturating_sub(1) {
                    if TruePath::canonical_cmp(&slot[i], &slot[i + 1]).is_lt() {
                        slot.swap(i, i + 1);
                        return true;
                    }
                }
            }
            false
        }
        CacheCorruption::Overfill => {
            let n = match cache.n_worst {
                Some(n) => n,
                None => return false,
            };
            for slot in &mut cache.per_source {
                if slot.len() == n {
                    let dup = slot[slot.len() - 1].clone();
                    slot.push(dup);
                    return true;
                }
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::EnumerationConfig;
    use sta_cells::{Corner, Library, Technology};
    use sta_charlib::{characterize_cached, CharConfig, TimingLibrary};
    use sta_circuits::{catalog, resize_gate, rewire_net, swap_gate};
    use std::sync::Arc;

    fn setup() -> (Library, TimingLibrary, Corner) {
        let tech = Technology::n90();
        let lib = Library::standard();
        let tlib = characterize_cached(
            &lib,
            &tech,
            &CharConfig::fast(),
            &std::env::temp_dir().join("sta-eco-test-cache"),
        )
        .unwrap();
        let corner = Corner::nominal(&tech);
        (lib, tlib, corner)
    }

    #[test]
    fn cones_are_transitive_and_include_seeds() {
        let lib = Library::standard();
        let nl = catalog::mapped("c17", &lib).unwrap().unwrap();
        let out = nl.outputs()[0];
        let fi = fanin_cone(&nl, &[out]);
        assert!(fi[out.index()]);
        // Every PO of c17 depends on at least one PI.
        assert!(nl.inputs().iter().any(|&pi| fi[pi.index()]));
    }

    #[test]
    fn delay_only_edits_dirty_only_the_fanin_cone() {
        let lib = Library::standard();
        let mut nl = catalog::mapped("c432", &lib).unwrap().unwrap();
        let inst = nl.net_label(nl.gate(sta_netlist::GateId::from_index(0)).output());
        let edit = resize_gate(&mut nl, &lib, &inst).unwrap();
        assert!(!edit.function_changed);
        let dirty = dirty_sources(&nl, &edit);
        let n_dirty = dirty.iter().filter(|&&d| d).count();
        assert!(n_dirty >= 1, "an edited gate has at least one PI above it");
        assert!(
            n_dirty < dirty.len(),
            "a single near-input gate of c432 must not dirty every source"
        );
        // Rewires are function-changing: everything is dirty.
        let inst2 = nl.net_label(nl.gate(sta_netlist::GateId::from_index(1)).output());
        let pi_name = nl.net_label(nl.inputs()[0]);
        let edit2 = rewire_net(&mut nl, &inst2, 0, &pi_name).unwrap();
        assert!(dirty_sources(&nl, &edit2).iter().all(|&d| d));
    }

    #[test]
    fn spliced_cache_matches_cold_run_after_resize() {
        let (lib, tlib, corner) = setup();
        let mut nl = catalog::mapped("c17", &lib).unwrap().unwrap();
        let cfg = EnumerationConfig::new(corner).with_n_worst(10);
        let per_src = cfg.clone().with_per_source_n_worst(true);

        let enumr = PathEnumerator::new(&nl, &lib, &tlib, per_src.clone());
        let (mut cache, stats) = SourceCache::build(&enumr);
        assert!(!stats.truncated);
        let kernel = enumr.kernel_arc();
        drop(enumr);

        // Splice before any edit already reproduces the cold run.
        let (cold, _) = PathEnumerator::new(&nl, &lib, &tlib, cfg.clone()).run();
        assert_eq!(cache.splice(), cold);

        // Swap one NAND2 for its drive variant and update incrementally.
        let inst = nl.net_label(nl.gate(sta_netlist::GateId::from_index(2)).output());
        let edit = swap_gate(&mut nl, &lib, &inst, "NAND2_X2").unwrap();
        assert!(!edit.function_changed);
        let dirty = dirty_sources(&nl, &edit);
        let filtered = per_src.clone().with_source_filter(Arc::new(dirty));
        let upd = PathEnumerator::with_prebuilt(&nl, &lib, &tlib, filtered, kernel, None);
        let stats = cache.update(&upd);
        assert!(!stats.truncated);

        let (cold_edited, _) = PathEnumerator::new(&nl, &lib, &tlib, cfg).run();
        assert_eq!(cache.splice(), cold_edited);
        assert_ne!(cold, cold_edited, "the resize must actually move delays");
    }
}
