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
//! 2. **Per-source cache under the global threshold.** [`SourceCache`]
//!    files the paths of an N-worst search by source. The search prunes
//!    against one run-wide admission set (see the `parallel` module), so
//!    it never looks for a source's paths below the threshold it ends at.
//!    Each slot records that threshold as its *floor* and holds every
//!    path of its source whose worst arrival is at or above the floor,
//!    truncated to the source's canonical `n_worst`. A build is one
//!    global run. An update empties the dirty slots and re-searches their
//!    sources (via [`EnumerationConfig::source_filter`]) with the run's
//!    admission set seeded by the worst arrivals of every cached path.
//!    Then, once, it re-searches, seeded the same way, every clean slot
//!    that holds fewer than N paths and whose floor lies above the
//!    spliced N-th arrival; such a slot holds every path of its source at
//!    or above its floor, so the run keeps those paths when it finds them
//!    again but does not count them twice. [`SourceCache::splice`]
//!    rebuilds the global answer:
//!    concatenate, sort by [`TruePath::canonical_cmp`], truncate to
//!    `n_worst` — the same top-N rule `PathEnumerator::run` and every
//!    slot apply.
//!
//! **Splice identity proof.** Write `T` for the N-th largest worst
//! arrival over all true paths and `S` for the splice's N-th arrival
//! (`−∞` while the slots hold fewer than N paths). Cached paths are true
//! paths, so `S ≤ T`.
//!
//! * *Exactness.* Suppose every slot holding fewer than N paths has its
//!   floor at or below `S`. Let `p`, launched from `s`, be among the
//!   global N worst: fewer than N paths precede it in canonical order, so
//!   fewer than N of `s`'s do, and its arrival is at least `T ≥ S`. A
//!   slot holding N paths has them all at or above its floor, so they
//!   are its source's N worst, and `p` is among them if `s` is that
//!   source. A shorter slot holds everything of its source at or above
//!   its floor `≤ S`, `p` included. So the slots hold the global N worst,
//!   and sorting their union canonically and truncating to N reproduces
//!   the cold run byte for byte.
//! * *Seeding is sound.* Once the dirty slots are emptied, every cached
//!   path is a true path of the edited netlist, timed as before (the
//!   dirty-cone argument above). The run enters each of them once: a
//!   searched slot's own paths it finds again at or above the slot's
//!   floor are already in the seed. So the seeded admission set never
//!   rises above `T`, and with tie-inclusive admission a run admits
//!   every path of the sources it searches at or above the threshold `θ`
//!   it ends at. Keeping those, up to N per source, gives every searched
//!   slot its invariant with floor `θ`.
//! * *The run's threshold becomes the splice's N-th arrival.* The set
//!   ends holding N arrivals at or above `θ`, each a path now in the
//!   slots (or displaced from a slot by N paths at or above it), and
//!   every cached path is either a seed or an admitted path: so `S = θ`
//!   afterwards, and every slot the run searched meets the exactness
//!   condition with equality. A build is such a run over every source.
//! * *One second pass suffices.* After the dirty run, `S` equals its
//!   threshold `S₁`. The second run is seeded with every cached path,
//!   whose N-th largest arrival is `S₁`, and thresholds only rise, so it
//!   ends at `S₂ ≥ S₁`. So every slot that met the condition at `S₁`
//!   meets it at `S₂`, and the re-searched slots meet it with equality.
//!
//! In full enumeration every floor stays `−∞` and each slot holds its
//! source's whole path list. The guarantee requires untruncated
//! searches ([`EnumerationStats::truncated`] false on both sides):
//! decision and path budgets bite at run-dependent points.

use std::collections::HashMap;
use std::sync::Arc;

use sta_circuits::GateEdit;
use sta_netlist::{NetId, Netlist};

use crate::enumerate::{EnumerationStats, PathEnumerator};
use crate::parallel::Seed;
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

/// Per-source path cache backing incremental ECO re-analysis.
///
/// Indexed by primary-input *position* (like [`Netlist::inputs`]); each
/// slot holds that source's canonically ordered paths at or above the
/// slot's floor, truncated to the run's `n_worst` (see the module
/// documentation for why that makes the splice exact).
#[derive(Clone, Debug)]
pub struct SourceCache {
    n_worst: Option<usize>,
    per_source: Vec<Vec<TruePath>>,
    /// Per slot, the admission threshold the last run that searched its
    /// source ended at (`−∞` in full enumeration); `+∞` for a slot
    /// emptied for a search, which holds every path at or above it.
    floors: Vec<f64>,
}

fn pi_positions(nl: &Netlist) -> HashMap<NetId, usize> {
    nl.inputs()
        .iter()
        .enumerate()
        .map(|(i, &pi)| (pi, i))
        .collect()
}

impl SourceCache {
    /// Runs one global enumeration and files its paths by source.
    ///
    /// # Panics
    ///
    /// Panics if the enumerator's configuration has an
    /// [`EnumerationConfig::source_filter`] (a build must cover all
    /// sources).
    pub fn build(enumr: &PathEnumerator) -> (SourceCache, EnumerationStats) {
        assert!(
            enumr.cfg.source_filter.is_none(),
            "SourceCache::build must enumerate every source"
        );
        let sources = enumr.nl.inputs().len();
        let mut cache = SourceCache {
            n_worst: enumr.cfg.n_worst,
            per_source: vec![Vec::new(); sources],
            floors: vec![f64::INFINITY; sources],
        };
        let stats = cache.search(enumr);
        (cache, stats)
    }

    /// Brings the cache up to date with the *edited* netlist of `enumr`,
    /// whose [`EnumerationConfig::source_filter`] is the dirty mask from
    /// [`dirty_sources`]: re-searches the dirty sources, then the clean
    /// slots the module documentation's second pass names. Returns the
    /// statistics of both searches.
    ///
    /// # Panics
    ///
    /// As [`SourceCache::update_searched`].
    pub fn update(&mut self, enumr: &PathEnumerator) -> EnumerationStats {
        self.update_searched(enumr).0
    }

    /// [`SourceCache::update`], also returning which sources it searched:
    /// the dirty ones and the clean ones it re-searched because their
    /// floor lay above the new N-th arrival.
    ///
    /// # Panics
    ///
    /// Panics unless the configuration has a source filter, or when the
    /// enumerator's input count or `n_worst` disagrees with the cache (an
    /// ECO edit never adds or removes primary inputs).
    pub fn update_searched(&mut self, enumr: &PathEnumerator) -> (EnumerationStats, Vec<bool>) {
        let dirty = enumr
            .cfg
            .source_filter
            .as_deref()
            .expect("SourceCache::update requires a source filter")
            .clone();
        assert_eq!(
            dirty.len(),
            self.per_source.len(),
            "edited netlist changed the primary-input count"
        );
        assert_eq!(
            enumr.cfg.n_worst, self.n_worst,
            "incremental update must keep the cache's n_worst"
        );
        // The dirty slots' paths are timed on the old netlist.
        for i in (0..dirty.len()).filter(|&i| dirty[i]) {
            self.per_source[i].clear();
            self.floors[i] = f64::INFINITY;
        }
        let mut stats = self.search(enumr);
        let nth = self.nth_arrival();
        let stale: Vec<bool> = (0..dirty.len())
            .map(|i| !dirty[i] && self.is_short(i) && self.floors[i] > nth)
            .collect();
        if stale.contains(&true) {
            let again = PathEnumerator {
                cfg: enumr
                    .cfg
                    .clone()
                    .with_source_filter(Arc::new(stale.clone())),
                kernels: enumr.kernels.clone(),
                ..*enumr
            };
            stats.merge(&self.search(&again));
        }
        let searched = dirty.iter().zip(&stale).map(|(&d, &s)| d || s).collect();
        (stats, searched)
    }

    /// Runs `enumr` over the sources its filter selects (all of them
    /// without one), its admission set seeded by every cached path, and
    /// refills the searched slots: each keeps its source's paths at or
    /// above the run's final threshold, up to its `n_worst`, and takes
    /// that threshold as its floor. Every searched slot must hold fewer
    /// than `n_worst` paths, so that it holds every path of its source at
    /// or above its floor: those the run does not count twice.
    fn search(&mut self, enumr: &PathEnumerator) -> EnumerationStats {
        let filter = enumr.cfg.source_filter.clone();
        let searched = |i: usize| filter.as_ref().is_none_or(|f| f[i]);
        let mut seed = Seed {
            arrivals: self
                .per_source
                .iter()
                .flatten()
                .map(TruePath::worst_arrival)
                .collect(),
            held: vec![f64::INFINITY; enumr.nl.num_nets()],
        };
        for (i, &pi) in enumr.nl.inputs().iter().enumerate() {
            if searched(i) {
                debug_assert!(
                    self.is_short(i) || self.per_source[i].is_empty(),
                    "slot {i} is full"
                );
                seed.held[pi.index()] = self.floors[i];
            }
        }
        let (paths, stats, floor) = enumr.run_seeded(&seed);
        for i in (0..self.per_source.len()).filter(|&i| searched(i)) {
            self.per_source[i].clear();
            self.floors[i] = floor;
        }
        let pos = pi_positions(enumr.nl);
        for p in paths.into_iter().filter(|p| p.worst_arrival() >= floor) {
            self.per_source[pos[&p.source]].push(p);
        }
        for i in (0..self.per_source.len()).filter(|&i| searched(i)) {
            canonical_top_n(&mut self.per_source[i], self.n_worst);
        }
        stats
    }

    /// Whether slot `i` holds fewer than `n_worst` paths (always, in full
    /// enumeration).
    fn is_short(&self, i: usize) -> bool {
        self.n_worst.is_none_or(|n| self.per_source[i].len() < n)
    }

    /// The splice's N-th worst arrival: `−∞` while the slots hold fewer
    /// than N paths, and in full enumeration.
    fn nth_arrival(&self) -> f64 {
        let Some(k) = self.n_worst.and_then(|n| n.checked_sub(1)) else {
            return f64::NEG_INFINITY;
        };
        let mut arrivals: Vec<f64> = self
            .per_source
            .iter()
            .flatten()
            .map(TruePath::worst_arrival)
            .collect();
        if arrivals.len() <= k {
            return f64::NEG_INFINITY;
        }
        *arrivals.select_nth_unstable_by(k, |a, b| b.total_cmp(a)).1
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

    /// The floor of one source slot: the slot holds every path of its
    /// source at or above it, up to `n_worst` (read-only, for the audit
    /// layer).
    pub fn floor(&self, i: usize) -> f64 {
        self.floors[i]
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
    /// Pad a slot with copies of a path past the `n_worst` truncation
    /// limit (overfill).
    Overfill,
    /// Raise the floor of a slot holding fewer than `n_worst` paths above
    /// the splice's N-th arrival (a slot the splice cannot trust).
    LiftFloor,
}

/// Fault injector: break exactly one structural invariant of a built
/// cache so the ECO002 audit rule can be pinned to it. Returns `false`
/// (cache untouched) when the cache has no slot shaped so the chosen
/// corruption is observable — e.g. `Unsort` needs a slot with two
/// strictly-ordered paths, `Misfile` needs at least two source slots
/// with one non-empty, `Overfill` a non-empty slot under an `n_worst`,
/// and `LiftFloor` a slot holding fewer than `n_worst` paths.
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
            let Some(n) = cache.n_worst else {
                return false;
            };
            let Some(slot) = cache.per_source.iter_mut().find(|s| !s.is_empty()) else {
                return false;
            };
            let dup = slot[slot.len() - 1].clone();
            slot.resize(n + 1, dup);
            true
        }
        CacheCorruption::LiftFloor => match (0..cache.num_sources()).find(|&i| cache.is_short(i)) {
            Some(i) => {
                cache.floors[i] = f64::INFINITY;
                true
            }
            None => false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::EnumerationConfig;
    use sta_cells::{Corner, Library, Technology};
    use sta_charlib::{characterize_cached, CharConfig, TimingLibrary};
    use sta_circuits::{catalog, resize_gate, rewire_net, swap_gate};

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

        let enumr = PathEnumerator::new(&nl, &lib, &tlib, cfg.clone());
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
        let filtered = cfg.clone().with_source_filter(Arc::new(dirty));
        let upd = PathEnumerator::with_prebuilt(&nl, &lib, &tlib, filtered, kernel, None);
        let stats = cache.update(&upd);
        assert!(!stats.truncated);

        let (cold_edited, _) = PathEnumerator::new(&nl, &lib, &tlib, cfg).run();
        assert_eq!(cache.splice(), cold_edited);
        assert_ne!(cold, cold_edited, "the resize must actually move delays");
    }
}
