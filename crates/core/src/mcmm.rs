//! The multi-corner / multi-mode (MCMM) batch engine.
//!
//! One netlist, many scenarios: the batch runs every [`Scenario`] of an
//! [`crate::AnalysisRequest`] while doing each piece of scenario-invariant
//! work exactly once —
//!
//! | shared state            | depends on              | built       |
//! |-------------------------|-------------------------|-------------|
//! | cell library + netlist  | circuit                 | once        |
//! | characterized timing    | technology              | per tech    |
//! | compiled delay kernel   | (technology, corner)    | per corner  |
//! | true-path search        | (technology, corner)    | per corner  |
//! | parsed SDC constraints  | mode                    | per mode    |
//!
//! The search reads no [`crate::Mode`] field: a mode only sets the
//! requirement the slack step applies. So the scenarios are grouped by
//! operating point, and each group is one job on a crossbeam
//! work-stealing pool (`batch_threads` workers; the idiom of
//! `crate::parallel`): one *deterministic* search over shared read-only
//! state, then each mode's requirement and structural slack from one
//! bound pass. Each scenario's path set — and therefore its
//! [`CertificateSet`] bytes — is identical to an independent
//! single-scenario run at any batch width. The merge layer below is pure
//! aggregation over finished per-scenario reports; it cannot change any
//! per-scenario result, which is what keeps the single-run audit oracles
//! (lint `--verify-paths`, `--audit-flow`) applicable per scenario.
//!
//! The merged view is canonical: scenarios are ranked by slack with ties
//! broken toward the lexicographically smallest scenario name, so
//! [`MergedSlackReport`] is byte-identical under any submission-order
//! permutation of the same scenario set.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crossbeam::deque::{Injector, Steal};
use serde::{Deserialize, Serialize};
use sta_cells::{Corner, Library};
use sta_charlib::{CompiledCorner, TimingLibrary};
use sta_netlist::Netlist;
use sta_obs::LocalSpans;

use crate::analysis::{AnalysisError, AnalysisRequest, Loaded, RequiredSource, SlackOutcome};
use crate::arrival::static_bounds;
use crate::enumerate::{EnumerationStats, PathEnumerator};
use crate::path::TruePath;
use crate::report::CertificateSet;
use crate::scenario::{Scenario, ScenarioError};
use crate::slack::SlackReport;

/// One finished scenario of a batch: the scenario description plus the
/// same results an independent single-scenario run would produce.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// Which (corner, mode) cell this is.
    pub scenario: Scenario,
    /// Enumerated true paths, canonically ordered.
    pub paths: Vec<TruePath>,
    /// Engine statistics of the enumeration.
    pub stats: EnumerationStats,
    /// Structural slack report at the resolved requirement.
    pub slack: SlackReport,
    /// Worst structural arrival over the primary outputs, ps.
    pub structural_worst: f64,
    /// The requirement the slack report used, ps.
    pub required: f64,
    /// How the requirement was chosen (mode-explicit > SDC > default).
    pub required_source: RequiredSource,
}

/// The worst timing of one primary output across every scenario.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MergedEndpoint {
    /// Output net name.
    pub output: String,
    /// Worst (most negative) slack over all scenarios, ps.
    pub slack: f64,
    /// Structural arrival of the dominating scenario, ps.
    pub arrival: f64,
    /// Requirement of the dominating scenario, ps.
    pub required: f64,
    /// Name of the dominating scenario (`corner/mode`).
    pub scenario: String,
}

/// The cross-scenario merge: worst slack per endpoint with the dominating
/// scenario identified. Pure aggregation over per-scenario reports —
/// building it never changes any per-scenario result — and canonical in
/// the scenario *set*, not the submission order.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MergedSlackReport {
    /// One entry per primary output, in netlist output order.
    pub endpoints: Vec<MergedEndpoint>,
}

impl MergedSlackReport {
    /// Merges finished scenarios. Submission order does not matter: for
    /// every endpoint the dominating scenario is the one with the
    /// smallest slack, ties broken toward the lexicographically smallest
    /// scenario name.
    pub fn merge(nl: &Netlist, outcomes: &[ScenarioOutcome]) -> Self {
        let mut ranked: Vec<&ScenarioOutcome> = outcomes.iter().collect();
        ranked.sort_by_key(|a| a.scenario.name());
        let endpoints = nl
            .outputs()
            .iter()
            .map(|&o| {
                let best = ranked
                    .iter()
                    .min_by(|a, b| a.slack.of(o).total_cmp(&b.slack.of(o)))
                    .expect("at least one scenario");
                MergedEndpoint {
                    output: nl.net_label(o),
                    slack: best.slack.of(o),
                    arrival: best.slack.timing.arrival[o.index()],
                    required: best.required,
                    scenario: best.scenario.name(),
                }
            })
            .collect();
        MergedSlackReport { endpoints }
    }

    /// The worst endpoint of the whole matrix.
    pub fn worst(&self) -> Option<&MergedEndpoint> {
        self.endpoints
            .iter()
            .min_by(|a, b| a.slack.total_cmp(&b.slack))
    }

    /// Whether every endpoint meets its requirement in every scenario.
    pub fn passes(&self) -> bool {
        self.endpoints.iter().all(|e| e.slack >= 0.0)
    }

    /// Canonical JSON rendering.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

/// A finished batch: shared inputs, per-scenario outcomes (in submission
/// order), and the cross-scenario merge.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Requested circuit name.
    pub circuit: String,
    /// The standard cell library.
    pub lib: Library,
    /// Technology-mapped netlist (shared by every scenario).
    pub netlist: Netlist,
    /// Primary-input slew, ps.
    pub input_slew: f64,
    /// Per-scenario results, in submission order.
    pub scenarios: Vec<ScenarioOutcome>,
    /// Worst slack per endpoint across all scenarios.
    pub merged: MergedSlackReport,
    /// Wall-clock time of the whole batch, seconds.
    pub elapsed_s: f64,
}

impl BatchOutcome {
    /// The path certificates of scenario `idx` — byte-identical to the
    /// certificates an independent single-scenario run would emit.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn certificates(&self, idx: usize) -> CertificateSet {
        CertificateSet::new(
            &self.netlist,
            self.input_slew,
            self.scenarios[idx].paths.clone(),
        )
    }
}

/// What a scenario's true-path search depends on: the technology's
/// characterization and the operating point (the key the compiled kernel
/// is built for). Scenarios with equal keys share one search.
///
/// The key holds no [`crate::Mode`] field because the search reads none.
/// A future input-delay-aware search must add the mode's launch offsets
/// (`set_input_delay`) to this key.
type SearchKey = (String, u64, u64);

fn search_key(s: &Scenario) -> SearchKey {
    (
        s.corner.tech.name.clone(),
        s.corner.corner.temperature.to_bits(),
        s.corner.corner.vdd.to_bits(),
    )
}

/// One pool job: the scenarios sharing a search key, by submission
/// index (slot and span ordinal) in submission order, and the shared
/// read-only state their search and slack read.
struct SearchGroup<'a> {
    corner: Corner,
    tlib: &'a TimingLibrary,
    kernel: Arc<CompiledCorner>,
    members: Vec<usize>,
}

pub(crate) fn run_batch(req: &AnalysisRequest) -> Result<BatchOutcome, AnalysisError> {
    let scenarios = &req.scenarios;
    if scenarios.is_empty() {
        return Err(AnalysisError::Scenario(ScenarioError::EmptySet));
    }
    // Scenario indices grouped by search key, in first-appearance order;
    // a group's position here is its position in the pool.
    let mut grouped: Vec<(SearchKey, Vec<usize>)> = Vec::new();
    for (index, s) in scenarios.iter().enumerate() {
        let key = search_key(s);
        match grouped.iter_mut().find(|(k, _)| *k == key) {
            Some((_, indices)) => indices.push(index),
            None => grouped.push((key, vec![index])),
        }
    }
    let obs = req.obs.clone();
    let t0 = Instant::now();
    let root = obs.span_with(
        "mcmm",
        vec![
            ("circuit", req.circuit.clone()),
            ("scenarios", scenarios.len().to_string()),
            ("batch_threads", req.batch_threads.to_string()),
        ],
    );
    obs.counter("mcmm.scenarios").add(scenarios.len() as u64);
    obs.counter("mcmm.searches").add(grouped.len() as u64);

    let loaded = req.load(scenarios, &root)?;
    obs.counter("mcmm.netlist_loads").add(1);
    obs.counter("mcmm.characterizations")
        .add(loaded.timings.len() as u64);
    // A batch without SDC modes registers no parse counter at all.
    if !loaded.constraints.is_empty() {
        obs.counter("mcmm.sdc_parses")
            .add(loaded.constraints.len() as u64);
    }

    // One job, and with it one compiled kernel, per search key.
    let mut groups: Vec<SearchGroup> = Vec::with_capacity(grouped.len());
    for (_, indices) in grouped {
        let first = &scenarios[indices[0]];
        let tlib = &loaded.timings[&first.corner.tech.name];
        let kernel = {
            let _span = root.child_with("kernel", vec![("corner", first.corner.name.clone())]);
            let compiled = tlib.compile_corner(first.corner.corner);
            compiled.record_metrics(&obs);
            obs.counter("mcmm.kernel_compiles").add(1);
            Arc::new(compiled)
        };
        groups.push(SearchGroup {
            corner: first.corner.corner,
            tlib,
            kernel,
            members: indices,
        });
    }

    // Fan the groups over a work-stealing pool. Each group is a
    // self-contained deterministic analysis; the slot vector is indexed
    // by submission order, so collection order is irrelevant.
    let n_scenarios = scenarios.len();
    let workers = req.batch_threads.clamp(1, groups.len());
    let slots: Mutex<Vec<Option<ScenarioOutcome>>> =
        Mutex::new((0..n_scenarios).map(|_| None).collect());
    let root_id = root.id();
    // The coordinator's children (one `load`, one `characterize` per
    // technology, one `kernel` per group) hold the low ordinals and the
    // scenario subtrees start after them. They all open on this thread,
    // so the span skeleton is identical at any batch width.
    let scenario_ord_base = 1 + loaded.timings.len() as u64 + groups.len() as u64;
    let run_job = |group: SearchGroup, local: &mut LocalSpans| {
        let outcomes = run_group(req, &loaded, &group, local, root_id, scenario_ord_base);
        let mut slots = slots.lock().expect("no poisoned batch slots");
        for (index, outcome) in outcomes {
            slots[index] = Some(outcome);
        }
    };
    if workers <= 1 {
        let mut local = obs.local();
        for group in groups {
            run_job(group, &mut local);
        }
    } else {
        let injector = Injector::new();
        for group in groups {
            injector.push(group);
        }
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut local = obs.local();
                    loop {
                        match injector.steal() {
                            Steal::Success(group) => run_job(group, &mut local),
                            Steal::Empty => break,
                            Steal::Retry => continue,
                        }
                    }
                });
            }
        });
    }
    let outcomes: Vec<ScenarioOutcome> = slots
        .into_inner()
        .expect("no poisoned batch slots")
        .into_iter()
        .map(|s| s.expect("every scenario ran"))
        .collect();

    let merged = {
        let _span = root.child("merge");
        MergedSlackReport::merge(&loaded.netlist, &outcomes)
    };
    Ok(BatchOutcome {
        circuit: req.circuit.clone(),
        lib: loaded.lib,
        netlist: loaded.netlist,
        input_slew: req.input_slew,
        scenarios: outcomes,
        merged,
        elapsed_s: t0.elapsed().as_secs_f64(),
    })
}

/// One pool job: a single search and a single bound pass for the group's
/// operating point, then each member's requirement and slack. Every
/// member keeps its own `scenario` span subtree at its submission
/// ordinal; the search is the `enumerate` child of the group's first
/// member. Each outcome must equal what an independent single-scenario
/// [`AnalysisRequest::run`] computes — the identity is pinned by
/// `tests/mcmm_identity.rs` and re-checked by `bench_mcmm`.
fn run_group(
    req: &AnalysisRequest,
    loaded: &Loaded,
    group: &SearchGroup,
    local: &mut LocalSpans,
    root_id: u64,
    ord_base: u64,
) -> Vec<(usize, ScenarioOutcome)> {
    let netlist = &loaded.netlist;
    let enumerator = PathEnumerator::with_prebuilt(
        netlist,
        &loaded.lib,
        group.tlib,
        req.enumeration_config(group.corner),
        group.kernel.clone(),
        None,
    );
    let mut search = None;
    let mut bounds = None;
    group
        .members
        .iter()
        .map(|&index| {
            let scenario = &req.scenarios[index];
            let attrs = vec![("scenario", scenario.name())];
            let outcome = local.time_tree(
                root_id,
                ord_base + index as u64,
                "scenario",
                attrs,
                |local, id| {
                    let (paths, stats) = search
                        .get_or_insert_with(|| {
                            local.time(id, 0, "enumerate", Vec::new(), || enumerator.run())
                        })
                        .clone();
                    let slack = local.time(id, 1, "slack", Vec::new(), || {
                        let timing = bounds.get_or_insert_with(|| {
                            static_bounds(netlist, group.tlib, group.corner, req.input_slew, 1.0)
                        });
                        SlackOutcome::resolve(
                            netlist,
                            timing.clone(),
                            scenario.mode.required,
                            scenario
                                .mode
                                .sdc
                                .as_ref()
                                .map(|text| &loaded.constraints[text]),
                        )
                    });
                    ScenarioOutcome {
                        scenario: scenario.clone(),
                        paths,
                        stats,
                        slack: slack.report,
                        structural_worst: slack.structural_worst,
                        required: slack.required,
                        required_source: slack.required_source,
                    }
                },
            );
            (index, outcome)
        })
        .collect()
}
