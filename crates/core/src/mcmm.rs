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
//! | true-path search        | technology              | per tech    |
//! | parsed SDC constraints  | mode                    | per mode    |
//!
//! The search reads no [`crate::Mode`] field: a mode only sets the
//! requirement the slack step applies. Nor does its logic read a delay:
//! one search times every operating point of a technology at once (see
//! [`PathEnumerator::with_corners`]). So the scenarios are grouped by
//! technology — one group per [`MAX_CORNERS`] operating points of one —
//! and each group is one job of a fixed list that `batch_threads` scoped
//! workers claim in order through one atomic cursor (the idiom of
//! `crate::parallel`, where a pool of one runs on the caller's thread):
//! one *deterministic* search over shared read-only
//! state, then each operating point's structural bound pass through its
//! kernel and each mode's requirement and slack. Each scenario's path set
//! and search statistics — and therefore its [`CertificateSet`] bytes — are
//! identical to an independent single-scenario run at any batch width.
//! The merge layer below is pure aggregation over finished per-scenario
//! reports; it cannot change any per-scenario result, which is what
//! keeps the single-run audit oracles (lint `--verify-paths`,
//! `--audit-flow`) applicable per scenario.
//!
//! The merged view is canonical: scenarios are ranked by slack with ties
//! broken toward the lexicographically smallest scenario name, so
//! [`MergedSlackReport`] is byte-identical under any submission-order
//! permutation of the same scenario set.

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use sta_cells::{Corner, Library};
use sta_charlib::{CompiledCorner, TimingLibrary};
use sta_netlist::Netlist;
use sta_obs::LocalSpans;

use crate::analysis::{AnalysisError, AnalysisRequest, Loaded, RequiredSource, SlackOutcome};
use crate::arrival::{static_bounds_compiled, StaticTiming};
use crate::enumerate::{CornerRuns, EnumerationStats, PathEnumerator, MAX_CORNERS};
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
    /// The batch's true-path searches, one per technology (per
    /// [`MAX_CORNERS`] operating points of one), in order of each
    /// technology's first scenario.
    pub searches: Vec<BatchSearch>,
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

/// One true-path search of a batch: the scenarios of some operating
/// points of one technology, and the effort the search made for them.
#[derive(Clone, Debug)]
pub struct BatchSearch {
    /// Name of the technology the search timed.
    pub tech: String,
    /// The scenarios it served, by submission index, ascending.
    pub scenarios: Vec<usize>,
    /// The search's own statistics: every decision it made counted once,
    /// whichever operating points it served (see
    /// [`crate::CornerRuns::search`]). Each served scenario's
    /// [`ScenarioOutcome::stats`] holds what an independent search at its
    /// operating point would have counted.
    pub stats: EnumerationStats,
}

/// One operating point of a search: its corner, its compiled kernel, and
/// the scenarios at that point, by submission index in submission order.
struct Point {
    corner: Corner,
    kernel: Arc<CompiledCorner>,
    members: Vec<usize>,
}

/// One pool job: one search over up to [`MAX_CORNERS`] operating points
/// of one technology, and the shared read-only state it and the slack
/// step read.
struct SearchGroup<'a> {
    tech: String,
    tlib: &'a TimingLibrary,
    points: Vec<Point>,
}

impl SearchGroup<'_> {
    /// The group's scenarios in submission order, each with the index of
    /// its operating point.
    fn members(&self) -> Vec<(usize, usize)> {
        let mut members: Vec<(usize, usize)> = self
            .points
            .iter()
            .enumerate()
            .flat_map(|(p, point)| point.members.iter().map(move |&index| (index, p)))
            .collect();
        members.sort_unstable();
        members
    }
}

/// What a scenario's kernel is compiled for: its technology's timing
/// library at its temperature and supply. The key holds no
/// [`crate::Mode`] field because the search reads none. A future
/// input-delay-aware search must add the mode's launch offsets
/// (`set_input_delay`) to it.
fn point_key(s: &Scenario) -> (&str, u64, u64) {
    (
        &s.corner.tech.name,
        s.corner.corner.temperature.to_bits(),
        s.corner.corner.vdd.to_bits(),
    )
}

/// Scenario indices grouped into searches: by technology and, within
/// one, by operating point, both in first-appearance order. Each entry is
/// a technology and the member lists of its points; a technology with
/// more than [`MAX_CORNERS`] points gets one entry per [`MAX_CORNERS`] of
/// them.
fn group_scenarios(scenarios: &[Scenario]) -> Vec<(String, Vec<Vec<usize>>)> {
    let mut groups: Vec<(String, Vec<Vec<usize>>)> = Vec::new();
    for (index, s) in scenarios.iter().enumerate() {
        let tech = &s.corner.tech.name;
        let known = groups
            .iter_mut()
            .flat_map(|(_, points)| points.iter_mut())
            .find(|members| point_key(&scenarios[members[0]]) == point_key(s));
        if let Some(members) = known {
            members.push(index);
            continue;
        }
        match groups
            .iter_mut()
            .find(|(t, points)| t == tech && points.len() < MAX_CORNERS)
        {
            Some((_, points)) => points.push(vec![index]),
            None => groups.push((tech.clone(), vec![vec![index]])),
        }
    }
    groups
}

pub(crate) fn run_batch(req: &AnalysisRequest) -> Result<BatchOutcome, AnalysisError> {
    let scenarios = &req.scenarios;
    if scenarios.is_empty() {
        return Err(AnalysisError::Scenario(ScenarioError::EmptySet));
    }
    // A group's position here is its position in the pool.
    let grouped = group_scenarios(scenarios);
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

    // One compiled kernel per operating point.
    let mut points = 0;
    let mut groups: Vec<SearchGroup> = Vec::with_capacity(grouped.len());
    for (tech, members) in grouped {
        let tlib = &loaded.timings[&tech];
        let points_of_group = members
            .into_iter()
            .map(|members| {
                let first = &scenarios[members[0]].corner;
                let _span = root.child_with("kernel", vec![("corner", first.name.clone())]);
                let compiled = tlib.compile_corner(first.corner);
                compiled.record_metrics(&obs);
                obs.counter("mcmm.kernel_compiles").add(1);
                points += 1;
                Point {
                    corner: first.corner,
                    kernel: Arc::new(compiled),
                    members,
                }
            })
            .collect();
        groups.push(SearchGroup {
            tech,
            tlib,
            points: points_of_group,
        });
    }

    // Fan the groups over the batch pool: workers claim them in order
    // through one cursor and hand back the search with its
    // `(submission index, outcome)` pairs. Each group is a self-contained
    // deterministic analysis, so which worker ran it does not matter.
    let workers = req.batch_threads.clamp(1, groups.len());
    let root_id = root.id();
    // The coordinator's children (one `load`, one `characterize` per
    // technology, one `kernel` per operating point) hold the low
    // ordinals and the scenario subtrees start after them. They all open
    // on this thread, so the span skeleton is identical at any batch
    // width.
    let scenario_ord_base = 1 + loaded.timings.len() as u64 + points;
    let cursor = AtomicUsize::new(0);
    let worker = || {
        let mut local = obs.local();
        let mut done = Vec::new();
        while let Some(group) = groups.get(cursor.fetch_add(1, Relaxed)) {
            done.push(run_group(
                req,
                &loaded,
                group,
                &mut local,
                root_id,
                scenario_ord_base,
            ));
        }
        done
    };
    let jobs = if workers == 1 {
        // A pool of one runs on the caller's thread, like the search's.
        worker()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    };
    let mut searches = Vec::with_capacity(jobs.len());
    let mut outcomes = Vec::with_capacity(scenarios.len());
    for (search, done) in jobs {
        searches.push(search);
        outcomes.extend(done);
    }
    // Each group was listed when its first scenario came up, so its first
    // scenario's index restores group order.
    searches.sort_by_key(|s: &BatchSearch| s.scenarios[0]);
    // The groups partition the submission indices, so sorting restores
    // submission order.
    outcomes.sort_by_key(|&(index, _)| index);
    let outcomes: Vec<ScenarioOutcome> = outcomes.into_iter().map(|(_, o)| o).collect();

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
        searches,
        merged,
        elapsed_s: t0.elapsed().as_secs_f64(),
    })
}

/// One pool job: a single search over the group's operating points, a
/// single bound pass per point, then each member's requirement and
/// slack. Every member keeps its own `scenario` span subtree at its
/// submission ordinal; the search is the `enumerate` child of the
/// group's first member. Each outcome must equal what an independent
/// single-scenario [`AnalysisRequest::run`] computes — the identity is
/// pinned by `tests/mcmm_identity.rs`.
fn run_group(
    req: &AnalysisRequest,
    loaded: &Loaded,
    group: &SearchGroup,
    local: &mut LocalSpans,
    root_id: u64,
    ord_base: u64,
) -> (BatchSearch, Vec<(usize, ScenarioOutcome)>) {
    let netlist = &loaded.netlist;
    let tlib = group.tlib;
    let enumerator = PathEnumerator::with_corners(
        netlist,
        &loaded.lib,
        tlib,
        req.enumeration_config(group.points[0].corner),
        group.points.iter().map(|p| Arc::clone(&p.kernel)).collect(),
    );
    let members = group.members();
    let mut runs: Option<CornerRuns> = None;
    let mut bounds: Vec<Option<StaticTiming>> = vec![None; group.points.len()];
    let outcomes = members
        .iter()
        .map(|&(index, p)| {
            let scenario = &req.scenarios[index];
            let point = &group.points[p];
            let attrs = vec![("scenario", scenario.name())];
            let outcome = local.time_tree(
                root_id,
                ord_base + index as u64,
                "scenario",
                attrs,
                |local, id| {
                    let runs = runs.get_or_insert_with(|| {
                        local.time(id, 0, "enumerate", Vec::new(), || enumerator.run_corners())
                    });
                    let (paths, stats) = runs.corners[p].clone();
                    let slack = local.time(id, 1, "slack", Vec::new(), || {
                        let timing = bounds[p].get_or_insert_with(|| {
                            static_bounds_compiled(
                                netlist,
                                tlib,
                                &point.kernel,
                                req.input_slew,
                                1.0,
                            )
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
        .collect();
    let search = BatchSearch {
        tech: group.tech.clone(),
        scenarios: members.iter().map(|&(index, _)| index).collect(),
        stats: runs.expect("a group has at least one member").search,
    };
    (search, outcomes)
}
