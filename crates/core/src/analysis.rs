//! The unified analysis facade: one builder from *request* to *outcome*.
//!
//! Every front-end flow — `analyze`, `slack`, `baseline`, the lint
//! path-certificate replay — needs the same preamble: resolve a catalog
//! circuit, map it onto the standard library, characterize (or load the
//! cached) timing models for a technology, pick a corner, and assemble an
//! [`EnumerationConfig`]. [`AnalysisRequest`] owns that preamble once,
//! behind a builder, and hands back either a reusable
//! [`AnalysisContext`] (circuit + timing, for flows that drive their own
//! analysis such as the baseline) or a finished [`AnalysisOutcome`]
//! (enumerated true paths + statistics).
//!
//! The facade is also where observability attaches: pass an enabled
//! `sta_obs::Observer` and the run records phase spans (`load`,
//! `characterize`, `enumerate`, `slack`), engine metrics, and — via the
//! CLI — a run manifest. Observation never changes any computed result.

use std::path::PathBuf;

use sta_cells::{Corner, Library};
use sta_charlib::{CharConfig, CharError, TimingLibrary};
use sta_circuits::catalog;
use sta_netlist::{Netlist, NetlistError};
use sta_obs::{Observer, SpanGuard};

use crate::arrival::{static_bounds, StaticTiming};
use crate::enumerate::{EnumerationConfig, EnumerationStats, PathEnumerator};
use crate::mcmm::BatchOutcome;
use crate::path::TruePath;
use crate::scenario::{Scenario, ScenarioError};
use crate::sdc::{parse_sdc, Constraints, SdcError};
use crate::slack::SlackReport;

/// Errors from assembling or running an analysis.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum AnalysisError {
    /// The circuit name is not in the benchmark catalog.
    UnknownBenchmark(String),
    /// The benchmark file failed to parse or map.
    Netlist(NetlistError),
    /// Library characterization failed.
    Characterization(CharError),
    /// The attached SDC text failed to parse against the circuit.
    Sdc(SdcError),
    /// The scenario set is malformed (bad corner/mode spec, empty set).
    Scenario(ScenarioError),
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::UnknownBenchmark(name) => write!(f, "unknown benchmark {name:?}"),
            AnalysisError::Netlist(e) => write!(f, "{e}"),
            AnalysisError::Characterization(e) => write!(f, "{e}"),
            AnalysisError::Sdc(e) => write!(f, "{e}"),
            AnalysisError::Scenario(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<NetlistError> for AnalysisError {
    fn from(e: NetlistError) -> Self {
        AnalysisError::Netlist(e)
    }
}

impl From<CharError> for AnalysisError {
    fn from(e: CharError) -> Self {
        AnalysisError::Characterization(e)
    }
}

impl From<SdcError> for AnalysisError {
    fn from(e: SdcError) -> Self {
        AnalysisError::Sdc(e)
    }
}

impl From<ScenarioError> for AnalysisError {
    fn from(e: ScenarioError) -> Self {
        AnalysisError::Scenario(e)
    }
}

/// Where the slack requirement of a [`SlackOutcome`] came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequiredSource {
    /// Set explicitly on the request.
    Explicit,
    /// Derived from the attached SDC constraints (tightest output
    /// requirement).
    Sdc,
    /// Nothing was specified: 90 % of the structural worst arrival, which
    /// is guaranteed to expose the critical region.
    Default,
}

/// Builder describing one analysis invocation — a single scenario for
/// [`AnalysisRequest::run`], or a whole MCMM scenario set for
/// [`AnalysisRequest::run_batch`]. All setters are chainable; the
/// defaults reproduce the engine's standard configuration (nominal 90 nm,
/// unconstrained mode, one thread, compiled kernels, 60 ps input slew).
///
/// The operating point and constraints live in typed [`Scenario`]s
/// (corner = [`crate::CornerDef`], mode = [`crate::Mode`]).
#[derive(Clone, Debug)]
pub struct AnalysisRequest {
    pub(crate) circuit: String,
    pub(crate) netlist_override: Option<Netlist>,
    /// The scenario set; single-scenario flows use `scenarios[0]`.
    pub(crate) scenarios: Vec<Scenario>,
    pub(crate) n_worst: Option<usize>,
    /// Worker threads *inside* each scenario's enumeration.
    pub(crate) threads: usize,
    /// Concurrent scenario jobs in [`AnalysisRequest::run_batch`].
    pub(crate) batch_threads: usize,
    pub(crate) compile_kernels: bool,
    pub(crate) bitsim: bool,
    pub(crate) learning: bool,
    /// Path cap applied only in full-enumeration mode (no `n_worst`).
    pub(crate) full_enum_path_cap: Option<usize>,
    /// Override for the global justification-decision budget.
    pub(crate) max_decisions: Option<u64>,
    pub(crate) input_slew: f64,
    pub(crate) char_config: CharConfig,
    pub(crate) cache_dir: PathBuf,
    pub(crate) obs: Observer,
}

impl AnalysisRequest {
    /// A request for a catalog circuit with default settings.
    pub fn new(circuit: &str) -> Self {
        AnalysisRequest {
            circuit: circuit.to_string(),
            netlist_override: None,
            scenarios: vec![Scenario::nominal()],
            n_worst: None,
            threads: 1,
            batch_threads: 1,
            compile_kernels: true,
            bitsim: true,
            learning: true,
            full_enum_path_cap: None,
            max_decisions: None,
            input_slew: 60.0,
            char_config: CharConfig::standard(),
            cache_dir: PathBuf::from(".char-cache"),
            obs: Observer::disabled(),
        }
    }

    /// Analyzes the given already-mapped netlist instead of resolving the
    /// circuit name from the benchmark catalog (the name is kept for
    /// reporting). This is how the timing daemon re-analyzes an ECO-edited
    /// netlist that exists in no catalog.
    pub fn with_netlist(mut self, nl: Netlist) -> Self {
        self.netlist_override = Some(nl);
        self
    }

    /// Replaces the whole scenario set (the MCMM matrix). Scenario 0 is
    /// the *primary* scenario, the one single-scenario flows
    /// ([`AnalysisRequest::prepare`], [`AnalysisRequest::run`]) analyze.
    /// An empty set is reported at prepare/run time as
    /// [`AnalysisError::Scenario`].
    pub fn scenarios(mut self, set: Vec<Scenario>) -> Self {
        self.scenarios = set;
        self
    }

    /// Replaces the scenario set with a single scenario.
    pub fn scenario(self, s: Scenario) -> Self {
        self.scenarios(vec![s])
    }

    /// The scenario set this request will analyze.
    pub fn scenario_set(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Sets the number of concurrent scenario jobs
    /// [`AnalysisRequest::run_batch`] fans out (default 1). Independent
    /// of [`AnalysisRequest::threads`], which controls the workers
    /// *inside* one scenario's enumeration; per-scenario results are
    /// byte-identical at any combination of the two.
    pub fn batch_threads(mut self, threads: usize) -> Self {
        self.batch_threads = threads.max(1);
        self
    }

    /// Restricts enumeration to the N worst paths (`None` = enumerate
    /// everything, subject to [`AnalysisRequest::full_enum_path_cap`]).
    pub fn n_worst(mut self, n: Option<usize>) -> Self {
        self.n_worst = n;
        self
    }

    /// Sets the enumeration worker-thread count (default 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enables or disables the corner-compiled delay kernels (default on).
    pub fn compiled_kernels(mut self, on: bool) -> Self {
        self.compile_kernels = on;
        self
    }

    /// Enables or disables the bit-parallel justification pre-filter
    /// (default on). Never changes any computed result.
    pub fn bitsim(mut self, on: bool) -> Self {
        self.bitsim = on;
        self
    }

    /// Enables or disables nogood learning and dominance pruning in the
    /// sensitization search (default on). Refutation-only: never changes
    /// the emitted path set.
    pub fn learning(mut self, on: bool) -> Self {
        self.learning = on;
        self
    }

    /// Caps emitted paths in full-enumeration mode (ignored when
    /// `n_worst` is set). Front ends use this as a safety valve.
    pub fn full_enum_path_cap(mut self, cap: Option<usize>) -> Self {
        self.full_enum_path_cap = cap;
        self
    }

    /// Overrides the global justification-decision budget (`None` keeps
    /// the [`EnumerationConfig`] default). Budget-truncated runs report
    /// `truncated` in their stats; consumers that need exact results
    /// (splice cross-checks, byte-identity oracles) must check that flag.
    pub fn max_decisions(mut self, budget: Option<u64>) -> Self {
        self.max_decisions = budget;
        self
    }

    /// Sets the primary-input transition time, ps (default 60).
    pub fn input_slew(mut self, slew: f64) -> Self {
        self.input_slew = slew;
        self
    }

    /// Overrides the characterization configuration (default
    /// [`CharConfig::standard`]).
    pub fn char_config(mut self, cfg: CharConfig) -> Self {
        self.char_config = cfg;
        self
    }

    /// Overrides the characterization cache directory (default
    /// `.char-cache`).
    pub fn cache_dir(mut self, dir: PathBuf) -> Self {
        self.cache_dir = dir;
        self
    }

    /// Attaches an observability handle; all phases of the analysis record
    /// spans and metrics into it. Never changes what is computed.
    pub fn observer(mut self, obs: Observer) -> Self {
        self.obs = obs;
        self
    }

    /// Resolves the request into a reusable [`AnalysisContext`]: catalog
    /// lookup, technology mapping, (cached) characterization, constraint
    /// parsing, and the assembled [`EnumerationConfig`].
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError`] when the circuit is unknown, fails to
    /// map, characterization fails, or the SDC text does not parse.
    pub fn prepare(&self) -> Result<AnalysisContext, AnalysisError> {
        let primary = self
            .scenarios
            .first()
            .ok_or(AnalysisError::Scenario(ScenarioError::EmptySet))?
            .clone();
        let tech = primary.corner.tech.clone();
        let corner = primary.corner.corner;
        let root = self.obs.span_with(
            "analysis",
            vec![
                ("circuit", self.circuit.clone()),
                ("tech", tech.name.clone()),
                ("threads", self.threads.to_string()),
                ("kernels", self.compile_kernels.to_string()),
                ("bitsim", self.bitsim.to_string()),
                ("learning", self.learning.to_string()),
            ],
        );
        let (lib, netlist) = {
            let _load = root.child("load");
            let lib = Library::standard();
            let nl = match &self.netlist_override {
                Some(nl) => nl.clone(),
                None => catalog::mapped(&self.circuit, &lib)?
                    .ok_or_else(|| AnalysisError::UnknownBenchmark(self.circuit.clone()))?,
            };
            (lib, nl)
        };
        let timing = {
            let span = root.child("characterize");
            sta_charlib::characterize_cached_observed(
                &lib,
                &tech,
                &self.char_config,
                &self.cache_dir,
                &self.obs,
                span.id(),
            )?
        };
        let constraints = match &primary.mode.sdc {
            Some(text) => Some(parse_sdc(text, &netlist)?),
            None => None,
        };
        Ok(AnalysisContext {
            circuit: self.circuit.clone(),
            lib,
            netlist,
            timing,
            corner,
            constraints,
            required: primary.mode.required,
            cfg: self.enumeration_config(corner),
            obs: self.obs.clone(),
            root,
        })
    }

    /// The search configuration at `corner`: the operating point plus
    /// request-wide settings. It reads no [`crate::Mode`] field, which is
    /// why a batch runs one search per operating point and shares it
    /// across that point's modes.
    pub(crate) fn enumeration_config(&self, corner: Corner) -> EnumerationConfig {
        let mut cfg = EnumerationConfig::new(corner)
            .with_threads(self.threads)
            .with_compiled_kernels(self.compile_kernels)
            .with_bitsim(self.bitsim)
            .with_learning(self.learning)
            .with_observer(self.obs.clone());
        cfg.input_slew = self.input_slew;
        if let Some(budget) = self.max_decisions {
            cfg.max_decisions = budget;
        }
        match self.n_worst {
            Some(n) => cfg.with_n_worst(n),
            None => {
                cfg.max_paths = self.full_enum_path_cap;
                cfg
            }
        }
    }

    /// [`AnalysisRequest::prepare`] followed by a full true-path
    /// enumeration.
    ///
    /// # Errors
    ///
    /// Same as [`AnalysisRequest::prepare`].
    pub fn run(&self) -> Result<AnalysisOutcome, AnalysisError> {
        let ctx = self.prepare()?;
        let t0 = std::time::Instant::now();
        let run = ctx.enumerate();
        let elapsed_s = t0.elapsed().as_secs_f64();
        Ok(ctx.into_outcome(run, elapsed_s))
    }

    /// Runs the whole scenario set as one MCMM batch: scenario-invariant
    /// work (netlist load, per-technology characterization, bitsim
    /// schedule, per-corner kernel compilation, per-mode SDC parsing) is
    /// done exactly once, then one job per operating point — a single
    /// true-path search shared by every mode of that point, plus each
    /// mode's slack — fans out over [`AnalysisRequest::batch_threads`]
    /// work-stealing workers. Every scenario's paths are byte-identical
    /// to an independent [`AnalysisRequest::run`] of that scenario at any
    /// thread count; the merged slack view is canonical in the scenario
    /// set (see [`crate::MergedSlackReport`]).
    ///
    /// # Errors
    ///
    /// Same as [`AnalysisRequest::prepare`], plus
    /// [`AnalysisError::Scenario`] for an empty scenario set.
    pub fn run_batch(&self) -> Result<BatchOutcome, AnalysisError> {
        crate::mcmm::run_batch(self)
    }
}

/// Everything a resolved request provides: the mapped circuit, its timing
/// library, the operating corner, parsed constraints, and the enumeration
/// configuration. Flows that drive their own analysis (the two-step
/// baseline, lint) borrow these; [`AnalysisContext::enumerate`] and
/// [`AnalysisContext::slack`] run the standard analyses.
pub struct AnalysisContext {
    /// Requested circuit name.
    pub circuit: String,
    /// The standard cell library.
    pub lib: Library,
    /// Technology-mapped netlist.
    pub netlist: Netlist,
    /// Characterized timing models.
    pub timing: TimingLibrary,
    /// Operating corner of the analysis.
    pub corner: Corner,
    /// Parsed SDC constraints, when the request attached any.
    pub constraints: Option<Constraints>,
    required: Option<f64>,
    cfg: EnumerationConfig,
    obs: Observer,
    /// Root span of the whole analysis; ends when the context drops.
    root: SpanGuard,
}

/// Result of one enumeration pass through the context.
pub struct EnumerationRun {
    /// Enumerated true paths, canonically ordered (see
    /// [`PathEnumerator::run`]).
    pub paths: Vec<TruePath>,
    /// Engine statistics.
    pub stats: EnumerationStats,
    /// `(arcs, coefficients)` of the compiled kernel table, when kernel
    /// compilation was enabled.
    pub kernel: Option<(usize, usize)>,
}

/// Result of a structural slack analysis through the context.
pub struct SlackOutcome {
    /// The per-net slack report.
    pub report: SlackReport,
    /// Worst structural arrival over the primary outputs, ps.
    pub structural_worst: f64,
    /// The requirement the report was computed against, ps.
    pub required: f64,
    /// How the requirement was chosen.
    pub required_source: RequiredSource,
}

impl SlackOutcome {
    /// Resolves the requirement and derives the slack report from the
    /// structural bounds of the operating point. The requirement is, in
    /// order: the explicit value, the tightest SDC output requirement,
    /// then 90 % of the structural worst arrival. Single runs and batch
    /// scenarios both resolve here, so their reports agree byte for byte.
    pub(crate) fn resolve(
        nl: &Netlist,
        timing: StaticTiming,
        explicit: Option<f64>,
        constraints: Option<&Constraints>,
    ) -> Self {
        let structural_worst = timing.worst_arrival(nl);
        let sdc_required = constraints.and_then(|c| {
            nl.outputs()
                .iter()
                .filter_map(|&o| c.required_at(o))
                .min_by(f64::total_cmp)
        });
        let (required, required_source) = match (explicit, sdc_required) {
            (Some(r), _) => (r, RequiredSource::Explicit),
            (None, Some(r)) => (r, RequiredSource::Sdc),
            (None, None) => (structural_worst * 0.9, RequiredSource::Default),
        };
        SlackOutcome {
            report: SlackReport::from_bounds(nl, timing, required),
            structural_worst,
            required,
            required_source,
        }
    }
}

impl std::fmt::Debug for AnalysisContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisContext")
            .field("circuit", &self.circuit)
            .field("corner", &self.corner)
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl AnalysisContext {
    /// The enumeration configuration this context will analyze with.
    pub fn config(&self) -> &EnumerationConfig {
        &self.cfg
    }

    /// The primary-input slew of the analysis, ps.
    pub fn input_slew(&self) -> f64 {
        self.cfg.input_slew
    }

    /// Runs the true-path enumeration (kernel compilation and the search
    /// itself are recorded as child spans of the analysis).
    pub fn enumerate(&self) -> EnumerationRun {
        self.enumerate_inner(None)
    }

    /// Like [`AnalysisContext::enumerate`], but injects `store` as the
    /// run's shared nogood table so callers can audit what was learned
    /// afterwards (see the lint `LEARN` rules). Has no effect on the
    /// result when learning is disabled in the configuration.
    pub fn enumerate_with_nogood_store(
        &self,
        store: std::sync::Arc<crate::learn::NogoodStore>,
    ) -> EnumerationRun {
        self.enumerate_inner(Some(store))
    }

    fn enumerate_inner(
        &self,
        store: Option<std::sync::Arc<crate::learn::NogoodStore>>,
    ) -> EnumerationRun {
        let enumr = {
            let _compile = self.root.child("compile");
            let mut e =
                PathEnumerator::new(&self.netlist, &self.lib, &self.timing, self.cfg.clone());
            if let Some(store) = store {
                e.set_nogood_store(store);
            }
            e
        };
        let kernel = enumr.kernel().map(|k| {
            k.record_metrics(&self.obs);
            (k.num_arcs(), k.num_coefficients())
        });
        let (paths, stats) = {
            let _enumerate = self.root.child("enumerate");
            enumr.run()
        };
        EnumerationRun {
            paths,
            stats,
            kernel,
        }
    }

    /// Runs the structural slack analysis. The requirement is resolved in
    /// order: explicit request value, tightest SDC output requirement,
    /// then the 90 %-of-structural-worst default.
    pub fn slack(&self) -> SlackOutcome {
        let _slack = self.root.child("slack");
        let timing = static_bounds(
            &self.netlist,
            &self.timing,
            self.corner,
            self.cfg.input_slew,
            1.0,
        );
        crate::arrival::record_bounds_metrics(&self.obs, &self.netlist, &timing);
        SlackOutcome::resolve(
            &self.netlist,
            timing,
            self.required,
            self.constraints.as_ref(),
        )
    }

    /// Consumes the context (ending the analysis root span) into a
    /// finished outcome.
    pub fn into_outcome(self, run: EnumerationRun, elapsed_s: f64) -> AnalysisOutcome {
        AnalysisOutcome {
            circuit: self.circuit,
            lib: self.lib,
            netlist: self.netlist,
            timing: self.timing,
            corner: self.corner,
            input_slew: self.cfg.input_slew,
            paths: run.paths,
            stats: run.stats,
            kernel: run.kernel,
            elapsed_s,
        }
    }
}

/// A finished analysis: the resolved inputs plus the enumerated paths.
#[derive(Clone, Debug)]
pub struct AnalysisOutcome {
    /// Requested circuit name.
    pub circuit: String,
    /// The standard cell library.
    pub lib: Library,
    /// Technology-mapped netlist.
    pub netlist: Netlist,
    /// Characterized timing models.
    pub timing: TimingLibrary,
    /// Operating corner of the analysis.
    pub corner: Corner,
    /// Primary-input slew, ps.
    pub input_slew: f64,
    /// Enumerated true paths, canonically ordered.
    pub paths: Vec<TruePath>,
    /// Engine statistics.
    pub stats: EnumerationStats,
    /// `(arcs, coefficients)` of the compiled kernel table, if enabled.
    pub kernel: Option<(usize, usize)>,
    /// Wall-clock enumeration time, seconds.
    pub elapsed_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{CornerDef, Mode};
    use sta_cells::Technology;

    fn cache_dir() -> PathBuf {
        // Share one fast-config cache across the facade tests.
        std::env::temp_dir().join("sta-analysis-facade-cache")
    }

    fn fast_request(circuit: &str) -> AnalysisRequest {
        AnalysisRequest::new(circuit)
            .char_config(CharConfig::fast())
            .cache_dir(cache_dir())
    }

    #[test]
    fn unknown_circuit_is_reported() {
        let err = fast_request("not-a-circuit").run().unwrap_err();
        assert_eq!(err, AnalysisError::UnknownBenchmark("not-a-circuit".into()));
        assert!(err.to_string().contains("not-a-circuit"));
    }

    #[test]
    fn facade_matches_direct_engine_use() {
        let outcome = fast_request("c17").run().unwrap();
        assert!(outcome.kernel.is_some());
        // Reproduce by hand: same library, same config.
        let lib = Library::standard();
        let nl = catalog::mapped("c17", &lib).unwrap().unwrap();
        let tlib = sta_charlib::characterize_cached(
            &lib,
            &Technology::n90(),
            &CharConfig::fast(),
            &cache_dir(),
        )
        .unwrap();
        let cfg = EnumerationConfig::new(Corner::nominal(&Technology::n90()));
        let (paths, _) = PathEnumerator::new(&nl, &lib, &tlib, cfg).run();
        assert_eq!(outcome.paths, paths);
        assert_eq!(outcome.stats.paths, paths.len());
    }

    #[test]
    fn observer_attachment_changes_nothing_and_records_phases() {
        let plain = fast_request("c17").n_worst(Some(5)).run().unwrap();
        let obs = Observer::enabled();
        let observed = fast_request("c17")
            .n_worst(Some(5))
            .observer(obs.clone())
            .run()
            .unwrap();
        assert_eq!(plain.paths, observed.paths);
        let tree = obs.span_tree();
        assert_eq!(tree.len(), 1);
        assert!(tree[0]
            .structure()
            .starts_with("analysis(load,characterize"));
        let snap = obs.metrics_snapshot();
        assert_eq!(snap.counters["enumerate.paths"], plain.stats.paths as u64);
        assert!(snap.gauges.contains_key("kernel.arcs"));
    }

    fn nominal_with_mode(mode: Mode) -> Scenario {
        Scenario::new(CornerDef::nominal(Technology::n90()), mode)
    }

    #[test]
    fn slack_requirement_resolution_order() {
        let ctx = fast_request("c17").prepare().unwrap();
        let default = ctx.slack();
        assert_eq!(default.required_source, RequiredSource::Default);
        assert!((default.required - default.structural_worst * 0.9).abs() < 1e-9);

        let explicit = fast_request("c17")
            .scenario(nominal_with_mode(Mode::with_required("m", 123.0)))
            .prepare()
            .unwrap();
        let s = explicit.slack();
        assert_eq!(
            (s.required, s.required_source),
            (123.0, RequiredSource::Explicit)
        );

        let outputs_constrained = fast_request("c17")
            .scenario(nominal_with_mode(Mode::with_sdc(
                "func",
                "create_clock -period 500\n",
            )))
            .prepare()
            .unwrap();
        let s = outputs_constrained.slack();
        assert_eq!(
            (s.required, s.required_source),
            (500.0, RequiredSource::Sdc)
        );
    }

    #[test]
    fn bad_sdc_surfaces_as_typed_error() {
        let err = fast_request("c17")
            .scenario(nominal_with_mode(Mode::with_sdc(
                "bad",
                "set_output_delay 100 [get_ports nope]\n",
            )))
            .prepare()
            .unwrap_err();
        assert!(matches!(err, AnalysisError::Sdc(_)));
    }

    #[test]
    fn empty_scenario_set_is_a_typed_error() {
        let err = fast_request("c17").scenarios(Vec::new()).run().unwrap_err();
        assert_eq!(
            err,
            AnalysisError::Scenario(crate::scenario::ScenarioError::EmptySet)
        );
        let err = fast_request("c17")
            .scenarios(Vec::new())
            .run_batch()
            .unwrap_err();
        assert!(matches!(err, AnalysisError::Scenario(_)));
    }

    #[test]
    fn batch_matches_independent_single_runs() {
        let corners = vec![
            CornerDef::nominal(Technology::n90()),
            CornerDef::parse("slow", &Technology::n90()).unwrap(),
        ];
        let modes = vec![
            Mode::unconstrained(),
            Mode::with_sdc("func", "create_clock -period 400\n"),
        ];
        let set = Scenario::matrix(&corners, &modes);
        let batch = fast_request("c17")
            .scenarios(set.clone())
            .run_batch()
            .unwrap();
        assert_eq!(batch.scenarios.len(), 4);
        for (i, s) in set.iter().enumerate() {
            let single = fast_request("c17").scenario(s.clone()).run().unwrap();
            assert_eq!(batch.scenarios[i].paths, single.paths, "{}", s.name());
            assert_eq!(
                batch.certificates(i).to_json(),
                crate::report::CertificateSet::new(
                    &single.netlist,
                    single.input_slew,
                    single.paths
                )
                .to_json(),
                "{}",
                s.name()
            );
        }
        // The merged report is canonical under submission-order permutation.
        let mut reversed_set = set;
        reversed_set.reverse();
        let reversed = fast_request("c17")
            .scenarios(reversed_set)
            .run_batch()
            .unwrap();
        assert_eq!(batch.merged, reversed.merged);
        assert_eq!(batch.merged.to_json(), reversed.merged.to_json());
        assert_eq!(batch.merged.endpoints.len(), batch.netlist.outputs().len());
    }
}
