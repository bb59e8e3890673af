//! The daemon itself: resident state, request dispatch, and I/O loops.

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::Arc;

use serde::Value;
use sta_cells::{Corner, Library, Technology};
use sta_charlib::{characterize_cached, CharConfig, CompiledCorner, TimingLibrary};
use sta_circuits::{catalog, resize_gate, rewire_net, swap_gate, GateEdit};
use sta_core::{
    arc_intervals_compiled, dirty_sources, static_bounds_compiled, AnalysisRequest, CertificateSet,
    CornerDef, EnumerationConfig, EnumerationStats, Mode, PathEnumerator, Scenario, SlackOutcome,
    SourceCache, TruePath, ARC_SWEEP_MARGIN,
};
use sta_netlist::Netlist;
use sta_obs::{digest_string, Observer, SessionCircuit, SessionManifest};

use crate::protocol::{jmap, jstr, parse_request, EditKind, Request, MAX_THREADS};

/// Reply fields for one request plus the session-terminating flag
/// (`true` only for `shutdown`); `Err` carries a protocol-level message
/// turned into an error reply without killing the session.
type DispatchReply = Result<(Vec<(&'static str, Value)>, bool), String>;

/// Daemon-wide configuration, fixed for the lifetime of the session.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Characterization grid (the CLI maps `--fast-char` to
    /// [`CharConfig::fast`]).
    pub char_config: CharConfig,
    /// Characterization disk-cache directory.
    pub cache_dir: PathBuf,
    /// Primary-input transition time, ps.
    pub input_slew: f64,
    /// Observability handle; request spans and `serve.*` counters are
    /// recorded into it.
    pub obs: Observer,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            char_config: CharConfig::standard(),
            cache_dir: PathBuf::from(".char-cache"),
            input_slew: 60.0,
            obs: Observer::disabled(),
        }
    }
}

/// One scenario of a resident MCMM batch, kept for the v2 `scenario`
/// selector on `paths` and `verify`.
struct BatchScenario {
    scenario: Scenario,
    certs: CertificateSet,
    digest: String,
    /// The scenario's search statistics, for its completeness verdict.
    stats: EnumerationStats,
}

/// The last `analyze_batch` result for a circuit. Computed against one
/// netlist revision and dropped by the next edit — a batch over a stale
/// revision would silently answer for a netlist that no longer exists.
struct BatchResident {
    /// The per-scenario path cap the batch ran with (`verify` re-runs
    /// with the same cap).
    n_worst: Option<usize>,
    scenarios: Vec<BatchScenario>,
}

/// Everything kept resident for one loaded circuit.
struct CircuitSession {
    tech: Technology,
    netlist: Netlist,
    tlib: Arc<TimingLibrary>,
    /// Corner kernel table: netlist-independent, survives every edit.
    kernel: Arc<CompiledCorner>,
    /// The search configuration of every cache build and update, and of
    /// `verify`'s cold run.
    search: EnumerationConfig,
    cache: SourceCache,
    /// Last spliced result and its digest (the path-set identity).
    certs: CertificateSet,
    digest: String,
    revision: u64,
    incremental_updates: u64,
    full_rebuilds: u64,
    /// Every build and update of the cache merged: once any of them hit
    /// a budget or aborted a justification call, the session stays
    /// truncated or incomplete.
    stats: EnumerationStats,
    /// Structural slack of the current revision at the default
    /// requirement.
    slack: SlackOutcome,
    /// Resident MCMM batch results, when an `analyze_batch` has run at
    /// the current revision.
    batch: Option<BatchResident>,
}

/// Looks up one scenario of the circuit's resident batch by its
/// `corner/mode` name.
fn resident_scenario<'s>(
    session: &'s CircuitSession,
    circuit: &str,
    name: &str,
) -> Result<&'s BatchScenario, String> {
    let batch = session.batch.as_ref().ok_or_else(|| {
        format!("circuit {circuit:?} has no resident batch (send an analyze_batch request first)")
    })?;
    batch
        .scenarios
        .iter()
        .find(|s| s.scenario.name() == name)
        .ok_or_else(|| {
            let have: Vec<String> = batch.scenarios.iter().map(|s| s.scenario.name()).collect();
            format!("scenario {name:?} is not in the resident batch (have {have:?})")
        })
}

/// Parses the `modes` list of an `analyze_batch` request: comma-separated
/// `name=PERIOD_PS` entries, each becoming a single-clock SDC mode.
fn parse_modes(list: &str) -> Result<Vec<Mode>, String> {
    let mut out = Vec::new();
    for item in list.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        let (name, period) = item
            .split_once('=')
            .ok_or_else(|| format!("bad mode spec {item:?} (expected name=PERIOD_PS)"))?;
        let period: f64 = period
            .trim()
            .parse()
            .map_err(|_| format!("bad mode spec {item:?} (expected name=PERIOD_PS)"))?;
        if !(period.is_finite() && period > 0.0) {
            return Err(format!("bad mode spec {item:?} (period must be positive)"));
        }
        out.push(Mode::with_sdc(
            name.trim(),
            &format!("create_clock -period {period}\n"),
        ));
    }
    if out.is_empty() {
        return Err("empty modes list (expected name=PERIOD_PS entries)".to_string());
    }
    Ok(out)
}

/// A reply's completeness verdict: whether a budget truncated the
/// search, how many justification calls aborted, and
/// [`EnumerationStats::complete`]. An untruncated answer with aborts
/// dropped the subtrees behind them, so it is not complete.
fn verdict(stats: &EnumerationStats) -> [(&'static str, Value); 3] {
    [
        ("truncated", Value::Bool(stats.truncated)),
        ("justify_aborts", Value::UInt(stats.justify_aborts)),
        ("complete", Value::Bool(stats.complete())),
    ]
}

/// Structural slack of a netlist revision, through the session's kernel.
/// A daemon request states no requirement, so the analysis facade's
/// default applies. Every edit recomputes it: a requirement inherited
/// from a previous revision would drift away from its own definition.
fn default_slack(
    nl: &Netlist,
    tlib: &TimingLibrary,
    kernel: &CompiledCorner,
    input_slew: f64,
) -> SlackOutcome {
    let bounds = static_bounds_compiled(nl, tlib, kernel, input_slew, 1.0);
    SlackOutcome::resolve(nl, bounds, None, None)
}

/// The persistent timing daemon. One instance owns every resident
/// circuit; [`Server::handle_line`] processes one protocol request.
pub struct Server {
    cfg: ServerConfig,
    lib: Library,
    /// Characterized timing libraries, resident per technology name.
    timings: HashMap<String, Arc<TimingLibrary>>,
    /// Loaded circuits in load order (order matters for the manifest).
    circuits: Vec<(String, CircuitSession)>,
    requests: u64,
    errors: u64,
    /// Set once a `shutdown` request has been acknowledged.
    shutting_down: bool,
}

impl Server {
    /// Creates an empty daemon session.
    pub fn new(cfg: ServerConfig) -> Self {
        Server {
            cfg,
            lib: Library::standard(),
            timings: HashMap::new(),
            circuits: Vec::new(),
            requests: 0,
            errors: 0,
            shutting_down: false,
        }
    }

    /// Processes one request line and returns `(response line, shutdown)`.
    /// Responses are single-line JSON objects; protocol errors become
    /// `{"ok": false, "error": ...}` responses, never a dead connection.
    pub fn handle_line(&mut self, line: &str) -> (String, bool) {
        self.requests += 1;
        self.cfg.obs.counter("serve.requests").add(1);
        let (id, parsed) = parse_request(line);
        let (reply, shutdown) = match parsed {
            Ok(req) => {
                let op = op_name(&req);
                let span = self
                    .cfg
                    .obs
                    .span_with("serve-request", vec![("op", op.to_string())]);
                let outcome = self.dispatch(req);
                drop(span);
                match outcome {
                    Ok((mut fields, shutdown)) => {
                        let mut all = vec![("ok", Value::Bool(true)), ("op", jstr(op))];
                        if let Some(id) = id {
                            all.push(("id", id));
                        }
                        all.append(&mut fields);
                        (jmap(all), shutdown)
                    }
                    Err(msg) => (self.error_reply(Some(op), id, msg), false),
                }
            }
            Err(msg) => (self.error_reply(None, id, msg), false),
        };
        let text = serde_json::to_string(&reply).expect("responses always serialize");
        (text, shutdown)
    }

    fn error_reply(&mut self, op: Option<&str>, id: Option<Value>, msg: String) -> Value {
        self.errors += 1;
        self.cfg.obs.counter("serve.errors").add(1);
        let mut fields = vec![("ok", Value::Bool(false))];
        if let Some(op) = op {
            fields.push(("op", jstr(op)));
        }
        if let Some(id) = id {
            fields.push(("id", id));
        }
        fields.push(("error", jstr(msg)));
        jmap(fields)
    }

    fn dispatch(&mut self, req: Request) -> DispatchReply {
        match req {
            Request::Load {
                circuit,
                tech,
                n_worst,
                threads,
            } => self
                .op_load(&circuit, &tech, n_worst, threads)
                .map(|f| (f, false)),
            Request::Edit { circuit, kind } => self.op_edit(&circuit, &kind).map(|f| (f, false)),
            Request::AnalyzeBatch {
                circuit,
                corners,
                modes,
                n_worst,
                batch_threads,
            } => self
                .op_analyze_batch(
                    &circuit,
                    corners.as_deref(),
                    modes.as_deref(),
                    n_worst,
                    batch_threads,
                )
                .map(|f| (f, false)),
            Request::Paths {
                circuit,
                limit,
                scenario,
            } => self
                .op_paths(&circuit, limit, scenario.as_deref())
                .map(|f| (f, false)),
            Request::Slack { circuit } => self.op_slack(&circuit).map(|f| (f, false)),
            Request::Verify { circuit, scenario } => self
                .op_verify(&circuit, scenario.as_deref())
                .map(|f| (f, false)),
            Request::Audit { circuit } => self.op_audit(circuit.as_deref()).map(|f| (f, false)),
            Request::Status => Ok((self.op_status(), false)),
            Request::Shutdown => {
                self.shutting_down = true;
                Ok((self.op_status(), true))
            }
        }
    }

    fn session(&self, circuit: &str) -> Result<&CircuitSession, String> {
        self.circuits
            .iter()
            .find(|(name, _)| name == circuit)
            .map(|(_, s)| s)
            .ok_or_else(|| format!("circuit {circuit:?} is not loaded (send a load request first)"))
    }

    fn session_mut(&mut self, circuit: &str) -> Result<&mut CircuitSession, String> {
        self.circuits
            .iter_mut()
            .find(|(name, _)| name == circuit)
            .map(|(_, s)| s)
            .ok_or_else(|| format!("circuit {circuit:?} is not loaded (send a load request first)"))
    }

    fn timing_for(&mut self, tech: &Technology) -> Result<Arc<TimingLibrary>, String> {
        if let Some(t) = self.timings.get(&tech.name) {
            return Ok(Arc::clone(t));
        }
        let tlib = characterize_cached(&self.lib, tech, &self.cfg.char_config, &self.cfg.cache_dir)
            .map_err(|e| format!("characterization failed: {e}"))?;
        let tlib = Arc::new(tlib);
        self.timings.insert(tech.name.clone(), Arc::clone(&tlib));
        Ok(tlib)
    }

    fn op_load(
        &mut self,
        circuit: &str,
        tech_name: &str,
        n_worst: Option<usize>,
        threads: usize,
    ) -> Result<Vec<(&'static str, Value)>, String> {
        let tech = Technology::by_name(tech_name)
            .ok_or_else(|| format!("unknown technology {tech_name:?}"))?;
        let netlist = catalog::mapped(circuit, &self.lib)
            .map_err(|e| format!("mapping {circuit:?} failed: {e}"))?
            .ok_or_else(|| format!("unknown benchmark {circuit:?}"))?;
        let tlib = self.timing_for(&tech)?;
        let mut search = EnumerationConfig::new(Corner::nominal(&tech)).with_threads(threads);
        if let Some(n) = n_worst {
            search = search.with_n_worst(n);
        }
        search.input_slew = self.cfg.input_slew;
        let enumr = PathEnumerator::new(&netlist, &self.lib, &tlib, search.clone());
        let (cache, stats) = SourceCache::build(&enumr);
        let kernel = enumr.kernel_arc();
        drop(enumr);
        let certs = CertificateSet::new(&netlist, self.cfg.input_slew, cache.splice());
        let digest = digest_string(certs.to_json().as_bytes());
        let slack = default_slack(&netlist, &tlib, &kernel, search.input_slew);
        let session = CircuitSession {
            tech,
            netlist,
            tlib,
            kernel,
            search,
            cache,
            certs,
            digest,
            revision: 0,
            incremental_updates: 0,
            full_rebuilds: 0,
            stats,
            slack,
            batch: None,
        };
        self.cfg.obs.counter("serve.loads").add(1);

        let mut fields = vec![
            ("circuit", jstr(circuit)),
            ("tech", jstr(session.tech.name.clone())),
            ("revision", Value::UInt(session.revision)),
            ("num_gates", Value::UInt(session.netlist.num_gates() as u64)),
            ("paths", Value::UInt(session.certs.paths.len() as u64)),
            ("digest", jstr(session.digest.clone())),
            (
                "structural_worst_ps",
                Value::Float(session.slack.structural_worst),
            ),
            ("required_ps", Value::Float(session.slack.required)),
        ];
        fields.extend(verdict(&session.stats));
        // Reloading replaces the previous session of the same name.
        self.circuits.retain(|(name, _)| name != circuit);
        self.circuits.push((circuit.to_string(), session));
        Ok(fields)
    }

    fn op_edit(
        &mut self,
        circuit: &str,
        kind: &EditKind,
    ) -> Result<Vec<(&'static str, Value)>, String> {
        let input_slew = self.cfg.input_slew;
        let lib = self.lib.clone();
        let obs = self.cfg.obs.clone();
        let session = self.session_mut(circuit)?;
        let edit: GateEdit = match kind {
            EditKind::Swap { instance, cell } => {
                swap_gate(&mut session.netlist, &lib, instance, cell)
            }
            EditKind::Resize { instance } => resize_gate(&mut session.netlist, &lib, instance),
            EditKind::Rewire { instance, pin, net } => {
                rewire_net(&mut session.netlist, instance, *pin, net)
            }
        }
        .map_err(|e| format!("edit rejected: {e}"))?;
        session.revision += 1;
        // Any resident batch was computed against the pre-edit netlist.
        session.batch = None;

        let dirty = dirty_sources(&session.netlist, &edit);
        let n_dirty = dirty.iter().filter(|&&d| d).count();
        let n_sources = dirty.len();
        if edit.function_changed {
            session.full_rebuilds += 1;
            obs.counter("serve.full_rebuilds").add(1);
        } else {
            session.incremental_updates += 1;
            obs.counter("serve.incremental_updates").add(1);
        }

        // The netlist changed; the corner kernel did not (it depends only
        // on (timing library, corner)).
        let cfg = session.search.clone().with_source_filter(Arc::new(dirty));
        let searched = {
            let enumr = PathEnumerator::with_prebuilt(
                &session.netlist,
                &lib,
                &session.tlib,
                cfg,
                session.kernel.clone(),
                None,
            );
            let (stats, searched) = session.cache.update_searched(&enumr);
            session.stats.merge(&stats);
            searched.iter().filter(|&&s| s).count()
        };
        session.certs = CertificateSet::new(&session.netlist, input_slew, session.cache.splice());
        session.digest = digest_string(session.certs.to_json().as_bytes());
        session.slack = default_slack(
            &session.netlist,
            &session.tlib,
            &session.kernel,
            session.search.input_slew,
        );

        let mut fields = vec![
            ("circuit", jstr(circuit)),
            ("revision", Value::UInt(session.revision)),
            ("function_changed", Value::Bool(edit.function_changed)),
            ("dirty_sources", Value::UInt(n_dirty as u64)),
            ("searched_sources", Value::UInt(searched as u64)),
            ("total_sources", Value::UInt(n_sources as u64)),
            ("paths", Value::UInt(session.certs.paths.len() as u64)),
            ("digest", jstr(session.digest.clone())),
            (
                "structural_worst_ps",
                Value::Float(session.slack.structural_worst),
            ),
            ("required_ps", Value::Float(session.slack.required)),
        ];
        fields.extend(verdict(&session.stats));
        Ok(fields)
    }

    /// Runs an MCMM batch over the resident netlist revision: one
    /// scenario per (corner, mode) cell, scenario-invariant preparation
    /// shared across the matrix (see `sta_core::mcmm`). The per-scenario
    /// certificate sets stay resident for the v2 `scenario` selector on
    /// `paths` and `verify` until the next edit.
    fn op_analyze_batch(
        &mut self,
        circuit: &str,
        corners: Option<&str>,
        modes: Option<&str>,
        n_worst: Option<usize>,
        batch_threads: usize,
    ) -> Result<Vec<(&'static str, Value)>, String> {
        let cfg = self.cfg.clone();
        let session = self.session(circuit)?;
        // Every scenario job runs its own pool of the session's workers.
        let threads = session.search.threads;
        if batch_threads * threads > MAX_THREADS {
            return Err(format!(
                "batch_threads {batch_threads} times the session's threads {threads} \
                 exceeds {MAX_THREADS} worker threads"
            ));
        }
        let corner_defs = match corners {
            Some(list) => CornerDef::parse_list(list, &session.tech)
                .map_err(|e| format!("bad corners list: {e}"))?,
            None => vec![CornerDef::nominal(session.tech.clone())],
        };
        let mode_defs = match modes {
            Some(list) => parse_modes(list)?,
            None => vec![Mode::unconstrained()],
        };
        let revision = session.revision;
        let req = AnalysisRequest::new(circuit)
            .with_netlist(session.netlist.clone())
            .scenarios(Scenario::matrix(&corner_defs, &mode_defs))
            .n_worst(n_worst)
            .threads(threads)
            .batch_threads(batch_threads)
            .input_slew(cfg.input_slew)
            .char_config(cfg.char_config)
            .cache_dir(cfg.cache_dir)
            .observer(cfg.obs.clone());
        let batch = req
            .run_batch()
            .map_err(|e| format!("batch analysis failed: {e}"))?;

        let mut rows = Vec::new();
        let mut resident = Vec::new();
        let mut total = EnumerationStats::default();
        for (i, s) in batch.scenarios.iter().enumerate() {
            let certs = batch.certificates(i);
            let digest = digest_string(certs.to_json().as_bytes());
            let worst_slack = batch
                .netlist
                .outputs()
                .iter()
                .map(|&o| s.slack.of(o))
                .fold(f64::INFINITY, f64::min);
            total.merge(&s.stats);
            let mut row = vec![
                ("scenario", jstr(s.scenario.name())),
                ("tech", jstr(s.scenario.corner.tech.name.clone())),
                ("paths", Value::UInt(s.paths.len() as u64)),
                ("required_ps", Value::Float(s.required)),
                ("worst_slack_ps", Value::Float(worst_slack)),
                ("passes", Value::Bool(worst_slack >= 0.0)),
                ("digest", jstr(digest.clone())),
            ];
            row.extend(verdict(&s.stats));
            rows.push(jmap(row));
            resident.push(BatchScenario {
                scenario: s.scenario.clone(),
                certs,
                digest,
                stats: s.stats,
            });
        }
        let merged_worst = batch
            .merged
            .worst()
            .map(|e| {
                jmap(vec![
                    ("output", jstr(e.output.clone())),
                    ("slack_ps", Value::Float(e.slack)),
                    ("scenario", jstr(e.scenario.clone())),
                ])
            })
            .unwrap_or(Value::Null);
        let mut fields = vec![
            ("circuit", jstr(circuit)),
            ("revision", Value::UInt(revision)),
            ("scenarios", Value::UInt(batch.scenarios.len() as u64)),
            ("results", Value::Seq(rows)),
            ("merged_worst", merged_worst),
            ("passes", Value::Bool(batch.merged.passes())),
            ("elapsed_s", Value::Float(batch.elapsed_s)),
        ];
        fields.extend(verdict(&total));
        self.cfg.obs.counter("serve.batches").add(1);
        self.cfg
            .obs
            .counter("serve.batch_scenarios")
            .add(batch.scenarios.len() as u64);
        self.session_mut(circuit)?.batch = Some(BatchResident {
            n_worst,
            scenarios: resident,
        });
        Ok(fields)
    }

    fn op_paths(
        &mut self,
        circuit: &str,
        limit: usize,
        scenario: Option<&str>,
    ) -> Result<Vec<(&'static str, Value)>, String> {
        let session = self.session(circuit)?;
        let (paths, mut extra): (&[TruePath], Vec<(&'static str, Value)>) = match scenario {
            Some(name) => {
                let sc = resident_scenario(session, circuit, name)?;
                (
                    &sc.certs.paths,
                    vec![
                        ("scenario", jstr(name)),
                        ("digest", jstr(sc.digest.clone())),
                    ],
                )
            }
            None => (&session.certs.paths, Vec::new()),
        };
        let worst: Vec<Value> = paths
            .iter()
            .take(limit)
            .enumerate()
            .map(|(i, p)| {
                jmap(vec![
                    ("rank", Value::UInt(i as u64 + 1)),
                    ("arrival_ps", Value::Float(p.worst_arrival())),
                    ("gates", Value::UInt(p.arcs.len() as u64)),
                    ("source", jstr(session.netlist.net_label(p.source))),
                    ("endpoint", jstr(session.netlist.net_label(p.endpoint()))),
                ])
            })
            .collect();
        let mut fields = vec![
            ("circuit", jstr(circuit)),
            ("revision", Value::UInt(session.revision)),
            ("paths", Value::UInt(paths.len() as u64)),
        ];
        fields.append(&mut extra);
        fields.push(("worst_paths", Value::Seq(worst)));
        Ok(fields)
    }

    fn op_slack(&mut self, circuit: &str) -> Result<Vec<(&'static str, Value)>, String> {
        let session = self.session(circuit)?;
        let report = &session.slack.report;
        Ok(vec![
            ("circuit", jstr(circuit)),
            ("revision", Value::UInt(session.revision)),
            (
                "structural_worst_ps",
                Value::Float(session.slack.structural_worst),
            ),
            ("required_ps", Value::Float(session.slack.required)),
            ("required_source", jstr("default")),
            ("passes", Value::Bool(report.passes())),
            ("violations", Value::UInt(report.violations().len() as u64)),
        ])
    }

    /// The splice-identity proof as a service: cold re-run the current
    /// netlist revision with the session's search configuration and
    /// compare certificate digests. `identical` is the proof verdict;
    /// truncation on either side voids it, and the completeness verdict
    /// covers both sides (reported honestly). With a
    /// `scenario` selector the same proof runs against one resident batch
    /// scenario instead: an independent single-scenario re-run must
    /// reproduce the batch's certificate bytes.
    fn op_verify(
        &mut self,
        circuit: &str,
        scenario: Option<&str>,
    ) -> Result<Vec<(&'static str, Value)>, String> {
        if let Some(name) = scenario {
            return self.op_verify_scenario(circuit, name);
        }
        let input_slew = self.cfg.input_slew;
        let lib = self.lib.clone();
        let session = self.session(circuit)?;
        let (paths, stats) = PathEnumerator::with_prebuilt(
            &session.netlist,
            &lib,
            &session.tlib,
            session.search.clone(),
            Arc::clone(&session.kernel),
            None,
        )
        .run();
        let cold = CertificateSet::new(&session.netlist, input_slew, paths);
        let cold_digest = digest_string(cold.to_json().as_bytes());
        let identical = cold_digest == session.digest;
        self.cfg
            .obs
            .counter(if identical {
                "serve.verify_ok"
            } else {
                "serve.verify_mismatch"
            })
            .add(1);
        let session = self.session(circuit)?;
        let mut both = session.stats;
        both.merge(&stats);
        let mut fields = vec![
            ("circuit", jstr(circuit)),
            ("revision", Value::UInt(session.revision)),
            ("identical", Value::Bool(identical)),
            ("spliced_digest", jstr(session.digest.clone())),
            ("cold_digest", jstr(cold_digest)),
        ];
        fields.extend(verdict(&both));
        Ok(fields)
    }

    /// The batch-identity proof for one resident scenario: re-runs it as
    /// an independent single-scenario analysis (same netlist revision,
    /// same path cap) and compares certificate digests.
    fn op_verify_scenario(
        &mut self,
        circuit: &str,
        name: &str,
    ) -> Result<Vec<(&'static str, Value)>, String> {
        let cfg = self.cfg.clone();
        let session = self.session(circuit)?;
        let sc = resident_scenario(session, circuit, name)?;
        let batch_digest = sc.digest.clone();
        let mut both = sc.stats;
        let revision = session.revision;
        let req = AnalysisRequest::new(circuit)
            .with_netlist(session.netlist.clone())
            .scenario(sc.scenario.clone())
            .n_worst(session.batch.as_ref().expect("resident checked").n_worst)
            .threads(session.search.threads)
            .input_slew(cfg.input_slew)
            .char_config(cfg.char_config)
            .cache_dir(cfg.cache_dir);
        let single = req
            .run()
            .map_err(|e| format!("verification run failed: {e}"))?;
        let cold = CertificateSet::new(&single.netlist, single.input_slew, single.paths);
        let cold_digest = digest_string(cold.to_json().as_bytes());
        let identical = cold_digest == batch_digest;
        self.cfg
            .obs
            .counter(if identical {
                "serve.verify_ok"
            } else {
                "serve.verify_mismatch"
            })
            .add(1);
        both.merge(&single.stats);
        let mut fields = vec![
            ("circuit", jstr(circuit)),
            ("revision", Value::UInt(revision)),
            ("scenario", jstr(name)),
            ("identical", Value::Bool(identical)),
            ("batch_digest", jstr(batch_digest)),
            ("cold_digest", jstr(cold_digest)),
        ];
        fields.extend(verdict(&both));
        Ok(fields)
    }

    /// The whole-flow soundness audit as a service: runs the shared
    /// `sta-lint` flow leg (interval enclosure of the resident
    /// certificates, structural dominance of the interval hull, and the
    /// ECO002 cache invariants) over the resident circuits, without
    /// disturbing any resident state.
    fn op_audit(&mut self, circuit: Option<&str>) -> Result<Vec<(&'static str, Value)>, String> {
        let input_slew = self.cfg.input_slew;
        let obs = &self.cfg.obs;
        sta_lint::register_audit_metrics(obs);
        obs.counter("serve.audits").add(1);
        obs.counter("audit.flow_runs").add(1);
        let names: Vec<String> = match circuit {
            Some(c) => {
                self.session(c)?; // fail fast on an unloaded circuit
                vec![c.to_string()]
            }
            None => self.circuits.iter().map(|(n, _)| n.clone()).collect(),
        };
        let mut report = sta_lint::LintReport::new();
        let mut certificates = 0u64;
        let mut enclosed = 0u64;
        for name in &names {
            let session = self.session(name)?;
            let arcs = arc_intervals_compiled(
                &session.netlist,
                &session.tlib,
                &session.kernel,
                input_slew,
                ARC_SWEEP_MARGIN,
            );
            let st = static_bounds_compiled(
                &session.netlist,
                &session.tlib,
                &session.kernel,
                input_slew,
                session.search.prune_margin,
            );
            let outcome = sta_lint::audit_flow(
                sta_lint::FlowAuditInput {
                    circuit: name,
                    netlist: &session.netlist,
                    arcs: &arcs,
                    static_timing: &st,
                    certs: &session.certs,
                    cache: &session.cache,
                    // The splice identity only holds untruncated; the
                    // structural slot invariants always hold.
                    check_splice: !session.stats.truncated,
                    input_slew,
                },
                obs,
            );
            certificates += outcome.certificates as u64;
            enclosed += outcome.enclosed as u64;
            report.extend(outcome.diagnostics);
        }
        let errors = report.count(sta_lint::Severity::Error) as u64;
        let warnings = report.count(sta_lint::Severity::Warn) as u64;
        const MAX_FINDINGS: usize = 20;
        let findings: Vec<Value> = report
            .diagnostics
            .iter()
            .take(MAX_FINDINGS)
            .map(|d| jstr(d.to_string()))
            .collect();
        Ok(vec![
            ("circuits", Value::UInt(names.len() as u64)),
            ("certificates", Value::UInt(certificates)),
            ("enclosed", Value::UInt(enclosed)),
            ("errors", Value::UInt(errors)),
            ("warnings", Value::UInt(warnings)),
            (
                "findings_truncated",
                Value::Bool(report.diagnostics.len() > MAX_FINDINGS),
            ),
            ("findings", Value::Seq(findings)),
        ])
    }

    fn op_status(&self) -> Vec<(&'static str, Value)> {
        let manifest = self.manifest();
        let doc: Value = serde_json::from_str(&manifest.to_json())
            .expect("session manifests round-trip through JSON");
        vec![("session", doc)]
    }

    /// The session manifest at this instant (also embedded in `status`
    /// and `shutdown` responses).
    pub fn manifest(&self) -> SessionManifest {
        let circuits = self
            .circuits
            .iter()
            .map(|(name, s)| SessionCircuit {
                circuit: name.clone(),
                revision: s.revision,
                incremental_updates: s.incremental_updates,
                full_rebuilds: s.full_rebuilds,
                path_digest: (!s.digest.is_empty()).then(|| s.digest.clone()),
            })
            .collect();
        SessionManifest::new(self.requests, self.errors, circuits, &self.cfg.obs)
    }
}

fn op_name(req: &Request) -> &'static str {
    match req {
        Request::Load { .. } => "load",
        Request::Edit { .. } => "edit",
        Request::AnalyzeBatch { .. } => "analyze_batch",
        Request::Paths { .. } => "paths",
        Request::Slack { .. } => "slack",
        Request::Verify { .. } => "verify",
        Request::Audit { .. } => "audit",
        Request::Status => "status",
        Request::Shutdown => "shutdown",
    }
}

/// Runs the request loop over arbitrary line-based transports. Returns
/// the number of requests served.
///
/// # Errors
///
/// Propagates transport I/O errors; protocol-level problems are answered
/// in-band and never abort the loop.
pub fn serve_lines(
    server: &mut Server,
    reader: impl BufRead,
    mut writer: impl Write,
) -> std::io::Result<u64> {
    let mut served = 0;
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let (reply, shutdown) = server.handle_line(&line);
        writer.write_all(reply.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        served += 1;
        if shutdown {
            break;
        }
    }
    Ok(served)
}

/// Serves requests from stdin to stdout until `shutdown` or EOF.
///
/// # Errors
///
/// Propagates stdin/stdout I/O errors.
pub fn serve_stdio(server: &mut Server) -> std::io::Result<u64> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    serve_lines(server, stdin.lock(), stdout.lock())
}

/// Binds a Unix socket at `path` and serves connections sequentially
/// until a client sends `shutdown`. The socket file is removed on exit.
///
/// # Errors
///
/// Propagates bind/accept/transport I/O errors.
#[cfg(unix)]
pub fn serve_socket(server: &mut Server, path: &std::path::Path) -> std::io::Result<u64> {
    use std::os::unix::net::UnixListener;
    // A stale socket file from a crashed session blocks bind; remove it.
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    let mut served = 0;
    loop {
        let (stream, _) = listener.accept()?;
        let reader = std::io::BufReader::new(stream.try_clone()?);
        let before = server.requests;
        serve_lines(server, reader, &stream)?;
        served += server.requests - before;
        // serve_lines returns on EOF (client hung up) or shutdown; only
        // shutdown ends the session.
        if server.shutting_down {
            break;
        }
    }
    let _ = std::fs::remove_file(path);
    Ok(served)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sta_netlist::GateId;

    fn fast_server() -> Server {
        Server::new(ServerConfig {
            char_config: CharConfig::fast(),
            cache_dir: std::env::temp_dir().join("sta-serve-test-cache"),
            input_slew: 60.0,
            obs: Observer::enabled(),
        })
    }

    fn reply(server: &mut Server, line: &str) -> Value {
        let (text, _) = server.handle_line(line);
        serde_json::from_str(&text).expect("responses are valid JSON")
    }

    fn get<'a>(doc: &'a Value, key: &str) -> &'a Value {
        let Value::Map(map) = doc else {
            panic!("response is not an object")
        };
        map.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("response has no {key:?} field: {doc:?}"))
    }

    fn assert_ok(doc: &Value) {
        assert_eq!(get(doc, "ok"), &Value::Bool(true), "error reply: {doc:?}");
    }

    /// Parsed responses carry small numbers as `Int`; responses built
    /// in-process carry them as `UInt`. Compare by value.
    fn as_u64(v: &Value) -> u64 {
        match v {
            Value::Int(i) => u64::try_from(*i).expect("negative count"),
            Value::UInt(u) => *u,
            other => panic!("not an integer: {other:?}"),
        }
    }

    /// An instance name usable in edit requests against mapped c17.
    fn c17_instance(lib: &Library) -> String {
        let nl = catalog::mapped("c17", lib).unwrap().unwrap();
        nl.net_label(nl.gate(GateId::from_index(2)).output())
    }

    fn float(doc: &Value, key: &str) -> f64 {
        match get(doc, key) {
            Value::Float(f) => *f,
            other => panic!("{key} is {other:?}"),
        }
    }

    /// Asserts that a reply's `required_ps` and `structural_worst_ps` are,
    /// bit for bit, what the analysis facade computes for `nl` (the test's
    /// own copy of the server's netlist revision).
    fn assert_facade_slack(server: &Server, doc: &Value, nl: &Netlist) {
        let facade = AnalysisRequest::new("c17")
            .with_netlist(nl.clone())
            .input_slew(server.cfg.input_slew)
            .char_config(server.cfg.char_config.clone())
            .cache_dir(server.cfg.cache_dir.clone())
            .prepare()
            .unwrap()
            .slack();
        assert_eq!(
            float(doc, "required_ps").to_bits(),
            facade.required.to_bits()
        );
        assert_eq!(
            float(doc, "structural_worst_ps").to_bits(),
            facade.structural_worst.to_bits()
        );
    }

    #[test]
    fn load_edit_verify_session_round_trip() {
        let mut server = fast_server();
        let inst = c17_instance(&server.lib);

        let loaded = reply(
            &mut server,
            r#"{"id":1,"op":"load","circuit":"c17","nworst":10}"#,
        );
        assert_ok(&loaded);
        assert_eq!(as_u64(get(&loaded, "id")), 1);
        assert_eq!(as_u64(get(&loaded, "revision")), 0);
        assert_eq!(get(&loaded, "complete"), &Value::Bool(true));
        assert_eq!(as_u64(get(&loaded, "justify_aborts")), 0);
        let digest0 = get(&loaded, "digest").clone();

        // Before any edit, the cache already matches a cold run.
        let verified = reply(&mut server, r#"{"op":"verify","circuit":"c17"}"#);
        assert_ok(&verified);
        assert_eq!(get(&verified, "identical"), &Value::Bool(true));

        // A resize is delay-only: incremental, and it must not dirty
        // every source nor change the netlist function.
        let edited = reply(
            &mut server,
            &format!(r#"{{"op":"edit","circuit":"c17","kind":"resize","instance":"{inst}"}}"#),
        );
        assert_ok(&edited);
        assert_eq!(as_u64(get(&edited, "revision")), 1);
        assert_eq!(get(&edited, "function_changed"), &Value::Bool(false));
        assert_eq!(get(&edited, "complete"), &Value::Bool(true));
        assert_ne!(get(&edited, "digest"), &digest0);

        // The spliced result is digest-identical to a cold re-run of the
        // edited netlist: the proof obligation, checked in-band.
        let verified = reply(&mut server, r#"{"op":"verify","circuit":"c17"}"#);
        assert_ok(&verified);
        assert_eq!(get(&verified, "identical"), &Value::Bool(true));
        assert_eq!(get(&verified, "truncated"), &Value::Bool(false));
        assert_eq!(get(&verified, "complete"), &Value::Bool(true));

        let paths = reply(&mut server, r#"{"op":"paths","circuit":"c17","limit":3}"#);
        assert_ok(&paths);
        let Value::Seq(worst) = get(&paths, "worst_paths") else {
            panic!("worst_paths is not an array")
        };
        assert_eq!(worst.len(), 3);

        let slack = reply(&mut server, r#"{"op":"slack","circuit":"c17"}"#);
        assert_ok(&slack);
        let mut nl = catalog::mapped("c17", &server.lib).unwrap().unwrap();
        resize_gate(&mut nl, &server.lib, &inst).unwrap();
        assert_facade_slack(&server, &slack, &nl);

        let status = reply(&mut server, r#"{"op":"status"}"#);
        assert_ok(&status);
        let manifest =
            SessionManifest::from_json(&serde_json::to_string(get(&status, "session")).unwrap())
                .unwrap();
        assert_eq!(manifest.circuits.len(), 1);
        assert_eq!(manifest.circuits[0].revision, 1);
        assert_eq!(manifest.circuits[0].incremental_updates, 1);
        assert_eq!(manifest.circuits[0].full_rebuilds, 0);
    }

    /// A c432 N=50 session is complete and exact: the load is one global
    /// run and every edit searches under the global threshold, seeded by
    /// the clean sources, so no reply makes a justification call that the
    /// cold global search does not make, and every digest is a cold run's.
    #[test]
    fn c432_nworst_session_is_complete_and_matches_cold_runs() {
        let mut server = fast_server();
        let complete = |doc: &Value| {
            assert_ok(doc);
            assert_eq!(as_u64(get(doc, "justify_aborts")), 0, "{doc:?}");
            assert_eq!(get(doc, "complete"), &Value::Bool(true), "{doc:?}");
        };
        let loaded = reply(&mut server, r#"{"op":"load","circuit":"c432","nworst":50}"#);
        complete(&loaded);
        for inst in ["n217", "n251"] {
            let edited = reply(
                &mut server,
                &format!(r#"{{"op":"edit","circuit":"c432","kind":"resize","instance":"{inst}"}}"#),
            );
            complete(&edited);
            let (dirty, searched) = (
                as_u64(get(&edited, "dirty_sources")),
                as_u64(get(&edited, "searched_sources")),
            );
            assert!(
                dirty <= searched && searched <= as_u64(get(&edited, "total_sources")),
                "{edited:?}"
            );
            let verified = reply(&mut server, r#"{"op":"verify","circuit":"c432"}"#);
            complete(&verified);
            assert_eq!(get(&verified, "identical"), &Value::Bool(true));
        }
    }

    /// c432's full enumeration aborts 3 justification calls at the
    /// default per-call cap (`tests/nworst_referee.rs` lifts the cap for
    /// that reason). No budget trips, so the reply is untruncated, and it
    /// must still not read as complete. Release-only: the unoptimized
    /// full enumeration is slow.
    #[cfg(not(debug_assertions))]
    #[test]
    fn aborted_justification_makes_a_load_incomplete() {
        let mut server = fast_server();
        let loaded = reply(&mut server, r#"{"op":"load","circuit":"c432"}"#);
        assert_ok(&loaded);
        assert_eq!(get(&loaded, "truncated"), &Value::Bool(false));
        assert_eq!(as_u64(get(&loaded, "justify_aborts")), 3);
        assert_eq!(get(&loaded, "complete"), &Value::Bool(false));
    }

    #[test]
    fn required_default_is_recomputed_after_each_edit() {
        let mut server = fast_server();
        let mut nl = catalog::mapped("c17", &server.lib).unwrap().unwrap();
        let instances: Vec<String> = nl
            .gate_ids()
            .map(|g| nl.net_label(nl.gate(g).output()))
            .collect();
        assert_ok(&reply(
            &mut server,
            r#"{"op":"load","circuit":"c17","nworst":5}"#,
        ));
        let before = reply(&mut server, r#"{"op":"slack","circuit":"c17"}"#);
        assert_facade_slack(&server, &before, &nl);
        // Resize every gate: doubled widths double every input cap, so
        // every arrival — including the structural worst — moves.
        for inst in &instances {
            let edited = reply(
                &mut server,
                &format!(r#"{{"op":"edit","circuit":"c17","kind":"resize","instance":"{inst}"}}"#),
            );
            assert_ok(&edited);
            // After every single edit the default requirement tracks the
            // *edited* netlist's structural worst, never a stale one.
            resize_gate(&mut nl, &server.lib, inst).unwrap();
            assert_facade_slack(&server, &edited, &nl);
        }
        let after = reply(&mut server, r#"{"op":"slack","circuit":"c17"}"#);
        assert_ne!(float(&before, "required_ps"), float(&after, "required_ps"));
        assert_facade_slack(&server, &after, &nl);
    }

    #[test]
    fn protocol_errors_are_answered_in_band() {
        let mut server = fast_server();
        let bad = reply(&mut server, "not json at all");
        assert_eq!(get(&bad, "ok"), &Value::Bool(false));
        let not_loaded = reply(&mut server, r#"{"op":"paths","circuit":"c880"}"#);
        assert_eq!(get(&not_loaded, "ok"), &Value::Bool(false));
        assert!(matches!(get(&not_loaded, "error"), Value::Str(s) if s.contains("not loaded")));
        let unknown = reply(&mut server, r#"{"op":"load","circuit":"c99999"}"#);
        assert_eq!(get(&unknown, "ok"), &Value::Bool(false));
        let manifest = server.manifest();
        assert_eq!(manifest.requests, 3);
        assert_eq!(manifest.errors, 3);
    }

    /// A refused request object echoes its `id`, whatever refused it, so
    /// a pipelining client can match the refusal to its request; a line
    /// that is not an object has no `id` to echo.
    #[test]
    fn refusals_echo_the_request_id() {
        let mut server = fast_server();
        for (line, why) in [
            (
                r#"{"id":6,"op":"paths","circuit":"c17","bogus":1}"#,
                "unexpected property",
            ),
            (
                r#"{"id":6,"op":"load","circuit":"c17","nworst":0}"#,
                "/nworst: 0 below minimum 1",
            ),
            (
                r#"{"id":6,"op":"status","schema_version":1}"#,
                "unsupported schema_version 1",
            ),
        ] {
            let refused = reply(&mut server, line);
            assert_eq!(get(&refused, "ok"), &Value::Bool(false), "{line}");
            assert_eq!(as_u64(get(&refused, "id")), 6, "{line}");
            assert!(matches!(get(&refused, "error"), Value::Str(s) if s.contains(why)));
        }
        for line in [r#"{"id":6,"op":"status""#, r#"[{"id":6}]"#] {
            let Value::Map(fields) = reply(&mut server, line) else {
                panic!("reply is not an object")
            };
            assert!(fields.iter().all(|(k, _)| k != "id"), "{line}: {fields:?}");
        }
    }

    /// `nworst: 0`, zero or oversized thread counts, a batch whose
    /// `batch_threads` times the session's `threads` exceeds
    /// `MAX_THREADS`, a zero `limit`, a non-finite corner supply and a
    /// pinned retired schema version get an in-band error, and the
    /// session keeps answering: the next load and batch succeed.
    #[test]
    fn rejected_requests_leave_the_session_serving() {
        let mut server = fast_server();
        let zero = reply(&mut server, r#"{"op":"load","circuit":"c17","nworst":0}"#);
        assert_eq!(get(&zero, "ok"), &Value::Bool(false));
        assert!(matches!(get(&zero, "error"), Value::Str(s) if s.contains("nworst")));
        let too_many = MAX_THREADS + 1;
        for (line, field) in [
            (
                r#"{"op":"load","circuit":"c17","threads":0}"#.to_string(),
                "threads",
            ),
            (
                format!(r#"{{"op":"load","circuit":"c17","threads":{too_many}}}"#),
                "threads",
            ),
            (
                r#"{"op":"analyze_batch","circuit":"c17","batch_threads":0}"#.to_string(),
                "batch_threads",
            ),
            (
                format!(r#"{{"op":"analyze_batch","circuit":"c17","batch_threads":{too_many}}}"#),
                "batch_threads",
            ),
            (
                r#"{"op":"paths","circuit":"c17","limit":0}"#.to_string(),
                "limit",
            ),
        ] {
            let refused = reply(&mut server, &line);
            assert_eq!(get(&refused, "ok"), &Value::Bool(false), "{line}");
            assert!(
                matches!(get(&refused, "error"), Value::Str(s) if s.contains(field)),
                "{line}: {refused:?}"
            );
        }
        assert_ok(&reply(
            &mut server,
            r#"{"op":"load","circuit":"c17","nworst":5,"threads":2}"#,
        ));
        // Each of the 33 scenario jobs would start the session's 2 workers.
        let product = reply(
            &mut server,
            r#"{"op":"analyze_batch","circuit":"c17","batch_threads":33}"#,
        );
        assert_eq!(get(&product, "ok"), &Value::Bool(false));
        assert!(
            matches!(get(&product, "error"), Value::Str(s) if s.contains("batch_threads 33") && s.contains("threads 2")),
            "{product:?}"
        );
        assert_ok(&reply(
            &mut server,
            r#"{"op":"analyze_batch","circuit":"c17","nworst":5,"batch_threads":2}"#,
        ));

        let zero = reply(
            &mut server,
            r#"{"op":"analyze_batch","circuit":"c17","nworst":0}"#,
        );
        assert_eq!(get(&zero, "ok"), &Value::Bool(false));
        let infinite_vdd = reply(
            &mut server,
            r#"{"op":"analyze_batch","circuit":"c17","corners":"75,inf"}"#,
        );
        assert_eq!(get(&infinite_vdd, "ok"), &Value::Bool(false));
        assert!(matches!(get(&infinite_vdd, "error"), Value::Str(s) if s.contains("bad corner")));
        let v1 = reply(
            &mut server,
            r#"{"op":"paths","circuit":"c17","schema_version":1}"#,
        );
        assert_eq!(get(&v1, "ok"), &Value::Bool(false));
        assert!(
            matches!(get(&v1, "error"), Value::Str(s) if s.contains("unsupported schema_version 1"))
        );
        assert_ok(&reply(
            &mut server,
            r#"{"op":"analyze_batch","circuit":"c17","nworst":5}"#,
        ));
        assert_ok(&reply(&mut server, r#"{"op":"paths","circuit":"c17"}"#));
    }

    #[test]
    fn serve_lines_stops_at_shutdown() {
        let mut server = fast_server();
        let input = b"{\"op\":\"status\"}\n\n{\"op\":\"shutdown\"}\n{\"op\":\"status\"}\n".to_vec();
        let mut out: Vec<u8> = Vec::new();
        let served = serve_lines(&mut server, std::io::Cursor::new(input), &mut out).unwrap();
        assert_eq!(served, 2, "requests after shutdown must not be served");
        assert!(server.shutting_down);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let doc: Value = serde_json::from_str(line).unwrap();
            assert_ok(&doc);
        }
    }

    fn serve_schema() -> Value {
        let schema_text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../docs/serve.schema.json"
        ))
        .expect("docs/serve.schema.json is checked in");
        // The embedded copy is the same document CI reads.
        assert_eq!(schema_text, crate::protocol::SERVE_SCHEMA_JSON);
        serde_json::from_str(&schema_text).unwrap()
    }

    #[test]
    fn requests_conform_to_the_checked_in_schema() {
        let schema = serve_schema();
        // Every line names the fields its op requires, so the parser's
        // verdict is exactly the schema's. The thread counts 64 are
        // MAX_THREADS: parsed only, never served (each would start that
        // many workers).
        let valid = [
            r#"{"op":"load","circuit":"c17","tech":"90nm","nworst":10,"threads":2}"#,
            r#"{"id":1,"op":"edit","circuit":"c17","kind":"swap","instance":"g1","cell":"NAND2_X2"}"#,
            r#"{"op":"edit","circuit":"c17","kind":"rewire","instance":"g1","pin":0,"net":"a"}"#,
            r#"{"op":"paths","circuit":"c17","limit":5}"#,
            r#"{"op":"paths","circuit":"c17","limit":2.0}"#,
            r#"{"op":"slack","circuit":"c17"}"#,
            r#"{"op":"verify","circuit":"c17"}"#,
            r#"{"op":"analyze_batch","circuit":"c17","corners":"typ,slow","modes":"func=600","nworst":10,"batch_threads":2}"#,
            r#"{"op":"paths","circuit":"c17","scenario":"typ/func","limit":5}"#,
            r#"{"op":"verify","circuit":"c17","scenario":"typ/func","schema_version":2}"#,
            r#"{"op":"audit","circuit":"c17"}"#,
            r#"{"op":"audit"}"#,
            r#"{"op":"status"}"#,
            r#"{"op":"shutdown"}"#,
            r#"{"op":"load","circuit":"c17","threads":64}"#,
            r#"{"op":"analyze_batch","circuit":"c17","batch_threads":64}"#,
        ];
        // A count out of its range is refused, not rounded into range, and
        // so is an unknown op, tech, field or version.
        let invalid = [
            r#"{"op":"paths","circuit":"c17","limit":0}"#,
            r#"{"op":"load","circuit":"c17","threads":0}"#,
            r#"{"op":"load","circuit":"c17","threads":65}"#,
            r#"{"op":"analyze_batch","circuit":"c17","batch_threads":0}"#,
            r#"{"op":"analyze_batch","circuit":"c17","batch_threads":65}"#,
            r#"{"op":"load","circuit":"c17","nworst":0}"#,
            r#"{"op":"analyze_batch","circuit":"c17","nworst":0}"#,
            r#"{"op":"paths","circuit":"c17","limit":2.5}"#,
            r#"{"circuit":"c17"}"#,
            r#"{"op":"fly"}"#,
            r#"{"op":"load","circuit":"c17","tech":"45nm"}"#,
            r#"{"op":"load","circuit":"c17","bogus":1}"#,
            r#"{"op":"paths","circuit":"c17","limit":2,"bogus":1}"#,
            r#"{"op":"status","schema_version":3}"#,
            r#"{"op":"status","schema_version":1}"#,
        ];
        let lines = valid.map(|l| (l, true)).into_iter();
        for (line, expected) in lines.chain(invalid.map(|l| (l, false))) {
            let doc: Value = serde_json::from_str(line).unwrap();
            let schema_ok = sta_obs::schema::validate(&schema, &doc).is_ok();
            assert_eq!(schema_ok, expected, "schema verdict on {line}");
            let parsed = parse_request(line).1;
            assert_eq!(
                parsed.is_ok(),
                schema_ok,
                "parser vs schema on {line}: {parsed:?}"
            );
        }
    }

    /// The schema's enums and ranges name nothing the daemon cannot
    /// serve: every `op` and `kind` parses to that op and kind, every
    /// `tech` resolves, and the thread maximum is [`MAX_THREADS`].
    #[test]
    fn every_schema_value_is_served() {
        let schema = serve_schema();
        let prop = |name: &str, key: &str| -> Value {
            let props = get(&schema, "properties");
            get(get(props, name), key).clone()
        };
        let strings = |name: &str| -> Vec<String> {
            let Value::Seq(values) = prop(name, "enum") else {
                panic!("{name} has no enum")
            };
            values
                .into_iter()
                .map(|v| match v {
                    Value::Str(s) => s,
                    other => panic!("{name} enum holds {other:?}"),
                })
                .collect()
        };
        for op in strings("op") {
            // Every op reads the fields it requires and ignores the rest.
            let line =
                format!(r#"{{"op":"{op}","circuit":"c17","kind":"resize","instance":"g1"}}"#);
            let req = parse_request(&line)
                .1
                .unwrap_or_else(|e| panic!("op {op}: {e}"));
            assert_eq!(op_name(&req), op);
        }
        for kind in strings("kind") {
            let line = format!(
                r#"{{"op":"edit","circuit":"c17","kind":"{kind}","instance":"g1","cell":"INV_X1","pin":0,"net":"a"}}"#
            );
            let req = parse_request(&line)
                .1
                .unwrap_or_else(|e| panic!("kind {kind}: {e}"));
            let Request::Edit { kind: parsed, .. } = req else {
                panic!("{line} is not an edit")
            };
            let parsed = match parsed {
                EditKind::Swap { .. } => "swap",
                EditKind::Resize { .. } => "resize",
                EditKind::Rewire { .. } => "rewire",
            };
            assert_eq!(parsed, kind);
        }
        for tech in strings("tech") {
            assert!(Technology::by_name(&tech).is_some(), "tech {tech}");
        }
        for name in ["threads", "batch_threads"] {
            assert_eq!(as_u64(&prop(name, "maximum")), MAX_THREADS as u64, "{name}");
        }
    }

    #[test]
    fn analyze_batch_session_round_trip() {
        let mut server = fast_server();
        let inst = c17_instance(&server.lib);
        assert_ok(&reply(
            &mut server,
            r#"{"op":"load","circuit":"c17","nworst":10}"#,
        ));

        let batch = reply(
            &mut server,
            r#"{"op":"analyze_batch","circuit":"c17","corners":"typ,slow","modes":"func=600,test=900","nworst":10}"#,
        );
        assert_ok(&batch);
        assert_eq!(as_u64(get(&batch, "scenarios")), 4);
        assert_eq!(get(&batch, "complete"), &Value::Bool(true));
        let Value::Seq(results) = get(&batch, "results") else {
            panic!("results is not an array")
        };
        assert_eq!(results.len(), 4);
        for row in results {
            assert_eq!(get(row, "complete"), &Value::Bool(true));
            assert_eq!(as_u64(get(row, "justify_aborts")), 0);
        }
        // Corners-major matrix order, names are corner/mode.
        assert_eq!(get(&results[0], "scenario"), &jstr("typ/func"));
        assert_eq!(get(&results[3], "scenario"), &jstr("slow/test"));
        let Value::Str(first_digest) = get(&results[0], "digest") else {
            panic!("digest is not a string")
        };
        assert!(!first_digest.is_empty());

        // The scenario selector reads one batch scenario's paths.
        let paths = reply(
            &mut server,
            r#"{"op":"paths","circuit":"c17","scenario":"slow/test","limit":3}"#,
        );
        assert_ok(&paths);
        assert_eq!(get(&paths, "scenario"), &jstr("slow/test"));
        let Value::Seq(worst) = get(&paths, "worst_paths") else {
            panic!("worst_paths is not an array")
        };
        assert_eq!(worst.len(), 3);
        let missing = reply(
            &mut server,
            r#"{"op":"paths","circuit":"c17","scenario":"nope","limit":3}"#,
        );
        assert_eq!(get(&missing, "ok"), &Value::Bool(false));
        assert!(matches!(get(&missing, "error"), Value::Str(s) if s.contains("nope")));

        // An independent single-scenario re-run reproduces the batch's
        // certificate bytes: the MCMM identity, checked in-band.
        let verified = reply(
            &mut server,
            r#"{"op":"verify","circuit":"c17","scenario":"slow/test"}"#,
        );
        assert_ok(&verified);
        assert_eq!(get(&verified, "identical"), &Value::Bool(true));
        assert_eq!(get(&verified, "truncated"), &Value::Bool(false));
        assert_eq!(get(&verified, "complete"), &Value::Bool(true));

        // An edit drops the resident batch: it answered for the pre-edit
        // netlist. The plain ops keep working.
        assert_ok(&reply(
            &mut server,
            &format!(r#"{{"op":"edit","circuit":"c17","kind":"resize","instance":"{inst}"}}"#),
        ));
        let stale = reply(
            &mut server,
            r#"{"op":"paths","circuit":"c17","scenario":"slow/test","limit":3}"#,
        );
        assert_eq!(get(&stale, "ok"), &Value::Bool(false));
        assert!(matches!(get(&stale, "error"), Value::Str(s) if s.contains("analyze_batch")));
        assert_ok(&reply(
            &mut server,
            r#"{"op":"paths","circuit":"c17","limit":3}"#,
        ));

        // Re-batching the edited revision works and verifies again.
        let rebatch = reply(
            &mut server,
            r#"{"op":"analyze_batch","circuit":"c17","corners":"typ","modes":"func=600"}"#,
        );
        assert_ok(&rebatch);
        assert_eq!(as_u64(get(&rebatch, "scenarios")), 1);
        let verified = reply(
            &mut server,
            r#"{"op":"verify","circuit":"c17","scenario":"typ/func"}"#,
        );
        assert_ok(&verified);
        assert_eq!(get(&verified, "identical"), &Value::Bool(true));

        // Bad corner and mode specs answer in-band, not with a dead session.
        let bad = reply(
            &mut server,
            r#"{"op":"analyze_batch","circuit":"c17","corners":"bogus"}"#,
        );
        assert_eq!(get(&bad, "ok"), &Value::Bool(false));
        let bad = reply(
            &mut server,
            r#"{"op":"analyze_batch","circuit":"c17","modes":"func"}"#,
        );
        assert_eq!(get(&bad, "ok"), &Value::Bool(false));
        assert!(matches!(get(&bad, "error"), Value::Str(s) if s.contains("PERIOD")));
    }

    #[test]
    fn audit_op_is_clean_on_resident_circuits() {
        let mut server = fast_server();
        let loaded = reply(&mut server, r#"{"op":"load","circuit":"c17","nworst":10}"#);
        assert_ok(&loaded);

        let audited = reply(&mut server, r#"{"op":"audit","circuit":"c17"}"#);
        assert_ok(&audited);
        assert_eq!(as_u64(get(&audited, "errors")), 0, "{audited:?}");
        let certs = as_u64(get(&audited, "certificates"));
        assert!(certs > 0, "no certificates audited");
        assert_eq!(
            as_u64(get(&audited, "enclosed")),
            certs,
            "every certificate must fall inside its abstract interval"
        );

        // Without a circuit, the audit covers every resident session.
        let all = reply(&mut server, r#"{"op":"audit"}"#);
        assert_ok(&all);
        assert_eq!(as_u64(get(&all, "circuits")), 1);

        let missing = reply(&mut server, r#"{"op":"audit","circuit":"c432"}"#);
        assert_eq!(get(&missing, "ok"), &Value::Bool(false));
    }
}
