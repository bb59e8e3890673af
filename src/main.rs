//! `sta-repro` — command-line front end for the sensitization-vector-aware
//! STA reproduction.
//!
//! ```text
//! sta-repro list                                  # catalog benchmarks
//! sta-repro analyze  <circuit> [--tech T] [--nworst N] [--threads W]
//! sta-repro slack    <circuit> [--tech T] [--required PS] [--sdc FILE]
//! sta-repro baseline <circuit> [--tech T] [--k K] [--limit B]
//! sta-repro cell     <name>    [--tech T]         # vectors + delays
//! sta-repro liberty  [--tech T] [--out FILE]      # export .lib
//! sta-repro lint     [circuits...] [--verify-paths] [--audit-flow]
//! sta-repro validate-manifest <file> [--schema FILE]
//! sta-repro serve    [--socket PATH] [--fast-char]   # persistent timing daemon
//! ```
//!
//! Every analysis command accepts `--format human|json`, `--manifest-out
//! FILE` (write a [`sta_obs::RunManifest`] for the invocation) and
//! `--progress` (heartbeat lines on stderr). Exit codes are stable:
//! `0` success, `1` findings (lint errors, slack violations, manifest
//! schema violations), `2` usage or operational error.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Duration;

use serde::Value;
use sta_baseline::{run_baseline, BaselineConfig, Classification};
use sta_cells::{Corner, Edge, Library, Technology};
use sta_charlib::{characterize_cached, CharConfig, CharError, TimingLibrary};
use sta_circuits::{catalog, map_netlist, resize_gate};
use sta_core::{
    arc_intervals_compiled, dirty_sources, static_bounds_compiled, AnalysisContext, AnalysisError,
    AnalysisRequest, CertificateSet, CornerDef, Mode, PathEnumerator, RequiredSource, Scenario,
    SdcError, SourceCache, ARC_SWEEP_MARGIN,
};
use sta_esim::cellsim::{cell_input_cap, simulate_arc, Drive};
use sta_lint::{
    check_schedule, lint_library, lint_netlist, verify_paths, LibLintConfig, LintReport,
};
use sta_netlist::{Netlist, NetlistError};
use sta_obs::{Heartbeat, Observer, RunManifest};

// ---------------------------------------------------------------------------
// Error type and exit codes
// ---------------------------------------------------------------------------

/// Everything that can go wrong in the front end, with a stable exit code
/// per category. `Findings` is the "the tool worked, the design didn't"
/// case (lint errors, slack violations): exit 1. Everything else — bad
/// usage, unknown circuits, I/O failures, malformed documents — exits 2.
#[derive(Debug)]
enum CliError {
    /// Malformed command line.
    Usage(String),
    /// Resolving or running an analysis failed (unknown benchmark,
    /// characterization failure, SDC parse error, ...).
    Analysis(AnalysisError),
    /// Reading or writing a file failed.
    Io(String),
    /// A document (manifest, certificate set) failed to parse.
    Invalid(String),
    /// The analysis succeeded and reported violations.
    Findings(String),
}

impl CliError {
    fn exit_code(&self) -> i32 {
        match self {
            CliError::Findings(_) => 1,
            _ => 2,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Io(m) | CliError::Invalid(m) | CliError::Findings(m) => {
                f.write_str(m)
            }
            CliError::Analysis(e) => write!(f, "{e}"),
        }
    }
}

impl From<AnalysisError> for CliError {
    fn from(e: AnalysisError) -> Self {
        CliError::Analysis(e)
    }
}

impl From<NetlistError> for CliError {
    fn from(e: NetlistError) -> Self {
        CliError::Analysis(AnalysisError::from(e))
    }
}

impl From<CharError> for CliError {
    fn from(e: CharError) -> Self {
        CliError::Analysis(AnalysisError::from(e))
    }
}

impl From<SdcError> for CliError {
    fn from(e: SdcError) -> Self {
        CliError::Analysis(AnalysisError::from(e))
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e.to_string())
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            e.exit_code()
        }
    };
    std::process::exit(code);
}

fn run(args: &[String]) -> Result<(), CliError> {
    let Some(cmd) = args.first() else {
        print_usage();
        return Ok(());
    };
    let opts = Opts::parse(&args[1..])?;
    match cmd.as_str() {
        "list" => cmd_list(),
        "analyze" => cmd_analyze(&opts, args),
        "slack" => cmd_slack(&opts, args),
        "baseline" => cmd_baseline(&opts, args),
        "cell" => cmd_cell(&opts),
        "liberty" => cmd_liberty(&opts),
        "lint" => cmd_lint(&opts, args),
        "validate-manifest" => cmd_validate_manifest(&opts),
        "serve" => cmd_serve(&opts),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown command {other:?} (try `sta-repro help`)"
        ))),
    }
}

fn print_usage() {
    println!(
        "sta-repro — sensitization-vector-aware STA (DATE'11 reproduction)\n\
         \n\
         commands:\n\
           list                                  list catalog benchmarks\n\
           analyze  <circuit> [--tech T] [--corner C] [--corners C,..] [--modes F,..]\n\
                    [--nworst N] [--threads W] [--batch-threads B] [--no-learning]\n\
                    run the single-pass true-path STA (--nworst keeps the\n\
                    N >= 1 worst paths; --no-learning disables nogood learning\n\
                    and dominance pruning — results are identical either way;\n\
                    --corners/--modes run the whole MCMM matrix as one batch\n\
                    with shared characterization/netlist/kernels, reporting\n\
                    per-scenario results plus the merged worst-slack view)\n\
           slack    <circuit> [--tech T] [--corner C] [--corners C,..] [--modes F,..]\n\
                    [--required PS] [--sdc FILE]   structural slack report\n\
                    (single scenario, or the merged MCMM matrix with --corners/--modes)\n\
           baseline <circuit> [--tech T] [--corner C] [--k K] [--limit B]   run the two-step baseline\n\
           cell     <name>    [--tech T] [--corner C]   show a cell's vectors and measured delays\n\
           liberty  [--tech T] [--out FILE]      export the characterized library as .lib\n\
           lint     [circuits...] [--tech T] [--format human|json] [--deny warnings]\n\
                    [--verify-paths] [--audit-flow] [--nworst N] [--out FILE]\n\
                    statically verify netlists, the fitted library, and (with\n\
                    --verify-paths) replay every enumerated path certificate;\n\
                    --audit-flow additionally runs the whole-flow soundness\n\
                    audit: interval abstract interpretation over the timing\n\
                    graph (AI rules), a sampled ECO edit against the dirty-\n\
                    source and cache invariants (ECO rules), and the serve\n\
                    protocol schema/parser conformance check (SRV rules);\n\
                    circuits may be catalog names or .bench file paths;\n\
                    no circuits = the whole catalog\n\
           validate-manifest <file> [--schema FILE]   check a run manifest\n\
                    against the JSON schema (default docs/manifest.schema.json)\n\
           serve    [--socket PATH] [--fast-char]   persistent timing daemon:\n\
                    newline-delimited JSON requests on stdin (or the Unix\n\
                    socket), responses on stdout; keeps characterized\n\
                    libraries, compiled kernels and per-circuit path caches\n\
                    resident, and re-analyzes ECO edits incrementally\n\
                    (ops: load, edit, analyze_batch, paths, slack, verify,\n\
                    audit, status, shutdown — analyze_batch runs an MCMM\n\
                    batch on the resident netlist, audit runs the whole-flow\n\
                    soundness audit on resident circuits; request schema:\n\
                    docs/serve.schema.json;\n\
                    --fast-char uses the coarse characterization grid)\n\
         \n\
         analysis commands also accept:\n\
           --format human|json                   output rendering (default human)\n\
           --manifest-out FILE                   write a run manifest (spans,\n\
                                                 metrics, config echo, path digest)\n\
           --progress                            heartbeat lines on stderr\n\
           --fast-char                           coarse characterization grid\n\
                                                 (fast but less accurate)\n\
           --max-decisions N                     cap the global justification-\n\
                                                 decision budget (bounded runs\n\
                                                 report truncation honestly)\n\
         \n\
         exit codes: 0 success, 1 findings (lint/slack/schema violations),\n\
         2 usage or operational error.\n\
         \n\
         T is one of 130nm | 90nm | 65nm (default 90nm).\n\
         C is a corner spec: fan130|fan90|fan65, 130nm|90nm|65nm (nominal of the\n\
         node), slow|typ|fast (PVT points of --tech), TECH:PVT (e.g. 90nm:slow),\n\
         or T,V (explicit °C and volts, e.g. 75,0.95). --corners takes a\n\
         comma-separated list; --modes takes a comma-separated list of SDC\n\
         files, each becoming a named mode (--sdc FILE is sugar for a one-mode\n\
         set); the batch analyzes the full corners × modes matrix."
    );
}

// ---------------------------------------------------------------------------
// Option parsing
// ---------------------------------------------------------------------------

struct Opts {
    positional: Vec<String>,
    tech: Technology,
    corner: Option<String>,
    corners: Option<String>,
    modes: Option<String>,
    batch_threads: usize,
    nworst: Option<usize>,
    threads: usize,
    k: usize,
    limit: u64,
    out: Option<String>,
    required: Option<f64>,
    no_learning: bool,
    format: OutputFormat,
    deny_warnings: bool,
    verify_paths: bool,
    audit_flow: bool,
    max_decisions: Option<u64>,
    manifest_out: Option<String>,
    progress: bool,
    sdc: Option<String>,
    schema: Option<String>,
    socket: Option<String>,
    fast_char: bool,
}

#[derive(Clone, Copy, PartialEq)]
enum OutputFormat {
    Human,
    Json,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, CliError> {
        let mut opts = Opts {
            positional: Vec::new(),
            tech: Technology::n90(),
            corner: None,
            corners: None,
            modes: None,
            batch_threads: 1,
            nworst: None,
            threads: 1,
            k: 1000,
            limit: 1000,
            out: None,
            required: None,
            no_learning: false,
            format: OutputFormat::Human,
            deny_warnings: false,
            verify_paths: false,
            audit_flow: false,
            max_decisions: None,
            manifest_out: None,
            progress: false,
            sdc: None,
            schema: None,
            socket: None,
            fast_char: false,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut value = |flag: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
            };
            match a.as_str() {
                "--tech" => {
                    let t = value("--tech")?;
                    opts.tech = Technology::by_name(&t).ok_or_else(|| {
                        CliError::Usage(format!(
                            "unknown technology {t:?} (expected 130nm | 90nm | 65nm)"
                        ))
                    })?;
                }
                "--corner" => opts.corner = Some(value("--corner")?),
                "--corners" => opts.corners = Some(value("--corners")?),
                "--modes" => opts.modes = Some(value("--modes")?),
                "--batch-threads" => {
                    opts.batch_threads = parse_num(&value("--batch-threads")?, "--batch-threads")?;
                }
                "--nworst" => {
                    let n = parse_num(&value("--nworst")?, "--nworst")?;
                    if n == 0 {
                        return Err(CliError::Usage("--nworst must be at least 1".to_string()));
                    }
                    opts.nworst = Some(n);
                }
                "--threads" => opts.threads = parse_num(&value("--threads")?, "--threads")?,
                "--k" => opts.k = parse_num(&value("--k")?, "--k")?,
                "--limit" => opts.limit = parse_num(&value("--limit")?, "--limit")?,
                "--out" => opts.out = Some(value("--out")?),
                "--required" => {
                    let required: f64 = parse_num(&value("--required")?, "--required")?;
                    if !required.is_finite() {
                        return Err(CliError::Usage(format!(
                            "--required must be a finite number of ps, got {required}"
                        )));
                    }
                    opts.required = Some(required);
                }
                "--no-learning" => opts.no_learning = true,
                "--format" => {
                    let f = value("--format")?;
                    opts.format = match f.as_str() {
                        "human" => OutputFormat::Human,
                        "json" => OutputFormat::Json,
                        other => {
                            return Err(CliError::Usage(format!(
                                "unknown format {other:?} (expected human | json)"
                            )))
                        }
                    };
                }
                "--deny" => {
                    let what = value("--deny")?;
                    if what != "warnings" {
                        return Err(CliError::Usage(format!(
                            "unknown --deny category {what:?} (expected warnings)"
                        )));
                    }
                    opts.deny_warnings = true;
                }
                "--verify-paths" => opts.verify_paths = true,
                "--audit-flow" => opts.audit_flow = true,
                "--max-decisions" => {
                    opts.max_decisions =
                        Some(parse_num(&value("--max-decisions")?, "--max-decisions")?);
                }
                "--manifest-out" => opts.manifest_out = Some(value("--manifest-out")?),
                "--progress" => opts.progress = true,
                "--sdc" => opts.sdc = Some(value("--sdc")?),
                "--schema" => opts.schema = Some(value("--schema")?),
                "--socket" => opts.socket = Some(value("--socket")?),
                "--fast-char" => opts.fast_char = true,
                other if other.starts_with("--") => {
                    return Err(CliError::Usage(format!(
                        "unknown option {other:?} (try `sta-repro help`)"
                    )));
                }
                other => opts.positional.push(other.to_string()),
            }
        }
        Ok(opts)
    }

    fn circuit(&self, cmd: &str) -> Result<&str, CliError> {
        self.positional
            .first()
            .map(String::as_str)
            .ok_or_else(|| CliError::Usage(format!("{cmd} needs a circuit name")))
    }

    /// Echo of the effective configuration for the run manifest.
    fn config_echo(&self, circuit: Option<&str>) -> BTreeMap<String, String> {
        let mut m = BTreeMap::new();
        if let Some(c) = circuit {
            m.insert("circuit".to_string(), c.to_string());
        }
        m.insert("tech".to_string(), self.tech.name.clone());
        if let Some(c) = &self.corner {
            m.insert("corner".to_string(), c.clone());
        }
        if let Some(c) = &self.corners {
            m.insert("corners".to_string(), c.clone());
        }
        if let Some(mo) = &self.modes {
            m.insert("modes".to_string(), mo.clone());
        }
        if self.batch_threads > 1 {
            m.insert("batch_threads".to_string(), self.batch_threads.to_string());
        }
        m.insert("threads".to_string(), self.threads.to_string());
        m.insert("learning".to_string(), (!self.no_learning).to_string());
        m.insert(
            "char_grid".to_string(),
            if self.fast_char { "fast" } else { "standard" }.to_string(),
        );
        if let Some(n) = self.nworst {
            m.insert("nworst".to_string(), n.to_string());
        }
        if let Some(d) = self.max_decisions {
            m.insert("max_decisions".to_string(), d.to_string());
        }
        m.insert(
            "format".to_string(),
            match self.format {
                OutputFormat::Human => "human".to_string(),
                OutputFormat::Json => "json".to_string(),
            },
        );
        m
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, CliError> {
    s.parse()
        .map_err(|_| CliError::Usage(format!("{flag}: invalid value {s:?}")))
}

// ---------------------------------------------------------------------------
// Observability session: observer + heartbeat + manifest writing
// ---------------------------------------------------------------------------

/// Per-invocation observability state. The observer is enabled only when
/// the user asked for a manifest or progress output, so the default run
/// pays nothing; either way the same handle threads through the analysis,
/// which never changes what is computed.
struct ObsSession {
    obs: Observer,
    heartbeat: Option<Heartbeat>,
    manifest_out: Option<String>,
    command: Vec<String>,
}

impl ObsSession {
    fn new(opts: &Opts, command: &[String]) -> ObsSession {
        let obs = if opts.manifest_out.is_some() || opts.progress {
            Observer::enabled()
        } else {
            Observer::disabled()
        };
        let heartbeat = if opts.progress {
            obs.install_progress()
                .map(|p| Heartbeat::start(p, Duration::from_millis(500)))
        } else {
            None
        };
        ObsSession {
            obs,
            heartbeat,
            manifest_out: opts.manifest_out.clone(),
            command: command.to_vec(),
        }
    }

    fn observer(&self) -> Observer {
        self.obs.clone()
    }

    fn wants_manifest(&self) -> bool {
        self.manifest_out.is_some()
    }

    /// Stops the heartbeat and, when requested, writes the run manifest.
    /// Call after every analysis object has been dropped so the span tree
    /// is complete.
    fn finish(
        mut self,
        config: BTreeMap<String, String>,
        path_digest: Option<String>,
    ) -> Result<(), CliError> {
        drop(self.heartbeat.take());
        if let Some(path) = &self.manifest_out {
            let manifest = RunManifest::new(self.command.clone(), config, &self.obs, path_digest);
            std::fs::write(path, manifest.to_json())
                .map_err(|e| CliError::Io(format!("writing {path}: {e}")))?;
            eprintln!("wrote {path}");
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// JSON output helpers (shared schema_version with the run manifest)
// ---------------------------------------------------------------------------

fn jmap(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn jstr(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

fn print_json(doc: &Value) {
    println!(
        "{}",
        serde_json::to_string_pretty(doc).expect("JSON documents always serialize")
    );
}

// ---------------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------------

fn cmd_list() -> Result<(), CliError> {
    println!(
        "{:<8} {:>12} {:>12}  description",
        "name", "ISCAS gates", "budget"
    );
    for b in catalog::BENCHMARKS {
        let budget = match b.decision_budget {
            Some(d) => d.to_string(),
            None => "-".to_string(),
        };
        println!(
            "{:<8} {:>12} {:>12}  {}",
            b.name, b.iscas_gates, budget, b.description
        );
    }
    Ok(())
}

/// Whether the invocation asked for a whole MCMM matrix (batch flags)
/// rather than a single scenario.
fn is_batch(opts: &Opts) -> bool {
    opts.corners.is_some() || opts.modes.is_some()
}

/// Builds one [`Mode`] from an SDC file; the mode is named after the
/// file stem (`constraints/func.sdc` → mode `func`).
fn mode_from_sdc_file(path: &str) -> Result<Mode, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Usage(format!("--modes/--sdc: reading {path}: {e}")))?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("mode")
        .to_string();
    Ok(Mode::with_sdc(&name, &text))
}

/// Resolves the unified corner/mode flags into the scenario matrix:
/// `--corners`/`--modes` span the batch, `--corner` picks a single
/// operating point, `--sdc FILE` is sugar for a one-mode set, and
/// `--required` overrides the requirement of every mode. `--tech` is the
/// base technology that bare PVT names (`slow`, `75,0.95`) refer to.
fn scenario_matrix(opts: &Opts) -> Result<Vec<Scenario>, CliError> {
    let usage = |m: String| CliError::Usage(m);
    if opts.corner.is_some() && opts.corners.is_some() {
        return Err(usage(
            "--corner and --corners are mutually exclusive".into(),
        ));
    }
    if opts.sdc.is_some() && opts.modes.is_some() {
        return Err(usage("--sdc and --modes are mutually exclusive".into()));
    }
    let corners = if let Some(list) = &opts.corners {
        CornerDef::parse_list(list, &opts.tech).map_err(|e| usage(e.to_string()))?
    } else if let Some(spec) = &opts.corner {
        vec![CornerDef::parse(spec, &opts.tech).map_err(|e| usage(e.to_string()))?]
    } else {
        vec![CornerDef::nominal(opts.tech.clone())]
    };
    let mut modes = Vec::new();
    if let Some(list) = &opts.modes {
        for item in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            modes.push(mode_from_sdc_file(item)?);
        }
        if modes.is_empty() {
            return Err(usage("--modes needs at least one SDC file".into()));
        }
    } else if let Some(path) = &opts.sdc {
        modes.push(mode_from_sdc_file(path)?);
    } else {
        modes.push(Mode::unconstrained());
    }
    if let Some(r) = opts.required {
        for m in &mut modes {
            m.required = Some(r);
        }
    }
    Ok(Scenario::matrix(&corners, &modes))
}

/// The shared request preamble: circuit, scenario matrix, threading,
/// learning, characterization grid, decision budget and the session's
/// observer.
fn base_request(
    circuit: &str,
    opts: &Opts,
    session: &ObsSession,
) -> Result<AnalysisRequest, CliError> {
    let scenarios = scenario_matrix(opts)?;
    let mut techs: Vec<&str> = scenarios
        .iter()
        .map(|s| s.corner.tech.name.as_str())
        .collect();
    techs.sort_unstable();
    techs.dedup();
    eprintln!(
        "characterizing / loading cache for {} ...",
        techs.join(", ")
    );
    Ok(AnalysisRequest::new(circuit)
        .scenarios(scenarios)
        .threads(opts.threads)
        .batch_threads(opts.batch_threads)
        .learning(!opts.no_learning)
        .char_config(if opts.fast_char {
            CharConfig::fast()
        } else {
            CharConfig::standard()
        })
        .max_decisions(
            // Explicit --max-decisions wins (0 = unlimited); otherwise the
            // catalog's per-circuit budget keeps the big surrogates bounded.
            opts.max_decisions
                .or_else(|| catalog::benchmark_info(circuit).and_then(|b| b.decision_budget)),
        )
        .observer(session.observer()))
}

/// Renders a finished batch (shared by `analyze --corners/--modes` and
/// `slack --corners/--modes`) and returns the number of *check*
/// violations — endpoints whose dominating scenario has a user-stated
/// requirement (explicit or SDC) and misses it. Probe-only scenarios
/// (default 90 %-of-worst requirement) never flip the exit code.
fn render_batch(
    command: &str,
    circuit: &str,
    batch: &sta_core::BatchOutcome,
    opts: &Opts,
) -> usize {
    let is_check: BTreeMap<String, bool> = batch
        .scenarios
        .iter()
        .map(|s| {
            (
                s.scenario.name(),
                s.required_source != RequiredSource::Default,
            )
        })
        .collect();
    let check_violations = batch
        .merged
        .endpoints
        .iter()
        .filter(|e| e.slack < 0.0 && is_check[&e.scenario])
        .count();
    match opts.format {
        OutputFormat::Human => {
            println!(
                "{circuit}: {} scenario(s) in {:.2} s (batch)",
                batch.scenarios.len(),
                batch.elapsed_s
            );
            for s in &batch.scenarios {
                let worst = s
                    .paths
                    .first()
                    .map(|p| p.worst_arrival())
                    .unwrap_or(f64::NAN);
                println!(
                    "  {:<24} {:>6} paths  worst {:>9.1} ps  required {:>9.1} ps  {}{}",
                    s.scenario.name(),
                    s.stats.paths,
                    worst,
                    s.required,
                    if s.slack.passes() { "PASS" } else { "FAIL" },
                    if s.stats.truncated {
                        " (budget hit)"
                    } else {
                        ""
                    },
                );
            }
            let mut worst_eps: Vec<&sta_core::MergedEndpoint> =
                batch.merged.endpoints.iter().collect();
            worst_eps.sort_by(|a, b| a.slack.total_cmp(&b.slack));
            println!("  merged worst endpoints (slack / dominating scenario):");
            for e in worst_eps.iter().take(10) {
                println!("  {:>9.1} ps  {:<12} <- {}", e.slack, e.output, e.scenario);
            }
        }
        OutputFormat::Json => {
            let scenarios: Vec<Value> = batch
                .scenarios
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let digest = sta_obs::digest_string(batch.certificates(i).to_json().as_bytes());
                    jmap(vec![
                        ("scenario", jstr(s.scenario.name())),
                        ("corner", jstr(s.scenario.corner.name.clone())),
                        ("tech", jstr(s.scenario.corner.tech.name.clone())),
                        ("mode", jstr(s.scenario.mode.name.clone())),
                        ("paths", Value::UInt(s.stats.paths as u64)),
                        ("input_vectors", Value::UInt(s.stats.input_vectors as u64)),
                        ("truncated", Value::Bool(s.stats.truncated)),
                        ("required_ps", Value::Float(s.required)),
                        ("worst_slack_ps", Value::Float(s.slack.worst().1)),
                        ("passes", Value::Bool(s.slack.passes())),
                        ("certificate_digest", jstr(digest)),
                    ])
                })
                .collect();
            let merged: Value =
                serde_json::from_str(&batch.merged.to_json()).expect("merged report round-trips");
            print_json(&jmap(vec![
                (
                    "schema_version",
                    Value::UInt(sta_obs::SCHEMA_VERSION as u64),
                ),
                ("command", jstr(command)),
                ("circuit", jstr(circuit)),
                ("batch", Value::Bool(true)),
                ("num_scenarios", Value::UInt(batch.scenarios.len() as u64)),
                ("elapsed_s", Value::Float(batch.elapsed_s)),
                ("scenarios", Value::Seq(scenarios)),
                ("merged", merged),
            ]));
        }
    }
    check_violations
}

/// The batch digest for a run manifest: stable hash over the
/// per-scenario certificate digests, in submission order.
fn batch_digest(batch: &sta_core::BatchOutcome) -> String {
    let joined: String = (0..batch.scenarios.len())
        .map(|i| sta_obs::digest_string(batch.certificates(i).to_json().as_bytes()))
        .collect::<Vec<_>>()
        .join("\n");
    sta_obs::digest_string(joined.as_bytes())
}

fn cmd_analyze(opts: &Opts, args: &[String]) -> Result<(), CliError> {
    let circuit = opts.circuit("analyze")?;
    let session = ObsSession::new(opts, args);
    if is_batch(opts) {
        let batch = base_request(circuit, opts, &session)?
            .n_worst(opts.nworst)
            .full_enum_path_cap(Some(500_000))
            .run_batch()?;
        render_batch("analyze", circuit, &batch, opts);
        let digest = session.wants_manifest().then(|| batch_digest(&batch));
        drop(batch);
        return session.finish(opts.config_echo(Some(circuit)), digest);
    }
    let outcome = base_request(circuit, opts, &session)?
        .n_worst(opts.nworst)
        .full_enum_path_cap(Some(500_000))
        .run()?;
    let (arcs, coefficients) = outcome.kernel;
    eprintln!("compiled {arcs} delay kernels ({coefficients} coefficients) for the corner");
    let shown = opts.nworst.unwrap_or(10);
    match opts.format {
        OutputFormat::Human => {
            println!(
                "{circuit} ({} cells): {} paths / {} input vectors in {:.2} s{}",
                outcome.netlist.num_gates(),
                outcome.stats.paths,
                outcome.stats.input_vectors,
                outcome.elapsed_s,
                if outcome.stats.truncated {
                    " (budget hit)"
                } else {
                    ""
                }
            );
            println!(
                "  kernel evals: {}, scratch high-water: {} side / {} path",
                outcome.stats.compiled_evals,
                outcome.stats.scratch_side_hwm,
                outcome.stats.scratch_path_hwm
            );
            if !opts.no_learning {
                println!(
                    "  learn: {} nogoods stored, {} hits ({} decisions saved), {} bound cuts",
                    outcome.stats.learn_stored,
                    outcome.stats.learn_hits,
                    outcome.stats.learn_decisions_saved,
                    outcome.stats.learn_bound_cuts
                );
            }
            for (i, p) in outcome.paths.iter().take(shown).enumerate() {
                println!(
                    "{:>3}. {:>9.1} ps  {} gates  {} -> {}",
                    i + 1,
                    p.worst_arrival(),
                    p.arcs.len(),
                    outcome.netlist.net_label(p.source),
                    outcome.netlist.net_label(p.endpoint())
                );
            }
        }
        OutputFormat::Json => {
            let worst: Vec<Value> = outcome
                .paths
                .iter()
                .take(shown)
                .enumerate()
                .map(|(i, p)| {
                    jmap(vec![
                        ("rank", Value::UInt(i as u64 + 1)),
                        ("arrival_ps", Value::Float(p.worst_arrival())),
                        ("gates", Value::UInt(p.arcs.len() as u64)),
                        ("source", jstr(outcome.netlist.net_label(p.source))),
                        ("endpoint", jstr(outcome.netlist.net_label(p.endpoint()))),
                    ])
                })
                .collect();
            let kernel = jmap(vec![
                ("arcs", Value::UInt(arcs as u64)),
                ("coefficients", Value::UInt(coefficients as u64)),
            ]);
            print_json(&jmap(vec![
                (
                    "schema_version",
                    Value::UInt(sta_obs::SCHEMA_VERSION as u64),
                ),
                ("command", jstr("analyze")),
                ("circuit", jstr(circuit)),
                ("tech", jstr(opts.tech.name.clone())),
                ("threads", Value::UInt(opts.threads as u64)),
                ("num_gates", Value::UInt(outcome.netlist.num_gates() as u64)),
                ("paths", Value::UInt(outcome.stats.paths as u64)),
                (
                    "input_vectors",
                    Value::UInt(outcome.stats.input_vectors as u64),
                ),
                ("truncated", Value::Bool(outcome.stats.truncated)),
                ("elapsed_s", Value::Float(outcome.elapsed_s)),
                ("kernel", kernel),
                ("worst_paths", Value::Seq(worst)),
            ]));
        }
    }
    let digest = if session.wants_manifest() {
        let certs =
            CertificateSet::new(&outcome.netlist, outcome.input_slew, outcome.paths.clone());
        Some(sta_obs::digest_string(certs.to_json().as_bytes()))
    } else {
        None
    };
    session.finish(opts.config_echo(Some(circuit)), digest)
}

fn cmd_slack(opts: &Opts, args: &[String]) -> Result<(), CliError> {
    let circuit = opts.circuit("slack")?;
    let session = ObsSession::new(opts, args);
    if is_batch(opts) {
        let batch = base_request(circuit, opts, &session)?
            .n_worst(opts.nworst.or(Some(1)))
            .run_batch()?;
        let check_violations = render_batch("slack", circuit, &batch, opts);
        drop(batch);
        session.finish(opts.config_echo(Some(circuit)), None)?;
        return if check_violations == 0 {
            Ok(())
        } else {
            Err(CliError::Findings(format!(
                "slack requirement violated at {check_violations} endpoint(s) across the scenario matrix"
            )))
        };
    }
    // `--sdc`/`--required` are already folded into the primary scenario's
    // mode by the scenario matrix.
    let ctx = base_request(circuit, opts, &session)?.prepare()?;
    let out = ctx.slack();
    let source = match out.required_source {
        RequiredSource::Explicit => "explicit",
        RequiredSource::Sdc => "sdc",
        RequiredSource::Default => "default",
    };
    let violations = out.report.violations();
    match opts.format {
        OutputFormat::Human => {
            println!(
                "{circuit}: structural worst arrival {:.1} ps, requirement {:.1} ps ({source}) — {}",
                out.structural_worst,
                out.required,
                if out.report.passes() { "PASS" } else { "FAIL" }
            );
            for &(net, slack) in violations.iter().take(10) {
                println!("  {:>9.1} ps  {}", slack, ctx.netlist.net_label(net));
            }
        }
        OutputFormat::Json => {
            let vjson: Vec<Value> = violations
                .iter()
                .take(10)
                .map(|&(net, slack)| {
                    jmap(vec![
                        ("slack_ps", Value::Float(slack)),
                        ("net", jstr(ctx.netlist.net_label(net))),
                    ])
                })
                .collect();
            print_json(&jmap(vec![
                (
                    "schema_version",
                    Value::UInt(sta_obs::SCHEMA_VERSION as u64),
                ),
                ("command", jstr("slack")),
                ("circuit", jstr(circuit)),
                ("tech", jstr(opts.tech.name.clone())),
                ("structural_worst_ps", Value::Float(out.structural_worst)),
                ("required_ps", Value::Float(out.required)),
                ("required_source", jstr(source)),
                ("passes", Value::Bool(out.report.passes())),
                ("violations", Value::UInt(violations.len() as u64)),
                ("worst_violations", Value::Seq(vjson)),
            ]));
        }
    }
    // The synthetic 90 % default is a diagnostic probe that fails by
    // construction; only a user-stated requirement (explicit or SDC) is a
    // check whose violation should flip the exit code.
    let is_check = out.required_source != RequiredSource::Default;
    let passes = out.report.passes();
    let required = out.required;
    let num_violations = violations.len();
    drop(out);
    drop(ctx);
    session.finish(opts.config_echo(Some(circuit)), None)?;
    if passes || !is_check {
        Ok(())
    } else {
        Err(CliError::Findings(format!(
            "slack requirement {required:.1} ps violated at {num_violations} endpoint(s)"
        )))
    }
}

fn cmd_baseline(opts: &Opts, args: &[String]) -> Result<(), CliError> {
    let circuit = opts.circuit("baseline")?;
    if is_batch(opts) {
        return Err(CliError::Usage(
            "baseline analyzes a single scenario; use --corner/--sdc, not --corners/--modes"
                .to_string(),
        ));
    }
    let session = ObsSession::new(opts, args);
    let ctx = base_request(circuit, opts, &session)?.prepare()?;
    let t0 = std::time::Instant::now();
    let report = run_baseline(
        &ctx.netlist,
        &ctx.lib,
        &ctx.timing,
        &BaselineConfig::new(opts.k, opts.limit),
    );
    let elapsed_s = t0.elapsed().as_secs_f64();
    match opts.format {
        OutputFormat::Human => {
            println!(
                "{circuit}: explored {} structural paths in {elapsed_s:.2} s — true {}, false {}, abandoned {} (false ratio {:.1} %)",
                report.paths.len(),
                report.num_true,
                report.num_false,
                report.num_backtrack_limited,
                report.false_path_ratio() * 100.0
            );
            for bp in report
                .paths
                .iter()
                .filter(|bp| bp.sens.classification == Classification::True)
                .take(10)
            {
                println!(
                    "  {:>9.1} ps  {} gates  (vectors {:?})",
                    bp.worst_delay(),
                    bp.path.arcs.len(),
                    bp.sens.chosen_vectors
                );
            }
        }
        OutputFormat::Json => {
            let worst: Vec<Value> = report
                .paths
                .iter()
                .filter(|bp| bp.sens.classification == Classification::True)
                .take(10)
                .map(|bp| {
                    jmap(vec![
                        ("delay_ps", Value::Float(bp.worst_delay())),
                        ("gates", Value::UInt(bp.path.arcs.len() as u64)),
                    ])
                })
                .collect();
            print_json(&jmap(vec![
                (
                    "schema_version",
                    Value::UInt(sta_obs::SCHEMA_VERSION as u64),
                ),
                ("command", jstr("baseline")),
                ("circuit", jstr(circuit)),
                ("tech", jstr(opts.tech.name.clone())),
                ("explored", Value::UInt(report.paths.len() as u64)),
                ("true_paths", Value::UInt(report.num_true as u64)),
                ("false_paths", Value::UInt(report.num_false as u64)),
                (
                    "abandoned",
                    Value::UInt(report.num_backtrack_limited as u64),
                ),
                ("false_ratio", Value::Float(report.false_path_ratio())),
                ("elapsed_s", Value::Float(elapsed_s)),
                ("worst_true_paths", Value::Seq(worst)),
            ]));
        }
    }
    drop(report);
    drop(ctx);
    session.finish(opts.config_echo(Some(circuit)), None)
}

fn cmd_cell(opts: &Opts) -> Result<(), CliError> {
    let name = opts
        .positional
        .first()
        .ok_or_else(|| CliError::Usage("cell needs a cell name".to_string()))?;
    let lib = Library::standard();
    let cell = lib
        .cell_by_name(name)
        .ok_or_else(|| CliError::Usage(format!("unknown cell {name:?}")))?;
    println!(
        "{} : Z = {}   ({} transistors)",
        cell.name(),
        cell.expr().display(),
        cell.topology().transistor_count()
    );
    // `cell` honors the unified --corner flag (single-point commands
    // reject the batch flags in `scenario_matrix`).
    let (tech, corner) = match &opts.corner {
        Some(spec) => {
            let def =
                CornerDef::parse(spec, &opts.tech).map_err(|e| CliError::Usage(e.to_string()))?;
            (def.tech, def.corner)
        }
        None => (opts.tech.clone(), Corner::nominal(&opts.tech)),
    };
    let load = cell_input_cap(cell, &tech);
    for pin in 0..cell.num_pins() {
        for v in cell.vectors_of(pin) {
            let mut cols = Vec::new();
            for edge in Edge::BOTH {
                match simulate_arc(
                    cell,
                    &tech,
                    corner,
                    v,
                    edge,
                    Drive::Ramp { transition: 50.0 },
                    load,
                ) {
                    Ok(o) => cols.push(format!("in-{edge} {:.1}ps", o.delay)),
                    Err(e) => cols.push(format!("in-{edge} ERR({e})")),
                }
            }
            println!(
                "  pin {} {}  {}",
                sta_cells::func::pin_name(pin),
                v,
                cols.join("  ")
            );
        }
    }
    Ok(())
}

/// Bumps `audit.errors` / `audit.warnings` for one batch of audit
/// findings (the counters are pre-registered, so a clean run still
/// reports them at zero).
fn record_audit_severities(obs: &Observer, findings: &[sta_lint::Diagnostic]) {
    let errors = findings
        .iter()
        .filter(|d| d.severity == sta_lint::Severity::Error)
        .count() as u64;
    obs.counter("audit.errors").add(errors);
    obs.counter("audit.warnings")
        .add(findings.len() as u64 - errors);
}

/// One circuit's `--audit-flow` pass (see DESIGN.md §5.11):
///
/// * **AI leg** — builds the swept two-sided arc envelopes through the
///   compiled kernels (so the audit sees the same delay tables the
///   search sees), re-derives single-source
///   abstract intervals, and checks every enumerated certificate for
///   enclosure (AI001/AI003/AI004) plus the structural pruning bound
///   against the interval hull (AI002).
/// * **ECO leg** — builds the per-source cache, checks its structural
///   and splice invariants (ECO002), then applies one deterministic
///   delay-only resize edit and audits the dirty-source mask against
///   per-source interval tables (ECO001/ECO003) and the incrementally
///   updated cache.
fn audit_flow_circuit(
    name: &str,
    ctx: &AnalysisContext,
    obs: &Observer,
) -> Vec<sta_lint::Diagnostic> {
    let slew = ctx.input_slew();
    let mut findings = Vec::new();
    // The corner kernel depends only on (timing library, corner): one
    // compile covers both the pristine and the edited netlist.
    let kernel = ctx.timing.compile_corner(ctx.corner);
    let intervals_for =
        |nl: &Netlist| arc_intervals_compiled(nl, &ctx.timing, &kernel, slew, ARC_SWEEP_MARGIN);

    // AI001/AI003/AI004: every certificate inside its source's intervals.
    let run = ctx.enumerate();
    let plain_truncated = run.stats.truncated;
    let certs = CertificateSet::new(&ctx.netlist, slew, run.paths);
    let arcs = intervals_for(&ctx.netlist);
    let outcome = sta_lint::audit_certificates(&ctx.netlist, name, &arcs, &certs, slew);
    eprintln!(
        "{name}: audit: {}/{} certificates enclosed across {} sources",
        outcome.enclosed, outcome.certificates, outcome.sources_checked
    );
    obs.counter("audit.certificates_checked")
        .add(outcome.certificates as u64);
    obs.counter("audit.certificates_enclosed")
        .add(outcome.enclosed as u64);
    obs.counter("audit.sources_checked")
        .add(outcome.sources_checked as u64);
    findings.extend(outcome.diagnostics);

    // AI002: the search's own pruning bound must dominate the hull.
    let hull = sta_lint::hull(&ctx.netlist, &arcs, slew);
    let prune_margin = ctx.config().prune_margin;
    let st = static_bounds_compiled(&ctx.netlist, &ctx.timing, &kernel, slew, prune_margin);
    findings.extend(sta_lint::audit_structural_dominance(
        name,
        &ctx.netlist,
        &hull,
        &st,
    ));

    // ECO002: per-source cache invariants, and — when neither side
    // truncated — the splice must reproduce the cold enumeration above.
    // The cache runs the facade's configuration, decision budget
    // included, since per-source enumeration prunes far more weakly than
    // a global N-worst run.
    let per_source_cfg = ctx.config().clone().with_per_source_n_worst(true);
    let (mut cache, build_stats) = {
        let enumr =
            PathEnumerator::new(&ctx.netlist, &ctx.lib, &ctx.timing, per_source_cfg.clone());
        SourceCache::build(&enumr)
    };
    let splice_certs = (!plain_truncated && !build_stats.truncated).then_some(&certs);
    findings.extend(sta_lint::audit_source_cache(
        name,
        &ctx.netlist,
        &cache,
        splice_certs,
    ));

    // ECO001/ECO003: one sampled delay-only edit — resize the first
    // resizable gate at or after the middle of the gate list.
    let mut edited = ctx.netlist.clone();
    let gids: Vec<_> = edited.gate_ids().collect();
    let n = gids.len();
    let mut sampled = None;
    for off in 0..n {
        let gid = gids[(n / 2 + off) % n];
        let instance = edited.net_label(edited.gate(gid).output());
        if let Ok(edit) = resize_gate(&mut edited, &ctx.lib, &instance) {
            sampled = Some(edit);
            break;
        }
    }
    match sampled {
        Some(edit) => {
            let dirty = dirty_sources(&edited, &edit);
            let arcs_after = intervals_for(&edited);
            findings.extend(sta_lint::audit_dirty_sources(
                name,
                &ctx.netlist,
                &arcs,
                &edited,
                &arcs_after,
                &edit,
                &dirty,
                slew,
            ));
            // An incremental update must preserve the cache invariants.
            {
                let cfg = per_source_cfg.with_source_filter(std::sync::Arc::new(dirty));
                let enumr = PathEnumerator::new(&edited, &ctx.lib, &ctx.timing, cfg);
                cache.update(&enumr);
            }
            findings.extend(sta_lint::audit_source_cache(name, &edited, &cache, None));
            obs.counter("audit.eco_samples").add(1);
        }
        None => eprintln!("{name}: audit: no resizable gate, ECO edit sample skipped"),
    }
    findings
}

fn cmd_lint(opts: &Opts, args: &[String]) -> Result<(), CliError> {
    if is_batch(opts) {
        return Err(CliError::Usage(
            "lint analyzes a single scenario per circuit; use --corner/--sdc, not \
             --corners/--modes"
                .to_string(),
        ));
    }
    let session = ObsSession::new(opts, args);
    let obs = session.observer();
    let circuits: Vec<String> = if opts.positional.is_empty() {
        catalog::BENCHMARKS
            .iter()
            .map(|b| b.name.to_string())
            .collect()
    } else {
        opts.positional.clone()
    };
    let mut report = LintReport::new();
    let mut library_linted = false;
    if opts.audit_flow {
        // Pre-register the full audit.* counter set before any rule can
        // fire so the metric-name set never depends on what was found.
        sta_lint::register_audit_metrics(&obs);
        obs.counter("audit.flow_runs").add(1);
    }
    for name in &circuits {
        let mut req = base_request(name, opts, &session)?
            .n_worst(opts.nworst)
            .full_enum_path_cap(Some(20_000));
        if name.ends_with(".bench") {
            // A file path instead of a catalog name: parse and map it
            // here, keeping the path as the reporting name.
            let prim = catalog::from_bench_file(std::path::Path::new(name))?;
            req = req.with_netlist(map_netlist(&prim, &Library::standard())?);
        }
        let ctx = req.prepare()?;
        if !library_linted {
            // The library is checked once — it is shared by every circuit.
            library_linted = true;
            let _span = obs.span("lint-library");
            report.extend(lint_library(
                &ctx.lib,
                &ctx.timing,
                ctx.corner,
                &LibLintConfig::default(),
            ));
        }
        {
            let _span = obs.span_with("lint-netlist", vec![("circuit", name.clone())]);
            report.extend(lint_netlist(&ctx.netlist));
        }
        {
            let _span = obs.span_with("lint-schedule", vec![("circuit", name.clone())]);
            report.extend(check_schedule(&ctx.netlist, &ctx.lib));
        }
        if opts.verify_paths {
            // Inject the run's nogood store so what the engine learned
            // can be audited independently afterwards (LEARN rules).
            let nogoods = std::sync::Arc::new(sta_core::NogoodStore::new());
            let run = ctx.enumerate_with_nogood_store(std::sync::Arc::clone(&nogoods));
            // Round-trip through the serialized certificate format so the
            // oracle replays what a consumer would actually read, not the
            // in-memory result.
            let certs = CertificateSet::from_json(
                &CertificateSet::new(&ctx.netlist, ctx.input_slew(), run.paths).to_json(),
            )
            .map_err(CliError::Invalid)?;
            let outcome = {
                let _span = obs.span_with("verify-paths", vec![("circuit", name.clone())]);
                verify_paths(
                    &ctx.netlist,
                    &ctx.lib,
                    &ctx.timing,
                    &certs.paths,
                    certs.input_slew,
                    ctx.corner,
                )
            };
            outcome.record_metrics(&obs);
            eprintln!(
                "{name}: re-certified {}/{} enumerated paths{}",
                outcome.certified,
                outcome.checked,
                if run.stats.truncated {
                    " (enumeration budget hit)"
                } else {
                    ""
                }
            );
            report.extend(outcome.diagnostics);
            let snapshot = nogoods.snapshot();
            if !snapshot.is_empty() {
                let audit = {
                    let _span = obs.span_with("audit-nogoods", vec![("circuit", name.clone())]);
                    sta_lint::audit_nogoods(&ctx.netlist, &ctx.lib, name, &snapshot)
                };
                audit.record_metrics(&obs);
                eprintln!(
                    "{name}: audited {} learned nogoods ({} certified, {} skipped on budget)",
                    audit.checked, audit.certified, audit.skipped
                );
                report.extend(audit.diagnostics);
            }
        }
        if opts.audit_flow {
            let findings = {
                let _span = obs.span_with("audit-flow", vec![("circuit", name.clone())]);
                audit_flow_circuit(name, &ctx, &obs)
            };
            obs.counter("audit.circuits").add(1);
            record_audit_severities(&obs, &findings);
            report.extend(findings);
        }
        drop(ctx);
    }
    if opts.audit_flow {
        // SRV leg, once per invocation: the checked-in serve request
        // schema must agree with the daemon's hand-written parser on
        // every protocol exemplar, and must not have drifted from the
        // protocol's field/enum universe.
        let schema: Value = serde_json::from_str(sta_serve::SERVE_SCHEMA_JSON)
            .map_err(|e| CliError::Invalid(format!("embedded serve schema: {e}")))?;
        let spec = sta_serve::protocol_spec();
        obs.counter("audit.srv_exemplars")
            .add(spec.exemplars.len() as u64);
        let findings = sta_lint::check_serve_protocol(&schema, &spec);
        record_audit_severities(&obs, &findings);
        report.extend(findings);
    }

    if opts.deny_warnings {
        report.deny_warnings();
    }
    report.record_metrics(&obs, "report");
    let rendered = match opts.format {
        OutputFormat::Human => report.render_human(),
        OutputFormat::Json => report.render_json(),
    };
    match &opts.out {
        Some(path) => {
            let mut f = std::fs::File::create(path)
                .map_err(|e| CliError::Io(format!("creating {path}: {e}")))?;
            f.write_all(rendered.as_bytes())
                .map_err(|e| CliError::Io(format!("writing {path}: {e}")))?;
            eprintln!("wrote {path}");
        }
        None => print!("{rendered}"),
    }
    session.finish(opts.config_echo(None), None)?;
    if report.has_errors() {
        Err(CliError::Findings(format!(
            "lint found {} error(s)",
            report.count(sta_lint::Severity::Error)
        )))
    } else {
        Ok(())
    }
}

fn cmd_validate_manifest(opts: &Opts) -> Result<(), CliError> {
    let file = opts
        .positional
        .first()
        .ok_or_else(|| CliError::Usage("validate-manifest needs a manifest file".to_string()))?;
    let text =
        std::fs::read_to_string(file).map_err(|e| CliError::Io(format!("reading {file}: {e}")))?;
    // Shape check: the document must round-trip as a manifest at all.
    let manifest = RunManifest::from_json(&text).map_err(CliError::Invalid)?;
    if manifest.schema_version != sta_obs::SCHEMA_VERSION {
        return Err(CliError::Invalid(format!(
            "{file}: schema_version {} (this tool understands {})",
            manifest.schema_version,
            sta_obs::SCHEMA_VERSION
        )));
    }
    let schema_path = opts
        .schema
        .clone()
        .unwrap_or_else(|| "docs/manifest.schema.json".to_string());
    let schema_text = std::fs::read_to_string(&schema_path)
        .map_err(|e| CliError::Io(format!("reading {schema_path}: {e}")))?;
    let schema: Value = serde_json::from_str(&schema_text)
        .map_err(|e| CliError::Invalid(format!("{schema_path}: {e}")))?;
    let doc: Value =
        serde_json::from_str(&text).map_err(|e| CliError::Invalid(format!("{file}: {e}")))?;
    match sta_obs::schema::validate(&schema, &doc) {
        Ok(()) => {
            println!(
                "{file}: valid run manifest (schema_version {}, {} metric(s), {} span root(s))",
                manifest.schema_version,
                manifest.metrics.metric_names().len(),
                manifest.spans.len()
            );
            Ok(())
        }
        Err(errors) => {
            for e in &errors {
                eprintln!("{file}: {e}");
            }
            Err(CliError::Findings(format!(
                "{file}: {} schema violation(s)",
                errors.len()
            )))
        }
    }
}

fn cmd_serve(opts: &Opts) -> Result<(), CliError> {
    let cfg = sta_serve::ServerConfig {
        char_config: if opts.fast_char {
            CharConfig::fast()
        } else {
            CharConfig::standard()
        },
        cache_dir: std::path::PathBuf::from(".char-cache"),
        input_slew: 60.0,
        obs: Observer::enabled(),
    };
    let mut server = sta_serve::Server::new(cfg);
    let served = match &opts.socket {
        #[cfg(unix)]
        Some(path) => {
            eprintln!("sta-serve: listening on {path} (NDJSON; see docs/serve.schema.json)");
            sta_serve::serve_socket(&mut server, std::path::Path::new(path))?
        }
        #[cfg(not(unix))]
        Some(_) => {
            return Err(CliError::Usage(
                "--socket requires a Unix platform (use stdin/stdout)".to_string(),
            ))
        }
        None => {
            eprintln!("sta-serve: reading NDJSON requests from stdin (see docs/serve.schema.json)");
            sta_serve::serve_stdio(&mut server)?
        }
    };
    eprintln!("sta-serve: session closed after {served} request(s)");
    Ok(())
}

fn load_timing(lib: &Library, tech: &Technology) -> Result<TimingLibrary, CliError> {
    eprintln!("characterizing / loading cache for {} ...", tech.name);
    Ok(characterize_cached(
        lib,
        tech,
        &CharConfig::standard(),
        std::path::Path::new(".char-cache"),
    )?)
}

fn cmd_liberty(opts: &Opts) -> Result<(), CliError> {
    let lib = Library::standard();
    let tlib = load_timing(&lib, &opts.tech)?;
    let text = sta_charlib::liberty::write_liberty(&lib, &tlib);
    match &opts.out {
        Some(path) => {
            let mut f = std::fs::File::create(path)
                .map_err(|e| CliError::Io(format!("creating {path}: {e}")))?;
            f.write_all(text.as_bytes())
                .map_err(|e| CliError::Io(format!("writing {path}: {e}")))?;
            println!("wrote {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}
