//! The daemon's wire protocol: newline-delimited JSON requests.
//!
//! Requests are parsed by hand over [`serde::Value`] — the shimmed serde
//! derive has no support for defaulted or optional map fields, and a wire
//! protocol needs both (most request fields are optional with documented
//! defaults). Every request is an object with an `"op"` discriminator and
//! an optional `"id"` echoed verbatim into the response so clients can
//! pipeline. The machine-readable schema lives in `docs/serve.schema.json`
//! (validated by `sta_obs::schema`; a unit test keeps the two in sync).
//!
//! # Versioning
//!
//! The protocol is at schema version 2, which added the MCMM surface:
//! the `analyze_batch` op and the `scenario` selector on `paths` and
//! `verify`. Requests may pin a version with an optional
//! `"schema_version"` field; a request without one is served at the
//! current version. Version 2 is the only one spoken: any other pinned
//! version, 1 included, is rejected with an in-band error.

use serde::Value;

/// One ECO netlist edit, as carried by an `edit` request.
#[derive(Clone, Debug, PartialEq)]
pub enum EditKind {
    /// Swap an instance to a named cell (`sta_circuits::swap_gate`).
    Swap {
        /// Instance name (= the name of its output net).
        instance: String,
        /// Replacement cell name.
        cell: String,
    },
    /// Toggle an instance between drive variants
    /// (`sta_circuits::resize_gate`).
    Resize {
        /// Instance name.
        instance: String,
    },
    /// Reconnect one input pin to another net
    /// (`sta_circuits::rewire_net`).
    Rewire {
        /// Instance name.
        instance: String,
        /// Input pin position.
        pin: usize,
        /// Name of the new source net.
        net: String,
    },
}

/// A parsed daemon request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Load a catalog circuit and run the initial full analysis.
    Load {
        /// Catalog circuit name.
        circuit: String,
        /// Technology name (default `90nm`).
        tech: String,
        /// Keep the N worst paths (default: full enumeration).
        n_worst: Option<usize>,
        /// Enumeration worker threads (default 1, at most
        /// [`MAX_THREADS`]).
        threads: usize,
    },
    /// Apply an ECO edit and re-analyze incrementally.
    Edit {
        /// Loaded circuit the edit applies to.
        circuit: String,
        /// The edit operation.
        kind: EditKind,
    },
    /// Run a whole MCMM scenario matrix over the resident netlist
    /// revision (schema version 2).
    AnalyzeBatch {
        /// Loaded circuit to analyze.
        circuit: String,
        /// Comma-separated corner specs in the CLI `--corners` grammar
        /// (default: the session's nominal corner).
        corners: Option<String>,
        /// Comma-separated `name=PERIOD_PS` mode specs (default: one
        /// unconstrained mode).
        modes: Option<String>,
        /// Keep the N worst paths per scenario (default: full
        /// enumeration).
        n_worst: Option<usize>,
        /// Concurrent scenario jobs (default 1; times the session's
        /// `threads`, at most [`MAX_THREADS`]).
        batch_threads: usize,
    },
    /// Report the worst cached paths.
    Paths {
        /// Loaded circuit to query.
        circuit: String,
        /// Maximum paths to return (default 10).
        limit: usize,
        /// Read paths of one resident batch scenario (`corner/mode`)
        /// instead of the spliced ECO cache (schema version 2).
        scenario: Option<String>,
    },
    /// Report the circuit's slack summary at its current revision.
    Slack {
        /// Loaded circuit to query.
        circuit: String,
    },
    /// Prove the spliced cache against a cold re-run (digest comparison).
    Verify {
        /// Loaded circuit to verify.
        circuit: String,
        /// Verify one resident batch scenario against an independent
        /// single-scenario re-run instead (schema version 2).
        scenario: Option<String>,
    },
    /// Run the whole-flow soundness audit (`sta-lint` AI/ECO/SRV rules)
    /// over one resident circuit, or over every resident circuit.
    Audit {
        /// Loaded circuit to audit (default: all resident circuits).
        circuit: Option<String>,
    },
    /// Report the session manifest (resident circuits, counters, metrics).
    Status,
    /// Acknowledge and terminate the session.
    Shutdown,
}

/// The checked-in wire-protocol schema, embedded so the daemon (and the
/// `audit` op) can validate requests without a filesystem lookup.
pub const SERVE_SCHEMA_JSON: &str = include_str!("../../../docs/serve.schema.json");

/// The protocol version this daemon speaks (and serves to requests that
/// do not pin one).
pub const SCHEMA_VERSION: usize = 2;

/// The most worker threads one request may start. Every worker is an OS
/// thread, so without a cap one request could ask for more threads than
/// the host can start. The parser caps `threads` and `batch_threads`
/// each at this value (the schema's `maximum`); since an `analyze_batch`
/// runs `batch_threads` searches at once, each with the session's
/// `threads` workers, the server also refuses a batch whose product of
/// the two exceeds it — a rule the schema subset cannot state.
pub const MAX_THREADS: usize = 64;

fn field<'a>(map: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn str_field(map: &[(String, Value)], key: &str) -> Result<String, String> {
    match field(map, key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        Some(_) => Err(format!("field {key:?} must be a string")),
        None => Err(format!("missing field {key:?}")),
    }
}

fn opt_usize_field(map: &[(String, Value)], key: &str) -> Result<Option<usize>, String> {
    match field(map, key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Int(i)) if *i >= 0 => Ok(Some(*i as usize)),
        Some(Value::UInt(u)) => Ok(Some(*u as usize)),
        Some(_) => Err(format!("field {key:?} must be a non-negative integer")),
    }
}

/// An optional count in `1..=max` (the schema's `minimum: 1` and
/// `maximum`). A count of 0 asks for nothing — no paths, no workers — so
/// it is refused rather than rounded up.
fn opt_count_field(
    map: &[(String, Value)],
    key: &str,
    max: usize,
) -> Result<Option<usize>, String> {
    match opt_usize_field(map, key)? {
        Some(0) => Err(format!("field {key:?} must be at least 1")),
        Some(n) if n > max => Err(format!("field {key:?} must be at most {max}")),
        n => Ok(n),
    }
}

fn opt_str_field(map: &[(String, Value)], key: &str) -> Result<Option<String>, String> {
    match field(map, key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(format!("field {key:?} must be a string")),
    }
}

/// Parses one request line. Returns the request and the client's `"id"`
/// value (echoed into the response), or a message describing what is
/// malformed.
///
/// # Errors
///
/// Returns a human-readable message for invalid JSON, a non-object
/// request, a missing or unknown `"op"`, or missing/mistyped fields.
pub fn parse_request(line: &str) -> Result<(Request, Option<Value>), String> {
    let doc: Value =
        serde_json::from_str(line.trim()).map_err(|e| format!("invalid JSON request: {e}"))?;
    let Value::Map(map) = doc else {
        return Err("request must be a JSON object".to_string());
    };
    let id = field(&map, "id").cloned();
    let version = opt_usize_field(&map, "schema_version")?.unwrap_or(SCHEMA_VERSION);
    if version != SCHEMA_VERSION {
        return Err(format!(
            "unsupported schema_version {version} (this daemon speaks {SCHEMA_VERSION})"
        ));
    }
    let op = str_field(&map, "op")?;
    let req = match op.as_str() {
        "load" => Request::Load {
            circuit: str_field(&map, "circuit")?,
            tech: opt_str_field(&map, "tech")?.unwrap_or_else(|| "90nm".to_string()),
            n_worst: opt_count_field(&map, "nworst", usize::MAX)?,
            threads: opt_count_field(&map, "threads", MAX_THREADS)?.unwrap_or(1),
        },
        "edit" => {
            let circuit = str_field(&map, "circuit")?;
            let kind = match str_field(&map, "kind")?.as_str() {
                "swap" => EditKind::Swap {
                    instance: str_field(&map, "instance")?,
                    cell: str_field(&map, "cell")?,
                },
                "resize" => EditKind::Resize {
                    instance: str_field(&map, "instance")?,
                },
                "rewire" => EditKind::Rewire {
                    instance: str_field(&map, "instance")?,
                    pin: opt_usize_field(&map, "pin")?
                        .ok_or_else(|| "missing field \"pin\"".to_string())?,
                    net: str_field(&map, "net")?,
                },
                other => {
                    return Err(format!(
                        "unknown edit kind {other:?} (expected swap | resize | rewire)"
                    ))
                }
            };
            Request::Edit { circuit, kind }
        }
        "analyze_batch" => Request::AnalyzeBatch {
            circuit: str_field(&map, "circuit")?,
            corners: opt_str_field(&map, "corners")?,
            modes: opt_str_field(&map, "modes")?,
            n_worst: opt_count_field(&map, "nworst", usize::MAX)?,
            batch_threads: opt_count_field(&map, "batch_threads", MAX_THREADS)?.unwrap_or(1),
        },
        "paths" => Request::Paths {
            circuit: str_field(&map, "circuit")?,
            limit: opt_count_field(&map, "limit", usize::MAX)?.unwrap_or(10),
            scenario: opt_str_field(&map, "scenario")?,
        },
        "slack" => Request::Slack {
            circuit: str_field(&map, "circuit")?,
        },
        "verify" => Request::Verify {
            circuit: str_field(&map, "circuit")?,
            scenario: opt_str_field(&map, "scenario")?,
        },
        "audit" => Request::Audit {
            circuit: opt_str_field(&map, "circuit")?,
        },
        "status" => Request::Status,
        "shutdown" => Request::Shutdown,
        other => return Err(format!("unknown op {other:?}")),
    };
    Ok((req, id))
}

/// The daemon's protocol self-description for the SRV audit rules: enum
/// sets and field universe mirroring [`parse_request`], plus annotated
/// exemplar lines whose `parser_accepts` verdicts are computed against
/// the *real* parser — so the lint check compares the live parser, not a
/// transcription of it, against the checked-in schema.
pub fn protocol_spec() -> sta_lint::ProtocolSpec {
    let ops = [
        "load",
        "edit",
        "analyze_batch",
        "paths",
        "slack",
        "verify",
        "audit",
        "status",
        "shutdown",
    ];
    let kinds = ["swap", "resize", "rewire"];
    let techs = ["130nm", "90nm", "65nm"];
    let fields = [
        "op",
        "id",
        "schema_version",
        "circuit",
        "tech",
        "nworst",
        "threads",
        "kind",
        "instance",
        "cell",
        "pin",
        "net",
        "limit",
        "corners",
        "modes",
        "scenario",
        "batch_threads",
    ];
    // (description, line, schema_should_accept)
    let exemplars: [(&str, &str, bool); 24] = [
        (
            "load-full",
            r#"{"op":"load","circuit":"c17","tech":"90nm","nworst":10,"threads":2}"#,
            true,
        ),
        (
            "edit-swap",
            r#"{"id":1,"op":"edit","circuit":"c17","kind":"swap","instance":"g1","cell":"NAND2_X2"}"#,
            true,
        ),
        (
            "edit-rewire",
            r#"{"op":"edit","circuit":"c17","kind":"rewire","instance":"g1","pin":0,"net":"a"}"#,
            true,
        ),
        ("paths", r#"{"op":"paths","circuit":"c17","limit":5}"#, true),
        ("slack", r#"{"op":"slack","circuit":"c17"}"#, true),
        ("verify", r#"{"op":"verify","circuit":"c17"}"#, true),
        (
            "analyze-batch",
            r#"{"op":"analyze_batch","circuit":"c17","corners":"typ,slow","modes":"func=600,test=900","nworst":10,"batch_threads":2}"#,
            true,
        ),
        (
            "paths-scenario",
            r#"{"op":"paths","circuit":"c17","scenario":"typ/func","limit":5,"schema_version":2}"#,
            true,
        ),
        (
            "verify-scenario",
            r#"{"op":"verify","circuit":"c17","scenario":"typ/func"}"#,
            true,
        ),
        (
            "future-version",
            r#"{"op":"status","schema_version":3}"#,
            false,
        ),
        (
            "retired-version",
            r#"{"op":"status","schema_version":1}"#,
            false,
        ),
        ("audit-one", r#"{"op":"audit","circuit":"c17"}"#, true),
        ("audit-all", r#"{"op":"audit"}"#, true),
        ("status", r#"{"op":"status"}"#, true),
        ("shutdown", r#"{"op":"shutdown"}"#, true),
        ("missing-op", r#"{"circuit":"c17"}"#, false),
        ("unknown-op", r#"{"op":"fly"}"#, false),
        (
            "unknown-tech",
            r#"{"op":"load","circuit":"c17","tech":"45nm"}"#,
            false,
        ),
        (
            "unknown-field",
            r#"{"op":"load","circuit":"c17","bogus":1}"#,
            false,
        ),
        (
            "zero-limit",
            r#"{"op":"paths","circuit":"c17","limit":0}"#,
            false,
        ),
        (
            "zero-nworst",
            r#"{"op":"load","circuit":"c17","nworst":0}"#,
            false,
        ),
        (
            "zero-threads",
            r#"{"op":"load","circuit":"c17","threads":0}"#,
            false,
        ),
        (
            "zero-batch-threads",
            r#"{"op":"analyze_batch","circuit":"c17","batch_threads":0}"#,
            false,
        ),
        (
            "oversized-threads",
            r#"{"op":"load","circuit":"c17","threads":65}"#,
            false,
        ),
    ];
    sta_lint::ProtocolSpec {
        ops: ops.iter().map(|s| s.to_string()).collect(),
        kinds: kinds.iter().map(|s| s.to_string()).collect(),
        techs: techs.iter().map(|s| s.to_string()).collect(),
        fields: fields.iter().map(|s| s.to_string()).collect(),
        exemplars: exemplars
            .iter()
            .map(|&(desc, line, schema_ok)| sta_lint::ProtocolExemplar {
                description: desc.to_string(),
                line: line.to_string(),
                parser_accepts: parse_request(line).is_ok(),
                schema_should_accept: schema_ok,
            })
            .collect(),
    }
}

/// Fault injector: removes one property from a parsed schema document so
/// the SRV002 field-universe comparison fires. Returns `false` when the
/// schema has no such property.
pub fn drift_schema_field(schema: &mut Value, field: &str) -> bool {
    let Value::Map(entries) = schema else {
        return false;
    };
    let Some(Value::Map(props)) = entries
        .iter_mut()
        .find(|(k, _)| k == "properties")
        .map(|(_, v)| v)
    else {
        return false;
    };
    let before = props.len();
    props.retain(|(k, _)| k != field);
    props.len() != before
}

/// Fault injector: drops the last entry of a property's string enum
/// (e.g. an op or tech name) so the SRV002 enum-set comparison fires —
/// and, for `op`, so exemplars of the dropped op flip to
/// schema-rejected, which SRV001 reports as a parser/schema
/// disagreement. Returns `false` when the property has no enum to
/// shrink.
pub fn drift_schema_enum(schema: &mut Value, prop: &str) -> bool {
    let Value::Map(entries) = schema else {
        return false;
    };
    let Some(Value::Map(props)) = entries
        .iter_mut()
        .find(|(k, _)| k == "properties")
        .map(|(_, v)| v)
    else {
        return false;
    };
    let Some(Value::Map(p)) = props.iter_mut().find(|(k, _)| k == prop).map(|(_, v)| v) else {
        return false;
    };
    let Some(Value::Seq(en)) = p.iter_mut().find(|(k, _)| k == "enum").map(|(_, v)| v) else {
        return false;
    };
    en.pop().is_some()
}

/// Builds a JSON object value from string keys (insertion-ordered).
pub(crate) fn jmap(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Shorthand for a JSON string value.
pub(crate) fn jstr(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op_with_defaults() {
        let (req, id) = parse_request(r#"{"op":"load","circuit":"c17"}"#).unwrap();
        assert_eq!(
            req,
            Request::Load {
                circuit: "c17".to_string(),
                tech: "90nm".to_string(),
                n_worst: None,
                threads: 1,
            }
        );
        assert!(id.is_none());

        let (req, id) = parse_request(
            r#"{"id":7,"op":"edit","circuit":"c17","kind":"rewire","instance":"g1","pin":0,"net":"a"}"#,
        )
        .unwrap();
        assert_eq!(id, Some(Value::Int(7)));
        assert!(matches!(
            req,
            Request::Edit {
                kind: EditKind::Rewire { pin: 0, .. },
                ..
            }
        ));

        let (req, _) = parse_request(r#"{"op":"paths","circuit":"c17","limit":3}"#).unwrap();
        assert_eq!(
            req,
            Request::Paths {
                circuit: "c17".to_string(),
                limit: 3,
                scenario: None,
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"status"}"#).unwrap().0,
            Request::Status
        );
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap().0,
            Request::Shutdown
        );
    }

    #[test]
    fn schema_version_2_is_the_only_version() {
        // No version pinned = version 2: the MCMM surface parses.
        let (req, _) =
            parse_request(r#"{"op":"analyze_batch","circuit":"c17","corners":"typ,slow"}"#)
                .unwrap();
        assert_eq!(
            req,
            Request::AnalyzeBatch {
                circuit: "c17".to_string(),
                corners: Some("typ,slow".to_string()),
                modes: None,
                n_worst: None,
                batch_threads: 1,
            }
        );
        let (req, _) =
            parse_request(r#"{"op":"paths","circuit":"c17","scenario":"typ/func"}"#).unwrap();
        assert!(matches!(&req, Request::Paths { scenario: Some(s), .. } if s == "typ/func"));

        // Pinning 2 is the same as pinning nothing.
        let (pinned, _) = parse_request(
            r#"{"op":"paths","circuit":"c17","scenario":"typ/func","schema_version":2}"#,
        )
        .unwrap();
        assert_eq!(pinned, req);

        // Every other version is rejected outright, the retired 1 included,
        // whatever the op.
        for line in [
            r#"{"op":"paths","circuit":"c17","schema_version":1}"#,
            r#"{"op":"analyze_batch","circuit":"c17","schema_version":1}"#,
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains("unsupported schema_version 1"), "{err}");
        }
        let err = parse_request(r#"{"op":"status","schema_version":3}"#).unwrap_err();
        assert!(err.contains("unsupported schema_version 3"), "{err}");
        let err = parse_request(r#"{"op":"status","schema_version":0}"#).unwrap_err();
        assert!(err.contains("unsupported schema_version 0"), "{err}");
    }

    #[test]
    fn malformed_requests_are_described() {
        assert!(parse_request("nonsense")
            .unwrap_err()
            .contains("invalid JSON"));
        assert!(parse_request("[1,2]").unwrap_err().contains("object"));
        assert!(parse_request(r#"{"circuit":"c17"}"#)
            .unwrap_err()
            .contains("\"op\""));
        assert!(parse_request(r#"{"op":"fly"}"#)
            .unwrap_err()
            .contains("unknown op"));
        assert!(
            parse_request(r#"{"op":"edit","circuit":"c17","kind":"resize"}"#)
                .unwrap_err()
                .contains("instance")
        );
        assert!(parse_request(r#"{"op":"load","circuit":17}"#)
            .unwrap_err()
            .contains("string"));
        for line in [
            r#"{"op":"load","circuit":"c17","nworst":0}"#,
            r#"{"op":"analyze_batch","circuit":"c17","nworst":0}"#,
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains("\"nworst\" must be at least 1"), "{err}");
        }
        let err = parse_request(r#"{"op":"load","circuit":"c17","threads":0}"#).unwrap_err();
        assert!(err.contains("\"threads\" must be at least 1"), "{err}");
        let err = parse_request(r#"{"op":"analyze_batch","circuit":"c17","batch_threads":65}"#)
            .unwrap_err();
        assert!(
            err.contains("\"batch_threads\" must be at most 64"),
            "{err}"
        );
    }
}
