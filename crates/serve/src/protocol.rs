//! The daemon's wire protocol: newline-delimited JSON requests.
//!
//! Every request is an object with an `"op"` discriminator and an
//! optional `"id"` echoed verbatim into the response so clients can
//! pipeline. The checked-in schema `docs/serve.schema.json` (embedded as
//! [`SERVE_SCHEMA_JSON`]) is the one statement of the protocol's field
//! names, types, enums and ranges: past the version check below,
//! [`parse_request`] validates every request against it with
//! `sta_obs::schema` before reading any other field. The parser itself
//! only extracts typed values, applies the documented defaults, and
//! checks which fields each op requires — the one rule the schema subset
//! cannot state. It reads by hand over [`serde::Value`] because the
//! shimmed serde derive has no support for defaulted or optional map
//! fields.
//!
//! # Versioning
//!
//! The protocol is at schema version 2, which added the MCMM surface:
//! the `analyze_batch` op and the `scenario` selector on `paths` and
//! `verify`. Requests may pin a version with an optional
//! `"schema_version"` field; a request without one is served at the
//! current version. Version 2 is the only one spoken: any other pinned
//! version, 1 included, is rejected with an in-band error that names
//! both versions, before the schema is consulted.

use std::sync::OnceLock;

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
        /// Concurrent search jobs, one per technology (default 1; times the session's
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
    /// Run the whole-flow soundness audit (`sta-lint` AI and ECO rules)
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

/// The checked-in wire-protocol schema, embedded so the daemon validates
/// requests without a filesystem lookup. It is the one statement of the
/// protocol's field names, types, enums and ranges.
pub const SERVE_SCHEMA_JSON: &str = include_str!("../../../docs/serve.schema.json");

/// The protocol version this daemon speaks (and serves to requests that
/// do not pin one).
pub const SCHEMA_VERSION: usize = 2;

/// The most worker threads one request may start. Every worker is an OS
/// thread, so without a cap one request could ask for more threads than
/// the host can start. The schema caps `threads` and `batch_threads`
/// each at this value (its `maximum`); since an `analyze_batch` runs
/// `batch_threads` searches at once, each with the session's `threads`
/// workers, the server also refuses a batch whose product of the two
/// exceeds it — a rule the schema subset cannot state.
pub const MAX_THREADS: usize = 64;

/// The embedded schema, parsed on first use.
fn schema() -> &'static Value {
    static SCHEMA: OnceLock<Value> = OnceLock::new();
    SCHEMA.get_or_init(|| {
        serde_json::from_str(SERVE_SCHEMA_JSON).expect("docs/serve.schema.json is valid JSON")
    })
}

fn field<'a>(map: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// The whole number a JSON number spells, if it spells one. The schema's
/// `integer` type admits whole floats, so `2.0` reads as 2.
fn whole_number(v: &Value) -> Option<i128> {
    match *v {
        Value::Int(i) => Some(i.into()),
        Value::UInt(u) => Some(u.into()),
        Value::Float(f) if f.fract() == 0.0 => Some(f as i128),
        _ => None,
    }
}

/// An optional count field. The schema has checked its type and range.
fn opt_count(map: &[(String, Value)], key: &str) -> Option<usize> {
    field(map, key)
        .and_then(whole_number)
        .map(|n| usize::try_from(n).unwrap_or(usize::MAX))
}

fn opt_str(map: &[(String, Value)], key: &str) -> Option<String> {
    match field(map, key) {
        Some(Value::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

/// A field the op requires — which fields each op requires is the one
/// rule the schema subset (no conditionals) cannot state.
fn required<T>(value: Option<T>, key: &str) -> Result<T, String> {
    value.ok_or_else(|| format!("missing field {key:?}"))
}

fn str_field(map: &[(String, Value)], key: &str) -> Result<String, String> {
    required(opt_str(map, key), key)
}

/// Parses one request line. Returns the client's `"id"` value, to be
/// echoed into the reply, with the request or a message describing what
/// is malformed.
///
/// The `id` is read from any line that is a JSON object, before anything
/// is checked, so a refusal can be matched to its request too. A pinned
/// `schema_version` other than 2 is refused first, so a client of another
/// version learns that before anything else. The request is then
/// validated against the embedded schema; what passes is only read:
/// typed values are extracted and defaults applied.
///
/// The message names invalid JSON, a non-object request, an unsupported
/// `schema_version`, every schema violation (`json-pointer: message`,
/// joined by `; `), or a field the op requires that is missing.
pub fn parse_request(line: &str) -> (Option<Value>, Result<Request, String>) {
    let doc: Value = match serde_json::from_str(line.trim()) {
        Ok(doc) => doc,
        Err(e) => return (None, Err(format!("invalid JSON request: {e}"))),
    };
    let Value::Map(map) = &doc else {
        return (None, Err("request must be a JSON object".to_string()));
    };
    (field(map, "id").cloned(), read_request(&doc, map))
}

/// Checks and reads one request object (see [`parse_request`]).
fn read_request(doc: &Value, map: &[(String, Value)]) -> Result<Request, String> {
    if let Some(version) = field(map, "schema_version").and_then(whole_number) {
        if version != SCHEMA_VERSION as i128 {
            return Err(format!(
                "unsupported schema_version {version} (this daemon speaks {SCHEMA_VERSION})"
            ));
        }
    }
    sta_obs::schema::validate(schema(), doc).map_err(|errors| errors.join("; "))?;
    let op = str_field(map, "op")?;
    let req = match op.as_str() {
        "load" => Request::Load {
            circuit: str_field(map, "circuit")?,
            tech: opt_str(map, "tech").unwrap_or_else(|| "90nm".to_string()),
            n_worst: opt_count(map, "nworst"),
            threads: opt_count(map, "threads").unwrap_or(1),
        },
        "edit" => {
            let circuit = str_field(map, "circuit")?;
            let kind = match str_field(map, "kind")?.as_str() {
                "swap" => EditKind::Swap {
                    instance: str_field(map, "instance")?,
                    cell: str_field(map, "cell")?,
                },
                "resize" => EditKind::Resize {
                    instance: str_field(map, "instance")?,
                },
                "rewire" => EditKind::Rewire {
                    instance: str_field(map, "instance")?,
                    pin: required(opt_count(map, "pin"), "pin")?,
                    net: str_field(map, "net")?,
                },
                other => return Err(format!("edit kind {other:?} is not served")),
            };
            Request::Edit { circuit, kind }
        }
        "analyze_batch" => Request::AnalyzeBatch {
            circuit: str_field(map, "circuit")?,
            corners: opt_str(map, "corners"),
            modes: opt_str(map, "modes"),
            n_worst: opt_count(map, "nworst"),
            batch_threads: opt_count(map, "batch_threads").unwrap_or(1),
        },
        "paths" => Request::Paths {
            circuit: str_field(map, "circuit")?,
            limit: opt_count(map, "limit").unwrap_or(10),
            scenario: opt_str(map, "scenario"),
        },
        "slack" => Request::Slack {
            circuit: str_field(map, "circuit")?,
        },
        "verify" => Request::Verify {
            circuit: str_field(map, "circuit")?,
            scenario: opt_str(map, "scenario"),
        },
        "audit" => Request::Audit {
            circuit: opt_str(map, "circuit"),
        },
        "status" => Request::Status,
        "shutdown" => Request::Shutdown,
        other => return Err(format!("op {other:?} is not served")),
    };
    Ok(req)
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

    /// The request a line parses to, or the refusal message.
    fn parse(line: &str) -> Result<Request, String> {
        parse_request(line).1
    }

    #[test]
    fn parses_every_op_with_defaults() {
        let (id, req) = parse_request(r#"{"op":"load","circuit":"c17"}"#);
        assert_eq!(
            req.unwrap(),
            Request::Load {
                circuit: "c17".to_string(),
                tech: "90nm".to_string(),
                n_worst: None,
                threads: 1,
            }
        );
        assert!(id.is_none());

        let (id, req) = parse_request(
            r#"{"id":7,"op":"edit","circuit":"c17","kind":"rewire","instance":"g1","pin":0,"net":"a"}"#,
        );
        assert_eq!(id, Some(Value::Int(7)));
        assert!(matches!(
            req.unwrap(),
            Request::Edit {
                kind: EditKind::Rewire { pin: 0, .. },
                ..
            }
        ));

        let req = parse(r#"{"op":"paths","circuit":"c17","limit":3}"#).unwrap();
        assert_eq!(
            req,
            Request::Paths {
                circuit: "c17".to_string(),
                limit: 3,
                scenario: None,
            }
        );
        assert_eq!(parse(r#"{"op":"status"}"#).unwrap(), Request::Status);
        assert_eq!(parse(r#"{"op":"shutdown"}"#).unwrap(), Request::Shutdown);
    }

    #[test]
    fn schema_version_2_is_the_only_version() {
        // No version pinned = version 2: the MCMM surface parses.
        let req = parse(r#"{"op":"analyze_batch","circuit":"c17","corners":"typ,slow"}"#).unwrap();
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
        let req = parse(r#"{"op":"paths","circuit":"c17","scenario":"typ/func"}"#).unwrap();
        assert!(matches!(&req, Request::Paths { scenario: Some(s), .. } if s == "typ/func"));

        // Pinning 2 is the same as pinning nothing.
        let pinned =
            parse(r#"{"op":"paths","circuit":"c17","scenario":"typ/func","schema_version":2}"#)
                .unwrap();
        assert_eq!(pinned, req);

        // Every other version is rejected outright, the retired 1 included,
        // whatever the op.
        for line in [
            r#"{"op":"paths","circuit":"c17","schema_version":1}"#,
            r#"{"op":"analyze_batch","circuit":"c17","schema_version":1}"#,
        ] {
            let err = parse(line).unwrap_err();
            assert!(err.contains("unsupported schema_version 1"), "{err}");
        }
        let err = parse(r#"{"op":"status","schema_version":3}"#).unwrap_err();
        assert!(err.contains("unsupported schema_version 3"), "{err}");
        let err = parse(r#"{"op":"status","schema_version":0}"#).unwrap_err();
        assert!(err.contains("unsupported schema_version 0"), "{err}");
    }

    #[test]
    fn malformed_requests_are_described() {
        assert!(parse("nonsense").unwrap_err().contains("invalid JSON"));
        assert!(parse("[1,2]").unwrap_err().contains("object"));
        assert!(parse(r#"{"circuit":"c17"}"#)
            .unwrap_err()
            .contains("missing required property \"op\""));
        assert!(parse(r#"{"op":"fly"}"#)
            .unwrap_err()
            .contains("/op: value not in enum"));
        assert!(parse(r#"{"op":"edit","circuit":"c17","kind":"resize"}"#)
            .unwrap_err()
            .contains("missing field \"instance\""));
        assert!(parse(r#"{"op":"load","circuit":17}"#)
            .unwrap_err()
            .contains("/circuit: expected type string"));
        for line in [
            r#"{"op":"load","circuit":"c17","nworst":0}"#,
            r#"{"op":"analyze_batch","circuit":"c17","nworst":0}"#,
        ] {
            let err = parse(line).unwrap_err();
            assert!(err.contains("/nworst: 0 below minimum 1"), "{err}");
        }
        let err = parse(r#"{"op":"load","circuit":"c17","threads":0}"#).unwrap_err();
        assert!(err.contains("/threads: 0 below minimum 1"), "{err}");
        let err =
            parse(r#"{"op":"analyze_batch","circuit":"c17","batch_threads":65}"#).unwrap_err();
        assert!(err.contains("/batch_threads: 65 above maximum 64"), "{err}");
    }

    /// The schema decides what is valid: an unknown field is refused (the
    /// schema sets `additionalProperties: false`), and a whole float is
    /// an integer (the schema's `integer` type admits `2.0`).
    #[test]
    fn the_schema_decides_field_names_and_number_types() {
        let err = parse(r#"{"op":"paths","circuit":"c17","limit":2,"bogus":1}"#).unwrap_err();
        assert!(err.contains("unexpected property \"bogus\""), "{err}");
        let req = parse(r#"{"op":"paths","circuit":"c17","limit":2.0}"#).unwrap();
        assert_eq!(
            req,
            Request::Paths {
                circuit: "c17".to_string(),
                limit: 2,
                scenario: None,
            }
        );
        let err = parse(r#"{"op":"paths","circuit":"c17","limit":2.5}"#).unwrap_err();
        assert!(err.contains("/limit: expected type integer"), "{err}");
    }
}
