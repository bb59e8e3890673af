//! The timing daemon survives bad input.
//!
//! A malformed line, an unknown op, a zero `nworst` and a request pinned
//! to an unsupported `schema_version` each get an in-band
//! `{"ok":false,...}` reply from the real `serve` binary, carrying the
//! request's `id` whenever the line is an object. The session keeps
//! answering afterwards, and the process exits 0 at `shutdown`.
//! A fuzzer drives the request loop of an in-process daemon with
//! generated sessions of valid and invalid requests.

use std::io::Write as _;
use std::process::{Command, Stdio};

use proptest::prelude::*;
use serde::Value;
use sta_charlib::CharConfig;
use sta_obs::Observer;
use sta_serve::{serve_lines, Server, ServerConfig, SERVE_SCHEMA_JSON};

/// Pipes `requests` (one per line) through `sta-repro serve --fast-char`
/// and returns the reply lines after checking the process exited 0.
fn serve_session(requests: &[&str]) -> Vec<String> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sta-repro"))
        .args(["serve", "--fast-char"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve binary spawns");
    {
        let stdin = child.stdin.as_mut().expect("stdin is piped");
        for line in requests {
            writeln!(stdin, "{line}").unwrap();
        }
    }
    let out = child.wait_with_output().expect("serve session finishes");
    assert!(out.status.success(), "serve exited with {:?}", out.status);
    String::from_utf8(out.stdout)
        .expect("replies are UTF-8")
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn rejected_requests_leave_the_daemon_serving() {
    let lines = serve_session(&[
        r#"{"id":1,"op":"load","circuit":"c17""#,
        r#"{"id":2,"op":"fly"}"#,
        r#"{"id":3,"op":"load","circuit":"c17","nworst":0}"#,
        r#"{"id":4,"op":"analyze_batch","circuit":"c17","corners":"typ,slow","nworst":0}"#,
        r#"{"id":5,"op":"status","schema_version":1}"#,
        r#"{"id":6,"op":"load","circuit":"c17","nworst":5}"#,
        r#"{"id":7,"op":"paths","circuit":"c17","limit":2}"#,
        r#"{"id":8,"op":"shutdown"}"#,
    ]);
    assert_eq!(lines.len(), 8, "one reply line per request: {lines:?}");
    for (line, why) in [
        (&lines[0], "invalid JSON request"),
        (&lines[1], "/op: value not in enum"),
        (&lines[2], "/nworst: 0 below minimum 1"),
        (&lines[3], "/nworst: 0 below minimum 1"),
        (&lines[4], "unsupported schema_version 1"),
    ] {
        assert!(line.contains(r#""ok":false"#), "rejected: {line}");
        assert!(line.contains(why), "reply names {why:?}: {line}");
    }
    // Broken JSON has no id to echo; every refused object echoes its own.
    assert!(!lines[0].contains(r#""id""#), "{}", lines[0]);
    for (id, line) in (2..).zip(&lines[1..5]) {
        assert!(
            line.contains(&format!(r#""id":{id}"#)),
            "refusal echoes id {id}: {line}"
        );
    }
    for line in &lines[5..] {
        assert!(line.contains(r#""ok":true"#), "served after errors: {line}");
    }
    assert!(
        lines[7].contains(r#""requests":8"#) && lines[7].contains(r#""errors":5"#),
        "shutdown reports every request and every rejection: {}",
        lines[7]
    );
}

/// Every request field of the schema with the JSON values the fuzzer
/// sends for it: values the daemon serves first, then values it must
/// refuse in-band (by the schema or by the server). The pools keep each
/// request cheap (c17 at 90 nm, at most two workers, at most two
/// corners), not free of defects.
const FIELDS: &[(&str, &[&str], &[&str])] = &[
    (
        "op",
        &[
            r#""load""#,
            r#""edit""#,
            r#""analyze_batch""#,
            r#""paths""#,
            r#""slack""#,
            r#""verify""#,
            r#""audit""#,
            r#""status""#,
        ],
        &[r#""fly""#, "7", "null"],
    ),
    ("id", &["1", r#""a""#, "null", "[1,{}]"], &[]),
    ("schema_version", &["2", "2.0"], &["1", "3", r#""2""#, "-1"]),
    ("circuit", &[r#""c17""#], &[r#""c9999""#, "17", "null"]),
    ("tech", &[r#""90nm""#], &[r#""45nm""#, "90"]),
    (
        "nworst",
        &["1", "5", "10", "1e300"],
        &["0", "-3", r#""10""#, "1.5", "null"],
    ),
    ("threads", &["1", "2"], &["0", "65", "-1", r#""2""#, "2.5"]),
    (
        "kind",
        &[r#""swap""#, r#""resize""#, r#""rewire""#],
        &[r#""teleport""#, "1"],
    ),
    (
        "instance",
        &[r#""n6""#, r#""n16""#, r#""n\u0031\u0032""#],
        &[r#""nope""#, "[]"],
    ),
    (
        "cell",
        &[r#""NAND2_X2""#, r#""NAND2""#, r#""INV""#],
        &[r#""NOPE""#, "{}"],
    ),
    ("pin", &["0", "1"], &["7", "1e300", "-1", r#""0""#]),
    ("net", &[r#""3""#, r#""n16""#], &[r#""nope""#, "false"]),
    (
        "limit",
        &["1", "3", "2.0", "18446744073709551615"],
        &["0", "-1", r#""3""#, "true"],
    ),
    (
        "corners",
        &[
            r#""typ""#,
            r#""slow""#,
            r#""typ,slow""#,
            r#""fast,typ""#,
            r#""typ,typ""#,
        ],
        &[r#""bogus""#, r#""75,inf""#, r#""""#, "2"],
    ),
    (
        "modes",
        &[
            r#""func=600""#,
            r#""func=600,test=900""#,
            r#""a=600,a=700""#,
        ],
        &[r#""func""#, r#""func=-5""#, r#""""#, "600"],
    ),
    (
        "scenario",
        &[r#""typ/func""#, r#""slow/test""#],
        &[r#""nope""#, "0"],
    ),
    (
        "batch_threads",
        &["1", "2"],
        &["0", "65", "-1", r#""2""#, "2.5"],
    ),
];

/// Keys no schema property names.
const UNKNOWN_KEYS: &[&str] = &["bogus", "", "Op", "n_worst"];

/// Lines that are not request objects: broken JSON and non-objects.
const NOT_OBJECTS: &[&str] = &[
    r#"{"op":"load","circuit":"c17""#,
    r#"{"op":"paths",}"#,
    "[1,2]",
    "42",
    r#""status""#,
    "null",
    "true",
];

/// The fields each op reads besides `circuit` (the schema's `$comment`
/// lists them). The fuzzer sends them more often than the rest, so that
/// generated requests reach past the parser.
const OP_FIELDS: &[(&str, &[&str])] = &[
    (r#""load""#, &["tech", "nworst", "threads"]),
    (r#""edit""#, &["kind", "instance", "cell", "pin", "net"]),
    (
        r#""analyze_batch""#,
        &["corners", "modes", "nworst", "batch_threads"],
    ),
    (r#""paths""#, &["limit", "scenario"]),
    (r#""verify""#, &["scenario"]),
];

/// Picks a value from a field's pools, valid at least two times in three.
fn pick(valid: &[&'static str], invalid: &[&'static str], roll: usize) -> &'static str {
    if invalid.is_empty() || !roll.is_multiple_of(3) {
        valid[roll / 3 % valid.len()]
    } else {
        [valid, invalid].concat()[roll / 3 % (valid.len() + invalid.len())]
    }
}

/// One generated line: a request object most of the time, else a line
/// that is not one. `rolls` holds one roll per [`FIELDS`] entry plus one
/// for an unknown key. A roll's last digit decides whether its field is
/// sent (nine times in ten for `op`, eight for `circuit` and the fields
/// the op reads, one for the rest); the other digits pick the value.
fn request_line((shape, rolls, junk): (usize, Vec<usize>, String)) -> String {
    match shape {
        0 => return NOT_OBJECTS[rolls[0] % NOT_OBJECTS.len()].to_string(),
        1 => return junk,
        _ => {}
    }
    let (_, valid, invalid) = FIELDS[0];
    let op = pick(valid, invalid, rolls[0] / 10);
    let reads = OP_FIELDS
        .iter()
        .find(|(name, _)| *name == op)
        .map_or(&[][..], |(_, fields)| fields);
    let mut entries: Vec<(&str, &str)> = Vec::new();
    for (&(name, valid, invalid), &roll) in FIELDS.iter().zip(&rolls) {
        let sent = match name {
            "op" => 9,
            "circuit" => 8,
            _ if reads.contains(&name) => 8,
            _ => 1,
        };
        if roll % 10 < sent {
            entries.push((name, pick(valid, invalid, roll / 10)));
        }
    }
    let unknown = rolls[FIELDS.len()];
    if unknown.is_multiple_of(10) {
        entries.push((UNKNOWN_KEYS[unknown / 10 % UNKNOWN_KEYS.len()], "1"));
    }
    let body: Vec<String> = entries.iter().map(|(k, v)| format!("{k:?}:{v}")).collect();
    format!("{{{}}}", body.join(","))
}

fn session_lines() -> impl Strategy<Value = Vec<String>> {
    let rolls = FIELDS.len() + 1;
    let line = (
        0usize..12,
        prop::collection::vec(0usize..10_000, rolls..rolls + 1),
        "[!-~][ -~\t\u{e9}\u{20ac}]{0,30}",
    )
        .prop_map(request_line);
    // Each session opens on a load, so the generated requests meet a
    // resident circuit from the first line on.
    prop::collection::vec(line, 32..65).prop_map(|mut lines| {
        lines.insert(0, r#"{"op":"load","circuit":"c17","nworst":5}"#.to_string());
        lines
    })
}

fn get<'a>(doc: &'a Value, key: &str) -> Option<&'a Value> {
    match doc {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn count(v: Option<&Value>) -> Option<u64> {
    match v? {
        Value::Int(i) => u64::try_from(*i).ok(),
        Value::UInt(u) => Some(*u),
        _ => None,
    }
}

/// The fuzzer sends every request field the schema defines.
#[test]
fn fuzzer_covers_every_schema_field() {
    let schema: Value = serde_json::from_str(SERVE_SCHEMA_JSON).unwrap();
    let Some(Value::Map(props)) = get(&schema, "properties") else {
        panic!("the schema has no properties")
    };
    let mut schema_fields: Vec<&str> = props.iter().map(|(k, _)| k.as_str()).collect();
    let mut fuzzed: Vec<&str> = FIELDS.iter().map(|(name, _, _)| *name).collect();
    schema_fields.sort_unstable();
    fuzzed.sort_unstable();
    assert_eq!(fuzzed, schema_fields);
    for key in UNKNOWN_KEYS {
        assert!(!schema_fields.contains(key), "{key:?} is a schema field");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Each generated line gets exactly one reply line with a boolean
    /// `ok`; only schema-valid requests are served; a reply to an object
    /// line with an `id` echoes that id verbatim, refusals included; the
    /// session manifest of a closing `status` counts every line and every
    /// refusal. (`shutdown` is not generated: it ends the loop.)
    fn request_loop_survives_generated_sessions(lines in session_lines()) {
        let schema: Value = serde_json::from_str(SERVE_SCHEMA_JSON).unwrap();
        let mut server = Server::new(ServerConfig {
            char_config: CharConfig::fast(),
            cache_dir: std::env::temp_dir().join("sta-serve-fuzz-cache"),
            input_slew: 60.0,
            obs: Observer::enabled(),
        });
        let input = format!("{}\n{{\"op\":\"status\"}}\n", lines.join("\n"));
        let mut output = Vec::new();
        let served = serve_lines(&mut server, input.as_bytes(), &mut output).unwrap();
        let replies: Vec<&str> = std::str::from_utf8(&output).unwrap().lines().collect();
        prop_assert_eq!(served as usize, lines.len() + 1);
        prop_assert_eq!(replies.len(), lines.len() + 1, "one reply line per request");

        let mut refused = 0u64;
        for (line, reply) in lines.iter().zip(&replies) {
            let doc: Value = serde_json::from_str(reply)
                .map_err(|e| TestCaseError::fail(format!("reply {reply}: {e}")))?;
            if let Ok(request) = serde_json::from_str::<Value>(line) {
                if let Some(id) = get(&request, "id") {
                    prop_assert_eq!(get(&doc, "id"), Some(id), "id of {} -> {}", line, reply);
                }
            }
            match get(&doc, "ok") {
                Some(Value::Bool(true)) => {
                    let request: Value = serde_json::from_str(line).unwrap();
                    prop_assert!(
                        sta_obs::schema::validate(&schema, &request).is_ok(),
                        "served a request the schema refuses: {line} -> {reply}"
                    );
                }
                Some(Value::Bool(false)) => refused += 1,
                _ => prop_assert!(false, "reply without a boolean ok: {line} -> {reply}"),
            }
        }

        let status: Value = serde_json::from_str(replies[lines.len()]).unwrap();
        prop_assert_eq!(get(&status, "ok"), Some(&Value::Bool(true)));
        prop_assert_eq!(get(&status, "op"), Some(&Value::Str("status".to_string())));
        let session = get(&status, "session");
        let requests = count(session.and_then(|s| get(s, "requests")));
        prop_assert_eq!(requests, Some(lines.len() as u64 + 1));
        prop_assert_eq!(count(session.and_then(|s| get(s, "errors"))), Some(refused));
    }
}
