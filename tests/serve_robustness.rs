//! The timing daemon survives bad input.
//!
//! A malformed line, an unknown op, a zero `nworst` and a request pinned
//! to an unsupported `schema_version` each get an in-band
//! `{"ok":false,...}` reply from the real `serve` binary. The session
//! keeps answering afterwards, and the process exits 0 at `shutdown`.

use std::io::Write as _;
use std::process::{Command, Stdio};

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
        (&lines[1], "unknown op"),
        (&lines[2], "must be at least 1"),
        (&lines[3], "must be at least 1"),
        (&lines[4], "unsupported schema_version 1"),
    ] {
        assert!(line.contains(r#""ok":false"#), "rejected: {line}");
        assert!(line.contains(why), "reply names {why:?}: {line}");
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
