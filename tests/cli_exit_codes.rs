//! Exit-code contract of the `sta-repro` binary.
//!
//! The CLI promises stable, format-independent exit codes: `0` success,
//! `1` findings (the tool worked, the design didn't), `2` usage or
//! operational error. This file runs the real binary and pins each
//! category in both output formats.
//!
//! The findings leg uses `slack --required`, the one findings category a
//! well-formed input can reach from the command line: `lint` findings
//! need a defective netlist or library, and the `.bench` parser and
//! technology mapper reject or prune every malformed construct before
//! the lint rules see it (fault-injected lint findings are pinned in
//! `crates/lint/tests/fault_injection.rs` instead).

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sta-repro"))
}

fn run(args: &[&str]) -> (i32, String, String) {
    let out = bin().args(args).output().expect("binary runs");
    (
        out.status.code().expect("binary exits normally"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A tiny well-formed `.bench` file on disk (exercises the lint
/// file-path circuit support end to end).
fn tiny_bench() -> PathBuf {
    let path = std::env::temp_dir().join("sta-cli-exit-codes-tiny.bench");
    std::fs::write(&path, "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = NAND(a, b)\n")
        .expect("temp bench writes");
    path
}

#[test]
fn exit_codes_are_stable_and_format_independent() {
    let bench = tiny_bench();
    let bench = bench.to_str().unwrap();

    // Every analysis invocation uses the coarse characterization grid so
    // a cold cache costs seconds, not minutes (the grid never changes
    // exit-code behavior).

    // 0 — success, both formats, catalog name and .bench path alike.
    for format in ["human", "json"] {
        let (code, stdout, stderr) = run(&["lint", bench, "--format", format, "--fast-char"]);
        assert_eq!(code, 0, "lint {bench} --format {format}: {stdout}{stderr}");
        if format == "json" {
            assert!(
                stdout.contains("\"diagnostics\""),
                "json body expected: {stdout}"
            );
        }
    }

    // 1 — findings: an impossible explicit slack requirement is violated
    // at every endpoint, in both formats.
    for format in ["human", "json"] {
        let (code, stdout, stderr) = run(&[
            "slack",
            "c17",
            "--required",
            "1",
            "--format",
            format,
            "--fast-char",
        ]);
        assert_eq!(
            code, 1,
            "slack --required 1 --format {format}: {stdout}{stderr}"
        );
        assert!(
            stderr.contains("violated"),
            "findings are reported on stderr: {stderr}"
        );
    }

    // 2 — usage and operational errors, independent of format.
    let (code, _, stderr) = run(&["lint", "--format", "yaml"]);
    assert_eq!(code, 2, "unknown format: {stderr}");
    let (code, _, stderr) = run(&["frobnicate"]);
    assert_eq!(code, 2, "unknown command: {stderr}");
    let (code, _, stderr) = run(&["lint", "--audit-floww"]);
    assert_eq!(code, 2, "unknown flag: {stderr}");
    let (code, _, stderr) = run(&["lint", "/nonexistent/missing.bench"]);
    assert_eq!(code, 2, "missing bench file: {stderr}");
    let (code, _, stderr) = run(&["validate-manifest", "/nonexistent/missing.json"]);
    assert_eq!(code, 2, "missing manifest: {stderr}");
    let (code, _, stderr) = run(&["analyze", "c17", "--nworst", "0", "--fast-char"]);
    assert_eq!(code, 2, "zero --nworst: {stderr}");
    assert!(
        stderr.contains("--nworst"),
        "the usage error names the flag: {stderr}"
    );
    for required in ["nan", "inf"] {
        let (code, _, stderr) = run(&["slack", "c17", "--required", required, "--fast-char"]);
        assert_eq!(code, 2, "non-finite --required {required}: {stderr}");
    }
    let (code, _, stderr) = run(&["analyze", "c17", "--corner", "75,inf", "--fast-char"]);
    assert_eq!(code, 2, "non-finite corner supply: {stderr}");
}
