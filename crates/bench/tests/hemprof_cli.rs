//! CLI contract tests for the `hemprof` binary — in particular the
//! documented exit codes of `hemprof diff`:
//!
//! * 0 — reports compared (even when the numbers differ);
//! * 1 — an input is unreadable or not a rollup JSON;
//! * 2 — usage error (missing operands, unknown flags or flag values);
//! * 3 — the reports profile different kernels or machine sizes.
//!
//! CI keys on 3 vs 1: a mismatch means "this delta is meaningless",
//! while 1 means the tool or its inputs are broken.

use std::path::PathBuf;
use std::process::{Command, Output};

fn hemprof(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hemprof"))
        .args(args)
        .output()
        .expect("spawn hemprof")
}

/// Run a kernel with `--report json` and park the report in a temp file.
fn report_to_file(args: &[&str], name: &str) -> PathBuf {
    let out = hemprof(args);
    assert!(
        out.status.success(),
        "kernel run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let path = std::env::temp_dir().join(format!("hemprof_cli_{}_{name}", std::process::id()));
    std::fs::write(&path, &out.stdout).expect("write report");
    path
}

#[test]
fn diff_exit_codes_distinguish_mismatch_from_breakage() {
    let a = report_to_file(
        &["sor", "--p", "4", "--size", "8", "--report", "json"],
        "a.json",
    );
    let a2 = report_to_file(
        &["sor", "--p", "4", "--size", "8", "--report", "json"],
        "a2.json",
    );
    let b = report_to_file(
        &["sor", "--p", "16", "--size", "8", "--report", "json"],
        "b.json",
    );

    // Same configuration: a zero-delta diff, exit 0.
    let out = hemprof(&["diff", a.to_str().unwrap(), a2.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "identical configs diff cleanly");

    // Different machine size: documented mismatch code 3, with the
    // refusal explained on stderr.
    let out = hemprof(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3), "p=4 vs p=16 is a mismatch");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("refusing to diff mismatched runs"),
        "stderr explains the refusal"
    );

    // Unreadable input: I/O failure, exit 1 — not 3.
    let missing = std::env::temp_dir().join("hemprof_cli_definitely_missing.json");
    let out = hemprof(&["diff", a.to_str().unwrap(), missing.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "missing file is breakage");

    // Invalid JSON: also breakage, exit 1.
    let garbage = std::env::temp_dir().join(format!("hemprof_cli_{}_garbage", std::process::id()));
    std::fs::write(&garbage, "not json at all").expect("write garbage");
    let out = hemprof(&["diff", a.to_str().unwrap(), garbage.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "unparsable input is breakage");

    // Missing operand: usage error, exit 2.
    let out = hemprof(&["diff", a.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "missing operand is usage");

    for p in [a, a2, b, garbage] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn unknown_kernel_is_a_usage_error() {
    let out = hemprof(&["nosuchkernel"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unknown_flags_are_usage_errors() {
    // A retired or misspelled flag must not silently run another
    // configuration: each subcommand names the flag it rejects.
    for (args, flag) in [
        (
            &["sor", "--p", "4", "--threads", "2", "--speculative"][..],
            "--speculative",
        ),
        (
            &["serve", "--p", "4", "--shard-map", "even"][..],
            "--shard-map",
        ),
        (
            &["diff", "a.json", "b.json", "--report", "json"][..],
            "--report",
        ),
    ] {
        let out = hemprof(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(&format!("unknown flag '{flag}'")),
            "{args:?}: stderr names {flag}"
        );
    }
}

#[test]
fn degenerate_sizes_are_usage_errors() {
    // Each of these used to panic deep in the run (exit 101 with a
    // backtrace); each must now be refused up front with one line naming
    // the flag.
    for (args, flag) in [
        (&["sor", "--p", "0"][..], "--p"),
        (&["sor", "--p", "3"][..], "--p"),
        (&["md", "--p", "3"][..], "--p"),
        (&["fib", "--p", "0"][..], "--p"),
        (&["sor", "--size", "0"][..], "--size"),
        (&["md", "--size", "0"][..], "--size"),
        (&["em3d", "--p", "1048576"][..], "--p"),
        (&["serve", "--p", "0"][..], "--p"),
        (&["blame", "--p", "0"][..], "--p"),
        (&["serve", "--backends", "0"][..], "--backends"),
    ] {
        let out = hemprof(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("hemprof: {flag} must ")) && stderr.lines().count() == 1,
            "{args:?}: one-line message naming {flag}, got {stderr:?}"
        );
    }
    // The degenerate-looking but valid neighbours still run.
    for args in [
        &["md", "--p", "3", "--layout", "random", "--size", "8"][..],
        &["em3d", "--p", "3", "--size", "8"][..],
        &["sor", "--p", "1", "--size", "4"][..],
    ] {
        let out = hemprof(args);
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn profile_shard_map_is_observationally_invisible() {
    // `--shard-map profile` re-cuts the shard boundaries by pilot busy
    // time; the JSON report (makespan, traffic, every rollup cell) must
    // be byte-identical to the default even map.
    let base = &["sor", "--p", "4", "--size", "8", "--threads", "2"];
    let even = hemprof(&[base, &["--report", "json"] as &[&str]].concat());
    let prof = hemprof(
        &[
            base,
            &["--shard-map", "profile", "--report", "json"] as &[&str],
        ]
        .concat(),
    );
    assert!(even.status.success() && prof.status.success());
    assert_eq!(
        String::from_utf8_lossy(&even.stdout),
        String::from_utf8_lossy(&prof.stdout),
        "profile-guided map changed an observable"
    );
    assert!(
        String::from_utf8_lossy(&prof.stderr).contains("profile-guided shard map"),
        "pilot run announced on stderr"
    );
}
