//! End-to-end tests for `xsd-lint --stats` / `--stats-json`.
//!
//! Stats go to **stderr** so that stdout stays machine-parseable for
//! `--json` / `--codes` consumers and the golden lint corpus.

use std::process::Command;

fn lint(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_xsd-lint")).args(args).output().expect("spawn xsd-lint")
}

fn clean_xsd() -> String {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    dir.join("../../fixtures/lint/clean.xsd").display().to_string()
}

#[test]
fn stats_json_goes_to_stderr_and_is_wellformed() {
    let out = lint(&["--codes", "--stats-json", &clean_xsd()]);
    assert!(out.status.success(), "xsd-lint failed: {out:?}");

    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();

    // stdout is the codes report only — no stats leakage.
    assert!(!stdout.contains("schema_version"), "stats leaked to stdout:\n{stdout}");

    // stderr carries the JSON snapshot with the stable field schema.
    assert!(stderr.contains("\"schema_version\": 2"), "missing schema_version:\n{stderr}");
    for family in ["parse.documents_total", "analysis.wellformed_ns", "db.insert_ns"] {
        assert!(stderr.contains(family), "stats missing {family}:\n{stderr}");
    }
    // The lint run parsed one schema document.
    assert!(stderr.contains("\"parse.documents_total\": 1"), "expected one parse:\n{stderr}");
    // Balanced braces — cheap well-formedness check on the JSON.
    let opens = stderr.matches('{').count();
    let closes = stderr.matches('}').count();
    assert_eq!(opens, closes, "unbalanced JSON braces:\n{stderr}");
}

#[test]
fn stats_text_reports_analysis_timings() {
    let out = lint(&["--stats", &clean_xsd()]);
    assert!(out.status.success(), "xsd-lint failed: {out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    for family in ["analysis.wellformed_ns", "analysis.upa_ns", "analysis.satisfiability_ns"] {
        assert!(stderr.contains(family), "text stats missing {family}:\n{stderr}");
    }
}

#[test]
fn without_stats_flags_stderr_is_quiet() {
    let out = lint(&["--codes", &clean_xsd()]);
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.is_empty(), "unexpected stderr without --stats:\n{stderr}");
}
