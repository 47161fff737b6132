//! Integration tests for `lomon lint` (exit-code contract, fixture
//! rulebooks, JSON output, `--fix-prune`) and for the analysis wired into
//! `check`/`watch` (`--deny-warnings`, warning printing).

mod common;

use common::{lomon, stderr, stdout, PROPERTY};

fn exit_code(output: &std::process::Output) -> i32 {
    output.status.code().expect("lomon exits normally")
}

#[test]
fn clean_rulebook_exits_zero() {
    let output = lomon(&["lint", PROPERTY]);
    assert_eq!(exit_code(&output), 0, "stderr: {}", stderr(&output));
    let text = stdout(&output);
    assert!(text.contains("0 error(s), 0 warning(s)"), "{text}");
}

#[test]
fn clean_fixture_rulebook_survives_deny_warnings() {
    let output = lomon(&["lint", "--deny-warnings", "tests/fixtures/ipu.rules"]);
    assert_eq!(exit_code(&output), 0, "stdout: {}", stdout(&output));
    assert!(
        stdout(&output).contains("2 properties"),
        "{}",
        stdout(&output)
    );
}

#[test]
fn defective_rulebook_reports_every_warning_class() {
    let output = lomon(&["lint", "tests/fixtures/lint/defects.rules"]);
    assert_eq!(exit_code(&output), 1);
    let text = stdout(&output);
    for code in ["L003", "L004", "L005", "L006"] {
        assert!(
            text.contains(&format!("warning[{code}]")),
            "{code} missing:\n{text}"
        );
    }
}

#[test]
fn deny_warnings_upgrades_to_exit_two() {
    let output = lomon(&[
        "lint",
        "--deny-warnings",
        "tests/fixtures/lint/defects.rules",
    ]);
    assert_eq!(exit_code(&output), 2);
}

#[test]
fn malformed_property_exits_two() {
    let output = lomon(&["lint", "all{a"]);
    assert_eq!(exit_code(&output), 2);
    assert!(
        stdout(&output).contains("error[L001]"),
        "{}",
        stdout(&output)
    );
}

#[test]
fn out_of_range_time_bound_is_a_parse_error() {
    let output = lomon(&["lint", "go => out:done within 18446744073709552 ns"]);
    assert_eq!(exit_code(&output), 2);
    let text = stdout(&output);
    assert!(text.contains("error[L001]"), "{text}");
    assert!(text.contains("is out of range"), "{text}");
}

#[test]
fn ill_formed_property_exits_two() {
    // Parses, but the trigger occurs inside the antecedent: L002.
    let output = lomon(&["lint", "start << start once"]);
    assert_eq!(exit_code(&output), 2);
    assert!(
        stdout(&output).contains("error[L002]"),
        "{}",
        stdout(&output)
    );
}

#[test]
fn missing_arguments_exit_two_with_usage() {
    let output = lomon(&["lint"]);
    assert_eq!(exit_code(&output), 2);
    assert!(stderr(&output).contains("usage:"), "{}", stderr(&output));
    // A value may not start with `--`: the rulebook is not the corpus.
    let output = lomon(&[
        "lint",
        "--trace",
        "--deny-warnings",
        "tests/fixtures/ipu.rules",
    ]);
    assert_eq!(exit_code(&output), 2);
    assert!(
        stderr(&output).contains("`--trace` requires a value"),
        "{}",
        stderr(&output)
    );
}

#[test]
fn json_format_emits_one_object_per_finding() {
    let output = lomon(&[
        "lint",
        "--format",
        "json",
        "tests/fixtures/lint/defects.rules",
    ]);
    assert_eq!(exit_code(&output), 1);
    let text = stdout(&output);
    for line in text.lines() {
        assert!(
            line.starts_with("{\"code\": \"L0") && line.ends_with('}'),
            "not a finding object: {line}"
        );
    }
    assert!(text.contains("\"severity\": \"warning\""), "{text}");
    assert!(text.contains("\"properties\": [0, 1]"), "{text}");
}

#[test]
fn trace_corpus_enables_coverage_notes_and_prune() {
    let output = lomon(&[
        "lint",
        "--trace",
        "tests/fixtures/lint/coverage.trace",
        "--fix-prune",
        "tests/fixtures/lint/coverage.rules",
    ]);
    // Notes only: still exit 0.
    assert_eq!(exit_code(&output), 0, "stderr: {}", stderr(&output));
    let text = stdout(&output);
    for code in ["L007", "L008", "L009"] {
        assert!(
            text.contains(&format!("note[{code}]")),
            "{code} missing:\n{text}"
        );
    }
    assert!(text.contains("telemetry"), "{text}");
    assert!(text.contains("dropped 1 of 3 action-table rows"), "{text}");
    assert!(text.contains("self-check ok"), "{text}");
}

#[test]
fn check_prints_analysis_warnings_and_deny_refuses() {
    let args = ["check", common::FIXTURE, PROPERTY, PROPERTY];
    let output = lomon(&args);
    // Duplicates warn on stderr but the check itself still runs.
    assert_eq!(exit_code(&output), 0, "stderr: {}", stderr(&output));
    assert!(
        stderr(&output).contains("warning[L003]"),
        "{}",
        stderr(&output)
    );

    let output = lomon(&[
        "check",
        "--deny-warnings",
        common::FIXTURE,
        PROPERTY,
        PROPERTY,
    ]);
    assert_eq!(exit_code(&output), 1);
    assert!(
        stderr(&output).contains("--deny-warnings"),
        "{}",
        stderr(&output)
    );
}

#[test]
fn watch_summary_names_backend_and_fusion_counters() {
    let stream = "{\"time\": \"10ns\", \"name\": \"start\"}\n{\"end\": \"50ns\"}\n";
    let output = common::lomon_with_stdin(
        &[
            "watch",
            "--format",
            "ndjson",
            "--backend",
            "interp",
            PROPERTY,
        ],
        stream,
    );
    let text = stdout(&output);
    assert!(text.contains("\"backend\": \"interp\""), "{text}");
    assert!(text.contains("\"unique_cells\": "), "{text}");
    assert!(text.contains("\"shared_hits\": 0"), "{text}");
}
