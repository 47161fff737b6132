//! Integration tests for `lomon lint` (exit-code contract, fixture
//! rulebooks, JSON output, `--fix-prune`, byte-exact goldens) and for the
//! analysis wired into `check`, `watch`, `smc` and `serve`
//! (`--deny-warnings`, warning printing: each prints exactly lint's
//! warning lines).
//!
//! The goldens under `tests/fixtures/lint/golden/` pin `lint`'s whole
//! stdout. After an *intended* output change, regenerate them with
//! `LOMON_BLESS=1 cargo test --test cli_lint` and review the diff.

mod common;

use common::{assert_golden, lomon, stderr, stdout, PROPERTY};
use lomon::engine::rulebook_lines;
use lomon::serve::{ServeConfig, Server, StartError};

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

/// `lint`'s whole stdout, byte for byte, and its exit code, in both
/// formats: a clean rulebook, one finding of every warning class, and the
/// corpus notes with `--fix-prune`.
#[test]
fn lint_output_matches_the_goldens() {
    let cases: [(&str, &[&str], i32); 3] = [
        ("ipu", &["tests/fixtures/ipu.rules"], 0),
        ("defects", &["tests/fixtures/lint/defects.rules"], 1),
        (
            "coverage",
            &[
                "--trace",
                "tests/fixtures/lint/coverage.trace",
                "--fix-prune",
                "tests/fixtures/lint/coverage.rules",
            ],
            0,
        ),
    ];
    for (name, args, code) in cases {
        for format in ["text", "json"] {
            let mut argv = vec!["lint", "--format", format];
            argv.extend_from_slice(args);
            let output = lomon(&argv);
            assert_eq!(
                exit_code(&output),
                code,
                "{name} {format}: {}",
                stderr(&output)
            );
            assert_golden(
                &format!("lint/golden/{name}.{format}.stdout"),
                &stdout(&output),
            );
        }
    }
}

/// Every surface that compiles a rulebook prints exactly `lint`'s warning
/// lines, in order (`check`, `watch` and `smc --trace` on stderr, `serve`
/// in [`Server::warnings`]), and `--deny-warnings` refuses it on each.
#[test]
fn every_surface_prints_exactly_lints_warnings() {
    const DEFECTS: &str = "tests/fixtures/lint/defects.rules";
    let lint = stdout(&lomon(&["lint", DEFECTS]));
    let warnings: String = lint
        .lines()
        .filter(|line| line.starts_with("warning["))
        .map(|line| format!("{line}\n"))
        .collect();
    assert_eq!(warnings.lines().count(), 5, "{lint}");
    let denied = format!("{warnings}error: rulebook has 5 warning(s) (--deny-warnings)\n");

    let text = std::fs::read_to_string(DEFECTS).expect("read the rulebook");
    let properties = rulebook_lines(&text);
    let properties: Vec<&str> = properties.iter().map(String::as_str).collect();
    let smc = [
        "smc",
        "--trace",
        common::FIXTURE,
        "--episodes",
        "4",
        "--quiet",
    ];
    for (surface, head) in [
        ("check", &["check", common::FIXTURE][..]),
        ("watch", &["watch"][..]),
        ("smc", &smc[..]),
    ] {
        let run = |deny: bool| {
            let mut argv = head.to_vec();
            if deny {
                argv.push("--deny-warnings");
            }
            argv.extend_from_slice(&properties);
            lomon(&argv)
        };
        let output = run(false);
        assert_eq!(exit_code(&output), 0, "{surface}: {}", stderr(&output));
        let printed = stderr(&output);
        // `watch` goes on to write its final report on stderr.
        let ran = if surface == "watch" {
            printed.get(..warnings.len()).unwrap_or(&printed)
        } else {
            &printed
        };
        assert_eq!(ran, warnings, "{surface}");
        let output = run(true);
        assert_eq!(exit_code(&output), 1, "{surface} --deny-warnings");
        assert_eq!(stderr(&output), denied, "{surface} --deny-warnings");
    }

    let render = |diagnostics: &[lomon::core::analysis::Diagnostic]| -> String {
        diagnostics.iter().map(|d| d.render_text() + "\n").collect()
    };
    let server = Server::start(ServeConfig::default(), &text).expect("serve starts");
    assert_eq!(render(server.warnings()), warnings, "serve");
    drop(server);
    let deny = || ServeConfig {
        deny_warnings: true,
        ..ServeConfig::default()
    };
    match Server::start(deny(), &text) {
        Err(StartError::Compile(diagnostics)) => {
            assert_eq!(render(&diagnostics), warnings, "serve --deny-warnings");
        }
        Err(e) => panic!("serve --deny-warnings: {e}"),
        Ok(_) => panic!("serve --deny-warnings started"),
    }
    // A hot reload runs the same passes.
    let server = Server::start(deny(), PROPERTY).expect("a clean rulebook serves");
    let refused = server.reload(&text).expect_err("reload refused");
    assert_eq!(render(&refused), warnings, "serve reload --deny-warnings");
}
