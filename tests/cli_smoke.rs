//! Smoke tests for the `lomon` binary: every subcommand against the
//! checked-in fixture, plus malformed invocations, which must exit non-zero
//! with a usage message rather than panic.

mod common;

use std::path::Path;
use std::process::{Command, Output, Stdio};

use common::{lomon, stderr, stdout, FIXTURE, PROPERTY};

#[test]
fn fixture_is_checked_in() {
    assert!(
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(FIXTURE)
            .is_file(),
        "missing fixture {FIXTURE}"
    );
}

#[test]
fn check_accepts_fixture() {
    let output = lomon(&["check", FIXTURE, PROPERTY]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let text = stdout(&output);
    assert!(text.contains("12 events"), "stdout: {text}");
    assert!(text.contains("presumably satisfied"), "stdout: {text}");
}

#[test]
fn check_reports_violation_nonzero() {
    // The fixture interleaves all three config writes before each start, so
    // demanding `start` strictly first must fail.
    let output = lomon(&["check", FIXTURE, "start << set_imgAddr once"]);
    assert_eq!(output.status.code(), Some(1), "stderr: {}", stderr(&output));
    assert!(stdout(&output).contains("violated"));
}

#[test]
fn gen_roundtrips_through_check() {
    let generated = lomon(&["gen", PROPERTY, "7", "3"]);
    assert!(generated.status.success(), "stderr: {}", stderr(&generated));
    let expected = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE))
        .expect("read fixture");
    // Generation is deterministic per seed: the fixture IS `gen <prop> 7 3`.
    assert_eq!(stdout(&generated), expected);
}

#[test]
fn vcd_renders_fixture() {
    let output = lomon(&["vcd", FIXTURE]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let text = stdout(&output);
    assert!(text.contains("$timescale"), "stdout: {text}");
    assert!(text.contains("set_imgAddr"), "stdout: {text}");
}

#[test]
fn demo_runs_clean() {
    let output = lomon(&["demo"]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    assert!(stdout(&output).contains("btn_press"));
    assert!(stderr(&output).contains("online verdict"));
}

#[test]
fn no_arguments_prints_usage() {
    let output = lomon(&[]);
    assert_eq!(output.status.code(), Some(2));
    assert!(stderr(&output).contains("usage:"));
}

#[test]
fn unknown_command_prints_usage() {
    let output = lomon(&["frobnicate"]);
    assert_eq!(output.status.code(), Some(2));
    let text = stderr(&output);
    assert!(
        text.contains("unknown command `frobnicate`"),
        "stderr: {text}"
    );
    assert!(text.contains("usage:"), "stderr: {text}");
}

#[cfg(unix)]
#[test]
fn non_utf8_argument_is_a_usage_error() {
    use std::os::unix::ffi::OsStrExt as _;
    let output = Command::new(env!("CARGO_BIN_EXE_lomon"))
        .arg("check")
        .arg(std::ffi::OsStr::from_bytes(b"\xff.trace"))
        .arg(PROPERTY)
        .output()
        .expect("lomon exits");
    assert_eq!(output.status.code(), Some(2), "{}", stderr(&output));
    assert!(
        stderr(&output).contains("is not valid UTF-8"),
        "{}",
        stderr(&output)
    );
}

#[test]
fn missing_operands_print_usage() {
    for args in [
        &["check", FIXTURE] as &[&str],
        &["vcd"],
        &["vcd", FIXTURE, "extra"],
        &["gen"],
        &["gen", PROPERTY, "1", "2", "extra"],
        &["demo", "extra"],
    ] {
        let output = lomon(args);
        assert_eq!(output.status.code(), Some(2), "args: {args:?}");
        assert!(stderr(&output).contains("usage:"), "args: {args:?}");
    }
}

#[test]
fn malformed_seed_is_rejected() {
    let output = lomon(&["gen", PROPERTY, "notanumber"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(stderr(&output).contains("not an unsigned integer"));

    let output = lomon(&["gen", PROPERTY, "1", "-3"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(stderr(&output).contains("episode count"));
}

#[test]
fn malformed_property_is_rejected() {
    let output = lomon(&["check", FIXTURE, "all{unclosed << start"]);
    assert_eq!(output.status.code(), Some(1));
    assert!(stderr(&output).contains("error in property"));
}

#[test]
fn missing_trace_file_is_rejected() {
    let output = lomon(&["check", "no/such/file.trace", PROPERTY]);
    assert_eq!(output.status.code(), Some(1));
    assert!(stderr(&output).contains("cannot read"));
}

#[test]
fn check_accepts_whitespace_free_properties() {
    // Spaces around `<<` and the `once` modality are optional; the
    // file/property split must not mistake such a property for a path.
    let output = lomon(&["check", FIXTURE, "set_imgAddr<<start"]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    assert!(stdout(&output).contains("[satisfied] set_imgAddr<<start"));
}

#[test]
fn check_names_the_unreadable_file_in_multi_file_mode() {
    // A typo'd second path must produce the file diagnostic, not a
    // property parse error rendered over the filename.
    let output = lomon(&["check", FIXTURE, "typo.trace", PROPERTY]);
    assert_eq!(output.status.code(), Some(1));
    assert!(stderr(&output).contains("cannot read typo.trace"));
}

#[test]
fn check_replays_multiple_files_through_one_engine() {
    let output = lomon(&["check", FIXTURE, FIXTURE, FIXTURE, PROPERTY]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let text = stdout(&output);
    assert_eq!(
        text.matches("12 events, end at").count(),
        3,
        "one per-file header each: {text}"
    );
    assert_eq!(text.matches("presumably satisfied").count(), 3);
    assert!(text.contains("3 files checked: all ok"), "stdout: {text}");
}

#[test]
fn multi_file_check_exit_code_combines_all_files() {
    // A second file that violates the property: the combined exit code is
    // non-zero even though the first file is clean.
    let dir = std::env::temp_dir().join(format!("lomon-check-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bad = dir.join("bad.trace");
    std::fs::write(&bad, "10ns in start\n20ns in set_imgAddr\nend 30ns\n").expect("write trace");
    let output = lomon(&["check", FIXTURE, bad.to_str().unwrap(), PROPERTY]);
    assert_eq!(output.status.code(), Some(1), "stderr: {}", stderr(&output));
    let text = stdout(&output);
    assert!(text.contains("violations found"), "stdout: {text}");
    assert!(text.contains("presumably satisfied"), "stdout: {text}");
    assert!(text.contains("violated"), "stdout: {text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_survives_truncation_while_reading() {
    // A trace cut short while `check` reads it ends the read early: the
    // run exits with a code (0, or 1 for a torn last line), never a
    // signal. Reading through a memory map died of SIGBUS here.
    use std::process::{Command, Stdio};
    let dir = std::env::temp_dir().join(format!("lomon-truncate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("big.trace");
    let names = ["set_imgAddr", "set_glAddr", "set_glSize", "start"];
    let text: String = (0..400_000u64)
        .map(|i| format!("{}ns in {}\n", 10 * i, names[i as usize % 4]))
        .collect();
    for delay_ms in [20, 50, 100] {
        std::fs::write(&trace, &text).expect("write trace");
        let mut child = Command::new(env!("CARGO_BIN_EXE_lomon"))
            .args(["check", trace.to_str().unwrap(), PROPERTY])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn lomon");
        std::thread::sleep(std::time::Duration::from_millis(delay_ms));
        std::fs::OpenOptions::new()
            .write(true)
            .open(&trace)
            .and_then(|file| file.set_len(0))
            .expect("truncate trace");
        let status = child.wait().expect("lomon exits");
        assert!(
            matches!(status.code(), Some(0 | 1)),
            "truncated {delay_ms} ms after spawn: {status:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn out_of_range_time_literals_are_rejected_not_wrapped() {
    let dir = std::env::temp_dir().join(format!("lomon-time-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("t.trace");
    std::fs::write(&trace, "10ns in go\n1us out done\n").expect("write trace");
    let big = dir.join("big.trace");
    std::fs::write(&big, "18446744073709552ns in go\n").expect("write trace");
    // An unchecked unit multiply wrapped this bound to 384ps and reported
    // a false violation; it is a property error instead.
    let output = lomon(&[
        "check",
        trace.to_str().unwrap(),
        "go => out:done within 18446744073709552 ns",
    ]);
    assert_eq!(output.status.code(), Some(1), "stderr: {}", stderr(&output));
    assert!(
        stderr(&output).contains("time literal `18446744073709552 ns` is out of range"),
        "stderr: {}",
        stderr(&output)
    );
    assert!(
        !stdout(&output).contains("[violated]"),
        "{}",
        stdout(&output)
    );
    // The same literal as a timestamp is a trace error, not 384ps.
    let output = lomon(&["check", big.to_str().unwrap(), "go => out:done within 1 us"]);
    assert_eq!(output.status.code(), Some(1), "stderr: {}", stderr(&output));
    assert!(
        stderr(&output)
            .contains("trace line 1: time literal `18446744073709552ns` is out of range"),
        "stderr: {}",
        stderr(&output)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn smc_scenario_campaign_runs() {
    let output = lomon(&[
        "smc",
        "--episodes",
        "8",
        "--jobs",
        "2",
        "--seed",
        "3",
        "--fault-prob",
        "0",
    ]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let text = stdout(&output);
    assert!(text.contains("platform campaign"), "stdout: {text}");
    // Fault-free episodes satisfy both case-study properties exactly.
    assert_eq!(text.matches("= 1.0000").count(), 2, "stdout: {text}");
    assert!(text.contains("8 episodes"), "stdout: {text}");
}

#[test]
fn smc_reports_are_jobs_independent() {
    let run = |jobs: &str| {
        let output = lomon(&[
            "smc",
            "--episodes",
            "12",
            "--jobs",
            jobs,
            "--seed",
            "9",
            "--fault-prob",
            "0.5",
        ]);
        assert!(output.status.success(), "stderr: {}", stderr(&output));
        // Strip the (timing) footer lines; keep the statistical content.
        stdout(&output)
            .lines()
            .filter(|l| !l.contains("wall clock") && !l.contains("jobs"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(run("1"), run("3"));
}

#[test]
fn smc_sprt_rejects_faulty_platform() {
    let output = lomon(&[
        "smc",
        "--sprt",
        "0.9",
        "0.4",
        "--seed",
        "2",
        "--fault-prob",
        "0.8",
    ]);
    assert_eq!(output.status.code(), Some(1), "stderr: {}", stderr(&output));
    let text = stdout(&output);
    assert!(text.contains("accept H1"), "stdout: {text}");
}

#[test]
fn smc_trace_campaign_estimates_mutation_survival() {
    let output = lomon(&[
        "smc",
        "--trace",
        FIXTURE,
        PROPERTY,
        "--episodes",
        "32",
        "--mutation-prob",
        "1",
        "--seed",
        "6",
    ]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let text = stdout(&output);
    assert!(text.contains("trace campaign"), "stdout: {text}");
    assert!(text.contains("32 episodes"), "stdout: {text}");
}

/// Name directions come from the rulebook on every command that reads a
/// trace, as the `direction` case of `tests/stream_golden.rs` pins for
/// `check`: the trace's `out start` does not make the trigger of
/// `a << start once` an output.
#[test]
fn rulebook_directions_win_over_the_trace_on_every_command() {
    let dir = std::env::temp_dir().join(format!("lomon-direction-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("t.trace");
    std::fs::write(&path, "10ns in a\n20ns out start\n").expect("write trace");
    let trace = path.to_str().unwrap();
    let property = "a << start once";
    for argv in [
        &["check", trace, property][..],
        &["profile", property, trace],
        &["lint", "--trace", trace, property],
        &[
            "smc",
            "--trace",
            trace,
            property,
            "--episodes",
            "4",
            "--quiet",
        ],
    ] {
        let output = lomon(argv);
        assert_eq!(
            output.status.code(),
            Some(0),
            "{argv:?}: {}",
            stderr(&output)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn smc_rejects_malformed_invocations() {
    for args in [
        &["smc", "--episodes", "abc"] as &[&str],
        &["smc", "--sprt", "0.5", "0.9"], // p1 must be below p0
        &["smc", "--sprt", "0.9"],        // missing second value
        &["smc", "--confidence", "2"],
        &["smc", "--unknown-flag"],
        &["smc", "--trace"], // missing value
        // Flags the selected mode would ignore are rejected, not dropped.
        &["smc", "--mutation-prob", "0.5"], // needs --trace
        &[
            "smc",
            "--trace",
            FIXTURE,
            "--fault-prob",
            "0.5",
            "a << b once",
        ],
        &["smc", "--epsilon", "0.1", "--episodes", "5"],
        &["smc", "--epsilon", "0.1", "--sprt", "0.9", "0.5"],
        &["smc", "--backend", "fused"], // only check and watch take it
        &["smc", "--seed", "--quiet"],  // a value may not start with `--`
        &["smc", "--episodes=abc"],
        // A campaign of no episodes estimates nothing, in either mode.
        &["smc", "--episodes", "0"],
        &["smc", "--sprt", "0.9", "0.5", "--episodes", "0"],
        // Each worker builds a session and may start a thread: capped at
        // 1024. Without the cap this run would build 1025 sessions and
        // start one thread.
        &["smc", "--jobs", "1025", "--episodes", "1"],
    ] {
        let output = lomon(args);
        assert_eq!(output.status.code(), Some(2), "args: {args:?}");
        assert!(stderr(&output).contains("usage:"), "args: {args:?}");
    }
    // `--trace` without a property is a usage error too.
    let output = lomon(&["smc", "--trace", FIXTURE]);
    assert_eq!(output.status.code(), Some(2));
    assert!(stderr(&output).contains("at least one property"));
    // `--flag=value` is the same flag as `--flag value`.
    let output = lomon(&["smc", "--episodes=4", "--seed=3", "--quiet"]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    assert!(
        stdout(&output).contains("4 episodes"),
        "{}",
        stdout(&output)
    );
}

#[test]
fn smc_reports_property_errors_before_running() {
    let output = lomon(&["smc", "--episodes", "2", "all{unclosed << start"]);
    assert_eq!(output.status.code(), Some(1));
    assert!(stderr(&output).contains("error in property"));
    // An ill-formed property names what the compile interned: its error is
    // rendered against the compile's vocabulary, not the model's.
    let output = lomon(&["smc", "--episodes", "1", "zz << zz once"]);
    assert_eq!(output.status.code(), Some(1), "stderr: {}", stderr(&output));
    assert!(
        stderr(&output).contains(
            "property 1 `zz << zz once` is ill-formed: \
             trigger `zz` also occurs inside the antecedent P"
        ),
        "stderr: {}",
        stderr(&output)
    );
}

/// Every command that reads a trace file names the file in a trace error,
/// whether it streams the file (`check`) or loads it whole.
#[test]
fn trace_errors_name_the_file_on_every_command() {
    let dir = std::env::temp_dir().join(format!("lomon-back-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("back.trace");
    std::fs::write(&path, "10ns in a\n5ns in go\n").expect("write trace");
    let trace = path.to_str().unwrap();
    let property = "a << go once";
    let expected =
        format!("error: {trace}: trace line 2: timestamp 5ns precedes previous event at 10ns\n");
    for argv in [
        &["check", trace, property][..],
        &["profile", property, trace],
        &["lint", "--trace", trace, property],
        &["vcd", trace],
        &["smc", "--trace", trace, property],
    ] {
        let output = lomon(argv);
        assert!(!output.status.success(), "{argv:?}");
        assert_eq!(stderr(&output), expected, "{argv:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_format_json_emits_machine_report_with_sharing_stats() {
    // Two copies of the property: the fused backend (the default) interns
    // them into one group, which the JSON stats must expose.
    let output = lomon(&["check", "--format", "json", FIXTURE, PROPERTY, PROPERTY]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let text = stdout(&output);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1, "one JSON object per trace file: {text}");
    let json = lines[0];
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    assert!(json.contains("\"file\": \"tests/fixtures/ipu_config.trace\""));
    assert!(json.contains("\"verdict\": \"presumably satisfied\""));
    assert!(json.contains("\"ok\": true"), "{json}");
    assert!(json.contains("\"total_cells\": 6"), "{json}");
    assert!(json.contains("\"unique_cells\": 3"), "{json}");
    // No text-report furniture on stdout in JSON mode.
    assert!(!text.contains("dispatch:"), "{text}");
}

#[test]
fn check_backends_agree_on_the_fixture() {
    let verdicts = |backend: &str| {
        let output = lomon(&["check", "--backend", backend, FIXTURE, PROPERTY]);
        assert!(
            output.status.success(),
            "backend {backend} stderr: {}",
            stderr(&output)
        );
        stdout(&output)
            .lines()
            .filter(|l| l.trim_start().starts_with('['))
            .map(str::to_owned)
            .collect::<Vec<_>>()
    };
    assert_eq!(verdicts("fused"), verdicts("interp"));
}

#[test]
fn unknown_backend_is_rejected() {
    // `compiled` named a per-property backend that no longer exists.
    for backend in ["bogus", "compiled"] {
        let output = lomon(&["check", "--backend", backend, FIXTURE, PROPERTY]);
        assert_eq!(output.status.code(), Some(2), "stderr: {}", stderr(&output));
        assert!(stderr(&output).contains("unknown backend"));
        assert!(
            stderr(&output).contains("expected `fused` or `interp`"),
            "stderr: {}",
            stderr(&output)
        );
    }
}

#[test]
fn check_rejects_unknown_flags() {
    // A leftover flag is neither a trace path nor a property, wherever it
    // stands: exit 2 with the usage text, as every other command does.
    // A value may not start with `--`, so the flag after a valued flag
    // is not taken as its value.
    for (args, message) in [
        (&["--strict", FIXTURE, PROPERTY] as &[&str], "unknown flag"),
        (&[FIXTURE, "--bogus=1", PROPERTY], "unknown flag"),
        (&[FIXTURE, PROPERTY, "--strict"], "unknown flag"),
        (
            &["--stats-every", "--explain", "5", FIXTURE, PROPERTY],
            "`--stats-every` requires a value",
        ),
    ] {
        let output = lomon(&[&["check"], args].concat());
        assert_eq!(
            output.status.code(),
            Some(2),
            "{args:?}: {}",
            stderr(&output)
        );
        assert!(stderr(&output).contains(message), "{}", stderr(&output));
        assert!(stderr(&output).contains("usage:"), "{}", stderr(&output));
    }
}

/// Run `lomon <args>` with stdout on a pipe whose read end is already
/// closed, and stderr too when `close_stderr`.
fn lomon_into_closed_pipe(args: &[&str], close_stderr: bool) -> Output {
    let closed = || {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        writer
    };
    let mut command = Command::new(env!("CARGO_BIN_EXE_lomon"));
    command
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdin(Stdio::null())
        .stdout(closed());
    if close_stderr {
        command.stderr(closed());
    }
    command.output().expect("lomon exits")
}

#[test]
fn closed_stdout_is_a_write_error_not_a_panic() {
    // Every command writes stdout through one writer: a reader that has
    // gone away is `cannot write output` and exit 1, never a panic (101).
    for args in [
        &["check", FIXTURE, PROPERTY] as &[&str],
        &["check", "--format", "json", FIXTURE, PROPERTY],
        &["vcd", FIXTURE],
        &["gen", PROPERTY],
        &["lint", "tests/fixtures/ipu.rules"],
        &["profile", PROPERTY, FIXTURE],
        &["smc", "--format", "json", "--episodes", "4", "--quiet"],
        &["demo"],
    ] {
        let output = lomon_into_closed_pipe(args, false);
        let text = stderr(&output);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {text}");
        assert!(text.contains("cannot write output"), "{args:?}: {text}");
        assert!(!text.contains("panicked"), "{args:?}: {text}");
    }
    // Stderr is written best effort: closed too, a usage error is exit 2.
    let output = lomon_into_closed_pipe(&["frobnicate"], true);
    assert_eq!(output.status.code(), Some(2));
}

#[test]
fn smc_format_json_is_jobs_independent() {
    let run = |jobs: &str| {
        let output = lomon(&[
            "smc",
            "--format",
            "json",
            "--episodes",
            "12",
            "--jobs",
            jobs,
            "--seed",
            "9",
            "--fault-prob",
            "0.5",
        ]);
        assert!(output.status.success(), "stderr: {}", stderr(&output));
        stdout(&output)
    };
    // JSON mode prints only the report object — no preamble, no wall
    // clock — so the whole stdout is bit-identical across worker counts.
    let one = run("1");
    assert_eq!(one, run("3"));
    assert_eq!(one.lines().count(), 1, "{one}");
    assert!(one.contains("\"mean\": "), "{one}");
    assert!(one.contains("\"episodes\": 12"), "{one}");
}
