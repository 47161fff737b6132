//! End-to-end tests for `lomon watch`: pipe event streams through the
//! binary's stdin and assert verdicts, exit codes and diagnostics — the
//! CLI face of the `lomon-engine` subsystem. Also covers the engine-backed
//! `lomon check` reporting *every* property error before giving up.

mod common;

use common::{fixture_text, lomon_with_stdin, stderr, stdout, FIXTURE, PROPERTY};

#[test]
fn fixture_stream_is_accepted() {
    let output = lomon_with_stdin(&["watch", PROPERTY], &fixture_text());
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let report = stderr(&output);
    assert!(
        report.contains("[presumably satisfied]"),
        "report: {report}"
    );
    assert!(report.contains("12 events"), "report: {report}");
    // A repeated antecedent never finalizes mid-stream: nothing on stdout.
    assert_eq!(stdout(&output), "");
}

#[test]
fn violating_stream_reports_offending_event() {
    // `start` before any configuration write: the violation must finalize
    // mid-stream, name the offending event, and drive a non-zero exit.
    let stream = "5ns in start\n20ns in set_imgAddr\n";
    let output = lomon_with_stdin(
        &[
            "watch",
            "all{set_imgAddr, set_glAddr, set_glSize} << start once",
        ],
        stream,
    );
    assert_eq!(output.status.code(), Some(1), "stderr: {}", stderr(&output));
    let text = stdout(&output);
    assert!(text.contains("[violated]"), "stdout: {text}");
    assert!(text.contains("`start` at 5ns"), "stdout: {text}");
    assert!(
        text.contains("set_glAddr"),
        "diagnostics list the expected names: {text}"
    );
}

#[test]
fn ndjson_stream_roundtrip() {
    let stream = concat!(
        "{\"time\": \"10ns\", \"dir\": \"in\", \"name\": \"set_imgAddr\"}\n",
        "{\"time\": \"12ns\", \"name\": \"set_glAddr\"}\n",
        "{\"time\": \"15ns\", \"name\": \"set_glSize\"}\n",
        "{\"time\": \"20ns\", \"name\": \"start\"}\n",
        "{\"end\": \"100ns\"}\n",
    );
    let output = lomon_with_stdin(
        &[
            "watch",
            "--format",
            "ndjson",
            "all{set_imgAddr, set_glAddr, set_glSize} << start once",
        ],
        stream,
    );
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let text = stdout(&output);
    assert!(
        text.contains("\"verdict\": \"satisfied\""),
        "stdout: {text}"
    );
    assert!(text.contains("\"summary\": true"), "stdout: {text}");
    assert!(text.contains("\"violations\": 0"), "stdout: {text}");
}

#[test]
fn ndjson_violation_carries_diagnostic() {
    let stream = "{\"time\": \"5ns\", \"name\": \"start\"}\n";
    let output = lomon_with_stdin(
        &[
            "watch",
            "--format=ndjson",
            "all{set_imgAddr, set_glAddr} << start once",
        ],
        stream,
    );
    assert_eq!(output.status.code(), Some(1));
    let text = stdout(&output);
    assert!(text.contains("\"verdict\": \"violated\""), "stdout: {text}");
    assert!(
        text.contains("\"diagnostic\": \"`start` at 5ns"),
        "stdout: {text}"
    );
    assert!(text.contains("\"violations\": 1"), "stdout: {text}");
}

#[test]
fn ndjson_reports_unfinalized_verdicts_at_end() {
    // A repeated antecedent never finalizes; the NDJSON consumer must
    // still get one verdict line per property before the summary.
    let stream = concat!(
        "{\"time\": \"10ns\", \"name\": \"dma_setup\"}\n",
        "{\"time\": \"20ns\", \"name\": \"dma_go\"}\n",
    );
    let output = lomon_with_stdin(
        &[
            "watch",
            "--format",
            "ndjson",
            "dma_setup << dma_go repeated",
        ],
        stream,
    );
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let text = stdout(&output);
    assert!(
        text.contains("\"verdict\": \"presumably satisfied\", \"final\": false"),
        "stdout: {text}"
    );
    assert!(text.contains("\"summary\": true"), "stdout: {text}");
}

#[test]
fn timed_deadline_expires_at_stream_end() {
    let stream = "10ns in go\nend 500ns\n";
    let output = lomon_with_stdin(&["watch", "go => out:done within 50 ns"], stream);
    assert_eq!(output.status.code(), Some(1));
    let report = stderr(&output);
    assert!(report.contains("[violated]"), "report: {report}");
    assert!(report.contains("deadline"), "report: {report}");
}

#[test]
fn multiple_properties_stream_together() {
    let output = lomon_with_stdin(
        &["watch", PROPERTY, "start << set_imgAddr once"],
        &fixture_text(),
    );
    // The second property is violated by the fixture (a write precedes the
    // first start); the first stays fine.
    assert_eq!(output.status.code(), Some(1));
    let report = stderr(&output);
    assert!(
        report.contains("[presumably satisfied]"),
        "report: {report}"
    );
    assert!(stdout(&output).contains("[violated]"));
    assert!(report.contains("dispatch:"), "report: {report}");
}

#[test]
fn malformed_stream_line_is_skipped_by_default() {
    // A bad line is counted and skipped; the stream keeps flowing and the
    // healthy lines still produce their verdicts.
    let stream = "banana in start\n5ns in start\n20ns in set_imgAddr\n";
    let output = lomon_with_stdin(
        &[
            "watch",
            "all{set_imgAddr, set_glAddr, set_glSize} << start once",
        ],
        stream,
    );
    assert_eq!(output.status.code(), Some(1), "stderr: {}", stderr(&output));
    let report = stderr(&output);
    assert!(
        report.contains("warning: stream line 1"),
        "stderr: {report}"
    );
    assert!(
        report.contains("1 malformed line(s) skipped"),
        "stderr: {report}"
    );
    assert!(stdout(&output).contains("[violated]"));

    // NDJSON mode: the error record is itself an NDJSON line on stdout,
    // and the summary counts it.
    let output = lomon_with_stdin(
        &["watch", "--format", "ndjson", PROPERTY],
        "{\"time\": \"10ns\"}\n",
    );
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let text = stdout(&output);
    assert!(text.contains("\"type\": \"error\""), "stdout: {text}");
    assert!(text.contains("\"line\": 1"), "stdout: {text}");
    assert!(text.contains("missing `name` field"), "stdout: {text}");
    assert!(text.contains("\"parse_errors\": 1"), "stdout: {text}");
}

#[test]
fn strict_makes_malformed_lines_fatal() {
    let output = lomon_with_stdin(&["watch", "--strict", PROPERTY], "banana in start\n");
    assert_eq!(output.status.code(), Some(2));
    assert!(stderr(&output).contains("stream line 1"));

    let output = lomon_with_stdin(
        &["watch", "--strict", "--format", "ndjson", PROPERTY],
        "{\"time\": \"10ns\"}\n",
    );
    assert_eq!(output.status.code(), Some(2));
    let text = stderr(&output);
    assert!(text.contains("missing `name` field"), "stderr: {text}");
}

#[test]
fn time_travel_in_stream_is_skipped_or_fatal() {
    // Default: the out-of-order line is skipped with a warning.
    let output = lomon_with_stdin(&["watch", PROPERTY], "10ns in noise\n5ns in noise\n");
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    assert!(stderr(&output).contains("precedes"));

    // Strict: it kills the run with exit 2.
    let output = lomon_with_stdin(
        &["watch", "--strict", PROPERTY],
        "10ns in noise\n5ns in noise\n",
    );
    assert_eq!(output.status.code(), Some(2));
    assert!(stderr(&output).contains("precedes"));
}

#[test]
fn watch_usage_errors() {
    // No properties at all.
    let output = lomon_with_stdin(&["watch"], "");
    assert_eq!(output.status.code(), Some(2));
    // Flags but no property.
    let output = lomon_with_stdin(&["watch", "--format", "ndjson"], "");
    assert_eq!(output.status.code(), Some(2));
    // Unknown format.
    let output = lomon_with_stdin(&["watch", "--format", "xml", PROPERTY], "");
    assert_eq!(output.status.code(), Some(2));
    // Unknown flag.
    let output = lomon_with_stdin(&["watch", "--frobnicate", PROPERTY], "");
    assert_eq!(output.status.code(), Some(2));
}

#[test]
fn watch_reports_every_bad_property() {
    let output = lomon_with_stdin(
        &["watch", "all{unclosed << start", PROPERTY, "a << a once"],
        "",
    );
    assert_eq!(output.status.code(), Some(1));
    let text = stderr(&output);
    assert!(text.contains("property 1"), "stderr: {text}");
    assert!(text.contains("property 3"), "stderr: {text}");
    assert!(text.contains("ill-formed"), "stderr: {text}");
}

#[test]
fn check_reports_every_bad_property_then_none_of_the_stats() {
    // Satellite: `lomon check` must validate the whole property set first
    // and report each failure with its source context.
    let output = lomon_with_stdin(
        &["check", FIXTURE, "all{unclosed << start", "b << b once"],
        "",
    );
    assert_eq!(output.status.code(), Some(1));
    let text = stderr(&output);
    assert!(text.contains("error in property"), "stderr: {text}");
    assert!(text.contains("property 1"), "stderr: {text}");
    assert!(text.contains("property 2"), "stderr: {text}");
    assert!(text.contains('^'), "caret line into the source: {text}");
    // No half-reported run: stats come only with a fully valid rulebook.
    assert!(
        !stdout(&output).contains("events"),
        "stdout: {}",
        stdout(&output)
    );
}

#[test]
fn check_reports_dispatch_stats() {
    let output = lomon_with_stdin(&["check", FIXTURE, PROPERTY], "");
    assert!(output.status.success());
    let text = stdout(&output);
    assert!(text.contains("dispatch:"), "stdout: {text}");
    assert!(text.contains("12 events"), "stdout: {text}");
}

#[test]
fn deadline_fires_on_unknown_name_time_advance() {
    // A name no property uses is not an event, but its timestamp still
    // runs the deadline sweep — as on a `lomon serve` stream.
    let output = lomon_with_stdin(
        &["watch", "go => out:done within 50 ns"],
        "10ns in go\n200ns in never_subscribed\n",
    );
    assert_eq!(output.status.code(), Some(1), "stderr: {}", stderr(&output));
    let verdicts = stdout(&output);
    assert!(verdicts.contains("[violated]"), "stdout: {verdicts}");
    assert!(verdicts.contains("deadline"), "stdout: {verdicts}");
    assert!(stderr(&output).contains("dispatch: 1 events"));
}

/// Run `lomon watch <args>` on `input` without insisting that the child
/// reads all of it: a fatal line may end the run first.
fn watch_unread(args: &[&str], input: Vec<u8>) -> std::process::Output {
    use std::io::Write as _;
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_lomon"))
        .arg("watch")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lomon");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let writer = std::thread::spawn(move || {
        let _ = stdin.write_all(&input);
    });
    let output = child.wait_with_output().expect("lomon exits");
    writer.join().expect("stdin writer");
    output
}

#[test]
fn runaway_line_is_one_error_record() {
    // 1 MiB with no newline at all: dropped under the 64 KiB frame cap as
    // it arrives, reported once, and the stream still closes cleanly.
    let runaway = vec![b'x'; 1 << 20];
    let output = watch_unread(&[PROPERTY], runaway.clone());
    assert_eq!(output.status.code(), Some(0), "stderr: {}", stderr(&output));
    let report = stderr(&output);
    assert_eq!(
        report.matches("frame exceeds 65536 bytes").count(),
        1,
        "{report}"
    );
    assert!(report.contains("1 malformed line(s) skipped"), "{report}");

    let output = watch_unread(&["--strict", PROPERTY], runaway);
    assert_eq!(output.status.code(), Some(2), "stderr: {}", stderr(&output));
    assert!(stderr(&output).contains("error: stream line 1: frame exceeds 65536 bytes"));
}
