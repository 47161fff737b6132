//! Golden tests for the explainability surface: `lomon check --explain`
//! witness renderings (text and NDJSON) over the committed
//! `tests/fixtures/explain/` fixture, and the `lomon profile` report in
//! both formats, including its exit-code contract (0 when the profile
//! ran — violations are reported, not failed on; 1 on unreadable input;
//! 2 on usage errors).

mod common;

use common::{lomon, stderr, stdout};

const RULES: &str = "tests/fixtures/explain/violation.rules";
const TRACE: &str = "tests/fixtures/explain/violation.trace";

/// The fixture's two distinct properties, as `check` takes them inline.
const ORDERING: &str = "all{a, b} << start once";
const TIMED: &str = "start => out:irq within 20 ns";

/// Mask every nanosecond measurement (`NNNN ns` and `"ns": NNNN`) so
/// wall-clock noise cannot break the golden comparison.
fn mask_ns(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        if c.is_ascii_digit() {
            let mut digits = String::from(c);
            while chars.peek().is_some_and(char::is_ascii_digit) {
                digits.push(chars.next().expect("peeked"));
            }
            let rest: String = chars.clone().take(3).collect();
            if rest == " ns" {
                out.push('#');
            } else {
                out.push_str(&digits);
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Strip `"ns": <digits>` JSON fields down to `"ns": #`.
fn mask_json_ns(text: &str) -> String {
    let mut out = String::new();
    let mut rest = text;
    while let Some(at) = rest.find("\"ns\": ") {
        let (head, tail) = rest.split_at(at + "\"ns\": ".len());
        out.push_str(head);
        out.push('#');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

#[test]
fn check_explain_text_golden() {
    let output = lomon(&["check", "--explain", TRACE, ORDERING, TIMED]);
    assert_eq!(output.status.code(), Some(1), "stderr: {}", stderr(&output));
    let golden = "\
tests/fixtures/explain/violation.trace: 3 events, end at 90ns
  [violated] all{a, b} << start once
      `start` at 40ns: a required range never occurred — antecedent episode 1: fragment 1/1, range 2 rejected; expected one of {b}
      because (2 contributing steps):
        `a` at 10ns -- cell 0: s1 -> s3
        `start` at 40ns -- cell 0: s3 -> s0
  [violated] start => out:irq within 20 ns
      `irq` at 90ns: response finished after the deadline — episode 1: Q unfinished at 90ns, deadline was 60ns (P ended 40ns, budget 20ns); expected one of {irq}; open obligation `irq`[1,1]
      because (2 contributing steps):
        `start` at 40ns -- cell 0: s1 -> s3
        `irq` at 90ns -- cell 0: s3 -> s3
  dispatch: 3 events x 2 properties: 4 monitor steps (1 skipped live, 6 naive)
";
    assert_eq!(stdout(&output), golden);
}

#[test]
fn check_explain_json_golden() {
    let output = lomon(&[
        "check",
        "--explain",
        "--format",
        "json",
        TRACE,
        ORDERING,
        TIMED,
    ]);
    assert_eq!(output.status.code(), Some(1), "stderr: {}", stderr(&output));
    let golden = concat!(
        r#"{"file": "tests/fixtures/explain/violation.trace", "properties": ["#,
        r#"{"index": 0, "property": "all{a, b} << start once", "verdict": "violated", "#,
        r#""diagnostic": "`start` at 40ns: a required range never occurred — antecedent episode 1: fragment 1/1, range 2 rejected; expected one of {b}", "#,
        r#""witness": [{"time_ps": 10000, "event": "a", "cell": 0, "from": "s1", "to": "s3"}, "#,
        r#"{"time_ps": 40000, "event": "start", "cell": 0, "from": "s3", "to": "s0"}]}, "#,
        r#"{"index": 1, "property": "start => out:irq within 20 ns", "verdict": "violated", "#,
        r#""diagnostic": "`irq` at 90ns: response finished after the deadline — episode 1: Q unfinished at 90ns, deadline was 60ns (P ended 40ns, budget 20ns); expected one of {irq}; open obligation `irq`[1,1]", "#,
        r#""witness": [{"time_ps": 40000, "event": "start", "cell": 0, "from": "s1", "to": "s3"}, "#,
        r#"{"time_ps": 90000, "event": "irq", "cell": 0, "from": "s3", "to": "s3"}]}], "#,
        r#""ok": false, "stats": {"backend": "fused", "properties": 2, "events": 3, "monitor_steps": 4, "#,
        r#""steps_skipped": 1, "retired": 2, "total_cells": 4, "unique_cells": 4, "shared_hits": 0, "violations": 2}}"#,
        "\n",
    );
    assert_eq!(stdout(&output), golden);
}

#[test]
fn check_without_explain_stays_witness_free() {
    let output = lomon(&["check", TRACE, ORDERING, TIMED]);
    assert_eq!(output.status.code(), Some(1));
    let text = stdout(&output);
    assert!(!text.contains("because"), "stdout: {text}");
    let json = lomon(&["check", "--format", "json", TRACE, ORDERING, TIMED]);
    assert!(
        !stdout(&json).contains("witness"),
        "stdout: {}",
        stdout(&json)
    );
}

#[test]
fn profile_text_golden_and_exit_zero_despite_violations() {
    let output = lomon(&["profile", RULES, TRACE]);
    assert_eq!(output.status.code(), Some(0), "stderr: {}", stderr(&output));
    let golden = "\
profiled 3 events over 2 groups (3 properties, 3 violations)
  group 0: 2 steps, # ns, 2 member(s)
    - all{a, b} << start once
    - all{a, b} << start once
  group 1: 2 steps, # ns, 1 member(s)
    - start => out:irq within # ns
";
    assert_eq!(mask_ns(&stdout(&output)), golden);
    // The fixture's duplicate property is reported by the rulebook lint.
    assert!(
        stderr(&output).contains("warning[L003]"),
        "stderr: {}",
        stderr(&output)
    );
}

#[test]
fn profile_json_golden_and_chrome_trace() {
    let dir = std::env::temp_dir().join("lomon_cli_explain_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace_out = dir.join("profile_trace.json");
    let trace_out_str = trace_out.to_str().expect("utf-8 temp path");
    let output = lomon(&[
        "profile",
        "--format",
        "json",
        "--top",
        "1",
        "--trace-out",
        trace_out_str,
        RULES,
        TRACE,
    ]);
    assert_eq!(output.status.code(), Some(0), "stderr: {}", stderr(&output));
    let golden = concat!(
        r#"{"events": 3, "group_count": 2, "violations": 3, "groups": ["#,
        r#"{"group": 0, "steps": 2, "ns": #, "members": ["all{a, b} << start once", "all{a, b} << start once"]}]}"#,
        "\n",
    );
    assert_eq!(mask_json_ns(&stdout(&output)), golden);

    // The Chrome trace file holds the four pipeline phases as complete
    // ("ph": "X") events — loadable in chrome://tracing or Perfetto.
    let trace_json = std::fs::read_to_string(&trace_out).expect("trace file written");
    assert!(
        trace_json.starts_with(r#"{"traceEvents": ["#),
        "{trace_json}"
    );
    for phase in ["load-trace", "compile", "replay", "report"] {
        assert!(
            trace_json.contains(&format!(r#""name": "{phase}""#)),
            "{trace_json}"
        );
    }
    assert!(trace_json.contains(r#""ph": "X""#), "{trace_json}");
    std::fs::remove_file(&trace_out).ok();
}

/// The number after the first `"key": ` in `json` at or after `from`.
fn json_count(json: &str, key: &str, from: usize) -> Option<(u64, usize)> {
    let needle = format!("\"{key}\": ");
    let at = from + json[from..].find(&needle)? + needle.len();
    let end = at + json[at..].find(|c: char| !c.is_ascii_digit())?;
    Some((json[at..end].parse().ok()?, end))
}

/// `profile` counts what `check` counts: only events whose name some
/// property watches, while every line still advances time — here a
/// deadline expires at an unwatched line.
#[test]
fn profile_counts_match_check_on_unwatched_names() {
    let dir = std::env::temp_dir().join(format!("lomon_profile_unwatched_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("unwatched.trace");
    std::fs::write(
        &trace,
        "10ns in a\n20ns in zz\n30ns in b\n40ns in start\n50ns in zz\n\
         90ns in zz\n100ns in a\n110ns in zz\n",
    )
    .expect("write trace");
    let trace = trace.to_str().expect("utf-8 temp path");
    let (ordering, timed) = (
        "all{a, b} << start repeated",
        "start => out:irq within 20 ns",
    );

    let check = lomon(&["check", "--format", "json", trace, ordering, timed]);
    assert_eq!(check.status.code(), Some(1), "stderr: {}", stderr(&check));
    let check = stdout(&check);
    let (events, _) = json_count(&check, "events", 0).expect("check events");
    let (steps, _) = json_count(&check, "monitor_steps", 0).expect("check steps");

    let profile = lomon(&["profile", "--format", "json", ordering, timed, trace]);
    assert_eq!(
        profile.status.code(),
        Some(0),
        "stderr: {}",
        stderr(&profile)
    );
    let profile = stdout(&profile);
    let (profiled, mut at) = json_count(&profile, "events", 0).expect("profile events");
    let mut group_steps = 0;
    while let Some((steps, next)) = json_count(&profile, "steps", at) {
        group_steps += steps;
        at = next;
    }
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        (profiled, group_steps),
        (events, steps),
        "check {check}\nprofile {profile}"
    );
    assert_eq!(events, 4, "{check}");
}

#[test]
fn profile_exit_code_contract() {
    // 1: unreadable input (missing trace file).
    let missing = lomon(&["profile", RULES, "tests/fixtures/explain/absent.trace"]);
    assert_eq!(missing.status.code(), Some(1));
    assert!(
        stderr(&missing).contains("cannot read"),
        "{}",
        stderr(&missing)
    );
    // 1: a rulebook that does not compile.
    let broken = lomon(&["profile", "not a property <<", TRACE]);
    assert_eq!(broken.status.code(), Some(1), "stderr: {}", stderr(&broken));
    // 2: usage error (no arguments).
    let usage = lomon(&["profile"]);
    assert_eq!(usage.status.code(), Some(2));
    // 2: unknown flag.
    let flag = lomon(&["profile", "--bogus", RULES, TRACE]);
    assert_eq!(flag.status.code(), Some(2), "stderr: {}", stderr(&flag));
}

#[test]
fn watch_explain_streams_witnesses() {
    let stream = "10ns in a\n40ns in start\n";
    let output = common::lomon_with_stdin(&["watch", "--explain", ORDERING], stream);
    assert_eq!(output.status.code(), Some(1), "stderr: {}", stderr(&output));
    let text = stdout(&output);
    assert!(
        text.contains("because (2 contributing steps):"),
        "stdout: {text}"
    );
    assert!(
        text.contains("`a` at 10ns -- cell 0: s1 -> s3"),
        "stdout: {text}"
    );
}
