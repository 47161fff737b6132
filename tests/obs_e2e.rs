//! End-to-end observability: the `--metrics` listener scraped over real
//! TCP while `lomon watch` / `lomon smc` run, `--stats-every` heartbeat
//! determinism, the per-batch smc progress line, and the unified stats
//! schema across every CLI surface.

mod common;

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

use common::{lomon, lomon_with_stdin, stderr, stdout, PROPERTY};

/// Spawn `lomon <args>` with piped stdio and wait for the listener
/// announcement on stderr, returning the child, the bound `host:port`,
/// and the stderr reader (positioned after the announcement).
fn spawn_with_metrics(args: &[&str]) -> (Child, String, BufReader<ChildStderr>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_lomon"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lomon");
    let mut err_lines = BufReader::new(child.stderr.take().expect("piped stderr"));
    let mut line = String::new();
    let addr = loop {
        line.clear();
        if err_lines.read_line(&mut line).expect("read stderr") == 0 {
            panic!("lomon exited before announcing the metrics listener");
        }
        if let Some(rest) = line.trim().strip_prefix("metrics: serving http://") {
            break rest.trim_end_matches("/metrics").to_owned();
        }
    };
    (child, addr, err_lines)
}

/// One HTTP/1.1 GET over a fresh connection; returns `(head, body)`.
fn http_get(addr: &str, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect metrics listener");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set read timeout");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header terminator");
    (head.to_owned(), body.to_owned())
}

/// Re-scrape `path` until `pred` holds on the body (the child processes
/// its stdin asynchronously), failing after a generous deadline.
fn scrape_until(addr: &str, path: &str, pred: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, body) = http_get(addr, path);
        if pred(&body) {
            return body;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for metrics; last body:\n{body}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn watch_metrics_scrape_over_tcp() {
    let (mut child, addr, _err) =
        spawn_with_metrics(&["watch", "--metrics", "127.0.0.1:0", PROPERTY]);
    let mut stdin = child.stdin.take().expect("piped stdin");
    stdin
        .write_all(b"10ns in set_imgAddr\n20ns in set_glAddr\n")
        .expect("write stream");
    stdin.flush().expect("flush stream");

    // The driver flushes its deltas each time it runs out of buffered
    // lines, so both events are visible to a live scrape while stdin is
    // still open.
    let body = scrape_until(&addr, "/metrics", |b| b.contains("lomon_events_total 2"));
    for family in [
        "# TYPE lomon_events_total counter",
        "# TYPE lomon_monitor_steps_total counter",
        "# TYPE lomon_properties_live gauge",
        "# TYPE lomon_io_lines_total counter",
        "# TYPE lomon_compile_ns histogram",
        "lomon_verdicts_total{verdict=\"violated\"} 0",
        "lomon_io_lines_total 2",
        "lomon_compile_ns_count 1",
    ] {
        assert!(body.contains(family), "missing `{family}` in:\n{body}");
    }
    let (head, _) = http_get(&addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "head: {head}");
    assert!(head.contains("text/plain; version=0.0.4"), "head: {head}");

    // The NDJSON sibling serves the same registry.
    let (json_head, json_body) = http_get(&addr, "/metrics.json");
    assert!(json_head.contains("application/x-ndjson"), "{json_head}");
    assert!(
        json_body.contains("{\"name\":\"lomon_events_total\""),
        "{json_body}"
    );

    // Unknown paths and non-idempotent methods get clean errors while the
    // stream is still being monitored.
    let (head_404, _) = http_get(&addr, "/nope");
    assert!(head_404.starts_with("HTTP/1.1 404"), "head: {head_404}");

    drop(stdin);
    let status = child.wait().expect("lomon exits");
    assert!(status.success(), "watch exit: {status:?}");
}

#[test]
fn watch_metrics_bind_conflict_exits_2() {
    // Occupy a port, then ask watch to serve metrics on it.
    let taken = TcpListener::bind("127.0.0.1:0").expect("bind blocker");
    let addr = taken.local_addr().expect("blocker addr").to_string();
    let output = lomon_with_stdin(&["watch", "--metrics", &addr, PROPERTY], "");
    assert_eq!(output.status.code(), Some(2), "stderr: {}", stderr(&output));
    assert!(
        stderr(&output).contains("cannot bind"),
        "stderr: {}",
        stderr(&output)
    );
}

#[test]
fn watch_stats_every_heartbeats_are_deterministic() {
    let stream = "{\"time\": \"10ns\", \"name\": \"set_imgAddr\"}\n\
                  {\"time\": \"20ns\", \"name\": \"set_glAddr\"}\n\
                  {\"time\": \"30ns\", \"name\": \"set_glSize\"}\n\
                  {\"time\": \"40ns\", \"name\": \"start\"}\n\
                  {\"end\": \"100ns\"}\n";
    let args = [
        "watch",
        "--format",
        "ndjson",
        "--stats-every",
        "2",
        PROPERTY,
    ];
    let first = lomon_with_stdin(&args, stream);
    let second = lomon_with_stdin(&args, stream);
    assert!(first.status.success(), "stderr: {}", stderr(&first));
    assert_eq!(
        stdout(&first),
        stdout(&second),
        "heartbeats must be deterministic"
    );
    let text = stdout(&first);
    let heartbeats: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("{\"type\": \"stats\""))
        .collect();
    // 4 events, one heartbeat at each crossing of a multiple of 2.
    assert_eq!(heartbeats.len(), 2, "stdout: {text}");
    assert!(
        heartbeats[0].contains("\"events\": 2") && heartbeats[1].contains("\"events\": 4"),
        "stdout: {text}"
    );
    // Heartbeats carry the canonical schema.
    assert!(heartbeats[0].contains("\"backend\": \"fused\""), "{text}");
    assert!(heartbeats[0].contains("\"retired\": "), "{text}");
}

#[test]
fn watch_summary_carries_the_canonical_schema() {
    let stream = "{\"time\": \"10ns\", \"name\": \"set_imgAddr\"}\n\
                  {\"time\": \"20ns\", \"name\": \"set_glAddr\"}\n\
                  {\"time\": \"30ns\", \"name\": \"set_glSize\"}\n\
                  {\"time\": \"40ns\", \"name\": \"start\"}\n";
    let output = lomon_with_stdin(&["watch", "--format", "ndjson", PROPERTY], stream);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let text = stdout(&output);
    let summary = text
        .lines()
        .find(|l| l.contains("\"summary\": true"))
        .expect("summary line");
    // The legacy top-level aliases and the unified object agree.
    assert!(summary.contains("\"events\": 4"), "{summary}");
    assert!(
        summary.contains("\"stats\": {\"backend\": \"fused\", \"properties\": 1, \"events\": 4"),
        "{summary}"
    );
    assert!(summary.contains("\"violations\": 0"), "{summary}");
}

#[test]
fn check_json_carries_the_canonical_schema() {
    let output = lomon(&["check", "--format", "json", common::FIXTURE, PROPERTY]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let text = stdout(&output);
    assert!(
        text.contains("\"stats\": {\"backend\": \"fused\", \"properties\": 1"),
        "stdout: {text}"
    );
}

#[test]
fn smc_progress_line_per_batch_and_quiet() {
    // JSON format: stdout carries no wall clock, so the loud and quiet
    // reports must be byte-identical.
    let loud = lomon(&["smc", "--episodes", "8", "--seed", "1", "--format", "json"]);
    assert!(loud.status.success(), "stderr: {}", stderr(&loud));
    let err = stderr(&loud);
    assert!(
        err.contains("smc: 8/8 episodes") && err.contains("\u{b1}"),
        "stderr: {err}"
    );

    let quiet = lomon(&[
        "smc",
        "--episodes",
        "8",
        "--seed",
        "1",
        "--format",
        "json",
        "--quiet",
    ]);
    assert!(quiet.status.success(), "stderr: {}", stderr(&quiet));
    assert!(
        !stderr(&quiet).contains("episodes"),
        "stderr: {}",
        stderr(&quiet)
    );
    // --quiet silences telemetry, never the report.
    assert_eq!(stdout(&loud), stdout(&quiet));
}

#[test]
fn smc_stats_every_heartbeats_are_jobs_independent() {
    let run = |jobs: &str| {
        let output = lomon(&[
            "smc",
            "--episodes",
            "200",
            "--seed",
            "9",
            "--stats-every",
            "64",
            "--quiet",
            "--jobs",
            jobs,
        ]);
        assert!(output.status.success(), "stderr: {}", stderr(&output));
        let err = stderr(&output);
        let heartbeats: Vec<String> = err
            .lines()
            .filter(|l| l.starts_with("{\"type\": \"stats\""))
            .map(str::to_owned)
            .collect();
        assert!(!heartbeats.is_empty(), "stderr: {err}");
        heartbeats
    };
    let single = run("1");
    let parallel = run("2");
    assert_eq!(single, parallel, "heartbeats must not depend on --jobs");
    assert!(
        single
            .last()
            .expect("final heartbeat")
            .contains("\"episodes\": 200"),
        "heartbeats: {single:?}"
    );
}

#[test]
fn smc_metrics_live_endpoint_during_campaign() {
    // An episode budget far beyond the scrape window: the listener serves
    // while workers are mid-campaign, resetting sessions between episodes
    // — the scrape-during-reset race, exercised over real TCP.
    let (mut child, addr, _err) = spawn_with_metrics(&[
        "smc",
        "--episodes",
        "5000000",
        "--seed",
        "3",
        "--quiet",
        "--metrics",
        "127.0.0.1:0",
    ]);
    let body = scrape_until(&addr, "/metrics", |b| {
        b.lines().any(|l| {
            l.strip_prefix("lomon_smc_episodes_total ")
                .and_then(|v| v.parse::<f64>().ok())
                .is_some_and(|v| v > 0.0)
        })
    });
    for family in [
        "# TYPE lomon_smc_episodes_total counter",
        "# TYPE lomon_smc_episode_duration_ns histogram",
        "lomon_smc_episodes_planned 5000000",
        "lomon_smc_mean{property=\"0\"}",
        "lomon_smc_half_width{property=\"0\"}",
        "lomon_events_total",
    ] {
        assert!(body.contains(family), "missing `{family}` in:\n{body}");
    }
    child.kill().expect("kill campaign");
    child.wait().expect("reap campaign");
}

#[test]
fn smc_json_report_carries_the_canonical_schema() {
    let output = lomon(&[
        "smc",
        "--episodes",
        "16",
        "--seed",
        "4",
        "--quiet",
        "--format",
        "json",
    ]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let text = stdout(&output);
    assert!(
        text.contains("\"stats\": {\"backend\": \"fused\", \"properties\": 2"),
        "stdout: {text}"
    );
    // The pre-schema aliases survive for old consumers.
    assert!(text.contains("\"events\": ") && text.contains("\"monitor_steps\": "));
}
