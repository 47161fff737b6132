//! Golden transcripts of the streaming surfaces: the exact stdout, stderr
//! and exit code of `lomon check` over trace files and of `lomon watch` in
//! both input formats, and the exact frames of one `lomon serve`
//! connection. The other check/watch/serve suites assert fragments; these
//! pin whole outputs, so any byte that a change to the stream pipeline
//! moves shows up as a fixture diff.
//!
//! After an *intended* output change, regenerate the fixtures with
//! `LOMON_BLESS=1 cargo test --test stream_golden` and review the diff.

mod common;

use std::io::{Read as _, Write as _};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use lomon::serve::{ServeConfig, Server};

const ONCE: &str = "all{set_imgAddr, set_glAddr, set_glSize} << start once";
const TIMED: &str = "go => out:done within 50 ns";

/// One `watch` scenario, run once per input format. `stream` is written in
/// the trace format; the NDJSON run converts it line by line.
struct Case {
    name: &'static str,
    args: &'static [&'static str],
    stream: &'static str,
    code: i32,
}

const CASES: &[Case] = &[
    Case {
        name: "clean",
        args: &[ONCE, TIMED],
        stream: "10ns in set_imgAddr\n12ns in set_glAddr\n15ns in set_glSize\n\
                 20ns in start\n30ns in go\n40ns out done\nend 100ns\n",
        code: 0,
    },
    Case {
        name: "violating",
        args: &[ONCE, TIMED],
        stream: "5ns in start\n20ns in set_imgAddr\n30ns in go\nend 200ns\n",
        code: 1,
    },
    Case {
        name: "violating_explain",
        args: &["--explain", ONCE, TIMED],
        stream: "5ns in start\n20ns in set_imgAddr\n30ns in go\nend 200ns\n",
        code: 1,
    },
    Case {
        name: "stats_every",
        args: &["--stats-every", "2", common::PROPERTY],
        stream: "10ns in set_imgAddr\n20ns in set_glAddr\n30ns in set_glSize\n\
                 40ns in start\n50ns in set_imgAddr\nend 100ns\n",
        code: 0,
    },
    Case {
        name: "malformed",
        args: &[ONCE],
        stream: "banana in start\n5ns in set_imgAddr\nthis is not an event\n20ns in start\n",
        code: 1,
    },
    Case {
        name: "time_travel",
        args: &[common::PROPERTY],
        stream: "10ns in set_imgAddr\n5ns in set_glAddr\n20ns in set_glAddr\nend 4ns\n",
        code: 0,
    },
    Case {
        name: "mid_stream_end",
        args: &[TIMED],
        stream: "10ns in go\nend 20ns\n30ns out done\n40ns in go\nend 200ns\n",
        code: 1,
    },
    Case {
        name: "crlf",
        args: &[ONCE],
        stream: "10ns in set_imgAddr\r\n12ns in set_glAddr\r\n15ns in set_glSize\r\n\
                 20ns in start\r\n",
        code: 0,
    },
    Case {
        name: "no_final_newline",
        args: &[common::PROPERTY],
        stream: "10ns in set_imgAddr\n20ns in set_glAddr\n30ns in set_glSize\n40ns in start",
        code: 0,
    },
    Case {
        name: "strict",
        args: &["--strict", ONCE],
        stream: "5ns in set_imgAddr\nbanana in start\n20ns in start\n",
        code: 2,
    },
    Case {
        name: "unknown_name",
        args: &[TIMED],
        stream: "10ns in go\n20ns in noise\n200ns in noise\n300ns in go\n",
        code: 1,
    },
    // One line per way the trace-text grammar words a fault, then an event
    // with non-breaking spaces between its fields, which the grammar reads
    // as whitespace.
    Case {
        name: "fault_classes",
        args: &[common::PROPERTY],
        stream: "10ns in set_imgAddr\n\
                 12 in a\n\
                 ns in a\n\
                 123456789012345678901ns in a\n\
                 12xs in a\n\
                 18446744073709552ns in a\n\
                 13ns\n\
                 13ns sideways a\n\
                 13ns in\n\
                 13ns in a junk\n\
                 end\n\
                 end 14ns junk\n\
                 15ns\u{a0}in\u{a0}set_glAddr\n\
                 16ns in set_glSize\n\
                 17ns in start\n",
        code: 0,
    },
];

fn fixture(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/stream")
        .join(file)
}

/// Compare `actual` with the committed fixture, or rewrite the fixture
/// when `LOMON_BLESS` is set.
fn assert_golden(file: &str, actual: &str) {
    let path = fixture(file);
    if std::env::var_os("LOMON_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir");
        std::fs::write(&path, actual).expect("bless fixture");
        return;
    }
    let expected =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    assert_eq!(actual, expected, "transcript diverged from {file}");
}

/// The trace-format stream as NDJSON: events and `end` lines convert field
/// by field, anything else (the malformed lines) passes through, and the
/// line terminators are kept.
fn to_ndjson(stream: &str) -> String {
    stream
        .split_inclusive('\n')
        .map(|raw| {
            let line = raw.trim_end_matches(['\r', '\n']);
            let terminator = &raw[line.len()..];
            let fields: Vec<&str> = line.split_whitespace().collect();
            let json = match fields[..] {
                ["end", time] => format!("{{\"end\": \"{time}\"}}"),
                [time, dir @ ("in" | "out"), name] => {
                    format!("{{\"time\": \"{time}\", \"dir\": \"{dir}\", \"name\": \"{name}\"}}")
                }
                _ => line.to_owned(),
            };
            json + terminator
        })
        .collect()
}

fn run_watch(case: &Case, format: &str) {
    let stream = match format {
        "trace" => case.stream.to_owned(),
        _ => to_ndjson(case.stream),
    };
    let mut args = vec!["watch", "--format", format];
    args.extend_from_slice(case.args);
    let output = common::lomon_with_stdin(&args, &stream);
    let name = format!("watch_{}_{format}", case.name);
    assert_eq!(
        output.status.code(),
        Some(case.code),
        "{name}: stderr {}",
        common::stderr(&output)
    );
    assert_golden(&format!("{name}.stdout"), &common::stdout(&output));
    assert_golden(&format!("{name}.stderr"), &common::stderr(&output));
}

#[test]
fn watch_trace_transcripts() {
    for case in CASES {
        run_watch(case, "trace");
    }
}

#[test]
fn watch_ndjson_transcripts() {
    for case in CASES {
        run_watch(case, "ndjson");
    }
}

/// `check --stats-every` renders its heartbeats as the stream driver's
/// stats records, on stderr.
#[test]
fn check_heartbeat_transcript() {
    let output = common::lomon(&[
        "check",
        "--stats-every",
        "3",
        common::FIXTURE,
        "start << set_imgAddr once",
        common::PROPERTY,
    ]);
    assert_eq!(output.status.code(), Some(1), "{}", common::stderr(&output));
    assert_golden("check_stats_every.stdout", &common::stdout(&output));
    assert_golden("check_stats_every.stderr", &common::stderr(&output));
}

/// One `check` scenario: its trace files are written to a temporary
/// directory, which the transcripts name `<dir>`, and passed before `args`.
struct CheckCase {
    name: &'static str,
    args: &'static [&'static str],
    files: &'static [(&'static str, &'static [u8])],
    code: i32,
}

const CLEAN: &[u8] = b"10ns in set_imgAddr\n12ns in set_glAddr\n15ns in set_glSize\n\
                       20ns in start\n30ns in go\n40ns out done\nend 100ns\n";
const VIOLATING: &[u8] = b"5ns in start\n20ns in set_imgAddr\n30ns in go\nend 200ns\n";

const CHECK_CASES: &[CheckCase] = &[
    CheckCase {
        name: "text",
        args: &[ONCE, TIMED],
        files: &[("clean.trace", CLEAN)],
        code: 0,
    },
    CheckCase {
        name: "json",
        args: &["--format", "json", ONCE, TIMED],
        files: &[("clean.trace", CLEAN), ("violating.trace", VIOLATING)],
        code: 1,
    },
    CheckCase {
        name: "explain",
        args: &["--explain", ONCE, TIMED],
        files: &[("violating.trace", VIOLATING)],
        code: 1,
    },
    CheckCase {
        name: "multi_file",
        args: &[ONCE, TIMED],
        files: &[
            ("a.trace", CLEAN),
            ("b.trace", VIOLATING),
            ("c.trace", CLEAN),
        ],
        code: 1,
    },
    CheckCase {
        name: "crlf",
        args: &[ONCE],
        files: &[(
            "crlf.trace",
            b"10ns in set_imgAddr\r\n12ns in set_glAddr\r\n15ns in set_glSize\r\n\
              20ns in start\r\n",
        )],
        code: 0,
    },
    CheckCase {
        name: "no_final_newline",
        args: &[common::PROPERTY],
        files: &[(
            "t.trace",
            b"10ns in set_imgAddr\n20ns in set_glAddr\n30ns in set_glSize\n40ns in start",
        )],
        code: 0,
    },
    CheckCase {
        name: "mid_file_end",
        args: &[TIMED],
        files: &[(
            "t.trace",
            b"10ns in go\nend 20ns\n30ns out done\n40ns in go\nend 200ns\n",
        )],
        code: 1,
    },
    CheckCase {
        name: "malformed",
        args: &[ONCE],
        files: &[
            ("clean.trace", CLEAN),
            (
                "bad.trace",
                b"5ns in set_imgAddr\nthis is not an event\n20ns in start\n",
            ),
        ],
        code: 1,
    },
    CheckCase {
        name: "time_travel",
        args: &[common::PROPERTY],
        files: &[(
            "t.trace",
            b"10ns in set_imgAddr\n5ns in set_glAddr\n20ns in set_glAddr\n",
        )],
        code: 1,
    },
    CheckCase {
        name: "invalid_utf8",
        args: &[ONCE],
        files: &[("t.trace", b"10ns in set_imgAddr\n20ns in caf\xc3\n")],
        code: 1,
    },
    // A name no property uses only advances time: it is not counted as an
    // event, but its timestamp still expires the deadline.
    CheckCase {
        name: "unknown_name",
        args: &[TIMED],
        files: &[(
            "t.trace",
            b"10ns in go\n20ns in noise\n200ns in noise\n300ns in go\n",
        )],
        code: 1,
    },
    // Name directions come from the rulebook, not from the trace's
    // `in|out` token.
    CheckCase {
        name: "direction",
        args: &["a << start once"],
        files: &[("t.trace", b"10ns in a\n20ns out start\n")],
        code: 0,
    },
    // Heartbeats come at multiples of N only.
    CheckCase {
        name: "stats_every_partial",
        args: &["--stats-every", "3", common::PROPERTY],
        files: &[(
            "t.trace",
            b"10ns in set_imgAddr\n20ns in set_glAddr\n30ns in set_glSize\n\
              40ns in start\n50ns in set_imgAddr\n60ns in set_glAddr\n70ns in set_glSize\n",
        )],
        code: 0,
    },
];

/// Write `files` to a fresh temporary directory, run `lomon check` on them
/// with `args`, and compare the transcripts with the directory as `<dir>`.
fn run_check(name: &str, args: &[&str], files: &[(&str, &[u8])], code: i32) {
    let dir = std::env::temp_dir().join(format!("lomon-golden-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut argv = vec!["check".to_owned()];
    for (file, bytes) in files {
        let path = dir.join(file);
        std::fs::write(&path, bytes).expect("write trace");
        argv.push(path.to_str().expect("UTF-8 temp path").to_owned());
    }
    argv.extend(args.iter().map(|&a| a.to_owned()));
    let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
    let output = common::lomon(&argv);
    std::fs::remove_dir_all(&dir).ok();
    let dir = dir.to_str().expect("UTF-8 temp path");
    let name = format!("check_{name}");
    assert_eq!(
        output.status.code(),
        Some(code),
        "{name}: stderr {}",
        common::stderr(&output)
    );
    assert_golden(
        &format!("{name}.stdout"),
        &common::stdout(&output).replace(dir, "<dir>"),
    );
    assert_golden(
        &format!("{name}.stderr"),
        &common::stderr(&output).replace(dir, "<dir>"),
    );
}

#[test]
fn check_transcripts() {
    for case in CHECK_CASES {
        run_check(case.name, case.args, case.files, case.code);
    }
}

/// A line over the 64 KiB frame cap is a fatal error of its file, as on
/// the other stream surfaces.
#[test]
fn check_oversized_line_transcript() {
    let mut trace = b"10ns in set_imgAddr\n20ns in set_glAddr\n30ns in set_glSize\n# ".to_vec();
    trace.resize(trace.len() + 70_000, b'x');
    trace.extend_from_slice(b"\n40ns in start\n");
    run_check("oversized_line", &[ONCE], &[("t.trace", &trace)], 1);
}

/// One connection carrying two complete streams, then a third stream cut
/// by a time-travel fault: ready, verdict, open-verdict, summary and error
/// frames, byte for byte.
#[test]
fn serve_connection_transcript() {
    let config = ServeConfig {
        read_tick: Duration::from_millis(5),
        ..ServeConfig::default()
    };
    let server = Server::start(config, &format!("{ONCE}\n{TIMED}\n")).expect("server starts");
    let mut socket = TcpStream::connect(server.local_addr()).expect("connect");
    socket
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let frames = [
        // Stream 0: `start` before the configuration, a missed deadline.
        r#"{"time": "5ns", "name": "start"}"#,
        r#"{"time": "10ns", "name": "go"}"#,
        r#"{"end": "1us"}"#,
        // Stream 1: clean, with an unknown name in the middle.
        r#"{"time": "10ns", "name": "set_imgAddr"}"#,
        r#"{"time": "12ns", "name": "set_glAddr"}"#,
        r#"{"time": "13ns", "name": "never_subscribed"}"#,
        r#"{"time": "15ns", "name": "set_glSize"}"#,
        r#"{"time": "20ns", "name": "start"}"#,
        r#"{"end": "30ns"}"#,
        // Stream 2: time runs backwards and the connection is closed.
        r#"{"time": "50ns", "name": "go"}"#,
        r#"{"time": "40ns", "name": "done", "dir": "out"}"#,
    ];
    for frame in frames {
        socket
            .write_all(format!("{frame}\n").as_bytes())
            .expect("send frame");
    }
    let mut transcript = String::new();
    socket
        .read_to_string(&mut transcript)
        .expect("read until the server closes");
    let _ = socket.shutdown(Shutdown::Both);
    assert_golden("serve_connection.out", &transcript);
}
