//! End-to-end **bytes → verdicts** cost of the wire-speed ingest path.
//!
//! The hot-loop bench prices a *pre-resolved* event; this one prices the
//! whole pipeline a deployment actually runs — trace text in, verdicts
//! out — and compares today's byte path against a faithful reconstruction
//! of the pre-wire-speed `String` pipelines on the `disjoint-50` workload
//! (rendered to trace text, ~20 bytes/event):
//!
//! * `string-stream` — the old `lomon watch`/`lomon serve` shape: one heap
//!   `String` per line (what `BufRead::lines` produced), one owned
//!   `String` per event name (`StreamLine::Event`), a SipHash
//!   `HashMap<String, Name>` probe per event (the old vocabulary index),
//!   and per-event dispatch.
//! * `string-file` — the old `lomon check` shape: copy the whole buffer
//!   into a `String` (`fs::read_to_string`), parse `str` lines into a
//!   fresh [`Trace`] through the SipHash probe, then batch-ingest.
//! * `wire` — the whole-buffer byte path: [`decode_events_into`] lexes
//!   the bytes in place, resolves names against the frozen byte-keyed
//!   vocabulary table, fills one reused `Vec<TimedEvent>`, and
//!   batch-ingests. `wire-observed` is the same pipeline with
//!   [`IoMetrics`] attached (one histogram sample per buffer).
//!
//! No `lomon` surface runs the `wire` pipeline any more: `check`,
//! `watch` and `serve` all go through the engine's stream driver, one
//! line at a time. The gate still prices the byte lexer and the frozen
//! vocabulary that the driver shares with it.
//!
//! Run `cargo run -p lomon-bench --bin wire_speed --release` to print the
//! table and (re)write `BENCH_wire_speed.json` (tracked at the repo root).
//!
//! `--check` is the CI gate: all pipelines must agree on every verdict
//! and per-property ops counter, the wire path must be at least
//! [`STREAM_GATE_SPEEDUP`]× faster end-to-end than the pre-wire-speed
//! streaming pipeline, and attaching decode telemetry must cost at most
//! [`OBS_OVERHEAD_GATE`]× of the detached pipeline. With `--baseline
//! <path>` the fresh stream speedup is additionally ratcheted against the
//! committed `BENCH_wire_speed.json` ([`BASELINE_TOLERANCE`]).

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Instant;

use lomon_bench::workloads::disjoint_with_vocabulary;
use lomon_engine::{Backend, DispatchMode, Engine, Session};
use lomon_obs::Registry;
use lomon_trace::{
    decode_events_into, decode_events_into_observed, parse_stream_line, parse_trace_line,
    write_trace, IoMetrics, Name, SimTime, StreamFormat, StreamLine, TimedEvent, Trace, TraceLine,
    Vocabulary,
};

/// The CI gate: the wire path must beat the pre-wire-speed streaming
/// pipeline end-to-end by at least this factor. Measured ≈4–5× on the
/// reference machine; the static floor leaves headroom for machine noise,
/// and the `--baseline` ratchet is the binding regression guard.
const STREAM_GATE_SPEEDUP: f64 = 3.0;

/// Attaching decode telemetry (`IoMetrics`, one histogram sample per
/// buffer) may cost at most this factor over the detached pipeline.
const OBS_OVERHEAD_GATE: f64 = 1.10;

/// A fresh stream speedup below `tolerance × committed` fails `--baseline`.
const BASELINE_TOLERANCE: f64 = 0.8;

/// Timed repetitions per pipeline; the minimum is reported. Interleaved
/// (see `main`) so load drift on a shared machine hits every pipeline
/// equally instead of skewing the ratios.
const REPS: usize = 9;

/// The pre-wire-speed streaming pipeline (`lomon watch` before the byte
/// path): String per line, String per name, SipHash probe, per-event
/// dispatch. `sip` stands in for the old vocabulary's `HashMap<String,
/// Name>` read side.
fn replay_string_stream(
    session: &mut Session<'_>,
    bytes: &[u8],
    sip: &HashMap<String, Name>,
) -> u128 {
    session.reset();
    let started = Instant::now();
    let mut end = SimTime::ZERO;
    // `BufRead::lines` is what the old loop drained: `read_until` into a
    // fresh `String` per line plus a UTF-8 validation pass, here over an
    // in-memory reader so disk speed stays out of the measurement.
    for line in std::io::BufRead::lines(std::io::Cursor::new(bytes)) {
        let line = line.expect("bench trace reads");
        match parse_stream_line(StreamFormat::Trace, &line).expect("bench trace parses") {
            None => {}
            Some(StreamLine::Event { time, name, .. }) => {
                let name = *sip.get(name.as_str()).expect("bench name is known");
                session.ingest(TimedEvent::new(name, time));
                end = time;
            }
            Some(StreamLine::End(time)) => {
                session.advance_time(time);
                end = time;
            }
        }
    }
    session.close(end);
    started.elapsed().as_nanos()
}

/// The pre-wire-speed file pipeline (`lomon check` before mmap + byte
/// lexing): copy the bytes into a `String` (`fs::read_to_string`), parse
/// into a fresh [`Trace`] through the SipHash probe, batch-ingest.
fn replay_string_file(
    session: &mut Session<'_>,
    bytes: &[u8],
    sip: &HashMap<String, Name>,
) -> u128 {
    session.reset();
    let started = Instant::now();
    let text = String::from_utf8(bytes.to_vec()).expect("bench trace is UTF-8");
    let mut trace = Trace::new();
    for line in text.lines() {
        match parse_trace_line(line).expect("bench trace parses") {
            None => {}
            Some(TraceLine::Event { time, name, .. }) => {
                let name = *sip.get(name).expect("bench name is known");
                trace.push(name, time);
            }
            Some(TraceLine::End(time)) => trace.set_end_time(time),
        }
    }
    session.ingest_batch(trace.events());
    session.close(trace.end_time());
    started.elapsed().as_nanos()
}

/// The wire-speed pipeline: byte-slice lexing, frozen-vocabulary name
/// resolution, one reused pre-resolved event buffer, batch ingest.
fn replay_wire(
    session: &mut Session<'_>,
    bytes: &[u8],
    voc: &Vocabulary,
    buf: &mut Vec<TimedEvent>,
    metrics: Option<&IoMetrics>,
) -> u128 {
    session.reset();
    let started = Instant::now();
    let summary = match metrics {
        None => decode_events_into(bytes, voc, buf),
        observed => decode_events_into_observed(bytes, voc, buf, observed),
    }
    .expect("bench trace decodes");
    session.ingest_batch(buf);
    let end = summary
        .end_time
        .or_else(|| buf.last().map(|e| e.time))
        .unwrap_or(SimTime::ZERO);
    session.close(end);
    started.elapsed().as_nanos()
}

/// Per-property `(verdict, ops)` digest — the identity oracle across
/// pipelines, as in the `hot_loop` bench.
fn digest(engine: &Engine, session: &Session<'_>) -> Vec<(lomon_core::Verdict, u64)> {
    (0..engine.len())
        .map(|id| (session.verdict(id), session.ops(id)))
        .collect()
}

struct Row {
    name: &'static str,
    events: usize,
    bytes: usize,
    stream_ns: f64,
    file_ns: f64,
    wire_ns: f64,
    observed_ns: f64,
}

impl Row {
    /// Wire over the pre-wire-speed streaming pipeline — the headline.
    fn speedup(&self) -> f64 {
        self.stream_ns / self.wire_ns.max(f64::MIN_POSITIVE)
    }

    /// Wire over the pre-wire-speed file pipeline.
    fn file_speedup(&self) -> f64 {
        self.file_ns / self.wire_ns.max(f64::MIN_POSITIVE)
    }

    /// Observed-over-detached wire cost (1.0 = telemetry is free).
    fn observed_overhead(&self) -> f64 {
        self.observed_ns / self.wire_ns.max(f64::MIN_POSITIVE)
    }

    fn wire_mb_per_sec(&self) -> f64 {
        let secs = self.wire_ns * self.events as f64 / 1e9;
        self.bytes as f64 / 1e6 / secs.max(f64::MIN_POSITIVE)
    }
}

fn render_json(rows: &[Row]) -> String {
    let mut out = String::from("{\n  \"bench\": \"wire_speed\",\n  \"unit\": \"ns/event\",\n");
    out.push_str("  \"workloads\": [\n");
    for (k, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"events\": {}, \"bytes\": {}, \
             \"string_stream_ns_per_event\": {:.2}, \"string_file_ns_per_event\": {:.2}, \
             \"wire_ns_per_event\": {:.2}, \"speedup\": {:.2}, \"file_speedup\": {:.2}, \
             \"observed_overhead\": {:.3}, \"wire_mb_per_sec\": {:.0}}}{}\n",
            row.name,
            row.events,
            row.bytes,
            row.stream_ns,
            row.file_ns,
            row.wire_ns,
            row.speedup(),
            row.file_speedup(),
            row.observed_overhead(),
            row.wire_mb_per_sec(),
            if k + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Extract `(name, speedup)` pairs from a committed `BENCH_wire_speed.json`
/// (one workload object per line, see [`render_json`]).
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let field = |line: &str, key: &str| -> Option<String> {
        let at = line.find(key)? + key.len();
        let rest = line[at..].trim_start_matches([':', ' ', '"']);
        let end = rest.find(['"', ',', '}']).unwrap_or(rest.len());
        Some(rest[..end].to_owned())
    };
    text.lines()
        .filter_map(|line| {
            let name = field(line, "\"name\"")?;
            let speedup = field(line, "\"speedup\"")?.parse().ok()?;
            Some((name, speedup))
        })
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check_mode = args.iter().any(|a| a == "--check");
    let baseline_path = args
        .iter()
        .position(|a| a == "--baseline")
        .and_then(|at| args.get(at + 1).cloned());
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|at| args.get(at + 1).cloned());

    // The check matrix is smaller so the CI gate stays fast; the ratios it
    // gates are per-event and stable across the sizes.
    let rounds = if check_mode { 2_000 } else { 10_000 };
    let (engine, voc, events) = disjoint_with_vocabulary(50, rounds);

    // Render the workload to trace text — the bytes every pipeline starts
    // from — with an explicit `end` line so all pipelines close at the
    // same instant.
    let mut trace = Trace::from_pairs(events.iter().map(|e| (e.time, e.name)));
    trace.set_end_time(trace.end_time());
    let text = write_trace(&trace, &voc);
    let bytes = text.as_bytes();

    // The old vocabulary's read side: a SipHash-keyed owned-string map.
    let sip: HashMap<String, Name> = voc
        .iter()
        .map(|name| (voc.resolve(name).to_owned(), name))
        .collect();

    let registry = Registry::new();
    let io_metrics = IoMetrics::register(&registry);
    let mut sessions: Vec<Session<'_>> = (0..4)
        .map(|_| engine.session_with_backend(DispatchMode::Indexed, Backend::Fused))
        .collect();
    let mut best = [u128::MAX; 4];
    let mut buf: Vec<TimedEvent> = Vec::new();
    for _ in 0..REPS {
        let [s0, s1, s2, s3] = sessions.as_mut_slice() else {
            unreachable!("exactly four pipelines measured")
        };
        let t0 = replay_string_stream(s0, bytes, &sip);
        let t1 = replay_string_file(s1, bytes, &sip);
        let t2 = replay_wire(s2, bytes, &voc, &mut buf, None);
        let t3 = replay_wire(s3, bytes, &voc, &mut buf, Some(&io_metrics));
        if std::env::var_os("WIRE_SPEED_DEBUG").is_some() {
            eprintln!(
                "rep: stream {:.1} file {:.1} wire {:.1} obs {:.1}",
                t0 as f64 / events.len() as f64,
                t1 as f64 / events.len() as f64,
                t2 as f64 / events.len() as f64,
                t3 as f64 / events.len() as f64
            );
        }
        best[0] = best[0].min(t0);
        best[1] = best[1].min(t1);
        best[2] = best[2].min(t2);
        best[3] = best[3].min(t3);
    }

    let per_event = |nanos: u128| nanos as f64 / events.len() as f64;
    let row = Row {
        name: "disjoint-50",
        events: events.len(),
        bytes: bytes.len(),
        stream_ns: per_event(best[0]),
        file_ns: per_event(best[1]),
        wire_ns: per_event(best[2]),
        observed_ns: per_event(best[3]),
    };

    println!("wire speed — bytes → verdicts, byte path vs pre-wire-speed String pipelines (best of {REPS})");
    println!(
        "{:>12} {:>9} {:>10} {:>10} {:>9} {:>9} {:>8} {:>8} {:>8} {:>9}",
        "workload",
        "events",
        "bytes",
        "stream ns",
        "file ns",
        "wire ns",
        "str/wir",
        "fil/wir",
        "obs ovh",
        "wire MB/s"
    );
    println!(
        "{:>12} {:>9} {:>10} {:>10.1} {:>9.1} {:>9.1} {:>7.1}x {:>7.1}x {:>7.2}x {:>9.0}",
        row.name,
        row.events,
        row.bytes,
        row.stream_ns,
        row.file_ns,
        row.wire_ns,
        row.speedup(),
        row.file_speedup(),
        row.observed_overhead(),
        row.wire_mb_per_sec(),
    );
    println!();

    // Differential gate: every pipeline decoded the same bytes, so every
    // pipeline must have reached the same verdict with the same ops
    // counter on every property.
    let reference = digest(&engine, &sessions[0]);
    let mut ok = true;
    for (k, session) in sessions.iter().enumerate().skip(1) {
        let other = digest(&engine, session);
        if other != reference {
            for id in 0..engine.len() {
                if reference[id] != other[id] {
                    eprintln!(
                        "MISMATCH: property {id}: pipeline 0 {:?} vs pipeline {k} {:?}",
                        reference[id], other[id]
                    );
                }
            }
            ok = false;
        }
    }
    if !ok {
        println!("FAIL: pipelines disagree on verdicts or ops counters");
    }

    if check_mode {
        if row.speedup() < STREAM_GATE_SPEEDUP {
            println!(
                "FAIL: wire speedup {:.2}x below the {STREAM_GATE_SPEEDUP}x gate",
                row.speedup()
            );
            ok = false;
        }
        if row.observed_overhead() > OBS_OVERHEAD_GATE {
            println!(
                "FAIL: decode telemetry costs {:.3}x (gate {OBS_OVERHEAD_GATE}x detached)",
                row.observed_overhead()
            );
            ok = false;
        }
        if let Some(path) = &baseline_path {
            match std::fs::read_to_string(path) {
                Ok(text) => {
                    let committed = parse_baseline(&text);
                    match committed.iter().find(|(n, _)| n == row.name) {
                        Some((_, base)) => {
                            let floor = base * BASELINE_TOLERANCE;
                            if row.speedup() < floor {
                                println!(
                                    "FAIL: wire speedup {:.2}x regressed below {floor:.2}x \
                                     ({BASELINE_TOLERANCE} x committed {base:.2}x)",
                                    row.speedup()
                                );
                                ok = false;
                            }
                        }
                        None => {
                            println!("FAIL: baseline {path} has no workload `{}`", row.name);
                            ok = false;
                        }
                    }
                }
                Err(e) => {
                    println!("FAIL: cannot read baseline {path}: {e}");
                    ok = false;
                }
            }
        }
        if ok {
            println!(
                "OK: pipelines verdict- and ops-identical; wire >= {STREAM_GATE_SPEEDUP}x the \
                 String streaming pipeline end-to-end; decode telemetry <= \
                 {OBS_OVERHEAD_GATE}x detached"
            );
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    } else {
        let path = out_path.unwrap_or_else(|| "BENCH_wire_speed.json".to_owned());
        match std::fs::write(&path, render_json(&[row])) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}
