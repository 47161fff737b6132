//! Telemetry overhead gate: the zero-overhead claim, measured.
//!
//! Replays the four `hot_loop` workloads through the fused backend three
//! times — detached, with a live [`Registry`] and an attached
//! [`SessionMetrics`] sink, and in explain mode (a bounded flight
//! recorder armed per monitor) — interleaved rep by rep, and compares the
//! best-of-[`REPS`] ns/event. The instrumentation flushes watermark deltas
//! at batch boundaries only, so the hot loop itself is untouched; the
//! `--check` CI gate holds the instrumented/plain ratio at
//! [`OVERHEAD_GATE`], the explain/plain ratio at [`EXPLAIN_GATE`], and
//! additionally requires
//!
//! * verdict *and* per-property ops identity across all three sessions
//!   (telemetry and witness capture observe, never perturb), and
//! * exact counter accounting: after `REPS` replays the registry's
//!   `lomon_events_total` equals `REPS × events` and
//!   `lomon_streams_total` equals `REPS` — the deltas neither drop nor
//!   double-count across session resets.
//!
//! `Session::ingest_batch` is not what the surfaces run, so a second leg
//! times the path that ships: the same workloads rendered as trace text
//! and as NDJSON, pushed through a [`StreamDriver`] in 64 KiB chunks into
//! a counting sink, detached against [`IoMetrics`] + [`SessionMetrics`]
//! attached (what `--metrics` wires up), interleaved, best of [`REPS`].
//! `--check` holds that ratio at [`OVERHEAD_GATE`] too, and requires
//! identical records on both sides and exact `lomon_io_lines_total`,
//! `lomon_io_bytes_total` and `lomon_events_total`.

use std::fmt::Write as _;
use std::io;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use lomon_bench::workloads::{disjoint_with_vocabulary, overlapping_with_vocabulary};
use lomon_engine::{
    Backend, DispatchMode, Engine, Record, Session, SessionMetrics, Step, StreamDriver,
};
use lomon_obs::Registry;
use lomon_trace::{write_trace, IoMetrics, SimTime, StreamFormat, TimedEvent, Trace, Vocabulary};

/// The `--check` gate: instrumented ns/event at most this multiple of the
/// detached session's. The measured overhead is a few percent at worst —
/// one relaxed-atomic delta flush per batch, amortized over thousands of
/// events — so 1.10× leaves room for timer noise without ever excusing a
/// counter on the hot path.
const OVERHEAD_GATE: f64 = 1.10;

/// The `--check` gate for explain mode: fused ns/event with a flight
/// recorder armed at most this multiple of the detached session's. Witness
/// capture does real per-step work (a ring append per contributing step),
/// so its budget is looser than the batch-boundary telemetry's — but it
/// must stay cheap enough to arm on any suspicious run.
const EXPLAIN_GATE: f64 = 1.15;

/// Flight-recorder capacity armed on the explain-mode session, matching
/// the CLI's `--explain`.
const EXPLAIN_CAPACITY: usize = 64;

/// Timed repetitions per workload; the minimum is reported. Interleaved
/// between the plain and instrumented sessions so load drift on a shared
/// machine cannot skew the ratio.
const REPS: usize = 15;

/// The read size of `check` and `watch`, in which the driver leg feeds
/// its input.
const CHUNK: usize = 64 * 1024;

struct Workload {
    name: &'static str,
    engine: Engine,
    voc: Vocabulary,
    events: Vec<TimedEvent>,
}

/// One timed replay of `events` through `session` (reset first, outside
/// the timer — identical to the `hot_loop` measurement).
fn replay(session: &mut Session<'_>, events: &[TimedEvent], end: SimTime) -> u128 {
    session.reset();
    let started = Instant::now();
    session.ingest_batch(events);
    session.close(end);
    started.elapsed().as_nanos()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check_mode = args.iter().any(|a| a == "--check");

    // The same matrix sizes as `hot_loop`: smaller in check mode so the CI
    // gate stays fast; the per-event ratio is stable across the sizes.
    let (single_rounds, multi_rounds) = if check_mode {
        (20_000, 2_000)
    } else {
        (100_000, 10_000)
    };
    let workload = |name, (engine, voc, events)| Workload {
        name,
        engine,
        voc,
        events,
    };
    let workloads: Vec<Workload> = vec![
        workload("single", disjoint_with_vocabulary(1, single_rounds)),
        workload("disjoint-50", disjoint_with_vocabulary(50, multi_rounds)),
        workload(
            "overlap-50",
            overlapping_with_vocabulary(50, multi_rounds * 5),
        ),
        workload(
            "overlap-200",
            overlapping_with_vocabulary(200, multi_rounds * 5),
        ),
    ];

    println!(
        "telemetry overhead — fused backend, detached vs live registry vs explain \
         (best of {REPS})"
    );
    println!(
        "{:>12} {:>9} {:>12} {:>14} {:>8} {:>14} {:>8}",
        "workload", "events", "plain ns/ev", "metrics ns/ev", "ratio", "explain ns/ev", "ratio"
    );

    let mut ok = true;
    for w in &workloads {
        let end = w.events.last().map(|e| e.time).unwrap_or(SimTime::ZERO);
        let registry = Registry::new();
        let metrics = SessionMetrics::register(&registry);
        let mut plain = w
            .engine
            .session_with_backend(DispatchMode::Indexed, Backend::Fused);
        let mut instrumented = w
            .engine
            .session_with_backend(DispatchMode::Indexed, Backend::Fused);
        instrumented.attach_metrics(Arc::clone(&metrics));
        let mut explained = w
            .engine
            .session_with_backend(DispatchMode::Indexed, Backend::Fused);
        explained.enable_explain(EXPLAIN_CAPACITY);

        let mut best = [u128::MAX; 3];
        for _ in 0..REPS {
            best[0] = best[0].min(replay(&mut plain, &w.events, end));
            best[1] = best[1].min(replay(&mut instrumented, &w.events, end));
            best[2] = best[2].min(replay(&mut explained, &w.events, end));
        }

        // Telemetry and witness capture observe, never perturb: every
        // verdict and every per-property ops counter must be identical
        // across all three sessions.
        for id in 0..w.engine.len() {
            let same = plain.verdict(id) == instrumented.verdict(id)
                && plain.ops(id) == instrumented.ops(id)
                && plain.verdict(id) == explained.verdict(id)
                && plain.ops(id) == explained.ops(id);
            if !same {
                println!(
                    "FAIL: {}: property {id} diverges under instrumentation \
                     ({:?}/{} vs {:?}/{} metrics vs {:?}/{} explain)",
                    w.name,
                    plain.verdict(id),
                    plain.ops(id),
                    instrumented.verdict(id),
                    instrumented.ops(id),
                    explained.verdict(id),
                    explained.ops(id),
                );
                ok = false;
            }
        }
        // Exact accounting across resets: each replay flushes its deltas.
        let expected_events = (REPS * w.events.len()) as u64;
        if metrics.events.get() != expected_events {
            println!(
                "FAIL: {}: lomon_events_total {} != {expected_events} (= {REPS} x {})",
                w.name,
                metrics.events.get(),
                w.events.len(),
            );
            ok = false;
        }
        if metrics.streams.get() != REPS as u64 {
            println!(
                "FAIL: {}: lomon_streams_total {} != {REPS}",
                w.name,
                metrics.streams.get(),
            );
            ok = false;
        }

        #[allow(clippy::cast_precision_loss)]
        let per_event = |ns: u128| ns as f64 / w.events.len() as f64;
        let (plain_ns, instr_ns, explain_ns) =
            (per_event(best[0]), per_event(best[1]), per_event(best[2]));
        let ratio = instr_ns / plain_ns.max(f64::MIN_POSITIVE);
        let explain_ratio = explain_ns / plain_ns.max(f64::MIN_POSITIVE);
        println!(
            "{:>12} {:>9} {:>12.1} {:>14.1} {:>7.3}x {:>14.1} {:>7.3}x",
            w.name,
            w.events.len(),
            plain_ns,
            instr_ns,
            ratio,
            explain_ns,
            explain_ratio,
        );
        if check_mode && ratio > OVERHEAD_GATE {
            println!(
                "FAIL: {}: instrumented {ratio:.3}x over the {OVERHEAD_GATE}x gate",
                w.name
            );
            ok = false;
        }
        if check_mode && explain_ratio > EXPLAIN_GATE {
            println!(
                "FAIL: {}: explain mode {explain_ratio:.3}x over the {EXPLAIN_GATE}x gate",
                w.name
            );
            ok = false;
        }
    }
    println!();

    println!(
        "telemetry overhead — stream driver, {} KiB chunks, detached vs IoMetrics + \
         SessionMetrics (best of {REPS})",
        CHUNK / 1024
    );
    println!(
        "{:>12} {:>7} {:>9} {:>12} {:>14} {:>8}",
        "workload", "format", "events", "plain ns/ev", "metrics ns/ev", "ratio"
    );
    for w in &workloads {
        for format in [StreamFormat::Trace, StreamFormat::Ndjson] {
            ok &= driver_leg(w, format, check_mode);
        }
    }
    println!();

    if !check_mode {
        return ExitCode::SUCCESS;
    }
    if ok {
        println!(
            "OK: live registry within {OVERHEAD_GATE}x of detached on ingest_batch and \
             on the stream driver, explain mode within {EXPLAIN_GATE}x, on all workloads; \
             verdicts, ops, records and counters exact"
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `events` as stream text in `format`, one newline-terminated line each.
fn render(events: &[TimedEvent], voc: &Vocabulary, format: StreamFormat) -> Vec<u8> {
    match format {
        StreamFormat::Trace => write_trace(
            &Trace::from_pairs(events.iter().map(|e| (e.time, e.name))),
            voc,
        ),
        StreamFormat::Ndjson => events.iter().fold(String::new(), |mut text, e| {
            let _ = writeln!(
                text,
                "{{\"time\": \"{}\", \"dir\": \"{}\", \"name\": \"{}\"}}",
                e.time,
                voc.direction(e.name),
                voc.resolve(e.name)
            );
            text
        }),
    }
    .into_bytes()
}

/// One timed stream through `driver` (reset first, outside the timer):
/// `input` in [`CHUNK`]-sized pushes, every line stepped, then closed.
/// `records` receives every rendered record; returns the nanoseconds taken
/// and the number of rejected lines.
fn drive(driver: &mut StreamDriver<'_>, input: &[u8], records: &mut String) -> (u128, u64) {
    driver.reset();
    records.clear();
    let mut faults = 0;
    let mut sink = |_: &Record<'_>, rendered: &str| -> io::Result<()> {
        records.push_str(rendered);
        Ok(())
    };
    let started = Instant::now();
    for chunk in input.chunks(CHUNK) {
        driver.push(chunk);
        while let Some(step) = driver.step(&mut sink).expect("the sink never fails") {
            faults += u64::from(matches!(step, Step::Fault(_)));
        }
    }
    driver.close(&mut sink).expect("the sink never fails");
    (started.elapsed().as_nanos(), faults)
}

/// The driver leg on one workload and format; prints its row and returns
/// whether every `--check` condition held.
fn driver_leg(w: &Workload, format: StreamFormat, check_mode: bool) -> bool {
    let input = render(&w.events, &w.voc, format);
    let lines = input.iter().filter(|&&b| b == b'\n').count() as u64;
    let registry = Registry::new();
    let session_metrics = SessionMetrics::register(&registry);
    let io_metrics = IoMetrics::register(&registry);
    let mut plain = StreamDriver::new(w.engine.session(), &w.voc, format);
    let mut session = w.engine.session();
    session.attach_metrics(Arc::clone(&session_metrics));
    let mut observed =
        StreamDriver::new(session, &w.voc, format).observe_io(Some(Arc::clone(&io_metrics)));

    let (mut plain_records, mut observed_records) = (String::new(), String::new());
    let mut best = [u128::MAX; 2];
    let mut faults = 0;
    for _ in 0..REPS {
        let (ns, f) = drive(&mut plain, &input, &mut plain_records);
        best[0] = best[0].min(ns);
        faults += f;
        let (ns, f) = drive(&mut observed, &input, &mut observed_records);
        best[1] = best[1].min(ns);
        faults += f;
    }

    let label = match format {
        StreamFormat::Trace => "trace",
        StreamFormat::Ndjson => "ndjson",
    };
    let mut ok = true;
    let mut fail = |what: String| {
        println!("FAIL: {} {label}: {what}", w.name);
        ok = false;
    };
    if faults > 0 {
        fail(format!("{faults} lines rejected"));
    }
    if plain_records != observed_records || plain_records.is_empty() {
        fail("records differ under instrumentation".to_owned());
    }
    let reps = REPS as u64;
    for (family, got, expected) in [
        ("lomon_io_lines_total", io_metrics.lines.get(), reps * lines),
        (
            "lomon_io_bytes_total",
            io_metrics.bytes.get(),
            reps * input.len() as u64,
        ),
        (
            "lomon_events_total",
            session_metrics.events.get(),
            reps * w.events.len() as u64,
        ),
    ] {
        if got != expected {
            fail(format!("{family} {got} != {expected}"));
        }
    }

    #[allow(clippy::cast_precision_loss)]
    let per_event = |ns: u128| ns as f64 / w.events.len() as f64;
    let (plain_ns, instr_ns) = (per_event(best[0]), per_event(best[1]));
    let ratio = instr_ns / plain_ns.max(f64::MIN_POSITIVE);
    println!(
        "{:>12} {label:>7} {:>9} {plain_ns:>12.1} {instr_ns:>14.1} {ratio:>7.3}x",
        w.name,
        w.events.len(),
    );
    if check_mode && ratio > OVERHEAD_GATE {
        fail(format!(
            "instrumented {ratio:.3}x over the {OVERHEAD_GATE}x gate"
        ));
    }
    ok
}
