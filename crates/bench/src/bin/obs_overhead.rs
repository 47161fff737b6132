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
//! a record sink ([`gate::drive`]), detached against [`IoMetrics`] + [`SessionMetrics`]
//! attached (what `--metrics` wires up), interleaved, best of [`REPS`].
//! `--check` holds that ratio at [`OVERHEAD_GATE`] too, and requires
//! identical records on both sides and exact `lomon_io_lines_total`,
//! `lomon_io_bytes_total` and `lomon_events_total`.

use std::process::ExitCode;
use std::sync::Arc;

use lomon_bench::gate::{self, Args, Gate};
use lomon_bench::workloads::{disjoint_with_vocabulary, overlapping_with_vocabulary};
use lomon_engine::{Backend, DispatchMode, Engine, SessionMetrics, StreamDriver};
use lomon_obs::Registry;
use lomon_trace::{IoMetrics, SimTime, StreamFormat, TimedEvent, Vocabulary};

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
/// between the plain and instrumented sessions ([`gate::best_of`]) so load
/// drift on a shared machine cannot skew the ratio.
const REPS: usize = 15;

struct Workload {
    name: &'static str,
    engine: Engine,
    voc: Vocabulary,
    events: Vec<TimedEvent>,
}

fn main() -> ExitCode {
    let args = Args::from_env("obs_overhead", &[]);
    let check_mode = args.check;

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

    let mut gate = Gate::default();
    for w in &workloads {
        let end = w.events.last().map_or(SimTime::ZERO, |e| e.time);
        let registry = Registry::new();
        let metrics = SessionMetrics::register(&registry);
        let mut sessions: [_; 3] = std::array::from_fn(|_| {
            w.engine
                .session_with_backend(DispatchMode::Indexed, Backend::Fused)
        });
        sessions[1].attach_metrics(Arc::clone(&metrics));
        sessions[2].enable_explain(EXPLAIN_CAPACITY);
        let best: [u128; 3] =
            gate::best_of(REPS, |k| gate::replay(&mut sessions[k], &w.events, end));

        // Telemetry and witness capture observe, never perturb: every
        // verdict and every per-property ops counter must be identical
        // across all three sessions.
        let [plain, instrumented, explained] = sessions.each_ref().map(gate::digest);
        for (id, p) in plain.iter().enumerate() {
            if *p != instrumented[id] || *p != explained[id] {
                gate.fail(format!(
                    "{}: property {id} diverges under instrumentation \
                     ({p:?} vs {:?} metrics vs {:?} explain)",
                    w.name, instrumented[id], explained[id],
                ));
            }
        }
        // Exact accounting across resets: each replay flushes its deltas.
        let expected_events = (REPS * w.events.len()) as u64;
        if metrics.events.get() != expected_events {
            gate.fail(format!(
                "{}: lomon_events_total {} != {expected_events} (= {REPS} x {})",
                w.name,
                metrics.events.get(),
                w.events.len(),
            ));
        }
        if metrics.streams.get() != REPS as u64 {
            gate.fail(format!(
                "{}: lomon_streams_total {} != {REPS}",
                w.name,
                metrics.streams.get(),
            ));
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
            gate.fail(format!(
                "{}: instrumented {ratio:.3}x over the {OVERHEAD_GATE}x gate",
                w.name
            ));
        }
        if check_mode && explain_ratio > EXPLAIN_GATE {
            gate.fail(format!(
                "{}: explain mode {explain_ratio:.3}x over the {EXPLAIN_GATE}x gate",
                w.name
            ));
        }
    }
    println!();

    println!(
        "telemetry overhead — stream driver, {} KiB chunks, detached vs IoMetrics + \
         SessionMetrics (best of {REPS})",
        gate::CHUNK / 1024
    );
    println!(
        "{:>12} {:>7} {:>9} {:>12} {:>14} {:>8}",
        "workload", "format", "events", "plain ns/ev", "metrics ns/ev", "ratio"
    );
    for w in &workloads {
        for format in [StreamFormat::Trace, StreamFormat::Ndjson] {
            driver_leg(w, format, check_mode, &mut gate);
        }
    }
    println!();

    if !check_mode {
        return gate.exit();
    }
    gate.finish(&format!(
        "live registry within {OVERHEAD_GATE}x of detached on ingest_batch and on the \
         stream driver, explain mode within {EXPLAIN_GATE}x, on all workloads; verdicts, \
         ops, records and counters exact"
    ))
}

/// The driver leg on one workload and format: prints its row and fails
/// `gate` on every `--check` condition that does not hold.
fn driver_leg(w: &Workload, format: StreamFormat, check_mode: bool, gate: &mut Gate) {
    let input = gate::render(&w.events, &w.voc, format);
    let lines = input.iter().filter(|&&b| b == b'\n').count() as u64;
    let registry = Registry::new();
    let session_metrics = SessionMetrics::register(&registry);
    let io_metrics = IoMetrics::register(&registry);
    let mut session = w.engine.session();
    session.attach_metrics(Arc::clone(&session_metrics));
    let mut drivers = [
        StreamDriver::new(w.engine.session(), &w.voc, format),
        StreamDriver::new(session, &w.voc, format).observe_io(Some(Arc::clone(&io_metrics))),
    ];
    let mut records = [String::new(), String::new()];
    let mut faults = 0;
    let best: [u128; 2] = gate::best_of(REPS, |k| {
        let (ns, f) = gate::drive(&mut drivers[k], &input, &mut records[k]);
        faults += f;
        ns
    });

    let label = match format {
        StreamFormat::Trace => "trace",
        StreamFormat::Ndjson => "ndjson",
    };
    let mut fail = |what: String| gate.fail(format!("{} {label}: {what}", w.name));
    if faults > 0 {
        fail(format!("{faults} lines rejected"));
    }
    if records[0] != records[1] || records[0].is_empty() {
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
}
