//! End-to-end **bytes → verdicts** cost of the stream driver, against the
//! one-pass decode it could batch into.
//!
//! Both legs start from the same trace text — the `disjoint-50` workload,
//! ~20 bytes/event — and end with the session closed:
//!
//! * `driver` — what `check`, `watch` and `serve` run: a [`StreamDriver`]
//!   fed 64 KiB chunks into a record sink, then closed ([`gate::drive`]).
//!   Each step lexes the run of regular event lines buffered, resolves
//!   their names into a reused event buffer and steps the run with one
//!   batch call.
//! * `wire` — the one-pass path: [`decode_events_into`] lexes the whole
//!   buffer and resolves every name against the frozen vocabulary into one
//!   reused `Vec<TimedEvent>`, then one `Session::ingest_batch` and a close.
//!
//! The gated figure is `driver / wire`, the median of the per-rep ratios
//! ([`gate::median_ratio`]): what framing, runs and records cost over one
//! scan of the same bytes with the same lexer. Decode is in the
//! denominator, so the ratio does not fail a change that only makes the
//! engine faster.
//!
//! Run `cargo run -p lomon-bench --bin wire_speed --release` to print the
//! table and (re)write `BENCH_wire_speed.json` (tracked at the repo root).
//!
//! `--check` is the CI gate: both legs must agree on every verdict and
//! per-property ops counter, and `driver` may cost at most [`GATE_RATIO`]×
//! `wire`. With `--baseline <path>` the fresh ratio is also ratcheted
//! against the committed `BENCH_wire_speed.json`: a ratio above the
//! committed one ÷ [`gate::TOLERANCE`] fails.

use std::process::ExitCode;
use std::time::Instant;

use lomon_bench::gate::{self, Args, Better, Gate};
use lomon_bench::workloads::disjoint_with_vocabulary;
use lomon_engine::{Session, StreamDriver};
use lomon_trace::{decode_events_into, SimTime, StreamFormat, TimedEvent, Vocabulary};

/// The CI gate on `driver / wire`. Measured 0.9–1.4× on a 2-vCPU Xeon
/// container; the `--baseline` ratchet is the binding regression guard.
const GATE_RATIO: f64 = 3.0;

/// Timed repetitions per leg, interleaved ([`gate::interleave`]) so load
/// drift on a shared machine hits both legs alike; the table shows each
/// leg's fastest run and the gate reads the median of the per-rep ratios.
const REPS: usize = 9;

const WORKLOAD: &str = "disjoint-50";

/// One timed `wire` run (reset first, outside the timer): decode the whole
/// buffer into `buf`, batch-ingest it, close at the trace's end.
fn wire(
    session: &mut Session<'_>,
    bytes: &[u8],
    voc: &Vocabulary,
    buf: &mut Vec<TimedEvent>,
) -> u128 {
    session.reset();
    let started = Instant::now();
    let summary = decode_events_into(bytes, voc, buf).expect("bench trace decodes");
    session.ingest_batch(buf);
    let end = summary.end_time.or_else(|| buf.last().map(|e| e.time));
    session.close(end.unwrap_or(SimTime::ZERO));
    started.elapsed().as_nanos()
}

fn main() -> ExitCode {
    let args = Args::from_env("wire_speed", &["--baseline PATH", "--out PATH"]);

    // The check matrix is smaller so the CI gate stays fast; the ratio it
    // gates is per-event and stable across the sizes.
    let rounds = if args.check { 2_000 } else { 10_000 };
    let (engine, voc, events) = disjoint_with_vocabulary(50, rounds);
    let input = gate::render(&events, &voc, StreamFormat::Trace);

    let mut driver = StreamDriver::new(engine.session(), &voc, StreamFormat::Trace);
    let mut session = engine.session();
    let (mut records, mut buf) = (String::new(), Vec::new());
    let mut faults = 0;
    let reps: Vec<[u128; 2]> = gate::interleave(REPS, |k| {
        if k == 0 {
            wire(&mut session, &input, &voc, &mut buf)
        } else {
            let (ns, f) = gate::drive(&mut driver, &input, &mut records);
            faults += f;
            ns
        }
    });
    let [wire_ns, driver_ns] = gate::best(&reps);

    #[allow(clippy::cast_precision_loss)]
    let per_event = |ns: u128| ns as f64 / events.len() as f64;
    let (driver_ns, wire_ns) = (per_event(driver_ns), per_event(wire_ns));
    let ratio = gate::median_ratio(&reps, 1);
    println!(
        "wire speed — bytes → verdicts, stream driver vs one-pass decode \
         (best of {REPS} ns/event, median of {REPS} per-rep ratios)"
    );
    println!(
        "{:>12} {:>9} {:>10} {:>10} {:>9} {:>8}",
        "workload", "events", "bytes", "driver ns", "wire ns", "drv/wir"
    );
    println!(
        "{WORKLOAD:>12} {:>9} {:>10} {driver_ns:>10.1} {wire_ns:>9.1} {ratio:>7.2}x",
        events.len(),
        input.len(),
    );
    println!();

    // Both legs read the same bytes, so every property must reach the same
    // verdict with the same ops counter on both.
    let mut gate = Gate::default();
    if faults > 0 {
        gate.fail(format!("the driver rejected {faults} lines"));
    }
    let (driven, batched) = (gate::digest(driver.session()), gate::digest(&session));
    for (id, (d, w)) in driven.iter().zip(&batched).enumerate() {
        if d != w {
            gate.fail(format!("property {id}: driver {d:?} vs wire {w:?}"));
        }
    }

    if !args.check {
        let row = vec![
            ("name", format!("\"{WORKLOAD}\"")),
            ("events", events.len().to_string()),
            ("bytes", input.len().to_string()),
            ("driver_ns_per_event", format!("{driver_ns:.2}")),
            ("wire_ns_per_event", format!("{wire_ns:.2}")),
            ("ratio", format!("{ratio:.2}")),
        ];
        let json = gate::render_json("wire_speed", "ns/event", "workloads", &[row]);
        return gate.write(
            args.value("--out").unwrap_or("BENCH_wire_speed.json"),
            &json,
        );
    }
    if ratio > GATE_RATIO {
        gate.fail(format!(
            "driver costs {ratio:.2}x wire, over the {GATE_RATIO:.1}x gate"
        ));
    }
    if let Some(path) = args.value("--baseline") {
        for failure in gate::ratchet(path, "ratio", Better::Lower, &[(WORKLOAD, ratio)]) {
            gate.fail(failure);
        }
    }
    gate.finish(&format!(
        "driver and wire verdict- and ops-identical; driver <= {GATE_RATIO:.1}x wire end-to-end"
    ))
}
