//! End-to-end **bytes → verdicts** cost of the stream driver, against the
//! one-pass decode it could batch into.
//!
//! Every leg reads the same events of the `disjoint-50` workload and ends
//! with the session closed:
//!
//! * `driver` — what `check`, `watch` and `serve` run: a [`StreamDriver`]
//!   fed 64 KiB chunks into a record sink, then closed ([`gate::drive`]).
//!   Each step lexes the run of regular event lines buffered, resolves
//!   their names into a reused event buffer and steps the run with one
//!   batch call. It runs twice, once per line format: on the trace text
//!   (~20 bytes/event) and on the same events as NDJSON (~50 bytes/event).
//! * `wire` — the one-pass path over the trace text:
//!   [`decode_events_into`] lexes the whole buffer and resolves every name
//!   against the frozen vocabulary into one reused `Vec<TimedEvent>`, then
//!   one `Session::ingest_batch` and a close.
//!
//! The gated figures are `driver / wire` per format, each the median of
//! the per-rep ratios ([`gate::median_ratio`]). On trace text it is what
//! framing, runs and records cost over one scan of the same bytes with
//! the same lexer; on NDJSON it also prices the NDJSON lexer, so a lexer
//! that stopped taking the regular object and sent every line to the
//! full grammar would fail it. Decode is in the denominator, so the ratio
//! does not fail a change that only makes the engine faster.
//!
//! Run `cargo run -p lomon-bench --bin wire_speed --release` to print the
//! table and (re)write `BENCH_wire_speed.json` (tracked at the repo root).
//!
//! `--check` is the CI gate: each driver must agree with `wire` on every
//! verdict and per-property ops counter, and may cost at most
//! [`GATE_RATIO`]× `wire`. With `--baseline <path>` each fresh ratio is
//! also ratcheted against its row of the committed
//! `BENCH_wire_speed.json`: a ratio above the committed one ÷
//! [`gate::TOLERANCE`] fails.

use std::process::ExitCode;
use std::time::Instant;

use lomon_bench::gate::{self, Args, Better, Gate};
use lomon_bench::workloads::disjoint_with_vocabulary;
use lomon_engine::{Session, StreamDriver};
use lomon_trace::{decode_events_into, SimTime, StreamFormat, TimedEvent, Vocabulary};

/// The CI gate on each `driver / wire`. Measured 0.9–1.1× on trace text
/// and 1.4–1.6× on NDJSON on a 2-vCPU Xeon container; the `--baseline`
/// ratchet is the binding regression guard.
const GATE_RATIO: f64 = 3.0;

/// Timed repetitions per leg, interleaved ([`gate::interleave`]) so load
/// drift on a shared machine hits every leg alike; the table shows each
/// leg's fastest run and the gate reads the median of the per-rep ratios.
const REPS: usize = 9;

const WORKLOAD: &str = "disjoint-50";

/// The baseline row of the NDJSON driver on the same events.
const NDJSON_ROW: &str = "disjoint-50-ndjson";

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
    let trace = gate::render(&events, &voc, StreamFormat::Trace);
    // One driver row per line format, each named for the baseline.
    let rows = [
        (WORKLOAD, StreamFormat::Trace, &trace),
        (
            NDJSON_ROW,
            StreamFormat::Ndjson,
            &gate::render(&events, &voc, StreamFormat::Ndjson),
        ),
    ];

    let mut drivers = rows.map(|(_, format, _)| StreamDriver::new(engine.session(), &voc, format));
    let mut session = engine.session();
    let (mut records, mut buf) = (String::new(), Vec::new());
    let mut faults = [0; 2];
    let reps: Vec<[u128; 3]> = gate::interleave(REPS, |k| {
        if k == 0 {
            wire(&mut session, &trace, &voc, &mut buf)
        } else {
            let (ns, f) = gate::drive(&mut drivers[k - 1], rows[k - 1].2, &mut records);
            faults[k - 1] += f;
            ns
        }
    });
    let best = gate::best(&reps);

    #[allow(clippy::cast_precision_loss)]
    let per_event = |ns: u128| ns as f64 / events.len() as f64;
    let wire_ns = per_event(best[0]);
    println!(
        "wire speed — bytes → verdicts, stream driver vs one-pass decode \
         (best of {REPS} ns/event, median of {REPS} per-rep ratios)"
    );
    println!(
        "{:>18} {:>9} {:>10} {:>10} {:>9} {:>8}",
        "workload", "events", "bytes", "driver ns", "wire ns", "drv/wir"
    );
    let mut gate = Gate::default();
    let mut json_rows = Vec::new();
    let mut ratios = Vec::new();
    for (k, (name, _, input)) in rows.iter().enumerate() {
        let driver_ns = per_event(best[k + 1]);
        let ratio = gate::median_ratio(&reps, k + 1);
        println!(
            "{name:>18} {:>9} {:>10} {driver_ns:>10.1} {wire_ns:>9.1} {ratio:>7.2}x",
            events.len(),
            input.len(),
        );
        // Both legs read the same events, so every property must reach the
        // same verdict with the same ops counter on both.
        if faults[k] > 0 {
            gate.fail(format!("the {name} driver rejected {} lines", faults[k]));
        }
        let (driven, batched) = (gate::digest(drivers[k].session()), gate::digest(&session));
        for (id, (d, w)) in driven.iter().zip(&batched).enumerate() {
            if d != w {
                gate.fail(format!("{name} property {id}: driver {d:?} vs wire {w:?}"));
            }
        }
        json_rows.push(vec![
            ("name", format!("\"{name}\"")),
            ("events", events.len().to_string()),
            ("bytes", input.len().to_string()),
            ("driver_ns_per_event", format!("{driver_ns:.2}")),
            ("wire_ns_per_event", format!("{wire_ns:.2}")),
            ("ratio", format!("{ratio:.2}")),
        ]);
        ratios.push((*name, ratio));
    }
    println!();

    if !args.check {
        let json = gate::render_json("wire_speed", "ns/event", "workloads", &json_rows);
        return gate.write(
            args.value("--out").unwrap_or("BENCH_wire_speed.json"),
            &json,
        );
    }
    for &(name, ratio) in &ratios {
        if ratio > GATE_RATIO {
            gate.fail(format!(
                "{name}: driver costs {ratio:.2}x wire, over the {GATE_RATIO:.1}x gate"
            ));
        }
    }
    if let Some(path) = args.value("--baseline") {
        for failure in gate::ratchet(path, "ratio", Better::Lower, &ratios) {
            gate.fail(failure);
        }
    }
    gate.finish(&format!(
        "driver and wire verdict- and ops-identical in both formats; \
         driver <= {GATE_RATIO:.1}x wire end-to-end"
    ))
}
