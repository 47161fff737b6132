//! The stream driver's contracts: chunking never changes what a stream
//! means, unknown names only advance time and never grow the vocabulary,
//! a runaway line is dropped under the frame cap instead of buffered, the
//! batch ending reports what the online ending summarizes, and telemetry
//! is credited at flush points rather than per line.

use std::io;
use std::sync::Arc;

use lomon_core::verdict::Verdict;
use lomon_engine::{DispatchStats, Engine, Fault, Record, SessionMetrics, Step, StreamDriver};
use lomon_obs::Registry;
use lomon_trace::{IoMetrics, SimTime, StreamFormat, Vocabulary, MAX_FRAME_BYTES};
use proptest::prelude::*;

const RULEBOOK: [&str; 3] = [
    "all{a, b} << start repeated",
    "go => out:done within 50 ns",
    "b << go once",
];

fn compile(properties: &[&str]) -> (Engine, Vocabulary) {
    let mut voc = Vocabulary::new();
    let engine = Engine::compile(properties, &mut voc).expect("rulebook compiles");
    (engine, voc)
}

/// Apply every buffered line with `watch`'s policy: `end` only advances
/// time and a rejected line is skipped.
fn apply(
    driver: &mut StreamDriver<'_>,
    sink: &mut impl FnMut(&Record<'_>, &str) -> io::Result<()>,
) {
    while let Some(step) = driver.step(sink).expect("sink never fails") {
        if step == Step::End {
            driver.advance(sink).expect("sink never fails");
        }
    }
}

/// Feed `chunks` through a fresh driver, then close the stream. Returns
/// every record as rendered and the final statistics.
fn run(
    engine: &Engine,
    voc: &Vocabulary,
    format: StreamFormat,
    chunks: &[&[u8]],
) -> (Vec<String>, DispatchStats) {
    let mut records = Vec::new();
    let mut sink = |_: &Record<'_>, text: &str| {
        records.push(text.to_owned());
        Ok(())
    };
    let mut driver = StreamDriver::new(engine.session(), voc, format).heartbeat_every(Some(3));
    for chunk in chunks {
        driver.push(chunk);
        apply(&mut driver, &mut sink);
    }
    if driver.partial_len() > 0 {
        driver.push(b"\n");
        apply(&mut driver, &mut sink);
    }
    driver.close(&mut sink).expect("sink never fails");
    let stats = *driver.session().stats();
    (records, stats)
}

/// One stream line: `kind` picks the content, `time` its timestamp.
fn line(format: StreamFormat, kind: usize, time: u64) -> String {
    let (dir, name) = match kind {
        0 => ("in", "a"),
        1 => ("in", "b"),
        2 => ("in", "start"),
        3 => ("in", "go"),
        4 => ("out", "done"),
        5 => ("in", "café"),
        6 if format == StreamFormat::Trace => return format!("end {time}ns"),
        6 => return format!("{{\"end\": \"{time}ns\"}}"),
        7 => return String::new(),
        _ => return "banana in start".to_owned(),
    };
    match format {
        StreamFormat::Trace => format!("{time}ns {dir} {name}"),
        StreamFormat::Ndjson => {
            format!("{{\"time\": \"{time}ns\", \"dir\": \"{dir}\", \"name\": \"{name}\"}}")
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Bytes fed in chunks of any size give the records and statistics of
    /// whole-line feeding — including a cut between a CRLF pair's `\r` and
    /// `\n`, and one inside a two-byte UTF-8 character.
    #[test]
    fn chunking_never_changes_the_stream(
        ndjson in any::<bool>(),
        specs in prop::collection::vec((0usize..10, 0u64..=30, any::<bool>()), 0..=40),
        sizes in prop::collection::vec(1usize..=24, 1..=64),
    ) {
        let format = if ndjson { StreamFormat::Ndjson } else { StreamFormat::Trace };
        let (engine, voc) = compile(&RULEBOOK);
        // The first line carries both forced cuts: an unknown name with a
        // multi-byte character, terminated by CRLF.
        let mut text = line(format, 5, 1) + "\r\n";
        let mut time = 1;
        for &(kind, step, crlf) in &specs {
            // `kind` 9 goes back to time zero: a time-travel fault once the
            // clock has moved.
            time = if kind == 9 { 0 } else { time + step };
            text += &line(format, kind, time);
            text += if crlf { "\r\n" } else { "\n" };
        }
        let bytes = text.as_bytes();
        let mut cuts = vec![
            text.find('\r').expect("a CRLF line") + 1,
            text.find('é').expect("a multi-byte name") + 1,
        ];
        let mut at = 0;
        for size in sizes.iter().cycle() {
            at += size;
            if at >= bytes.len() {
                break;
            }
            cuts.push(at);
        }
        cuts.sort_unstable();
        cuts.dedup();
        let mut chunks = Vec::new();
        let mut from = 0;
        for &cut in cuts.iter().chain([bytes.len()].iter()) {
            chunks.push(&bytes[from..cut]);
            from = cut;
        }
        let lines: Vec<&[u8]> = bytes.split_inclusive(|&b| b == b'\n').collect();
        let whole = run(&engine, &voc, format, &lines);
        let chunked = run(&engine, &voc, format, &chunks);
        prop_assert_eq!(&chunked.0, &whole.0);
        prop_assert_eq!(chunked.1, whole.1);
    }
}

/// `watch`'s mirror of serve's `deadline_fires_on_unknown_name_time_advance`:
/// a name no property uses is not ingested, but its timestamp still runs
/// the deadline sweep.
#[test]
fn deadline_fires_on_unknown_name_time_advance() {
    let (engine, voc) = compile(&["go => out:done within 50 ns"]);
    let mut verdicts = Vec::new();
    let mut sink = |record: &Record<'_>, text: &str| {
        if let Record::Verdict(p) = record {
            verdicts.push((p.verdict, text.to_owned()));
        }
        Ok(())
    };
    let mut driver = StreamDriver::new(engine.session(), &voc, StreamFormat::Trace);
    driver.push(b"10ns in go\n200ns in never_subscribed\n");
    apply(&mut driver, &mut sink);
    assert!(driver.session().is_settled());
    assert_eq!(
        driver.session().stats().events,
        1,
        "the unknown name is no event"
    );
    assert_eq!(verdicts.len(), 1);
    assert_eq!(verdicts[0].0, Verdict::Violated);
    assert!(verdicts[0].1.contains("deadline"), "{}", verdicts[0].1);
}

#[test]
fn unknown_names_never_grow_the_vocabulary() {
    let (engine, voc) = compile(&RULEBOOK);
    let names = voc.len();
    let mut driver = StreamDriver::new(engine.session(), &voc, StreamFormat::Ndjson);
    let mut records = 0;
    let mut sink = |_: &Record<'_>, _: &str| {
        records += 1;
        Ok(())
    };
    for i in 0..100_000u64 {
        let frame = format!("{{\"time\": \"{i}ns\", \"name\": \"invented_{i}\"}}\n");
        driver.push(frame.as_bytes());
        apply(&mut driver, &mut sink);
    }
    assert_eq!(voc.len(), names);
    assert_eq!(driver.session().stats().events, 0);
    assert_eq!(records, 0, "nothing to report");
}

/// A 1 MiB line without a newline is one oversized-frame error, dropped as
/// it arrives; the stream carries on with the next line.
#[test]
fn runaway_line_is_one_error_and_skipped() {
    let (engine, voc) = compile(&RULEBOOK);
    let mut errors = Vec::new();
    let mut sink = |record: &Record<'_>, _: &str| {
        if let Record::Error {
            line,
            fault,
            reason,
            ..
        } = record
        {
            errors.push((*line, *fault, reason.to_string()));
        }
        Ok(())
    };
    let mut driver = StreamDriver::new(engine.session(), &voc, StreamFormat::Trace);
    let chunk = vec![b'x'; 64 * 1024];
    for _ in 0..16 {
        driver.push(&chunk);
        apply(&mut driver, &mut sink);
        assert!(
            driver.partial_len() <= MAX_FRAME_BYTES,
            "runaway line buffered"
        );
    }
    driver.push(b"\n10ns in a\n");
    apply(&mut driver, &mut sink);
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert_eq!(errors[0].0, 1);
    assert_eq!(errors[0].1, Fault::Protocol);
    assert!(
        errors[0].2.starts_with("frame exceeds 65536 bytes"),
        "{}",
        errors[0].2
    );
    assert_eq!(driver.session().stats().events, 1, "the next line applies");
}

/// `finish` ends a stream as `close` does, at the last time seen (here an
/// unknown name's), but returns the report instead of emitting the
/// open-verdict and summary records.
#[test]
fn finish_returns_the_report_close_summarizes() {
    let (engine, voc) = compile(&RULEBOOK);
    let stream: &[u8] = b"10ns in a\n20ns in go\nend 30ns\n90ns in noise\n";
    let mut summary = None;
    let mut sink = |record: &Record<'_>, _: &str| {
        if let Record::Summary { session, .. } = record {
            summary = Some(session.report().render(&voc));
        }
        Ok(())
    };
    let mut closed = StreamDriver::new(engine.session(), &voc, StreamFormat::Trace);
    closed.push(stream);
    apply(&mut closed, &mut sink);
    closed.close(&mut sink).expect("sink never fails");

    let mut finals = Vec::new();
    let mut sink = |record: &Record<'_>, _: &str| {
        finals.push(matches!(record, Record::Verdict(p) if p.verdict.is_final()));
        Ok(())
    };
    let mut finished = StreamDriver::new(engine.session(), &voc, StreamFormat::Trace);
    finished.push(stream);
    apply(&mut finished, &mut sink);
    let (report, end) = finished.finish(&mut sink).expect("sink never fails");
    assert_eq!(end, SimTime::from_ns(90));
    assert_eq!(Some(report.render(&voc)), summary);
    assert_eq!(finals, [true, true], "only the two final verdicts");
}

#[test]
fn observed_driver_credits_telemetry_at_flush_points() {
    let (engine, voc) = compile(&RULEBOOK);
    let registry = Registry::new();
    let io_metrics = IoMetrics::register(&registry);
    let session_metrics = SessionMetrics::register(&registry);
    let mut session = engine.session();
    session.attach_metrics(Arc::clone(&session_metrics));
    let mut driver = StreamDriver::new(session, &voc, StreamFormat::Ndjson)
        .observe_io(Some(Arc::clone(&io_metrics)));
    let text: String = (1..=130)
        .map(|t| format!("{{\"time\": \"{t}ns\", \"name\": \"a\"}}\n"))
        .collect();
    let mut ignore = |_: &Record<'_>, _: &str| Ok(());

    driver.push(text.as_bytes());
    driver.step(&mut ignore).expect("sink never fails");
    assert_eq!(io_metrics.lines.get(), 0, "nothing is credited mid-chunk");
    assert_eq!(session_metrics.events.get(), 0);
    apply(&mut driver, &mut ignore);
    assert_eq!(io_metrics.lines.get(), 130);
    assert_eq!(io_metrics.bytes.get(), text.len() as u64);
    assert_eq!(session_metrics.events.get(), 130);
    assert_eq!(
        io_metrics.decode_ns.count(),
        2,
        "lines 64 and 128 are timed"
    );

    // A rejected line is credited before its error record goes out.
    let mut seen = None;
    let mut record_errors = |record: &Record<'_>, _: &str| {
        if matches!(record, Record::Error { .. }) {
            seen = Some((io_metrics.lines.get(), io_metrics.parse_errors.get()));
        }
        Ok(())
    };
    driver.push(b"{\"time\": \"1ns\", \"name\": \"a\"}\n");
    let step = driver.step(&mut record_errors).expect("sink never fails");
    assert_eq!(step, Some(Step::Fault(Fault::Protocol)));
    assert_eq!(seen, Some((131, 1)));

    // A name no property uses only advances time, and flushes nothing
    // mid-chunk either.
    driver.push(
        b"{\"time\": \"140ns\", \"name\": \"a\"}\n{\"time\": \"150ns\", \"name\": \"noise\"}\n",
    );
    for _ in 0..2 {
        let step = driver.step(&mut ignore).expect("sink never fails");
        assert_eq!(step, Some(Step::Applied));
    }
    assert_eq!(
        session_metrics.events.get(),
        130,
        "nothing is credited mid-chunk"
    );
    assert_eq!(io_metrics.lines.get(), 131);
    apply(&mut driver, &mut ignore);
    assert_eq!(session_metrics.events.get(), 131);
    assert_eq!(io_metrics.lines.get(), 133);
}
