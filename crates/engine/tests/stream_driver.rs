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
/// time and a rejected line is skipped. With `settle`, stop once every
/// verdict is final, as `watch` does; returns whether it stopped there.
fn apply(
    driver: &mut StreamDriver<'_>,
    sink: &mut impl FnMut(&Record<'_>, &str) -> io::Result<()>,
    settle: bool,
) -> bool {
    while let Some(step) = driver.step(sink).expect("sink never fails") {
        if step == Step::End {
            driver.advance(sink).expect("sink never fails");
        }
        if settle && driver.session().is_settled() {
            return true;
        }
    }
    false
}

/// What a stream came to: every record as rendered, the final statistics,
/// and the lines, bytes and decode samples counted into `lomon_io_*` and
/// `lomon_ingest_decode_ns` (zero unobserved).
type Outcome = (Vec<String>, DispatchStats, (u64, u64, u64));

/// Feed `chunks` through a fresh driver with a heartbeat every `heartbeat`
/// events, observed if asked, stopping at settlement with `settle`, then
/// close the stream. An oversized line's error names how much of it had arrived, so
/// that count is blanked.
fn run(
    (engine, voc): (&Engine, &Vocabulary),
    format: StreamFormat,
    chunks: &[&[u8]],
    (observed, settle, heartbeat): (bool, bool, Option<u64>),
) -> Outcome {
    let mut records = Vec::new();
    let mut sink = |_: &Record<'_>, text: &str| {
        records.push(match text.split_once(" bytes (") {
            Some((head, tail)) => format!("{head} bytes (N{}", &tail[tail.find('+').unwrap()..]),
            None => text.to_owned(),
        });
        Ok(())
    };
    let io_metrics = IoMetrics::register(&Registry::new());
    let mut driver = StreamDriver::new(engine.session(), voc, format)
        .heartbeat_every(heartbeat)
        .observe_io(observed.then(|| Arc::clone(&io_metrics)));
    let mut settled = false;
    for chunk in chunks {
        driver.push(chunk);
        settled = apply(&mut driver, &mut sink, settle);
        if settled {
            break;
        }
    }
    if !settled {
        driver.end_input();
        apply(&mut driver, &mut sink, settle);
    }
    driver.close(&mut sink).expect("sink never fails");
    let stats = *driver.session().stats();
    (
        records,
        stats,
        (
            io_metrics.lines.get(),
            io_metrics.bytes.get(),
            io_metrics.decode_ns.count(),
        ),
    )
}

/// The kinds of stream line [`line`] renders.
const KINDS: usize = 16;

/// One stream line without its line ending: `kind` picks the content,
/// `time` its timestamp. Kinds 0–4 are regular event lines of known names;
/// every other kind ends a run. Kinds 14 and 15 are an event torn across
/// two lines by a `\n`: in NDJSON between tokens and inside the name
/// string, in trace text after the direction and after the time.
fn line(format: StreamFormat, kind: usize, time: u64) -> Vec<u8> {
    let trace = format == StreamFormat::Trace;
    let (dir, name) = match kind {
        0 => ("in", "a"),
        1 => ("in", "b"),
        2 => ("in", "start"),
        3 => ("in", "go"),
        4 => ("out", "done"),
        // Unknown names: non-ASCII, and a regular line no property uses.
        5 => ("in", "café"),
        11 => ("in", "noise"),
        6 if trace => return format!("end {time}ns").into_bytes(),
        6 => return format!("{{\"end\": \"{time}ns\"}}").into_bytes(),
        7 => return Vec::new(),
        10 => return format!("# note {time}ns").into_bytes(),
        // A known event behind Unicode whitespace: the fast path refuses
        // it, the per-line parser applies it.
        12 if trace => return format!("{time}ns\u{a0}in a").into_bytes(),
        12 => return format!("\u{a0}{{\"time\": \"{time}ns\", \"name\": \"a\"}}").into_bytes(),
        13 => {
            let mut bytes = line(format, 0, time);
            let at = bytes.iter().rposition(|&b| b == b'a').expect("the name");
            bytes.insert(at + 1, 0xff);
            return bytes;
        }
        14 if trace => return format!("{time}ns in\na").into_bytes(),
        14 => return format!("{{\"time\": \"{time}ns\",\n\"name\": \"a\"}}").into_bytes(),
        15 if trace => return format!("{time}ns\nin a").into_bytes(),
        15 => return format!("{{\"time\": \"{time}ns\", \"name\": \"a\n\"}}").into_bytes(),
        _ => return b"banana in start".to_vec(),
    };
    match format {
        StreamFormat::Trace => format!("{time}ns {dir} {name}"),
        StreamFormat::Ndjson => {
            format!("{{\"time\": \"{time}ns\", \"dir\": \"{dir}\", \"name\": \"{name}\"}}")
        }
    }
    .into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Bytes fed in one push (runs as long as the lines allow), in 1-byte
    /// pushes (runs of one line), or cut anywhere — inside runs, between a
    /// CRLF pair's `\r` and `\n`, inside a two-byte UTF-8 character — give
    /// the records, statistics and I/O counts of one line per push. The
    /// streams mix regular event lines with every line that ends a run: a
    /// comment, blank or `end` line, unknown names, malformed, non-ASCII
    /// and non-UTF-8 lines, events torn across two lines, CRLF endings, an
    /// earlier timestamp, a line over the frame cap, heartbeat multiples if
    /// any, sampled lines when observed and, with `watch`'s policy, the
    /// event that settles the session.
    #[test]
    fn chunking_never_changes_the_stream(
        (ndjson, observed, settle) in (any::<bool>(), any::<bool>(), any::<bool>()),
        specs in prop::collection::vec((0usize..KINDS + 8, 0u64..=30, any::<bool>()), 0..=60),
        sizes in prop::collection::vec(1usize..=24, 1..=64),
        oversized in 0usize..120,
        heartbeat in 0usize..4,
    ) {
        let format = if ndjson { StreamFormat::Ndjson } else { StreamFormat::Trace };
        let (engine, voc) = compile(&RULEBOOK);
        // The first line carries both forced cuts: an unknown name with a
        // multi-byte character, terminated by CRLF.
        let mut lines = vec![[line(format, 5, 1), b"\r\n".to_vec()].concat()];
        let mut time = 1;
        for (k, &(kind, step, crlf)) in specs.iter().enumerate() {
            // `kind` 9 is a regular event back at time zero: a time-travel
            // fault once the clock has moved, and so are the lines after it
            // until the clock catches up. Kinds past the last are regular
            // events.
            time = if kind == 9 { 0 } else { time + step };
            let kind = match kind {
                9 => 0,
                kind if kind < KINDS => kind,
                kind => kind % 5,
            };
            let mut text = line(format, kind, time);
            if k == oversized {
                // A regular event line behind more than a frame of blanks.
                text.splice(0..0, std::iter::repeat_n(b' ', MAX_FRAME_BYTES + 1));
            }
            // A torn event is two lines.
            let ending: &[u8] = if crlf { b"\r\n" } else { b"\n" };
            lines.extend(text.split(|&b| b == b'\n').map(|piece| [piece, ending].concat()));
        }
        let text = lines.concat();
        // The reference: each line behind a Unicode space, which the fast
        // lexer refuses and both parsers skip, so no run ever forms.
        let per_line: Vec<Vec<u8>> =
            lines.iter().map(|line| ["\u{a0}".as_bytes(), line].concat()).collect();
        let bytes = text.as_slice();
        let at = |pattern: &[u8]| bytes.windows(pattern.len()).position(|w| w == pattern);
        let mut cuts = vec![
            at(b"\r").expect("a CRLF line") + 1,
            at("é".as_bytes()).expect("a multi-byte name") + 1,
        ];
        let mut cut = 0;
        for size in sizes.iter().cycle() {
            cut += size;
            if cut >= bytes.len() {
                break;
            }
            cuts.push(cut);
        }
        cuts.sort_unstable();
        cuts.dedup();
        let mut chunks = Vec::new();
        let mut from = 0;
        for &cut in cuts.iter().chain([bytes.len()].iter()) {
            chunks.push(&bytes[from..cut]);
            from = cut;
        }
        let lines: Vec<&[u8]> = lines.iter().map(Vec::as_slice).collect();
        let per_line: Vec<&[u8]> = per_line.iter().map(Vec::as_slice).collect();
        let single_bytes: Vec<&[u8]> = bytes.chunks(1).collect();
        // Half the streams run without a heartbeat, so whole pushes make
        // runs as long as their lines allow.
        let policy = (observed, settle, [None, None, Some(3), Some(7)][heartbeat]);
        let feed = |chunks: &[&[u8]]| run((&engine, &voc), format, chunks, policy);
        let by_line = feed(&lines);
        let reference = feed(&per_line);
        prop_assert_eq!(&by_line.0, &reference.0, "runs against single lines");
        prop_assert_eq!(by_line.1, reference.1, "runs against single lines");
        if observed && !settle {
            // One decode sample per 64th line, unless that line is dropped
            // as oversized.
            let sampled = lines
                .iter()
                .skip(63)
                .step_by(64)
                .filter(|line| line.len() <= MAX_FRAME_BYTES)
                .count();
            prop_assert_eq!(by_line.2, (lines.len() as u64, bytes.len() as u64, sampled as u64));
        }
        for (label, chunks) in [("one push", &[bytes][..]), ("1-byte pushes", &single_bytes), ("cuts", &chunks)] {
            let fed = feed(chunks);
            prop_assert_eq!(&fed.0, &by_line.0, "{}", label);
            prop_assert_eq!(fed.1, by_line.1, "{}", label);
            prop_assert_eq!(fed.2, by_line.2, "{}", label);
        }
    }
}

/// `lomon_io_bytes_total` counts every byte the decoder consumed, a
/// CRLF line's `\r` included, and `lomon_io_lines_total` counts an
/// oversized line once, with all of its bytes.
#[test]
fn io_counters_count_crlf_and_oversized_lines_exactly() {
    let (engine, voc) = compile(&RULEBOOK);
    let mut oversized = b"1ns in a\n2ns in b\n".to_vec();
    oversized.extend(std::iter::repeat_n(b'x', MAX_FRAME_BYTES + 10));
    oversized.extend_from_slice(b"\n3ns in a\n");
    let crlf = b"1ns in a\r\n2ns in b\r\n";
    for (input, lines, events) in [(&crlf[..], 2, 2), (&oversized, 4, 3)] {
        for chunk in [input.len(), 1000] {
            let chunks: Vec<&[u8]> = input.chunks(chunk).collect();
            let (_, stats, counted) = run(
                (&engine, &voc),
                StreamFormat::Trace,
                &chunks,
                (true, false, None),
            );
            assert_eq!(
                counted,
                (lines, input.len() as u64, 0),
                "{chunk}-byte pushes"
            );
            assert_eq!(stats.events, events);
        }
    }
}

/// At the end of the input an unterminated last line still counts as a
/// line, and no byte is counted for the `\n` it lacks: `1ns in a\n2ns in b`
/// is 2 lines and 17 bytes.
#[test]
fn io_counters_count_an_unterminated_last_line_exactly() {
    let (engine, voc) = compile(&RULEBOOK);
    let ndjson = b"{\"time\": \"1ns\", \"name\": \"a\"}\n{\"time\": \"2ns\", \"name\": \"b\"}";
    for (format, input) in [
        (StreamFormat::Trace, &b"1ns in a\n2ns in b"[..]),
        (StreamFormat::Trace, b"1ns in a\r\n2ns in b\r"),
        (StreamFormat::Ndjson, ndjson),
    ] {
        for chunk in [input.len(), 5, 1] {
            let chunks: Vec<&[u8]> = input.chunks(chunk).collect();
            let (_, stats, counted) = run((&engine, &voc), format, &chunks, (true, false, None));
            assert_eq!(
                counted,
                (2, input.len() as u64, 0),
                "{chunk}-byte pushes of {:?}",
                String::from_utf8_lossy(input)
            );
            assert_eq!(stats.events, 2);
        }
    }
}

/// A run stops right after the event that settles the session, so
/// `watch`'s policy stops at that line with the events, records and
/// counts of a stream fed one line per push, while a policy that carries
/// on still counts every later event, as `ingest_batch` does, and samples
/// the decode of each 64th line once.
#[test]
fn a_run_stops_at_the_event_that_settles_the_session() {
    let (engine, voc) = compile(&["b << go once", "all{a} << start once"]);
    let text: String = (1..=200)
        .map(|t| format!("{t}ns in {}\n", ["b", "a", "go", "start"][t % 4]))
        .collect();
    let lines: Vec<&[u8]> = text.as_bytes().split_inclusive(|&b| b == b'\n').collect();
    // No heartbeat, so the first run would reach the sampled line 64.
    let feed = |chunks: &[&[u8]], settle| {
        run(
            (&engine, &voc),
            StreamFormat::Trace,
            chunks,
            (true, settle, None),
        )
    };
    let by_line = feed(&lines, true);
    let whole = feed(&[text.as_bytes()], true);
    assert_eq!(by_line.1.events, 3, "settled at the first `start`");
    assert_eq!(whole, by_line);
    assert_eq!(whole.2, (3, 32, 0), "three lines applied, none sampled");
    let carried_on = feed(&[text.as_bytes()], false);
    assert_eq!(carried_on.1.events, 200);
    assert_eq!(carried_on.2, (200, text.len() as u64, 3));
    assert_eq!(carried_on.1.monitor_steps, by_line.1.monitor_steps);
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
    apply(&mut driver, &mut sink, false);
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
        apply(&mut driver, &mut sink, false);
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
        apply(&mut driver, &mut sink, false);
        assert!(
            driver.partial_len() <= MAX_FRAME_BYTES,
            "runaway line buffered"
        );
    }
    driver.push(b"\n10ns in a\n");
    apply(&mut driver, &mut sink, false);
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
    apply(&mut closed, &mut sink, false);
    closed.close(&mut sink).expect("sink never fails");

    let mut finals = Vec::new();
    let mut sink = |record: &Record<'_>, _: &str| {
        finals.push(matches!(record, Record::Verdict(p) if p.verdict.is_final()));
        Ok(())
    };
    let mut finished = StreamDriver::new(engine.session(), &voc, StreamFormat::Trace);
    finished.push(stream);
    apply(&mut finished, &mut sink, false);
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
    apply(&mut driver, &mut ignore, false);
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
    apply(&mut driver, &mut ignore, false);
    assert_eq!(session_metrics.events.get(), 131);
    assert_eq!(io_metrics.lines.get(), 133);
}
