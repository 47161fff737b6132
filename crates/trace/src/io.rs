//! Text format for traces.
//!
//! Trace-replay monitoring (the mode this reproduction targets, since there
//! are no SystemC bindings for Rust) needs a durable trace representation.
//! The format is line-oriented and human-editable:
//!
//! ```text
//! # comment
//! 10ns  in  set_imgAddr
//! 12ns  in  set_glAddr
//! 30ns  in  start
//! end 500ns
//! ```
//!
//! Each event line is `<time> <direction> <name>`; `direction` is `in` or
//! `out`. An optional final `end <time>` line records when observation
//! stopped (needed to detect deadlines that expired after the last event).
//!
//! This module holds the format's full grammar ([`parse_trace_line`],
//! which words the grammar's faults), the error type, the telemetry
//! families and the writer. The one trace
//! reader ([`crate::reader`]) runs the format's fast lexer
//! ([`lex_regular_event`](crate::lex_regular_event)) first and this
//! grammar on each line the lexer does not take.

use std::fmt::Write as _;
use std::sync::Arc;

use lomon_obs::{Counter, Histogram, Registry};

use crate::name::Direction;
use crate::ndjson::StreamLineRef;
use crate::time::parse_sim_time;
use crate::{Trace, Vocabulary};

/// Telemetry counters for trace I/O, shared by an observed
/// [`LineReader`](crate::LineReader) (the stream driver of `check`, `watch`
/// and `serve` with `--metrics`) and
/// [`read_trace_bytes_into`](crate::read_trace_bytes_into).
#[derive(Debug)]
pub struct IoMetrics {
    /// `lomon_io_lines_total`: text lines consumed (including comments,
    /// blanks and lines dropped as oversized).
    pub lines: Arc<Counter>,
    /// `lomon_io_bytes_total`: bytes of trace text consumed, line endings
    /// and the bytes of dropped lines included.
    pub bytes: Arc<Counter>,
    /// `lomon_io_parse_errors_total`: lines rejected by the reader.
    pub parse_errors: Arc<Counter>,
    /// `lomon_ingest_decode_ns`: nanoseconds spent decoding trace bytes
    /// into events. An observed [`LineReader`](crate::LineReader) records
    /// a sample: the decode of one line in 64, picked by line number, so
    /// the count is about a 64th of `lomon_io_lines_total`. A line read on
    /// its own is timed from its parse to its name lookup. Inside a run of
    /// regular lines, which an observed reader ends at each sampled line,
    /// the sampled line is timed from its lex to its name lookup, and the
    /// sample is recorded once the run has applied it. A line dropped over
    /// the frame cap is not timed.
    /// [`read_trace_bytes_into`](crate::read_trace_bytes_into) records once
    /// per decoded buffer. Either way the instrumentation stays off the
    /// per-byte and per-line hot path.
    pub decode_ns: Arc<Histogram>,
}

impl IoMetrics {
    /// Register (or fetch) the trace I/O metric families in `registry`.
    pub fn register(registry: &Registry) -> Arc<Self> {
        Arc::new(IoMetrics {
            lines: registry.counter("lomon_io_lines_total", "Trace text lines consumed"),
            bytes: registry.counter("lomon_io_bytes_total", "Trace text bytes consumed"),
            parse_errors: registry.counter(
                "lomon_io_parse_errors_total",
                "Trace lines rejected by the parser",
            ),
            decode_ns: registry.histogram(
                "lomon_ingest_decode_ns",
                "Nanoseconds spent decoding trace bytes into events",
            ),
        })
    }
}

/// Error produced by the whole-trace readers, with the 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line where the problem was found.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceParseError {}

/// The full grammar of the trace text format, on one line: every line the
/// fast lexer does not take comes here, and every fault is worded here.
/// Blank lines and `#` comments parse to `Ok(None)`; an event's name
/// borrows from `raw`.
///
/// Monotonicity across lines is the caller's concern
/// ([`read_trace_bytes`](crate::read_trace_bytes) enforces it for whole
/// files).
///
/// # Errors
///
/// Returns a human-readable message (without line number) on malformed
/// fields.
pub fn parse_trace_line(raw: &str) -> Result<Option<StreamLineRef<'_>>, String> {
    let line = raw.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut fields = line.split_whitespace();
    let first = fields.next().expect("non-empty line has a field");
    if first == "end" {
        let time_text = fields.next().ok_or("`end` requires a time")?;
        let time = parse_sim_time(time_text)?;
        if let Some(junk) = fields.next() {
            return Err(format!("unexpected trailing field `{junk}`"));
        }
        return Ok(Some(StreamLineRef::End(time)));
    }
    let time = parse_sim_time(first)?;
    let direction = match fields.next().ok_or("missing direction (`in` or `out`)")? {
        "in" => Direction::Input,
        "out" => Direction::Output,
        other => {
            return Err(format!(
                "unknown direction `{other}` (expected `in` or `out`)"
            ))
        }
    };
    let name = fields.next().ok_or("missing event name")?;
    if let Some(junk) = fields.next() {
        return Err(format!("unexpected trailing field `{junk}`"));
    }
    Ok(Some(StreamLineRef::Event {
        time,
        direction,
        name: name.into(),
    }))
}

/// Render a trace in the text format accepted by
/// [`read_trace_bytes`](crate::read_trace_bytes).
pub fn write_trace(trace: &Trace, voc: &Vocabulary) -> String {
    let mut out = String::new();
    for e in trace.iter() {
        let _ = writeln!(
            out,
            "{} {} {}",
            e.time,
            voc.direction(e.name).label(),
            voc.resolve(e.name)
        );
    }
    // Only emit `end` when it adds information beyond the last event.
    let end = trace.end_time();
    if trace.is_empty() || end > trace.events().last().expect("non-empty").time {
        let _ = writeln!(out, "end {end}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{read_trace_bytes, read_trace_bytes_into, SimTime};

    #[test]
    fn read_basic_trace() {
        let mut voc = Vocabulary::new();
        let text = "# configuration phase\n10ns in set_imgAddr\n12ns in start\n\n20ns out set_irq\nend 100ns\n";
        let trace = read_trace_bytes(text.as_bytes(), &mut voc).expect("parses");
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.end_time(), SimTime::from_ns(100));
        let set_irq = voc.lookup("set_irq").expect("interned");
        assert_eq!(voc.direction(set_irq), Direction::Output);
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let mut voc = Vocabulary::new();
        let a = voc.input("a");
        let b = voc.output("b");
        let mut t = Trace::from_pairs([(SimTime::from_ns(1), a), (SimTime::from_us(2), b)]);
        t.set_end_time(SimTime::from_ms(1));
        let text = write_trace(&t, &voc);
        let mut voc2 = Vocabulary::new();
        let t2 = read_trace_bytes(text.as_bytes(), &mut voc2).expect("parses");
        assert_eq!(t2.len(), 2);
        assert_eq!(t2.end_time(), SimTime::from_ms(1));
        assert_eq!(voc2.resolve(t2.events()[0].name), "a");
        assert_eq!(voc2.resolve(t2.events()[1].name), "b");
        assert_eq!(voc2.direction(t2.events()[1].name), Direction::Output);
    }

    #[test]
    fn roundtrip_without_explicit_end() {
        let mut voc = Vocabulary::new();
        let a = voc.input("a");
        let t = Trace::from_pairs([(SimTime::from_ns(1), a)]);
        let text = write_trace(&t, &voc);
        assert!(!text.contains("end"), "no redundant end line: {text}");
        let mut voc2 = Vocabulary::new();
        let t2 = read_trace_bytes(text.as_bytes(), &mut voc2).expect("parses");
        assert_eq!(t2.end_time(), SimTime::from_ns(1));
    }

    #[test]
    fn empty_trace_roundtrip() {
        let voc = Vocabulary::new();
        let t = Trace::new();
        let text = write_trace(&t, &voc);
        let mut voc2 = Vocabulary::new();
        let t2 = read_trace_bytes(text.as_bytes(), &mut voc2).expect("parses");
        assert!(t2.is_empty());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let mut voc = Vocabulary::new();
        let err = read_trace_bytes(b"10ns in a\n5ns in b\n", &mut voc).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("precedes"));

        let err = read_trace_bytes(b"10ns sideways a\n", &mut voc).unwrap_err();
        assert!(err.message.contains("unknown direction"));

        let err = read_trace_bytes(b"10ns in\n", &mut voc).unwrap_err();
        assert!(err.message.contains("missing event name"));

        let err = read_trace_bytes(b"banana in a\n", &mut voc).unwrap_err();
        assert_eq!(err.line, 1);

        let err = read_trace_bytes(b"10ns in a extra\n", &mut voc).unwrap_err();
        assert!(err.message.contains("trailing"));

        let err = read_trace_bytes(b"end\n", &mut voc).unwrap_err();
        assert!(err.message.contains("requires a time"));

        let err = read_trace_bytes(b"10ns in a\nend 5ns\n", &mut voc).unwrap_err();
        assert!(err.message.contains("precedes last event"));

        // An event jumping back before a recorded end time must be a parse
        // error, not a `Trace::push` panic.
        let err = read_trace_bytes(b"end 100ns\n10ns in a\n", &mut voc).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("precedes"));
    }

    #[test]
    fn single_lines_parse_standalone() {
        assert_eq!(parse_trace_line("  # comment"), Ok(None));
        assert_eq!(parse_trace_line(""), Ok(None));
        let parsed = parse_trace_line("10ns out set_irq").unwrap().unwrap();
        assert_eq!(
            parsed,
            StreamLineRef::Event {
                time: SimTime::from_ns(10),
                direction: Direction::Output,
                name: "set_irq".into(),
            }
        );
        assert_eq!(
            parse_trace_line("end 5us"),
            Ok(Some(StreamLineRef::End(SimTime::from_us(5))))
        );
        assert!(parse_trace_line("end 5us junk")
            .unwrap_err()
            .contains("trailing"));
    }

    #[test]
    fn observed_read_counts_lines_bytes_and_errors() {
        let registry = lomon_obs::Registry::new();
        let metrics = IoMetrics::register(&registry);
        let mut voc = Vocabulary::new();
        let mut trace = Trace::new();
        let text = "# comment\n10ns in a\nend 20ns\n";
        read_trace_bytes_into(text.as_bytes(), &mut voc, &mut trace, Some(&metrics))
            .expect("parses");
        assert_eq!(metrics.lines.get(), 3);
        assert_eq!(metrics.bytes.get(), text.len() as u64);
        assert_eq!(metrics.parse_errors.get(), 0);
        assert_eq!(metrics.decode_ns.count(), 1);

        let bad = "10ns sideways a\n";
        let err = read_trace_bytes_into(bad.as_bytes(), &mut voc, &mut trace, Some(&metrics))
            .unwrap_err();
        assert!(err.message.contains("unknown direction"));
        assert_eq!(metrics.lines.get(), 4);
        assert_eq!(metrics.parse_errors.get(), 1);
        assert_eq!(metrics.decode_ns.count(), 2);
    }

    #[test]
    fn display_of_error() {
        let err = TraceParseError {
            line: 3,
            message: "boom".into(),
        };
        assert_eq!(err.to_string(), "trace line 3: boom");
    }
}
