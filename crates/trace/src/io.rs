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

use std::fmt::Write as _;
use std::sync::Arc;

use lomon_obs::{Counter, Histogram, Registry};

use crate::name::Direction;
use crate::time::parse_sim_time;
use crate::{Trace, Vocabulary};

/// Telemetry counters for trace I/O, shared by whole-file parsing
/// ([`read_trace_observed`]) and the CLI's streaming line loop (`lomon
/// watch` counts through the same families).
#[derive(Debug)]
pub struct IoMetrics {
    /// `lomon_io_lines_total`: text lines consumed (including comments and
    /// blanks).
    pub lines: Arc<Counter>,
    /// `lomon_io_bytes_total`: bytes of trace text consumed.
    pub bytes: Arc<Counter>,
    /// `lomon_io_parse_errors_total`: lines rejected by the parser.
    pub parse_errors: Arc<Counter>,
    /// `lomon_ingest_decode_ns`: nanoseconds spent decoding trace bytes
    /// into events, recorded once per decoded buffer by the whole-buffer
    /// readers. The engine's stream driver (`check`, `watch`) records a
    /// sample instead: the parse of one line in 64, picked by line number,
    /// so the count is about a 64th of `lomon_io_lines_total`. Either way
    /// the instrumentation stays off the per-byte and per-line hot path.
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

/// Error produced by [`read_trace`], with the 1-based line number.
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

/// One parsed line of the trace text format. The single source of truth
/// for the per-line grammar, shared by [`read_trace`] and streaming
/// consumers (such as `lomon watch`) that parse one line at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceLine<'a> {
    /// An event line `<time> <in|out> <name>`.
    Event {
        /// The event's timestamp.
        time: crate::SimTime,
        /// Whether the name is an input or an output.
        direction: Direction,
        /// The interface name, borrowed from the line.
        name: &'a str,
    },
    /// An `end <time>` line recording when observation stopped.
    End(crate::SimTime),
}

/// Parse one line of the trace text format. Blank lines and `#` comments
/// parse to `Ok(None)`.
///
/// Monotonicity across lines is the caller's concern ([`read_trace`]
/// enforces it for whole files).
///
/// # Errors
///
/// Returns a human-readable message (without line number) on malformed
/// fields.
pub fn parse_trace_line(raw: &str) -> Result<Option<TraceLine<'_>>, String> {
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
        return Ok(Some(TraceLine::End(time)));
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
    Ok(Some(TraceLine::Event {
        time,
        direction,
        name,
    }))
}

/// Parse a trace from its text representation, interning names into `voc`.
///
/// # Errors
///
/// Returns a [`TraceParseError`] with the offending line on malformed input,
/// unknown directions, bad time literals, or non-monotone timestamps.
pub fn read_trace(text: &str, voc: &mut Vocabulary) -> Result<Trace, TraceParseError> {
    read_trace_observed(text, voc, None)
}

/// [`read_trace`] with optional telemetry: every consumed line and byte is
/// counted, and a parse failure bumps the error counter before the
/// [`TraceParseError`] is returned.
///
/// # Errors
///
/// Identical to [`read_trace`].
pub fn read_trace_observed(
    text: &str,
    voc: &mut Vocabulary,
    metrics: Option<&IoMetrics>,
) -> Result<Trace, TraceParseError> {
    let started = metrics.map(|_| std::time::Instant::now());
    let mut trace = Trace::new();
    let mut last_time = None;
    let mut lines = 0u64;
    let mut result = Ok(());
    for (idx, raw) in text.lines().enumerate() {
        lines += 1;
        let err = |message: String| TraceParseError {
            line: idx + 1,
            message,
        };
        if let Err(e) = read_one(raw, voc, &mut trace, &mut last_time, err) {
            result = Err(e);
            break;
        }
    }
    if let Some(m) = metrics {
        m.lines.add(lines);
        m.bytes.add(text.len() as u64);
        if result.is_err() {
            m.parse_errors.inc();
        }
        if let Some(t0) = started {
            m.decode_ns
                .record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }
    result.map(|()| trace)
}

fn read_one(
    raw: &str,
    voc: &mut Vocabulary,
    trace: &mut Trace,
    last_time: &mut Option<crate::SimTime>,
    err: impl Fn(String) -> TraceParseError,
) -> Result<(), TraceParseError> {
    match parse_trace_line(raw).map_err(&err)? {
        None => {}
        Some(TraceLine::End(time)) => {
            if let Some(last) = *last_time {
                if time < last {
                    return Err(err(format!(
                        "end time {time} precedes last event at {last}"
                    )));
                }
            }
            trace.set_end_time(time);
            // The end time advances the clock: a later event line may
            // not jump back before it (`Trace::push` would panic).
            *last_time = Some(time);
        }
        Some(TraceLine::Event {
            time,
            direction,
            name,
        }) => {
            if let Some(last) = *last_time {
                if time < last {
                    return Err(err(format!(
                        "timestamp {time} precedes previous event at {last}"
                    )));
                }
            }
            *last_time = Some(time);
            let name = voc.intern(name, direction);
            trace.push(name, time);
        }
    }
    Ok(())
}

/// Render a trace in the text format accepted by [`read_trace`].
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
    use crate::SimTime;

    #[test]
    fn read_basic_trace() {
        let mut voc = Vocabulary::new();
        let text = "# configuration phase\n10ns in set_imgAddr\n12ns in start\n\n20ns out set_irq\nend 100ns\n";
        let trace = read_trace(text, &mut voc).expect("parses");
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
        let t2 = read_trace(&text, &mut voc2).expect("parses");
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
        let t2 = read_trace(&text, &mut voc2).expect("parses");
        assert_eq!(t2.end_time(), SimTime::from_ns(1));
    }

    #[test]
    fn empty_trace_roundtrip() {
        let voc = Vocabulary::new();
        let t = Trace::new();
        let text = write_trace(&t, &voc);
        let mut voc2 = Vocabulary::new();
        let t2 = read_trace(&text, &mut voc2).expect("parses");
        assert!(t2.is_empty());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let mut voc = Vocabulary::new();
        let err = read_trace("10ns in a\n5ns in b\n", &mut voc).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("precedes"));

        let err = read_trace("10ns sideways a\n", &mut voc).unwrap_err();
        assert!(err.message.contains("unknown direction"));

        let err = read_trace("10ns in\n", &mut voc).unwrap_err();
        assert!(err.message.contains("missing event name"));

        let err = read_trace("banana in a\n", &mut voc).unwrap_err();
        assert_eq!(err.line, 1);

        let err = read_trace("10ns in a extra\n", &mut voc).unwrap_err();
        assert!(err.message.contains("trailing"));

        let err = read_trace("end\n", &mut voc).unwrap_err();
        assert!(err.message.contains("requires a time"));

        let err = read_trace("10ns in a\nend 5ns\n", &mut voc).unwrap_err();
        assert!(err.message.contains("precedes last event"));

        // An event jumping back before a recorded end time must be a parse
        // error, not a `Trace::push` panic.
        let err = read_trace("end 100ns\n10ns in a\n", &mut voc).unwrap_err();
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
            TraceLine::Event {
                time: SimTime::from_ns(10),
                direction: Direction::Output,
                name: "set_irq",
            }
        );
        assert_eq!(
            parse_trace_line("end 5us"),
            Ok(Some(TraceLine::End(SimTime::from_us(5))))
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
        let text = "# comment\n10ns in a\nend 20ns\n";
        read_trace_observed(text, &mut voc, Some(&metrics)).expect("parses");
        assert_eq!(metrics.lines.get(), 3);
        assert_eq!(metrics.bytes.get(), text.len() as u64);
        assert_eq!(metrics.parse_errors.get(), 0);

        let bad = "10ns sideways a\n";
        read_trace_observed(bad, &mut voc, Some(&metrics)).unwrap_err();
        assert_eq!(metrics.lines.get(), 4);
        assert_eq!(metrics.parse_errors.get(), 1);

        // The unobserved entry point is byte-for-byte the same parser.
        let err = read_trace(bad, &mut voc).unwrap_err();
        assert!(err.message.contains("unknown direction"));
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
