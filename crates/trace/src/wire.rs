//! Byte-slice decode of the trace text format: its fast lexer, and the
//! whole-buffer readers, which run the one trace reader over a buffer.
//!
//! Each stream format has one fast lexer for its regular event line and
//! one full grammar for every other line, and one reader runs the pair
//! ([`crate::reader`]). For trace text:
//!
//! * The fast lexer (reached through
//!   [`lex_regular_event`](crate::lex_regular_event)) takes only a regular
//!   event line, an ASCII `<time> <in|out> <name>`, in one pass over its
//!   bytes, borrowing the name from the input. It never words a fault.
//! * The full grammar is [`parse_trace_line`](crate::parse_trace_line),
//!   which decides every other line — blank, comment, `end`, non-ASCII,
//!   malformed — and words its faults. It reads a line the lexer takes to
//!   the same time, direction and name (a differential proptest suite pins
//!   this).
//!
//! The whole-buffer readers run the reader over the caller's buffer in
//! place, in one pass, and stop at the first fault. They differ only in
//! how a name resolves:
//!
//! * [`read_trace_bytes`] loads a whole buffer as a [`Trace`], interning
//!   names. [`read_trace_bytes_into`] reuses one [`Trace`] allocation
//!   across buffers and optionally records into [`IoMetrics`], once per
//!   buffer.
//! * [`decode_events_into`] resolves names against a frozen vocabulary,
//!   [`Vocabulary::lookup_bytes`]'s byte-keyed table, into a caller-owned,
//!   reusable `Vec<TimedEvent>`; a name outside it is an error.
//!
//! No `lomon` command calls them: a command that loads a trace file as a
//! value reads it in chunks through
//! [`LineReader::read_trace`](crate::LineReader::read_trace). They serve
//! tests, examples and the benchmark's layer timings, and
//! [`decode_events_into`] is the `wire` leg the `wire_speed` gate holds
//! the stream driver against.

use std::sync::Arc;

use lomon_obs::Stopwatch;

use crate::io::{IoMetrics, TraceParseError};
use crate::name::Direction;
use crate::ndjson::{RegularEvent, StreamFormat};
use crate::reader::{Fault, LineReader};
use crate::time::scale_time;
use crate::{SimTime, TimedEvent, Trace, Vocabulary};

/// ASCII whitespace, byte-for-byte what `char::is_whitespace` accepts in
/// the ASCII range: space, tab, LF, vertical tab, form feed, CR.
#[inline]
pub(crate) fn is_ascii_space(b: u8) -> bool {
    b == b' ' || (0x09..=0x0d).contains(&b)
}

/// View bytes a fast lexer took, which are all ASCII, as `&str`.
#[inline]
pub(crate) fn ascii_str(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("the fast lexers take only ASCII")
}

/// The end of the field of ASCII bytes that starts at `start`: the next
/// ASCII whitespace, or the end of `bytes`. `None` if a non-ASCII byte
/// comes first: whether it is whitespace is the full grammar's to decide.
#[inline]
fn field_end(bytes: &[u8], start: usize) -> Option<usize> {
    let mut i = start;
    while i < bytes.len() && !is_ascii_space(bytes[i]) && bytes[i].is_ascii() {
        i += 1;
    }
    (i == bytes.len() || bytes[i].is_ascii()).then_some(i)
}

/// Skip the ASCII whitespace from `i` on, stopping at a `\n`.
#[inline]
pub(crate) fn skip_blanks(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && bytes[i] != b'\n' && is_ascii_space(bytes[i]) {
        i += 1;
    }
    i
}

/// The time literal at the head of `bytes` — digits, then a unit of ASCII
/// lowercase letters — and its length. `None` for anything else: no
/// digits, a number past `u64`, an unknown unit, a literal past
/// [`SimTime::MAX`]. The caller checks the byte that ends the literal: a
/// blank in trace text, the closing quote in NDJSON. It has no messages:
/// the full grammars word every fault. Both fast lexers read their time
/// here, and `parse_sim_time` reads a literal it takes to the same time.
#[inline]
pub(crate) fn lex_time(bytes: &[u8]) -> Option<(SimTime, usize)> {
    let mut i = 0;
    let mut value = 0u64;
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        value = value
            .checked_mul(10)?
            .checked_add(u64::from(bytes[i] - b'0'))?;
        i += 1;
    }
    if i == 0 {
        return None;
    }
    let unit = i;
    while i < bytes.len() && bytes[i].is_ascii_lowercase() {
        i += 1;
    }
    Some((scale_time(value, &bytes[unit..i]).ok()?, i))
}

/// The trace-text fast lexer: the line at the head of `bytes` if it is a
/// regular event line, `<time> <in|out> <name>` with only ASCII bytes and
/// ASCII whitespace around the fields. The line ends at its first `\n`,
/// counted in `len`, or at the end of `bytes`. Every other line gets
/// `None` and is [`parse_trace_line`](crate::parse_trace_line)'s to
/// decide.
#[inline]
pub(crate) fn lex_trace_event(bytes: &[u8]) -> Option<RegularEvent<'_>> {
    // Each byte of a regular line is touched once; the lexer bails the
    // moment the line stops looking like an event.
    let start = skip_blanks(bytes, 0);
    let (time, len) = lex_time(&bytes[start..])?;
    // The time must end at a blank: `10nsin a` is no event.
    let dir_start = skip_blanks(bytes, start + len);
    if dir_start == start + len {
        return None;
    }
    let dir_end = field_end(bytes, dir_start)?;
    let direction = match &bytes[dir_start..dir_end] {
        b"in" => Direction::Input,
        b"out" => Direction::Output,
        _ => return None,
    };
    let name_start = skip_blanks(bytes, dir_end);
    let name_end = field_end(bytes, name_start)?;
    let end = skip_blanks(bytes, name_end);
    if name_end == name_start || (end < bytes.len() && bytes[end] != b'\n') {
        return None;
    }
    Some(RegularEvent {
        time,
        direction,
        name: &bytes[name_start..name_end],
        len: (end + 1).min(bytes.len()),
    })
}

/// Parse a whole trace buffer, interning names into `voc`. Lines are split
/// with `str::lines` semantics, timestamps must not decrease, and an
/// `end <time>` line advances the clock.
///
/// # Errors
///
/// A [`TraceParseError`] with the offending 1-based line and the reader's
/// reason (see [`crate::reader`]): a malformed line, a line that is not
/// UTF-8 or over the frame cap, or a timestamp before the previous event
/// or `end` time.
pub fn read_trace_bytes(bytes: &[u8], voc: &mut Vocabulary) -> Result<Trace, TraceParseError> {
    let mut trace = Trace::new();
    read_trace_bytes_into(bytes, voc, &mut trace, None)?;
    Ok(trace)
}

/// Decode a whole trace buffer into a caller-owned [`Trace`], clearing it
/// first but keeping its capacity, so one trace buffer serves many files.
/// With `metrics`, the buffer's lines, bytes, parse error if any, and
/// decode nanoseconds (one sample per buffer) are recorded.
///
/// # Errors
///
/// Identical to [`read_trace_bytes`]; on error the events decoded before
/// the bad line stay in `trace` (callers treat the whole file as failed).
pub fn read_trace_bytes_into(
    bytes: &[u8],
    voc: &mut Vocabulary,
    trace: &mut Trace,
    metrics: Option<&IoMetrics>,
) -> Result<(), TraceParseError> {
    // One decode sample per buffer, recorded when the read returns.
    let _timer = metrics.map(|m| Stopwatch::start(Arc::clone(&m.decode_ns)));
    trace.clear();
    let mut reader = LineReader::whole(StreamFormat::Trace, bytes);
    let result = reader.read_trace(voc, trace);
    if let Some(m) = metrics {
        m.lines.add(reader.line());
        m.bytes.add(bytes.len() as u64);
        m.parse_errors.add(u64::from(result.is_err()));
    }
    result.map_err(|fault| whole_error(&reader, fault))
}

/// Outcome of a whole-buffer [`decode_events_into`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecodeSummary {
    /// Text lines consumed (including comments and blanks).
    pub lines: u64,
    /// End time recorded by the last `end <time>` line, if any.
    pub end_time: Option<SimTime>,
}

/// Decode a whole trace buffer against a **frozen** vocabulary into a
/// caller-owned, reusable event buffer: every name is resolved to its
/// pre-interned `u32` id via [`Vocabulary::lookup_bytes`], with zero
/// allocation per line or per event. `out` is cleared first but keeps its
/// capacity across calls.
///
/// This is the wire-speed half of the bytes→verdicts pipeline: decode a
/// buffer into `out`, hand `out` to
/// `Session::ingest_batch`, repeat with the same buffer.
///
/// # Errors
///
/// Grammar and monotonicity errors are identical to
/// [`read_trace_bytes`]. Additionally, a name absent from `voc` is
/// `unknown event name `…`` — the frozen path never interns; callers
/// whose alphabet can grow use [`read_trace_bytes_into`] instead.
pub fn decode_events_into(
    bytes: &[u8],
    voc: &Vocabulary,
    out: &mut Vec<TimedEvent>,
) -> Result<DecodeSummary, TraceParseError> {
    out.clear();
    let mut reader = LineReader::whole(StreamFormat::Trace, bytes);
    let end_time = reader
        .read_events(out, |name, _| voc.lookup_bytes(name))
        .map_err(|fault| whole_error(&reader, fault))?;
    let lines = reader.line();
    Ok(DecodeSummary { lines, end_time })
}

/// The error of a whole-buffer reader stopped by a rejected line.
fn whole_error(reader: &LineReader<'_>, (_, message): (Fault, String)) -> TraceParseError {
    let line = reader.line() as usize;
    TraceParseError { line, message }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_stream_line_bytes;
    use crate::StreamFormat;

    #[test]
    fn invalid_utf8_is_rejected_not_panicked() {
        let err = parse_stream_line_bytes(StreamFormat::Trace, b"10ns in caf\xff").unwrap_err();
        assert!(err.contains("UTF-8"), "unexpected error: {err}");
        let err =
            read_trace_bytes(b"10ns in a\n10ns in caf\xff\n", &mut Vocabulary::new()).unwrap_err();
        assert_eq!(
            (err.line, err.message.as_str()),
            (2, "line is not valid UTF-8")
        );
    }

    #[test]
    fn read_trace_bytes_into_reuses_the_buffer() {
        let mut voc = Vocabulary::new();
        let mut trace = Trace::new();
        read_trace_bytes_into(b"10ns in a\n20ns in b\n", &mut voc, &mut trace, None)
            .expect("parses");
        assert_eq!(trace.len(), 2);
        read_trace_bytes_into(b"30ns in a\n", &mut voc, &mut trace, None).expect("parses");
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.events()[0].time, SimTime::from_ns(30));
        assert_eq!(voc.len(), 2, "names interned once across files");
    }

    #[test]
    fn decode_events_into_resolves_against_frozen_vocabulary() {
        let mut voc = Vocabulary::new();
        let a = voc.input("a");
        let b = voc.output("b");
        let mut buf = Vec::new();
        let summary = decode_events_into(b"# c\n10ns in a\n20ns out b\nend 99ns\n", &voc, &mut buf)
            .expect("decodes");
        assert_eq!(summary.lines, 4);
        assert_eq!(summary.end_time, Some(SimTime::from_ns(99)));
        assert_eq!(
            buf,
            vec![
                TimedEvent::new(a, SimTime::from_ns(10)),
                TimedEvent::new(b, SimTime::from_ns(20)),
            ]
        );
        // The buffer is reusable: capacity survives, contents are replaced.
        let cap = buf.capacity();
        decode_events_into(b"30ns in a\n", &voc, &mut buf).expect("decodes");
        assert_eq!(buf.len(), 1);
        assert!(buf.capacity() >= cap.min(1));
    }

    #[test]
    fn decode_events_into_rejects_unknown_names_and_time_travel() {
        let mut voc = Vocabulary::new();
        voc.input("a");
        let mut buf = Vec::new();
        let err = decode_events_into(b"10ns in mystery\n", &voc, &mut buf).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("unknown event name `mystery`"));

        let err = decode_events_into(b"10ns in a\n5ns in a\n", &voc, &mut buf).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("precedes previous event"));

        let err = decode_events_into(b"10ns in a\nend 5ns\n", &voc, &mut buf).unwrap_err();
        assert!(err.message.contains("precedes last event"));
    }
}
