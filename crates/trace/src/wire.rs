//! Byte-slice decode of the trace text format: its fast lexer and the one
//! whole-buffer loop.
//!
//! Each stream format has one fast lexer for its regular event line and
//! one full grammar for every other line; every reader runs that pair.
//! For trace text:
//!
//! * The fast lexer (reached through
//!   [`lex_regular_event`](crate::lex_regular_event)) takes only a regular
//!   event line, an ASCII `<time> <in|out> <name>`, in one pass over its
//!   bytes, borrowing the name from the input. It never words a fault.
//! * The full grammar is [`parse_trace_line`], which decides every other
//!   line — blank, comment, `end`, non-ASCII, malformed — and words every
//!   fault. It reads a line the lexer takes to the same time, direction
//!   and name (a differential proptest suite pins this).
//!
//! One private loop decodes a whole buffer with that pair: lex the line at
//! the head of the buffer, else cut it at its `\n` (dropping a CRLF `\r`)
//! and parse it. Its two entry points differ only in how a name resolves:
//!
//! * [`read_trace_bytes`] loads a whole buffer as a [`Trace`], interning
//!   names, for the commands that take a trace as a value (`vcd`,
//!   `profile`, `lint --trace`, `smc --trace`).
//!   [`read_trace_bytes_into`] reuses one [`Trace`] allocation across
//!   buffers and optionally records into [`IoMetrics`], once per buffer.
//! * [`decode_events_into`] resolves names against a frozen vocabulary,
//!   [`Vocabulary::lookup_bytes`]'s byte-keyed table, into a caller-owned,
//!   reusable `Vec<TimedEvent>`; a name outside it is an error.
//!
//! No `lomon` command calls [`read_trace_bytes_into`] or
//! [`decode_events_into`] directly: they stay for the benchmark's layer
//! timings, and [`decode_events_into`] is the `wire` leg the `wire_speed`
//! gate holds the stream driver against. The driver runs the same lexer.

use std::time::Instant;

use crate::frame::find_newline;
use crate::io::{parse_trace_line, time_order_error, IoMetrics, TraceParseError};
use crate::name::Direction;
use crate::ndjson::{RegularEvent, StreamLineRef};
use crate::time::scale_time;
use crate::{Name, SimTime, TimedEvent, Trace, Vocabulary};

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
fn skip_blanks(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && bytes[i] != b'\n' && is_ascii_space(bytes[i]) {
        i += 1;
    }
    i
}

/// The time literal at the head of `bytes` — digits, then a unit running
/// to the next ASCII whitespace — and its length. `None` for anything
/// else: no digits, a number past `u64`, an unknown unit, a literal past
/// [`SimTime::MAX`], a non-ASCII byte glued to the unit. It has no
/// messages: the full grammars word every fault. Both fast lexers read
/// their time here, and `parse_sim_time` reads a literal it takes to the
/// same time.
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
    let end = field_end(bytes, i)?;
    Some((scale_time(value, &bytes[i..end]).ok()?, end))
}

/// The trace-text fast lexer: the line at the head of `bytes` if it is a
/// regular event line, `<time> <in|out> <name>` with only ASCII bytes and
/// ASCII whitespace around the fields. The line ends at its first `\n`,
/// counted in `len`, or at the end of `bytes`. Every other line gets
/// `None` and is [`parse_trace_line`]'s to decide.
#[inline]
pub(crate) fn lex_trace_event(bytes: &[u8]) -> Option<RegularEvent<'_>> {
    // Each byte of a regular line is touched once; the lexer bails the
    // moment the line stops looking like an event.
    let start = skip_blanks(bytes, 0);
    let (time, len) = lex_time(&bytes[start..])?;
    let dir_start = skip_blanks(bytes, start + len);
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
/// A [`TraceParseError`] with the offending 1-based line on a malformed
/// line (the message is [`parse_trace_line`]'s), a line that is not UTF-8,
/// or a timestamp before the previous event or `end` time.
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
    let started = metrics.map(|_| Instant::now());
    trace.clear();
    let result = decode_into(bytes, &mut trace.events, |name, direction| {
        Some(match voc.lookup_bytes(name) {
            Some(name) => name,
            None => voc.intern(&String::from_utf8_lossy(name), direction),
        })
    });
    if let Ok(summary) = &result {
        // As `Trace::push` would: an event after the last `end` line
        // raises the end time to its own.
        trace.end_time = summary.end_time.map(|end| end.max(trace.end_time()));
    }
    if let Some(m) = metrics {
        m.lines.add(match &result {
            Ok(summary) => summary.lines,
            Err(e) => e.line as u64,
        });
        m.bytes.add(bytes.len() as u64);
        if result.is_err() {
            m.parse_errors.inc();
        }
        if let Some(t0) = started {
            m.decode_ns
                .record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }
    result.map(|_| ())
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
    decode_into(bytes, out, |name, _| voc.lookup_bytes(name))
}

/// The one whole-buffer loop: append each event of `bytes` to `out`, its
/// name resolved by `resolve` from its bytes and direction (`None` fails
/// the line as an unknown name). A line the fast lexer takes is applied
/// straight away; any other is cut at its `\n`, a CRLF `\r` dropped, and
/// parsed by [`parse_trace_line`].
#[inline]
fn decode_into(
    bytes: &[u8],
    out: &mut Vec<TimedEvent>,
    mut resolve: impl FnMut(&[u8], Direction) -> Option<Name>,
) -> Result<DecodeSummary, TraceParseError> {
    let mut summary = DecodeSummary::default();
    let mut last = SimTime::ZERO;
    let mut pos = 0;
    let mut line = 0;
    while pos < bytes.len() {
        line += 1;
        let fail = |message| TraceParseError { line, message };
        // The lexed line is applied on its own path: sharing the tail
        // below with the grammar's events cost the `wire_speed` wire leg
        // about 4%.
        if let Some(event) = lex_trace_event(&bytes[pos..]) {
            if event.time < last {
                return Err(fail(time_order_error(false, event.time, last)));
            }
            let Some(name) = resolve(event.name, event.direction) else {
                return Err(fail(unknown_name(event.name)));
            };
            out.push(TimedEvent::new(name, event.time));
            last = event.time;
            pos += event.len;
            continue;
        }
        let rest = &bytes[pos..];
        let raw = match find_newline(rest) {
            Some(nl) => {
                pos += nl + 1;
                rest[..nl].strip_suffix(b"\r").unwrap_or(&rest[..nl])
            }
            None => {
                pos = bytes.len();
                rest
            }
        };
        let text = std::str::from_utf8(raw).map_err(|_| fail("line is not valid UTF-8".into()))?;
        match parse_trace_line(text).map_err(fail)? {
            None => {}
            Some(StreamLineRef::End(time)) => {
                if time < last {
                    return Err(fail(time_order_error(true, time, last)));
                }
                summary.end_time = Some(time);
                last = time;
            }
            Some(StreamLineRef::Event {
                time,
                direction,
                name,
            }) => {
                if time < last {
                    return Err(fail(time_order_error(false, time, last)));
                }
                let Some(id) = resolve(name.as_bytes(), direction) else {
                    return Err(fail(unknown_name(name.as_bytes())));
                };
                out.push(TimedEvent::new(id, time));
                last = time;
            }
        }
    }
    summary.lines = line as u64;
    Ok(summary)
}

/// The fault of a name a frozen vocabulary does not hold.
#[cold]
fn unknown_name(name: &[u8]) -> String {
    format!("unknown event name `{}`", String::from_utf8_lossy(name))
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
