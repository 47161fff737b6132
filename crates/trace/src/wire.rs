//! Wire-speed byte-slice decode of the trace text grammar.
//!
//! The string-based readers in [`crate::io`] pay three per-line costs that
//! dominate end-to-end monitoring throughput once the fused backend steps
//! events in a handful of nanoseconds: a `String` per line (streaming
//! readers), a `String` per name (`StreamLine::Event`), and a `SipHash`
//! vocabulary probe per event. This module makes **bytes → pre-resolved
//! events** the optimized unit instead:
//!
//! * [`parse_trace_line_bytes`] lexes one line straight from a `&[u8]`
//!   buffer, borrowing the name out of the input (no allocation). Lines
//!   containing non-ASCII bytes — the only place where byte-wise and
//!   `char`-wise whitespace handling could diverge — fall back to the
//!   string parser, so semantics and error text are identical by
//!   construction (a differential proptest suite pins this). It is the
//!   trace-text lexer of every `lomon` surface: `check`, `watch` and
//!   `serve` run it line by line through the engine's stream driver.
//! * [`read_trace_bytes`] is the whole-buffer equivalent of
//!   [`crate::read_trace`], for the commands that load a trace as a value
//!   (`vcd`, `profile`, `lint --trace`, `smc --trace`).
//!   [`read_trace_bytes_into`] reuses one [`Trace`] allocation across
//!   buffers.
//! * [`decode_events_into`] is the frozen-vocabulary whole-buffer decoder:
//!   names are resolved against [`Vocabulary::lookup_bytes`]'s precomputed
//!   byte-keyed table and emitted as pre-resolved `u32` ids into a
//!   caller-owned, reusable `Vec<TimedEvent>`.
//!
//! No `lomon` command runs [`read_trace_bytes_into`] or
//! [`decode_events_into`] any more: they stay for the benchmark's layer
//! timings and the `wire_speed` gate's bytes-in/verdicts-out loop.
//!
//! Instrumented variants record into [`IoMetrics`] once per buffer, never
//! per byte, which keeps decode telemetry within the workspace-wide
//! ≤1.10× observability overhead budget (gated by `wire_speed --check`).

use std::time::Instant;

use crate::io::{parse_trace_line, IoMetrics, TraceLine, TraceParseError};
use crate::name::Direction;
use crate::time::{scale_time, ScaleError};
use crate::{SimTime, TimedEvent, Trace, Vocabulary};

/// Iterate over the lines of a byte buffer with `str::lines` semantics:
/// lines are terminated by `\n` (a trailing `\r` is stripped, so CRLF
/// works), the final line ending is optional, and an empty buffer yields
/// nothing.
pub fn byte_lines(bytes: &[u8]) -> ByteLines<'_> {
    ByteLines { rest: bytes }
}

/// Iterator returned by [`byte_lines`].
#[derive(Debug, Clone)]
pub struct ByteLines<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for ByteLines<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.rest.is_empty() {
            return None;
        }
        match self.rest.iter().position(|&b| b == b'\n') {
            Some(nl) => {
                let mut line = &self.rest[..nl];
                self.rest = &self.rest[nl + 1..];
                // Only `\n`-terminated lines shed a trailing `\r` (CRLF);
                // a bare `\r` on the final unterminated line stays, like
                // `str::lines`.
                if line.last() == Some(&b'\r') {
                    line = &line[..line.len() - 1];
                }
                Some(line)
            }
            None => {
                let line = self.rest;
                self.rest = &[];
                Some(line)
            }
        }
    }
}

/// ASCII whitespace, byte-for-byte what `char::is_whitespace` accepts in
/// the ASCII range: space, tab, LF, vertical tab, form feed, CR.
#[inline]
pub(crate) fn is_ascii_space(b: u8) -> bool {
    b == b' ' || (0x09..=0x0d).contains(&b)
}

/// Whitespace-separated fields of an ASCII line, the byte twin of
/// `str::split_whitespace` (identical on ASCII input, which the caller
/// guarantees).
struct Fields<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Fields<'a> {
    type Item = &'a [u8];

    #[inline]
    fn next(&mut self) -> Option<&'a [u8]> {
        let mut i = 0;
        while i < self.rest.len() && is_ascii_space(self.rest[i]) {
            i += 1;
        }
        if i == self.rest.len() {
            self.rest = &[];
            return None;
        }
        let start = i;
        while i < self.rest.len() && !is_ascii_space(self.rest[i]) {
            i += 1;
        }
        let field = &self.rest[start..i];
        self.rest = &self.rest[i..];
        Some(field)
    }
}

/// View a field of a line already checked to be pure ASCII as `&str`.
#[inline]
pub(crate) fn ascii_str(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("caller checked the line is pure ASCII")
}

/// Byte-level twin of `crate::time::parse_sim_time` for fields known to be
/// pure ASCII and whitespace-free (they came out of [`Fields`]): one pass
/// accumulating the digits, then a unit-suffix match. Same accepted
/// inputs, same error text — the string parser's `trim`s are no-ops on a
/// whitespace-free field, and its checked `u64` parse rejects exactly the
/// overflows the accumulator flags. On any ASCII field, `Ok` means digits
/// plus a unit with no whitespace, which `parse_sim_time` reads to the
/// same time: the NDJSON fast path relies on that.
#[inline]
pub(crate) fn parse_sim_time_bytes(field: &[u8]) -> Result<SimTime, String> {
    let mut i = 0;
    let mut value = 0u64;
    let mut overflow = false;
    while i < field.len() && field[i].is_ascii_digit() {
        let (scaled, o1) = value.overflowing_mul(10);
        let (next, o2) = scaled.overflowing_add(u64::from(field[i] - b'0'));
        overflow |= o1 | o2;
        value = next;
        i += 1;
    }
    if i == field.len() {
        return Err(format!(
            "time literal `{}` is missing a unit (ps/ns/us/ms/s)",
            ascii_str(field)
        ));
    }
    if i == 0 {
        return Err(format!(
            "time literal `{}` is missing digits",
            ascii_str(field)
        ));
    }
    if overflow {
        return Err(format!(
            "invalid number in time literal `{}`",
            ascii_str(field)
        ));
    }
    let unit = &field[i..];
    scale_time(value, unit).map_err(|e| match e {
        ScaleError::UnknownUnit => format!(
            "unknown time unit `{}` in `{}`",
            ascii_str(unit),
            ascii_str(field)
        ),
        ScaleError::OutOfRange => {
            format!("time literal `{}` is out of range", ascii_str(field))
        }
    })
}

/// Parse one line of the trace text format straight from bytes, borrowing
/// the event name from the input buffer. Blank lines and `#` comments
/// parse to `Ok(None)`.
///
/// Grammar, accepted inputs and error text are identical to
/// [`parse_trace_line`]: lines containing non-ASCII bytes (where Unicode
/// whitespace could make byte splitting diverge from
/// `str::split_whitespace`) are delegated to the string parser.
///
/// # Errors
///
/// Returns a human-readable message (without line number) on malformed
/// fields, or `line is not valid UTF-8` when a non-ASCII line is not
/// valid UTF-8 (callers decoding whole files validate the buffer up
/// front, so they never see that case).
#[inline]
pub fn parse_trace_line_bytes(raw: &[u8]) -> Result<Option<TraceLine<'_>>, String> {
    if !raw.is_ascii() {
        return match std::str::from_utf8(raw) {
            Ok(line) => parse_trace_line(line),
            Err(_) => Err("line is not valid UTF-8".into()),
        };
    }
    let mut fields = Fields { rest: raw };
    let Some(first) = fields.next() else {
        return Ok(None);
    };
    if first[0] == b'#' {
        return Ok(None);
    }
    if first == b"end" {
        let time_text = fields.next().ok_or("`end` requires a time")?;
        let time = parse_sim_time_bytes(time_text)?;
        if let Some(junk) = fields.next() {
            return Err(format!("unexpected trailing field `{}`", ascii_str(junk)));
        }
        return Ok(Some(TraceLine::End(time)));
    }
    let time = parse_sim_time_bytes(first)?;
    let direction = match fields.next() {
        None => return Err("missing direction (`in` or `out`)".into()),
        Some(b"in") => Direction::Input,
        Some(b"out") => Direction::Output,
        Some(other) => {
            return Err(format!(
                "unknown direction `{}` (expected `in` or `out`)",
                ascii_str(other)
            ))
        }
    };
    let Some(name) = fields.next() else {
        return Err("missing event name".into());
    };
    if let Some(junk) = fields.next() {
        return Err(format!("unexpected trailing field `{}`", ascii_str(junk)));
    }
    Ok(Some(TraceLine::Event {
        time,
        direction,
        name: ascii_str(name),
    }))
}

/// Parse a whole trace buffer with the byte lexer, interning names into
/// `voc`. Byte-level twin of [`crate::read_trace`] — same grammar, same
/// monotonicity rules, same error text and 1-based line numbers.
///
/// # Errors
///
/// Identical to [`crate::read_trace`].
pub fn read_trace_bytes(bytes: &[u8], voc: &mut Vocabulary) -> Result<Trace, TraceParseError> {
    read_trace_bytes_observed(bytes, voc, None)
}

/// [`read_trace_bytes`] with optional telemetry (lines, bytes, parse
/// errors and whole-buffer decode nanoseconds).
///
/// # Errors
///
/// Identical to [`crate::read_trace`].
pub fn read_trace_bytes_observed(
    bytes: &[u8],
    voc: &mut Vocabulary,
    metrics: Option<&IoMetrics>,
) -> Result<Trace, TraceParseError> {
    let mut trace = Trace::new();
    read_trace_bytes_into(bytes, voc, &mut trace, metrics)?;
    Ok(trace)
}

/// Decode a whole trace buffer into a caller-owned [`Trace`], clearing it
/// first but keeping its capacity, so one trace buffer serves many files.
///
/// # Errors
///
/// Identical to [`crate::read_trace`]; on error the partially decoded
/// prefix stays in `trace` (callers treat the whole file as failed, as
/// the string reader does).
pub fn read_trace_bytes_into(
    bytes: &[u8],
    voc: &mut Vocabulary,
    trace: &mut Trace,
    metrics: Option<&IoMetrics>,
) -> Result<(), TraceParseError> {
    let started = metrics.map(|_| Instant::now());
    trace.clear();
    let mut last_time = None;
    let mut lines = 0u64;
    let mut result = Ok(());
    for (idx, raw) in byte_lines(bytes).enumerate() {
        lines += 1;
        if let Err(e) = read_one_bytes(raw, voc, trace, &mut last_time, idx + 1) {
            result = Err(e);
            break;
        }
    }
    if let Some(m) = metrics {
        m.lines.add(lines);
        m.bytes.add(bytes.len() as u64);
        if result.is_err() {
            m.parse_errors.inc();
        }
        if let Some(t0) = started {
            m.decode_ns
                .record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }
    result
}

fn read_one_bytes(
    raw: &[u8],
    voc: &mut Vocabulary,
    trace: &mut Trace,
    last_time: &mut Option<SimTime>,
    line_no: usize,
) -> Result<(), TraceParseError> {
    let err = |message: String| TraceParseError {
        line: line_no,
        message,
    };
    match parse_trace_line_bytes(raw).map_err(&err)? {
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
            // `intern` now probes the byte-keyed table first, so the
            // known-name fast path allocates nothing.
            let name = voc.intern(name, direction);
            trace.push(name, time);
        }
    }
    Ok(())
}

/// Outcome of a whole-buffer [`decode_events_into`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecodeSummary {
    /// Text lines consumed (including comments and blanks).
    pub lines: u64,
    /// End time recorded by a trailing `end <time>` line, if any.
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
/// [`crate::read_trace`]. Additionally, a name absent from `voc` is
/// `unknown event name `…`` — the frozen path never interns; callers
/// whose alphabet can grow use [`read_trace_bytes_into`] instead.
pub fn decode_events_into(
    bytes: &[u8],
    voc: &Vocabulary,
    out: &mut Vec<TimedEvent>,
) -> Result<DecodeSummary, TraceParseError> {
    out.clear();
    let mut summary = DecodeSummary::default();
    let mut last_time: Option<SimTime> = None;
    // Single fused pass: every byte of a well-formed event line is touched
    // exactly once (the per-line reader scans each line three times — for
    // the `\n`, for the ASCII check, and for the fields). Anything that is
    // not a perfectly regular ASCII event line — blanks, comments, `end`,
    // malformed fields, non-ASCII — drops to [`parse_trace_line_bytes`]
    // for that one line, so accepted inputs and error text stay identical
    // to the per-line path by construction.
    let mut pos = 0usize;
    let mut line_no = 0usize;
    'lines: while pos < bytes.len() {
        line_no += 1;
        let line_start = pos;
        // A labelled block, broken out of to reach the slow path: the fast
        // path bails the moment the line stops looking like
        // `time unit in|out name` with nothing but ASCII in between.
        let fast = 'fast: {
            let mut i = pos;
            while i < bytes.len() && bytes[i] != b'\n' && is_ascii_space(bytes[i]) {
                i += 1;
            }
            if i >= bytes.len() || !bytes[i].is_ascii_digit() {
                break 'fast None;
            }
            let mut value = 0u64;
            let mut overflow = false;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                let (scaled, o1) = value.overflowing_mul(10);
                let (next, o2) = scaled.overflowing_add(u64::from(bytes[i] - b'0'));
                overflow |= o1 | o2;
                value = next;
                i += 1;
            }
            if overflow {
                break 'fast None;
            }
            let unit_start = i;
            while i < bytes.len() && !is_ascii_space(bytes[i]) && bytes[i].is_ascii() {
                i += 1;
            }
            if i < bytes.len() && !bytes[i].is_ascii() {
                // A non-ASCII byte glued to the unit makes it one longer
                // (non-unit) field under `char`-wise splitting.
                break 'fast None;
            }
            // An unknown unit or an out-of-range literal is an error line:
            // the per-line parser words it.
            let Ok(time) = scale_time(value, &bytes[unit_start..i]) else {
                break 'fast None;
            };
            while i < bytes.len() && bytes[i] != b'\n' && is_ascii_space(bytes[i]) {
                i += 1;
            }
            let dir_start = i;
            while i < bytes.len() && !is_ascii_space(bytes[i]) && bytes[i].is_ascii() {
                i += 1;
            }
            if (i < bytes.len() && !bytes[i].is_ascii())
                || !matches!(&bytes[dir_start..i], b"in" | b"out")
            {
                break 'fast None;
            }
            while i < bytes.len() && bytes[i] != b'\n' && is_ascii_space(bytes[i]) {
                i += 1;
            }
            let name_start = i;
            while i < bytes.len() && !is_ascii_space(bytes[i]) && bytes[i].is_ascii() {
                i += 1;
            }
            if i == name_start || (i < bytes.len() && !bytes[i].is_ascii()) {
                break 'fast None;
            }
            let name = &bytes[name_start..i];
            while i < bytes.len() && bytes[i] != b'\n' && is_ascii_space(bytes[i]) {
                i += 1;
            }
            if i < bytes.len() && bytes[i] != b'\n' {
                break 'fast None;
            }
            Some((time, name, if i < bytes.len() { i + 1 } else { i }))
        };
        if let Some((time, name, next_pos)) = fast {
            if let Some(last) = last_time {
                if time < last {
                    return Err(TraceParseError {
                        line: line_no,
                        message: format!("timestamp {time} precedes previous event at {last}"),
                    });
                }
            }
            last_time = Some(time);
            let Some(name) = voc.lookup_bytes(name) else {
                return Err(TraceParseError {
                    line: line_no,
                    message: format!("unknown event name `{}`", ascii_str(name)),
                });
            };
            out.push(TimedEvent::new(name, time));
            summary.lines += 1;
            pos = next_pos;
            continue 'lines;
        }
        // Slow path: slice this one line with `byte_lines` semantics and
        // delegate to the per-line parser.
        let (mut raw, next_pos) = match bytes[line_start..].iter().position(|&b| b == b'\n') {
            Some(nl) => (&bytes[line_start..line_start + nl], line_start + nl + 1),
            None => (&bytes[line_start..], bytes.len()),
        };
        if next_pos > line_start + raw.len() && raw.last() == Some(&b'\r') {
            raw = &raw[..raw.len() - 1];
        }
        summary.lines += 1;
        pos = next_pos;
        let err = |message: String| TraceParseError {
            line: line_no,
            message,
        };
        match parse_trace_line_bytes(raw).map_err(err)? {
            None => {}
            Some(TraceLine::End(time)) => {
                if let Some(last) = last_time {
                    if time < last {
                        return Err(TraceParseError {
                            line: line_no,
                            message: format!("end time {time} precedes last event at {last}"),
                        });
                    }
                }
                summary.end_time = Some(time);
                last_time = Some(time);
            }
            Some(TraceLine::Event { time, name, .. }) => {
                if let Some(last) = last_time {
                    if time < last {
                        return Err(TraceParseError {
                            line: line_no,
                            message: format!("timestamp {time} precedes previous event at {last}"),
                        });
                    }
                }
                last_time = Some(time);
                let Some(name) = voc.lookup_bytes(name.as_bytes()) else {
                    return Err(TraceParseError {
                        line: line_no,
                        message: format!("unknown event name `{name}`"),
                    });
                };
                out.push(TimedEvent::new(name, time));
            }
        }
    }
    Ok(summary)
}

/// [`decode_events_into`] with optional telemetry: lines, bytes, decode
/// nanoseconds (one histogram sample for the whole buffer) and parse
/// errors. The instrumentation wraps the undecorated decoder, so the
/// per-byte hot path is byte-for-byte the uninstrumented one.
///
/// # Errors
///
/// Identical to [`decode_events_into`].
pub fn decode_events_into_observed(
    bytes: &[u8],
    voc: &Vocabulary,
    out: &mut Vec<TimedEvent>,
    metrics: Option<&IoMetrics>,
) -> Result<DecodeSummary, TraceParseError> {
    let Some(m) = metrics else {
        return decode_events_into(bytes, voc, out);
    };
    let t0 = Instant::now();
    let result = decode_events_into(bytes, voc, out);
    m.decode_ns
        .record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
    m.bytes.add(bytes.len() as u64);
    match &result {
        Ok(summary) => m.lines.add(summary.lines),
        Err(e) => {
            m.lines.add(e.line as u64);
            m.parse_errors.inc();
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{read_trace, read_trace_observed};

    #[test]
    fn byte_lines_match_str_lines() {
        for text in [
            "",
            "\n",
            "a",
            "a\n",
            "a\nb",
            "a\r\nb\r\n",
            "a\r",
            "\r\n\r\n",
            "one\n\nthree\n",
        ] {
            let from_str: Vec<&str> = text.lines().collect();
            let from_bytes: Vec<&[u8]> = byte_lines(text.as_bytes()).collect();
            assert_eq!(
                from_bytes,
                from_str.iter().map(|s| s.as_bytes()).collect::<Vec<_>>(),
                "mismatch on {text:?}"
            );
        }
    }

    #[test]
    fn byte_lexer_matches_string_parser_on_samples() {
        for line in [
            "10ns in set_imgAddr",
            "  12us  out  irq  ",
            "end 500ns",
            "# comment",
            "",
            "   ",
            "10ns sideways x",
            "banana in x",
            "10ns in",
            "10ns in x junk",
            "end",
            "end 5ns junk",
            "10ns",
            "\u{a0}10ns in x", // non-ASCII whitespace: falls back to str parser
            "10ns in caf\u{e9}",
        ] {
            let from_str = parse_trace_line(line);
            let from_bytes = parse_trace_line_bytes(line.as_bytes());
            assert_eq!(from_str, from_bytes, "mismatch on {line:?}");
        }
    }

    #[test]
    fn invalid_utf8_is_rejected_not_panicked() {
        let err = parse_trace_line_bytes(b"10ns in caf\xff").unwrap_err();
        assert!(err.contains("UTF-8"), "unexpected error: {err}");
    }

    #[test]
    fn read_trace_bytes_equals_read_trace() {
        let text = "# header\n10ns in a\n12ns out b\n\n20ns in a\nend 100ns\n";
        let mut voc_str = Vocabulary::new();
        let from_str = read_trace(text, &mut voc_str).expect("parses");
        let mut voc_bytes = Vocabulary::new();
        let from_bytes = read_trace_bytes(text.as_bytes(), &mut voc_bytes).expect("parses");
        assert_eq!(from_str, from_bytes);
        assert_eq!(voc_str.len(), voc_bytes.len());
        for name in voc_str.iter() {
            assert_eq!(voc_str.resolve(name), voc_bytes.resolve(name));
            assert_eq!(voc_str.direction(name), voc_bytes.direction(name));
        }
    }

    #[test]
    fn read_trace_bytes_reports_identical_errors() {
        for text in [
            "10ns in a\n5ns in b\n",
            "10ns sideways a\n",
            "banana in a\n",
            "end\n",
            "10ns in a\nend 5ns\n",
            "end 100ns\n10ns in a\n",
        ] {
            let mut voc_str = Vocabulary::new();
            let from_str = read_trace(text, &mut voc_str).unwrap_err();
            let mut voc_bytes = Vocabulary::new();
            let from_bytes = read_trace_bytes(text.as_bytes(), &mut voc_bytes).unwrap_err();
            assert_eq!(from_str, from_bytes, "mismatch on {text:?}");
        }
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

    #[test]
    fn observed_variants_count_like_the_string_reader() {
        let registry = lomon_obs::Registry::new();
        let metrics = IoMetrics::register(&registry);
        let text = "# comment\n10ns in a\nend 20ns\n";
        let mut voc = Vocabulary::new();
        read_trace_bytes_observed(text.as_bytes(), &mut voc, Some(&metrics)).expect("parses");
        assert_eq!(metrics.lines.get(), 3);
        assert_eq!(metrics.bytes.get(), text.len() as u64);
        assert_eq!(metrics.parse_errors.get(), 0);
        assert_eq!(metrics.decode_ns.count(), 1);

        // The string reader counts the same families the same way.
        let registry2 = lomon_obs::Registry::new();
        let metrics2 = IoMetrics::register(&registry2);
        let mut voc2 = Vocabulary::new();
        read_trace_observed(text, &mut voc2, Some(&metrics2)).expect("parses");
        assert_eq!(metrics2.lines.get(), metrics.lines.get());
        assert_eq!(metrics2.bytes.get(), metrics.bytes.get());
        assert_eq!(metrics2.decode_ns.count(), 1);

        read_trace_bytes_observed(b"10ns sideways a\n", &mut voc, Some(&metrics)).unwrap_err();
        assert_eq!(metrics.parse_errors.get(), 1);

        let mut buf = Vec::new();
        decode_events_into_observed(text.as_bytes(), &voc, &mut buf, Some(&metrics))
            .expect("decodes");
        assert_eq!(metrics.decode_ns.count(), 3);
        decode_events_into_observed(b"zzz\n", &voc, &mut buf, Some(&metrics)).unwrap_err();
        assert_eq!(metrics.parse_errors.get(), 2);
    }
}
