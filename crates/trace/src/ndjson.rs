//! The streaming event-line grammar shared by `lomon check`, `lomon
//! watch` and `lomon serve`.
//!
//! Every stream surface accepts the same two line formats —
//!
//! * the trace text format, `<time> <in|out> <name>` with an optional
//!   `end <time>` marker, whose full grammar is
//!   [`parse_trace_line`]; and
//! * NDJSON: one flat JSON object per line,
//!   `{"time": "10ns", "dir": "in", "name": "x"}` or `{"end": "500ns"}`
//!
//! — and parse them into the same [`StreamLineRef`] with
//! [`parse_stream_line_bytes`]. Keeping the grammar here (rather than in
//! the CLI binary) is what guarantees a frame that `watch` accepts is
//! byte-for-byte a frame `serve` accepts.
//!
//! Each format has one fast lexer for its regular event line,
//! [`lex_regular_event`], and one full grammar for every other line.
//! [`parse_stream_line_bytes`] tries the lexer first and runs the grammar
//! on the rest; the one trace reader ([`crate::reader`]) lexes whole runs
//! of regular lines and hands it every other line. The lexers only ever
//! accept: a line they take reads to the same event under the full
//! grammar, which alone decides and words grammar faults.
//!
//! The NDJSON lexer takes only the regular event object — a flat object
//! of ASCII bytes whose keys are `time`, `dir` and `name`, each at most
//! once, with no escape, a `time` of digits plus a unit, a `dir` of `in`
//! or `out` if present, a non-empty `name`, and only ASCII whitespace —
//! in one pass up to the `\n` that ends it, as the trace-text lexer does:
//! no newline pre-scan, no copied strings. It matches each key as fixed
//! bytes, reads the time in place and borrows the name straight from the
//! frame, with no UTF-8 pass over the line. Every other line (an `end`
//! marker, an escape, an unknown or repeated key, non-ASCII bytes, an
//! object torn across lines, any malformed field) goes to the `char`-wise
//! scanner. The differential suite in `tests/differential.rs` pins both
//! formats' pairs against the string parser, the retired char-iterator
//! NDJSON parser and the retired NDJSON lexer.

use std::borrow::Cow;

use crate::io::parse_trace_line;
use crate::name::Direction;
use crate::time::{parse_sim_time, SimTime};
use crate::wire::{ascii_str, lex_time, lex_trace_event, skip_blanks};

/// Input format of an event stream.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StreamFormat {
    /// The trace text format: `<time> <in|out> <name>`, optional `end <t>`.
    Trace,
    /// One flat JSON object per line:
    /// `{"time": "10ns", "dir": "in", "name": "x"}` or `{"end": "500ns"}`.
    Ndjson,
}

/// One parsed stream line with the name **borrowed** from the input
/// buffer whenever possible (it goes owned only when a JSON escape forced
/// a copy): the next step is a byte-keyed vocabulary probe, not an
/// allocation.
#[derive(Debug, PartialEq, Eq)]
pub enum StreamLineRef<'a> {
    /// An interface event.
    Event {
        /// Timestamp of the occurrence.
        time: SimTime,
        /// Interface direction the name would be interned with.
        direction: Direction,
        /// The interface name, borrowed from the line unless a JSON
        /// escape forced an owned copy.
        name: Cow<'a, str>,
    },
    /// An `end`/`{"end": …}` marker: observation time advanced with no
    /// event.
    End(SimTime),
}

impl<'a> From<RegularEvent<'a>> for StreamLineRef<'a> {
    fn from(event: RegularEvent<'a>) -> Self {
        StreamLineRef::Event {
            time: event.time,
            direction: event.direction,
            name: Cow::Borrowed(ascii_str(event.name)),
        }
    }
}

/// Parse one stream line in the given format from a raw frame. `Ok(None)`
/// is a blank line or comment — skippable, not an error. A line the
/// format's fast lexer takes whole needs no UTF-8 pass; any other line is
/// validated as UTF-8 once and parsed by the format's full grammar,
/// borrowing from the frame.
///
/// # Errors
///
/// A human-readable description of the first grammar fault on the line,
/// or `line is not valid UTF-8` on non-UTF-8 input.
pub fn parse_stream_line_bytes(
    format: StreamFormat,
    raw: &[u8],
) -> Result<Option<StreamLineRef<'_>>, String> {
    if let Some(event) = lex_regular_event(format, raw).filter(|event| event.len == raw.len()) {
        return Ok(Some(event.into()));
    }
    let line = std::str::from_utf8(raw).map_err(|_| "line is not valid UTF-8".to_owned())?;
    match format {
        StreamFormat::Trace => parse_trace_line(line),
        StreamFormat::Ndjson => scan_ndjson_line(line),
    }
}

/// A regular event line, lexed by [`lex_regular_event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegularEvent<'a> {
    /// Timestamp of the occurrence.
    pub time: SimTime,
    /// Interface direction the name would be interned with.
    pub direction: Direction,
    /// The interface name, borrowed from the line.
    pub name: &'a [u8],
    /// Bytes of the line, its `\n` included if it has one; never 0.
    pub len: usize,
}

/// The line at the head of `bytes`, if it is a regular event line of
/// `format`: in trace text an ASCII `<time> <in|out> <name>` line, in
/// NDJSON the object described in the module docs. Either lexer reads the
/// line in one pass, never past its first `\n`; the line ends there or at
/// the end of `bytes`. Every other line gets `None` — blank, comment,
/// `end` marker, non-ASCII, anything malformed or irregular — and is the
/// format's full grammar's to decide, which reads a line this lexer takes
/// to the same event. This is the one lexer of regular lines, shared by
/// every reader of the format.
#[inline]
pub fn lex_regular_event(format: StreamFormat, bytes: &[u8]) -> Option<RegularEvent<'_>> {
    match format {
        StreamFormat::Trace => lex_trace_event(bytes),
        StreamFormat::Ndjson => lex_ndjson_event(bytes),
    }
}

/// Parse one NDJSON stream line: a flat JSON object with string values,
/// either `{"time": …, "dir": …, "name": …}` (`dir` optional, default
/// `in`) or `{"end": …}`. The event name borrows from `line` unless a JSON
/// escape forced an owned copy.
///
/// # Errors
///
/// A human-readable description of the first grammar fault on the line.
pub fn parse_ndjson_line_ref(line: &str) -> Result<Option<StreamLineRef<'_>>, String> {
    parse_stream_line_bytes(StreamFormat::Ndjson, line.as_bytes())
}

/// The NDJSON fast lexer: the regular event object at the head of `bytes`
/// (see the module docs) in one pass over its bytes, or `None` for every
/// other line. Blanks stop at a `\n`, and a key, time or name that meets
/// one does not match, so the object ends on its own line; a `\r` before
/// the `\n` is a blank after the object. It only ever accepts: a line it
/// takes parses to the same event under [`scan_ndjson_line`], and it
/// never produces an error.
#[inline]
fn lex_ndjson_event(bytes: &[u8]) -> Option<RegularEvent<'_>> {
    let (mut time, mut direction, mut name) = (None, None, None);
    let mut i = skip_blanks(bytes, 0);
    if bytes.get(i) != Some(&b'{') {
        return None;
    }
    loop {
        i = skip_blanks(bytes, i + 1);
        let key = &bytes[i..];
        // Each key is matched with its quotes, and at most once: a repeated
        // key, like any other, is the scanner's. `i` ends at the value's
        // closing quote.
        if key.starts_with(b"\"time\"") && time.is_none() {
            i = value_start(bytes, i + 6)?;
            let (value, len) = lex_time(&bytes[i..])?;
            time = Some(value);
            i += len;
        } else if key.starts_with(b"\"name\"") && name.is_none() {
            i = value_start(bytes, i + 6)?;
            let len = bytes[i..]
                .iter()
                .position(|&b| matches!(b, b'"' | b'\\' | b'\n') || !b.is_ascii())
                .filter(|&len| len > 0)?;
            name = Some(&bytes[i..i + len]);
            i += len;
        } else if key.starts_with(b"\"dir\"") && direction.is_none() {
            i = value_start(bytes, i + 5)?;
            let (value, len) = match &bytes[i..] {
                [b'i', b'n', ..] => (Direction::Input, 2),
                [b'o', b'u', b't', ..] => (Direction::Output, 3),
                _ => return None,
            };
            direction = Some(value);
            i += len;
        } else {
            return None;
        }
        if bytes.get(i) != Some(&b'"') {
            return None;
        }
        i = skip_blanks(bytes, i + 1);
        match bytes.get(i) {
            Some(b',') => {}
            Some(b'}') => break,
            _ => return None,
        }
    }
    let end = skip_blanks(bytes, i + 1);
    if end < bytes.len() && bytes[end] != b'\n' {
        return None;
    }
    Some(RegularEvent {
        time: time?,
        direction: direction.unwrap_or(Direction::Input),
        name: name?,
        len: (end + 1).min(bytes.len()),
    })
}

/// The offset just past the `:` and the opening `"` of the value whose
/// key ends at `i`, blanks allowed around the `:`.
#[inline]
fn value_start(bytes: &[u8], i: usize) -> Option<usize> {
    let i = skip_blanks(bytes, i);
    if bytes.get(i) != Some(&b':') {
        return None;
    }
    let i = skip_blanks(bytes, i + 1);
    (bytes.get(i) == Some(&b'"')).then_some(i + 1)
}

/// The NDJSON grammar on `char`s: the whole object is scanned first (so
/// syntax faults anywhere on the line win over missing-field complaints),
/// keeping the first occurrence of each known key. Every field borrows
/// from `line` unless a JSON escape forced an owned copy.
fn scan_ndjson_line(line: &str) -> Result<Option<StreamLineRef<'_>>, String> {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    let mut end: Option<Cow<'_, str>> = None;
    let mut time_field: Option<Cow<'_, str>> = None;
    let mut dir: Option<Cow<'_, str>> = None;
    let mut name: Option<Cow<'_, str>> = None;
    scan_flat_json(trimmed, |key, value| {
        let slot = match key {
            "end" => &mut end,
            "time" => &mut time_field,
            "dir" => &mut dir,
            "name" => &mut name,
            _ => return,
        };
        if slot.is_none() {
            *slot = Some(value);
        }
    })?;
    if let Some(end) = end {
        return Ok(Some(StreamLineRef::End(parse_sim_time(&end)?)));
    }
    let time_text = time_field.ok_or("missing `time` field")?;
    let time = parse_sim_time(&time_text)?;
    let direction = match dir.as_deref() {
        None | Some("in") => Direction::Input,
        Some("out") => Direction::Output,
        Some(other) => {
            return Err(format!(
                "unknown direction `{other}` (expected `in` or `out`)"
            ))
        }
    };
    let name = name.ok_or("missing `name` field")?;
    if name.is_empty() {
        return Err("empty event name".into());
    }
    Ok(Some(StreamLineRef::Event {
        time,
        direction,
        name,
    }))
}

/// Minimal flat-JSON-object scanner: `{"key": "value", …}` with string
/// values only (`\"`, `\\`, `\n`, `\t` escapes), enough for an event
/// stream; a full JSON parser would be an external dependency. It walks
/// the object once, invoking `visit` for every key/value pair with the
/// value **borrowed** from `text` whenever it contains no escape.
fn scan_flat_json<'a>(
    text: &'a str,
    mut visit: impl FnMut(&str, Cow<'a, str>),
) -> Result<(), String> {
    let mut s = Scanner { text, pos: 0 };
    s.skip_ws();
    if s.next_char() != Some('{') {
        return Err("expected `{`".into());
    }
    s.skip_ws();
    if s.peek() == Some('}') {
        s.next_char();
    } else {
        loop {
            let key = s.string()?;
            s.skip_ws();
            if s.next_char() != Some(':') {
                return Err(format!("expected `:` after key `{key}`"));
            }
            let value = s.string()?;
            visit(&key, value);
            s.skip_ws();
            match s.next_char() {
                Some(',') => continue,
                Some('}') => break,
                _ => return Err("expected `,` or `}`".into()),
            }
        }
    }
    s.skip_ws();
    if s.next_char().is_some() {
        return Err("trailing characters after object".into());
    }
    Ok(())
}

/// Byte-offset cursor over `text`; `char`-aware where the grammar is
/// (whitespace, string contents) but able to hand back borrowed slices.
struct Scanner<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn peek(&self) -> Option<char> {
        self.text[self.pos..].chars().next()
    }

    fn next_char(&mut self) -> Option<char> {
        let c = self.text[self.pos..].chars().next()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.peek() {
            if !c.is_whitespace() {
                break;
            }
            self.pos += c.len_utf8();
        }
    }

    /// Parse a JSON string literal. Escape-free literals — every key and
    /// essentially every value of the event grammar — borrow straight
    /// from the input; the first escape falls back to an owned
    /// accumulator seeded with the literal prefix.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.skip_ws();
        if self.next_char() != Some('"') {
            return Err("expected `\"`".into());
        }
        let start = self.pos;
        loop {
            match self.next_char() {
                None => return Err("unterminated string".into()),
                Some('"') => return Ok(Cow::Borrowed(&self.text[start..self.pos - 1])),
                Some('\\') => {
                    let mut out = String::from(&self.text[start..self.pos - 1]);
                    self.push_escape(&mut out)?;
                    return self.string_rest(out).map(Cow::Owned);
                }
                Some(_) => {}
            }
        }
    }

    /// Continue a string after the borrowed fast path hit an escape.
    fn string_rest(&mut self, mut out: String) -> Result<String, String> {
        loop {
            match self.next_char() {
                None => return Err("unterminated string".into()),
                Some('"') => return Ok(out),
                Some('\\') => self.push_escape(&mut out)?,
                Some(c) => out.push(c),
            }
        }
    }

    fn push_escape(&mut self, out: &mut String) -> Result<(), String> {
        match self.next_char() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some(other) => return Err(format!("unsupported escape `\\{other}`")),
            None => return Err("unterminated string".into()),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ndjson_event_with_default_direction() {
        let line = r#"{"time": "10ns", "name": "set_imgAddr"}"#;
        let parsed = parse_ndjson_line_ref(line)
            .expect("parses")
            .expect("a line");
        assert_eq!(
            parsed,
            StreamLineRef::Event {
                time: SimTime::from_ns(10),
                direction: Direction::Input,
                name: "set_imgAddr".into(),
            }
        );
    }

    #[test]
    fn ndjson_end_marker() {
        let parsed = parse_ndjson_line_ref(r#"{"end": "500ns"}"#).expect("parses");
        assert_eq!(parsed, Some(StreamLineRef::End(SimTime::from_ns(500))));
    }

    #[test]
    fn blank_lines_are_skipped_in_both_formats() {
        for format in [StreamFormat::Trace, StreamFormat::Ndjson] {
            assert_eq!(parse_stream_line_bytes(format, b"   "), Ok(None));
        }
        assert_eq!(
            parse_stream_line_bytes(StreamFormat::Trace, b"# comment"),
            Ok(None)
        );
    }

    #[test]
    fn faults_name_the_problem() {
        assert!(parse_ndjson_line_ref(r#"{"time": "10ns"}"#)
            .unwrap_err()
            .contains("name"));
        assert!(
            parse_ndjson_line_ref(r#"{"time": "10ns", "dir": "sideways", "name": "x"}"#)
                .unwrap_err()
                .contains("sideways")
        );
        assert!(parse_ndjson_line_ref("not json").is_err());
        assert!(parse_ndjson_line_ref(r#"{"time": "10ns", "name": ""}"#).is_err());
        assert!(parse_stream_line_bytes(StreamFormat::Trace, b"10ns sideways x").is_err());
    }

    #[test]
    fn ref_parser_borrows_unless_escaped() {
        let line = r#"{"time": "10ns", "dir": "out", "name": "set_irq"}"#;
        let parsed = parse_ndjson_line_ref(line).expect("parses").expect("line");
        match &parsed {
            StreamLineRef::Event { name, .. } => {
                assert!(matches!(name, Cow::Borrowed(_)), "no escape → borrowed");
                assert_eq!(name.as_ref(), "set_irq");
            }
            StreamLineRef::End(_) => panic!("expected event"),
        }

        let escaped = r#"{"time": "10ns", "name": "a\"b"}"#;
        let parsed = parse_ndjson_line_ref(escaped)
            .expect("parses")
            .expect("line");
        match &parsed {
            StreamLineRef::Event { name, .. } => {
                assert!(matches!(name, Cow::Owned(_)), "escape → owned");
                assert_eq!(name.as_ref(), "a\"b");
            }
            StreamLineRef::End(_) => panic!("expected event"),
        }
    }

    #[test]
    fn flat_json_handles_escapes_and_duplicates_like_before() {
        let event = |name: &str| {
            Ok(Some(StreamLineRef::Event {
                time: SimTime::from_ns(1),
                direction: Direction::Input,
                name: Cow::Owned(name.to_owned()),
            }))
        };
        assert_eq!(
            parse_ndjson_line_ref(r#"{"time": "1ns", "name": "a\\b\n\t\""}"#),
            event("a\\b\n\t\"")
        );
        // First occurrence wins.
        assert_eq!(
            parse_ndjson_line_ref(r#"{"time": "1ns", "name": "x", "name": "y"}"#),
            event("x")
        );
        let error = |line: &str| parse_ndjson_line_ref(line).unwrap_err();
        assert_eq!(
            error(r#"{"time": "1ns", "name": "\u0041"}"#),
            "unsupported escape `\\u`"
        );
        assert_eq!(
            error(r#"{"time": "1ns", "name": "x\"#),
            "unterminated string"
        );
        assert!(error(r#"{"time": "1ns", "name": "open"#).contains("unterminated"));
        assert!(error(r#"{"time" "1ns"}"#).contains("expected `:` after key `time`"));
        assert!(error(r#"{} trailing"#).contains("trailing characters"));
        assert_eq!(error("{}"), "missing `time` field");
    }

    #[test]
    fn fast_path_takes_every_shape_the_repo_emits() {
        for line in [
            // The benchmark's and the serve load generator's events.
            r#"{"time": "10ns", "name": "set_imgAddr"}"#,
            r#"{"time": "10ns", "dir": "out", "name": "done"}"#,
            // The serve chaos suite's and the README's.
            r#"{"time": "10ns", "dir": "in", "name": "go"}"#,
            r#"{"time": "20ns", "name": "start"}"#,
            // Compact, reordered and padded objects.
            r#"{"time":"1ns","name":"x"}"#,
            r#"{"dir": "out", "name": "irq", "time": "5us"}"#,
            " \t{ \"time\" : \"007ps\" , \"name\" : \"a b\" }\r\x0b\x0c",
        ] {
            let fast = lex_ndjson_event(line.as_bytes());
            assert_eq!(fast.map(|event| event.len), Some(line.len()), "{line:?}");
            assert_eq!(
                fast.map(StreamLineRef::from),
                scan_ndjson_line(line).expect("scans"),
                "{line:?}"
            );
            // The line ends at its `\n`, whatever follows.
            for next in ["", "{}", "\n"] {
                let bytes = format!("{line}\n{next}");
                let event = lex_ndjson_event(bytes.as_bytes());
                assert_eq!(event.map(|event| event.len), Some(line.len() + 1));
            }
        }
        // Everything else is the scanner's, whatever its verdict.
        for line in [
            r#"{"end": "1us"}"#,
            r#"{"time": "1ns", "name": "a\"b"}"#,
            r#"{"time": "1ns", "name": "x", "name": "x"}"#,
            r#"{"time": "1ns", "name": "x", "seq": "7"}"#,
            r#"{"time": "25 us", "name": "x"}"#,
            r#"{"time": "25US", "name": "x"}"#,
            r#"{"time": "1ns", "dir": "IN", "name": "x"}"#,
            r#"{"time": "1ns", "name": ""}"#,
            "{\"time\": \"1ns\", \"name\": \"caf\u{e9}\"}",
            "\u{a0}{\"time\": \"1ns\", \"name\": \"x\"}",
            "\x1c{\"time\": \"1ns\", \"name\": \"x\"}",
            "{}",
            "",
            // Objects torn across two lines: at a `\n` between tokens and
            // inside each kind of string.
            "{\"time\": \"1ns\",\n\"name\": \"x\"}",
            "{\"time\": \"1ns\", \"name\": \"x\"\n}",
            "{\"time\": \"1ns\", \"name\": \"x\n\"}",
            "{\"time\": \"1ns\n\", \"name\": \"x\"}",
            "{\"ti\nme\": \"1ns\", \"name\": \"x\"}",
            // Trailing bytes after the object.
            "{\"time\": \"1ns\", \"name\": \"x\"}{\"time\": \"2ns\", \"name\": \"y\"}",
            "{\"time\": \"1ns\", \"name\": \"x\"},",
        ] {
            assert_eq!(lex_ndjson_event(line.as_bytes()), None, "{line:?}");
        }
    }

    #[test]
    fn byte_stream_line_matches_str_variant() {
        for line in [
            r#"{"time": "10ns", "name": "done"}"#,
            r#"{"end": "5us"}"#,
            "not json",
        ] {
            let from_str = parse_ndjson_line_ref(line);
            let from_bytes = parse_stream_line_bytes(StreamFormat::Ndjson, line.as_bytes());
            assert_eq!(from_str, from_bytes, "mismatch on {line:?}");
        }
        assert_eq!(
            parse_stream_line_bytes(StreamFormat::Trace, b"end 5us"),
            Ok(Some(StreamLineRef::End(SimTime::from_us(5))))
        );
        assert!(
            parse_stream_line_bytes(StreamFormat::Ndjson, b"{\"name\": \"a\xff\"}")
                .unwrap_err()
                .contains("UTF-8")
        );
    }

    #[test]
    fn trace_and_ndjson_agree_on_the_same_event() {
        let a = parse_stream_line_bytes(StreamFormat::Trace, b"10ns out done").unwrap();
        let b = parse_stream_line_bytes(
            StreamFormat::Ndjson,
            br#"{"time": "10ns", "dir": "out", "name": "done"}"#,
        )
        .unwrap();
        assert_eq!(a, b);
    }
}
