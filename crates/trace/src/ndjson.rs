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
//! on the rest; the engine's stream driver lexes whole runs of regular
//! lines and hands it every other line. The lexers only ever accept: a
//! line they take reads to the same event under the full grammar, which
//! alone decides and words faults.
//!
//! The NDJSON lexer takes only the regular event object — a flat object
//! of ASCII bytes whose keys are `time`, `dir` and `name`, each at most
//! once, with no escape, a `time` of digits plus a unit, a `dir` of `in`
//! or `out` if present, a non-empty `name`, and only ASCII whitespace —
//! and borrows the name straight from the frame, with no UTF-8 pass over
//! the line. Every other line (an `end` marker, an escape, an unknown or
//! repeated key, non-ASCII bytes, any malformed field) goes to the
//! `char`-wise scanner. The differential suite in `tests/differential.rs`
//! pins both formats' pairs against the string parser and the retired
//! char-iterator NDJSON parser.

use std::borrow::Cow;

use crate::frame::find_newline;
use crate::io::parse_trace_line;
use crate::name::Direction;
use crate::time::{parse_sim_time, SimTime};
use crate::wire::{ascii_str, is_ascii_space, lex_time, lex_trace_event};

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
/// NDJSON the object described in the module docs. The line ends at its
/// first `\n` or at the end of `bytes`. Every other line gets `None` —
/// blank, comment, `end` marker, non-ASCII, anything malformed or
/// irregular — and is the format's full grammar's to decide, which reads
/// a line this lexer takes to the same event. This is the one lexer of
/// regular lines, shared by every reader of the format.
#[inline]
pub fn lex_regular_event(format: StreamFormat, bytes: &[u8]) -> Option<RegularEvent<'_>> {
    match format {
        StreamFormat::Trace => lex_trace_event(bytes),
        StreamFormat::Ndjson => {
            let line = find_newline(bytes).map_or(bytes, |nl| &bytes[..nl]);
            // A trailing `\r` is whitespace after the object, so the fast
            // path reads a CRLF line as the framed line without it.
            let event = parse_plain_event(line)?;
            Some(RegularEvent {
                len: (line.len() + 1).min(bytes.len()),
                ..event
            })
        }
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
    match parse_plain_event(line.as_bytes()) {
        Some(event) => Ok(Some(event.into())),
        None => scan_ndjson_line(line),
    }
}

/// The NDJSON fast path: the regular event object that is all of `raw`,
/// decoded in one pass over its bytes, or `None` for every other line
/// (see the module docs). It only ever accepts: a line it takes parses to
/// the same event under [`scan_ndjson_line`], and it never produces an
/// error.
fn parse_plain_event(raw: &[u8]) -> Option<RegularEvent<'_>> {
    let mut cur = PlainCursor { raw, pos: 0 };
    cur.eat(b'{')?;
    let (mut time, mut dir, mut name) = (None, None, None);
    loop {
        let key = cur.string()?;
        cur.eat(b':')?;
        let value = cur.string()?;
        let slot = match key {
            b"time" => &mut time,
            b"dir" => &mut dir,
            b"name" => &mut name,
            _ => return None,
        };
        if slot.replace(value).is_some() {
            return None;
        }
        match cur.token()? {
            b',' => {}
            b'}' => break,
            _ => return None,
        }
    }
    cur.skip_ws();
    if cur.pos != raw.len() {
        return None;
    }
    // The value must be all one time literal, which `parse_sim_time` reads
    // to the same time.
    let text = time?;
    let (time, _) = lex_time(text).filter(|&(_, len)| len == text.len())?;
    let direction = match dir {
        None | Some(b"in") => Direction::Input,
        Some(b"out") => Direction::Output,
        Some(_) => return None,
    };
    Some(RegularEvent {
        time,
        direction,
        name: name.filter(|name| !name.is_empty())?,
        len: raw.len(),
    })
}

/// Byte cursor of [`parse_plain_event`]. Each method skips the ASCII
/// whitespace before its token — where the scanner skips `char`
/// whitespace, which on ASCII bytes is the same set — and gives `None`
/// wherever the line stops looking like the regular event object.
struct PlainCursor<'a> {
    raw: &'a [u8],
    pos: usize,
}

impl<'a> PlainCursor<'a> {
    fn skip_ws(&mut self) {
        while self.raw.get(self.pos).copied().is_some_and(is_ascii_space) {
            self.pos += 1;
        }
    }

    fn token(&mut self) -> Option<u8> {
        self.skip_ws();
        let byte = *self.raw.get(self.pos)?;
        self.pos += 1;
        Some(byte)
    }

    fn eat(&mut self, expected: u8) -> Option<()> {
        (self.token()? == expected).then_some(())
    }

    /// A string literal of ASCII bytes with no escape, without its quotes.
    fn string(&mut self) -> Option<&'a [u8]> {
        self.eat(b'"')?;
        let rest = &self.raw[self.pos..];
        let len = rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || !b.is_ascii())?;
        if rest[len] != b'"' {
            return None;
        }
        self.pos += len + 1;
        Some(&rest[..len])
    }
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
            other => return Err(format!("unsupported escape `\\{other:?}`")),
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
        assert!(error(r#"{"time": "1ns", "name": "\q"}"#).contains("unsupported escape"));
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
            let fast = parse_plain_event(line.as_bytes()).map(StreamLineRef::from);
            assert!(fast.is_some(), "fast path refused {line:?}");
            assert_eq!(fast, scan_ndjson_line(line).expect("scans"), "{line:?}");
        }
        // Everything else is the scanner's, whatever its verdict.
        for line in [
            r#"{"end": "1us"}"#,
            r#"{"time": "1ns", "name": "a\"b"}"#,
            r#"{"time": "1ns", "name": "x", "name": "x"}"#,
            r#"{"time": "1ns", "name": "x", "seq": "7"}"#,
            r#"{"time": "25 us", "name": "x"}"#,
            r#"{"time": "1ns", "dir": "IN", "name": "x"}"#,
            r#"{"time": "1ns", "name": ""}"#,
            "{\"time\": \"1ns\", \"name\": \"caf\u{e9}\"}",
            "\u{a0}{\"time\": \"1ns\", \"name\": \"x\"}",
            "\x1c{\"time\": \"1ns\", \"name\": \"x\"}",
            "{}",
            "",
        ] {
            assert_eq!(parse_plain_event(line.as_bytes()), None, "{line:?}");
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
