//! The streaming event-line grammar shared by `lomon watch` and
//! `lomon serve`.
//!
//! Both stream surfaces accept the same two line formats —
//!
//! * the trace text format, `<time> <in|out> <name>` with an optional
//!   `end <time>` marker (one source of truth with
//!   [`read_trace`](crate::read_trace), via
//!   [`parse_trace_line`](crate::parse_trace_line)); and
//! * NDJSON: one flat JSON object per line,
//!   `{"time": "10ns", "dir": "in", "name": "x"}` or `{"end": "500ns"}`
//!
//! — and parse them into the same [`StreamLine`]. Keeping the grammar
//! here (rather than in the CLI binary) is what guarantees a frame that
//! `watch` accepts is byte-for-byte a frame `serve` accepts.

use std::borrow::Cow;

use crate::name::Direction;
use crate::time::{parse_sim_time, SimTime};

/// Input format of an event stream.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StreamFormat {
    /// The trace text format: `<time> <in|out> <name>`, optional `end <t>`.
    Trace,
    /// One flat JSON object per line:
    /// `{"time": "10ns", "dir": "in", "name": "x"}` or `{"end": "500ns"}`.
    Ndjson,
}

/// One parsed stream line.
#[derive(Debug, PartialEq, Eq)]
pub enum StreamLine {
    /// An interface event.
    Event {
        /// Timestamp of the occurrence.
        time: SimTime,
        /// Interface direction the name will be interned with.
        direction: Direction,
        /// The interface name, still raw text (interning needs a mutable
        /// vocabulary the parser does not have).
        name: String,
    },
    /// An `end`/`{"end": …}` marker: observation time advanced with no
    /// event.
    End(SimTime),
}

/// One parsed stream line with the name **borrowed** from the input
/// buffer whenever possible (it goes owned only when a JSON escape forced
/// a copy). This is the zero-copy twin of [`StreamLine`], used by the
/// wire-speed paths in `lomon watch` and `lomon serve` where the next
/// step is a byte-keyed vocabulary probe, not an allocation.
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

impl StreamLineRef<'_> {
    /// Convert to the owned [`StreamLine`], copying the name.
    pub fn into_owned(self) -> StreamLine {
        match self {
            StreamLineRef::Event {
                time,
                direction,
                name,
            } => StreamLine::Event {
                time,
                direction,
                name: name.into_owned(),
            },
            StreamLineRef::End(time) => StreamLine::End(time),
        }
    }
}

/// Parse one stream line in the given format. `Ok(None)` is a blank line
/// or comment — skippable, not an error.
///
/// # Errors
///
/// A human-readable description of the first grammar fault on the line.
pub fn parse_stream_line(format: StreamFormat, line: &str) -> Result<Option<StreamLine>, String> {
    Ok(parse_stream_line_ref(format, line)?.map(StreamLineRef::into_owned))
}

/// Zero-copy variant of [`parse_stream_line`]: the event name borrows
/// from `line` (owned only when a JSON escape forced a copy). Grammar and
/// error text are identical — [`parse_stream_line`] is this plus
/// [`StreamLineRef::into_owned`].
///
/// # Errors
///
/// See [`parse_stream_line`].
pub fn parse_stream_line_ref(
    format: StreamFormat,
    line: &str,
) -> Result<Option<StreamLineRef<'_>>, String> {
    match format {
        StreamFormat::Trace => Ok(
            crate::io::parse_trace_line(line)?.map(|parsed| match parsed {
                crate::io::TraceLine::Event {
                    time,
                    direction,
                    name,
                } => StreamLineRef::Event {
                    time,
                    direction,
                    name: Cow::Borrowed(name),
                },
                crate::io::TraceLine::End(time) => StreamLineRef::End(time),
            }),
        ),
        StreamFormat::Ndjson => parse_ndjson_line_ref(line),
    }
}

/// Byte-slice variant of [`parse_stream_line_ref`] for decoders that hold
/// raw frames: the trace text grammar is lexed directly from bytes (via
/// [`parse_trace_line_bytes`](crate::parse_trace_line_bytes)); NDJSON is
/// validated as UTF-8 once and then parsed borrowing from the frame.
///
/// # Errors
///
/// See [`parse_stream_line`]; additionally `line is not valid UTF-8` on
/// non-UTF-8 input.
pub fn parse_stream_line_bytes(
    format: StreamFormat,
    raw: &[u8],
) -> Result<Option<StreamLineRef<'_>>, String> {
    match format {
        StreamFormat::Trace => {
            Ok(
                crate::wire::parse_trace_line_bytes(raw)?.map(|parsed| match parsed {
                    crate::io::TraceLine::Event {
                        time,
                        direction,
                        name,
                    } => StreamLineRef::Event {
                        time,
                        direction,
                        name: Cow::Borrowed(name),
                    },
                    crate::io::TraceLine::End(time) => StreamLineRef::End(time),
                }),
            )
        }
        StreamFormat::Ndjson => match std::str::from_utf8(raw) {
            Ok(line) => parse_ndjson_line_ref(line),
            Err(_) => Err("line is not valid UTF-8".into()),
        },
    }
}

/// Parse one NDJSON stream line: a flat JSON object with string values,
/// either `{"time": …, "dir": …, "name": …}` (`dir` optional, default
/// `in`) or `{"end": …}`.
///
/// # Errors
///
/// See [`parse_stream_line`].
pub fn parse_ndjson_line(line: &str) -> Result<Option<StreamLine>, String> {
    Ok(parse_ndjson_line_ref(line)?.map(StreamLineRef::into_owned))
}

/// Zero-copy variant of [`parse_ndjson_line`]: the object is scanned in
/// place and only the fields the event grammar cares about are kept, each
/// borrowed from `line` unless a JSON escape forced an owned copy. No
/// per-field `String`s, no intermediate pair list.
///
/// # Errors
///
/// See [`parse_stream_line`].
pub fn parse_ndjson_line_ref(line: &str) -> Result<Option<StreamLineRef<'_>>, String> {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    // Scan the whole object first (so syntax faults anywhere on the line
    // win over missing-field complaints, exactly like the pair-list
    // parser did), keeping the first occurrence of each known key.
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

/// Minimal flat-JSON-object parser: `{"key": "value", …}` with string
/// values only (`\"`, `\\`, `\n`, `\t` escapes). Enough for an event
/// stream; a full JSON parser would be an external dependency.
///
/// # Errors
///
/// A human-readable description of the first syntax fault.
pub fn parse_flat_json(text: &str) -> Result<Vec<(String, String)>, String> {
    let mut pairs = Vec::new();
    scan_flat_json(text, |key, value| {
        pairs.push((key.to_owned(), value.into_owned()));
    })?;
    Ok(pairs)
}

/// Offset-tracking scanner behind [`parse_flat_json`] and
/// [`parse_ndjson_line_ref`]: walks the object once, invoking `visit` for
/// every key/value pair with the value **borrowed** from `text` whenever
/// it contains no escape. Keys of the event grammar are plain
/// identifiers, so in the steady state nothing is copied.
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
        let parsed = parse_ndjson_line(line).expect("parses").expect("a line");
        assert_eq!(
            parsed,
            StreamLine::Event {
                time: SimTime::from_ns(10),
                direction: Direction::Input,
                name: "set_imgAddr".into(),
            }
        );
    }

    #[test]
    fn ndjson_end_marker() {
        let parsed = parse_ndjson_line(r#"{"end": "500ns"}"#).expect("parses");
        assert_eq!(parsed, Some(StreamLine::End(SimTime::from_ns(500))));
    }

    #[test]
    fn blank_lines_are_skipped_in_both_formats() {
        for format in [StreamFormat::Trace, StreamFormat::Ndjson] {
            assert_eq!(parse_stream_line(format, "   "), Ok(None));
        }
        assert_eq!(
            parse_stream_line(StreamFormat::Trace, "# comment"),
            Ok(None)
        );
    }

    #[test]
    fn faults_name_the_problem() {
        assert!(parse_ndjson_line(r#"{"time": "10ns"}"#)
            .unwrap_err()
            .contains("name"));
        assert!(
            parse_ndjson_line(r#"{"time": "10ns", "dir": "sideways", "name": "x"}"#)
                .unwrap_err()
                .contains("sideways")
        );
        assert!(parse_ndjson_line("not json").is_err());
        assert!(parse_ndjson_line(r#"{"time": "10ns", "name": ""}"#).is_err());
        assert!(parse_stream_line(StreamFormat::Trace, "10ns sideways x").is_err());
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
        assert_eq!(
            parsed.into_owned(),
            parse_ndjson_line(line).unwrap().unwrap()
        );

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
        let pairs = parse_flat_json(r#"{"k": "a\\b\n\t\"", "k": "second"}"#).expect("parses");
        assert_eq!(
            pairs,
            vec![
                ("k".to_owned(), "a\\b\n\t\"".to_owned()),
                ("k".to_owned(), "second".to_owned()),
            ]
        );
        // First occurrence wins for the event grammar.
        let parsed = parse_ndjson_line(r#"{"time": "1ns", "name": "x", "name": "y"}"#).unwrap();
        assert_eq!(
            parsed,
            Some(StreamLine::Event {
                time: SimTime::from_ns(1),
                direction: Direction::Input,
                name: "x".into(),
            })
        );
        assert!(parse_flat_json(r#"{"k": "\q"}"#)
            .unwrap_err()
            .contains("unsupported escape"));
        assert!(parse_flat_json(r#"{"k": "open"#)
            .unwrap_err()
            .contains("unterminated"));
        assert!(parse_flat_json(r#"{"k" "v"}"#)
            .unwrap_err()
            .contains("expected `:` after key `k`"));
        assert!(parse_flat_json(r#"{} trailing"#)
            .unwrap_err()
            .contains("trailing characters"));
        assert_eq!(parse_flat_json("{}").expect("empty object"), vec![]);
    }

    #[test]
    fn byte_stream_line_matches_str_variant() {
        let cases: [(&str, StreamFormat); 4] = [
            ("10ns out done", StreamFormat::Trace),
            ("end 5us", StreamFormat::Trace),
            (r#"{"time": "10ns", "name": "done"}"#, StreamFormat::Ndjson),
            (r#"{"end": "5us"}"#, StreamFormat::Ndjson),
        ];
        for (line, format) in cases {
            let from_str = parse_stream_line_ref(format, line);
            let from_bytes = parse_stream_line_bytes(format, line.as_bytes());
            assert_eq!(from_str, from_bytes, "mismatch on {line:?}");
        }
        assert!(
            parse_stream_line_bytes(StreamFormat::Ndjson, b"{\"name\": \"a\xff\"}")
                .unwrap_err()
                .contains("UTF-8")
        );
    }

    #[test]
    fn trace_and_ndjson_agree_on_the_same_event() {
        let a = parse_stream_line(StreamFormat::Trace, "10ns out done").unwrap();
        let b = parse_stream_line(
            StreamFormat::Ndjson,
            r#"{"time": "10ns", "dir": "out", "name": "done"}"#,
        )
        .unwrap();
        assert_eq!(a, b);
    }
}
