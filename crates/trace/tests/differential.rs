//! Differential tests: the byte readers must be observably identical to
//! the string parsers — same events, same error messages, same 1-based
//! line numbers, same telemetry accounting — over random well-formed *and*
//! malformed traces.
//!
//! Every reader runs one fast lexer per format and, on each line it does
//! not take, that format's full grammar. The trace text pair is compared
//! against the full grammar itself ([`parse_trace_line`]) and the whole
//! buffer loop against the retired `&str` whole-file reader. The NDJSON
//! pair replaced the old char-iterator parser outright, and the NDJSON
//! lexer is held to the lexer it replaced, line for line. The retired
//! readers and that lexer are preserved here as reference oracles.

use std::borrow::Cow;

use proptest::prelude::*;

use lomon_trace::io::IoMetrics;
use lomon_trace::time::scale_time;
use lomon_trace::{
    lex_regular_event, parse_ndjson_line_ref, parse_stream_line_bytes, parse_trace_line,
    read_trace_bytes, read_trace_bytes_into, Direction, RegularEvent, SimTime, StreamFormat,
    StreamLineRef, Trace, TraceParseError, Vocabulary,
};

// ---------------------------------------------------------------------
// Random trace-text generation: a mix of valid events, comments, blanks,
// `end` markers, and every malformed shape the grammar can reject, with
// some Unicode whitespace/name seasoning so the lines the fast lexer
// leaves to the full grammar are exercised too.
// ---------------------------------------------------------------------

const TIMES: &[&str] = &[
    "10ns",
    "0ps",
    "5us",
    "3ms",
    "2s",
    "999ns",
    "banana",
    "12",
    "",
    "7 ns",
    "10xs",
    // One past the largest nanosecond count: its unit scaling overflows.
    "18446744073709552ns",
    "18446744073709551615ps",
    "007ns",
    "+5ns",
    "1 0ns",
    // Units are lower case.
    "10NS",
    "3Ms",
    // Twenty-one digits: one with leading zeros that still fits a `u64`,
    // one that does not.
    "000000000000000000042ns",
    "123456789012345678901ns",
];
const DIRS: &[&str] = &["in", "out", "sideways", "IN", ""];
const NAMES: &[&str] = &[
    "a",
    "start",
    "set_imgAddr",
    "caf\u{e9}",
    "\u{65e5}\u{672c}",
    "#hash",
    "end",
    "in",
];
const SPACES: &[&str] = &[" ", "  ", "\t", " \t ", "\u{a0}", "\u{2003}"];

fn pick<'a>(pool: &'a [&'a str], ix: u8) -> &'a str {
    pool[ix as usize % pool.len()]
}

/// Render one line from a small random tuple. `kind` selects the shape,
/// the other indices select the ingredients (many combinations are
/// malformed on purpose).
fn render_line(kind: u8, t: u8, d: u8, n: u8, s: u8) -> String {
    let sp = pick(SPACES, s);
    let time = pick(TIMES, t);
    let dir = pick(DIRS, d);
    let name = pick(NAMES, n);
    match kind % 10 {
        0..=2 => format!("{time}{sp}{dir}{sp}{name}"),
        3 => format!("end{sp}{time}"),
        4 => format!("#{sp}comment {time}"),
        5 => String::new(),
        6 => sp.to_string(),
        7 => format!("{time}{sp}{dir}{sp}{name}{sp}{time}"), // trailing junk
        8 => format!("{sp}{time}{sp}{dir}{sp}{name}{sp}"),   // padded
        _ => format!("{time}{sp}{dir}"),                     // missing name
    }
}

fn render_text(lines: &[(u8, u8, u8, u8, u8)], crlf: &[bool], trailing_newline: bool) -> String {
    let mut out = String::new();
    for (i, &(kind, t, d, n, s)) in lines.iter().enumerate() {
        out.push_str(&render_line(kind, t, d, n, s));
        if i + 1 < lines.len() || trailing_newline {
            out.push_str(if crlf[i % crlf.len().max(1)] {
                "\r\n"
            } else {
                "\n"
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// Random NDJSON generation.
// ---------------------------------------------------------------------

const JSON_NAMES: &[&str] = &[
    "x",
    "set_irq",
    r#"a\"b"#,
    r"tab\there",
    r"back\\slash",
    r"bad\qescape",
    "caf\u{e9}",
    "",
    // Raw control bytes and whitespace inside a name are name bytes.
    "nul\u{0}ctl\u{1f}",
    "raw\ttab",
    "a b",
    "del\u{7f}",
];

/// Whitespace and near-whitespace around NDJSON tokens: the ASCII bytes
/// `char::is_whitespace` accepts, the ASCII separators it does not
/// (`\x1c`–`\x1f`), and Unicode whitespace.
const JSON_SPACES: &[&str] = &[
    "", " ", "\t", "\x0b", "\x0c", "\r", "\x1c", "\x1d", "\x1e", "\x1f", "\u{85}", "\u{a0}",
    "\u{2003}",
];

fn render_json_line(kind: u8, t: u8, d: u8, n: u8, s: u8) -> String {
    let sp = pick(SPACES, s);
    let time = pick(TIMES, t);
    let dir = pick(DIRS, d);
    let name = pick(JSON_NAMES, n);
    // Two independent picks, so the two ends of a line and the two sides
    // of a token can differ.
    let (a, b) = (
        pick(JSON_SPACES, s),
        pick(JSON_SPACES, t.wrapping_add(s / 13)),
    );
    match kind % 28 {
        0 | 1 => format!(r#"{{"time": "{time}", "dir": "{dir}", "name": "{name}"}}"#),
        2 => format!(r#"{{"time":{sp}"{time}",{sp}"name":{sp}"{name}"}}"#),
        3 => format!(r#"{{"end": "{time}"}}"#),
        4 => format!(r#"{{"name": "{name}", "time": "{time}"}}"#),
        5 => format!(r#"{{"time": "{time}", "time": "{time}", "name": "{name}"}}"#),
        6 => format!(r#"{{"time" "{time}", "name": "{name}"}}"#), // missing colon
        7 => format!(r#"{{"time": "{time}", "name": "{name}""#),  // unterminated object
        8 => format!(r#"{{"time": "{time}"}}"#),                  // missing name
        9 => format!(r#"{{}}{sp}"#),
        10 => String::new(),
        11 => format!(r#"{{"time": "{time}", "name": "{name}"}} junk"#),
        12 => format!(r#"{{"dir": "{dir}", "time": "{time}", "name": "{name}"}}"#),
        13 => format!(r#"{{"time":"{time}","name":"{name}"}}"#),
        14 => format!(r#"{{"time": "{time}", "seq": "7", "name": "{name}"}}"#),
        15 => format!(r#"{{"time": "{time}", "dir": "{dir}", "dir": "out", "name": "{name}"}}"#),
        16 => format!(r#"{{"time": "{time}", "name": "{name}", "name": "y"}}"#),
        17 => format!(r#"{{"time": "{time}", "end": "{time}", "name": "{name}"}}"#),
        // Escapes in keys: none of the event keys needs one, so an
        // escaped key is always an unknown key.
        18 => format!(r#"{{"ti\tme": "{time}", "n\\ame": "{name}", "\"": "x"}}"#),
        // An escape in the time value.
        19 => format!(r#"{{"time": "{time}\n", "name": "{name}"}}"#),
        20 => format!(
            r#"{a}{{{b}"time"{a}:{b}"{time}"{a},{b}"dir"{a}:{b}"{dir}"{a},{b}"name"{a}:{b}"{name}"{a}}}{b}"#
        ),
        21 => format!(r#"{a}{{"time": "{time}", "name": "{name}"}}{b}"#),
        22 => format!("{{\"time\": \"{time}\", \"name\": \"{name}\"}}{a}\r"),
        23 => format!(r#"{{"time":"{time}","dir":"{dir}","name":"{name}"}}{a}"#),
        // Objects torn across two lines: a `\n` between tokens, or inside
        // a string.
        24 => format!("{{\"time\": \"{time}\",{a}\n{b}\"name\": \"{name}\"}}"),
        25 => format!("{{\"time\": \"{time}\", \"name\": \"{name}\"{a}\n}}"),
        26 => format!("{{\"time\": \"{time}\", \"name\": \"{name}\n{name}\"}}"),
        _ => format!("{{\"time\": \"{time}\n\", \"dir\": \"{dir}\", \"name\": \"{name}\"}}"),
    }
}

// ---------------------------------------------------------------------
// The retired `&str` whole-file reader, preserved (less its telemetry,
// and reading the grammar's `StreamLineRef`) as the reference oracle of
// `read_trace_bytes`.
// ---------------------------------------------------------------------

fn read_trace(text: &str, voc: &mut Vocabulary) -> Result<Trace, TraceParseError> {
    let mut trace = Trace::new();
    let mut last_time = None;
    for (idx, raw) in text.lines().enumerate() {
        let err = |message: String| TraceParseError {
            line: idx + 1,
            message,
        };
        read_one(raw, voc, &mut trace, &mut last_time, err)?;
    }
    Ok(trace)
}

fn read_one(
    raw: &str,
    voc: &mut Vocabulary,
    trace: &mut Trace,
    last_time: &mut Option<SimTime>,
    err: impl Fn(String) -> TraceParseError,
) -> Result<(), TraceParseError> {
    match parse_trace_line(raw).map_err(&err)? {
        None => {}
        Some(StreamLineRef::End(time)) => {
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
        Some(StreamLineRef::Event {
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
            let name = voc.intern(&name, direction);
            trace.push(name, time);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The legacy NDJSON parser, preserved verbatim as the reference oracle
// (it built the owned stream line; here that is a `StreamLineRef` with an
// owned name).
// ---------------------------------------------------------------------

fn legacy_parse_flat_json(text: &str) -> Result<Vec<(String, String)>, String> {
    let mut chars = text.chars().peekable();
    let mut pairs = Vec::new();

    fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
        while chars.next_if(|c| c.is_whitespace()).is_some() {}
    }
    fn string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<String, String> {
        skip_ws(chars);
        if chars.next() != Some('"') {
            return Err("expected `\"`".into());
        }
        let mut out = String::new();
        loop {
            match chars.next() {
                None => return Err("unterminated string".into()),
                Some('"') => return Ok(out),
                Some('\\') => match chars.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some(other) => return Err(format!("unsupported escape `\\{other}`")),
                    None => return Err("unterminated string".into()),
                },
                Some(c) => out.push(c),
            }
        }
    }

    skip_ws(&mut chars);
    if chars.next() != Some('{') {
        return Err("expected `{`".into());
    }
    skip_ws(&mut chars);
    if chars.peek() == Some(&'}') {
        chars.next();
    } else {
        loop {
            let key = string(&mut chars)?;
            skip_ws(&mut chars);
            if chars.next() != Some(':') {
                return Err(format!("expected `:` after key `{key}`"));
            }
            let value = string(&mut chars)?;
            pairs.push((key, value));
            skip_ws(&mut chars);
            match chars.next() {
                Some(',') => continue,
                Some('}') => break,
                _ => return Err("expected `,` or `}`".into()),
            }
        }
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err("trailing characters after object".into());
    }
    Ok(pairs)
}

fn legacy_parse_ndjson_line(line: &str) -> Result<Option<StreamLineRef<'static>>, String> {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    let pairs = legacy_parse_flat_json(trimmed)?;
    let field = |key: &str| -> Option<&str> {
        pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    };
    if let Some(end) = field("end") {
        return Ok(Some(StreamLineRef::End(lomon_trace::time::parse_sim_time(
            end,
        )?)));
    }
    let time_text = field("time").ok_or("missing `time` field")?;
    let time = lomon_trace::time::parse_sim_time(time_text)?;
    let direction = match field("dir") {
        None | Some("in") => Direction::Input,
        Some("out") => Direction::Output,
        Some(other) => {
            return Err(format!(
                "unknown direction `{other}` (expected `in` or `out`)"
            ))
        }
    };
    let name = field("name").ok_or("missing `name` field")?.to_owned();
    if name.is_empty() {
        return Err("empty event name".into());
    }
    Ok(Some(StreamLineRef::Event {
        time,
        direction,
        name: Cow::Owned(name),
    }))
}

// ---------------------------------------------------------------------
// The retired NDJSON lexer, preserved as the reference oracle of
// `lex_regular_event`'s NDJSON arm: it cut the line at its first `\n`,
// walked it with a cursor that copied each value out, and read the time
// from the copy. Its time literal is read here through `scale_time`, as
// the retired `lex_time` did, so the oracle shares no lexing with the
// library.
// ---------------------------------------------------------------------

fn retired_lex_ndjson(bytes: &[u8]) -> Option<RegularEvent<'_>> {
    let line = bytes
        .iter()
        .position(|&b| b == b'\n')
        .map_or(bytes, |nl| &bytes[..nl]);
    // A trailing `\r` is whitespace after the object, so the fast
    // path reads a CRLF line as the framed line without it.
    let event = parse_plain_event(line)?;
    Some(RegularEvent {
        len: (line.len() + 1).min(bytes.len()),
        ..event
    })
}

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
    // The value must be all one time literal: digits, then a unit.
    let text = time?;
    let split = text
        .iter()
        .position(|b| !b.is_ascii_digit())
        .unwrap_or(text.len());
    let digits = std::str::from_utf8(&text[..split]).ok()?;
    let time = scale_time(digits.parse().ok()?, &text[split..]).ok()?;
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
/// whitespace before its token and gives `None` wherever the line stops
/// looking like the regular event object.
struct PlainCursor<'a> {
    raw: &'a [u8],
    pos: usize,
}

impl<'a> PlainCursor<'a> {
    fn skip_ws(&mut self) {
        while self
            .raw
            .get(self.pos)
            .is_some_and(|&b| b == b' ' || (0x09..=0x0d).contains(&b))
        {
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

/// Valid event lines the byte mutations start from: the shapes the
/// workspace's own producers emit, compact and reordered.
const EVENT_LINES: &[&str] = &[
    r#"{"time": "10ns", "name": "set_imgAddr"}"#,
    r#"{"time": "30ns", "dir": "out", "name": "done"}"#,
    r#"{"time":"1ns","name":"x"}"#,
    r#"{"dir": "in", "name": "go", "time": "5us"}"#,
];

/// `EVENT_LINES[shape]` under `edits`, each an insertion, replacement or
/// removal of one byte at an offset.
fn mutated_line(shape: u8, edits: &[(u8, u16, u8)]) -> Vec<u8> {
    let mut line = EVENT_LINES[shape as usize % EVENT_LINES.len()]
        .as_bytes()
        .to_vec();
    for &(op, at, byte) in edits {
        let at = usize::from(at) % (line.len() + 1);
        match op {
            0 => line.insert(at, byte),
            1 if at < line.len() => line[at] = byte,
            _ if at < line.len() => {
                line.remove(at);
            }
            _ => line.push(byte),
        }
    }
    line
}

// ---------------------------------------------------------------------
// The differential properties.
// ---------------------------------------------------------------------

/// An out-of-range time literal is one error, worded identically, on
/// every reader: the string oracle and the byte file reader, the fused frozen
/// decoder and the NDJSON scanner. All of them share one checked unit
/// scaling, so the random comparisons below cannot catch a bug in the
/// scaling itself; `time.rs` tests it at every unit's boundary.
#[test]
fn out_of_range_time_literal_is_rejected_alike_everywhere() {
    let expected = "time literal `18446744073709552ns` is out of range";
    for text in ["18446744073709552ns in x\n", "end 18446744073709552ns\n"] {
        let mut voc = Vocabulary::new();
        let from_str = read_trace(text, &mut voc).unwrap_err();
        let from_bytes = read_trace_bytes(text.as_bytes(), &mut voc).unwrap_err();
        voc.intern("x", Direction::Input);
        let decoded =
            lomon_trace::decode_events_into(text.as_bytes(), &voc, &mut Vec::new()).unwrap_err();
        for error in [from_str, from_bytes, decoded] {
            assert_eq!(error.line, 1, "{text:?}");
            assert_eq!(error.message, expected, "{text:?}");
        }
    }
    for line in [
        r#"{"time": "18446744073709552ns", "name": "x"}"#,
        r#"{"end": "18446744073709552ns"}"#,
    ] {
        assert_eq!(
            parse_ndjson_line_ref(line),
            Err(expected.to_owned()),
            "{line}"
        );
        assert_eq!(legacy_parse_ndjson_line(line), Err(expected.to_owned()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// One line at a time: the stream driver's entry point (the fast lexer,
    /// else the full grammar) and the string parser agree on every parse,
    /// including the exact error message.
    #[test]
    fn trace_line_byte_lexer_matches_string_parser(
        kind in any::<u8>(), t in any::<u8>(), d in any::<u8>(), n in any::<u8>(),
        s in any::<u8>(),
    ) {
        let line = render_line(kind, t, d, n, s);
        let from_str = parse_trace_line(&line);
        let from_bytes = parse_stream_line_bytes(StreamFormat::Trace, line.as_bytes());
        prop_assert_eq!(from_str, from_bytes, "line {:?}", line);
    }

    /// Whole files: identical traces, identical vocabularies, identical
    /// `TraceParseError` (message and 1-based line number).
    #[test]
    fn whole_file_byte_reader_matches_string_reader(
        lines in prop::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 0..40),
        crlf in prop::collection::vec(any::<bool>(), 1..4),
        trailing_newline in any::<bool>(),
    ) {
        let text = render_text(&lines, &crlf, trailing_newline);
        let mut voc_str = Vocabulary::new();
        let from_str = read_trace(&text, &mut voc_str);
        let mut voc_bytes = Vocabulary::new();
        let from_bytes = read_trace_bytes(text.as_bytes(), &mut voc_bytes);
        prop_assert_eq!(&from_str, &from_bytes, "text {:?}", text);
        prop_assert_eq!(voc_str.len(), voc_bytes.len());
        for name in voc_str.iter() {
            prop_assert_eq!(voc_str.resolve(name), voc_bytes.resolve(name));
            prop_assert_eq!(voc_str.direction(name), voc_bytes.direction(name));
        }
    }

    /// Telemetry parity: the byte reader counts the lines, bytes and parse
    /// errors the string reader's telemetry counted — every line up to and
    /// including the first bad one, the whole buffer, one error — the
    /// numbers `watch`/`serve` summaries are built on.
    #[test]
    fn observed_readers_account_identically(
        lines in prop::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 0..30),
        crlf in prop::collection::vec(any::<bool>(), 1..4),
        trailing_newline in any::<bool>(),
    ) {
        let text = render_text(&lines, &crlf, trailing_newline);
        let oracle = read_trace(&text, &mut Vocabulary::new());
        let expected_lines = match &oracle {
            Ok(_) => text.lines().count(),
            Err(e) => e.line,
        } as u64;

        let registry = lomon_obs::Registry::new();
        let metrics = IoMetrics::register(&registry);
        let _ = read_trace_bytes_into(
            text.as_bytes(), &mut Vocabulary::new(), &mut Trace::new(), Some(&metrics));

        prop_assert_eq!(metrics.lines.get(), expected_lines, "text {:?}", text);
        prop_assert_eq!(metrics.bytes.get(), text.len() as u64, "text {:?}", text);
        prop_assert_eq!(
            metrics.parse_errors.get(), u64::from(oracle.is_err()), "text {:?}", text);
    }

    /// The fast lexer of regular lines, which every reader shares, takes
    /// every ASCII event line and nothing the string parser does not read
    /// to the same time, direction and name; the line it
    /// takes ends at its `\n`, whatever follows, or at the end of the
    /// bytes. In NDJSON it takes nothing the retired char-iterator parser
    /// does not read to the same event.
    #[test]
    fn regular_line_lexer_agrees_with_string_parser(
        kind in any::<u8>(), t in any::<u8>(), d in any::<u8>(), n in any::<u8>(),
        s in any::<u8>(), ending in 0u8..3,
    ) {
        for (format, line) in [
            (StreamFormat::Trace, render_line(kind, t, d, n, s)),
            (StreamFormat::Ndjson, render_json_line(kind, t, d, n, s)),
        ] {
            let ending = ["", "\n", "\r\n"][usize::from(ending)];
            let bytes = format!("{line}{ending}10ns in next\n");
            let bytes = if ending.is_empty() { line.as_bytes() } else { bytes.as_bytes() };
            let expected = match format {
                StreamFormat::Trace => parse_trace_line(&line),
                StreamFormat::Ndjson => legacy_parse_ndjson_line(&line),
            };
            let lexed = lex_regular_event(format, bytes);
            if format == StreamFormat::Trace && line.is_ascii() {
                let event = matches!(expected, Ok(Some(StreamLineRef::Event { .. })));
                prop_assert_eq!(lexed.is_some(), event, "line {:?}", line);
            }
            if let Some(lexed) = lexed {
                prop_assert_eq!(lexed.len, line.len() + ending.len(), "line {:?}", line);
                match expected {
                    Ok(Some(StreamLineRef::Event { time, direction, name })) => {
                        prop_assert_eq!(lexed.time, time, "line {:?}", line);
                        prop_assert_eq!(lexed.direction, direction, "line {:?}", line);
                        prop_assert_eq!(lexed.name, name.as_bytes(), "line {:?}", line);
                    }
                    other => prop_assert!(false, "lexed {:?}, parsed {:?}", line, other),
                }
            }
        }
    }

    /// The NDJSON decoders — the byte-level fast path, the borrowed
    /// scanner behind it, and the byte-slice entry point the stream driver
    /// calls — match the retired char-iterator parser on every line, valid
    /// or broken.
    #[test]
    fn ndjson_scanner_matches_legacy_parser(
        kind in any::<u8>(), t in any::<u8>(), d in any::<u8>(), n in any::<u8>(),
        s in any::<u8>(),
    ) {
        let line = render_json_line(kind, t, d, n, s);
        let legacy = legacy_parse_ndjson_line(&line);
        prop_assert_eq!(&legacy, &parse_ndjson_line_ref(&line), "line {:?}", line);
        let bytes = parse_stream_line_bytes(StreamFormat::Ndjson, line.as_bytes());
        prop_assert_eq!(&legacy, &bytes, "line {:?}", line);
    }

    /// Byte mutations of valid event lines, any byte value included: the
    /// byte-slice entry point either refuses the line as not UTF-8 or
    /// agrees with the legacy parser on it.
    #[test]
    fn mutated_ndjson_bytes_match_legacy_parser(
        shape in any::<u8>(),
        edits in prop::collection::vec((0u8..3, any::<u16>(), any::<u8>()), 1..5),
    ) {
        let line = mutated_line(shape, &edits);
        let expected = match std::str::from_utf8(&line) {
            Ok(text) => legacy_parse_ndjson_line(text),
            Err(_) => Err("line is not valid UTF-8".to_owned()),
        };
        let parsed = parse_stream_line_bytes(StreamFormat::Ndjson, &line);
        prop_assert_eq!(parsed, expected, "line {:?}", String::from_utf8_lossy(&line));
    }

    /// The NDJSON fast lexer takes exactly the lines the retired lexer
    /// took, to the same time, direction, name and length: every shape the
    /// renderer makes and byte mutations of valid lines, each followed by
    /// no line ending, `\n` or `\r\n`, and then by nothing, a regular line
    /// or the tail of a torn object.
    #[test]
    fn ndjson_lexer_takes_what_the_retired_lexer_took(
        kind in any::<u8>(), t in any::<u8>(), d in any::<u8>(), n in any::<u8>(),
        s in any::<u8>(), ending in 0usize..3, next in 0usize..3,
        shape in any::<u8>(),
        edits in prop::collection::vec((0u8..3, any::<u16>(), any::<u8>()), 1..5),
    ) {
        // A quarter of the edited bytes come from the object's syntax, line
        // breaks and upper-case unit letters.
        const SYNTAX: &[u8] = b"\n\r\t \"\\:,{}NSU";
        let syntax = |b: u8| if b >= 0xc0 { SYNTAX[usize::from(b) % SYNTAX.len()] } else { b };
        let edits: Vec<_> = edits.iter().map(|&(op, at, b)| (op, at, syntax(b))).collect();
        let ending: &[u8] = [&b""[..], b"\n", b"\r\n"][ending];
        let tail: &[u8] = [
            &b""[..],
            b"{\"time\": \"10ns\", \"name\": \"next\"}\n",
            b"\"name\": \"y\"}\n",
        ][next];
        let lines = [render_json_line(kind, t, d, n, s).into_bytes(), mutated_line(shape, &edits)];
        for line in lines {
            let bytes = [&line[..], ending, tail].concat();
            prop_assert_eq!(
                lex_regular_event(StreamFormat::Ndjson, &bytes),
                retired_lex_ndjson(&bytes),
                "bytes {:?}", String::from_utf8_lossy(&bytes)
            );
        }
    }

    /// The fused single-pass loop inside `decode_events_into` agrees with a
    /// straight per-line decode (`str::lines` and the full grammar,
    /// `parse_trace_line`) on arbitrary text — same events, same summary,
    /// same error message and line number. The vocabulary is seeded with
    /// only some of the names the generator emits, so the `unknown event
    /// name` path is exercised on both sides.
    #[test]
    fn fused_decode_matches_per_line_decode(
        lines in prop::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 0..40),
        crlf in prop::collection::vec(any::<bool>(), 1..4),
        trailing_newline in any::<bool>(),
    ) {
        let text = render_text(&lines, &crlf, trailing_newline);
        let mut voc = Vocabulary::new();
        for name in ["a", "start", "set_imgAddr", "caf\u{e9}", "end", "in"] {
            voc.intern(name, Direction::Input);
        }

        // Reference: a per-line loop over the full grammar alone.
        let mut reference = Vec::new();
        let mut ref_summary = lomon_trace::DecodeSummary::default();
        let mut ref_result = Ok(());
        let mut last_time: Option<SimTime> = None;
        for (idx, raw) in text.lines().enumerate() {
            ref_summary.lines += 1;
            let outcome = parse_trace_line(raw)
                .map_err(|message| lomon_trace::TraceParseError { line: idx + 1, message })
                .and_then(|parsed| match parsed {
                    None => Ok(()),
                    Some(StreamLineRef::End(time)) => {
                        if last_time.is_some_and(|last| time < last) {
                            return Err(lomon_trace::TraceParseError {
                                line: idx + 1,
                                message: format!(
                                    "end time {time} precedes last event at {}",
                                    last_time.unwrap()),
                            });
                        }
                        ref_summary.end_time = Some(time);
                        last_time = Some(time);
                        Ok(())
                    }
                    Some(StreamLineRef::Event { time, name, .. }) => {
                        if last_time.is_some_and(|last| time < last) {
                            return Err(lomon_trace::TraceParseError {
                                line: idx + 1,
                                message: format!(
                                    "timestamp {time} precedes previous event at {}",
                                    last_time.unwrap()),
                            });
                        }
                        last_time = Some(time);
                        match voc.lookup(&name) {
                            Some(id) => {
                                reference.push(lomon_trace::TimedEvent::new(id, time));
                                Ok(())
                            }
                            None => Err(lomon_trace::TraceParseError {
                                line: idx + 1,
                                message: format!("unknown event name `{name}`"),
                            }),
                        }
                    }
                });
            if let Err(e) = outcome {
                ref_result = Err(e);
                break;
            }
        }

        let mut buf = Vec::new();
        let fused = lomon_trace::decode_events_into(text.as_bytes(), &voc, &mut buf);
        match (ref_result, fused) {
            (Ok(()), Ok(summary)) => {
                prop_assert_eq!(reference.as_slice(), buf.as_slice(), "text {:?}", text);
                prop_assert_eq!(ref_summary, summary, "text {:?}", text);
            }
            (Err(expected), Err(got)) => {
                prop_assert_eq!(expected, got, "text {:?}", text);
            }
            (expected, got) => {
                prop_assert!(false, "divergence on {:?}: {:?} vs {:?}", text, expected, got);
            }
        }
    }

    /// Frozen-vocabulary decode agrees with the interning reader on
    /// well-formed traces whose alphabet is fully known.
    #[test]
    fn frozen_decode_matches_interning_reader(
        steps in prop::collection::vec((0u8..6, 0u16..1000), 0..60),
        with_end in any::<bool>(),
    ) {
        let mut voc = Vocabulary::new();
        let mut clock = 0u64;
        let mut text = String::new();
        for &(name_ix, gap) in &steps {
            clock += u64::from(gap);
            let dir = if name_ix % 2 == 0 { "in" } else { "out" };
            let name = format!("n{name_ix}");
            voc.intern(&name, if name_ix % 2 == 0 { Direction::Input } else { Direction::Output });
            text.push_str(&format!("{}ps {} {}\n", clock, dir, name));
        }
        if with_end {
            text.push_str(&format!("end {}ps\n", clock + 5));
        }

        let mut voc_reader = voc.clone();
        let trace = read_trace(&text, &mut voc_reader).expect("well-formed");

        let mut buf = Vec::new();
        let summary = lomon_trace::decode_events_into(text.as_bytes(), &voc, &mut buf)
            .expect("well-formed");
        prop_assert_eq!(trace.events(), buf.as_slice());
        if with_end {
            prop_assert_eq!(summary.end_time, Some(SimTime::from_ps(clock + 5)));
        }
    }
}
