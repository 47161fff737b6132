//! Textual property language for loose-ordering patterns.
//!
//! The concrete syntax mirrors the paper's notation:
//!
//! ```text
//! property  := ordering "<<" name flag?               antecedent (Def. 4)
//!            | ordering "=>" ordering "within" TIME   timed impl. (Def. 5)
//! flag      := "repeated" | "once"                    default: once
//! ordering  := fragment ("<" fragment)*
//! fragment  := ("all" | "any") "{" range ("," range)* "}"
//!            | range                                  singleton ∧-fragment
//! range     := name ("[" INT "," INT "]")?            default [1,1]
//! name      := ("in:" | "out:")? IDENT
//! TIME      := INT ("ps"|"ns"|"us"|"ms"|"s")
//! ```
//!
//! The paper's Example 2 reads
//! `all{set_imgAddr, set_glAddr, set_glSize} << start once`, and Example 3
//! `start => read_img[100,60000] < set_irq within 60000 ns`.
//!
//! **Directions.** The well-formedness rules need to know which names are
//! inputs and which are outputs. Unprefixed names default to *input* in an
//! antecedent and in a timed implication's premise, and to *output* in the
//! response `Q`; the `in:`/`out:` prefixes override. A name already present
//! in the vocabulary keeps its original direction.

use lomon_trace::time::{scale_time, ScaleError};
use lomon_trace::{Direction, Name, SimTime, Vocabulary};

use crate::ast::{
    Antecedent, Fragment, FragmentOp, LooseOrdering, Property, Range, TimedImplication,
};

/// A parse error with its byte span in the source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where the problem starts.
    pub start: usize,
    /// Byte offset just past the problem.
    pub end: usize,
    /// Human-readable description.
    pub message: String,
}

impl ParseError {
    fn new(span: (usize, usize), message: impl Into<String>) -> Self {
        ParseError {
            start: span.0,
            end: span.1,
            message: message.into(),
        }
    }

    /// Render the error with a caret line pointing into `source`.
    pub fn display_with_source(&self, source: &str) -> String {
        let mut line_start = 0;
        let mut line_no = 1;
        for (idx, ch) in source.char_indices() {
            if idx >= self.start {
                break;
            }
            if ch == '\n' {
                line_start = idx + 1;
                line_no += 1;
            }
        }
        let line_end = source[line_start..]
            .find('\n')
            .map_or(source.len(), |k| line_start + k);
        let line = &source[line_start..line_end];
        let col = self.start - line_start;
        let width = (self.end.min(line_end).max(self.start + 1)) - self.start;
        format!(
            "error at line {line_no}, column {}: {}\n  {line}\n  {}{}",
            col + 1,
            self.message,
            " ".repeat(col),
            "^".repeat(width.max(1)),
        )
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "parse error at {}..{}: {}",
            self.start, self.end, self.message
        )
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(u64),
    DirIn,
    DirOut,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Less,
    LessLess,
    Implies,
    Eof,
}

impl Tok {
    fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("identifier `{s}`"),
            Tok::Int(n) => format!("number `{n}`"),
            Tok::DirIn => "`in:`".into(),
            Tok::DirOut => "`out:`".into(),
            Tok::LBrace => "`{`".into(),
            Tok::RBrace => "`}`".into(),
            Tok::LBracket => "`[`".into(),
            Tok::RBracket => "`]`".into(),
            Tok::Comma => "`,`".into(),
            Tok::Less => "`<`".into(),
            Tok::LessLess => "`<<`".into(),
            Tok::Implies => "`=>`".into(),
            Tok::Eof => "end of input".into(),
        }
    }
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

/// A token with its byte span.
type SpannedTok = (Tok, (usize, usize));

impl<'a> Lexer<'a> {
    fn tokenize(src: &'a str) -> Result<Vec<SpannedTok>, ParseError> {
        let mut lx = Lexer { src, pos: 0 };
        let mut out = Vec::new();
        loop {
            lx.skip_ws();
            let start = lx.pos;
            let Some(ch) = lx.peek() else {
                out.push((Tok::Eof, (start, start)));
                return Ok(out);
            };
            let tok = match ch {
                '{' => {
                    lx.pos += 1;
                    Tok::LBrace
                }
                '}' => {
                    lx.pos += 1;
                    Tok::RBrace
                }
                '[' => {
                    lx.pos += 1;
                    Tok::LBracket
                }
                ']' => {
                    lx.pos += 1;
                    Tok::RBracket
                }
                ',' => {
                    lx.pos += 1;
                    Tok::Comma
                }
                '<' => {
                    lx.pos += 1;
                    if lx.peek() == Some('<') {
                        lx.pos += 1;
                        Tok::LessLess
                    } else {
                        Tok::Less
                    }
                }
                '=' => {
                    lx.pos += 1;
                    if lx.peek() == Some('>') {
                        lx.pos += 1;
                        Tok::Implies
                    } else {
                        return Err(ParseError::new((start, lx.pos), "expected `=>` after `=`"));
                    }
                }
                c if c.is_ascii_digit() => {
                    let digits = lx.take_while(|c| c.is_ascii_digit());
                    let value: u64 = digits
                        .parse()
                        .map_err(|_| ParseError::new((start, lx.pos), "number too large"))?;
                    Tok::Int(value)
                }
                c if c.is_ascii_alphabetic() || c == '_' => {
                    let word = lx.take_while(|c| c.is_ascii_alphanumeric() || c == '_');
                    if lx.peek() == Some(':') && (word == "in" || word == "out") {
                        lx.pos += 1;
                        if word == "in" {
                            Tok::DirIn
                        } else {
                            Tok::DirOut
                        }
                    } else {
                        Tok::Ident(word.to_owned())
                    }
                }
                other => {
                    return Err(ParseError::new(
                        (start, start + other.len_utf8()),
                        format!("unexpected character `{other}`"),
                    ))
                }
            };
            out.push((tok, (start, lx.pos)));
        }
    }

    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.peek() {
            if c.is_whitespace() {
                self.pos += c.len_utf8();
            } else {
                break;
            }
        }
    }

    fn take_while(&mut self, pred: impl Fn(char) -> bool) -> String {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if pred(c) {
                self.pos += c.len_utf8();
            } else {
                break;
            }
        }
        self.src[start..self.pos].to_owned()
    }
}

struct Parser<'v> {
    tokens: Vec<SpannedTok>,
    pos: usize,
    voc: &'v mut Vocabulary,
}

impl<'v> Parser<'v> {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].0
    }

    fn span(&self) -> (usize, usize) {
        self.tokens[self.pos].1
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].0.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: &Tok, what: &str) -> Result<(), ParseError> {
        if self.peek() == want {
            self.bump();
            Ok(())
        } else {
            Err(ParseError::new(
                self.span(),
                format!("expected {what}, found {}", self.peek().describe()),
            ))
        }
    }

    /// `name := ("in:"|"out:")? IDENT` interned with `default` direction.
    fn name(&mut self, default: Direction) -> Result<Name, ParseError> {
        let direction = match self.peek() {
            Tok::DirIn => {
                self.bump();
                Direction::Input
            }
            Tok::DirOut => {
                self.bump();
                Direction::Output
            }
            _ => default,
        };
        match self.bump() {
            Tok::Ident(word) => {
                if is_keyword(&word) {
                    Err(ParseError::new(
                        self.tokens[self.pos - 1].1,
                        format!("`{word}` is a keyword and cannot name an event"),
                    ))
                } else {
                    Ok(self.voc.intern(&word, direction))
                }
            }
            other => Err(ParseError::new(
                self.tokens[self.pos - 1].1,
                format!("expected an event name, found {}", other.describe()),
            )),
        }
    }

    /// `range := name ("[" INT "," INT "]")?`
    fn range(&mut self, default: Direction) -> Result<Range, ParseError> {
        let name = self.name(default)?;
        if self.peek() == &Tok::LBracket {
            self.bump();
            let min = self.integer("the range minimum")?;
            self.expect(&Tok::Comma, "`,` between range bounds")?;
            let max = self.integer("the range maximum")?;
            self.expect(&Tok::RBracket, "`]` closing the range")?;
            Ok(Range::new(name, min, max))
        } else {
            Ok(Range::once(name))
        }
    }

    fn integer(&mut self, what: &str) -> Result<u32, ParseError> {
        match self.bump() {
            Tok::Int(n) => u32::try_from(n).map_err(|_| {
                ParseError::new(self.tokens[self.pos - 1].1, format!("{what} is too large"))
            }),
            other => Err(ParseError::new(
                self.tokens[self.pos - 1].1,
                format!("expected {what}, found {}", other.describe()),
            )),
        }
    }

    /// `fragment := ("all"|"any") "{" range+ "}" | range`
    fn fragment(&mut self, default: Direction) -> Result<Fragment, ParseError> {
        let op = match self.peek() {
            Tok::Ident(w) if w == "all" => Some(FragmentOp::All),
            Tok::Ident(w) if w == "any" => Some(FragmentOp::Any),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            self.expect(&Tok::LBrace, "`{` opening the fragment")?;
            let mut ranges = vec![self.range(default)?];
            while self.peek() == &Tok::Comma {
                self.bump();
                ranges.push(self.range(default)?);
            }
            self.expect(&Tok::RBrace, "`}` closing the fragment")?;
            Ok(Fragment::new(op, ranges))
        } else {
            Ok(Fragment::singleton(self.range(default)?))
        }
    }

    /// `ordering := fragment ("<" fragment)*`
    fn ordering(&mut self, default: Direction) -> Result<LooseOrdering, ParseError> {
        let mut fragments = vec![self.fragment(default)?];
        while self.peek() == &Tok::Less {
            self.bump();
            fragments.push(self.fragment(default)?);
        }
        Ok(LooseOrdering::new(fragments))
    }

    fn time(&mut self) -> Result<SimTime, ParseError> {
        let value = match self.bump() {
            Tok::Int(n) => n,
            other => {
                return Err(ParseError::new(
                    self.tokens[self.pos - 1].1,
                    format!("expected a time value, found {}", other.describe()),
                ))
            }
        };
        let value_start = self.tokens[self.pos - 1].1 .0;
        match self.bump() {
            Tok::Ident(unit) => {
                let unit_span = self.tokens[self.pos - 1].1;
                scale_time(value, unit.as_bytes()).map_err(|e| match e {
                    ScaleError::UnknownUnit => ParseError::new(
                        unit_span,
                        format!("unknown time unit `{unit}` (use ps/ns/us/ms/s)"),
                    ),
                    ScaleError::OutOfRange => ParseError::new(
                        (value_start, unit_span.1),
                        format!("time literal `{value} {unit}` is out of range"),
                    ),
                })
            }
            other => Err(ParseError::new(
                self.tokens[self.pos - 1].1,
                format!("expected a time unit, found {}", other.describe()),
            )),
        }
    }

    fn property(&mut self) -> Result<Property, ParseError> {
        let first = self.ordering(Direction::Input)?;
        match self.peek().clone() {
            Tok::LessLess => {
                self.bump();
                let trigger = self.name(Direction::Input)?;
                let repeated = match self.peek() {
                    Tok::Ident(w) if w == "repeated" => {
                        self.bump();
                        true
                    }
                    Tok::Ident(w) if w == "once" => {
                        self.bump();
                        false
                    }
                    _ => false,
                };
                self.expect(&Tok::Eof, "end of property")?;
                Ok(Antecedent::new(first, trigger, repeated).into())
            }
            Tok::Implies => {
                self.bump();
                let response = self.ordering(Direction::Output)?;
                match self.bump() {
                    Tok::Ident(w) if w == "within" => {}
                    other => {
                        return Err(ParseError::new(
                            self.tokens[self.pos - 1].1,
                            format!("expected `within`, found {}", other.describe()),
                        ))
                    }
                }
                let bound = self.time()?;
                self.expect(&Tok::Eof, "end of property")?;
                Ok(TimedImplication::new(first, response, bound).into())
            }
            other => Err(ParseError::new(
                self.span(),
                format!(
                    "expected `<<` or `=>` after the ordering, found {}",
                    other.describe()
                ),
            )),
        }
    }
}

fn is_keyword(word: &str) -> bool {
    matches!(word, "all" | "any" | "within" | "repeated" | "once")
}

/// Parse a property, interning its names into `voc`.
///
/// # Errors
///
/// Returns a [`ParseError`] with a byte span on malformed input. The result
/// is *syntactically* valid; run [`crate::wf::check`] (or build a monitor
/// through [`crate::monitor::build_monitor`], which validates) for the
/// semantic side conditions.
///
/// # Example
///
/// ```
/// use lomon_core::parse::parse_property;
/// use lomon_trace::Vocabulary;
/// let mut voc = Vocabulary::new();
/// let prop = parse_property(
///     "start => read_img[100,60000] < set_irq within 60000 ns",
///     &mut voc,
/// )?;
/// assert_eq!(prop.alpha().len(), 3);
/// # Ok::<(), lomon_core::parse::ParseError>(())
/// ```
pub fn parse_property(text: &str, voc: &mut Vocabulary) -> Result<Property, ParseError> {
    let tokens = Lexer::tokenize(text)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        voc,
    };
    parser.property()
}

/// Parse a bare loose-ordering (used by tests and the stimuli generator's
/// CLI); names default to inputs.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input or trailing junk.
pub fn parse_ordering(text: &str, voc: &mut Vocabulary) -> Result<LooseOrdering, ParseError> {
    let tokens = Lexer::tokenize(text)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        voc,
    };
    let ordering = parser.ordering(Direction::Input)?;
    parser.expect(&Tok::Eof, "end of ordering")?;
    Ok(ordering)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wf;

    #[test]
    fn parses_paper_example_2() {
        let mut voc = Vocabulary::new();
        let prop = parse_property(
            "all{set_imgAddr, set_glAddr, set_glSize} << start once",
            &mut voc,
        )
        .expect("parses");
        let Property::Antecedent(a) = &prop else {
            panic!("expected antecedent")
        };
        assert!(!a.repeated);
        assert_eq!(a.antecedent.fragments.len(), 1);
        assert_eq!(a.antecedent.fragments[0].op, FragmentOp::All);
        assert_eq!(a.antecedent.fragments[0].ranges.len(), 3);
        assert!(wf::check(&prop, &voc).is_empty());
        // Round-trip through display.
        assert_eq!(
            prop.display(&voc),
            "all{set_imgAddr, set_glAddr, set_glSize} << start once"
        );
    }

    #[test]
    fn parses_paper_example_3() {
        let mut voc = Vocabulary::new();
        let prop = parse_property(
            "start => read_img[100,60000] < set_irq within 60000 ns",
            &mut voc,
        )
        .expect("parses");
        let Property::Timed(t) = &prop else {
            panic!("expected timed implication")
        };
        assert_eq!(t.bound, SimTime::from_us(60));
        assert_eq!(t.premise.fragments.len(), 1);
        assert_eq!(t.response.fragments.len(), 2);
        assert_eq!(t.response.fragments[0].ranges[0].min, 100);
        assert_eq!(t.response.fragments[0].ranges[0].max, 60_000);
        // Q names default to outputs → well-formed.
        assert!(wf::check(&prop, &voc).is_empty());
    }

    #[test]
    fn parses_fig4_property() {
        let mut voc = Vocabulary::new();
        let prop = parse_property("all{n1, n2} < any{n3[2,8], n4} < n5 << i once", &mut voc)
            .expect("parses");
        let Property::Antecedent(a) = &prop else {
            panic!("expected antecedent")
        };
        assert_eq!(a.antecedent.fragments.len(), 3);
        assert_eq!(a.antecedent.fragments[1].op, FragmentOp::Any);
        assert!(wf::check(&prop, &voc).is_empty());
    }

    #[test]
    fn repeated_flag_and_default() {
        let mut voc = Vocabulary::new();
        let p = parse_property("a << i repeated", &mut voc).expect("parses");
        let Property::Antecedent(a) = p else { panic!() };
        assert!(a.repeated);
        let p = parse_property("a << i", &mut voc).expect("parses");
        let Property::Antecedent(a) = p else { panic!() };
        assert!(!a.repeated);
    }

    #[test]
    fn direction_defaults_and_overrides() {
        let mut voc = Vocabulary::new();
        parse_property("out:ready < go => done within 5 ns", &mut voc).expect("parses");
        assert_eq!(
            voc.direction(voc.lookup("ready").unwrap()),
            Direction::Output
        );
        assert_eq!(voc.direction(voc.lookup("go").unwrap()), Direction::Input);
        assert_eq!(
            voc.direction(voc.lookup("done").unwrap()),
            Direction::Output
        );

        let mut voc = Vocabulary::new();
        parse_property("a => in:ack < reply within 1 us", &mut voc).expect("parses");
        // Explicit in: override inside Q (will fail wf, but parsing honors it).
        assert_eq!(voc.direction(voc.lookup("ack").unwrap()), Direction::Input);
        assert_eq!(
            voc.direction(voc.lookup("reply").unwrap()),
            Direction::Output
        );
    }

    #[test]
    fn time_units() {
        let mut voc = Vocabulary::new();
        for (text, expect) in [
            ("a => b within 500 ps", SimTime::from_ps(500)),
            ("a => b within 100ns", SimTime::from_ns(100)),
            ("a => b within 25 us", SimTime::from_us(25)),
            ("a => b within 3 ms", SimTime::from_ms(3)),
            ("a => b within 1 s", SimTime::from_sec(1)),
        ] {
            let Property::Timed(t) = parse_property(text, &mut voc).expect(text) else {
                panic!()
            };
            assert_eq!(t.bound, expect, "{text}");
        }
    }

    #[test]
    fn error_missing_operator() {
        let mut voc = Vocabulary::new();
        let err = parse_property("a b", &mut voc).unwrap_err();
        assert!(
            err.message.contains("expected `<<` or `=>`"),
            "{}",
            err.message
        );
    }

    #[test]
    fn error_bad_range() {
        let mut voc = Vocabulary::new();
        let err = parse_property("a[1 2] << i", &mut voc).unwrap_err();
        assert!(err.message.contains("`,`"), "{}", err.message);
        let err = parse_property("a[1,] << i", &mut voc).unwrap_err();
        assert!(err.message.contains("range maximum"), "{}", err.message);
        let err = parse_property("a[99999999999,1] << i", &mut voc).unwrap_err();
        assert!(err.message.contains("too large"), "{}", err.message);
    }

    #[test]
    fn error_keyword_as_name() {
        let mut voc = Vocabulary::new();
        let err = parse_property("within << i", &mut voc).unwrap_err();
        assert!(err.message.contains("keyword"), "{}", err.message);
    }

    #[test]
    fn error_missing_within() {
        let mut voc = Vocabulary::new();
        let err = parse_property("a => b", &mut voc).unwrap_err();
        assert!(err.message.contains("within"), "{}", err.message);
    }

    #[test]
    fn error_bad_unit() {
        let mut voc = Vocabulary::new();
        let err = parse_property("a => b within 10 lightyears", &mut voc).unwrap_err();
        assert!(err.message.contains("unknown time unit"), "{}", err.message);
    }

    #[test]
    fn error_time_bound_out_of_range() {
        let mut voc = Vocabulary::new();
        let src = "go => out:done within 18446744073709552 ns";
        let err = parse_property(src, &mut voc).unwrap_err();
        assert_eq!(
            err.message,
            "time literal `18446744073709552 ns` is out of range"
        );
        assert_eq!(&src[err.start..err.end], "18446744073709552 ns");
        // The largest representable bound in each unit still parses.
        for bound in [
            "18446744073709551 ns",
            "18446744073709551615 ps",
            "18446744 s",
        ] {
            let text = format!("go => out:done within {bound}");
            assert!(parse_property(&text, &mut voc).is_ok(), "{text}");
        }
    }

    #[test]
    fn error_trailing_tokens() {
        let mut voc = Vocabulary::new();
        let err = parse_property("a << i once extra", &mut voc).unwrap_err();
        assert!(err.message.contains("end of property"), "{}", err.message);
    }

    #[test]
    fn error_unexpected_character() {
        let mut voc = Vocabulary::new();
        let err = parse_property("a § b", &mut voc).unwrap_err();
        assert!(err.message.contains("unexpected character"));
    }

    #[test]
    fn caret_diagnostics_point_at_problem() {
        let mut voc = Vocabulary::new();
        let src = "all{a, b} << ";
        let err = parse_property(src, &mut voc).unwrap_err();
        let pretty = err.display_with_source(src);
        assert!(pretty.contains("line 1"), "{pretty}");
        assert!(pretty.contains('^'), "{pretty}");
    }

    #[test]
    fn parse_ordering_rejects_property_syntax() {
        let mut voc = Vocabulary::new();
        assert!(parse_ordering("a < b", &mut voc).is_ok());
        assert!(parse_ordering("a << i", &mut voc).is_err());
    }

    #[test]
    fn display_roundtrip_reparses() {
        let mut voc = Vocabulary::new();
        let texts = [
            "all{a, b} < any{c[2,8], d} < e << i repeated",
            "start => read_img[100,60000] < set_irq within 60000 ns",
            "a[2,3] << i once",
        ];
        for text in texts {
            let p1 = parse_property(text, &mut voc).expect(text);
            let shown = p1.display(&voc);
            let p2 = parse_property(&shown, &mut voc).expect(&shown);
            assert_eq!(p1, p2, "{text} → {shown}");
        }
    }
}
