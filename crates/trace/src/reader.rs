//! The one reader of trace lines: what a line of trace text or NDJSON
//! means is decided here, for every surface that reads one.
//!
//! A [`LineReader`] takes bytes in chunks of any size, or one whole
//! buffer, and frames them under the [`MAX_FRAME_BYTES`] cap
//! ([`FrameDecoder`]). Each [`LineReader::next`] reads either a *run* of
//! regular event lines with the format's fast lexer
//! ([`lex_regular_event`]), or one other line, decided by the format's
//! full grammar ([`parse_stream_line_bytes`]). Names resolve through the
//! caller's resolver, and the caller applies the events read and says how
//! many it applied, so a run can end at the event that settles a session.
//! A run ends before any line the grammar has to decide, a line over the
//! cap, an earlier timestamp or a name the resolver does not know, so a
//! run reads every line as the grammar would.
//!
//! The reader keeps the line number, the stream's time so far and the
//! `lomon_io_*` accounting, and gives each fault one class ([`Fault`]) and
//! one wording:
//!
//! * a line over the cap: `frame exceeds 65536 bytes (N+ seen); dropped`
//!   ([`Fault::Protocol`]);
//! * a time before the stream's so far: `timestamp … precedes previous
//!   event at …`, or `end time … precedes last event at …` on an `end`
//!   line ([`Fault::Protocol`]);
//! * a line that is not UTF-8: `line is not valid UTF-8`
//!   ([`Fault::Encoding`]);
//! * any other line the grammar rejects: the grammar's message
//!   ([`Fault::Parse`]).
//!
//! Its callers: `lomon-engine`'s stream driver (`lomon check`, `watch` and
//! `serve`); [`LineReader::read_trace`], behind the `lomon` commands that
//! load a trace file as a value; and the whole-buffer readers
//! [`read_trace_bytes`](crate::read_trace_bytes),
//! [`read_trace_bytes_into`](crate::read_trace_bytes_into) and
//! [`decode_events_into`](crate::decode_events_into), which frame the
//! caller's buffer in place, in one pass with no copy. So no two commands
//! read the same bytes differently.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

use crate::frame::{Frame, FrameDecoder, MAX_FRAME_BYTES};
use crate::io::IoMetrics;
use crate::name::Direction;
use crate::ndjson::{lex_regular_event, parse_stream_line_bytes, StreamFormat, StreamLineRef};
use crate::{Name, SimTime, TimedEvent, Trace, Vocabulary};

/// An observed reader times the decode of one line in this many, picked
/// by line number: two clock reads per line would cost more than the fast
/// paths they time, so `lomon_ingest_decode_ns` is a sample.
const DECODE_SAMPLE_EVERY: u64 = 64;

/// Why a line was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The line failed the format's grammar.
    Parse,
    /// The line parsed but broke the protocol: time ran backwards, or the
    /// frame exceeded [`MAX_FRAME_BYTES`].
    Protocol,
    /// The line is not UTF-8.
    Encoding,
}

/// What one [`LineReader::next`] read.
#[derive(Debug, PartialEq, Eq)]
pub enum Line<'a> {
    /// This many event lines whose names the resolver knows, a run's or
    /// one line's, which the caller applied.
    Events(usize),
    /// An event whose name the resolver does not know: on a stream it only
    /// advances time. The name borrows from the line unless a JSON escape
    /// forced a copy.
    Unknown(SimTime, Cow<'a, str>),
    /// An `end` line: time advanced with no event.
    End(SimTime),
    /// A blank line or a comment.
    Blank,
    /// A rejected line, its class and its reason. Its line number is the
    /// reader's [`line`](LineReader::line).
    Fault(Fault, String),
}

/// The one reader of trace lines (see the module docs). It owns the bytes
/// pushed into it, or borrows one whole buffer for `'a`.
#[derive(Debug)]
pub struct LineReader<'a> {
    frames: FrameDecoder<'a>,
    format: StreamFormat,
    /// The last line read, 1-based.
    line: u64,
    /// The stream's time so far.
    last: SimTime,
    io: Option<Arc<IoMetrics>>,
}

impl<'a> LineReader<'a> {
    /// A reader of `format` lines pushed in chunks, at line 0 and time
    /// zero.
    pub fn new(format: StreamFormat) -> Self {
        LineReader {
            frames: FrameDecoder::new(MAX_FRAME_BYTES),
            format,
            line: 0,
            last: SimTime::ZERO,
            io: None,
        }
    }

    /// A reader of the `format` lines of one whole buffer, framed in place.
    pub(crate) fn whole(format: StreamFormat, bytes: &'a [u8]) -> Self {
        let mut reader = LineReader::new(format);
        reader.frames = FrameDecoder::whole(bytes, MAX_FRAME_BYTES);
        reader
    }

    /// Count into `metrics`, if given, every line and byte read (a line
    /// dropped over the cap once, with all its bytes) at each
    /// [`flush_io`](LineReader::flush_io), each rejected line as it is
    /// read, and time the decode of one line in 64, picked by line number.
    /// A run ends at such a line, so the line timed is always one applied:
    /// in a run from its lex to its name lookup, recorded once the run is
    /// applied; on its own from its parse to its name lookup.
    pub fn observe_io(&mut self, metrics: Option<Arc<IoMetrics>>) {
        self.io = metrics;
    }

    /// Buffer one chunk of input, as read; an empty chunk ends the input
    /// ([`FrameDecoder::push`]).
    pub fn push(&mut self, bytes: &[u8]) {
        self.frames.push(bytes);
    }

    /// Bytes of an unterminated line held back for more input.
    pub fn partial_len(&self) -> usize {
        self.frames.partial_len()
    }

    /// The 1-based number of the last line read; 0 before the first.
    pub fn line(&self) -> u64 {
        self.line
    }

    /// The stream's time so far: the latest time of an event or `end` line
    /// read, or zero.
    pub fn last_time(&self) -> SimTime {
        self.last
    }

    /// Begin the next stream at line 0 and time zero. Input still buffered
    /// stays: it belongs to the next stream.
    pub fn reset(&mut self) {
        self.line = 0;
        self.last = SimTime::ZERO;
    }

    /// Read the run of regular event lines complete at the head of the
    /// buffer, at most `room` of them, or else the next complete line on
    /// its own; `None` when no complete line is buffered. Names resolve
    /// through `resolve`. The events read, a run's or one line's, are
    /// appended to `events` and handed to `apply`, which returns how many
    /// of them, from the first, it applied: at least one. Only those lines
    /// are read ([`Line::Events`]); the rest stay buffered, and `events` is
    /// cut back to the events applied.
    #[inline]
    pub fn next(
        &mut self,
        mut room: usize,
        events: &mut Vec<TimedEvent>,
        mut resolve: impl FnMut(&[u8], Direction) -> Option<Name>,
        apply: impl FnOnce(&[TimedEvent]) -> usize,
    ) -> Option<Line<'_>> {
        // Observed, a run stops at the next sampled line, which is then its
        // last.
        let observed = self.io.is_some();
        if observed {
            room = room.min((DECODE_SAMPLE_EVERY - self.line % DECODE_SAMPLE_EVERY) as usize);
        }
        let bytes = self.frames.buffered();
        let start = events.len();
        let (mut len, mut last, mut sample) = (0, self.last, None);
        while events.len() - start < room {
            let line = self.line + (events.len() - start) as u64 + 1;
            let started = (observed && line.is_multiple_of(DECODE_SAMPLE_EVERY)).then(Instant::now);
            let Some(event) = lex_regular_event(self.format, &bytes[len..]) else {
                break;
            };
            // A line over the frame cap or back in time is read on its
            // own, as is a name the resolver does not know.
            if event.len > MAX_FRAME_BYTES || event.time < last {
                break;
            }
            let Some(name) = resolve(event.name, event.direction) else {
                break;
            };
            sample = started.map(|started| started.elapsed());
            events.push(TimedEvent::new(name, event.time));
            last = event.time;
            len += event.len;
        }
        if events.len() > start {
            let applied = apply(&events[start..]);
            if applied < events.len() - start {
                // The caller stopped inside the run: the lines after the
                // last event it applied stay buffered.
                let lines = bytes.split_inclusive(|&b| b == b'\n');
                len = lines.take(applied).map(<[u8]>::len).sum();
                events.truncate(start + applied);
                sample = None;
            }
            if let (Some(io), Some(sample)) = (&self.io, sample) {
                io.decode_ns.record(sample.as_nanos() as u64);
            }
            self.frames.consume(applied as u64, len);
            self.line += applied as u64;
            self.last = events[start + applied - 1].time;
            return Some(Line::Events(applied));
        }
        let frame = self.frames.next_frame()?;
        self.line += 1;
        let sampled = observed && self.line.is_multiple_of(DECODE_SAMPLE_EVERY);
        let started = (sampled && matches!(frame, Frame::Line(_))).then(Instant::now);
        let line = match frame {
            Frame::Oversized { seen } => Line::Fault(
                Fault::Protocol,
                format!("frame exceeds {MAX_FRAME_BYTES} bytes ({seen}+ seen); dropped"),
            ),
            Frame::Line(bytes) => match parse_stream_line_bytes(self.format, bytes) {
                Ok(None) => Line::Blank,
                Ok(Some(parsed)) => {
                    let (StreamLineRef::End(time) | StreamLineRef::Event { time, .. }) = parsed;
                    if time < self.last {
                        let (what, before) = match parsed {
                            StreamLineRef::End(_) => ("end time", "last"),
                            _ => ("timestamp", "previous"),
                        };
                        let last = self.last;
                        let reason = format!("{what} {time} precedes {before} event at {last}");
                        Line::Fault(Fault::Protocol, reason)
                    } else {
                        self.last = time;
                        match parsed {
                            StreamLineRef::End(_) => Line::End(time),
                            StreamLineRef::Event {
                                direction, name, ..
                            } => match resolve(name.as_bytes(), direction) {
                                Some(id) => {
                                    events.push(TimedEvent::new(id, time));
                                    Line::Events(1)
                                }
                                None => Line::Unknown(time, name),
                            },
                        }
                    }
                }
                // Both grammars reject a line that is not UTF-8, so the
                // check costs nothing on lines that parse.
                Err(reason) if std::str::from_utf8(bytes).is_err() => {
                    Line::Fault(Fault::Encoding, reason)
                }
                Err(reason) => Line::Fault(Fault::Parse, reason),
            },
        };
        if let (Some(io), Some(started)) = (&self.io, started) {
            io.decode_ns.record(started.elapsed().as_nanos() as u64);
        }
        if let (Some(io), Line::Fault(..)) = (&self.io, &line) {
            io.parse_errors.inc();
        }
        if let Line::Events(_) = line {
            apply(&events[start..]);
        }
        Some(line)
    }

    /// Read every complete line buffered into `out`, names resolved by
    /// `resolve`, up to the first fault; a name `resolve` does not know is
    /// one. Returns the time of the last `end` line read, if any.
    #[inline]
    pub(crate) fn read_events(
        &mut self,
        out: &mut Vec<TimedEvent>,
        mut resolve: impl FnMut(&[u8], Direction) -> Option<Name>,
    ) -> Result<Option<SimTime>, (Fault, String)> {
        let mut end = None;
        while let Some(line) = self.next(usize::MAX, out, &mut resolve, <[_]>::len) {
            match line {
                Line::Events(_) | Line::Blank => {}
                Line::End(time) => end = Some(time),
                Line::Unknown(_, name) => {
                    return Err((Fault::Parse, format!("unknown event name `{name}`")))
                }
                Line::Fault(fault, reason) => return Err((fault, reason)),
            }
        }
        Ok(end)
    }

    /// Read every complete line buffered into `trace`, a name not yet in
    /// `voc` interned with its line's direction: the reader behind a trace
    /// loaded as a value, a file one chunk at a time or a whole buffer
    /// ([`read_trace_bytes`](crate::read_trace_bytes)).
    ///
    /// # Errors
    ///
    /// The first rejected line's class and reason; its number is
    /// [`line`](LineReader::line). The events before it stay in `trace`.
    pub fn read_trace(
        &mut self,
        voc: &mut Vocabulary,
        trace: &mut Trace,
    ) -> Result<(), (Fault, String)> {
        let interning =
            |name: &[u8], direction| Some(voc.intern(&String::from_utf8_lossy(name), direction));
        let end = self.read_events(&mut trace.events, interning)?;
        // As `Trace::push` would: an event after the last `end` line
        // raises the end time to its own.
        if end.is_some() || trace.end_time.is_some() {
            trace.end_time = Some(self.last);
        }
        Ok(())
    }

    /// Add the lines and bytes read since the last flush to the I/O
    /// metrics, if observed.
    pub fn flush_io(&mut self) {
        let (lines, bytes) = self.frames.take_counts();
        if let Some(io) = &self.io {
            io.lines.add(lines);
            io.bytes.add(bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A line over the cap is one fault on a pushed stream and on a whole
    /// buffer alike, and reading carries on at the next line.
    #[test]
    fn a_line_over_the_cap_is_one_fault_everywhere() {
        let name = "x".repeat(MAX_FRAME_BYTES);
        let text = format!("1ns in a\n2ns in {name}\r\n3ns in a\n");
        let oversized = format!(
            "frame exceeds 65536 bytes ({}+ seen); dropped",
            7 + name.len()
        );
        let mut reader = LineReader::new(StreamFormat::Trace);
        reader.push(text.as_bytes());
        let mut voc = Vocabulary::new();
        voc.input("a");
        let (mut lines, mut events) = (Vec::new(), Vec::new());
        let resolve = |name: &[u8], _| voc.lookup_bytes(name);
        while let Some(line) = reader.next(usize::MAX, &mut events, resolve, <[_]>::len) {
            let line = format!("{line:?}");
            lines.push((reader.line(), line));
        }
        let fault = (2, format!("Fault(Protocol, {oversized:?})"));
        assert_eq!(
            lines,
            [(1, "Events(1)".into()), fault, (3, "Events(1)".into())]
        );
        assert_eq!(events.len(), 2);
        let err = crate::read_trace_bytes(text.as_bytes(), &mut Vocabulary::new()).unwrap_err();
        assert_eq!((err.line, err.message), (2, oversized));
    }
}
