//! The stream driver: the online monitoring protocol, written once and
//! free of I/O. `lomon check` (trace files, one stream each), `lomon
//! watch` (stdin) and `lomon serve` (sockets) are thin adapters over it.
//!
//! A [`StreamDriver`] takes byte chunks of any size. Each line is framed
//! under the [`MAX_FRAME_BYTES`] cap, parsed as trace text or NDJSON,
//! checked for monotonic time, resolved against the engine's frozen
//! [`Vocabulary`] (a name no property uses only advances time and is never
//! interned) and stepped; every verdict that goes final is emitted as a
//! typed [`Record`].
//!
//! One [`StreamDriver::step`] applies a *run* of lines or a single line. A
//! run is a stretch of regular event lines complete in the buffer: each is
//! lexed by its format's fast path ([`lex_regular_event`]) and its name
//! resolved once into a reused event buffer, then the whole run is stepped
//! with one batch call and its verdicts are emitted. A run ends before any
//! line the per-line path has to decide: a blank, comment or `end` line, an
//! unknown name, a line the fast path does not take (malformed, non-ASCII,
//! non-UTF-8 or irregular), a line over the frame cap or the tail of one,
//! an earlier timestamp, or a line not yet complete. It also ends right
//! after the event that reaches a heartbeat multiple or settles the
//! session, after a line whose decode time an observed driver samples, and
//! after 256 lines. The next step applies the line that ended the run on
//! its own. So records, their order and the statistics are those of
//! stepping one line at a time, however the input was chunked.
//!
//! What an `end` line or a rejected line means is the caller's policy:
//! `step` reports it as a [`Step`]. A stream ends either online, with
//! [`StreamDriver::close`] emitting the open verdicts and a summary
//! record, or in batch, with [`StreamDriver::finish`] returning the whole
//! report.
//!
//! Records render in the stream's format ([`Record::render`]): human text
//! for trace streams, one NDJSON object per line for NDJSON streams,
//! tagged with `"type"` and `"stream"` when the driver indexes its
//! streams ([`StreamDriver::labelled`]).

use std::fmt::Write as _;
use std::io;
use std::sync::Arc;
use std::time::Instant;

use lomon_core::verdict::Verdict;
use lomon_trace::{
    json_escape, lex_regular_event, parse_stream_line_bytes, Frame, FrameDecoder, IoMetrics, Name,
    SimTime, StreamFormat, StreamLineRef, TimedEvent, Vocabulary, MAX_FRAME_BYTES,
};

use crate::report::{EngineReport, PropertyReport};
use crate::session::Session;

/// Why a line was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The line failed the stream grammar.
    Parse,
    /// The line parsed but broke the protocol: time ran backwards, or the
    /// frame exceeded [`MAX_FRAME_BYTES`].
    Protocol,
    /// The line is not UTF-8.
    Encoding,
}

/// What one [`StreamDriver::step`] did to the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// An event, a time advance, a blank line or a comment was applied —
    /// or a run of event lines, each as if on its own.
    Applied,
    /// An `end` line passed the time check. Whether it only advances time
    /// ([`StreamDriver::advance`]) or closes the stream
    /// ([`StreamDriver::close`]) is the caller's policy.
    End,
    /// The line was rejected and its error record emitted.
    Fault(Fault),
}

/// One output record of a stream.
#[derive(Debug)]
pub enum Record<'a> {
    /// A property's verdict went final — or, with a verdict that is not
    /// final, the property was still open when its stream closed.
    Verdict(PropertyReport),
    /// A line was rejected, or the stream was cut.
    Error {
        /// The 1-based line of the stream the error concerns.
        line: u64,
        /// The class of the fault.
        fault: Fault,
        /// Human-readable description.
        reason: &'a str,
    },
    /// A heartbeat: the statistics of the monitored session so far.
    Stats(&'a Session<'a>),
    /// The stream closed.
    Summary {
        /// The closed session.
        session: &'a Session<'a>,
        /// Lines rejected.
        faults: u64,
    },
}

impl Record<'_> {
    /// Append this record in `format`: human text for
    /// [`StreamFormat::Trace`], one NDJSON object per line for
    /// [`StreamFormat::Ndjson`], labelled with `stream` when given.
    /// Heartbeats are JSON in both formats; open verdicts have no text form
    /// because the text summary lists every property.
    pub fn render(
        &self,
        out: &mut String,
        format: StreamFormat,
        voc: &Vocabulary,
        stream: Option<u64>,
    ) {
        let json = format == StreamFormat::Ndjson;
        match self {
            Record::Verdict(p) if !json => {
                if p.verdict.is_final() {
                    p.write_text(out, "", voc);
                }
            }
            Record::Verdict(p) => {
                let property = json_escape(&p.property);
                let (index, verdict) = (p.index, p.verdict);
                let _ = match stream {
                    Some(stream) => write!(
                        out,
                        "{{\"type\": \"verdict\", \"stream\": {stream}, \"property\": \"{property}\", \
                         \"index\": {index}, \"verdict\": \"{verdict}\""
                    ),
                    None => write!(
                        out,
                        "{{\"property\": \"{property}\", \"index\": {index}, \"verdict\": \"{verdict}\""
                    ),
                };
                p.write_json_fields(out, voc);
                out.push_str(if verdict.is_final() {
                    "}\n"
                } else {
                    ", \"final\": false}\n"
                });
            }
            Record::Error { line, reason, .. } if !json => {
                let _ = writeln!(out, "warning: stream line {line}: {reason} (line skipped)");
            }
            Record::Error { line, reason, .. } => {
                out.push_str("{\"type\": \"error\", ");
                if let Some(stream) = stream {
                    let _ = write!(out, "\"stream\": {stream}, ");
                }
                let _ = writeln!(
                    out,
                    "\"line\": {line}, \"reason\": \"{}\"}}",
                    json_escape(reason)
                );
            }
            Record::Stats(session) => {
                let object = session
                    .stats()
                    .render_json_object(session.backend().label(), violations(session));
                let _ = writeln!(out, "{{\"type\": \"stats\", {}", &object[1..]);
            }
            Record::Summary { session, faults } if !json => {
                if *faults > 0 {
                    let _ = writeln!(out, "{faults} malformed line(s) skipped");
                }
                out.push_str(&session.report().render(voc));
            }
            Record::Summary { session, faults } => {
                let stats = session.stats();
                let violations = violations(session);
                let object = stats.render_json_object(session.backend().label(), violations);
                let _ = match stream {
                    Some(stream) => writeln!(
                        out,
                        "{{\"type\": \"summary\", \"stream\": {stream}, \"ok\": {}, \
                         \"events\": {}, \"violations\": {violations}, \"stats\": {object}}}",
                        violations == 0,
                        stats.events,
                    ),
                    // The top-level fields predate the unified schema and
                    // stay as aliases of the `stats` object.
                    None => writeln!(
                        out,
                        "{{\"summary\": true, \"backend\": \"{}\", \"events\": {}, \
                         \"monitor_steps\": {}, \"steps_skipped\": {}, \
                         \"unique_cells\": {}, \"shared_hits\": {}, \"violations\": {violations}, \
                         \"parse_errors\": {faults}, \"stats\": {object}}}",
                        session.backend().label(),
                        stats.events,
                        stats.monitor_steps,
                        stats.steps_skipped,
                        stats.unique_cells,
                        stats.shared_hits,
                    ),
                };
            }
        }
    }
}

/// Where a driver's records go: each arrives typed and rendered in the
/// stream's format. Closures of the same shape are sinks.
pub trait RecordSink {
    /// Take one record; an error stops the driver, which passes it on.
    fn record(&mut self, record: &Record<'_>, rendered: &str) -> io::Result<()>;
}

impl<F: FnMut(&Record<'_>, &str) -> io::Result<()>> RecordSink for F {
    fn record(&mut self, record: &Record<'_>, rendered: &str) -> io::Result<()> {
        self(record, rendered)
    }
}

/// An observed driver times the parse of one line in this many, picked
/// by line number: two clock reads per line would cost more than the fast
/// paths they time, so `lomon_ingest_decode_ns` is a sample.
const DECODE_SAMPLE_EVERY: u64 = 64;

/// The most lines one run applies, which bounds the driver's event buffer
/// whatever the size of the chunks pushed.
const RUN_LINES: usize = 256;

/// One parsed stream line.
enum Input {
    /// An event; `None` when no property uses its name.
    Event(SimTime, Option<Name>),
    End(SimTime),
}

/// How a driver renders: the stream's format, vocabulary and index, and
/// one reused buffer.
#[derive(Debug)]
struct Renderer<'e> {
    format: StreamFormat,
    voc: &'e Vocabulary,
    stream: Option<u64>,
    text: String,
}

impl Renderer<'_> {
    fn send(&mut self, record: &Record<'_>, sink: &mut impl RecordSink) -> io::Result<()> {
        self.text.clear();
        record.render(&mut self.text, self.format, self.voc, self.stream);
        sink.record(record, &self.text)
    }
}

/// The per-stream protocol over one [`Session`]: framing, parsing,
/// monotonic time, name resolution, stepping and verdict records. See the
/// module docs.
#[derive(Debug)]
pub struct StreamDriver<'e> {
    session: Session<'e>,
    out: Renderer<'e>,
    decoder: FrameDecoder,
    /// The events of the current run, reused from run to run.
    run: Vec<TimedEvent>,
    io: Option<Arc<IoMetrics>>,
    stats_every: Option<u64>,
    line: u64,
    last_time: SimTime,
    open: bool,
    faults: u64,
    finalized: Vec<u32>,
}

impl<'e> StreamDriver<'e> {
    /// Drive `session` with a `format` stream whose names resolve against
    /// `voc`, the vocabulary the session's engine was compiled with.
    pub fn new(session: Session<'e>, voc: &'e Vocabulary, format: StreamFormat) -> Self {
        StreamDriver {
            session,
            out: Renderer {
                format,
                voc,
                stream: None,
                text: String::new(),
            },
            decoder: FrameDecoder::new(MAX_FRAME_BYTES),
            run: Vec::new(),
            io: None,
            stats_every: None,
            line: 0,
            last_time: SimTime::ZERO,
            open: false,
            faults: 0,
            finalized: Vec::new(),
        }
    }

    /// Index the streams, from 0, and label every NDJSON record with its
    /// stream — the shape of a connection that carries many streams.
    #[must_use]
    pub fn labelled(mut self) -> Self {
        self.out.stream = Some(0);
        self
    }

    /// Emit a heartbeat record each time the event count reaches a
    /// multiple of `every`, if given.
    #[must_use]
    pub fn heartbeat_every(mut self, every: Option<u64>) -> Self {
        self.stats_every = every;
        self
    }

    /// Count every line, byte and rejected line into `metrics`, if given,
    /// and time the parse of one line in 64, picked by line number (a run
    /// ends at each such line, so the line timed is always one applied).
    /// Lines and bytes are what the frame decoder consumed or dropped, an
    /// oversized line counting once; they are added at each flush point:
    /// when [`StreamDriver::step`] finds no complete line buffered, and
    /// before [`StreamDriver::fail`], [`StreamDriver::close`] and
    /// [`StreamDriver::finish`] emit. The session's own metrics, if
    /// attached, are flushed at the same points.
    #[must_use]
    pub fn observe_io(mut self, metrics: Option<Arc<IoMetrics>>) -> Self {
        self.io = metrics;
        self
    }

    /// The driven session.
    pub fn session(&self) -> &Session<'e> {
        &self.session
    }

    /// Give the session back.
    pub fn into_session(self) -> Session<'e> {
        self.session
    }

    /// Whether the current stream has applied an event since it began.
    pub fn is_open(&self) -> bool {
        self.open
    }

    /// Bytes of an unterminated line held back for more input.
    pub fn partial_len(&self) -> usize {
        self.decoder.partial_len()
    }

    /// Buffer one chunk of input.
    pub fn push(&mut self, bytes: &[u8]) {
        self.decoder.push(bytes);
    }

    /// The input has ended: an unterminated last line still counts as a
    /// line, and no byte is counted for its missing `\n`.
    pub fn end_input(&mut self) {
        self.decoder.end_input();
    }

    /// Apply the next run of regular event lines, or else the next complete
    /// line, emitting their records into `sink` (see the module docs).
    /// Returns `None` once every buffered line is applied.
    /// Fails with the first error `sink` returns.
    pub fn step(&mut self, sink: &mut impl RecordSink) -> io::Result<Option<Step>> {
        if self.step_run(sink)? {
            return Ok(Some(Step::Applied));
        }
        let parsed = match self.decoder.next_frame() {
            None => {
                self.flush_metrics();
                return Ok(None);
            }
            Some(Frame::Oversized { seen }) => Err((
                Fault::Protocol,
                format!("frame exceeds {MAX_FRAME_BYTES} bytes ({seen}+ seen); dropped"),
            )),
            Some(Frame::Line(line)) => {
                // Sampled by this line's number, `self.line + 1`.
                let timer = self
                    .io
                    .as_ref()
                    .filter(|_| (self.line + 1).is_multiple_of(DECODE_SAMPLE_EVERY))
                    .map(|io| (io, Instant::now()));
                let parsed = decode(line, self.out.format, self.out.voc);
                if let Some((io, started)) = timer {
                    io.decode_ns.record(nanos_since(started));
                }
                parsed
            }
        };
        self.line += 1;
        let input = match parsed {
            Ok(Some(input)) => input,
            Ok(None) => return Ok(Some(Step::Applied)),
            Err((fault, reason)) => return self.fail(fault, &reason, sink).map(Some),
        };
        let (Input::Event(time, _) | Input::End(time)) = input;
        let last = self.last_time;
        if time < last {
            let reason = match input {
                Input::Event(..) => format!("timestamp {time} precedes previous event at {last}"),
                Input::End(_) => format!("end time {time} precedes last event at {last}"),
            };
            return self.fail(Fault::Protocol, &reason, sink).map(Some);
        }
        self.last_time = time;
        let Input::Event(_, name) = input else {
            return Ok(Some(Step::End));
        };
        self.open = true;
        match name {
            Some(name) => self.session.ingest(TimedEvent::new(name, time)),
            None => self.session.advance_time(time),
        }
        self.drain(sink)?;
        if name.is_some() {
            self.heartbeat(sink)?;
        }
        Ok(Some(Step::Applied))
    }

    /// Apply the run of regular event lines at the head of the buffer, if
    /// there is one, with one batch call; returns whether it applied any.
    /// Fails with the first error `sink` returns.
    fn step_run(&mut self, sink: &mut impl RecordSink) -> io::Result<bool> {
        // The run stops at the next heartbeat multiple and, observed, at
        // the next sampled line, which is then the run's last.
        let mut room = RUN_LINES as u64;
        if let Some(every) = self.stats_every.filter(|&every| every > 0) {
            room = room.min(every - self.session.stats().events % every);
        }
        if self.io.is_some() {
            room = room.min(DECODE_SAMPLE_EVERY - self.line % DECODE_SAMPLE_EVERY);
        }
        let (format, voc) = (self.out.format, self.out.voc);
        let bytes = self.decoder.buffered();
        let (mut len, mut last) = (0, self.last_time);
        let mut sample = None;
        self.run.clear();
        while (self.run.len() as u64) < room {
            let line = self.line + self.run.len() as u64 + 1;
            let started =
                (self.io.is_some() && line.is_multiple_of(DECODE_SAMPLE_EVERY)).then(Instant::now);
            let rest = &bytes[len..];
            let Some(event) = lex_regular_event(format, rest) else {
                break;
            };
            // A line over the frame cap or back in time is the per-line
            // path's, as is a name no property uses.
            if event.len > MAX_FRAME_BYTES || event.time < last {
                break;
            }
            let Some(name) = voc.lookup_bytes(event.name) else {
                break;
            };
            if let Some(started) = started {
                sample = Some(nanos_since(started));
            }
            self.run.push(TimedEvent::new(name, event.time));
            last = event.time;
            len += event.len;
        }
        if self.run.is_empty() {
            return Ok(false);
        }
        let stepped = self.session.ingest_until_settled(&self.run);
        if stepped < self.run.len() {
            // The session settled mid-run: the lines after it stay
            // buffered, as if the caller had stopped at its line.
            len = bytes
                .split_inclusive(|&b| b == b'\n')
                .take(stepped)
                .map(<[u8]>::len)
                .sum();
            sample = None;
        }
        self.decoder.consume(stepped as u64, len);
        if let (Some(io), Some(ns)) = (&self.io, sample) {
            io.decode_ns.record(ns);
        }
        self.line += stepped as u64;
        self.last_time = self.run[stepped - 1].time;
        self.open = true;
        self.drain(sink)?;
        self.heartbeat(sink)?;
        Ok(true)
    }

    /// Emit a heartbeat if the event count has reached a multiple of the
    /// period. Each ingested event counts once, so the count lands on every
    /// multiple.
    fn heartbeat(&mut self, sink: &mut impl RecordSink) -> io::Result<()> {
        let events = self.session.stats().events;
        if self
            .stats_every
            .is_some_and(|every| events.is_multiple_of(every))
        {
            self.out.send(&Record::Stats(&self.session), sink)?;
        }
        Ok(())
    }

    /// Advance the session to the last time seen, emitting the verdicts
    /// that expire.
    /// Fails with the first error `sink` returns.
    pub fn advance(&mut self, sink: &mut impl RecordSink) -> io::Result<()> {
        self.session.advance_time(self.last_time);
        self.drain(sink)
    }

    /// Close the stream at the last time seen: the verdicts that finalize
    /// on close, one open-verdict record per property still open, then the
    /// summary.
    /// Fails with the first error `sink` returns.
    pub fn close(&mut self, sink: &mut impl RecordSink) -> io::Result<()> {
        self.close_session(sink)?;
        for id in 0..self.session.engine().len() {
            if !self.session.verdict(id).is_final() {
                let record = Record::Verdict(self.session.property_report(id));
                self.out.send(&record, sink)?;
            }
        }
        let summary = Record::Summary {
            session: &self.session,
            faults: self.faults,
        };
        self.out.send(&summary, sink)
    }

    /// Close the stream at the last time seen, emitting the verdicts that
    /// finalize on close, and return its report and end time: the batch
    /// ending, with no open-verdict or summary records.
    /// Fails with the first error `sink` returns.
    pub fn finish(&mut self, sink: &mut impl RecordSink) -> io::Result<(EngineReport, SimTime)> {
        self.close_session(sink)?;
        Ok((self.session.report(), self.last_time))
    }

    /// Begin the next stream on the same session and buffers. Input still
    /// buffered stays: it belongs to the next stream.
    pub fn reset(&mut self) {
        self.session.reset();
        self.out.stream = self.out.stream.map(|s| s + 1);
        self.line = 0;
        self.last_time = SimTime::ZERO;
        self.open = false;
        self.faults = 0;
    }

    /// Reject the current line with an error record — or cut the stream
    /// for a reason outside its bytes, such as a torn final frame. Fails
    /// with the error `sink` returns.
    pub fn fail(
        &mut self,
        fault: Fault,
        reason: &str,
        sink: &mut impl RecordSink,
    ) -> io::Result<Step> {
        self.faults += 1;
        if let Some(io) = &self.io {
            io.parse_errors.inc();
        }
        self.flush_metrics();
        let record = Record::Error {
            line: self.line,
            fault,
            reason,
        };
        self.out.send(&record, sink)?;
        Ok(Step::Fault(fault))
    }

    /// Close the session at the last time seen and emit the verdicts that
    /// finalize on close.
    fn close_session(&mut self, sink: &mut impl RecordSink) -> io::Result<()> {
        self.session.close(self.last_time);
        self.flush_metrics();
        self.drain(sink)
    }

    /// Add the lines and bytes the decoder consumed since the last flush to
    /// the I/O metrics, if observed, and flush the session's metrics, if
    /// attached.
    fn flush_metrics(&mut self) {
        let (lines, bytes) = self.decoder.take_counts();
        if let Some(io) = &self.io {
            io.lines.add(lines);
            io.bytes.add(bytes);
        }
        self.session.flush_metrics();
    }

    /// Emit the verdicts that went final since the last drain.
    fn drain(&mut self, sink: &mut impl RecordSink) -> io::Result<()> {
        self.session.drain_newly_final_into(&mut self.finalized);
        for &id in &self.finalized {
            let mut report = self.session.property_report(id as usize);
            report.witness = report
                .witness
                .filter(|w| !w.steps.is_empty() || w.dropped > 0);
            self.out.send(&Record::Verdict(report), sink)?;
        }
        Ok(())
    }
}

/// Nanoseconds since `started`, saturating.
fn nanos_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Properties violated so far: every one of them has had its verdict
/// record, since a violation is final.
fn violations(session: &Session<'_>) -> u64 {
    (0..session.engine().len())
        .filter(|&id| session.verdict(id) == Verdict::Violated)
        .count() as u64
}

/// Parse one framed line and resolve its name against `voc`.
fn decode(
    line: &[u8],
    format: StreamFormat,
    voc: &Vocabulary,
) -> Result<Option<Input>, (Fault, String)> {
    match parse_stream_line_bytes(format, line) {
        Ok(None) => Ok(None),
        Ok(Some(StreamLineRef::Event { time, name, .. })) => {
            Ok(Some(Input::Event(time, voc.lookup_bytes(name.as_bytes()))))
        }
        Ok(Some(StreamLineRef::End(time))) => Ok(Some(Input::End(time))),
        // Both grammars reject a line that is not UTF-8, so the check
        // costs nothing on lines that parse.
        Err(_) if std::str::from_utf8(line).is_err() => {
            Err((Fault::Encoding, "frame is not valid UTF-8".to_owned()))
        }
        Err(reason) => Err((Fault::Parse, reason)),
    }
}
