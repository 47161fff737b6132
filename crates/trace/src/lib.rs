//! Interface names, simulated time, timed events and traces.
//!
//! This crate is the shared vocabulary of the whole `lomon` workspace. The
//! loose-ordering patterns of the DATE 2016 paper ("Efficient Monitoring of
//! Loose-Ordering Properties for SystemC/TLM", Romenska & Maraninchi) are
//! written over the *input/output interface* `(I, O)` of a component: an
//! event is the occurrence of one interface **name** (such as `set_imgAddr`
//! or `start`) at one instant of **simulated time**. Everything downstream —
//! the direct monitors, the PSL baseline, the stimuli generator and the
//! virtual platform — exchanges the types defined here:
//!
//! * [`Name`] — a cheap interned symbol for one interface name;
//! * [`Vocabulary`] — the interner, which also records each name's
//!   [`Direction`] (input or output, needed by the well-formedness rules);
//! * [`SimTime`] — simulated time as an integer number of picoseconds;
//! * [`TimedEvent`] — one name occurrence with its timestamp;
//! * [`Trace`] — a time-ordered sequence of events with projection and
//!   text-file I/O;
//! * [`RunLengthLexer`] — the "lexical analyzer" of the paper's Section 5
//!   that rewrites maximal runs `n…n` into per-length tokens, used by the
//!   translation of ranges to PSL.
//!
//! # Example
//!
//! ```
//! use lomon_trace::{Direction, SimTime, Trace, Vocabulary};
//!
//! let mut voc = Vocabulary::new();
//! let set_addr = voc.intern("set_imgAddr", Direction::Input);
//! let start = voc.intern("start", Direction::Input);
//!
//! let trace = Trace::from_pairs([(SimTime::from_ns(10), set_addr),
//!                                (SimTime::from_ns(25), start)]);
//! assert_eq!(trace.len(), 2);
//! assert_eq!(voc.resolve(trace.events()[1].name), "start");
//! ```

pub mod event;
pub mod frame;
pub mod io;
pub mod json;
pub mod lexer;
pub mod mmap;
pub mod name;
pub mod ndjson;
pub mod time;
pub mod trace;
pub mod vcd;
pub mod wire;

pub use event::TimedEvent;
pub use frame::{Frame, FrameDecoder, MAX_FRAME_BYTES};
pub use io::{
    parse_trace_line, read_trace, read_trace_observed, write_trace, IoMetrics, TraceLine,
    TraceParseError,
};
pub use json::json_escape;
pub use lexer::{LexedEvent, LexedToken, RunLengthLexer};
pub use mmap::MappedFile;
pub use name::{Direction, Name, NameSet, Vocabulary};
pub use ndjson::{
    parse_ndjson_line_ref, parse_stream_line, parse_stream_line_bytes, parse_stream_line_ref,
    StreamFormat, StreamLine, StreamLineRef,
};
pub use time::SimTime;
pub use trace::Trace;
pub use vcd::write_vcd;
pub use wire::{
    byte_lines, decode_events_into, decode_events_into_observed, parse_trace_line_bytes,
    read_trace_bytes, read_trace_bytes_into, read_trace_bytes_observed, DecodeSummary,
};
