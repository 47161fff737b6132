//! Span tracing: Chrome trace-event JSON for offline timeline analysis.
//!
//! A [`Tracer`] collects *complete* (`"ph": "X"`) trace events — named,
//! categorized spans with microsecond start/duration — and renders them as
//! the JSON object format consumed by `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev). The CLI's `lomon profile` wraps its
//! compile/ingest/finish phases in spans and writes the file with
//! `--trace-out`; any other caller can do the same around its own phases.
//!
//! Like the rest of this crate, tracing is strictly additive: a span is a
//! [`SpanGuard`] that records itself on drop, so instrumented code reads
//! as straight-line code and an absent tracer costs nothing (no guard, no
//! clock reads).

use std::sync::Mutex;
use std::time::Instant;

use crate::json_escape;

/// One finished span: a Chrome trace-event `"X"` (complete) record.
#[derive(Debug, Clone)]
struct SpanRecord {
    name: String,
    category: &'static str,
    /// Start, µs since the tracer's epoch.
    start_us: u64,
    /// Duration, µs (Chrome truncates sub-µs durations to 0; keep spans
    /// coarse — phases and batches, not per-event work).
    dur_us: u64,
}

/// A collector of timed spans, rendered as Chrome trace-event JSON.
///
/// Interior-mutable (a mutex around the span list) so one tracer can be
/// shared by reference across phases without threading `&mut` through
/// every call site. Span recording is off the hot path by construction:
/// one lock per *span*, not per event.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A fresh tracer; all span timestamps are relative to this moment.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Start a span. The span records itself into the tracer when the
    /// returned guard is dropped (or explicitly [`SpanGuard::finish`]ed).
    pub fn span(&self, name: impl Into<String>, category: &'static str) -> SpanGuard<'_> {
        SpanGuard {
            tracer: self,
            name: name.into(),
            category,
            started: Instant::now(),
            armed: true,
        }
    }

    /// Number of finished spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("tracer lock").len()
    }

    /// Whether no span has finished yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn record(&self, name: String, category: &'static str, started: Instant) {
        let start_us = saturating_us(started.duration_since(self.epoch).as_micros());
        let dur_us = saturating_us(started.elapsed().as_micros());
        self.spans.lock().expect("tracer lock").push(SpanRecord {
            name,
            category,
            start_us,
            dur_us,
        });
    }

    /// Render every finished span as a Chrome trace-event JSON object
    /// (`{"traceEvents": [...]}`), loadable in `chrome://tracing` or
    /// Perfetto. Spans appear in finish order; the viewers sort by
    /// timestamp themselves.
    pub fn render_json(&self) -> String {
        let spans = self.spans.lock().expect("tracer lock");
        let mut out = String::from("{\"traceEvents\": [");
        for (k, s) in spans.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \
                 \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": 1}}",
                json_escape(&s.name),
                json_escape(s.category),
                s.start_us,
                s.dur_us,
            ));
        }
        out.push_str("]}");
        out
    }
}

fn saturating_us(us: u128) -> u64 {
    u64::try_from(us).unwrap_or(u64::MAX)
}

/// A running span; see [`Tracer::span`].
#[derive(Debug)]
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    name: String,
    category: &'static str,
    started: Instant,
    armed: bool,
}

impl SpanGuard<'_> {
    /// Finish the span now instead of at end of scope.
    pub fn finish(mut self) {
        self.armed = false;
        self.tracer
            .record(std::mem::take(&mut self.name), self.category, self.started);
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.tracer
                .record(std::mem::take(&mut self.name), self.category, self.started);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_on_drop_and_on_finish() {
        let tracer = Tracer::new();
        assert!(tracer.is_empty());
        {
            let _compile = tracer.span("compile", "phase");
        }
        tracer.span("ingest", "phase").finish();
        assert_eq!(tracer.len(), 2);
    }

    #[test]
    fn render_is_chrome_trace_shaped() {
        let tracer = Tracer::new();
        tracer.span("a \"quoted\" phase", "phase").finish();
        let json = tracer.render_json();
        assert!(json.starts_with("{\"traceEvents\": ["), "{json}");
        assert!(json.ends_with("]}"), "{json}");
        assert!(json.contains("\"ph\": \"X\""), "{json}");
        assert!(
            json.contains("\"name\": \"a \\\"quoted\\\" phase\""),
            "{json}"
        );
        assert!(json.contains("\"pid\": 1"), "{json}");
    }

    #[test]
    fn empty_tracer_renders_empty_list() {
        assert_eq!(Tracer::new().render_json(), "{\"traceEvents\": []}");
    }
}
