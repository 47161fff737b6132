//! In-memory span recorder: each span has a name, a start, an end, a
//! parent and the amount of work it covered. Spans wrap batches (a whole
//! buffer, a set of streams), never single events, and are written out as
//! Chrome trace-event JSON once the run ends.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    work: u64,
    unit: &'static str,
}

#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// With recording off, `time` runs the closure and records nothing.
    pub recording: bool,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            recording: true,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name` covering `work` units; spans
    /// opened inside `f` become its children.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        work: u64,
        unit: &'static str,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> T {
        if !self.recording {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            work,
            unit,
        });
        self.open.push(id);
        self.spans[id].start_ns = self.now_ns();
        let out = f(self);
        self.spans[id].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    /// Chrome trace-event JSON (complete `X` events, microseconds), with
    /// each span's id, parent id, work and unit under `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 2, \"tid\": 1, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {id}, \"parent\": {parent}, \
                 \"work\": {}, \"unit\": \"{}\"}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.work,
                s.unit,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
