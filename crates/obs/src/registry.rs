//! The [`Registry`]: a named, labelled collection of metrics with
//! Prometheus text-format and NDJSON exposition.
//!
//! Registration takes a short mutex hold and returns an `Arc` to the
//! metric; the hot path then records through the `Arc` without ever
//! touching the registry again. Rendering walks the families in
//! registration order, so exposition output is deterministic for a fixed
//! registration sequence.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::json_escape;
use crate::metric::{bucket_upper, Counter, Gauge, Histogram, BUCKETS};

/// A `(key, value)` label pair attached to one metric series.
pub type Label = (&'static str, String);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

enum Value {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Family {
    name: &'static str,
    help: &'static str,
    kind: Kind,
    series: Vec<(Vec<Label>, Value)>,
}

/// A collection of named metrics, shared across threads behind an `Arc`.
///
/// Metric families are keyed by name; series within a family by their
/// label set. Registering the same `(name, labels)` twice returns the
/// existing metric, so independent subsystems can share a series safely.
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Family>> {
        // A poisoned mutex only means another thread panicked mid-scrape or
        // mid-registration; the data (Arc pointers) is still sound, and the
        // exposition server must never propagate a panic.
        self.families
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn register<M>(
        &self,
        name: &'static str,
        help: &'static str,
        kind: Kind,
        labels: Vec<Label>,
        wrap: impl Fn(Arc<M>) -> Value,
        unwrap: impl Fn(&Value) -> Option<Arc<M>>,
    ) -> Arc<M>
    where
        M: Default,
    {
        let mut families = self.lock();
        if let Some(family) = families.iter_mut().find(|f| f.name == name) {
            assert!(
                family.kind == kind,
                "metric {name} registered twice with different kinds \
                 ({} vs {})",
                family.kind.as_str(),
                kind.as_str()
            );
            if let Some((_, value)) = family.series.iter().find(|(l, _)| *l == labels) {
                return unwrap(value).expect("kind checked above");
            }
            let metric = Arc::new(M::default());
            family.series.push((labels, wrap(Arc::clone(&metric))));
            return metric;
        }
        let metric = Arc::new(M::default());
        families.push(Family {
            name,
            help,
            kind,
            series: vec![(labels, wrap(Arc::clone(&metric)))],
        });
        metric
    }

    /// Register (or fetch) an unlabelled counter.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Arc<Counter> {
        self.counter_with(name, help, Vec::new())
    }

    /// Register (or fetch) a counter with labels.
    pub fn counter_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: Vec<Label>,
    ) -> Arc<Counter> {
        self.register(
            name,
            help,
            Kind::Counter,
            labels,
            Value::Counter,
            |v| match v {
                Value::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        )
    }

    /// Register (or fetch) an unlabelled gauge.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Arc<Gauge> {
        self.gauge_with(name, help, Vec::new())
    }

    /// Register (or fetch) a gauge with labels.
    pub fn gauge_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: Vec<Label>,
    ) -> Arc<Gauge> {
        self.register(name, help, Kind::Gauge, labels, Value::Gauge, |v| match v {
            Value::Gauge(g) => Some(Arc::clone(g)),
            _ => None,
        })
    }

    /// Register (or fetch) an unlabelled histogram.
    pub fn histogram(&self, name: &'static str, help: &'static str) -> Arc<Histogram> {
        self.histogram_with(name, help, Vec::new())
    }

    /// Register (or fetch) a histogram with labels.
    pub fn histogram_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: Vec<Label>,
    ) -> Arc<Histogram> {
        self.register(
            name,
            help,
            Kind::Histogram,
            labels,
            Value::Histogram,
            |v| match v {
                Value::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        )
    }

    /// Render the whole registry in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` headers per family, one sample
    /// line per series, histograms expanded into cumulative `_bucket`
    /// series plus `_sum` and `_count`.
    pub fn render_prometheus(&self) -> String {
        let families = self.lock();
        let mut out = String::new();
        for family in families.iter() {
            let _ = writeln!(out, "# HELP {} {}", family.name, family.help);
            let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind.as_str());
            for (labels, value) in &family.series {
                match value {
                    Value::Counter(c) => {
                        let _ =
                            writeln!(out, "{}{} {}", family.name, render_labels(labels), c.get());
                    }
                    Value::Gauge(g) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            family.name,
                            render_labels(labels),
                            render_f64(g.get())
                        );
                    }
                    Value::Histogram(h) => {
                        render_histogram(&mut out, family.name, labels, h);
                    }
                }
            }
        }
        out
    }

    /// Render the whole registry as NDJSON: one JSON object per family per
    /// line, `{"name":…,"kind":…,"series":[{"labels":{…},"value":…},…]}`.
    /// Histogram series carry `count`, `sum`, and the non-empty buckets as
    /// `[upper, cumulative_count]` pairs.
    pub fn render_ndjson(&self) -> String {
        let families = self.lock();
        let mut out = String::new();
        for family in families.iter() {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"kind\":\"{}\",\"series\":[",
                family.name,
                family.kind.as_str()
            );
            for (i, (labels, value)) in family.series.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"labels\":{");
                for (j, (key, val)) in labels.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\":\"{}\"", json_escape(key), json_escape(val));
                }
                out.push_str("},");
                match value {
                    Value::Counter(c) => {
                        let _ = write!(out, "\"value\":{}", c.get());
                    }
                    Value::Gauge(g) => {
                        let _ = write!(out, "\"value\":{}", render_f64(g.get()));
                    }
                    Value::Histogram(h) => {
                        let _ = write!(
                            out,
                            "\"count\":{},\"sum\":{},\"buckets\":[",
                            h.count(),
                            h.sum()
                        );
                        let counts = h.bucket_counts();
                        let mut cumulative = 0u64;
                        let mut first = true;
                        for (index, n) in counts.iter().enumerate() {
                            if *n == 0 {
                                continue;
                            }
                            cumulative += n;
                            if !first {
                                out.push(',');
                            }
                            first = false;
                            let _ = write!(out, "[{},{}]", bucket_upper(index), cumulative);
                        }
                        out.push(']');
                    }
                }
                out.push('}');
            }
            out.push_str("]}\n");
        }
        out
    }
}

/// Render `{k="v",…}` with Prometheus label-value escaping, or the empty
/// string when there are no labels.
fn render_labels(labels: &[Label]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (key, value)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{key}=\"{}\"", prom_escape(value));
    }
    out.push('}');
    out
}

/// Escape a Prometheus label value: backslash, double-quote, newline.
fn prom_escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Render an `f64` the way Prometheus expects: integral values without a
/// trailing `.0`, non-finite values as `NaN`/`+Inf`/`-Inf`.
fn render_f64(value: f64) -> String {
    if value.is_nan() {
        "NaN".to_owned()
    } else if value.is_infinite() {
        if value > 0.0 { "+Inf" } else { "-Inf" }.to_owned()
    } else {
        format!("{value}")
    }
}

fn render_histogram(out: &mut String, name: &str, labels: &[Label], h: &Histogram) {
    let counts = h.bucket_counts();
    // Buckets past the last non-empty one add no information; render up to
    // it, then the mandatory +Inf bucket.
    let last = counts.iter().rposition(|&n| n > 0).map_or(0, |i| i + 1);
    let mut cumulative = 0u64;
    for (index, n) in counts.iter().enumerate().take(last.min(BUCKETS)) {
        cumulative += n;
        let mut with_le: Vec<Label> = labels.to_vec();
        with_le.push(("le", bucket_upper(index).to_string()));
        let _ = writeln!(out, "{name}_bucket{} {cumulative}", render_labels(&with_le));
    }
    let mut with_le: Vec<Label> = labels.to_vec();
    with_le.push(("le", "+Inf".to_owned()));
    let _ = writeln!(
        out,
        "{name}_bucket{} {}",
        render_labels(&with_le),
        h.count()
    );
    let _ = writeln!(out, "{name}_sum{} {}", render_labels(labels), h.sum());
    let _ = writeln!(out, "{name}_count{} {}", render_labels(labels), h.count());
}
