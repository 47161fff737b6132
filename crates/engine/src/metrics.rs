//! Telemetry sink for [`Session`](crate::Session)s: the engine-level
//! metric families and the watermark bookkeeping that turns cumulative
//! [`DispatchStats`](crate::DispatchStats) into per-batch deltas.
//!
//! Instrumentation follows the non-intrusive-observation principle: the
//! dispatch hot loops are untouched. A session with a sink attached
//! flushes *deltas at batch boundaries* — the end of `ingest_batch`,
//! `advance_time` and `close`, just before `reset`, and wherever its
//! caller calls `Session::flush_metrics` — so the per-event cost of a live
//! registry is a few relaxed atomic adds amortized over the whole batch.
//! `ingest` steps one event and does not flush: the stream driver, which
//! steps every surface's events one at a time, flushes once per buffered
//! chunk of input instead, and before it emits an error record, a close or
//! a finish. `obs_overhead --check` in `lomon-bench` gates both the batch
//! path and the driver at ≤ 1.10× their uninstrumented runs.

use std::sync::Arc;

use lomon_core::verdict::Verdict;
use lomon_obs::{Counter, Gauge, Registry};

/// The engine's metric families, registered once per registry and shared
/// by every session attached to it (deltas add up across sessions and
/// across SMC workers).
#[derive(Debug)]
pub struct SessionMetrics {
    /// `lomon_events_total`: events ingested.
    pub events: Arc<Counter>,
    /// `lomon_monitor_steps_total`: monitor steps performed.
    pub monitor_steps: Arc<Counter>,
    /// `lomon_steps_skipped_total`: live-monitor steps the index avoided.
    pub steps_skipped: Arc<Counter>,
    /// `lomon_shared_hits_total`: properties served by a fused step beyond
    /// the first.
    pub shared_hits: Arc<Counter>,
    /// `lomon_retirements_total`: units retired (verdict went final).
    pub retirements: Arc<Counter>,
    /// `lomon_streams_total`: streams closed (one per `close`/`finish`).
    pub streams: Arc<Counter>,
    /// `lomon_properties_live`: live (not retired) properties of the most
    /// recently flushed session.
    pub properties_live: Arc<Gauge>,
    /// `lomon_verdicts_total{verdict=…}`: per-property final-report
    /// verdicts by kind, counted once per closed stream. Indexed by
    /// [`verdict_slot`].
    pub verdicts: [Arc<Counter>; 4],
}

/// The `verdicts` array slot for a verdict kind.
fn verdict_slot(verdict: Verdict) -> usize {
    match verdict {
        Verdict::Satisfied => 0,
        Verdict::PresumablySatisfied => 1,
        Verdict::Pending => 2,
        Verdict::Violated => 3,
    }
}

const VERDICT_LABELS: [&str; 4] = ["satisfied", "presumably satisfied", "pending", "violated"];

impl SessionMetrics {
    /// Register (or fetch) the engine metric families in `registry`.
    pub fn register(registry: &Registry) -> Arc<Self> {
        let verdicts = std::array::from_fn(|slot| {
            registry.counter_with(
                "lomon_verdicts_total",
                "Per-property verdicts at stream close, by kind",
                vec![("verdict", VERDICT_LABELS[slot].to_owned())],
            )
        });
        Arc::new(SessionMetrics {
            events: registry.counter("lomon_events_total", "Events ingested"),
            monitor_steps: registry.counter(
                "lomon_monitor_steps_total",
                "Monitor steps performed (observe and deadline sweeps)",
            ),
            steps_skipped: registry.counter(
                "lomon_steps_skipped_total",
                "Live-monitor steps avoided by event-indexed dispatch",
            ),
            shared_hits: registry.counter(
                "lomon_shared_hits_total",
                "Properties served by a shared fused step beyond the first",
            ),
            retirements: registry.counter(
                "lomon_retirements_total",
                "Properties retired (verdict went final before close)",
            ),
            streams: registry.counter("lomon_streams_total", "Event streams closed"),
            properties_live: registry.gauge(
                "lomon_properties_live",
                "Live (not yet final) properties of the last flushed session",
            ),
            verdicts,
        })
    }

    /// The counter for one verdict kind.
    pub fn verdict_counter(&self, verdict: Verdict) -> &Counter {
        &self.verdicts[verdict_slot(verdict)]
    }
}

/// A session's attachment to a [`SessionMetrics`] bundle: the shared
/// counters plus the high-water marks already flushed, so each flush adds
/// only the delta since the previous one.
#[derive(Debug, Clone)]
pub(crate) struct MetricsSink {
    pub(crate) metrics: Arc<SessionMetrics>,
    pub(crate) flushed: FlushedMarks,
}

#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FlushedMarks {
    pub(crate) events: u64,
    pub(crate) monitor_steps: u64,
    pub(crate) steps_skipped: u64,
    pub(crate) shared_hits: u64,
    pub(crate) retired: u64,
}

impl MetricsSink {
    pub(crate) fn new(metrics: Arc<SessionMetrics>) -> Self {
        MetricsSink {
            metrics,
            flushed: FlushedMarks::default(),
        }
    }
}
