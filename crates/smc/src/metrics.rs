//! Telemetry for running campaigns: live episode counters, per-property
//! estimate gauges, SPRT progress, and per-episode duration — everything
//! a `/metrics` scrape needs to watch a million-episode campaign converge.
//!
//! All families are registered up front (at [`CampaignMetrics::register`]
//! time), so a scrape that races the campaign start still sees every
//! family; the values simply read zero until the first batch lands.
//! Workers publish through the shared engine [`SessionMetrics`] sink, and
//! the aggregator updates the campaign-level gauges at the jobs-independent
//! batch boundaries only — telemetry never participates in the
//! determinism-sensitive statistics.

use std::sync::Arc;

use lomon_engine::SessionMetrics;
use lomon_obs::{Counter, Gauge, Histogram, Registry};

/// The campaign-level metric families, plus the engine session sink the
/// workers flush into.
#[derive(Debug)]
pub struct CampaignMetrics {
    /// `lomon_smc_episodes_total`: episodes consumed so far.
    pub episodes: Arc<Counter>,
    /// `lomon_smc_episodes_planned`: the campaign's episode budget (the
    /// cap, for SPRT campaigns that may stop early).
    pub planned: Arc<Gauge>,
    /// `lomon_smc_batches_total`: scheduling batches aggregated.
    pub batches: Arc<Counter>,
    /// `lomon_smc_episode_duration_ns`: wall-clock per episode (simulate +
    /// monitor), recorded by the worker that ran it.
    pub episode_duration_ns: Arc<Histogram>,
    /// `lomon_smc_sprt_undecided`: SPRT tests still running (0 for
    /// estimation campaigns).
    pub sprt_undecided: Arc<Gauge>,
    /// `lomon_smc_mean{property=…}`: each property's current point
    /// estimate, indexed by compilation order.
    pub means: Vec<Arc<Gauge>>,
    /// `lomon_smc_half_width{property=…}`: the Chernoff–Hoeffding
    /// half-width at the current sample size.
    pub half_widths: Vec<Arc<Gauge>>,
    /// The engine-session families the workers flush their dispatch deltas
    /// into.
    pub session: Arc<SessionMetrics>,
}

impl CampaignMetrics {
    /// Register (or fetch) the campaign metric families in `registry`,
    /// with one mean/half-width gauge per property.
    pub fn register(registry: &Registry, n_props: usize) -> Arc<Self> {
        let series = |name, help| {
            (0..n_props)
                .map(|id| registry.gauge_with(name, help, vec![("property", id.to_string())]))
                .collect()
        };
        Arc::new(CampaignMetrics {
            episodes: registry.counter("lomon_smc_episodes_total", "Episodes consumed"),
            planned: registry.gauge(
                "lomon_smc_episodes_planned",
                "Episode budget of the running campaign",
            ),
            batches: registry.counter("lomon_smc_batches_total", "Scheduling batches aggregated"),
            episode_duration_ns: registry.histogram(
                "lomon_smc_episode_duration_ns",
                "Wall-clock nanoseconds per episode (simulate + monitor)",
            ),
            sprt_undecided: registry.gauge(
                "lomon_smc_sprt_undecided",
                "SPRT tests not yet decided (0 when estimating)",
            ),
            means: series(
                "lomon_smc_mean",
                "Current per-property satisfaction estimate",
            ),
            half_widths: series(
                "lomon_smc_half_width",
                "Chernoff-Hoeffding half-width at the current sample size",
            ),
            session: SessionMetrics::register(registry),
        })
    }
}
