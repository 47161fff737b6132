//! Parallel simulation campaigns: shard episodes across workers, monitor
//! every episode stream through a per-worker engine [`Session`], and
//! aggregate the Bernoulli verdicts into statistical ones.
//!
//! ## Determinism
//!
//! A campaign's report is a pure function of `(model, seed, mode)` —
//! **never** of `jobs`, the batch size, or thread scheduling:
//!
//! * episode `k`'s randomness is the forked stream `master.fork(k)`, so an
//!   episode computes the same stream no matter which worker runs it;
//! * estimation aggregates integer success counts, which are
//!   partition-invariant sums;
//! * SPRT tests consume episode verdicts in episode-index order, with a
//!   fixed scheduling quantum (`SPRT_BATCH`), so the early-stopping point
//!   is the same for every worker count.
//!
//! ## Parallelism
//!
//! Workers are scoped `std::thread`s, re-joined at each scheduling-batch
//! boundary (the aggregation point). Each worker owns one [`Session`]
//! cloned from the shared compiled engine and one event buffer for the
//! *whole campaign*, rewound between episodes via [`Session::reset`] — the
//! per-episode cost is the simulation plus monitoring, with no per-episode
//! compilation or allocation churn. `crates/bench/src/bin/smc_scaling.rs`
//! measures the resulting speedup and gates it in CI.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngCore as _, SeedableRng};

use lomon_engine::{Backend, CompileError, DispatchStats, Engine, Session};
use lomon_trace::{json_escape, TimedEvent, Vocabulary};

use crate::estimate::{half_width, required_episodes};
use crate::metrics::CampaignMetrics;
use crate::model::EpisodeModel;
use crate::sprt::{Sprt, SprtConfig, SprtDecision};

/// What question the campaign answers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CampaignMode {
    /// Quantitative: run a fixed number of episodes and report each
    /// property's estimated satisfaction probability with its
    /// Chernoff–Hoeffding interval.
    Estimate {
        /// Episodes to run (e.g. from [`required_episodes`]).
        episodes: u64,
    },
    /// Qualitative: run Wald's SPRT per property, stopping as soon as
    /// every test has decided (or `max_episodes` is exhausted).
    Sprt {
        /// The shared test parameters.
        config: SprtConfig,
        /// Hard cap on episodes (undecided tests report `None`).
        max_episodes: u64,
    },
}

/// Campaign parameters. See [`Campaign`] for the run entry point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// Master seed; episode `k` uses the forked stream `seed → fork(k)`.
    pub seed: u64,
    /// Worker threads; `0` means all available cores. `lomon smc`
    /// refuses more than [`MAX_JOBS`].
    pub jobs: usize,
    /// Confidence level `1 − δ` of the reported intervals.
    pub confidence: f64,
    /// The question mode.
    pub mode: CampaignMode,
}

impl CampaignConfig {
    /// An estimation campaign with an explicit episode budget.
    pub fn estimate(seed: u64, episodes: u64) -> Self {
        CampaignConfig {
            seed,
            jobs: 0,
            confidence: 0.95,
            mode: CampaignMode::Estimate { episodes },
        }
    }

    /// An estimation campaign sized by the Okamoto bound: enough episodes
    /// for a `±epsilon` interval at the default 95% confidence.
    pub fn estimate_with_precision(seed: u64, epsilon: f64) -> Self {
        let confidence = 0.95;
        CampaignConfig {
            seed,
            jobs: 0,
            confidence,
            mode: CampaignMode::Estimate {
                episodes: required_episodes(epsilon, 1.0 - confidence),
            },
        }
    }

    /// An SPRT campaign (capped at 100 000 episodes by default).
    pub fn sprt(seed: u64, config: SprtConfig) -> Self {
        CampaignConfig {
            seed,
            jobs: 0,
            confidence: 0.95,
            mode: CampaignMode::Sprt {
                config,
                max_episodes: 100_000,
            },
        }
    }

    /// Override the worker count (`0` = all cores).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }
}

/// Why a campaign could not run.
#[derive(Debug, Clone)]
pub enum CampaignError {
    /// The model's property set failed to compile: every failure, and the
    /// vocabulary the compile interned their names into, which
    /// [`CompileError::display`] renders them against.
    Compile(Vec<CompileError>, Vocabulary),
    /// A configuration value is unusable.
    InvalidConfig(String),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Compile(errors, _) => {
                write!(f, "{} property(ies) failed to compile", errors.len())
            }
            CampaignError::InvalidConfig(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for CampaignError {}

/// The SPRT outcome for one property.
#[derive(Debug, Clone, PartialEq)]
pub struct SprtReport {
    /// The decision, or `None` if the episode cap ran out first.
    pub decision: Option<SprtDecision>,
    /// Episodes the test consumed before stopping.
    pub episodes_used: u64,
    /// The final log-likelihood ratio.
    pub llr: f64,
    /// The test parameters, echoed for the report.
    pub config: SprtConfig,
}

/// One property's statistical verdict.
///
/// The quantitative guarantee is the Chernoff–Hoeffding bound: with
/// probability at least [`PropertyEstimate::confidence`] (over the
/// campaign's sampling), the true satisfaction probability lies within
/// [`PropertyEstimate::half_width`] of [`PropertyEstimate::mean`] — see
/// [`PropertyEstimate::interval`]. The qualitative guarantee, when
/// [`PropertyEstimate::sprt`] is present, is Wald's: the decision is wrong
/// with probability at most `alpha` (a spurious `AcceptH1`) or `beta` (a
/// spurious `AcceptH0`) when the true probability lies outside the
/// indifference region `(p1, p0)`.
#[derive(Debug, Clone, PartialEq)]
pub struct PropertyEstimate {
    /// The property's source text.
    pub property: String,
    /// Episodes whose stream satisfied the property (verdict not
    /// `Violated` at end of episode).
    pub successes: u64,
    /// Episodes observed (= the campaign's consumed episodes).
    pub episodes: u64,
    /// The point estimate `successes / episodes`.
    pub mean: f64,
    /// Chernoff–Hoeffding half-width `ε = √(ln(2/δ)/2n)` at this sample
    /// size; `δ = 1 − confidence`.
    pub half_width: f64,
    /// The confidence level `1 − δ` the interval carries.
    pub confidence: f64,
    /// The SPRT outcome, in [`CampaignMode::Sprt`] campaigns.
    pub sprt: Option<SprtReport>,
}

impl PropertyEstimate {
    /// The confidence interval `[mean − ε, mean + ε]` clamped to `[0, 1]`.
    pub fn interval(&self) -> (f64, f64) {
        (
            (self.mean - self.half_width).max(0.0),
            (self.mean + self.half_width).min(1.0),
        )
    }

    /// Whether `p` lies inside [`PropertyEstimate::interval`].
    pub fn contains(&self, p: f64) -> bool {
        let (lo, hi) = self.interval();
        (lo..=hi).contains(&p)
    }
}

/// Aggregate outcome of a campaign.
///
/// Reports compare equal ([`PartialEq`]) exactly when the statistical
/// content is identical; worker count and wall-clock are deliberately not
/// recorded here, so determinism across `--jobs` is `assert_eq!`-able.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// The master seed the campaign ran with.
    pub seed: u64,
    /// Episodes actually consumed (early-stopped SPRT campaigns consume
    /// fewer than the cap).
    pub episodes: u64,
    /// Per-property statistical verdicts, in compilation order.
    pub properties: Vec<PropertyEstimate>,
    /// Interface events monitored across all consumed episodes. Kept as a
    /// top-level alias of `stats.events`.
    pub events: u64,
    /// Monitor steps the engine sessions performed (after indexed-dispatch
    /// skipping). Kept as a top-level alias of `stats.monitor_steps`.
    pub monitor_steps: u64,
    /// Full dispatch accounting summed over every consumed episode — the
    /// same canonical schema `check` and `watch` report. Partition
    /// invariant, so still identical across `--jobs`.
    pub stats: DispatchStats,
    /// Label of the monitor backend the campaign ran on: always the fused
    /// rulebook program's, `"fused"`.
    pub backend: &'static str,
}

impl CampaignReport {
    /// Whether every property's SPRT reached a decision (vacuously true
    /// for estimation campaigns).
    pub fn all_decided(&self) -> bool {
        self.properties
            .iter()
            .all(|p| p.sprt.as_ref().is_none_or(|s| s.decision.is_some()))
    }

    /// Whether any property's SPRT accepted `H1` (probability too low).
    pub fn any_rejected(&self) -> bool {
        self.properties.iter().any(|p| {
            p.sprt
                .as_ref()
                .is_some_and(|s| s.decision == Some(SprtDecision::AcceptH1))
        })
    }

    /// Multi-line human rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for p in &self.properties {
            let (lo, hi) = p.interval();
            let _ = writeln!(
                out,
                "  P[{}] = {:.4}  in [{:.4}, {:.4}] at {:.0}% confidence  ({}/{} episodes)",
                p.property,
                p.mean,
                lo,
                hi,
                p.confidence * 100.0,
                p.successes,
                p.episodes,
            );
            if let Some(sprt) = &p.sprt {
                let decision = match sprt.decision {
                    Some(d) => d.to_string(),
                    None => "undecided (episode cap reached)".to_owned(),
                };
                let _ = writeln!(
                    out,
                    "      SPRT p0={} p1={}: {decision} after {} episodes (llr {:.3})",
                    sprt.config.p0, sprt.config.p1, sprt.episodes_used, sprt.llr,
                );
            }
        }
        let _ = writeln!(
            out,
            "  campaign: {} episodes, {} events, {} monitor steps, seed {}",
            self.episodes, self.events, self.monitor_steps, self.seed,
        );
        out
    }

    /// One-line JSON rendering for machine consumers (`lomon smc --format
    /// json`): the per-property estimates (with their SPRT outcomes, when
    /// present) and the campaign totals. Deterministic for a given report,
    /// so piping it through `diff` across `--jobs` values is a valid
    /// determinism check.
    pub fn render_json(&self) -> String {
        // Shortest-roundtrip float rendering; a non-finite value (only
        // possible in a degenerate zero-episode campaign) becomes `null`.
        fn num(x: f64) -> String {
            if x.is_finite() {
                format!("{x}")
            } else {
                "null".to_owned()
            }
        }
        let mut out = String::from("{\"properties\": [");
        for (k, p) in self.properties.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            let (lo, hi) = p.interval();
            let _ = write!(
                out,
                "{{\"property\": \"{}\", \"successes\": {}, \"episodes\": {}, \
                 \"mean\": {}, \"half_width\": {}, \"interval\": [{}, {}], \
                 \"confidence\": {}",
                json_escape(&p.property),
                p.successes,
                p.episodes,
                num(p.mean),
                num(p.half_width),
                num(lo),
                num(hi),
                num(p.confidence),
            );
            if let Some(sprt) = &p.sprt {
                let decision = match sprt.decision {
                    Some(d) => format!("\"{d}\""),
                    None => "null".to_owned(),
                };
                let _ = write!(
                    out,
                    ", \"sprt\": {{\"p0\": {}, \"p1\": {}, \"decision\": {decision}, \
                     \"episodes_used\": {}, \"llr\": {}}}",
                    num(sprt.config.p0),
                    num(sprt.config.p1),
                    sprt.episodes_used,
                    num(sprt.llr),
                );
            }
            out.push('}');
        }
        // Property-episodes that ended violated — the `violations` slot of
        // the canonical stats object.
        let violations: u64 = self
            .properties
            .iter()
            .map(|p| p.episodes - p.successes)
            .sum();
        let _ = write!(
            out,
            "], \"seed\": {}, \"episodes\": {}, \"events\": {}, \
             \"monitor_steps\": {}, \"all_decided\": {}, \"any_rejected\": {}, \
             \"stats\": {}}}",
            self.seed,
            self.episodes,
            self.events,
            self.monitor_steps,
            self.all_decided(),
            self.any_rejected(),
            self.stats.render_json_object(self.backend, violations),
        );
        out
    }
}

/// A progress snapshot handed to the [`Campaign::run_observed`] observer
/// after each scheduling batch is aggregated. Batch boundaries are
/// jobs-independent, so for a fixed seed the observer sees the same
/// sequence of snapshots no matter the worker count.
#[derive(Debug, Clone, Copy)]
pub struct CampaignProgress<'a> {
    /// Episodes consumed so far.
    pub episodes: u64,
    /// The campaign's episode budget (the cap, for SPRT campaigns).
    pub planned: u64,
    /// Per-property success counts so far, in compilation order.
    pub successes: &'a [u64],
    /// The Chernoff–Hoeffding half-width at the current sample size.
    pub half_width: f64,
    /// SPRT tests still undecided; `None` for estimation campaigns.
    pub sprt_undecided: Option<usize>,
}

/// One worker's campaign-lifetime state: an engine session and a stream
/// buffer, both rewound (not reallocated) between episodes.
#[derive(Debug)]
struct Worker<'e> {
    session: Session<'e>,
    buffer: Vec<TimedEvent>,
}

/// One episode's digest, produced by a worker and consumed by the
/// (sequential, index-ordered) aggregator.
#[derive(Debug, Clone)]
struct EpisodeResult {
    /// Per-property satisfaction (`verdict.is_ok()` at end of episode).
    satisfied: Vec<bool>,
    events: u64,
    monitor_steps: u64,
    steps_skipped: u64,
    shared_hits: u64,
    retired: u64,
}

/// A compiled campaign: the model, the shared engine, and the config.
///
/// ```
/// use lomon_smc::{Campaign, CampaignConfig, ScenarioModel};
/// use lomon_tlm::scenario::ScenarioConfig;
///
/// let model = ScenarioModel::new(ScenarioConfig::nominal(1));
/// let report = Campaign::new(&model, CampaignConfig::estimate(7, 4).with_jobs(2))
///     .expect("case-study properties compile")
///     .run();
/// assert_eq!(report.episodes, 4);
/// // Fault-free scenarios satisfy both case-study properties.
/// assert!(report.properties.iter().all(|p| p.mean == 1.0));
/// ```
#[derive(Debug)]
pub struct Campaign<'m, M: EpisodeModel + ?Sized> {
    model: &'m M,
    engine: Engine,
    config: CampaignConfig,
    /// Live telemetry, if attached. Workers flush their sessions' dispatch
    /// deltas into it; the aggregator updates the campaign gauges at batch
    /// boundaries. Never consulted by the statistics themselves.
    metrics: Option<Arc<CampaignMetrics>>,
}

/// The fixed scheduling quantum of SPRT campaigns: episodes are dispatched
/// to workers in batches of this many, and the early-stopping point is
/// evaluated at episode granularity *within* a batch. The size is a
/// constant — never derived from the worker count — which keeps the
/// stopping point (and so the whole report) identical across `--jobs`.
const SPRT_BATCH: u64 = 64;

/// The scheduling quantum of estimation campaigns. Estimation never stops
/// early and aggregates partition-invariant sums, so the quantum only
/// bounds the in-flight result memory; a large one amortizes the
/// per-batch thread spawns over more episodes.
const ESTIMATE_BATCH: u64 = 4096;

impl<'m, M: EpisodeModel + ?Sized> Campaign<'m, M> {
    /// Compile the model's property set and validate the configuration.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Compile`] lists *every* failing property;
    /// [`CampaignError::InvalidConfig`] reports an unusable parameter.
    pub fn new(model: &'m M, config: CampaignConfig) -> Result<Self, CampaignError> {
        if !(config.confidence > 0.0 && config.confidence < 1.0) {
            return Err(CampaignError::InvalidConfig(format!(
                "confidence {} out of (0,1)",
                config.confidence
            )));
        }
        let texts = model.properties();
        if texts.is_empty() {
            return Err(CampaignError::InvalidConfig(
                "the model monitors no properties".into(),
            ));
        }
        let mut vocabulary = model.vocabulary();
        let engine = Engine::compile(&texts, &mut vocabulary)
            .map_err(|errors| CampaignError::Compile(errors, vocabulary))?;
        Ok(Campaign {
            model,
            engine,
            config,
            metrics: None,
        })
    }

    /// Attach live telemetry (from [`CampaignMetrics::register`]): worker
    /// sessions flush dispatch deltas into the shared registry, episode
    /// durations land in the histogram, and the estimate gauges update at
    /// every batch boundary. Reports stay bit-identical with or without a
    /// registry attached.
    pub fn attach_metrics(&mut self, metrics: Arc<CampaignMetrics>) {
        self.metrics = Some(metrics);
    }

    /// The compiled engine (e.g. to inspect alphabets).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Run the campaign to completion and report.
    pub fn run(&self) -> CampaignReport {
        self.run_observed(&mut |_| {})
    }

    /// [`Campaign::run`] with a progress observer: after each scheduling
    /// batch is aggregated the observer receives a [`CampaignProgress`]
    /// snapshot. Batches are the jobs-independent quanta (64 episodes
    /// under SPRT, 4096 under estimation), so the snapshot sequence — like
    /// the report — is a pure function of `(model, seed, mode)`.
    pub fn run_observed(&self, observer: &mut dyn FnMut(CampaignProgress<'_>)) -> CampaignReport {
        let jobs = effective_jobs(self.config.jobs);
        let master = StdRng::seed_from_u64(self.config.seed);
        let n_props = self.engine.len();
        let delta = 1.0 - self.config.confidence;

        let (total, batch, mut sprts): (u64, u64, Option<Vec<Sprt>>) = match self.config.mode {
            CampaignMode::Estimate { episodes } => (episodes, ESTIMATE_BATCH, None),
            CampaignMode::Sprt {
                config,
                max_episodes,
            } => (
                max_episodes,
                SPRT_BATCH,
                Some((0..n_props).map(|_| Sprt::new(config)).collect()),
            ),
        };

        let mut successes = vec![0u64; n_props];
        let mut consumed = 0u64;
        let mut stats = DispatchStats {
            properties: n_props as u64,
            ..DispatchStats::default()
        };
        {
            let sharing = self.engine.sharing();
            stats.total_cells = sharing.total_cells;
            stats.unique_cells = sharing.unique_cells;
        }

        if let Some(m) = &self.metrics {
            #[allow(clippy::cast_precision_loss)]
            m.planned.set(total as f64);
            let undecided = if sprts.is_some() { n_props } else { 0 };
            #[allow(clippy::cast_precision_loss)]
            m.sprt_undecided.set(undecided as f64);
        }

        // One session + stream buffer per worker for the whole campaign:
        // `reset()` rewinds them between episodes, so the monitor clones
        // and event allocations happen `jobs` times, not per episode or
        // per batch.
        let mut workers: Vec<Worker<'_>> = (0..jobs)
            .map(|_| {
                let mut session = self.engine.session();
                if let Some(m) = &self.metrics {
                    session.attach_metrics(Arc::clone(&m.session));
                }
                Worker {
                    session,
                    buffer: Vec::new(),
                }
            })
            .collect();

        let mut next = 0u64;
        while next < total {
            let len = batch.min(total - next);
            let results = self.run_batch(&master, next, len, &mut workers);
            next += len;
            let batch_start = consumed;
            let mut decided_early = false;
            for result in &results {
                consumed += 1;
                stats.events += result.events;
                stats.monitor_steps += result.monitor_steps;
                stats.steps_skipped += result.steps_skipped;
                stats.shared_hits += result.shared_hits;
                stats.retired += result.retired;
                for (id, &ok) in result.satisfied.iter().enumerate() {
                    if ok {
                        successes[id] += 1;
                    }
                    if let Some(sprts) = &mut sprts {
                        sprts[id].observe(ok);
                    }
                }
                if let Some(sprts) = &sprts {
                    if sprts.iter().all(|s| s.decision().is_some()) {
                        decided_early = true;
                        break;
                    }
                }
            }
            let undecided = sprts
                .as_ref()
                .map(|sprts| sprts.iter().filter(|s| s.decision().is_none()).count());
            let current_half_width = half_width(consumed, delta);
            if let Some(m) = &self.metrics {
                m.episodes.add(consumed - batch_start);
                m.batches.inc();
                #[allow(clippy::cast_precision_loss)]
                m.sprt_undecided.set(undecided.unwrap_or(0) as f64);
                for (id, &succ) in successes.iter().enumerate() {
                    #[allow(clippy::cast_precision_loss)]
                    let mean = if consumed == 0 {
                        0.0
                    } else {
                        succ as f64 / consumed as f64
                    };
                    m.means[id].set(mean);
                    m.half_widths[id].set(current_half_width);
                }
            }
            observer(CampaignProgress {
                episodes: consumed,
                planned: total,
                successes: &successes,
                half_width: current_half_width,
                sprt_undecided: undecided,
            });
            if decided_early {
                break;
            }
        }

        let properties = (0..n_props)
            .map(|id| {
                let mean = if consumed == 0 {
                    0.0
                } else {
                    successes[id] as f64 / consumed as f64
                };
                PropertyEstimate {
                    property: self.engine.property_display(id).to_owned(),
                    successes: successes[id],
                    episodes: consumed,
                    mean,
                    half_width: half_width(consumed, delta),
                    confidence: self.config.confidence,
                    sprt: sprts.as_ref().map(|sprts| SprtReport {
                        decision: sprts[id].decision(),
                        episodes_used: sprts[id].trials(),
                        llr: sprts[id].llr(),
                        config: sprts[id].config(),
                    }),
                }
            })
            .collect();

        CampaignReport {
            seed: self.config.seed,
            episodes: consumed,
            properties,
            events: stats.events,
            monitor_steps: stats.monitor_steps,
            stats,
            backend: Backend::Fused.label(),
        }
    }

    /// Run episodes `start .. start+len` across the workers and return
    /// their results in episode order.
    fn run_batch(
        &self,
        master: &StdRng,
        start: u64,
        len: u64,
        workers: &mut [Worker<'_>],
    ) -> Vec<EpisodeResult> {
        let len_usize = len as usize;
        let mut slots: Vec<Option<EpisodeResult>> = vec![None; len_usize];
        let chunk = len_usize.div_ceil(workers.len());
        std::thread::scope(|scope| {
            for ((w, slot_chunk), worker) in
                slots.chunks_mut(chunk).enumerate().zip(workers.iter_mut())
            {
                let first = start + (w * chunk) as u64;
                scope.spawn(move || {
                    for (offset, slot) in slot_chunk.iter_mut().enumerate() {
                        let k = first + offset as u64;
                        *slot = Some(self.run_episode(
                            master,
                            k,
                            &mut worker.session,
                            &mut worker.buffer,
                        ));
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every batch slot filled"))
            .collect()
    }

    /// Run one episode: derive its stream, simulate, monitor, digest.
    fn run_episode(
        &self,
        master: &StdRng,
        episode: u64,
        session: &mut Session<'_>,
        buffer: &mut Vec<TimedEvent>,
    ) -> EpisodeResult {
        let seed = master.fork(episode).next_u64();
        // Wall-clock is telemetry-only (never part of the report), so the
        // Instant reads happen only with a registry attached.
        let started = self.metrics.as_ref().map(|_| Instant::now());
        buffer.clear();
        let end = self.model.episode(seed, buffer);
        session.reset();
        session.ingest_batch(buffer);
        session.close(end);
        if let (Some(started), Some(m)) = (started, &self.metrics) {
            m.episode_duration_ns
                .record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        let stats = *session.stats();
        EpisodeResult {
            satisfied: (0..self.engine.len())
                .map(|id| session.verdict(id).is_ok())
                .collect(),
            events: stats.events,
            monitor_steps: stats.monitor_steps,
            steps_skipped: stats.steps_skipped,
            shared_hits: stats.shared_hits,
            retired: stats.retired,
        }
    }
}

/// The most workers a campaign may ask for: each builds its own session,
/// and each non-empty chunk of a batch runs on its own thread.
pub const MAX_JOBS: usize = 1024;

/// Resolve `0` to the machine's available parallelism.
pub fn effective_jobs(jobs: usize) -> usize {
    if jobs > 0 {
        return jobs;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}
