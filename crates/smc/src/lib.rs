//! # lomon-smc — parallel statistical model checking of loose-ordering
//! properties
//!
//! The paper monitors one SystemC/TLM execution; this crate scales the
//! question up, following Ngo & Legay's statistical model checking of
//! SystemC designs: run **many** seed-randomized executions of the virtual
//! platform, monitor every episode's event stream with the `lomon-engine`
//! subsystem, and aggregate the per-episode Bernoulli verdicts into
//! *quantitative* answers —
//!
//! * **estimation** ([`estimate`]): the satisfaction probability of each
//!   property with a Chernoff–Hoeffding confidence interval, sized a
//!   priori by the Okamoto bound;
//! * **hypothesis testing** ([`sprt`]): Wald's sequential probability
//!   ratio test (`H0: p ≥ p0` vs `H1: p ≤ p1`) with early stopping, for
//!   the qualitative "often enough?" question at a fraction of the
//!   fixed-size episode cost.
//!
//! A [`Campaign`] shards episodes across `std::thread` workers, each
//! owning one engine [`lomon_engine::Session`] that is
//! [`reset`](lomon_engine::Session::reset) between episodes — compile
//! once, simulate and monitor millions of times. Episode `k` draws all of
//! its randomness from the forked RNG stream `master.fork(k)`, so
//! **reports are identical for every worker count**; `lomon smc --jobs`
//! only changes wall-clock time (measured and gated by
//! `crates/bench/src/bin/smc_scaling.rs`).
//!
//! ## Example
//!
//! Estimate how often the platform still satisfies the case-study
//! properties when every fifth episode injects a random fault:
//!
//! ```
//! use lomon_smc::{Campaign, CampaignConfig, ScenarioModel};
//! use lomon_tlm::scenario::ScenarioConfig;
//!
//! let model = ScenarioModel::new(ScenarioConfig::nominal(1))
//!     .with_fault_probability(0.2);
//! let campaign = Campaign::new(&model, CampaignConfig::estimate(42, 32))
//!     .expect("case-study properties compile");
//! let report = campaign.run();
//! assert_eq!(report.episodes, 32);
//! for estimate in &report.properties {
//!     let (lo, hi) = estimate.interval();
//!     assert!(lo <= estimate.mean && estimate.mean <= hi);
//! }
//! ```

pub mod campaign;
pub mod estimate;
pub mod metrics;
pub mod model;
pub mod sprt;

pub use campaign::{
    effective_jobs, Campaign, CampaignConfig, CampaignError, CampaignMode, CampaignProgress,
    CampaignReport, PropertyEstimate, SprtReport, MAX_JOBS,
};
pub use metrics::CampaignMetrics;
pub use model::{EpisodeModel, GenModel, ScenarioModel};
pub use sprt::{Sprt, SprtConfig, SprtDecision};
