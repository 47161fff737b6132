//! # lomon-obs — zero-overhead telemetry for the lomon workspace
//!
//! A hand-rolled, dependency-free metrics subsystem: a [`Registry`] of
//! named atomic [`Counter`]s, [`Gauge`]s, and log-bucketed
//! [`Histogram`]s, rendered as Prometheus text ([`Registry::render_prometheus`])
//! or NDJSON snapshots ([`Registry::render_ndjson`]), served over a
//! minimal background-thread HTTP listener ([`MetricsServer`]: the metrics
//! routes on an [`Endpoint`], the one HTTP endpoint that the `lomon
//! serve` admin routes run on too), timed with a [`Stopwatch`] span API,
//! and — for offline timeline analysis — traced with a [`Tracer`] that
//! renders its spans as Chrome trace-event JSON (`chrome://tracing` /
//! Perfetto).
//!
//! The design constraint, following NISTT's non-intrusive-observation
//! principle, is that instrumentation must not perturb the system under
//! observation: every record operation is a relaxed atomic with no
//! allocation, and the engine/SMC integrations flush *deltas at batch
//! boundaries* rather than touching atomics per event — `obs_overhead
//! --check` in `lomon-bench` gates the instrumented fused hot path at
//! ≤ 1.10× the uninstrumented one.

#![warn(missing_docs)]

mod http;
mod metric;
mod registry;
mod server;
mod stopwatch;
mod tracer;

pub use http::{Endpoint, Request, Response};
pub use metric::{bucket_index, bucket_upper, Counter, Gauge, Histogram, BUCKETS};
pub use registry::{Label, Registry};
pub use server::MetricsServer;
pub use stopwatch::Stopwatch;
pub use tracer::{SpanGuard, Tracer};
