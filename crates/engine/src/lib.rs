//! # lomon-engine — streaming multi-property monitoring
//!
//! The paper's headline claim is that direct (Drct) recognizers make
//! loose-ordering monitoring cheap enough to leave enabled on every
//! simulation run. This crate is the subsystem that exercises the claim at
//! scale: an [`Engine`] compiles a *set* of properties once and then checks
//! **live event streams** against all of them incrementally — no
//! materialized `Trace` required.
//!
//! ## Event-indexed dispatch
//!
//! The engine builds an inverted subscription index from each property's
//! alphabet (`Name` → subscribed monitors). An incoming event only steps
//! the monitors that can possibly react to it, instead of broadcasting to
//! all N monitors; monitors whose verdict goes final are retired from
//! dispatch entirely. Two subtleties keep indexed dispatch *verdict-exact*
//! with respect to per-property [`lomon_core::verdict::run_to_end`]:
//!
//! * antecedent monitors ignore out-of-alphabet events outright, so
//!   skipping them loses nothing;
//! * timed-implication monitors use *any* event's timestamp to detect an
//!   expired hard deadline, so the engine keeps the earliest open
//!   [`lomon_core::verdict::Monitor::deadline`] among live timed monitors
//!   and, whenever an event's timestamp passes it, sweeps exactly those
//!   monitors with an `advance_time` notification before skipping them.
//!
//! The win is measured, not assumed: every [`Session`] counts events seen,
//! monitor steps performed, and steps skipped by the index
//! ([`DispatchStats`]), next to the steps a naive broadcast would have
//! taken ([`DispatchStats::broadcast_steps`]).
//!
//! ## Execution backends
//!
//! Orthogonal to *which* monitors an event reaches (dispatch) is *how* a
//! monitor step executes. A [`Session`] runs one production backend or
//! the oracle it is checked against, through the same dispatch path:
//!
//! * [`Backend::Fused`] (the default) — at [`Engine::compile`] time the
//!   **whole rulebook** is lowered into one fused program
//!   ([`lomon_core::fused`]): per-property flat-table programs
//!   ([`lomon_core::compiled`]) interned with structural deduplication,
//!   so every set of observationally identical properties shares **one**
//!   mutable cell arena, and one global event→(group, action-row) CSR
//!   table routes each event over the *unique* groups only. Verdicts fan
//!   back out to per-property slots through the group→members table. On
//!   overlapping rulebooks (many properties watching one interface — the
//!   SMC and NISTT shapes) this does strictly less work than stepping
//!   each property: 200 properties over a shared bus alphabet cost
//!   ~125 ns/event instead of the interpreter's ~13 µs (see
//!   `BENCH_hot_loop.json`).
//! * [`Backend::Interp`] — the tree-walking interpreter monitors
//!   ([`lomon_core::monitor`]), one per property, which classify every
//!   event against the recognition-context bitsets at runtime. The
//!   **independent oracle**, closest to the paper's construction: it
//!   shares neither the lowering nor the fusion, only the dispatch tables
//!   laid out one property per group ([`FusedProgram::unshared`]). Use it
//!   to cross-check a suspicious verdict (`--backend interp` on the CLI)
//!   or when stepping through monitor internals in a debugger.
//!
//! Both backends are verdict-, diagnostic- and ops-identical per property
//! (asserted by `tests/engine_oracle.rs` and the `hot_loop --check` CI
//! gate), so any disagreement is a bug in one of them.
//!
//! [`FusedProgram::unshared`]: lomon_core::fused::FusedProgram::unshared
//!
//! ## Static analysis
//!
//! [`Engine::compile_with_analysis`] compiles the rulebook and then runs
//! the warning passes of [`lomon_core::analysis`] over the fused
//! representation — duplicate, vacuous, subsumed and conflicting
//! properties — returning the engine together with the coded
//! [`lomon_core::analysis::Diagnostic`] warnings: what `check`, `watch`,
//! `smc`, `serve` and `profile` print, and all the analysis a cold start
//! pays for. [`Engine::notes`] runs the note passes — unobserved
//! vocabulary, corpus coverage, dead action-table entries — which only
//! `lomon lint` prints, after the warnings. Compile failures convert to the
//! same diagnostic form through [`compile::error_diagnostics`]. The CLI's
//! `lomon lint` is a thin shell over these calls.
//! `cargo run -p lomon-bench --bin hot_loop --release` measures the
//! ns/event gaps and writes the machine-readable `BENCH_hot_loop.json`
//! tracked at the repository root; [`DispatchStats`] exposes how much the
//! fusion shared (`unique_cells` vs `total_cells`, `shared_hits`).
//!
//! ## Explainability & profiling
//!
//! [`Session::enable_explain`] puts a session into explain mode: it keeps
//! the last contributing steps of each unit, as a bounded flight recorder
//! on the unit's monitor would ([`lomon_core::witness`]), so every
//! violation in a report carries a [`lomon_core::witness::Witness`] chain
//! that replays to the identical violation. A live unit steps on every
//! event of its alphabet, so the session keeps one chain per distinct
//! alphabet, not one per unit: the dispatch step only counts each event,
//! and each dispatched run fills the chains once, from its end. Detached
//! (the default) it costs nothing, like [`Session::attach_metrics`]. For
//! *where the time goes*, [`profile_trace`] runs a recorded trace through
//! a session's own dispatch step with per-group step and wall-clock
//! attribution — `lomon profile` wraps it.
//!
//! ## Sessions
//!
//! One compiled [`Engine`] serves any number of independent [`Session`]s —
//! one per simulated platform or traffic source — so millions of short
//! streams can be checked against a fixed rulebook without re-parsing or
//! re-validating anything. Sessions are plain data (`Send`), cheap to open,
//! and reusable via [`Session::reset`].
//!
//! ## Streams
//!
//! [`StreamDriver`] is the online monitoring protocol written once and
//! free of I/O: byte chunks in, typed [`Record`]s out — verdicts as they
//! go final, errors, heartbeats, the summary — rendered as text or
//! NDJSON. What each line means is decided by the one trace reader,
//! [`lomon_trace::LineReader`]: framing, runs of regular event lines,
//! grammar, time order and every fault's class and wording. The driver
//! keeps only session stepping, records, heartbeats and its [`Step`]
//! policy. Names resolve against the frozen vocabulary; one that no
//! property uses only advances time. The event lines the reader reads, a
//! run's or one line's, go in one call into the session's batch loop,
//! the loop [`Session::ingest_batch`] runs, which stops right after the
//! event that settles the session; so its records are those of stepping
//! one line at a time. `lomon check`, `lomon watch` and `lomon serve` are
//! thin adapters over it.
//!
//! ## Example
//!
//! ```
//! use lomon_engine::Engine;
//! use lomon_core::verdict::Verdict;
//! use lomon_trace::{SimTime, TimedEvent, Vocabulary};
//!
//! let mut voc = Vocabulary::new();
//! let engine = Engine::compile(
//!     &[
//!         "all{set_imgAddr, set_glAddr, set_glSize} << start once",
//!         "start => out:set_irq within 1 ms",
//!     ],
//!     &mut voc,
//! )
//! .expect("both properties compile");
//!
//! let mut session = engine.session();
//! for (ns, name) in [
//!     (10, "set_glAddr"),
//!     (12, "set_imgAddr"),
//!     (15, "set_glSize"),
//!     (20, "start"),
//!     (40, "set_irq"),
//! ] {
//!     let name = voc.lookup(name).expect("compiled alphabet");
//!     session.ingest(TimedEvent::new(name, SimTime::from_ns(ns)));
//! }
//! let report = session.finish(SimTime::from_ns(100));
//! assert_eq!(report.properties[0].verdict, Verdict::Satisfied);
//! assert!(report.is_ok());
//! assert!(report.stats.steps_skipped > 0, "the index skipped work");
//! ```

#![warn(missing_docs)]

pub mod compile;
mod explain;
pub mod metrics;
pub mod profile;
pub mod report;
pub mod session;
pub mod stream;

pub use compile::{error_diagnostics, rulebook_lines, CompileError, Engine};
pub use metrics::SessionMetrics;
pub use profile::{profile_trace, GroupProfile, ProfileReport};
pub use report::{DispatchStats, EngineReport, PropertyReport};
pub use session::{Backend, DispatchMode, Session, SessionState};
pub use stream::{Fault, Record, RecordSink, Step, StreamDriver};
