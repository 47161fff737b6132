//! # lomon — loose-ordering monitors for SystemC/TLM-style models
//!
//! Umbrella crate re-exporting the whole workspace: a reproduction of
//! *Efficient Monitoring of Loose-Ordering Properties for SystemC/TLM*
//! (Romenska & Maraninchi, DATE 2016). See the README for the architecture
//! overview and paper-to-code map.
//!
//! ## Crate map
//!
//! | Module | Crate | Paper |
//! |---|---|---|
//! | [`trace`] | `lomon-trace` | §2 interfaces, names, simulated time; wire-speed ingest: the capped line framer (`trace::FrameDecoder`), one zero-copy fast lexer per line format (`trace::lex_regular_event`) in front of one full grammar per format (`trace::parse_trace_line`, `trace::ndjson`), frozen-vocabulary resolution to pre-resolved ids (`trace::Vocabulary::lookup_bytes`); the one reader of trace lines (`trace::LineReader`) behind the stream driver, the commands that load a trace file as a value, and the whole-buffer readers (`trace::read_trace_bytes`, and the decoders kept for the benchmarks and the `wire_speed` gate: `trace::MappedFile`, `trace::read_trace_bytes_into`, `trace::decode_events_into`) |
//! | [`core`] | `lomon-core` | §3–§5 patterns, Fig. 5 recognizers, Drct monitors, compiled flat-table lowering, fused rulebook programs, static analysis (`core::analysis`: L003–L009 lints, dead-table pruning), witness capture + flight recorder (`core::witness`) |
//! | [`engine`] | `lomon-engine` | streaming multi-property engine, event-indexed dispatch, fused backend + interpreter oracle, compile-time analysis integration, the sans-I/O stream driver behind `check`, `watch` and `serve` (`engine::StreamDriver`) |
//! | [`psl`] | `lomon-psl` | §5 translation to PSL, ViaPSL baseline |
//! | [`sync`] | `lomon-sync` | §6 Lustre-style synchronous validation |
//! | [`gen`] | `lomon-gen` | §8 stimuli generation (future work) |
//! | [`obs`] | `lomon-obs` | zero-overhead telemetry: metrics registry, Prometheus/NDJSON exposition, `/metrics` listener, phase stopwatches, Chrome trace-event spans (`obs::Tracer`) |
//! | [`serve`] | `lomon-serve` | hardened monitoring daemon: concurrent NDJSON streams over TCP, per-stream fault isolation, backpressure/overload shedding, rulebook hot-reload, drain shutdown |
//! | [`kernel`] | `lomon-kernel` | seeded discrete-event callback scheduler standing in for the SystemC kernel |
//! | [`tlm`] | `lomon-tlm` | §2/Fig. 1 virtual face-recognition platform |
//! | [`smc`] | `lomon-smc` | statistical model checking: parallel campaigns, Chernoff–Hoeffding estimation, SPRT |
//!
//! ## Quickstart
//!
//! The paper's Example 2: before starting face recognition, the IPU's three
//! configuration registers must each have been written — in any order (the
//! "loose" part). This mirrors `examples/quickstart.rs`:
//!
//! ```
//! use lomon::core::monitor::build_monitor;
//! use lomon::core::parse::parse_property;
//! use lomon::core::verdict::{run_to_end, Monitor, Verdict};
//! use lomon::trace::{Trace, Vocabulary};
//!
//! let mut voc = Vocabulary::new();
//! let text = "all{set_imgAddr, set_glAddr, set_glSize} << start once";
//! let property = parse_property(text, &mut voc).expect("property parses");
//!
//! let img = voc.lookup("set_imgAddr").unwrap();
//! let gl = voc.lookup("set_glAddr").unwrap();
//! let sz = voc.lookup("set_glSize").unwrap();
//! let start = voc.lookup("start").unwrap();
//!
//! // A good trace: the writes arrive in a scrambled order, then start.
//! let good = Trace::from_names([gl, sz, img, start]);
//! let mut monitor = build_monitor(property.clone(), &voc).expect("well-formed");
//! assert_eq!(run_to_end(&mut monitor, &good), Verdict::Satisfied);
//!
//! // A bad trace: start fires before the gallery size was configured.
//! let bad = Trace::from_names([gl, img, start]);
//! let mut monitor = build_monitor(property, &voc).expect("well-formed");
//! assert_eq!(run_to_end(&mut monitor, &bad), Verdict::Violated);
//! let violation = monitor.violation().expect("diagnostics recorded");
//! assert!(violation.display(&voc).to_string().contains("start"));
//! ```

pub use lomon_core as core;
pub use lomon_engine as engine;
pub use lomon_gen as gen;
pub use lomon_kernel as kernel;
pub use lomon_obs as obs;
pub use lomon_psl as psl;
pub use lomon_serve as serve;
pub use lomon_smc as smc;
pub use lomon_sync as sync;
pub use lomon_tlm as tlm;
pub use lomon_trace as trace;
