//! Oracle equivalence for the streaming engine: for seeded rulebooks and
//! traces from `lomon_gen::cases`, the engine's per-property verdicts (and
//! violation kinds) must equal what each property's own monitor computes
//! with [`run_to_end`] over the materialized trace, and indexed dispatch
//! must never account for more work than a naive broadcast. The fused
//! production backend is then pitted against the per-property interpreter
//! oracle, on random and on deliberately overlapping rulebooks.
//!
//! This is the subsystem-level counterpart of
//! `crates/core/tests/oracle_equivalence.rs`: there the monitors are pitted
//! against the NFA semantics; here the *dispatch layer* is pitted against
//! the monitors themselves.

use proptest::prelude::*;

use lomon_core::monitor::build_monitor;
use lomon_core::verdict::{run_to_end, Monitor};
use lomon_engine::{Backend, DispatchMode, Engine};
use lomon_gen::Case;
use lomon_trace::Trace;

fn engine(case: &Case) -> Engine {
    Engine::from_properties(case.properties.clone(), &case.voc)
        .expect("well-formed by construction")
}

/// Show the cases under a failure's message.
fn shown(cases: &[&Case], result: Result<(), TestCaseError>) -> Result<(), TestCaseError> {
    result.map_err(|error| match error {
        TestCaseError::Fail(why) => {
            let cases: Vec<String> = cases.iter().map(ToString::to_string).collect();
            TestCaseError::fail(format!("{why}\n{}", cases.join("\n")))
        }
        reject => reject,
    })
}

/// Engine == per-property `run_to_end`, and indexed dispatch never works
/// harder than broadcast.
fn engine_matches_run_to_end(case: &Case) -> Result<(), TestCaseError> {
    let trace = case.trace();
    // Oracle: each property's own monitor over the whole trace.
    let mut expected = Vec::new();
    for property in &case.properties {
        let mut monitor = build_monitor(property.clone(), &case.voc).expect("well-formed");
        let verdict = run_to_end(&mut monitor, &trace);
        expected.push((verdict, monitor.violation().map(|v| v.kind)));
    }

    // Engine, fed incrementally.
    let engine = engine(case);
    let mut session = engine.session();
    for &event in trace.iter() {
        session.ingest(event);
    }
    let report = session.finish(trace.end_time());

    for (p, (verdict, kind)) in report.properties.iter().zip(&expected) {
        prop_assert_eq!(p.verdict, *verdict);
        prop_assert_eq!(p.violation.as_ref().map(|v| v.kind), *kind);
    }
    // Every property served or skipped is one a broadcast would have
    // stepped.
    let stats = report.stats;
    prop_assert!(
        stats.monitor_steps + stats.shared_hits + stats.steps_skipped <= stats.broadcast_steps()
    );
    Ok(())
}

/// Batched ingestion is equivalent to event-by-event ingestion.
fn batched_equals_single(case: &Case) -> Result<(), TestCaseError> {
    let (engine, trace) = (engine(case), case.trace());
    let mut one = engine.session();
    for &event in trace.iter() {
        one.ingest(event);
    }
    let mut batched = engine.session();
    batched.ingest_batch(trace.events());

    let (a, b) = (
        one.finish(trace.end_time()),
        batched.finish(trace.end_time()),
    );
    for (x, y) in a.properties.iter().zip(&b.properties) {
        prop_assert_eq!(x.verdict, y.verdict);
    }
    prop_assert_eq!(a.stats, b.stats);
    Ok(())
}

/// A reset session of each backend behaves like a fresh one: the fused
/// and interpreted sessions run `first`, reset and run `second` in
/// lockstep, and a fresh fused session runs `second` alone. Rewinding the
/// shared group arena (and the `rearm`/arena-reuse fast paths under it)
/// must not leak episode state (deadlines, fragment progress,
/// retirement) between streams, including across the group→members
/// fan-out.
fn reset_matches_fresh_and_interp(first: &Case, second: &Case) -> Result<(), TestCaseError> {
    let engine = engine(first);
    let (t1, t2) = (first.trace(), second.trace());
    let mut fused = engine.session_with_backend(DispatchMode::Indexed, Backend::Fused);
    let mut interp = engine.session_with_backend(DispatchMode::Indexed, Backend::Interp);
    for session in [&mut fused, &mut interp] {
        session.ingest_batch(t1.events());
        session.finish(t1.end_time());
        session.reset();
        session.ingest_batch(t2.events());
        session.finish(t2.end_time());
    }
    let mut fresh = engine.session_with_backend(DispatchMode::Indexed, Backend::Fused);
    fresh.ingest_batch(t2.events());
    let fresh_report = fresh.finish(t2.end_time());

    for id in 0..engine.len() {
        prop_assert_eq!(fused.verdict(id), interp.verdict(id));
        prop_assert_eq!(fused.verdict(id), fresh.verdict(id));
        // Ops accumulate across `reset()` (lifetime instrumentation), so
        // the reused sessions are compared with each other, not with the
        // fresh one.
        prop_assert_eq!(fused.ops(id), interp.ops(id));
        prop_assert_eq!(
            fused.violation(id).map(|v| v.kind),
            interp.violation(id).map(|v| v.kind)
        );
    }
    prop_assert_eq!(fused.report().stats, fresh_report.stats);
    Ok(())
}

/// Replay `trace` event by event through a fused and an interpreted
/// session and require them to be observationally identical: per property
/// the verdict, the full violation diagnostics (kind, triggering event,
/// detection time, detail text, expected set) and the abstract-operation
/// counter. The dispatch accounting must serve exactly the properties the
/// per-property interpreter steps or skips, with sharing visible only on
/// the fused side, and must not depend on batching.
fn assert_fused_matches_interp(engine: &Engine, trace: &Trace) -> Result<(), TestCaseError> {
    let mut fused = engine.session_with_backend(DispatchMode::Indexed, Backend::Fused);
    let mut interp = engine.session_with_backend(DispatchMode::Indexed, Backend::Interp);
    for &event in trace.iter() {
        fused.ingest(event);
        interp.ingest(event);
    }
    let (rf, ri) = (
        fused.finish(trace.end_time()),
        interp.finish(trace.end_time()),
    );
    for id in 0..engine.len() {
        prop_assert_eq!(
            fused.verdict(id),
            interp.verdict(id),
            "verdict of {}",
            engine.property_display(id)
        );
        prop_assert_eq!(
            fused.ops(id),
            interp.ops(id),
            "ops of {}",
            engine.property_display(id)
        );
        match (fused.violation(id), interp.violation(id)) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                prop_assert_eq!(a.kind, b.kind);
                prop_assert_eq!(a.event, b.event);
                prop_assert_eq!(a.time, b.time);
                prop_assert_eq!(&a.detail, &b.detail);
                prop_assert_eq!(
                    a.expected.iter().collect::<Vec<_>>(),
                    b.expected.iter().collect::<Vec<_>>()
                );
            }
            (a, b) => prop_assert!(
                false,
                "one backend violated {}: fused {:?} vs interp {:?}",
                engine.property_display(id),
                a,
                b
            ),
        }
    }
    // Shared groups step once for all their members, and the sharing
    // counters account exactly for the fan-out.
    let (sf, si) = (rf.stats, ri.stats);
    prop_assert_eq!(sf.events, si.events);
    prop_assert_eq!(sf.retired, si.retired);
    prop_assert!(sf.monitor_steps <= si.monitor_steps);
    prop_assert_eq!(
        sf.monitor_steps + sf.shared_hits + sf.steps_skipped,
        si.monitor_steps + si.steps_skipped
    );
    prop_assert_eq!(si.shared_hits, 0);
    // The batch fast path accounts exactly like event-by-event ingestion,
    // fan-out included.
    for (backend, stats) in [(Backend::Fused, sf), (Backend::Interp, si)] {
        let mut batched = engine.session_with_backend(DispatchMode::Indexed, backend);
        batched.ingest_batch(trace.events());
        prop_assert_eq!(batched.finish(trace.end_time()).stats, stats);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn engine_matches_per_property_run_to_end(seed in any::<u64>()) {
        let case = Case::rulebook(seed, false);
        shown(&[&case], engine_matches_run_to_end(&case))?;
    }

    #[test]
    fn batch_matches_event_by_event(seed in any::<u64>()) {
        let case = Case::rulebook(seed, false);
        shown(&[&case], batched_equals_single(&case))?;
    }

    /// Fused vs interpreted execution backends on random rulebooks: the
    /// fused lowering is required to be *observationally identical* to the
    /// tree-walking interpreter, not merely verdict-equivalent.
    #[test]
    fn fused_backend_matches_interpreter(seed in any::<u64>()) {
        let case = Case::rulebook(seed, false);
        shown(&[&case], assert_fused_matches_interp(&engine(&case), &case.trace()))?;
    }

    /// On distinct random rulebooks.
    #[test]
    fn compiled_reset_matches_interpreter_reset(seed in any::<u64>(), retrace in any::<u64>()) {
        let first = Case::rulebook(seed, false);
        let second = first.retrace(retrace);
        shown(&[&first, &second], reset_matches_fresh_and_interp(&first, &second))?;
    }

    /// A reset session behaves like a fresh one (allocation reuse across
    /// millions of short streams must not leak verdict state).
    #[test]
    fn reset_session_equals_fresh_session(seed in any::<u64>(), retrace in any::<u64>()) {
        let first = Case::rulebook(seed, false);
        let second = first.retrace(retrace);
        let (engine, t1, t2) = (engine(&first), first.trace(), second.trace());
        let mut reused = engine.session();
        reused.ingest_batch(t1.events());
        reused.finish(t1.end_time());
        reused.reset();
        reused.ingest_batch(t2.events());
        let reused_report = reused.finish(t2.end_time());
        let mut fresh = engine.session();
        fresh.ingest_batch(t2.events());
        let fresh_report = fresh.finish(t2.end_time());
        let verdicts = |r: &lomon_engine::EngineReport| {
            r.properties.iter().map(|p| p.verdict).collect::<Vec<_>>()
        };
        prop_assert_eq!(verdicts(&reused_report), verdicts(&fresh_report), "{}\n{}", first, second);
        prop_assert_eq!(reused_report.stats, fresh_report.stats, "{}\n{}", first, second);
    }

    /// The fused rulebook backend against the per-property interpreter, on
    /// rulebooks built to *overlap*: a handful of base properties over the
    /// shared names, sampled **with repetition**, so structurally
    /// identical properties (guaranteed shared groups) and distinct
    /// properties over a shared alphabet both occur. Cross-property cell
    /// sharing is required to be observationally invisible.
    #[test]
    fn fused_backend_matches_oracles_on_overlapping_rulebooks(seed in any::<u64>()) {
        let case = Case::rulebook(seed, true);
        let engine = engine(&case);
        let sharing = engine.sharing();
        prop_assert!(sharing.unique_programs <= sharing.properties);
        prop_assert!(sharing.unique_cells <= sharing.total_cells);
        shown(&[&case], assert_fused_matches_interp(&engine, &case.trace()))?;
    }

    /// On overlapping rulebooks, so the reset rewinds shared groups.
    #[test]
    fn fused_reset_matches_fresh_and_oracle(seed in any::<u64>(), retrace in any::<u64>()) {
        let first = Case::rulebook(seed, true);
        let second = first.retrace(retrace);
        shown(&[&first, &second], reset_matches_fresh_and_interp(&first, &second))?;
    }
}
