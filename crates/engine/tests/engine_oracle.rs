//! Oracle equivalence for the streaming engine: for random small property
//! sets and random traces, the engine's per-property verdicts (and
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

use lomon_core::ast::{
    Antecedent, Fragment, FragmentOp, LooseOrdering, Property, Range, TimedImplication,
};
use lomon_core::monitor::build_monitor;
use lomon_core::verdict::{run_to_end, Monitor};
use lomon_core::wf;
use lomon_engine::{Backend, DispatchMode, Engine};
use lomon_trace::{Name, SimTime, Trace, Vocabulary};

const INPUT_POOL: usize = 10;
const OUTPUT_POOL: usize = 6;

/// One random fragment: connective + ranges as `(min, extra)` pairs; names
/// are assigned later from a shared pool.
type FragmentSpec = (bool, Vec<(u32, u32)>);

/// One random property over the shared name pools.
#[derive(Debug, Clone)]
enum PropertySpec {
    Antecedent {
        offset: usize,
        fragments: Vec<FragmentSpec>,
        repeated: bool,
    },
    Timed {
        offset: usize,
        premise: Vec<FragmentSpec>,
        response_offset: usize,
        response: Vec<FragmentSpec>,
        bound_ns: u64,
    },
}

fn fragment_strategy() -> impl Strategy<Value = FragmentSpec> {
    (
        any::<bool>(),
        prop::collection::vec((1u32..=2, 0u32..=1), 1..=2),
    )
}

fn property_strategy() -> impl Strategy<Value = PropertySpec> {
    (
        (
            any::<bool>(),
            0usize..INPUT_POOL,
            prop::collection::vec(fragment_strategy(), 1..=2),
        ),
        (
            any::<bool>(),
            0usize..OUTPUT_POOL,
            prop::collection::vec(fragment_strategy(), 1..=2),
            0usize..3,
        ),
    )
        .prop_map(
            |((timed, offset, fragments), (repeated, response_offset, response, bound_pick))| {
                if timed {
                    PropertySpec::Timed {
                        offset,
                        premise: fragments,
                        response_offset,
                        response,
                        // Small, medium and large budgets: misses, races and
                        // comfortable episodes are all exercised.
                        bound_ns: [30, 150, 1_000][bound_pick],
                    }
                } else {
                    PropertySpec::Antecedent {
                        offset,
                        fragments,
                        repeated,
                    }
                }
            },
        )
}

/// Materialize fragments with consecutive (hence distinct) pool names.
fn build_fragments(
    specs: &[FragmentSpec],
    pool: &[Name],
    offset: usize,
    counter: &mut usize,
) -> Vec<Fragment> {
    specs
        .iter()
        .map(|(any_op, ranges)| {
            let op = if *any_op {
                FragmentOp::Any
            } else {
                FragmentOp::All
            };
            let ranges = ranges
                .iter()
                .map(|&(min, extra)| {
                    let name = pool[(offset + *counter) % pool.len()];
                    *counter += 1;
                    Range::new(name, min, min + extra)
                })
                .collect();
            Fragment::new(op, ranges)
        })
        .collect()
}

fn build_property(spec: &PropertySpec, inputs: &[Name], outputs: &[Name]) -> Property {
    match spec {
        PropertySpec::Antecedent {
            offset,
            fragments,
            repeated,
        } => {
            let mut counter = 0;
            let ordering =
                LooseOrdering::new(build_fragments(fragments, inputs, *offset, &mut counter));
            let trigger = inputs[(offset + counter) % inputs.len()];
            Antecedent::new(ordering, trigger, *repeated).into()
        }
        PropertySpec::Timed {
            offset,
            premise,
            response_offset,
            response,
            bound_ns,
        } => {
            let mut counter = 0;
            let premise =
                LooseOrdering::new(build_fragments(premise, inputs, *offset, &mut counter));
            let mut counter = 0;
            let response = LooseOrdering::new(build_fragments(
                response,
                outputs,
                *response_offset,
                &mut counter,
            ));
            TimedImplication::new(premise, response, SimTime::from_ns(*bound_ns)).into()
        }
    }
}

fn pools(voc: &mut Vocabulary) -> (Vec<Name>, Vec<Name>) {
    let inputs: Vec<Name> = (0..INPUT_POOL)
        .map(|k| voc.input(&format!("n{k}")))
        .collect();
    let outputs: Vec<Name> = (0..OUTPUT_POOL)
        .map(|k| voc.output(&format!("o{k}")))
        .collect();
    (inputs, outputs)
}

/// Build the trace: picks index into the full universe, gaps accumulate.
fn build_trace(steps: &[(usize, u64)], universe: &[Name]) -> Trace {
    let mut trace = Trace::new();
    let mut now = SimTime::ZERO;
    for &(pick, gap_ns) in steps {
        now = now
            .checked_add(SimTime::from_ns(gap_ns))
            .expect("small times");
        trace.push(universe[pick % universe.len()], now);
    }
    trace
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

    /// ≥ 200 random (property-set, trace) cases: engine == per-property
    /// `run_to_end`.
    #[test]
    fn engine_matches_per_property_run_to_end(
        specs in prop::collection::vec(property_strategy(), 1..=4),
        steps in prop::collection::vec((0usize..16, 0u64..=120), 0..=30),
    ) {
        let mut voc = Vocabulary::new();
        let (inputs, outputs) = pools(&mut voc);
        let properties: Vec<Property> = specs
            .iter()
            .map(|s| build_property(s, &inputs, &outputs))
            .collect();
        prop_assume!(properties
            .iter()
            .all(|p| wf::check(p, &voc).is_empty()));

        let universe: Vec<Name> = voc.iter().collect();
        let trace = build_trace(&steps, &universe);

        // Oracle: each property's own monitor over the whole trace.
        let mut expected = Vec::new();
        for property in &properties {
            let mut monitor =
                build_monitor(property.clone(), &voc).expect("well-formed by construction");
            let verdict = run_to_end(&mut monitor, &trace);
            let kind = monitor.violation().map(|v| v.kind);
            expected.push((verdict, kind));
        }

        // Engine, fed incrementally.
        let engine = Engine::from_properties(properties, &voc)
            .expect("well-formed by construction");
        let mut session = engine.session();
        for &event in trace.iter() {
            session.ingest(event);
        }
        let report = session.finish(trace.end_time());

        for (p, (verdict, kind)) in report.properties.iter().zip(&expected) {
            prop_assert_eq!(p.verdict, *verdict);
            prop_assert_eq!(p.violation.as_ref().map(|v| v.kind), *kind);
        }
        // Indexed dispatch never works harder than broadcast: every
        // property served or skipped is one a broadcast would have stepped.
        let stats = report.stats;
        prop_assert!(
            stats.monitor_steps + stats.shared_hits + stats.steps_skipped
                <= stats.broadcast_steps()
        );
    }

    /// Batched ingestion is equivalent to event-by-event ingestion.
    #[test]
    fn batch_matches_event_by_event(
        specs in prop::collection::vec(property_strategy(), 1..=3),
        steps in prop::collection::vec((0usize..16, 0u64..=120), 0..=24),
    ) {
        let mut voc = Vocabulary::new();
        let (inputs, outputs) = pools(&mut voc);
        let properties: Vec<Property> = specs
            .iter()
            .map(|s| build_property(s, &inputs, &outputs))
            .collect();
        prop_assume!(properties
            .iter()
            .all(|p| wf::check(p, &voc).is_empty()));

        let universe: Vec<Name> = voc.iter().collect();
        let trace = build_trace(&steps, &universe);
        let engine = Engine::from_properties(properties, &voc)
            .expect("well-formed by construction");

        let mut one = engine.session();
        for &event in trace.iter() {
            one.ingest(event);
        }
        let mut batched = engine.session();
        batched.ingest_batch(trace.events());

        let (a, b) = (one.finish(trace.end_time()), batched.finish(trace.end_time()));
        for (x, y) in a.properties.iter().zip(&b.properties) {
            prop_assert_eq!(x.verdict, y.verdict);
        }
        prop_assert_eq!(a.stats, b.stats);
    }

    /// Fused vs interpreted execution backends on random rulebooks: the
    /// fused lowering is required to be *observationally identical* to the
    /// tree-walking interpreter, not merely verdict-equivalent.
    #[test]
    fn fused_backend_matches_interpreter(
        specs in prop::collection::vec(property_strategy(), 1..=4),
        steps in prop::collection::vec((0usize..16, 0u64..=120), 0..=30),
    ) {
        let mut voc = Vocabulary::new();
        let (inputs, outputs) = pools(&mut voc);
        let properties: Vec<Property> = specs
            .iter()
            .map(|s| build_property(s, &inputs, &outputs))
            .collect();
        prop_assume!(properties
            .iter()
            .all(|p| wf::check(p, &voc).is_empty()));

        let universe: Vec<Name> = voc.iter().collect();
        let trace = build_trace(&steps, &universe);
        let engine = Engine::from_properties(properties, &voc)
            .expect("well-formed by construction");
        assert_fused_matches_interp(&engine, &trace)?;
    }

    /// A reset session of the compiled (fused) backend behaves like a
    /// fresh one in lockstep with the interpreter, on distinct random
    /// rulebooks — the `rearm`/arena-reuse fast paths must not leak any
    /// episode state between streams.
    #[test]
    fn compiled_reset_matches_interpreter_reset(
        specs in prop::collection::vec(property_strategy(), 1..=3),
        first in prop::collection::vec((0usize..16, 0u64..=120), 0..=16),
        second in prop::collection::vec((0usize..16, 0u64..=120), 0..=16),
    ) {
        let mut voc = Vocabulary::new();
        let (inputs, outputs) = pools(&mut voc);
        let properties: Vec<Property> = specs
            .iter()
            .map(|s| build_property(s, &inputs, &outputs))
            .collect();
        prop_assume!(properties
            .iter()
            .all(|p| wf::check(p, &voc).is_empty()));

        let universe: Vec<Name> = voc.iter().collect();
        let (t1, t2) = (build_trace(&first, &universe), build_trace(&second, &universe));
        let engine = Engine::from_properties(properties, &voc)
            .expect("well-formed by construction");

        let mut interp = engine.session_with_backend(DispatchMode::Indexed, Backend::Interp);
        let mut fused = engine.session_with_backend(DispatchMode::Indexed, Backend::Fused);
        for session in [&mut interp, &mut fused] {
            session.ingest_batch(t1.events());
            session.finish(t1.end_time());
            session.reset();
            session.ingest_batch(t2.events());
            session.finish(t2.end_time());
        }
        for id in 0..engine.len() {
            prop_assert_eq!(interp.verdict(id), fused.verdict(id));
            prop_assert_eq!(interp.ops(id), fused.ops(id));
            prop_assert_eq!(
                interp.violation(id).map(|v| v.kind),
                fused.violation(id).map(|v| v.kind)
            );
        }
    }

    /// A reset session behaves like a fresh one (allocation reuse across
    /// millions of short streams must not leak verdict state).
    #[test]
    fn reset_session_equals_fresh_session(
        specs in prop::collection::vec(property_strategy(), 1..=3),
        first in prop::collection::vec((0usize..16, 0u64..=120), 0..=16),
        second in prop::collection::vec((0usize..16, 0u64..=120), 0..=16),
    ) {
        let mut voc = Vocabulary::new();
        let (inputs, outputs) = pools(&mut voc);
        let properties: Vec<Property> = specs
            .iter()
            .map(|s| build_property(s, &inputs, &outputs))
            .collect();
        prop_assume!(properties
            .iter()
            .all(|p| wf::check(p, &voc).is_empty()));

        let universe: Vec<Name> = voc.iter().collect();
        let (t1, t2) = (build_trace(&first, &universe), build_trace(&second, &universe));
        let engine = Engine::from_properties(properties, &voc)
            .expect("well-formed by construction");

        // Reused session: stream 1, reset, stream 2.
        let mut reused = engine.session();
        reused.ingest_batch(t1.events());
        reused.finish(t1.end_time());
        reused.reset();
        reused.ingest_batch(t2.events());
        let reused_report = reused.finish(t2.end_time());

        // Fresh session: stream 2 only.
        let mut fresh = engine.session();
        fresh.ingest_batch(t2.events());
        let fresh_report = fresh.finish(t2.end_time());

        for (x, y) in reused_report.properties.iter().zip(&fresh_report.properties) {
            prop_assert_eq!(x.verdict, y.verdict);
        }
        prop_assert_eq!(reused_report.stats, fresh_report.stats);
    }

    /// The fused rulebook backend against the per-property interpreter, on
    /// rulebooks built to *overlap*: a handful of base properties over the
    /// shared name pools, sampled **with repetition**, so structurally
    /// identical properties (guaranteed shared groups) and distinct
    /// properties over a shared alphabet both occur. Cross-property cell
    /// sharing is required to be observationally invisible.
    #[test]
    fn fused_backend_matches_oracles_on_overlapping_rulebooks(
        base in prop::collection::vec(property_strategy(), 1..=3),
        picks in prop::collection::vec(0usize..3, 2..=6),
        steps in prop::collection::vec((0usize..16, 0u64..=120), 0..=30),
    ) {
        let mut voc = Vocabulary::new();
        let (inputs, outputs) = pools(&mut voc);
        let properties: Vec<Property> = picks
            .iter()
            .map(|&pick| build_property(&base[pick % base.len()], &inputs, &outputs))
            .collect();
        prop_assume!(properties
            .iter()
            .all(|p| wf::check(p, &voc).is_empty()));

        let universe: Vec<Name> = voc.iter().collect();
        let trace = build_trace(&steps, &universe);
        let engine = Engine::from_properties(properties, &voc)
            .expect("well-formed by construction");
        // Repetition in `picks` must have fused into shared groups.
        let sharing = engine.sharing();
        prop_assert!(sharing.unique_programs <= sharing.properties);
        prop_assert!(sharing.unique_cells <= sharing.total_cells);
        assert_fused_matches_interp(&engine, &trace)?;
    }

    /// A reset *fused* session behaves like a fresh one in lockstep with a
    /// reset interpreter oracle — rewinding the shared group arena (and the
    /// `rearm`/arena-reuse fast paths under it) must not leak episode state
    /// (deadlines, fragment progress, retirement) between streams,
    /// including across the group→members fan-out.
    #[test]
    fn fused_reset_matches_fresh_and_oracle(
        base in prop::collection::vec(property_strategy(), 1..=2),
        picks in prop::collection::vec(0usize..2, 2..=4),
        first in prop::collection::vec((0usize..16, 0u64..=120), 0..=16),
        second in prop::collection::vec((0usize..16, 0u64..=120), 0..=16),
    ) {
        let mut voc = Vocabulary::new();
        let (inputs, outputs) = pools(&mut voc);
        let properties: Vec<Property> = picks
            .iter()
            .map(|&pick| build_property(&base[pick % base.len()], &inputs, &outputs))
            .collect();
        prop_assume!(properties
            .iter()
            .all(|p| wf::check(p, &voc).is_empty()));

        let universe: Vec<Name> = voc.iter().collect();
        let (t1, t2) = (build_trace(&first, &universe), build_trace(&second, &universe));
        let engine = Engine::from_properties(properties, &voc)
            .expect("well-formed by construction");

        // Reused fused session and a lockstep interpreter oracle.
        let mut fused = engine.session_with_backend(DispatchMode::Indexed, Backend::Fused);
        let mut interp = engine.session_with_backend(DispatchMode::Indexed, Backend::Interp);
        for session in [&mut fused, &mut interp] {
            session.ingest_batch(t1.events());
            session.finish(t1.end_time());
            session.reset();
            session.ingest_batch(t2.events());
            session.finish(t2.end_time());
        }
        // Fresh fused session over stream 2 only.
        let mut fresh = engine.session_with_backend(DispatchMode::Indexed, Backend::Fused);
        fresh.ingest_batch(t2.events());
        let fresh_report = fresh.finish(t2.end_time());

        for id in 0..engine.len() {
            prop_assert_eq!(fused.verdict(id), interp.verdict(id));
            prop_assert_eq!(fused.verdict(id), fresh.verdict(id));
            // Ops accumulate across `reset()` (lifetime instrumentation),
            // so the reused sessions are compared with each other, not
            // with the fresh one.
            prop_assert_eq!(fused.ops(id), interp.ops(id));
            prop_assert_eq!(
                fused.violation(id).map(|v| v.kind),
                interp.violation(id).map(|v| v.kind)
            );
        }
        prop_assert_eq!(fused.report().stats, fresh_report.stats);
    }
}
