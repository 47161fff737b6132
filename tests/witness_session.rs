//! Session-level witness properties, on random rulebooks × random traces
//! across both backends:
//!
//! * a detached session's report renders **byte-identically** whether
//!   explain support was never enabled or enabled and then detached —
//!   explain mode off is free and invisible;
//! * explain mode observes, never perturbs: verdicts, violations and
//!   dispatch ops match the detached session exactly;
//! * the witness chains a report carries are identical across the fused
//!   backend and the per-property interp oracle — neither the fused group
//!   fan-out nor skipping monitors via the subscription index loses any
//!   provenance.

use proptest::prelude::*;

use lomon::core::ast::{
    Antecedent, Fragment, FragmentOp, LooseOrdering, Property, Range, TimedImplication,
};
use lomon::core::verdict::Verdict;
use lomon::core::wf;
use lomon::core::witness::Witness;
use lomon::engine::{Backend, DispatchMode, Engine, EngineReport};
use lomon::trace::{Name, SimTime, TimedEvent, Vocabulary};

/// A compact random-pattern description (same shape as the core suites').
#[derive(Debug, Clone)]
struct PatternSpec {
    fragments: Vec<(bool, Vec<(u32, u32)>)>,
    repeated: bool,
}

fn fragment_strategy(max_ranges: usize) -> impl Strategy<Value = (bool, Vec<(u32, u32)>)> {
    (
        any::<bool>(),
        prop::collection::vec((1u32..=3, 0u32..=2), 1..=max_ranges),
    )
}

fn pattern_strategy() -> impl Strategy<Value = PatternSpec> {
    (
        prop::collection::vec(fragment_strategy(2), 1..=2),
        any::<bool>(),
    )
        .prop_map(|(fragments, repeated)| PatternSpec {
            fragments,
            repeated,
        })
}

fn build_ordering(
    spec: &[(bool, Vec<(u32, u32)>)],
    voc: &mut Vocabulary,
    prefix: &str,
    output: bool,
) -> LooseOrdering {
    let mut counter = 0;
    let fragments = spec
        .iter()
        .map(|(any_op, ranges)| {
            let op = if *any_op {
                FragmentOp::Any
            } else {
                FragmentOp::All
            };
            let ranges = ranges
                .iter()
                .map(|&(u, extra)| {
                    let text = format!("{prefix}{counter}");
                    let name = if output {
                        voc.output(&text)
                    } else {
                        voc.input(&text)
                    };
                    counter += 1;
                    Range::new(name, u, u + extra)
                })
                .collect();
            Fragment::new(op, ranges)
        })
        .collect();
    LooseOrdering::new(fragments)
}

/// A rulebook of well-formed property texts: one antecedent, one timed
/// implication, and a duplicate of the antecedent so the fused backend
/// actually shares a group (witnesses must fan out to every member).
fn build_rulebook(a: &PatternSpec, t: &PatternSpec) -> Option<(Vec<String>, Vocabulary)> {
    let mut voc = Vocabulary::new();
    let antecedent: Property = {
        let ordering = build_ordering(&a.fragments, &mut voc, "n", false);
        let trigger = voc.input("trigger");
        Antecedent::new(ordering, trigger, a.repeated).into()
    };
    let timed: Property = {
        let premise = build_ordering(&a.fragments, &mut voc, "p", false);
        let response = build_ordering(&t.fragments, &mut voc, "q", true);
        TimedImplication::new(premise, response, SimTime::from_ns(8)).into()
    };
    if !wf::check(&antecedent, &voc).is_empty() || !wf::check(&timed, &voc).is_empty() {
        return None;
    }
    let a_text = antecedent.display(&voc);
    let texts = vec![a_text.clone(), timed.display(&voc), a_text];
    Some((texts, voc))
}

fn events_from_indices(indices: &[usize], universe: &[Name]) -> Vec<TimedEvent> {
    indices
        .iter()
        .enumerate()
        .map(|(k, &ix)| {
            TimedEvent::new(
                universe[ix % universe.len()],
                SimTime::from_ns(k as u64 + 1),
            )
        })
        .collect()
}

/// Run one session on `backend` and report; optionally armed.
fn run_session(
    engine: &Engine,
    backend: Backend,
    events: &[TimedEvent],
    end: SimTime,
    explain: Option<usize>,
) -> EngineReport {
    let mut session = engine.session_with_backend(DispatchMode::Indexed, backend);
    if let Some(capacity) = explain {
        session.enable_explain(capacity);
    }
    session.ingest_batch(events);
    session.finish(end)
}

/// The witness chains of a report, by property index.
fn witnesses(report: &EngineReport) -> Vec<Option<Witness>> {
    report
        .properties
        .iter()
        .map(|p| p.witness.clone())
        .collect()
}

fn check_rulebook(texts: &[String], indices: &[usize], capacity: usize) {
    let mut voc = Vocabulary::new();
    let Ok(engine) = Engine::compile(texts, &mut voc) else {
        return;
    };
    voc.input("noise");
    let universe: Vec<Name> = voc.iter().collect();
    let events = events_from_indices(indices, &universe);
    let end = SimTime::from_ns(events.len() as u64 + 4);

    let mut all_witnesses: Vec<Vec<Option<Witness>>> = Vec::new();
    for backend in [Backend::Fused, Backend::Interp] {
        // Never-enabled vs enabled-then-detached: byte-identical
        // renderings, both human and NDJSON.
        let plain = run_session(&engine, backend, &events, end, None);
        let detached = run_session(&engine, backend, &events, end, Some(0));
        assert_eq!(
            plain.render(&voc),
            detached.render(&voc),
            "detached explain changed the text report ({backend:?})"
        );
        assert_eq!(
            plain.render_json(&voc),
            detached.render_json(&voc),
            "detached explain changed the JSON report ({backend:?})"
        );
        assert!(
            plain.properties.iter().all(|p| p.witness.is_none()),
            "detached session reported a witness"
        );

        // Explain-on: verdicts and violations must not move.
        let explained = run_session(&engine, backend, &events, end, Some(capacity));
        for (p, e) in plain.properties.iter().zip(&explained.properties) {
            assert_eq!(p.verdict, e.verdict, "explain changed a verdict");
            assert_eq!(
                format!("{:?}", p.violation),
                format!("{:?}", e.violation),
                "explain changed a violation"
            );
            assert_eq!(
                e.witness.is_some(),
                e.verdict == Verdict::Violated,
                "witness present iff violated"
            );
        }
        all_witnesses.push(witnesses(&explained));
    }
    // Provenance identity across both backends — including the fused
    // group fan-out to the duplicate member.
    assert_eq!(
        all_witnesses[0], all_witnesses[1],
        "witness chains differ across backends"
    );
    for w in all_witnesses[0].iter().flatten() {
        assert!(
            !w.steps.is_empty() || w.dropped > 0 || events.is_empty(),
            "violated property carries an empty chain"
        );
    }
}

/// Deterministic pin: the generator pipeline produces compilable
/// rulebooks, and a violating trace yields a witness through the full
/// session path. Guards against the proptest silently rejecting
/// everything (e.g. a display/parse round-trip break).
#[test]
fn generator_pipeline_produces_witnesses() {
    let spec = PatternSpec {
        fragments: vec![(false, vec![(1, 0), (1, 0)])],
        repeated: false,
    };
    let (texts, _) = build_rulebook(&spec, &spec).expect("default spec is well-formed");
    let mut voc = Vocabulary::new();
    let engine = Engine::compile(&texts, &mut voc).expect("rulebook round-trips");
    // `n1` before `n0` cannot violate the ∧ fragment, but `trigger` with
    // `n1` missing can — drive property 0 (and its duplicate) violated.
    let n0 = voc.lookup("n0").expect("interned");
    let trigger = voc.lookup("trigger").expect("interned");
    let events = [
        TimedEvent::new(n0, SimTime::from_ns(1)),
        TimedEvent::new(trigger, SimTime::from_ns(2)),
    ];
    let report = run_session(
        &engine,
        Backend::Fused,
        &events,
        SimTime::from_ns(10),
        Some(16),
    );
    assert_eq!(report.properties[0].verdict, Verdict::Violated);
    let witness = report.properties[0]
        .witness
        .as_ref()
        .expect("explain session reports a witness");
    assert_eq!(witness.steps.len(), 2);
    assert_eq!(
        report.properties[2].witness, report.properties[0].witness,
        "fused duplicate member shares the group witness"
    );
    check_rulebook(&texts, &[0, 1, 2, 3, 4, 0, 1, 2], 16);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sessions_agree_on_witnesses_and_stay_clean_when_off(
        a in pattern_strategy(),
        t in pattern_strategy(),
        indices in prop::collection::vec(0usize..12, 0..20),
        capacity in 1usize..=24,
    ) {
        if let Some((texts, _)) = build_rulebook(&a, &t) {
            check_rulebook(&texts, &indices, capacity);
        }
    }
}
