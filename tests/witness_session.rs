//! Session-level witness properties, on seeded rulebooks × traces from
//! `lomon_gen::cases`, across both backends:
//!
//! * a detached session's report renders **byte-identically** whether
//!   explain support was never enabled or enabled and then detached —
//!   explain mode off is free and invisible;
//! * explain mode observes, never perturbs: verdicts, violations and
//!   dispatch ops match the detached session exactly;
//! * the witness chains a report carries are identical across the fused
//!   backend and the per-property interp oracle — neither the fused group
//!   fan-out nor skipping monitors via the subscription index loses any
//!   provenance — and to the chain a standalone interpreter monitor's own
//!   flight recorder keeps over the whole trace, which the session's
//!   per-alphabet chains must reproduce.

use proptest::prelude::*;

use lomon::core::monitor::build_monitor;
use lomon::core::verdict::{run_to_end, Monitor, Verdict};
use lomon::core::witness::Witness;
use lomon::engine::{Backend, DispatchMode, Engine, EngineReport};
use lomon::gen::Case;
use lomon::trace::{SimTime, TimedEvent, Vocabulary};

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

/// The case's rulebook, compiled from its texts over its vocabulary.
fn compile(case: &Case) -> (Engine, Vocabulary) {
    let texts: Vec<String> = case
        .properties
        .iter()
        .map(|p| p.display(&case.voc))
        .collect();
    let mut voc = case.voc.clone();
    let engine = Engine::compile(&texts, &mut voc).unwrap_or_else(|e| panic!("{e:?}\n{case}"));
    (engine, voc)
}

fn check_rulebook(case: &Case, capacity: usize) {
    let (engine, voc) = compile(case);
    let trace = case.trace();
    let (events, end) = (trace.events(), trace.end_time());

    let mut all_witnesses: Vec<Vec<Option<Witness>>> = Vec::new();
    for backend in [Backend::Fused, Backend::Interp] {
        // Never-enabled vs enabled-then-detached: byte-identical
        // renderings, both human and NDJSON.
        let plain = run_session(&engine, backend, events, end, None);
        let detached = run_session(&engine, backend, events, end, Some(0));
        assert_eq!(
            plain.render(&voc),
            detached.render(&voc),
            "detached explain changed the text report ({backend:?})\n{case}"
        );
        assert_eq!(
            plain.render_json(&voc),
            detached.render_json(&voc),
            "detached explain changed the JSON report ({backend:?})\n{case}"
        );
        assert!(
            plain.properties.iter().all(|p| p.witness.is_none()),
            "detached session reported a witness\n{case}"
        );

        // Explain-on: verdicts and violations must not move.
        let explained = run_session(&engine, backend, events, end, Some(capacity));
        for (p, e) in plain.properties.iter().zip(&explained.properties) {
            assert_eq!(p.verdict, e.verdict, "explain changed a verdict\n{case}");
            assert_eq!(
                format!("{:?}", p.violation),
                format!("{:?}", e.violation),
                "explain changed a violation\n{case}"
            );
            assert_eq!(
                e.witness.is_some(),
                e.verdict == Verdict::Violated,
                "witness present iff violated\n{case}"
            );
        }
        all_witnesses.push(witnesses(&explained));
    }
    // Provenance identity across both backends — including the fused
    // group fan-out to duplicate members.
    assert_eq!(
        all_witnesses[0], all_witnesses[1],
        "witness chains differ across backends\n{case}"
    );
    // And with a standalone monitor that records its own steps.
    for (property, witness) in case.properties.iter().zip(&all_witnesses[0]) {
        let Some(witness) = witness else { continue };
        let mut monitor = build_monitor(property.clone(), &voc).expect("well-formed");
        monitor.set_explain(capacity);
        run_to_end(&mut monitor, &trace);
        assert_eq!(
            monitor.witness().as_ref(),
            Some(witness),
            "session chain differs from a standalone monitor's\n{case}"
        );
    }
    for w in all_witnesses[0].iter().flatten() {
        assert!(
            !w.steps.is_empty() || w.dropped > 0 || events.is_empty(),
            "violated property carries an empty chain\n{case}"
        );
    }
}

/// Deterministic pin: a rulebook's texts compile back to the same
/// properties, and a violating trace yields a witness through the full
/// session path, shared by a duplicate member. Guards against the
/// proptest passing vacuously (e.g. a display/parse round-trip break).
#[test]
fn generator_pipeline_produces_witnesses() {
    let texts = ["all{n0, n1} << trigger once", "n0 => out:q0 within 8ns"].map(String::from);
    let mut voc = Vocabulary::new();
    let engine = Engine::compile(&[&texts[..], &texts[..1]].concat(), &mut voc).expect("compiles");
    // `trigger` with `n1` missing violates property 0 and its duplicate.
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
    check_rulebook(&Case::rulebook(1, true), 16);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sessions_agree_on_witnesses_and_stay_clean_when_off(
        seed in any::<u64>(),
        capacity in 1usize..=24,
    ) {
        check_rulebook(&Case::rulebook(seed, true), capacity);
    }
}
