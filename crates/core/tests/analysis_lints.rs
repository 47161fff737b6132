//! Behavioural tests for the whole-rulebook static analysis: one scenario
//! per diagnostic class (`L003`–`L009`), the split between the warning and
//! note passes, golden text/JSON renderings for every code, and the
//! `prune_dead` verdict-preservation contract.

use lomon_core::analysis::{
    notes, prune_dead, warnings, AnalysisOptions, DiagCode, Diagnostic, Severity,
};
use lomon_core::ast::Property;
use lomon_core::fused::FusedProgram;
use lomon_core::parse::parse_property;
use lomon_core::verdict::{Monitor, Verdict};
use lomon_core::wf;
use lomon_trace::{NameSet, SimTime, TimedEvent, Vocabulary};

/// Parse, validate and fuse a rulebook, interning `extra` names first.
fn fuse(texts: &[&str], extra: &[&str], voc: &mut Vocabulary) -> FusedProgram {
    for name in extra {
        voc.input(name);
    }
    let properties: Vec<Property> = texts
        .iter()
        .map(|t| {
            let p = parse_property(t, voc).expect("parses");
            wf::validate(p, voc).expect("well-formed")
        })
        .collect();
    FusedProgram::lower(&properties)
}

/// Every finding, as `lomon lint` reports them: the warnings, then the
/// notes.
fn run(texts: &[&str], extra: &[&str], opts: &AnalysisOptions) -> Vec<Diagnostic> {
    let mut voc = Vocabulary::new();
    let fused = fuse(texts, extra, &mut voc);
    let mut diags = warnings(&fused, texts, opts);
    diags.extend(notes(&fused, texts, &voc, opts));
    diags
}

fn codes(diags: &[Diagnostic]) -> Vec<DiagCode> {
    diags.iter().map(|d| d.code).collect()
}

#[test]
fn clean_rulebook_reports_nothing() {
    let diags = run(
        &[
            "all{set_imgAddr, set_glAddr, set_glSize} << start repeated",
            "start => out:set_irq within 100 ns",
        ],
        &[],
        &AnalysisOptions::default(),
    );
    assert!(diags.is_empty(), "unexpected findings: {diags:?}");
}

#[test]
fn duplicates_are_reported_with_both_definitions() {
    let diags = run(
        &["all{a, b} << start once", "all{a, b} << start once"],
        &[],
        &AnalysisOptions::default(),
    );
    assert_eq!(codes(&diags), vec![DiagCode::L003]);
    assert_eq!(diags[0].severity, Severity::Warning);
    assert_eq!(diags[0].properties, vec![0, 1]);
    assert!(diags[0]
        .message
        .contains("property 0 `all{a, b} << start once`"));
    assert!(diags[0]
        .message
        .contains("property 1 `all{a, b} << start once`"));
}

#[test]
fn unmeetable_deadline_is_vacuous() {
    // With a 0 ns budget no response can ever arrive in time under the
    // bounded model's unit-spaced events: the property can only pass by
    // never firing.
    let diags = run(
        &["go => out:done within 0 ns"],
        &[],
        &AnalysisOptions::default(),
    );
    assert!(codes(&diags).contains(&DiagCode::L004), "got {diags:?}");
    let vacuous = diags.iter().find(|d| d.code == DiagCode::L004).unwrap();
    assert_eq!(vacuous.properties, vec![0]);
    assert!(vacuous.message.contains("vacuous"));
}

#[test]
fn satisfiable_properties_are_not_vacuous() {
    let diags = run(
        &["go => out:done within 5 ns"],
        &[],
        &AnalysisOptions::default(),
    );
    assert!(!codes(&diags).contains(&DiagCode::L004), "got {diags:?}");
}

#[test]
fn once_is_subsumed_by_repeated() {
    // Before the first completed episode the two behave identically; after
    // it `once` goes passive while `repeated` keeps checking — so every
    // violation `once` can raise, `repeated` raises too.
    let diags = run(
        &["a << i once", "a << i repeated"],
        &[],
        &AnalysisOptions::default(),
    );
    assert_eq!(codes(&diags), vec![DiagCode::L005]);
    assert!(
        diags[0]
            .message
            .contains("property 0 `a << i once` is subsumed by property 1"),
        "message: {}",
        diags[0].message
    );
}

#[test]
fn opposed_orderings_conflict() {
    // `a << i` wants every i preceded by a fresh a; `i << a` wants every a
    // preceded by a fresh i. Each is satisfiable alone, but any trace
    // discharging one violates the other.
    let diags = run(
        &["a << i once", "i << a once"],
        &[],
        &AnalysisOptions::default(),
    );
    assert_eq!(codes(&diags), vec![DiagCode::L006]);
    assert_eq!(diags[0].properties, vec![0, 1]);
    assert!(diags[0].message.contains("conflict"));
}

#[test]
fn unobserved_vocabulary_names_are_noted() {
    let diags = run(
        &["a << i once"],
        &["dangling", "orphan"],
        &AnalysisOptions::default(),
    );
    assert_eq!(codes(&diags), vec![DiagCode::L007]);
    assert_eq!(diags[0].severity, Severity::Note);
    assert!(diags[0].message.contains("dangling"));
    assert!(diags[0].message.contains("orphan"));
}

#[test]
fn warning_and_note_passes_split_by_severity() {
    let texts = [
        "all{a, b} << start once",
        "all{a, b} << start once",
        "go => out:done within 0 ns",
    ];
    let mut voc = Vocabulary::new();
    let fused = fuse(&texts, &["dangling"], &mut voc);
    let opts = AnalysisOptions::default();
    let warned = warnings(&fused, &texts, &opts);
    assert_eq!(codes(&warned), vec![DiagCode::L003, DiagCode::L004]);
    assert!(warned.iter().all(|d| d.severity == Severity::Warning));
    let noted = notes(&fused, &texts, &voc, &opts);
    assert!(codes(&noted).contains(&DiagCode::L007), "got {noted:?}");
    assert!(noted.iter().all(|d| d.severity == Severity::Note));
}

#[test]
fn corpus_events_without_subscribers_are_noted() {
    let mut voc = Vocabulary::new();
    let fused = fuse(&["a << i once"], &["noise"], &mut voc);
    let noise = voc.lookup("noise").unwrap();
    let a = voc.lookup("a").unwrap();
    let opts = AnalysisOptions {
        corpus: Some(vec![(noise, 3), (a, 2)]),
        ..AnalysisOptions::default()
    };
    let diags = notes(&fused, &["a << i once"], &voc, &opts);
    let l008 = diags.iter().find(|d| d.code == DiagCode::L008);
    let l008 = l008.expect("noise events hit no subscriber row");
    assert!(l008.message.contains("noise (×3)"), "{}", l008.message);
    assert!(!l008.message.contains("a (×2)"), "{}", l008.message);
}

#[test]
fn corpus_restricted_dead_rows_are_noted_and_pruned() {
    let mut voc = Vocabulary::new();
    let fused = fuse(&["all{a, b} << start once"], &[], &mut voc);
    let a = voc.lookup("a").unwrap();
    let start = voc.lookup("start").unwrap();
    // The corpus never produces `b`: its whole action-table row is dead.
    let opts = AnalysisOptions {
        corpus: Some(vec![(a, 5), (start, 5)]),
        ..AnalysisOptions::default()
    };
    let diags = notes(&fused, &["all{a, b} << start once"], &voc, &opts);
    let l009 = diags.iter().find(|d| d.code == DiagCode::L009);
    let l009 = l009.expect("row b is unreachable given the corpus");
    assert!(l009.message.contains("1 of 3 rows"), "{}", l009.message);

    let corpus: NameSet = [a, start].into_iter().collect();
    let outcome = prune_dead(&fused, Some(&corpus), 20_000);
    assert_eq!(outcome.stats.dropped_rows, 1);
    assert_eq!(outcome.stats.rows, 3);
    // The pruned table really is smaller, and the dropped name routes
    // nowhere.
    let b = voc.lookup("b").unwrap();
    assert!(outcome.fused.subscribers(b).0.is_empty());
    assert_eq!(outcome.fused.subscribers(a).0.len(), 1);

    // Verdict preservation on corpus-only traces: every 3-event trace over
    // {a, start}, stepped through both rulebooks.
    let names = [a, start];
    for &x in &names {
        for &y in &names {
            for &z in &names {
                let mut original = fused.instantiate();
                let mut pruned = outcome.fused.instantiate();
                for (k, &name) in [x, y, z].iter().enumerate() {
                    let event = TimedEvent::new(name, SimTime::from_ns(k as u64));
                    let vo = original[0].observe(event);
                    let vp = pruned[0].observe(event);
                    assert_eq!(vo, vp, "step {k} of {x:?},{y:?},{z:?}");
                }
                let end = SimTime::from_ns(10);
                assert_eq!(original[0].finish(end), pruned[0].finish(end));
            }
        }
    }
}

#[test]
fn prune_without_corpus_preserves_everything_observable() {
    let mut voc = Vocabulary::new();
    let fused = fuse(&["go => out:done within 5 ns"], &[], &mut voc);
    let outcome = prune_dead(&fused, None, 20_000);
    assert_eq!(outcome.stats.dropped_rows, 0);
    let go = voc.lookup("go").unwrap();
    let done = voc.lookup("done").unwrap();
    let mut original = fused.instantiate();
    let mut pruned = outcome.fused.instantiate();
    for (ns, name) in [(0, go), (3, done), (6, go), (20, done)] {
        let event = TimedEvent::new(name, SimTime::from_ns(ns));
        assert_eq!(original[0].observe(event), pruned[0].observe(event));
    }
    assert_eq!(original[0].verdict(), Verdict::Violated); // 14 ns > 5 ns
    assert_eq!(
        original[0].finish(SimTime::from_ns(30)),
        pruned[0].finish(SimTime::from_ns(30))
    );
}

#[test]
fn golden_text_and_json_renderings() {
    let cases: &[(DiagCode, &str, &str)] = &[
        (DiagCode::L003, "error", "warning"),
        (DiagCode::L004, "error", "warning"),
        (DiagCode::L005, "error", "warning"),
        (DiagCode::L006, "error", "warning"),
        (DiagCode::L007, "error", "note"),
        (DiagCode::L008, "error", "note"),
        (DiagCode::L009, "error", "note"),
    ];
    for &(code, _, label) in cases {
        let diag = Diagnostic::new(code, vec![2], format!("probe {}", code.as_str()));
        assert_eq!(
            diag.render_text(),
            format!("{label}[{}]: probe {}", code.as_str(), code.as_str())
        );
        assert_eq!(
            diag.render_json(),
            format!(
                "{{\"code\": \"{c}\", \"severity\": \"{label}\", \
                 \"properties\": [2], \"message\": \"probe {c}\"}}",
                c = code.as_str()
            )
        );
    }
    // JSON escaping goes through the shared lomon_trace::json_escape.
    let tricky = Diagnostic::new(DiagCode::L007, vec![], "say \"hi\"\n".to_string());
    assert_eq!(
        tricky.render_json(),
        "{\"code\": \"L007\", \"severity\": \"note\", \"properties\": [], \
         \"message\": \"say \\\"hi\\\"\\n\"}"
    );
}
