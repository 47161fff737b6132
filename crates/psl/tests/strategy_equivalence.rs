//! Cross-strategy equivalence: Drct monitors, ViaPSL observer monitors, the
//! independent NFA pattern semantics and the three-valued PSL evaluation
//! must all agree on (untimed) acceptance — the validation the paper
//! performs with SPOT and Lustre testing tools — on seeded cases from
//! `lomon_gen::cases`. The strategies check every property the automaton
//! and the translation fit — each case of the antecedent and timed tests,
//! and most of a rulebook's — and every case also pits the interpreter
//! against the compiled program.

use proptest::prelude::*;

use lomon_core::ast::Property;
use lomon_core::monitor::build_monitor;
use lomon_core::semantics::PatternOracle;
use lomon_core::verdict::{Monitor, Verdict};
use lomon_gen::Case;
use lomon_psl::complexity::conjunct_count;
use lomon_psl::eval::{eval, Truth};
use lomon_psl::monitor::PslMonitor;
use lomon_psl::translate::{translate, TranslateError, TranslateOptions, Translation};
use lomon_trace::{NameSet, RunLengthLexer, SimTime, Trace};

/// Whether the strategies check `property` on the case: the automaton
/// fits it, the translation's encoding covers its shape (a timed
/// implication's response must end in a single range, a reset point), and
/// no deadline can fall inside the trace.
fn checked(case: &Case, trace: &Trace, property: &Property) -> bool {
    let timeless = match property {
        Property::Antecedent(_) => true,
        Property::Timed(t) => trace.end_time() < t.bound,
    };
    let shape = conjunct_count(property);
    timeless && case.fits_oracle(property) && !matches!(shape, Err(TranslateError::Unsupported(_)))
}

/// Every property the strategies check through all of them — it must
/// translate — then the backends against each other. A case with no such
/// property is drawn again, so that each case counted is one the
/// strategies check.
fn check(case: &Case) -> Result<(), TestCaseError> {
    let trace = case.trace();
    let properties: Vec<&Property> = case
        .properties
        .iter()
        .filter(|p| checked(case, &trace, p))
        .collect();
    prop_assume!(!properties.is_empty());
    for property in properties {
        let translation = translate(property, TranslateOptions::default()).map_err(|e| {
            let on = property.display(&case.voc);
            TestCaseError::fail(format!("{on} does not translate: {e}\n{case}"))
        })?;
        check_all(property, &translation, case, &trace);
    }
    case.cross_check(16).map_err(TestCaseError::fail)
}

/// Run every implementation over `trace` and check they agree on untimed
/// acceptance (and on `Satisfied` for one-shot antecedents).
fn check_all(property: &Property, translation: &Translation, case: &Case, trace: &Trace) {
    let voc = &case.voc;
    // 1. Independent pattern semantics.
    let alphabet = property.alpha();
    let oracle_ok = PatternOracle::new(property).check(trace).is_ok();

    // 2. Direct monitor.
    let mut drct = build_monitor(property.clone(), voc).expect("well-formed");
    for &e in trace.iter() {
        drct.observe(e);
    }
    // No finish(): timed deadlines must not interfere (bounds are huge, but
    // end-of-trace deadline checks would still fire on unanswered P).
    let drct_ok = drct.verdict() != Verdict::Violated;

    // 3. ViaPSL observer monitor.
    let mut viapsl = PslMonitor::from_translation(translation.clone());
    for &e in trace.iter() {
        viapsl.observe(e);
    }
    viapsl.finish(trace.end_time());
    let viapsl_ok = viapsl.verdict() != Verdict::Violated;

    // 4. Three-valued evaluation of the materialized formula on the lexed
    //    token stream.
    let mut collapsible = NameSet::new();
    for r in &translation.collapsible {
        collapsible.insert(r.name);
    }
    let mut lexer = RunLengthLexer::new(collapsible);
    for r in &translation.collapsible {
        lexer = lexer.with_bound(r.name, r.max);
    }
    let mut tokens = Vec::new();
    for &e in trace.iter() {
        if alphabet.contains(e.name) {
            tokens.extend(lexer.push(e).into_iter().map(|l| l.token));
        }
    }
    // A pending run at end of trace is extendable: the evaluation is False
    // only if the tokens so far are False, or every completion of the
    // pending run makes them False.
    let eval_ok = match lexer.finish() {
        None => eval(&translation.formula, &tokens) != Truth::False,
        Some(pending) => {
            if eval(&translation.formula, &tokens) == Truth::False {
                false
            } else {
                let bound = translation
                    .collapsible
                    .iter()
                    .find(|r| r.name == pending.token.name)
                    .map(|r| r.max)
                    .unwrap_or(pending.token.run);
                !(pending.token.run..=bound + 1).all(|run| {
                    let mut with = tokens.clone();
                    with.push(lomon_trace::LexedToken {
                        name: pending.token.name,
                        run,
                    });
                    eval(&translation.formula, &with) == Truth::False
                })
            }
        }
    };

    let on = property.display(voc);
    assert_eq!(drct_ok, oracle_ok, "Drct vs oracle on {on}\n{case}");
    assert_eq!(viapsl_ok, oracle_ok, "ViaPSL vs oracle on {on}\n{case}");
    assert_eq!(
        eval_ok,
        oracle_ok,
        "PSL eval vs oracle on {on}\nformula: {}\ntokens: {tokens:?}\n{case}",
        translation.formula.display(voc)
    );

    if let Property::Antecedent(a) = property {
        if !a.repeated && oracle_ok {
            assert_eq!(
                viapsl.verdict() == Verdict::Satisfied,
                drct.verdict() == Verdict::Satisfied,
                "Satisfied mismatch on {on}\n{case}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// A property with a range too wide for the automaton and the
    /// translation is drawn again; the rulebook test below cross-checks
    /// such properties.
    #[test]
    fn antecedent_strategies_agree(seed in any::<u64>()) {
        check(&Case::antecedent(seed))?;
    }

    /// Shapes the translation does not cover are drawn again too.
    #[test]
    fn timed_strategies_agree(seed in any::<u64>()) {
        check(&Case::timed(seed, SimTime::from_sec(1)))?;
    }

    /// Every property of a rulebook, on a trace that mixes in the events
    /// of the others.
    #[test]
    fn rulebook_strategies_agree(seed in any::<u64>()) {
        check(&Case::rulebook(seed, false))?;
    }
}
