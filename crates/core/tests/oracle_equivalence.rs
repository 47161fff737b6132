//! Property-based equivalence: the direct (Drct) monitors against the
//! independent NFA reference semantics, on seeded cases from
//! `lomon_gen::cases`.
//!
//! This reproduces the paper's validation methodology ("programmed in
//! Lustre; … check their correctness with respect to the intuitive
//! semantics … using automatic testing tools") with proptest as the
//! automatic testing tool and `lomon_core::semantics` as the intuitive
//! semantics. The oracle checks every property its automaton fits — each
//! case of the antecedent and timed tests, and most of a rulebook's — and
//! every case also pits the interpreter against the compiled program.

use proptest::prelude::*;

use lomon_core::ast::Property;
use lomon_core::monitor::build_monitor;
use lomon_core::semantics::PatternOracle;
use lomon_core::verdict::{Monitor, Verdict};
use lomon_gen::Case;
use lomon_trace::{SimTime, Trace};

/// Whether the oracle checks `property` on the case: its automaton fits,
/// and no deadline can fall inside the trace.
fn checked(case: &Case, trace: &Trace, property: &Property) -> bool {
    let timeless = match property {
        Property::Antecedent(_) => true,
        Property::Timed(t) => trace.end_time() < t.bound,
    };
    timeless && case.fits_oracle(property)
}

/// Every property the oracle checks against it, then the backends against
/// each other. A case with no such property is drawn again, so that each
/// case counted is one the oracle checks.
fn check(case: &Case) -> Result<(), TestCaseError> {
    let trace = case.trace();
    let properties: Vec<&Property> = case
        .properties
        .iter()
        .filter(|p| checked(case, &trace, p))
        .collect();
    prop_assume!(!properties.is_empty());
    for property in properties {
        check_agreement(property, case, &trace);
    }
    case.cross_check(16).map_err(TestCaseError::fail)
}

/// Check monitor-vs-oracle agreement on every prefix of `trace`.
fn check_agreement(property: &Property, case: &Case, trace: &Trace) {
    let oracle = PatternOracle::new(property);
    let mut monitor = build_monitor(property.clone(), &case.voc).expect("well-formed");
    let alphabet = property.alpha();

    // Oracle verdict: position of first rejection in the projected word.
    let oracle_rejection = oracle.check(trace).err();

    let mut projected_pos = 0usize;
    let mut monitor_rejection: Option<usize> = None;
    for &event in trace.iter() {
        let in_alpha = alphabet.contains(event.name);
        let verdict = monitor.observe(event);
        if in_alpha {
            if verdict == Verdict::Violated && monitor_rejection.is_none() {
                monitor_rejection = Some(projected_pos);
            }
            projected_pos += 1;
        }
        // A verdict, once final, must stay final.
        if verdict.is_final() {
            assert_eq!(monitor.verdict(), verdict);
        }
    }

    assert_eq!(
        monitor_rejection, oracle_rejection,
        "monitor and oracle disagree\n{case}"
    );

    // For one-shot antecedents, `Satisfied` must coincide with full
    // membership in L(P)·i·Σ*.
    if let Property::Antecedent(a) = property {
        if !a.repeated && monitor_rejection.is_none() {
            let accepted = oracle.accepts_full(trace);
            let satisfied = monitor.verdict() == Verdict::Satisfied;
            assert_eq!(satisfied, accepted, "Satisfied ≠ full membership\n{case}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A property with a range too wide for the oracle's automaton is
    /// drawn again; the rulebook test below and `witness_replay`
    /// cross-check such properties.
    #[test]
    fn antecedent_monitor_matches_oracle(seed in any::<u64>()) {
        check(&Case::antecedent(seed))?;
    }

    /// A huge budget so that timing never interferes with the untimed
    /// equivalence (timing behaviour has its own dedicated tests).
    #[test]
    fn timed_monitor_matches_untimed_oracle(seed in any::<u64>()) {
        check(&Case::timed(seed, SimTime::from_sec(1)))?;
    }

    /// Every property of a rulebook, on a trace that mixes in the events
    /// of the others.
    #[test]
    fn rulebook_monitors_match_oracle(seed in any::<u64>()) {
        check(&Case::rulebook(seed, false))?;
    }
}
