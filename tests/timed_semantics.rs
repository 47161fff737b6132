//! Independent validation of the timed-implication semantics: a
//! brute-force episode checker (built on the untimed NFA oracle) against
//! the efficient `TimedImplicationMonitor`, on seeded cases from
//! `lomon_gen::cases`.
//!
//! Restricted to premises that end in the single event `p` (`p ⇒ Q` or
//! `P' < p ⇒ Q`, `P'` over other names) so the brute-force decomposition is
//! unique: episodes split at each `p`; the end of `P` is that `p`'s
//! timestamp; the end of `Q` is the earliest prefix of the episode's
//! responses accepted by `L(Q)`. Every case is one the automata fit, and
//! also pits the interpreter against the compiled program.

use proptest::prelude::*;

use lomon::core::ast::{LooseOrdering, Property};
use lomon::core::monitor::build_monitor;
use lomon::core::semantics::{ordering_nfa, PatternOracle};
use lomon::core::verdict::{run_to_end, Verdict};
use lomon::gen::Case;
use lomon::trace::{Name, SimTime, Trace};

/// Brute-force: is the (already untimed-valid) trace timing-violated?
fn brute_force_timing_violation(
    premise: Name,
    response: &LooseOrdering,
    bound: SimTime,
    trace: &Trace,
) -> bool {
    let q_nfa = ordering_nfa(response);
    let alpha = response.alpha();

    // Split into episodes at each premise event.
    let mut episodes: Vec<(SimTime, Vec<(Name, SimTime)>)> = Vec::new();
    for event in trace.iter() {
        if event.name == premise {
            episodes.push((event.time, Vec::new()));
        } else if alpha.contains(event.name) {
            if let Some((_, responses)) = episodes.last_mut() {
                responses.push((event.name, event.time));
            }
            // Responses before the first premise would be an untimed
            // violation; the caller only passes untimed-valid traces.
        }
    }

    for (premise_end, responses) in &episodes {
        let deadline = *premise_end + bound;
        // Earliest prefix of the responses that is a full member of L(Q).
        let names: Vec<Name> = responses.iter().map(|&(n, _)| n).collect();
        let earliest = (1..=names.len())
            .find(|&j| q_nfa.accepts(names[..j].iter()))
            .map(|j| responses[j - 1].1);
        match earliest {
            Some(stop) => {
                if stop > deadline {
                    return true;
                }
            }
            None => {
                // Q never completed in this episode: a miss once
                // observation outlives the deadline.
                if trace.end_time() > deadline {
                    return true;
                }
            }
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Generated episodes with (sometimes deadline-busting) gaps: the
    /// monitor must agree with the brute-force checker whenever the untimed
    /// oracle accepts, and with the untimed oracle otherwise. A case with
    /// a range too wide for the automata is drawn again.
    #[test]
    fn monitor_matches_brute_force_timing(seed in any::<u64>(), bound_ns in 100u64..3000) {
        let case = Case::timed_at_p(seed, SimTime::from_ns(bound_ns));
        let property = &case.properties[0];
        prop_assume!(case.fits_oracle(property));
        let Property::Timed(timed) = property else { unreachable!("a timed case") };
        let trace = case.trace();
        let premise = case.voc.lookup("p").expect("the premise ends in `p`");
        // Ground truth: untimed first, then timing on top.
        let untimed_ok = PatternOracle::new(property).check(&trace).is_ok();
        let expected_violated = !untimed_ok
            || brute_force_timing_violation(premise, &timed.response, timed.bound, &trace);
        let mut monitor = build_monitor(property.clone(), &case.voc).expect("well-formed");
        let verdict = run_to_end(&mut monitor, &trace);
        prop_assert_eq!(
            verdict == Verdict::Violated,
            expected_violated,
            "monitor {} vs brute force {} (untimed ok: {})\n{}",
            verdict,
            expected_violated,
            untimed_ok,
            case
        );
        case.cross_check(16).map_err(TestCaseError::fail)?;
    }
}
