//! Witness soundness, differentially: on seeded cases from
//! `lomon_gen::cases`, explain mode must record the *same* witness chain in
//! the interpreter and in the compiled program a fused group runs, with
//! identical verdicts, ops and violations; it must observe, never perturb
//! (the compiled run's verdict, ops and violation are those of a run
//! without it); and it must satisfy the replay contract: when the flight
//! recorder did not overflow, replaying only the witness's events through
//! a fresh monitor of the same property reproduces the identical violation
//! (kind, time, expected set) in both backends ([`Case::cross_check`]).

use proptest::prelude::*;

use lomon_core::compiled::{compile_monitor, CompiledMonitor};
use lomon_core::parse::parse_property;
use lomon_core::verdict::{run_to_end, Monitor, Verdict, ViolationKind};
use lomon_core::witness::replay_witness;
use lomon_gen::{Case, Run};
use lomon_trace::{SimTime, Vocabulary};

/// A case of `text` over single-event runs of `names`, 1 ns apart, ending
/// `idle_ns` after the last.
fn pinned(text: &str, names: &[&str], idle_ns: u64) -> Case {
    let mut voc = Vocabulary::new();
    let property = parse_property(text, &mut voc).expect("parses");
    let runs = names
        .iter()
        .map(|n| Run {
            name: voc.input(n),
            count: 1,
            gap: SimTime::from_ns(1),
        })
        .collect();
    Case {
        voc,
        properties: vec![property],
        runs,
        idle: SimTime::from_ns(idle_ns),
    }
}

/// The explain-on compiled monitor on the case, and its verdict.
fn explained(case: &Case, capacity: usize) -> (CompiledMonitor, Verdict) {
    let mut compiled = compile_monitor(case.properties[0].clone(), &case.voc).expect("well-formed");
    compiled.set_explain(capacity);
    let verdict = run_to_end(&mut compiled, &case.trace());
    (compiled, verdict)
}

/// Deterministic pin: a known ordering violation replays exactly, in
/// every backend, with a complete chain.
#[test]
fn known_violation_replays_exactly() {
    let case = pinned("all{a, b} << start once", &["a", "start"], 4);
    case.cross_check(16).unwrap();
    let (compiled, verdict) = explained(&case, 16);
    assert_eq!(verdict, Verdict::Violated);
    let witness = compiled.witness().expect("armed");
    assert_eq!(witness.dropped, 0);
    assert_eq!(witness.steps.len(), 2, "both contributing events recorded");
}

/// Deterministic pin: ring overflow keeps the most recent steps, counts
/// the evictions, and the truncated chains still agree across backends.
#[test]
fn overflowed_chains_agree_across_backends() {
    // Six `a, start` episodes: 12 contributing events through a 4-slot
    // ring, so 8 evictions and no final verdict.
    let case = pinned("a[1,3] << start repeated", &["a", "start"].repeat(6), 8);
    case.cross_check(4).unwrap();
    let witness = explained(&case, 4).0.witness().expect("armed");
    assert_eq!(witness.dropped, 8);
    assert_eq!(witness.steps.len(), 4);
}

/// Deterministic pins of the replay contract for deadlines: a miss found
/// at an event outside the alphabet (which no witness step holds) replays
/// at that event's time, and a deadline that expires at the end of the
/// trace replays as expired at the end, not as a miss.
#[test]
fn deadline_violations_replay_with_their_kind_and_time() {
    for (names, idle_ns, kind, at_ns) in [
        (&["go", "noise"][..], 4, ViolationKind::DeadlineMiss, 2),
        (&["go"][..], 20, ViolationKind::DeadlineExpiredAtEnd, 21),
    ] {
        let case = pinned("go => out:done within 0ns", names, idle_ns);
        case.cross_check(8).unwrap();
        let (monitor, verdict) = explained(&case, 8);
        assert_eq!(verdict, Verdict::Violated);
        let violation = monitor.violation().expect("violated");
        assert_eq!(
            (violation.kind, violation.time),
            (kind, SimTime::from_ns(at_ns))
        );
        let mut fresh = compile_monitor(case.properties[0].clone(), &case.voc).expect("wf");
        let witness = monitor.witness().expect("armed");
        replay_witness(&mut fresh, &witness, violation, case.trace().end_time());
        let replayed = fresh.violation().expect("replayed");
        assert_eq!(
            (replayed.kind, replayed.time),
            (kind, SimTime::from_ns(at_ns))
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn antecedent_witnesses_agree_and_replay(seed in any::<u64>(), capacity in 1usize..=40) {
        Case::antecedent(seed).cross_check(capacity).map_err(TestCaseError::fail)?;
    }

    /// A tight budget so deadline-class violations (misses, end-of-trace
    /// expiries, stalls) are actually exercised, not just ordering errors.
    #[test]
    fn timed_witnesses_agree_and_replay(seed in any::<u64>(), capacity in 1usize..=40) {
        let case = Case::timed(seed, SimTime::from_ns(8));
        case.cross_check(capacity).map_err(TestCaseError::fail)?;
    }

    /// Overlapping rulebooks, with small capacities so that
    /// ring overflow is exercised too.
    #[test]
    fn rulebook_witnesses_agree_and_replay(seed in any::<u64>(), capacity in 1usize..=12) {
        Case::rulebook(seed, true).cross_check(capacity).map_err(TestCaseError::fail)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    /// Long cases: in each, a counter passes 2^16 before anything else can
    /// end the episode.
    #[test]
    fn long_antecedent_witnesses_agree_and_replay(seed in any::<u64>(), capacity in 1usize..=40) {
        Case::long_antecedent(seed).cross_check(capacity).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn long_timed_witnesses_agree_and_replay(seed in any::<u64>(), capacity in 1usize..=40) {
        let case = Case::long_timed(seed, SimTime::from_ns(8));
        case.cross_check(capacity).map_err(TestCaseError::fail)?;
    }
}
