//! Indexed dispatch at scale: on a rulebook of 50 properties over
//! pairwise-disjoint alphabets, every event concerns exactly one property,
//! so the inverted index must step exactly one monitor per event where a
//! naive broadcast ([`DispatchStats::broadcast_steps`]) would step all 50 —
//! and retirement of one-shot properties must shrink even that.

use lomon_engine::{DispatchStats, Engine};
use lomon_trace::{SimTime, TimedEvent, Vocabulary};

const PROPERTIES: usize = 50;
const ROUNDS: usize = 20;

/// `all{p<k>_a, p<k>_b, p<k>_c} << p<k>_start <flag>` for every `k`, and
/// `ROUNDS` satisfying episodes of every property, round-robin interleaved.
fn run_disjoint(flag: &str) -> DispatchStats {
    let mut voc = Vocabulary::new();
    let rulebook: Vec<String> = (0..PROPERTIES)
        .map(|k| format!("all{{p{k}_a, p{k}_b, p{k}_c}} << p{k}_start {flag}"))
        .collect();
    let engine = Engine::compile(&rulebook, &mut voc).expect("rulebook compiles");
    let mut events = Vec::with_capacity(PROPERTIES * ROUNDS * 4);
    let mut ns = 0u64;
    for _ in 0..ROUNDS {
        for k in 0..PROPERTIES {
            for suffix in ["a", "b", "c", "start"] {
                ns += 10;
                let name = voc.lookup(&format!("p{k}_{suffix}")).expect("in alphabet");
                events.push(TimedEvent::new(name, SimTime::from_ns(ns)));
            }
        }
    }
    let mut session = engine.session();
    session.ingest_batch(&events);
    let report = session.finish(SimTime::from_ns(ns));
    assert!(report.is_ok(), "every episode is satisfying");
    assert_eq!(report.stats.events, events.len() as u64);
    report.stats
}

#[test]
fn repeated_disjoint_rulebook_steps_one_monitor_per_event() {
    let stats = run_disjoint("repeated");
    assert_eq!(stats.monitor_steps, stats.events);
    assert_eq!(stats.shared_hits, 0);
    assert_eq!(
        stats.monitor_steps + stats.steps_skipped,
        stats.broadcast_steps()
    );
}

#[test]
fn once_disjoint_rulebook_retires_below_one_step_per_event() {
    let stats = run_disjoint("once");
    assert!(
        stats.monitor_steps < stats.events,
        "{} steps for {} events",
        stats.monitor_steps,
        stats.events
    );
    assert_eq!(stats.retired, PROPERTIES as u64);
}
