//! The hot-loop workload constructors, shared by the `hot_loop` bench
//! (backend ratios) and the `obs_overhead` bench (telemetry cost): a
//! rulebook [`Engine`] plus the event stream that drives it, and on
//! request the vocabulary to render that stream as text.

use lomon_engine::Engine;
use lomon_trace::{SimTime, TimedEvent, Vocabulary};

/// Episodes of one property arrive in short bursts before the stream moves
/// on — the granularity a TLM platform produces (one transaction's writes
/// complete before the next component's begin).
pub const EPISODE_BURST: usize = 4;

/// `count` antecedent properties over pairwise-disjoint alphabets, plus the
/// event stream that completes `rounds` episodes of each, interleaved at
/// [`EPISODE_BURST`] granularity.
///
/// # Panics
///
/// Panics if the generated rulebook fails to compile (a harness bug).
pub fn disjoint(count: usize, rounds: usize) -> (Engine, Vec<TimedEvent>) {
    let (engine, _, events) = disjoint_with_vocabulary(count, rounds);
    (engine, events)
}

/// [`disjoint`], additionally returning the vocabulary the rulebook was
/// compiled against. The `wire_speed` bench starts from trace *text*
/// (bytes in, verdicts out), so it needs the vocabulary to render the
/// event stream and to resolve names during decode.
///
/// # Panics
///
/// Panics if the generated rulebook fails to compile (a harness bug).
pub fn disjoint_with_vocabulary(
    count: usize,
    rounds: usize,
) -> (Engine, Vocabulary, Vec<TimedEvent>) {
    let mut voc = Vocabulary::new();
    let rulebook: Vec<String> = (0..count)
        .map(|k| format!("all{{p{k}_a, p{k}_b, p{k}_c}} << p{k}_start repeated"))
        .collect();
    let engine = Engine::compile(&rulebook, &mut voc).expect("bench rulebook compiles");
    let mut events = Vec::with_capacity(count * rounds * 4);
    let mut ns = 0u64;
    for _ in 0..rounds.div_ceil(EPISODE_BURST) {
        for k in 0..count {
            for _ in 0..EPISODE_BURST {
                for suffix in ["a", "b", "c", "start"] {
                    ns += 10;
                    let name = voc
                        .lookup(&format!("p{k}_{suffix}"))
                        .expect("compiled name");
                    events.push(TimedEvent::new(name, SimTime::from_ns(ns)));
                }
            }
        }
    }
    (engine, voc, events)
}

/// `count` antecedent properties over one *shared* alphabet (rotated range
/// order, alternating `all`/`any`), and the stream that satisfies them all
/// — every event concerns every property. The texts repeat with period 6
/// (2 connectives × 3 rotations), so the fused backend shares 6 unique
/// groups regardless of `count`.
///
/// # Panics
///
/// Panics if the generated rulebook fails to compile (a harness bug).
pub fn overlapping(count: usize, rounds: usize) -> (Engine, Vec<TimedEvent>) {
    let (engine, _, events) = overlapping_with_vocabulary(count, rounds);
    (engine, events)
}

/// [`overlapping`], additionally returning the vocabulary the rulebook was
/// compiled against, to render the event stream as text.
///
/// # Panics
///
/// Panics if the generated rulebook fails to compile (a harness bug).
pub fn overlapping_with_vocabulary(
    count: usize,
    rounds: usize,
) -> (Engine, Vocabulary, Vec<TimedEvent>) {
    let mut voc = Vocabulary::new();
    let names = ["s_a", "s_b", "s_c"];
    let rulebook: Vec<String> = (0..count)
        .map(|k| {
            let op = if k % 2 == 0 { "all" } else { "any" };
            let rotated: Vec<&str> = (0..3).map(|j| names[(k + j) % 3]).collect();
            format!("{op}{{{}}} << s_start repeated", rotated.join(", "))
        })
        .collect();
    let engine = Engine::compile(&rulebook, &mut voc).expect("bench rulebook compiles");
    let mut events = Vec::with_capacity(rounds * 4);
    let mut ns = 0u64;
    for _ in 0..rounds {
        for name in ["s_a", "s_b", "s_c", "s_start"] {
            ns += 10;
            let name = voc.lookup(name).expect("compiled name");
            events.push(TimedEvent::new(name, SimTime::from_ns(ns)));
        }
    }
    (engine, voc, events)
}
