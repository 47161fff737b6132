//! Random trace generation from loose-ordering patterns.
//!
//! The paper's final sentence: "Future work will be devoted to a
//! translation of the patterns into some code for generating random
//! sequences. This will provide a full integration of loose-orderings in an
//! ABV framework." This module is that generator: a seeded random member
//! of the pattern's language, with timestamps that respect a timed
//! implication's budget — Fig. 1's stimuli generator derived directly from
//! the specification.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use lomon_core::ast::{Fragment, FragmentOp, LooseOrdering, Property};
use lomon_trace::{Name, SimTime, Trace};

/// Generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct GeneratorConfig {
    /// RNG seed (same seed, same trace).
    pub seed: u64,
    /// Number of `P·i` / `P·Q` episodes (one-shot antecedents always get
    /// one episode plus a random tail).
    pub episodes: u32,
    /// Lower bound between consecutive events.
    pub gap_lo: SimTime,
    /// Upper bound between consecutive events.
    pub gap_hi: SimTime,
    /// Length of the arbitrary tail appended after a one-shot antecedent's
    /// trigger.
    pub tail: u32,
}

impl GeneratorConfig {
    /// Sensible defaults for a given seed.
    pub fn new(seed: u64) -> Self {
        GeneratorConfig {
            seed,
            episodes: 3,
            gap_lo: SimTime::from_ns(10),
            gap_hi: SimTime::from_ns(100),
            tail: 4,
        }
    }
}

/// A generated satisfying trace, with the choices that produced it (useful
/// for coverage accounting).
#[derive(Debug, Clone)]
pub struct GeneratedTrace {
    /// The trace itself.
    pub trace: Trace,
    /// Per episode, per fragment: the participating ranges (indices) in
    /// emission order with their chosen repetition counts.
    pub choices: Vec<Vec<Vec<(usize, u32)>>>,
}

/// Generate one satisfying trace for a (well-formed) property.
///
/// Timed implications emit each episode's `Q` within the budget; repeated
/// antecedents emit `episodes` rounds of `P·i`; one-shot antecedents emit
/// one round plus an arbitrary tail over the alphabet. Every episode is
/// emitted whole: generation stops before an episode whose clock would
/// pass [`SimTime::MAX`], so huge gaps or bounds give fewer episodes.
pub fn generate(property: &Property, config: &GeneratorConfig) -> GeneratedTrace {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut names: Vec<(Name, SimTime)> = Vec::new();
    let mut choices = Vec::new();
    let mut clock = SimTime::ZERO;
    let (gap_lo, gap_hi) = (config.gap_lo, config.gap_hi);

    match property {
        Property::Antecedent(a) => {
            let rounds = if a.repeated {
                config.episodes.max(1)
            } else {
                1
            };
            for _ in 0..rounds {
                let mut run = Run::at(clock);
                let mut episode = Vec::new();
                emit_ordering(
                    &a.antecedent,
                    &mut rng,
                    &mut |name, rng_inner| run.tick(rng_inner, name, gap_lo, gap_hi),
                    &mut episode,
                );
                run.tick(&mut rng, a.trigger, gap_lo, gap_hi);
                if !run.commit(&mut clock, &mut names) {
                    break;
                }
                choices.push(episode);
            }
            // The tail follows the one-shot episode, if it fit.
            if !a.repeated && !choices.is_empty() {
                // Anything over α is acceptable after the first trigger.
                let alphabet: Vec<Name> = a.alpha().iter().collect();
                for _ in 0..config.tail {
                    let name = alphabet[rng.gen_range(0..alphabet.len())];
                    let mut run = Run::at(clock);
                    run.tick(&mut rng, name, gap_lo, gap_hi);
                    if !run.commit(&mut clock, &mut names) {
                        break;
                    }
                }
            }
        }
        Property::Timed(t) => {
            // Keep a 20% margin under the budget, computed so that it
            // cannot overflow: `bound * 4` would, past 2^62 ps.
            let bound = t.bound.as_ps();
            let budget = SimTime::from_ps(bound / 5 * 4 + bound % 5 * 4 / 5);
            for _ in 0..config.episodes.max(1) {
                let mut run = Run::at(clock);
                let mut episode = Vec::new();
                emit_ordering(
                    &t.premise,
                    &mut rng,
                    &mut |name, rng_inner| run.tick(rng_inner, name, gap_lo, gap_hi),
                    &mut episode,
                );
                // Q must finish within `bound` of the premise's end: count
                // the response events first, then squeeze their gaps into
                // (at most) the budget.
                let mut response_names = Vec::new();
                emit_ordering(
                    &t.response,
                    &mut rng,
                    &mut |name, _| response_names.push(name),
                    &mut episode,
                );
                let count = response_names.len() as u64;
                if count > 0 {
                    let max_gap = (budget / count).max(SimTime::from_ps(1));
                    let lo = gap_lo.min(max_gap);
                    for name in response_names {
                        run.tick(&mut rng, name, lo, max_gap);
                    }
                }
                if !run.commit(&mut clock, &mut names) {
                    break;
                }
                choices.push(episode);
            }
        }
    }

    GeneratedTrace {
        trace: Trace::from_pairs(names.into_iter().map(|(n, t)| (t, n))),
        choices,
    }
}

/// The events of one episode, timestamped from a starting clock; `clock`
/// is `None` once a gap would have passed [`SimTime::MAX`].
struct Run {
    clock: Option<SimTime>,
    events: Vec<(Name, SimTime)>,
}

impl Run {
    fn at(clock: SimTime) -> Self {
        Run {
            clock: Some(clock),
            events: Vec::new(),
        }
    }

    /// Emit `name` after a random gap in `[lo, hi]`.
    fn tick(&mut self, rng: &mut StdRng, name: Name, lo: SimTime, hi: SimTime) {
        let gap = SimTime::from_ps(rng.gen_range(lo.as_ps()..=hi.as_ps()));
        self.clock = self.clock.and_then(|clock| clock.checked_add(gap));
        if let Some(time) = self.clock {
            self.events.push((name, time));
        }
    }

    /// Append the run to `names` and advance `clock` to its end. If a gap
    /// overflowed, commit nothing and return `false`.
    fn commit(self, clock: &mut SimTime, names: &mut Vec<(Name, SimTime)>) -> bool {
        let Some(end) = self.clock else {
            return false;
        };
        *clock = end;
        names.extend(self.events);
        true
    }
}

/// Emit one random member of a loose-ordering, recording the per-fragment
/// choices.
fn emit_ordering(
    ordering: &LooseOrdering,
    rng: &mut StdRng,
    emit: &mut impl FnMut(Name, &mut StdRng),
    episode: &mut Vec<Vec<(usize, u32)>>,
) {
    for fragment in &ordering.fragments {
        episode.push(emit_fragment(fragment, rng, emit));
    }
}

/// Emit one random member of a fragment; returns `(range index, count)` in
/// emission order.
fn emit_fragment(
    fragment: &Fragment,
    rng: &mut StdRng,
    emit: &mut impl FnMut(Name, &mut StdRng),
) -> Vec<(usize, u32)> {
    let mut participating: Vec<usize> = match fragment.op {
        FragmentOp::All => (0..fragment.ranges.len()).collect(),
        FragmentOp::Any => {
            let mut picked: Vec<usize> = (0..fragment.ranges.len())
                .filter(|_| rng.gen_bool(0.5))
                .collect();
            if picked.is_empty() {
                picked.push(rng.gen_range(0..fragment.ranges.len()));
            }
            picked
        }
    };
    participating.shuffle(rng);
    let mut out = Vec::new();
    for index in participating {
        let range = &fragment.ranges[index];
        let count = rng.gen_range(range.min..=range.max);
        for _ in 0..count {
            emit(range.name, rng);
        }
        out.push((index, count));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lomon_core::monitor::build_monitor;
    use lomon_core::parse::parse_property;
    use lomon_core::semantics::PatternOracle;
    use lomon_core::verdict::{run_to_end, Verdict};
    use lomon_trace::Vocabulary;

    fn check_generated(text: &str, seeds: std::ops::Range<u64>) {
        let mut voc = Vocabulary::new();
        let property = parse_property(text, &mut voc).expect(text);
        let oracle = PatternOracle::new(&property);
        for seed in seeds {
            let generated = generate(&property, &GeneratorConfig::new(seed));
            assert!(
                oracle.check(&generated.trace).is_ok(),
                "{text} seed {seed}: generated trace rejected by the oracle"
            );
            let mut monitor = build_monitor(property.clone(), &voc).expect("well-formed");
            let verdict = run_to_end(&mut monitor, &generated.trace);
            assert!(
                verdict.is_ok(),
                "{text} seed {seed}: monitor verdict {verdict}"
            );
        }
    }

    #[test]
    fn generated_traces_satisfy_antecedents() {
        check_generated("all{a, b, c} << go once", 0..20);
        check_generated("all{a, b} < any{c[2,8], d} < e << i repeated", 0..20);
        check_generated("n[3,5] << i repeated", 0..20);
    }

    #[test]
    fn generated_traces_satisfy_timed_implications() {
        check_generated("start => read[2,4] < irq within 1 ms", 0..20);
        check_generated("a < b => out1[1,3] < out2 within 500 us", 0..20);
    }

    #[test]
    fn one_shot_traces_end_satisfied() {
        let mut voc = Vocabulary::new();
        let property = parse_property("all{a, b} << go once", &mut voc).unwrap();
        let generated = generate(&property, &GeneratorConfig::new(3));
        let mut monitor = build_monitor(property, &voc).unwrap();
        assert_eq!(
            run_to_end(&mut monitor, &generated.trace),
            Verdict::Satisfied
        );
        // One episode plus the tail.
        assert!(generated.trace.len() as u32 >= 3 + GeneratorConfig::new(3).tail);
    }

    #[test]
    fn repeated_episode_count_respected() {
        let mut voc = Vocabulary::new();
        let property = parse_property("a << i repeated", &mut voc).unwrap();
        let config = GeneratorConfig {
            episodes: 5,
            ..GeneratorConfig::new(1)
        };
        let generated = generate(&property, &config);
        let i = voc.lookup("i").unwrap();
        assert_eq!(generated.trace.names().filter(|n| *n == i).count(), 5);
        assert_eq!(generated.choices.len(), 5);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut voc = Vocabulary::new();
        let property = parse_property("any{a, b[2,3]} << i repeated", &mut voc).unwrap();
        let a = generate(&property, &GeneratorConfig::new(9));
        let b = generate(&property, &GeneratorConfig::new(9));
        assert_eq!(a.trace, b.trace);
        let c = generate(&property, &GeneratorConfig::new(10));
        assert_ne!(a.trace, c.trace);
    }

    #[test]
    fn timed_episodes_meet_their_budgets() {
        let mut voc = Vocabulary::new();
        let property = parse_property("start => read[2,4] < irq within 100 us", &mut voc).unwrap();
        let generated = generate(&property, &GeneratorConfig::new(4));
        let start = voc.lookup("start").unwrap();
        let irq = voc.lookup("irq").unwrap();
        let events = generated.trace.events();
        let mut last_start = None;
        for e in events {
            if e.name == start {
                last_start = Some(e.time);
            } else if e.name == irq {
                let started = last_start.expect("irq after start");
                assert!(e.time - started <= SimTime::from_us(100));
            }
        }
    }

    /// Bounds up to `SimTime::MAX` neither wrap the clock nor overflow the
    /// budget: the trace stops before the episode that would pass the
    /// end of time, and what it emits is still a satisfying trace.
    #[test]
    fn huge_bounds_stop_before_the_clock_overflows() {
        for bound in ["4000000 s", "5000000 s", "18446744 s"] {
            let text = format!("go => out:done within {bound}");
            let mut voc = Vocabulary::new();
            let property = parse_property(&text, &mut voc).expect(&text);
            for seed in 0..8 {
                let config = GeneratorConfig {
                    episodes: 12,
                    ..GeneratorConfig::new(seed)
                };
                let generated = generate(&property, &config);
                let times: Vec<SimTime> = generated.trace.iter().map(|e| e.time).collect();
                assert!(times.windows(2).all(|w| w[0] <= w[1]), "{text} seed {seed}");
                assert!(!generated.choices.is_empty(), "{text} seed {seed}");
                assert_eq!(times.len(), 2 * generated.choices.len(), "whole episodes");
                assert!(PatternOracle::new(&property)
                    .check(&generated.trace)
                    .is_ok());
                let mut monitor = build_monitor(property.clone(), &voc).expect("well-formed");
                let verdict = run_to_end(&mut monitor, &generated.trace);
                assert!(
                    verdict.is_ok(),
                    "{text} seed {seed}: monitor verdict {verdict}"
                );
            }
        }
    }

    #[test]
    fn choices_describe_the_emission() {
        let mut voc = Vocabulary::new();
        let property = parse_property("all{a, b} << i once", &mut voc).unwrap();
        let generated = generate(&property, &GeneratorConfig::new(6));
        // One episode, one fragment, both ranges once each.
        assert_eq!(generated.choices.len(), 1);
        assert_eq!(generated.choices[0].len(), 1);
        let mut indices: Vec<usize> = generated.choices[0][0].iter().map(|&(ix, _)| ix).collect();
        indices.sort_unstable();
        assert_eq!(indices, vec![0, 1]);
        assert!(generated.choices[0][0].iter().all(|&(_, count)| count == 1));
    }
}
