//! Seeded differential test cases: the one generator behind every suite
//! that checks two implementations of the semantics against each other.
//!
//! A [`Case`] is a vocabulary, one property or a rulebook, and a trace
//! kept as a few `(name, count)` [`Run`]s, all fixed by one `u64` seed, so
//! a failing case prints as its properties and a handful of runs. Range
//! bounds come from two classes:
//!
//! * **small** — `u` in 1..=3 and `v` at most `u + 2`;
//! * **boundary** — `v` at 2^k − 1, 2^k or 2^k + 1 for `k` up to 32
//!   (capped at `u32::MAX`), half the time at one of the counter widths
//!   8, 16 and 32; `u` at `v`, small, or itself near a power of two.
//!
//! One case in eight draws three ranges in four from the boundary class;
//! the others draw small bounds only.
//!
//! The trace is [`generate`]d from a property of the case. When every
//! bound of that property is small, half the traces carry one [`edit`] as
//! [`mutate`](crate::mutate()) draws it. A case with small bounds only
//! holds at most [`SMALL_BUDGET`] events, so the NFA oracle and the ViaPSL
//! translation check it ([`Case::fits_oracle`]). In any other case each
//! run of a boundary range holds `u − 1`, `u`, `v` or `v + 1` events as
//! far as [`WIDE_BUDGET`], room for a run of `2^8 + 1`, allows.
//!
//! A *long* case ([`Case::long_antecedent`], [`Case::long_timed`]) is a
//! case with small bounds whose first run is widened to 2^16 events or
//! more, so that a counter read that wraps at 16 bits or fewer shows in
//! every one of them, whatever else its seed draws.
//!
//! [`Case::cross_check`] pits the interpreter against the compiled
//! program that fused rulebooks run, with explain mode on and off, and
//! checks witness replay, on any case.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use lomon_core::ast::{
    Antecedent, Fragment, FragmentOp, LooseOrdering, Property, Range, TimedImplication,
};
use lomon_core::compiled::compile_monitor;
use lomon_core::monitor::build_monitor;
use lomon_core::verdict::{Monitor, Verdict, Violation};
use lomon_core::witness::replay_witness;
use lomon_trace::{Name, SimTime, Trace, Vocabulary};

use crate::generate::{generate, GeneratorConfig};
use crate::mutate::edit;

/// Most events in a case with small bounds only, and in a trace the NFA
/// oracle, the ViaPSL strategies and the brute-force timed checker check.
pub const SMALL_BUDGET: u32 = 48;

/// Most events in a case with a wider bound: room for a run of `2^8 + 1`.
pub const WIDE_BUDGET: u32 = (1 << 8) + 64;

/// Most events in a long case: a first run of up to `2^16 + 2` events in
/// place of one of a case with small bounds.
pub const LONG_BUDGET: u32 = (1 << 16) + 2 + SMALL_BUDGET;

/// Largest bound of the small class, and of a property the NFA oracle is
/// built for.
const SMALL: u32 = 5;

/// One case in this many draws three ranges in four from the boundary
/// class.
const BOUNDARY_ODDS: u32 = 8;

/// The counter widths where a representation changes, which the boundary
/// class draws as often as all other exponents together.
const WIDTHS: [u32; 3] = [8, 16, 32];

/// A run's per-event gap is drawn up to one of these, in nanoseconds.
const GAP_SCALES_NS: [u64; 4] = [1, 10, 100, 1000];

/// `count` events named `name`, each `gap` after the one before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// The events' name.
    pub name: Name,
    /// How many events the run holds.
    pub count: u32,
    /// Time before each of them.
    pub gap: SimTime,
}

/// Properties over one vocabulary and a trace, drawn from one seed.
#[derive(Debug, Clone)]
pub struct Case {
    /// Every name of the properties, and `noise`, which none of them uses.
    pub voc: Vocabulary,
    /// One property, or a rulebook.
    pub properties: Vec<Property>,
    /// The trace, run by run.
    pub runs: Vec<Run>,
    /// Time from the last event to the end of the trace.
    pub idle: SimTime,
}

impl Case {
    /// One antecedent `P << trigger`, `P` over the inputs `n0, n1, …`.
    pub fn antecedent(seed: u64) -> Case {
        Draw::new(seed, false).antecedent()
    }

    /// A long case of [`Case::antecedent`]: see [`Case::long_timed`].
    pub fn long_antecedent(seed: u64) -> Case {
        Draw::new(seed, true).antecedent()
    }

    /// One timed implication `P ⇒ Q within bound`, `P` over the inputs
    /// `p0, p1, …` and `Q` over the outputs `q0, q1, …`.
    pub fn timed(seed: u64, bound: SimTime) -> Case {
        Draw::new(seed, false).timed(bound)
    }

    /// A long case of [`Case::timed`]: its bounds are small but for the
    /// range of the trace's first run, which is widened to `u` at least
    /// 2 and `v` at 2^16 or 2^16 + 1; the run holds `v` or `v + 1`
    /// events. Nothing before the run ends the episode, so a counter read
    /// that wraps to 0 or 1 there either lets the run overflow `v`
    /// unnoticed or finds it below `u` when the episode moves on.
    pub fn long_timed(seed: u64, bound: SimTime) -> Case {
        Draw::new(seed, true).timed(bound)
    }

    /// One timed implication whose premise ends in the single input `p`
    /// (`p ⇒ Q` or `P' < p ⇒ Q`, `P'` over `n0, n1, …`), so that its
    /// episodes split at each `p`; `P'` and `Q` have up to two fragments of
    /// up to two ranges. Such cases are for checkers that split a trace
    /// into episodes.
    pub fn timed_at_p(seed: u64, bound: SimTime) -> Case {
        let mut draw = Draw::new(seed, false);
        let mut voc = Vocabulary::new();
        let mut premise = LooseOrdering::new(Vec::new());
        if draw.rng.gen_bool(0.5) {
            premise = draw.ordering(2, |k| voc.input(&format!("n{k}")));
        }
        premise
            .fragments
            .push(Fragment::singleton(Range::once(voc.input("p"))));
        let response = draw.ordering(2, |k| voc.output(&format!("q{k}")));
        let property = TimedImplication::new(premise, response, bound).into();
        draw.case(voc, vec![property])
    }

    /// A rulebook over shared pools, the inputs `n0..n9` and the outputs
    /// `o0..o5`: one to four properties, each an antecedent or a timed
    /// implication within 30, 150 or 1000 ns, its names consecutive in the
    /// pools from a random offset. An `overlapping` rulebook holds two to
    /// six properties picked with repetition from one to three, so equal
    /// properties share a fused group and distinct ones share names.
    pub fn rulebook(seed: u64, overlapping: bool) -> Case {
        let mut draw = Draw::new(seed, false);
        let mut voc = Vocabulary::new();
        let inputs: Vec<Name> = (0..10).map(|k| voc.input(&format!("n{k}"))).collect();
        let outputs: Vec<Name> = (0..6).map(|k| voc.output(&format!("o{k}"))).collect();
        let count: usize = draw.rng.gen_range(1..=if overlapping { 3 } else { 4 });
        let mut properties: Vec<Property> =
            (0..count).map(|_| draw.pooled(&inputs, &outputs)).collect();
        if overlapping {
            properties = (0..draw.rng.gen_range(2..=6usize))
                .map(|_| properties[draw.rng.gen_range(0..count)].clone())
                .collect();
        }
        draw.case(voc, properties)
    }

    /// The same properties over another trace, drawn from `seed`.
    pub fn retrace(&self, seed: u64) -> Case {
        let mut draw = Draw::new(seed, false);
        let noise = self
            .voc
            .lookup("noise")
            .expect("every case interns `noise`");
        let runs = draw.runs(&self.properties, noise);
        Case {
            voc: self.voc.clone(),
            properties: self.properties.clone(),
            runs,
            idle: draw.gap(),
        }
    }

    /// The number of events in the trace.
    fn len(&self) -> u64 {
        self.runs.iter().map(|run| u64::from(run.count)).sum()
    }

    /// The trace, its end `idle` after its last event.
    pub fn trace(&self) -> Trace {
        let mut trace = Trace::new();
        let mut clock = SimTime::ZERO;
        for run in &self.runs {
            for _ in 0..run.count {
                clock += run.gap;
                trace.push(run.name, clock);
            }
        }
        trace.set_end_time(clock + self.idle);
        trace
    }

    /// Whether the NFA oracle, and so the ViaPSL translation, fit
    /// `property` on this trace: its bounds are small and the trace holds
    /// at most [`SMALL_BUDGET`] events, as every case with small bounds
    /// only does.
    pub fn fits_oracle(&self, property: &Property) -> bool {
        ranges(property).all(|r| r.max <= SMALL) && self.len() <= u64::from(SMALL_BUDGET)
    }

    /// Check every property on the trace in the interpreter and in the
    /// compiled monitor (the program a fused rulebook runs for each group
    /// of equal properties), each with a flight recorder of `capacity`
    /// steps: their verdicts, ops, violations and witnesses must be
    /// identical, explain mode must leave the compiled monitor's verdict,
    /// ops and violation as they are without it, and a witness that
    /// dropped no step must replay to the same violation (kind, time,
    /// expected set) in a fresh interpreter and a fresh compiled monitor.
    ///
    /// # Errors
    ///
    /// The first divergence found, followed by the case.
    pub fn cross_check(&self, capacity: usize) -> Result<(), String> {
        let trace = self.trace();
        for property in &self.properties {
            self.cross_check_property(property, &trace, capacity)
                .map_err(|divergence| format!("{divergence}\n{self}"))?;
        }
        Ok(())
    }

    fn cross_check_property(
        &self,
        property: &Property,
        trace: &Trace,
        capacity: usize,
    ) -> Result<(), String> {
        let end = trace.end_time();
        let fresh = (
            build_monitor(property.clone(), &self.voc).expect("well-formed"),
            compile_monitor(property.clone(), &self.voc).expect("well-formed"),
        );
        let (mut interp, mut compiled) = fresh.clone();
        let mut unexplained = fresh.1.clone();
        interp.set_explain(capacity);
        compiled.set_explain(capacity);
        let monitors: [&mut dyn Monitor; 3] = [&mut interp, &mut compiled, &mut unexplained];
        let outcomes = monitors.map(|monitor| {
            let verdict = run(monitor, trace, end);
            let violation = monitor.violation().map(|v| violation_key(v, true));
            (verdict, monitor.ops(), violation)
        });
        if outcomes[0] != outcomes[1] {
            return Err(format!(
                "{}: interpreter and compiled runs differ: {:?}",
                property.display(&self.voc),
                &outcomes[..2]
            ));
        }
        if outcomes[1] != outcomes[2] {
            return Err(format!(
                "{}: explain mode changed the compiled run: {:?} with it, {:?} without",
                property.display(&self.voc),
                outcomes[1],
                outcomes[2]
            ));
        }
        let witness = compiled.witness().expect("explain is armed");
        if interp.witness().as_ref() != Some(&witness) {
            return Err(format!(
                "{}: interpreter witness {:?} differs from the compiled {witness:?}",
                property.display(&self.voc),
                interp.witness()
            ));
        }
        if outcomes[1].0 != Verdict::Violated || witness.dropped > 0 {
            return Ok(());
        }
        let violation = compiled.violation().expect("violated");
        let original = Some(violation_key(violation, false));
        let fresh: [Box<dyn Monitor>; 2] = [Box::new(fresh.0), Box::new(fresh.1)];
        for mut monitor in fresh {
            let verdict = replay_witness(monitor.as_mut(), &witness, violation, end);
            let replayed = monitor.violation().map(|v| violation_key(v, false));
            if verdict != Verdict::Violated || replayed != original {
                return Err(format!(
                    "{}: witness replays to {verdict} {replayed:?}, not {original:?}",
                    property.display(&self.voc)
                ));
            }
        }
        Ok(())
    }
}

impl fmt::Display for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for property in &self.properties {
            writeln!(f, "property: {}", property.display(&self.voc))?;
        }
        write!(f, "trace:")?;
        for run in &self.runs {
            let name = self.voc.resolve(run.name);
            write!(f, " {name}×{} +{},", run.count, run.gap)?;
        }
        write!(f, " end +{}", self.idle)
    }
}

/// The seeded drawing behind every [`Case`].
struct Draw {
    rng: StdRng,
    /// Whether the case draws ranges from the boundary class.
    boundary: bool,
    /// Whether the case is long: see [`Case::long_timed`].
    long: bool,
}

impl Draw {
    fn new(seed: u64, long: bool) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let boundary = !long && rng.gen_range(0..BOUNDARY_ODDS) == 0;
        Draw {
            rng,
            boundary,
            long,
        }
    }

    /// See [`Case::antecedent`].
    fn antecedent(mut self) -> Case {
        let mut voc = Vocabulary::new();
        let ordering = self.ordering(3, |k| voc.input(&format!("n{k}")));
        let repeated = self.rng.gen_bool(0.5);
        let property = Antecedent::new(ordering, voc.input("trigger"), repeated).into();
        self.case(voc, vec![property])
    }

    /// See [`Case::timed`].
    fn timed(mut self, bound: SimTime) -> Case {
        let mut voc = Vocabulary::new();
        let premise = self.ordering(3, |k| voc.input(&format!("p{k}")));
        let response = self.ordering(3, |k| voc.output(&format!("q{k}")));
        let property = TimedImplication::new(premise, response, bound).into();
        self.case(voc, vec![property])
    }

    /// Interns `noise` and draws the trace.
    fn case(mut self, mut voc: Vocabulary, mut properties: Vec<Property>) -> Case {
        let noise = voc.input("noise");
        let mut runs = self.runs(&properties, noise);
        if self.long {
            self.widen(&mut properties[0], &mut runs);
        }
        Case {
            voc,
            properties,
            runs,
            idle: self.gap(),
        }
    }

    /// Widens the range of the trace's first run; see
    /// [`Case::long_timed`].
    fn widen(&mut self, property: &mut Property, runs: &mut [Run]) {
        let first = runs
            .iter_mut()
            .find(|run| ranges(property).any(|r| r.name == run.name));
        let Some(run) = first else { return };
        let v = (1 << 16) + self.rng.gen_range(0..=1u32);
        let u = self.lower(v).max(2);
        run.count = v + self.rng.gen_range(0..=1u32);
        let name = run.name;
        *property = map_ranges(property, |r| {
            if r.name == name {
                Range::new(name, u, v)
            } else {
                r.clone()
            }
        });
    }

    /// Up to `max` fragments of up to `max` ranges; range `k` is `name(k)`.
    fn ordering(&mut self, max: usize, mut name: impl FnMut(usize) -> Name) -> LooseOrdering {
        let mut fragments = Vec::new();
        let mut k = 0;
        for _ in 0..self.rng.gen_range(1..=max) {
            let op = if self.rng.gen_bool(0.5) {
                FragmentOp::Any
            } else {
                FragmentOp::All
            };
            let mut ranges = Vec::new();
            for _ in 0..self.rng.gen_range(1..=max) {
                let (u, v) = self.bounds();
                ranges.push(Range::new(name(k), u, v));
                k += 1;
            }
            fragments.push(Fragment::new(op, ranges));
        }
        LooseOrdering::new(fragments)
    }

    /// A rulebook property over the pools; see [`Case::rulebook`].
    fn pooled(&mut self, inputs: &[Name], outputs: &[Name]) -> Property {
        let offset = self.rng.gen_range(0..inputs.len());
        let premise = self.ordering(2, |k| inputs[(offset + k) % inputs.len()]);
        if self.rng.gen_bool(0.5) {
            let trigger = inputs[(offset + premise.ranges().count()) % inputs.len()];
            return Antecedent::new(premise, trigger, self.rng.gen_bool(0.5)).into();
        }
        let offset = self.rng.gen_range(0..outputs.len());
        let response = self.ordering(2, |k| outputs[(offset + k) % outputs.len()]);
        let bound = SimTime::from_ns([30, 150, 1000][self.rng.gen_range(0..3usize)]);
        TimedImplication::new(premise, response, bound).into()
    }

    /// `(u, v)` of one range, from the small or the boundary class.
    fn bounds(&mut self) -> (u32, u32) {
        if !(self.boundary && self.rng.gen_bool(0.75)) {
            let u = self.rng.gen_range(1..=3u32);
            return (u, u + self.rng.gen_range(0..=2u32));
        }
        let v = self.near_power();
        (self.lower(v), v)
    }

    /// A boundary lower bound for `v`: `v` itself, small, or near a power
    /// of two.
    fn lower(&mut self, v: u32) -> u32 {
        match self.rng.gen_range(0..3) {
            0 => v,
            1 => self.rng.gen_range(1..=3u32).min(v),
            _ => self.near_power().min(v),
        }
    }

    /// 2^k − 1, 2^k or 2^k + 1 within `1..=u32::MAX`, `k` one of
    /// [`WIDTHS`] or any in 0..=32.
    fn near_power(&mut self) -> u32 {
        let k = if self.rng.gen_bool(0.5) {
            WIDTHS[self.rng.gen_range(0..WIDTHS.len())]
        } else {
            self.rng.gen_range(0..=32)
        };
        let n = (1u64 << k) + self.rng.gen_range(0..=2u64) - 1;
        u32::try_from(n.max(1)).unwrap_or(u32::MAX)
    }

    /// A trace generated from one property, or from one or two of a
    /// rulebook's in turn, maybe with one `noise` event inserted in each.
    /// Ranges with a bound above the small class are generated once per
    /// episode and then given a boundary count. The trace holds at most
    /// [`SMALL_BUDGET`] events if every bound is small (as a long case's
    /// are until [`Draw::widen`]), or else [`WIDE_BUDGET`]. A long case's
    /// trace is never edited, so that its first run starts an episode.
    fn runs(&mut self, properties: &[Property], noise: Name) -> Vec<Run> {
        let mut runs: Vec<Run> = Vec::new();
        let all_small = properties.iter().flat_map(ranges).all(|r| r.max <= SMALL);
        let mut budget = if all_small { SMALL_BUDGET } else { WIDE_BUDGET };
        // At most two episodes: of one property, or one each of one or two
        // of a rulebook's.
        let (segments, episodes) = if properties.len() > 1 { (2, 1) } else { (1, 2) };
        for _ in 0..self.rng.gen_range(1..=segments) {
            let property = &properties[self.rng.gen_range(0..properties.len())];
            let config = GeneratorConfig {
                episodes: self.rng.gen_range(1..=episodes),
                tail: self.rng.gen_range(0..=3),
                ..GeneratorConfig::new(self.rng.next_u64())
            };
            let small = ranges(property).all(|r| r.max <= SMALL);
            let generated = if small {
                generate(property, &config)
            } else {
                generate(&narrowed(property), &config)
            };
            let mut names: Vec<Name> = generated.trace.names().collect();
            if small && !self.long && !names.is_empty() && self.rng.gen_bool(0.5) {
                let alphabet: Vec<Name> = property.alpha().iter().collect();
                names = edit(&names, &alphabet, &mut self.rng).1;
            }
            if self.rng.gen_bool(0.5) {
                names.insert(self.rng.gen_range(0..=names.len()), noise);
            }
            let mut segment: Vec<Run> = Vec::new();
            for name in names {
                match segment.last_mut() {
                    Some(run) if run.name == name => run.count += 1,
                    _ => segment.push(Run {
                        name,
                        count: 1,
                        gap: self.gap(),
                    }),
                }
            }
            for mut run in segment {
                let boundary = ranges(property).find(|r| r.name == run.name && r.max > SMALL);
                if let Some(&Range { min: u, max: v, .. }) = boundary {
                    let fits: Vec<u32> = [u - 1, u, v, v.saturating_add(1)]
                        .into_iter()
                        .filter(|&count| count <= budget)
                        .collect();
                    let pick = self.rng.gen_range(0..fits.len().max(1));
                    run.count = fits.get(pick).copied().unwrap_or(1);
                }
                run.count = run.count.min(budget);
                budget -= run.count;
                if run.count > 0 {
                    runs.push(run);
                }
            }
        }
        runs
    }

    /// A per-event gap, up to 1, 10, 100 or 1000 ns.
    fn gap(&mut self) -> SimTime {
        let scale = GAP_SCALES_NS[self.rng.gen_range(0..GAP_SCALES_NS.len())];
        SimTime::from_ns(self.rng.gen_range(0..=scale))
    }
}

/// The ranges of a property, premise before response.
fn ranges(property: &Property) -> impl Iterator<Item = &Range> {
    let (first, second) = match property {
        Property::Antecedent(a) => (&a.antecedent, None),
        Property::Timed(t) => (&t.premise, Some(&t.response)),
    };
    first
        .ranges()
        .chain(second.into_iter().flat_map(LooseOrdering::ranges))
}

/// `property` with every range above the small class narrowed to `[1,1]`,
/// for [`generate`] to lay out its episodes.
fn narrowed(property: &Property) -> Property {
    map_ranges(property, |r| {
        if r.max > SMALL {
            Range::once(r.name)
        } else {
            r.clone()
        }
    })
}

/// `property` with each range replaced by `f` of it.
fn map_ranges(property: &Property, f: impl Fn(&Range) -> Range) -> Property {
    let map = |ordering: &LooseOrdering| {
        LooseOrdering::new(
            ordering
                .fragments
                .iter()
                .map(|fragment| {
                    Fragment::new(fragment.op, fragment.ranges.iter().map(&f).collect())
                })
                .collect(),
        )
    };
    match property {
        Property::Antecedent(a) => {
            Antecedent::new(map(&a.antecedent), a.trigger, a.repeated).into()
        }
        Property::Timed(t) => {
            TimedImplication::new(map(&t.premise), map(&t.response), t.bound).into()
        }
    }
}

/// Feed the trace until the verdict is final, then finish at `end`.
fn run(monitor: &mut dyn Monitor, trace: &Trace, end: SimTime) -> Verdict {
    for &event in trace.iter() {
        if monitor.verdict().is_final() {
            return monitor.verdict();
        }
        monitor.observe(event);
    }
    if monitor.verdict().is_final() {
        monitor.verdict()
    } else {
        monitor.finish(end)
    }
}

/// A violation as compared across backends; `full` adds the event and the
/// detail text to the kind, time and expected set that a replay keeps.
fn violation_key(v: &Violation, full: bool) -> String {
    let expected: Vec<Name> = v.expected.iter().collect();
    if full {
        format!(
            "{:?} {:?} {} {expected:?} {}",
            v.kind, v.event, v.time, v.detail
        )
    } else {
        format!("{:?} {} {expected:?}", v.kind, v.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_draws_one_case() {
        for seed in 0..64 {
            let (a, b) = (Case::rulebook(seed, true), Case::rulebook(seed, true));
            assert_eq!(a.to_string(), b.to_string());
            assert_eq!(a.trace(), b.trace());
        }
    }

    #[test]
    fn bounds_reach_u32_max_and_runs_stay_in_budget() {
        let cases: Vec<Case> = (0..2000).map(Case::antecedent).collect();
        let bounds: Vec<u32> = cases
            .iter()
            .flat_map(|case| case.properties.iter().flat_map(ranges).map(|r| r.max))
            .collect();
        for v in [1 << 8, (1 << 16) + 1, u32::MAX] {
            assert!(bounds.contains(&v), "no range bound {v} in 2000 cases");
        }
        for case in &cases {
            let property = &case.properties[0];
            assert!(case.len() <= u64::from(WIDE_BUDGET));
            let small = ranges(property).all(|r| r.max <= SMALL);
            assert_eq!(small, case.fits_oracle(property), "{case}");
        }
    }

    #[test]
    fn long_cases_start_with_a_run_of_2_16_or_more() {
        for seed in 0..32 {
            for case in [
                Case::long_antecedent(seed),
                Case::long_timed(seed, SimTime::from_ns(8)),
            ] {
                let first = case
                    .runs
                    .iter()
                    .find(|run| run.name != case.voc.lookup("noise").unwrap());
                assert!(first.unwrap().count >= 1 << 16, "{case}");
                assert!(case.len() <= u64::from(LONG_BUDGET), "{case}");
            }
        }
    }
}
