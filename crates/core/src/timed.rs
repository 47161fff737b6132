//! Monitor for timed implication constraints `T = (P ⇒ Q, t)` (paper
//! Def. 5).
//!
//! The fragments of `P` and `Q` are concatenated and monitored as a *cyclic*
//! chain: the end of `Q` is the reset point, and the first event of the next
//! `P` wraps the recognizer around for the next episode (the pattern is
//! "implicitly of the repeated kind").
//!
//! Timing follows the paper's SystemC monitor: the variable `start` latches
//! the simulation time at which `P` is recognized, `stop` the time at which
//! recognition of `Q` finishes, and `stop − start ≤ t` is checked. Because a
//! range `n[u,v]` with `u < v` has several valid end points, the monitor
//! uses the *most permissive* decomposition (the property holds if **some**
//! decomposition meets the budget):
//!
//! * the end of `P` is the latest event consumed by `P`'s last fragment
//!   before `Q` begins — while `P`'s last fragment can still extend, the
//!   deadline is *movable* and its passage is not yet a violation;
//! * the end of `Q` is the **earliest** instant at which every range of
//!   `Q`'s last fragment has reached its minimum count.
//!
//! A deadline violation is reported as soon as it is unavoidable: when an
//! event, an [`Monitor::advance_time`] notification, or the end of
//! observation passes a deadline that can no longer move.

use lomon_trace::{NameSet, SimTime, TimedEvent};

use crate::antecedent::{witness_record, witness_snapshot};
use crate::ast::TimedImplication;
use crate::compose::{LooseOrderingRecognizer, OrderingStep};
use crate::recognizer::RangeState;
use crate::verdict::{Monitor, Obligation, Verdict, Violation, ViolationKind};
use crate::witness::{FlightRecorder, Witness, WitnessStep};

/// The direct (Drct) monitor for a timed implication constraint.
///
/// # Example
///
/// ```
/// use lomon_core::ast::{Fragment, LooseOrdering, Range, TimedImplication};
/// use lomon_core::timed::TimedImplicationMonitor;
/// use lomon_core::verdict::{run_to_end, Monitor, Verdict};
/// use lomon_trace::{SimTime, Trace, Vocabulary};
///
/// let mut voc = Vocabulary::new();
/// let start = voc.input("start");
/// let irq = voc.output("set_irq");
/// let prop = TimedImplication::new(
///     LooseOrdering::new(vec![Fragment::singleton(Range::once(start))]),
///     LooseOrdering::new(vec![Fragment::singleton(Range::once(irq))]),
///     SimTime::from_ns(100),
/// );
/// let mut monitor = TimedImplicationMonitor::new(prop);
/// let trace = Trace::from_pairs([
///     (SimTime::from_ns(10), start),
///     (SimTime::from_ns(60), irq), // 50ns after start: within budget
/// ]);
/// assert_eq!(run_to_end(&mut monitor, &trace), Verdict::PresumablySatisfied);
/// ```
#[derive(Debug, Clone)]
pub struct TimedImplicationMonitor {
    property: TimedImplication,
    recognizer: LooseOrderingRecognizer,
    /// Number of fragments belonging to `P` (indices `0..premise_len`).
    premise_len: usize,
    alphabet: NameSet,
    verdict: Verdict,
    violation: Option<Violation>,
    /// Time of the last event consumed in the current episode.
    last_consumed: Option<SimTime>,
    /// Frozen end of `P` once `Q` has begun (the paper's `start`).
    episode_start: Option<SimTime>,
    /// Earliest completion of `Q` (the paper's `stop`), once reached.
    response_done_at: Option<SimTime>,
    episodes: u64,
    /// Episodes whose response `Q` completed within the budget.
    responses_in_time: u64,
    diagnostics: bool,
    last_expected: NameSet,
    ops: u64,
    /// Explain mode: the bounded ring of contributing steps (see
    /// [`crate::witness`]); `None` keeps observation untouched.
    recorder: Option<Box<FlightRecorder>>,
    /// Attributing mode: record full cell/transition attribution instead
    /// of the live raw `(time, event)` chain. Only set on the fresh clones
    /// [`Monitor::witness`] replays a chain through.
    attribute: bool,
}

impl TimedImplicationMonitor {
    /// Build and activate the monitor.
    ///
    /// The property must be well-formed (see [`crate::wf`]); monitors built
    /// through [`crate::monitor::build_monitor`] are validated first.
    pub fn new(property: TimedImplication) -> Self {
        let fragments = property.all_fragments();
        let mut recognizer = LooseOrderingRecognizer::new_cyclic(&fragments);
        recognizer.start();
        let alphabet = property.alpha();
        let premise_len = property.premise.fragments.len();
        let mut monitor = TimedImplicationMonitor {
            property,
            recognizer,
            premise_len,
            alphabet,
            verdict: Verdict::PresumablySatisfied,
            violation: None,
            last_consumed: None,
            episode_start: None,
            response_done_at: None,
            episodes: 0,
            responses_in_time: 0,
            diagnostics: true,
            last_expected: NameSet::new(),
            ops: 0,
            recorder: None,
            attribute: false,
        };
        monitor.snapshot_expected();
        monitor
    }

    /// Disable the per-event expected-set snapshot (see
    /// [`crate::antecedent::AntecedentMonitor::without_diagnostics`]).
    pub fn without_diagnostics(mut self) -> Self {
        self.diagnostics = false;
        self.last_expected = NameSet::new();
        self
    }

    /// The monitored property.
    pub fn property(&self) -> &TimedImplication {
        &self.property
    }

    /// Completed `P ⇒ Q` episodes so far (counted when the next episode
    /// begins).
    pub fn episodes(&self) -> u64 {
        self.episodes
    }

    /// Episodes whose response `Q` completed within the deadline budget:
    /// the monitor's notion of a *satisfied* (non-vacuous) episode.
    pub fn satisfied_episodes(&self) -> u64 {
        self.responses_in_time
    }

    fn snapshot_expected(&mut self) {
        if self.diagnostics {
            self.last_expected = self.recognizer.expected();
        }
    }

    /// The latest possible end of the current `P` observation, if `P` is
    /// currently complete: frozen once `Q` has begun, movable before.
    fn premise_end(&self) -> Option<SimTime> {
        if let Some(frozen) = self.episode_start {
            return Some(frozen);
        }
        if self.recognizer.active_index() + 1 == self.premise_len
            && self.recognizer.active_fragment().can_complete()
        {
            self.last_consumed
        } else {
            None
        }
    }

    /// The obligation's deadline, movable or not (`None` when no complete
    /// `P` is pending a response).
    fn open_deadline(&self) -> Option<SimTime> {
        if self.response_done_at.is_some() {
            return None;
        }
        self.premise_end()?.checked_add(self.property.bound)
    }

    /// The deadline, only once it can no longer move: `Q` has begun, or
    /// `P`'s last fragment is complete and cannot extend.
    fn hard_deadline(&self) -> Option<SimTime> {
        if self.response_done_at.is_some() {
            return None;
        }
        if let Some(frozen) = self.episode_start {
            return frozen.checked_add(self.property.bound);
        }
        if self.recognizer.active_index() + 1 == self.premise_len
            && self.recognizer.active_fragment().can_complete()
            && !self.recognizer.active_fragment().can_extend()
        {
            return self.last_consumed?.checked_add(self.property.bound);
        }
        None
    }

    /// The deadline cell whose obligation was still open when the budget
    /// expired — the same selection rule as the compiled backend's
    /// `pick_obligation`: once inside `Q`, the first range of the active
    /// fragment below its minimum; when the active fragment is already
    /// completable, the next fragment's first range; while still in `P`,
    /// the first range of `Q`'s first fragment.
    fn pick_obligation(&self) -> Obligation {
        let ob = |r: &crate::recognizer::RangeRecognizer| Obligation {
            name: r.range().name,
            min: r.range().min,
            max: r.range().max,
        };
        let frags = self.recognizer.fragments();
        let active = self.recognizer.active_index();
        if active >= self.premise_len {
            let frag = &frags[active];
            if !frag.can_complete() {
                for r in frag.ranges() {
                    let satisfied = matches!(r.state(), RangeState::Done)
                        || (matches!(r.state(), RangeState::Counting)
                            && r.count() >= r.range().min);
                    if !satisfied {
                        return ob(r);
                    }
                }
            } else if active + 1 < frags.len() {
                return ob(&frags[active + 1].ranges()[0]);
            }
            ob(&frag.ranges()[0])
        } else {
            ob(&frags[self.premise_len].ranges()[0])
        }
    }

    /// Witness hook for an in-alphabet event that found the deadline
    /// already expired before stepping the recognizer (see the compiled
    /// backend's `record_stall`). Live explain mode records the bare
    /// `(time, event)` pair; attribute mode attributes the stall.
    fn record_stall(&mut self, event: TimedEvent) {
        if !self.attribute {
            if let Some(rec) = self.recorder.as_deref_mut() {
                rec.record_event(event);
            }
            return;
        }
        let active = self.recognizer.active_index();
        let frags = self.recognizer.fragments();
        let base: usize = frags[..active].iter().map(|f| f.ranges().len()).sum();
        let state = frags[active].ranges()[0].state().code();
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.record(WitnessStep {
                time: event.time,
                event: event.name,
                cell: base as u32,
                from: state,
                to: state,
            });
        }
    }

    fn miss_deadline(
        &mut self,
        kind: ViolationKind,
        deadline: SimTime,
        event: Option<TimedEvent>,
        now: SimTime,
    ) {
        self.verdict = Verdict::Violated;
        self.violation = Some(Violation {
            kind,
            event,
            time: now,
            expected: std::mem::take(&mut self.last_expected),
            detail: format!(
                "episode {}: Q unfinished at {now}, deadline was {deadline} \
                 (P ended {}, budget {})",
                self.episodes + 1,
                deadline.saturating_sub(self.property.bound),
                self.property.bound,
            ),
            obligation: Some(self.pick_obligation()),
        });
    }

    fn current_positive_verdict(&self) -> Verdict {
        if self.open_deadline().is_some() {
            Verdict::Pending
        } else {
            Verdict::PresumablySatisfied
        }
    }
}

impl Monitor for TimedImplicationMonitor {
    fn observe(&mut self, event: TimedEvent) -> Verdict {
        if self.verdict.is_final() {
            return self.verdict;
        }
        self.ops += 1; // alphabet projection test
        if !self.alphabet.contains(event.name) {
            // Even an unrelated event advances the clock.
            return self.advance_time(event.time);
        }
        // An event beyond a hard deadline makes the miss unavoidable —
        // whatever the event is, Q cannot have finished in time.
        self.ops += 1; // deadline compare
        if let Some(deadline) = self.hard_deadline() {
            if event.time > deadline {
                if self.recorder.is_some() {
                    self.record_stall(event);
                }
                self.miss_deadline(
                    ViolationKind::DeadlineMiss,
                    deadline,
                    Some(event),
                    event.time,
                );
                return self.verdict;
            }
        }
        let snap = if self.attribute {
            witness_snapshot(&mut self.recorder, &self.recognizer)
        } else {
            None
        };
        let step = self.recognizer.step(event.name);
        if let Some(snap) = snap {
            witness_record(&mut self.recorder, &self.recognizer, event, snap);
        } else if let Some(rec) = self.recorder.as_deref_mut() {
            rec.record_event(event);
        }
        match step {
            OrderingStep::Progress => {
                self.last_consumed = Some(event.time);
            }
            OrderingStep::Handover { to, .. } => {
                self.ops += 2; // boundary compares
                if to == self.premise_len {
                    // Q begins on this event: freeze the end of P at the
                    // last event P actually consumed.
                    self.episode_start = self.last_consumed;
                    debug_assert!(
                        self.episode_start.is_some(),
                        "handover into Q with no P event consumed"
                    );
                } else if to == 0 {
                    // This event starts the next episode's P.
                    self.episodes += 1;
                    self.episode_start = None;
                    self.response_done_at = None;
                }
                self.last_consumed = Some(event.time);
            }
            OrderingStep::Complete => unreachable!("cyclic recognizers never complete"),
            OrderingStep::Error {
                kind,
                fragment,
                range,
            } => {
                self.verdict = Verdict::Violated;
                self.violation = Some(Violation {
                    kind,
                    event: Some(event),
                    time: event.time,
                    expected: std::mem::take(&mut self.last_expected),
                    detail: format!(
                        "timed-implication episode {}: fragment {}/{} ({}), range {} rejected",
                        self.episodes + 1,
                        fragment + 1,
                        self.recognizer.fragments().len(),
                        if fragment < self.premise_len {
                            "in P"
                        } else {
                            "in Q"
                        },
                        range + 1,
                    ),
                    obligation: None,
                });
                return self.verdict;
            }
        }
        // Earliest completion of Q: the first instant the last fragment's
        // minima are all met ends the episode's obligation.
        self.ops += 2; // index compare + completion test
        let last = self.recognizer.fragments().len() - 1;
        if self.recognizer.active_index() == last
            && self.episode_start.is_some()
            && self.response_done_at.is_none()
            && self.recognizer.active_fragment().can_complete()
        {
            self.response_done_at = Some(event.time);
            let start = self.episode_start.expect("episode started");
            self.ops += 1; // budget compare
            if event.time.saturating_sub(start) > self.property.bound {
                let deadline = start
                    .checked_add(self.property.bound)
                    .unwrap_or(SimTime::MAX);
                self.miss_deadline(
                    ViolationKind::DeadlineMiss,
                    deadline,
                    Some(event),
                    event.time,
                );
                return self.verdict;
            }
            self.responses_in_time += 1;
        }
        self.verdict = self.current_positive_verdict();
        self.snapshot_expected();
        self.verdict
    }

    fn advance_time(&mut self, now: SimTime) -> Verdict {
        if self.verdict.is_final() {
            return self.verdict;
        }
        self.ops += 1; // deadline compare
        if let Some(deadline) = self.hard_deadline() {
            if now > deadline {
                self.miss_deadline(ViolationKind::DeadlineMiss, deadline, None, now);
            }
        }
        self.verdict
    }

    fn finish(&mut self, end_time: SimTime) -> Verdict {
        if self.verdict.is_final() {
            return self.verdict;
        }
        // At end of observation no extension can move the deadline any
        // more: a complete-but-unanswered P counts with its latest end.
        if let Some(deadline) = self.open_deadline() {
            if end_time > deadline {
                self.miss_deadline(
                    ViolationKind::DeadlineExpiredAtEnd,
                    deadline,
                    None,
                    end_time,
                );
            }
            // Otherwise the obligation is still open within budget:
            // Pending (inconclusive at end of observation).
        }
        self.verdict
    }

    fn verdict(&self) -> Verdict {
        self.verdict
    }

    fn alphabet(&self) -> &NameSet {
        &self.alphabet
    }

    fn expected(&self) -> NameSet {
        self.recognizer.expected()
    }

    fn violation(&self) -> Option<&Violation> {
        self.violation.as_ref()
    }

    fn deadline(&self) -> Option<SimTime> {
        if self.verdict.is_final() {
            None
        } else {
            self.hard_deadline()
        }
    }

    fn reset(&mut self) {
        self.recognizer.restart();
        self.verdict = Verdict::PresumablySatisfied;
        self.violation = None;
        self.last_consumed = None;
        self.episode_start = None;
        self.response_done_at = None;
        self.episodes = 0;
        self.responses_in_time = 0;
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.clear();
        }
        self.snapshot_expected();
    }

    fn ops(&self) -> u64 {
        self.ops + self.recognizer.ops()
    }

    fn state_bits(&self) -> u64 {
        // Recognizers + the paper's two sc_time variables (start, stop) +
        // the movable premise end + verdict and episode flags.
        self.recognizer.state_bits() + 3 * 64 + 2 + 3
    }

    fn set_explain(&mut self, capacity: usize) {
        self.recorder = if capacity == 0 {
            None
        } else {
            Some(Box::new(FlightRecorder::new(capacity)))
        };
    }

    fn witness(&self) -> Option<Witness> {
        let raw = self.recorder.as_deref().map(FlightRecorder::snapshot)?;
        if self.attribute {
            return Some(raw);
        }
        Some(self.attribute_witness(raw))
    }

    fn attribute_witness(&self, raw: Witness) -> Witness {
        crate::witness::reattribute(self, raw, |m, capacity| {
            m.attribute = true;
            m.set_explain(capacity);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Fragment, LooseOrdering, Range};
    use crate::verdict::run_to_end;
    use lomon_trace::{Name, Trace, Vocabulary};

    /// Paper Example 3: `(start ⇒ read_img[100,60000] < set_irq, T)`,
    /// scaled down to `read_img[2,4]` for unit-test traces.
    struct Ex3 {
        start: Name,
        read: Name,
        irq: Name,
        monitor: TimedImplicationMonitor,
    }

    fn example3(bound_ns: u64) -> Ex3 {
        let mut voc = Vocabulary::new();
        let start = voc.input("start");
        let read = voc.output("read_img");
        let irq = voc.output("set_irq");
        let prop = TimedImplication::new(
            LooseOrdering::new(vec![Fragment::singleton(Range::once(start))]),
            LooseOrdering::new(vec![
                Fragment::singleton(Range::new(read, 2, 4)),
                Fragment::singleton(Range::once(irq)),
            ]),
            SimTime::from_ns(bound_ns),
        );
        Ex3 {
            start,
            read,
            irq,
            monitor: TimedImplicationMonitor::new(prop),
        }
    }

    fn at(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    #[test]
    fn nominal_episode_within_budget() {
        let mut e = example3(100);
        let trace = Trace::from_pairs([
            (at(10), e.start),
            (at(20), e.read),
            (at(30), e.read),
            (at(40), e.read),
            (at(50), e.irq),
        ]);
        assert_eq!(
            run_to_end(&mut e.monitor, &trace),
            Verdict::PresumablySatisfied
        );
    }

    #[test]
    fn late_response_is_deadline_miss() {
        let mut e = example3(100);
        let trace = Trace::from_pairs([
            (at(10), e.start),
            (at(20), e.read),
            (at(30), e.read),
            (at(200), e.irq), // 190ns after start > 100ns
        ]);
        assert_eq!(run_to_end(&mut e.monitor, &trace), Verdict::Violated);
        assert_eq!(
            e.monitor.violation().unwrap().kind,
            ViolationKind::DeadlineMiss
        );
    }

    #[test]
    fn budget_runs_from_end_of_premise() {
        // start at 10ns, budget 100ns → deadline 110ns; irq at 105ns is ok
        // even though the reads straddle most of the budget.
        let mut e = example3(100);
        let trace = Trace::from_pairs([
            (at(10), e.start),
            (at(50), e.read),
            (at(100), e.read),
            (at(105), e.irq),
        ]);
        assert_eq!(
            run_to_end(&mut e.monitor, &trace),
            Verdict::PresumablySatisfied
        );
    }

    #[test]
    fn missing_response_detected_at_end_of_trace() {
        let mut e = example3(100);
        let mut trace = Trace::from_pairs([(at(10), e.start), (at(20), e.read), (at(30), e.read)]);
        trace.set_end_time(at(500));
        assert_eq!(run_to_end(&mut e.monitor, &trace), Verdict::Violated);
        assert_eq!(
            e.monitor.violation().unwrap().kind,
            ViolationKind::DeadlineExpiredAtEnd
        );
    }

    #[test]
    fn unfinished_episode_within_budget_is_pending() {
        let mut e = example3(100);
        let trace = Trace::from_pairs([(at(10), e.start), (at(20), e.read), (at(30), e.read)]);
        assert_eq!(run_to_end(&mut e.monitor, &trace), Verdict::Pending);
    }

    #[test]
    fn deadline_opens_when_premise_completes_and_cannot_extend() {
        let mut e = example3(100);
        assert_eq!(e.monitor.deadline(), None);
        e.monitor.observe(TimedEvent::new(e.start, at(10)));
        // start[1,1] cannot extend: the deadline is hard immediately.
        assert_eq!(e.monitor.deadline(), Some(at(110)));
        assert_eq!(e.monitor.verdict(), Verdict::Pending);
    }

    #[test]
    fn deadline_closes_when_response_earliest_completes() {
        let mut e = example3(100);
        for (t, n) in [(10, e.start), (20, e.read), (30, e.read)] {
            e.monitor.observe(TimedEvent::new(n, at(t)));
        }
        assert_eq!(e.monitor.deadline(), Some(at(110)));
        e.monitor.observe(TimedEvent::new(e.read, at(40)));
        assert_eq!(e.monitor.deadline(), Some(at(110)));
        e.monitor.observe(TimedEvent::new(e.irq, at(60)));
        assert_eq!(e.monitor.deadline(), None);
        assert_eq!(e.monitor.verdict(), Verdict::PresumablySatisfied);
    }

    #[test]
    fn advance_time_detects_timeout_online() {
        let mut e = example3(100);
        e.monitor.observe(TimedEvent::new(e.start, at(10)));
        assert_eq!(e.monitor.advance_time(at(100)), Verdict::Pending);
        assert_eq!(e.monitor.advance_time(at(111)), Verdict::Violated);
        assert_eq!(
            e.monitor.violation().unwrap().kind,
            ViolationKind::DeadlineMiss
        );
    }

    #[test]
    fn out_of_alphabet_event_advances_clock() {
        let mut voc = Vocabulary::new();
        let other = voc.input("other");
        let mut e = example3(100);
        e.monitor.observe(TimedEvent::new(e.start, at(10)));
        // An unrelated event at 300ns reveals the deadline miss.
        assert_eq!(
            e.monitor.observe(TimedEvent::new(other, at(300))),
            Verdict::Violated
        );
    }

    #[test]
    fn repeated_episodes_each_get_their_own_budget() {
        let mut e = example3(100);
        let trace = Trace::from_pairs([
            (at(10), e.start),
            (at(20), e.read),
            (at(30), e.read),
            (at(40), e.irq),
            // second episode, new budget from 1000ns
            (at(1000), e.start),
            (at(1020), e.read),
            (at(1040), e.read),
            (at(1090), e.irq),
        ]);
        assert_eq!(
            run_to_end(&mut e.monitor, &trace),
            Verdict::PresumablySatisfied
        );
        assert_eq!(e.monitor.episodes(), 1); // wrap counted on 2nd start
    }

    #[test]
    fn second_episode_can_violate() {
        let mut e = example3(100);
        let trace = Trace::from_pairs([
            (at(10), e.start),
            (at(20), e.read),
            (at(30), e.read),
            (at(40), e.irq),
            (at(1000), e.start),
            (at(1020), e.read),
            (at(1030), e.read),
            (at(2000), e.irq),
        ]);
        assert_eq!(run_to_end(&mut e.monitor, &trace), Verdict::Violated);
    }

    #[test]
    fn response_without_premise_errs() {
        let mut e = example3(100);
        let trace = Trace::from_pairs([(at(10), e.read)]);
        assert_eq!(run_to_end(&mut e.monitor, &trace), Verdict::Violated);
        // In the cyclic chain read_img is the Ac of P's fragment, arriving
        // while nothing of P has been seen: premature stop.
        assert_eq!(
            e.monitor.violation().unwrap().kind,
            ViolationKind::PrematureStop
        );
        // An irq without premise is a later-than-next name instead.
        let mut e = example3(100);
        let trace = Trace::from_pairs([(at(10), e.irq)]);
        assert_eq!(run_to_end(&mut e.monitor, &trace), Verdict::Violated);
        assert_eq!(
            e.monitor.violation().unwrap().kind,
            ViolationKind::AfterName
        );
    }

    #[test]
    fn too_few_reads_then_irq_errs() {
        let mut e = example3(100);
        let trace = Trace::from_pairs([(at(10), e.start), (at(20), e.read), (at(30), e.irq)]);
        assert_eq!(run_to_end(&mut e.monitor, &trace), Verdict::Violated);
        assert_eq!(
            e.monitor.violation().unwrap().kind,
            ViolationKind::PrematureStop
        );
    }

    #[test]
    fn too_many_reads_errs() {
        let mut e = example3(1000);
        let trace = Trace::from_pairs([
            (at(10), e.start),
            (at(20), e.read),
            (at(21), e.read),
            (at(22), e.read),
            (at(23), e.read),
            (at(24), e.read),
        ]);
        assert_eq!(run_to_end(&mut e.monitor, &trace), Verdict::Violated);
        assert_eq!(e.monitor.violation().unwrap().kind, ViolationKind::TooMany);
    }

    #[test]
    fn premise_end_uses_latest_extension() {
        // P = start[1,2]: two starts; the budget runs from the second.
        let mut voc = Vocabulary::new();
        let start = voc.input("start");
        let irq = voc.output("set_irq");
        let prop = TimedImplication::new(
            LooseOrdering::new(vec![Fragment::singleton(Range::new(start, 1, 2))]),
            LooseOrdering::new(vec![Fragment::singleton(Range::once(irq))]),
            SimTime::from_ns(100),
        );
        let mut monitor = TimedImplicationMonitor::new(prop);
        let trace = Trace::from_pairs([
            (at(10), start),
            (at(80), start), // P's end moves to 80ns → deadline 180ns
            (at(150), irq),
        ]);
        assert_eq!(
            run_to_end(&mut monitor, &trace),
            Verdict::PresumablySatisfied
        );
    }

    #[test]
    fn movable_deadline_does_not_fire_online() {
        // While P can still extend, passing the movable deadline is not a
        // violation: a later P event may re-base it.
        let mut voc = Vocabulary::new();
        let start = voc.input("start");
        let irq = voc.output("set_irq");
        let prop = TimedImplication::new(
            LooseOrdering::new(vec![Fragment::singleton(Range::new(start, 1, 2))]),
            LooseOrdering::new(vec![Fragment::singleton(Range::once(irq))]),
            SimTime::from_ns(100),
        );
        let mut monitor = TimedImplicationMonitor::new(prop);
        monitor.observe(TimedEvent::new(start, at(10)));
        assert_eq!(monitor.deadline(), None, "deadline still movable");
        assert_eq!(monitor.advance_time(at(500)), Verdict::Pending);
        // The second start re-bases the budget; irq meets it.
        monitor.observe(TimedEvent::new(start, at(600)));
        assert_eq!(monitor.deadline(), Some(at(700)));
        assert_eq!(
            monitor.observe(TimedEvent::new(irq, at(650))),
            Verdict::PresumablySatisfied
        );
    }

    #[test]
    fn movable_deadline_still_counts_at_end_of_trace() {
        let mut voc = Vocabulary::new();
        let start = voc.input("start");
        let irq = voc.output("set_irq");
        let prop = TimedImplication::new(
            LooseOrdering::new(vec![Fragment::singleton(Range::new(start, 1, 2))]),
            LooseOrdering::new(vec![Fragment::singleton(Range::once(irq))]),
            SimTime::from_ns(100),
        );
        let mut monitor = TimedImplicationMonitor::new(prop);
        let mut trace = Trace::from_pairs([(at(10), start)]);
        trace.set_end_time(at(1000));
        assert_eq!(run_to_end(&mut monitor, &trace), Verdict::Violated);
        assert_eq!(
            monitor.violation().unwrap().kind,
            ViolationKind::DeadlineExpiredAtEnd
        );
    }

    #[test]
    fn response_end_uses_earliest_completion() {
        // Q = read[2,4] (single fragment): earliest completion at the 2nd
        // read; later reads may exceed the deadline without violating.
        let mut voc = Vocabulary::new();
        let start = voc.input("start");
        let read = voc.output("read_img");
        let prop = TimedImplication::new(
            LooseOrdering::new(vec![Fragment::singleton(Range::once(start))]),
            LooseOrdering::new(vec![Fragment::singleton(Range::new(read, 2, 4))]),
            SimTime::from_ns(100),
        );
        let mut monitor = TimedImplicationMonitor::new(prop);
        let trace = Trace::from_pairs([
            (at(10), start),
            (at(20), read),
            (at(30), read),  // earliest completion at 30ns — within budget
            (at(500), read), // extension beyond the deadline: still fine
        ]);
        assert_eq!(
            run_to_end(&mut monitor, &trace),
            Verdict::PresumablySatisfied
        );
    }

    #[test]
    fn reset_clears_episode_state() {
        let mut e = example3(100);
        e.monitor.observe(TimedEvent::new(e.start, at(10)));
        e.monitor.reset();
        assert_eq!(e.monitor.deadline(), None);
        assert_eq!(e.monitor.verdict(), Verdict::PresumablySatisfied);
        assert_eq!(e.monitor.episodes(), 0);
    }

    #[test]
    fn instrumentation_reports() {
        let mut e = example3(100);
        let bits = e.monitor.state_bits();
        assert!(bits > 3 * 64);
        e.monitor.observe(TimedEvent::new(e.start, at(10)));
        assert!(e.monitor.ops() > 0);
        assert_eq!(e.monitor.state_bits(), bits);
    }

    #[test]
    fn violation_detail_mentions_part() {
        let mut e = example3(100);
        run_to_end(&mut e.monitor, &Trace::from_pairs([(at(10), e.read)]));
        let v = e.monitor.violation().unwrap();
        assert!(v.detail.contains("in P"), "detail: {}", v.detail);
    }

    #[test]
    fn multi_fragment_premise_arms_late() {
        // P = a < b, Q = irq: the budget runs from b, not a.
        let mut voc = Vocabulary::new();
        let a = voc.input("a");
        let b = voc.input("b");
        let irq = voc.output("set_irq");
        let prop = TimedImplication::new(
            LooseOrdering::new(vec![
                Fragment::singleton(Range::once(a)),
                Fragment::singleton(Range::once(b)),
            ]),
            LooseOrdering::new(vec![Fragment::singleton(Range::once(irq))]),
            SimTime::from_ns(100),
        );
        let mut monitor = TimedImplicationMonitor::new(prop);
        monitor.observe(TimedEvent::new(a, at(10)));
        assert_eq!(monitor.deadline(), None, "P incomplete");
        monitor.observe(TimedEvent::new(b, at(500)));
        assert_eq!(monitor.deadline(), Some(at(600)));
        assert_eq!(
            monitor.observe(TimedEvent::new(irq, at(590))),
            Verdict::PresumablySatisfied
        );
    }
}
