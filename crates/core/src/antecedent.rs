//! Monitor for antecedent requirements `A = (P << i, b)` (paper Def. 4).
//!
//! The trigger `i` is the stop set of `P`'s linear recognizer chain: when
//! the last fragment completes *on* `i`, the occurrence of `i` is validated.
//! With `repeated = true` the chain restarts and the next `i` needs a fresh
//! `P`; with `repeated = false` the monitor passivates — the property is
//! irrevocably [`Verdict::Satisfied`].

use lomon_trace::{NameSet, SimTime, TimedEvent};

use crate::ast::Antecedent;
use crate::compose::{LooseOrderingRecognizer, OrderingStep};
use crate::verdict::{Monitor, Verdict, Violation};
use crate::witness::{FlightRecorder, Witness};

/// The direct (Drct) monitor for an antecedent requirement.
///
/// # Example
///
/// ```
/// use lomon_core::ast::{Antecedent, Fragment, FragmentOp, LooseOrdering, Range};
/// use lomon_core::antecedent::AntecedentMonitor;
/// use lomon_core::verdict::{run_to_end, Monitor, Verdict};
/// use lomon_trace::{Trace, Vocabulary};
///
/// let mut voc = Vocabulary::new();
/// let a = voc.input("set_imgAddr");
/// let b = voc.input("set_glAddr");
/// let start = voc.input("start");
/// let prop = Antecedent::new(
///     LooseOrdering::new(vec![Fragment::new(
///         FragmentOp::All,
///         vec![Range::once(a), Range::once(b)],
///     )]),
///     start,
///     false,
/// );
/// let mut monitor = AntecedentMonitor::new(prop);
/// let verdict = run_to_end(&mut monitor, &Trace::from_names([b, a, start]));
/// assert_eq!(verdict, Verdict::Satisfied);
/// ```
#[derive(Debug, Clone)]
pub struct AntecedentMonitor {
    property: Antecedent,
    recognizer: LooseOrderingRecognizer,
    alphabet: NameSet,
    verdict: Verdict,
    violation: Option<Violation>,
    episodes: u64,
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

impl AntecedentMonitor {
    /// Build and activate the monitor.
    ///
    /// The property must be well-formed (see [`crate::wf`]); monitors built
    /// through [`crate::monitor::build_monitor`] are validated first.
    pub fn new(property: Antecedent) -> Self {
        let stop: NameSet = [property.trigger].into_iter().collect();
        let mut recognizer = LooseOrderingRecognizer::new_linear(&property.antecedent, &stop);
        recognizer.start();
        let alphabet = property.alpha();
        let mut monitor = AntecedentMonitor {
            property,
            recognizer,
            alphabet,
            verdict: Verdict::PresumablySatisfied,
            violation: None,
            episodes: 0,
            diagnostics: true,
            last_expected: NameSet::new(),
            ops: 0,
            recorder: None,
            attribute: false,
        };
        monitor.snapshot_expected();
        monitor
    }

    /// Disable the per-event expected-set snapshot (diagnostics). Violation
    /// reports then carry an empty expected set; per-event cost drops to
    /// the recognizers alone. Used by the benchmarks.
    pub fn without_diagnostics(mut self) -> Self {
        self.diagnostics = false;
        self.last_expected = NameSet::new();
        self
    }

    /// The monitored property.
    pub fn property(&self) -> &Antecedent {
        &self.property
    }

    /// Completed `P << i` episodes so far.
    pub fn episodes(&self) -> u64 {
        self.episodes
    }

    /// Episodes in which the antecedent obligation was discharged (for an
    /// antecedent property every completed episode is a satisfied one).
    pub fn satisfied_episodes(&self) -> u64 {
        self.episodes
    }

    fn snapshot_expected(&mut self) {
        if self.diagnostics {
            self.last_expected = self.recognizer.expected();
        }
    }
}

/// Witness support shared by the two interp monitors: snapshot the active
/// fragment's `(state, count)` pairs before a recognizer step, and diff
/// after it to attribute the event to the first changed cell (the same
/// rule the compiled backend applies over its arena).
pub(crate) fn witness_snapshot(
    recorder: &mut Option<Box<FlightRecorder>>,
    recognizer: &LooseOrderingRecognizer,
) -> Option<(usize, u32)> {
    let rec = recorder.as_deref_mut()?;
    let active = recognizer.active_index();
    let frags = recognizer.fragments();
    let base: usize = frags[..active].iter().map(|f| f.ranges().len()).sum();
    let scratch = rec.begin_scratch();
    for r in frags[active].ranges() {
        scratch.push((r.state().code(), r.count()));
    }
    Some((active, base as u32))
}

/// Record the post-step diff against a [`witness_snapshot`].
pub(crate) fn witness_record(
    recorder: &mut Option<Box<FlightRecorder>>,
    recognizer: &LooseOrderingRecognizer,
    event: TimedEvent,
    snap: (usize, u32),
) {
    let (active, base) = snap;
    if let Some(rec) = recorder.as_deref_mut() {
        let post = recognizer.fragments()[active]
            .ranges()
            .iter()
            .map(|r| (r.state().code(), r.count()));
        rec.record_diff(event, base, post);
    }
}

impl Monitor for AntecedentMonitor {
    fn observe(&mut self, event: TimedEvent) -> Verdict {
        if self.verdict.is_final() {
            return self.verdict;
        }
        self.ops += 1; // alphabet projection test
        if !self.alphabet.contains(event.name) {
            return self.verdict;
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
            OrderingStep::Progress | OrderingStep::Handover { .. } => {
                self.verdict = Verdict::PresumablySatisfied;
                self.snapshot_expected();
            }
            OrderingStep::Complete => {
                self.episodes += 1;
                self.ops += 1; // repeated-flag test
                if self.property.repeated {
                    self.recognizer.restart();
                    self.verdict = Verdict::PresumablySatisfied;
                    self.snapshot_expected();
                } else {
                    self.verdict = Verdict::Satisfied;
                }
            }
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
                        "antecedent episode {}: fragment {}/{}, range {} rejected",
                        self.episodes + 1,
                        fragment + 1,
                        self.property.antecedent.fragments.len(),
                        range + 1,
                    ),
                    obligation: None,
                });
            }
        }
        self.verdict
    }

    fn finish(&mut self, _end_time: SimTime) -> Verdict {
        // Antecedent requirements are pure safety: every consistent prefix
        // is acceptable, so the verdict is whatever has been latched.
        self.verdict
    }

    fn verdict(&self) -> Verdict {
        self.verdict
    }

    fn alphabet(&self) -> &NameSet {
        &self.alphabet
    }

    fn expected(&self) -> NameSet {
        if self.verdict == Verdict::Satisfied {
            // Passive: everything in α is acceptable.
            self.alphabet.clone()
        } else {
            // The trigger is acceptable exactly when the last fragment can
            // complete, which the recognizer's Ac sets already cover.
            self.recognizer.expected()
        }
    }

    fn violation(&self) -> Option<&Violation> {
        self.violation.as_ref()
    }

    fn reset(&mut self) {
        self.recognizer.restart();
        self.verdict = Verdict::PresumablySatisfied;
        self.violation = None;
        self.episodes = 0;
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.clear();
        }
        self.snapshot_expected();
    }

    fn ops(&self) -> u64 {
        self.ops + self.recognizer.ops()
    }

    fn state_bits(&self) -> u64 {
        // Recognizers + verdict (2 bits) + episode handling flag.
        self.recognizer.state_bits() + 2 + 1
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
    use crate::ast::{Fragment, FragmentOp, LooseOrdering, Range};
    use crate::verdict::{run_to_end, ViolationKind};
    use lomon_trace::{Name, Trace, Vocabulary};

    /// Paper Example 2:
    /// `(({set_imgAddr, set_glAddr, set_glSize}, ∧) << start, false)`.
    struct Ex2 {
        img: Name,
        gl: Name,
        sz: Name,
        start: Name,
        other: Name,
        monitor: AntecedentMonitor,
    }

    fn example2() -> Ex2 {
        let mut voc = Vocabulary::new();
        let img = voc.input("set_imgAddr");
        let gl = voc.input("set_glAddr");
        let sz = voc.input("set_glSize");
        let start = voc.input("start");
        let other = voc.input("unrelated");
        let prop = Antecedent::new(
            LooseOrdering::new(vec![Fragment::new(
                FragmentOp::All,
                vec![Range::once(img), Range::once(gl), Range::once(sz)],
            )]),
            start,
            false,
        );
        Ex2 {
            img,
            gl,
            sz,
            start,
            other,
            monitor: AntecedentMonitor::new(prop),
        }
    }

    fn repeated_single(n_min: u32, n_max: u32) -> (Name, Name, AntecedentMonitor) {
        let mut voc = Vocabulary::new();
        let n = voc.input("n");
        let i = voc.input("i");
        let prop = Antecedent::new(
            LooseOrdering::new(vec![Fragment::singleton(Range::new(n, n_min, n_max))]),
            i,
            true,
        );
        (n, i, AntecedentMonitor::new(prop))
    }

    #[test]
    fn example2_accepts_any_order() {
        for perm in [[0usize, 1, 2], [2, 1, 0], [1, 0, 2]] {
            let mut e = example2();
            let names = [e.img, e.gl, e.sz];
            let seq: Vec<Name> = perm.iter().map(|&k| names[k]).chain([e.start]).collect();
            let verdict = run_to_end(&mut e.monitor, &Trace::from_names(seq));
            assert_eq!(verdict, Verdict::Satisfied, "perm {perm:?}");
        }
    }

    #[test]
    fn example2_rejects_missing_register() {
        let mut e = example2();
        let verdict = run_to_end(&mut e.monitor, &Trace::from_names([e.img, e.gl, e.start]));
        assert_eq!(verdict, Verdict::Violated);
        let v = e.monitor.violation().expect("violation report");
        assert_eq!(v.kind, ViolationKind::MissingRange);
    }

    #[test]
    fn example2_rejects_start_first() {
        let mut e = example2();
        let verdict = run_to_end(&mut e.monitor, &Trace::from_names([e.start]));
        assert_eq!(verdict, Verdict::Violated);
        // start is the stop name of the only fragment: premature stop.
        assert_eq!(
            e.monitor.violation().unwrap().kind,
            ViolationKind::PrematureStop
        );
    }

    #[test]
    fn example2_once_passivates_after_start() {
        let mut e = example2();
        // After a validated start, anything goes (b = false).
        let trace = Trace::from_names([e.img, e.gl, e.sz, e.start, e.start, e.img, e.img]);
        let verdict = run_to_end(&mut e.monitor, &trace);
        assert_eq!(verdict, Verdict::Satisfied);
        assert_eq!(e.monitor.episodes(), 1);
    }

    #[test]
    fn events_outside_alphabet_are_ignored() {
        let mut e = example2();
        let trace = Trace::from_names([e.other, e.img, e.other, e.gl, e.sz, e.other, e.start]);
        assert_eq!(run_to_end(&mut e.monitor, &trace), Verdict::Satisfied);
    }

    #[test]
    fn duplicate_register_write_before_trigger_errs() {
        let mut e = example2();
        let verdict = run_to_end(&mut e.monitor, &Trace::from_names([e.img, e.img]));
        // img[1,1] exceeded: TooMany.
        assert_eq!(verdict, Verdict::Violated);
        assert_eq!(e.monitor.violation().unwrap().kind, ViolationKind::TooMany);
    }

    #[test]
    fn repeated_requires_fresh_p_for_each_i() {
        let (n, i, mut monitor) = repeated_single(1, 1);
        // n i n i — fine.
        assert_eq!(
            run_to_end(&mut monitor, &Trace::from_names([n, i, n, i])),
            Verdict::PresumablySatisfied
        );
        assert_eq!(monitor.episodes(), 2);
        // n i i — second i has no fresh P.
        monitor.reset();
        assert_eq!(
            run_to_end(&mut monitor, &Trace::from_names([n, i, i])),
            Verdict::Violated
        );
        assert_eq!(
            monitor.violation().unwrap().kind,
            ViolationKind::PrematureStop
        );
    }

    #[test]
    fn repeated_with_range_counts_per_episode() {
        let (n, i, mut monitor) = repeated_single(2, 3);
        assert_eq!(
            run_to_end(&mut monitor, &Trace::from_names([n, n, i, n, n, n, i])),
            Verdict::PresumablySatisfied
        );
        monitor.reset();
        // Second episode has only one n.
        assert_eq!(
            run_to_end(&mut monitor, &Trace::from_names([n, n, i, n, i])),
            Verdict::Violated
        );
    }

    #[test]
    fn verdict_latches_after_violation() {
        let (n, i, mut monitor) = repeated_single(1, 1);
        let t = Trace::from_names([i]);
        assert_eq!(run_to_end(&mut monitor, &t), Verdict::Violated);
        // Feeding more events does not resurrect it.
        let more = Trace::from_names([n, i]);
        for &e in more.iter() {
            assert_eq!(monitor.observe(e), Verdict::Violated);
        }
    }

    #[test]
    fn mid_episode_verdict_is_presumably_satisfied() {
        let mut e = example2();
        e.monitor.observe(lomon_trace::TimedEvent::new(
            e.img,
            lomon_trace::SimTime::from_ns(1),
        ));
        assert_eq!(e.monitor.verdict(), Verdict::PresumablySatisfied);
        assert!(!e.monitor.verdict().is_final());
    }

    #[test]
    fn expected_reflects_progress() {
        let mut e = example2();
        let exp = e.monitor.expected();
        assert!(exp.contains(e.img) && exp.contains(e.gl) && exp.contains(e.sz));
        e.monitor.observe(lomon_trace::TimedEvent::new(
            e.img,
            lomon_trace::SimTime::from_ns(1),
        ));
        let exp = e.monitor.expected();
        assert!(!exp.contains(e.img));
        assert!(exp.contains(e.gl) && exp.contains(e.sz));
    }

    #[test]
    fn violation_report_carries_expected_set() {
        let mut e = example2();
        run_to_end(&mut e.monitor, &Trace::from_names([e.img, e.start]));
        let v = e.monitor.violation().unwrap();
        assert!(v.expected.contains(e.gl) && v.expected.contains(e.sz));
        assert!(!v.expected.contains(e.start));
        assert!(v.detail.contains("fragment 1/1"));
    }

    #[test]
    fn without_diagnostics_still_detects() {
        let mut e = example2();
        e.monitor = e.monitor.clone().without_diagnostics();
        let verdict = run_to_end(&mut e.monitor, &Trace::from_names([e.start]));
        assert_eq!(verdict, Verdict::Violated);
        assert!(e.monitor.violation().unwrap().expected.is_empty());
    }

    #[test]
    fn reset_restores_initial_behaviour() {
        let mut e = example2();
        run_to_end(&mut e.monitor, &Trace::from_names([e.start]));
        assert_eq!(e.monitor.verdict(), Verdict::Violated);
        e.monitor.reset();
        assert_eq!(e.monitor.verdict(), Verdict::PresumablySatisfied);
        assert!(e.monitor.violation().is_none());
        let verdict = run_to_end(
            &mut e.monitor,
            &Trace::from_names([e.img, e.gl, e.sz, e.start]),
        );
        assert_eq!(verdict, Verdict::Satisfied);
    }

    #[test]
    fn instrumentation_counts() {
        let mut e = example2();
        let bits = e.monitor.state_bits();
        assert!(bits > 0);
        run_to_end(&mut e.monitor, &Trace::from_names([e.img, e.gl]));
        assert!(e.monitor.ops() > 0);
        assert_eq!(e.monitor.state_bits(), bits);
    }
}
