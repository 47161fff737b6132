//! The ViaPSL monitor: run-length lexer + one sub-monitor per conjunct.
//!
//! This is the modular synthesis of \[14\] applied to the Section 5
//! translation: each conjunct becomes an *observer* with a constant amount
//! of state, and every observed token is offered to every observer — so the
//! per-event time and the total state are proportional to the formula size,
//! exactly the cost model the paper assumes for the ViaPSL strategy. The
//! quadratically-many `Range` conjuncts of a wide range therefore make
//! these monitors quadratically slow/large, while the Drct monitors of
//! `lomon-core` stay flat: that contrast is Fig. 6.
//!
//! The monitor implements the same [`Monitor`] trait as the direct
//! monitors, so benchmarks and tests can drive both interchangeably.
//! Verdicts are untimed: a timed implication's budget is checked by the
//! Drct monitor only, and the paper's ViaPSL column (Fig. 6) likewise
//! measures only the recognizer logic.

use lomon_core::ast::Property;
use lomon_core::verdict::{Monitor, Verdict, Violation, ViolationKind};
use lomon_trace::{LexedToken, NameSet, RunLengthLexer, SimTime, TimedEvent};

use crate::translate::{
    translate, Family, Observer, TranslateError, TranslateOptions, Translation,
};

/// A modular PSL monitor for a loose-ordering property (ViaPSL strategy).
///
/// # Example
///
/// ```
/// use lomon_core::parse::parse_property;
/// use lomon_core::verdict::{run_to_end, Verdict};
/// use lomon_psl::monitor::PslMonitor;
/// use lomon_trace::{Trace, Vocabulary};
///
/// let mut voc = Vocabulary::new();
/// let prop = parse_property("all{a, b} << go once", &mut voc).unwrap();
/// let mut monitor = PslMonitor::build(&prop).unwrap();
/// let a = voc.lookup("a").unwrap();
/// let b = voc.lookup("b").unwrap();
/// let go = voc.lookup("go").unwrap();
/// assert_eq!(
///     run_to_end(&mut monitor, &Trace::from_names([b, a, go])),
///     Verdict::Satisfied
/// );
/// ```
#[derive(Debug, Clone)]
pub struct PslMonitor {
    observers: Vec<Observer>,
    active: Vec<bool>,
    weights: Vec<u64>,
    trigger: crate::translate::TokenSet,
    repeated: bool,
    alphabet: NameSet,
    lexer: RunLengthLexer,
    lexer_bits: u64,
    /// Per-name eager-emission bounds (the ranged names' maxima), needed by
    /// the end-of-trace analysis of a pending run.
    bounds: Vec<(lomon_trace::Name, u32)>,
    done: bool,
    verdict: Verdict,
    violation: Option<Violation>,
    ops: u64,
}

impl PslMonitor {
    /// Translate (with default limits) and build the monitor.
    ///
    /// # Errors
    ///
    /// Propagates [`TranslateError`] for unsupported or too-large patterns.
    pub fn build(property: &Property) -> Result<Self, TranslateError> {
        Self::build_with(property, TranslateOptions::default())
    }

    /// Translate with explicit options and build the monitor.
    ///
    /// # Errors
    ///
    /// Propagates [`TranslateError`] for unsupported or too-large patterns.
    pub fn build_with(
        property: &Property,
        options: TranslateOptions,
    ) -> Result<Self, TranslateError> {
        Ok(Self::from_translation(translate(property, options)?))
    }

    /// Build from an existing translation.
    pub fn from_translation(translation: Translation) -> Self {
        let Translation {
            observers,
            collapsible,
            trigger,
            repeated,
            alphabet,
            ..
        } = translation;
        let mut lexer_names = NameSet::new();
        for r in &collapsible {
            lexer_names.insert(r.name);
        }
        let mut lexer = RunLengthLexer::new(lexer_names);
        let mut max_bound = 1u64;
        for r in &collapsible {
            lexer = lexer.with_bound(r.name, r.max);
            max_bound = max_bound.max(u64::from(r.max));
        }
        let lexer_bits = if collapsible.is_empty() {
            0
        } else {
            RunLengthLexer::state_bits(max_bound)
        };
        let active = observers
            .iter()
            .map(|o| {
                matches!(
                    o,
                    Observer::Triggered {
                        init_active: true,
                        ..
                    }
                )
            })
            .collect();
        let weights = observers.iter().map(Observer::weight).collect();
        let bounds = collapsible.iter().map(|r| (r.name, r.max)).collect();
        PslMonitor {
            observers,
            active,
            weights,
            trigger,
            repeated,
            alphabet,
            lexer,
            lexer_bits,
            bounds,
            done: false,
            verdict: Verdict::PresumablySatisfied,
            violation: None,
            ops: 0,
        }
    }

    /// Whether `token` would trip some observer in the current state
    /// (read-only; used by the end-of-trace pending-run analysis).
    fn would_violate(&self, token: LexedToken) -> bool {
        for (idx, observer) in self.observers.iter().enumerate() {
            match observer {
                Observer::Asynch { .. } => {}
                Observer::Forbid { test, .. } => {
                    if test.matches(token) {
                        return true;
                    }
                }
                Observer::Triggered { avoid, target, .. } => {
                    if self.active[idx] && !target.matches(token) && avoid.matches(token) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Number of observers (= conjuncts).
    pub fn observer_count(&self) -> usize {
        self.observers.len()
    }

    fn violate(&mut self, family: Family, token: LexedToken, time: SimTime) {
        // Family → nearest diagnostic kind (labels only; cross-strategy
        // tests compare verdicts, not kinds).
        let kind = match family {
            Family::BadToken => ViolationKind::TooMany,
            Family::MaxOne | Family::Range => ViolationKind::BlockSplit,
            Family::Order => ViolationKind::BeforeName,
            Family::Precede => ViolationKind::AfterName,
            Family::BeforeI => ViolationKind::PrematureStop,
            Family::Asynch => unreachable!("asynch never fires on sequences"),
        };
        self.verdict = Verdict::Violated;
        self.violation = Some(Violation {
            kind,
            event: Some(TimedEvent::new(token.name, time)),
            time,
            expected: NameSet::new(),
            detail: format!(
                "PSL conjunct family {} rejected token run of length {}",
                family.label(),
                token.run
            ),
            obligation: None,
        });
    }

    /// Offer one token to every observer.
    fn process_token(&mut self, lexed: lomon_trace::LexedEvent) {
        if self.verdict.is_final() || self.done {
            return;
        }
        let token = lexed.token;
        let time = lexed.last_time;
        for idx in 0..self.observers.len() {
            // The modular-synthesis cost model: every conjunct's
            // sub-monitor network is clocked on every token.
            self.ops += self.weights[idx];
            match &self.observers[idx] {
                Observer::Asynch { .. } => {}
                Observer::Forbid { test, .. } => {
                    if test.matches(token) {
                        self.violate(Family::BadToken, token, time);
                        return;
                    }
                }
                Observer::Triggered {
                    family,
                    triggers,
                    avoid,
                    target,
                    ..
                } => {
                    let family = *family;
                    if self.active[idx] {
                        if target.matches(token) {
                            self.active[idx] = false;
                        } else if avoid.matches(token) {
                            self.violate(family, token, time);
                            return;
                        }
                    }
                    if triggers.matches(token) {
                        self.active[idx] = true;
                    }
                }
            }
        }
        // A validated episode boundary: for one-shot properties the monitor
        // passivates with an irrevocable pass.
        if self.trigger.matches(token) && !self.repeated {
            self.done = true;
            self.verdict = Verdict::Satisfied;
        }
    }
}

impl Monitor for PslMonitor {
    fn observe(&mut self, event: TimedEvent) -> Verdict {
        if self.verdict.is_final() {
            return self.verdict;
        }
        self.ops += 1; // alphabet projection test
        if !self.alphabet.contains(event.name) {
            return self.verdict;
        }
        for lexed in self.lexer.push(event) {
            self.process_token(lexed);
        }
        self.verdict
    }

    fn finish(&mut self, _end_time: SimTime) -> Verdict {
        if self.verdict.is_final() {
            return self.verdict;
        }
        // A pending run at end of observation is *extendable*: the trace is
        // a prefix, so the run may still grow. Report a violation only if
        // every completion length does violate: the lengths up to the
        // eager-emission bound behave individually, everything above the
        // bound behaves like one over-long representative.
        if let Some(lexed) = self.lexer.finish() {
            if self.done {
                return self.verdict;
            }
            let name = lexed.token.name;
            let k = lexed.token.run;
            let bound = self
                .bounds
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, b)| b)
                .unwrap_or(k);
            let all_violate = (k..=bound.saturating_add(1)).all(|run| {
                self.ops += 1;
                self.would_violate(LexedToken { name, run })
            });
            if all_violate {
                self.violate(Family::BadToken, lexed.token, lexed.last_time);
                if let Some(v) = &mut self.violation {
                    v.detail = format!(
                        "pending run of length {k} cannot be completed without                          violating some conjunct"
                    );
                }
            }
        }
        self.verdict
    }

    fn verdict(&self) -> Verdict {
        self.verdict
    }

    fn alphabet(&self) -> &NameSet {
        &self.alphabet
    }

    /// ViaPSL monitors do not track an expected-event set (the conjunction
    /// has no cheap "acceptable next" notion); returns the empty set.
    fn expected(&self) -> NameSet {
        NameSet::new()
    }

    fn violation(&self) -> Option<&Violation> {
        self.violation.as_ref()
    }

    fn reset(&mut self) {
        for (idx, o) in self.observers.iter().enumerate() {
            self.active[idx] = matches!(
                o,
                Observer::Triggered {
                    init_active: true,
                    ..
                }
            );
        }
        self.done = false;
        self.verdict = Verdict::PresumablySatisfied;
        self.violation = None;
        self.lexer = self.lexer.clone_reset();
    }

    fn ops(&self) -> u64 {
        self.ops + self.lexer.ops()
    }

    fn state_bits(&self) -> u64 {
        // One activity bit per observer, BITS_PER_NODE−1 further bits per
        // formula node inside the sub-monitors, plus the lexer (∆) and the
        // done flag.
        let nodes: u64 = self.weights.iter().sum();
        crate::complexity::BITS_PER_NODE * nodes + self.lexer_bits + 1
    }
}

/// Helper used by `reset`: a lexer with the same configuration but cleared
/// run state.
trait CloneReset {
    fn clone_reset(&self) -> Self;
}

impl CloneReset for RunLengthLexer {
    fn clone_reset(&self) -> Self {
        // The lexer has no public state-clearing API; flushing the pending
        // run is equivalent (configuration is retained by clone).
        let mut fresh = self.clone();
        let _ = fresh.finish();
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lomon_core::parse::parse_property;
    use lomon_core::verdict::run_to_end;
    use lomon_trace::{Name, Trace, Vocabulary};

    fn setup(text: &str) -> (Vocabulary, PslMonitor) {
        let mut voc = Vocabulary::new();
        let prop = parse_property(text, &mut voc).expect(text);
        let monitor = PslMonitor::build(&prop).expect(text);
        (voc, monitor)
    }

    fn n(voc: &Vocabulary, text: &str) -> Name {
        voc.lookup(text).expect(text)
    }

    #[test]
    fn accepts_example2_any_order() {
        let (voc, monitor) = setup("all{img, gl, sz} << start once");
        let (img, gl, sz, start) = (
            n(&voc, "img"),
            n(&voc, "gl"),
            n(&voc, "sz"),
            n(&voc, "start"),
        );
        for perm in [[img, gl, sz], [sz, gl, img], [gl, img, sz]] {
            let mut m = monitor.clone();
            let trace = Trace::from_names(perm.into_iter().chain([start]));
            assert_eq!(run_to_end(&mut m, &trace), Verdict::Satisfied);
        }
    }

    #[test]
    fn rejects_missing_register() {
        let (voc, mut monitor) = setup("all{img, gl, sz} << start once");
        let trace = Trace::from_names([n(&voc, "img"), n(&voc, "gl"), n(&voc, "start")]);
        assert_eq!(run_to_end(&mut monitor, &trace), Verdict::Violated);
        assert!(monitor.violation().is_some());
    }

    #[test]
    fn rejects_trigger_first() {
        let (voc, mut monitor) = setup("all{img, gl, sz} << start once");
        let trace = Trace::from_names([n(&voc, "start")]);
        assert_eq!(run_to_end(&mut monitor, &trace), Verdict::Violated);
    }

    #[test]
    fn repeated_episodes() {
        let (voc, mut monitor) = setup("a << i repeated");
        let (a, i) = (n(&voc, "a"), n(&voc, "i"));
        assert_eq!(
            run_to_end(&mut monitor, &Trace::from_names([a, i, a, i])),
            Verdict::PresumablySatisfied
        );
        monitor.reset();
        assert_eq!(
            run_to_end(&mut monitor, &Trace::from_names([a, i, i])),
            Verdict::Violated
        );
    }

    #[test]
    fn range_counting_through_tokens() {
        let (voc, monitor) = setup("a[2,3] << i repeated");
        let (a, i) = (n(&voc, "a"), n(&voc, "i"));
        // 2 and 3 a's fine, 1 and 4 violate.
        for (count, expect_ok) in [(2usize, true), (3, true), (1, false), (4, false)] {
            let mut m = monitor.clone();
            let trace = Trace::from_names(vec![a; count].into_iter().chain([i]));
            let verdict = run_to_end(&mut m, &trace);
            assert_eq!(verdict.is_ok(), expect_ok, "count {count}");
        }
    }

    #[test]
    fn overlong_run_detected_eagerly() {
        let (voc, mut monitor) = setup("a[1,2] << i repeated");
        let a = n(&voc, "a");
        let trace = Trace::from_names([a, a, a]);
        // Violation arrives with the third a (eager overflow), before any
        // flush.
        let mut verdicts = Vec::new();
        for &e in trace.iter() {
            verdicts.push(monitor.observe(e));
        }
        assert_eq!(verdicts[2], Verdict::Violated);
    }

    #[test]
    fn ordering_between_fragments() {
        let (voc, monitor) = setup("a < b << i repeated");
        let (a, b, i) = (n(&voc, "a"), n(&voc, "b"), n(&voc, "i"));
        let mut m = monitor.clone();
        assert_eq!(
            run_to_end(&mut m, &Trace::from_names([a, b, i])),
            Verdict::PresumablySatisfied
        );
        // b before a: the Precede obligation fires.
        let mut m = monitor.clone();
        assert_eq!(
            run_to_end(&mut m, &Trace::from_names([b])),
            Verdict::Violated
        );
        // a after b (same episode): Order fires.
        let mut m = monitor;
        assert_eq!(
            run_to_end(&mut m, &Trace::from_names([a, b, a])),
            Verdict::Violated
        );
    }

    #[test]
    fn any_fragment_subset_allowed() {
        let (voc, monitor) = setup("any{a, b} << i repeated");
        let (a, b, i) = (n(&voc, "a"), n(&voc, "b"), n(&voc, "i"));
        for seq in [vec![a, i], vec![b, i], vec![a, b, i], vec![b, a, i]] {
            let mut m = monitor.clone();
            assert_eq!(
                run_to_end(&mut m, &Trace::from_names(seq.clone())),
                Verdict::PresumablySatisfied,
                "{seq:?}"
            );
        }
        let mut m = monitor;
        assert_eq!(
            run_to_end(&mut m, &Trace::from_names([i])),
            Verdict::Violated
        );
    }

    #[test]
    fn timed_untimed_language() {
        let (voc, monitor) = setup("start => read[2,4] < irq within 1 ms");
        let (start, read, irq) = (n(&voc, "start"), n(&voc, "read"), n(&voc, "irq"));
        let mut m = monitor.clone();
        assert_eq!(
            run_to_end(
                &mut m,
                &Trace::from_names([start, read, read, irq, start, read, read, read, irq])
            ),
            Verdict::PresumablySatisfied
        );
        // Too few reads.
        let mut m = monitor.clone();
        assert_eq!(
            run_to_end(&mut m, &Trace::from_names([start, read, irq])),
            Verdict::Violated
        );
        // Response without premise.
        let mut m = monitor.clone();
        assert_eq!(
            run_to_end(&mut m, &Trace::from_names([read, read])),
            Verdict::Violated
        );
        // Double irq.
        let mut m = monitor;
        assert_eq!(
            run_to_end(&mut m, &Trace::from_names([start, read, read, irq, irq])),
            Verdict::Violated
        );
    }

    #[test]
    fn projection_ignores_foreign_names() {
        let (mut voc, mut monitor) = setup("a << i once");
        let (a, i) = (n(&voc, "a"), n(&voc, "i"));
        let noise = voc.input("noise");
        assert_eq!(
            run_to_end(
                &mut monitor,
                &Trace::from_names([noise, a, noise, i, noise])
            ),
            Verdict::Satisfied
        );
    }

    #[test]
    fn ops_scale_with_observer_count() {
        let (voc, mut small) = setup("a[1,2] << i repeated");
        let (mut voc2, _) = (Vocabulary::new(), ());
        let prop = parse_property("a[1,8] << i repeated", &mut voc2).unwrap();
        let mut large = PslMonitor::build(&prop).unwrap();
        let a1 = n(&voc, "a");
        let a2 = n(&voc2, "a");
        let i1 = n(&voc, "i");
        // Same traces (names resolve to the same indices in both
        // vocabularies).
        assert_eq!(a1.index(), a2.index());
        assert_eq!(i1.index(), n(&voc2, "i").index());
        // The i flushes the a-run through the observers in both monitors.
        let trace = Trace::from_names([a1, a1, i1]);
        run_to_end(&mut small, &trace);
        run_to_end(&mut large, &trace);
        assert!(large.ops() > small.ops());
        assert!(large.state_bits() > small.state_bits());
        assert!(large.observer_count() > small.observer_count());
    }

    #[test]
    fn reset_restores_initial_state() {
        let (voc, mut monitor) = setup("a << i once");
        let (a, i) = (n(&voc, "a"), n(&voc, "i"));
        run_to_end(&mut monitor, &Trace::from_names([i]));
        assert_eq!(monitor.verdict(), Verdict::Violated);
        monitor.reset();
        assert_eq!(monitor.verdict(), Verdict::PresumablySatisfied);
        assert_eq!(
            run_to_end(&mut monitor, &Trace::from_names([a, i])),
            Verdict::Satisfied
        );
    }
}
