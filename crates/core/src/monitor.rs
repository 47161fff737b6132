//! Top-level monitor construction: validate a property, build the matching
//! direct monitor.

use lomon_trace::{NameSet, SimTime, TimedEvent, Vocabulary};

use crate::antecedent::AntecedentMonitor;
use crate::ast::Property;
use crate::timed::TimedImplicationMonitor;
use crate::verdict::{Monitor, Verdict, Violation};
use crate::wf::{self, WfError};
use crate::witness::Witness;

/// A monitor for either root pattern, built by [`build_monitor`].
///
/// Dispatches the [`Monitor`] interface to the underlying
/// [`AntecedentMonitor`] or [`TimedImplicationMonitor`].
#[derive(Debug, Clone)]
pub enum PropertyMonitor {
    /// Monitor of an antecedent requirement.
    Antecedent(AntecedentMonitor),
    /// Monitor of a timed implication constraint.
    Timed(TimedImplicationMonitor),
}

/// Validate `property` against `voc` and build its direct (Drct) monitor.
///
/// # Errors
///
/// Returns the well-formedness violations if the property breaks any Fig. 3
/// side condition.
///
/// # Example
///
/// ```
/// use lomon_core::ast::{Antecedent, Fragment, FragmentOp, LooseOrdering, Range};
/// use lomon_core::monitor::build_monitor;
/// use lomon_trace::Vocabulary;
///
/// let mut voc = Vocabulary::new();
/// let a = voc.input("set_addr");
/// let start = voc.input("start");
/// let prop = Antecedent::new(
///     LooseOrdering::new(vec![Fragment::singleton(Range::once(a))]),
///     start,
///     true,
/// )
/// .into();
/// let monitor = build_monitor(prop, &voc).expect("well-formed");
/// ```
pub fn build_monitor(
    property: Property,
    voc: &Vocabulary,
) -> Result<PropertyMonitor, Vec<WfError>> {
    let property = wf::validate(property, voc)?;
    Ok(match property {
        Property::Antecedent(a) => PropertyMonitor::Antecedent(AntecedentMonitor::new(a)),
        Property::Timed(t) => PropertyMonitor::Timed(TimedImplicationMonitor::new(t)),
    })
}

impl PropertyMonitor {
    /// The monitored property.
    pub fn property(&self) -> Property {
        match self {
            PropertyMonitor::Antecedent(m) => Property::Antecedent(m.property().clone()),
            PropertyMonitor::Timed(m) => Property::Timed(m.property().clone()),
        }
    }

    /// The property's alphabet `α` (derived from the AST at construction):
    /// the only names this monitor can react to. Event routers (such as
    /// `lomon-engine`'s inverted dispatch index) subscribe the monitor to
    /// exactly these names and skip it for everything else.
    ///
    /// This is the owned counterpart of the borrowed [`Monitor::alphabet`]
    /// accessor — usable without importing the trait, and guaranteed to be
    /// the very set the monitor projects events with.
    ///
    /// # Example
    ///
    /// ```
    /// use lomon_core::monitor::build_monitor;
    /// use lomon_core::parse::parse_property;
    /// use lomon_trace::Vocabulary;
    ///
    /// let mut voc = Vocabulary::new();
    /// let prop = parse_property("all{set_addr, set_size} << start once", &mut voc).unwrap();
    /// let monitor = build_monitor(prop, &voc).expect("well-formed");
    ///
    /// let alphabet = monitor.alphabet();
    /// assert_eq!(alphabet.len(), 3);
    /// assert!(alphabet.contains(voc.lookup("start").unwrap()));
    /// ```
    pub fn alphabet(&self) -> NameSet {
        Monitor::alphabet(self).clone()
    }

    /// Episodes in which the property's obligation was discharged
    /// non-vacuously: completed `P << i` episodes for antecedents,
    /// in-budget `Q` completions for timed implications.
    pub fn satisfied_episodes(&self) -> u64 {
        match self {
            PropertyMonitor::Antecedent(m) => m.satisfied_episodes(),
            PropertyMonitor::Timed(m) => m.satisfied_episodes(),
        }
    }

    /// Disable diagnostics (expected-set snapshots) on the wrapped monitor.
    pub fn without_diagnostics(self) -> Self {
        match self {
            PropertyMonitor::Antecedent(m) => PropertyMonitor::Antecedent(m.without_diagnostics()),
            PropertyMonitor::Timed(m) => PropertyMonitor::Timed(m.without_diagnostics()),
        }
    }
}

impl Monitor for PropertyMonitor {
    fn observe(&mut self, event: TimedEvent) -> Verdict {
        match self {
            PropertyMonitor::Antecedent(m) => m.observe(event),
            PropertyMonitor::Timed(m) => m.observe(event),
        }
    }

    fn advance_time(&mut self, now: SimTime) -> Verdict {
        match self {
            PropertyMonitor::Antecedent(m) => m.advance_time(now),
            PropertyMonitor::Timed(m) => m.advance_time(now),
        }
    }

    fn finish(&mut self, end_time: SimTime) -> Verdict {
        match self {
            PropertyMonitor::Antecedent(m) => m.finish(end_time),
            PropertyMonitor::Timed(m) => m.finish(end_time),
        }
    }

    fn verdict(&self) -> Verdict {
        match self {
            PropertyMonitor::Antecedent(m) => m.verdict(),
            PropertyMonitor::Timed(m) => m.verdict(),
        }
    }

    fn alphabet(&self) -> &NameSet {
        match self {
            PropertyMonitor::Antecedent(m) => m.alphabet(),
            PropertyMonitor::Timed(m) => m.alphabet(),
        }
    }

    fn expected(&self) -> NameSet {
        match self {
            PropertyMonitor::Antecedent(m) => m.expected(),
            PropertyMonitor::Timed(m) => m.expected(),
        }
    }

    fn violation(&self) -> Option<&Violation> {
        match self {
            PropertyMonitor::Antecedent(m) => m.violation(),
            PropertyMonitor::Timed(m) => m.violation(),
        }
    }

    fn deadline(&self) -> Option<SimTime> {
        match self {
            PropertyMonitor::Antecedent(m) => m.deadline(),
            PropertyMonitor::Timed(m) => m.deadline(),
        }
    }

    fn reset(&mut self) {
        match self {
            PropertyMonitor::Antecedent(m) => m.reset(),
            PropertyMonitor::Timed(m) => m.reset(),
        }
    }

    fn ops(&self) -> u64 {
        match self {
            PropertyMonitor::Antecedent(m) => m.ops(),
            PropertyMonitor::Timed(m) => m.ops(),
        }
    }

    fn state_bits(&self) -> u64 {
        match self {
            PropertyMonitor::Antecedent(m) => m.state_bits(),
            PropertyMonitor::Timed(m) => m.state_bits(),
        }
    }

    fn set_explain(&mut self, capacity: usize) {
        match self {
            PropertyMonitor::Antecedent(m) => m.set_explain(capacity),
            PropertyMonitor::Timed(m) => m.set_explain(capacity),
        }
    }

    fn witness(&self) -> Option<Witness> {
        match self {
            PropertyMonitor::Antecedent(m) => m.witness(),
            PropertyMonitor::Timed(m) => m.witness(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Antecedent, Fragment, LooseOrdering, Range, TimedImplication};
    use crate::verdict::run_to_end;
    use lomon_trace::Trace;

    #[test]
    fn build_rejects_ill_formed() {
        let mut voc = Vocabulary::new();
        let a = voc.input("a");
        let prop: Property = Antecedent::new(
            LooseOrdering::new(vec![Fragment::singleton(Range::once(a))]),
            a, // trigger inside P
            true,
        )
        .into();
        assert!(build_monitor(prop, &voc).is_err());
    }

    #[test]
    fn build_and_run_antecedent() {
        let mut voc = Vocabulary::new();
        let a = voc.input("a");
        let i = voc.input("i");
        let prop: Property = Antecedent::new(
            LooseOrdering::new(vec![Fragment::singleton(Range::once(a))]),
            i,
            false,
        )
        .into();
        let mut m = build_monitor(prop.clone(), &voc).expect("well-formed");
        assert_eq!(m.property(), prop);
        assert_eq!(
            run_to_end(&mut m, &Trace::from_names([a, i])),
            Verdict::Satisfied
        );
        m.reset();
        assert_eq!(
            run_to_end(&mut m, &Trace::from_names([i])),
            Verdict::Violated
        );
        assert!(m.violation().is_some());
    }

    #[test]
    fn build_and_run_timed() {
        let mut voc = Vocabulary::new();
        let a = voc.input("a");
        let o = voc.output("o");
        let prop: Property = TimedImplication::new(
            LooseOrdering::new(vec![Fragment::singleton(Range::once(a))]),
            LooseOrdering::new(vec![Fragment::singleton(Range::once(o))]),
            SimTime::from_ns(50),
        )
        .into();
        let mut m = build_monitor(prop, &voc).expect("well-formed");
        let trace = Trace::from_pairs([(SimTime::from_ns(10), a), (SimTime::from_ns(30), o)]);
        assert_eq!(run_to_end(&mut m, &trace), Verdict::PresumablySatisfied);
        assert!(m.alphabet().contains(a) && m.alphabet().contains(o));
        assert!(m.ops() > 0);
        assert!(m.state_bits() > 0);
        assert_eq!(m.deadline(), None);
    }

    #[test]
    fn dispatch_without_diagnostics() {
        let mut voc = Vocabulary::new();
        let a = voc.input("a");
        let i = voc.input("i");
        let prop: Property = Antecedent::new(
            LooseOrdering::new(vec![Fragment::singleton(Range::once(a))]),
            i,
            false,
        )
        .into();
        let mut m = build_monitor(prop, &voc)
            .expect("well-formed")
            .without_diagnostics();
        run_to_end(&mut m, &Trace::from_names([i]));
        assert!(m.violation().unwrap().expected.is_empty());
    }
}
