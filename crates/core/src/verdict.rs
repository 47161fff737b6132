//! Verdicts, violation diagnostics and the monitor interface.

use crate::witness::Witness;
use lomon_trace::{Name, NameSet, SimTime, TimedEvent, Vocabulary};

/// The four-valued verdict of a monitor over the trace observed so far.
///
/// Loose-ordering properties are safety(-with-deadline) properties, so the
/// interesting verdicts are "violated" and "fine so far"; the two refined
/// positive values distinguish whether an obligation is still open:
///
/// * [`Verdict::Satisfied`] — irrevocably satisfied; no extension of the
///   trace can violate the property (e.g. a one-shot antecedent after its
///   first validated trigger).
/// * [`Verdict::PresumablySatisfied`] — consistent so far, no open
///   obligation (e.g. between episodes).
/// * [`Verdict::Pending`] — consistent so far but an obligation is open
///   (e.g. `Q` not yet finished, deadline not yet expired); at end of
///   observation this is the "inconclusive" outcome.
/// * [`Verdict::Violated`] — irrevocably violated; diagnostics are
///   available from the monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Irrevocably satisfied.
    Satisfied,
    /// Consistent, nothing pending.
    PresumablySatisfied,
    /// Consistent, an obligation is open.
    Pending,
    /// Irrevocably violated.
    Violated,
}

impl Verdict {
    /// Whether the verdict can still change as more events are observed.
    pub fn is_final(self) -> bool {
        matches!(self, Verdict::Satisfied | Verdict::Violated)
    }

    /// Whether the trace observed so far is acceptable (anything but
    /// [`Verdict::Violated`]).
    pub fn is_ok(self) -> bool {
        self != Verdict::Violated
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let text = match self {
            Verdict::Satisfied => "satisfied",
            Verdict::PresumablySatisfied => "presumably satisfied",
            Verdict::Pending => "pending",
            Verdict::Violated => "violated",
        };
        f.write_str(text)
    }
}

/// Why a monitor rejected the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A name of a preceding fragment re-occurred (`B` in Fig. 5).
    BeforeName,
    /// A name that must come strictly later occurred (`Af` in Fig. 5) —
    /// including the antecedent's trigger `i` arriving before `P` is
    /// complete (the *BeforeI* obligation).
    AfterName,
    /// A stopping name arrived while a range was below its minimum, or
    /// while a required range had not appeared at all.
    PrematureStop,
    /// A sibling range interrupted this range below its minimum count.
    PrematureInterrupt,
    /// The range's name occurred more than `v` times in a row.
    TooMany,
    /// The range's name re-occurred after its block had already closed
    /// (each range contributes one contiguous block).
    BlockSplit,
    /// A required range of an `∧`-fragment never appeared.
    MissingRange,
    /// `Q` did not finish within `t` of the end of `P`.
    DeadlineMiss,
    /// Observation ended while a deadline had already expired.
    DeadlineExpiredAtEnd,
}

impl ViolationKind {
    /// Short human-readable description.
    pub fn describe(self) -> &'static str {
        match self {
            ViolationKind::BeforeName => "name of an already-completed fragment re-occurred",
            ViolationKind::AfterName => "name occurred before its turn",
            ViolationKind::PrematureStop => "fragment stopped before a range reached its minimum",
            ViolationKind::PrematureInterrupt => "range interrupted below its minimum count",
            ViolationKind::TooMany => "range exceeded its maximum count",
            ViolationKind::BlockSplit => "range re-started after its block had closed",
            ViolationKind::MissingRange => "a required range never occurred",
            ViolationKind::DeadlineMiss => "response finished after the deadline",
            ViolationKind::DeadlineExpiredAtEnd => "deadline expired before end of observation",
        }
    }
}

/// The range spec `n[u,v]` of the deadline cell whose obligation was
/// still open when a deadline violation fired — names *what* the monitor
/// was waiting for, not just *when* it gave up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Obligation {
    /// The awaited interface name.
    pub name: Name,
    /// The range's minimum occurrence count.
    pub min: u32,
    /// The range's maximum occurrence count.
    pub max: u32,
}

impl Obligation {
    /// Render as `` `name`[u,v] ``, resolving the name against `voc`.
    pub fn display(&self, voc: &Vocabulary) -> String {
        format!("`{}`[{},{}]", voc.resolve(self.name), self.min, self.max)
    }
}

/// A violation report: what happened, when, and what would have been
/// acceptable instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The classification of the failure.
    pub kind: ViolationKind,
    /// The event that triggered the violation, if one did (deadline
    /// violations found at end of observation have none).
    pub event: Option<TimedEvent>,
    /// Simulated time of detection.
    pub time: SimTime,
    /// The names that *would* have been acceptable at that point.
    pub expected: NameSet,
    /// Free-form context (which fragment/range, counter values, deadline).
    pub detail: String,
    /// For deadline violations, the originating deadline cell's spec —
    /// the obligation that was still open (or that completed too late).
    pub obligation: Option<Obligation>,
}

impl Violation {
    /// Render a full diagnostic line, resolving names against `voc`.
    pub fn display(&self, voc: &Vocabulary) -> String {
        let what = match self.event {
            Some(ev) => format!("`{}` at {}", voc.resolve(ev.name), ev.time),
            None => format!("end of observation at {}", self.time),
        };
        let mut out = format!(
            "{}: {} — {}; expected one of {}",
            what,
            self.kind.describe(),
            self.detail,
            voc.display_set(&self.expected)
        );
        if let Some(ob) = self.obligation {
            out.push_str("; open obligation ");
            out.push_str(&ob.display(voc));
        }
        out
    }
}

/// The interface every property monitor implements.
///
/// A monitor consumes timed events (in non-decreasing time order) and keeps
/// a latched [`Verdict`]: once final, further observations do not change it.
/// Events whose name is outside the property's alphabet are ignored, per the
/// paper's projection semantics.
pub trait Monitor {
    /// Feed one event; returns the verdict after it.
    fn observe(&mut self, event: TimedEvent) -> Verdict;

    /// Notify the monitor that simulated time has advanced to `now` with no
    /// new event — lets timed monitors detect expired deadlines online.
    /// Untimed monitors ignore it.
    fn advance_time(&mut self, now: SimTime) -> Verdict {
        let _ = now;
        self.verdict()
    }

    /// Declare end of observation at `end_time` and return the final
    /// verdict.
    fn finish(&mut self, end_time: SimTime) -> Verdict;

    /// The current verdict.
    fn verdict(&self) -> Verdict;

    /// The property's alphabet `α`; events outside it are ignored.
    fn alphabet(&self) -> &NameSet;

    /// The names that would be acceptable as the next event (diagnostic;
    /// meaningful while the verdict is not final).
    fn expected(&self) -> NameSet;

    /// The violation report, if the verdict is [`Verdict::Violated`].
    fn violation(&self) -> Option<&Violation>;

    /// If an obligation with a deadline is open, the absolute time it
    /// expires — the simulation kernel uses this to schedule timeout checks.
    fn deadline(&self) -> Option<SimTime> {
        None
    }

    /// Reset to the initial state (a fresh activation).
    fn reset(&mut self);

    /// Instrumentation: abstract operations executed so far (see
    /// `lomon_core::complexity` for the counting discipline).
    fn ops(&self) -> u64;

    /// Instrumentation: bits of mutable monitor state.
    fn state_bits(&self) -> u64;

    /// Attach a flight recorder of at most `capacity` contributing steps
    /// (explain mode); `capacity == 0` detaches it. Off by default, and a
    /// no-op for monitors without witness support.
    fn set_explain(&mut self, capacity: usize) {
        let _ = capacity;
    }

    /// The recorded witness chain, if explain mode is attached.
    fn witness(&self) -> Option<Witness> {
        None
    }

    /// Attribute `raw`, a chain of this monitor's contributing steps known
    /// by their `(time, event)` pairs alone (the chain a live recorder
    /// keeps): each step gains the cell it moved and that cell's
    /// transition, found by replaying the chain through a fresh
    /// attributing clone (see [`crate::witness`]). Monitors without
    /// witness support return `raw` as it is.
    fn attribute_witness(&self, raw: Witness) -> Witness {
        raw
    }
}

/// Convenience: run a monitor over a whole trace (projection included) and
/// return the final verdict, using the trace's end time for the final
/// deadline check.
pub fn run_to_end<M: Monitor + ?Sized>(monitor: &mut M, trace: &lomon_trace::Trace) -> Verdict {
    for &event in trace.iter() {
        monitor.observe(event);
    }
    monitor.finish(trace.end_time())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_finality() {
        assert!(Verdict::Satisfied.is_final());
        assert!(Verdict::Violated.is_final());
        assert!(!Verdict::Pending.is_final());
        assert!(!Verdict::PresumablySatisfied.is_final());
    }

    #[test]
    fn verdict_ok() {
        assert!(Verdict::Satisfied.is_ok());
        assert!(Verdict::Pending.is_ok());
        assert!(!Verdict::Violated.is_ok());
    }

    #[test]
    fn verdict_display() {
        assert_eq!(Verdict::Pending.to_string(), "pending");
        assert_eq!(Verdict::Violated.to_string(), "violated");
    }

    #[test]
    fn violation_display_with_event() {
        let mut voc = Vocabulary::new();
        let n = voc.input("start");
        let exp = voc.input("set_addr");
        let v = Violation {
            kind: ViolationKind::AfterName,
            event: Some(TimedEvent::new(n, SimTime::from_ns(7))),
            time: SimTime::from_ns(7),
            expected: [exp].into_iter().collect(),
            detail: "fragment 1 of P incomplete".into(),
            obligation: None,
        };
        let text = v.display(&voc);
        assert!(text.contains("`start` at 7ns"));
        assert!(text.contains("before its turn"));
        assert!(text.contains("{set_addr}"));
    }

    #[test]
    fn violation_display_without_event() {
        let voc = Vocabulary::new();
        let v = Violation {
            kind: ViolationKind::DeadlineExpiredAtEnd,
            event: None,
            time: SimTime::from_us(3),
            expected: NameSet::new(),
            detail: "deadline was 2us".into(),
            obligation: None,
        };
        let text = v.display(&voc);
        assert!(text.contains("end of observation at 3us"));
        assert!(!text.contains("open obligation"));
    }

    #[test]
    fn violation_display_with_obligation() {
        let mut voc = Vocabulary::new();
        let irq = voc.output("irq");
        let v = Violation {
            kind: ViolationKind::DeadlineMiss,
            event: None,
            time: SimTime::from_us(3),
            expected: NameSet::new(),
            detail: "deadline was 2us".into(),
            obligation: Some(Obligation {
                name: irq,
                min: 1,
                max: 1,
            }),
        };
        let text = v.display(&voc);
        assert!(text.contains("end of observation at 3us"));
        assert!(text.ends_with("; open obligation `irq`[1,1]"));
    }
}
