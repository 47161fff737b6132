//! Event traces: time-ordered sequences of interface events.

use crate::{Name, NameSet, SimTime, TimedEvent};

/// A finite, time-ordered sequence of [`TimedEvent`]s.
///
/// A trace is what a monitor consumes: either recorded online from the
/// simulation kernel's observation hooks, or read back from a file for
/// trace-replay monitoring. Traces also remember an optional *end time* — the
/// simulation instant at which observation stopped — which timed monitors
/// need to flag deadlines that expired after the last event.
///
/// Pushing events enforces monotone (non-decreasing) timestamps, mirroring
/// the simulation kernel's monotone clock.
///
/// # Example
///
/// ```
/// use lomon_trace::{SimTime, Trace, Vocabulary};
/// let mut voc = Vocabulary::new();
/// let a = voc.input("a");
/// let b = voc.input("b");
///
/// let mut trace = Trace::new();
/// trace.push(a, SimTime::from_ns(1));
/// trace.push(b, SimTime::from_ns(2));
/// assert_eq!(trace.names().collect::<Vec<_>>(), vec![a, b]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    pub(crate) events: Vec<TimedEvent>,
    pub(crate) end_time: Option<SimTime>,
}

impl Trace {
    /// Create an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a trace from `(time, name)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if the timestamps are not non-decreasing.
    pub fn from_pairs<I: IntoIterator<Item = (SimTime, Name)>>(pairs: I) -> Self {
        let mut trace = Trace::new();
        for (time, name) in pairs {
            trace.push(name, time);
        }
        trace
    }

    /// Build an untimed trace: events are stamped 1ns, 2ns, 3ns, …
    ///
    /// Handy for tests of the untimed patterns where only the order matters.
    pub fn from_names<I: IntoIterator<Item = Name>>(names: I) -> Self {
        let mut trace = Trace::new();
        for (k, name) in names.into_iter().enumerate() {
            trace.push(name, SimTime::from_ns(k as u64 + 1));
        }
        trace
    }

    /// Append an event.
    ///
    /// # Panics
    ///
    /// Panics if `time` is smaller than the previous event's timestamp or
    /// than a previously recorded end time: simulated time never goes
    /// backwards.
    pub fn push(&mut self, name: Name, time: SimTime) {
        if let Some(last) = self.events.last() {
            assert!(
                time >= last.time,
                "trace timestamps must be non-decreasing: {} after {}",
                time,
                last.time
            );
        }
        if let Some(end) = self.end_time {
            assert!(
                time >= end,
                "event at {time} before recorded end time {end}"
            );
            self.end_time = Some(time);
        }
        self.events.push(TimedEvent::new(name, time));
    }

    /// Record the instant observation stopped (for deadline checks past the
    /// final event). Overrides any earlier end time.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the last event.
    pub fn set_end_time(&mut self, time: SimTime) {
        if let Some(last) = self.events.last() {
            assert!(time >= last.time, "end time {time} precedes last event");
        }
        self.end_time = Some(time);
    }

    /// Remove all events and any recorded end time, keeping the event
    /// buffer's capacity. Lets batch readers over many trace files reuse
    /// one allocation across files.
    pub fn clear(&mut self) {
        self.events.clear();
        self.end_time = None;
    }

    /// The instant observation stopped: the recorded end time if set,
    /// otherwise the last event's timestamp, otherwise time zero.
    pub fn end_time(&self) -> SimTime {
        self.end_time
            .or_else(|| self.events.last().map(|e| e.time))
            .unwrap_or(SimTime::ZERO)
    }

    /// All events in order.
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterate over events.
    pub fn iter(&self) -> std::slice::Iter<'_, TimedEvent> {
        self.events.iter()
    }

    /// Iterate over just the names, dropping timestamps.
    pub fn names(&self) -> impl Iterator<Item = Name> + '_ {
        self.events.iter().map(|e| e.name)
    }

    /// The trace restricted to events whose name is in `alphabet`,
    /// preserving order and timestamps.
    ///
    /// Loose-ordering formulas "are interpreted on sequences where only the
    /// names of the root pattern appear" (Section 4); monitors apply this
    /// projection to ignore unrelated platform traffic.
    pub fn project(&self, alphabet: &NameSet) -> Trace {
        let mut out = Trace {
            events: self
                .events
                .iter()
                .copied()
                .filter(|e| alphabet.contains(e.name))
                .collect(),
            end_time: None,
        };
        out.end_time = Some(self.end_time());
        out
    }
}

impl IntoIterator for Trace {
    type Item = TimedEvent;
    type IntoIter = std::vec::IntoIter<TimedEvent>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TimedEvent;
    type IntoIter = std::slice::Iter<'a, TimedEvent>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

impl FromIterator<TimedEvent> for Trace {
    /// # Panics
    ///
    /// Panics if the events' timestamps are not non-decreasing.
    fn from_iter<T: IntoIterator<Item = TimedEvent>>(iter: T) -> Self {
        let mut trace = Trace::new();
        for e in iter {
            trace.push(e.name, e.time);
        }
        trace
    }
}

impl Extend<TimedEvent> for Trace {
    fn extend<T: IntoIterator<Item = TimedEvent>>(&mut self, iter: T) {
        for e in iter {
            self.push(e.name, e.time);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Vocabulary;

    fn abc() -> (Vocabulary, Name, Name, Name) {
        let mut voc = Vocabulary::new();
        let a = voc.input("a");
        let b = voc.input("b");
        let c = voc.output("c");
        (voc, a, b, c)
    }

    #[test]
    fn push_and_iterate() {
        let (_voc, a, b, _c) = abc();
        let mut t = Trace::new();
        t.push(a, SimTime::from_ns(1));
        t.push(b, SimTime::from_ns(1)); // same instant is fine (delta cycle)
        t.push(a, SimTime::from_ns(3));
        assert_eq!(t.len(), 3);
        assert_eq!(t.names().collect::<Vec<_>>(), vec![a, b, a]);
        assert_eq!(t.end_time(), SimTime::from_ns(3));
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn push_rejects_time_travel() {
        let (_voc, a, _b, _c) = abc();
        let mut t = Trace::new();
        t.push(a, SimTime::from_ns(5));
        t.push(a, SimTime::from_ns(4));
    }

    #[test]
    fn from_names_stamps_sequentially() {
        let (_voc, a, b, _c) = abc();
        let t = Trace::from_names([a, b, a]);
        let times: Vec<_> = t.iter().map(|e| e.time.as_ns()).collect();
        assert_eq!(times, vec![1, 2, 3]);
    }

    #[test]
    fn projection_keeps_order_and_end_time() {
        let (_voc, a, b, c) = abc();
        let mut t = Trace::from_pairs([
            (SimTime::from_ns(1), a),
            (SimTime::from_ns(2), c),
            (SimTime::from_ns(3), b),
            (SimTime::from_ns(4), c),
        ]);
        t.set_end_time(SimTime::from_ns(10));
        let alphabet: NameSet = [a, b].into_iter().collect();
        let p = t.project(&alphabet);
        assert_eq!(p.names().collect::<Vec<_>>(), vec![a, b]);
        assert_eq!(p.end_time(), SimTime::from_ns(10));
    }

    #[test]
    fn end_time_defaults() {
        let (_voc, a, _b, _c) = abc();
        assert_eq!(Trace::new().end_time(), SimTime::ZERO);
        let t = Trace::from_pairs([(SimTime::from_ns(7), a)]);
        assert_eq!(t.end_time(), SimTime::from_ns(7));
    }

    #[test]
    #[should_panic(expected = "precedes last event")]
    fn end_time_cannot_precede_events() {
        let (_voc, a, _b, _c) = abc();
        let mut t = Trace::from_pairs([(SimTime::from_ns(7), a)]);
        t.set_end_time(SimTime::from_ns(3));
    }

    #[test]
    fn collect_from_iterator() {
        let (_voc, a, b, _c) = abc();
        let t: Trace = vec![
            TimedEvent::new(a, SimTime::from_ns(1)),
            TimedEvent::new(b, SimTime::from_ns(2)),
        ]
        .into_iter()
        .collect();
        assert_eq!(t.len(), 2);
        let back: Vec<TimedEvent> = t.clone().into_iter().collect();
        assert_eq!(back.len(), 2);
        let borrowed: Vec<&TimedEvent> = (&t).into_iter().collect();
        assert_eq!(borrowed.len(), 2);
    }
}
