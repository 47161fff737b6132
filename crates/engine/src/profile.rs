//! Hot-property profiler: replay a recorded trace through the fused
//! rulebook program and attribute the monitoring work — steps and
//! wall-clock nanoseconds — to each unique recognizer group.
//!
//! The fused backend already collapses structurally identical properties
//! into shared groups; this module answers the follow-up question *"which
//! group is my rulebook spending its time in?"*. [`profile_trace`] runs
//! the trace through a [`Session`](crate::Session)'s own dispatch step and
//! close, over the fused monitors wrapped to count and time their calls
//! with a monotonic clock — so the per-group step counts are the session's
//! dispatch statistics, by construction.

use std::fmt::Write as _;
use std::time::Instant;

use lomon_core::compiled::CompiledMonitor;
use lomon_core::verdict::{Monitor, Verdict, Violation};
use lomon_trace::{json_escape, NameSet, SimTime, TimedEvent};

use crate::compile::Engine;
use crate::session::{Core, RoutedMonitor};

/// The profile of one unique recognizer group over a replayed trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupProfile {
    /// Group id in the fused program (first-appearance order).
    pub group: usize,
    /// Monitor steps the group performed (observes plus deadline sweeps —
    /// the same accounting as
    /// [`DispatchStats::monitor_steps`](crate::DispatchStats)).
    pub steps: u64,
    /// Wall-clock nanoseconds spent inside the group's monitor calls.
    pub ns: u64,
    /// Member property ids served by the group, ascending.
    pub members: Vec<u32>,
}

/// Everything [`profile_trace`] measured: per-group profiles ranked
/// hottest first, plus the replay totals.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Per-group profiles, sorted by steps descending (ties broken by
    /// ascending group id, so the ranking is deterministic even when the
    /// nanosecond readings are not).
    pub groups: Vec<GroupProfile>,
    /// Events replayed whose name some group watches, as a session
    /// counts them: any other event only advances time.
    pub events: u64,
    /// Properties whose final verdict was violated.
    pub violations: u64,
    /// Wall-clock nanoseconds summed over every monitor call.
    pub total_ns: u64,
}

/// Replay `events` through a fresh fused instantiation of `engine`,
/// timing every monitor call, then finish at `end_time`. The step counts
/// are the session's dispatch statistics broken down by group; only the
/// timing is extra.
pub fn profile_trace(engine: &Engine, events: &[TimedEvent], end_time: SimTime) -> ProfileReport {
    let fused = engine.fused();
    let mut monitors: Vec<Profiled> = fused
        .instantiate()
        .into_iter()
        .map(|monitor| Profiled {
            monitor,
            steps: 0,
            ns: 0,
        })
        .collect();
    let mut core = Core::new(engine, monitors.len());
    core.ingest_batch(fused, &mut monitors, events);
    core.close_in(fused, &mut monitors, end_time);

    let violations = (0..engine.len())
        .filter(|&id| monitors[fused.group_of(id)].verdict() == Verdict::Violated)
        .count() as u64;

    let mut groups: Vec<GroupProfile> = monitors
        .iter()
        .enumerate()
        .map(|(g, m)| GroupProfile {
            group: g,
            steps: m.steps,
            ns: m.ns,
            members: fused.members(g).to_vec(),
        })
        .collect();
    groups.sort_by(|a, b| b.steps.cmp(&a.steps).then(a.group.cmp(&b.group)));
    ProfileReport {
        groups,
        events: events
            .iter()
            .filter(|e| !fused.subscribers(e.name).0.is_empty())
            .count() as u64,
        violations,
        total_ns: monitors.iter().map(|m| m.ns).sum(),
    }
}

/// A fused group's monitor that counts the dispatch steps taken on it
/// (observes and deadline sweeps) and times every call into it. `finish`
/// is not a dispatch step (sessions do not count it either), but its time
/// is.
struct Profiled {
    monitor: CompiledMonitor,
    steps: u64,
    ns: u64,
}

impl Profiled {
    fn timed<T>(&mut self, call: impl FnOnce(&mut CompiledMonitor) -> T) -> T {
        let started = Instant::now();
        let out = call(&mut self.monitor);
        self.ns += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        out
    }
}

impl RoutedMonitor for Profiled {
    fn observe_routed(&mut self, event: TimedEvent, base: u32) -> Verdict {
        self.steps += 1;
        self.timed(|m| m.observe_routed(event, base))
    }
}

impl Monitor for Profiled {
    fn observe(&mut self, event: TimedEvent) -> Verdict {
        self.steps += 1;
        self.timed(|m| m.observe(event))
    }

    fn advance_time(&mut self, now: SimTime) -> Verdict {
        self.steps += 1;
        self.timed(|m| m.advance_time(now))
    }

    fn finish(&mut self, end_time: SimTime) -> Verdict {
        self.timed(|m| m.finish(end_time))
    }

    fn verdict(&self) -> Verdict {
        self.monitor.verdict()
    }

    fn alphabet(&self) -> &NameSet {
        self.monitor.alphabet()
    }

    fn expected(&self) -> NameSet {
        self.monitor.expected()
    }

    fn violation(&self) -> Option<&Violation> {
        self.monitor.violation()
    }

    fn deadline(&self) -> Option<SimTime> {
        self.monitor.deadline()
    }

    fn reset(&mut self) {
        self.monitor.reset();
    }

    fn ops(&self) -> u64 {
        self.monitor.ops()
    }

    fn state_bits(&self) -> u64 {
        self.monitor.state_bits()
    }
}

impl ProfileReport {
    /// Multi-line human rendering: the replay totals, then the `top`
    /// hottest groups with their member properties.
    pub fn render_text(&self, engine: &Engine, top: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "profiled {} events over {} groups ({} properties, {} violations)",
            self.events,
            self.groups.len(),
            engine.len(),
            self.violations,
        );
        for p in self.groups.iter().take(top) {
            let _ = writeln!(
                out,
                "  group {}: {} steps, {} ns, {} member(s)",
                p.group,
                p.steps,
                p.ns,
                p.members.len(),
            );
            for &id in &p.members {
                let _ = writeln!(out, "    - {}", engine.property_display(id as usize));
            }
        }
        out
    }

    /// One-line JSON rendering with the same `top`-group ranking.
    pub fn render_json(&self, engine: &Engine, top: usize) -> String {
        let mut out = format!(
            "{{\"events\": {}, \"group_count\": {}, \"violations\": {}, \"groups\": [",
            self.events,
            self.groups.len(),
            self.violations,
        );
        for (k, p) in self.groups.iter().take(top).enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"group\": {}, \"steps\": {}, \"ns\": {}, \"members\": [",
                p.group, p.steps, p.ns,
            );
            for (j, &id) in p.members.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "\"{}\"",
                    json_escape(engine.property_display(id as usize))
                );
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lomon_trace::Vocabulary;

    fn events(voc: &Vocabulary, seq: &[(&str, u64)]) -> Vec<TimedEvent> {
        seq.iter()
            .map(|&(n, ns)| TimedEvent::new(voc.lookup(n).unwrap(), SimTime::from_ns(ns)))
            .collect()
    }

    #[test]
    fn profile_step_counts_match_session_stats() {
        let mut voc = Vocabulary::new();
        let engine = Engine::compile(
            &[
                "all{a, b} << start repeated",
                "all{a, b} << start repeated",
                "go => out:done within 50 ns",
            ],
            &mut voc,
        )
        .expect("compiles");
        let trace = events(
            &voc,
            &[("a", 10), ("b", 20), ("start", 30), ("go", 40), ("a", 200)],
        );
        let profile = profile_trace(&engine, &trace, SimTime::from_ns(300));
        let mut session = engine.session();
        session.ingest_batch(&trace);
        session.close(SimTime::from_ns(300));
        let profiled: u64 = profile.groups.iter().map(|g| g.steps).sum();
        assert_eq!(profiled, session.stats().monitor_steps);
        assert_eq!(profile.events, session.stats().events);
        // The shared group (2 members) did the most steps and ranks first.
        assert_eq!(profile.groups[0].members.len(), 2);
        assert_eq!(profile.violations, 1); // the missed 50ns deadline
    }

    #[test]
    fn render_text_lists_members_and_json_parses_shape() {
        let mut voc = Vocabulary::new();
        let engine = Engine::compile(
            &["all{a, b} << start once", "all{a, b} << start once"],
            &mut voc,
        )
        .expect("compiles");
        let trace = events(&voc, &[("a", 10)]);
        let profile = profile_trace(&engine, &trace, SimTime::from_ns(20));
        let text = profile.render_text(&engine, 5);
        assert!(text.contains("group 0: 1 steps"), "{text}");
        assert!(text.contains("- all{a, b} << start once"), "{text}");
        let json = profile.render_json(&engine, 5);
        assert!(json.starts_with("{\"events\": 1"), "{json}");
        assert!(
            json.contains("\"members\": [\"all{a, b} << start once\""),
            "{json}"
        );
    }
}
