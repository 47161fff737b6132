//! Reports: per-property verdicts with diagnostics, plus the dispatch
//! statistics that make the index's win measurable.

use lomon_core::verdict::{Verdict, Violation};
use lomon_core::witness::Witness;
use lomon_trace::{json_escape, Vocabulary};

use std::fmt::Write as _;
use std::sync::Arc;

/// Dispatch accounting for one session. The headline number is
/// [`DispatchStats::steps_skipped`]: monitor steps a naive broadcast would
/// have performed that the inverted index (plus retirement) avoided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Properties in the compiled set.
    pub properties: u64,
    /// Events ingested.
    pub events: u64,
    /// Monitor steps actually performed (`observe` calls plus deadline
    /// `advance_time` sweeps; `finish` is not counted).
    pub monitor_steps: u64,
    /// Steps a live monitor was *not* given an event because the index
    /// proved it could not react.
    pub steps_skipped: u64,
    /// Properties retired (verdict went final) so far.
    pub retired: u64,
    /// Recognizer cells summed over every property's own lowered program —
    /// what a purely per-property execution allocates and steps. A static
    /// fact of the compiled rulebook, identical across backends.
    pub total_cells: u64,
    /// Recognizer cells actually allocated after the rulebook fusion
    /// interned structurally identical programs (one copy per unique
    /// group). `total_cells - unique_cells` is the arena the fusion saved.
    pub unique_cells: u64,
    /// Properties served by a monitor step *beyond the first*: every time
    /// a shared fused group advanced, each extra member property it spoke
    /// for counts one shared hit. Zero on the per-property interpreter.
    pub shared_hits: u64,
}

impl DispatchStats {
    /// Steps an index-less broadcast over never-retired monitors would have
    /// performed: one per property per event.
    pub fn broadcast_steps(&self) -> u64 {
        self.properties * self.events
    }

    /// The canonical machine-readable stats object — **the** schema every
    /// CLI surface shares (`check --format json`'s `"stats"`, `watch`'s
    /// NDJSON summary, `smc`'s JSON report, `--stats-every` heartbeats),
    /// derived from the obs snapshot. Fields:
    ///
    /// `backend`, `properties`, `events`, `monitor_steps`,
    /// `steps_skipped`, `retired`, `total_cells`, `unique_cells`,
    /// `shared_hits`, `violations`.
    pub fn render_json_object(&self, backend: &str, violations: u64) -> String {
        format!(
            "{{\"backend\": \"{}\", \"properties\": {}, \"events\": {}, \
             \"monitor_steps\": {}, \"steps_skipped\": {}, \"retired\": {}, \
             \"total_cells\": {}, \"unique_cells\": {}, \"shared_hits\": {}, \
             \"violations\": {}}}",
            backend,
            self.properties,
            self.events,
            self.monitor_steps,
            self.steps_skipped,
            self.retired,
            self.total_cells,
            self.unique_cells,
            self.shared_hits,
            violations,
        )
    }

    /// One-line human rendering.
    pub fn render(&self) -> String {
        let mut line = format!(
            "{} events x {} properties: {} monitor steps ({} skipped live, {} naive)",
            self.events,
            self.properties,
            self.monitor_steps,
            self.steps_skipped,
            self.broadcast_steps(),
        );
        if self.unique_cells < self.total_cells {
            let _ = write!(
                line,
                "; fused {} cells into {} ({} shared hits)",
                self.total_cells, self.unique_cells, self.shared_hits,
            );
        }
        line
    }
}

/// The outcome for one property of the set.
#[derive(Debug, Clone)]
pub struct PropertyReport {
    /// Position in the compiled set.
    pub index: usize,
    /// The property's source text (or rendered AST), shared with the engine
    /// — reports clone a pointer, never the text itself.
    pub property: Arc<str>,
    /// The verdict at report time.
    pub verdict: Verdict,
    /// Diagnostics, when the verdict is [`Verdict::Violated`].
    pub violation: Option<Violation>,
    /// The recorded witness chain behind the violation — present only when
    /// the session was in explain mode
    /// ([`Session::enable_explain`](crate::Session::enable_explain)) *and*
    /// the verdict is [`Verdict::Violated`]. Detached sessions always
    /// report `None`, keeping their renderings byte-identical to a session
    /// without explain support.
    pub witness: Option<Witness>,
}

impl PropertyReport {
    /// Human text, for reports and streamed verdicts alike: `{indent}[verdict]
    /// property`, then four columns deeper the diagnostic and the witness.
    pub(crate) fn write_text(&self, out: &mut String, indent: &str, voc: &Vocabulary) {
        let _ = writeln!(out, "{indent}[{}] {}", self.verdict, self.property);
        if let Some(violation) = &self.violation {
            let _ = writeln!(out, "{indent}    {}", violation.display(voc));
        }
        let Some(witness) = self
            .witness
            .as_ref()
            .filter(|w| !w.steps.is_empty() || w.dropped > 0)
        else {
            return;
        };
        let _ = writeln!(
            out,
            "{indent}    because ({} contributing steps):",
            witness.steps.len()
        );
        if witness.dropped > 0 {
            let _ = writeln!(
                out,
                "{indent}      ... {} earlier steps dropped by the flight recorder",
                witness.dropped
            );
        }
        for s in &witness.steps {
            let (from, to) = s.transition();
            let _ = writeln!(
                out,
                "{indent}      `{}` at {} -- cell {}: {} -> {}",
                voc.resolve(s.event),
                s.time,
                s.cell,
                from,
                to,
            );
        }
    }

    /// The `, "diagnostic": …` and `, "witness": […]` fields of this
    /// property's JSON object, shared by every JSON surface.
    pub(crate) fn write_json_fields(&self, out: &mut String, voc: &Vocabulary) {
        if let Some(violation) = &self.violation {
            let _ = write!(
                out,
                ", \"diagnostic\": \"{}\"",
                json_escape(&violation.display(voc))
            );
        }
        let Some(witness) = &self.witness else {
            return;
        };
        out.push_str(", \"witness\": [");
        for (j, s) in witness.steps.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let (from, to) = s.transition();
            let _ = write!(
                out,
                "{{\"time_ps\": {}, \"event\": \"{}\", \"cell\": {}, \
                 \"from\": \"{}\", \"to\": \"{}\"}}",
                s.time.as_ps(),
                json_escape(voc.resolve(s.event)),
                s.cell,
                from,
                to,
            );
        }
        out.push(']');
        if witness.dropped > 0 {
            let _ = write!(out, ", \"witness_dropped\": {}", witness.dropped);
        }
    }
}

/// Everything a session knows at (or before) end of observation.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Per-property outcomes, in compilation order.
    pub properties: Vec<PropertyReport>,
    /// Dispatch accounting.
    pub stats: DispatchStats,
    /// Stable label of the backend that produced the report
    /// ([`crate::Backend::label`]).
    pub backend: &'static str,
}

impl EngineReport {
    /// Whether no property is violated.
    pub fn is_ok(&self) -> bool {
        self.properties.iter().all(|p| p.verdict.is_ok())
    }

    /// The violated properties, in compilation order.
    pub fn violations(&self) -> impl Iterator<Item = &PropertyReport> {
        self.properties
            .iter()
            .filter(|p| p.verdict == Verdict::Violated)
    }

    /// Multi-line human rendering: one `[verdict] property` line each, with
    /// an indented diagnostic under every violation, then the stats line.
    pub fn render(&self, voc: &Vocabulary) -> String {
        let mut out = String::new();
        for p in &self.properties {
            p.write_text(&mut out, "  ", voc);
        }
        let _ = writeln!(out, "  dispatch: {}", self.stats.render());
        out
    }

    /// One-line JSON rendering for machine consumers (`lomon check
    /// --format json`): the per-property verdicts (with their diagnostics)
    /// and the full dispatch statistics, including the fusion counters.
    pub fn render_json(&self, voc: &Vocabulary) -> String {
        let mut out = String::from("{\"properties\": [");
        for (k, p) in self.properties.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"index\": {}, \"property\": \"{}\", \"verdict\": \"{}\"",
                p.index,
                json_escape(&p.property),
                p.verdict,
            );
            p.write_json_fields(&mut out, voc);
            out.push('}');
        }
        let violations = self.violations().count() as u64;
        let _ = write!(
            out,
            "], \"ok\": {}, \"stats\": {}}}",
            self.is_ok(),
            self.stats.render_json_object(self.backend, violations),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use lomon_trace::{SimTime, TimedEvent};

    #[test]
    fn report_renders_verdicts_and_stats() {
        let mut voc = Vocabulary::new();
        let engine = Engine::compile(&["all{a, b} << start once"], &mut voc).expect("compiles");
        let mut session = engine.session();
        let start = voc.lookup("start").unwrap();
        session.ingest(TimedEvent::new(start, SimTime::from_ns(5)));
        let report = session.finish(SimTime::from_ns(10));
        assert!(!report.is_ok());
        assert_eq!(report.violations().count(), 1);
        let text = report.render(&voc);
        assert!(
            text.contains("[violated] all{a, b} << start once"),
            "{text}"
        );
        assert!(text.contains("`start` at 5ns"), "{text}");
        assert!(text.contains("dispatch: 1 events x 1 properties"), "{text}");
        assert_eq!(report.stats.broadcast_steps(), 1);
        assert_eq!(report.stats.retired, 1);
    }

    #[test]
    fn render_shows_fusion_only_when_sharing_happened() {
        let mut voc = Vocabulary::new();
        let solo = Engine::compile(&["all{a, b} << start once"], &mut voc).expect("compiles");
        assert!(!solo.session().report().stats.render().contains("fused"));
        let shared = Engine::compile(
            &["all{a, b} << start once", "all{a, b} << start once"],
            &mut voc,
        )
        .expect("compiles");
        let line = shared.session().report().stats.render();
        assert!(line.contains("fused 4 cells into 2"), "{line}");
    }

    #[test]
    fn json_report_carries_verdicts_and_stats() {
        let mut voc = Vocabulary::new();
        let engine = Engine::compile(
            &["all{a, b} << start once", "all{a, b} << start once"],
            &mut voc,
        )
        .expect("compiles");
        let mut session = engine.session();
        let start = voc.lookup("start").unwrap();
        session.ingest(TimedEvent::new(start, SimTime::from_ns(5)));
        let report = session.finish(SimTime::from_ns(10));
        let json = report.render_json(&voc);
        assert!(json.contains("\"verdict\": \"violated\""), "{json}");
        assert!(json.contains("\"diagnostic\": "), "{json}");
        assert!(json.contains("\"ok\": false"), "{json}");
        assert!(json.contains("\"total_cells\": 4"), "{json}");
        assert!(json.contains("\"unique_cells\": 2"), "{json}");
        assert!(json.contains("\"shared_hits\": 1"), "{json}");
    }
}
