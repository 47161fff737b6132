//! Whole-rulebook static analysis: vacuity, subsumption, conflict,
//! vocabulary coverage and dead-table detection over the compiled
//! representation.
//!
//! The well-formedness checks of [`crate::wf`] are per-property and
//! syntactic. This module asks *semantic* questions about the rulebook as
//! a whole, on the already-lowered
//! [`CompiledProgram`](crate::compiled::CompiledProgram)/[`FusedProgram`]
//! form — which is finite-state with bounded counters, so the questions
//! are decidable by bounded reachability (the private `reach` module).
//! Results come back as [`Diagnostic`]s with stable machine-readable
//! codes:
//!
//! | Code | Severity | Meaning | Run by |
//! |---|---|---|---|
//! | `L001` | error | property does not parse | every surface |
//! | `L002` | error | property is ill-formed (Fig. 3 side conditions) | every surface |
//! | `L003` | warning | duplicate properties (identical recognizers) | [`warnings`] |
//! | `L004` | warning | vacuous property: no bounded trace satisfies it non-vacuously | [`warnings`] |
//! | `L005` | warning | subsumed/equivalent property pair (same alphabet) | [`warnings`] |
//! | `L006` | warning | conflicting property pair | [`warnings`] |
//! | `L007` | note | vocabulary names no property observes | [`notes`] |
//! | `L008` | note | trace-corpus events with zero subscriber rows | [`notes`] |
//! | `L009` | note | unreachable action-table rows/entries | [`notes`] |
//!
//! `L001`/`L002` are emitted by the engine's compile pipeline (they
//! pre-date lowering). Every surface that compiles a rulebook (`lomon
//! check`, `watch`, `smc`, `serve` at start and on each reload, `profile`)
//! runs the warning passes of [`warnings`] and prints what they find; only
//! `lomon lint` also runs the note passes of [`notes`] and appends their
//! findings, so a cold start pays for no analysis it does not print. The
//! semantic verdicts are *bounded-model* verdicts: exact for traces of at
//! most each walk's horizon
//! ([`bounded_horizon`](crate::compiled::CompiledProgram::bounded_horizon)),
//! and validated against exhaustive trace enumeration through the
//! interpreter backend in `crates/core/tests/analysis_gate.rs`.

mod reach;

pub use reach::{pair_facts, satisfiable, PairFacts};

use std::sync::Arc;

use lomon_trace::{json_escape, Name, NameSet, SimTime, TimedEvent, Vocabulary};

use crate::compiled::PruneStats;
use crate::fused::FusedProgram;
use crate::verdict::Monitor;

/// How serious a [`Diagnostic`] is — drives lint exit codes. Warnings come
/// from [`warnings`], which every surface that compiles a rulebook runs and
/// prints; notes come from [`notes`], which only `lomon lint` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The rulebook is unusable (parse / well-formedness failure).
    Error,
    /// The rulebook compiles but something is almost certainly wrong.
    Warning,
    /// Informational finding.
    Note,
}

impl Severity {
    /// Lower-case label, as rendered in text and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        }
    }
}

/// Stable machine-readable diagnostic codes (see the module table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[allow(missing_docs)] // the variants are the codes; meanings in the module table
pub enum DiagCode {
    L001,
    L002,
    L003,
    L004,
    L005,
    L006,
    L007,
    L008,
    L009,
}

impl DiagCode {
    /// The code as printed, e.g. `"L004"`.
    pub fn as_str(self) -> &'static str {
        match self {
            DiagCode::L001 => "L001",
            DiagCode::L002 => "L002",
            DiagCode::L003 => "L003",
            DiagCode::L004 => "L004",
            DiagCode::L005 => "L005",
            DiagCode::L006 => "L006",
            DiagCode::L007 => "L007",
            DiagCode::L008 => "L008",
            DiagCode::L009 => "L009",
        }
    }

    /// The fixed severity of this code.
    pub fn severity(self) -> Severity {
        match self {
            DiagCode::L001 | DiagCode::L002 => Severity::Error,
            DiagCode::L003 | DiagCode::L004 | DiagCode::L005 | DiagCode::L006 => Severity::Warning,
            DiagCode::L007 | DiagCode::L008 | DiagCode::L009 => Severity::Note,
        }
    }
}

/// One lint finding: a coded, severity-tagged message about zero or more
/// properties of the rulebook.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable machine-readable code.
    pub code: DiagCode,
    /// Severity (always `code.severity()`).
    pub severity: Severity,
    /// Rulebook property ids the finding is about (may be empty for
    /// rulebook-level findings such as vocabulary coverage).
    pub properties: Vec<usize>,
    /// Human-readable message with names resolved through the vocabulary.
    pub message: String,
}

impl Diagnostic {
    /// Build a diagnostic; the severity is derived from the code.
    pub fn new(code: DiagCode, properties: Vec<usize>, message: String) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity(),
            properties,
            message,
        }
    }

    /// Render as one text line: `warning[L004]: message`.
    pub fn render_text(&self) -> String {
        format!(
            "{}[{}]: {}",
            self.severity.label(),
            self.code.as_str(),
            self.message
        )
    }

    /// Render as one JSON object (NDJSON-friendly):
    /// `{"code": "L004", "severity": "warning", "properties": [0], "message": "..."}`.
    pub fn render_json(&self) -> String {
        let properties = self
            .properties
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"code\": \"{}\", \"severity\": \"{}\", \"properties\": [{}], \"message\": \"{}\"}}",
            self.code.as_str(),
            self.severity.label(),
            properties,
            json_escape(&self.message)
        )
    }
}

/// Maximum distinct states per bounded-model walk; a walk that would
/// exceed it is silently skipped (no verdict, never a false one). `lomon
/// lint --fix-prune` prunes under the same budget.
pub const STATE_BUDGET: usize = 20_000;

/// Maximum property pairs to product-walk for `L005`/`L006`.
const MAX_PAIRS: usize = 256;

/// Semantic walks whose horizon exceeds this many unit steps are skipped
/// (large range minima make exhaustive walks pointless).
const HORIZON_CAP: usize = 24;

/// Inputs of [`notes`] beyond the rulebook.
#[derive(Debug, Clone, Default)]
pub struct AnalysisOptions {
    /// Per-name event counts of a trace corpus: enables `L008` and
    /// restricts the dead-table walk to names the corpus can produce.
    pub corpus: Option<Vec<(Name, u64)>>,
}

/// `"property 3 `a << start once`"` — how diagnostics refer to properties.
fn prop_label(id: usize, displays: &[&str]) -> String {
    match displays.get(id) {
        Some(text) => format!("property {id} `{text}`"),
        None => format!("property {id}"),
    }
}

fn label_list(ids: &[u32], displays: &[&str]) -> String {
    ids.iter()
        .map(|&p| prop_label(p as usize, displays))
        .collect::<Vec<_>>()
        .join(", ")
}

/// The corpus names with at least one occurrence, as a set.
fn corpus_set(opts: &AnalysisOptions) -> Option<NameSet> {
    opts.corpus.as_ref().map(|corpus| {
        corpus
            .iter()
            .filter(|&&(_, count)| count > 0)
            .map(|&(name, _)| name)
            .collect()
    })
}

/// Run the warning passes over a fused program and return their findings:
/// the `L003` duplicates, the `L004` vacuous groups, then `L005`/`L006`
/// pair by pair (parse and well-formedness errors are reported by the
/// compile pipeline before lowering, so they never reach this function).
/// `displays[p]` is property `p`'s source text, used in messages.
pub fn warnings(fused: &FusedProgram, displays: &[&str]) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // L003 — duplicates: fusion already interned structurally identical
    // properties; surface the sharing as a lint instead of only silently
    // exploiting it.
    for g in 0..fused.group_count() {
        let members = fused.members(g);
        if members.len() >= 2 {
            out.push(Diagnostic::new(
                DiagCode::L003,
                members.iter().map(|&p| p as usize).collect(),
                format!(
                    "duplicate properties: {} compile to the same recognizer \
                     — one monitor serves all of them",
                    label_list(members, displays)
                ),
            ));
        }
    }

    // L004 — vacuity, one walk per unique group.
    for g in 0..fused.group_count() {
        let program = fused.group(g);
        let horizon = program.bounded_horizon();
        if horizon > HORIZON_CAP {
            continue;
        }
        if reach::satisfiable(program, horizon, STATE_BUDGET) == Some(false) {
            let members = fused.members(g);
            out.push(Diagnostic::new(
                DiagCode::L004,
                members.iter().map(|&p| p as usize).collect(),
                format!(
                    "{} is vacuous: no trace of up to {horizon} steps \
                     completes a satisfied episode — it can only ever \
                     pass by never firing",
                    label_list(members, displays)
                ),
            ));
        }
    }

    // L005/L006 — pairwise product walks over group representatives.
    let mut walked = 0usize;
    'pairs: for i in 0..fused.group_count() {
        for j in (i + 1)..fused.group_count() {
            let (pi, pj) = (fused.group(i), fused.group(j));
            let same_alphabet = pi.alphabet() == pj.alphabet();
            // Disjoint alphabets can neither subsume (different
            // alphabets) nor conflict (their traces interleave freely).
            if !same_alphabet && !pi.alphabet().intersects(pj.alphabet()) {
                continue;
            }
            let horizon = pi.bounded_horizon().max(pj.bounded_horizon());
            if horizon > HORIZON_CAP {
                continue;
            }
            if walked >= MAX_PAIRS {
                break 'pairs;
            }
            walked += 1;
            let Some(facts) = reach::pair_facts(pi, pj, horizon, STATE_BUDGET) else {
                continue;
            };
            let ri = fused.members(i)[0] as usize;
            let rj = fused.members(j)[0] as usize;
            if same_alphabet {
                let (li, lj) = (prop_label(ri, displays), prop_label(rj, displays));
                match (facts.subsumes_j(), facts.subsumes_i()) {
                    (true, true) => out.push(Diagnostic::new(
                        DiagCode::L005,
                        vec![ri, rj],
                        format!(
                            "{li} and {lj} are equivalent within the \
                             bounded model (horizon {horizon}): they \
                             admit exactly the same traces"
                        ),
                    )),
                    (true, false) => out.push(Diagnostic::new(
                        DiagCode::L005,
                        vec![ri, rj],
                        format!(
                            "{lj} is subsumed by {li}: within the \
                             bounded model (horizon {horizon}) every \
                             violation it can raise, {li} raises too"
                        ),
                    )),
                    (false, true) => out.push(Diagnostic::new(
                        DiagCode::L005,
                        vec![ri, rj],
                        format!(
                            "{li} is subsumed by {lj}: within the \
                             bounded model (horizon {horizon}) every \
                             violation it can raise, {lj} raises too"
                        ),
                    )),
                    (false, false) => {}
                }
            }
            if facts.conflicting() {
                let (li, lj) = (prop_label(ri, displays), prop_label(rj, displays));
                out.push(Diagnostic::new(
                    DiagCode::L006,
                    vec![ri, rj],
                    format!(
                        "{li} and {lj} conflict: each is satisfiable \
                         alone, but within the bounded model (horizon \
                         {horizon}) no trace satisfies one without \
                         violating the other"
                    ),
                ));
            }
        }
    }

    out
}

/// Run the note passes over a fused program, whose names `voc` resolves,
/// and return their findings (codes `L007`–`L009`, in that order):
/// `lomon lint` appends them to the [`warnings`]. `displays[p]` is
/// property `p`'s source text, used in messages.
pub fn notes(
    fused: &FusedProgram,
    displays: &[&str],
    voc: &Vocabulary,
    opts: &AnalysisOptions,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // L007 — vocabulary names no property observes.
    if fused.property_count() > 0 {
        let unobserved: Vec<Name> = voc
            .iter()
            .filter(|&name| fused.subscribers(name).0.is_empty())
            .collect();
        if !unobserved.is_empty() {
            out.push(Diagnostic::new(
                DiagCode::L007,
                Vec::new(),
                format!(
                    "{} vocabulary name{} no property observes: {}",
                    unobserved.len(),
                    if unobserved.len() == 1 { "" } else { "s" },
                    name_listing(&unobserved, voc)
                ),
            ));
        }
    }

    // L008 — corpus events dispatched nowhere.
    if let Some(corpus) = &opts.corpus {
        let silent: Vec<(Name, u64)> = corpus
            .iter()
            .filter(|&&(name, count)| count > 0 && fused.subscribers(name).0.is_empty())
            .copied()
            .collect();
        if !silent.is_empty() {
            let total: u64 = silent.iter().map(|&(_, count)| count).sum();
            let listing = silent
                .iter()
                .take(8)
                .map(|&(name, count)| format!("{} (×{count})", voc.resolve(name)))
                .collect::<Vec<_>>()
                .join(", ");
            let ellipsis = if silent.len() > 8 { ", …" } else { "" };
            out.push(Diagnostic::new(
                DiagCode::L008,
                Vec::new(),
                format!(
                    "{total} trace event{} hit zero subscriber rows: \
                     {listing}{ellipsis}",
                    if total == 1 { "" } else { "s" },
                ),
            ));
        }
    }

    // L009 — dead action-table rows/entries.
    let corpus = corpus_set(opts);
    for g in 0..fused.group_count() {
        let program = fused.group(g);
        let Some(live) = reach::live_mask(program, corpus.as_ref(), STATE_BUDGET) else {
            continue;
        };
        let drop = droppable_rows(program.alphabet(), corpus.as_ref());
        let (_, stats) = program.pruned(&live, &drop);
        if stats.dropped_rows == 0 && stats.neutralized_entries == 0 {
            continue;
        }
        let members = fused.members(g);
        let scope = if corpus.is_some() {
            " given the trace corpus"
        } else {
            ""
        };
        out.push(Diagnostic::new(
            DiagCode::L009,
            members.iter().map(|&p| p as usize).collect(),
            format!(
                "action table of {}: {} of {} rows and {} further \
                 entries are unreachable{scope} (prunable with \
                 --fix-prune)",
                label_list(members, displays),
                stats.dropped_rows,
                stats.rows,
                stats.neutralized_entries,
            ),
        ));
    }

    out
}

fn name_listing(names: &[Name], voc: &Vocabulary) -> String {
    let listing = names
        .iter()
        .take(8)
        .map(|&n| voc.resolve(n).to_string())
        .collect::<Vec<_>>()
        .join(", ");
    if names.len() > 8 {
        format!("{listing}, …")
    } else {
        listing
    }
}

/// Alphabet names whose rows can be dropped outright: with a corpus, the
/// names the corpus can never produce (their rows are never consulted on
/// corpus traces); without one, nothing.
fn droppable_rows(alphabet: &NameSet, corpus: Option<&NameSet>) -> NameSet {
    match corpus {
        Some(corpus) => alphabet.iter().filter(|&n| !corpus.contains(n)).collect(),
        None => NameSet::new(),
    }
}

/// A pruned rulebook plus what the pruning removed.
#[derive(Debug)]
pub struct PruneOutcome {
    /// The rebuilt fused program (same groups, smaller tables).
    pub fused: FusedProgram,
    /// Aggregate row/entry statistics over all groups.
    pub stats: PruneStats,
}

/// Where a replay through a rulebook and its pruned copy first diverged
/// ([`PruneOutcome::first_divergence`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Divergence {
    /// Some group's verdicts differed after this event.
    Event(TimedEvent),
    /// Some group's final verdicts differed.
    Finish,
}

impl PruneOutcome {
    /// Replay `events` and then a finish at `end` through fresh instances
    /// of `original`, the program the prune started from, and of the pruned
    /// program, comparing every group's verdict at every step: the first
    /// point where they differ, or `None`. The prune preserves verdicts on
    /// corpus traces by construction; this checks it.
    pub fn first_divergence(
        &self,
        original: &FusedProgram,
        events: &[TimedEvent],
        end: SimTime,
    ) -> Option<Divergence> {
        let mut original = original.instantiate();
        let mut pruned = self.fused.instantiate();
        for &event in events {
            let mut groups = original.iter_mut().zip(&mut pruned);
            if groups.any(|(o, p)| o.observe(event) != p.observe(event)) {
                return Some(Divergence::Event(event));
            }
        }
        let mut groups = original.iter_mut().zip(&mut pruned);
        groups
            .any(|(o, p)| o.finish(end) != p.finish(end))
            .then_some(Divergence::Finish)
    }
}

/// Prune every group's action table: drop rows the corpus can never
/// exercise and neutralize entries the liveness walk proved unreachable,
/// then reassemble the fused rulebook around the rewritten programs.
///
/// The result is **verdict-preserving** on every trace whose events stay
/// within the corpus names (all traces, when `corpus` is `None`); the
/// `ops` accounting of pruned monitors differs. Groups whose liveness walk
/// exceeds `state_budget` are kept unchanged.
pub fn prune_dead(
    fused: &FusedProgram,
    corpus: Option<&NameSet>,
    state_budget: usize,
) -> PruneOutcome {
    let mut stats = PruneStats::default();
    let mut groups = Vec::with_capacity(fused.group_count());
    for g in 0..fused.group_count() {
        let program = fused.group(g);
        match reach::live_mask(program, corpus, state_budget) {
            Some(live) => {
                let drop = droppable_rows(program.alphabet(), corpus);
                let (pruned, s) = program.pruned(&live, &drop);
                stats.absorb(s);
                groups.push(Arc::new(pruned));
            }
            None => groups.push(Arc::clone(program)),
        }
    }
    PruneOutcome {
        fused: fused.with_groups(groups),
        stats,
    }
}
