//! Compiled execution backend: flat event→action tables for the Fig. 5
//! recognizers.
//!
//! The interpreter ([`crate::recognizer`], [`crate::compose`],
//! [`crate::antecedent`], [`crate::timed`]) walks the monitor tree on every
//! event: enum dispatch into the active fragment, then up to four bitset
//! membership tests per recognizer to classify the name against its context
//! `(B, C, Ac, Af)`. [`CompiledProgram::lower`] pays the classification cost
//! **once**, at compile time: every (alphabet name × recognizer cell) pair
//! is resolved to its [`NameClass`] and stored in a dense row-major action
//! table, and the recognizer tree is flattened into an arena of
//! `(state, counter)` cells grouped by fragment. The per-event hot path of
//! [`CompiledMonitor`] is then one lookup-table index plus a handful of
//! integer state updates per cell of the active fragment — no tree walk, no
//! bitset probes, and no allocation.
//!
//! ## Exact interpreter parity
//!
//! The backend is **observationally identical** to the interpreter: same
//! verdicts at every step, same violation diagnostics (kind, event, time,
//! detail, expected set), and the same abstract-operation counts
//! ([`Monitor::ops`]) — every `ops` increment of the interpreter is
//! replayed, with the classification cost read off the precomputed class
//! instead of re-measured. The expected-set diagnostics that the
//! interpreter snapshots eagerly after every event are derived *lazily*
//! here, from a cheap fixed-size copy of the active fragment's cell states
//! taken before each event — which is what removes the per-event `NameSet`
//! allocation from the hot path. `crates/engine/tests/engine_oracle.rs`
//! pits the two backends against each other on random properties and
//! traces; the unit tests below run them in lockstep on the paper examples.

use std::sync::Arc;

use lomon_trace::{Name, NameSet, SimTime, TimedEvent, Vocabulary};

use crate::ast::{FragmentOp, Property};
use crate::compose::OrderingStep;
use crate::context::{cyclic_contexts, linear_contexts, NameClass};
use crate::recognizer::{counter_bits, RangeOutput};
use crate::verdict::{Monitor, Obligation, Verdict, Violation, ViolationKind};
use crate::wf::{self, WfError};
use crate::witness::{FlightRecorder, Witness, WitnessStep};

/// Lookup sentinel for names outside the alphabet.
const NO_ROW: u32 = u32::MAX;

// Cell automaton states: the `s0` … `s5` of Fig. 5 as dense integers.
const S_IDLE: u8 = 0;
const S_WAITING: u8 = 1;
const S_WAITING_OTHER: u8 = 2;
const S_COUNTING: u8 = 3;
const S_DONE: u8 = 4;
const S_ERROR: u8 = 5;

// Precomputed name classes. The nonzero codes double as the interpreter's
// short-circuited classification cost (1 probe for `Own` … 5 for `Before`);
// `CLASS_NONE` (outside the root alphabet) costs the full 5 probes.
const CLASS_NONE: u8 = 0;
const CLASS_OWN: u8 = 1;
const CLASS_CONCURRENT: u8 = 2;
const CLASS_ACCEPT: u8 = 3;
const CLASS_AFTER: u8 = 4;
const CLASS_BEFORE: u8 = 5;

fn class_code(class: Option<NameClass>) -> u8 {
    match class {
        None => CLASS_NONE,
        Some(NameClass::Own) => CLASS_OWN,
        Some(NameClass::Concurrent) => CLASS_CONCURRENT,
        Some(NameClass::Accept) => CLASS_ACCEPT,
        Some(NameClass::After) => CLASS_AFTER,
        Some(NameClass::Before) => CLASS_BEFORE,
    }
}

fn class_cost(code: u8) -> u64 {
    if code == CLASS_NONE {
        5
    } else {
        u64::from(code)
    }
}

/// Immutable per-cell configuration: the range `n[u,v]` it recognizes.
#[derive(Debug, Clone, Copy)]
struct CellSpec {
    name: Name,
    min: u32,
    max: u32,
}

// The event→action table and the mutable cell arena are stored as
// struct-of-arrays (a one-byte `class` stream, a packed `min|max` bounds
// stream, and a packed `state|cpt` cell stream indexed by action-table
// position) rather than as vectors of structs: the hot loop touches the
// class stream densely (a whole cache line holds 64 classes), the bounds
// and cell words each load and store as a single machine word, and the
// pre-event diagnostic snapshot degenerates to one word copy per cell.

/// Pack a range's counter bounds into one action-table word.
const fn range_word(min: u32, max: u32) -> u64 {
    min as u64 | (max as u64) << 32
}

const fn range_min(word: u64) -> u32 {
    word as u32
}

const fn range_max(word: u64) -> u32 {
    (word >> 32) as u32
}

/// Pack a cell's automaton state and range counter into one arena word.
/// Bits 8..32 are always zero; transitions that touch only the state
/// keep the counter bits with mask arithmetic (and vice versa), so the
/// arena behaves exactly like the former parallel `u8`/`u32` arrays.
const fn cell_word(state: u8, cpt: u32) -> u64 {
    state as u64 | (cpt as u64) << 32
}

const fn cell_state(word: u64) -> u8 {
    word as u8
}

const fn cell_cpt(word: u64) -> u32 {
    (word >> 32) as u32
}

/// Mask preserving the counter half of a cell word.
const CELL_CPT_BITS: u64 = 0xFFFF_FFFF_0000_0000;
/// A cell word's increment step for `cpt += 1`.
const CELL_CPT_ONE: u64 = 1 << 32;

/// Rewrite the state half of a cell word in place.
#[inline(always)]
fn set_cell_state(word: &mut u64, state: u8) {
    *word = (*word & CELL_CPT_BITS) | state as u64;
}

/// Which root pattern the program encodes.
#[derive(Debug, Clone, Copy)]
enum ProgramKind {
    /// `(P << i, b)` — linear chain, stop set `{i}`.
    Antecedent { repeated: bool },
    /// `(P ⇒ Q, t)` — cyclic chain over the concatenated fragments.
    Timed { premise_len: u32, bound: SimTime },
}

/// The immutable compiled form of one property: a flat arena of recognizer
/// cells plus the dense event→action table. Shared (via [`Arc`]) by any
/// number of [`CompiledMonitor`]s, e.g. one per engine session.
///
/// Built by [`CompiledProgram::lower`]; stepped by [`CompiledMonitor`].
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    kind: ProgramKind,
    /// All cells of all fragments, fragment-contiguous.
    cells: Vec<CellSpec>,
    /// Fragment `f` owns cells `frag_start[f] .. frag_start[f + 1]`.
    frag_start: Vec<u32>,
    /// Per-fragment connective (`∧`/`∨`).
    frag_op: Vec<FragmentOp>,
    /// Per-fragment stopping set `Ac` (shared by the fragment's cells) —
    /// needed only for the lazily computed expected-set diagnostics.
    frag_accept: Vec<NameSet>,
    /// `Name::index()` → prescaled action-table row offset (`row × cells`),
    /// [`NO_ROW`] outside the alphabet.
    lookup: Vec<u32>,
    /// Row-major `rows × cells` table of precomputed [`NameClass`] codes —
    /// the struct-of-arrays action table, with the cells' counter bounds
    /// in the parallel `act_range` at the same index.
    act_class: Vec<u8>,
    /// Counter bounds of entry `i`'s cell (parallel to `act_class`),
    /// packed `min | max << 32` so the step loop streams one word per
    /// cell instead of two parallel arrays.
    act_range: Vec<u64>,
    /// The property's alphabet `α` (the rows of the table).
    alphabet: NameSet,
    /// Mutable state footprint, matching the interpreter's accounting.
    state_bits: u64,
    /// `max_f |cells(f)|` — sizes the pre-event snapshot buffer.
    max_frag_cells: usize,
}

impl CompiledProgram {
    /// Lower a **well-formed** property into its flat-table program.
    ///
    /// The property must already satisfy the Fig. 3 side conditions (see
    /// [`crate::wf`]); use [`compile_monitor`] to validate and lower in one
    /// step. The lowering reuses the interpreter's own context computation
    /// ([`linear_contexts`] / [`cyclic_contexts`]) and classification
    /// priority, so the table is correct by construction.
    pub fn lower(property: &Property) -> CompiledProgram {
        let (fragments, contexts, kind, alphabet) = match property {
            Property::Antecedent(a) => {
                let stop: NameSet = [a.trigger].into_iter().collect();
                (
                    a.antecedent.fragments.clone(),
                    linear_contexts(&a.antecedent, &stop),
                    ProgramKind::Antecedent {
                        repeated: a.repeated,
                    },
                    a.alpha(),
                )
            }
            Property::Timed(t) => {
                let fragments = t.all_fragments();
                let contexts = cyclic_contexts(&fragments);
                (
                    fragments,
                    contexts,
                    ProgramKind::Timed {
                        premise_len: t.premise.fragments.len() as u32,
                        bound: t.bound,
                    },
                    t.alpha(),
                )
            }
        };
        assert!(!fragments.is_empty(), "ordering must have fragments");

        let mut cells = Vec::new();
        let mut frag_start = vec![0u32];
        let mut frag_op = Vec::with_capacity(fragments.len());
        let mut frag_accept = Vec::with_capacity(fragments.len());
        let mut max_frag_cells = 0;
        for (fragment, ctxs) in fragments.iter().zip(&contexts) {
            frag_op.push(fragment.op);
            frag_accept.push(ctxs[0].accept.clone());
            for range in &fragment.ranges {
                cells.push(CellSpec {
                    name: range.name,
                    min: range.min,
                    max: range.max,
                });
            }
            max_frag_cells = max_frag_cells.max(fragment.ranges.len());
            frag_start.push(cells.len() as u32);
        }

        let n_cells = cells.len();
        let names: Vec<Name> = alphabet.iter().collect();
        let table = names.len() * n_cells;
        assert!(table < NO_ROW as usize, "alphabet x cells too large");
        let table_width = names.iter().map(|n| n.index() + 1).max().unwrap_or(0);
        let mut lookup = vec![NO_ROW; table_width];
        for (row, &name) in names.iter().enumerate() {
            lookup[name.index()] = (row * n_cells) as u32;
        }

        let mut act_class = vec![CLASS_NONE; table];
        let mut act_range = vec![0u64; table];
        let mut cell = 0usize;
        for (fragment, ctxs) in fragments.iter().zip(&contexts) {
            for (range, ctx) in fragment.ranges.iter().zip(ctxs) {
                for (row, &name) in names.iter().enumerate() {
                    let at = row * n_cells + cell;
                    act_class[at] = class_code(ctx.classify(range.name, name));
                    act_range[at] = range_word(range.min, range.max);
                }
                cell += 1;
            }
        }

        // The interpreter's state accounting, reproduced constant-for-
        // constant: per cell 3 automaton bits + the counter, per ordering
        // the active-index register + started flag, per monitor the
        // verdict/episode flags (and the three sc_time variables for timed
        // implications).
        let cell_bits: u64 = cells.iter().map(|c| 3 + counter_bits(c.max)).sum();
        let index_bits = u64::from(usize::BITS - fragments.len().max(1).leading_zeros());
        let ordering_bits = cell_bits + index_bits + 1;
        let state_bits = match kind {
            ProgramKind::Antecedent { .. } => ordering_bits + 2 + 1,
            ProgramKind::Timed { .. } => ordering_bits + 3 * 64 + 2 + 3,
        };

        CompiledProgram {
            kind,
            cells,
            frag_start,
            frag_op,
            frag_accept,
            lookup,
            act_class,
            act_range,
            alphabet,
            state_bits,
            max_frag_cells,
        }
    }

    /// The property's alphabet `α` — the rows of the action table.
    pub fn alphabet(&self) -> &NameSet {
        &self.alphabet
    }

    /// Whether the program encodes a timed implication (the only kind that
    /// carries deadlines).
    pub fn is_timed(&self) -> bool {
        matches!(self.kind, ProgramKind::Timed { .. })
    }

    /// Structural fingerprint of the program: two programs with equal
    /// fingerprints are **observationally identical** — given the same
    /// event/time sequence their monitors produce the same verdicts,
    /// violation diagnostics (kind, detail, expected set), deadlines and
    /// `ops` at every step. This is what makes cross-property state sharing
    /// in [`crate::fused`] sound: a single cell arena can serve every
    /// property whose program fingerprints equal, because nothing
    /// observable can ever distinguish their monitors.
    ///
    /// The encoding covers everything the monitor dynamics read: the
    /// program kind (with the `repeated` flag / premise length / time
    /// bound), the fragment layout and connectives, each cell's
    /// `(name, min, max)` spec **in order** (order matters: violation
    /// details name the rejecting range by position), the per-fragment
    /// stopping sets, the alphabet, and the whole event→action table.
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut key = Vec::with_capacity(
            8 + self.frag_start.len() + 2 * self.frag_op.len() + 3 * self.cells.len(),
        );
        match self.kind {
            ProgramKind::Antecedent { repeated } => {
                key.push(0);
                key.push(u64::from(repeated));
            }
            ProgramKind::Timed { premise_len, bound } => {
                key.push(1);
                key.push(u64::from(premise_len));
                key.push(bound.as_ps());
            }
        }
        key.extend(self.frag_start.iter().map(|&s| u64::from(s)));
        key.extend(self.frag_op.iter().map(|&op| match op {
            FragmentOp::All => 0u64,
            FragmentOp::Any => 1u64,
        }));
        for accept in &self.frag_accept {
            key.push(accept.len() as u64);
            key.extend(accept.iter().map(|n| n.index() as u64));
        }
        for cell in &self.cells {
            key.push(cell.name.index() as u64);
            key.push(u64::from(cell.min));
            key.push(u64::from(cell.max));
        }
        key.push(self.alphabet.len() as u64);
        key.extend(self.alphabet.iter().map(|n| n.index() as u64));
        // The table is derived from the structure above, but keying it too
        // costs nothing at compile time and keeps the key self-evidently
        // complete. The packing is exact (8 + 32 bits used of 40+32), so
        // distinct tables never collide.
        for (&class, &range) in self.act_class.iter().zip(&self.act_range) {
            key.push(u64::from(class) | (u64::from(range_min(range)) << 8));
            key.push(u64::from(range_max(range)));
        }
        key
    }

    /// Number of recognizer cells in the arena.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// One past the highest [`Name::index`] in the alphabet — the width a
    /// dense name-indexed lookup covering this program must have.
    pub fn lookup_width(&self) -> usize {
        self.lookup.len()
    }

    /// Number of fragments in the (concatenated) chain.
    pub fn fragment_count(&self) -> usize {
        self.frag_op.len()
    }

    fn n_frags(&self) -> usize {
        self.frag_op.len()
    }

    fn frag_range(&self, f: usize) -> (usize, usize) {
        (self.frag_start[f] as usize, self.frag_start[f + 1] as usize)
    }

    /// The prescaled action-table row offset of `name`, or `None` outside
    /// the alphabet. An event router that already proved membership (e.g.
    /// the engine's inverted index) can pass this to
    /// [`CompiledMonitor::observe_routed`] and skip the monitor's own
    /// projection lookup.
    #[inline]
    pub fn action_row(&self, name: Name) -> Option<u32> {
        match self.lookup.get(name.index()) {
            Some(&base) if base != NO_ROW => Some(base),
            _ => None,
        }
    }

    /// The prescaled action-table row offset of `name`, or `None` outside
    /// the alphabet — the hot path's single projection lookup.
    #[inline(always)]
    fn row_base(&self, name: Name) -> Option<usize> {
        match self.lookup.get(name.index()) {
            Some(&base) if base != NO_ROW => Some(base as usize),
            _ => None,
        }
    }

    /// Total number of event→action table entries (rows × cells).
    pub(crate) fn action_count(&self) -> usize {
        self.act_class.len()
    }

    /// Exploration depth for the bounded-model analyses in
    /// [`crate::analysis`]: enough unit-step events to complete every
    /// range's minimum, hand over across every fragment boundary, and
    /// observe the verdict one step past completion. Traces longer than
    /// this revisit monitor states already covered by shorter ones (the
    /// cell automata are finite and counters saturate at the range bounds).
    pub fn bounded_horizon(&self) -> usize {
        let mins: usize = self.cells.iter().map(|c| c.min as usize).sum();
        mins + self.n_frags() + 2
    }

    /// Rebuild the program with out-of-corpus rows dropped and dead entries
    /// neutralized: rows of names in `drop` vanish from the table (their
    /// lookup slot becomes [`NO_ROW`], so their events take the cheaper
    /// out-of-alphabet path), and kept entries whose `live` flag is unset
    /// are rewritten to [`CLASS_NONE`] (a read-only no-op wherever the
    /// liveness walk proved they can only ever self-loop). The `alphabet`
    /// set is intentionally left unchanged — it documents the property, not
    /// the table layout — so dropped names still project, they just resolve
    /// to no row.
    ///
    /// Verdict-preserving on every trace whose events avoid `drop`;
    /// [`Monitor::ops`] accounting is **not** preserved (a neutralized
    /// entry charges the out-of-alphabet classification cost).
    pub(crate) fn pruned(&self, live: &[bool], drop: &NameSet) -> (CompiledProgram, PruneStats) {
        assert_eq!(live.len(), self.act_class.len(), "liveness mask shape");
        let n_cells = self.cells.len();
        let names: Vec<Name> = self.alphabet.iter().collect();
        let mut lookup = vec![NO_ROW; self.lookup.len()];
        let mut act_class = Vec::new();
        let mut act_range = Vec::new();
        let mut stats = PruneStats {
            rows: 0,
            dropped_rows: 0,
            entries: 0,
            neutralized_entries: 0,
        };
        for name in names {
            let Some(base) = self.row_base(name) else {
                continue; // already dropped by an earlier prune
            };
            stats.rows += 1;
            stats.entries += n_cells;
            if drop.contains(name) {
                stats.dropped_rows += 1;
                continue;
            }
            lookup[name.index()] = act_class.len() as u32;
            for c in 0..n_cells {
                if live[base + c] {
                    act_class.push(self.act_class[base + c]);
                    act_range.push(self.act_range[base + c]);
                } else {
                    if self.act_class[base + c] != CLASS_NONE {
                        stats.neutralized_entries += 1;
                    }
                    act_class.push(CLASS_NONE);
                    act_range.push(0);
                }
            }
        }
        let program = CompiledProgram {
            kind: self.kind,
            cells: self.cells.clone(),
            frag_start: self.frag_start.clone(),
            frag_op: self.frag_op.clone(),
            frag_accept: self.frag_accept.clone(),
            lookup,
            act_class,
            act_range,
            alphabet: self.alphabet.clone(),
            state_bits: self.state_bits,
            max_frag_cells: self.max_frag_cells,
        };
        (program, stats)
    }
}

/// What `CompiledProgram::pruned` removed, for lint reports and the
/// `--fix-prune` summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Action-table rows before pruning.
    pub rows: usize,
    /// Rows removed outright (their name cannot occur in the corpus).
    pub dropped_rows: usize,
    /// Table entries before pruning (`rows × cells`).
    pub entries: usize,
    /// Kept entries rewritten to the no-op class by the liveness walk.
    pub neutralized_entries: usize,
}

impl PruneStats {
    /// Fold another program's stats into this one (rulebook totals).
    pub fn absorb(&mut self, other: PruneStats) {
        self.rows += other.rows;
        self.dropped_rows += other.dropped_rows;
        self.entries += other.entries;
        self.neutralized_entries += other.neutralized_entries;
    }

    /// Entries physically removed from the table by row dropping.
    pub fn dropped_entries(&self) -> usize {
        if self.rows == 0 {
            return 0;
        }
        self.dropped_rows * (self.entries / self.rows)
    }
}

fn verdict_code(v: Verdict) -> u64 {
    match v {
        Verdict::PresumablySatisfied => 0,
        Verdict::Pending => 1,
        Verdict::Satisfied => 2,
        Verdict::Violated => 3,
    }
}

/// Where a violation's expected-set diagnostic is derived from.
#[derive(Clone, Copy)]
enum ExpectedFrom {
    /// The current (unmutated) cell states — for violations detected
    /// *before* the event steps any cell (deadline checks, end of trace).
    Current,
    /// The pre-event snapshot — for violations raised while or after the
    /// event mutated the active fragment.
    Snapshot,
}

/// The mutable half of a compiled monitor, separated from the shared
/// [`CompiledProgram`] so the borrow of the program and the mutation of the
/// state can coexist.
#[derive(Debug, Clone)]
struct MonState {
    /// The cell arena: one packed `state | cpt << 32` word per cell (see
    /// [`cell_word`]), indexed like the action table's rows. One word per
    /// cell keeps a step's read-modify-write on a single cache line slot
    /// and the pre-event snapshot a plain word copy.
    cell: Vec<u64>,
    active: usize,
    /// Cell bounds and connective of the active fragment, cached so the
    /// per-event loop does not re-chase `frag_start`/`frag_op` (they only
    /// change on the rare handover/restart).
    active_lo: usize,
    active_hi: usize,
    active_op: FragmentOp,
    started: bool,
    verdict: Verdict,
    /// Boxed: violations are terminal and rare; keeping the report out of
    /// line keeps the monitor state small and cache-resident.
    violation: Option<Box<Violation>>,
    episodes: u64,
    /// Episodes discharged non-vacuously: in-budget `Q` completions for
    /// timed programs (antecedent programs read `episodes` instead).
    fired: u64,
    diagnostics: bool,
    ops: u64,
    /// Pre-event snapshot: the active fragment and its cell states before
    /// the event currently being processed (fixed length `max_frag_cells`,
    /// never reallocated after construction — only the leading
    /// `|cells(prev_active)|` entries are meaningful).
    prev_active: usize,
    prev: Vec<u64>,
    /// Time of the last event consumed in the current episode (timed only).
    last_consumed: Option<SimTime>,
    /// Frozen end of `P` once `Q` has begun (timed only).
    episode_start: Option<SimTime>,
    /// Earliest completion of `Q`, once reached (timed only).
    response_done_at: Option<SimTime>,
    /// Explain mode: the bounded ring of contributing steps behind the
    /// verdict. `None` (the default) keeps the hot path untouched; boxed
    /// so the detached case costs one pointer of state.
    recorder: Option<Box<FlightRecorder>>,
    /// Attributing mode: record full cell/transition attribution instead
    /// of the live raw `(time, event)` chain. Only set on the fresh clones
    /// [`CompiledMonitor::witness`] replays a chain through — live explain
    /// sessions keep it off so the hot path stays a single ring store.
    attribute: bool,
}

/// The flat-table monitor: a [`CompiledProgram`] plus its per-stream state.
///
/// Implements the same [`Monitor`] interface as the interpreter monitors
/// and is verdict-, diagnostic- and ops-identical to them (see the module
/// docs). [`Monitor::reset`] rewinds the state arena in place — the monitor
/// performs **no allocation** per event or per reset, which is what lets an
/// SMC campaign run millions of episodes through one instance.
///
/// # Example
///
/// ```
/// use lomon_core::compiled::compile_monitor;
/// use lomon_core::parse::parse_property;
/// use lomon_core::verdict::{run_to_end, Verdict};
/// use lomon_trace::{Trace, Vocabulary};
///
/// let mut voc = Vocabulary::new();
/// let prop = parse_property("all{a, b} << start once", &mut voc).unwrap();
/// let mut monitor = compile_monitor(prop, &voc).expect("well-formed");
///
/// let a = voc.lookup("a").unwrap();
/// let b = voc.lookup("b").unwrap();
/// let start = voc.lookup("start").unwrap();
/// let verdict = run_to_end(&mut monitor, &Trace::from_names([b, a, start]));
/// assert_eq!(verdict, Verdict::Satisfied);
/// ```
#[derive(Debug, Clone)]
pub struct CompiledMonitor {
    program: Arc<CompiledProgram>,
    st: MonState,
}

/// Validate `property` against `voc` and build its compiled monitor — the
/// flat-table counterpart of [`crate::monitor::build_monitor`].
///
/// # Errors
///
/// Returns the well-formedness violations if the property breaks any Fig. 3
/// side condition.
pub fn compile_monitor(
    property: Property,
    voc: &Vocabulary,
) -> Result<CompiledMonitor, Vec<WfError>> {
    let property = wf::validate(property, voc)?;
    Ok(CompiledMonitor::new(Arc::new(CompiledProgram::lower(
        &property,
    ))))
}

impl CompiledMonitor {
    /// Build and activate a monitor over a lowered program.
    pub fn new(program: Arc<CompiledProgram>) -> Self {
        let mut st = MonState {
            cell: vec![cell_word(S_IDLE, 0); program.cells.len()],
            active: 0,
            active_lo: 0,
            active_hi: 0,
            active_op: FragmentOp::All,
            started: false,
            verdict: Verdict::PresumablySatisfied,
            violation: None,
            episodes: 0,
            fired: 0,
            diagnostics: true,
            ops: 0,
            prev_active: 0,
            prev: vec![cell_word(S_IDLE, 0); program.max_frag_cells],
            last_consumed: None,
            episode_start: None,
            response_done_at: None,
            recorder: None,
            attribute: false,
        };
        st.start(&program);
        CompiledMonitor { program, st }
    }

    /// Disable the expected-set diagnostics: violation reports then carry
    /// an empty expected set, exactly as the interpreter monitors'
    /// `without_diagnostics`.
    pub fn without_diagnostics(mut self) -> Self {
        self.st.diagnostics = false;
        self
    }

    /// The shared program this monitor steps.
    pub fn program(&self) -> &Arc<CompiledProgram> {
        &self.program
    }

    /// Completed episodes so far (same counting as the interpreter's).
    pub fn episodes(&self) -> u64 {
        self.st.episodes
    }

    /// Episodes whose obligation was discharged non-vacuously — completed
    /// `P << i` episodes for antecedents, in-budget `Q` completions for
    /// timed implications. The compiled counterpart of
    /// `PropertyMonitor::satisfied_episodes`.
    pub fn satisfied_episodes(&self) -> u64 {
        match self.program.kind {
            ProgramKind::Antecedent { .. } => self.st.episodes,
            ProgramKind::Timed { .. } => self.st.fired,
        }
    }

    /// A finite abstraction of the monitor state for the bounded-model
    /// walks in [`crate::analysis`]: two monitors with equal keys (at equal
    /// `now`) produce the same verdict/satisfaction facts under every
    /// future unit-step input sequence. Covers the cell arena, the active
    /// fragment, the verdict, the satisfied-episode flag, and — for timed
    /// programs — the episode clocks as `now`-relative offsets saturated
    /// just past the deadline budget (beyond which only "expired" matters).
    pub(crate) fn analysis_key(&self, now: SimTime) -> Vec<u64> {
        let st = &self.st;
        let verdict = verdict_code(st.verdict);
        let satisfied = u64::from(self.satisfied_episodes() > 0);
        if st.verdict.is_final() {
            return vec![u64::MAX, verdict, satisfied];
        }
        let mut key = Vec::with_capacity(7 + 2 * st.cell.len());
        key.push(verdict);
        key.push(st.active as u64);
        key.push(u64::from(st.started));
        key.push(satisfied);
        for &word in &st.cell {
            key.push(u64::from(cell_state(word)));
            key.push(u64::from(cell_cpt(word)));
        }
        if let ProgramKind::Timed { bound, .. } = self.program.kind {
            let cap = bound.as_ps().saturating_add(1);
            let offset = |t: Option<SimTime>| match t {
                Some(t) => now.as_ps().saturating_sub(t.as_ps()).min(cap),
                None => u64::MAX,
            };
            key.push(offset(st.last_consumed));
            key.push(offset(st.episode_start));
            key.push(u64::from(st.response_done_at.is_some()));
        }
        key
    }

    /// Mark the action-table entries an event for any name in `branch`
    /// would read *effectively* from the current state: entries outside
    /// the active fragment are never consulted, and `(state, class)` pairs
    /// that provably self-loop without output — the no-op class, idle or
    /// errored cells, and the concurrent self-loops of `s2`/`s4` — are
    /// skipped. The dead-table walk in [`crate::analysis`] folds these
    /// marks over every reachable state; whatever stays unmarked is safe
    /// for [`CompiledProgram::pruned`] to neutralize.
    pub(crate) fn mark_live_actions(&self, branch: &[Name], live: &mut [bool]) {
        let st = &self.st;
        if st.verdict.is_final() || !st.started {
            return;
        }
        let p = &*self.program;
        for &name in branch {
            let Some(base) = p.row_base(name) else {
                continue;
            };
            for idx in st.active_lo..st.active_hi {
                let class = p.act_class[base + idx];
                let effective = !matches!(
                    (cell_state(st.cell[idx]), class),
                    (_, CLASS_NONE)
                        | (S_IDLE | S_ERROR, _)
                        | (S_WAITING_OTHER | S_DONE, CLASS_CONCURRENT)
                );
                if effective {
                    live[base + idx] = true;
                }
            }
        }
    }

    /// Like [`Monitor::observe`] for an event whose action-table row the
    /// caller has already resolved: `base` must be
    /// `self.program().action_row(event.name)`. Routed dispatch (the
    /// engine's inverted index) uses this to skip the per-monitor
    /// projection lookup the index has already performed — verdicts,
    /// diagnostics and `ops` are identical to [`Monitor::observe`].
    /// Forced inline so the untimed step lands inside the caller's batch
    /// loop (timed programs still dispatch out of line to `timed_at`).
    #[inline(always)]
    pub fn observe_routed(&mut self, event: TimedEvent, base: u32) -> Verdict {
        let Self { program, st } = self;
        debug_assert_eq!(program.row_base(event.name), Some(base as usize));
        if st.verdict.is_final() {
            return st.verdict;
        }
        match program.kind {
            ProgramKind::Antecedent { repeated } => {
                st.antecedent_at(program, repeated, event, base as usize)
            }
            ProgramKind::Timed { premise_len, bound } => {
                st.timed_at(program, premise_len as usize, bound, event, base as usize)
            }
        }
    }
}

impl Monitor for CompiledMonitor {
    #[inline]
    fn observe(&mut self, event: TimedEvent) -> Verdict {
        let Self { program, st } = self;
        match program.kind {
            ProgramKind::Antecedent { repeated } => st.observe_antecedent(program, repeated, event),
            ProgramKind::Timed { premise_len, bound } => {
                st.observe_timed(program, premise_len as usize, bound, event)
            }
        }
    }

    fn advance_time(&mut self, now: SimTime) -> Verdict {
        let Self { program, st } = self;
        match program.kind {
            // Untimed monitors ignore time, at zero cost (trait default).
            ProgramKind::Antecedent { .. } => st.verdict,
            ProgramKind::Timed { premise_len, bound } => {
                st.advance_time_timed(program, premise_len as usize, bound, now)
            }
        }
    }

    fn finish(&mut self, end_time: SimTime) -> Verdict {
        let Self { program, st } = self;
        match program.kind {
            // Pure safety: the verdict is whatever has been latched.
            ProgramKind::Antecedent { .. } => st.verdict,
            ProgramKind::Timed { premise_len, bound } => {
                if st.verdict.is_final() {
                    return st.verdict;
                }
                if let Some(deadline) = st.open_deadline(program, premise_len as usize, bound) {
                    if end_time > deadline {
                        st.miss_deadline(
                            program,
                            premise_len as usize,
                            bound,
                            ViolationKind::DeadlineExpiredAtEnd,
                            deadline,
                            None,
                            end_time,
                            ExpectedFrom::Current,
                        );
                    }
                }
                st.verdict
            }
        }
    }

    fn verdict(&self) -> Verdict {
        self.st.verdict
    }

    fn alphabet(&self) -> &NameSet {
        &self.program.alphabet
    }

    fn expected(&self) -> NameSet {
        match self.program.kind {
            ProgramKind::Antecedent { .. } if self.st.verdict == Verdict::Satisfied => {
                // Passive: everything in α is acceptable.
                self.program.alphabet.clone()
            }
            _ => self.st.ordering_expected(&self.program),
        }
    }

    fn violation(&self) -> Option<&Violation> {
        self.st.violation.as_deref()
    }

    fn deadline(&self) -> Option<SimTime> {
        match self.program.kind {
            ProgramKind::Antecedent { .. } => None,
            ProgramKind::Timed { premise_len, bound } => {
                if self.st.verdict.is_final() {
                    None
                } else {
                    self.st
                        .hard_deadline(&self.program, premise_len as usize, bound)
                }
            }
        }
    }

    fn reset(&mut self) {
        let Self { program, st } = self;
        st.restart(program);
        st.verdict = Verdict::PresumablySatisfied;
        st.violation = None;
        st.episodes = 0;
        st.fired = 0;
        st.last_consumed = None;
        st.episode_start = None;
        st.response_done_at = None;
        if let Some(rec) = st.recorder.as_deref_mut() {
            rec.clear();
        }
    }

    fn ops(&self) -> u64 {
        self.st.ops
    }

    fn state_bits(&self) -> u64 {
        self.program.state_bits
    }

    fn set_explain(&mut self, capacity: usize) {
        self.st.recorder = if capacity == 0 {
            None
        } else {
            Some(Box::new(FlightRecorder::new(capacity)))
        };
    }

    fn witness(&self) -> Option<Witness> {
        let raw = self.st.recorder.as_deref().map(FlightRecorder::snapshot)?;
        if self.st.attribute {
            return Some(raw);
        }
        Some(crate::witness::reattribute(self, raw, |m, capacity| {
            m.st.attribute = true;
            m.set_explain(capacity);
        }))
    }
}

/// One synchronous step of a cell on a name of class `class` — the Fig. 5
/// transition table over dense integers, with the interpreter's exact
/// `ops` accounting accumulated into the caller's register. `cell` is the
/// cell's packed `state | cpt << 32` word in the arena; `range` the
/// matching packed `min | max << 32` action-table bounds.
#[inline(always)]
fn step_cell(class: u8, range: u64, cell: &mut u64, op: FragmentOp, ops: &mut u64) -> RangeOutput {
    *ops += class_cost(class);
    if class == CLASS_NONE {
        return RangeOutput::Progress;
    }
    *ops += 1; // state dispatch
               // Failure leaves the counter bits untouched: only the state half flips
               // to `S_ERROR`, mirroring the interpreter's stale-counter behaviour.
    let fail = |cell: &mut u64, ops: &mut u64, kind: ViolationKind| {
        *ops += 1; // state write
        set_cell_state(cell, S_ERROR);
        RangeOutput::Err(kind)
    };
    match cell_state(*cell) {
        S_IDLE | S_ERROR => RangeOutput::Progress,
        S_WAITING => match class {
            CLASS_OWN => {
                *ops += 2; // counter init + state write
                *cell = cell_word(S_COUNTING, 1);
                RangeOutput::Progress
            }
            CLASS_CONCURRENT => {
                *ops += 1;
                set_cell_state(cell, S_WAITING_OTHER);
                RangeOutput::Progress
            }
            CLASS_ACCEPT => fail(cell, ops, ViolationKind::PrematureStop),
            CLASS_AFTER => fail(cell, ops, ViolationKind::AfterName),
            _ => fail(cell, ops, ViolationKind::BeforeName),
        },
        S_WAITING_OTHER => match class {
            CLASS_OWN => {
                *ops += 2;
                *cell = cell_word(S_COUNTING, 1);
                RangeOutput::Progress
            }
            CLASS_CONCURRENT => RangeOutput::Progress, // self-loop
            CLASS_ACCEPT => {
                *ops += 1; // semantics test
                match op {
                    FragmentOp::Any => {
                        *ops += 1;
                        set_cell_state(cell, S_IDLE);
                        RangeOutput::Nok
                    }
                    FragmentOp::All => fail(cell, ops, ViolationKind::MissingRange),
                }
            }
            CLASS_AFTER => fail(cell, ops, ViolationKind::AfterName),
            _ => fail(cell, ops, ViolationKind::BeforeName),
        },
        S_COUNTING => match class {
            CLASS_OWN => {
                *ops += 1; // counter compare
                if cell_cpt(*cell) < range_max(range) {
                    *ops += 1; // counter increment
                    *cell += CELL_CPT_ONE;
                    RangeOutput::Progress
                } else {
                    fail(cell, ops, ViolationKind::TooMany)
                }
            }
            CLASS_CONCURRENT => {
                *ops += 1; // counter compare
                if cell_cpt(*cell) >= range_min(range) {
                    *ops += 1;
                    set_cell_state(cell, S_DONE);
                    RangeOutput::Progress
                } else {
                    fail(cell, ops, ViolationKind::PrematureInterrupt)
                }
            }
            CLASS_ACCEPT => {
                *ops += 1; // counter compare
                if cell_cpt(*cell) >= range_min(range) {
                    *ops += 1; // state write
                    set_cell_state(cell, S_IDLE);
                    RangeOutput::Ok
                } else {
                    fail(cell, ops, ViolationKind::PrematureStop)
                }
            }
            CLASS_AFTER => fail(cell, ops, ViolationKind::AfterName),
            _ => fail(cell, ops, ViolationKind::BeforeName),
        },
        _ => match class {
            // `s4`: block complete, sibling active.
            CLASS_OWN => fail(cell, ops, ViolationKind::BlockSplit),
            CLASS_CONCURRENT => RangeOutput::Progress, // self-loop
            CLASS_ACCEPT => {
                *ops += 1; // state write
                set_cell_state(cell, S_IDLE);
                RangeOutput::Ok
            }
            CLASS_AFTER => fail(cell, ops, ViolationKind::AfterName),
            _ => fail(cell, ops, ViolationKind::BeforeName),
        },
    }
}

/// The window step over the already-sliced action row and cell words —
/// the inner loop of [`MonState::step_window`]. `DIAG` compiles the
/// pre-event snapshot stores in or out (the packed word is already in a
/// register, so the snapshot costs one fused store, not a second pass).
#[inline(always)]
fn step_cells_dyn<const DIAG: bool>(
    classes: &[u8],
    ranges: &[u64],
    cells: &mut [u64],
    prev: &mut [u64],
    op: FragmentOp,
    ops: &mut u64,
) -> (bool, Option<(ViolationKind, usize)>) {
    let mut completed = false;
    let mut error: Option<(ViolationKind, usize)> = None;
    let action = classes.iter().zip(ranges);
    if DIAG {
        for (idx, (((&class, &range), cell), prev_w)) in
            action.zip(cells).zip(prev.iter_mut()).enumerate()
        {
            *prev_w = *cell;
            match step_cell(class, range, cell, op, ops) {
                RangeOutput::Progress => {}
                RangeOutput::Ok | RangeOutput::Nok => completed = true,
                RangeOutput::Err(kind) => {
                    if error.is_none() {
                        error = Some((kind, idx));
                    }
                }
            }
        }
    } else {
        for (idx, ((&class, &range), cell)) in action.zip(cells).enumerate() {
            match step_cell(class, range, cell, op, ops) {
                RangeOutput::Progress => {}
                RangeOutput::Ok | RangeOutput::Nok => completed = true,
                RangeOutput::Err(kind) => {
                    if error.is_none() {
                        error = Some((kind, idx));
                    }
                }
            }
        }
    }
    (completed, error)
}

impl MonState {
    /// Make fragment `f` the active one, refreshing the cached bounds.
    #[inline]
    fn set_active(&mut self, p: &CompiledProgram, f: usize) {
        self.active = f;
        let (lo, hi) = p.frag_range(f);
        self.active_lo = lo;
        self.active_hi = hi;
        self.active_op = p.frag_op[f];
    }

    /// Activate: start the first fragment (no coinciding event).
    fn start(&mut self, p: &CompiledProgram) {
        debug_assert!(!self.started, "already started");
        self.set_active(p, 0);
        self.start_frag(p, 0);
        self.started = true;
    }

    /// Reset every cell and re-activate (the interpreter's `restart`).
    #[inline]
    fn restart(&mut self, p: &CompiledProgram) {
        self.cell.fill(cell_word(S_IDLE, 0));
        self.started = false;
        self.start(p);
    }

    /// Re-arm after a *completed* linear episode. Every cell is already
    /// back in `s0` — a fragment only completes once each of its cells
    /// returned there via `ok`/`nok` — so unlike [`MonState::restart`]
    /// (which may interrupt an episode mid-flight) nothing needs wiping;
    /// stale counters are invisible, `s3`/`s4` are entered with a fresh
    /// `cpt` and no other state reads it.
    #[inline]
    fn rearm(&mut self, p: &CompiledProgram) {
        debug_assert!(
            self.cell.iter().all(|&w| cell_state(w) == S_IDLE),
            "linear episode completed with a non-idle cell"
        );
        self.started = false;
        self.start(p);
    }

    /// `start` all cells of fragment `f`: `s0 → s1`, one state write each
    /// (the ops are batch-added: the sum is what parity requires).
    #[inline]
    fn start_frag(&mut self, p: &CompiledProgram, f: usize) {
        let (lo, hi) = p.frag_range(f);
        self.ops += (hi - lo) as u64; // one state write per cell
        for cell in &mut self.cell[lo..hi] {
            debug_assert_eq!(cell_state(*cell), S_IDLE, "start from non-idle state");
            set_cell_state(cell, S_WAITING);
        }
    }

    /// `start` fragment `f` coinciding with `name` (handover): the owning
    /// cell to `s3`, its siblings to `s2`.
    #[inline(always)]
    fn start_frag_with(&mut self, p: &CompiledProgram, f: usize, name: Name) {
        let (lo, hi) = p.frag_range(f);
        self.ops += 2 * (hi - lo) as u64; // classification + state write per cell
        for (spec, cell) in p.cells[lo..hi].iter().zip(&mut self.cell[lo..hi]) {
            debug_assert_eq!(cell_state(*cell), S_IDLE, "start from non-idle state");
            if spec.name == name {
                *cell = cell_word(S_COUNTING, 1);
            } else {
                set_cell_state(cell, S_WAITING_OTHER);
            }
        }
    }

    /// Step the active fragment on the event's action-table row and
    /// aggregate — the compiled form of the fragment + ordering step. This
    /// is the per-event hot loop: the pre-event diagnostic snapshot is one
    /// small `memcpy` into the fixed buffer, the zip over
    /// `(spec, class, cell)` runs without bounds checks, and the `ops`
    /// accounting accumulates in the caller's register.
    #[inline(always)]
    fn step_ordering(
        &mut self,
        p: &CompiledProgram,
        base: usize,
        event: TimedEvent,
        ops: &mut u64,
    ) -> OrderingStep {
        debug_assert!(self.started, "step before start");
        let name = event.name;
        let from = self.active;
        let (lo, hi) = (self.active_lo, self.active_hi);
        // Attributing diffs against the same pre-event snapshot the
        // diagnostics use, so attribute mode forces it on; live explain
        // mode records `(time, event)` only and needs no snapshot.
        //
        // Monomorphized: when neither is on, the snapshot arrays are
        // provably never read again, so the common path carries no `prev`
        // slices or stores at all — two fewer write streams per event.
        let (completed, error) = if self.diagnostics || self.attribute {
            self.prev_active = from;
            self.step_window::<true>(p, base, ops)
        } else {
            self.step_window::<false>(p, base, ops)
        };
        let step = if let Some((kind, range)) = error {
            OrderingStep::Error {
                kind,
                fragment: from,
                range,
            }
        } else if completed {
            let cyclic = matches!(p.kind, ProgramKind::Timed { .. });
            if !cyclic && from + 1 == p.n_frags() {
                self.started = false;
                OrderingStep::Complete
            } else {
                let to = (from + 1) % p.n_frags();
                self.start_frag_with(p, to, name);
                self.set_active(p, to);
                OrderingStep::Handover { from, to }
            }
        } else {
            OrderingStep::Progress
        };
        if self.recorder.is_some() {
            self.record_step(event, lo, hi);
        }
        step
    }

    /// Step every cell of the active window on the already-resolved
    /// action row — the inner loop of [`MonState::step_ordering`].
    /// Returns whether any range completed, and the first rejection.
    /// `DIAG` compiles the pre-event snapshot stores in or out; the
    /// snapshot is only ever read under diagnostics/attribute, so the
    /// `false` instantiation is observationally identical.
    #[inline(always)]
    fn step_window<const DIAG: bool>(
        &mut self,
        p: &CompiledProgram,
        base: usize,
        ops: &mut u64,
    ) -> (bool, Option<(ViolationKind, usize)>) {
        let (lo, hi) = (self.active_lo, self.active_hi);
        let op = self.active_op;
        let classes = &p.act_class[base + lo..base + hi];
        let ranges = &p.act_range[base + lo..base + hi];
        let cells = &mut self.cell[lo..hi];
        let prev = &mut self.prev[..hi - lo];
        step_cells_dyn::<DIAG>(classes, ranges, cells, prev, op, ops)
    }

    /// Record the step just taken. Live explain mode appends the bare
    /// `(time, event)` pair — one ring store, attribution comes later
    /// (see [`CompiledMonitor::witness`]). Kept out of line so the
    /// explain-off hot loop carries only the `recorder.is_some()` test.
    /// Touches no `ops` accounting.
    #[inline(never)]
    fn record_step(&mut self, event: TimedEvent, lo: usize, hi: usize) {
        if self.attribute {
            self.record_attributed(event, lo, hi);
        } else if let Some(rec) = self.recorder.as_deref_mut() {
            rec.record_event(event);
        }
    }

    /// Attribute-mode recording — only the fresh clones
    /// [`CompiledMonitor::witness`] replays a raw chain through run it,
    /// never a live session. Pushes the step's attribution: the first cell
    /// (arena order, within the fragment that was active at entry) whose
    /// `(state, counter)` pair differs from the pre-event snapshot — for a
    /// single-fragment cyclic handover that diff sees the restarted
    /// window, which is exactly what the interpreter's post-step diff
    /// observes — or the window's first cell with an identity transition
    /// when nothing moved.
    #[cold]
    fn record_attributed(&mut self, event: TimedEvent, lo: usize, hi: usize) {
        let (cell, from, to) = self.witness_rediff(lo, hi);
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.record(WitnessStep {
                time: event.time,
                event: event.name,
                cell,
                from,
                to,
            });
        }
    }

    /// The witness attribution of the step just taken: diff the pre-event
    /// snapshot against the *current* window states.
    fn witness_rediff(&self, lo: usize, hi: usize) -> (u32, u8, u8) {
        for k in 0..hi - lo {
            let (pre, post) = (self.prev[k], self.cell[lo + k]);
            if pre != post {
                return ((lo + k) as u32, cell_state(pre), cell_state(post));
            }
        }
        let state = cell_state(self.prev[0]);
        (lo as u32, state, state)
    }

    /// Whether fragment `f` (with the given cell states and counters)
    /// could terminate now — `FragmentRecognizer::can_complete` over the
    /// arena.
    fn can_complete_over(&self, p: &CompiledProgram, f: usize, cells: &[u64]) -> bool {
        let (lo, hi) = p.frag_range(f);
        let mut any_complete = false;
        for (spec, &word) in p.cells[lo..hi].iter().zip(cells) {
            let (state, cpt) = (cell_state(word), cell_cpt(word));
            match state {
                S_COUNTING if cpt >= spec.min => any_complete = true,
                S_DONE => any_complete = true,
                S_COUNTING | S_ERROR => return false,
                _ => {
                    // Never participated: fatal only under `∧`.
                    if p.frag_op[f] == FragmentOp::All {
                        return false;
                    }
                }
            }
        }
        any_complete
    }

    fn can_complete(&self, p: &CompiledProgram, f: usize) -> bool {
        let (lo, hi) = p.frag_range(f);
        self.can_complete_over(p, f, &self.cell[lo..hi])
    }

    /// Whether fragment `f` could still consume another event without
    /// erroring — `FragmentRecognizer::can_extend` over the arena.
    fn can_extend(&self, p: &CompiledProgram, f: usize) -> bool {
        let (lo, hi) = p.frag_range(f);
        p.cells[lo..hi]
            .iter()
            .zip(&self.cell[lo..hi])
            .any(|(spec, &word)| match cell_state(word) {
                S_WAITING | S_WAITING_OTHER => true,
                S_COUNTING => cell_cpt(word) < spec.max,
                _ => false,
            })
    }

    /// Names acceptable as the next event of fragment `f`, computed over
    /// explicit state/counter slices — `FragmentRecognizer::expected`.
    fn frag_expected(&self, p: &CompiledProgram, f: usize, cells: &[u64]) -> NameSet {
        let (lo, hi) = p.frag_range(f);
        let mut out = NameSet::new();
        for (spec, &word) in p.cells[lo..hi].iter().zip(cells) {
            let can_more = match cell_state(word) {
                S_WAITING | S_WAITING_OTHER => true,
                S_COUNTING => cell_cpt(word) < spec.max,
                _ => false,
            };
            if can_more {
                out.insert(spec.name);
            }
        }
        if self.can_complete_over(p, f, cells) {
            out.union_with(&p.frag_accept[f]);
        }
        out
    }

    /// The ordering-level expected set over the *current* states.
    fn ordering_expected(&self, p: &CompiledProgram) -> NameSet {
        if self.started {
            let (lo, hi) = p.frag_range(self.active);
            self.frag_expected(p, self.active, &self.cell[lo..hi])
        } else {
            NameSet::new()
        }
    }

    /// Witness hook for an in-alphabet event that found the deadline
    /// already expired *before* stepping any cell. Live explain mode
    /// records the bare `(time, event)` pair; attribute mode attributes it
    /// to the active fragment's first cell with an unchanged transition.
    fn record_stall(&mut self, event: TimedEvent) {
        if !self.attribute {
            if let Some(rec) = self.recorder.as_deref_mut() {
                rec.record_event(event);
            }
            return;
        }
        let cell = self.active_lo;
        let state = cell_state(self.cell[cell]);
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.record(WitnessStep {
                time: event.time,
                event: event.name,
                cell: cell as u32,
                from: state,
                to: state,
            });
        }
    }

    /// The expected set the interpreter would have snapshot *before* the
    /// current event, derived lazily from the pre-event snapshot.
    fn expected_before(&self, p: &CompiledProgram, from: ExpectedFrom) -> NameSet {
        if !self.diagnostics {
            return NameSet::new();
        }
        match from {
            ExpectedFrom::Current => self.ordering_expected(p),
            ExpectedFrom::Snapshot => self.frag_expected(p, self.prev_active, &self.prev),
        }
    }

    #[inline]
    fn observe_antecedent(
        &mut self,
        p: &CompiledProgram,
        repeated: bool,
        event: TimedEvent,
    ) -> Verdict {
        if self.verdict.is_final() {
            return self.verdict;
        }
        let Some(base) = p.row_base(event.name) else {
            self.ops += 1; // alphabet projection test
            return self.verdict;
        };
        self.antecedent_at(p, repeated, event, base)
    }

    /// [`MonState::observe_antecedent`] past the projection lookup; the
    /// caller guarantees the event is in the alphabet and `base` is its
    /// action-table row. The projection `ops` is still charged — the
    /// interpreter performs (and counts) that test unconditionally.
    ///
    /// Forced inline: this is the per-event body of routed dispatch, and
    /// as an out-of-line call it costs a full spill/reload of the batch
    /// loop's live state per event. The allocating violation arm lives in
    /// [`MonState::antecedent_violation`] so the inlined shell stays
    /// branch-light.
    #[inline(always)]
    fn antecedent_at(
        &mut self,
        p: &CompiledProgram,
        repeated: bool,
        event: TimedEvent,
        base: usize,
    ) -> Verdict {
        let mut ops = 1u64; // alphabet projection test
        let step = self.step_ordering(p, base, event, &mut ops);
        self.ops += ops;
        match step {
            OrderingStep::Progress | OrderingStep::Handover { .. } => {
                self.verdict = Verdict::PresumablySatisfied;
            }
            OrderingStep::Complete => {
                self.episodes += 1;
                self.ops += 1; // repeated-flag test
                if repeated {
                    self.rearm(p);
                    self.verdict = Verdict::PresumablySatisfied;
                } else {
                    self.verdict = Verdict::Satisfied;
                }
            }
            OrderingStep::Error {
                kind,
                fragment,
                range,
            } => self.antecedent_violation(p, event, kind, fragment, range),
        }
        self.verdict
    }

    /// Latch the violation for a rejected antecedent step. Kept out of
    /// line (and cold) so [`MonState::antecedent_at`]'s inlined shell
    /// carries no allocation or formatting code: this arm runs at most
    /// once per monitor lifetime.
    #[cold]
    #[inline(never)]
    fn antecedent_violation(
        &mut self,
        p: &CompiledProgram,
        event: TimedEvent,
        kind: ViolationKind,
        fragment: usize,
        range: usize,
    ) {
        self.verdict = Verdict::Violated;
        self.violation = Some(Box::new(Violation {
            kind,
            event: Some(event),
            time: event.time,
            expected: self.expected_before(p, ExpectedFrom::Snapshot),
            detail: format!(
                "antecedent episode {}: fragment {}/{}, range {} rejected",
                self.episodes + 1,
                fragment + 1,
                p.n_frags(),
                range + 1,
            ),
            obligation: None,
        }));
    }

    /// The latest possible end of the current `P` observation, if `P` is
    /// currently complete.
    fn premise_end(&self, p: &CompiledProgram, premise_len: usize) -> Option<SimTime> {
        if let Some(frozen) = self.episode_start {
            return Some(frozen);
        }
        if self.active + 1 == premise_len && self.can_complete(p, self.active) {
            self.last_consumed
        } else {
            None
        }
    }

    /// The obligation's deadline, movable or not.
    fn open_deadline(
        &self,
        p: &CompiledProgram,
        premise_len: usize,
        bound: SimTime,
    ) -> Option<SimTime> {
        if self.response_done_at.is_some() {
            return None;
        }
        self.premise_end(p, premise_len)?.checked_add(bound)
    }

    /// The deadline, only once it can no longer move.
    fn hard_deadline(
        &self,
        p: &CompiledProgram,
        premise_len: usize,
        bound: SimTime,
    ) -> Option<SimTime> {
        if self.response_done_at.is_some() {
            return None;
        }
        if let Some(frozen) = self.episode_start {
            return frozen.checked_add(bound);
        }
        if self.active + 1 == premise_len
            && self.can_complete(p, self.active)
            && !self.can_extend(p, self.active)
        {
            return self.last_consumed?.checked_add(bound);
        }
        None
    }

    /// The deadline cell whose obligation was still open when the budget
    /// expired: once inside `Q`, the first cell (arena order) of the
    /// active fragment that has not reached its range minimum; when the
    /// active fragment is already completable, the next fragment's first
    /// cell (the chain still has to hand over); when `P` was complete but
    /// `Q` had not begun, the first cell of `Q`'s first fragment. The
    /// interpreter applies the same selection over its recognizer tree.
    fn pick_obligation(&self, p: &CompiledProgram, premise_len: usize) -> Obligation {
        let spec_at = |i: usize| {
            let s = p.cells[i];
            Obligation {
                name: s.name,
                min: s.min,
                max: s.max,
            }
        };
        if self.active >= premise_len {
            let (lo, hi) = p.frag_range(self.active);
            if !self.can_complete(p, self.active) {
                for i in 0..hi - lo {
                    let word = self.cell[lo + i];
                    let (state, cpt) = (cell_state(word), cell_cpt(word));
                    let spec = p.cells[lo + i];
                    let satisfied = state == S_DONE || (state == S_COUNTING && cpt >= spec.min);
                    if !satisfied {
                        return spec_at(lo + i);
                    }
                }
            } else if self.active + 1 < p.n_frags() {
                return spec_at(p.frag_range(self.active + 1).0);
            }
            spec_at(lo)
        } else {
            spec_at(p.frag_range(premise_len).0)
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn miss_deadline(
        &mut self,
        p: &CompiledProgram,
        premise_len: usize,
        bound: SimTime,
        kind: ViolationKind,
        deadline: SimTime,
        event: Option<TimedEvent>,
        now: SimTime,
        from: ExpectedFrom,
    ) {
        self.verdict = Verdict::Violated;
        self.violation = Some(Box::new(Violation {
            kind,
            event,
            time: now,
            expected: self.expected_before(p, from),
            detail: format!(
                "episode {}: Q unfinished at {now}, deadline was {deadline} \
                 (P ended {}, budget {})",
                self.episodes + 1,
                deadline.saturating_sub(bound),
                bound,
            ),
            obligation: Some(self.pick_obligation(p, premise_len)),
        }));
    }

    #[inline]
    fn observe_timed(
        &mut self,
        p: &CompiledProgram,
        premise_len: usize,
        bound: SimTime,
        event: TimedEvent,
    ) -> Verdict {
        if self.verdict.is_final() {
            return self.verdict;
        }
        let Some(base) = p.row_base(event.name) else {
            self.ops += 1; // alphabet projection test
                           // Even an unrelated event advances the clock.
            return self.advance_time_timed(p, premise_len, bound, event.time);
        };
        self.timed_at(p, premise_len, bound, event, base)
    }

    /// [`MonState::observe_timed`] past the projection lookup (see
    /// [`MonState::antecedent_at`] for the contract). Deliberately out of
    /// line: the timed step carries deadline bookkeeping the untimed hot
    /// loop should not pay icache for now that `observe_routed` inlines.
    #[inline(never)]
    fn timed_at(
        &mut self,
        p: &CompiledProgram,
        premise_len: usize,
        bound: SimTime,
        event: TimedEvent,
        base: usize,
    ) -> Verdict {
        self.ops += 1; // alphabet projection test
        self.ops += 1; // deadline compare
        if let Some(deadline) = self.hard_deadline(p, premise_len, bound) {
            if event.time > deadline {
                self.record_stall(event);
                self.miss_deadline(
                    p,
                    premise_len,
                    bound,
                    ViolationKind::DeadlineMiss,
                    deadline,
                    Some(event),
                    event.time,
                    ExpectedFrom::Current,
                );
                return self.verdict;
            }
        }
        let mut ops = 0u64;
        let step = self.step_ordering(p, base, event, &mut ops);
        self.ops += ops;
        match step {
            OrderingStep::Progress => {
                self.last_consumed = Some(event.time);
            }
            OrderingStep::Handover { to, .. } => {
                self.ops += 2; // boundary compares
                if to == premise_len {
                    // Q begins on this event: freeze the end of P.
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
                self.violation = Some(Box::new(Violation {
                    kind,
                    event: Some(event),
                    time: event.time,
                    expected: self.expected_before(p, ExpectedFrom::Snapshot),
                    detail: format!(
                        "timed-implication episode {}: fragment {}/{} ({}), range {} rejected",
                        self.episodes + 1,
                        fragment + 1,
                        p.n_frags(),
                        if fragment < premise_len {
                            "in P"
                        } else {
                            "in Q"
                        },
                        range + 1,
                    ),
                    obligation: None,
                }));
                return self.verdict;
            }
        }
        // Earliest completion of Q ends the episode's obligation.
        self.ops += 2; // index compare + completion test
        let last = p.n_frags() - 1;
        if self.active == last
            && self.episode_start.is_some()
            && self.response_done_at.is_none()
            && self.can_complete(p, self.active)
        {
            self.response_done_at = Some(event.time);
            let start = self.episode_start.expect("episode started");
            self.ops += 1; // budget compare
            if event.time.saturating_sub(start) > bound {
                let deadline = start.checked_add(bound).unwrap_or(SimTime::MAX);
                self.miss_deadline(
                    p,
                    premise_len,
                    bound,
                    ViolationKind::DeadlineMiss,
                    deadline,
                    Some(event),
                    event.time,
                    ExpectedFrom::Snapshot,
                );
                return self.verdict;
            }
            self.fired += 1;
        }
        self.verdict = if self.open_deadline(p, premise_len, bound).is_some() {
            Verdict::Pending
        } else {
            Verdict::PresumablySatisfied
        };
        self.verdict
    }

    fn advance_time_timed(
        &mut self,
        p: &CompiledProgram,
        premise_len: usize,
        bound: SimTime,
        now: SimTime,
    ) -> Verdict {
        if self.verdict.is_final() {
            return self.verdict;
        }
        self.ops += 1; // deadline compare
        if let Some(deadline) = self.hard_deadline(p, premise_len, bound) {
            if now > deadline {
                self.miss_deadline(
                    p,
                    premise_len,
                    bound,
                    ViolationKind::DeadlineMiss,
                    deadline,
                    None,
                    now,
                    ExpectedFrom::Current,
                );
            }
        }
        self.verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{build_monitor, PropertyMonitor};
    use crate::parse::parse_property;
    use lomon_trace::Trace;

    /// Build both backends for `text`, interning `extra` names first so the
    /// traces can carry out-of-alphabet events.
    fn both(text: &str, extra: &[&str]) -> (Vocabulary, PropertyMonitor, CompiledMonitor) {
        let mut voc = Vocabulary::new();
        for name in extra {
            voc.input(name);
        }
        let property = parse_property(text, &mut voc).expect("parses");
        let interp = build_monitor(property.clone(), &voc).expect("well-formed");
        let compiled = compile_monitor(property, &voc).expect("well-formed");
        (voc, interp, compiled)
    }

    fn ev(voc: &Vocabulary, name: &str, ns: u64) -> TimedEvent {
        TimedEvent::new(voc.lookup(name).expect("interned"), SimTime::from_ns(ns))
    }

    fn members(set: &NameSet) -> Vec<Name> {
        set.iter().collect()
    }

    /// Feed both backends the same events in lockstep and compare verdict,
    /// ops, deadline and expected set after every step, then at finish the
    /// full violation diagnostics.
    fn lockstep(text: &str, extra: &[&str], events: &[(&str, u64)], end_ns: u64) {
        let (voc, mut interp, mut compiled) = both(text, extra);
        assert_eq!(interp.state_bits(), compiled.state_bits(), "{text}");
        assert_eq!(interp.ops(), compiled.ops(), "{text}: ops at construction");
        for &(name, ns) in events {
            let event = ev(&voc, name, ns);
            let vi = interp.observe(event);
            let vc = compiled.observe(event);
            assert_eq!(vi, vc, "{text}: verdict after `{name}` at {ns}ns");
            assert_eq!(
                interp.ops(),
                compiled.ops(),
                "{text}: ops after `{name}` at {ns}ns"
            );
            assert_eq!(
                interp.deadline(),
                compiled.deadline(),
                "{text}: deadline after `{name}` at {ns}ns"
            );
            assert_eq!(
                members(&interp.expected()),
                members(&compiled.expected()),
                "{text}: expected after `{name}` at {ns}ns"
            );
        }
        let end = SimTime::from_ns(end_ns);
        assert_eq!(interp.finish(end), compiled.finish(end), "{text}: finish");
        assert_eq!(interp.ops(), compiled.ops(), "{text}: ops at finish");
        match (interp.violation(), compiled.violation()) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.kind, b.kind, "{text}");
                assert_eq!(a.event, b.event, "{text}");
                assert_eq!(a.time, b.time, "{text}");
                assert_eq!(a.detail, b.detail, "{text}");
                assert_eq!(members(&a.expected), members(&b.expected), "{text}");
            }
            (a, b) => panic!("{text}: one backend violated: interp {a:?} vs compiled {b:?}"),
        }
    }

    #[test]
    fn antecedent_satisfied_matches() {
        lockstep(
            "all{set_imgAddr, set_glAddr, set_glSize} << start once",
            &["noise"],
            &[
                ("set_glAddr", 10),
                ("noise", 15),
                ("set_imgAddr", 20),
                ("set_glSize", 30),
                ("start", 40),
                ("start", 50), // passive after the one-shot episode
            ],
            100,
        );
    }

    #[test]
    fn antecedent_violations_match() {
        // Premature stop: the trigger arrives first.
        lockstep("all{a, b} << start once", &[], &[("start", 10)], 20);
        // TooMany: the [1,1] range re-occurs.
        lockstep("all{a, b} << start once", &[], &[("a", 10), ("a", 20)], 30);
        // MissingRange via the ∧-fragment.
        lockstep("all{a, b} < c << i once", &[], &[("a", 10), ("c", 20)], 30);
    }

    #[test]
    fn repeated_episodes_match() {
        lockstep(
            "n[2,3] << i repeated",
            &[],
            &[
                ("n", 10),
                ("n", 20),
                ("i", 30),
                ("n", 40),
                ("n", 50),
                ("n", 60),
                ("i", 70),
                // Third episode violates: only one n before i.
                ("n", 80),
                ("i", 90),
            ],
            100,
        );
    }

    #[test]
    fn any_fragment_and_handover_match() {
        lockstep(
            "all{a, b} < any{c[2,8], d} < e << i once",
            &["noise"],
            &[
                ("b", 10),
                ("a", 20),
                ("d", 30), // handover into the ∨ fragment via d
                ("c", 40),
                ("c", 50),
                ("noise", 55),
                ("e", 60), // c-block + d both fine under ∨
                ("i", 70),
            ],
            100,
        );
        // The nok path: c never participates.
        lockstep(
            "all{a} < any{c[2,8], d} << i once",
            &[],
            &[("a", 10), ("d", 20), ("i", 30)],
            40,
        );
    }

    #[test]
    fn timed_nominal_and_miss_match() {
        let text = "start => out:read[2,4] < out:irq within 100 ns";
        lockstep(
            text,
            &["noise"],
            &[
                ("start", 10),
                ("read", 20),
                ("noise", 25),
                ("read", 30),
                ("irq", 50),
            ],
            200,
        );
        // Deadline miss revealed by the response completing too late.
        lockstep(
            text,
            &[],
            &[("start", 10), ("read", 20), ("read", 30), ("irq", 200)],
            300,
        );
        // Deadline miss revealed by an out-of-alphabet event's timestamp.
        lockstep(text, &["noise"], &[("start", 10), ("noise", 300)], 400);
        // Deadline expired at end of observation.
        lockstep(text, &[], &[("start", 10), ("read", 20)], 500);
        // Pending at end of observation (within budget).
        lockstep(text, &[], &[("start", 10), ("read", 20)], 90);
        // Step errors inside the cyclic chain.
        lockstep(text, &[], &[("read", 10)], 20);
        lockstep(text, &[], &[("start", 10), ("read", 20), ("irq", 30)], 40);
    }

    #[test]
    fn timed_repeated_episodes_match() {
        let text = "start => out:irq within 100 ns";
        lockstep(
            text,
            &[],
            &[
                ("start", 10),
                ("irq", 50),
                ("start", 1000),
                ("irq", 1090),
                ("start", 2000),
                ("irq", 2500), // second budget blown
            ],
            3000,
        );
    }

    #[test]
    fn advance_time_matches() {
        let (voc, mut interp, mut compiled) = both("start => out:irq within 100 ns", &[]);
        let event = ev(&voc, "start", 10);
        interp.observe(event);
        compiled.observe(event);
        for ns in [50, 100, 110, 111, 200] {
            let t = SimTime::from_ns(ns);
            assert_eq!(interp.advance_time(t), compiled.advance_time(t), "{ns}");
            assert_eq!(interp.ops(), compiled.ops(), "{ns}");
        }
        let (a, b) = (interp.violation().unwrap(), compiled.violation().unwrap());
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.detail, b.detail);
        assert_eq!(members(&a.expected), members(&b.expected));
    }

    #[test]
    fn reset_matches_and_reuses() {
        let (voc, mut interp, mut compiled) = both("all{a, b} << start repeated", &[]);
        for &(name, ns) in &[("a", 10), ("start", 20)] {
            interp.observe(ev(&voc, name, ns));
            compiled.observe(ev(&voc, name, ns));
        }
        assert_eq!(interp.verdict(), Verdict::Violated);
        assert_eq!(compiled.verdict(), Verdict::Violated);
        interp.reset();
        compiled.reset();
        assert_eq!(interp.ops(), compiled.ops(), "ops after reset");
        assert_eq!(compiled.verdict(), Verdict::PresumablySatisfied);
        assert!(compiled.violation().is_none());
        for &(name, ns) in &[("b", 10), ("a", 20), ("start", 30)] {
            let vi = interp.observe(ev(&voc, name, ns));
            let vc = compiled.observe(ev(&voc, name, ns));
            assert_eq!(vi, vc);
        }
        assert_eq!(compiled.episodes(), 1);
    }

    #[test]
    fn without_diagnostics_reports_empty_expected() {
        let (voc, _interp, compiled) = both("all{a, b} << start once", &[]);
        let mut compiled = compiled.without_diagnostics();
        compiled.observe(ev(&voc, "start", 10));
        assert_eq!(compiled.verdict(), Verdict::Violated);
        assert!(compiled.violation().unwrap().expected.is_empty());
    }

    #[test]
    fn run_to_end_agrees_via_trait() {
        let (voc, mut interp, mut compiled) = both("any{a[2,8], b} << i once", &[]);
        let names: Vec<Name> = ["a", "a", "a", "i"]
            .iter()
            .map(|n| voc.lookup(n).unwrap())
            .collect();
        let trace = Trace::from_names(names);
        let vi = crate::verdict::run_to_end(&mut interp, &trace);
        let vc = crate::verdict::run_to_end(&mut compiled, &trace);
        assert_eq!(vi, vc);
        assert_eq!(vi, Verdict::Satisfied);
    }

    #[test]
    fn program_shape_is_flat() {
        let mut voc = Vocabulary::new();
        let property =
            parse_property("all{a, b} < any{c[2,8], d} < e << i once", &mut voc).unwrap();
        let property = wf::validate(property, &voc).unwrap();
        let program = CompiledProgram::lower(&property);
        assert_eq!(program.fragment_count(), 3);
        assert_eq!(program.cell_count(), 5);
        // 6 alphabet names (a, b, c, d, e, i) × 5 cells.
        assert_eq!(program.act_class.len(), 6 * 5);
        assert_eq!(program.act_range.len(), 6 * 5);
        assert_eq!(program.alphabet().len(), 6);
        // Every in-alphabet (name, cell) pair is classified: with the
        // linear context layout no entry is CLASS_NONE.
        assert!(program.act_class.iter().all(|&c| c != CLASS_NONE));
    }

    #[test]
    fn compile_monitor_rejects_ill_formed() {
        let mut voc = Vocabulary::new();
        let a = voc.input("a");
        let prop: Property = crate::ast::Antecedent::new(
            crate::ast::LooseOrdering::new(vec![crate::ast::Fragment::singleton(
                crate::ast::Range::once(a),
            )]),
            a, // trigger inside P
            true,
        )
        .into();
        assert!(compile_monitor(prop, &voc).is_err());
    }
}
