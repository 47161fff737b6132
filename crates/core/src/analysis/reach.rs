//! Bounded-model walkers over compiled programs.
//!
//! All three semantic lint analyses (vacuity, subsumption, conflict) reduce
//! to reachability questions over the *finite* state space of a
//! [`CompiledMonitor`]: the cell automata have six states, counters
//! saturate at the range bounds, and the episode clocks of timed programs
//! only matter up to the deadline budget. The walkers below explore that
//! space breadth-first under a **unit-step time model** — event `k` of a
//! trace happens at `k` nanoseconds — plus a *gap* branch that advances
//! time by one step without an event (needed to witness facts that require
//! a deadline to expire before the trace continues). States are
//! deduplicated through [`CompiledMonitor::analysis_key_into`], which is
//! exact for this model: two monitors with equal keys at equal `now` are
//! indistinguishable under every future unit-step input, so
//! shallowest-first visiting loses no facts.
//!
//! Every rulebook start pays for the vacuity and pair walks, so they are
//! kept cheap: walk monitors latch a violated verdict without building its
//! report, each successor and finish probe is stepped in a reused scratch
//! monitor, keys are built in one reused buffer and hashed a word at a
//! time, and only a state not seen before is cloned and its key stored.
//!
//! The dead-table walk is different: it runs the whole exploration at a
//! *constant* time 0, where no deadline can ever fire. Every cell
//! configuration reachable by **any** real-time trace over the branch
//! names is reachable at time 0 too (cell transitions are
//! time-independent, and deadline misses only ever stop a run early), so
//! the fixpoint over-approximates reachability and the unmarked entries
//! are genuinely dead.

use std::collections::{HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use lomon_trace::{Name, NameSet, SimTime, TimedEvent};

use crate::compiled::{CompiledMonitor, CompiledProgram};
use crate::verdict::{Monitor, Verdict};

/// A walk's root: the program's initial state, in verdict-only mode.
fn walk_root(program: &Arc<CompiledProgram>) -> CompiledMonitor {
    CompiledMonitor::new(Arc::clone(program)).verdict_only()
}

/// `(ok, success)` of a monitor if observation ended now: un-violated, and
/// un-violated with at least one non-vacuously satisfied episode. `probe`
/// is a scratch monitor of the same program, overwritten.
fn finish_facts(mon: &CompiledMonitor, probe: &mut CompiledMonitor, now: SimTime) -> (bool, bool) {
    probe.copy_from(mon);
    let ok = probe.finish(now) != Verdict::Violated;
    (ok, ok && mon.satisfied_episodes() > 0)
}

/// Multiplicative word-at-a-time hashing (FxHash's scheme) for the
/// visited sets. Their keys are short runs of small words; SipHash cost a
/// large share of every walk on them.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        for &byte in words.remainder() {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        // The table indexes by the low bits: bring the well-mixed high
        // bits of the last product down.
        self.0.rotate_left(26)
    }
}

/// The states a walk has reached, by [`CompiledMonitor::analysis_key_into`]
/// key. Keys are built in one reused buffer; only a new one is copied in.
#[derive(Default)]
struct Visited(HashSet<Box<[u64]>, BuildHasherDefault<WordHasher>>);

impl Visited {
    /// Record `key`; whether it was new.
    fn insert(&mut self, key: &[u64]) -> bool {
        !self.0.contains(key) && self.0.insert(key.into())
    }

    fn len(&self) -> usize {
        self.0.len()
    }
}

/// Whether some trace of at most `horizon` unit-step events lets the
/// property finish un-violated with a non-vacuously satisfied episode.
///
/// `Some(false)` is a *vacuity* verdict: within the bounded model the
/// property can never fire. Returns `None` if the walk would exceed
/// `budget` distinct states.
pub fn satisfiable(program: &Arc<CompiledProgram>, horizon: usize, budget: usize) -> Option<bool> {
    let branch: Vec<Name> = program.alphabet().iter().collect();
    let root = walk_root(program);
    let mut scratch = root.clone();
    let mut key = Vec::new();
    let mut visited = Visited::default();
    root.analysis_key_into(SimTime::from_ns(0), &mut key);
    visited.insert(&key);
    let mut queue = VecDeque::new();
    queue.push_back((root, 0usize));
    while let Some((mon, depth)) = queue.pop_front() {
        let now = SimTime::from_ns(depth as u64);
        let (_, succ) = finish_facts(&mon, &mut scratch, now);
        if succ {
            return Some(true);
        }
        if depth == horizon || mon.verdict().is_final() {
            continue;
        }
        if visited.len() > budget {
            return None;
        }
        let next = SimTime::from_ns(depth as u64 + 1);
        for choice in std::iter::once(None).chain(branch.iter().copied().map(Some)) {
            scratch.copy_from(&mon);
            match choice {
                Some(name) => {
                    scratch.observe(TimedEvent::new(name, next));
                }
                None => {
                    scratch.advance_time(next);
                }
            }
            key.clear();
            scratch.analysis_key_into(next, &mut key);
            if visited.insert(&key) {
                queue.push_back((scratch.clone(), depth + 1));
            }
        }
    }
    Some(false)
}

/// Joint bounded-model facts about an ordered pair of programs `(i, j)`,
/// collected in one product walk over the union alphabet (plus the gap
/// branch). Every field is an *existence* fact over traces of at most the
/// walk's horizon.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairFacts {
    /// Some trace finishes with `i` un-violated but `j` violated.
    pub ok_i_not_j: bool,
    /// Some trace finishes with `j` un-violated but `i` violated.
    pub ok_j_not_i: bool,
    /// Some trace satisfies `i` non-vacuously while `j` stays un-violated.
    pub succ_i_ok_j: bool,
    /// Some trace satisfies `j` non-vacuously while `i` stays un-violated.
    pub succ_j_ok_i: bool,
    /// `i` is non-vacuously satisfiable at all (ignoring `j`'s verdict).
    pub succ_i: bool,
    /// `j` is non-vacuously satisfiable at all (ignoring `i`'s verdict).
    pub succ_j: bool,
}

impl PairFacts {
    fn all_set(&self) -> bool {
        self.ok_i_not_j
            && self.ok_j_not_i
            && self.succ_i_ok_j
            && self.succ_j_ok_i
            && self.succ_i
            && self.succ_j
    }

    /// Whether `j` is subsumed by `i`: every violation `j` can raise, `i`
    /// raises too (equivalently, every trace admitted by `i` is admitted
    /// by `j`), within the bounded model.
    pub fn subsumes_j(&self) -> bool {
        !self.ok_i_not_j
    }

    /// Whether `i` is subsumed by `j` (the mirror of
    /// [`PairFacts::subsumes_j`]).
    pub fn subsumes_i(&self) -> bool {
        !self.ok_j_not_i
    }

    /// Whether the pair conflicts: both are individually satisfiable, but
    /// no bounded trace satisfies either one non-vacuously while keeping
    /// the other un-violated.
    pub fn conflicting(&self) -> bool {
        self.succ_i && self.succ_j && !self.succ_i_ok_j && !self.succ_j_ok_i
    }
}

/// Walk the product of two programs to `horizon` unit steps and collect
/// [`PairFacts`]. Returns `None` if the walk would exceed `budget`
/// distinct product states.
pub fn pair_facts(
    a: &Arc<CompiledProgram>,
    b: &Arc<CompiledProgram>,
    horizon: usize,
    budget: usize,
) -> Option<PairFacts> {
    let mut alpha = a.alphabet().clone();
    alpha.union_with(b.alphabet());
    let branch: Vec<Name> = alpha.iter().collect();
    let roots = (walk_root(a), walk_root(b));
    let (mut sa, mut sb) = roots.clone();
    let product_key = |ma: &CompiledMonitor, mb: &CompiledMonitor, now, key: &mut Vec<u64>| {
        key.clear();
        ma.analysis_key_into(now, key);
        let split = key.len() as u64;
        key.push(split);
        mb.analysis_key_into(now, key);
    };
    let mut facts = PairFacts::default();
    let mut key = Vec::new();
    let mut visited = Visited::default();
    product_key(&roots.0, &roots.1, SimTime::from_ns(0), &mut key);
    visited.insert(&key);
    let mut queue = VecDeque::new();
    queue.push_back((roots, 0usize));
    while let Some(((ma, mb), depth)) = queue.pop_front() {
        let now = SimTime::from_ns(depth as u64);
        let (ok_i, succ_i) = finish_facts(&ma, &mut sa, now);
        let (ok_j, succ_j) = finish_facts(&mb, &mut sb, now);
        facts.ok_i_not_j |= ok_i && !ok_j;
        facts.ok_j_not_i |= ok_j && !ok_i;
        facts.succ_i_ok_j |= succ_i && ok_j;
        facts.succ_j_ok_i |= succ_j && ok_i;
        facts.succ_i |= succ_i;
        facts.succ_j |= succ_j;
        if facts.all_set() {
            return Some(facts);
        }
        // Once both monitors are final, every extension repeats the same
        // finish facts — the frontier adds nothing.
        if depth == horizon || (ma.verdict().is_final() && mb.verdict().is_final()) {
            continue;
        }
        if visited.len() > budget {
            return None;
        }
        let next = SimTime::from_ns(depth as u64 + 1);
        for choice in std::iter::once(None).chain(branch.iter().copied().map(Some)) {
            sa.copy_from(&ma);
            sb.copy_from(&mb);
            match choice {
                Some(name) => {
                    sa.observe(TimedEvent::new(name, next));
                    sb.observe(TimedEvent::new(name, next));
                }
                None => {
                    sa.advance_time(next);
                    sb.advance_time(next);
                }
            }
            product_key(&sa, &sb, next, &mut key);
            if visited.insert(&key) {
                queue.push_back(((sa.clone(), sb.clone()), depth + 1));
            }
        }
    }
    Some(facts)
}

/// Compute the liveness mask of a program's action table under a branch
/// set restricted to `corpus` (or the full alphabet when `None`): entry
/// `e` is live iff some state reachable via corpus-name events reads `e`
/// effectively (see [`CompiledMonitor::mark_live_actions`]). The walk is
/// a fixpoint at constant time 0 — a sound over-approximation of
/// real-time reachability, see the module docs. Returns `None` if it
/// would exceed `budget` distinct states.
pub(crate) fn live_mask(
    program: &Arc<CompiledProgram>,
    corpus: Option<&NameSet>,
    budget: usize,
) -> Option<Vec<bool>> {
    let branch: Vec<Name> = program
        .alphabet()
        .iter()
        .filter(|&n| corpus.is_none_or(|c| c.contains(n)))
        .filter(|&n| program.action_row(n).is_some())
        .collect();
    let mut live = vec![false; program.action_count()];
    let t0 = SimTime::from_ns(0);
    let root = walk_root(program);
    let mut scratch = root.clone();
    let mut key = Vec::new();
    let mut visited = Visited::default();
    root.analysis_key_into(t0, &mut key);
    visited.insert(&key);
    let mut queue = VecDeque::new();
    queue.push_back(root);
    while let Some(mon) = queue.pop_front() {
        mon.mark_live_actions(&branch, &mut live);
        if mon.verdict().is_final() {
            continue;
        }
        if visited.len() > budget {
            return None;
        }
        for &name in &branch {
            scratch.copy_from(&mon);
            scratch.observe(TimedEvent::new(name, t0));
            key.clear();
            scratch.analysis_key_into(t0, &mut key);
            if visited.insert(&key) {
                queue.push_back(scratch.clone());
            }
        }
    }
    Some(live)
}
