//! Reference semantics: patterns as finite automata.
//!
//! The monitors in [`crate::recognizer`]/[`crate::compose`] are efficient
//! but intricate; this module gives loose-ordering patterns an *independent*
//! denotational semantics — a plain nondeterministic finite automaton built
//! compositionally from Definitions 1–5 — used as the ground-truth oracle in
//! unit and property tests (playing the role SPOT and the Lustre testing
//! tools play in the paper).
//!
//! The reference languages (over the projected alphabet `α`):
//!
//! * range `n[u,v]` — `{ nᵏ | u ≤ k ≤ v }`;
//! * fragment `({R1..Rk}, ∧)` — all permutations of all blocks, concatenated;
//! * fragment `({R1..Rk}, ∨)` — all permutations of every non-empty subset;
//! * loose-ordering `F1 < … < Fq` — the concatenation in order;
//! * antecedent `(P << i, true)` — prefixes of `(L(P)·i)*`;
//! * antecedent `(P << i, false)` — prefixes of `L(P)·i·α*`;
//! * timed implication (untimed projection) — prefixes of `(L(P)·L(Q))*`.
//!
//! Permutation-based fragment construction is exponential in the number of
//! ranges per fragment; that is fine for an oracle (tests use ≤ 5 ranges)
//! and is precisely the blow-up the paper's direct monitors avoid.

use lomon_trace::{Name, NameSet, Trace};

use crate::ast::{Antecedent, Fragment, FragmentOp, LooseOrdering, Property, Range};

/// A nondeterministic finite automaton with ε-transitions over [`Name`]s.
///
/// All states are co-accessible by construction (every constructor keeps a
/// path from every state to an accepting state), so *prefix membership*
/// is simply "the live set is non-empty".
#[derive(Debug, Clone)]
pub struct Nfa {
    /// `transitions[s]` = list of `(label, target)`; `None` = ε.
    transitions: Vec<Vec<(Option<Name>, usize)>>,
    start: Vec<usize>,
    accepting: Vec<bool>,
}

impl Nfa {
    fn empty_word() -> Self {
        Nfa {
            transitions: vec![Vec::new()],
            start: vec![0],
            accepting: vec![true],
        }
    }

    /// The automaton of a single range `n[u,v]`.
    pub fn range(range: &Range) -> Self {
        let v = range.max as usize;
        let u = range.min as usize;
        let mut transitions = vec![Vec::new(); v + 1];
        let mut accepting = vec![false; v + 1];
        for (k, t) in transitions.iter_mut().enumerate().take(v) {
            t.push((Some(range.name), k + 1));
        }
        for (k, acc) in accepting.iter_mut().enumerate() {
            *acc = k >= u;
        }
        Nfa {
            transitions,
            start: vec![0],
            accepting,
        }
    }

    /// `L(self)·L(other)`.
    pub fn concat(mut self, other: Nfa) -> Self {
        let offset = self.transitions.len();
        for (s, acc) in self.accepting.iter_mut().enumerate() {
            if *acc {
                let starts = other.start.iter().map(|&b0| (None, b0 + offset));
                self.transitions[s].extend(starts);
                *acc = false;
            }
        }
        self.append(other.transitions, other.accepting);
        self
    }

    /// `L(self) ∪ L(other)`.
    pub fn union(mut self, other: Nfa) -> Self {
        let offset = self.transitions.len();
        self.start.extend(other.start.iter().map(|&s| s + offset));
        self.append(other.transitions, other.accepting);
        self
    }

    /// Appends another automaton's states, renumbered after this one's.
    fn append(&mut self, transitions: Vec<Vec<(Option<Name>, usize)>>, accepting: Vec<bool>) {
        let offset = self.transitions.len();
        self.transitions
            .extend(transitions.into_iter().map(|mut row| {
                for (_, t) in &mut row {
                    *t += offset;
                }
                row
            }));
        self.accepting.extend(accepting);
    }

    /// `L(self)*` (Kleene star).
    pub fn star(mut self) -> Self {
        let hub = self.transitions.len();
        self.transitions.push(Vec::new());
        self.accepting.push(true);
        for &s in &self.start.clone() {
            self.transitions[hub].push((None, s));
        }
        for s in 0..hub {
            if self.accepting[s] {
                self.transitions[s].push((None, hub));
            }
        }
        self.start = vec![hub];
        self
    }

    /// The single-word automaton for one name.
    pub fn symbol(name: Name) -> Self {
        Nfa {
            transitions: vec![vec![(Some(name), 1)], Vec::new()],
            start: vec![0],
            accepting: vec![false, true],
        }
    }

    /// `Σ*` over the given alphabet.
    pub fn sigma_star(alphabet: &NameSet) -> Self {
        let mut transitions = vec![Vec::new()];
        for name in alphabet.iter() {
            transitions[0].push((Some(name), 0));
        }
        Nfa {
            transitions,
            start: vec![0],
            accepting: vec![true],
        }
    }

    /// Number of states (oracle-size sanity checks).
    pub fn state_count(&self) -> usize {
        self.transitions.len()
    }

    /// Extends `set` with its ε-closure; `member[s]` marks the states in
    /// it.
    fn closure(&self, set: &mut Vec<usize>, member: &mut [bool]) {
        let mut k = 0;
        while let Some(&s) = set.get(k) {
            k += 1;
            for &(label, t) in &self.transitions[s] {
                if label.is_none() && !member[t] {
                    member[t] = true;
                    set.push(t);
                }
            }
        }
    }

    /// The live state set after consuming `word` from the start set, or
    /// the index of the symbol at which it becomes empty (the word up to
    /// there is not a prefix of any accepted word).
    fn run<'a, I: IntoIterator<Item = &'a Name>>(&self, word: I) -> Result<Vec<usize>, usize> {
        let mut member = vec![false; self.transitions.len()];
        let mut set = Vec::new();
        for &s in &self.start {
            if !member[s] {
                member[s] = true;
                set.push(s);
            }
        }
        self.closure(&mut set, &mut member);
        for (k, &name) in word.into_iter().enumerate() {
            for &s in &set {
                member[s] = false;
            }
            let mut next = Vec::new();
            for &s in &set {
                for &(label, t) in &self.transitions[s] {
                    if label == Some(name) && !member[t] {
                        member[t] = true;
                        next.push(t);
                    }
                }
            }
            if next.is_empty() {
                return Err(k);
            }
            self.closure(&mut next, &mut member);
            set = next;
        }
        Ok(set)
    }

    /// Whether `word` is a member of the language.
    pub fn accepts<'a, I: IntoIterator<Item = &'a Name>>(&self, word: I) -> bool {
        self.run(word)
            .is_ok_and(|set| set.iter().any(|&s| self.accepting[s]))
    }

    /// Whether `word` is a prefix of some member (all states co-accessible,
    /// so "still alive" suffices).
    pub fn accepts_prefix<'a, I: IntoIterator<Item = &'a Name>>(&self, word: I) -> bool {
        self.run(word).is_ok()
    }

    /// Index of the first event at which the run dies, if it does: one
    /// pass over `word`, since a prefix that dies stays dead.
    pub fn first_rejection(&self, word: &[Name]) -> Option<usize> {
        self.run(word).err()
    }
}

fn permutations(k: usize) -> Vec<Vec<usize>> {
    if k == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for rest in permutations(k - 1) {
        for slot in 0..=rest.len() {
            let mut perm = rest.clone();
            perm.insert(slot, k - 1);
            out.push(perm);
        }
    }
    out
}

/// The automaton of a fragment (Definition 2) — permutations of all blocks
/// for `∧`, of every non-empty subset for `∨`.
pub fn fragment_nfa(fragment: &Fragment) -> Nfa {
    let blocks: Vec<Nfa> = fragment.ranges.iter().map(Nfa::range).collect();
    let k = blocks.len();
    let subsets: Vec<Vec<usize>> = match fragment.op {
        FragmentOp::All => vec![(0..k).collect()],
        FragmentOp::Any => (1u32..(1 << k))
            .map(|mask| (0..k).filter(|&b| mask & (1 << b) != 0).collect())
            .collect(),
    };
    let mut result: Option<Nfa> = None;
    for subset in subsets {
        for perm in permutations(subset.len()) {
            let mut seq = Nfa::empty_word();
            for &slot in &perm {
                seq = seq.concat(blocks[subset[slot]].clone());
            }
            result = Some(match result {
                Some(acc) => acc.union(seq),
                None => seq,
            });
        }
    }
    result.expect("fragment has at least one range")
}

/// The automaton of a loose-ordering (Definition 3).
pub fn ordering_nfa(ordering: &LooseOrdering) -> Nfa {
    let mut result = Nfa::empty_word();
    for fragment in &ordering.fragments {
        result = result.concat(fragment_nfa(fragment));
    }
    result
}

/// The prefix-language automaton of a root property (untimed projection for
/// timed implications).
pub fn property_nfa(property: &Property) -> Nfa {
    match property {
        Property::Antecedent(a) => antecedent_nfa(a),
        Property::Timed(t) => {
            let p = ordering_nfa(&t.premise);
            let q = ordering_nfa(&t.response);
            p.concat(q).star()
        }
    }
}

fn antecedent_nfa(a: &Antecedent) -> Nfa {
    let p = ordering_nfa(&a.antecedent);
    let episode = p.concat(Nfa::symbol(a.trigger));
    if a.repeated {
        episode.star()
    } else {
        episode.concat(Nfa::sigma_star(&a.alpha()))
    }
}

/// Ground-truth oracle for a property's *untimed* acceptance.
#[derive(Debug, Clone)]
pub struct PatternOracle {
    nfa: Nfa,
    alphabet: NameSet,
}

impl PatternOracle {
    /// Build the oracle of a (well-formed) property.
    pub fn new(property: &Property) -> Self {
        PatternOracle {
            nfa: property_nfa(property),
            alphabet: property.alpha(),
        }
    }

    /// The underlying automaton.
    pub fn nfa(&self) -> &Nfa {
        &self.nfa
    }

    /// Project a trace onto the property alphabet and report whether every
    /// prefix is acceptable; on rejection, returns the index (within the
    /// *projected* event sequence) of the offending event.
    pub fn check(&self, trace: &Trace) -> Result<(), usize> {
        let word: Vec<Name> = trace
            .names()
            .filter(|n| self.alphabet.contains(*n))
            .collect();
        match self.nfa.first_rejection(&word) {
            None => Ok(()),
            Some(k) => Err(k),
        }
    }

    /// Whether the projected trace is a *full member* of the language
    /// (used e.g. to decide `Satisfied` for one-shot antecedents).
    pub fn accepts_full(&self, trace: &Trace) -> bool {
        let word: Vec<Name> = trace
            .names()
            .filter(|n| self.alphabet.contains(*n))
            .collect();
        self.nfa.accepts(word.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lomon_trace::Vocabulary;

    fn names(voc: &mut Vocabulary, k: usize) -> Vec<Name> {
        (0..k).map(|i| voc.input(&format!("n{i}"))).collect()
    }

    #[test]
    fn range_language() {
        let mut voc = Vocabulary::new();
        let n = names(&mut voc, 1)[0];
        let nfa = Nfa::range(&Range::new(n, 2, 4));
        assert!(!nfa.accepts([&n]));
        assert!(nfa.accepts([&n, &n]));
        assert!(nfa.accepts([&n, &n, &n, &n]));
        assert!(!nfa.accepts([&n, &n, &n, &n, &n]));
        assert!(nfa.accepts_prefix([&n]));
        assert!(!nfa.accepts_prefix([&n, &n, &n, &n, &n]));
    }

    #[test]
    fn example1_loose_ordering() {
        // Paper Example 1: ℓ = n1[2,8] < ({n2, n3}, ∨).
        let mut voc = Vocabulary::new();
        let ns = names(&mut voc, 4);
        let (n1, n2, n3) = (ns[1], ns[2], ns[3]);
        let ordering = LooseOrdering::new(vec![
            Fragment::singleton(Range::new(n1, 2, 8)),
            Fragment::new(FragmentOp::Any, vec![Range::once(n2), Range::once(n3)]),
        ]);
        let nfa = ordering_nfa(&ordering);
        // "first several n1 in a row, then either n2 or n3, or both in any
        // order".
        assert!(nfa.accepts([&n1, &n1, &n2]));
        assert!(nfa.accepts([&n1, &n1, &n3]));
        assert!(nfa.accepts([&n1, &n1, &n2, &n3]));
        assert!(nfa.accepts([&n1, &n1, &n3, &n2]));
        assert!(!nfa.accepts([&n1, &n2])); // only one n1
        assert!(!nfa.accepts([&n1, &n1])); // second fragment missing
        assert!(!nfa.accepts([&n2, &n1, &n1])); // wrong order
    }

    #[test]
    fn all_fragment_permutations() {
        let mut voc = Vocabulary::new();
        let ns = names(&mut voc, 3);
        let f = Fragment::new(
            FragmentOp::All,
            vec![Range::once(ns[0]), Range::once(ns[1]), Range::once(ns[2])],
        );
        let nfa = fragment_nfa(&f);
        for perm in [
            [0usize, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            let word: Vec<&Name> = perm.iter().map(|&k| &ns[k]).collect();
            assert!(nfa.accepts(word), "perm {perm:?}");
        }
        assert!(!nfa.accepts([&ns[0], &ns[1]])); // incomplete
        assert!(!nfa.accepts([&ns[0], &ns[0], &ns[1], &ns[2]])); // repeat
    }

    #[test]
    fn any_fragment_subsets() {
        let mut voc = Vocabulary::new();
        let ns = names(&mut voc, 2);
        let f = Fragment::new(
            FragmentOp::Any,
            vec![Range::once(ns[0]), Range::once(ns[1])],
        );
        let nfa = fragment_nfa(&f);
        assert!(nfa.accepts([&ns[0]]));
        assert!(nfa.accepts([&ns[1]]));
        assert!(nfa.accepts([&ns[0], &ns[1]]));
        assert!(nfa.accepts([&ns[1], &ns[0]]));
        assert!(!nfa.accepts::<[&Name; 0]>([])); // non-empty subset required
    }

    #[test]
    fn repeated_antecedent_language() {
        let mut voc = Vocabulary::new();
        let n = voc.input("n");
        let i = voc.input("i");
        let prop: Property = Antecedent::new(
            LooseOrdering::new(vec![Fragment::singleton(Range::once(n))]),
            i,
            true,
        )
        .into();
        let nfa = property_nfa(&prop);
        assert!(nfa.accepts([&n, &i, &n, &i]));
        assert!(nfa.accepts_prefix([&n, &i, &n]));
        assert!(!nfa.accepts_prefix([&n, &i, &i]));
        assert!(!nfa.accepts_prefix([&i]));
    }

    #[test]
    fn oneshot_antecedent_language() {
        let mut voc = Vocabulary::new();
        let n = voc.input("n");
        let i = voc.input("i");
        let prop: Property = Antecedent::new(
            LooseOrdering::new(vec![Fragment::singleton(Range::once(n))]),
            i,
            false,
        )
        .into();
        let nfa = property_nfa(&prop);
        // After n·i anything over {n, i} goes.
        assert!(nfa.accepts([&n, &i, &i, &i, &n, &n]));
        assert!(!nfa.accepts_prefix([&i]));
        assert!(nfa.accepts_prefix([&n])); // prefix of n·i·…
        assert!(!nfa.accepts([&n])); // but not a full member
    }

    #[test]
    fn timed_untimed_projection_cycles() {
        let mut voc = Vocabulary::new();
        let a = voc.input("a");
        let b = voc.output("b");
        let prop: Property = crate::ast::TimedImplication::new(
            LooseOrdering::new(vec![Fragment::singleton(Range::once(a))]),
            LooseOrdering::new(vec![Fragment::singleton(Range::once(b))]),
            lomon_trace::SimTime::from_ns(1),
        )
        .into();
        let nfa = property_nfa(&prop);
        assert!(nfa.accepts([&a, &b, &a, &b]));
        assert!(nfa.accepts_prefix([&a, &b, &a]));
        assert!(!nfa.accepts_prefix([&b]));
        assert!(!nfa.accepts_prefix([&a, &b, &b]));
    }

    #[test]
    fn oracle_projects_and_localizes_rejection() {
        let mut voc = Vocabulary::new();
        let n = voc.input("n");
        let i = voc.input("i");
        let other = voc.input("other");
        let prop: Property = Antecedent::new(
            LooseOrdering::new(vec![Fragment::singleton(Range::once(n))]),
            i,
            true,
        )
        .into();
        let oracle = PatternOracle::new(&prop);
        let good = Trace::from_names([other, n, other, i]);
        assert_eq!(oracle.check(&good), Ok(()));
        let bad = Trace::from_names([other, i, n]);
        // Projected word is [i, n]; i at projected index 0 kills it.
        assert_eq!(oracle.check(&bad), Err(0));
        assert!(!oracle.accepts_full(&bad));
    }

    #[test]
    fn first_rejection_index() {
        let mut voc = Vocabulary::new();
        let n = voc.input("n");
        let i = voc.input("i");
        let prop: Property = Antecedent::new(
            LooseOrdering::new(vec![Fragment::singleton(Range::new(n, 1, 2))]),
            i,
            true,
        )
        .into();
        let nfa = property_nfa(&prop);
        assert_eq!(nfa.first_rejection(&[n, n, n]), Some(2));
        assert_eq!(nfa.first_rejection(&[n, i, n, i]), None);
    }

    #[test]
    fn permutation_count() {
        assert_eq!(permutations(0).len(), 1);
        assert_eq!(permutations(3).len(), 6);
        assert_eq!(permutations(4).len(), 24);
    }

    #[test]
    fn state_count_is_reported() {
        let mut voc = Vocabulary::new();
        let n = voc.input("n");
        let nfa = Nfa::range(&Range::new(n, 1, 5));
        assert_eq!(nfa.state_count(), 6);
    }
}
