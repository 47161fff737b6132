//! Trace mutations: near-miss negative tests for the monitors.
//!
//! A generated satisfying trace is mutated by one small edit — dropping,
//! duplicating or swapping an event, or injecting the trigger early. The
//! result is *usually* a violation but not always (dropping one event of an
//! `∨`-fragment may stay legal), so each mutant carries the ground-truth
//! verdict computed by the independent pattern oracle; monitors must agree
//! with it. This gives the verification framework of Fig. 1 an endless
//! supply of labelled positive *and* negative stimuli.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lomon_core::ast::Property;
use lomon_core::semantics::PatternOracle;
use lomon_trace::{Name, Trace};

/// The edit applied to the base trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationKind {
    /// Remove the event at `index`.
    Drop {
        /// Position removed.
        index: usize,
    },
    /// Duplicate the event at `index` right after itself.
    Duplicate {
        /// Position duplicated.
        index: usize,
    },
    /// Swap the events at `index` and `index + 1`.
    SwapAdjacent {
        /// First position of the swapped pair.
        index: usize,
    },
    /// Insert an extra occurrence of `name` at `index`.
    Inject {
        /// Insertion position.
        index: usize,
        /// Injected name.
        name: Name,
    },
}

/// A mutated trace with its oracle verdict.
#[derive(Debug, Clone)]
pub struct Mutant {
    /// The mutated trace (timestamps re-spaced uniformly).
    pub trace: Trace,
    /// What was edited.
    pub kind: MutationKind,
    /// Ground truth: `Ok(())` if every prefix is still acceptable,
    /// `Err(k)` if the oracle rejects at projected position `k`.
    pub oracle: Result<(), usize>,
}

impl Mutant {
    /// Whether the mutation produced an (untimed) violation.
    pub fn violates(&self) -> bool {
        self.oracle.is_err()
    }
}

/// Generate `count` single-edit mutants of `base` (which should satisfy
/// `property`), labelling each with the oracle verdict.
pub fn mutate(property: &Property, base: &Trace, count: u32, seed: u64) -> Vec<Mutant> {
    let mut rng = StdRng::seed_from_u64(seed);
    let oracle = PatternOracle::new(property);
    let alphabet: Vec<Name> = property.alpha().iter().collect();
    let names: Vec<Name> = base.names().collect();
    let mut out = Vec::new();
    if names.is_empty() {
        return out;
    }
    for _ in 0..count {
        let (kind, mutated_names) = edit(&names, &alphabet, &mut rng);
        let trace = Trace::from_names(mutated_names);
        let oracle_verdict = oracle.check(&trace);
        out.push(Mutant {
            trace,
            kind,
            oracle: oracle_verdict,
        });
    }
    out
}

/// One random single edit of the non-empty `names`, as [`mutate`] draws
/// it (injecting a name of `alphabet`), without the oracle's label.
pub fn edit(names: &[Name], alphabet: &[Name], rng: &mut StdRng) -> (MutationKind, Vec<Name>) {
    let kind = match rng.gen_range(0..4) {
        0 => MutationKind::Drop {
            index: rng.gen_range(0..names.len()),
        },
        1 => MutationKind::Duplicate {
            index: rng.gen_range(0..names.len()),
        },
        2 if names.len() >= 2 => MutationKind::SwapAdjacent {
            index: rng.gen_range(0..names.len() - 1),
        },
        _ => MutationKind::Inject {
            index: rng.gen_range(0..=names.len()),
            name: alphabet[rng.gen_range(0..alphabet.len())],
        },
    };
    (kind, apply(names, kind))
}

fn apply(names: &[Name], kind: MutationKind) -> Vec<Name> {
    let mut out = names.to_vec();
    match kind {
        MutationKind::Drop { index } => {
            out.remove(index);
        }
        MutationKind::Duplicate { index } => {
            let name = out[index];
            out.insert(index, name);
        }
        MutationKind::SwapAdjacent { index } => {
            out.swap(index, index + 1);
        }
        MutationKind::Inject { index, name } => {
            out.insert(index, name);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, GeneratorConfig};
    use lomon_core::monitor::build_monitor;
    use lomon_core::parse::parse_property;
    use lomon_core::verdict::{Monitor, Verdict};
    use lomon_trace::Vocabulary;

    /// Monitors must agree with the oracle label on every mutant.
    #[test]
    fn monitors_agree_with_mutant_labels() {
        let texts = [
            "all{a, b, c} << go repeated",
            "all{a, b} < any{c[2,3], d} < e << i repeated",
            "n[2,4] << i once",
        ];
        for text in texts {
            let mut voc = Vocabulary::new();
            let property = parse_property(text, &mut voc).expect(text);
            let base = generate(&property, &GeneratorConfig::new(1)).trace;
            for mutant in mutate(&property, &base, 60, 99) {
                let mut monitor = build_monitor(property.clone(), &voc).expect("wf");
                for &e in mutant.trace.iter() {
                    monitor.observe(e);
                }
                let monitor_ok = monitor.verdict() != Verdict::Violated;
                assert_eq!(
                    monitor_ok,
                    !mutant.violates(),
                    "{text}: monitor disagrees with oracle on {:?}",
                    mutant.kind
                );
            }
        }
    }

    #[test]
    fn most_duplicates_of_trivial_ranges_violate() {
        let mut voc = Vocabulary::new();
        let property = parse_property("all{a, b} << go repeated", &mut voc).unwrap();
        let base = generate(&property, &GeneratorConfig::new(2)).trace;
        let mutants = mutate(&property, &base, 40, 7);
        let violating = mutants.iter().filter(|m| m.violates()).count();
        // With [1,1] ranges, almost any duplicate/drop breaks the pattern.
        assert!(violating > 0, "no violating mutants found");
        // …but swaps inside a fragment may be legal: not all must violate.
        assert!(
            violating < mutants.len(),
            "every mutant violated; expected some legal reorderings"
        );
    }

    #[test]
    fn mutants_are_deterministic_per_seed() {
        let mut voc = Vocabulary::new();
        let property = parse_property("all{a, b} << go once", &mut voc).unwrap();
        let base = generate(&property, &GeneratorConfig::new(3)).trace;
        let a = mutate(&property, &base, 10, 5);
        let b = mutate(&property, &base, 10, 5);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.trace, y.trace);
        }
    }

    #[test]
    fn empty_base_produces_no_mutants() {
        let mut voc = Vocabulary::new();
        let property = parse_property("a << i once", &mut voc).unwrap();
        assert!(mutate(&property, &Trace::new(), 5, 1).is_empty());
    }
}
