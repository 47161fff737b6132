//! # lomon-gen — stimuli generation from loose-ordering patterns
//!
//! The paper closes with: "Future work will be devoted to a translation of
//! the patterns into some code for generating random sequences. This will
//! provide a full integration of loose-orderings in an ABV framework."
//! This crate implements that future work:
//!
//! * [`generate()`] — seeded random members of a pattern's language, with
//!   budget-respecting timestamps for timed implications (Fig. 1's stimuli
//!   generator);
//! * [`mutate()`] — single-edit near-miss mutants labelled with the oracle's
//!   ground-truth verdict (negative tests for the monitors);
//! * [`coverage`] — specification coverage (range boundaries, `∨`-subsets,
//!   fragment orders) and coverage-directed generation (Fig. 1's coverage
//!   improver);
//! * [`cases`] — seeded differential test cases: properties, rulebooks and
//!   traces with range bounds out to `u32::MAX`, drawn from one seed, and
//!   the cross-check of the interpreter against the compiled program that
//!   every differential suite runs on them.

pub mod cases;
pub mod coverage;
pub mod generate;
pub mod mutate;

pub use cases::{Case, Run};
pub use coverage::{generate_until_covered, Coverage};
pub use generate::{generate, GeneratedTrace, GeneratorConfig};
pub use mutate::{mutate, Mutant, MutationKind};
