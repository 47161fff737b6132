//! The serving program: one compiled rulebook, atomically swappable.
//!
//! A [`Program`] bundles everything a connection needs to monitor streams
//! — the compiled [`Engine`], the [`Vocabulary`] its names were interned
//! into, and a monotonically increasing *generation* — behind one `Arc`.
//! Connections pin their `Arc<Program>` for their whole lifetime, so a
//! hot-reload ([`crate::Server::reload`]) is a pure pointer swap: new
//! streams see the new rulebook, in-flight streams keep the exact program
//! (and vocabulary) they started under, and nothing is ever mutated in
//! place. A reload that fails to compile returns its diagnostics and
//! leaves the serving program untouched — the rollback is that no swap
//! ever happened.

use lomon_core::analysis::{AnalysisOptions, Diagnostic, Severity};
use lomon_engine::{error_diagnostics, rulebook_lines, Engine};
use lomon_trace::Vocabulary;

/// One immutable compiled rulebook generation.
#[derive(Debug)]
pub(crate) struct Program {
    pub(crate) engine: Engine,
    pub(crate) voc: Vocabulary,
    pub(crate) generation: u64,
    /// The rulebook's analysis warnings (refused instead under
    /// `deny_warnings`).
    pub(crate) warnings: Vec<Diagnostic>,
}

impl Program {
    /// Compile `text` (one property per line, `#` comments and blank lines
    /// skipped) into generation `generation`. On any parse or
    /// well-formedness error — or, with `deny_warnings`, any analysis
    /// warning — returns *all* diagnostics and no program; otherwise the
    /// program keeps its warnings.
    pub(crate) fn compile(
        text: &str,
        generation: u64,
        deny_warnings: bool,
    ) -> Result<Program, Vec<Diagnostic>> {
        let properties = rulebook_lines(text);
        if properties.is_empty() {
            return Err(vec![Diagnostic::new(
                lomon_core::analysis::DiagCode::L001,
                Vec::new(),
                "the rulebook is empty".to_owned(),
            )]);
        }
        let mut voc = Vocabulary::new();
        let opts = AnalysisOptions::default();
        match Engine::compile_with_analysis(&properties, &mut voc, &opts) {
            Ok((engine, diagnostics)) => {
                let warnings: Vec<Diagnostic> = diagnostics
                    .into_iter()
                    .filter(|d| d.severity == Severity::Warning)
                    .collect();
                if deny_warnings && !warnings.is_empty() {
                    return Err(warnings);
                }
                Ok(Program {
                    engine,
                    voc,
                    generation,
                    warnings,
                })
            }
            Err(errors) => Err(error_diagnostics(&errors, &voc)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_reports_all_errors_and_builds_nothing() {
        let text = "all{a, b} << start once\nnot a property\nalso ] broken\n";
        let errors = Program::compile(text, 1, false).expect_err("two bad lines");
        assert_eq!(errors.len(), 2);
        assert!(errors.iter().all(|d| d.severity == Severity::Error));
    }

    #[test]
    fn deny_warnings_rejects_a_warning_rulebook() {
        // Duplicate properties trip the L003 warning.
        let text = "all{a, b} << start once\nall{a, b} << start once\n";
        assert!(Program::compile(text, 1, false).is_ok());
        let errors = Program::compile(text, 1, true).expect_err("denied");
        assert!(errors.iter().any(|d| d.severity == Severity::Warning));
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let text = "# a comment\n\nall{a, b} << start once\n";
        let program = Program::compile(text, 7, true).expect("compiles");
        assert_eq!(program.engine.len(), 1);
        assert_eq!(program.generation, 7);
    }

    #[test]
    fn empty_rulebook_is_an_error() {
        assert!(Program::compile("# only comments\n", 1, false).is_err());
    }
}
