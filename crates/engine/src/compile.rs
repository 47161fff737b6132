//! Compiling a property set into an [`Engine`]: parse/validate *everything*
//! first, report every error, then lower the **whole rulebook** into one
//! fused program — unique recognizer groups plus the single global
//! event→action CSR table the production backend dispatches through — and
//! its unshared twin the interpreter oracle runs over.

use std::sync::Arc;

use lomon_core::analysis::{self, AnalysisOptions, DiagCode, Diagnostic};
use lomon_core::ast::Property;
use lomon_core::compiled::CompiledProgram;
use lomon_core::fused::{FusedProgram, Sharing};
use lomon_core::monitor::{build_monitor, PropertyMonitor};
use lomon_core::parse::{parse_property, ParseError};
use lomon_core::wf::WfError;
use lomon_trace::{Name, NameSet, Vocabulary};

use crate::session::{Backend, DispatchMode, Session};

/// Why one property of the set failed to compile. The engine never stops at
/// the first bad property: [`Engine::compile`] returns *all* failures so a
/// rulebook can be fixed in one pass.
#[derive(Debug, Clone)]
pub enum CompileError {
    /// The property text did not parse.
    Parse {
        /// Position of the property in the compiled set.
        index: usize,
        /// The offending source text.
        source: String,
        /// The parse error, with its span into `source`.
        error: ParseError,
    },
    /// The property parsed but broke a well-formedness side condition.
    IllFormed {
        /// Position of the property in the compiled set.
        index: usize,
        /// The offending source text (or rendered AST).
        source: String,
        /// Every violated side condition.
        errors: Vec<WfError>,
    },
}

impl CompileError {
    /// Position of the failing property in the compiled set.
    pub fn index(&self) -> usize {
        match self {
            CompileError::Parse { index, .. } | CompileError::IllFormed { index, .. } => *index,
        }
    }

    /// Full human-readable rendering (multi-line for parse errors, which
    /// carry a caret into the source).
    pub fn display(&self, voc: &Vocabulary) -> String {
        match self {
            CompileError::Parse {
                index,
                source,
                error,
            } => format!(
                "property {}: {}",
                index + 1,
                error.display_with_source(source)
            ),
            CompileError::IllFormed {
                index,
                source,
                errors,
            } => {
                let all: Vec<String> = errors.iter().map(|e| e.display(voc)).collect();
                format!(
                    "property {} `{}` is ill-formed: {}",
                    index + 1,
                    source,
                    all.join("; ")
                )
            }
        }
    }
}

/// One validated property of the compiled set: the interpreter prototype
/// that [`Backend::Interp`] sessions clone, plus its reporting facts.
#[derive(Debug, Clone)]
pub(crate) struct CompiledProperty {
    pub(crate) prototype: PropertyMonitor,
    pub(crate) alphabet: NameSet,
    /// Shared so per-report property lines clone a pointer, not the text.
    pub(crate) display: Arc<str>,
}

/// A set of properties compiled once and shared by any number of
/// [`Session`]s. See the crate docs for the dispatch design.
#[derive(Debug, Clone)]
pub struct Engine {
    pub(crate) properties: Vec<CompiledProperty>,
    /// The rulebook lowered as one program: unique recognizer groups
    /// (structurally deduplicated across properties), the group→members
    /// fan-out, and the single global name→(group, action-row) CSR table
    /// the default fused backend dispatches through.
    pub(crate) fused: Arc<FusedProgram>,
    /// The same programs with every property its own group
    /// ([`FusedProgram::unshared`]): group ids are property ids. The
    /// interpreter oracle dispatches through these tables so that it
    /// shares the session's one dispatch path but none of the fusion.
    pub(crate) unshared: Arc<FusedProgram>,
}

impl Engine {
    /// Parse and validate every property text against `voc`, then build the
    /// engine.
    ///
    /// # Errors
    ///
    /// Returns one [`CompileError`] per failing property — all of them, not
    /// just the first.
    pub fn compile<S: AsRef<str>>(
        texts: &[S],
        voc: &mut Vocabulary,
    ) -> Result<Engine, Vec<CompileError>> {
        let mut parsed = Vec::with_capacity(texts.len());
        let mut errors = Vec::new();
        for (index, text) in texts.iter().enumerate() {
            let text = text.as_ref();
            match parse_property(text, voc) {
                Ok(property) => parsed.push((index, text.to_owned(), property)),
                Err(error) => errors.push(CompileError::Parse {
                    index,
                    source: text.to_owned(),
                    error,
                }),
            }
        }
        let engine = Self::build(parsed, voc, &mut errors);
        if errors.is_empty() {
            Ok(engine)
        } else {
            errors.sort_by_key(CompileError::index);
            Err(errors)
        }
    }

    /// Like [`Engine::compile`], followed by the warning passes of
    /// [`lomon_core::analysis`]: returns the engine together with every
    /// `L003`–`L006` finding (duplicate, vacuous, subsumed and conflicting
    /// properties). `check`, `watch`, `smc`, `serve` and `profile` print
    /// these; `lomon lint` appends [`Engine::notes`] to them. The warning
    /// passes take no options, so `_opts` is not read.
    ///
    /// # Errors
    ///
    /// Returns one [`CompileError`] per failing property, exactly as
    /// [`Engine::compile`] — render those as diagnostics with
    /// [`error_diagnostics`].
    pub fn compile_with_analysis<S: AsRef<str>>(
        texts: &[S],
        voc: &mut Vocabulary,
        _opts: &AnalysisOptions,
    ) -> Result<(Engine, Vec<Diagnostic>), Vec<CompileError>> {
        let engine = Self::compile(texts, voc)?;
        let warnings = engine.analyze();
        Ok((engine, warnings))
    }

    /// The warning passes of [`lomon_core::analysis`] over this engine:
    /// the findings [`Engine::compile_with_analysis`] returns, for an
    /// engine compiled elsewhere.
    pub fn analyze(&self) -> Vec<Diagnostic> {
        analysis::warnings(&self.fused, &self.displays())
    }

    /// The note passes of [`lomon_core::analysis`] over this engine, whose
    /// names `voc` resolves (`L007`–`L009`: unobserved vocabulary, corpus
    /// events no property subscribes to, dead action-table entries). Only
    /// `lomon lint` runs them.
    pub fn notes(&self, voc: &Vocabulary, opts: &AnalysisOptions) -> Vec<Diagnostic> {
        analysis::notes(&self.fused, &self.displays(), voc, opts)
    }

    /// Every property's source text, by id, for diagnostic messages.
    fn displays(&self) -> Vec<&str> {
        self.properties.iter().map(|p| p.display.as_ref()).collect()
    }

    /// Build an engine from already-constructed ASTs (validated here).
    ///
    /// # Errors
    ///
    /// Returns one [`CompileError::IllFormed`] per property that breaks a
    /// well-formedness side condition.
    pub fn from_properties(
        properties: Vec<Property>,
        voc: &Vocabulary,
    ) -> Result<Engine, Vec<CompileError>> {
        let parsed = properties
            .into_iter()
            .enumerate()
            .map(|(index, p)| (index, p.display(voc), p))
            .collect();
        let mut errors = Vec::new();
        let engine = Self::build(parsed, voc, &mut errors);
        if errors.is_empty() {
            Ok(engine)
        } else {
            Err(errors)
        }
    }

    fn build(
        parsed: Vec<(usize, String, Property)>,
        voc: &Vocabulary,
        errors: &mut Vec<CompileError>,
    ) -> Engine {
        let mut properties = Vec::with_capacity(parsed.len());
        let mut programs = Vec::with_capacity(parsed.len());
        for (index, source, property) in parsed {
            match build_monitor(property.clone(), voc) {
                Ok(prototype) => {
                    // `build_monitor` validated the property; lower it into
                    // the flat-table program the fusion interns.
                    programs.push(Arc::new(CompiledProgram::lower(&property)));
                    properties.push(CompiledProperty {
                        alphabet: prototype.alphabet(),
                        prototype,
                        display: Arc::from(source),
                    });
                }
                Err(wf_errors) => errors.push(CompileError::IllFormed {
                    index,
                    source,
                    errors: wf_errors,
                }),
            }
        }

        Engine {
            properties,
            fused: Arc::new(FusedProgram::fuse(&programs)),
            unshared: Arc::new(FusedProgram::unshared(&programs)),
        }
    }

    /// Number of compiled properties.
    pub fn len(&self) -> usize {
        self.properties.len()
    }

    /// Whether the rulebook is empty.
    pub fn is_empty(&self) -> bool {
        self.properties.is_empty()
    }

    /// The source text (or rendered AST) of property `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn property_display(&self, id: usize) -> &str {
        self.properties[id].display.as_ref()
    }

    /// The alphabet of property `id`, as computed at compile time.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn alphabet(&self, id: usize) -> &NameSet {
        &self.properties[id].alphabet
    }

    /// The fused rulebook program: unique recognizer groups, the
    /// group→members fan-out, and the global name→(group, row) CSR table
    /// the production backend dispatches through.
    pub fn fused(&self) -> &Arc<FusedProgram> {
        &self.fused
    }

    /// The program whose groups are `backend`'s dispatch units.
    pub(crate) fn program(&self, backend: Backend) -> &FusedProgram {
        match backend {
            Backend::Fused => &self.fused,
            Backend::Interp => &self.unshared,
        }
    }

    /// How much structure the rulebook fusion shared (unique programs and
    /// cells vs the per-property totals) — static facts of the compiled
    /// set, echoed into every session's dispatch statistics.
    pub fn sharing(&self) -> Sharing {
        self.fused.sharing()
    }

    /// The ids of the properties subscribed to `name` — the index row an
    /// event of that name dispatches to, in ascending property order.
    /// Empty for names outside every alphabet (including names interned
    /// after compilation).
    pub fn subscribers(&self, name: Name) -> impl Iterator<Item = u32> + '_ {
        self.unshared.subscribers(name).0.iter().copied()
    }

    /// Open a fresh session on the fused rulebook backend — the default.
    pub fn session(&self) -> Session<'_> {
        self.session_with_backend(DispatchMode::Indexed, Backend::Fused)
    }

    /// Open a fresh session on an explicit execution backend —
    /// [`Backend::Interp`] is the tree-walking differential oracle.
    pub fn session_with_backend(&self, mode: DispatchMode, backend: Backend) -> Session<'_> {
        let DispatchMode::Indexed = mode;
        Session::new(self, backend)
    }
}

/// Render compile failures through the diagnostic sink: parse errors as
/// `L001`, well-formedness violations as `L002` — so `lomon lint` and
/// `lomon check` report syntactic, semantic and structural findings in one
/// format.
pub fn error_diagnostics(errors: &[CompileError], voc: &Vocabulary) -> Vec<Diagnostic> {
    errors
        .iter()
        .map(|error| {
            let code = match error {
                CompileError::Parse { .. } => DiagCode::L001,
                CompileError::IllFormed { .. } => DiagCode::L002,
            };
            Diagnostic::new(code, vec![error.index()], error.display(voc))
        })
        .collect()
}

/// Split rulebook text into property texts: one property per non-blank,
/// non-`#`-comment line, trimmed. `lomon-serve` applies it to a `POST
/// /reload` body and the `lomon` binary to every rulebook file.
pub fn rulebook_lines(text: &str) -> Vec<String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_owned)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_reports_every_error() {
        let mut voc = Vocabulary::new();
        let errors = Engine::compile(
            &[
                "all{a, b} << start once", // fine
                "all{unclosed << start",   // parse error
                "a << a once",             // ill-formed: trigger inside P
                "also { broken",           // parse error
            ],
            &mut voc,
        )
        .unwrap_err();
        assert_eq!(errors.len(), 3);
        assert_eq!(
            errors.iter().map(CompileError::index).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert!(matches!(errors[0], CompileError::Parse { .. }));
        assert!(matches!(errors[1], CompileError::IllFormed { .. }));
        let text = errors[1].display(&voc);
        assert!(text.contains("property 3"), "display: {text}");
    }

    #[test]
    fn index_maps_names_to_subscribers() {
        let mut voc = Vocabulary::new();
        let engine = Engine::compile(&["all{a, b} << start once", "b << go once"], &mut voc)
            .expect("compiles");
        assert_eq!(engine.len(), 2);
        let a = voc.lookup("a").unwrap();
        let b = voc.lookup("b").unwrap();
        assert_eq!(engine.subscribers(a).collect::<Vec<_>>(), vec![0]);
        assert_eq!(engine.subscribers(b).collect::<Vec<_>>(), vec![0, 1]);
        // A name interned only after compilation has no subscribers.
        let late = voc.input("latecomer");
        assert_eq!(engine.subscribers(late).count(), 0);
        assert!(engine.alphabet(1).contains(b));
        assert_eq!(engine.property_display(1), "b << go once");
    }

    #[test]
    fn identical_properties_fuse_into_one_group() {
        let mut voc = Vocabulary::new();
        let engine = Engine::compile(
            &[
                "all{a, b} << start once",
                "b << go once",
                "all{a, b} << start once",
            ],
            &mut voc,
        )
        .expect("compiles");
        let sharing = engine.sharing();
        assert_eq!(sharing.properties, 3);
        assert_eq!(sharing.unique_programs, 2);
        assert_eq!(sharing.total_cells, 2 + 1 + 2);
        assert_eq!(sharing.unique_cells, 2 + 1);
        // Subscriber expansion still reports every member property.
        let a = voc.lookup("a").unwrap();
        assert_eq!(engine.subscribers(a).collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn compile_with_analysis_returns_no_notes() {
        use lomon_core::analysis::Severity;
        let mut voc = Vocabulary::new();
        // Unobserved vocabulary would be an `L007` note.
        voc.input("dangling");
        let rulebook = ["all{a, b} << start once", "all{a, b} << start once"];
        let opts = AnalysisOptions::default();
        let (engine, warnings) =
            Engine::compile_with_analysis(&rulebook, &mut voc, &opts).expect("compiles");
        let codes: Vec<DiagCode> = warnings.iter().map(|d| d.code).collect();
        assert_eq!(codes, [DiagCode::L003]);
        assert!(warnings.iter().all(|d| d.severity != Severity::Note));
        assert_eq!(engine.analyze(), warnings);
        let notes = engine.notes(&voc, &opts);
        assert!(notes.iter().any(|d| d.code == DiagCode::L007), "{notes:?}");
        assert!(notes.iter().all(|d| d.severity == Severity::Note));
    }

    #[test]
    fn timed_properties_are_tracked() {
        let mut voc = Vocabulary::new();
        let engine = Engine::compile(&["a << i once", "go => out:done within 50 ns"], &mut voc)
            .expect("compiles");
        assert_eq!(engine.unshared.timed_groups(), &[1]);
    }
}
