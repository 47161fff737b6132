//! Episode models: what one randomized run of the system under
//! verification looks like.
//!
//! A campaign is generic over an [`EpisodeModel`]: anything that can name
//! the monitored properties, provide the vocabulary they are written
//! against, and — given a derived per-episode seed — produce one episode's
//! event stream. Two models ship with the crate:
//!
//! * [`ScenarioModel`] — drives the `lomon-tlm` face-recognition platform
//!   (stimuli, firmware, fault switches) and streams the recorded
//!   interface trace; faults are drawn per episode with a configurable
//!   probability, which is what makes the satisfaction probabilities
//!   non-trivial;
//! * [`GenModel`] — language-based stimuli from `lomon-gen`: each episode
//!   is a generated member of a property's language (or a fixed base
//!   trace), optionally passed through a single-edit mutation, so the
//!   model doubles as a self-test of the monitors on labelled near-misses.

use rand::rngs::StdRng;
use rand::{Rng, RngCore as _, SeedableRng};

use lomon_core::ast::Property;
use lomon_core::parse::parse_property;
use lomon_gen::mutate::edit;
use lomon_gen::{generate, GeneratorConfig};
use lomon_tlm::scenario::{case_study_properties, run_scenario, ScenarioConfig};
use lomon_tlm::{EventNames, FaultPlan};
use lomon_trace::{Name, SimTime, TimedEvent, Trace, Vocabulary};

/// A source of randomized episodes for a campaign.
///
/// Implementations must be [`Sync`]: one model instance is shared by every
/// worker thread. All episode randomness must come from the `seed`
/// argument (derived by the campaign as `master.fork(episode_index)`), so
/// an episode's stream is a pure function of `(campaign seed, index)` —
/// the invariant behind jobs-independent results.
pub trait EpisodeModel: Sync {
    /// The property texts the campaign compiles into its shared engine.
    fn properties(&self) -> Vec<String>;

    /// The vocabulary the properties and episode streams are written
    /// against (platform names pre-interned; compilation may intern more).
    fn vocabulary(&self) -> Vocabulary;

    /// Produce episode `seed`'s event stream into `out` (cleared by the
    /// caller) and return the end-of-observation time.
    fn episode(&self, seed: u64, out: &mut Vec<TimedEvent>) -> SimTime;
}

/// Campaigns over the `lomon-tlm` virtual platform: each episode is one
/// full simulation with seed-randomized loose timing, loose configuration
/// ordering, and (with probability [`ScenarioModel::with_fault_probability`])
/// one uniformly drawn fault-injection switch.
#[derive(Debug, Clone)]
pub struct ScenarioModel {
    base: ScenarioConfig,
    fault_probability: f64,
    /// Monitored property texts; `None` means the case-study rulebook.
    properties: Option<Vec<String>>,
}

impl ScenarioModel {
    /// A fault-free model over the given base scenario (its `seed`,
    /// `fault` and `monitors` fields are overridden per episode).
    pub fn new(base: ScenarioConfig) -> Self {
        ScenarioModel {
            base,
            fault_probability: 0.0,
            properties: None,
        }
    }

    /// Monitor a custom rulebook over the platform's interface names
    /// instead of the two case-study properties.
    pub fn with_properties(mut self, texts: Vec<String>) -> Self {
        self.properties = Some(texts);
        self
    }

    /// Inject a uniformly drawn platform fault with probability `p` per
    /// episode.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn with_fault_probability(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "fault probability {p} out of [0,1]"
        );
        self.fault_probability = p;
        self
    }

    /// The seven fault switches of the platform, drawn uniformly.
    fn draw_fault(rng: &mut StdRng) -> FaultPlan {
        let mut fault = FaultPlan::default();
        match rng.gen_range(0u32..7) {
            0 => fault.skip_register = Some(rng.gen_range(0usize..3)),
            1 => fault.early_start = true,
            2 => fault.drop_irq = true,
            3 => fault.early_irq = true,
            4 => fault.extra_reads = rng.gen_range(1u32..=3),
            5 => fault.slowdown = 50,
            _ => fault.double_start = true,
        }
        fault
    }
}

impl EpisodeModel for ScenarioModel {
    fn properties(&self) -> Vec<String> {
        match &self.properties {
            Some(texts) => texts.clone(),
            None => case_study_properties(&self.base)
                .into_iter()
                .map(|(_, text)| text)
                .collect(),
        }
    }

    fn vocabulary(&self) -> Vocabulary {
        // The platform interns its interface names first; episode traces
        // (which do the same internally) then agree name-for-name.
        let mut voc = Vocabulary::new();
        let _ = EventNames::intern(&mut voc);
        voc
    }

    fn episode(&self, seed: u64, out: &mut Vec<TimedEvent>) -> SimTime {
        let mut rng = StdRng::seed_from_u64(seed);
        let fault = if self.fault_probability > 0.0 && rng.gen_bool(self.fault_probability) {
            Self::draw_fault(&mut rng)
        } else {
            FaultPlan::default()
        };
        let config = ScenarioConfig {
            seed: rng.next_u64(),
            fault,
            // The campaign's engine does the monitoring; attaching the
            // scenario's own monitors would double the work.
            monitors: false,
            ..self.base
        };
        let report = run_scenario(&config);
        out.extend_from_slice(report.trace.events());
        report.trace.end_time()
    }
}

/// Campaigns over `lomon-gen` stimuli: each episode is a satisfying member
/// of the anchor property's language (freshly generated, or a fixed base
/// trace), passed through one random near-miss mutation with probability
/// [`GenModel::with_mutation_probability`].
#[derive(Debug, Clone)]
pub struct GenModel {
    /// The anchor property: mutation alphabet and episode language.
    anchor: Property,
    /// The anchor's alphabet, which a mutation injects names from.
    alphabet: Vec<Name>,
    /// All monitored property texts (the anchor first).
    texts: Vec<String>,
    voc: Vocabulary,
    /// `Some` — mutate this fixed trace; `None` — generate per episode.
    base: Option<Trace>,
    generator: GeneratorConfig,
    mutation_probability: f64,
}

impl GenModel {
    /// A model monitoring `texts` (the first is the *anchor* whose language
    /// and alphabet drive generation and mutation), generating a fresh
    /// satisfying trace per episode.
    ///
    /// # Errors
    ///
    /// Returns the parse error rendered against the offending source if the
    /// anchor does not parse. (Later properties are validated by the
    /// campaign's engine compilation.)
    pub fn new(texts: Vec<String>) -> Result<Self, String> {
        Self::build(texts, Vocabulary::new(), None)
    }

    /// A model mutating a fixed base trace instead of generating one per
    /// episode. `voc` must be the vocabulary the trace was loaded against
    /// (the anchor is parsed against it, so trace and property names
    /// agree) — this is `lomon smc --trace`.
    ///
    /// # Errors
    ///
    /// Returns the rendered parse error if the anchor does not parse.
    pub fn from_trace(texts: Vec<String>, base: Trace, voc: Vocabulary) -> Result<Self, String> {
        Self::build(texts, voc, Some(base))
    }

    fn build(texts: Vec<String>, mut voc: Vocabulary, base: Option<Trace>) -> Result<Self, String> {
        let first = texts
            .first()
            .ok_or("a GenModel needs at least one property")?;
        let anchor = parse_property(first, &mut voc).map_err(|e| e.display_with_source(first))?;
        Ok(GenModel {
            alphabet: anchor.alpha().iter().collect(),
            anchor,
            texts,
            voc,
            base,
            generator: GeneratorConfig::new(0),
            mutation_probability: 0.5,
        })
    }

    /// Per-episode probability of applying one single-edit mutation
    /// (default `0.5`).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn with_mutation_probability(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "mutation probability {p} out of [0,1]"
        );
        self.mutation_probability = p;
        self
    }
}

impl EpisodeModel for GenModel {
    fn properties(&self) -> Vec<String> {
        self.texts.clone()
    }

    fn vocabulary(&self) -> Vocabulary {
        self.voc.clone()
    }

    fn episode(&self, seed: u64, out: &mut Vec<TimedEvent>) -> SimTime {
        let mut rng = StdRng::seed_from_u64(seed);
        let generated;
        let base = match &self.base {
            Some(base) => base,
            None => {
                let config = GeneratorConfig {
                    seed: rng.next_u64(),
                    ..self.generator
                };
                generated = generate(&self.anchor, &config).trace;
                &generated
            }
        };
        let mutated;
        let trace = if rng.gen_bool(self.mutation_probability) {
            // `lomon_gen::mutate`'s one edit, drawn from the generator it
            // seeds, without the oracle label the episode has no use for.
            let mut edit_rng = StdRng::seed_from_u64(rng.next_u64());
            let names: Vec<Name> = base.names().collect();
            if names.is_empty() {
                base // nothing to edit
            } else {
                mutated = Trace::from_names(edit(&names, &self.alphabet, &mut edit_rng).1);
                &mutated
            }
        } else {
            base
        };
        out.extend_from_slice(trace.events());
        trace.end_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_model_exposes_the_case_study() {
        let model = ScenarioModel::new(ScenarioConfig::nominal(1));
        let texts = model.properties();
        assert_eq!(texts.len(), 2);
        assert!(texts[0].contains("set_imgAddr"));
        let mut voc = model.vocabulary();
        // Every property name is pre-interned by the platform vocabulary.
        for text in &texts {
            parse_property(text, &mut voc).expect("case-study property parses");
        }
    }

    #[test]
    fn scenario_episodes_are_seed_deterministic() {
        let model = ScenarioModel::new(ScenarioConfig::nominal(1)).with_fault_probability(0.5);
        let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
        let end_a = model.episode(99, &mut a);
        let end_b = model.episode(99, &mut b);
        let _ = model.episode(100, &mut c);
        assert_eq!(a, b);
        assert_eq!(end_a, end_b);
        assert_ne!(a, c);
    }

    #[test]
    fn scenario_trace_names_resolve_in_the_model_vocabulary() {
        let model = ScenarioModel::new(ScenarioConfig::nominal(3));
        let voc = model.vocabulary();
        let mut events = Vec::new();
        model.episode(7, &mut events);
        assert!(!events.is_empty());
        for event in &events {
            // Resolving panics on an out-of-vocabulary name.
            let _ = voc.resolve(event.name);
        }
    }

    #[test]
    fn gen_model_generates_and_mutates() {
        let model = GenModel::new(vec!["all{a, b} << go repeated".into()])
            .expect("anchor parses")
            .with_mutation_probability(1.0);
        let mut out = Vec::new();
        let end = model.episode(5, &mut out);
        assert!(!out.is_empty());
        assert!(end >= out.last().unwrap().time);
        // Determinism per seed.
        let mut again = Vec::new();
        model.episode(5, &mut again);
        assert_eq!(out, again);
    }

    /// `smc --trace` episodes are the mutants `lomon_gen::mutate` draws
    /// from the same seeds, labelled or not.
    #[test]
    fn trace_episodes_are_the_mutants_mutate_draws() {
        let text = "all{a, b} < any{c[2,3], d} << go repeated";
        let mut voc = Vocabulary::new();
        let anchor = parse_property(text, &mut voc).expect("anchor parses");
        let base = generate(&anchor, &GeneratorConfig::new(3)).trace;
        for p in [1.0, 0.5] {
            let model = GenModel::from_trace(vec![text.into()], base.clone(), voc.clone())
                .expect("anchor parses")
                .with_mutation_probability(p);
            for seed in 0..200 {
                let mut rng = StdRng::seed_from_u64(seed);
                let expected = if rng.gen_bool(p) {
                    let mut mutants = lomon_gen::mutate(&anchor, &base, 1, rng.next_u64());
                    mutants.pop().expect("a non-empty base").trace
                } else {
                    base.clone()
                };
                let mut events = Vec::new();
                let end = model.episode(seed, &mut events);
                assert_eq!(events, expected.events(), "p {p}, seed {seed}");
                assert_eq!(end, expected.end_time(), "p {p}, seed {seed}");
            }
        }
    }

    #[test]
    fn gen_model_rejects_garbage_anchors() {
        assert!(GenModel::new(vec!["all{unclosed << go".into()]).is_err());
        assert!(GenModel::new(Vec::new()).is_err());
    }
}
