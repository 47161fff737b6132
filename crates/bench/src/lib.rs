//! # lomon-bench — the evaluation harness
//!
//! Regenerates the paper's evaluation exhibits (README, "Examples and
//! benches"):
//!
//! * **F6** — the Fig. 6 table (`cargo run -p lomon-bench --bin fig6`);
//! * **S1** — range-width sweep (`--bin sweep_range`);
//! * **S2** — fragment-size sweep (`--bin sweep_names`);
//! * **S3** — platform monitoring overhead (`--bin platform_overhead`);
//! * **S4** — generator agreement & throughput (`--bin gen_check`).
//!
//! Beside their operation and bit counts, `fig6`, `sweep_range` and
//! `sweep_names` print each monitor's wall-clock ns/event
//! ([`ns_per_event`]), `gen_check` the cost of one `generate` and one
//! `mutate` call, and `platform_overhead` monitored against bare platform
//! runs. Every one of those legs is timed by [`gate::best_of`].
//!
//! This library holds the shared harness: the six Fig. 6 configurations,
//! per-strategy measurement, and table formatting; the CI timing gates'
//! flags, timing, baselines and ratchet ([`gate`]); and their workloads
//! ([`workloads`]).

pub mod gate;
pub mod workloads;

use std::time::Instant;

use lomon_core::ast::Property;
use lomon_core::complexity::{drct_cost, measure_drct};
use lomon_core::monitor::build_monitor;
use lomon_core::parse::parse_property;
use lomon_core::verdict::Monitor;
use lomon_gen::{generate, GeneratorConfig};
use lomon_psl::complexity::viapsl_cost;
use lomon_psl::monitor::PslMonitor;
use lomon_psl::translate::TranslateOptions;
use lomon_trace::{Trace, Vocabulary};

/// The paper's numbers for one Fig. 6 row (`ViaPSL` entries are `+∆`).
#[derive(Debug, Clone, Copy)]
pub struct PaperNumbers {
    /// Drct time (operations per event).
    pub drct_ops: f64,
    /// Drct space (bits).
    pub drct_bits: f64,
    /// ViaPSL time (operations per event, excluding ∆).
    pub viapsl_ops: f64,
    /// ViaPSL space (bits, excluding ∆).
    pub viapsl_bits: f64,
}

/// One Fig. 6 configuration.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Row number (1-based, as in the paper).
    pub id: usize,
    /// The paper's notation for the configuration.
    pub label: &'static str,
    /// The property in this repository's textual language.
    pub text: &'static str,
    /// The paper's reported numbers.
    pub paper: PaperNumbers,
}

/// The six configurations of the paper's Fig. 6, verbatim.
pub fn fig6_rows() -> Vec<Fig6Row> {
    vec![
        Fig6Row {
            id: 1,
            label: "(n << i, true)",
            text: "n << i repeated",
            paper: PaperNumbers {
                drct_ops: 80.0,
                drct_bits: 192.0,
                viapsl_ops: 238.0,
                viapsl_bits: 896.0,
            },
        },
        Fig6Row {
            id: 2,
            label: "(n[100,60K] << i, true)",
            text: "n[100,60000] << i repeated",
            paper: PaperNumbers {
                drct_ops: 80.0,
                drct_bits: 192.0,
                viapsl_ops: 4e11,
                viapsl_bits: 2e12,
            },
        },
        Fig6Row {
            id: 3,
            label: "(({n1..n4},∧) << i, false)",
            text: "all{n1, n2, n3, n4} << i once",
            paper: PaperNumbers {
                drct_ops: 230.0,
                drct_bits: 1132.0,
                viapsl_ops: 1785.0,
                viapsl_bits: 6720.0,
            },
        },
        Fig6Row {
            id: 4,
            label: "(({n1..n5},∧) << i, false)",
            text: "all{n1, n2, n3, n4, n5} << i once",
            paper: PaperNumbers {
                drct_ops: 280.0,
                drct_bits: 1568.0,
                viapsl_ops: 2142.0,
                viapsl_bits: 8064.0,
            },
        },
        Fig6Row {
            id: 5,
            label: "(n1 ⇒ n2 < n3 < n4, T)",
            text: "n1 => n2 < n3 < n4 within 1 ms",
            paper: PaperNumbers {
                drct_ops: 296.0,
                drct_bits: 1051.0,
                viapsl_ops: 1428.0,
                viapsl_bits: 5376.0,
            },
        },
        Fig6Row {
            id: 6,
            label: "(n1 ⇒ n2[100,60K] < n3 < n4, T)",
            text: "n1 => n2[100,60000] < n3 < n4 within 1 ms",
            paper: PaperNumbers {
                drct_ops: 296.0,
                drct_bits: 1051.0,
                viapsl_ops: 4e11,
                viapsl_bits: 2e12,
            },
        },
    ]
}

/// Our measurements for one configuration.
#[derive(Debug, Clone)]
pub struct RowResult {
    /// The parsed property.
    pub property: Property,
    /// Vocabulary the property is written against.
    pub vocabulary: Vocabulary,
    /// The satisfying workload the monitors were driven with.
    pub workload: Trace,
    /// Drct: measured average operations per event.
    pub drct_ops: f64,
    /// Drct: exact mutable state bits.
    pub drct_bits: u64,
    /// Drct: the paper's Θ-unit (max fragment alphabet).
    pub drct_theta: u64,
    /// ViaPSL: closed-form operations per event (formula nodes).
    pub viapsl_ops_model: u64,
    /// ViaPSL: closed-form state bits.
    pub viapsl_bits_model: u64,
    /// ViaPSL: measured ops/event on the workload (materializable only).
    pub viapsl_ops_measured: Option<f64>,
    /// ViaPSL: measured state bits (materializable only).
    pub viapsl_bits_measured: Option<u64>,
    /// The lexer ∆ (per-event ops, state bits).
    pub delta: (u64, u64),
}

/// Build the property, generate a satisfying workload and measure both
/// strategies.
///
/// # Panics
///
/// Panics if the row's property text fails to parse (a harness bug).
pub fn evaluate_row(row: &Fig6Row, seed: u64) -> RowResult {
    let mut vocabulary = Vocabulary::new();
    let property = parse_property(row.text, &mut vocabulary).expect("row property parses");
    let workload = generate(
        &property,
        &GeneratorConfig {
            episodes: 3,
            ..GeneratorConfig::new(seed)
        },
    )
    .trace;

    let drct_static = drct_cost(&property);
    let drct_measured = measure_drct(&property, &workload, &vocabulary);

    let psl_model = viapsl_cost(&property).expect("fig6 rows are translatable");
    let (viapsl_ops_measured, viapsl_bits_measured) =
        match PslMonitor::build_with(&property, MATERIALIZE) {
            Ok(mut monitor) => {
                for &event in workload.iter() {
                    monitor.observe(event);
                }
                monitor.finish(workload.end_time());
                let events = workload.len().max(1) as f64;
                (
                    Some(monitor.ops() as f64 / events),
                    Some(monitor.state_bits()),
                )
            }
            Err(_) => (None, None),
        };

    RowResult {
        property,
        vocabulary,
        workload,
        drct_ops: drct_measured.ops_per_event,
        drct_bits: drct_measured.state_bits,
        drct_theta: drct_static.theta_time,
        viapsl_ops_model: psl_model.ops_per_event,
        viapsl_bits_model: psl_model.state_bits,
        viapsl_ops_measured,
        viapsl_bits_measured,
        delta: (psl_model.delta_ops, psl_model.delta_bits),
    }
}

/// The translation limit up to which the exhibits build (and so measure
/// and time) a ViaPSL monitor; above it only the closed-form cost is shown.
pub const MATERIALIZE: TranslateOptions = TranslateOptions {
    conjunct_limit: 100_000,
};

/// Interleaved runs per timed leg; each leg keeps its fastest.
pub const REPS: usize = 15;

/// Events per timed run at least: a shorter workload is replayed through
/// as many fresh monitors as it takes under one timer, so that the
/// timer's own cost (~90 ns a read pair on a shared 2-vCPU host) is a few
/// percent of a run, not most of it, on the few-event workloads of the
/// small rows. More copies would mostly add clones of the large ViaPSL
/// monitors, which cost milliseconds each.
const RUN_EVENTS: usize = 256;

/// Wall-clock ns/event of `property`'s Drct monitor and, where
/// [`MATERIALIZE`] builds it, of its ViaPSL monitor, each observing every
/// event of `workload`. The two legs run interleaved ([`gate::best_of`],
/// [`REPS`] runs); every run's monitors are cloned outside the timer.
///
/// # Panics
///
/// Panics if `property` is ill-formed against `voc` (a harness bug).
pub fn ns_per_event(property: &Property, voc: &Vocabulary, workload: &Trace) -> (f64, Option<f64>) {
    let copies = RUN_EVENTS.div_ceil(workload.len().max(1));
    let drct = build_monitor(property.clone(), voc)
        .expect("well-formed")
        .without_diagnostics();
    let psl = PslMonitor::build_with(property, MATERIALIZE).ok();
    let [drct_ns, psl_ns] = gate::best_of(REPS, |leg| match (leg, &psl) {
        (0, _) => time_copies(vec![drct.clone(); copies], workload),
        (_, Some(psl)) => time_copies(vec![psl.clone(); copies], workload),
        (_, None) => 0,
    });
    let per_event = |ns: u128| ns as f64 / (copies * workload.len()).max(1) as f64;
    (per_event(drct_ns), psl.map(|_| per_event(psl_ns)))
}

/// One timed run: each of `monitors` observes every event of `workload`,
/// then its verdict is read.
fn time_copies(mut monitors: Vec<impl Monitor>, workload: &Trace) -> u128 {
    let started = Instant::now();
    for monitor in &mut monitors {
        for &event in workload.iter() {
            monitor.observe(event);
        }
        std::hint::black_box(monitor.verdict());
    }
    started.elapsed().as_nanos()
}

/// Human-scale rendering of large counts (`3.59e9`-style above 10⁶).
pub fn scale(value: f64) -> String {
    if value >= 1e6 {
        format!("{value:.2e}")
    } else if value >= 100.0 {
        format!("{value:.0}")
    } else {
        format!("{value:.1}")
    }
}

/// A property of the sweep family `n[1,v] << i repeated`.
pub fn range_sweep_property(width: u32, voc: &mut Vocabulary) -> Property {
    parse_property(&format!("n[1,{width}] << i repeated"), voc).expect("sweep property parses")
}

/// A property of the sweep family `all{n1..nk} << i once`.
pub fn names_sweep_property(k: usize, voc: &mut Vocabulary) -> Property {
    let names: Vec<String> = (1..=k).map(|j| format!("n{j}")).collect();
    parse_property(&format!("all{{{}}} << i once", names.join(", ")), voc)
        .expect("sweep property parses")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_rows_evaluate() {
        for row in fig6_rows() {
            let result = evaluate_row(&row, 1);
            assert!(result.drct_ops > 0.0, "row {}", row.id);
            assert!(result.drct_bits > 0, "row {}", row.id);
            assert!(result.viapsl_ops_model > 0, "row {}", row.id);
        }
    }

    #[test]
    fn headline_shape_drct_flat_viapsl_explodes() {
        let rows = fig6_rows();
        let r1 = evaluate_row(&rows[0], 1);
        let r2 = evaluate_row(&rows[1], 1);
        // Drct: same Θ, measured ops within a small constant factor (the
        // event mix differs, the width plays no role), small bit growth
        // (counter width only).
        assert_eq!(r1.drct_theta, r2.drct_theta);
        let ratio = r2.drct_ops / r1.drct_ops;
        assert!((0.5..1.5).contains(&ratio), "Drct ops ratio {ratio}");
        assert!(r2.drct_bits - r1.drct_bits <= 16);
        // ViaPSL: ≥ 10⁶× blow-up in the model.
        assert!(r2.viapsl_ops_model / r1.viapsl_ops_model.max(1) > 1_000_000);
        // Row 2 is not materializable.
        assert!(r2.viapsl_ops_measured.is_none());
        assert!(r1.viapsl_ops_measured.is_some());
    }

    #[test]
    fn fragment_rows_grow_mildly() {
        let rows = fig6_rows();
        let r3 = evaluate_row(&rows[2], 1);
        let r4 = evaluate_row(&rows[3], 1);
        assert!(r4.drct_bits > r3.drct_bits);
        assert!(r4.viapsl_ops_model > r3.viapsl_ops_model);
        assert!(r4.viapsl_ops_model < 2 * r3.viapsl_ops_model);
    }

    #[test]
    fn timed_rows_match_between_widths() {
        let rows = fig6_rows();
        let r5 = evaluate_row(&rows[4], 1);
        let r6 = evaluate_row(&rows[5], 1);
        assert_eq!(r5.drct_theta, r6.drct_theta);
        assert!(r6.viapsl_ops_model / r5.viapsl_ops_model.max(1) > 1_000_000);
    }

    #[test]
    fn viapsl_is_timed_only_where_materialized() {
        for (width, materialized) in [(16, true), (1024, false)] {
            let mut voc = Vocabulary::new();
            let property = range_sweep_property(width, &mut voc);
            let workload = generate(&property, &GeneratorConfig::new(7)).trace;
            let (drct, psl) = ns_per_event(&property, &voc, &workload);
            assert!(drct > 0.0, "width {width}");
            assert_eq!(psl.is_some(), materialized, "width {width}");
        }
    }

    #[test]
    fn scale_formats() {
        assert_eq!(scale(3.0), "3.0");
        assert_eq!(scale(238.0), "238");
        assert_eq!(scale(4e11), "4.00e11");
    }
}
