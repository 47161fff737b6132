//! S4: the §8 future-work generator in the verification loop — generate
//! labelled stimuli from the Fig. 6 patterns, replay them through the Drct
//! monitors, and report agreement and coverage; then time one `generate`
//! and one `mutate` call on the Fig. 4 pattern.
//!
//! Run with `cargo run -p lomon-bench --bin gen_check --release`.

use std::time::Instant;

use lomon_bench::{fig6_rows, gate, REPS};
use lomon_core::monitor::build_monitor;
use lomon_core::parse::parse_property;
use lomon_core::verdict::{Monitor as _, Verdict};
use lomon_gen::{generate, generate_until_covered, mutate, GeneratorConfig};
use lomon_trace::Vocabulary;

fn main() {
    println!("S4 — stimuli generation vs monitors, Fig. 6 patterns");
    println!(
        "{:<34} {:>10} {:>10} {:>10} {:>10}",
        "Configuration", "positives", "mutants", "violating", "coverage"
    );
    for row in fig6_rows() {
        let mut voc = Vocabulary::new();
        let property = parse_property(row.text, &mut voc).expect("parses");

        // The wide-range rows generate ~30k-event episodes and their
        // reference NFA has ~60k states: scale the effort there (coverage
        // of the exact boundary counts of a 59901-wide range is also not a
        // reachable target for uniform sampling — the partial figure is
        // informative as-is).
        let wide = row.text.contains("60000");
        let (positives_n, mutants_n, coverage_cap) = if wide {
            (5u64, 10u32, 5u32)
        } else {
            (50, 100, 300)
        };

        // Positives: generated traces, all must be accepted.
        let mut positives = 0;
        for seed in 0..positives_n {
            let trace = generate(&property, &GeneratorConfig::new(seed)).trace;
            let mut monitor = build_monitor(property.clone(), &voc).expect("wf");
            for &e in trace.iter() {
                monitor.observe(e);
            }
            assert_ne!(
                monitor.verdict(),
                Verdict::Violated,
                "row {}: generated trace rejected",
                row.id
            );
            positives += 1;
        }

        // Mutants: labelled by the oracle; monitors must agree.
        let base = generate(&property, &GeneratorConfig::new(999)).trace;
        let mutants = if wide {
            Vec::new() // the oracle NFA is too large for per-mutant replay
        } else {
            mutate(&property, &base, mutants_n, 7)
        };
        let mut violating = 0;
        for mutant in &mutants {
            let mut monitor = build_monitor(property.clone(), &voc).expect("wf");
            for &e in mutant.trace.iter() {
                monitor.observe(e);
            }
            let monitor_ok = monitor.verdict() != Verdict::Violated;
            assert_eq!(
                monitor_ok,
                !mutant.violates(),
                "row {}: monitor/oracle disagreement",
                row.id
            );
            if mutant.violates() {
                violating += 1;
            }
        }

        // Coverage-directed generation.
        let (_traces, coverage) =
            generate_until_covered(&property, &GeneratorConfig::new(5), 1.0, coverage_cap);

        println!(
            "{:<34} {:>10} {:>10} {:>10} {:>9.0}%",
            row.label,
            positives,
            mutants.len(),
            violating,
            coverage.overall() * 100.0
        );
    }
    println!();
    println!("All generated positives accepted; all mutant labels agreed with");
    println!("the monitors (assertions would have fired otherwise).");

    let mut voc = Vocabulary::new();
    let fig4 = "all{n1, n2} < any{n3[2,8], n4} < n5 << i repeated";
    let property = parse_property(fig4, &mut voc).expect("parses");
    let config = GeneratorConfig::new(1);
    let base = generate(&property, &config).trace;
    let [generate_ns, mutate_ns] = gate::best_of(REPS, |leg| {
        let started = Instant::now();
        std::hint::black_box(match leg {
            0 => generate(&property, &config).trace.len(),
            _ => mutate(&property, &base, 10, 7).len(),
        });
        started.elapsed().as_nanos()
    });
    println!();
    println!("Generator cost on the Fig. 4 pattern {fig4}");
    println!("(wall clock per call, fastest of {REPS} interleaved runs):");
    println!(
        "  generate ({} events): {:.1} µs",
        base.len(),
        generate_ns as f64 / 1e3
    );
    println!("  mutate (10 mutants): {:.1} µs", mutate_ns as f64 / 1e3);
}
