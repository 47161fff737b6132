//! Sweep S1: monitor cost vs range width `v` for `n[1,v] << i repeated` —
//! the curve behind Fig. 6 rows 1/2 and 5/6. Drct stays flat; ViaPSL grows
//! as `v²`. Under each row's ops columns, each monitor's wall-clock
//! ns/event (ViaPSL where it is materialized).
//!
//! Run with `cargo run -p lomon-bench --bin sweep_range --release`.

use lomon_bench::{ns_per_event, scale, REPS};
use lomon_core::complexity::{drct_cost, measure_drct};
use lomon_gen::{generate, GeneratorConfig};
use lomon_psl::complexity::viapsl_cost;
use lomon_trace::Vocabulary;

fn main() {
    println!("S1 — cost vs range width, property n[1,v] << i repeated");
    println!("(under each ops column: wall-clock ns/event, fastest of {REPS} interleaved runs)");
    println!(
        "{:>8} {:>14} {:>14} {:>18} {:>18}",
        "v", "Drct ops", "Drct bits", "ViaPSL ops", "ViaPSL bits"
    );
    for width in [1u32, 2, 4, 8, 16, 64, 256, 1024, 4096, 16384, 60000] {
        let mut voc = Vocabulary::new();
        let property = lomon_bench::range_sweep_property(width, &mut voc);
        let workload = generate(
            &property,
            &GeneratorConfig {
                episodes: 2,
                ..GeneratorConfig::new(7)
            },
        )
        .trace;
        let measured = measure_drct(&property, &workload, &voc);
        let bits = drct_cost(&property).state_bits;
        let psl = viapsl_cost(&property).expect("translatable");
        println!(
            "{:>8} {:>14} {:>14} {:>18} {:>18}",
            width,
            scale(measured.ops_per_event),
            bits,
            scale(psl.ops_per_event as f64),
            scale(psl.state_bits as f64),
        );
        let (drct_ns, psl_ns) = ns_per_event(&property, &voc, &workload);
        println!(
            "{:>8} {:>14} {:>14} {:>18}",
            "",
            format!("{drct_ns:.1} ns"),
            "",
            psl_ns.map_or("not materialized".into(), |ns| format!("{ns:.1} ns")),
        );
    }
    println!();
    println!("Expected shape: Drct columns constant (modulo counter bits);");
    println!("ViaPSL columns quadratic in v — the paper's headline contrast.");
}
