//! Sweep S2: monitor cost vs fragment size `k` for `all{n1..nk} << i once`
//! — the curve behind Fig. 6 rows 3/4. Both strategies grow with `k`, but
//! Drct stays roughly an order of magnitude below ViaPSL. Under each row's
//! ops columns, each monitor's wall-clock ns/event (ViaPSL where it is
//! materialized).
//!
//! Run with `cargo run -p lomon-bench --bin sweep_names --release`.

use lomon_bench::{ns_per_event, scale, REPS};
use lomon_core::complexity::{drct_cost, measure_drct};
use lomon_gen::{generate, GeneratorConfig};
use lomon_psl::complexity::viapsl_cost;
use lomon_trace::Vocabulary;

fn main() {
    println!("S2 — cost vs fragment size, property all{{n1..nk}} << i once");
    println!("(under each ops column: wall-clock ns/event, fastest of {REPS} interleaved runs)");
    println!(
        "{:>4} {:>12} {:>12} {:>14} {:>14} {:>8}",
        "k", "Drct ops", "Drct bits", "ViaPSL ops", "ViaPSL bits", "ratio"
    );
    for k in 1..=16usize {
        let mut voc = Vocabulary::new();
        let property = lomon_bench::names_sweep_property(k, &mut voc);
        let workload = generate(&property, &GeneratorConfig::new(11)).trace;
        let measured = measure_drct(&property, &workload, &voc);
        let bits = drct_cost(&property).state_bits;
        let psl = viapsl_cost(&property).expect("translatable");
        println!(
            "{:>4} {:>12} {:>12} {:>14} {:>14} {:>8.1}",
            k,
            scale(measured.ops_per_event),
            bits,
            scale(psl.ops_per_event as f64),
            scale(psl.state_bits as f64),
            psl.ops_per_event as f64 / measured.ops_per_event.max(1e-9),
        );
        let (drct_ns, psl_ns) = ns_per_event(&property, &voc, &workload);
        println!(
            "{:>4} {:>12} {:>12} {:>14}",
            "",
            format!("{drct_ns:.1} ns"),
            "",
            psl_ns.map_or("not materialized".into(), |ns| format!("{ns:.1} ns")),
        );
    }
    println!();
    println!("Expected shape: both linear-ish in k (plus the quadratic Asynch");
    println!("pair term on the ViaPSL side); Drct consistently cheaper.");
}
