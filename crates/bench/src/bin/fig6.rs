//! Regenerate the paper's Fig. 6: Drct vs ViaPSL time/space for the six
//! configurations, paper numbers next to this repository's model and
//! measurements. Under each row's time columns, each monitor's wall-clock
//! ns/event on the row's workload (ViaPSL where it is materialized).
//!
//! Run with `cargo run -p lomon-bench --bin fig6 --release`.

use lomon_bench::{evaluate_row, fig6_rows, ns_per_event, scale, REPS};

fn main() {
    println!("Fig. 6 — Comparison of Drct and ViaPSL strategies");
    println!(
        "(paper numbers | this repository; ViaPSL entries exclude the lexer Δ, shown separately)"
    );
    println!("(under each time column: wall-clock ns/event, fastest of {REPS} interleaved runs)");
    println!();
    println!(
        "{:<34} {:>22} {:>22} {:>26} {:>26}",
        "Configuration",
        "Drct time (ops)",
        "Drct space (bits)",
        "ViaPSL time (ops)",
        "ViaPSL space (bits)"
    );
    println!("{}", "-".repeat(135));
    // Each row is evaluated once: the table and the shape checks below
    // read the same results.
    let mut results = Vec::new();
    for row in fig6_rows() {
        let result = evaluate_row(&row, 42);
        let viapsl_ops = match result.viapsl_ops_measured {
            Some(measured) => format!(
                "{} | {} (meas {})",
                scale(row.paper.viapsl_ops),
                scale(result.viapsl_ops_model as f64),
                scale(measured),
            ),
            None => format!(
                "{} | {} (model)",
                scale(row.paper.viapsl_ops),
                scale(result.viapsl_ops_model as f64),
            ),
        };
        let viapsl_bits = match result.viapsl_bits_measured {
            Some(measured) => format!(
                "{} | {} (meas {})",
                scale(row.paper.viapsl_bits),
                scale(result.viapsl_bits_model as f64),
                scale(measured as f64),
            ),
            None => format!(
                "{} | {} (model)",
                scale(row.paper.viapsl_bits),
                scale(result.viapsl_bits_model as f64),
            ),
        };
        println!(
            "{:<34} {:>22} {:>22} {:>26} {:>26}",
            row.label,
            format!("{} | {}", scale(row.paper.drct_ops), scale(result.drct_ops)),
            format!(
                "{} | {}",
                scale(row.paper.drct_bits),
                scale(result.drct_bits as f64)
            ),
            viapsl_ops,
            viapsl_bits,
        );
        let (drct_ns, psl_ns) =
            ns_per_event(&result.property, &result.vocabulary, &result.workload);
        println!(
            "{:<34} {:>22} {:>22} {:>26}",
            "",
            format!("{drct_ns:.1} ns/event"),
            "",
            psl_ns.map_or("not materialized".into(), |ns| format!("{ns:.1} ns/event")),
        );
        if result.delta.0 > 0 {
            println!(
                "{:<34} {:>22} {:>22} {:>26} {:>26}",
                "",
                "",
                "",
                format!("Δ = {} ops/event", result.delta.0),
                format!("Δ = {} bits", result.delta.1),
            );
        }
        results.push(result);
    }
    println!();
    println!("Shape checks (the paper's claims):");
    let r = |row: usize| &results[row - 1];
    println!(
        "  rows 1→2  Drct ops ratio {:.2} (paper 1.00) — range widths are free for Drct",
        r(2).drct_ops / r(1).drct_ops
    );
    println!(
        "  rows 1→2  ViaPSL ops ratio {:.2e} (paper {:.2e}) — quadratic range blow-up",
        r(2).viapsl_ops_model as f64 / r(1).viapsl_ops_model as f64,
        4e11 / 238.0
    );
    println!(
        "  rows 3→4  Drct ops ratio {:.2} (paper {:.2}) — linear in fragment size",
        r(4).drct_ops / r(3).drct_ops,
        280.0 / 230.0
    );
    println!(
        "  rows 3→4  ViaPSL ops ratio {:.2} (paper {:.2})",
        r(4).viapsl_ops_model as f64 / r(3).viapsl_ops_model as f64,
        2142.0 / 1785.0
    );
    println!(
        "  rows 5→6  Drct ops ratio {:.2} (paper 1.00)",
        r(6).drct_ops / r(5).drct_ops
    );
    println!(
        "  per row   Drct < ViaPSL: {}",
        results
            .iter()
            .all(|r| (r.drct_ops as u64) < r.viapsl_ops_model)
    );
}
