//! The full case study: simulate the access-control device of the paper's
//! Fig. 2 with both case-study properties monitored online, under a nominal
//! run and under every fault injection.
//!
//! ```sh
//! cargo run --example face_recognition
//! ```

use lomon::tlm::platform::FaultPlan;
use lomon::tlm::scenario::{run_scenario, ScenarioConfig};

fn main() {
    let scenarios: Vec<(&str, FaultPlan)> = vec![
        ("nominal", FaultPlan::default()),
        (
            "skip one register write",
            FaultPlan {
                skip_register: Some(1),
                ..FaultPlan::default()
            },
        ),
        (
            "start before last write",
            FaultPlan {
                early_start: true,
                ..FaultPlan::default()
            },
        ),
        (
            "IPU drops its interrupt",
            FaultPlan {
                drop_irq: true,
                ..FaultPlan::default()
            },
        ),
        (
            "IPU interrupts after 1 read",
            FaultPlan {
                early_irq: true,
                ..FaultPlan::default()
            },
        ),
        (
            "IPU reads beyond gallery",
            FaultPlan {
                extra_reads: 3,
                ..FaultPlan::default()
            },
        ),
        (
            "IPU 50x slower than budget",
            FaultPlan {
                slowdown: 50,
                ..FaultPlan::default()
            },
        ),
        (
            "software double start",
            FaultPlan {
                double_start: true,
                ..FaultPlan::default()
            },
        ),
    ];

    println!("Face-recognition platform, two monitored properties:");
    println!("  example2: all{{set_imgAddr, set_glAddr, set_glSize}} << start repeated");
    println!("  example3: start => read_img[gl,gl] < set_irq within budget");
    println!();

    for (label, fault) in scenarios {
        let config = ScenarioConfig::nominal(2026).with_fault(fault);
        let report = run_scenario(&config);
        println!("scenario: {label}");
        for (property, verdict) in &report.verdicts {
            println!("  {property:<10} → {verdict}");
        }
        if let Some(violation) = &report.violation {
            println!("  first violation: {violation}");
        }
        println!(
            "  ({} interface events, simulated {}, {} kernel dispatches)",
            report.trace.len(),
            report.end_time,
            report.dispatched
        );
        println!();
    }
}
