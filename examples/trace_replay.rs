//! Trace-replay monitoring: record a platform run to a trace file, then
//! replay the file offline through freshly built monitors — the workflow
//! this reproduction targets (there are no SystemC bindings for Rust, so
//! traces are the interchange format with real SystemC models).
//!
//! ```sh
//! cargo run --example trace_replay
//! ```

use lomon::core::monitor::build_monitor;
use lomon::core::parse::parse_property;
use lomon::core::verdict::run_to_end;
use lomon::tlm::scenario::{run_scenario, ScenarioConfig};
use lomon::trace::{read_trace_bytes, write_trace, Vocabulary};

fn main() {
    // 1. Record: run the platform once and serialize the observed trace.
    let report = run_scenario(&ScenarioConfig::nominal(77));
    let text = write_trace(&report.trace, &report.vocabulary);
    let path = std::env::temp_dir().join("lomon_replay.trace");
    std::fs::write(&path, &text).expect("trace file written");
    println!(
        "recorded {} events to {} ({} bytes)",
        report.trace.len(),
        path.display(),
        text.len()
    );
    println!("first lines:");
    for line in text.lines().take(6) {
        println!("  {line}");
    }
    println!("  …");

    // 2. Replay: read the file back into a fresh vocabulary and run the
    //    monitors offline.
    let loaded = std::fs::read(&path).expect("trace file read");
    let mut voc = Vocabulary::new();
    let trace = read_trace_bytes(&loaded, &mut voc).expect("trace parses");
    println!();
    println!("replaying {} events offline:", trace.len());

    for text in [
        "all{set_imgAddr, set_glAddr, set_glSize} << start repeated",
        "start => read_img[6,6] < set_irq within 20000 ns",
        // An extra property only checked offline: every button press is
        // eventually answered by an LCD update within 1ms.
        "btn_press => lcd_update within 1 ms",
    ] {
        let property = parse_property(text, &mut voc).expect("property parses");
        let mut monitor = build_monitor(property, &voc).expect("well-formed");
        let verdict = run_to_end(&mut monitor, &trace);
        println!("  {text:<55} → {verdict}");
    }
}
