//! S3: monitoring overhead on the virtual platform — the Fig. 1/2 framework
//! in action. Runs the face-recognition scenario with and without online
//! monitors and compares wall-clock time and kernel dispatch counts; the
//! two legs run interleaved and each keeps its fastest batch.
//!
//! Run with `cargo run -p lomon-bench --bin platform_overhead --release`.

use std::time::Instant;

use lomon_bench::{gate, REPS};
use lomon_tlm::scenario::{run_scenario, ScenarioConfig};

/// Kernel dispatches and interface events of `runs` nominal scenario
/// runs, with or without the online monitors.
fn measure(monitors: bool, runs: u32) -> (u64, usize) {
    let mut dispatched = 0;
    let mut events = 0;
    for seed in 0..runs {
        let mut config = ScenarioConfig::nominal(u64::from(seed) + 1);
        config.captures = 16;
        config.monitors = monitors;
        let report = run_scenario(&config);
        assert!(report.all_ok(), "nominal scenario must stay clean");
        dispatched += report.dispatched;
        events += report.trace.len();
    }
    (dispatched, events)
}

fn main() {
    const RUNS: u32 = 150;
    println!("S3 — platform monitoring overhead ({RUNS} nominal runs, 16 captures each)");
    println!("(wall clock: each leg's fastest of {REPS} interleaved batches of {RUNS} runs)");
    let mut counts = [(0, 0); 2];
    let [with, without] = gate::best_of(REPS, |leg| {
        let started = Instant::now();
        counts[leg] = measure(leg == 0, RUNS);
        started.elapsed().as_nanos()
    });
    let (with, without) = (with as f64 / 1e9, without as f64 / 1e9);
    let [(dispatched_with, events), (dispatched_without, _)] = counts;
    println!("  without monitors: {without:.3}s  ({dispatched_without} kernel dispatches)");
    println!("  with    monitors: {with:.3}s  ({dispatched_with} kernel dispatches)");
    println!("  interface events observed: {events}");
    let overhead = (with - without) / without.max(1e-9) * 100.0;
    let per_event_ns = (with - without) / events.max(1) as f64 * 1e9;
    println!("  relative overhead: {overhead:.1}%");
    println!("  monitor cost per observed event: {per_event_ns:.0} ns");
    println!();
    println!("Expected shape: sub-microsecond monitor cost per event (the Drct");
    println!("monitors do Θ(max |α(F)|) work per event). The *relative* figure");
    println!("is an upper bound: this substitute platform simulates almost for");
    println!("free, while a real SystemC model does orders of magnitude more");
    println!("work per event, making the same per-event cost vanish.");
}
