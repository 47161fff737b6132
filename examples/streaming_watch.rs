//! Streaming monitoring: compile a rulebook once, check many live event
//! streams against it — no materialized trace, verdicts reported the
//! moment they finalize.
//!
//! ```sh
//! cargo run --example streaming_watch
//! ```
//!
//! This is the library-level counterpart of `lomon watch`; it also shows
//! the dispatch statistics that make the inverted index's win measurable.

use lomon::engine::Engine;
use lomon::trace::{SimTime, TimedEvent, Vocabulary};

fn main() {
    let mut voc = Vocabulary::new();

    // The rulebook: Example 2 (configuration before start), a guard on the
    // DMA channel, and Example 3's timed response — compiled once, shared
    // by every session.
    let engine = Engine::compile(
        &[
            "all{set_imgAddr, set_glAddr, set_glSize} << start once",
            "dma_setup << dma_go repeated",
            "start => out:set_irq within 1 ms",
        ],
        &mut voc,
    )
    .expect("rulebook compiles");
    println!("rulebook: {} properties", engine.len());

    // Stream 1: a nominal run. Events arrive one by one, as a simulation
    // or a socket would deliver them.
    let nominal = [
        (10, "set_glAddr"),
        (25, "set_imgAddr"),
        (31, "dma_setup"),
        (40, "set_glSize"),
        (52, "dma_go"),
        (60, "start"),
        (900, "set_irq"),
    ];
    println!("\n== stream 1 (nominal) ==");
    let mut session = engine.session();
    // One reused buffer for the per-event verdict poll — the hot-path
    // pattern: `drain_newly_final_into` moves the ids without allocating.
    let mut finalized = Vec::new();
    for (us, name) in nominal {
        let name = voc.intern(name, lomon::trace::Direction::Input);
        session.ingest(TimedEvent::new(name, SimTime::from_us(us)));
        session.drain_newly_final_into(&mut finalized);
        for &id in &finalized {
            println!(
                "  at {}: [{}] {}",
                SimTime::from_us(us),
                session.verdict(id as usize),
                session.engine().property_display(id as usize),
            );
        }
    }
    let report = session.finish(SimTime::from_us(1000));
    println!("  end: {}", report.stats.render());
    assert!(report.is_ok());

    // Stream 2: the DMA fires without setup — the violation finalizes
    // mid-stream, with diagnostics naming the offending event.
    println!("\n== stream 2 (dma misuse) ==");
    let mut session = engine.session();
    for (us, name) in [(5, "dma_go"), (9, "set_imgAddr")] {
        let name = voc.intern(name, lomon::trace::Direction::Input);
        session.ingest(TimedEvent::new(name, SimTime::from_us(us)));
        session.drain_newly_final_into(&mut finalized);
        for &id in &finalized {
            let id = id as usize;
            println!(
                "  at {}: [{}] {}",
                SimTime::from_us(us),
                session.verdict(id),
                session.engine().property_display(id),
            );
            if let Some(violation) = session.violation(id) {
                println!("    {}", violation.display(&voc));
            }
        }
    }
    let report = session.finish(SimTime::from_us(10));
    println!("  end: {}", report.stats.render());
    assert!(!report.is_ok());

    // A naive broadcast would have stepped every property on every event;
    // the index (plus retirement) did strictly less — its win.
    println!(
        "\nmonitor steps: {} indexed vs {} naive broadcast",
        report.stats.monitor_steps,
        report.stats.broadcast_steps()
    );
    assert!(report.stats.monitor_steps < report.stats.broadcast_steps());
}
