//! Streaming monitoring: compile a rulebook once, check many live event
//! streams against it — no materialized trace, verdicts reported the
//! moment they finalize.
//!
//! ```sh
//! cargo run --example streaming_watch
//! ```
//!
//! This is the library-level counterpart of `lomon watch`: a
//! [`StreamDriver`] frames the bytes, parses each line, resolves its name
//! against the vocabulary frozen at compile time and steps the session;
//! the example only prints the records it emits. It also shows the
//! dispatch statistics that make the inverted index's win measurable.

use std::io;

use lomon::engine::{Engine, Record, Session, Step, StreamDriver};
use lomon::trace::{StreamFormat, Vocabulary};

fn main() -> io::Result<()> {
    let mut voc = Vocabulary::new();

    // The rulebook: Example 2 (configuration before start), a guard on the
    // DMA channel, and Example 3's timed response — compiled once, shared
    // by every session. From here on the vocabulary is only read.
    let engine = Engine::compile(
        &[
            "all{set_imgAddr, set_glAddr, set_glSize} << start once",
            "dma_setup << dma_go repeated",
            "start => out:set_irq within 1 ms",
        ],
        &mut voc,
    )
    .expect("rulebook compiles");
    let voc = voc;
    println!("rulebook: {} properties", engine.len());

    // Stream 1: a nominal run in the trace text format. `debug_probe` is
    // in no property's alphabet: it only advances time.
    println!("\n== stream 1 (nominal) ==");
    let nominal = "10us in set_glAddr\n25us in set_imgAddr\n31us in dma_setup\n\
                   33us in debug_probe\n40us in set_glSize\n52us in dma_go\n\
                   60us in start\n900us out set_irq\nend 1ms\n";
    let session = monitor(&engine, &voc, StreamFormat::Trace, nominal)?;
    assert!(session.report().is_ok());
    assert_eq!(voc.lookup("debug_probe"), None, "unknown names stay out");

    // Stream 2, as NDJSON: the DMA fires without setup — the violation
    // finalizes mid-stream, with diagnostics naming the offending event.
    println!("\n== stream 2 (dma misuse) ==");
    let misuse = "{\"time\": \"5us\", \"name\": \"dma_go\"}\n\
                  {\"time\": \"9us\", \"name\": \"set_imgAddr\"}\n{\"end\": \"10us\"}\n";
    let session = monitor(&engine, &voc, StreamFormat::Ndjson, misuse)?;
    assert!(!session.report().is_ok());

    // A naive broadcast would have stepped every property on every event;
    // the index (plus retirement) did strictly less — its win.
    let stats = session.stats();
    println!(
        "\nmonitor steps: {} indexed vs {} naive broadcast",
        stats.monitor_steps,
        stats.broadcast_steps()
    );
    assert!(stats.monitor_steps < stats.broadcast_steps());
    Ok(())
}

/// Monitor one stream on a fresh session. The bytes arrive in small
/// chunks, as a pipe or a socket delivers them, and every record is printed
/// the moment the driver emits it: verdicts as they finalize, then the
/// summary.
fn monitor<'e>(
    engine: &'e Engine,
    voc: &'e Vocabulary,
    format: StreamFormat,
    stream: &str,
) -> io::Result<Session<'e>> {
    let mut driver = StreamDriver::new(engine.session(), voc, format);
    let mut print = |_: &Record<'_>, text: &str| -> io::Result<()> {
        print!("{text}");
        Ok(())
    };
    for chunk in stream.as_bytes().chunks(16) {
        driver.push(chunk);
        while let Some(step) = driver.step(&mut print)? {
            // `end` only advances time here; the stream closes below.
            if step == Step::End {
                driver.advance(&mut print)?;
            }
        }
    }
    driver.close(&mut print)?;
    Ok(driver.into_session())
}
