//! Per-connection stream handling: the fault-isolation boundary.
//!
//! One OS thread owns one connection end to end, and the connection owns
//! one session on the program it pinned, reset between its streams.
//! Everything that can go wrong on the wire — torn frames, garbage bytes,
//! time travel, oversized lines, half-open sockets, clients that stop
//! reading — is handled here, on this thread, against this connection's
//! own session; sibling streams never observe any of it. The handler's
//! last line of defense is a `catch_unwind` around the whole drive loop: a
//! panic (which would be a bug) is counted, its session dies with the
//! connection, and the process keeps serving.

use std::io::{self, BufWriter, Read as _, Write};
use std::net::{Shutdown, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::time::Instant;

use lomon_engine::{Fault, Record, RecordSink, Step, StreamDriver};
use lomon_trace::StreamFormat;

use crate::metrics::ServeMetrics;
use crate::program::Program;
use crate::server::Shared;

/// Read-buffer size; also the most unprocessed input we hold outside the
/// frame decoder. Reading no further ahead than we can process is the
/// backpressure mechanism: a fire-hose client is throttled by TCP flow
/// control, not buffered into our heap.
const READ_CHUNK: usize = 8 * 1024;

/// Serve one accepted connection to completion on one session of the
/// current program. Never panics: a panicking drive loop is contained and
/// counted, and only costs its own connection.
pub(crate) fn handle_connection(shared: &Shared, stream: &TcpStream) {
    let program = shared.current_program();
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        let mut driver =
            StreamDriver::new(program.engine.session(), &program.voc, StreamFormat::Ndjson)
                .labelled();
        if let Err(error) = drive(shared, &program, &mut driver, stream) {
            // Write-side failures only reach here (read-side ones are
            // handled in the loop): the client stopped reading our
            // verdicts in time, or vanished under a write.
            match error.kind() {
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
                    shared.metrics.slow_closes.inc();
                }
                _ => shared.metrics.disconnects.inc(),
            }
        }
    }));
    let _ = stream.shutdown(Shutdown::Both);
    if outcome.is_err() {
        shared.metrics.panics.inc();
    }
}

/// The connection's frame writer: every record goes out as it is
/// rendered, and each closed stream is counted.
struct Frames<'a> {
    writer: BufWriter<TcpStream>,
    metrics: &'a ServeMetrics,
}

impl RecordSink for Frames<'_> {
    fn record(&mut self, record: &Record<'_>, rendered: &str) -> io::Result<()> {
        if let Record::Summary { session, .. } = record {
            self.metrics.streams.inc();
            self.metrics.events.add(session.stats().events);
        }
        self.writer.write_all(rendered.as_bytes())
    }
}

/// The per-connection policy over the stream driver: the first fault
/// sends its error frame and closes the connection, `end` closes the
/// stream and starts the next one on the reset session, a clean EOF
/// closes the open stream, and a torn final frame counts as a disconnect.
/// Returns `Err` only for write-side I/O failures; every read-side
/// condition (EOF, reset, timeout) and every client fault is handled — and
/// counted — in here.
fn drive(
    shared: &Shared,
    program: &Program,
    driver: &mut StreamDriver<'_>,
    stream: &TcpStream,
) -> io::Result<()> {
    let config = &shared.config;
    let metrics = &shared.metrics;
    // The read timeout doubles as the liveness tick: every `read_tick` the
    // loop gets control to notice drain/stop requests and idle streams.
    stream.set_read_timeout(Some(config.read_tick))?;
    stream.set_write_timeout(Some(config.write_timeout))?;
    let _ = stream.set_nodelay(true);
    let mut reader = stream.try_clone()?;
    let mut out = Frames {
        writer: BufWriter::new(stream.try_clone()?),
        metrics,
    };
    writeln!(
        out.writer,
        "{{\"type\": \"ready\", \"generation\": {}, \"properties\": {}, \"backend\": \"fused\"}}",
        program.generation,
        program.engine.len(),
    )?;
    out.writer.flush()?;

    let mut buf = vec![0u8; READ_CHUNK];
    let mut last_activity = Instant::now();
    loop {
        if shared.stop.load(Ordering::Acquire) || shared.draining.load(Ordering::Acquire) {
            // Drain: flush this stream's final report, announce, leave.
            writeln!(out.writer, "{{\"type\": \"draining\"}}")?;
            if driver.is_open() {
                driver.close(&mut out)?;
                metrics.drained.inc();
            }
            return out.writer.flush();
        }
        let n = match reader.read(&mut buf) {
            Ok(0) => {
                // Clean FIN. A pending partial frame means the peer died
                // mid-frame: a torn final frame, counted as a disconnect
                // (the error frame is best-effort — the peer may be gone).
                if driver.partial_len() > 0 {
                    metrics.disconnects.inc();
                    let _ = driver.fail(Fault::Protocol, "connection closed mid-frame", &mut out);
                    let _ = out.writer.flush();
                } else if driver.is_open() {
                    driver.close(&mut out)?;
                    out.writer.flush()?;
                }
                return Ok(());
            }
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if last_activity.elapsed() >= config.idle_timeout {
                    // Idle reap: the stream stopped talking; free its slot.
                    metrics.idle_reaps.inc();
                    let _ = driver.fail(Fault::Protocol, "idle timeout", &mut out);
                    let _ = out.writer.flush();
                    return Ok(());
                }
                continue;
            }
            Err(_) => {
                // Abrupt reset. Nothing to report to a vanished peer.
                metrics.disconnects.inc();
                return Ok(());
            }
        };
        last_activity = Instant::now();
        driver.push(&buf[..n]);
        while let Some(step) = driver.step(&mut out)? {
            match step {
                Step::Applied => {}
                Step::End => {
                    // Rewind for the next stream on this connection.
                    driver.close(&mut out)?;
                    driver.reset();
                }
                Step::Fault(fault) => {
                    // Per-stream fault isolation: the error frame is out;
                    // bump the right counter and close this connection.
                    match fault {
                        Fault::Parse => metrics.parse_errors.inc(),
                        Fault::Protocol | Fault::Encoding => metrics.protocol_errors.inc(),
                    }
                    return out.writer.flush();
                }
            }
        }
        out.writer.flush()?;
    }
}
