//! Saturation throughput of the `lomon serve` daemon: many concurrent
//! NDJSON clients over loopback TCP against one in-process [`Server`].
//!
//! Each client opens its own connection, runs `STREAMS_PER_CLIENT` streams
//! back to back on the recycled session (events, `end`, read verdicts +
//! summary), and checks every summary byte it gets back. The score is the
//! aggregate event rate across all clients wall-clock — the number that
//! degrades if per-stream isolation, the session pool, or the shedding
//! path grows a lock convoy.
//!
//! Run `cargo run -p lomon-bench --bin serve_saturation --release` to
//! print the table and (re)write `BENCH_serve.json` in the current
//! directory (the repo tracks it at the root). `--check` is the CI gate:
//! [`CHECK_CLIENTS`] concurrent streams (or `--clients N`) must all finish
//! with correct summaries, zero handler panics, and an aggregate rate of
//! at least [`GATE_EVENTS_PER_SEC`] events/second.
//!
//! `--clients N` (check mode only), `--streams N` and `--events N`
//! override the matrix; `--out PATH` redirects the JSON.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use lomon_bench::gate::{self, Args, Gate};
use lomon_serve::{ServeConfig, Server};

/// The `--check` gate: this many clients stream concurrently.
const CHECK_CLIENTS: usize = 100;
/// Aggregate floor for `--check`, in events per second across all
/// clients. Loopback measurements on the saturated matrix sit well above
/// 10x this; the floor only catches order-of-magnitude collapses
/// (accidental serialization, a poisoned pool, a busy-wait in the reaper).
const GATE_EVENTS_PER_SEC: f64 = 50_000.0;

/// The serving rulebook: one loose-ordering antecedent plus one timed
/// deadline, so every event exercises both recognizer kinds.
const RULEBOOK: &str =
    "all{set_imgAddr, set_glAddr, set_glSize} << start repeated\ngo => out:done within 50 ns\n";

struct ClientOutcome {
    events: u64,
    streams: u64,
    /// First divergence from the expected frame sequence, if any.
    error: Option<String>,
}

/// One client: `streams` clean streams of `events_per_stream` events over
/// a single connection, verifying the ready frame, absence of verdict
/// pushes (the stream is healthy) and every summary.
fn run_client(addr: std::net::SocketAddr, streams: u64, events_per_stream: u64) -> ClientOutcome {
    let fail = |events, streams, message: String| ClientOutcome {
        events,
        streams,
        error: Some(message),
    };
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => return fail(0, 0, format!("connect: {e}")),
    };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone().expect("clone socket");
    let mut reader = BufReader::new(stream);

    let mut line = String::new();
    if reader.read_line(&mut line).is_err() || !line.contains("\"type\": \"ready\"") {
        return fail(0, 0, format!("expected ready frame, got: {line:?}"));
    }

    let mut sent = 0u64;
    for stream_no in 0..streams {
        // A healthy configure-then-start cycle, repeated: no verdict ever
        // finalizes mid-stream, so the only pushback is the end-of-stream
        // report — the hot path stays ingest-only.
        let mut batch = String::new();
        let mut now = 10u64;
        for _ in 0..events_per_stream / 4 {
            for name in ["set_imgAddr", "set_glAddr", "set_glSize", "start"] {
                batch.push_str(&format!(
                    "{{\"time\": \"{now}ns\", \"name\": \"{name}\"}}\n"
                ));
                now += 10;
                sent += 1;
            }
        }
        batch.push_str(&format!("{{\"end\": \"{now}ns\"}}\n"));
        if let Err(e) = writer.write_all(batch.as_bytes()) {
            return fail(sent, stream_no, format!("write stream {stream_no}: {e}"));
        }
        // Read to this stream's summary; `"final": false` verdict lines
        // precede it.
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => return fail(sent, stream_no, "eof before summary".to_owned()),
                Ok(_) => {}
                Err(e) => return fail(sent, stream_no, format!("read: {e}")),
            }
            if line.contains("\"type\": \"summary\"") {
                if !line.contains("\"ok\": true") {
                    return fail(sent, stream_no, format!("summary not ok: {line}"));
                }
                break;
            }
            if line.contains("\"type\": \"error\"") || line.contains("\"type\": \"overload\"") {
                return fail(sent, stream_no, format!("unexpected frame: {line}"));
            }
        }
    }
    ClientOutcome {
        events: sent,
        streams,
        error: None,
    }
}

struct Row {
    clients: usize,
    streams_per_client: u64,
    events_per_stream: u64,
    total_events: u64,
    elapsed: Duration,
    failures: Vec<String>,
}

impl Row {
    fn events_per_sec(&self) -> f64 {
        self.total_events as f64 / self.elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    fn json(&self) -> Vec<(&'static str, String)> {
        vec![
            ("clients", self.clients.to_string()),
            ("streams_per_client", self.streams_per_client.to_string()),
            ("events_per_stream", self.events_per_stream.to_string()),
            ("total_events", self.total_events.to_string()),
            ("elapsed_ms", self.elapsed.as_millis().to_string()),
            ("events_per_sec", format!("{:.0}", self.events_per_sec())),
        ]
    }
}

/// Start a fresh server, saturate it with `clients` concurrent
/// connections, and tear it down checking the counters.
fn run_matrix_point(
    clients: usize,
    streams_per_client: u64,
    events_per_stream: u64,
) -> Result<Row, String> {
    let config = ServeConfig {
        max_streams: clients + 8,
        idle_timeout: Duration::from_secs(60),
        ..ServeConfig::default()
    };
    let mut server = Server::start(config, RULEBOOK).map_err(|e| format!("server start: {e:?}"))?;
    let addr = server.local_addr();

    let started = Instant::now();
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| scope.spawn(move || run_client(addr, streams_per_client, events_per_stream)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = started.elapsed();

    let mut failures: Vec<String> = outcomes.iter().filter_map(|o| o.error.clone()).collect();
    let total_events: u64 = outcomes.iter().map(|o| o.events).sum();
    let total_streams: u64 = outcomes.iter().map(|o| o.streams).sum();

    let metrics = server.metrics();
    if metrics.panics.get() != 0 {
        failures.push(format!("{} handler panic(s)", metrics.panics.get()));
    }
    if metrics.streams.get() != total_streams {
        failures.push(format!(
            "server finalized {} streams, clients completed {total_streams}",
            metrics.streams.get()
        ));
    }
    if metrics.events.get() != total_events {
        failures.push(format!(
            "server ingested {} events, clients sent {total_events}",
            metrics.events.get()
        ));
    }
    server.shutdown();

    Ok(Row {
        clients,
        streams_per_client,
        events_per_stream,
        total_events,
        elapsed,
        failures,
    })
}

fn main() -> ExitCode {
    let args = Args::from_env(
        "serve_saturation",
        &["--out PATH", "--clients N", "--streams N", "--events N"],
    );

    // The check point keeps CI fast; the full matrix sweeps the client
    // count so the JSON shows where contention sets in.
    let matrix: Vec<(usize, u64, u64)> = if args.check {
        let clients = args.number("--clients").map_or(CHECK_CLIENTS, |v| {
            usize::try_from(v).expect("--clients fits in memory")
        });
        let streams = args.number("--streams").unwrap_or(2);
        let events = args.number("--events").unwrap_or(200);
        vec![(clients, streams, events)]
    } else {
        let streams = args.number("--streams").unwrap_or(4);
        let events = args.number("--events").unwrap_or(400);
        [8usize, 32, 128]
            .iter()
            .map(|&clients| (clients, streams, events))
            .collect()
    };

    println!("serve saturation — concurrent NDJSON clients over loopback TCP");
    println!(
        "{:>8} {:>8} {:>8} {:>12} {:>10} {:>14}",
        "clients", "streams", "ev/strm", "events", "ms", "agg ev/s"
    );

    let mut rows = Vec::new();
    let mut gate = Gate::default();
    for (clients, streams, events) in matrix {
        match run_matrix_point(clients, streams, events) {
            Ok(row) => {
                println!(
                    "{:>8} {:>8} {:>8} {:>12} {:>10} {:>14.0}",
                    row.clients,
                    row.streams_per_client,
                    row.events_per_stream,
                    row.total_events,
                    row.elapsed.as_millis(),
                    row.events_per_sec(),
                );
                for failure in &row.failures {
                    gate.fail(format!("{clients} clients: {failure}"));
                }
                rows.push(row);
            }
            Err(e) => gate.fail(format!("{clients} clients: {e}")),
        }
    }
    println!();

    if !args.check {
        let rows: Vec<_> = rows.iter().map(Row::json).collect();
        let json = gate::render_json("serve_saturation", "events/sec aggregate", "points", &rows);
        return gate.write(args.value("--out").unwrap_or("BENCH_serve.json"), &json);
    }
    for row in &rows {
        if row.events_per_sec() < GATE_EVENTS_PER_SEC {
            gate.fail(format!(
                "{} clients: {:.0} events/sec below the {GATE_EVENTS_PER_SEC:.0} gate",
                row.clients,
                row.events_per_sec()
            ));
        }
    }
    let clients: usize = rows.iter().map(|row| row.clients).sum();
    gate.finish(&format!(
        "{clients} concurrent streams finalized correctly at >= \
         {GATE_EVENTS_PER_SEC:.0} events/sec aggregate, zero handler panics"
    ))
}
