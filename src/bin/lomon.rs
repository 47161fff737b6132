//! `lomon` — command-line trace-replay and streaming monitoring.
//!
//! The practical entry point of the reproduction: check recorded traces
//! (e.g. dumped from a real SystemC model) against loose-ordering
//! properties, watch a *live* event stream from stdin, convert traces to
//! VCD for waveform viewers, or generate labelled stimuli from a property.
//!
//! ```text
//! lomon check <trace-file>... <property>...   replay trace file(s) against properties
//! lomon watch [--format trace|ndjson] <property>...
//!                                             monitor an event stream from stdin
//! lomon serve [options] <rulebook|property>...
//!                                             hardened monitoring daemon over TCP
//! lomon smc   [options] [property...]         statistical model-checking campaign
//! lomon lint  [options] <rulebook|property>...
//!                                             static analysis of a rulebook
//! lomon profile <rulebook|property>... <trace-file>
//!                                             rank the hottest fused groups
//! lomon vcd   <trace-file>                    print the trace as VCD
//! lomon gen   <property> [seed [episodes]]    print a generated satisfying trace
//! lomon demo                                  record + check a platform run
//! ```
//!
//! Both `check` and `watch` run on the `lomon-engine` subsystem: the
//! property set is compiled once (every parse/well-formedness error is
//! reported, not just the first), events are dispatched through the
//! inverted name→monitor index, and the report includes the dispatch
//! statistics. `check` accepts any number of trace files (the leading
//! arguments that name readable files) and replays them all through one
//! compiled engine, resetting a single session between files; the exit
//! code is non-zero if *any* file violates *any* property.
//!
//! `smc` runs a `lomon-smc` campaign: many seed-randomized episodes —
//! platform simulations (default) or `lomon-gen` stimuli over a trace
//! file — monitored in parallel, with Chernoff–Hoeffding estimates and
//! optional SPRT hypothesis tests per property.
//!
//! `lint` compiles a rulebook without running anything and reports the
//! whole-rulebook static analysis ([`lomon::core::analysis`]): duplicate,
//! vacuous, subsumed and conflicting properties, coverage gaps and dead
//! action-table entries, each under a stable `L0xx` code. The same
//! analysis runs implicitly on `check`/`watch`/`smc` rulebooks, which
//! print the warnings and accept `--deny-warnings` to refuse them.

use std::io::{Read as _, Write as _};
use std::process::ExitCode;
use std::sync::Arc;

use lomon::core::analysis::{prune_dead, AnalysisOptions, Diagnostic, Severity};
use lomon::core::parse::parse_property;
use lomon::core::verdict::Monitor as _;
use lomon::engine::{
    error_diagnostics, profile_trace, Backend, DispatchMode, Engine, Fault, Record, SessionMetrics,
    Step, StreamDriver,
};
use lomon::gen::{generate, GeneratorConfig};
use lomon::obs::{MetricsServer, Registry, Stopwatch, Tracer};
use lomon::serve::{ServeConfig, Server, StartError};
use lomon::smc::{
    Campaign, CampaignConfig, CampaignMetrics, CampaignMode, CampaignProgress, EpisodeModel,
    GenModel, ScenarioModel, SprtConfig,
};
use lomon::tlm::scenario::{run_scenario, ScenarioConfig};
use lomon::trace::{
    decode_events_into, json_escape, read_trace_bytes_into, read_trace_bytes_observed, write_trace,
    write_vcd, IoMetrics, MappedFile, Name, NameSet, StreamFormat, TimedEvent, Vocabulary,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") if args.len() >= 3 => check(&args[1..]),
        Some("watch") if args.len() >= 2 => watch(&args[1..]),
        Some("serve") if args.len() >= 2 => serve(&args[1..]),
        Some("smc") => smc(&args[1..]),
        Some("lint") if args.len() >= 2 => lint(&args[1..]),
        Some("profile") if args.len() >= 3 => profile(&args[1..]),
        Some("vcd") if args.len() == 2 => vcd(&args[1]),
        Some("gen") if args.len() >= 2 && args.len() <= 4 => gen(&args[1], &args[2..]),
        Some("demo") if args.len() == 1 => demo(),
        Some(
            command @ ("check" | "watch" | "serve" | "lint" | "profile" | "vcd" | "gen" | "demo"),
        ) => {
            eprintln!("error: wrong arguments for `lomon {command}`");
            usage()
        }
        Some(unknown) => {
            eprintln!("error: unknown command `{unknown}`");
            usage()
        }
        None => usage(),
    }
}

fn usage() -> ExitCode {
    eprintln!("usage:");
    eprintln!("  lomon check [--backend fused|interp] [--format text|json]");
    eprintln!("              [--explain] [--metrics ADDR] [--stats-every N]");
    eprintln!("              <trace-file>... <property>...");
    eprintln!("  lomon watch [--format trace|ndjson] [--backend fused|interp]");
    eprintln!("              [--strict] [--explain] [--metrics ADDR] [--stats-every N]");
    eprintln!("              <property>...");
    eprintln!("  lomon serve [--listen ADDR] [--admin ADDR] [--metrics ADDR]");
    eprintln!("              [--backend fused|interp] [--deny-warnings]");
    eprintln!("              [--max-streams N] <rulebook-file|property>...");
    eprintln!("  lomon smc   [--episodes N] [--jobs J] [--seed S] [--confidence C]");
    eprintln!("              [--epsilon E] [--sprt P0 P1] [--fault-prob Q]");
    eprintln!("              [--backend fused|interp] [--format text|json]");
    eprintln!("              [--metrics ADDR] [--stats-every N] [--quiet]");
    eprintln!("              [--trace <file> [--mutation-prob Q]] [property...]");
    eprintln!("  lomon lint  [--format text|json] [--trace <file>] [--fix-prune]");
    eprintln!("              [--deny-warnings] <rulebook-file|property>...");
    eprintln!("  lomon profile [--format text|json] [--top K] [--trace-out FILE]");
    eprintln!("              <rulebook-file|property>... <trace-file>");
    eprintln!("  lomon vcd   <trace-file>");
    eprintln!("  lomon gen   <property> [seed [episodes]]");
    eprintln!("  lomon demo");
    eprintln!();
    eprintln!("--backend selects the monitor execution backend: the fused rulebook");
    eprintln!("program (default; structurally identical properties share one cell");
    eprintln!("arena) or the per-property tree-walking interpreter (the");
    eprintln!("verdict-identical differential oracle).");
    eprintln!();
    eprintln!("--format json makes `check` and `smc` print one machine-readable");
    eprintln!("JSON report per trace file / campaign instead of the text report.");
    eprintln!();
    eprintln!("--explain arms a bounded flight recorder per monitor: violations are");
    eprintln!("reported with their witness chain — the contributing events, each");
    eprintln!("with the recognizer cell it advanced. Off by default (zero cost).");
    eprintln!();
    eprintln!("profile replays a recorded trace through the fused rulebook program");
    eprintln!("and ranks the unique recognizer groups by monitor steps and wall-");
    eprintln!("clock time; --trace-out writes a Chrome trace-event JSON file for");
    eprintln!("chrome://tracing or Perfetto.");
    eprintln!();
    eprintln!("--metrics ADDR serves live telemetry over HTTP while check/watch/smc");
    eprintln!("run: GET /metrics is Prometheus text, GET /metrics.json is NDJSON (use");
    eprintln!("port 0 for an ephemeral port; the bound address is announced on");
    eprintln!("stderr). --stats-every N prints a {{\"type\": \"stats\", ...}} heartbeat");
    eprintln!("every N events (watch) or episodes (smc). smc prints a progress");
    eprintln!("line per scheduling batch to stderr; --quiet suppresses it.");
    eprintln!();
    eprintln!("property example:");
    eprintln!("  'all{{set_imgAddr, set_glAddr, set_glSize}} << start once'");
    eprintln!();
    eprintln!("watch reads events from stdin: `10ns in set_imgAddr` lines (trace");
    eprintln!("format) or one JSON object per line (ndjson format), e.g.");
    eprintln!("  {{\"time\": \"10ns\", \"dir\": \"in\", \"name\": \"set_imgAddr\"}}");
    eprintln!("Malformed or time-travelling lines are skipped and counted (an error");
    eprintln!("record per line: stderr in trace format, an NDJSON {{\"type\": \"error\"}}");
    eprintln!("line in ndjson format); --strict makes them fatal with exit 2.");
    eprintln!();
    eprintln!("serve runs the hardened monitoring daemon: many concurrent NDJSON");
    eprintln!("streams over TCP against one compiled rulebook, with per-stream");
    eprintln!("fault isolation, overload shedding, rulebook hot-reload and drain");
    eprintln!("shutdown via the --admin endpoint (GET /health, POST /reload,");
    eprintln!("POST /shutdown). See the lomon-serve crate docs for the protocol.");
    eprintln!();
    eprintln!("smc runs a statistical model-checking campaign: platform episodes");
    eprintln!("with randomized fault injection (default; properties optional), or");
    eprintln!("--trace <file> episodes mutating a recorded trace (the first");
    eprintln!("property anchors the mutations). --sprt tests H0: p >= P0 against");
    eprintln!("H1: p <= P1 per property and exits 1 if any property accepts H1.");
    eprintln!();
    eprintln!("lint statically analyses a rulebook (files hold one property per");
    eprintln!("line, `#` comments allowed) and reports coded findings: duplicate,");
    eprintln!("vacuous, subsumed or conflicting properties, unobserved vocabulary");
    eprintln!("and — given a `--trace` corpus — unsubscribed events and dead");
    eprintln!("action-table rows (`--fix-prune` drops them and self-checks the");
    eprintln!("verdicts). Exit 0 clean, 1 warnings, 2 errors. check/watch/smc run");
    eprintln!("the same analysis and print its warnings; `--deny-warnings` makes");
    eprintln!("them (and lint) fail on any warning.");
    ExitCode::from(2)
}

/// Read one trace file through the wire-speed ingest path: the file is
/// memory-mapped ([`MappedFile`] — the byte lexer reads the page cache
/// directly, no heap copy proportional to file size) and decoded by
/// [`read_trace_bytes_observed`]. Grammar, monotonicity rules and error
/// text are identical to the old `read_to_string` + `read_trace` pair; a
/// file that is not UTF-8 still fails with the exact `io::Error` message
/// `read_to_string` produced.
fn load(path: &str, voc: &mut Vocabulary) -> Result<lomon::trace::Trace, String> {
    let file = map_trace_file(path)?;
    read_trace_bytes_observed(file.bytes(), voc, None).map_err(|e| e.to_string())
}

/// Map `path` and validate it as UTF-8 once up front, so binary files keep
/// the `cannot read …` diagnostic class instead of a per-line parse error.
fn map_trace_file(path: &str) -> Result<MappedFile, String> {
    let file = MappedFile::open(path.as_ref()).map_err(|e| format!("cannot read {path}: {e}"))?;
    if std::str::from_utf8(file.bytes()).is_err() {
        return Err(format!(
            "cannot read {path}: stream did not contain valid UTF-8"
        ));
    }
    Ok(file)
}

/// Compile the whole property set, reporting *every* error before giving
/// up — a long rulebook is fixed in one pass, not one error at a time.
/// Compilation also runs the whole-rulebook static analysis: warnings
/// (duplicate / vacuous / subsumed / conflicting properties) go to stderr,
/// and with `deny_warnings` any warning refuses the rulebook. Notes are
/// lint-only detail and stay silent here (`lomon lint` prints everything).
fn compile_all(
    properties: &[String],
    voc: &mut Vocabulary,
    deny_warnings: bool,
) -> Result<Engine, ExitCode> {
    let opts = AnalysisOptions::default();
    match Engine::compile_with_analysis(properties, voc, &opts) {
        Ok((engine, diagnostics)) => {
            let warnings = diagnostics
                .iter()
                .filter(|d| d.severity == Severity::Warning)
                .count();
            for diagnostic in diagnostics
                .iter()
                .filter(|d| d.severity == Severity::Warning)
            {
                eprintln!("{}", diagnostic.render_text());
            }
            if deny_warnings && warnings > 0 {
                eprintln!("error: rulebook has {warnings} warning(s) (--deny-warnings)");
                return Err(ExitCode::FAILURE);
            }
            Ok(engine)
        }
        Err(errors) => {
            for error in &errors {
                eprintln!("error in property:\n{}", error.display(voc));
            }
            Err(ExitCode::FAILURE)
        }
    }
}

/// Extract every occurrence of the valued `flag` (both the two-argument
/// and the `=` spelling) from `args`, leaving the remaining arguments in
/// place. Returns the last value given, or `None` when the flag is absent.
fn take_value_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, ExitCode> {
    let prefixed = format!("{flag}=");
    let mut value = None;
    let mut i = 0;
    while i < args.len() {
        let (consumed, v) = if args[i] == flag {
            match args.get(i + 1) {
                Some(v) => (2, v.clone()),
                None => {
                    eprintln!("error: `{flag}` requires a value");
                    return Err(usage());
                }
            }
        } else if let Some(v) = args[i].strip_prefix(&prefixed) {
            (1, v.to_owned())
        } else {
            i += 1;
            continue;
        };
        value = Some(v);
        args.drain(i..i + consumed);
    }
    Ok(value)
}

/// Extract every occurrence of the boolean `flag` from `args`, returning
/// whether it was present.
fn take_bool_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != flag);
    args.len() != before
}

/// Extract the `--backend fused|interp` flag from `args`.
/// Defaults to the fused rulebook backend.
fn take_backend_flag(args: &mut Vec<String>) -> Result<Backend, ExitCode> {
    match take_value_flag(args, "--backend")?.as_deref() {
        None | Some("fused") => Ok(Backend::Fused),
        Some("interp") => Ok(Backend::Interp),
        Some(other) => {
            eprintln!("error: unknown backend `{other}` (expected `fused` or `interp`)");
            Err(usage())
        }
    }
}

/// Output format of `check` and `smc` reports.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ReportFormat {
    Text,
    Json,
}

/// Extract the `--format text|json` flag from `args`. Defaults to the
/// human-readable text report.
fn take_report_format_flag(args: &mut Vec<String>) -> Result<ReportFormat, ExitCode> {
    match take_value_flag(args, "--format")?.as_deref() {
        None | Some("text") => Ok(ReportFormat::Text),
        Some("json") => Ok(ReportFormat::Json),
        Some(other) => {
            eprintln!("error: unknown format `{other}` (expected `text` or `json`)");
            Err(usage())
        }
    }
}

/// Flight-recorder capacity armed by `--explain`: enough for every
/// realistic violation chain, bounded so a pathological stream cannot
/// grow memory per monitor — and small enough (1 KiB of ring per
/// monitor) that an armed rulebook stays cache-resident.
const EXPLAIN_CAPACITY: usize = 64;

fn check(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let deny_warnings = take_bool_flag(&mut args, "--deny-warnings");
    let explain = take_bool_flag(&mut args, "--explain");
    let backend = match take_backend_flag(&mut args) {
        Ok(backend) => backend,
        Err(code) => return code,
    };
    let format = match take_report_format_flag(&mut args) {
        Ok(format) => format,
        Err(code) => return code,
    };
    let metrics_addr = match take_value_flag(&mut args, "--metrics") {
        Ok(addr) => addr,
        Err(code) => return code,
    };
    let stats_every = match take_stats_every(&mut args) {
        Ok(every) => every,
        Err(code) => return code,
    };
    let args = &args[..];
    // The leading arguments that name readable files are the traces; the
    // rest are properties. A leading argument that is *not* a file but
    // does not look like a property either is still an intended trace
    // path (a typo'd or missing file), so its diagnostic stays "cannot
    // read …" rather than a property parse error over a filename. Every
    // valid property contains `<` (`<<` or `<`-chains or `=>` … `within`
    // carries whitespace) or whitespace or `{`; file paths practically
    // never do.
    let looks_like_property =
        |a: &str| a.contains(char::is_whitespace) || a.contains(['<', '{', '=']);
    let split = args
        .iter()
        .position(|a| !std::path::Path::new(a).is_file() && looks_like_property(a))
        .unwrap_or(args.len())
        .max(1);
    let (paths, properties) = args.split_at(split);
    if properties.is_empty() {
        eprintln!("error: `lomon check` needs at least one property after the trace file(s)");
        return usage();
    }

    // Live telemetry, exactly as `watch`: the complete family set is
    // registered and the listener bound before anything runs — including
    // the trace decode, whose nanoseconds land in `lomon_ingest_decode_ns`.
    let mut telemetry = None;
    let mut server = None;
    if let Some(addr) = &metrics_addr {
        let registry = Arc::new(Registry::new());
        let session_metrics = SessionMetrics::register(&registry);
        let io_metrics = IoMetrics::register(&registry);
        let compile_ns = registry.histogram(
            "lomon_compile_ns",
            "Wall-clock nanoseconds spent compiling the rulebook",
        );
        match bind_metrics(addr, &registry) {
            Ok(bound) => server = Some(bound),
            Err(code) => return code,
        }
        telemetry = Some((session_metrics, io_metrics, compile_ns));
    }
    let io_metrics = telemetry.as_ref().map(|(_, io, _)| io.as_ref());

    // Wire-speed ingest, in two passes over memory-mapped files. First
    // every file is lexed once straight from the page cache to merge the
    // alphabets into one vocabulary (and surface every parse error before
    // anything runs); then the property set is compiled once — one engine
    // and one session serve all files. The replay pass below re-decodes
    // each mapping against the now-frozen vocabulary into one reused
    // pre-resolved event buffer, so peak memory is one file's events, not
    // the sum of all files'.
    let mut voc = Vocabulary::new();
    let mut files = Vec::with_capacity(paths.len());
    let mut scratch = lomon::trace::Trace::new();
    for path in paths {
        let outcome = map_trace_file(path).and_then(|file| {
            read_trace_bytes_into(file.bytes(), &mut voc, &mut scratch, io_metrics)
                .map_err(|e| e.to_string())?;
            Ok((file, scratch.len(), scratch.end_time()))
        });
        match outcome {
            Ok(entry) => files.push(entry),
            Err(message) => {
                eprintln!("error: {message}");
                return ExitCode::FAILURE;
            }
        }
    }
    drop(scratch);
    let compile_span = telemetry
        .as_ref()
        .map(|(_, _, compile_ns)| Stopwatch::start(Arc::clone(compile_ns)));
    let engine = match compile_all(properties, &mut voc, deny_warnings) {
        Ok(engine) => engine,
        Err(code) => return code,
    };
    drop(compile_span);
    let mut session = engine.session_with_backend(DispatchMode::Indexed, backend);
    if explain {
        session.enable_explain(EXPLAIN_CAPACITY);
    }
    if let Some((session_metrics, _, _)) = &telemetry {
        session.attach_metrics(Arc::clone(session_metrics));
    }
    let mut reports = Vec::with_capacity(paths.len());
    let mut events: Vec<TimedEvent> = Vec::new();
    for (file, _, end_time) in &files {
        // The intern pass above fed the whole alphabet into `voc`, so the
        // frozen-vocabulary decode cannot fail here; a failure would mean
        // the mapped file changed under us between the passes. This pass
        // is deliberately unobserved — the intern pass already counted
        // every line and byte once, as the single-read path did.
        if let Err(e) = decode_events_into(file.bytes(), &voc, &mut events) {
            eprintln!("error: trace changed while being read: {e}");
            return ExitCode::FAILURE;
        }
        session.reset();
        match stats_every {
            None => session.ingest_batch(&events),
            Some(every) => {
                // Heartbeats need batch boundaries: ingest in
                // `--stats-every`-sized chunks and emit one stats line
                // (stderr, like the text-mode watch heartbeat) per chunk.
                let mut line = String::new();
                for chunk in events.chunks(every as usize) {
                    session.ingest_batch(chunk);
                    line.clear();
                    Record::Stats(&session).render(&mut line, StreamFormat::Ndjson, &voc, None);
                    eprint!("{line}");
                }
            }
        }
        reports.push(session.finish(*end_time));
    }
    // Stop serving scrapes before the reports, as watch/smc do: a scrape
    // racing the shutdown gets a clean 503, never a torn snapshot.
    if let Some(server) = &server {
        server.drain();
    }
    let mut all_ok = true;
    for ((path, (_, len, end_time)), report) in paths.iter().zip(&files).zip(&reports) {
        match format {
            ReportFormat::Text => {
                println!("{path}: {len} events, end at {end_time}");
                print!("{}", report.render(&voc));
            }
            // One JSON object per trace file, NDJSON-style, so a script
            // over many files maps lines to files.
            ReportFormat::Json => println!(
                "{{\"file\": \"{}\", {}",
                json_escape(path),
                &report.render_json(&voc)[1..],
            ),
        }
        all_ok &= report.is_ok();
    }
    if format == ReportFormat::Text && paths.len() > 1 {
        println!(
            "{} files checked: {}",
            paths.len(),
            if all_ok { "all ok" } else { "violations found" }
        );
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn watch(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let deny_warnings = take_bool_flag(&mut args, "--deny-warnings");
    let strict = take_bool_flag(&mut args, "--strict");
    let explain = take_bool_flag(&mut args, "--explain");
    let backend = match take_backend_flag(&mut args) {
        Ok(backend) => backend,
        Err(code) => return code,
    };
    let metrics_addr = match take_value_flag(&mut args, "--metrics") {
        Ok(addr) => addr,
        Err(code) => return code,
    };
    let stats_every = match take_stats_every(&mut args) {
        Ok(every) => every,
        Err(code) => return code,
    };
    let format = match take_value_flag(&mut args, "--format") {
        Ok(format) => format,
        Err(code) => return code,
    };
    let format = match format.as_deref() {
        None | Some("trace") => StreamFormat::Trace,
        Some("ndjson") => StreamFormat::Ndjson,
        Some(other) => {
            eprintln!("error: unknown format `{other}` (expected `trace` or `ndjson`)");
            return usage();
        }
    };
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        eprintln!("error: unknown flag `{flag}`");
        return usage();
    }
    let properties = args;
    if properties.is_empty() {
        eprintln!("error: `lomon watch` needs at least one property");
        return usage();
    }

    // Live telemetry: every family is registered (and the listener bound)
    // before anything runs, so a scrape racing startup sees the complete
    // family set at zero rather than a partial registry.
    let mut telemetry = None;
    let mut server = None;
    if let Some(addr) = &metrics_addr {
        let registry = Arc::new(Registry::new());
        let session_metrics = SessionMetrics::register(&registry);
        let io_metrics = IoMetrics::register(&registry);
        let compile_ns = registry.histogram(
            "lomon_compile_ns",
            "Wall-clock nanoseconds spent compiling the rulebook",
        );
        match bind_metrics(addr, &registry) {
            Ok(bound) => server = Some(bound),
            Err(code) => return code,
        }
        telemetry = Some((session_metrics, io_metrics, compile_ns));
    }

    let mut voc = Vocabulary::new();
    let compile_span = telemetry
        .as_ref()
        .map(|(_, _, compile_ns)| Stopwatch::start(Arc::clone(compile_ns)));
    let engine = match compile_all(&properties, &mut voc, deny_warnings) {
        Ok(engine) => engine,
        Err(code) => return code,
    };
    drop(compile_span);
    let mut session = engine.session_with_backend(DispatchMode::Indexed, backend);
    if explain {
        session.enable_explain(EXPLAIN_CAPACITY);
    }
    if let Some((session_metrics, _, _)) = &telemetry {
        session.attach_metrics(Arc::clone(session_metrics));
    }
    let mut driver = StreamDriver::new(session, &voc, format)
        .observe_io(telemetry.as_ref().map(|(_, io, _)| Arc::clone(io)))
        .heartbeat_every(stats_every);
    watch_stdin(&mut driver, format, strict, server.as_ref()).unwrap_or_else(|e| {
        eprintln!("error: cannot write output: {e}");
        ExitCode::FAILURE
    })
}

/// The policy of `watch` over the stream driver. A bad line costs only
/// itself: it is counted, reported and skipped, while `--strict` makes it
/// fatal (exit 2) for pipelines that prefer to die over monitoring a
/// desynced stream. Invalid UTF-8 is fatal, `end` only advances time, a
/// last line without a newline still counts, and reading stops once every
/// verdict is final. In trace format stdout carries only the verdicts;
/// errors, heartbeats and the final report go to stderr.
fn watch_stdin(
    driver: &mut StreamDriver<'_>,
    format: StreamFormat,
    strict: bool,
    server: Option<&MetricsServer>,
) -> std::io::Result<ExitCode> {
    let mut emit = |record: &Record<'_>, text: &str| {
        match record {
            Record::Error {
                fault: Fault::Encoding,
                ..
            } => {
                eprintln!("error: cannot read stdin: stream did not contain valid UTF-8");
                return Ok(());
            }
            Record::Error { line, reason, .. } if strict => {
                eprintln!("error: stream line {line}: {reason}");
                return Ok(());
            }
            // Stop serving scrapes before the final report: a scrape racing
            // the shutdown gets a clean 503, never a half-written snapshot.
            Record::Summary { .. } => server.map_or((), MetricsServer::drain),
            _ => {}
        }
        if format == StreamFormat::Ndjson || matches!(record, Record::Verdict(_)) {
            std::io::stdout().write_all(text.as_bytes())
        } else {
            std::io::stderr().write_all(text.as_bytes())
        }
    };
    let mut stdin = std::io::stdin().lock();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut done = false;
    while !done {
        match stdin.read(&mut chunk) {
            Ok(0) => {
                done = true;
                if driver.partial_len() > 0 {
                    driver.push(b"\n");
                }
            }
            Ok(n) => driver.push(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                eprintln!("error: cannot read stdin: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
        while let Some(step) = driver.step(&mut emit)? {
            match step {
                Step::End => driver.advance(&mut emit)?,
                Step::Fault(Fault::Encoding) => return Ok(ExitCode::FAILURE),
                Step::Fault(_) if strict => return Ok(ExitCode::from(2)),
                Step::Applied | Step::Fault(_) => {}
            }
            if driver.session().is_settled() {
                done = true; // every verdict is final; the rest is moot
                break;
            }
        }
    }
    driver.close(&mut emit)?;
    Ok(if driver.session().report().is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Parse `text` as a `T`, or print an error naming `flag` and exit-code 2.
fn parse_flag_value<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, ExitCode> {
    text.parse().map_err(|_| {
        eprintln!("error: `{flag}` value `{text}` is not valid");
        usage()
    })
}

/// Extract `--stats-every <N>` — the heartbeat period in events (`watch`)
/// or episodes (`smc`) — rejecting zero.
fn take_stats_every(args: &mut Vec<String>) -> Result<Option<u64>, ExitCode> {
    match take_value_flag(args, "--stats-every")? {
        None => Ok(None),
        Some(raw) => match parse_flag_value::<u64>("--stats-every", &raw)? {
            0 => {
                eprintln!("error: `--stats-every` must be positive");
                Err(usage())
            }
            every => Ok(Some(every)),
        },
    }
}

/// Bind the `--metrics` HTTP listener and announce the resolved address on
/// stderr (with `:0` the kernel picks the port, and the announcement is
/// how callers learn it). A bind failure — typically the port is already
/// taken — is a usage-class error: exit code 2, nothing has run yet.
fn bind_metrics(addr: &str, registry: &Arc<Registry>) -> Result<MetricsServer, ExitCode> {
    match MetricsServer::bind(addr, Arc::clone(registry)) {
        Ok(server) => {
            eprintln!("metrics: serving http://{}/metrics", server.local_addr());
            Ok(server)
        }
        Err(e) => {
            eprintln!("error: cannot bind metrics listener on {addr}: {e}");
            Err(ExitCode::from(2))
        }
    }
}

/// Pre-flight the rulebook analysis for `smc`, whose campaign compiles the
/// properties itself: print the warnings, honouring `--deny-warnings`.
/// Compile *errors* are left for the campaign to report with full context.
fn report_rulebook_warnings(properties: &[String], deny_warnings: bool) -> Result<(), ExitCode> {
    if properties.is_empty() {
        return Ok(());
    }
    let mut voc = Vocabulary::new();
    let opts = AnalysisOptions::default();
    if let Ok((_, diagnostics)) = Engine::compile_with_analysis(properties, &mut voc, &opts) {
        let warnings = diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count();
        for diagnostic in diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
        {
            eprintln!("{}", diagnostic.render_text());
        }
        if deny_warnings && warnings > 0 {
            eprintln!("error: rulebook has {warnings} warning(s) (--deny-warnings)");
            return Err(ExitCode::FAILURE);
        }
    }
    Ok(())
}

/// `lomon serve`: run the hardened monitoring daemon until a drain
/// shutdown is requested on the admin endpoint.
fn serve(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let deny_warnings = take_bool_flag(&mut args, "--deny-warnings");
    let backend = match take_backend_flag(&mut args) {
        Ok(backend) => backend,
        Err(code) => return code,
    };
    let mut config = ServeConfig {
        backend,
        deny_warnings,
        listen: "127.0.0.1:7450".to_owned(),
        admin: "127.0.0.1:7451".to_owned(),
        ..ServeConfig::default()
    };
    match take_value_flag(&mut args, "--listen") {
        Ok(Some(addr)) => config.listen = addr,
        Ok(None) => {}
        Err(code) => return code,
    }
    match take_value_flag(&mut args, "--admin") {
        Ok(Some(addr)) => config.admin = addr,
        Ok(None) => {}
        Err(code) => return code,
    }
    match take_value_flag(&mut args, "--metrics") {
        Ok(addr) => config.metrics = addr,
        Err(code) => return code,
    }
    match take_value_flag(&mut args, "--max-streams") {
        Ok(None) => {}
        Ok(Some(raw)) => match parse_flag_value::<usize>("--max-streams", &raw) {
            Ok(0) => {
                eprintln!("error: `--max-streams` must be positive");
                return usage();
            }
            Ok(n) => config.max_streams = n,
            Err(code) => return code,
        },
        Err(code) => return code,
    }
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        eprintln!("error: unknown flag `{flag}`");
        return usage();
    }

    // The rulebook, lint-style: file arguments contribute one property per
    // non-comment line, the rest are inline property texts.
    let mut rulebook = String::new();
    for arg in &args {
        if std::path::Path::new(arg).is_file() {
            match std::fs::read_to_string(arg) {
                Ok(text) => rulebook.push_str(&text),
                Err(e) => {
                    eprintln!("error: cannot read {arg}: {e}");
                    return ExitCode::from(2);
                }
            }
        } else {
            rulebook.push_str(arg);
        }
        rulebook.push('\n');
    }

    let mut server = match Server::start(config, &rulebook) {
        Ok(server) => server,
        Err(StartError::Compile(diagnostics)) => {
            for diagnostic in &diagnostics {
                eprintln!("{}", diagnostic.render_text());
            }
            eprintln!("error: rulebook rejected; nothing is serving");
            return ExitCode::FAILURE;
        }
        Err(StartError::Io(e)) => {
            eprintln!("error: cannot bind: {e}");
            return ExitCode::from(2);
        }
    };
    let properties = server.properties();
    eprintln!(
        "serving {} propert{} on {} (admin {})",
        properties,
        if properties == 1 { "y" } else { "ies" },
        server.local_addr(),
        server.admin_addr(),
    );
    if let Some(addr) = server.metrics_addr() {
        eprintln!("metrics on http://{addr}/metrics");
    }
    server.wait();
    ExitCode::SUCCESS
}

fn smc(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let deny_warnings = take_bool_flag(&mut args, "--deny-warnings");
    let backend = match take_backend_flag(&mut args) {
        Ok(backend) => backend,
        Err(code) => return code,
    };
    let format = match take_report_format_flag(&mut args) {
        Ok(format) => format,
        Err(code) => return code,
    };
    let quiet = take_bool_flag(&mut args, "--quiet");
    let metrics_addr = match take_value_flag(&mut args, "--metrics") {
        Ok(addr) => addr,
        Err(code) => return code,
    };
    let stats_every = match take_stats_every(&mut args) {
        Ok(every) => every,
        Err(code) => return code,
    };
    let telemetry = SmcTelemetry {
        metrics_addr,
        stats_every,
        quiet,
    };
    let args = &args[..];
    let mut episodes: Option<u64> = None;
    let mut jobs = 0usize;
    let mut seed = 1u64;
    let mut confidence = 0.95f64;
    // Mode-dependent flags stay `None` unless the user passed them, so a
    // flag that the selected mode would silently ignore is an error, not a
    // silently different campaign.
    let mut epsilon: Option<f64> = None;
    let mut sprt: Option<(f64, f64)> = None;
    let mut fault_prob: Option<f64> = None;
    let mut trace_path: Option<String> = None;
    let mut mutation_prob: Option<f64> = None;
    let mut properties: Vec<String> = Vec::new();

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| match iter.next() {
            Some(v) => Ok(v.as_str()),
            None => {
                eprintln!("error: `{flag}` requires a value");
                Err(usage())
            }
        };
        macro_rules! flag_value {
            ($flag:expr) => {
                match value($flag).and_then(|raw| parse_flag_value($flag, raw)) {
                    Ok(parsed) => parsed,
                    Err(code) => return code,
                }
            };
        }
        match arg.as_str() {
            "--episodes" => episodes = Some(flag_value!("--episodes")),
            "--jobs" => jobs = flag_value!("--jobs"),
            "--seed" => seed = flag_value!("--seed"),
            "--confidence" => confidence = flag_value!("--confidence"),
            "--epsilon" => epsilon = Some(flag_value!("--epsilon")),
            "--fault-prob" => fault_prob = Some(flag_value!("--fault-prob")),
            "--mutation-prob" => mutation_prob = Some(flag_value!("--mutation-prob")),
            "--trace" => {
                let raw = match value("--trace") {
                    Ok(raw) => raw,
                    Err(code) => return code,
                };
                trace_path = Some(raw.to_owned());
            }
            "--sprt" => sprt = Some((flag_value!("--sprt"), flag_value!("--sprt"))),
            flag if flag.starts_with("--") => {
                eprintln!("error: unknown flag `{flag}`");
                return usage();
            }
            property => properties.push(property.to_owned()),
        }
    }
    if !(confidence > 0.0 && confidence < 1.0) {
        eprintln!("error: `--confidence` must lie strictly between 0 and 1");
        return usage();
    }
    if epsilon.is_some_and(|e| !(e > 0.0 && e < 1.0)) {
        eprintln!("error: `--epsilon` must lie strictly between 0 and 1");
        return usage();
    }
    for (flag, p) in [
        ("--fault-prob", fault_prob),
        ("--mutation-prob", mutation_prob),
    ] {
        if p.is_some_and(|p| !(0.0..=1.0).contains(&p)) {
            eprintln!("error: `{flag}` must lie in [0, 1]");
            return usage();
        }
    }
    // Reject flag combinations the selected mode would ignore.
    if epsilon.is_some() && episodes.is_some() {
        eprintln!("error: `--epsilon` sizes the campaign; it conflicts with `--episodes`");
        return usage();
    }
    if epsilon.is_some() && sprt.is_some() {
        eprintln!("error: `--epsilon` only applies to estimation campaigns, not `--sprt`");
        return usage();
    }
    if trace_path.is_some() && fault_prob.is_some() {
        eprintln!("error: `--fault-prob` applies to platform campaigns, not `--trace`");
        return usage();
    }
    if trace_path.is_none() && mutation_prob.is_some() {
        eprintln!("error: `--mutation-prob` requires `--trace`");
        return usage();
    }

    if let Err(code) = report_rulebook_warnings(&properties, deny_warnings) {
        return code;
    }

    // Assemble the mode: SPRT with early stopping, or fixed-size
    // estimation sized by the Okamoto bound when `--episodes` is absent.
    let mode = match sprt {
        Some((p0, p1)) => match SprtConfig::new(p0, p1) {
            Ok(config) => CampaignMode::Sprt {
                config,
                max_episodes: episodes.unwrap_or(100_000),
            },
            Err(e) => {
                eprintln!("error: invalid `--sprt`: {e}");
                return usage();
            }
        },
        None => CampaignMode::Estimate {
            episodes: episodes.unwrap_or_else(|| {
                lomon::smc::estimate::required_episodes(epsilon.unwrap_or(0.05), 1.0 - confidence)
            }),
        },
    };
    let config = CampaignConfig {
        seed,
        jobs,
        confidence,
        mode,
        backend,
    };

    // Assemble the model and run. The two arms carry different concrete
    // model types, so the campaign runs inside a small generic helper.
    match trace_path {
        None => {
            let fault_prob = fault_prob.unwrap_or(0.2);
            let mut model = ScenarioModel::new(ScenarioConfig::nominal(seed))
                .with_fault_probability(fault_prob);
            if !properties.is_empty() {
                model = model.with_properties(properties);
            }
            if format == ReportFormat::Text {
                println!(
                    "smc: platform campaign, fault probability {fault_prob}, seed {seed}, jobs {}",
                    lomon::smc::effective_jobs(jobs)
                );
            }
            run_smc(&model, &config, format, &telemetry)
        }
        Some(path) => {
            if properties.is_empty() {
                eprintln!("error: `lomon smc --trace` needs at least one property");
                return usage();
            }
            let mut voc = Vocabulary::new();
            let base = match load(&path, &mut voc) {
                Ok(trace) => trace,
                Err(message) => {
                    eprintln!("error: {message}");
                    return ExitCode::FAILURE;
                }
            };
            let model = match GenModel::from_trace(properties, base, voc) {
                Ok(model) => model,
                Err(message) => {
                    eprintln!("error in property:\n{message}");
                    return ExitCode::FAILURE;
                }
            };
            let mutation_prob = mutation_prob.unwrap_or(0.5);
            let model = model.with_mutation_probability(mutation_prob);
            if format == ReportFormat::Text {
                println!(
                    "smc: trace campaign over {path}, mutation probability {mutation_prob}, \
                     seed {seed}, jobs {}",
                    lomon::smc::effective_jobs(jobs)
                );
            }
            run_smc(&model, &config, format, &telemetry)
        }
    }
}

/// Observability options of `lomon smc`, parsed up front and threaded to
/// the generic campaign runner.
struct SmcTelemetry {
    /// `--metrics`: serve live Prometheus/NDJSON telemetry on this address.
    metrics_addr: Option<String>,
    /// `--stats-every`: heartbeat period in episodes.
    stats_every: Option<u64>,
    /// `--quiet`: suppress the per-batch progress line.
    quiet: bool,
}

/// One stderr progress line per scheduling batch: episodes done, the
/// current per-property estimates with the shared Chernoff–Hoeffding
/// half-width, and the SPRT state when testing. Batch boundaries are
/// jobs-independent, so the sequence is identical for every `--jobs`.
fn render_smc_progress(progress: &CampaignProgress<'_>) -> String {
    use std::fmt::Write as _;
    let mut line = format!("smc: {}/{} episodes", progress.episodes, progress.planned);
    if progress.episodes > 0 {
        for (id, &successes) in progress.successes.iter().enumerate() {
            #[allow(clippy::cast_precision_loss)]
            let mean = successes as f64 / progress.episodes as f64;
            let sep = if id == 0 { ", est" } else { "," };
            let _ = write!(line, "{sep} P{id}={mean:.4}");
        }
        let _ = write!(line, " \u{b1}{:.4}", progress.half_width);
    }
    if let Some(undecided) = progress.sprt_undecided {
        let _ = write!(line, ", sprt: {undecided} undecided");
    }
    line
}

/// One `{"type": "stats", …}` heartbeat for `smc --stats-every`, emitted
/// on stderr so stdout stays a pipeable report. Success counts are exact
/// integers at a jobs-independent batch boundary, so for a fixed seed the
/// heartbeat sequence is identical for every worker count.
fn render_smc_heartbeat(progress: &CampaignProgress<'_>) -> String {
    use std::fmt::Write as _;
    let mut line = format!(
        "{{\"type\": \"stats\", \"episodes\": {}, \"planned\": {}, \"successes\": [",
        progress.episodes, progress.planned,
    );
    for (id, &successes) in progress.successes.iter().enumerate() {
        let _ = write!(line, "{}{successes}", if id == 0 { "" } else { ", " });
    }
    let _ = write!(line, "], \"half_width\": {}", progress.half_width);
    match progress.sprt_undecided {
        Some(undecided) => {
            let _ = write!(line, ", \"sprt_undecided\": {undecided}}}");
        }
        None => line.push_str(", \"sprt_undecided\": null}"),
    }
    line
}

/// Compile, run and render one campaign; the exit code is 1 when an SPRT
/// accepted `H1` (the satisfaction probability is below the threshold).
/// The JSON format prints only the report object — no preamble and no
/// wall clock — so stdout is deterministic across `--jobs` and pipeable.
/// Telemetry (`--metrics`, `--stats-every`, progress lines) rides the
/// jobs-independent batch boundaries and never perturbs the report.
fn run_smc<M: EpisodeModel>(
    model: &M,
    config: &CampaignConfig,
    format: ReportFormat,
    telemetry: &SmcTelemetry,
) -> ExitCode {
    // Register the families and bind the listener before compiling, so a
    // scrape racing campaign startup sees a complete (all-zero) registry
    // and a dead port fails fast with exit 2.
    let mut server = None;
    let mut observed = None;
    if let Some(addr) = &telemetry.metrics_addr {
        let registry = Arc::new(Registry::new());
        let compile_ns = registry.histogram(
            "lomon_compile_ns",
            "Wall-clock nanoseconds spent compiling the rulebook",
        );
        match bind_metrics(addr, &registry) {
            Ok(bound) => server = Some(bound),
            Err(code) => return code,
        }
        observed = Some((registry, compile_ns));
    }
    let compile_span = observed
        .as_ref()
        .map(|(_, compile_ns)| Stopwatch::start(Arc::clone(compile_ns)));
    let mut campaign = match Campaign::new(model, *config) {
        Ok(campaign) => campaign,
        Err(lomon::smc::CampaignError::Compile(errors)) => {
            let voc = model.vocabulary();
            for error in &errors {
                eprintln!("error in property:\n{}", error.display(&voc));
            }
            return ExitCode::FAILURE;
        }
        Err(other) => {
            eprintln!("error: {other}");
            return ExitCode::FAILURE;
        }
    };
    drop(compile_span);
    if let Some((registry, _)) = &observed {
        campaign.attach_metrics(CampaignMetrics::register(registry, campaign.engine().len()));
    }

    let started = std::time::Instant::now();
    let quiet = telemetry.quiet;
    let stats_every = telemetry.stats_every;
    let mut next_heartbeat = stats_every.unwrap_or(u64::MAX);
    let report = campaign.run_observed(&mut |progress| {
        if !quiet {
            eprintln!("{}", render_smc_progress(&progress));
        }
        if let Some(every) = stats_every {
            if progress.episodes >= next_heartbeat {
                eprintln!("{}", render_smc_heartbeat(&progress));
                next_heartbeat = (progress.episodes / every + 1) * every;
            }
        }
    });
    let elapsed = started.elapsed();
    // Stop serving scrapes before the final report: a scrape racing
    // campaign completion gets a clean 503, never a torn snapshot.
    if let Some(server) = &server {
        server.drain();
    }
    match format {
        ReportFormat::Text => {
            print!("{}", report.render());
            println!("  wall clock: {:.2?}", elapsed);
        }
        ReportFormat::Json => println!("{}", report.render_json()),
    }
    if report.any_rejected() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `lomon lint` — compile a rulebook, run the whole-rulebook static
/// analysis, print the findings and exit 0 (clean or notes only), 1
/// (warnings) or 2 (errors, or warnings under `--deny-warnings`).
///
/// Arguments that name readable files are rulebook files (one property per
/// line, `#` comments and blank lines skipped); everything else is an
/// inline property. `--trace <file>` supplies an event corpus, enabling
/// the coverage (`L008`) and dead-table (`L009`) findings; `--fix-prune`
/// additionally prunes the dead action-table rows and, when a corpus is
/// given, self-checks that the pruned rulebook is verdict-identical on it.
fn lint(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let deny_warnings = take_bool_flag(&mut args, "--deny-warnings");
    let fix_prune = take_bool_flag(&mut args, "--fix-prune");
    let format = match take_report_format_flag(&mut args) {
        Ok(format) => format,
        Err(code) => return code,
    };
    let trace_path = match take_value_flag(&mut args, "--trace") {
        Ok(path) => path,
        Err(code) => return code,
    };
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        eprintln!("error: unknown flag `{flag}`");
        return usage();
    }

    // Collect the rulebook: file arguments contribute one property per
    // non-comment line, the rest are inline property texts.
    let mut properties: Vec<String> = Vec::new();
    for arg in &args {
        if std::path::Path::new(arg).is_file() {
            let text = match std::fs::read_to_string(arg) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("error: cannot read {arg}: {e}");
                    return ExitCode::from(2);
                }
            };
            properties.extend(
                text.lines()
                    .map(str::trim)
                    .filter(|l| !l.is_empty() && !l.starts_with('#'))
                    .map(str::to_owned),
            );
        } else {
            properties.push(arg.clone());
        }
    }
    if properties.is_empty() {
        eprintln!("error: the rulebook is empty");
        return ExitCode::from(2);
    }

    // An optional trace corpus: per-name event counts for the coverage
    // and dead-table analyses, and the self-check replay for --fix-prune.
    let mut voc = Vocabulary::new();
    let trace = match &trace_path {
        None => None,
        Some(path) => match load(path, &mut voc) {
            Ok(trace) => Some(trace),
            Err(message) => {
                eprintln!("error: {message}");
                return ExitCode::from(2);
            }
        },
    };
    let corpus: Option<Vec<(Name, u64)>> = trace.as_ref().map(|trace| {
        let mut counts: std::collections::BTreeMap<Name, u64> = std::collections::BTreeMap::new();
        for event in trace.events() {
            *counts.entry(event.name).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    });

    let opts = AnalysisOptions {
        corpus,
        ..AnalysisOptions::default()
    };
    let (engine, diagnostics) = match Engine::compile_with_analysis(&properties, &mut voc, &opts) {
        Ok(compiled) => compiled,
        Err(errors) => {
            emit_diagnostics(&error_diagnostics(&errors, &voc), &properties, format);
            return ExitCode::from(2);
        }
    };
    emit_diagnostics(&diagnostics, &properties, format);

    if fix_prune {
        let corpus_set: Option<NameSet> = opts
            .corpus
            .as_ref()
            .map(|counts| counts.iter().map(|&(name, _)| name).collect());
        let outcome = prune_dead(engine.fused(), corpus_set.as_ref(), opts.state_budget);
        let stats = outcome.stats;
        println!(
            "fix-prune: dropped {} of {} action-table rows ({} entries), \
             neutralized {} further entries",
            stats.dropped_rows,
            stats.rows,
            stats.dropped_entries(),
            stats.neutralized_entries,
        );
        // The prune is verdict-preserving on corpus traces by construction;
        // trust nothing, replay the corpus through both rulebooks.
        if let Some(trace) = &trace {
            let mut original = engine.fused().instantiate();
            let mut pruned = outcome.fused.instantiate();
            for event in trace.events() {
                for (o, p) in original.iter_mut().zip(pruned.iter_mut()) {
                    if o.observe(*event) != p.observe(*event) {
                        eprintln!(
                            "error: fix-prune self-check failed: verdicts diverge at {} \
                             `{}` — this is a bug, the unpruned rulebook stands",
                            event.time,
                            voc.resolve(event.name),
                        );
                        return ExitCode::from(2);
                    }
                }
            }
            let end = trace.end_time();
            for (o, p) in original.iter_mut().zip(pruned.iter_mut()) {
                if o.finish(end) != p.finish(end) {
                    eprintln!(
                        "error: fix-prune self-check failed: final verdicts diverge — \
                         this is a bug, the unpruned rulebook stands"
                    );
                    return ExitCode::from(2);
                }
            }
            println!(
                "fix-prune: self-check ok — verdicts identical over {} corpus events",
                trace.len()
            );
        }
    }

    let errors = diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Warning)
        .count();
    if errors > 0 || (deny_warnings && warnings > 0) {
        ExitCode::from(2)
    } else if warnings > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Print lint findings: one text line or one NDJSON object per finding,
/// plus a text-mode summary tail.
fn emit_diagnostics(diagnostics: &[Diagnostic], properties: &[String], format: ReportFormat) {
    match format {
        ReportFormat::Text => {
            for diagnostic in diagnostics {
                println!("{}", diagnostic.render_text());
            }
            let (mut errors, mut warnings, mut notes) = (0, 0, 0);
            for diagnostic in diagnostics {
                match diagnostic.severity {
                    Severity::Error => errors += 1,
                    Severity::Warning => warnings += 1,
                    Severity::Note => notes += 1,
                }
            }
            println!(
                "lint: {} propert{}, {errors} error(s), {warnings} warning(s), {notes} note(s)",
                properties.len(),
                if properties.len() == 1 { "y" } else { "ies" },
            );
        }
        ReportFormat::Json => {
            for diagnostic in diagnostics {
                println!("{}", diagnostic.render_json());
            }
        }
    }
}

/// `lomon profile` — replay a recorded trace through the fused rulebook
/// program and rank the unique recognizer groups by monitoring work
/// ([`lomon::engine::profile_trace`]). `--top K` bounds the ranking
/// (default 10), `--format json` emits one machine-readable object, and
/// `--trace-out FILE` writes the phase timeline as Chrome trace-event
/// JSON for `chrome://tracing` / Perfetto.
///
/// Exit code: 0 when the profile ran (violations are *reported*, not
/// failed on — this is a profiler, `lomon check` owns the verdict
/// contract), 1 on unreadable inputs or compile errors, 2 on usage errors.
fn profile(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let deny_warnings = take_bool_flag(&mut args, "--deny-warnings");
    let format = match take_report_format_flag(&mut args) {
        Ok(format) => format,
        Err(code) => return code,
    };
    let top = match take_value_flag(&mut args, "--top") {
        Ok(None) => 10usize,
        Ok(Some(raw)) => match parse_flag_value::<usize>("--top", &raw) {
            Ok(0) => {
                eprintln!("error: `--top` must be positive");
                return usage();
            }
            Ok(top) => top,
            Err(code) => return code,
        },
        Err(code) => return code,
    };
    let trace_out = match take_value_flag(&mut args, "--trace-out") {
        Ok(path) => path,
        Err(code) => return code,
    };
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        eprintln!("error: unknown flag `{flag}`");
        return usage();
    }
    // The last positional is the trace file; everything before it is the
    // rulebook (files with one property per line, or inline properties).
    let Some((trace_path, rulebook)) = args.split_last() else {
        eprintln!("error: `lomon profile` needs a rulebook and a trace file");
        return usage();
    };
    if rulebook.is_empty() {
        eprintln!("error: `lomon profile` needs at least one property before the trace file");
        return usage();
    }
    let mut properties: Vec<String> = Vec::new();
    for arg in rulebook {
        if std::path::Path::new(arg).is_file() {
            let text = match std::fs::read_to_string(arg) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("error: cannot read {arg}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            properties.extend(
                text.lines()
                    .map(str::trim)
                    .filter(|l| !l.is_empty() && !l.starts_with('#'))
                    .map(str::to_owned),
            );
        } else {
            properties.push(arg.clone());
        }
    }
    if properties.is_empty() {
        eprintln!("error: the rulebook is empty");
        return ExitCode::FAILURE;
    }

    // Every phase below runs under a tracer span; with `--trace-out` the
    // resulting timeline is written as Chrome trace-event JSON.
    let tracer = Tracer::new();
    let mut voc = Vocabulary::new();
    let span = tracer.span("load-trace", "phase");
    let trace = match load(trace_path, &mut voc) {
        Ok(trace) => trace,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    span.finish();
    let span = tracer.span("compile", "phase");
    let engine = match compile_all(&properties, &mut voc, deny_warnings) {
        Ok(engine) => engine,
        Err(code) => return code,
    };
    span.finish();
    let span = tracer.span("replay", "phase");
    let report = profile_trace(&engine, trace.events(), trace.end_time(), None);
    span.finish();

    let span = tracer.span("report", "phase");
    match format {
        ReportFormat::Text => print!("{}", report.render_text(&engine, top)),
        ReportFormat::Json => println!("{}", report.render_json(&engine, top)),
    }
    span.finish();
    if let Some(path) = &trace_out {
        if let Err(e) = std::fs::write(path, tracer.render_json()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "trace: wrote {} span(s) to {path} (chrome://tracing or Perfetto)",
            tracer.len()
        );
    }
    ExitCode::SUCCESS
}

fn vcd(path: &str) -> ExitCode {
    let mut voc = Vocabulary::new();
    match load(path, &mut voc) {
        Ok(trace) => {
            print!("{}", write_vcd(&trace, &voc));
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn gen(text: &str, rest: &[String]) -> ExitCode {
    let seed = match rest.first() {
        None => 1u64,
        Some(raw) => match raw.parse() {
            Ok(seed) => seed,
            Err(_) => {
                eprintln!("error: seed `{raw}` is not an unsigned integer");
                return usage();
            }
        },
    };
    let episodes = match rest.get(1) {
        None => 3u32,
        Some(raw) => match raw.parse() {
            Ok(episodes) => episodes,
            Err(_) => {
                eprintln!("error: episode count `{raw}` is not an unsigned integer");
                return usage();
            }
        },
    };
    let mut voc = Vocabulary::new();
    let property = match parse_property(text, &mut voc) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error in property:\n{}", e.display_with_source(text));
            return ExitCode::FAILURE;
        }
    };
    let config = GeneratorConfig {
        episodes,
        ..GeneratorConfig::new(seed)
    };
    let generated = generate(&property, &config);
    print!("{}", write_trace(&generated.trace, &voc));
    ExitCode::SUCCESS
}

fn demo() -> ExitCode {
    let report = run_scenario(&ScenarioConfig::nominal(1));
    println!("# trace recorded from the face-recognition platform (seed 1)");
    print!("{}", write_trace(&report.trace, &report.vocabulary));
    eprintln!();
    for (label, verdict) in &report.verdicts {
        eprintln!("online verdict: {label} → {verdict}");
    }
    ExitCode::SUCCESS
}
