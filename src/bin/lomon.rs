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
//! `check` and `watch` run on the `lomon-engine` subsystem: the property
//! set is compiled once (every parse/well-formedness error is reported,
//! not just the first), and each input is fed in 64 KiB reads through one
//! read → push → step loop over the engine's stream driver
//! ([`lomon::engine::StreamDriver`]), which dispatches events through the
//! inverted name→monitor index; the report includes the dispatch
//! statistics. `check` accepts any number of trace files (the leading
//! arguments that name readable files) and streams them one at a time,
//! resetting one driver between files, so its memory does not grow with
//! the traces; the exit code is non-zero if *any* file violates *any*
//! property.
//!
//! `smc` runs a `lomon-smc` campaign: many seed-randomized episodes —
//! platform simulations (default) or `lomon-gen` stimuli over a trace
//! file — monitored in parallel, with Chernoff–Hoeffding estimates and
//! optional SPRT hypothesis tests per property.
//!
//! `lint` compiles a rulebook without running anything and reports the
//! whole-rulebook static analysis ([`lomon::core::analysis`]): duplicate,
//! vacuous, subsumed and conflicting properties, coverage gaps and dead
//! action-table entries, each under a stable `L0xx` code. Its warning
//! passes run implicitly on `check`/`watch`/`smc`/`serve`/`profile`
//! rulebooks, which print the warnings and accept `--deny-warnings` to
//! refuse them; the note passes run on `lint` alone.
//!
//! Every command reads its arguments with one left-to-right flag grammar
//! (`Args::parse`), writes its output to stdout through one fallible
//! writer (a failed write exits 1), and writes stderr best effort.
#![deny(clippy::print_stdout, clippy::print_stderr)]

use std::ffi::OsString;
use std::fmt::Display;
use std::io::{self, Read, Write};
use std::ops::RangeBounds;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use lomon::core::analysis::{prune_dead, AnalysisOptions, Diagnostic, Divergence, Severity};
use lomon::core::parse::parse_property;
use lomon::engine::{
    error_diagnostics, profile_trace, rulebook_lines, Backend, DispatchMode, Engine, EngineReport,
    Fault, Record, RecordSink, SessionMetrics, Step, StreamDriver,
};
use lomon::gen::{generate, GeneratorConfig};
use lomon::obs::{Histogram, MetricsServer, Registry, Stopwatch, Tracer};
use lomon::serve::{ServeConfig, Server, StartError};
use lomon::smc::{
    Campaign, CampaignConfig, CampaignError, CampaignMetrics, CampaignMode, CampaignProgress,
    EpisodeModel, GenModel, ScenarioModel, SprtConfig,
};
use lomon::tlm::scenario::{run_scenario, ScenarioConfig};
use lomon::trace::{
    json_escape, read_trace_bytes, write_trace, write_vcd, IoMetrics, Name, NameSet, SimTime,
    StreamFormat, Trace, Vocabulary,
};

/// Write one line to stderr, best effort: a closed or full stderr never
/// fails a command.
macro_rules! stderr {
    ($($arg:tt)*) => {{
        let _ = writeln!(io::stderr(), $($arg)*);
    }};
}

/// Stdout, the one writer of every command's output. It stays
/// line-buffered, so `watch` emits each record as it happens, and a failed
/// write ends the command with exit 1.
type Out = io::StdoutLock<'static>;

/// How a command ends early: with an exit code whose reason is already on
/// stderr, or with a failed write of its output.
enum Stop {
    Exit(ExitCode),
    Output(io::Error),
}

impl From<ExitCode> for Stop {
    fn from(code: ExitCode) -> Self {
        Stop::Exit(code)
    }
}

impl From<io::Error> for Stop {
    fn from(e: io::Error) -> Self {
        Stop::Output(e)
    }
}

/// What a command returns: its exit code, or how it stopped early.
type Outcome = Result<ExitCode, Stop>;

fn main() -> ExitCode {
    let args: Vec<String> = match std::env::args_os()
        .skip(1)
        .map(OsString::into_string)
        .collect::<Result<_, _>>()
    {
        Ok(args) => args,
        Err(arg) => {
            let arg = arg.to_string_lossy();
            return misuse(format_args!("argument `{arg}` is not valid UTF-8"));
        }
    };
    let Some((command, rest)) = args.split_first() else {
        return usage();
    };
    let run: fn(&[String], &mut Out) -> Outcome = match command.as_str() {
        "check" => check,
        "watch" => watch,
        "serve" => serve,
        "smc" => smc,
        "lint" => lint,
        "profile" => profile,
        "vcd" => vcd,
        "gen" => gen,
        "demo" => demo,
        unknown => return misuse(format_args!("unknown command `{unknown}`")),
    };
    let mut out = io::stdout().lock();
    let outcome = run(rest, &mut out).and_then(|code| {
        out.flush()?;
        Ok(code)
    });
    match outcome {
        Ok(code) | Err(Stop::Exit(code)) => code,
        Err(Stop::Output(e)) => {
            stderr!("error: cannot write output: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The usage text, written whole by [`usage`].
const USAGE: &str = "usage:
  lomon check [--backend fused|interp] [--format text|json]
              [--explain] [--metrics ADDR] [--stats-every N]
              <trace-file>... <property>...
  lomon watch [--format trace|ndjson] [--backend fused|interp]
              [--strict] [--explain] [--metrics ADDR] [--stats-every N]
              <property>...
  lomon serve [--listen ADDR] [--admin ADDR] [--metrics ADDR]
              [--deny-warnings] [--max-streams N]
              <rulebook-file|property>...
  lomon smc   [--episodes N] [--jobs J] [--seed S] [--confidence C]
              [--epsilon E] [--sprt P0 P1] [--fault-prob Q]
              [--format text|json] [--metrics ADDR]
              [--stats-every N] [--quiet]
              [--trace <file> [--mutation-prob Q]] [property...]
  lomon lint  [--format text|json] [--trace <file>] [--fix-prune]
              [--deny-warnings] <rulebook-file|property>...
  lomon profile [--format text|json] [--top K] [--trace-out FILE]
              <rulebook-file|property>... <trace-file>
  lomon vcd   <trace-file>
  lomon gen   <property> [seed [episodes]]
  lomon demo

Flags may stand anywhere among the other arguments. A flag's value is
given as `--flag VALUE` or `--flag=VALUE` (`--sprt` takes two values), the
last one given wins, and a value may not start with `--`. An unknown flag,
a missing value, or a malformed or non-positive count exits 2.

--backend (check, watch) selects the monitor execution backend: the
fused rulebook program (default; structurally identical properties
share one cell arena) or the per-property tree-walking interpreter
(the verdict-identical differential oracle).

--format json makes `check` and `smc` print one machine-readable
JSON report per trace file / campaign instead of the text report.

--explain arms a bounded flight recorder per monitor: violations are
reported with their witness chain — the contributing events, each
with the recognizer cell it advanced. Off by default (zero cost).

profile replays a recorded trace through the fused rulebook program
and ranks the unique recognizer groups by monitor steps and wall-
clock time; --trace-out writes a Chrome trace-event JSON file for
chrome://tracing or Perfetto.

--metrics ADDR serves live telemetry over HTTP while check/watch/smc
run: GET /metrics is Prometheus text, GET /metrics.json is NDJSON (use
port 0 for an ephemeral port; the bound address is announced on
stderr). --stats-every N prints a {\"type\": \"stats\", ...} heartbeat
every N events (check, watch) or episodes (smc). smc prints a progress
line per scheduling batch to stderr; --quiet suppresses it.

property example:
  'all{set_imgAddr, set_glAddr, set_glSize} << start once'

watch reads events from stdin: `10ns in set_imgAddr` lines (trace
format) or one JSON object per line (ndjson format), e.g.
  {\"time\": \"10ns\", \"dir\": \"in\", \"name\": \"set_imgAddr\"}
Malformed or time-travelling lines are skipped and counted (an error
record per line: stderr in trace format, an NDJSON {\"type\": \"error\"}
line in ndjson format); --strict makes them fatal with exit 2.

serve runs the hardened monitoring daemon: many concurrent NDJSON
streams over TCP against one compiled rulebook, with per-stream
fault isolation, overload shedding, rulebook hot-reload and drain
shutdown via the --admin endpoint (GET /health, POST /reload,
POST /shutdown). See the lomon-serve crate docs for the protocol.

smc runs a statistical model-checking campaign: platform episodes
with randomized fault injection (default; properties optional), or
--trace <file> episodes mutating a recorded trace (the first
property anchors the mutations). --sprt tests H0: p >= P0 against
H1: p <= P1 per property and exits 1 if any property accepts H1.

lint statically analyses a rulebook (files hold one property per
line, `#` comments allowed) and reports coded findings: duplicate,
vacuous, subsumed or conflicting properties, unobserved vocabulary
and — given a `--trace` corpus — unsubscribed events and dead
action-table rows (`--fix-prune` drops them and self-checks the
verdicts). Exit 0 clean, 1 warnings, 2 errors. check/watch/smc run
the same analysis and print its warnings; `--deny-warnings` makes
them (and lint) fail on any warning.
";

/// Write the usage text to stderr; exit code 2.
fn usage() -> ExitCode {
    let _ = io::stderr().write_all(USAGE.as_bytes());
    ExitCode::from(2)
}

/// Refuse a malformed command line: `error: {message}`, then the usage
/// text; exit code 2.
fn misuse(message: impl Display) -> ExitCode {
    stderr!("error: {message}");
    usage()
}

/// A command line read by the one flag grammar every command shares: the
/// values of each flag given and the operands (every other argument), in
/// order.
struct Args {
    flags: Vec<(&'static str, Vec<String>)>,
    operands: Vec<String>,
}

impl Args {
    /// Read `raw`, the arguments after `lomon <command>`, left to right.
    /// `flags` declares each flag of the command with the number of values
    /// it takes (0, 1, or 2 for `--sprt P0 P1`). A flag may stand anywhere
    /// among the operands and takes its first value as `--flag VALUE` or
    /// `--flag=VALUE`; the last one given wins, and a value may not start
    /// with `--`. An unknown flag, a missing value or an operand count
    /// outside `operands` is a usage error.
    fn parse(
        command: &str,
        raw: &[String],
        flags: &[(&'static str, usize)],
        operands: impl RangeBounds<usize>,
    ) -> Result<Args, ExitCode> {
        let mut args = Args {
            flags: Vec::new(),
            operands: Vec::new(),
        };
        let mut rest = raw.iter();
        while let Some(arg) = rest.next() {
            if !arg.starts_with("--") {
                args.operands.push(arg.clone());
                continue;
            }
            let inline = arg.split_once('=');
            let name = inline.map_or(arg.as_str(), |(name, _)| name);
            let Some(&(flag, arity)) = flags.iter().find(|(flag, _)| *flag == name) else {
                return Err(misuse(format_args!("unknown flag `{arg}`")));
            };
            let mut values: Vec<String> = inline.map(|(_, v)| v.to_owned()).into_iter().collect();
            if arity == 0 && !values.is_empty() {
                return Err(misuse(format_args!("`{flag}` takes no value")));
            }
            values.extend(rest.by_ref().take(arity - values.len()).cloned());
            if values.len() < arity || values.iter().any(|v| v.starts_with("--")) {
                return Err(misuse(format_args!("`{flag}` requires a value")));
            }
            args.flags.retain(|(given, _)| *given != flag);
            args.flags.push((flag, values));
        }
        if !operands.contains(&args.operands.len()) {
            return Err(misuse(format_args!(
                "wrong arguments for `lomon {command}`"
            )));
        }
        Ok(args)
    }

    /// The values of `flag`, if it was given.
    fn values(&self, flag: &str) -> Option<&[String]> {
        self.flags
            .iter()
            .find(|(given, _)| *given == flag)
            .map(|(_, values)| values.as_slice())
    }

    /// Whether `flag` was given.
    fn has(&self, flag: &str) -> bool {
        self.values(flag).is_some()
    }

    /// The (first) value of `flag`, if it was given.
    fn value(&self, flag: &str) -> Option<&str> {
        self.values(flag)?.first().map(String::as_str)
    }

    /// The values of `flag`, each parsed as a `T`, if it was given.
    fn numbers<T: FromStr>(&self, flag: &str) -> Result<Option<Vec<T>>, ExitCode> {
        let Some(values) = self.values(flag) else {
            return Ok(None);
        };
        values
            .iter()
            .map(|raw| {
                raw.parse()
                    .map_err(|_| misuse(format_args!("`{flag}` value `{raw}` is not valid")))
            })
            .collect::<Result<_, _>>()
            .map(Some)
    }

    /// The value of `flag` parsed as a `T`, if it was given.
    fn number<T: FromStr>(&self, flag: &str) -> Result<Option<T>, ExitCode> {
        Ok(self
            .numbers(flag)?
            .and_then(|values| values.into_iter().next()))
    }

    /// [`Args::number`] for a count that must be positive.
    fn positive<T: FromStr + PartialOrd + Default>(
        &self,
        flag: &str,
    ) -> Result<Option<T>, ExitCode> {
        match self.number(flag)? {
            Some(n) if n <= T::default() => Err(misuse(format_args!("`{flag}` must be positive"))),
            n => Ok(n),
        }
    }

    /// The value of `flag`, one of `choices`; the first choice when the
    /// flag is absent.
    fn choice<T: Copy>(&self, flag: &str, choices: &[(&str, T)]) -> Result<T, ExitCode> {
        let Some(raw) = self.value(flag) else {
            return Ok(choices[0].1);
        };
        if let Some(&(_, choice)) = choices.iter().find(|(name, _)| *name == raw) {
            return Ok(choice);
        }
        let expected: Vec<String> = choices
            .iter()
            .map(|(name, _)| format!("`{name}`"))
            .collect();
        let what = flag.trim_start_matches('-');
        Err(misuse(format_args!(
            "unknown {what} `{raw}` (expected {})",
            expected.join(" or ")
        )))
    }
}

/// Output format of the `check`, `smc`, `lint` and `profile` reports.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ReportFormat {
    Text,
    Json,
}

/// The values of `--format` on the report commands; text is the default.
const REPORT_FORMATS: &[(&str, ReportFormat)] =
    &[("text", ReportFormat::Text), ("json", ReportFormat::Json)];

/// Exit code 0 when `ok`, 1 otherwise.
fn verdict_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Read one whole trace file into memory, for the commands that need the
/// trace as a value (`vcd`, `profile`, `lint --trace`, `smc --trace`):
/// one heap read, decoded by the whole-buffer reader ([`read_trace_bytes`]). A file
/// that is not UTF-8 fails with the `cannot read …` diagnostic class
/// instead of a per-line parse error; any failure exits with `code`.
/// `check` streams its files instead.
fn load(path: &str, voc: &mut Vocabulary, code: u8) -> Result<Trace, ExitCode> {
    std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))
        .and_then(|text| read_trace_bytes(text.as_bytes(), voc).map_err(|e| format!("{path}: {e}")))
        .map_err(|message| {
            stderr!("error: {message}");
            ExitCode::from(code)
        })
}

/// A vocabulary that already holds the rulebook's names, for the commands
/// that read a trace file into it before compiling (`profile`, `lint
/// --trace`, `smc --trace`): each name keeps the direction the rulebook
/// gives it, as on `check`, and a trace's `in|out` token cannot override
/// it. A property that fails to parse is left to the compile to report.
fn rulebook_vocabulary(properties: &[String]) -> Vocabulary {
    let mut voc = Vocabulary::new();
    for text in properties {
        let _ = parse_property(text, &mut voc);
    }
    voc
}

/// The rulebook of `lint`, `profile` and `serve`: a file argument
/// contributes the properties [`rulebook_lines`] splits its text into (the
/// rule `serve` applies to a `POST /reload` body), any other argument is
/// one inline property. An unreadable file exits with `code`.
fn read_rulebook(args: &[String], code: u8) -> Result<Vec<String>, ExitCode> {
    let mut properties = Vec::new();
    for arg in args {
        if !Path::new(arg).is_file() {
            properties.push(arg.clone());
            continue;
        }
        match std::fs::read_to_string(arg) {
            Ok(text) => properties.extend(rulebook_lines(&text)),
            Err(e) => {
                stderr!("error: cannot read {arg}: {e}");
                return Err(ExitCode::from(code));
            }
        }
    }
    Ok(properties)
}

/// Compile the whole property set, reporting *every* error before giving
/// up — a long rulebook is fixed in one pass, not one error at a time.
/// Compilation also runs the warning passes of the static analysis: the
/// warnings (duplicate / vacuous / subsumed / conflicting properties) go to
/// stderr, and with `deny_warnings` any warning refuses the rulebook. The
/// note passes are lint-only detail and do not run here.
fn compile_all(
    properties: &[String],
    voc: &mut Vocabulary,
    deny_warnings: bool,
) -> Result<Engine, ExitCode> {
    let opts = AnalysisOptions::default();
    match Engine::compile_with_analysis(properties, voc, &opts) {
        Ok((engine, warnings)) => {
            print_warnings(&warnings, deny_warnings)?;
            Ok(engine)
        }
        Err(errors) => {
            for error in &errors {
                stderr!("error in property:\n{}", error.display(voc));
            }
            Err(ExitCode::FAILURE)
        }
    }
}

/// Print the rulebook analysis' warnings to stderr; with `deny_warnings`
/// any warning refuses the rulebook.
fn print_warnings(warnings: &[Diagnostic], deny_warnings: bool) -> Result<(), ExitCode> {
    for warning in warnings {
        stderr!("{}", warning.render_text());
    }
    if deny_warnings && !warnings.is_empty() {
        stderr!(
            "error: rulebook has {} warning(s) (--deny-warnings)",
            warnings.len()
        );
        return Err(ExitCode::FAILURE);
    }
    Ok(())
}

/// The `--metrics` telemetry of `check`, `watch` and `smc`.
struct Telemetry<F> {
    registry: Arc<Registry>,
    /// The families the command registered before the listener bound.
    families: F,
    compile_ns: Arc<Histogram>,
    server: MetricsServer,
}

impl<F> Telemetry<F> {
    /// Set up `--metrics ADDR`, if given: a registry holding the families
    /// `register` adds and `lomon_compile_ns`, then its listener, bound and
    /// announced on stderr (with `:0` the kernel picks the port, and the
    /// announcement is how callers learn it). Everything is registered
    /// before the listener binds, so a scrape racing startup sees complete
    /// families at zero rather than a partial registry. A bind failure —
    /// typically the port is already taken — is a usage-class error: exit
    /// code 2, nothing has run yet.
    fn start(args: &Args, register: impl FnOnce(&Registry) -> F) -> Result<Option<Self>, ExitCode> {
        let Some(addr) = args.value("--metrics") else {
            return Ok(None);
        };
        let registry = Arc::new(Registry::new());
        let families = register(&registry);
        let compile_ns = registry.histogram(
            "lomon_compile_ns",
            "Wall-clock nanoseconds spent compiling the rulebook",
        );
        match MetricsServer::bind(addr, Arc::clone(&registry)) {
            Ok(server) => {
                stderr!("metrics: serving http://{}/metrics", server.local_addr());
                Ok(Some(Telemetry {
                    registry,
                    families,
                    compile_ns,
                    server,
                }))
            }
            Err(e) => {
                stderr!("error: cannot bind metrics listener on {addr}: {e}");
                Err(ExitCode::from(2))
            }
        }
    }

    /// Time the rulebook's compilation into `lomon_compile_ns` until the
    /// returned stopwatch drops.
    fn time_compile(&self) -> Stopwatch {
        Stopwatch::start(Arc::clone(&self.compile_ns))
    }
}

/// Flight-recorder capacity armed by `--explain`: enough for every
/// realistic violation chain, bounded so a pathological stream cannot
/// grow memory per monitor — and small enough (1 KiB of ring per
/// monitor) that an armed rulebook stays cache-resident.
const EXPLAIN_CAPACITY: usize = 64;

/// The flags of `check` and `watch` (with `--format`), which both set up
/// one pipeline in [`run_stream`].
const STREAM_FLAGS: [(&str, usize); 6] = [
    ("--backend", 1),
    ("--deny-warnings", 0),
    ("--explain", 0),
    ("--format", 1),
    ("--metrics", 1),
    ("--stats-every", 1),
];

/// The pipeline `check` and `watch` share: compile `properties` under
/// their common flags (`--backend`, `--deny-warnings`, `--explain`,
/// `--metrics`, `--stats-every`) and hand `drive` a driver of `format`
/// streams over them, the metrics listener, if any, and the frozen
/// vocabulary.
fn run_stream(
    args: &Args,
    properties: &[String],
    format: StreamFormat,
    drive: impl FnOnce(&mut StreamDriver<'_>, Option<&MetricsServer>, &Vocabulary) -> Outcome,
) -> Outcome {
    let backends = [("fused", Backend::Fused), ("interp", Backend::Interp)];
    let backend = args.choice("--backend", &backends)?;
    let stats_every = args.positive("--stats-every")?;
    let telemetry = Telemetry::start(args, |registry| {
        (
            SessionMetrics::register(registry),
            IoMetrics::register(registry),
        )
    })?;
    let mut voc = Vocabulary::new();
    let compile_span = telemetry.as_ref().map(Telemetry::time_compile);
    let engine = compile_all(properties, &mut voc, args.has("--deny-warnings"))?;
    drop(compile_span);
    let mut session = engine.session_with_backend(DispatchMode::Indexed, backend);
    if args.has("--explain") {
        session.enable_explain(EXPLAIN_CAPACITY);
    }
    if let Some(telemetry) = &telemetry {
        session.attach_metrics(Arc::clone(&telemetry.families.0));
    }
    let mut driver = StreamDriver::new(session, &voc, format)
        .observe_io(telemetry.as_ref().map(|t| Arc::clone(&t.families.1)))
        .heartbeat_every(stats_every);
    drive(&mut driver, telemetry.as_ref().map(|t| &t.server), &voc)
}

fn check(raw: &[String], out: &mut Out) -> Outcome {
    let args = Args::parse("check", raw, &STREAM_FLAGS, 2..)?;
    let format = args.choice("--format", REPORT_FORMATS)?;
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
        .operands
        .iter()
        .position(|a| looks_like_property(a) && !Path::new(a).is_file())
        .unwrap_or(args.operands.len())
        .max(1);
    let (paths, props) = args.operands.split_at(split);
    if props.is_empty() {
        let message = "`lomon check` needs at least one property after the trace file(s)";
        return Err(misuse(message).into());
    }

    // One pass: the rulebook is compiled first, so its vocabulary is frozen
    // and a trace name no property uses only advances time. Then each file
    // is one stream through one driver.
    run_stream(&args, props, StreamFormat::Trace, |driver, server, voc| {
        let reports = check_files(driver, paths)?;
        // Stop serving scrapes before the reports, as watch/smc do: a
        // scrape racing the shutdown gets a clean 503, never a torn
        // snapshot.
        if let Some(server) = server {
            server.drain();
        }
        // The reports go out as one block: buffered, not a write per
        // line, in a buffer of bounded size.
        let out = &mut io::BufWriter::with_capacity(READ_CHUNK, &mut *out);
        let mut all_ok = true;
        for (path, (report, end_time)) in paths.iter().zip(&reports) {
            match format {
                ReportFormat::Text => {
                    writeln!(
                        out,
                        "{path}: {} events, end at {end_time}",
                        report.stats.events
                    )?;
                    out.write_all(report.render(voc).as_bytes())?;
                }
                // One JSON object per trace file, NDJSON-style, so a
                // script over many files maps lines to files.
                ReportFormat::Json => writeln!(
                    out,
                    "{{\"file\": \"{}\", {}",
                    json_escape(path),
                    &report.render_json(voc)[1..],
                )?,
            }
            all_ok &= report.is_ok();
        }
        if format == ReportFormat::Text && paths.len() > 1 {
            writeln!(
                out,
                "{} files checked: {}",
                paths.len(),
                if all_ok { "all ok" } else { "violations found" }
            )?;
        }
        out.flush()?;
        Ok(verdict_code(all_ok))
    })
}

/// The policy of `check` over the stream driver: each file is one stream,
/// opened only once the one before it is done. Any rejected line is fatal
/// and names its file, `end` only records the time, and heartbeats go to
/// stderr. Returns each file's report and end time.
fn check_files(
    driver: &mut StreamDriver<'_>,
    paths: &[String],
) -> Result<Vec<(EngineReport, SimTime)>, Stop> {
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut reports = Vec::with_capacity(paths.len());
    for path in paths {
        let file = std::fs::File::open(path).map_err(|e| {
            stderr!("error: cannot read {path}: {e}");
            ExitCode::FAILURE
        })?;
        let mut emit = |record: &Record<'_>, text: &str| -> io::Result<()> {
            match record {
                Record::Error {
                    fault: Fault::Encoding,
                    ..
                } => stderr!("error: cannot read {path}: stream did not contain valid UTF-8"),
                Record::Error { line, reason, .. } => {
                    stderr!("error: {path}: trace line {line}: {reason}");
                }
                Record::Stats(_) => {
                    let _ = io::stderr().write_all(text.as_bytes());
                }
                Record::Verdict(_) | Record::Summary { .. } => {}
            }
            Ok(())
        };
        driver.reset();
        let fatal = |_: &mut StreamDriver<'_>, step, _: &mut _| {
            Ok(match step {
                Step::Fault(_) => Flow::Exit(ExitCode::FAILURE),
                Step::Applied | Step::End => Flow::Go,
            })
        };
        if let Flow::Exit(code) = pump(driver, file, path, &mut chunk, &mut emit, fatal)? {
            return Err(code.into());
        }
        reports.push(driver.finish(&mut emit)?);
    }
    Ok(reports)
}

fn watch(raw: &[String], out: &mut Out) -> Outcome {
    let mut flags = STREAM_FLAGS.to_vec();
    flags.push(("--strict", 0));
    let args = Args::parse("watch", raw, &flags, 1..)?;
    let formats = [
        ("trace", StreamFormat::Trace),
        ("ndjson", StreamFormat::Ndjson),
    ];
    let format = args.choice("--format", &formats)?;
    let strict = args.has("--strict");
    run_stream(&args, &args.operands, format, |driver, server, _| {
        watch_stdin(driver, format, strict, server, out)
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
    out: &mut Out,
) -> Outcome {
    let mut emit = |record: &Record<'_>, text: &str| {
        match record {
            Record::Error {
                fault: Fault::Encoding,
                ..
            } => {
                stderr!("error: cannot read stdin: stream did not contain valid UTF-8");
                return Ok(());
            }
            Record::Error { line, reason, .. } if strict => {
                stderr!("error: stream line {line}: {reason}");
                return Ok(());
            }
            // Stop serving scrapes before the final report: a scrape racing
            // the shutdown gets a clean 503, never a half-written snapshot.
            Record::Summary { .. } => server.map_or((), MetricsServer::drain),
            _ => {}
        }
        if format == StreamFormat::Ndjson || matches!(record, Record::Verdict(_)) {
            out.write_all(text.as_bytes())
        } else {
            let _ = io::stderr().write_all(text.as_bytes());
            Ok(())
        }
    };
    let mut chunk = vec![0u8; READ_CHUNK];
    let policy = |driver: &mut StreamDriver<'_>, step, emit: &mut _| {
        match step {
            Step::End => driver.advance(emit)?,
            Step::Fault(Fault::Encoding) => return Ok(Flow::Exit(ExitCode::FAILURE)),
            Step::Fault(_) if strict => return Ok(Flow::Exit(ExitCode::from(2))),
            Step::Applied | Step::Fault(_) => {}
        }
        // Once every verdict is final, the rest of the stream is moot.
        Ok(if driver.session().is_settled() {
            Flow::Stop
        } else {
            Flow::Go
        })
    };
    let stdin = io::stdin().lock();
    if let Flow::Exit(code) = pump(driver, stdin, "stdin", &mut chunk, &mut emit, policy)? {
        return Ok(code);
    }
    driver.close(&mut emit)?;
    Ok(verdict_code(driver.session().report().is_ok()))
}

/// Bytes asked of each read of a `check` file or of `watch`'s stdin.
const READ_CHUNK: usize = 64 * 1024;

/// What a command's policy makes of one [`Step`] of its stream.
enum Flow {
    /// Apply the next line.
    Go,
    /// Stop reading; the stream ends normally.
    Stop,
    /// Stop with this exit code; the stream does not end.
    Exit(ExitCode),
}

/// The one read → push → step loop of the binary: feed `input` through
/// `driver` in `chunk`-sized reads, apply each complete line (a last line
/// without a newline still counts) and hand its [`Step`] to `policy`.
/// Returns [`Flow::Stop`] at the end of the input or when `policy` stops,
/// and [`Flow::Exit`] when `policy` exits or the input cannot be read (the
/// error names `source`). Fails with the first error `sink` returns.
fn pump<'e, S: RecordSink>(
    driver: &mut StreamDriver<'e>,
    mut input: impl Read,
    source: &str,
    chunk: &mut [u8],
    sink: &mut S,
    mut policy: impl FnMut(&mut StreamDriver<'e>, Step, &mut S) -> io::Result<Flow>,
) -> io::Result<Flow> {
    loop {
        let ended = match input.read(chunk) {
            Ok(0) => {
                driver.end_input();
                true
            }
            Ok(n) => {
                driver.push(&chunk[..n]);
                false
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => false,
            Err(e) => {
                stderr!("error: cannot read {source}: {e}");
                return Ok(Flow::Exit(ExitCode::FAILURE));
            }
        };
        while let Some(step) = driver.step(sink)? {
            match policy(driver, step, sink)? {
                Flow::Go => {}
                flow => return Ok(flow),
            }
        }
        if ended {
            return Ok(Flow::Stop);
        }
    }
}

/// How long `serve` waits, once drained, for its rulebook warnings to
/// reach a stderr that nobody reads.
const WARNINGS_GRACE: Duration = Duration::from_secs(1);

/// `lomon serve`: run the hardened monitoring daemon until a drain
/// shutdown is requested on the admin endpoint.
fn serve(raw: &[String], _: &mut Out) -> Outcome {
    let flags = [
        ("--admin", 1),
        ("--deny-warnings", 0),
        ("--listen", 1),
        ("--max-streams", 1),
        ("--metrics", 1),
    ];
    let args = Args::parse("serve", raw, &flags, 1..)?;
    let mut config = ServeConfig {
        deny_warnings: args.has("--deny-warnings"),
        listen: args
            .value("--listen")
            .unwrap_or("127.0.0.1:7450")
            .to_owned(),
        admin: args.value("--admin").unwrap_or("127.0.0.1:7451").to_owned(),
        metrics: args.value("--metrics").map(str::to_owned),
        ..ServeConfig::default()
    };
    if let Some(max_streams) = args.positive("--max-streams")? {
        config.max_streams = max_streams;
    }
    // One property per line: the daemon splits the text back with the
    // same rule.
    let rulebook = read_rulebook(&args.operands, 2)?.join("\n");

    let mut server = match Server::start(config, &rulebook) {
        Ok(server) => server,
        Err(StartError::Compile(diagnostics)) => {
            for diagnostic in &diagnostics {
                stderr!("{}", diagnostic.render_text());
            }
            stderr!("error: rulebook rejected; nothing is serving");
            return Ok(ExitCode::FAILURE);
        }
        Err(StartError::Io(e)) => {
            stderr!("error: cannot bind: {e}");
            return Ok(ExitCode::from(2));
        }
    };
    let properties = server.properties();
    stderr!(
        "serving {} propert{} on {} (admin {})",
        properties,
        if properties == 1 { "y" } else { "ies" },
        server.local_addr(),
        server.admin_addr(),
    );
    if let Some(addr) = server.metrics_addr() {
        stderr!("metrics on http://{addr}/metrics");
    }
    // The warnings follow the announcement, which a supervisor may read as
    // the first line and then stop reading. A thread of their own writes
    // them, so a full stderr pipe holds up neither the daemon nor its
    // exit; the thread is left behind if they are not out by then.
    let warnings: String = server
        .warnings()
        .iter()
        .map(|warning| warning.render_text() + "\n")
        .collect();
    let (written, done) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = io::stderr().write_all(warnings.as_bytes());
        let _ = written.send(());
    });
    server.wait();
    let _ = done.recv_timeout(WARNINGS_GRACE);
    Ok(ExitCode::SUCCESS)
}

fn smc(raw: &[String], out: &mut Out) -> Outcome {
    let flags = [
        ("--confidence", 1),
        ("--deny-warnings", 0),
        ("--episodes", 1),
        ("--epsilon", 1),
        ("--fault-prob", 1),
        ("--format", 1),
        ("--jobs", 1),
        ("--metrics", 1),
        ("--mutation-prob", 1),
        ("--quiet", 0),
        ("--seed", 1),
        ("--sprt", 2),
        ("--stats-every", 1),
        ("--trace", 1),
    ];
    let args = Args::parse("smc", raw, &flags, ..)?;
    let format = args.choice("--format", REPORT_FORMATS)?;
    let stats_every: Option<u64> = args.positive("--stats-every")?;
    let episodes: Option<u64> = args.positive("--episodes")?;
    let jobs: usize = args.number("--jobs")?.unwrap_or(0);
    if jobs > lomon::smc::MAX_JOBS {
        return Err(misuse(format_args!(
            "`--jobs` may be at most {}",
            lomon::smc::MAX_JOBS
        ))
        .into());
    }
    let seed: u64 = args.number("--seed")?.unwrap_or(1);
    let confidence: f64 = args.number("--confidence")?.unwrap_or(0.95);
    // Mode-dependent flags stay `None` unless the user passed them, so a
    // flag that the selected mode would silently ignore is an error, not a
    // silently different campaign.
    let epsilon: Option<f64> = args.number("--epsilon")?;
    let sprt = args.numbers::<f64>("--sprt")?.map(|p| (p[0], p[1]));
    let fault_prob: Option<f64> = args.number("--fault-prob")?;
    let mutation_prob: Option<f64> = args.number("--mutation-prob")?;
    let trace_path = args.value("--trace");
    let properties = &args.operands;
    if !(confidence > 0.0 && confidence < 1.0) {
        return Err(misuse("`--confidence` must lie strictly between 0 and 1").into());
    }
    if epsilon.is_some_and(|e| !(e > 0.0 && e < 1.0)) {
        return Err(misuse("`--epsilon` must lie strictly between 0 and 1").into());
    }
    for (flag, p) in [
        ("--fault-prob", fault_prob),
        ("--mutation-prob", mutation_prob),
    ] {
        if p.is_some_and(|p| !(0.0..=1.0).contains(&p)) {
            return Err(misuse(format_args!("`{flag}` must lie in [0, 1]")).into());
        }
    }
    // Reject flag combinations the selected mode would ignore.
    if epsilon.is_some() && episodes.is_some() {
        return Err(
            misuse("`--epsilon` sizes the campaign; it conflicts with `--episodes`").into(),
        );
    }
    if epsilon.is_some() && sprt.is_some() {
        return Err(
            misuse("`--epsilon` only applies to estimation campaigns, not `--sprt`").into(),
        );
    }
    if trace_path.is_some() && fault_prob.is_some() {
        return Err(misuse("`--fault-prob` applies to platform campaigns, not `--trace`").into());
    }
    if trace_path.is_none() && mutation_prob.is_some() {
        return Err(misuse("`--mutation-prob` requires `--trace`").into());
    }

    // Assemble the mode: SPRT with early stopping, or fixed-size
    // estimation sized by the Okamoto bound when `--episodes` is absent.
    let mode = match sprt {
        Some((p0, p1)) => match SprtConfig::new(p0, p1) {
            Ok(config) => CampaignMode::Sprt {
                config,
                max_episodes: episodes.unwrap_or(100_000),
            },
            Err(e) => return Err(misuse(format_args!("invalid `--sprt`: {e}")).into()),
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
    };

    // Assemble the model: platform episodes, or mutations of a recorded
    // trace.
    let jobs = lomon::smc::effective_jobs(jobs);
    let (model, preamble): (Box<dyn EpisodeModel>, String) = match trace_path {
        None => {
            let fault_prob = fault_prob.unwrap_or(0.2);
            let mut model = ScenarioModel::new(ScenarioConfig::nominal(seed))
                .with_fault_probability(fault_prob);
            if !properties.is_empty() {
                model = model.with_properties(properties.clone());
            }
            let preamble = format!(
                "smc: platform campaign, fault probability {fault_prob}, seed {seed}, jobs {jobs}"
            );
            (Box::new(model), preamble)
        }
        Some(path) => {
            if properties.is_empty() {
                return Err(misuse("`lomon smc --trace` needs at least one property").into());
            }
            let mut voc = rulebook_vocabulary(properties);
            let base = load(path, &mut voc, 1)?;
            let model = match GenModel::from_trace(properties.clone(), base, voc) {
                Ok(model) => model,
                Err(message) => {
                    stderr!("error in property:\n{message}");
                    return Ok(ExitCode::FAILURE);
                }
            };
            let mutation_prob = mutation_prob.unwrap_or(0.5);
            let preamble = format!(
                "smc: trace campaign over {path}, mutation probability {mutation_prob}, \
                 seed {seed}, jobs {jobs}"
            );
            (
                Box::new(model.with_mutation_probability(mutation_prob)),
                preamble,
            )
        }
    };

    let telemetry = Telemetry::start(&args, |_| ())?;
    let compile_span = telemetry.as_ref().map(Telemetry::time_compile);
    let mut campaign = match Campaign::new(model.as_ref(), config) {
        Ok(campaign) => campaign,
        Err(CampaignError::Compile(errors, voc)) => {
            for error in &errors {
                stderr!("error in property:\n{}", error.display(&voc));
            }
            return Ok(ExitCode::FAILURE);
        }
        Err(other) => {
            stderr!("error: {other}");
            return Ok(ExitCode::FAILURE);
        }
    };
    drop(compile_span);
    // The warning passes run on the campaign's own engine, and
    // `--deny-warnings` refuses before anything is written to stdout.
    let warnings = campaign.engine().analyze(&AnalysisOptions::default());
    print_warnings(&warnings, args.has("--deny-warnings"))?;
    if let Some(telemetry) = &telemetry {
        let metrics = CampaignMetrics::register(&telemetry.registry, campaign.engine().len());
        campaign.attach_metrics(metrics);
    }
    if format == ReportFormat::Text {
        writeln!(out, "{preamble}")?;
    }

    // Telemetry (`--metrics`, `--stats-every`, progress lines) rides the
    // jobs-independent batch boundaries and never perturbs the report.
    let started = Instant::now();
    let quiet = args.has("--quiet");
    let mut next_heartbeat = stats_every.unwrap_or(u64::MAX);
    let report = campaign.run_observed(&mut |progress| {
        if !quiet {
            stderr!("{}", render_smc_progress(&progress));
        }
        if let Some(every) = stats_every {
            if progress.episodes >= next_heartbeat {
                stderr!("{}", render_smc_heartbeat(&progress));
                next_heartbeat = (progress.episodes / every + 1) * every;
            }
        }
    });
    let elapsed = started.elapsed();
    // Stop serving scrapes before the final report: a scrape racing
    // campaign completion gets a clean 503, never a torn snapshot.
    if let Some(telemetry) = &telemetry {
        telemetry.server.drain();
    }
    // The JSON format prints only the report object — no preamble and no
    // wall clock — so stdout is deterministic across `--jobs` and pipeable.
    match format {
        ReportFormat::Text => {
            out.write_all(report.render().as_bytes())?;
            writeln!(out, "  wall clock: {elapsed:.2?}")?;
        }
        ReportFormat::Json => writeln!(out, "{}", report.render_json())?,
    }
    // Exit 1 when an SPRT accepted `H1` (the satisfaction probability is
    // below the threshold).
    Ok(verdict_code(!report.any_rejected()))
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
fn lint(raw: &[String], out: &mut Out) -> Outcome {
    let flags = [
        ("--deny-warnings", 0),
        ("--fix-prune", 0),
        ("--format", 1),
        ("--trace", 1),
    ];
    let args = Args::parse("lint", raw, &flags, 1..)?;
    let format = args.choice("--format", REPORT_FORMATS)?;
    let properties = read_rulebook(&args.operands, 2)?;
    if properties.is_empty() {
        stderr!("error: the rulebook is empty");
        return Ok(ExitCode::from(2));
    }

    // An optional trace corpus: per-name event counts for the coverage
    // and dead-table analyses, and the self-check replay for --fix-prune.
    let mut voc = rulebook_vocabulary(&properties);
    let trace = args
        .value("--trace")
        .map(|path| load(path, &mut voc, 2))
        .transpose()?;
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
    // The warnings every surface prints, then the notes only lint runs.
    let (engine, mut diagnostics) =
        match Engine::compile_with_analysis(&properties, &mut voc, &opts) {
            Ok(compiled) => compiled,
            Err(errors) => {
                emit_diagnostics(out, &error_diagnostics(&errors, &voc), &properties, format)?;
                return Ok(ExitCode::from(2));
            }
        };
    diagnostics.extend(engine.notes(&voc, &opts));
    emit_diagnostics(out, &diagnostics, &properties, format)?;

    if args.has("--fix-prune") {
        let corpus_set: Option<NameSet> = opts
            .corpus
            .as_ref()
            .map(|counts| counts.iter().map(|&(name, _)| name).collect());
        let outcome = prune_dead(engine.fused(), corpus_set.as_ref(), opts.state_budget);
        let stats = outcome.stats;
        writeln!(
            out,
            "fix-prune: dropped {} of {} action-table rows ({} entries), \
             neutralized {} further entries",
            stats.dropped_rows,
            stats.rows,
            stats.dropped_entries(),
            stats.neutralized_entries,
        )?;
        // The prune is verdict-preserving on corpus traces by construction;
        // trust nothing, replay the corpus through both rulebooks.
        if let Some(trace) = &trace {
            match outcome.first_divergence(engine.fused(), trace.events(), trace.end_time()) {
                Some(Divergence::Event(event)) => {
                    stderr!(
                        "error: fix-prune self-check failed: verdicts diverge at {} \
                         `{}` — this is a bug, the unpruned rulebook stands",
                        event.time,
                        voc.resolve(event.name),
                    );
                    return Ok(ExitCode::from(2));
                }
                Some(Divergence::Finish) => {
                    stderr!(
                        "error: fix-prune self-check failed: final verdicts diverge — \
                         this is a bug, the unpruned rulebook stands"
                    );
                    return Ok(ExitCode::from(2));
                }
                None => {}
            }
            writeln!(
                out,
                "fix-prune: self-check ok — verdicts identical over {} corpus events",
                trace.len()
            )?;
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
    Ok(
        if errors > 0 || (args.has("--deny-warnings") && warnings > 0) {
            ExitCode::from(2)
        } else {
            verdict_code(warnings == 0)
        },
    )
}

/// Print lint findings: one text line or one NDJSON object per finding,
/// plus a text-mode summary tail.
fn emit_diagnostics(
    out: &mut Out,
    diagnostics: &[Diagnostic],
    properties: &[String],
    format: ReportFormat,
) -> io::Result<()> {
    match format {
        ReportFormat::Text => {
            for diagnostic in diagnostics {
                writeln!(out, "{}", diagnostic.render_text())?;
            }
            let (mut errors, mut warnings, mut notes) = (0, 0, 0);
            for diagnostic in diagnostics {
                match diagnostic.severity {
                    Severity::Error => errors += 1,
                    Severity::Warning => warnings += 1,
                    Severity::Note => notes += 1,
                }
            }
            writeln!(
                out,
                "lint: {} propert{}, {errors} error(s), {warnings} warning(s), {notes} note(s)",
                properties.len(),
                if properties.len() == 1 { "y" } else { "ies" },
            )
        }
        ReportFormat::Json => {
            for diagnostic in diagnostics {
                writeln!(out, "{}", diagnostic.render_json())?;
            }
            Ok(())
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
fn profile(raw: &[String], out: &mut Out) -> Outcome {
    let flags = [
        ("--deny-warnings", 0),
        ("--format", 1),
        ("--top", 1),
        ("--trace-out", 1),
    ];
    let args = Args::parse("profile", raw, &flags, 2..)?;
    let format = args.choice("--format", REPORT_FORMATS)?;
    let top = args.positive("--top")?.unwrap_or(10usize);
    // The last operand is the trace file; everything before it is the
    // rulebook (files with one property per line, or inline properties).
    let (trace_path, rulebook) = args
        .operands
        .split_last()
        .expect("the grammar admits two operands or more");
    let properties = read_rulebook(rulebook, 1)?;
    if properties.is_empty() {
        stderr!("error: the rulebook is empty");
        return Ok(ExitCode::FAILURE);
    }

    // Every phase below runs under a tracer span; with `--trace-out` the
    // resulting timeline is written as Chrome trace-event JSON.
    let tracer = Tracer::new();
    let mut voc = rulebook_vocabulary(&properties);
    let span = tracer.span("load-trace", "phase");
    let trace = load(trace_path, &mut voc, 1)?;
    span.finish();
    let span = tracer.span("compile", "phase");
    let engine = compile_all(&properties, &mut voc, args.has("--deny-warnings"))?;
    span.finish();
    let span = tracer.span("replay", "phase");
    let report = profile_trace(&engine, trace.events(), trace.end_time());
    span.finish();

    let span = tracer.span("report", "phase");
    match format {
        ReportFormat::Text => out.write_all(report.render_text(&engine, top).as_bytes())?,
        ReportFormat::Json => writeln!(out, "{}", report.render_json(&engine, top))?,
    }
    span.finish();
    if let Some(path) = args.value("--trace-out") {
        if let Err(e) = std::fs::write(path, tracer.render_json()) {
            stderr!("error: cannot write {path}: {e}");
            return Ok(ExitCode::FAILURE);
        }
        stderr!(
            "trace: wrote {} span(s) to {path} (chrome://tracing or Perfetto)",
            tracer.len()
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn vcd(raw: &[String], out: &mut Out) -> Outcome {
    let args = Args::parse("vcd", raw, &[], 1..=1)?;
    let mut voc = Vocabulary::new();
    let trace = load(&args.operands[0], &mut voc, 1)?;
    out.write_all(write_vcd(&trace, &voc).as_bytes())?;
    Ok(ExitCode::SUCCESS)
}

fn gen(raw: &[String], out: &mut Out) -> Outcome {
    let args = Args::parse("gen", raw, &[], 1..=3)?;
    let text = &args.operands[0];
    let seed = match args.operands.get(1) {
        None => 1u64,
        Some(arg) => arg
            .parse()
            .map_err(|_| misuse(format_args!("seed `{arg}` is not an unsigned integer")))?,
    };
    let episodes = match args.operands.get(2) {
        None => 3u32,
        Some(arg) => arg.parse().map_err(|_| {
            misuse(format_args!(
                "episode count `{arg}` is not an unsigned integer"
            ))
        })?,
    };
    let mut voc = Vocabulary::new();
    let property = match parse_property(text, &mut voc) {
        Ok(p) => p,
        Err(e) => {
            stderr!("error in property:\n{}", e.display_with_source(text));
            return Ok(ExitCode::FAILURE);
        }
    };
    let config = GeneratorConfig {
        episodes,
        ..GeneratorConfig::new(seed)
    };
    let generated = generate(&property, &config);
    out.write_all(write_trace(&generated.trace, &voc).as_bytes())?;
    Ok(ExitCode::SUCCESS)
}

fn demo(raw: &[String], out: &mut Out) -> Outcome {
    Args::parse("demo", raw, &[], 0..=0)?;
    let report = run_scenario(&ScenarioConfig::nominal(1));
    writeln!(
        out,
        "# trace recorded from the face-recognition platform (seed 1)"
    )?;
    out.write_all(write_trace(&report.trace, &report.vocabulary).as_bytes())?;
    stderr!();
    for (label, verdict) in &report.verdicts {
        stderr!("online verdict: {label} → {verdict}");
    }
    Ok(ExitCode::SUCCESS)
}
