//! Seeded workloads: the rulebook, the event streams in both wire formats,
//! and the in-process reference digests every surface's output is checked
//! against. The same `(workload, seed)` always yields byte-identical files.
//!
//! * `disjoint-50` — 50 antecedent properties over pairwise-disjoint
//!   alphabets, one clean ~500k-event stream. Ingest (read, frame, decode,
//!   resolve, write) dominates; the fused step is a small share.
//! * `overlap-200` — 200 properties over one shared 4-name alphabet (6
//!   unique fused groups), one clean ~250k-event stream. Dispatch and step
//!   dominate; decode is a small share.
//! * `ipu-short-streams` — the paper's IPU rulebook over thousands of
//!   ~64-event streams, a fixed share of which carry a labelled fault (a
//!   configuration write dropped by a `lomon_gen::mutate` mutant, or a
//!   late `set_irq`). Per-stream set-up, close and output dominate.

use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;

use lomon_core::parse::parse_property;
use lomon_core::verdict::Verdict;
use lomon_engine::{Backend, DispatchMode, Engine, EngineReport, Session};
use lomon_gen::{mutate, MutationKind};
use lomon_trace::{json_escape, Direction, Name, SimTime, TimedEvent, Trace, Vocabulary};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Episodes of one disjoint property arrive in bursts of this many before
/// the stream moves to the next property.
const EPISODE_BURST: usize = 4;
/// Events per open-loop serve stream on the two single-stream workloads
/// (a multiple of the 4-event episode, so every window is clean).
const SHORT_STREAM_EVENTS: usize = 64;
/// Short streams per workload: the IPU streams, or the open-loop windows.
const SHORT_STREAMS: usize = 3000;
/// Events of the base trace an `smc --trace` campaign mutates: whole
/// rounds, so the anchor property's projection has the same length on
/// every seed (32 and 48 events; mutation labelling is superlinear in it).
const SMC_BASE_EVENTS: [usize; 2] = [2 * 50 * EPISODE_BURST * 4, 48];
/// Episodes of one `lomon smc` campaign: trace campaigns, platform ones.
const SMC_EPISODES: [u32; 2] = [3000, 25_000];
/// One IPU stream in this many drops a configuration write, and as many
/// again answer one `start` late.
const IPU_FAULT_ONE_IN: u64 = 8;
/// Laps over the clean IPU streams at the head of the `watch` stream: one
/// `watch` run reads ~400k events, long enough to time steadily.
const WATCH_CLEAN_LAPS: usize = 3;
/// Interp-oracle sample: events of the single-stream prefix, or streams.
const INTERP_SAMPLE_EVENTS: usize = 2000;
const INTERP_SAMPLE_STREAMS: usize = 64;

/// The IPU configuration rulebook of the paper's running example (Fig. 1).
pub const IPU_RULEBOOK: [&str; 2] = [
    "all{set_imgAddr, set_glAddr, set_glSize} << start repeated",
    "start => out:set_irq within 1 ms",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Disjoint50,
    Overlap200,
    IpuShortStreams,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Disjoint50,
        Workload::Overlap200,
        Workload::IpuShortStreams,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Disjoint50 => "disjoint-50",
            Workload::Overlap200 => "overlap-200",
            Workload::IpuShortStreams => "ipu-short-streams",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One event: nanoseconds and an index into [`Inputs::names`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ev {
    pub ns: u64,
    pub name: u16,
}

/// One stream of events and its end-of-observation time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stream {
    pub events: Vec<Ev>,
    pub end_ns: u64,
}

/// The fault an IPU stream was built with: which property must end violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Label {
    pub config_violated: bool,
    pub irq_violated: bool,
}

/// Everything one workload feeds `lomon`, in memory.
#[derive(Debug)]
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub properties: Vec<String>,
    pub names: Vec<(String, Direction)>,
    /// What `check` reads, one trace file per stream.
    pub files: Vec<Stream>,
    /// IPU only: the fault each file was built with.
    pub labels: Vec<Label>,
    /// The `watch` stream when it is not `files[0]`.
    watch_stream: Option<Stream>,
    /// The open-loop `serve` streams.
    pub short: Vec<Stream>,
    /// Base trace of the `smc --trace` campaign (empty on IPU, whose
    /// campaign runs the platform model).
    pub smc_base: Stream,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed);
        match workload {
            Workload::Disjoint50 => single_stream(
                workload,
                seed,
                SMC_BASE_EVENTS[0],
                disjoint(&mut rng, 50, 625),
            ),
            Workload::Overlap200 => single_stream(
                workload,
                seed,
                SMC_BASE_EVENTS[1],
                overlap(&mut rng, 200, 62_500),
            ),
            Workload::IpuShortStreams => ipu(&mut rng, seed),
        }
    }

    /// The stream `watch` reads on stdin.
    pub fn watch(&self) -> &Stream {
        self.watch_stream.as_ref().unwrap_or(&self.files[0])
    }

    /// Whether `serve`'s closed loop sends the single workload stream on
    /// every connection (`true`) or alternates the short streams.
    pub fn closed_whole(&self) -> bool {
        self.files.len() == 1
    }

    pub fn name(&self, ev: Ev) -> &str {
        &self.names[usize::from(ev.name)].0
    }

    /// Render `stream` in the trace text format, `end` line included.
    pub fn text(&self, stream: &Stream, out: &mut Vec<u8>) {
        for &ev in &stream.events {
            let (name, dir) = &self.names[usize::from(ev.name)];
            let _ = writeln!(out, "{}ns {} {name}", ev.ns, dir.label());
        }
        let _ = writeln!(out, "end {}ns", stream.end_ns);
    }

    /// Render `stream` as NDJSON frames, `end` frame included.
    pub fn ndjson(&self, stream: &Stream, out: &mut Vec<u8>) {
        for &ev in &stream.events {
            let (name, dir) = &self.names[usize::from(ev.name)];
            match dir {
                Direction::Input => {
                    let _ = writeln!(out, "{{\"time\": \"{}ns\", \"name\": \"{name}\"}}", ev.ns);
                }
                Direction::Output => {
                    let _ = writeln!(
                        out,
                        "{{\"time\": \"{}ns\", \"dir\": \"out\", \"name\": \"{name}\"}}",
                        ev.ns
                    );
                }
            }
        }
        let _ = writeln!(out, "{{\"end\": \"{}ns\"}}", stream.end_ns);
    }

    /// Compile the rulebook against a vocabulary holding every name.
    ///
    /// # Panics
    ///
    /// Panics if the generated rulebook does not compile (a benchmark bug).
    pub fn compile(&self) -> (Engine, Vocabulary) {
        let mut voc = Vocabulary::new();
        for (name, dir) in &self.names {
            voc.intern(name, *dir);
        }
        let engine = Engine::compile(&self.properties, &mut voc).expect("rulebook compiles");
        (engine, voc)
    }

    /// Resolve `stream` against `voc` (built by [`Inputs::compile`]).
    pub fn resolve(&self, stream: &Stream, voc: &Vocabulary) -> Vec<TimedEvent> {
        let ids: Vec<Name> = self
            .names
            .iter()
            .map(|(n, _)| voc.lookup(n).expect("interned name"))
            .collect();
        stream
            .events
            .iter()
            .map(|e| TimedEvent::new(ids[usize::from(e.name)], SimTime::from_ns(e.ns)))
            .collect()
    }

    /// Every input file as `(relative path, bytes)`: the rulebook, the
    /// traces, the NDJSON streams and `manifest.json` (file lists, sizes
    /// and reference digests).
    pub fn files(&self) -> Vec<(String, Vec<u8>)> {
        let render = |f: fn(&Inputs, &Stream, &mut Vec<u8>), streams: &[&Stream]| {
            let mut buf = Vec::new();
            for stream in streams {
                f(self, stream, &mut buf);
            }
            buf
        };
        let mut rulebook = self.properties.join("\n");
        rulebook.push('\n');
        let mut out = vec![("rulebook.rules".to_owned(), rulebook.into_bytes())];
        if self.closed_whole() {
            out.push((
                "main.trace".to_owned(),
                render(Inputs::text, &[&self.files[0]]),
            ));
            out.push((
                "main.ndjson".to_owned(),
                render(Inputs::ndjson, &[&self.files[0]]),
            ));
        } else {
            for (k, stream) in self.files.iter().enumerate() {
                out.push((
                    format!("streams/s{k:04}.trace"),
                    render(Inputs::text, &[stream]),
                ));
            }
            out.push((
                "watch.trace".to_owned(),
                render(Inputs::text, &[self.watch()]),
            ));
            out.push((
                "watch.ndjson".to_owned(),
                render(Inputs::ndjson, &[self.watch()]),
            ));
        }
        let short: Vec<&Stream> = self.short.iter().collect();
        out.push(("short.ndjson".to_owned(), render(Inputs::ndjson, &short)));
        if !self.smc_base.events.is_empty() {
            out.push((
                "smc_base.trace".to_owned(),
                render(Inputs::text, &[&self.smc_base]),
            ));
        }
        let traces: Vec<&(String, Vec<u8>)> = out
            .iter()
            .filter(|(name, _)| name == "main.trace" || name.starts_with("streams/"))
            .collect();
        let file_names: Vec<String> = traces.iter().map(|(name, _)| name.clone()).collect();
        let text_bytes = traces.iter().map(|(_, bytes)| bytes.len()).sum();
        let manifest = self.manifest(&file_names, text_bytes);
        out.push(("manifest.json".to_owned(), manifest.into_bytes()));
        out
    }

    /// Write [`Inputs::files`] under `dir`.
    ///
    /// # Errors
    ///
    /// Any file-system error.
    pub fn write(&self, dir: &Path) -> io::Result<()> {
        for (name, bytes) in self.files() {
            let path = dir.join(name);
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent)?;
            }
            std::fs::write(path, bytes)?;
        }
        Ok(())
    }

    fn manifest(&self, file_names: &[String], text_bytes: usize) -> String {
        let (engine, voc) = self.compile();
        let mut session = engine.session();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\": \"{}\", \"seed\": {}, \"properties\": [",
            self.workload.name(),
            self.seed
        );
        push_list(&mut out, self.properties.iter().map(|p| quoted(p)));
        out.push_str("], \"files\": [");
        push_list(&mut out, file_names.iter().map(|p| quoted(p)));
        let file_events: usize = self.files.iter().map(|s| s.events.len()).sum();
        let _ = write!(
            out,
            "], \"check_events\": {file_events}, \"text_bytes\": {text_bytes}, \
             \"closed_whole\": {}, \"watch_events_sent\": {}, \"short_events\": {}, \
             \"check_ref\": [",
            self.closed_whole(),
            self.watch().events.len(),
            self.short.iter().map(|s| s.events.len()).sum::<usize>(),
        );
        let mut check_reports = Vec::with_capacity(self.files.len());
        for stream in &self.files {
            let events = self.resolve(stream, &voc);
            check_reports.push(batch_report(&mut session, &events, stream.end_ns));
        }
        push_list(&mut out, check_reports.iter().map(|r| digest_json(r, &voc)));
        let (watch_report, ingested) = stream_report(
            &mut session,
            &self.resolve(self.watch(), &voc),
            self.watch().end_ns,
            true,
        );
        let _ = write!(
            out,
            "], \"watch_ref\": {}, \"watch_events\": {ingested}, \"closed_ref\": [",
            digest_json(&watch_report, &voc)
        );
        push_list(
            &mut out,
            self.files.iter().map(|s| {
                let events = self.resolve(s, &voc);
                let (report, _) = stream_report(&mut session, &events, s.end_ns, false);
                digest_json(&report, &voc)
            }),
        );
        out.push_str("], \"short_ref\": [");
        push_list(
            &mut out,
            self.short.iter().map(|s| {
                let events = self.resolve(s, &voc);
                let (report, _) = stream_report(&mut session, &events, s.end_ns, false);
                digest_json(&report, &voc)
            }),
        );
        let (interp_checked, interp_mismatches) = self.interp_sample(&engine, &voc);
        let (label_checked, label_mismatches) = self.label_mismatches(&check_reports);
        let _ = write!(
            out,
            "], \"check_exit\": {}, \"watch_exit\": {}, \"interp_checked\": {interp_checked}, \
             \"interp_mismatches\": {interp_mismatches}, \"label_checked\": {label_checked}, \
             \"label_mismatches\": {label_mismatches}, \"smc_args\": [",
            u8::from(!check_reports.iter().all(EngineReport::is_ok)),
            u8::from(!watch_report.is_ok()),
        );
        push_list(&mut out, self.smc_args().iter().map(|a| quoted(a)));
        out.push_str("]}\n");
        out
    }

    /// `lomon smc` arguments (after `smc`, before `--jobs`/`--seed`).
    fn smc_args(&self) -> Vec<String> {
        let mut args = vec![
            "--format".to_owned(),
            "json".to_owned(),
            "--quiet".to_owned(),
        ];
        args.push("--episodes".to_owned());
        if self.smc_base.events.is_empty() {
            args.push(SMC_EPISODES[1].to_string());
            args.extend(["--fault-prob", "0.3"].map(str::to_owned));
        } else {
            args.push(SMC_EPISODES[0].to_string());
            args.extend(["--trace", "smc_base.trace", "--mutation-prob", "0.5"].map(str::to_owned));
            args.extend(self.properties.iter().cloned());
        }
        args
    }

    /// Cross-check a seeded sample against the interpreter oracle: the
    /// fused and interpreted backends must agree on every property's
    /// verdict, ops counter and diagnostic. Returns `(checked, mismatched)`
    /// streams.
    fn interp_sample(&self, engine: &Engine, voc: &Vocabulary) -> (usize, usize) {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x1e7e_5eed);
        let sample: Vec<Stream> = if self.closed_whole() {
            let whole = &self.files[0];
            let n = INTERP_SAMPLE_EVENTS.min(whole.events.len());
            let start = rng.gen_range(0..=(whole.events.len() - n) / 4) * 4;
            let events = whole.events[start..start + n].to_vec();
            let end_ns = events.last().map_or(0, |e| e.ns);
            vec![Stream { events, end_ns }]
        } else {
            (0..INTERP_SAMPLE_STREAMS)
                .map(|_| self.files[rng.gen_range(0..self.files.len())].clone())
                .collect()
        };
        let mut fused = engine.session_with_backend(DispatchMode::Indexed, Backend::Fused);
        let mut interp = engine.session_with_backend(DispatchMode::Indexed, Backend::Interp);
        let mismatched = sample
            .iter()
            .filter(|stream| {
                let events = self.resolve(stream, voc);
                let a = run_digest(&mut fused, &events, stream.end_ns, voc);
                let b = run_digest(&mut interp, &events, stream.end_ns, voc);
                a != b
            })
            .count();
        (sample.len(), mismatched)
    }

    /// Each IPU file's reference verdicts must match the fault it was built
    /// with. Returns `(checked, mismatched)` files.
    fn label_mismatches(&self, reports: &[EngineReport]) -> (usize, usize) {
        let mismatched = self
            .labels
            .iter()
            .zip(reports)
            .filter(|(label, report)| {
                let violated = |id: usize| report.properties[id].verdict == Verdict::Violated;
                violated(0) != label.config_violated || violated(1) != label.irq_violated
            })
            .count();
        (self.labels.len(), mismatched)
    }
}

/// Reset, batch-ingest and finish, as `check` does per file.
pub fn batch_report(session: &mut Session<'_>, events: &[TimedEvent], end_ns: u64) -> EngineReport {
    session.reset();
    session.ingest_batch(events);
    session.finish(SimTime::from_ns(end_ns))
}

/// Ingest event by event, as `watch` and `serve` do; with `settle`, stop
/// once every verdict is final, as `watch` does. Returns the report and
/// the number of events ingested.
pub fn stream_report(
    session: &mut Session<'_>,
    events: &[TimedEvent],
    end_ns: u64,
    settle: bool,
) -> (EngineReport, usize) {
    session.reset();
    let mut drained = Vec::new();
    let mut last = SimTime::ZERO;
    let mut ingested = 0;
    let mut settled = false;
    for &event in events {
        session.ingest(event);
        session.drain_newly_final_into(&mut drained);
        last = event.time;
        ingested += 1;
        if settle && session.is_settled() {
            settled = true;
            break;
        }
    }
    let end = if settled {
        last
    } else {
        SimTime::from_ns(end_ns)
    };
    (session.finish(end), ingested)
}

/// Per-property `(verdict, ops, diagnostic)` after a batch run.
fn run_digest(
    session: &mut Session<'_>,
    events: &[TimedEvent],
    end_ns: u64,
    voc: &Vocabulary,
) -> Vec<(Verdict, u64, Option<String>)> {
    let report = batch_report(session, events, end_ns);
    report
        .properties
        .iter()
        .map(|p| {
            (
                p.verdict,
                session.ops(p.index),
                p.violation.as_ref().map(|v| v.display(voc)),
            )
        })
        .collect()
}

/// The digest a surface's output is compared with: each property's verdict,
/// the diagnostics of the violated ones, and the dispatch counters.
pub fn digest_json(report: &EngineReport, voc: &Vocabulary) -> String {
    let mut out = String::from("{\"v\": [");
    push_list(
        &mut out,
        report
            .properties
            .iter()
            .map(|p| quoted(&p.verdict.to_string())),
    );
    out.push_str("], \"d\": {");
    push_list(
        &mut out,
        report.properties.iter().filter_map(|p| {
            let v = p.violation.as_ref()?;
            Some(format!("\"{}\": {}", p.index, quoted(&v.display(voc))))
        }),
    );
    let s = &report.stats;
    let _ = write!(
        out,
        "}}, \"s\": {{\"events\": {}, \"monitor_steps\": {}, \"steps_skipped\": {}, \
         \"retired\": {}, \"total_cells\": {}, \"unique_cells\": {}, \"shared_hits\": {}, \
         \"violations\": {}}}}}",
        s.events,
        s.monitor_steps,
        s.steps_skipped,
        s.retired,
        s.total_cells,
        s.unique_cells,
        s.shared_hits,
        report.violations().count(),
    );
    out
}

fn quoted(text: &str) -> String {
    format!("\"{}\"", json_escape(text))
}

fn push_list(out: &mut String, items: impl Iterator<Item = String>) {
    for (k, item) in items.enumerate() {
        if k > 0 {
            out.push_str(", ");
        }
        out.push_str(&item);
    }
}

fn single_stream(
    workload: Workload,
    seed: u64,
    smc_events: usize,
    (properties, names, main): (Vec<String>, Vec<(String, Direction)>, Stream),
) -> Inputs {
    let short = main
        .events
        .chunks_exact(SHORT_STREAM_EVENTS)
        .take(SHORT_STREAMS)
        .map(|window| Stream {
            events: window.to_vec(),
            end_ns: window[window.len() - 1].ns,
        })
        .collect();
    let base = main.events[..smc_events].to_vec();
    let smc_base = Stream {
        end_ns: base[base.len() - 1].ns,
        events: base,
    };
    Inputs {
        workload,
        seed,
        properties,
        names,
        files: vec![main],
        labels: Vec::new(),
        watch_stream: None,
        short,
        smc_base,
    }
}

/// Advance the clock by a seeded 1–20 ns gap and return the new time.
fn tick(rng: &mut StdRng, ns: &mut u64) -> u64 {
    *ns += rng.gen_range(1..=20u64);
    *ns
}

/// `count` properties `all{pK_a, pK_b, pK_c} << pK_start repeated` and a
/// clean stream of `groups` rounds: each round visits the properties in a
/// seeded order, each visit a burst of episodes whose three writes come in
/// a seeded order before the `start`.
fn disjoint(
    rng: &mut StdRng,
    count: usize,
    groups: usize,
) -> (Vec<String>, Vec<(String, Direction)>, Stream) {
    let properties = (0..count)
        .map(|k| format!("all{{p{k}_a, p{k}_b, p{k}_c}} << p{k}_start repeated"))
        .collect();
    let names = (0..count)
        .flat_map(|k| ["a", "b", "c", "start"].map(|s| (format!("p{k}_{s}"), Direction::Input)))
        .collect();
    let mut events = Vec::with_capacity(groups * count * EPISODE_BURST * 4);
    let mut ns = 0u64;
    let mut order: Vec<usize> = (0..count).collect();
    for _ in 0..groups {
        order.shuffle(rng);
        for &k in &order {
            let base = u16::try_from(k * 4).expect("name index fits");
            for _ in 0..EPISODE_BURST {
                let mut writes = [0u16, 1, 2];
                writes.shuffle(rng);
                for w in writes.into_iter().chain([3]) {
                    events.push(Ev {
                        ns: tick(rng, &mut ns),
                        name: base + w,
                    });
                }
            }
        }
    }
    let end_ns = ns + 10;
    (properties, names, Stream { events, end_ns })
}

/// `count` properties over one shared alphabet (rotated order, alternating
/// `all`/`any`; the texts repeat with period 6, so the fused program has 6
/// unique groups), and a clean stream of `rounds` episodes whose three
/// writes come in a seeded order before `s_start`.
fn overlap(
    rng: &mut StdRng,
    count: usize,
    rounds: usize,
) -> (Vec<String>, Vec<(String, Direction)>, Stream) {
    let letters = ["s_a", "s_b", "s_c"];
    let properties = (0..count)
        .map(|k| {
            let op = if k % 2 == 0 { "all" } else { "any" };
            let rotated: Vec<&str> = (0..3).map(|j| letters[(k + j) % 3]).collect();
            format!("{op}{{{}}} << s_start repeated", rotated.join(", "))
        })
        .collect();
    let names = ["s_a", "s_b", "s_c", "s_start"]
        .map(|n| (n.to_owned(), Direction::Input))
        .to_vec();
    let mut events = Vec::with_capacity(rounds * 4);
    let mut ns = 0u64;
    for _ in 0..rounds {
        let mut writes = [0u16, 1, 2];
        writes.shuffle(rng);
        for w in writes.into_iter().chain([3]) {
            events.push(Ev {
                ns: tick(rng, &mut ns),
                name: w,
            });
        }
    }
    let end_ns = ns + 10;
    (properties, names, Stream { events, end_ns })
}

/// Name indices of the IPU alphabet.
const SET_IMG: u16 = 0;
const SET_GL_ADDR: u16 = 1;
const SET_GL_SIZE: u16 = 2;
const START: u16 = 3;
const SET_IRQ: u16 = 4;

fn ipu(rng: &mut StdRng, seed: u64) -> Inputs {
    let names: Vec<(String, Direction)> = [
        ("set_imgAddr", Direction::Input),
        ("set_glAddr", Direction::Input),
        ("set_glSize", Direction::Input),
        ("start", Direction::Input),
        ("set_irq", Direction::Output),
    ]
    .map(|(n, d)| (n.to_owned(), d))
    .to_vec();
    // The config-ordering property, parsed once for `lomon_gen::mutate`.
    let mut voc = Vocabulary::new();
    let ids: Vec<Name> = names.iter().map(|(n, d)| voc.intern(n, *d)).collect();
    let config_property = parse_property(IPU_RULEBOOK[0], &mut voc).expect("IPU rulebook parses");

    let mut files = Vec::with_capacity(SHORT_STREAMS);
    let mut labels = Vec::with_capacity(SHORT_STREAMS);
    for _ in 0..SHORT_STREAMS {
        let fault = rng.gen_range(0..IPU_FAULT_ONE_IN);
        let episodes = rng.gen_range(12..=13usize);
        let late = if fault == 1 {
            Some(rng.gen_range(0..episodes))
        } else {
            None
        };
        let mut stream = ipu_stream(rng, episodes, late);
        let mut label = Label {
            config_violated: false,
            irq_violated: late.is_some(),
        };
        if fault == 0 {
            // Drop one configuration write, chosen by a `lomon_gen`
            // mutant of the projection onto the property's alphabet.
            let projected: Vec<usize> = (0..stream.events.len())
                .filter(|&i| stream.events[i].name != SET_IRQ)
                .collect();
            let base = Trace::from_names(
                projected
                    .iter()
                    .map(|&i| ids[usize::from(stream.events[i].name)]),
            );
            let mutants = mutate(&config_property, &base, 64, rng.gen_range(0..u64::MAX));
            let dropped = mutants.iter().find_map(|m| match m.kind {
                MutationKind::Drop { index } if stream.events[projected[index]].name < START => {
                    Some((projected[index], m.violates()))
                }
                _ => None,
            });
            if let Some((at, violates)) = dropped {
                stream.events.remove(at);
                label.config_violated = violates;
            }
        }
        files.push(stream);
        labels.push(label);
    }
    // `watch` reads one long stream: every clean stream, WATCH_CLEAN_LAPS
    // times, then the faulty ones, shifted end to end. It stops once both
    // properties are final.
    let mut watch = Stream::default();
    let clean: Vec<usize> = (0..files.len())
        .filter(|&k| labels[k] == Label::default())
        .collect();
    let clean_first = (0..WATCH_CLEAN_LAPS)
        .flat_map(|_| clean.iter().copied())
        .chain((0..files.len()).filter(|&k| labels[k] != Label::default()));
    for k in clean_first {
        let offset = watch.end_ns;
        let stream = &files[k];
        watch.events.extend(stream.events.iter().map(|e| Ev {
            ns: e.ns + offset,
            name: e.name,
        }));
        watch.end_ns = offset + stream.end_ns;
    }
    Inputs {
        workload: Workload::IpuShortStreams,
        seed,
        properties: IPU_RULEBOOK.map(str::to_owned).to_vec(),
        names,
        short: files.clone(),
        files,
        labels,
        watch_stream: Some(watch),
        smc_base: Stream::default(),
    }
}

/// One IPU stream: `episodes` rounds of the three configuration writes in
/// a seeded order, `start`, and the interrupt 0.1–0.8 ms later (1.2–2 ms
/// for the `late` episode, past the 1 ms deadline).
fn ipu_stream(rng: &mut StdRng, episodes: usize, late: Option<usize>) -> Stream {
    let mut events = Vec::with_capacity(episodes * 5);
    let mut ns = rng.gen_range(100..2_000u64);
    for episode in 0..episodes {
        let mut writes = [SET_IMG, SET_GL_ADDR, SET_GL_SIZE];
        writes.shuffle(rng);
        for name in writes {
            ns += rng.gen_range(20..200u64);
            events.push(Ev { ns, name });
        }
        ns += rng.gen_range(50..500u64);
        events.push(Ev { ns, name: START });
        ns += if late == Some(episode) {
            rng.gen_range(1_200_000..2_000_000u64)
        } else {
            rng.gen_range(100_000..800_000u64)
        };
        events.push(Ev { ns, name: SET_IRQ });
        ns += rng.gen_range(1_000..20_000u64);
    }
    Stream { events, end_ns: ns }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files(workload: Workload, seed: u64) -> Vec<(String, Vec<u8>)> {
        Inputs::generate(workload, seed).files()
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for workload in [Workload::Overlap200, Workload::IpuShortStreams] {
            let a = files(workload, 7);
            assert!(a.len() >= 4, "{}: {} files", workload.name(), a.len());
            assert_eq!(a, files(workload, 7), "{}", workload.name());
            assert_ne!(
                a,
                files(workload, 8),
                "{}: the seed matters",
                workload.name()
            );
        }
    }

    #[test]
    fn single_stream_workloads_are_clean_and_oracle_identical() {
        for workload in [Workload::Disjoint50, Workload::Overlap200] {
            let inputs = Inputs::generate(workload, 3);
            let (engine, voc) = inputs.compile();
            let mut session = engine.session();
            let events = inputs.resolve(&inputs.files[0], &voc);
            let report = batch_report(&mut session, &events, inputs.files[0].end_ns);
            assert!(report.is_ok(), "{} stream is clean", workload.name());
            assert_eq!(inputs.interp_sample(&engine, &voc).1, 0);
            for s in &inputs.short {
                let (report, _) =
                    stream_report(&mut session, &inputs.resolve(s, &voc), s.end_ns, false);
                assert!(report.is_ok(), "{} windows are clean", workload.name());
            }
        }
    }

    #[test]
    fn ipu_verdicts_match_their_fault_labels() {
        let inputs = Inputs::generate(Workload::IpuShortStreams, 11);
        let (engine, voc) = inputs.compile();
        let mut session = engine.session();
        let reports: Vec<EngineReport> = inputs
            .files
            .iter()
            .map(|s| batch_report(&mut session, &inputs.resolve(s, &voc), s.end_ns))
            .collect();
        assert_eq!(inputs.label_mismatches(&reports).1, 0);
        let faults = |f: fn(&Label) -> bool| inputs.labels.iter().filter(|l| f(l)).count();
        assert!(faults(|l| l.config_violated) > SHORT_STREAMS / 64);
        assert!(faults(|l| l.irq_violated) > SHORT_STREAMS / 64);
        assert_eq!(inputs.interp_sample(&engine, &voc).1, 0);
        let mean = inputs.files.iter().map(|s| s.events.len()).sum::<usize>() / SHORT_STREAMS;
        assert!(
            (55..=70).contains(&mean),
            "~64 events per stream, got {mean}"
        );
    }
}
