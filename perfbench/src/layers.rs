//! The traced run's in-process half: the public functions of each layer
//! (`lomon-trace`, `lomon-engine`, `lomon-tlm`, `lomon-smc`) timed on the
//! workload's own inputs, one span per batch. The timings are derived from
//! the spans (`run.py` reads the Chrome trace); the exact counts are
//! printed as one JSON object on stdout.
//!
//! Two input sets are used:
//! * the *check set* — the files `check` reads (the one workload stream,
//!   or every IPU stream) — for the ingest and step layers;
//! * the *short set* — the open-loop `serve` streams — for the per-stream
//!   layers (advance, reset, resume, close, drain, render, report), one
//!   session per stream so each batch span covers many streams.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use lomon_core::analysis::AnalysisOptions;
use lomon_engine::{DispatchStats, Engine, Session};
use lomon_smc::{Campaign, CampaignConfig, EpisodeModel, GenModel, ScenarioModel};
use lomon_tlm::scenario::{run_scenario, ScenarioConfig};
use lomon_trace::{
    decode_events_into, json_escape, parse_ndjson_line_ref, parse_stream_line_bytes,
    read_trace_bytes, read_trace_bytes_into, FrameDecoder, MappedFile, SimTime, StreamFormat,
    TimedEvent, Trace, Vocabulary,
};

use crate::spans::Spans;
use crate::workload::{Inputs, Stream};

/// Layer passes: at least this many, more while the time budget lasts.
const MIN_PASSES: usize = 3;
const MAX_PASSES: usize = 15;
/// Episodes per smc/tlm span.
const EPISODES: u64 = 24;
/// The read chunk `serve` frames from.
const READ_CHUNK: usize = 8 * 1024;
/// `serve`'s per-frame cap.
const MAX_FRAME: usize = 64 * 1024;
/// Repetitions of each side of the tracing-overhead comparison.
const OVERHEAD_REPS: usize = 5;

/// Byte inputs the trace layers run on, read once before timing.
struct Bytes {
    files: Vec<PathBuf>,
    texts: Vec<Vec<u8>>,
    watch_text: Vec<u8>,
    ndjson: Vec<u8>,
}

impl Bytes {
    fn load(inputs: &Inputs, dir: &Path) -> Result<Bytes, String> {
        let read = |name: &str| {
            std::fs::read(dir.join(name)).map_err(|e| format!("cannot read {name}: {e}"))
        };
        let files: Vec<PathBuf> = if inputs.closed_whole() {
            vec![dir.join("main.trace")]
        } else {
            (0..inputs.files.len())
                .map(|k| dir.join(format!("streams/s{k:04}.trace")))
                .collect()
        };
        let texts = files
            .iter()
            .map(|p| std::fs::read(p).map_err(|e| format!("cannot read {}: {e}", p.display())))
            .collect::<Result<_, _>>()?;
        let (watch_text, ndjson) = if inputs.closed_whole() {
            (read("main.trace")?, read("main.ndjson")?)
        } else {
            (read("watch.trace")?, read("short.ndjson")?)
        };
        Ok(Bytes {
            files,
            texts,
            watch_text,
            ndjson,
        })
    }
}

fn lines(bytes: &[u8]) -> Vec<&[u8]> {
    bytes
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .collect()
}

fn events_of(streams: &[Stream]) -> u64 {
    streams.iter().map(|s| s.events.len() as u64).sum()
}

pub fn run(inputs: &Inputs, dir: &Path, seconds: f64, spans_path: &Path) -> Result<(), String> {
    let budget = Duration::from_secs_f64(seconds * 0.6);
    let bytes = Bytes::load(inputs, dir)?;
    let (engine, voc) = inputs.compile();
    let check_events: Vec<Vec<TimedEvent>> = inputs
        .files
        .iter()
        .map(|s| inputs.resolve(s, &voc))
        .collect();
    let short_events: Vec<Vec<TimedEvent>> = inputs
        .short
        .iter()
        .map(|s| inputs.resolve(s, &voc))
        .collect();
    let check_n = events_of(&inputs.files);
    let watch_lines = lines(&bytes.watch_text);
    let ndjson_lines = lines(&bytes.ndjson);
    let ndjson_events = if inputs.closed_whole() {
        events_of(&inputs.files)
    } else {
        events_of(&inputs.short)
    };
    let names: Vec<&[u8]> = if inputs.closed_whole() {
        inputs.files[0]
            .events
            .iter()
            .map(|&e| inputs.name(e).as_bytes())
            .collect()
    } else {
        inputs
            .short
            .iter()
            .flat_map(|s| &s.events)
            .map(|&e| inputs.name(e).as_bytes())
            .collect()
    };

    let mut spans = Spans::new();
    let mut check_sessions: Vec<Session<'_>> =
        inputs.files.iter().map(|_| engine.session()).collect();
    let mut short_sessions: Vec<Session<'_>> =
        inputs.short.iter().map(|_| engine.session()).collect();
    let mut stats = DispatchStats::default();
    let started = Instant::now();
    let mut pass = 0;
    while pass < MIN_PASSES || (pass < MAX_PASSES && started.elapsed() < budget) {
        spans.time("layers.pass", 0, "pass", |sp| {
            trace_layers(
                sp,
                &bytes,
                &voc,
                check_n,
                &watch_lines,
                &ndjson_lines,
                ndjson_events,
                &names,
            );
            stats = step_layers(sp, &inputs.properties, &mut check_sessions, &check_events);
            stream_layers(
                sp,
                &engine,
                &voc,
                &mut short_sessions,
                &short_events,
                inputs,
            );
        });
        pass += 1;
    }
    drop(check_sessions);
    drop(short_sessions);
    smc_layers(&mut spans, inputs, dir)?;
    let overhead = tracing_overhead(&engine, &voc, &bytes, inputs, check_n);

    std::fs::write(spans_path, spans.chrome_json())
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
    let per_event = |count: u64| count as f64 / stats.events.max(1) as f64;
    let text_bytes: usize = bytes.texts.iter().map(Vec::len).sum();
    println!(
        "{{\"trace.bytes_per_event\": {:.4}, \"engine.monitor_steps_per_event\": {:.6}, \
         \"engine.steps_skipped_per_event\": {:.6}, \"engine.shared_hits_per_event\": {:.6}, \
         \"bench.tracing_overhead\": {overhead:.6}, \"layers.passes\": {pass}}}",
        text_bytes as f64 / check_n.max(1) as f64,
        per_event(stats.monitor_steps),
        per_event(stats.steps_skipped),
        per_event(stats.shared_hits),
    );
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn trace_layers(
    sp: &mut Spans,
    bytes: &Bytes,
    voc: &Vocabulary,
    check_n: u64,
    watch_lines: &[&[u8]],
    ndjson_lines: &[&[u8]],
    ndjson_events: u64,
    names: &[&[u8]],
) {
    // `check`: map each file and touch every page once.
    sp.time("trace.read", check_n, "event", |_| {
        let mut sum = 0u64;
        for path in &bytes.files {
            let file = MappedFile::open(path).expect("mapped trace file opens");
            sum += file
                .bytes()
                .iter()
                .step_by(4096)
                .map(|&b| u64::from(b))
                .sum::<u64>();
        }
        black_box(sum);
    });
    // `check`'s first pass: lex every file, interning the names.
    sp.time("trace.intern", check_n, "event", |_| {
        let mut fresh = Vocabulary::new();
        let mut trace = Trace::new();
        for text in &bytes.texts {
            read_trace_bytes_into(text, &mut fresh, &mut trace, None).expect("trace lexes");
            black_box(trace.len());
        }
    });
    // `check`'s replay pass: decode against the frozen vocabulary.
    sp.time("trace.decode_text", check_n, "event", |_| {
        let mut out = Vec::new();
        for text in &bytes.texts {
            decode_events_into(text, voc, &mut out).expect("trace decodes");
            black_box(out.len());
        }
    });
    // `watch` (trace format): one line at a time.
    sp.time(
        "trace.decode_line",
        watch_lines.len() as u64,
        "event",
        |_| {
            for line in watch_lines {
                black_box(parse_stream_line_bytes(StreamFormat::Trace, line).expect("line parses"));
            }
        },
    );
    // `serve`: frame 8 KiB reads.
    sp.time("trace.frame", ndjson_events, "event", |_| {
        let mut decoder = FrameDecoder::new(MAX_FRAME);
        let mut frames = 0u64;
        for chunk in bytes.ndjson.chunks(READ_CHUNK) {
            decoder.push(chunk);
            while decoder.next_frame().is_some() {
                frames += 1;
            }
        }
        black_box(frames);
    });
    // `serve`/`watch --format ndjson`: UTF-8 check and borrowed decode.
    sp.time(
        "trace.decode_ndjson",
        ndjson_lines.len() as u64,
        "event",
        |_| {
            for line in ndjson_lines {
                let text = std::str::from_utf8(line).expect("frame is UTF-8");
                black_box(parse_ndjson_line_ref(text).expect("frame parses"));
            }
        },
    );
    // Name resolution against the frozen byte-keyed table.
    sp.time("trace.resolve", names.len() as u64, "event", |_| {
        for name in names {
            black_box(voc.lookup_bytes(name));
        }
    });
}

/// Compile, then step the check set batch-wise and event-wise; returns the
/// dispatch counters of the batch step.
fn step_layers<'e>(
    sp: &mut Spans,
    properties: &[String],
    sessions: &mut [Session<'e>],
    streams: &[Vec<TimedEvent>],
) -> DispatchStats {
    sp.time("engine.compile", 1, "compile", |_| {
        black_box(Engine::compile(properties, &mut Vocabulary::new()).expect("rulebook compiles"));
    });
    sp.time("engine.analysis", 1, "compile", |_| {
        let opts = AnalysisOptions::default();
        black_box(
            Engine::compile_with_analysis(properties, &mut Vocabulary::new(), &opts)
                .expect("rulebook compiles"),
        );
    });
    let n: u64 = streams.iter().map(|s| s.len() as u64).sum();
    sessions.iter_mut().for_each(Session::reset);
    sp.time("engine.step_batch", n, "event", |_| {
        for (session, events) in sessions.iter_mut().zip(streams) {
            session.ingest_batch(events);
        }
    });
    let mut stats = DispatchStats::default();
    for s in sessions.iter() {
        let st = s.stats();
        stats.events += st.events;
        stats.monitor_steps += st.monitor_steps;
        stats.steps_skipped += st.steps_skipped;
        stats.shared_hits += st.shared_hits;
    }
    sessions.iter_mut().for_each(Session::reset);
    sp.time("engine.step_event", n, "event", |_| {
        let mut drained = Vec::new();
        for (session, events) in sessions.iter_mut().zip(streams) {
            for &event in events {
                session.ingest(event);
                session.drain_newly_final_into(&mut drained);
            }
        }
        black_box(drained.len());
    });
    stats
}

/// The per-stream layers, each span over every short stream at once.
fn stream_layers<'e>(
    sp: &mut Spans,
    engine: &'e Engine,
    voc: &Vocabulary,
    sessions: &mut Vec<Session<'e>>,
    streams: &[Vec<TimedEvent>],
    inputs: &Inputs,
) {
    let k = sessions.len() as u64;
    let verdict_lines = k * engine.len() as u64;
    let calls: u64 = streams.iter().map(|s| s.len() as u64).sum();
    sp.time("engine.reset", k, "stream", |_| {
        sessions.iter_mut().for_each(Session::reset);
    });
    // Unknown names become `advance_time` in `serve`.
    sp.time("engine.advance", calls, "call", |_| {
        for (session, events) in sessions.iter_mut().zip(streams) {
            for event in events {
                session.advance_time(event.time);
            }
        }
    });
    sessions.iter_mut().for_each(Session::reset);
    sp.time("engine.stream_ingest", calls, "event", |_| {
        for (session, events) in sessions.iter_mut().zip(streams) {
            session.ingest_batch(events);
        }
    });
    sp.time("engine.close", k, "stream", |_| {
        for (session, stream) in sessions.iter_mut().zip(&inputs.short) {
            session.close(SimTime::from_ns(stream.end_ns));
        }
    });
    // Every property gets one verdict line at the end of a `serve` stream:
    // the newly final ones drained, the rest polled.
    sp.time("engine.drain", verdict_lines, "verdict", |_| {
        let mut drained = Vec::new();
        let mut open = 0u64;
        for session in sessions.iter_mut() {
            session.drain_newly_final_into(&mut drained);
            open += (0..engine.len())
                .filter(|&id| !session.verdict(id).is_final())
                .count() as u64;
        }
        black_box((drained.len(), open));
    });
    sp.time("engine.render", verdict_lines, "verdict", |_| {
        let mut line = String::new();
        for session in sessions.iter() {
            for id in 0..engine.len() {
                line.clear();
                let diagnostic = session
                    .violation(id)
                    .map(|v| format!(", \"diagnostic\": \"{}\"", json_escape(&v.display(voc))))
                    .unwrap_or_default();
                line.push_str(&format!(
                    "{{\"type\": \"verdict\", \"property\": \"{}\", \"index\": {id}, \
                     \"verdict\": \"{}\"{diagnostic}}}",
                    json_escape(engine.property_display(id)),
                    session.verdict(id),
                ));
                black_box(line.len());
            }
        }
    });
    sp.time("engine.report", k, "stream", |_| {
        for session in sessions.iter() {
            let report = session.report();
            black_box(report.render_json(voc));
            black_box(report.stats.render_json_object(report.backend, 0));
        }
    });
    sp.time("engine.resume", k, "stream", |_| {
        let resumed: Vec<Session<'e>> = sessions
            .drain(..)
            .map(|s| {
                engine
                    .resume(s.into_state())
                    .unwrap_or_else(|_| unreachable!("same engine"))
            })
            .collect();
        *sessions = resumed;
    });
}

/// `lomon-tlm` and `lomon-smc`: platform scenarios, the monitoring of one
/// episode's trace, and whole single-worker campaigns, on the same episode
/// model the workload's `lomon smc` run uses.
fn smc_layers(sp: &mut Spans, inputs: &Inputs, dir: &Path) -> Result<(), String> {
    let seed = inputs.seed;
    let scenario = ScenarioModel::new(ScenarioConfig::nominal(seed)).with_fault_probability(0.3);
    let gen = if inputs.smc_base.events.is_empty() {
        None
    } else {
        let text = std::fs::read(dir.join("smc_base.trace"))
            .map_err(|e| format!("cannot read smc_base.trace: {e}"))?;
        let mut voc = Vocabulary::new();
        let base = read_trace_bytes(&text, &mut voc).map_err(|e| e.to_string())?;
        Some(
            GenModel::from_trace(inputs.properties.clone(), base, voc)?
                .with_mutation_probability(0.5),
        )
    };
    let model: &dyn EpisodeModel = match &gen {
        Some(gen) => gen,
        None => &scenario,
    };
    for rep in 0..MIN_PASSES as u64 {
        sp.time("tlm.scenario", EPISODES, "episode", |_| {
            for i in 0..EPISODES {
                let config = ScenarioConfig {
                    monitors: false,
                    ..ScenarioConfig::nominal(seed.wrapping_add(rep * EPISODES + i))
                };
                black_box(run_scenario(&config).trace.len());
            }
        });
        let mut voc = model.vocabulary();
        let engine =
            Engine::compile(&model.properties(), &mut voc).expect("model rulebook compiles");
        let episodes: Vec<(Vec<TimedEvent>, SimTime)> = (0..EPISODES)
            .map(|i| {
                let mut events = Vec::new();
                let end = model.episode(seed.wrapping_add(rep * EPISODES + i), &mut events);
                (events, end)
            })
            .collect();
        let mut session = engine.session();
        sp.time("engine.episode_monitor", EPISODES, "episode", |_| {
            for (events, end) in &episodes {
                session.reset();
                session.ingest_batch(events);
                session.close(*end);
            }
        });
        sp.time("smc.episode", EPISODES, "episode", |_| {
            let config = CampaignConfig::estimate(seed.wrapping_add(rep), EPISODES).with_jobs(1);
            let report = Campaign::new(model, config).map(|c| c.run());
            black_box(report.expect("campaign compiles").episodes);
        });
    }
    Ok(())
}

/// `check`'s pipeline (decode, batch step, close per file), traced with a
/// span per file and stage against untraced, interleaved: the ratio of the
/// medians is what recording spans costs.
fn tracing_overhead(
    engine: &Engine,
    voc: &Vocabulary,
    bytes: &Bytes,
    inputs: &Inputs,
    n: u64,
) -> f64 {
    let mut session = engine.session();
    let mut out = Vec::new();
    let mut spans = Spans::new();
    let mut samples = [Vec::new(), Vec::new()];
    for rep in 0..OVERHEAD_REPS * 2 {
        let traced = rep % 2 == 0;
        spans.recording = traced;
        let t0 = Instant::now();
        spans.time("check.pipeline", n, "event", |sp| {
            for (text, stream) in bytes.texts.iter().zip(&inputs.files) {
                sp.time("decode", stream.events.len() as u64, "event", |_| {
                    decode_events_into(text, voc, &mut out).expect("trace decodes");
                });
                sp.time("step", stream.events.len() as u64, "event", |_| {
                    session.reset();
                    session.ingest_batch(&out);
                });
                sp.time("close", 1, "stream", |_| {
                    session.close(SimTime::from_ns(stream.end_ns))
                });
            }
        });
        samples[usize::from(traced)].push(t0.elapsed().as_secs_f64());
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let untraced = median(&mut samples[0]);
    median(&mut samples[1]) / untraced.max(f64::MIN_POSITIVE)
}
