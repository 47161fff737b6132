//! Hot-loop cost of one monitored event: the fused rulebook backend vs the
//! tree-walking interpreter oracle.
//!
//! Four workloads, all through an indexed-dispatch engine [`Session`]:
//!
//! * `single` — one antecedent property, every event steps one monitor;
//! * `disjoint-50` — 50 properties over pairwise-disjoint alphabets, the
//!   index routes every event to exactly one monitor (per-step cost with
//!   dispatch overhead amortized over one step);
//! * `overlap-50` / `overlap-200` — 50 / 200 properties over one *shared*
//!   alphabet, every event concerns every property (dominant in practice
//!   when rulebooks watch the same interface). The property texts repeat
//!   with a small period, so the fused backend dedups them into a handful
//!   of unique recognizer groups and steps *those* once per event,
//!   fanning the verdicts back out — the overlap workloads are where the
//!   cross-property sharing pays.
//!
//! Run `cargo run -p lomon-bench --bin hot_loop --release` to print the
//! table and (re)write the machine-readable `BENCH_hot_loop.json` at the
//! current directory (the repo tracks it at the root as the perf
//! trajectory anchor).
//!
//! `--check` is the CI gate: both backends must agree on every verdict
//! *and* every per-property ops counter, and the fused backend must be
//! faster (ns/event) than the interpreter by at least each gated
//! workload's floor ([`Workload::gate`]). With `--baseline <path>` the
//! fresh speedups are additionally compared against the committed
//! `BENCH_hot_loop.json`: a drop below [`BASELINE_TOLERANCE`] of a
//! recorded speedup fails the run — the floor that ratchets up as future
//! optimization PRs commit better baselines. The `single` workload is
//! reported but not gated — with one monitor per event the session's fixed
//! dispatch overhead dilutes the ratio and makes it noisy.

use std::process::ExitCode;
use std::time::Instant;

use lomon_bench::workloads::{disjoint, overlapping};
use lomon_core::analysis::prune_dead;
use lomon_core::Monitor as _;
use lomon_engine::{Backend, DispatchMode, Engine, Session};
use lomon_trace::{NameSet, SimTime, TimedEvent};

/// A fresh speedup below `tolerance × committed` fails `--baseline`.
const BASELINE_TOLERANCE: f64 = 0.8;

/// Timed repetitions per (workload, backend); the minimum is reported.
/// Interleaved between the backends (see `run_pair`) so load drift on a
/// shared machine cannot skew the ratios.
const REPS: usize = 9;

struct Workload {
    name: &'static str,
    /// The `--check` floor on fused-over-interp speedup, if gated. The
    /// floors sit well below the measured ratios (≈3× disjoint, ≈26–106×
    /// overlapping) because the check matrix's small event budget makes
    /// them noisy; the binding regression guard is the `--baseline`
    /// ratchet ([`BASELINE_TOLERANCE`] × the committed speedups).
    gate: Option<f64>,
    engine: Engine,
    events: Vec<TimedEvent>,
}

struct Measurement {
    nanos_per_event: f64,
    verdicts: Vec<(lomon_core::Verdict, u64)>,
}

/// One timed replay of `events` through `session` (reset first).
fn replay(session: &mut Session<'_>, events: &[TimedEvent], end: SimTime) -> u128 {
    session.reset();
    let started = Instant::now();
    session.ingest_batch(events);
    session.close(end);
    started.elapsed().as_nanos()
}

/// Measure both backends over the same workload, **interleaved** rep by
/// rep so machine-load drift hits both equally instead of skewing the
/// ratio; the minimum of each is reported.
fn run_pair(engine: &Engine, events: &[TimedEvent]) -> [Measurement; 2] {
    let end = events.last().map(|e| e.time).unwrap_or(SimTime::ZERO);
    let mut sessions = [Backend::Interp, Backend::Fused]
        .map(|b| engine.session_with_backend(DispatchMode::Indexed, b));
    let mut best = [u128::MAX; 2];
    for _ in 0..REPS {
        for (session, best) in sessions.iter_mut().zip(&mut best) {
            *best = (*best).min(replay(session, events, end));
        }
    }
    let measure = |s: &Session<'_>, nanos: u128| Measurement {
        nanos_per_event: nanos as f64 / events.len() as f64,
        verdicts: (0..engine.len())
            .map(|id| (s.verdict(id), s.ops(id)))
            .collect(),
    };
    [
        measure(&sessions[0], best[0]),
        measure(&sessions[1], best[1]),
    ]
}

struct Row {
    name: &'static str,
    gate: Option<f64>,
    events: usize,
    interp_ns: f64,
    fused_ns: f64,
}

impl Row {
    /// Fused over interpreted — the lowering's and the sharing's win
    /// together.
    fn speedup(&self) -> f64 {
        self.interp_ns / self.fused_ns.max(f64::MIN_POSITIVE)
    }

    fn fused_events_per_sec(&self) -> f64 {
        1e9 / self.fused_ns.max(f64::MIN_POSITIVE)
    }
}

fn render_json(rows: &[Row]) -> String {
    let mut out = String::from("{\n  \"bench\": \"hot_loop\",\n  \"unit\": \"ns/event\",\n");
    out.push_str("  \"workloads\": [\n");
    for (k, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"gated\": {}, \"events\": {}, \
             \"interp_ns_per_event\": {:.2}, \"fused_ns_per_event\": {:.2}, \
             \"speedup\": {:.2}, \"fused_events_per_sec\": {:.0}}}{}\n",
            row.name,
            row.gate.is_some(),
            row.events,
            row.interp_ns,
            row.fused_ns,
            row.speedup(),
            row.fused_events_per_sec(),
            if k + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Extract `(name, speedup)` pairs from a committed `BENCH_hot_loop.json`.
/// The file is written one workload object per line (see
/// [`render_json`]), so a line scanner is all the parsing needed.
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let field = |line: &str, key: &str| -> Option<String> {
        let at = line.find(key)? + key.len();
        let rest = line[at..].trim_start_matches([':', ' ', '"']);
        let end = rest.find(['"', ',', '}']).unwrap_or(rest.len());
        Some(rest[..end].to_owned())
    };
    text.lines()
        .filter_map(|line| {
            let name = field(line, "\"name\"")?;
            let speedup = field(line, "\"speedup\"")?.parse().ok()?;
            Some((name, speedup))
        })
        .collect()
}

/// `--check` extension for the lint `--fix-prune` contract: restrict the
/// fused rulebook to the workload's own event corpus, prune the dead
/// action-table rows ([`prune_dead`]), and replay the workload through
/// both rulebooks step by step — every per-group verdict, at every event
/// and at finish, must be identical.
fn prune_identical(engine: &Engine, events: &[TimedEvent]) -> bool {
    let corpus: NameSet = events.iter().map(|e| e.name).collect();
    let outcome = prune_dead(engine.fused(), Some(&corpus), 1 << 20);
    let mut original = engine.fused().instantiate();
    let mut pruned = outcome.fused.instantiate();
    let end = events.last().map(|e| e.time).unwrap_or(SimTime::ZERO);
    for event in events {
        for (o, p) in original.iter_mut().zip(pruned.iter_mut()) {
            if o.observe(*event) != p.observe(*event) {
                return false;
            }
        }
    }
    original
        .iter_mut()
        .zip(pruned.iter_mut())
        .all(|(o, p)| o.finish(end) == p.finish(end))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check_mode = args.iter().any(|a| a == "--check");
    let baseline_path = args
        .iter()
        .position(|a| a == "--baseline")
        .and_then(|at| args.get(at + 1).cloned());
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|at| args.get(at + 1).cloned());

    // The check matrix is smaller so the CI gate stays fast; the ratios it
    // gates are per-event and stable across the sizes.
    let (single_rounds, multi_rounds) = if check_mode {
        (20_000, 2_000)
    } else {
        (100_000, 10_000)
    };

    let workloads: Vec<Workload> = vec![
        {
            let (engine, events) = disjoint(1, single_rounds);
            Workload {
                name: "single",
                gate: None,
                engine,
                events,
            }
        },
        {
            // No structural overlap: fused degenerates to 50 singleton
            // groups, so the floor measures the flat-table lowering alone.
            let (engine, events) = disjoint(50, multi_rounds);
            Workload {
                name: "disjoint-50",
                gate: Some(2.0),
                engine,
                events,
            }
        },
        {
            // Same event budget shape as disjoint-50, but every event
            // concerns all 50 properties (6 unique groups under fusion).
            let (engine, events) = overlapping(50, multi_rounds * 5);
            Workload {
                name: "overlap-50",
                gate: Some(5.0),
                engine,
                events,
            }
        },
        {
            // The SMC/NISTT scaling shape: hundreds of properties over one
            // small bus alphabet. Per-property cost grows 4× from
            // overlap-50; the fused sweep still steps 6 unique groups.
            let (engine, events) = overlapping(200, multi_rounds * 5);
            Workload {
                name: "overlap-200",
                gate: Some(5.0),
                engine,
                events,
            }
        },
    ];

    println!("hot loop — fused rulebook vs interpreter (best of {REPS})");
    println!(
        "{:>12} {:>9} {:>12} {:>10} {:>8} {:>14}",
        "workload", "events", "interp ns/ev", "fused ns", "fsd/itp", "fused ev/s"
    );

    let mut rows = Vec::new();
    let mut identical = true;
    for w in &workloads {
        let [interp, fused] = run_pair(&w.engine, &w.events);
        // Differential gate: same verdict and same ops counter for every
        // property on both backends, or one of them has diverged.
        for (id, (i, f)) in interp.verdicts.iter().zip(&fused.verdicts).enumerate() {
            if i != f {
                eprintln!(
                    "MISMATCH: workload {} property {id}: interp {i:?} vs fused {f:?}",
                    w.name
                );
                identical = false;
            }
        }
        let row = Row {
            name: w.name,
            gate: w.gate,
            events: w.events.len(),
            interp_ns: interp.nanos_per_event,
            fused_ns: fused.nanos_per_event,
        };
        println!(
            "{:>12} {:>9} {:>12.1} {:>10.1} {:>7.1}x {:>14.0}",
            row.name,
            row.events,
            row.interp_ns,
            row.fused_ns,
            row.speedup(),
            row.fused_events_per_sec(),
        );
        rows.push(row);
    }
    println!();

    let mut ok = identical;
    if !identical {
        println!("FAIL: backends disagree on verdicts or ops counters");
    }

    if check_mode {
        for w in &workloads {
            if !prune_identical(&w.engine, &w.events) {
                println!(
                    "FAIL: {}: pruning the corpus-dead action-table rows changed a verdict",
                    w.name
                );
                ok = false;
            }
        }
        for row in &rows {
            if let Some(gate) = row.gate {
                if row.speedup() < gate {
                    println!(
                        "FAIL: {} fused speedup {:.2}x below the {gate}x gate",
                        row.name,
                        row.speedup()
                    );
                    ok = false;
                }
            }
        }
        if let Some(path) = &baseline_path {
            match std::fs::read_to_string(path) {
                Ok(text) => {
                    let committed = parse_baseline(&text);
                    for row in rows.iter().filter(|r| r.gate.is_some()) {
                        let Some(&(_, committed)) = committed.iter().find(|(n, _)| n == row.name)
                        else {
                            println!("FAIL: baseline {path} has no workload `{}`", row.name);
                            ok = false;
                            continue;
                        };
                        let floor = committed * BASELINE_TOLERANCE;
                        if row.speedup() < floor {
                            println!(
                                "FAIL: {} fused speedup {:.2}x regressed below {floor:.2}x \
                                 ({BASELINE_TOLERANCE} x committed {committed:.2}x)",
                                row.name,
                                row.speedup(),
                            );
                            ok = false;
                        }
                    }
                }
                Err(e) => {
                    println!("FAIL: cannot read baseline {path}: {e}");
                    ok = false;
                }
            }
        }
        if ok {
            println!(
                "OK: backends verdict- and ops-identical; fused above its speedup floor over \
                 interp on every gated workload"
            );
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    } else {
        let path = out_path.unwrap_or_else(|| "BENCH_hot_loop.json".to_owned());
        match std::fs::write(&path, render_json(&rows)) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}
