//! Hot-loop cost of one monitored event: the fused rulebook backend vs the
//! tree-walking interpreter oracle.
//!
//! Four workloads, all through an indexed-dispatch engine
//! [`Session`](lomon_engine::Session):
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
//! `BENCH_hot_loop.json`: a drop below [`gate::TOLERANCE`] of a
//! recorded speedup fails the run — the floor that ratchets up as future
//! optimization PRs commit better baselines. The `single` workload is
//! reported but not gated — with one monitor per event the session's fixed
//! dispatch overhead dilutes the ratio and makes it noisy.

use std::process::ExitCode;

use lomon_bench::gate::{self, Args, Better, Gate};
use lomon_bench::workloads::{disjoint, overlapping};
use lomon_core::analysis::prune_dead;
use lomon_engine::{Backend, DispatchMode, Engine};
use lomon_trace::{NameSet, SimTime, TimedEvent};

/// Timed repetitions per (workload, backend), interleaved between the
/// backends ([`gate::interleave`]) so load drift on a shared machine hits
/// both alike; the table shows each backend's fastest run and the gate
/// reads the median of the per-rep speedups ([`gate::median_ratio`]).
const REPS: usize = 9;

struct Workload {
    name: &'static str,
    /// The `--check` floor on fused-over-interp speedup, if gated. The
    /// floors sit well below the measured ratios (≈3× disjoint, ≈26–106×
    /// overlapping) because the check matrix's small event budget makes
    /// them noisy; the binding regression guard is the `--baseline`
    /// ratchet ([`gate::TOLERANCE`] × the committed speedups).
    gate: Option<f64>,
    engine: Engine,
    events: Vec<TimedEvent>,
}

struct Row {
    name: &'static str,
    gate: Option<f64>,
    events: usize,
    interp_ns: f64,
    fused_ns: f64,
    /// Fused over interpreted — the lowering's and the sharing's win
    /// together: the median of the per-rep ratios.
    speedup: f64,
}

impl Row {
    fn fused_events_per_sec(&self) -> f64 {
        1e9 / self.fused_ns.max(f64::MIN_POSITIVE)
    }

    fn json(&self) -> Vec<(&'static str, String)> {
        vec![
            ("name", format!("\"{}\"", self.name)),
            ("gated", self.gate.is_some().to_string()),
            ("events", self.events.to_string()),
            ("interp_ns_per_event", format!("{:.2}", self.interp_ns)),
            ("fused_ns_per_event", format!("{:.2}", self.fused_ns)),
            ("speedup", format!("{:.2}", self.speedup)),
            (
                "fused_events_per_sec",
                format!("{:.0}", self.fused_events_per_sec()),
            ),
        ]
    }
}

/// `--check` extension for the lint `--fix-prune` contract: restrict the
/// fused rulebook to the workload's own event corpus, prune the dead
/// action-table rows ([`prune_dead`]), and replay the workload through
/// both rulebooks step by step — every per-group verdict, at every event
/// and at finish, must be identical.
fn prune_identical(engine: &Engine, events: &[TimedEvent]) -> bool {
    let corpus: NameSet = events.iter().map(|e| e.name).collect();
    let outcome = prune_dead(engine.fused(), Some(&corpus), 1 << 20);
    let end = events.last().map(|e| e.time).unwrap_or(SimTime::ZERO);
    outcome
        .first_divergence(engine.fused(), events, end)
        .is_none()
}

fn main() -> ExitCode {
    let args = Args::from_env("hot_loop", &["--baseline PATH", "--out PATH"]);

    // The check matrix is smaller so the CI gate stays fast; the ratios it
    // gates are per-event and stable across the sizes.
    let (single_rounds, multi_rounds) = if args.check {
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

    println!(
        "hot loop — fused rulebook vs interpreter \
         (best of {REPS} ns/event, median of {REPS} per-rep speedups)"
    );
    println!(
        "{:>12} {:>9} {:>12} {:>10} {:>8} {:>14}",
        "workload", "events", "interp ns/ev", "fused ns", "fsd/itp", "fused ev/s"
    );

    let mut rows = Vec::new();
    let mut identical = true;
    for w in &workloads {
        let end = w.events.last().map_or(SimTime::ZERO, |e| e.time);
        let mut sessions = [Backend::Fused, Backend::Interp]
            .map(|b| w.engine.session_with_backend(DispatchMode::Indexed, b));
        let reps: Vec<[u128; 2]> =
            gate::interleave(REPS, |k| gate::replay(&mut sessions[k], &w.events, end));
        let [fused_ns, interp_ns] = gate::best(&reps);
        // Differential gate: same verdict and same ops counter for every
        // property on both backends, or one of them has diverged.
        let [fused, interp] = sessions.each_ref().map(gate::digest);
        for (id, (i, f)) in interp.iter().zip(&fused).enumerate() {
            if i != f {
                eprintln!(
                    "MISMATCH: workload {} property {id}: interp {i:?} vs fused {f:?}",
                    w.name
                );
                identical = false;
            }
        }
        #[allow(clippy::cast_precision_loss)]
        let per_event = |ns: u128| ns as f64 / w.events.len() as f64;
        let row = Row {
            name: w.name,
            gate: w.gate,
            events: w.events.len(),
            interp_ns: per_event(interp_ns),
            fused_ns: per_event(fused_ns),
            speedup: gate::median_ratio(&reps, 1),
        };
        println!(
            "{:>12} {:>9} {:>12.1} {:>10.1} {:>7.1}x {:>14.0}",
            row.name,
            row.events,
            row.interp_ns,
            row.fused_ns,
            row.speedup,
            row.fused_events_per_sec(),
        );
        rows.push(row);
    }
    println!();

    let mut gate = Gate::default();
    if !identical {
        gate.fail("backends disagree on verdicts or ops counters");
    }
    if !args.check {
        let rows: Vec<_> = rows.iter().map(Row::json).collect();
        let json = gate::render_json("hot_loop", "ns/event", "workloads", &rows);
        return gate.write(args.value("--out").unwrap_or("BENCH_hot_loop.json"), &json);
    }
    for w in &workloads {
        if !prune_identical(&w.engine, &w.events) {
            gate.fail(format!(
                "{}: pruning the corpus-dead action-table rows changed a verdict",
                w.name
            ));
        }
    }
    let gated: Vec<_> = rows.iter().filter(|row| row.gate.is_some()).collect();
    for row in &gated {
        let floor = row.gate.expect("gated rows only");
        if row.speedup < floor {
            gate.fail(format!(
                "{} fused speedup {:.2}x below the {floor}x gate",
                row.name, row.speedup
            ));
        }
    }
    if let Some(path) = args.value("--baseline") {
        let fresh: Vec<_> = gated.iter().map(|r| (r.name, r.speedup)).collect();
        for failure in gate::ratchet(path, "speedup", Better::Higher, &fresh) {
            gate.fail(failure);
        }
    }
    gate.finish(
        "backends verdict- and ops-identical; fused above its speedup floor over \
         interp on every gated workload",
    )
}
