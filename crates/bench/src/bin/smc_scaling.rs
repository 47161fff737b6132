//! SMC campaign scaling: wall-clock time vs worker count on the platform
//! workload, plus the determinism invariant that makes the parallelism
//! safe to use — the report must be bit-identical for every `--jobs`.
//!
//! Run with `cargo run -p lomon-bench --bin smc_scaling --release`.
//! `--check` runs a reduced matrix and exits non-zero unless
//!
//! * every worker count produces the same [`CampaignReport`], and
//! * 4 workers achieve at least a 3× speedup over 1 worker — evaluated
//!   only when the machine actually has ≥ 4 cores (on smaller machines the
//!   determinism gate still runs and the speedup gate reports `skipped`).
//!
//! Episodes are full platform simulations (`captures` episodes of the
//! face-recognition loop each), sized so per-episode work dominates the
//! campaign's scheduling overhead.

use std::process::ExitCode;
use std::time::Instant;

use lomon_bench::gate::{self, Args, Gate};
use lomon_smc::{Campaign, CampaignConfig, CampaignReport, ScenarioModel};
use lomon_tlm::scenario::ScenarioConfig;

/// A heavier-than-default scenario: more recognition episodes per
/// simulation, so one campaign episode costs ~100 µs of real work.
fn bench_model(fault_probability: f64) -> ScenarioModel {
    let config = ScenarioConfig {
        captures: 12,
        ..ScenarioConfig::nominal(0)
    };
    ScenarioModel::new(config).with_fault_probability(fault_probability)
}

struct Measurement {
    report: CampaignReport,
    millis: f64,
}

fn run(model: &ScenarioModel, episodes: u64, jobs: usize, reps: usize) -> Measurement {
    let campaign = Campaign::new(
        model,
        CampaignConfig::estimate(42, episodes).with_jobs(jobs),
    )
    .expect("bench properties compile");
    let mut report = None;
    // Best-of-`reps` wall clock: robust against scheduler noise on shared
    // CI runners.
    let [best] = gate::best_of(reps, |_| {
        let started = Instant::now();
        let this = campaign.run();
        let nanos = started.elapsed().as_nanos();
        if let Some(previous) = &report {
            assert_eq!(&this, previous, "a re-run changed the report");
        }
        report = Some(this);
        nanos
    });
    Measurement {
        report: report.expect("at least one rep"),
        millis: best as f64 / 1e6,
    }
}

fn main() -> ExitCode {
    let check_mode = Args::from_env("smc_scaling", &[]).check;
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let (episodes, reps, job_counts): (u64, usize, Vec<usize>) = if check_mode {
        (1024, 3, vec![1, 2, 4])
    } else {
        let mut jobs = vec![1, 2, 4, 8, 16];
        jobs.retain(|&j| j <= 2 * cores);
        (1024, 3, jobs)
    };

    println!(
        "smc campaign scaling — {episodes} platform episodes, fault probability 0.3, \
         {cores} cores"
    );
    println!(
        "{:>5} {:>10} {:>9} {:>13} {:>12}",
        "jobs", "wall ms", "speedup", "episodes/s", "same report"
    );

    let model = bench_model(0.3);
    let baseline = run(&model, episodes, 1, reps);
    let mut speedup_at_4 = None;
    let mut deterministic = true;
    for &jobs in &job_counts {
        let m = if jobs == 1 {
            Measurement {
                report: baseline.report.clone(),
                millis: baseline.millis,
            }
        } else {
            run(&model, episodes, jobs, reps)
        };
        let same = m.report == baseline.report;
        deterministic &= same;
        let speedup = baseline.millis / m.millis;
        if jobs == 4 {
            speedup_at_4 = Some(speedup);
        }
        println!(
            "{:>5} {:>10.2} {:>8.2}x {:>13.0} {:>12}",
            jobs,
            m.millis,
            speedup,
            episodes as f64 / (m.millis / 1e3),
            if same { "yes" } else { "NO" },
        );
    }

    // The verdicts themselves, for the record.
    println!();
    print!("{}", baseline.report.render());

    if !check_mode {
        println!();
        println!("Expected shape: wall clock falls roughly linearly with jobs up to");
        println!("the core count; the report column must read `yes` on every row.");
        return ExitCode::SUCCESS;
    }

    println!();
    let mut gate = Gate::default();
    if deterministic {
        println!("OK: reports identical across all worker counts");
    } else {
        gate.fail("a worker count changed the campaign report");
    }
    match speedup_at_4 {
        Some(mut speedup) if cores >= 4 => {
            // Shared CI runners are noisy; before failing the gate,
            // re-measure the 1-vs-4 pair up to twice and keep the best
            // ratio — a genuine scaling regression fails all attempts.
            for attempt in 0..2 {
                if speedup >= 3.0 {
                    break;
                }
                println!(
                    "  below threshold at {speedup:.2}x, re-measuring \
                     (attempt {} of 2)…",
                    attempt + 1
                );
                let one = run(&model, episodes, 1, reps);
                let four = run(&model, episodes, 4, reps);
                speedup = speedup.max(one.millis / four.millis);
            }
            if speedup >= 3.0 {
                println!("OK: 4 workers are {speedup:.2}x faster than 1 (>= 3x required)");
            } else {
                gate.fail(format!(
                    "4 workers are only {speedup:.2}x faster than 1 (>= 3x required)"
                ));
            }
        }
        Some(speedup) => {
            println!(
                "skipped: speedup gate needs >= 4 cores, this machine has {cores} \
                 (measured {speedup:.2}x)"
            );
        }
        None => gate.fail("the 4-worker row did not run"),
    }
    gate.exit()
}
