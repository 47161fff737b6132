//! The shared harness of the CI timing gates (`hot_loop`, `wire_speed`,
//! `obs_overhead`, `serve_saturation`, `smc_scaling`), whose interleaved
//! timing ([`best_of`]) also times every leg of the paper exhibits.
//!
//! * [`Args`] — the command line: `--check` plus the valued flags a gate
//!   declares; anything else exits 2 with a usage line.
//! * [`interleave`], [`best_of`], [`median_ratio`] — interleaved timing:
//!   each leg's fastest run, or the median of per-rep ratios.
//! * [`render_json`] — the committed `BENCH_*.json` format, one object per
//!   line, which the ratchet reads back with a line scanner.
//! * [`ratchet`] — fresh figures against a committed baseline, within
//!   [`TOLERANCE`].
//! * [`Gate`] — the `FAIL:`/`OK:` collector and the run's exit code.
//! * [`replay`], [`render`], [`drive`], [`digest`] — the measurement bodies
//!   several gates time: a batch replay through a [`Session`], and a stream
//!   pushed through a [`StreamDriver`] in [`CHUNK`]-sized reads.

use std::fmt::{Display, Write as _};
use std::io;
use std::process::ExitCode;
use std::time::Instant;

use lomon_core::Verdict;
use lomon_engine::{Record, Session, Step, StreamDriver};
use lomon_trace::{write_trace, SimTime, StreamFormat, TimedEvent, Trace, Vocabulary};

/// A fresh figure may fall to this fraction of its committed value
/// (higher-is-better) or rise to the committed value divided by it
/// (lower-is-better) before [`ratchet`] fails it.
pub const TOLERANCE: f64 = 0.8;

/// The read size of `check` and `watch`, in which [`drive`] feeds its
/// input.
pub const CHUNK: usize = 64 * 1024;

/// A gate binary's command line.
#[derive(Debug)]
pub struct Args {
    /// `--check`: run the CI gate instead of writing the JSON file.
    pub check: bool,
    values: Vec<(&'static str, String)>,
}

impl Args {
    /// Parse the process arguments: `--check`, and each valued flag declared
    /// in `flags` as `"--flag PATH"` (any text) or `"--flag N"` (an unsigned
    /// number). An undeclared argument, a valued flag with no value or a
    /// malformed number prints the error and a usage line and exits 2.
    pub fn from_env(bin: &str, flags: &[&'static str]) -> Args {
        Args::parse(flags, std::env::args().skip(1)).unwrap_or_else(|error| {
            let usage: String = flags.iter().map(|flag| format!(" [{flag}]")).collect();
            eprintln!("error: {error}\nusage: {bin} [--check]{usage}");
            std::process::exit(2)
        })
    }

    fn parse(
        flags: &[&'static str],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Args, String> {
        let mut parsed = Args {
            check: false,
            values: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--check" {
                parsed.check = true;
                continue;
            }
            let Some((flag, kind)) = flags
                .iter()
                .filter_map(|spec| spec.split_once(' '))
                .find(|&(flag, _)| flag == arg)
            else {
                return Err(format!("unknown argument `{arg}`"));
            };
            let value = args
                .next()
                .filter(|value| !value.starts_with("--"))
                .ok_or_else(|| format!("`{flag}` needs a value ({kind})"))?;
            if kind == "N" && value.parse::<u64>().is_err() {
                return Err(format!("`{flag}` needs an unsigned number, got `{value}`"));
            }
            parsed.values.push((flag, value));
        }
        Ok(parsed)
    }

    /// The value of `flag`, if given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|&&(f, _)| f == flag)
            .map(|(_, value)| value.as_str())
    }

    /// The value of the numeric flag `flag`, if given.
    pub fn number(&self, flag: &str) -> Option<u64> {
        self.value(flag)
            .map(|value| value.parse().expect("numbers are checked while parsing"))
    }
}

/// Run `N` legs `reps` times each, interleaved rep by rep so that load
/// drift on a shared machine hits every leg alike instead of skewing their
/// ratios. `leg(k)` runs leg `k` once and returns its nanoseconds; the
/// result is each rep's `N` timings.
pub fn interleave<const N: usize>(
    reps: usize,
    mut leg: impl FnMut(usize) -> u128,
) -> Vec<[u128; N]> {
    (0..reps).map(|_| std::array::from_fn(&mut leg)).collect()
}

/// Each leg's fastest run of [`interleave`]d reps.
pub fn best_of<const N: usize>(reps: usize, leg: impl FnMut(usize) -> u128) -> [u128; N] {
    best(&interleave(reps, leg))
}

/// Each leg's fastest time over `reps`.
pub fn best<const N: usize>(reps: &[[u128; N]]) -> [u128; N] {
    std::array::from_fn(|k| reps.iter().map(|rep| rep[k]).min().unwrap_or(0))
}

/// The median over `reps` of leg `k`'s time divided by leg 0's in the same
/// rep. Each ratio compares two runs made back to back, so a load spike
/// between reps cannot skew it, and one noisy rep cannot decide the gate
/// the way it can decide a ratio of two minima.
#[allow(clippy::cast_precision_loss)]
pub fn median_ratio<const N: usize>(reps: &[[u128; N]], k: usize) -> f64 {
    let mut ratios: Vec<f64> = reps
        .iter()
        .map(|rep| rep[k] as f64 / rep[0].max(1) as f64)
        .collect();
    ratios.sort_by(f64::total_cmp);
    let mid = ratios.len() / 2;
    match ratios.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => ratios[mid],
        _ => (ratios[mid - 1] + ratios[mid]) / 2.0,
    }
}

/// A committed baseline file: a header, then one object per line in the
/// array `list`. Each row is `(key, value)` pairs, the value already JSON
/// text (a number, `true`/`false`, or a quoted string).
pub fn render_json(bench: &str, unit: &str, list: &str, rows: &[Vec<(&str, String)>]) -> String {
    let mut out =
        format!("{{\n  \"bench\": \"{bench}\",\n  \"unit\": \"{unit}\",\n  \"{list}\": [\n");
    for (k, row) in rows.iter().enumerate() {
        let fields: Vec<String> = row
            .iter()
            .map(|(key, value)| format!("\"{key}\": {value}"))
            .collect();
        let comma = if k + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(out, "    {{{}}}{comma}", fields.join(", "));
    }
    out.push_str("  ]\n}\n");
    out
}

/// `(name, value)` of every line of a [`render_json`] file that has both a
/// `"name"` field and a numeric `key` field.
fn parse_baseline(text: &str, key: &str) -> Vec<(String, f64)> {
    let field = |line: &str, key: &str| -> Option<String> {
        let at = line.find(&format!("\"{key}\""))? + key.len() + 2;
        let rest = line[at..].trim_start_matches([':', ' ', '"']);
        let end = rest.find(['"', ',', '}']).unwrap_or(rest.len());
        Some(rest[..end].to_owned())
    };
    text.lines()
        .filter_map(|line| Some((field(line, "name")?, field(line, key)?.parse().ok()?)))
        .collect()
}

/// Which way a gated figure improves.
#[derive(Debug, Clone, Copy)]
pub enum Better {
    /// A speedup: the ratchet fails a fall below [`TOLERANCE`] × committed.
    Higher,
    /// A cost ratio: the ratchet fails a rise above committed ÷
    /// [`TOLERANCE`].
    Lower,
}

/// Hold each fresh `(workload, figure)` against the figure committed under
/// `key` in the baseline file at `path`, and describe every failure: a
/// regression past the tolerated bound, a workload the file lacks, or a
/// file that cannot be read. No failures means the ratchet holds.
pub fn ratchet(path: &str, key: &str, better: Better, fresh: &[(&str, f64)]) -> Vec<String> {
    let committed = match std::fs::read_to_string(path) {
        Ok(text) => parse_baseline(&text, key),
        Err(e) => return vec![format!("cannot read baseline {path}: {e}")],
    };
    fresh
        .iter()
        .filter_map(|&(name, value)| {
            let Some(&(_, base)) = committed.iter().find(|(n, _)| n == name) else {
                return Some(format!("baseline {path} has no workload `{name}`"));
            };
            let (bound, regressed) = match better {
                Better::Higher => (base * TOLERANCE, value < base * TOLERANCE),
                Better::Lower => (base / TOLERANCE, value > base / TOLERANCE),
            };
            regressed.then(|| {
                format!(
                    "{name} {key} {value:.2} regressed past {bound:.2} \
                     (committed {base:.2}, tolerance {TOLERANCE})"
                )
            })
        })
        .collect()
}

/// The verdict of a gate run: each failure prints as a `FAIL:` line when it
/// is found, and the run exits 1 if any was.
#[derive(Debug, Default)]
pub struct Gate {
    failed: bool,
}

impl Gate {
    /// Print `FAIL: {what}` and fail the run.
    pub fn fail(&mut self, what: impl Display) {
        println!("FAIL: {what}");
        self.failed = true;
    }

    /// The run's exit code.
    pub fn exit(&self) -> ExitCode {
        if self.failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    }

    /// The `--check` ending: print `OK: {summary}` if nothing failed.
    pub fn finish(self, summary: &str) -> ExitCode {
        if !self.failed {
            println!("OK: {summary}");
        }
        self.exit()
    }

    /// The table-run ending: write `json` to `path`; a write error fails
    /// the run.
    pub fn write(mut self, path: &str, json: &str) -> ExitCode {
        match std::fs::write(path, json) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                self.failed = true;
            }
        }
        self.exit()
    }
}

/// One timed replay of `events` through `session` (reset first, outside
/// the timer): one batch ingest, then close at `end`.
pub fn replay(session: &mut Session<'_>, events: &[TimedEvent], end: SimTime) -> u128 {
    session.reset();
    let started = Instant::now();
    session.ingest_batch(events);
    session.close(end);
    started.elapsed().as_nanos()
}

/// `events` as stream text in `format`, one newline-terminated line each.
pub fn render(events: &[TimedEvent], voc: &Vocabulary, format: StreamFormat) -> Vec<u8> {
    match format {
        StreamFormat::Trace => write_trace(
            &Trace::from_pairs(events.iter().map(|e| (e.time, e.name))),
            voc,
        ),
        StreamFormat::Ndjson => events.iter().fold(String::new(), |mut text, e| {
            let _ = writeln!(
                text,
                "{{\"time\": \"{}\", \"dir\": \"{}\", \"name\": \"{}\"}}",
                e.time,
                voc.direction(e.name),
                voc.resolve(e.name)
            );
            text
        }),
    }
    .into_bytes()
}

/// One timed stream through `driver` (reset first, outside the timer):
/// `input` in [`CHUNK`]-sized pushes, every line stepped, then closed.
/// `records` receives every rendered record; returns the nanoseconds taken
/// and the number of rejected lines.
pub fn drive(driver: &mut StreamDriver<'_>, input: &[u8], records: &mut String) -> (u128, u64) {
    driver.reset();
    records.clear();
    let mut faults = 0;
    let mut sink = |_: &Record<'_>, rendered: &str| -> io::Result<()> {
        records.push_str(rendered);
        Ok(())
    };
    let started = Instant::now();
    for chunk in input.chunks(CHUNK) {
        driver.push(chunk);
        while let Some(step) = driver.step(&mut sink).expect("the sink never fails") {
            faults += u64::from(matches!(step, Step::Fault(_)));
        }
    }
    driver.close(&mut sink).expect("the sink never fails");
    (started.elapsed().as_nanos(), faults)
}

/// Every property's `(verdict, ops)` in `session`: what two legs timing the
/// same input must agree on.
pub fn digest(session: &Session<'_>) -> Vec<(Verdict, u64)> {
    (0..session.engine().len())
        .map(|id| (session.verdict(id), session.ops(id)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOT_LOOP: &str = include_str!("../../../BENCH_hot_loop.json");
    const WIRE_SPEED: &str = include_str!("../../../BENCH_wire_speed.json");
    const HOT_LOOP_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hot_loop.json");

    fn parse(args: &[&str]) -> Result<Args, String> {
        let flags = ["--baseline PATH", "--out PATH", "--clients N"];
        Args::parse(&flags, args.iter().map(|&a| a.to_owned()))
    }

    #[test]
    fn median_ratio_pairs_legs_within_each_rep() {
        // Rep 2 ran under load on both legs; the minima would pair rep 0's
        // plain leg with rep 2's other leg.
        let reps = [[100, 120], [90, 99], [300, 330], [95, 190]];
        assert_eq!(best(&reps), [90, 99]);
        assert!((median_ratio(&reps, 1) - 1.15).abs() < 1e-9);
        assert!((median_ratio(&reps[..3], 1) - 1.1).abs() < 1e-9);
        assert!((median_ratio(&reps, 0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn committed_baselines_carry_every_gated_workload() {
        let speedups = parse_baseline(HOT_LOOP, "speedup");
        for name in ["disjoint-50", "overlap-50", "overlap-200"] {
            assert!(
                speedups.iter().any(|(n, v)| n == name && *v > 1.0),
                "{name}"
            );
        }
        let ratios = parse_baseline(WIRE_SPEED, "ratio");
        for name in ["disjoint-50", "disjoint-50-ndjson"] {
            assert!(ratios.iter().any(|(n, v)| n == name && *v > 0.0), "{name}");
        }
    }

    #[test]
    fn written_rows_read_back() {
        let rows: Vec<Vec<(&str, String)>> = [("a", 1.25), ("b-2", 30.0)]
            .iter()
            .map(|&(name, value)| {
                vec![
                    ("name", format!("\"{name}\"")),
                    ("gated", "true".to_owned()),
                    ("ratio", format!("{value:.2}")),
                ]
            })
            .collect();
        let text = render_json("demo", "ns/event", "workloads", &rows);
        assert_eq!(
            parse_baseline(&text, "ratio"),
            [("a".to_owned(), 1.25), ("b-2".to_owned(), 30.0)]
        );
        assert!(parse_baseline(&text, "speedup").is_empty());
    }

    #[test]
    fn ratchet_holds_fails_and_reports_missing_input() {
        let committed = parse_baseline(HOT_LOOP, "speedup");
        let at = |scale: f64| -> Vec<(&str, f64)> {
            committed
                .iter()
                .map(|(n, v)| (n.as_str(), v * scale))
                .collect()
        };
        let check =
            |fresh: &[(&str, f64)], better| ratchet(HOT_LOOP_PATH, "speedup", better, fresh);
        assert!(check(&at(1.0), Better::Higher).is_empty());
        assert!(check(&at(0.81), Better::Higher).is_empty());
        assert_eq!(check(&at(0.79), Better::Higher).len(), committed.len());
        assert!(check(&at(1.24), Better::Lower).is_empty());
        assert_eq!(check(&at(1.26), Better::Lower).len(), committed.len());
        let missing = check(&[("no-such-workload", 1.0)], Better::Higher);
        assert!(missing[0].contains("no workload `no-such-workload`"));
        let unreadable = ratchet("no/such/baseline.json", "speedup", Better::Higher, &at(1.0));
        assert!(unreadable[0].contains("cannot read baseline"));
    }

    #[test]
    fn parser_takes_declared_flags_and_rejects_the_rest() {
        let args = parse(&["--check", "--baseline", "b.json", "--clients", "7"]).expect("valid");
        assert!(args.check);
        assert_eq!(args.value("--baseline"), Some("b.json"));
        assert_eq!(args.number("--clients"), Some(7));
        assert_eq!(args.value("--out"), None);
        for bad in [
            &["--check", "--baselin", "b.json"][..],
            &["--check", "--baseline"],
            &["--baseline", "--check"],
            &["--clients", "abc"],
            &["--clients", "-1"],
            &["check"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
