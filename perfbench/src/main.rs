//! Helper binary of the layer-ledger benchmark (`perfbench/run.py` drives
//! it; it never runs the `lomon` binary itself).
//!
//! ```text
//! perfbench gen <workload> <seed> <dir>
//!     write the seeded inputs and manifest.json (reference digests) to dir
//! perfbench layers <workload> <seed> <dir> <seconds> <spans.json>
//!     time each layer's public functions on the same inputs, write the
//!     spans, print the per-layer metrics as one JSON object
//! perfbench calibrate
//!     run the host-speed probe once, print its checksum
//! ```

mod calibrate;
mod layers;
mod spans;
mod workload;

use std::path::Path;
use std::process::ExitCode;

use workload::{Inputs, Workload};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args.as_slice() {
        [cmd, workload, seed, dir] if cmd == "gen" => {
            parse_common(workload, seed).map(|(w, s)| Command::Gen(w, s, dir.clone()))
        }
        [cmd, workload, seed, dir, seconds, spans] if cmd == "layers" => {
            parse_common(workload, seed).and_then(|(w, s)| {
                let seconds: f64 = seconds
                    .parse()
                    .map_err(|_| format!("bad seconds `{seconds}`"))?;
                Ok(Command::Layers(w, s, dir.clone(), seconds, spans.clone()))
            })
        }
        [cmd] if cmd == "calibrate" => Ok(Command::Calibrate),
        _ => Err("usage: perfbench gen <workload> <seed> <dir> | \
                  perfbench layers <workload> <seed> <dir> <seconds> <spans.json> | \
                  perfbench calibrate"
            .to_owned()),
    };
    let result = parsed.and_then(|command| match command {
        Command::Gen(workload, seed, dir) => Inputs::generate(workload, seed)
            .write(Path::new(&dir))
            .map_err(|e| format!("cannot write inputs to {dir}: {e}")),
        Command::Layers(workload, seed, dir, seconds, spans) => {
            let inputs = Inputs::generate(workload, seed);
            layers::run(&inputs, Path::new(&dir), seconds, Path::new(&spans))
        }
        Command::Calibrate => {
            println!("{}", calibrate::probe());
            Ok(())
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

enum Command {
    Gen(Workload, u64, String),
    Layers(Workload, u64, String, f64, String),
    Calibrate,
}

fn parse_common(workload: &str, seed: &str) -> Result<(Workload, u64), String> {
    let w = Workload::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let s = seed.parse().map_err(|_| format!("bad seed `{seed}`"))?;
    Ok((w, s))
}
