//! `tms-perfbench`: the end-to-end and per-layer benchmark of the TMS
//! reproduction.
//!
//! ```text
//! tms-perfbench --workload <specfp-pipeline|tmsd-warm|tmsd-cold>
//!               --seed N --seconds S --trace <0|1> [--tiny]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the benchmark's own
//! instrumentation off. `--trace 1` repeats the same ops in a traced
//! run and reports the per-layer metrics instead, writing the
//! benchmark's spans as a Chrome trace under `perfbench/out/`.
//! `--tiny` shrinks every fixed size so the whole thing runs in seconds
//! (the package's own test uses it). The last line of stdout is the
//! result object; usage and operational errors exit 2 without one.

mod pipeline;
mod stats;
mod tmsd;

use serde_json::Value;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `plane`
/// (`end_to_end` or `per_layer`), in its order: the one list of what a
/// run reports.
fn declared(plane: &str) -> Vec<(String, String)> {
    let doc: Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
        .expect("BENCHMARK.json is valid JSON");
    let metrics = doc.get(plane).and_then(Value::as_array).unwrap_or(&[]);
    metrics
        .iter()
        .filter_map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).map(str::to_string);
            Some((field("name")?, field("unit")?))
        })
        .collect()
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of the op order (the input populations are fixed).
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: u64,
    /// Run the traced run and report per-layer metrics.
    pub trace: bool,
    /// Shrink every fixed size (the package test).
    pub tiny: bool,
    /// Process start, the zero of `setup_s`.
    pub started: Instant,
}

fn parse_args(started: Instant) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed: not a u64")?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|_| "--seconds: not a u64")?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                })
            }
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        tiny,
        started,
    })
}

/// Where runs leave their Chrome traces and scratch files: inside the
/// benchmark's own directory, so a run writes nothing outside its
/// checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The Chrome trace of one traced run.
pub fn trace_path(workload: &str, seed: u64) -> PathBuf {
    out_dir().join(format!("{workload}-seed{seed}.trace.json"))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(started) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tms-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let table = declared(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    });
    let result = match args.workload.as_str() {
        "specfp-pipeline" => pipeline::run(&args),
        "tmsd-warm" => tmsd::run(&args, tmsd::Mode::Warm),
        "tmsd-cold" => tmsd::run(&args, tmsd::Mode::Cold),
        other => Err(format!(
            "unknown workload {other:?} (specfp-pipeline, tmsd-warm or tmsd-cold)"
        )),
    }
    .and_then(|out| {
        // A value under a name BENCHMARK.json does not list would never
        // be reported: a misspelt metric is a bug, not a zero.
        match out
            .values
            .keys()
            .find(|k| !table.iter().any(|(n, _)| n == *k))
        {
            Some(k) => Err(format!("metric {k:?} is not in BENCHMARK.json")),
            None => Ok(out),
        }
    });
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("tms-perfbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    for note in &out.notes {
        println!("# {note}");
    }
    for f in &out.failures {
        println!("# FAILED: {f}");
    }
    for (name, unit) in &table {
        let v = out.values.get(name.as_str()).copied().unwrap_or(0.0);
        println!("{name:<28} {v:>14.4} {unit}");
    }
    println!("{}", out.json(&table));
    ExitCode::SUCCESS
}
