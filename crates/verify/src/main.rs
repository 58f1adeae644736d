//! `tms-verify` — sweep every workload family plus a fuzzed population
//! through the differential checks and write `results/verify.json`.
//!
//! ```text
//! tms-verify [--fuzz N] [--seed S] [--out PATH] [--sim-iters N]
//!            [--specfp-cap N] [--jobs N] [--no-sim] [--quick]
//!            [--shard I/N] [--trace PATH] [--metrics PATH]
//!            [--snapshot PATH] [--faults SEED]
//! tms-verify merge-metrics [--out PATH] FILE...
//! ```
//!
//! Exits nonzero if any check fails. `--faults SEED` runs the sweep as
//! a fault-injection campaign: seeded, deterministic failures are
//! forced into the scheduler search (attempt starvation), the SpMT
//! engine (misspeculation bursts, stall jitter) and the sweep worker
//! pool (panicking workers) — and the run must still complete with a
//! clean report, recovering or degrading gracefully at every site.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use tms_core::par::Parallelism;
use tms_faults::FaultPlan;
use tms_trace::Trace;
use tms_verify::sweep::{run_sweep, SweepConfig};

struct Args {
    sweep: SweepConfig,
    out: PathBuf,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    snapshot_out: Option<PathBuf>,
    faults_seed: Option<u64>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            sweep: SweepConfig {
                jobs: Parallelism::Auto,
                ..Default::default()
            },
            out: PathBuf::from("results/verify.json"),
            trace_out: None,
            metrics_out: None,
            snapshot_out: None,
            faults_seed: None,
        }
    }
}

fn usage() -> String {
    "tms-verify [--fuzz N] [--seed S] [--out PATH] [--sim-iters N] \
     [--specfp-cap N] [--jobs N] [--no-sim] [--quick] [--shard I/N] \
     [--trace PATH] [--metrics PATH] [--snapshot PATH] [--faults SEED]\n\
     tms-verify merge-metrics [--out PATH] FILE...\n\n\
     --jobs N       worker threads for the per-loop fan-out; 0 or the\n\
                    default uses every available core. The TMS_JOBS\n\
                    environment variable sets the default; the flag\n\
                    wins over it. The report is bit-identical at every\n\
                    worker count.\n\
     --quick        cheaper per-loop check grid\n\
     --no-sim       skip differential execution\n\
     --specfp-cap N loops per SPECfp profile (0 = all)\n\
     --shard I/N    check only loops with global index = I (mod N);\n\
                    the N shards partition the sweep, and their\n\
                    --snapshot files merge (merge-metrics) to exactly\n\
                    the single-process metrics\n\
     --trace PATH   enable tracing; write a Chrome trace_event JSON\n\
                    (load in chrome://tracing or ui.perfetto.dev);\n\
                    every event stays in memory until the run ends\n\
     --metrics PATH enable tracing; write the counter/timer metrics\n\
                    JSON (default results/verify_metrics.json when\n\
                    --trace is given)\n\
     --snapshot PATH  enable tracing; write the deterministic metrics\n\
                    snapshot (counters + value histograms only) for\n\
                    merge-metrics. Tracing never changes the report:\n\
                    verify.json stays byte-identical.\n\
     --faults SEED  fault-injection campaign (hex 0x... or decimal):\n\
                    seeded failures in the scheduler search, the SpMT\n\
                    engine and the worker pool.\n\
                    The sweep must survive them all — degradations are\n\
                    reported, panics are contained, and the report is\n\
                    still bit-identical at every --jobs.\n\n\
     merge-metrics  fold per-shard snapshot/metrics JSON files into\n\
                    one snapshot (stdout, or --out PATH). FILE may be a\n\
                    filename glob (* / ? in the final component); zero\n\
                    inputs or a pattern matching nothing exits 2"
        .to_string()
}

fn parse_seed(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|e| format!("--faults: {e}"))
}

fn parse_shard(text: &str) -> Result<(u32, u32), String> {
    let (i, n) = text
        .split_once('/')
        .ok_or_else(|| format!("--shard wants I/N, got '{text}'"))?;
    let i: u32 = i.parse().map_err(|e| format!("--shard index: {e}"))?;
    let n: u32 = n.parse().map_err(|e| format!("--shard count: {e}"))?;
    if n == 0 {
        return Err("--shard count must be at least 1".to_string());
    }
    if i >= n {
        return Err(format!("--shard index {i} out of range for {n} shards"));
    }
    Ok((i, n))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    // Flag < TMS_JOBS env < default (all cores). An unparseable
    // TMS_JOBS is a hard error, not a silent fall-through.
    if let Some(jobs) = Parallelism::from_env()? {
        args.sweep.jobs = jobs;
    }
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--fuzz" => {
                args.sweep.fuzz = val("--fuzz")?.parse().map_err(|e| format!("--fuzz: {e}"))?
            }
            "--seed" => {
                args.sweep.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--out" => args.out = PathBuf::from(val("--out")?),
            "--sim-iters" => {
                args.sweep.sim_iters = val("--sim-iters")?
                    .parse()
                    .map_err(|e| format!("--sim-iters: {e}"))?
            }
            "--specfp-cap" => {
                args.sweep.specfp_cap = val("--specfp-cap")?
                    .parse()
                    .map_err(|e| format!("--specfp-cap: {e}"))?
            }
            "--jobs" => {
                args.sweep.jobs =
                    Parallelism::parse_jobs(&val("--jobs")?).map_err(|e| format!("--jobs: {e}"))?;
            }
            "--no-sim" => args.sweep.no_sim = true,
            "--quick" => args.sweep.quick = true,
            "--shard" => args.sweep.shard = Some(parse_shard(&val("--shard")?)?),
            "--trace" => args.trace_out = Some(PathBuf::from(val("--trace")?)),
            "--metrics" => args.metrics_out = Some(PathBuf::from(val("--metrics")?)),
            "--snapshot" => args.snapshot_out = Some(PathBuf::from(val("--snapshot")?)),
            "--faults" => args.faults_seed = Some(parse_seed(&val("--faults")?)?),
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// `tms-verify merge-metrics [--out PATH] FILE...`
fn cmd_merge_metrics(argv: &[String]) -> ExitCode {
    let mut out: Option<PathBuf> = None;
    let mut files: Vec<PathBuf> = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => match it.next() {
                Some(p) => out = Some(PathBuf::from(p)),
                None => {
                    eprintln!("tms-verify merge-metrics: --out needs a value");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "tms-verify merge-metrics [--out PATH] FILE...\n\
                     FILE may be a filename glob (* / ? in the final \
                     component);\nzero inputs or a pattern matching \
                     nothing exits 2"
                );
                return ExitCode::SUCCESS;
            }
            // Shells pass unmatched globs through verbatim, so expand
            // `*` / `?` patterns here: a pattern matching nothing is an
            // operational error (exit 2), never a silent empty merge.
            _ if tms_verify::glob::is_pattern(a) => match tms_verify::glob::expand(a) {
                Ok(matched) if matched.is_empty() => {
                    eprintln!("tms-verify merge-metrics: pattern '{a}' matched no files");
                    return ExitCode::from(2);
                }
                Ok(matched) => files.extend(matched),
                Err(e) => {
                    eprintln!("tms-verify merge-metrics: {e}");
                    return ExitCode::from(2);
                }
            },
            _ => files.push(PathBuf::from(a)),
        }
    }
    if files.is_empty() {
        eprintln!(
            "tms-verify merge-metrics: no input files — nothing to merge \
             (refusing to write an empty snapshot)"
        );
        return ExitCode::from(2);
    }
    let merged = match tms_verify::traces::merge_snapshot_files(&files) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("tms-verify merge-metrics: {e}");
            return ExitCode::from(2);
        }
    };
    let json = merged.to_json();
    match out {
        None => print!("{json}"),
        Some(path) => {
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            if let Err(e) = std::fs::write(&path, &json) {
                eprintln!(
                    "tms-verify merge-metrics: cannot write {}: {e}",
                    path.display()
                );
                return ExitCode::from(2);
            }
            println!("merged {} file(s) -> {}", files.len(), path.display());
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("merge-metrics") {
        return cmd_merge_metrics(&argv[1..]);
    }

    let mut args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tms-verify: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(seed) = args.faults_seed {
        args.sweep.faults = FaultPlan::seeded(seed);
        println!("fault campaign: seed 0x{seed:X} (deterministic injection)");
    }
    let tracing =
        args.trace_out.is_some() || args.metrics_out.is_some() || args.snapshot_out.is_some();
    if tracing {
        args.sweep.trace = Trace::enabled();
        if args.metrics_out.is_none() && args.snapshot_out.is_none() {
            args.metrics_out = Some(PathBuf::from("results/verify_metrics.json"));
        }
    }

    let started = Instant::now();
    let panics_before = tms_core::par::panics_caught();
    let outcome = run_sweep(&args.sweep);
    let report = &outcome.report;

    for (summary, timing) in report.families.iter().zip(&outcome.timings) {
        println!(
            "{:>10}: {} loops, {} checks, {} violations ({:.1}s)",
            summary.family, summary.loops, summary.checks, summary.violations, timing.seconds
        );
    }
    for note in &outcome.notes {
        println!("    {note}");
    }
    for x in &report.violations {
        eprintln!("  FAIL {} [{}] {}", x.loop_name, x.check, x.detail);
    }
    for d in &report.degraded {
        println!("  degraded {}: {}", d.loop_name, d.detail);
    }

    println!(
        "total: {} loops, {} checks, {} violations, {} degraded ({:.1}s, jobs={})",
        report.total_loops,
        report.total_checks,
        report.total_violations,
        report.total_degraded,
        started.elapsed().as_secs_f64(),
        args.sweep.jobs.workers()
    );
    if args.faults_seed.is_some() {
        let recovered = tms_core::par::panics_caught() - panics_before;
        let injected = args.sweep.faults.injected();
        let summary = if injected.is_empty() {
            "none fired".to_string()
        } else {
            injected
                .iter()
                .map(|(site, n)| format!("{site}={n}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        println!(
            "fault campaign: {} injection(s) [{summary}]; {recovered} worker panic(s) contained",
            args.sweep.faults.injected_total()
        );
    }
    if let Err(e) = report.write(&args.out) {
        eprintln!("tms-verify: cannot write {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    println!("wrote {}", args.out.display());
    if let Some(path) = &args.trace_out {
        if let Err(e) = args.sweep.trace.write_chrome(path) {
            eprintln!("tms-verify: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "wrote {} ({} span events; load in chrome://tracing or ui.perfetto.dev)",
            path.display(),
            args.sweep.trace.event_count()
        );
    }
    if let Some(path) = &args.metrics_out {
        if let Err(e) = args.sweep.trace.write_metrics(path) {
            eprintln!("tms-verify: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", path.display());
    }
    if let Some(path) = &args.snapshot_out {
        if let Err(e) = args.sweep.trace.write_snapshot(path) {
            eprintln!("tms-verify: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", path.display());
    }

    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
