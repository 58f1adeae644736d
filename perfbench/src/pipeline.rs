//! `specfp-pipeline`: the paper's Fig. 4 path, one loop per op.
//!
//! An op takes one specfp loop through `schedule_sms`, `schedule_tms`
//! and `simulate_spmt` of both schedules at `ExperimentConfig::default()`
//! (4 cores, 400 iterations, caches on). The loops are Fig. 4's own
//! population: the 778 loops of Table 2 generated at
//! `ExperimentConfig::default().seed`, in an order drawn from `--seed`.
//! The timed phase runs whole passes over the population, so every run
//! does the same work whatever its seed or duration (see the notes in
//! `README.md` for why the population does not vary with the seed).

use crate::stats::{self, LayerTimes, Outcome, Span, SpanLog};
use crate::Args;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};
use tms_bench::runner::speedup_pct;
use tms_bench::ExperimentConfig;
use tms_core::diagnostics::{verify_schedule, VerifyLimits};
use tms_core::{schedule_sms, schedule_tms_traced, CostModel, Schedule, TmsConfig, TmsResult};
use tms_ddg::{Ddg, InstId};
use tms_machine::{CostConstants, MachineModel};
use tms_sim::{simulate_sequential, simulate_spmt_traced, SimConfig};
use tms_trace::Trace;
use tms_workloads::specfp_profiles;

/// Loops in a `--tiny` run's population.
const TINY_OPS: usize = 3;

/// Repetitions of the set-up whose median is `setup_s`.
const SETUPS: usize = 5;

/// splitmix64: the benchmark's own seeded stream, so op order depends
/// on nothing but `--seed`.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// One pass of the op sequence: Fig. 4's 778 loops in an order drawn
/// from `seed`.
pub fn specfp_ops(seed: u64) -> Vec<Ddg> {
    let mut ops: Vec<Ddg> = specfp_profiles()
        .iter()
        .flat_map(|p| p.generate(ExperimentConfig::default().seed))
        .collect();
    shuffle(&mut ops, seed);
    ops
}

/// Order-independent digest of a final memory image.
fn image_digest(image: &HashMap<u64, (InstId, u64)>) -> u64 {
    image
        .iter()
        .fold(image.len() as u64, |acc, (addr, (inst, iter))| {
            let mut h = DefaultHasher::new();
            (addr, inst.0, iter).hash(&mut h);
            acc.wrapping_add(h.finish())
        })
}

struct Ctx {
    machine: MachineModel,
    costs: CostConstants,
    model: CostModel,
    tms_cfg: TmsConfig,
    sim: SimConfig,
}

impl Ctx {
    fn new() -> Ctx {
        let cfg = ExperimentConfig::default();
        let arch = cfg.arch();
        Ctx {
            machine: cfg.machine(),
            costs: arch.costs,
            model: CostModel::new(arch.costs, arch.ncore),
            tms_cfg: TmsConfig::default(),
            sim: cfg.sim(),
        }
    }
}

/// What the checks need of a TMS result: the schedule and the
/// thresholds it was accepted under. Keeping the whole `TmsResult`,
/// reject log and all, would make memory grow with the op count.
struct Accepted {
    schedule: Schedule,
    ii: u32,
    ldp: i64,
    c_delay_threshold: u32,
    p_max: f64,
    fell_back_to_sms: bool,
}

impl From<TmsResult> for Accepted {
    fn from(r: TmsResult) -> Accepted {
        Accepted {
            schedule: r.schedule,
            ii: r.ii,
            ldp: r.ldp,
            c_delay_threshold: r.c_delay_threshold,
            p_max: r.p_max,
            fell_back_to_sms: r.fell_back_to_sms,
        }
    }
}

/// What one op produced, kept for the checks after the timed phase.
struct OpOut {
    sms: Schedule,
    tms: Accepted,
    sms_cycles: u64,
    tms_cycles: u64,
    sms_image: u64,
    tms_image: u64,
    squashes: u64,
}

/// Call into `layer`, with a span around the call when `traced`.
fn call<R>(spans: &mut Vec<Span>, traced: bool, layer: &'static str, f: impl FnOnce() -> R) -> R {
    if !traced {
        return f();
    }
    let (r, span) = Span::of(layer, f);
    spans.push(span);
    r
}

/// One op: the four layer calls, each timed into `spans` when `layers`
/// is enabled (the traced run), plus the op's own wall time.
fn run_op(
    ctx: &Ctx,
    ddg: &Ddg,
    layers: &Trace,
    spans: &mut Vec<Span>,
) -> Result<(OpOut, Span), String> {
    let traced = layers.is_enabled();
    let start = Instant::now();
    let sms = call(spans, traced, "core.sms", || {
        schedule_sms(ddg, &ctx.machine)
    })
    .map_err(|e| format!("{}: SMS: {e:?}", ddg.name()))?;
    let tms = call(spans, traced, "core.tms", || {
        schedule_tms_traced(ddg, &ctx.machine, &ctx.model, &ctx.tms_cfg, layers)
    })
    .map_err(|e| format!("{}: TMS: {e:?}", ddg.name()))?;
    let sim_sms = call(spans, traced, "sim", || {
        simulate_spmt_traced(ddg, &sms.schedule, &ctx.sim, layers)
    });
    let sim_tms = call(spans, traced, "sim", || {
        simulate_spmt_traced(ddg, &tms.schedule, &ctx.sim, layers)
    });
    let op = Span {
        layer: "op",
        start,
        dur: start.elapsed(),
    };
    let squashes = [&sim_sms, &sim_tms]
        .iter()
        .map(|o| o.stats.misspeculations + o.stats.cascade_squashes)
        .sum();
    let out = OpOut {
        sms: sms.schedule,
        tms: tms.into(),
        sms_cycles: sim_sms.stats.total_cycles,
        tms_cycles: sim_tms.stats.total_cycles,
        sms_image: image_digest(&sim_sms.memory_image),
        tms_image: image_digest(&sim_tms.memory_image),
        squashes,
    };
    Ok((out, op))
}

/// When a run over the op sequence stops.
#[derive(Clone, Copy)]
enum Stop {
    /// At the end of the first whole pass over the sequence that ends
    /// after `seconds`.
    After { seconds: f64 },
    /// After exactly this many ops (the traced run replays the
    /// untraced run's ops).
    Exactly(usize),
}

/// A finished pass over the op sequence.
#[derive(Default)]
struct Pass {
    outs: Vec<OpOut>,
    op_ms: Vec<f64>,
    wall: Duration,
    layers: LayerTimes,
    self_ms: Vec<f64>,
}

fn pass(
    ctx: &Ctx,
    ops: &[Ddg],
    stop: Stop,
    layers: &Trace,
    log: Option<&SpanLog>,
) -> Result<Pass, String> {
    let mut p = Pass::default();
    let start = Instant::now();
    loop {
        let i = p.outs.len();
        let done = match stop {
            Stop::Exactly(n) => i >= n,
            Stop::After { seconds } => {
                i > 0 && i % ops.len() == 0 && start.elapsed().as_secs_f64() >= seconds
            }
        };
        if done {
            break;
        }
        let mut spans = Vec::new();
        let (out, op) = run_op(ctx, &ops[i % ops.len()], layers, &mut spans)?;
        if let Some(log) = log {
            p.self_ms.push(stats::ms(log.op(i as u64, &op, &spans)));
            p.layers.add(&spans);
        }
        p.op_ms.push(stats::ms(op.dur));
        p.outs.push(out);
    }
    p.wall = start.elapsed();
    Ok(p)
}

/// The output checks, outside any timed region: the TMS schedule holds
/// every invariant at the thresholds it was accepted under, SMS is
/// legal, and both SpMT memory images equal the sequential one.
fn check(ctx: &Ctx, ops: &[Ddg], outs: &[OpOut], out: &mut Outcome) {
    let mut seq_digest: HashMap<usize, u64> = HashMap::new();
    for (i, o) in outs.iter().enumerate() {
        let ddg = &ops[i % ops.len()];
        let name = ddg.name();
        let tms = &o.tms;
        let min_stages = (tms.ldp as u32).div_ceil(tms.ii.max(1)).max(1);
        let limits = VerifyLimits {
            c_delay: Some(tms.c_delay_threshold),
            p_max: Some(tms.p_max),
            max_stages: (!tms.fell_back_to_sms)
                .then_some(min_stages + ctx.tms_cfg.max_extra_stages),
        };
        let bad_tms = verify_schedule(ddg, &tms.schedule, &ctx.machine, &ctx.costs, &limits);
        let bad_sms = verify_schedule(
            ddg,
            &o.sms,
            &ctx.machine,
            &ctx.costs,
            &VerifyLimits::default(),
        );
        let seq = *seq_digest.entry(i % ops.len()).or_insert_with(|| {
            image_digest(&simulate_sequential(ddg, &ctx.machine, &ctx.sim).memory_image)
        });
        if let Some(d) = bad_tms.first().or(bad_sms.first()) {
            out.fail(format!("op {i} ({name}): {d}"));
        } else if o.sms_image != seq || o.tms_image != seq {
            out.fail(format!(
                "op {i} ({name}): SpMT memory image differs from sequential"
            ));
        }
    }
}

/// Cycle-weighted TMS-over-SMS speedup over `outs`.
fn sim_speedup(outs: &[OpOut]) -> f64 {
    let (sms, tms) = outs
        .iter()
        .fold((0, 0), |(s, t), o| (s + o.sms_cycles, t + o.tms_cycles));
    speedup_pct(sms, tms)
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let ctx = Ctx::new();
    let mut setup_s = Vec::new();
    let mut ops = Vec::new();
    for i in 0..if args.tiny { 2 } else { SETUPS } {
        let t0 = if i == 0 { args.started } else { Instant::now() };
        ops = specfp_ops(args.seed);
        if args.tiny {
            ops.truncate(TINY_OPS);
        }
        setup_s.push(t0.elapsed().as_secs_f64());
    }

    let stop = Stop::After {
        seconds: args.seconds as f64,
    };
    let plain = pass(&ctx, &ops, stop, &Trace::disabled(), None)?;
    let n = plain.outs.len();
    let mut out = Outcome {
        attempted: n,
        ..Outcome::default()
    };
    check(&ctx, &ops, &plain.outs, &mut out);
    out.notes.push(format!(
        "specfp-pipeline: {n} ops ({} passes over {} loops) in {:.2} s; \
         op_ms percentiles over {n} samples",
        n / ops.len(),
        ops.len(),
        plain.wall.as_secs_f64(),
    ));
    if !args.trace {
        out.set("setup_s", stats::median(&setup_s));
        out.set("ops_per_s", n as f64 / plain.wall.as_secs_f64());
        out.set("op_ms_p50", stats::percentile(&plain.op_ms, 50.0));
        out.set("op_ms_p90", stats::percentile(&plain.op_ms, 90.0));
        out.set("peak_rss_mb", stats::peak_rss_mb()?);
        out.set("sim_speedup_pct", sim_speedup(&plain.outs[..ops.len()]));
        return Ok(out);
    }

    // The traced run: the same ops again, every layer call in a span,
    // the layers' own counters and timers on.
    let layers = Trace::enabled();
    let log = SpanLog::new();
    let traced = pass(&ctx, &ops, Stop::Exactly(n), &layers, Some(&log))?;
    check(&ctx, &ops, &traced.outs, &mut out);
    for (i, (a, b)) in plain.outs.iter().zip(&traced.outs).enumerate() {
        let same = serde_json::to_string(&a.tms.schedule).ok()
            == serde_json::to_string(&b.tms.schedule).ok();
        if !same || a.tms_cycles != b.tms_cycles {
            out.fail(format!(
                "op {i}: the traced run scheduled or simulated differently"
            ));
        }
    }
    log.write(&crate::trace_path("specfp-pipeline", args.seed))?;

    // Busy times and counts are per pass over the population: runs
    // differ in how many whole passes fit in `--seconds`, and every
    // pass does the same work.
    let passes = (n / ops.len()) as f64;
    let counter = |name: &str| layers.counter(name) as f64 / passes;
    let timer_ns = |name: &str| layers.timer_stats(name).map_or(0.0, |h| h.sum as f64);
    let phases_ns: f64 = layers
        .timers_with_prefix("tms.phase")
        .iter()
        .map(|(_, h)| h.sum as f64)
        .sum();
    let attempts = counter("tms.attempts");
    let replayed = counter("tms.reuse.steps-replayed");
    let executed = counter("tms.reuse.steps-executed");
    // The simulator exports its cycles split three ways; they must sum
    // to the cycles its runs reported.
    let sim_cycles: u64 = ["sim.cycles.commit", "sim.cycles.exec", "sim.cycles.wait"]
        .iter()
        .map(|k| layers.counter(k))
        .sum();
    let reported: u64 = traced
        .outs
        .iter()
        .map(|o| o.sms_cycles + o.tms_cycles)
        .sum();
    if sim_cycles != reported {
        out.fail(format!(
            "sim.cycles.* counters sum to {sim_cycles}, the runs reported {reported} cycles"
        ));
    }
    let t = &traced.layers;
    let busy = |layer: &str| t.busy_s(layer) / passes;
    out.set("core.tms.busy_s", busy("core.tms"));
    out.set("core.tms.loop_ms_p50", stats::median(t.samples("core.tms")));
    out.set("core.tms.attempts", attempts);
    out.set(
        "core.tms.rejected_share",
        stats::ratio(counter("tms.rejected"), attempts),
    );
    out.set(
        "core.tms.pruned",
        counter("tms.pruned.cost-bound") + counter("tms.pruned.p-max-dup"),
    );
    out.set(
        "core.tms.reuse_ratio",
        stats::ratio(replayed, replayed + executed),
    );
    out.set(
        "core.tms.place_share",
        stats::ratio(timer_ns("tms.phase.place"), phases_ns),
    );
    out.set("core.sms.busy_s", busy("core.sms"));
    out.set(
        "core.verify.busy_s",
        timer_ns("tms.phase.verify") / 1e9 / passes,
    );
    out.set("sim.busy_s", busy("sim"));
    out.set(
        "sim.mcycles_per_s",
        stats::ratio(sim_cycles as f64 / 1e6, t.busy_s("sim")),
    );
    out.set("sim.cycles", sim_cycles as f64 / passes);
    out.set(
        "sim.squashes",
        traced.outs.iter().map(|o| o.squashes).sum::<u64>() as f64 / passes,
    );
    out.set("bench.self_ms_p50", stats::median(&traced.self_ms));
    out.set(
        "trace.overhead_pct",
        (traced.wall.as_secs_f64() / plain.wall.as_secs_f64() - 1.0) * 100.0,
    );
    let op_s: f64 = traced.op_ms.iter().sum::<f64>() / 1e3;
    out.notes.push(format!(
        "accounting over {n} traced ops ({passes} passes): op {op_s:.3} s = core.sms {:.3} \
         + core.tms {:.3} + sim {:.3} + bench self {:.3} (core.verify {:.3} s runs inside core.tms)",
        t.busy_s("core.sms"),
        t.busy_s("core.tms"),
        t.busy_s("sim"),
        traced.self_ms.iter().sum::<f64>() / 1e3,
        timer_ns("tms.phase.verify") / 1e9,
    ));
    Ok(out)
}
