//! Determinism of the TMS search and the parallel sweep.
//!
//! Golden digests pin every outcome of the default and the exhaustive
//! TMS searches over the kernel suite plus a seeded fuzzed population;
//! exact work counts pin what those searches and their simulations
//! cost; the warm-start cache must leave those outcomes unchanged; and
//! the per-loop fan-out inside the verification sweep is contracted to
//! be **bit-identical** to its serial counterpart at every worker count.

use tms_bench::ExperimentConfig;
use tms_core::cost::CostModel;
use tms_core::par::Parallelism;
use tms_core::{schedule_sms, schedule_tms, schedule_tms_traced, SchedError, TmsConfig, TmsResult};
use tms_ddg::{Ddg, InstId};
use tms_faults::stable_hash;
use tms_machine::{ArchParams, MachineModel};
use tms_sim::simulate_spmt_traced;
use tms_trace::Trace;
use tms_verify::fuzz::fuzz_ddgs;
use tms_verify::sweep::{run_sweep, SweepConfig};
use tms_workloads::{doacross_suite, kernels, livermore_suite, specfp_profiles};

fn population() -> Vec<Ddg> {
    let mut pop = kernels::all_kernels();
    pop.push(kernels::maybe_aliasing_update(1.0));
    pop.extend(fuzz_ddgs(50, 0xD0_2008));
    pop
}

/// Everything one search decided, as one stable line: the resolution
/// (or error), the schedule times, the search accounting, and each
/// retained reject with its diagnostic kinds.
fn outcome_line(ddg: &Ddg, r: &Result<TmsResult, SchedError>) -> String {
    let r = match r {
        Ok(r) => r,
        Err(e) => return format!("{}: err {e}", ddg.name()),
    };
    let times: Vec<i64> = (0..ddg.num_insts())
        .map(|i| r.schedule.time(InstId(i as u32)))
        .collect();
    let rejects: Vec<String> = r
        .rejects
        .iter()
        .map(|c| {
            let kinds: Vec<&str> = c.diagnostics.iter().map(|d| d.kind()).collect();
            format!(
                "({},{},{:016x},[{}])",
                c.ii,
                c.c_delay,
                c.p_max.to_bits(),
                kinds.join(",")
            )
        })
        .collect();
    format!(
        "{}: ii={} cd={} p={:016x} key={} sms={} mii={} ldp={} times={:?} \
         attempts={} pruned={} rejected={} lost={} budget_cut={} rejects={}",
        ddg.name(),
        r.ii,
        r.c_delay_threshold,
        r.p_max.to_bits(),
        r.cost_key.0,
        r.fell_back_to_sms,
        r.mii,
        r.ldp,
        times,
        r.attempts,
        r.pruned,
        r.rejected_candidates,
        r.lost_to_baseline,
        r.budget_cut,
        rejects.join(";")
    )
}

/// `stable_hash` over the outcome lines of one configuration's search
/// across the whole population, as 16 hex digits.
fn search_digest(cfg: &TmsConfig) -> String {
    let machine = MachineModel::icpp2008();
    let arch = ArchParams::icpp2008();
    let model = CostModel::new(arch.costs, arch.ncore);
    let lines: Vec<String> = population()
        .iter()
        .map(|ddg| outcome_line(ddg, &schedule_tms(ddg, &machine, &model, cfg)))
        .collect();
    let parts: Vec<&str> = lines.iter().map(String::as_str).collect();
    format!("{:016x}", stable_hash(0x7D15_2008, &parts))
}

/// Golden digest of the default (pruned, warm-started) search. The
/// warm≡cold and pruned≡exhaustive contracts compare two runs of the
/// same engine, so a mistake both sides share passes them; this pin
/// does not. A legitimate change to search outcomes must re-pin it and
/// say why.
#[test]
fn default_search_outcomes_match_golden_digest() {
    assert_eq!(search_digest(&TmsConfig::default()), "7dc202599604c432");
}

/// Golden digest of the exhaustive (`prune: false`) search.
#[test]
fn exhaustive_search_outcomes_match_golden_digest() {
    let cfg = TmsConfig {
        prune: false,
        ..TmsConfig::default()
    };
    assert_eq!(search_digest(&cfg), "354494ef6818e7a6");
}

/// The work counts the gate pins, in [`WORK_PINS`] column order. The
/// last, `squashes`, is misspeculations plus cascade squashes; the
/// rest are trace counters.
const WORK_COUNTS: [&str; 11] = [
    "tms.attempts",
    "tms.rejected",
    "tms.pruned.cost-bound",
    "tms.pruned.p-max-dup",
    "tms.reuse.warm-attempts",
    "tms.reuse.steps-replayed",
    "tms.reuse.steps-executed",
    "sim.cycles.commit",
    "sim.cycles.exec",
    "sim.cycles.wait",
    "squashes",
];

/// Exact work per family, one row of [`WORK_COUNTS`] each. A change
/// that moves a count re-pins it and says why.
#[rustfmt::skip]
const WORK_PINS: [(&str, [u64; 11]); 5] = [
    ("kernels", [247, 5, 39, 90, 205, 780, 1712, 1830, 9387, 3289, 504]),
    ("fuzz", [4573, 367, 0, 620, 4047, 133085, 78097, 10466, 51120, 1133, 296]),
    ("livermore", [292, 149, 39, 414, 222, 502, 6024, 2104, 9171, 1638, 252]),
    ("doacross", [1657, 411, 0, 0, 1590, 413636, 300133, 1858, 19737, 0, 8]),
    ("specfp", [7422, 1286, 0, 454, 7040, 1355933, 724442, 6838, 50162, 36, 14]),
];

/// The gate's five families: the kernels, the fuzzed population, the
/// Livermore loops, the DOACROSS suite and the first two loops of each
/// SPECfp benchmark, the last two at Fig. 4's seed.
fn work_families() -> [(&'static str, Vec<Ddg>); 5] {
    let seed = ExperimentConfig::default().seed;
    let mut kernels = kernels::all_kernels();
    kernels.push(kernels::maybe_aliasing_update(1.0));
    let specfp = specfp_profiles()
        .iter()
        .flat_map(|p| p.generate(seed).into_iter().take(2))
        .collect();
    [
        ("kernels", kernels),
        ("fuzz", fuzz_ddgs(40, 0xB4B_2008)),
        ("livermore", livermore_suite()),
        (
            "doacross",
            doacross_suite(seed).into_iter().map(|l| l.ddg).collect(),
        ),
        ("specfp", specfp),
    ]
}

/// The work gate: the default search over each family, into its own
/// trace, then both schedules of every loop simulated at the quick
/// settings. Search attempts, pruning, same-II replay, simulated cycles
/// and squashes are deterministic, so every count is pinned exactly.
/// Wall time is perfbench's job; this pins what the time is spent on.
#[test]
fn work_counts_match_pins_on_every_family() {
    let exp = ExperimentConfig::quick();
    let (machine, arch, sim) = (exp.machine(), exp.arch(), exp.sim());
    let model = CostModel::new(arch.costs, arch.ncore);
    let mut report = String::new();
    let mut drifted = false;
    for ((family, loops), (pinned_family, want)) in work_families().into_iter().zip(WORK_PINS) {
        assert_eq!(family, pinned_family);
        let trace = Trace::enabled();
        let mut squashes = 0;
        for ddg in &loops {
            let Ok(tms) = schedule_tms_traced(ddg, &machine, &model, &TmsConfig::default(), &trace)
            else {
                continue;
            };
            let sms = schedule_sms(ddg, &machine).expect("TMS scheduled it, so SMS does");
            for schedule in [&sms.schedule, &tms.schedule] {
                let stats = simulate_spmt_traced(ddg, schedule, &sim, &trace).stats;
                squashes += stats.misspeculations + stats.cascade_squashes;
            }
        }
        for phase in ["order", "ldp", "place", "verify"] {
            let fired = trace.timer_stats(&format!("tms.phase.{phase}"));
            assert!(
                fired.is_some_and(|h| h.count > 0),
                "{family}: the tms.phase.{phase} timer never fired"
            );
        }
        for (name, want) in WORK_COUNTS.into_iter().zip(want) {
            let got = match name {
                "squashes" => squashes,
                _ => trace.counter(name),
            };
            drifted |= got != want;
            let mark = if got == want { "" } else { "  <- drifted" };
            report.push_str(&format!("{family} {name}: got {got} want {want}{mark}\n"));
        }
    }
    assert!(!drifted, "work counts drifted from their pins:\n{report}");
}

/// The warm-start attempt cache (on by default) must leave every
/// outcome unchanged: same schedules, same accounting, same rejects,
/// with and without the cache.
#[test]
fn warm_cache_leaves_fingerprints_unchanged() {
    let machine = MachineModel::icpp2008();
    let arch = ArchParams::icpp2008();
    let model = CostModel::new(arch.costs, arch.ncore);
    for ddg in &population() {
        let [warm, cold] = [true, false].map(|warm_start| {
            let cfg = TmsConfig {
                warm_start,
                ..TmsConfig::default()
            };
            outcome_line(ddg, &schedule_tms(ddg, &machine, &model, &cfg))
        });
        assert_eq!(warm, cold, "{}: warm cache changed the outcome", ddg.name());
    }
}

#[test]
fn verify_sweep_report_is_identical_at_one_and_four_workers() {
    let cfg = SweepConfig {
        fuzz: 12,
        specfp_cap: 2,
        no_sim: true,
        quick: true,
        jobs: Parallelism::Serial,
        ..Default::default()
    };
    let serial = run_sweep(&cfg).report.to_json();
    let par = run_sweep(&SweepConfig {
        jobs: Parallelism::Jobs(4),
        ..cfg
    })
    .report
    .to_json();
    assert_eq!(serial, par, "verify report diverged between worker counts");
}
