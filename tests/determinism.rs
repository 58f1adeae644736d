//! Determinism of the TMS search and the parallel sweep.
//!
//! Golden digests pin every outcome of the default and the exhaustive
//! TMS searches over the kernel suite plus a seeded fuzzed population;
//! the warm-start cache must leave those outcomes unchanged; and the
//! per-loop fan-out inside the verification sweep is contracted to be
//! **bit-identical** to its serial counterpart at every worker count.

use tms_core::cost::CostModel;
use tms_core::par::Parallelism;
use tms_core::{schedule_tms, SchedError, TmsConfig, TmsResult};
use tms_ddg::{Ddg, InstId};
use tms_faults::stable_hash;
use tms_machine::{ArchParams, MachineModel};
use tms_verify::fuzz::fuzz_ddgs;
use tms_verify::sweep::{run_sweep, SweepConfig};
use tms_workloads::kernels;

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
