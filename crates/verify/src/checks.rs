//! The differential checks run on every loop.
//!
//! One [`check_loop`] call drives the whole stack over a single DDG:
//!
//! * **SMS** — the baseline schedule must be legal and resource
//!   feasible ([`verify_schedule`] with no thresholds);
//! * **TMS** at every configured `(ncore, P_max)` point — the accepted
//!   schedule must satisfy every invariant *under its own thresholds*
//!   (achieved `C_delay ≤` threshold, misspeculation `≤ P_max`, stage
//!   cap), its stored cost key must be consistent, and it must never
//!   cost more than the SMS baseline under the same eq. 2 model;
//! * **`C_delay` floor** — neither schedule's achieved `C_delay` may sit
//!   below `C_reg_com` plus the register-circuit floor
//!   ([`sync_excess_floor`]) that the TMS search short-circuits on;
//! * **SpMT execution** — the parallel simulation of both schedules
//!   must commit exactly the sequential memory image, with violation
//!   detection on (squash/replay correctness, including forced
//!   misspeculation and cascade squashes).

use serde::Serialize;
use tms_core::diagnostics::{verify_schedule, VerifyLimits};
use tms_core::metrics::achieved_c_delay;
use tms_core::{schedule_sms, schedule_tms_traced, CostModel, TmsConfig};
use tms_ddg::mii::sync_excess_floor;
use tms_ddg::Ddg;
use tms_faults::FaultPlan;
use tms_machine::{ArchParams, MachineModel};
use tms_sim::{simulate_sequential, simulate_spmt_injected, SimConfig};
use tms_trace::Trace;

/// One failed check on one loop.
#[derive(Debug, Clone, Serialize)]
pub struct Violation {
    /// Loop the check ran on.
    pub loop_name: String,
    /// Stable tag of the check that failed.
    pub check: String,
    /// Human-readable specifics.
    pub detail: String,
}

/// Which `(ncore, P_max)` points to probe and how much to simulate.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Core counts to run TMS under (each gets its own cost model).
    pub ncores: Vec<u32>,
    /// `P_max` values to try at each core count.
    pub p_max_values: Vec<f64>,
    /// Run the SpMT-vs-sequential differential execution.
    pub simulate: bool,
    /// Original loop iterations per simulation.
    pub sim_iters: u64,
    /// Fault-injection plan ([`FaultPlan::disabled`] by default).
    /// Selected loops get a starved TMS attempt budget (exercising the
    /// SMS degradation path) and their simulations run under forced
    /// misspeculation and stall jitter. Every differential invariant
    /// must still hold — injection perturbs timing and search effort,
    /// never correctness.
    pub faults: FaultPlan,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            ncores: vec![2, 4, 8],
            p_max_values: vec![0.05, 0.20],
            simulate: true,
            sim_iters: 24,
            faults: FaultPlan::disabled(),
        }
    }
}

impl CheckConfig {
    /// A cheaper grid for large populations (one core count, two
    /// `P_max` points, shorter simulations).
    pub fn quick() -> Self {
        CheckConfig {
            ncores: vec![4],
            p_max_values: vec![0.05, 0.20],
            simulate: true,
            sim_iters: 12,
            faults: FaultPlan::disabled(),
        }
    }
}

/// Outcome of all checks on one loop.
#[derive(Debug, Clone, Default)]
pub struct LoopVerdict {
    /// Loop name.
    pub name: String,
    /// Checks executed.
    pub checks: usize,
    /// Checks failed.
    pub violations: Vec<Violation>,
    /// Graceful degradations taken while checking this loop (one entry
    /// per `(point, diagnostic)` — e.g. a TMS search that exhausted an
    /// injected budget and fell back to SMS). Degradation is *not* a
    /// violation: the fallback result passed every check, but the
    /// report records that the primary path was not the one taken.
    pub degraded: Vec<String>,
}

impl LoopVerdict {
    fn fail(&mut self, check: &str, detail: String) {
        self.violations.push(Violation {
            loop_name: self.name.clone(),
            check: check.to_string(),
            detail,
        });
    }
}

/// Count of addresses whose final `(store, iteration)` differ between
/// two memory images (in either direction).
fn image_diff(
    a: &std::collections::HashMap<u64, (tms_ddg::InstId, u64)>,
    b: &std::collections::HashMap<u64, (tms_ddg::InstId, u64)>,
) -> usize {
    let mut n = a.iter().filter(|(k, v)| b.get(*k) != Some(*v)).count();
    n += b.keys().filter(|k| !a.contains_key(*k)).count();
    n
}

/// Run every configured check on one loop.
pub fn check_loop(ddg: &Ddg, cfg: &CheckConfig) -> LoopVerdict {
    check_loop_traced(ddg, cfg, &Trace::disabled())
}

/// [`check_loop`] with instrumentation: a span per loop, plus whatever
/// the traced scheduler and simulator record underneath. The verdict is
/// identical whether `trace` is enabled or not, and the counters it
/// feeds are sums over a fixed per-loop workload — deterministic at any
/// sweep worker count.
pub fn check_loop_traced(ddg: &Ddg, cfg: &CheckConfig, trace: &Trace) -> LoopVerdict {
    let mut span = trace.span("verify", ddg.name());
    let v = check_loop_impl(ddg, cfg, trace);
    span.arg("checks", v.checks);
    span.arg("violations", v.violations.len());
    trace.count("verify.loops", 1);
    trace.count("verify.checks", v.checks as u64);
    trace.count("verify.violations", v.violations.len() as u64);
    trace.count("verify.degraded", v.degraded.len() as u64);
    v
}

fn check_loop_impl(ddg: &Ddg, cfg: &CheckConfig, trace: &Trace) -> LoopVerdict {
    let mut v = LoopVerdict {
        name: ddg.name().to_string(),
        ..Default::default()
    };
    let machine = MachineModel::icpp2008();
    let costs = ArchParams::icpp2008().costs;

    // --- SMS baseline: must schedule, legally.
    v.checks += 1;
    let sms = match schedule_sms(ddg, &machine) {
        Ok(r) => r,
        Err(e) => {
            v.fail("sms-schedule", format!("{e:?}"));
            return v;
        }
    };
    for d in verify_schedule(
        ddg,
        &sms.schedule,
        &machine,
        &costs,
        &VerifyLimits::default(),
    ) {
        v.fail("sms-invariant", d.to_string());
    }
    let sms_cd = achieved_c_delay(ddg, &sms.schedule, &costs);
    // Every legal kernel reaches the register-circuit floor, so an
    // achieved C_delay below it means the proof behind the search's
    // short-circuit, or the schedule, is wrong.
    let floor = sync_excess_floor(ddg).map(|f| f + costs.c_reg_com);
    let check_floor = |v: &mut LoopVerdict, tag: &str, achieved: u32| {
        if let Some(floor) = floor.filter(|&f| achieved < f) {
            v.fail(
                "c-delay-floor",
                format!("{tag}: achieved C_delay {achieved} < floor {floor}"),
            );
        }
    };
    check_floor(&mut v, "sms", sms_cd);

    // --- TMS across the (ncore, P_max) grid.
    let mut tms_default = None;
    for &ncore in &cfg.ncores {
        let model = CostModel::new(costs, ncore);
        let sms_key = model.cost_key(sms.schedule.ii(), sms_cd);
        for &p_max in &cfg.p_max_values {
            v.checks += 1;
            let config = TmsConfig {
                p_max_values: vec![p_max],
                // Injection: a selected loop's search is starved down
                // to a handful of attempts; exhausting them must
                // degrade to SMS, never error.
                attempt_budget: cfg.faults.sched_budget(ddg.name()),
                ..TmsConfig::default()
            };
            let point = format!("ncore={ncore} P_max={p_max}");
            let tms = match schedule_tms_traced(ddg, &machine, &model, &config, trace) {
                Ok(r) => r,
                Err(e) => {
                    v.fail("tms-schedule", format!("{point}: {e:?}"));
                    continue;
                }
            };
            if let Some(d) = &tms.degraded {
                v.degraded.push(format!("{point}: {d}"));
            }
            // The accepted schedule must hold every invariant under the
            // thresholds it was accepted with. An SMS fallback carries
            // its achieved delay as threshold and P_max = 1; the stage
            // cap only binds thread-sensitive candidates.
            let min_stages = (tms.ldp as u32).div_ceil(tms.ii.max(1)).max(1);
            let limits = VerifyLimits {
                c_delay: Some(tms.c_delay_threshold),
                p_max: Some(tms.p_max),
                max_stages: (!tms.fell_back_to_sms).then_some(min_stages + config.max_extra_stages),
            };
            for d in verify_schedule(ddg, &tms.schedule, &machine, &costs, &limits) {
                v.fail("tms-invariant", format!("{point}: {d}"));
            }
            let achieved = achieved_c_delay(ddg, &tms.schedule, &costs);
            check_floor(&mut v, &point, achieved);
            if achieved > tms.c_delay_threshold {
                v.fail(
                    "tms-threshold",
                    format!(
                        "{point}: achieved C_delay {achieved} > threshold {}",
                        tms.c_delay_threshold
                    ),
                );
            }
            if tms.cost_key != model.cost_key(tms.ii, achieved) {
                v.fail(
                    "tms-cost-key",
                    format!(
                        "{point}: stored key {:?} != recomputed {:?}",
                        tms.cost_key,
                        model.cost_key(tms.ii, achieved)
                    ),
                );
            }
            if tms.cost_key > sms_key {
                v.fail(
                    "tms-vs-sms",
                    format!(
                        "{point}: TMS key {:?} > SMS key {:?}",
                        tms.cost_key, sms_key
                    ),
                );
            }
            if ncore == 4 && tms_default.is_none() {
                tms_default = Some(tms);
            }
        }
    }

    // --- Differential execution: SpMT must commit the sequential
    // memory image, squashes and all.
    if cfg.simulate {
        let sim = SimConfig::icpp2008(cfg.sim_iters);
        let seq = simulate_sequential(ddg, &machine, &sim);
        let mut run = |tag: &str, schedule, config: &SimConfig| {
            v.checks += 1;
            let out = simulate_spmt_injected(ddg, schedule, config, trace, &cfg.faults);
            let diff = image_diff(&out.memory_image, &seq.memory_image);
            if diff > 0 {
                v.fail(
                    "sim-memory-image",
                    format!(
                        "{tag}: {diff} address(es) differ from sequential \
                         ({} misspeculations, {} cascades)",
                        out.stats.misspeculations, out.stats.cascade_squashes
                    ),
                );
            }
            // Squash accounting must be consistent under the *total*
            // squash frequency (detected violations + cascades — the
            // paper's eq. 3 notion of squash work): squash events and
            // squash cycle charges imply each other exactly, and
            // cascades can only add to the detected-violation rate.
            v.checks += 1;
            let events = out.stats.misspeculations + out.stats.cascade_squashes;
            let charged = out.stats.squashed_cycles + out.stats.invalidation_cycles;
            if (events > 0) != (charged > 0) {
                v.fail(
                    "sim-squash-accounting",
                    format!("{tag}: {events} squash event(s) vs {charged} charged cycle(s)"),
                );
            }
            if out.stats.total_squash_frequency() < out.stats.misspec_frequency() {
                v.fail(
                    "sim-squash-accounting",
                    format!(
                        "{tag}: total squash frequency {} below misspec frequency {}",
                        out.stats.total_squash_frequency(),
                        out.stats.misspec_frequency()
                    ),
                );
            }
        };
        run("sms@4", &sms.schedule, &sim);
        if let Some(tms) = &tms_default {
            run("tms@4", &tms.schedule, &sim);
            let two = SimConfig::with_ncore(cfg.sim_iters, 2);
            run("tms@2", &tms.schedule, &two);
        }
    }

    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use tms_workloads::kernels;

    #[test]
    fn clean_kernel_passes_every_check() {
        let v = check_loop(&kernels::daxpy(), &CheckConfig::default());
        assert!(v.violations.is_empty(), "{:?}", v.violations);
        assert!(v.checks >= 8, "ran only {} checks", v.checks);
    }

    #[test]
    fn injected_faults_never_break_the_contract() {
        // Starve every TMS search and force misspec/jitter in every
        // simulation: the checks must all still pass, with the
        // degradations recorded rather than failed.
        let rates = tms_faults::FaultRates {
            sched_budget_per_1024: 1024,
            sched_budget_attempts: 1,
            misspec_per_1024: 256,
            jitter_per_1024: 256,
            ..tms_faults::FaultRates::default()
        };
        let cfg = CheckConfig {
            faults: FaultPlan::with_rates(3, rates),
            ..CheckConfig::default()
        };
        let v = check_loop(&kernels::daxpy(), &cfg);
        assert!(v.violations.is_empty(), "{:?}", v.violations);
        assert!(!v.degraded.is_empty(), "budget starvation must degrade");
    }

    #[test]
    fn forced_misspeculation_still_commits_sequential_image() {
        // p = 1.0: every speculated iteration violates; the engine must
        // squash/replay its way to the exact sequential memory image.
        let v = check_loop(
            &kernels::maybe_aliasing_update(1.0),
            &CheckConfig::default(),
        );
        let sim_fails: Vec<_> = v
            .violations
            .iter()
            .filter(|x| x.check == "sim-memory-image")
            .collect();
        assert!(sim_fails.is_empty(), "{sim_fails:?}");
    }
}
