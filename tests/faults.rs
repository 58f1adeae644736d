//! Integration tests for the fault-injection campaign: seeded failure
//! plans must never change *what* the pipeline computes — only how hard
//! it has to work to compute it.
//!
//! Property-style: each test sweeps a set of seeds/shapes rather than a
//! single hand-picked case, all deterministically derived so a failure
//! reproduces from the assertion message alone.

use tms_core::par::Parallelism;
use tms_faults::{FaultPlan, FaultRates, SITE_PAR_PANIC, SITE_SCHED_BUDGET};
use tms_trace::Trace;
use tms_verify::sweep::{run_sweep, SweepConfig};

fn tiny_sweep() -> SweepConfig {
    SweepConfig {
        fuzz: 4,
        specfp_cap: 1,
        no_sim: true,
        quick: true,
        jobs: Parallelism::Serial,
        ..Default::default()
    }
}

/// Hot enough rates that a tiny sweep provably exercises the scheduler
/// starvation and worker-panic sites.
fn hot_rates() -> FaultRates {
    FaultRates {
        sched_budget_per_1024: 1024,
        sched_budget_attempts: 1,
        worker_panic_per_1024: 256,
        ..FaultRates::default()
    }
}

/// The tentpole invariant: a seeded campaign produces a byte-identical
/// `verify.json` and byte-identical merged metrics at `--jobs 1/2/4`,
/// even while workers are being panicked and searches starved.
#[test]
fn campaign_report_and_metrics_are_identical_at_jobs_1_2_4() {
    let run = |jobs| {
        // A fresh plan per run: the *seed* carries the injection
        // schedule (pure hashes), the latches are per-instance state.
        let trace = Trace::enabled();
        let out = run_sweep(&SweepConfig {
            faults: FaultPlan::with_rates(0xC0FFEE, hot_rates()),
            trace: trace.clone(),
            jobs,
            ..tiny_sweep()
        });
        (out.report.to_json(), trace.metrics())
    };
    let (r1, m1) = run(Parallelism::Jobs(1));
    let (r2, m2) = run(Parallelism::Jobs(2));
    let (r4, m4) = run(Parallelism::Jobs(4));
    assert_eq!(r1, r2, "report diverged between --jobs 1 and 2");
    assert_eq!(r1, r4, "report diverged between --jobs 1 and 4");
    assert_eq!(m1, m2, "metrics diverged between --jobs 1 and 2");
    assert_eq!(m1, m4, "metrics diverged between --jobs 1 and 4");
}

/// Scheduler-budget starvation composes with the warm attempt cache: a
/// search starved down to a handful of attempts degrades to the *same*
/// SMS schedule, with the same budget-cut accounting, whether its
/// attempts replayed a decision log or ran cold — the degradation
/// ladder cannot tell the difference.
#[test]
fn starved_search_degrades_to_sms_identically_warm_and_cold() {
    use tms_core::cost::CostModel;
    use tms_core::{schedule_tms, TmsConfig};
    use tms_machine::{ArchParams, MachineModel};

    let machine = MachineModel::icpp2008();
    let arch = ArchParams::icpp2008();
    let model = CostModel::new(arch.costs, arch.ncore);
    let mut degraded_somewhere = false;
    for ddg in tms_workloads::kernels::all_kernels() {
        for budget in [1usize, 2, 3] {
            let run = |warm_start: bool| {
                let cfg = TmsConfig {
                    warm_start,
                    attempt_budget: Some(budget),
                    ..TmsConfig::default()
                };
                schedule_tms(&ddg, &machine, &model, &cfg).ok().map(|r| {
                    let times: Vec<i64> = (0..ddg.num_insts())
                        .map(|i| r.schedule.time(tms_ddg::InstId(i as u32)))
                        .collect();
                    (
                        times,
                        r.fell_back_to_sms,
                        r.budget_cut,
                        r.degraded.is_some(),
                        r.attempts,
                    )
                })
            };
            let (warm, cold) = (run(true), run(false));
            assert_eq!(
                warm,
                cold,
                "{}: budget={budget} starved warm/cold runs diverged",
                ddg.name()
            );
            degraded_somewhere |= warm.as_ref().is_some_and(|r| r.3);
        }
    }
    assert!(
        degraded_somewhere,
        "starvation never degraded a kernel — the budgets are not binding"
    );
}

/// A panicking worker must never lose or duplicate a loop: the faulted
/// sweep checks exactly the loops the clean sweep checks, fails
/// nothing, and records its degradations instead.
#[test]
fn worker_panics_lose_no_loops_across_seeds() {
    let clean = run_sweep(&tiny_sweep());
    for seed in [1u64, 0xC0FFEE, 0xDEAD_BEEF] {
        let plan = FaultPlan::with_rates(seed, hot_rates());
        let faulted = run_sweep(&SweepConfig {
            faults: plan.clone(),
            jobs: Parallelism::Jobs(3),
            ..tiny_sweep()
        });
        let injected = plan.injected();
        assert!(
            *injected.get(SITE_PAR_PANIC).unwrap_or(&0) > 0,
            "seed {seed:#x}: panic site never fired ({injected:?})"
        );
        assert!(*injected.get(SITE_SCHED_BUDGET).unwrap_or(&0) > 0);
        assert_eq!(
            faulted.report.total_violations, 0,
            "seed {seed:#x}: {:?}",
            faulted.report.violations
        );
        assert!(faulted.report.total_degraded > 0, "seed {seed:#x}");
        // Same families, same loop populations, same check counts —
        // every panicked chunk was re-executed exactly once.
        assert_eq!(faulted.report.total_loops, clean.report.total_loops);
        for (f, c) in faulted.report.families.iter().zip(&clean.report.families) {
            assert_eq!((f.family.as_str(), f.loops), (c.family.as_str(), c.loops));
            assert_eq!(f.checks, c.checks, "{}: check count drifted", f.family);
        }
    }
}

/// Replaying the same seed reproduces the exact injection schedule —
/// site-by-site counts included.
#[test]
fn injection_counts_replay_exactly() {
    let run = |seed| {
        let plan = FaultPlan::with_rates(seed, hot_rates());
        run_sweep(&SweepConfig {
            faults: plan.clone(),
            ..tiny_sweep()
        });
        plan.injected()
    };
    for seed in [7u64, 0xC0FFEE] {
        assert_eq!(run(seed), run(seed), "seed {seed:#x} not reproducible");
    }
    assert_ne!(
        run(7),
        run(8),
        "distinct seeds should differ at these rates"
    );
}
