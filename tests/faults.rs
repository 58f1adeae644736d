//! Integration tests for the fault-injection campaign: seeded failure
//! plans must never change *what* the pipeline computes — only how hard
//! it has to work to compute it.
//!
//! Property-style: each test sweeps a set of seeds/shapes rather than a
//! single hand-picked case, all deterministically derived so a failure
//! reproduces from the assertion message alone.

use std::path::Path;
use tms_core::par::Parallelism;
use tms_faults::{FaultPlan, FaultRates, SITE_PAR_PANIC, SITE_SCHED_BUDGET};
use tms_trace::Trace;
use tms_verify::sweep::{run_sweep, SweepConfig};
use tms_verify::traces::{events_from_spills_lossy, parse_spill};

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

/// A spill file torn by an injected short write recovers its full valid
/// prefix through the lossy merge path, and the sink keeps every event
/// resident after degrading.
#[test]
fn torn_spill_recovers_valid_prefix_through_merge() {
    let dir = std::env::temp_dir().join("tms_faults_integration");
    std::fs::create_dir_all(&dir).unwrap();
    for torn_at in [3u64, 10, 25] {
        let path = dir.join(format!("torn_{torn_at}.trace.ndjson"));
        let rates = FaultRates {
            spill_transient_per_1024: 0,
            spill_fail_after: None,
            spill_torn_at: Some(torn_at),
            ..FaultRates::default()
        };
        let plan = FaultPlan::with_rates(42, rates);
        let trace = Trace::streaming_faulted(&path, 2, plan).unwrap();
        for i in 0..40u64 {
            trace.event_at("sweep", || format!("ev{i}"), 0, i * 5, 2, Vec::new);
        }
        trace.flush().unwrap();
        let degraded = trace
            .spill_degraded()
            .expect("torn write must degrade the sink");
        assert!(degraded.contains("torn"), "{degraded}");
        assert_eq!(trace.event_count(), 40, "no event may be lost");
        assert_eq!(trace.spilled_events(), torn_at - 1);
        assert_eq!(trace.counter("trace.spill.degraded"), 1);

        let rec = events_from_spills_lossy(&[&path]).unwrap();
        // Writes 1..torn_at succeeded; write torn_at tore mid-line.
        assert_eq!(rec.events.len() as u64, torn_at - 1);
        assert_eq!(rec.notes.len(), 1, "{:?}", rec.notes);
        assert!(rec.notes[0].contains("truncated"), "{:?}", rec.notes);
        // The strict parser must still reject the torn file.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(parse_spill(&text).is_err());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A sink that degraded on a torn write and then flushed cleanly is not
/// a failed drop flush: dropping it leaves `drop_flush_failures()` where
/// it was, since `trace.spill.degraded` already reported the tear.
#[test]
fn degraded_sink_drop_is_not_a_failed_flush() {
    let dir = std::env::temp_dir().join("tms_faults_degraded_drop");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("torn.trace.ndjson");
    let rates = FaultRates {
        spill_transient_per_1024: 0,
        spill_fail_after: None,
        spill_torn_at: Some(3),
        ..FaultRates::default()
    };
    let trace = Trace::streaming_faulted(&path, 2, FaultPlan::with_rates(7, rates)).unwrap();
    stream_n_events(&trace, 10);
    trace.flush().unwrap();
    assert!(
        trace.spill_degraded().is_some(),
        "the torn write never fired"
    );
    let before = tms_trace::drop_flush_failures();
    drop(trace);
    assert_eq!(tms_trace::drop_flush_failures(), before);
    std::fs::remove_dir_all(&dir).ok();
}

fn stream_n_events(t: &Trace, n: u64) {
    for i in 0..n {
        t.event_at("sim.vthread", || format!("t{i}"), i % 4, i, 1, Vec::new);
    }
}

/// The event names a strict parse reads back from the spill at `path`.
fn spilled_names(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).unwrap();
    let events = parse_spill(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    events.into_iter().map(|ev| ev.name).collect()
}

fn names(n: u64) -> Vec<String> {
    (0..n).map(|i| format!("t{i}")).collect()
}

/// A disk-full spill degrades at once (no retry loop), keeps every
/// event and metric, and leaves only whole lines on disk.
#[test]
fn disk_full_degrades_without_retry_loops() {
    let dir = std::env::temp_dir().join("tms_faults_disk_full");
    let path = dir.join("full.trace.ndjson");
    let plan = FaultPlan::with_rates(
        2,
        FaultRates {
            spill_transient_per_1024: 0,
            spill_torn_at: None,
            spill_fail_after: Some(5),
            ..FaultRates::default()
        },
    );
    let t = Trace::streaming_faulted(&path, 2, plan).unwrap();
    stream_n_events(&t, 20);
    t.count("n", 20);
    t.flush().unwrap();
    assert_eq!(t.spilled_events(), 5);
    assert_eq!(t.event_count(), 20);
    let reason = t.spill_degraded().expect("disk-full must degrade");
    assert!(reason.starts_with("spill write failed: "), "{reason}");
    assert_eq!(t.spill_retries(), 0);
    assert_eq!(t.counter("n"), 20, "metrics survive degradation");
    // Everything on disk is intact — disk-full never tears a line.
    assert_eq!(spilled_names(&path), names(5));
    std::fs::remove_dir_all(&dir).ok();
}

/// Transient spill faults are retried away: the stream stays healthy
/// and every event reaches disk, in order, on a whole line.
#[test]
fn transient_faults_retry_and_the_stream_survives() {
    let dir = std::env::temp_dir().join("tms_faults_transient");
    let path = dir.join("flaky.trace.ndjson");
    // ~12% of write attempts fail transiently; each gets up to 3
    // retries at fresh attempt indices, so the probability of any
    // line exhausting its retries is ~0.02% — and the seed makes
    // the whole sequence deterministic, so this test cannot flake.
    let plan = FaultPlan::with_rates(
        0xC0FFEE,
        FaultRates {
            spill_transient_per_1024: 128,
            spill_torn_at: None,
            spill_fail_after: None,
            ..FaultRates::default()
        },
    );
    let t = Trace::streaming_faulted(&path, 8, plan.clone()).unwrap();
    stream_n_events(&t, 200);
    t.flush().unwrap();
    assert_eq!(t.spill_degraded(), None, "retries should absorb these");
    assert_eq!(t.spilled_events(), 200);
    assert!(t.spill_retries() > 0, "the fault plan never fired");
    assert_eq!(t.counter("trace.spill.retries"), t.spill_retries());
    assert!(plan.injected_total() > 0);
    assert_eq!(spilled_names(&path), names(200));
    std::fs::remove_dir_all(&dir).ok();
}
