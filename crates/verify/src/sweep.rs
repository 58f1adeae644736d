//! The full verification sweep as a library: every workload family plus
//! a fuzzed population through [`check_loop`](crate::check_loop),
//! fanned across a bounded worker pool.
//!
//! Loops are independent, so the sweep dispatches them through
//! [`tms_core::par::par_map`]; results come back in input order at any
//! worker count, which makes the [`VerifyReport`] **bit-identical**
//! regardless of `jobs` (the report carries no timing). `tms-verify` is
//! a thin argument-parsing shell over [`run_sweep`]; the determinism
//! test calls it directly and compares whole-report JSON across worker
//! counts.

use crate::checks::{check_loop_traced, CheckConfig, LoopVerdict, Violation};
use crate::fuzz::fuzz_ddgs;
use crate::report::VerifyReport;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use tms_core::par::{par_map, Parallelism};
use tms_faults::FaultPlan;
use tms_trace::Trace;
use tms_workloads::{doacross_suite, figure1, kernels, livermore_suite, specfp_profiles};

/// Everything one sweep run depends on.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Fuzzed DDGs to generate and check.
    pub fuzz: usize,
    /// Master seed (workload and fuzz generation).
    pub seed: u64,
    /// Original loop iterations per differential simulation.
    pub sim_iters: u64,
    /// Loops checked per SPECfp profile (0 = the full population).
    pub specfp_cap: usize,
    /// Skip the differential execution checks.
    pub no_sim: bool,
    /// Use the cheaper [`CheckConfig::quick`] grid.
    pub quick: bool,
    /// Worker threads for the per-loop fan-out.
    pub jobs: Parallelism,
    /// Process-level sharding: `Some((i, n))` checks only the loops
    /// whose **global index** (position in the fixed family order,
    /// counted across every family) is `≡ i (mod n)`. The shards
    /// partition the sweep exactly: each loop lands in precisely one
    /// shard, so shard metrics snapshots merge
    /// ([`tms_trace::MetricsSnapshot::merge`]) byte-identically to a
    /// single-process run.
    pub shard: Option<(u32, u32)>,
    /// Instrumentation sink (disabled by default). When enabled, the
    /// sweep records a span per family and per loop plus the scheduler
    /// and simulator counters underneath; the [`VerifyReport`] itself
    /// is byte-identical either way.
    pub trace: Trace,
    /// Fault-injection plan (disabled by default; `--faults SEED`
    /// enables the campaign). Threads through [`CheckConfig::faults`]
    /// into the scheduler and simulator, and additionally panics the
    /// worker on selected loops — which [`tms_core::par`] must catch
    /// and re-execute serially, keeping the report byte-identical at
    /// any `jobs`.
    pub faults: FaultPlan,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            fuzz: 200,
            seed: 0x7315_2008,
            sim_iters: 24,
            specfp_cap: 4,
            no_sim: false,
            quick: false,
            jobs: Parallelism::Auto,
            shard: None,
            trace: Trace::disabled(),
            faults: FaultPlan::disabled(),
        }
    }
}

impl SweepConfig {
    /// The per-loop check grid this sweep uses.
    pub fn check_config(&self) -> CheckConfig {
        let mut cfg = if self.quick {
            CheckConfig::quick()
        } else {
            CheckConfig::default()
        };
        cfg.sim_iters = self.sim_iters;
        if self.no_sim {
            cfg.simulate = false;
        }
        cfg.faults = self.faults.clone();
        cfg
    }
}

/// Wall-clock of one family's fan-out (kept outside the report so the
/// report itself stays deterministic).
#[derive(Debug, Clone)]
pub struct FamilyTiming {
    /// Workload family name.
    pub family: String,
    /// Loops checked.
    pub loops: usize,
    /// Seconds spent checking the family.
    pub seconds: f64,
}

/// A finished sweep: the deterministic report plus its timings, and any
/// notes the sweep emitted (e.g. SPECfp sampling).
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The `results/verify.json` payload. Identical across `jobs`.
    pub report: VerifyReport,
    /// Per-family wall-clock, in family order.
    pub timings: Vec<FamilyTiming>,
    /// Human-readable notes (not part of the report).
    pub notes: Vec<String>,
}

/// Run the whole sweep: kernels, figure1, livermore, doacross, SPECfp
/// and fuzzed loops, in that fixed order.
pub fn run_sweep(sweep: &SweepConfig) -> SweepOutcome {
    let cfg = sweep.check_config();
    let mut outcome = SweepOutcome {
        report: VerifyReport {
            seed: sweep.seed,
            ..Default::default()
        },
        timings: Vec::new(),
        notes: Vec::new(),
    };
    if let Some((i, n)) = sweep.shard {
        outcome.notes.push(format!(
            "shard {i}/{n}: checking loops with global index = {i} (mod {n})"
        ));
    }

    // Loops are numbered globally across the fixed family order; a
    // shard keeps the loops whose global index is `≡ i (mod n)`.
    let next_global = std::cell::Cell::new(0u64);
    let run_family = |outcome: &mut SweepOutcome, family: &str, ddgs: &[tms_ddg::Ddg]| {
        let base = next_global.get();
        next_global.set(base + ddgs.len() as u64);
        let kept: Vec<&tms_ddg::Ddg> = ddgs
            .iter()
            .enumerate()
            .filter(|(j, _)| match sweep.shard {
                None => true,
                Some((i, n)) => (base + *j as u64) % u64::from(n) == u64::from(i),
            })
            .map(|(_, g)| g)
            .collect();
        let mut span = sweep.trace.span("sweep", family);
        span.arg("loops", kept.len());
        let t0 = Instant::now();
        let verdicts: Vec<LoopVerdict> = par_map(sweep.jobs, &kept, |_, &g| {
            // Injected worker panic: deliberately *outside* the local
            // catch below, so it unwinds into `par_map`'s containment
            // and the loop is re-executed serially (the site latches,
            // so the retry runs clean). This is the campaign's proof
            // that a dying worker loses no loop.
            if sweep.faults.worker_panic_once(g.name()) {
                panic!("injected worker panic on '{}'", g.name());
            }
            // A genuine panic inside the checks themselves (a scheduler
            // or simulator bug on one pathological loop) becomes a
            // structured violation instead of killing the whole sweep —
            // it would otherwise panic again on the serial retry.
            catch_unwind(AssertUnwindSafe(|| {
                check_loop_traced(g, &cfg, &sweep.trace)
            }))
            .unwrap_or_else(|e| {
                let msg = e
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| e.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                LoopVerdict {
                    name: g.name().to_string(),
                    checks: 1,
                    violations: vec![Violation {
                        loop_name: g.name().to_string(),
                        check: "panic".to_string(),
                        detail: msg,
                    }],
                    degraded: Vec::new(),
                }
            })
        });
        outcome.report.add_family(family, &verdicts);
        outcome.timings.push(FamilyTiming {
            family: family.to_string(),
            loops: verdicts.len(),
            seconds: t0.elapsed().as_secs_f64(),
        });
    };

    // Hand-written kernels, plus an always-aliasing variant that forces
    // misspeculation on every speculated iteration.
    let mut kernel_pop = kernels::all_kernels();
    kernel_pop.push(kernels::maybe_aliasing_update(1.0));
    run_family(&mut outcome, "kernels", &kernel_pop);
    run_family(&mut outcome, "figure1", &[figure1()]);
    run_family(&mut outcome, "livermore", &livermore_suite());
    let doacross: Vec<_> = doacross_suite(sweep.seed)
        .into_iter()
        .map(|l| l.ddg)
        .collect();
    run_family(&mut outcome, "doacross", &doacross);

    // SPECfp profiles: the full population is 778 loops; by default a
    // per-benchmark sample keeps the sweep interactive.
    let mut specfp: Vec<tms_ddg::Ddg> = Vec::new();
    let mut specfp_total = 0usize;
    for p in specfp_profiles() {
        let loops = p.generate(sweep.seed);
        specfp_total += loops.len();
        let take = if sweep.specfp_cap == 0 {
            loops.len()
        } else {
            sweep.specfp_cap.min(loops.len())
        };
        specfp.extend(loops.into_iter().take(take));
    }
    if specfp.len() < specfp_total {
        outcome.notes.push(format!(
            "specfp: sampling {} of {specfp_total} loops (--specfp-cap 0 for all)",
            specfp.len()
        ));
    }
    run_family(&mut outcome, "specfp", &specfp);

    run_family(&mut outcome, "fuzz", &fuzz_ddgs(sweep.fuzz, sweep.seed));

    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SweepConfig {
        SweepConfig {
            fuzz: 4,
            specfp_cap: 1,
            no_sim: true,
            quick: true,
            jobs: Parallelism::Serial,
            ..Default::default()
        }
    }

    #[test]
    fn sweep_families_are_in_fixed_order() {
        let out = run_sweep(&tiny());
        let names: Vec<&str> = out
            .report
            .families
            .iter()
            .map(|f| f.family.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "kernels",
                "figure1",
                "livermore",
                "doacross",
                "specfp",
                "fuzz"
            ]
        );
        assert_eq!(out.timings.len(), out.report.families.len());
    }

    #[test]
    fn sweep_report_is_identical_across_worker_counts() {
        let serial = run_sweep(&tiny());
        let parallel = run_sweep(&SweepConfig {
            jobs: Parallelism::Jobs(3),
            ..tiny()
        });
        assert_eq!(serial.report.to_json(), parallel.report.to_json());
    }

    #[test]
    fn tracing_changes_nothing_and_is_itself_deterministic() {
        let untraced = run_sweep(&tiny());
        let t_serial = Trace::enabled();
        let traced = run_sweep(&SweepConfig {
            trace: t_serial.clone(),
            ..tiny()
        });
        // The report is byte-identical with tracing on.
        assert_eq!(untraced.report.to_json(), traced.report.to_json());
        // And the deterministic metrics slice (counters + value
        // histograms) is identical at any worker count.
        let t_jobs = Trace::enabled();
        run_sweep(&SweepConfig {
            trace: t_jobs.clone(),
            jobs: Parallelism::Jobs(3),
            ..tiny()
        });
        assert_eq!(t_serial.metrics(), t_jobs.metrics());
        assert_eq!(
            t_serial.counter("verify.loops"),
            untraced.report.total_loops as u64
        );
        assert!(t_serial.counter("tms.attempts") > 0);
    }

    #[test]
    fn fault_campaign_survives_and_is_jobs_invariant() {
        // Hot rates so a tiny sweep still exercises every site: every
        // loop gets a starved scheduler budget, panicking workers are
        // common, and the simulator is left on so misspec/jitter fire.
        let rates = tms_faults::FaultRates {
            sched_budget_per_1024: 1024,
            sched_budget_attempts: 1,
            worker_panic_per_1024: 512,
            ..tms_faults::FaultRates::default()
        };
        let campaign = |jobs| {
            let cfg = SweepConfig {
                faults: tms_faults::FaultPlan::with_rates(0xC0FFEE, rates),
                jobs,
                no_sim: false,
                sim_iters: 6,
                ..tiny()
            };
            (run_sweep(&cfg), cfg.faults)
        };
        let (serial, plan_serial) = campaign(Parallelism::Serial);
        // Degradation happened (every loop was budget-starved), no
        // check failed, and the injected panics left no trace in the
        // verdicts — every loop is present exactly once.
        assert_eq!(
            serial.report.total_violations, 0,
            "{:?}",
            serial.report.violations
        );
        assert!(serial.report.total_degraded > 0);
        assert!(plan_serial.injected_total() > 0);
        assert!(
            *plan_serial
                .injected()
                .get(tms_faults::SITE_PAR_PANIC)
                .unwrap_or(&0)
                > 0,
            "panic site must fire at these rates: {:?}",
            plan_serial.injected()
        );

        let (parallel, _) = campaign(Parallelism::Jobs(3));
        assert_eq!(
            serial.report.to_json(),
            parallel.report.to_json(),
            "campaign report must be bit-identical at any worker count"
        );
    }

    #[test]
    fn shards_partition_the_sweep_and_metrics_merge_exactly() {
        let single_trace = Trace::enabled();
        let single = run_sweep(&SweepConfig {
            trace: single_trace.clone(),
            ..tiny()
        });

        let n = 3u32;
        let mut merged = tms_trace::MetricsSnapshot::default();
        let mut loops = 0usize;
        for i in 0..n {
            let t = Trace::enabled();
            let out = run_sweep(&SweepConfig {
                shard: Some((i, n)),
                trace: t.clone(),
                ..tiny()
            });
            loops += out.report.total_loops;
            merged.merge(&t.metrics());
        }
        // Every loop lands in exactly one shard…
        assert_eq!(loops, single.report.total_loops);
        // …and the merged metrics are byte-identical to one process.
        assert_eq!(merged.to_json(), single_trace.snapshot_json());
    }
}
