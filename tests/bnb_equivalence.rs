//! Branch-and-bound ≡ exhaustive search.
//!
//! The pruned TMS search (`TmsConfig { prune: true, .. }`, the
//! default) is contracted to return the **same resolution** as the
//! exhaustive cost-ordered sweep: identical schedule, identical
//! accepted `(II, C_delay, P_max)`, identical realised cost key,
//! identical fallback decision. Only the accounting may differ — the
//! pruned search dispatches fewer attempts and reports what it skipped
//! in `TmsResult::pruned`. These properties are pinned over the kernel
//! suite plus a seeded fuzzed population.

use tms_core::cost::CostModel;
use tms_core::order::sms_order;
use tms_core::sms::{order_priorities, try_schedule, SchedScratch};
use tms_core::tms::{ProbePlan, TmsPolicy};
use tms_core::{schedule_tms, AttemptLog, TmsConfig, TmsResult};
use tms_ddg::analysis::TimeFrames;
use tms_ddg::{Ddg, InstId};
use tms_machine::{ArchParams, MachineModel};
use tms_verify::fuzz::fuzz_ddgs;
use tms_workloads::{kernels, livermore_suite};

fn population() -> Vec<Ddg> {
    let mut pop = kernels::all_kernels();
    pop.push(kernels::maybe_aliasing_update(1.0));
    pop.extend(fuzz_ddgs(40, 0xB4B_2008));
    pop
}

fn tms_at(ddg: &Ddg, prune: bool) -> Option<TmsResult> {
    let machine = MachineModel::icpp2008();
    let arch = ArchParams::icpp2008();
    let model = CostModel::new(arch.costs, arch.ncore);
    let cfg = TmsConfig {
        prune,
        ..TmsConfig::default()
    };
    schedule_tms(ddg, &machine, &model, &cfg).ok()
}

/// The *resolution* of a search — everything except the
/// attempts/pruned accounting, which branch-and-bound is allowed (and
/// expected) to shrink.
fn resolution(ddg: &Ddg, r: &TmsResult) -> impl PartialEq + std::fmt::Debug {
    let times: Vec<i64> = (0..ddg.num_insts())
        .map(|i| r.schedule.time(InstId(i as u32)))
        .collect();
    (
        (
            r.ii,
            r.c_delay_threshold,
            r.p_max.to_bits(),
            r.cost_key,
            r.fell_back_to_sms,
        ),
        (r.mii, r.ldp, times),
    )
}

#[test]
fn pruned_search_resolves_identically_to_exhaustive() {
    let mut pruned_somewhere = false;
    for ddg in &population() {
        let bnb = tms_at(ddg, true);
        let exh = tms_at(ddg, false);
        match (&bnb, &exh) {
            (Some(b), Some(e)) => {
                assert_eq!(
                    resolution(ddg, b),
                    resolution(ddg, e),
                    "{}: pruning changed the resolution",
                    ddg.name()
                );
                // Accounting invariants: the exhaustive sweep never
                // prunes; branch-and-bound only ever *removes*
                // dispatched attempts, and when nothing was prunable it
                // must replay the exhaustive attempt sequence exactly.
                assert_eq!(e.pruned, 0, "{}: exhaustive search pruned", ddg.name());
                assert!(
                    b.attempts <= e.attempts,
                    "{}: pruning added attempts ({} > {})",
                    ddg.name(),
                    b.attempts,
                    e.attempts
                );
                if b.pruned == 0 {
                    assert_eq!(
                        b.attempts,
                        e.attempts,
                        "{}: attempts diverged without any pruning",
                        ddg.name()
                    );
                }
                // Both searches walk the same candidate order, so up
                // to the resolution point every index is either
                // dispatched or pruned: the pruned search can be
                // behind by at most what it skipped.
                assert!(
                    b.attempts + b.pruned >= e.attempts,
                    "{}: attempts {} + pruned {} cannot cover exhaustive {}",
                    ddg.name(),
                    b.attempts,
                    b.pruned,
                    e.attempts
                );
                pruned_somewhere |= b.pruned > 0;
            }
            (None, None) => {}
            _ => panic!(
                "{}: schedulability differs between pruned and exhaustive",
                ddg.name()
            ),
        }
    }
    assert!(
        pruned_somewhere,
        "branch-and-bound never fired on the whole population — the cuts are dead code"
    );
}

fn tms_warm(ddg: &Ddg, warm_start: bool) -> Option<TmsResult> {
    let machine = MachineModel::icpp2008();
    let arch = ArchParams::icpp2008();
    let model = CostModel::new(arch.costs, arch.ncore);
    let cfg = TmsConfig {
        warm_start,
        ..TmsConfig::default()
    };
    schedule_tms(ddg, &machine, &model, &cfg).ok()
}

/// Resolution *and* the full search accounting: warm-started replay is
/// contracted to change nothing observable, down to the attempt counts
/// and the retained rejection records.
fn full_fingerprint(ddg: &Ddg, r: &TmsResult) -> impl PartialEq + std::fmt::Debug {
    let rejects: Vec<(u32, u32, u64, usize)> = r
        .rejects
        .iter()
        .map(|c| (c.ii, c.c_delay, c.p_max.to_bits(), c.diagnostics.len()))
        .collect();
    (
        format!("{:?}", resolution(ddg, r)),
        (
            r.attempts,
            r.pruned,
            r.rejected_candidates,
            r.lost_to_baseline,
            r.budget_cut,
        ),
        rejects,
    )
}

/// Warm-started attempts — decision-log replay at the same II — must
/// be byte-identical to the cold path: schedules, accounting, and
/// rejection records alike.
#[test]
fn warm_start_is_byte_identical_to_cold() {
    for ddg in &population() {
        let warm = tms_warm(ddg, true);
        let cold = tms_warm(ddg, false);
        match (&warm, &cold) {
            (Some(w), Some(c)) => {
                assert_eq!(
                    full_fingerprint(ddg, w),
                    full_fingerprint(ddg, c),
                    "{}: warm start diverged from cold",
                    ddg.name()
                );
            }
            (None, None) => {}
            _ => panic!(
                "{}: schedulability differs between warm and cold",
                ddg.name()
            ),
        }
    }
}

/// Warm replay composes with tight degradation budgets: a `Fail` step
/// validated under new knobs must reproduce the cold engine's failure
/// (and its ejection-budget accounting) exactly, so budget cuts land on
/// the identical attempt.
#[test]
fn warm_start_composes_with_budgets() {
    let machine = MachineModel::icpp2008();
    let arch = ArchParams::icpp2008();
    let model = CostModel::new(arch.costs, arch.ncore);
    for ddg in population().iter().take(16) {
        for budget in [1usize, 4, 9] {
            let run = |warm_start: bool| {
                let cfg = TmsConfig {
                    warm_start,
                    attempt_budget: Some(budget),
                    ..TmsConfig::default()
                };
                schedule_tms(ddg, &machine, &model, &cfg).ok().map(|r| {
                    let fp = full_fingerprint(ddg, &r);
                    (fp, r.degraded.is_some())
                })
            };
            assert_eq!(
                run(true),
                run(false),
                "{}: budget={budget} diverged between warm and cold",
                ddg.name()
            );
        }
    }
}

/// A decision log only replays on the loop and II it was recorded for.
/// Every ordered pair of distinct kernel and Livermore loops is tried at
/// a few IIs: a log recorded on the first loop, handed to an attempt on
/// the second, must leave that attempt exactly as cold. The policy
/// accepts every slot, so each recorded verdict still holds and only
/// the engine's `(Ddg::uid, II)` check keeps the foreign steps out.
#[test]
fn foreign_log_leaves_the_attempt_cold() {
    let machine = MachineModel::icpp2008();
    let costs = ArchParams::icpp2008().costs;
    let mut loops = kernels::all_kernels();
    loops.extend(livermore_suite());
    let orders: Vec<_> = loops.iter().map(sms_order).collect();
    let plans: Vec<_> = loops.iter().map(ProbePlan::new).collect();
    let mut foreign_cases = 0usize;
    for ii in [4u32, 8, 12] {
        let frames: Vec<_> = loops.iter().map(|g| TimeFrames::compute(g, ii)).collect();
        let attempt = |i: usize, log: Option<&mut AttemptLog>| {
            let g = &loops[i];
            let pos = order_priorities(&orders[i], g.num_insts());
            let policy = TmsPolicy::new(&costs, &plans[i], u32::MAX, 1.0);
            let frames = frames[i].as_ref().expect("frames exist at this II");
            try_schedule(
                g,
                &machine,
                ii,
                &orders[i],
                &pos,
                &policy,
                frames,
                &mut SchedScratch::new(),
                log,
                None,
            )
            .map(|s| format!("{s:?}"))
        };
        let framed: Vec<usize> = (0..loops.len()).filter(|&i| frames[i].is_some()).collect();
        for &a in &framed {
            let mut log = AttemptLog::new();
            let _ = attempt(a, Some(&mut log));
            if log.steps.is_empty() {
                continue;
            }
            for &b in framed.iter().filter(|&&b| b != a) {
                let mut foreign = log.clone();
                assert_eq!(
                    attempt(b, Some(&mut foreign)),
                    attempt(b, None),
                    "II={ii}: a log recorded on {} changed the schedule of {}",
                    loops[a].name(),
                    loops[b].name()
                );
                foreign_cases += 1;
            }
        }
    }
    assert!(foreign_cases > 0, "no loop recorded a log to hand over");
}

/// Degradation budgets compose with pruning: the budget caps
/// *dispatched* attempts and prunes never trip it, so a budgeted search
/// walks exactly the unbudgeted search's attempt sequence. A budget the
/// unbudgeted search fits in changes nothing; a tighter one cuts at
/// exactly `budget` attempts and degrades to SMS.
#[test]
fn budgets_compose_with_pruning_deterministically() {
    let machine = MachineModel::icpp2008();
    let arch = ArchParams::icpp2008();
    let model = CostModel::new(arch.costs, arch.ncore);
    for ddg in population().iter().take(16) {
        let Some(free) = tms_at(ddg, true) else {
            continue;
        };
        for budget in [1usize, 4, 9] {
            let cfg = TmsConfig {
                prune: true,
                attempt_budget: Some(budget),
                ..TmsConfig::default()
            };
            let r = schedule_tms(ddg, &machine, &model, &cfg)
                .unwrap_or_else(|e| panic!("{}: budget={budget} errored: {e}", ddg.name()));
            if free.attempts <= budget {
                assert_eq!(
                    full_fingerprint(ddg, &r),
                    full_fingerprint(ddg, &free),
                    "{}: budget={budget} changed a search that fits in it",
                    ddg.name()
                );
                assert!(r.degraded.is_none(), "{}: budget={budget}", ddg.name());
            } else {
                assert_eq!(r.attempts, budget, "{}: budget overrun", ddg.name());
                assert!(r.budget_cut, "{}: budget={budget} not cut", ddg.name());
                assert!(r.fell_back_to_sms && r.degraded.is_some(), "{}", ddg.name());
                assert!(r.pruned <= free.pruned, "{}", ddg.name());
            }
        }
    }
}
