//! Property tests on the schedulers: legality, resource feasibility,
//! kernel invariants and the TMS guarantees, over the seeded fuzz
//! population of `tms-verify` (deterministic; failures name the loop,
//! which `fuzz_spec(index, seed)` regenerates exactly).

use tms_bench::ExperimentConfig;
use tms_core::cost::CostModel;
use tms_core::lifetimes::max_live;
use tms_core::metrics::{achieved_c_delay, kernel_misspec_prob};
use tms_core::postpass::CommPlan;
use tms_core::schedule::Schedule;
use tms_core::tms::MAX_ATTEMPTS;
use tms_core::{schedule_ims, schedule_sms, schedule_tms, TmsConfig};
use tms_ddg::mii::sync_excess_floor;
use tms_ddg::Ddg;
use tms_machine::{ArchParams, MachineModel};
use tms_verify::fuzz::fuzz_ddgs;
use tms_workloads::{doacross_suite, kernels, livermore_suite};

const SEED: u64 = 0x5EED_0001;

fn population() -> Vec<Ddg> {
    fuzz_ddgs(48, SEED)
}

fn machine() -> MachineModel {
    MachineModel::icpp2008()
}

#[test]
fn sms_is_legal_feasible_and_at_least_mii() {
    for ddg in population() {
        let r = schedule_sms(&ddg, &machine()).expect("SMS must schedule");
        assert!(r.schedule.check_legal(&ddg).is_none(), "{}", ddg.name());
        assert!(
            r.schedule.check_resources(&ddg, &machine()),
            "{}",
            ddg.name()
        );
        assert!(r.schedule.ii() >= r.mii, "{}", ddg.name());
    }
}

#[test]
fn kernel_distances_are_nonnegative_for_flow_deps() {
    for ddg in population() {
        let r = schedule_sms(&ddg, &machine()).expect("SMS must schedule");
        for (e, d_ker) in r.schedule.kernel_deps(&ddg) {
            if e.is_register_flow() || e.is_memory_flow() {
                assert!(
                    d_ker >= 0,
                    "{}: flow dep {} has kernel distance {d_ker}",
                    ddg.name(),
                    e
                );
            }
        }
    }
}

#[test]
fn tms_is_legal_and_never_costlier_than_sms() {
    let arch = ArchParams::icpp2008();
    let model = CostModel::new(arch.costs, arch.ncore);
    for ddg in population() {
        let sms = schedule_sms(&ddg, &machine()).unwrap();
        let tms = schedule_tms(&ddg, &machine(), &model, &TmsConfig::default()).unwrap();
        assert!(tms.schedule.check_legal(&ddg).is_none(), "{}", ddg.name());
        assert!(
            tms.schedule.check_resources(&ddg, &machine()),
            "{}",
            ddg.name()
        );
        let sms_key = model.cost_key(
            sms.schedule.ii(),
            achieved_c_delay(&ddg, &sms.schedule, &arch.costs),
        );
        assert!(
            tms.cost_key <= sms_key,
            "{}: TMS {:?} vs SMS {:?}",
            ddg.name(),
            tms.cost_key,
            sms_key
        );
    }
}

#[test]
fn tms_thresholds_hold_on_the_final_kernel() {
    let arch = ArchParams::icpp2008();
    let model = CostModel::new(arch.costs, arch.ncore);
    for ddg in population() {
        let tms = schedule_tms(&ddg, &machine(), &model, &TmsConfig::default()).unwrap();
        if tms.fell_back_to_sms {
            continue;
        }
        let cd = achieved_c_delay(&ddg, &tms.schedule, &arch.costs);
        let pm = kernel_misspec_prob(&ddg, &tms.schedule, &arch.costs);
        assert!(cd <= tms.c_delay_threshold, "{}", ddg.name());
        assert!(pm <= tms.p_max + 1e-12, "{}", ddg.name());
    }
}

/// Every legal kernel reaches `C_reg_com` plus the register-circuit
/// floor the TMS search short-circuits on, whatever scheduler built it:
/// SMS, IMS and TMS alike, over the fuzzed population, the kernels,
/// the Livermore loops and the DOACROSS suite.
#[test]
fn achieved_c_delay_never_undercuts_the_register_circuit_floor() {
    let arch = ArchParams::icpp2008();
    let model = CostModel::new(arch.costs, arch.ncore);
    let mut loops = population();
    loops.extend(kernels::all_kernels());
    loops.extend(livermore_suite());
    loops.extend(
        doacross_suite(ExperimentConfig::default().seed)
            .into_iter()
            .map(|l| l.ddg),
    );
    let mut bound = 0;
    for ddg in &loops {
        let Some(excess) = sync_excess_floor(ddg) else {
            continue;
        };
        bound += 1;
        let floor = excess + arch.costs.c_reg_com;
        let schedules = [
            ("SMS", schedule_sms(ddg, &machine()).unwrap().schedule),
            ("IMS", schedule_ims(ddg, &machine()).unwrap().schedule),
            (
                "TMS",
                schedule_tms(ddg, &machine(), &model, &TmsConfig::default())
                    .unwrap()
                    .schedule,
            ),
        ];
        for (tag, schedule) in &schedules {
            let cd = achieved_c_delay(ddg, schedule, &arch.costs);
            assert!(
                cd >= floor,
                "{}: {tag} achieved C_delay {cd} < floor {floor}",
                ddg.name()
            );
        }
    }
    assert!(
        bound * 2 >= loops.len(),
        "only {bound} of {} loops have a floor",
        loops.len()
    );
}

#[test]
fn tms_search_accounting_is_coherent() {
    let arch = ArchParams::icpp2008();
    let model = CostModel::new(arch.costs, arch.ncore);
    let config = TmsConfig::default();
    for ddg in population() {
        let tms = schedule_tms(&ddg, &machine(), &model, &config).unwrap();
        assert!(tms.attempts >= 1, "{}", ddg.name());
        assert!(tms.attempts <= MAX_ATTEMPTS, "{}", ddg.name());
        assert!(
            tms.rejects.len() <= tms.rejected_candidates,
            "{}",
            ddg.name()
        );
        // Every recorded reject carries at least one diagnostic and
        // sits at a grid point the config could have produced.
        for r in &tms.rejects {
            assert!(!r.diagnostics.is_empty(), "{}", ddg.name());
            assert!(r.ii >= tms.mii, "{}", ddg.name());
        }
    }
}

#[test]
fn max_live_is_rotation_invariant() {
    for ddg in population() {
        let r = schedule_sms(&ddg, &machine()).unwrap();
        let ii = r.schedule.ii();
        let shifted: Vec<i64> = ddg
            .inst_ids()
            .map(|n| r.schedule.time(n) + ii as i64)
            .collect();
        let rot = Schedule::from_times(&ddg, ii, shifted);
        assert_eq!(
            max_live(&ddg, &r.schedule),
            max_live(&ddg, &rot),
            "{}",
            ddg.name()
        );
    }
}

#[test]
fn comm_plan_is_consistent() {
    for ddg in population() {
        let r = schedule_sms(&ddg, &machine()).unwrap();
        let plan = CommPlan::build(&ddg, &r.schedule);
        assert!(plan.all_distances_unit(), "{}", ddg.name());
        // Pair count = Σ hops; copies = Σ (hops − 1).
        let hops: u32 = plan.communications.iter().map(|c| c.hops).sum();
        let copies: u32 = plan
            .communications
            .iter()
            .map(|c| c.hops.saturating_sub(1))
            .sum();
        assert_eq!(plan.send_recv_pairs, hops, "{}", ddg.name());
        assert_eq!(plan.num_copies, copies, "{}", ddg.name());
        for comm in &plan.communications {
            assert!(comm.hops >= 1, "{}", ddg.name());
            for &(_, d) in &comm.consumers {
                assert!(d >= 1 && d <= comm.hops, "{}", ddg.name());
            }
        }
    }
}

#[test]
fn cost_model_is_monotone() {
    let costs = ArchParams::icpp2008().costs;
    for ncore in 1..9u32 {
        let model = CostModel::new(costs, ncore);
        let wider = CostModel::new(costs, ncore + 1);
        for ii in (1..200u32).step_by(13) {
            for cd in (4..200u32).step_by(11) {
                // F grows (weakly) in both II and C_delay.
                assert!(model.cost_key(ii, cd) <= model.cost_key(ii + 1, cd));
                assert!(model.cost_key(ii, cd) <= model.cost_key(ii, cd + 1));
                // Total time grows with misspeculation probability.
                for p in [0.0, 0.25, 0.5, 0.9] {
                    let t1 = model.total(ii, cd, p * 0.5, 1000);
                    let t2 = model.total(ii, cd, p, 1000);
                    assert!(t2 >= t1 - 1e-9);
                }
                // And more cores never increase the no-miss estimate.
                assert!(wider.f(ii, cd) <= model.f(ii, cd) + 1e-9);
            }
        }
    }
}
