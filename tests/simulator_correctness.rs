//! Cross-crate integration: the SpMT simulator's committed state must
//! match sequential semantics on every workload — squashes, replays
//! and all — and its cycle accounting must be coherent.

use tms_repro::prelude::*;
use tms_workloads::{doacross_suite, figure1, kernels};

fn sim_cfg(n_iter: u64) -> SimConfig {
    SimConfig::icpp2008(n_iter)
}

fn schedule(ddg: &Ddg) -> Schedule {
    schedule_sms(ddg, &MachineModel::icpp2008())
        .expect("workload must schedule")
        .schedule
}

#[test]
fn committed_memory_image_matches_sequential() {
    let machine = MachineModel::icpp2008();
    let mut checked = 0;
    let mut loops: Vec<Ddg> = vec![figure1()];
    loops.extend(kernels::all_kernels());
    loops.extend(doacross_suite(3).into_iter().map(|l| l.ddg));
    for ddg in loops {
        let sch = schedule(&ddg);
        let cfg = sim_cfg(300);
        let spmt = simulate_spmt(&ddg, &sch, &cfg);
        let seq = simulate_sequential(&ddg, &machine, &cfg);
        assert_eq!(
            spmt.memory_image,
            seq.memory_image,
            "{}: committed state diverged from sequential semantics",
            ddg.name()
        );
        checked += 1;
    }
    assert!(checked >= 10);
}

#[test]
fn memory_image_matches_even_under_heavy_misspeculation() {
    // A certain cross-iteration dependence scheduled for maximum race:
    // every thread pair conflicts, squashes fire constantly, yet the
    // final committed state is still the sequential one.
    let ddg = kernels::maybe_aliasing_update(1.0);
    let sch = schedule(&ddg);
    let cfg = sim_cfg(200);
    let spmt = simulate_spmt(&ddg, &sch, &cfg);
    let seq = simulate_sequential(&ddg, &MachineModel::icpp2008(), &cfg);
    assert_eq!(spmt.memory_image, seq.memory_image);
}

#[test]
fn all_threads_commit_exactly_once() {
    for ddg in kernels::all_kernels() {
        let sch = schedule(&ddg);
        let cfg = sim_cfg(123);
        let out = simulate_spmt(&ddg, &sch, &cfg);
        let expect = 123 + sch.stage_count() as u64 - 1;
        assert_eq!(
            out.stats.committed_threads,
            expect,
            "{}: thread count",
            ddg.name()
        );
    }
}

#[test]
fn accounting_is_coherent() {
    for l in doacross_suite(5) {
        let sch = schedule(&l.ddg);
        let cfg = sim_cfg(200);
        let s = simulate_spmt(&l.ddg, &sch, &cfg).stats;
        // Commit serialisation alone bounds total time from below.
        assert!(
            s.total_cycles >= s.committed_threads * 2,
            "{}: total below the commit chain",
            l.ddg.name()
        );
        // Overheads carry the configured per-event costs.
        assert_eq!(s.commit_cycles, s.committed_threads * 2);
        assert_eq!(s.invalidation_cycles, s.misspeculations * 15);
        assert_eq!(s.spawn_cycles, (s.committed_threads - 1) * 3);
        // Cache counters add up against the configured totals.
        let accesses = s.l1_hits + s.l2_hits + s.mem_accesses;
        assert!(accesses > 0, "{}: no memory traffic", l.ddg.name());
    }
}

#[test]
fn misspeculation_frequency_tracks_dependence_probability() {
    // The DOACROSS suite's speculated dependences are all ≤ 2%; the
    // simulated misspeculation frequency must stay of that order (the
    // paper reports < 0.1% thanks to preserved dependences; we allow
    // headroom for the unpreserved ones).
    for l in doacross_suite(9) {
        let sch = schedule(&l.ddg);
        let out = simulate_spmt(&l.ddg, &sch, &sim_cfg(500));
        let freq = out.stats.misspec_frequency();
        assert!(
            freq < 0.08,
            "{}: misspeculation frequency {freq}",
            l.ddg.name()
        );
    }
}

#[test]
fn more_cores_never_slow_a_doall_loop() {
    // Allow 3% tolerance: extra cores mean extra cold private L1s, a
    // real (small) effect that can offset the parallelism on a loop
    // this tiny.
    let ddg = kernels::daxpy();
    let sch = schedule(&ddg);
    let mut prev: Option<u64> = None;
    for ncore in [1u32, 2, 4] {
        let cfg = SimConfig::with_ncore(400, ncore);
        let t = simulate_spmt(&ddg, &sch, &cfg).stats.total_cycles;
        if let Some(p) = prev {
            assert!(
                t <= p + p / 33,
                "daxpy slowed from {p} to {t} going to {ncore} cores"
            );
        }
        prev = Some(prev.map_or(t, |p| p.min(t)));
    }
}

#[test]
fn deterministic_across_runs() {
    let ddg = figure1();
    let sch = schedule(&ddg);
    let a = simulate_spmt(&ddg, &sch, &sim_cfg(500));
    let b = simulate_spmt(&ddg, &sch, &sim_cfg(500));
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.memory_image, b.memory_image);
}

/// `tms codegen` emits what the simulator runs: the prologue, kernel
/// passes and epilogue of `PipelinedLoop` execute exactly the
/// `(instruction, iteration)` instances that the simulator's thread
/// program executes over its threads, with the same stage count, for
/// every TMS schedule of the kernels, Livermore, Figure 1 and a fuzzed
/// population at 2, 4 and 8 cores.
#[test]
fn codegen_expands_to_the_instances_the_simulator_runs() {
    use tms_core::PipelinedLoop;
    use tms_sim::program::ThreadProgram;

    let machine = MachineModel::icpp2008();
    let costs = ArchParams::icpp2008().costs;
    let mut loops = vec![figure1()];
    loops.extend(kernels::all_kernels());
    loops.extend(tms_workloads::livermore_suite());
    loops.extend(tms_verify::fuzz::fuzz_ddgs(60, 0xC0DE));
    for ncore in [2, 4, 8] {
        let model = CostModel::new(costs, ncore);
        for ddg in &loops {
            let tms = schedule_tms(ddg, &machine, &model, &TmsConfig::default())
                .unwrap_or_else(|e| panic!("{} at {ncore} cores: {e}", ddg.name()));
            let code = PipelinedLoop::generate(ddg, &tms.schedule);
            let program =
                ThreadProgram::lower(ddg, &tms.schedule, &CommPlan::build(ddg, &tms.schedule));
            assert_eq!(
                code.stages,
                program.stages,
                "{} at {ncore} cores",
                ddg.name()
            );
            let stages = u64::from(code.stages);
            for n_iter in [stages, stages + 7] {
                let mut emitted = code.expand(n_iter);
                let mut run: Vec<(InstId, u64)> = (0..program.total_threads(n_iter))
                    .flat_map(|k| {
                        let program = &program;
                        program.ops.iter().enumerate().filter_map(move |(i, op)| {
                            Some((op.inst, program.orig_iter(i, k, n_iter)?))
                        })
                    })
                    .collect();
                emitted.sort_unstable();
                run.sort_unstable();
                assert_eq!(
                    emitted,
                    run,
                    "{} at {ncore} cores, {n_iter} iterations",
                    ddg.name()
                );
            }
        }
    }
}
