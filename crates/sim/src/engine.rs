//! The SpMT execution engine.
//!
//! Threads (kernel iterations) are processed in logical order. Each
//! thread walks its kernel rows with mixed semantics:
//!
//! * **local operands** are dataflow — a cache miss delays only the
//!   dependent chain, as the out-of-order core would hide it;
//! * **RECV waits block the thread** — a RECV on an empty queue stalls
//!   the pipe (the Voltron queue model), so every later row of the
//!   thread slips by the wait. This is what turns a large
//!   `sync(x, y)` into true inter-thread serialisation: the stalled
//!   thread's own SENDs issue late, the successor stalls in turn, and
//!   steady-state thread spacing converges to the synchronisation
//!   delay — the paper's Figure 2(c) behaviour.
//!
//! Memory speculation uses real addresses: the [`crate::addr`] streams
//! realise each memory dependence's profiled probability, and a load
//! that executed *before* an older thread's store to the same address
//! is a violation — detected, charged `C_inv`, and replayed exactly as
//! the paper's MDT/invalentation protocol prescribes. Replayed threads
//! have all register values resident (no RECV stalls), matching the
//! cost model's `max(0, C_delay − C_spn)` re-execution gain.
//!
//! Per-thread state is flat and reused: inter-thread arrivals live in
//! one `u64` slot per `(producer, hop)` of the communication plan, and
//! every run of every thread writes into the same op-indexed buffers.
//! The store log is keyed by address through `AddrHasher`, a
//! multiplicative hash: the log is only ever probed by key and never
//! iterated, so the hasher decides where entries sit but no result can
//! depend on it. Its keys are the addresses [`crate::addr`] generates,
//! never input, so nothing can craft colliding keys. The memory image
//! keeps the standard map, since it is part of the public
//! [`SpmtOutcome`].

use crate::addr::AddressMap;
use crate::cache::CacheHierarchy;
use crate::config::SimConfig;
use crate::program::ThreadProgram;
use crate::stats::SimStats;
use crate::trace::{RunTrace, ThreadTrace};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use tms_core::postpass::CommPlan;
use tms_core::schedule::Schedule;
use tms_ddg::{Ddg, InstId};
use tms_faults::FaultPlan;
use tms_trace::Trace;

/// Result of an SpMT simulation.
#[derive(Debug, Clone)]
pub struct SpmtOutcome {
    /// Measured statistics.
    pub stats: SimStats,
    /// Final memory image: address → `(store inst, original iteration)`
    /// of the program-order-last committed store. Compared against the
    /// sequential reference to validate squash/replay bookkeeping.
    pub memory_image: HashMap<u64, (InstId, u64)>,
    /// Per-thread timeline records (when `SimConfig::collect_trace`).
    pub trace: Option<RunTrace>,
}

/// Hasher for the store log's address keys: one folded 64×64→128-bit
/// multiply per key. Addresses are word-aligned, so the fold mixes the
/// product's high half into the low bits the table indexes with.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        let p = (x as u128).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// An arrival slot no value has reached.
const ABSENT: u64 = u64::MAX;

/// Buffers one run of a thread writes, reused by every run of every
/// thread; [`exec_thread`] overwrites them all.
#[derive(Default)]
struct ThreadBufs {
    /// Completion time per op.
    completes: Vec<Option<u64>>,
    /// Send time per communication, indexed like
    /// [`ThreadProgram::sends`] (value ready + 1 for the SEND slot).
    sends: Vec<Option<u64>>,
    /// Loads performed: `(addr, issue time)`.
    loads: Vec<(u64, u64)>,
    /// Stores performed: `(addr, write time, inst, orig iter)`.
    stores: Vec<(u64, u64, InstId, u64)>,
}

/// Timing of one run of a thread (its memory traffic is in the
/// [`ThreadBufs`] it ran with).
struct ThreadRun {
    /// End of the thread (max completion, or start when empty).
    end: u64,
    /// RECV stall cycles.
    sync_stall: u64,
    /// Intra-thread operand stall cycles.
    local_stall: u64,
    /// Dynamic SEND/RECV pairs attributed to this thread.
    pairs: u64,
}

/// Simulate `schedule` on the SpMT system described by `config`.
pub fn simulate_spmt(ddg: &Ddg, schedule: &Schedule, config: &SimConfig) -> SpmtOutcome {
    simulate_spmt_traced(ddg, schedule, config, &Trace::disabled())
}

/// [`simulate_spmt`] with instrumentation.
///
/// The run itself is byte-identical whether `trace` is enabled or not —
/// the trace only *observes*. It records:
///
/// * **exact cycle attribution**: per committed thread the commit-chain
///   advance `commit_end − prev_commit_end` is partitioned into
///   `sim.cycles.commit` (`C_ci` + write-buffer overflow),
///   `sim.cycles.exec` (execution exposed beyond the previous commit)
///   and `sim.cycles.wait` (exposed idle lead-in: spawn serialisation
///   and restart floors). The three counters sum to
///   [`SimStats::total_cycles`] by construction — no unattributed
///   cycles;
/// * **store-log pruning work**: `sim.prune.popped` (entries retired —
///   at most one per committed thread now that the log is a ring) and
///   the `sim.prune.log_len` histogram, whose max is bounded by the
///   overlap window `keep_window`;
/// * **virtual-time thread events** (category `sim.vthread`, one track
///   per core, cycle timestamps) when [`SimConfig::collect_trace`] is
///   set, mirroring the [`RunTrace`] records on a Perfetto-loadable
///   timeline;
/// * **virtual-time counter tracks** (category `sim.vcounter`, `"ph":"C"`,
///   also [`SimConfig::collect_trace`]-gated): `sim.prune.log_len`
///   sampled at every commit, and a `core{n}.busy` square wave per
///   core, so Perfetto plots resource pressure over the cycle axis.
pub fn simulate_spmt_traced(
    ddg: &Ddg,
    schedule: &Schedule,
    config: &SimConfig,
    tracer: &Trace,
) -> SpmtOutcome {
    simulate_spmt_injected(ddg, schedule, config, tracer, &FaultPlan::disabled())
}

/// [`simulate_spmt_traced`] under a deterministic fault plan.
///
/// Two injection sites, both pure functions of `(seed, loop, thread)`
/// so the run is reproducible at any sweep worker count:
///
/// * **forced misspeculation** (`sim.misspec`): a thread that found no
///   genuine violation is squashed anyway, charged `C_inv`, its L1
///   flushed, and replayed through the *real* rollback path. The site
///   is latched fire-once per `(loop, thread)`, so the replay converges
///   exactly like a genuine violation and the memory image still equals
///   the sequential reference — misspeculation perturbs timing, never
///   results. Requires [`SimConfig::detect_violations`] (the squash
///   machinery it exercises).
/// * **stall jitter** (`sim.stall_jitter`): selected threads see every
///   inter-thread register value arrive a few cycles late, modelling
///   ring-queue contention. Pure delay — RECV stalls may grow, commits
///   never reorder.
///
/// With a disabled plan this is byte-identical to
/// [`simulate_spmt_traced`].
pub fn simulate_spmt_injected(
    ddg: &Ddg,
    schedule: &Schedule,
    config: &SimConfig,
    tracer: &Trace,
    faults: &FaultPlan,
) -> SpmtOutcome {
    let plan = CommPlan::build(ddg, schedule);
    let program = ThreadProgram::lower(ddg, schedule, &plan);
    let addr_map = AddressMap::new(ddg, config.seed);
    let mut caches = CacheHierarchy::new(config.arch.cache, config.arch.ncore);
    let costs = config.arch.costs;
    let ncore = config.arch.ncore as usize;

    let mut stats = SimStats::default();
    let mut memory_image: HashMap<u64, (InstId, u64)> = HashMap::new();
    let mut trace = config.collect_trace.then(RunTrace::default);
    let total_threads = if config.n_iter == 0 {
        0
    } else {
        program.total_threads(config.n_iter)
    };

    let mut core_free = vec![0u64; ncore];
    let mut prev_start = 0u64;
    let mut prev_commit_end = 0u64;
    let mut restart_floor = 0u64;
    // Arrival times of inter-thread register values: hop `h` of the
    // producer at op `p` sits in slot `slot_base[p] + h - 1`, `ABSENT`
    // when no value reached it. One slot set per thread, swapped with
    // the previous thread's, whose slots feed the relays.
    let mut slot_base = vec![usize::MAX; program.ops.len()];
    let mut n_slots = 0usize;
    for &(op, hops) in &program.sends {
        slot_base[op] = n_slots;
        n_slots += hops as usize;
    }
    let mut arrivals = vec![ABSENT; n_slots];
    let mut prev_arrivals = vec![ABSENT; n_slots];
    let mut bufs = ThreadBufs {
        completes: vec![None; program.ops.len()],
        sends: vec![None; program.sends.len()],
        ..ThreadBufs::default()
    };
    let mut prev_sends: Vec<Option<u64>> = vec![None; program.sends.len()];
    // Store log for violation detection, pruned to the window in which
    // overlap is possible: addr -> (thread, time).
    let mut store_log: HashMap<u64, Vec<(u64, u64)>, BuildHasherDefault<AddrHasher>> =
        HashMap::default();
    // (thread, addrs) in commit order, for pruning. A deque: threads
    // retire strictly oldest-first, and `pop_front` keeps each
    // retirement O(1) (a `Vec::remove(0)` here made pruning O(n²)
    // across a long run).
    let mut log_threads: VecDeque<(u64, Vec<u64>)> = VecDeque::new();
    let keep_window = (ncore as u64 + program.stages as u64 + 4).max(8);

    for k in 0..total_threads {
        let core = (k % ncore as u64) as usize;
        let natural_start = if k == 0 {
            0
        } else {
            stats.spawn_cycles += costs.c_spn as u64;
            prev_start + costs.c_spn as u64
        };
        let mut start = natural_start.max(core_free[core]);
        if start < restart_floor {
            // This thread was in flight when an older thread rolled
            // back: it is squashed and restarts after the invalidation.
            stats.cascade_squashes += 1;
            stats.squashed_cycles += restart_floor - start;
            start = restart_floor;
        }
        prev_start = start;

        // Arrival times of inter-thread register values for thread k.
        for (i, &(op, hops)) in program.sends.iter().enumerate() {
            let base = slot_base[op];
            arrivals[base] = match prev_sends[i] {
                Some(t) => t + costs.c_reg_com as u64,
                None => ABSENT,
            };
            for h in 1..hops as usize {
                arrivals[base + h] = match prev_arrivals[base + h - 1] {
                    ABSENT => ABSENT,
                    // Relay copy in the previous thread re-sends.
                    t => t + 1 + costs.c_reg_com as u64,
                };
            }
        }
        if faults.is_enabled() && arrivals.iter().any(|&t| t != ABSENT) {
            // Injected ring-queue contention: every value bound for this
            // thread is uniformly late. Applied to the arrival slots (not
            // per-op) so relays downstream see the same times the clean
            // run recorded.
            let extra = faults.stall_jitter(ddg.name(), k);
            if extra > 0 {
                for t in arrivals.iter_mut().filter(|t| **t != ABSENT) {
                    *t += extra;
                }
            }
        }

        // Execute; replay on violation (bounded, converges because the
        // replay starts after every offending store).
        let mut run_start = start;
        let mut values_resident = false;
        let mut squashes_this_thread = 0u32;
        let run = loop {
            let run = exec_thread(
                ddg,
                &program,
                &addr_map,
                &mut caches,
                config,
                core,
                k,
                run_start,
                &arrivals,
                &slot_base,
                values_resident,
                &mut bufs,
            );
            if !config.detect_violations {
                break run;
            }
            // A load that issued before an older thread's store to the
            // same address read stale data.
            let mut detect: Option<u64> = None;
            for &(a, t_r) in &bufs.loads {
                if let Some(writes) = store_log.get(&a) {
                    for &(_, t_w) in writes {
                        if t_w > t_r {
                            detect = Some(detect.map_or(t_w, |d: u64| d.max(t_w)));
                        }
                    }
                }
            }
            if detect.is_none() && faults.forced_misspec(ddg.name(), k) {
                // Injected misspeculation burst: squash a clean thread
                // through the genuine rollback path. The offending
                // "store" is pinned at the run's start, so the replay
                // begins at `run_start + C_inv` — the fire-once latch
                // guarantees the replayed run passes.
                detect = Some(run_start);
            }
            match detect {
                None => break run,
                Some(t_w) => {
                    stats.misspeculations += 1;
                    squashes_this_thread += 1;
                    stats.squashed_cycles += run.end.saturating_sub(run_start);
                    stats.invalidation_cycles += costs.c_inv as u64;
                    caches.flush_l1(core);
                    run_start = t_w.max(run_start) + costs.c_inv as u64;
                    restart_floor = restart_floor.max(run_start);
                    // Replayed threads have their register inputs
                    // already satisfied (§4.2's re-execution gain).
                    values_resident = true;
                }
            }
        };

        // Commit in order. Double buffering hides the drain for up to
        // `spec_write_buffer_entries` speculative stores; a thread that
        // overflows the buffer serialises one extra cycle per excess
        // store into its commit.
        let overflow =
            (bufs.stores.len() as u64).saturating_sub(config.arch.spec_write_buffer_entries as u64);
        let commit_end = run.end.max(prev_commit_end) + costs.c_ci as u64 + overflow;
        stats.commit_cycles += costs.c_ci as u64 + overflow;
        stats.committed_threads += 1;
        if tracer.is_enabled() {
            // Exact attribution of the commit-chain advance: the delta
            // past the previous commit is commit cost plus whatever ran
            // or idled *exposed* (not hidden under the older thread).
            let commit_cost = costs.c_ci as u64 + overflow;
            let exposed = run.end.saturating_sub(prev_commit_end);
            let exec_exposed = run.end.saturating_sub(run_start.max(prev_commit_end));
            tracer.count("sim.cycles.commit", commit_cost);
            tracer.count("sim.cycles.exec", exec_exposed);
            tracer.count("sim.cycles.wait", exposed - exec_exposed);
            tracer.count("sim.threads.committed", 1);
        }
        stats.sync_stall_cycles += run.sync_stall;
        stats.local_stall_cycles += run.local_stall;
        stats.send_recv_pairs += run.pairs;
        prev_commit_end = commit_end;
        // Double buffering: the core frees as soon as the thread ends;
        // the 2-cycle commit drains concurrently.
        core_free[core] = run.end;

        // Record committed stores.
        let mut addrs = Vec::with_capacity(bufs.stores.len());
        for &(a, t_w, inst, iter) in &bufs.stores {
            store_log.entry(a).or_default().push((k, t_w));
            addrs.push(a);
            // Program-order-last writer wins: (iter, inst id).
            match memory_image.get(&a) {
                Some(&(pi, pit)) if (pit, pi) > (iter, inst) => {}
                _ => {
                    memory_image.insert(a, (inst, iter));
                }
            }
        }
        log_threads.push_back((k, addrs));
        // Prune the store log outside the overlap window.
        while let Some(&(old_k, _)) = log_threads.front() {
            if k - old_k < keep_window {
                break;
            }
            let (_, addrs) = log_threads.pop_front().expect("front exists");
            tracer.count("sim.prune.popped", 1);
            for a in addrs {
                if let Some(v) = store_log.get_mut(&a) {
                    v.retain(|&(tk, _)| tk != old_k);
                    if v.is_empty() {
                        store_log.remove(&a);
                    }
                }
            }
        }
        if tracer.is_enabled() {
            // Bounded-window regression check: after pruning, the log
            // spans at most `keep_window` distinct committed threads.
            tracer.record("sim.prune.log_len", log_threads.len() as u64);
        }

        if let Some(tr) = trace.as_mut() {
            tr.threads.push(ThreadTrace {
                thread: k,
                core: core as u32,
                start: run_start,
                end: run.end,
                commit_end,
                sync_stall: run.sync_stall,
                local_stall: run.local_stall,
                squashes: squashes_this_thread,
            });
            // Mirror the record onto the virtual-time timeline (cycle
            // timestamps, one track per core) so a single loop's thread
            // schedule can be inspected in Perfetto. Only when the
            // caller asked for per-thread records: a whole sweep would
            // otherwise overlay thousands of loops at cycle 0.
            tracer.event_at(
                "sim.vthread",
                || format!("t{k}"),
                core as u64,
                run_start,
                run.end.saturating_sub(run_start).max(1),
                || {
                    vec![
                        ("thread", k.to_string()),
                        ("commit_end", commit_end.to_string()),
                        ("sync_stall", run.sync_stall.to_string()),
                        ("squashes", squashes_this_thread.to_string()),
                    ]
                },
            );
            // Counter tracks over the same cycle axis: store-log
            // length sampled at every commit (pressure on the
            // violation-detection window), and a per-core occupancy
            // square wave (1 while a thread runs on the core). Tied
            // samples keep commit order under the stable render sort,
            // so a back-to-back handoff renders off-then-on.
            tracer.counter_sample(
                "sim.vcounter",
                || "sim.prune.log_len".to_string(),
                0,
                commit_end,
                log_threads.len() as u64,
            );
            tracer.counter_sample(
                "sim.vcounter",
                || format!("core{core}.busy"),
                core as u64,
                run_start,
                1,
            );
            tracer.counter_sample(
                "sim.vcounter",
                || format!("core{core}.busy"),
                core as u64,
                run.end.max(run_start + 1),
                0,
            );
        }

        std::mem::swap(&mut prev_sends, &mut bufs.sends);
        std::mem::swap(&mut prev_arrivals, &mut arrivals);
        stats.total_cycles = commit_end;
    }

    stats.l1_hits = caches.counts[0];
    stats.l2_hits = caches.counts[1];
    stats.mem_accesses = caches.counts[2];
    SpmtOutcome {
        stats,
        memory_image,
        trace,
    }
}

/// Execute one thread from `start` into `bufs`, returning its timing.
/// `arrivals` and `slot_base` are the arrival slots described in
/// [`simulate_spmt_injected`].
#[allow(clippy::too_many_arguments)]
fn exec_thread(
    ddg: &Ddg,
    program: &ThreadProgram,
    addr_map: &AddressMap,
    caches: &mut CacheHierarchy,
    config: &SimConfig,
    core: usize,
    k: u64,
    start: u64,
    arrivals: &[u64],
    slot_base: &[usize],
    values_resident: bool,
    bufs: &mut ThreadBufs,
) -> ThreadRun {
    let ThreadBufs {
        completes,
        sends,
        loads,
        stores,
    } = bufs;
    completes.fill(None);
    loads.clear();
    stores.clear();
    let mut sync_stall = 0u64;
    let mut local_stall = 0u64;
    let mut end = start;
    // Cumulative slip from blocking RECVs: every row after a stalled
    // RECV is pushed back by the wait.
    let mut slip = 0u64;

    for (i, op) in program.ops.iter().enumerate() {
        let Some(iter) = program.orig_iter(i, k, config.n_iter) else {
            continue;
        };
        let sched_t = start + op.row as u64 + slip;
        let mut ready_local = sched_t;
        for &d in &op.local_deps {
            if let Some(t) = completes[d] {
                ready_local = ready_local.max(t);
            }
        }
        let mut ready_comm = 0u64;
        if !values_resident {
            for &(p, h) in &op.comm_deps {
                if k >= h as u64 {
                    let t = arrivals[slot_base[p] + h as usize - 1];
                    if t != ABSENT {
                        ready_comm = ready_comm.max(t);
                    }
                }
            }
        }
        let issue = ready_local.max(ready_comm);
        if ready_comm > sched_t {
            // The RECV blocked the pipe: the whole remainder of the
            // thread slips by the queue wait.
            sync_stall += ready_comm - sched_t;
            slip += ready_comm - sched_t;
        }
        if ready_local > sched_t.max(ready_comm) {
            local_stall += ready_local - sched_t.max(ready_comm);
        }

        let mut lat = op.latency as u64;
        if op.op.is_memory() {
            let a = addr_map.addr(ddg, op.inst, iter);
            if op.op.is_load() {
                if config.model_caches {
                    let (l, _) = caches.access(core, a);
                    lat = l as u64;
                }
                loads.push((a, issue));
            } else {
                if config.model_caches {
                    let _ = caches.access(core, a);
                }
                // Stores complete into the speculative write buffer.
                lat = 1;
                stores.push((a, issue + 1, op.inst, iter));
            }
        }
        let done = issue + lat;
        completes[i] = Some(done);
        end = end.max(done);
    }

    let mut pairs = 0u64;
    // SEND queue backpressure: each inter-core queue holds
    // `comm_queue_entries` values and the receiver drains it at ring
    // rate, so overflow only costs the *producing* thread: one cycle
    // per excess send lingers at its end (the core cannot retire the
    // blocked SENDs). Arrival times are unaffected — the values were
    // computed; they just occupy the producer longer.
    let mut n_sends = 0u64;
    for (send, &(op, hops)) in sends.iter_mut().zip(&program.sends) {
        *send = completes[op].map(|c| c + 1);
        if send.is_some() {
            n_sends += 1;
            pairs += hops as u64;
        }
    }
    end += n_sends.saturating_sub(config.arch.comm_queue_entries as u64);

    ThreadRun {
        end,
        sync_stall,
        local_stall,
        pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tms_core::schedule::Schedule;
    use tms_ddg::{DdgBuilder, OpClass};

    fn cfg(n_iter: u64, ncore: u32) -> SimConfig {
        let mut c = SimConfig::with_ncore(n_iter, ncore);
        c.model_caches = false;
        c
    }

    /// Independent iterations: ld -> fadd -> st in a single stage
    /// (II = 8 holds the whole chain) — a pure DOALL kernel with no
    /// inter-thread dependences at all.
    fn doall() -> (Ddg, Schedule) {
        let mut b = DdgBuilder::new("doall");
        let l = b.inst("ld", OpClass::Load);
        let f = b.inst("f", OpClass::FpAdd);
        let s = b.inst("st", OpClass::Store);
        b.reg_flow(l, f, 0);
        b.reg_flow(f, s, 0);
        let g = b.build().unwrap();
        let sch = Schedule::from_times(&g, 8, vec![0, 3, 5]);
        (g, sch)
    }

    #[test]
    fn commits_every_thread() {
        let (g, sch) = doall();
        let out = simulate_spmt(&g, &sch, &cfg(50, 4));
        // 50 iterations, single stage => 50 threads.
        assert_eq!(out.stats.committed_threads, 50);
        assert!(out.stats.total_cycles > 0);
        assert_eq!(out.stats.misspeculations, 0);
        assert_eq!(out.stats.sync_stall_cycles, 0);
    }

    #[test]
    fn zero_iterations_is_empty_run() {
        let (g, sch) = doall();
        let out = simulate_spmt(&g, &sch, &cfg(0, 4));
        assert_eq!(out.stats.committed_threads, 0);
        assert_eq!(out.stats.total_cycles, 0);
        assert!(out.memory_image.is_empty());
    }

    #[test]
    fn memory_image_records_last_writer() {
        let (g, sch) = doall();
        let out = simulate_spmt(&g, &sch, &cfg(10, 4));
        // The store writes its private stream: 10 distinct addresses.
        assert_eq!(out.memory_image.len(), 10);
        for &(inst, _) in out.memory_image.values() {
            assert_eq!(inst, InstId(2));
        }
    }

    #[test]
    fn more_cores_run_faster() {
        let (g, sch) = doall();
        let t1 = simulate_spmt(&g, &sch, &cfg(200, 1)).stats.total_cycles;
        let t4 = simulate_spmt(&g, &sch, &cfg(200, 4)).stats.total_cycles;
        assert!(
            t4 < t1,
            "4 cores ({t4}) should beat 1 core ({t1}) on a DOALL loop"
        );
    }

    #[test]
    fn sync_dependence_stalls_show_up() {
        // Producer at the END of the kernel feeding the next thread's
        // first row — the paper's SMS pathology. Long sync per thread.
        let mut b = DdgBuilder::new("sync");
        let cons = b.inst("cons", OpClass::IntAlu);
        let mid = b.inst_lat("mid", OpClass::FpAdd, 6);
        let prod = b.inst("prod", OpClass::IntAlu);
        b.reg_flow(cons, mid, 0);
        b.reg_flow(mid, prod, 0);
        b.reg_flow(prod, cons, 1);
        let g = b.build().unwrap();
        let sch = Schedule::from_times(&g, 8, vec![0, 1, 7]);
        let out = simulate_spmt(&g, &sch, &cfg(40, 4));
        assert!(out.stats.sync_stall_cycles > 0, "must stall at RECVs");
        assert!(out.stats.send_recv_pairs >= 39, "one pair per boundary");
    }

    #[test]
    fn violation_squashes_and_replays() {
        // A certain (p=1) memory dependence left speculated: consumer
        // loads the producer's previous-iteration store. Schedule both
        // at the same row so overlapping threads race.
        let mut b = DdgBuilder::new("viol");
        let st = b.inst("st", OpClass::Store);
        let ld = b.inst("ld", OpClass::Load);
        b.mem_flow(st, ld, 1, 1.0);
        let g = b.build().unwrap();
        // ld at row 0, st at row 7: thread k+1's load issues well
        // before thread k's store completes.
        let sch = Schedule::from_times(&g, 8, vec![7, 0]);
        let out = simulate_spmt(&g, &sch, &cfg(40, 4));
        assert!(out.stats.misspeculations > 0, "races must be detected");
        assert!(out.stats.invalidation_cycles >= 15 * out.stats.misspeculations);
        // All threads still commit.
        assert_eq!(out.stats.committed_threads, 40);
    }

    #[test]
    fn no_violation_when_detection_disabled() {
        let mut b = DdgBuilder::new("viol");
        let st = b.inst("st", OpClass::Store);
        let ld = b.inst("ld", OpClass::Load);
        b.mem_flow(st, ld, 1, 1.0);
        let g = b.build().unwrap();
        let sch = Schedule::from_times(&g, 8, vec![7, 0]);
        let mut c = cfg(40, 4);
        c.detect_violations = false;
        let out = simulate_spmt(&g, &sch, &c);
        assert_eq!(out.stats.misspeculations, 0);
    }

    #[test]
    fn low_probability_dependence_rarely_misspeculates() {
        let mut b = DdgBuilder::new("lowp");
        let st = b.inst("st", OpClass::Store);
        let ld = b.inst("ld", OpClass::Load);
        b.mem_flow(st, ld, 1, 0.01);
        let g = b.build().unwrap();
        let sch = Schedule::from_times(&g, 8, vec![7, 0]);
        let out = simulate_spmt(&g, &sch, &cfg(1000, 4));
        let freq = out.stats.misspec_frequency();
        assert!(freq < 0.05, "freq {freq} should be ~1%");
        assert!(out.stats.misspeculations > 0, "but not zero over 1000");
    }

    #[test]
    fn deterministic_given_seed() {
        let (g, sch) = doall();
        let a = simulate_spmt(&g, &sch, &cfg(100, 4));
        let b = simulate_spmt(&g, &sch, &cfg(100, 4));
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn trace_collection_records_every_thread() {
        let (g, sch) = doall();
        let mut c = cfg(20, 4);
        c.collect_trace = true;
        let out = simulate_spmt(&g, &sch, &c);
        let tr = out.trace.expect("trace requested");
        assert_eq!(tr.threads.len() as u64, out.stats.committed_threads);
        // Threads start in order, run on round-robin cores, and the
        // per-thread stall totals add up to the run's.
        for (i, t) in tr.threads.iter().enumerate() {
            assert_eq!(t.thread, i as u64);
            assert_eq!(t.core, (i % 4) as u32);
            assert!(t.end >= t.start);
            assert!(t.commit_end >= t.end);
        }
        let sync: u64 = tr.threads.iter().map(|t| t.sync_stall).sum();
        assert_eq!(sync, out.stats.sync_stall_cycles);
        assert!(!tr.timeline(60).is_empty());
        // Off by default.
        let out = simulate_spmt(&g, &sch, &cfg(20, 4));
        assert!(out.trace.is_none());
    }

    #[test]
    fn cycle_attribution_reconciles_and_prune_is_bounded() {
        // Run a violating kernel (squashes + restart floors stress the
        // wait attribution) under an enabled tracer.
        let mut b = DdgBuilder::new("viol");
        let st = b.inst("st", OpClass::Store);
        let ld = b.inst("ld", OpClass::Load);
        b.mem_flow(st, ld, 1, 1.0);
        let g = b.build().unwrap();
        let sch = Schedule::from_times(&g, 8, vec![7, 0]);
        let tracer = Trace::enabled();
        let out = simulate_spmt_traced(&g, &sch, &cfg(200, 4), &tracer);
        let attributed = tracer.counter("sim.cycles.commit")
            + tracer.counter("sim.cycles.exec")
            + tracer.counter("sim.cycles.wait");
        assert_eq!(
            attributed, out.stats.total_cycles,
            "attribution must have no unaccounted cycles"
        );
        assert_eq!(
            tracer.counter("sim.threads.committed"),
            out.stats.committed_threads
        );
        // Store-log pruning: O(1) per committed thread, window-bounded.
        // Mirrors the engine's formula: one stage (times 0 and 7 both
        // fit under II = 8) on 4 cores.
        let (ncore, stages) = (4u64, 1u64);
        let keep_window = (ncore + stages + 4).max(8);
        let len = tracer.value_stats("sim.prune.log_len").unwrap();
        assert!(len.max <= keep_window, "log len {} > window", len.max);
        assert!(tracer.counter("sim.prune.popped") <= out.stats.committed_threads);

        // The tracer only observes: stats are identical untraced.
        let untraced = simulate_spmt(&g, &sch, &cfg(200, 4));
        assert_eq!(untraced.stats, out.stats);
    }

    #[test]
    fn write_buffer_overflow_slows_commit() {
        // 70 independent stores per iteration vs a 64-entry buffer:
        // each thread's commit pays the 6-store overflow.
        let mut b = DdgBuilder::new("stores");
        for i in 0..70 {
            b.inst(format!("st{i}"), OpClass::Store);
        }
        let g = b.build().unwrap();
        let times: Vec<i64> = (0..70).map(|i| i / 2).collect();
        let sch = Schedule::from_times(&g, 35, times);
        let mut small = cfg(30, 4);
        small.arch.spec_write_buffer_entries = 64;
        let mut big = cfg(30, 4);
        big.arch.spec_write_buffer_entries = 1024;
        let t_small = simulate_spmt(&g, &sch, &small).stats;
        let t_big = simulate_spmt(&g, &sch, &big).stats;
        assert_eq!(t_small.commit_cycles, t_big.commit_cycles + 6 * 30);
    }

    #[test]
    fn queue_backpressure_delays_sends() {
        // One producer chain with many distinct carried values: shrink
        // the queue to force backpressure and the run must slow.
        let mut b = DdgBuilder::new("queues");
        let mut prods = Vec::new();
        for i in 0..20 {
            let p = b.inst(format!("p{i}"), OpClass::IntAlu);
            let c = b.inst(format!("c{i}"), OpClass::IntAlu);
            b.reg_flow(p, c, 1);
            prods.push(p);
        }
        let g = b.build().unwrap();
        let times: Vec<i64> = (0..40).map(|i| i / 4).collect();
        let sch = Schedule::from_times(&g, 10, times);
        let mut wide = cfg(60, 4);
        wide.arch.comm_queue_entries = 64;
        let mut narrow = cfg(60, 4);
        narrow.arch.comm_queue_entries = 4;
        let t_wide = simulate_spmt(&g, &sch, &wide).stats.total_cycles;
        let t_narrow = simulate_spmt(&g, &sch, &narrow).stats.total_cycles;
        assert!(
            t_narrow > t_wide,
            "narrow queues ({t_narrow}) must cost more than wide ({t_wide})"
        );
    }

    #[test]
    fn disabled_fault_plan_is_byte_identical() {
        let (g, sch) = doall();
        let clean = simulate_spmt(&g, &sch, &cfg(100, 4));
        let injected = simulate_spmt_injected(
            &g,
            &sch,
            &cfg(100, 4),
            &Trace::disabled(),
            &tms_faults::FaultPlan::disabled(),
        );
        assert_eq!(clean.stats, injected.stats);
        assert_eq!(clean.memory_image, injected.memory_image);
    }

    #[test]
    fn forced_misspec_perturbs_timing_but_not_results() {
        let (g, sch) = doall();
        let clean = simulate_spmt(&g, &sch, &cfg(100, 4));
        assert_eq!(clean.stats.misspeculations, 0);

        let rates = tms_faults::FaultRates {
            misspec_per_1024: 512, // roughly half the threads
            jitter_per_1024: 0,
            ..tms_faults::FaultRates::default()
        };
        let plan = tms_faults::FaultPlan::with_rates(7, rates);
        let out = simulate_spmt_injected(&g, &sch, &cfg(100, 4), &Trace::disabled(), &plan);

        assert!(out.stats.misspeculations > 0, "injection must fire");
        assert_eq!(
            out.stats.misspeculations,
            *plan
                .injected()
                .get(tms_faults::SITE_SIM_MISSPEC)
                .expect("site recorded"),
            "every injected squash is accounted"
        );
        // The rollback path is the real one: every thread still
        // commits, C_inv is charged, and the memory image is untouched.
        assert_eq!(out.stats.committed_threads, 100);
        assert!(out.stats.invalidation_cycles >= 15 * out.stats.misspeculations);
        assert_eq!(out.memory_image, clean.memory_image);
        assert!(out.stats.total_cycles > clean.stats.total_cycles);

        // Deterministic: a fresh plan with the same seed reproduces it.
        let plan2 = tms_faults::FaultPlan::with_rates(7, rates);
        let again = simulate_spmt_injected(&g, &sch, &cfg(100, 4), &Trace::disabled(), &plan2);
        assert_eq!(again.stats, out.stats);
    }

    #[test]
    fn stall_jitter_only_delays() {
        // A kernel with real inter-thread communication so arrivals
        // exist to be jittered.
        let mut b = DdgBuilder::new("sync");
        let cons = b.inst("cons", OpClass::IntAlu);
        let prod = b.inst("prod", OpClass::IntAlu);
        b.reg_flow(cons, prod, 0);
        b.reg_flow(prod, cons, 1);
        let g = b.build().unwrap();
        let sch = Schedule::from_times(&g, 4, vec![0, 2]);
        let clean = simulate_spmt(&g, &sch, &cfg(80, 4));

        let rates = tms_faults::FaultRates {
            misspec_per_1024: 0,
            jitter_per_1024: 1024, // every thread
            jitter_max_cycles: 9,
            ..tms_faults::FaultRates::default()
        };
        let plan = tms_faults::FaultPlan::with_rates(11, rates);
        let out = simulate_spmt_injected(&g, &sch, &cfg(80, 4), &Trace::disabled(), &plan);

        assert_eq!(out.stats.committed_threads, clean.stats.committed_threads);
        assert_eq!(out.stats.misspeculations, 0);
        assert_eq!(out.memory_image, clean.memory_image);
        assert!(
            out.stats.total_cycles >= clean.stats.total_cycles,
            "jitter ({}) can only slow the run ({})",
            out.stats.total_cycles,
            clean.stats.total_cycles
        );
        assert!(out.stats.sync_stall_cycles > clean.stats.sync_stall_cycles);
    }

    /// A kernel whose carried register values cross one, two and three
    /// threads, with a speculated memory dependence, at II = 4 over
    /// three stages. The relayed producers are slow enough that their
    /// relayed arrivals, not the one-hop chain, bind their consumers.
    fn relayed() -> (Ddg, Schedule) {
        let mut b = DdgBuilder::new("relay");
        let acc = b.inst("acc", OpClass::IntAlu);
        let mul = b.inst("mul", OpClass::FpMul);
        let ld = b.inst("ld", OpClass::Load);
        let add = b.inst_lat("add", OpClass::FpAdd, 2);
        let st = b.inst("st", OpClass::Store);
        let far = b.inst_lat("far", OpClass::IntAlu, 16);
        let mid = b.inst_lat("mid", OpClass::IntAlu, 12);
        b.reg_flow(acc, mul, 0);
        b.reg_flow(mul, ld, 0); // d_ker 1
        b.reg_flow(ld, add, 0); // d_ker 1
        b.reg_flow(add, st, 0);
        b.reg_flow(acc, acc, 1); // d_ker 1
        b.reg_flow(mid, mul, 2); // d_ker 2: one relay
        b.reg_flow(far, add, 1); // d_ker 3: two relays
        b.reg_flow(add, far, 2);
        b.mem_flow(st, ld, 2, 0.25); // d_ker 1, speculated
        let g = b.build().unwrap();
        let sch = Schedule::from_times(&g, 4, vec![0, 1, 5, 8, 10, 3, 2]);
        (g, sch)
    }

    /// Order-free digest of a memory image.
    fn image_digest(image: &HashMap<u64, (InstId, u64)>) -> u64 {
        let mut entries: Vec<_> = image.iter().map(|(&a, &(i, it))| (a, i, it)).collect();
        entries.sort();
        entries
            .iter()
            .flat_map(|&(a, i, it)| [a, i.0 as u64, it])
            .fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
                (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    #[test]
    fn relay_and_jitter_paths_match_pins() {
        let (g, sch) = relayed();
        let plan = CommPlan::build(&g, &sch);
        let hops: Vec<u32> = plan.communications.iter().map(|c| c.hops).collect();
        assert!(hops.contains(&2) && hops.contains(&3), "hops {hops:?}");

        let clean = simulate_spmt(&g, &sch, &cfg(60, 4));
        let rates = tms_faults::FaultRates {
            misspec_per_1024: 0,
            jitter_per_1024: 512,
            jitter_max_cycles: 7,
            ..tms_faults::FaultRates::default()
        };
        let plan = tms_faults::FaultPlan::with_rates(5, rates);
        let jittered = simulate_spmt_injected(&g, &sch, &cfg(60, 4), &Trace::disabled(), &plan);
        // Pinned before the arrivals moved from a per-thread map to
        // flat per-(producer, hop) slots: the relays and the jitter
        // pass over the arrivals must reproduce them exactly.
        let got = |o: &SpmtOutcome| {
            (
                o.stats.total_cycles,
                o.stats.sync_stall_cycles,
                o.stats.send_recv_pairs,
                o.memory_image.len(),
                image_digest(&o.memory_image),
            )
        };
        assert_eq!(got(&clean), (645, 1377, 480, 60, 0x6ae1_5d36_1bf2_f2d1));
        assert_eq!(got(&jittered), (748, 1789, 480, 60, 0x6ae1_5d36_1bf2_f2d1));
    }

    #[test]
    fn spawn_serialisation_bounds_throughput() {
        // With a trivial loop, threads can at best start C_spn apart.
        let mut b = DdgBuilder::new("tiny");
        b.inst("x", OpClass::IntAlu);
        let g = b.build().unwrap();
        let sch = Schedule::from_times(&g, 1, vec![0]);
        let out = simulate_spmt(&g, &sch, &cfg(100, 4));
        assert!(
            out.stats.total_cycles >= 99 * 3,
            "spawn chain is the serial bottleneck: {}",
            out.stats.total_cycles
        );
    }
}
