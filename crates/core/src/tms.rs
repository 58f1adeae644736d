//! Thread-sensitive modulo scheduling (TMS) — Figure 3 of the paper.
//!
//! TMS wraps the SMS engine with two additions:
//!
//! 1. an outer enumeration of `(II, C_delay)` pairs in increasing
//!    cost-model order (the `F_min++` loop), and
//! 2. a [`SlotPolicy`] that admits a slot only if the new
//!    inter-iteration register dependences stay within the current
//!    `C_delay` budget (condition **C1**) and the accumulated
//!    misspeculation frequency of non-preserved inter-iteration memory
//!    dependences stays within `P_max` (condition **C2**).

use crate::cost::{misspec_probability, preserves, sync_delay, CostKey, CostModel};
use crate::diagnostics::{verify_schedule, Diagnostic, VerifyLimits};
use crate::order::sms_order;
use crate::profile::PlaceProfile;
use crate::schedule::{PartialSchedule, Schedule};
use crate::sms::{
    generic_scan, order_priorities, schedule_sms_with, try_schedule, SchedError, SchedScratch,
    SlotPolicy,
};
use crate::warm::{AttemptLog, FailKind, Probe};
use std::collections::HashMap;
use tms_ddg::analysis::{AcyclicPriorities, TimeFrames};
use tms_ddg::mii::sync_excess_floor;
use tms_ddg::{Ddg, InstId};
use tms_machine::{mii, CostConstants, MachineModel};
use tms_trace::Trace;

/// Safety cap on the number of `(II, C_delay, P_max)` attempts one
/// search dispatches. A correctness backstop, not a tunable: exhausting
/// it falls through to the ordinary resolution paths (see
/// [`TmsConfig::attempt_budget`] for the reported, degrading budget).
pub const MAX_ATTEMPTS: usize = 200_000;

/// Tunables of the TMS search. The II and `C_delay` ceilings are not
/// among them: each loop's are derived from its own critical path and
/// latencies (see [`schedule_tms_traced`]). A search that resolves no
/// candidate returns the SMS schedule.
#[derive(Debug, Clone)]
pub struct TmsConfig {
    /// `P_max` values to try per `(II, C_delay)` candidate, in order.
    /// Figure 3 treats `P_max` as a tunable parameter in `[0,1]`; the
    /// paper tries several and keeps the best schedule.
    pub p_max_values: Vec<f64>,
    /// Graceful-degradation budget: when set, the search stops after
    /// this many attempts and *degrades* to the SMS schedule (reported
    /// as [`Diagnostic::DegradedToSms`] in [`TmsResult::degraded`]).
    /// Unlike [`MAX_ATTEMPTS`] (a correctness backstop), exhausting
    /// this budget is always reported. Deterministic: the same budget
    /// always degrades the same loops.
    pub attempt_budget: Option<usize>,
    /// Wall-clock analogue of [`TmsConfig::attempt_budget`]: checked
    /// before every attempt, so a pathological loop cannot stall a
    /// sweep indefinitely. Inherently machine-dependent — campaigns
    /// that need bit-identical reports use `attempt_budget` instead.
    /// `Duration::ZERO` degrades before the first attempt,
    /// deterministically.
    pub deadline: Option<std::time::Duration>,
    /// Try every integer `C_delay` candidate. When false (default) the
    /// grid is thinned for large thresholds — dense near the minimum,
    /// stride 2 beyond `min+8`, stride 4 beyond `min+24` — trading an
    /// `F` within one stride of optimal for an order of magnitude fewer
    /// attempts on recurrence-bound loops.
    pub dense_candidates: bool,
    /// Branch-and-bound pruning of the candidate sweep (default on).
    /// Two admissible cuts, both provably resolution-preserving — the
    /// pruned search returns bit-identical schedules to the exhaustive
    /// one, only the `attempts`/`pruned` accounting differs:
    ///
    /// * **cost bound** — a candidate at `II` whose admissible floor
    ///   [`CostModel::floor_key`] already exceeds the SMS baseline's
    ///   key can only ever build a schedule that loses to the baseline
    ///   (the realised key of *any* schedule at that II is ≥ the
    ///   floor), so it is skipped without dispatch.
    /// * **`P_max` dedup** — a loop with no memory-flow dependence is
    ///   insensitive to `P_max` (condition C2 is vacuous), so only the
    ///   first `P_max` of each `(II, C_delay)` candidate is dispatched.
    pub prune: bool,
    /// Stage-count slack accepted beyond the dependence-forced minimum
    /// `⌈LDP / II⌉`. Without a bound the search can satisfy a small
    /// `C_delay` by scattering instructions across many stages — every
    /// split dependence individually synchronises cheaply, but the
    /// schedule drowns in SEND/RECV pairs and register copies. The
    /// paper's TMS instead trades II up ("TMS exhibits a larger II but
    /// a much smaller C_delay", §5.1) and only "slightly larger"
    /// MaxLive; bounding stages forces the same trade.
    pub max_extra_stages: u32,
    /// Warm-start attempts across the candidate stream (default on).
    /// The search keeps one [`AttemptLog`] per II and replays the
    /// recorded decision prefix of the previous attempt at that II
    /// under the new `(C_delay, P_max)` knobs, re-running the engine
    /// only from the first step whose policy verdict changed (see
    /// `crate::warm`'s module docs and DESIGN.md §9.3). The first
    /// attempt at each II runs cold. Replay is equivalence-preserving —
    /// schedules and accounting are byte-identical to the cold path
    /// (`tests/bnb_equivalence.rs` pins this) — so the flag exists for
    /// A/B measurement, not correctness. The `tms.reuse.*` counters
    /// report the work it saved.
    pub warm_start: bool,
    /// In-engine placement profiler (default **off**; see
    /// [`crate::profile`]). When on, every dispatched attempt runs
    /// *cold* — warm-start replay is bypassed, because replayed steps
    /// skip exactly the scans being attributed — and fills a
    /// per-attempt [`PlaceProfile`] that the search folds in candidate
    /// order. Schedules are unchanged (warm ≡ cold per attempt);
    /// attribution counters and histograms are deterministic and
    /// recorded under `tms.place.*`, and the folded profile is
    /// surfaced as [`TmsResult::profile`]. Sub-phase
    /// wall clocks land in the `tms.place.{scan,probe,fit,eject,force,
    /// verify}` trace timers, which — like `tms.phase.*` — are excluded
    /// from the deterministic snapshot. Profiling costs real time (two
    /// clock reads per engine step plus probe classification), so it
    /// is a measurement mode, not a default.
    pub profile: bool,
}

impl Default for TmsConfig {
    fn default() -> Self {
        TmsConfig {
            p_max_values: vec![0.01, 0.05, 0.20],
            attempt_budget: None,
            deadline: None,
            dense_candidates: false,
            prune: true,
            max_extra_stages: 2,
            warm_start: true,
            profile: false,
        }
    }
}

impl TmsConfig {
    /// Configuration for the speculation ablation of §5.2: a `P_max`
    /// of exactly 0 forbids any non-preserved speculated dependence, so
    /// every inter-thread memory dependence must end up synchronised
    /// (preserved) in the schedule.
    pub fn no_speculation() -> Self {
        TmsConfig {
            p_max_values: vec![0.0],
            ..Self::default()
        }
    }
}

/// One `(II, C_delay, P_max)` candidate whose schedule was built but
/// failed the post-search verification, with the diagnostics that
/// rejected it.
#[derive(Debug, Clone)]
pub struct CandidateReject {
    /// II of the rejected candidate.
    pub ii: u32,
    /// `C_delay` threshold of the rejected candidate.
    pub c_delay: u32,
    /// `P_max` of the rejected candidate.
    pub p_max: f64,
    /// What the finished kernel violated.
    pub diagnostics: Vec<Diagnostic>,
}

/// At most this many [`CandidateReject`] records are retained per
/// search (the total count is always exact in
/// [`TmsResult::rejected_candidates`]).
pub const REJECT_LOG_CAP: usize = 32;

/// Outcome of a TMS run.
#[derive(Debug, Clone)]
pub struct TmsResult {
    /// The accepted schedule.
    pub schedule: Schedule,
    /// Minimum II of the loop.
    pub mii: u32,
    /// Longest dependence path of the loop.
    pub ldp: i64,
    /// II of the accepted schedule.
    pub ii: u32,
    /// The `C_delay` threshold the accepted candidate used.
    pub c_delay_threshold: u32,
    /// The `P_max` the accepted candidate used.
    pub p_max: f64,
    /// Cost key (`F · ncore`) of the accepted schedule, computed from
    /// its *achieved* `C_delay` (≤ the candidate threshold).
    pub cost_key: CostKey,
    /// True if every thread-sensitive candidate failed and the result
    /// is the plain SMS schedule.
    pub fell_back_to_sms: bool,
    /// `(II, C_delay, P_max)` attempts actually made by the search
    /// (dispatched to the engine; pruned candidates are not attempts).
    pub attempts: usize,
    /// Candidates the branch-and-bound cuts skipped without dispatch
    /// (cost bound + `P_max` dedup). `pruned + attempts` covers the
    /// same candidate prefix the exhaustive search would have examined.
    pub pruned: usize,
    /// Candidates whose schedule was built but rejected by the
    /// post-search verification (exact count; the stored records are
    /// capped at [`REJECT_LOG_CAP`]).
    pub rejected_candidates: usize,
    /// Candidates whose schedule was built and verified but whose
    /// realised cost key lost to the SMS baseline; the search keeps
    /// going past them (a later, costlier candidate can still beat the
    /// baseline on *achieved* `C_delay`).
    pub lost_to_baseline: usize,
    /// Diagnostics of up to [`REJECT_LOG_CAP`] rejected candidates.
    pub rejects: Vec<CandidateReject>,
    /// The attempt budget cut the search short of a resolution (the
    /// result is the degraded SMS fallback). Deterministic: a pure
    /// function of the loop, the configuration and the budget.
    pub budget_cut: bool,
    /// The wall-clock deadline cut the search short of a resolution.
    /// The deadline is checked before every attempt, but wall time is
    /// inherently machine- and load-dependent, so deadline cuts are
    /// **excluded** from every determinism guarantee.
    pub deadline_cut: bool,
    /// Set iff the search was cut short by its attempt/deadline budget
    /// and the result is the degraded SMS fallback (always a
    /// [`Diagnostic::DegradedToSms`]). `None` for accepted candidates
    /// *and* for ordinary cost-driven SMS fallbacks.
    pub degraded: Option<Diagnostic>,
    /// Folded placement profile of every dispatched attempt, present
    /// iff [`TmsConfig::profile`] was on. Attribution fields are
    /// deterministic; the `*_ns` accumulators are wall clock (see
    /// [`crate::profile`]).
    pub profile: Option<PlaceProfile>,
}

/// One incident edge of the C1 scan, flattened to exactly the fields
/// the probe reads. Entries keep the probe's original visit order
/// (successor edges first, then predecessor edges minus self loops);
/// edges that are neither register nor memory flow are dropped at build
/// time — they can neither reject a slot nor flag a speculated
/// dependence, so their absence is invisible to the verdict *and* to
/// the first-violation `sync` a `C1Reject` records.
#[derive(Debug, Clone, Copy)]
struct C1Entry {
    /// Far endpoint (equal to the probed node for self edges).
    other: u32,
    distance: i64,
    /// Latency of the edge *source* (what `sync_delay` charges).
    lat_src: u32,
    /// The probed node is the edge source (a successor-side edge).
    src_is_v: bool,
    is_reg: bool,
}

/// A register- or memory-flow edge of the C2 whole-graph scans,
/// flattened the same way (kept in `Ddg::edges` order).
#[derive(Debug, Clone, Copy)]
struct FlatEdge {
    src: u32,
    dst: u32,
    distance: i64,
    lat_src: u32,
    /// Misspeculation probability (memory-flow edges only; 0 for
    /// register flow, which never reads it).
    prob: f64,
}

/// Probe geometry precomputed once per DDG: the C1 incident scan as a
/// CSR over nodes, and the C2 `R_all`/`M_all` scans prefiltered to the
/// only edge kinds they inspect. [`TmsPolicy`] borrows one plan across
/// every `(C_delay, P_max)` attempt on the loop — the probe is the
/// engine's innermost call (tens of millions of evaluations per
/// benchmark loop), and walking contiguous pre-projected entries
/// replaces an iterator chain over the full `Edge` structs with their
/// per-edge kind tests and latency gathers.
#[derive(Debug, Clone)]
pub struct ProbePlan {
    /// [`Ddg::uid`] the plan was built for (debug-checked at probe
    /// time).
    uid: u64,
    /// CSR offsets into `c1`, one slot per node plus a final sentinel.
    starts: Vec<u32>,
    c1: Vec<C1Entry>,
    /// Per node: no incident memory-flow edge at all, so condition C2
    /// is vacuous at every slot the node could probe (`v_adds_mem_dep`
    /// can never fire) — the gate for the closed-form scan fast path.
    mem_free: Vec<bool>,
    /// All register-flow edges (the `R_all` candidates).
    reg: Vec<FlatEdge>,
    /// All memory-flow edges (the `M_all` candidates).
    mem: Vec<FlatEdge>,
}

impl ProbePlan {
    /// Build the plan for `ddg`. `O(V + E)`.
    pub fn new(ddg: &Ddg) -> Self {
        let flat = |e: &tms_ddg::Edge| FlatEdge {
            src: e.src.index() as u32,
            dst: e.dst.index() as u32,
            distance: e.distance as i64,
            lat_src: ddg.inst(e.src).latency,
            prob: e.prob,
        };
        let mut starts = Vec::with_capacity(ddg.num_insts() + 1);
        let mut c1 = Vec::new();
        let mut mem_free = Vec::with_capacity(ddg.num_insts());
        for v in ddg.inst_ids() {
            starts.push(c1.len() as u32);
            mem_free.push(
                ddg.succ_edges(v)
                    .chain(ddg.pred_edges(v))
                    .all(|(_, e)| !e.is_memory_flow()),
            );
            for (_, e) in ddg.succ_edges(v) {
                if e.is_register_flow() || e.is_memory_flow() {
                    c1.push(C1Entry {
                        other: e.dst.index() as u32,
                        distance: e.distance as i64,
                        lat_src: ddg.inst(e.src).latency,
                        src_is_v: true,
                        is_reg: e.is_register_flow(),
                    });
                }
            }
            for (_, e) in ddg.pred_edges(v) {
                if e.src != e.dst && (e.is_register_flow() || e.is_memory_flow()) {
                    c1.push(C1Entry {
                        other: e.src.index() as u32,
                        distance: e.distance as i64,
                        lat_src: ddg.inst(e.src).latency,
                        src_is_v: false,
                        is_reg: e.is_register_flow(),
                    });
                }
            }
        }
        starts.push(c1.len() as u32);
        ProbePlan {
            uid: ddg.uid(),
            starts,
            c1,
            mem_free,
            reg: ddg
                .edges()
                .iter()
                .filter(|e| e.is_register_flow())
                .map(flat)
                .collect(),
            mem: ddg
                .edges()
                .iter()
                .filter(|e| e.is_memory_flow())
                .map(flat)
                .collect(),
        }
    }
}

/// One C1 constraint of a scan fast path, reduced to its closed form.
/// Over a scan the placed state is frozen, so for each incident
/// register edge the sync delay is *linear in the probed row* —
/// `s = a·row + b` with `a ∈ {+1, 0, −1}` — and the `d_ker ≥ 1`
/// activity condition is a stage-interval test `q_lo ≤ stage ≤ q_hi`.
#[derive(Debug, Clone, Copy)]
struct ScanEntry {
    a: i64,
    b: i64,
    q_lo: i64,
    q_hi: i64,
}

/// The TMS slot admission policy (conditions C1 and C2 of Figure 3).
pub struct TmsPolicy<'a> {
    costs: &'a CostConstants,
    plan: &'a ProbePlan,
    c_delay: u32,
    p_max: f64,
    /// Reusable buffer for the scan fast path (policies are built,
    /// used and dropped within one attempt on one thread).
    scan_buf: std::cell::RefCell<Vec<ScanEntry>>,
}

impl<'a> TmsPolicy<'a> {
    /// Policy for one `(C_delay, P_max)` candidate. The [`ProbePlan`]
    /// must have been built for the DDG the policy will probe.
    pub fn new(costs: &'a CostConstants, plan: &'a ProbePlan, c_delay: u32, p_max: f64) -> Self {
        TmsPolicy {
            costs,
            plan,
            c_delay,
            p_max,
            scan_buf: std::cell::RefCell::new(Vec::new()),
        }
    }

    /// Closed-form scan precondition. The fast path needs two frozen
    /// facts the per-slot [`probe`](SlotPolicy::probe) derives
    /// dynamically:
    ///
    /// * **C2 vacuous at every slot** — `v` has no incident memory-flow
    ///   edge, so `v_adds_mem_dep` cannot fire at any cycle;
    /// * **a fixed normalisation base** — every probed cycle is at or
    ///   above the placed minimum, so `base = min_time` for the whole
    ///   scan (a cycle *below* the minimum re-anchors the base and
    ///   shifts every row).
    ///
    /// Returns the base, or `None` → caller takes the generic per-slot
    /// scan (as it does for an empty scan).
    fn fast_scan_base(&self, ps: &PartialSchedule, v: InstId, cycles: &[i64]) -> Option<i64> {
        if !self.plan.mem_free[v.index()] {
            return None;
        }
        let m = ps.min_time()?;
        (*cycles.iter().min()? >= m).then_some(m)
    }

    /// Project `v`'s incident register edges against the frozen placed
    /// state into [`ScanEntry`]s (CSR order preserved; edges that can
    /// never constrain — far endpoint unplaced, or a `distance 0` self
    /// edge — are dropped, exactly the edges the per-slot probe skips).
    fn build_scan_entries(&self, ps: &PartialSchedule, v: InstId, base: i64, ii: i64) {
        let mut entries = self.scan_buf.borrow_mut();
        entries.clear();
        let c_reg = self.costs.c_reg_com as i64;
        let vi = v.index();
        let row_range = self.plan.starts[vi] as usize..self.plan.starts[vi + 1] as usize;
        for ent in &self.plan.c1[row_range] {
            debug_assert!(ent.is_reg, "mem_free gate admitted a memory edge");
            let lat = ent.lat_src as i64;
            if ent.other as usize == vi {
                // Self edge: d_ker = distance, sync = lat + C_reg_com.
                if ent.distance >= 1 {
                    entries.push(ScanEntry {
                        a: 0,
                        b: lat + c_reg,
                        q_lo: i64::MIN,
                        q_hi: i64::MAX,
                    });
                }
                continue;
            }
            let Some(t) = ps.time(InstId(ent.other)) else {
                continue;
            };
            let dt = t - base;
            debug_assert!(dt >= 0);
            let (q_o, r_o) = (dt / ii, dt % ii);
            if ent.src_is_v {
                // v produces: d_ker = dist + q_o − q_v ≥ 1,
                // s = row_v − r_o + lat + C.
                entries.push(ScanEntry {
                    a: 1,
                    b: lat + c_reg - r_o,
                    q_lo: i64::MIN,
                    q_hi: q_o + ent.distance - 1,
                });
            } else {
                // v consumes: d_ker = dist + q_v − q_o ≥ 1,
                // s = r_o − row_v + lat + C.
                entries.push(ScanEntry {
                    a: -1,
                    b: r_o + lat + c_reg,
                    q_lo: q_o - ent.distance + 1,
                    q_hi: i64::MAX,
                });
            }
        }
    }

    /// Evaluate one cycle against the projected entries: the C1 verdict
    /// the per-slot probe would reach. `Err(sync)` is the first
    /// violating constraint in probe order; `Ok(sync_max)` aggregates
    /// every active constraint (`i64::MIN` when none are).
    fn eval_scan(entries: &[ScanEntry], q: i64, r: i64, cd: i64) -> Result<i64, i64> {
        let mut sync_max = i64::MIN;
        for e in entries {
            if q < e.q_lo || q > e.q_hi {
                continue;
            }
            let s = e.a * r + e.b;
            if s > cd {
                return Err(s);
            }
            sync_max = sync_max.max(s);
        }
        Ok(sync_max)
    }
}

impl SlotPolicy for TmsPolicy<'_> {
    /// Evaluate conditions C1/C2 for placing `v` at `c`, returning the
    /// verdict together with the knob-independent facts behind it (the
    /// sync delays and misspeculation product are pure functions of the
    /// placement — `c_delay`/`p_max` enter only as comparison
    /// thresholds), which is what lets warm-start replay revalidate the
    /// verdict under different knobs without re-deriving the facts.
    fn probe(&self, ddg: &Ddg, ps: &PartialSchedule, v: InstId, c: i64) -> Probe {
        debug_assert_eq!(
            self.plan.uid,
            ddg.uid(),
            "ProbePlan was built for a different DDG"
        );
        let ii = ps.ii() as i64;
        // Rows and stages are normalisation-dependent (the final
        // schedule shifts its minimum time to 0); anchoring the
        // provisional values to the running minimum keeps the C1/C2
        // checks consistent with the final kernel unless a later
        // placement dips below the current minimum — the post-search
        // verification in `schedule_tms` catches that residual case.
        let base = ps.min_time().map_or(c, |m| m.min(c));
        // `base` is the minimum over every placed time and `c` itself,
        // so `t − base` is never negative and one plain division gives
        // stage and row together (`div_euclid`/`rem_euclid` agree with
        // `/`/`%` on non-negative operands). One call per endpoint
        // replaces the former two-division closures on the hottest
        // arithmetic in the engine.
        let split = move |t: i64| {
            let dt = t - base;
            debug_assert!(dt >= 0, "time {t} below the normalisation base {base}");
            (dt / ii, dt % ii)
        };
        let (stage_v, row_v) = split(c);

        // --- C1: every NEW inter-iteration register dependence formed
        // by placing v must synchronise within C_delay (Definition 2).
        // Only edges incident to v can be new — the plan's CSR row
        // replaces a scan of the whole edge set (self-edges appear on
        // the successor side only). Only the far endpoint's time needs
        // a split: v's side is the hoisted `(stage_v, row_v)`.
        let mut v_adds_mem_dep = false;
        let mut sync_max = i64::MIN;
        let vi = v.index();
        let row_range = self.plan.starts[vi] as usize..self.plan.starts[vi + 1] as usize;
        for ent in &self.plan.c1[row_range] {
            let (stage_o, row_o) = if ent.other as usize == vi {
                (stage_v, row_v)
            } else {
                let Some(t) = ps.time(InstId(ent.other)) else {
                    continue;
                };
                split(t)
            };
            let d_ker = ent.distance
                + if ent.src_is_v {
                    stage_o - stage_v
                } else {
                    stage_v - stage_o
                };
            if d_ker < 1 {
                continue; // intra-thread in the kernel
            }
            if ent.is_reg {
                let s = if ent.src_is_v {
                    sync_delay(row_v, row_o, ent.lat_src, self.costs)
                } else {
                    sync_delay(row_o, row_v, ent.lat_src, self.costs)
                };
                if s > self.c_delay as i64 {
                    return Probe::C1Reject { sync: s };
                }
                sync_max = sync_max.max(s);
            } else {
                v_adds_mem_dep = true;
            }
        }

        // --- C2: only checked when v introduces a new speculated
        // dependence (M_v ≠ ∅ in Figure 3).
        if !v_adds_mem_dep {
            return Probe::Accept {
                sync_max,
                misspec: None,
            };
        }

        // R_all: all inter-iteration register flow dependences among
        // placed ∪ {v}, as (sync, producer-row) pairs for Definition 3.
        let time_of = |n: u32| {
            if n as usize == vi {
                Some(c)
            } else {
                ps.time(InstId(n))
            }
        };
        let mut r_all: Vec<(i64, i64)> = Vec::new();
        for e in &self.plan.reg {
            let (Some(ts), Some(td)) = (time_of(e.src), time_of(e.dst)) else {
                continue;
            };
            let (stage_s, row_s) = split(ts);
            let (stage_d, row_d) = split(td);
            let d_ker = e.distance + stage_d - stage_s;
            if d_ker >= 1 {
                let s = sync_delay(row_s, row_d, e.lat_src, self.costs);
                r_all.push((s, row_s));
            }
        }

        // M_all: non-preserved inter-iteration memory flow dependences
        // among placed ∪ {v}.
        let mut probs: Vec<f64> = Vec::new();
        for e in &self.plan.mem {
            let (Some(ts), Some(td)) = (time_of(e.src), time_of(e.dst)) else {
                continue;
            };
            let (stage_s, rx) = split(ts);
            let (stage_d, ry) = split(td);
            let d_ker = e.distance + stage_d - stage_s;
            if d_ker < 1 {
                continue;
            }
            let kept = r_all
                .iter()
                .any(|&(s_uv, row_u)| preserves(s_uv, row_u, rx, ry, e.lat_src, d_ker));
            if !kept {
                probs.push(e.prob);
            }
        }
        let misspec = misspec_probability(probs);
        if misspec <= self.p_max {
            Probe::Accept {
                sync_max,
                misspec: Some(misspec),
            }
        } else {
            Probe::C2Reject { sync_max, misspec }
        }
    }

    /// Revalidation rules per [`Probe`] variant. Each rule asks: does
    /// the cold engine, evaluated at the identical partial-schedule
    /// state, reach the *same verdict* under the current knobs? (Not
    /// necessarily for the same reason — a slot recorded as a C2
    /// rejection may now reject via C1; the verdict, and therefore the
    /// engine's next action, is unchanged.)
    fn probe_holds(&self, probe: &Probe) -> bool {
        let cd = self.c_delay as i64;
        match *probe {
            // Some new register dependence still exceeds the threshold.
            Probe::C1Reject { sync } => sync > cd,
            // Either the register sync or the misspeculation product
            // still rejects.
            Probe::C2Reject { sync_max, misspec } => sync_max > cd || misspec > self.p_max,
            // Both conditions still pass (`misspec == None` means C2
            // was vacuous — a placement fact, stable across knobs).
            Probe::Accept { sync_max, misspec } => {
                sync_max <= cd && misspec.is_none_or(|q| q <= self.p_max)
            }
        }
    }

    /// Closed-form scan. When the precondition holds (see
    /// `TmsPolicy::fast_scan_base`) the placed state is projected into
    /// `ScanEntry`s once, and each candidate cycle is a handful of
    /// compares instead of a full [`probe`](SlotPolicy::probe) — the C2
    /// machinery, per-cycle endpoint splits and per-entry kind branches
    /// all drop out. Every recorded probe is asserted against the
    /// per-slot probe in debug builds.
    fn scan(
        &self,
        ddg: &Ddg,
        ps: &PartialSchedule,
        v: InstId,
        cycles: &[i64],
        fit: bool,
        probes: &mut Vec<Probe>,
    ) -> (Option<i64>, bool) {
        let Some(base) = self.fast_scan_base(ps, v, cycles) else {
            return (generic_scan(self, ddg, ps, v, cycles, fit, probes), false);
        };
        let ii = ps.ii() as i64;
        self.build_scan_entries(ps, v, base, ii);
        let entries = self.scan_buf.borrow();
        let cd = self.c_delay as i64;
        for &c in cycles {
            if fit && !ps.fits(ddg, v, c) {
                continue;
            }
            let dt = c - base;
            let probe = match Self::eval_scan(&entries, dt / ii, dt % ii, cd) {
                Ok(sync_max) => Probe::Accept {
                    sync_max,
                    misspec: None,
                },
                Err(sync) => Probe::C1Reject { sync },
            };
            debug_assert_eq!(
                probe,
                self.probe(ddg, ps, v, c),
                "closed-form scan diverged from probe at cycle {c}"
            );
            probes.push(probe);
            if probe.accepted() {
                return (Some(c), true);
            }
        }
        (None, true)
    }
}

/// Run TMS on a loop.
///
/// Candidates `(II, C_delay)` are visited in increasing `F` (exact
/// integer cost keys), each tried with every configured `P_max`; the
/// first success is, by construction, a minimum-`F` schedule — the
/// equivalent of Figure 3's iterative `F_min` increase.
pub fn schedule_tms(
    ddg: &Ddg,
    machine: &MachineModel,
    model: &CostModel,
    config: &TmsConfig,
) -> Result<TmsResult, SchedError> {
    schedule_tms_traced(ddg, machine, model, config, &Trace::disabled())
}

/// [`schedule_tms`] with instrumentation: a span per `(II, C_delay,
/// P_max)` attempt, per-phase timers (ordering, LDP, slot placement,
/// verification), and counters for every attempt outcome keyed by
/// [`Diagnostic::kind`].
///
/// Counters and value histograms are pure functions of the search, so
/// the metrics snapshot is deterministic; span/timer *durations* are
/// wall-clock and carry no such guarantee.
pub fn schedule_tms_traced(
    ddg: &Ddg,
    machine: &MachineModel,
    model: &CostModel,
    config: &TmsConfig,
    trace: &Trace,
) -> Result<TmsResult, SchedError> {
    let m = mii(ddg, machine);
    if m == u32::MAX {
        trace.count("tms.unschedulable", 1);
        return Err(SchedError::Unschedulable {
            loop_name: ddg.name().to_string(),
        });
    }
    let order = trace.time("tms.phase.order", || sms_order(ddg));
    let ldp = trace.time("tms.phase.ldp", || AcyclicPriorities::compute(ddg).ldp);
    let mut scratch = SchedScratch::new();

    // SMS runs first: its II floors the candidate ceiling (on loops
    // where ejection pressure pushes SMS well past both MII and LDP, a
    // ceiling of max(MII, LDP) would leave TMS no feasible candidate at
    // all), and its schedule is the ready-made fallback. The node order
    // and LDP are attempt-invariant, so they are computed once here and
    // shared with every candidate attempt below.
    let sms = trace.time("tms.phase.sms_baseline", || {
        schedule_sms_with(ddg, machine, order, ldp, &mut scratch)
    })?;
    let order = &sms.order;
    // Attempt-invariant priority state derived from the SMS order,
    // computed once and shared by every candidate attempt.
    let pos = order_priorities(order, ddg.num_insts());
    // The II ceiling: the paper notes II "can be bounded by the longest
    // critical path in the DDG", so `max(LDP, MII)`, floored by the SMS
    // II as above.
    let ii_max = (ldp as u32).max(m).max(sms.schedule.ii() + 2);
    // The `C_delay` ceiling: the largest Definition-2 sync any schedule
    // at `ii_max` can produce. The paper suggests `II/ncore`, but its
    // own Table 3 has loops (lucas) whose `C_delay` is close to II; the
    // cost order visits large thresholds last, so a generous cap is
    // safe.
    let max_lat = ddg.insts().iter().map(|i| i.latency).max().unwrap_or(1);
    let cd_max = ii_max + max_lat + model.costs.c_reg_com;
    // Candidates are generated lazily in cost order, one shell at a
    // time: a search that resolves (or prunes) early never materialises
    // or sorts the full grid.
    let stream = model.candidate_stream(m, ii_max, cd_max, config.dense_candidates);

    let sms_achieved = crate::metrics::achieved_c_delay(ddg, &sms.schedule, &model.costs);
    let sms_key = model.cost_key(sms.schedule.ii(), sms_achieved);

    // Probe geometry is candidate-invariant: one plan serves every
    // `(II, C_delay, P_max)` attempt.
    let probe_plan = ProbePlan::new(ddg);

    // Placement-independent C1 floor on the C_delay threshold. Every
    // register-flow circuit that carries distance forces some
    // thread-crossing dependence on it to a sync of at least
    // `C_reg_com + ⌈Σw / D⌉` in every legal kernel
    // (`tms_ddg::mii::sync_excess_floor`), so no attempt under the floor
    // can build a schedule that passes verification. The engine would
    // only rediscover that, mostly by burning its ejection budget or
    // building a kernel verification then rejects; such attempts
    // short-circuit to the no-schedule outcome instead. They still
    // count as attempts, so resolution and every reply are unchanged.
    let c_delay_floor: i64 = sync_excess_floor(ddg).map_or(i64::MIN, |f| {
        i64::from(f) + i64::from(model.costs.c_reg_com)
    });

    // Branch-and-bound cuts (see `TmsConfig::prune`). The cost bound
    // needs the SMS incumbent; the `P_max` dedup only needs the loop to
    // be free of memory-flow dependences.
    let cost_bound = config.prune.then_some(sms_key);
    let p_max_dup = config.prune && !ddg.edges().iter().any(|e| e.is_memory_flow());
    // The degradation budget and the safety cap both limit *dispatched*
    // attempts (pruned candidates cost nothing); only the budget is
    // reported as a cut, because exhausting it degrades to SMS while
    // the safety cap falls through to the ordinary resolution paths.
    let budget = config.attempt_budget.unwrap_or(usize::MAX);
    let mut budget_cut = false;
    let search_started = std::time::Instant::now();
    let mut deadline_cut = false;

    // Search accounting. Every dispatched attempt counts, rejections
    // are logged in attempt order, and the first *accepted* schedule
    // resolves the search. A schedule that builds but loses to the SMS
    // baseline under the same eq. 2 cost does *not* resolve: the search
    // keeps going, because a later candidate in cost order can still
    // realise a cheaper key (its achieved C_delay may undercut the
    // threshold it was tried at). This is also what makes the cost
    // lower bound admissible — pruning a candidate whose floor exceeds
    // the SMS key can only skip lost-to-baseline outcomes.
    let mut attempts = 0usize;
    let mut rejected = 0usize;
    let mut lost = 0usize;
    let mut rejects: Vec<CandidateReject> = Vec::new();
    let mut resolution: Option<Accepted> = None;
    let mut pruned_cost = 0usize;
    let mut pruned_pmax = 0usize;

    // Scheduling windows depend only on (DDG, II), not on the C_delay /
    // P_max of the attempt, so the ASAP/ALAP frames are memoised per II
    // across the whole search — including across adjacent II rows the
    // cost shells revisit out of numeric order.
    let mut frames_cache: HashMap<u32, Option<TimeFrames>> = HashMap::new();
    // Per-II decision logs for warm-started attempts, plus the reuse
    // accounting recorded as `tms.reuse.*` after the search.
    let mut warm_logs: HashMap<u32, AttemptLog> = HashMap::new();
    let mut warm_attempts = 0u64;
    let mut steps_replayed = 0u64;
    let mut steps_executed = 0u64;

    // Folded placement profile (`TmsConfig::profile`): merged in
    // candidate order over exactly the dispatched attempts.
    let mut search_prof: Option<PlaceProfile> =
        config.profile.then(|| PlaceProfile::new(ddg.num_insts()));

    // The search: candidates in cost order, each tried with every
    // `P_max` in turn. Prunes cost no attempt — the budget and deadline
    // gates sit *after* the prune checks, so a pruned candidate never
    // trips them — and are classified in a fixed order (`P_max` dedup
    // before the cost bound) so the per-kind counters are
    // deterministic.
    'search: for (ii, c_delay, key) in stream {
        for (p_idx, &p_max) in config.p_max_values.iter().enumerate() {
            if p_max_dup && p_idx != 0 {
                pruned_pmax += 1;
                continue;
            }
            if cost_bound.is_some_and(|b| model.floor_key(ii) > b) {
                pruned_cost += 1;
                continue;
            }
            if attempts >= budget {
                budget_cut = true;
                break 'search;
            }
            if attempts >= MAX_ATTEMPTS {
                break 'search;
            }
            if config
                .deadline
                .is_some_and(|d| search_started.elapsed() >= d)
            {
                deadline_cut = true;
                break 'search;
            }
            attempts += 1;
            trace.count("tms.attempts", 1);

            let frames = frames_cache
                .entry(ii)
                .or_insert_with(|| trace.time("tms.phase.frames", || TimeFrames::compute(ddg, ii)))
                .as_ref();
            // Profiled searches run every attempt cold: warm replay
            // skips the window scans and probes being attributed, so a
            // warm attempt would under-count exactly the hot paths the
            // profiler exists to expose. Cold and warm attempts build
            // byte-identical schedules, so only the timings shift. The
            // log is zeroed up front so an attempt that short-circuits
            // without entering the engine does not re-count the
            // previous attempt's reuse figures.
            let mut log = (config.warm_start && !config.profile).then(|| {
                let log = warm_logs.entry(ii).or_default();
                log.replayed = 0;
                log.executed = 0;
                log
            });
            let mut prof = config.profile.then(|| PlaceProfile::new(ddg.num_insts()));

            // The attempt proper: place under C1/C2, then verify the
            // normalised kernel. `Err` means the engine placed nothing,
            // with the engine's reason when it ran at all.
            let built = {
                let mut span = trace.span("tms", "attempt");
                span.arg("loop", ddg.name());
                span.arg("ii", ii);
                span.arg("c_delay", c_delay);
                span.arg("p_max", p_max);
                let placed = match frames {
                    // Below the C_delay floor no legal kernel exists:
                    // decided without running the engine.
                    Some(frames) if c_delay as i64 >= c_delay_floor => {
                        let policy = TmsPolicy::new(&model.costs, &probe_plan, c_delay, p_max);
                        let t_place = prof.as_ref().map(|_| std::time::Instant::now());
                        let placed = trace.time("tms.phase.place", || {
                            try_schedule(
                                ddg,
                                machine,
                                ii,
                                order,
                                &pos,
                                &policy,
                                frames,
                                &mut scratch,
                                log.as_deref_mut(),
                                prof.as_mut(),
                            )
                        });
                        if let (Some(p), Some(t)) = (&prof, t_place) {
                            // Sub-phase timers, one sample per attempt —
                            // wall clock, excluded from the deterministic
                            // snapshot like `tms.phase.*` — plus the
                            // Perfetto counter tracks for per-attempt
                            // place time and deepest eject chain.
                            let place_ns = t.elapsed().as_nanos() as u64;
                            trace.time_ns("tms.place.scan", p.scan_ns);
                            trace.time_ns("tms.place.probe", p.probe_ns);
                            trace.time_ns("tms.place.fit", p.fit_ns);
                            trace.time_ns("tms.place.eject", p.eject_ns);
                            trace.time_ns("tms.place.force", p.force_ns);
                            trace.counter_sample_now(
                                "tms.counter",
                                || "tms.place.attempt_ns".to_string(),
                                place_ns,
                            );
                            trace.counter_sample_now(
                                "tms.counter",
                                || "tms.place.max_eject_chain".to_string(),
                                p.attempt_max_chain(),
                            );
                        }
                        placed.map_err(Some)
                    }
                    Some(_) => {
                        trace.count("tms.reject.below-floor", 1);
                        Err(None)
                    }
                    None => Err(None),
                };
                // Post-search verification on the *normalised* kernel:
                // the incremental C1/C2 checks run against provisional
                // stages, so the final kernel can exceed the thresholds
                // the slots were accepted under. Every rejection is
                // recorded with its diagnostics.
                placed.map(|schedule| {
                    let min_stages = (ldp as u32).div_ceil(ii.max(1)).max(1);
                    let limits = VerifyLimits {
                        c_delay: Some(c_delay),
                        p_max: Some(p_max),
                        max_stages: Some(min_stages + config.max_extra_stages),
                    };
                    let t_verify = prof.as_ref().map(|_| std::time::Instant::now());
                    let diagnostics = trace.time("tms.phase.verify", || {
                        verify_schedule(ddg, &schedule, machine, &model.costs, &limits)
                    });
                    if let (Some(p), Some(t)) = (prof.as_mut(), t_verify) {
                        let verify_ns = t.elapsed().as_nanos() as u64;
                        p.verify_ns += verify_ns;
                        trace.time_ns("tms.place.verify", verify_ns);
                    }
                    (schedule, diagnostics)
                })
            };

            if let Some(log) = log {
                if log.replayed > 0 {
                    warm_attempts += 1;
                }
                steps_replayed += log.replayed;
                steps_executed += log.executed;
            }
            if let (Some(sp), Some(p)) = (search_prof.as_mut(), &prof) {
                sp.merge(p);
            }
            match built {
                Err(fail) => {
                    trace.count("tms.reject.no-schedule", 1);
                    if fail == Some(FailKind::EjectBudget) {
                        trace.count("tms.reject.eject-budget", 1);
                    }
                }
                Ok((_, diagnostics)) if !diagnostics.is_empty() => {
                    rejected += 1;
                    trace.count("tms.rejected", 1);
                    for d in &diagnostics {
                        trace.count_keyed("tms.reject.", d.kind(), 1);
                    }
                    if rejects.len() < REJECT_LOG_CAP {
                        rejects.push(CandidateReject {
                            ii,
                            c_delay,
                            p_max,
                            diagnostics,
                        });
                    }
                }
                Ok((schedule, _)) => {
                    let achieved = crate::metrics::achieved_c_delay(ddg, &schedule, &model.costs);
                    let tms_key = model.cost_key(ii, achieved);
                    // The achieved C_delay is ≤ the candidate threshold
                    // and the cost key is monotone in C_delay, so the
                    // candidate key is an upper bound on the realised
                    // key.
                    debug_assert!(
                        tms_key <= key,
                        "achieved key {tms_key:?} exceeds candidate bound {key:?}"
                    );
                    if sms_key < tms_key {
                        lost += 1;
                        trace.count("tms.reject.lost-to-baseline", 1);
                    } else {
                        resolution = Some(Accepted {
                            schedule,
                            ii,
                            c_delay,
                            p_max,
                            tms_key,
                        });
                        break 'search;
                    }
                }
            }
        }
    }

    // Pruning counters are recorded once, after the search. `count`
    // always inserts the key, so the schema holds even at zero.
    let pruned = pruned_cost + pruned_pmax;
    trace.count("tms.pruned.cost-bound", pruned_cost as u64);
    trace.count("tms.pruned.p-max-dup", pruned_pmax as u64);
    // Warm-start reuse accounting: attempts that replayed ≥ 1 recorded
    // step, and the step totals replayed vs executed cold.
    trace.count("tms.reuse.warm-attempts", warm_attempts);
    trace.count("tms.reuse.steps-replayed", steps_replayed);
    trace.count("tms.reuse.steps-executed", steps_executed);
    trace.record("tms.pruned_per_loop", pruned as u64);
    trace.record("tms.attempts_per_loop", attempts as u64);
    // Wall-clock counter track: attempts spent on each loop, sampled
    // as the scheduler finishes it, so a sweep's hot loops stand out
    // as spikes in Perfetto.
    trace.counter_sample_now(
        "tms.counter",
        || "tms.attempts_per_loop".to_string(),
        attempts as u64,
    );
    // Placement attribution (`TmsConfig::profile`): recorded here, once,
    // from the folded profile, so the counters and value histograms land
    // in the deterministic snapshot. The per-attempt wall-clock timers
    // were flushed during the search and live only in the
    // (non-deterministic) timers section.
    if let Some(p) = &search_prof {
        trace.count("tms.place.scans", p.scans);
        trace.count("tms.place.forced", p.forced);
        trace.count("tms.place.ejected", p.ejected);
        trace.count("tms.place.probe.accept-fast", p.probe_accept_fast);
        trace.count("tms.place.probe.accept-generic", p.probe_accept_generic);
        trace.count("tms.place.probe.c1-reject-fast", p.probe_c1_fast);
        trace.count("tms.place.probe.c1-reject-generic", p.probe_c1_generic);
        trace.count("tms.place.probe.c2-reject-fast", p.probe_c2_fast);
        trace.count("tms.place.probe.c2-reject-generic", p.probe_c2_generic);
        trace.record_histogram("tms.place.eject_chain_depth", &p.eject_chain_depth);
        trace.record_histogram("tms.place.forced_per_attempt", &p.forced_per_attempt);
    }
    match resolution {
        Some(Accepted {
            schedule,
            ii,
            c_delay,
            p_max,
            tms_key,
        }) => {
            trace.count("tms.accepted", 1);
            Ok(TmsResult {
                schedule,
                mii: m,
                ldp,
                ii,
                c_delay_threshold: c_delay,
                p_max,
                cost_key: tms_key,
                fell_back_to_sms: false,
                attempts,
                rejected_candidates: rejected,
                rejects,
                pruned,
                lost_to_baseline: lost,
                budget_cut: false,
                deadline_cut: false,
                degraded: None,
                profile: search_prof,
            })
        }
        // An unresolved sweep (every built schedule lost to the SMS
        // baseline, or nothing built at all) falls back to SMS. A
        // search its budget (attempts or deadline) cut short falls back
        // too, and is reported as degraded: degrading to SMS is an
        // operational answer, erroring would lose the loop.
        None => {
            let degraded = (budget_cut || deadline_cut).then(|| {
                trace.count("tms.degraded_to_sms", 1);
                Diagnostic::DegradedToSms {
                    loop_name: ddg.name().to_string(),
                    attempts,
                    budget: config.attempt_budget.unwrap_or(0),
                }
            });
            trace.count("tms.fallback", 1);
            let ii = sms.schedule.ii();
            Ok(TmsResult {
                schedule: sms.schedule,
                mii: m,
                ldp,
                ii,
                c_delay_threshold: sms_achieved,
                p_max: 1.0,
                cost_key: sms_key,
                fell_back_to_sms: true,
                attempts,
                rejected_candidates: rejected,
                rejects,
                pruned,
                lost_to_baseline: lost,
                budget_cut,
                deadline_cut,
                degraded,
                profile: search_prof,
            })
        }
    }
}

/// The accepted candidate that resolved the search. A built schedule
/// that loses to the SMS baseline does *not* resolve — the fold counts
/// it and keeps searching — so `None` after the sweep means "fall back
/// to SMS".
struct Accepted {
    schedule: Schedule,
    ii: u32,
    c_delay: u32,
    p_max: f64,
    tms_key: CostKey,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::achieved_c_delay;
    use crate::sms::schedule_sms;
    use tms_ddg::{DdgBuilder, OpClass};
    use tms_machine::ArchParams;

    fn machine() -> MachineModel {
        MachineModel::icpp2008()
    }

    fn model(ncore: u32) -> CostModel {
        CostModel::new(ArchParams::icpp2008().costs, ncore)
    }

    /// A loop shaped like the motivating example: a long recurrence
    /// fixing II, plus a producer feeding the next iteration's start.
    fn motivating_shape() -> Ddg {
        let mut b = DdgBuilder::new("shape");
        let n0 = b.inst_lat("n0", OpClass::Load, 3);
        let n1 = b.inst_lat("n1", OpClass::IntAlu, 1);
        let n2 = b.inst_lat("n2", OpClass::IntAlu, 1);
        let n4 = b.inst_lat("n4", OpClass::IntAlu, 2);
        let n5 = b.inst_lat("n5", OpClass::Store, 1);
        let n6 = b.inst_lat("n6", OpClass::IntAlu, 1);
        b.reg_flow(n0, n1, 0);
        b.reg_flow(n1, n2, 0);
        b.reg_flow(n2, n4, 0);
        b.reg_flow(n4, n5, 0);
        // As in Figure 1, the recurrence closes through a *memory*
        // dependence with small probability — that is exactly what TMS
        // speculates on. RecII is still 8 (modulo scheduling respects
        // memory dependences regardless of probability).
        b.mem_flow(n5, n0, 1, 0.01);
        b.reg_flow(n6, n0, 1); // cross-thread register dependence
        b.reg_flow(n6, n6, 1);
        b.mem_flow(n5, n2, 1, 0.02);
        b.build().unwrap()
    }

    #[test]
    fn tms_reduces_sync_delay_vs_sms() {
        let g = motivating_shape();
        let costs = ArchParams::icpp2008().costs;
        let sms = schedule_sms(&g, &machine()).unwrap();
        let tms = schedule_tms(&g, &machine(), &model(2), &TmsConfig::default()).unwrap();
        assert!(!tms.fell_back_to_sms);
        let sms_cd = achieved_c_delay(&g, &sms.schedule, &costs);
        let tms_cd = achieved_c_delay(&g, &tms.schedule, &costs);
        assert!(
            tms_cd < sms_cd,
            "TMS C_delay {tms_cd} should beat SMS {sms_cd}"
        );
    }

    #[test]
    fn tms_schedule_is_legal() {
        let g = motivating_shape();
        let r = schedule_tms(&g, &machine(), &model(4), &TmsConfig::default()).unwrap();
        assert!(r.schedule.check_legal(&g).is_none());
        assert!(r.schedule.check_resources(&g, &machine()));
    }

    #[test]
    fn tms_honours_its_own_threshold() {
        let g = motivating_shape();
        let costs = ArchParams::icpp2008().costs;
        let r = schedule_tms(&g, &machine(), &model(4), &TmsConfig::default()).unwrap();
        if !r.fell_back_to_sms {
            let achieved = achieved_c_delay(&g, &r.schedule, &costs);
            assert!(
                achieved <= r.c_delay_threshold,
                "achieved {achieved} > threshold {}",
                r.c_delay_threshold
            );
        }
    }

    #[test]
    fn doall_loop_schedules_with_minimal_c_delay() {
        // No loop-carried register deps at all: any C_delay works, so
        // TMS should accept the very first (cheapest) candidate.
        let mut b = DdgBuilder::new("doall");
        let l = b.inst("ld", OpClass::Load);
        let m = b.inst("mul", OpClass::FpMul);
        let s = b.inst("st", OpClass::Store);
        b.reg_flow(l, m, 0);
        b.reg_flow(m, s, 0);
        let g = b.build().unwrap();
        let model = model(4);
        let r = schedule_tms(&g, &machine(), &model, &TmsConfig::default()).unwrap();
        assert!(!r.fell_back_to_sms);
        assert_eq!(r.c_delay_threshold, model.costs.min_c_delay());
    }

    #[test]
    fn zero_p_max_synchronises_everything() {
        // With P_max = 0 any non-preserved speculated dependence is
        // rejected; the loop below can only be scheduled by making the
        // memory dependence preserved (or falling back to SMS whose
        // serialising delays preserve it accidentally).
        let g = motivating_shape();
        let r = schedule_tms(&g, &machine(), &model(4), &TmsConfig::no_speculation()).unwrap();
        // Whatever path was taken, the result must be legal.
        assert!(r.schedule.check_legal(&g).is_none());
    }

    #[test]
    fn exhausted_attempt_budget_degrades_to_sms() {
        let g = motivating_shape();
        // One attempt is nowhere near enough for this loop (its
        // cheapest candidates fail C1/C2), so the search must degrade
        // instead of erroring.
        let cfg = TmsConfig {
            attempt_budget: Some(1),
            ..TmsConfig::default()
        };
        let r = schedule_tms(&g, &machine(), &model(4), &cfg).unwrap();
        assert!(r.fell_back_to_sms);
        assert!(r.attempts <= 1);
        match &r.degraded {
            Some(Diagnostic::DegradedToSms {
                loop_name, budget, ..
            }) => {
                assert_eq!(loop_name, "shape");
                assert_eq!(*budget, 1);
            }
            other => panic!("expected DegradedToSms, got {other:?}"),
        }
        // The degraded schedule is still the legal SMS kernel.
        assert!(r.schedule.check_legal(&g).is_none());
        assert!(r.schedule.check_resources(&g, &machine()));
    }

    #[test]
    fn zero_deadline_degrades_before_the_first_attempt() {
        let g = motivating_shape();
        let cfg = TmsConfig {
            deadline: Some(std::time::Duration::ZERO),
            ..TmsConfig::default()
        };
        let r = schedule_tms(&g, &machine(), &model(4), &cfg).unwrap();
        assert!(r.fell_back_to_sms);
        assert_eq!(r.attempts, 0);
        assert!(matches!(r.degraded, Some(Diagnostic::DegradedToSms { .. })));
    }

    #[test]
    fn generous_budget_is_not_reported_as_degraded() {
        let g = motivating_shape();
        let cfg = TmsConfig {
            attempt_budget: Some(1_000_000),
            ..TmsConfig::default()
        };
        let r = schedule_tms(&g, &machine(), &model(2), &cfg).unwrap();
        assert!(!r.fell_back_to_sms);
        assert!(r.degraded.is_none());
    }

    #[test]
    fn budget_and_deadline_cuts_are_reported_distinctly() {
        let g = motivating_shape();
        // Attempt budget: budget_cut set, deadline_cut not.
        let r = schedule_tms(
            &g,
            &machine(),
            &model(4),
            &TmsConfig {
                attempt_budget: Some(1),
                ..TmsConfig::default()
            },
        )
        .unwrap();
        assert!(r.budget_cut, "budget of 1 must report a budget cut");
        assert!(!r.deadline_cut);
        // Wall-clock deadline of zero: deadline_cut set, budget_cut not.
        let r = schedule_tms(
            &g,
            &machine(),
            &model(4),
            &TmsConfig {
                deadline: Some(std::time::Duration::ZERO),
                ..TmsConfig::default()
            },
        )
        .unwrap();
        assert!(r.deadline_cut, "zero deadline must report a deadline cut");
        assert!(!r.budget_cut);
        // An accepted schedule reports neither.
        let r = schedule_tms(&g, &machine(), &model(4), &TmsConfig::default()).unwrap();
        assert!(!r.fell_back_to_sms);
        assert!(!r.budget_cut && !r.deadline_cut);
    }

    /// The branch-and-bound cuts must change accounting only: prune on
    /// and off resolve to the same schedule, and on a loop with no
    /// memory-flow dependence the `P_max` dedup visibly fires.
    #[test]
    fn pruning_preserves_resolution_and_fires_on_mem_free_loops() {
        let mut b = DdgBuilder::new("mem_free");
        let l = b.inst("ld", OpClass::Load);
        let a = b.inst("add", OpClass::IntAlu);
        let s = b.inst("st", OpClass::Store);
        b.reg_flow(l, a, 0);
        b.reg_flow(a, s, 0);
        b.reg_flow(a, a, 1);
        let g = b.build().unwrap();
        let model = model(4);
        for g in [&g, &motivating_shape()] {
            let bnb = schedule_tms(
                g,
                &machine(),
                &model,
                &TmsConfig {
                    prune: true,
                    ..TmsConfig::default()
                },
            )
            .unwrap();
            let exh = schedule_tms(
                g,
                &machine(),
                &model,
                &TmsConfig {
                    prune: false,
                    ..TmsConfig::default()
                },
            )
            .unwrap();
            let times = |r: &TmsResult| -> Vec<i64> {
                (0..g.num_insts())
                    .map(|i| r.schedule.time(InstId(i as u32)))
                    .collect()
            };
            assert_eq!(times(&bnb), times(&exh), "{}", g.name());
            assert_eq!(bnb.ii, exh.ii, "{}", g.name());
            assert_eq!(bnb.cost_key, exh.cost_key, "{}", g.name());
            assert_eq!(bnb.fell_back_to_sms, exh.fell_back_to_sms, "{}", g.name());
            assert_eq!(exh.pruned, 0, "exhaustive search must not prune");
            assert!(
                bnb.attempts <= exh.attempts,
                "pruning may only remove attempts"
            );
        }
        // The mem-free loop resolves on its very first candidate, so
        // nothing is pruned *before* resolution — but rebuilding with a
        // budget forces the sweep deeper and the dedup must bite.
        let deep = schedule_tms(
            &g,
            &machine(),
            &model,
            &TmsConfig {
                prune: true,
                p_max_values: vec![0.01, 0.05, 0.20],
                attempt_budget: Some(5),
                ..TmsConfig::default()
            },
        )
        .unwrap();
        // Resolution on the first dispatched attempt leaves pruned at
        // 0; if the loop was instead swept, the dedup fired. Either
        // way, dispatched attempts never repeat a P_max duplicate:
        // attempts ≤ the number of distinct (II, C_delay) candidates
        // examined. A sanity bound suffices here — the equivalence
        // property test covers the exact accounting.
        assert!(deep.attempts <= 5);
    }

    #[test]
    fn lost_to_baseline_keeps_searching_instead_of_resolving() {
        // Any loop where some candidate builds a schedule worse than
        // SMS exercises the continue path; the motivating shape with a
        // generous sweep does. The invariant: a result that did not
        // fall back has a key no worse than SMS, *and* any recorded
        // lost_to_baseline outcomes did not stop the search from
        // finding it.
        let g = motivating_shape();
        let model = model(4);
        let r = schedule_tms(&g, &machine(), &model, &TmsConfig::default()).unwrap();
        let sms = schedule_sms(&g, &machine()).unwrap();
        let sms_key = model.cost_key(
            sms.schedule.ii(),
            achieved_c_delay(&g, &sms.schedule, &ArchParams::icpp2008().costs),
        );
        if !r.fell_back_to_sms {
            assert!(r.cost_key <= sms_key);
        }
        // The accounting identity: every dispatched attempt is exactly
        // one of accepted / no-schedule / rejected / lost-to-baseline.
        // (no-schedule outcomes are the remainder.)
        assert!(r.rejected_candidates + r.lost_to_baseline < r.attempts + 1);
    }

    #[test]
    fn c_delay_floor_short_circuit_matches_engine_outcome() {
        // The search short-circuits attempts whose C_delay threshold
        // sits below the register-circuit floor (`sync_excess_floor`
        // plus C_reg_com). This test discharges the proof obligation on
        // two loops: a high-latency self recurrence, whose sync is the
        // exact constant `latency + C_reg_com`, and a three-node circuit
        // whose floor exceeds its self edge's. It runs the engine
        // directly at doomed thresholds: each run must find no schedule
        // or build one that verification rejects for an exceeded sync.
        // The full search must then resolve at or above the floor.
        let costs = ArchParams::icpp2008().costs;
        let mut b = DdgBuilder::new("self-recurrence");
        let a = b.inst_lat("a", OpClass::FpDiv, 12);
        let c = b.inst("c", OpClass::IntAlu);
        b.reg_flow(a, a, 1); // sync fixed at 12 + C_reg_com
        b.reg_flow(a, c, 0);
        let self_rec = b.build().unwrap();
        let mut b = DdgBuilder::new("circuit");
        let x = b.inst_lat("x", OpClass::FpDiv, 12);
        let y = b.inst_lat("y", OpClass::FpMul, 4);
        let z = b.inst_lat("z", OpClass::FpAdd, 2);
        b.reg_flow(x, y, 0);
        b.reg_flow(y, z, 0);
        b.reg_flow(z, x, 1); // Σw = 18 at distance 1
        b.reg_flow(z, z, 1); // self-edge floor only 2
        let circuit = b.build().unwrap();

        let m = machine();
        let model = model(4);
        for (g, excess, iis) in [(self_rec, 12, [12u32, 16, 24]), (circuit, 18, [18, 24, 36])] {
            let name = g.name();
            assert_eq!(sync_excess_floor(&g), Some(excess), "{name}");
            let floor = excess + costs.c_reg_com;
            let order = sms_order(&g);
            let pos = order_priorities(&order, g.num_insts());
            let mut scratch = SchedScratch::new();
            let plan = ProbePlan::new(&g);
            for ii in iis {
                let frames = TimeFrames::compute(&g, ii).unwrap();
                for c_delay in [costs.min_c_delay(), floor - 1] {
                    let policy = TmsPolicy::new(&costs, &plan, c_delay, 1.0);
                    let got = try_schedule(
                        &g,
                        &m,
                        ii,
                        &order,
                        &pos,
                        &policy,
                        &frames,
                        &mut scratch,
                        None,
                        None,
                    );
                    if let Ok(schedule) = got {
                        let limits = VerifyLimits {
                            c_delay: Some(c_delay),
                            ..VerifyLimits::default()
                        };
                        let diagnostics = verify_schedule(&g, &schedule, &m, &costs, &limits);
                        assert!(
                            diagnostics
                                .iter()
                                .any(|d| matches!(d, Diagnostic::SyncExceeded { .. })),
                            "{name}: a kernel at C_delay {c_delay} < floor {floor} (ii {ii}) \
                             passed C1: {diagnostics:?}"
                        );
                    }
                }
            }

            let r = schedule_tms(&g, &m, &model, &TmsConfig::default()).unwrap();
            if !r.fell_back_to_sms {
                assert!(
                    r.c_delay_threshold >= floor,
                    "{name}: resolved below the provable C_delay floor"
                );
            }
            assert!(achieved_c_delay(&g, &r.schedule, &costs) >= floor, "{name}");
        }
    }

    #[test]
    fn tms_cost_never_worse_than_sms_cost() {
        let g = motivating_shape();
        let costs = ArchParams::icpp2008().costs;
        let model = model(4);
        let sms = schedule_sms(&g, &machine()).unwrap();
        let sms_key = model.cost_key(
            sms.schedule.ii(),
            achieved_c_delay(&g, &sms.schedule, &costs),
        );
        let tms = schedule_tms(&g, &machine(), &model, &TmsConfig::default()).unwrap();
        assert!(
            tms.cost_key <= sms_key,
            "TMS key {:?} worse than SMS {:?}",
            tms.cost_key,
            sms_key
        );
    }
}
