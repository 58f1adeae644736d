//! Swing modulo scheduling (SMS) — the baseline the paper builds on —
//! and the shared scheduling engine that TMS plugs into.
//!
//! The engine walks the SMS node order, computes each node's scheduling
//! window and places it at the first candidate cycle that is (a)
//! resource-feasible in the MRT and (b) accepted by a [`SlotPolicy`].
//! SMS's policy accepts everything (pure "lifetime-minimal" placement);
//! TMS's policy (in [`crate::tms`]) adds the C1/C2 thread-sensitivity
//! checks of Figure 3 — exactly how the paper describes TMS "dropping
//! into" SMS.

use crate::order::sms_order;
use crate::profile::PlaceProfile;
use crate::schedule::{PartialSchedule, Schedule};
use crate::warm::{AttemptLog, FailKind, Probe, Step, StepAction};
use crate::window::{force_floor_with, window_into, WindowScratch};
use std::time::Instant;
use tms_ddg::analysis::{AcyclicPriorities, TimeFrames};
use tms_ddg::{Ddg, InstId};
use tms_machine::{mii, MachineModel};

/// Reusable per-worker buffers for repeated scheduling attempts.
///
/// One [`try_schedule`] attempt needs a partial schedule (times +
/// MRT), a forced-slot floor, the window buffers, the forced scan's
/// cycles, the ejection lists and the probe list a warm log records
/// each step from. The TMS
/// search makes hundreds to thousands of attempts per loop, and the
/// workload sweeps schedule hundreds of loops — hoisting those
/// allocations into a scratch that each worker thread owns removes the
/// allocator from the inner loop, except for the exact-size copies a
/// recorded step keeps. A scratch is plain state: dropping it any time
/// is safe, and reusing it never changes results.
#[derive(Default)]
pub struct SchedScratch {
    ps: Option<PartialSchedule>,
    earliest: Vec<i64>,
    win: WindowScratch,
    occupants: Vec<InstId>,
    /// Row occupants a forced placement evicts.
    ejected: Vec<InstId>,
    /// Neighbours a forced placement evicts for violated dependences.
    ejected_after: Vec<InstId>,
    /// Probes of the current step, copied into the log when recording.
    probes: Vec<Probe>,
    /// Cycles a forced placement scans: `floor..floor + II`.
    forced: Vec<i64>,
}

impl SchedScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Forced placements one engine attempt may make per instruction of
/// the loop before it gives up at this II. The paper's SMS never
/// ejects; the forced-placement fallback follows Rau's IMS, where this
/// ratio is a tunable. Chosen by the sweep in DESIGN.md §5: the smallest
/// ratio that still schedules every loop of every family, adds no
/// pooled TMS simulated cycles on Fig. 4 and at most 0.1% to SMS's.
pub const EJECT_BUDGET_PER_INST: usize = 2;

/// Floor of the per-attempt ejection budget, so small loops keep room
/// for a few ejection cascades.
pub const EJECT_BUDGET_MIN: usize = 100;

/// Per-slot admission control: the hook that turns SMS into TMS.
pub trait SlotPolicy {
    /// The verdict on placing `v` at `cycle` given the current partial
    /// schedule, with the knob-independent facts behind it for
    /// warm-start replay (see [`crate::warm`]). Resource feasibility is
    /// the engine's concern, not the policy's.
    fn probe(&self, ddg: &Ddg, ps: &PartialSchedule, v: InstId, cycle: i64) -> Probe;

    /// Would a probe recorded by an earlier attempt yield the same
    /// verdict under this policy's current knobs? `false` is always
    /// safe — the engine falls back to a cold evaluation of the step.
    fn probe_holds(&self, _probe: &Probe) -> bool {
        false
    }

    /// First cycle of `cycles` (in order) the policy accepts, or `None`,
    /// and whether a specialised fast path rather than [`generic_scan`]
    /// produced the verdicts (the flag only splits the placement
    /// profiler's probe attribution). With `fit`, resource-blocked
    /// cycles are skipped without a probe; without it (forced
    /// placement) resources are not checked and the engine ejects
    /// occupants afterwards. Every probe is pushed onto `probes` in
    /// scan order. Policies may override this with an equivalent faster
    /// scan; the contract is byte-identical results *and* recordings.
    fn scan(
        &self,
        ddg: &Ddg,
        ps: &PartialSchedule,
        v: InstId,
        cycles: &[i64],
        fit: bool,
        probes: &mut Vec<Probe>,
    ) -> (Option<i64>, bool) {
        (generic_scan(self, ddg, ps, v, cycles, fit, probes), false)
    }
}

/// The reference scan every [`SlotPolicy::scan`] override must agree
/// with: the first (with `fit`, resource-feasible) policy-accepted
/// cycle, probing and recording in scan order.
pub fn generic_scan<P: SlotPolicy + ?Sized>(
    policy: &P,
    ddg: &Ddg,
    ps: &PartialSchedule,
    v: InstId,
    cycles: &[i64],
    fit: bool,
    probes: &mut Vec<Probe>,
) -> Option<i64> {
    for &c in cycles {
        if fit && !ps.fits(ddg, v, c) {
            continue;
        }
        let probe = policy.probe(ddg, ps, v, c);
        probes.push(probe);
        if probe.accepted() {
            return Some(c);
        }
    }
    None
}

/// SMS's policy: any resource-feasible slot in the window is fine.
pub struct AcceptAll;

impl SlotPolicy for AcceptAll {
    #[inline]
    fn probe(&self, _ddg: &Ddg, _ps: &PartialSchedule, _v: InstId, _cycle: i64) -> Probe {
        Probe::Accept {
            sync_max: i64::MIN,
            misspec: None,
        }
    }
}

/// Why scheduling failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// No II up to the configured bound admitted a schedule.
    NoScheduleFound {
        /// The loop that failed.
        loop_name: String,
        /// Largest II tried.
        ii_tried: u32,
    },
    /// The machine lacks a unit class the loop requires.
    Unschedulable {
        /// The loop that failed.
        loop_name: String,
    },
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::NoScheduleFound {
                loop_name,
                ii_tried,
            } => {
                write!(f, "no schedule for '{loop_name}' up to II={ii_tried}")
            }
            SchedError::Unschedulable { loop_name } => {
                write!(f, "'{loop_name}' needs units the machine lacks")
            }
        }
    }
}

impl std::error::Error for SchedError {}

/// Priority map of a node order: `result[n] = position of n in order`
/// (lower = higher priority). Attempt-invariant — callers compute it
/// once per loop and pass it to every [`try_schedule`] call.
pub fn order_priorities(order: &[InstId], num_insts: usize) -> Vec<usize> {
    let mut pos = vec![usize::MAX; num_insts];
    for (i, &n) in order.iter().enumerate() {
        pos[n.index()] = i;
    }
    pos
}

/// Attempt to schedule `ddg` at a fixed `ii` under `policy`, using the
/// supplied node `order` and its priority map `pos` (see
/// [`order_priorities`]). When some node finds no slot, returns the
/// [`FailKind`] of the engine exit that gave up.
///
/// The caller supplies the [`TimeFrames`] for this `ii` (memoizable
/// across attempts at the same II) and a [`SchedScratch`] whose buffers
/// are reused across attempts.
///
/// When every slot of a non-empty window is resource-blocked, the
/// engine falls back to Rau-style **ejection**: the node takes the
/// window's preferred slot and the lowest-priority occupants of that
/// modulo row are unscheduled and retried later. This handles the
/// width-1 `Both` windows that tight recurrences produce, where
/// increasing II alone can never resolve the conflict (zero-distance
/// chains keep their relative positions at every II). A budget of
/// `max(EJECT_BUDGET_PER_INST · n, EJECT_BUDGET_MIN)` forced placements
/// bounds the ejection churn; on exhaustion the attempt fails with
/// [`FailKind::EjectBudget`] and the II is rejected as usual.
///
/// With `log = Some(..)` the attempt warm-starts from an
/// [`AttemptLog`] (see [`crate::warm`]): the log carries the decision
/// trace of the previous attempt on this loop at this `ii`; steps whose
/// recorded policy verdicts still hold under `policy`'s current knobs
/// are applied without recomputing windows or consulting the policy,
/// and the remainder runs cold, refreshing the log. A log recorded for
/// another loop or II is cleared first, so results are byte-identical
/// to the cold call; the log only changes how much work is recomputed.
/// The log must come from attempts that used this same `order`.
///
/// With `prof = Some(..)` the placement profiler observes the attempt
/// (see [`crate::profile`]): per-node attribution, probe outcomes,
/// eject accounting and sub-phase wall-clock accumulators. The profiler
/// only observes; callers profile cold attempts (no log) so that
/// attribution covers every decision.
#[allow(clippy::too_many_arguments)]
pub fn try_schedule(
    ddg: &Ddg,
    machine: &MachineModel,
    ii: u32,
    order: &[InstId],
    pos: &[usize],
    policy: &dyn SlotPolicy,
    frames: &TimeFrames,
    scratch: &mut SchedScratch,
    log: Option<&mut AttemptLog>,
    mut prof: Option<&mut PlaceProfile>,
) -> Result<Schedule, FailKind> {
    debug_assert_eq!(frames.ii, ii, "frames computed for a different II");
    let mut ps = match scratch.ps.take() {
        Some(mut ps) => {
            ps.reset_for(ddg, ii, machine);
            ps
        }
        None => PartialSchedule::new(ddg, ii, machine),
    };
    if let Some(p) = prof.as_deref_mut() {
        p.begin_attempt();
    }
    let complete = schedule_all(
        ddg,
        &mut ps,
        ii,
        order,
        pos,
        policy,
        frames,
        scratch,
        log,
        prof.as_deref_mut(),
    );
    if let Some(p) = prof {
        p.end_attempt();
    }
    let out = complete.map(|()| ps.snapshot(ddg));
    scratch.ps = Some(ps);
    out
}

/// The engine proper: place every node or report failure. Split from
/// [`try_schedule`] so the partial schedule can be returned to the
/// scratch on every exit path.
///
/// With `log = Some(..)` the engine first replays the log's validated
/// prefix (see [`crate::warm`]), then runs the cold loop from the
/// resulting state, recording every executed step. With `None` it is
/// the plain cold engine. Both modes take byte-identical decisions.
///
/// With `prof = Some(..)` the placement profiler observes the cold
/// loop: per-node attribution, probe classification, eject accounting
/// and sub-phase wall clocks (see [`crate::profile`]). Steps applied by
/// warm replay skip the scans being attributed and are therefore *not*
/// profiled — the TMS search runs profiled attempts cold so attribution
/// covers every decision.
#[allow(clippy::too_many_arguments)]
fn schedule_all(
    ddg: &Ddg,
    ps: &mut PartialSchedule,
    ii: u32,
    order: &[InstId],
    pos: &[usize],
    policy: &dyn SlotPolicy,
    frames: &TimeFrames,
    scratch: &mut SchedScratch,
    mut log: Option<&mut AttemptLog>,
    mut prof: Option<&mut PlaceProfile>,
) -> Result<(), FailKind> {
    let mut eject_budget = (ddg.num_insts() * EJECT_BUDGET_PER_INST).max(EJECT_BUDGET_MIN);
    // Adjacency and topological rank for the window bounds: DDG-static,
    // memoized on the graph's uid and reused by every probe below.
    scratch.win.prepare(ddg);
    // Monotone forced-slot floor per node (IMS forward progress).
    let earliest = &mut scratch.earliest;
    earliest.clear();
    earliest.resize(ddg.num_insts(), i64::MIN);

    // --- Warm replay: apply the log's prefix while its recorded
    // verdicts still hold under the current policy knobs. A validated
    // step is exactly the step the cold loop would take from this
    // state, so applying it directly — no window computation, no
    // policy calls — preserves byte-identical behaviour. The first
    // diverging step truncates the log; the cold loop below resumes
    // from the intermediate state (its cursor rescan skips whatever is
    // already placed) and appends fresh steps. A log recorded for
    // another loop or II describes some other search and is cleared.
    if let Some(log) = log.as_deref_mut() {
        let key = Some((ddg.uid(), ii));
        if log.recorded_for != key {
            log.steps.clear();
            log.recorded_for = key;
        }
        log.replayed = 0;
        log.executed = 0;
        let mut upto = 0usize;
        'replay: for step in &log.steps {
            if !step.probes.iter().all(|p| policy.probe_holds(p)) {
                break 'replay;
            }
            match &step.action {
                StepAction::Place { v, cycle } => ps.place(ddg, *v, *cycle),
                StepAction::Force {
                    v,
                    cycle,
                    eject_before,
                    eject_after,
                } => {
                    debug_assert!(eject_budget > 0, "replay exceeded the cold budget");
                    eject_budget -= 1;
                    scratch.earliest[v.index()] = cycle + 1;
                    for &n in eject_before.iter() {
                        ps.remove(ddg, n);
                    }
                    ps.place(ddg, *v, *cycle);
                    for &n in eject_after.iter() {
                        ps.remove(ddg, n);
                    }
                }
                StepAction::Fail(kind) => {
                    // The whole attempt still fails at this step; the
                    // partial state is discarded by the caller, so the
                    // recorded post-probe mutations need not be applied.
                    log.replayed = (upto + 1) as u64;
                    return Err(*kind);
                }
            }
            upto += 1;
        }
        log.replayed = upto as u64;
        log.steps.truncate(upto);
    }
    let profiling = prof.is_some();

    // Next-unplaced cursor: nodes before it are placed, so the common
    // (ejection-free) path walks `order` once instead of rescanning it
    // per placement. Ejections unplace arbitrary nodes — rewind.
    let mut cursor = 0usize;
    while let Some(off) = order[cursor..].iter().position(|&n| !ps.is_placed(n)) {
        cursor += off;
        let v = order[cursor];
        let t_scan = profiling.then(Instant::now);
        window_into(ddg, ps, frames, v, &mut scratch.win);
        if let Some(p) = prof.as_deref_mut() {
            p.scan_ns += t_scan.unwrap().elapsed().as_nanos() as u64;
            p.note_scan(v);
        }
        scratch.probes.clear();
        let t_probe = profiling.then(Instant::now);
        let (slot, fast) = policy.scan(ddg, ps, v, &scratch.win.cycles, true, &mut scratch.probes);
        if let Some(p) = prof.as_deref_mut() {
            p.probe_ns += t_probe.unwrap().elapsed().as_nanos() as u64;
            p.classify_probes(&scratch.probes, fast);
        }
        match slot {
            Some(c) => {
                let t_fit = profiling.then(Instant::now);
                ps.place(ddg, v, c);
                if let Some(p) = prof.as_deref_mut() {
                    p.fit_ns += t_fit.unwrap().elapsed().as_nanos() as u64;
                }
                cursor += 1;
                if let Some(log) = log.as_deref_mut() {
                    log.executed += 1;
                    log.steps.push(Step {
                        probes: scratch.probes.as_slice().into(),
                        action: StepAction::Place { v, cycle: c },
                    });
                }
            }
            None => {
                if eject_budget == 0 {
                    return Err(record_fail(log, &scratch.probes, FailKind::EjectBudget));
                }
                eject_budget -= 1;
                // IMS forced placement: take a slot at or after the
                // window's lower bound (the predecessor-derived floor
                // when the window is empty), never earlier than the
                // last forced slot for v plus one (guaranteed
                // progress), ejecting whoever is in the way — both the
                // row's resource occupants and any neighbour whose
                // dependence the forced slot violates. Violations
                // against non-adjacent placed nodes surface as empty
                // windows of the nodes in between, which then force in
                // turn — the cascade terminates because every floor is
                // monotone and the budget is finite.
                let t_floor = profiling.then(Instant::now);
                let lb = match scratch.win.cycles.iter().min().copied() {
                    Some(lb) => lb,
                    None => force_floor_with(ddg, ps, frames, v, &mut scratch.win),
                };
                let floor = lb.max(scratch.earliest[v.index()]);
                if let Some(p) = prof.as_deref_mut() {
                    // The forced floor's lower sweep is window work.
                    p.scan_ns += t_floor.unwrap().elapsed().as_nanos() as u64;
                }
                let probes_pre_force = scratch.probes.len();
                let t_force = profiling.then(Instant::now);
                scratch.forced.clear();
                scratch.forced.extend(floor..floor + ii as i64);
                let (forced, fast) =
                    policy.scan(ddg, ps, v, &scratch.forced, false, &mut scratch.probes);
                if let Some(p) = prof.as_deref_mut() {
                    p.force_ns += t_force.unwrap().elapsed().as_nanos() as u64;
                    p.classify_probes(&scratch.probes[probes_pre_force..], fast);
                }
                let Some(c) = forced else {
                    return Err(record_fail(log, &scratch.probes, FailKind::NoForcedSlot));
                };
                scratch.earliest[v.index()] = c + 1;
                scratch.ejected.clear();
                let t_eject = profiling.then(Instant::now);
                eject_row_conflicts(
                    ddg,
                    ps,
                    v,
                    c,
                    pos,
                    &mut scratch.occupants,
                    &mut scratch.ejected,
                );
                if let Some(p) = prof.as_deref_mut() {
                    p.eject_ns += t_eject.unwrap().elapsed().as_nanos() as u64;
                    for &n in &scratch.ejected {
                        p.note_ejected(n);
                    }
                }
                let t_fit = profiling.then(Instant::now);
                if !ps.fits(ddg, v, c) {
                    return Err(record_fail(log, &scratch.probes, FailKind::ForcedUnfit));
                }
                ps.place(ddg, v, c);
                if let Some(p) = prof.as_deref_mut() {
                    p.fit_ns += t_fit.unwrap().elapsed().as_nanos() as u64;
                }
                let t_eject2 = profiling.then(Instant::now);
                scratch.ejected_after.clear();
                eject_violated_neighbours(ddg, ps, v, ii, &mut scratch.ejected_after);
                if let Some(p) = prof.as_deref_mut() {
                    p.eject_ns += t_eject2.unwrap().elapsed().as_nanos() as u64;
                    for &n in &scratch.ejected_after {
                        p.note_ejected(n);
                    }
                    p.note_force((scratch.ejected.len() + scratch.ejected_after.len()) as u64);
                }
                if let Some(log) = log.as_deref_mut() {
                    log.executed += 1;
                    log.steps.push(Step {
                        probes: scratch.probes.as_slice().into(),
                        action: StepAction::Force {
                            v,
                            cycle: c,
                            eject_before: scratch.ejected.as_slice().into(),
                            eject_after: scratch.ejected_after.as_slice().into(),
                        },
                    });
                }
                cursor = 0;
            }
        }
    }
    Ok(())
}

/// Terminal failure step of a recorded attempt; returns `kind`.
fn record_fail(log: Option<&mut AttemptLog>, probes: &[Probe], kind: FailKind) -> FailKind {
    if let Some(log) = log {
        log.executed += 1;
        log.steps.push(Step {
            probes: probes.into(),
            action: StepAction::Fail(kind),
        });
    }
    kind
}

/// After a forced placement of `v`, unschedule every placed neighbour
/// whose dependence with `v` the new slot violates; they will be
/// rescheduled on a later pass. Victims are appended to `removed` (in
/// eviction order) so warm-start recording can replay them verbatim.
///
/// The victims are those of the lowest-id violated edge incident to
/// `v`, repeatedly: one walk over `v`'s incident edges in id order
/// finds them all, because removing a victim only un-violates edges,
/// so no edge behind the walk can become violated again.
pub(crate) fn eject_violated_neighbours(
    ddg: &Ddg,
    ps: &mut PartialSchedule,
    v: InstId,
    ii: u32,
    removed: &mut Vec<InstId>,
) {
    let iil = ii as i64;
    // Merge the successor and predecessor lists, each sorted by edge
    // id; a self edge sits in both and is visited once.
    let mut succ = ddg.succ_edges(v).peekable();
    let mut pred = ddg.pred_edges(v).peekable();
    while let Some((_, e)) = match (succ.peek(), pred.peek()) {
        (Some(s), Some(p)) if p.0 < s.0 => pred.next(),
        (Some(s), Some(p)) if p.0 == s.0 => pred.next().and(succ.next()),
        (Some(_), _) => succ.next(),
        (None, _) => pred.next(),
    } {
        let (Some(ts), Some(td)) = (ps.time(e.src), ps.time(e.dst)) else {
            continue;
        };
        if td >= ts + e.delay - iil * e.distance as i64 {
            continue;
        }
        let n = if e.src == v { e.dst } else { e.src };
        if n == v {
            // A violated self-edge means the II itself is too small;
            // leave it for the legality check to reject.
            break;
        }
        ps.remove(ddg, n);
        removed.push(n);
    }
}

/// Unschedule the lowest-priority occupants of `cycle`'s modulo row
/// until `v` fits there: first same-resource-class ops, then (if the
/// issue width still blocks) any op. Victims are appended to `removed`
/// (in eviction order) so warm-start recording can replay them
/// verbatim.
pub(crate) fn eject_row_conflicts(
    ddg: &Ddg,
    ps: &mut PartialSchedule,
    v: InstId,
    cycle: i64,
    pos: &[usize],
    occupants: &mut Vec<InstId>,
    removed: &mut Vec<InstId>,
) {
    use tms_machine::ResourceClass;
    let class = ResourceClass::for_op(ddg.inst(v).op);
    while !ps.fits(ddg, v, cycle) {
        occupants.clear();
        occupants.extend(ps.placed_in_row(cycle));
        // Prefer evicting an op of the same class; otherwise anything
        // (the issue width is the blocker).
        let victim = occupants
            .iter()
            .copied()
            .filter(|&n| ResourceClass::for_op(ddg.inst(n).op) == class)
            .max_by_key(|&n| pos[n.index()])
            .or_else(|| occupants.iter().copied().max_by_key(|&n| pos[n.index()]));
        match victim {
            Some(n) => {
                ps.remove(ddg, n);
                removed.push(n);
            }
            None => return, // row empty yet still unfit: impossible
        }
    }
}

/// Result of running SMS on a loop.
#[derive(Debug, Clone)]
pub struct SmsResult {
    /// The final schedule.
    pub schedule: Schedule,
    /// The minimum II (`max(ResII, RecII)`).
    pub mii: u32,
    /// The SMS node order used (TMS reuses it).
    pub order: Vec<InstId>,
    /// Longest dependence path of the loop.
    pub ldp: i64,
}

/// A sane II search ceiling: the flat critical path plus total latency
/// always admits a trivial schedule, so searching beyond it is wasted.
pub fn ii_search_ceiling(ddg: &Ddg, start: u32) -> u32 {
    ii_search_ceiling_from(ddg, start, AcyclicPriorities::compute(ddg).ldp)
}

/// [`ii_search_ceiling`] for callers that already computed the LDP.
fn ii_search_ceiling_from(ddg: &Ddg, start: u32, ldp: i64) -> u32 {
    (start as u64 + ldp as u64 + ddg.total_latency() + ddg.num_insts() as u64).min(u32::MAX as u64)
        as u32
}

/// Run SMS: iteratively increase II from MII until a schedule exists
/// (Figure 3 with the boxed TMS lines removed).
pub fn schedule_sms(ddg: &Ddg, machine: &MachineModel) -> Result<SmsResult, SchedError> {
    let order = sms_order(ddg);
    let ldp = AcyclicPriorities::compute(ddg).ldp;
    schedule_sms_with(ddg, machine, order, ldp, &mut SchedScratch::new())
}

/// [`schedule_sms`] with the loop-invariant inputs (node order, LDP)
/// supplied by the caller and scratch buffers reused across the II
/// search. `schedule_tms` computes order and LDP once per loop and
/// shares them with its SMS baseline through this entry point.
pub fn schedule_sms_with(
    ddg: &Ddg,
    machine: &MachineModel,
    order: Vec<InstId>,
    ldp: i64,
    scratch: &mut SchedScratch,
) -> Result<SmsResult, SchedError> {
    let m = mii(ddg, machine);
    if m == u32::MAX {
        return Err(SchedError::Unschedulable {
            loop_name: ddg.name().to_string(),
        });
    }
    let ceiling = ii_search_ceiling_from(ddg, m, ldp);
    let pos = order_priorities(&order, ddg.num_insts());
    for ii in m..=ceiling {
        let Some(frames) = TimeFrames::compute(ddg, ii) else {
            continue;
        };
        if let Ok(schedule) = try_schedule(
            ddg, machine, ii, &order, &pos, &AcceptAll, &frames, scratch, None, None,
        ) {
            debug_assert!(schedule.check_legal(ddg).is_none());
            debug_assert!(schedule.check_resources(ddg, machine));
            return Ok(SmsResult {
                schedule,
                mii: m,
                order,
                ldp,
            });
        }
    }
    Err(SchedError::NoScheduleFound {
        loop_name: ddg.name().to_string(),
        ii_tried: ceiling,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use tms_ddg::{DdgBuilder, OpClass};

    fn machine() -> MachineModel {
        MachineModel::icpp2008()
    }

    /// Reference for [`eject_violated_neighbours`]: rescan the whole
    /// edge list after every victim and evict the other endpoint of the
    /// first violated edge incident to `v`, until none is left or the
    /// first one is a self edge.
    fn eject_by_edge_scan(
        ddg: &Ddg,
        ps: &mut PartialSchedule,
        v: InstId,
        ii: u32,
        removed: &mut Vec<InstId>,
    ) {
        let iil = ii as i64;
        loop {
            let victim = ddg.edges().iter().find_map(|e| {
                if e.src != v && e.dst != v {
                    return None;
                }
                let (Some(ts), Some(td)) = (ps.time(e.src), ps.time(e.dst)) else {
                    return None;
                };
                (td < ts + e.delay - iil * e.distance as i64).then_some(if e.src == v {
                    e.dst
                } else {
                    e.src
                })
            });
            match victim {
                Some(n) if n != v => {
                    ps.remove(ddg, n);
                    removed.push(n);
                }
                _ => break,
            }
        }
    }

    #[test]
    fn incident_edge_ejection_matches_whole_edge_scan() {
        // Seeded random forced placements over the fuzz population, the
        // kernels and Livermore: placements ignore dependences, so many
        // edges are violated on both sides of the forced node, and
        // II = 1 violates the self edges of every recurrence.
        let m = machine();
        let mut graphs = tms_verify::fuzz_ddgs(80, 0xe1ec7);
        graphs.extend(tms_workloads::kernels::all_kernels());
        graphs.extend(tms_workloads::livermore_suite());
        let mut rng = SmallRng::seed_from_u64(22);
        let (mut cases, mut multi, mut victims) = (0usize, 0usize, 0usize);
        for g in &graphs {
            let mii = mii(g, &m);
            for ii in [1, mii, mii + 2] {
                for trial in 0..6 {
                    let mut ps = PartialSchedule::new(g, ii, &m);
                    let span = 3 * ii as i64;
                    for u in g.inst_ids() {
                        let c = rng.gen_range(0..span);
                        if rng.gen_bool(0.7) && ps.fits(g, u, c) {
                            ps.place(g, u, c);
                        }
                    }
                    let v = InstId(rng.gen_range(0..g.num_insts() as u32));
                    if ps.is_placed(v) {
                        ps.remove(g, v);
                    }
                    let Some(c) = (0..8)
                        .map(|_| rng.gen_range(0..span))
                        .find(|&c| ps.fits(g, v, c))
                    else {
                        continue;
                    };
                    ps.place(g, v, c);
                    let (mut walked, mut scanned) = (ps.clone(), ps);
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    eject_violated_neighbours(g, &mut walked, v, ii, &mut got);
                    eject_by_edge_scan(g, &mut scanned, v, ii, &mut want);
                    assert_eq!(got, want, "{} II {ii} trial {trial} forced {v:?}", g.name());
                    cases += 1;
                    multi += (got.len() >= 2) as usize;
                    victims += got.len();
                }
            }
        }
        assert!(
            cases > 1_000 && multi > 100,
            "{cases} forced placements, {multi} with several victims, {victims} victims"
        );
    }

    #[test]
    fn schedules_simple_chain_at_mii() {
        let mut b = DdgBuilder::new("chain");
        let l = b.inst("ld", OpClass::Load);
        let m = b.inst("mul", OpClass::FpMul);
        let s = b.inst("st", OpClass::Store);
        b.reg_flow(l, m, 0);
        b.reg_flow(m, s, 0);
        let g = b.build().unwrap();
        let r = schedule_sms(&g, &machine()).unwrap();
        assert_eq!(r.schedule.ii(), 1);
        assert!(r.schedule.check_legal(&g).is_none());
        assert!(r.schedule.check_resources(&g, &machine()));
    }

    #[test]
    fn recurrence_forces_ii() {
        let mut b = DdgBuilder::new("rec");
        let a = b.inst_lat("acc", OpClass::FpAdd, 2);
        let x = b.inst("x", OpClass::Load);
        b.reg_flow(x, a, 0);
        b.reg_flow(a, a, 1);
        let g = b.build().unwrap();
        let r = schedule_sms(&g, &machine()).unwrap();
        assert_eq!(r.mii, 2);
        assert_eq!(r.schedule.ii(), 2);
    }

    #[test]
    fn resource_pressure_forces_ii() {
        // Five independent FP multiplies on one unit: II = 5.
        let mut b = DdgBuilder::new("fpmul5");
        for i in 0..5 {
            b.inst(format!("m{i}"), OpClass::FpMul);
        }
        let g = b.build().unwrap();
        let r = schedule_sms(&g, &machine()).unwrap();
        assert_eq!(r.schedule.ii(), 5);
        assert!(r.schedule.check_resources(&g, &machine()));
    }

    #[test]
    fn schedule_is_legal_on_dense_graph() {
        let mut b = DdgBuilder::new("dense");
        let n: Vec<_> = (0..8)
            .map(|i| {
                b.inst_lat(
                    format!("n{i}"),
                    if i % 2 == 0 {
                        OpClass::FpAdd
                    } else {
                        OpClass::FpMul
                    },
                    1 + (i % 3) as u32,
                )
            })
            .collect();
        for i in 0..7 {
            b.reg_flow(n[i], n[i + 1], 0);
        }
        b.reg_flow(n[4], n[1], 1);
        b.reg_flow(n[7], n[0], 2);
        b.mem_flow(n[6], n[2], 1, 0.1);
        let g = b.build().unwrap();
        let r = schedule_sms(&g, &machine()).unwrap();
        assert!(r.schedule.check_legal(&g).is_none(), "illegal schedule");
        assert!(r.schedule.check_resources(&g, &machine()));
    }

    #[test]
    fn unschedulable_machine_reports_error() {
        let mut b = DdgBuilder::new("fp");
        b.inst("f", OpClass::FpAdd);
        let g = b.build().unwrap();
        let no_fp = MachineModel {
            units: [2, 1, 0, 1, 2],
            ..MachineModel::icpp2008()
        };
        assert!(matches!(
            schedule_sms(&g, &no_fp),
            Err(SchedError::Unschedulable { .. })
        ));
    }

    #[test]
    fn sms_minimises_distance_to_consumer() {
        // The motivating-example shape: a producer whose only scheduled
        // neighbour is its next-iteration consumer gets pushed to the
        // latest slot of its window (closest in time to the consumer).
        let mut b = DdgBuilder::new("close");
        let cons = b.inst_lat("cons", OpClass::FpAdd, 8); // fixes II=8
        let prod = b.inst("prod", OpClass::IntAlu);
        b.reg_flow(cons, cons, 1); // recurrence: RecII 8
        b.reg_flow(prod, cons, 1);
        let g = b.build().unwrap();
        let r = schedule_sms(&g, &machine()).unwrap();
        assert_eq!(r.schedule.ii(), 8);
        // cons is ordered first (recurrence); prod's window is
        // successor-bounded and scanned downward, so prod lands as late
        // as possible: t(cons) − 1 + 8 = t(cons) + 7.
        let tc = r.schedule.time(InstId(0));
        let tp = r.schedule.time(InstId(1));
        assert_eq!(tp - tc, 7, "SMS should pick the latest window slot");
    }
}
