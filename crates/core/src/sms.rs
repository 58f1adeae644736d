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
use crate::warm::{AttemptLog, FailKind, Probe, Step, StepAction, WinFacts};
use crate::window::{force_floor_with, window_from_facts, window_into, WindowScratch};
use std::time::Instant;
use tms_ddg::analysis::{AcyclicPriorities, TimeFrames};
use tms_ddg::{Ddg, InstId};
use tms_machine::{mii, MachineModel};

/// Reusable per-worker buffers for repeated scheduling attempts.
///
/// One [`try_schedule`] attempt allocates a partial schedule (times +
/// MRT), a forced-slot floor, two longest-path distance vectors and a
/// candidate-cycle list. The TMS search makes hundreds to
/// thousands of attempts per loop, and the workload sweeps schedule
/// hundreds of loops — hoisting those allocations into a scratch that
/// each worker thread owns removes the allocator from the inner loop
/// entirely. A scratch is plain state: dropping it any time is safe,
/// and reusing it never changes results.
#[derive(Default)]
pub struct SchedScratch {
    ps: Option<PartialSchedule>,
    earliest: Vec<i64>,
    win: WindowScratch,
    occupants: Vec<InstId>,
    ejected: Vec<InstId>,
}

impl SchedScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Per-slot admission control: the hook that turns SMS into TMS.
pub trait SlotPolicy {
    /// May `v` be placed at `cycle` given the current partial schedule?
    /// Resource feasibility has already been checked.
    fn accept(&self, ddg: &Ddg, ps: &PartialSchedule, v: InstId, cycle: i64) -> bool;

    /// [`accept`](SlotPolicy::accept) that also reports the
    /// knob-independent facts behind the verdict, for warm-start replay
    /// (see [`crate::warm`]). The default records [`Probe::Opaque`] —
    /// correct for any policy, but opaque probes never revalidate, so
    /// such policies simply get no replay reuse.
    fn accept_probed(
        &self,
        ddg: &Ddg,
        ps: &PartialSchedule,
        v: InstId,
        cycle: i64,
        probe: &mut Probe,
    ) -> bool {
        *probe = Probe::Opaque;
        self.accept(ddg, ps, v, cycle)
    }

    /// Would a probe recorded by an earlier attempt yield the same
    /// verdict under this policy's current knobs? `false` is always
    /// safe — the engine falls back to a cold evaluation of the step.
    fn probe_holds(&self, _probe: &Probe) -> bool {
        false
    }

    /// First cycle of `cycles` (in order) that is resource-feasible and
    /// policy-accepted, or `None`. When `probes` is given, the probe of
    /// every policy evaluation is pushed in scan order — resource-
    /// blocked cycles evaluate no probe — exactly as a per-cycle
    /// [`accept_probed`](SlotPolicy::accept_probed) loop would record
    /// them. Policies may override this with an equivalent faster scan;
    /// the contract is byte-identical results *and* recordings.
    fn scan_window(
        &self,
        ddg: &Ddg,
        ps: &PartialSchedule,
        v: InstId,
        cycles: &[i64],
        probes: Option<&mut Vec<Probe>>,
    ) -> Option<i64> {
        generic_scan_window(self, ddg, ps, v, cycles, probes)
    }

    /// First cycle in `floor..floor + II` the policy accepts, or
    /// `None`. Forced (IMS-style) placement: resource conflicts are
    /// *not* checked — the engine ejects occupants afterwards. The
    /// recording contract matches [`scan_window`](Self::scan_window).
    fn scan_forced(
        &self,
        ddg: &Ddg,
        ps: &PartialSchedule,
        v: InstId,
        floor: i64,
        probes: Option<&mut Vec<Probe>>,
    ) -> Option<i64> {
        generic_scan_forced(self, ddg, ps, v, floor, probes)
    }

    /// Whether the policy's most recent scan (`scan_window` /
    /// `scan_forced`) took a specialised fast path rather than the
    /// generic per-slot reference scan. Purely informational: the
    /// placement profiler uses it to split probe-outcome attribution.
    /// Policies without a fast path keep the default.
    fn scan_was_fast(&self) -> bool {
        false
    }
}

/// The reference windowed scan every [`SlotPolicy::scan_window`]
/// override must agree with: first resource-feasible, policy-accepted
/// cycle, probing (and recording) in scan order.
pub fn generic_scan_window<P: SlotPolicy + ?Sized>(
    policy: &P,
    ddg: &Ddg,
    ps: &PartialSchedule,
    v: InstId,
    cycles: &[i64],
    mut probes: Option<&mut Vec<Probe>>,
) -> Option<i64> {
    let mut probe = Probe::Opaque;
    for &c in cycles {
        if !ps.fits(ddg, v, c) {
            continue;
        }
        let ok = match probes.as_deref_mut() {
            Some(rec) => {
                let ok = policy.accept_probed(ddg, ps, v, c, &mut probe);
                rec.push(probe);
                ok
            }
            None => policy.accept(ddg, ps, v, c),
        };
        if ok {
            return Some(c);
        }
    }
    None
}

/// The reference forced scan every [`SlotPolicy::scan_forced`] override
/// must agree with (no resource check; see the trait method).
pub fn generic_scan_forced<P: SlotPolicy + ?Sized>(
    policy: &P,
    ddg: &Ddg,
    ps: &PartialSchedule,
    v: InstId,
    floor: i64,
    mut probes: Option<&mut Vec<Probe>>,
) -> Option<i64> {
    let mut probe = Probe::Opaque;
    for x in floor..floor + ps.ii() as i64 {
        let ok = match probes.as_deref_mut() {
            Some(rec) => {
                let ok = policy.accept_probed(ddg, ps, v, x, &mut probe);
                rec.push(probe);
                ok
            }
            None => policy.accept(ddg, ps, v, x),
        };
        if ok {
            return Some(x);
        }
    }
    None
}

/// SMS's policy: any resource-feasible slot in the window is fine.
pub struct AcceptAll;

impl SlotPolicy for AcceptAll {
    #[inline]
    fn accept(&self, _ddg: &Ddg, _ps: &PartialSchedule, _v: InstId, _cycle: i64) -> bool {
        true
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
/// [`order_priorities`]). Returns `None` if any node finds no slot.
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
/// chains keep their relative positions at every II). A budget bounds
/// the ejection churn; on exhaustion the II is rejected as usual.
///
/// With `log = Some(..)` the attempt warm-starts from an
/// [`AttemptLog`] (see [`crate::warm`]): the log carries the decision
/// trace of the previous attempt at this `ii`; steps whose recorded
/// policy verdicts still hold under `policy`'s current knobs are
/// applied without recomputing windows or consulting the policy, and
/// the remainder runs cold, refreshing the log. Results are
/// byte-identical to the cold call for *any* log contents — the log
/// only changes how much work is recomputed. Pass a log recorded for a
/// different loop, order, or II and the first probe mismatch simply
/// falls back to the cold path.
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
) -> Option<Schedule> {
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
    let out = complete.then(|| ps.snapshot(ddg));
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
) -> bool {
    let mut eject_budget = (ddg.num_insts() * 10).max(100);
    // Topological sweep orders for the window bounds: DDG-static,
    // memoized on the graph's uid and reused by every probe below.
    scratch.win.prepare(ddg);
    // Monotone forced-slot floor per node (IMS forward progress).
    let earliest = &mut scratch.earliest;
    earliest.clear();
    earliest.resize(ddg.num_insts(), i64::MIN);

    // --- Cross-II guide adoption: a log recorded at a *smaller* II is
    // not probe-replayable (its facts are functions of rows mod II),
    // but its per-step window facts transfer upward (see
    // `crate::warm`). Demote the steps to a passive guide for the cold
    // loop below; the log itself re-records from scratch at this II.
    // A log from a *larger* II is discarded — bounds transfer in one
    // direction only.
    let mut guide: Vec<Step> = Vec::new();
    if let Some(log) = log.as_deref_mut() {
        log.cross_replayed = 0;
        if log.ii != 0 && log.ii != ii {
            let steps = std::mem::take(&mut log.steps);
            if log.ii < ii {
                guide = steps;
            }
            log.complete = false;
        }
        log.ii = ii;
    }
    let mut guide_pos = 0usize;
    let mut guide_live = !guide.is_empty();

    // --- Warm replay: apply the log's prefix while its recorded
    // verdicts still hold under the current policy knobs. A validated
    // step is exactly the step the cold loop would take from this
    // state, so applying it directly — no window computation, no
    // policy calls — preserves byte-identical behaviour. The first
    // diverging step truncates the log; the cold loop below resumes
    // from the intermediate state (its cursor rescan skips whatever is
    // already placed) and appends fresh steps.
    if let Some(log) = log.as_deref_mut() {
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
                    for &n in eject_before {
                        ps.remove(ddg, n);
                    }
                    ps.place(ddg, *v, *cycle);
                    for &n in eject_after {
                        ps.remove(ddg, n);
                    }
                }
                StepAction::Fail(_) => {
                    // The whole attempt still fails at this step; the
                    // partial state is discarded by the caller, so the
                    // recorded post-probe mutations need not be applied.
                    log.replayed = (upto + 1) as u64;
                    return false;
                }
            }
            upto += 1;
        }
        log.replayed = upto as u64;
        if upto < log.steps.len() {
            log.steps.truncate(upto);
            log.complete = false;
        }
    }
    let profiling = prof.is_some();
    // The profiler reuses the warm-start probe recording to classify
    // verdicts, so either consumer turns it on.
    let recording = log.is_some() || profiling;

    // Next-unplaced cursor: nodes before it are placed, so the common
    // (ejection-free) path walks `order` once instead of rescanning it
    // per placement. Ejections unplace arbitrary nodes — rewind.
    let mut cursor = 0usize;
    while let Some(off) = order[cursor..].iter().position(|&n| !ps.is_placed(n)) {
        cursor += off;
        let v = order[cursor];
        // While the guide is live, every executed action so far equals
        // the recorded one, so the placed state is the recorded run's —
        // a guide step whose facts are carried-free provably reproduces
        // the sweeps at this larger II, and the sweeps are skipped. A
        // guide step for a different node is a divergence in the making
        // (the action comparison below will retire the guide); compute
        // cold. The engine's hottest work is exactly these two sweeps,
        // which is what makes the cross-II carryover pay.
        let guide_facts = match guide.get(guide_pos) {
            _ if !guide_live => None,
            Some(gs) if gs.win.v == v && gs.win.carried_free => Some(gs.win),
            Some(_) => None,
            None => {
                guide_live = false;
                None
            }
        };
        let t_scan = profiling.then(Instant::now);
        let facts = match guide_facts {
            Some(f) => {
                window_from_facts(
                    f.kind,
                    f.es,
                    f.ls,
                    ii,
                    frames.asap[v.index()],
                    &mut scratch.win.cycles,
                );
                // Differential check: the transferred facts must match
                // what the sweeps compute at this II and state.
                #[cfg(debug_assertions)]
                {
                    let regen = std::mem::take(&mut scratch.win.cycles);
                    let kind = window_into(ddg, ps, frames, v, &mut scratch.win);
                    debug_assert_eq!(kind, f.kind, "cross-II window kind diverged");
                    debug_assert_eq!(scratch.win.cycles, regen, "cross-II window cycles diverged");
                    scratch.win.cycles = regen;
                }
                if let Some(log) = log.as_deref_mut() {
                    log.cross_replayed += 1;
                }
                f
            }
            None => {
                let kind = window_into(ddg, ps, frames, v, &mut scratch.win);
                WinFacts {
                    v,
                    kind,
                    es: scratch.win.last_es,
                    ls: scratch.win.last_ls,
                    carried_free: scratch.win.carried_free,
                }
            }
        };
        if let Some(p) = prof.as_deref_mut() {
            p.scan_ns += t_scan.unwrap().elapsed().as_nanos() as u64;
            p.note_scan(v);
        }
        let mut probes: Vec<Probe> = Vec::new();
        let t_probe = profiling.then(Instant::now);
        let slot = policy.scan_window(
            ddg,
            ps,
            v,
            &scratch.win.cycles,
            recording.then_some(&mut probes),
        );
        if let Some(p) = prof.as_deref_mut() {
            p.probe_ns += t_probe.unwrap().elapsed().as_nanos() as u64;
            p.classify_probes(&probes, policy.scan_was_fast());
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
                    let action = StepAction::Place { v, cycle: c };
                    advance_guide(&guide, &mut guide_pos, &mut guide_live, &action);
                    log.executed += 1;
                    log.steps.push(Step {
                        probes,
                        action,
                        win: facts,
                    });
                }
            }
            None => {
                if eject_budget == 0 {
                    record_fail(log, probes, facts, FailKind::EjectBudget);
                    return false;
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
                    None if guide_facts.is_some() => {
                        // An empty window is always a `Both` whose late
                        // start undercuts the early one (the other
                        // kinds emit exactly II candidates), so the
                        // transferred early start *is* what the forced
                        // floor's lower sweep would recompute.
                        let floor = facts.es.expect("empty window implies a bounded node");
                        #[cfg(debug_assertions)]
                        debug_assert_eq!(
                            floor,
                            force_floor_with(ddg, ps, frames, v, &mut scratch.win),
                            "cross-II forced floor diverged"
                        );
                        floor
                    }
                    None => force_floor_with(ddg, ps, frames, v, &mut scratch.win),
                };
                let floor = lb.max(scratch.earliest[v.index()]);
                if let Some(p) = prof.as_deref_mut() {
                    // The forced floor's lower sweep is window work.
                    p.scan_ns += t_floor.unwrap().elapsed().as_nanos() as u64;
                }
                let probes_pre_force = probes.len();
                let t_force = profiling.then(Instant::now);
                let forced =
                    policy.scan_forced(ddg, ps, v, floor, recording.then_some(&mut probes));
                if let Some(p) = prof.as_deref_mut() {
                    p.force_ns += t_force.unwrap().elapsed().as_nanos() as u64;
                    p.classify_probes(&probes[probes_pre_force..], policy.scan_was_fast());
                }
                let Some(c) = forced else {
                    record_fail(log, probes, facts, FailKind::NoForcedSlot);
                    return false;
                };
                scratch.earliest[v.index()] = c + 1;
                let mut eject_before = std::mem::take(&mut scratch.ejected);
                eject_before.clear();
                let t_eject = profiling.then(Instant::now);
                eject_row_conflicts(
                    ddg,
                    ps,
                    v,
                    c,
                    pos,
                    &mut scratch.occupants,
                    &mut eject_before,
                );
                if let Some(p) = prof.as_deref_mut() {
                    p.eject_ns += t_eject.unwrap().elapsed().as_nanos() as u64;
                    for &n in &eject_before {
                        p.note_ejected(n);
                    }
                }
                let chain_before = eject_before.len() as u64;
                let t_fit = profiling.then(Instant::now);
                if !ps.fits(ddg, v, c) {
                    scratch.ejected = eject_before;
                    record_fail(log, probes, facts, FailKind::ForcedUnfit);
                    return false;
                }
                ps.place(ddg, v, c);
                if let Some(p) = prof.as_deref_mut() {
                    p.fit_ns += t_fit.unwrap().elapsed().as_nanos() as u64;
                }
                let t_eject2 = profiling.then(Instant::now);
                if let Some(log) = log.as_deref_mut() {
                    let mut eject_after = Vec::new();
                    eject_violated_neighbours(ddg, ps, v, ii, &mut eject_after);
                    if let Some(p) = prof.as_deref_mut() {
                        p.eject_ns += t_eject2.unwrap().elapsed().as_nanos() as u64;
                        for &n in &eject_after {
                            p.note_ejected(n);
                        }
                        p.note_force(chain_before + eject_after.len() as u64);
                    }
                    let action = StepAction::Force {
                        v,
                        cycle: c,
                        eject_before,
                        eject_after,
                    };
                    advance_guide(&guide, &mut guide_pos, &mut guide_live, &action);
                    log.executed += 1;
                    log.steps.push(Step {
                        probes,
                        action,
                        win: facts,
                    });
                } else {
                    // Reuse the scratch buffer for the second eviction
                    // list too — nothing reads it when not recording a
                    // log (the profiler accounts for it right here).
                    eject_before.clear();
                    eject_violated_neighbours(ddg, ps, v, ii, &mut eject_before);
                    if let Some(p) = prof.as_deref_mut() {
                        p.eject_ns += t_eject2.unwrap().elapsed().as_nanos() as u64;
                        for &n in &eject_before {
                            p.note_ejected(n);
                        }
                        p.note_force(chain_before + eject_before.len() as u64);
                    }
                    scratch.ejected = eject_before;
                }
                cursor = 0;
            }
        }
    }
    if let Some(log) = log {
        log.complete = true;
    }
    true
}

/// Terminal failure step of a recorded attempt.
fn record_fail(log: Option<&mut AttemptLog>, probes: Vec<Probe>, win: WinFacts, kind: FailKind) {
    if let Some(log) = log {
        log.executed += 1;
        log.steps.push(Step {
            probes,
            action: StepAction::Fail(kind),
            win,
        });
        log.complete = false;
    }
}

/// Advance the cross-II guide past an executed step, or retire it on
/// the first divergence. Action equality — eviction sets included — is
/// what inductively pins the engine's placed state to the recorded
/// run's, which is the soundness condition for consuming the guide's
/// window facts on the *next* step.
fn advance_guide(guide: &[Step], pos: &mut usize, live: &mut bool, action: &StepAction) {
    if !*live {
        return;
    }
    match guide.get(*pos) {
        Some(gs) if gs.action == *action => *pos += 1,
        _ => *live = false,
    }
}

/// After a forced placement of `v`, unschedule every placed neighbour
/// whose dependence with `v` the new slot violates; they will be
/// rescheduled on a later pass. Victims are appended to `removed` (in
/// eviction order) so warm-start recording can replay them verbatim.
fn eject_violated_neighbours(
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
            if td < ts + e.delay - iil * e.distance as i64 {
                Some(if e.src == v { e.dst } else { e.src })
            } else {
                None
            }
        });
        match victim {
            Some(n) if n != v => {
                ps.remove(ddg, n);
                removed.push(n);
            }
            // A violated self-edge means the II itself is too small;
            // leave it for the legality check to reject.
            _ => break,
        }
    }
}

/// Unschedule the lowest-priority occupants of `cycle`'s modulo row
/// until `v` fits there: first same-resource-class ops, then (if the
/// issue width still blocks) any op. Victims are appended to `removed`
/// (in eviction order) so warm-start recording can replay them
/// verbatim.
fn eject_row_conflicts(
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
pub fn ii_search_ceiling_from(ddg: &Ddg, start: u32, ldp: i64) -> u32 {
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
        if let Some(schedule) = try_schedule(
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
    use tms_ddg::{DdgBuilder, OpClass};

    fn machine() -> MachineModel {
        MachineModel::icpp2008()
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
