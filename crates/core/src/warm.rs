//! Warm-started scheduling attempts: decision-log record and replay.
//!
//! The TMS search dispatches many engine attempts per loop that differ
//! only in the `(C_delay, P_max)` knobs at a fixed II. The engine's
//! control flow at each step is fully determined by (a) window bounds
//! and resource feasibility — functions of the partial schedule alone —
//! and (b) the slot policy's verdicts, which depend on the knobs only
//! through threshold comparisons against knob-independent physical
//! facts: the sync delay of each new inter-iteration register
//! dependence and the accumulated misspeculation product (see
//! [`crate::tms::TmsPolicy`]).
//!
//! An [`AttemptLog`] records, per engine step, those facts ([`Probe`])
//! and the action the engine took ([`StepAction`]). A later attempt at
//! the same II *replays* the log: every prefix step whose probes still
//! yield the same verdicts under the new knobs is applied directly —
//! no window computation, no policy evaluation — and the first
//! diverging step truncates the log, after which the ordinary cold
//! loop resumes from the identical intermediate state and appends
//! fresh steps. Because a validated step is by construction exactly
//! the step the cold engine would have taken, replay is
//! equivalence-preserving: the warm engine produces byte-identical
//! schedules, and byte-identical failures, to the cold one
//! (`tests/bnb_equivalence.rs` pins this over fuzzed populations).
//!
//! A log is only meaningful for the loop and II it was recorded at,
//! under the same node order: its probes are functions of rows modulo
//! II, and its actions name that loop's nodes in that order's
//! sequence. The log remembers the `(Ddg::uid, II)` pair it was
//! recorded for, and the engine clears a log whose pair does not match
//! the attempt before replaying anything. The node order is the caller's
//! to keep fixed; the TMS search uses one order per loop.

use tms_ddg::InstId;

/// The knob-independent facts behind one slot-policy verdict.
///
/// Returned by [`crate::sms::SlotPolicy::probe`]; revalidated under
/// different knobs by [`crate::sms::SlotPolicy::probe_holds`].
/// Every fact is a pure function of the partial-schedule state at the
/// moment of the probe, so two attempts that share a placement prefix
/// share these values exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Probe {
    /// Condition C1 rejected the slot: a new inter-iteration register
    /// dependence had sync delay `sync`, exceeding the `C_delay`
    /// threshold. Still a rejection under knobs whose threshold the
    /// recorded sync also exceeds.
    C1Reject {
        /// Sync delay of the first violating dependence.
        sync: i64,
    },
    /// C1 passed but condition C2 rejected the slot: the
    /// misspeculation product of non-preserved memory dependences
    /// exceeded `P_max`. Still a rejection if the new threshold pair
    /// rejects either fact.
    C2Reject {
        /// Largest sync delay among the new inter-iteration register
        /// dependences (`i64::MIN` when there were none).
        sync_max: i64,
        /// The misspeculation product that exceeded `P_max`.
        misspec: f64,
    },
    /// The slot was accepted. Still an acceptance if `sync_max` stays
    /// within the new `C_delay` and the misspeculation product (when
    /// C2 applied at all — `None` means the slot added no speculated
    /// memory dependence, a placement fact independent of the knobs)
    /// stays within the new `P_max`.
    Accept {
        /// Largest sync delay among the new inter-iteration register
        /// dependences (`i64::MIN` when there were none).
        sync_max: i64,
        /// Misspeculation product, when condition C2 was evaluated.
        misspec: Option<f64>,
    },
}

impl Probe {
    /// Whether this probe's verdict was an acceptance.
    #[inline]
    pub fn accepted(&self) -> bool {
        matches!(self, Probe::Accept { .. })
    }
}

/// Why an engine attempt failed: the error of
/// [`crate::sms::try_schedule`] and the terminal step of an incomplete
/// log. One variant per failure exit of the cold engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailKind {
    /// The ejection budget ran out before the node found a slot.
    EjectBudget,
    /// No cycle in the forced-placement scan was policy-accepted.
    NoForcedSlot,
    /// The forced slot stayed resource-blocked even after evicting the
    /// row's occupants.
    ForcedUnfit,
}

/// What the engine did at one step, after the step's probes resolved.
#[derive(Debug, Clone, PartialEq)]
pub enum StepAction {
    /// Ordinary windowed placement of `v` at `cycle`.
    Place {
        /// The node placed.
        v: InstId,
        /// Its issue cycle.
        cycle: i64,
    },
    /// IMS-style forced placement: evict `eject_before` (row/width
    /// conflicts), place `v` at `cycle`, evict `eject_after` (violated
    /// neighbours). Replay must apply the three phases in this order —
    /// the MRT asserts a slot is free before placing into it.
    Force {
        /// The node force-placed.
        v: InstId,
        /// Its issue cycle.
        cycle: i64,
        /// Row occupants evicted to make space (in eviction order).
        eject_before: Box<[InstId]>,
        /// Neighbours evicted for dependence violations (in order).
        eject_after: Box<[InstId]>,
    },
    /// The attempt failed here. A validated `Fail` step ends replay
    /// with the identical failure, skipping the whole attempt.
    Fail(FailKind),
}

/// One engine step: the policy verdicts that determined it, then the
/// action taken. The probes cover exactly the policy probes the cold
/// engine's scans made this step (a windowed scan skips
/// resource-infeasible cycles without probing, and their feasibility
/// is a function of the partial schedule, which replay reproduces
/// exactly).
///
/// The lists are exact-size boxed slices copied out of the engine's
/// reused buffers: a log keeps every step of the attempts it records,
/// so slack capacity would stay resident for the life of the log.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Verdict facts, in evaluation order.
    pub probes: Box<[Probe]>,
    /// The action the verdicts led to.
    pub action: StepAction,
}

/// A recorded attempt at one II, replayable under different
/// `(C_delay, P_max)` knobs at the same II. Owned by the TMS search's
/// per-II cache; the engine both consumes (replays) and refreshes
/// (re-records) it in [`crate::sms::try_schedule`].
#[derive(Debug, Clone, Default)]
pub struct AttemptLog {
    /// The recorded steps. Always a faithful prefix of what the cold
    /// engine would do for *some* knob setting at the recorded loop
    /// and II: replay truncates at the first diverging step and
    /// recording appends from there.
    pub steps: Vec<Step>,
    /// The `(Ddg::uid, II)` the steps were recorded for; `None` means
    /// never recorded. The engine replays a log only when the pair
    /// matches the attempt and clears it otherwise.
    pub(crate) recorded_for: Option<(u64, u32)>,
    /// Steps applied by replay in the most recent attempt.
    pub replayed: u64,
    /// Steps executed cold (and recorded) in the most recent attempt.
    pub executed: u64,
}

impl AttemptLog {
    /// An empty log (first attempt at an II runs fully cold).
    pub fn new() -> Self {
        Self::default()
    }
}
