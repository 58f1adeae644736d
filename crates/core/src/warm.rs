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
//! # Cross-II carryover
//!
//! Probe facts do **not** transfer across II: sync delays and
//! misspeculation products are functions of rows *modulo II*, so a log
//! recorded at II can never be probe-replayed at II+1. What does
//! transfer is each step's window derivation, when it was
//! **carried-free** (no loop-carried edge relaxation improved a bound —
//! see `crate::window`'s transfer argument): the recorded `es`/`ls`
//! bounds, the [`crate::window::WindowKind`], and the carried-free
//! property itself are provably what the sweeps would recompute at any
//! larger II against the same placements. Each [`Step`] therefore
//! records its [`WinFacts`]; when the engine receives a log recorded at
//! a *smaller* II it demotes the steps from a replayable script to a
//! passive **guide**: the cold loop runs in full — fits, probes,
//! ejections, actions all recomputed live against the new II — but as
//! long as every executed action equals the guide's recorded action
//! (which inductively pins the placed state to the recorded run's), a
//! guide step whose facts are carried-free substitutes its recorded
//! bounds for the two longest-path sweeps. The first diverging action
//! (or a non-transferable step) drops the guide and the search is
//! simply cold from there, so byte-identity to the cold engine holds by
//! construction. [`AttemptLog::ii`] carries the recording II; logs from
//! a larger II are discarded (bounds transfer upward only).

use crate::window::WindowKind;
use tms_ddg::InstId;

/// The II-transferable derivation facts of one step's scheduling
/// window, recorded alongside the step so a later attempt at a larger
/// II can rebuild the window without the longest-path sweeps (see
/// [`crate::window::window_from_facts`] and the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WinFacts {
    /// The node the window was computed for.
    pub v: InstId,
    /// How the window was derived (which neighbour sides were placed —
    /// a reachability fact, II-independent given the same placements).
    pub kind: WindowKind,
    /// Transitive early start (`None` when nothing upstream was
    /// placed).
    pub es: Option<i64>,
    /// Transitive late start (`None` when nothing downstream was
    /// placed).
    pub ls: Option<i64>,
    /// Neither bound sweep improved a distance through a loop-carried
    /// edge: the bounds above transfer verbatim to any larger II. When
    /// `false` the facts are II-bound and a guided replay recomputes
    /// this step's window cold (the guide can still survive on action
    /// match).
    pub carried_free: bool,
}

/// The knob-independent facts behind one slot-policy verdict.
///
/// Recorded by [`crate::sms::SlotPolicy::accept_probed`]; revalidated
/// under different knobs by [`crate::sms::SlotPolicy::probe_holds`].
/// Every fact is a pure function of the partial-schedule state at the
/// moment of the probe, so two attempts that share a placement prefix
/// share these values exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Probe {
    /// The policy reported no reusable facts (the default for policies
    /// that don't implement probing, e.g. SMS's accept-all). Never
    /// revalidates: replay stops here and the cold loop takes over.
    Opaque,
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
    /// Whether this probe's verdict was an acceptance. [`Probe::Opaque`]
    /// carries no verdict and counts as not-accepted; only policies
    /// that produce richer variants call this.
    #[inline]
    pub fn accepted(&self) -> bool {
        matches!(self, Probe::Accept { .. })
    }
}

/// Why a recorded attempt failed (the terminal step of an incomplete
/// log). Mirrors the cold engine's three failure exits.
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
        eject_before: Vec<InstId>,
        /// Neighbours evicted for dependence violations (in order).
        eject_after: Vec<InstId>,
    },
    /// The attempt failed here. A validated `Fail` step ends replay
    /// with the identical failure, skipping the whole attempt.
    Fail(FailKind),
}

/// One engine step: the policy verdicts that determined it, then the
/// action taken. The probes cover exactly the `accept` calls the cold
/// engine made this step (resource-infeasible cycles are skipped
/// without consulting the policy, and their feasibility is a function
/// of the partial schedule, which replay reproduces exactly).
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Verdict facts, in evaluation order.
    pub probes: Vec<Probe>,
    /// The action the verdicts led to.
    pub action: StepAction,
    /// Derivation facts of the window this step scanned (every engine
    /// step computes exactly one window, `Fail` exits included). The
    /// cross-II guide consumes these; same-II replay ignores them.
    pub win: WinFacts,
}

/// A recorded attempt at one II, replayable under different
/// `(C_delay, P_max)` knobs at the same II and demotable to a cross-II
/// guide at a larger one. Owned by the TMS search's per-II cache
/// (seeded across II rows from the nearest lower row); the engine both
/// consumes (replays or guides from) and refreshes (re-records) it in
/// [`crate::sms::try_schedule`].
#[derive(Debug, Clone, Default)]
pub struct AttemptLog {
    /// The recorded steps. Always a faithful prefix of what the cold
    /// engine would do for *some* knob setting at [`AttemptLog::ii`]:
    /// replay truncates at the first diverging step and recording
    /// appends from there.
    pub steps: Vec<Step>,
    /// Whether the log ends in a completed schedule (every node
    /// placed). A complete, fully-validated log rebuilds the schedule
    /// without a single policy call.
    pub complete: bool,
    /// The II the steps were recorded at; `0` means never recorded
    /// (a legal II is always ≥ 1). The engine replays a log whose II
    /// matches the attempt, guides from one recorded at a smaller II,
    /// and discards one from a larger II.
    pub ii: u32,
    /// Steps applied by replay in the most recent attempt.
    pub replayed: u64,
    /// Steps executed cold (and recorded) in the most recent attempt.
    pub executed: u64,
    /// Steps of the most recent attempt whose window was rebuilt from
    /// cross-II-transferred facts instead of the longest-path sweeps.
    pub cross_replayed: u64,
}

impl AttemptLog {
    /// An empty log (first attempt at an II runs fully cold).
    pub fn new() -> Self {
        Self::default()
    }
}
