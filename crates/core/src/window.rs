//! Scheduling windows.
//!
//! SMS assigns each node a window of `II` consecutive cycles derived
//! from its already-placed neighbours, scanned in a direction that
//! keeps the node as close as possible to them (the "lifetime-minimal"
//! strategy the paper's §4.1 example illustrates with n6's window
//! `[7,0]`).
//!
//! One refinement over the textbook formulation: bounds are computed as
//! longest paths from (and to) *scheduled* nodes **through unscheduled
//! ones**, not just over direct edges. A direct-edge-only early start
//! can admit slots that are transitively infeasible — e.g. a memory
//! chord `n5 → n2` inside a tight recurrence lets `n2` sit cycles
//! before the position the recurrence itself forces, painting the
//! remaining recurrence nodes into an empty window at *every* II. The
//! transitive bounds collapse to the classic ES/LS whenever only direct
//! neighbours constrain the node, so SMS behaviour is unchanged on the
//! common path.
//!
//! The longest-path relaxation is the engine's hottest loop (it runs
//! twice per node visit, and ejection cascades revisit nodes freely),
//! so the edge sweeps run in a precomputed topological order of the
//! intra-iteration (distance-0) subgraph: a single sweep then reaches
//! the fixpoint unless a loop-carried back edge propagated *behind*
//! the sweep, which is detected per relaxation and triggers classic
//! repeat-until-stable passes. The fixpoint is a pure `max` (resp.
//! `min`) over paths — independent of edge iteration order — so the
//! bounds, and therefore the schedules, are bit-identical to the
//! naive repeated sweep.

use crate::schedule::PartialSchedule;
use tms_ddg::analysis::TimeFrames;
use tms_ddg::{Ddg, InstId};

/// The candidate cycles for one node, in the order SMS tries them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Window {
    /// Candidate issue cycles, first-preference first.
    pub cycles: Vec<i64>,
    /// Which neighbour sides were already placed (for diagnostics).
    pub kind: WindowKind,
}

/// How a window was derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowKind {
    /// Only predecessors placed — scan upward from the early start.
    PredsOnly,
    /// Only successors placed — scan downward from the late start.
    SuccsOnly,
    /// Both sides placed — bounded window scanned upward.
    Both,
    /// Nothing placed — seeded from ASAP, scanned upward.
    Free,
}

/// One edge of a precomputed sweep order, flattened so the relaxation
/// loop touches a single contiguous array: endpoint indices, the edge
/// weight components, and the back-edge flag (`rank[dst] ≤ rank[src]`,
/// the only rank fact a sweep consults) are all baked in at
/// [`WindowScratch::prepare`] time. This replaces the former
/// index-indirection (`order[i] → edges[ei]` plus two `rank` gathers
/// per relaxation) on the engine's hottest loop.
#[derive(Debug, Clone, Copy)]
struct SweepEdge {
    src: u32,
    dst: u32,
    delay: i64,
    distance: i64,
    /// Relaxing this edge writes at or behind the sweep position.
    back: bool,
}

/// Reusable buffers for repeated window computations. One scratch per
/// worker amortises the distance vector, the topological edge orders,
/// and the candidate list across every node of every scheduling
/// attempt.
///
/// [`WindowScratch::prepare`] must run once per DDG before
/// [`window_into`] / [`force_floor_with`] (the engine does this at the
/// top of each attempt); the convenience wrappers [`window_of`] and
/// [`force_floor`] prepare their own scratch.
#[derive(Debug, Default, Clone)]
pub struct WindowScratch {
    /// Distance values; `i64::MIN` / `i64::MAX` sentinels mean
    /// “unreached” in the lower / upper sweeps respectively.
    dist: Vec<i64>,
    /// Topological rank of each node over the distance-0 subgraph
    /// (loop-carried edges excluded; any residual cycle gets arbitrary
    /// ranks — correctness falls back to the repeat passes).
    rank: Vec<u32>,
    /// Edges sorted ascending by `rank[src]` (stable, so rank ties keep
    /// DDG edge order): the forward (early-start) sweep order.
    fwd_edges: Vec<SweepEdge>,
    /// Edges sorted descending by `rank[dst]` (stable): the backward
    /// (late-start) sweep order.
    bwd_edges: Vec<SweepEdge>,
    /// Kahn worklist buffers.
    indeg: Vec<u32>,
    queue: Vec<u32>,
    /// [`Ddg::uid`] the sweep orders were computed for; [`prepare`]
    /// short-circuits when asked for the same graph again, which makes
    /// repeated attempts on one loop pay the `O(V + E log E)` setup
    /// once instead of once per attempt.
    ///
    /// [`prepare`]: WindowScratch::prepare
    prepared_uid: Option<u64>,
    /// Candidate cycles of the most recent [`window_into`] call,
    /// first-preference first.
    pub cycles: Vec<i64>,
}

impl WindowScratch {
    /// Precompute the topological sweep orders for `ddg`. `O(V + E log
    /// E)` cold; a no-op when the scratch is already prepared for this
    /// exact graph (keyed on [`Ddg::uid`], so a different graph at the
    /// same address or with the same shape can never alias).
    pub fn prepare(&mut self, ddg: &Ddg) {
        if self.prepared_uid == Some(ddg.uid()) {
            return;
        }
        let n = ddg.num_insts();
        let edges = ddg.edges();
        // Kahn over the intra-iteration (distance-0) subgraph, which a
        // legal DDG keeps acyclic. Nodes stuck on a residual cycle (a
        // malformed graph) are ranked after all others in index order;
        // the back-edge detection then simply forces repeat passes.
        self.indeg.clear();
        self.indeg.resize(n, 0);
        for e in edges {
            if e.distance == 0 && e.src != e.dst {
                self.indeg[e.dst.index()] += 1;
            }
        }
        self.queue.clear();
        self.queue
            .extend((0..n as u32).filter(|&i| self.indeg[i as usize] == 0));
        self.rank.clear();
        self.rank.resize(n, u32::MAX);
        let mut next_rank = 0u32;
        let mut head = 0usize;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            self.rank[u as usize] = next_rank;
            next_rank += 1;
            for (_, e) in ddg.succ_edges(InstId(u)) {
                if e.distance == 0 && e.src != e.dst {
                    let d = e.dst.index();
                    self.indeg[d] -= 1;
                    if self.indeg[d] == 0 {
                        self.queue.push(d as u32);
                    }
                }
            }
        }
        for r in &mut self.rank {
            if *r == u32::MAX {
                *r = next_rank;
                next_rank += 1;
            }
        }
        let flat = |e: &tms_ddg::Edge| SweepEdge {
            src: e.src.index() as u32,
            dst: e.dst.index() as u32,
            delay: e.delay,
            distance: e.distance as i64,
            back: self.rank[e.dst.index()] <= self.rank[e.src.index()],
        };
        self.fwd_edges.clear();
        self.fwd_edges.extend(edges.iter().map(flat));
        self.fwd_edges.sort_by_key(|se| self.rank[se.src as usize]);
        self.bwd_edges.clear();
        self.bwd_edges.extend(edges.iter().map(flat));
        self.bwd_edges
            .sort_by_key(|se| u32::MAX - self.rank[se.dst as usize]);
        self.prepared_uid = Some(ddg.uid());
    }
}

/// Longest-path lower bound on `t(v)` from scheduled nodes through
/// unscheduled intermediates: `max` over paths `p : u ⤳ v` with `u`
/// scheduled and interior nodes unscheduled of
/// `t(u) + Σ_e (delay(e) − II·distance(e))`.
///
/// Requires [`WindowScratch::prepare`] for this DDG.
fn lower_bound_with(
    ddg: &Ddg,
    ps: &PartialSchedule,
    v: InstId,
    scratch: &mut WindowScratch,
) -> Option<i64> {
    let ii = ps.ii() as i64;
    debug_assert_eq!(
        scratch.rank.len(),
        ddg.num_insts(),
        "WindowScratch::prepare was not run for this DDG"
    );
    let dist = &mut scratch.dist;
    dist.clear();
    dist.extend(ddg.inst_ids().map(|u| ps.time(u).unwrap_or(i64::MIN)));
    // Scheduled times are fixed, so only edges into unscheduled nodes
    // can relax anything; v participates as an unscheduled node (its
    // entry starts at the `i64::MIN` sentinel, the “unreached” value).
    // Each sweep runs in topological order — a relaxation that writes
    // at or behind its own sweep position (the precomputed `back`
    // flag, i.e. a loop-carried back edge that actually fired) is the
    // only way a sweep can miss the fixpoint, so sweeps repeat exactly
    // until one completes without such a write (no separate
    // confirmation pass is needed).
    for _ in 0..=scratch.fwd_edges.len() {
        let mut rerun = false;
        for e in &scratch.fwd_edges {
            if ps.is_placed(InstId(e.dst)) {
                continue;
            }
            let ds = dist[e.src as usize];
            if ds != i64::MIN {
                let cand = ds + e.delay - ii * e.distance;
                if cand > dist[e.dst as usize] {
                    dist[e.dst as usize] = cand;
                    rerun |= e.back;
                }
            }
        }
        if !rerun {
            break;
        }
    }
    let d = dist[v.index()];
    (d != i64::MIN).then_some(d)
}

/// Symmetric upper bound on `t(v)` toward scheduled successors.
///
/// Requires [`WindowScratch::prepare`] for this DDG.
fn upper_bound_with(
    ddg: &Ddg,
    ps: &PartialSchedule,
    v: InstId,
    scratch: &mut WindowScratch,
) -> Option<i64> {
    let ii = ps.ii() as i64;
    debug_assert_eq!(
        scratch.rank.len(),
        ddg.num_insts(),
        "WindowScratch::prepare was not run for this DDG"
    );
    let dist = &mut scratch.dist;
    dist.clear();
    dist.extend(ddg.inst_ids().map(|u| ps.time(u).unwrap_or(i64::MAX)));
    // Mirror image of the forward sweep: propagation flows dst → src,
    // so sweeps run in reverse topological order (sentinel `i64::MAX`,
    // `min` relaxation) and a relaxation with `rank[src] ≥ rank[dst]`
    // — the same precomputed `back` flag — forces another sweep.
    for _ in 0..=scratch.bwd_edges.len() {
        let mut rerun = false;
        for e in &scratch.bwd_edges {
            if ps.is_placed(InstId(e.src)) {
                continue;
            }
            let dd = dist[e.dst as usize];
            if dd != i64::MAX {
                let cand = dd - e.delay + ii * e.distance;
                if cand < dist[e.src as usize] {
                    dist[e.src as usize] = cand;
                    rerun |= e.back;
                }
            }
        }
        if !rerun {
            break;
        }
    }
    let d = dist[v.index()];
    (d != i64::MAX).then_some(d)
}

/// The floor for a *forced* (IMS-style) placement of `v`: the
/// transitive lower bound from placed predecessors, or `v`'s ASAP frame
/// when nothing upstream is placed. Upper bounds are deliberately
/// ignored — forcing past them is the point; violated successors get
/// ejected and rescheduled.
pub fn force_floor(ddg: &Ddg, ps: &PartialSchedule, frames: &TimeFrames, v: InstId) -> i64 {
    let mut scratch = WindowScratch::default();
    scratch.prepare(ddg);
    force_floor_with(ddg, ps, frames, v, &mut scratch)
}

/// [`force_floor`] with caller-provided buffers. Requires
/// [`WindowScratch::prepare`] for this DDG.
pub fn force_floor_with(
    ddg: &Ddg,
    ps: &PartialSchedule,
    frames: &TimeFrames,
    v: InstId,
    scratch: &mut WindowScratch,
) -> i64 {
    lower_bound_with(ddg, ps, v, scratch).unwrap_or(frames.asap[v.index()])
}

/// Compute the scheduling window of `v` against the partial schedule.
///
/// * early start `ES` — the transitive lower bound (direct form:
///   `max over placed preds u of t(u) + delay − II·d`)
/// * late start `LS` — the transitive upper bound (direct form:
///   `min over placed succs w of t(w) − delay + II·d`)
///
/// Windows never exceed `II` candidates: any legal modulo row appears
/// exactly once among `II` consecutive cycles.
pub fn window_of(ddg: &Ddg, ps: &PartialSchedule, frames: &TimeFrames, v: InstId) -> Window {
    let mut scratch = WindowScratch::default();
    scratch.prepare(ddg);
    let kind = window_into(ddg, ps, frames, v, &mut scratch);
    Window {
        cycles: scratch.cycles,
        kind,
    }
}

/// [`window_of`] into reusable buffers: the candidate cycles land in
/// `scratch.cycles` (replacing its previous contents) and the derived
/// [`WindowKind`] is returned. Requires [`WindowScratch::prepare`] for
/// this DDG.
pub fn window_into(
    ddg: &Ddg,
    ps: &PartialSchedule,
    frames: &TimeFrames,
    v: InstId,
    scratch: &mut WindowScratch,
) -> WindowKind {
    let ii = ps.ii() as i64;
    let early = lower_bound_with(ddg, ps, v, scratch);
    let late = upper_bound_with(ddg, ps, v, scratch);

    scratch.cycles.clear();
    match (early, late) {
        (Some(es), None) => {
            scratch.cycles.extend(es..es + ii);
            WindowKind::PredsOnly
        }
        (None, Some(ls)) => {
            scratch.cycles.extend((ls - ii + 1..=ls).rev());
            WindowKind::SuccsOnly
        }
        (Some(es), Some(ls)) => {
            scratch.cycles.extend(es..=ls.min(es + ii - 1));
            WindowKind::Both
        }
        (None, None) => {
            let asap = frames.asap[v.index()];
            scratch.cycles.extend(asap..asap + ii);
            WindowKind::Free
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tms_ddg::{DdgBuilder, OpClass};
    use tms_machine::MachineModel;

    /// The `prepare` memoisation keys on [`Ddg::uid`], so one scratch
    /// re-used across *different* graphs must transparently re-prepare
    /// — a stale topological order would corrupt every window bound.
    #[test]
    fn scratch_reprepares_across_distinct_graphs() {
        let build = |name: &str, lat: u32| {
            let mut b = DdgBuilder::new(name);
            let a = b.inst_lat("a", OpClass::FpMul, lat);
            let c = b.inst("c", OpClass::IntAlu);
            b.reg_flow(a, c, 0);
            (b.build().unwrap(), a, c)
        };
        let (g1, a1, c1) = build("w1", 4);
        let (g2, a2, c2) = build("w2", 2);
        let m = MachineModel::icpp2008();
        let mut shared = WindowScratch::default();
        for (g, a, c) in [(&g1, a1, c1), (&g2, a2, c2), (&g1, a1, c1)] {
            let frames = TimeFrames::compute(g, 4).unwrap();
            let mut ps = PartialSchedule::new(g, 4, &m);
            ps.place(g, a, 0);
            shared.prepare(g);
            let kind = window_into(g, &ps, &frames, c, &mut shared);
            let fresh = window_of(g, &ps, &frames, c);
            assert_eq!(kind, fresh.kind, "{}: kind drifted", g.name());
            assert_eq!(shared.cycles, fresh.cycles, "{}: cycles drifted", g.name());
        }
        // Same graph twice in a row: the memo hit must be inert.
        shared.prepare(&g1);
        shared.prepare(&g1);
    }

    #[test]
    fn preds_only_scans_upward() {
        let mut b = DdgBuilder::new("w");
        let a = b.inst_lat("a", OpClass::FpMul, 4);
        let c = b.inst("c", OpClass::IntAlu);
        b.reg_flow(a, c, 0);
        let g = b.build().unwrap();
        let m = MachineModel::icpp2008();
        let frames = TimeFrames::compute(&g, 4).unwrap();
        let mut ps = PartialSchedule::new(&g, 4, &m);
        ps.place(&g, a, 0);
        let w = window_of(&g, &ps, &frames, c);
        assert_eq!(w.kind, WindowKind::PredsOnly);
        assert_eq!(w.cycles, vec![4, 5, 6, 7]);
    }

    #[test]
    fn succs_only_scans_downward_like_paper_n6() {
        // Reproduce n6's window [7,0] from the motivating example:
        // unit-latency n6 feeds n0 (placed at 0) across distance 1 with
        // II=8: LS = 0 - 1 + 8 = 7, window scanned 7,6,...,0.
        let mut b = DdgBuilder::new("n6");
        let n0 = b.inst("n0", OpClass::IntAlu);
        let n6 = b.inst("n6", OpClass::IntAlu);
        b.reg_flow(n6, n0, 1);
        b.reg_flow(n6, n6, 1);
        let g = b.build().unwrap();
        let m = MachineModel::icpp2008();
        let frames = TimeFrames::compute(&g, 8).unwrap();
        let mut ps = PartialSchedule::new(&g, 8, &m);
        ps.place(&g, n0, 0);
        let w = window_of(&g, &ps, &frames, n6);
        assert_eq!(w.kind, WindowKind::SuccsOnly);
        assert_eq!(w.cycles, vec![7, 6, 5, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn both_sides_bound_the_window() {
        let mut b = DdgBuilder::new("both");
        let a = b.inst("a", OpClass::IntAlu); // lat 1
        let v = b.inst("v", OpClass::IntAlu); // lat 1
        let z = b.inst("z", OpClass::IntAlu);
        b.reg_flow(a, v, 0);
        b.reg_flow(v, z, 0);
        let g = b.build().unwrap();
        let m = MachineModel::icpp2008();
        let frames = TimeFrames::compute(&g, 4).unwrap();
        let mut ps = PartialSchedule::new(&g, 4, &m);
        ps.place(&g, a, 0);
        ps.place(&g, z, 3);
        let w = window_of(&g, &ps, &frames, v);
        assert_eq!(w.kind, WindowKind::Both);
        assert_eq!(w.cycles, vec![1, 2]);
    }

    #[test]
    fn infeasible_both_window_is_empty() {
        let mut b = DdgBuilder::new("infeasible");
        let a = b.inst_lat("a", OpClass::FpDiv, 12);
        let v = b.inst("v", OpClass::IntAlu);
        let z = b.inst("z", OpClass::IntAlu);
        b.reg_flow(a, v, 0);
        b.reg_flow(v, z, 0);
        let g = b.build().unwrap();
        let m = MachineModel::icpp2008();
        let frames = TimeFrames::compute(&g, 4).unwrap();
        let mut ps = PartialSchedule::new(&g, 4, &m);
        ps.place(&g, a, 0);
        ps.place(&g, z, 3); // v needs >= 12 but <= 2 — impossible
        let w = window_of(&g, &ps, &frames, v);
        assert!(w.cycles.is_empty());
    }

    #[test]
    fn free_window_starts_at_asap() {
        let mut b = DdgBuilder::new("free");
        let a = b.inst("a", OpClass::IntAlu);
        let c = b.inst("c", OpClass::IntAlu);
        b.reg_flow(a, c, 0);
        let g = b.build().unwrap();
        let m = MachineModel::icpp2008();
        let frames = TimeFrames::compute(&g, 2).unwrap();
        let ps = PartialSchedule::new(&g, 2, &m);
        let w = window_of(&g, &ps, &frames, c);
        assert_eq!(w.kind, WindowKind::Free);
        assert_eq!(w.cycles, vec![1, 2]);
    }

    #[test]
    fn self_dependence_does_not_constrain_own_slot() {
        let mut b = DdgBuilder::new("self");
        let a = b.inst_lat("a", OpClass::FpAdd, 4);
        b.reg_flow(a, a, 1);
        let g = b.build().unwrap();
        let m = MachineModel::icpp2008();
        let frames = TimeFrames::compute(&g, 4).unwrap();
        let ps = PartialSchedule::new(&g, 4, &m);
        let w = window_of(&g, &ps, &frames, a);
        assert_eq!(w.kind, WindowKind::Free);
        assert_eq!(w.cycles.len(), 4);
    }

    #[test]
    fn transitive_bound_tightens_chorded_recurrence() {
        // Tight recurrence n0(3) -> n1(1) -> n2(1) -> n4(2) -> n5(1)
        // -> n0 (d=1) at II=8, plus a memory chord n5 -> n2 (d=1).
        // With n5 at 7 and n4 at 5 placed, n2's direct-edge ES would be
        // 0 (the chord), but the recurrence transitively forces 4.
        let mut b = DdgBuilder::new("chord");
        let n0 = b.inst_lat("n0", OpClass::Load, 3);
        let n1 = b.inst_lat("n1", OpClass::IntAlu, 1);
        let n2 = b.inst_lat("n2", OpClass::IntAlu, 1);
        let n4 = b.inst_lat("n4", OpClass::IntAlu, 2);
        let n5 = b.inst_lat("n5", OpClass::Store, 1);
        b.reg_flow(n0, n1, 0);
        b.reg_flow(n1, n2, 0);
        b.reg_flow(n2, n4, 0);
        b.reg_flow(n4, n5, 0);
        b.reg_flow(n5, n0, 1);
        b.mem_flow(n5, n2, 1, 0.02);
        let g = b.build().unwrap();
        let m = MachineModel::icpp2008();
        let frames = TimeFrames::compute(&g, 8).unwrap();
        let mut ps = PartialSchedule::new(&g, 8, &m);
        ps.place(&g, n5, 7);
        ps.place(&g, n4, 5);
        let w = window_of(&g, &ps, &frames, n2);
        assert_eq!(w.kind, WindowKind::Both);
        assert_eq!(w.cycles, vec![4], "recurrence forces exactly cycle 4");
    }

    #[test]
    fn topological_sweep_matches_naive_fixpoint() {
        // Differential check of the ordered sweep against a reference
        // repeat-until-stable relaxation, across partial placements of
        // a loop whose back edges actually fire (a two-cycle recurrence
        // with a chord). Bounds are fixpoints of order-independent
        // max/min relaxations, so both must agree exactly.
        let mut b = DdgBuilder::new("diff");
        let n0 = b.inst_lat("n0", OpClass::Load, 3);
        let n1 = b.inst_lat("n1", OpClass::FpMul, 4);
        let n2 = b.inst_lat("n2", OpClass::IntAlu, 1);
        let n3 = b.inst_lat("n3", OpClass::Store, 1);
        b.reg_flow(n0, n1, 0);
        b.reg_flow(n1, n2, 0);
        b.reg_flow(n2, n0, 1); // recurrence
        b.reg_flow(n2, n3, 0);
        b.mem_flow(n3, n0, 1, 0.05); // loop-carried chord
        b.reg_flow(n3, n1, 2); // second back edge
        let g = b.build().unwrap();
        let m = MachineModel::icpp2008();
        let ii = 9u32;

        // Reference: naive Bellman over all edges until stable.
        let naive = |ps: &PartialSchedule, v: InstId, upper: bool| -> Option<i64> {
            let iil = ii as i64;
            let mut dist: Vec<Option<i64>> = g.inst_ids().map(|u| ps.time(u)).collect();
            for _ in 0..=g.edges().len() {
                let mut changed = false;
                for e in g.edges() {
                    if upper {
                        if ps.is_placed(e.src) {
                            continue;
                        }
                        if let Some(dd) = dist[e.dst.index()] {
                            let cand = dd - e.delay + iil * e.distance as i64;
                            if dist[e.src.index()].is_none_or(|d| cand < d) {
                                dist[e.src.index()] = Some(cand);
                                changed = true;
                            }
                        }
                    } else {
                        if ps.is_placed(e.dst) {
                            continue;
                        }
                        if let Some(ds) = dist[e.src.index()] {
                            let cand = ds + e.delay - iil * e.distance as i64;
                            if dist[e.dst.index()].is_none_or(|d| cand > d) {
                                dist[e.dst.index()] = Some(cand);
                                changed = true;
                            }
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            dist[v.index()]
        };

        let mut scratch = WindowScratch::default();
        scratch.prepare(&g);
        let nodes = [n0, n1, n2, n3];
        // Every subset of placements at representative slots.
        for mask in 0u32..16 {
            let mut ps = PartialSchedule::new(&g, ii, &m);
            for (i, &n) in nodes.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    ps.place(&g, n, (i as i64) * 3 + 1);
                }
            }
            for &v in &nodes {
                if ps.is_placed(v) {
                    continue;
                }
                assert_eq!(
                    lower_bound_with(&g, &ps, v, &mut scratch),
                    naive(&ps, v, false),
                    "lower bound diverged (mask {mask:#06b}, node {v:?})"
                );
                assert_eq!(
                    upper_bound_with(&g, &ps, v, &mut scratch),
                    naive(&ps, v, true),
                    "upper bound diverged (mask {mask:#06b}, node {v:?})"
                );
            }
        }
    }
}
