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
//! so each bound touches only the nodes that can decide it. Only `v`'s
//! unplaced ancestors (for the lower bound; descendants for the upper)
//! can lie on a path from a placed node to `v` through unplaced
//! nodes. A bound first walks that *cone* from `v` over a precomputed
//! adjacency. When no placed node borders the cone the bound is unset
//! and nothing is relaxed; otherwise the cone's nodes pull from their
//! neighbours in a precomputed topological order of the
//! intra-iteration (distance-0) subgraph. One pass reaches the
//! fixpoint unless the cone holds a rank-inverted (loop-carried) edge,
//! and then passes repeat until one changes nothing. At any II that
//! has time frames (II ≥ RecII) no cycle has positive weight, so the
//! fixpoint is unique: a pure `max` (resp. `min`) over paths,
//! independent of which edges are relaxed in which order. The bounds,
//! and therefore the schedules, are bit-identical to a naive repeated
//! sweep over every edge of the loop. Over Fig. 4's loops the cones
//! average 1.2 nodes (lower bound) and 7.7 (upper), in loops of ~70
//! nodes, and 46% of upper bounds find no placed node and relax
//! nothing.

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

/// One dependence as seen from one of its endpoints: the node at the
/// other end and the edge's weight components. The in-list of `w` holds
/// its predecessors, the out-list its successors.
#[derive(Debug, Clone, Copy)]
struct Adj {
    node: u32,
    distance: u32,
    delay: i64,
}

/// Reusable buffers for repeated window computations. One scratch per
/// worker amortises the adjacency, the topological rank, the cone
/// marks and the candidate list across every node of every scheduling
/// attempt.
///
/// [`WindowScratch::prepare`] must run once per DDG before
/// [`window_into`] / [`force_floor_with`] (the engine does this at the
/// top of each attempt); the convenience wrapper [`window_of`]
/// prepares its own scratch.
#[derive(Debug, Default, Clone)]
pub struct WindowScratch {
    /// Longest-path value per node; only the entries of the current
    /// cone are meaningful. `i64::MIN` / `i64::MAX` sentinels mean
    /// “unreached” for the lower / upper bound respectively.
    dist: Vec<i64>,
    /// Topological rank of each node over the distance-0 subgraph
    /// (loop-carried edges excluded; any residual cycle gets arbitrary
    /// ranks — correctness falls back to the repeat passes).
    rank: Vec<u32>,
    /// Predecessor arcs of node `w`: `in_arcs[in_start[w]..in_start[w + 1]]`.
    in_start: Vec<u32>,
    in_arcs: Vec<Adj>,
    /// Successor arcs of node `w`, laid out like the predecessors.
    out_start: Vec<u32>,
    out_arcs: Vec<Adj>,
    /// Cone membership: `mark[n] == epoch` while `n` is in the cone
    /// being walked, so starting a new cone is one increment.
    mark: Vec<u32>,
    epoch: u32,
    /// The current cone, in sweep order once its walk completes.
    cone: Vec<u32>,
    /// Kahn worklist buffers.
    indeg: Vec<u32>,
    queue: Vec<u32>,
    /// [`Ddg::uid`] the adjacency and rank were computed for;
    /// [`prepare`] short-circuits when asked for the same graph again,
    /// which makes repeated attempts on one loop pay the `O(V + E)`
    /// setup once instead of once per attempt.
    ///
    /// [`prepare`]: WindowScratch::prepare
    prepared_uid: Option<u64>,
    /// Candidate cycles of the most recent [`window_into`] call,
    /// first-preference first.
    pub cycles: Vec<i64>,
}

impl WindowScratch {
    /// Precompute the adjacency and topological rank for `ddg`.
    /// `O(V + E)` cold; a no-op when the scratch is already prepared
    /// for this exact graph (keyed on [`Ddg::uid`], so a different
    /// graph at the same address or with the same shape can never
    /// alias).
    pub fn prepare(&mut self, ddg: &Ddg) {
        if self.prepared_uid == Some(ddg.uid()) {
            return;
        }
        let n = ddg.num_insts();
        // Kahn over the intra-iteration (distance-0) subgraph, which a
        // legal DDG keeps acyclic. Nodes stuck on a residual cycle (a
        // malformed graph) are ranked after all others in index order;
        // the rank-inverted edges then simply force repeat passes.
        self.indeg.clear();
        self.indeg.resize(n, 0);
        for e in ddg.edges() {
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
        self.in_start.clear();
        self.in_arcs.clear();
        self.out_start.clear();
        self.out_arcs.clear();
        for w in ddg.inst_ids() {
            self.in_start.push(self.in_arcs.len() as u32);
            self.in_arcs.extend(ddg.pred_edges(w).map(|(_, e)| Adj {
                node: e.src.0,
                distance: e.distance,
                delay: e.delay,
            }));
            self.out_start.push(self.out_arcs.len() as u32);
            self.out_arcs.extend(ddg.succ_edges(w).map(|(_, e)| Adj {
                node: e.dst.0,
                distance: e.distance,
                delay: e.delay,
            }));
        }
        self.in_start.push(self.in_arcs.len() as u32);
        self.out_start.push(self.out_arcs.len() as u32);
        self.dist.clear();
        self.dist.resize(n, 0);
        self.mark.clear();
        self.mark.resize(n, 0);
        self.epoch = 0;
        self.prepared_uid = Some(ddg.uid());
    }

    /// Walk the cone of unplaced `v`: the unplaced nodes with a path to
    /// `v` (`UPPER = false`) or from `v` (`UPPER = true`) through
    /// unplaced nodes only, `v` included. Leaves it in `cone` in sweep
    /// order — ascending rank for the lower bound, descending for the
    /// upper. Returns `None` when no placed node borders the cone (the
    /// bound is unreached), else whether the cone holds an edge whose
    /// sweep order is inverted (`rank[dst] < rank[src]`, self edges
    /// excluded), the only way one pass can miss the fixpoint.
    fn walk_cone<const UPPER: bool>(&mut self, ps: &PartialSchedule, v: InstId) -> Option<bool> {
        let Self {
            rank,
            in_start,
            in_arcs,
            out_start,
            out_arcs,
            mark,
            epoch,
            cone,
            ..
        } = self;
        *epoch = epoch.wrapping_add(1);
        if *epoch == 0 {
            mark.fill(0);
            *epoch = 1;
        }
        let (start, arcs) = if UPPER {
            (&*out_start, &*out_arcs)
        } else {
            (&*in_start, &*in_arcs)
        };
        cone.clear();
        cone.push(v.0);
        mark[v.index()] = *epoch;
        let (mut bordered, mut inverted) = (false, false);
        let mut head = 0;
        while head < cone.len() {
            let w = cone[head] as usize;
            head += 1;
            for a in &arcs[start[w] as usize..start[w + 1] as usize] {
                let u = a.node as usize;
                if ps.is_placed(InstId(a.node)) {
                    bordered = true;
                    continue;
                }
                inverted |= if UPPER {
                    rank[u] < rank[w]
                } else {
                    rank[u] > rank[w]
                };
                if mark[u] != *epoch {
                    mark[u] = *epoch;
                    cone.push(a.node);
                }
            }
        }
        if !bordered {
            return None;
        }
        if UPPER {
            cone.sort_unstable_by_key(|&n| std::cmp::Reverse(rank[n as usize]));
        } else {
            cone.sort_unstable_by_key(|&n| rank[n as usize]);
        }
        Some(inverted)
    }
}

/// Longest-path lower bound on `t(v)` from scheduled nodes through
/// unscheduled intermediates: `max` over paths `p : u ⤳ v` with `u`
/// scheduled and interior nodes unscheduled of
/// `t(u) + Σ_e (delay(e) − II·distance(e))`. A scheduled `v` gets its
/// own time.
///
/// Requires [`WindowScratch::prepare`] for this DDG.
fn lower_bound_with(
    ddg: &Ddg,
    ps: &PartialSchedule,
    v: InstId,
    scratch: &mut WindowScratch,
) -> Option<i64> {
    debug_assert_eq!(
        scratch.rank.len(),
        ddg.num_insts(),
        "WindowScratch::prepare was not run for this DDG"
    );
    if let Some(t) = ps.time(v) {
        return Some(t);
    }
    let inverted = scratch.walk_cone::<false>(ps, v)?;
    let ii = ps.ii() as i64;
    let WindowScratch {
        dist,
        in_start,
        in_arcs,
        cone,
        ..
    } = scratch;
    for &n in cone.iter() {
        dist[n as usize] = i64::MIN;
    }
    // Each cone node pulls from its predecessors in rank order: placed
    // ones are fixed, unplaced ones are cone members. Without an
    // inverted edge every cone predecessor is final when read, so one
    // pass is the fixpoint; otherwise passes repeat until stable.
    for _ in 0..=cone.len() {
        let mut changed = false;
        for &w in cone.iter() {
            let w = w as usize;
            let mut best = dist[w];
            for a in &in_arcs[in_start[w] as usize..in_start[w + 1] as usize] {
                let du = ps.time(InstId(a.node)).unwrap_or(dist[a.node as usize]);
                if du != i64::MIN {
                    best = best.max(du + a.delay - ii * a.distance as i64);
                }
            }
            if best != dist[w] {
                dist[w] = best;
                changed = true;
            }
        }
        if !changed || !inverted {
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
    debug_assert_eq!(
        scratch.rank.len(),
        ddg.num_insts(),
        "WindowScratch::prepare was not run for this DDG"
    );
    if let Some(t) = ps.time(v) {
        return Some(t);
    }
    let inverted = scratch.walk_cone::<true>(ps, v)?;
    let ii = ps.ii() as i64;
    let WindowScratch {
        dist,
        out_start,
        out_arcs,
        cone,
        ..
    } = scratch;
    for &n in cone.iter() {
        dist[n as usize] = i64::MAX;
    }
    // Mirror image of the lower bound: each cone node pulls from its
    // successors in reverse rank order (sentinel `i64::MAX`, `min`).
    for _ in 0..=cone.len() {
        let mut changed = false;
        for &w in cone.iter() {
            let w = w as usize;
            let mut best = dist[w];
            for a in &out_arcs[out_start[w] as usize..out_start[w + 1] as usize] {
                let dd = ps.time(InstId(a.node)).unwrap_or(dist[a.node as usize]);
                if dd != i64::MAX {
                    best = best.min(dd - a.delay + ii * a.distance as i64);
                }
            }
            if best != dist[w] {
                dist[w] = best;
                changed = true;
            }
        }
        if !changed || !inverted {
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
/// ejected and rescheduled. Requires [`WindowScratch::prepare`] for
/// this DDG.
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
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use tms_ddg::{DdgBuilder, OpClass};
    use tms_machine::MachineModel;

    /// Reference bound: naive Bellman–Ford over every edge of the loop
    /// until stable, from the placed nodes' times through unplaced
    /// nodes (a placed `v` keeps its own time).
    fn naive_bound(g: &Ddg, ps: &PartialSchedule, v: InstId, upper: bool) -> Option<i64> {
        let iil = ps.ii() as i64;
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
    }

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
        let naive = |ps: &PartialSchedule, v: InstId, upper: bool| naive_bound(&g, ps, v, upper);

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

    #[test]
    fn cone_bounds_match_naive_fixpoint_on_workload_populations() {
        // Every bound the engine reads, over seeded random partial
        // placements of the fuzz population, the kernels and
        // Livermore at three IIs ≥ MII, placed nodes included: the
        // cone-bounded lower and upper bounds and the forced floor
        // must equal the naive fixpoint over all edges exactly.
        let m = MachineModel::icpp2008();
        let mut graphs = tms_verify::fuzz_ddgs(60, 0x7a11);
        graphs.extend(tms_workloads::kernels::all_kernels());
        graphs.extend(tms_workloads::livermore_suite());
        let mut rng = SmallRng::seed_from_u64(24);
        let mut scratch = WindowScratch::default();
        let (mut checked, mut bounded) = (0usize, 0usize);
        for g in &graphs {
            scratch.prepare(g);
            let mii = tms_machine::mii(g, &m);
            for ii in [mii, mii + 1, mii + 3] {
                let Some(frames) = TimeFrames::compute(g, ii) else {
                    continue;
                };
                for trial in 0..4 {
                    let mut ps = PartialSchedule::new(g, ii, &m);
                    let density = rng.gen_range(0.1..0.9);
                    for u in g.inst_ids() {
                        if rng.gen_bool(density) {
                            let c =
                                frames.asap[u.index()] + rng.gen_range(-(ii as i64)..2 * ii as i64);
                            if ps.fits(g, u, c) {
                                ps.place(g, u, c);
                            }
                        }
                    }
                    for v in g.inst_ids() {
                        let ctx = || format!("{} II {ii} trial {trial} node {v:?}", g.name());
                        let lower = naive_bound(g, &ps, v, false);
                        let upper = naive_bound(g, &ps, v, true);
                        assert_eq!(
                            lower_bound_with(g, &ps, v, &mut scratch),
                            lower,
                            "lower: {}",
                            ctx()
                        );
                        assert_eq!(
                            upper_bound_with(g, &ps, v, &mut scratch),
                            upper,
                            "upper: {}",
                            ctx()
                        );
                        assert_eq!(
                            force_floor_with(g, &ps, &frames, v, &mut scratch),
                            lower.unwrap_or(frames.asap[v.index()]),
                            "forced floor: {}",
                            ctx()
                        );
                        checked += 1;
                        bounded +=
                            (!ps.is_placed(v) && lower.is_some() && upper.is_some()) as usize;
                    }
                }
            }
        }
        assert!(
            checked > 10_000 && bounded > 1_000,
            "{checked} nodes, {bounded} two-sided"
        );
    }
}
