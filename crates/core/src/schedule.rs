//! Modulo schedules and kernels.
//!
//! A finished [`Schedule`] maps every instruction to an absolute issue
//! cycle; the *kernel* view folds those cycles modulo `II` into rows and
//! stages (Definition 1 of the paper). The [`PartialSchedule`] is the
//! incremental structure both SMS and TMS build (Figure 3's `PS`).

use crate::mrt::Mrt;
use serde::{Deserialize, Serialize};
use tms_ddg::{Ddg, Edge, InstId};
use tms_machine::MachineModel;

/// An in-progress schedule: assigned issue cycles plus the MRT.
#[derive(Debug, Clone)]
pub struct PartialSchedule {
    ii: u32,
    times: Vec<Option<i64>>,
    /// Modulo row of each placed node (`u32::MAX` when unplaced), set
    /// at [`place`](Self::place) so row queries divide nothing.
    rows: Vec<u32>,
    mrt: Mrt,
    placed: usize,
    /// Cached minimum placed cycle — the slot-admission policies query
    /// it on every probe, so it is maintained incrementally: O(1) on
    /// place, a rescan only when the current minimum is removed.
    min_time: Option<i64>,
}

impl PartialSchedule {
    /// Empty partial schedule for `ddg` at interval `ii`.
    pub fn new(ddg: &Ddg, ii: u32, machine: &MachineModel) -> Self {
        PartialSchedule {
            ii,
            times: vec![None; ddg.num_insts()],
            rows: vec![u32::MAX; ddg.num_insts()],
            mrt: Mrt::new(ii, machine),
            placed: 0,
            min_time: None,
        }
    }

    /// Clear the partial schedule and retarget it to a new loop/`II`,
    /// reusing the times and MRT buffers. Equivalent to
    /// [`PartialSchedule::new`] without the allocations.
    pub fn reset_for(&mut self, ddg: &Ddg, ii: u32, machine: &MachineModel) {
        self.ii = ii;
        self.times.clear();
        self.times.resize(ddg.num_insts(), None);
        self.rows.clear();
        self.rows.resize(ddg.num_insts(), u32::MAX);
        self.mrt.reset(ii, machine);
        self.placed = 0;
        self.min_time = None;
    }

    /// The initiation interval.
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Issue cycle of `n`, if placed.
    #[inline]
    pub fn time(&self, n: InstId) -> Option<i64> {
        self.times[n.index()]
    }

    /// Whether `n` has been placed.
    #[inline]
    pub fn is_placed(&self, n: InstId) -> bool {
        self.times[n.index()].is_some()
    }

    /// Earliest placed issue cycle — the origin the final schedule will
    /// be normalised to. `None` while nothing is placed.
    #[inline]
    pub fn min_time(&self) -> Option<i64> {
        self.min_time
    }

    /// Place `n` (an op of class taken from `ddg`) at `cycle`.
    ///
    /// Placing an already-placed node is an engine bug; like the MRT's
    /// occupancy check, it is asserted in debug builds only — this is
    /// the innermost call of every scheduling attempt.
    pub fn place(&mut self, ddg: &Ddg, n: InstId, cycle: i64) {
        debug_assert!(self.times[n.index()].is_none(), "{n} placed twice");
        self.mrt.place(ddg.inst(n).op, cycle);
        self.times[n.index()] = Some(cycle);
        self.rows[n.index()] = cycle.rem_euclid(self.ii as i64) as u32;
        self.placed += 1;
        if self.min_time.is_none_or(|m| cycle < m) {
            self.min_time = Some(cycle);
        }
    }

    /// Whether `n` could issue at `cycle` without resource conflicts.
    pub fn fits(&self, ddg: &Ddg, n: InstId, cycle: i64) -> bool {
        self.mrt.can_place(ddg.inst(n).op, cycle)
    }

    /// Unschedule a placed instruction (Rau-style ejection).
    pub fn remove(&mut self, ddg: &Ddg, n: InstId) {
        let t = self.times[n.index()].expect("removing unplaced node");
        self.mrt.remove(ddg.inst(n).op, t);
        self.times[n.index()] = None;
        self.rows[n.index()] = u32::MAX;
        self.placed -= 1;
        if self.min_time == Some(t) {
            self.min_time = self.times.iter().flatten().min().copied();
        }
    }

    /// Placed instructions currently occupying modulo row `row`.
    pub fn placed_in_row(&self, row: i64) -> impl Iterator<Item = InstId> + '_ {
        let row = row.rem_euclid(self.ii as i64) as u32;
        self.rows
            .iter()
            .enumerate()
            .filter_map(move |(i, &r)| (r == row).then_some(InstId(i as u32)))
    }

    /// Finalise: every instruction must be placed. Cycles are shifted
    /// so the earliest is 0, then rows/stages are derived.
    pub fn finish(self, ddg: &Ddg) -> Schedule {
        self.snapshot(ddg)
    }

    /// Non-consuming [`PartialSchedule::finish`]: the partial schedule
    /// (and its buffers) stays usable for the next attempt.
    pub fn snapshot(&self, ddg: &Ddg) -> Schedule {
        assert_eq!(self.placed, ddg.num_insts(), "incomplete schedule");
        // The running minimum is maintained incrementally, so the
        // normalisation origin needs no rescan.
        let min = self.min_time.expect("non-empty");
        debug_assert_eq!(self.times.iter().flatten().min().copied(), Some(min));
        let times: Vec<i64> = self.times.iter().map(|t| t.unwrap() - min).collect();
        Schedule::from_times(ddg, self.ii, times)
    }
}

/// A complete modulo schedule.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Schedule {
    ii: u32,
    /// Normalised issue cycle per instruction (min is 0).
    times: Vec<i64>,
    /// Stage per instruction: `times[n] / ii`.
    stages: Vec<u32>,
    /// Number of kernel stages (max stage + 1).
    stage_count: u32,
}

impl Schedule {
    /// Build from explicit times (already non-negative).
    pub fn from_times(ddg: &Ddg, ii: u32, times: Vec<i64>) -> Self {
        assert_eq!(times.len(), ddg.num_insts());
        assert!(times.iter().all(|&t| t >= 0), "times must be normalised");
        let stages: Vec<u32> = times.iter().map(|&t| (t / ii as i64) as u32).collect();
        let stage_count = stages.iter().copied().max().unwrap_or(0) + 1;
        Schedule {
            ii,
            times,
            stages,
            stage_count,
        }
    }

    /// Initiation interval.
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Normalised issue cycle of `n`.
    #[inline]
    pub fn time(&self, n: InstId) -> i64 {
        self.times[n.index()]
    }

    /// Kernel row of `n`: `time % II`.
    #[inline]
    pub fn row(&self, n: InstId) -> u32 {
        (self.time(n) % self.ii as i64) as u32
    }

    /// Stage number of `n` (Definition 1's `s_u`).
    #[inline]
    pub fn stage(&self, n: InstId) -> u32 {
        self.stages[n.index()]
    }

    /// Number of stages in the kernel.
    pub fn stage_count(&self) -> u32 {
        self.stage_count
    }

    /// Kernel distance of an edge (Definition 1):
    /// `d_ker(u,v) = d(u,v) + s_v − s_u`.
    pub fn d_ker(&self, e: &Edge) -> i64 {
        e.distance as i64 + self.stages[e.dst.index()] as i64 - self.stages[e.src.index()] as i64
    }

    /// All edges of `ddg` paired with their kernel distances.
    pub fn kernel_deps<'a>(&'a self, ddg: &'a Ddg) -> impl Iterator<Item = (&'a Edge, i64)> + 'a {
        ddg.edges().iter().map(move |e| (e, self.d_ker(e)))
    }

    /// Verify the fundamental legality property: for every dependence,
    /// `t(dst) ≥ t(src) + delay − II·distance`. Returns the first
    /// violated edge, or `None` when legal.
    pub fn check_legal<'a>(&self, ddg: &'a Ddg) -> Option<&'a Edge> {
        ddg.edges().iter().find(|e| {
            self.time(e.dst) < self.time(e.src) + e.delay - self.ii as i64 * e.distance as i64
        })
    }

    /// Verify MRT feasibility of the finished schedule against a
    /// machine model (used by tests and property checks).
    pub fn check_resources(&self, ddg: &Ddg, machine: &MachineModel) -> bool {
        let mut mrt = Mrt::new(self.ii, machine);
        for n in ddg.inst_ids() {
            if !mrt.can_place(ddg.inst(n).op, self.time(n)) {
                return false;
            }
            mrt.place(ddg.inst(n).op, self.time(n));
        }
        true
    }

    /// Render the kernel as rows of `(row, [inst names with stage])`,
    /// matching the paper's Figure 2(b)/(e) presentation.
    pub fn kernel_text(&self, ddg: &Ddg) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for r in 0..self.ii {
            let mut cells: Vec<String> = Vec::new();
            for n in ddg.inst_ids() {
                if self.row(n) == r {
                    cells.push(format!("{}[s{}]", ddg.inst(n).name, self.stage(n)));
                }
            }
            let _ = writeln!(out, "row {r:>3}: {}", cells.join("  "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tms_ddg::{DdgBuilder, OpClass};

    fn simple() -> Ddg {
        let mut b = DdgBuilder::new("s");
        let a = b.inst("a", OpClass::Load); // lat 3
        let c = b.inst("c", OpClass::FpAdd); // lat 2
        b.reg_flow(a, c, 0);
        b.build().unwrap()
    }

    #[test]
    fn partial_place_and_finish_normalises() {
        let g = simple();
        let m = MachineModel::icpp2008();
        let mut ps = PartialSchedule::new(&g, 2, &m);
        ps.place(&g, InstId(1), 5);
        ps.place(&g, InstId(0), 2);
        let s = ps.finish(&g);
        assert_eq!(s.time(InstId(0)), 0);
        assert_eq!(s.time(InstId(1)), 3);
        assert_eq!(s.stage(InstId(0)), 0);
        assert_eq!(s.stage(InstId(1)), 1);
        assert_eq!(s.stage_count(), 2);
        assert_eq!(s.row(InstId(1)), 1);
    }

    #[test]
    fn d_ker_matches_definition_one() {
        // n8 -> n5 with d=1 in the paper becomes d_ker=0 when n5 lands
        // one stage after n8.
        let g = {
            let mut b = DdgBuilder::new("dker");
            let n8 = b.inst("n8", OpClass::IntAlu);
            let n5 = b.inst("n5", OpClass::IntAlu);
            b.reg_flow(n8, n5, 1);
            b.build().unwrap()
        };
        let s = Schedule::from_times(&g, 4, vec![6, 1]); // stages 1, 0
        let e = &g.edges()[0];
        assert_eq!(s.d_ker(e), 0); // 1 + s_dst(0) − s_src(1)
    }

    #[test]
    fn legality_check_flags_violations() {
        let g = simple();
        // Load latency 3, so c at time 1 violates with II=2, d=0:
        // t(c)=1 < t(a)=0 + 3 - 0.
        let bad = Schedule::from_times(&g, 2, vec![0, 1]);
        assert!(bad.check_legal(&g).is_some());
        let good = Schedule::from_times(&g, 2, vec![0, 3]);
        assert!(good.check_legal(&g).is_none());
    }

    #[test]
    fn loop_carried_edges_relax_legality() {
        let mut b = DdgBuilder::new("lc");
        let a = b.inst_lat("a", OpClass::FpMul, 4);
        let c = b.inst("c", OpClass::IntAlu);
        b.reg_flow(a, c, 1);
        let g = b.build().unwrap();
        // II=4: t(c) >= 0 + 4 - 4 = 0 — legal at 0.
        let s = Schedule::from_times(&g, 4, vec![0, 0]);
        assert!(s.check_legal(&g).is_none());
        // II=2: t(c) >= 0 + 4 - 2 = 2 — time 0 illegal.
        let s = Schedule::from_times(&g, 2, vec![0, 0]);
        assert!(s.check_legal(&g).is_some());
    }

    #[test]
    fn resource_check_detects_conflicts() {
        let mut b = DdgBuilder::new("res");
        let a = b.inst("m1", OpClass::FpMul);
        let c = b.inst("m2", OpClass::FpMul);
        b.reg_flow(a, c, 1);
        let g = b.build().unwrap();
        let m = MachineModel::icpp2008();
        // Same modulo row (II=2, times 0 and 2) on one FP mul unit.
        let s = Schedule::from_times(&g, 2, vec![0, 2]);
        assert!(!s.check_resources(&g, &m));
        let s = Schedule::from_times(&g, 2, vec![0, 5]);
        assert!(s.check_resources(&g, &m));
    }

    #[test]
    fn kernel_text_lists_all_rows() {
        let g = simple();
        let s = Schedule::from_times(&g, 2, vec![0, 3]);
        let txt = s.kernel_text(&g);
        assert!(txt.contains("row   0: a[s0]"));
        assert!(txt.contains("row   1: c[s1]"));
    }
}
