//! The modulo reservation table (MRT).
//!
//! A schedule at initiation interval `II` may place at most
//! `units(class)` operations of each functional-unit class — and at
//! most `issue_width` operations in total — in each of the `II` modulo
//! rows. Non-pipelined units (occupancy > 1) keep their unit busy for
//! several consecutive rows. The MRT tracks row occupancy as
//! instructions are placed and removed during the iterative scheduling
//! process.

use tms_ddg::OpClass;
use tms_machine::{MachineModel, ResourceClass};

/// Occupancy of the `II` modulo rows of a partial schedule.
#[derive(Debug, Clone)]
pub struct Mrt {
    ii: u32,
    machine: MachineModel,
    /// `used[row * 5 + class]` — unit-cycles of `class` busy in `row`.
    used: Vec<u32>,
    /// Operations issued in each row (issue-width accounting).
    row_total: Vec<u32>,
}

impl Mrt {
    /// An empty table for the given `II` and machine.
    pub fn new(ii: u32, machine: &MachineModel) -> Self {
        let mut mrt = Mrt {
            ii: 0,
            machine: machine.clone(),
            used: Vec::new(),
            row_total: Vec::new(),
        };
        mrt.reset(ii, machine);
        mrt
    }

    /// Clear the table and retarget it to a new `II`, reusing the
    /// existing row buffers. Equivalent to `Mrt::new` without the
    /// allocations — the scheduling engines call this once per attempt.
    pub fn reset(&mut self, ii: u32, machine: &MachineModel) {
        assert!(ii >= 1, "II must be at least 1");
        if &self.machine != machine {
            self.machine = machine.clone();
        }
        self.ii = ii;
        self.used.clear();
        self.used.resize(ii as usize * ResourceClass::ALL.len(), 0);
        self.row_total.clear();
        self.row_total.resize(ii as usize, 0);
    }

    /// Modulo row of an absolute issue cycle (cycles may be negative
    /// while a schedule is under construction).
    #[inline]
    pub fn row_of(&self, cycle: i64) -> usize {
        cycle.rem_euclid(self.ii as i64) as usize
    }

    /// The `used` cells an op of `class` issued in row `first` keeps
    /// busy: the issue row plus the next `occupancy − 1` rows, stepping
    /// with a wrap at `II`. The span is clamped to `II`, so a slow unit
    /// at small II occupies every row once.
    #[inline]
    fn cells(&self, class: ResourceClass, first: usize) -> impl Iterator<Item = usize> {
        let ii = self.ii as usize;
        let span = self.machine.occupancy_of(class).min(self.ii) as usize;
        let col = class.index();
        (first..first + span).map(move |r| {
            let row = if r >= ii { r - ii } else { r };
            row * ResourceClass::ALL.len() + col
        })
    }

    /// Whether an operation of class `op` can issue at `cycle` without
    /// oversubscribing a unit (across its whole occupancy) or the issue
    /// width (at the issue row).
    #[inline]
    pub fn can_place(&self, op: OpClass, cycle: i64) -> bool {
        let class = ResourceClass::for_op(op);
        let units = self.machine.units_of(class);
        let row = self.row_of(cycle);
        self.row_total[row] < self.machine.issue_width
            && self.cells(class, row).all(|i| self.used[i] < units)
    }

    /// Reserve a slot. Callers must check [`Mrt::can_place`] first —
    /// debug builds assert it, release builds trust the probe the
    /// scheduling engines already performed.
    pub fn place(&mut self, op: OpClass, cycle: i64) {
        debug_assert!(self.can_place(op, cycle), "MRT slot oversubscribed");
        let row = self.row_of(cycle);
        for i in self.cells(ResourceClass::for_op(op), row) {
            self.used[i] += 1;
        }
        self.row_total[row] += 1;
    }

    /// Release a previously reserved slot.
    pub fn remove(&mut self, op: OpClass, cycle: i64) {
        let row = self.row_of(cycle);
        for i in self.cells(ResourceClass::for_op(op), row) {
            let cell = &mut self.used[i];
            assert!(*cell > 0, "removing empty unit slot");
            *cell -= 1;
        }
        let total = &mut self.row_total[row];
        assert!(*total > 0, "removing empty issue slot");
        *total -= 1;
    }

    /// Operations currently issued in `row`.
    pub fn row_occupancy(&self, row: usize) -> u32 {
        self.row_total[row]
    }

    /// Unit-cycles of `class` busy in `row` (diagnostic row pressure).
    pub fn used_in_row(&self, row: usize, class: ResourceClass) -> u32 {
        self.used[row * ResourceClass::ALL.len() + class.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mrt(ii: u32) -> Mrt {
        Mrt::new(ii, &MachineModel::icpp2008())
    }

    #[test]
    fn unit_saturation_blocks_placement() {
        let mut m = mrt(4);
        // One FpMulDiv unit: a second FP multiply in the same row must
        // be rejected; a different row is fine.
        assert!(m.can_place(OpClass::FpMul, 0));
        m.place(OpClass::FpMul, 0);
        assert!(!m.can_place(OpClass::FpMul, 0));
        assert!(!m.can_place(OpClass::FpMul, 4)); // same modulo row
        assert!(m.can_place(OpClass::FpMul, 1));
    }

    #[test]
    fn issue_width_blocks_row() {
        let mut m = mrt(2);
        // Fill row 0 to the 4-wide issue limit with mixed classes.
        m.place(OpClass::IntAlu, 0);
        m.place(OpClass::IntAlu, 0);
        m.place(OpClass::Load, 0);
        m.place(OpClass::Load, 0);
        assert_eq!(m.row_occupancy(0), 4);
        assert!(!m.can_place(OpClass::FpAdd, 0), "width exhausted");
        assert!(m.can_place(OpClass::FpAdd, 1));
    }

    #[test]
    fn negative_cycles_map_to_rows() {
        let m = mrt(4);
        assert_eq!(m.row_of(-1), 3);
        assert_eq!(m.row_of(-4), 0);
        assert_eq!(m.row_of(7), 3);
    }

    #[test]
    fn remove_frees_the_slot() {
        let mut m = mrt(3);
        m.place(OpClass::FpMul, 5); // row 2
        assert!(!m.can_place(OpClass::FpMul, 2));
        m.remove(OpClass::FpMul, 5);
        assert!(m.can_place(OpClass::FpMul, 2));
    }

    /// The oversubscription probe in `place` is a `debug_assert!` —
    /// the engines always probe `can_place` first, so release builds
    /// skip the duplicate scan — but debug builds must still catch a
    /// caller that skips the probe.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "oversubscribed")]
    fn double_place_panics_in_debug() {
        let mut m = mrt(1);
        m.place(OpClass::FpMul, 0);
        m.place(OpClass::FpMul, 0);
    }

    #[test]
    fn non_pipelined_unit_occupies_following_rows() {
        // Figure 1's machine: the FP multiplier is busy 4 cycles.
        let mut m = Mrt::new(8, &MachineModel::figure1_example());
        m.place(OpClass::FpMul, 1);
        // The unit is busy rows 1–4; any issue whose 4-row occupancy
        // overlaps them is rejected (row 0 covers 0–3, rows 2–4 start
        // inside the busy span).
        for row in 0..5 {
            assert!(!m.can_place(OpClass::FpMul, row), "row {row} overlaps");
        }
        assert!(m.can_place(OpClass::FpMul, 5)); // occupies 5,6,7,0
                                                 // The busy unit does not consume issue width in later rows.
        assert_eq!(m.row_occupancy(2), 0);
        m.remove(OpClass::FpMul, 1);
        assert!(m.can_place(OpClass::FpMul, 2));
    }

    /// First-principles reference: recount the occupancy the probe
    /// needs from the placed `(op, cycle)` list, with a `rem_euclid`
    /// per occupied row and no counters.
    fn recount_can_place(
        machine: &MachineModel,
        ii: u32,
        placed: &[(OpClass, i64)],
        op: OpClass,
        cycle: i64,
    ) -> bool {
        let row = |c: i64| c.rem_euclid(ii as i64);
        let class = ResourceClass::for_op(op);
        let span = machine.occupancy_of(class).min(ii) as i64;
        let issued = placed.iter().filter(|&&(_, c)| row(c) == row(cycle));
        if issued.count() as u32 >= machine.issue_width {
            return false;
        }
        (0..span).all(|k| {
            let r = row(cycle + k);
            let busy = placed
                .iter()
                .filter(|&&(o, c)| {
                    ResourceClass::for_op(o) == class && (0..span).any(|j| row(c + j) == r)
                })
                .count();
            (busy as u32) < machine.units_of(class)
        })
    }

    #[test]
    fn counter_probe_matches_recount_reference() {
        // Pipelined and non-pipelined classes on both machines, IIs
        // below, at and past the occupancy span and the row-walk wrap,
        // deterministic pseudo-random place/remove history.
        for machine in [MachineModel::icpp2008(), MachineModel::figure1_example()] {
            for ii in [1u32, 3, 17, 63, 64, 65, 130] {
                let mut m = Mrt::new(ii, &machine);
                let mut placed: Vec<(OpClass, i64)> = Vec::new();
                let mut state = 0x2008_u64;
                for step in 0..400 {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let op = match state >> 60 & 3 {
                        0 => OpClass::FpMul,
                        1 => OpClass::IntAlu,
                        2 => OpClass::Load,
                        _ => OpClass::FpAdd,
                    };
                    let cycle = (state >> 8 & 0x1ff) as i64 - 200;
                    let fits = m.can_place(op, cycle);
                    assert_eq!(
                        fits,
                        recount_can_place(&machine, ii, &placed, op, cycle),
                        "{machine:?} ii={ii} step={step} op={op:?} cycle={cycle}"
                    );
                    if fits && state & 1 == 0 {
                        m.place(op, cycle);
                        placed.push((op, cycle));
                    } else if !placed.is_empty() && state & 2 == 0 {
                        let (op, cycle) = placed.swap_remove((state >> 16) as usize % placed.len());
                        m.remove(op, cycle);
                    }
                }
            }
        }
    }

    #[test]
    fn wide_ii_aliases_modulo_rows() {
        let mut m = Mrt::new(100, &MachineModel::icpp2008());
        assert!(m.can_place(OpClass::FpMul, 90));
        m.place(OpClass::FpMul, 90);
        assert!(!m.can_place(OpClass::FpMul, 90));
        assert!(!m.can_place(OpClass::FpMul, 190)); // same modulo row
        assert!(m.can_place(OpClass::FpMul, 91));
        m.remove(OpClass::FpMul, 90);
        assert!(m.can_place(OpClass::FpMul, 190));
    }

    #[test]
    fn non_pipelined_occupancy_wraps_past_the_last_row() {
        // Occupancy 4 issued at row 64 of II=66 covers rows 64, 65, 0
        // and 1.
        let mut m = Mrt::new(66, &MachineModel::figure1_example());
        m.place(OpClass::FpMul, 64);
        for row in [61, 62, 63, 64, 65, 0, 1] {
            assert!(!m.can_place(OpClass::FpMul, row), "row {row} overlaps");
        }
        assert!(m.can_place(OpClass::FpMul, 2));
        assert!(m.can_place(OpClass::FpMul, 60));
        // Issue width is only consumed at the issue row.
        assert_eq!(m.row_occupancy(0), 0);
    }

    #[test]
    fn occupancy_wraps_modulo_ii() {
        // Occupancy 4 at II 3: every row gets covered (clamped), so a
        // second multiply cannot fit anywhere.
        let mut m = Mrt::new(3, &MachineModel::figure1_example());
        assert!(m.can_place(OpClass::FpMul, 0));
        m.place(OpClass::FpMul, 0);
        for row in 0..3 {
            assert!(!m.can_place(OpClass::FpMul, row));
        }
    }
}
