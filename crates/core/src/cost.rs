//! The paper's §4.2 cost model.
//!
//! Approximates the execution time of a modulo-scheduled loop on an
//! SpMT multicore as `T = T_nomiss + T_mis_spec` with
//!
//! ```text
//! T_nomiss   = max(C_spn, C_ci, C_delay, T_lb / ncore) · N      (eq. 2)
//! T_lb       = II + C_ci + max(C_spn, C_delay)
//! P_M        = 1 − Π_{e ∈ M} (1 − p_e)                          (eq. 3)
//! T_mis_spec = (II + C_inv − max(0, C_delay − C_spn)) · P_M · N
//! ```
//!
//! plus Definition 2's synchronisation delay `sync(x, y)` and
//! Definition 3's *preserved* test for speculated memory dependences.

use serde::{Deserialize, Serialize};
use tms_machine::CostConstants;

/// Definition 2: synchronisation delay of an inter-iteration register
/// dependence `x → y` given the kernel rows of both ends.
///
/// `sync(x,y) = issue_slot(x)%II − issue_slot(y)%II + lat(x) + C_reg_com`
///
/// Negative values mean the value arrives before the consumer's slot —
/// no stall. Callers clamp when aggregating into `C_delay`.
#[inline]
pub fn sync_delay(row_x: i64, row_y: i64, lat_x: u32, costs: &CostConstants) -> i64 {
    row_x - row_y + lat_x as i64 + costs.c_reg_com as i64
}

/// Definition 3 (reconstructed — see DESIGN.md §5): an inter-iteration
/// memory dependence `x → y` with kernel distance `δ ≥ 1` is
/// *preserved* by a synchronised register dependence `u → v` when
///
/// * `u` issues earlier than `x` within the kernel
///   (`row(u) < row(x)`), and
/// * the per-thread skew the synchronisation enforces covers the
///   memory dependence across its `δ` thread hops:
///   `δ · sync(u,v) ≥ row(x) + lat(x) − row(y)`.
#[inline]
pub fn preserves(
    sync_uv: i64,
    row_u: i64,
    row_x: i64,
    row_y: i64,
    lat_x: u32,
    d_ker_xy: i64,
) -> bool {
    debug_assert!(d_ker_xy >= 1);
    row_u < row_x && d_ker_xy * sync_uv >= row_x + lat_x as i64 - row_y
}

/// Equation 3: combined misspeculation probability of a set of
/// independent speculated dependences.
///
/// Each `p` is clamped to `[0, 1]` (NaN to 0): a fuzzed or mis-profiled
/// edge probability outside the unit interval would otherwise make the
/// product drift outside `[0, 1]` and silently corrupt both the C2
/// admission check and `t_mis_spec`. [`tms_ddg::DdgBuilder`] already
/// clamps probabilities at construction, so a violation here means a
/// `Ddg` was assembled by hand around the builder — debug builds flag
/// it, release builds degrade to the clamped value.
pub fn misspec_probability(probs: impl IntoIterator<Item = f64>) -> f64 {
    let surviving: f64 = probs
        .into_iter()
        .map(|p| {
            debug_assert!(
                (0.0..=1.0).contains(&p),
                "edge probability {p} outside [0, 1]"
            );
            1.0 - clamp_probability(p)
        })
        .product();
    1.0 - surviving
}

/// Clamp a profiled probability to `[0, 1]`; NaN maps to 0.
#[inline]
pub fn clamp_probability(p: f64) -> f64 {
    if p.is_nan() {
        0.0
    } else {
        p.clamp(0.0, 1.0)
    }
}

/// The per-iteration cost `F(II, C_delay) = T_nomiss / N` of Figure 3
/// line 4, kept in exact integer arithmetic as `F · ncore`
/// (`ncore` is the only denominator that appears).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CostKey(pub i64);

/// The cost model, parameterised by the machine constants and core
/// count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Machine cost constants (Table 1).
    pub costs: CostConstants,
    /// Number of cores executing the loop.
    pub ncore: u32,
}

impl CostModel {
    /// Build from architecture parameters.
    pub fn new(costs: CostConstants, ncore: u32) -> Self {
        assert!(ncore >= 1);
        CostModel { costs, ncore }
    }

    /// `T_lb = II + C_ci + max(C_spn, C_delay)` — the lower bound on
    /// one thread's execution time.
    pub fn t_lb(&self, ii: u32, c_delay: u32) -> i64 {
        ii as i64 + self.costs.c_ci as i64 + (self.costs.c_spn.max(c_delay)) as i64
    }

    /// `F(II, C_delay) · ncore` as an exactly comparable integer key.
    pub fn cost_key(&self, ii: u32, c_delay: u32) -> CostKey {
        let n = self.ncore as i64;
        let serial = [
            self.costs.c_spn as i64 * n,
            self.costs.c_ci as i64 * n,
            c_delay as i64 * n,
            self.t_lb(ii, c_delay),
        ];
        CostKey(serial.into_iter().max().unwrap())
    }

    /// `F(II, C_delay)` in cycles-per-iteration (floating point, for
    /// reports; ordering decisions use [`CostModel::cost_key`]).
    pub fn f(&self, ii: u32, c_delay: u32) -> f64 {
        self.cost_key(ii, c_delay).0 as f64 / self.ncore as f64
    }

    /// Equation 2: execution time without misspeculation for `n_iter`
    /// iterations.
    pub fn t_nomiss(&self, ii: u32, c_delay: u32, n_iter: u64) -> f64 {
        self.f(ii, c_delay) * n_iter as f64
    }

    /// Misspeculation overhead: penalty per squash times the expected
    /// number of squashes `P_M · N`.
    ///
    /// Penalty = `II + C_inv − max(0, C_delay − C_spn)`: the squashed
    /// thread wasted `II` issue cycles plus the invalidation, but its
    /// re-execution no longer waits on register values, recovering
    /// whatever part of `C_delay` exceeded the spawn overhead.
    pub fn t_mis_spec(&self, ii: u32, c_delay: u32, p_m: f64, n_iter: u64) -> f64 {
        let gain = (c_delay as i64 - self.costs.c_spn as i64).max(0);
        let penalty = (ii as i64 + self.costs.c_inv as i64 - gain).max(0) as f64;
        penalty * p_m * n_iter as f64
    }

    /// Total estimated execution time `T = T_nomiss + T_mis_spec`.
    pub fn total(&self, ii: u32, c_delay: u32, p_m: f64, n_iter: u64) -> f64 {
        self.t_nomiss(ii, c_delay, n_iter) + self.t_mis_spec(ii, c_delay, p_m, n_iter)
    }

    /// Admissible lower bound on the cost key of *any* legal schedule
    /// at initiation interval `ii`, over every `C_delay` a schedule
    /// could achieve. The achieved `C_delay` is clamped at 0 and
    /// [`CostModel::cost_key`] is monotone non-decreasing in `C_delay`,
    /// so `cost_key(ii, 0)` floors the realised key of every attempt at
    /// this II — the bound the branch-and-bound search prunes with.
    pub fn floor_key(&self, ii: u32) -> CostKey {
        self.cost_key(ii, 0)
    }

    /// The `C_delay` ladder shared by every II row of the candidate
    /// grid. `dense` tries every integer value; otherwise the ladder is
    /// thinned — dense near the Definition-2 minimum, stride 2 beyond
    /// `min+8`, stride 4 beyond `min+24` — with the cap always
    /// included.
    pub fn c_delay_ladder(&self, c_delay_max: u32, dense: bool) -> Vec<u32> {
        let cd_min = self.costs.min_c_delay();
        let cd_hi = c_delay_max.max(cd_min);
        let mut cds: Vec<u32> = Vec::new();
        let mut cd = cd_min;
        while cd <= cd_hi {
            cds.push(cd);
            cd += if dense || cd < cd_min + 8 {
                1
            } else if cd < cd_min + 24 {
                2
            } else {
                4
            };
        }
        if *cds.last().unwrap() != cd_hi {
            cds.push(cd_hi);
        }
        cds
    }

    /// Lazy cost-ordered candidate enumeration — see
    /// [`CandidateStream`].
    pub fn candidate_stream(
        &self,
        mii: u32,
        ii_max: u32,
        c_delay_max: u32,
        dense: bool,
    ) -> CandidateStream {
        CandidateStream::new(
            *self,
            mii,
            ii_max.max(mii),
            self.c_delay_ladder(c_delay_max, dense),
        )
    }

    /// Candidate `(II, C_delay)` pairs within the paper's bounds,
    /// sorted by increasing cost key (then II, then C_delay). This is
    /// the exact-arithmetic equivalent of Figure 3's iterative
    /// `F_min++` sweep over every pair with `F(II, C_delay) = F_min`.
    /// Materialises the whole grid eagerly; the search itself uses
    /// [`CostModel::candidate_stream`], which yields the same sequence
    /// lazily.
    pub fn candidates(&self, mii: u32, ii_max: u32, c_delay_max: u32) -> Vec<(u32, u32, CostKey)> {
        self.candidate_stream(mii, ii_max, c_delay_max, true)
            .collect()
    }
}

/// Lazy generator of `(II, C_delay, CostKey)` candidates in increasing
/// `(key, II, C_delay)` order — the same sequence
/// [`CostModel::candidates`] materialises, produced one cost shell at a
/// time so a search that resolves (or prunes) early never pays for
/// sorting the full grid.
///
/// The grid is `[mii, ii_max] × ladder` with the key monotone
/// non-decreasing along both axes, so a frontier heap holding at most
/// one element per *opened* II row enumerates it in sorted order:
/// popping a row's ladder head opens the next II row (whose head cannot
/// be cheaper, by monotonicity in II), and popping any element pushes
/// its successor along the ladder (monotonicity in `C_delay`).
#[derive(Debug, Clone)]
pub struct CandidateStream {
    model: CostModel,
    ladder: Vec<u32>,
    ii_max: u32,
    /// Next II row whose ladder head has not been pushed yet.
    next_row: u32,
    /// Frontier min-heap of `(key, ii, c_delay, ladder position)`.
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(CostKey, u32, u32, u32)>>,
    /// Adaptive coarsening, when latched (see [`CandidateStream::coarsen`]).
    coarsen: Option<Coarsen>,
    /// Ladder rungs dropped by coarsening so far.
    skipped: u64,
}

/// Latched coarsening state: rows step their ladder by `factor` while
/// the popped key is strictly below `refine_above`; at or above it
/// (the refinement band around the incumbent, where the win/lose
/// boundary lies) the full ladder resolution is restored.
#[derive(Debug, Clone, Copy)]
struct Coarsen {
    factor: u32,
    refine_above: i64,
}

impl CandidateStream {
    fn new(model: CostModel, mii: u32, ii_max: u32, ladder: Vec<u32>) -> Self {
        let mut heap = std::collections::BinaryHeap::new();
        let head = ladder[0];
        heap.push(std::cmp::Reverse((model.cost_key(mii, head), mii, head, 0)));
        CandidateStream {
            model,
            ladder,
            ii_max,
            next_row: mii + 1,
            heap,
            coarsen: None,
            skipped: 0,
        }
    }

    /// Coarsen the `C_delay` grid for the *remaining* stream: every row
    /// steps its ladder by `factor` rungs at a time while the candidate
    /// key sits more than `margin` below `incumbent`, reverting to full
    /// resolution inside that refinement band (and the ladder cap stays
    /// reachable — an over-stepping row clamps to its last rung).
    /// Candidates already yielded are unaffected. Sorted emission order
    /// is preserved: a row's key is monotone along its ladder, so
    /// stepping further ahead keeps the frontier-heap invariant intact.
    ///
    /// Re-latching **composes** monotonically rather than overwriting:
    /// the factor ratchets to the max of the latches, and the
    /// refinement band — the region kept at full resolution near the
    /// incumbent — never shrinks (`refine_above` takes the min). A
    /// weaker second latch is therefore absorbed, and an escalating one
    /// strengthens the coarsening without giving up refinement an
    /// earlier latch promised. A `factor` ≤ 1 cannot coarsen anything;
    /// it trips a `debug_assert` and is ignored in release builds.
    pub fn coarsen(&mut self, factor: u32, incumbent: CostKey, margin: i64) {
        debug_assert!(
            factor > 1,
            "CandidateStream::coarsen(factor={factor}) cannot coarsen the ladder"
        );
        if factor <= 1 {
            return;
        }
        let refine_above = incumbent.0.saturating_sub(margin);
        self.coarsen = Some(match self.coarsen {
            Some(prev) => Coarsen {
                factor: prev.factor.max(factor),
                refine_above: prev.refine_above.min(refine_above),
            },
            None => Coarsen {
                factor,
                refine_above,
            },
        });
    }

    /// Ladder rungs dropped by coarsening so far.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }
}

impl Iterator for CandidateStream {
    type Item = (u32, u32, CostKey);

    /// The next `(II, C_delay, CostKey)` in sorted order, or `None`
    /// once the (possibly coarsened) grid is exhausted.
    fn next(&mut self) -> Option<Self::Item> {
        let std::cmp::Reverse((key, ii, cd, pos)) = self.heap.pop()?;
        // Successor along this row's ladder: the next rung at full
        // resolution, `factor` rungs ahead when coarsened outside the
        // refinement band (clamped so the cap rung is never skipped).
        let step = match self.coarsen {
            Some(c) if key.0 < c.refine_above => c.factor as usize,
            _ => 1,
        };
        let mut next = pos as usize + step;
        if next >= self.ladder.len() && (pos as usize) + 1 < self.ladder.len() {
            next = self.ladder.len() - 1;
        }
        if let Some(&next_cd) = self.ladder.get(next) {
            self.skipped += (next - pos as usize - 1) as u64;
            self.heap.push(std::cmp::Reverse((
                self.model.cost_key(ii, next_cd),
                ii,
                next_cd,
                next as u32,
            )));
        }
        // Popping the newest row's ladder head opens the next row: its
        // head has key ≥ this one (monotone in II), so enumeration
        // order is preserved, and the heap invariant — no unpushed
        // element can be cheaper than any heap element — holds again.
        if pos == 0 && ii + 1 == self.next_row && self.next_row <= self.ii_max {
            let head = self.ladder[0];
            self.heap.push(std::cmp::Reverse((
                self.model.cost_key(self.next_row, head),
                self.next_row,
                head,
                0,
            )));
            self.next_row += 1;
        }
        Some((ii, cd, key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(ncore: u32) -> CostModel {
        CostModel::new(CostConstants::icpp2008(), ncore)
    }

    #[test]
    fn sync_matches_paper_sms_example() {
        // sync(n6, n0) = 7%8 − 0%8 + 1 + 3 = 11 (§4.1, SMS schedule).
        let c = CostConstants::icpp2008();
        assert_eq!(sync_delay(7, 0, 1, &c), 11);
        // TMS places n6 at cycle 1: sync = 1 − 0 + 1 + 3 = 5.
        assert_eq!(sync_delay(1, 0, 1, &c), 5);
    }

    #[test]
    fn sync_can_be_negative_when_value_arrives_early() {
        let c = CostConstants::icpp2008();
        assert!(sync_delay(0, 9, 1, &c) < 0);
    }

    #[test]
    fn misspec_probability_combines_independently() {
        assert!(misspec_probability([]).abs() < 1e-12);
        assert!((misspec_probability([0.5]) - 0.5).abs() < 1e-12);
        assert!((misspec_probability([0.5, 0.5]) - 0.75).abs() < 1e-12);
        assert!((misspec_probability([1.0, 0.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn probabilities_clamp_to_unit_interval() {
        assert_eq!(clamp_probability(-0.25), 0.0);
        assert_eq!(clamp_probability(1.75), 1.0);
        assert_eq!(clamp_probability(f64::NAN), 0.0);
        assert_eq!(clamp_probability(0.3), 0.3);
        // In release builds (the debug_assert compiled out) the
        // combined probability degrades to the clamped value instead of
        // drifting outside [0, 1].
        if !cfg!(debug_assertions) {
            assert_eq!(misspec_probability([1.75]), 1.0);
            assert_eq!(misspec_probability([-3.0, 0.0]), 0.0);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside [0, 1]")]
    fn out_of_range_probability_asserts_in_debug() {
        let _ = misspec_probability([1.75]);
    }

    #[test]
    fn t_lb_and_f_follow_equation_two() {
        let m = model(4);
        // II=8, C_delay=4: T_lb = 8 + 2 + max(3,4) = 14.
        assert_eq!(m.t_lb(8, 4), 14);
        // F = max(3, 2, 4, 14/4) = 4.
        assert!((m.f(8, 4) - 4.0).abs() < 1e-12);
        // With C_delay=20 the serial part dominates: F = 20.
        assert!((m.f(8, 20) - 20.0).abs() < 1e-12);
        // With 1 core F = T_lb = II + C_ci + max(C_spn, C_delay).
        let m1 = model(1);
        assert!((m1.f(8, 4) - 14.0).abs() < 1e-12);
    }

    #[test]
    fn cost_key_orders_like_f() {
        let m = model(4);
        let a = m.cost_key(8, 4);
        let b = m.cost_key(8, 20);
        assert!(a < b);
        assert!(m.f(8, 4) < m.f(8, 20));
    }

    #[test]
    fn mis_spec_penalty_reduced_by_ready_values() {
        let m = model(4);
        // C_delay=10, C_spn=3: re-execution gains 7 cycles.
        let with_gain = m.t_mis_spec(8, 10, 0.5, 100);
        let no_gain = m.t_mis_spec(8, 3, 0.5, 100);
        assert!(with_gain < no_gain);
        // penalty = 8 + 15 − 7 = 16; 0.5 · 100 squashes → 800.
        assert!((with_gain - 800.0).abs() < 1e-9);
    }

    #[test]
    fn zero_probability_costs_nothing() {
        let m = model(4);
        assert_eq!(m.t_mis_spec(8, 4, 0.0, 1000), 0.0);
        assert!((m.total(8, 4, 0.0, 10) - m.t_nomiss(8, 4, 10)).abs() < 1e-12);
    }

    #[test]
    fn candidates_sorted_by_cost() {
        let m = model(4);
        let cands = m.candidates(8, 12, 12);
        assert!(!cands.is_empty());
        for w in cands.windows(2) {
            assert!(w[0].2 <= w[1].2);
        }
        // The cheapest candidate uses the smallest (II, C_delay).
        assert_eq!(cands[0].0, 8);
        assert_eq!(cands[0].1, m.costs.min_c_delay());
        // All C_delay values start at the Definition-2 minimum.
        assert!(cands.iter().all(|c| c.1 >= m.costs.min_c_delay()));
    }

    #[test]
    fn candidate_c_delay_respects_caller_cap() {
        let m = model(4);
        let cands = m.candidates(8, 10, 15);
        assert!(cands.iter().all(|&(_, cd, _)| cd <= 15));
        assert!(cands.iter().any(|&(_, cd, _)| cd == 15));
    }

    /// Reference enumeration: materialise the grid over an arbitrary
    /// ladder and sort by `(key, II, C_delay)`.
    fn sorted_grid(
        m: &CostModel,
        mii: u32,
        ii_max: u32,
        ladder: &[u32],
    ) -> Vec<(u32, u32, CostKey)> {
        let mut v: Vec<(u32, u32, CostKey)> = Vec::new();
        for ii in mii..=ii_max {
            for &cd in ladder {
                v.push((ii, cd, m.cost_key(ii, cd)));
            }
        }
        v.sort_by(|a, b| a.2.cmp(&b.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        v
    }

    #[test]
    fn candidate_stream_matches_materialised_sort() {
        for ncore in [1, 2, 4, 8] {
            let m = model(ncore);
            for (mii, ii_max, cd_max, dense) in [
                (1, 1, 4, true),
                (3, 9, 12, true),
                (8, 40, 60, false),
                (2, 25, 80, false),
            ] {
                let ladder = m.c_delay_ladder(cd_max, dense);
                let want = sorted_grid(&m, mii, ii_max, &ladder);
                let got: Vec<_> = m.candidate_stream(mii, ii_max, cd_max, dense).collect();
                assert_eq!(got, want, "ncore={ncore} mii={mii} ii_max={ii_max}");
            }
        }
    }

    #[test]
    fn coarsen_relatch_composes_monotonically() {
        let m = model(4);
        let mk = || m.candidate_stream(2, 6, 30, true);
        fn drain(s: &mut CandidateStream) -> (Vec<(u32, u32, CostKey)>, u64) {
            let out = s.by_ref().collect();
            (out, s.skipped())
        }
        let inc_lo = m.cost_key(3, 4);
        let inc_hi = m.cost_key(6, 20);
        assert!(inc_lo < inc_hi);
        // Escalating: a second, stronger latch composes to exactly the
        // stream a single latch at the composed parameters produces.
        let mut twice = mk();
        twice.coarsen(2, inc_hi, 2);
        twice.coarsen(4, inc_lo, 2);
        let mut once = mk();
        once.coarsen(4, inc_lo, 2);
        assert_eq!(drain(&mut twice), drain(&mut once));
        // Absorbing: a weaker re-latch (smaller factor, band already
        // covered) leaves the stronger latch in force.
        let mut absorbed = mk();
        absorbed.coarsen(4, inc_lo, 2);
        absorbed.coarsen(2, inc_hi, 2);
        let mut strong = mk();
        strong.coarsen(4, inc_lo, 2);
        assert_eq!(drain(&mut absorbed), drain(&mut strong));
        // Degenerate factor (release behaviour): latch state unchanged.
        if !cfg!(debug_assertions) {
            let mut noop = mk();
            noop.coarsen(1, inc_lo, 2);
            let mut plain = mk();
            assert_eq!(drain(&mut noop), drain(&mut plain));
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "cannot coarsen the ladder")]
    fn degenerate_coarsen_factor_asserts_in_debug() {
        let m = model(4);
        let mut stream = m.candidate_stream(2, 6, 30, true);
        stream.coarsen(1, m.cost_key(3, 4), 2);
    }

    #[test]
    fn ladder_matches_dense_and_thinned_shapes() {
        let m = model(4);
        let cd_min = m.costs.min_c_delay();
        let dense = m.c_delay_ladder(cd_min + 40, true);
        assert_eq!(dense, (cd_min..=cd_min + 40).collect::<Vec<_>>());
        let thin = m.c_delay_ladder(cd_min + 40, false);
        // Dense through min+8, stride 2 to min+24, stride 4 after, cap
        // always present.
        assert!(thin.windows(2).all(|w| w[1] > w[0]));
        assert!((cd_min..=cd_min + 8).all(|cd| thin.contains(&cd)));
        assert!(thin.contains(&(cd_min + 40)));
        assert!(thin.len() < dense.len());
        // A cap below the minimum still yields the minimum.
        assert_eq!(m.c_delay_ladder(0, false), vec![cd_min]);
    }

    #[test]
    fn floor_key_bounds_every_candidate_key() {
        let m = model(4);
        for ii in 1..40 {
            for cd in 0..40 {
                assert!(m.floor_key(ii) <= m.cost_key(ii, cd));
            }
            // Monotone in II as well, so a floor crossing the incumbent
            // stays crossed for all larger II at the same C_delay.
            assert!(m.floor_key(ii) <= m.floor_key(ii + 1));
        }
    }

    #[test]
    fn preserves_requires_earlier_producer_and_enough_skew() {
        // sync(u,v)=6, memory dep x(row 5, lat 1) -> y(row 0), δ=1:
        // need 6 ≥ 5 + 1 − 0 = 6 ✓ with row(u)=0 < row(x)=5.
        assert!(preserves(6, 0, 5, 0, 1, 1));
        // Insufficient skew.
        assert!(!preserves(5, 0, 5, 0, 1, 1));
        // Producer not earlier than x.
        assert!(!preserves(10, 6, 5, 0, 1, 1));
        // Larger δ multiplies the skew.
        assert!(preserves(3, 0, 5, 0, 1, 2));
    }
}
