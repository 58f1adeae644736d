//! Recurrence-constrained initiation interval (`RecII`).
//!
//! A dependence cycle `C` forces `II ≥ ⌈Σ delay(C) / Σ distance(C)⌉`;
//! `RecII` is the maximum over all elementary cycles. Enumerating
//! cycles is exponential, so we use the classic feasibility test: for a
//! candidate `II`, every cycle must have non-positive weight under
//! `w(e) = delay(e) − II·distance(e)`. Positive-cycle detection is
//! Bellman–Ford-style relaxation per SCC; `RecII` is found by binary
//! search over `[1, Σ latency]`.
//!
//! The same max-cycle-ratio search, run on the register-flow edges,
//! gives [`sync_excess_floor`]: a lower bound on the largest
//! Definition-2 synchronisation excess of every legal kernel.

use crate::edge::Edge;
use crate::graph::Ddg;
use crate::inst::InstId;
use crate::scc::SccDecomposition;

/// Recurrence analysis results for a loop.
#[derive(Debug, Clone)]
pub struct RecurrenceInfo {
    /// The loop-wide recurrence-constrained II (1 if the loop has no
    /// recurrence at all — a DOALL-style body).
    pub rec_ii: u32,
    /// Per-SCC recurrence II, indexed by SCC id from the same
    /// [`SccDecomposition`]. Non-recurrence components get 0.
    pub scc_rec_ii: Vec<u32>,
}

/// Compute [`RecurrenceInfo`] for `ddg` using `scc`.
pub fn recurrence_info(ddg: &Ddg, scc: &SccDecomposition) -> RecurrenceInfo {
    let mut scc_rec_ii = vec![0u32; scc.num_components()];
    let mut rec_ii = 1u32;
    for c in scc.recurrence_components(ddg) {
        let ii = scc_rec_mii(ddg, scc, c, 1);
        scc_rec_ii[c] = ii;
        rec_ii = rec_ii.max(ii);
    }
    RecurrenceInfo { rec_ii, scc_rec_ii }
}

/// Placement-independent floor on the synchronisation excess
/// `sync − C_reg_com` (Definition 2) that every legal kernel of `ddg`
/// reaches on some thread-crossing register-flow dependence, or `None`
/// when no register-flow circuit carries distance. A schedule's
/// achieved `C_delay` is therefore at least `C_reg_com` plus this floor.
///
/// Take a register-flow circuit of total distance `D ≥ 1` whose edges
/// all have `delay ≥ 0`. Around it the kernel-row differences sum to 0
/// and the kernel distances sum to `D`. An edge at kernel distance 0
/// has `row_y ≥ row_x + delay`; an edge that crosses threads (kernel
/// distance ≥ 1, so at most `D` of them) has excess
/// `row_x − row_y + lat(x)`. The crossing edges thus carry at least
/// `Σw` of excess between them, with `w = min(lat(x), delay)`, and one
/// of them at least `⌈Σw / D⌉`. A self edge is exact: its rows
/// coincide, so its excess is its latency whatever its delay.
///
/// The maximum `⌈Σw / D⌉` over all circuits is the `RecII` search of
/// [`recurrence_info`] on the register-flow subgraph reweighted to `w`,
/// leaving out negative delays, per component that holds a carried
/// edge.
pub fn sync_excess_floor(ddg: &Ddg) -> Option<u32> {
    let self_floor = ddg
        .edges()
        .iter()
        .filter(|e| e.is_register_flow() && e.src == e.dst && e.distance >= 1)
        .map(|e| ddg.inst(e.src).latency)
        .max();
    let reg = Ddg::from_parts(
        ddg.name(),
        ddg.insts().to_vec(),
        ddg.edges()
            .iter()
            .filter(|e| e.is_register_flow() && e.delay >= 0)
            .map(|e| Edge {
                delay: e.delay.min(ddg.inst(e.src).latency as i64),
                ..e.clone()
            })
            .collect(),
    )
    .expect("register subgraph of a valid DDG is valid");
    let scc = SccDecomposition::compute(&reg);
    let circuit_floor = (0..scc.num_components())
        .filter(|&c| {
            scc.members(c)
                .iter()
                .flat_map(|&n| reg.succ_edges(n))
                .any(|(_, e)| e.distance >= 1 && scc.component_of(e.dst) == c)
        })
        .map(|c| scc_rec_mii(&reg, &scc, c, 0))
        .max();
    self_floor.max(circuit_floor)
}

/// Recurrence II of one SCC: smallest `II ≥ lo` with no positive cycle
/// within the component under `w(e) = delay − II·distance`.
fn scc_rec_mii(ddg: &Ddg, scc: &SccDecomposition, comp: usize, lo: i64) -> u32 {
    // Upper bound: the sum of all delays in the component's edges
    // divided by the minimum distance (>= 1) of any cycle; a safe and
    // cheap bound is the sum of positive delays.
    let members = scc.members(comp);
    let hi: i64 = members
        .iter()
        .flat_map(|&n| ddg.succ_edges(n))
        .filter(|(_, e)| scc.component_of(e.dst) == comp)
        .map(|(_, e)| e.delay.max(0))
        .sum::<i64>()
        .max(lo);
    let (mut lo, mut hi) = (lo, hi);
    // Invariant: feasibility is monotone in II (larger II only makes
    // cycle weights smaller), so binary search applies.
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if has_positive_cycle(ddg, scc, comp, mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo as u32
}

/// Bellman–Ford positive-cycle detection restricted to one SCC.
fn has_positive_cycle(ddg: &Ddg, scc: &SccDecomposition, comp: usize, ii: i64) -> bool {
    let members = scc.members(comp);
    let n = members.len();
    // Map node -> local index.
    let local = |id: InstId| members.binary_search(&id).expect("member");
    // Longest-path potentials, all sources at 0.
    let mut dist = vec![0i64; n];
    for round in 0..=n {
        let mut changed = false;
        for (li, &u) in members.iter().enumerate() {
            for (_, e) in ddg.succ_edges(u) {
                if scc.component_of(e.dst) != comp {
                    continue;
                }
                let w = e.delay - ii * e.distance as i64;
                let lv = local(e.dst);
                if dist[li] + w > dist[lv] {
                    dist[lv] = dist[li] + w;
                    changed = true;
                }
            }
        }
        if !changed {
            return false;
        }
        if round == n {
            return true;
        }
    }
    false
}

/// The minimum legal II for any cycle through edge set sums — a helper
/// exposing the exact ratio bound `⌈Σdelay/Σdist⌉` of a given cycle,
/// useful for constructing test graphs with known `RecII`.
pub fn cycle_ratio_bound(delays: &[i64], distances: &[u32]) -> u32 {
    let d: i64 = delays.iter().sum();
    let k: i64 = distances.iter().map(|&x| x as i64).sum();
    assert!(k > 0, "cycle must carry positive distance");
    (d.max(1) as f64 / k as f64).ceil() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DdgBuilder;
    use crate::edge::{DepKind, DepType};
    use crate::inst::OpClass;

    fn info(g: &Ddg) -> RecurrenceInfo {
        let scc = SccDecomposition::compute(g);
        recurrence_info(g, &scc)
    }

    #[test]
    fn doall_loop_has_rec_ii_one() {
        let mut b = DdgBuilder::new("doall");
        let l = b.inst("ld", OpClass::Load);
        let m = b.inst("mul", OpClass::FpMul);
        let s = b.inst("st", OpClass::Store);
        b.reg_flow(l, m, 0);
        b.reg_flow(m, s, 0);
        let g = b.build().unwrap();
        assert_eq!(info(&g).rec_ii, 1);
    }

    #[test]
    fn self_recurrence_rec_ii_is_latency() {
        let mut b = DdgBuilder::new("acc");
        let a = b.inst("fadd", OpClass::FpAdd); // latency 2
        b.reg_flow(a, a, 1);
        let g = b.build().unwrap();
        assert_eq!(info(&g).rec_ii, 2);
    }

    #[test]
    fn distance_two_halves_the_bound() {
        let mut b = DdgBuilder::new("acc2");
        let a = b.inst_lat("op", OpClass::FpAdd, 6);
        b.reg_flow(a, a, 2); // ceil(6/2) = 3
        let g = b.build().unwrap();
        assert_eq!(info(&g).rec_ii, 3);
    }

    #[test]
    fn two_node_recurrence_sums_latencies() {
        let mut b = DdgBuilder::new("rec2");
        let a = b.inst_lat("a", OpClass::FpAdd, 2);
        let c = b.inst_lat("c", OpClass::FpMul, 4);
        b.reg_flow(a, c, 0);
        b.reg_flow(c, a, 1); // cycle delay 2+4=6, distance 1
        let g = b.build().unwrap();
        assert_eq!(info(&g).rec_ii, 6);
    }

    #[test]
    fn max_over_multiple_recurrences() {
        let mut b = DdgBuilder::new("multi");
        let a = b.inst_lat("a", OpClass::FpAdd, 2);
        let c = b.inst_lat("c", OpClass::FpAdd, 5);
        b.reg_flow(a, a, 1); // II >= 2
        b.reg_flow(c, c, 1); // II >= 5
        let g = b.build().unwrap();
        let i = info(&g);
        assert_eq!(i.rec_ii, 5);
        // Both SCCs should have their own bound recorded.
        let mut bounds: Vec<u32> = i.scc_rec_ii.iter().copied().filter(|&x| x > 0).collect();
        bounds.sort();
        assert_eq!(bounds, vec![2, 5]);
    }

    #[test]
    fn figure1_style_recurrence_is_eight() {
        // Five unit-latency-ish ops in a cycle with total delay 8,
        // distance 1 => RecII = 8 (the paper's motivating example).
        let mut b = DdgBuilder::new("fig1-rec");
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
        let g = b.build().unwrap();
        assert_eq!(info(&g).rec_ii, 8);
    }

    #[test]
    fn cycle_ratio_bound_matches_manual() {
        assert_eq!(cycle_ratio_bound(&[3, 1, 1, 2, 1], &[0, 0, 0, 0, 1]), 8);
        assert_eq!(cycle_ratio_bound(&[6], &[2]), 3);
        assert_eq!(cycle_ratio_bound(&[5], &[2]), 3);
        assert_eq!(cycle_ratio_bound(&[4], &[2]), 2);
    }

    /// A register-flow edge from a latency-2 node to a latency-4 node,
    /// left open for each test to close (or not).
    fn two_plus_four() -> (DdgBuilder, InstId, InstId) {
        let mut b = DdgBuilder::new("circ");
        let a = b.inst_lat("a", OpClass::FpAdd, 2);
        let c = b.inst_lat("c", OpClass::FpMul, 4);
        b.reg_flow(a, c, 0);
        (b, a, c)
    }

    #[test]
    fn self_edge_floor_is_its_latency_at_any_distance() {
        for (latency, distance) in [(12, 1), (6, 2)] {
            let mut b = DdgBuilder::new("acc");
            let a = b.inst_lat("a", OpClass::FpMul, latency);
            b.reg_flow(a, a, distance);
            assert_eq!(sync_excess_floor(&b.build().unwrap()), Some(latency));
        }
    }

    #[test]
    fn circuit_floor_divides_its_weight_by_its_distance() {
        for (distance, floor) in [(1, 6), (2, 3)] {
            let (mut b, a, c) = two_plus_four();
            b.reg_flow(c, a, distance);
            assert_eq!(sync_excess_floor(&b.build().unwrap()), Some(floor));
        }
    }

    #[test]
    fn no_register_flow_circuit_has_no_floor() {
        // Left open.
        let (b, _, _) = two_plus_four();
        assert_eq!(sync_excess_floor(&b.build().unwrap()), None);

        // Closed by a memory edge.
        let (mut b, a, c) = two_plus_four();
        b.mem_flow(c, a, 1, 1.0);
        assert_eq!(sync_excess_floor(&b.build().unwrap()), None);

        // Broken by a negative delay.
        let (mut b, a, c) = two_plus_four();
        b.edge(Edge {
            src: c,
            dst: a,
            kind: DepKind::Register,
            ty: DepType::Flow,
            distance: 1,
            delay: -1,
            prob: 1.0,
        });
        assert_eq!(sync_excess_floor(&b.build().unwrap()), None);
    }

    #[test]
    fn nested_cycles_take_max_ratio() {
        // Inner tight cycle a<->c (delay 3+3=6, dist 1 => 6) and outer
        // cycle a->c->d->a (delay 3+3+1=7, dist 2 => 4). RecII = 6.
        let mut b = DdgBuilder::new("nest");
        let a = b.inst_lat("a", OpClass::FpAdd, 3);
        let c = b.inst_lat("c", OpClass::FpAdd, 3);
        let d = b.inst_lat("d", OpClass::IntAlu, 1);
        b.reg_flow(a, c, 0);
        b.reg_flow(c, a, 1);
        b.reg_flow(c, d, 0);
        b.reg_flow(d, a, 2);
        let g = b.build().unwrap();
        assert_eq!(info(&g).rec_ii, 6);
    }
}
