//! Scheduling-oriented graph analyses: ASAP frames, depth/height
//! priorities and the longest dependence path (LDP).
//!
//! The LDP is the paper's §5 metric: "the longest dependence path in
//! the DDG of the loop"; together with MII it delineates the II range
//! in which ILP is exploitable. Depth and height are the classic list
//! scheduling priorities SMS uses to order nodes inside an SCC set.

use crate::graph::Ddg;
use crate::inst::InstId;

/// Per-node timing frames for a candidate `II`.
#[derive(Debug, Clone)]
pub struct TimeFrames {
    /// Earliest legal issue cycle of each node (modulo constraints with
    /// the given II folded in).
    pub asap: Vec<i64>,
    /// The II the frames were computed for.
    pub ii: u32,
}

impl TimeFrames {
    /// Compute the ASAP frames of `ddg` at initiation interval `ii`.
    ///
    /// Returns `None` if `ii` is below the recurrence bound (a positive
    /// cycle makes the longest-path fixpoint diverge).
    pub fn compute(ddg: &Ddg, ii: u32) -> Option<Self> {
        let n = ddg.num_insts();
        let iil = ii as i64;

        // ASAP: longest path from a virtual source via Bellman–Ford.
        let mut asap = vec![0i64; n];
        for _ in 0..=n {
            let mut changed = false;
            for e in ddg.edges() {
                let w = e.delay - iil * e.distance as i64;
                let t = asap[e.src.index()] + w;
                if t > asap[e.dst.index()] {
                    asap[e.dst.index()] = t;
                    changed = true;
                }
            }
            if !changed {
                return Some(TimeFrames { asap, ii });
            }
        }
        None
    }
}

/// Acyclic (intra-iteration) priorities: depth, height, and the LDP.
#[derive(Debug, Clone)]
pub struct AcyclicPriorities {
    /// `depth[n]` — longest delay-weighted path from any source to `n`
    /// over zero-distance edges (earliest unconstrained start).
    pub depth: Vec<i64>,
    /// `height[n]` — `n.latency` plus the longest delay-weighted path
    /// from `n` to any sink over zero-distance edges.
    pub height: Vec<i64>,
    /// Longest dependence path: length of the unconstrained critical
    /// path through one iteration, `max_n depth[n] + latency(n)`.
    pub ldp: i64,
}

impl AcyclicPriorities {
    /// Compute over the zero-distance (intra-iteration) subgraph, which
    /// is guaranteed acyclic for any valid [`Ddg`].
    pub fn compute(ddg: &Ddg) -> Self {
        let n = ddg.num_insts();
        let order = topo_order_zero_dist(ddg);

        let mut depth = vec![0i64; n];
        for &u in &order {
            for (_, e) in ddg.succ_edges(u) {
                if e.distance != 0 {
                    continue;
                }
                let t = depth[u.index()] + e.delay;
                if t > depth[e.dst.index()] {
                    depth[e.dst.index()] = t;
                }
            }
        }

        let mut height: Vec<i64> = ddg.insts().iter().map(|i| i.latency as i64).collect();
        for &u in order.iter().rev() {
            for (_, e) in ddg.succ_edges(u) {
                if e.distance != 0 {
                    continue;
                }
                let t = e.delay + height[e.dst.index()];
                if t > height[u.index()] {
                    height[u.index()] = t;
                }
            }
        }

        let ldp = ddg
            .inst_ids()
            .map(|u| depth[u.index()] + ddg.inst(u).latency as i64)
            .max()
            .unwrap_or(0);

        AcyclicPriorities { depth, height, ldp }
    }
}

/// Topological order of the zero-distance subgraph (Kahn's algorithm).
///
/// Valid [`Ddg`]s reject zero-distance cycles at construction, so every
/// node is emitted.
pub fn topo_order_zero_dist(ddg: &Ddg) -> Vec<InstId> {
    let n = ddg.num_insts();
    let mut indeg = vec![0usize; n];
    for e in ddg.edges() {
        if e.distance == 0 {
            indeg[e.dst.index()] += 1;
        }
    }
    let mut queue: Vec<InstId> = ddg.inst_ids().filter(|u| indeg[u.index()] == 0).collect();
    let mut order = Vec::with_capacity(n);
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        order.push(u);
        for (_, e) in ddg.succ_edges(u) {
            if e.distance != 0 {
                continue;
            }
            indeg[e.dst.index()] -= 1;
            if indeg[e.dst.index()] == 0 {
                queue.push(e.dst);
            }
        }
    }
    debug_assert_eq!(order.len(), n, "zero-distance subgraph must be acyclic");
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DdgBuilder;
    use crate::inst::OpClass;

    fn chain() -> Ddg {
        let mut b = DdgBuilder::new("chain");
        let l = b.inst("ld", OpClass::Load); // lat 3
        let m = b.inst("mul", OpClass::FpMul); // lat 4
        let s = b.inst("st", OpClass::Store); // lat 1
        b.reg_flow(l, m, 0);
        b.reg_flow(m, s, 0);
        b.build().unwrap()
    }

    #[test]
    fn asap_follows_latencies() {
        let g = chain();
        let f = TimeFrames::compute(&g, 1).unwrap();
        assert_eq!(f.asap, vec![0, 3, 7]);
    }

    #[test]
    fn frames_diverge_below_rec_ii() {
        let mut b = DdgBuilder::new("rec");
        let a = b.inst_lat("a", OpClass::FpAdd, 4);
        b.reg_flow(a, a, 1); // RecII = 4
        let g = b.build().unwrap();
        assert!(TimeFrames::compute(&g, 3).is_none());
        assert!(TimeFrames::compute(&g, 4).is_some());
    }

    #[test]
    fn loop_carried_edges_relax_asap_with_ii() {
        let mut b = DdgBuilder::new("carried");
        let a = b.inst_lat("a", OpClass::FpMul, 4);
        let c = b.inst_lat("c", OpClass::IntAlu, 1);
        b.reg_flow(a, c, 1); // t(c) >= t(a) + 4 - II
        let g = b.build().unwrap();
        let f = TimeFrames::compute(&g, 2).unwrap();
        assert_eq!(f.asap[c.index()], 2); // 0 + 4 - 2
        let f = TimeFrames::compute(&g, 4).unwrap();
        assert_eq!(f.asap[c.index()], 0);
    }

    #[test]
    fn ldp_is_critical_path_length() {
        let g = chain();
        let p = AcyclicPriorities::compute(&g);
        assert_eq!(p.ldp, 3 + 4 + 1);
        assert_eq!(p.depth, vec![0, 3, 7]);
        assert_eq!(p.height, vec![8, 5, 1]);
    }

    #[test]
    fn ldp_ignores_loop_carried_edges() {
        let mut b = DdgBuilder::new("carry");
        let a = b.inst_lat("a", OpClass::FpAdd, 2);
        let c = b.inst_lat("c", OpClass::FpAdd, 2);
        b.reg_flow(a, c, 0);
        b.reg_flow(c, a, 1); // back edge must not count toward LDP
        let g = b.build().unwrap();
        let p = AcyclicPriorities::compute(&g);
        assert_eq!(p.ldp, 4);
    }

    #[test]
    fn topo_order_visits_all() {
        let g = chain();
        let order = topo_order_zero_dist(&g);
        assert_eq!(order.len(), 3);
        assert_eq!(order[0], InstId(0));
    }

    #[test]
    fn height_of_sink_is_its_latency() {
        let g = chain();
        let p = AcyclicPriorities::compute(&g);
        assert_eq!(p.height[2], 1);
    }
}
