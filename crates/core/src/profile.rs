//! In-engine placement profiler: per-node attribution and sub-phase
//! timing for the scheduling engine's placement loop.
//!
//! The `tms.phase.*` breakdown says `place` dominates candidate-search
//! time but not *why*: which nodes keep getting ejected, whether probes
//! die on C1 or C2, how deep the forced-placement cascades run. This
//! module holds the accumulator the engine fills when profiling is on
//! ([`crate::TmsConfig::profile`]) and the search folds into its
//! per-loop report.
//!
//! ## Determinism contract
//!
//! A [`PlaceProfile`] carries two kinds of data with different
//! guarantees:
//!
//! - **Attribution counters and histograms** (per-node attempt and
//!   ejection counts, probe outcomes, eject-chain depths, forced
//!   placements) are pure functions of the engine's decisions. Profiled
//!   attempts always run *cold* — the search bypasses warm-start replay
//!   when profiling, because replayed steps skip the scans being
//!   attributed — and per-attempt profiles are folded serially in
//!   candidate-index order, so the merged attribution is bit-identical
//!   at every `--jobs`.
//! - **Sub-phase nanosecond accumulators** (`*_ns`) are wall-clock and
//!   machine-dependent; they are surfaced through trace *timers*
//!   (`tms.place.{scan,probe,fit,eject,force,verify}`), which are
//!   excluded from the deterministic metrics snapshot just like
//!   `tms.phase.*`.
//!
//! Attribution keys are stable: nodes are identified by their dense
//! [`InstId`] index, which is fixed by DDG construction order and
//! independent of scheduling outcome, worker count, or hash state.

use crate::warm::Probe;
use tms_ddg::{Ddg, InstId};
use tms_trace::Histogram;

/// One node's attribution row in a ranked hotspot report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeHotspot {
    /// Dense node index (stable attribution key; see module docs).
    pub node: usize,
    /// Placement attempts: engine visits that scanned a window for
    /// this node (forced rescans of the same visit are not double
    /// counted).
    pub attempts: u64,
    /// Times this node was ejected from the partial schedule by a
    /// forced placement.
    pub ejections: u64,
}

/// Placement-loop profile: deterministic attribution plus wall-clock
/// sub-phase accumulators (see the module docs for the split).
///
/// Merging is a commutative monoid over the attribution fields; the
/// search folds per-attempt profiles serially so the result is still
/// deterministic.
#[derive(Debug, Clone, Default)]
pub struct PlaceProfile {
    /// Per-node placement attempts, indexed by `InstId::index`.
    pub node_attempts: Vec<u64>,
    /// Per-node ejection counts, indexed by `InstId::index`.
    pub node_ejections: Vec<u64>,
    /// Windowed admission scans (one per engine visit of a node).
    pub scans: u64,
    /// Successful forced (IMS-style) placements.
    pub forced: u64,
    /// Nodes ejected across all forced placements.
    pub ejected: u64,
    /// Engine attempts profiled (complete or failed).
    pub engine_attempts: u64,
    /// Probe verdicts, split by whether the policy's specialised
    /// fast-path scan or the generic per-slot reference scan produced
    /// them.
    pub probe_accept_fast: u64,
    /// Accepting probes from the generic scan.
    pub probe_accept_generic: u64,
    /// C1 (sync-delay) rejections from the fast-path scan.
    pub probe_c1_fast: u64,
    /// C1 rejections from the generic scan.
    pub probe_c1_generic: u64,
    /// C2 (misspeculation) rejections from the fast-path scan.
    pub probe_c2_fast: u64,
    /// C2 rejections from the generic scan.
    pub probe_c2_generic: u64,
    /// Nodes ejected per forced placement (chain depth).
    pub eject_chain_depth: Histogram,
    /// Forced placements per engine attempt.
    pub forced_per_attempt: Histogram,
    /// Wall-clock ns deriving scheduling windows (cone walks and
    /// longest-path relaxations).
    pub scan_ns: u64,
    /// Wall-clock ns in windowed admission scans.
    pub probe_ns: u64,
    /// Wall-clock ns committing placements into the MRT.
    pub fit_ns: u64,
    /// Wall-clock ns finding and evicting eject victims.
    pub eject_ns: u64,
    /// Wall-clock ns in forced-slot admission scans.
    pub force_ns: u64,
    /// Wall-clock ns verifying built schedules (post-place).
    pub verify_ns: u64,
    // Per-attempt scratch, sampled into the histograms by
    // `end_attempt`; merge ignores it.
    attempt_forced: u64,
    attempt_max_chain: u64,
}

/// The placement-loop sub-phases, in pipeline order. Timer names are
/// `tms.place.<phase>`.
pub const PLACE_PHASES: &[&str] = &["scan", "probe", "fit", "eject", "force", "verify"];

impl PlaceProfile {
    /// An empty profile for a graph with `num_insts` nodes.
    pub fn new(num_insts: usize) -> Self {
        Self {
            node_attempts: vec![0; num_insts],
            node_ejections: vec![0; num_insts],
            ..Self::default()
        }
    }

    /// Reset the per-attempt scratch. The engine calls this once per
    /// attempt before placing.
    pub(crate) fn begin_attempt(&mut self) {
        self.attempt_forced = 0;
        self.attempt_max_chain = 0;
    }

    /// Close out one engine attempt: sample the per-attempt histograms.
    pub(crate) fn end_attempt(&mut self) {
        self.engine_attempts += 1;
        self.forced_per_attempt.record_sample(self.attempt_forced);
    }

    /// Record one windowed admission scan for node `v`.
    pub(crate) fn note_scan(&mut self, v: InstId) {
        self.scans += 1;
        self.node_attempts[v.index()] += 1;
    }

    /// Record one node ejected by a forced placement.
    pub(crate) fn note_ejected(&mut self, n: InstId) {
        self.ejected += 1;
        self.node_ejections[n.index()] += 1;
    }

    /// Record one successful forced placement that evicted `depth`
    /// nodes in total (row conflicts plus violated neighbours).
    pub(crate) fn note_force(&mut self, depth: u64) {
        self.forced += 1;
        self.eject_chain_depth.record_sample(depth);
        self.attempt_forced += 1;
        self.attempt_max_chain = self.attempt_max_chain.max(depth);
    }

    /// Deepest eject chain of the current attempt (for the Perfetto
    /// counter track).
    pub fn attempt_max_chain(&self) -> u64 {
        self.attempt_max_chain
    }

    /// Classify recorded probe verdicts; `fast` says whether the
    /// policy's fast-path scan produced them.
    pub(crate) fn classify_probes(&mut self, probes: &[Probe], fast: bool) {
        for p in probes {
            let slot = match p {
                Probe::Accept { .. } => {
                    if fast {
                        &mut self.probe_accept_fast
                    } else {
                        &mut self.probe_accept_generic
                    }
                }
                Probe::C1Reject { .. } => {
                    if fast {
                        &mut self.probe_c1_fast
                    } else {
                        &mut self.probe_c1_generic
                    }
                }
                Probe::C2Reject { .. } => {
                    if fast {
                        &mut self.probe_c2_fast
                    } else {
                        &mut self.probe_c2_generic
                    }
                }
            };
            *slot += 1;
        }
    }

    /// Fold `other` into `self` (commutative over attribution fields;
    /// the per-attempt scratch does not transfer).
    pub fn merge(&mut self, other: &PlaceProfile) {
        if self.node_attempts.len() < other.node_attempts.len() {
            self.node_attempts.resize(other.node_attempts.len(), 0);
            self.node_ejections.resize(other.node_ejections.len(), 0);
        }
        for (i, n) in other.node_attempts.iter().enumerate() {
            self.node_attempts[i] += n;
        }
        for (i, n) in other.node_ejections.iter().enumerate() {
            self.node_ejections[i] += n;
        }
        self.scans += other.scans;
        self.forced += other.forced;
        self.ejected += other.ejected;
        self.engine_attempts += other.engine_attempts;
        self.probe_accept_fast += other.probe_accept_fast;
        self.probe_accept_generic += other.probe_accept_generic;
        self.probe_c1_fast += other.probe_c1_fast;
        self.probe_c1_generic += other.probe_c1_generic;
        self.probe_c2_fast += other.probe_c2_fast;
        self.probe_c2_generic += other.probe_c2_generic;
        self.eject_chain_depth.merge(&other.eject_chain_depth);
        self.forced_per_attempt.merge(&other.forced_per_attempt);
        self.scan_ns += other.scan_ns;
        self.probe_ns += other.probe_ns;
        self.fit_ns += other.fit_ns;
        self.eject_ns += other.eject_ns;
        self.force_ns += other.force_ns;
        self.verify_ns += other.verify_ns;
    }

    /// Total wall-clock ns spent inside the placement loop proper
    /// (everything but `verify`).
    pub fn place_loop_ns(&self) -> u64 {
        self.scan_ns + self.probe_ns + self.fit_ns + self.eject_ns + self.force_ns
    }

    /// Share of placement-loop time spent ejecting and force-placing —
    /// the "how much does the IMS fallback cost" headline number.
    pub fn eject_force_share(&self) -> f64 {
        let total = self.place_loop_ns();
        if total == 0 {
            return 0.0;
        }
        (self.eject_ns + self.force_ns) as f64 / total as f64
    }

    /// Sub-phase wall-clock accumulators in [`PLACE_PHASES`] order.
    pub fn phase_ns(&self) -> [(&'static str, u64); 6] {
        [
            ("scan", self.scan_ns),
            ("probe", self.probe_ns),
            ("fit", self.fit_ns),
            ("eject", self.eject_ns),
            ("force", self.force_ns),
            ("verify", self.verify_ns),
        ]
    }

    /// Name of the sub-phase with the largest wall-clock share.
    pub fn dominant_phase(&self) -> &'static str {
        self.phase_ns()
            .into_iter()
            .max_by_key(|&(_, ns)| ns)
            .map(|(name, _)| name)
            .unwrap_or("scan")
    }

    /// The `n` hottest nodes by attempts + ejections, ranked
    /// descending with the stable node index as tie-break. Nodes with
    /// no recorded activity are omitted. Deterministic: depends only on
    /// the attribution counters.
    pub fn top_nodes(&self, n: usize) -> Vec<NodeHotspot> {
        let mut rows: Vec<NodeHotspot> = self
            .node_attempts
            .iter()
            .zip(&self.node_ejections)
            .enumerate()
            .filter(|&(_, (&a, &e))| a + e > 0)
            .map(|(node, (&attempts, &ejections))| NodeHotspot {
                node,
                attempts,
                ejections,
            })
            .collect();
        rows.sort_by(|a, b| {
            (b.attempts + b.ejections, a.node).cmp(&(a.attempts + a.ejections, b.node))
        });
        rows.truncate(n);
        rows
    }

    /// Resolve a hotspot row's node index to its instruction name.
    pub fn node_name<'d>(&self, ddg: &'d Ddg, node: usize) -> &'d str {
        &ddg.inst(InstId(node as u32)).name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_commutative_over_attribution() {
        let mut a = PlaceProfile::new(3);
        a.note_scan(InstId(0));
        a.note_scan(InstId(1));
        a.note_ejected(InstId(2));
        a.note_force(2);
        a.classify_probes(
            &[Probe::Accept {
                sync_max: 1,
                misspec: None,
            }],
            true,
        );
        let mut b = PlaceProfile::new(3);
        b.note_scan(InstId(0));
        b.classify_probes(&[Probe::C1Reject { sync: 9 }], false);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.node_attempts, ba.node_attempts);
        assert_eq!(ab.node_ejections, ba.node_ejections);
        assert_eq!(ab.scans, 3);
        assert_eq!(ab.probe_accept_fast, ba.probe_accept_fast);
        assert_eq!(ab.probe_c1_generic, 1);
        assert_eq!(ab.eject_chain_depth, ba.eject_chain_depth);
        assert_eq!(ab.top_nodes(8), ba.top_nodes(8));
    }

    #[test]
    fn top_nodes_ranks_by_activity_with_stable_tiebreak() {
        let mut p = PlaceProfile::new(4);
        p.note_scan(InstId(0));
        p.note_scan(InstId(2));
        p.note_scan(InstId(2));
        p.note_scan(InstId(3));
        p.note_ejected(InstId(3));
        let top = p.top_nodes(2);
        assert_eq!(top.len(), 2);
        // Node 3 (1 attempt + 1 ejection) ties node 2 (2 attempts):
        // the lower node index wins the tie.
        assert_eq!(top[0].node, 2);
        assert_eq!(top[1].node, 3);
        assert_eq!(p.top_nodes(10).len(), 3);
    }

    #[test]
    fn per_attempt_histograms_sample_on_end() {
        let mut p = PlaceProfile::new(2);
        p.begin_attempt();
        p.note_force(1);
        p.note_force(3);
        assert_eq!(p.attempt_max_chain(), 3);
        p.end_attempt();
        p.begin_attempt();
        p.end_attempt();
        assert_eq!(p.engine_attempts, 2);
        assert_eq!(p.forced_per_attempt.count, 2);
        assert_eq!(p.forced_per_attempt.sum, 2);
        assert_eq!(p.eject_chain_depth.count, 2);
        assert_eq!(p.eject_chain_depth.max, 3);
    }
}
