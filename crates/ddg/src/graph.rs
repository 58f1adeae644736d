//! The data-dependence graph itself.

#[cfg(test)]
use crate::edge::DepType;
use crate::edge::{DepKind, Edge, EdgeId};
use crate::inst::{InstId, Instruction, OpClass};
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotone source of process-unique [`Ddg::uid`] values.
static NEXT_DDG_UID: AtomicU64 = AtomicU64::new(1);

fn next_ddg_uid() -> u64 {
    NEXT_DDG_UID.fetch_add(1, Ordering::Relaxed)
}

/// Errors produced while constructing or validating a [`Ddg`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DdgError {
    /// An edge references an instruction id outside the node table.
    DanglingEdge { edge: usize },
    /// A dependence probability was outside `[0, 1]`.
    BadProbability { edge: usize },
    /// A cycle exists that has total iteration distance zero, i.e. an
    /// intra-iteration dependence cycle — no legal schedule exists.
    ZeroDistanceCycle,
    /// The graph has no instructions.
    Empty,
    /// A register dependence was given a probability other than 1.
    NonUnitRegisterProb { edge: usize },
    /// An instruction latency above [`MAX_MAGNITUDE`].
    LatencyTooLarge { inst: usize },
    /// An edge distance or `|delay|` above [`MAX_MAGNITUDE`].
    EdgeTooLarge { edge: usize },
}

/// The largest instruction latency, edge distance or edge `|delay|` a
/// [`Ddg`] accepts. The schedulers and the simulator size their tables
/// and stage counts by these values, so an unbounded input becomes an
/// unbounded allocation, which aborts the process (no panic handler
/// can catch it). Every workload family stays far below the limit:
/// latency 12, distance 2, delay 12.
pub const MAX_MAGNITUDE: u32 = 1024;

impl fmt::Display for DdgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DdgError::DanglingEdge { edge } => write!(f, "edge {edge} references missing node"),
            DdgError::BadProbability { edge } => {
                write!(f, "edge {edge} has probability outside [0,1]")
            }
            DdgError::ZeroDistanceCycle => {
                write!(f, "graph contains a zero-distance dependence cycle")
            }
            DdgError::Empty => write!(f, "graph has no instructions"),
            DdgError::NonUnitRegisterProb { edge } => {
                write!(f, "register dependence {edge} must have probability 1")
            }
            DdgError::LatencyTooLarge { inst } => {
                write!(f, "instruction {inst} has a latency above {MAX_MAGNITUDE}")
            }
            DdgError::EdgeTooLarge { edge } => {
                write!(
                    f,
                    "edge {edge} has a distance or |delay| above {MAX_MAGNITUDE}"
                )
            }
        }
    }
}

impl std::error::Error for DdgError {}

/// A loop body's data-dependence graph.
///
/// Nodes are [`Instruction`]s, edges are dependences with iteration
/// distances. Construct one with [`crate::DdgBuilder`]; direct field
/// mutation is intentionally impossible so that the adjacency lists can
/// never go stale.
///
/// The serialised form is the content alone: `name`, `insts` and
/// `edges`, in that order. Deserialising rebuilds the graph through
/// [`Ddg::from_parts`], so parsed input is validated like built input
/// (a [`DdgError`] becomes the deserialisation error) and gets fresh
/// adjacency lists and a fresh `uid`. Other fields in the input, such
/// as `succs`, `preds` or `uid`, are ignored.
#[derive(Debug, Clone)]
pub struct Ddg {
    name: String,
    insts: Vec<Instruction>,
    edges: Vec<Edge>,
    /// `succs[n]` — ids of edges whose `src == n`.
    succs: Vec<Vec<EdgeId>>,
    /// `preds[n]` — ids of edges whose `dst == n`.
    preds: Vec<Vec<EdgeId>>,
    /// Process-unique identity token (see [`Ddg::uid`]). A `clone`
    /// shares the token, which is sound because the contents are
    /// identical and immutable.
    uid: u64,
}

impl Serialize for Ddg {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("name".to_string(), self.name.to_value()),
            ("insts".to_string(), self.insts.to_value()),
            ("edges".to_string(), self.edges.to_value()),
        ])
    }
}

impl Deserialize for Ddg {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        if v.as_object().is_none() {
            return Err(DeError::expected("object", "Ddg"));
        }
        let field = |name| {
            v.get(name)
                .ok_or_else(|| DeError::missing_field(name, "Ddg"))
        };
        Ddg::from_parts(
            String::from_value(field("name")?)?,
            Vec::from_value(field("insts")?)?,
            Vec::from_value(field("edges")?)?,
        )
        .map_err(|e| DeError::new(e.to_string()))
    }
}

impl Ddg {
    /// Build a graph from parts, validating structural invariants and
    /// the [`MAX_MAGNITUDE`] bound.
    ///
    /// Prefer [`crate::DdgBuilder`]; this is the low-level entry point.
    pub fn from_parts(
        name: impl Into<String>,
        insts: Vec<Instruction>,
        edges: Vec<Edge>,
    ) -> Result<Self, DdgError> {
        if insts.is_empty() {
            return Err(DdgError::Empty);
        }
        let n = insts.len();
        let cap = u64::from(MAX_MAGNITUDE);
        if let Some(inst) = insts.iter().position(|x| u64::from(x.latency) > cap) {
            return Err(DdgError::LatencyTooLarge { inst });
        }
        for (i, e) in edges.iter().enumerate() {
            if e.src.index() >= n || e.dst.index() >= n {
                return Err(DdgError::DanglingEdge { edge: i });
            }
            if !(0.0..=1.0).contains(&e.prob) || e.prob.is_nan() {
                return Err(DdgError::BadProbability { edge: i });
            }
            if e.kind == DepKind::Register && e.prob != 1.0 {
                return Err(DdgError::NonUnitRegisterProb { edge: i });
            }
            if u64::from(e.distance) > cap || e.delay.unsigned_abs() > cap {
                return Err(DdgError::EdgeTooLarge { edge: i });
            }
        }
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for (i, e) in edges.iter().enumerate() {
            succs[e.src.index()].push(EdgeId(i as u32));
            preds[e.dst.index()].push(EdgeId(i as u32));
        }
        let g = Ddg {
            name: name.into(),
            insts,
            edges,
            succs,
            preds,
            uid: next_ddg_uid(),
        };
        if g.has_zero_distance_cycle() {
            return Err(DdgError::ZeroDistanceCycle);
        }
        Ok(g)
    }

    /// Loop name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Process-unique identity token, assigned at construction.
    ///
    /// Two `Ddg` values with the same `uid` are guaranteed to have
    /// identical contents (graphs are immutable after construction and
    /// the only way to share a token is `clone`), so per-graph derived
    /// state — window adjacency and rank, time frames — can be memoized
    /// against it without risking stale reuse across distinct graphs
    /// that happen to share an address or a shape.
    #[inline]
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Number of instructions.
    pub fn num_insts(&self) -> usize {
        self.insts.len()
    }

    /// Number of dependence edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// All instructions, indexed by [`InstId`].
    pub fn insts(&self) -> &[Instruction] {
        &self.insts
    }

    /// All edges, indexed by [`EdgeId`].
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The instruction with the given id.
    #[inline]
    pub fn inst(&self, id: InstId) -> &Instruction {
        &self.insts[id.index()]
    }

    /// The edge with the given id.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Iterator over instruction ids.
    pub fn inst_ids(&self) -> impl Iterator<Item = InstId> + '_ {
        (0..self.insts.len() as u32).map(InstId)
    }

    /// Iterator over edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Outgoing edges of `n`.
    pub fn succ_edges(&self, n: InstId) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.succs[n.index()]
            .iter()
            .map(move |&id| (id, self.edge(id)))
    }

    /// Incoming edges of `n`.
    pub fn pred_edges(&self, n: InstId) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.preds[n.index()]
            .iter()
            .map(move |&id| (id, self.edge(id)))
    }

    /// Successor nodes of `n` (may repeat if parallel edges exist).
    pub fn successors(&self, n: InstId) -> impl Iterator<Item = InstId> + '_ {
        self.succ_edges(n).map(|(_, e)| e.dst)
    }

    /// Predecessor nodes of `n` (may repeat if parallel edges exist).
    pub fn predecessors(&self, n: InstId) -> impl Iterator<Item = InstId> + '_ {
        self.pred_edges(n).map(|(_, e)| e.src)
    }

    /// Number of instructions of each memory class `(loads, stores)`.
    pub fn memory_op_counts(&self) -> (usize, usize) {
        let loads = self.insts.iter().filter(|i| i.op.is_load()).count();
        let stores = self.insts.iter().filter(|i| i.op.is_store()).count();
        (loads, stores)
    }

    /// Count of instructions per op class.
    pub fn class_histogram(&self) -> Vec<(OpClass, usize)> {
        let mut hist: Vec<(OpClass, usize)> = Vec::new();
        for i in &self.insts {
            if let Some(entry) = hist.iter_mut().find(|(c, _)| *c == i.op) {
                entry.1 += 1;
            } else {
                hist.push((i.op, 1));
            }
        }
        hist
    }

    /// Sum of latencies of all instructions (a crude upper bound on any
    /// sensible II, used to bound searches).
    pub fn total_latency(&self) -> u64 {
        self.insts.iter().map(|i| i.latency as u64).sum()
    }

    /// Detect a dependence cycle whose total distance is zero (an
    /// unschedulable graph). Only edges with `distance == 0` can form
    /// such a cycle, so this is cycle detection on the zero-distance
    /// subgraph via iterative DFS.
    fn has_zero_distance_cycle(&self) -> bool {
        const WHITE: u8 = 0;
        const GREY: u8 = 1;
        const BLACK: u8 = 2;
        let n = self.insts.len();
        let mut color = vec![WHITE; n];
        // (node, next-successor-index) stack for an iterative DFS.
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for start in 0..n {
            if color[start] != WHITE {
                continue;
            }
            color[start] = GREY;
            stack.push((start, 0));
            while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
                let succ = self.succs[node]
                    .iter()
                    .skip(*idx)
                    .map(|&eid| (eid, self.edge(eid)))
                    .find(|(_, e)| e.distance == 0);
                match succ {
                    Some((eid, e)) => {
                        // Position after this edge in the adjacency list.
                        *idx = self.succs[node]
                            .iter()
                            .position(|&x| x == eid)
                            .expect("edge present")
                            + 1;
                        let next = e.dst.index();
                        match color[next] {
                            WHITE => {
                                color[next] = GREY;
                                stack.push((next, 0));
                            }
                            GREY => return true,
                            _ => {}
                        }
                    }
                    None => {
                        color[node] = BLACK;
                        stack.pop();
                    }
                }
            }
        }
        false
    }
}

impl fmt::Display for Ddg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ddg '{}': {} insts, {} edges",
            self.name,
            self.num_insts(),
            self.num_edges()
        )?;
        for i in &self.insts {
            writeln!(f, "  {i}")?;
        }
        for e in &self.edges {
            writeln!(f, "  {e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DdgBuilder;

    fn chain3() -> Ddg {
        let mut b = DdgBuilder::new("chain3");
        let a = b.inst("a", OpClass::Load);
        let c = b.inst("c", OpClass::FpMul);
        let d = b.inst("d", OpClass::Store);
        b.reg_flow(a, c, 0);
        b.reg_flow(c, d, 0);
        b.build().unwrap()
    }

    #[test]
    fn adjacency_is_consistent() {
        let g = chain3();
        assert_eq!(g.num_insts(), 3);
        assert_eq!(g.num_edges(), 2);
        let a = InstId(0);
        let c = InstId(1);
        let d = InstId(2);
        assert_eq!(g.successors(a).collect::<Vec<_>>(), vec![c]);
        assert_eq!(g.predecessors(d).collect::<Vec<_>>(), vec![c]);
        assert_eq!(g.predecessors(a).count(), 0);
        assert_eq!(g.successors(d).count(), 0);
    }

    #[test]
    fn uids_are_unique_and_shared_only_by_clones() {
        let a = chain3();
        let b = chain3();
        assert_ne!(a.uid(), b.uid(), "distinct graphs must not share a uid");
        assert_eq!(a.uid(), a.clone().uid(), "clones share content and uid");
    }

    #[test]
    fn empty_graph_rejected() {
        assert_eq!(
            Ddg::from_parts("e", vec![], vec![]).unwrap_err(),
            DdgError::Empty
        );
    }

    #[test]
    fn dangling_edge_rejected() {
        let insts = vec![Instruction::new(InstId(0), "a", OpClass::IntAlu)];
        let edges = vec![Edge {
            src: InstId(0),
            dst: InstId(9),
            kind: DepKind::Register,
            ty: DepType::Flow,
            distance: 0,
            delay: 1,
            prob: 1.0,
        }];
        assert_eq!(
            Ddg::from_parts("d", insts, edges).unwrap_err(),
            DdgError::DanglingEdge { edge: 0 }
        );
    }

    #[test]
    fn bad_probability_rejected() {
        let insts = vec![
            Instruction::new(InstId(0), "a", OpClass::Store),
            Instruction::new(InstId(1), "b", OpClass::Load),
        ];
        let edges = vec![Edge {
            src: InstId(0),
            dst: InstId(1),
            kind: DepKind::Memory,
            ty: DepType::Flow,
            distance: 1,
            delay: 1,
            prob: 1.5,
        }];
        assert_eq!(
            Ddg::from_parts("p", insts, edges).unwrap_err(),
            DdgError::BadProbability { edge: 0 }
        );
    }

    #[test]
    fn register_dep_with_non_unit_prob_rejected() {
        let insts = vec![
            Instruction::new(InstId(0), "a", OpClass::IntAlu),
            Instruction::new(InstId(1), "b", OpClass::IntAlu),
        ];
        let edges = vec![Edge {
            src: InstId(0),
            dst: InstId(1),
            kind: DepKind::Register,
            ty: DepType::Flow,
            distance: 0,
            delay: 1,
            prob: 0.5,
        }];
        assert_eq!(
            Ddg::from_parts("r", insts, edges).unwrap_err(),
            DdgError::NonUnitRegisterProb { edge: 0 }
        );
    }

    #[test]
    fn zero_distance_cycle_rejected() {
        let mut b = DdgBuilder::new("cyc");
        let a = b.inst("a", OpClass::IntAlu);
        let c = b.inst("c", OpClass::IntAlu);
        b.reg_flow(a, c, 0);
        b.reg_flow(c, a, 0);
        assert_eq!(b.build().unwrap_err(), DdgError::ZeroDistanceCycle);
    }

    #[test]
    fn recurrence_with_distance_accepted() {
        let mut b = DdgBuilder::new("rec");
        let a = b.inst("a", OpClass::FpAdd);
        let c = b.inst("c", OpClass::FpMul);
        b.reg_flow(a, c, 0);
        b.reg_flow(c, a, 1); // loop-carried back edge
        assert!(b.build().is_ok());
    }

    #[test]
    fn self_loop_with_distance_accepted() {
        let mut b = DdgBuilder::new("self");
        let a = b.inst("a", OpClass::FpAdd);
        b.reg_flow(a, a, 1);
        assert!(b.build().is_ok());
    }

    #[test]
    fn self_loop_zero_distance_rejected() {
        let mut b = DdgBuilder::new("self0");
        let a = b.inst("a", OpClass::FpAdd);
        b.reg_flow(a, a, 0);
        assert_eq!(b.build().unwrap_err(), DdgError::ZeroDistanceCycle);
    }

    #[test]
    fn histogram_counts_classes() {
        let g = chain3();
        let h = g.class_histogram();
        assert!(h.contains(&(OpClass::Load, 1)));
        assert!(h.contains(&(OpClass::FpMul, 1)));
        assert!(h.contains(&(OpClass::Store, 1)));
        assert_eq!(g.memory_op_counts(), (1, 1));
    }
}
