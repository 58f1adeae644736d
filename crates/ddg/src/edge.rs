//! Dependence edges between instructions.

use crate::inst::InstId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of an edge within its [`crate::Ddg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Whether a dependence is carried through a register or through memory.
///
/// The distinction is the heart of the paper's execution model (§3):
/// register dependences between threads become *synchronised*
/// dependences (SEND/RECV over the ring), memory dependences become
/// *speculated* dependences (tracked by the MDT, enforced by squashing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DepKind {
    /// Value flows through a register.
    Register,
    /// Value flows through a memory location.
    Memory,
}

/// Classic dependence classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DepType {
    /// Read-after-write (true) dependence.
    Flow,
    /// Write-after-read dependence.
    Anti,
    /// Write-after-write dependence.
    Output,
}

/// A dependence edge `src → dst`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// Producer instruction.
    pub src: InstId,
    /// Consumer instruction.
    pub dst: InstId,
    /// Register- or memory-carried.
    pub kind: DepKind,
    /// Flow / anti / output.
    pub ty: DepType,
    /// Iteration distance `d(src, dst)`; 0 for intra-iteration edges.
    pub distance: u32,
    /// Minimum issue-slot separation the schedule must honour:
    /// `t(dst) ≥ t(src) + delay − II·distance`. For flow dependences
    /// this equals the producer latency; for anti/output dependences it
    /// is 1 (the consumer must merely issue no earlier than one slot
    /// after the producer within the adjusted iteration frame).
    pub delay: i64,
    /// Profiled probability that the dependence actually occurs at run
    /// time — the paper's `p_d` (§4.2): out of `X` producer writes,
    /// `p_d·X` consumer reads hit the same location. Register
    /// dependences always occur (`1.0`). Only memory dependences may
    /// carry `p < 1`.
    pub prob: f64,
}

impl Edge {
    /// True for inter-iteration (loop-carried) dependences.
    #[inline]
    pub fn is_loop_carried(&self) -> bool {
        self.distance > 0
    }

    /// True for register-carried flow dependences (the ones the SpMT
    /// execution model must synchronise when they cross threads).
    #[inline]
    pub fn is_register_flow(&self) -> bool {
        self.kind == DepKind::Register && self.ty == DepType::Flow
    }

    /// True for memory-carried flow dependences (the ones that may be
    /// speculated and cause squashes when violated).
    #[inline]
    pub fn is_memory_flow(&self) -> bool {
        self.kind == DepKind::Memory && self.ty == DepType::Flow
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let k = match self.kind {
            DepKind::Register => "reg",
            DepKind::Memory => "mem",
        };
        let t = match self.ty {
            DepType::Flow => "flow",
            DepType::Anti => "anti",
            DepType::Output => "out",
        };
        write!(
            f,
            "{} -> {} [{k} {t}, d={}, delay={}, p={:.2}]",
            self.src, self.dst, self.distance, self.delay, self.prob
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(kind: DepKind, ty: DepType, distance: u32) -> Edge {
        Edge {
            src: InstId(0),
            dst: InstId(1),
            kind,
            ty,
            distance,
            delay: 1,
            prob: 1.0,
        }
    }

    #[test]
    fn loop_carried_detection() {
        assert!(!edge(DepKind::Register, DepType::Flow, 0).is_loop_carried());
        assert!(edge(DepKind::Register, DepType::Flow, 1).is_loop_carried());
        assert!(edge(DepKind::Memory, DepType::Flow, 3).is_loop_carried());
    }

    #[test]
    fn kind_classification() {
        assert!(edge(DepKind::Register, DepType::Flow, 1).is_register_flow());
        assert!(!edge(DepKind::Register, DepType::Anti, 1).is_register_flow());
        assert!(edge(DepKind::Memory, DepType::Flow, 1).is_memory_flow());
        assert!(!edge(DepKind::Memory, DepType::Output, 1).is_memory_flow());
    }

    #[test]
    fn display_mentions_kind_and_distance() {
        let e = edge(DepKind::Memory, DepType::Flow, 2);
        let s = format!("{e}");
        assert!(s.contains("mem flow"));
        assert!(s.contains("d=2"));
    }
}
