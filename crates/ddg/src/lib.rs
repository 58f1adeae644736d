//! Loop IR and data-dependence graphs (DDGs) for modulo scheduling.
//!
//! This crate is the substrate beneath both schedulers in the
//! reproduction of *Thread-Sensitive Modulo Scheduling for Multicore
//! Processors* (ICPP 2008). It models an innermost loop body as a set of
//! [`Instruction`]s connected by dependence [`Edge`]s that carry an
//! iteration *distance* and — for memory dependences — a profiled
//! *probability*, exactly the information the paper's compiler extracts
//! from GCC 4.1.1 RTL plus train-run profiles.
//!
//! Provided analyses:
//!
//! * strongly connected components ([`scc`]) via Tarjan's algorithm,
//! * the recurrence-constrained initiation interval `RecII` and per-SCC
//!   recurrence bounds ([`mii`]),
//! * ASAP/ALAP/mobility/depth/height and the longest dependence path
//!   (LDP) used by the paper's §5 metrics ([`analysis`]),
//! * DOT export for debugging ([`dot`]).
//!
//! The resource-constrained bound `ResII` needs a machine model and
//! therefore lives in the `tms-machine` crate.

pub mod analysis;
pub mod builder;
pub mod classify;
pub mod dot;
pub mod edge;
pub mod graph;
pub mod inst;
pub mod mii;
pub mod scc;
pub mod unroll;

pub use builder::DdgBuilder;
pub use classify::{classify, Classification, LoopClass};
pub use edge::{DepKind, DepType, Edge, EdgeId};
pub use graph::{Ddg, DdgError, MAX_MAGNITUDE};
pub use inst::{InstId, Instruction, OpClass};
pub use unroll::unroll;
