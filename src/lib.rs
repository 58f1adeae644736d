//! `tms-repro` — reproduction of *Thread-Sensitive Modulo Scheduling
//! for Multicore Processors* (Gao, Nguyen, Li, Xue, Ngai — ICPP 2008).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`ddg`] — loop IR, dependence graphs, SCC/MII/LDP analyses;
//! * [`machine`] — functional units and Table 1 architecture params;
//! * [`core`] — Swing (SMS) and Thread-Sensitive (TMS) modulo
//!   scheduling, the cost model, post-passes, metrics;
//! * [`sim`] — the cycle-level SpMT multicore simulator and the
//!   out-of-order single-threaded baseline;
//! * [`workloads`] — Figure 1, classic kernels, SPECfp2000-calibrated
//!   populations and the Table 3 DOACROSS suite;
//! * [`mod@trace`] — structured tracing and metrics (spans, counters,
//!   Chrome `trace_event` export), off by default;
//! * [`mod@bench`] — the experiment harness regenerating every table and
//!   figure of the paper's evaluation.
//!
//! See `examples/quickstart.rs` for a guided tour, and DESIGN.md /
//! EXPERIMENTS.md for the system inventory and the paper-vs-measured
//! record.

pub use tms_bench as bench;
pub use tms_core as core;
pub use tms_ddg as ddg;
pub use tms_machine as machine;
pub use tms_sim as sim;
pub use tms_trace as trace;
pub use tms_workloads as workloads;

/// Convenience prelude for examples and downstream users.
pub mod prelude {
    pub use tms_bench::ExperimentConfig;
    pub use tms_core::cost::CostModel;
    pub use tms_core::{
        schedule_sms, schedule_tms, schedule_tms_traced, CommPlan, LoopMetrics, Schedule, TmsConfig,
    };
    pub use tms_ddg::{Ddg, DdgBuilder, DepKind, DepType, InstId, OpClass};
    pub use tms_machine::{ArchParams, CostConstants, MachineModel};
    pub use tms_sim::{simulate_sequential, simulate_spmt, simulate_spmt_traced, SimConfig};
    pub use tms_trace::Trace;
}
