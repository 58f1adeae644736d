//! Experiment harness: regenerates every table and figure of the
//! paper's evaluation (§5).
//!
//! Each experiment module exposes `run(&ExperimentConfig) -> rows` and
//! a `render(&rows) -> String` that prints the same rows/series the
//! paper reports:
//!
//! * [`table1`] — the simulated architecture (input parameters);
//! * [`table2`] — SMS vs TMS scheduling metrics over the 13-benchmark,
//!   778-loop SPECfp2000-calibrated population;
//! * [`fig4`] — loop and program speedups of TMS over SMS on the
//!   quad-core SpMT simulator;
//! * [`table3`] — the seven selected DOACROSS loops and their
//!   TMS-scheduled metrics;
//! * [`fig5`] — TMS vs single-threaded speedups for those loops;
//! * [`fig6`] — synchronisation stalls (a), SEND/RECV increase (b) and
//!   communication overhead (c), TMS vs SMS;
//! * [`ablation`] — §5.2's speculation ablation (`P_max = 0`
//!   synchronises every memory dependence).
//!
//! Binaries under `src/bin/` print each experiment; Criterion benches
//! under `benches/` time the same entry points.

pub mod ablation;
pub mod config;
pub mod design_ablations;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod granularity;
pub mod report;
pub mod runner;
pub mod schedulers;
pub mod table1;
pub mod table2;
pub mod table3;

pub use config::ExperimentConfig;
