//! Differential verification for the TMS reproduction.
//!
//! This crate closes the loop between the three layers of the system:
//! the schedulers (`tms-core`), the cost model they optimise, and the
//! SpMT execution engine (`tms-sim`). It provides
//!
//! * [`checks::check_loop`] — one call that schedules a loop with SMS
//!   and with TMS across an `(ncore, P_max)` grid, re-verifies every
//!   invariant through [`tms_core::diagnostics::verify_schedule`], and
//!   differentially executes the SpMT kernel against the in-order
//!   sequential reference (final memory images must match exactly,
//!   including under forced misspeculation);
//! * [`fuzz`] — a deterministic seeded DDG fuzzer covering DOALL
//!   bodies, register/memory recurrences, induction pressure and
//!   always-aliasing (`p = 1.0`) carried dependences;
//! * [`report`] — the `results/verify.json` artifact the `tms-verify`
//!   binary emits;
//! * [`traces`] — the readers for `tms-trace`'s metrics snapshots,
//!   behind `tms-verify merge-metrics` and `tmsd soak`.
//!
//! ```
//! use tms_verify::checks::{check_loop, CheckConfig};
//! use tms_verify::fuzz::fuzz_ddgs;
//!
//! for ddg in fuzz_ddgs(4, 1) {
//!     let verdict = check_loop(&ddg, &CheckConfig::quick());
//!     assert!(verdict.violations.is_empty(), "{:?}", verdict.violations);
//! }
//! ```

pub mod checks;
pub mod fuzz;
pub mod glob;
pub mod report;
pub mod sweep;
pub mod traces;

pub use checks::{check_loop, CheckConfig, LoopVerdict, Violation};
pub use fuzz::{fuzz_ddgs, fuzz_spec};
pub use report::{DegradedLoop, FamilySummary, VerifyReport};
pub use sweep::{run_sweep, SweepConfig, SweepOutcome};
