//! Structured tracing and metrics for the TMS pipeline, using nothing
//! outside the standard library.
//!
//! The paper's whole contribution is a cost model that *predicts* where
//! cycles go; this crate is what lets the implementation *show* where
//! they went. One [`Trace`] handle threads through the scheduler, the
//! SpMT engine and the sweep/bench drivers and collects
//!
//! * **counters** — named monotonic sums (`tms.attempts`,
//!   `sim.cycles.commit`, …). Addition is commutative, so counters
//!   recorded from `tms_core::par`-style worker pools are
//!   deterministic at any worker count *provided the recording sites
//!   are* (the scheduler records its accounting in the serial fold,
//!   keyed by candidate index, never by arrival order);
//! * **value histograms** — named summaries of deterministic
//!   quantities (store-log lengths, attempt counts): exact
//!   `count`/`sum`/`min`/`max` plus power-of-two buckets from which
//!   p50/p95/p99 are estimated deterministically;
//! * **timers** — the same summaries over wall-clock span durations
//!   (nondeterministic by nature, reported separately);
//! * **span events** — begin/duration records with monotonic
//!   timestamps, exportable as a Chrome `trace_event` JSON that
//!   `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load
//!   directly. The SpMT engine also emits *virtual-time* events (cycle
//!   timestamps) so a loop's thread timeline can be inspected visually;
//! * **counter samples** — `"ph":"C"` series points (store-log length,
//!   per-core occupancy, attempts per loop) that Perfetto plots as
//!   counter tracks: resource pressure over time, not just end totals.
//!
//! # Memory
//!
//! An enabled sink keeps every event in memory until it is rendered.
//! The largest traced run, `tms-verify --specfp-cap 0 --jobs 2 --trace`
//! (1,001 loops), holds about 275k events and peaks near 170 MB of
//! resident memory. This crate writes JSON and never parses it: every
//! reader lives in `tms_verify::traces`.
//!
//! # Sharding: metrics are a monoid
//!
//! [`MetricsSnapshot`] merges commutatively and associatively
//! ([`MetricsSnapshot::merge`]): counters add, histograms combine
//! exactly (including their percentile buckets). A sweep sharded
//! across processes with `--shard i/n` merges its per-shard snapshots
//! (`tms-verify merge-metrics`) into byte-for-byte the single-process
//! report.
//!
//! # Disabled cost
//!
//! Tracing is **off by default**: [`Trace::disabled`] carries no sink
//! at all (a sealed no-op — the sink type is private and cannot be
//! constructed empty), and every recording method bails on one pointer
//! check before any formatting or locking. The plain entry points
//! (`schedule_tms`, `simulate_spmt`) are the traced ones called with a
//! disabled handle, so they pay exactly that. For where the time goes,
//! see perfbench's `--trace 1` run (`core.tms.place_share`) and
//! `tms profile`.
//!
//! ```
//! use tms_trace::Trace;
//!
//! let trace = Trace::enabled();
//! {
//!     let mut span = trace.span("demo", "phase");
//!     span.arg("loop", "daxpy");
//!     trace.count("demo.items", 3);
//!     trace.record("demo.len", 7);
//! }
//! assert_eq!(trace.counter("demo.items"), 3);
//! assert!(trace.chrome_json().contains("\"traceEvents\""));
//!
//! let off = Trace::disabled();
//! off.count("demo.items", 3); // no-op, near-zero cost
//! assert_eq!(off.counter("demo.items"), 0);
//! ```

mod chrome;
mod error;
mod json;
pub mod schema;
mod sink;

pub use chrome::{PID_VIRTUAL, PID_WALL};
pub use error::TraceError;
pub use sink::{
    Event, EventPhase, Histogram, MetricsSnapshot, SpanGuard, Trace, HISTOGRAM_BUCKETS,
};
