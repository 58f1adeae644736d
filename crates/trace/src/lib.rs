//! Structured tracing and metrics for the TMS pipeline, depending on
//! nothing but `tms-faults`.
//!
//! The paper's whole contribution is a cost model that *predicts* where
//! cycles go; this crate is what lets the implementation *show* where
//! they went. One [`Trace`] handle threads through the scheduler, the
//! SpMT engine and the sweep/bench drivers and collects
//!
//! * **counters** — named monotonic sums (`tms.attempts`,
//!   `sim.cycles.commit`, …). Addition is commutative, so counters
//!   recorded from [`tms_core::par`]-style worker pools are
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
//! # Bounded memory: streaming sinks
//!
//! [`Trace::enabled`] buffers every event in memory — fine for one
//! loop, unacceptable for a `--specfp-cap 0` sweep. [`Trace::streaming`]
//! spills completed events to a `.trace.ndjson` file (one JSON object
//! per line, see [`stream`]) through a buffer of at most `buffer_cap`
//! events, while counters/histograms stay resident; the offline merge
//! (`tms trace merge`, backed by `tms_verify::traces`) converts
//! one-or-many spill files into the same sorted Chrome document the
//! in-memory sink renders — byte-identical for the same events, because
//! it renders through this crate's [`render_chrome`]. This crate writes
//! JSON and never parses it: every reader lives in `tms_verify::traces`.
//!
//! # Robustness: retry, degrade, recover
//!
//! Spill lines are written **line-atomically** by
//! [`stream::LineAppender`] (full frame + newline in one write), so a
//! killed process tears at most the final line — which the lossy
//! readers in `tms_verify::traces` drop and report while recovering
//! everything before it. Transient write errors are retried with
//! bounded backoff; on exhaustion (or a torn/persistent failure) the
//! sink **degrades to the in-memory mode** — no event or metric is
//! lost, the memory bound is traded away, and the condition is recorded
//! as the `trace.spill.degraded` counter plus [`Trace::spill_degraded`].
//! Every fallible public entry point returns a [`TraceError`] naming
//! the file involved; the final `Drop` flush never panics (swallowed
//! failures are counted by [`drop_flush_failures`] and logged once).
//! The whole ladder is exercised deterministically by
//! `tms-verify --faults` through [`Trace::streaming_faulted`].
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
pub mod stream;

pub use chrome::{render as render_chrome, ChromeEvent, PID_VIRTUAL, PID_WALL};
pub use error::TraceError;
pub use sink::{
    drop_flush_failures, Event, EventPhase, Histogram, MetricsSnapshot, SpanGuard, Trace,
    HISTOGRAM_BUCKETS,
};
