//! `tmsd` — TMS scheduling as a long-lived service.
//!
//! The batch tools (`tms`, `tms-verify`) pay DDG parsing, machine
//! setup and a full candidate search per invocation. `tmsd` keeps the
//! scheduler resident behind a TCP socket speaking newline-delimited
//! JSON — the same DDG and machine-model JSON the `tms` CLI imports
//! and exports — and answers with the scheduled kernel plus its cost
//! report. The interesting part is not the socket, it is the
//! robustness contract around it:
//!
//! * **Content-addressed caching** ([`proto::cache_key`],
//!   [`cache::ScheduleCache`]): requests are keyed on a stable hash of
//!   the canonicalised DDG, machine model, core count and search
//!   knobs. Warm replies replay the stored result bytes verbatim, so a
//!   hit is byte-identical to the cold schedule. The cache persists as
//!   crash-safe ndjson, appended one whole line per write, with
//!   lossy-prefix recovery.
//! * **Bad input is an error reply**: a request line that does not
//!   parse, or a DDG that `tms_ddg::Ddg::from_parts` refuses (a
//!   dangling edge, a latency, distance or `|delay|` past
//!   `tms_ddg::MAX_MAGNITUDE`), is answered with `error` before
//!   anything is scheduled, and the connection goes on serving.
//! * **Backpressure** ([`server::BoundedQueue`]): per-connection
//!   queues are bounded; past the cap a request is *shed* with a
//!   structured `overloaded` reply — answered, counted, never lost.
//! * **Degradation over failure**: per-request deadlines and injected
//!   attempt budgets degrade TMS→SMS (the reply says so); cache
//!   corruption is bypassed and rescheduled cold; a panic while
//!   scheduling one request is contained to that request.
//! * **Seeded chaos** ([`soak`]): `tmsd soak` hammers a daemon with
//!   every fault site hot — `daemon.accept`, `daemon.cache.read`,
//!   `daemon.cache.write`, budget cuts, worker panics — and proves
//!   every request is answered and warm equals cold, byte for byte.
//!
//! Live counters (`tmsd.requests`, `tmsd.cache.hit/miss/bypassed`,
//! `tmsd.shed`, `tmsd.degraded`, `tmsd.retries`, …) are exported by
//! the `metrics` request verb as a canonical
//! [`tms_trace::MetricsSnapshot`], schema-checked in CI.

#![warn(missing_docs)]

pub mod cache;
pub mod proto;
pub mod server;
pub mod soak;

pub use cache::{LoadReport, ScheduleCache, WriteReport};
pub use proto::{cache_key, key_hex, parse_request, Knobs, Request, ScheduleRequest};
pub use server::{serve, DaemonConfig, Engine};
pub use soak::{hot_rates, run_soak, SoakConfig, SoakReport};
