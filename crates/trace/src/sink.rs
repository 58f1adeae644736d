//! The trace handle and its thread-safe sink.

use crate::error::TraceError;
use crate::json;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Lock the sink state, tolerating poison: a worker panic caught by
/// `tms_core::par` may have unwound while holding this mutex, and the
/// sink's maps are update-in-place monotonic accumulators — the worst a
/// torn update leaves behind is one missing count, never an invalid
/// structure. Propagating the poison would turn one contained panic
/// into a panic on every later recording call.
fn lock_state(m: &Mutex<State>) -> MutexGuard<'_, State> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Stable per-OS-thread track id for span events (`std::thread::ThreadId`
/// has no stable integer form). Ids are assigned in first-use order, so
/// the main thread is track 0 in a serial run.
fn track_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static TRACK: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TRACK.with(|t| *t)
}

/// Power-of-two bucket count: bucket 0 holds the sample value 0 and
/// bucket `i ≥ 1` holds `[2^(i-1), 2^i)`, so 65 buckets cover `u64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// Summary of a stream of `u64` samples: exact `count`/`sum`/`min`/`max`
/// plus power-of-two bucket counts, from which p50/p95/p99 are
/// estimated (each percentile reports its bucket's upper bound, clamped
/// to the observed `[min, max]` — deterministic, and exact for streams
/// whose values fall in one bucket).
///
/// Histograms form a commutative monoid under [`Histogram::merge`]:
/// every field either adds (`count`, `sum`, buckets) or takes an
/// extremum (`min`, `max`), so merging per-shard histograms in any
/// order or grouping reproduces the single-process histogram exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record_sample(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        self.buckets[bucket_index(v)] += 1;
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The power-of-two bucket counts (see [`HISTOGRAM_BUCKETS`]).
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Estimated value at percentile `pct` (integer 1..=100): the upper
    /// bound of the bucket containing the rank-`ceil(count·pct/100)`
    /// sample, clamped to `[min, max]`. 0 when empty.
    pub fn percentile(&self, pct: u8) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as u128 * pct as u128).div_ceil(100)).max(1) as u64;
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median estimate ([`Histogram::percentile`] at 50).
    pub fn p50(&self) -> u64 {
        self.percentile(50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.percentile(95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.percentile(99)
    }

    /// Fold `other` into `self`. Commutative and associative; the empty
    /// histogram is the identity.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Rebuild a histogram from serialized parts (the merge tools parse
    /// these back out of metrics JSON). Bucket counts must sum to
    /// `count`, and a non-empty histogram needs `min ≤ max` — a
    /// malformed snapshot must be rejected here, because
    /// [`Histogram::percentile`] clamps to `[min, max]` and an inverted
    /// range would panic on the first percentile query instead of at
    /// the parse boundary.
    pub fn from_parts(
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        bucket_pairs: &[(u64, u64)],
    ) -> Result<Histogram, String> {
        if count > 0 && min > max {
            return Err(format!("histogram min {min} exceeds max {max}"));
        }
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        let mut total = 0u64;
        for &(i, n) in bucket_pairs {
            let idx = usize::try_from(i).ok().filter(|&i| i < HISTOGRAM_BUCKETS);
            let Some(idx) = idx else {
                return Err(format!("bucket index {i} out of range"));
            };
            buckets[idx] += n;
            total += n;
        }
        if total != count {
            return Err(format!("bucket counts sum to {total}, count is {count}"));
        }
        Ok(Histogram {
            count,
            sum,
            min,
            max,
            buckets,
        })
    }
}

/// Chrome `trace_event` phase of a recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventPhase {
    /// A complete span (`"ph": "X"`): has a duration, string args.
    Complete,
    /// A counter sample (`"ph": "C"`): no duration; args are numeric
    /// series values and render unquoted, so Perfetto plots them as a
    /// counter track.
    Counter,
}

/// One completed event, in Chrome `trace_event` terms: a complete
/// (`"ph": "X"`) span or a counter sample (`"ph": "C"`) on track
/// `track` at `ts_us` microseconds.
#[derive(Debug, Clone)]
pub struct Event {
    /// Chrome phase (complete span or counter sample).
    pub ph: EventPhase,
    /// Event category (Chrome `cat`).
    pub cat: &'static str,
    /// Event name.
    pub name: String,
    /// Track (Chrome `tid`): worker thread for wall-clock spans, core
    /// number for the engine's virtual-time thread records.
    pub track: u64,
    /// Start timestamp in microseconds (wall-clock since the sink's
    /// epoch, or virtual cycles for engine events).
    pub ts_us: u64,
    /// Duration in microseconds (or cycles). 0 for counter samples.
    pub dur_us: u64,
    /// Key/value annotations (`args` in the Chrome schema). For
    /// counter samples the values are decimal integers and render
    /// unquoted.
    pub args: Vec<(&'static str, String)>,
}

#[derive(Default)]
struct State {
    counters: BTreeMap<String, u64>,
    values: BTreeMap<String, Histogram>,
    timers: BTreeMap<String, Histogram>,
    events: Vec<Event>,
}

/// The shared collector. Private on purpose: the only way to obtain one
/// is [`Trace::enabled`], and the only disabled representation is *no
/// sink at all* — there is no half-constructed state to pay for.
struct Sink {
    epoch: Instant,
    state: Mutex<State>,
}

/// A cheaply clonable tracing handle: either **disabled** (no sink, all
/// recording methods are one-branch no-ops) or **enabled** (an
/// `Arc`-shared, mutex-protected sink safe to use from
/// `tms_core::par` worker threads). An enabled sink keeps every event
/// in memory until it is rendered.
#[derive(Clone, Default)]
pub struct Trace {
    inner: Option<Arc<Sink>>,
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => f.write_str("Trace(disabled)"),
            Some(s) => {
                let st = lock_state(&s.state);
                write!(
                    f,
                    "Trace(enabled: {} counters, {} events)",
                    st.counters.len(),
                    st.events.len()
                )
            }
        }
    }
}

/// Deterministic snapshot of everything but the wall-clock data.
///
/// Snapshots form a **commutative monoid** under
/// [`MetricsSnapshot::merge`]: counters add and histograms merge, both
/// commutative and associative with [`MetricsSnapshot::default`] as
/// identity. A sweep sharded with `--shard i/n` therefore merges its
/// per-shard snapshots — in any order — into exactly the snapshot a
/// single-process run records.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// All counters, sorted by name.
    pub counters: BTreeMap<String, u64>,
    /// All value histograms, sorted by name.
    pub values: BTreeMap<String, Histogram>,
}

/// The snapshot fold, on the two maps it touches: counters add,
/// histograms merge. Shared by [`MetricsSnapshot::merge`] and
/// [`Trace::merge_metrics`].
fn fold_metrics(
    counters: &mut BTreeMap<String, u64>,
    values: &mut BTreeMap<String, Histogram>,
    other: &MetricsSnapshot,
) {
    for (k, v) in &other.counters {
        *counters.entry(k.clone()).or_insert(0) += v;
    }
    for (k, h) in &other.values {
        values.entry(k.clone()).or_default().merge(h);
    }
}

impl MetricsSnapshot {
    /// Fold `other` into `self`: counters add, histograms merge.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        fold_metrics(&mut self.counters, &mut self.values, other);
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.values.is_empty()
    }

    /// Canonical sorted-JSON rendering: `{"counters": {...}, "values":
    /// {...}}`. Byte-identical for equal snapshots; this is the format
    /// `tms-verify merge-metrics` both consumes and emits.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        json::write_map(&mut out, self.counters.iter(), |out, v| {
            json::push_u64(out, *v)
        });
        out.push_str(",\n  \"values\": {");
        json::write_map(&mut out, self.values.iter(), |out, h| {
            json::write_histogram(out, h)
        });
        out.push_str("\n}\n");
        out
    }
}

impl Trace {
    /// A disabled handle: every recording call is a no-op after one
    /// pointer-null check. This is also the [`Default`].
    pub fn disabled() -> Trace {
        Trace { inner: None }
    }

    /// A fresh enabled handle with its own sink. Clones share the sink.
    pub fn enabled() -> Trace {
        Trace {
            inner: Some(Arc::new(Sink {
                epoch: Instant::now(),
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Add `n` to counter `name` (created at 0 on first use).
    #[inline]
    pub fn count(&self, name: &str, n: u64) {
        let Some(sink) = &self.inner else { return };
        let mut st = lock_state(&sink.state);
        match st.counters.get_mut(name) {
            Some(c) => *c += n,
            None => {
                st.counters.insert(name.to_string(), n);
            }
        }
    }

    /// Add `n` to the counter named `{prefix}{key}`. The concatenation
    /// happens only when enabled, so disabled callers pay no formatting.
    #[inline]
    pub fn count_keyed(&self, prefix: &str, key: &str, n: u64) {
        if self.inner.is_some() {
            self.count(&format!("{prefix}{key}"), n);
        }
    }

    /// Record sample `v` into value histogram `name`.
    #[inline]
    pub fn record(&self, name: &str, v: u64) {
        let Some(sink) = &self.inner else { return };
        let mut st = lock_state(&sink.state);
        match st.values.get_mut(name) {
            Some(h) => h.record_sample(v),
            None => {
                let mut h = Histogram::default();
                h.record_sample(v);
                st.values.insert(name.to_string(), h);
            }
        }
    }

    /// Time `f`, recording its wall-clock duration (nanoseconds) into
    /// timer histogram `name`. No span event is emitted.
    #[inline]
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let Some(sink) = &self.inner else { return f() };
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as u64;
        let mut st = lock_state(&sink.state);
        match st.timers.get_mut(name) {
            Some(h) => h.record_sample(ns),
            None => {
                let mut h = Histogram::default();
                h.record_sample(ns);
                st.timers.insert(name.to_string(), h);
            }
        }
        r
    }

    /// Record an externally measured wall-clock duration (nanoseconds)
    /// into timer histogram `name` — the explicit-duration counterpart
    /// of [`Trace::time`] for sub-phases that are accumulated across a
    /// hot loop and flushed once (the placement profiler times many
    /// tiny regions per attempt and records one sample per attempt).
    #[inline]
    pub fn time_ns(&self, name: &str, ns: u64) {
        let Some(sink) = &self.inner else { return };
        let mut st = lock_state(&sink.state);
        match st.timers.get_mut(name) {
            Some(h) => h.record_sample(ns),
            None => {
                let mut h = Histogram::default();
                h.record_sample(ns);
                st.timers.insert(name.to_string(), h);
            }
        }
    }

    /// Merge an externally accumulated histogram into value histogram
    /// `name`. The key is inserted even when `h` is empty, so schema
    /// presence checks hold for recording sites that observed nothing.
    /// Like [`Trace::record`] this feeds the deterministic snapshot:
    /// callers must fold `h` serially for the identity guarantee.
    pub fn record_histogram(&self, name: &str, h: &Histogram) {
        let Some(sink) = &self.inner else { return };
        let mut st = lock_state(&sink.state);
        match st.values.get_mut(name) {
            Some(existing) => existing.merge(h),
            None => {
                st.values.insert(name.to_string(), *h);
            }
        }
    }

    /// Fold `snap` into this handle's counters and value histograms
    /// under one lock: [`MetricsSnapshot::merge`] applied in place.
    /// The fold commutes, so concurrent callers leave the same metrics
    /// in any order. Events and timers are untouched.
    pub fn merge_metrics(&self, snap: &MetricsSnapshot) {
        let Some(sink) = &self.inner else { return };
        let mut st = lock_state(&sink.state);
        let st = &mut *st;
        fold_metrics(&mut st.counters, &mut st.values, snap);
    }

    /// Open a wall-clock span. On drop it emits a Chrome event under
    /// `cat` and records the duration into the timer `{cat}.{name}`.
    #[inline]
    pub fn span(&self, cat: &'static str, name: &str) -> SpanGuard<'_> {
        match &self.inner {
            None => SpanGuard { active: None },
            Some(sink) => SpanGuard {
                active: Some(SpanActive {
                    sink,
                    cat,
                    name: name.to_string(),
                    start: Instant::now(),
                    args: Vec::new(),
                }),
            },
        }
    }

    /// Record a completed event with explicit (virtual) timestamps —
    /// the engine uses cycle numbers as microseconds so thread
    /// timelines render in Perfetto. `name_fn` and `args_fn` run only
    /// when enabled.
    pub fn event_at(
        &self,
        cat: &'static str,
        name_fn: impl FnOnce() -> String,
        track: u64,
        ts_us: u64,
        dur_us: u64,
        args_fn: impl FnOnce() -> Vec<(&'static str, String)>,
    ) {
        let Some(sink) = &self.inner else { return };
        let ev = Event {
            ph: EventPhase::Complete,
            cat,
            name: name_fn(),
            track,
            ts_us,
            dur_us,
            args: args_fn(),
        };
        lock_state(&sink.state).events.push(ev);
    }

    /// Record a counter sample (`"ph": "C"`) at an explicit timestamp:
    /// one point of the series `name` on `(pid_of(cat), track)`.
    /// Perfetto renders consecutive samples as a counter track —
    /// resource pressure over (virtual or wall) time. `name_fn` runs
    /// only when enabled.
    pub fn counter_sample(
        &self,
        cat: &'static str,
        name_fn: impl FnOnce() -> String,
        track: u64,
        ts_us: u64,
        value: u64,
    ) {
        let Some(sink) = &self.inner else { return };
        let ev = Event {
            ph: EventPhase::Counter,
            cat,
            name: name_fn(),
            track,
            ts_us,
            dur_us: 0,
            args: vec![("value", value.to_string())],
        };
        lock_state(&sink.state).events.push(ev);
    }

    /// [`Trace::counter_sample`] stamped with the current wall-clock
    /// offset from the sink's epoch, on the calling thread's track.
    pub fn counter_sample_now(
        &self,
        cat: &'static str,
        name_fn: impl FnOnce() -> String,
        value: u64,
    ) {
        let Some(sink) = &self.inner else { return };
        let ts = sink.epoch.elapsed().as_micros() as u64;
        self.counter_sample(cat, name_fn, track_id(), ts, value);
    }

    /// Current value of counter `name` (0 if absent or disabled).
    pub fn counter(&self, name: &str) -> u64 {
        match &self.inner {
            None => 0,
            Some(s) => *lock_state(&s.state).counters.get(name).unwrap_or(&0),
        }
    }

    /// Value histogram `name`, if any samples were recorded.
    pub fn value_stats(&self, name: &str) -> Option<Histogram> {
        self.inner
            .as_ref()
            .and_then(|s| lock_state(&s.state).values.get(name).copied())
    }

    /// Wall-clock timer histogram `name` (nanosecond samples recorded
    /// by [`Trace::time`] and span guards), if any fired. Timers are
    /// *not* part of [`Trace::metrics`] — they are inherently
    /// machine-dependent — so consumers that aggregate them (e.g. the
    /// bench's per-phase breakdown) read them through this accessor.
    pub fn timer_stats(&self, name: &str) -> Option<Histogram> {
        self.inner
            .as_ref()
            .and_then(|s| lock_state(&s.state).timers.get(name).copied())
    }

    /// All timer histograms under the dotted namespace `prefix`, in
    /// name order. Matching is segment-aware: `"tms.phase"` matches
    /// `"tms.phase"` itself and `"tms.phase.place"`, but not
    /// `"tms.phases.x"`. A trailing-dot prefix (`"tms.phase."`) keeps
    /// plain starts-with semantics, and an empty prefix matches all.
    pub fn timers_with_prefix(&self, prefix: &str) -> Vec<(String, Histogram)> {
        match &self.inner {
            None => Vec::new(),
            Some(s) => lock_state(&s.state)
                .timers
                .range(prefix.to_string()..)
                .take_while(|(k, _)| k.starts_with(prefix))
                .filter(|(k, _)| {
                    prefix.is_empty()
                        || prefix.ends_with('.')
                        || k.len() == prefix.len()
                        || k.as_bytes()[prefix.len()] == b'.'
                })
                .map(|(k, h)| (k.clone(), *h))
                .collect(),
        }
    }

    /// Deterministic snapshot: counters and value histograms only (no
    /// wall-clock timers or events). Two runs that perform the same
    /// work record equal snapshots regardless of worker count.
    pub fn metrics(&self) -> MetricsSnapshot {
        match &self.inner {
            None => MetricsSnapshot::default(),
            Some(s) => {
                let st = lock_state(&s.state);
                MetricsSnapshot {
                    counters: st.counters.clone(),
                    values: st.values.clone(),
                }
            }
        }
    }

    /// Number of span/counter events recorded so far.
    pub fn event_count(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |s| lock_state(&s.state).events.len())
    }

    /// The deterministic metrics slice as canonical sorted JSON
    /// ([`MetricsSnapshot::to_json`]): what `--snapshot` writes and
    /// `merge-metrics` compares.
    pub fn snapshot_json(&self) -> String {
        self.metrics().to_json()
    }

    /// The JSON metrics dump: counters and value histograms (sorted,
    /// deterministic) plus wall-clock timers (reported separately —
    /// their durations are machine noise by nature).
    pub fn metrics_json(&self) -> String {
        let Some(sink) = &self.inner else {
            return "{}".to_string();
        };
        let st = lock_state(&sink.state);
        let mut out = String::from("{\n  \"counters\": {");
        json::write_map(&mut out, st.counters.iter(), |out, v| {
            json::push_u64(out, *v)
        });
        out.push_str(",\n  \"values\": {");
        json::write_map(&mut out, st.values.iter(), |out, h| {
            json::write_histogram(out, h)
        });
        out.push_str(",\n  \"timers_ns\": {");
        json::write_map(&mut out, st.timers.iter(), |out, h| {
            json::write_histogram(out, h)
        });
        out.push_str(",\n  \"span_events\": ");
        json::push_u64(&mut out, st.events.len() as u64);
        out.push_str("\n}\n");
        out
    }

    /// The Chrome `trace_event` JSON (see the `chrome` module) of every
    /// recorded event.
    pub fn chrome_json(&self) -> String {
        let Some(sink) = &self.inner else {
            return "{\"traceEvents\":[]}\n".to_string();
        };
        let st = lock_state(&sink.state);
        crate::chrome::render(&st.events)
    }

    /// Write [`Trace::metrics_json`] to `path`, creating parents.
    pub fn write_metrics(&self, path: &std::path::Path) -> Result<(), TraceError> {
        write_creating_dirs(path, &self.metrics_json())
    }

    /// Write [`Trace::snapshot_json`] to `path`, creating parents.
    pub fn write_snapshot(&self, path: &std::path::Path) -> Result<(), TraceError> {
        write_creating_dirs(path, &self.snapshot_json())
    }

    /// Write [`Trace::chrome_json`] to `path`, creating parents.
    pub fn write_chrome(&self, path: &std::path::Path) -> Result<(), TraceError> {
        write_creating_dirs(path, &self.chrome_json())
    }

    fn finish_span(sink: &Sink, span: &mut SpanActive<'_>) {
        let ts_us = span.start.duration_since(sink.epoch).as_micros() as u64;
        let dur = span.start.elapsed();
        let ev = Event {
            ph: EventPhase::Complete,
            cat: span.cat,
            name: std::mem::take(&mut span.name),
            track: track_id(),
            ts_us,
            dur_us: dur.as_micros() as u64,
            args: std::mem::take(&mut span.args),
        };
        let timer_key = format!("{}.{}", span.cat, ev.name);
        let mut st = lock_state(&sink.state);
        match st.timers.get_mut(&timer_key) {
            Some(h) => h.record_sample(dur.as_nanos() as u64),
            None => {
                let mut h = Histogram::default();
                h.record_sample(dur.as_nanos() as u64);
                st.timers.insert(timer_key, h);
            }
        }
        st.events.push(ev);
    }
}

struct SpanActive<'a> {
    sink: &'a Sink,
    cat: &'static str,
    name: String,
    start: Instant,
    args: Vec<(&'static str, String)>,
}

/// Guard returned by [`Trace::span`]; records the span when dropped
/// (including on unwind). Disabled handles return an inert guard.
pub struct SpanGuard<'a> {
    active: Option<SpanActive<'a>>,
}

impl SpanGuard<'_> {
    /// Attach a key/value annotation to the span. `val` is only
    /// rendered when the span is live.
    #[inline]
    pub fn arg(&mut self, key: &'static str, val: impl fmt::Display) {
        if let Some(a) = &mut self.active {
            a.args.push((key, val.to_string()));
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(mut a) = self.active.take() {
            Trace::finish_span(a.sink, &mut a);
        }
    }
}

fn write_creating_dirs(path: &std::path::Path, text: &str) -> Result<(), TraceError> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| TraceError::io(path, e))?;
        }
    }
    std::fs::write(path, text).map_err(|e| TraceError::io(path, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Trace::disabled();
        t.count("a", 3);
        t.record("b", 9);
        t.time("c", || ());
        t.counter_sample("cat", || "n".into(), 0, 0, 1);
        {
            let mut s = t.span("cat", "name");
            s.arg("k", 1);
        }
        assert_eq!(t.counter("a"), 0);
        assert!(t.value_stats("b").is_none());
        assert_eq!(t.event_count(), 0);
        assert_eq!(t.metrics(), MetricsSnapshot::default());
        assert_eq!(t.metrics_json(), "{}");
        assert!(!t.is_enabled());
        assert!(!Trace::default().is_enabled());
    }

    #[test]
    fn counters_and_values_accumulate() {
        let t = Trace::enabled();
        t.count("x", 1);
        t.count("x", 2);
        t.count_keyed("reject.", "c1", 5);
        t.record("len", 4);
        t.record("len", 10);
        assert_eq!(t.counter("x"), 3);
        assert_eq!(t.counter("reject.c1"), 5);
        let h = t.value_stats("len").unwrap();
        assert_eq!((h.count, h.sum, h.min, h.max), (2, 14, 4, 10));
        assert!((h.mean() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn spans_emit_events_and_timers() {
        let t = Trace::enabled();
        {
            let mut s = t.span("tms", "attempt");
            s.arg("ii", 8);
        }
        drop(t.span("tms", "order"));
        assert_eq!(t.event_count(), 2);
        let json = t.chrome_json();
        assert!(json.contains("\"attempt\""));
        assert!(json.contains("\"ii\""));
        let m = t.metrics_json();
        assert!(m.contains("\"tms.attempt\""));
        assert!(m.contains("\"span_events\": 2"));
    }

    #[test]
    fn clones_share_one_sink_across_threads() {
        let t = Trace::enabled();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = t.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        t.count("n", 1);
                    }
                    drop(t.span("w", "tick"));
                });
            }
        });
        assert_eq!(t.counter("n"), 400);
        assert_eq!(t.event_count(), 4);
    }

    #[test]
    fn virtual_time_events_keep_their_timestamps() {
        let t = Trace::enabled();
        t.event_at(
            "sim",
            || "t0".into(),
            2,
            100,
            40,
            || vec![("thread", "0".into())],
        );
        let json = t.chrome_json();
        assert!(json.contains("\"ts\":100"));
        assert!(json.contains("\"dur\":40"));
        assert!(json.contains("\"tid\":2"));
    }

    #[test]
    fn counter_samples_render_as_counter_tracks() {
        let t = Trace::enabled();
        t.counter_sample("sim.vcounter", || "sim.live".into(), 0, 10, 3);
        t.counter_sample_now("tms.counter", || "attempts".into(), 7);
        assert_eq!(t.event_count(), 2);
        let json = t.chrome_json();
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"args\":{\"value\":3}"));
        // Counter samples are events, not metrics.
        assert!(t.metrics().is_empty());
    }

    #[test]
    fn profiler_counter_tracks_render_in_chrome_export() {
        // The placement profiler samples one point per attempt on two
        // counter tracks; both must come out as Perfetto counter events
        // and leave the deterministic snapshot untouched.
        let t = Trace::enabled();
        t.counter_sample_now("tms.counter", || "tms.place.attempt_ns".into(), 1234);
        t.counter_sample_now("tms.counter", || "tms.place.max_eject_chain".into(), 3);
        let json = t.chrome_json();
        assert!(json.contains("\"name\":\"tms.place.attempt_ns\""));
        assert!(json.contains("\"name\":\"tms.place.max_eject_chain\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"args\":{\"value\":1234}"));
        assert!(t.metrics().is_empty());
    }

    #[test]
    fn timer_stats_handles_missing_names_and_disabled_handles() {
        let t = Trace::enabled();
        // Empty trace: no timer has fired yet.
        assert!(t.timer_stats("tms.phase.place").is_none());
        assert!(t.timers_with_prefix("tms.phase").is_empty());
        t.time("tms.phase.place", || ());
        assert!(t.timer_stats("tms.phase.place").is_some());
        // A name that never fired stays absent even once others exist.
        assert!(t.timer_stats("tms.phase.order").is_none());
        // Disabled handles report nothing and pay nothing.
        let off = Trace::disabled();
        off.time("tms.phase.place", || ());
        off.time_ns("tms.place.scan", 10);
        assert!(off.timer_stats("tms.phase.place").is_none());
        assert!(off.timers_with_prefix("").is_empty());
    }

    #[test]
    fn timers_with_prefix_respects_segment_boundaries() {
        let t = Trace::enabled();
        t.time_ns("tms.phase", 1);
        t.time_ns("tms.phase.place", 2);
        t.time_ns("tms.phase.verify", 3);
        t.time_ns("tms.phases.x", 4);
        let names = |prefix: &str| -> Vec<String> {
            t.timers_with_prefix(prefix)
                .into_iter()
                .map(|(k, _)| k)
                .collect()
        };
        // "tms.phase" matches itself and its children, not "tms.phases.x".
        assert_eq!(
            names("tms.phase"),
            vec!["tms.phase", "tms.phase.place", "tms.phase.verify"]
        );
        // A trailing dot keeps plain starts-with semantics (children only).
        assert_eq!(
            names("tms.phase."),
            vec!["tms.phase.place", "tms.phase.verify"]
        );
        assert_eq!(names("tms.phases"), vec!["tms.phases.x"]);
        assert_eq!(names("").len(), 4);
        assert!(names("tms.ph").is_empty());
    }

    #[test]
    fn time_ns_records_explicit_durations() {
        let t = Trace::enabled();
        t.time_ns("tms.place.scan", 100);
        t.time_ns("tms.place.scan", 300);
        let h = t.timer_stats("tms.place.scan").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 400);
        assert_eq!(h.min, 100);
        assert_eq!(h.max, 300);
        // Timers stay out of the deterministic snapshot.
        assert!(t.metrics().is_empty());
    }

    #[test]
    fn record_histogram_merges_and_holds_keys_at_zero() {
        let t = Trace::enabled();
        // Empty histograms still insert their key: schema presence
        // checks must hold for sites that observed nothing.
        t.record_histogram("tms.place.eject_chain_depth", &Histogram::default());
        let h = t.value_stats("tms.place.eject_chain_depth").unwrap();
        assert_eq!(h.count, 0);
        let mut ext = Histogram::default();
        ext.record_sample(2);
        ext.record_sample(5);
        t.record_histogram("tms.place.eject_chain_depth", &ext);
        t.record("tms.place.eject_chain_depth", 9);
        let h = t.value_stats("tms.place.eject_chain_depth").unwrap();
        assert_eq!((h.count, h.sum, h.min, h.max), (3, 16, 2, 9));
    }

    #[test]
    fn metrics_snapshot_is_order_independent() {
        let a = Trace::enabled();
        a.count("x", 1);
        a.count("y", 2);
        a.record("v", 3);
        let b = Trace::enabled();
        b.record("v", 3);
        b.count("y", 2);
        b.count("x", 1);
        assert_eq!(a.metrics(), b.metrics());
    }

    #[test]
    fn histogram_percentiles_are_bucket_bounds_clamped() {
        let mut h = Histogram::default();
        for v in 1..=100u64 {
            h.record_sample(v);
        }
        // Rank 50 lands in bucket [32, 63]; upper bound 63.
        assert_eq!(h.p50(), 63);
        // p95/p99 land in bucket [64, 127], clamped to max = 100.
        assert_eq!(h.p95(), 100);
        assert_eq!(h.p99(), 100);
        // Degenerate stream: all percentiles equal the single value.
        let mut one = Histogram::default();
        one.record_sample(42);
        assert_eq!((one.p50(), one.p95(), one.p99()), (42, 42, 42));
    }

    #[test]
    fn empty_histogram_percentiles_are_deterministically_zero() {
        // An empty histogram has no observed range; every percentile
        // reports 0, not an arbitrary bucket edge. This also covers the
        // round-trip of an empty histogram through `from_parts`.
        let empty = Histogram::default();
        for pct in [1u8, 50, 95, 99, 100] {
            assert_eq!(empty.percentile(pct), 0);
        }
        assert_eq!((empty.p50(), empty.p95(), empty.p99()), (0, 0, 0));
        let rebuilt = Histogram::from_parts(0, 0, 0, 0, &[]).unwrap();
        assert_eq!(rebuilt, empty);
        assert_eq!((rebuilt.p50(), rebuilt.p95(), rebuilt.p99()), (0, 0, 0));
    }

    #[test]
    fn from_parts_rejects_inverted_range() {
        // A malformed snapshot with min > max must fail at the parse
        // boundary: `percentile` clamps to [min, max], which panics on
        // an inverted range.
        let err = Histogram::from_parts(1, 7, 9, 3, &[(3, 1)]).unwrap_err();
        assert!(err.contains("min 9 exceeds max 3"), "got: {err}");
        // count == 0 carries no range, so (0, 0) stays accepted even
        // though the fields are equal-zero rather than meaningful.
        assert!(Histogram::from_parts(0, 0, 0, 0, &[]).is_ok());
    }

    #[test]
    fn histogram_merge_is_a_commutative_monoid() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for v in [1u64, 5, 9, 1000] {
            a.record_sample(v);
        }
        for v in [3u64, 70, 2] {
            b.record_sample(v);
        }
        let mut whole = Histogram::default();
        for v in [1u64, 5, 9, 1000, 3, 70, 2] {
            whole.record_sample(v);
        }
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab, whole);
        // Identity.
        let mut id = a;
        id.merge(&Histogram::default());
        assert_eq!(id, a);
        let mut id2 = Histogram::default();
        id2.merge(&a);
        assert_eq!(id2, a);
    }

    #[test]
    fn snapshot_merge_matches_single_run() {
        let single = Trace::enabled();
        let s1 = Trace::enabled();
        let s2 = Trace::enabled();
        for (i, t) in [(0u64, &s1), (1, &s2), (2, &s1), (3, &s2)] {
            single.count("n", i + 1);
            single.record("v", i * 10);
            t.count("n", i + 1);
            t.record("v", i * 10);
        }
        let mut merged = s1.metrics();
        merged.merge(&s2.metrics());
        assert_eq!(merged, single.metrics());
        assert_eq!(merged.to_json(), single.snapshot_json());

        // Folding into a live handle is the same fold, and leaves its
        // events alone.
        let live = Trace::enabled();
        drop(live.span("demo", "kept"));
        live.merge_metrics(&s2.metrics());
        live.merge_metrics(&s1.metrics());
        assert_eq!(live.metrics(), single.metrics());
        assert_eq!(live.event_count(), 1);
        let off = Trace::disabled();
        off.merge_metrics(&single.metrics());
        assert!(off.metrics().is_empty());
    }

    #[test]
    fn sink_survives_a_panic_unwinding_through_its_users() {
        // The realistic failure mode under fault injection: a worker
        // panics between recording calls (possibly mid-span), the
        // panic is caught upstream, and the shared sink must keep
        // working for every other clone. `lock_state` additionally
        // tolerates a poisoned mutex, which cannot be provoked from
        // the public API precisely because no recording path can panic
        // while holding the guard.
        let t = Trace::enabled();
        let t2 = t.clone();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut span = t2.span("w", "doomed");
            span.arg("k", 1);
            t2.count("before", 1);
            panic!("injected");
        }));
        assert!(caught.is_err());
        t.count("after", 2);
        assert_eq!(t.counter("before"), 1);
        assert_eq!(t.counter("after"), 2);
        // The doomed span still recorded on unwind (guard drop ran).
        assert_eq!(t.event_count(), 1);
    }
}
