//! The `tmsd` server: accept loop, bounded per-connection queues,
//! batch scheduling through the panic-containing worker pool.
//!
//! # Request lifecycle
//!
//! ```text
//! accept ──▶ reader thread ──▶ bounded queue ──▶ batch worker ──▶ reply
//!   │            │    │              │                │
//!   │            │    └─ metrics/shutdown answered inline (never queued,
//!   │            │       so the daemon stays observable under load)
//!   │            └─ parse error → structured `error` reply
//!   │            └─ line past `MAX_LINE_BYTES` → `error` reply, closed
//!   │            └─ queue full → `overloaded` reply (shed, counted)
//!   └─ injected accept fault → bounded backoff + retry (the connection
//!      waits in the listen backlog; it is never dropped)
//! ```
//!
//! Each connection gets one reader thread and one worker loop (run on
//! the connection's own thread). The reader enqueues schedule requests
//! into a bounded queue — full means an immediate `overloaded` reply,
//! the deterministic shed rule being simply `depth == cap` — and the
//! worker drains batches of up to `batch_max`, scheduling them through
//! [`tms_core::par::par_map`] so concurrent requests share the
//! panic-containing pool. Each request body additionally runs under its
//! own `catch_unwind`, so one poisoned DDG yields one structured
//! `error` reply instead of killing the daemon.

use crate::cache::ScheduleCache;
use crate::proto::{
    key_hex, parse_request, reply_error, reply_metrics, reply_ok, reply_overloaded, reply_shutdown,
    salvage_id, Request, ScheduleRequest,
};
use serde_json::Value;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;
use tms_core::cost::CostModel;
use tms_core::par::{par_map, Parallelism};
use tms_core::{schedule_tms_traced, LoopMetrics, TmsConfig, TmsResult};
use tms_faults::FaultPlan;
use tms_machine::ArchParams;
use tms_trace::Trace;

/// How the daemon listens, queues, batches, caches and degrades.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Listen address; port 0 binds an ephemeral port (reported via
    /// the `on_ready` callback of [`serve`]).
    pub addr: String,
    /// Bounded per-connection queue depth; beyond it requests are shed
    /// with an `overloaded` reply.
    pub queue_cap: usize,
    /// Most requests a single batch hands to the worker pool.
    pub batch_max: usize,
    /// Worker-pool width for batch scheduling.
    pub jobs: Parallelism,
    /// Persisted-cache path; `None` keeps the cache memory-only.
    pub cache_path: Option<PathBuf>,
    /// Default per-request deadline (a request's `deadline_ms` wins).
    pub deadline: Option<Duration>,
    /// Fault-injection plan (disabled outside chaos runs).
    pub plan: FaultPlan,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_cap: 64,
            batch_max: 8,
            jobs: Parallelism::Auto,
            cache_path: None,
            deadline: None,
            plan: FaultPlan::disabled(),
        }
    }
}

/// Poison-tolerant lock, matching the rest of the workspace: a panic
/// in one request must not poison shared state for the next.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The scheduling engine behind the socket: cache, trace, fault plan
/// and the per-request pipeline. Separated from the networking so
/// tests (and the soak's self-checks) can drive request processing
/// directly.
pub struct Engine {
    /// Live metrics; the `metrics` verb snapshots this.
    pub trace: Trace,
    /// Seeded fault oracle shared by every layer.
    pub plan: FaultPlan,
    cache: Mutex<ScheduleCache>,
    default_deadline: Option<Duration>,
}

impl Engine {
    /// Build an engine, opening (and lossily recovering) the persisted
    /// cache when configured. Corrupt lines dropped during recovery are
    /// counted under `tmsd.cache.bypassed` — they will be rescheduled
    /// cold, never served wrong.
    pub fn new(cfg: &DaemonConfig, trace: Trace) -> Engine {
        let cache = match &cfg.cache_path {
            None => ScheduleCache::in_memory(cfg.plan.clone()),
            Some(path) => {
                let (cache, report) = ScheduleCache::open(path, cfg.plan.clone());
                if report.dropped_corrupt > 0 {
                    trace.count("tmsd.cache.bypassed", report.dropped_corrupt as u64);
                }
                cache
            }
        };
        Engine {
            trace,
            plan: cfg.plan.clone(),
            cache: Mutex::new(cache),
            default_deadline: cfg.deadline,
        }
    }

    /// Resident cache entries (for status lines and tests).
    pub fn cache_len(&self) -> usize {
        lock(&self.cache).len()
    }

    /// Process one schedule request end to end: cache lookup (with
    /// corruption bypass), cold schedule on miss, cache fill, reply
    /// rendering. Panics are contained here — the reply is always a
    /// single structurally valid line.
    pub fn process(&self, req: &ScheduleRequest) -> String {
        let hex = key_hex(req.key);
        {
            let mut cache = lock(&self.cache);
            if let Some(hit) = cache.get(req.key) {
                if self.plan.cache_read_corrupt(&hex) {
                    // Injected corruption: never serve the entry. Drop
                    // it, fall through to a cold schedule, overwrite.
                    self.trace.count("tmsd.cache.bypassed", 1);
                    cache.remove(req.key);
                } else {
                    let hit = hit.to_string();
                    self.trace.count("tmsd.cache.hit", 1);
                    return reply_ok(req.id, true, None, &hit);
                }
            }
        }
        self.trace.count("tmsd.cache.miss", 1);

        let outcome = catch_unwind(AssertUnwindSafe(|| self.schedule_cold(req)));
        match outcome {
            Err(_) => {
                // A panic while scheduling (injected or genuine) is
                // isolated to this request.
                self.trace.count("tmsd.panics", 1);
                self.trace.count("tmsd.errors", 1);
                reply_error(
                    req.id,
                    &format!("internal: worker panicked scheduling '{}'", req.ddg.name()),
                )
            }
            Ok(Err(e)) => {
                self.trace.count("tmsd.errors", 1);
                reply_error(req.id, &format!("schedule: {e}"))
            }
            Ok(Ok((result, degraded))) => {
                match &degraded {
                    None => {
                        // Only settled results are cached: a degraded
                        // result reflects this run's budget/deadline,
                        // not the request's content.
                        let report = {
                            let mut cache = lock(&self.cache);
                            cache.insert(req.key, &result)
                        };
                        if report.retries > 0 {
                            self.trace.count("tmsd.retries", report.retries);
                        }
                        if report.degraded_now {
                            self.trace.count("tmsd.cache.bypassed", 1);
                        }
                    }
                    Some(_) => self.trace.count("tmsd.degraded", 1),
                }
                reply_ok(req.id, false, degraded.as_deref(), &result)
            }
        }
    }

    /// The cold path: build the cost model and config, run the traced
    /// TMS search, render the result. Returns the rendered result plus
    /// the degradation diagnostic, if any.
    fn schedule_cold(
        &self,
        req: &ScheduleRequest,
    ) -> Result<(String, Option<String>), tms_core::SchedError> {
        if self
            .plan
            .worker_panic_once(&format!("tmsd:{}", key_hex(req.key)))
        {
            panic!("injected tmsd worker panic");
        }
        let arch = ArchParams::with_ncore(req.ncore);
        let model = CostModel::new(arch.costs, req.ncore);
        let mut cfg = TmsConfig {
            dense_candidates: req.knobs.dense_candidates,
            adaptive: req.knobs.adaptive,
            attempt_budget: self.plan.sched_budget(req.ddg.name()),
            deadline: req.deadline.or(self.default_deadline),
            ..TmsConfig::default()
        };
        if let Some(p) = &req.knobs.p_max_values {
            cfg.p_max_values = p.clone();
        }
        if req.knobs.ii_max.is_some() {
            cfg.ii_max = req.knobs.ii_max;
        }
        if req.knobs.c_delay_max.is_some() {
            cfg.c_delay_max = req.knobs.c_delay_max;
        }
        if let Some(s) = req.knobs.max_extra_stages {
            cfg.max_extra_stages = s;
        }
        let tms = schedule_tms_traced(&req.ddg, &req.machine, &model, &cfg, &self.trace)?;
        let metrics = LoopMetrics::compute(&req.ddg, &req.machine, &tms.schedule, &arch.costs);
        let degraded = tms.degraded.as_ref().map(|d| d.to_string());
        Ok((render_result(req, &model, &tms, &metrics), degraded))
    }

    /// The `metrics` verb: live snapshot + per-site injection summary.
    pub fn metrics_reply(&self, id: u64) -> String {
        reply_metrics(id, &self.trace.metrics().to_json(), &self.plan.injected())
    }
}

/// Render the deterministic result payload of an `ok` reply. Pure in
/// the accepted schedule — this exact string is what the cache stores
/// and what warm replies replay byte-for-byte.
pub fn render_result(
    req: &ScheduleRequest,
    model: &CostModel,
    tms: &TmsResult,
    metrics: &LoopMetrics,
) -> String {
    let obj = Value::Object(vec![
        ("name".to_string(), Value::Str(req.ddg.name().to_string())),
        ("key".to_string(), Value::Str(key_hex(req.key))),
        ("ncore".to_string(), Value::UInt(req.ncore as u64)),
        ("ii".to_string(), Value::UInt(tms.ii as u64)),
        ("mii".to_string(), Value::UInt(tms.mii as u64)),
        ("ldp".to_string(), Value::Int(tms.ldp)),
        (
            "c_delay_threshold".to_string(),
            Value::UInt(tms.c_delay_threshold as u64),
        ),
        ("p_max".to_string(), Value::Float(tms.p_max)),
        ("cost_key".to_string(), Value::Int(tms.cost_key.0)),
        (
            "cost_f".to_string(),
            Value::Float(model.f(tms.ii, tms.c_delay_threshold)),
        ),
        (
            "fell_back_to_sms".to_string(),
            Value::Bool(tms.fell_back_to_sms),
        ),
        ("attempts".to_string(), Value::UInt(tms.attempts as u64)),
        (
            "metrics".to_string(),
            serde_json::to_value(metrics).unwrap_or(Value::Null),
        ),
        (
            "kernel".to_string(),
            serde_json::to_value(&tms.schedule).unwrap_or(Value::Null),
        ),
    ]);
    serde_json::to_string(&obj).unwrap_or_else(|_| "{}".to_string())
}

/// A bounded MPSC request queue with an explicit, deterministic shed
/// rule: a push against a full queue fails immediately — the caller
/// replies `overloaded` — instead of blocking or growing.
pub struct BoundedQueue {
    cap: usize,
    inner: Mutex<QueueInner>,
    cv: Condvar,
}

struct QueueInner {
    pending: VecDeque<Box<ScheduleRequest>>,
    closed: bool,
}

impl BoundedQueue {
    /// An empty queue shedding past `cap` entries (`cap` ≥ 1).
    pub fn new(cap: usize) -> BoundedQueue {
        BoundedQueue {
            cap: cap.max(1),
            inner: Mutex::new(QueueInner {
                pending: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Enqueue, or shed. `Ok(depth)` is the depth after the push
    /// (never exceeds the cap); `Err((depth, cap))` means the request
    /// was shed and the caller must answer `overloaded`.
    pub fn push(&self, req: Box<ScheduleRequest>) -> Result<usize, (usize, usize)> {
        let mut q = lock(&self.inner);
        if q.pending.len() >= self.cap {
            return Err((q.pending.len(), self.cap));
        }
        q.pending.push_back(req);
        let depth = q.pending.len();
        drop(q);
        self.cv.notify_one();
        Ok(depth)
    }

    /// No more pushes are coming; wake the worker so it can drain and
    /// exit.
    pub fn close(&self) {
        lock(&self.inner).closed = true;
        self.cv.notify_all();
    }

    /// Take up to `max` requests, waiting while the queue is open and
    /// empty. `None` means closed-and-drained: the worker should exit.
    pub fn pop_batch(&self, max: usize) -> Option<Vec<Box<ScheduleRequest>>> {
        let mut q = lock(&self.inner);
        while q.pending.is_empty() {
            if q.closed {
                return None;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(q, Duration::from_millis(100))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            q = guard;
        }
        let n = q.pending.len().min(max.max(1));
        Some(q.pending.drain(..n).collect())
    }

    /// Current depth (for tests).
    pub fn depth(&self) -> usize {
        lock(&self.inner).pending.len()
    }
}

/// How long one reply write may stall on a client that stopped
/// reading. Past it the daemon gives the connection up (see
/// [`write_line`]), so a non-reading client wedges neither its own
/// connection threads nor `shutdown`, which joins them.
const WRITE_TIMEOUT: Duration = Duration::from_secs(3);

/// Write one reply line; returns whether it was written. A dead client
/// is its own problem and the daemon must not die with it, so a failed
/// write — including one that stalled past [`WRITE_TIMEOUT`] — gives
/// the connection up: the socket is shut down both ways, the reader
/// sees EOF, and every later write fails fast.
fn write_line(writer: &Mutex<TcpStream>, line: &str) -> bool {
    let mut w = lock(writer);
    let sent = w
        .write_all(line.as_bytes())
        .and_then(|()| w.write_all(b"\n"))
        .and_then(|()| w.flush());
    if sent.is_err() {
        let _ = w.shutdown(Shutdown::Both);
    }
    sent.is_ok()
}

struct Shared {
    engine: Engine,
    shutdown: AtomicBool,
    queue_cap: usize,
    batch_max: usize,
    jobs: Parallelism,
}

/// Longest request line the reader accepts, newline excluded. The
/// largest Fig. 4 DDG serialises to 43.5 KB. A client that sends more
/// without a newline gets an `error` reply naming the cap, and its
/// connection is closed, so no client can grow a buffer without bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// The reader half of one connection: parse lines, answer control
/// verbs inline, enqueue or shed schedule requests. Stops at EOF, at
/// daemon shutdown, at an over-long line, or when a reply can no
/// longer be written.
fn read_requests(
    stream: TcpStream,
    writer: Arc<Mutex<TcpStream>>,
    queue: Arc<BoundedQueue>,
    sh: Arc<Shared>,
) {
    let mut reader = BufReader::new(stream);
    // The bytes of the line being read. An idle tick can split a line,
    // even inside a multi-byte character, so they stay here across
    // ticks and are decoded only once the newline has arrived.
    let mut buf: Vec<u8> = Vec::new();
    loop {
        if sh.shutdown.load(Ordering::Acquire) {
            break;
        }
        // One byte past the cap is enough to tell that a line broke it.
        let room = (MAX_LINE_BYTES + 1).saturating_sub(buf.len()) as u64;
        let read = (&mut reader).take(room).read_until(b'\n', &mut buf);
        if buf.len() > MAX_LINE_BYTES && buf.last() != Some(&b'\n') {
            sh.engine.trace.count("tmsd.requests", 1);
            let msg = format!("request line exceeds {MAX_LINE_BYTES} bytes; closing connection");
            refuse(&writer, &sh, 0, &msg);
            break;
        }
        match read {
            Ok(0) if buf.is_empty() => break, // EOF: client is done
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                continue; // idle tick; re-check the shutdown flag
            }
            Err(_) => break,
        }
        let more = match std::str::from_utf8(&buf).map(str::trim) {
            Ok("") => true,
            Ok(line) => answer(line, &writer, &queue, &sh),
            Err(e) => {
                sh.engine.trace.count("tmsd.requests", 1);
                refuse(&writer, &sh, 0, &format!("request is not UTF-8: {e}"))
            }
        };
        buf.clear();
        if !more {
            break;
        }
    }
    queue.close();
}

/// Answer one request line: control verbs inline, schedule requests
/// into the queue or shed. Returns whether the reader should go on.
fn answer(line: &str, writer: &Mutex<TcpStream>, queue: &BoundedQueue, sh: &Shared) -> bool {
    sh.engine.trace.count("tmsd.requests", 1);
    match parse_request(line) {
        Err(e) => refuse(writer, sh, salvage_id(line), &e),
        Ok(Request::Metrics { id }) => {
            // Answered inline, bypassing the queue: observability
            // must survive saturation.
            write_line(writer, &sh.engine.metrics_reply(id))
        }
        Ok(Request::Shutdown { id }) => {
            write_line(writer, &reply_shutdown(id));
            sh.shutdown.store(true, Ordering::Release);
            false
        }
        Ok(Request::Schedule(req)) => {
            let id = req.id;
            match queue.push(req) {
                Ok(depth) => {
                    sh.engine.trace.record("tmsd.queue_depth", depth as u64);
                    true
                }
                Err((depth, cap)) => {
                    sh.engine.trace.count("tmsd.shed", 1);
                    write_line(writer, &reply_overloaded(id, depth, cap))
                }
            }
        }
    }
}

/// Answer a request that cannot be served with an `error` reply,
/// counted in `tmsd.errors`. Returns whether the reply was written.
fn refuse(writer: &Mutex<TcpStream>, sh: &Shared, id: u64, msg: &str) -> bool {
    sh.engine.trace.count("tmsd.errors", 1);
    write_line(writer, &reply_error(id, msg))
}

/// One connection: spawn the reader, run the batch worker here, join.
fn handle_conn(stream: TcpStream, sh: Arc<Shared>) {
    // A finite read timeout turns a silent client into periodic idle
    // ticks, so shutdown is always observed within ~250ms; the write
    // timeout bounds how long a client that stopped reading can stall
    // a reply.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(Mutex::new(write_half));
    let queue = Arc::new(BoundedQueue::new(sh.queue_cap));

    let reader = {
        let (writer, queue, sh) = (writer.clone(), queue.clone(), sh.clone());
        std::thread::spawn(move || read_requests(stream, writer, queue, sh))
    };

    'serve: while let Some(batch) = queue.pop_batch(sh.batch_max) {
        sh.engine.trace.count("tmsd.batches", 1);
        sh.engine
            .trace
            .record("tmsd.batch_size", batch.len() as u64);
        // The pool contains stray panics per item; Engine::process
        // additionally catches per-request panics itself, so a batch
        // always yields one reply per request.
        let replies = par_map(sh.jobs, &batch, |_, req| sh.engine.process(req));
        for reply in replies {
            if !write_line(&writer, &reply) {
                // The connection is given up; the reader sees EOF.
                break 'serve;
            }
        }
    }
    let _ = reader.join();
}

/// Longest run of consecutive (injected or real) accept failures
/// tolerated before the daemon gives up. Bounded retry: transient
/// faults clear well inside it; a persistent accept failure becomes a
/// clean operational error instead of a silent spin.
const ACCEPT_RETRY_LIMIT: u32 = 64;

/// Run the daemon until a `shutdown` request arrives. `on_ready` fires
/// once with the bound address (which is how ephemeral-port callers —
/// the soak, the tests — learn where to connect).
pub fn serve(
    cfg: &DaemonConfig,
    trace: Trace,
    on_ready: impl FnOnce(SocketAddr),
) -> Result<(), String> {
    let engine = Engine::new(cfg, trace);
    let listener = TcpListener::bind(&cfg.addr).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("set_nonblocking: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    on_ready(addr);

    let sh = Arc::new(Shared {
        engine,
        shutdown: AtomicBool::new(false),
        queue_cap: cfg.queue_cap.max(1),
        batch_max: cfg.batch_max.max(1),
        jobs: cfg.jobs,
    });

    let mut handles = Vec::new();
    let mut accept_index = 0u64;
    let mut consecutive_errors = 0u32;
    while !sh.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                // The injected accept fault fires *after* the kernel
                // handed us the socket but before we service it —
                // retry with backoff, holding the connection (it is
                // never dropped; a real EINTR loop would leave it in
                // the backlog the same way).
                let mut retry = 0u32;
                loop {
                    accept_index += 1;
                    if sh.engine.plan.accept_fault(accept_index).is_none()
                        || retry >= ACCEPT_RETRY_LIMIT
                    {
                        break;
                    }
                    retry += 1;
                    sh.engine.trace.count("tmsd.retries", 1);
                    std::thread::sleep(Duration::from_micros(100 << retry.min(6)));
                }
                consecutive_errors = 0;
                let sh = sh.clone();
                handles.push(std::thread::spawn(move || handle_conn(stream, sh)));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                consecutive_errors += 1;
                if consecutive_errors > ACCEPT_RETRY_LIMIT {
                    return Err(format!("accept: {e} (retries exhausted)"));
                }
                sh.engine.trace.count("tmsd.retries", 1);
                std::thread::sleep(Duration::from_micros(100 << consecutive_errors.min(6)));
            }
        }
    }
    for h in handles {
        let _ = h.join();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Request;

    fn schedule_req(id: u64) -> Box<ScheduleRequest> {
        let ddg = serde_json::to_string(&tms_workloads::figure1()).unwrap();
        let line = format!(r#"{{"id":{id},"ddg":{ddg}}}"#);
        match parse_request(&line).unwrap() {
            Request::Schedule(r) => r,
            _ => unreachable!(),
        }
    }

    #[test]
    fn queue_sheds_deterministically_at_cap() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.push(schedule_req(1)), Ok(1));
        assert_eq!(q.push(schedule_req(2)), Ok(2));
        assert_eq!(q.push(schedule_req(3)), Err((2, 2)), "depth == cap sheds");
        assert_eq!(q.depth(), 2);
        let batch = q.pop_batch(8).unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(q.push(schedule_req(4)), Ok(1), "drain reopens the queue");
        q.close();
        assert_eq!(q.pop_batch(8).unwrap().len(), 1);
        assert!(q.pop_batch(8).is_none(), "closed and drained");
    }

    #[test]
    fn engine_misses_then_hits_byte_identically() {
        let cfg = DaemonConfig::default();
        let engine = Engine::new(&cfg, Trace::enabled());
        let req = schedule_req(9);
        let cold = engine.process(&req);
        let warm = engine.process(&req);
        let snap = engine.trace.metrics();
        assert_eq!(snap.counters.get("tmsd.cache.miss"), Some(&1));
        assert_eq!(snap.counters.get("tmsd.cache.hit"), Some(&1));
        // The replies differ only in the `cached` flag; the embedded
        // result bytes are identical.
        let get_result = |reply: &str| {
            let v: Value = serde_json::from_str(reply).unwrap();
            serde_json::to_string(v.get("result").unwrap()).unwrap()
        };
        assert_eq!(get_result(&cold), get_result(&warm));
        assert!(cold.contains(r#""cached":false"#));
        assert!(warm.contains(r#""cached":true"#));
    }

    #[test]
    fn zero_deadline_degrades_to_sms_and_is_not_cached() {
        let cfg = DaemonConfig::default();
        let engine = Engine::new(&cfg, Trace::enabled());
        let mut req = schedule_req(3);
        req.deadline = Some(Duration::ZERO);
        let reply = engine.process(&req);
        assert!(reply.contains(r#""degraded":true"#), "{reply}");
        assert!(reply.contains("degraded to SMS"), "{reply}");
        assert_eq!(engine.cache_len(), 0, "degraded results are not cached");
        assert_eq!(
            engine.trace.metrics().counters.get("tmsd.degraded"),
            Some(&1)
        );
    }
}
