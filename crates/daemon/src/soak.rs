//! Chaos soak for `tmsd`: a client that hammers a daemon with bursts
//! of schedule requests while every daemon fault site is hot, then
//! proves the robustness contract:
//!
//! * **every request is answered** — `ok`, `error` or `overloaded`,
//!   exactly once each, never lost, never duplicated;
//! * **warm equals cold** — a cache hit replays byte-identical result
//!   bytes; injected cache corruption is bypassed (counted), never
//!   served;
//! * **degradation is visible** — deadline and budget cuts surface as
//!   `degraded` replies and the `tmsd.degraded` counter, not as missing
//!   answers;
//! * **the live `metrics` verb is schema-valid** and its counters
//!   reconcile with what the client observed.
//!
//! With no explicit address the soak spawns an in-process daemon on an
//! ephemeral port with [`hot_rates`] and tears it down with a
//! `shutdown` request at the end, so `tmsd soak` is self-contained for
//! CI.

use crate::proto::salvage_id;
use crate::server::{serve, DaemonConfig};
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;
use tms_core::par::Parallelism;
use tms_faults::{
    FaultPlan, FaultRates, SITE_DAEMON_ACCEPT, SITE_DAEMON_CACHE_READ, SITE_DAEMON_CACHE_WRITE,
};
use tms_trace::{schema, Trace};
use tms_verify::fuzz::fuzz_ddgs;
use tms_verify::traces::snapshot_from_value;

/// The soak's fault profile: every daemon site runs far hotter than the
/// standard campaign so a few hundred requests reliably fire all of
/// accept, cache-read and cache-write, plus budget cuts and worker
/// panics. Simulator-side sites stay cold — the soak exercises the
/// daemon, not the pipeline behind it.
pub fn hot_rates() -> FaultRates {
    FaultRates {
        sched_budget_per_1024: 512,
        sched_budget_attempts: 2,
        worker_panic_per_1024: 96,
        misspec_per_1024: 0,
        jitter_per_1024: 0,
        jitter_max_cycles: 0,
        accept_transient_per_1024: 384,
        cache_read_corrupt_per_1024: 512,
        cache_write_transient_per_1024: 256,
        cache_write_fail_after: None,
        cache_write_torn_at: Some(7),
    }
}

/// What to soak and how hard.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Schedule requests to send (malformed probes ride on top).
    pub requests: usize,
    /// Fault-plan seed for the in-process daemon (and corpus fuzzing).
    pub seed: u64,
    /// Soak an already-running daemon at this address instead of
    /// spawning one in-process. Fault-site assertions are skipped —
    /// the external daemon's plan is not ours to know.
    pub addr: Option<String>,
    /// Queue cap of the in-process daemon; bursts are sized at three
    /// times this so backpressure genuinely fires.
    pub queue_cap: usize,
    /// Send a final `shutdown` request (always sent in-process).
    pub shutdown: bool,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            requests: 200,
            seed: 0x50AC_2008,
            addr: None,
            queue_cap: 16,
            shutdown: true,
        }
    }
}

/// What the soak observed, and every broken invariant it found.
#[derive(Debug, Default)]
pub struct SoakReport {
    /// Request lines sent (including malformed probes and retries).
    pub sent: usize,
    /// Replies received.
    pub answered: usize,
    /// `ok` replies.
    pub ok: usize,
    /// `ok` replies served from the cache.
    pub cached: usize,
    /// `ok` replies that degraded (deadline or budget cut).
    pub degraded: usize,
    /// `overloaded` (shed) replies.
    pub overloaded: usize,
    /// `error` replies.
    pub errors: usize,
    /// Warm-vs-cold byte-identity checks performed.
    pub warm_checked: usize,
    /// Final daemon counters (from the `metrics` verb).
    pub counters: BTreeMap<String, u64>,
    /// Final per-site fault-injection summary (from the `metrics` verb).
    pub faults: BTreeMap<String, u64>,
    /// Every violated invariant, in human-readable form. Empty = pass.
    pub failures: Vec<String>,
}

impl SoakReport {
    /// Did every invariant hold?
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// A terse multi-line summary for the CLI.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "soak: sent {} answered {} (ok {}, cached {}, degraded {}, overloaded {}, errors {}); \
             warm-checked {}\n",
            self.sent,
            self.answered,
            self.ok,
            self.cached,
            self.degraded,
            self.overloaded,
            self.errors,
            self.warm_checked,
        );
        if self.faults.is_empty() {
            s.push_str("faults: (external daemon; not asserted)\n");
        } else {
            let sites: Vec<String> = self
                .faults
                .iter()
                .map(|(site, n)| format!("{site}={n}"))
                .collect();
            s.push_str(&format!("faults: {}\n", sites.join(" ")));
        }
        if self.failures.is_empty() {
            s.push_str("PASS: every request answered; warm replies byte-identical to cold");
        } else {
            for f in &self.failures {
                s.push_str(&format!("FAIL: {f}\n"));
            }
            s.pop();
        }
        s
    }
}

/// What one sent line was, so its reply can be judged.
#[derive(Debug, Clone)]
enum Kind {
    /// A well-formed schedule request for corpus entry `corpus`.
    Schedule { corpus: usize },
    /// A `deadline_ms:0` request: must come back `ok` + degraded.
    Deadline,
    /// A deliberately malformed line: must come back `error`.
    Malformed,
}

struct Corpus {
    /// `(name, ddg_json, ncore)` per unique request body.
    entries: Vec<(String, String, u32)>,
    /// The dedicated deadline-probe body (its `ncore` is unique so it
    /// never collides with a cached entry — degraded results are not
    /// cached, so it must schedule cold and degrade every time).
    deadline_json: String,
}

fn build_corpus(requests: usize, seed: u64) -> Corpus {
    let mut ddgs = vec![tms_workloads::figure1()];
    ddgs.extend(tms_workloads::kernels::all_kernels());
    ddgs.extend(tms_workloads::livermore::livermore_suite());
    let want = (requests / 8).clamp(8, 48);
    if ddgs.len() < want {
        ddgs.extend(fuzz_ddgs(want - ddgs.len(), seed));
    }
    ddgs.truncate(want);
    let entries = ddgs
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let json = serde_json::to_string(d).unwrap_or_default();
            (d.name().to_string(), json, [2u32, 4, 8][i % 3])
        })
        .collect();
    let deadline_json = serde_json::to_string(&tms_workloads::figure1()).unwrap_or_default();
    Corpus {
        entries,
        deadline_json,
    }
}

/// Write `lines` to a fresh connection, read one reply per line.
/// Replies are read concurrently so a large burst can never deadlock
/// on full socket buffers.
fn send_batch(addr: &str, lines: &[String]) -> Result<Vec<String>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| format!("set_read_timeout: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let expected = lines.len();
    let reader = std::thread::spawn(move || {
        let mut replies = Vec::with_capacity(expected);
        let mut r = BufReader::new(stream);
        let mut buf = String::new();
        while replies.len() < expected {
            buf.clear();
            match r.read_line(&mut buf) {
                Ok(0) => break,
                Ok(_) => {
                    let t = buf.trim();
                    if !t.is_empty() {
                        replies.push(t.to_string());
                    }
                }
                Err(_) => break,
            }
        }
        replies
    });
    for line in lines {
        writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .map_err(|e| format!("write: {e}"))?;
    }
    writer.flush().map_err(|e| format!("flush: {e}"))?;
    // Half-close so the daemon's reader sees EOF once it has drained
    // the burst; our reader keeps the receive side open.
    let _ = writer.shutdown(Shutdown::Write);
    reader
        .join()
        .map_err(|_| "client reader panicked".to_string())
}

/// Extract the raw `result` bytes of an `ok` reply — the exact
/// substring the daemon embedded, no re-rendering — so byte-identity
/// means byte-identity.
fn raw_result(reply: &str) -> Option<&str> {
    let idx = reply.find(r#""result":"#)?;
    let body = &reply[idx + r#""result":"#.len()..];
    body.strip_suffix('}')
}

fn reply_flag(v: &Value, name: &str) -> bool {
    v.get(name).and_then(Value::as_bool).unwrap_or(false)
}

/// Judge one reply against what was sent under its id, updating the
/// running tallies and recording any violated invariant.
fn classify(
    reply: &str,
    metas: &BTreeMap<u64, Kind>,
    report: &mut SoakReport,
    answered: &mut BTreeMap<u64, u32>,
    overloaded_ids: &mut Vec<u64>,
    cold_result: &mut BTreeMap<usize, String>,
) {
    report.answered += 1;
    let Ok(v) = serde_json::from_str::<Value>(reply) else {
        report.failures.push(format!(
            "unparseable reply: {}",
            &reply[..reply.len().min(120)]
        ));
        return;
    };
    let id = v.get("id").and_then(Value::as_u64).unwrap_or(0);
    *answered.entry(id).or_insert(0) += 1;
    let status = v.get("status").and_then(Value::as_str).unwrap_or("");
    let kind = metas.get(&id);
    match status {
        "ok" => {
            report.ok += 1;
            if reply_flag(&v, "cached") {
                report.cached += 1;
            }
            let degraded = reply_flag(&v, "degraded");
            if degraded {
                report.degraded += 1;
            }
            match kind {
                Some(Kind::Malformed) => report
                    .failures
                    .push(format!("malformed request {id} was answered ok")),
                Some(Kind::Deadline) if !degraded => report
                    .failures
                    .push(format!("zero-deadline request {id} did not degrade")),
                Some(Kind::Schedule { corpus: i }) if !degraded => {
                    if let Some(raw) = raw_result(reply) {
                        cold_result.entry(*i).or_insert_with(|| raw.to_string());
                    } else {
                        report
                            .failures
                            .push(format!("ok reply {id} carries no result"));
                    }
                }
                _ => {}
            }
        }
        "overloaded" => {
            report.overloaded += 1;
            match kind {
                Some(Kind::Malformed) => report
                    .failures
                    .push(format!("malformed request {id} reached the queue")),
                _ => overloaded_ids.push(id),
            }
        }
        "error" => report.errors += 1,
        other => report
            .failures
            .push(format!("reply {id} has unknown status {other:?}")),
    }
}

/// Run the soak. `Err` is an operational failure (no daemon, dead
/// socket); assertion failures land in the report instead.
pub fn run_soak(cfg: &SoakConfig) -> Result<SoakReport, String> {
    let mut report = SoakReport::default();
    let in_process = cfg.addr.is_none();

    // Spawn the in-process daemon when no address was given.
    let mut cache_path: Option<PathBuf> = None;
    let mut server: Option<std::thread::JoinHandle<Result<(), String>>> = None;
    let addr = match &cfg.addr {
        Some(addr) => addr.clone(),
        None => {
            let path = std::env::temp_dir().join(format!(
                "tmsd-soak-{}-{:x}.cache",
                std::process::id(),
                cfg.seed
            ));
            let _ = std::fs::remove_file(&path);
            let dcfg = DaemonConfig {
                addr: "127.0.0.1:0".to_string(),
                queue_cap: cfg.queue_cap,
                batch_max: 4,
                jobs: Parallelism::Auto,
                cache_path: Some(path.clone()),
                deadline: None,
                plan: FaultPlan::with_rates(cfg.seed, hot_rates()),
            };
            cache_path = Some(path);
            let (tx, rx) = mpsc::channel();
            server = Some(std::thread::spawn(move || {
                serve(&dcfg, Trace::enabled(), move |a| {
                    let _ = tx.send(a);
                })
            }));
            let bound = rx
                .recv_timeout(Duration::from_secs(10))
                .map_err(|_| "in-process daemon never became ready".to_string())?;
            bound.to_string()
        }
    };

    let corpus = build_corpus(cfg.requests, cfg.seed);
    let burst = (cfg.queue_cap * 3).max(4);

    // Phase 1: bursts. Every 16th request is a zero-deadline probe,
    // every 37th a malformed probe.
    let mut next_id = 1u64;
    let mut metas: BTreeMap<u64, Kind> = BTreeMap::new();
    let mut line_of: BTreeMap<u64, String> = BTreeMap::new();
    let mut answered: BTreeMap<u64, u32> = BTreeMap::new();
    let mut cold_result: BTreeMap<usize, String> = BTreeMap::new();
    let mut overloaded_ids: Vec<u64> = Vec::new();

    let make_line = |id: u64, kind: &Kind, corpus: &Corpus| -> String {
        match kind {
            Kind::Schedule { corpus: i } => {
                let (_, json, ncore) = &corpus.entries[*i];
                format!(r#"{{"id":{id},"ddg":{json},"ncore":{ncore}}}"#)
            }
            Kind::Deadline => format!(
                r#"{{"id":{id},"ddg":{},"ncore":3,"deadline_ms":0}}"#,
                corpus.deadline_json
            ),
            Kind::Malformed => format!(r#"{{"id":{id},"verb":"schedule"}}"#),
        }
    };

    let mut pending: Vec<(u64, String)> = Vec::new();
    for n in 0..cfg.requests {
        let kind = if n % 16 == 15 {
            Kind::Deadline
        } else {
            Kind::Schedule {
                corpus: n % corpus.entries.len(),
            }
        };
        let id = next_id;
        next_id += 1;
        let line = make_line(id, &kind, &corpus);
        metas.insert(id, kind);
        line_of.insert(id, line.clone());
        pending.push((id, line));
        if n % 37 == 36 {
            let id = next_id;
            next_id += 1;
            let line = make_line(id, &Kind::Malformed, &corpus);
            metas.insert(id, Kind::Malformed);
            line_of.insert(id, line.clone());
            pending.push((id, line));
        }
    }

    for chunk in pending.chunks(burst) {
        let lines: Vec<String> = chunk.iter().map(|(_, l)| l.clone()).collect();
        report.sent += lines.len();
        let replies = send_batch(&addr, &lines)?;
        for reply in &replies {
            classify(
                reply,
                &metas,
                &mut report,
                &mut answered,
                &mut overloaded_ids,
                &mut cold_result,
            );
        }
    }

    // Every burst id answered exactly once — nothing lost, nothing
    // duplicated.
    for (id, _) in &pending {
        match answered.get(id) {
            Some(1) => {}
            Some(n) => report
                .failures
                .push(format!("request {id} answered {n} times")),
            None => report
                .failures
                .push(format!("request {id} was never answered")),
        }
    }

    // Phase 2: shed requests are retried serially; one at a time they
    // must land.
    let shed_observed = report.overloaded;
    for id in std::mem::take(&mut overloaded_ids) {
        let kind = metas.get(&id).cloned().unwrap_or(Kind::Malformed);
        let mut done = false;
        for _round in 0..5 {
            let rid = next_id;
            next_id += 1;
            metas.insert(rid, kind.clone());
            let line = {
                // Re-issue the original body under the fresh id.
                let orig = line_of.get(&id).cloned().unwrap_or_default();
                let salvaged = salvage_id(&orig);
                orig.replacen(&format!(r#""id":{salvaged}"#), &format!(r#""id":{rid}"#), 1)
            };
            report.sent += 1;
            let replies = send_batch(&addr, std::slice::from_ref(&line))?;
            let was_overloaded = replies
                .first()
                .is_some_and(|r| r.contains(r#""status":"overloaded""#));
            for reply in &replies {
                classify(
                    reply,
                    &metas,
                    &mut report,
                    &mut answered,
                    &mut overloaded_ids,
                    &mut cold_result,
                );
            }
            if !was_overloaded {
                done = true;
                break;
            }
        }
        if !done {
            report
                .failures
                .push(format!("request {id} still shed after 5 serial retries"));
        }
    }

    // Phase 3: warm equals cold, byte for byte.
    for (i, cold) in cold_result.iter().take(12) {
        let rid = next_id;
        next_id += 1;
        let line = make_line(rid, &Kind::Schedule { corpus: *i }, &corpus);
        report.sent += 1;
        let replies = send_batch(&addr, std::slice::from_ref(&line))?;
        let Some(reply) = replies.first() else {
            report
                .failures
                .push(format!("warm request for corpus {i} got no reply"));
            continue;
        };
        report.answered += 1;
        if reply.contains(r#""status":"ok""#) && !reply.contains(r#""degraded":true"#) {
            report.ok += 1;
            if reply.contains(r#""cached":true"#) {
                report.cached += 1;
            }
            match raw_result(reply) {
                Some(raw) if raw == cold => report.warm_checked += 1,
                Some(_) => report.failures.push(format!(
                    "warm result for corpus {i} ({}) differs from cold",
                    corpus.entries[*i].0
                )),
                None => report
                    .failures
                    .push(format!("warm reply for corpus {i} carries no result")),
            }
        } else if reply.contains(r#""status":"error""#) {
            // A once-latched injected panic can land here; the cold
            // result was already proven, so just note the answer.
            report.errors += 1;
        } else {
            report.degraded += reply.contains(r#""degraded":true"#) as usize;
            report.ok += reply.contains(r#""status":"ok""#) as usize;
        }
    }
    if report.warm_checked == 0 && !cold_result.is_empty() {
        report
            .failures
            .push("no warm reply could be byte-checked against a cold result".to_string());
    }

    // Phase 4: the metrics verb — schema-valid, reconciled.
    let mid = next_id;
    next_id += 1;
    report.sent += 1;
    let replies = send_batch(&addr, &[format!(r#"{{"id":{mid},"verb":"metrics"}}"#)])?;
    match replies.first() {
        None => report
            .failures
            .push("metrics request got no reply".to_string()),
        Some(reply) => {
            report.answered += 1;
            let v: Value = serde_json::from_str(reply)
                .map_err(|e| format!("metrics reply is not JSON: {e}"))?;
            let snap = v.get("snapshot").ok_or("metrics reply has no snapshot")?;
            match snapshot_from_value(snap) {
                Err(e) => report
                    .failures
                    .push(format!("metrics snapshot does not round-trip: {e}")),
                Ok(snap) => {
                    let unknown = schema::unknown_metrics(&snap);
                    if !unknown.is_empty() {
                        report
                            .failures
                            .push(format!("metrics outside the schema: {unknown:?}"));
                    }
                    report.counters = snap.counters.clone();
                    if report.degraded > 0
                        && snap.counters.get("tmsd.degraded").copied().unwrap_or(0) == 0
                    {
                        report.failures.push(
                            "degraded replies observed but tmsd.degraded is zero".to_string(),
                        );
                    }
                    if in_process {
                        let shed = snap.counters.get("tmsd.shed").copied().unwrap_or(0);
                        if shed != shed_observed as u64 {
                            report.failures.push(format!(
                                "tmsd.shed={shed} but {shed_observed} overloaded replies observed"
                            ));
                        }
                        if report.degraded == 0 {
                            report
                                .failures
                                .push("no degraded reply observed under hot faults".to_string());
                        }
                        if shed_observed == 0 {
                            report.failures.push(format!(
                                "no shed under {burst}-request bursts against a cap of {}",
                                cfg.queue_cap
                            ));
                        }
                        if let Some(depth) = snap.values.get("tmsd.queue_depth") {
                            if depth.max > cfg.queue_cap as u64 {
                                report.failures.push(format!(
                                    "queue depth reached {} past the cap {}",
                                    depth.max, cfg.queue_cap
                                ));
                            }
                        }
                    }
                }
            }
            if let Some(faults) = v.get("faults").and_then(Value::as_object) {
                for (site, n) in faults {
                    if let Some(n) = n.as_u64() {
                        report.faults.insert(site.clone(), n);
                    }
                }
            }
            if in_process {
                for site in [
                    SITE_DAEMON_ACCEPT,
                    SITE_DAEMON_CACHE_READ,
                    SITE_DAEMON_CACHE_WRITE,
                ] {
                    if report.faults.get(site).copied().unwrap_or(0) == 0 {
                        report
                            .failures
                            .push(format!("fault site {site} never fired during the soak"));
                    }
                }
            }
        }
    }

    // Phase 5: clean shutdown.
    if in_process || cfg.shutdown {
        let sid = next_id;
        report.sent += 1;
        let replies = send_batch(&addr, &[format!(r#"{{"id":{sid},"verb":"shutdown"}}"#)])?;
        match replies.first() {
            Some(r) if r.contains(r#""shutdown":true"#) => report.answered += 1,
            Some(r) => report
                .failures
                .push(format!("shutdown was not acknowledged: {r}")),
            None => report.failures.push("shutdown got no reply".to_string()),
        }
    }
    if let Some(handle) = server {
        match handle.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => report.failures.push(format!("daemon exited with: {e}")),
            Err(_) => report.failures.push("daemon thread panicked".to_string()),
        }
    }
    if let Some(path) = cache_path {
        let _ = std::fs::remove_file(&path);
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small end-to-end soak: in-process daemon, hot faults, every
    /// invariant checked. This is the chaos test the CI job scales up.
    #[test]
    fn small_soak_answers_everything() {
        let cfg = SoakConfig {
            requests: 48,
            queue_cap: 4,
            ..SoakConfig::default()
        };
        let report = run_soak(&cfg).expect("soak must run");
        assert!(
            report.passed(),
            "soak failures:\n{}",
            report.failures.join("\n")
        );
        assert!(report.answered >= report.sent - 1, "replies missing");
        assert!(report.degraded > 0, "deadline probes must degrade");
    }
}
