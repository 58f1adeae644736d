//! `tmsd-warm` and `tmsd-cold`: an in-process `tms_daemon::serve` on
//! `127.0.0.1:0`, configured as `tmsd serve` ships it (trace enabled,
//! default queue, batch and worker settings), driven by one client
//! over one TCP connection in a closed loop.
//!
//! * `tmsd-warm` primes a seeded corpus in set-up, then replays it in a
//!   seeded order: every timed op is a cache hit.
//! * `tmsd-cold` adds a persisted cache file and sends a loop the
//!   daemon has never seen on every op, so each op runs the TMS search
//!   and appends one cache line. Its op count is fixed by `--seconds`
//!   at a nominal rate rather than by the clock: the daemon's trace
//!   keeps every cold op's spans, so a duration-bound run would make
//!   `peak_rss_mb` follow throughput.

use crate::pipeline::{shuffle, specfp_ops};
use crate::stats::{self, LayerTimes, Outcome, Span, SpanLog};
use crate::Args;
use serde_json::Value;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tms_bench::runner::speedup_pct;
use tms_bench::ExperimentConfig;
use tms_core::{schedule_sms, schedule_tms, CostModel, Schedule, TmsConfig};
use tms_daemon::proto::reply_ok;
use tms_daemon::{cache_key, parse_request, serve, DaemonConfig, Engine, Request, ScheduleCache};
use tms_ddg::Ddg;
use tms_machine::{ArchParams, MachineModel};
use tms_sim::simulate_spmt;
use tms_trace::Trace;

/// Which tmsd workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Primed corpus, every op a cache hit.
    Warm,
    /// Persisted cache, every op a loop the daemon has not seen.
    Cold,
}

/// Specfp loops drawn into the warm corpus, beside the hand-written
/// kernels and the Livermore suite.
const SPECFP_DRAW: usize = 10;
/// Core counts every warm corpus loop is requested at.
const NCORES: [u32; 3] = [2, 4, 8];
/// Cold ops per `--seconds`: today's closed-loop cold rate is about
/// 20 ops/s, held up by the transport stall, so the timed phase lasts
/// roughly `--seconds`.
const COLD_OPS_PER_S: u64 = 18;
/// Repetitions of the set-up whose median is `setup_s`. Warm set-up
/// primes the whole corpus, so it repeats fewer times.
const SETUPS_WARM: usize = 3;
const SETUPS_COLD: usize = 5;

/// One schedule request of the workload.
struct Req {
    ddg: Ddg,
    ncore: u32,
    /// The request line, newline included.
    line: String,
}

fn request(id: usize, ddg: Ddg, ncore: u32) -> Result<Req, String> {
    let json = serde_json::to_string(&ddg).map_err(|e| format!("serialise {}: {e}", ddg.name()))?;
    let line = format!("{{\"id\":{id},\"verb\":\"schedule\",\"ddg\":{json},\"ncore\":{ncore}}}\n");
    Ok(Req { ddg, ncore, line })
}

/// The workload's distinct requests. Like the pipeline's population
/// they do not vary with `--seed`, which orders them (see `README.md`).
fn corpus(mode: Mode, tiny: bool, seconds: u64) -> Result<Vec<Req>, String> {
    let ddgs: Vec<(Ddg, u32)> = match mode {
        Mode::Warm => {
            let mut ddgs = tms_workloads::kernels::all_kernels();
            if !tiny {
                ddgs.extend(tms_workloads::livermore_suite());
            }
            // A fixed draw from Fig. 4's population without lucas: one
            // lucas loop's cold schedule at three core counts takes
            // seconds and tens of MB, and would turn set-up time and
            // peak RSS into a measure of the TMS search.
            let fig4_seed = ExperimentConfig::default().seed;
            ddgs.extend(
                specfp_ops(fig4_seed)
                    .into_iter()
                    .filter(|d| !d.name().starts_with("lucas#"))
                    .take(if tiny { 1 } else { SPECFP_DRAW }),
            );
            ddgs.into_iter()
                .flat_map(|d| NCORES.map(|n| (d.clone(), n)))
                .collect()
        }
        Mode::Cold => {
            // The fuzz population `tms-verify` sweeps by default.
            let n = if tiny { 6 } else { seconds * COLD_OPS_PER_S };
            tms_verify::fuzz_ddgs(n as usize, tms_verify::SweepConfig::default().seed)
                .into_iter()
                .map(|d| (d, 4))
                .collect()
        }
    };
    ddgs.into_iter()
        .enumerate()
        .map(|(i, (d, n))| request(i, d, n))
        .collect()
}

/// One closed-loop client connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // The client sends each request in one write, so its own Nagle
        // timer never holds a request back: any stall is the daemon's.
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("read timeout: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Send one newline-terminated line and wait for the reply line.
    fn call(&mut self, line: &str, reply: &mut String) -> Result<(), String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        reply.clear();
        match self.reader.read_line(reply) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// The daemon's counters, through the `metrics` verb.
    fn counters(&mut self) -> Result<BTreeMap<String, u64>, String> {
        let mut reply = String::new();
        self.call("{\"id\":0,\"verb\":\"metrics\"}\n", &mut reply)?;
        let v: Value = serde_json::from_str(&reply).map_err(|e| format!("metrics reply: {e}"))?;
        let counters = v
            .get("snapshot")
            .and_then(|s| s.get("counters"))
            .and_then(Value::as_object)
            .ok_or("metrics reply has no counters")?;
        Ok(counters
            .iter()
            .map(|(k, n)| (k.clone(), n.as_u64().unwrap_or(0)))
            .collect())
    }
}

/// An in-process daemon.
struct Daemon {
    addr: SocketAddr,
    trace: Trace,
    thread: JoinHandle<Result<(), String>>,
    cache_dir: Option<PathBuf>,
}

impl Daemon {
    fn start(mode: Mode, tag: usize) -> Result<Daemon, String> {
        let cache_dir = (mode == Mode::Cold)
            .then(|| crate::out_dir().join(format!("tmsd-cold-{}-{tag}", std::process::id())));
        if let Some(dir) = &cache_dir {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let cfg = daemon_config(cache_dir.as_ref().map(|d| d.join("cache.ndjson")));
        let trace = Trace::enabled();
        let (tx, rx) = mpsc::channel();
        let daemon_trace = trace.clone();
        let thread = std::thread::spawn(move || {
            serve(&cfg, daemon_trace, move |addr| {
                let _ = tx.send(addr);
            })
        });
        match rx.recv() {
            Ok(addr) => Ok(Daemon {
                addr,
                trace,
                thread,
                cache_dir,
            }),
            Err(_) => Err(match thread.join() {
                Ok(Err(e)) => e,
                _ => "daemon exited before listening".into(),
            }),
        }
    }

    fn cache_file(&self) -> Option<PathBuf> {
        self.cache_dir.as_ref().map(|d| d.join("cache.ndjson"))
    }

    /// Shut the daemon down and wait for it. The workload's own
    /// connection must be closed first, or the daemon waits for it.
    fn stop(self) -> Result<(), String> {
        let mut c = Client::connect(self.addr)?;
        let mut reply = String::new();
        c.call("{\"id\":0,\"verb\":\"shutdown\"}\n", &mut reply)?;
        drop(c);
        let served = self
            .thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?;
        if let Some(dir) = &self.cache_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        served
    }
}

/// `tmsd serve`'s configuration: the library defaults plus `--cache`
/// on the cold workload.
fn daemon_config(cache_path: Option<PathBuf>) -> DaemonConfig {
    DaemonConfig {
        cache_path,
        ..DaemonConfig::default()
    }
}

fn hash_line(line: &str) -> u64 {
    let mut h = DefaultHasher::new();
    line.trim_end().hash(&mut h);
    h.finish()
}

/// The raw `result` bytes an `ok` reply embeds.
fn raw_result(reply: &str) -> Option<&str> {
    let idx = reply.find("\"result\":")?;
    reply.trim_end()[idx + "\"result\":".len()..].strip_suffix('}')
}

/// A set-up: daemon up, client connected, and on the warm workload
/// every corpus request sent once, its reply kept as the expected one.
struct Ready {
    daemon: Daemon,
    client: Client,
    primed: Vec<String>,
}

fn set_up(mode: Mode, reqs: &[Req], tag: usize) -> Result<Ready, String> {
    let daemon = Daemon::start(mode, tag)?;
    let mut client = Client::connect(daemon.addr)?;
    let mut primed = Vec::new();
    if mode == Mode::Warm {
        for r in reqs {
            let mut reply = String::new();
            client.call(&r.line, &mut reply)?;
            primed.push(reply);
        }
    }
    Ok(Ready {
        daemon,
        client,
        primed,
    })
}

/// One TCP pass: per op, the corpus entry sent, the round trip and
/// what came back.
#[derive(Default)]
struct Pass {
    sent: Vec<usize>,
    rtt_ms: Vec<f64>,
    reply_hash: Vec<u64>,
    reply_bytes: Vec<usize>,
    self_ms: Vec<f64>,
    wall: Duration,
}

/// Run the closed loop: `order` gives the corpus entry of each op and
/// is cycled until `stop` says the pass is over.
fn tcp_pass(
    client: &mut Client,
    reqs: &[Req],
    order: &[usize],
    stop: impl Fn(usize, Duration) -> bool,
    log: Option<&SpanLog>,
) -> Result<Pass, String> {
    let mut p = Pass::default();
    let mut reply = String::new();
    let start = Instant::now();
    while !stop(p.sent.len(), start.elapsed()) {
        let i = p.sent.len();
        let entry = order[i % order.len()];
        let t0 = Instant::now();
        let (res, rtt) = Span::of("daemon.round_trip", || {
            client.call(&reqs[entry].line, &mut reply)
        });
        res?;
        p.reply_hash.push(hash_line(&reply));
        let op = Span {
            layer: "op",
            start: t0,
            dur: t0.elapsed(),
        };
        if let Some(log) = log {
            p.self_ms.push(stats::ms(log.op(i as u64, &op, &[rtt])));
        }
        p.rtt_ms.push(stats::ms(rtt.dur));
        p.reply_bytes.push(reply.trim_end().len());
        p.sent.push(entry);
    }
    p.wall = start.elapsed();
    Ok(p)
}

/// The in-process replay of a pass's ops against a separately built
/// engine: the engine's reply to each op, and in the traced run the
/// time of each layer call.
struct Replay {
    /// The engine's reply line, per op.
    reply: Vec<String>,
    layers: LayerTimes,
    /// Per op: `parse_request` + `Engine::process`.
    daemon_ms: Vec<f64>,
}

fn parse_schedule(line: &str) -> Result<Box<tms_daemon::ScheduleRequest>, String> {
    match parse_request(line.trim_end())? {
        Request::Schedule(r) => Ok(r),
        _ => Err("not a schedule request".into()),
    }
}

/// Replay the corpus entries `sent` in-process, in order. On the cold
/// workload the engine persists into its own cache file, like the
/// daemon. `parse_request` computes the cache key itself, so the
/// separately timed `cache_key` call is part of parse, not added to it.
fn replay(
    mode: Mode,
    reqs: &[Req],
    sent: &[usize],
    traced: Option<&SpanLog>,
) -> Result<Replay, String> {
    let dir = crate::out_dir().join(format!("replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let cfg = daemon_config((mode == Mode::Cold).then(|| dir.join("engine.ndjson")));
    let trace = if traced.is_some() {
        Trace::enabled()
    } else {
        Trace::disabled()
    };
    let engine = Engine::new(&cfg, trace);
    let (mut insert_cache, _) = ScheduleCache::open(&dir.join("insert.ndjson"), Default::default());
    let mut out = Replay {
        reply: Vec::new(),
        layers: LayerTimes::default(),
        daemon_ms: Vec::new(),
    };
    if mode == Mode::Warm {
        // The daemon's cache was primed in set-up; prime this engine's.
        for r in reqs {
            engine.process(&*parse_schedule(&r.line)?);
        }
    }
    for (i, &entry) in sent.iter().enumerate() {
        let r = &reqs[entry];
        let mut spans = Vec::new();
        let Some(log) = traced else {
            out.reply.push(engine.process(&*parse_schedule(&r.line)?));
            continue;
        };
        let (req, parse) = Span::of("daemon.proto.parse", || parse_schedule(&r.line));
        let req = req?;
        let (key, key_span) = Span::of("daemon.proto.key", || {
            cache_key(&req.ddg, &req.machine, req.ncore, &req.knobs)
        });
        if key != req.key {
            return Err(format!("op {i}: cache_key disagrees with parse_request"));
        }
        let (reply, process) = Span::of("daemon.engine", || engine.process(&req));
        out.daemon_ms
            .push(stats::ms(parse.dur) + stats::ms(process.dur));
        spans.extend([parse, key_span, process]);
        if mode == Mode::Cold {
            let result = raw_result(&reply).ok_or("cold reply carries no result")?;
            let (_, s) = Span::of("daemon.cache.insert", || insert_cache.insert(key, result));
            spans.push(s);
            let model = CostModel::new(ArchParams::with_ncore(r.ncore).costs, r.ncore);
            let cfg = TmsConfig::default();
            let (_, s) = Span::of("core.tms", || {
                schedule_tms(&r.ddg, &MachineModel::icpp2008(), &model, &cfg)
            });
            spans.push(s);
        }
        log.children(i as u64, &spans);
        out.layers.add(&spans);
        out.reply.push(reply);
    }
    drop(insert_cache);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

/// Check every op of a TCP pass against its expected reply line.
fn check_pass(pass: &Pass, expected: &[u64], what: &str, out: &mut Outcome) {
    for (i, (&entry, &got)) in pass.sent.iter().zip(&pass.reply_hash).enumerate() {
        if got != expected[entry] {
            out.fail(format!(
                "{what} op {i} (entry {entry}): reply differs from the expected bytes"
            ));
        }
    }
}

/// Check a reply's flags and kernel, and return the kernel.
fn check_reply(reply: &str, req: &Req, cached: bool) -> Result<Schedule, String> {
    let v: Value = serde_json::from_str(reply).map_err(|e| format!("unparseable reply: {e}"))?;
    let flag = |k: &str| v.get(k).and_then(Value::as_bool);
    if v.get("status").and_then(Value::as_str) != Some("ok") {
        return Err(format!(
            "status is not ok: {}",
            &reply[..reply.len().min(160)]
        ));
    }
    if flag("cached") != Some(cached) || flag("degraded") != Some(false) {
        return Err(format!("expected cached={cached}, not degraded"));
    }
    let kernel = v
        .get("result")
        .and_then(|r| r.get("kernel"))
        .ok_or("reply has no kernel")?;
    let schedule: Schedule =
        serde_json::from_value(kernel).map_err(|e| format!("kernel does not deserialise: {e}"))?;
    if let Some(e) = schedule.check_legal(&req.ddg) {
        return Err(format!("kernel breaks edge {:?}", e));
    }
    Ok(schedule)
}

/// Cycle-weighted simulated speedup of the served TMS kernels over SMS,
/// each simulated at its request's core count and Fig. 4's settings.
fn served_speedup(served: &[(&Req, Schedule)]) -> Result<f64, String> {
    let (mut sms_cycles, mut tms_cycles) = (0, 0);
    for (r, tms) in served {
        let cfg = ExperimentConfig {
            ncore: r.ncore,
            ..ExperimentConfig::default()
        };
        let sms = schedule_sms(&r.ddg, &cfg.machine())
            .map_err(|e| format!("{}: SMS: {e:?}", r.ddg.name()))?;
        sms_cycles += simulate_spmt(&r.ddg, &sms.schedule, &cfg.sim())
            .stats
            .total_cycles;
        tms_cycles += simulate_spmt(&r.ddg, tms, &cfg.sim()).stats.total_cycles;
    }
    Ok(speedup_pct(sms_cycles, tms_cycles))
}

fn delta(after: &BTreeMap<String, u64>, before: &BTreeMap<String, u64>, k: &str) -> f64 {
    (after.get(k).copied().unwrap_or(0) - before.get(k).copied().unwrap_or(0)) as f64
}

/// Run the workload.
pub fn run(args: &Args, mode: Mode) -> Result<Outcome, String> {
    let setups = match (args.tiny, mode) {
        (true, _) => 2,
        (false, Mode::Warm) => SETUPS_WARM,
        (false, Mode::Cold) => SETUPS_COLD,
    };
    let mut setup_s = Vec::new();
    let mut ready = None;
    let mut reqs = Vec::new();
    for i in 0..setups {
        let t0 = if i == 0 { args.started } else { Instant::now() };
        reqs = corpus(mode, args.tiny, args.seconds)?;
        let r = set_up(mode, &reqs, i)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if let Some(Ready { daemon, client, .. }) = ready.replace(r) {
            drop(client);
            daemon.stop()?;
        }
    }
    let Ready {
        daemon,
        mut client,
        primed,
    } = ready.expect("at least one set-up");

    let mut order: Vec<usize> = (0..reqs.len()).collect();
    shuffle(&mut order, args.seed);
    let seconds = Duration::from_secs(args.seconds);
    let n_cold = reqs.len();
    let plain = match mode {
        Mode::Warm => tcp_pass(&mut client, &reqs, &order, |_, t| t >= seconds, None)?,
        Mode::Cold => tcp_pass(&mut client, &reqs, &order, |i, _| i >= n_cold, None)?,
    };
    drop(client);
    daemon.stop()?;
    let n = plain.sent.len();
    let mut out = Outcome {
        attempted: n,
        ..Outcome::default()
    };

    // Expected reply line per corpus entry: the priming reply replayed
    // as a hit (warm), or the in-process engine's reply (cold).
    let expected_lines: Vec<String> = match mode {
        Mode::Warm => primed
            .iter()
            .enumerate()
            .map(|(i, p)| {
                raw_result(p)
                    .map(|res| reply_ok(i as u64, true, None, res))
                    .unwrap_or_default()
            })
            .collect(),
        Mode::Cold => {
            // Each entry is sent once; file the replies by entry.
            let replies = replay(mode, &reqs, &plain.sent, None)?.reply;
            let mut by_entry = vec![String::new(); reqs.len()];
            for (&entry, reply) in plain.sent.iter().zip(replies) {
                by_entry[entry] = reply;
            }
            by_entry
        }
    };
    let mut served = Vec::new();
    for (i, r) in reqs.iter().enumerate() {
        let reply = if mode == Mode::Warm {
            &primed[i]
        } else {
            &expected_lines[i]
        };
        match check_reply(reply, r, false) {
            Ok(kernel) => served.push((r, kernel)),
            Err(e) => out.fail(format!("entry {i} ({}): {e}", r.ddg.name())),
        }
    }
    let expected: Vec<u64> = expected_lines.iter().map(|l| hash_line(l)).collect();
    check_pass(&plain, &expected, "timed", &mut out);
    out.notes.push(format!(
        "{}: {n} ops over one connection in {:.2} s, {} distinct requests; \
         op_ms percentiles over {n} samples",
        args.workload,
        plain.wall.as_secs_f64(),
        reqs.len()
    ));

    if !args.trace {
        out.set("setup_s", stats::median(&setup_s));
        out.set("ops_per_s", n as f64 / plain.wall.as_secs_f64());
        out.set("op_ms_p50", stats::percentile(&plain.rtt_ms, 50.0));
        out.set("op_ms_p90", stats::percentile(&plain.rtt_ms, 90.0));
        out.set("peak_rss_mb", stats::peak_rss_mb()?);
        out.set("sim_speedup_pct", served_speedup(&served)?);
        return Ok(out);
    }

    // The traced run: a fresh daemon, the same ops with the
    // benchmark's spans on, then the in-process replay that splits
    // each round trip into transport and daemon work.
    let log = SpanLog::new();
    let Ready {
        daemon, mut client, ..
    } = set_up(mode, &reqs, setups)?;
    let before = client.counters()?;
    let retained_before = daemon.trace.chrome_json().len();
    let traced = tcp_pass(&mut client, &reqs, &plain.sent, |i, _| i >= n, Some(&log))?;
    let retained_after = daemon.trace.chrome_json().len();
    let after = client.counters()?;
    let file_kb = daemon
        .cache_file()
        .and_then(|f| std::fs::metadata(f).ok())
        .map_or(0.0, |m| m.len() as f64 / 1024.0);
    drop(client);
    daemon.stop()?;
    check_pass(&traced, &expected, "traced", &mut out);
    let rep = replay(mode, &reqs, &plain.sent, Some(&log))?;
    for (i, (&entry, line)) in plain.sent.iter().zip(&rep.reply).enumerate() {
        if hash_line(line) != expected[entry] {
            out.fail(format!(
                "replay op {i}: in-process reply differs from the daemon's"
            ));
        }
    }
    log.write(&crate::trace_path(&args.workload, args.seed))?;

    let transport: Vec<f64> = traced
        .rtt_ms
        .iter()
        .zip(&rep.daemon_ms)
        .map(|(rtt, d)| rtt - d)
        .collect();
    let engine = rep.layers.samples("daemon.engine");
    let schedule_requests = delta(&after, &before, "tmsd.requests") - 1.0;
    out.set("daemon.transport_ms_p50", stats::median(&transport));
    out.set(
        "daemon.proto.parse_ms_p50",
        stats::median(rep.layers.samples("daemon.proto.parse")),
    );
    out.set(
        "daemon.proto.key_ms_p50",
        stats::median(rep.layers.samples("daemon.proto.key")),
    );
    let sizes =
        |v: &[usize]| stats::mean(&v.iter().map(|&b| b as f64 / 1024.0).collect::<Vec<_>>());
    let req_bytes: Vec<usize> = traced
        .sent
        .iter()
        .map(|&e| reqs[e].line.len() - 1)
        .collect();
    out.set("daemon.request_kb_mean", sizes(&req_bytes));
    out.set("daemon.reply_kb_mean", sizes(&traced.reply_bytes));
    out.set(
        "daemon.cache.hit_ratio",
        stats::ratio(delta(&after, &before, "tmsd.cache.hit"), schedule_requests),
    );
    out.set(
        "daemon.failed",
        ["tmsd.errors", "tmsd.shed", "tmsd.degraded"]
            .iter()
            .map(|k| after.get(*k).copied().unwrap_or(0) as f64)
            .sum(),
    );
    out.set("bench.self_ms_p50", stats::median(&traced.self_ms));
    out.set(
        "trace.overhead_pct",
        (traced.wall.as_secs_f64() / plain.wall.as_secs_f64() - 1.0) * 100.0,
    );
    match mode {
        Mode::Warm => out.set("daemon.engine.hit_ms_p50", stats::median(engine)),
        Mode::Cold => {
            out.set("daemon.engine.miss_ms_p50", stats::median(engine));
            out.set("daemon.engine.miss_ms_p90", stats::percentile(engine, 90.0));
            out.set("core.tms.busy_s", rep.layers.busy_s("core.tms"));
            out.set(
                "core.tms.loop_ms_p50",
                stats::median(rep.layers.samples("core.tms")),
            );
            out.set("core.tms.attempts", delta(&after, &before, "tms.attempts"));
            out.set(
                "daemon.cache.insert_ms_p50",
                stats::median(rep.layers.samples("daemon.cache.insert")),
            );
            out.set("daemon.cache.file_kb", file_kb);
        }
    }
    out.set(
        "trace.retained_kb_per_op",
        (retained_after as f64 - retained_before as f64) / 1024.0 / n as f64,
    );
    let sum_s = |v: &[f64]| v.iter().sum::<f64>() / 1e3;
    out.notes.push(format!(
        "accounting over {n} traced ops: op {:.3} s = transport {:.3} + parse {:.3} \
         + engine {:.3} + bench self {:.3}",
        sum_s(&traced.rtt_ms) + sum_s(&traced.self_ms),
        sum_s(&transport),
        rep.layers.busy_s("daemon.proto.parse"),
        rep.layers.busy_s("daemon.engine"),
        sum_s(&traced.self_ms),
    ));
    Ok(out)
}
