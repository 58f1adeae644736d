//! `tmsd` integration tests: the golden cache-key pin, the warm-equals-
//! cold byte-identity property, torn-cache-file recovery through a
//! daemon restart, and end-to-end TCP exchanges, including split and
//! over-long request lines.

use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tms_daemon::proto::{cache_key, key_hex, parse_request, Knobs, Request};
use tms_daemon::server::MAX_LINE_BYTES;
use tms_daemon::{serve, DaemonConfig, Engine};
use tms_faults::FaultPlan;
use tms_machine::MachineModel;
use tms_trace::Trace;
use tms_verify::fuzz::fuzz_ddgs;
use tms_workloads::figure1;

fn schedule_line(id: u64, ddg: &tms_ddg::Ddg, ncore: u32) -> String {
    let json = serde_json::to_string(ddg).unwrap();
    format!(r#"{{"id":{id},"ddg":{json},"ncore":{ncore}}}"#)
}

fn parse_schedule(line: &str) -> Box<tms_daemon::ScheduleRequest> {
    match parse_request(line).expect("request must parse") {
        Request::Schedule(r) => r,
        other => panic!("expected a schedule request, got {other:?}"),
    }
}

/// The raw embedded result bytes of an `ok` reply.
fn raw_result(reply: &str) -> &str {
    let idx = reply
        .find(r#""result":"#)
        .expect("ok reply carries a result");
    reply[idx + r#""result":"#.len()..]
        .strip_suffix('}')
        .unwrap()
}

/// Satellite: the cache key is **pinned**. If this constant moves, every
/// persisted schedule cache on disk silently goes cold on upgrade —
/// that is the intended failure mode, but it must be a *decision*
/// (update the constant here and say so in the changelog), never an
/// accident of refactoring the canonical serialisation, the hash, or
/// the seed.
#[test]
fn golden_cache_key_is_stable_across_runs() {
    let key = |line: &str| key_hex(parse_schedule(line).key);
    let line = schedule_line(1, &figure1(), 4);
    assert_eq!(key(&line), "204a9c9b349dfacf", "pinned cache key moved");
    // Same inputs, different process run: recompute from scratch.
    assert_eq!(
        key_hex(cache_key(
            &figure1(),
            &MachineModel::icpp2008(),
            4,
            &Knobs::default()
        )),
        "204a9c9b349dfacf"
    );
}

/// Every keyed field changes the key; the request id (and deadline,
/// covered in the proto unit tests) does not.
#[test]
fn every_keyed_field_perturbs_the_cache_key() {
    let base = parse_schedule(&schedule_line(1, &figure1(), 4)).key;
    let ddg_json = serde_json::to_string(&figure1()).unwrap();

    // id is correlation metadata, not content.
    assert_eq!(parse_schedule(&schedule_line(99, &figure1(), 4)).key, base);

    let mut keys = vec![base];
    // ncore.
    keys.push(parse_schedule(&schedule_line(1, &figure1(), 8)).key);
    // machine model.
    let scalar = serde_json::to_string(&MachineModel::scalar()).unwrap();
    keys.push(
        parse_schedule(&format!(
            r#"{{"id":1,"ddg":{ddg_json},"ncore":4,"machine":{scalar}}}"#
        ))
        .key,
    );
    // the DDG itself.
    let mut other = fuzz_ddgs(1, 7);
    keys.push(parse_schedule(&schedule_line(1, &other.remove(0), 4)).key);
    // each knob.
    for knob in [
        r#""p_max_values":[0.05]"#,
        r#""ii_max":32"#,
        r#""c_delay_max":9"#,
        r#""dense_candidates":true"#,
        r#""max_extra_stages":3"#,
        r#""adaptive":true"#,
    ] {
        keys.push(
            parse_schedule(&format!(
                r#"{{"id":1,"ddg":{ddg_json},"ncore":4,"knobs":{{{knob}}}}}"#
            ))
            .key,
        );
    }
    for (i, a) in keys.iter().enumerate() {
        for (j, b) in keys.iter().enumerate().skip(i + 1) {
            assert_ne!(a, b, "variants {i} and {j} collided on {}", key_hex(*a));
        }
    }
}

/// Satellite property test: over fuzzed DDGs, a cache hit replays the
/// cold result byte-for-byte, and the only reply-level difference is
/// the `cached` flag.
#[test]
fn warm_replies_are_byte_identical_to_cold_over_fuzzed_ddgs() {
    let engine = Engine::new(&DaemonConfig::default(), Trace::enabled());
    for (i, ddg) in fuzz_ddgs(10, 0xDDB6).into_iter().enumerate() {
        let req = parse_schedule(&schedule_line(i as u64, &ddg, [2, 4, 8][i % 3]));
        let cold = engine.process(&req);
        let warm = engine.process(&req);
        if cold.contains(r#""status":"error""#) {
            // Unschedulable fuzz draw: both passes must agree.
            assert_eq!(cold, warm, "{}: errors must be deterministic", ddg.name());
            continue;
        }
        assert_eq!(
            raw_result(&cold),
            raw_result(&warm),
            "{}: warm result bytes differ from cold",
            ddg.name()
        );
        assert!(cold.contains(r#""cached":false"#), "{cold}");
        assert!(warm.contains(r#""cached":true"#), "{warm}");
        assert_eq!(
            cold.replacen(r#""cached":false"#, r#""cached":true"#, 1),
            warm,
            "{}: replies may differ only in the cached flag",
            ddg.name()
        );
    }
    let snap = engine.trace.metrics();
    assert_eq!(snap.counters.get("tmsd.cache.bypassed"), None);
}

/// Satellite: tear the persisted cache mid-line, restart the daemon
/// engine, and the valid prefix is recovered while the torn tail is
/// dropped and rescheduled cold — with the same bytes.
#[test]
fn torn_cache_file_recovers_valid_prefix_on_restart() {
    let dir = std::env::temp_dir().join("tmsd_torn_cache_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("schedules.ndjson");
    let _ = std::fs::remove_file(&path);

    let cfg = DaemonConfig {
        cache_path: Some(path.clone()),
        ..DaemonConfig::default()
    };
    let ddgs = fuzz_ddgs(3, 0x70A2);
    let reqs: Vec<_> = ddgs
        .iter()
        .enumerate()
        .map(|(i, d)| parse_schedule(&schedule_line(i as u64, d, 4)))
        .collect();

    let mut cold = Vec::new();
    {
        let engine = Engine::new(&cfg, Trace::enabled());
        for req in &reqs {
            cold.push(engine.process(req));
        }
        assert_eq!(engine.cache_len(), reqs.len());
    }

    // Tear the final persisted line mid-entry, as a crash mid-write
    // would.
    let bytes = std::fs::read(&path).unwrap();
    assert!(bytes.ends_with(b"\n"));
    std::fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();

    let engine = Engine::new(&cfg, Trace::enabled());
    assert_eq!(
        engine.cache_len(),
        reqs.len() - 1,
        "valid prefix recovered, torn tail dropped"
    );
    for (req, cold_reply) in reqs.iter().zip(&cold) {
        let warm = engine.process(req);
        assert_eq!(
            raw_result(&warm),
            raw_result(cold_reply),
            "{}: post-recovery result differs",
            req.ddg.name()
        );
    }
    // The torn entry came back cold (a miss), the survivors warm.
    let snap = engine.trace.metrics();
    assert_eq!(
        snap.counters.get("tmsd.cache.hit"),
        Some(&(reqs.len() as u64 - 1))
    );
    assert_eq!(snap.counters.get("tmsd.cache.miss"), Some(&1));
    let _ = std::fs::remove_file(&path);
}

/// A daemon on an ephemeral port, with its address and its `serve`
/// thread.
fn start_daemon() -> (SocketAddr, JoinHandle<Result<(), String>>) {
    let (tx, rx) = mpsc::channel();
    let server = std::thread::spawn(move || {
        serve(&DaemonConfig::default(), Trace::enabled(), move |addr| {
            let _ = tx.send(addr);
        })
    });
    let addr = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("daemon ready");
    (addr, server)
}

/// Read one reply line from `reader` as JSON.
fn read_reply(reader: &mut impl BufRead) -> Value {
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("a reply line");
    serde_json::from_str(reply.trim()).expect("reply must be JSON")
}

/// End to end over TCP: schedule, malformed line, metrics, shutdown —
/// one daemon on an ephemeral port, every reply structured, clean exit.
#[test]
fn daemon_answers_over_tcp_and_shuts_down_cleanly() {
    let (addr, server) = start_daemon();
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut ask = |line: &str| -> Value {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        read_reply(&mut reader)
    };

    let v = ask(&schedule_line(7, &figure1(), 4));
    assert_eq!(v.get("id").and_then(Value::as_u64), Some(7));
    assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
    assert!(v.get("result").is_some());

    let v = ask(r#"{"id":8,"verb":"schedule"}"#);
    assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));

    let v = ask(r#"{"id":9,"verb":"metrics"}"#);
    assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
    let snap = v.get("snapshot").expect("metrics reply carries a snapshot");
    let snap = tms_trace::MetricsSnapshot::from_json(&serde_json::to_string(snap).unwrap())
        .expect("snapshot must round-trip");
    assert!(tms_trace::schema::unknown_metrics(&snap).is_empty());
    assert_eq!(snap.counters.get("tmsd.requests"), Some(&3));
    assert_eq!(snap.counters.get("tmsd.errors"), Some(&1));

    let v = ask(r#"{"id":10,"verb":"shutdown"}"#);
    assert_eq!(v.get("shutdown").and_then(Value::as_bool), Some(true));
    server
        .join()
        .expect("daemon thread must not panic")
        .expect("daemon must exit cleanly");
}

/// A client that pipelines requests and never reads a reply must not
/// wedge the daemon: once its replies back up past the write timeout
/// the daemon gives the connection up, so `serve` returns promptly
/// after another client's acknowledged `shutdown` even while the
/// stalled client is still connected.
#[test]
fn non_reading_client_cannot_block_shutdown() {
    let (ready_tx, ready_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel();
    // `serve` reports its return over `done_tx`, so a wedged daemon
    // fails the timed wait below instead of hanging a join.
    let server = std::thread::spawn(move || {
        let out = serve(&DaemonConfig::default(), Trace::disabled(), move |addr| {
            let _ = ready_tx.send(addr);
        });
        let _ = done_tx.send(());
        out
    });
    let addr = ready_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("daemon ready");

    // Client A writes until its own writes stall (the daemon stopped
    // reading) or fail (the daemon gave the connection up).
    let silent = TcpStream::connect(addr).unwrap();
    silent
        .set_write_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let line = format!("{}\n", schedule_line(1, &figure1(), 4));
    let started = Instant::now();
    while (&silent).write_all(line.as_bytes()).is_ok() {
        assert!(
            started.elapsed() < Duration::from_secs(120),
            "a client that never reads never filled the daemon's buffers"
        );
    }

    // Client B's shutdown is acknowledged...
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    (&stream)
        .write_all(b"{\"id\":2,\"verb\":\"shutdown\"}\n")
        .unwrap();
    let mut reply = String::new();
    BufReader::new(&stream).read_line(&mut reply).unwrap();
    let v: Value = serde_json::from_str(reply.trim()).expect("reply must be JSON");
    assert_eq!(v.get("shutdown").and_then(Value::as_bool), Some(true));
    // ...and `serve` returns while client A is still connected.
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("serve did not return within 10 s of an acknowledged shutdown");
    server
        .join()
        .expect("daemon thread must not panic")
        .expect("daemon must exit cleanly");
    drop(silent);
}

/// A request line that arrives in pieces more than one read-timeout
/// tick (250 ms) apart is answered whole, also when the split falls
/// inside a multi-byte character.
#[test]
fn request_split_across_idle_ticks_is_answered_whole() {
    let (addr, server) = start_daemon();
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let lines = [
        r#"{"id":5,"verb":"metrics"}"#.to_string(),
        "{\"id\":6,\"verb\":\"metrics\",\"note\":\"\u{e9}\"}".to_string(),
    ];
    for (line, (want_id, split)) in lines.iter().zip([(5, 5), (6, 34)]) {
        let bytes = format!("{line}\n").into_bytes();
        (&stream).write_all(&bytes[..split]).unwrap();
        std::thread::sleep(Duration::from_millis(600));
        (&stream).write_all(&bytes[split..]).unwrap();
        let v = read_reply(&mut reader);
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(want_id), "{v:?}");
        assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"), "{v:?}");
    }
    (&stream)
        .write_all(b"{\"id\":7,\"verb\":\"shutdown\"}\n")
        .unwrap();
    let v = read_reply(&mut reader);
    assert_eq!(v.get("shutdown").and_then(Value::as_bool), Some(true));
    server
        .join()
        .expect("daemon thread must not panic")
        .expect("daemon must exit cleanly");
}

/// A client that sends more than `MAX_LINE_BYTES` without a newline
/// gets an `error` reply naming the cap and then EOF; the daemon counts
/// the error and goes on serving other clients. A line that is not
/// UTF-8 is refused too, but its connection stays open.
#[test]
fn over_long_request_line_is_refused_and_closed() {
    let (addr, server) = start_daemon();
    let greedy = TcpStream::connect(addr).unwrap();
    greedy
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    (&greedy)
        .write_all(&vec![b'x'; MAX_LINE_BYTES + 1])
        .unwrap();
    let mut reader = BufReader::new(&greedy);
    let v = read_reply(&mut reader);
    assert_eq!(
        v.get("status").and_then(Value::as_str),
        Some("error"),
        "{v:?}"
    );
    let error = v.get("error").and_then(Value::as_str).unwrap_or_default();
    assert!(error.contains(&MAX_LINE_BYTES.to_string()), "{error}");
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "then EOF: {rest}");

    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(&stream);
    (&stream)
        .write_all(b"\xff\n{\"id\":1,\"verb\":\"metrics\"}\n{\"id\":2,\"verb\":\"shutdown\"}\n")
        .unwrap();
    let v = read_reply(&mut reader);
    let error = v.get("error").and_then(Value::as_str).unwrap_or_default();
    assert!(error.contains("not UTF-8"), "{v:?}");
    let v = read_reply(&mut reader);
    let errors = v
        .get("snapshot")
        .and_then(|s| s.get("counters"))
        .and_then(|c| c.get("tmsd.errors"))
        .and_then(Value::as_u64);
    assert_eq!(errors, Some(2), "{v:?}");
    let v = read_reply(&mut reader);
    assert_eq!(v.get("shutdown").and_then(Value::as_bool), Some(true));
    server
        .join()
        .expect("daemon thread must not panic")
        .expect("daemon must exit cleanly");
}

/// The daemon under a disabled fault plan is exactly the daemon under a
/// seeded plan whose rates are all zero — the oracle is pure and the
/// request pipeline does not branch on plan presence.
#[test]
fn zero_rate_plan_matches_disabled_plan() {
    let quiet = DaemonConfig {
        plan: FaultPlan::with_rates(
            1,
            tms_faults::FaultRates {
                sched_budget_per_1024: 0,
                worker_panic_per_1024: 0,
                spill_transient_per_1024: 0,
                spill_fail_after: None,
                spill_torn_at: None,
                misspec_per_1024: 0,
                jitter_per_1024: 0,
                jitter_max_cycles: 0,
                accept_transient_per_1024: 0,
                cache_read_corrupt_per_1024: 0,
                cache_write_transient_per_1024: 0,
                cache_write_fail_after: None,
                cache_write_torn_at: None,
                sched_budget_attempts: 2,
            },
        ),
        ..DaemonConfig::default()
    };
    let disabled = DaemonConfig::default();
    let a = Engine::new(&quiet, Trace::disabled());
    let b = Engine::new(&disabled, Trace::disabled());
    let req = parse_schedule(&schedule_line(1, &figure1(), 4));
    assert_eq!(a.process(&req), b.process(&req));
}
