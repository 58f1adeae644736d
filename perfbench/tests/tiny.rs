//! The benchmark at `--tiny` size: every metric `BENCHMARK.json` names
//! is reported with its unit, every output check passes, and the
//! deterministic metrics repeat exactly.

use serde_json::Value;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_tms-perfbench");
const WORKLOADS: [&str; 3] = ["specfp-pipeline", "tmsd-warm", "tmsd-cold"];

/// `(name, unit)` of every metric of one plane of `BENCHMARK.json`.
fn declared(plane: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    doc.get(plane)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run one tiny invocation and return its result line.
fn run(workload: &str, seed: u64, trace: u8) -> Value {
    let out = Command::new(BIN)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string(), "--tiny"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("{workload}: {e}: {last}"))
}

fn value(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("no value for {name}"))
}

#[test]
fn every_metric_is_reported_and_every_check_passes() {
    for (trace, plane) in [(0, "end_to_end"), (1, "per_layer")] {
        let names = declared(plane);
        for workload in WORKLOADS {
            let r = run(workload, 7, trace);
            assert_eq!(
                r.get("correct").and_then(Value::as_bool),
                Some(true),
                "{workload}: {r:?}"
            );
            assert_eq!(
                r.get("failed").and_then(Value::as_u64),
                Some(0),
                "{workload}"
            );
            assert!(r.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
            let metrics = r.get("metrics").and_then(Value::as_object).unwrap();
            assert_eq!(metrics.len(), names.len(), "{workload} trace {trace}");
            for (name, unit) in &names {
                let m = r.get("metrics").and_then(|m| m.get(name));
                let got = m.and_then(|m| m.get("unit")).and_then(Value::as_str);
                assert_eq!(got, Some(unit.as_str()), "{workload}: {name}");
            }
            if trace == 0 {
                // A few tiny ops may well show no speedup; a full run's
                // `sim_speedup_pct` is the one that must not read 0.
                for (name, _) in names.iter().filter(|(n, _)| n != "sim_speedup_pct") {
                    assert!(value(&r, name) > 0.0, "{workload}: {name} reads 0");
                }
            }
        }
    }
}

#[test]
fn sim_speedup_repeats_exactly() {
    for workload in WORKLOADS {
        let a = value(&run(workload, 11, 0), "sim_speedup_pct");
        let b = value(&run(workload, 11, 0), "sim_speedup_pct");
        assert_eq!(a.to_bits(), b.to_bits(), "{workload}: {a} vs {b}");
    }
}

#[test]
fn traced_runs_show_the_layer_shape() {
    let warm = run("tmsd-warm", 3, 1);
    assert_eq!(value(&warm, "daemon.cache.hit_ratio"), 1.0);
    assert_eq!(
        value(&warm, "trace.retained_kb_per_op"),
        0.0,
        "hits emit no spans"
    );
    assert!(value(&warm, "daemon.transport_ms_p50") > value(&warm, "daemon.engine.hit_ms_p50"));
    let cold = run("tmsd-cold", 3, 1);
    assert!(value(&cold, "trace.retained_kb_per_op") > 0.0);
    assert!(value(&cold, "daemon.cache.file_kb") > 0.0);
    assert_eq!(value(&cold, "daemon.cache.hit_ratio"), 0.0);
    for r in [&warm, &cold] {
        assert_eq!(value(r, "daemon.failed"), 0.0);
    }
    let pipeline = run("specfp-pipeline", 3, 1);
    assert!(value(&pipeline, "core.tms.attempts") > 0.0);
    assert!(value(&pipeline, "sim.cycles") > 0.0);
}
