//! Readers for the metrics files `tms-trace` writes, parsed with
//! `serde_json`.
//!
//! [`parse_snapshot`] reads the deterministic metrics slice back out of
//! a snapshot (or full metrics) JSON, and [`merge_snapshot_files`] folds
//! per-shard files into one [`MetricsSnapshot`] — the `tms-verify
//! merge-metrics` backend. Snapshots are a commutative monoid, so the
//! merged report equals a single-process run at any shard count.
//! `tmsd soak` reads the snapshot a `metrics` reply embeds through
//! [`snapshot_from_value`].
//!
//! The readers accept exactly what the exporters write: integers are
//! read from `Value::Int`/`Value::UInt` only (never through
//! `Value::as_u64`, which also takes `7.0` and `1e3`). Errors name the
//! file.

use serde_json::Value;
use std::path::Path;
use tms_trace::{Histogram, MetricsSnapshot};

/// The exact unsigned integer `v` holds, if it is one.
fn exact_u64(v: &Value) -> Option<u64> {
    match *v {
        Value::Int(i) => u64::try_from(i).ok(),
        Value::UInt(u) => Some(u),
        _ => None,
    }
}

fn histogram_from_value(name: &str, v: &Value) -> Result<Histogram, String> {
    let field = |key: &str| {
        v.get(key)
            .and_then(exact_u64)
            .ok_or_else(|| format!("histogram '{name}': missing '{key}'"))
    };
    let buckets = v
        .get("buckets")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("histogram '{name}': missing 'buckets'"))?
        .iter()
        .map(|pair| match pair.as_array() {
            Some([i, n]) => match (exact_u64(i), exact_u64(n)) {
                (Some(i), Some(n)) => Ok((i, n)),
                _ => Err(format!("histogram '{name}': non-integer bucket pair")),
            },
            _ => Err(format!("histogram '{name}': malformed bucket pair")),
        })
        .collect::<Result<Vec<_>, _>>()?;
    Histogram::from_parts(
        field("count")?,
        field("sum")?,
        field("min")?,
        field("max")?,
        &buckets,
    )
    .map_err(|e| format!("histogram '{name}': {e}"))
}

/// The deterministic metrics slice of an already-parsed snapshot
/// (`MetricsSnapshot::to_json`) or full metrics (`Trace::metrics_json`)
/// document; the `timers_ns` and `span_events` sections are ignored.
pub fn snapshot_from_value(doc: &Value) -> Result<MetricsSnapshot, String> {
    let mut snap = MetricsSnapshot::default();
    let counters = doc
        .get("counters")
        .and_then(Value::as_object)
        .ok_or("missing 'counters' object")?;
    for (k, v) in counters {
        let n = exact_u64(v).ok_or_else(|| format!("counter '{k}' is not an unsigned integer"))?;
        snap.counters.insert(k.clone(), n);
    }
    let values = doc
        .get("values")
        .and_then(Value::as_object)
        .ok_or("missing 'values' object")?;
    for (k, v) in values {
        snap.values.insert(k.clone(), histogram_from_value(k, v)?);
    }
    Ok(snap)
}

/// [`snapshot_from_value`] over JSON text.
pub fn parse_snapshot(text: &str) -> Result<MetricsSnapshot, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    snapshot_from_value(&doc)
}

/// Read and fold any number of snapshot/metrics files into one merged
/// snapshot.
pub fn merge_snapshot_files<P: AsRef<Path>>(paths: &[P]) -> Result<MetricsSnapshot, String> {
    let mut merged = MetricsSnapshot::default();
    for p in paths {
        let p = p.as_ref();
        let snap = std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|text| parse_snapshot(&text))
            .map_err(|e| format!("{}: {e}", p.display()))?;
        merged.merge(&snap);
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tms_trace::Trace;

    fn record_run(t: &Trace, offset: u64) {
        for i in 0..40u64 {
            t.event_at(
                "sim.vthread",
                || format!("t{}", offset + i),
                i % 4,
                offset + i * 3,
                2,
                || vec![("thread", (offset + i).to_string())],
            );
            t.counter_sample("sim.vcounter", || "len".into(), 0, offset + i * 3, i % 7);
            t.count("n", 1);
            t.record("v", i);
        }
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let t = Trace::enabled();
        record_run(&t, 0);
        let snap = t.metrics();
        let back = parse_snapshot(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_json(), snap.to_json());
        // The full metrics JSON parses to the same slice.
        let from_full = parse_snapshot(&t.metrics_json()).unwrap();
        assert_eq!(from_full, snap);
    }

    #[test]
    fn snapshot_files_merge_to_the_single_run() {
        let dir = std::env::temp_dir().join("tms_verify_traces_merge_metrics_test");
        std::fs::create_dir_all(&dir).unwrap();
        let single = Trace::enabled();
        record_run(&single, 0);
        record_run(&single, 1000);

        let a = Trace::enabled();
        record_run(&a, 0);
        let b = Trace::enabled();
        record_run(&b, 1000);
        let pa = dir.join("a.json");
        let pb = dir.join("b.json");
        a.write_snapshot(&pa).unwrap();
        b.write_snapshot(&pb).unwrap();

        let ab = merge_snapshot_files(&[&pa, &pb]).unwrap();
        let ba = merge_snapshot_files(&[&pb, &pa]).unwrap();
        assert_eq!(ab.to_json(), single.snapshot_json());
        assert_eq!(
            ba.to_json(),
            single.snapshot_json(),
            "merge not commutative"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_snapshot_rejects_malformed_documents() {
        assert!(parse_snapshot("{}").is_err());
        assert!(parse_snapshot("{\"counters\": {\"a\": \"x\"}}").is_err());
        assert!(parse_snapshot("{\"counters\": {}, \"values\": {\"h\": {\"count\": 1}}}").is_err());
    }

    #[test]
    fn parse_snapshot_rejects_inverted_histogram_range() {
        // A histogram whose min exceeds its max is structurally
        // impossible for the recorder to produce; a hand-edited or
        // corrupted snapshot must fail at parse time rather than panic
        // later inside `percentile`'s clamp.
        let doc = "{\"counters\": {}, \"values\": {\"h\": \
                   {\"count\": 1, \"sum\": 7, \"min\": 9, \"max\": 3, \
                    \"buckets\": [[3, 1]]}}}";
        let err = parse_snapshot(doc).unwrap_err();
        assert!(err.contains("min 9 exceeds max 3"), "got: {err}");
    }

    #[test]
    fn sparse_and_empty_histograms_round_trip_and_merge() {
        // Sparse buckets: only the populated indices are serialized, so
        // a histogram with samples in two distant buckets exercises the
        // sparse-pair path through to `from_parts`.
        let t = Trace::enabled();
        t.record("sparse", 1);
        t.record("sparse", u64::MAX / 2);
        let snap = t.metrics();
        let back = parse_snapshot(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        let h = &back.values["sparse"];
        assert_eq!((h.p50(), h.count), (1, 2));

        // An empty histogram round-trips and is the merge identity.
        let empty = Histogram::from_parts(0, 0, 0, 0, &[]).unwrap();
        assert_eq!((empty.p50(), empty.p95(), empty.p99()), (0, 0, 0));
        let mut merged = empty;
        merged.merge(h);
        assert_eq!(&merged, h);
    }
}
