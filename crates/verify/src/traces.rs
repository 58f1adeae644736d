//! Readers for the files `tms-trace` writes: `.trace.ndjson` spills
//! and metrics snapshots, parsed with `serde_json`.
//!
//! * **Spill → Chrome.** [`parse_line`] inverts
//!   `tms_trace::stream::write_ndjson_line` exactly, and
//!   [`chrome_from_spills`] renders one-or-many spill files through
//!   `tms-trace`'s own Chrome renderer — same sort, same bytes-out
//!   path — so `tms trace merge` writes byte-for-byte the document the
//!   in-memory sink renders for the same events.
//! * **Snapshot merge.** [`parse_snapshot`] reads the deterministic
//!   metrics slice back out of a snapshot (or full metrics) JSON, and
//!   [`merge_snapshot_files`] folds per-shard files into one
//!   [`MetricsSnapshot`] — the `tms-verify merge-metrics` backend.
//!   Snapshots are a commutative monoid, so the merged report equals a
//!   single-process run at any shard count.
//!
//! The readers accept exactly what the exporters write: integers are
//! read from `Value::Int`/`Value::UInt` only (never through
//! `Value::as_u64`, which also takes `7.0` and `1e3`), span args must be
//! strings and counter args unsigned integers. Errors name the file
//! and, for spills, the 1-based line.

use serde_json::Value;
use std::path::Path;
use tms_trace::{render_chrome, ChromeEvent, EventPhase, Histogram, MetricsSnapshot};

/// An event parsed back from a spill file — the shape of
/// `tms_trace::Event` with owned strings.
#[derive(Debug, Clone, PartialEq)]
pub struct OwnedEvent {
    /// Chrome phase.
    pub ph: EventPhase,
    /// Category.
    pub cat: String,
    /// Event name.
    pub name: String,
    /// Track (`tid`).
    pub track: u64,
    /// Timestamp (µs or cycles).
    pub ts_us: u64,
    /// Duration (µs or cycles); 0 for counters.
    pub dur_us: u64,
    /// Annotations in recording order. Counter values are canonical
    /// decimal integers.
    pub args: Vec<(String, String)>,
}

impl ChromeEvent for OwnedEvent {
    fn phase(&self) -> EventPhase {
        self.ph
    }
    fn cat(&self) -> &str {
        &self.cat
    }
    fn name(&self) -> &str {
        &self.name
    }
    fn track(&self) -> u64 {
        self.track
    }
    fn ts_us(&self) -> u64 {
        self.ts_us
    }
    fn dur_us(&self) -> u64 {
        self.dur_us
    }
    fn args(&self) -> impl Iterator<Item = (&str, &str)> {
        self.args.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }
}

/// The exact unsigned integer `v` holds, if it is one.
fn exact_u64(v: &Value) -> Option<u64> {
    match *v {
        Value::Int(i) => u64::try_from(i).ok(),
        Value::UInt(u) => Some(u),
        _ => None,
    }
}

fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(exact_u64)
        .ok_or_else(|| format!("missing or non-integer '{key}'"))
}

fn field_str(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing '{key}'"))
}

/// Parse one spill line back into an [`OwnedEvent`].
pub fn parse_line(line: &str) -> Result<OwnedEvent, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let ph = match v.get("ph").and_then(Value::as_str) {
        Some("X") => EventPhase::Complete,
        Some("C") => EventPhase::Counter,
        other => return Err(format!("bad ph {other:?}")),
    };
    let dur_us = match ph {
        EventPhase::Complete => field_u64(&v, "dur")?,
        EventPhase::Counter => 0,
    };
    let args_obj = v
        .get("args")
        .and_then(Value::as_object)
        .ok_or("missing 'args' object")?;
    let mut args = Vec::with_capacity(args_obj.len());
    for (k, val) in args_obj {
        let rendered = match (ph, val) {
            (EventPhase::Complete, Value::Str(s)) => Some(s.clone()),
            (EventPhase::Counter, n) => exact_u64(n).map(|n| n.to_string()),
            _ => None,
        };
        let rendered = rendered.ok_or_else(|| format!("arg '{k}' has the wrong type for ph"))?;
        args.push((k.clone(), rendered));
    }
    Ok(OwnedEvent {
        ph,
        cat: field_str(&v, "cat")?,
        name: field_str(&v, "name")?,
        track: field_u64(&v, "tid")?,
        ts_us: field_u64(&v, "ts")?,
        dur_us,
        args,
    })
}

/// Parse a whole spill file (empty lines are not produced and not
/// accepted). Errors carry the 1-based line number.
pub fn parse_spill(text: &str) -> Result<Vec<OwnedEvent>, String> {
    text.lines()
        .enumerate()
        .map(|(i, line)| parse_line(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// Outcome of [`parse_spill_lossy`]: the recovered events plus a note
/// about the dropped tail, if the file was truncated.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredSpill {
    /// Every event on a complete, valid line.
    pub events: Vec<OwnedEvent>,
    /// Human-readable description of the dropped final line (`None`
    /// when the file was fully intact).
    pub truncated: Option<String>,
}

/// Crash-tolerant spill parse. The sink appends line-atomically, so a
/// killed process (or an injected torn write) damages at most the
/// **final** line of the file: this recovers the valid prefix and
/// reports the dropped tail instead of failing the whole file. A bad
/// line anywhere *before* the end is not a truncation artefact — that
/// stays a hard error, as in [`parse_spill`].
pub fn parse_spill_lossy(text: &str) -> Result<RecoveredSpill, String> {
    let total = text.lines().count();
    let mut events = Vec::with_capacity(total);
    for (i, line) in text.lines().enumerate() {
        match parse_line(line) {
            Ok(ev) => events.push(ev),
            Err(e) if i + 1 == total => {
                return Ok(RecoveredSpill {
                    events,
                    truncated: Some(format!(
                        "dropped truncated final line {} ({} byte(s): {e})",
                        i + 1,
                        line.len()
                    )),
                });
            }
            Err(e) => return Err(format!("line {}: {e}", i + 1)),
        }
    }
    Ok(RecoveredSpill {
        events,
        truncated: None,
    })
}

/// `parse` over the text of file `p`, with every error naming `p`.
fn parse_file<T>(p: &Path, parse: impl FnOnce(&str) -> Result<T, String>) -> Result<T, String> {
    std::fs::read_to_string(p)
        .map_err(|e| e.to_string())
        .and_then(|text| parse(&text))
        .map_err(|e| format!("{}: {e}", p.display()))
}

/// Events recovered from one-or-many possibly-truncated spill files,
/// with a note per dropped tail.
#[derive(Debug, Clone, PartialEq)]
pub struct SpillRecovery {
    /// Every event on a complete, valid line, in file-then-line order.
    pub events: Vec<OwnedEvent>,
    /// One `"<path>: <detail>"` note per truncated file (empty when all
    /// files were intact). Never silently dropped — callers print or
    /// record these.
    pub notes: Vec<String>,
}

/// Each file's valid prefix, in order: a truncated final line (a
/// killed process, a torn write) is dropped and reported in
/// [`SpillRecovery::notes`] rather than failing the read. Mid-file
/// corruption still errors — that is damage, not truncation.
pub fn events_from_spills_lossy<P: AsRef<Path>>(paths: &[P]) -> Result<SpillRecovery, String> {
    let mut out = SpillRecovery {
        events: Vec::new(),
        notes: Vec::new(),
    };
    for p in paths {
        let p = p.as_ref();
        let rec = parse_file(p, parse_spill_lossy)?;
        out.events.extend(rec.events);
        if let Some(note) = rec.truncated {
            out.notes.push(format!("{}: {note}", p.display()));
        }
    }
    Ok(out)
}

/// Render one-or-many spill files, strictly parsed and concatenated in
/// order, as a single Chrome `trace_event` JSON document. Within a
/// file, spill order is recording order, so the renderer's stable sort
/// reproduces the in-memory tie-breaking.
pub fn chrome_from_spills<P: AsRef<Path>>(paths: &[P]) -> Result<String, String> {
    let mut events = Vec::new();
    for p in paths {
        events.extend(parse_file(p.as_ref(), parse_spill)?);
    }
    Ok(render_chrome(&events))
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
        merged.merge(&parse_file(p.as_ref(), parse_snapshot)?);
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tms_trace::stream::write_ndjson_line;
    use tms_trace::{Event, Trace};

    fn span(name: &str, args: Vec<(&'static str, String)>) -> Event {
        Event {
            ph: EventPhase::Complete,
            cat: "sweep",
            name: name.to_string(),
            track: 3,
            ts_us: 10,
            dur_us: 20,
            args,
        }
    }

    fn counter(ts_us: u64, value: u64) -> Event {
        Event {
            ph: EventPhase::Counter,
            cat: "sim.vcounter",
            name: "sim.prune.log_len".to_string(),
            track: 0,
            ts_us,
            dur_us: 0,
            args: vec![("value", value.to_string())],
        }
    }

    fn line_of(ev: &Event) -> String {
        let mut line = String::new();
        write_ndjson_line(&mut line, ev);
        assert!(line.ends_with('\n'));
        line.trim_end().to_string()
    }

    /// Also the args-order round trip: `"loops"` sorts after `"k"`, and
    /// the recording order survives.
    #[test]
    fn spans_round_trip_exactly() {
        let ev = span(
            "ker\"nel\n\u{1}",
            vec![("loops", "18".into()), ("k", "v\\x".into())],
        );
        let back = parse_line(&line_of(&ev)).unwrap();
        assert_eq!(back.ph, EventPhase::Complete);
        assert_eq!(back.cat, "sweep");
        assert_eq!(back.name, "ker\"nel\n\u{1}");
        assert_eq!((back.track, back.ts_us, back.dur_us), (3, 10, 20));
        assert_eq!(
            back.args,
            vec![
                ("loops".to_string(), "18".to_string()),
                ("k".to_string(), "v\\x".to_string())
            ]
        );
    }

    /// Also the exact-`u64` round trip: a `u64::MAX` timestamp and
    /// counter value come back unrounded.
    #[test]
    fn counters_round_trip_with_numeric_args() {
        let line = line_of(&counter(96, 7));
        assert!(line.contains("\"args\":{\"value\":7}"));
        assert!(!line.contains("\"dur\""));
        let back = parse_line(&line).unwrap();
        assert_eq!(back.ph, EventPhase::Counter);
        assert_eq!(back.args, vec![("value".to_string(), "7".to_string())]);
        let back = parse_line(&line_of(&counter(u64::MAX, u64::MAX))).unwrap();
        assert_eq!(back.ts_us, u64::MAX);
        assert_eq!(back.args, vec![("value".to_string(), u64::MAX.to_string())]);
    }

    /// Lines the exporter never writes are refused, however close to
    /// valid JSON they are.
    #[test]
    fn rejects_lines_the_exporter_never_writes() {
        let c = r#"{"ph":"C","cat":"c","name":"n","tid":0,"ts":1,"args":{"value":7}}"#;
        let x = r#"{"ph":"X","cat":"c","name":"n","tid":0,"ts":1,"dur":2,"args":{"k":"v"}}"#;
        assert!(parse_line(c).is_ok() && parse_line(x).is_ok());
        for (what, bad) in [
            ("fractional counter", c.replace(":7}", ":1.5}")),
            ("float counter", c.replace(":7}", ":7.0}")),
            ("negative counter", c.replace(":7}", ":-1}")),
            ("string counter", c.replace(":7}", ":\"7\"}")),
            ("numeric span arg", x.replace("\"v\"", "7")),
            ("exponent ts", x.replace("\"ts\":1", "\"ts\":1e3")),
            ("X without dur", x.replace("\"dur\":2,", "")),
            ("begin phase", x.replace("\"X\"", "\"B\"")),
            ("trailing bytes", format!("{x} x")),
        ] {
            assert!(parse_line(&bad).is_err(), "{what}: {bad}");
        }
    }

    #[test]
    fn lossy_parse_recovers_the_valid_prefix() {
        let ev = span("a", vec![("k", "v".into())]);
        let mut text = String::new();
        write_ndjson_line(&mut text, &ev);
        write_ndjson_line(&mut text, &ev);
        let whole_len = text.len();
        write_ndjson_line(&mut text, &ev);
        // Tear the final line mid-frame, as a killed process would.
        let torn = &text[..whole_len + 20];
        assert!(parse_spill(torn).is_err(), "strict parse must reject");
        let rec = parse_spill_lossy(torn).unwrap();
        assert_eq!(rec.events.len(), 2);
        let note = rec.truncated.expect("truncation must be reported");
        assert!(note.contains("line 3"), "{note}");

        // An intact file recovers everything with no note.
        let rec = parse_spill_lossy(&text).unwrap();
        assert_eq!(rec.events.len(), 3);
        assert_eq!(rec.truncated, None);
        assert_eq!(parse_spill_lossy("").unwrap().events.len(), 0);
    }

    #[test]
    fn lossy_parse_still_rejects_mid_file_corruption() {
        let ev = span("a", vec![]);
        let mut text = String::from("{\"ph\":\"X\"}\n");
        write_ndjson_line(&mut text, &ev);
        let err = parse_spill_lossy(&text).unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }

    #[test]
    fn parse_spill_reports_line_numbers() {
        let err = parse_spill("{\"ph\":\"X\"}\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        let ev = span("a", vec![]);
        let mut text = String::new();
        write_ndjson_line(&mut text, &ev);
        write_ndjson_line(&mut text, &ev);
        assert_eq!(parse_spill(&text).unwrap().len(), 2);
    }

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
    fn spill_merge_reproduces_in_memory_chrome_bytes() {
        let dir = std::env::temp_dir().join("tms_verify_traces_merge_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.trace.ndjson");

        let mem = Trace::enabled();
        record_run(&mem, 0);
        let streamed = Trace::streaming(&path, 5).unwrap();
        record_run(&streamed, 0);
        streamed.flush().unwrap();

        assert!(streamed.spill_high_water() <= 5);
        let merged = chrome_from_spills(&[&path]).unwrap();
        assert_eq!(merged, mem.chrome_json(), "merge diverged from in-memory");
        assert_eq!(streamed.metrics(), mem.metrics());
        assert_eq!(streamed.snapshot_json(), mem.snapshot_json());
        std::fs::remove_dir_all(&dir).ok();
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
