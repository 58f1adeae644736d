//! Measurement plumbing shared by the workloads: exact percentiles,
//! the benchmark's own spans, peak RSS, and the result line.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tms_trace::Trace;

/// Linear-interpolated percentile (`q` in 0..=100) of exact samples.
/// Interpolating between the two nearest ranks keeps a percentile from
/// jumping a whole sample when one more op lands in a run.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q / 100.0 * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of exact samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Milliseconds of a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set (`VmHWM`) of this process in MB, from procfs.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("VmHWM missing from /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparseable {line:?}"))?;
    Ok(kb / 1024.0)
}

/// One span the benchmark recorded around a call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name (the module the call went into).
    pub layer: &'static str,
    /// When the call started.
    pub start: Instant,
    /// How long it took.
    pub dur: Duration,
}

impl Span {
    /// Time `f` as a call into `layer`.
    pub fn of<R>(layer: &'static str, f: impl FnOnce() -> R) -> (R, Span) {
        let start = Instant::now();
        let r = f();
        (
            r,
            Span {
                layer,
                start,
                dur: start.elapsed(),
            },
        )
    }
}

/// The benchmark's own span log: every op is a root span and every
/// call it made into a layer is a child carrying the op's id. The
/// spans go to a `tms_trace::Trace` and out as a Chrome trace.
pub struct SpanLog {
    trace: Trace,
    epoch: Instant,
}

impl SpanLog {
    /// An empty log whose timestamps count from now.
    pub fn new() -> SpanLog {
        SpanLog {
            trace: Trace::enabled(),
            epoch: Instant::now(),
        }
    }

    fn emit(&self, op: u64, span: &Span, parent: Option<u64>) {
        let ts = span.start.saturating_duration_since(self.epoch).as_micros() as u64;
        self.trace.event_at(
            "bench",
            || span.layer.to_string(),
            0,
            ts,
            span.dur.as_micros() as u64,
            || {
                let mut args = vec![("op", op.to_string())];
                if let Some(p) = parent {
                    args.push(("parent", format!("op#{p}")));
                }
                args
            },
        );
    }

    /// Record op `id` (the root span) and the layer calls it made, and
    /// return the op's self time: its duration minus the time its
    /// children cover. Children never overlap (one thread, one call at
    /// a time), so covered time is their sum.
    pub fn op(&self, id: u64, op: &Span, children: &[Span]) -> Duration {
        self.emit(id, op, None);
        for c in children {
            self.emit(id, c, Some(id));
        }
        let covered: Duration = children.iter().map(|c| c.dur).sum();
        op.dur.saturating_sub(covered)
    }

    /// Record layer calls made for op `id` outside the op's own span
    /// (the in-process replays of a tmsd request).
    pub fn children(&self, id: u64, children: &[Span]) {
        for c in children {
            self.emit(id, c, Some(id));
        }
    }

    /// Write the Chrome trace of every recorded span.
    pub fn write(&self, path: &std::path::Path) -> Result<(), String> {
        self.trace
            .write_chrome(path)
            .map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// Per-call times of every layer the benchmark called, in ms.
#[derive(Debug, Default)]
pub struct LayerTimes(BTreeMap<&'static str, Vec<f64>>);

impl LayerTimes {
    /// Fold in the spans of one op.
    pub fn add(&mut self, spans: &[Span]) {
        for s in spans {
            self.0.entry(s.layer).or_default().push(ms(s.dur));
        }
    }

    /// Per-call samples of `layer` (empty when never called).
    pub fn samples(&self, layer: &str) -> &[f64] {
        self.0.get(layer).map_or(&[], Vec::as_slice)
    }

    /// Total time spent in `layer`, in seconds.
    pub fn busy_s(&self, layer: &str) -> f64 {
        self.samples(layer).iter().sum::<f64>() / 1e3
    }
}

/// What one benchmark invocation reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted in the measured phase.
    pub attempted: usize,
    /// Ops whose output check failed (errors and `overloaded` replies
    /// included).
    pub failed: usize,
    /// Descriptions of the first few failed checks.
    pub failures: Vec<String>,
    /// Measured values by metric name (units live in the metric table).
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count a failed check (attempted ops are set by the workload).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Record one metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The result line: one JSON object with every metric of `table`,
    /// in table order. A layer a workload never calls reads 0.
    pub fn json(&self, table: &[(String, String)]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name.as_str()).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust prints for the `f64`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert!((median(&s) - 2.5).abs() < 1e-12);
        assert!((percentile(&s, 90.0) - 3.7).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("ops_per_s", 12.5);
        let table = [("ops_per_s", "1/s"), ("setup_s", "s")].map(|(n, u)| (n.into(), u.into()));
        let line = o.json(&table);
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
        let setup = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(|x| x.as_f64()), Some(0.0));
        o.fail("x".into());
        assert!(o.json(&table).contains("\"correct\": false"));
    }
}
