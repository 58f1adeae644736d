//! `tmsd` wire protocol: newline-delimited JSON requests and replies.
//!
//! One request per line, one reply per line. Requests carry the same
//! JSON the `tms` CLI already speaks — a serialised [`Ddg`] (the
//! `tms export` / `tms import` format) plus an optional serialised
//! [`MachineModel`] — wrapped in a small envelope:
//!
//! ```json
//! {"id":1,"verb":"schedule","ddg":{...},"ncore":4,
//!  "machine":{...},"knobs":{"p_max_values":[0.05]},"deadline_ms":250}
//! {"id":2,"verb":"metrics"}
//! {"id":3,"verb":"shutdown"}
//! ```
//!
//! Replies echo `id` and may arrive out of request order (the batch
//! pool finishes items as it pleases); clients match on `id`. Every
//! reply is exactly one of:
//!
//! * `{"id":N,"status":"ok","cached":B,"degraded":B,...,"result":{...}}`
//! * `{"id":N,"status":"error","error":"..."}` — malformed input (a
//!   DDG that fails [`Ddg::from_parts`] validation, an unknown knob, an
//!   integer that does not fit its `u32` field), an unschedulable DDG,
//!   or a contained worker panic;
//! * `{"id":N,"status":"overloaded","error":"..."}` — the bounded
//!   request queue was full and the daemon shed the request rather
//!   than growing without bound. The request was *answered*, not lost;
//!   clients retry later.
//!
//! # The cache key
//!
//! [`cache_key`] content-addresses a schedule request: it hashes the
//! *canonical re-serialisation* of the parsed DDG, machine model, core
//! count and knobs (with [`tms_faults::stable_hash`]), so two textual
//! variants of the same request — reordered fields, different
//! whitespace, stale `succs`/`preds`/`uid` fields that the DDG parser
//! ignores — map to the same entry. A DDG serialises as exactly
//! `{"name","insts","edges"}` and is rebuilt (and validated) from
//! those, so its derived adjacency and its process-unique `uid` are
//! never part of the key. `deadline_ms` is deliberately excluded too:
//! a deadline changes *when* the search gives up, never what a
//! completed search returns, and degraded results are not cached.

use serde_json::Value;
use std::time::Duration;
use tms_ddg::Ddg;
use tms_machine::MachineModel;

/// Seed for the content-addressed cache key (the repo's signature
/// constant, incremented whenever a change alters the schedules the
/// engine builds). Changing it — or anything about the canonical
/// serialisation — invalidates every persisted cache, which is the
/// safe failure mode: a stale hit is a wrong answer, a cold miss is
/// just work.
pub const CACHE_KEY_SEED: u64 = 0x1CC9_2009;

/// The scheduling knobs a request may override. Exactly the
/// [`tms_core::TmsConfig`] fields that change which schedule the
/// search returns — all of them participate in the cache key. Any
/// other name in a request's `knobs` object is refused.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Knobs {
    /// `P_max` ladder override (`TmsConfig::p_max_values`).
    pub p_max_values: Option<Vec<f64>>,
    /// Dense candidate grid (`TmsConfig::dense_candidates`).
    pub dense_candidates: bool,
    /// Stage slack past the dependence-forced minimum
    /// (`TmsConfig::max_extra_stages`).
    pub max_extra_stages: Option<u32>,
}

impl Knobs {
    /// Canonical single-line rendering for the cache key. Every field
    /// appears (defaults included) so adding a knob changes the key of
    /// requests that set it and nothing else.
    pub fn canonical(&self) -> String {
        format!(
            "p_max={:?};dense={};extra_stages={:?}",
            self.p_max_values, self.dense_candidates, self.max_extra_stages
        )
    }
}

/// A parsed schedule request, ready for the worker pool.
#[derive(Debug, Clone)]
pub struct ScheduleRequest {
    /// Client-chosen correlation id, echoed in the reply.
    pub id: u64,
    /// The loop to schedule.
    pub ddg: Ddg,
    /// Cores of the cost model (`F = |DDG| / ncore + sync + misspec`).
    pub ncore: u32,
    /// Per-core resources; defaults to the paper's Table 1 machine.
    pub machine: MachineModel,
    /// Search-shaping overrides.
    pub knobs: Knobs,
    /// Per-request deadline; past it the search degrades TMS→SMS
    /// (`Diagnostic::DegradedToSms`) instead of dropping the request.
    pub deadline: Option<Duration>,
    /// Content-addressed cache key of `(ddg, machine, ncore, knobs)`.
    pub key: u64,
}

/// A parsed request line.
#[derive(Debug, Clone)]
pub enum Request {
    /// Schedule one loop.
    Schedule(Box<ScheduleRequest>),
    /// Live metrics + fault-injection summary.
    Metrics {
        /// Correlation id.
        id: u64,
    },
    /// Stop accepting and exit cleanly.
    Shutdown {
        /// Correlation id.
        id: u64,
    },
}

impl Request {
    /// The correlation id of any request kind.
    pub fn id(&self) -> u64 {
        match self {
            Request::Schedule(r) => r.id,
            Request::Metrics { id } | Request::Shutdown { id } => *id,
        }
    }
}

/// Best-effort id extraction from a line that may not parse as a full
/// request, so even a malformed request gets a correlatable error
/// reply (id 0 when nothing can be recovered).
pub fn salvage_id(line: &str) -> u64 {
    serde_json::from_str::<Value>(line)
        .ok()
        .and_then(|v| v.get("id").and_then(Value::as_u64))
        .unwrap_or(0)
}

fn knob_err(name: &str) -> String {
    format!("knobs.{name}: invalid value")
}

/// A request integer that must fit a `u32`: out-of-range values are
/// refused by name, never truncated.
fn u32_field(v: &Value, field: &str) -> Result<u32, String> {
    let n = v
        .as_u64()
        .ok_or_else(|| format!("{field}: expected a non-negative integer"))?;
    u32::try_from(n).map_err(|_| format!("{field}: {n} does not fit in 32 bits"))
}

fn parse_knobs(v: &Value) -> Result<Knobs, String> {
    let Some(fields) = v.as_object() else {
        return Err("knobs: expected an object".to_string());
    };
    let mut k = Knobs::default();
    for (name, val) in fields {
        match name.as_str() {
            "p_max_values" => {
                let arr = val.as_array().ok_or_else(|| knob_err(name))?;
                let mut ps = Vec::with_capacity(arr.len());
                for p in arr {
                    let p = p.as_f64().ok_or_else(|| knob_err(name))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("knobs.p_max_values: {p} outside [0,1]"));
                    }
                    ps.push(p);
                }
                if ps.is_empty() {
                    return Err("knobs.p_max_values: empty".to_string());
                }
                k.p_max_values = Some(ps);
            }
            "dense_candidates" => {
                k.dense_candidates = val.as_bool().ok_or_else(|| knob_err(name))?
            }
            "max_extra_stages" => {
                k.max_extra_stages = Some(u32_field(val, "knobs.max_extra_stages")?)
            }
            other => return Err(format!("knobs.{other}: unknown knob")),
        }
    }
    Ok(k)
}

/// Content-addressed cache key over the canonical re-serialisation of
/// the parsed request. See the module docs for what is (and is not)
/// part of the key.
pub fn cache_key(ddg: &Ddg, machine: &MachineModel, ncore: u32, knobs: &Knobs) -> u64 {
    let ddg_json = serde_json::to_string(ddg).unwrap_or_default();
    let machine_json = serde_json::to_string(machine).unwrap_or_default();
    tms_faults::stable_hash(
        CACHE_KEY_SEED,
        &[
            &ddg_json,
            &machine_json,
            &ncore.to_string(),
            &knobs.canonical(),
        ],
    )
}

/// Render a cache key the way the wire and the persisted cache file
/// spell it: 16 lowercase hex digits.
pub fn key_hex(key: u64) -> String {
    format!("{key:016x}")
}

/// Parse one request line. Errors are complete sentences suitable for
/// an `error` reply; they never panic, whatever the input.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("request is not JSON: {e}"))?;
    if v.as_object().is_none() {
        return Err("request must be a JSON object".to_string());
    }
    let id = match v.get("id") {
        None => 0,
        Some(id) => id.as_u64().ok_or("id: expected a non-negative integer")?,
    };
    let verb = match v.get("verb") {
        None => "schedule",
        Some(verb) => verb.as_str().ok_or("verb: expected a string")?,
    };
    match verb {
        "metrics" => Ok(Request::Metrics { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        "schedule" => {
            let ddg_v = v
                .get("ddg")
                .ok_or("schedule request needs a \"ddg\" field")?;
            let ddg: Ddg = serde_json::from_value(ddg_v).map_err(|e| format!("ddg: {e}"))?;
            let machine: MachineModel = match v.get("machine") {
                None => MachineModel::icpp2008(),
                Some(m) => serde_json::from_value(m).map_err(|e| format!("machine: {e}"))?,
            };
            let ncore = match v.get("ncore") {
                None => 4,
                Some(n) => u32_field(n, "ncore")?,
            };
            if ncore == 0 {
                return Err("ncore: must be at least 1".to_string());
            }
            let knobs = match v.get("knobs") {
                None => Knobs::default(),
                Some(k) => parse_knobs(k)?,
            };
            let deadline = match v.get("deadline_ms") {
                None => None,
                Some(d) => Some(Duration::from_millis(
                    d.as_u64()
                        .ok_or("deadline_ms: expected a non-negative integer")?,
                )),
            };
            let key = cache_key(&ddg, &machine, ncore, &knobs);
            Ok(Request::Schedule(Box::new(ScheduleRequest {
                id,
                ddg,
                ncore,
                machine,
                knobs,
                deadline,
                key,
            })))
        }
        other => Err(format!("unknown verb {other:?}")),
    }
}

/// JSON-escape a string (via the vendored renderer, so escaping is
/// consistent everywhere).
fn js(s: &str) -> String {
    serde_json::to_string(&Value::Str(s.to_string())).unwrap_or_else(|_| "\"\"".to_string())
}

/// An `ok` schedule reply. `result_json` is embedded **verbatim** —
/// this is what makes a warm-cache reply byte-identical to the cold
/// one: the daemon stores and replays the rendered result, it never
/// re-renders.
pub fn reply_ok(id: u64, cached: bool, degraded: Option<&str>, result_json: &str) -> String {
    let degraded_fields = match degraded {
        None => r#""degraded":false"#.to_string(),
        Some(d) => format!(r#""degraded":true,"diagnostic":{}"#, js(d)),
    };
    format!(
        r#"{{"id":{id},"status":"ok","cached":{cached},{degraded_fields},"result":{result_json}}}"#
    )
}

/// A structured `error` reply.
pub fn reply_error(id: u64, msg: &str) -> String {
    format!(r#"{{"id":{id},"status":"error","error":{}}}"#, js(msg))
}

/// The backpressure reply: the bounded queue was full and the daemon
/// shed this request instead of queueing it.
pub fn reply_overloaded(id: u64, depth: usize, cap: usize) -> String {
    format!(
        r#"{{"id":{id},"status":"overloaded","error":"request queue full ({depth}/{cap}); retry later"}}"#
    )
}

/// The `shutdown` acknowledgement.
pub fn reply_shutdown(id: u64) -> String {
    format!(r#"{{"id":{id},"status":"ok","shutdown":true}}"#)
}

/// The `metrics` reply: the live [`tms_trace::MetricsSnapshot`]
/// (compacted to one line — the canonical `to_json` rendering is
/// multi-line, and the protocol is one reply per line) plus the
/// per-site fault-injection summary.
pub fn reply_metrics(
    id: u64,
    snapshot_json: &str,
    faults: &std::collections::BTreeMap<String, u64>,
) -> String {
    let compact = serde_json::from_str::<Value>(snapshot_json)
        .ok()
        .and_then(|v| serde_json::to_string(&v).ok())
        .unwrap_or_else(|| r#"{"counters":{},"values":{}}"#.to_string());
    let faults_fields: Vec<String> = faults
        .iter()
        .map(|(site, n)| format!("{}:{n}", js(site)))
        .collect();
    format!(
        r#"{{"id":{id},"status":"ok","snapshot":{compact},"faults":{{{}}}}}"#,
        faults_fields.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1_line(id: u64) -> String {
        let ddg = serde_json::to_string(&tms_workloads::figure1()).unwrap();
        format!(r#"{{"id":{id},"verb":"schedule","ddg":{ddg}}}"#)
    }

    #[test]
    fn parses_a_schedule_request_with_defaults() {
        let req = parse_request(&figure1_line(7)).unwrap();
        let Request::Schedule(r) = req else {
            panic!("wrong kind")
        };
        assert_eq!(r.id, 7);
        assert_eq!(r.ncore, 4);
        assert_eq!(r.machine, MachineModel::icpp2008());
        assert_eq!(r.knobs, Knobs::default());
        assert_eq!(r.deadline, None);
    }

    #[test]
    fn key_ignores_field_order_and_whitespace_but_not_content() {
        let ddg = tms_workloads::figure1();
        let ddg_json = serde_json::to_string(&ddg).unwrap();
        let a = parse_request(&format!(r#"{{"id":1,"ddg":{ddg_json},"ncore":4}}"#)).unwrap();
        let b = parse_request(&format!(r#"{{ "ncore": 4, "ddg": {ddg_json}, "id": 2 }}"#)).unwrap();
        let c = parse_request(&format!(r#"{{"id":1,"ddg":{ddg_json},"ncore":8}}"#)).unwrap();
        let (Request::Schedule(a), Request::Schedule(b), Request::Schedule(c)) = (a, b, c) else {
            panic!("wrong kind")
        };
        assert_eq!(a.key, b.key, "textual variants must share a key");
        assert_ne!(a.key, c.key, "ncore must be part of the key");
    }

    #[test]
    fn deadline_is_not_part_of_the_key() {
        let ddg_json = serde_json::to_string(&tms_workloads::figure1()).unwrap();
        let a = parse_request(&format!(r#"{{"id":1,"ddg":{ddg_json}}}"#)).unwrap();
        let b = parse_request(&format!(r#"{{"id":1,"ddg":{ddg_json},"deadline_ms":5}}"#)).unwrap();
        let (Request::Schedule(a), Request::Schedule(b)) = (a, b) else {
            panic!("wrong kind")
        };
        assert_eq!(a.key, b.key);
        assert_eq!(b.deadline, Some(Duration::from_millis(5)));
    }

    #[test]
    fn malformed_requests_are_structured_errors_not_panics() {
        for bad in [
            "",
            "not json",
            "[1,2,3]",
            r#"{"verb":"schedule"}"#,
            r#"{"verb":"frobnicate"}"#,
            r#"{"verb":"schedule","ddg":{"bogus":true}}"#,
            r#"{"id":"x","verb":"metrics"}"#,
            r#"{"id":1,"verb":"schedule","ddg":null}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} should not parse");
        }
        // Integers past u32 are refused by field name, not truncated.
        let ddg_json = serde_json::to_string(&tms_workloads::figure1()).unwrap();
        for (field, extra) in [
            ("ncore", r#""ncore":4294967297"#),
            (
                "knobs.max_extra_stages",
                r#""knobs":{"max_extra_stages":4294967297}"#,
            ),
        ] {
            let line = format!(r#"{{"id":1,"ddg":{ddg_json},{extra}}}"#);
            let err = parse_request(&line).unwrap_err();
            assert!(err.starts_with(&format!("{field}: ")), "{err}");
        }
        // An oversized latency is refused at parse, before any
        // scheduler sizes a table by it.
        let lat = r#""latency":"#;
        let at = ddg_json.find(lat).unwrap() + lat.len();
        let end = at + ddg_json[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
        let huge = format!("{}4000000000{}", &ddg_json[..at], &ddg_json[end..]);
        let err = parse_request(&format!(r#"{{"id":1,"ddg":{huge}}}"#)).unwrap_err();
        assert!(err.contains("instruction 0 has a latency above"), "{err}");
    }

    #[test]
    fn unknown_knobs_are_rejected() {
        let ddg_json = serde_json::to_string(&tms_workloads::figure1()).unwrap();
        for knob in [
            r#""p_mxa":[0.1]"#,
            r#""adaptive":true"#,
            r#""ii_max":32"#,
            r#""c_delay_max":4294967295"#,
        ] {
            let line = format!(r#"{{"id":1,"ddg":{ddg_json},"knobs":{{{knob}}}}}"#);
            let err = parse_request(&line).unwrap_err();
            assert!(err.contains("unknown knob"), "{err}");
        }
        let line = format!(r#"{{"id":1,"ddg":{ddg_json},"knobs":{{"p_max_values":[1.5]}}}}"#);
        assert!(parse_request(&line).is_err());
    }

    #[test]
    fn salvage_id_recovers_what_it_can() {
        assert_eq!(salvage_id(r#"{"id":42,"verb":"bogus"}"#), 42);
        assert_eq!(salvage_id("not json"), 0);
    }

    #[test]
    fn replies_are_single_line_valid_json() {
        for reply in [
            reply_ok(1, true, None, r#"{"ii":4}"#),
            reply_ok(2, false, Some("degraded to SMS \"budget\""), r#"{"ii":4}"#),
            reply_error(3, "bad \"input\"\nline two"),
            reply_overloaded(4, 64, 64),
            reply_shutdown(5),
            reply_metrics(6, r#"{"counters":{},"values":{}}"#, &Default::default()),
        ] {
            assert!(!reply.contains('\n'), "{reply}");
            serde_json::from_str::<Value>(&reply).unwrap_or_else(|e| panic!("{reply}: {e}"));
        }
    }
}
