//! Chrome `trace_event` export.
//!
//! Every recorded span becomes a *complete* event (`"ph": "X"`) and
//! every counter sample a *counter* event (`"ph": "C"`) in the
//! [Trace Event Format] understood by `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev): `name`, `cat`, timestamp `ts`
//! (and duration `dur` for spans) in microseconds, and a `(pid, tid)`
//! track. Two kinds of track coexist in one file:
//!
//! * `pid 1` — **wall-clock** spans; `tid` is the recording worker
//!   thread (first-use order, main thread is 0);
//! * `pid 2` — **virtual-time** records from the SpMT engine, where
//!   `ts`/`dur` are simulated cycles and `tid` is the core number, so a
//!   loop's thread timeline renders as a per-core Gantt chart, and
//!   counter series (`sim.prune.log_len`, per-core occupancy) plot
//!   resource pressure over the same cycle axis.
//!
//! Events are sorted by `(pid, tid, ts, name)` before rendering so the
//! file is stable for a given set of recorded events; the sort is
//! stable, so ties keep recording order.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::json::{push_u64, write_str};
use crate::sink::{Event, EventPhase};

/// Process id for wall-clock span tracks.
pub const PID_WALL: u64 = 1;
/// Process id for virtual-time (simulated-cycle) tracks.
pub const PID_VIRTUAL: u64 = 2;

/// Categories whose events live on the virtual-time process.
fn pid_of_cat(cat: &str) -> u64 {
    if cat.starts_with("sim.v") {
        PID_VIRTUAL
    } else {
        PID_WALL
    }
}

/// Append one event in Chrome `trace_event` form. Numbers go through
/// [`push_u64`] — no per-event `format!` allocations on this path.
fn write_event(out: &mut String, ev: &Event) {
    match ev.ph {
        EventPhase::Complete => out.push_str("\n{\"ph\":\"X\",\"name\":"),
        EventPhase::Counter => out.push_str("\n{\"ph\":\"C\",\"name\":"),
    }
    write_str(out, &ev.name);
    out.push_str(",\"cat\":");
    write_str(out, ev.cat);
    out.push_str(",\"pid\":");
    push_u64(out, pid_of_cat(ev.cat));
    out.push_str(",\"tid\":");
    push_u64(out, ev.track);
    out.push_str(",\"ts\":");
    push_u64(out, ev.ts_us);
    if ev.ph == EventPhase::Complete {
        out.push_str(",\"dur\":");
        push_u64(out, ev.dur_us);
    }
    out.push_str(",\"args\":{");
    for (j, (k, v)) in ev.args.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        write_str(out, k);
        out.push(':');
        if ev.ph == EventPhase::Counter {
            // Counter series values are numeric — Perfetto only plots
            // numbers. The sink records them from `u64`s.
            out.push_str(v);
        } else {
            write_str(out, v);
        }
    }
    out.push_str("}}");
}

/// Render the full `{"traceEvents": [...]}` document.
pub(crate) fn render(events: &[Event]) -> String {
    let mut order: Vec<&Event> = events.iter().collect();
    order.sort_by(|a, b| {
        (pid_of_cat(a.cat), a.track, a.ts_us, &a.name).cmp(&(
            pid_of_cat(b.cat),
            b.track,
            b.ts_us,
            &b.name,
        ))
    });

    let mut out = String::from("{\"traceEvents\":[");
    for (i, ev) in order.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_event(&mut out, ev);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cat: &'static str, name: &str, track: u64, ts: u64) -> Event {
        Event {
            ph: EventPhase::Complete,
            cat,
            name: name.to_string(),
            track,
            ts_us: ts,
            dur_us: 5,
            args: vec![("k", "v".to_string())],
        }
    }

    #[test]
    fn renders_sorted_complete_events() {
        let events = vec![ev("tms", "b", 0, 20), ev("tms", "a", 0, 10)];
        let json = render(&events);
        let a = json.find("\"name\":\"a\"").unwrap();
        let b = json.find("\"name\":\"b\"").unwrap();
        assert!(a < b, "events must be time-sorted");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"args\":{\"k\":\"v\"}"));
    }

    #[test]
    fn virtual_events_get_their_own_process() {
        let events = vec![ev("sim.vthread", "t0", 1, 0), ev("sweep", "kernels", 0, 0)];
        let json = render(&events);
        assert!(json.contains(&format!("\"pid\":{PID_VIRTUAL}")));
        assert!(json.contains(&format!("\"pid\":{PID_WALL}")));
    }

    #[test]
    fn counter_events_render_numeric_args_without_dur() {
        let events = vec![Event {
            ph: EventPhase::Counter,
            cat: "sim.vcounter",
            name: "sim.prune.log_len".to_string(),
            track: 0,
            ts_us: 12,
            dur_us: 0,
            args: vec![("value", "7".to_string())],
        }];
        let json = render(&events);
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"args\":{\"value\":7}"));
        assert!(!json.contains("\"dur\""), "counters carry no duration");
        assert!(json.contains(&format!("\"pid\":{PID_VIRTUAL}")));
    }

    #[test]
    fn empty_trace_is_valid() {
        assert_eq!(render(&[]), "{\"traceEvents\":[\n]}\n");
    }
}
