//! The `.trace.ndjson` spill format, and the line-atomic appender that
//! writes it.
//!
//! A [`crate::Trace::streaming`] sink writes completed events here as
//! its bounded buffer fills, so a traced `--specfp-cap 0` sweep never
//! holds more than the buffer cap of span events in memory. Each line
//! is a self-contained JSON object in Chrome-adjacent terms:
//!
//! ```json
//! {"ph":"X","cat":"sweep","name":"kernels","tid":0,"ts":12,"dur":3400,"args":{"loops":"18"}}
//! {"ph":"C","cat":"sim.vcounter","name":"sim.prune.log_len","tid":0,"ts":96,"args":{"value":7}}
//! ```
//!
//! `pid` is not stored — it is a pure function of `cat` (see
//! `chrome::pid_of_cat`) and is re-derived at render time.
//! Span (`"ph":"X"`) args are strings; counter (`"ph":"C"`) args are
//! unsigned integers, the same distinction the Chrome exporter makes.
//! This crate only writes the format. `tms_verify::traces` reads it
//! back and inverts [`write_ndjson_line`] exactly, which is what lets
//! `tms trace merge` reproduce the in-memory exporter's bytes.
//!
//! [`LineAppender`] is the one write path for ndjson logs: the spill
//! sink appends events through it, and `tmsd`'s schedule cache appends
//! its entries through it.

use crate::json::{push_u64, write_str};
use crate::sink::{Event, EventPhase};
use std::io::{self, Write};
use std::time::Duration;
use tms_faults::{FaultPlan, IoFault};

/// Append `ev` as one ndjson line (including the trailing newline).
pub fn write_ndjson_line(out: &mut String, ev: &Event) {
    match ev.ph {
        EventPhase::Complete => out.push_str("{\"ph\":\"X\",\"cat\":"),
        EventPhase::Counter => out.push_str("{\"ph\":\"C\",\"cat\":"),
    }
    write_str(out, ev.cat);
    out.push_str(",\"name\":");
    write_str(out, &ev.name);
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
            out.push_str(v);
        } else {
            write_str(out, v);
        }
    }
    out.push_str("}}\n");
}

/// `Interrupted` retries per line before [`LineAppender::append`] gives
/// up.
pub const APPEND_RETRIES: u32 = 3;

/// Retry `n` (0-based) sleeps `APPEND_BACKOFF_US << n` microseconds:
/// 50, 100, 200 — bounded, tiny, and only ever paid on a failing disk.
const APPEND_BACKOFF_US: u64 = 50;

/// Which fault-plan site keys an appender's injected faults
/// ([`FaultPlan::spill_write_fault`] or
/// [`FaultPlan::cache_write_fault`]).
pub type FaultSite = fn(&FaultPlan, u64) -> Option<IoFault>;

/// Appends whole lines to a log, **line-atomically**: each line,
/// newline included, goes to the writer in one `write_all`, so while
/// appends succeed the log is a clean prefix of complete lines, and a
/// killed process tears at most the final one.
///
/// Every write attempt, retries included, takes the next 1-based
/// attempt index, and the fault site is asked about that index — so for
/// a fixed sequence of lines the injected faults are identical at any
/// worker count, and a retried transient fault can clear. A failed
/// attempt is retried up to [`APPEND_RETRIES`] times, after 50, 100 and
/// 200 µs, when it is `ErrorKind::Interrupted`. An injected short write
/// puts half the line in the log for real (the torn tail readers must
/// cope with) and fails with `ErrorKind::WriteZero`, the kind
/// `write_all` reports for a short write. Any failure that is not
/// retried flushes the writer (best-effort) and returns the error;
/// what to do next — degrade, stop persisting — is the caller's policy.
pub struct LineAppender<W: Write> {
    writer: W,
    plan: FaultPlan,
    site: FaultSite,
    attempts: u64,
    retries: u64,
}

impl<W: Write> LineAppender<W> {
    /// An appender writing to `writer`, with faults from `plan` at
    /// `site`.
    pub fn new(writer: W, plan: FaultPlan, site: FaultSite) -> Self {
        LineAppender {
            writer,
            plan,
            site,
            attempts: 0,
            retries: 0,
        }
    }

    /// Append one complete line (its trailing newline included).
    pub fn append(&mut self, line: &[u8]) -> io::Result<()> {
        let mut retry = 0u32;
        loop {
            self.attempts += 1;
            let outcome = match (self.site)(&self.plan, self.attempts) {
                Some(IoFault::ShortWrite) => {
                    let _ = self.writer.write_all(&line[..line.len() / 2]);
                    Err(IoFault::ShortWrite.to_io_error())
                }
                Some(fault) => Err(fault.to_io_error()),
                None => self.writer.write_all(line),
            };
            match outcome {
                Ok(()) => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted && retry < APPEND_RETRIES => {
                    self.retries += 1;
                    std::thread::sleep(Duration::from_micros(APPEND_BACKOFF_US << retry));
                    retry += 1;
                }
                Err(e) => {
                    let _ = self.writer.flush();
                    return Err(e);
                }
            }
        }
    }

    /// Transient faults retried away so far, over all lines.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Flush the underlying writer.
    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}
