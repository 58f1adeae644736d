//! Content-addressed schedule cache with crash-safe persistence.
//!
//! Entries map a [`crate::proto::cache_key`] to the **rendered result
//! JSON** of a completed, non-degraded schedule. Storing the rendered
//! bytes (not the parsed result) is what makes warm replies
//! byte-identical to cold ones: the daemon replays the stored string
//! verbatim, it never re-renders.
//!
//! # Persistence
//!
//! One ndjson line per entry — `{"key":"<16 hex>","result":"<escaped
//! result JSON>"}` — appended line-atomically: one `write_all` per
//! line, so a crash can tear at most the final line, and transient
//! write faults retried at 50/100/200 µs. Any append that still fails
//! (disk-full, a torn write, retries exhausted) degrades the cache to
//! memory-only for the rest of the run — the daemon keeps answering,
//! it just stops persisting.
//!
//! # Recovery
//!
//! [`ScheduleCache::open`] recovers the valid prefix of a torn or
//! partially corrupted file: a torn *final* line is the expected crash
//! artifact and is silently dropped; malformed lines elsewhere are
//! dropped too (availability wins over a strict reader's hard error —
//! a daemon that refuses to start over one bad cache line would turn a
//! disk hiccup into an outage) but are *counted* so the operator sees
//! the corruption. The compacted survivors are rewritten so the file
//! is clean again for the next restart.

use crate::proto::key_hex;
use serde_json::Value;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;
use tms_faults::{FaultPlan, IoFault};

/// What [`ScheduleCache::open`] found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Entries recovered.
    pub recovered: usize,
    /// A torn (unterminated or unparseable) final line was dropped.
    pub dropped_torn_tail: bool,
    /// Malformed non-final lines dropped (counted corruption).
    pub dropped_corrupt: usize,
}

/// Outcome of one [`ScheduleCache::insert`] persist attempt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteReport {
    /// Transient faults retried away.
    pub retries: u64,
    /// This insert degraded the cache to memory-only.
    pub degraded_now: bool,
}

/// `Interrupted` retries per line before [`LineAppender::append`] gives
/// up.
const APPEND_RETRIES: u32 = 3;

/// Retry `n` (0-based) sleeps `APPEND_BACKOFF_US << n` microseconds:
/// 50, 100, 200 — bounded, tiny, and only ever paid on a failing disk.
const APPEND_BACKOFF_US: u64 = 50;

/// Appends whole lines to the cache file, **line-atomically**: each
/// line, newline included, goes to the file in one `write_all`, so
/// while appends succeed the file is a clean prefix of complete lines,
/// and a killed process tears at most the final one.
///
/// Every write attempt, retries included, takes the next 1-based
/// attempt index, and [`FaultPlan::cache_write_fault`] is asked about
/// that index, so a retried transient fault can clear. A failed
/// attempt is retried up to [`APPEND_RETRIES`] times, after 50, 100 and
/// 200 µs, when it is `ErrorKind::Interrupted`. An injected short write
/// puts half the line in the file for real (the torn tail
/// [`ScheduleCache::open`] must cope with) and fails with
/// `ErrorKind::WriteZero`, the kind `write_all` reports for a short
/// write. Any failure that is not retried is returned; the cache then
/// stops persisting.
struct LineAppender {
    file: File,
    plan: FaultPlan,
    attempts: u64,
    retries: u64,
}

impl LineAppender {
    /// Append one complete line (its trailing newline included).
    fn append(&mut self, line: &[u8]) -> io::Result<()> {
        let mut retry = 0u32;
        loop {
            self.attempts += 1;
            let outcome = match self.plan.cache_write_fault(self.attempts) {
                Some(IoFault::ShortWrite) => {
                    let _ = self.file.write_all(&line[..line.len() / 2]);
                    Err(IoFault::ShortWrite.to_io_error())
                }
                Some(fault) => Err(fault.to_io_error()),
                None => self.file.write_all(line),
            };
            match outcome {
                Ok(()) => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted && retry < APPEND_RETRIES => {
                    self.retries += 1;
                    std::thread::sleep(Duration::from_micros(APPEND_BACKOFF_US << retry));
                    retry += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// In-memory map plus append-only persistence. Not internally
/// synchronised — the daemon serialises access behind one mutex.
pub struct ScheduleCache {
    entries: BTreeMap<u64, String>,
    path: Option<PathBuf>,
    /// The persisted log; `None` when memory-only or degraded.
    log: Option<LineAppender>,
}

fn parse_entry(line: &str) -> Option<(u64, String)> {
    let v: Value = serde_json::from_str(line).ok()?;
    let key = v.get("key")?.as_str()?;
    if key.len() != 16 {
        return None;
    }
    let key = u64::from_str_radix(key, 16).ok()?;
    let result = v.get("result")?.as_str()?;
    // The stored result must itself be a JSON object — anything else
    // is corruption, not an entry.
    let parsed: Value = serde_json::from_str(result).ok()?;
    parsed.as_object()?;
    Some((key, result.to_string()))
}

fn render_entry(key: u64, result: &str) -> String {
    let escaped = serde_json::to_string(&Value::Str(result.to_string()))
        .unwrap_or_else(|_| "\"\"".to_string());
    format!("{{\"key\":\"{}\",\"result\":{escaped}}}\n", key_hex(key))
}

impl ScheduleCache {
    /// A memory-only cache (no persistence).
    pub fn in_memory() -> ScheduleCache {
        ScheduleCache {
            entries: BTreeMap::new(),
            path: None,
            log: None,
        }
    }

    /// Open (or create) a persisted cache at `path`, recovering the
    /// valid prefix of whatever is there. I/O errors degrade to a
    /// memory-only cache — the daemon must come up regardless.
    pub fn open(path: &Path, plan: FaultPlan) -> (ScheduleCache, LoadReport) {
        let mut report = LoadReport::default();
        let mut entries = BTreeMap::new();
        match std::fs::read_to_string(path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(_) => {
                // Unreadable file: treat as fully corrupt, start cold.
                report.dropped_corrupt += 1;
            }
            Ok(text) => {
                let ends_clean = text.is_empty() || text.ends_with('\n');
                let lines: Vec<&str> = text.lines().collect();
                for (i, line) in lines.iter().enumerate() {
                    let last = i + 1 == lines.len();
                    match parse_entry(line) {
                        Some((key, result)) => {
                            entries.insert(key, result);
                        }
                        None if last => report.dropped_torn_tail = true,
                        None => report.dropped_corrupt += 1,
                    }
                }
                if !ends_clean && !report.dropped_torn_tail {
                    // A final line that parsed but was never terminated
                    // still counts as torn for reporting purposes; the
                    // entry itself is kept (its JSON was complete).
                    report.dropped_torn_tail = true;
                }
            }
        }
        report.recovered = entries.len();

        // Compact: when anything was dropped the file has garbage in
        // it; rewrite the survivors so appended lines stay parseable.
        let needs_compact = report.dropped_torn_tail || report.dropped_corrupt > 0;
        if needs_compact {
            let mut out = String::new();
            for (key, result) in &entries {
                out.push_str(&render_entry(*key, result));
            }
            let _ = std::fs::write(path, out);
        }

        let file = OpenOptions::new().create(true).append(true).open(path).ok();
        (
            ScheduleCache {
                entries,
                path: Some(path.to_path_buf()),
                log: file.map(|file| LineAppender {
                    file,
                    plan,
                    attempts: 0,
                    retries: 0,
                }),
            },
            report,
        )
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether inserts still reach the disk.
    pub fn persisting(&self) -> bool {
        self.log.is_some()
    }

    /// The stored result for `key`, if any.
    pub fn get(&self, key: u64) -> Option<&str> {
        self.entries.get(&key).map(String::as_str)
    }

    /// Drop `key` (the corruption-bypass path: the entry is rescheduled
    /// cold and re-inserted).
    pub fn remove(&mut self, key: u64) {
        self.entries.remove(&key);
    }

    /// Insert `result` under `key`, persisting when a file is attached.
    /// An append that fails degrades the cache to memory-only.
    pub fn insert(&mut self, key: u64, result: &str) -> WriteReport {
        self.entries.insert(key, result.to_string());
        let Some(log) = &mut self.log else {
            return WriteReport::default();
        };
        let before = log.retries;
        let appended = log.append(render_entry(key, result).as_bytes());
        let report = WriteReport {
            retries: log.retries - before,
            degraded_now: appended.is_err(),
        };
        if appended.is_err() {
            // Keep answering from memory, stop touching the disk. The
            // file's valid prefix (plus at most one torn line) is what
            // the next restart recovers.
            self.log = None;
        }
        report
    }

    /// The backing path, if persisted.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tms_faults::FaultRates;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tmsd-cache-test-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn round_trips_entries_across_reopen() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let (mut c, r) = ScheduleCache::open(&path, FaultPlan::disabled());
        assert_eq!(r, LoadReport::default());
        c.insert(1, r#"{"ii":4}"#);
        c.insert(0xdead_beef_0000_0001, r#"{"ii":7,"name":"x"}"#);
        drop(c);
        let (c2, r2) = ScheduleCache::open(&path, FaultPlan::disabled());
        assert_eq!(r2.recovered, 2);
        assert!(!r2.dropped_torn_tail);
        assert_eq!(c2.get(1), Some(r#"{"ii":4}"#));
        assert_eq!(
            c2.get(0xdead_beef_0000_0001),
            Some(r#"{"ii":7,"name":"x"}"#)
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_final_line_is_dropped_and_compacted() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let (mut c, _) = ScheduleCache::open(&path, FaultPlan::disabled());
        c.insert(1, r#"{"ii":4}"#);
        c.insert(2, r#"{"ii":5}"#);
        drop(c);
        // Tear the last line mid-way, as a killed process would.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 9]).unwrap();
        let (c2, r) = ScheduleCache::open(&path, FaultPlan::disabled());
        assert_eq!(r.recovered, 1);
        assert!(r.dropped_torn_tail);
        assert_eq!(r.dropped_corrupt, 0);
        assert_eq!(c2.get(1), Some(r#"{"ii":4}"#));
        assert_eq!(c2.get(2), None);
        drop(c2);
        // Compaction left a clean file: reopening drops nothing.
        let (_, r3) = ScheduleCache::open(&path, FaultPlan::disabled());
        assert_eq!(r3.recovered, 1);
        assert!(!r3.dropped_torn_tail);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mid_file_corruption_is_counted_and_survivors_kept() {
        let path = tmp("midfile");
        let _ = std::fs::remove_file(&path);
        let good1 = render_entry(10, r#"{"ii":1}"#);
        let good2 = render_entry(11, r#"{"ii":2}"#);
        std::fs::write(&path, format!("{good1}garbage not json\n{good2}")).unwrap();
        let (c, r) = ScheduleCache::open(&path, FaultPlan::disabled());
        assert_eq!(r.recovered, 2);
        assert_eq!(r.dropped_corrupt, 1);
        assert_eq!(c.get(10), Some(r#"{"ii":1}"#));
        assert_eq!(c.get(11), Some(r#"{"ii":2}"#));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn transient_write_faults_retry_and_clear() {
        let path = tmp("transient");
        let _ = std::fs::remove_file(&path);
        let plan = FaultPlan::with_rates(
            31,
            FaultRates {
                cache_write_transient_per_1024: 1024,
                ..FaultRates::default()
            },
        );
        let (mut c, _) = ScheduleCache::open(&path, plan);
        let w = c.insert(1, r#"{"ii":4}"#);
        // Every attempt faults transiently, so retries exhaust and the
        // cache degrades — but the entry stays resident.
        assert_eq!(w.retries, u64::from(APPEND_RETRIES));
        assert!(w.degraded_now);
        assert!(!c.persisting());
        assert_eq!(c.get(1), Some(r#"{"ii":4}"#));
        let _ = std::fs::remove_file(&path);
    }

    /// A cache result for entry `i`: a distinct JSON object.
    fn result(i: u64) -> String {
        format!("{{\"ii\":{i}}}")
    }

    #[test]
    fn partial_transient_faults_are_retried_away() {
        let path = tmp("flaky");
        let _ = std::fs::remove_file(&path);
        // 1 write attempt in 8 fails transiently; each gets up to 3
        // retries at fresh attempt indices. The seed fixes the whole
        // sequence, so this cannot flake.
        let plan = FaultPlan::with_rates(
            0xC0FFEE,
            FaultRates {
                cache_write_transient_per_1024: 128,
                cache_write_fail_after: None,
                cache_write_torn_at: None,
                ..FaultRates::default()
            },
        );
        let (mut c, _) = ScheduleCache::open(&path, plan);
        let mut retries = 0;
        for i in 0..200u64 {
            let w = c.insert(i, &result(i));
            assert!(!w.degraded_now, "insert {i} exhausted its retries");
            retries += w.retries;
        }
        assert!(retries > 0, "the fault plan never fired");
        assert!(c.persisting());
        drop(c);
        let (c2, r) = ScheduleCache::open(&path, FaultPlan::disabled());
        assert_eq!(
            r,
            LoadReport {
                recovered: 200,
                dropped_torn_tail: false,
                dropped_corrupt: 0,
            }
        );
        for i in 0..200u64 {
            assert_eq!(c2.get(i), Some(result(i).as_str()));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn disk_full_degrades_at_once_and_keeps_whole_lines() {
        let path = tmp("diskfull");
        let _ = std::fs::remove_file(&path);
        let plan = FaultPlan::with_rates(
            2,
            FaultRates {
                cache_write_transient_per_1024: 0,
                cache_write_fail_after: Some(5),
                cache_write_torn_at: None,
                ..FaultRates::default()
            },
        );
        let (mut c, _) = ScheduleCache::open(&path, plan);
        for i in 0..5u64 {
            assert_eq!(c.insert(i, &result(i)), WriteReport::default());
        }
        // Disk-full is not transient: no retry loop, degrade at once.
        assert_eq!(
            c.insert(5, &result(5)),
            WriteReport {
                retries: 0,
                degraded_now: true,
            }
        );
        assert!(!c.persisting());
        for i in 6..10u64 {
            assert_eq!(c.insert(i, &result(i)), WriteReport::default());
        }
        for i in 0..10u64 {
            assert_eq!(c.get(i), Some(result(i).as_str()), "memory lost {i}");
        }
        drop(c);
        // Disk-full never tears a line: exactly the first 5 survive.
        let (c2, r) = ScheduleCache::open(&path, FaultPlan::disabled());
        assert_eq!(
            r,
            LoadReport {
                recovered: 5,
                dropped_torn_tail: false,
                dropped_corrupt: 0,
            }
        );
        assert_eq!(c2.get(4), Some(result(4).as_str()));
        assert_eq!(c2.get(5), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_write_degrades_and_restart_recovers_prefix() {
        let path = tmp("tornwrite");
        let _ = std::fs::remove_file(&path);
        let plan = FaultPlan::with_rates(
            37,
            FaultRates {
                cache_write_transient_per_1024: 0,
                cache_write_torn_at: Some(2),
                ..FaultRates::default()
            },
        );
        let (mut c, _) = ScheduleCache::open(&path, plan);
        assert_eq!(c.insert(1, r#"{"ii":4}"#), WriteReport::default());
        let w = c.insert(2, r#"{"ii":5}"#);
        assert!(w.degraded_now, "a torn write must degrade immediately");
        assert!(!c.persisting());
        // Memory still serves both entries this run.
        assert_eq!(c.get(2), Some(r#"{"ii":5}"#));
        drop(c);
        // Restart: the intact first line survives, the torn second is
        // dropped by lossy recovery.
        let (c2, r) = ScheduleCache::open(&path, FaultPlan::disabled());
        assert_eq!(c2.get(1), Some(r#"{"ii":4}"#));
        assert_eq!(c2.get(2), None);
        assert!(r.dropped_torn_tail);
        let _ = std::fs::remove_file(&path);
    }
}
