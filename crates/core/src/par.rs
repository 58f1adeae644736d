//! Deterministic bounded worker pools.
//!
//! Every parallel path in the system — the `tms-verify` family sweeps,
//! the per-loop experiment drivers, tmsd's request batches — funnels
//! through [`par_map`]: a scoped `std::thread` fan-out over a slice
//! whose results are always returned **in input order**, regardless of
//! which worker finished first.
//! Callers therefore get bit-identical output at any worker count,
//! which is what lets the determinism tests compare `jobs=1` against
//! `jobs=4` directly. Parallelism is always across loops or requests:
//! one TMS candidate search runs serially on the worker that owns it.
//!
//! No external dependencies: work distribution is a single shared
//! atomic cursor (self-balancing — an expensive item simply keeps one
//! worker busy while the others drain the tail), and each worker
//! collects `(index, result)` pairs that are merged and sorted once at
//! the end.
//!
//! # Panic containment
//!
//! A panicking item must not take down the whole fan-out (one
//! pathological loop would otherwise abort an entire sharded sweep),
//! and — just as important — must not perturb the results of its
//! neighbours. Each item runs under [`catch_unwind`]; on a panic the
//! worker notes the item's index and moves on. After the pool drains,
//! the failed items are re-executed serially **in input order**, so a
//! transient panic (e.g. an injected fault that fires once) converges
//! to exactly the serial result at any worker count. An item that
//! panics again on the serial retry has a genuine, deterministic bug —
//! that second panic propagates. Every caught panic increments the
//! process-wide [`panics_caught`] counter so harnesses can assert on
//! containment.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide count of worker panics caught (and recovered) by
/// [`par_map`]. Monotonic; see [`panics_caught`].
static PANICS_CAUGHT: AtomicU64 = AtomicU64::new(0);

/// Total worker panics caught and recovered since process start.
/// Harnesses snapshot this before/after a region to check that every
/// injected panic was contained.
pub fn panics_caught() -> u64 {
    PANICS_CAUGHT.load(Ordering::Relaxed)
}

/// How many workers a parallel region may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Run on the calling thread (no spawning, no overhead). The
    /// default everywhere: parallelism is opt-in per call site.
    #[default]
    Serial,
    /// A fixed worker count (values below 2 behave like `Serial`).
    Jobs(usize),
    /// One worker per available hardware thread.
    Auto,
}

impl Parallelism {
    /// Map a `--jobs N` style count: `0` means auto-detect, `1` is
    /// serial, anything else a fixed pool.
    pub fn from_jobs(n: usize) -> Self {
        match n {
            0 => Parallelism::Auto,
            1 => Parallelism::Serial,
            n => Parallelism::Jobs(n),
        }
    }

    /// Parse a `--jobs N` / `TMS_JOBS` style value. This is the single
    /// chokepoint every CLI surface funnels through: an unparseable
    /// count is a structured error the caller must surface (exit 2),
    /// never a silent fall-through to a default worker count.
    pub fn parse_jobs(s: &str) -> Result<Self, String> {
        let t = s.trim();
        t.parse::<usize>().map(Self::from_jobs).map_err(|_| {
            format!("invalid jobs value {t:?}: expected a non-negative integer (0 = auto)")
        })
    }

    /// The `TMS_JOBS` environment override. `Ok(None)` when unset;
    /// `Err` when set to something unparseable, so a typo'd override
    /// fails loudly instead of quietly running at the default width.
    pub fn from_env() -> Result<Option<Self>, String> {
        match std::env::var("TMS_JOBS") {
            Err(_) => Ok(None),
            Ok(v) => Self::parse_jobs(&v)
                .map(Some)
                .map_err(|e| format!("TMS_JOBS: {e}")),
        }
    }

    /// Concrete worker count this policy resolves to on this machine.
    pub fn workers(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Jobs(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

/// Map `f` over `items` on up to [`Parallelism::workers`] threads,
/// returning results in input order. `f` receives the item index so
/// callers can seed per-item state deterministically.
pub fn par_map<T, R, F>(par: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let cursor = AtomicUsize::new(0);
    let failed: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    // One worker's loop: claim the next index, run it contained, and
    // keep `(index, result)` pairs. The serial path runs it inline.
    let drain = || {
        let mut out: Vec<(usize, R)> = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break out;
            }
            match catch_unwind(AssertUnwindSafe(|| f(i, &items[i]))) {
                Ok(r) => out.push((i, r)),
                Err(_) => {
                    PANICS_CAUGHT.fetch_add(1, Ordering::Relaxed);
                    failed
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push(i);
                }
            }
        }
    };
    let workers = par.workers().min(items.len()).max(1);
    let mut merged = if workers <= 1 {
        drain()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(drain)).collect();
            handles
                .into_iter()
                // With per-item containment the worker body cannot
                // unwind; this expect is an unreachable backstop.
                .flat_map(|h| h.join().expect("par_map worker panicked"))
                .collect()
        })
    };

    // Re-execute failed items serially in input order, then sort
    // everything back to input order. A second panic here is a
    // deterministic bug and propagates to the caller.
    let mut failed = failed
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    failed.sort_unstable();
    for i in failed {
        merged.push((i, f(i, &items[i])));
    }
    debug_assert_eq!(merged.len(), items.len());
    merged.sort_unstable_by_key(|&(i, _)| i);
    merged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_input_order_at_any_worker_count() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for par in [
            Parallelism::Serial,
            Parallelism::Jobs(2),
            Parallelism::Jobs(7),
            Parallelism::Auto,
        ] {
            let got = par_map(par, &items, |_, &x| x * x);
            assert_eq!(got, expect, "{par:?}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: [u32; 0] = [];
        assert!(par_map(Parallelism::Jobs(4), &items, |_, &x| x).is_empty());
    }

    #[test]
    fn from_jobs_maps_zero_to_auto_and_one_to_serial() {
        assert_eq!(Parallelism::from_jobs(0), Parallelism::Auto);
        assert_eq!(Parallelism::from_jobs(1), Parallelism::Serial);
        assert_eq!(Parallelism::from_jobs(6), Parallelism::Jobs(6));
        assert_eq!(Parallelism::Serial.workers(), 1);
        assert_eq!(Parallelism::Jobs(3).workers(), 3);
        assert!(Parallelism::Auto.workers() >= 1);
    }

    #[test]
    fn parse_jobs_accepts_counts_and_rejects_garbage() {
        assert_eq!(Parallelism::parse_jobs("0"), Ok(Parallelism::Auto));
        assert_eq!(Parallelism::parse_jobs(" 1 "), Ok(Parallelism::Serial));
        assert_eq!(Parallelism::parse_jobs("8"), Ok(Parallelism::Jobs(8)));
        for bad in ["", "auto", "-2", "3.5", "4x"] {
            let err = Parallelism::parse_jobs(bad).unwrap_err();
            assert!(err.contains("invalid jobs value"), "{bad:?}: {err}");
        }
    }

    /// The only test here that makes a pool catch a panic, so the
    /// process-wide `panics_caught` delta is its own.
    #[test]
    fn transient_panic_is_caught_and_retried_in_order() {
        use std::collections::BTreeSet;
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3).collect();
        for par in [Parallelism::Serial, Parallelism::Jobs(4)] {
            // Items 5 and 40 panic on their first execution only.
            let tripped: Mutex<BTreeSet<usize>> = Mutex::new(BTreeSet::new());
            let before = panics_caught();
            let got = par_map(par, &items, |i, &x| {
                if (i == 5 || i == 40) && tripped.lock().unwrap().insert(i) {
                    panic!("injected");
                }
                x * 3
            });
            assert_eq!(got, expect, "{par:?}");
            assert_eq!(panics_caught() - before, 2, "{par:?}");
        }
    }
}
