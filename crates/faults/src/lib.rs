//! Deterministic fault injection for the TMS pipeline.
//!
//! The paper's premise is surviving failure: TMS schedules *around*
//! misspeculation and the SpMT engine squashes and re-executes violated
//! threads. This crate holds the harness to the same standard. A
//! [`FaultPlan`] is a seeded, deterministic oracle that decides — at
//! named sites spread across the scheduler, the simulator, the worker
//! pool and the trace spill sink — whether a fault fires, and every
//! layer it touches must degrade gracefully instead of aborting:
//!
//! | site | injected fault | expected degradation |
//! |------|----------------|----------------------|
//! | [`SITE_SCHED_BUDGET`] | a tiny `(II, C_delay, P_max)` attempt budget for selected loops | `schedule_tms` falls back to the plain SMS schedule and reports `Diagnostic::DegradedToSms` |
//! | [`SITE_PAR_PANIC`] | a panicking worker on a chosen item (fires once per key) | `tms_core::par` catches the unwind and re-executes the item serially — results stay bit-identical at any `--jobs` |
//! | [`SITE_SPILL_WRITE`] | `ErrorKind::Interrupted`, disk-full, or a short (torn) write on a spill line | the streaming sink retries with bounded backoff, then degrades to the in-memory sink and records `trace.spill.degraded` |
//! | [`SITE_SIM_MISSPEC`] | a forced misspeculation burst on selected `(loop, thread)` pairs | the engine squashes and replays; the committed memory image must still equal the sequential reference |
//! | [`SITE_SIM_JITTER`] | extra cycles on a thread's inter-core ring-queue arrivals | RECV stalls grow; the run slows but stays correct |
//! | [`SITE_DAEMON_ACCEPT`] | `ErrorKind::Interrupted` on selected `tmsd` accepts | the accept loop backs off and retries; the connection stays queued in the listen backlog, never dropped |
//! | [`SITE_DAEMON_CACHE_READ`] | a corrupt schedule-cache entry on first read of selected keys | `tmsd` bypasses the entry (counted), reschedules cold, and overwrites it — never serves a wrong answer |
//! | [`SITE_DAEMON_CACHE_WRITE`] | `Interrupted`, disk-full, or a torn write on a cache-persist line | bounded retry + backoff, then the cache degrades to memory-only; restart recovers the valid file prefix |
//!
//! # Determinism
//!
//! Every decision is a pure function of `(seed, site, key)` — never of
//! wall-clock time or cross-thread arrival order. Callers key decisions
//! by *stable identifiers* (loop name, thread index, spill-write index),
//! so the same plan replayed at `--jobs 1/2/4` injects exactly the same
//! faults and the sweep report and merged metrics stay byte-identical.
//! The only mutable state is the *once-latch* used by sites that must
//! fire at most once per key (a panic that re-fires on the recovery
//! path would defeat the recovery), plus the per-site injection
//! accounting surfaced by [`FaultPlan::injected`]; both are keyed, not
//! ordered, so they too are schedule-independent.
//!
//! A disabled plan ([`FaultPlan::disabled`], also the [`Default`])
//! carries no allocation at all and every query is a one-branch no-op,
//! mirroring `tms_trace::Trace::disabled`.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::sync::{Arc, Mutex, MutexGuard};

/// Scheduler site: force a tiny attempt budget on selected loops.
pub const SITE_SCHED_BUDGET: &str = "sched.budget";
/// Worker-pool site: panic on the first execution of selected items.
pub const SITE_PAR_PANIC: &str = "par.worker_panic";
/// Trace-sink site: fail spill writes (transient, torn, or disk-full).
pub const SITE_SPILL_WRITE: &str = "trace.spill.write";
/// Engine site: force a misspeculation on selected `(loop, thread)`s.
pub const SITE_SIM_MISSPEC: &str = "sim.misspec";
/// Engine site: jitter a thread's ring-queue arrival times.
pub const SITE_SIM_JITTER: &str = "sim.stall_jitter";
/// Daemon site: transient `Interrupted` errors on `tmsd` accepts.
pub const SITE_DAEMON_ACCEPT: &str = "daemon.accept";
/// Daemon site: corrupt a persisted schedule-cache entry on read.
pub const SITE_DAEMON_CACHE_READ: &str = "daemon.cache.read";
/// Daemon site: fail schedule-cache persist writes.
pub const SITE_DAEMON_CACHE_WRITE: &str = "daemon.cache.write";

/// What an injected spill-write fault looks like to the sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// `ErrorKind::Interrupted` — transient; a retry should succeed.
    Interrupted,
    /// `ErrorKind::StorageFull` — persistent; retries are futile and
    /// the sink should degrade after its retry budget.
    DiskFull,
    /// Only a prefix of the line reaches the file (a torn write, as a
    /// killed process would leave). The file's tail is no longer
    /// line-atomic; the sink must degrade immediately and readers must
    /// recover the valid prefix.
    ShortWrite,
}

impl IoFault {
    /// Render the fault as the `io::Error` the sink would have seen.
    pub fn to_io_error(self) -> io::Error {
        match self {
            IoFault::Interrupted => {
                io::Error::new(io::ErrorKind::Interrupted, "injected transient write fault")
            }
            IoFault::DiskFull => {
                io::Error::new(io::ErrorKind::StorageFull, "injected disk-full fault")
            }
            IoFault::ShortWrite => {
                io::Error::new(io::ErrorKind::WriteZero, "injected short (torn) write")
            }
        }
    }
}

/// Per-site firing rates and parameters of a plan. Rates are expressed
/// per 1024 keys: a rate of 64 selects ~6% of keys, deterministically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Fraction of loops (per 1024) forced into a tiny attempt budget.
    pub sched_budget_per_1024: u32,
    /// The injected attempt budget for selected loops.
    pub sched_budget_attempts: usize,
    /// Fraction of worker items (per 1024) whose first execution
    /// panics.
    pub worker_panic_per_1024: u32,
    /// Fraction of spill writes (per 1024) hit with a transient
    /// `Interrupted` error.
    pub spill_transient_per_1024: u32,
    /// Spill write index (1-based) past which every write fails with
    /// disk-full. `None` disables the persistent-failure mode.
    pub spill_fail_after: Option<u64>,
    /// Spill write index (1-based) at which exactly one torn write is
    /// injected. `None` disables.
    pub spill_torn_at: Option<u64>,
    /// Fraction of `(loop, thread)` pairs (per 1024) forced to
    /// misspeculate once.
    pub misspec_per_1024: u32,
    /// Fraction of `(loop, thread)` pairs (per 1024) whose ring-queue
    /// arrivals are delayed.
    pub jitter_per_1024: u32,
    /// Largest injected arrival delay, in cycles (the actual delay is
    /// `1..=jitter_max_cycles`, drawn deterministically per key).
    pub jitter_max_cycles: u64,
    /// Fraction of `tmsd` accepts (per 1024) hit with a transient
    /// `Interrupted` error.
    pub accept_transient_per_1024: u32,
    /// Fraction of schedule-cache keys (per 1024) whose persisted entry
    /// reads back corrupt — once per key (the rewrite must stick).
    pub cache_read_corrupt_per_1024: u32,
    /// Fraction of cache persist writes (per 1024) hit with a transient
    /// `Interrupted` error.
    pub cache_write_transient_per_1024: u32,
    /// Cache persist write index (1-based) past which every write fails
    /// with disk-full. `None` disables.
    pub cache_write_fail_after: Option<u64>,
    /// Cache persist write index (1-based) at which exactly one torn
    /// write is injected. `None` disables.
    pub cache_write_torn_at: Option<u64>,
}

impl Default for FaultRates {
    /// The standard `--faults` campaign profile: every site armed, each
    /// at a rate low enough that most loops still exercise the happy
    /// path while every degradation ladder fires somewhere in a sweep.
    fn default() -> Self {
        FaultRates {
            sched_budget_per_1024: 96,
            sched_budget_attempts: 2,
            worker_panic_per_1024: 64,
            spill_transient_per_1024: 8,
            spill_fail_after: None,
            spill_torn_at: Some(5_000),
            misspec_per_1024: 48,
            jitter_per_1024: 48,
            jitter_max_cycles: 24,
            accept_transient_per_1024: 64,
            cache_read_corrupt_per_1024: 32,
            cache_write_transient_per_1024: 16,
            cache_write_fail_after: None,
            cache_write_torn_at: None,
        }
    }
}

struct Inner {
    seed: u64,
    rates: FaultRates,
    /// Once-latches: `(site, key)` pairs that have already fired.
    latched: Mutex<BTreeSet<(&'static str, String)>>,
    /// Injection accounting, per site.
    injected: Mutex<BTreeMap<&'static str, u64>>,
}

/// A seeded, deterministic fault-injection plan. Cheap to clone (all
/// clones share one latch/accounting state); the disabled plan is a
/// null pointer and every query short-circuits.
#[derive(Clone, Default)]
pub struct FaultPlan {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("FaultPlan(disabled)"),
            Some(p) => write!(f, "FaultPlan(seed=0x{:X})", p.seed),
        }
    }
}

/// splitmix64 finaliser: a full-avalanche bijection on `u64`.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// FNV-1a over `site`, a separator, and `key`, finished with [`mix`].
fn hash(seed: u64, site: &str, key: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ mix(seed);
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(site.as_bytes());
    eat(&[0xff]);
    eat(key.as_bytes());
    mix(h)
}

/// Stable content hash: FNV-1a over `parts`, each terminated by a
/// `0xff` byte (which never occurs in UTF-8, so part boundaries are
/// unambiguous — including empty and trailing parts), finished with
/// the `mix` splitmix64 finaliser. This is the same construction the
/// fault sites use for their decisions, exported for callers that need
/// a deterministic, process-independent key — notably the `tmsd`
/// content-addressed schedule cache. Not a cryptographic hash;
/// collisions are astronomically unlikely for the cache's working-set
/// sizes but an adversary could construct them.
pub fn stable_hash(seed: u64, parts: &[&str]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ mix(seed);
    for part in parts {
        for &b in part.as_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h = (h ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
    }
    mix(h)
}

/// Poison-tolerant lock: a panic while another clone held the guard
/// must not cascade into the fault plan itself.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl FaultPlan {
    /// The inert plan: no site ever fires. This is also the [`Default`].
    pub fn disabled() -> FaultPlan {
        FaultPlan { inner: None }
    }

    /// A plan with the standard campaign profile ([`FaultRates::default`]).
    pub fn seeded(seed: u64) -> FaultPlan {
        Self::with_rates(seed, FaultRates::default())
    }

    /// A plan with explicit per-site rates.
    pub fn with_rates(seed: u64, rates: FaultRates) -> FaultPlan {
        FaultPlan {
            inner: Some(Arc::new(Inner {
                seed,
                rates,
                latched: Mutex::new(BTreeSet::new()),
                injected: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// Whether any site can fire.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The plan's seed (`None` when disabled).
    pub fn seed(&self) -> Option<u64> {
        self.inner.as_ref().map(|p| p.seed)
    }

    /// The plan's rates (`None` when disabled).
    pub fn rates(&self) -> Option<FaultRates> {
        self.inner.as_ref().map(|p| p.rates)
    }

    fn chance(p: &Inner, site: &'static str, key: &str, per_1024: u32) -> bool {
        per_1024 > 0 && hash(p.seed, site, key) % 1024 < u64::from(per_1024)
    }

    fn note(p: &Inner, site: &'static str) {
        *lock(&p.injected).entry(site).or_insert(0) += 1;
    }

    /// Fire-once latch: true the first time `(site, key)` is selected,
    /// false on every later query for the same pair.
    fn latch_once(p: &Inner, site: &'static str, key: &str) -> bool {
        let mut latched = lock(&p.latched);
        if latched.contains(&(site, key.to_string())) {
            return false;
        }
        latched.insert((site, key.to_string()));
        true
    }

    /// The injected attempt budget for `loop_name`, if this plan
    /// selects it ([`SITE_SCHED_BUDGET`]).
    pub fn sched_budget(&self, loop_name: &str) -> Option<usize> {
        let p = self.inner.as_ref()?;
        if !Self::chance(
            p,
            SITE_SCHED_BUDGET,
            loop_name,
            p.rates.sched_budget_per_1024,
        ) {
            return None;
        }
        Self::note(p, SITE_SCHED_BUDGET);
        Some(p.rates.sched_budget_attempts)
    }

    /// True exactly once for each selected `key`: the caller should
    /// panic, and the recovery path's re-execution of the same key will
    /// see `false` ([`SITE_PAR_PANIC`]).
    pub fn worker_panic_once(&self, key: &str) -> bool {
        let Some(p) = &self.inner else { return false };
        if !Self::chance(p, SITE_PAR_PANIC, key, p.rates.worker_panic_per_1024) {
            return false;
        }
        if !Self::latch_once(p, SITE_PAR_PANIC, key) {
            return false;
        }
        Self::note(p, SITE_PAR_PANIC);
        true
    }

    /// The fault injected on spill write number `write_index` (1-based),
    /// if any ([`SITE_SPILL_WRITE`]). Pure in the index, so retries of
    /// the *same* write see the same answer — the sink advances the
    /// index per attempt, which is what lets a transient fault clear.
    pub fn spill_write_fault(&self, write_index: u64) -> Option<IoFault> {
        let p = self.inner.as_ref()?;
        let fault = if p.rates.spill_torn_at == Some(write_index) {
            IoFault::ShortWrite
        } else if p.rates.spill_fail_after.is_some_and(|n| write_index > n) {
            IoFault::DiskFull
        } else {
            let key = write_index.to_string();
            if !Self::chance(p, SITE_SPILL_WRITE, &key, p.rates.spill_transient_per_1024) {
                return None;
            }
            IoFault::Interrupted
        };
        Self::note(p, SITE_SPILL_WRITE);
        Some(fault)
    }

    /// True exactly once for each selected `(loop, thread)` pair: the
    /// engine should treat the thread's first execution as violated and
    /// replay it ([`SITE_SIM_MISSPEC`]). The once-latch is what lets
    /// the replay converge.
    pub fn forced_misspec(&self, loop_key: &str, thread: u64) -> bool {
        let Some(p) = &self.inner else { return false };
        let key = format!("{loop_key}#{thread}");
        if !Self::chance(p, SITE_SIM_MISSPEC, &key, p.rates.misspec_per_1024) {
            return false;
        }
        if !Self::latch_once(p, SITE_SIM_MISSPEC, &key) {
            return false;
        }
        Self::note(p, SITE_SIM_MISSPEC);
        true
    }

    /// Extra cycles injected into the ring-queue arrivals of `thread`
    /// (0 when the pair is not selected) ([`SITE_SIM_JITTER`]). Pure —
    /// replays of the thread see the same jitter.
    pub fn stall_jitter(&self, loop_key: &str, thread: u64) -> u64 {
        let Some(p) = &self.inner else { return 0 };
        let key = format!("{loop_key}#{thread}");
        if !Self::chance(p, SITE_SIM_JITTER, &key, p.rates.jitter_per_1024) {
            return 0;
        }
        Self::note(p, SITE_SIM_JITTER);
        let span = p.rates.jitter_max_cycles.max(1);
        1 + hash(p.seed, SITE_SIM_JITTER, &format!("{key}!amount")) % span
    }

    /// The fault injected on `tmsd` accept attempt `accept_index`
    /// (1-based), if any ([`SITE_DAEMON_ACCEPT`]). Always transient
    /// (`Interrupted`): the accept loop backs off and retries, and the
    /// pending connection waits in the listen backlog. Pure in the
    /// index — the loop advances it per attempt, which is what lets a
    /// transient fault clear.
    pub fn accept_fault(&self, accept_index: u64) -> Option<IoFault> {
        let p = self.inner.as_ref()?;
        let key = accept_index.to_string();
        if !Self::chance(
            p,
            SITE_DAEMON_ACCEPT,
            &key,
            p.rates.accept_transient_per_1024,
        ) {
            return None;
        }
        Self::note(p, SITE_DAEMON_ACCEPT);
        Some(IoFault::Interrupted)
    }

    /// True exactly once for each selected cache key: the daemon should
    /// treat the persisted entry as corrupt, bypass it, and reschedule
    /// cold ([`SITE_DAEMON_CACHE_READ`]). The once-latch is what lets
    /// the overwritten entry be trusted afterwards.
    pub fn cache_read_corrupt(&self, key: &str) -> bool {
        let Some(p) = &self.inner else { return false };
        if !Self::chance(
            p,
            SITE_DAEMON_CACHE_READ,
            key,
            p.rates.cache_read_corrupt_per_1024,
        ) {
            return false;
        }
        if !Self::latch_once(p, SITE_DAEMON_CACHE_READ, key) {
            return false;
        }
        Self::note(p, SITE_DAEMON_CACHE_READ);
        true
    }

    /// The fault injected on cache persist write number `write_index`
    /// (1-based), if any ([`SITE_DAEMON_CACHE_WRITE`]). Same contract
    /// as [`FaultPlan::spill_write_fault`]: pure in the index, torn and
    /// disk-full modes take precedence over the transient rate.
    pub fn cache_write_fault(&self, write_index: u64) -> Option<IoFault> {
        let p = self.inner.as_ref()?;
        let fault = if p.rates.cache_write_torn_at == Some(write_index) {
            IoFault::ShortWrite
        } else if p
            .rates
            .cache_write_fail_after
            .is_some_and(|n| write_index > n)
        {
            IoFault::DiskFull
        } else {
            let key = write_index.to_string();
            if !Self::chance(
                p,
                SITE_DAEMON_CACHE_WRITE,
                &key,
                p.rates.cache_write_transient_per_1024,
            ) {
                return None;
            }
            IoFault::Interrupted
        };
        Self::note(p, SITE_DAEMON_CACHE_WRITE);
        Some(fault)
    }

    /// Per-site injection counts so far, for campaign summaries. Keyed
    /// decisions make the totals (though not the query order)
    /// deterministic for a fixed workload at any worker count.
    pub fn injected(&self) -> BTreeMap<String, u64> {
        match &self.inner {
            None => BTreeMap::new(),
            Some(p) => lock(&p.injected)
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
        }
    }

    /// Total injections across every site.
    pub fn injected_total(&self) -> u64 {
        self.injected().values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_fires() {
        let p = FaultPlan::disabled();
        assert!(!p.is_enabled());
        assert_eq!(p.seed(), None);
        for i in 0..2000u64 {
            assert_eq!(p.sched_budget(&format!("l{i}")), None);
            assert!(!p.worker_panic_once(&format!("l{i}")));
            assert_eq!(p.spill_write_fault(i), None);
            assert!(!p.forced_misspec("l", i));
            assert_eq!(p.stall_jitter("l", i), 0);
        }
        assert!(p.injected().is_empty());
        assert!(!FaultPlan::default().is_enabled());
    }

    #[test]
    fn decisions_are_deterministic_and_key_local() {
        let a = FaultPlan::seeded(0xC0FFEE);
        let b = FaultPlan::seeded(0xC0FFEE);
        // Query b in a scrambled order: per-key answers must agree.
        for i in (0..500u64).rev() {
            let name = format!("loop{i}");
            assert_eq!(
                a.sched_budget(&name).is_some(),
                b.sched_budget(&name).is_some()
            );
            assert_eq!(a.stall_jitter(&name, i), b.stall_jitter(&name, i));
        }
        for i in 0..500u64 {
            let name = format!("loop{i}");
            // Re-query: pure sites answer identically.
            assert_eq!(a.sched_budget(&name), b.sched_budget(&name));
        }
    }

    #[test]
    fn seeds_change_the_selection() {
        let a = FaultPlan::seeded(1);
        let b = FaultPlan::seeded(2);
        let pick = |p: &FaultPlan| -> Vec<bool> {
            (0..1024u64)
                .map(|i| p.sched_budget(&format!("l{i}")).is_some())
                .collect()
        };
        assert_ne!(pick(&a), pick(&b), "different seeds, same selection");
    }

    #[test]
    fn rates_scale_the_selection() {
        let hits = |per_1024: u32| -> usize {
            let p = FaultPlan::with_rates(
                7,
                FaultRates {
                    sched_budget_per_1024: per_1024,
                    ..FaultRates::default()
                },
            );
            (0..4096u64)
                .filter(|i| p.sched_budget(&format!("l{i}")).is_some())
                .count()
        };
        assert_eq!(hits(0), 0);
        assert_eq!(hits(1024), 4096);
        let mid = hits(128);
        // 128/1024 = 12.5%; allow wide slack, the point is the scale.
        assert!((200..=900).contains(&mid), "{mid} hits at 128/1024");
    }

    #[test]
    fn panic_site_fires_exactly_once_per_key() {
        let p = FaultPlan::with_rates(
            3,
            FaultRates {
                worker_panic_per_1024: 1024,
                ..FaultRates::default()
            },
        );
        assert!(p.worker_panic_once("k"));
        assert!(!p.worker_panic_once("k"), "latch must hold");
        assert!(p.worker_panic_once("other"));
        assert_eq!(p.injected()[SITE_PAR_PANIC], 2);
    }

    #[test]
    fn forced_misspec_latches_per_thread() {
        let p = FaultPlan::with_rates(
            5,
            FaultRates {
                misspec_per_1024: 1024,
                ..FaultRates::default()
            },
        );
        assert!(p.forced_misspec("loop", 3));
        assert!(!p.forced_misspec("loop", 3), "replay must not re-fire");
        assert!(p.forced_misspec("loop", 4));
    }

    #[test]
    fn spill_faults_cover_all_three_kinds() {
        let p = FaultPlan::with_rates(
            11,
            FaultRates {
                spill_transient_per_1024: 1024,
                spill_fail_after: Some(10),
                spill_torn_at: Some(5),
                ..FaultRates::default()
            },
        );
        assert_eq!(p.spill_write_fault(5), Some(IoFault::ShortWrite));
        assert_eq!(p.spill_write_fault(11), Some(IoFault::DiskFull));
        assert_eq!(p.spill_write_fault(3), Some(IoFault::Interrupted));
        assert_eq!(
            p.spill_write_fault(3).unwrap().to_io_error().kind(),
            io::ErrorKind::Interrupted
        );
        // Below the fail point and off the torn index, a zero transient
        // rate means clean writes.
        let quiet = FaultPlan::with_rates(
            11,
            FaultRates {
                spill_transient_per_1024: 0,
                spill_fail_after: Some(10),
                spill_torn_at: None,
                ..FaultRates::default()
            },
        );
        assert_eq!(quiet.spill_write_fault(3), None);
    }

    #[test]
    fn jitter_is_bounded_and_pure() {
        let p = FaultPlan::with_rates(
            13,
            FaultRates {
                jitter_per_1024: 1024,
                jitter_max_cycles: 8,
                ..FaultRates::default()
            },
        );
        for t in 0..200u64 {
            let j = p.stall_jitter("loop", t);
            assert!((1..=8).contains(&j), "jitter {j} out of range");
            assert_eq!(j, p.stall_jitter("loop", t), "jitter must be pure");
        }
    }

    #[test]
    fn stable_hash_is_deterministic_and_boundary_sensitive() {
        let h = stable_hash(7, &["abc", "def"]);
        assert_eq!(h, stable_hash(7, &["abc", "def"]), "must be pure");
        assert_ne!(h, stable_hash(8, &["abc", "def"]), "seed must matter");
        // Part boundaries matter: "ab"+"cdef" must not collide with
        // "abc"+"def" even though the concatenated bytes agree.
        assert_ne!(h, stable_hash(7, &["ab", "cdef"]));
        assert_ne!(h, stable_hash(7, &["abcdef"]));
        assert_ne!(stable_hash(0, &[]), stable_hash(0, &[""]));
    }

    #[test]
    fn accept_faults_are_transient_and_rate_scaled() {
        let p = FaultPlan::with_rates(
            19,
            FaultRates {
                accept_transient_per_1024: 1024,
                ..FaultRates::default()
            },
        );
        assert_eq!(p.accept_fault(1), Some(IoFault::Interrupted));
        // Pure in the index: the same attempt re-queried agrees.
        assert_eq!(p.accept_fault(1), Some(IoFault::Interrupted));
        let quiet = FaultPlan::with_rates(
            19,
            FaultRates {
                accept_transient_per_1024: 0,
                ..FaultRates::default()
            },
        );
        for i in 1..200u64 {
            assert_eq!(quiet.accept_fault(i), None);
        }
    }

    #[test]
    fn cache_read_corruption_latches_per_key() {
        let p = FaultPlan::with_rates(
            23,
            FaultRates {
                cache_read_corrupt_per_1024: 1024,
                ..FaultRates::default()
            },
        );
        assert!(p.cache_read_corrupt("deadbeef"));
        assert!(
            !p.cache_read_corrupt("deadbeef"),
            "rewritten entry must be trusted"
        );
        assert!(p.cache_read_corrupt("cafebabe"));
        assert_eq!(p.injected()[SITE_DAEMON_CACHE_READ], 2);
    }

    #[test]
    fn cache_write_faults_cover_all_three_kinds() {
        let p = FaultPlan::with_rates(
            29,
            FaultRates {
                cache_write_transient_per_1024: 1024,
                cache_write_fail_after: Some(10),
                cache_write_torn_at: Some(5),
                ..FaultRates::default()
            },
        );
        assert_eq!(p.cache_write_fault(5), Some(IoFault::ShortWrite));
        assert_eq!(p.cache_write_fault(11), Some(IoFault::DiskFull));
        assert_eq!(p.cache_write_fault(3), Some(IoFault::Interrupted));
        let quiet = FaultPlan::with_rates(
            29,
            FaultRates {
                cache_write_transient_per_1024: 0,
                cache_write_fail_after: None,
                cache_write_torn_at: None,
                ..FaultRates::default()
            },
        );
        for i in 1..200u64 {
            assert_eq!(quiet.cache_write_fault(i), None);
        }
    }

    #[test]
    fn accounting_tracks_every_site() {
        let p = FaultPlan::with_rates(
            17,
            FaultRates {
                sched_budget_per_1024: 1024,
                worker_panic_per_1024: 1024,
                misspec_per_1024: 1024,
                jitter_per_1024: 1024,
                spill_transient_per_1024: 1024,
                accept_transient_per_1024: 1024,
                cache_read_corrupt_per_1024: 1024,
                cache_write_transient_per_1024: 1024,
                ..FaultRates::default()
            },
        );
        p.sched_budget("l");
        p.worker_panic_once("l");
        p.forced_misspec("l", 0);
        p.stall_jitter("l", 0);
        p.spill_write_fault(1);
        p.accept_fault(1);
        p.cache_read_corrupt("l");
        p.cache_write_fault(1);
        let counts = p.injected();
        for site in [
            SITE_SCHED_BUDGET,
            SITE_PAR_PANIC,
            SITE_SIM_MISSPEC,
            SITE_SIM_JITTER,
            SITE_SPILL_WRITE,
            SITE_DAEMON_ACCEPT,
            SITE_DAEMON_CACHE_READ,
            SITE_DAEMON_CACHE_WRITE,
        ] {
            assert_eq!(counts.get(site), Some(&1), "{site}");
        }
        assert_eq!(p.injected_total(), 8);
    }
}
