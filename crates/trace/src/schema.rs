//! Metric-name schema for the deterministic metrics slice.
//!
//! The counters and value histograms a sweep records are a *contract*:
//! downstream consumers (the CI schema checks, trace diffing, the
//! sharded `merge-metrics` comparisons) key on exact names, so a typo
//! in a recording site — or a renamed counter that CI still asserts on
//! — silently produces empty-looking metrics. This module pins the
//! known names and prefixes in one place and lets tests validate a
//! [`MetricsSnapshot`] against them.
//!
//! The registry covers *production* metrics only. Scratch names used
//! by unit tests inside `tms-trace` itself are not listed — validation
//! is for the instrumented subsystems (`tms.*`, `sim.*`, `verify.*`,
//! the `tmsd.*` daemon counters) plus the `demo.*` namespace the CLI
//! examples use.

use crate::sink::MetricsSnapshot;

/// Exact counter names the schedulers, simulator, and verifier record.
pub const KNOWN_COUNTERS: &[&str] = &[
    "sim.cycles.commit",
    "sim.cycles.exec",
    "sim.cycles.wait",
    "sim.prune.popped",
    "sim.threads.committed",
    "tms.accepted",
    "tms.attempts",
    "tms.degraded_to_sms",
    "tms.fallback",
    "tms.place.ejected",
    "tms.place.forced",
    "tms.place.probe.accept-fast",
    "tms.place.probe.accept-generic",
    "tms.place.probe.c1-reject-fast",
    "tms.place.probe.c1-reject-generic",
    "tms.place.probe.c2-reject-fast",
    "tms.place.probe.c2-reject-generic",
    "tms.place.scans",
    "tms.pruned.cost-bound",
    "tms.pruned.p-max-dup",
    "tms.rejected",
    "tms.reuse.steps-executed",
    "tms.reuse.steps-replayed",
    "tms.reuse.warm-attempts",
    "tms.unschedulable",
    "tmsd.batches",
    "tmsd.cache.bypassed",
    "tmsd.cache.hit",
    "tmsd.cache.miss",
    "tmsd.degraded",
    "tmsd.errors",
    "tmsd.panics",
    "tmsd.requests",
    "tmsd.retries",
    "tmsd.shed",
    "verify.checks",
    "verify.degraded",
    "verify.loops",
    "verify.violations",
];

/// Counter-name prefixes whose suffix is data-dependent (diagnostic
/// kinds, demo scratch names). `tms.reject.<kind>` covers both the
/// post-search verification kinds (`tms.reject.sync-exceeded`, …) and
/// the search-level outcomes (`tms.reject.no-schedule`, its subsets
/// `tms.reject.eject-budget` and `tms.reject.below-floor` — attempts
/// decided without the engine because their `C_delay` sits below the
/// register-circuit floor — and `tms.reject.lost-to-baseline`).
pub const KNOWN_COUNTER_PREFIXES: &[&str] = &["tms.reject.", "demo."];

/// Exact value-histogram names.
pub const KNOWN_VALUES: &[&str] = &[
    "sim.prune.log_len",
    "tms.attempts_per_loop",
    "tms.place.eject_chain_depth",
    "tms.place.forced_per_attempt",
    "tms.pruned_per_loop",
    "tmsd.batch_size",
    "tmsd.queue_depth",
];

/// Value-name prefixes whose suffix is data-dependent.
pub const KNOWN_VALUE_PREFIXES: &[&str] = &["demo."];

/// Counters every TMS scheduling run is expected to *populate* (the
/// recording sites insert the key even at zero, so absence means the
/// site was deleted or renamed, not that nothing happened).
pub const TMS_REQUIRED_COUNTERS: &[&str] = &[
    "tms.attempts",
    "tms.pruned.cost-bound",
    "tms.pruned.p-max-dup",
    "tms.reuse.steps-executed",
    "tms.reuse.steps-replayed",
    "tms.reuse.warm-attempts",
];

/// Value histograms every TMS scheduling run records per loop.
pub const TMS_REQUIRED_VALUES: &[&str] = &["tms.attempts_per_loop", "tms.pruned_per_loop"];

/// Counters a *profiled* scheduling run (`TmsConfig::profile`) records
/// unconditionally. They are deliberately not in
/// [`TMS_REQUIRED_COUNTERS`]: default runs leave the profiler off, and
/// the traced-sweep identity checks assert the required set on exactly
/// that configuration.
pub const TMS_PROFILE_COUNTERS: &[&str] = &[
    "tms.place.ejected",
    "tms.place.forced",
    "tms.place.probe.accept-fast",
    "tms.place.probe.accept-generic",
    "tms.place.probe.c1-reject-fast",
    "tms.place.probe.c1-reject-generic",
    "tms.place.probe.c2-reject-fast",
    "tms.place.probe.c2-reject-generic",
    "tms.place.scans",
];

/// Value histograms a profiled scheduling run records unconditionally.
pub const TMS_PROFILE_VALUES: &[&str] = &[
    "tms.place.eject_chain_depth",
    "tms.place.forced_per_attempt",
];

/// Every profiler metric *missing* from `snapshot`, prefixed with its
/// section. Empty means all placement-profiler recording sites fired —
/// only meaningful for snapshots taken with `TmsConfig::profile` on.
pub fn missing_profile_metrics(snapshot: &MetricsSnapshot) -> Vec<String> {
    let mut missing = Vec::new();
    for name in TMS_PROFILE_COUNTERS {
        if !snapshot.counters.contains_key(*name) {
            missing.push(format!("counter:{name}"));
        }
    }
    for name in TMS_PROFILE_VALUES {
        if !snapshot.values.contains_key(*name) {
            missing.push(format!("value:{name}"));
        }
    }
    missing
}

fn known(name: &str, exact: &[&str], prefixes: &[&str]) -> bool {
    exact.contains(&name) || prefixes.iter().any(|p| name.starts_with(p))
}

/// Whether `name` is a registered counter name.
pub fn is_known_counter(name: &str) -> bool {
    known(name, KNOWN_COUNTERS, KNOWN_COUNTER_PREFIXES)
}

/// Whether `name` is a registered value-histogram name.
pub fn is_known_value(name: &str) -> bool {
    known(name, KNOWN_VALUES, KNOWN_VALUE_PREFIXES)
}

/// Every metric name in `snapshot` that the registry does not know,
/// prefixed with its section (`counter:` / `value:`). Empty means the
/// snapshot conforms to the schema.
pub fn unknown_metrics(snapshot: &MetricsSnapshot) -> Vec<String> {
    let mut unknown = Vec::new();
    for name in snapshot.counters.keys() {
        if !is_known_counter(name) {
            unknown.push(format!("counter:{name}"));
        }
    }
    for name in snapshot.values.keys() {
        if !is_known_value(name) {
            unknown.push(format!("value:{name}"));
        }
    }
    unknown
}

/// Every TMS-required metric *missing* from `snapshot`, prefixed with
/// its section. Empty means all scheduler recording sites fired.
pub fn missing_tms_metrics(snapshot: &MetricsSnapshot) -> Vec<String> {
    let mut missing = Vec::new();
    for name in TMS_REQUIRED_COUNTERS {
        if !snapshot.counters.contains_key(*name) {
            missing.push(format!("counter:{name}"));
        }
    }
    for name in TMS_REQUIRED_VALUES {
        if !snapshot.values.contains_key(*name) {
            missing.push(format!("value:{name}"));
        }
    }
    missing
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::Trace;

    #[test]
    fn registry_accepts_known_and_flags_unknown() {
        assert!(is_known_counter("tms.pruned.cost-bound"));
        assert!(is_known_counter("tms.reject.sync-exceeded"));
        assert!(is_known_counter("tms.reject.lost-to-baseline"));
        assert!(is_known_counter("tms.reuse.warm-attempts"));
        assert!(is_known_counter("tms.reuse.steps-replayed"));
        assert!(is_known_value("tms.pruned_per_loop"));
        assert!(is_known_counter("tms.place.scans"));
        assert!(is_known_counter("tms.place.probe.c1-reject-fast"));
        assert!(is_known_value("tms.place.eject_chain_depth"));
        assert!(is_known_counter("tmsd.requests"));
        assert!(is_known_counter("tmsd.cache.bypassed"));
        assert!(is_known_counter("tmsd.shed"));
        assert!(is_known_value("tmsd.queue_depth"));
        assert!(!is_known_counter("tms.prnued.cost-bound")); // typo
        assert!(!is_known_counter("tmsd.cache.hits")); // plural typo
        assert!(!is_known_value("tms.attempts")); // wrong section
    }

    #[test]
    fn profile_metrics_are_known_but_not_required_by_default_runs() {
        for name in TMS_PROFILE_COUNTERS {
            assert!(is_known_counter(name), "{name}");
            assert!(!TMS_REQUIRED_COUNTERS.contains(name), "{name}");
        }
        for name in TMS_PROFILE_VALUES {
            assert!(is_known_value(name), "{name}");
            assert!(!TMS_REQUIRED_VALUES.contains(name), "{name}");
        }
        let trace = Trace::enabled();
        trace.count("tms.place.scans", 3);
        let missing = missing_profile_metrics(&trace.metrics());
        assert!(missing.contains(&"counter:tms.place.forced".to_string()));
        assert!(missing.contains(&"value:tms.place.eject_chain_depth".to_string()));
        assert!(!missing.contains(&"counter:tms.place.scans".to_string()));
    }

    #[test]
    fn snapshot_validation_reports_sectioned_names() {
        let trace = Trace::enabled();
        trace.count("tms.attempts", 1);
        trace.count("totally.unknown", 1);
        trace.record("tms.attempts_per_loop", 1);
        trace.record("also.unknown", 2);
        let snap = trace.metrics();
        let unknown = unknown_metrics(&snap);
        assert_eq!(
            unknown,
            vec![
                "counter:totally.unknown".to_string(),
                "value:also.unknown".to_string()
            ]
        );
    }

    #[test]
    fn missing_tms_metrics_names_unfired_sites() {
        let trace = Trace::enabled();
        trace.count("tms.attempts", 1);
        let missing = missing_tms_metrics(&trace.metrics());
        assert!(missing.contains(&"counter:tms.pruned.cost-bound".to_string()));
        assert!(missing.contains(&"value:tms.pruned_per_loop".to_string()));
        assert!(!missing.contains(&"counter:tms.attempts".to_string()));
    }
}
