//! Determinism and coverage of the in-engine placement profiler.
//!
//! `TmsConfig::profile` turns on per-node attribution inside the
//! placement loop. The attribution (counters, per-node tallies, value
//! histograms) is folded over the dispatched attempts, so it is
//! contracted to be **bit-identical** across runs — only the `*_ns`
//! wall-clock fields and the `tms.place.*` timers may differ. These
//! tests pin that contract, and that the profiler is absent (no
//! metrics, no `TmsResult::profile`) when off.

use tms_core::cost::CostModel;
use tms_core::{schedule_tms_traced, PlaceProfile, TmsConfig, TmsResult};
use tms_ddg::{Ddg, InstId};
use tms_machine::{ArchParams, MachineModel};
use tms_trace::schema::{missing_profile_metrics, unknown_metrics};
use tms_trace::{Histogram, Trace};
use tms_verify::fuzz::fuzz_ddgs;
use tms_workloads::kernels;

fn population() -> Vec<Ddg> {
    let mut pop = kernels::all_kernels();
    pop.push(kernels::maybe_aliasing_update(1.0));
    pop.extend(fuzz_ddgs(20, 0x9F11_2008));
    pop
}

fn tms_profiled(ddg: &Ddg, trace: &Trace) -> Option<TmsResult> {
    let machine = MachineModel::icpp2008();
    let arch = ArchParams::icpp2008();
    let model = CostModel::new(arch.costs, arch.ncore);
    let cfg = TmsConfig {
        profile: true,
        ..TmsConfig::default()
    };
    schedule_tms_traced(ddg, &machine, &model, &cfg, trace).ok()
}

fn hist_key(h: &Histogram) -> (u64, u64, u64, u64) {
    (h.count, h.sum, h.min, h.max)
}

/// Every attribution field of the profile — everything except the
/// wall-clock `*_ns` sums, which are explicitly outside the contract.
fn attribution(p: &PlaceProfile) -> impl PartialEq + std::fmt::Debug {
    (
        (p.node_attempts.clone(), p.node_ejections.clone()),
        (p.scans, p.forced, p.ejected, p.engine_attempts),
        (
            p.probe_accept_fast,
            p.probe_accept_generic,
            p.probe_c1_fast,
            p.probe_c1_generic,
            p.probe_c2_generic,
        ),
        (
            hist_key(&p.eject_chain_depth),
            hist_key(&p.forced_per_attempt),
        ),
        p.top_nodes(8),
    )
}

/// The profiler only observes: a profiled search (always cold) makes
/// the same decisions as the default warm one, and its attribution and
/// deterministic metrics repeat exactly from run to run.
#[test]
fn profiled_search_matches_default_and_repeats_exactly() {
    let machine = MachineModel::icpp2008();
    let arch = ArchParams::icpp2008();
    let model = CostModel::new(arch.costs, arch.ncore);
    for ddg in &population() {
        let first_trace = Trace::enabled();
        let first = tms_profiled(ddg, &first_trace);
        let again_trace = Trace::enabled();
        let again = tms_profiled(ddg, &again_trace);
        let plain = schedule_tms_traced(
            ddg,
            &machine,
            &model,
            &TmsConfig::default(),
            &Trace::disabled(),
        )
        .ok();
        match (&first, &again, &plain) {
            (Some(a), Some(b), Some(c)) => {
                assert_eq!(
                    attribution(a.profile.as_ref().expect("profile on -> Some")),
                    attribution(b.profile.as_ref().expect("profile on -> Some")),
                    "{}: attribution differs between identical runs",
                    ddg.name()
                );
                assert_eq!(
                    (a.ii, a.c_delay_threshold, a.cost_key, a.attempts, a.pruned),
                    (c.ii, c.c_delay_threshold, c.cost_key, c.attempts, c.pruned),
                    "{}: profiling changed the search",
                    ddg.name()
                );
                let times = |r: &TmsResult| -> Vec<i64> {
                    (0..ddg.num_insts())
                        .map(|i| r.schedule.time(InstId(i as u32)))
                        .collect()
                };
                assert_eq!(times(a), times(c), "{}", ddg.name());
            }
            (None, None, None) => {}
            _ => panic!("{}: profiling changed schedulability", ddg.name()),
        }
        assert_eq!(
            first_trace.metrics(),
            again_trace.metrics(),
            "{}: metrics snapshot differs between identical runs",
            ddg.name()
        );
    }
}

#[test]
fn profile_off_leaves_no_trace_of_the_profiler() {
    let machine = MachineModel::icpp2008();
    let arch = ArchParams::icpp2008();
    let model = CostModel::new(arch.costs, arch.ncore);
    let trace = Trace::enabled();
    for ddg in kernels::all_kernels() {
        let Ok(r) = schedule_tms_traced(&ddg, &machine, &model, &TmsConfig::default(), &trace)
        else {
            continue;
        };
        assert!(
            r.profile.is_none(),
            "{}: profile present while off",
            ddg.name()
        );
    }
    let snap = trace.metrics();
    assert!(
        !snap.counters.keys().any(|k| k.starts_with("tms.place.")),
        "profiler counters recorded on a default run"
    );
    assert!(
        !snap.values.keys().any(|k| k.starts_with("tms.place.")),
        "profiler histograms recorded on a default run"
    );
}

#[test]
fn profile_on_populates_profile_and_schema_complete_metrics() {
    let trace = Trace::enabled();
    let mut scheduled = 0usize;
    for ddg in &population() {
        let Some(r) = tms_profiled(ddg, &trace) else {
            continue;
        };
        scheduled += 1;
        let p = r.profile.as_ref().expect("profile on -> Some");
        assert!(p.scans > 0, "{}: no window scans attributed", ddg.name());
        assert!(p.engine_attempts > 0, "{}: no engine attempts", ddg.name());
        assert_eq!(
            p.scans,
            p.node_attempts.iter().sum::<u64>(),
            "{}: per-node attempts must tally with the scan total",
            ddg.name()
        );
        // The hotspot ranking is derived from per-node tallies; it can
        // never name more nodes than the loop has.
        assert!(p.top_nodes(usize::MAX).len() <= ddg.num_insts());
    }
    assert!(scheduled > 0, "population produced no schedules");
    let snap = trace.metrics();
    assert_eq!(
        missing_profile_metrics(&snap),
        Vec::<String>::new(),
        "a profiled sweep must populate every tms.place.* metric"
    );
    assert_eq!(
        unknown_metrics(&snap),
        Vec::<String>::new(),
        "profiled runs must stay inside the metric-name schema"
    );
    assert!(snap.counters["tms.place.scans"] > 0);
    let accepts = snap.counters["tms.place.probe.accept-fast"]
        + snap.counters["tms.place.probe.accept-generic"];
    assert!(
        accepts > 0,
        "schedules built without a single accepted probe"
    );
}

/// The `tms` CLI refuses bad usage, input and I/O with a `tms:` message
/// and exit 2: no panic on `--ncore 0`, no silent default for an
/// unparsable value, no ignored unknown flag, no unknown loop or
/// profile target, no unreadable report, and no write failure that
/// exits 0 or 1.
#[test]
fn tms_profile_refuses_bad_flags_with_exit_2() {
    let dir = std::env::temp_dir().join(format!("tms_cli_exit_2_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let other = dir.join("other.json");
    std::fs::write(&other, r#"{"schema":"other"}"#).unwrap();
    let missing = dir.join("missing.json");
    let (other, missing) = (other.to_str().unwrap(), missing.to_str().unwrap());
    // A regular file cannot be a directory, so no path under it can be
    // written or created.
    let unwritable = format!("{other}/out.json");
    let unwritable = unwritable.as_str();
    // (argv, whether it fails before anything runs)
    let cases: &[(&[&str], bool)] = &[
        (&["profile", "daxpy", "--ncore", "0"], true),
        (&["profile", "daxpy", "--ncore", "abc"], true),
        (&["profile", "daxpy", "--top", "x"], true),
        (&["profile", "daxpy", "--json"], true),
        (&["profile", "daxpy", "--bogus"], true),
        (&[], true),
        (&["bogus"], true),
        (&["schedule", "nosuchloop"], true),
        (&["trace", "nosuchloop"], true),
        (&["export", "nosuchloop", unwritable], true),
        (&["profile", "nosuchloop"], true),
        (&["profile", "diff", missing, missing], true),
        (&["profile", "diff", other, other], true),
        (&["profile", "daxpy", "--json", unwritable], false),
        (&["profile", "daxpy", "--metrics", unwritable], false),
        (&["trace", "daxpy", "--trace", unwritable], false),
    ];
    for &(argv, before_running) in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_tms"))
            .args(argv)
            .output()
            .expect("run tms");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(stderr.starts_with("tms: "), "{argv:?}: {stderr}");
        if before_running {
            assert!(out.stdout.is_empty(), "{argv:?} ran something");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
