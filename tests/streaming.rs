//! The trace exporters' contracts, end to end:
//!
//! 1. **The Chrome render is pinned.** A fuzzed population simulated
//!    into an in-memory sink records only virtual-time events, so its
//!    Chrome `trace_event` document is deterministic, and its digest is
//!    pinned byte for byte.
//! 2. **Metrics are a commutative monoid.** Snapshots merge
//!    associatively and commutatively with the empty snapshot as
//!    identity, so any shard count, merge order or process topology
//!    reproduces the single-process metrics byte-for-byte — including
//!    the histogram percentiles.
//! 3. **Sharded sweeps reassemble exactly.** `--shard i/n` for
//!    n ∈ {1, 2, 4} partitions the sweep, and the merged per-shard
//!    snapshots equal the unsharded run's snapshot JSON.

use tms_core::cost::CostModel;
use tms_core::par::Parallelism;
use tms_core::{schedule_tms, TmsConfig};
use tms_machine::{ArchParams, MachineModel};
use tms_sim::{simulate_spmt_traced, SimConfig};
use tms_trace::{MetricsSnapshot, Trace};
use tms_verify::fuzz::fuzz_ddgs;
use tms_verify::sweep::{run_sweep, SweepConfig};

/// Run the SpMT simulator over a fuzzed population with per-thread
/// trace collection, recording into `sink`. The engine emits only
/// virtual-time events (cycle timestamps) and deterministic counters —
/// no wall-clock — so every sink fed by this function sees the same
/// event stream.
fn simulate_population(sink: &Trace, seed: u64, loops: usize) {
    let machine = MachineModel::icpp2008();
    let arch = ArchParams::icpp2008();
    let model = CostModel::new(arch.costs, arch.ncore);
    let mut cfg = SimConfig::with_ncore(24, arch.ncore);
    cfg.collect_trace = true;
    for ddg in fuzz_ddgs(loops, seed) {
        let Ok(tms) = schedule_tms(&ddg, &machine, &model, &TmsConfig::default()) else {
            continue;
        };
        simulate_spmt_traced(&ddg, &tms.schedule, &cfg, sink);
    }
}

/// `stable_hash` of the Chrome document that `simulate_population(_,
/// 0xBEEF, 10)` renders: 1,032 events, 116,309 bytes.
const CHROME_RENDER_PIN: u64 = 0xd324_3773_7c56_ea87;

#[test]
fn chrome_render_of_a_fuzzed_population_is_pinned() {
    let t = Trace::enabled();
    simulate_population(&t, 0xBEEF, 10);
    let json = t.chrome_json();
    assert_eq!(t.event_count(), 1032);
    let digest = tms_faults::stable_hash(0, &[&json]);
    assert_eq!(
        digest, CHROME_RENDER_PIN,
        "Chrome render moved: got {digest:#018x}"
    );
}

/// Snapshot of a fuzzed simulated run — each seed gives a different
/// counter/histogram population.
fn snapshot_of(seed: u64) -> MetricsSnapshot {
    let t = Trace::enabled();
    simulate_population(&t, seed, 5);
    t.metrics()
}

#[test]
fn snapshot_merge_is_a_commutative_monoid_on_fuzzed_runs() {
    let (a, b, c) = (snapshot_of(1), snapshot_of(2), snapshot_of(3));

    // Commutativity: a ⊕ b == b ⊕ a.
    let mut ab = a.clone();
    ab.merge(&b);
    let mut ba = b.clone();
    ba.merge(&a);
    assert_eq!(ab.to_json(), ba.to_json(), "merge is not commutative");

    // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
    let mut ab_c = ab.clone();
    ab_c.merge(&c);
    let mut bc = b.clone();
    bc.merge(&c);
    let mut a_bc = a.clone();
    a_bc.merge(&bc);
    assert_eq!(ab_c.to_json(), a_bc.to_json(), "merge is not associative");

    // Identity: ∅ ⊕ a == a ⊕ ∅ == a.
    let mut empty_a = MetricsSnapshot::default();
    empty_a.merge(&a);
    let mut a_empty = a.clone();
    a_empty.merge(&MetricsSnapshot::default());
    assert_eq!(empty_a.to_json(), a.to_json());
    assert_eq!(a_empty.to_json(), a.to_json());

    // The merged histograms carry real percentile mass, and merging
    // reproduces what one sink recording everything would have seen.
    let single = {
        let t = Trace::enabled();
        simulate_population(&t, 1, 5);
        simulate_population(&t, 2, 5);
        simulate_population(&t, 3, 5);
        t.metrics()
    };
    assert_eq!(ab_c.to_json(), single.to_json(), "3-way merge != one sink");
    let log_len = single.values.get("sim.prune.log_len").expect("histogram");
    assert!(log_len.count > 0);
    assert!(log_len.p50() <= log_len.p95() && log_len.p95() <= log_len.p99());
    assert!(log_len.p99() <= log_len.max);
}

#[test]
fn sharded_sweeps_reassemble_byte_identically() {
    let base = SweepConfig {
        fuzz: 5,
        specfp_cap: 1,
        no_sim: true,
        quick: true,
        jobs: Parallelism::Serial,
        ..Default::default()
    };
    let single_trace = Trace::enabled();
    let single = run_sweep(&SweepConfig {
        trace: single_trace.clone(),
        ..base.clone()
    });
    let reference = single_trace.snapshot_json();

    for n in [1u32, 2, 4] {
        let mut merged = MetricsSnapshot::default();
        let mut loops = 0usize;
        for i in 0..n {
            let t = Trace::enabled();
            let out = run_sweep(&SweepConfig {
                shard: Some((i, n)),
                trace: t.clone(),
                ..base.clone()
            });
            loops += out.report.total_loops;
            merged.merge(&t.metrics());
        }
        assert_eq!(loops, single.report.total_loops, "n={n} dropped loops");
        assert_eq!(
            merged.to_json(),
            reference,
            "n={n} shard merge diverged from the single-process metrics"
        );
    }
}
