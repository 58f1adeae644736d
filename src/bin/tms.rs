//! `tms` — command-line driver for the TMS reproduction.
//!
//! ```text
//! tms list                          named workloads
//! tms show <loop>                   DDG, classification, analyses
//! tms schedule <loop> [opts]        SMS + TMS kernels, metrics, Gantt
//! tms simulate <loop> [opts]        schedule + run on the SpMT system
//! tms dot <loop> [opts]             DOT of the TMS-scheduled kernel
//! tms trace <loop> [opts]           per-thread SpMT execution timeline
//! tms profile <target> [opts]       placement profiler: hot loops ->
//!                                   hot nodes -> dominant engine action
//! tms profile diff <a> <b>          compare two profile reports
//! tms codegen <loop> [opts]         prologue/kernel/epilogue listing
//! tms export <loop> <file.json>     write the DDG as JSON
//! tms import <file.json> <cmd>      run show/schedule/simulate on it
//!
//! options: --ncore N     cores (default 4)
//!          --iters N     simulated iterations (default 1000)
//!          --unroll F    unroll before scheduling
//!          --machine P   per-core machine model from a JSON config
//!                        (default: the paper's Table 1 machine)
//!          --trace PATH  (trace) also write a Chrome trace_event JSON
//!                        timeline — load it in ui.perfetto.dev
//!
//! profile targets: a loop name, or a family — `kernels`, `livermore`,
//! `doacross`, `figure1`, `specfp` (3 generated loops per SPECfp2000
//! benchmark), `all` (every named workload).
//! profile options: --top N        hot nodes per loop (default 5)
//!                  --json PATH    machine-readable report (tms-profile-v1)
//!                  --metrics PATH merged deterministic metrics snapshot
//!
//! exit codes: 0 success; 1 a check failed (a profile that breaks the
//!             metrics schema, or no loop produced a schedule); 2 bad
//!             usage, input or I/O, with a `tms:` message on stderr
//! ```

use serde_json::Value;
use std::process::ExitCode;
use tms_repro::prelude::*;
use tms_workloads::{doacross_suite, figure1, kernels, livermore};

struct Opts {
    ncore: u32,
    iters: u64,
    unroll: u32,
    trace_out: Option<String>,
    machine: Option<String>,
}

fn named_workloads() -> Vec<Ddg> {
    let mut v = vec![figure1()];
    v.extend(kernels::all_kernels());
    v.extend(livermore::livermore_suite());
    v.extend(doacross_suite(0x1CC9_2008).into_iter().map(|l| l.ddg));
    v
}

fn find_loop(name: &str) -> Option<Ddg> {
    named_workloads().into_iter().find(|g| g.name() == name)
}

/// Required flag value, as a string.
fn flag_str<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// Required flag value, parsed. A bad value is a structured error, not
/// a silent fallback to the default.
fn flag_num<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, String> {
    let v = flag_str(it, flag)?;
    v.parse()
        .map_err(|_| format!("{flag}: invalid value {v:?}"))
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        ncore: 4,
        iters: 1000,
        unroll: 1,
        trace_out: None,
        machine: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--ncore" => o.ncore = flag_num(&mut it, "--ncore")?,
            "--iters" => o.iters = flag_num(&mut it, "--iters")?,
            "--unroll" => o.unroll = flag_num(&mut it, "--unroll")?,
            "--trace" => o.trace_out = Some(flag_str(&mut it, "--trace")?.clone()),
            "--machine" => o.machine = Some(flag_str(&mut it, "--machine")?.clone()),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if o.ncore == 0 {
        return Err("--ncore: must be at least 1".to_string());
    }
    if o.unroll == 0 {
        return Err("--unroll: must be at least 1".to_string());
    }
    Ok(o)
}

/// Load the machine model: the paper's Table 1 machine by default, or
/// a `--machine PATH` JSON config (the same serialisation `tmsd`
/// accepts). Malformed configs are structured errors, never panics.
fn load_machine(o: &Opts) -> Result<MachineModel, String> {
    let Some(path) = &o.machine else {
        return Ok(MachineModel::icpp2008());
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read machine config {path}: {e}"))?;
    let machine: MachineModel =
        serde_json::from_str(&text).map_err(|e| format!("machine config {path}: {e}"))?;
    if machine.issue_width == 0 {
        return Err(format!(
            "machine config {path}: issue_width must be at least 1"
        ));
    }
    Ok(machine)
}

fn cmd_list() {
    println!("{:<22} {:>6} {:>6}  class", "name", "#inst", "#edges");
    for g in named_workloads() {
        let c = tms_ddg::classify(&g);
        println!(
            "{:<22} {:>6} {:>6}  {}",
            g.name(),
            g.num_insts(),
            g.num_edges(),
            c.class.label()
        );
    }
}

fn cmd_show(g: &Ddg, machine: &MachineModel) {
    print!("{g}");
    let c = tms_ddg::classify(g);
    let prio = tms_ddg::analysis::AcyclicPriorities::compute(g);
    println!(
        "\nclass {}  RecII {} (register-only {})  ResII {}  MII {}  LDP {}",
        c.class.label(),
        c.rec_ii,
        c.reg_rec_ii,
        tms_machine::res_ii(g, machine),
        tms_machine::mii(g, machine),
        prio.ldp
    );
}

fn prepare(g: &Ddg, o: &Opts) -> Result<Ddg, String> {
    if o.unroll > 1 {
        tms_ddg::unroll(g, o.unroll).map_err(|e| format!("unroll by {}: {e}", o.unroll))
    } else {
        Ok(g.clone())
    }
}

fn cmd_schedule(g: &Ddg, o: &Opts, machine: &MachineModel) -> Result<(), String> {
    let g = prepare(g, o)?;
    let arch = ArchParams::with_ncore(o.ncore);
    let model = CostModel::new(arch.costs, arch.ncore);
    let sms = schedule_sms(&g, machine).map_err(|e| format!("SMS: {e}"))?;
    let tms = schedule_tms(&g, machine, &model, &TmsConfig::default())
        .map_err(|e| format!("TMS: {e}"))?;
    for (name, sch) in [("SMS", &sms.schedule), ("TMS", &tms.schedule)] {
        let m = LoopMetrics::compute(&g, machine, sch, &arch.costs);
        println!(
            "== {name}: II={} stages={} MaxLive={} C_delay={} pairs/iter={} P_M={:.4}",
            m.ii, m.stage_count, m.max_live, m.c_delay, m.send_recv_pairs, m.misspec_prob
        );
        println!("{}", tms_core::viz::kernel_gantt(&g, sch));
    }
    println!(
        "TMS candidate: C_delay<={} P_max={} F={:.2} cycles/iter{}",
        tms.c_delay_threshold,
        tms.p_max,
        model.f(tms.ii, tms.c_delay_threshold),
        if tms.fell_back_to_sms {
            " (fell back to SMS)"
        } else {
            ""
        }
    );
    Ok(())
}

fn cmd_simulate(g: &Ddg, o: &Opts, machine: &MachineModel) -> Result<(), String> {
    let g = prepare(g, o)?;
    let arch = ArchParams::with_ncore(o.ncore);
    let model = CostModel::new(arch.costs, arch.ncore);
    let sms = schedule_sms(&g, machine).map_err(|e| format!("SMS: {e}"))?;
    let tms = schedule_tms(&g, machine, &model, &TmsConfig::default())
        .map_err(|e| format!("TMS: {e}"))?;
    let mut cfg = SimConfig::with_ncore(o.iters, o.ncore);
    cfg.seed = 0x1CC9_2008;
    let seq = simulate_sequential(&g, machine, &cfg);
    println!(
        "single-threaded: {:>10} cycles ({:.2}/iter)",
        seq.total_cycles,
        seq.total_cycles as f64 / o.iters as f64
    );
    for (name, sch) in [("SMS", &sms.schedule), ("TMS", &tms.schedule)] {
        let out = simulate_spmt(&g, sch, &cfg);
        let s = &out.stats;
        println!(
            "{name} on {} cores: {:>10} cycles ({:.2}/iter)  sync={} squashes={} pairs={}  speedup vs 1T {:+.1}%",
            o.ncore,
            s.total_cycles,
            s.total_cycles as f64 / o.iters as f64,
            s.sync_stall_cycles,
            s.misspeculations + s.cascade_squashes,
            s.send_recv_pairs,
            (seq.total_cycles as f64 / s.total_cycles as f64 - 1.0) * 100.0
        );
        if out.memory_image != seq.memory_image {
            return Err(format!(
                "{name} committed state diverged from the sequential run"
            ));
        }
    }
    Ok(())
}

fn cmd_trace(g: &Ddg, o: &Opts, machine: &MachineModel) -> Result<(), String> {
    let g = prepare(g, o)?;
    let arch = ArchParams::with_ncore(o.ncore);
    let model = CostModel::new(arch.costs, arch.ncore);
    let sink = if o.trace_out.is_some() {
        Trace::enabled()
    } else {
        Trace::disabled()
    };
    let tms = schedule_tms_traced(&g, machine, &model, &TmsConfig::default(), &sink)
        .map_err(|e| format!("TMS: {e}"))?;
    let mut cfg = SimConfig::with_ncore(o.iters.min(48), o.ncore);
    cfg.collect_trace = true;
    let out = simulate_spmt_traced(&g, &tms.schedule, &cfg, &sink);
    if let Some(path) = &o.trace_out {
        sink.write_chrome(std::path::Path::new(path))
            .map_err(|e| format!("cannot write {e}"))?;
        println!(
            "wrote {path} ({} events; load in chrome://tracing or ui.perfetto.dev)",
            sink.event_count()
        );
    }
    let trace = out
        .trace
        .ok_or("simulator returned no trace despite collect_trace")?;
    print!("{}", trace.timeline(72));
    println!(
        "avg thread spacing {:.2} cycles (cost model F = {:.2}); core utilisation {:?}",
        trace.avg_spacing(),
        model.f(tms.ii, tms.c_delay_threshold),
        trace
            .core_utilisation(o.ncore, out.stats.total_cycles)
            .iter()
            .map(|u| format!("{:.0}%", u * 100.0))
            .collect::<Vec<_>>()
    );
    Ok(())
}

/// Resolve a `tms profile` target: a family keyword or a single named
/// loop. `specfp` generates 3 loops per SPECfp2000 benchmark profile —
/// enough to expose each benchmark's placement behaviour without
/// profiling the full ~800-loop population.
fn profile_targets(target: &str) -> Option<(String, Vec<Ddg>)> {
    let seed = 0x1CC9_2008u64;
    let loops = match target {
        "kernels" => kernels::all_kernels(),
        "livermore" => livermore::livermore_suite(),
        "doacross" => doacross_suite(seed).into_iter().map(|l| l.ddg).collect(),
        "figure1" => vec![figure1()],
        "specfp" => tms_workloads::specfp::specfp_profiles()
            .iter()
            .flat_map(|p| p.generate(seed).into_iter().take(3))
            .collect(),
        "all" => named_workloads(),
        name => vec![find_loop(name)?],
    };
    Some((target.to_string(), loops))
}

/// One `tms profile` report row, ready for both renderings (the ranked
/// human table and the `tms-profile-v1` JSON document).
struct ProfRow {
    name: String,
    ii: u32,
    fell_back: bool,
    attempts: usize,
    engine_attempts: u64,
    place_ns: u64,
    phases: [(&'static str, u64); 6],
    share: f64,
    dominant: &'static str,
    scans: u64,
    forced: u64,
    ejected: u64,
    probe: [(&'static str, u64); 5],
    max_chain: u64,
    /// `(node id, node name, attempts, ejections)`, hottest first.
    hot: Vec<(usize, String, u64, u64)>,
}

fn jobj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl ProfRow {
    fn to_value(&self) -> Value {
        jobj(vec![
            ("name", Value::Str(self.name.clone())),
            ("ii", Value::UInt(self.ii as u64)),
            ("fell_back_to_sms", Value::Bool(self.fell_back)),
            ("attempts", Value::UInt(self.attempts as u64)),
            ("engine_attempts", Value::UInt(self.engine_attempts)),
            ("place_ns", Value::UInt(self.place_ns)),
            (
                "phases",
                jobj(
                    self.phases
                        .iter()
                        .map(|&(k, v)| (k, Value::UInt(v)))
                        .collect(),
                ),
            ),
            ("eject_force_share", Value::Float(self.share)),
            ("dominant", Value::Str(self.dominant.to_string())),
            (
                "counters",
                jobj(vec![
                    ("scans", Value::UInt(self.scans)),
                    ("forced", Value::UInt(self.forced)),
                    ("ejected", Value::UInt(self.ejected)),
                    (
                        "probe",
                        jobj(
                            self.probe
                                .iter()
                                .map(|&(k, v)| (k, Value::UInt(v)))
                                .collect(),
                        ),
                    ),
                ]),
            ),
            ("max_eject_chain", Value::UInt(self.max_chain)),
            (
                "hot_nodes",
                Value::Array(
                    self.hot
                        .iter()
                        .map(|(node, name, attempts, ejections)| {
                            jobj(vec![
                                ("node", Value::UInt(*node as u64)),
                                ("name", Value::Str(name.clone())),
                                ("attempts", Value::UInt(*attempts)),
                                ("ejections", Value::UInt(*ejections)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// `tms profile <target> [--ncore N] [--top N] [--json PATH]
/// [--metrics PATH]` — run the TMS search with the in-engine placement
/// profiler on and report, per loop, where placement time went
/// (scan/probe/fit/eject/force/verify), the probe-outcome breakdown,
/// and the hottest nodes. Loops rank by placement wall time; the
/// attribution counters underneath are deterministic (see DESIGN §10).
fn cmd_profile(args: &[String]) -> ExitCode {
    let Some(target) = args.first() else {
        return operational(
            "usage: tms profile <loop|family> [--ncore N] [--top N] [--json PATH] [--metrics PATH]",
        );
    };
    let mut ncore = 4u32;
    let mut top = 5usize;
    let mut json_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut it = args[1..].iter();
    let mut parse = || -> Result<(), String> {
        while let Some(a) = it.next() {
            match a.as_str() {
                "--ncore" => ncore = flag_num(&mut it, "--ncore")?,
                "--top" => top = flag_num(&mut it, "--top")?,
                "--json" => json_out = Some(flag_str(&mut it, "--json")?.clone()),
                "--metrics" => metrics_out = Some(flag_str(&mut it, "--metrics")?.clone()),
                other => return Err(format!("unknown option {other:?}")),
            }
        }
        if ncore == 0 {
            return Err("--ncore: must be at least 1".to_string());
        }
        Ok(())
    };
    if let Err(e) = parse() {
        return operational(&e);
    }
    let Some((family, loops)) = profile_targets(target) else {
        return operational(&format!(
            "unknown profile target '{target}' — a loop name (see `tms list`) or \
             kernels|livermore|doacross|figure1|specfp|all"
        ));
    };
    let machine = MachineModel::icpp2008();
    let arch = ArchParams::with_ncore(ncore);
    let model = CostModel::new(arch.costs, arch.ncore);
    let cfg = TmsConfig {
        profile: true,
        ..TmsConfig::default()
    };
    let trace = Trace::enabled();
    let mut rows: Vec<ProfRow> = Vec::new();
    let mut skipped = 0usize;
    for g in &loops {
        let Ok(tms) = schedule_tms_traced(g, &machine, &model, &cfg, &trace) else {
            skipped += 1;
            continue;
        };
        let p = tms.profile.as_ref().expect("profile on -> Some");
        rows.push(ProfRow {
            name: g.name().to_string(),
            ii: tms.ii,
            fell_back: tms.fell_back_to_sms,
            attempts: tms.attempts,
            engine_attempts: p.engine_attempts,
            place_ns: p.place_loop_ns(),
            phases: p.phase_ns(),
            share: p.eject_force_share(),
            dominant: p.dominant_phase(),
            scans: p.scans,
            forced: p.forced,
            ejected: p.ejected,
            probe: [
                ("accept_fast", p.probe_accept_fast),
                ("accept_generic", p.probe_accept_generic),
                ("c1_reject_fast", p.probe_c1_fast),
                ("c1_reject_generic", p.probe_c1_generic),
                ("c2_reject_generic", p.probe_c2_generic),
            ],
            max_chain: p.eject_chain_depth.max,
            hot: p
                .top_nodes(top)
                .iter()
                .map(|h| {
                    (
                        h.node,
                        p.node_name(g, h.node).to_string(),
                        h.attempts,
                        h.ejections,
                    )
                })
                .collect(),
        });
    }
    if rows.is_empty() {
        eprintln!("tms profile: no loop in '{family}' produced a schedule");
        return ExitCode::FAILURE;
    }
    // Hot loops first: rank by placement wall time, ties by name so
    // the table order is stable.
    rows.sort_by(|a, b| b.place_ns.cmp(&a.place_ns).then(a.name.cmp(&b.name)));
    let total_place: u64 = rows.iter().map(|r| r.place_ns).sum();
    println!(
        "placement profile: {} loop(s) in '{family}' on {ncore} cores ({skipped} unschedulable skipped)",
        rows.len()
    );
    println!(
        "{:<22} {:>4} {:>9} {:>10} {:>7} {:>9}  {:<8} hottest node",
        "loop", "II", "scans", "place(us)", "share", "ej+force", "dominant"
    );
    for r in &rows {
        let hot = r
            .hot
            .first()
            .map(|(_, name, attempts, ejections)| {
                format!("{name} (x{attempts}, {ejections} ejected)")
            })
            .unwrap_or_else(|| "-".to_string());
        println!(
            "{:<22} {:>4} {:>9} {:>10.1} {:>6.1}% {:>8.1}%  {:<8} {}{}",
            r.name,
            r.ii,
            r.scans,
            r.place_ns as f64 / 1e3,
            r.place_ns as f64 / (total_place.max(1)) as f64 * 100.0,
            r.share * 100.0,
            r.dominant,
            hot,
            if r.fell_back { "  [SMS fallback]" } else { "" }
        );
    }
    let snap = trace.metrics();
    // The profiler's own schema contract: a profiled run must record
    // every `tms.place.*` metric and nothing outside the registry.
    let mut bad = tms_trace::schema::unknown_metrics(&snap);
    bad.extend(tms_trace::schema::missing_profile_metrics(&snap));
    if !bad.is_empty() {
        eprintln!("tms profile: metrics schema violation: {bad:?}");
        return ExitCode::FAILURE;
    }
    let counter = |name: &str| Value::UInt(snap.counters.get(name).copied().unwrap_or(0));
    let report = jobj(vec![
        ("schema", Value::Str("tms-profile-v1".to_string())),
        ("family", Value::Str(family)),
        ("ncore", Value::UInt(ncore as u64)),
        (
            "loops",
            Value::Array(rows.iter().map(ProfRow::to_value).collect()),
        ),
        (
            "totals",
            jobj(vec![
                ("loops", Value::UInt(rows.len() as u64)),
                ("skipped", Value::UInt(skipped as u64)),
                ("place_ns", Value::UInt(total_place)),
                ("scans", counter("tms.place.scans")),
                ("forced", counter("tms.place.forced")),
                ("ejected", counter("tms.place.ejected")),
            ]),
        ),
    ]);
    if let Some(path) = &json_out {
        let text = match serde_json::to_string_pretty(&report) {
            Ok(text) => text,
            Err(e) => return operational(&format!("profile: serialise report: {e}")),
        };
        if let Err(e) = std::fs::write(path, text) {
            return operational(&format!("profile: cannot write {path}: {e}"));
        }
        println!("wrote {path}");
    }
    if let Some(path) = &metrics_out {
        if let Err(e) = std::fs::write(path, snap.to_json()) {
            return operational(&format!("profile: cannot write {path}: {e}"));
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}

/// `tms profile diff <a.json> <b.json>` — compare two `tms-profile-v1`
/// reports loop-by-loop: placement-time delta, eject+force share
/// drift, and scan-count delta (the deterministic signal — a nonzero
/// scan delta means the *search* changed, not just the clock).
fn cmd_profile_diff(a_path: &str, b_path: &str) -> ExitCode {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let v: Value = serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))?;
        match v.get("schema").and_then(Value::as_str) {
            Some("tms-profile-v1") => Ok(v),
            _ => Err(format!("{path}: not a tms-profile-v1 report")),
        }
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return operational(&format!("profile diff: {e}")),
    };
    let index = |v: &Value| -> std::collections::BTreeMap<String, Value> {
        v.get("loops")
            .and_then(Value::as_array)
            .map(|rows| {
                rows.iter()
                    .filter_map(|r| Some((r.get("name")?.as_str()?.to_string(), r.clone())))
                    .collect()
            })
            .unwrap_or_default()
    };
    let (ia, ib) = (index(&a), index(&b));
    let field_u64 = |r: &Value, k: &str| r.get(k).and_then(Value::as_u64).unwrap_or(0);
    let field_f64 = |r: &Value, k: &str| r.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    let scans = |r: &Value| {
        r.get("counters")
            .and_then(|c| c.get("scans"))
            .and_then(Value::as_i64)
            .unwrap_or(0)
    };
    println!(
        "{:<22} {:>12} {:>12} {:>8} {:>15} {:>9}",
        "loop", "place_a(us)", "place_b(us)", "delta", "share a->b", "d(scans)"
    );
    for (name, ra) in &ia {
        let Some(rb) = ib.get(name) else {
            println!("{name:<22} only in {a_path}");
            continue;
        };
        let (pa, pb) = (field_u64(ra, "place_ns"), field_u64(rb, "place_ns"));
        let delta = if pa > 0 {
            format!("{:+.1}%", (pb as f64 - pa as f64) / pa as f64 * 100.0)
        } else {
            "n/a".to_string()
        };
        let share = format!(
            "{:.1}%->{:.1}%",
            field_f64(ra, "eject_force_share") * 100.0,
            field_f64(rb, "eject_force_share") * 100.0
        );
        println!(
            "{:<22} {:>12.1} {:>12.1} {:>8} {:>15} {:>+9}",
            name,
            pa as f64 / 1e3,
            pb as f64 / 1e3,
            delta,
            share,
            scans(rb) - scans(ra)
        );
    }
    for name in ib.keys().filter(|n| !ia.contains_key(*n)) {
        println!("{name:<22} only in {b_path}");
    }
    ExitCode::SUCCESS
}

fn cmd_codegen(g: &Ddg, o: &Opts, machine: &MachineModel) -> Result<(), String> {
    let g = prepare(g, o)?;
    let arch = ArchParams::with_ncore(o.ncore);
    let model = CostModel::new(arch.costs, arch.ncore);
    let tms = schedule_tms(&g, machine, &model, &TmsConfig::default())
        .map_err(|e| format!("TMS: {e}"))?;
    let pl = tms_core::PipelinedLoop::generate(&g, &tms.schedule);
    print!("{}", pl.text(&g));
    Ok(())
}

fn cmd_dot(g: &Ddg, o: &Opts, machine: &MachineModel) -> Result<(), String> {
    let g = prepare(g, o)?;
    let arch = ArchParams::with_ncore(o.ncore);
    let model = CostModel::new(arch.costs, arch.ncore);
    let tms = schedule_tms(&g, machine, &model, &TmsConfig::default())
        .map_err(|e| format!("TMS: {e}"))?;
    print!("{}", tms_core::viz::kernel_dot(&g, &tms.schedule));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = || {
        operational(
            "usage: tms <list|show|schedule|simulate|dot|trace|profile|codegen|export|import> [loop] [opts]\n\
             \x20      tms profile <loop|family> [--ncore N] [--top N] [--json PATH] [--metrics PATH]\n\
             \x20      tms profile diff <a.json> <b.json>\n\
             see `tms list` for loop names; options: --ncore N --iters N --unroll F \
             --machine PATH --trace PATH",
        )
    };
    let Some(cmd) = args.first() else {
        return usage();
    };
    match cmd.as_str() {
        "list" => {
            cmd_list();
            ExitCode::SUCCESS
        }
        "profile" => {
            if args.get(1).map(String::as_str) == Some("diff") {
                let (Some(a), Some(b)) = (args.get(2), args.get(3)) else {
                    return operational("usage: tms profile diff <a.json> <b.json>");
                };
                return cmd_profile_diff(a, b);
            }
            cmd_profile(&args[1..])
        }
        "show" | "schedule" | "simulate" | "dot" | "trace" | "codegen" => {
            let Some(name) = args.get(1) else {
                return usage();
            };
            let Some(g) = find_loop(name) else {
                return operational(&format!("unknown loop '{name}' — try `tms list`"));
            };
            run_on_loop(cmd, &g, &args[2..])
        }
        "export" => {
            let (Some(name), Some(path)) = (args.get(1), args.get(2)) else {
                return usage();
            };
            let Some(g) = find_loop(name) else {
                return operational(&format!("unknown loop '{name}' — try `tms list`"));
            };
            let json = match serde_json::to_string_pretty(&g) {
                Ok(json) => json,
                Err(e) => return operational(&format!("serialise {name}: {e}")),
            };
            if let Err(e) = std::fs::write(path, json) {
                return operational(&format!("write {path}: {e}"));
            }
            println!("wrote {path}");
            ExitCode::SUCCESS
        }
        "import" => {
            let (Some(path), Some(sub)) = (args.get(1), args.get(2)) else {
                return usage();
            };
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => return operational(&format!("cannot read {path}: {e}")),
            };
            let g: Ddg = match serde_json::from_str(&text) {
                Ok(g) => g,
                Err(e) => return operational(&format!("parse {path}: {e}")),
            };
            if !matches!(sub.as_str(), "show" | "schedule" | "simulate" | "dot") {
                return usage();
            }
            run_on_loop(sub, &g, &args[3..])
        }
        _ => usage(),
    }
}

/// Operational or malformed-input failure: `tms: <why>`, exit 2 — the
/// same contract as `tms-verify` and `tmsd`. Panics are reserved for
/// bugs.
fn operational(msg: &str) -> ExitCode {
    eprintln!("tms: {msg}");
    ExitCode::from(2)
}

/// Parse options, load the machine model and dispatch a per-loop
/// subcommand; every failure on the way is a structured exit-2 error.
fn run_on_loop(cmd: &str, g: &Ddg, opt_args: &[String]) -> ExitCode {
    let o = match parse_opts(opt_args) {
        Ok(o) => o,
        Err(e) => return operational(&e),
    };
    let machine = match load_machine(&o) {
        Ok(m) => m,
        Err(e) => return operational(&e),
    };
    let result = match cmd {
        "show" => {
            cmd_show(g, &machine);
            Ok(())
        }
        "schedule" => cmd_schedule(g, &o, &machine),
        "simulate" => cmd_simulate(g, &o, &machine),
        "trace" => cmd_trace(g, &o, &machine),
        "codegen" => cmd_codegen(g, &o, &machine),
        _ => cmd_dot(g, &o, &machine),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => operational(&format!("{cmd}: {e}")),
    }
}
