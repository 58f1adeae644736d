//! Figure 4 — speedups of TMS over SMS on the quad-core SpMT system.
//!
//! Per benchmark: the loop speedup (execution-time-weighted over the
//! benchmark's loop population, both schedules simulated) and the
//! program speedup (Amdahl weighting by the benchmark's loop-coverage
//! ratio). The paper reports good loop speedups everywhere except
//! `wupwise` (≈ 0), averaging 28% loop / 10% program.

use crate::config::ExperimentConfig;
use crate::report::{pct, render_table};
use crate::runner::{program_speedup_pct, schedule_both, simulate, speedup_pct};
use serde::{Deserialize, Serialize};
use tms_workloads::specfp_profiles;

/// One benchmark's bars in Figure 4.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4Row {
    /// Benchmark name.
    pub benchmark: String,
    /// TMS-over-SMS loop speedup (%, cycle-weighted over loops).
    pub loop_speedup_pct: f64,
    /// Program speedup (%) after Amdahl weighting by loop coverage.
    pub program_speedup_pct: f64,
    /// Total SMS cycles across the population (diagnostic).
    pub sms_cycles: u64,
    /// Total TMS cycles across the population (diagnostic).
    pub tms_cycles: u64,
}

/// Run the Figure 4 experiment.
pub fn run(cfg: &ExperimentConfig) -> Vec<Fig4Row> {
    specfp_profiles()
        .iter()
        .map(|p| {
            let mut sms_total = 0u64;
            let mut tms_total = 0u64;
            for ddg in &p.generate(cfg.seed) {
                let r = schedule_both(ddg, cfg);
                sms_total += simulate(ddg, &r.sms, cfg).total_cycles;
                tms_total += simulate(ddg, &r.tms, cfg).total_cycles;
            }
            let loop_sp = speedup_pct(sms_total, tms_total);
            Fig4Row {
                benchmark: p.name.to_string(),
                loop_speedup_pct: loop_sp,
                program_speedup_pct: program_speedup_pct(loop_sp, p.loop_coverage),
                sms_cycles: sms_total,
                tms_cycles: tms_total,
            }
        })
        .collect()
}

/// Averages across benchmarks `(loop, program)` — the paper quotes
/// 28% and 10%.
pub fn averages(rows: &[Fig4Row]) -> (f64, f64) {
    let n = rows.len().max(1) as f64;
    (
        rows.iter().map(|r| r.loop_speedup_pct).sum::<f64>() / n,
        rows.iter().map(|r| r.program_speedup_pct).sum::<f64>() / n,
    )
}

/// Render the series.
pub fn render(rows: &[Fig4Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.clone(),
                pct(r.loop_speedup_pct),
                pct(r.program_speedup_pct),
            ]
        })
        .collect();
    let (al, ap) = averages(rows);
    let mut out = render_table(
        "Figure 4: Speedups of TMS over SMS (quad-core SpMT)",
        &["Benchmark", "Loop speedup", "Program speedup"],
        &body,
    );
    out.push_str(&format!("average: loop {} program {}\n", pct(al), pct(ap)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wupwise_and_art_contrast() {
        // Smoke-test two benchmarks with a small iteration budget:
        // art (speculable recurrences) must beat wupwise (register
        // recurrences) in loop speedup.
        let cfg = ExperimentConfig {
            n_iter: 48,
            ..ExperimentConfig::default()
        };
        let profiles = specfp_profiles();
        let run_one = |name: &str| {
            let p = profiles.iter().find(|p| p.name == name).unwrap();
            let loops = p.generate(cfg.seed);
            let mut sms = 0u64;
            let mut tms = 0u64;
            for ddg in loops.iter().take(5) {
                let r = schedule_both(ddg, &cfg);
                sms += simulate(ddg, &r.sms, &cfg).total_cycles;
                tms += simulate(ddg, &r.tms, &cfg).total_cycles;
            }
            speedup_pct(sms, tms)
        };
        let art = run_one("art");
        let wupwise = run_one("wupwise");
        assert!(
            art > wupwise,
            "art ({art:.1}%) should out-speed wupwise ({wupwise:.1}%)"
        );
    }

    #[test]
    fn averages_and_render() {
        let rows = vec![
            Fig4Row {
                benchmark: "a".into(),
                loop_speedup_pct: 20.0,
                program_speedup_pct: 10.0,
                sms_cycles: 120,
                tms_cycles: 100,
            },
            Fig4Row {
                benchmark: "b".into(),
                loop_speedup_pct: 40.0,
                program_speedup_pct: 20.0,
                sms_cycles: 140,
                tms_cycles: 100,
            },
        ];
        let (l, p) = averages(&rows);
        assert!((l - 30.0).abs() < 1e-9);
        assert!((p - 15.0).abs() < 1e-9);
        let t = render(&rows);
        assert!(t.contains("Figure 4"));
        assert!(t.contains("average: loop 30.0% program 15.0%"));
    }
}
