//! Table 2 — SMS and TMS compared using traditional modulo-scheduling
//! metrics over the SPECfp2000-calibrated population.
//!
//! Per benchmark: loop count, average instruction count, average MII,
//! then SMS's and TMS's average II / MaxLive / C_delay. The paper's
//! shape: TMS has a larger II but a much smaller C_delay and slightly
//! larger MaxLive than SMS.

use crate::config::ExperimentConfig;
use crate::report::{f1, render_table};
use crate::runner::schedule_both;
use serde::{Deserialize, Serialize};
use tms_workloads::specfp_profiles;

/// One benchmark's row of Table 2.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Loops scheduled.
    pub n_loops: u32,
    /// Average instruction count.
    pub avg_inst: f64,
    /// Average MII.
    pub avg_mii: f64,
    /// SMS: average II.
    pub sms_ii: f64,
    /// SMS: average MaxLive.
    pub sms_maxlive: f64,
    /// SMS: average C_delay.
    pub sms_c_delay: f64,
    /// TMS: average II.
    pub tms_ii: f64,
    /// TMS: average MaxLive.
    pub tms_maxlive: f64,
    /// TMS: average C_delay.
    pub tms_c_delay: f64,
    /// Loops where TMS fell back to the SMS schedule.
    pub tms_fallbacks: u32,
}

/// Run the Table 2 experiment.
pub fn run(cfg: &ExperimentConfig) -> Vec<Table2Row> {
    specfp_profiles()
        .iter()
        .map(|p| {
            let loops = p.generate(cfg.seed);
            let n = loops.len() as f64;
            let mut row = Table2Row {
                benchmark: p.name.to_string(),
                n_loops: p.n_loops,
                avg_inst: 0.0,
                avg_mii: 0.0,
                sms_ii: 0.0,
                sms_maxlive: 0.0,
                sms_c_delay: 0.0,
                tms_ii: 0.0,
                tms_maxlive: 0.0,
                tms_c_delay: 0.0,
                tms_fallbacks: 0,
            };
            for ddg in &loops {
                let r = schedule_both(ddg, cfg);
                row.avg_inst += ddg.num_insts() as f64;
                row.avg_mii += r.sms_metrics.mii as f64;
                row.sms_ii += r.sms_metrics.ii as f64;
                row.sms_maxlive += r.sms_metrics.max_live as f64;
                row.sms_c_delay += r.sms_metrics.c_delay as f64;
                row.tms_ii += r.tms_metrics.ii as f64;
                row.tms_maxlive += r.tms_metrics.max_live as f64;
                row.tms_c_delay += r.tms_metrics.c_delay as f64;
                row.tms_fallbacks += u32::from(r.tms_fell_back);
            }
            for v in [
                &mut row.avg_inst,
                &mut row.avg_mii,
                &mut row.sms_ii,
                &mut row.sms_maxlive,
                &mut row.sms_c_delay,
                &mut row.tms_ii,
                &mut row.tms_maxlive,
                &mut row.tms_c_delay,
            ] {
                *v /= n;
            }
            row
        })
        .collect()
}

/// Render the rows in the paper's layout.
pub fn render(rows: &[Table2Row]) -> String {
    let header = [
        "Benchmark",
        "#Loops",
        "AVG #Inst",
        "AVG MII",
        "SMS II",
        "SMS MaxLive",
        "SMS Cdelay",
        "TMS II",
        "TMS MaxLive",
        "TMS Cdelay",
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.clone(),
                r.n_loops.to_string(),
                f1(r.avg_inst),
                f1(r.avg_mii),
                f1(r.sms_ii),
                f1(r.sms_maxlive),
                f1(r.sms_c_delay),
                f1(r.tms_ii),
                f1(r.tms_maxlive),
                f1(r.tms_c_delay),
            ]
        })
        .collect();
    render_table(
        "Table 2: SMS and TMS compared (averages over each benchmark's loops)",
        &header,
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run on a trimmed population (first 2 benchmarks) to keep unit
    /// tests fast; the full sweep runs in the bin/bench targets.
    #[test]
    fn shape_holds_on_sample_benchmarks() {
        let cfg = ExperimentConfig::quick();
        let profiles = specfp_profiles();
        for p in &profiles[..2] {
            let loops = p.generate(cfg.seed);
            let mut sms_cd = 0.0;
            let mut tms_cd = 0.0;
            for ddg in loops.iter().take(6) {
                let r = schedule_both(ddg, &cfg);
                sms_cd += r.sms_metrics.c_delay as f64;
                tms_cd += r.tms_metrics.c_delay as f64;
            }
            assert!(
                tms_cd <= sms_cd,
                "{}: TMS avg C_delay {tms_cd} must not exceed SMS {sms_cd}",
                p.name
            );
        }
    }

    #[test]
    fn render_includes_all_benchmarks() {
        let rows = vec![Table2Row {
            benchmark: "art".into(),
            n_loops: 10,
            avg_inst: 16.1,
            avg_mii: 7.6,
            sms_ii: 8.1,
            sms_maxlive: 7.8,
            sms_c_delay: 8.1,
            tms_ii: 10.6,
            tms_maxlive: 8.4,
            tms_c_delay: 4.0,
            tms_fallbacks: 0,
        }];
        let t = render(&rows);
        assert!(t.contains("art"));
        assert!(t.contains("16.1"));
        assert!(t.contains("Table 2"));
    }
}
