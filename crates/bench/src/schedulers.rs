//! IMS vs SMS vs TMS — substantiating the paper's scheduler choice.
//!
//! §1 adopts SMS "since SMS finds the best schedules in general
//! (Codina et al. \[3\])" and stresses that TMS "is not tied to any
//! existing modulo scheduling algorithm". This experiment runs all
//! three schedulers over the DOACROSS suite plus a population sample
//! and reports the traditional single-core metrics (II, MaxLive)
//! alongside the thread-sensitive one (`C_delay`): IMS and SMS reach
//! comparable IIs, SMS carries less register pressure, and only TMS
//! controls the synchronisation delay.

use crate::config::ExperimentConfig;
use crate::report::{f1, render_table};
use serde::{Deserialize, Serialize};
use tms_core::cost::CostModel;
use tms_core::lifetimes::max_live;
use tms_core::metrics::achieved_c_delay;
use tms_core::{schedule_ims, schedule_sms, schedule_tms, TmsConfig};
use tms_workloads::{doacross_suite, specfp_profiles};

/// Per-scheduler averages over one loop set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SchedulerRow {
    /// Loop set name.
    pub set: String,
    /// Loops scheduled.
    pub n_loops: u32,
    /// IMS: average II / MaxLive / C_delay.
    pub ims: (f64, f64, f64),
    /// SMS: average II / MaxLive / C_delay.
    pub sms: (f64, f64, f64),
    /// TMS: average II / MaxLive / C_delay.
    pub tms: (f64, f64, f64),
}

/// Run the comparison.
pub fn run(cfg: &ExperimentConfig) -> Vec<SchedulerRow> {
    let machine = cfg.machine();
    let arch = cfg.arch();
    let model = CostModel::new(arch.costs, arch.ncore);

    let mut sets: Vec<(String, Vec<tms_ddg::Ddg>)> = vec![(
        "doacross".into(),
        doacross_suite(cfg.seed)
            .into_iter()
            .map(|l| l.ddg)
            .collect(),
    )];
    for p in specfp_profiles()
        .iter()
        .filter(|p| ["swim", "art", "fma3d"].contains(&p.name))
    {
        sets.push((
            p.name.to_string(),
            p.generate(cfg.seed).into_iter().take(8).collect(),
        ));
    }

    sets.into_iter()
        .map(|(set, loops)| {
            let n = loops.len() as f64;
            let mut acc = [[0.0f64; 3]; 3];
            for ddg in &loops {
                let ims = schedule_ims(ddg, &machine).expect("IMS").schedule;
                let sms = schedule_sms(ddg, &machine).expect("SMS").schedule;
                let tms = schedule_tms(ddg, &machine, &model, &TmsConfig::default())
                    .expect("TMS")
                    .schedule;
                for (i, sch) in [&ims, &sms, &tms].into_iter().enumerate() {
                    acc[i][0] += sch.ii() as f64;
                    acc[i][1] += max_live(ddg, sch) as f64;
                    acc[i][2] += achieved_c_delay(ddg, sch, &arch.costs) as f64;
                }
            }
            let avg = |i: usize| (acc[i][0] / n, acc[i][1] / n, acc[i][2] / n);
            SchedulerRow {
                set,
                n_loops: loops.len() as u32,
                ims: avg(0),
                sms: avg(1),
                tms: avg(2),
            }
        })
        .collect()
}

/// Render the comparison.
pub fn render(rows: &[SchedulerRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.set.clone(),
                r.n_loops.to_string(),
                f1(r.ims.0),
                f1(r.ims.1),
                f1(r.ims.2),
                f1(r.sms.0),
                f1(r.sms.1),
                f1(r.sms.2),
                f1(r.tms.0),
                f1(r.tms.1),
                f1(r.tms.2),
            ]
        })
        .collect();
    render_table(
        "Scheduler comparison: IMS (Rau) vs SMS (Llosa) vs TMS",
        &[
            "Set", "#", "IMS II", "IMS ML", "IMS D", "SMS II", "SMS ML", "SMS D", "TMS II",
            "TMS ML", "TMS D",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_shapes() {
        let cfg = ExperimentConfig::quick();
        let rows = run(&cfg);
        assert!(rows.len() >= 3);
        for r in &rows {
            // IMS and SMS land in the same II ballpark...
            assert!(
                (r.ims.0 - r.sms.0).abs() <= r.sms.0 * 0.35 + 2.0,
                "{}: IMS II {} vs SMS II {}",
                r.set,
                r.ims.0,
                r.sms.0
            );
            // ...and only TMS brings C_delay down.
            assert!(
                r.tms.2 <= r.sms.2 + 0.5,
                "{}: TMS D {} vs SMS D {}",
                r.set,
                r.tms.2,
                r.sms.2
            );
        }
    }

    #[test]
    fn render_has_all_columns() {
        let rows = vec![SchedulerRow {
            set: "x".into(),
            n_loops: 3,
            ims: (8.0, 14.0, 10.0),
            sms: (8.0, 12.0, 10.0),
            tms: (10.0, 13.0, 5.0),
        }];
        let t = render(&rows);
        assert!(t.contains("IMS II"));
        assert!(t.contains("TMS D"));
    }
}
