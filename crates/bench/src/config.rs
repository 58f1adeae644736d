//! Shared experiment configuration.

use serde::{Deserialize, Serialize};
use tms_machine::{ArchParams, MachineModel};

/// Knobs shared by every experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Seed for workload generation and simulation draws.
    pub seed: u64,
    /// Iterations simulated per loop.
    pub n_iter: u64,
    /// Cores of the SpMT system.
    pub ncore: u32,
    /// Model the cache hierarchy during simulation.
    pub model_caches: bool,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            seed: 0x1CC9_2008,
            n_iter: 400,
            ncore: 4,
            model_caches: true,
        }
    }
}

impl ExperimentConfig {
    /// A fast configuration for Criterion benches and smoke tests.
    pub fn quick() -> Self {
        ExperimentConfig {
            n_iter: 64,
            ..Self::default()
        }
    }

    /// The per-core machine model (Table 1).
    pub fn machine(&self) -> MachineModel {
        MachineModel::icpp2008()
    }

    /// The system parameters with this config's core count.
    pub fn arch(&self) -> ArchParams {
        ArchParams::with_ncore(self.ncore)
    }

    /// A simulator configuration derived from this experiment config.
    pub fn sim(&self) -> tms_sim::SimConfig {
        tms_sim::SimConfig {
            arch: self.arch(),
            n_iter: self.n_iter,
            seed: self.seed,
            model_caches: self.model_caches,
            detect_violations: true,
            collect_trace: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_papers_system() {
        let c = ExperimentConfig::default();
        assert_eq!(c.ncore, 4);
        assert!(c.n_iter >= 100);
        assert_eq!(c.arch().ncore, 4);
        assert_eq!(c.sim().n_iter, c.n_iter);
    }

    #[test]
    fn quick_is_smaller() {
        assert!(ExperimentConfig::quick().n_iter < ExperimentConfig::default().n_iter);
    }
}
