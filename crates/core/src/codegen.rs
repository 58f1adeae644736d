//! Pipelined-loop code generation: prologue, kernel, epilogue.
//!
//! A modulo schedule with `S` stages executes `N` iterations as
//!
//! * a **prologue** of `S − 1` blocks that fill the pipeline (block
//!   `p` issues the instructions of stages `0..=p`, operating on
//!   iterations `p − s_u`),
//! * the **kernel**, executed `N − S + 1` times, each pass issuing
//!   every instruction once (instruction `u` of pass `j` works on
//!   iteration `j + (S − 1) − s_u`... i.e. stage `s_u` lags the newest
//!   iteration by `s_u`),
//! * an **epilogue** of `S − 1` blocks draining stages `p..S`.
//!
//! In the paper's SpMT execution the kernel passes become speculative
//! threads. The simulator lowers a schedule into its thread program
//! itself (`tms_sim::program`), from the same rows and stages, and
//! `tests/simulator_correctness.rs` checks that both execute the same
//! `(instruction, iteration)` instances. This module also gives tests
//! an independent way to prove instance coverage: every pair executes
//! exactly once.

use crate::schedule::Schedule;
use serde::{Deserialize, Serialize};
use tms_ddg::{Ddg, InstId};

/// One emitted instruction instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Emitted {
    /// The instruction.
    pub inst: InstId,
    /// Cycle offset within its block.
    pub cycle: u32,
    /// Iteration-lag relative to the block's newest iteration: an
    /// instruction of stage `s` works on `newest − s`.
    pub stage: u32,
}

/// A straight-line block of the generated loop.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Block {
    /// Block label, e.g. `"prologue.0"`, `"kernel"`, `"epilogue.1"`.
    pub label: String,
    /// Instances in issue order.
    pub code: Vec<Emitted>,
}

/// The generated pipelined loop.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelinedLoop {
    /// `S − 1` fill blocks.
    pub prologue: Vec<Block>,
    /// The steady-state kernel (executed `N − S + 1` times).
    pub kernel: Block,
    /// `S − 1` drain blocks.
    pub epilogue: Vec<Block>,
    /// Stage count `S`.
    pub stages: u32,
    /// Initiation interval.
    pub ii: u32,
}

impl PipelinedLoop {
    /// Generate from a finished schedule.
    pub fn generate(ddg: &Ddg, schedule: &Schedule) -> Self {
        let s = schedule.stage_count();
        let ii = schedule.ii();
        let by_row = |filter: &dyn Fn(u32) -> bool| -> Vec<Emitted> {
            let mut v: Vec<Emitted> = ddg
                .inst_ids()
                .filter(|&n| filter(schedule.stage(n)))
                .map(|n| Emitted {
                    inst: n,
                    cycle: schedule.row(n),
                    stage: schedule.stage(n),
                })
                .collect();
            v.sort_by_key(|e| (e.cycle, e.inst));
            v
        };

        let prologue = (0..s.saturating_sub(1))
            .map(|p| Block {
                label: format!("prologue.{p}"),
                code: by_row(&|stage| stage <= p),
            })
            .collect();
        let kernel = Block {
            label: "kernel".into(),
            code: by_row(&|_| true),
        };
        let epilogue = (1..s)
            .map(|p| Block {
                label: format!("epilogue.{p}"),
                code: by_row(&|stage| stage >= p),
            })
            .collect();
        PipelinedLoop {
            prologue,
            kernel,
            epilogue,
            stages: s,
            ii,
        }
    }

    /// Total instances emitted when the loop runs `n_iter ≥ stages`
    /// iterations.
    pub fn total_instances(&self, n_iter: u64) -> u64 {
        let pro: u64 = self.prologue.iter().map(|b| b.code.len() as u64).sum();
        let epi: u64 = self.epilogue.iter().map(|b| b.code.len() as u64).sum();
        pro + epi + (n_iter - self.stages as u64 + 1) * self.kernel.code.len() as u64
    }

    /// Expand the generated loop into the explicit multiset of
    /// `(instruction, iteration)` instances it executes for `n_iter`
    /// iterations — the coverage oracle used by tests.
    pub fn expand(&self, n_iter: u64) -> Vec<(InstId, u64)> {
        assert!(n_iter >= self.stages as u64, "loop shorter than pipeline");
        let mut out = Vec::new();
        // Prologue block p: newest iteration = p.
        for (p, block) in self.prologue.iter().enumerate() {
            for e in &block.code {
                out.push((e.inst, p as u64 - e.stage as u64));
            }
        }
        // Kernel pass j (0-based): newest iteration = S − 1 + j.
        let passes = n_iter - self.stages as u64 + 1;
        for j in 0..passes {
            let newest = self.stages as u64 - 1 + j;
            for e in &self.kernel.code {
                out.push((e.inst, newest - e.stage as u64));
            }
        }
        // Epilogue block p (p = 1..S): drains stages >= p; the newest
        // live iteration keeps its distance: stage s works on
        // N − 1 − (s − p).
        for block in &self.epilogue {
            let p: u64 = block
                .label
                .strip_prefix("epilogue.")
                .and_then(|x| x.parse().ok())
                .expect("label");
            for e in &block.code {
                out.push((e.inst, n_iter - 1 - (e.stage as u64 - p)));
            }
        }
        out
    }

    /// Render as pseudo-assembly.
    pub fn text(&self, ddg: &Ddg) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let block = |out: &mut String, b: &Block| {
            let _ = writeln!(out, "{}:", b.label);
            for e in &b.code {
                let _ = writeln!(
                    out,
                    "  [c{:>2}] {:<14} ; stage {}",
                    e.cycle,
                    ddg.inst(e.inst).name,
                    e.stage
                );
            }
        };
        for b in &self.prologue {
            block(&mut out, b);
        }
        block(&mut out, &self.kernel);
        let _ = writeln!(out, "  ; repeat kernel N-{} times", self.stages - 1);
        for b in &self.epilogue {
            block(&mut out, b);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sms::schedule_sms;
    use std::collections::HashMap;
    use tms_ddg::{DdgBuilder, OpClass};
    use tms_machine::MachineModel;

    fn three_stage() -> (Ddg, Schedule) {
        let mut b = DdgBuilder::new("p3");
        let a = b.inst("a", OpClass::Load); // 3
        let c = b.inst_lat("c", OpClass::FpMul, 4);
        let d = b.inst("d", OpClass::Store);
        b.reg_flow(a, c, 0);
        b.reg_flow(c, d, 0);
        let g = b.build().unwrap();
        // II=3: a@0 (s0), c@3 (s1), d@7 (s2).
        let s = Schedule::from_times(&g, 3, vec![0, 3, 7]);
        (g, s)
    }

    #[test]
    fn block_counts_match_stages() {
        let (g, s) = three_stage();
        let p = PipelinedLoop::generate(&g, &s);
        assert_eq!(p.stages, 3);
        assert_eq!(p.prologue.len(), 2);
        assert_eq!(p.epilogue.len(), 2);
        assert_eq!(p.kernel.code.len(), 3);
        // prologue.0 has only stage-0 instructions.
        assert_eq!(p.prologue[0].code.len(), 1);
        assert_eq!(p.prologue[1].code.len(), 2);
        // epilogue.1 drains stages 1..3, epilogue.2 only stage 2.
        assert_eq!(p.epilogue[0].code.len(), 2);
        assert_eq!(p.epilogue[1].code.len(), 1);
    }

    #[test]
    fn expansion_covers_every_instance_exactly_once() {
        let (g, s) = three_stage();
        let p = PipelinedLoop::generate(&g, &s);
        let n_iter = 10u64;
        let inst = p.expand(n_iter);
        assert_eq!(inst.len() as u64, p.total_instances(n_iter));
        let mut count: HashMap<(InstId, u64), u32> = HashMap::new();
        for x in inst {
            *count.entry(x).or_insert(0) += 1;
        }
        for n in g.inst_ids() {
            for it in 0..n_iter {
                assert_eq!(
                    count.get(&(n, it)).copied().unwrap_or(0),
                    1,
                    "instance ({n}, {it}) coverage"
                );
            }
        }
        assert_eq!(count.len() as u64, g.num_insts() as u64 * n_iter);
    }

    #[test]
    fn single_stage_loop_has_no_prologue() {
        let mut b = DdgBuilder::new("flat");
        let a = b.inst("a", OpClass::IntAlu);
        let c = b.inst("c", OpClass::IntAlu);
        b.reg_flow(a, c, 0);
        let g = b.build().unwrap();
        let s = Schedule::from_times(&g, 4, vec![0, 1]);
        let p = PipelinedLoop::generate(&g, &s);
        assert!(p.prologue.is_empty());
        assert!(p.epilogue.is_empty());
        let inst = p.expand(5);
        assert_eq!(inst.len(), 10);
    }

    #[test]
    fn coverage_holds_for_real_schedules() {
        let g = tms_workloads::figure1();
        let s = schedule_sms(&g, &MachineModel::icpp2008())
            .unwrap()
            .schedule;
        let p = PipelinedLoop::generate(&g, &s);
        let n_iter = 12u64.max(p.stages as u64);
        let mut count: HashMap<(InstId, u64), u32> = HashMap::new();
        for x in p.expand(n_iter) {
            *count.entry(x).or_insert(0) += 1;
        }
        assert_eq!(count.len() as u64, g.num_insts() as u64 * n_iter);
        assert!(count.values().all(|&c| c == 1));
    }

    #[test]
    fn text_renders_blocks_in_order() {
        let (g, s) = three_stage();
        let p = PipelinedLoop::generate(&g, &s);
        let t = p.text(&g);
        let pro = t.find("prologue.0").unwrap();
        let ker = t.find("kernel:").unwrap();
        let epi = t.find("epilogue.1").unwrap();
        assert!(pro < ker && ker < epi);
        assert!(t.contains("repeat kernel"));
    }
}
