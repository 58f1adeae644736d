//! Swing (SMS) and Thread-Sensitive (TMS) modulo scheduling.
//!
//! This crate is the primary contribution of the reproduction of
//! *Thread-Sensitive Modulo Scheduling for Multicore Processors*
//! (Gao, Nguyen, Li, Xue, Ngai — ICPP 2008):
//!
//! * [`sms`] — the baseline Swing Modulo Scheduler (node ordering,
//!   scheduling windows, modulo reservation table) and the shared
//!   scheduling engine with its [`sms::SlotPolicy`] hook;
//! * [`tms`] — the thread-sensitive generalisation: a cost-model-driven
//!   enumeration of `(II, C_delay)` candidates plus the C1/C2 slot
//!   admission checks of the paper's Figure 3;
//! * [`cost`] — the §4.2 cost model (`T_nomiss`, `T_mis_spec`,
//!   Definition 2's `sync`, Definition 3's *preserved* test);
//! * [`postpass`] — copy insertion and SEND/RECV planning;
//! * [`lifetimes`] / [`metrics`] — MaxLive, `C_delay` and the other
//!   §5 reporting metrics;
//! * [`list_sched`] — a non-pipelined list scheduler (a lower-bound
//!   reference; Figure 5's actual baseline is `tms-sim`'s out-of-order
//!   sequential model).
//!
//! # Quick start
//!
//! ```
//! use tms_ddg::{DdgBuilder, OpClass};
//! use tms_machine::{ArchParams, MachineModel};
//! use tms_core::cost::CostModel;
//! use tms_core::{schedule_sms, schedule_tms, TmsConfig};
//!
//! // A tiny DOACROSS loop: an accumulation plus independent work.
//! let mut b = DdgBuilder::new("example");
//! let acc = b.inst_lat("acc", OpClass::FpAdd, 2);
//! let ld = b.inst("ld", OpClass::Load);
//! let st = b.inst("st", OpClass::Store);
//! b.reg_flow(ld, acc, 0);
//! b.reg_flow(acc, acc, 1);
//! b.reg_flow(acc, st, 0);
//! let ddg = b.build().unwrap();
//!
//! let machine = MachineModel::icpp2008();
//! let arch = ArchParams::icpp2008();
//! let model = CostModel::new(arch.costs, arch.ncore);
//!
//! let sms = schedule_sms(&ddg, &machine).unwrap();
//! let tms = schedule_tms(&ddg, &machine, &model, &TmsConfig::default()).unwrap();
//! assert!(tms.schedule.check_legal(&ddg).is_none());
//! assert!(sms.schedule.check_legal(&ddg).is_none());
//! ```

pub mod codegen;
pub mod cost;
pub mod diagnostics;
pub mod ims;
pub mod lifetimes;
pub mod list_sched;
pub mod metrics;
pub mod mrt;
pub mod order;
pub mod par;
pub mod postpass;
pub mod profile;
pub mod schedule;
pub mod sms;
pub mod tms;
pub mod unrolling;
pub mod viz;
pub mod warm;
pub mod window;

pub use codegen::PipelinedLoop;
pub use cost::CostModel;
pub use diagnostics::{verify_schedule, Diagnostic, VerifyLimits};
pub use ims::{schedule_ims, ImsResult};
pub use metrics::LoopMetrics;
pub use par::{par_map, Parallelism};
pub use postpass::CommPlan;
pub use profile::{NodeHotspot, PlaceProfile};
pub use schedule::{PartialSchedule, Schedule};
pub use sms::{schedule_sms, schedule_sms_with, SchedError, SchedScratch, SmsResult};
pub use tms::{schedule_tms, schedule_tms_traced, CandidateReject, TmsConfig, TmsResult};
pub use unrolling::{schedule_tms_unrolled, UnrolledTms};
pub use warm::AttemptLog;
