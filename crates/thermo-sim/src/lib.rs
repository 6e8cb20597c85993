//! Virtual-time execution engine for the Thermostat (ASPLOS'17)
//! reproduction.
//!
//! This crate glues the substrates together into a runnable machine:
//!
//! * [`engine`] — the access pipeline (TLB → page walk → BadgerTrap fault →
//!   LLC → memory tier) and the kernel-side operations policies perform;
//! * [`cache`] — the last-level cache model;
//! * [`process`] — VMAs and demand paging with THP;
//! * [`workload`] / [`runner`] — the application abstraction and the loop
//!   that interleaves it with policy daemons on the virtual timeline;
//! * [`sched`] / [`arbiter`] — the co-scheduled multi-tenant runner
//!   (per-tenant timelines between arbiter ticks) and the
//!   shared-fast-tier capacity arbiter (DESIGN.md §13);
//! * [`config`], [`stats`], [`series`], [`clock`] — configuration and
//!   observability.
//!
//! # Example
//!
//! ```
//! use thermo_sim::{Engine, SimConfig};
//!
//! let mut engine = Engine::new(SimConfig::paper_defaults(64 << 20, 64 << 20));
//! let heap = engine.mmap(4 << 20, true, true, false, "heap");
//! engine.access(heap, false); // demand-pages a 2MB THP
//! assert_eq!(engine.rss_bytes(), 2 << 20);
//! ```

#![warn(missing_docs)]
pub mod arbiter;
pub mod cache;
pub mod clock;
pub mod config;
pub mod engine;
pub mod fabric;
pub mod latency;
pub mod process;
pub mod runner;
pub mod sched;
pub mod series;
pub mod stats;
pub mod workload;

pub use arbiter::{Arbiter, ArbiterConfig, ArbiterEvent, Decision, DecisionKind, TenantReport};
pub use cache::{Llc, LlcConfig, LlcStats};
pub use clock::VirtualClock;
pub use config::{ColdAccessModel, SimConfig};
pub use engine::{
    Engine, FootprintBreakdown, MemoryView, OpOutcome, PageInfo, PlanOp, PlanReceipt, PolicyPlan,
    PressureStats,
};
pub use fabric::{CommitStatus, Fabric, FabricConfig, FabricStats, MigrateTxn, TxnState};
pub use latency::LatencyHistogram;
pub use process::{Process, Vma};
pub use runner::{
    run_for, run_for_instrumented, run_ops, run_tenants_sharded, NoPolicy, PolicyHook, RunOutcome,
    ShardOutcome,
};
pub use sched::{run_tenants_coscheduled, CoSchedOutcome, SchedConfig, SchedError};
pub use series::RateSeries;
pub use stats::EngineStats;
pub use workload::{Access, FootprintInfo, Workload};
