//! Experiment harness for the Thermostat reproduction.
//!
//! One binary per paper table/figure (see DESIGN.md §4 for the index):
//! `fig1`, `tab1`, `fig2`, `fig3`, `tab2`, `fig5`…`fig10`, `fig11`,
//! `tab3`, `tab4`, plus the ablations `abl_*` and the `golden`
//! regression checker. Every binary prints human-readable rows matching
//! the paper's presentation and writes `target/experiments/<id>.json`
//! with the table data; registry experiments additionally write
//! `target/experiments/<id>.artifact.json` with the full per-period
//! trajectory of every run.
//!
//! This library provides the shared machinery: building engines and
//! workloads at the evaluation scale, paired baseline/Thermostat runs,
//! result serialization ([`artifact`]), the golden-checked experiment
//! registry ([`experiments`]), and the byte-exact golden check
//! ([`golden`]).

#![warn(missing_docs)]
pub mod artifact;
pub mod benchagg;
pub mod experiments;
pub mod fab;
pub mod figs;
pub mod golden;
pub mod harness;
pub mod report;
pub mod scen;
pub mod tabs;
pub mod tenants;
pub mod tenants_shared;

pub use artifact::{ExperimentArtifact, RunArtifact};
pub use harness::{baseline_run, thermostat_run, AppRun, EvalParams};
pub use report::{write_json, ExperimentReport};
