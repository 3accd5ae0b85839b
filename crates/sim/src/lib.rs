//! Full-system intermittent-computing simulator for the EDBP reproduction.
//!
//! This crate wires every substrate together into the paper's evaluation
//! platform (Section VI-A): a 25 MHz in-order core (`ehs-cpu`) running a
//! synthetic MiBench/Mediabench workload (`ehs-workloads`) over an SRAM data
//! cache and ReRAM instruction cache (`ehs-cache` + `ehs-nvm`), backed by
//! ReRAM main memory, powered by a capacitor charged from an ambient source
//! (`ehs-energy`), with JIT checkpointing in the NVSRAMCache style and a
//! pluggable dead/zombie-block predictor (`edbp-core`).
//!
//! The crate exposes three layers:
//!
//! * [`SystemConfig`] / [`Scheme`] / [`run_app`] — run one application under
//!   one scheme and get a [`RunResult`] (timings, energy breakdown, cache
//!   stats, prediction accounting).
//! * [`runner`] — fan a set of runs out across threads, deterministically.
//! * [`planner`] — one [`planner::REGISTRY`] entry per table/figure of the
//!   paper: [`planner::Experiment::run`] renders one, [`planner::run_suite`]
//!   all of them from one deduplicated pass (see `EXPERIMENTS.md`).
//!
//! # Example
//!
//! ```no_run
//! use ehs_sim::{run_app, Scheme, SystemConfig};
//! use ehs_workloads::{AppId, Scale};
//!
//! let config = SystemConfig::paper_default();
//! let base = run_app(&config, Scheme::Baseline, AppId::Crc32, Scale::Tiny);
//! let edbp = run_app(&config, Scheme::Edbp, AppId::Crc32, Scale::Tiny);
//! println!(
//!     "EDBP speedup on crc32: {:.3}",
//!     base.total_time() / edbp.total_time()
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
mod config;
mod experiments;
pub mod fault;
mod fingerprint;
mod memory_system;
pub mod planner;
pub mod report;
pub mod runcache;
pub mod runner;
mod scheme;
mod stats;
mod system;
mod zombie;

pub use config::{CheckpointCosts, SourceKind, SystemConfig};
pub use fingerprint::config_fingerprint;
pub use memory_system::MemorySystem;
pub use scheme::Scheme;
pub use stats::{EnergyBreakdown, RunResult};
pub use system::{
    build_lane, record_generation_trace, run_app, run_lane, run_lockstep, run_workload, LaneRun,
    RunOutcome,
};
pub use zombie::{zombie_ratio_by_voltage, ZombieAnalysis, ZombieSample};
