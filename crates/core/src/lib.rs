//! # nscc-core — the NSCC experiment layer
//!
//! Assembles the substrates (simulated platform, DSM, applications) into
//! the paper's experiments and regenerates every table and figure:
//!
//! * [`Platform`] — message-cost, background-load and fault presets on
//!   the paper's IBM SP2 / 10 Mbps Ethernet testbed.
//! * [`run_ga_experiment`] — one Figure 2/4 cell: serial baseline, then
//!   synchronous / fully-asynchronous / `Global_Read` (ages 0–30) island
//!   GAs, with speedups, quality and warp measurements.
//! * [`run_bayes_experiment`] — one Table 2/Figure 3 cell: sequential
//!   logic sampling plus the three parallel disciplines.
//! * [`RunReport`] — machine-readable merged run record
//!   (`BENCH_<name>.json`) combining layer stats with the observability
//!   hub's histograms and counters.
//! * [`FaultPlan`] (via [`Platform::with_faults`]) — seeded chaos:
//!   frame loss/duplication/delay, degradation windows, node crashes and
//!   partitions, with runs that wedge cut by a watchdog into structured
//!   [`FaultReport`]s instead of hung sweeps.
//! * [`fmt`] — plain-text table rendering shared by the experiments.

#![warn(missing_docs)]

mod bayes_exp;
pub mod fmt;
mod ga_exp;
mod platform;
mod report;

pub use bayes_exp::{
    run_bayes_experiment, run_sequential, BayesExpResult, BayesExperiment, BayesModeResult,
};
pub use ga_exp::{
    paper_modes, run_ga_experiment, GaExpResult, GaExperiment, ModeResult, PAPER_AGES,
};
pub use nscc_faults::{FaultPlan, FaultReport};
pub use nscc_ga::{RecoveryPlan, RecoveryStyle};
pub use platform::Platform;
pub use report::RunReport;
