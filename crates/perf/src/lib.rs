//! # nscc-perf — the host-time benchmark of the NSCC stack
//!
//! The simulator has two clocks. *Virtual time* carries the paper's
//! results and is deterministic; *host time* — what producing those
//! results costs — is what this crate measures, from outside, through the
//! public functions of every layer:
//!
//! * four pinned [`workloads`] (`ga_sweep`, `bayes_sweep`, `chaos_hunt`,
//!   `report_tools`), each a fixed seed-derived op list;
//! * end-to-end metrics with regression bounds ([`run`], `BENCHMARK.json`);
//! * a per-layer table: [`probes`], deterministic counters and a modelled
//!   layer budget, from one traced pass ([`trace`]);
//! * [`cli`]: `run`, `suite`, `compare`, `probes`, `pin-test`.
//!
//! See `crates/perf/README.md` for the metric and interaction tables.

#![warn(missing_docs)]

pub mod cli;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;
