//! # nscc-ga — genetic algorithms for the NSCC reproduction
//!
//! Everything §3.1/§4.2.1 of the paper needs:
//!
//! * [`TestFn`] — the eight-function minimization test bed of Table 1
//!   (DeJong F1–F5, Mühlenbein F6–F8).
//! * [`Genome`]/[`decode`] — DeJong's fixed-point binary coding with
//!   single-point crossover and bitwise mutation. A genome is inline
//!   (`Copy`, at most [`Genome::MAX_BITS`] bits), so an [`Individual`] is
//!   48 plain bytes and a population is one contiguous array.
//! * [`Deme`] — one sub-population under the paper's parameter set
//!   (N=50, C=0.6, M=0.001, G=1, W=1, elitist), with the
//!   fitness-caching optimization of the paper's serial baseline
//!   ([`FitnessCache`]: exact, open-addressed, with a per-variable term
//!   table for the separable functions). A generation touches no heap and
//!   draws a fixed, documented RNG stream (DESIGN.md, "GA kernel"); the
//!   kernel it replaced lives on as the reference of
//!   `tests/kernel_pin.rs`.
//! * [`SerialGa`] — the optimized sequential baseline (population scaled
//!   to `50 × p`).
//! * [`run_island`] — the island-model parallel GA over the DSM: each
//!   generation broadcasts the best N/2 individuals and incorporates
//!   migrants under a [`Coherence`](nscc_dsm::Coherence) discipline
//!   (synchronous / fully asynchronous / `Global_Read` with an age).
//! * [`CostModel`] — calibrated virtual-CPU-time accounting, including
//!   load-skew jitter (see DESIGN.md §2).

#![warn(missing_docs)]

mod cache;
mod cost;
mod encoding;
mod functions;
mod island;
mod params;
mod population;
mod serial;
mod supervise;

pub use cache::FitnessCache;
pub use cost::CostModel;
pub use encoding::{decode, eval_genome, Genome};
pub use functions::{TestFn, ALL_FUNCTIONS};
pub use island::{
    run_island, ConvergenceBoard, IslandConfig, IslandOutcome, MigrantBatch, RecoveryPlan,
    RecoveryStyle, StopPolicy, Topology,
};
pub use params::GaParams;
pub use population::{Deme, DemeState, GenWork, Individual};
pub use serial::{SerialGa, SerialResult};
pub use supervise::{Decision, RecoverySummary, Supervisor, SupervisorPolicy};
