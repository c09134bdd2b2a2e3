//! # nscc-bayes — probabilistic inference for the NSCC reproduction
//!
//! Everything §3.2/§4.2.2 of the paper needs:
//!
//! * [`BeliefNetwork`] — DAG + CPTs (Pearl \[15\]), with exact inference by
//!   enumeration ([`exact_posterior`]) as ground truth.
//! * [`figure1`] — the example medical-diagnosis network of Figure 1.
//! * [`Table2Net`] — generators reproducing Table 2's four benchmark
//!   networks (random A/AA/C and a Hailfinder-statistics-alike).
//! * [`sequential_inference`] — logic sampling with the 90% CI ± 0.01
//!   stopping rule (the uniprocessor baseline of Table 2).
//! * [`Plan`] — the partitioned execution plan (graph partitioning,
//!   staged rounds, coalesced interface batches).
//! * [`run_parallel_inference`] — parallel logic sampling over the DSM in
//!   three disciplines: synchronous, fully asynchronous with rollback
//!   (anti-message corrections + counter-based reproducible draws), and
//!   partially asynchronous (`Global_Read`-throttled speculation);
//!   [`run_planned_inference`] is the same over a [`Plan`] built once.

#![warn(missing_docs)]

mod cost;
mod exact;
mod examples;
mod gen;
mod index;
mod network;
mod parallel;
mod plan;
mod sampling;

pub use cost::BayesCost;
pub use exact::exact_posterior;
pub use examples::{fig1, figure1};
pub use gen::{hailfinder_like, random_network, RandomNetConfig, Table2Net, TABLE2};
pub use network::{binary_node, binary_root, BeliefNetwork, Node, NodeIdx, Value};
pub use parallel::{
    run_parallel_inference, run_planned_inference, BatchValues, BayesPartStats,
    ParallelBayesConfig, ParallelBayesResult, RollbackPolicy,
};
pub use plan::{Batch, BatchId, Plan, RoundPlan};
pub use sampling::{
    evidence_matches, forward_sample, node_draw, sequential_inference, Query, SeqResult, StopRule,
    Tally,
};
