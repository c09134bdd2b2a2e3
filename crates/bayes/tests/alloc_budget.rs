//! Allocation budget of the parallel sampling loop: in steady state (the
//! rollback window full, so iteration records are recycled) a partition
//! allocates for the messages it writes — the batch payload, its `Arc`,
//! the per-destination delivery event and the update log the receiver
//! drains — and for nothing else. In particular the count does not grow
//! with `block × owned nodes`: the kernel this replaced made two heap
//! allocations per node×sample (a parent-list clone and a full-network
//! scratch assignment) plus hash-map and tree nodes per record — 305
//! allocations per partition-iteration at block 4 and 953 at block 16 on
//! this fixture (44 and 109 per write), where this kernel makes 31 and 40
//! (4.6 and 4.7 per write).
//!
//! Measured as a difference: the same run to two iteration caps, so set-up
//! and the window's fill phase cancel. This file holds a single test on
//! purpose: the counter is process-wide.

#[path = "../../../tests/support/counting.rs"]
mod counting;

mod common;

use std::sync::Arc;

use nscc_bayes::{run_planned_inference, BayesCost, ParallelBayesConfig, Plan, Query, StopRule};
use nscc_dsm::Coherence;
use nscc_msg::MsgConfig;

const PARTS: usize = 2;
const SHORT: u64 = 200;
const LONG: u64 = 600;
/// Allocations one DSM write may cost end to end (sender and receiver).
const BUDGET_PER_WRITE: u64 = 6;

/// Allocations and DSM writes of one whole run capped at `iterations`.
fn run(block: usize, iterations: u64) -> (u64, u64) {
    let net = Arc::new(common::fixture());
    let query = Query {
        node: 25,
        evidence: vec![(2, 0), (9, 1)],
    };
    let plan = Plan::with_assignment(&net, PARTS, common::assign(PARTS), &query);
    let cfg = ParallelBayesConfig {
        // Never converge: both runs go to their cap.
        stop: StopRule {
            min_accepted: u64::MAX,
            ..StopRule::default()
        },
        cost: BayesCost::deterministic(),
        block,
        max_iterations: iterations,
        ..ParallelBayesConfig::new(Coherence::PartialAsync { age: 3 })
    };
    let before = counting::total();
    let res = run_planned_inference(
        net,
        &query,
        &plan,
        cfg,
        common::quiet_ethernet(),
        MsgConfig::default(),
        5,
    )
    .unwrap();
    let allocs = counting::total() - before;
    let rollbacks: u64 = res.per_part.iter().map(|p| p.rollbacks).sum();
    assert!(rollbacks > 0, "the budget must cover the rollback path too");
    (allocs, res.dsm.writes)
}

#[test]
fn steady_state_allocates_per_message_only() {
    for block in [4, 16] {
        let (short_allocs, short_writes) = run(block, SHORT);
        let (long_allocs, long_writes) = run(block, LONG);
        let (allocs, writes) = (long_allocs - short_allocs, long_writes - short_writes);
        let per_iteration = allocs / (PARTS as u64 * (LONG - SHORT));
        // Shown by `--nocapture`, for the next parent→change table.
        println!("block {block}: {per_iteration} allocations per iteration, {allocs} for {writes} writes");
        assert!(
            allocs <= BUDGET_PER_WRITE * writes,
            "block {block}: {allocs} allocations for {writes} writes over {} steady-state \
             iterations ({per_iteration} per iteration), budget {BUDGET_PER_WRITE} per write: \
             something in the sampling loop allocates per node, sample or record again",
            PARTS as u64 * (LONG - SHORT)
        );
    }
}
