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

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nscc_bayes::{run_planned_inference, BayesCost, ParallelBayesConfig, Plan, Query, StopRule};
use nscc_dsm::Coherence;
use nscc_msg::MsgConfig;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

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
    let before = ALLOCS.load(Ordering::Relaxed);
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
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
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
