//! Allocation budget of one DSM round: rank 0 writes a 33-allocation value,
//! ranks 1..8 each `global_read` it (blocked) and read it again (cached).
//! The value is allocated once and shared, so a round costs a small fixed
//! number of heap allocations; one accidental deep copy anywhere on the
//! path adds 33 (one per destination adds 231) and trips the budget here,
//! in tier-1, instead of waiting for a benchmark to notice.
//!
//! This file holds a single test on purpose: the counter is process-wide.

#[path = "../../../tests/support/counting.rs"]
mod counting;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nscc_dsm::{Directory, DsmWorld};
use nscc_msg::MsgConfig;
use nscc_net::{IdealMedium, Network};
use nscc_sim::{SimBuilder, SimTime};

const RANKS: usize = 8;
const WARMUP: u64 = 16;
const MEASURED: u64 = 64;
/// Allocations one write → 7 × (blocked read + cached read) round may make.
/// Measured: 41 — the value's own 33 plus 1 for its `Arc`, then one boxed
/// delivery event per destination; a blocked `recv` allocates nothing (the
/// mailbox keeps its wait reason and depth probe). The headroom is less
/// than one allocation per reader, far below one deep copy.
const BUDGET_PER_ROUND: u64 = 44;

#[test]
fn a_round_allocates_the_value_once() {
    let mut dir = Directory::new();
    let loc = dir.add("x", 0, 1..RANKS);
    let mut world: DsmWorld<Vec<Vec<u8>>> = DsmWorld::new(
        Network::new(IdealMedium::new(SimTime::from_millis(1))),
        RANKS,
        MsgConfig::default(),
        dir,
    );
    world.set_initial(loc, Vec::new());

    let window = Arc::new(AtomicU64::new(0));
    let mut sim = SimBuilder::new(0);
    let mut writer = world.node(0);
    let out = Arc::clone(&window);
    sim.spawn("writer", move |ctx| {
        let mut start = 0;
        for iter in 1..=WARMUP + MEASURED {
            if iter == WARMUP + 1 {
                start = counting::total();
            }
            writer.write(ctx, loc, vec![vec![iter as u8; 16]; 32], iter);
            // Every reader finishes this round (1 ms away) before the
            // next write: processes run one at a time, in virtual-time
            // order, so the window below covers whole rounds only.
            ctx.advance(SimTime::from_millis(10));
        }
        out.store(counting::total() - start, Ordering::Relaxed);
    });
    for r in 1..RANKS {
        let mut reader = world.node(r);
        sim.spawn(format!("reader{r}"), move |ctx| {
            for iter in 1..=WARMUP + MEASURED {
                let (age, v) = reader.global_read(ctx, loc, iter, 0);
                assert_eq!((age, v.len()), (iter, 32));
                let (age, _) = reader.global_read(ctx, loc, iter, 0);
                assert_eq!(age, iter);
            }
        });
    }
    sim.run().unwrap();
    let stats = world.total_stats();
    assert_eq!(stats.blocked_reads, 7 * (WARMUP + MEASURED));

    let per_round = window.load(Ordering::Relaxed) / MEASURED;
    assert!(
        per_round <= BUDGET_PER_ROUND,
        "{per_round} allocations per round, budget {BUDGET_PER_ROUND}: \
         something on the write → multicast → apply → read path copies the value"
    );
}
