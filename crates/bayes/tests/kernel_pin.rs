//! Pins the parallel sampling kernel bit-for-bit.
//!
//! Every source of randomness that differs between real `rand` and the
//! offline shim is taken out (see `common/mod.rs`): the network and its
//! CPTs are built by hand, the partition is given rather than bisected,
//! the cost model is deterministic and the Ethernet bus has no backoff
//! jitter. What is left — counter-based draws, virtual time, the
//! rollback protocol — is a pure function of the code, so the digests
//! below hold in both build modes and any change to an observable rule
//! (first-use fetch, default counting, what a correction diffs against,
//! the order of charges and writes) moves at least one of them.
//!
//! Two shapes are pinned: block 4 with a 12-iteration window (`PINNED`,
//! captured at the commit *before* the dense-kernel rewrite of
//! `parallel.rs`) and block 8 with a 64-iteration window (`PINNED_B8`, the
//! defaults the fig3 sweep runs, captured before the cumulative-row
//! lookup and the per-node input resolution). To re-capture after an
//! intended behaviour change, run the test and paste the table it prints
//! on mismatch.

mod common;

use std::sync::Arc;

use nscc_bayes::{
    run_planned_inference, BayesCost, BayesPartStats, ParallelBayesConfig, ParallelBayesResult,
    Plan, Query, StopRule,
};
use nscc_dsm::Coherence;
use nscc_msg::MsgConfig;

fn fnv(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn digest(r: &ParallelBayesResult) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325;
    for p in &r.posterior {
        fnv(&mut h, p.to_bits());
    }
    for x in [
        r.accepted,
        r.drawn,
        r.completion.as_nanos(),
        r.converged as u64,
    ] {
        fnv(&mut h, x);
    }
    for p in &r.per_part {
        for x in [
            p.rank as u64,
            p.iterations,
            p.rollbacks,
            p.late_corrections,
            p.default_uses,
            p.resampled,
            p.discarded,
            p.end_time.as_nanos(),
        ] {
            fnv(&mut h, x);
        }
    }
    let d = &r.dsm;
    for x in [
        d.writes,
        d.updates_sent,
        d.updates_applied,
        d.updates_stale,
        d.cache_hits,
        d.blocked_reads,
        d.block_time.as_nanos(),
        d.barriers,
        d.barrier_time.as_nanos(),
        d.degraded_reads,
        d.suspected_writers,
        d.barrier_timeouts,
    ] {
        fnv(&mut h, x);
    }
    h
}

/// The fixture's iteration cap: at this age and beyond no throttle read
/// can block, so the run is the asynchronous one.
const MAX_ITERATIONS: u64 = 600;

const MODES: [Coherence; 7] = [
    Coherence::Synchronous,
    Coherence::ASYNC, // row[1] below
    Coherence::PartialAsync { age: 0 },
    Coherence::PartialAsync { age: 5 },
    Coherence::PartialAsync { age: 20 },
    Coherence::PartialAsync {
        age: MAX_ITERATIONS,
    },
    Coherence::PartialAsync { age: u64::MAX },
];

/// One digest per parts {1, 2, 3} × mode, in loop order.
#[rustfmt::skip]
const PINNED: [u64; 21] = [
    0x084e46abbf792a61, // parts=1 sync: drawn 1792, rollbacks/defaults/discarded/late [0, 0, 0, 0]
    0x084e46abbf792a61, // parts=1 async: drawn 1792, rollbacks/defaults/discarded/late [0, 0, 0, 0]
    0x084e46abbf792a61, // parts=1 age=0: drawn 1792, rollbacks/defaults/discarded/late [0, 0, 0, 0]
    0x084e46abbf792a61, // parts=1 age=5: drawn 1792, rollbacks/defaults/discarded/late [0, 0, 0, 0]
    0x084e46abbf792a61, // parts=1 age=20: drawn 1792, rollbacks/defaults/discarded/late [0, 0, 0, 0]
    0x084e46abbf792a61, // parts=1 age=600: drawn 1792, rollbacks/defaults/discarded/late [0, 0, 0, 0]
    0x084e46abbf792a61, // parts=1 async: drawn 1792, rollbacks/defaults/discarded/late [0, 0, 0, 0]
    0x8c8fa2c4cfb4f1c1, // parts=2 sync: drawn 1792, rollbacks/defaults/discarded/late [0, 0, 0, 0]
    0x6c1d4dd5e668cd5e, // parts=2 async: drawn 2400, rollbacks/defaults/discarded/late [41, 41707, 1126, 1098]
    0x1847210502d8e93b, // parts=2 age=0: drawn 1796, rollbacks/defaults/discarded/late [1843, 25933, 0, 0]
    0x461eeca7c26ce874, // parts=2 age=5: drawn 1796, rollbacks/defaults/discarded/late [1846, 26141, 0, 0]
    0x053129b037b5af7d, // parts=2 age=20: drawn 1812, rollbacks/defaults/discarded/late [41, 19187, 453, 2218]
    0x6c1d4dd5e668cd5e, // parts=2 age=600: drawn 2400, rollbacks/defaults/discarded/late [41, 41707, 1126, 1098]
    0x6c1d4dd5e668cd5e, // parts=2 async: drawn 2400, rollbacks/defaults/discarded/late [41, 41707, 1126, 1098]
    0xa4c2ba184e3b6e4c, // parts=3 sync: drawn 1792, rollbacks/defaults/discarded/late [0, 0, 0, 0]
    0x3c4c7be01c3a615d, // parts=3 async: drawn 2400, rollbacks/defaults/discarded/late [158, 54684, 1734, 1399]
    0x0b87ff49333ad162, // parts=3 age=0: drawn 1792, rollbacks/defaults/discarded/late [3465, 32565, 0, 0]
    0xb2a561c6b241417e, // parts=3 age=5: drawn 1796, rollbacks/defaults/discarded/late [4183, 38393, 0, 0]
    0x2b7b6d520393c3d0, // parts=3 age=20: drawn 1776, rollbacks/defaults/discarded/late [984, 35043, 882, 3041]
    0x3c4c7be01c3a615d, // parts=3 age=600: drawn 2400, rollbacks/defaults/discarded/late [158, 54684, 1734, 1399]
    0x3c4c7be01c3a615d, // parts=3 async: drawn 2400, rollbacks/defaults/discarded/late [158, 54684, 1734, 1399]
];

/// One digest per parts {1, 2, 3} × mode at block 8, window 64.
#[rustfmt::skip]
const PINNED_B8: [u64; 21] = [
    0xf4232a62845b914a, // parts=1 sync: drawn 1792, rollbacks/defaults/discarded/late [0, 0, 0, 0]
    0xf4232a62845b914a, // parts=1 async: drawn 1792, rollbacks/defaults/discarded/late [0, 0, 0, 0]
    0xf4232a62845b914a, // parts=1 age=0: drawn 1792, rollbacks/defaults/discarded/late [0, 0, 0, 0]
    0xf4232a62845b914a, // parts=1 age=5: drawn 1792, rollbacks/defaults/discarded/late [0, 0, 0, 0]
    0xf4232a62845b914a, // parts=1 age=20: drawn 1792, rollbacks/defaults/discarded/late [0, 0, 0, 0]
    0xf4232a62845b914a, // parts=1 age=600: drawn 1792, rollbacks/defaults/discarded/late [0, 0, 0, 0]
    0xf4232a62845b914a, // parts=1 async: drawn 1792, rollbacks/defaults/discarded/late [0, 0, 0, 0]
    0x2c8cf7285546d6c3, // parts=2 sync: drawn 1792, rollbacks/defaults/discarded/late [0, 0, 0, 0]
    0xc8964d09ea08cfbc, // parts=2 async: drawn 4800, rollbacks/defaults/discarded/late [237, 74410, 881, 845]
    0xe61dc03f6dbe233c, // parts=2 age=0: drawn 1800, rollbacks/defaults/discarded/late [1055, 26032, 0, 0]
    0x96f9b2088d15efc7, // parts=2 age=5: drawn 1800, rollbacks/defaults/discarded/late [1060, 26448, 0, 0]
    0x0e0b9db5c3392616, // parts=2 age=20: drawn 1800, rollbacks/defaults/discarded/late [1071, 27704, 0, 0]
    0xc8964d09ea08cfbc, // parts=2 age=600: drawn 4800, rollbacks/defaults/discarded/late [237, 74410, 881, 845]
    0xc8964d09ea08cfbc, // parts=2 async: drawn 4800, rollbacks/defaults/discarded/late [237, 74410, 881, 845]
    0x756e2194aad5984a, // parts=3 sync: drawn 1792, rollbacks/defaults/discarded/late [0, 0, 0, 0]
    0xc2ecda8a91ae2820, // parts=3 async: drawn 4800, rollbacks/defaults/discarded/late [562, 99608, 1427, 1665]
    0x9cfad8d076af5341, // parts=3 age=0: drawn 1792, rollbacks/defaults/discarded/late [1995, 31934, 0, 0]
    0x76880e3c294120bb, // parts=3 age=5: drawn 1792, rollbacks/defaults/discarded/late [2437, 37355, 0, 0]
    0xefcc8eb2d8223c25, // parts=3 age=20: drawn 1792, rollbacks/defaults/discarded/late [2461, 39351, 0, 0]
    0xc2ecda8a91ae2820, // parts=3 age=600: drawn 4800, rollbacks/defaults/discarded/late [562, 99608, 1427, 1665]
    0xc2ecda8a91ae2820, // parts=3 async: drawn 4800, rollbacks/defaults/discarded/late [562, 99608, 1427, 1665]
];

/// Per-mode digests over parts {1, 2, 3} at `block` and `window`, the
/// table to paste on mismatch and the speculation totals (rollbacks,
/// default uses, discarded records, late corrections).
fn run_table(block: usize, window: usize) -> (Vec<u64>, String, [u64; 4]) {
    let net = Arc::new(common::fixture());
    // Evidence on an early and a middle node, so for every partitioning
    // some of it is remote to the query owner and feeds the tally only.
    let query = Query {
        node: 25,
        evidence: vec![(2, 0), (9, 1)],
    };
    let mut got = Vec::new();
    let mut table = String::new();
    let mut totals = [0; 4];
    for parts in 1..=3usize {
        let plan = Plan::with_assignment(&net, parts, common::assign(parts), &query);
        for mode in MODES {
            let cfg = ParallelBayesConfig {
                stop: StopRule {
                    halfwidth: 0.04,
                    ..StopRule::default()
                },
                cost: BayesCost::deterministic(),
                block,
                max_iterations: MAX_ITERATIONS,
                window,
                ..ParallelBayesConfig::new(mode)
            };
            let res = run_planned_inference(
                Arc::clone(&net),
                &query,
                &plan,
                cfg,
                common::quiet_ethernet(),
                MsgConfig::default(),
                5,
            )
            .unwrap();
            let sum = |f: fn(&BayesPartStats) -> u64| res.per_part.iter().map(f).sum::<u64>();
            let stats = [
                sum(|p| p.rollbacks),
                sum(|p| p.default_uses),
                sum(|p| p.discarded),
                sum(|p| p.late_corrections),
            ];
            for (t, s) in totals.iter_mut().zip(stats) {
                *t += s;
            }
            let d = digest(&res);
            table += &format!(
                "    {d:#018x}, // parts={parts} {mode}: drawn {}, \
                 rollbacks/defaults/discarded/late {stats:?}\n",
                res.drawn
            );
            got.push(d);
        }
        // An age at or beyond the iteration cap is the asynchronous run,
        // cache hits included.
        let row = &got[got.len() - MODES.len()..];
        let async_digest = row[1];
        for (mode, &d) in MODES.iter().zip(row) {
            if mode.age() >= MAX_ITERATIONS {
                assert_eq!(d, async_digest, "parts={parts} {mode:?}:\n{table}");
            }
        }
    }
    (got, table, totals)
}

#[test]
fn kernel_results_are_pinned() {
    let (got, table, [rollbacks, default_uses, discarded, late]) = run_table(4, 12);
    // The fixture must keep exercising speculation, or the pin is hollow.
    assert!(
        rollbacks > 0 && default_uses > 0 && discarded > 0 && late > 0,
        "{table}"
    );
    assert!(
        got == PINNED,
        "kernel digests moved; actual table:\n{table}"
    );
}

#[test]
fn kernel_results_are_pinned_at_the_benchmark_shape() {
    let (got, table, [rollbacks, default_uses, _, _]) = run_table(8, 64);
    assert!(rollbacks > 0 && default_uses > 0, "{table}");
    assert!(
        got == PINNED_B8,
        "kernel digests moved at block 8, window 64; actual table:\n{table}"
    );
}
