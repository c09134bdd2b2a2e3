//! Integration tests of parallel logic sampling over the DSM.

use std::sync::Arc;

use nscc_bayes::{
    exact_posterior, figure1, run_parallel_inference, sequential_inference, BayesCost,
    ParallelBayesConfig, Query, StopRule, Table2Net,
};
use nscc_dsm::Coherence;
use nscc_msg::MsgConfig;
use nscc_net::{EthernetBus, IdealMedium, Network};
use nscc_sim::SimTime;

fn fig1_query() -> Query {
    Query {
        node: nscc_bayes::fig1::A,
        evidence: vec![(nscc_bayes::fig1::D, 1)],
    }
}

fn quick_cfg(mode: Coherence) -> ParallelBayesConfig {
    ParallelBayesConfig {
        stop: StopRule {
            halfwidth: 0.02,
            ..StopRule::default()
        },
        cost: BayesCost::deterministic(),
        block: 4,
        max_iterations: 20_000,
        ..ParallelBayesConfig::new(mode)
    }
}

fn ideal() -> Network {
    Network::new(IdealMedium::new(SimTime::from_micros(300)))
}

#[test]
fn single_partition_matches_sequential_exactly() {
    let net = Arc::new(figure1());
    let cfg = quick_cfg(Coherence::ASYNC);
    let res = run_parallel_inference(
        Arc::clone(&net),
        fig1_query(),
        1,
        cfg.clone(),
        ideal(),
        MsgConfig::default(),
        1,
    )
    .unwrap();
    // Sequential over the same number of samples with the same seed.
    let seq = sequential_inference(
        &net,
        &fig1_query(),
        &StopRule {
            min_accepted: u64::MAX, // never stop early
            ..StopRule::default()
        },
        &BayesCost::deterministic(),
        cfg.sample_seed,
        res.drawn,
    );
    assert_eq!(res.drawn, seq.samples);
    assert_eq!(res.accepted, seq.accepted, "identical draws must agree");
    assert_eq!(res.posterior, seq.posterior);
}

#[test]
fn sync_two_partitions_match_sequential_exactly() {
    let net = Arc::new(figure1());
    let cfg = quick_cfg(Coherence::Synchronous);
    let res = run_parallel_inference(
        Arc::clone(&net),
        fig1_query(),
        2,
        cfg.clone(),
        ideal(),
        MsgConfig::default(),
        3,
    )
    .unwrap();
    assert!(res.converged);
    let seq = sequential_inference(
        &net,
        &fig1_query(),
        &StopRule {
            min_accepted: u64::MAX,
            ..StopRule::default()
        },
        &BayesCost::deterministic(),
        cfg.sample_seed,
        res.drawn,
    );
    assert_eq!(
        res.accepted, seq.accepted,
        "synchronous sampling uses exact values: tallies must agree"
    );
    assert_eq!(res.posterior, seq.posterior);
    // No speculation in sync mode.
    let rollbacks: u64 = res.per_part.iter().map(|p| p.rollbacks).sum();
    assert_eq!(rollbacks, 0);
}

#[test]
fn controlled_modes_converge_near_the_exact_posterior() {
    let net = Arc::new(figure1());
    let exact = exact_posterior(&net, fig1_query().node, &fig1_query().evidence);
    for mode in [
        Coherence::Synchronous,
        Coherence::PartialAsync { age: 0 },
        Coherence::PartialAsync { age: 10 },
    ] {
        let res = run_parallel_inference(
            Arc::clone(&net),
            fig1_query(),
            2,
            quick_cfg(mode),
            ideal(),
            MsgConfig::default(),
            7,
        )
        .unwrap();
        assert!(res.converged, "{mode} failed to converge");
        for (e, p) in exact.iter().zip(&res.posterior) {
            assert!(
                (e - p).abs() < 0.06,
                "{mode}: posterior {:?} too far from exact {:?}",
                res.posterior,
                exact
            );
        }
    }
}

#[test]
fn uncontrolled_async_strays_and_starves_its_tally() {
    // Figure 1 splits into unequal partitions; with nothing to throttle
    // it, the lighter one races ahead without bound, its speculative
    // blocks fall off the rollback window unconfirmed and are discarded —
    // so the tally starves and the run cannot converge. This is the §1
    // runaway pathology Global_Read exists to prevent (the ages in
    // `controlled_modes_converge_near_the_exact_posterior` all converge
    // on the identical setup).
    let net = Arc::new(figure1());
    let res = run_parallel_inference(
        Arc::clone(&net),
        fig1_query(),
        2,
        ParallelBayesConfig {
            max_iterations: 8_000,
            ..quick_cfg(Coherence::ASYNC)
        },
        ideal(),
        MsgConfig::default(),
        7,
    )
    .unwrap();
    assert!(!res.converged, "unthrottled async should starve here");
    let discarded: u64 = res.per_part.iter().map(|p| p.discarded).sum();
    assert!(discarded > 0, "the waste must be visible in the stats");
}

#[test]
fn partial_async_age_bound_prevents_window_overflow() {
    // Severe load skew (frequent long stalls) lets a fully asynchronous
    // partition stray far beyond the rollback window: speculative samples
    // freeze unconfirmed and must be *discarded* — wasted work. The
    // Global_Read age bound keeps runahead within the window, so nothing
    // is ever discarded.
    let net = Arc::new(Table2Net::Hailfinder.build());
    let query = Query {
        node: net.len() - 1,
        evidence: vec![],
    };
    let run = |mode| {
        let cfg = ParallelBayesConfig {
            stop: StopRule {
                halfwidth: 0.03,
                ..StopRule::default()
            },
            cost: BayesCost {
                hiccup_rate_per_sec: 10.0,
                hiccup_stall: nscc_sim::SimTime::from_millis(600),
                ..BayesCost::default()
            },
            block: 4,
            max_iterations: 3000,
            ..ParallelBayesConfig::new(mode)
        };
        run_parallel_inference(
            Arc::clone(&net),
            query.clone(),
            2,
            cfg,
            Network::new(EthernetBus::ten_mbps(5)),
            MsgConfig::default(),
            11,
        )
        .unwrap()
    };
    let wild = run(Coherence::ASYNC);
    let tamed = run(Coherence::PartialAsync { age: 2 });
    let discarded = |r: &nscc_bayes::ParallelBayesResult| -> u64 {
        r.per_part.iter().map(|p| p.discarded).sum()
    };
    assert!(
        discarded(&wild) > 0,
        "uncontrolled speculation must overflow the rollback window"
    );
    assert_eq!(
        discarded(&tamed),
        0,
        "the age bound must keep every sample within the window"
    );
}

#[test]
fn rollbacks_occur_and_correct_the_estimate_under_async() {
    let net = Arc::new(Table2Net::A.build());
    let query = Query {
        node: net.len() - 1,
        evidence: vec![],
    };
    let cfg = ParallelBayesConfig {
        stop: StopRule {
            halfwidth: 0.04,
            ..StopRule::default()
        },
        cost: BayesCost::default(),
        block: 4,
        max_iterations: 5_000,
        ..ParallelBayesConfig::new(Coherence::ASYNC)
    };
    let res = run_parallel_inference(
        Arc::clone(&net),
        query.clone(),
        2,
        cfg.clone(),
        Network::new(EthernetBus::ten_mbps(2)),
        MsgConfig::default(),
        13,
    )
    .unwrap();
    assert!(res.converged);
    let rollbacks: u64 = res.per_part.iter().map(|p| p.rollbacks).sum();
    assert!(
        rollbacks > 0,
        "cross-partition speculation on network A must trigger rollbacks"
    );
    // 54 binary nodes are far beyond exact enumeration; the reference is
    // a long sequential sampling run with the same counter-based draws.
    let reference = sequential_inference(
        &net,
        &query,
        &StopRule {
            min_accepted: u64::MAX,
            ..StopRule::default()
        },
        &BayesCost::deterministic(),
        cfg.sample_seed,
        30_000,
    );
    for (e, p) in reference.posterior.iter().zip(&res.posterior) {
        assert!(
            (e - p).abs() < 0.05,
            "posterior {:?} vs reference {:?}",
            res.posterior,
            reference.posterior
        );
    }
}

#[test]
fn determinism_per_seed() {
    let net = Arc::new(figure1());
    let run = || {
        run_parallel_inference(
            Arc::clone(&net),
            fig1_query(),
            2,
            quick_cfg(Coherence::PartialAsync { age: 3 }),
            ideal(),
            MsgConfig::default(),
            21,
        )
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.posterior, b.posterior);
    assert_eq!(a.completion, b.completion);
    assert_eq!(a.drawn, b.drawn);
}

/// A batch update costs the DSM header (4 tag + 4 loc + 8 age) plus a
/// length-prefixed byte per value: what `msg.payload_bytes` charges per
/// block a partition publishes.
#[test]
fn batch_update_wire_size_is_pinned() {
    let values: nscc_bayes::BatchValues = vec![1; 32];
    let msg = nscc_dsm::DsmMsg::Update {
        loc: nscc_dsm::LocId(2),
        age: 11,
        value: Arc::new(values),
    };
    assert_eq!(nscc_msg::wire_size(&msg), 4 + 4 + 8 + 4 + 32);
    let heartbeat: nscc_dsm::DsmMsg<nscc_bayes::BatchValues> = nscc_dsm::DsmMsg::Update {
        loc: nscc_dsm::LocId(2),
        age: 12,
        value: Arc::new(Vec::new()),
    };
    assert_eq!(nscc_msg::wire_size(&heartbeat), 4 + 4 + 8 + 4);
}
