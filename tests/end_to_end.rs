//! Cross-crate integration tests: the full stack (sim + net + msg + dsm +
//! applications) exercised through the facade crate.

use std::sync::Arc;

use nscc::bayes::{
    exact_posterior, figure1, run_parallel_inference, BayesCost, ParallelBayesConfig, Query,
    StopRule, Table2Net,
};
use nscc::core::{run_ga_experiment, GaExperiment, Platform};
use nscc::dsm::{Coherence, Directory, DsmWorld};
use nscc::ga::{CostModel, TestFn};
use nscc::msg::MsgConfig;
use nscc::net::{EthernetBus, Network, Sp2Switch};
use nscc::sim::{SimBuilder, SimTime};

/// The headline mechanism end to end: Global_Read provides bounded
/// staleness over a contended Ethernet with many ranks.
#[test]
fn global_read_staleness_bound_holds_under_contention() {
    let ranks = 6;
    let mut dir = Directory::new();
    let locs = dir.add_per_rank("v", ranks);
    let mut world: DsmWorld<Vec<u8>> = DsmWorld::new(
        Network::new(EthernetBus::ten_mbps(3)),
        ranks,
        MsgConfig::default(),
        dir,
    );
    for &l in &locs {
        world.set_initial(l, vec![0; 128]);
    }
    let mut sim = SimBuilder::new(3);
    for r in 0..ranks {
        let mut node = world.node(r);
        let locs = locs.clone();
        sim.spawn(format!("rank{r}"), move |ctx| {
            use rand::Rng;
            for iter in 1..=40u64 {
                let jitter: u64 = ctx.rng().gen_range(500..4000);
                ctx.advance(SimTime::from_micros(jitter));
                node.write(ctx, locs[r], vec![iter as u8; 128], iter);
                for (q, &l) in locs.iter().enumerate() {
                    if q != r {
                        let (age, _) = node.global_read(ctx, l, iter, 4);
                        // age may be the retirement sentinel (u64::MAX)
                        // once a peer finished: compare saturating.
                        assert!(age >= iter.saturating_sub(4), "staleness bound violated");
                    }
                }
            }
            node.retire(ctx, locs[r], Vec::new());
        });
    }
    sim.run().expect("no deadlock under contention");
}

/// The GA experiment pipeline produces a full Figure-2 style row with
/// consistent bookkeeping.
#[test]
fn ga_experiment_cell_end_to_end() {
    let exp = GaExperiment {
        generations: 60,
        runs: 2,
        cost: CostModel::deterministic(),
        ..GaExperiment::new(TestFn::F1Sphere, 2)
    };
    let res = run_ga_experiment(&exp).expect("cell runs");
    assert_eq!(res.modes.len(), 7);
    assert!(res.serial_time > SimTime::ZERO);
    // Sync always completes its fixed budget.
    assert_eq!(res.modes[0].label, "sync");
    assert!(res.modes[0].success_rate >= 1.0);
    for m in &res.modes {
        assert!(m.mean_messages > 0.0, "{} sent no messages", m.label);
    }
}

/// The Bayes pipeline: the controlled disciplines agree with exact
/// inference on the Figure 1 network across the full stack. (Fully
/// asynchronous is exercised by its dedicated pathology test in
/// `nscc-bayes`: on this unequal partition split it strays without bound
/// and starves, which is the point of `Global_Read`.)
#[test]
fn bayes_disciplines_agree_with_exact_inference() {
    let net = Arc::new(figure1());
    let query = Query {
        node: nscc::bayes::fig1::B,
        evidence: vec![(nscc::bayes::fig1::E, 1)],
    };
    let exact = exact_posterior(&net, query.node, &query.evidence);
    for mode in [
        Coherence::Synchronous,
        Coherence::PartialAsync { age: 4 },
        Coherence::PartialAsync { age: 16 },
    ] {
        let cfg = ParallelBayesConfig {
            stop: StopRule {
                halfwidth: 0.02,
                ..StopRule::default()
            },
            cost: BayesCost::deterministic(),
            block: 4,
            max_iterations: 40_000,
            ..ParallelBayesConfig::new(mode)
        };
        let res = run_parallel_inference(
            Arc::clone(&net),
            query.clone(),
            2,
            cfg,
            Network::new(EthernetBus::ten_mbps(9)),
            MsgConfig::default(),
            9,
        )
        .expect("inference runs");
        assert!(res.converged, "{mode} did not converge");
        for (e, p) in exact.iter().zip(&res.posterior) {
            assert!(
                (e - p).abs() < 0.06,
                "{mode}: {:?} vs exact {:?}",
                res.posterior,
                exact
            );
        }
    }
}

/// The SP2 switch platform runs the same programs with faster outcomes
/// than the Ethernet (the paper's §4.1 remark).
#[test]
fn switch_beats_ethernet_for_the_same_workload() {
    let run = |net: Network| {
        let ranks = 4;
        let mut dir = Directory::new();
        let locs = dir.add_per_rank("v", ranks);
        let mut world: DsmWorld<Vec<u8>> = DsmWorld::new(net, ranks, MsgConfig::default(), dir);
        for &l in &locs {
            world.set_initial(l, vec![0; 900]);
        }
        let mut sim = SimBuilder::new(5);
        for r in 0..ranks {
            let mut node = world.node(r);
            let locs = locs.clone();
            sim.spawn(format!("rank{r}"), move |ctx| {
                for iter in 1..=30u64 {
                    ctx.advance(SimTime::from_micros(200));
                    node.write(ctx, locs[r], vec![0; 900], iter);
                    for (q, &l) in locs.iter().enumerate() {
                        if q != r {
                            let _ = node.global_read(ctx, l, iter, 1);
                        }
                    }
                }
                node.retire(ctx, locs[r], Vec::new());
            });
        }
        sim.run().expect("runs").end_time
    };
    let eth = run(Network::new(EthernetBus::ten_mbps(5)));
    let sw = run(Network::new(Sp2Switch::sp2()));
    assert!(
        sw < eth,
        "switch ({sw}) should complete before Ethernet ({eth})"
    );
}

/// Determinism across the whole stack: same seed, same results.
#[test]
fn whole_stack_determinism() {
    let run = || {
        let exp = GaExperiment {
            generations: 40,
            runs: 1,
            ..GaExperiment::new(TestFn::F3Step, 2)
        };
        let res = run_ga_experiment(&exp).expect("cell runs");
        (
            res.serial_time,
            res.modes
                .iter()
                .map(|m| (m.mean_time, m.mean_messages as u64))
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run());
}

/// Platform presets build and run with loaders attached.
#[test]
fn loaded_platform_builds_and_runs() {
    let p = Platform::loaded_ethernet(2, 1.0);
    assert_eq!(p.load_mbps, 1.0);
    let mut sim = SimBuilder::new(1);
    let net = p.build(&mut sim, 1);
    sim.spawn("clock", |ctx| ctx.advance(SimTime::from_secs(2)));
    sim.run().expect("runs");
    assert!(net.stats().medium.frames > 0, "loaders injected traffic");
}

/// Bayes experiment over a Table 2 network through the facade, checking
/// rollback accounting is visible at the top level.
#[test]
fn hailfinder_parallel_run_reports_rollbacks() {
    let net = Arc::new(Table2Net::Hailfinder.build());
    let query = Query {
        node: net.len() - 1,
        evidence: vec![],
    };
    let cfg = ParallelBayesConfig {
        stop: StopRule {
            halfwidth: 0.04,
            ..StopRule::default()
        },
        ..ParallelBayesConfig::new(Coherence::ASYNC)
    };
    let res = run_parallel_inference(
        Arc::clone(&net),
        query,
        2,
        cfg,
        Network::new(EthernetBus::ten_mbps(4)),
        MsgConfig::default(),
        4,
    )
    .expect("inference runs");
    assert!(res.converged);
    let rollbacks: u64 = res.per_part.iter().map(|p| p.rollbacks).sum();
    assert!(rollbacks > 0, "speculation must be visible in the stats");
}
