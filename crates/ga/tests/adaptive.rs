//! Integration test of the §6 future-work extension: dynamic (runtime)
//! staleness control for the island GA.

use std::cell::RefCell;
use std::rc::Rc;

use nscc_dsm::{Coherence, Directory, DsmWorld};
use nscc_ga::{
    run_island, ConvergenceBoard, CostModel, IslandConfig, IslandOutcome, MigrantBatch, StopPolicy,
    TestFn,
};
use nscc_msg::MsgConfig;
use nscc_net::{EthernetBus, Network};
use nscc_sim::{SimBuilder, SimTime};

fn run(adaptive: Option<(u64, u64)>, seed: u64) -> (Vec<IslandOutcome>, nscc_dsm::DsmStats) {
    let ranks = 4;
    let mut dir = Directory::new();
    let locs = dir.add_per_rank("best", ranks);
    let mut world: DsmWorld<MigrantBatch> = DsmWorld::new(
        Network::new(EthernetBus::ten_mbps(seed)),
        ranks,
        MsgConfig::default(),
        dir,
    );
    for &l in &locs {
        world.set_initial(l, Vec::new());
    }
    let board = ConvergenceBoard::new(ranks);
    let outcomes = Rc::new(RefCell::new(Vec::new()));
    let mut sim = SimBuilder::new(seed);
    for r in 0..ranks {
        let node = world.node(r);
        let locs = locs.clone();
        let board = board.clone();
        let outcomes = Rc::clone(&outcomes);
        let cfg = IslandConfig {
            cost: CostModel {
                // Strong skew: adaptation has something to react to.
                hiccup_rate_per_sec: 2.0,
                hiccup_stall: SimTime::from_millis(200),
                ..CostModel::default()
            },
            adaptive,
            ..IslandConfig::paper(
                TestFn::F6Rastrigin,
                Coherence::PartialAsync { age: 5 },
                StopPolicy::FixedGenerations(120),
            )
        };
        sim.spawn(format!("island{r}"), move |ctx| {
            let out = run_island(ctx, node, &locs, &cfg, &board);
            outcomes.borrow_mut().push(out);
        });
    }
    sim.run().expect("simulation runs");
    let v = outcomes.borrow().clone();
    (v, world.total_stats())
}

#[test]
fn adaptive_age_runs_and_is_deterministic() {
    let (a, _) = run(Some((0, 40)), 3);
    let (b, _) = run(Some((0, 40)), 3);
    assert_eq!(a.len(), 4);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.generations, y.generations);
        assert_eq!(x.best, y.best);
        assert_eq!(x.end_time, y.end_time);
    }
}

#[test]
fn adaptive_age_reduces_blocking_versus_fixed_small_age() {
    // The controller's direct mechanism: under blocking pressure it widens
    // the staleness bound, so the adaptive run must block on fewer reads
    // than the fixed age-5 run facing the same skew.
    let (_, fixed) = run(None, 7);
    let (_, adaptive) = run(Some((0, 40)), 7);
    assert!(
        adaptive.blocked_reads < fixed.blocked_reads,
        "adaptive blocked {} times vs fixed {}",
        adaptive.blocked_reads,
        fixed.blocked_reads
    );
}
