//! Migration-topology integration tests: sparse topologies trade traffic
//! for mixing speed.

use std::cell::RefCell;
use std::rc::Rc;

use nscc_dsm::{Coherence, DsmWorld};
use nscc_ga::{
    run_island, ConvergenceBoard, CostModel, IslandConfig, IslandOutcome, MigrantBatch, StopPolicy,
    TestFn, Topology,
};
use nscc_msg::MsgConfig;
use nscc_net::{IdealMedium, Network};
use nscc_sim::{SimBuilder, SimTime};

/// The generation cap of every run here.
const GENERATIONS: u64 = 40;

fn run(topology: Topology, ranks: usize, seed: u64, mode: Coherence) -> (Vec<IslandOutcome>, u64) {
    let (dir, locs) = topology.build_directory(ranks, seed);
    let mut world: DsmWorld<MigrantBatch> = DsmWorld::new(
        Network::new(IdealMedium::new(SimTime::from_millis(1))),
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
            cost: CostModel::deterministic(),
            ..IslandConfig::paper(
                TestFn::F1Sphere,
                mode,
                StopPolicy::FixedGenerations(GENERATIONS),
            )
        };
        sim.spawn(format!("island{r}"), move |ctx| {
            let out = run_island(ctx, node, &locs, &cfg, &board);
            outcomes.borrow_mut().push(out);
        });
    }
    sim.run().expect("simulation runs");
    let v = outcomes.borrow().clone();
    (v, world.comm_stats().sent)
}

#[test]
fn all_topologies_run_to_completion() {
    let age3 = Coherence::PartialAsync { age: 3 };
    for topology in [
        Topology::AllToAll,
        Topology::Ring,
        Topology::Random { k: 2 },
    ] {
        let (outs, sent) = run(topology, 6, 9, age3);
        assert_eq!(outs.len(), 6, "{topology:?}");
        assert!(outs.iter().all(|o| o.generations == GENERATIONS));
        assert!(sent > 0, "{topology:?} must exchange migrants");
    }
}

#[test]
fn ring_sends_fewer_migrant_copies_than_all_to_all() {
    let age3 = Coherence::PartialAsync { age: 3 };
    let (_, all) = run(Topology::AllToAll, 8, 3, age3);
    let (_, ring) = run(Topology::Ring, 8, 3, age3);
    // All-to-all: 7 logical receivers per write; ring: 2.
    assert!(
        ring * 3 < all,
        "ring ({ring}) should send far fewer copies than all-to-all ({all})"
    );
}

#[test]
fn random_topology_respects_out_degree() {
    let (dir, locs) = Topology::Random { k: 3 }.build_directory(10, 5);
    for &l in &locs {
        assert_eq!(dir.meta(l).readers.len(), 3);
    }
    // Deterministic per seed.
    let (dir2, locs2) = Topology::Random { k: 3 }.build_directory(10, 5);
    for (&a, &b) in locs.iter().zip(&locs2) {
        assert_eq!(dir.meta(a).readers, dir2.meta(b).readers);
    }
}

/// An age bound at or above the generation cap never makes a read wait
/// for a newer value, so `PartialAsync` there is `Coherence::ASYNC`:
/// the same island outcomes and the same number of messages, run for run.
#[test]
fn age_at_or_beyond_the_generation_cap_is_fully_async() {
    // The fully asynchronous mode is the unbounded age itself, so the rows
    // below compare finite ages with it.
    assert_eq!(Coherence::ASYNC, Coherence::PartialAsync { age: u64::MAX });
    for ranks in [3, 4, 8] {
        let (outs, sent) = run(Topology::AllToAll, ranks, 11, Coherence::ASYNC);
        let want = (format!("{outs:?}"), sent);
        for age in [GENERATIONS, GENERATIONS + 1, 1_000] {
            let (outs, sent) = run(
                Topology::AllToAll,
                ranks,
                11,
                Coherence::PartialAsync { age },
            );
            assert_eq!(
                (format!("{outs:?}"), sent),
                want,
                "{ranks} ranks, age {age}"
            );
        }
    }
}
