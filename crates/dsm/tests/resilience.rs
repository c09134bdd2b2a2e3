//! Graceful degradation of the DSM under silence: read timeouts, the
//! heartbeat failure detector, and barriers that survive absent peers.

use nscc_dsm::{Directory, DsmWorld};
use nscc_msg::MsgConfig;
use nscc_net::{IdealMedium, Network};
use nscc_sim::{SimBuilder, SimTime};

fn world_with_timeout(ranks: usize, dir: Directory, timeout: SimTime) -> DsmWorld<u64> {
    DsmWorld::new(
        Network::new(IdealMedium::new(SimTime::from_millis(1))),
        ranks,
        MsgConfig::default(),
        dir,
    )
    .with_read_timeout(timeout)
}

#[test]
fn silent_writer_degrades_read_to_cached_value() {
    let mut dir = Directory::new();
    let loc = dir.add("x", 1, [0]);
    let mut world = world_with_timeout(2, dir, SimTime::from_millis(20));
    world.set_initial(loc, 7);

    let mut reader = world.node(0);
    // Rank 1 (the writer) never runs: its updates will never come.
    let mut sim = SimBuilder::new(0);
    sim.spawn("reader", move |ctx| {
        let out = reader.global_read_ex(ctx, loc, 5, 1);
        // The bound (age >= 4) is unsatisfiable; after the timeout the
        // read must hand back the seeded value and say so.
        assert!(out.degraded);
        assert!(out.blocked);
        assert_eq!((out.age, *out.value), (0, 7));
        assert_eq!(out.required, 4);
        assert!(ctx.now() >= SimTime::from_millis(20));
    });
    sim.run().unwrap();
    assert_eq!(world.total_stats().degraded_reads, 1);
    assert_eq!(world.total_stats().blocked_reads, 1);
}

#[test]
fn barrier_proceeds_past_absent_peer() {
    let mut dir = Directory::new();
    dir.add("x", 0, [1, 2]);
    let world = world_with_timeout(3, dir, SimTime::from_millis(50));

    let mut coord = world.node(0);
    let mut follower = world.node(1);
    // Rank 2 never reaches the barrier (crashed before the run).
    let mut sim = SimBuilder::new(0);
    sim.spawn("rank0", move |ctx| {
        coord.barrier(ctx, 1);
        assert!(coord.suspected().contains(&2));
        assert!(!coord.suspected().contains(&1));
    });
    sim.spawn("rank1", move |ctx| {
        follower.barrier(ctx, 1);
    });
    sim.run().unwrap();
    // Without heartbeats the follower may also (falsely) suspect the
    // busy-waiting coordinator — see heartbeats_keep_silent_but_alive_
    // peers_trusted for the remedy. The coordinator's view, asserted
    // inside the run, is what matters here.
    let total = world.total_stats();
    assert_eq!(total.barriers, 2);
    assert!(total.suspected_writers >= 1);
    assert!(total.barrier_timeouts >= 1);
}

#[test]
fn heartbeats_keep_silent_but_alive_peers_trusted() {
    let mut dir = Directory::new();
    dir.add("x", 0, [1]);
    let world = world_with_timeout(2, dir, SimTime::from_millis(50));

    let mut coord = world.node(0);
    let mut worker = world.node(1);
    let mut sim = SimBuilder::new(0);
    // Heartbeats every 20 ms clear a 50 ms silence window comfortably.
    world.spawn_heartbeats(&mut sim, SimTime::from_millis(20));
    sim.spawn("rank0", move |ctx| {
        coord.barrier(ctx, 1);
        assert!(coord.suspected().is_empty());
    });
    sim.spawn("rank1", move |ctx| {
        // A long silent compute phase: no messages, only heartbeats.
        ctx.advance(SimTime::from_millis(300));
        worker.barrier(ctx, 1);
    });
    sim.run().unwrap();
    let total = world.total_stats();
    assert_eq!(total.suspected_writers, 0);
    assert_eq!(total.barriers, 2);
}

#[test]
fn follower_abandons_barrier_when_coordinator_is_dead() {
    let mut dir = Directory::new();
    dir.add("x", 1, [0]);
    let world = world_with_timeout(2, dir, SimTime::from_millis(40));

    let mut follower = world.node(1);
    // Rank 0 — the coordinator — is gone; without the detector this
    // deadlocks (BarrierRelease can never arrive).
    let mut sim = SimBuilder::new(0);
    sim.spawn("rank1", move |ctx| {
        follower.barrier(ctx, 1);
        assert!(follower.suspected().contains(&0));
    });
    sim.run().unwrap();
    assert_eq!(world.total_stats().barrier_timeouts, 1);
}
