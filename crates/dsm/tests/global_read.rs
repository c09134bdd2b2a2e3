//! Behavioural tests of the Global_Read protocol across simulated ranks.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use nscc_dsm::{Coherence, Directory, DsmWorld, LocId};
use nscc_msg::MsgConfig;
use nscc_net::{EthernetBus, IdealMedium, Network};
use nscc_sim::{SimBuilder, SimTime};

fn ideal_world(ranks: usize, dir: Directory) -> DsmWorld<u64> {
    DsmWorld::new(
        Network::new(IdealMedium::new(SimTime::from_millis(1))),
        ranks,
        MsgConfig::default(),
        dir,
    )
}

#[test]
fn fresh_enough_cache_is_an_ordinary_read() {
    let mut dir = Directory::new();
    let loc = dir.add("x", 0, [1]);
    let mut world = ideal_world(2, dir);
    world.set_initial(loc, 0);

    let mut writer = world.node(0);
    let mut reader = world.node(1);
    let mut sim = SimBuilder::new(0);
    sim.spawn("writer", move |ctx| {
        writer.write(ctx, loc, 100, 1);
    });
    sim.spawn("reader", move |ctx| {
        // Give the update time to arrive.
        ctx.advance(SimTime::from_millis(50));
        let t0 = ctx.now();
        let (age, v) = reader.global_read(ctx, loc, 1, 0);
        assert_eq!((age, *v), (1, 100));
        // Satisfied from cache: no blocking beyond the recv CPU overhead.
        assert!(ctx.now() - t0 < SimTime::from_millis(1));
    });
    sim.run().unwrap();
}

#[test]
fn read_blocks_until_acceptable_age_arrives() {
    let mut dir = Directory::new();
    let loc = dir.add("x", 0, [1]);
    let mut world = ideal_world(2, dir);
    world.set_initial(loc, 0);

    let stats = world.stats();
    assert_eq!(stats.len(), 2);

    let mut writer = world.node(0);
    let mut reader = world.node(1);
    let mut sim = SimBuilder::new(0);
    sim.spawn("writer", move |ctx| {
        for iter in 1..=5u64 {
            ctx.advance(SimTime::from_millis(10)); // slow compute
            writer.write(ctx, loc, iter * 100, iter);
        }
    });
    sim.spawn("reader", move |ctx| {
        // Needs age >= 3 immediately; writer reaches iteration 3 at ~30ms.
        let (age, v) = reader.global_read(ctx, loc, 3, 0);
        assert!(age >= 3, "returned age {age} violates the staleness bound");
        assert_eq!(*v, age * 100);
        assert!(ctx.now() >= SimTime::from_millis(30));
    });
    sim.run().unwrap();
    let total = world.total_stats();
    assert_eq!(total.blocked_reads, 1);
    assert!(total.block_time > SimTime::from_millis(25));
}

#[test]
fn age_zero_initial_value_satisfies_iteration_zero() {
    let mut dir = Directory::new();
    let loc = dir.add("x", 0, [1]);
    let mut world = ideal_world(2, dir);
    world.set_initial(loc, 7);
    let mut reader = world.node(1);
    let mut sim = SimBuilder::new(0);
    sim.spawn("reader", move |ctx| {
        // required = saturating(0 - 10) = 0 -> initial value acceptable.
        let (age, v) = reader.global_read(ctx, loc, 0, 10);
        assert_eq!((age, *v), (0, 7));
    });
    sim.spawn("writer-idle", |_ctx| {});
    sim.run().unwrap();
}

#[test]
fn global_read_throttles_a_fast_reader() {
    // The reader iterates at 1 ms/iter, the writer at 20 ms/iter. With
    // age=2 the reader cannot run more than 2 iterations ahead, so its
    // completion time is pinned to the writer's pace — the program-level
    // flow control at the heart of the paper.
    let mut dir = Directory::new();
    let loc = dir.add("x", 0, [1]);
    let mut world = ideal_world(2, dir);
    world.set_initial(loc, 0);

    let iters = 20u64;
    let mut writer = world.node(0);
    let mut reader = world.node(1);
    let reader_end = Rc::new(Cell::new(SimTime::ZERO));
    let reader_end2 = Rc::clone(&reader_end);
    let mut sim = SimBuilder::new(0);
    sim.spawn("writer", move |ctx| {
        for iter in 1..=iters {
            ctx.advance(SimTime::from_millis(20));
            writer.write(ctx, loc, iter, iter);
        }
    });
    sim.spawn("reader", move |ctx| {
        for iter in 1..=iters {
            ctx.advance(SimTime::from_millis(1));
            let (age, _) = reader.global_read(ctx, loc, iter, 2);
            assert!(age + 2 >= iter, "staleness bound violated");
        }
        reader_end2.set(ctx.now());
    });
    sim.run().unwrap();
    let end = reader_end.get();
    // Unthrottled the reader would finish at ~20 ms; throttled it tracks
    // the writer's iteration 18 at ~360 ms.
    assert!(
        end >= SimTime::from_millis(350),
        "reader finished at {end}, was not throttled"
    );
}

#[test]
fn fully_async_never_blocks_and_sees_staleness() {
    let mut dir = Directory::new();
    let loc = dir.add("x", 0, [1]);
    let mut world = ideal_world(2, dir);
    world.set_initial(loc, 0);

    let mut writer = world.node(0);
    let mut reader = world.node(1);
    let mut sim = SimBuilder::new(0);
    sim.spawn("writer", move |ctx| {
        for iter in 1..=10u64 {
            ctx.advance(SimTime::from_millis(50));
            writer.write(ctx, loc, iter, iter);
        }
    });
    sim.spawn("reader", move |ctx| {
        let mut max_staleness = 0i64;
        for iter in 1..=10u64 {
            ctx.advance(SimTime::from_millis(5));
            let (age, _) = reader.read(ctx, loc, iter, Coherence::ASYNC);
            max_staleness = max_staleness.max(iter as i64 - age as i64);
        }
        // Reader finished its 10 iterations in ~50 ms having seen at most
        // the writer's first value: staleness grows unbounded.
        assert!(
            max_staleness >= 8,
            "expected deep staleness, saw {max_staleness}"
        );
        assert!(ctx.now() < SimTime::from_millis(100));
    });
    sim.run().unwrap();
    assert_eq!(world.total_stats().blocked_reads, 0);
}

#[test]
fn barrier_synchronizes_all_ranks() {
    let ranks = 4;
    let mut dir = Directory::new();
    let locs = dir.add_per_rank("v", ranks);
    let mut world = ideal_world(ranks, dir);
    for &l in &locs {
        world.set_initial(l, 0);
    }
    let after = Rc::new(RefCell::new(Vec::new()));
    let mut sim = SimBuilder::new(0);
    for r in 0..ranks {
        let mut node = world.node(r);
        let after = Rc::clone(&after);
        sim.spawn(format!("rank{r}"), move |ctx| {
            // Stagger arrival times.
            ctx.advance(SimTime::from_millis(10 * (r as u64 + 1)));
            node.barrier(ctx, 1);
            after.borrow_mut().push((r, ctx.now()));
        });
    }
    sim.run().unwrap();
    let after = after.borrow();
    let slowest_arrival = SimTime::from_millis(40);
    for (r, t) in after.iter() {
        assert!(
            *t >= slowest_arrival,
            "rank {r} left the barrier at {t}, before the slowest arrival"
        );
    }
}

#[test]
fn repeated_barriers_stay_in_lockstep() {
    let ranks = 3;
    let dir = Directory::new();
    let world: DsmWorld<u64> = ideal_world(ranks, dir);
    let mut sim = SimBuilder::new(0);
    let counters = Rc::new(RefCell::new(vec![0u64; ranks]));
    for r in 0..ranks {
        let mut node = world.node(r);
        let counters = Rc::clone(&counters);
        sim.spawn(format!("rank{r}"), move |ctx| {
            for epoch in 1..=10u64 {
                ctx.advance(SimTime::from_millis((r as u64 + 1) * 3));
                node.barrier(ctx, epoch);
                let mut c = counters.borrow_mut();
                c[r] = epoch;
                // No rank can be more than one epoch ahead of any other
                // right after leaving a barrier.
                let (min, max) = (
                    *c.iter().min().expect("nonempty"),
                    *c.iter().max().expect("nonempty"),
                );
                assert!(max - min <= 1, "barrier lockstep broken: {c:?}");
            }
        });
    }
    sim.run().unwrap();
}

#[test]
fn sync_mode_matches_global_read_age_zero_values() {
    // Both disciplines must return the exact current-iteration value; the
    // sync one just pays barrier costs on top.
    for mode in [Coherence::Synchronous, Coherence::PartialAsync { age: 0 }] {
        let ranks = 2;
        let mut dir = Directory::new();
        let locs = dir.add_per_rank("v", ranks);
        let mut world = ideal_world(ranks, dir);
        for &l in &locs {
            world.set_initial(l, 0);
        }
        let mut sim = SimBuilder::new(0);
        for r in 0..ranks {
            let mut node = world.node(r);
            let my_loc = locs[r];
            let peer_loc = locs[1 - r];
            sim.spawn(format!("rank{r}"), move |ctx| {
                for iter in 1..=5u64 {
                    ctx.advance(SimTime::from_millis(2 + r as u64));
                    node.write(ctx, my_loc, iter * 10, iter);
                    let (age, v) = node.read(ctx, peer_loc, iter, mode);
                    assert_eq!(age, iter, "{mode}: exact-iteration value required");
                    assert_eq!(*v, iter * 10);
                    if mode.uses_barrier() {
                        node.barrier(ctx, iter);
                    }
                }
            });
        }
        sim.run().unwrap();
    }
}

#[test]
fn ethernet_contention_is_visible_through_dsm() {
    // Eight ranks all-to-all on 10 Mbps Ethernet: blocked time under
    // age=0 must exceed blocked time under age=8 (staleness tolerance
    // absorbs network delay).
    let blocked_time = |age: u64| {
        let ranks = 8;
        let mut dir = Directory::new();
        let locs = dir.add_per_rank("v", ranks);
        let mut world: DsmWorld<Vec<u8>> = DsmWorld::new(
            Network::new(EthernetBus::ten_mbps(7)),
            ranks,
            MsgConfig::default(),
            dir,
        );
        for &l in &locs {
            world.set_initial(l, vec![0; 64]);
        }
        let mut sim = SimBuilder::new(7);
        for r in 0..ranks {
            let mut node = world.node(r);
            let locs = locs.clone();
            sim.spawn(format!("rank{r}"), move |ctx| {
                for iter in 1..=15u64 {
                    ctx.advance(SimTime::from_millis(3));
                    node.write(ctx, locs[r], vec![iter as u8; 64], iter);
                    for (q, &l) in locs.iter().enumerate() {
                        if q != r {
                            let (got, _) = node.global_read(ctx, l, iter, age);
                            assert!(got + age >= iter);
                        }
                    }
                }
            });
        }
        sim.run().unwrap();
        world.total_stats().block_time
    };
    let strict = blocked_time(0);
    let loose = blocked_time(8);
    assert!(
        strict > loose,
        "age=0 blocked {strict}, age=8 blocked {loose}; tolerance should reduce blocking"
    );
}

#[test]
fn versioned_world_retains_and_serves_exact_versions() {
    let mut dir = Directory::new();
    let loc = dir.add("x", 0, [1]);
    let mut world: DsmWorld<u64> = DsmWorld::new(
        Network::new(IdealMedium::new(SimTime::from_millis(1))),
        2,
        MsgConfig::default(),
        dir,
    )
    .with_history(16);
    world.set_initial(loc, 0);
    let mut writer = world.node(0);
    let mut reader = world.node(1);
    let mut sim = SimBuilder::new(0);
    sim.spawn("writer", move |ctx| {
        for iter in 1..=10u64 {
            ctx.advance(SimTime::from_millis(2));
            writer.write(ctx, loc, iter * 7, iter);
        }
    });
    sim.spawn("reader", move |ctx| {
        // Wait for a mid-stream version even after later ones arrive.
        let v = reader.wait_version(ctx, loc, 4).unwrap();
        assert_eq!(*v, 28);
        ctx.advance(SimTime::from_millis(100));
        // All ten versions remain available in the window.
        reader.drain(ctx);
        for iter in 1..=10u64 {
            assert_eq!(reader.get_version(loc, iter).map(|v| **v), Some(iter * 7));
        }
    });
    sim.run().unwrap();
}

#[test]
fn corrections_replace_versions_in_place() {
    let mut dir = Directory::new();
    let loc = dir.add("x", 0, [1]);
    let mut world: DsmWorld<u64> = DsmWorld::new(
        Network::new(IdealMedium::new(SimTime::from_millis(1))),
        2,
        MsgConfig::default(),
        dir,
    )
    .with_history(8);
    world.set_initial(loc, 0);
    let mut writer = world.node(0);
    let mut reader = world.node(1);
    let mut sim = SimBuilder::new(0);
    sim.spawn("writer", move |ctx| {
        writer.write(ctx, loc, 10, 1);
        writer.write(ctx, loc, 20, 2);
        // Rollback: correct version 1 after version 2 went out.
        writer.write(ctx, loc, 11, 1);
    });
    sim.spawn("reader", move |ctx| {
        ctx.advance(SimTime::from_millis(50));
        reader.drain(ctx);
        assert_eq!(reader.get_version(loc, 1).map(|v| **v), Some(11));
        assert_eq!(reader.get_version(loc, 2).map(|v| **v), Some(20));
        // Latest pointer still refers to the newest age.
        assert_eq!(reader.cached_age(loc), Some(2));
    });
    sim.run().unwrap();
}

#[test]
fn wait_version_observes_retirement() {
    let mut dir = Directory::new();
    let loc = dir.add("x", 0, [1]);
    let mut world: DsmWorld<u64> = DsmWorld::new(
        Network::new(IdealMedium::new(SimTime::from_millis(1))),
        2,
        MsgConfig::default(),
        dir,
    )
    .with_history(8);
    world.set_initial(loc, 0);
    let mut writer = world.node(0);
    let mut reader = world.node(1);
    let mut sim = SimBuilder::new(0);
    sim.spawn("writer", move |ctx| {
        writer.write(ctx, loc, 10, 1);
        writer.retire(ctx, loc, 10);
    });
    sim.spawn("reader", move |ctx| {
        // Version 5 will never exist; the retirement must unblock us.
        let r = reader.wait_version(ctx, loc, 5);
        assert_eq!(r, Err(nscc_dsm::Retired));
    });
    sim.run().unwrap();
}

#[test]
fn writing_a_foreign_location_is_rejected() {
    let mut dir = Directory::new();
    let loc = dir.add("owned-by-zero", 0, [1]);
    let mut world: DsmWorld<u64> = ideal_world(2, dir);
    world.set_initial(loc, 0);
    let mut intruder = world.node(1);
    let mut sim = SimBuilder::new(0);
    sim.spawn("intruder", move |ctx| {
        intruder.write(ctx, loc, 1, 1); // panics: not the owner
    });
    match sim.run() {
        Err(nscc_sim::SimError::ProcessPanicked { message, .. }) => {
            assert!(message.contains("owned by rank"), "{message}");
        }
        other => panic!("expected ownership panic, got {other:?}"),
    }
}

#[test]
fn ring_topology_keeps_non_neighbors_unaware() {
    let ranks = 4;
    let mut dir = Directory::new();
    let locs = dir.add_ring("v", ranks);
    let mut world: DsmWorld<u64> = ideal_world(ranks, dir);
    for &l in &locs {
        world.set_initial(l, 0);
    }
    let mut writer = world.node(0);
    let neighbor = world.node(1);
    let opposite = world.node(2);
    let loc0 = locs[0];
    let mut sim = SimBuilder::new(0);
    sim.spawn("writer", move |ctx| {
        writer.write(ctx, loc0, 7, 1);
    });
    sim.spawn("observers", move |ctx| {
        ctx.advance(SimTime::from_millis(50));
        assert!(neighbor.is_reader(loc0));
        assert!(!opposite.is_reader(loc0));
    });
    sim.run().unwrap();
}

#[test]
fn every_write_reaches_every_reader() {
    // Write-through: each of the 40 writes, and the retirement after them,
    // is pushed to the one reader, and a reader tolerating age 8 sees the
    // staleness bound hold throughout.
    let mut dir = Directory::new();
    let loc = dir.add("x", 0, [1]);
    let mut world = ideal_world(2, dir);
    world.set_initial(loc, 0);
    let mut writer = world.node(0);
    let mut reader = world.node(1);
    let mut sim = SimBuilder::new(0);
    sim.spawn("writer", move |ctx| {
        for iter in 1..=40u64 {
            ctx.advance(SimTime::from_millis(2));
            writer.write(ctx, loc, iter, iter);
        }
        writer.retire(ctx, loc, 40);
    });
    sim.spawn("reader", move |ctx| {
        for iter in 1..=40u64 {
            ctx.advance(SimTime::from_millis(2));
            let (age, _) = reader.global_read(ctx, loc, iter, 8);
            assert!(age >= iter.saturating_sub(8), "bound violated");
        }
    });
    sim.run().unwrap();
    let stats = world.total_stats();
    let (writes, readers) = (41, 1);
    assert_eq!(stats.writes, writes);
    assert_eq!(stats.updates_sent, writes * readers);
}

/// The version window against an oldest-first model under seeded update
/// sequences into a `with_history(4)` world: fresh ages, in-place
/// corrections of windowed ages, and re-published ages that were already
/// evicted (pushed to the back out of order). After every update each
/// age's `get_version` answer must be the model's.
///
/// The first update carries a high age, `PIN`, that is never written
/// again, so the latest-value cache answers only `PIN` and every other
/// age is answered from the window alone. Once the window is full without
/// `PIN`, it answering `HISTORY` distinct ages from at most `HISTORY`
/// entries means no age is held twice.
#[test]
fn version_window_matches_an_oldest_first_model() {
    use std::collections::VecDeque;

    use rand::Rng;

    const HISTORY: usize = 4;
    const PIN: u64 = 1_000_000;
    const AGES: u64 = 12;
    rand::for_each_case(64, |rng| {
        let mut dir = Directory::new();
        let loc = dir.add("x", 0, [1]);
        let mut world: DsmWorld<u64> = ideal_world(2, dir).with_history(HISTORY);
        world.set_initial(loc, 0);
        let mut writer = world.node(0);
        let mut reader = world.node(1);
        let mut rng = rng.clone();
        let mut sim = SimBuilder::new(0);
        sim.spawn("writer+reader", move |ctx| {
            // `(age, value)`, oldest first; every update writes a fresh
            // value, so a stale entry cannot pass for a new one.
            let mut model: VecDeque<(u64, u64)> = VecDeque::new();
            let mut written = Vec::new();
            let (mut corrected, mut republished) = (0, 0);
            for value in 1..40 {
                let pick = |rng: &mut rand::rngs::StdRng, ages: &[u64]| {
                    (!ages.is_empty()).then(|| ages[rng.gen_range(0..ages.len())])
                };
                let windowed: Vec<u64> = model.iter().map(|e| e.0).filter(|&a| a != PIN).collect();
                let evicted: Vec<u64> = written
                    .iter()
                    .copied()
                    .filter(|a| !windowed.contains(a))
                    .collect();
                let age = match (value, rng.gen_range(0..3u32)) {
                    (1, _) => Some(PIN),
                    (_, 0) => pick(&mut rng, &evicted),
                    (_, 1) => pick(&mut rng, &windowed),
                    _ => None,
                }
                .unwrap_or(value.min(AGES));
                if age != PIN && !written.contains(&age) {
                    written.push(age);
                }
                writer.write(ctx, loc, value, age);
                if let Some(slot) = model.iter_mut().find(|(a, _)| *a == age) {
                    slot.1 = value;
                    corrected += 1;
                } else {
                    republished += u64::from(evicted.contains(&age));
                    model.push_back((age, value));
                    if model.len() > HISTORY {
                        model.pop_front();
                    }
                }
                ctx.advance(SimTime::from_millis(5));
                reader.drain(ctx);
                let mut answered = 0;
                for a in (1..=AGES + 1).chain([PIN]) {
                    let want = if a == PIN {
                        Some(1)
                    } else {
                        model.iter().find(|(b, _)| *b == a).map(|e| e.1)
                    };
                    let got = reader.get_version(loc, a).map(|v| **v);
                    assert_eq!(
                        got, want,
                        "age {a} after update ({age}, {value}): {model:?}"
                    );
                    answered += usize::from(a != PIN && got.is_some());
                }
                if model.iter().all(|e| e.0 != PIN) {
                    assert_eq!(answered, HISTORY, "an age is held twice: {model:?}");
                }
            }
            assert!(corrected > 0 && republished > 0, "{model:?}");
        });
        sim.run().unwrap();
    });
}

#[test]
fn export_cache_lists_locations_in_order() {
    let mut dir = Directory::new();
    let locs: Vec<LocId> = (0..4).map(|i| dir.add(format!("l{i}"), 0, [1])).collect();
    let world = ideal_world(2, dir);
    let mut node = world.node(1);
    // Restored in reverse location order, with a gap at location 2.
    let entry = |l: LocId| (l, u64::from(l.0) + 10, u64::from(l.0) * 100);
    node.restore_cache([3, 1, 0].map(|i| entry(locs[i])).to_vec());
    let want: Vec<_> = [0, 1, 3].map(|i| entry(locs[i])).to_vec();
    assert_eq!(node.export_cache(), want);
}
