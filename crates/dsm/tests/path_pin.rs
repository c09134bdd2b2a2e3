//! Byte pins of every `Global_Read` exit and every send shape.
//!
//! Each scenario runs a small deterministic world with a hub attached to
//! both the DSM and the network and digests, in one FNV-1a hash, the
//! hub's raw event/span dump, every event a tap saw in emission order
//! (the `ReadAnatomy` meta events never reach the raw store), the
//! per-rank `DsmStats`, the `CommStats`, the `NetStats` and a log of what
//! every read returned. A refactor of the read, send or fan-out paths
//! must leave every digest unchanged: the event order within each exit,
//! every counter and every RNG draw are all inside the hash.
//!
//! Read exits covered: cache hit, sabotaged release (staleness tracer on
//! and off), degraded timeout (and a timeout with nothing cached to
//! degrade to), blocked release with its `ReadAnatomy`/`ReadDep`,
//! `Coherence::ASYNC`, `Synchronous`, and `wait_version` hit, wait and
//! `Retired`. Send shapes: unicast, multicast on the bus (one broadcast
//! frame), multicast on the switch (unicast fan-out), reliable
//! multicast, and fault-wrapped `Drop`/`Duplicate` verdicts with and
//! without the reliable layer.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use nscc_ckpt::json::to_json;
use nscc_dsm::{Coherence, Directory, DsmWorld, ReadOutcome};
use nscc_faults::{FaultPlan, FaultyMedium};
use nscc_msg::{MsgConfig, ReliableConfig};
use nscc_net::{EthernetBus, IdealMedium, Medium, Network, Sp2Switch};
use nscc_obs::{EventSink, Hub, ObsEvent};
use nscc_sim::{SimBuilder, SimTime};

type Log = Rc<RefCell<String>>;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn note(log: &Log, tag: &str, out: &ReadOutcome<u64>) {
    let _ = writeln!(
        log.borrow_mut(),
        "{tag} age={} value={} blocked={} block_ns={} required={} degraded={}",
        out.age,
        out.value,
        out.blocked,
        out.block_time.as_nanos(),
        out.required,
        out.degraded
    );
}

/// Every event the hub emits, meta events included, in emission order.
#[derive(Default)]
struct Record(Mutex<String>);

impl EventSink for Record {
    fn on_event(&self, ev: &ObsEvent) {
        let _ = writeln!(self.0.lock().unwrap(), "{ev:?}");
    }
}

/// A world over `medium` with the hub attached to the network and the DSM.
struct Rig {
    hub: Hub,
    tap: Arc<Record>,
    net: Network,
    world: DsmWorld<u64>,
    log: Log,
}

fn rig(medium: impl Medium + 'static, ranks: usize, cfg: MsgConfig, dir: Directory) -> Rig {
    let hub = Hub::new();
    let tap = Arc::new(Record::default());
    hub.set_tap(tap.clone());
    let net = Network::new(medium);
    net.attach_obs(hub.clone());
    let world = DsmWorld::new(net.clone(), ranks, cfg, dir).with_obs(hub.clone());
    Rig {
        hub,
        tap,
        net,
        world,
        log: Log::default(),
    }
}

impl Rig {
    fn digest(&self) -> u64 {
        let mut text = self.hub.export_events_json();
        text.push_str(&self.tap.0.lock().unwrap());
        text.push_str(&to_json(&self.world.stats()));
        text.push_str(&to_json(&self.world.comm_stats()));
        text.push_str(&to_json(&self.net.stats()));
        text.push_str(&self.log.borrow());
        fnv1a(text.as_bytes())
    }
}

fn ideal() -> IdealMedium {
    IdealMedium::new(SimTime::from_millis(1))
}

/// Hit, blocked release with anatomy and dependency, `Coherence::ASYNC` and
/// `Synchronous` reads against a writer that retires at the end.
fn plain_reads() -> Rig {
    let mut dir = Directory::new();
    let x = dir.add("x", 0, [1]);
    let mut r = rig(ideal(), 2, MsgConfig::default(), dir);
    r.hub.enable_staleness();
    r.world.set_initial(x, 0);
    let (mut w, mut rd, log) = (r.world.node(0), r.world.node(1), r.log.clone());
    let mut sim = SimBuilder::new(1);
    sim.spawn("writer", move |ctx| {
        for iter in 1..=5u64 {
            ctx.advance(SimTime::from_millis(10));
            w.write(ctx, x, iter * 100, iter);
        }
        w.retire(ctx, x, 999);
    });
    sim.spawn("reader", move |ctx| {
        note(&log, "hit", &rd.global_read_ex(ctx, x, 0, 0));
        note(&log, "blocked", &rd.global_read_ex(ctx, x, 3, 0));
        let (age, v) = rd.read(ctx, x, 9, Coherence::ASYNC);
        let _ = writeln!(log.borrow_mut(), "async age={age} value={v}");
        let (age, v) = rd.read(ctx, x, 4, Coherence::Synchronous);
        let _ = writeln!(log.borrow_mut(), "sync age={age} value={v}");
        let (age, v) = rd.read(ctx, x, 8, Coherence::PartialAsync { age: 1 });
        let _ = writeln!(log.borrow_mut(), "partial age={age} value={v}");
    });
    sim.run().unwrap();
    r
}

/// One sabotaged release, then an honest blocked release once the budget
/// is spent.
fn sabotage(tracer: bool) -> Rig {
    let mut dir = Directory::new();
    let x = dir.add("x", 0, [1]);
    let mut r = rig(ideal(), 2, MsgConfig::default(), dir);
    if tracer {
        r.hub.enable_staleness();
    }
    r.world = r.world.with_stale_injection(1);
    r.world.set_initial(x, 0);
    let (mut w, mut rd, log) = (r.world.node(0), r.world.node(1), r.log.clone());
    let mut sim = SimBuilder::new(2);
    sim.spawn("writer", move |ctx| {
        for iter in 1..=4u64 {
            ctx.advance(SimTime::from_millis(10));
            w.write(ctx, x, iter, iter);
        }
    });
    sim.spawn("reader", move |ctx| {
        note(&log, "sabotaged", &rd.global_read_ex(ctx, x, 3, 0));
        note(&log, "honest", &rd.global_read_ex(ctx, x, 3, 0));
    });
    sim.run().unwrap();
    r
}

/// A timed-out read degrades to the cached value; a read with nothing
/// cached waits out several windows and is released by the late write.
fn degraded() -> Rig {
    let mut dir = Directory::new();
    let x = dir.add("x", 0, [1]);
    let y = dir.add("y", 0, [1]);
    let mut r = rig(ideal(), 2, MsgConfig::default(), dir);
    r.hub.enable_staleness();
    r.world = r.world.with_read_timeout(SimTime::from_millis(30));
    r.world.set_initial(x, 0);
    let (mut w, mut rd, log) = (r.world.node(0), r.world.node(1), r.log.clone());
    let mut sim = SimBuilder::new(3);
    sim.spawn("writer", move |ctx| {
        ctx.advance(SimTime::from_millis(100));
        w.write(ctx, x, 1, 1);
        w.write(ctx, y, 2, 1);
    });
    sim.spawn("reader", move |ctx| {
        note(&log, "degraded", &rd.global_read_ex(ctx, x, 5, 1));
        note(&log, "uncached", &rd.global_read_ex(ctx, y, 1, 0));
    });
    sim.run().unwrap();
    r
}

/// `wait_version` hit, wait (several messages), window hit, a restored
/// version, and `Retired`.
fn versions() -> Rig {
    let mut dir = Directory::new();
    let x = dir.add("x", 0, [1]);
    let z = dir.add("z", 0, [1]);
    let mut r = rig(ideal(), 2, MsgConfig::default(), dir);
    r.world = r.world.with_history(4);
    r.world.set_initial(x, 0);
    let (mut w, mut rd, log) = (r.world.node(0), r.world.node(1), r.log.clone());
    let mut sim = SimBuilder::new(4);
    sim.spawn("writer", move |ctx| {
        for iter in 1..=4u64 {
            ctx.advance(SimTime::from_millis(10));
            w.write(ctx, z, iter, iter);
            w.write(ctx, x, iter * 10, iter);
        }
        ctx.advance(SimTime::from_millis(10));
        w.retire(ctx, x, 0);
    });
    sim.spawn("reader", move |ctx| {
        let say = |tag: &str, got: Result<std::sync::Arc<u64>, nscc_dsm::Retired>| {
            let _ = writeln!(log.borrow_mut(), "{tag} {got:?}");
        };
        say("hit", rd.wait_version(ctx, x, 0));
        say("wait", rd.wait_version(ctx, x, 3));
        say("window", rd.wait_version(ctx, x, 2));
        rd.restore_cache(vec![(z, 2, 22), (z, 9, 90)]);
        say("restored", rd.wait_version(ctx, z, 2));
        say("restored_new", rd.wait_version(ctx, z, 9));
        say("retired", rd.wait_version(ctx, x, 10));
        let _ = writeln!(log.borrow_mut(), "log {:?}", rd.take_update_log());
    });
    sim.run().unwrap();
    r
}

/// Four ranks: rank 0 writes `m` to three readers (the multicast), rank
/// 1 writes `u` to rank 0 (a unicast write), everybody reads with a
/// timeout, and a barrier closes each round (unicast arrivals, broadcast
/// release). Timeouts keep lossy media from hanging the run.
fn sends(medium: impl Medium + 'static, reliable: bool, heartbeats: bool) -> Rig {
    let mut dir = Directory::new();
    let m = dir.add("m", 0, [1, 2, 3]);
    let u = dir.add("u", 1, [0]);
    let cfg = MsgConfig {
        reliable: reliable.then(ReliableConfig::default),
        ..MsgConfig::default()
    };
    let mut r = rig(medium, 4, cfg, dir);
    r.hub.enable_staleness();
    r.world = r.world.with_read_timeout(SimTime::from_millis(40));
    r.world.set_initial(m, 0);
    r.world.set_initial(u, 0);
    let mut sim = SimBuilder::new(5);
    if heartbeats {
        r.world.spawn_heartbeats(&mut sim, SimTime::from_millis(15));
    }
    for rank in 0..4usize {
        let mut node = r.world.node(rank);
        let log = r.log.clone();
        sim.spawn(format!("rank{rank}"), move |ctx| {
            for iter in 1..=4u64 {
                ctx.advance(SimTime::from_millis(9 - 2 * rank as u64));
                match rank {
                    0 => {
                        node.write(ctx, m, iter, iter);
                        let (age, v) = node.read(ctx, u, iter, Coherence::ASYNC);
                        let _ = writeln!(log.borrow_mut(), "r0 it{iter} u age={age} v={v}");
                    }
                    _ => {
                        if rank == 1 {
                            node.write(ctx, u, iter * 7, iter);
                        }
                        let out = node.global_read_ex(ctx, m, iter, 0);
                        note(&log, &format!("r{rank} it{iter} m"), &out);
                    }
                }
                node.barrier(ctx, iter);
            }
        });
    }
    sim.run().unwrap();
    r
}

fn chaos(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).loss(0.15).duplication(0.25)
}

#[test]
fn every_read_exit_and_send_shape_is_byte_pinned() {
    let rigs: Vec<(&str, Rig)> = vec![
        ("plain_reads", plain_reads()),
        ("sabotage_tracer_on", sabotage(true)),
        ("sabotage_tracer_off", sabotage(false)),
        ("degraded", degraded()),
        ("versions", versions()),
        ("sends_bus", sends(EthernetBus::ten_mbps(11), false, false)),
        ("sends_switch", sends(Sp2Switch::sp2(), false, false)),
        (
            "sends_bus_reliable",
            sends(EthernetBus::ten_mbps(12), true, false),
        ),
        (
            "sends_faulty",
            sends(FaultyMedium::new(ideal(), chaos(13)), false, false),
        ),
        (
            "sends_faulty_reliable",
            sends(FaultyMedium::new(ideal(), chaos(14)), true, true),
        ),
    ];
    // The scenarios reach what they are meant to pin.
    let by = |name: &str| &rigs.iter().find(|(n, _)| *n == name).unwrap().1;
    let events = |name: &str| by(name).tap.0.lock().unwrap().clone();
    let plain = by("plain_reads").world.total_stats();
    assert!(plain.cache_hits > 0 && plain.blocked_reads > 0, "{plain:?}");
    assert!(events("plain_reads").contains("ReadDep"));
    assert!(events("plain_reads").contains("ReadAnatomy"));
    assert!(events("sabotage_tracer_on").contains("ReadAnatomy"));
    assert!(!events("sabotage_tracer_off").contains("ReadAnatomy"));
    assert!(by("sabotage_tracer_off")
        .log
        .borrow()
        .contains("sabotaged age=0"));
    assert_eq!(by("degraded").world.total_stats().degraded_reads, 1);
    assert!(by("versions").log.borrow().contains("retired Err(Retired)"));
    let (bus, switch) = (by("sends_bus"), by("sends_switch"));
    assert!(bus.net.stats().messages < bus.world.comm_stats().sent);
    assert_eq!(switch.net.stats().messages, switch.world.comm_stats().sent);
    for name in ["sends_faulty", "sends_faulty_reliable"] {
        let net = by(name).net.stats();
        assert!(net.dropped > 0 && net.duplicated > 0, "{name}: {net:?}");
    }
    let rel = by("sends_faulty_reliable").world.comm_stats();
    assert!(rel.retransmits > 0 && rel.dup_suppressed > 0, "{rel:?}");

    let listing: String = rigs
        .iter()
        .map(|(name, r)| format!("{name} {:016x}\n", r.digest()))
        .collect();
    let want = "\
plain_reads b2d54e169751b14f
sabotage_tracer_on 0e91fbb0fdfd290f
sabotage_tracer_off 8514aad4aab22f7a
degraded fc0f355f19cfdb9d
versions f127ffc557e21b09
sends_bus 398a2039ec36dee4
sends_switch 784f9d0517c8794e
sends_bus_reliable 5f8cd4a1ca84b102
sends_faulty c4e5e55efd16e4b1
sends_faulty_reliable 30a421a0bc40dd85
";
    assert_eq!(listing, want, "digests as they are now:\n{listing}");
}
