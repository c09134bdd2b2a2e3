//! Copy-count regression: a DSM value is wrapped once by `write` and that
//! one allocation is what every multicast copy, retransmit, cache entry,
//! version-window slot, channel recording and read result points at. The
//! payload's `Clone` counts its calls; the whole write → multicast →
//! (retransmit) → apply → read path must never make one.

use std::sync::atomic::{AtomicUsize, Ordering};

use nscc_dsm::{Coherence, Directory, DsmWorld};
use nscc_faults::{FaultPlan, FaultyMedium};
use nscc_msg::{MsgConfig, ReliableConfig, WireSize};
use nscc_net::{IdealMedium, Network};
use nscc_sim::{SimBuilder, SimTime};

static CLONES: AtomicUsize = AtomicUsize::new(0);

#[derive(Debug, PartialEq)]
struct Counted(Vec<u64>);

impl Clone for Counted {
    fn clone(&self) -> Self {
        CLONES.fetch_add(1, Ordering::Relaxed);
        Counted(self.0.clone())
    }
}

impl WireSize for Counted {
    fn wire_size(&self) -> usize {
        self.0.wire_size()
    }
}

const RANKS: usize = 8;
const ROUNDS: u64 = 20;

/// One writer, seven readers, `ROUNDS` iterations; every reader does a
/// blocked `global_read`, a cached one, a relaxed read and (history mode)
/// an exact-version lookup per iteration, while recording its incoming
/// channels for a marker-protocol cut. Returns the retransmit count.
fn round_trip(lossy: bool, history: usize) -> u64 {
    let mut dir = Directory::new();
    let loc = dir.add("x", 0, 1..RANKS);
    let latency = IdealMedium::new(SimTime::from_millis(1));
    let (net, cfg) = if lossy {
        let plan = FaultPlan::new(11).loss(0.2).duplication(0.1);
        (
            Network::new(FaultyMedium::new(latency, plan)),
            MsgConfig {
                reliable: Some(ReliableConfig::default()),
                ..MsgConfig::default()
            },
        )
    } else {
        (Network::new(latency), MsgConfig::default())
    };
    let mut world: DsmWorld<Counted> = DsmWorld::new(net, RANKS, cfg, dir).with_history(history);
    world.set_initial(loc, Counted(Vec::new()));

    let mut sim = SimBuilder::new(3);
    let mut writer = world.node(0);
    sim.spawn("writer", move |ctx| {
        for iter in 1..=ROUNDS {
            ctx.advance(SimTime::from_millis(5));
            writer.write(ctx, loc, Counted(vec![iter; 64]), iter);
        }
        writer.retire(ctx, loc, Counted(Vec::new()));
    });
    for r in 1..RANKS {
        let mut reader = world.node(r);
        sim.spawn(format!("reader{r}"), move |ctx| {
            reader.snap_begin(None);
            for iter in 1..=ROUNDS {
                let (age, v) = reader.global_read(ctx, loc, iter, 0);
                assert!(age >= iter, "staleness bound violated");
                if age <= ROUNDS {
                    assert_eq!(*v, Counted(vec![age; 64]));
                }
                let again = reader.global_read_ex(ctx, loc, iter, 5);
                assert!(!again.blocked, "the value just read is cached");
                let (relaxed_age, _) = reader.read(ctx, loc, iter, Coherence::ASYNC);
                assert!(relaxed_age >= age);
                if history > 0 {
                    assert!(reader.get_version(loc, relaxed_age).is_some());
                    // Exact-version waits assume in-order channels, which
                    // retransmission does not give.
                    if !lossy {
                        assert!(reader.wait_version(ctx, loc, iter).is_ok());
                    }
                }
            }
            assert!(!reader.snap_finish().is_empty(), "updates were recorded");
        });
    }
    sim.run().unwrap();
    let dsm = world.total_stats();
    assert!(dsm.blocked_reads > 0 && dsm.cache_hits > 0, "{dsm:?}");
    world.comm_stats().retransmits
}

#[test]
fn no_payload_clone_from_write_to_read() {
    for (lossy, history) in [(false, 0), (false, 32), (true, 0), (true, 32)] {
        let retransmits = round_trip(lossy, history);
        assert_eq!(
            retransmits > 0,
            lossy,
            "lossy={lossy}: retransmits {retransmits}"
        );
        assert_eq!(
            CLONES.load(Ordering::Relaxed),
            0,
            "lossy={lossy} history={history}: the DSM deep-copied a value"
        );
    }
}

#[test]
fn values_need_not_be_clone() {
    struct Opaque(u64);

    impl WireSize for Opaque {
        fn wire_size(&self) -> usize {
            self.0.wire_size()
        }
    }

    let mut dir = Directory::new();
    let loc = dir.add("x", 0, [1]);
    let mut world: DsmWorld<Opaque> = DsmWorld::new(
        Network::new(IdealMedium::new(SimTime::from_millis(1))),
        2,
        MsgConfig::default(),
        dir,
    );
    world.set_initial(loc, Opaque(0));
    let (mut writer, mut reader) = (world.node(0), world.node(1));
    let mut sim = SimBuilder::new(0);
    sim.spawn("writer", move |ctx| writer.write(ctx, loc, Opaque(9), 1));
    sim.spawn("reader", move |ctx| {
        let (age, v) = reader.global_read(ctx, loc, 1, 0);
        assert_eq!((age, v.0), (1, 9));
    });
    sim.run().unwrap();
}
