//! Live-feed integration tests: the `--live` stream's contract with
//! the deterministic run report.
//!
//! Three guarantees, property-tested across seeds and coherence modes:
//!
//! 1. The feed's closing `final` line carries exactly the counter values
//!    of the `HubSummary` embedded in the end-of-run report — the
//!    dashboard's last frame and the committed `BENCH_*.json` can never
//!    disagree.
//! 2. Attaching a feed changes nothing about the report itself:
//!    same-seed runs with the feed on and off serialize byte-identically.
//! 3. `sample_every(0)` is an explicit disable: the feed then carries
//!    only the `start` header and the `final` line.

use std::io::Write;
use std::sync::{Arc, Mutex};

use rand::{for_each_case, Rng};

use nscc::analyze::json::{parse, Json};
use nscc::core::RunReport;
use nscc::dsm::{Coherence, Directory, DsmWorld};
use nscc::msg::MsgConfig;
use nscc::net::{EthernetBus, Network};
use nscc::obs::Hub;
use nscc::sim::{SimBuilder, SimTime};

/// A `Write` sink the test can read back after the hub is done with it.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn lines(&self) -> Vec<String> {
        String::from_utf8(self.0.lock().unwrap().clone())
            .expect("feed is UTF-8")
            .lines()
            .map(str::to_string)
            .collect()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Run the all-to-all read/write workload from `tests/observability.rs`
/// against a caller-configured hub and return the finished report.
fn reported_run(hub: &Hub, seed: u64, ranks: usize, iters: u64, mode: Coherence) -> RunReport {
    let net = Network::new(EthernetBus::ten_mbps(seed));
    net.attach_obs(hub.clone());
    let mut dir = Directory::new();
    let locs = dir.add_per_rank("v", ranks);
    let mut world: DsmWorld<u64> =
        DsmWorld::new(net, ranks, MsgConfig::default(), dir).with_obs(hub.clone());
    for &l in &locs {
        world.set_initial(l, 0);
    }
    let mut sim = SimBuilder::new(seed);
    sim.attach_obs(hub.clone());
    if hub.wants_wall() {
        sim.attach_wall(hub.clone());
    }
    for r in 0..ranks {
        let mut node = world.node(r);
        let locs = locs.clone();
        sim.spawn(format!("rank{r}"), move |ctx| {
            for iter in 1..=iters {
                ctx.advance(SimTime::from_micros(300 + 100 * r as u64));
                node.write(ctx, locs[r], iter, iter);
                for (q, &l) in locs.iter().enumerate() {
                    if q != r {
                        let _ = node.read(ctx, l, iter, mode);
                    }
                }
            }
            node.retire(ctx, locs[r], 0);
        });
    }
    sim.run().expect("instrumented run completes");
    let mut rep = RunReport::new("live_test", hub);
    rep.param("ranks", ranks as f64).metric("ok", 1.0);
    rep
}

fn counter(line: &Json, name: &str) -> u64 {
    line.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("final line has no counter `{name}`"))
}

/// Guarantee 1: the `final` feed line equals the report's counters.
#[test]
fn final_feed_line_matches_the_report_counters() {
    for_each_case(12, |case| {
        let seed = case.gen_range(0u64..500);
        let age = case.gen_range(0u64..=4);
        let ranks = case.gen_range(2usize..=3);
        let iters = case.gen_range(4u64..=10);
        let buf = SharedBuf::default();
        let hub = Hub::new();
        hub.sample_every(1_000_000);
        hub.enable_wall();
        hub.set_live(Box::new(buf.clone()), "live_test");
        let rep = reported_run(&hub, seed, ranks, iters, Coherence::PartialAsync { age });
        hub.live_final(&rep.obs);

        let lines = buf.lines();
        assert!(lines.len() >= 2, "feed too short: {lines:?}");
        let last = parse(lines.last().unwrap()).expect("final line parses");
        assert_eq!(last.get("kind").and_then(Json::as_str), Some("final"));
        for (name, want) in [
            ("events", rep.obs.events),
            ("spans", rep.obs.spans),
            ("reads", rep.obs.reads),
            ("writes", rep.obs.writes),
            ("messages", rep.obs.messages),
            ("stale_discards", rep.obs.stale_discards),
            ("barriers", rep.obs.barriers),
            ("anti_messages", rep.obs.anti_messages),
            ("faults_dropped", rep.obs.faults_dropped),
            ("retransmits", rep.obs.retransmits),
            ("degraded_reads", rep.obs.degraded_reads),
            ("checkpoints", rep.obs.checkpoints),
            ("restores", rep.obs.restores),
        ] {
            assert_eq!(counter(&last, name), want, "counter {} diverged", name);
        }
        // Every snap line's cumulative counters are monotone toward the
        // final totals (the feed never overshoots the report).
        for line in &lines[1..lines.len() - 1] {
            let v = parse(line).expect("snap line parses");
            assert_eq!(v.get("kind").and_then(Json::as_str), Some("snap"));
            let reads = v
                .get("snap")
                .and_then(|s| s.get("reads"))
                .and_then(Json::as_u64)
                .unwrap();
            assert!(reads <= rep.obs.reads);
        }
    });
}

/// Guarantee 2: the feed is purely additive — attaching it (plus the
/// wall accounting it implies) must not move a byte of the report.
#[test]
fn feed_on_and_off_reports_are_byte_identical() {
    for_each_case(12, |case| {
        let seed = case.gen_range(0u64..500);
        let age = case.gen_range(0u64..=4);
        let iters = case.gen_range(4u64..=10);
        let plain = {
            let hub = Hub::new();
            hub.sample_every(1_000_000);
            reported_run(&hub, seed, 3, iters, Coherence::PartialAsync { age }).to_json()
        };
        let fed = {
            let hub = Hub::new();
            hub.sample_every(1_000_000);
            hub.enable_wall();
            hub.set_live(Box::new(SharedBuf::default()), "live_test");
            let rep = reported_run(&hub, seed, 3, iters, Coherence::PartialAsync { age });
            hub.live_final(&rep.obs);
            rep.to_json()
        };
        assert_eq!(plain, fed, "the live feed perturbed the report bytes");
    });
}

/// Guarantee 3: snapshots explicitly disabled → start + final only.
#[test]
fn disabled_cadence_yields_start_and_final_only() {
    let buf = SharedBuf::default();
    let hub = Hub::new();
    hub.sample_every(0);
    hub.set_live(Box::new(buf.clone()), "live_test");
    let rep = reported_run(&hub, 7, 2, 8, Coherence::ASYNC);
    hub.live_final(&rep.obs);

    let lines = buf.lines();
    assert_eq!(lines.len(), 2, "expected start+final only: {lines:?}");
    let start = parse(&lines[0]).unwrap();
    assert_eq!(start.get("kind").and_then(Json::as_str), Some("start"));
    assert_eq!(
        start.get("snap_every_ns").and_then(Json::as_u64),
        Some(0),
        "disabled cadence must be advertised as 0 in the header"
    );
    let fin = parse(&lines[1]).unwrap();
    assert_eq!(fin.get("kind").and_then(Json::as_str), Some("final"));
    assert_eq!(counter(&fin, "reads"), rep.obs.reads);
}
