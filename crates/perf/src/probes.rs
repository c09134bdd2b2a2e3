//! Per-layer probes: host nanoseconds per call of one public function of
//! one layer, timed from outside. Each probe is the median of
//! [`BATCHES`] batches; a batch is sized to last a few milliseconds so
//! the timer and (for probes that need a simulation) thread start-up are
//! amortised.
//!
//! Probes that run inside a simulation also report how many scheduler
//! events and process slices (parks) one call costs — counted once, with
//! the scheduler's own wall accounting attached, outside the timed batches
//! — so the modelled budget can charge those to `sim` and only the
//! remainder to the probed layer.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use nscc_audit::Auditor;
use nscc_bayes::{forward_sample, Table2Net};
use nscc_bench::headless::{HeadlessOutcome, HeadlessSpec};
use nscc_core::{FaultPlan, RunReport};
use nscc_dsm::{Directory, DsmWorld};
use nscc_faults::FaultyMedium;
use nscc_ga::{CostModel, GaParams, SerialGa, TestFn};
use nscc_hunt::{generate, judge, Envelope, Repro};
use nscc_msg::{wire_size, CommWorld, MsgConfig, ReliableConfig};
use nscc_net::{EthernetBus, IdealMedium, Medium, Network, NodeId};
use nscc_obs::{EventSink, Hub, ObsEvent};
use nscc_partition::partition;
use nscc_sim::{EventCtx, Mailbox, SimBuilder, SimTime};

use crate::stats::median;

/// Batches per probe in a full-size run.
pub const BATCHES: usize = 30;

/// One probe's result.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Metric name (`layer.what_unit`).
    pub name: &'static str,
    /// Median over the batches, in the unit the name ends with.
    pub value: f64,
    /// Scheduler queue entries one call executes (0 outside a simulation).
    pub events_per_call: f64,
    /// Process slices (resume → park) one call costs.
    pub parks_per_call: f64,
}

/// The timing loop: `batches` timed batches per probe.
struct Bench {
    batches: usize,
}

impl Bench {
    /// Median nanoseconds per call: `batch()` performs `calls` calls.
    fn time_ns(&self, calls: usize, mut batch: impl FnMut()) -> f64 {
        batch(); // warm caches and lazy state
        let samples: Vec<f64> = (0..self.batches)
            .map(|_| {
                let t0 = Instant::now();
                batch();
                t0.elapsed().as_nanos() as f64 / calls as f64
            })
            .collect();
        median(&samples)
    }

    fn plain(&self, name: &'static str, calls: usize, batch: impl FnMut()) -> Probe {
        Probe {
            name,
            value: self.time_ns(calls, batch),
            events_per_call: 0.0,
            parks_per_call: 0.0,
        }
    }

    /// A probe whose batch is one whole simulation performing `calls`
    /// calls; `build` spawns the processes.
    fn in_sim(&self, name: &'static str, calls: usize, build: impl Fn(&mut SimBuilder)) -> Probe {
        let run = |wall: Option<&Hub>| {
            let mut sim = SimBuilder::new(1);
            if let Some(hub) = wall {
                sim.attach_wall(hub.clone());
            }
            build(&mut sim);
            black_box(sim.run().expect("probe simulation completes"));
        };
        let hub = Hub::with_event_capacity(0);
        run(Some(&hub));
        let sched = hub.sched();
        Probe {
            name,
            value: self.time_ns(calls, || run(None)),
            events_per_call: sched.events as f64 / calls as f64,
            parks_per_call: sched.parks as f64 / calls as f64,
        }
    }

    fn emit(&self, name: &'static str, make: fn(u64) -> ObsEvent, arm: impl Fn(&Hub)) -> Probe {
        const N: usize = 2000;
        self.plain(name, N, || {
            let hub = Hub::new();
            arm(&hub);
            for i in 0..N as u64 {
                hub.emit(make(i));
            }
            black_box(hub.event_count());
        })
    }

    fn pingpong(&self, name: &'static str, cfg: MsgConfig) -> Probe {
        const ROUNDS: usize = 500;
        self.in_sim(name, 2 * ROUNDS, |sim| {
            let world: CommWorld<u64> = CommWorld::new(
                Network::new(IdealMedium::new(SimTime::from_micros(50))),
                2,
                cfg.clone(),
            );
            let (a, b) = (world.endpoint(0), world.endpoint(1));
            sim.spawn("ping", move |ctx| {
                for i in 0..ROUNDS as u64 {
                    a.send(ctx, 1, i);
                    black_box(a.recv(ctx).payload);
                }
            });
            sim.spawn("pong", move |ctx| {
                for _ in 0..ROUNDS {
                    let v = b.recv(ctx).payload;
                    b.send(ctx, 0, v);
                }
            });
        })
    }
}

/// Fire `left` more events, each scheduled by the one before it.
fn event_chain(ec: &mut EventCtx<'_>, left: u32) {
    if left > 0 {
        ec.schedule_fn(SimTime::from_micros(1), move |ec| event_chain(ec, left - 1));
    }
}

fn read_done(i: u64) -> ObsEvent {
    ObsEvent::ReadDone {
        t_ns: i * 1_000,
        rank: 1,
        loc: 0,
        curr_iter: i,
        requested: 10,
        delivered: i,
        staleness: 0,
        blocked: false,
        block_ns: 0,
    }
}

fn read_anatomy(i: u64) -> ObsEvent {
    ObsEvent::ReadAnatomy {
        t_ns: i * 1_000,
        reader: 1,
        writer: 0,
        loc: 0,
        write_iter: i,
        msg_seq: i,
        age_ns: 700,
        wait_ns: 100,
        publish_ns: 100,
        transit_ns: 100,
        fault_ns: 100,
        retrans_ns: 100,
        queue_ns: 100,
        apply_ns: 100,
    }
}

fn dsm_pair(medium: IdealMedium) -> (DsmWorld<u64>, nscc_dsm::LocId) {
    let mut dir = Directory::new();
    let loc = dir.add("x", 0, [1]);
    let mut world = DsmWorld::new(Network::new(medium), 2, MsgConfig::default(), dir);
    world.set_initial(loc, 0);
    (world, loc)
}

/// A hub holding 2000 events, for the summary and JSON probes.
fn sample_hub() -> Hub {
    let hub = Hub::new();
    for i in 0..2000 {
        hub.emit(read_done(i));
    }
    hub
}

/// Run every probe once, `batches` timed batches each (a few seconds in
/// total at [`BATCHES`]).
pub fn run_all(seed: u64, batches: usize) -> Vec<Probe> {
    let bench = Bench { batches };
    let mut out = Vec::new();

    // --- sim -------------------------------------------------------------
    out.push(bench.plain("sim.spawn_run_ns", 1, || {
        let mut sim = SimBuilder::new(1);
        sim.spawn("p", |ctx| ctx.advance(SimTime::from_micros(1)));
        black_box(sim.run().expect("probe simulation completes"));
    }));
    out.push(bench.in_sim("sim.advance_ns", 2000, |sim| {
        sim.spawn("p", |ctx| {
            for _ in 0..2000 {
                ctx.advance(SimTime::from_micros(1));
            }
        });
    }));
    out.push(bench.in_sim("sim.event_ns", 5000, |sim| {
        // Plain queue entries: no process is resumed to run them.
        sim.spawn("p", |ctx| {
            ctx.schedule_fn(SimTime::ZERO, |ec| event_chain(ec, 5000));
            ctx.advance(SimTime::from_secs(1));
        });
    }));
    out.push(bench.in_sim("sim.handoff_ns", 2000, |sim| {
        let a: Mailbox<u32> = Mailbox::new("a");
        let b: Mailbox<u32> = Mailbox::new("b");
        let (a2, b2) = (a.clone(), b.clone());
        sim.spawn("ping", move |ctx| {
            for i in 0..1000 {
                b2.deliver_now(ctx, i);
                black_box(a.recv(ctx));
            }
        });
        sim.spawn("pong", move |ctx| {
            for _ in 0..1000 {
                let v = b.recv(ctx);
                a2.deliver_now(ctx, v);
            }
        });
    }));

    // --- net / faults ------------------------------------------------------
    {
        let mut bus = EthernetBus::ten_mbps(0);
        let mut now = SimTime::ZERO;
        out.push(bench.plain("net.ethernet_transmit_ns", 2000, || {
            for _ in 0..2000 {
                now += SimTime::from_micros(900);
                black_box(bus.transmit(now, NodeId(0), NodeId(1), 1000));
            }
        }));
        let plan = FaultPlan::new(7)
            .loss(0.05)
            .delay(0.1, SimTime::from_millis(5));
        let mut faulty = FaultyMedium::new(EthernetBus::ten_mbps(0), plan);
        let mut now = SimTime::ZERO;
        out.push(bench.plain("faults.faulty_transmit_ns", 2000, || {
            for _ in 0..2000 {
                now += SimTime::from_micros(900);
                black_box(faulty.plan_transmit(now, NodeId(0), NodeId(1), 1000));
            }
        }));
    }

    // --- msg -----------------------------------------------------------------
    out.push(bench.pingpong("msg.send_recv_ns", MsgConfig::default()));
    out.push(bench.pingpong(
        "msg.reliable_send_ack_ns",
        MsgConfig {
            reliable: Some(ReliableConfig::default()),
            ..MsgConfig::default()
        },
    ));
    {
        let payload: Vec<u64> = (0..64).collect();
        out.push(bench.plain("msg.wire_size_ns", 2000, || {
            for _ in 0..2000 {
                black_box(wire_size(black_box(&payload)));
            }
        }));
    }

    // --- dsm -----------------------------------------------------------------
    out.push(bench.in_sim("dsm.read_cached_ns", 2000, |sim| {
        let (world, loc) = dsm_pair(IdealMedium::instant());
        let mut reader = world.node(1);
        sim.spawn("r", move |ctx| {
            for _ in 0..2000 {
                black_box(reader.global_read(ctx, loc, 0, 0));
            }
        });
    }));
    out.push(bench.in_sim("dsm.read_blocked_ns", 500, |sim| {
        // Every read demands the iteration the writer has not pushed yet.
        let (world, loc) = dsm_pair(IdealMedium::new(SimTime::from_micros(50)));
        let (mut writer, mut reader) = (world.node(0), world.node(1));
        sim.spawn("w", move |ctx| {
            for iter in 1..=500u64 {
                ctx.advance(SimTime::from_millis(1));
                writer.write(ctx, loc, iter, iter);
            }
        });
        sim.spawn("r", move |ctx| {
            for iter in 1..=500u64 {
                black_box(reader.global_read(ctx, loc, iter, 0));
            }
        });
    }));
    out.push(bench.in_sim("dsm.write_push_ns", 1000, |sim| {
        let (world, loc) = dsm_pair(IdealMedium::new(SimTime::from_micros(50)));
        let (mut writer, mut reader) = (world.node(0), world.node(1));
        sim.spawn("w", move |ctx| {
            for iter in 1..=1000u64 {
                writer.write(ctx, loc, iter, iter);
            }
        });
        sim.spawn("r", move |ctx| {
            ctx.advance(SimTime::from_secs(10));
            reader.drain(ctx);
        });
    }));
    {
        const RANKS: usize = 4;
        const EPOCHS: u64 = 200;
        // Per rank-episode, matching how `DsmStats::barriers` counts.
        out.push(
            bench.in_sim("dsm.barrier_ns", RANKS * EPOCHS as usize, |sim| {
                let world: DsmWorld<u64> = DsmWorld::new(
                    Network::new(IdealMedium::new(SimTime::from_micros(50))),
                    RANKS,
                    MsgConfig::default(),
                    Directory::new(),
                );
                for r in 0..RANKS {
                    let mut node = world.node(r);
                    sim.spawn(format!("rank{r}"), move |ctx| {
                        for epoch in 1..=EPOCHS {
                            node.barrier(ctx, epoch);
                        }
                    });
                }
            }),
        );
    }

    // --- kernels -----------------------------------------------------------
    for (name, func) in [
        ("ga.generation_f1_ns", TestFn::F1Sphere),
        ("ga.generation_f6_ns", TestFn::F6Rastrigin),
    ] {
        out.push(bench.plain(name, 50, || {
            let ga = SerialGa::new(func, GaParams::default(), CostModel::deterministic(), seed);
            black_box(ga.run(50));
        }));
    }
    {
        let net = Table2Net::Hailfinder.build();
        let mut sample = Vec::new();
        let mut i = 0u64;
        out.push(bench.plain("bayes.forward_sample_ns", 2000, || {
            for _ in 0..2000 {
                i += 1;
                forward_sample(&net, seed, i, &mut sample);
            }
            black_box(&sample);
        }));
        let g = Table2Net::A.build().skeleton();
        out.push(bench.plain("partition.bisect_ns", 4, || {
            for _ in 0..4 {
                black_box(partition(&g, 2, 42));
            }
        }));
    }

    // --- obs / audit ---------------------------------------------------------
    out.push(bench.emit("obs.emit_ns", read_done, |_| {}));
    out.push(bench.emit("obs.emit_tap_ns", read_done, |hub| {
        hub.set_tap(Arc::new(Auditor::new()));
    }));
    out.push(bench.emit("obs.emit_flight_ns", read_done, |hub| {
        hub.enable_flight(256);
    }));
    out.push(bench.emit("obs.emit_staleness_ns", read_anatomy, Hub::enable_staleness));
    {
        let hub = sample_hub();
        out.push(bench.plain("obs.summary_ns", 20, || {
            for _ in 0..20 {
                black_box(hub.summary());
            }
        }));
        let auditor = Auditor::new();
        let events: Vec<ObsEvent> = (0..2000).map(read_done).collect();
        out.push(bench.plain("audit.on_event_ns", events.len(), || {
            for ev in &events {
                auditor.on_event(ev);
            }
        }));
    }

    // --- ckpt / core / hunt ------------------------------------------------
    let hub = sample_hub();
    let mut report = RunReport::new("probe", &hub);
    report.param("n", 2000.0).metric("m", 1.5);
    let text = report.to_json();
    out.push(bench.plain("ckpt.seal_unseal_ns", 50, || {
        for _ in 0..50 {
            let sealed = nscc_ckpt::seal(text.as_bytes());
            black_box(
                nscc_ckpt::unseal(&sealed)
                    .expect("fresh seal verifies")
                    .len(),
            );
        }
    }));
    out.push(bench.plain("core.report_to_json_ns", 4, || {
        for _ in 0..4 {
            black_box(report.to_json());
        }
    }));
    {
        let env = Envelope::default();
        let mut t = 0;
        out.push(bench.plain("hunt.generate_ns", 500, || {
            for _ in 0..500 {
                t += 1;
                black_box(generate(seed, t, &env));
            }
        }));
        let spec = HeadlessSpec::quick(seed);
        let outcome = HeadlessOutcome {
            violations: (0..8)
                .map(|i| format!("staleness@{i} rank=1: delivered staleness 7 > bound 5"))
                .collect(),
            violation_count: 8,
            success_rate: 0.5,
            ..HeadlessOutcome::default()
        };
        out.push(bench.plain("hunt.judge_ns", 500, || {
            for _ in 0..500 {
                black_box(judge(&spec, black_box(&outcome)));
            }
        }));
    }

    // --- JSON ----------------------------------------------------------------
    // The raw event dump: the largest document the writer emits and the
    // readers load (bytes per nanosecond × 1000 = MB/s).
    let dump = hub.export_events_json();
    let ser = bench.plain("obs.json_ser_mb_s", 1, || {
        black_box(hub.export_events_json());
    });
    let parse = bench.plain("analyze.json_parse_mb_s", 1, || {
        black_box(nscc_analyze::json::parse(&dump).expect("the writer emits valid JSON"));
    });
    for p in [ser, parse] {
        out.push(Probe {
            value: dump.len() as f64 * 1e3 / p.value,
            ..p
        });
    }
    {
        let plan = (0..)
            .find_map(|t| generate(seed, t, &Envelope::default()).plan)
            .expect("the default envelope generates fault plans");
        let p = bench.plain("faults.plan_json_roundtrip_us", 100, || {
            for _ in 0..100 {
                black_box(FaultPlan::from_json(&plan.to_json()).expect("plan roundtrips"));
            }
        });
        out.push(Probe {
            value: p.value / 1e3,
            ..p
        });
        let repro = Repro::from_finding(
            generate(seed, 0, &Envelope::default()),
            &judge(&HeadlessSpec::quick(seed), &HeadlessOutcome::default()),
            "probe",
        )
        .to_json();
        let p = bench.plain("hunt.repro_parse_us", 100, || {
            for _ in 0..100 {
                black_box(Repro::from_json(&repro).expect("repro roundtrips"));
            }
        });
        out.push(Probe {
            value: p.value / 1e3,
            ..p
        });
    }
    out
}
