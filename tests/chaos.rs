//! Chaos-facing integration tests: the `Global_Read` staleness contract
//! under arbitrary frame loss/duplication with reliable delivery on, the
//! causal-attribution contract (every `ReadDep`'s releasing write honors
//! the blocked read's age bound), a GA experiment surviving a mid-run
//! node crash with a `degraded` marker in its run report, and the
//! consistent-snapshot contracts: cut-served warm restores stay
//! audit-clean, and crash-free snapshot-on runs render reports
//! byte-identical to snapshot-off runs outside `recovery`.

use std::sync::{Arc, Mutex};

use rand::{for_each_case, Rng};

use nscc::core::{run_ga_experiment, GaExperiment, Platform, RecoveryStyle, RunReport};
use nscc::dsm::{Coherence, Directory, DsmWorld, LocId, ReadOutcome};
use nscc::faults::{FaultPlan, FaultyMedium};
use nscc::ga::{CostModel, SupervisorPolicy, TestFn};
use nscc::msg::{MsgConfig, ReliableConfig};
use nscc::net::{EthernetBus, Network};
use nscc::obs::{Hub, ObsEvent};
use nscc::sim::{SimBuilder, SimTime};

/// All-to-all read/write over a lossy, duplicating Ethernet with the
/// reliable layer on and a read timeout, returning every read outcome
/// plus the run's network/comm counters. `inject` arms the deliberate
/// stale-release sabotage (audit validation; 0 = honest run).
fn chaotic_readback(
    seed: u64,
    ranks: usize,
    iters: u64,
    age: u64,
    (loss, dup): (f64, f64),
    hub: Option<Hub>,
    inject: u64,
) -> (Vec<ReadOutcome<u64>>, u64, u64, u64) {
    let plan = FaultPlan::new(seed).loss(loss).duplication(dup);
    let net = Network::new(FaultyMedium::new(EthernetBus::ten_mbps(seed), plan));
    let cfg = MsgConfig {
        reliable: Some(ReliableConfig::default()),
        ..MsgConfig::default()
    };
    let mut dir = Directory::new();
    let locs = dir.add_per_rank("v", ranks);
    let mut world: DsmWorld<u64> =
        DsmWorld::new(net.clone(), ranks, cfg, dir).with_read_timeout(SimTime::from_millis(30));
    if let Some(h) = hub {
        world = world.with_obs(h);
    }
    if inject > 0 {
        world = world.with_stale_injection(inject);
    }
    for &l in &locs {
        world.set_initial(l, 0);
    }

    let outcomes: Arc<Mutex<Vec<ReadOutcome<u64>>>> = Arc::new(Mutex::new(Vec::new()));
    let mut sim = SimBuilder::new(seed);
    for r in 0..ranks {
        let mut node = world.node(r);
        let locs = locs.clone();
        let outcomes = Arc::clone(&outcomes);
        sim.spawn(format!("rank{r}"), move |ctx| {
            for iter in 1..=iters {
                ctx.advance(SimTime::from_micros(400 + 130 * r as u64));
                node.write(ctx, locs[r], iter, iter);
                for (q, &l) in locs.iter().enumerate() {
                    if q != r {
                        let out = node.global_read_ex(ctx, l, iter, age);
                        outcomes.lock().unwrap().push(out);
                    }
                }
            }
            if r == 0 {
                // Quiescent tail: keep virtual time flowing past the
                // longest possible retransmit backoff chain, so frames
                // dropped in the final iterations still get their
                // retry/give-up resolution before the run ends.
                ctx.advance(SimTime::from_secs(1));
            }
        });
    }
    sim.run()
        .expect("chaotic run completes (timeouts bound every wait)");
    let comm = world.comm_stats();
    let outs = Arc::try_unwrap(outcomes).unwrap().into_inner().unwrap();
    (outs, net.stats().dropped, comm.retransmits, comm.give_ups)
}

/// Whatever the fault plan does to the wire, a read that is not
/// explicitly tagged `degraded` must honor the paper's bound: the
/// delivered version is at least `curr_iter − age`. Reliable delivery
/// plus receiver-side dedup is what keeps duplicated/lost updates
/// from corrupting version bookkeeping.
#[test]
fn staleness_bound_survives_any_fault_plan() {
    for_each_case(12, |case| {
        let seed = case.gen_range(0u64..500);
        let ranks = case.gen_range(2usize..=3);
        let iters = case.gen_range(6u64..=14);
        let age = case.gen_range(0u64..=5);
        let loss = case.gen_range(0.0f64..0.25);
        let dup = case.gen_range(0.0f64..0.20);
        let (outs, dropped, retransmits, give_ups) =
            chaotic_readback(seed, ranks, iters, age, (loss, dup), None, 0);
        assert!(!outs.is_empty(), "no reads recorded");
        for out in &outs {
            if !out.degraded {
                assert!(
                    out.age >= out.required,
                    "undegraded read broke the bound: delivered version {} < required {}",
                    out.age,
                    out.required
                );
            }
        }
        // Every fault the wire injected must have been answered: a
        // dropped frame either retransmits or (after max retries) is
        // abandoned — never silently forgotten.
        if dropped > 0 {
            assert!(
                retransmits + give_ups > 0,
                "{dropped} frames dropped but the reliable layer never reacted"
            );
        }
    });
}

/// Pair every `ReadDep` event with the `ReadBlocked` it resolves (reads
/// are sequential per rank, so at most one blocked read is outstanding
/// per reader) and check the provenance contract: the releasing write's
/// generation satisfies the blocked read's own `required = curr_iter −
/// age` bound, on the location the read actually blocked on, from a
/// writer other than the reader itself. Returns how many dependencies
/// were checked.
fn check_read_deps(events: &[ObsEvent]) -> Result<u64, String> {
    let mut pending: std::collections::HashMap<u32, (u32, u64)> = std::collections::HashMap::new();
    let mut deps = 0u64;
    for ev in events {
        match ev {
            ObsEvent::ReadBlocked {
                rank,
                loc,
                required,
                ..
            } => {
                pending.insert(*rank, (*loc, *required));
            }
            ObsEvent::ReadDep {
                reader,
                writer,
                loc,
                write_iter,
                ..
            } => {
                deps += 1;
                let (bloc, required) = pending
                    .remove(reader)
                    .ok_or_else(|| format!("reader {reader}: ReadDep without a ReadBlocked"))?;
                if *loc != bloc {
                    return Err(format!(
                        "reader {reader}: dep names loc {loc} but the read blocked on {bloc}"
                    ));
                }
                if *write_iter < required {
                    return Err(format!(
                        "reader {reader}: releasing write_iter {write_iter} breaks the \
                         bound (required {required})"
                    ));
                }
                if writer == reader {
                    return Err(format!("reader {reader} blocked on its own write"));
                }
            }
            _ => {}
        }
    }
    Ok(deps)
}

/// The causal-attribution contract under chaos: whatever the fault
/// plan does to the wire — drops forcing retransmits, duplicates
/// forcing dedup — every `ReadDep` a blocked read reports names a
/// releasing write whose generation satisfies that read's own
/// staleness bound. Retransmitted provenance must not smuggle in a
/// version older than the bound.
#[test]
fn read_dep_provenance_satisfies_the_age_bound() {
    for_each_case(10, |case| {
        let seed = case.gen_range(0u64..500);
        let ranks = case.gen_range(2usize..=3);
        let iters = case.gen_range(6u64..=12);
        let age = case.gen_range(0u64..=4);
        let loss = case.gen_range(0.0f64..0.25);
        let dup = case.gen_range(0.0f64..0.20);
        let hub = Hub::new();
        chaotic_readback(seed, ranks, iters, age, (loss, dup), Some(hub.clone()), 0);
        if let Err(e) = check_read_deps(&hub.events()) {
            panic!("{e}");
        }
    });
}

/// The fault-free anchor for the property above: a lossless age=0 run
/// must actually block (the readers outrun the staggered writers), so
/// the provenance check is exercised, not vacuously passed — and the
/// same seed must reproduce the same dependency stream byte for byte.
#[test]
fn read_deps_are_recorded_and_deterministic() {
    let run = || {
        let hub = Hub::new();
        chaotic_readback(11, 3, 10, 0, (0.0, 0.0), Some(hub.clone()), 0);
        hub.events()
    };
    let events = run();
    let deps = check_read_deps(&events).expect("provenance contract holds");
    assert!(
        deps > 0,
        "age=0 run never blocked — the property is vacuous"
    );
    let deps2 = check_read_deps(&run()).expect("rerun contract holds");
    assert_eq!(deps, deps2, "same seed must release the same dependencies");
}

/// A read/write loop where one rank checkpoints its DSM cache and later
/// restores it (a warm crash recovery rolled back `restore_iter −
/// snap_iter` iterations), then keeps reading. Returns the post-restore
/// read outcomes.
fn readback_across_restore(
    seed: u64,
    iters: u64,
    age: u64,
    snap_iter: u64,
    restore_iter: u64,
) -> Vec<ReadOutcome<u64>> {
    let net = Network::new(EthernetBus::ten_mbps(seed));
    let mut dir = Directory::new();
    let locs = dir.add_per_rank("v", 2);
    let mut world: DsmWorld<u64> = DsmWorld::new(net, 2, MsgConfig::default(), dir)
        .with_read_timeout(SimTime::from_millis(30));
    for &l in &locs {
        world.set_initial(l, 0);
    }

    let outcomes: Arc<Mutex<Vec<ReadOutcome<u64>>>> = Arc::new(Mutex::new(Vec::new()));
    let mut sim = SimBuilder::new(seed);
    for r in 0..2usize {
        let mut node = world.node(r);
        let locs = locs.clone();
        let outcomes = Arc::clone(&outcomes);
        sim.spawn(format!("rank{r}"), move |ctx| {
            let mut frame: Option<Vec<u8>> = None;
            for iter in 1..=iters {
                ctx.advance(SimTime::from_micros(400 + 130 * r as u64));
                if r == 1 && iter == snap_iter {
                    // The sealed frame round-trips byte-identically — the
                    // same encoding the island checkpoints use.
                    let bytes = nscc::ckpt::to_bytes(&node.export_cache());
                    let sealed = nscc::ckpt::seal(&bytes);
                    let back: Vec<(LocId, u64, u64)> =
                        nscc::ckpt::from_bytes(nscc::ckpt::unseal(&sealed).unwrap()).unwrap();
                    assert_eq!(nscc::ckpt::to_bytes(&back), bytes);
                    frame = Some(sealed);
                }
                if r == 1 && iter == restore_iter {
                    let sealed = frame.take().expect("snapshot taken before restore");
                    let entries: Vec<(LocId, u64, u64)> =
                        nscc::ckpt::from_bytes(nscc::ckpt::unseal(&sealed).unwrap()).unwrap();
                    node.restore_cache(entries);
                    // Drain pending updates: the resync that makes a
                    // restored node look like a legitimately stale peer.
                    node.drain(ctx);
                }
                node.write(ctx, locs[r], iter, iter);
                let peer = locs[1 - r];
                let out = node.global_read_ex(ctx, peer, iter, age);
                if r == 1 && iter >= restore_iter {
                    outcomes.lock().unwrap().push(out);
                }
            }
        });
    }
    sim.run().expect("restore run completes");
    Arc::try_unwrap(outcomes).unwrap().into_inner().unwrap()
}

/// §4.1's recovery claim, as a property: rolling a node's cache back
/// to an earlier checkpoint and resyncing from pending updates never
/// lets an undegraded `Global_Read` break the staleness bound — the
/// restored node is indistinguishable from a legitimately stale peer.
#[test]
fn staleness_bound_holds_across_a_restore() {
    for_each_case(12, |case| {
        let seed = case.gen_range(0u64..500);
        let age = case.gen_range(0u64..=5);
        let snap_iter = case.gen_range(2u64..=6);
        let rollback = case.gen_range(1u64..=6);
        let restore_iter = snap_iter + rollback;
        let outs = readback_across_restore(seed, restore_iter + 8, age, snap_iter, restore_iter);
        assert!(!outs.is_empty(), "no post-restore reads recorded");
        for out in &outs {
            if !out.degraded {
                assert!(
                    out.age >= out.required,
                    "post-restore undegraded read broke the bound: \
                     delivered version {} < required {}",
                    out.age,
                    out.required
                );
            }
        }
    });
}

/// Warm recovery vs cold restart on the same crash: both runs share the
/// seed, the fault plan and the quality target, so the only difference
/// is what the crashed island comes back with. Restoring a checkpoint at
/// most `age` generations old must never converge later than restarting
/// from scratch, and the rollback distance must honor the age bound.
#[test]
fn warm_recovery_converges_no_later_than_cold_restart() {
    let age = 5u64;
    let run = |style: RecoveryStyle| {
        let platform =
            Platform::paper_ethernet(2).with_faults(FaultPlan::new(42).crash_and_restart(
                1,
                SimTime::from_millis(40),
                SimTime::from_millis(55),
            ));
        let exp = GaExperiment {
            generations: 20,
            runs: 1,
            cost: CostModel::deterministic(),
            platform,
            modes: vec![Coherence::PartialAsync { age }],
            read_timeout: Some(SimTime::from_millis(50)),
            heartbeat: Some(SimTime::from_millis(20)),
            watchdog: Some(SimTime::from_secs(600)),
            recovery: Some(style),
            ..GaExperiment::new(TestFn::F1Sphere, 2)
        };
        let res = run_ga_experiment(&exp).expect("recovery cell completes");
        res.modes[0].clone()
    };

    let warm = run(RecoveryStyle::Warm);
    let cold = run(RecoveryStyle::Cold);
    assert!(warm.restores >= 1, "warm run never restored");
    assert!(cold.restores >= 1, "cold run never restarted");
    assert!(
        warm.max_rollback <= age,
        "warm rollback {} exceeds the age bound {age}",
        warm.max_rollback
    );
    assert_eq!(cold.max_rollback, 0, "cold restarts roll nothing back");
    assert!(
        warm.mean_time <= cold.mean_time,
        "warm recovery converged later ({:?}) than a cold restart ({:?})",
        warm.mean_time,
        cold.mean_time
    );

    // Same seed, same style: the recovery path itself is deterministic.
    let warm2 = run(RecoveryStyle::Warm);
    assert_eq!(warm.mean_time, warm2.mean_time);
    assert_eq!(warm.restores, warm2.restores);
    assert_eq!(warm.max_rollback, warm2.max_rollback);
}

/// The ISSUE's acceptance scenario: ≥1% frame loss plus one node crash
/// mid-run. The partial-async GA must complete (no wedge), the fault
/// layer's work must show up in the counters, and a run report built
/// from the result must carry the `degraded` marker — reproducibly for
/// the same seeds.
#[test]
fn ga_survives_midrun_node_crash_with_degraded_marker() {
    let hub = Hub::new();
    // Rank 2 dies ~6 generations in (one generation ≈ 8.5 ms of virtual
    // CPU); the survivors need ~40 generations, so their reads of its
    // location must eventually outrun its last version and degrade.
    let mut platform = Platform::paper_ethernet(3).with_faults(
        FaultPlan::new(7)
            .loss(0.01)
            .crash(2, SimTime::from_millis(50)),
    );
    platform.msg.reliable = Some(ReliableConfig {
        base_rto: SimTime::from_millis(80),
        ..ReliableConfig::default()
    });
    let exp = GaExperiment {
        generations: 40,
        runs: 1,
        cap_factor: 3,
        cost: CostModel::deterministic(),
        platform,
        obs: Some(hub.clone()),
        modes: vec![Coherence::PartialAsync { age: 10 }],
        read_timeout: Some(SimTime::from_millis(50)),
        heartbeat: Some(SimTime::from_millis(20)),
        watchdog: Some(SimTime::from_secs(3600)),
        ..GaExperiment::new(TestFn::F1Sphere, 3)
    };

    let res = run_ga_experiment(&exp).expect("chaos GA cell completes");
    let m = &res.modes[0];
    assert!(m.mean_generations > 0.0, "no generations executed");
    assert!(res.net.dropped > 0, "fault layer never fired");
    assert!(
        m.dsm.degraded_reads > 0,
        "the crash left no degraded reads — it was never felt"
    );

    let mut rep = RunReport::new("chaos", &hub);
    rep.dsm = m.dsm;
    rep.net = Some(res.net);
    rep.comm = Some(res.comm);
    rep.fault_reports = res.fault_reports.len() as u64;
    rep.note_degradation();
    assert!(rep.degraded, "report must carry the degraded marker");
    let json = rep.to_json();
    assert!(json.contains("\"degraded\":true"), "{json}");
    assert!(json.contains("\"degraded_reads\""), "{json}");

    // Same seeds, same chaos: the resilience story must reproduce.
    let res2 = run_ga_experiment(&exp).expect("rerun completes");
    assert_eq!(res.net.dropped, res2.net.dropped);
    assert_eq!(m.dsm.degraded_reads, res2.modes[0].dsm.degraded_reads);
    assert_eq!(m.comm.retransmits, res2.modes[0].comm.retransmits);
    assert_eq!(res.fault_reports.len(), res2.fault_reports.len());
}

/// The acceptance scenario for the online auditor: a seeded run with
/// deliberate stale releases armed must (a) trip the staleness monitor
/// and no other, (b) cut a byte-identical flight dump on every rerun,
/// and (c) yield a post-mortem that attributes the flagged location to
/// the rank that actually published it last.
#[test]
fn injected_stale_delivery_is_caught_with_provenance_in_the_dump() {
    use nscc::audit::{render_flight_dump, Auditor, FlightDump};

    let run = || {
        let hub = Hub::new();
        hub.enable_flight(4096);
        let auditor = Arc::new(Auditor::new());
        hub.set_tap(auditor.clone());
        // Sabotage: the first 3 would-block reads per rank release the
        // cached value immediately, past the age-0 bound.
        chaotic_readback(11, 3, 12, 0, (0.0, 0.0), Some(hub.clone()), 3);
        let summary = auditor.summary();
        let dump = FlightDump::new(
            "chaos",
            11,
            "violation",
            hub.flight_capacity(),
            hub.flight_events(),
            auditor.recorded(),
        )
        .with_proc_names(vec!["rank0".into(), "rank1".into(), "rank2".into()]);
        (summary, render_flight_dump(&dump))
    };

    let (summary, dump_json) = run();
    assert!(
        summary.violations > 0,
        "auditor missed every injected stale release"
    );
    let stale = summary
        .monitors
        .iter()
        .find(|m| m.name == "staleness")
        .expect("staleness monitor installed");
    assert!(stale.checked > 0 && stale.violations > 0, "{summary:?}");
    for m in &summary.monitors {
        if m.name != "staleness" {
            assert_eq!(
                m.violations, 0,
                "{} monitor false-positived on a staleness-only sabotage",
                m.name
            );
        }
    }
    assert!(
        !summary.recorded.is_empty(),
        "violations must be recorded, not just counted"
    );

    // Same seed, same sabotage: the black box must be byte-identical.
    let (_, dump_again) = run();
    assert_eq!(dump_json, dump_again, "flight dump is not deterministic");

    // The dump round-trips through the analyzer's post-mortem, and the
    // suspected-cause heuristic names the releasing writer. Location q
    // is owned (written) by rank q alone, and a rank never reads its own
    // location, so any correct attribution names another rank.
    let path = std::env::temp_dir().join("nscc_chaos_flight_test.json");
    std::fs::write(&path, format!("{dump_json}\n")).expect("write dump");
    let rep = nscc::analyze::Report::load(&path).expect("dump parses");
    let text = nscc::analyze::postmortem(&rep).expect("postmortem renders");
    std::fs::remove_file(&path).ok();
    assert!(text.contains("reason: violation"), "{text}");
    assert!(
        text.contains("was last published by rank"),
        "no provenance attribution in:\n{text}"
    );
    assert!(
        text.contains("(rank0)") || text.contains("(rank1)") || text.contains("(rank2)"),
        "attribution lost the process name:\n{text}"
    );
}

/// The standing determinism contract: attaching the full monitor set
/// (and the flight ring) to a run must not perturb it — the rendered
/// `RunReport` is byte-identical outside the `audit` section.
#[test]
fn monitors_on_and_off_reports_are_byte_identical_outside_audit() {
    use nscc::audit::Auditor;

    let render = |audit: bool| -> String {
        let hub = Hub::new();
        let auditor = Arc::new(Auditor::new());
        if audit {
            hub.enable_flight(1024);
            hub.set_tap(auditor.clone());
        }
        chaotic_readback(23, 3, 10, 1, (0.02, 0.01), Some(hub.clone()), 0);
        let mut rep = RunReport::new("determinism", &hub);
        if audit {
            rep.audit = Some(auditor.summary());
        }
        rep.to_json()
    };

    let on = render(true);
    let off = render(false);
    // `audit` sits just before the (here untraced) `staleness` tail; cut
    // both at its key and the prefixes must match to the byte.
    let cut = |s: &str| {
        let at = s.rfind(",\"audit\":").expect("report carries an audit key");
        s[..at].to_string()
    };
    assert_eq!(
        cut(&on),
        cut(&off),
        "monitors perturbed the run they were watching"
    );
    assert!(off.ends_with("\"audit\":null,\"staleness\":null}"), "{off}");
    assert!(on.contains("\"audit\":{"), "{on}");
    // An honest run under full monitoring: plenty checked, nothing flagged.
    assert!(on.contains("\"violations\":0"), "{on}");
}

/// Determinism contract under arbitrary fault pressure: for any
/// seed/loss/duplication mix, the monitored and unmonitored runs
/// agree byte-for-byte outside `audit`, and an honest run stays
/// violation-free no matter the weather.
#[test]
fn monitored_runs_are_undisturbed_under_any_fault_plan() {
    for_each_case(6, |case| {
        let seed = case.gen_range(1u64..5000);
        let loss = case.gen_range(0.0f64..0.15);
        let dup = case.gen_range(0.0f64..0.10);
        use nscc::audit::Auditor;

        let render = |audit: bool| -> (String, u64) {
            let hub = Hub::new();
            let auditor = Arc::new(Auditor::new());
            if audit {
                hub.enable_flight(512);
                hub.set_tap(auditor.clone());
            }
            chaotic_readback(seed, 3, 8, 1, (loss, dup), Some(hub.clone()), 0);
            let mut rep = RunReport::new("determinism", &hub);
            if audit {
                rep.audit = Some(auditor.summary());
            }
            (rep.to_json(), auditor.violation_count())
        };

        let (on, violations) = render(true);
        let (off, _) = render(false);
        let cut = |s: &str| {
            let at = s.rfind(",\"audit\":").expect("report carries an audit key");
            s[..at].to_string()
        };
        assert_eq!(cut(&on), cut(&off));
        assert_eq!(violations, 0, "honest run flagged by the auditor: {}", on);
    });
}

/// The marker protocol's determinism contract, pinned by a seeded loop: for
/// any seed and wave cadence, a crash-free snapshot-on GA run renders
/// a `RunReport` byte-identical to the snapshot-off run outside the
/// `recovery` section. Markers travel on an out-of-band plane and a
/// local capture reuses the island's newest sealed checkpoint frame,
/// so the application story — virtual time, evolution, messages, obs
/// counters — must not move by a byte.
#[test]
fn snapshot_on_reports_are_byte_identical_outside_recovery() {
    for_each_case(6, |case| {
        let seed = case.gen_range(1u64..5000);
        let every = case.gen_range(1u64..8);
        let render = |snapshots: Option<u64>| -> String {
            let hub = Hub::new();
            let exp = GaExperiment {
                generations: 16,
                runs: 1,
                cap_factor: 3,
                base_seed: seed,
                cost: CostModel::deterministic(),
                platform: Platform::paper_ethernet(3),
                obs: Some(hub.clone()),
                modes: vec![Coherence::PartialAsync { age: 5 }],
                recovery: Some(RecoveryStyle::Warm),
                snapshots,
                supervision: snapshots.map(|_| SupervisorPolicy::default()),
                ..GaExperiment::new(TestFn::F1Sphere, 3)
            };
            let res = run_ga_experiment(&exp).expect("clean cell completes");
            let m = &res.modes[0];
            let mut rep = RunReport::new("snapdet", &hub);
            rep.metric("mean_time_ns", m.mean_time.as_nanos() as f64)
                .metric("mean_best", m.mean_best)
                .metric("mean_messages", m.mean_messages);
            rep.dsm = m.dsm;
            rep.net = Some(res.net);
            rep.comm = Some(m.comm);
            rep.recovery = res.recovery.clone();
            rep.note_degradation();
            rep.to_json()
        };

        let on = render(Some(every));
        let off = render(None);
        // `recovery` sits between `obs` and `wall` in the schema, so the
        // comparison is prefix + suffix around that one section; both
        // halves must match to the byte.
        let split = |s: &str| {
            let a = s
                .rfind(",\"recovery\":")
                .expect("report carries a recovery key");
            let b = s.rfind(",\"wall\":").expect("report carries a wall key");
            (s[..a].to_string(), s[b..].to_string())
        };
        let (on_pre, on_post) = split(&on);
        let (off_pre, off_post) = split(&off);
        assert_eq!(
            on_pre, off_pre,
            "snapshots perturbed the run they were capturing"
        );
        assert_eq!(on_post, off_post);
        assert!(off.contains("\"recovery\":null"), "{}", off);
        assert!(on.contains("\"recovery\":{"), "{}", on);
    });
}

/// The recovery-drill acceptance story at integration level: a mid-run
/// island crash under snapshots + supervision is warm-restored within the
/// age bound while the full online monitor set — including the
/// snapshot-lifecycle monitor — watches the run and stays silent.
#[test]
fn consistent_cut_recovery_is_audit_clean() {
    use nscc::audit::Auditor;

    let hub = Hub::new();
    let auditor = Arc::new(Auditor::new());
    hub.set_tap(auditor.clone());
    let platform = Platform::paper_ethernet(3).with_faults(FaultPlan::new(42).crash_and_restart(
        1,
        SimTime::from_millis(40),
        SimTime::from_millis(55),
    ));
    let exp = GaExperiment {
        generations: 30,
        runs: 1,
        cap_factor: 3,
        cost: CostModel::deterministic(),
        platform,
        obs: Some(hub.clone()),
        modes: vec![Coherence::PartialAsync { age: 5 }],
        read_timeout: Some(SimTime::from_millis(50)),
        heartbeat: Some(SimTime::from_millis(20)),
        watchdog: Some(SimTime::from_secs(3600)),
        recovery: Some(RecoveryStyle::Warm),
        snapshots: Some(5),
        supervision: Some(SupervisorPolicy::default()),
        ..GaExperiment::new(TestFn::F1Sphere, 3)
    };

    let res = run_ga_experiment(&exp).expect("supervised cell completes");
    assert!(
        res.fault_reports.is_empty(),
        "run wedged: {:?}",
        res.fault_reports
    );
    let rec = res
        .recovery
        .as_ref()
        .expect("snapshots + supervision enabled");
    assert!(
        rec.snapshots_completed >= 1,
        "no consistent cut ever completed: {rec:?}"
    );
    assert_eq!(rec.restores, 1, "the crash window must be taken: {rec:?}");
    assert_eq!(rec.restarts_approved, 1, "the supervisor must approve it");
    assert_eq!(rec.give_ups, 0, "no island should retire: {rec:?}");
    assert!(
        rec.max_rollback <= 5,
        "rollback {} exceeds the age bound",
        rec.max_rollback
    );

    // The snapshot monitor audited the wave lifecycle and found nothing —
    // and neither did any other monitor.
    let summary = auditor.summary();
    let snap = summary
        .monitors
        .iter()
        .find(|m| m.name == "snapshot")
        .expect("snapshot monitor installed");
    assert!(snap.checked > 0, "snapshot monitor never saw a wave");
    assert_eq!(
        summary.violations, 0,
        "recovery tripped a monitor: {summary:?}"
    );
}
