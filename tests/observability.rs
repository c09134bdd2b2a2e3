//! Observability-layer integration tests: the staleness contract as seen
//! through the instrumentation hub, Perfetto export well-formedness, and
//! machine-readable run reports.

use rand::{for_each_case, Rng};

use nscc::ckpt::json;
use nscc::core::{run_ga_experiment, GaExperiment, Platform, RunReport};
use nscc::dsm::{Coherence, Directory, DsmWorld};
use nscc::ga::TestFn;
use nscc::msg::MsgConfig;
use nscc::net::{EthernetBus, Network};
use nscc::obs::{Hub, ObsEvent, SpanKind};
use nscc::sim::{SimBuilder, SimTime};

/// Run an all-to-all read/write workload with every layer instrumented,
/// returning the shared hub.
fn instrumented_run(seed: u64, ranks: usize, iters: u64, mode: Coherence) -> Hub {
    instrumented_run_with(Hub::new(), seed, ranks, iters, mode)
}

/// Same workload, but streaming into a caller-configured hub (e.g. one
/// with the sampling profiler enabled).
fn instrumented_run_with(hub: Hub, seed: u64, ranks: usize, iters: u64, mode: Coherence) -> Hub {
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
    hub
}

/// The paper's contract, observed rather than asserted in-band: every
/// `ReadDone` event satisfies `staleness ≤ requested`, whichever
/// coherence discipline produced it (relaxed reads carry
/// `requested = u64::MAX`, so the bound is vacuous there by design).
#[test]
fn staleness_never_exceeds_requested_age() {
    for_each_case(16, |case| {
        let seed = case.gen_range(0u64..1000);
        let age = case.gen_range(0u64..=6);
        let ranks = case.gen_range(2usize..=3);
        let iters = case.gen_range(4u64..=12);
        let mode_ix = case.gen_range(0usize..3);
        let mode = [
            Coherence::Synchronous,
            Coherence::ASYNC,
            Coherence::PartialAsync { age },
        ][mode_ix];
        let hub = instrumented_run(seed, ranks, iters, mode);
        let mut reads = 0u64;
        for ev in hub.events() {
            if let ObsEvent::ReadDone {
                requested,
                staleness,
                ..
            } = ev
            {
                reads += 1;
                assert!(
                    staleness <= requested,
                    "staleness {staleness} > requested {requested} under {mode}"
                );
            }
        }
        assert!(reads > 0, "no reads observed");
        assert_eq!(hub.summary().reads, reads);
    });
}

/// The Perfetto export is valid JSON and, lane by lane, spans never
/// overlap: each (kind, pid) timeline is a sequence of disjoint intervals,
/// as a scheduler trace of sequential processes must be.
#[test]
fn perfetto_export_is_valid_and_lanes_do_not_overlap() {
    let hub = instrumented_run(7, 3, 10, Coherence::PartialAsync { age: 2 });
    let trace = hub.perfetto();
    nscc_ckpt::json::parse(&trace).expect("Perfetto JSON validates");
    assert!(trace.contains("traceEvents"));

    let spans = hub.spans();
    assert!(!spans.is_empty(), "instrumented run recorded no spans");
    let lane = |k: SpanKind| match k {
        SpanKind::Compute => 0u8,
        SpanKind::Blocked => 1,
        SpanKind::Phase => 2,
    };
    let mut by_lane: std::collections::BTreeMap<(u8, u32), Vec<(u64, u64)>> =
        std::collections::BTreeMap::new();
    for s in &spans {
        by_lane
            .entry((lane(s.kind), s.pid))
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    for ((kind, pid), mut iv) in by_lane {
        iv.sort_unstable();
        for w in iv.windows(2) {
            assert!(
                w[1].0 >= w[0].1,
                "lane (kind {kind}, pid {pid}): span starting at {} overlaps one ending at {}",
                w[1].0,
                w[0].1
            );
        }
    }
}

/// A report built from an instrumented run validates as JSON and carries a
/// non-empty staleness histogram — the acceptance shape of
/// `nscc run fig2 --json`.
#[test]
fn run_report_carries_staleness_histogram() {
    let hub = instrumented_run(11, 2, 12, Coherence::PartialAsync { age: 1 });
    let mut rep = RunReport::new("obs_test", &hub);
    rep.param("ranks", 2.0).metric("ok", 1.0);
    let s = rep.to_json();
    nscc_ckpt::json::parse(&s).expect("report JSON validates");
    assert!(
        rep.obs.staleness.count() > 0,
        "staleness histogram is empty"
    );
    assert!(rep.obs.reads > 0);
    assert!(rep.obs.messages > 0, "network deliveries not observed");
    assert!(s.contains("\"staleness\""));
}

/// The scheduler feeds the hub: compute spans and registered process names
/// appear without any manual instrumentation in the workload.
#[test]
fn scheduler_spans_and_names_reach_the_hub() {
    let hub = instrumented_run(3, 2, 6, Coherence::Synchronous);
    let compute: Vec<_> = hub
        .spans()
        .into_iter()
        .filter(|s| s.kind == SpanKind::Compute)
        .collect();
    assert!(!compute.is_empty(), "no compute spans recorded");
    let names = hub.proc_names();
    assert!(
        names.values().any(|n| n.starts_with("rank")),
        "process names not registered: {names:?}"
    );
    let t = hub.totals(0);
    assert!(t.compute_ns > 0, "pid 0 recorded no compute time");
}

/// The virtual-time sampling profiler is a pure function of the virtual
/// clock, so the same seed yields identical rows — the byte-identical
/// `--folded` guarantee — and blocked samples are attributed to the
/// phase/location the process was actually stuck in.
#[test]
fn profiler_rows_are_deterministic_and_attributed() {
    let run = || {
        let hub = Hub::new();
        hub.profile_every(50_000);
        instrumented_run_with(hub.clone(), 7, 3, 10, Coherence::PartialAsync { age: 0 });
        hub.profile_rows()
    };
    let rows = run();
    assert!(!rows.is_empty(), "profiler recorded nothing");
    assert!(
        rows.iter().any(|r| r.phase == "compute"),
        "no compute samples: {rows:?}"
    );
    assert!(
        rows.iter()
            .any(|r| r.phase == "Global_Read" && !r.detail.is_empty()),
        "blocked samples not attributed to a location: {rows:?}"
    );
    assert_eq!(
        format!("{rows:?}"),
        format!("{:?}", run()),
        "same seed must produce identical profile rows"
    );
}

/// A blocked `Global_Read` is billed to the process that blocked. On the
/// loaded network the loader daemons spawn before the islands, so an
/// island's scheduler pid is not its DSM rank: keying the annotation by
/// rank billed island0's wait to a loader and left the last islands with
/// raw `blocked` rows and no `Global_Read` row at all.
#[test]
fn blocked_reads_are_billed_to_the_reading_island() {
    let hub = Hub::new();
    hub.profile_every(100_000);
    let exp = GaExperiment {
        generations: 30,
        runs: 1,
        platform: Platform::loaded_ethernet(4, 2.0),
        obs: Some(hub.clone()),
        modes: vec![Coherence::PartialAsync { age: 0 }],
        ..GaExperiment::new(TestFn::F6Rastrigin, 4)
    };
    run_ga_experiment(&exp).expect("the loaded run completes");
    let islands: Vec<(u32, String)> = hub
        .proc_names()
        .into_iter()
        .filter(|(_, name)| name.starts_with("island"))
        .collect();
    assert_eq!(islands.len(), 4, "{islands:?}");
    assert!(
        islands
            .iter()
            .any(|(pid, name)| name != &format!("island{pid}")),
        "every island spawned at its rank's pid: {islands:?}"
    );
    let rows = hub.profile_rows();
    for (pid, name) in &islands {
        let own = name.replace("island", "best");
        let reads: Vec<_> = rows
            .iter()
            .filter(|r| r.proc == *name && r.phase == "Global_Read")
            .collect();
        assert!(!reads.is_empty(), "{name} (pid {pid}): no Global_Read row");
        for r in reads {
            assert_ne!(
                r.detail, own,
                "{name} (pid {pid}) billed for its own location"
            );
        }
    }
}

/// Profile rows are keyed by process name, so a hub that sees several
/// runs bills each island's samples to that island even when another run
/// gave its pid to a different process. The first run spawns the islands
/// at pids 0–3; the second spawns the loader daemons first, which moves
/// every island to another pid. Keyed by pid, island2's reads of best0 in
/// the first run were billed under the name island0 last registered for
/// pid 2.
#[test]
fn profile_rows_follow_the_process_across_runs() {
    let hub = Hub::new();
    hub.profile_every(100_000);
    for platform in [
        Platform::paper_ethernet(4),
        Platform::loaded_ethernet(4, 2.0),
    ] {
        let exp = GaExperiment {
            generations: 30,
            runs: 1,
            platform,
            obs: Some(hub.clone()),
            modes: vec![Coherence::PartialAsync { age: 0 }],
            ..GaExperiment::new(TestFn::F6Rastrigin, 4)
        };
        run_ga_experiment(&exp).expect("the run completes");
    }
    let rows = hub.profile_rows();
    for i in 0..4 {
        let (name, own) = (format!("island{i}"), format!("best{i}"));
        let reads: Vec<_> = rows
            .iter()
            .filter(|r| r.proc == name && r.phase == "Global_Read")
            .collect();
        assert!(!reads.is_empty(), "{name}: no Global_Read row: {rows:?}");
        for r in reads {
            assert_ne!(r.detail, own, "{name} billed for reading its own location");
        }
    }
    // Every row names a process the hub registered.
    let names = hub.proc_names();
    for r in &rows {
        assert!(
            names.values().any(|n| *n == r.proc),
            "unknown process in {r:?}"
        );
    }
}

/// The analyzer mirrors the writer's schema constants (it is
/// dependency-free by design, so it cannot import them). If this fails,
/// bump `nscc_analyze::SCHEMA_VERSION` / `nscc_analyze::FEED_VERSION`
/// alongside the obs ones.
#[test]
fn analyzer_schema_version_tracks_obs() {
    assert_eq!(
        nscc::analyze::SCHEMA_VERSION,
        u64::from(nscc::obs::SCHEMA_VERSION)
    );
    assert_eq!(
        nscc::analyze::FEED_VERSION,
        u64::from(nscc::obs::FEED_VERSION)
    );
}

/// Writer → reader: a string with every byte class the writer's escaper
/// tells apart — plain ASCII, `"` and `\`, the five short escapes, the
/// other control bytes (as `\u00XX`), DEL, and two-, three- and four-byte
/// UTF-8 — comes back from `nscc_ckpt::json::parse` unchanged, as a
/// value and as an object key, with each class first, last and doubled.
#[test]
fn escaped_strings_survive_the_analyzer() {
    use nscc::analyze::json::{parse, Json};
    use std::collections::BTreeMap;

    let mut classes: Vec<String> = vec!["plain text ~".into(), "\u{7F}".into()];
    classes.extend(["é", "❄", "😀", "\"", "\\", "/"].map(String::from));
    classes.extend((0u8..0x20).map(|b| char::from(b).to_string()));
    let mut samples = vec![String::new(), classes.concat()];
    for c in &classes {
        samples.push(c.clone());
        samples.push(format!("{c}{c}"));
        samples.push(format!("{c}mid{c}"));
        samples.push(format!("aé{c}😀z"));
    }
    for s in &samples {
        let text = json::to_json(s);
        assert_eq!(parse(&text), Ok(Json::Str(s.clone())), "{s:?} → {text}");
    }
    let by_key: BTreeMap<String, String> = samples.iter().map(|s| (s.clone(), s.clone())).collect();
    let doc = parse(&json::to_json(&by_key)).expect("the writer emits valid JSON");
    let members = doc.as_obj().expect("a map serialises as an object");
    assert_eq!(members.len(), by_key.len());
    for ((k, v), (want_k, want_v)) in members.iter().zip(&by_key) {
        assert_eq!(&**k, want_k);
        assert_eq!(v.as_str(), Some(want_v.as_str()));
    }
}
