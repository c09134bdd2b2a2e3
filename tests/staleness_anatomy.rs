//! Staleness-anatomy integration tests: the conservation contract (every
//! traced read's age decomposes exactly into named stage durations) under
//! arbitrary fault pressure, the tracer-on/tracer-off byte-identity
//! guarantee, the Perfetto write→apply→release flow export, and the
//! golden `nscc anatomy` rendering of a captured fig2 report.

use rand::{for_each_case, Rng};

use nscc::core::RunReport;
use nscc::dsm::{Directory, DsmWorld};
use nscc::faults::{FaultPlan, FaultyMedium};
use nscc::msg::{MsgConfig, ReliableConfig};
use nscc::net::{EthernetBus, Network};
use nscc::obs::Hub;
use nscc::sim::{SimBuilder, SimTime};

/// All-to-all read/write over a (possibly faulty) Ethernet with the
/// reliable layer on, a read timeout bounding every wait, and the given
/// hub observing every layer. Returns the network handle so callers can
/// read fault counters.
fn traced_run(
    hub: Hub,
    seed: u64,
    ranks: usize,
    iters: u64,
    age: u64,
    (loss, dup, delay): (f64, f64, f64),
) -> Network {
    let plan = FaultPlan::new(seed)
        .loss(loss)
        .duplication(dup)
        .delay(delay, SimTime::from_millis(5));
    let net = Network::new(FaultyMedium::new(EthernetBus::ten_mbps(seed), plan));
    let cfg = MsgConfig {
        reliable: Some(ReliableConfig::default()),
        ..MsgConfig::default()
    };
    let mut dir = Directory::new();
    let locs = dir.add_per_rank("v", ranks);
    let mut world: DsmWorld<u64> = DsmWorld::new(net.clone(), ranks, cfg, dir)
        .with_read_timeout(SimTime::from_millis(30))
        .with_obs(hub);
    for &l in &locs {
        world.set_initial(l, 0);
    }
    let mut sim = SimBuilder::new(seed);
    for r in 0..ranks {
        let mut node = world.node(r);
        let locs = locs.clone();
        sim.spawn(format!("rank{r}"), move |ctx| {
            for iter in 1..=iters {
                ctx.advance(SimTime::from_micros(400 + 130 * r as u64));
                node.write(ctx, locs[r], iter, iter);
                for (q, &l) in locs.iter().enumerate() {
                    if q != r {
                        let _ = node.global_read_ex(ctx, l, iter, age);
                    }
                }
            }
            if r == 0 {
                // Quiescent tail: let the longest retransmit backoff chain
                // resolve before the run ends.
                ctx.advance(SimTime::from_secs(1));
            }
        });
    }
    sim.run().expect("traced run completes");
    net
}

/// The tentpole invariant, chaos-tested: whatever the fault plan does
/// to the wire — drops forcing retransmits, duplicates forcing dedup,
/// injected delays — every traced release's stage durations sum
/// exactly to its observed age. Conservation is checked per release
/// inside the hub; a single leaked nanosecond shows up here.
#[test]
fn stage_sums_equal_observed_age_under_any_fault_plan() {
    for_each_case(12, |case| {
        let seed = case.gen_range(0u64..500);
        let ranks = case.gen_range(2usize..=3);
        let iters = case.gen_range(6u64..=12);
        let age = case.gen_range(0u64..=4);
        let loss = case.gen_range(0.0f64..0.25);
        let dup = case.gen_range(0.0f64..0.15);
        let delay = case.gen_range(0.0f64..0.20);
        let hub = Hub::new();
        hub.enable_staleness();
        traced_run(hub.clone(), seed, ranks, iters, age, (loss, dup, delay));
        let s = hub.staleness_summary();
        assert_eq!(
            s.conservation_checked, s.released,
            "every traced release must be conservation-checked"
        );
        assert_eq!(
            s.conservation_violations, 0,
            "stage sums must equal observed ages exactly (released {})",
            s.released
        );
        // The decomposition is complete, not just per-release: the global
        // stage histograms account for every nanosecond of observed age.
        let st = &s.stages;
        let stage_total = st.wait_ns.sum()
            + st.publish_ns.sum()
            + st.transit_ns.sum()
            + st.fault_ns.sum()
            + st.retrans_ns.sum()
            + st.queue_ns.sum()
            + st.apply_ns.sum();
        assert_eq!(stage_total, s.age_ns.sum(), "aggregate conservation");
    });
}

/// The byte-identity discipline (the same contract the audit and
/// recovery sections hold): arming the hop tracer must not perturb the
/// run it is tracing. The rendered reports agree byte-for-byte
/// outside the `staleness` section, for any seed and fault mix.
#[test]
fn tracer_on_reports_are_byte_identical_outside_staleness() {
    for_each_case(12, |case| {
        let seed = case.gen_range(1u64..5000);
        let loss = case.gen_range(0.0f64..0.15);
        let dup = case.gen_range(0.0f64..0.10);
        let render = |traced: bool| -> String {
            let hub = Hub::new();
            if traced {
                hub.enable_staleness();
            }
            traced_run(hub.clone(), seed, 3, 8, 1, (loss, dup, 0.0));
            let mut rep = RunReport::new("anatomy_det", &hub);
            if traced {
                rep.staleness = Some(hub.staleness_summary());
            }
            rep.to_json()
        };
        let on = render(true);
        let off = render(false);
        // `staleness` is the report's last field; cut both at its key and
        // the prefixes must match to the byte.
        let cut = |s: &str| {
            let at = s
                .rfind(",\"staleness\":")
                .expect("report carries a staleness key");
            s[..at].to_string()
        };
        assert_eq!(
            cut(&on),
            cut(&off),
            "the tracer perturbed the run it was tracing"
        );
        assert!(off.ends_with("\"staleness\":null}"), "{}", off);
        assert!(on.contains("\"staleness\":{"), "{}", on);
    });
}

/// The fault-free anchor for the properties above: a lossless age=0 run
/// must actually block and trace (the readers outrun the staggered
/// writers), so conservation is exercised, not vacuously passed — and the
/// same seed reproduces the same anatomy byte for byte.
#[test]
fn traced_releases_are_recorded_and_deterministic() {
    let run = || {
        let hub = Hub::new();
        hub.enable_staleness();
        traced_run(hub.clone(), 11, 3, 10, 0, (0.0, 0.0, 0.0));
        hub.staleness_summary()
    };
    let s = run();
    assert!(
        s.released > 0,
        "age=0 run never blocked — anatomy is vacuous"
    );
    assert_eq!(s.conservation_checked, s.released);
    assert_eq!(s.conservation_violations, 0);
    assert!(s.flows_kept > 0, "no flow records kept for Perfetto export");
    let again = run();
    assert_eq!(
        format!("{s:?}"),
        format!("{again:?}"),
        "same seed must produce identical anatomy"
    );
}

/// Retransmit coverage for the conservation contract: find a seed whose
/// lossy run demonstrably dropped and retransmitted frames while blocked
/// reads were traced, then hold the invariant there. The seed search makes
/// the test robust to RNG stream differences across rand versions.
#[test]
fn conservation_survives_retransmitted_provenance() {
    let mut exercised = false;
    for seed in 0..50u64 {
        let hub = Hub::new();
        hub.enable_staleness();
        let net = traced_run(hub.clone(), seed, 3, 10, 1, (0.20, 0.05, 0.0));
        let s = hub.staleness_summary();
        assert_eq!(
            s.conservation_violations, 0,
            "seed {seed}: retransmitted provenance leaked the decomposition"
        );
        if net.stats().dropped > 0 && s.released > 0 {
            exercised = true;
            break;
        }
    }
    assert!(
        exercised,
        "no seed in 0..50 produced both dropped frames and traced releases"
    );
}

/// The Perfetto export carries write→apply→release flow events binding
/// the existing spans: one `ph:"s"` (writer publish), one `ph:"t"`
/// (receiver apply) and one `ph:"f"` (reader release) per kept flow, all
/// under the `staleness` category — and a tracer-off export carries none.
#[test]
fn perfetto_export_links_write_apply_release_flows() {
    let run = |traced: bool| {
        let hub = Hub::new();
        if traced {
            hub.enable_staleness();
        }
        traced_run(hub.clone(), 7, 3, 10, 1, (0.0, 0.0, 0.0));
        hub
    };

    let hub = run(true);
    let trace = hub.perfetto();
    nscc_ckpt::json::parse(&trace).expect("Perfetto JSON validates");
    let count = |needle: &str| trace.matches(needle).count();
    let flows = hub.staleness_flows();
    assert!(!flows.is_empty(), "traced run kept no flow records");
    assert_eq!(
        count("\"ph\":\"s\""),
        flows.len(),
        "one flow-start per flow"
    );
    assert_eq!(count("\"ph\":\"t\""), flows.len(), "one flow-step per flow");
    assert_eq!(count("\"ph\":\"f\""), flows.len(), "one flow-end per flow");
    assert_eq!(
        count("\"cat\":\"staleness\""),
        3 * flows.len(),
        "flow events carry the staleness category"
    );
    // Flow timestamps telescope: publish ≤ apply ≤ release.
    for f in &flows {
        assert!(f.write_ns <= f.recv_ns, "{f:?}");
        assert!(f.recv_ns <= f.release_ns, "{f:?}");
    }

    let off = run(false).perfetto();
    nscc_ckpt::json::parse(&off).expect("tracer-off Perfetto JSON validates");
    assert_eq!(
        off.matches("\"cat\":\"staleness\"").count(),
        0,
        "tracer-off export must carry no flow events"
    );
}

/// Golden rendering: `nscc anatomy` on a captured fig2 report (committed
/// fixture, `NSCC_STALENESS=1 NSCC_MODES=age=5 NSCC_RUNS=1` with
/// `NSCC_GENS` unset, i.e. the default 120 generations the fixture's
/// `params` record). The first output line carries the load path, so
/// the golden file pins everything after it: conservation verdict,
/// observed-age quantiles, the ranked stage table and the top
/// location/link tables with their guilty stages.
#[test]
fn anatomy_rendering_of_a_captured_fig2_report_matches_the_golden() {
    let rep =
        nscc::analyze::Report::load(std::path::Path::new("tests/fixtures/fig2_staleness.json"))
            .expect("committed fixture parses");
    let (text, violations) = nscc::analyze::anatomy(&rep);
    assert_eq!(violations, 0, "the captured run leaked its decomposition");
    let body = text
        .split_once('\n')
        .expect("anatomy output has a header line")
        .1;
    let golden = include_str!("fixtures/fig2_anatomy.golden");
    assert_eq!(
        body, golden,
        "anatomy rendering drifted from the golden fixture; if the change \
         is intentional, regenerate tests/fixtures/fig2_anatomy.golden"
    );
    // Rendering is a pure function of the report: byte-stable on re-run.
    assert_eq!(text, nscc::analyze::anatomy(&rep).0);
}
