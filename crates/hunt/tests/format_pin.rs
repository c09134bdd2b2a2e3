//! Byte pins of the two persisted config formats: fault plans and hunt
//! repros. A round trip only shows that a writer and a reader agree with
//! each other; these pins hold the written bytes themselves, so a codec
//! rewrite must reproduce them exactly.
//!
//! `rich_plan()` fills every plan section (a link override, a degraded
//! window, both crash kinds, a stall, a partition) with whole and
//! non-whole probabilities, and `rich_repro()` carries it. The corpus pin
//! digests the repro of every scenario `generate(7, t, …)` draws for `t`
//! in `0..64`.

use nscc_bench::headless::HeadlessSpec;
use nscc_core::FaultPlan;
use nscc_hunt::{generate, Envelope, Finding, Repro, Verdict};
use nscc_sim::SimTime;

/// Every plan section, written by the builder only.
fn rich_plan() -> FaultPlan {
    // A link override with every link-fault key set: the base faults of
    // another plan, as `effective` reports them.
    let link = FaultPlan::new(0)
        .loss(0.75)
        .duplication(0.125)
        .delay(0.3, SimTime::from_micros(1500))
        .effective(0, 1, SimTime::ZERO);
    FaultPlan::new(u64::MAX - 3)
        .loss(0.01)
        .duplication(0.002)
        .delay(0.05, SimTime::from_millis(5))
        .link(0, 1, link)
        .link(
            2,
            0,
            FaultPlan::new(0).loss(1.0).effective(2, 0, SimTime::ZERO),
        )
        .degrade(
            SimTime::from_secs(1),
            SimTime::from_secs(2),
            0.1 + 0.2,
            SimTime::from_millis(50),
        )
        .crash(2, SimTime::from_secs(10))
        .crash_and_restart(1, SimTime::from_secs(3), SimTime::from_secs(4))
        .stall(3, SimTime::ZERO, SimTime::from_secs(1))
        .partition(SimTime::from_secs(5), SimTime::from_secs(6), [0, 1])
}

/// A must-reproduce repro carrying `rich_plan()` and every optional
/// scenario knob set.
fn rich_repro() -> Repro {
    let scenario = HeadlessSpec {
        inject_stale: 1,
        plan: Some(rich_plan()),
        snapshots: Some(8),
        supervision: true,
        ..HeadlessSpec::quick(u64::MAX - 1)
    };
    let verdict = Verdict {
        findings: vec![
            Finding {
                kind: "audit:staleness".into(),
                detail: "staleness@123 rank=0: stale by 12".into(),
            },
            Finding {
                kind: "fault".into(),
                detail: "tab\tand \\ backslash".into(),
            },
        ],
    };
    Repro::from_finding(scenario, &verdict, "unit fixture \"quoted\"")
}

const RICH_PLAN: &str = r#"{"schema":1,"seed":18446744073709551612,"base":{"drop":0.01,"dup":0.002,"delay_prob":0.05,"delay_max_ns":5000000},"links":[{"src":0,"dst":1,"drop":0.75,"dup":0.125,"delay_prob":0.3,"delay_max_ns":1500000},{"src":2,"dst":0,"drop":1.0,"dup":0.0,"delay_prob":0.0,"delay_max_ns":0}],"degraded":[{"from_ns":1000000000,"until_ns":2000000000,"extra_drop":0.30000000000000004,"extra_delay_ns":50000000}],"crashes":[{"node":2,"at_ns":10000000000,"restart_ns":null},{"node":1,"at_ns":3000000000,"restart_ns":4000000000}],"stalls":[{"node":3,"from_ns":0,"until_ns":1000000000}],"partitions":[{"from_ns":5000000000,"until_ns":6000000000,"group":[0,1]}]}"#;

const RICH_REPRO: &str = concat!(
    r#"{"schema":1,"note":"unit fixture \"quoted\"","scenario":{"procs":4,"generations":40,"runs":1,"seed":18446744073709551614,"age":10,"reliable":{"ack_bytes":32,"base_rto_ns":80000000,"max_retries":5,"max_rto_ns":4000000000},"read_timeout_ns":50000000,"heartbeat_ns":20000000,"watchdog_ns":3600000000000,"inject_stale":1,"snapshots":8,"supervision":true,"plan":{"schema":1,"seed":18446744073709551612,"base":{"drop":0.01,"dup":0.002,"delay_prob":0.05,"delay_max_ns":5000000},"links":[{"src":0,"dst":1,"drop":0.75,"dup":0.125,"delay_prob":0.3,"delay_max_ns":1500000},{"src":2,"dst":0,"drop":1.0,"dup":0.0,"delay_prob":0.0,"delay_max_ns":0}],"degraded":[{"from_ns":1000000000,"until_ns":2000000000,"extra_drop":0.30000000000000004,"extra_delay_ns":50000000}],"crashes":[{"node":2,"at_ns":10000000000,"restart_ns":null},{"node":1,"at_ns":3000000000,"restart_ns":4000000000}],"stalls":[{"node":3,"from_ns":0,"until_ns":1000000000}],"partitions":[{"from_ns":5000000000,"until_ns":6000000000,"group":[0,1]}]}},"expect":{"status":"must-reproduce","digest":"44e00ed727c2b1d1","findings":["audit:staleness: staleness@123 rank=0: stale by 12","fault: tab\tand \\ backslash"]}}"#,
    "\n"
);

#[test]
fn rich_plan_bytes_are_pinned() {
    assert_eq!(rich_plan().to_json(), RICH_PLAN);
}

#[test]
fn rich_repro_bytes_are_pinned() {
    assert_eq!(rich_repro().to_json(), RICH_REPRO);
}

#[test]
fn generated_repro_corpus_is_pinned() {
    let env = Envelope::default();
    let mut corpus = String::new();
    for t in 0..64 {
        let spec = generate(7, t, &env);
        let note = format!("generate(7, {t})");
        corpus.push_str(&Repro::from_finding(spec, &Verdict::default(), &note).to_json());
    }
    // The corpus reaches the plan sections the committed repros do not.
    for section in [
        "\"links\":[{",
        "\"stalls\":[{",
        "\"partitions\":[{",
        "\"crashes\":[{",
    ] {
        assert!(corpus.contains(section), "no scenario writes {section}");
    }
    assert_eq!(
        format!("{:016x}", nscc_ckpt::fnv1a(corpus.as_bytes())),
        "983637c8e4e9b19c"
    );
}
