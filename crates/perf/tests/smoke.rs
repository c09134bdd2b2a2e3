//! Keeps the benchmark alive under `cargo test`: a reduced-size run of
//! all four workloads, twice, plus the agreement of `BENCHMARK.json` with
//! what the binary prints.

use std::path::Path;

use nscc_analyze::json::{parse, Json};
use nscc_perf::metrics::{COUNTERS, END_TO_END};
use nscc_perf::run::{run, RunArgs, RunResult};
use nscc_perf::workloads::{Size, NAMES};

fn smoke(workload: &str, seed: u64) -> RunResult {
    run(&RunArgs {
        workload: workload.to_string(),
        seed,
        seconds: 0.1,
        trace: true,
        size: Size::Smoke,
    })
    .unwrap_or_else(|e| panic!("{workload}: {e}"))
}

fn names(doc: &Json, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// One test on purpose: the runs pin their thread and time themselves, so
/// they must not share the machine with each other.
#[test]
fn every_workload_runs_clean_repeats_exactly_and_matches_benchmark_json() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&manifest).expect("BENCHMARK.json is at the repo root");
    let doc = parse(text.trim()).expect("BENCHMARK.json parses");
    let declared: Vec<String> = names(&doc, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(declared, NAMES, "BENCHMARK.json workloads");

    for workload in NAMES {
        // Two invocations, two different op orders.
        let (a, b) = (smoke(workload, 1), smoke(workload, 2));
        for r in [&a, &b] {
            assert_eq!(r.failed, 0, "{workload}: {:?}", r.failures);
            assert_eq!(r.fail_share(), 0.0);
            assert!(
                r.attempted as usize >= 4 * r.ops,
                "reference, two timed, traced"
            );
            for &(name, _, v) in r.end_to_end.iter().chain(&r.per_layer) {
                assert!(v.is_finite(), "{workload}: {name} = {v}");
            }
            for &(name, _, v) in &r.end_to_end {
                assert!(v > 0.0, "{workload}: {name} must never read 0");
            }
        }
        assert_eq!(
            a.pass_digest, b.pass_digest,
            "{workload}: op digests repeat"
        );
        for (name, _) in COUNTERS {
            let get = |r: &RunResult| r.per_layer.iter().find(|m| m.0 == name).map(|m| m.2);
            assert_eq!(
                get(&a),
                get(&b),
                "{workload}: counter {name} repeats exactly"
            );
        }

        let printed = |ms: &[(&str, &str, f64)]| -> Vec<(String, String)> {
            ms.iter()
                .map(|m| (m.0.to_string(), m.1.to_string()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), printed(&a.end_to_end));
        assert_eq!(names(&doc, "per_layer"), printed(&a.per_layer));
        assert_eq!(a.end_to_end.len(), END_TO_END.len());
    }
}
