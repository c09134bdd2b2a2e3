//! `nscc anatomy`: where did every nanosecond of staleness go?
//!
//! `nscc run <experiment> --staleness` arms the hop tracer: each DSM
//! update's provenance is stamped at every layer crossing, and on every
//! read release the observed age decomposes exactly into seven named
//! stage durations (`wait`, `publish`, `transit`, `fault`, `retrans`,
//! `queue`, `apply` — see the writer-side `StageSet`). The per-stage
//! log₂ histograms land in the report's `staleness` section, aggregated
//! overall, by location and by writer→reader link. This command renders
//! that section: the observed-age distribution, the stage breakdown
//! ranked by total time (the top row *is* the guilty stage), and the
//! top offending locations and links with their dominant stage.
//!
//! Output is deterministic and golden-tested; the conservation counters
//! are surfaced so a decomposition leak (stage sum ≠ observed age) is
//! impossible to miss.

use nscc_ckpt::Histogram;

use crate::fmt::{brief, ns, num, table};
use crate::json::Json;
use crate::report::Report;

/// Stage names in conservation order (must match the writer's
/// `StageSet::named`).
const STAGES: [&str; 7] = [
    "wait", "publish", "transit", "fault", "retrans", "queue", "apply",
];

/// Rows shown in the top-locations / top-links tables.
const TOP: usize = 5;

/// One parsed stage: its name and histogram.
struct Stage {
    name: &'static str,
    hist: Histogram,
}

/// Parse a serialized `StageSet` object into the stages that recorded
/// anything, in conservation order. The writer serializes each stage
/// histogram under `<name>_ns` (matching `age_ns` and the report's other
/// duration keys); the display name drops the suffix.
fn stages_of(v: &Json) -> Vec<Stage> {
    STAGES
        .iter()
        .filter_map(|&name| {
            let hist = v
                .get(&format!("{name}_ns"))
                .and_then(Histogram::from_json)?;
            Some(Stage { name, hist })
        })
        .collect()
}

/// The dominant stage of a stage set: largest total time, earliest
/// conservation-order stage on ties. `None` when nothing was recorded.
fn guilty(stages: &[Stage]) -> Option<(&'static str, u64)> {
    stages
        .iter()
        .map(|s| (s.name, s.hist.sum()))
        .max_by_key(|&(name, sum)| {
            (
                sum,
                std::cmp::Reverse(STAGES.iter().position(|&n| n == name)),
            )
        })
        .filter(|&(_, sum)| sum > 0)
}

/// `share` as a percentage string (`43.1%`), safe for zero totals.
fn pct(part: u64, whole: u64) -> String {
    if whole == 0 {
        "0.0%".to_string()
    } else {
        format!("{:.1}%", part as f64 / whole as f64 * 100.0)
    }
}

/// Render the staleness anatomy of one report. Returns the text and the
/// conservation-violation count (so the CLI can exit nonzero when the
/// decomposition leaked).
pub fn anatomy(rep: &Report) -> (String, u64) {
    let mut out = format!("anatomy {} ({})\n", rep.name(), rep.path.display());
    let section = match rep.root.get("staleness") {
        Some(s) if !matches!(s, Json::Null) => s,
        _ => {
            out.push_str("  no staleness section — rerun with --staleness to arm the hop tracer\n");
            return (out, 0);
        }
    };

    let g = |k: &str| section.get(k).and_then(Json::as_u64).unwrap_or(0);
    let released = g("released");
    let violations = g("conservation_violations");
    out.push_str(&format!(
        "  traced releases: {} (flows kept {}, dropped {})\n",
        num(released as f64),
        num(g("flows_kept") as f64),
        num(g("flows_dropped") as f64),
    ));
    if violations == 0 {
        out.push_str(&format!(
            "  conservation: {} decompositions checked, all stage sums equal the observed age\n",
            num(g("conservation_checked") as f64)
        ));
    } else {
        out.push_str(&format!(
            "  CONSERVATION LEAK: {} of {} decompositions do not sum to the observed age — \
             a hop stamp is wrong or missing; see the audit `conservation` monitor\n",
            num(violations as f64),
            num(g("conservation_checked") as f64),
        ));
    }
    if released == 0 {
        out.push_str("  (no blocked read released while the tracer was armed)\n");
        return (out, violations);
    }
    if let Some(age) = section.get("age_ns").and_then(Histogram::from_json) {
        out.push_str(&format!("  observed age (ns): {}\n", brief(&age)));
    }

    // The stage breakdown, ranked by total time: the top row is where
    // the age went.
    let stages = section.get("stages").map(stages_of).unwrap_or_default();
    let total: u64 = stages.iter().map(|s| s.hist.sum()).sum();
    let mut ranked: Vec<&Stage> = stages.iter().collect();
    ranked.sort_by_key(|s| {
        (
            std::cmp::Reverse(s.hist.sum()),
            STAGES.iter().position(|&n| n == s.name),
        )
    });
    out.push_str("\nstage breakdown (ranked by total time):\n");
    let mut rows = vec![vec![
        "stage".to_string(),
        "total".to_string(),
        "share".to_string(),
        "p50".to_string(),
        "p90".to_string(),
        "p99".to_string(),
        "max".to_string(),
    ]];
    for s in &ranked {
        rows.push(vec![
            s.name.to_string(),
            ns(s.hist.sum()),
            pct(s.hist.sum(), total),
            ns(s.hist.quantile(0.50)),
            ns(s.hist.quantile(0.90)),
            ns(s.hist.quantile(0.99)),
            ns(s.hist.max()),
        ]);
    }
    out.push_str(&table(&rows));

    // Top offenders: which locations and links carry the most traced age.
    for (key, title) in [
        ("by_loc", "top locations by traced age"),
        ("by_link", "top links by traced age"),
    ] {
        let Some(items) = section.get(key).and_then(Json::as_arr) else {
            continue;
        };
        if items.is_empty() {
            continue;
        }
        let mut entries: Vec<(String, Vec<Stage>, u64)> = items
            .iter()
            .filter_map(|row| {
                let label = if key == "by_loc" {
                    format!("loc {}", num(row.get("loc").and_then(Json::as_f64)?))
                } else {
                    format!(
                        "{}->{}",
                        num(row.get("writer").and_then(Json::as_f64)?),
                        num(row.get("reader").and_then(Json::as_f64)?),
                    )
                };
                let stages = row.get("stages").map(stages_of)?;
                let sum = stages.iter().map(|s| s.hist.sum()).sum();
                Some((label, stages, sum))
            })
            .collect();
        entries.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
        out.push_str(&format!("\n{title}:\n"));
        let mut rows = vec![vec![
            String::new(),
            "total".to_string(),
            "share".to_string(),
            "releases".to_string(),
            "guilty stage".to_string(),
        ]];
        for (label, stages, sum) in entries.iter().take(TOP) {
            let released: u64 = stages
                .iter()
                .find(|s| s.name == "apply")
                .map_or(0, |s| s.hist.count());
            let guilty_cell = match guilty(stages) {
                Some((name, gsum)) => format!("{name} ({})", pct(gsum, *sum)),
                None => "-".to_string(),
            };
            rows.push(vec![
                label.clone(),
                ns(*sum),
                pct(*sum, total),
                num(released as f64),
                guilty_cell,
            ]);
        }
        out.push_str(&table(&rows));
        if entries.len() > TOP {
            out.push_str(&format!("  … {} more\n", entries.len() - TOP));
        }
    }
    (out, violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::from_text;

    fn report(doc: &str) -> Report {
        from_text("BENCH_t.json", doc)
    }

    fn hist(count: u64, sum: u64, max: u64) -> String {
        format!(
            r#"{{"count":{count},"sum":{sum},"min":0,"max":{max},"mean":0.0,
                "p50":0,"p99":0,"buckets":[[{},{count}]]}}"#,
            max.next_power_of_two().saturating_sub(1).max(1)
        )
    }

    fn stage_set(sums: [u64; 7]) -> String {
        let parts: Vec<String> = STAGES
            .iter()
            .zip(sums)
            .map(|(name, sum)| format!(r#""{name}_ns":{}"#, hist(2, sum, sum.max(1))))
            .collect();
        format!("{{{}}}", parts.join(","))
    }

    #[test]
    fn untraced_report_points_at_the_env_var() {
        let rep = report(r#"{"schema_version":7,"name":"t","metrics":{},"staleness":null}"#);
        let (text, violations) = anatomy(&rep);
        assert_eq!(violations, 0);
        assert!(text.contains("rerun with --staleness"), "{text}");
    }

    #[test]
    fn stage_table_ranks_by_total_and_names_the_guilty_stage() {
        let doc = format!(
            r#"{{"schema_version":7,"name":"t","metrics":{{}},"staleness":{{
                "released":2,"conservation_checked":2,"conservation_violations":0,
                "flows_kept":2,"flows_dropped":0,
                "age_ns":{},
                "stages":{},
                "by_loc":[{{"loc":3,"stages":{}}}],
                "by_link":[{{"writer":0,"reader":1,"stages":{}}}]}}}}"#,
            hist(2, 10_000, 6_000),
            stage_set([100, 200, 6_000, 1_000, 400, 1_300, 1_000]),
            stage_set([100, 200, 6_000, 1_000, 400, 1_300, 1_000]),
            stage_set([100, 200, 6_000, 1_000, 400, 1_300, 1_000]),
        );
        let (text, violations) = anatomy(&report(&doc));
        assert_eq!(violations, 0);
        assert!(text.contains("traced releases: 2"), "{text}");
        assert!(
            text.contains("all stage sums equal the observed age"),
            "{text}"
        );
        // transit (6000ns of the 10000ns total) must rank first at 60%.
        let transit_at = text.find("transit").expect("transit row");
        let queue_at = text.find("queue").expect("queue row");
        assert!(transit_at < queue_at, "{text}");
        assert!(text.contains("60.0%"), "{text}");
        assert!(text.contains("top locations by traced age"), "{text}");
        assert!(text.contains("loc 3"), "{text}");
        assert!(text.contains("0->1"), "{text}");
        assert!(text.contains("transit (60.0%)"), "{text}");
        // Deterministic output: same input renders the same bytes.
        assert_eq!(text, anatomy(&report(&doc)).0);
    }

    #[test]
    fn conservation_leak_is_loud_and_nonzero() {
        let doc = format!(
            r#"{{"schema_version":7,"name":"t","metrics":{{}},"staleness":{{
                "released":5,"conservation_checked":5,"conservation_violations":2,
                "flows_kept":5,"flows_dropped":0,
                "age_ns":{},"stages":{},"by_loc":[],"by_link":[]}}}}"#,
            hist(5, 50_000, 20_000),
            stage_set([0, 0, 40_000, 0, 0, 0, 10_000]),
        );
        let (text, violations) = anatomy(&report(&doc));
        assert_eq!(violations, 2);
        assert!(text.contains("CONSERVATION LEAK: 2 of 5"), "{text}");
    }

    #[test]
    fn armed_but_idle_tracer_renders_cleanly() {
        let rep = report(
            r#"{"schema_version":7,"name":"t","metrics":{},"staleness":{
                "released":0,"conservation_checked":0,"conservation_violations":0,
                "flows_kept":0,"flows_dropped":0,
                "age_ns":{"count":0,"sum":0,"min":0,"max":0,"mean":0.0,"buckets":[]},
                "stages":{},"by_loc":[],"by_link":[]}}"#,
        );
        let (text, violations) = anatomy(&rep);
        assert_eq!(violations, 0);
        assert!(text.contains("no blocked read released"), "{text}");
    }
}
