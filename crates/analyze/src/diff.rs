//! `nscc diff`: structured comparison of two run reports.
//!
//! Emits, in a pinned plain-text format (golden-tested below):
//! parameters, every headline metric, every scalar counter, the
//! staleness/block/delay distribution percentiles (p50/p90/p99
//! recomputed from the serialized buckets), and the aligned
//! snapshot-series convergence curve. Keys present on only one side are
//! shown as `(missing)` rather than dropped — a vanished metric is
//! usually the most interesting delta in the file.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use nscc_ckpt::Histogram;

use crate::fmt::{ns, num};
use crate::json::Json;
use crate::report::Report;

/// Render the full diff of `a` (old) vs `b` (new).
pub fn diff(a: &Report, b: &Report) -> String {
    let mut out = format!("diff {} -> {}\n", a.path.display(), b.path.display());
    if a.name() == b.name() {
        out.push_str(&format!("name: {}\n", a.name()));
    } else {
        out.push_str(&format!("name: {} -> {}\n", a.name(), b.name()));
    }

    out.push_str(&full_section(
        "params",
        &a.numeric_map("params"),
        &b.numeric_map("params"),
    ));
    out.push_str(&full_section(
        "metrics",
        &a.numeric_map("metrics"),
        &b.numeric_map("metrics"),
    ));
    out.push_str(&counters_section(&counters(a), &counters(b)));

    for (key, unit) in [
        ("staleness", "iterations"),
        ("block_ns", "ns"),
        ("net_delay_ns", "ns"),
    ] {
        let h = |r: &Report| {
            r.root
                .get("obs")
                .and_then(|o| o.get(key))
                .and_then(Histogram::from_json)
        };
        if let (Some(ha), Some(hb)) = (h(a), h(b)) {
            out.push_str(&hist_section(key, unit, &ha, &hb));
        }
    }

    out.push_str(&convergence_section(a, b));
    out
}

/// One `old -> new` cell: plain value when unchanged, arrow with a
/// relative delta otherwise, `(missing)` for an absent side.
fn delta_cell(old: Option<f64>, new: Option<f64>) -> String {
    match (old, new) {
        (Some(o), Some(n)) if o == n => num(o),
        (Some(o), Some(n)) => {
            let pct = if o != 0.0 {
                format!(" ({:+.1}%)", (n - o) / o.abs() * 100.0)
            } else {
                String::new()
            };
            format!("{} -> {}{pct}", num(o), num(n))
        }
        (Some(o), None) => format!("{} -> (missing)", num(o)),
        (None, Some(n)) => format!("(missing) -> {}", num(n)),
        (None, None) => String::new(),
    }
}

/// A section listing every key of the union (params, metrics).
fn full_section(title: &str, a: &BTreeMap<String, f64>, b: &BTreeMap<String, f64>) -> String {
    if a.is_empty() && b.is_empty() {
        return String::new();
    }
    let keys: BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    let mut out = format!("\n{title}:\n");
    for k in keys {
        out.push_str(&format!(
            "  {k}: {}\n",
            delta_cell(a.get(k).copied(), b.get(k).copied())
        ));
    }
    out
}

/// Every numeric scalar outside params/metrics (dsm/net/comm/obs counters
/// and histogram stats).
fn counters(r: &Report) -> BTreeMap<String, f64> {
    r.flatten()
        .into_iter()
        .filter(|(k, _)| {
            !k.starts_with("params.") && !k.starts_with("metrics.") && k != "schema_version"
        })
        .collect()
}

/// The counters section lists only changed keys (reports carry dozens of
/// identical counters between deterministic runs) plus an unchanged tally.
fn counters_section(a: &BTreeMap<String, f64>, b: &BTreeMap<String, f64>) -> String {
    if a.is_empty() && b.is_empty() {
        return String::new();
    }
    let keys: BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    let mut out = String::from("\ncounters:\n");
    let mut unchanged = 0usize;
    for k in keys {
        let (old, new) = (a.get(k).copied(), b.get(k).copied());
        if old == new {
            unchanged += 1;
            continue;
        }
        out.push_str(&format!("  {k}: {}\n", delta_cell(old, new)));
    }
    if unchanged > 0 {
        out.push_str(&format!("  ({unchanged} unchanged)\n"));
    }
    out
}

fn hist_section(key: &str, unit: &str, a: &Histogram, b: &Histogram) -> String {
    let mut out = format!("\n{key} ({unit}):\n");
    let rows: [(&str, f64, f64); 6] = [
        ("count", a.count() as f64, b.count() as f64),
        ("mean", a.mean(), b.mean()),
        ("p50", a.quantile(0.50) as f64, b.quantile(0.50) as f64),
        ("p90", a.quantile(0.90) as f64, b.quantile(0.90) as f64),
        ("p99", a.quantile(0.99) as f64, b.quantile(0.99) as f64),
        ("max", a.max() as f64, b.max() as f64),
    ];
    for (label, old, new) in rows {
        out.push_str(&format!(
            "  {label}: {}\n",
            delta_cell(Some(old), Some(new))
        ));
    }
    out
}

/// The convergence-vs-virtual-time curve: the two snapshot series aligned
/// by index, downsampled to at most 8 rows.
fn convergence_section(a: &Report, b: &Report) -> String {
    let snaps = |r: &Report| -> Vec<Json> {
        r.root
            .get("obs")
            .and_then(|o| o.get("snapshots"))
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default()
    };
    let (sa, sb) = (snaps(a), snaps(b));
    match (sa.is_empty(), sb.is_empty()) {
        (true, true) => return String::new(),
        (false, true) => {
            return format!(
                "\nconvergence: snapshot series only in {}\n",
                a.path.display()
            )
        }
        (true, false) => {
            return format!(
                "\nconvergence: snapshot series only in {}\n",
                b.path.display()
            )
        }
        (false, false) => {}
    }
    let n = sa.len().min(sb.len());
    let step = n.div_ceil(8).max(1);
    let g = |s: &Json, k: &str| s.get(k).and_then(Json::as_u64).unwrap_or(0);
    let mut out = format!(
        "\nconvergence ({} aligned samples; reads and total block time, cumulative):\n",
        n
    );
    out.push_str("  t | a_reads b_reads | a_block b_block\n");
    // Sample the grid, always including the final state.
    let mut indices: Vec<usize> = (0..n).step_by(step).collect();
    if indices.last() != Some(&(n - 1)) {
        indices.push(n - 1);
    }
    for i in indices {
        let (ra, rb) = (&sa[i], &sb[i]);
        out.push_str(&format!(
            "  {} | {} {} | {} {}\n",
            ns(g(ra, "t_ns")),
            g(ra, "reads"),
            g(rb, "reads"),
            ns(g(ra, "block_ns_total")),
            ns(g(rb, "block_ns_total")),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::from_text;

    fn report(path: &str, doc: &str) -> Report {
        from_text(path, doc)
    }

    /// Golden test: the full diff output format is pinned byte-for-byte.
    /// If you change the format, update this test — it is the contract
    /// downstream tooling (and EXPERIMENTS.md walkthroughs) rely on.
    #[test]
    fn golden_diff_output() {
        let a = report(
            "a.json",
            r#"{"schema_version":2,"name":"ga","params":{"runs":3},
               "metrics":{"p2_age=0":4.0,"p2_sync":2.0,"gone":1.0},
               "obs":{"reads":10,"staleness":{"count":4,"sum":4,"min":0,
                 "max":3,"mean":1.0,"p50":1,"p99":3,"buckets":[[1,3],[3,1]]}}}"#,
        );
        let b = report(
            "b.json",
            r#"{"schema_version":2,"name":"ga","params":{"runs":3},
               "metrics":{"p2_age=0":5.0,"p2_sync":2.0,"added":2.0},
               "obs":{"reads":12,"staleness":{"count":5,"sum":10,"min":0,
                 "max":7,"mean":2.0,"p50":3,"p99":7,"buckets":[[1,2],[3,1],[7,2]]}}}"#,
        );
        let expected = "\
diff a.json -> b.json
name: ga

params:
  runs: 3

metrics:
  added: (missing) -> 2
  gone: 1 -> (missing)
  p2_age=0: 4 -> 5 (+25.0%)
  p2_sync: 2

counters:
  obs.reads: 10 -> 12 (+20.0%)
  obs.staleness.count: 4 -> 5 (+25.0%)
  obs.staleness.max: 3 -> 7 (+133.3%)
  obs.staleness.mean: 1 -> 2 (+100.0%)
  obs.staleness.p50: 1 -> 3 (+200.0%)
  obs.staleness.p99: 3 -> 7 (+133.3%)
  obs.staleness.sum: 4 -> 10 (+150.0%)
  (1 unchanged)

staleness (iterations):
  count: 4 -> 5 (+25.0%)
  mean: 1 -> 2 (+100.0%)
  p50: 1 -> 3 (+200.0%)
  p90: 3 -> 7 (+133.3%)
  p99: 3 -> 7 (+133.3%)
  max: 3 -> 7 (+133.3%)
";
        assert_eq!(diff(&a, &b), expected);
    }

    #[test]
    fn missing_metric_is_reported_not_dropped() {
        let a = report(
            "a.json",
            r#"{"schema_version":2,"name":"x","metrics":{"only_a":1.0}}"#,
        );
        let b = report(
            "b.json",
            r#"{"schema_version":2,"name":"x","metrics":{"only_b":2.0}}"#,
        );
        let text = diff(&a, &b);
        assert!(text.contains("only_a: 1 -> (missing)"));
        assert!(text.contains("only_b: (missing) -> 2"));
    }

    #[test]
    fn convergence_aligns_snapshot_series() {
        let mk = |path: &str, reads: [u64; 3]| {
            let snaps: Vec<String> = reads
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    format!(
                        r#"{{"t_ns":{},"reads":{r},"block_ns_total":{}}}"#,
                        (i as u64 + 1) * 1000,
                        i as u64 * 10
                    )
                })
                .collect();
            report(
                path,
                &format!(
                    r#"{{"schema_version":2,"name":"x","metrics":{{}},
                       "obs":{{"snapshots":[{}]}}}}"#,
                    snaps.join(",")
                ),
            )
        };
        let text = diff(&mk("a.json", [5, 9, 12]), &mk("b.json", [7, 13, 20]));
        assert!(text.contains("convergence (3 aligned samples"));
        assert!(text.contains("1.00us | 5 7 |"));
        assert!(text.contains("3.00us | 12 20 |"));
    }

    /// A v2 report diffed against a v3 report that differs *only* in the
    /// causal-attribution sections (heat/deps/profile/name maps) must show
    /// no deltas: the new sections are arrays and string maps, invisible
    /// to the scalar walk by design, and `schema_version` is excluded from
    /// the counters.
    #[test]
    fn provenance_sections_do_not_pollute_the_diff() {
        let a = report(
            "a.json",
            r#"{"schema_version":2,"name":"ga","metrics":{"speedup":2.0},
               "obs":{"reads":10}}"#,
        );
        let b = report(
            "b.json",
            r#"{"schema_version":3,"name":"ga","metrics":{"speedup":2.0},
               "obs":{"reads":10,
                 "heat":[{"loc":0,"staleness":{"count":1,"sum":2,"min":2,
                   "max":2,"mean":2.0,"p50":2,"p99":2,"buckets":[[3,1]]}}],
                 "deps":[{"reader":1,"loc":0,"writer":0,"blocks":1,
                   "block_ns":500,"queued_ns":0,"inflight_ns":500,
                   "retrans_ns":0,"last_write_iter":3,"last_msg_seq":9}],
                 "profile":[{"pid":0,"phase":"compute","detail":"","samples":8}],
                 "loc_names":{"0":"best"},"proc_names":{"0":"island0"}}}"#,
        );
        let text = diff(&a, &b);
        assert!(text.contains("speedup: 2\n"), "{text}");
        // Skip the `diff a.json -> b.json` header: nothing below it may
        // report a change.
        let body = text.split_once('\n').unwrap().1;
        assert!(!body.contains("->"), "unexpected delta:\n{text}");
        assert!(!body.contains("(missing)"), "unexpected delta:\n{text}");
    }

    #[test]
    fn zero_message_reports_diff_cleanly() {
        let empty_hist = r#"{"count":0,"sum":0,"min":0,"max":0,"mean":0.0,
                            "p50":0,"p99":0,"buckets":[]}"#;
        let doc = format!(
            r#"{{"schema_version":2,"name":"idle","metrics":{{"t":1.0}},
               "obs":{{"messages":0,"net_delay_ns":{empty_hist}}}}}"#
        );
        let a = report("a.json", &doc);
        let b = report("b.json", &doc);
        let text = diff(&a, &b);
        assert!(text.contains("net_delay_ns (ns):"));
        assert!(text.contains("count: 0"));
        assert!(text.contains("(8 unchanged)"));
    }
}
