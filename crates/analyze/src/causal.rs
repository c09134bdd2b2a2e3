//! `nscc heat` and `nscc why`: the read side of the causal-attribution
//! sections a v3 run report carries.
//!
//! * [`heat`] renders the per-location staleness heatmap (`obs.heat`):
//!   one row per DSM location, one column per log₂ age bucket, cell
//!   intensity proportional to how often reads of that location observed
//!   that staleness.
//! * [`why`] walks the aggregated causal dependency edges (`obs.deps`)
//!   and answers the question the raw timeline cannot: *which writer's
//!   update to which location released this process's blocked reads, and
//!   where did the waiting time actually go* (queued for the medium vs in
//!   flight vs added by retransmissions).
//!
//! Both render deterministically (sorted rows, fixed formatting), so
//! their output can be golden-tested.

use std::collections::BTreeMap;

use nscc_ckpt::Histogram;

use crate::fmt::{ns, table};
use crate::json::Json;
use crate::report::Report;

/// One aggregated dependency edge, mirroring the writer-side `DepEdge`.
#[derive(Debug, Clone)]
struct Edge {
    reader: u32,
    loc: u32,
    writer: u32,
    blocks: u64,
    block_ns: u64,
    queued_ns: u64,
    inflight_ns: u64,
    retrans_ns: u64,
    last_write_iter: u64,
    last_msg_seq: u64,
}

fn name_map(rep: &Report, key: &str) -> BTreeMap<u32, String> {
    rep.root
        .get("obs")
        .and_then(|o| o.get(key))
        .and_then(Json::as_obj)
        .map(|members| {
            members
                .iter()
                .filter_map(|(k, v)| Some((k.parse().ok()?, v.as_str()?.to_string())))
                .collect()
        })
        .unwrap_or_default()
}

fn named(names: &BTreeMap<u32, String>, id: u32, fallback: &str) -> String {
    names
        .get(&id)
        .cloned()
        .unwrap_or_else(|| format!("{fallback}{id}"))
}

fn edges(rep: &Report) -> Vec<Edge> {
    let Some(deps) = rep
        .root
        .get("obs")
        .and_then(|o| o.get("deps"))
        .and_then(Json::as_arr)
    else {
        return Vec::new();
    };
    let u = |e: &Json, k: &str| e.get(k).and_then(Json::as_u64).unwrap_or(0);
    deps.iter()
        .map(|e| Edge {
            reader: u(e, "reader") as u32,
            loc: u(e, "loc") as u32,
            writer: u(e, "writer") as u32,
            blocks: u(e, "blocks"),
            block_ns: u(e, "block_ns"),
            queued_ns: u(e, "queued_ns"),
            inflight_ns: u(e, "inflight_ns"),
            retrans_ns: u(e, "retrans_ns"),
            last_write_iter: u(e, "last_write_iter"),
            last_msg_seq: u(e, "last_msg_seq"),
        })
        .collect()
}

// ------------------------------------------------------------------- heat

/// Render the per-location staleness heatmap of a run report.
pub fn heat(rep: &Report) -> String {
    let mut out = format!(
        "staleness heatmap {} (schema v{})\n",
        rep.path.display(),
        rep.schema_version()
    );
    let rows: Vec<(u32, Histogram)> = rep
        .root
        .get("obs")
        .and_then(|o| o.get("heat"))
        .and_then(Json::as_arr)
        .map(|arr| {
            arr.iter()
                .filter_map(|r| {
                    Some((
                        r.get("loc")?.as_u64()? as u32,
                        Histogram::from_json(r.get("staleness")?)?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default();
    if rows.is_empty() {
        out.push_str("no per-location staleness data (pre-v3 report, or a run with no reads)\n");
        return out;
    }
    let loc_names = name_map(rep, "loc_names");

    // Column set: the union of populated log₂ buckets across locations.
    let mut uppers: Vec<u64> = rows
        .iter()
        .flat_map(|(_, h)| h.nonzero_buckets().map(|(u, _)| u))
        .collect();
    uppers.sort_unstable();
    uppers.dedup();

    // Intensity is relative to the hottest cell of each row, so every
    // location's distribution is visible regardless of read volume.
    const SHADES: [char; 5] = ['.', ':', '*', '#', '@'];
    let mut trows = vec![{
        let mut h = vec!["locn".to_string()];
        h.extend(uppers.iter().map(|u| format!("<={u}")));
        h.push("reads".to_string());
        h.push("mean".to_string());
        h.push("p99".to_string());
        h
    }];
    for (loc, hist) in &rows {
        let counts: BTreeMap<u64, u64> = hist.nonzero_buckets().collect();
        let hottest = counts.values().copied().max().unwrap_or(0);
        let mut row = vec![named(&loc_names, *loc, "loc")];
        for u in &uppers {
            let c = counts.get(u).copied().unwrap_or(0);
            row.push(if c == 0 || hottest == 0 {
                " ".to_string()
            } else {
                let idx = (c * SHADES.len() as u64).div_ceil(hottest) as usize;
                SHADES[idx.clamp(1, SHADES.len()) - 1].to_string()
            });
        }
        row.push(hist.count().to_string());
        row.push(format!("{:.1}", hist.mean()));
        row.push(hist.quantile(0.99).to_string());
        trows.push(row);
    }
    out.push_str(&format!(
        "\nobserved staleness (iterations) per location, {} locations\n",
        rows.len()
    ));
    out.push_str(&table(&trows));
    out.push_str(&format!(
        "cell intensity {} = fraction of that location's reads in the bucket\n",
        SHADES.iter().collect::<String>()
    ));
    out
}

// -------------------------------------------------------------------- why

/// Resolve a `--proc` / `--locn` selector: a raw id or a registered name.
fn resolve(sel: &str, names: &BTreeMap<u32, String>, what: &str) -> Result<u32, String> {
    if let Ok(id) = sel.parse::<u32>() {
        return Ok(id);
    }
    names
        .iter()
        .find(|(_, n)| n.as_str() == sel)
        .map(|(id, _)| *id)
        .ok_or_else(|| {
            let known: Vec<&str> = names.values().map(String::as_str).collect();
            format!(
                "unknown {what} `{sel}` (known: {})",
                if known.is_empty() {
                    "none".to_string()
                } else {
                    known.join(", ")
                }
            )
        })
}

/// Walk the causal dependency edges of a run report: for the selected
/// process (default: the one that spent the most virtual time blocked),
/// print its blocking dependencies ranked by blocked time, each naming
/// the releasing writer, location, and last releasing `write_iter`, with
/// the queued / in-flight / retransmit breakdown of the releasing frames.
pub fn why(rep: &Report, proc_sel: Option<&str>, loc_sel: Option<&str>) -> Result<String, String> {
    let mut out = format!(
        "causal read attribution {} (schema v{})\n",
        rep.path.display(),
        rep.schema_version()
    );
    let all = edges(rep);
    if all.is_empty() {
        out.push_str(
            "no causal-dependency data: pre-v3 report, observability detached, \
             or no read ever blocked\n",
        );
        return Ok(out);
    }
    let proc_names = name_map(rep, "proc_names");
    let loc_names = name_map(rep, "loc_names");

    // Per-reader blocked totals (over every edge, pre-filter) give the
    // default selection and the context line.
    let mut totals: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for e in &all {
        let t = totals.entry(e.reader).or_default();
        t.0 += e.blocks;
        t.1 += e.block_ns;
    }
    let reader = match proc_sel {
        Some(sel) => resolve(sel, &proc_names, "process")?,
        None => {
            // Most-blocked process; ties break to the lowest pid (BTreeMap
            // order), keeping the output deterministic.
            *totals
                .iter()
                .max_by_key(|&(pid, &(_, ns))| (ns, u32::MAX - *pid))
                .map(|(pid, _)| pid)
                .expect("edges imply at least one reader")
        }
    };
    let loc_filter = match loc_sel {
        Some(sel) => Some(resolve(sel, &loc_names, "location")?),
        None => None,
    };

    let (blocks, blocked_ns) = totals.get(&reader).copied().unwrap_or((0, 0));
    out.push_str(&format!(
        "{}process: {} (pid {}) — {} blocking reads, {} blocked\n",
        if proc_sel.is_none() {
            "most-blocked "
        } else {
            ""
        },
        named(&proc_names, reader, "pid"),
        reader,
        blocks,
        ns(blocked_ns)
    ));

    let mut mine: Vec<&Edge> = all
        .iter()
        .filter(|e| e.reader == reader && loc_filter.is_none_or(|l| e.loc == l))
        .collect();
    if mine.is_empty() {
        out.push_str("no blocking dependencies match the selection\n");
        return Ok(out);
    }
    // Rank by blocked time; ties break by (loc, writer) for determinism.
    mine.sort_by_key(|e| (u64::MAX - e.block_ns, e.loc, e.writer));

    out.push_str("\nblocking dependencies (by blocked time):\n");
    for (i, e) in mine.iter().enumerate() {
        out.push_str(&format!(
            "  #{} {} <- writer {} (pid {}): {} blocks, {} blocked\n",
            i + 1,
            named(&loc_names, e.loc, "loc"),
            named(&proc_names, e.writer, "pid"),
            e.writer,
            e.blocks,
            ns(e.block_ns)
        ));
        out.push_str(&format!(
            "     releasing frames: queued {} | in-flight {} | retransmit-delayed {}\n",
            ns(e.queued_ns),
            ns(e.inflight_ns),
            ns(e.retrans_ns)
        ));
        // `u64::MAX` is the DSM's retirement sentinel (the writer's final
        // "infinitely fresh" publish), not a real iteration number.
        if e.last_write_iter == u64::MAX {
            out.push_str(&format!(
                "     last release: retirement (writer left), msg_seq {}\n",
                e.last_msg_seq
            ));
        } else {
            out.push_str(&format!(
                "     last release: write_iter {}, msg_seq {}\n",
                e.last_write_iter, e.last_msg_seq
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::write_temp;

    /// A v3 report with two locations, two readers, and one retransmitted
    /// releasing frame — shared by the golden tests below.
    fn sample() -> Report {
        let path = write_temp(
            "v3.json",
            r#"{"schema_version":3,"name":"unit","metrics":{},
                "obs":{
                  "heat":[
                    {"loc":0,"staleness":{"count":10,"sum":12,"min":0,"max":3,
                      "mean":1.2,"p50":1,"p99":3,"buckets":[[0,4],[1,4],[3,2]]}},
                    {"loc":1,"staleness":{"count":2,"sum":8,"min":4,"max":4,
                      "mean":4.0,"p50":4,"p99":4,"buckets":[[7,2]]}}],
                  "deps":[
                    {"reader":2,"loc":0,"writer":0,"blocks":3,"block_ns":1200000,
                     "queued_ns":10000,"inflight_ns":500000,"retrans_ns":0,
                     "last_write_iter":41,"last_msg_seq":1042},
                    {"reader":2,"loc":1,"writer":1,"blocks":1,"block_ns":9000000,
                     "queued_ns":2000,"inflight_ns":800000,"retrans_ns":10000000,
                     "last_write_iter":18446744073709551615,"last_msg_seq":55},
                    {"reader":3,"loc":0,"writer":0,"blocks":1,"block_ns":40000,
                     "queued_ns":0,"inflight_ns":40000,"retrans_ns":0,
                     "last_write_iter":12,"last_msg_seq":90}],
                  "loc_names":{"0":"best","1":"mig1"},
                  "proc_names":{"0":"island0","1":"island1","2":"island2","3":"island3"}
                }}"#,
        );
        Report::load(&path).unwrap()
    }

    #[test]
    fn why_defaults_to_the_most_blocked_process() {
        let rep = sample();
        let text = why(&rep, None, None).unwrap();
        // island2 has 10.2ms total blocked vs island3's 40us.
        assert!(
            text.contains("most-blocked process: island2 (pid 2)"),
            "{text}"
        );
        // Its top dependency is the retransmitted mig1 frame from island1.
        let golden = "\
blocking dependencies (by blocked time):
  #1 mig1 <- writer island1 (pid 1): 1 blocks, 9.00ms blocked
     releasing frames: queued 2.00us | in-flight 800.00us | retransmit-delayed 10.00ms
     last release: retirement (writer left), msg_seq 55
  #2 best <- writer island0 (pid 0): 3 blocks, 1.20ms blocked
     releasing frames: queued 10.00us | in-flight 500.00us | retransmit-delayed 0ns
     last release: write_iter 41, msg_seq 1042
";
        assert!(text.ends_with(golden), "golden mismatch:\n{text}");
        std::fs::remove_file(&rep.path).ok();
    }

    #[test]
    fn why_resolves_names_and_filters_by_location() {
        let rep = sample();
        let text = why(&rep, Some("island3"), None).unwrap();
        assert!(text.contains("process: island3 (pid 3)"), "{text}");
        assert!(text.contains("write_iter 12, msg_seq 90"), "{text}");
        let text = why(&rep, Some("2"), Some("best")).unwrap();
        assert!(text.contains("#1 best <- writer island0"), "{text}");
        assert!(!text.contains("mig1 <- writer"), "{text}");
        let err = why(&rep, Some("nobody"), None).unwrap_err();
        assert!(err.contains("unknown process `nobody`"), "{err}");
        std::fs::remove_file(&rep.path).ok();
    }

    #[test]
    fn heat_renders_one_row_per_location() {
        let rep = sample();
        let text = heat(&rep);
        assert!(text.contains("2 locations"), "{text}");
        assert!(text.contains("best"), "{text}");
        assert!(text.contains("mig1"), "{text}");
        // best's hottest buckets (4 of 4) render at full intensity.
        let best_row = text.lines().find(|l| l.contains("best")).unwrap();
        assert!(best_row.contains('@'), "{best_row}");
        std::fs::remove_file(&rep.path).ok();
    }

    #[test]
    fn degrade_gracefully_on_pre_v3_reports() {
        let path = write_temp(
            "v2.json",
            r#"{"schema_version":2,"name":"old","metrics":{}}"#,
        );
        let rep = Report::load(&path).unwrap();
        assert!(heat(&rep).contains("no per-location staleness data"));
        assert!(why(&rep, None, None)
            .unwrap()
            .contains("no causal-dependency data"));
        std::fs::remove_file(path).ok();
    }
}
