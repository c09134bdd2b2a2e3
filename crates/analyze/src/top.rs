//! `nscc top`: a dashboard over the `NSCC_LIVE` telemetry feed.
//!
//! The bench binaries, run with `NSCC_LIVE=<path|fd>`, stream one JSON
//! line per periodic metric snapshot (see `crates/obs/src/live.rs` for
//! the writer-side schema). This module is the read side: it parses the
//! line-delimited feed and renders a single text frame — the latest
//! snapshot's rates, the run's staleness/fault/retransmit picture, the
//! scheduler's wall-clock self-accounting, and per-snapshot sparkline
//! series.
//!
//! Two modes:
//!
//! - [`top_file`] (`nscc top --once`) reads the whole feed and renders
//!   one frame. Deterministic for a fixed feed, so it golden-tests.
//! - [`follow`] (`nscc top`) re-reads the feed on an interval and
//!   repaints until the `final` line appears — a `tail -f` for a run
//!   that is still going.
//!
//! Readers ignore unknown fields and unknown `kind`s (the feed grows
//! additively) but refuse a newer `feed_version`, mirroring the report
//! loader's stance: guessing at renamed fields silently mis-renders.

use std::collections::BTreeMap;
use std::path::Path;

use crate::fmt::{ns, num, spark};
use crate::json::{parse, Json};

/// The newest feed schema this dashboard understands. Must track
/// `nscc_obs::FEED_VERSION` (the analyzer is dependency-free by design,
/// so the constant is mirrored here; `tests/observability.rs` in the
/// workspace root pins the two together).
pub const FEED_VERSION: u64 = 1;

/// One parsed `kind:"snap"` feed line. The three sections are kept as
/// name → value maps so additive feed growth never breaks the reader.
#[derive(Debug, Clone, Default)]
pub struct Snap {
    /// Wall ns since the sink attached.
    pub wall_ns: u64,
    /// Virtual-over-wall speed ratio at this snapshot.
    pub warp: f64,
    /// The cumulative `MetricSnapshot` fields (`t_ns`, `reads`, …).
    pub snap: BTreeMap<String, f64>,
    /// Counter deltas since the previous snap line.
    pub delta: BTreeMap<String, f64>,
    /// Scheduler wall-clock accounting (`events_per_sec`, `parks`, …).
    pub sched: BTreeMap<String, f64>,
}

/// The parsed `kind:"final"` feed line.
#[derive(Debug, Clone, Default)]
pub struct Final {
    /// Wall ns from sink attach to run end.
    pub wall_ns: u64,
    /// The run's cumulative event counters (mirrors `HubSummary`).
    pub counters: BTreeMap<String, f64>,
    /// Final scheduler accounting totals.
    pub sched: BTreeMap<String, f64>,
}

/// A fully parsed live feed.
#[derive(Debug, Clone)]
pub struct Feed {
    /// Bench name from the `start` header.
    pub bench: String,
    /// The writer's feed version.
    pub feed_version: u64,
    /// The writer's report schema version.
    pub schema_version: u64,
    /// Snapshot cadence in virtual ns (0 = snapshots disabled).
    pub snap_every_ns: u64,
    /// Every `snap` line, in feed order.
    pub snaps: Vec<Snap>,
    /// The `final` line, once the run has ended.
    pub fin: Option<Final>,
    /// Lines skipped as unparseable or of unknown kind.
    pub skipped: usize,
    /// The feed ended mid-line (no trailing newline and the fragment
    /// does not parse): the writer was caught mid-append. Not an error
    /// and not an unrecognized line — the fragment completes on the next
    /// read.
    pub partial: bool,
}

/// The `parse_feed` error prefix for "no start header yet" — the writer
/// has not attached (or its first line is still being appended), which
/// callers treat as *waiting*, not failure.
const NO_START: &str = "no start line";

/// How many sparkline cells a series row gets at most; longer series are
/// bucket-averaged down so a frame stays terminal-width no matter how
/// many snapshots the run cut.
const SERIES_WIDTH: usize = 60;

/// Display rounding to 2 decimals (ratios, rates). Comparison-free —
/// purely cosmetic.
fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

/// Average `values` into at most `width` buckets, NaN-aware: a bucket
/// with no finite values stays NaN (rendered as a gap by `spark`).
fn condense(values: &[f64], width: usize) -> Vec<f64> {
    if values.len() <= width {
        return values.to_vec();
    }
    (0..width)
        .map(|b| {
            let lo = b * values.len() / width;
            let hi = ((b + 1) * values.len() / width).max(lo + 1);
            let finite: Vec<f64> = values[lo..hi]
                .iter()
                .copied()
                .filter(|v| v.is_finite())
                .collect();
            if finite.is_empty() {
                f64::NAN
            } else {
                finite.iter().sum::<f64>() / finite.len() as f64
            }
        })
        .collect()
}

fn obj_nums(v: Option<&Json>) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some(members) = v.and_then(Json::as_obj) {
        for (k, v) in members {
            if let Some(n) = v.as_f64() {
                out.insert(k.to_string(), n);
            }
        }
    }
    out
}

/// Parse a complete feed text (all lines read so far). Unparseable lines
/// and unknown `kind`s are counted, not fatal — the writer may still be
/// appending, and the schema grows additively. A missing `start` header
/// or a too-new `feed_version` is fatal.
pub fn parse_feed(text: &str) -> Result<Feed, String> {
    let mut header: Option<(String, u64, u64, u64)> = None;
    let mut snaps = Vec::new();
    let mut fin = None;
    let mut skipped = 0usize;
    let mut partial = false;
    let terminated = text.is_empty() || text.ends_with('\n');
    let lines: Vec<&str> = text.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        // An unterminated last line is the writer caught mid-append; if
        // the fragment doesn't parse it is *in progress*, not garbage.
        let in_progress = !terminated && i == lines.len() - 1;
        let Ok(v) = parse(line) else {
            if in_progress {
                partial = true;
            } else {
                skipped += 1;
            }
            continue;
        };
        let Some(fv) = v.get("feed_version").and_then(Json::as_u64) else {
            if in_progress {
                partial = true;
            } else {
                skipped += 1;
            }
            continue;
        };
        if fv > FEED_VERSION {
            return Err(format!(
                "feed version {fv} but this nscc top understands only versions \
                 ..={FEED_VERSION}; upgrade nscc-analyze"
            ));
        }
        match v.get("kind").and_then(Json::as_str) {
            Some("start") => {
                header = Some((
                    v.get("bench")
                        .and_then(Json::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    fv,
                    v.get("schema_version").and_then(Json::as_u64).unwrap_or(0),
                    v.get("snap_every_ns").and_then(Json::as_u64).unwrap_or(0),
                ));
            }
            Some("snap") => snaps.push(Snap {
                wall_ns: v.get("wall_ns").and_then(Json::as_u64).unwrap_or(0),
                warp: v.get("warp").and_then(Json::as_f64).unwrap_or(0.0),
                snap: obj_nums(v.get("snap")),
                delta: obj_nums(v.get("delta")),
                sched: obj_nums(v.get("sched")),
            }),
            Some("final") => {
                fin = Some(Final {
                    wall_ns: v.get("wall_ns").and_then(Json::as_u64).unwrap_or(0),
                    counters: obj_nums(v.get("counters")),
                    sched: obj_nums(v.get("sched")),
                })
            }
            _ => skipped += 1,
        }
    }
    let Some((bench, feed_version, schema_version, snap_every_ns)) = header else {
        return Err(format!(
            "{NO_START} — not an NSCC_LIVE feed (or the writer has not attached yet)"
        ));
    };
    Ok(Feed {
        bench,
        feed_version,
        schema_version,
        snap_every_ns,
        snaps,
        fin,
        skipped,
        partial,
    })
}

/// Render one dashboard frame. Pure function of the parsed feed, so
/// `--once` output golden-tests.
pub fn render(feed: &Feed) -> String {
    let g = |m: &BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let mut out = String::new();
    let cadence = if feed.snap_every_ns == 0 {
        "snapshots disabled".to_string()
    } else {
        format!("snap every {} virtual", ns(feed.snap_every_ns))
    };
    out.push_str(&format!(
        "nscc top — {} (feed v{}, schema v{}, {})\n",
        feed.bench, feed.feed_version, feed.schema_version, cadence
    ));
    match &feed.fin {
        Some(f) => out.push_str(&format!(
            "status: complete after {} wall, {} snapshots\n",
            ns(f.wall_ns),
            feed.snaps.len()
        )),
        None => out.push_str(&format!(
            "status: running, {} snapshots\n",
            feed.snaps.len()
        )),
    }
    if feed.skipped > 0 {
        out.push_str(&format!(
            "note: {} unrecognized lines ignored\n",
            feed.skipped
        ));
    }
    if feed.partial {
        out.push_str("note: trailing line still being written (will complete on the next read)\n");
    }

    if let Some(s) = feed.snaps.last() {
        out.push('\n');
        out.push_str(&format!(
            "latest  t={}  wall={}  warp {}x\n",
            ns(g(&s.snap, "t_ns") as u64),
            ns(s.wall_ns),
            num(round2(s.warp))
        ));
        out.push_str(&format!(
            "  this snap: reads {}  writes {}  messages {}  blocked {}\n",
            num(g(&s.delta, "reads")),
            num(g(&s.delta, "writes")),
            num(g(&s.delta, "messages")),
            num(g(&s.delta, "blocked_reads"))
        ));
        out.push_str(&format!(
            "  faults:    dropped {}  retransmits {}  degraded {}  stale {}\n",
            num(g(&s.delta, "faults_dropped")),
            num(g(&s.delta, "retransmits")),
            num(g(&s.delta, "degraded_reads")),
            num(g(&s.delta, "stale_discards"))
        ));
        out.push_str(&format!(
            "  staleness: p50 {}  p99 {}  blocked {} over {} reads\n",
            num(g(&s.snap, "staleness_p50")),
            num(g(&s.snap, "staleness_p99")),
            ns(g(&s.snap, "block_ns_total") as u64),
            num(g(&s.snap, "blocked_reads"))
        ));
        out.push_str(&format!(
            "  sched:     {} events/sec  parks {}  unparks {}  exec {} of {}\n",
            num(g(&s.sched, "events_per_sec").round()),
            num(g(&s.sched, "parks")),
            num(g(&s.sched, "unparks")),
            ns(g(&s.sched, "exec_ns") as u64),
            ns(g(&s.sched, "wall_ns") as u64)
        ));
    }

    if feed.snaps.len() >= 2 {
        let dval = |k: &str| -> Vec<f64> {
            feed.snaps
                .iter()
                .map(|s| s.delta.get(k).copied().unwrap_or(0.0))
                .collect()
        };
        let rows: Vec<(&str, Vec<f64>)> = vec![
            ("reads/snap", dval("reads")),
            ("writes/snap", dval("writes")),
            ("messages/snap", dval("messages")),
            ("blocked/snap", dval("blocked_reads")),
            ("stale/snap", dval("stale_discards")),
            ("retransmits/snap", dval("retransmits")),
            ("degraded/snap", dval("degraded_reads")),
            ("dropped/snap", dval("faults_dropped")),
            (
                "events/sec",
                feed.snaps
                    .iter()
                    .map(|s| s.sched.get("events_per_sec").copied().unwrap_or(0.0))
                    .collect(),
            ),
            ("warp", feed.snaps.iter().map(|s| s.warp).collect()),
        ];
        out.push('\n');
        out.push_str("series (oldest → newest)\n");
        for (label, values) in rows {
            let last = values.last().copied().unwrap_or(0.0);
            out.push_str(&format!(
                "  {label:<16} {}  last {}\n",
                spark(&condense(&values, SERIES_WIDTH)),
                num(round2(last))
            ));
        }
    }

    if let Some(f) = &feed.fin {
        out.push('\n');
        out.push_str(&format!(
            "final — reads {}  writes {}  messages {}  retransmits {}  degraded {}  \
             restores {}\n",
            num(g(&f.counters, "reads")),
            num(g(&f.counters, "writes")),
            num(g(&f.counters, "messages")),
            num(g(&f.counters, "retransmits")),
            num(g(&f.counters, "degraded_reads")),
            num(g(&f.counters, "restores"))
        ));
        if g(&f.sched, "events") > 0.0 {
            out.push_str(&format!(
                "  sched total: {} events in {} wall ({} events/sec)\n",
                num(g(&f.sched, "events")),
                ns(g(&f.sched, "wall_ns") as u64),
                num(g(&f.sched, "events_per_sec").round())
            ));
        }
    }
    out
}

/// Read a feed file and render one frame (`nscc top --once`). A feed
/// whose `start` header has not landed yet (empty file, or only a
/// partially-written first line) renders as a waiting note rather than
/// failing — `--once` in a watch loop should not die on a race with the
/// writer.
pub fn top_file(path: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
    match parse_feed(&text) {
        Ok(feed) => Ok(render(&feed)),
        Err(e) if e.starts_with(NO_START) => Ok(format!(
            "nscc top — {}: waiting for the writer to attach…\n",
            path.display()
        )),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// Tail a feed file, repainting every `interval_ms`, until the `final`
/// line appears (`nscc top` without `--once`). A missing or still-empty
/// file means the writer has not attached yet, so it waits rather than
/// failing; a feed from a newer writer is a hard error.
pub fn follow(path: &Path, interval_ms: u64) -> Result<(), String> {
    use std::io::Write as _;
    let mut stdout = std::io::stdout();
    loop {
        let waiting = match std::fs::read_to_string(path) {
            Err(_) => Some("waiting for feed file to appear"),
            Ok(text) if text.trim().is_empty() => Some("waiting for the writer to attach"),
            Ok(text) => match parse_feed(&text) {
                Ok(feed) => {
                    // Clear the terminal and repaint from the top-left.
                    let _ = write!(stdout, "\x1b[2J\x1b[H{}", render(&feed));
                    let _ = stdout.flush();
                    if feed.fin.is_some() {
                        return Ok(());
                    }
                    None
                }
                Err(e) if e.starts_with(NO_START) => Some("waiting for the writer to attach"),
                Err(e) => return Err(format!("{}: {e}", path.display())),
            },
        };
        if let Some(why) = waiting {
            let _ = writeln!(stdout, "\x1b[2J\x1b[Hnscc top — {}: {why}…", path.display());
            let _ = stdout.flush();
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const START: &str = r#"{"feed_version":1,"kind":"start","bench":"unit","schema_version":4,"snap_every_ns":1000000}"#;

    fn snap_line(wall_ns: u64, t_ns: u64, reads: u64, d_reads: u64, eps: f64) -> String {
        format!(
            r#"{{"feed_version":1,"kind":"snap","wall_ns":{wall_ns},"warp":1000,"snap":{{"t_ns":{t_ns},"reads":{reads},"writes":5,"messages":8,"stale_discards":1,"staleness_p50":2,"staleness_p99":4,"block_ns_total":500,"blocked_reads":3}},"delta":{{"reads":{d_reads},"writes":5,"messages":8,"stale_discards":1,"faults_dropped":0,"retransmits":0,"degraded_reads":0,"blocked_reads":3}},"sched":{{"events":50,"parks":4,"unparks":5,"exec_ns":400,"wall_ns":800,"events_per_sec":{eps},"procs":[]}}}}"#
        )
    }

    const FINAL: &str = r#"{"feed_version":1,"kind":"final","bench":"unit","wall_ns":2500,"counters":{"reads":30,"writes":10,"messages":16,"retransmits":0,"degraded_reads":0,"restores":0},"sched":{"events":120,"parks":10,"unparks":12,"exec_ns":1500,"wall_ns":2400,"events_per_sec":50000000,"procs":[]}}"#;

    #[test]
    fn parses_a_feed_and_ignores_unknown_kinds() {
        let text = format!(
            "{START}\n{}\n{{\"feed_version\":1,\"kind\":\"someday\"}}\nnot json\n{FINAL}\n",
            snap_line(1000, 1_000_000, 10, 10, 62500000.0)
        );
        let feed = parse_feed(&text).unwrap();
        assert_eq!(feed.bench, "unit");
        assert_eq!(feed.schema_version, 4);
        assert_eq!(feed.snap_every_ns, 1_000_000);
        assert_eq!(feed.snaps.len(), 1);
        assert_eq!(feed.snaps[0].delta["reads"], 10.0);
        assert_eq!(feed.skipped, 2);
        assert_eq!(feed.fin.as_ref().unwrap().counters["reads"], 30.0);
    }

    #[test]
    fn refuses_a_newer_feed_and_a_missing_header() {
        let err = parse_feed(r#"{"feed_version":2,"kind":"start","bench":"x"}"#).unwrap_err();
        assert!(err.contains("feed version 2"), "{err}");
        let err = parse_feed("").unwrap_err();
        assert!(err.contains("no start line"), "{err}");
    }

    #[test]
    fn renders_a_complete_run_frame() {
        // Golden frame over a two-snap feed: header, latest-snap detail,
        // sparkline series, final totals.
        let text = format!(
            "{START}\n{}\n{}\n{FINAL}\n",
            snap_line(1000, 1_000_000, 10, 10, 62500000.0),
            snap_line(2000, 2_000_000, 30, 20, 50000000.0)
        );
        let frame = render(&parse_feed(&text).unwrap());
        let expected = "\
nscc top — unit (feed v1, schema v4, snap every 1.00ms virtual)
status: complete after 2.50us wall, 2 snapshots

latest  t=2.00ms  wall=2.00us  warp 1000x
  this snap: reads 20  writes 5  messages 8  blocked 3
  faults:    dropped 0  retransmits 0  degraded 0  stale 1
  staleness: p50 2  p99 4  blocked 500ns over 3 reads
  sched:     50000000 events/sec  parks 4  unparks 5  exec 400ns of 800ns

series (oldest → newest)
  reads/snap       ▁█  last 20
  writes/snap      ▁▁  last 5
  messages/snap    ▁▁  last 8
  blocked/snap     ▁▁  last 3
  stale/snap       ▁▁  last 1
  retransmits/snap ▁▁  last 0
  degraded/snap    ▁▁  last 0
  dropped/snap     ▁▁  last 0
  events/sec       █▁  last 50000000
  warp             ▁▁  last 1000

final — reads 30  writes 10  messages 16  retransmits 0  degraded 0  restores 0
  sched total: 120 events in 2.40us wall (50000000 events/sec)
";
        assert_eq!(frame, expected);
    }

    #[test]
    fn long_series_condense_to_terminal_width() {
        // Short series pass through untouched.
        assert_eq!(condense(&[1.0, 2.0], 60), vec![1.0, 2.0]);
        // 120 points → 60 buckets of 2, averaged.
        let long: Vec<f64> = (0..120).map(|i| i as f64).collect();
        let cells = condense(&long, 60);
        assert_eq!(cells.len(), 60);
        assert_eq!(cells[0], 0.5);
        assert_eq!(cells[59], 118.5);
        // All-NaN buckets stay NaN (a gap, not a fake zero).
        let gappy = [f64::NAN, f64::NAN, 3.0, 5.0];
        let cells = condense(&gappy, 2);
        assert!(cells[0].is_nan());
        assert_eq!(cells[1], 4.0);
        // A frame over a 200-snap feed stays bounded.
        let mut text = String::from(START);
        for i in 0..200u64 {
            text.push('\n');
            text.push_str(&snap_line(1000 + i, 1_000_000 * (i + 1), 10 * i, 10, 1e6));
        }
        let frame = render(&parse_feed(&text).unwrap());
        for line in frame.lines() {
            assert!(line.chars().count() < 100, "overlong line: {line}");
        }
    }

    #[test]
    fn truncated_trailing_line_is_partial_not_unrecognized() {
        // The writer was caught mid-append: the last line has no newline
        // and doesn't parse. The frame renders from the complete prefix
        // with a "still being written" note, not an "unrecognized" one.
        let text = format!(
            "{START}\n{}\n{{\"feed_version\":1,\"kind\":\"sn",
            snap_line(1000, 1_000_000, 10, 10, 62500000.0)
        );
        let feed = parse_feed(&text).unwrap();
        assert_eq!(feed.snaps.len(), 1);
        assert_eq!(feed.skipped, 0);
        assert!(feed.partial);
        let frame = render(&feed);
        assert!(frame.contains("still being written"), "{frame}");
        assert!(!frame.contains("unrecognized"), "{frame}");

        // A complete final line that merely lacks its newline parses and
        // counts normally — no partial note.
        let text = format!(
            "{START}\n{}",
            snap_line(1000, 1_000_000, 10, 10, 62500000.0)
        );
        let feed = parse_feed(&text).unwrap();
        assert_eq!(feed.snaps.len(), 1);
        assert!(!feed.partial);

        // A truncated line in the *middle* of the feed is real garbage.
        let text = format!(
            "{START}\n{{\"feed_version\":1,\"kind\":\"sn\n{}\n",
            snap_line(1000, 1_000_000, 10, 10, 62500000.0)
        );
        let feed = parse_feed(&text).unwrap();
        assert_eq!(feed.skipped, 1);
        assert!(!feed.partial);
    }

    #[test]
    fn once_waits_on_a_headerless_feed_instead_of_erroring() {
        let dir = std::env::temp_dir().join("nscc_top_partial");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("feed.jsonl");
        // Only a partially-written start line: --once renders a waiting
        // note rather than failing the watch loop.
        std::fs::write(&path, r#"{"feed_version":1,"kind":"sta"#).unwrap();
        let frame = top_file(&path).unwrap();
        assert!(
            frame.contains("waiting for the writer to attach"),
            "{frame}"
        );
        // A feed-version error is still fatal.
        std::fs::write(&path, "{\"feed_version\":99,\"kind\":\"start\"}\n").unwrap();
        let err = top_file(&path).unwrap_err();
        assert!(err.contains("feed version 99"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn renders_a_snapshotless_run() {
        let start = r#"{"feed_version":1,"kind":"start","bench":"quiet","schema_version":4,"snap_every_ns":0}"#;
        let frame = render(&parse_feed(start).unwrap());
        assert!(frame.contains("snapshots disabled"), "{frame}");
        assert!(frame.contains("status: running, 0 snapshots"), "{frame}");
        assert!(!frame.contains("series"), "{frame}");
    }
}
