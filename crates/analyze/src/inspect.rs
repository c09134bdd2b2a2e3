//! `nscc inspect`: human-readable breakdown of one artifact.
//!
//! Works on both export shapes:
//!
//! * a **run report** (`BENCH_*.json`) — parameters, headline metrics,
//!   exact counters, staleness/block/delay distributions with CDFs, warp,
//!   and the periodic metric-snapshot timeline;
//! * an **event dump** (`TRACE_*.json`, from `NSCC_TRACE=1`) — per-process
//!   blocked-time attribution (compute vs `Global_Read` blocking vs
//!   barrier waits), the critical path reconstructed from send/deliver
//!   edges, and message-queue-depth / warp timelines recomputed from the
//!   raw network events.

use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use nscc_ckpt::Histogram;

use crate::fmt::{brief, ns, num, table};
use crate::json::{field, Event, EventLog, Json};
use crate::report::Report;

/// Render one artifact (report or dump).
pub fn inspect(rep: &Report) -> String {
    if rep.is_event_dump() {
        inspect_dump(rep)
    } else {
        inspect_report(rep)
    }
}

// ---------------------------------------------------------------- reports

fn inspect_report(rep: &Report) -> String {
    let mut out = format!(
        "run report {} (schema v{})\n",
        rep.path.display(),
        rep.schema_version()
    );
    out.push_str(&format!("name: {}\n", rep.name()));

    for section in ["params", "metrics"] {
        let map = rep.numeric_map(section);
        if !map.is_empty() {
            out.push_str(&format!("\n{section}:\n"));
            for (k, v) in &map {
                out.push_str(&format!("  {k} = {}\n", num(*v)));
            }
        }
    }

    let obs = rep.root.get("obs");
    if let Some(obs) = obs {
        out.push_str("\ncounters:\n");
        for key in [
            "reads",
            "writes",
            "messages",
            "stale_discards",
            "barriers",
            "anti_messages",
            "checkpoints",
            "restores",
            "mailbox_warnings",
            "events",
            "spans",
        ] {
            if let Some(v) = obs.get(key).and_then(Json::as_u64) {
                out.push_str(&format!("  {key} = {v}\n"));
            }
        }
        let ev_drop = obs
            .get("events_dropped")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        let sp_drop = obs.get("spans_dropped").and_then(Json::as_u64).unwrap_or(0);
        if ev_drop > 0 || sp_drop > 0 {
            out.push_str(&format!(
                "  WARNING: raw trace truncated ({ev_drop} events, {sp_drop} spans \
                 dropped at capacity); counters and histograms above stay exact\n"
            ));
        }

        for (key, unit) in [
            ("staleness", "iterations"),
            ("rollback", "iterations"),
            ("block_ns", "ns"),
            ("net_delay_ns", "ns"),
        ] {
            if let Some(h) = obs.get(key).and_then(Histogram::from_json) {
                out.push_str(&format!("\n{key} ({unit}): {}\n", brief(&h)));
                if !h.is_empty() {
                    out.push_str("  cdf:");
                    for (upper, frac) in h.cdf() {
                        out.push_str(&format!(" <={upper}:{:.1}%", frac * 100.0));
                    }
                    out.push('\n');
                }
            }
        }

        if let Some(w) = obs.get("warp") {
            let f = |k: &str| w.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            if f("samples") > 0.0 {
                out.push_str(&format!(
                    "\nwarp: samples={} mean={:.3} p50={:.3} p95={:.3} max={:.3}\n",
                    num(f("samples")),
                    f("mean"),
                    f("p50"),
                    f("p95"),
                    f("max")
                ));
            }
        }

        if let Some(snaps) = obs.get("snapshots").and_then(Json::as_arr) {
            if !snaps.is_empty() {
                out.push_str(&format!(
                    "\nmetric snapshots ({} samples, cumulative):\n",
                    snaps.len()
                ));
                out.push_str(&snapshot_table(snaps));
            }
        }
    }
    out
}

/// The snapshot series as a table, downsampled to at most 12 rows.
fn snapshot_table(snaps: &[Json]) -> String {
    let mut rows = vec![vec![
        "t".to_string(),
        "reads".to_string(),
        "messages".to_string(),
        "stale_p99".to_string(),
        "block_total".to_string(),
        "barriers".to_string(),
    ]];
    let step = snaps.len().div_ceil(12).max(1);
    for (i, s) in snaps.iter().enumerate() {
        if i % step != 0 && i != snaps.len() - 1 {
            continue;
        }
        let g = |k: &str| s.get(k).and_then(Json::as_u64).unwrap_or(0);
        rows.push(vec![
            ns(g("t_ns")),
            g("reads").to_string(),
            g("messages").to_string(),
            g("staleness_p99").to_string(),
            ns(g("block_ns_total")),
            g("barriers").to_string(),
        ]);
    }
    table(&rows)
}

// ------------------------------------------------------------ event dumps

/// The event kinds the dump sections tell apart, with the numbers they
/// read from each, taken out of the body once.
#[derive(Clone, Copy)]
enum Kind {
    NetSend { src: u32, dst: u32 },
    NetDeliver { src: u32, dst: u32 },
    ReadDone { block_ns: u64 },
    BarrierExit { wait_ns: u64 },
    Checkpoint,
    Restore,
    MailboxHigh,
    Other,
}

/// The destination of a broadcast frame: every rank but the sender.
const BROADCAST: u32 = u32::MAX;

/// One event, decoded from its externally-tagged form.
struct Ev<'a> {
    kind: Kind,
    body: &'a [(Rc<str>, Json)],
    t: u64,
    /// The process the event is attributed to (sender for sends, receiver
    /// for delivers — none for a broadcast's — rank otherwise).
    pid: Option<u32>,
}

fn decode_events(log: Option<&EventLog>) -> Vec<Ev<'_>> {
    let Some(log) = log else {
        return Vec::new();
    };
    let mut out = Vec::with_capacity(log.len());
    for e in log.iter() {
        let (name, body, t) = match e {
            Event::Tagged { kind, t_ns, body } => (kind, body, t_ns),
            // A lone member whose value is not an object: a kind, no fields.
            Event::Other(other) => match other.as_obj() {
                Some([(kind, _)]) => (&**kind, &[][..], 0),
                _ => continue,
            },
        };
        let get = |k: &str| field(body, k).and_then(Json::as_u64);
        let (kind, pid) = match name {
            "NetSend" | "NetDeliver" => {
                let (src, dst) = (get("src"), get("dst"));
                let (s, d) = (src.unwrap_or(0) as u32, dst.unwrap_or(0) as u32);
                match name {
                    "NetSend" => (Kind::NetSend { src: s, dst: d }, src),
                    _ => (
                        Kind::NetDeliver { src: s, dst: d },
                        dst.filter(|&d| d != u64::from(BROADCAST)),
                    ),
                }
            }
            "ReadDone" => {
                let block_ns = get("block_ns").unwrap_or(0);
                (Kind::ReadDone { block_ns }, get("rank"))
            }
            "BarrierExit" => {
                let wait_ns = get("wait_ns").unwrap_or(0);
                (Kind::BarrierExit { wait_ns }, get("rank"))
            }
            "Checkpoint" => (Kind::Checkpoint, get("rank")),
            "Restore" => (Kind::Restore, get("rank")),
            "MailboxHigh" => (Kind::MailboxHigh, get("rank")),
            "Custom" => (Kind::Other, get("")),
            _ => (Kind::Other, get("rank")),
        };
        let pid = pid.map(|v| v as u32);
        out.push(Ev { kind, body, t, pid });
    }
    out
}

fn proc_name(names: &BTreeMap<u32, String>, pid: u32) -> String {
    names
        .get(&pid)
        .cloned()
        .unwrap_or_else(|| format!("pid{pid}"))
}

fn inspect_dump(rep: &Report) -> String {
    let root = &rep.root;
    let events = decode_events(rep.events.as_ref());
    let names: BTreeMap<u32, String> = root
        .get("proc_names")
        .and_then(Json::as_obj)
        .map(|members| {
            members
                .iter()
                .filter_map(|(k, v)| Some((k.parse().ok()?, v.as_str()?.to_string())))
                .collect()
        })
        .unwrap_or_default();

    let mut out = format!(
        "event dump {} (schema v{})\n",
        rep.path.display(),
        rep.schema_version()
    );
    let spans = root.get("spans").and_then(Json::as_arr).unwrap_or(&[]);
    out.push_str(&format!(
        "events: {}  spans: {}\n",
        events.len(),
        spans.len()
    ));
    let ev_drop = root
        .get("events_dropped")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let sp_drop = root
        .get("spans_dropped")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    if ev_drop > 0 || sp_drop > 0 {
        out.push_str(&format!(
            "WARNING: trace truncated ({ev_drop} events, {sp_drop} spans dropped); \
             every analysis below is over the kept prefix only\n"
        ));
    }
    if events.is_empty() {
        out.push_str("no events: nothing to analyze\n");
        return out;
    }

    let procs = processes(&events);
    let edges = message_edges(&events);
    out.push_str(&attribution_section(&procs, spans, &names));
    out.push_str(&critical_path_section(&procs, &edges, &names));
    out.push_str(&queue_depth_section(&events));
    out.push_str(&warp_section(&edges));
    out.push_str(&recovery_timeline_section(&events, &names));
    out
}

/// Crash-recovery timeline: every checkpoint cut, restore and mailbox
/// warning in event order, with the restore's rollback distance — the
/// view that shows a recovered node re-entering the sweep within its age
/// bound (DESIGN.md's recovery line). Empty when the run never
/// checkpointed.
fn recovery_timeline_section(events: &[Ev<'_>], names: &BTreeMap<u32, String>) -> String {
    let mut rows = vec![vec![
        "t".to_string(),
        "proc".to_string(),
        "event".to_string(),
        "detail".to_string(),
    ]];
    let mut restores = 0u64;
    let mut max_rollback = 0u64;
    for e in events {
        let g = |k: &str| field(e.body, k).and_then(Json::as_u64).unwrap_or(0);
        let (event, detail) = match e.kind {
            Kind::Checkpoint => (
                "checkpoint",
                format!("iter={} bytes={}", g("iter"), g("bytes")),
            ),
            Kind::Restore => {
                restores += 1;
                max_rollback = max_rollback.max(g("rollback"));
                (
                    "restore",
                    format!(
                        "iter {} -> {} (rollback {})",
                        g("from_iter"),
                        g("to_iter"),
                        g("rollback")
                    ),
                )
            }
            Kind::MailboxHigh => ("mailboxhigh", format!("depth={}", g("depth"))),
            _ => continue,
        };
        rows.push(vec![
            ns(e.t),
            e.pid.map_or_else(String::new, |p| proc_name(names, p)),
            event.to_string(),
            detail,
        ]);
    }
    if rows.len() == 1 {
        return String::new();
    }
    format!(
        "\nrecovery timeline ({restores} restore(s), max rollback {max_rollback}):\n{}",
        table(&rows)
    )
}

/// What the dump sections need of one process's events, gathered in one
/// pass.
#[derive(Default)]
struct Proc {
    /// Time of its first event in the dump, and the latest time of any.
    first_t: u64,
    last_t: u64,
    reads: u64,
    blocked_reads: u64,
    read_block_ns: u64,
    barriers: u64,
    barrier_wait_ns: u64,
}

/// Every process an event is attributed to, by pid.
fn processes(events: &[Ev<'_>]) -> BTreeMap<u32, Proc> {
    // Ranks are small numbers: those index a `Vec`, and only others (the
    // broadcast pseudo-destination, say) pay a map lookup per event.
    const DENSE: usize = 1 << 12;
    let mut dense: Vec<Option<Proc>> = Vec::new();
    let mut sparse: BTreeMap<u32, Option<Proc>> = BTreeMap::new();
    for e in events {
        let Some(pid) = e.pid else { continue };
        let at = pid as usize;
        let slot = if at < DENSE {
            if dense.len() <= at {
                dense.resize_with(at + 1, || None);
            }
            &mut dense[at]
        } else {
            sparse.entry(pid).or_insert(None)
        };
        let p = slot.get_or_insert_with(|| Proc {
            first_t: e.t,
            ..Proc::default()
        });
        p.last_t = p.last_t.max(e.t);
        match e.kind {
            Kind::ReadDone { block_ns } => {
                p.reads += 1;
                if block_ns > 0 {
                    p.blocked_reads += 1;
                    p.read_block_ns += block_ns;
                }
            }
            Kind::BarrierExit { wait_ns } => {
                p.barriers += 1;
                p.barrier_wait_ns += wait_ns;
            }
            _ => {}
        }
    }
    let dense = dense.into_iter().enumerate();
    let dense = dense.filter_map(|(pid, p)| Some((pid as u32, p?)));
    dense
        .chain(sparse.into_iter().filter_map(|(pid, p)| Some((pid, p?))))
        .collect()
}

/// Per-process time attribution: compute/blocked from spans, blocked-read
/// and barrier-wait time from events. The paper's whole argument is about
/// where blocked time goes, so this is the lead table.
fn attribution_section(
    procs: &BTreeMap<u32, Proc>,
    spans: &[Json],
    names: &BTreeMap<u32, String>,
) -> String {
    // (compute, blocked) span time per pid, for every pid with an event or
    // a span.
    let mut per: BTreeMap<u32, (u64, u64)> = procs.keys().map(|&pid| (pid, (0, 0))).collect();
    for s in spans {
        let (Some(pid), Some(start), Some(end)) = (
            s.get("pid").and_then(Json::as_u64),
            s.get("start_ns").and_then(Json::as_u64),
            s.get("end_ns").and_then(Json::as_u64),
        ) else {
            continue;
        };
        let acc = per.entry(pid as u32).or_default();
        let d = end.saturating_sub(start);
        match s.get("kind").and_then(Json::as_str) {
            Some("Compute") => acc.0 += d,
            Some("Blocked") => acc.1 += d,
            _ => {}
        }
    }

    let mut rows = vec![vec![
        "proc".to_string(),
        "compute".to_string(),
        "blocked".to_string(),
        "gr_block".to_string(),
        "blocked/reads".to_string(),
        "barrier_wait".to_string(),
        "barriers".to_string(),
    ]];
    let none = Proc::default();
    for (&pid, &(compute_ns, blocked_ns)) in &per {
        let a = procs.get(&pid).unwrap_or(&none);
        rows.push(vec![
            proc_name(names, pid),
            ns(compute_ns),
            ns(blocked_ns),
            ns(a.read_block_ns),
            format!("{}/{}", a.blocked_reads, a.reads),
            ns(a.barrier_wait_ns),
            a.barriers.to_string(),
        ]);
    }
    format!(
        "\nblocked-time attribution (gr_block = Global_Read blocking):\n{}",
        table(&rows)
    )
}

/// A (send → deliver) edge matched FIFO per (src, dst) channel.
struct Edge {
    send_t: u64,
    deliver_t: u64,
    src: u32,
    dst: u32,
}

fn message_edges(events: &[Ev<'_>]) -> Vec<Edge> {
    let mut queues: BTreeMap<(u32, u32), VecDeque<u64>> = BTreeMap::new();
    let mut edges = Vec::new();
    for e in events {
        match e.kind {
            Kind::NetSend { src, dst } => {
                queues.entry((src, dst)).or_default().push_back(e.t);
            }
            Kind::NetDeliver { src, dst } => {
                // Exact channel first; fall back to the broadcast channel
                // (one broadcast send fans out to many delivers, so its
                // send entry is peeked, not popped).
                let send_t = queues
                    .get_mut(&(src, dst))
                    .and_then(VecDeque::pop_front)
                    .or_else(|| {
                        queues
                            .get(&(src, BROADCAST))
                            .and_then(|q| q.iter().rev().find(|&&s| s <= e.t))
                            .copied()
                    });
                if let Some(send_t) = send_t {
                    edges.push(Edge {
                        send_t,
                        deliver_t: e.t,
                        src,
                        dst,
                    });
                }
            }
            _ => {}
        }
    }
    edges
}

/// Critical path: walk backwards from the process with the last event,
/// hopping across the latest enabling message edge each time. Segments
/// are `proc [from → to]`; the path explains what the makespan was spent
/// waiting on.
fn critical_path_section(
    procs: &BTreeMap<u32, Proc>,
    edges: &[Edge],
    names: &BTreeMap<u32, String>,
) -> String {
    let Some((&end_pid, end_t)) = procs
        .iter()
        .map(|(pid, p)| (pid, p.last_t))
        .max_by_key(|&(_, t)| t)
    else {
        return String::new();
    };
    // The edges that move a walk backwards, by delivery time; ties keep
    // their order, so the last of them is the one a scan would pick.
    let mut forward: Vec<&Edge> = edges.iter().filter(|e| e.send_t < e.deliver_t).collect();
    forward.sort_by_key(|e| e.deliver_t);

    let mut segments: Vec<(u32, u64, u64)> = Vec::new();
    let (mut pid, mut t) = (end_pid, end_t);
    for _ in 0..64 {
        let start = procs.get(&pid).map_or(0, |p| p.first_t);
        // The latest delivery into `pid` at or before `t`; a broadcast
        // delivers into every process but its sender.
        let enabling = forward[..forward.partition_point(|e| e.deliver_t <= t)]
            .iter()
            .rev()
            .find(|e| e.dst == pid || (e.dst == BROADCAST && e.src != pid));
        match enabling {
            // Progress is guaranteed: send_t < deliver_t <= t, so each hop
            // strictly decreases t.
            Some(e) => {
                segments.push((pid, e.deliver_t, t));
                pid = e.src;
                t = e.send_t;
            }
            None => {
                segments.push((pid, start.min(t), t));
                break;
            }
        }
    }
    segments.reverse();

    let mut out = format!(
        "\ncritical path (makespan {}, {} hops):\n",
        ns(end_t),
        segments.len().saturating_sub(1)
    );
    for (pid, from, to) in &segments {
        let share = if end_t > 0 {
            (to - from) as f64 / end_t as f64 * 100.0
        } else {
            0.0
        };
        out.push_str(&format!(
            "  {:<10} {} -> {}  ({}, {:.1}%)\n",
            proc_name(names, *pid),
            ns(*from),
            ns(*to),
            ns(to - from),
            share
        ));
    }
    out
}

/// In-flight message count over time (sends minus delivers), sampled on a
/// 10-bin grid — the queue-depth timeline.
fn queue_depth_section(events: &[Ev<'_>]) -> String {
    let mut sends: Vec<u64> = Vec::new();
    let mut delivers: Vec<u64> = Vec::new();
    for e in events {
        match e.kind {
            Kind::NetSend { .. } => sends.push(e.t),
            Kind::NetDeliver { .. } => delivers.push(e.t),
            _ => {}
        }
    }
    if sends.is_empty() {
        return "\nmessage queue: no traffic\n".to_string();
    }
    sends.sort_unstable();
    delivers.sort_unstable();
    let t0 = sends[0];
    let t1 = events.iter().map(|e| e.t).max().unwrap_or(t0).max(t0 + 1);
    let bins = 10u64;
    let width = ((t1 - t0) / bins).max(1);
    let mut rows = vec![vec![
        "t".to_string(),
        "in-flight".to_string(),
        "sent".to_string(),
    ]];
    let mut peak = 0i64;
    for b in 1..=bins {
        let edge = t0 + width * b;
        let sent = sends.partition_point(|&t| t <= edge);
        let arrived = delivers.partition_point(|&t| t <= edge);
        let depth = sent as i64 - arrived as i64;
        peak = peak.max(depth);
        rows.push(vec![ns(edge), depth.to_string(), sent.to_string()]);
    }
    format!(
        "\nmessage queue depth (peak in-flight {peak}):\n{}",
        table(&rows)
    )
}

/// Warp (§4.3) recomputed from raw send/deliver edges: the ratio of
/// inter-arrival to inter-send gaps of consecutive messages per channel,
/// bucketed over time.
fn warp_section(edges: &[Edge]) -> String {
    let mut per_channel: BTreeMap<(u32, u32), Vec<&Edge>> = BTreeMap::new();
    for e in edges {
        per_channel.entry((e.src, e.dst)).or_default().push(e);
    }
    let mut samples: Vec<(u64, f64)> = Vec::new();
    for chan in per_channel.values() {
        for pair in chan.windows(2) {
            let ds = pair[1].send_t.saturating_sub(pair[0].send_t);
            let da = pair[1].deliver_t.saturating_sub(pair[0].deliver_t);
            if ds > 0 {
                samples.push((pair[1].deliver_t, da as f64 / ds as f64));
            }
        }
    }
    if samples.is_empty() {
        return String::new();
    }
    samples.sort_by_key(|&(t, _)| t);
    let t0 = samples[0].0;
    let t1 = samples[samples.len() - 1].0.max(t0 + 1);
    let bins = 10u64;
    let width = ((t1 - t0) / bins).max(1);
    let mut acc = vec![(0.0f64, 0u64); bins as usize];
    for &(t, w) in &samples {
        let idx = (((t - t0) / width) as usize).min(bins as usize - 1);
        acc[idx].0 += w;
        acc[idx].1 += 1;
    }
    let mean: f64 = samples.iter().map(|&(_, w)| w).sum::<f64>() / samples.len() as f64;
    let mut rows = vec![vec!["t".to_string(), "warp".to_string(), "n".to_string()]];
    for (i, &(sum, n)) in acc.iter().enumerate() {
        if n == 0 {
            continue;
        }
        rows.push(vec![
            ns(t0 + width * (i as u64 + 1)),
            format!("{:.3}", sum / n as f64),
            n.to_string(),
        ]);
    }
    format!(
        "\nwarp timeline ({} samples, mean {mean:.3}; 1.0 = stable network):\n{}",
        samples.len(),
        table(&rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::from_text;

    fn report_from(doc: &str) -> Report {
        from_text("test.json", doc)
    }

    #[test]
    fn report_rendering_covers_sections() {
        let rep = report_from(
            r#"{"schema_version":2,"name":"unit","params":{"procs":4},
               "metrics":{"speedup":2.5},
               "obs":{"events":3,"events_dropped":0,"spans":0,"spans_dropped":0,
                      "reads":10,"writes":4,"messages":6,"stale_discards":1,
                      "barriers":0,"anti_messages":0,
                      "staleness":{"count":10,"sum":12,"min":0,"max":5,"mean":1.2,
                                   "p50":1,"p99":5,"buckets":[[0,4],[1,3],[7,3]]},
                      "block_ns":{"count":0,"sum":0,"min":0,"max":0,"mean":0.0,
                                  "p50":0,"p99":0,"buckets":[]},
                      "net_delay_ns":{"count":6,"sum":600,"min":100,"max":100,
                                      "mean":100.0,"p50":100,"p99":100,
                                      "buckets":[[127,6]]},
                      "warp":{"samples":5,"mean":1.2,"p50":1.1,"p95":1.5,"max":2.0},
                      "snapshots":[{"t_ns":1000,"reads":5,"writes":2,"messages":3,
                        "stale_discards":0,"barriers":0,"anti_messages":0,
                        "staleness_p50":1,"staleness_p99":3,"block_ns_total":0,
                        "blocked_reads":0,"net_delay_p99":100,"events_dropped":0,
                        "spans_dropped":0}]}}"#,
        );
        let text = inspect(&rep);
        assert!(text.contains("name: unit"));
        assert!(text.contains("speedup = 2.5"));
        assert!(text.contains("reads = 10"));
        assert!(text.contains("staleness (iterations): n=10"));
        assert!(text.contains("cdf: <=0:40.0%"));
        assert!(text.contains("block_ns (ns): n=0"));
        assert!(text.contains("warp: samples=5"));
        assert!(text.contains("metric snapshots (1 samples"));
        assert!(!text.contains("WARNING"));
    }

    #[test]
    fn drop_warning_surfaces_in_reports() {
        let rep = report_from(
            r#"{"schema_version":2,"name":"unit","metrics":{},
               "obs":{"events_dropped":9,"spans_dropped":0,"reads":1}}"#,
        );
        assert!(inspect(&rep).contains("WARNING: raw trace truncated (9 events"));
    }

    fn dump() -> Report {
        // Two ranks: rank 0 computes and sends at t=10, the network
        // delivers to rank 1 at t=40, rank 1's read completes at t=50
        // after blocking 25ns, then both hit a barrier.
        report_from(
            r#"{"schema_version":2,"proc_names":{"0":"island0","1":"island1"},
               "events_dropped":0,"spans_dropped":0,
               "events":[
                 {"Write":{"t_ns":5,"rank":0,"loc":0,"age":1}},
                 {"NetSend":{"t_ns":10,"src":0,"dst":1,"bytes":64,"queue_ns":0}},
                 {"NetDeliver":{"t_ns":40,"src":0,"dst":1,"delay_ns":30}},
                 {"ReadDone":{"t_ns":50,"rank":1,"loc":0,"curr_iter":1,
                   "requested":0,"delivered":1,"staleness":0,"blocked":true,
                   "block_ns":25}},
                 {"BarrierExit":{"t_ns":60,"rank":0,"epoch":1,"wait_ns":12}},
                 {"BarrierExit":{"t_ns":60,"rank":1,"epoch":1,"wait_ns":3}}
               ],
               "spans":[
                 {"pid":0,"start_ns":0,"end_ns":10,"kind":"Compute","label":"gen"},
                 {"pid":1,"start_ns":25,"end_ns":50,"kind":"Blocked","label":"read"}
               ]}"#,
        )
    }

    #[test]
    fn dump_attribution_and_critical_path() {
        let text = inspect(&dump());
        assert!(text.contains("blocked-time attribution"));
        assert!(text.contains("island0"));
        assert!(text.contains("1/1")); // island1: one blocked read of one
        assert!(text.contains("25ns")); // its Global_Read block time
        assert!(text.contains("12ns")); // island0 barrier wait
        assert!(text.contains("critical path"));
        // The path must hop island0 → island1 across the message edge.
        let cp = text.split("critical path").nth(1).unwrap();
        let i0 = cp.find("island0").expect("island0 on path");
        let i1 = cp.find("island1").expect("island1 on path");
        assert!(i0 < i1, "sender segment precedes receiver segment");
        assert!(text.contains("message queue depth"));
        assert!(text.contains("peak in-flight 1"));
    }

    /// Rank 0 broadcasts at t=10, the frame is delivered at t=40 and rank
    /// 1's read releases at t=50; `tail` is appended to the events.
    fn broadcast_dump(tail: &str) -> Report {
        report_from(&format!(
            r#"{{"schema_version":7,"proc_names":{{"0":"island0","1":"island1"}},
               "events_dropped":0,"spans_dropped":0,
               "events":[
                 {{"Write":{{"t_ns":5,"rank":0,"loc":0,"age":1}}}},
                 {{"NetSend":{{"t_ns":10,"src":0,"dst":4294967295,"bytes":64,"queue_ns":0}}}},
                 {{"NetDeliver":{{"t_ns":40,"src":0,"dst":4294967295,"delay_ns":30}}}},
                 {{"ReadDone":{{"t_ns":50,"rank":1,"loc":0,"block_ns":25}}}}{tail}
               ],"spans":[]}}"#
        ))
    }

    #[test]
    fn broadcast_deliveries_belong_to_no_process() {
        let text = inspect(&broadcast_dump(""));
        assert!(!text.contains("pid4294967295"), "{text}");
        let cp = text.split("critical path").nth(1).unwrap();
        let cp = cp.split("\n\n").next().unwrap();
        // The path ends on rank 1 and hops back across the broadcast.
        assert_eq!(
            cp,
            " (makespan 50ns, 1 hops):\n\
             \x20 island0    5ns -> 10ns  (5ns, 10.0%)\n\
             \x20 island1    40ns -> 50ns  (10ns, 20.0%)"
        );
        // A broadcast does not enable its own sender: a walk that ends on
        // rank 0 has nowhere to hop.
        let text = inspect(&broadcast_dump(
            r#",{"Write":{"t_ns":60,"rank":0,"loc":0,"age":2}}"#,
        ));
        let cp = text.split("critical path").nth(1).unwrap();
        let cp = cp.split("\n\n").next().unwrap();
        assert_eq!(
            cp,
            " (makespan 60ns, 0 hops):\n\
             \x20 island0    5ns -> 60ns  (55ns, 91.7%)"
        );
    }

    #[test]
    fn recovery_timeline_lists_checkpoints_and_restores() {
        let rep = report_from(
            r#"{"schema_version":2,"proc_names":{"1":"island1"},
               "events_dropped":0,"spans_dropped":0,
               "events":[
                 {"Checkpoint":{"t_ns":100,"rank":1,"iter":3,"bytes":512}},
                 {"MailboxHigh":{"t_ns":150,"rank":1,"depth":70}},
                 {"Restore":{"t_ns":200,"rank":1,"from_iter":5,"to_iter":3,
                   "rollback":2}}
               ],"spans":[]}"#,
        );
        let text = inspect(&rep);
        assert!(
            text.contains("recovery timeline (1 restore(s), max rollback 2)"),
            "{text}"
        );
        assert!(text.contains("iter=3 bytes=512"), "{text}");
        assert!(text.contains("iter 5 -> 3 (rollback 2)"), "{text}");
        assert!(text.contains("depth=70"), "{text}");
        assert!(text.contains("island1"), "{text}");
        // A run without recovery events has no such section.
        assert!(!inspect(&dump()).contains("recovery timeline"));
    }

    #[test]
    fn report_counters_include_recovery_and_mailbox() {
        let rep = report_from(
            r#"{"schema_version":2,"name":"unit","metrics":{},
               "obs":{"reads":1,"checkpoints":4,"restores":1,
                      "mailbox_warnings":2,
                      "rollback":{"count":1,"sum":2,"min":2,"max":2,"mean":2.0,
                                  "p50":2,"p99":2,"buckets":[[3,1]]}}}"#,
        );
        let text = inspect(&rep);
        assert!(text.contains("checkpoints = 4"), "{text}");
        assert!(text.contains("restores = 1"), "{text}");
        assert!(text.contains("mailbox_warnings = 2"), "{text}");
        assert!(text.contains("rollback (iterations): n=1"), "{text}");
    }

    #[test]
    fn zero_message_dump_does_not_panic() {
        let rep = report_from(
            r#"{"schema_version":2,"proc_names":{},"events_dropped":0,
               "spans_dropped":0,"events":[
                 {"Write":{"t_ns":5,"rank":0,"loc":0,"age":1}}
               ],"spans":[]}"#,
        );
        let text = inspect(&rep);
        assert!(text.contains("message queue: no traffic"));
        assert!(!text.contains("warp timeline"));
    }

    #[test]
    fn empty_dump_reports_nothing_to_analyze() {
        let rep = report_from(
            r#"{"schema_version":2,"proc_names":{},"events_dropped":0,
               "spans_dropped":0,"events":[],"spans":[]}"#,
        );
        assert!(inspect(&rep).contains("no events"));
    }
}
