//! `nscc postmortem`: analyze a black-box flight-recorder dump.
//!
//! When a monitored run ends badly — a coherence-monitor violation, an
//! injected fault that stuck, or a scheduler deadlock — the bench
//! harness freezes the hub's bounded event ring (`NSCC_FLIGHT=<n>`) into
//! a `FLIGHT_<bench>.json` document. This command reads it offline and
//! answers "what was each process doing when it died": the violation
//! list, a per-process tail of the captured events, and suspected-cause
//! heuristics that walk the ring for the usual culprits (a stale write
//! releasing a bounded read, an abandoned retransmission, a rank parked
//! on a `Global_Read` that never released, a suspected writer).

use std::collections::BTreeMap;
use std::rc::Rc;

use crate::fmt::{ns, num};
use crate::json::{field, Event, Json};
use crate::report::Report;

/// Events shown per process in the timeline section.
const TAIL: usize = 5;

/// Render the post-mortem analysis of one flight dump.
pub fn postmortem(rep: &Report) -> Result<String, String> {
    if rep.root.get("kind").and_then(Json::as_str) != Some("flight") {
        return Err(format!(
            "{}: not a flight-recorder dump (expected \"kind\":\"flight\"; dumps are \
             written as FLIGHT_<bench>.json when a run with NSCC_FLIGHT=<n> fails)",
            rep.path.display()
        ));
    }
    let get_str = |k: &str| rep.root.get(k).and_then(Json::as_str).unwrap_or("?");
    let get_u64 = |k: &str| rep.root.get(k).and_then(Json::as_u64).unwrap_or(0);
    let names: Vec<&str> = rep
        .root
        .get("proc_names")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(Json::as_str)
        .collect();
    let log = rep.events.iter().flat_map(|log| log.iter());
    let captured = rep.events.as_ref().map_or(0, |log| log.len());
    let events: Vec<Tagged<'_>> = log.filter_map(tagged).collect();
    let violations = rep
        .root
        .get("violations")
        .and_then(Json::as_arr)
        .unwrap_or(&[]);

    let reason = get_str("reason");
    let gloss = match reason {
        "violation" => "a coherence monitor flagged the run",
        "deadlock" => "the scheduler found every runnable process blocked",
        "fault" => "injected faults left reports behind",
        _ => "unknown cause",
    };
    let mut out = format!("postmortem {} ({})\n", get_str("bench"), rep.path.display());
    out.push_str(&format!("  reason: {reason} — {gloss}\n"));
    out.push_str(&format!(
        "  seed {}, ring capacity {}, {} events captured\n",
        get_u64("seed"),
        get_u64("capacity"),
        captured
    ));

    if violations.is_empty() {
        out.push_str("\nno recorded violations\n");
    } else {
        out.push_str(&format!("\nviolations ({}):\n", violations.len()));
        for v in violations {
            out.push_str(&format!(
                "  [{}] {} rank {}: {}\n",
                ns(v.get("t_ns").and_then(Json::as_u64).unwrap_or(0)),
                v.get("monitor").and_then(Json::as_str).unwrap_or("?"),
                num(v.get("rank").and_then(Json::as_f64).unwrap_or(0.0)),
                v.get("detail").and_then(Json::as_str).unwrap_or("?"),
            ));
        }
    }

    // Per-process tail: the ring is oldest-first, so the last entries per
    // rank are what each process did right before the dump was cut. Only
    // those are rendered.
    let mut per: BTreeMap<u64, Vec<Tagged<'_>>> = BTreeMap::new();
    let mut unattributed: Vec<Tagged<'_>> = Vec::new();
    for &ev in &events {
        match event_rank(ev.1) {
            Some(rank) => per.entry(rank).or_default().push(ev),
            None => unattributed.push(ev),
        }
    }
    out.push_str("\nlast events per process (oldest first):\n");
    if per.is_empty() && unattributed.is_empty() {
        out.push_str("  (ring is empty)\n");
    }
    for (rank, evs) in &per {
        out.push_str(&format!("  rank {}{}:\n", rank, rank_name(&names, *rank)));
        push_tail(&mut out, evs);
    }
    if !unattributed.is_empty() {
        out.push_str("  (no rank):\n");
        push_tail(&mut out, &unattributed);
    }

    let suspects = suspected_causes(reason, violations, &events, &names, &per);
    out.push_str("\nsuspected causes:\n");
    if suspects.is_empty() {
        out.push_str(
            "  none found in the captured window — the ring may not reach back far \
             enough (raise NSCC_FLIGHT)\n",
        );
    } else {
        for s in suspects {
            out.push_str(&format!("  - {s}\n"));
        }
    }
    Ok(out)
}

/// An event as its variant name and body members.
type Tagged<'a> = (&'a str, &'a [(Rc<str>, Json)]);

/// The last [`TAIL`] of one process's events, after a count of the rest.
fn push_tail(out: &mut String, evs: &[Tagged<'_>]) {
    let skipped = evs.len().saturating_sub(TAIL);
    if skipped > 0 {
        out.push_str(&format!("    … {skipped} earlier in the ring\n"));
    }
    for &ev in &evs[skipped..] {
        out.push_str(&format!("    {}\n", line(ev)));
    }
}

/// One event as its timeline line: `[t] kind key=value …`.
fn line((kind, body): Tagged<'_>) -> String {
    format!("[{}] {}", ns(t_ns(body)), describe(kind, body))
}

/// Split an externally-tagged event (`{"ReadDone":{...}}`) into its
/// variant name and body: an element of another shape is read by its first
/// member, and a body that is not an object has no fields.
fn tagged(ev: Event<'_>) -> Option<Tagged<'_>> {
    match ev {
        Event::Tagged { kind, body, .. } => Some((kind, body)),
        Event::Other(json) => {
            let (kind, body) = json.as_obj()?.first()?;
            Some((kind, body.as_obj().unwrap_or(&[])))
        }
    }
}

/// A body's `t_ns`, or 0.
fn t_ns(body: &[(Rc<str>, Json)]) -> u64 {
    field(body, "t_ns").and_then(Json::as_u64).unwrap_or(0)
}

/// The rank an event belongs to, for timeline grouping: `rank` when the
/// variant carries one, else `src` (network / delivery events), else
/// `reader` (staleness-anatomy events).
fn event_rank(body: &[(Rc<str>, Json)]) -> Option<u64> {
    field(body, "rank")
        .or_else(|| field(body, "src"))
        .or_else(|| field(body, "reader"))
        .and_then(Json::as_u64)
}

/// ` (name)` when the dump carries a display name for the rank.
fn rank_name(names: &[&str], rank: u64) -> String {
    names
        .get(rank as usize)
        .map(|n| format!(" ({n})"))
        .unwrap_or_default()
}

/// One event as `kind key=value …` (skipping the timestamp, which the
/// caller renders). Field order follows the document, so output is
/// deterministic and golden-testable.
fn describe(kind: &str, body: &[(Rc<str>, Json)]) -> String {
    let mut out = String::from(kind);
    for (k, v) in body {
        if &**k == "t_ns" {
            continue;
        }
        let rendered = match v {
            // u64::MAX sentinels (relaxed reads, unbounded modes,
            // broadcast destinations): render them as what they mean.
            Json::Num(n) if n.integer() == Some(u64::MAX) => "max".to_string(),
            Json::Num(n) => num(n.as_f64()),
            Json::Str(s) => s.clone(),
            Json::Bool(b) => b.to_string(),
            other => format!("{other:?}"),
        };
        out.push_str(&format!(" {k}={rendered}"));
    }
    out
}

/// The deterministic cause heuristics: each is a cheap scan of the ring,
/// ordered most-specific first.
fn suspected_causes(
    reason: &str,
    violations: &[Json],
    events: &[Tagged<'_>],
    names: &[&str],
    per: &BTreeMap<u64, Vec<Tagged<'_>>>,
) -> Vec<String> {
    let mut out = Vec::new();

    // Staleness / monotonicity violations name a location in their
    // detail; attribute the most recent publish to that location by
    // another rank — on an injected-stale run this is the write whose
    // value the fault layer re-delivered out of order.
    for v in violations {
        let Some(detail) = v.get("detail").and_then(Json::as_str) else {
            continue;
        };
        let Some(loc) = loc_in(detail) else {
            continue;
        };
        let v_rank = v.get("rank").and_then(Json::as_u64).unwrap_or(u64::MAX);
        let v_t = v.get("t_ns").and_then(Json::as_u64).unwrap_or(u64::MAX);
        let mut last_write: Option<(u64, u64, u64)> = None; // (t, rank, age)
        for &(kind, body) in events {
            if kind != "Write" && kind != "AntiMessage" {
                continue;
            }
            let t = t_ns(body);
            let w_rank = field(body, "rank")
                .and_then(Json::as_u64)
                .unwrap_or(u64::MAX);
            if field(body, "loc").and_then(Json::as_u64) == Some(loc)
                && t <= v_t
                && w_rank != v_rank
            {
                last_write = Some((
                    t,
                    w_rank,
                    field(body, "age").and_then(Json::as_u64).unwrap_or(0),
                ));
            }
        }
        if let Some((t, w_rank, age)) = last_write {
            out.push(format!(
                "loc {loc} (flagged at [{}] on rank {v_rank}) was last published by rank \
                 {w_rank}{} at [{}], generation {age} — the delivered value predates it",
                ns(v_t),
                rank_name(names, w_rank),
                ns(t),
            ));
        }
    }

    // A rank whose final captured act is blocking on a Global_Read never
    // got its release — on a deadlock dump that IS the hang.
    for (&rank, evs) in per {
        let Some(&last) = evs.last() else {
            continue;
        };
        let last = line(last);
        if let Some(rest) = last.split("ReadBlocked").nth(1) {
            let verb = if reason == "deadlock" {
                "deadlocked on"
            } else {
                "still parked in"
            };
            out.push(format!(
                "rank {rank}{} {verb} a blocking Global_Read ({}) with no release in \
                 the captured window",
                rank_name(names, rank),
                rest.trim(),
            ));
        }
    }

    // Delivery-layer trouble: abandoned frames and suspected writers are
    // rare, loud, and almost always causal.
    let mut drops = 0u64;
    for &(kind, body) in events {
        let f = |k: &str| num(field(body, k).and_then(Json::as_f64).unwrap_or(0.0));
        match kind {
            "RetransmitGiveUp" => out.push(format!(
                "frame {}->{} seq {} abandoned at [{}] after exhausting retries",
                f("src"),
                f("dst"),
                f("seq"),
                ns(t_ns(body)),
            )),
            "WriterSuspected" => out.push(format!(
                "rank {} declared rank {} dead at [{}]",
                f("rank"),
                f("peer"),
                ns(t_ns(body)),
            )),
            "FaultDrop" => drops += 1,
            _ => {}
        }
    }
    if drops > 0 {
        out.push(format!(
            "fault layer dropped {drops} frame{} inside the captured window",
            if drops == 1 { "" } else { "s" }
        ));
    }

    if let Some(s) = guilty_stage(events) {
        out.push(s);
    }
    out
}

/// When the hop tracer was armed, the ring carries `ReadAnatomy` events
/// — each one a released read's observed age decomposed into the seven
/// named stages. Aggregate them and name the guilty stage: where the
/// captured window's staleness actually accrued.
fn guilty_stage(events: &[Tagged<'_>]) -> Option<String> {
    const STAGES: [&str; 7] = [
        "wait_ns",
        "publish_ns",
        "transit_ns",
        "fault_ns",
        "retrans_ns",
        "queue_ns",
        "apply_ns",
    ];
    let mut sums = [0u64; 7];
    let mut age_total = 0u64;
    let mut releases = 0u64;
    let mut leaks = 0u64;
    for &(kind, body) in events {
        if kind != "ReadAnatomy" {
            continue;
        }
        releases += 1;
        let mut stage_sum = 0u64;
        for (i, key) in STAGES.iter().enumerate() {
            let v = field(body, key).and_then(Json::as_u64).unwrap_or(0);
            sums[i] += v;
            stage_sum += v;
        }
        let age = field(body, "age_ns").and_then(Json::as_u64).unwrap_or(0);
        age_total += age;
        if stage_sum != age {
            leaks += 1;
        }
    }
    if releases == 0 || age_total == 0 {
        return None;
    }
    let (i, &worst) = sums
        .iter()
        .enumerate()
        .max_by_key(|&(i, &s)| (s, std::cmp::Reverse(i)))?;
    let name = STAGES[i].strip_suffix("_ns").unwrap_or(STAGES[i]);
    let mut line = format!(
        "staleness anatomy ({releases} traced release{} captured): guilty stage is \
         {name} — {} of {} total observed age ({:.1}%)",
        if releases == 1 { "" } else { "s" },
        ns(worst),
        ns(age_total),
        worst as f64 / age_total as f64 * 100.0,
    );
    if leaks > 0 {
        line.push_str(&format!(
            "; {leaks} decomposition{} did NOT sum to the observed age (hop-stamp bug)",
            if leaks == 1 { "" } else { "s" }
        ));
    }
    Some(line)
}

/// Parse the location index out of a violation detail (`… loc 9 …`).
fn loc_in(detail: &str) -> Option<u64> {
    let rest = detail.split("loc ").nth(1)?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::from_text;

    fn dump(doc: &str) -> Report {
        from_text("FLIGHT_t.json", doc)
    }

    #[test]
    fn rejects_non_flight_documents() {
        let rep = dump(r#"{"schema_version":5,"name":"t","metrics":{}}"#);
        let err = postmortem(&rep).unwrap_err();
        assert!(err.contains("not a flight-recorder dump"), "{err}");
    }

    #[test]
    fn stale_violation_is_attributed_to_the_releasing_writer() {
        let rep = dump(
            r#"{"schema_version":5,"kind":"flight","bench":"fault_study","seed":7,
                "reason":"violation","capacity":256,"proc_names":["ga-0","ga-1"],
                "violations":[{"monitor":"staleness","t_ns":5000,"rank":1,
                  "detail":"read of loc 9 delivered staleness 7 > requested bound 5"}],
                "events":[
                  {"Write":{"t_ns":1000,"rank":0,"loc":9,"age":3}},
                  {"Write":{"t_ns":2000,"rank":0,"loc":9,"age":10}},
                  {"ReadDone":{"t_ns":5000,"rank":1,"loc":9,"curr_iter":10,
                    "requested":5,"delivered":3,"staleness":7,"blocked":false,
                    "block_ns":0}}]}"#,
        );
        let text = postmortem(&rep).unwrap();
        assert!(
            text.contains("reason: violation — a coherence monitor"),
            "{text}"
        );
        assert!(
            text.contains("seed 7, ring capacity 256, 3 events"),
            "{text}"
        );
        assert!(text.contains("rank 0 (ga-0):"), "{text}");
        assert!(
            text.contains("loc 9 (flagged at [5.00us] on rank 1) was last published by rank 0"),
            "{text}"
        );
        assert!(text.contains("generation 10"), "{text}");
        // Deterministic output: same input renders the same bytes.
        assert_eq!(text, postmortem(&rep).unwrap());
    }

    #[test]
    fn deadlock_dump_blames_the_parked_reader_and_abandoned_frames() {
        let rep = dump(
            r#"{"schema_version":5,"kind":"flight","bench":"fig2","seed":3,
                "reason":"deadlock","capacity":64,"proc_names":[],
                "violations":[],
                "events":[
                  {"RetransmitGiveUp":{"t_ns":900,"src":0,"dst":1,"seq":41}},
                  {"ReadBlocked":{"t_ns":1000,"rank":1,"loc":2,"need":7}}]}"#,
        );
        let text = postmortem(&rep).unwrap();
        assert!(
            text.contains("rank 1 deadlocked on a blocking Global_Read (rank=1 loc=2 need=7)"),
            "{text}"
        );
        assert!(
            text.contains("frame 0->1 seq 41 abandoned at [900ns]"),
            "{text}"
        );
    }

    #[test]
    fn empty_ring_points_at_the_capacity_knob() {
        let rep = dump(
            r#"{"schema_version":5,"kind":"flight","bench":"fig2","seed":3,
                "reason":"fault","capacity":4,"proc_names":[],"violations":[],
                "events":[]}"#,
        );
        let text = postmortem(&rep).unwrap();
        assert!(text.contains("(ring is empty)"), "{text}");
        assert!(text.contains("raise NSCC_FLIGHT"), "{text}");
    }

    #[test]
    fn anatomy_events_name_the_guilty_stage() {
        let rep = dump(
            r#"{"schema_version":7,"kind":"flight","bench":"fault_study","seed":9,
                "reason":"violation","capacity":64,"proc_names":[],
                "violations":[],
                "events":[
                  {"ReadAnatomy":{"t_ns":9000,"reader":1,"writer":0,"loc":2,
                    "write_iter":4,"msg_seq":7,"age_ns":8000,"wait_ns":500,
                    "publish_ns":500,"transit_ns":5000,"fault_ns":1000,
                    "retrans_ns":0,"queue_ns":600,"apply_ns":400}},
                  {"ReadAnatomy":{"t_ns":9500,"reader":1,"writer":0,"loc":2,
                    "write_iter":5,"msg_seq":8,"age_ns":2000,"wait_ns":0,
                    "publish_ns":0,"transit_ns":1000,"fault_ns":0,
                    "retrans_ns":0,"queue_ns":500,"apply_ns":400}}]}"#,
        );
        let text = postmortem(&rep).unwrap();
        // 6000ns of transit out of 10000ns total observed age, and the
        // second event leaks 100ns (sum 1900 != age 2000).
        assert!(
            text.contains(
                "staleness anatomy (2 traced releases captured): guilty stage is \
                 transit — 6.00us of 10.00us total observed age (60.0%)"
            ),
            "{text}"
        );
        assert!(
            text.contains("1 decomposition did NOT sum to the observed age"),
            "{text}"
        );
    }

    #[test]
    fn long_tails_are_truncated_per_process() {
        let mut events = String::new();
        for i in 0..8 {
            if i > 0 {
                events.push(',');
            }
            events.push_str(&format!(
                r#"{{"Write":{{"t_ns":{},"rank":0,"loc":1,"age":{i}}}}}"#,
                i * 100
            ));
        }
        let rep = dump(&format!(
            r#"{{"schema_version":5,"kind":"flight","bench":"t","seed":1,
                "reason":"fault","capacity":8,"proc_names":[],"violations":[],
                "events":[{events}]}}"#
        ));
        let text = postmortem(&rep).unwrap();
        assert!(text.contains("… 3 earlier in the ring"), "{text}");
        assert!(text.contains("Write rank=0 loc=1 age=7"), "{text}");
        assert!(!text.contains("age=2\n"), "{text}");
    }
}
