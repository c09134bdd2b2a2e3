//! Chrome trace-event ("Perfetto") export of span traces.
//!
//! The output loads in <https://ui.perfetto.dev> or `chrome://tracing`.
//! Spans render as complete (`"ph":"X"`) events with microsecond
//! timestamps. Each [`SpanKind`] becomes its own trace *process* lane —
//! `compute`, `blocked`, `phase` — and each simulated process/rank becomes
//! a *thread* inside the lane, named via [`Hub::set_proc_name`]
//! (`crate::Hub::set_proc_name`). Within one (lane, thread) row the
//! emitting layers guarantee spans do not overlap: a process computes,
//! blocks, and passes through phases strictly sequentially.

use std::collections::{BTreeMap, BTreeSet};

use nscc_ckpt::json::{to_json, ToJson};

use crate::hub::FlowRec;
use crate::span::{Span, SpanKind};

/// The trace-event "process" lane a span kind renders into.
pub fn lane(kind: SpanKind) -> (u32, &'static str) {
    match kind {
        SpanKind::Compute => (1, "compute"),
        SpanKind::Blocked => (2, "blocked"),
        SpanKind::Phase => (3, "phase"),
    }
}

#[derive(ToJson)]
struct Complete<'a> {
    name: &'a str,
    cat: &'static str,
    ph: &'static str,
    ts: f64,
    dur: f64,
    pid: u32,
    tid: u32,
}

#[derive(ToJson)]
struct MetaArgs<'a> {
    name: &'a str,
}

#[derive(ToJson)]
struct Meta<'a> {
    name: &'static str,
    ph: &'static str,
    pid: u32,
    tid: u32,
    args: MetaArgs<'a>,
}

#[derive(ToJson)]
struct Flow {
    name: &'static str,
    cat: &'static str,
    ph: &'static str,
    ts: f64,
    pid: u32,
    tid: u32,
    id: u64,
    /// `"e"` on the finish; `null` on the start and step, which a viewer
    /// treats as absent.
    bp: Option<&'static str>,
}

#[derive(ToJson)]
#[json(untagged)]
enum Event<'a> {
    Complete(Complete<'a>),
    Meta(Meta<'a>),
    Flow(Flow),
}

#[derive(ToJson)]
struct Doc<'a> {
    #[json(rename = "traceEvents")]
    trace_events: Vec<Event<'a>>,
    #[json(rename = "displayTimeUnit")]
    display_time_unit: &'static str,
}

/// Render spans (plus pid/rank display names) as a complete JSON trace
/// document.
pub fn export(spans: &[Span], names: &BTreeMap<u32, String>) -> String {
    export_with_flows(spans, names, &[])
}

/// [`export`], plus one Chrome flow (`ph:"s"/"t"/"f"`, category
/// `staleness`) per write→apply→release record from the staleness tracer:
/// a start arrow on the writer's compute lane at the write time, a step on
/// the reader's blocked lane at mailbox pop, and an enclosing-slice finish
/// (`bp:"e"`) on the reader's phase lane at release. In the viewer the
/// arrows walk exactly the hops the anatomy histograms aggregate.
pub fn export_with_flows(
    spans: &[Span],
    names: &BTreeMap<u32, String>,
    flows: &[FlowRec],
) -> String {
    let mut events: Vec<Event<'_>> = Vec::with_capacity(spans.len() + 3 * flows.len() + 16);
    let mut rows: BTreeSet<(u32, u32)> = BTreeSet::new();
    for s in spans {
        let (pid, cat) = lane(s.kind);
        rows.insert((pid, s.pid));
        events.push(Event::Complete(Complete {
            name: s.label.as_ref(),
            cat,
            ph: "X",
            ts: s.start_ns as f64 / 1_000.0,
            dur: s.end_ns.saturating_sub(s.start_ns) as f64 / 1_000.0,
            pid,
            tid: s.pid,
        }));
    }
    let (compute, _) = lane(SpanKind::Compute);
    let (blocked, _) = lane(SpanKind::Blocked);
    let (phase, _) = lane(SpanKind::Phase);
    for f in flows {
        rows.insert((compute, f.writer));
        rows.insert((blocked, f.reader));
        rows.insert((phase, f.reader));
        for (ph, ts, pid, tid, bp) in [
            ("s", f.write_ns, compute, f.writer, None),
            ("t", f.recv_ns, blocked, f.reader, None),
            ("f", f.release_ns, phase, f.reader, Some("e")),
        ] {
            events.push(Event::Flow(Flow {
                name: "staleness",
                cat: "staleness",
                ph,
                ts: ts as f64 / 1_000.0,
                pid,
                tid,
                id: f.id,
                bp,
            }));
        }
    }
    let mut fallback: BTreeMap<u32, String> = BTreeMap::new();
    for &(_, tid) in &rows {
        fallback.entry(tid).or_insert_with(|| format!("p{tid}"));
    }
    let lanes: BTreeSet<u32> = rows.iter().map(|&(pid, _)| pid).collect();
    for kind in [SpanKind::Compute, SpanKind::Blocked, SpanKind::Phase] {
        let (pid, lane_name) = lane(kind);
        if !lanes.contains(&pid) {
            continue;
        }
        events.push(Event::Meta(Meta {
            name: "process_name",
            ph: "M",
            pid,
            tid: 0,
            args: MetaArgs { name: lane_name },
        }));
    }
    for &(pid, tid) in &rows {
        let name = names.get(&tid).unwrap_or(&fallback[&tid]);
        events.push(Event::Meta(Meta {
            name: "thread_name",
            ph: "M",
            pid,
            tid,
            args: MetaArgs { name },
        }));
    }
    to_json(&Doc {
        trace_events: events,
        display_time_unit: "ms",
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nscc_ckpt::json::parse;

    #[test]
    fn exports_valid_trace_document() {
        let spans = vec![
            Span {
                pid: 0,
                start_ns: 0,
                end_ns: 5_000,
                kind: SpanKind::Compute,
                label: "run".into(),
            },
            Span {
                pid: 0,
                start_ns: 5_000,
                end_ns: 9_000,
                kind: SpanKind::Blocked,
                label: "rank0".into(),
            },
            Span {
                pid: 1,
                start_ns: 0,
                end_ns: 2_500,
                kind: SpanKind::Phase,
                label: "barrier".into(),
            },
        ];
        let mut names = BTreeMap::new();
        names.insert(0u32, "island0".to_string());
        let doc = export(&spans, &names);
        parse(&doc).unwrap();
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"thread_name\""));
        assert!(doc.contains("island0"));
        // Unnamed pid 1 gets a fallback name.
        assert!(doc.contains("\"p1\""));
        // Compute lane is pid 1, blocked lane pid 2, phase lane pid 3.
        assert!(doc.contains("\"cat\":\"compute\""));
        assert!(doc.contains("\"cat\":\"blocked\""));
        assert!(doc.contains("\"cat\":\"phase\""));
    }

    #[test]
    fn empty_trace_is_still_valid() {
        let doc = export(&[], &BTreeMap::new());
        parse(&doc).unwrap();
    }

    #[test]
    fn flow_records_render_as_start_step_finish_triples() {
        let spans = vec![Span {
            pid: 0,
            start_ns: 0,
            end_ns: 5_000,
            kind: SpanKind::Compute,
            label: "run".into(),
        }];
        let flows = vec![FlowRec {
            id: 1,
            writer: 0,
            reader: 2,
            loc: 7,
            write_ns: 1_000,
            recv_ns: 4_000,
            release_ns: 6_000,
        }];
        let doc = export_with_flows(&spans, &BTreeMap::new(), &flows);
        parse(&doc).unwrap();
        assert!(doc.contains("\"ph\":\"s\""));
        assert!(doc.contains("\"ph\":\"t\""));
        assert!(doc.contains("\"ph\":\"f\""));
        assert!(doc.contains("\"bp\":\"e\""));
        assert!(doc.contains("\"cat\":\"staleness\""));
        // Flow rows get thread_name metas even without spans of their own:
        // the reader appears in both the blocked and phase lanes.
        assert!(doc.contains("\"p2\""));
        // No flows → byte-identical to the plain export.
        assert_eq!(export(&spans, &BTreeMap::new()), {
            let no_flows: Vec<FlowRec> = Vec::new();
            export_with_flows(&spans, &BTreeMap::new(), &no_flows)
        });
    }
}
