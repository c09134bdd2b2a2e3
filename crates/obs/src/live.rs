//! The live telemetry feed: a line-delimited JSON stream of metric
//! snapshots, counter deltas, and wall-clock scheduler accounting.
//!
//! Everything else the hub produces is post-mortem — you learn what a run
//! did after it ends. When a sink is attached ([`crate::hub::Hub::set_live`],
//! wired to `NSCC_LIVE=<path|fd>` by the bench harness), each periodic
//! [`MetricSnapshot`] additionally goes out, as it is cut, as one JSON
//! line a dashboard (`nscc top`) can tail while the run is still going.
//!
//! ## Feed line schema (version [`FEED_VERSION`])
//!
//! Every line is one complete JSON object stamped with `feed_version` and
//! a `kind` discriminator:
//!
//! - `kind:"start"` — one header line, written when the sink attaches:
//!   the bench name, the report `schema_version`, and the snapshot
//!   cadence in virtual ns (0 when snapshots are disabled, in which case
//!   the feed carries only this header and the final line).
//! - `kind:"snap"` — one line per periodic snapshot: the full
//!   [`MetricSnapshot`] under `snap` (cumulative counters, percentile
//!   digests), the counter deltas since the previous snap line under
//!   `delta`, the wall-clock time since the sink attached (`wall_ns`),
//!   the warp ratio `warp` = virtual ns / wall ns (how much faster than
//!   real time the simulation runs), and the scheduler's wall-clock
//!   self-accounting under `sched` (see [`SchedSummary`]).
//! - `kind:"final"` — one closing line with the run's cumulative event
//!   counters under `counters`, exactly the counter fields of the
//!   `HubSummary` embedded in the end-of-run `BENCH_*.json` report —
//!   byte-for-byte the same numbers, which `tests/live.rs` pins — plus
//!   the final `sched` totals.
//!
//! The schema only grows additively; removing or renaming a field bumps
//! [`FEED_VERSION`]. Readers must ignore unknown fields and unknown
//! `kind`s. Writes are line-buffered and flushed per line so a tailing
//! reader never sees a torn line once a newline has appeared.

use std::io::Write;
use std::time::Instant;

use nscc_ckpt::json::ToJson;

use crate::hub::{HubSummary, MetricSnapshot};

/// Version stamp carried by every live-feed line. Bumped whenever a feed
/// field is removed or renamed (additions keep the version, mirroring the
/// report schema's additive-growth policy).
pub const FEED_VERSION: u32 = 1;

/// Wall-clock self-accounting of the virtual-time scheduler, aggregated
/// across every simulation the hub observed.
///
/// These are *real* nanoseconds (`std::time::Instant`), not virtual ones:
/// they measure what the scheduler architecture costs on the host, which
/// is exactly the baseline the ROADMAP's scheduler-rearchitecture item
/// must beat. They are therefore nondeterministic across runs and
/// machines, and are kept strictly out of the deterministic report
/// sections: a `RunReport` carries them only under its optional `wall`
/// field (populated only on explicit request), never in `HubSummary`.
#[derive(Debug, Clone, Default, PartialEq, ToJson)]
pub struct SchedSummary {
    /// Queue entries executed (events + process resumptions).
    pub events: u64,
    /// Slices that ended with the process yielding (advance or block)
    /// rather than exiting. (The names date from thread-backed processes;
    /// the counts are per slice and never depended on threads.)
    pub parks: u64,
    /// Resume dispatches: slices handed to a process.
    pub unparks: u64,
    /// Resume dispatches whose process differs from the one resumed before
    /// (a process resuming itself is none). In-memory only: kept out of the
    /// live feed and the report's `wall` section, whose schemas are pinned.
    #[json(skip)]
    pub handoffs: u64,
    /// Wall ns spent inside process slices. The remainder of `wall_ns` is
    /// queue management, event closures and hand-off overhead.
    pub exec_ns: u64,
    /// Total wall ns spent inside scheduler event loops.
    pub wall_ns: u64,
    /// Queue entries executed per wall-clock second (`events` over
    /// `wall_ns`; 0 when nothing was measured).
    pub events_per_sec: f64,
    /// Median park duration in wall ns: the time between a process
    /// re-parking at the end of a slice and its next slice starting.
    /// Captures scheduler hand-off tail latency, not just totals — the
    /// other half of the ROADMAP item-1 baseline.
    pub park_p50_ns: u64,
    /// 99th-percentile park duration in wall ns.
    pub park_p99_ns: u64,
    /// Per-process slice accounting, sorted by pid. A process's parked
    /// wall time is `wall_ns − exec_ns` of its row (it is either running
    /// a slice or parked while the scheduler serves everyone else).
    pub procs: Vec<ProcSched>,
}

/// One process's share of the scheduler's wall-clock accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, ToJson)]
pub struct ProcSched {
    /// Process id (spawn order).
    pub pid: u32,
    /// Wall ns this process spent executing slices.
    pub exec_ns: u64,
    /// Slices served (= times this process was unparked).
    pub slices: u64,
}

/// One batch of scheduler accounting, flushed into the hub by a
/// simulation run (see `SimBuilder::attach_wall` in `nscc-sim`). All
/// fields are deltas since the previous flush; the hub accumulates.
#[derive(Debug, Clone, Default)]
pub struct SchedDelta {
    /// Queue entries executed since the last flush.
    pub events: u64,
    /// Slices ended by a yield since the last flush.
    pub parks: u64,
    /// Resume dispatches since the last flush.
    pub unparks: u64,
    /// Of those, resumes of a process other than the one resumed before.
    pub handoffs: u64,
    /// Wall ns spent in process slices since the last flush.
    pub exec_ns: u64,
    /// Wall ns elapsed in the event loop since the last flush.
    pub wall_ns: u64,
    /// Per-process `(pid, exec_ns, slices)` deltas.
    pub per_proc: Vec<(u32, u64, u64)>,
    /// Park-duration samples since the last flush (wall ns between a
    /// process parking and its next slice), as a mergeable histogram.
    pub park: crate::hist::Histogram,
}

/// Counter deltas between two consecutive snap lines (first snap line:
/// since the start of the run). Rates, where cumulative counters need a
/// subtraction first.
#[derive(Debug, Clone, Copy, Default, ToJson)]
struct SnapDelta {
    reads: u64,
    writes: u64,
    messages: u64,
    stale_discards: u64,
    faults_dropped: u64,
    retransmits: u64,
    degraded_reads: u64,
    blocked_reads: u64,
}

#[derive(ToJson)]
struct StartLine {
    feed_version: u32,
    kind: &'static str,
    bench: String,
    schema_version: u32,
    snap_every_ns: u64,
}

#[derive(ToJson)]
struct SnapLine {
    feed_version: u32,
    kind: &'static str,
    wall_ns: u64,
    warp: f64,
    snap: MetricSnapshot,
    delta: SnapDelta,
    sched: SchedSummary,
}

/// The cumulative event counters of the run, mirroring the counter
/// fields of `HubSummary` one-for-one (same names, same values).
#[derive(ToJson)]
struct FinalCounters {
    events: u64,
    events_dropped: u64,
    spans: u64,
    spans_dropped: u64,
    reads: u64,
    writes: u64,
    messages: u64,
    stale_discards: u64,
    barriers: u64,
    anti_messages: u64,
    faults_dropped: u64,
    faults_duplicated: u64,
    retransmits: u64,
    degraded_reads: u64,
    suspected_writers: u64,
    checkpoints: u64,
    restores: u64,
    mailbox_warnings: u64,
}

#[derive(ToJson)]
struct FinalLine {
    feed_version: u32,
    kind: &'static str,
    bench: String,
    wall_ns: u64,
    counters: FinalCounters,
    sched: SchedSummary,
}

/// The attached feed writer plus the state needed to compute per-line
/// deltas and the warp ratio. Owned by the hub's state.
pub(crate) struct LiveSink {
    out: Box<dyn Write>,
    bench: String,
    started: Instant,
    prev: Option<MetricSnapshot>,
}

impl LiveSink {
    /// Attach a sink and write the `start` header line.
    pub(crate) fn new(mut out: Box<dyn Write>, bench: &str, snap_every_ns: u64) -> LiveSink {
        let header = nscc_ckpt::json::to_json(&StartLine {
            feed_version: FEED_VERSION,
            kind: "start",
            bench: bench.to_string(),
            schema_version: crate::SCHEMA_VERSION,
            snap_every_ns,
        });
        let _ = writeln!(out, "{header}");
        let _ = out.flush();
        LiveSink {
            out,
            bench: bench.to_string(),
            started: Instant::now(),
            prev: None,
        }
    }

    /// Emit one `snap` line for a freshly cut snapshot.
    pub(crate) fn snap(&mut self, snap: MetricSnapshot, sched: SchedSummary) {
        let wall_ns = self.started.elapsed().as_nanos() as u64;
        let prev = self.prev.replace(snap);
        let d = |cur: u64, prev: u64| cur.saturating_sub(prev);
        let delta = match prev {
            None => SnapDelta {
                reads: snap.reads,
                writes: snap.writes,
                messages: snap.messages,
                stale_discards: snap.stale_discards,
                faults_dropped: snap.faults_dropped,
                retransmits: snap.retransmits,
                degraded_reads: snap.degraded_reads,
                blocked_reads: snap.blocked_reads,
            },
            Some(p) => SnapDelta {
                reads: d(snap.reads, p.reads),
                writes: d(snap.writes, p.writes),
                messages: d(snap.messages, p.messages),
                stale_discards: d(snap.stale_discards, p.stale_discards),
                faults_dropped: d(snap.faults_dropped, p.faults_dropped),
                retransmits: d(snap.retransmits, p.retransmits),
                degraded_reads: d(snap.degraded_reads, p.degraded_reads),
                blocked_reads: d(snap.blocked_reads, p.blocked_reads),
            },
        };
        let line = nscc_ckpt::json::to_json(&SnapLine {
            feed_version: FEED_VERSION,
            kind: "snap",
            wall_ns,
            warp: if wall_ns == 0 {
                0.0
            } else {
                snap.t_ns as f64 / wall_ns as f64
            },
            snap,
            delta,
            sched,
        });
        let _ = writeln!(self.out, "{line}");
        let _ = self.out.flush();
    }

    /// Emit the closing `final` line from the end-of-run summary.
    pub(crate) fn finish(&mut self, obs: &HubSummary, sched: SchedSummary) {
        let line = nscc_ckpt::json::to_json(&FinalLine {
            feed_version: FEED_VERSION,
            kind: "final",
            bench: self.bench.clone(),
            wall_ns: self.started.elapsed().as_nanos() as u64,
            counters: FinalCounters {
                events: obs.events,
                events_dropped: obs.events_dropped,
                spans: obs.spans,
                spans_dropped: obs.spans_dropped,
                reads: obs.reads,
                writes: obs.writes,
                messages: obs.messages,
                stale_discards: obs.stale_discards,
                barriers: obs.barriers,
                anti_messages: obs.anti_messages,
                faults_dropped: obs.faults_dropped,
                faults_duplicated: obs.faults_duplicated,
                retransmits: obs.retransmits,
                degraded_reads: obs.degraded_reads,
                suspected_writers: obs.suspected_writers,
                checkpoints: obs.checkpoints,
                restores: obs.restores,
                mailbox_warnings: obs.mailbox_warnings,
            },
            sched,
        });
        let _ = writeln!(self.out, "{line}");
        let _ = self.out.flush();
    }
}
