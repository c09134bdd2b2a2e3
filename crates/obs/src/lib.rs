//! Unified observability layer for the NSCC workspace.
//!
//! Every runtime layer (simulation scheduler, network, message passing, DSM,
//! application runners) accepts an optional [`Hub`] — a cheap, cloneable,
//! single-threaded sink for structured [`ObsEvent`]s, execution [`Span`]s, and
//! warp samples. Detached layers hold `None` and pay exactly one branch per
//! event site; attached layers pay one `RefCell` borrow.
//!
//! On top of the raw streams the hub maintains derived metrics that the
//! paper's evaluation is built on:
//!
//! - a **staleness histogram** — the delivered-age gap `curr_iter −
//!   delivered_generation` of every `Global_Read`, which the coherence
//!   contract bounds by the requested age;
//! - **block-time** and **network-delay** histograms ([`Histogram`] is
//!   log₂-bucketed, mergeable and serializable);
//! - the **warp** samples ([`WarpTimeline`], §4.3 of the paper): the
//!   ratio of inter-arrival to inter-send times per (receiver, sender)
//!   pair, summarised as a distribution;
//! - a span [`Trace`] exportable as Chrome trace-event / Perfetto JSON
//!   ([`Hub::perfetto`]).
//!
//! The crate sits at the bottom of the workspace dependency graph: events
//! carry plain integers (times as nanoseconds, processes/ranks/locations as
//! `u32`) so `nscc-sim`, `nscc-net`, `nscc-msg`, `nscc-dsm` and the
//! application crates can all depend on it without cycles. `nscc-core`
//! assembles the hub's summary together with layer stats into a
//! machine-readable `RunReport`.

#![warn(missing_docs)]

pub mod event;
pub mod hub;
pub mod live;
pub mod perfetto;
pub mod span;
pub mod warp;

/// Version stamp carried by every machine-readable export (run reports,
/// event dumps). Consumers such as `nscc-analyze` refuse files whose
/// version does not match instead of guessing at missing or renamed keys.
/// Bump it whenever the export schema changes shape.
///
/// v3 adds the causal-attribution sections (per-location staleness
/// heatmaps, read-dependency edges, profiler rows, loc/proc name maps);
/// v4 adds the optional `wall` scheduler wall-clock accounting section on
/// run reports and the live telemetry feed ([`live`], versioned
/// separately by [`live::FEED_VERSION`]); v5 adds the optional `audit`
/// invariant-monitor section on run reports, the `SeqAccept` event and
/// the `bound` field on `Restore` (audit inputs), park-duration
/// quantiles on the wall section, and the flight-recorder dump document
/// (`FLIGHT_*.json`); v6 adds the recovery lifecycle meta events
/// (`SnapshotStart`/`SnapshotComplete`/`SupervisorRestart`/
/// `SupervisorGiveUp`, visible only in flight dumps and to the audit
/// tap) and the optional `recovery` supervision section on run reports;
/// v7 adds the `ReadAnatomy` staleness-decomposition meta event and the
/// optional `staleness` per-stage anatomy section on run reports
/// ([`hub::StalenessSummary`]), plus Perfetto flow events linking each
/// traced write to its releasing read. All additions are additive, so v7
/// readers keep accepting v1–v6 documents.
pub const SCHEMA_VERSION: u32 = 7;

/// A span/event label: borrowed for the common static case, owned when a
/// layer needs a dynamic label (per-location, per-island, …).
pub type Label = std::borrow::Cow<'static, str>;

pub use event::ObsEvent;
pub use hub::{
    DepEdge, EventSink, FlowRec, HeatRow, Hub, HubSummary, LinkStages, LocStages, MetricSnapshot,
    ProfileRow, StageSet, StalenessSummary,
};
pub use live::{ProcSched, SchedDelta, SchedSummary, FEED_VERSION};
/// The log₂ histogram, shared with the analyzer that reads it back.
pub use nscc_ckpt::hist::{self, Histogram};
pub use span::{Span, SpanKind, Trace, TraceTotals};
pub use warp::{WarpSummary, WarpTimeline};
