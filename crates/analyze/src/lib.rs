//! Post-hoc analysis of NSCC observability artifacts.
//!
//! `nscc run` (with `--json` / `--trace`) emits two
//! kinds of JSON artifact through the obs hub:
//!
//! - `BENCH_*.json` **run reports** — headline metrics, raw counters,
//!   log₂ histograms (staleness, block time, network delay), warp
//!   summary, and periodic metric snapshots on a virtual-time cadence;
//! - `TRACE_*.json` **event dumps** — the full structured event stream
//!   plus execution spans.
//!
//! This crate is the read side: the `nscc` binary (the root package's
//! `src/main.rs`) loads those artifacts through it and answers the
//! questions the paper's evaluation keeps asking —
//!
//! - [`inspect()`] — where did the time go? Per-process blocked-time
//!   attribution (compute vs `Global_Read` blocking vs barrier waits),
//!   the critical path through send/deliver edges, staleness CDFs,
//!   queue-depth and warp timelines.
//! - [`causal::why`] — *why* was a process blocked? Walks the causal
//!   dependency edges a v3 report carries: which writer's update to which
//!   location released each blocking `Global_Read`, with the queued /
//!   in-flight / retransmit-delayed breakdown of the releasing frames.
//! - [`causal::heat`] — where does staleness concentrate? Per-location
//!   staleness heatmaps rendered from the `obs.heat` section.
//! - [`diff()`] — what changed between two runs (say `age=0` vs `age=20`)?
//!   Structured deltas of every metric, counter, histogram percentile,
//!   and the convergence-vs-virtual-time curve.
//! - [`gate`] — did this commit regress? Fresh reports vs checked-in
//!   `baselines/` with per-metric thresholds; nonzero exit on drift
//!   (wired into CI).
//! - [`inspect_ckpt_dir`] — what state is in a checkpoint store
//!   (`--ckpt-dir`)? Generation listing with virtual cut times,
//!   sizes, checksums, per-node iteration vectors and corruption flags.
//! - [`top`] — what is the run doing *right now*? Tails the
//!   line-delimited `--live` feed: per-snapshot rates, staleness and
//!   fault pressure, warp, and the scheduler's wall-clock
//!   self-accounting (`--once` renders a single deterministic frame).
//! - [`trend`] — is a metric drifting across commits? Ordered
//!   `BENCH_<name>.<seq>.json` trajectory series (committed under
//!   `runs/`) rendered as per-metric sparklines with rolling-median
//!   drift detection (`--check` turns drift into a CI failure).
//! - [`audit::audit`] — did the run uphold its coherence contract? The
//!   online monitor verdict an `--audit` run stamps into its
//!   report: per-monitor check counts and every recorded violation.
//! - [`anatomy::anatomy`] — where did every nanosecond of staleness go?
//!   Renders the `staleness` section a `--staleness` run stamps:
//!   the observed-age distribution, the seven-stage decomposition ranked
//!   by total time, the top offending locations and links, and the
//!   conservation verdict (stage sums must equal observed ages exactly).
//! - [`drill::drill`] — did recovery actually work? Renders a report's
//!   `recovery` section (marker waves, consistent cuts, cut-served
//!   restores, supervisor restarts/retirements) and re-verifies the
//!   rollback-within-age-bound invariant from the report alone.
//! - [`postmortem()`] — why did the run die? Reads the flight-recorder
//!   dump (`FLIGHT_*.json`, cut from the `--flight` event ring on a
//!   violation, fault, or deadlock): per-process last-events timelines
//!   plus suspected-cause heuristics over the captured window.
//!
//! The crate depends only on `nscc-ckpt` (itself std-only, for reading
//! checkpoint stores and for the workspace's one strict JSON reader,
//! re-exported as [`json`]) and otherwise stays **dependency-free**: it
//! mirrors the writer-side schema constants ([`report::SCHEMA_VERSION`]).
//! That keeps the analyzer buildable anywhere the toolchain exists, with
//! no version skew against the simulator it inspects beyond the schema
//! number it checks.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod anatomy;
pub mod audit;
pub mod causal;
pub mod ckpt;
pub mod diff;
pub mod drill;
pub mod fmt;
pub mod gate;
pub mod inspect;
pub mod postmortem;
pub mod report;
pub mod top;
pub mod trend;

pub use anatomy::anatomy;
pub use audit::audit;
pub use causal::{heat, why};
pub use ckpt::inspect_ckpt_dir;
pub use diff::diff;
pub use drill::drill;
pub use gate::{gate_all, gate_pair, update_baselines, GateConfig, Outcome};
pub use inspect::inspect;
pub use nscc_ckpt::json;
pub use postmortem::postmortem;
pub use report::{Report, SCHEMA_VERSION};
pub use top::{follow, parse_feed, top_file, FEED_VERSION};
pub use trend::{trend_dir, trend_files, TrendConfig};
