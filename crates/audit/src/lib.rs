//! Online coherence auditor and black-box flight recorder.
//!
//! The paper's relaxed coherence contract is easy to state and easy to
//! silently violate: a `Global_Read` must never observe a value more than
//! `age` iterations stale, writes per location must never move backwards
//! in time (outside an explicit rollback), the reliable-delivery layer
//! must never hand the same frame to the application twice, barrier
//! epochs must advance in lockstep, a crash restore must never roll a
//! node back further than the coherence mode promises, a consistent
//! snapshot must never pause the islands it cuts across, and — when the
//! staleness tracer is armed — every released read's named stage
//! durations must sum exactly to its observed age. This crate checks all
//! seven invariants *online*, as a [`nscc_obs::EventSink`] tap on the
//! observability hub, and packages the results two ways:
//!
//! * an [`AuditSummary`] that lands in the run report's `audit` section
//!   (rendered by `nscc audit`, enforced by `nscc gate`), and
//! * a deterministic flight-recorder dump ([`FlightDump`]) built from the
//!   hub's bounded event ring, written when something goes wrong and
//!   analyzed offline by `nscc postmortem`.
//!
//! # Determinism contract
//!
//! Monitors are read-only observers: [`Auditor::on_event`] never touches
//! hub counters, the raw event store, or any simulation state, so a
//! monitors-on run produces byte-identical reports to a monitors-off run
//! apart from the `audit` section itself. The flight ring is likewise a
//! side channel (see [`nscc_obs::Hub::enable_flight`]).

#![warn(missing_docs)]

// crates/perf/build-offline.sh passes no `--extern nscc_ckpt` here, only `-L`.
extern crate nscc_ckpt;

mod flight;
mod monitors;

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use nscc_ckpt::json::ToJson;
use nscc_obs::{EventSink, ObsEvent};

pub use flight::{render_flight_dump, FlightDump};
pub use monitors::{
    BarrierMonitor, ConservationMonitor, MonotonicityMonitor, RollbackMonitor, SequenceMonitor,
    SnapshotMonitor, StalenessMonitor,
};

/// Hard cap on individually recorded violations. Monitors keep exact
/// *counts* past the cap; only the detailed records stop accumulating
/// (`AuditSummary::dropped` says how many were elided).
pub const MAX_RECORDED_VIOLATIONS: usize = 64;

/// One invariant violation, as recorded by a monitor.
#[derive(Debug, Clone, ToJson)]
pub struct Violation {
    /// Name of the monitor that flagged it (`staleness`, `monotonicity`,
    /// `sequence`, `barrier`, `rollback`).
    pub monitor: &'static str,
    /// Virtual time of the offending event.
    pub t_ns: u64,
    /// Rank the violation is attributed to (the reader, writer, receiver
    /// or recovering rank, depending on the monitor).
    pub rank: u32,
    /// Human-readable description with the numbers that matter.
    pub detail: String,
}

/// An invariant monitor driven by the observability event stream.
///
/// Monitors are pure observers: they may keep private state but must not
/// mutate anything outside themselves. `on_event` sees *every* hub event
/// in emission order; implementations filter for the kinds they audit.
pub trait Monitor: Send {
    /// Stable monitor name (used in reports and violation records).
    fn name(&self) -> &'static str;
    /// Inspect one event, appending any violations found.
    fn on_event(&mut self, ev: &ObsEvent, out: &mut Vec<Violation>);
    /// A program run boundary: sequence numbers, barrier epochs and
    /// watermarks legitimately restart here. Monitors drop per-run state.
    fn on_run_boundary(&mut self) {}
    /// How many events this monitor actually checked (not just saw).
    fn checked(&self) -> u64;
}

/// Per-monitor statistics for the report's `audit` section.
#[derive(Debug, Clone, ToJson)]
pub struct MonitorStat {
    /// Monitor name.
    pub name: &'static str,
    /// Events the monitor checked.
    pub checked: u64,
    /// Violations it flagged (exact, even past the recording cap).
    pub violations: u64,
}

/// The run report's `audit` section: what was checked, what failed.
#[derive(Debug, Clone, ToJson)]
pub struct AuditSummary {
    /// Per-monitor breakdown, in registration order.
    pub monitors: Vec<MonitorStat>,
    /// Total events checked across all monitors.
    pub checked: u64,
    /// Total violations across all monitors (exact).
    pub violations: u64,
    /// Violations elided from `recorded` past
    /// [`MAX_RECORDED_VIOLATIONS`].
    pub dropped: u64,
    /// The first recorded violations, in detection order.
    pub recorded: Vec<Violation>,
}

impl AuditSummary {
    /// Whether the audited run was clean.
    pub fn clean(&self) -> bool {
        self.violations == 0
    }
}

struct AuditorInner {
    monitors: Vec<Box<dyn Monitor>>,
    recorded: Vec<Violation>,
    /// Exact per-monitor violation counts (keyed by monitor name).
    counts: BTreeMap<&'static str, u64>,
    dropped: u64,
    scratch: Vec<Violation>,
}

/// The auditor: a bundle of [`Monitor`]s behind a [`nscc_obs::EventSink`]
/// facade, suitable for [`nscc_obs::Hub::set_tap`].
///
/// One auditor can serve several hubs in sequence (the bench harness
/// shares one across per-cell hubs), accumulating a single
/// [`AuditSummary`] for the whole run.
///
/// The mutex is the workspace's last lock around single-threaded state:
/// a simulation and its hub never leave their thread, but the frozen
/// `crates/perf` writes `Arc::new(Auditor::new())`, which clippy's
/// `arc_with_non_send_sync` accepts only for a `Send + Sync` auditor.
/// It goes (a `RefCell`, callers holding an `Rc`) when ROADMAP item 1
/// unfreezes that crate.
pub struct Auditor {
    inner: Mutex<AuditorInner>,
}

const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Auditor>();
};

impl Default for Auditor {
    fn default() -> Self {
        Self::new()
    }
}

impl Auditor {
    /// An auditor with the full standard monitor set: staleness-bound,
    /// write monotonicity, reliable-delivery sequence sanity, barrier
    /// epoch ordering, rollback bound, snapshot lifecycle and staleness
    /// anatomy conservation.
    pub fn new() -> Self {
        Auditor::with_monitors(vec![
            Box::new(StalenessMonitor::default()),
            Box::new(MonotonicityMonitor::default()),
            Box::new(SequenceMonitor::default()),
            Box::new(BarrierMonitor::default()),
            Box::new(RollbackMonitor::default()),
            Box::new(SnapshotMonitor::default()),
            Box::new(ConservationMonitor::default()),
        ])
    }

    /// An auditor over a custom monitor set.
    pub fn with_monitors(monitors: Vec<Box<dyn Monitor>>) -> Self {
        let counts = monitors.iter().map(|m| (m.name(), 0u64)).collect();
        Auditor {
            inner: Mutex::new(AuditorInner {
                monitors,
                recorded: Vec::new(),
                counts,
                dropped: 0,
                scratch: Vec::new(),
            }),
        }
    }

    /// A monitor that panicked mid-event poisons nothing worth refusing:
    /// counts and records are whole after every step, and whoever caught
    /// the panic still wants them.
    fn inner(&self) -> MutexGuard<'_, AuditorInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Total violations flagged so far (exact).
    pub fn violation_count(&self) -> u64 {
        self.inner().counts.values().sum()
    }

    /// Snapshot the audit results for the run report.
    pub fn summary(&self) -> AuditSummary {
        let inner = self.inner();
        let monitors: Vec<MonitorStat> = inner
            .monitors
            .iter()
            .map(|m| MonitorStat {
                name: m.name(),
                checked: m.checked(),
                violations: *inner.counts.get(m.name()).unwrap_or(&0),
            })
            .collect();
        let checked = monitors.iter().map(|m| m.checked).sum();
        let violations = monitors.iter().map(|m| m.violations).sum();
        AuditSummary {
            monitors,
            checked,
            violations,
            dropped: inner.dropped,
            recorded: inner.recorded.clone(),
        }
    }

    /// The recorded violations (capped), for flight dumps.
    pub fn recorded(&self) -> Vec<Violation> {
        self.inner().recorded.clone()
    }
}

impl EventSink for Auditor {
    fn on_event(&self, ev: &ObsEvent) {
        let inner = &mut *self.inner();
        for m in &mut inner.monitors {
            m.on_event(ev, &mut inner.scratch);
        }
        for v in inner.scratch.drain(..) {
            *inner.counts.entry(v.monitor).or_insert(0) += 1;
            if inner.recorded.len() < MAX_RECORDED_VIOLATIONS {
                inner.recorded.push(v);
            } else {
                inner.dropped += 1;
            }
        }
    }

    fn on_run_boundary(&self) {
        let mut inner = self.inner();
        for m in &mut inner.monitors {
            m.on_run_boundary();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_done(curr: u64, requested: u64, staleness: u64) -> ObsEvent {
        ObsEvent::ReadDone {
            t_ns: 1,
            rank: 0,
            loc: 0,
            curr_iter: curr,
            requested,
            delivered: curr.saturating_sub(staleness),
            staleness,
            blocked: false,
            block_ns: 0,
        }
    }

    #[test]
    fn clean_stream_audits_clean() {
        let a = Auditor::new();
        a.on_event(&read_done(10, 5, 3));
        a.on_event(&ObsEvent::Write {
            t_ns: 2,
            rank: 0,
            loc: 0,
            age: 1,
        });
        let s = a.summary();
        assert!(s.clean());
        assert_eq!(s.checked, 2);
        assert_eq!(s.monitors.len(), 7);
    }

    #[test]
    fn stale_read_is_flagged() {
        let a = Auditor::new();
        a.on_event(&read_done(10, 5, 7));
        let s = a.summary();
        assert_eq!(s.violations, 1);
        assert_eq!(s.recorded[0].monitor, "staleness");
    }

    #[test]
    fn recording_cap_counts_exactly() {
        let a = Auditor::new();
        for _ in 0..(MAX_RECORDED_VIOLATIONS as u64 + 10) {
            a.on_event(&read_done(10, 5, 7));
        }
        let s = a.summary();
        assert_eq!(s.violations, MAX_RECORDED_VIOLATIONS as u64 + 10);
        assert_eq!(s.recorded.len(), MAX_RECORDED_VIOLATIONS);
        assert_eq!(s.dropped, 10);
    }

    #[test]
    fn run_boundary_resets_sequence_state() {
        let a = Auditor::new();
        let acc = ObsEvent::SeqAccept {
            t_ns: 1,
            src: 0,
            dst: 1,
            seq: 0,
        };
        a.on_event(&acc);
        a.on_run_boundary();
        a.on_event(&acc); // same triple, new program run: legitimate
        assert_eq!(a.violation_count(), 0);
        a.on_event(&acc); // within the same run: duplicate
        assert_eq!(a.violation_count(), 1);
    }
}
