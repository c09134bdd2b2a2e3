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
/// mutate anything outside themselves. `on_event` sees every hub event of
/// a kind the monitor [`watches`](Monitor::watches), in emission order.
pub trait Monitor: Send {
    /// Stable monitor name (used in reports and violation records).
    fn name(&self) -> &'static str;
    /// Whether `on_event` reads events of `kind` (an
    /// [`ObsEvent::kind`] name). Asked once per kind when an [`Auditor`]
    /// is built; events of a kind no monitor watches never take its lock.
    /// By default a monitor watches every kind.
    fn watches(&self, kind: &str) -> bool {
        let _ = kind;
        true
    }
    /// Inspect one event of a watched kind, appending any violations
    /// found.
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
    /// Per kind, at its [`ObsEvent::kind_index`], the indices of the
    /// monitors that watch it, in registration order. Fixed at
    /// construction, so it is read without the lock.
    dispatch: Vec<Vec<usize>>,
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
        let dispatch = ObsEvent::KINDS
            .iter()
            .map(|kind| {
                (0..monitors.len())
                    .filter(|&i| monitors[i].watches(kind))
                    .collect()
            })
            .collect();
        Auditor {
            dispatch,
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
        let watchers = &self.dispatch[ev.kind_index()];
        if watchers.is_empty() {
            return;
        }
        let inner = &mut *self.inner();
        for &i in watchers {
            inner.monitors[i].on_event(ev, &mut inner.scratch);
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

    /// One event of every kind, at its `kind_index`, 100 ns apart. The
    /// values are ones a monitor matching the event would check or flag.
    fn one_of_each() -> Vec<ObsEvent> {
        let (src, dst, rank, loc, seq) = (0, 1, 1, 4, 9);
        let mut t_ns = 0;
        let mut t = || {
            t_ns += 100;
            t_ns
        };
        vec![
            ObsEvent::NetSend {
                t_ns: t(),
                src,
                dst,
                bytes: 64,
                queue_ns: 5,
            },
            ObsEvent::NetDeliver {
                t_ns: t(),
                src,
                dst,
                delay_ns: 2_000,
            },
            ObsEvent::Write {
                t_ns: t(),
                rank,
                loc,
                age: 3,
            },
            ObsEvent::ReadBlocked {
                t_ns: t(),
                rank,
                loc,
                required: 5,
            },
            ObsEvent::ReadDone {
                t_ns: t(),
                rank,
                loc,
                curr_iter: 10,
                requested: 1,
                delivered: 2,
                staleness: 8,
                blocked: true,
                block_ns: 700,
            },
            ObsEvent::StaleDiscard {
                t_ns: t(),
                rank,
                loc,
                age: 2,
                have: 3,
            },
            ObsEvent::BarrierEnter {
                t_ns: t(),
                rank,
                epoch: 1,
            },
            ObsEvent::BarrierExit {
                t_ns: t(),
                rank,
                epoch: 2,
                wait_ns: 40,
            },
            ObsEvent::AntiMessage {
                t_ns: t(),
                rank,
                loc,
                age: 4,
            },
            ObsEvent::FaultDrop {
                t_ns: t(),
                src,
                dst,
                reason: "loss".into(),
            },
            ObsEvent::FaultDup {
                t_ns: t(),
                src,
                dst,
            },
            ObsEvent::Retransmit {
                t_ns: t(),
                src,
                dst,
                seq,
                attempt: 1,
            },
            ObsEvent::RetransmitGiveUp {
                t_ns: t(),
                src,
                dst,
                seq,
            },
            ObsEvent::ReadDegraded {
                t_ns: t(),
                rank,
                loc,
                required: 5,
                delivered: 2,
            },
            ObsEvent::WriterSuspected {
                t_ns: t(),
                rank,
                peer: 0,
            },
            ObsEvent::Checkpoint {
                t_ns: t(),
                rank,
                iter: 5,
                bytes: 128,
            },
            ObsEvent::Restore {
                t_ns: t(),
                rank,
                from_iter: 9,
                to_iter: 1,
                rollback: 8,
                bound: 4,
            },
            ObsEvent::SeqAccept {
                t_ns: t(),
                src,
                dst,
                seq,
            },
            ObsEvent::ReadDep {
                t_ns: t(),
                reader: rank,
                writer: 0,
                loc,
                write_iter: 9,
                msg_seq: 4,
                block_ns: 1_000,
                queued_ns: 100,
                inflight_ns: 800,
                retrans_ns: 0,
            },
            ObsEvent::MailboxHigh {
                t_ns: t(),
                rank,
                depth: 64,
            },
            ObsEvent::SnapshotStart {
                t_ns: t(),
                rank,
                id: 1,
                gen: 5,
            },
            ObsEvent::SnapshotComplete {
                t_ns: t(),
                rank,
                id: 2,
                inflight: 2,
                pause_ns: 10,
            },
            ObsEvent::SupervisorRestart {
                t_ns: t(),
                rank,
                attempt: 1,
                backoff_ns: 1_000,
            },
            ObsEvent::SupervisorGiveUp {
                t_ns: t(),
                rank,
                restarts: 3,
            },
            ObsEvent::ReadAnatomy {
                t_ns: t(),
                reader: rank,
                writer: 0,
                loc,
                write_iter: 9,
                msg_seq: 4,
                age_ns: 1_000,
                wait_ns: 1,
                publish_ns: 2,
                transit_ns: 3,
                fault_ns: 4,
                retrans_ns: 5,
                queue_ns: 6,
                apply_ns: 7,
            },
            ObsEvent::Custom {
                t_ns: t(),
                label: "mark".into(),
            },
        ]
    }

    /// A monitor whose whole state can be compared.
    trait Inspectable: Monitor + std::fmt::Debug {}
    impl<M: Monitor + std::fmt::Debug> Inspectable for M {}

    /// The monitors of [`Auditor::new`], fresh and inspectable.
    fn standard() -> Vec<Box<dyn Inspectable>> {
        vec![
            Box::new(StalenessMonitor::default()),
            Box::new(MonotonicityMonitor::default()),
            Box::new(SequenceMonitor::default()),
            Box::new(BarrierMonitor::default()),
            Box::new(RollbackMonitor::default()),
            Box::new(SnapshotMonitor::default()),
            Box::new(ConservationMonitor::default()),
        ]
    }

    /// A monitor is shown only the kinds it watches, so an event of any
    /// other kind must mean nothing to it: handed one directly, after the
    /// kinds it does watch, it checks nothing, flags nothing and changes
    /// no state. A monitor that starts matching a kind without watching it
    /// fails here instead of going blind.
    #[test]
    fn a_monitor_ignores_every_kind_it_does_not_watch() {
        let ours: Vec<&str> = standard().iter().map(|m| m.name()).collect();
        let theirs: Vec<&str> = Auditor::new()
            .summary()
            .monitors
            .iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(ours, theirs);
        let samples = one_of_each();
        assert!(samples
            .iter()
            .map(ObsEvent::kind_index)
            .eq(0..ObsEvent::KINDS.len()));
        for mut m in standard() {
            let (watched, unwatched): (Vec<&ObsEvent>, Vec<&ObsEvent>) =
                samples.iter().partition(|ev| m.watches(ev.kind()));
            assert!(!watched.is_empty(), "{} watches nothing", m.name());
            let mut out = Vec::new();
            for ev in watched {
                m.on_event(ev, &mut out);
            }
            out.clear();
            let (checked, state) = (m.checked(), format!("{m:?}"));
            for ev in unwatched {
                m.on_event(ev, &mut out);
                let at = format!("{} on {}", m.name(), ev.kind());
                assert!(out.is_empty(), "{at} flagged {out:?}");
                assert_eq!(m.checked(), checked, "{at} counted a check");
                assert_eq!(format!("{m:?}"), state, "{at} changed state");
            }
        }
    }

    /// The kinds no standard monitor reads return before the lock. The
    /// net and retransmit kinds among them are most of a congested run's
    /// events.
    #[test]
    fn the_standard_set_skips_the_kinds_it_does_not_read() {
        let a = Auditor::new();
        let skipped: Vec<&str> = ObsEvent::KINDS
            .iter()
            .zip(&a.dispatch)
            .filter(|(_, watchers)| watchers.is_empty())
            .map(|(kind, _)| *kind)
            .collect();
        for hot in [
            "net_send",
            "net_deliver",
            "fault_drop",
            "fault_dup",
            "retransmit",
            "retransmit_give_up",
        ] {
            assert!(skipped.contains(&hot), "{hot} reaches a monitor");
        }
        assert_eq!(skipped.len(), 16, "{skipped:?}");
        // A monitor that does not declare its kinds sees every event.
        struct Everything(u64);
        impl Monitor for Everything {
            fn name(&self) -> &'static str {
                "everything"
            }
            fn on_event(&mut self, _: &ObsEvent, _: &mut Vec<Violation>) {
                self.0 += 1;
            }
            fn checked(&self) -> u64 {
                self.0
            }
        }
        let a = Auditor::with_monitors(vec![Box::new(Everything(0))]);
        for ev in &one_of_each() {
            a.on_event(ev);
        }
        assert_eq!(a.summary().checked, ObsEvent::KINDS.len() as u64);
    }
}
