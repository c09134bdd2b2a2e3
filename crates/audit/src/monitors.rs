//! The seven standard invariant monitors.
//!
//! Each monitor audits one clause of the non-strict coherence contract.
//! They are deliberately conservative: a monitor only flags conditions
//! that are impossible under a correct runtime, never conditions that are
//! merely unusual (graceful degradation, retirement sentinels and
//! Time-Warp corrections are all modeled explicitly).

use std::collections::{HashMap, HashSet};

use nscc_obs::ObsEvent;

use crate::{Monitor, Violation};

/// Checks the paper's core promise on every released read: a `ReadDone`
/// with a finite requested bound must deliver `staleness ≤ requested`.
///
/// `ReadDegraded` events are exempt — degradation is the runtime
/// *intentionally* exceeding the bound after a timeout, and is reported
/// through its own channel.
#[derive(Debug, Default)]
pub struct StalenessMonitor {
    checked: u64,
}

impl Monitor for StalenessMonitor {
    fn name(&self) -> &'static str {
        "staleness"
    }

    fn watches(&self, kind: &str) -> bool {
        kind == "read_done"
    }

    fn on_event(&mut self, ev: &ObsEvent, out: &mut Vec<Violation>) {
        if let ObsEvent::ReadDone {
            t_ns,
            rank,
            loc,
            requested,
            staleness,
            ..
        } = *ev
        {
            if requested == u64::MAX {
                return; // relaxed read: no bound to check
            }
            self.checked += 1;
            if staleness > requested {
                out.push(Violation {
                    monitor: self.name(),
                    t_ns,
                    rank,
                    detail: format!(
                        "read of loc {loc} delivered staleness {staleness} > requested bound {requested}"
                    ),
                });
            }
        }
    }

    fn checked(&self) -> u64 {
        self.checked
    }
}

/// Checks that per-location write generations never move backwards
/// without an announced cause.
///
/// Watermark rules: a `Write{rank, loc, age}` must satisfy
/// `age ≥ watermark(rank, loc)`; `Restore{rank, to_iter}` lowers every
/// watermark of that rank to `to_iter` (re-execution legitimately
/// re-publishes the rolled-back range); `AntiMessage{rank, loc, age}`
/// lowers that location's watermark to `age − 1` (the Time-Warp
/// correction it announces re-publishes at `age`). Writes tagged
/// `u64::MAX` (the retirement sentinel) are skipped.
#[derive(Debug, Default)]
pub struct MonotonicityMonitor {
    checked: u64,
    /// Highest un-retracted write age per (rank, loc).
    watermark: HashMap<(u32, u32), u64>,
}

impl Monitor for MonotonicityMonitor {
    fn name(&self) -> &'static str {
        "monotonicity"
    }

    fn watches(&self, kind: &str) -> bool {
        matches!(kind, "write" | "restore" | "anti_message")
    }

    fn on_event(&mut self, ev: &ObsEvent, out: &mut Vec<Violation>) {
        match *ev {
            ObsEvent::Write {
                t_ns,
                rank,
                loc,
                age,
            } => {
                if age == u64::MAX {
                    return; // retirement sentinel, not a generation
                }
                self.checked += 1;
                let w = self.watermark.entry((rank, loc)).or_insert(age);
                if age < *w {
                    out.push(Violation {
                        monitor: "monotonicity",
                        t_ns,
                        rank,
                        detail: format!(
                            "write of loc {loc} at age {age} regressed below watermark {w} \
                             with no restore or anti-message"
                        ),
                    });
                } else {
                    *w = age;
                }
            }
            ObsEvent::Restore { rank, to_iter, .. } => {
                for (key, w) in self.watermark.iter_mut() {
                    if key.0 == rank && *w > to_iter {
                        *w = to_iter;
                    }
                }
            }
            ObsEvent::AntiMessage { rank, loc, age, .. } => {
                if let Some(w) = self.watermark.get_mut(&(rank, loc)) {
                    *w = (*w).min(age.saturating_sub(1));
                }
            }
            _ => {}
        }
    }

    fn on_run_boundary(&mut self) {
        self.watermark.clear();
    }

    fn checked(&self) -> u64 {
        self.checked
    }
}

/// Checks that the reliable-delivery layer never hands the same frame to
/// the application twice: no `(src, dst, seq)` triple may survive the
/// receiver's dedup more than once per program run.
///
/// Gaps are *not* violations — the scheduler exits as soon as every
/// non-daemon process finishes, legitimately abandoning queued frames.
#[derive(Debug, Default)]
pub struct SequenceMonitor {
    checked: u64,
    accepted: HashSet<(u32, u32, u64)>,
}

impl Monitor for SequenceMonitor {
    fn name(&self) -> &'static str {
        "sequence"
    }

    fn watches(&self, kind: &str) -> bool {
        kind == "seq_accept"
    }

    fn on_event(&mut self, ev: &ObsEvent, out: &mut Vec<Violation>) {
        if let ObsEvent::SeqAccept {
            t_ns,
            src,
            dst,
            seq,
        } = *ev
        {
            self.checked += 1;
            if !self.accepted.insert((src, dst, seq)) {
                out.push(Violation {
                    monitor: self.name(),
                    t_ns,
                    rank: dst,
                    detail: format!(
                        "frame {src}->{dst} seq {seq} accepted twice past receiver dedup"
                    ),
                });
            }
        }
    }

    fn on_run_boundary(&mut self) {
        self.accepted.clear();
    }

    fn checked(&self) -> u64 {
        self.checked
    }
}

/// Checks barrier-epoch ordering: per rank, barrier epochs advance by
/// exactly one per barrier, and every exit matches the pending enter.
///
/// Degraded exits (a rank timing out of a barrier and proceeding without
/// suspected peers) still emit a `BarrierExit` for the entered epoch, so
/// they pass; what cannot happen under a correct runtime is a skipped,
/// repeated or regressed epoch.
#[derive(Debug, Default)]
pub struct BarrierMonitor {
    checked: u64,
    /// Last *entered* epoch per rank.
    last_enter: HashMap<u32, u64>,
    /// Entered-but-not-exited epoch per rank.
    pending: HashMap<u32, u64>,
}

impl Monitor for BarrierMonitor {
    fn name(&self) -> &'static str {
        "barrier"
    }

    fn watches(&self, kind: &str) -> bool {
        matches!(kind, "barrier_enter" | "barrier_exit")
    }

    fn on_event(&mut self, ev: &ObsEvent, out: &mut Vec<Violation>) {
        match *ev {
            ObsEvent::BarrierEnter { t_ns, rank, epoch } => {
                self.checked += 1;
                if let Some(open) = self.pending.get(&rank) {
                    out.push(Violation {
                        monitor: "barrier",
                        t_ns,
                        rank,
                        detail: format!(
                            "rank entered barrier epoch {epoch} with epoch {open} still open"
                        ),
                    });
                }
                if let Some(&last) = self.last_enter.get(&rank) {
                    if epoch != last + 1 {
                        out.push(Violation {
                            monitor: "barrier",
                            t_ns,
                            rank,
                            detail: format!(
                                "barrier epoch jumped from {last} to {epoch} (must advance by 1)"
                            ),
                        });
                    }
                }
                self.last_enter.insert(rank, epoch);
                self.pending.insert(rank, epoch);
            }
            ObsEvent::BarrierExit {
                t_ns, rank, epoch, ..
            } => {
                self.checked += 1;
                match self.pending.remove(&rank) {
                    Some(open) if open == epoch => {}
                    Some(open) => out.push(Violation {
                        monitor: "barrier",
                        t_ns,
                        rank,
                        detail: format!(
                            "barrier exit at epoch {epoch} does not match open epoch {open}"
                        ),
                    }),
                    None => out.push(Violation {
                        monitor: "barrier",
                        t_ns,
                        rank,
                        detail: format!("barrier exit at epoch {epoch} with no matching enter"),
                    }),
                }
            }
            _ => {}
        }
    }

    fn on_run_boundary(&mut self) {
        self.last_enter.clear();
        self.pending.clear();
    }

    fn checked(&self) -> u64 {
        self.checked
    }
}

/// Checks the crash-recovery promise: a restore may never roll a node
/// back further than the coherence mode's bound (`max(age, 1)` under
/// `PartialAsync{age}`; unbounded modes carry `u64::MAX`).
///
/// This absorbs what used to be a hard `assert!` in the GA experiment
/// runner — the invariant is now audited as a structured violation
/// instead of a panic, so a violating run still produces its report,
/// flight dump and gate failure.
#[derive(Debug, Default)]
pub struct RollbackMonitor {
    checked: u64,
}

impl Monitor for RollbackMonitor {
    fn name(&self) -> &'static str {
        "rollback"
    }

    fn watches(&self, kind: &str) -> bool {
        kind == "restore"
    }

    fn on_event(&mut self, ev: &ObsEvent, out: &mut Vec<Violation>) {
        if let ObsEvent::Restore {
            t_ns,
            rank,
            from_iter,
            to_iter,
            rollback,
            bound,
        } = *ev
        {
            self.checked += 1;
            if rollback > bound {
                out.push(Violation {
                    monitor: self.name(),
                    t_ns,
                    rank,
                    detail: format!(
                        "restore {from_iter}->{to_iter} rolled back {rollback} iterations, \
                         past the mode's bound {bound}"
                    ),
                });
            }
        }
    }

    fn checked(&self) -> u64 {
        self.checked
    }
}

/// Checks the consistent-snapshot protocol's contract: marker waves are
/// well-formed per `(cut id, rank)` — at most one `SnapshotStart` before
/// the matching `SnapshotComplete`, no completion without a start — and
/// **snapshots never pause anyone**: a `SnapshotComplete` must report
/// `pause_ns == 0`, because the whole point of the marker protocol here
/// is that islands keep computing while the cut is recorded.
#[derive(Debug, Default)]
pub struct SnapshotMonitor {
    checked: u64,
    /// Open recordings: (rank, cut id) started but not yet completed.
    open: HashSet<(u32, u64)>,
}

impl Monitor for SnapshotMonitor {
    fn name(&self) -> &'static str {
        "snapshot"
    }

    fn watches(&self, kind: &str) -> bool {
        matches!(kind, "snapshot_start" | "snapshot_complete")
    }

    fn on_event(&mut self, ev: &ObsEvent, out: &mut Vec<Violation>) {
        match *ev {
            ObsEvent::SnapshotStart { t_ns, rank, id, .. } => {
                self.checked += 1;
                if !self.open.insert((rank, id)) {
                    out.push(Violation {
                        monitor: "snapshot",
                        t_ns,
                        rank,
                        detail: format!("cut {id} started twice without completing"),
                    });
                }
            }
            ObsEvent::SnapshotComplete {
                t_ns,
                rank,
                id,
                pause_ns,
                ..
            } => {
                self.checked += 1;
                if !self.open.remove(&(rank, id)) {
                    out.push(Violation {
                        monitor: "snapshot",
                        t_ns,
                        rank,
                        detail: format!("cut {id} completed with no matching start"),
                    });
                }
                if pause_ns > 0 {
                    out.push(Violation {
                        monitor: "snapshot",
                        t_ns,
                        rank,
                        detail: format!(
                            "cut {id} paused the island for {pause_ns}ns — the marker \
                             protocol must never block application progress"
                        ),
                    });
                }
            }
            _ => {}
        }
    }

    fn on_run_boundary(&mut self) {
        self.open.clear();
    }

    fn checked(&self) -> u64 {
        self.checked
    }
}

/// Checks the staleness tracer's conservation contract on every
/// `ReadAnatomy` event: the seven named stage durations must sum to
/// *exactly* the observed age. The stages are differences of adjacent
/// virtual-time hop stamps, so any stamping bug — a hop skipped, a
/// retransmit double-counted, an overhead booked twice — breaks the
/// telescoping sum and is flagged here, online.
///
/// Trivially green (zero checks) when the tracer is off: the DSM only
/// emits `ReadAnatomy` when [`nscc_obs::Hub::enable_staleness`] was
/// called.
#[derive(Debug, Default)]
pub struct ConservationMonitor {
    checked: u64,
}

impl Monitor for ConservationMonitor {
    fn name(&self) -> &'static str {
        "conservation"
    }

    fn watches(&self, kind: &str) -> bool {
        kind == "read_anatomy"
    }

    fn on_event(&mut self, ev: &ObsEvent, out: &mut Vec<Violation>) {
        if let (
            Some(sum),
            &ObsEvent::ReadAnatomy {
                t_ns,
                reader,
                loc,
                age_ns,
                wait_ns,
                publish_ns,
                transit_ns,
                fault_ns,
                retrans_ns,
                queue_ns,
                apply_ns,
                ..
            },
        ) = (ev.stage_sum(), ev)
        {
            self.checked += 1;
            if sum != age_ns {
                out.push(Violation {
                    monitor: self.name(),
                    t_ns,
                    rank: reader,
                    detail: format!(
                        "read of loc {loc} released with stage sum {sum}ns != observed age \
                         {age_ns}ns (wait {wait_ns} + publish {publish_ns} + transit \
                         {transit_ns} + fault {fault_ns} + retrans {retrans_ns} + queue \
                         {queue_ns} + apply {apply_ns})"
                    ),
                });
            }
        }
    }

    fn checked(&self) -> u64 {
        self.checked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(m: &mut dyn Monitor, evs: &[ObsEvent]) -> Vec<Violation> {
        let mut out = Vec::new();
        for ev in evs {
            m.on_event(ev, &mut out);
        }
        out
    }

    fn write(rank: u32, loc: u32, age: u64) -> ObsEvent {
        ObsEvent::Write {
            t_ns: age,
            rank,
            loc,
            age,
        }
    }

    #[test]
    fn staleness_ignores_relaxed_reads() {
        let mut m = StalenessMonitor::default();
        let v = drain(
            &mut m,
            &[ObsEvent::ReadDone {
                t_ns: 1,
                rank: 0,
                loc: 0,
                curr_iter: 50,
                requested: u64::MAX,
                delivered: 1,
                staleness: 49,
                blocked: false,
                block_ns: 0,
            }],
        );
        assert!(v.is_empty());
        assert_eq!(m.checked(), 0);
    }

    #[test]
    fn monotonic_writes_pass_and_regressions_fail() {
        let mut m = MonotonicityMonitor::default();
        assert!(drain(&mut m, &[write(0, 3, 1), write(0, 3, 2), write(0, 3, 2)]).is_empty());
        let v = drain(&mut m, &[write(0, 3, 1)]);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("regressed"));
    }

    #[test]
    fn restore_licenses_rewrites_for_that_rank_only() {
        let mut m = MonotonicityMonitor::default();
        let restore = ObsEvent::Restore {
            t_ns: 9,
            rank: 0,
            from_iter: 8,
            to_iter: 5,
            rollback: 3,
            bound: 5,
        };
        let evs = [write(0, 1, 8), write(1, 2, 8), restore, write(0, 1, 6)];
        assert!(drain(&mut m, &evs).is_empty());
        // Rank 1 saw no restore: its regression is still a violation.
        assert_eq!(drain(&mut m, &[write(1, 2, 6)]).len(), 1);
    }

    #[test]
    fn anti_message_licenses_one_location() {
        let mut m = MonotonicityMonitor::default();
        let anti = ObsEvent::AntiMessage {
            t_ns: 5,
            rank: 2,
            loc: 7,
            age: 4,
        };
        assert!(drain(&mut m, &[write(2, 7, 6), anti, write(2, 7, 4)]).is_empty());
    }

    #[test]
    fn retired_writes_are_skipped() {
        let mut m = MonotonicityMonitor::default();
        assert!(drain(&mut m, &[write(0, 0, 9), write(0, 0, u64::MAX)]).is_empty());
        assert_eq!(m.checked(), 1);
    }

    #[test]
    fn duplicate_sequence_accept_is_flagged() {
        let mut m = SequenceMonitor::default();
        let acc = ObsEvent::SeqAccept {
            t_ns: 1,
            src: 0,
            dst: 1,
            seq: 5,
        };
        assert!(drain(&mut m, std::slice::from_ref(&acc)).is_empty());
        let v = drain(&mut m, &[acc]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rank, 1);
    }

    #[test]
    fn barrier_lockstep_passes() {
        let mut m = BarrierMonitor::default();
        let mut evs = Vec::new();
        for epoch in 1..=3u64 {
            for rank in 0..2u32 {
                evs.push(ObsEvent::BarrierEnter {
                    t_ns: epoch,
                    rank,
                    epoch,
                });
            }
            for rank in 0..2u32 {
                evs.push(ObsEvent::BarrierExit {
                    t_ns: epoch,
                    rank,
                    epoch,
                    wait_ns: 0,
                });
            }
        }
        assert!(drain(&mut m, &evs).is_empty());
        assert_eq!(m.checked(), 12);
    }

    #[test]
    fn skipped_epoch_and_orphan_exit_fail() {
        let mut m = BarrierMonitor::default();
        let enter = |epoch| ObsEvent::BarrierEnter {
            t_ns: epoch,
            rank: 0,
            epoch,
        };
        let exit = |epoch| ObsEvent::BarrierExit {
            t_ns: epoch,
            rank: 0,
            epoch,
            wait_ns: 0,
        };
        assert!(drain(&mut m, &[enter(1), exit(1)]).is_empty());
        assert_eq!(drain(&mut m, &[enter(3)]).len(), 1); // skipped 2
        assert_eq!(drain(&mut m, &[exit(4)]).len(), 1); // mismatched exit
        assert_eq!(drain(&mut m, &[exit(4)]).len(), 1); // orphan exit
    }

    #[test]
    fn snapshot_lifecycle_passes_and_pauses_fail() {
        let mut m = SnapshotMonitor::default();
        let start = |rank, id| ObsEvent::SnapshotStart {
            t_ns: 1,
            rank,
            id,
            gen: 10,
        };
        let complete = |rank, id, pause_ns| ObsEvent::SnapshotComplete {
            t_ns: 2,
            rank,
            id,
            inflight: 3,
            pause_ns,
        };
        // A clean wave across two ranks, then a preempted (abandoned)
        // wave: neither is a violation.
        assert!(drain(
            &mut m,
            &[
                start(0, 5),
                start(1, 5),
                complete(0, 5, 0),
                complete(1, 5, 0),
                start(0, 8), // abandoned: never completes
                start(0, 11),
                complete(0, 11, 0),
            ],
        )
        .is_empty());
        // A double start of the same cut, an orphan completion, and any
        // nonzero pause are violations.
        assert_eq!(drain(&mut m, &[start(0, 9), start(0, 9)]).len(), 1);
        assert_eq!(drain(&mut m, &[complete(1, 99, 0)]).len(), 1);
        let v = drain(&mut m, &[start(2, 20), complete(2, 20, 7)]);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("paused the island"));
    }

    #[test]
    fn rollback_within_bound_passes_and_past_bound_fails() {
        let mut m = RollbackMonitor::default();
        let restore = |rollback, bound| ObsEvent::Restore {
            t_ns: 1,
            rank: 0,
            from_iter: 10,
            to_iter: 10 - rollback,
            rollback,
            bound,
        };
        assert!(drain(&mut m, &[restore(5, 5), restore(0, 1)]).is_empty());
        let v = drain(&mut m, &[restore(6, 5)]);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("past the mode's bound"));
    }

    #[test]
    fn conserving_anatomy_passes_and_leaks_fail() {
        let anatomy = |transit: u64| ObsEvent::ReadAnatomy {
            t_ns: 50_000,
            reader: 1,
            writer: 0,
            loc: 3,
            write_iter: 7,
            msg_seq: 42,
            age_ns: 10_000,
            wait_ns: 1_000,
            publish_ns: 500,
            transit_ns: transit,
            fault_ns: 2_000,
            retrans_ns: 1_500,
            queue_ns: 700,
            apply_ns: 300,
        };
        let mut m = ConservationMonitor::default();
        // 1000+500+4000+2000+1500+700+300 == 10_000: conserved.
        assert!(drain(&mut m, &[anatomy(4_000)]).is_empty());
        // One nanosecond leaks: flagged, with the full decomposition in
        // the detail so postmortems can name the guilty stage.
        let v = drain(&mut m, &[anatomy(3_999)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rank, 1);
        assert!(v[0]
            .detail
            .contains("stage sum 9999ns != observed age 10000ns"));
        assert_eq!(m.checked(), 2);
    }
}
