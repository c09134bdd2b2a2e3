//! Structured events emitted by the runtime layers.
//!
//! All fields are plain integers so the event stream is layer-agnostic:
//! times are virtual nanoseconds (`t_ns`), network endpoints are `NodeId`
//! indices, DSM processes are ranks and locations are `LocId` indices.

use nscc_ckpt::json::ToJson;

use crate::Label;

/// One structured observation. Serialized (externally tagged) into run
/// reports and dumps, e.g. `{"ReadDone":{"t_ns":…,"rank":…,…}}`.
#[derive(Debug, Clone, ToJson)]
pub enum ObsEvent {
    /// A message was submitted to the network. `dst == u32::MAX` marks a
    /// broadcast frame. `queue_ns` is the time the frame waited for the
    /// medium before its service started.
    NetSend {
        /// Submission time.
        t_ns: u64,
        /// Source node.
        src: u32,
        /// Destination node (`u32::MAX` for broadcast).
        dst: u32,
        /// Payload bytes (pre-framing).
        bytes: u64,
        /// Queueing delay ahead of service.
        queue_ns: u64,
    },
    /// A message arrived at its destination.
    NetDeliver {
        /// Arrival time.
        t_ns: u64,
        /// Source node.
        src: u32,
        /// Destination node (`u32::MAX` for broadcast).
        dst: u32,
        /// Total submit→arrival delay.
        delay_ns: u64,
    },
    /// A DSM owner published a new value for a location.
    Write {
        /// Publish time.
        t_ns: u64,
        /// Writing rank.
        rank: u32,
        /// Location index.
        loc: u32,
        /// Generation (iteration) tag of the value.
        age: u64,
    },
    /// A `Global_Read` found its bound unmet and blocked.
    ReadBlocked {
        /// Block time.
        t_ns: u64,
        /// Reading rank.
        rank: u32,
        /// Location index.
        loc: u32,
        /// Minimum acceptable generation (`curr_iter − age`).
        required: u64,
    },
    /// A read completed (cache hit, unblocked `Global_Read`, or relaxed
    /// read). The coherence contract is `staleness ≤ requested`.
    ReadDone {
        /// Completion time.
        t_ns: u64,
        /// Reading rank.
        rank: u32,
        /// Location index.
        loc: u32,
        /// Reader's current iteration.
        curr_iter: u64,
        /// Requested staleness bound (the `age` argument; `u64::MAX` for a
        /// relaxed, never-blocking read).
        requested: u64,
        /// Generation of the delivered value (`u64::MAX` if retired).
        delivered: u64,
        /// Delivered staleness gap, `curr_iter − delivered` (0 when the
        /// value is from the future or retired).
        staleness: u64,
        /// Whether the read blocked.
        blocked: bool,
        /// Time spent blocked (0 for hits).
        block_ns: u64,
    },
    /// An incoming update was older than the cached value and discarded.
    StaleDiscard {
        /// Discard time.
        t_ns: u64,
        /// Receiving rank.
        rank: u32,
        /// Location index.
        loc: u32,
        /// Generation of the discarded update.
        age: u64,
        /// Generation already cached.
        have: u64,
    },
    /// A rank arrived at a barrier.
    BarrierEnter {
        /// Arrival time.
        t_ns: u64,
        /// Rank.
        rank: u32,
        /// Barrier epoch.
        epoch: u64,
    },
    /// A rank was released from a barrier.
    BarrierExit {
        /// Release time.
        t_ns: u64,
        /// Rank.
        rank: u32,
        /// Barrier epoch.
        epoch: u64,
        /// Enter→release wait.
        wait_ns: u64,
    },
    /// A rollback re-published corrected state — the collapsed
    /// anti-message + replacement pair of the Time-Warp-style bayes path.
    AntiMessage {
        /// Publish time.
        t_ns: u64,
        /// Correcting rank.
        rank: u32,
        /// Location index.
        loc: u32,
        /// Generation tag of the correction.
        age: u64,
    },
    /// The fault layer dropped a frame (injected loss, crash, partition).
    FaultDrop {
        /// Submission time of the lost frame.
        t_ns: u64,
        /// Source node.
        src: u32,
        /// Destination node.
        dst: u32,
        /// Why the frame was dropped (`loss`, `node_down`, `partitioned`).
        reason: Label,
    },
    /// The fault layer injected a spurious duplicate delivery.
    FaultDup {
        /// Arrival time of the second copy.
        t_ns: u64,
        /// Source node.
        src: u32,
        /// Destination node.
        dst: u32,
    },
    /// The reliable-delivery layer retransmitted an unacknowledged frame.
    Retransmit {
        /// Retransmission time.
        t_ns: u64,
        /// Source rank.
        src: u32,
        /// Destination rank.
        dst: u32,
        /// Sequence number of the frame.
        seq: u64,
        /// Retry attempt (1 = first retransmission).
        attempt: u32,
    },
    /// The reliable-delivery layer gave up on a frame after exhausting its
    /// retries.
    RetransmitGiveUp {
        /// Give-up time.
        t_ns: u64,
        /// Source rank.
        src: u32,
        /// Destination rank.
        dst: u32,
        /// Sequence number of the abandoned frame.
        seq: u64,
    },
    /// A `Global_Read` timed out and returned the freshest cached value
    /// instead of its staleness bound (graceful degradation).
    ReadDegraded {
        /// Completion time.
        t_ns: u64,
        /// Reading rank.
        rank: u32,
        /// Location index.
        loc: u32,
        /// Generation the read required.
        required: u64,
        /// Generation actually delivered (stale).
        delivered: u64,
    },
    /// The failure detector declared a peer dead (no heartbeat or update
    /// within the suspicion window).
    WriterSuspected {
        /// Suspicion time.
        t_ns: u64,
        /// Rank doing the suspecting.
        rank: u32,
        /// The suspected peer rank.
        peer: u32,
    },
    /// A node cut a recovery checkpoint of its application + DSM state.
    Checkpoint {
        /// Cut time.
        t_ns: u64,
        /// Checkpointing rank.
        rank: u32,
        /// Iteration (generation) the checkpoint captures.
        iter: u64,
        /// Encoded snapshot size in bytes (sealed frame).
        bytes: u64,
    },
    /// A node restored itself from a checkpoint after a crash. The paper's
    /// age bound makes this cheap: a restored node at `to_iter` looks like
    /// a peer `rollback` iterations stale, which `Global_Read` tolerates
    /// whenever `rollback ≤ age`.
    Restore {
        /// Restore time.
        t_ns: u64,
        /// Recovering rank.
        rank: u32,
        /// Iteration the node had reached when it crashed.
        from_iter: u64,
        /// Iteration of the checkpoint it restored to.
        to_iter: u64,
        /// Rollback distance, `from_iter − to_iter` (0 for a cold restart,
        /// which abandons state instead of rolling it back).
        rollback: u64,
        /// The rollback bound the coherence mode promises (`max(age, 1)`
        /// under `PartialAsync{age}`, `u64::MAX` when unbounded). Carried
        /// on the event so the audit layer can check `rollback ≤ bound`
        /// statelessly.
        bound: u64,
    },
    /// The reliable-delivery layer accepted a fresh frame past its
    /// receiver dedup (the only path by which a reliable frame reaches the
    /// application mailbox). The audit layer checks that no `(src, dst,
    /// seq)` triple is ever accepted twice.
    SeqAccept {
        /// Acceptance time.
        t_ns: u64,
        /// Source rank.
        src: u32,
        /// Destination rank.
        dst: u32,
        /// World-unique sequence number of the frame.
        seq: u64,
    },
    /// A blocking `Global_Read` was satisfied: the provenance of the
    /// update that released it, plus the virtual-time breakdown of the
    /// wait (queued-for-medium vs in-flight vs retransmit-delayed). This
    /// is the edge of the causal read-dependency graph.
    ReadDep {
        /// Completion time of the read.
        t_ns: u64,
        /// Blocked reading rank.
        reader: u32,
        /// Rank that wrote the releasing update.
        writer: u32,
        /// Location index.
        loc: u32,
        /// Generation (iteration) tag of the releasing write.
        write_iter: u64,
        /// Writer-local sequence number of the releasing message.
        msg_seq: u64,
        /// Total time the read spent blocked.
        block_ns: u64,
        /// Time the releasing frame waited for the medium before service.
        queued_ns: u64,
        /// Service + propagation time of the delivering transmission.
        inflight_ns: u64,
        /// Extra delay attributable to retransmissions (0 on first try).
        retrans_ns: u64,
    },
    /// A mailbox's queue depth crossed its configured warn threshold
    /// (`nscc run --mailbox-warn`) — backpressure is building.
    MailboxHigh {
        /// Crossing time (virtual ns of the receive that noticed it).
        t_ns: u64,
        /// Rank owning the mailbox.
        rank: u32,
        /// Queue depth at the crossing.
        depth: u64,
    },
    /// A rank captured its local state for a marker-protocol consistent
    /// snapshot (first marker received, or initiation on the coordinator).
    /// Meta event: see [`ObsEvent::is_meta`].
    SnapshotStart {
        /// Capture time.
        t_ns: u64,
        /// Capturing rank.
        rank: u32,
        /// Cut id the markers carry.
        id: u64,
        /// Iteration (generation) the local capture represents.
        gen: u64,
    },
    /// A rank finished its part of a consistent snapshot: every incoming
    /// channel closed by a marker, recorded in-flight bytes attached.
    /// Meta event: see [`ObsEvent::is_meta`].
    SnapshotComplete {
        /// Completion time (last marker's arrival).
        t_ns: u64,
        /// Completing rank.
        rank: u32,
        /// Cut id.
        id: u64,
        /// In-flight channel messages recorded for this rank.
        inflight: u64,
        /// Virtual time this rank spent *paused* on the snapshot path.
        /// The marker protocol is non-blocking by construction, so this
        /// is always 0; the audit layer asserts it (survivors must never
        /// park for a snapshot).
        pause_ns: u64,
    },
    /// The supervision layer approved a crash restart (warm restore from
    /// the newest consistent cut, or stop-world fallback), with backoff.
    /// Meta event: see [`ObsEvent::is_meta`].
    SupervisorRestart {
        /// Decision time.
        t_ns: u64,
        /// Restarting rank.
        rank: u32,
        /// Restart attempt for this rank (1 = first restart).
        attempt: u32,
        /// Backoff imposed before the restart.
        backoff_ns: u64,
    },
    /// The supervision layer exhausted a rank's restart budget and
    /// degraded the run: the rank is marked failed and survivors carry
    /// on. Meta event: see [`ObsEvent::is_meta`].
    SupervisorGiveUp {
        /// Decision time.
        t_ns: u64,
        /// Abandoned rank.
        rank: u32,
        /// Restarts consumed before giving up.
        restarts: u32,
    },
    /// The per-hop anatomy of one released blocking `Global_Read`: the
    /// observed age of the delivered value decomposed into named stage
    /// durations, each the difference of two consecutive virtual-time hop
    /// stamps carried on the releasing update's `Provenance`. The
    /// conservation contract is `wait + publish + transit + fault +
    /// retrans + queue + apply == age` exactly (the audit layer's
    /// conservation monitor asserts it online). Meta event: see
    /// [`ObsEvent::is_meta`] — tracer-on runs stay byte-identical to
    /// tracer-off runs in every report section the tracer does not own.
    ReadAnatomy {
        /// Release time of the read.
        t_ns: u64,
        /// Blocked reading rank.
        reader: u32,
        /// Rank that wrote the releasing update.
        writer: u32,
        /// Location index.
        loc: u32,
        /// Generation (iteration) tag of the releasing write.
        write_iter: u64,
        /// Writer-local sequence number of the releasing message.
        msg_seq: u64,
        /// Observed age of the delivered value: release instant minus the
        /// earlier of (write instant, block start), in virtual ns.
        age_ns: u64,
        /// Reader blocked before the write existed (block start → write).
        wait_ns: u64,
        /// Writer-side publish cost (write → frame submitted), the
        /// `nscc-msg` enqueue including send CPU overhead.
        publish_ns: u64,
        /// Baseline medium time of the delivering copy (queueing + wire).
        transit_ns: u64,
        /// Injected fault delay on the delivering copy (stall windows,
        /// degradation latency, reorder delay, duplicate-copy gap).
        fault_ns: u64,
        /// Delay added by the reliable layer's retransmissions (original
        /// submit → start of the delivering attempt).
        retrans_ns: u64,
        /// Receiver mailbox dwell (arrival → application pop).
        queue_ns: u64,
        /// DSM apply cost (pop → release), including receive CPU overhead.
        apply_ns: u64,
    },
    /// Application-defined marker.
    Custom {
        /// Event time.
        t_ns: u64,
        /// Free-form label.
        label: Label,
    },
}

impl ObsEvent {
    /// A [`ReadAnatomy`](ObsEvent::ReadAnatomy)'s seven stage durations
    /// summed (wrapping), the side of the conservation contract that must
    /// equal its `age_ns`; `None` for every other event.
    pub fn stage_sum(&self) -> Option<u64> {
        let &ObsEvent::ReadAnatomy {
            wait_ns,
            publish_ns,
            transit_ns,
            fault_ns,
            retrans_ns,
            queue_ns,
            apply_ns,
            ..
        } = self
        else {
            return None;
        };
        let stages = [
            publish_ns, transit_ns, fault_ns, retrans_ns, queue_ns, apply_ns,
        ];
        Some(stages.into_iter().fold(wait_ns, u64::wrapping_add))
    }

    /// The event's timestamp in virtual nanoseconds.
    pub fn t_ns(&self) -> u64 {
        match *self {
            ObsEvent::NetSend { t_ns, .. }
            | ObsEvent::NetDeliver { t_ns, .. }
            | ObsEvent::Write { t_ns, .. }
            | ObsEvent::ReadBlocked { t_ns, .. }
            | ObsEvent::ReadDone { t_ns, .. }
            | ObsEvent::StaleDiscard { t_ns, .. }
            | ObsEvent::BarrierEnter { t_ns, .. }
            | ObsEvent::BarrierExit { t_ns, .. }
            | ObsEvent::AntiMessage { t_ns, .. }
            | ObsEvent::FaultDrop { t_ns, .. }
            | ObsEvent::FaultDup { t_ns, .. }
            | ObsEvent::Retransmit { t_ns, .. }
            | ObsEvent::RetransmitGiveUp { t_ns, .. }
            | ObsEvent::ReadDegraded { t_ns, .. }
            | ObsEvent::WriterSuspected { t_ns, .. }
            | ObsEvent::Checkpoint { t_ns, .. }
            | ObsEvent::Restore { t_ns, .. }
            | ObsEvent::SeqAccept { t_ns, .. }
            | ObsEvent::ReadDep { t_ns, .. }
            | ObsEvent::MailboxHigh { t_ns, .. }
            | ObsEvent::SnapshotStart { t_ns, .. }
            | ObsEvent::SnapshotComplete { t_ns, .. }
            | ObsEvent::SupervisorRestart { t_ns, .. }
            | ObsEvent::SupervisorGiveUp { t_ns, .. }
            | ObsEvent::ReadAnatomy { t_ns, .. }
            | ObsEvent::Custom { t_ns, .. } => t_ns,
        }
    }

    /// Whether this is a *meta* event: recovery-layer lifecycle
    /// (snapshot markers, supervision decisions) and the staleness
    /// tracer's anatomy records, which must stay invisible to the hub's
    /// counters, histograms, raw event store, and metric-snapshot clock.
    /// The non-blocking recovery contract is that a snapshot-on run is
    /// byte-identical to a snapshot-off run in every report section the
    /// recovery layer does not own (and likewise tracer-on vs tracer-off
    /// outside the `staleness` section); meta events still reach the
    /// flight ring and the audit tap, which own their outputs.
    pub fn is_meta(&self) -> bool {
        matches!(
            self,
            ObsEvent::SnapshotStart { .. }
                | ObsEvent::SnapshotComplete { .. }
                | ObsEvent::SupervisorRestart { .. }
                | ObsEvent::SupervisorGiveUp { .. }
                | ObsEvent::ReadAnatomy { .. }
        )
    }

    /// Every kind's short name, at its [`ObsEvent::kind_index`].
    pub const KINDS: [&'static str; 26] = [
        "net_send",
        "net_deliver",
        "write",
        "read_blocked",
        "read_done",
        "stale_discard",
        "barrier_enter",
        "barrier_exit",
        "anti_message",
        "fault_drop",
        "fault_dup",
        "retransmit",
        "retransmit_give_up",
        "read_degraded",
        "writer_suspected",
        "checkpoint",
        "restore",
        "seq_accept",
        "read_dep",
        "mailbox_high",
        "snapshot_start",
        "snapshot_complete",
        "supervisor_restart",
        "supervisor_give_up",
        "read_anatomy",
        "custom",
    ];

    /// This event's kind as a dense index into [`ObsEvent::KINDS`], for
    /// tables kept per kind.
    pub fn kind_index(&self) -> usize {
        match self {
            ObsEvent::NetSend { .. } => 0,
            ObsEvent::NetDeliver { .. } => 1,
            ObsEvent::Write { .. } => 2,
            ObsEvent::ReadBlocked { .. } => 3,
            ObsEvent::ReadDone { .. } => 4,
            ObsEvent::StaleDiscard { .. } => 5,
            ObsEvent::BarrierEnter { .. } => 6,
            ObsEvent::BarrierExit { .. } => 7,
            ObsEvent::AntiMessage { .. } => 8,
            ObsEvent::FaultDrop { .. } => 9,
            ObsEvent::FaultDup { .. } => 10,
            ObsEvent::Retransmit { .. } => 11,
            ObsEvent::RetransmitGiveUp { .. } => 12,
            ObsEvent::ReadDegraded { .. } => 13,
            ObsEvent::WriterSuspected { .. } => 14,
            ObsEvent::Checkpoint { .. } => 15,
            ObsEvent::Restore { .. } => 16,
            ObsEvent::SeqAccept { .. } => 17,
            ObsEvent::ReadDep { .. } => 18,
            ObsEvent::MailboxHigh { .. } => 19,
            ObsEvent::SnapshotStart { .. } => 20,
            ObsEvent::SnapshotComplete { .. } => 21,
            ObsEvent::SupervisorRestart { .. } => 22,
            ObsEvent::SupervisorGiveUp { .. } => 23,
            ObsEvent::ReadAnatomy { .. } => 24,
            ObsEvent::Custom { .. } => 25,
        }
    }

    /// Short kind name, for counting and debugging.
    pub fn kind(&self) -> &'static str {
        Self::KINDS[self.kind_index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamps_and_kinds() {
        let e = ObsEvent::Write {
            t_ns: 7,
            rank: 1,
            loc: 2,
            age: 3,
        };
        assert_eq!(e.t_ns(), 7);
        assert_eq!(e.kind(), "write");
        let c = ObsEvent::Custom {
            t_ns: 9,
            label: "checkpoint".into(),
        };
        assert_eq!(c.t_ns(), 9);
        assert_eq!(c.kind(), "custom");
    }

    #[test]
    fn recovery_lifecycle_events_are_meta() {
        let s = ObsEvent::SnapshotStart {
            t_ns: 1,
            rank: 0,
            id: 3,
            gen: 10,
        };
        assert!(s.is_meta());
        assert_eq!(s.t_ns(), 1);
        assert_eq!(s.kind(), "snapshot_start");
        let g = ObsEvent::SupervisorGiveUp {
            t_ns: 2,
            rank: 1,
            restarts: 3,
        };
        assert!(g.is_meta());
        assert!(!ObsEvent::Write {
            t_ns: 0,
            rank: 0,
            loc: 0,
            age: 0
        }
        .is_meta());
    }

    #[test]
    fn read_anatomy_is_meta_and_conserves() {
        let a = ObsEvent::ReadAnatomy {
            t_ns: 1_000,
            reader: 1,
            writer: 0,
            loc: 2,
            write_iter: 9,
            msg_seq: 4,
            age_ns: 600,
            wait_ns: 100,
            publish_ns: 150,
            transit_ns: 200,
            fault_ns: 0,
            retrans_ns: 0,
            queue_ns: 50,
            apply_ns: 100,
        };
        assert!(a.is_meta());
        assert_eq!(a.t_ns(), 1_000);
        assert_eq!(a.kind(), "read_anatomy");
    }
}
