//! The [`Network`] handle: shared access to a medium from simulated
//! processes and events. It plans frames, accounts for them and reports
//! them to an attached hub; delivery is the caller's, which schedules
//! each of a plan's [`Transmission::copies`].

use std::cell::RefCell;
use std::rc::Rc;

use nscc_obs::{Hub, ObsEvent};
use nscc_sim::SimTime;

use crate::medium::{Medium, MediumStats, NodeId, Transmission, Verdict};

/// Destination marker for broadcast frames in emitted events.
const BROADCAST: u32 = u32::MAX;

/// Aggregate network-level statistics (medium counters plus end-to-end
/// delay bookkeeping).
#[derive(Debug, Clone, Copy, Default, nscc_ckpt::json::ToJson, nscc_ckpt::Snapshot)]
pub struct NetStats {
    /// Counters from the underlying medium.
    pub medium: MediumStats,
    /// Messages submitted through this handle.
    pub messages: u64,
    /// Sum of end-to-end delays (arrival − submission) for those messages.
    pub total_delay: SimTime,
    /// Largest single end-to-end delay observed.
    pub max_delay: SimTime,
    /// Frames the medium's fault layer dropped (0 on well-behaved media).
    pub dropped: u64,
    /// Spurious duplicate deliveries the fault layer injected.
    pub duplicated: u64,
}

impl NetStats {
    /// Mean end-to-end delay per message.
    pub fn mean_delay(&self) -> SimTime {
        if self.messages == 0 {
            SimTime::ZERO
        } else {
            self.total_delay / self.messages
        }
    }

    /// Fold another network's counters into this one (for run aggregation).
    pub fn merge(&mut self, other: &NetStats) {
        self.medium.merge(&other.medium);
        self.messages += other.messages;
        self.total_delay = self.total_delay.saturating_add(other.total_delay);
        self.max_delay = self.max_delay.max(other.max_delay);
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
    }
}

struct NetInner {
    medium: Box<dyn Medium>,
    /// Everything but `medium`, which the medium keeps itself.
    stats: NetStats,
    obs: Option<Hub>,
}

impl NetInner {
    /// Queueing ahead of a frame submitted at `now`, in nanoseconds —
    /// probed only when a hub will report it, and before the transmit
    /// mutates medium state.
    fn queue_ns(&self, now: SimTime) -> u64 {
        match self.obs {
            Some(_) => self.medium.next_free(now).saturating_sub(now).as_nanos(),
            None => 0,
        }
    }

    /// The step every planned frame shares: delay bookkeeping plus its
    /// `NetSend` event. Returns the frame's end-to-end delay.
    fn book(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: u32,
        payload_bytes: usize,
        arrival: SimTime,
        queue_ns: u64,
    ) -> SimTime {
        debug_assert!(arrival >= now, "medium produced an arrival in the past");
        let delay = arrival - now;
        self.stats.messages += 1;
        self.stats.total_delay = self.stats.total_delay.saturating_add(delay);
        self.stats.max_delay = self.stats.max_delay.max(delay);
        if let Some(hub) = &self.obs {
            hub.emit(ObsEvent::NetSend {
                t_ns: now.as_nanos(),
                src: src.0,
                dst,
                bytes: payload_bytes as u64,
                queue_ns,
            });
        }
        delay
    }
}

/// A cloneable handle to one simulated interconnect.
///
/// All sends from all processes go through the same handle, so the medium
/// sees the true interleaving of traffic (that is what creates contention).
/// The handle stays on the simulation's thread:
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<nscc_net::Network>();
/// ```
#[derive(Clone)]
pub struct Network {
    inner: Rc<RefCell<NetInner>>,
}

impl Network {
    /// Wrap a medium.
    pub fn new(medium: impl Medium + 'static) -> Self {
        Network {
            inner: Rc::new(RefCell::new(NetInner {
                medium: Box::new(medium),
                stats: NetStats::default(),
                obs: None,
            })),
        }
    }

    /// Attach an observability hub: every frame emits a send event (with
    /// its queueing delay ahead of service) and a deliver event (feeding
    /// the hub's network-delay histogram). Detached costs one branch per
    /// frame.
    pub fn attach_obs(&self, hub: Hub) {
        self.inner.borrow_mut().obs = Some(hub);
    }

    /// Plan one *broadcast* frame: submit it to the medium, account for
    /// it, and emit the `NetSend`/`NetDeliver` pair (with the broadcast
    /// destination sentinel). Returns `Some(arrival)` on
    /// broadcast-capable media — every destination hears the frame at
    /// that one instant and the caller schedules the per-destination
    /// deliveries — or `None` when the medium has no hardware broadcast
    /// and the caller must fall back to unicast fan-out.
    pub fn plan_broadcast(
        &self,
        now: SimTime,
        src: NodeId,
        payload_bytes: usize,
    ) -> Option<SimTime> {
        let mut inner = self.inner.borrow_mut();
        let queue_ns = inner.queue_ns(now);
        let arrival = inner.medium.transmit_broadcast(now, src, payload_bytes)?;
        let delay = inner.book(now, src, BROADCAST, payload_bytes, arrival, queue_ns);
        if let Some(hub) = &inner.obs {
            hub.emit(ObsEvent::NetDeliver {
                t_ns: arrival.as_nanos(),
                src: src.0,
                dst: BROADCAST,
                delay_ns: delay.as_nanos(),
            });
        }
        Some(arrival)
    }

    /// Occupy the medium without delivering anything (used by background
    /// load generators). Returns the arrival time of the junk frame.
    pub fn inject(&self, now: SimTime, src: NodeId, dst: NodeId, payload_bytes: usize) -> SimTime {
        self.plan(now, src, dst, payload_bytes).arrival
    }

    /// How long a frame submitted at `now` would wait for the medium to go
    /// idle before its transmission starts. A pure probe: nothing is
    /// submitted, no statistics move. Provenance-stamping layers use this
    /// to split a message's latency into queueing vs time on the wire.
    pub fn queue_delay(&self, now: SimTime) -> SimTime {
        let inner = self.inner.borrow();
        inner.medium.next_free(now).saturating_sub(now)
    }

    /// Submit a frame, account for it, and return the planned
    /// [`Transmission`] — arrival time plus delivery verdict. The caller
    /// schedules whatever [`Transmission::copies`] it delivers.
    pub fn plan(
        &self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        payload_bytes: usize,
    ) -> Transmission {
        let mut inner = self.inner.borrow_mut();
        let queue_ns = inner.queue_ns(now);
        let tx = inner.medium.plan_transmit(now, src, dst, payload_bytes);
        let delay = inner.book(now, src, dst.0, payload_bytes, tx.arrival, queue_ns);
        match tx.verdict {
            Verdict::Deliver => {}
            Verdict::Drop(_) => inner.stats.dropped += 1,
            Verdict::Duplicate { .. } => inner.stats.duplicated += 1,
        }
        if let Some(hub) = &inner.obs {
            match tx.verdict {
                Verdict::Drop(reason) => hub.emit(ObsEvent::FaultDrop {
                    t_ns: now.as_nanos(),
                    src: src.0,
                    dst: dst.0,
                    reason: reason.label().into(),
                }),
                Verdict::Deliver | Verdict::Duplicate { .. } => hub.emit(ObsEvent::NetDeliver {
                    t_ns: tx.arrival.as_nanos(),
                    src: src.0,
                    dst: dst.0,
                    delay_ns: delay.as_nanos(),
                }),
            }
            if let Verdict::Duplicate { second } = tx.verdict {
                hub.emit(ObsEvent::FaultDup {
                    t_ns: second.as_nanos(),
                    src: src.0,
                    dst: dst.0,
                });
            }
        }
        tx
    }

    /// Snapshot of the aggregate statistics.
    pub fn stats(&self) -> NetStats {
        let inner = self.inner.borrow();
        NetStats {
            medium: inner.medium.stats(),
            ..inner.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ethernet::EthernetBus;

    #[test]
    fn stats_track_max_delay_under_contention() {
        let net = Network::new(EthernetBus::ten_mbps(0));
        let t = SimTime::ZERO;
        for _ in 0..50 {
            net.inject(t, NodeId(0), NodeId(1), 1500);
        }
        let stats = net.stats();
        assert_eq!(stats.messages, 50);
        assert!(stats.max_delay > stats.mean_delay());
        assert!(stats.medium.queueing > SimTime::ZERO);
    }
}
