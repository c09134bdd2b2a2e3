//! The [`Network`] handle: shared access to a medium from simulated
//! processes and events, with delivery scheduling and aggregate statistics.

use std::cell::RefCell;
use std::rc::Rc;

use nscc_obs::{Hub, ObsEvent};
use nscc_sim::{Ctx, EventCtx, Mailbox, SimTime};

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
    messages: u64,
    total_delay: SimTime,
    max_delay: SimTime,
    dropped: u64,
    duplicated: u64,
    obs: Option<Hub>,
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
                messages: 0,
                total_delay: SimTime::ZERO,
                max_delay: SimTime::ZERO,
                dropped: 0,
                duplicated: 0,
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

    /// Submit a message and schedule its delivery into `mailbox` at the
    /// arrival time computed by the medium (honouring the medium's
    /// delivery verdict: dropped frames schedule nothing, duplicated
    /// frames schedule a second copy). Returns the arrival time the
    /// sender observes.
    pub fn send_to<T: Clone + 'static>(
        &self,
        ctx: &mut Ctx,
        src: NodeId,
        dst: NodeId,
        payload_bytes: usize,
        mailbox: &Mailbox<T>,
        msg: T,
    ) -> SimTime {
        let now = ctx.now();
        let tx = self.plan(now, src, dst, payload_bytes);
        match tx.verdict {
            Verdict::Deliver => {
                let mb = mailbox.clone();
                ctx.schedule_fn(tx.arrival - now, move |ec| mb.deliver(ec, msg));
            }
            Verdict::Drop(_) => {}
            Verdict::Duplicate { second } => {
                let (mb, mb2) = (mailbox.clone(), mailbox.clone());
                let copy = msg.clone();
                ctx.schedule_fn(tx.arrival - now, move |ec| mb.deliver(ec, msg));
                ctx.schedule_fn(second.saturating_sub(now), move |ec| mb2.deliver(ec, copy));
            }
        }
        tx.arrival
    }

    /// Like [`send_to`](Network::send_to), but callable from event context
    /// (used by protocol layers that forward inside events).
    pub fn send_to_from_event<T: Clone + 'static>(
        &self,
        ec: &mut EventCtx<'_>,
        src: NodeId,
        dst: NodeId,
        payload_bytes: usize,
        mailbox: &Mailbox<T>,
        msg: T,
    ) -> SimTime {
        let now = ec.now();
        let tx = self.plan(now, src, dst, payload_bytes);
        match tx.verdict {
            Verdict::Deliver => {
                let mb = mailbox.clone();
                ec.schedule_fn(tx.arrival - now, move |ec2| mb.deliver(ec2, msg));
            }
            Verdict::Drop(_) => {}
            Verdict::Duplicate { second } => {
                let (mb, mb2) = (mailbox.clone(), mailbox.clone());
                let copy = msg.clone();
                ec.schedule_fn(tx.arrival - now, move |ec2| mb.deliver(ec2, msg));
                ec.schedule_fn(second.saturating_sub(now), move |ec2| {
                    mb2.deliver(ec2, copy)
                });
            }
        }
        tx.arrival
    }

    /// Deliver one message to several mailboxes. On broadcast-capable
    /// media (the shared Ethernet bus) this costs *one* frame on the
    /// wire; otherwise it falls back to one unicast per destination (as
    /// on a crossbar switch). Returns the latest arrival time.
    pub fn multicast_to<T: Clone + 'static>(
        &self,
        ctx: &mut Ctx,
        src: NodeId,
        dests: &[(NodeId, Mailbox<T>)],
        payload_bytes: usize,
        msg: T,
    ) -> SimTime {
        let now = ctx.now();
        match self.plan_broadcast(now, src, payload_bytes) {
            Some(arrival) => {
                let delay = arrival - now;
                for (_, mb) in dests {
                    let mb = mb.clone();
                    let m = msg.clone();
                    ctx.schedule_fn(delay, move |ec| mb.deliver(ec, m));
                }
                arrival
            }
            None => {
                let mut last = now;
                for (dst, mb) in dests {
                    last = last.max(self.send_to(ctx, src, *dst, payload_bytes, mb, msg.clone()));
                }
                last
            }
        }
    }

    /// Plan one *broadcast* frame: submit it to the medium, account for
    /// it, and emit the `NetSend`/`NetDeliver` pair (with the broadcast
    /// destination sentinel) exactly as the broadcast arm of
    /// [`multicast_to`](Network::multicast_to) always has. Returns
    /// `Some(arrival)` on broadcast-capable media — every destination
    /// hears the frame at that one instant and the caller schedules the
    /// per-destination deliveries — or `None` when the medium has no
    /// hardware broadcast and the caller must fall back to unicast
    /// fan-out. Provenance-stamping layers call this directly so they can
    /// stamp each destination's copy before scheduling it.
    pub fn plan_broadcast(
        &self,
        now: SimTime,
        src: NodeId,
        payload_bytes: usize,
    ) -> Option<SimTime> {
        let (bcast, queue_ns) = {
            let mut inner = self.inner.borrow_mut();
            let queue_ns = if inner.obs.is_some() {
                inner.medium.next_free(now).saturating_sub(now).as_nanos()
            } else {
                0
            };
            (
                inner.medium.transmit_broadcast(now, src, payload_bytes),
                queue_ns,
            )
        };
        let arrival = bcast?;
        debug_assert!(arrival >= now);
        let delay = arrival - now;
        let mut inner = self.inner.borrow_mut();
        inner.messages += 1;
        inner.total_delay = inner.total_delay.saturating_add(delay);
        inner.max_delay = inner.max_delay.max(delay);
        if let Some(hub) = &inner.obs {
            hub.emit(ObsEvent::NetSend {
                t_ns: now.as_nanos(),
                src: src.0,
                dst: BROADCAST,
                bytes: payload_bytes as u64,
                queue_ns,
            });
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
    /// [`Transmission`] — arrival time plus delivery verdict. Protocol
    /// layers that schedule their own delivery events (e.g. an
    /// ack/retransmit shim) use this directly; everything else goes
    /// through [`send_to`](Network::send_to).
    pub fn plan(
        &self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        payload_bytes: usize,
    ) -> Transmission {
        let mut inner = self.inner.borrow_mut();
        // Queueing must be probed before the transmit mutates medium state.
        let queue_ns = if inner.obs.is_some() {
            inner.medium.next_free(now).saturating_sub(now).as_nanos()
        } else {
            0
        };
        let tx = inner.medium.plan_transmit(now, src, dst, payload_bytes);
        debug_assert!(tx.arrival >= now, "medium produced an arrival in the past");
        let delay = tx.arrival - now;
        inner.messages += 1;
        inner.total_delay = inner.total_delay.saturating_add(delay);
        inner.max_delay = inner.max_delay.max(delay);
        match tx.verdict {
            Verdict::Deliver => {}
            Verdict::Drop(_) => inner.dropped += 1,
            Verdict::Duplicate { .. } => inner.duplicated += 1,
        }
        if let Some(hub) = &inner.obs {
            hub.emit(ObsEvent::NetSend {
                t_ns: now.as_nanos(),
                src: src.0,
                dst: dst.0,
                bytes: payload_bytes as u64,
                queue_ns,
            });
            match tx.verdict {
                Verdict::Deliver => hub.emit(ObsEvent::NetDeliver {
                    t_ns: tx.arrival.as_nanos(),
                    src: src.0,
                    dst: dst.0,
                    delay_ns: delay.as_nanos(),
                }),
                Verdict::Drop(reason) => hub.emit(ObsEvent::FaultDrop {
                    t_ns: now.as_nanos(),
                    src: src.0,
                    dst: dst.0,
                    reason: reason.label().into(),
                }),
                Verdict::Duplicate { second } => {
                    hub.emit(ObsEvent::NetDeliver {
                        t_ns: tx.arrival.as_nanos(),
                        src: src.0,
                        dst: dst.0,
                        delay_ns: delay.as_nanos(),
                    });
                    hub.emit(ObsEvent::FaultDup {
                        t_ns: second.as_nanos(),
                        src: src.0,
                        dst: dst.0,
                    });
                }
            }
        }
        tx
    }

    /// Snapshot of the aggregate statistics.
    pub fn stats(&self) -> NetStats {
        let inner = self.inner.borrow();
        NetStats {
            medium: inner.medium.stats(),
            messages: inner.messages,
            total_delay: inner.total_delay,
            max_delay: inner.max_delay,
            dropped: inner.dropped,
            duplicated: inner.duplicated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ethernet::EthernetBus;
    use crate::medium::IdealMedium;
    use nscc_sim::SimBuilder;

    #[test]
    fn send_to_delivers_at_medium_arrival_time() {
        let net = Network::new(IdealMedium::new(SimTime::from_millis(4)));
        let mb: Mailbox<u8> = Mailbox::new("m");
        let (net2, mb2) = (net.clone(), mb.clone());
        let mb3 = mb.clone();
        let mut sim = SimBuilder::new(0);
        sim.spawn("sender", move |ctx| {
            ctx.advance(SimTime::from_millis(1));
            net2.send_to(ctx, NodeId(0), NodeId(1), 128, &mb2, 9);
        });
        sim.spawn("receiver", move |ctx| {
            assert_eq!(mb3.recv(ctx), 9);
            assert_eq!(ctx.now(), SimTime::from_millis(5));
        });
        sim.run().unwrap();
        let stats = net.stats();
        assert_eq!(stats.messages, 1);
        assert_eq!(stats.mean_delay(), SimTime::from_millis(4));
    }

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
