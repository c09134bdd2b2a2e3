//! Optional ack/retransmit layer under the PVM-like endpoints.
//!
//! The paper's PVM transport assumes a lossless LAN; under the fault plans
//! of `nscc-faults` frames can vanish. When [`ReliableConfig`] is set on
//! [`MsgConfig`](crate::MsgConfig), every unicast send is tracked by a
//! sequence number: the receiver acknowledges each frame with a small ack
//! frame (charged to the wire but not to either CPU — think NIC-level),
//! and the sender retransmits unacknowledged frames with exponential
//! backoff until `max_retries` is exhausted. Duplicate deliveries — from
//! spurious retransmits or the medium itself — are suppressed before the
//! application mailbox sees them.
//!
//! Everything after the initial send runs in event context, so a sender
//! blocked in `recv` (or long dead, under a crash plan) still has its
//! frames retried; the protocol state lives in the world-shared
//! [`RelState`]. A tracked send is one shared [`RelFrame`]: every attempt,
//! arriving copy and retry timer holds a handle to it plus its own
//! provenance stamps, so a retransmit storm copies no payload.

use std::cell::RefCell;
use std::rc::Rc;

use nscc_ckpt::json::{FromJson, ToJson};
use nscc_net::Network;
use nscc_obs::{Hub, ObsEvent};
use nscc_sim::{Ctx, Event, EventCtx, Mailbox, SimTime};

use crate::comm::{node, Envelope, Provenance, WorldInner};

/// Tuning knobs for the reliable-delivery layer. In a JSON document (a
/// hunt repro's scenario) every key may be left out and reads as the
/// default below.
#[derive(Debug, Clone, Copy, PartialEq, ToJson, FromJson)]
#[json(default)]
pub struct ReliableConfig {
    /// Wire size of an acknowledgement frame.
    pub ack_bytes: usize,
    /// Retransmission timeout for the first retry; each further retry
    /// doubles it (up to [`max_rto`](ReliableConfig::max_rto)).
    #[json(rename = "base_rto_ns")]
    pub base_rto: SimTime,
    /// Retransmissions attempted before giving up on a frame.
    pub max_retries: u32,
    /// Ceiling on the exponential backoff: no retry interval exceeds this,
    /// so a long partition cannot push the gap between attempts past a
    /// watchdog's `time_limit` (a frame either delivers or gives up on a
    /// bounded schedule). Must be ≥ `base_rto`; it is ignored below that.
    #[json(rename = "max_rto_ns")]
    pub max_rto: SimTime,
}

impl Default for ReliableConfig {
    /// 32-byte acks, 10 ms initial RTO (several LAN round-trips), five
    /// retries — enough to ride out ~97% loss on an independent-loss
    /// link — and a 4 s backoff ceiling (far above the default schedule's
    /// 320 ms final interval, so it only binds in long-partition tunings
    /// with larger retry budgets).
    fn default() -> Self {
        ReliableConfig {
            ack_bytes: 32,
            base_rto: SimTime::from_millis(10),
            max_retries: 5,
            max_rto: SimTime::from_secs(4),
        }
    }
}

impl ReliableConfig {
    /// Timeout before retry `n + 1` (0-based attempt `n`): `base_rto << n`,
    /// with the shift capped so it cannot overflow, clamped to
    /// [`max_rto`](ReliableConfig::max_rto) (but never below `base_rto`).
    fn rto_for(&self, attempt: u32) -> SimTime {
        let exp = SimTime::from_nanos(
            self.base_rto
                .as_nanos()
                .saturating_mul(1u64 << attempt.min(16)),
        );
        if self.max_rto >= self.base_rto {
            exp.min(self.max_rto)
        } else {
            exp
        }
    }
}

/// World-shared protocol state, embedded in the comm world's inner lock.
#[derive(Debug, Default)]
pub(crate) struct RelState {
    /// Next sequence number (world-unique; allocation order is
    /// deterministic because the simulation is).
    pub(crate) next_seq: u64,
    /// Receiver side: sequence numbers already delivered to a mailbox.
    pub(crate) seen: SeqSet,
    /// Sender side: sequence numbers acknowledged by their receiver.
    pub(crate) acked: SeqSet,
}

/// A set of sequence numbers drawn from `RelState::next_seq`: they are
/// dense from zero, so the set is one bit per sequence number handed out.
#[derive(Debug, Default)]
pub(crate) struct SeqSet {
    words: Vec<u64>,
}

impl SeqSet {
    /// Add `seq`; `false` if it was already present.
    pub(crate) fn insert(&mut self, seq: u64) -> bool {
        let (word, bit) = ((seq / 64) as usize, 1u64 << (seq % 64));
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let fresh = self.words[word] & bit == 0;
        self.words[word] |= bit;
        fresh
    }

    /// Whether `seq` has been added.
    pub(crate) fn contains(&self, seq: u64) -> bool {
        self.words
            .get((seq / 64) as usize)
            .is_some_and(|w| w & (1u64 << (seq % 64)) != 0)
    }
}

/// Everything one tracked send needs to retry itself from event context,
/// shared by all of its attempts, arriving copies and retry timers.
pub(crate) struct RelFrame<T> {
    pub(crate) net: Network,
    pub(crate) inner: Rc<RefCell<WorldInner>>,
    pub(crate) obs: Option<Hub>,
    pub(crate) cfg: ReliableConfig,
    pub(crate) src: usize,
    pub(crate) dst: usize,
    pub(crate) seq: u64,
    pub(crate) bytes: usize,
    pub(crate) mailbox: Mailbox<Envelope<T>>,
    pub(crate) sent_at: SimTime,
    pub(crate) payload: T,
}

/// The two scheduling contexts a retry can be issued from.
pub(crate) trait Sched {
    fn now(&self) -> SimTime;
    fn after(&mut self, delay: SimTime, event: Event);
}

impl Sched for Ctx {
    fn now(&self) -> SimTime {
        Ctx::now(self)
    }
    fn after(&mut self, delay: SimTime, event: Event) {
        self.schedule(delay, event);
    }
}

impl Sched for EventCtx<'_> {
    fn now(&self) -> SimTime {
        EventCtx::now(self)
    }
    fn after(&mut self, delay: SimTime, event: Event) {
        self.schedule(delay, event);
    }
}

/// Put attempt `n` (0-based) of `f` on the wire and arm its retry timer;
/// `prov` is the stamp this attempt carries. Returns the planned arrival
/// of this attempt (the sender-observed time, even if the frame is fated
/// to drop).
pub(crate) fn attempt<T: Clone + 'static>(
    s: &mut dyn Sched,
    f: &Rc<RelFrame<T>>,
    prov: Option<Provenance>,
    n: u32,
) -> SimTime {
    let now = s.now();
    let tx = f.net.plan(now, node(f.src), node(f.dst), f.bytes);
    for (at, fault) in tx.copies() {
        let mut prov = prov;
        if let Some(p) = &mut prov {
            // Each copy carries its own hop stamps. Whichever copy
            // delivers first wins the dedup, so the receiver sees a
            // consistent decomposition.
            p.arrive(at, fault);
        }
        let f = Rc::clone(f);
        s.after(
            at.saturating_sub(now),
            Event::new(move |ec| deliver(ec, &f, prov)),
        );
    }

    let f = Rc::clone(f);
    s.after(
        f.cfg.rto_for(n),
        Event::new(move |ec| {
            if f.inner.borrow().rel.acked.contains(f.seq) {
                return;
            }
            if n >= f.cfg.max_retries {
                f.inner.borrow_mut().stats.give_ups += 1;
                if let Some(hub) = &f.obs {
                    hub.emit(ObsEvent::RetransmitGiveUp {
                        t_ns: ec.now().as_nanos(),
                        src: f.src as u32,
                        dst: f.dst as u32,
                        seq: f.seq,
                    });
                }
                return;
            }
            f.inner.borrow_mut().stats.retransmits += 1;
            if let Some(hub) = &f.obs {
                hub.emit(ObsEvent::Retransmit {
                    t_ns: ec.now().as_nanos(),
                    src: f.src as u32,
                    dst: f.dst as u32,
                    seq: f.seq,
                    attempt: n + 1,
                });
            }
            let mut prov = prov;
            if let Some(p) = &mut prov {
                // Provenance keeps the delay the retransmit protocol has
                // added so far: original submit → start of this attempt.
                // Receivers see the stamp of whichever attempt delivered.
                p.retrans_ns = ec.now().saturating_sub(f.sent_at).as_nanos();
            }
            attempt(ec, &f, prov, n + 1);
        }),
    );
    tx.arrival
}

/// A copy of frame `f` stamped `prov` reached the receiving node: deliver
/// it to the application mailbox unless a copy already did, and
/// acknowledge either way (the previous ack may itself have been lost).
fn deliver<T: Clone + 'static>(ec: &mut EventCtx<'_>, f: &RelFrame<T>, prov: Option<Provenance>) {
    let fresh = {
        let mut g = f.inner.borrow_mut();
        let fresh = g.rel.seen.insert(f.seq);
        if !fresh {
            g.stats.dup_suppressed += 1;
        }
        g.stats.acks_sent += 1;
        fresh
    };
    if fresh {
        // The audit layer's sequence monitor watches these: a (src, dst,
        // seq) triple accepted twice means the dedup above failed.
        if let Some(hub) = &f.obs {
            hub.emit(ObsEvent::SeqAccept {
                t_ns: ec.now().as_nanos(),
                src: f.src as u32,
                dst: f.dst as u32,
                seq: f.seq,
            });
        }
        let env = Envelope {
            src: f.src,
            sent_at: f.sent_at,
            prov,
            payload: f.payload.clone(),
        };
        f.mailbox.deliver(ec, env);
    }

    let now = ec.now();
    let ack = f.net.plan(now, node(f.dst), node(f.src), f.cfg.ack_bytes);
    // The first copy to arrive acknowledges; a duplicate adds nothing.
    if let Some((at, _)) = ack.copies().next() {
        let inner = Rc::clone(&f.inner);
        let seq = f.seq;
        ec.schedule_fn(at.saturating_sub(now), move |_| {
            inner.borrow_mut().rel.acked.insert(seq);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CommWorld, MsgConfig};
    use nscc_net::{DropReason, MediumStats, NodeId, Transmission, Verdict};
    use nscc_sim::SimBuilder;

    /// Fixed-latency medium that misbehaves on *data* frames (anything
    /// bigger than an ack): the first `drop_next` are lost, and every data
    /// frame is duplicated when `duplicate` is set. Acks always pass.
    struct Chaotic {
        delay: SimTime,
        data_min: usize,
        drop_next: u32,
        duplicate: bool,
        stats: MediumStats,
    }

    impl Chaotic {
        fn new(drop_next: u32, duplicate: bool) -> Self {
            Chaotic {
                delay: SimTime::from_millis(1),
                // Data frames here are 8-byte payloads + 32-byte header;
                // anything larger than a bare ack counts as data.
                data_min: 33,
                drop_next,
                duplicate,
                stats: MediumStats::default(),
            }
        }
    }

    impl nscc_net::Medium for Chaotic {
        fn transmit(
            &mut self,
            now: SimTime,
            _src: NodeId,
            _dst: NodeId,
            payload_bytes: usize,
        ) -> SimTime {
            self.stats.frames += 1;
            self.stats.payload_bytes += payload_bytes as u64;
            now + self.delay
        }

        fn plan_transmit(
            &mut self,
            now: SimTime,
            src: NodeId,
            dst: NodeId,
            payload_bytes: usize,
        ) -> Transmission {
            let arrival = self.transmit(now, src, dst, payload_bytes);
            if payload_bytes >= self.data_min {
                if self.drop_next > 0 {
                    self.drop_next -= 1;
                    return Transmission {
                        arrival,
                        verdict: Verdict::Drop(DropReason::Loss),
                        fault: SimTime::ZERO,
                    };
                }
                if self.duplicate {
                    return Transmission {
                        arrival,
                        verdict: Verdict::Duplicate {
                            second: arrival + self.delay,
                        },
                        fault: SimTime::ZERO,
                    };
                }
            }
            Transmission {
                arrival,
                verdict: Verdict::Deliver,
                fault: SimTime::ZERO,
            }
        }

        fn stats(&self) -> MediumStats {
            self.stats
        }

        fn next_free(&self, now: SimTime) -> SimTime {
            now
        }
    }

    fn reliable_world(medium: Chaotic) -> CommWorld<u64> {
        CommWorld::new(
            Network::new(medium),
            2,
            MsgConfig {
                reliable: Some(ReliableConfig::default()),
                ..MsgConfig::default()
            },
        )
    }

    #[test]
    fn seq_set_takes_any_order_and_grows_on_demand() {
        let mut set = SeqSet::default();
        // Nothing is present, however far past the capacity we look.
        assert!(!set.contains(0) && !set.contains(u64::from(u32::MAX)));
        // Out of order, across word boundaries, and beyond what the set
        // holds so far: each insert is fresh exactly once.
        for seq in [5, 0, 130, 63, 64, 1000, 2, 129] {
            assert!(set.insert(seq), "first insert of {seq}");
        }
        for seq in [5, 0, 130, 63, 64, 1000, 2, 129] {
            assert!(set.contains(seq), "{seq} present");
            assert!(!set.insert(seq), "duplicate insert of {seq}");
        }
        // Neighbours of what was inserted stay absent, in and out of range.
        for seq in [1, 3, 4, 6, 62, 65, 128, 131, 999, 1001, 1023, 1024, 5000] {
            assert!(!set.contains(seq), "{seq} absent");
        }
        assert_eq!(set.words.len(), 1000 / 64 + 1);
    }

    #[test]
    fn retransmit_recovers_lost_frame() {
        let w = reliable_world(Chaotic::new(2, false));
        let (tx, rx) = (w.endpoint(0), w.endpoint(1));
        let mut sim = SimBuilder::new(7);
        sim.spawn("tx", move |ctx| {
            tx.send(ctx, 1, 99);
        });
        sim.spawn("rx", move |ctx| {
            let env = rx.recv(ctx);
            assert_eq!(env.payload, 99);
            // Two drops at a 10 ms initial RTO: delivery on the third try.
            assert!(ctx.now() >= SimTime::from_millis(30));
        });
        sim.run().unwrap();
        let stats = w.stats();
        assert_eq!(stats.received, 1);
        assert_eq!(stats.retransmits, 2);
        assert_eq!(stats.give_ups, 0);
    }

    #[test]
    fn duplicates_are_suppressed() {
        let w = reliable_world(Chaotic::new(0, true));
        let (tx, rx) = (w.endpoint(0), w.endpoint(1));
        let mut sim = SimBuilder::new(7);
        sim.spawn("tx", move |ctx| {
            tx.send(ctx, 1, 5);
            tx.send(ctx, 1, 6);
        });
        sim.spawn("rx", move |ctx| {
            assert_eq!(rx.recv(ctx).payload, 5);
            assert_eq!(rx.recv(ctx).payload, 6);
            // The duplicate copies must never surface.
            assert!(rx
                .recv_deadline(ctx, ctx.now() + SimTime::from_millis(50))
                .is_none());
        });
        sim.run().unwrap();
        let stats = w.stats();
        assert_eq!(stats.received, 2);
        assert!(stats.dup_suppressed >= 2, "dups: {}", stats.dup_suppressed);
        assert_eq!(stats.retransmits, 0);
    }

    #[test]
    fn black_hole_gives_up_after_max_retries() {
        let w = reliable_world(Chaotic::new(u32::MAX, false));
        let (tx, rx) = (w.endpoint(0), w.endpoint(1));
        let mut sim = SimBuilder::new(7);
        sim.spawn("tx", move |ctx| {
            tx.send(ctx, 1, 1);
            // Past base_rto * (2^6 - 1) = 630 ms, every retry has fired.
            ctx.advance(SimTime::from_secs(2));
        });
        sim.spawn("rx", move |ctx| {
            assert!(rx.recv_deadline(ctx, SimTime::from_secs(1)).is_none());
        });
        sim.run().unwrap();
        let stats = w.stats();
        assert_eq!(stats.received, 0);
        assert_eq!(
            stats.retransmits,
            ReliableConfig::default().max_retries as u64
        );
        assert_eq!(stats.give_ups, 1);
    }

    #[test]
    fn backoff_ceiling_bounds_retry_intervals_under_a_long_partition() {
        // Ten retries at base 10 ms would end with a 10.24 s interval
        // uncapped; a 40 ms ceiling keeps the whole schedule (10 + 20 +
        // 40 + 7·40 = 350 ms) inside a short watchdog budget.
        let w = CommWorld::new(
            Network::new(Chaotic::new(u32::MAX, false)),
            2,
            MsgConfig {
                reliable: Some(ReliableConfig {
                    max_retries: 10,
                    max_rto: SimTime::from_millis(40),
                    ..ReliableConfig::default()
                }),
                ..MsgConfig::default()
            },
        );
        let (tx, rx) = (w.endpoint(0), w.endpoint(1));
        let mut sim = SimBuilder::new(7);
        sim.spawn("tx", move |ctx| {
            tx.send(ctx, 1, 1);
            ctx.advance(SimTime::from_millis(500));
        });
        sim.spawn("rx", move |ctx| {
            assert!(rx.recv_deadline(ctx, SimTime::from_millis(500)).is_none());
        });
        sim.run().unwrap();
        let stats = w.stats();
        assert_eq!(stats.received, 0);
        assert_eq!(stats.retransmits, 10, "every retry fired within 500 ms");
        assert_eq!(stats.give_ups, 1, "the frame gave up on a bounded schedule");
    }

    #[test]
    fn rto_ceiling_clamps_without_dropping_below_base() {
        let rc = ReliableConfig {
            base_rto: SimTime::from_millis(10),
            max_rto: SimTime::from_millis(35),
            ..ReliableConfig::default()
        };
        assert_eq!(rc.rto_for(0), SimTime::from_millis(10));
        assert_eq!(rc.rto_for(1), SimTime::from_millis(20));
        assert_eq!(rc.rto_for(2), SimTime::from_millis(35));
        assert_eq!(rc.rto_for(9), SimTime::from_millis(35));
        // A ceiling below base_rto is ignored rather than starving retries.
        let bad = ReliableConfig {
            base_rto: SimTime::from_millis(10),
            max_rto: SimTime::from_millis(1),
            ..ReliableConfig::default()
        };
        assert_eq!(bad.rto_for(3), SimTime::from_millis(80));
    }

    #[test]
    fn rto_cap_equal_to_base_pins_every_retry_at_base() {
        // Boundary: a ceiling exactly at the initial RTO is honored — the
        // whole schedule degenerates to fixed-interval retries at base_rto
        // (the smallest schedule a cap can produce).
        let rc = ReliableConfig {
            base_rto: SimTime::from_millis(10),
            max_rto: SimTime::from_millis(10),
            ..ReliableConfig::default()
        };
        for attempt in [0, 1, 2, 5, 16, 40] {
            assert_eq!(
                rc.rto_for(attempt),
                SimTime::from_millis(10),
                "attempt {attempt}"
            );
        }
    }

    #[test]
    fn rto_cap_below_base_is_ignored_not_clamped() {
        // Pinned decision: a ceiling below base_rto is *ignored* — the
        // schedule runs uncapped exponential backoff exactly as if no
        // ceiling were set. It is neither an error nor clamped up to
        // base_rto, so a misconfigured cap can never starve retries.
        let rc = ReliableConfig {
            base_rto: SimTime::from_millis(10),
            max_rto: SimTime::from_millis(1),
            ..ReliableConfig::default()
        };
        assert_eq!(rc.rto_for(0), SimTime::from_millis(10));
        assert_eq!(rc.rto_for(1), SimTime::from_millis(20));
        assert_eq!(rc.rto_for(6), SimTime::from_millis(640));
    }

    #[test]
    fn give_up_accounting_under_a_shrunk_minimal_loss_plan() {
        use nscc_faults::{FaultPlan, FaultyMedium, LinkFaults, Prob};
        use nscc_net::IdealMedium;

        // The locally-minimal repro shape `nscc shrink` converges to: one
        // removable event (a total-loss override on the 0→1 data link;
        // acks travel 1→0 untouched), removing which makes the plan noop.
        let plan = FaultPlan::new(7).link(
            0,
            1,
            LinkFaults {
                drop_prob: Prob::new(1.0),
                ..LinkFaults::default()
            },
        );
        let removals = plan.removals();
        assert_eq!(removals.len(), 1, "locally minimal: exactly one event");
        assert!(removals[0].1.is_noop());

        let w: CommWorld<u64> = CommWorld::new(
            Network::new(FaultyMedium::new(
                IdealMedium::new(SimTime::from_millis(1)),
                plan,
            )),
            2,
            MsgConfig {
                reliable: Some(ReliableConfig::default()),
                ..MsgConfig::default()
            },
        );
        let (tx, rx) = (w.endpoint(0), w.endpoint(1));
        let back = w.endpoint(1);
        let front = w.endpoint(0);
        let mut sim = SimBuilder::new(7);
        sim.spawn("tx", move |ctx| {
            tx.send(ctx, 1, 41);
            tx.send(ctx, 1, 42);
            // Default schedule: 10+20+40+80+160 ms of retries, then the
            // give-up; stay alive well past it.
            ctx.advance(SimTime::from_secs(2));
            // The reverse link is clean: proof the loss is the one event.
            back.send(ctx, 0, 7);
        });
        sim.spawn("rx", move |ctx| {
            assert!(rx.recv_deadline(ctx, SimTime::from_secs(1)).is_none());
            assert_eq!(front.recv(ctx).payload, 7);
        });
        sim.run().unwrap();
        let stats = w.stats();
        // Exactly one give-up per swallowed frame, each after a full retry
        // budget; the clean reverse frame inflates neither counter.
        assert_eq!(stats.give_ups, 2);
        assert_eq!(
            stats.retransmits,
            2 * ReliableConfig::default().max_retries as u64
        );
        assert_eq!(stats.received, 1);
    }

    #[test]
    fn clean_link_needs_no_retransmits() {
        let w = reliable_world(Chaotic::new(0, false));
        let (tx, rx) = (w.endpoint(0), w.endpoint(1));
        let mut sim = SimBuilder::new(7);
        sim.spawn("tx", move |ctx| {
            for v in 0..10 {
                tx.send(ctx, 1, v);
            }
        });
        sim.spawn("rx", move |ctx| {
            for v in 0..10 {
                assert_eq!(rx.recv(ctx).payload, v);
            }
        });
        sim.run().unwrap();
        let stats = w.stats();
        assert_eq!(stats.received, 10);
        assert_eq!(stats.retransmits, 0);
        assert_eq!(stats.dup_suppressed, 0);
        assert_eq!(stats.acks_sent, 10);
    }
}
