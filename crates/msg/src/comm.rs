//! Endpoints and envelopes: the PVM-like communication world.
//!
//! A [`CommWorld`] groups `p` ranks that exchange typed messages over one
//! simulated [`Network`]. Each rank gets an [`Endpoint`] with PVM-flavoured
//! operations: `send`, `multicast`/`broadcast` (like `pvm_mcast`: one frame
//! on a broadcast medium, unicast fan-out elsewhere), blocking `recv`, and
//! non-blocking `try_recv`. Every send shape goes through one submit path.
//! Per-message CPU overheads (the dominant cost of user-level message
//! passing in the paper's era) are charged to the sending/receiving
//! process's virtual clock.

use std::cell::RefCell;
use std::rc::Rc;

use nscc_ckpt::json::ToJson;
use nscc_ckpt::Snapshot;
use nscc_net::{Network, NodeId, WarpMeter};
use nscc_obs::{Hub, ObsEvent};
use nscc_sim::{Ctx, Mailbox, SimTime};

use crate::reliable::{self, RelFrame, RelState, ReliableConfig};
use crate::wire::{wire_size, WireSize};

/// Per-message CPU costs and fixed header size.
#[derive(Debug, Clone)]
pub struct MsgConfig {
    /// CPU time the sender spends per send (packing + syscall).
    pub send_overhead: SimTime,
    /// CPU time the receiver spends per received message (unpacking).
    pub recv_overhead: SimTime,
    /// Message-layer header bytes added to every payload.
    pub header_bytes: usize,
    /// Ack/retransmit layer for lossy media; `None` (the default) keeps
    /// the paper's fire-and-forget transport, byte-for-byte.
    pub reliable: Option<ReliableConfig>,
    /// Mailbox depth at which a one-shot backpressure warning fires per
    /// rank (stderr line + `MailboxHigh` obs event). `None` disables.
    /// Bench bins set this from `NSCC_MAILBOX_WARN`.
    pub mailbox_warn: Option<u64>,
}

impl Default for MsgConfig {
    /// PVM 3.x (direct routing) on a 77 MHz RS/6000: roughly 150 µs of
    /// sender CPU and 100 µs of receiver CPU per message, 32-byte message
    /// header, no reliability layer.
    fn default() -> Self {
        MsgConfig {
            send_overhead: SimTime::from_micros(150),
            recv_overhead: SimTime::from_micros(100),
            header_bytes: 32,
            reliable: None,
            mailbox_warn: None,
        }
    }
}

/// Causal provenance of one tagged message: which writer generated which
/// location at which iteration, plus the frame's virtual-time budget so
/// far. Stamped by [`Endpoint::multicast_tagged`] **only when an
/// observability hub is attached** — detached worlds never allocate a
/// sequence number or probe the medium, preserving the
/// zero-cost-when-detached guarantee.
#[derive(Debug, Clone, Copy, Default)]
pub struct Provenance {
    /// Writing rank.
    pub writer: u32,
    /// Location identifier (the DSM's `LocId.0`).
    pub loc: u32,
    /// Writer's iteration number when the value was generated.
    pub write_iter: u64,
    /// World-unique message sequence number (allocation order is
    /// deterministic because the simulation is).
    pub msg_seq: u64,
    /// Time the frame waited for the medium before its first transmission
    /// could start, in nanoseconds (probed at submit time).
    pub queued_ns: u64,
    /// Delay added by the reliable layer's retransmissions: original
    /// submit → start of the delivering attempt. Zero on first-try
    /// deliveries and on unreliable transports.
    pub retrans_ns: u64,
    /// Virtual time the value was written — stamped in
    /// `Endpoint::stamp` *before* the sender's per-message CPU overhead
    /// advances the clock, so `sent_at - write_ns` is exactly the
    /// writer-side publish cost.
    pub write_ns: u64,
    /// Injected fault delay carried by the delivering frame copy (stall
    /// floors, degradation windows, delay faults; a duplicate's second
    /// copy also books its inter-copy gap here). The staleness tracer's
    /// `fault` stage.
    pub fault_ns: u64,
    /// Virtual time this frame copy arrives at the destination — stamped
    /// per delivered copy at plan time, so retransmitted and duplicated
    /// copies each carry their own arrival.
    pub arrive_ns: u64,
    /// Virtual time the receiver popped the envelope from its mailbox —
    /// stamped in `finish_recv` *before* the receiver's per-message CPU
    /// overhead advances the clock, so `arrive_ns..recv_ns` is exactly
    /// the mailbox dwell.
    pub recv_ns: u64,
}

impl Provenance {
    /// Stamp the copy that arrives at `at` carrying `fault` of injected
    /// delay (see [`Transmission::copies`](nscc_net::Transmission::copies)).
    pub(crate) fn arrive(&mut self, at: SimTime, fault: SimTime) {
        self.arrive_ns = at.as_nanos();
        self.fault_ns = fault.as_nanos();
    }
}

/// The network node rank `rank` sits on: ranks map to nodes `0..p`.
pub(crate) fn node(rank: usize) -> NodeId {
    NodeId(rank as u32)
}

/// Hand `value` to `f` once per item: a clone for every item but the
/// last, which gets the original.
fn share<I, V: Clone>(items: impl IntoIterator<Item = I>, value: V, mut f: impl FnMut(I, V)) {
    let mut items = items.into_iter().peekable();
    while let Some(item) = items.next() {
        if items.peek().is_none() {
            return f(item, value);
        }
        f(item, value.clone());
    }
}

/// A received message with its transport metadata.
#[derive(Debug, Clone)]
pub struct Envelope<T> {
    /// Sending rank.
    pub src: usize,
    /// Virtual time at which the sender submitted the message.
    pub sent_at: SimTime,
    /// Causal provenance, present only on tagged sends from a world with
    /// an observability hub attached (see [`Provenance`]).
    pub prov: Option<Provenance>,
    /// The payload.
    pub payload: T,
}

/// Cumulative per-world message counters.
#[derive(Debug, Clone, Copy, Default, ToJson, Snapshot)]
pub struct CommStats {
    /// Messages sent (one per destination; a broadcast to `p-1` peers
    /// counts `p-1`).
    pub sent: u64,
    /// Messages received by application code.
    pub received: u64,
    /// Total payload bytes sent (excluding headers).
    pub payload_bytes: u64,
    /// Frames retransmitted by the reliable layer (0 when disabled).
    pub retransmits: u64,
    /// Acknowledgement frames put on the wire by the reliable layer.
    pub acks_sent: u64,
    /// Duplicate deliveries suppressed before reaching a mailbox.
    pub dup_suppressed: u64,
    /// Frames abandoned after exhausting their retries.
    pub give_ups: u64,
    /// Deepest any rank's mailbox has ever been (backpressure gauge; a
    /// receiver keeping up holds this near 1 regardless of volume).
    pub mailbox_high_watermark: u64,
}

impl CommStats {
    /// Accumulate another world's counters (for aggregating over runs).
    /// The mailbox high-watermark is a gauge, so it merges by max.
    pub fn merge(&mut self, other: &CommStats) {
        self.sent += other.sent;
        self.received += other.received;
        self.payload_bytes += other.payload_bytes;
        self.retransmits += other.retransmits;
        self.acks_sent += other.acks_sent;
        self.dup_suppressed += other.dup_suppressed;
        self.give_ups += other.give_ups;
        self.mailbox_high_watermark = self
            .mailbox_high_watermark
            .max(other.mailbox_high_watermark);
    }
}

pub(crate) struct WorldInner {
    pub(crate) stats: CommStats,
    pub(crate) rel: RelState,
    /// Next provenance sequence number (see [`Provenance::msg_seq`]).
    pub(crate) prov_seq: u64,
}

/// A communication world of `p` ranks over one simulated network. World,
/// endpoints and messages in flight stay on the simulation's thread:
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<nscc_msg::CommWorld<u64>>();
/// ```
pub struct CommWorld<T: 'static> {
    net: Network,
    boxes: Vec<Mailbox<Envelope<T>>>,
    cfg: MsgConfig,
    warp: Option<WarpMeter>,
    obs: Option<Hub>,
    inner: Rc<RefCell<WorldInner>>,
}

impl<T: 'static> CommWorld<T> {
    /// A world of `ranks` endpoints mapped to nodes `0..ranks` of `net`.
    pub fn new(net: Network, ranks: usize, cfg: MsgConfig) -> Self {
        let boxes: Vec<Mailbox<Envelope<T>>> = (0..ranks)
            .map(|r| Mailbox::new(format!("rank{r}")))
            .collect();
        if let Some(warn) = cfg.mailbox_warn {
            for mb in &boxes {
                mb.set_warn_threshold(warn);
            }
        }
        CommWorld {
            net,
            boxes,
            cfg,
            warp: None,
            obs: None,
            inner: Rc::new(RefCell::new(WorldInner {
                stats: CommStats::default(),
                rel: RelState::default(),
                prov_seq: 0,
            })),
        }
    }

    /// Attach a [`WarpMeter`]; every subsequent receive records a warp
    /// observation (as the paper instruments *all* messages above PVM).
    pub fn with_warp(mut self, warp: WarpMeter) -> Self {
        self.warp = Some(warp);
        self
    }

    /// Attach an observability hub. When a [`WarpMeter`] is also attached,
    /// every warp sample produced at receive time is forwarded to the
    /// hub's warp timeline, timestamped with the receiver's virtual clock.
    pub fn with_obs(mut self, hub: Hub) -> Self {
        self.obs = Some(hub);
        self
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.boxes.len()
    }

    /// The endpoint for `rank`.
    pub fn endpoint(&self, rank: usize) -> Endpoint<T> {
        assert!(rank < self.ranks(), "rank {rank} out of range");
        Endpoint {
            rank,
            peers: (0..self.ranks()).filter(|&d| d != rank).collect(),
            net: self.net.clone(),
            boxes: self.boxes.clone(),
            cfg: self.cfg.clone(),
            warp: self.warp.clone(),
            obs: self.obs.clone(),
            inner: Rc::clone(&self.inner),
        }
    }

    /// Snapshot of the counters. The mailbox high-watermark is computed
    /// here, as the max over every rank's mailbox.
    pub fn stats(&self) -> CommStats {
        let mut stats = self.inner.borrow().stats;
        stats.mailbox_high_watermark = self
            .boxes
            .iter()
            .map(|mb| mb.high_watermark())
            .max()
            .unwrap_or(0);
        stats
    }
}

/// One rank's handle into a [`CommWorld`].
pub struct Endpoint<T: 'static> {
    rank: usize,
    /// Every rank but this one, ascending: the broadcast destination list.
    peers: Vec<usize>,
    net: Network,
    boxes: Vec<Mailbox<Envelope<T>>>,
    cfg: MsgConfig,
    warp: Option<WarpMeter>,
    obs: Option<Hub>,
    inner: Rc<RefCell<WorldInner>>,
}

// Not derived: cloning an endpoint shares the world, so `T: Clone` is not
// needed (and a derive would demand it).
impl<T: 'static> Clone for Endpoint<T> {
    fn clone(&self) -> Self {
        Endpoint {
            rank: self.rank,
            peers: self.peers.clone(),
            net: self.net.clone(),
            boxes: self.boxes.clone(),
            cfg: self.cfg.clone(),
            warp: self.warp.clone(),
            obs: self.obs.clone(),
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T: WireSize + Clone + 'static> Endpoint<T> {
    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn ranks(&self) -> usize {
        self.boxes.len()
    }

    /// Send `payload` to `dst`, charging the sender's CPU overhead and
    /// occupying the network. Returns the scheduled arrival time.
    pub fn send(&self, ctx: &mut Ctx, dst: usize, payload: T) -> SimTime {
        self.submit(ctx, &[dst], payload, None)
    }

    /// Send `payload` to every other rank. On broadcast-capable media
    /// (the shared Ethernet) this is one frame on the wire and one
    /// sender-side CPU charge — `pvm_mcast` over a bus; elsewhere it
    /// falls back to unicast fan-out.
    pub fn broadcast(&self, ctx: &mut Ctx, payload: T) {
        self.multicast(ctx, &self.peers, payload);
    }

    /// Send `payload` to the given ranks with a single sender-side pack
    /// (one wire frame on broadcast media). Destination order must not
    /// include this rank.
    pub fn multicast(&self, ctx: &mut Ctx, dsts: &[usize], payload: T) {
        self.submit(ctx, dsts, payload, None);
    }

    /// [`multicast`](Endpoint::multicast) with a causal provenance stamp:
    /// every copy records that it carries `loc` as generated in the
    /// sender's iteration `write_iter`. When no observability hub is
    /// attached the stamp is skipped entirely (no sequence allocation, no
    /// medium probe) and this is exactly `multicast`.
    pub fn multicast_tagged(
        &self,
        ctx: &mut Ctx,
        dsts: &[usize],
        payload: T,
        loc: u32,
        write_iter: u64,
    ) {
        let prov = self.stamp(ctx, loc, write_iter);
        self.submit(ctx, dsts, payload, prov);
    }

    /// The one send path: charge the sender's CPU once, count every
    /// destination, and put the envelope on the wire — one broadcast
    /// frame when there is more than one destination and the medium has
    /// hardware broadcast, otherwise one frame per destination (through
    /// the ack/retransmit layer when it is on: per-destination acking
    /// cannot ride a single frame). Returns the arrival of the last frame
    /// planned (the broadcast instant; `now` when `dsts` is empty).
    fn submit(
        &self,
        ctx: &mut Ctx,
        dsts: &[usize],
        payload: T,
        prov: Option<Provenance>,
    ) -> SimTime {
        if dsts.is_empty() {
            return ctx.now();
        }
        for &d in dsts {
            assert!(d < self.boxes.len(), "destination rank {d} out of range");
            assert_ne!(d, self.rank, "self-sends are not modeled; use local state");
        }
        ctx.advance(self.cfg.send_overhead);
        let bytes = wire_size(&payload) + self.cfg.header_bytes;
        {
            let mut inner = self.inner.borrow_mut();
            inner.stats.sent += dsts.len() as u64;
            inner.stats.payload_bytes += (bytes - self.cfg.header_bytes) as u64;
        }
        let now = ctx.now();
        let env = Envelope {
            src: self.rank,
            sent_at: now,
            prov,
            payload,
        };
        if dsts.len() > 1 && self.cfg.reliable.is_none() {
            if let Some(arrival) = self.net.plan_broadcast(now, node(self.rank), bytes) {
                // One frame on the wire, heard by all at one instant.
                // Broadcast-capable media are never fault-wrapped (the
                // fault layer masks hardware broadcast), so no copy
                // carries a fault share.
                share(dsts, env, |&d, env| {
                    self.schedule_copy(ctx, d, env, (arrival, SimTime::ZERO))
                });
                return arrival;
            }
        }
        let mut arrival = now;
        share(dsts, env, |&d, env| {
            arrival = match self.cfg.reliable {
                None => self.plan_and_deliver(ctx, d, bytes, env),
                Some(rc) => self.rel_send(ctx, d, bytes, env, rc),
            }
        });
        arrival
    }

    /// Plan one unicast frame and schedule each copy its verdict delivers
    /// into the destination mailbox. Returns the planned arrival.
    fn plan_and_deliver(
        &self,
        ctx: &mut Ctx,
        dst: usize,
        bytes: usize,
        env: Envelope<T>,
    ) -> SimTime {
        let tx = self.net.plan(ctx.now(), node(self.rank), node(dst), bytes);
        share(tx.copies(), env, |copy, env| {
            self.schedule_copy(ctx, dst, env, copy)
        });
        tx.arrival
    }

    /// Schedule one copy of `env` into `dst`'s mailbox at `copy`'s
    /// arrival, its provenance (when present) stamped with that copy's
    /// own arrival and fault share.
    fn schedule_copy(
        &self,
        ctx: &mut Ctx,
        dst: usize,
        mut env: Envelope<T>,
        (at, fault): (SimTime, SimTime),
    ) {
        if let Some(p) = env.prov.as_mut() {
            p.arrive(at, fault);
        }
        let mb = self.boxes[dst].clone();
        ctx.schedule_fn(at.saturating_sub(ctx.now()), move |ec| mb.deliver(ec, env));
    }

    /// Build the provenance stamp for a tagged send, or `None` when the
    /// world has no hub (the zero-cost-when-detached path: one branch).
    /// The queueing probe is read *before* the send occupies the medium,
    /// so it reflects the backlog this frame actually waits behind.
    fn stamp(&self, ctx: &Ctx, loc: u32, write_iter: u64) -> Option<Provenance> {
        self.obs.as_ref()?;
        let msg_seq = {
            let mut inner = self.inner.borrow_mut();
            let s = inner.prov_seq;
            inner.prov_seq += 1;
            s
        };
        // The probe uses the post-overhead submit time the frame will see.
        let at = ctx.now() + self.cfg.send_overhead;
        Some(Provenance {
            writer: self.rank as u32,
            loc,
            write_iter,
            msg_seq,
            queued_ns: self.net.queue_delay(at).as_nanos(),
            retrans_ns: 0,
            // Stamped before the send overhead advances the clock: the
            // value exists *now*; everything until `sent_at` is publish.
            write_ns: ctx.now().as_nanos(),
            fault_ns: 0,
            arrive_ns: 0,
            recv_ns: 0,
        })
    }

    /// Hand one envelope to the ack/retransmit layer (see
    /// [`crate::reliable`]).
    fn rel_send(
        &self,
        ctx: &mut Ctx,
        dst: usize,
        bytes: usize,
        env: Envelope<T>,
        rc: ReliableConfig,
    ) -> SimTime {
        let seq = {
            let mut inner = self.inner.borrow_mut();
            let seq = inner.rel.next_seq;
            inner.rel.next_seq += 1;
            seq
        };
        let frame = RelFrame {
            net: self.net.clone(),
            inner: Rc::clone(&self.inner),
            obs: self.obs.clone(),
            cfg: rc,
            src: self.rank,
            dst,
            seq,
            bytes,
            mailbox: self.boxes[dst].clone(),
            sent_at: env.sent_at,
            payload: env.payload,
        };
        reliable::attempt(ctx, &Rc::new(frame), env.prov, 0)
    }

    /// Blocking receive: suspends in virtual time until a message arrives,
    /// then charges the receiver's CPU overhead.
    pub fn recv(&self, ctx: &mut Ctx) -> Envelope<T> {
        let mut env = self.boxes[self.rank].recv(ctx);
        self.finish_recv(ctx, &mut env);
        env
    }

    /// Blocking receive with a virtual-time deadline: returns `None` if no
    /// message arrives by `deadline` (overhead is charged only on
    /// success). The degradation primitive for fault-tolerant layers.
    pub fn recv_deadline(&self, ctx: &mut Ctx, deadline: SimTime) -> Option<Envelope<T>> {
        let mut env = self.boxes[self.rank].recv_deadline(ctx, deadline)?;
        self.finish_recv(ctx, &mut env);
        Some(env)
    }

    /// Non-blocking receive; charges receive overhead only on success.
    pub fn try_recv(&self, ctx: &mut Ctx) -> Option<Envelope<T>> {
        let mut env = self.boxes[self.rank].try_recv()?;
        self.finish_recv(ctx, &mut env);
        Some(env)
    }

    /// Messages currently queued for this rank.
    pub fn pending(&self) -> usize {
        self.boxes[self.rank].len()
    }

    fn finish_recv(&self, ctx: &mut Ctx, env: &mut Envelope<T>) {
        // Stamp the pop instant before the receive overhead advances the
        // clock: `arrive_ns..recv_ns` is pure mailbox dwell, the overhead
        // is booked downstream (the DSM's apply stage).
        if let Some(p) = env.prov.as_mut() {
            p.recv_ns = ctx.now().as_nanos();
        }
        ctx.advance(self.cfg.recv_overhead);
        self.inner.borrow_mut().stats.received += 1;
        if let Some(depth) = self.boxes[self.rank].take_warn() {
            if let Some(hub) = &self.obs {
                hub.emit(ObsEvent::MailboxHigh {
                    t_ns: ctx.now().as_nanos(),
                    rank: self.rank as u32,
                    depth,
                });
            }
        }
        if let Some(warp) = &self.warp {
            let sample = warp.observe(node(self.rank), node(env.src), env.sent_at, ctx.now());
            if let (Some(s), Some(hub)) = (sample, &self.obs) {
                hub.warp_sample(ctx.now().as_nanos(), s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nscc_net::IdealMedium;
    use nscc_sim::SimBuilder;

    fn world(ranks: usize) -> CommWorld<u64> {
        CommWorld::new(
            Network::new(IdealMedium::new(SimTime::from_millis(1))),
            ranks,
            MsgConfig::default(),
        )
    }

    #[test]
    fn ping_pong_roundtrip() {
        let w = world(2);
        let (e0, e1) = (w.endpoint(0), w.endpoint(1));
        let mut sim = SimBuilder::new(0);
        sim.spawn("r0", move |ctx| {
            e0.send(ctx, 1, 42);
            let back = e0.recv(ctx);
            assert_eq!(back.payload, 43);
            assert_eq!(back.src, 1);
        });
        sim.spawn("r1", move |ctx| {
            let msg = e1.recv(ctx);
            assert_eq!(msg.payload, 42);
            assert_eq!(msg.src, 0);
            e1.send(ctx, 0, msg.payload + 1);
        });
        sim.run().unwrap();
        let stats = w.stats();
        assert_eq!(stats.sent, 2);
        assert_eq!(stats.received, 2);
    }

    #[test]
    fn broadcast_reaches_all_other_ranks() {
        let w = world(4);
        let sender = w.endpoint(0);
        let mut sim = SimBuilder::new(0);
        sim.spawn("r0", move |ctx| sender.broadcast(ctx, 7));
        for r in 1..4 {
            let e = w.endpoint(r);
            sim.spawn(format!("r{r}"), move |ctx| {
                assert_eq!(e.recv(ctx).payload, 7);
            });
        }
        sim.run().unwrap();
        assert_eq!(w.stats().sent, 3);
    }

    #[test]
    fn send_charges_cpu_overhead() {
        let w = world(2);
        let e0 = w.endpoint(0);
        let sink = w.endpoint(1);
        let mut sim = SimBuilder::new(0);
        sim.spawn("r0", move |ctx| {
            e0.send(ctx, 1, 1);
            assert_eq!(ctx.now(), MsgConfig::default().send_overhead);
        });
        sim.spawn("r1", move |ctx| {
            let _ = sink.recv(ctx);
        });
        sim.run().unwrap();
    }

    #[test]
    fn try_recv_is_nonblocking() {
        let w = world(2);
        let e1 = w.endpoint(1);
        let mut sim = SimBuilder::new(0);
        sim.spawn("r1", move |ctx| {
            assert!(e1.try_recv(ctx).is_none());
            assert_eq!(ctx.now(), SimTime::ZERO, "miss must not cost CPU");
        });
        sim.run().unwrap();
    }

    #[test]
    fn warp_meter_observes_received_messages() {
        let warp = WarpMeter::new();
        let w = CommWorld::<u64>::new(
            Network::new(IdealMedium::new(SimTime::from_millis(1))),
            2,
            MsgConfig::default(),
        )
        .with_warp(warp.clone());
        let (e0, e1) = (w.endpoint(0), w.endpoint(1));
        let mut sim = SimBuilder::new(0);
        sim.spawn("r0", move |ctx| {
            for _ in 0..5 {
                ctx.advance(SimTime::from_millis(10));
                e0.send(ctx, 1, 0);
            }
        });
        sim.spawn("r1", move |ctx| {
            for _ in 0..5 {
                let _ = e1.recv(ctx);
            }
        });
        sim.run().unwrap();
        assert_eq!(warp.len(), 4);
        assert!((warp.mean() - 1.0).abs() < 0.05, "ideal medium is stable");
    }

    #[test]
    fn warp_samples_are_forwarded_to_the_hub() {
        let warp = WarpMeter::new();
        let hub = Hub::new();
        let w = CommWorld::<u64>::new(
            Network::new(IdealMedium::new(SimTime::from_millis(1))),
            2,
            MsgConfig::default(),
        )
        .with_warp(warp.clone())
        .with_obs(hub.clone());
        let (e0, e1) = (w.endpoint(0), w.endpoint(1));
        let mut sim = SimBuilder::new(0);
        sim.spawn("r0", move |ctx| {
            for _ in 0..5 {
                ctx.advance(SimTime::from_millis(10));
                e0.send(ctx, 1, 0);
            }
        });
        sim.spawn("r1", move |ctx| {
            for _ in 0..5 {
                let _ = e1.recv(ctx);
            }
        });
        sim.run().unwrap();
        assert_eq!(warp.len(), 4);
        assert_eq!(hub.warp().len(), 4);
        assert!((hub.warp().summary().mean - warp.mean()).abs() < 1e-12);
    }

    #[test]
    fn mailbox_watermark_flows_into_stats_and_obs() {
        let hub = Hub::new();
        let w = CommWorld::<u64>::new(
            Network::new(IdealMedium::new(SimTime::from_micros(1))),
            2,
            MsgConfig {
                mailbox_warn: Some(3),
                ..MsgConfig::default()
            },
        )
        .with_obs(hub.clone());
        let (e0, e1) = (w.endpoint(0), w.endpoint(1));
        let mut sim = SimBuilder::new(0);
        sim.spawn("r0", move |ctx| {
            for i in 0..5u64 {
                e0.send(ctx, 1, i);
            }
        });
        sim.spawn("r1", move |ctx| {
            // Let everything pile up before draining.
            ctx.advance(SimTime::from_millis(50));
            for want in 0..5u64 {
                assert_eq!(e1.recv(ctx).payload, want);
            }
        });
        sim.run().unwrap();
        let stats = w.stats();
        assert_eq!(stats.mailbox_high_watermark, 5);
        let s = hub.summary();
        assert_eq!(s.mailbox_warnings, 1, "one-shot event at the crossing");
        // CommStats roundtrips through the checkpoint codec.
        let back: CommStats = nscc_ckpt::from_bytes(&nscc_ckpt::to_bytes(&stats)).unwrap();
        assert_eq!(back.mailbox_high_watermark, 5);
        assert_eq!(back.sent, stats.sent);
    }

    #[test]
    #[should_panic(expected = "self-sends")]
    fn self_send_panics() {
        let w = world(2);
        let e0 = w.endpoint(0);
        let mut sim = SimBuilder::new(0);
        sim.spawn("r0", move |ctx| {
            e0.send(ctx, 0, 1);
        });
        let _ = sim.run().map_err(|e| panic!("{e}"));
    }

    #[test]
    fn fifo_per_sender_pair() {
        let w = world(2);
        let (e0, e1) = (w.endpoint(0), w.endpoint(1));
        let mut sim = SimBuilder::new(0);
        sim.spawn("r0", move |ctx| {
            for i in 0..20u64 {
                e0.send(ctx, 1, i);
            }
        });
        sim.spawn("r1", move |ctx| {
            for want in 0..20u64 {
                assert_eq!(e1.recv(ctx).payload, want);
            }
        });
        sim.run().unwrap();
    }
}
