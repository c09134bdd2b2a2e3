//! The [`Medium`] abstraction: how frames acquire arrival times.

use nscc_sim::SimTime;

/// A network node (host) identifier. Distinct from a simulated process id:
/// several processes could share a node, and loader nodes need no process
/// mailboxes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Dense index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Cumulative counters a medium maintains about itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, nscc_ckpt::json::ToJson, nscc_ckpt::Snapshot)]
pub struct MediumStats {
    /// Frames accepted for transmission.
    pub frames: u64,
    /// Payload bytes accepted (excluding per-frame overhead).
    pub payload_bytes: u64,
    /// Bytes actually put on the wire (payload + framing overhead).
    pub wire_bytes: u64,
    /// Total time frames spent waiting for the medium (queueing delay).
    pub queueing: SimTime,
    /// Total time the medium spent transmitting.
    pub busy: SimTime,
}

impl MediumStats {
    /// Fold another medium's counters into this one (for run aggregation).
    pub fn merge(&mut self, other: &MediumStats) {
        self.frames += other.frames;
        self.payload_bytes += other.payload_bytes;
        self.wire_bytes += other.wire_bytes;
        self.queueing = self.queueing.saturating_add(other.queueing);
        self.busy = self.busy.saturating_add(other.busy);
    }
}

/// Why a fault layer decided not to deliver a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Random per-link message loss.
    Loss,
    /// The source or destination node is crashed (fail-silent).
    NodeDown,
    /// A network partition separates the endpoints.
    Partitioned,
}

impl DropReason {
    /// Short label for events and logs.
    pub fn label(self) -> &'static str {
        match self {
            DropReason::Loss => "loss",
            DropReason::NodeDown => "node_down",
            DropReason::Partitioned => "partitioned",
        }
    }
}

/// What should happen to a frame after the medium computed its arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Deliver once at the planned arrival (the only verdict well-behaved
    /// media ever produce).
    Deliver,
    /// Deliver nothing: the frame occupied the wire but is lost.
    Drop(DropReason),
    /// Deliver twice: once at the planned arrival and again at `second`.
    Duplicate {
        /// Arrival instant of the spurious second copy.
        second: SimTime,
    },
}

/// A planned frame transmission: the arrival instant the medium computed
/// plus the delivery verdict a fault layer (if any) attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transmission {
    /// Arrival instant at the destination (`>= now`).
    pub arrival: SimTime,
    /// Whether/how the frame is actually delivered.
    pub verdict: Verdict,
    /// How much of `arrival` a fault layer injected on top of what the
    /// healthy medium would have charged (stall floors, degradation,
    /// delay faults). Zero for well-behaved media; the staleness tracer
    /// books it as the `fault` stage so `arrival - now - fault` is the
    /// baseline transit.
    pub fault: SimTime,
}

impl Transmission {
    /// Every copy the verdict delivers, in scheduling order, as
    /// `(arrival, fault share)`: none for a drop, one for a delivery, and
    /// for a duplicate the planned copy followed by the spurious one,
    /// whose gap past the first arrival is injected fault delay too. The
    /// one place a [`Verdict`] becomes deliveries.
    pub fn copies(&self) -> impl Iterator<Item = (SimTime, SimTime)> {
        let (first, second) = match self.verdict {
            Verdict::Deliver => (Some(self.arrival), None),
            Verdict::Drop(_) => (None, None),
            Verdict::Duplicate { second } => (Some(self.arrival), Some(second)),
        };
        let (arrival, fault) = (self.arrival, self.fault);
        first
            .into_iter()
            .chain(second)
            .map(move |at| (at, fault + at.saturating_sub(arrival)))
    }
}

/// A transmission medium: computes when a frame submitted now will arrive,
/// updating whatever queue/contention state it keeps.
///
/// Implementations must be deterministic: the same sequence of
/// [`transmit`](Medium::transmit) calls must produce the same arrival times.
pub trait Medium {
    /// Submit a frame of `payload_bytes` from `src` to `dst` at virtual time
    /// `now`; returns the arrival instant at `dst` (strictly `>= now`).
    fn transmit(&mut self, now: SimTime, src: NodeId, dst: NodeId, payload_bytes: usize)
        -> SimTime;

    /// Submit a frame and also report a delivery [`Verdict`]. The default
    /// forwards to [`transmit`](Medium::transmit) and always delivers, so
    /// well-behaved media ([`IdealMedium`], the Ethernet bus, the SP2
    /// switch) need not know faults exist; a fault-injecting wrapper
    /// overrides this to drop, duplicate, or delay frames.
    fn plan_transmit(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        payload_bytes: usize,
    ) -> Transmission {
        Transmission {
            arrival: self.transmit(now, src, dst, payload_bytes),
            verdict: Verdict::Deliver,
            fault: SimTime::ZERO,
        }
    }

    /// Submit one *broadcast* frame reaching every node, if the medium
    /// supports hardware broadcast (a shared bus does: the frame is
    /// transmitted once and heard by all). Returns `None` when
    /// unsupported — the caller falls back to unicast fan-out (as on a
    /// crossbar switch).
    fn transmit_broadcast(
        &mut self,
        _now: SimTime,
        _src: NodeId,
        _payload_bytes: usize,
    ) -> Option<SimTime> {
        None
    }

    /// Counters accumulated so far.
    fn stats(&self) -> MediumStats;

    /// The earliest instant at which the medium could begin a new
    /// transmission submitted at `now` (i.e. `now` plus any queueing).
    /// Used for utilization probes and tests.
    fn next_free(&self, now: SimTime) -> SimTime;
}

/// Boxed media forward every method — including the overridable
/// [`plan_transmit`](Medium::plan_transmit)/[`transmit_broadcast`](Medium::transmit_broadcast)
/// hooks, so a boxed fault-injecting wrapper keeps its verdicts.
impl Medium for Box<dyn Medium> {
    fn transmit(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        payload_bytes: usize,
    ) -> SimTime {
        (**self).transmit(now, src, dst, payload_bytes)
    }

    fn plan_transmit(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        payload_bytes: usize,
    ) -> Transmission {
        (**self).plan_transmit(now, src, dst, payload_bytes)
    }

    fn transmit_broadcast(
        &mut self,
        now: SimTime,
        src: NodeId,
        payload_bytes: usize,
    ) -> Option<SimTime> {
        (**self).transmit_broadcast(now, src, payload_bytes)
    }

    fn stats(&self) -> MediumStats {
        (**self).stats()
    }

    fn next_free(&self, now: SimTime) -> SimTime {
        (**self).next_free(now)
    }
}

/// An idealized medium with a fixed latency and no contention: every frame
/// arrives exactly `latency` after submission. Useful as a baseline and for
/// unit-testing protocol layers without network effects.
#[derive(Debug, Clone)]
pub struct IdealMedium {
    latency: SimTime,
    stats: MediumStats,
}

impl IdealMedium {
    /// A medium with constant `latency` per frame.
    pub fn new(latency: SimTime) -> Self {
        IdealMedium {
            latency,
            stats: MediumStats::default(),
        }
    }

    /// Zero-latency instantaneous medium.
    pub fn instant() -> Self {
        IdealMedium::new(SimTime::ZERO)
    }
}

impl Medium for IdealMedium {
    fn transmit(
        &mut self,
        now: SimTime,
        _src: NodeId,
        _dst: NodeId,
        payload_bytes: usize,
    ) -> SimTime {
        self.stats.frames += 1;
        self.stats.payload_bytes += payload_bytes as u64;
        self.stats.wire_bytes += payload_bytes as u64;
        now + self.latency
    }

    fn stats(&self) -> MediumStats {
        self.stats
    }

    fn next_free(&self, now: SimTime) -> SimTime {
        now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_medium_fixed_latency() {
        let mut m = IdealMedium::new(SimTime::from_millis(2));
        let t0 = SimTime::from_millis(10);
        assert_eq!(
            m.transmit(t0, NodeId(0), NodeId(1), 1000),
            SimTime::from_millis(12)
        );
        // No contention: a second frame at the same instant also takes 2 ms.
        assert_eq!(
            m.transmit(t0, NodeId(2), NodeId(3), 1000),
            SimTime::from_millis(12)
        );
        assert_eq!(m.stats().frames, 2);
        assert_eq!(m.stats().payload_bytes, 2000);
    }

    #[test]
    fn instant_medium_delivers_now() {
        let mut m = IdealMedium::instant();
        let t0 = SimTime::from_secs(1);
        assert_eq!(m.transmit(t0, NodeId(0), NodeId(1), 64), t0);
    }

    #[test]
    fn copies_follow_the_verdict() {
        let ms = SimTime::from_millis;
        let tx = |verdict| Transmission {
            arrival: ms(5),
            verdict,
            fault: ms(1),
        };
        let copies = |t: Transmission| t.copies().collect::<Vec<_>>();
        assert_eq!(copies(tx(Verdict::Deliver)), [(ms(5), ms(1))]);
        assert_eq!(copies(tx(Verdict::Drop(DropReason::Loss))), []);
        assert_eq!(
            copies(tx(Verdict::Duplicate { second: ms(7) })),
            [(ms(5), ms(1)), (ms(7), ms(3))]
        );
    }

    #[test]
    fn default_plan_transmit_always_delivers() {
        let mut m = IdealMedium::new(SimTime::from_millis(3));
        let tx = m.plan_transmit(SimTime::ZERO, NodeId(0), NodeId(1), 100);
        assert_eq!(tx.arrival, SimTime::from_millis(3));
        assert_eq!(tx.verdict, Verdict::Deliver);
        assert_eq!(m.stats().frames, 1);
    }
}
