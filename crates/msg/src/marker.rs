//! The out-of-band marker plane for Chandy–Lamport consistent snapshots.
//!
//! Markers deliberately do **not** ride the data path. An [`Endpoint`]
//! send charges CPU overheads, bumps [`CommStats`], occupies the medium
//! and shifts virtual time — any of which would make a snapshot-on run
//! observably different from a snapshot-off run. The recovery contract is
//! the opposite: islands never pause and reports stay byte-identical, so
//! markers travel on dedicated side mailboxes with a fixed latency, no
//! medium contention, no stats, and no CPU charge. Polling for a marker
//! ([`MarkerPort::poll`]) is free as well.
//!
//! The price of the side channel is FIFO *relaxation*: a marker may
//! overtake data frames still queued on the medium, so a receiver can see
//! the closing marker of a channel before every pre-capture update on
//! that channel has arrived. Classic Chandy–Lamport forbids this; NSCC
//! tolerates it because the age bound already tolerates the consequence —
//! an update missing from the recorded channel state re-arrives after
//! restore looking like one more stale-but-admissible write (see
//! DESIGN.md, "Consistent cuts without FIFO").
//!
//! [`Endpoint`]: crate::Endpoint
//! [`CommStats`]: crate::CommStats

use std::rc::Rc;

use nscc_sim::{Ctx, Mailbox, SimTime};

/// One snapshot marker: "cut `id` passes here, sent by rank `src`".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkerMsg {
    /// The cut id this marker belongs to.
    pub id: u64,
    /// Rank whose outgoing channels this marker closes.
    pub src: usize,
}

struct PlaneInner {
    boxes: Vec<Mailbox<MarkerMsg>>,
    latency: SimTime,
}

/// The world-wide marker fabric: one side mailbox per rank plus a fixed
/// marker latency. Cloneable; hand each rank its [`MarkerPort`].
#[derive(Clone)]
pub struct MarkerPlane {
    inner: Rc<PlaneInner>,
}

impl MarkerPlane {
    /// Build a plane for `ranks` processes with the given fixed marker
    /// latency. The latency only stretches the window during which
    /// in-flight data is recorded; it never delays the data itself.
    pub fn new(ranks: usize, latency: SimTime) -> Self {
        MarkerPlane {
            inner: Rc::new(PlaneInner {
                boxes: (0..ranks)
                    .map(|r| Mailbox::new(format!("marker:{r}")))
                    .collect(),
                latency,
            }),
        }
    }

    /// Number of ranks on the plane.
    pub fn ranks(&self) -> usize {
        self.inner.boxes.len()
    }

    /// The port for `rank`.
    pub fn port(&self, rank: usize) -> MarkerPort {
        assert!(rank < self.inner.boxes.len(), "marker rank out of range");
        MarkerPort {
            plane: self.clone(),
            rank,
        }
    }
}

/// One rank's handle on the [`MarkerPlane`]: broadcast markers to every
/// peer, poll for arrivals. All operations are virtual-time-free for the
/// caller — broadcasting schedules deliveries at `now + latency` without
/// advancing the sender, and polling never blocks.
#[derive(Clone)]
pub struct MarkerPort {
    plane: MarkerPlane,
    rank: usize,
}

impl MarkerPort {
    /// This port's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Send the marker for cut `id` to every *other* rank. Costs the
    /// sender nothing; each peer sees it `latency` later.
    pub fn broadcast(&self, ctx: &mut Ctx, id: u64) {
        let latency = self.plane.inner.latency;
        let src = self.rank;
        for (r, mb) in self.plane.inner.boxes.iter().enumerate() {
            if r == src {
                continue;
            }
            let mb = mb.clone();
            ctx.schedule_fn(latency, move |ec| {
                mb.deliver(ec, MarkerMsg { id, src });
            });
        }
    }

    /// Drain every marker that has arrived. Free: no blocking, no CPU
    /// charge, no stats.
    pub fn poll(&self) -> Vec<MarkerMsg> {
        let mb = &self.plane.inner.boxes[self.rank];
        let mut out = Vec::new();
        while let Some(m) = mb.try_recv() {
            out.push(m);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nscc_sim::SimBuilder;
    use std::cell::RefCell;

    #[test]
    fn broadcast_reaches_every_peer_but_not_the_sender() {
        let plane = MarkerPlane::new(3, SimTime::from_millis(1));
        let seen: Rc<RefCell<Vec<(usize, MarkerMsg, u64)>>> = Rc::default();

        let mut sim = SimBuilder::new(1);
        let p0 = plane.port(0);
        sim.spawn("sender", move |ctx| {
            p0.broadcast(ctx, 7);
            assert_eq!(ctx.now().as_nanos(), 0, "broadcast is free for the sender");
            assert!(p0.poll().is_empty(), "sender gets no marker of its own");
        });
        for r in 1..3 {
            let port = plane.port(r);
            let seen = seen.clone();
            sim.spawn(format!("peer{r}"), move |ctx| {
                ctx.advance(SimTime::from_millis(2));
                for m in port.poll() {
                    seen.borrow_mut().push((r, m, ctx.now().as_nanos()));
                }
            });
        }
        sim.run().unwrap();

        let seen = seen.borrow();
        assert_eq!(seen.len(), 2);
        for (_, m, _) in seen.iter() {
            assert_eq!(*m, MarkerMsg { id: 7, src: 0 });
        }
    }

    #[test]
    fn poll_is_nonblocking_and_empty_without_markers() {
        let plane = MarkerPlane::new(2, SimTime::from_millis(1));
        let port = plane.port(1);
        let mut sim = SimBuilder::new(2);
        sim.spawn("idle", move |ctx| {
            assert!(port.poll().is_empty());
            assert_eq!(ctx.now().as_nanos(), 0);
        });
        sim.run().unwrap();
    }
}
