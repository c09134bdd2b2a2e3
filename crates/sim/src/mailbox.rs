//! Virtual-time mailboxes: the basic inter-process communication channel.
//!
//! A [`Mailbox`] is an unbounded FIFO of messages owned by one receiving
//! process. Deliveries happen from *events* (typically scheduled by a
//! network model at the computed arrival time); receives happen from the
//! owning process and block in virtual time until a message is available.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::event::EventCtx;
use crate::process::{Ctx, DepthProbe, Pid};
use crate::time::SimTime;

struct Inner<T> {
    queue: VecDeque<T>,
    waiter: Option<Pid>,
    delivered: u64,
    received: u64,
    /// Deepest the queue has ever been.
    high_watermark: u64,
    /// Depth at which a one-shot warning fires (None = disabled).
    warn_at: Option<u64>,
    /// The warning already fired (it is once per mailbox, not per message).
    warned: bool,
    /// A fired warning not yet collected by [`Mailbox::take_warn`]; holds
    /// the depth observed at the crossing.
    warn_pending: Option<u64>,
}

impl<T> Inner<T> {
    /// Track depth after a push; arm the one-shot warning at the crossing.
    fn note_depth(&mut self, name: &str) {
        let depth = self.queue.len() as u64;
        if depth > self.high_watermark {
            self.high_watermark = depth;
        }
        if let Some(warn) = self.warn_at {
            if depth >= warn && !self.warned {
                self.warned = true;
                self.warn_pending = Some(depth);
                eprintln!(
                    "warning: mailbox `{name}` depth {depth} crossed warn \
                     threshold {warn} (NSCC_MAILBOX_WARN) — receiver is \
                     falling behind"
                );
            }
        }
    }
}

/// An unbounded virtual-time FIFO channel with a single logical receiver.
///
/// Cloning a `Mailbox` clones a handle to the same queue (cheap `Rc`
/// clone). Only one process or event runs at a time and no borrow outlives
/// the call that took it, so the handles never meet; they cannot leave the
/// simulation's thread:
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<nscc_sim::Mailbox<u32>>();
/// ```
pub struct Mailbox<T> {
    inner: Rc<RefCell<Inner<T>>>,
    name: Rc<str>,
    /// What a blocked receiver hands the scheduler, built once so that
    /// blocking allocates nothing: the wait reasons of `recv` and
    /// `recv_deadline`, and the depth probe.
    recv_reason: Rc<str>,
    deadline_reason: Rc<str>,
    depth: DepthProbe,
}

impl<T> Clone for Mailbox<T> {
    fn clone(&self) -> Self {
        Mailbox {
            inner: Rc::clone(&self.inner),
            name: Rc::clone(&self.name),
            recv_reason: Rc::clone(&self.recv_reason),
            deadline_reason: Rc::clone(&self.deadline_reason),
            depth: Rc::clone(&self.depth),
        }
    }
}

impl<T: 'static> Mailbox<T> {
    /// Create an empty mailbox; `name` appears in deadlock diagnostics.
    pub fn new(name: impl Into<String>) -> Self {
        let name: Rc<str> = name.into().into();
        let inner = Rc::new(RefCell::new(Inner {
            queue: VecDeque::new(),
            waiter: None,
            delivered: 0,
            received: 0,
            high_watermark: 0,
            warn_at: None,
            warned: false,
            warn_pending: None,
        }));
        let queue = Rc::clone(&inner);
        Mailbox {
            inner,
            recv_reason: format!("recv on mailbox `{name}`").into(),
            deadline_reason: format!("recv (deadline) on mailbox `{name}`").into(),
            depth: Rc::new(move || queue.borrow().queue.len()),
            name,
        }
    }

    /// Push a message from an event (e.g. a network delivery) and wake the
    /// receiver if it is blocked in [`recv`](Mailbox::recv).
    pub fn deliver(&self, ec: &mut EventCtx<'_>, msg: T) {
        let mut inner = self.inner.borrow_mut();
        inner.queue.push_back(msg);
        inner.delivered += 1;
        inner.note_depth(&self.name);
        if let Some(pid) = inner.waiter.take() {
            ec.wake(pid);
        }
    }

    /// Push a message directly from process context **at the current
    /// instant** (zero-latency local delivery). The wake is scheduled as an
    /// immediate event.
    pub fn deliver_now(&self, ctx: &mut Ctx, msg: T) {
        let mut inner = self.inner.borrow_mut();
        inner.queue.push_back(msg);
        inner.delivered += 1;
        inner.note_depth(&self.name);
        if let Some(pid) = inner.waiter.take() {
            drop(inner);
            ctx.wake(pid);
        }
    }

    /// Blocking receive: suspends the calling process in virtual time until
    /// a message is available.
    pub fn recv(&self, ctx: &mut Ctx) -> T {
        loop {
            {
                let mut inner = self.inner.borrow_mut();
                if let Some(msg) = inner.queue.pop_front() {
                    inner.received += 1;
                    return msg;
                }
                debug_assert!(
                    inner.waiter.is_none() || inner.waiter == Some(ctx.pid()),
                    "mailbox `{}` has multiple waiters",
                    self.name
                );
                inner.waiter = Some(ctx.pid());
            }
            ctx.block_shared(Rc::clone(&self.recv_reason), Some(Rc::clone(&self.depth)));
        }
    }

    /// Blocking receive with a virtual-time deadline: returns `None` once
    /// the clock reaches `deadline` with no message available. The timeout
    /// is driven by a scheduled wake event, so it fires even when nothing
    /// else is happening (it never turns into a deadlock).
    pub fn recv_deadline(&self, ctx: &mut Ctx, deadline: SimTime) -> Option<T> {
        let mut armed = false;
        loop {
            {
                let mut inner = self.inner.borrow_mut();
                if let Some(msg) = inner.queue.pop_front() {
                    inner.received += 1;
                    return Some(msg);
                }
                if ctx.now() >= deadline {
                    if inner.waiter == Some(ctx.pid()) {
                        inner.waiter = None;
                    }
                    return None;
                }
                debug_assert!(
                    inner.waiter.is_none() || inner.waiter == Some(ctx.pid()),
                    "mailbox `{}` has multiple waiters",
                    self.name
                );
                inner.waiter = Some(ctx.pid());
            }
            if !armed {
                armed = true;
                let pid = ctx.pid();
                // A wake on a non-blocked process is ignored, so the timer
                // is harmless if a message arrives first.
                ctx.schedule_fn(deadline.saturating_sub(ctx.now()), move |ec| ec.wake(pid));
            }
            ctx.block_shared(
                Rc::clone(&self.deadline_reason),
                Some(Rc::clone(&self.depth)),
            );
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<T> {
        let mut inner = self.inner.borrow_mut();
        let msg = inner.queue.pop_front();
        if msg.is_some() {
            inner.received += 1;
        }
        msg
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    /// True if no message is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total messages ever delivered into this mailbox.
    pub fn total_delivered(&self) -> u64 {
        self.inner.borrow().delivered
    }

    /// Deepest the queue has ever been (a backpressure gauge: a receiver
    /// keeping up holds this near 1 regardless of traffic volume).
    pub fn high_watermark(&self) -> u64 {
        self.inner.borrow().high_watermark
    }

    /// Arm a one-shot depth warning: the first delivery that leaves the
    /// queue at or above `depth` prints one stderr line and records a
    /// pending warning for [`Mailbox::take_warn`].
    pub fn set_warn_threshold(&self, depth: u64) {
        self.inner.borrow_mut().warn_at = Some(depth);
    }

    /// Collect a fired-but-unreported depth warning, if any: the depth
    /// observed at the crossing. Polled by the message layer so it can emit
    /// a structured observability event from receiver context.
    pub fn take_warn(&self) -> Option<u64> {
        self.inner.borrow_mut().warn_pending.take()
    }

    /// Total messages ever received out of this mailbox.
    pub fn total_received(&self) -> u64 {
        self.inner.borrow().received
    }

    /// The diagnostic name given at construction.
    pub fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimBuilder, SimTime};

    #[test]
    fn try_recv_on_empty_is_none() {
        let mb: Mailbox<u32> = Mailbox::new("t");
        assert!(mb.try_recv().is_none());
        assert!(mb.is_empty());
    }

    #[test]
    fn recv_blocks_until_delivery() {
        let mb: Mailbox<u32> = Mailbox::new("data");
        let mb_r = mb.clone();
        let mb_s = mb.clone();
        let mut sim = SimBuilder::new(1);
        sim.spawn("receiver", move |ctx| {
            let v = mb_r.recv(ctx);
            assert_eq!(v, 7);
            assert_eq!(ctx.now(), SimTime::from_millis(3));
        });
        sim.spawn("sender", move |ctx| {
            let mb = mb_s.clone();
            ctx.schedule_fn(SimTime::from_millis(3), move |ec| {
                mb.deliver(ec, 7);
            });
        });
        let report = sim.run().unwrap();
        assert_eq!(report.end_time, SimTime::from_millis(3));
        assert_eq!(mb.total_delivered(), 1);
        assert_eq!(mb.total_received(), 1);
    }

    #[test]
    fn fifo_order_preserved() {
        let mb: Mailbox<u32> = Mailbox::new("fifo");
        let mb_r = mb.clone();
        let mb_s = mb.clone();
        let mut sim = SimBuilder::new(1);
        sim.spawn("receiver", move |ctx| {
            for expect in 0..10u32 {
                assert_eq!(mb_r.recv(ctx), expect);
            }
        });
        sim.spawn("sender", move |ctx| {
            for i in 0..10u32 {
                let mb = mb_s.clone();
                ctx.schedule_fn(SimTime::from_millis(i as u64 + 1), move |ec| {
                    mb.deliver(ec, i);
                });
            }
        });
        sim.run().unwrap();
    }

    #[test]
    fn recv_deadline_times_out_empty() {
        let mb: Mailbox<u32> = Mailbox::new("slow");
        let mb_r = mb.clone();
        let mut sim = SimBuilder::new(1);
        sim.spawn("receiver", move |ctx| {
            let got = mb_r.recv_deadline(ctx, SimTime::from_millis(5));
            assert_eq!(got, None);
            assert_eq!(ctx.now(), SimTime::from_millis(5));
        });
        let report = sim.run().unwrap();
        assert_eq!(report.end_time, SimTime::from_millis(5));
    }

    #[test]
    fn recv_deadline_returns_early_message() {
        let mb: Mailbox<u32> = Mailbox::new("fast");
        let mb_r = mb.clone();
        let mb_s = mb.clone();
        let mut sim = SimBuilder::new(1);
        sim.spawn("receiver", move |ctx| {
            let got = mb_r.recv_deadline(ctx, SimTime::from_millis(10));
            assert_eq!(got, Some(42));
            assert_eq!(ctx.now(), SimTime::from_millis(2));
            // The stale timer wake must not disturb a later plain recv.
            let v = mb_r.recv(ctx);
            assert_eq!(v, 43);
        });
        sim.spawn("sender", move |ctx| {
            let mb1 = mb_s.clone();
            ctx.schedule_fn(SimTime::from_millis(2), move |ec| mb1.deliver(ec, 42));
            let mb2 = mb_s.clone();
            ctx.schedule_fn(SimTime::from_millis(20), move |ec| mb2.deliver(ec, 43));
        });
        sim.run().unwrap();
    }

    #[test]
    fn high_watermark_and_one_shot_warn() {
        let mb: Mailbox<u32> = Mailbox::new("deep");
        mb.set_warn_threshold(3);
        let mb_r = mb.clone();
        let mb_s = mb.clone();
        let mut sim = SimBuilder::new(1);
        sim.spawn("receiver", move |ctx| {
            // Drain only after everything is queued.
            ctx.advance(SimTime::from_millis(100));
            for expect in 0..5u32 {
                assert_eq!(mb_r.recv(ctx), expect);
            }
        });
        sim.spawn("sender", move |ctx| {
            for i in 0..5u32 {
                let mb = mb_s.clone();
                ctx.schedule_fn(SimTime::from_millis(i as u64 + 1), move |ec| {
                    mb.deliver(ec, i);
                });
            }
        });
        sim.run().unwrap();
        assert_eq!(mb.high_watermark(), 5);
        // The crossing fired once, at the delivery that reached depth 3.
        assert_eq!(mb.take_warn(), Some(3));
        assert_eq!(mb.take_warn(), None);
    }

    #[test]
    fn no_warn_below_threshold() {
        let mb: Mailbox<u32> = Mailbox::new("shallow");
        mb.set_warn_threshold(10);
        let mb_r = mb.clone();
        let mb_s = mb.clone();
        let mut sim = SimBuilder::new(1);
        sim.spawn("receiver", move |ctx| {
            assert_eq!(mb_r.recv(ctx), 1);
        });
        sim.spawn("sender", move |ctx| {
            let mb = mb_s.clone();
            ctx.schedule_fn(SimTime::from_millis(1), move |ec| mb.deliver(ec, 1));
        });
        sim.run().unwrap();
        assert_eq!(mb.high_watermark(), 1);
        assert_eq!(mb.take_warn(), None);
    }

    #[test]
    fn deliver_now_wakes_peer() {
        let mb: Mailbox<&'static str> = Mailbox::new("local");
        let mb_r = mb.clone();
        let mb_s = mb.clone();
        let mut sim = SimBuilder::new(1);
        sim.spawn("receiver", move |ctx| {
            assert_eq!(mb_r.recv(ctx), "hi");
        });
        sim.spawn("sender", move |ctx| {
            ctx.advance(SimTime::from_millis(1));
            mb_s.deliver_now(ctx, "hi");
        });
        sim.run().unwrap();
    }
}
