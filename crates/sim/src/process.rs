//! Simulated processes and the process-side context handle.
//!
//! Every simulated process runs its application code as a stackful
//! coroutine ([`crate::coro`]) on the thread that called
//! [`SimBuilder::run`](crate::SimBuilder::run): a body that "takes time"
//! ends its slice in the scheduler core and suspends, and the stepper loop
//! in `run` resumes it when its entry reaches the head of the queue. This
//! lets application code be written in natural, blocking style (the real
//! GA loop, the real sampler) while time remains fully virtual and
//! deterministic.

use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::coro::{Cancelled, Yielder};
use crate::event::{Event, EventKind};
use crate::scheduler::Core;
use crate::time::SimTime;

/// Identifier of a simulated process; assigned densely in spawn order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Pid(pub u32);

impl Pid {
    /// The dense index of this process (spawn order).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// How a running process ends its slice.
pub(crate) enum Yield {
    /// Charge `dur` of virtual compute time; resume the process afterwards.
    Advance(SimTime),
    /// Block until some event wakes this process. The reason string is used
    /// in deadlock diagnostics; the optional probe reports the depth of the
    /// queue being waited on if the run deadlocks. Both are shared, so a
    /// waiter that blocks again and again (a mailbox) builds them once.
    Block {
        reason: Rc<str>,
        probe: Option<DepthProbe>,
    },
    /// The process body returned normally.
    Done,
    /// The process body panicked with the given message.
    Panicked(String),
}

/// Reports the depth of the queue a blocked process waits on.
pub(crate) type DepthProbe = Rc<dyn Fn() -> usize>;

/// The handle a simulated process uses to interact with virtual time.
///
/// A `Ctx` is passed by the engine to the process closure. All methods that
/// "take time" ([`advance`](Ctx::advance), [`Mailbox::recv`]) end the
/// calling process's slice and let the scheduler step on; everything else
/// runs inline at the current virtual instant.
///
/// A `Ctx` is bound to the stack its body runs on, so it is not `Send`: it
/// cannot be handed to another thread, and neither can anything else a
/// simulation is made of.
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<nscc_sim::Ctx>();
/// ```
///
/// [`Mailbox::recv`]: crate::Mailbox::recv
pub struct Ctx {
    pid: Pid,
    now: SimTime,
    rng: StdRng,
    core: Rc<RefCell<Core>>,
    /// The way back to the stepper loop in `run()`.
    stepper: Yielder<SimTime, ()>,
    /// Events scheduled during the current slice, in call order; spliced
    /// into the queue when the slice ends.
    outbox: Vec<(SimTime, EventKind)>,
}

impl Ctx {
    pub(crate) fn new(
        pid: Pid,
        seed: u64,
        core: Rc<RefCell<Core>>,
        stepper: Yielder<SimTime, ()>,
    ) -> Self {
        // Derive a per-process stream from the global seed; SplitMix64's
        // output function keeps the streams decorrelated.
        let z = rand::rngs::mix(seed ^ rand::rngs::GAMMA.wrapping_mul(pid.0 as u64 + 1));
        Ctx {
            pid,
            now: SimTime::ZERO,
            rng: StdRng::seed_from_u64(z),
            core,
            stepper,
            outbox: Vec::new(),
        }
    }

    /// This process's identifier.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// A deterministic per-process random number generator.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Charge `dur` of virtual time (e.g. a compute phase) and resume
    /// afterwards. Other processes and events run in the meantime.
    pub fn advance(&mut self, dur: SimTime) {
        self.yield_and_wait(Yield::Advance(dur));
    }

    /// Yield to the scheduler without consuming virtual time. Equivalent to
    /// `advance(SimTime::ZERO)`; lets same-instant events (e.g. message
    /// deliveries already scheduled for `now`) run before this process
    /// continues.
    pub fn yield_now(&mut self) {
        self.advance(SimTime::ZERO);
    }

    /// Block until another event wakes this process via
    /// [`EventCtx::wake`](crate::EventCtx::wake). The `reason` appears in
    /// deadlock diagnostics. Wake-ups may be spurious from the caller's
    /// perspective; re-check your condition in a loop.
    pub fn block(&mut self, reason: impl Into<String>) {
        self.block_shared(reason.into().into(), None);
    }

    /// Like [`block`](Ctx::block), but registers a depth probe: if the run
    /// deadlocks while this process is blocked, the scheduler calls the
    /// probe and attaches the result to the diagnostics as the waited-on
    /// queue's depth (see [`DeadlockInfo`](crate::DeadlockInfo)).
    pub fn block_with_probe<F>(&mut self, reason: impl Into<String>, probe: F)
    where
        F: Fn() -> usize + 'static,
    {
        self.block_shared(reason.into().into(), Some(Rc::new(probe)));
    }

    /// [`block_with_probe`](Ctx::block_with_probe) for a caller that keeps
    /// its reason and probe around: blocking allocates nothing.
    pub(crate) fn block_shared(&mut self, reason: Rc<str>, probe: Option<DepthProbe>) {
        self.yield_and_wait(Yield::Block { reason, probe });
    }

    /// Schedule `event` to fire `delay` after the current instant. Returns
    /// immediately; the process keeps running at the same virtual time.
    /// The event joins the queue when this slice ends, ahead of the slice's
    /// own resume and after everything scheduled earlier in the slice.
    pub fn schedule(&mut self, delay: SimTime, event: Event) {
        self.outbox.push((self.now + delay, EventKind::Fire(event)));
    }

    /// Schedule a closure to fire `delay` after the current instant.
    pub fn schedule_fn<F>(&mut self, delay: SimTime, f: F)
    where
        F: FnOnce(&mut crate::event::EventCtx<'_>) + 'static,
    {
        self.schedule(delay, Event::new(f));
    }

    /// Wake `pid` at the current instant (a convenience for simple
    /// cross-process signalling; most code should use
    /// [`Mailbox`](crate::Mailbox) instead).
    pub fn wake(&mut self, pid: Pid) {
        self.schedule_fn(SimTime::ZERO, move |ec| ec.wake(pid));
    }

    /// The whole life of a process, from its first slice (at `now`):
    /// run the body, report how it ended.
    pub(crate) fn run(mut self, now: SimTime, body: Box<dyn FnOnce(&mut Ctx)>) {
        self.now = now;
        let how = match panic::catch_unwind(AssertUnwindSafe(|| body(&mut self))) {
            Ok(()) => Yield::Done,
            // Teardown unwinding the body, not a panic: on to the entry.
            Err(payload) if payload.is::<Cancelled>() => panic::resume_unwind(payload),
            Err(payload) => Yield::Panicked(panic_message(payload.as_ref())),
        };
        self.end_slice(how);
    }

    fn end_slice(&mut self, how: Yield) {
        let mut core = self.core.borrow_mut();
        core.end_slice(self.pid, &mut self.outbox, how);
    }

    /// End the slice and suspend until the stepper resumes this process.
    /// A run that ends meanwhile never returns into the body: teardown
    /// unwinds it from inside `suspend`.
    fn yield_and_wait(&mut self, how: Yield) {
        self.end_slice(how);
        self.now = self.stepper.suspend(());
    }
}

/// Extract a readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}
