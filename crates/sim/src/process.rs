//! Simulated processes and the process-side context handle.
//!
//! Every simulated process runs its application code on a dedicated OS
//! thread, but threads execute strictly one at a time: exactly one thread
//! holds the *baton* (the right to step the scheduler core), and every
//! other one waits at its [`Gate`]. A process that yields keeps the baton
//! and steps the core itself until some process — possibly itself — must
//! run. This lets application code be written in natural, blocking style
//! (the real GA loop, the real sampler) while time remains fully virtual
//! and deterministic.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicU64, AtomicU8};
use std::sync::{Arc, OnceLock};
use std::thread::{self, Thread};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::event::{Event, EventKind};
use crate::scheduler::Shared;
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
    /// queue being waited on if the run deadlocks.
    Block {
        reason: String,
        probe: Option<Box<dyn Fn() -> usize + Send>>,
    },
    /// The process body returned normally.
    Done,
    /// The process body panicked with the given message.
    Panicked(String),
}

/// Sentinel panic payload used to unwind process threads at shutdown.
pub(crate) struct ShutdownToken;

const CLOSED: u8 = 0; // what `Gate::default()` starts as
const OPEN: u8 = 1;
const SHUTDOWN: u8 = 2;

/// Where one thread waits for the baton: a flag plus `park`/`unpark`.
/// Opening stores the flag (release) before unparking, and waiting
/// re-checks it after every return from `park`, so a spurious wake-up or a
/// stale unpark token left by an open that won the race just loops.
#[derive(Default)]
pub(crate) struct Gate {
    state: AtomicU8,
    /// Virtual ns the opener resumed the waiter at.
    now_ns: AtomicU64,
    thread: OnceLock<Thread>,
}

impl Gate {
    /// Name the thread that waits here; done once, before anyone opens it.
    pub(crate) fn bind(&self, thread: Thread) {
        let _ = self.thread.set(thread);
    }

    /// Wait until opened and close the gate again; `None` once shut down
    /// (which is permanent).
    pub(crate) fn wait(&self) -> Option<SimTime> {
        loop {
            // Acquire pairs with the release in `signal`: everything the
            // opener did, `now_ns` included, is visible past this point.
            match self.state.compare_exchange(OPEN, CLOSED, Acquire, Acquire) {
                Ok(_) => return Some(SimTime::from_nanos(self.now_ns.load(Relaxed))),
                Err(SHUTDOWN) => return None,
                Err(_) => thread::park(),
            }
        }
    }

    /// Let the waiter through, at virtual time `now`.
    pub(crate) fn open(&self, now: SimTime) {
        self.now_ns.store(now.as_nanos(), Relaxed);
        self.signal(OPEN);
    }

    /// Answer this and every later `wait` with `None`.
    pub(crate) fn shutdown(&self) {
        self.signal(SHUTDOWN);
    }

    fn signal(&self, state: u8) {
        self.state.store(state, Release);
        if let Some(thread) = self.thread.get() {
            thread.unpark();
        }
    }
}

/// The handle a simulated process uses to interact with virtual time.
///
/// A `Ctx` is passed by the engine to the process closure. All methods that
/// "take time" ([`advance`](Ctx::advance), [`Mailbox::recv`]) end the
/// calling process's slice and let the scheduler step on; everything else
/// runs inline at the current virtual instant.
///
/// [`Mailbox::recv`]: crate::Mailbox::recv
pub struct Ctx {
    pid: Pid,
    now: SimTime,
    rng: StdRng,
    shared: Arc<Shared>,
    /// Events scheduled during the current slice, in call order; spliced
    /// into the queue when the slice ends.
    outbox: Vec<(SimTime, EventKind)>,
}

impl Ctx {
    pub(crate) fn new(pid: Pid, seed: u64, shared: Arc<Shared>) -> Self {
        // Derive a per-process stream from the global seed; SplitMix64-style
        // mixing keeps the streams decorrelated.
        let mut z = seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(pid.0 as u64 + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Ctx {
            pid,
            now: SimTime::ZERO,
            rng: StdRng::seed_from_u64(z),
            shared,
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
        self.block_inner(reason.into(), None);
    }

    /// Like [`block`](Ctx::block), but registers a depth probe: if the run
    /// deadlocks while this process is blocked, the scheduler calls the
    /// probe and attaches the result to the diagnostics as the waited-on
    /// queue's depth (see [`DeadlockInfo`](crate::DeadlockInfo)).
    pub fn block_with_probe<F>(&mut self, reason: impl Into<String>, probe: F)
    where
        F: Fn() -> usize + Send + 'static,
    {
        self.block_inner(reason.into(), Some(Box::new(probe)));
    }

    fn block_inner(&mut self, reason: String, probe: Option<Box<dyn Fn() -> usize + Send>>) {
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
        F: FnOnce(&mut crate::event::EventCtx<'_>) + Send + 'static,
    {
        self.schedule(delay, Event::new(f));
    }

    /// Wake `pid` at the current instant (a convenience for simple
    /// cross-process signalling; most code should use
    /// [`Mailbox`](crate::Mailbox) instead).
    pub fn wake(&mut self, pid: Pid) {
        self.schedule_fn(SimTime::ZERO, move |ec| ec.wake(pid));
    }

    /// The whole life of a process thread: wait for the first slice, run
    /// the body, report how it ended.
    pub(crate) fn run(mut self, body: Box<dyn FnOnce(&mut Ctx) + Send>) {
        // Torn down before it ever ran? (The first resume is at t = 0.)
        if self.gate().wait().is_none() {
            return;
        }
        // Stepping on after the body returns is inside the guard too: a
        // panic there (a deadlock probe's, say) must end the run as this
        // process's panic, not strand `run()` waiting on a dead thread.
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            body(&mut self);
            self.end_slice(Yield::Done);
        }));
        if let Err(payload) = result {
            // A shutdown token is teardown unwinding the body, not a panic.
            if !payload.is::<ShutdownToken>() {
                self.end_slice(Yield::Panicked(panic_message(payload.as_ref())));
            }
        }
    }

    fn gate(&self) -> &Gate {
        &self.shared.gates[self.pid.index()]
    }

    /// End the slice and keep stepping the scheduler on this thread;
    /// `Some(now)` if this process's own resume came up first.
    fn end_slice(&mut self, how: Yield) -> Option<SimTime> {
        let mut core = self.shared.core.lock();
        core.end_slice(self.pid, &mut self.outbox, how);
        self.shared.drive(core, Some(self.pid))
    }

    /// End the slice; if the baton goes elsewhere, wait at the gate for it
    /// to come back. A run that ends meanwhile (whoever detects it) never
    /// returns into the body: the thread unwinds quietly at teardown.
    fn yield_and_wait(&mut self, how: Yield) {
        let resumed = self.end_slice(how).or_else(|| self.gate().wait());
        self.now = resumed.unwrap_or_else(|| panic::panic_any(ShutdownToken));
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;

    #[test]
    fn gate_ignores_stale_tokens_and_answers_shutdown_forever() {
        let gate = Arc::new(Gate::default());
        let ready = Arc::new(AtomicBool::new(false));
        let (progress_tx, progress_rx) = mpsc::channel();
        let (g, r) = (Arc::clone(&gate), Arc::clone(&ready));
        let waiter = thread::spawn(move || {
            // A stale token: the first `park` inside `wait` returns at
            // once, with the gate still closed.
            thread::current().unpark();
            progress_tx.send(()).unwrap();
            let first = g.wait();
            assert!(r.load(Ordering::SeqCst), "wait returned before open");
            progress_tx.send(()).unwrap();
            // `open` may have left a token behind as well; the next wait
            // must not mistake it for a second opening.
            (first, g.wait(), g.wait())
        });
        gate.bind(waiter.thread().clone());
        progress_rx.recv().unwrap();
        waiter.thread().unpark(); // a spurious wake-up, gate still closed
        ready.store(true, Ordering::SeqCst);
        gate.open(SimTime::from_nanos(42));
        progress_rx.recv().unwrap();
        gate.shutdown();
        let (first, second, third) = waiter.join().unwrap();
        assert_eq!(first, Some(SimTime::from_nanos(42)));
        assert_eq!((second, third), (None, None));
    }
}
