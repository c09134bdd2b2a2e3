//! The virtual-time scheduler: one [`Core`] owning the event queue, the
//! clock and the process table, stepped by one loop in
//! [`SimBuilder::run`], executing exactly one thing (event or process
//! slice) at a time.
//!
//! Everything happens on `run()`'s caller: events fire inline in the loop,
//! and when a `Resume(pid)` surfaces the loop switches to that process's
//! coroutine ([`crate::coro`]) until it ends its slice and suspends. The
//! core sits in a `RefCell` the loop lets go of while a process runs, so
//! the process can end its slice in it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;
use std::thread;
use std::time::Instant;

use nscc_obs::{Hub, SchedDelta, SpanKind};

use crate::coro::Coro;
use crate::error::{DeadlockInfo, SimError};
use crate::event::{Event, EventCtx, EventKind, Queue};
use crate::process::{Ctx, DepthProbe, Pid, Yield};
use crate::time::SimTime;

/// Lifecycle state of a simulated process.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ProcState {
    /// Has a pending `Resume` entry in the queue (or is currently running).
    Runnable,
    /// Suspended; waiting for an [`EventCtx::wake`]. Carries the reason and
    /// the virtual time the block began, for deadlock diagnostics and
    /// blocked-span observability.
    Blocked { reason: Rc<str>, since: SimTime },
    /// Body returned.
    Done,
}

struct ProcSlot {
    name: String,
    daemon: bool,
    state: ProcState,
    /// Virtual time this process last started a run slice.
    last_progress: SimTime,
    /// Depth probe registered by the current block, if any.
    probe: Option<DepthProbe>,
}

type Body = Box<dyn FnOnce(&mut Ctx)>;

/// Summary statistics for a completed simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Virtual time at which the run ended (all non-daemon processes done).
    pub end_time: SimTime,
    /// Total queue entries executed (events + process resumptions).
    pub events_executed: u64,
    /// Number of processes spawned (including daemons).
    pub processes: usize,
}

/// Builder/owner of a simulation: spawn processes, then [`run`](SimBuilder::run).
///
/// ```
/// use nscc_sim::{SimBuilder, SimTime};
///
/// let mut sim = SimBuilder::new(42);
/// sim.spawn("worker", |ctx| {
///     ctx.advance(SimTime::from_millis(5));
/// });
/// let report = sim.run().unwrap();
/// assert_eq!(report.end_time, SimTime::from_millis(5));
/// ```
pub struct SimBuilder {
    seed: u64,
    wall: Option<Hub>,
    /// Process bodies by pid; each moves onto its coroutine in `run`.
    bodies: Vec<Body>,
    core: Core,
}

impl SimBuilder {
    /// Create a simulation whose randomness derives entirely from `seed`.
    pub fn new(seed: u64) -> Self {
        let core = Core {
            procs: Vec::new(),
            time_limit: SimTime::MAX,
            event_limit: u64::MAX,
            obs: None,
            acct: None,
            diag: Vec::new(),
            queue: Queue::default(),
            now: SimTime::ZERO,
            executed: 0,
            live_nondaemons: 0,
            wakes: Vec::new(),
            outcome: None,
        };
        SimBuilder {
            seed,
            wall: None,
            bodies: Vec::new(),
            core,
        }
    }

    /// Register a deadlock breadcrumb probe: should the run wedge, `f` is
    /// invoked once and every line it returns is appended to the
    /// [`SimError::Deadlock`] report (and the flight ring, when armed).
    /// Probes run in the stepper loop, with every process suspended, so
    /// they may freely borrow shared state (e.g. a snapshot board) to report
    /// open marker waves and per-channel in-flight recording depths.
    pub fn deadlock_note(&mut self, f: impl Fn() -> Vec<String> + 'static) -> &mut Self {
        self.core.diag.push(Box::new(f));
        self
    }

    /// Attach an observability hub: the scheduler records a compute span
    /// per `advance` and a blocked span (labelled with the block reason)
    /// per block/wake pair, and registers process names for trace exports.
    /// Detached (the default) costs one branch per scheduling decision.
    pub fn attach_obs(&mut self, hub: Hub) -> &mut Self {
        self.core.obs = Some(hub);
        self
    }

    /// Attach wall-clock scheduler self-accounting: the event loop counts
    /// entries executed, slices ended by a yield and slices served (`parks`
    /// and `unparks`: the names date from thread-backed processes),
    /// hand-offs (resumes of a process other than the one resumed before),
    /// and real (host-clock) nanoseconds spent inside process slices vs.
    /// total, flushing [`SchedDelta`] batches into `hub` (see `Hub::sched`).
    /// Unlike [`attach_obs`](SimBuilder::attach_obs) this records **no**
    /// spans or events, so it never perturbs deterministic report output —
    /// but its times are real and differ run to run, which is why
    /// [`observe`](SimBuilder::observe) gates it on `Hub::wants_wall`.
    /// Detached (the default) costs one `Option` check per entry.
    pub fn attach_wall(&mut self, hub: Hub) -> &mut Self {
        self.wall = Some(hub);
        self
    }

    /// Observe the run through `hub` as far as its settings ask — the one
    /// rule every runner follows. The sampling profiler, and with it the
    /// spans of [`attach_obs`](SimBuilder::attach_obs), attaches only when
    /// `hub.profile_period() > 0`, so plain json/trace runs keep their
    /// span-free reports byte-for-byte; wall accounting
    /// ([`attach_wall`](SimBuilder::attach_wall)) only when
    /// `hub.wants_wall()`.
    pub fn observe(&mut self, hub: &Hub) -> &mut Self {
        if hub.profile_period() > 0 {
            self.attach_obs(hub.clone());
        }
        if hub.wants_wall() {
            self.attach_wall(hub.clone());
        }
        self
    }

    /// Abort the run with [`SimError::TimeLimitExceeded`] if virtual time
    /// passes `limit` (a safety net against livelock).
    pub fn time_limit(&mut self, limit: SimTime) -> &mut Self {
        self.core.time_limit = limit;
        self
    }

    /// Abort the run with [`SimError::EventLimitExceeded`] after `limit`
    /// queue entries (a safety net against runaway event loops).
    pub fn event_limit(&mut self, limit: u64) -> &mut Self {
        self.core.event_limit = limit;
        self
    }

    /// Spawn a process. The simulation completes when every non-daemon
    /// process body has returned.
    pub fn spawn<F>(&mut self, name: impl Into<String>, body: F) -> Pid
    where
        F: FnOnce(&mut Ctx) + 'static,
    {
        self.spawn_inner(name.into(), false, Box::new(body))
    }

    /// Spawn a daemon process: it participates normally but the simulation
    /// does not wait for it to finish (e.g. background-load generators).
    pub fn spawn_daemon<F>(&mut self, name: impl Into<String>, body: F) -> Pid
    where
        F: FnOnce(&mut Ctx) + 'static,
    {
        self.spawn_inner(name.into(), true, Box::new(body))
    }

    fn spawn_inner(&mut self, name: String, daemon: bool, body: Body) -> Pid {
        let pid = Pid(self.bodies.len() as u32);
        self.bodies.push(body);
        self.core.procs.push(ProcSlot {
            name,
            daemon,
            state: ProcState::Runnable,
            last_progress: SimTime::ZERO,
            probe: None,
        });
        self.core.live_nondaemons += usize::from(!daemon);
        // The initial resume; spawn order is queue order.
        self.core.queue.push(SimTime::ZERO, EventKind::Resume(pid));
        pid
    }

    /// Run the simulation to completion, on the calling thread.
    ///
    /// Returns a [`SimReport`] when every non-daemon process finishes, or a
    /// [`SimError`] on deadlock, process panic, or a safety cap. A panic in
    /// anything the stepper loop itself runs — an event closure, a
    /// deadlock probe — is re-raised here, on the caller, once every
    /// process has been unwound.
    pub fn run(mut self) -> Result<SimReport, SimError> {
        if let Some(hub) = &self.core.obs {
            for (i, p) in self.core.procs.iter().enumerate() {
                hub.set_proc_name(i as u32, p.name.clone());
            }
        }
        self.core.acct = self.wall.map(WallAcct::new);
        let shared = Rc::new(RefCell::new(self.core));
        let seed = self.seed;
        // Dropped on every way out of here, a panic in the loop included:
        // that unwinds each body still suspended before its stack goes.
        let mut coros: Vec<Coro<SimTime, ()>> = (0u32..)
            .zip(self.bodies)
            .map(|(i, body)| {
                let core = Rc::clone(&shared);
                Coro::new(move |stepper, now| Ctx::new(Pid(i), seed, core, stepper).run(now, body))
            })
            .collect();

        let mut last = None;
        let mut core = shared.borrow_mut();
        loop {
            match core.step() {
                Step::Ran => {}
                Step::Resume(pid) => {
                    if last.replace(pid) != Some(pid) {
                        if let Some(a) = core.acct.as_mut() {
                            a.handoffs += 1;
                        }
                    }
                    let now = core.now;
                    drop(core);
                    coros[pid.index()].resume(now);
                    core = shared.borrow_mut();
                }
                Step::Ended => break,
            }
        }
        let outcome = core.outcome.take();
        drop(core);
        drop(coros);
        match outcome.expect("run ended without an outcome") {
            Ok(result) => result,
            Err(payload) => panic::resume_unwind(payload),
        }
    }
}

/// What [`Core::step`] did.
enum Step {
    /// An event fired (or a stale resume was skipped); step again.
    Ran,
    /// This process's slice starts now: its coroutine must run next.
    Resume(Pid),
    /// The run is over and its outcome recorded.
    Ended,
}

/// The single stepper: queue, clock, process table, limits and hooks.
pub(crate) struct Core {
    procs: Vec<ProcSlot>,
    time_limit: SimTime,
    event_limit: u64,
    obs: Option<Hub>,
    acct: Option<WallAcct>,
    diag: Vec<Box<dyn Fn() -> Vec<String>>>,
    queue: Queue,
    now: SimTime,
    executed: u64,
    live_nondaemons: usize,
    /// Processes the firing event woke, resumed in order once it returns.
    wakes: Vec<Pid>,
    /// The run's single outcome; `Err` carries a panic out of the stepper
    /// loop's own callees (event closure, deadlock probe).
    outcome: Option<thread::Result<Result<SimReport, SimError>>>,
}

impl Core {
    /// Record the run's outcome and stop stepping.
    fn end(&mut self, outcome: thread::Result<Result<SimReport, SimError>>) -> Step {
        if let Some(a) = self.acct.as_mut() {
            a.flush();
        }
        self.outcome = Some(outcome);
        Step::Ended
    }

    /// Execute one queue entry.
    fn step(&mut self) -> Step {
        if self.outcome.is_some() {
            return Step::Ended;
        }
        if self.live_nondaemons == 0 {
            return self.end(Ok(Ok(SimReport {
                end_time: self.now,
                events_executed: self.executed,
                processes: self.procs.len(),
            })));
        }
        let Some(entry) = self.queue.pop() else {
            // The probes are user code: treated like an event closure.
            let diagnosis = panic::catch_unwind(AssertUnwindSafe(|| self.diagnose_deadlock()));
            return self.end(diagnosis.map(Err));
        };
        debug_assert!(entry.time >= self.now, "event queue went backwards in time");
        let now = entry.time;
        self.now = now;
        self.executed += 1;
        if let Some(a) = self.acct.as_mut() {
            a.event();
        }
        if now > self.time_limit {
            let limit = self.time_limit;
            return self.end(Ok(Err(SimError::TimeLimitExceeded { limit })));
        }
        if self.executed > self.event_limit {
            let limit = self.event_limit;
            return self.end(Ok(Err(SimError::EventLimitExceeded { limit })));
        }

        match entry.kind {
            EventKind::Fire(Event(f)) => {
                let mut ec = EventCtx {
                    now,
                    queue: &mut self.queue,
                    wakes: &mut self.wakes,
                };
                // Caught where it fires: the payload is re-raised on
                // `run()`'s caller, never charged to a process.
                if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| f(&mut ec))) {
                    return self.end(Err(payload));
                }
                self.resume_woken();
                Step::Ran
            }
            EventKind::Resume(pid) => {
                let slot = &mut self.procs[pid.index()];
                match slot.state {
                    ProcState::Runnable => {}
                    // A wake raced with completion, or a stale resume:
                    // skip quietly.
                    ProcState::Done | ProcState::Blocked { .. } => return Step::Ran,
                }
                slot.last_progress = now;
                if let Some(a) = self.acct.as_mut() {
                    a.slice_start = Instant::now();
                }
                Step::Resume(pid)
            }
        }
    }

    /// The running process `pid` yields. What it scheduled during the
    /// slice is queued first, in call order, then its own `Resume` — the
    /// `seq` order a queue push per `schedule` call would have produced.
    pub(crate) fn end_slice(
        &mut self,
        pid: Pid,
        outbox: &mut Vec<(SimTime, EventKind)>,
        how: Yield,
    ) {
        let now = self.now;
        for (time, kind) in outbox.drain(..) {
            self.queue.push(time, kind);
        }
        let mut parked = true;
        match how {
            Yield::Advance(d) => {
                let until = now + d;
                if let Some(hub) = &self.obs {
                    let (t0, t1) = (now.as_nanos(), until.as_nanos());
                    hub.span(pid.0, t0, t1, SpanKind::Compute, "run");
                    let period = hub.profile_period();
                    if period > 0 {
                        let name = &self.procs[pid.index()].name;
                        hub.profile_add(name, "compute", "", profile_samples(t0, t1, period));
                    }
                }
                self.queue.push(until, EventKind::Resume(pid));
            }
            Yield::Block { reason, probe } => {
                let slot = &mut self.procs[pid.index()];
                slot.probe = probe;
                slot.state = ProcState::Blocked { reason, since: now };
            }
            Yield::Done => {
                let slot = &mut self.procs[pid.index()];
                slot.state = ProcState::Done;
                self.live_nondaemons -= usize::from(!slot.daemon);
                parked = false;
            }
            Yield::Panicked(message) => {
                let name = self.procs[pid.index()].name.clone();
                self.end(Ok(Err(SimError::ProcessPanicked { pid, name, message })));
                return;
            }
        }
        if let Some(a) = self.acct.as_mut() {
            a.slice(pid.0, parked);
        }
    }

    /// Queue one `Resume` per blocked process the event that just fired
    /// woke, in wake order (behind whatever the event itself scheduled).
    fn resume_woken(&mut self) {
        let now = self.now;
        let mut wakes = std::mem::take(&mut self.wakes);
        for w in wakes.drain(..) {
            let slot = &mut self.procs[w.index()];
            if !matches!(slot.state, ProcState::Blocked { .. }) {
                continue;
            }
            slot.probe = None;
            if let (ProcState::Blocked { reason, since }, Some(hub)) = (
                std::mem::replace(&mut slot.state, ProcState::Runnable),
                &self.obs,
            ) {
                let (t0, t1) = (since.as_nanos(), now.as_nanos());
                let period = hub.profile_period();
                if period > 0 && profile_samples(t0, t1, period) > 0 {
                    // A layer that annotated the wait (e.g. a DSM
                    // `Global_Read` naming its location) wins over the raw
                    // blocking reason.
                    let (phase, detail) = hub
                        .phase_of(w.0)
                        .unwrap_or_else(|| ("blocked".into(), reason.to_string()));
                    hub.profile_add(&slot.name, &phase, &detail, profile_samples(t0, t1, period));
                }
                hub.span(w.0, t0, t1, SpanKind::Blocked, reason.to_string());
            }
            self.queue.push(now, EventKind::Resume(w));
        }
        self.wakes = wakes; // keep the allocation
    }

    /// The queue ran dry with non-daemons alive: name every blocked
    /// process and collect the registered breadcrumbs.
    fn diagnose_deadlock(&self) -> SimError {
        let now = self.now;
        let blocked: Vec<DeadlockInfo> = self
            .procs
            .iter()
            .enumerate()
            .filter_map(|(i, p)| match &p.state {
                ProcState::Blocked { reason, since } if !p.daemon => Some(DeadlockInfo {
                    pid: Pid(i as u32),
                    name: p.name.clone(),
                    reason: reason.to_string(),
                    since: *since,
                    last_progress: p.last_progress,
                    mailbox_depth: p.probe.as_ref().map(|probe| probe()),
                }),
                _ => None,
            })
            .collect();
        let notes: Vec<String> = self.diag.iter().flat_map(|probe| probe()).collect();
        // Leave the diagnosis in the flight ring (a side channel: never
        // touches counters or the report) so a post-mortem dump explains
        // the hang per process.
        if let Some(hub) = self.obs.as_ref().filter(|hub| hub.flight_enabled()) {
            let note = |label: String| {
                hub.flight_note(nscc_obs::ObsEvent::Custom {
                    t_ns: now.as_nanos(),
                    label: label.into(),
                });
            };
            note(format!("deadlock: {} process(es) blocked", blocked.len()));
            for b in &blocked {
                let depth = b.mailbox_depth.map(|d| format!(", mailbox depth {d}"));
                note(format!(
                    "deadlock: pid {} ({}) blocked on {} since {} ns{}",
                    b.pid.0,
                    b.name,
                    b.reason,
                    b.since.as_nanos(),
                    depth.unwrap_or_default()
                ));
            }
            for n in &notes {
                note(format!("deadlock: {n}"));
            }
        }
        SimError::Deadlock {
            at: now,
            blocked,
            notes,
        }
    }
}

/// Wall-clock self-accounting for the event loop, active only when a hub
/// requested it via [`SimBuilder::attach_wall`]. Counts are batched
/// locally and flushed into the hub as [`SchedDelta`]s every
/// `FLUSH_EVERY` entries (and once when the run ends), so the steady-state
/// cost per entry is a handful of integer adds — the hub's atomics are
/// touched ~once per 4096 events. `parks`/`unparks` count slices: one
/// served, one ended by a yield; `handoffs` counts the resumes whose
/// process differs from the one resumed before (a process resuming itself
/// is none).
struct WallAcct {
    hub: Hub,
    started: Instant,
    /// When the slice now running was handed out.
    slice_start: Instant,
    /// Wall ns already attributed to the hub by previous flushes.
    last_wall_flushed: u64,
    events: u64,
    since_flush: u64,
    parks: u64,
    unparks: u64,
    handoffs: u64,
    exec_ns: u64,
    per_proc: BTreeMap<u32, (u64, u64)>,
    /// When each parked process re-parked, for park-duration sampling.
    parked_at: BTreeMap<u32, Instant>,
    /// Park durations (re-park → next slice start) since the last flush.
    park: nscc_obs::Histogram,
}

impl WallAcct {
    const FLUSH_EVERY: u64 = 4096;

    fn new(hub: Hub) -> WallAcct {
        let started = Instant::now();
        WallAcct {
            hub,
            started,
            slice_start: started,
            last_wall_flushed: 0,
            events: 0,
            since_flush: 0,
            parks: 0,
            unparks: 0,
            handoffs: 0,
            exec_ns: 0,
            per_proc: BTreeMap::new(),
            parked_at: BTreeMap::new(),
            park: nscc_obs::Histogram::new(),
        }
    }

    /// One queue entry executed.
    fn event(&mut self) {
        self.events += 1;
        self.since_flush += 1;
        if self.since_flush >= Self::FLUSH_EVERY {
            self.flush();
        }
    }

    /// One process slice served: it ran from `slice_start` (the real
    /// instant its `Resume` surfaced) until now. `parked` is true when the
    /// slice ended with the process yielding (advance/block) rather than
    /// exiting.
    fn slice(&mut self, pid: u32, parked: bool) {
        let (t0, end) = (self.slice_start, Instant::now());
        let ns = end.saturating_duration_since(t0).as_nanos() as u64;
        // The gap between this process's previous yield and this slice's
        // start is one park-duration sample: the hand-off tail.
        if let Some(p) = self.parked_at.remove(&pid) {
            self.park
                .record(t0.saturating_duration_since(p).as_nanos() as u64);
        }
        self.exec_ns += ns;
        self.unparks += 1;
        self.parks += u64::from(parked);
        let e = self.per_proc.entry(pid).or_insert((0, 0));
        e.0 += ns;
        e.1 += 1;
        if parked {
            self.parked_at.insert(pid, end);
        }
    }

    /// Hand the accumulated deltas to the hub.
    fn flush(&mut self) {
        let wall_total = self.started.elapsed().as_nanos() as u64;
        let wall_ns = wall_total.saturating_sub(self.last_wall_flushed);
        self.last_wall_flushed = wall_total;
        self.since_flush = 0;
        self.hub.note_sched(&SchedDelta {
            events: std::mem::take(&mut self.events),
            parks: std::mem::take(&mut self.parks),
            unparks: std::mem::take(&mut self.unparks),
            handoffs: std::mem::take(&mut self.handoffs),
            exec_ns: std::mem::take(&mut self.exec_ns),
            wall_ns,
            per_proc: std::mem::take(&mut self.per_proc)
                .into_iter()
                .map(|(pid, (exec_ns, slices))| (pid, exec_ns, slices))
                .collect(),
            park: std::mem::take(&mut self.park),
        });
    }
}

/// Deterministic virtual-time sampling: the number of sampling ticks
/// (multiples of `period`) falling in the half-open interval
/// `(start_ns, end_ns]`. Purely arithmetic on the virtual clock, so two
/// same-seed runs produce byte-identical profiles.
fn profile_samples(start_ns: u64, end_ns: u64, period: u64) -> u64 {
    (end_ns / period).saturating_sub(start_ns / period)
}
