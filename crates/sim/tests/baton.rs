//! The baton-passing scheduler, pinned from outside through the public API:
//! entry order, event-closure panics, real hand-off counts, teardown on
//! every exit path, and thread hygiene.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use nscc_sim::{Ctx, Hub, Mailbox, Pid, SimBuilder, SimError, SimTime};

fn us(n: u64) -> SimTime {
    SimTime::from_micros(n)
}

/// A shared `(virtual ns, who)` log.
#[derive(Clone, Default)]
struct Log(Arc<Mutex<Vec<(u64, &'static str)>>>);

impl Log {
    fn at(&self, now: SimTime, who: &'static str) {
        self.0.lock().unwrap().push((now.as_nanos(), who));
    }

    /// Schedule an event that does nothing but log itself.
    fn event(&self, ctx: &mut Ctx, delay: SimTime, who: &'static str) {
        let log = self.clone();
        ctx.schedule_fn(delay, move |ec| log.at(ec.now(), who));
    }
}

/// Three processes mixing every way an entry can reach the queue.
fn order_scenario() -> Vec<(u64, &'static str)> {
    let log = Log::default();
    let to_b: Mailbox<u32> = Mailbox::new("to-b");
    let to_c: Mailbox<u32> = Mailbox::new("to-c");
    let mut sim = SimBuilder::new(3);

    let (l, b_in) = (log.clone(), to_b.clone());
    sim.spawn("a", move |ctx| {
        l.at(ctx.now(), "a start");
        l.event(ctx, us(2), "ev a+2us");
        l.event(ctx, SimTime::ZERO, "ev a+0 #1");
        b_in.deliver_now(ctx, 1); // b has not run yet: queued, no wake
        l.event(ctx, SimTime::ZERO, "ev a+0 #2");
        ctx.yield_now();
        l.at(ctx.now(), "a after yield");
        ctx.advance(us(1));
        l.at(ctx.now(), "a after advance");
        b_in.deliver_now(ctx, 2); // b is blocked in recv: wake event
        l.event(ctx, SimTime::ZERO, "ev a+0 #3");
        ctx.wake(Pid(2)); // c sits in a plain block
        l.event(ctx, us(1), "ev a+1us");
        ctx.advance(us(3));
        l.at(ctx.now(), "a done");
    });

    let (l, b_in, c_in) = (log.clone(), to_b, to_c.clone());
    sim.spawn("b", move |ctx| {
        l.at(ctx.now(), "b start");
        assert_eq!(b_in.recv(ctx), 1);
        l.at(ctx.now(), "b got 1");
        assert_eq!(b_in.recv(ctx), 2);
        l.at(ctx.now(), "b got 2");
        let (l2, c2) = (l.clone(), c_in.clone());
        ctx.schedule_fn(us(1), move |ec| {
            l2.at(ec.now(), "ev b delivers to c");
            c2.deliver(ec, 7);
        });
        l.event(ctx, SimTime::ZERO, "ev b+0");
        ctx.yield_now();
        l.at(ctx.now(), "b after yield");
        ctx.advance(us(2));
        l.at(ctx.now(), "b done");
    });

    let (l, c_in) = (log.clone(), to_c);
    sim.spawn("c", move |ctx| {
        l.at(ctx.now(), "c start");
        ctx.block("c waits for a's wake");
        l.at(ctx.now(), "c woken");
        let early = c_in.recv_deadline(ctx, ctx.now() + us(5));
        assert_eq!(early, Some(7));
        l.at(ctx.now(), "c got 7 before deadline");
        l.event(ctx, SimTime::ZERO, "ev c+0");
        let late = c_in.recv_deadline(ctx, ctx.now() + us(4));
        assert_eq!(late, None);
        l.at(ctx.now(), "c timed out");
    });

    sim.run().unwrap();
    let got = log.0.lock().unwrap().clone();
    got
}

/// The vector below was captured from the channel-rendezvous scheduler
/// this one replaced (commit bd191fb): every `(time, seq)` the old
/// scheduler handed out must come out of the outbox splice unchanged.
#[test]
fn entry_order_matches_the_rendezvous_scheduler() {
    let expected: Vec<(u64, &'static str)> = vec![
        (0, "a start"),
        (0, "b start"),
        (0, "b got 1"),
        (0, "c start"),
        (0, "ev a+0 #1"),
        (0, "ev a+0 #2"),
        (0, "a after yield"),
        (1000, "a after advance"),
        (1000, "ev a+0 #3"),
        (1000, "b got 2"),
        (1000, "c woken"),
        (1000, "ev b+0"),
        (1000, "b after yield"),
        (2000, "ev a+2us"),
        (2000, "ev a+1us"),
        (2000, "ev b delivers to c"),
        (2000, "c got 7 before deadline"),
        (2000, "ev c+0"),
        (3000, "b done"),
        (4000, "a done"),
        (6000, "c timed out"),
    ];
    assert_eq!(order_scenario(), expected);
}

/// A panic inside an event closure fires on whichever thread holds the
/// baton (here a process thread mid-`advance`); it must come out of
/// `run()` with its message, not as that process's `ProcessPanicked`, and
/// leave nothing behind that breaks the next run.
#[test]
fn event_closure_panic_is_reraised_on_the_run_caller() {
    let mut sim = SimBuilder::new(0);
    sim.spawn("bystander", |ctx| {
        ctx.schedule_fn(us(1), |_| panic!("event closure exploded"));
        ctx.advance(us(5));
        unreachable!("the run ended while this process was mid-advance");
    });
    let payload = catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("run() must panic");
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .expect("string payload");
    assert_eq!(message, "event closure exploded");

    let mut sim = SimBuilder::new(0);
    sim.spawn("p", |ctx| ctx.advance(us(5)));
    assert_eq!(sim.run().unwrap().end_time, us(5));
}

/// `handoffs` counts OS-thread baton transfers; `parks`/`unparks` stay
/// logical (slices), so they are what they were under the old scheduler.
#[test]
fn handoffs_count_real_thread_switches_only() {
    let hub = Hub::new();
    let mut sim = SimBuilder::new(0);
    sim.attach_wall(hub.clone());
    sim.spawn("solo", |ctx| {
        for _ in 0..1000 {
            ctx.advance(us(1));
        }
    });
    sim.run().unwrap();
    let s = hub.sched();
    assert_eq!(
        s.handoffs, 1,
        "run() caller to the process, then self-resumes"
    );
    assert_eq!((s.unparks, s.parks), (1001, 1000));

    const HOPS: u64 = 500;
    let hub = Hub::new();
    let mut sim = SimBuilder::new(0);
    sim.attach_wall(hub.clone());
    let ping: Mailbox<u64> = Mailbox::new("ping");
    let pong: Mailbox<u64> = Mailbox::new("pong");
    let (ping2, pong2) = (ping.clone(), pong.clone());
    sim.spawn("ping", move |ctx| {
        for i in 0..HOPS / 2 {
            pong2.deliver_now(ctx, i);
            assert_eq!(ping.recv(ctx), i);
        }
    });
    sim.spawn("pong", move |ctx| {
        for _ in 0..HOPS / 2 {
            let v = pong.recv(ctx);
            ping2.deliver_now(ctx, v);
        }
    });
    sim.run().unwrap();
    let s = hub.sched();
    assert!(
        (HOPS..=HOPS + 4).contains(&s.handoffs),
        "one switch per hop, not two plus one per schedule: {} handoffs for {HOPS} hops",
        s.handoffs
    );
}

/// Counts its drops: captured by every process closure of a teardown run.
struct Guard(Arc<AtomicUsize>);

impl Drop for Guard {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// A run with a daemon parked in `recv`, a process mid-`advance` when the
/// run ends, and `ender`; returns the outcome and how many of the three
/// closures' guards had been dropped when `run()` returned.
fn teardown_run(
    configure: impl FnOnce(&mut SimBuilder),
    ender: impl FnOnce(&mut Ctx) + Send + 'static,
) -> (Result<nscc_sim::SimReport, SimError>, usize) {
    let drops = Arc::new(AtomicUsize::new(0));
    let mut sim = SimBuilder::new(0);
    configure(&mut sim);
    let quiet: Mailbox<()> = Mailbox::new("quiet");
    let g = Guard(Arc::clone(&drops));
    sim.spawn_daemon("parked-daemon", move |ctx| {
        let _g = &g;
        quiet.recv(ctx);
    });
    let g = Guard(Arc::clone(&drops));
    sim.spawn_daemon("mid-advance", move |ctx| {
        let _g = &g;
        ctx.advance(SimTime::from_secs(3600));
    });
    let g = Guard(Arc::clone(&drops));
    sim.spawn("ender", move |ctx| {
        let _g = &g;
        ender(ctx);
    });
    let result = sim.run();
    (result, drops.load(Ordering::SeqCst))
}

#[test]
fn every_exit_path_unwinds_and_joins_every_thread() {
    let (r, drops) = teardown_run(|_| {}, |ctx| ctx.advance(us(1)));
    assert_eq!(r.unwrap().end_time, us(1));
    assert_eq!(drops, 3, "normal completion");

    let (r, drops) = teardown_run(
        |sim| {
            sim.time_limit(us(10));
        },
        |ctx| loop {
            ctx.advance(us(3));
        },
    );
    assert!(matches!(r, Err(SimError::TimeLimitExceeded { .. })));
    assert_eq!(drops, 3, "time limit");

    let (r, drops) = teardown_run(
        |sim| {
            sim.event_limit(50);
        },
        |ctx| loop {
            ctx.advance(us(1));
        },
    );
    assert!(matches!(r, Err(SimError::EventLimitExceeded { .. })));
    assert_eq!(drops, 3, "event limit");

    // A deadlock needs an empty queue, so by then the advancing daemon has
    // finished; the parked one is still parked and `ender` is blocked.
    let never: Mailbox<()> = Mailbox::new("never");
    let (r, drops) = teardown_run(|_| {}, move |ctx| never.recv(ctx));
    match r {
        Err(SimError::Deadlock { at, blocked, .. }) => {
            assert_eq!(at, SimTime::from_secs(3600));
            assert_eq!(blocked.len(), 1);
            assert_eq!(blocked[0].name, "ender");
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
    assert_eq!(drops, 3, "deadlock");

    let (r, drops) = teardown_run(
        |_| {},
        |ctx| {
            ctx.advance(us(1));
            panic!("ender blew up");
        },
    );
    match r {
        Err(SimError::ProcessPanicked { name, message, .. }) => {
            assert_eq!(name, "ender");
            assert_eq!(message, "ender blew up");
        }
        other => panic!("expected a process panic, got {other:?}"),
    }
    assert_eq!(drops, 3, "process panic");
}

/// A process whose body has returned still steps the scheduler; a panic
/// there (here a deadlock breadcrumb probe's) must end the run, not leave
/// `run()` waiting on a thread that died holding the baton.
#[test]
fn panic_while_stepping_after_the_body_returned_ends_the_run() {
    let mut sim = SimBuilder::new(0);
    sim.deadlock_note(|| panic!("probe exploded"));
    let never: Mailbox<()> = Mailbox::new("never");
    sim.spawn("stuck", move |ctx| never.recv(ctx));
    sim.spawn("returns", |ctx| ctx.advance(us(1)));
    match sim.run() {
        Err(SimError::ProcessPanicked { name, message, .. }) => {
            assert_eq!(name, "returns");
            assert_eq!(message, "probe exploded");
        }
        other => panic!("expected the stepping process's panic, got {other:?}"),
    }
}

#[cfg(target_os = "linux")]
#[test]
fn back_to_back_runs_leak_no_threads() {
    fn threads() -> u64 {
        let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
        let line = status.lines().find(|l| l.starts_with("Threads:"));
        line.and_then(|l| l["Threads:".len()..].trim().parse().ok())
            .expect("Threads: line")
    }
    // Other tests of this binary run beside this one; their simulations
    // come and go, so compare against a generous concurrent-test margin
    // rather than an exact count: 200 leaky runs would add 400.
    let before = threads();
    for i in 0..200 {
        let mut sim = SimBuilder::new(i);
        sim.spawn_daemon("idle", |ctx| ctx.block("forever"));
        sim.spawn("tiny", |ctx| ctx.advance(us(1)));
        sim.run().unwrap();
    }
    let after = threads();
    assert!(
        after <= before + 16,
        "thread count grew from {before} to {after} over 200 runs"
    );
}
