//! The single-stepper scheduler and its coroutines, pinned from outside
//! through the public API: entry order, panics in what the stepper runs,
//! hand-off counts, teardown on every exit path, and what is new with
//! processes that are coroutines — no OS thread, no leaked stack, a guard
//! page under every stack, nested runs, backtraces through a coroutine.
//!
//! What needs a process of its own (a quiet thread count, an environment
//! variable, a fatal signal) runs as an `#[ignore]`d `child_*` test in a
//! re-exec of this binary; see [`child`].

use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Output};
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use nscc_sim::{Ctx, Hub, Mailbox, Pid, SimBuilder, SimError, SimTime};

fn us(n: u64) -> SimTime {
    SimTime::from_micros(n)
}

/// A shared `(virtual ns, who)` log.
#[derive(Clone, Default)]
struct Log(Rc<RefCell<Vec<(u64, &'static str)>>>);

impl Log {
    fn at(&self, now: SimTime, who: &'static str) {
        self.0.borrow_mut().push((now.as_nanos(), who));
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
    let got = log.0.borrow().clone();
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

/// A panic inside an event closure fires in the stepper loop (here with a
/// process suspended mid-`advance`); it must come out of `run()` with its
/// message, not as that process's `ProcessPanicked`, and leave nothing
/// behind that breaks the next run.
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

/// `handoffs` counts the resumes whose process differs from the one
/// resumed before — what used to cost an OS-thread switch; `parks` and
/// `unparks` count slices, as they did under both earlier schedulers.
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
    assert_eq!(s.handoffs, 1, "the first resume, then self-resumes");
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
        "one hand-off per hop: {} handoffs for {HOPS} hops",
        s.handoffs
    );
}

/// Counts its drops: captured by every process closure of a teardown run.
struct Guard(Rc<Cell<usize>>);

impl Drop for Guard {
    fn drop(&mut self) {
        self.0.set(self.0.get() + 1);
    }
}

/// A run with a daemon parked in `recv`, a process mid-`advance` when the
/// run ends, and `ender`; returns the outcome and how many of the three
/// closures' guards had been dropped when `run()` returned.
fn teardown_run(
    configure: impl FnOnce(&mut SimBuilder),
    ender: impl FnOnce(&mut Ctx) + 'static,
) -> (Result<nscc_sim::SimReport, SimError>, usize) {
    let drops = Rc::new(Cell::new(0));
    let mut sim = SimBuilder::new(0);
    configure(&mut sim);
    let quiet: Mailbox<()> = Mailbox::new("quiet");
    let g = Guard(Rc::clone(&drops));
    sim.spawn_daemon("parked-daemon", move |ctx| {
        let _g = &g;
        quiet.recv(ctx);
    });
    let g = Guard(Rc::clone(&drops));
    sim.spawn_daemon("mid-advance", move |ctx| {
        let _g = &g;
        ctx.advance(SimTime::from_secs(3600));
    });
    let g = Guard(Rc::clone(&drops));
    sim.spawn("ender", move |ctx| {
        let _g = &g;
        ender(ctx);
    });
    let result = sim.run();
    (result, drops.get())
}

#[test]
fn every_exit_path_unwinds_every_body() {
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

/// One rule for a panic in anything the stepper itself runs: a deadlock
/// breadcrumb probe's comes out of `run()` like an event closure's, charged
/// to no process, after every started body has been unwound.
#[test]
fn probe_panic_is_reraised_on_the_run_caller_with_every_body_unwound() {
    let drops = Rc::new(Cell::new(0));
    let mut sim = SimBuilder::new(0);
    sim.deadlock_note(|| panic!("probe exploded"));
    let never: Mailbox<()> = Mailbox::new("never");
    let g = Guard(Rc::clone(&drops));
    sim.spawn("stuck", move |ctx| {
        let _g = &g;
        never.recv(ctx)
    });
    let g = Guard(Rc::clone(&drops));
    sim.spawn("returns", move |ctx| {
        let _g = &g;
        ctx.advance(us(1))
    });
    let payload = catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("run() must panic");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"probe exploded"));
    assert_eq!(
        drops.get(),
        2,
        "both bodies were gone when the panic left run()"
    );
}

/// `Threads:` of `/proc/self/status`.
#[cfg(target_os = "linux")]
fn os_threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("Threads:"));
    line.and_then(|l| l["Threads:".len()..].trim().parse().ok())
        .expect("Threads: line")
}

/// Run one `#[ignore]`d test of this binary, alone, in a child process.
fn child(test: &str, backtrace: &str) -> Output {
    Command::new(std::env::current_exe().expect("test binary path"))
        .args([
            test,
            "--exact",
            "--ignored",
            "--test-threads=1",
            "--nocapture",
        ])
        .env("RUST_BACKTRACE", backtrace)
        .output()
        .expect("re-exec the test binary")
}

#[track_caller]
fn assert_child_passed(out: &Output) {
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(
        out.status.success() && stdout.contains("1 passed"),
        "child test failed ({}):\n{stdout}\n{stderr}",
        out.status
    );
}

/// Every body runs on the thread that called `run()`.
#[test]
fn run_creates_no_os_thread() {
    let caller = std::thread::current().id();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut sim = SimBuilder::new(0);
    for p in 0..4 {
        let seen = Arc::clone(&seen);
        sim.spawn(format!("p{p}"), move |ctx| {
            seen.lock().unwrap().push(std::thread::current().id());
            ctx.advance(us(1));
            seen.lock().unwrap().push(std::thread::current().id());
        });
    }
    sim.run().unwrap();
    assert_eq!(*seen.lock().unwrap(), vec![caller; 8]);
    // The process-wide count needs a process where nothing else starts or
    // ends threads meanwhile.
    #[cfg(target_os = "linux")]
    assert_child_passed(&child("child_thread_count_inside_a_body", "0"));
}

#[cfg(target_os = "linux")]
#[test]
#[ignore = "run by run_creates_no_os_thread in a child process"]
fn child_thread_count_inside_a_body() {
    let before = os_threads();
    let inside = Arc::new(Mutex::new(Vec::new()));
    let mut sim = SimBuilder::new(0);
    for p in 0..8 {
        let inside = Arc::clone(&inside);
        sim.spawn(format!("p{p}"), move |ctx| {
            ctx.advance(us(1));
            inside.lock().unwrap().push(os_threads());
        });
    }
    sim.run().unwrap();
    assert_eq!(*inside.lock().unwrap(), vec![before; 8]);
}

/// A stack per process, freed (or kept for the thread's next runs, a
/// bounded number) when the run ends — also when it ends with bodies
/// still suspended.
#[cfg(target_os = "linux")]
#[test]
fn back_to_back_runs_leak_no_stacks() {
    fn mappings() -> usize {
        let maps = std::fs::read_to_string("/proc/self/maps").expect("procfs");
        maps.lines().count()
    }
    fn one_run(seed: u64) {
        let mut sim = SimBuilder::new(seed);
        let cut_short = seed % 2 == 1;
        if cut_short {
            sim.time_limit(us(10));
        }
        for d in 0..4 {
            sim.spawn_daemon(format!("idle{d}"), |ctx| ctx.block("forever"));
        }
        for p in 0..4 {
            sim.spawn(format!("p{p}"), move |ctx| {
                let slices = if cut_short { 100 } else { 3 };
                for _ in 0..slices {
                    ctx.advance(us(1));
                }
            });
        }
        assert_eq!(sim.run().is_err(), cut_short);
    }
    one_run(0); // whatever the first run sets up for good
    let before = mappings();
    for seed in 0..2000 {
        one_run(seed);
    }
    // A thread that ends gives back the stacks it kept for reuse.
    for seed in 0..64 {
        std::thread::spawn(move || one_run(seed)).join().unwrap();
    }
    let after = mappings();
    // Other tests of this binary run beside this one and map stacks of
    // their own; 2 000 leaky runs would add 16 000 stacks, two lines each.
    assert!(
        after <= before + 256,
        "/proc/self/maps grew from {before} to {after} lines over 2000 runs"
    );
}

/// Recurse, touching every page on the way, until the stack is `bytes`
/// deeper than `top` (the address of a local of the first caller).
#[inline(never)]
fn dig(top: usize, bytes: usize) -> u64 {
    let mut frame = [0u8; 2048];
    std::hint::black_box(&mut frame);
    let below = if top - (frame.as_ptr() as usize) < bytes {
        dig(top, bytes)
    } else {
        0
    };
    below + u64::from(frame[0]) + 1
}

/// A process stack is 2 MiB: a body that needs 1 MiB of it completes, and
/// one that recurses without bound faults on the guard page — the process
/// dies by signal, nothing is silently overwritten.
#[test]
fn process_stacks_hold_a_mebibyte_and_end_in_a_guard_page() {
    let mut sim = SimBuilder::new(0);
    sim.spawn("deep", |ctx| {
        ctx.advance(us(1));
        let top = 0u8;
        assert!(dig(&top as *const u8 as usize, 1 << 20) > 1);
        ctx.advance(us(1));
    });
    assert_eq!(sim.run().unwrap().end_time, us(2));

    use std::os::unix::process::ExitStatusExt;
    let out = child("child_recurses_without_bound", "0");
    assert!(
        out.status.signal().is_some(),
        "the overflowing child must die by signal, got {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
#[ignore = "run by process_stacks_hold_a_mebibyte_and_end_in_a_guard_page in a child process"]
fn child_recurses_without_bound() {
    let mut sim = SimBuilder::new(0);
    sim.spawn("bottomless", |ctx| {
        ctx.advance(us(1));
        let top = 0u8;
        std::hint::black_box(dig(&top as *const u8 as usize, usize::MAX));
    });
    let _ = sim.run();
    unreachable!("the body overflowed its stack and the run came back");
}

/// A process body may run a whole simulation of its own: the nested
/// stepper loop runs on that body's stack.
#[test]
fn a_nested_run_inside_a_process_body_returns_its_report() {
    let inner_end = Rc::new(Cell::new(None));
    let out = Rc::clone(&inner_end);
    let mut sim = SimBuilder::new(0);
    sim.spawn("outer", move |ctx| {
        ctx.advance(us(2));
        let mut inner = SimBuilder::new(1);
        let mb: Mailbox<u32> = Mailbox::new("inner");
        let tx = mb.clone();
        inner.spawn("tx", move |ctx| {
            ctx.advance(us(7));
            tx.deliver_now(ctx, 9);
        });
        inner.spawn("rx", move |ctx| assert_eq!(mb.recv(ctx), 9));
        let report = inner.run().expect("the nested run completes");
        out.set(Some((report.end_time, report.processes)));
        ctx.advance(us(3));
    });
    assert_eq!(sim.run().unwrap().end_time, us(5));
    assert_eq!(inner_end.get(), Some((us(7), 2)));
}

/// With `RUST_BACKTRACE=1` the panic hook walks the panicking stack — a
/// coroutine's — before the panic is caught and reported as usual.
#[test]
fn process_panic_is_reported_with_backtraces_on() {
    let out = child("child_process_panics", "1");
    assert_child_passed(&out);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("stack backtrace:"),
        "no backtrace in:\n{stderr}"
    );
}

#[test]
#[ignore = "run by process_panic_is_reported_with_backtraces_on in a child process"]
fn child_process_panics() {
    let mut sim = SimBuilder::new(0);
    sim.spawn("bad", |ctx| {
        ctx.advance(us(1));
        panic!("boom at {}", ctx.now());
    });
    match sim.run() {
        Err(SimError::ProcessPanicked { name, message, .. }) => {
            assert_eq!(name, "bad");
            assert!(message.starts_with("boom at "), "{message}");
        }
        other => panic!("expected a process panic, got {other:?}"),
    }
}
