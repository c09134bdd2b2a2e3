//! # nscc-sim — deterministic discrete-event simulation engine
//!
//! The substrate beneath the whole NSCC reproduction. Real application code
//! (the actual genetic algorithm, the actual logic sampler) is written in
//! blocking style and runs as stackful coroutines on the thread that calls
//! [`SimBuilder::run`]: the engine executes exactly one process slice or
//! event at a time and all waiting happens in **virtual time**, so runs are
//! fully deterministic for a given seed.
//!
//! Key pieces:
//!
//! * [`SimTime`] — nanosecond virtual clock.
//! * [`SimBuilder`] — spawn processes (plain or daemon), set safety caps, run.
//! * [`Ctx`] — the in-process handle: [`Ctx::advance`] charges compute time,
//!   [`Ctx::schedule_fn`] defers events, [`Ctx::rng`] gives a seeded RNG.
//! * [`Mailbox`] — virtual-time FIFO channels between processes; receives
//!   block in virtual time.
//! * [`EventCtx`] — what a firing event may do (deliver, wake, reschedule).
//!
//! ## Why stackful coroutines, not threads or `async`?
//!
//! Blocking style keeps the ported applications byte-for-byte close to their
//! paper pseudocode, and every layer above calls `ctx.advance()` and
//! `mailbox.recv(ctx)` synchronously; `async` or hand-written state
//! machines would rewrite all of them. A body that blocks needs a stack of
//! its own — but not a thread: only one process ever runs at a time, so an
//! OS thread per process bought nothing and cost a futex wake and a park
//! (over a microsecond, a third of it in the kernel) on every hand-off.
//! So each process gets a 2 MiB stack with a guard page (reserved, not
//! touched) and `run()` is one loop: pop an entry, fire it if it is an
//! event, switch to the process's stack if it is a resume, until the
//! process ends its slice and switches back. A switch saves and restores
//! the callee-saved registers (x86_64 and aarch64 on unix, the two
//! supported targets): an `advance` with nothing else due costs about
//! 50 ns, a process-to-process hand-off about 150 ns, a whole spawn-run
//! about 300 ns, and a run makes no system call once its stacks exist.
//! `RUST_MIN_STACK` does not apply to process bodies. All `unsafe` lives
//! in the private `coro` module.
//!
//! ```
//! use nscc_sim::{Mailbox, SimBuilder, SimTime};
//!
//! let mb: Mailbox<u64> = Mailbox::new("pings");
//! let (tx, rx) = (mb.clone(), mb.clone());
//! let mut sim = SimBuilder::new(7);
//! sim.spawn("producer", move |ctx| {
//!     for i in 0..3 {
//!         ctx.advance(SimTime::from_millis(10)); // compute
//!         let tx = tx.clone();
//!         ctx.schedule_fn(SimTime::from_millis(2), move |ec| tx.deliver(ec, i));
//!     }
//! });
//! sim.spawn("consumer", move |ctx| {
//!     for want in 0..3 {
//!         assert_eq!(rx.recv(ctx), want);
//!     }
//! });
//! assert_eq!(sim.run().unwrap().end_time, SimTime::from_millis(32));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

mod coro;
mod error;
mod event;
mod mailbox;
mod process;
mod scheduler;
mod time;

pub use error::{DeadlockInfo, SimError};
pub use event::{Event, EventCtx};
pub use mailbox::Mailbox;
// Tracing moved into the shared observability crate; re-exported here so
// span types stay reachable where the engine hands them out.
pub use nscc_obs::{Hub, ObsEvent, Span, SpanKind, Trace, TraceTotals};
pub use process::{Ctx, Pid};
pub use scheduler::{SimBuilder, SimReport};
pub use time::SimTime;

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    #[test]
    fn empty_simulation_finishes_at_zero() {
        let sim = SimBuilder::new(0);
        let report = sim.run().unwrap();
        assert_eq!(report.end_time, SimTime::ZERO);
        assert_eq!(report.processes, 0);
    }

    #[test]
    fn advance_accumulates() {
        let mut sim = SimBuilder::new(0);
        sim.spawn("p", |ctx| {
            for _ in 0..5 {
                ctx.advance(SimTime::from_millis(2));
            }
            assert_eq!(ctx.now(), SimTime::from_millis(10));
        });
        assert_eq!(sim.run().unwrap().end_time, SimTime::from_millis(10));
    }

    #[test]
    fn interleaving_is_by_virtual_time() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = SimBuilder::new(0);
        for (name, step) in [("a", 3u64), ("b", 5u64)] {
            let log = Rc::clone(&log);
            sim.spawn(name, move |ctx| {
                for i in 0..3 {
                    ctx.advance(SimTime::from_millis(step));
                    log.borrow_mut()
                        .push((name, i, ctx.now().as_nanos() / 1_000_000));
                }
            });
        }
        sim.run().unwrap();
        let got = log.borrow().clone();
        assert_eq!(
            got,
            vec![
                ("a", 0, 3),
                ("b", 0, 5),
                ("a", 1, 6),
                ("a", 2, 9),
                ("b", 1, 10),
                ("b", 2, 15),
            ]
        );
    }

    #[test]
    fn determinism_across_runs() {
        fn run_once(seed: u64) -> Vec<u64> {
            let samples = Rc::new(RefCell::new(Vec::new()));
            let mut sim = SimBuilder::new(seed);
            for p in 0..4 {
                let samples = Rc::clone(&samples);
                sim.spawn(format!("p{p}"), move |ctx| {
                    use rand::Rng;
                    for _ in 0..10 {
                        let jitter: u64 = ctx.rng().gen_range(1..100);
                        ctx.advance(SimTime::from_micros(jitter));
                        samples.borrow_mut().push(ctx.now().as_nanos());
                    }
                });
            }
            sim.run().unwrap();
            let v = samples.borrow().clone();
            v
        }
        assert_eq!(run_once(99), run_once(99));
        assert_ne!(run_once(99), run_once(100));
    }

    #[test]
    fn wall_accounting_counts_events_slices_and_parks() {
        let hub = Hub::new();
        let mut sim = SimBuilder::new(0);
        sim.attach_wall(hub.clone());
        for p in 0..2 {
            sim.spawn(format!("p{p}"), |ctx| {
                for _ in 0..3 {
                    ctx.advance(SimTime::from_millis(1));
                }
            });
        }
        let report = sim.run().unwrap();
        let s = hub.sched();
        assert_eq!(s.events, report.events_executed);
        // Each process: 1 initial unpark + 3 advance re-resumes = 4 slices;
        // the final slice ends in Done (no re-park), so parks = slices − 1.
        assert_eq!(s.unparks, 8);
        assert_eq!(s.parks, 6);
        assert!(s.wall_ns > 0, "event loop spent some real time");
        assert!(s.exec_ns <= s.wall_ns, "slices are inside the loop");
        assert_eq!(s.procs.len(), 2);
        assert_eq!(s.procs[0].pid, 0);
        assert_eq!(s.procs[0].slices, 4);
        assert_eq!(s.procs[1].slices, 4);
        assert!(s.events_per_sec > 0.0);
        // Wall accounting records no spans and no events: the hub's
        // deterministic summary is untouched.
        let sum = hub.summary();
        assert_eq!(sum.events, 0);
        assert_eq!(sum.spans, 0);
    }

    /// `observe` attaches the profiler (and its spans) only when the hub
    /// samples, and wall accounting only when the hub wants it.
    #[test]
    fn observe_attaches_what_the_hub_asks_for() {
        let run = |hub: &Hub| {
            let mut sim = SimBuilder::new(0);
            sim.observe(hub);
            sim.spawn("p", |ctx| ctx.advance(SimTime::from_millis(1)));
            sim.run().unwrap();
            (hub.summary().spans, hub.sched().unparks)
        };
        assert_eq!(run(&Hub::new()), (0, 0), "nothing asked, nothing recorded");

        let profiled = Hub::new();
        profiled.profile_every(100_000);
        let (spans, unparks) = run(&profiled);
        assert!(spans > 0, "profiling records spans");
        assert_eq!(unparks, 0, "no wall accounting unasked");

        let walled = Hub::new();
        walled.enable_wall();
        let (spans, unparks) = run(&walled);
        assert_eq!(spans, 0, "wall accounting records no span");
        assert!(unparks > 0, "wall accounting fills Hub::sched");
    }

    #[test]
    fn deadlock_is_detected_with_diagnostics() {
        let mb: Mailbox<()> = Mailbox::new("never");
        let mut sim = SimBuilder::new(0);
        let mb2 = mb.clone();
        sim.spawn("stuck", move |ctx| {
            mb2.recv(ctx);
        });
        match sim.run() {
            Err(SimError::Deadlock { blocked, .. }) => {
                assert_eq!(blocked.len(), 1);
                assert_eq!(blocked[0].name, "stuck");
                assert!(blocked[0].reason.contains("never"));
                assert_eq!(blocked[0].since, SimTime::ZERO);
                assert_eq!(blocked[0].last_progress, SimTime::ZERO);
                assert_eq!(blocked[0].mailbox_depth, Some(0));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn deadlock_diagnostics_report_depth_and_progress() {
        // A process wedges waiting on a condition while a message sits
        // queued in a mailbox nobody drains — the depth probe must surface
        // the jam, and since/last_progress must date the wedge.
        let jam: Mailbox<u32> = Mailbox::new("jammed");
        let mut sim = SimBuilder::new(0);
        let jam_probe = jam.clone();
        sim.spawn("consumer", move |ctx| {
            ctx.advance(SimTime::from_millis(2));
            let jam = jam_probe.clone();
            ctx.block_with_probe("waiting for flush signal", move || jam.len());
        });
        sim.spawn("producer", move |ctx| {
            let jam = jam.clone();
            // Delivered with no waiter: stays queued, nobody ever drains it.
            ctx.schedule_fn(SimTime::from_micros(1500), move |ec| jam.deliver(ec, 9));
        });
        match sim.run() {
            Err(SimError::Deadlock { at, blocked, notes }) => {
                assert_eq!(at, SimTime::from_millis(2));
                assert_eq!(blocked.len(), 1);
                let info = &blocked[0];
                assert_eq!(info.name, "consumer");
                assert!(info.reason.contains("flush signal"));
                assert_eq!(info.since, SimTime::from_millis(2));
                assert_eq!(info.last_progress, SimTime::from_millis(2));
                assert_eq!(info.mailbox_depth, Some(1));
                let rendered = format!("{}", SimError::Deadlock { at, blocked, notes });
                assert!(rendered.contains("flush signal"));
                assert!(rendered.contains("mailbox depth 1"));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn deadlock_notes_surface_registered_breadcrumbs() {
        let mb: Mailbox<()> = Mailbox::new("never");
        let mut sim = SimBuilder::new(0);
        sim.deadlock_note(|| vec!["marker plane: cut 4 incomplete".into()]);
        sim.deadlock_note(Vec::new); // empty probes contribute nothing
        let mb2 = mb.clone();
        sim.spawn("stuck", move |ctx| {
            mb2.recv(ctx);
        });
        match sim.run() {
            Err(err @ SimError::Deadlock { .. }) => {
                let SimError::Deadlock { ref notes, .. } = err else {
                    unreachable!()
                };
                assert_eq!(notes, &["marker plane: cut 4 incomplete".to_string()]);
                let rendered = format!("{err}");
                assert!(rendered.contains("note: marker plane: cut 4 incomplete"));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn blocked_daemon_does_not_deadlock() {
        let mb: Mailbox<()> = Mailbox::new("quiet");
        let mut sim = SimBuilder::new(0);
        let mb2 = mb.clone();
        sim.spawn_daemon("idle-daemon", move |ctx| {
            mb2.recv(ctx);
        });
        sim.spawn("worker", |ctx| ctx.advance(SimTime::from_millis(1)));
        let report = sim.run().unwrap();
        assert_eq!(report.end_time, SimTime::from_millis(1));
    }

    #[test]
    fn daemon_does_not_prolong_run() {
        let mut sim = SimBuilder::new(0);
        sim.spawn_daemon("loader", |ctx| loop {
            ctx.advance(SimTime::from_millis(1));
        });
        sim.spawn("worker", |ctx| ctx.advance(SimTime::from_millis(5)));
        let report = sim.run().unwrap();
        assert_eq!(report.end_time, SimTime::from_millis(5));
    }

    #[test]
    fn process_panic_is_reported() {
        let mut sim = SimBuilder::new(0);
        sim.spawn("bad", |ctx| {
            ctx.advance(SimTime::from_millis(1));
            panic!("boom at {}", ctx.now());
        });
        match sim.run() {
            Err(SimError::ProcessPanicked { name, message, .. }) => {
                assert_eq!(name, "bad");
                assert!(message.contains("boom"));
            }
            other => panic!("expected panic report, got {other:?}"),
        }
    }

    #[test]
    fn time_limit_enforced() {
        let mut sim = SimBuilder::new(0);
        sim.time_limit(SimTime::from_millis(10));
        sim.spawn("runner", |ctx| loop {
            ctx.advance(SimTime::from_millis(3));
        });
        assert!(matches!(sim.run(), Err(SimError::TimeLimitExceeded { .. })));
    }

    #[test]
    fn event_limit_enforced() {
        let mut sim = SimBuilder::new(0);
        sim.event_limit(50);
        sim.spawn("runner", |ctx| loop {
            ctx.advance(SimTime::from_millis(1));
        });
        assert!(matches!(
            sim.run(),
            Err(SimError::EventLimitExceeded { .. })
        ));
    }

    #[test]
    fn scheduled_events_fire_in_order() {
        let counter = Rc::new(Cell::new(0u64));
        let mut sim = SimBuilder::new(0);
        let c = Rc::clone(&counter);
        sim.spawn("scheduler", move |ctx| {
            for i in (0..10u64).rev() {
                let c = Rc::clone(&c);
                ctx.schedule_fn(SimTime::from_millis(i), move |ec| {
                    // Each event asserts it fires after all earlier ones.
                    let prev = c.replace(c.get() + 1);
                    assert_eq!(prev, i, "event at t={} fired out of order", ec.now());
                });
            }
            ctx.advance(SimTime::from_millis(20));
        });
        sim.run().unwrap();
        assert_eq!(counter.get(), 10);
    }

    #[test]
    fn wake_on_nonblocked_process_is_ignored() {
        let mut sim = SimBuilder::new(0);
        let target = sim.spawn("sleeper", |ctx| {
            ctx.advance(SimTime::from_millis(5));
        });
        sim.spawn("waker", move |ctx| {
            // Sleeper is in an Advance (not Blocked); wake must be a no-op.
            ctx.schedule_fn(SimTime::from_millis(1), move |ec| ec.wake(target));
            ctx.advance(SimTime::from_millis(2));
        });
        let report = sim.run().unwrap();
        assert_eq!(report.end_time, SimTime::from_millis(5));
    }

    #[test]
    fn yield_now_lets_same_instant_events_run() {
        let mb: Mailbox<u32> = Mailbox::new("inst");
        let mb2 = mb.clone();
        let mut sim = SimBuilder::new(0);
        sim.spawn("p", move |ctx| {
            let mb3 = mb2.clone();
            ctx.schedule_fn(SimTime::ZERO, move |ec| mb3.deliver(ec, 1));
            assert!(mb2.try_recv().is_none(), "event must not fire inline");
            ctx.yield_now();
            assert_eq!(mb2.try_recv(), Some(1));
        });
        sim.run().unwrap();
    }
}
