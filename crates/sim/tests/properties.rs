//! Property-based tests of the simulation engine's core guarantees.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

use nscc_sim::{Mailbox, SimBuilder, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The end time of independent processes is the max of their local
    /// advance sums, whatever the interleaving.
    #[test]
    fn end_time_is_max_of_process_sums(
        durations in prop::collection::vec(prop::collection::vec(1u64..5000, 1..20), 1..6)
    ) {
        let mut sim = SimBuilder::new(0);
        let mut expected = SimTime::ZERO;
        for (i, ds) in durations.iter().enumerate() {
            let total: SimTime = ds.iter().map(|&d| SimTime::from_micros(d)).sum();
            expected = expected.max(total);
            let ds = ds.clone();
            sim.spawn(format!("p{i}"), move |ctx| {
                for d in ds {
                    ctx.advance(SimTime::from_micros(d));
                }
            });
        }
        let report = sim.run().expect("no deadlock");
        prop_assert_eq!(report.end_time, expected);
    }

    /// Mailboxes deliver every message exactly once, in delivery-time
    /// order, whatever the schedule of sends.
    #[test]
    fn mailbox_delivers_everything_in_order(
        sends in prop::collection::vec((0u64..10_000, 0u64..2_000), 1..40)
    ) {
        let mb: Mailbox<u64> = Mailbox::new("props");
        let out = Rc::new(RefCell::new(Vec::new()));
        let n = sends.len();
        let mut sim = SimBuilder::new(1);
        {
            let mb = mb.clone();
            sim.spawn("sender", move |ctx| {
                // Schedule all deliveries up-front at absolute times.
                for (send_at, delay) in sends {
                    let mb = mb.clone();
                    let at = SimTime::from_micros(send_at + delay);
                    ctx.schedule_fn(at, move |ec| {
                        let t = ec.now().as_nanos();
                        mb.deliver(ec, t);
                    });
                }
            });
        }
        {
            let mb = mb.clone();
            let out = Rc::clone(&out);
            sim.spawn("receiver", move |ctx| {
                for _ in 0..n {
                    let v = mb.recv(ctx);
                    out.borrow_mut().push(v);
                }
            });
        }
        sim.run().expect("no deadlock");
        let got = out.borrow().clone();
        prop_assert_eq!(got.len(), n);
        // Delivery order is non-decreasing in virtual delivery time.
        for w in got.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    /// Determinism: identical seeds and programs give identical reports.
    #[test]
    fn runs_are_deterministic(seed in any::<u64>(), n in 1usize..5) {
        let run = |seed: u64| {
            let mut sim = SimBuilder::new(seed);
            for i in 0..n {
                sim.spawn(format!("p{i}"), move |ctx| {
                    use rand::Rng;
                    for _ in 0..20 {
                        let d: u64 = ctx.rng().gen_range(1..1000);
                        ctx.advance(SimTime::from_micros(d));
                    }
                });
            }
            let r = sim.run().expect("runs");
            (r.end_time, r.events_executed)
        };
        prop_assert_eq!(run(seed), run(seed));
    }
}
