//! Allocation budget of the JSON reader on the document that dominates a
//! tool pass: an event dump. An event is `{"Kind":{…}}` — two objects, up
//! to ten numeric members — so the reader owes it two allocations, one
//! `Vec` per object: keys are interned (a refcount bump once the name has
//! been seen), numbers are inline, and an object's `Vec` is sized when its
//! first member is in hand. The budget asserted is three per event.
//!
//! The reader this replaced made 7 to 13 on the same input: the same two
//! `Vec`s grown from empty, a regrow past four members, and a heap `String`
//! per key; the reference copy is measured alongside so the test shows the
//! counter sees that.
//!
//! `Report::load` reads a dump's `events` into an event log instead: every
//! body's members go into one shared `Vec` and the event itself into
//! another, both reserved from the input's length, so an event owes nothing
//! of its own. The budget asserted is a quarter of an allocation per event,
//! far below the tree's two, with room for the log's `Vec`s to regrow once.
//!
//! Measured as a difference — the same dump at two lengths — so the
//! document's fixed part (header, key table misses) and all but one
//! doubling of a growing `Vec` cancel. This file holds a single test on
//! purpose: the counter is process-wide.

#[path = "../../../tests/support/counting.rs"]
mod counting;

mod common;

use common::{event_dump, reference};
use nscc_analyze::json::parse;
use nscc_analyze::Report;

/// Allocations made by `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = counting::total();
    f();
    counting::total() - before
}

#[test]
fn an_event_costs_at_most_three_allocations() {
    const N: usize = 4096;
    // Same seed, so the longer dump starts with the shorter one's events.
    let (short, long) = (event_dump(7, N, 0), event_dump(7, 2 * N, 0));

    let per_event = |parses: &dyn Fn(&str) -> bool| {
        let d1 = allocations(|| assert!(parses(&short)));
        let d2 = allocations(|| assert!(parses(&long)));
        (d2 - d1) as f64 / N as f64
    };
    let reader = per_event(&|doc| parse(doc).is_ok());
    let before = per_event(&|doc| reference::parse(doc).is_ok());

    // Two today: the object `Vec`s, plus one more doubling of the `events`
    // array spread over N events.
    assert!(reader <= 3.0, "{reader:.3} allocations per event");
    assert!(
        before >= 7.0,
        "the reference reader made {before:.3} allocations per event: \
         the counter is not seeing its per-key Strings"
    );

    let dir = std::env::temp_dir();
    let file = |n: usize, doc: &str| {
        let path = dir.join(format!("nscc_alloc_budget_{}_{n}.json", std::process::id()));
        std::fs::write(&path, doc).expect("a writable temp directory");
        path
    };
    let (short, long) = (file(N, &short), file(2 * N, &long));
    let loaded = |path: &std::path::Path| {
        allocations(|| assert!(Report::load(path).is_ok_and(|rep| rep.events.is_some())))
    };
    let load = (loaded(&long) - loaded(&short)) as f64 / N as f64;
    std::fs::remove_file(short).ok();
    std::fs::remove_file(long).ok();
    assert!(
        load <= 0.25,
        "{load:.3} allocations per event in Report::load"
    );
}
