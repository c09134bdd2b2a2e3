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
//! Measured as a difference — the same dump at two lengths — so the
//! document's fixed part (header, key table misses) and all but one
//! doubling of the `events` array cancel. This file holds a single test on
//! purpose: the counter is process-wide.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use common::{event_dump, reference};
use nscc_analyze::json::parse;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
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
}
