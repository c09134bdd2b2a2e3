//! Allocation budget of the reliable layer's retransmit path: a tracked
//! send is one shared frame, and every attempt, arriving copy and retry
//! timer is a handle to it plus its own provenance stamps. The payload is
//! a heap `Vec`, so a per-attempt clone of the frame shows up here as one
//! extra allocation per copy, in tier-1, instead of waiting for a
//! benchmark to notice.
//!
//! This file holds a single test on purpose: the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nscc_msg::{CommWorld, MsgConfig, ReliableConfig};
use nscc_net::{DropReason, Medium, MediumStats, Network, NodeId, Transmission, Verdict};
use nscc_sim::{SimBuilder, SimTime};

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

/// A 1 ms link that loses `drop_in_256`/256 of its data frames on a
/// SplitMix stream; acks (anything no bigger than `ReliableConfig`'s
/// default 32 bytes) always pass.
struct Lossy {
    drop_in_256: u64,
    state: u64,
    stats: MediumStats,
}

impl Medium for Lossy {
    fn transmit(&mut self, now: SimTime, _src: NodeId, _dst: NodeId, bytes: usize) -> SimTime {
        self.stats.frames += 1;
        self.stats.payload_bytes += bytes as u64;
        now + SimTime::from_millis(1)
    }

    fn plan_transmit(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: usize,
    ) -> Transmission {
        let arrival = self.transmit(now, src, dst, bytes);
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let lost =
            bytes > ReliableConfig::default().ack_bytes && (z ^ (z >> 31)) % 256 < self.drop_in_256;
        Transmission {
            arrival,
            verdict: if lost {
                Verdict::Drop(DropReason::Loss)
            } else {
                Verdict::Deliver
            },
            fault: SimTime::ZERO,
        }
    }

    fn stats(&self) -> MediumStats {
        self.stats
    }

    fn next_free(&self, now: SimTime) -> SimTime {
        now
    }
}

/// Allocations made by a run that sends `msgs` 64-byte payloads one at a
/// time (each settles — delivered or given up — before the next), and the
/// attempts it put on the wire (first sends plus retransmits).
fn run(drop_in_256: u64, msgs: u64) -> (u64, u64) {
    let medium = Lossy {
        drop_in_256,
        state: 7,
        stats: MediumStats::default(),
    };
    let world: CommWorld<Vec<u8>> = CommWorld::new(
        Network::new(medium),
        2,
        MsgConfig {
            reliable: Some(ReliableConfig::default()),
            ..MsgConfig::default()
        },
    );
    let (tx, rx) = (world.endpoint(0), world.endpoint(1));
    let mut sim = SimBuilder::new(0);
    sim.spawn("tx", move |ctx| {
        for _ in 0..msgs {
            tx.send(ctx, 1, vec![7; 64]);
            // The whole default retry schedule (630 ms) fits in a second.
            ctx.advance(SimTime::from_secs(1));
        }
    });
    let end = SimTime::from_secs(msgs + 1);
    sim.spawn(
        "rx",
        move |ctx| while rx.recv_deadline(ctx, end).is_some() {},
    );
    let before = ALLOCS.load(Ordering::Relaxed);
    sim.run().unwrap();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let stats = world.stats();
    (allocs, stats.sent + stats.retransmits)
}

/// Allocations per attempt, net of everything a run pays once: the
/// difference between a long and a short run.
fn per_attempt(drop_in_256: u64) -> f64 {
    let (a1, n1) = run(drop_in_256, 20);
    let (a2, n2) = run(drop_in_256, 220);
    (a2 - a1) as f64 / (n2 - n1) as f64
}

/// Allocations per attempt on a link that loses every data frame.
/// Measured: 1.333 — one retry-timer event per attempt, plus the payload
/// and the shared frame once per six attempts. Cloning the frame into
/// every timer (and boxing each event twice) cost 3.166.
const BLACK_HOLE: f64 = 1.34;
/// Allocations per attempt on a link that loses half its data frames.
/// Measured: 4.081 — a landed attempt adds its delivery event, the
/// receiver's copy of the payload, its ack event and the receiver's
/// deadline timer. Per-copy frame clones cost 6.591.
const LOSSY: f64 = 4.1;

#[test]
fn a_retransmit_attempt_allocates_its_events_only() {
    let black_hole = per_attempt(256);
    let lossy = per_attempt(128);
    assert!(
        black_hole <= BLACK_HOLE,
        "black hole: {black_hole:.3} allocations per attempt, budget {BLACK_HOLE}"
    );
    assert!(
        lossy <= LOSSY,
        "lossy link: {lossy:.3} allocations per attempt, budget {LOSSY}"
    );
}
