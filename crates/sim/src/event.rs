//! Events: the unit of work on the virtual-time queue.

use std::collections::VecDeque;

use crate::process::Pid;
use crate::time::SimTime;

/// A deferred action that fires at a scheduled virtual instant.
///
/// Events run inline in the stepper loop of
/// [`SimBuilder::run`](crate::SimBuilder::run), between process slices,
/// with exclusive access to the engine through an [`EventCtx`]; they may
/// deliver messages, wake blocked processes, and schedule further events.
pub struct Event(pub(crate) Box<dyn FnOnce(&mut EventCtx<'_>)>);

impl Event {
    /// Wrap a closure as an event.
    pub fn new<F>(f: F) -> Self
    where
        F: FnOnce(&mut EventCtx<'_>) + 'static,
    {
        Event(Box::new(f))
    }
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Event(..)")
    }
}

/// What a queue entry does when it reaches the head of the event queue.
pub(crate) enum EventKind {
    /// Run a closure.
    Fire(Event),
    /// Hand control to a process.
    Resume(Pid),
}

/// An entry in the event queue. Entries leave in `time` order, and entries
/// of one instant in the order they were pushed.
pub(crate) struct QueueEntry {
    pub time: SimTime,
    pub kind: EventKind,
}

/// The event queue: earliest time first, ties in push order.
///
/// A radix heap over the virtual time, with ties kept in push order. It
/// relies on times being monotone: no entry is pushed before the instant
/// of the entry popped last, `last`. That holds because every push is at
/// the current instant or later (`now + delay`, or a spawn before the run
/// starts).
///
/// Entries at `last` wait in `now`, first in first out. Any other entry
/// lives in the bucket of the highest bit where its time differs from
/// `last`, so every time in a lower bucket is below every time in a higher
/// one, and the lowest non-empty bucket — the lowest set bit of `occupied`
/// — holds the earliest. Once `now` is empty, a one-entry bucket pops as
/// it is, and a bucket of several entries is spilled ([`Queue::spill`]):
/// `last` becomes its earliest time, the first entry at it pops, and the
/// others go to `now` and to lower buckets. An entry moves down at most 64
/// times.
///
/// Entries of one instant always share a bucket: an entry stays put while
/// `last` advances through lower buckets, and one pushed later at the same
/// instant lands beside it. Pushes, spills and `now` all keep their order,
/// so entries of one instant leave in push order, which is what a
/// `(time, seq)` key with `seq` counted per push would give. Buffers are
/// kept (a spill trades them, never frees one), so a queue that has
/// reached its working size pushes and pops without allocating.
pub(crate) struct Queue {
    now: VecDeque<QueueEntry>,
    buckets: [Vec<QueueEntry>; 64],
    /// The largest empty buffer a spill has freed.
    spare: Vec<QueueEntry>,
    /// Bit `b` is set while `buckets[b]` is non-empty.
    occupied: u64,
    /// The instant of the entry popped last, in ns; no entry is earlier.
    last: u64,
}

impl Default for Queue {
    fn default() -> Self {
        Queue {
            now: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            spare: Vec::new(),
            occupied: 0,
            last: 0,
        }
    }
}

/// The bucket of time `t`: the highest bit where it differs from `last`,
/// which it is above.
fn bucket(t: u64, last: u64) -> usize {
    debug_assert!(t > last);
    (u64::BITS - 1 - (t ^ last).leading_zeros()) as usize
}

impl Queue {
    pub(crate) fn push(&mut self, time: SimTime, kind: EventKind) {
        let t = time.as_nanos();
        debug_assert!(t >= self.last, "event queue time went backwards");
        let entry = QueueEntry { time, kind };
        if t == self.last {
            self.now.push_back(entry);
        } else {
            let b = bucket(t, self.last);
            self.buckets[b].push(entry);
            self.occupied |= 1 << b;
        }
    }

    pub(crate) fn pop(&mut self) -> Option<QueueEntry> {
        if let Some(entry) = self.now.pop_front() {
            return Some(entry);
        }
        if self.occupied == 0 {
            return None;
        }
        let b = self.occupied.trailing_zeros() as usize;
        self.occupied &= !(1 << b);
        if self.buckets[b].len() > 1 {
            return self.spill(b);
        }
        let entry = self.buckets[b].pop()?;
        self.last = entry.time.as_nanos();
        Some(entry)
    }

    /// Empty bucket `b`, of several entries, in order: `last` becomes its
    /// earliest time, the first entry at it is returned, the others at it
    /// go to `now` and the rest to lower buckets.
    ///
    /// `now` and the buckets below `b` are empty, `b` being the lowest
    /// occupied one. The latest entries are often a crowd of one instant
    /// (timers set for one deadline) that moves down the buckets as a
    /// group, so buffers follow it rather than each bucket growing its own:
    /// a bucket of one instant hands its buffer to `now`; otherwise the
    /// bucket taking the latest entries, if it lacks room for the whole
    /// spill, takes `spare` (the largest buffer a spill has freed) and then
    /// the room.
    fn spill(&mut self, b: usize) -> Option<QueueEntry> {
        let (mut last, mut latest) = (u64::MAX, 0);
        for entry in &self.buckets[b] {
            let t = entry.time.as_nanos();
            (last, latest) = (last.min(t), latest.max(t));
        }
        self.last = last;
        if latest == last {
            let mut crowd = VecDeque::from(std::mem::take(&mut self.buckets[b]));
            let first = crowd.pop_front();
            self.buckets[b] = Vec::from(std::mem::replace(&mut self.now, crowd));
            return first;
        }
        let n = self.buckets[b].len();
        let (lower, upper) = self.buckets.split_at_mut(b);
        let (to, from) = (&mut lower[bucket(latest, last)], &mut upper[0]);
        if to.capacity() < n {
            if to.capacity() < self.spare.capacity() {
                std::mem::swap(to, &mut self.spare);
            }
            to.reserve(n);
        }
        // The rest agree with `last` above bit `b`: each goes to a lower
        // bucket.
        let mut first = None;
        for entry in from.drain(..) {
            let t = entry.time.as_nanos();
            if t != last {
                let to = bucket(t, last);
                lower[to].push(entry);
                self.occupied |= 1 << to;
            } else if first.is_none() {
                first = Some(entry);
            } else {
                self.now.push_back(entry);
            }
        }
        if from.capacity() > self.spare.capacity() {
            std::mem::swap(from, &mut self.spare);
        }
        first
    }
}

/// The capabilities an [`Event`] has while it is firing.
///
/// Only the scheduler constructs an `EventCtx`; events cannot block, so
/// everything here completes inline at the current instant.
pub struct EventCtx<'a> {
    pub(crate) now: SimTime,
    pub(crate) queue: &'a mut Queue,
    pub(crate) wakes: &'a mut Vec<Pid>,
}

impl EventCtx<'_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule another event `delay` after the current instant.
    pub fn schedule(&mut self, delay: SimTime, event: Event) {
        self.queue.push(self.now + delay, EventKind::Fire(event));
    }

    /// Schedule a closure `delay` after the current instant.
    pub fn schedule_fn<F>(&mut self, delay: SimTime, f: F)
    where
        F: FnOnce(&mut EventCtx<'_>) + 'static,
    {
        self.schedule(delay, Event::new(f));
    }

    /// Wake a blocked process at the current instant: its resume is queued
    /// when this event returns, behind everything the event scheduled. A
    /// wake targeting a process that is not blocked is ignored (this makes wake-ups idempotent
    /// and tolerant of races between multiple deliveries at one instant).
    pub fn wake(&mut self, pid: Pid) {
        self.wakes.push(pid);
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use rand::Rng;

    use super::*;

    fn resume(i: usize) -> EventKind {
        EventKind::Resume(Pid(i as u32))
    }

    fn id(entry: &QueueEntry) -> u32 {
        match entry.kind {
            EventKind::Resume(Pid(i)) => i,
            EventKind::Fire(_) => unreachable!("the tests queue resumes only"),
        }
    }

    #[test]
    fn queue_entry_orders_by_time_then_seq() {
        // Pushed at 2, 1, 1 ms, then 1 ms again once the first 1 ms entry
        // has popped (into `now`, not a bucket): the three at 1 ms leave in
        // push order, then the one at 2 ms.
        let mut queue = Queue::default();
        queue.push(SimTime::from_millis(2), resume(0));
        queue.push(SimTime::from_millis(1), resume(1));
        queue.push(SimTime::from_millis(1), resume(2));
        assert_eq!(queue.pop().map(|e| id(&e)), Some(1));
        queue.push(SimTime::from_millis(1), resume(3));
        let order: Vec<u32> = std::iter::from_fn(|| queue.pop()).map(|e| id(&e)).collect();
        assert_eq!(order, vec![2, 3, 0]);
    }

    #[test]
    fn heap_pops_earliest_first() {
        let mut queue = Queue::default();
        for (i, ms) in [3, 1, 2, 1].into_iter().enumerate() {
            queue.push(SimTime::from_millis(ms), resume(i));
        }
        let order: Vec<(u64, u32)> = std::iter::from_fn(|| queue.pop())
            .map(|e| (e.time.as_nanos() / 1_000_000, id(&e)))
            .collect();
        assert_eq!(order, vec![(1, 1), (1, 3), (2, 2), (3, 0)]);
    }

    /// Drives the queue and a `BinaryHeap` model through one interleaving
    /// of `ops` pushes and pops, `push_share` of them pushes, and checks
    /// that both pop the same `(time, seq)` sequence. Delays are drawn so
    /// that each regime occurs: zero, a few ns, a long hop, and all the way
    /// to within a few ns of `SimTime::MAX`. Returns the most entries
    /// pending at once.
    fn matches_the_model(rng: &mut rand::rngs::StdRng, ops: usize, push_share: f64) -> usize {
        let mut queue = Queue::default();
        let mut model = BinaryHeap::new();
        let (mut now, mut seq, mut peak) = (0u64, 0u32, 0);
        for _ in 0..ops {
            if rng.gen_bool(push_share) {
                let room = u64::MAX - now;
                let delay = match rng.gen_range(0..8) {
                    0..=2 => 0,
                    3 | 4 => rng.gen_range(0..=room.min(4)),
                    5 => rng.gen_range(0..=room.min(1 << 40)),
                    6 => room - rng.gen_range(0..=room.min(3)),
                    _ => rng.gen_range(0..=room),
                };
                queue.push(SimTime::from_nanos(now + delay), resume(seq as usize));
                model.push(Reverse((now + delay, seq)));
                seq += 1;
                peak = peak.max(model.len());
            } else {
                let want = model.pop().map(|Reverse(at)| at);
                let got = queue.pop().map(|e| (e.time.as_nanos(), id(&e)));
                assert_eq!(got, want);
                if let Some((t, _)) = got {
                    now = t;
                }
            }
        }
        while let Some(Reverse(want)) = model.pop() {
            let got = queue.pop().map(|e| (e.time.as_nanos(), id(&e)));
            assert_eq!(got, Some(want));
        }
        assert!(queue.pop().is_none(), "the queue outlived its model");
        peak
    }

    #[test]
    fn radix_queue_pops_like_a_binary_heap() {
        // Short runs that drain to empty and refill many times; balanced
        // runs; and runs that build up a backlog before draining it.
        let mut peaks = Vec::new();
        rand::for_each_case(300, |rng| {
            let share = [0.3, 0.5, 0.7][rng.gen_range(0..3usize)];
            let ops = rng.gen_range(1..=600);
            peaks.push(matches_the_model(rng, ops, share));
        });
        assert!(peaks.contains(&1) && peaks.iter().any(|&p| p > 200));
    }

    #[test]
    fn radix_queue_pops_like_a_binary_heap_at_depth() {
        rand::for_each_case(2, |rng| {
            let peak = matches_the_model(rng, 150_000, 0.75);
            assert!(peak >= 60_000, "peaked at {peak}");
        });
        // Many entries at the instant popped last, and a crowd at one later
        // instant that shares its bucket with an earlier entry, so it moves
        // down the buckets as a group before it reaches `now`.
        let mut queue = Queue::default();
        queue.push(SimTime::from_nanos(5), resume(0));
        assert_eq!(queue.pop().map(|e| id(&e)), Some(0));
        for i in 1..=50_000 {
            queue.push(SimTime::from_nanos((1 << 20) + 1000), resume(i));
            queue.push(SimTime::from_nanos(5), resume(100_000 + i));
        }
        for (i, t) in [(1, 1 << 10), (2, 1 << 15), (3, 1 << 20)] {
            queue.push(SimTime::from_nanos(t), resume(200_000 + i));
        }
        let ids: Vec<u32> = std::iter::from_fn(|| queue.pop()).map(|e| id(&e)).collect();
        let want = (100_001..=150_000)
            .chain(200_001..=200_003)
            .chain(1..=50_000);
        assert!(ids.iter().copied().eq(want));
    }
}
