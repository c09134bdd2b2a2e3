//! Events: the unit of work on the virtual-time queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

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

/// An entry in the event queue; ordered by `(time, seq)` so ties are broken
/// deterministically by insertion order.
pub(crate) struct QueueEntry {
    pub time: SimTime,
    pub seq: u64,
    pub kind: EventKind,
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for QueueEntry {}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueueEntry {
    // Reversed: BinaryHeap is a max-heap and we want the earliest entry first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// The event queue: earliest `(time, seq)` first, `seq` handed out in push
/// order.
#[derive(Default)]
pub(crate) struct Queue {
    heap: BinaryHeap<QueueEntry>,
    seq: u64,
}

impl Queue {
    pub(crate) fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(QueueEntry { time, seq, kind });
    }

    pub(crate) fn pop(&mut self) -> Option<QueueEntry> {
        self.heap.pop()
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
    use super::*;

    #[test]
    fn queue_entry_orders_by_time_then_seq() {
        let a = QueueEntry {
            time: SimTime::from_millis(1),
            seq: 5,
            kind: EventKind::Resume(Pid(0)),
        };
        let b = QueueEntry {
            time: SimTime::from_millis(1),
            seq: 6,
            kind: EventKind::Resume(Pid(1)),
        };
        let c = QueueEntry {
            time: SimTime::from_millis(2),
            seq: 1,
            kind: EventKind::Resume(Pid(2)),
        };
        // Reversed ordering: earlier entries compare as Greater (max-heap head).
        assert!(a > b);
        assert!(b > c);
        assert!(a > c);
    }

    #[test]
    fn heap_pops_earliest_first() {
        let mut heap = BinaryHeap::new();
        for (t, s) in [(3u64, 0u64), (1, 1), (2, 2), (1, 0)] {
            heap.push(QueueEntry {
                time: SimTime::from_millis(t),
                seq: s,
                kind: EventKind::Resume(Pid(0)),
            });
        }
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| heap.pop())
            .map(|e| (e.time.as_nanos() / 1_000_000, e.seq))
            .collect();
        assert_eq!(order, vec![(1, 0), (1, 1), (2, 2), (3, 0)]);
    }
}
