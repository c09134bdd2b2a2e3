//! Execution spans: who ran when, who blocked on what, which phase.
//!
//! Absorbed from `nscc-sim`'s old `trace` module, with two changes: times
//! and pids are plain integers so any layer can record without depending on
//! the simulator, and labels are [`Label`]s (`Cow<'static, str>`) so the
//! DSM and application layers can emit dynamic per-location or per-island
//! labels without leaking.

use std::cell::RefCell;
use std::rc::Rc;

use nscc_ckpt::json::ToJson;

use crate::Label;

/// What a traced span represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, ToJson)]
pub enum SpanKind {
    /// Virtual CPU time (an `advance`).
    Compute,
    /// Blocked waiting for a message or condition.
    Blocked,
    /// Application-defined phase (e.g. "barrier", a blocked `Global_Read`).
    Phase,
}

/// One traced interval of a process's life. Times are virtual nanoseconds;
/// `pid` is the scheduler pid for [`SpanKind::Compute`]/[`SpanKind::Blocked`]
/// spans and the DSM rank for [`SpanKind::Phase`] spans.
#[derive(Debug, Clone, ToJson)]
pub struct Span {
    /// The process (or rank, for phase spans).
    pub pid: u32,
    /// Start of the interval (virtual ns).
    pub start_ns: u64,
    /// End of the interval (virtual ns).
    pub end_ns: u64,
    /// What the process was doing.
    pub kind: SpanKind,
    /// Free-form label.
    pub label: Label,
}

/// Spans kept before the sink starts counting drops instead.
const DEFAULT_SPAN_CAPACITY: usize = 1 << 20;

struct Inner {
    spans: Vec<Span>,
    dropped: u64,
    capacity: usize,
}

/// A shareable, bounded span sink.
#[derive(Clone)]
pub struct Trace {
    inner: Rc<RefCell<Inner>>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::with_capacity(DEFAULT_SPAN_CAPACITY)
    }
}

impl Trace {
    /// An empty trace with the default capacity.
    pub fn new() -> Self {
        Trace::default()
    }

    /// An empty trace that keeps at most `capacity` spans; further records
    /// only bump the drop counter (totals stay exact for kept spans only).
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            inner: Rc::new(RefCell::new(Inner {
                spans: Vec::new(),
                dropped: 0,
                capacity,
            })),
        }
    }

    /// Record a span.
    pub fn record(
        &self,
        pid: u32,
        start_ns: u64,
        end_ns: u64,
        kind: SpanKind,
        label: impl Into<Label>,
    ) {
        debug_assert!(end_ns >= start_ns, "span ends before it starts");
        let mut inner = self.inner.borrow_mut();
        if inner.spans.len() >= inner.capacity {
            inner.dropped += 1;
            return;
        }
        inner.spans.push(Span {
            pid,
            start_ns,
            end_ns,
            kind,
            label: label.into(),
        });
    }

    /// Number of spans recorded (and kept).
    pub fn len(&self) -> usize {
        self.inner.borrow().spans.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans dropped after the capacity was reached.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped
    }

    /// All spans, sorted by start time (clones; call once at the end).
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.inner.borrow().spans.clone();
        v.sort_by_key(|s| (s.start_ns, s.pid));
        v
    }

    /// Total time per kind for one process.
    pub fn totals(&self, pid: u32) -> TraceTotals {
        let inner = self.inner.borrow();
        let mut t = TraceTotals::default();
        for s in inner.spans.iter().filter(|s| s.pid == pid) {
            let d = s.end_ns.saturating_sub(s.start_ns);
            match s.kind {
                SpanKind::Compute => t.compute_ns += d,
                SpanKind::Blocked => t.blocked_ns += d,
                SpanKind::Phase => t.phase_ns += d,
            }
        }
        t
    }

    /// A compact utilization summary line per process (for examples).
    pub fn summary(&self, pids: &[u32]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for &pid in pids {
            let t = self.totals(pid);
            let total = t.compute_ns + t.blocked_ns + t.phase_ns;
            let util = if total > 0 {
                t.compute_ns as f64 / total as f64 * 100.0
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  pid {:>3}: compute {:>12}ns blocked {:>12}ns phase {:>12}ns (util {:>5.1}%)",
                pid, t.compute_ns, t.blocked_ns, t.phase_ns, util
            );
        }
        out
    }
}

/// Aggregated span durations for one process, in virtual nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceTotals {
    /// Total compute time.
    pub compute_ns: u64,
    /// Total blocked time.
    pub blocked_ns: u64,
    /// Total phase time.
    pub phase_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn records_and_totals() {
        let tr = Trace::new();
        tr.record(0, 0, 5 * MS, SpanKind::Compute, "gen");
        tr.record(0, 5 * MS, 8 * MS, SpanKind::Blocked, "read");
        tr.record(1, 0, 2 * MS, SpanKind::Compute, "gen");
        assert_eq!(tr.len(), 3);
        let p0 = tr.totals(0);
        assert_eq!(p0.compute_ns, 5 * MS);
        assert_eq!(p0.blocked_ns, 3 * MS);
        assert_eq!(tr.totals(1).compute_ns, 2 * MS);
    }

    #[test]
    fn spans_sorted_by_start() {
        let tr = Trace::new();
        tr.record(0, 7 * MS, 9 * MS, SpanKind::Phase, "b");
        tr.record(1, MS, 2 * MS, SpanKind::Phase, "a");
        let spans = tr.spans();
        assert_eq!(spans[0].label, "a");
        assert_eq!(spans[1].label, "b");
    }

    #[test]
    fn dynamic_labels_do_not_leak() {
        let tr = Trace::new();
        let loc = 3;
        tr.record(0, 0, MS, SpanKind::Phase, format!("Global_Read:best{loc}"));
        assert_eq!(tr.spans()[0].label, "Global_Read:best3");
    }

    #[test]
    fn capacity_drops_are_counted() {
        let tr = Trace::with_capacity(2);
        for i in 0..5 {
            tr.record(0, i * MS, (i + 1) * MS, SpanKind::Compute, "x");
        }
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.dropped(), 3);
    }

    #[test]
    fn summary_mentions_every_pid() {
        let tr = Trace::new();
        tr.record(2, 0, 4 * MS, SpanKind::Compute, "x");
        let s = tr.summary(&[2]);
        assert!(s.contains("pid   2"));
        assert!(s.contains("util 100.0%"));
    }
}
