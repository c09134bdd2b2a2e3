//! Harness-side tracing: one span around every call the benchmark makes
//! into a layer, and the deterministic counters read back at the same
//! boundaries. Spans stay in memory and are written out when the run
//! ends. With the tracer off (warm-up and timed passes) `span` is a plain
//! call and nothing is recorded.
//!
//! Spans come from the benchmark's own files only — spans inside the
//! simulator are a later change (ROADMAP item 1, `wall.layers`).

use std::collections::BTreeMap;
use std::time::Instant;

use nscc_obs::Hub;

/// One harness call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of this span in the trace.
    pub id: usize,
    /// The span that caused it (`None` for an op's root span).
    pub parent: Option<usize>,
    /// The op (cell / trial / tool pass) this span belongs to.
    pub op: usize,
    /// What was called (`core.ga_cell_f1`, `analyze.inspect`, …).
    pub name: &'static str,
    /// The crate the call went into.
    pub layer: &'static str,
    /// Host nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Host nanoseconds since the trace epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall nanoseconds inside the span.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span and counter recorder for one pass.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: usize,
    stack: Vec<usize>,
    spans: Vec<Span>,
    counters: BTreeMap<&'static str, f64>,
    /// Pass-level accumulator for the scheduler's wall-clock accounting:
    /// every traced op runs on its own hub and folds its `sched` totals
    /// in here (`Hub::adopt_sched`).
    pub sched: Hub,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
            sched: Hub::with_event_capacity(0),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    /// Whether this pass is traced (ops attach their hubs only then).
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Name the op the following spans belong to.
    pub fn set_op(&mut self, op: usize) {
        self.op = op;
    }

    /// Run `f` as a span; nested `span` calls on the handle passed to `f`
    /// become its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            op: self.op,
            name,
            layer,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Close the books after an op panicked inside a span: the spans it
    /// left open must not adopt the next op's spans as children.
    pub fn abandon_open_spans(&mut self) {
        self.stack.clear();
    }

    /// Rename the most recent span called `from` — for spans whose class
    /// (a clean trial or a watchdog-cut one) is known only once they end.
    pub fn retag(&mut self, from: &str, to: &'static str) {
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.name == from) {
            s.name = to;
        }
    }

    /// Add `v` to counter `name` (traced passes only).
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.counters.entry(name).or_insert(0.0) += v;
        }
    }

    /// Counter `name` so far (0 when never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Total self time (ms) of every span called `name`: its duration
    /// minus the part its direct children cover.
    pub fn self_ms(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns().saturating_sub(child_ns[s.id]) as f64 / 1e6)
            .sum()
    }

    /// The trace as a JSON array, one object per span.
    pub fn spans_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"layer\":\"{}\",\
                     \"start_ns\":{},\"end_ns\":{}}}",
                    s.id,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.op,
                    s.name,
                    s.layer,
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        format!("[{}]", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut tr = Tracer::on();
        tr.set_op(3);
        tr.span("outer", "perf", |tr| {
            tr.span("inner", "perf", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].op, 3);
        assert!(tr.self_ms("outer") < tr.durations_ms("outer")[0]);
        assert!(tr.self_ms("inner") >= 2.0);
        nscc_analyze::json::parse(&tr.spans_json()).expect("trace is valid JSON");
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut tr = Tracer::off();
        assert_eq!(tr.span("x", "perf", |_| 7), 7);
        tr.count("c", 1.0);
        assert!(tr.spans().is_empty());
        assert_eq!(tr.counter("c"), 0.0);
    }
}
