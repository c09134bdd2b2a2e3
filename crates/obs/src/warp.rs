//! Warp samples: every value of the paper's §4.3 warp metric a run saw.
//!
//! Warp is the ratio of inter-arrival to inter-send times of consecutive
//! messages on a (receiver, sender) pair — 1.0 on an unloaded network,
//! larger when contention stretches deliveries. `nscc-net`'s `WarpMeter`
//! computes the samples; when a hub is attached the message layer forwards
//! each sample here, so runs report the distribution of warp (mean, median,
//! p95, max), not just one mean.

use std::cell::RefCell;
use std::rc::Rc;

use nscc_ckpt::json::ToJson;
use nscc_ckpt::Snapshot;

/// Samples kept before the sink starts counting drops instead.
const DEFAULT_SAMPLE_CAPACITY: usize = 1 << 20;

struct Inner {
    points: Vec<f64>,
    dropped: u64,
    capacity: usize,
}

/// A shareable, bounded sink of warp samples.
#[derive(Clone)]
pub struct WarpTimeline {
    inner: Rc<RefCell<Inner>>,
}

impl Default for WarpTimeline {
    fn default() -> Self {
        WarpTimeline::with_capacity(DEFAULT_SAMPLE_CAPACITY)
    }
}

impl WarpTimeline {
    /// An empty timeline with the default capacity.
    pub fn new() -> Self {
        WarpTimeline::default()
    }

    /// An empty timeline keeping at most `capacity` samples.
    pub fn with_capacity(capacity: usize) -> Self {
        WarpTimeline {
            inner: Rc::new(RefCell::new(Inner {
                points: Vec::new(),
                dropped: 0,
                capacity,
            })),
        }
    }

    /// Record one warp sample. The virtual time it was observed at is not
    /// kept: the run reports the samples' distribution.
    pub fn record(&self, _t_ns: u64, warp: f64) {
        let mut inner = self.inner.borrow_mut();
        if inner.points.len() >= inner.capacity {
            inner.dropped += 1;
            return;
        }
        inner.points.push(warp);
    }

    /// Number of kept samples.
    pub fn len(&self) -> usize {
        self.inner.borrow().points.len()
    }

    /// True if no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Samples dropped after the capacity was reached.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped
    }

    /// Distribution summary of all kept samples.
    pub fn summary(&self) -> WarpSummary {
        let inner = self.inner.borrow();
        if inner.points.is_empty() {
            return WarpSummary::default();
        }
        let mut vals = inner.points.clone();
        vals.sort_by(|a, b| a.partial_cmp(b).expect("warp samples are finite"));
        let n = vals.len();
        let pick = |q: f64| vals[(((n - 1) as f64) * q).round() as usize];
        WarpSummary {
            samples: n as u64,
            mean: vals.iter().sum::<f64>() / n as f64,
            p50: pick(0.50),
            p95: pick(0.95),
            max: vals[n - 1],
        }
    }
}

/// Distribution summary of warp samples. `mean` is 1.0 when no samples
/// were recorded (no inter-message stretching observed).
#[derive(Debug, Clone, Copy, PartialEq, ToJson, Snapshot)]
pub struct WarpSummary {
    /// Number of samples.
    pub samples: u64,
    /// Mean warp.
    pub mean: f64,
    /// Median warp.
    pub p50: f64,
    /// 95th-percentile warp.
    pub p95: f64,
    /// Largest sample.
    pub max: f64,
}

impl Default for WarpSummary {
    fn default() -> Self {
        WarpSummary {
            samples: 0,
            mean: 1.0,
            p50: 1.0,
            p95: 1.0,
            max: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_unit_warp() {
        let w = WarpTimeline::new();
        assert!(w.is_empty());
        let s = w.summary();
        assert_eq!(s.samples, 0);
        assert_eq!(s.mean, 1.0);
    }

    #[test]
    fn summary_statistics() {
        let w = WarpTimeline::new();
        for (t, v) in [(0, 1.0), (10, 2.0), (20, 3.0)] {
            w.record(t, v);
        }
        let s = w.summary();
        assert_eq!(s.samples, 3);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.max, 3.0);
    }

    #[test]
    fn capacity_drops_are_counted() {
        let w = WarpTimeline::with_capacity(1);
        w.record(0, 1.0);
        w.record(1, 2.0);
        assert_eq!(w.len(), 1);
        assert_eq!(w.dropped(), 1);
    }
}
