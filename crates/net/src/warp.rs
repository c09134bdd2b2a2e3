//! The *warp* network-load metric (§4.3 of the paper, after Park [14]).
//!
//! A warp sample at node *i* with respect to node *j* is the ratio of the
//! difference in **arrival** times of two consecutive messages from *j* to
//! the difference in their **send** times. Warp ≈ 1 means stable network
//! load; warp ≫ 1 means latency is growing, i.e. the network is loading up.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use nscc_sim::SimTime;

use crate::medium::NodeId;

#[derive(Default)]
struct WarpState {
    /// Last (send_time, arrival_time) seen per (receiver, sender) pair.
    last: HashMap<(NodeId, NodeId), (SimTime, SimTime)>,
    samples: Vec<f64>,
}

/// Collects warp samples across all receiver/sender pairs of one run.
#[derive(Clone, Default)]
pub struct WarpMeter {
    state: Rc<RefCell<WarpState>>,
}

impl WarpMeter {
    /// An empty meter.
    pub fn new() -> Self {
        WarpMeter::default()
    }

    /// Record a message from `sender` observed at `receiver`, stamped with
    /// its original `send_time` and its `arrival_time`. Produces one warp
    /// sample per consecutive pair from the same sender; the sample (if
    /// any) is returned so callers can forward it to an observability sink.
    pub fn observe(
        &self,
        receiver: NodeId,
        sender: NodeId,
        send_time: SimTime,
        arrival_time: SimTime,
    ) -> Option<f64> {
        let mut st = self.state.borrow_mut();
        let key = (receiver, sender);
        if let Some((prev_send, prev_arrival)) = st.last.insert(key, (send_time, arrival_time)) {
            let ds = send_time.saturating_sub(prev_send).as_secs_f64();
            let da = arrival_time.saturating_sub(prev_arrival).as_secs_f64();
            if ds > 0.0 {
                let sample = da / ds;
                st.samples.push(sample);
                return Some(sample);
            }
        }
        None
    }

    /// Number of samples collected.
    pub fn len(&self) -> usize {
        self.state.borrow().samples.len()
    }

    /// True if no sample was collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mean warp over all samples (1.0 if no samples, i.e. "stable").
    pub fn mean(&self) -> f64 {
        let st = self.state.borrow();
        if st.samples.is_empty() {
            1.0
        } else {
            st.samples.iter().sum::<f64>() / st.samples.len() as f64
        }
    }

    /// The p-th percentile (0..=100) of warp samples.
    pub fn percentile(&self, p: f64) -> f64 {
        let st = self.state.borrow();
        if st.samples.is_empty() {
            return 1.0;
        }
        let mut v = st.samples.clone();
        v.sort_by(|a, b| a.partial_cmp(b).expect("warp samples are finite"));
        let idx = ((p / 100.0) * (v.len() - 1) as f64).round() as usize;
        v[idx.min(v.len() - 1)]
    }

    /// Largest warp sample.
    pub fn max(&self) -> f64 {
        let st = self.state.borrow();
        st.samples.iter().cloned().fold(1.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn stable_network_warp_is_one() {
        let m = WarpMeter::new();
        // Constant 5 ms latency: inter-arrival == inter-send.
        for i in 0..10u64 {
            m.observe(NodeId(1), NodeId(0), t(10 * i), t(10 * i + 5));
        }
        assert_eq!(m.len(), 9);
        assert!((m.mean() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn growing_latency_warp_exceeds_one() {
        let m = WarpMeter::new();
        // Latency grows 2 ms per message: arrivals spread out.
        for i in 0..10u64 {
            m.observe(NodeId(1), NodeId(0), t(10 * i), t(10 * i + 5 + 2 * i));
        }
        assert!(m.mean() > 1.0);
        assert!((m.mean() - 1.2).abs() < 1e-9);
    }

    #[test]
    fn shrinking_latency_warp_below_one() {
        let m = WarpMeter::new();
        for i in 0..5u64 {
            m.observe(NodeId(1), NodeId(0), t(10 * i), t(10 * i + 20 - 3 * i));
        }
        assert!(m.mean() < 1.0);
    }

    #[test]
    fn pairs_are_tracked_independently() {
        let m = WarpMeter::new();
        m.observe(NodeId(1), NodeId(0), t(0), t(5));
        m.observe(NodeId(1), NodeId(2), t(0), t(50));
        // No cross-pair sample yet.
        assert!(m.is_empty());
        m.observe(NodeId(1), NodeId(0), t(10), t(15));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn observe_returns_the_sample() {
        let m = WarpMeter::new();
        assert_eq!(m.observe(NodeId(1), NodeId(0), t(0), t(5)), None);
        let s = m.observe(NodeId(1), NodeId(0), t(10), t(15));
        assert_eq!(s, Some(1.0));
        // Same send time twice: no inter-send gap, no sample.
        assert_eq!(m.observe(NodeId(1), NodeId(0), t(10), t(16)), None);
    }

    #[test]
    fn percentile_and_max() {
        let m = WarpMeter::new();
        // Two samples: warp 1.0 then warp 3.0.
        m.observe(NodeId(1), NodeId(0), t(0), t(5));
        m.observe(NodeId(1), NodeId(0), t(10), t(15));
        m.observe(NodeId(1), NodeId(0), t(20), t(45));
        assert!((m.max() - 3.0).abs() < 1e-9);
        assert!((m.percentile(0.0) - 1.0).abs() < 1e-9);
        assert!((m.percentile(100.0) - 3.0).abs() < 1e-9);
    }
}
