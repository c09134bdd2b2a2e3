//! Logic sampling (Pearl [15] §3.2): forward sampling with rejection, the
//! counter-based random draws shared with the rollback engine, and the
//! 90%-confidence-interval stopping rule of §4.3.

use nscc_sim::SimTime;

use crate::cost::BayesCost;
use crate::network::{BeliefNetwork, NodeIdx, Value};

/// Deterministic counter-based uniform draw for `(seed, node, iter)`.
///
/// Rollback requires *reproducible* randomness: recomputing node `v` for
/// iteration `i` with corrected parent values must reuse the same
/// underlying draw, so the draw is a pure function of identity rather than
/// of generator state (SplitMix64 finalizer over the mixed key).
pub fn node_draw(seed: u64, node: NodeIdx, iter: u64) -> f64 {
    let z = rand::rngs::mix(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((node as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(iter.wrapping_mul(0x94D0_49BB_1331_11EB)),
    );
    // 53-bit mantissa to [0, 1).
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// An inference problem: estimate `p(query | evidence)`.
#[derive(Debug, Clone)]
pub struct Query {
    /// The query node.
    pub node: NodeIdx,
    /// Observed evidence as `(node, value)` pairs.
    pub evidence: Vec<(NodeIdx, Value)>,
}

/// The §4.3 stopping rule: a 90% confidence interval of half-width ≤ 0.01
/// on every entry of the posterior.
#[derive(Debug, Clone, Copy)]
pub struct StopRule {
    /// Normal z-score of the confidence level (1.645 for 90%).
    pub z: f64,
    /// Required CI half-width.
    pub halfwidth: f64,
    /// Minimum accepted samples before the rule may fire.
    pub min_accepted: u64,
}

impl Default for StopRule {
    fn default() -> Self {
        StopRule {
            z: 1.645,
            halfwidth: 0.01,
            min_accepted: 100,
        }
    }
}

/// Running tally of accepted samples per query value.
#[derive(Debug, Clone)]
pub struct Tally {
    /// Accepted-sample counts per query value.
    pub counts: Vec<u64>,
    /// Total samples drawn (accepted + rejected).
    pub drawn: u64,
}

impl nscc_ckpt::Snapshot for Tally {
    fn encode(&self, enc: &mut nscc_ckpt::Enc) {
        self.counts.encode(enc);
        enc.put_u64(self.drawn);
    }

    fn decode(dec: &mut nscc_ckpt::Dec<'_>) -> Result<Self, nscc_ckpt::CkptError> {
        let counts = Vec::<u64>::decode(dec)?;
        let drawn = dec.u64()?;
        if counts.is_empty() {
            return Err(nscc_ckpt::CkptError::Malformed(
                "tally with zero query arity".into(),
            ));
        }
        Ok(Tally { counts, drawn })
    }
}

impl Tally {
    /// An empty tally for a query node of the given arity.
    pub fn new(arity: usize) -> Self {
        Tally {
            counts: vec![0; arity],
            drawn: 0,
        }
    }

    /// Total accepted samples.
    pub fn accepted(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Current posterior estimate (uniform if nothing accepted yet).
    pub fn estimate(&self) -> Vec<f64> {
        let n = self.accepted();
        if n == 0 {
            vec![1.0 / self.counts.len() as f64; self.counts.len()]
        } else {
            self.counts.iter().map(|&c| c as f64 / n as f64).collect()
        }
    }

    /// Largest CI half-width over the posterior entries under `rule`.
    pub fn max_halfwidth(&self, rule: &StopRule) -> f64 {
        let n = self.accepted();
        if n < rule.min_accepted.max(1) {
            return f64::INFINITY;
        }
        let nf = n as f64;
        self.counts
            .iter()
            .map(|&c| {
                let p = c as f64 / nf;
                rule.z * (p * (1.0 - p) / nf).sqrt()
            })
            .fold(0.0, f64::max)
    }

    /// Whether the stopping rule is satisfied.
    pub fn converged(&self, rule: &StopRule) -> bool {
        self.max_halfwidth(rule) <= rule.halfwidth
    }
}

/// Result of a sequential logic-sampling run.
#[derive(Debug, Clone)]
pub struct SeqResult {
    /// Posterior estimate.
    pub posterior: Vec<f64>,
    /// Samples drawn.
    pub samples: u64,
    /// Samples accepted (evidence matched).
    pub accepted: u64,
    /// Virtual CPU time of the run under the cost model.
    pub time: SimTime,
}

/// Draw one full forward sample of the network for iteration `iter`,
/// writing values into `out` (resized as needed).
pub fn forward_sample(net: &BeliefNetwork, seed: u64, iter: u64, out: &mut Vec<Value>) {
    out.clear();
    out.resize(net.len(), 0);
    for idx in 0..net.len() {
        let u = node_draw(seed, idx, iter);
        out[idx] = net.sample_node(idx, out, u);
    }
}

/// True when `sample` matches every evidence observation.
pub fn evidence_matches(sample: &[Value], evidence: &[(NodeIdx, Value)]) -> bool {
    evidence.iter().all(|&(n, v)| sample[n] == v)
}

/// The sequential logic-sampling program (the paper's uniprocessor
/// baseline, Table 2). Runs until the stop rule fires or `max_samples`.
/// The cost model's jitter/hiccup hazard applies (seeded by `seed`), so
/// the baseline runs on the same kind of node as the parallel versions.
pub fn sequential_inference(
    net: &BeliefNetwork,
    query: &Query,
    rule: &StopRule,
    cost: &BayesCost,
    seed: u64,
    max_samples: u64,
) -> SeqResult {
    use rand::SeedableRng;
    let mut cost_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xC057_0001);
    let mut tally = Tally::new(net.node(query.node).arity);
    let mut time = SimTime::ZERO;
    let mut sample = Vec::new();
    // Convergence is only re-checked every `check` samples, as a real
    // implementation would (the CI math is not free).
    let check = 64;
    let mut iter = 0u64;
    while iter < max_samples {
        iter += 1;
        forward_sample(net, seed, iter, &mut sample);
        tally.drawn += 1;
        time += cost.iteration_cost_jittered(net.len() as u64, &mut cost_rng);
        if evidence_matches(&sample, &query.evidence) {
            tally.counts[sample[query.node] as usize] += 1;
        }
        if iter.is_multiple_of(check) && tally.converged(rule) {
            break;
        }
    }
    SeqResult {
        posterior: tally.estimate(),
        samples: tally.drawn,
        accepted: tally.accepted(),
        time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_posterior;
    use crate::examples::{fig1, figure1};

    #[test]
    fn tally_snapshot_roundtrip_is_byte_identical() {
        let mut t = Tally::new(3);
        t.counts = vec![5, 0, 12];
        t.drawn = 40;
        let bytes = nscc_ckpt::to_bytes(&t);
        assert_eq!(
            (nscc_ckpt::CKPT_VERSION, nscc_ckpt::fnv1a(&bytes)),
            (2, 0x6ad4_3c5d_6652_4b87),
            "the checkpoint layout moved: bump CKPT_VERSION and pin the new pair"
        );
        let back: Tally = nscc_ckpt::from_bytes(&bytes).unwrap();
        assert_eq!(back.counts, t.counts);
        assert_eq!(back.drawn, t.drawn);
        assert_eq!(nscc_ckpt::to_bytes(&back), bytes);
        // Zero-arity tallies are rejected rather than decoded into a
        // divide-by-zero time bomb in estimate().
        let empty = nscc_ckpt::to_bytes(&Tally {
            counts: Vec::new(),
            drawn: 0,
        });
        assert!(nscc_ckpt::from_bytes::<Tally>(&empty).is_err());
    }

    #[test]
    fn node_draw_is_deterministic_and_uniform_ish() {
        assert_eq!(node_draw(1, 2, 3), node_draw(1, 2, 3));
        assert_ne!(node_draw(1, 2, 3), node_draw(1, 2, 4));
        assert_ne!(node_draw(1, 2, 3), node_draw(1, 3, 3));
        let n = 50_000;
        let mean: f64 = (0..n).map(|i| node_draw(9, 0, i)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn sampler_matches_exact_posterior() {
        let net = figure1();
        let query = Query {
            node: fig1::A,
            evidence: vec![(fig1::D, 1)],
        };
        let exact = exact_posterior(&net, query.node, &query.evidence);
        let res = sequential_inference(
            &net,
            &query,
            &StopRule::default(),
            &BayesCost::deterministic(),
            7,
            2_000_000,
        );
        for (e, s) in exact.iter().zip(&res.posterior) {
            assert!(
                (e - s).abs() < 0.03,
                "sampled {:?} vs exact {:?}",
                res.posterior,
                exact
            );
        }
        assert!(res.accepted >= 100);
    }

    #[test]
    fn stop_rule_fires_before_the_cap() {
        let net = figure1();
        let query = Query {
            node: fig1::A,
            evidence: vec![],
        };
        let res = sequential_inference(
            &net,
            &query,
            &StopRule::default(),
            &BayesCost::deterministic(),
            1,
            10_000_000,
        );
        assert!(res.samples < 10_000_000, "CI rule should stop the run");
        // CI at the stop: halfwidth <= 0.01 needs roughly n >= 1.645^2 * p(1-p)/0.01^2.
        assert!(res.accepted >= 4000);
    }

    #[test]
    fn tally_ci_math() {
        let rule = StopRule::default();
        let mut t = Tally::new(2);
        assert!(!t.converged(&rule));
        // p = 0.5 with n accepted: halfwidth = 1.645 * 0.5 / sqrt(n).
        t.counts = vec![5000, 5000];
        let hw = t.max_halfwidth(&rule);
        assert!((hw - 1.645 * 0.5 / 10_000f64.sqrt()).abs() < 1e-12);
        assert!(t.converged(&rule));
    }

    #[test]
    fn rejection_respects_evidence() {
        let net = figure1();
        let mut s = Vec::new();
        forward_sample(&net, 3, 1, &mut s);
        assert_eq!(s.len(), 5);
        assert!(evidence_matches(&s, &[]));
        assert!(evidence_matches(&s, &[(0, s[0])]));
        assert!(!evidence_matches(&s, &[(0, 1 - s[0])]));
    }

    #[test]
    fn time_scales_with_samples_and_network_size() {
        let cost = BayesCost::deterministic();
        let net = figure1();
        let query = Query {
            node: fig1::A,
            evidence: vec![],
        };
        let short = sequential_inference(&net, &query, &StopRule::default(), &cost, 1, 100);
        let long = sequential_inference(&net, &query, &StopRule::default(), &cost, 1, 200);
        assert_eq!(short.samples, 100);
        assert_eq!(long.samples, 200);
        assert_eq!(long.time, short.time * 2);
    }
}
