//! Likelihood weighting — the standard successor to logic sampling (Pearl
//! [15] discusses both). Instead of rejecting samples whose evidence
//! variables disagree, evidence nodes are *clamped* and each sample is
//! weighted by the likelihood of the evidence under its parents. Far more
//! efficient under unlikely evidence; provided as a library extension and
//! as a correctness cross-check for the rejection sampler.

use nscc_sim::SimTime;

use crate::cost::BayesCost;
use crate::network::{BeliefNetwork, Value};
use crate::sampling::{node_draw, Query, StopRule};

/// Weighted tally over the query values.
#[derive(Debug, Clone)]
pub struct WeightedTally {
    /// Total weight per query value.
    pub weights: Vec<f64>,
    /// Sum of squared weights (for the effective-sample-size CI).
    pub weight_sq_sum: f64,
    /// Samples drawn.
    pub drawn: u64,
}

impl WeightedTally {
    /// An empty tally for a query of the given arity.
    pub fn new(arity: usize) -> Self {
        WeightedTally {
            weights: vec![0.0; arity],
            weight_sq_sum: 0.0,
            drawn: 0,
        }
    }

    /// Total weight accumulated.
    pub fn total(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// Posterior estimate (uniform until weight arrives).
    pub fn estimate(&self) -> Vec<f64> {
        let t = self.total();
        if t <= 0.0 {
            vec![1.0 / self.weights.len() as f64; self.weights.len()]
        } else {
            self.weights.iter().map(|w| w / t).collect()
        }
    }

    /// Kish effective sample size: `(Σw)² / Σw²`.
    pub fn effective_samples(&self) -> f64 {
        if self.weight_sq_sum <= 0.0 {
            0.0
        } else {
            let t = self.total();
            t * t / self.weight_sq_sum
        }
    }

    /// CI-based convergence on the effective sample size.
    pub fn converged(&self, rule: &StopRule) -> bool {
        let ess = self.effective_samples();
        if ess < rule.min_accepted as f64 {
            return false;
        }
        self.estimate()
            .iter()
            .all(|&p| rule.z * (p * (1.0 - p) / ess).sqrt() <= rule.halfwidth)
    }
}

/// Result of a likelihood-weighting run.
#[derive(Debug, Clone)]
pub struct LwResult {
    /// Posterior estimate.
    pub posterior: Vec<f64>,
    /// Samples drawn.
    pub samples: u64,
    /// Effective sample size at the end.
    pub effective_samples: f64,
    /// Virtual CPU time under the cost model.
    pub time: SimTime,
}

/// Draw one likelihood-weighted sample: evidence nodes are clamped, every
/// other node is forward-sampled, and the returned weight is the product
/// of the evidence likelihoods. Uses the same counter-based draws as the
/// rejection sampler (clamped nodes simply skip their draw).
pub fn weighted_sample(
    net: &BeliefNetwork,
    query: &Query,
    seed: u64,
    iter: u64,
    out: &mut Vec<Value>,
) -> f64 {
    out.clear();
    out.resize(net.len(), 0);
    let mut weight = 1.0;
    for idx in 0..net.len() {
        if let Some(&(_, v)) = query.evidence.iter().find(|&&(n, _)| n == idx) {
            out[idx] = v;
            weight *= net.cpt_row(idx, out)[v as usize];
        } else {
            let u = node_draw(seed, idx, iter);
            out[idx] = net.sample_node(idx, out, u);
        }
    }
    weight
}

/// Sequential likelihood-weighting inference with the §4.3-style stopping
/// rule applied to the effective sample size.
pub fn likelihood_weighting(
    net: &BeliefNetwork,
    query: &Query,
    rule: &StopRule,
    cost: &BayesCost,
    seed: u64,
    max_samples: u64,
) -> LwResult {
    use rand::SeedableRng;
    let mut cost_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xC057_0002);
    let mut tally = WeightedTally::new(net.node(query.node).arity);
    let mut time = SimTime::ZERO;
    let mut sample = Vec::new();
    let check = 64;
    let mut iter = 0u64;
    while iter < max_samples {
        iter += 1;
        let w = weighted_sample(net, query, seed, iter, &mut sample);
        tally.drawn += 1;
        tally.weights[sample[query.node] as usize] += w;
        tally.weight_sq_sum += w * w;
        time += cost.iteration_cost_jittered(net.len() as u64, &mut cost_rng);
        if iter.is_multiple_of(check) && tally.converged(rule) {
            break;
        }
    }
    LwResult {
        posterior: tally.estimate(),
        samples: tally.drawn,
        effective_samples: tally.effective_samples(),
        time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_posterior;
    use crate::examples::{fig1, figure1};
    use crate::sampling::sequential_inference;

    fn query() -> Query {
        Query {
            node: fig1::A,
            evidence: vec![(fig1::D, 1)],
        }
    }

    #[test]
    fn matches_exact_posterior() {
        let net = figure1();
        let exact = exact_posterior(&net, query().node, &query().evidence);
        let lw = likelihood_weighting(
            &net,
            &query(),
            &StopRule::default(),
            &BayesCost::deterministic(),
            3,
            5_000_000,
        );
        for (e, p) in exact.iter().zip(&lw.posterior) {
            assert!((e - p).abs() < 0.02, "{:?} vs {exact:?}", lw.posterior);
        }
    }

    #[test]
    fn agrees_with_rejection_sampling() {
        let net = figure1();
        let rule = StopRule::default();
        let cost = BayesCost::deterministic();
        let lw = likelihood_weighting(&net, &query(), &rule, &cost, 5, 5_000_000);
        let rej = sequential_inference(&net, &query(), &rule, &cost, 5, 5_000_000);
        for (a, b) in lw.posterior.iter().zip(&rej.posterior) {
            assert!((a - b).abs() < 0.03);
        }
    }

    #[test]
    fn beats_rejection_under_unlikely_evidence() {
        // Evidence C=true has prior ~0.08: rejection throws away ~92% of
        // its samples, LW keeps them all (weighted).
        let net = figure1();
        let hard = Query {
            node: fig1::A,
            evidence: vec![(fig1::C, 1)],
        };
        let rule = StopRule::default();
        let cost = BayesCost::deterministic();
        let lw = likelihood_weighting(&net, &hard, &rule, &cost, 7, 10_000_000);
        let rej = sequential_inference(&net, &hard, &rule, &cost, 7, 10_000_000);
        assert!(
            lw.samples * 2 < rej.samples,
            "LW needed {} draws, rejection {}",
            lw.samples,
            rej.samples
        );
    }

    #[test]
    fn clamped_nodes_keep_their_evidence_values() {
        let net = figure1();
        let mut s = Vec::new();
        for i in 1..50 {
            let w = weighted_sample(&net, &query(), 9, i, &mut s);
            assert_eq!(s[fig1::D], 1);
            assert!((0.0..=1.0).contains(&w));
        }
    }

    #[test]
    fn effective_sample_size_is_sane() {
        let mut t = WeightedTally::new(2);
        // Uniform weights: ESS == n.
        for _ in 0..100 {
            t.weights[0] += 1.0;
            t.weight_sq_sum += 1.0;
        }
        assert!((t.effective_samples() - 100.0).abs() < 1e-9);
        // One dominant weight collapses the ESS.
        t.weights[1] += 1000.0;
        t.weight_sq_sum += 1000.0 * 1000.0;
        assert!(t.effective_samples() < 2.0);
    }
}
