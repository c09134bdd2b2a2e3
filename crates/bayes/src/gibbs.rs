//! Gibbs sampling — the third classic approximate-inference method (after
//! logic sampling and likelihood weighting), provided as a library
//! extension and cross-check. Evidence nodes are clamped; every other
//! node is repeatedly resampled from its full conditional, which for a
//! belief network is determined by its Markov blanket (parents, children,
//! children's parents).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use nscc_sim::SimTime;

use crate::cost::BayesCost;
use crate::network::{BeliefNetwork, NodeIdx, Value};
use crate::sampling::{Query, StopRule, Tally};

/// Result of a Gibbs-sampling run.
#[derive(Debug, Clone)]
pub struct GibbsResult {
    /// Posterior estimate for the query node.
    pub posterior: Vec<f64>,
    /// Sweeps performed (each sweep resamples every non-evidence node).
    pub sweeps: u64,
    /// Virtual CPU time under the cost model.
    pub time: SimTime,
}

/// The unnormalized full conditional of `idx` given the rest of
/// `assignment`: `p(x_idx | markov blanket) ∝ p(x_idx | parents) × Π_c
/// p(x_c | parents(c))` over children `c`.
fn full_conditional(
    net: &BeliefNetwork,
    children: &[Vec<NodeIdx>],
    idx: NodeIdx,
    assignment: &mut [Value],
) -> Vec<f64> {
    let arity = net.node(idx).arity;
    let mut weights = Vec::with_capacity(arity);
    let saved = assignment[idx];
    for v in 0..arity {
        assignment[idx] = v as Value;
        let mut w = net.cpt_row(idx, assignment)[v];
        for &c in &children[idx] {
            w *= net.cpt_row(c, assignment)[assignment[c] as usize];
        }
        weights.push(w);
    }
    assignment[idx] = saved;
    weights
}

/// Run Gibbs sampling until the CI stopping rule fires on the query
/// posterior (counting one tally entry per sweep after burn-in) or
/// `max_sweeps` elapse.
pub fn gibbs_inference(
    net: &BeliefNetwork,
    query: &Query,
    rule: &StopRule,
    cost: &BayesCost,
    seed: u64,
    max_sweeps: u64,
) -> GibbsResult {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x61BB5);
    let mut cost_rng = StdRng::seed_from_u64(seed ^ 0xC057_0003);
    let children = net.children();
    let n = net.len();

    // Initial state: forward sample, then clamp evidence.
    let mut state: Vec<Value> = vec![0; n];
    for idx in 0..n {
        let u: f64 = rng.gen();
        state[idx] = net.sample_node(idx, &state, u);
    }
    for &(e, v) in &query.evidence {
        state[e] = v;
    }
    let evidence_mask: Vec<bool> = {
        let mut m = vec![false; n];
        for &(e, _) in &query.evidence {
            m[e] = true;
        }
        m
    };

    let burn_in = (max_sweeps / 20).clamp(50, 2000);
    let mut tally = Tally::new(net.node(query.node).arity);
    let mut time = SimTime::ZERO;
    let check = 64;
    let mut sweep = 0u64;
    while sweep < max_sweeps {
        sweep += 1;
        for idx in 0..n {
            if evidence_mask[idx] {
                continue;
            }
            let weights = full_conditional(net, &children, idx, &mut state);
            let total: f64 = weights.iter().sum();
            let mut t = rng.gen::<f64>() * total;
            let mut chosen = weights.len() - 1;
            for (v, &w) in weights.iter().enumerate() {
                t -= w;
                if t <= 0.0 {
                    chosen = v;
                    break;
                }
            }
            state[idx] = chosen as Value;
        }
        // A Gibbs sweep touches each node's Markov blanket: charge ~2x a
        // forward pass.
        time += cost.iteration_cost_jittered(2 * n as u64, &mut cost_rng);
        if sweep > burn_in {
            tally.drawn += 1;
            tally.counts[state[query.node] as usize] += 1;
            if sweep.is_multiple_of(check) && tally.converged(rule) {
                break;
            }
        }
    }
    GibbsResult {
        posterior: tally.estimate(),
        sweeps: sweep,
        time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_posterior;
    use crate::examples::{fig1, figure1};

    #[test]
    fn matches_exact_posterior_on_figure1() {
        let net = figure1();
        let query = Query {
            node: fig1::A,
            evidence: vec![(fig1::D, 1)],
        };
        let exact = exact_posterior(&net, query.node, &query.evidence);
        let res = gibbs_inference(
            &net,
            &query,
            &StopRule::default(),
            &BayesCost::deterministic(),
            11,
            4_000_000,
        );
        // Gibbs samples are autocorrelated, so the nominal CI understates
        // the error; allow a wider band than the independent samplers.
        for (e, p) in exact.iter().zip(&res.posterior) {
            assert!(
                (e - p).abs() < 0.05,
                "gibbs {:?} vs exact {exact:?}",
                res.posterior
            );
        }
    }

    #[test]
    fn evidence_stays_clamped() {
        let net = figure1();
        let query = Query {
            node: fig1::B,
            evidence: vec![(fig1::A, 1), (fig1::E, 0)],
        };
        // Posterior must be consistent with p(B | A=1) reasoning: with A
        // true, B is likely true.
        let exact = exact_posterior(&net, query.node, &query.evidence);
        let res = gibbs_inference(
            &net,
            &query,
            &StopRule::default(),
            &BayesCost::deterministic(),
            5,
            2_000_000,
        );
        assert!((exact[1] - res.posterior[1]).abs() < 0.05);
        assert!(res.posterior[1] > 0.5);
    }

    #[test]
    fn full_conditional_normalizes_to_cpt_for_leaf_nodes() {
        let net = figure1();
        let children = net.children();
        // E is a leaf: its full conditional is exactly p(E | C).
        let mut asg = vec![0u8; net.len()];
        asg[fig1::C] = 1;
        let w = full_conditional(&net, &children, fig1::E, &mut asg);
        let total: f64 = w.iter().sum();
        let norm: Vec<f64> = w.iter().map(|x| x / total).collect();
        let row = net.cpt_row(fig1::E, &asg);
        for (a, b) in norm.iter().zip(row) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let net = figure1();
        let query = Query {
            node: fig1::A,
            evidence: vec![],
        };
        let r = |s| {
            gibbs_inference(
                &net,
                &query,
                &StopRule::default(),
                &BayesCost::deterministic(),
                s,
                50_000,
            )
        };
        let (a, b) = (r(3), r(3));
        assert_eq!(a.posterior, b.posterior);
        assert_eq!(a.sweeps, b.sweeps);
    }
}
