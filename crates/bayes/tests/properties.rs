//! Property-based tests of the Bayes building blocks.

use proptest::prelude::*;
use std::sync::Arc;

use nscc_bayes::{
    evidence_matches, exact_posterior, figure1, forward_sample, node_draw, Plan, Query,
    RandomNetConfig, Tally, TABLE2,
};

proptest! {
    /// Counter-based draws are valid uniforms and a pure function of
    /// their identity.
    #[test]
    fn node_draw_is_pure_and_in_unit_interval(seed in any::<u64>(), node in 0usize..64, iter in 0u64..1_000_000) {
        let u = node_draw(seed, node, iter);
        prop_assert!((0.0..1.0).contains(&u));
        prop_assert_eq!(u, node_draw(seed, node, iter));
    }

    /// Forward samples always produce in-range values for every node.
    #[test]
    fn forward_samples_are_in_range(seed in any::<u64>(), iter in 1u64..10_000) {
        let net = figure1();
        let mut s = Vec::new();
        forward_sample(&net, seed, iter, &mut s);
        prop_assert_eq!(s.len(), net.len());
        for (v, node) in s.iter().zip(net.nodes()) {
            prop_assert!((*v as usize) < node.arity);
        }
    }

    /// Evidence matching is consistent with its definition.
    #[test]
    fn evidence_match_definition(seed in any::<u64>()) {
        let net = figure1();
        let mut s = Vec::new();
        forward_sample(&net, seed, 1, &mut s);
        prop_assert!(evidence_matches(&s, &[]));
        for n in 0..net.len() {
            prop_assert!(evidence_matches(&s, &[(n, s[n])]));
            prop_assert!(!evidence_matches(&s, &[(n, 1 - s[n])]));
        }
    }

    /// Random-network generation respects its configuration for any seed.
    #[test]
    fn random_network_respects_config(seed in any::<u64>(), edges in 30usize..90) {
        let cfg = RandomNetConfig {
            nodes: 40,
            edges,
            arity: 2,
            max_parents: 8,
            seed,
        };
        let net = nscc_bayes::random_network(&cfg);
        prop_assert_eq!(net.len(), 40);
        prop_assert_eq!(net.edge_count(), edges);
        for node in net.nodes() {
            prop_assert!(node.parents.len() <= 8);
        }
    }

    /// Plans cover every node exactly once and route every remote parent,
    /// for every Table 2 network and partition count.
    #[test]
    fn plans_are_complete(parts in 1usize..5, net_idx in 0usize..4, seed in 0u64..100) {
        let net = TABLE2[net_idx].build();
        let query = Query { node: net.len() - 1, evidence: vec![(0, 0)] };
        let plan = Plan::new(&net, parts, seed, &query);
        let mut count = vec![0usize; net.len()];
        for part in 0..parts {
            for v in plan.owned(part) {
                count[v] += 1;
            }
        }
        prop_assert!(count.iter().all(|&c| c == 1));
        for v in 0..net.len() {
            for &u in &net.node(v).parents {
                if plan.assign[u] != plan.assign[v] {
                    prop_assert!(plan.source_of(plan.assign[v], u).is_some());
                }
            }
        }
    }

    /// The tally's CI halfwidth shrinks monotonically in the sample count.
    #[test]
    fn tally_halfwidth_shrinks(p in 0.05f64..0.95) {
        let rule = nscc_bayes::StopRule::default();
        let mut prev = f64::INFINITY;
        for n in [200u64, 800, 3200, 12800] {
            let mut t = Tally::new(2);
            t.counts = vec![(p * n as f64) as u64, n - (p * n as f64) as u64];
            let hw = t.max_halfwidth(&rule);
            prop_assert!(hw <= prev);
            prev = hw;
        }
    }
}

/// Exact inference invariance: posteriors always normalize, on arbitrary
/// (small) evidence sets over the Figure 1 network.
proptest! {
    #[test]
    fn exact_posterior_normalizes(e1 in 0usize..5, v1 in 0u8..2) {
        let net = Arc::new(figure1());
        let query = 0;
        if e1 == query { return Ok(()); }
        let p = exact_posterior(&net, query, &[(e1, v1)]);
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }
}
