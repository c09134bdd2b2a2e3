//! Belief-network generators reproducing Table 2's benchmark networks.
//!
//! A, AA and C follow the paper's recipe [12] — random graphs on 54 binary
//! nodes with a prescribed edge density. The real Hailfinder network is
//! proprietary-ish (the paper itself says most real networks are and uses
//! mostly synthetic ones); `hailfinder_like` reproduces its *published
//! statistics*: 56 nodes, 1.2 edges/node, 4 values/node, and a structure
//! whose balanced bisection cuts only ~4 edges (two loosely coupled
//! halves).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::network::{BeliefNetwork, Node};

/// Parameters for a random DAG network.
#[derive(Debug, Clone)]
pub struct RandomNetConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of directed edges.
    pub edges: usize,
    /// Arity of every node.
    pub arity: usize,
    /// Cap on parents per node (bounds CPT size).
    pub max_parents: usize,
    /// RNG seed.
    pub seed: u64,
}

/// The four Table 2 benchmark networks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Table2Net {
    /// Random, 54 nodes, 2.2 edges/node, binary.
    A,
    /// Random, 54 nodes, 2.4 edges/node, binary.
    Aa,
    /// Random, 54 nodes, 2.0 edges/node, binary.
    C,
    /// Hailfinder-like: 56 nodes, 1.2 edges/node, 4 values/node.
    Hailfinder,
}

/// All four networks in Table 2 order.
pub const TABLE2: [Table2Net; 4] = [
    Table2Net::A,
    Table2Net::Aa,
    Table2Net::C,
    Table2Net::Hailfinder,
];

impl Table2Net {
    /// Table 2 column label.
    pub fn name(self) -> &'static str {
        match self {
            Table2Net::A => "A",
            Table2Net::Aa => "AA",
            Table2Net::C => "C",
            Table2Net::Hailfinder => "Hailfinder",
        }
    }

    /// Build the network (deterministic).
    pub fn build(self) -> BeliefNetwork {
        match self {
            Table2Net::A => random_network(&RandomNetConfig {
                nodes: 54,
                edges: 119, // 2.2 per node
                arity: 2,
                max_parents: 8,
                seed: 0xA11CE,
            }),
            Table2Net::Aa => random_network(&RandomNetConfig {
                nodes: 54,
                edges: 130, // 2.4 per node
                arity: 2,
                max_parents: 8,
                seed: 0xAA22,
            }),
            Table2Net::C => random_network(&RandomNetConfig {
                nodes: 54,
                edges: 108, // 2.0 per node
                arity: 2,
                max_parents: 8,
                seed: 0xC0FFEE,
            }),
            Table2Net::Hailfinder => hailfinder_like(0x4A17),
        }
    }
}

/// Draw a skewed probability distribution over `arity` values.
///
/// Real diagnostic CPTs (Hailfinder's included) are strongly informative:
/// most rows have a clearly dominant outcome. We mirror that: 75% of rows
/// are near-deterministic (dominant mass ~0.85–0.97), the rest moderate.
/// The skew matters to the reproduction — the asynchronous §3.2
/// implementations gamble that a node sampled its *default* (most likely)
/// value, and that gamble must usually pay off, as it did for the paper.
fn random_distribution(arity: usize, rng: &mut StdRng) -> Vec<f64> {
    let n = arity as f64;
    let mut w: Vec<f64> = if rng.gen::<f64>() < 0.85 {
        let dominant = rng.gen_range(0..arity);
        let top = rng.gen_range(0.90..0.98);
        let rest = (1.0 - top) / (n - 1.0);
        (0..arity)
            .map(|v| if v == dominant { top } else { rest })
            .collect()
    } else {
        let mut raw: Vec<f64> = (0..arity)
            .map(|_| rng.gen::<f64>().powi(2) + 1e-6)
            .collect();
        let sum: f64 = raw.iter().sum();
        for x in &mut raw {
            *x /= sum;
        }
        raw
    };
    // Keep every entry strictly positive so no branch is impossible
    // (rejection sampling needs positive evidence probability).
    let eps = 1e-3;
    let sum: f64 = w.iter().sum();
    for x in &mut w {
        *x = (*x / sum + eps) / (1.0 + n * eps);
    }
    w
}

/// Build a node with random CPT given its parents' arities.
fn random_node(
    name: String,
    arity: usize,
    parents: Vec<usize>,
    parent_arities: &[usize],
    rng: &mut StdRng,
) -> Node {
    let combos: usize = parents.iter().map(|&p| parent_arities[p]).product();
    let mut cpt = Vec::with_capacity(combos * arity);
    for _ in 0..combos {
        cpt.extend(random_distribution(arity, rng));
    }
    Node {
        name,
        arity,
        parents,
        cpt,
    }
}

/// Generate a random belief network per the paper's recipe: a random DAG
/// with exactly `cfg.edges` edges (subject to the parent cap) and random
/// CPTs.
pub fn random_network(cfg: &RandomNetConfig) -> BeliefNetwork {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = cfg.nodes;
    let mut parent_sets: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut placed = 0usize;
    let mut attempts = 0usize;
    let max_attempts = cfg.edges * 1000;
    while placed < cfg.edges && attempts < max_attempts {
        attempts += 1;
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a == b {
            continue;
        }
        let (src, dst) = (a.min(b), a.max(b));
        if parent_sets[dst].len() >= cfg.max_parents || parent_sets[dst].contains(&src) {
            continue;
        }
        parent_sets[dst].push(src);
        placed += 1;
    }
    assert_eq!(
        placed, cfg.edges,
        "could not place {} edges on {} nodes with parent cap {}",
        cfg.edges, n, cfg.max_parents
    );
    let arities = vec![cfg.arity; n];
    let nodes = parent_sets
        .into_iter()
        .enumerate()
        .map(|(i, mut parents)| {
            parents.sort_unstable();
            random_node(format!("n{i}"), cfg.arity, parents, &arities, &mut rng)
        })
        .collect();
    BeliefNetwork::new(nodes)
}

/// A Hailfinder-statistics-alike: 56 four-valued nodes in two loosely
/// coupled halves of 28, ~67 edges total (1.2/node) of which 4 cross the
/// halves — so a balanced bisection cuts 4 edges, matching Table 2.
pub fn hailfinder_like(seed: u64) -> BeliefNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 56; // two halves of 28 (evens / odds)
    let arity = 4;
    let max_parents = 3;
    let intra_per_half = 31; // 2*31 + 4 cross = 66 ≈ 1.2 * 56
    let mut parent_sets: Vec<Vec<usize>> = vec![Vec::new(); n];

    // Interleave the halves in the topological order (evens = half 0,
    // odds = half 1) so a naive contiguous split does NOT separate them —
    // the partitioner has to discover the structure.
    let members = |h: usize| -> Vec<usize> { (0..n).filter(|i| i % 2 == h).collect() };
    for h in 0..2 {
        let m = members(h);
        let mut placed = 0;
        // A spine keeps each half connected (chain in topo order).
        for w in m.windows(2) {
            parent_sets[w[1]].push(w[0]);
            placed += 1;
        }
        while placed < intra_per_half {
            let i = rng.gen_range(0..m.len());
            let j = rng.gen_range(0..m.len());
            if i == j {
                continue;
            }
            let (src, dst) = (m[i].min(m[j]), m[i].max(m[j]));
            if parent_sets[dst].len() >= max_parents || parent_sets[dst].contains(&src) {
                continue;
            }
            parent_sets[dst].push(src);
            placed += 1;
        }
    }
    // Exactly 4 cross edges between the halves.
    let (m0, m1) = (members(0), members(1));
    let mut cross = 0;
    while cross < 4 {
        let a = m0[rng.gen_range(0..m0.len())];
        let b = m1[rng.gen_range(0..m1.len())];
        let (src, dst) = (a.min(b), a.max(b));
        if parent_sets[dst].len() > max_parents || parent_sets[dst].contains(&src) {
            continue;
        }
        parent_sets[dst].push(src);
        cross += 1;
    }

    let arities = vec![arity; n];
    let nodes = parent_sets
        .into_iter()
        .enumerate()
        .map(|(i, mut parents)| {
            parents.sort_unstable();
            random_node(format!("hf{i}"), arity, parents, &arities, &mut rng)
        })
        .collect();
    BeliefNetwork::new(nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nscc_partition::{edge_cut, partition};

    #[test]
    fn table2_row_statistics() {
        for (net_id, nodes, epn) in [
            (Table2Net::A, 54, 2.2),
            (Table2Net::Aa, 54, 2.4),
            (Table2Net::C, 54, 2.0),
            (Table2Net::Hailfinder, 56, 1.2),
        ] {
            let net = net_id.build();
            assert_eq!(net.len(), nodes, "{}", net_id.name());
            assert!(
                (net.edges_per_node() - epn).abs() < 0.05,
                "{}: edges/node {} vs expected {}",
                net_id.name(),
                net.edges_per_node(),
                epn
            );
        }
        assert_eq!(Table2Net::A.build().max_arity(), 2);
        assert_eq!(Table2Net::Hailfinder.build().max_arity(), 4);
    }

    #[test]
    fn hailfinder_bisection_cut_is_tiny() {
        let net = Table2Net::Hailfinder.build();
        let g = net.skeleton();
        let parts = partition(&g, 2, 42);
        let cut = edge_cut(&g, &parts);
        assert!(
            cut <= 6,
            "hailfinder-like bisection should cut ~4 edges, got {cut}"
        );
    }

    #[test]
    fn random_nets_have_bigger_cuts_than_hailfinder() {
        let cut_of = |n: Table2Net| {
            let g = n.build().skeleton();
            edge_cut(&g, &partition(&g, 2, 42))
        };
        let hf = cut_of(Table2Net::Hailfinder);
        for n in [Table2Net::A, Table2Net::Aa, Table2Net::C] {
            assert!(
                cut_of(n) > 2 * hf.max(1),
                "{}'s cut should dwarf Hailfinder's",
                n.name()
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a1 = Table2Net::A.build();
        let a2 = Table2Net::A.build();
        assert_eq!(a1.edge_count(), a2.edge_count());
        for i in 0..a1.len() {
            assert_eq!(a1.node(i).parents, a2.node(i).parents);
            assert_eq!(a1.node(i).cpt, a2.node(i).cpt);
        }
    }

    #[test]
    fn cpts_are_strictly_positive() {
        let net = Table2Net::Aa.build();
        for node in net.nodes() {
            assert!(node.cpt.iter().all(|&p| p > 0.0));
        }
    }

    #[test]
    #[should_panic(expected = "could not place")]
    fn impossible_edge_demand_panics() {
        random_network(&RandomNetConfig {
            nodes: 4,
            edges: 100,
            arity: 2,
            max_parents: 2,
            seed: 1,
        });
    }
}
