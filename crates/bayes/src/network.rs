//! Bayesian belief networks: DAG structure plus conditional probability
//! tables (CPTs), as in Pearl [15].

use nscc_partition::Graph;

/// Index of a node (event variable) in a network.
pub type NodeIdx = usize;

/// A value a discrete node can take (0-based).
pub type Value = u8;

/// One node: its arity, parents, and CPT.
///
/// The CPT stores, for every combination of parent values (mixed-radix
/// index, first parent most significant), a probability distribution over
/// this node's values, flattened row-major: `cpt[combo * arity + value]`.
#[derive(Debug, Clone)]
pub struct Node {
    /// Human-readable name.
    pub name: String,
    /// Number of values this node takes.
    pub arity: usize,
    /// Parent node indices (must all be < this node's index in
    /// topological construction order).
    pub parents: Vec<NodeIdx>,
    /// Flattened CPT; length = (product of parent arities) * arity.
    pub cpt: Vec<f64>,
}

/// A Bayesian belief network. Nodes are stored in a topological order
/// (every parent index precedes its children), which the constructor
/// enforces.
#[derive(Debug, Clone)]
pub struct BeliefNetwork {
    nodes: Vec<Node>,
    /// Per node, its CPT with every row replaced by the row's running
    /// sums (same layout as [`Node::cpt`]); what sampling looks up.
    cum: Vec<Vec<f64>>,
}

impl BeliefNetwork {
    /// Build a network from `nodes`; panics unless parents precede
    /// children and every CPT row is a probability distribution.
    pub fn new(nodes: Vec<Node>) -> Self {
        for (i, node) in nodes.iter().enumerate() {
            assert!(
                node.arity >= 2,
                "node `{}` needs at least 2 values",
                node.name
            );
            for &p in &node.parents {
                assert!(
                    p < i,
                    "node `{}` has parent index {p} >= its own index {i} \
                     (nodes must be listed in topological order)",
                    node.name
                );
            }
            let combos: usize = node.parents.iter().map(|&p| nodes[p].arity).product();
            assert_eq!(
                node.cpt.len(),
                combos * node.arity,
                "node `{}`: CPT length {} != {} combos * {} values",
                node.name,
                node.cpt.len(),
                combos,
                node.arity
            );
            for c in 0..combos {
                let row = &node.cpt[c * node.arity..(c + 1) * node.arity];
                let sum: f64 = row.iter().sum();
                assert!(
                    (sum - 1.0).abs() < 1e-9 && row.iter().all(|&p| (0.0..=1.0).contains(&p)),
                    "node `{}`: CPT row {c} is not a distribution (sum {sum})",
                    node.name
                );
            }
        }
        let cum = nodes.iter().map(cumulative_rows).collect();
        BeliefNetwork { nodes, cum }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node at `idx`.
    pub fn node(&self, idx: NodeIdx) -> &Node {
        &self.nodes[idx]
    }

    /// All nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.nodes.iter().map(|n| n.parents.len()).sum()
    }

    /// Mean edges per node (the Table 2 statistic).
    pub fn edges_per_node(&self) -> f64 {
        if self.nodes.is_empty() {
            0.0
        } else {
            self.edge_count() as f64 / self.nodes.len() as f64
        }
    }

    /// Maximum node arity (Table 2 "values per node").
    pub fn max_arity(&self) -> usize {
        self.nodes.iter().map(|n| n.arity).max().unwrap_or(0)
    }

    /// Children of each node (inverse of the parent lists).
    pub fn children(&self) -> Vec<Vec<NodeIdx>> {
        let mut ch = vec![Vec::new(); self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            for &p in &n.parents {
                ch[p].push(i);
            }
        }
        ch
    }

    /// The CPT row (distribution over `idx`'s values) selected by the
    /// given full assignment of values to all nodes.
    pub fn cpt_row<'a>(&'a self, idx: NodeIdx, assignment: &[Value]) -> &'a [f64] {
        self.cpt_row_at(idx, self.combo(idx, assignment))
    }

    /// The parent-value combination of `idx` under `assignment`.
    fn combo(&self, idx: NodeIdx, assignment: &[Value]) -> usize {
        let mut combo = 0usize;
        for &p in &self.nodes[idx].parents {
            combo = combo * self.nodes[p].arity + assignment[p] as usize;
        }
        combo
    }

    /// The CPT row of `idx` for parent-value combination `combo` (the
    /// mixed-radix index [`Node`] documents), for callers that gather the
    /// parent values themselves.
    pub fn cpt_row_at(&self, idx: NodeIdx, combo: usize) -> &[f64] {
        let node = &self.nodes[idx];
        &node.cpt[combo * node.arity..(combo + 1) * node.arity]
    }

    /// Sample a value for `idx` given `assignment` (parents must already
    /// be assigned) using the uniform draw `u ∈ [0,1)`.
    pub fn sample_node(&self, idx: NodeIdx, assignment: &[Value], u: f64) -> Value {
        self.sample_combo(idx, self.combo(idx, assignment), u)
    }

    /// [`sample_node`](Self::sample_node) for a precomputed parent
    /// combination (see [`cpt_row_at`](Self::cpt_row_at)): the first value
    /// whose running sum exceeds `u`, the last one if rounding leaves the
    /// row's sum at or below `u`.
    ///
    /// Counted without a branch: the running sums never decrease (every
    /// probability is in `[0, 1]`, checked by [`new`](Self::new)) and `u`
    /// is never NaN, so the sums `≤ u` are a prefix of the row and their
    /// number among the first `arity − 1` is that value.
    #[inline]
    pub fn sample_combo(&self, idx: NodeIdx, combo: usize, u: f64) -> Value {
        let arity = self.nodes[idx].arity;
        let sums = &self.cum[idx][combo * arity..(combo + 1) * arity - 1];
        sums.iter().filter(|&&acc| acc <= u).count() as Value
    }

    /// The undirected skeleton (for graph partitioning).
    pub fn skeleton(&self) -> Graph {
        let edges = self
            .nodes
            .iter()
            .enumerate()
            .flat_map(|(i, n)| n.parents.iter().map(move |&p| (p, i)));
        Graph::from_edges(self.nodes.len(), edges)
    }

    /// Per-node *default values* for the asynchronous implementation: the
    /// a-priori most likely value assuming every parent takes its own
    /// default (computed in topological order), as §3.2 describes for
    /// Figure 1's node A.
    pub fn default_values(&self) -> Vec<Value> {
        let mut defaults: Vec<Value> = Vec::with_capacity(self.nodes.len());
        for i in 0..self.nodes.len() {
            let row = self.cpt_row(i, &defaults_padded(&defaults, self.nodes.len()));
            let best = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(v, _)| v as Value)
                .unwrap_or(0);
            defaults.push(best);
        }
        defaults
    }
}

/// `node`'s CPT with each row replaced by its running sums, accumulated
/// left to right so every sum has the bits a sequential `acc += p` scan
/// of the row reaches.
fn cumulative_rows(node: &Node) -> Vec<f64> {
    let mut cum = node.cpt.clone();
    for row in cum.chunks_exact_mut(node.arity) {
        let mut acc = 0.0;
        for p in row {
            acc += *p;
            *p = acc;
        }
    }
    cum
}

/// Helper: pad a prefix assignment out to `n` entries (CPT lookup only
/// reads parent positions, which are all within the prefix).
fn defaults_padded(prefix: &[Value], n: usize) -> Vec<Value> {
    let mut v = prefix.to_vec();
    v.resize(n, 0);
    v
}

/// Convenience constructor for a binary root node with `p_true`.
pub fn binary_root(name: &str, p_true: f64) -> Node {
    Node {
        name: name.to_string(),
        arity: 2,
        parents: Vec::new(),
        // Value 0 = false, 1 = true.
        cpt: vec![1.0 - p_true, p_true],
    }
}

/// Convenience constructor for a binary node whose CPT lists
/// `p(true | parent combo)` for each mixed-radix parent combination.
pub fn binary_node(name: &str, parents: Vec<NodeIdx>, p_true_rows: &[f64]) -> Node {
    let mut cpt = Vec::with_capacity(p_true_rows.len() * 2);
    for &p in p_true_rows {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        cpt.push(1.0 - p);
        cpt.push(p);
    }
    Node {
        name: name.to_string(),
        arity: 2,
        parents,
        cpt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain2() -> BeliefNetwork {
        BeliefNetwork::new(vec![
            binary_root("a", 0.3),
            binary_node("b", vec![0], &[0.9, 0.1]), // p(b=T | a=F)=0.9, p(b=T | a=T)=0.1
        ])
    }

    #[test]
    fn construction_and_stats() {
        let net = chain2();
        assert_eq!(net.len(), 2);
        assert_eq!(net.edge_count(), 1);
        assert_eq!(net.max_arity(), 2);
        assert!((net.edges_per_node() - 0.5).abs() < 1e-12);
        assert_eq!(net.children()[0], vec![1]);
    }

    #[test]
    fn cpt_row_indexing() {
        let net = chain2();
        let close = |row: &[f64], want: [f64; 2]| {
            assert!(
                row.iter().zip(want).all(|(a, b)| (a - b).abs() < 1e-12),
                "{row:?} vs {want:?}"
            );
        };
        close(net.cpt_row(1, &[0, 0]), [0.1, 0.9]);
        close(net.cpt_row(1, &[1, 0]), [0.9, 0.1]);
    }

    #[test]
    fn sample_node_inverse_cdf() {
        let net = chain2();
        // Root: p(F)=0.7. u=0.69 -> F, u=0.71 -> T.
        assert_eq!(net.sample_node(0, &[0, 0], 0.69), 0);
        assert_eq!(net.sample_node(0, &[0, 0], 0.71), 1);
        // Boundary u close to 1 returns the last value.
        assert_eq!(net.sample_node(0, &[0, 0], 0.999999), 1);
    }

    #[test]
    fn default_values_follow_the_priors() {
        // Figure 1's rule: p(A=true)=0.2 -> default false.
        let net = BeliefNetwork::new(vec![
            binary_root("A", 0.2),
            binary_node("B", vec![0], &[0.2, 0.8]),
        ]);
        let d = net.default_values();
        assert_eq!(d[0], 0, "A defaults to false");
        // Given A's default (false), p(B=T|A=F)=0.2 -> B defaults false.
        assert_eq!(d[1], 0);
    }

    #[test]
    fn skeleton_matches_edges() {
        let net = chain2();
        let g = net.skeleton();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    #[should_panic(expected = "not a distribution")]
    fn bad_cpt_rejected() {
        BeliefNetwork::new(vec![Node {
            name: "x".into(),
            arity: 2,
            parents: vec![],
            cpt: vec![0.5, 0.6],
        }]);
    }

    #[test]
    #[should_panic(expected = "topological")]
    fn forward_parent_rejected() {
        BeliefNetwork::new(vec![
            Node {
                name: "x".into(),
                arity: 2,
                parents: vec![1],
                cpt: vec![0.5, 0.5, 0.5, 0.5],
            },
            binary_root("y", 0.5),
        ]);
    }

    #[test]
    fn multi_valued_cpt_row() {
        // A 3-valued root and a 2-valued child conditioned on it.
        let net = BeliefNetwork::new(vec![
            Node {
                name: "w".into(),
                arity: 3,
                parents: vec![],
                cpt: vec![0.2, 0.3, 0.5],
            },
            Node {
                name: "c".into(),
                arity: 2,
                parents: vec![0],
                cpt: vec![0.9, 0.1, 0.5, 0.5, 0.1, 0.9],
            },
        ]);
        assert_eq!(net.cpt_row(1, &[2, 0]), &[0.1, 0.9]);
        assert_eq!(net.cpt_row_at(1, 2), net.cpt_row(1, &[2, 0]));
        assert_eq!(
            net.sample_combo(1, 2, 0.05),
            net.sample_node(1, &[2, 0], 0.05)
        );
        assert_eq!(net.sample_node(0, &[0, 0], 0.45), 1);
    }

    /// The running-sum scan `sample_combo` replaced, kept as its oracle.
    fn inverse_cdf(row: &[f64], u: f64) -> Value {
        let mut acc = 0.0;
        for (v, &p) in row.iter().enumerate() {
            acc += p;
            if u < acc {
                return v as Value;
            }
        }
        (row.len() - 1) as Value
    }

    /// Every CPT row of `net` at the draws where a lookup can go wrong:
    /// 0, each running sum and one ulp either side of it, and the largest
    /// draw below 1. Returns how many draws were checked.
    fn assert_lookup_matches_scan(net: &BeliefNetwork) -> usize {
        let mut checked = 0;
        for (idx, node) in net.nodes().iter().enumerate() {
            for combo in 0..node.cpt.len() / node.arity {
                let row = net.cpt_row_at(idx, combo);
                let mut draws = vec![0.0, 1.0 - f64::EPSILON / 2.0];
                let mut acc = 0.0;
                for &p in row {
                    acc += p;
                    draws.extend([acc.next_down(), acc, acc.next_up()]);
                }
                for u in draws {
                    assert_eq!(
                        net.sample_combo(idx, combo, u),
                        inverse_cdf(row, u),
                        "node `{}` row {combo} {row:?} at u = {u:e}",
                        node.name
                    );
                    checked += 1;
                }
            }
        }
        checked
    }

    #[test]
    fn cumulative_lookup_matches_the_running_sum_scan() {
        let mut nets = vec![crate::figure1()];
        nets.extend(crate::TABLE2.iter().map(|t| t.build()));
        // Rows with certain and impossible values: sums that repeat, a
        // first sum of 0 and a last one reached before the row ends.
        nets.push(BeliefNetwork::new(vec![
            Node {
                name: "w".into(),
                arity: 3,
                parents: vec![],
                cpt: vec![0.0, 1.0, 0.0],
            },
            Node {
                name: "x".into(),
                arity: 4,
                parents: vec![0],
                cpt: vec![
                    1.0, 0.0, 0.0, 0.0, //
                    0.0, 0.0, 0.0, 1.0, //
                    0.0, 0.5, 0.0, 0.5,
                ],
            },
            binary_node("y", vec![1], &[0.0, 1.0, 0.3, 1.0]),
        ]));
        for net in &nets {
            assert!(assert_lookup_matches_scan(net) > 0);
        }
        // A draw at a running sum is where `<` and `≤` part, and the
        // last value is where counting all `arity` sums overshoots.
        assert_eq!(nets.last().unwrap().sample_combo(1, 2, 0.5), 3);
        assert_eq!(nets.last().unwrap().sample_combo(0, 0, 1.0), 2);
    }
}
