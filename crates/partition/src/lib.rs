//! # nscc-partition — graph partitioning (METIS substitute)
//!
//! The paper partitions each belief network across processors with METIS
//! \[11\] and reports the resulting edge-cut (Table 2). This crate provides
//! the same service: balanced k-way partitioning by recursive bisection,
//! with BFS region growing for initial splits and Fiduccia–Mattheyses
//! refinement to shrink the cut.
//!
//! ```
//! use nscc_partition::{partition, edge_cut, Graph};
//!
//! // Two triangles joined by a single bridge edge.
//! let g = Graph::from_edges(6, [(0,1),(1,2),(0,2),(3,4),(4,5),(3,5),(2,3)]);
//! let parts = partition(&g, 2, 42);
//! assert_eq!(edge_cut(&g, &parts), 1);
//! ```

#![warn(missing_docs)]

mod bisect;
mod graph;

pub use graph::Graph;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Partition `g` into `k` balanced parts (sizes differ by at most one).
/// Returns `assign[v] = part` for every vertex. Deterministic per `seed`.
pub fn partition(g: &Graph, k: usize, seed: u64) -> Vec<usize> {
    assert!(k >= 1, "k must be at least 1");
    let mut assign = vec![0usize; g.len()];
    if k == 1 || g.is_empty() {
        return assign;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let all: Vec<usize> = (0..g.len()).collect();
    recurse(g, &all, k, 0, &mut assign, &mut rng);
    assign
}

/// Recursively bisect `vertices` into `k` parts labelled starting at
/// `first_label`, splitting k as evenly as the vertex counts allow.
fn recurse(
    g: &Graph,
    vertices: &[usize],
    k: usize,
    first_label: usize,
    assign: &mut [usize],
    rng: &mut StdRng,
) {
    if k == 1 {
        for &v in vertices {
            assign[v] = first_label;
        }
        return;
    }
    let ka = k / 2;
    let kb = k - ka;
    // Side A receives ka/k of the vertices (rounded to keep balance exact).
    let target_a = (vertices.len() * ka + k / 2) / k;
    // Random restarts: BFS growth is seed-sensitive, so take the best of a
    // few attempts (cheap at these sizes, large cut improvements).
    let mut side = bisect::bisect(g, vertices, target_a, rng);
    let mut best_cut = cut_of(g, vertices, &side);
    for _ in 0..3 {
        let cand = bisect::bisect(g, vertices, target_a, rng);
        let c = cut_of(g, vertices, &cand);
        if c < best_cut {
            best_cut = c;
            side = cand;
        }
    }
    let (mut va, mut vb) = (Vec::new(), Vec::new());
    for (i, &v) in vertices.iter().enumerate() {
        if side[i] {
            vb.push(v);
        } else {
            va.push(v);
        }
    }
    recurse(g, &va, ka, first_label, assign, rng);
    recurse(g, &vb, kb, first_label + ka, assign, rng);
}

/// Cut of a bisection restricted to `vertices` (side vector aligned).
fn cut_of(g: &Graph, vertices: &[usize], side: &[bool]) -> usize {
    let mut local = vec![usize::MAX; g.len()];
    for (i, &v) in vertices.iter().enumerate() {
        local[v] = i;
    }
    let mut cut = 0;
    for (i, &v) in vertices.iter().enumerate() {
        for &w in g.neighbors(v) {
            let lw = local[w];
            if lw != usize::MAX && lw > i && side[lw] != side[i] {
                cut += 1;
            }
        }
    }
    cut
}

/// Number of edges whose endpoints land in different parts.
pub fn edge_cut(g: &Graph, assign: &[usize]) -> usize {
    assert_eq!(assign.len(), g.len(), "assignment length mismatch");
    g.edges().filter(|&(u, v)| assign[u] != assign[v]).count()
}

/// Sizes of each part under `assign` (length = max label + 1).
pub fn part_sizes(assign: &[usize]) -> Vec<usize> {
    let k = assign.iter().copied().max().map_or(0, |m| m + 1);
    let mut sizes = vec![0usize; k];
    for &p in assign {
        sizes[p] += 1;
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> Graph {
        Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)))
    }

    #[test]
    fn two_cliques_one_bridge_cut_is_one() {
        let mut edges = Vec::new();
        for a in 0..5 {
            for b in (a + 1)..5 {
                edges.push((a, b));
                edges.push((a + 5, b + 5));
            }
        }
        edges.push((0, 5));
        let g = Graph::from_edges(10, edges);
        let parts = partition(&g, 2, 1);
        assert_eq!(edge_cut(&g, &parts), 1);
        assert_eq!(part_sizes(&parts), vec![5, 5]);
    }

    #[test]
    fn ring_bisection_cut_is_two() {
        let g = ring(20);
        let parts = partition(&g, 2, 3);
        assert_eq!(
            edge_cut(&g, &parts),
            2,
            "a ring split in two halves cuts 2 edges"
        );
    }

    #[test]
    fn balance_holds_for_odd_sizes() {
        let g = ring(21);
        let parts = partition(&g, 2, 3);
        let sizes = part_sizes(&parts);
        assert_eq!(sizes.iter().sum::<usize>(), 21);
        assert!(sizes.iter().all(|&s| s == 10 || s == 11), "{sizes:?}");
    }

    #[test]
    fn four_way_partition_balances() {
        let g = ring(40);
        let parts = partition(&g, 4, 9);
        let sizes = part_sizes(&parts);
        assert_eq!(sizes.len(), 4);
        assert!(sizes.iter().all(|&s| s == 10), "{sizes:?}");
        // A ring split into 4 contiguous arcs cuts 4 edges; allow a little
        // slack for the heuristic.
        assert!(edge_cut(&g, &parts) <= 8);
    }

    #[test]
    fn k_equals_one_is_trivial() {
        let g = ring(7);
        let parts = partition(&g, 1, 0);
        assert!(parts.iter().all(|&p| p == 0));
        assert_eq!(edge_cut(&g, &parts), 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = ring(30);
        assert_eq!(partition(&g, 2, 5), partition(&g, 2, 5));
    }

    #[test]
    fn disconnected_graph_is_handled() {
        // Two disjoint rings.
        let mut edges: Vec<(usize, usize)> = (0..10).map(|i| (i, (i + 1) % 10)).collect();
        edges.extend((0..10).map(|i| (10 + i, 10 + (i + 1) % 10)));
        let g = Graph::from_edges(20, edges);
        let parts = partition(&g, 2, 2);
        assert_eq!(part_sizes(&parts), vec![10, 10]);
        // Perfect split puts one ring per side: cut 0; tolerate small cuts.
        assert!(edge_cut(&g, &parts) <= 4);
    }

    #[test]
    fn edgeless_graph() {
        let g = Graph::new(8);
        let parts = partition(&g, 4, 0);
        assert_eq!(part_sizes(&parts), vec![2, 2, 2, 2]);
        assert_eq!(edge_cut(&g, &parts), 0);
    }
}
