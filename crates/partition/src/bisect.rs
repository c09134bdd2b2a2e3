//! Balanced graph bisection: BFS region growing for the initial split,
//! Fiduccia–Mattheyses single-move refinement to shrink the cut.

use rand::rngs::StdRng;
use rand::Rng;

use crate::graph::Graph;

/// Split `vertices` (a subset of `g`) into two sides of sizes
/// `(target_a, vertices.len() - target_a)`, minimizing the cut between
/// them. Returns `side[i]` (false = side A) aligned with `vertices`.
pub(crate) fn bisect(
    g: &Graph,
    vertices: &[usize],
    target_a: usize,
    rng: &mut StdRng,
) -> Vec<bool> {
    let n = vertices.len();
    assert!(target_a <= n);
    if n == 0 || target_a == 0 {
        return vec![true; n];
    }
    if target_a == n {
        return vec![false; n];
    }

    // Map global vertex id -> local index within `vertices`.
    let mut local = vec![usize::MAX; g.len()];
    for (i, &v) in vertices.iter().enumerate() {
        local[v] = i;
    }

    let mut side = grow_region(g, vertices, &local, target_a, rng);
    fm_refine(g, vertices, &local, &mut side, target_a);
    side
}

/// BFS region growing from a pseudo-peripheral seed: side A is the first
/// `target_a` vertices reached (preferring already-well-connected ones).
fn grow_region(
    g: &Graph,
    vertices: &[usize],
    local: &[usize],
    target_a: usize,
    rng: &mut StdRng,
) -> Vec<bool> {
    let n = vertices.len();
    let start = pseudo_peripheral(g, vertices, local, rng);

    let mut side = vec![true; n]; // true = side B until claimed by A
    let mut claimed = 0usize;
    let mut visited = vec![false; n];
    let mut frontier = std::collections::VecDeque::new();
    let mut order: Vec<usize> = (0..n).collect();

    frontier.push_back(start);
    visited[start] = true;
    while claimed < target_a {
        let u = match frontier.pop_front() {
            Some(u) => u,
            None => {
                // Disconnected: restart from any unvisited vertex
                // (deterministic: lowest index first).
                let next = order
                    .iter()
                    .copied()
                    .find(|&i| !visited[i])
                    .expect("target_a < n implies an unvisited vertex exists");
                visited[next] = true;
                frontier.push_back(next);
                continue;
            }
        };
        side[u] = false;
        claimed += 1;
        for &w in g.neighbors(vertices[u]) {
            let lw = local[w];
            if lw != usize::MAX && !visited[lw] {
                visited[lw] = true;
                frontier.push_back(lw);
            }
        }
    }
    // Make `order` deterministic but seed-dependent for tie diversity.
    order.sort_unstable();
    side
}

/// Find a vertex far from a random start (two BFS sweeps), a standard
/// heuristic for good growth seeds.
fn pseudo_peripheral(g: &Graph, vertices: &[usize], local: &[usize], rng: &mut StdRng) -> usize {
    let n = vertices.len();
    let start = rng.gen_range(0..n);
    let far = bfs_farthest(g, vertices, local, start);
    bfs_farthest(g, vertices, local, far)
}

fn bfs_farthest(g: &Graph, vertices: &[usize], local: &[usize], start: usize) -> usize {
    let n = vertices.len();
    let mut dist = vec![usize::MAX; n];
    let mut q = std::collections::VecDeque::new();
    dist[start] = 0;
    q.push_back(start);
    let mut last = start;
    while let Some(u) = q.pop_front() {
        last = u;
        for &w in g.neighbors(vertices[u]) {
            let lw = local[w];
            if lw != usize::MAX && dist[lw] == usize::MAX {
                dist[lw] = dist[u] + 1;
                q.push_back(lw);
            }
        }
    }
    last
}

/// Fiduccia–Mattheyses refinement: repeated passes of single-vertex moves
/// with exact balance restored by the end of each pass; keep the best
/// prefix of each pass. Terminates when a pass yields no improvement.
fn fm_refine(g: &Graph, vertices: &[usize], local: &[usize], side: &mut [bool], target_a: usize) {
    let n = vertices.len();
    let max_passes = 10;

    for _ in 0..max_passes {
        // gain[i] = external - internal degree of i w.r.t. current sides.
        let gain = |i: usize, side: &[bool]| -> i64 {
            let mut gval = 0i64;
            for &w in g.neighbors(vertices[i]) {
                let lw = local[w];
                if lw == usize::MAX {
                    continue;
                }
                if side[lw] != side[i] {
                    gval += 1;
                } else {
                    gval -= 1;
                }
            }
            gval
        };

        let mut locked = vec![false; n];
        let mut work = side.to_vec();
        let mut best_cut_delta = 0i64;
        let mut cum_delta = 0i64;
        let mut best_prefix = 0usize;
        let mut moves: Vec<usize> = Vec::new();

        let count_a = |s: &[bool]| s.iter().filter(|&&b| !b).count();

        for _ in 0..n {
            // Choose the best unlocked move that keeps sizes within one of
            // the target (FM alternates sides as needed).
            let cur_a = count_a(&work);
            let mut best: Option<(i64, usize)> = None;
            for i in 0..n {
                if locked[i] {
                    continue;
                }
                // Moving i flips its side; keep |A| within target_a ± 1.
                let new_a = if work[i] { cur_a + 1 } else { cur_a - 1 };
                if new_a + 1 < target_a || new_a > target_a + 1 {
                    continue;
                }
                let gval = gain(i, &work);
                if best.is_none_or(|(bg, bi)| gval > bg || (gval == bg && i < bi)) {
                    best = Some((gval, i));
                }
            }
            let Some((gval, i)) = best else { break };
            work[i] = !work[i];
            locked[i] = true;
            moves.push(i);
            cum_delta -= gval; // positive gain reduces the cut
                               // Only accept prefixes that restore exact balance.
            if count_a(&work) == target_a && cum_delta < best_cut_delta {
                best_cut_delta = cum_delta;
                best_prefix = moves.len();
            }
        }

        if best_prefix == 0 {
            return; // no improving balanced prefix: converged
        }
        for &i in &moves[..best_prefix] {
            side[i] = !side[i];
        }
    }
}
