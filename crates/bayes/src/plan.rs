//! The partition plan: how a belief network maps onto `p` processors and
//! what they exchange.
//!
//! The network's skeleton is split with the graph partitioner; nodes whose
//! adjacent nodes fall in other partitions are *interface nodes* (§3.2).
//! Within one sampling iteration, values flow along the node DAG, so
//! cross-partition exchanges are organised in **rounds**: node `v`'s stage
//! is the largest number of cross-partition hops on any path into `v`, and
//! all interface values produced in round `r` travel together in one
//! *batch* message per `(src, dst, round)` triple (coalescing, as real
//! implementations do).

use std::collections::HashMap;

use nscc_partition::{edge_cut, partition};

use crate::network::{BeliefNetwork, NodeIdx, Value};
use crate::sampling::Query;

/// Index of a [`Batch`] within a [`Plan`].
pub type BatchId = usize;

/// One coalesced interface message: the values of `nodes` computed by
/// `src` in round `round` of every iteration, read by `dst`.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Producing partition.
    pub src: usize,
    /// Consuming partition.
    pub dst: usize,
    /// Round in which `src` computes (and publishes) these nodes.
    pub round: usize,
    /// The carried nodes, in fixed order.
    pub nodes: Vec<NodeIdx>,
}

/// Per-round schedule entry for one partition.
#[derive(Debug, Clone, Default)]
pub struct RoundPlan {
    /// Owned nodes to sample this round (topological order).
    pub compute: Vec<NodeIdx>,
    /// Batches this partition publishes at the end of this round.
    pub writes: Vec<BatchId>,
    /// Batches (produced by peers in this round) that the *next* round's
    /// computation may need; the synchronous discipline waits on them.
    pub reads_after: Vec<BatchId>,
}

/// The full static plan for a partitioned sampling run.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Number of partitions.
    pub parts: usize,
    /// Node → owning partition.
    pub assign: Vec<usize>,
    /// Node → round in which it is computed.
    pub stage: Vec<usize>,
    /// Total rounds per iteration.
    pub rounds: usize,
    /// All interface batches.
    pub batches: Vec<Batch>,
    /// Partition → its per-round schedule.
    pub schedules: Vec<Vec<RoundPlan>>,
    /// Partition → node → the `(batch, row)` carrying that remote node's
    /// value to the partition (see [`Plan::source_of`]).
    source: Vec<Vec<Option<(BatchId, usize)>>>,
    /// Edge-cut of the underlying skeleton partition (Table 2 metric).
    pub edge_cut: usize,
    /// The partition that owns the query node and keeps the tally.
    pub query_owner: usize,
    /// Per-node default values for speculative (asynchronous) sampling.
    pub defaults: Vec<Value>,
    /// Partition → remote input node → the partition's own nodes
    /// downstream of it (see [`Plan::dependents_of`]).
    dependents: Vec<Vec<Vec<NodeIdx>>>,
}

impl Plan {
    /// Build a plan for `net` split across `parts` partitions. The plan
    /// guarantees the query partition also receives every evidence node's
    /// value (it needs them for the accept/reject decision).
    pub fn new(net: &BeliefNetwork, parts: usize, seed: u64, query: &Query) -> Plan {
        assert!(parts >= 1);
        let assign = partition(&net.skeleton(), parts, seed);
        Plan::with_assignment(net, parts, assign, query)
    }

    /// The plan for a given node → partition assignment (what
    /// [`Plan::new`] builds once the partitioner has chosen one).
    pub fn with_assignment(
        net: &BeliefNetwork,
        parts: usize,
        assign: Vec<usize>,
        query: &Query,
    ) -> Plan {
        assert!(assign.len() == net.len() && assign.iter().all(|&p| p < parts));
        let cut = edge_cut(&net.skeleton(), &assign);
        let query_owner = assign[query.node];

        // Stages: one more than the deepest cross-partition hop count.
        let mut stage = vec![0usize; net.len()];
        for v in 0..net.len() {
            for &u in &net.node(v).parents {
                let hop = usize::from(assign[u] != assign[v]);
                stage[v] = stage[v].max(stage[u] + hop);
            }
        }
        let rounds = stage.iter().copied().max().unwrap_or(0) + 1;

        // Which (src, dst) pairs need which nodes: children edges, plus
        // evidence/query forwarding to the query owner.
        let mut need: HashMap<(usize, usize), Vec<NodeIdx>> = HashMap::new();
        let mut mark = |u: NodeIdx, dst: usize| {
            let src = assign[u];
            if src != dst {
                let v = need.entry((src, dst)).or_default();
                if !v.contains(&u) {
                    v.push(u);
                }
            }
        };
        for (v, &dst) in assign.iter().enumerate().take(net.len()) {
            for &u in &net.node(v).parents {
                mark(u, dst);
            }
        }
        for &(e, _) in &query.evidence {
            mark(e, query_owner);
        }

        // Coalesce per (src, dst, round); deterministic ordering.
        let mut batches: Vec<Batch> = Vec::new();
        let mut keys: Vec<(usize, usize)> = need.keys().copied().collect();
        keys.sort_unstable();
        for (src, dst) in keys {
            let mut nodes = need.remove(&(src, dst)).expect("key exists");
            nodes.sort_unstable();
            for r in 0..rounds {
                let in_round: Vec<NodeIdx> =
                    nodes.iter().copied().filter(|&u| stage[u] == r).collect();
                if !in_round.is_empty() {
                    batches.push(Batch {
                        src,
                        dst,
                        round: r,
                        nodes: in_round,
                    });
                }
            }
        }

        // Per-partition schedules and value indices.
        let mut schedules: Vec<Vec<RoundPlan>> = vec![vec![RoundPlan::default(); rounds]; parts];
        for v in 0..net.len() {
            schedules[assign[v]][stage[v]].compute.push(v);
        }
        for sched in &mut schedules {
            for round in sched.iter_mut() {
                round.compute.sort_unstable();
            }
        }
        let mut source = vec![vec![None; net.len()]; parts];
        for (bid, b) in batches.iter().enumerate() {
            schedules[b.src][b.round].writes.push(bid);
            schedules[b.dst][b.round].reads_after.push(bid);
            for (i, &u) in b.nodes.iter().enumerate() {
                source[b.dst][u] = Some((bid, i));
            }
        }

        // Partition-local transitive dependents of each remote input node.
        let children = net.children();
        let mut dependents = vec![vec![Vec::new(); net.len()]; parts];
        for part in 0..parts {
            for input in (0..net.len()).filter(|&u| source[part][u].is_some()) {
                let mut affected = vec![false; net.len()];
                let mut stack = vec![input];
                while let Some(u) = stack.pop() {
                    for &c in &children[u] {
                        if !affected[c] {
                            affected[c] = true;
                            stack.push(c);
                        }
                    }
                }
                dependents[part][input] = (0..net.len())
                    .filter(|&v| affected[v] && assign[v] == part)
                    .collect();
            }
        }

        Plan {
            parts,
            assign,
            stage,
            rounds,
            batches,
            schedules,
            source,
            edge_cut: cut,
            query_owner,
            defaults: net.default_values(),
            dependents,
        }
    }

    /// All nodes owned by `part`, in topological order.
    pub fn owned(&self, part: usize) -> Vec<NodeIdx> {
        (0..self.assign.len())
            .filter(|&v| self.assign[v] == part)
            .collect()
    }

    /// Where partition `part` reads remote node `u` from: the batch
    /// carrying it and its row in that batch, or `None` if `part` never
    /// needs `u` from a peer.
    pub fn source_of(&self, part: usize, u: NodeIdx) -> Option<(BatchId, usize)> {
        self.source[part][u]
    }

    /// The nodes of `part` downstream of its remote input `u`, in
    /// topological order: what a correction to `u`'s value forces the
    /// partition to resample (§3.2: "the child node and the values of all
    /// the nodes ... dependent on this node ... must be invalidated and
    /// recomputed"). Empty for nodes `part` does not read from a peer.
    pub fn dependents_of(&self, part: usize, u: NodeIdx) -> &[NodeIdx] {
        &self.dependents[part][u]
    }

    /// Messages one full iteration sends (batches + one heartbeat per
    /// partition pair is added by the runtime).
    pub fn batches_per_iteration(&self) -> usize {
        self.batches.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Table2Net;

    fn plan_for(netid: Table2Net, parts: usize) -> (BeliefNetwork, Plan) {
        let net = netid.build();
        let query = Query {
            node: net.len() - 1,
            evidence: vec![(0, 0)],
        };
        let plan = Plan::new(&net, parts, 42, &query);
        (net, plan)
    }

    #[test]
    fn single_partition_has_no_batches() {
        let (net, plan) = plan_for(Table2Net::A, 1);
        assert_eq!(plan.batches.len(), 0);
        assert_eq!(plan.rounds, 1);
        assert_eq!(plan.owned(0).len(), net.len());
        assert_eq!(plan.edge_cut, 0);
    }

    #[test]
    fn stages_respect_cross_partition_parent_order() {
        let (net, plan) = plan_for(Table2Net::A, 2);
        for v in 0..net.len() {
            for &u in &net.node(v).parents {
                if plan.assign[u] != plan.assign[v] {
                    assert!(
                        plan.stage[v] > plan.stage[u],
                        "cross edge {u}->{v} must advance the stage"
                    );
                } else {
                    assert!(plan.stage[v] >= plan.stage[u]);
                }
            }
        }
    }

    #[test]
    fn every_remote_parent_is_reachable_through_a_batch() {
        let (net, plan) = plan_for(Table2Net::Aa, 2);
        for v in 0..net.len() {
            for &u in &net.node(v).parents {
                if plan.assign[u] != plan.assign[v] {
                    let (bid, idx) = plan.source_of(plan.assign[v], u).expect("routed");
                    let b = &plan.batches[bid];
                    assert_eq!(b.nodes[idx], u);
                    assert_eq!(b.src, plan.assign[u]);
                    assert_eq!(b.dst, plan.assign[v]);
                    assert_eq!(b.round, plan.stage[u]);
                    assert!(plan.dependents_of(plan.assign[v], u).contains(&v));
                }
            }
        }
    }

    #[test]
    fn evidence_flows_to_the_query_owner() {
        let net = Table2Net::C.build();
        // Evidence on several nodes scattered through the network.
        let query = Query {
            node: net.len() - 1,
            evidence: vec![(0, 0), (10, 1), (25, 0)],
        };
        let plan = Plan::new(&net, 2, 42, &query);
        for &(e, _) in &query.evidence {
            if plan.assign[e] != plan.query_owner {
                assert!(
                    plan.source_of(plan.query_owner, e).is_some(),
                    "evidence node {e} must reach the query owner"
                );
            }
        }
    }

    #[test]
    fn schedules_cover_every_node_exactly_once() {
        let (net, plan) = plan_for(Table2Net::Hailfinder, 2);
        let mut seen = vec![0usize; net.len()];
        for part in 0..plan.parts {
            for round in &plan.schedules[part] {
                for &v in &round.compute {
                    assert_eq!(plan.assign[v], part);
                    assert_eq!(plan.stage[v], {
                        let mut r = usize::MAX;
                        for (ri, rp) in plan.schedules[part].iter().enumerate() {
                            if rp.compute.contains(&v) {
                                r = ri;
                            }
                        }
                        r
                    });
                    seen[v] += 1;
                }
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn hailfinder_plan_has_few_batches() {
        let (_, plan) = plan_for(Table2Net::Hailfinder, 2);
        let (_, plan_a) = plan_for(Table2Net::A, 2);
        assert!(
            plan.edge_cut < plan_a.edge_cut,
            "hailfinder cut {} should be below A's {}",
            plan.edge_cut,
            plan_a.edge_cut
        );
    }

    #[test]
    fn batch_contents_are_disjoint_per_destination() {
        let (_, plan) = plan_for(Table2Net::Aa, 2);
        for dst in 0..plan.parts {
            let mut seen = std::collections::HashSet::new();
            for b in plan.batches.iter().filter(|b| b.dst == dst) {
                for &u in &b.nodes {
                    assert!(seen.insert(u), "node {u} appears in two batches to {dst}");
                }
            }
        }
    }
}
