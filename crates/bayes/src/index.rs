//! One partition's static view of a [`Plan`], resolved once per run into
//! dense tables so the sampling loop of `parallel.rs` never searches:
//! nodes become *owned positions* (index into the partition's topological
//! node list, and row of a record's value matrix), batches become
//! *in-slots* and *out-slots*.

use std::sync::Arc;

use nscc_dsm::LocId;

use crate::network::{BeliefNetwork, NodeIdx, Value};
use crate::parallel::ParallelBayesConfig;
use crate::plan::Plan;
use crate::sampling::Query;

/// "Not mine" in the dense node → position and batch → slot tables.
pub(crate) const NONE: usize = usize::MAX;

/// Where one input of a sampling step lives.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Src {
    /// Row `pos` of the record's own `values` (an owned node).
    Owned(usize),
    /// Row `row` of incoming batch `slot`; `default` stands in while the
    /// record has no such batch.
    Remote {
        slot: usize,
        row: usize,
        default: Value,
    },
}

/// One incoming batch, by in-slot.
pub(crate) struct InBatch {
    pub(crate) loc: LocId,
    /// Default value of each carried node, by row.
    pub(crate) defaults: Vec<Value>,
    /// Row `r` is entry `first_input + r` of [`PartIndex::deps`].
    pub(crate) first_input: usize,
}

/// One outgoing batch, by out-slot: its location and the owned positions
/// of the nodes it carries, by row.
pub(crate) struct OutBatch {
    pub(crate) loc: LocId,
    pub(crate) rows: Vec<usize>,
}

/// One round of an iteration, in slots and positions.
pub(crate) struct Round {
    pub(crate) compute: Vec<usize>,
    pub(crate) writes: Vec<usize>,
    pub(crate) reads_after: Vec<LocId>,
}

/// The tables of one partition (`rank`), read-only once its process runs.
pub(crate) struct PartIndex {
    pub(crate) rank: usize,
    pub(crate) parts: usize,
    pub(crate) block: usize,
    pub(crate) seed: u64,
    pub(crate) net: Arc<BeliefNetwork>,
    /// Owned nodes in topological order (position → node).
    pub(crate) owned: Vec<NodeIdx>,
    /// Position → its parents in CPT order, each with its arity (the
    /// radix of the mixed-radix CPT row index).
    pub(crate) inputs: Vec<Vec<(Src, usize)>>,
    pub(crate) ins: Vec<InBatch>,
    /// Batch id (= `LocId` index) → in-slot, `NONE` for other batches.
    pub(crate) in_slot: Vec<usize>,
    /// Remote input → owned positions downstream of it, ascending.
    pub(crate) deps: Vec<Vec<usize>>,
    pub(crate) outs: Vec<OutBatch>,
    pub(crate) rounds: Vec<Round>,
    /// Per peer, the location whose age tracks its progress: its first
    /// batch to us if any (updates double as heartbeats), else its
    /// heartbeat.
    pub(crate) throttle: Vec<LocId>,
    pub(crate) hb_loc: LocId,
    /// True when some peer receives no batch traffic from this partition
    /// and therefore needs explicit heartbeats.
    pub(crate) hb_needed: bool,
    /// Query owner only: the evidence `(source, wanted value)` pairs and
    /// the query node's source.
    pub(crate) query: Option<(Vec<(Src, Value)>, Src)>,
}

impl PartIndex {
    pub(crate) fn new(
        rank: usize,
        net: &Arc<BeliefNetwork>,
        plan: &Plan,
        query: &Query,
        cfg: &ParallelBayesConfig,
        batch_locs: &[LocId],
        hb_locs: &[LocId],
    ) -> PartIndex {
        let owned = plan.owned(rank);
        let mut pos_of = vec![NONE; net.len()];
        for (pos, &v) in owned.iter().enumerate() {
            pos_of[v] = pos;
        }
        let positions = |nodes: &[NodeIdx]| nodes.iter().map(|&v| pos_of[v]).collect::<Vec<_>>();
        let (mut ins, mut outs, mut deps) = (Vec::new(), Vec::new(), Vec::new());
        let (mut in_slot, mut out_slot) =
            (vec![NONE; batch_locs.len()], vec![NONE; batch_locs.len()]);
        for (bid, b) in plan.batches.iter().enumerate() {
            if b.dst == rank {
                in_slot[bid] = ins.len();
                ins.push(InBatch {
                    loc: batch_locs[bid],
                    defaults: b.nodes.iter().map(|&u| plan.defaults[u]).collect(),
                    first_input: deps.len(),
                });
                deps.extend(
                    b.nodes
                        .iter()
                        .map(|&u| positions(plan.dependents_of(rank, u))),
                );
            } else if b.src == rank {
                out_slot[bid] = outs.len();
                outs.push(OutBatch {
                    loc: batch_locs[bid],
                    rows: positions(&b.nodes),
                });
            }
        }
        let src = |u: NodeIdx| match pos_of[u] {
            NONE => {
                let (bid, row) = plan.source_of(rank, u).expect("remote inputs are routed");
                Src::Remote {
                    slot: in_slot[bid],
                    row,
                    default: plan.defaults[u],
                }
            }
            pos => Src::Owned(pos),
        };
        let to_peer = |q: usize| plan.batches.iter().any(|b| b.src == rank && b.dst == q);
        let from_peer = |q: usize| {
            plan.batches
                .iter()
                .position(|b| b.src == q && b.dst == rank)
        };
        let peers = || (0..plan.parts).filter(|&q| q != rank);
        PartIndex {
            rank,
            parts: plan.parts,
            block: cfg.block,
            seed: cfg.sample_seed,
            net: Arc::clone(net),
            inputs: owned
                .iter()
                .map(|&v| {
                    let parents = net.node(v).parents.iter();
                    parents.map(|&u| (src(u), net.node(u).arity)).collect()
                })
                .collect(),
            query: (rank == plan.query_owner).then(|| {
                let evidence = query.evidence.iter().map(|&(e, want)| (src(e), want));
                (evidence.collect(), src(query.node))
            }),
            owned,
            ins,
            in_slot,
            deps,
            outs,
            rounds: plan.schedules[rank]
                .iter()
                .map(|r| Round {
                    compute: positions(&r.compute),
                    writes: r.writes.iter().map(|&bid| out_slot[bid]).collect(),
                    reads_after: r.reads_after.iter().map(|&bid| batch_locs[bid]).collect(),
                })
                .collect(),
            throttle: peers()
                .map(|q| from_peer(q).map_or(hb_locs[q], |bid| batch_locs[bid]))
                .collect(),
            hb_loc: hb_locs[rank],
            hb_needed: peers().any(|q| !to_peer(q)),
        }
    }
}
