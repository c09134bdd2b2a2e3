//! Parallel logic sampling over the DSM: synchronous, fully asynchronous
//! with rollback (anti-messages), and partially asynchronous
//! (`Global_Read`-throttled speculation), as §3.2 of the paper describes.
//!
//! **Iterations are blocks.** One "iteration" samples a block of `B`
//! complete network samples; interface values for the whole block travel
//! in one coalesced batch message (real message-passing samplers batch
//! exactly like this to amortize per-message CPU costs).
//!
//! **Speculation and rollback.** The asynchronous disciplines sample with
//! *default values* for missing remote inputs. Random draws are
//! counter-based (`node_draw(seed, node, sample)`), so recomputing an
//! iteration with corrected inputs reuses the same underlying randomness
//! — rollback is deterministic recomputation. A correction re-publishes a
//! batch under its original age, which is the collapsed form of a
//! TimeWarp anti-message + replacement message pair; receivers diff
//! corrected batches against what they *used* and roll back in turn.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use parking_lot::Mutex;

use nscc_dsm::{Coherence, Directory, DsmNode, DsmStats, DsmWorld, LocId, Retired};
use nscc_msg::MsgConfig;
use nscc_net::Network;
use nscc_obs::{Hub, ObsEvent};
use nscc_sim::{Ctx, SimBuilder, SimError, SimTime};

use crate::cost::BayesCost;
use crate::network::{BeliefNetwork, Value};
use crate::plan::{BatchId, Plan};
use crate::sampling::{node_draw, Query, StopRule, Tally};

/// Wire payload: a block of values for one batch (node-major:
/// `vals[node_pos * block + sample_in_block]`), or empty for heartbeats.
pub type BatchValues = Vec<Value>;

/// How a partition reacts when a received value contradicts what it used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RollbackPolicy {
    /// Time-Warp-style rollback ([2]): roll the process back to the
    /// earliest contradicted iteration and replay *every* recorded
    /// iteration from there forward, re-publishing corrections
    /// (anti-message + replacement pairs). Straying far ahead makes each
    /// rollback proportionally more expensive. Offered as an ablation
    /// (`ablation_rollback` bench).
    Replay,
    /// Per-sample invalidation — the default, and the paper's own §3.2
    /// description ("the value of the child node and the values of all
    /// the nodes ... dependent on this node ... must be invalidated and
    /// recomputed"): only contradicted sample columns are recomputed,
    /// sound because logic-sampling iterations are independent. Runahead
    /// still costs through the bounded rollback window (unconfirmed
    /// records evicted from it are discarded).
    Selective,
}

/// Configuration of one parallel inference run.
#[derive(Debug, Clone)]
pub struct ParallelBayesConfig {
    /// Coherence discipline.
    pub mode: Coherence,
    /// Rollback policy for the speculative disciplines.
    pub rollback: RollbackPolicy,
    /// Stopping rule on the query posterior.
    pub stop: StopRule,
    /// Compute-cost model.
    pub cost: BayesCost,
    /// Samples per iteration block.
    pub block: usize,
    /// Hard cap on iterations per partition.
    pub max_iterations: u64,
    /// Iteration records retained for rollback (older ones freeze).
    pub window: usize,
    /// Seed of the counter-based sampling draws (shared by all
    /// partitions so a (node, sample) pair always draws the same value).
    pub sample_seed: u64,
    /// Optional observability hub: attached to the DSM world, and fed an
    /// `AntiMessage` event for every correction a rollback re-publishes.
    pub obs: Option<Hub>,
}

impl ParallelBayesConfig {
    /// Paper-flavoured defaults for the given mode.
    pub fn new(mode: Coherence) -> Self {
        ParallelBayesConfig {
            mode,
            rollback: RollbackPolicy::Selective,
            stop: StopRule::default(),
            cost: BayesCost::default(),
            block: 8,
            max_iterations: 400_000,
            window: 64,
            sample_seed: 0x5EED,
            obs: None,
        }
    }
}

/// Per-partition counters.
#[derive(Debug, Clone, Default)]
pub struct BayesPartStats {
    /// Partition rank.
    pub rank: usize,
    /// Iterations (blocks) executed, including the initial computation of
    /// each block but not rollback recomputations.
    pub iterations: u64,
    /// Rollback recomputations performed.
    pub rollbacks: u64,
    /// Corrections that arrived for already-frozen iterations (counted,
    /// cannot be applied; see module docs).
    pub late_corrections: u64,
    /// Remote lookups that fell back to default values (speculation).
    pub default_uses: u64,
    /// Individual sample columns resampled by rollbacks.
    pub resampled: u64,
    /// Iteration records evicted from the rollback window while some of
    /// their speculative inputs were still unconfirmed. Their samples can
    /// never be trusted: at the query owner they are removed from the
    /// tally (wasted work — the cost of straying beyond the window).
    pub discarded: u64,
    /// Virtual time at which the partition left its loop.
    pub end_time: SimTime,
}

/// Result of one parallel inference run.
#[derive(Debug, Clone)]
pub struct ParallelBayesResult {
    /// Final posterior estimate at the query owner.
    pub posterior: Vec<f64>,
    /// Accepted samples contributing to the estimate.
    pub accepted: u64,
    /// Total samples drawn (accepted + rejected).
    pub drawn: u64,
    /// Virtual completion time (when the last partition exited).
    pub completion: SimTime,
    /// Per-partition counters.
    pub per_part: Vec<BayesPartStats>,
    /// Aggregate DSM counters.
    pub dsm: DsmStats,
    /// Whether the stop rule was satisfied (vs. the iteration cap).
    pub converged: bool,
}

/// One iteration record retained for rollback.
struct IterRecord {
    /// Owned node values, owned-major (`owned_pos * block + s`).
    values: Vec<Value>,
    /// Per incoming batch: `Some(batch values)` actually used (shared
    /// with the DSM version window, never copied), or `None` when
    /// defaults were used.
    used: HashMap<BatchId, Option<Arc<BatchValues>>>,
    /// Outgoing batch values as last published.
    published: HashMap<BatchId, BatchValues>,
    /// Query-owner only: per sample, `Some(query value)` if the evidence
    /// matched (accepted), else `None`.
    contribution: Vec<Option<Value>>,
}

/// Everything one partition's process needs.
struct PartRuntime {
    rank: usize,
    net: Arc<BeliefNetwork>,
    plan: Arc<Plan>,
    query: Arc<Query>,
    cfg: ParallelBayesConfig,
    /// Owned nodes in topological order and their dense positions.
    owned: Vec<usize>,
    owned_pos: HashMap<usize, usize>,
    /// LocId of each batch (index = BatchId) and each heartbeat.
    batch_locs: Arc<Vec<LocId>>,
    hb_locs: Arc<Vec<LocId>>,
    records: BTreeMap<u64, IterRecord>,
    tally: Tally,
    stats: BayesPartStats,
    /// Shared stop flag (set by the query owner when the CI rule fires).
    stop_flag: Arc<Mutex<bool>>,
    /// True when some peer receives no batch traffic from this partition
    /// and therefore needs explicit heartbeats.
    hb_needed: bool,
}

impl PartRuntime {
    /// The location whose age tracks peer `q`'s progress: its first batch
    /// to us if any (updates double as heartbeats), else its heartbeat.
    fn throttle_loc(&self, q: usize) -> LocId {
        self.plan
            .batches
            .iter()
            .enumerate()
            .find(|(_, b)| b.src == q && b.dst == self.rank)
            .map(|(bid, _)| self.batch_locs[bid])
            .unwrap_or(self.hb_locs[q])
    }
    fn in_batches(&self) -> impl Iterator<Item = BatchId> + '_ {
        (0..self.plan.batches.len()).filter(move |&b| self.plan.batches[b].dst == self.rank)
    }

    fn out_batches(&self) -> impl Iterator<Item = BatchId> + '_ {
        (0..self.plan.batches.len()).filter(move |&b| self.plan.batches[b].src == self.rank)
    }

    /// Value of node `u` for sample `s` of iteration `iter`, resolving
    /// remote nodes through the given record's `used` map (fetching from
    /// the DSM window on first use).
    fn lookup(&mut self, node: &DsmNode<BatchValues>, iter: u64, s: usize, u: usize) -> Value {
        if let Some(&pos) = self.owned_pos.get(&u) {
            let rec = self
                .records
                .get(&iter)
                .expect("record exists during compute");
            return rec.values[pos * self.cfg.block + s];
        }
        let (bid, idx) = self.plan.value_index[self.rank][&u];
        let loc = self.batch_locs[bid];
        let block = self.cfg.block;
        let rec = self
            .records
            .get_mut(&iter)
            .expect("record exists during compute");
        let used = rec
            .used
            .entry(bid)
            .or_insert_with(|| node.get_version(loc, iter).cloned());
        match used {
            Some(vals) => vals[idx * block + s],
            None => {
                self.stats.default_uses += 1;
                self.plan.defaults[u]
            }
        }
    }

    /// (Re)compute the given sample columns of iteration `iter`: refresh
    /// remote inputs when `refetch`, resample owned nodes for those
    /// columns — all of them, or only the per-column `affected` dependent
    /// sets — refresh their tally contribution, and return the outgoing
    /// batches whose content changed. The caller charges CPU for the
    /// node×sample resamples it requested.
    fn recompute_samples(
        &mut self,
        node: &DsmNode<BatchValues>,
        iter: u64,
        samples: &[usize],
        refetch: bool,
        affected: Option<&BTreeMap<usize, Vec<usize>>>,
    ) -> Vec<(BatchId, BatchValues)> {
        let block = self.cfg.block;
        let owned_len = self.owned.len();
        if !self.records.contains_key(&iter) {
            self.records.insert(
                iter,
                IterRecord {
                    values: vec![0; owned_len * block],
                    used: HashMap::new(),
                    published: HashMap::new(),
                    contribution: vec![None; block],
                },
            );
        } else if refetch {
            // Rollback: refresh every remote input from the DSM window.
            let bids: Vec<BatchId> = self.in_batches().collect();
            let rec = self.records.get_mut(&iter).expect("just checked");
            rec.used.clear();
            for bid in bids {
                let v = node.get_version(self.batch_locs[bid], iter).cloned();
                rec.used.insert(bid, v);
            }
        }

        // Resample owned nodes in topological order for the given columns
        // (dependent subsets are precomputed in topological order too).
        let owned = self.owned.clone();
        for &s in samples {
            let nodes: &[usize] = match affected {
                Some(map) => map.get(&s).map(|v| v.as_slice()).unwrap_or(&owned),
                None => &owned,
            };
            let sample_index = (iter - 1) * block as u64 + s as u64 + 1;
            for &v in nodes.to_vec().iter() {
                // Gather parent values into a scratch assignment.
                let parents = self.net.node(v).parents.clone();
                let mut asg = vec![0u8; self.net.len()];
                for &u in &parents {
                    asg[u] = self.lookup(node, iter, s, u);
                }
                let u01 = node_draw(self.cfg.sample_seed, v, sample_index);
                let val = self.net.sample_node(v, &asg, u01);
                let pos = self.owned_pos[&v];
                let rec = self.records.get_mut(&iter).expect("record exists");
                rec.values[pos * block + s] = val;
            }
        }

        // Tally at the query owner: subtract the old contribution, add
        // the new (the anti-sample side of rollback).
        if self.rank == self.plan.query_owner {
            let evidence = self.query.evidence.clone();
            let qnode = self.query.node;
            for &s in samples {
                let mut ok = true;
                for &(e, want) in &evidence {
                    if self.lookup(node, iter, s, e) != want {
                        ok = false;
                        break;
                    }
                }
                let new_c = if ok {
                    Some(self.lookup(node, iter, s, qnode))
                } else {
                    None
                };
                let rec = self.records.get_mut(&iter).expect("record exists");
                let old_c = std::mem::replace(&mut rec.contribution[s], new_c);
                if let Some(v) = old_c {
                    self.tally.counts[v as usize] -= 1;
                }
                if let Some(v) = new_c {
                    self.tally.counts[v as usize] += 1;
                }
            }
        }

        // Detect changed outgoing batches.
        let mut changed = Vec::new();
        let out: Vec<BatchId> = self.out_batches().collect();
        for bid in out {
            let vals = self.collect_batch(bid, iter);
            let rec = self.records.get_mut(&iter).expect("record exists");
            if rec.published.get(&bid) != Some(&vals) {
                rec.published.insert(bid, vals.clone());
                changed.push((bid, vals));
            }
        }
        changed
    }

    /// Gather the current values of an outgoing batch from the record.
    fn collect_batch(&self, bid: BatchId, iter: u64) -> BatchValues {
        let block = self.cfg.block;
        let rec = self.records.get(&iter).expect("record exists");
        let b = &self.plan.batches[bid];
        let mut vals = Vec::with_capacity(b.nodes.len() * block);
        for &u in &b.nodes {
            let pos = self.owned_pos[&u];
            vals.extend_from_slice(&rec.values[pos * block..(pos + 1) * block]);
        }
        vals
    }

    /// Changed cells of batch `bid` at iteration `age`: for each sample
    /// column whose *effective* value (actual-or-default per node) differs
    /// between what the record used and what the DSM window now holds,
    /// the set of input nodes that changed.
    fn changed_cells(
        &self,
        bid: BatchId,
        used: &Option<Arc<BatchValues>>,
        current: &Option<Arc<BatchValues>>,
    ) -> Vec<(usize, Vec<usize>)> {
        let block = self.cfg.block;
        let nodes = &self.plan.batches[bid].nodes;
        (0..block)
            .filter_map(|s| {
                let changed: Vec<usize> = nodes
                    .iter()
                    .enumerate()
                    .filter_map(|(idx, &u)| {
                        let uv = used
                            .as_ref()
                            .map(|v| v[idx * block + s])
                            .unwrap_or(self.plan.defaults[u]);
                        let cv = current
                            .as_ref()
                            .map(|v| v[idx * block + s])
                            .unwrap_or(self.plan.defaults[u]);
                        (uv != cv).then_some(u)
                    })
                    .collect();
                (!changed.is_empty()).then_some((s, changed))
            })
            .collect()
    }

    /// Drain arrived updates; roll back any recorded iteration whose used
    /// inputs no longer match the DSM window. Publishes corrections.
    fn process_updates(&mut self, ctx: &mut Ctx, node: &mut DsmNode<BatchValues>) {
        node.drain(ctx);
        let log = node.take_update_log();
        if log.is_empty() {
            return;
        }
        let frozen_before = self.records.keys().next().copied().unwrap_or(0);
        // Iteration -> column -> changed input nodes.
        let mut dirty: BTreeMap<u64, BTreeMap<usize, Vec<usize>>> = BTreeMap::new();
        for (loc, age) in log {
            let bid = loc.index();
            if bid >= self.plan.batches.len() {
                continue; // heartbeat
            }
            if age == nscc_dsm::RETIRE_AGE {
                continue;
            }
            match self.records.get(&age) {
                Some(rec) => {
                    if let Some(used) = rec.used.get(&bid) {
                        let current = node.get_version(loc, age).cloned();
                        let cells = self.changed_cells(bid, used, &current);
                        if cells.is_empty() {
                            // Confirmation: the arrival matches what we
                            // speculated — mark the input as settled.
                            if used.is_none() {
                                self.records
                                    .get_mut(&age)
                                    .expect("record exists")
                                    .used
                                    .insert(bid, current);
                            }
                        } else {
                            let entry = dirty.entry(age).or_default();
                            for (c, inputs) in cells {
                                let slot = entry.entry(c).or_default();
                                for u in inputs {
                                    if !slot.contains(&u) {
                                        slot.push(u);
                                    }
                                }
                            }
                        }
                    }
                }
                None => {
                    if age < frozen_before {
                        self.stats.late_corrections += 1;
                    }
                    // Otherwise: a future iteration we have not computed
                    // yet; it will pick the value up at compute time.
                }
            }
        }
        if dirty.is_empty() {
            return;
        }
        // Work list under the chosen policy: per iteration, the columns to
        // redo and (for Selective) the dependent nodes per column.
        let work: Vec<(u64, Vec<usize>, Option<BTreeMap<usize, Vec<usize>>>)> =
            match self.cfg.rollback {
                RollbackPolicy::Selective => dirty
                    .into_iter()
                    .map(|(age, cells)| {
                        let cols: Vec<usize> = cells.keys().copied().collect();
                        let affected: BTreeMap<usize, Vec<usize>> = cells
                            .into_iter()
                            .map(|(c, inputs)| {
                                let mut nodes: Vec<usize> = inputs
                                    .iter()
                                    .flat_map(|u| {
                                        self.plan.dependents[self.rank]
                                            .get(u)
                                            .cloned()
                                            .unwrap_or_default()
                                    })
                                    .collect();
                                nodes.sort_unstable();
                                nodes.dedup();
                                (c, nodes)
                            })
                            .collect();
                        (age, cols, Some(affected))
                    })
                    .collect(),
                RollbackPolicy::Replay => {
                    // Roll back to the earliest contradiction and replay
                    // every recorded iteration from there forward, in full.
                    let from = *dirty.keys().next().expect("dirty nonempty");
                    let all: Vec<usize> = (0..self.cfg.block).collect();
                    self.records
                        .keys()
                        .copied()
                        .filter(|&a| a >= from)
                        .map(|a| (a, all.clone(), None))
                        .collect()
                }
            };
        for (age, mut cols, affected) in work {
            cols.sort_unstable();
            self.stats.rollbacks += 1;
            // Rollback recomputation costs real CPU, proportional to the
            // node×sample resamples actually performed.
            let resamples: u64 = match &affected {
                Some(map) => map.values().map(|v| v.len() as u64).sum(),
                None => self.owned.len() as u64 * cols.len() as u64,
            };
            self.stats.resampled += resamples;
            let changed = self.recompute_samples(node, age, &cols, true, affected.as_ref());
            ctx.advance(self.cfg.cost.iteration_cost(resamples));
            for (bid, vals) in changed {
                // Each correction is the collapsed anti-message +
                // replacement pair of the Time-Warp protocol.
                if let Some(hub) = &self.cfg.obs {
                    hub.emit(ObsEvent::AntiMessage {
                        t_ns: ctx.now().as_nanos(),
                        rank: self.rank as u32,
                        loc: self.batch_locs[bid].0,
                        age,
                    });
                }
                node.write(ctx, self.batch_locs[bid], vals, age);
            }
        }
    }

    /// Drop records older than the window. A record whose speculative
    /// inputs were all *confirmed* folds its tally contribution into the
    /// permanent counts; an unconfirmed (unsettled) record is wasted —
    /// its contribution is withdrawn, because no correction can reach it
    /// anymore. This is the real cost of straying far ahead: speculation
    /// beyond the rollback window produces samples that cannot be
    /// trusted.
    fn freeze(&mut self, current: u64) {
        let horizon = current.saturating_sub(self.cfg.window as u64);
        let in_bids: Vec<BatchId> = self.in_batches().collect();
        while let Some((&oldest, _)) = self.records.iter().next() {
            if oldest >= horizon {
                break;
            }
            let rec = self.records.remove(&oldest).expect("entry exists");
            let settled = in_bids
                .iter()
                .all(|b| matches!(rec.used.get(b), Some(Some(_))));
            if !settled {
                self.stats.discarded += 1;
                if self.rank == self.plan.query_owner {
                    for c in rec.contribution.iter().flatten() {
                        self.tally.counts[*c as usize] -= 1;
                    }
                }
            }
        }
    }
}

/// Run a full parallel inference experiment: builds the plan, the DSM
/// world over `network`, spawns one simulated process per partition, and
/// returns the aggregated result.
pub fn run_parallel_inference(
    net: Arc<BeliefNetwork>,
    query: Query,
    parts: usize,
    cfg: ParallelBayesConfig,
    network: Network,
    msg_cfg: MsgConfig,
    sim_seed: u64,
) -> Result<ParallelBayesResult, SimError> {
    let plan = Arc::new(Plan::new(&net, parts, sim_seed ^ 0x9A97, &query));
    let query = Arc::new(query);

    // Directory: one location per batch, then one heartbeat per partition.
    let mut dir = Directory::new();
    let mut batch_locs = Vec::with_capacity(plan.batches.len());
    for (bid, b) in plan.batches.iter().enumerate() {
        batch_locs.push(dir.add(format!("batch{bid}_{}to{}", b.src, b.dst), b.src, [b.dst]));
    }
    let mut hb_locs = Vec::with_capacity(parts);
    for p in 0..parts {
        hb_locs.push(dir.add(format!("hb{p}"), p, 0..parts));
    }
    let batch_locs = Arc::new(batch_locs);
    let hb_locs = Arc::new(hb_locs);

    let mut world: DsmWorld<BatchValues> =
        DsmWorld::new(network, parts, msg_cfg, dir).with_history(2 * cfg.window + 8);
    if let Some(hub) = &cfg.obs {
        world = world.with_obs(hub.clone());
    }
    for &l in batch_locs.iter().chain(hb_locs.iter()) {
        world.set_initial(l, Vec::new());
    }

    let stop_flag = Arc::new(Mutex::new(false));
    let results: Arc<Mutex<Vec<Option<(BayesPartStats, Option<Tally>, bool)>>>> =
        Arc::new(Mutex::new(vec![None; parts]));

    let mut sim = SimBuilder::new(sim_seed);
    // The sampling profiler is driven by the scheduler; only attach it
    // there when profiling is on, so plain json/trace runs keep their
    // span-free reports byte-for-byte.
    // Wall-clock scheduler accounting is span-free and kept outside the
    // deterministic report sections, so it attaches whenever requested.
    if let Some(hub) = cfg.obs.as_ref().filter(|h| h.wants_wall()) {
        sim.attach_wall(hub.clone());
    }
    if let Some(hub) = cfg.obs.as_ref().filter(|h| h.profile_period() > 0) {
        sim.attach_obs(hub.clone());
    }
    for rank in 0..parts {
        let node = world.node(rank);
        let owned = plan.owned(rank);
        let owned_pos: HashMap<usize, usize> =
            owned.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let rt = PartRuntime {
            rank,
            net: Arc::clone(&net),
            plan: Arc::clone(&plan),
            query: Arc::clone(&query),
            cfg: cfg.clone(),
            owned,
            owned_pos,
            batch_locs: Arc::clone(&batch_locs),
            hb_locs: Arc::clone(&hb_locs),
            records: BTreeMap::new(),
            tally: Tally::new(net.node(query.node).arity),
            stats: BayesPartStats {
                rank,
                ..BayesPartStats::default()
            },
            stop_flag: Arc::clone(&stop_flag),
            hb_needed: (0..parts)
                .any(|q| q != rank && !plan.batches.iter().any(|b| b.src == rank && b.dst == q)),
        };
        let results = Arc::clone(&results);
        sim.spawn(format!("bayes{rank}"), move |ctx| {
            let out = partition_body(ctx, node, rt);
            results.lock()[rank] = Some(out);
        });
    }
    let report = sim.run()?;

    let mut per_part = Vec::with_capacity(parts);
    let mut tally_opt = None;
    let mut converged = false;
    for slot in results.lock().drain(..) {
        let (stats, t, c) = slot.expect("every partition reports");
        per_part.push(stats);
        if let Some(t) = t {
            tally_opt = Some(t);
            converged = c;
        }
    }
    let tally = tally_opt.expect("query owner reports a tally");
    Ok(ParallelBayesResult {
        posterior: tally.estimate(),
        accepted: tally.accepted(),
        drawn: tally.drawn,
        completion: report.end_time,
        per_part,
        dsm: world.total_stats(),
        converged,
    })
}

/// The body of one partition's simulated process.
fn partition_body(
    ctx: &mut Ctx,
    mut node: DsmNode<BatchValues>,
    mut rt: PartRuntime,
) -> (BayesPartStats, Option<Tally>, bool) {
    let parts = rt.plan.parts;
    let rank = rt.rank;
    let is_query_owner = rank == rt.plan.query_owner;
    let mode = rt.cfg.mode;
    let block = rt.cfg.block as u64;
    let mut converged = false;
    let mut iter: u64 = 0;

    'outer: while iter < rt.cfg.max_iterations {
        if *rt.stop_flag.lock() {
            break;
        }
        iter += 1;

        // Throttle: the Global_Read gate on every peer's progress. The
        // synchronous discipline is the age-0 case of the same gate. The
        // gate reads the peer's first batch location when one exists
        // (every update doubles as a progress heartbeat), falling back to
        // a dedicated heartbeat location for peers that send us nothing.
        if parts > 1 {
            let throttle_age = match mode {
                Coherence::Synchronous => Some(0),
                Coherence::PartialAsync { age } => Some(age),
                Coherence::FullyAsync => None,
            };
            if let Some(a) = throttle_age {
                for q in 0..parts {
                    if q != rank {
                        // Require progress_q >= (iter-1) - a.
                        let loc = rt.throttle_loc(q);
                        let (_, _) = node.global_read(ctx, loc, iter.saturating_sub(1), a);
                    }
                }
            }
        }

        // Apply any corrections that arrived while we were away.
        if !matches!(mode, Coherence::Synchronous) {
            rt.process_updates(ctx, &mut node);
        }

        // Compute the block round by round.
        rt.compute_iteration_start(iter);
        for r in 0..rt.plan.rounds {
            // Wait for (sync) or opportunistically drain (async/partial)
            // the batches produced by peers in earlier rounds.
            if r > 0 && parts > 1 {
                let reads: Vec<BatchId> = rt.plan.schedules[rank][r - 1].reads_after.clone();
                for bid in reads {
                    if matches!(mode, Coherence::Synchronous) {
                        match node.wait_version(ctx, rt.batch_locs[bid], iter) {
                            Ok(_) => {}
                            Err(Retired) => break 'outer,
                        }
                    }
                }
                if !matches!(mode, Coherence::Synchronous) {
                    node.drain(ctx);
                }
            }
            let compute: Vec<usize> = rt.plan.schedules[rank][r].compute.clone();
            if compute.is_empty() {
                continue;
            }
            rt.compute_round(&node, iter, &compute);
            let cost = rt
                .cfg
                .cost
                .iteration_cost_jittered(compute.len() as u64 * block, ctx.rng());
            ctx.advance(cost);
            // Publish this round's outgoing batches.
            let writes: Vec<BatchId> = rt.plan.schedules[rank][r].writes.clone();
            for bid in writes {
                let vals = rt.collect_batch(bid, iter);
                rt.records
                    .get_mut(&iter)
                    .expect("record exists")
                    .published
                    .insert(bid, vals.clone());
                node.write(ctx, rt.batch_locs[bid], vals, iter);
            }
        }
        // The synchronous discipline must also have the *last* round's
        // incoming batches (evidence forwarded to the query owner is
        // consumed by the tally, not by compute) before tallying.
        if matches!(mode, Coherence::Synchronous) && parts > 1 {
            let reads: Vec<BatchId> = rt.plan.schedules[rank][rt.plan.rounds - 1]
                .reads_after
                .clone();
            for bid in reads {
                match node.wait_version(ctx, rt.batch_locs[bid], iter) {
                    Ok(_) => {}
                    Err(Retired) => break 'outer,
                }
            }
            // Sync never rolls back; keep the log from accumulating.
            let _ = node.take_update_log();
        }
        rt.finish_tally(&node, iter);
        rt.stats.iterations = iter;
        rt.freeze(iter);

        // Heartbeat: "I completed iteration `iter`" — only sent to peers
        // that receive no batch traffic from us (batches already carry
        // the progress signal).
        if rt.hb_needed {
            node.write(ctx, rt.hb_locs[rank], Vec::new(), iter);
        }

        // Convergence detection at the query owner.
        if is_query_owner {
            rt.tally.drawn = iter * block;
            if rt.tally.converged(&rt.cfg.stop) {
                converged = true;
                *rt.stop_flag.lock() = true;
            }
        }
    }

    // Retire owned locations so blocked peers unblock and observe
    // termination.
    if parts > 1 {
        let outs: Vec<BatchId> = rt.out_batches().collect();
        for bid in outs {
            node.retire(ctx, rt.batch_locs[bid], Vec::new());
        }
        node.retire(ctx, rt.hb_locs[rank], Vec::new());
    }
    rt.stats.end_time = ctx.now();

    let tally = if is_query_owner {
        let mut t = rt.tally.clone();
        t.drawn = rt.stats.iterations * block;
        Some(t)
    } else {
        None
    };
    (rt.stats, tally, converged)
}

impl PartRuntime {
    /// Ensure the record for `iter` exists (fresh compute path).
    fn compute_iteration_start(&mut self, iter: u64) {
        let block = self.cfg.block;
        let owned_len = self.owned.len();
        self.records.entry(iter).or_insert_with(|| IterRecord {
            values: vec![0; owned_len * block],
            used: HashMap::new(),
            published: HashMap::new(),
            contribution: vec![None; block],
        });
    }

    /// Sample the given owned nodes (one round) for every sample in the
    /// block of `iter`.
    fn compute_round(&mut self, node: &DsmNode<BatchValues>, iter: u64, compute: &[usize]) {
        let block = self.cfg.block;
        for s in 0..block {
            let sample_index = (iter - 1) * block as u64 + s as u64 + 1;
            for &v in compute {
                let parents = self.net.node(v).parents.clone();
                let mut asg = vec![0u8; self.net.len()];
                for &u in &parents {
                    asg[u] = self.lookup(node, iter, s, u);
                }
                let u01 = node_draw(self.cfg.sample_seed, v, sample_index);
                let val = self.net.sample_node(v, &asg, u01);
                let pos = self.owned_pos[&v];
                let rec = self.records.get_mut(&iter).expect("record exists");
                rec.values[pos * block + s] = val;
            }
        }
    }

    /// Compute the tally contribution of `iter` at the query owner.
    fn finish_tally(&mut self, node: &DsmNode<BatchValues>, iter: u64) {
        if self.rank != self.plan.query_owner {
            return;
        }
        let block = self.cfg.block;
        let evidence = self.query.evidence.clone();
        let qnode = self.query.node;
        let mut newc: Vec<Option<Value>> = vec![None; block];
        for (s, slot) in newc.iter_mut().enumerate() {
            let mut ok = true;
            for &(e, want) in &evidence {
                if self.lookup(node, iter, s, e) != want {
                    ok = false;
                    break;
                }
            }
            if ok {
                *slot = Some(self.lookup(node, iter, s, qnode));
            }
        }
        let rec = self.records.get_mut(&iter).expect("record exists");
        let old = std::mem::replace(&mut rec.contribution, newc.clone());
        for s in 0..block {
            if let Some(v) = old[s] {
                self.tally.counts[v as usize] -= 1;
            }
            if let Some(v) = newc[s] {
                self.tally.counts[v as usize] += 1;
            }
        }
    }
}
