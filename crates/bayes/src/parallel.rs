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
//! — rollback is deterministic recomputation. Rollback is per-sample
//! invalidation, the paper's own §3.2 description ("the value of the child
//! node and the values of all the nodes ... dependent on this node ... must
//! be invalidated and recomputed"): only the contradicted sample columns,
//! and in them only the nodes downstream of the changed inputs, are
//! recomputed, which is sound because logic-sampling iterations are
//! independent. Runahead still costs through the bounded rollback window
//! (unconfirmed records evicted from it are discarded). A correction
//! re-publishes a batch under its original age, which is the collapsed
//! form of a TimeWarp anti-message + replacement message pair; receivers
//! diff corrected batches against what they *used* and roll back in turn.
//!
//! **Layout.** The hot loop touches dense arrays only: the per-rank
//! `PartIndex` (`index.rs`) resolves nodes to owned positions and batches
//! to slots once per run, iteration records live in a deque of consecutive
//! iterations, and a fresh round and a rollback share one sampling loop and
//! one tally loop (`IterRecord::sample_columns` / `tally_columns`). See
//! DESIGN.md §3, "Parallel logic sampling".

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;

use nscc_dsm::{Coherence, Directory, DsmNode, DsmStats, DsmWorld};
use nscc_msg::MsgConfig;
use nscc_net::Network;
use nscc_obs::{Hub, ObsEvent};
use nscc_sim::{Ctx, SimBuilder, SimError, SimTime};

use crate::cost::BayesCost;
use crate::index::{PartIndex, Src, NONE};
use crate::network::{BeliefNetwork, Value};
use crate::plan::Plan;
use crate::sampling::{node_draw, Query, StopRule, Tally};

/// Wire payload: a block of values for one batch (node-major:
/// `vals[node_pos * block + sample_in_block]`), or empty for heartbeats.
pub type BatchValues = Vec<Value>;

/// Configuration of one parallel inference run.
#[derive(Debug, Clone)]
pub struct ParallelBayesConfig {
    /// Coherence discipline.
    pub mode: Coherence,
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
    iter: u64,
    /// Owned node values, position-major (`pos * block + s`).
    values: Vec<Value>,
    /// Per in-slot: `None` until the record first reads that batch, then
    /// what it read the DSM window to hold at that moment — the batch
    /// (shared with the window, never copied) or `None` for defaults.
    used: Vec<Option<Option<Arc<BatchValues>>>>,
    /// Per out-slot: the batch as last published (empty before that).
    published: Vec<BatchValues>,
    /// Query-owner only: per sample, `Some(query value)` if the evidence
    /// matched (accepted), else `None`.
    contribution: Vec<Option<Value>>,
}

impl IterRecord {
    /// Value of input `src` in column `s`. A remote batch is fetched from
    /// the DSM window at its first use by this record and reused
    /// thereafter; every lookup that falls back to the default counts as
    /// a default use.
    fn input(
        &mut self,
        idx: &PartIndex,
        node: &DsmNode<BatchValues>,
        src: Src,
        s: usize,
        default_uses: &mut u64,
    ) -> Value {
        match src {
            Src::Owned(pos) => self.values[pos * idx.block + s],
            Src::Remote { slot, row, default } => {
                let fetch = || node.get_version(idx.ins[slot].loc, self.iter).cloned();
                match self.used[slot].get_or_insert_with(fetch) {
                    Some(vals) => vals[row * idx.block + s],
                    None => {
                        *default_uses += 1;
                        default
                    }
                }
            }
        }
    }

    /// (Re)sample the owned `nodes` (positions, topological order) for
    /// columns `cols`. The one sampling loop: a round of a fresh iteration
    /// and a rollback differ only in the nodes and columns they pass.
    /// Node-major, so one CPT and one parent list stay hot, and each
    /// input is resolved once per node — to an owned row, a fetched batch
    /// row or its default — then folded into every column's CPT row
    /// index in `combo`. Draws are counter-based and nothing yields in
    /// here, so the order is unobservable; an empty `cols` fetches
    /// nothing, so first-use fetch stays a function of the visited cells.
    fn sample_columns(
        &mut self,
        idx: &PartIndex,
        node: &DsmNode<BatchValues>,
        nodes: &[usize],
        cols: Range<usize>,
        combo: &mut Vec<usize>,
        default_uses: &mut u64,
    ) {
        if cols.is_empty() {
            return;
        }
        let block = idx.block;
        let first_sample = (self.iter - 1) * block as u64 + 1;
        for &pos in nodes {
            combo.clear();
            combo.resize(cols.len(), 0);
            for &(src, arity) in &idx.inputs[pos] {
                // The input's row of this record, or its default value.
                let row = match src {
                    Src::Owned(p) => Ok(&self.values[p * block..(p + 1) * block]),
                    Src::Remote { slot, row, default } => {
                        let fetch = || node.get_version(idx.ins[slot].loc, self.iter).cloned();
                        let vals = self.used[slot].get_or_insert_with(fetch).as_deref();
                        vals.map(|v| &v[row * block..(row + 1) * block])
                            .ok_or(default)
                    }
                };
                match row {
                    Ok(row) => {
                        for (c, &x) in combo.iter_mut().zip(&row[cols.clone()]) {
                            *c = *c * arity + x as usize;
                        }
                    }
                    Err(default) => {
                        *default_uses += cols.len() as u64;
                        for c in combo.iter_mut() {
                            *c = *c * arity + default as usize;
                        }
                    }
                }
            }
            let v = idx.owned[pos];
            let out = &mut self.values[pos * block..(pos + 1) * block][cols.clone()];
            for ((x, &c), s) in out.iter_mut().zip(combo.iter()).zip(cols.clone()) {
                let u01 = node_draw(idx.seed, v, first_sample + s as u64);
                *x = idx.net.sample_combo(v, c, u01);
            }
        }
    }

    /// Refresh the tally contribution of columns `cols` at the query
    /// owner: subtract the old contribution, add the new (the anti-sample
    /// side of rollback; a fresh record has no old one).
    fn tally_columns(
        &mut self,
        idx: &PartIndex,
        node: &DsmNode<BatchValues>,
        cols: Range<usize>,
        tally: &mut Tally,
        default_uses: &mut u64,
    ) {
        let Some((evidence, query)) = &idx.query else {
            return;
        };
        for s in cols {
            let accepted = evidence
                .iter()
                .all(|&(e, want)| self.input(idx, node, e, s, default_uses) == want);
            let new = accepted.then(|| self.input(idx, node, *query, s, default_uses));
            let old = std::mem::replace(&mut self.contribution[s], new);
            if let Some(v) = old {
                tally.counts[v as usize] -= 1;
            }
            if let Some(v) = new {
                tally.counts[v as usize] += 1;
            }
        }
    }

    /// Gather outgoing batch `slot` into `scratch`; if it differs from
    /// what the record last published (always, for a fresh record) note
    /// it as published and return the payload to write.
    fn publish(
        &mut self,
        idx: &PartIndex,
        slot: usize,
        scratch: &mut BatchValues,
    ) -> Option<BatchValues> {
        scratch.clear();
        for &pos in &idx.outs[slot].rows {
            scratch.extend_from_slice(&self.values[pos * idx.block..(pos + 1) * idx.block]);
        }
        (self.published[slot] != *scratch).then(|| {
            self.published[slot].clone_from(scratch);
            scratch.clone()
        })
    }
}

/// Changed cells of in-batch `slot` at iteration `age`: every
/// `(age, column, input)` whose *effective* value (actual-or-default)
/// differs between what the record `used` and what the DSM window holds
/// `now`, appended to `dirty`.
fn changed_cells(
    idx: &PartIndex,
    (slot, age): (usize, u64),
    used: Option<&BatchValues>,
    now: Option<&BatchValues>,
    dirty: &mut Vec<(u64, usize, usize)>,
) {
    let batch = &idx.ins[slot];
    for (row, &default) in batch.defaults.iter().enumerate() {
        let at = |vals: Option<&BatchValues>, s| vals.map_or(default, |v| v[row * idx.block + s]);
        let changed = (0..idx.block).filter(|&s| at(used, s) != at(now, s));
        dirty.extend(changed.map(|s| (age, s, batch.first_input + row)));
    }
}

/// Everything one partition's process mutates (its `PartIndex` travels
/// beside it, read-only).
struct PartRuntime {
    cfg: ParallelBayesConfig,
    /// The rollback window: consecutive iterations, oldest first.
    records: VecDeque<IterRecord>,
    /// Evicted records, kept for their buffers.
    spare: Vec<IterRecord>,
    tally: Tally,
    stats: BayesPartStats,
    /// Shared stop flag: set by the query owner when the CI rule fires,
    /// read by every partition at the top of its loop.
    stop_flag: Rc<Cell<bool>>,
    /// Scratch: `(iteration, column, remote input)` cells whose effective
    /// value changed, the positions one such column must resample, the
    /// batch being gathered, and per sampled column its CPT row index.
    dirty: Vec<(u64, usize, usize)>,
    nodes: Vec<usize>,
    batch: BatchValues,
    combo: Vec<usize>,
}

impl PartRuntime {
    /// Open the record of iteration `iter` (the one after the newest).
    fn begin_iteration(&mut self, idx: &PartIndex, iter: u64) {
        if let Some(newest) = self.records.back() {
            assert_eq!(
                newest.iter + 1,
                iter,
                "the window holds consecutive iterations"
            );
        }
        let mut rec = self.spare.pop().unwrap_or_else(|| IterRecord {
            iter,
            values: vec![0; idx.owned.len() * idx.block],
            used: vec![None; idx.ins.len()],
            published: vec![Vec::new(); idx.outs.len()],
            contribution: vec![None; idx.block],
        });
        rec.iter = iter;
        self.records.push_back(rec);
    }

    /// Drain arrived updates; roll back any recorded iteration whose used
    /// inputs no longer match the DSM window. Publishes corrections.
    fn process_updates(&mut self, idx: &PartIndex, ctx: &mut Ctx, node: &mut DsmNode<BatchValues>) {
        node.drain(ctx);
        let log = node.take_update_log();
        let first = self.records.front().map_or(0, |r| r.iter);
        self.dirty.clear();
        for (loc, age) in log {
            // Only locations this rank reads are logged: its in-batches
            // and, past every batch location, the heartbeats.
            let Some(&slot) = idx.in_slot.get(loc.index()) else {
                continue;
            };
            if age == nscc_dsm::RETIRE_AGE {
                continue;
            }
            let at = age.checked_sub(first).map_or(NONE, |i| i as usize);
            let Some(rec) = self.records.get_mut(at) else {
                // Frozen already, or a future iteration that will pick
                // the value up at compute time.
                self.stats.late_corrections += u64::from(age < first);
                continue;
            };
            let Some(used) = &rec.used[slot] else {
                continue;
            };
            let now = node.get_version(loc, age);
            let before = self.dirty.len();
            let (used, now_vals) = (used.as_deref(), now.map(|v| &**v));
            changed_cells(idx, (slot, age), used, now_vals, &mut self.dirty);
            if self.dirty.len() == before && used.is_none() {
                // Confirmation: the arrival matches what we speculated —
                // mark the input as settled.
                rec.used[slot] = Some(now.cloned());
            }
        }
        if self.dirty.is_empty() {
            return;
        }
        self.dirty.sort_unstable();
        self.dirty.dedup();
        let dirty = std::mem::take(&mut self.dirty);
        for cells in dirty.chunk_by(|a, b| a.0 == b.0) {
            self.rollback(idx, ctx, node, cells[0].0, cells);
        }
        self.dirty = dirty;
    }

    /// Recompute the record of iteration `age` against the DSM window as
    /// it is now — only the nodes downstream of the changed `cells`, per
    /// column — and re-publish the outgoing batches whose content changed.
    fn rollback(
        &mut self,
        idx: &PartIndex,
        ctx: &mut Ctx,
        node: &mut DsmNode<BatchValues>,
        age: u64,
        cells: &[(u64, usize, usize)],
    ) {
        let first = self.records[0].iter;
        let rec = &mut self.records[(age - first) as usize];
        let (default_uses, combo) = (&mut self.stats.default_uses, &mut self.combo);
        self.stats.rollbacks += 1;
        for (used, batch) in rec.used.iter_mut().zip(&idx.ins) {
            *used = Some(node.get_version(batch.loc, age).cloned());
        }
        // Rollback recomputation costs real CPU, proportional to the
        // node×sample resamples actually performed.
        let mut resamples = 0;
        let mut redo = |nodes: &[usize], cols: Range<usize>| {
            resamples += (nodes.len() * cols.len()) as u64;
            rec.sample_columns(idx, node, nodes, cols.clone(), combo, default_uses);
            rec.tally_columns(idx, node, cols, &mut self.tally, default_uses);
        };
        for col in cells.chunk_by(|a, b| a.1 == b.1) {
            self.nodes.clear();
            for &(_, _, input) in col {
                self.nodes.extend_from_slice(&idx.deps[input]);
            }
            self.nodes.sort_unstable();
            self.nodes.dedup();
            redo(&self.nodes, col[0].1..col[0].1 + 1);
        }
        self.stats.resampled += resamples;
        ctx.advance(self.cfg.cost.iteration_cost(resamples));
        for (slot, out) in idx.outs.iter().enumerate() {
            if let Some(vals) = rec.publish(idx, slot, &mut self.batch) {
                // Each correction is the collapsed anti-message +
                // replacement pair of the Time-Warp protocol.
                if let Some(hub) = &self.cfg.obs {
                    hub.emit(ObsEvent::AntiMessage {
                        t_ns: ctx.now().as_nanos(),
                        rank: idx.rank as u32,
                        loc: out.loc.0,
                        age,
                    });
                }
                node.write(ctx, out.loc, vals, age);
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
        while self.records.front().is_some_and(|r| r.iter < horizon) {
            let mut rec = self.records.pop_front().expect("just checked");
            if !rec.used.iter().all(|u| matches!(u, Some(Some(_)))) {
                self.stats.discarded += 1;
                // Only the query owner's records hold contributions.
                for c in rec.contribution.iter().flatten() {
                    self.tally.counts[*c as usize] -= 1;
                }
            }
            rec.used.fill(None);
            rec.published.iter_mut().for_each(Vec::clear);
            rec.contribution.fill(None);
            self.spare.push(rec);
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
    let plan = Plan::new(&net, parts, sim_seed ^ 0x9A97, &query);
    run_planned_inference(net, &query, &plan, cfg, network, msg_cfg, sim_seed)
}

/// [`run_parallel_inference`] over a plan the caller already holds (built
/// for this `net` and `query`), so sweeps that vary only the discipline
/// partition once.
pub fn run_planned_inference(
    net: Arc<BeliefNetwork>,
    query: &Query,
    plan: &Plan,
    cfg: ParallelBayesConfig,
    network: Network,
    msg_cfg: MsgConfig,
    sim_seed: u64,
) -> Result<ParallelBayesResult, SimError> {
    let parts = plan.parts;

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

    let mut world: DsmWorld<BatchValues> =
        DsmWorld::new(network, parts, msg_cfg, dir).with_history(2 * cfg.window + 8);
    if let Some(hub) = &cfg.obs {
        world = world.with_obs(hub.clone());
    }
    for &l in batch_locs.iter().chain(hb_locs.iter()) {
        world.set_initial(l, Vec::new());
    }

    let stop_flag = Rc::new(Cell::new(false));
    let results: Rc<RefCell<Vec<Option<PartOutcome>>>> = Rc::new(RefCell::new(vec![None; parts]));

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
        let idx = PartIndex::new(rank, &net, plan, query, &cfg, &batch_locs, &hb_locs);
        let rt = PartRuntime {
            cfg: cfg.clone(),
            records: VecDeque::new(),
            spare: Vec::new(),
            tally: Tally::new(net.node(query.node).arity),
            stats: BayesPartStats {
                rank,
                ..BayesPartStats::default()
            },
            stop_flag: Rc::clone(&stop_flag),
            dirty: Vec::new(),
            nodes: Vec::new(),
            batch: Vec::new(),
            combo: Vec::new(),
        };
        let results = Rc::clone(&results);
        sim.spawn(format!("bayes{rank}"), move |ctx| {
            let out = partition_body(ctx, node, &idx, rt);
            results.borrow_mut()[rank] = Some(out);
        });
    }
    let report = sim.run()?;

    let mut per_part = Vec::with_capacity(parts);
    let mut tally_opt = None;
    let mut converged = false;
    for slot in results.take() {
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

/// What one partition reports: its stats, and for the query owner the
/// tally and whether it converged.
type PartOutcome = (BayesPartStats, Option<Tally>, bool);

/// The body of one partition's simulated process.
fn partition_body(
    ctx: &mut Ctx,
    mut node: DsmNode<BatchValues>,
    idx: &PartIndex,
    mut rt: PartRuntime,
) -> PartOutcome {
    let sync = matches!(rt.cfg.mode, Coherence::Synchronous);
    // The Global_Read gate on every peer's progress; the synchronous
    // discipline is its age-0 case. Every throttle location holds a value
    // of iteration 0, so once the age reaches the iteration cap the gate
    // requires nothing and a read could only hit: it is skipped, as at
    // age ∞ (the asynchronous discipline).
    let age = rt.cfg.mode.age();
    let throttle_age = (age < rt.cfg.max_iterations).then_some(age);
    let block = idx.block as u64;
    let mut converged = false;
    let mut iter: u64 = 0;

    'outer: while iter < rt.cfg.max_iterations {
        if rt.stop_flag.get() {
            break;
        }
        iter += 1;

        // Throttle: require progress_q >= (iter-1) - age of every peer.
        if let Some(age) = throttle_age {
            for &loc in &idx.throttle {
                node.global_read(ctx, loc, iter.saturating_sub(1), age);
            }
        }

        // Apply any corrections that arrived while we were away.
        if !sync {
            rt.process_updates(idx, ctx, &mut node);
        }

        // Compute the block round by round.
        rt.begin_iteration(idx, iter);
        for (r, round) in idx.rounds.iter().enumerate() {
            // Wait for (sync) or opportunistically drain (async/partial)
            // the batches produced by peers in earlier rounds.
            if r > 0 && sync {
                for &loc in &idx.rounds[r - 1].reads_after {
                    if node.wait_version(ctx, loc, iter).is_err() {
                        break 'outer;
                    }
                }
            } else if r > 0 {
                node.drain(ctx);
            }
            if round.compute.is_empty() {
                continue;
            }
            let rec = rt.records.back_mut().expect("record open");
            let default_uses = &mut rt.stats.default_uses;
            let combo = &mut rt.combo;
            rec.sample_columns(
                idx,
                &node,
                &round.compute,
                0..idx.block,
                combo,
                default_uses,
            );
            let resamples = round.compute.len() as u64 * block;
            let cost = rt.cfg.cost.iteration_cost_jittered(resamples, ctx.rng());
            ctx.advance(cost);
            // Publish this round's outgoing batches.
            for &slot in &round.writes {
                if let Some(vals) = rec.publish(idx, slot, &mut rt.batch) {
                    node.write(ctx, idx.outs[slot].loc, vals, iter);
                }
            }
        }
        // The synchronous discipline must also have the *last* round's
        // incoming batches (evidence forwarded to the query owner is
        // consumed by the tally, not by compute) before tallying.
        if sync {
            for &loc in &idx.rounds[idx.rounds.len() - 1].reads_after {
                if node.wait_version(ctx, loc, iter).is_err() {
                    break 'outer;
                }
            }
            // Sync never rolls back; keep the log from accumulating.
            let _ = node.take_update_log();
        }
        let rec = rt.records.back_mut().expect("record open");
        let default_uses = &mut rt.stats.default_uses;
        rec.tally_columns(idx, &node, 0..idx.block, &mut rt.tally, default_uses);
        rt.stats.iterations = iter;
        rt.freeze(iter);

        // Heartbeat: "I completed iteration `iter`" — only sent to peers
        // that receive no batch traffic from us (batches already carry
        // the progress signal).
        if idx.hb_needed {
            node.write(ctx, idx.hb_loc, Vec::new(), iter);
        }

        // Convergence detection at the query owner.
        if idx.query.is_some() {
            rt.tally.drawn = iter * block;
            if rt.tally.converged(&rt.cfg.stop) {
                converged = true;
                rt.stop_flag.set(true);
            }
        }
    }

    // Retire owned locations so blocked peers unblock and observe
    // termination.
    if idx.parts > 1 {
        for out in &idx.outs {
            node.retire(ctx, out.loc, Vec::new());
        }
        node.retire(ctx, idx.hb_loc, Vec::new());
    }
    rt.stats.end_time = ctx.now();

    rt.tally.drawn = rt.stats.iterations * block;
    (rt.stats, idx.query.is_some().then_some(rt.tally), converged)
}
