//! The island-model parallel GA program (§3.1, §4.2.1): one deme per
//! simulated process; every generation each island broadcasts its best
//! `N/2` individuals through the DSM and incorporates migrants from every
//! peer under the configured coherence discipline.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use nscc_ckpt::Snapshot;
use nscc_dsm::{Coherence, DsmNode, LocId, SnapConfig};
use nscc_sim::{Ctx, ObsEvent, SimTime};

use crate::supervise::{Decision, Supervisor};

use crate::cost::CostModel;
use crate::functions::TestFn;
use crate::params::GaParams;
use crate::population::{Deme, DemeState, Individual};

/// The migrant batch exchanged between islands.
pub type MigrantBatch = Vec<Individual>;

/// Migration topology (§3.1: migration "is controlled by several
/// parameters: interval, rate, and topology"). The paper's experiments
/// broadcast to everyone; ring and random-k are the standard sparse
/// alternatives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Every island reads every other island (the paper's setup).
    AllToAll,
    /// Bidirectional ring.
    Ring,
    /// Each island's migrants reach `k` random others.
    Random {
        /// Out-degree of every island.
        k: usize,
    },
}

impl Topology {
    /// Build the migrant-location directory for this topology.
    pub fn build_directory(self, ranks: usize, seed: u64) -> (nscc_dsm::Directory, Vec<LocId>) {
        let mut dir = nscc_dsm::Directory::new();
        let locs = match self {
            Topology::AllToAll => dir.add_per_rank("best", ranks),
            Topology::Ring => dir.add_ring("best", ranks),
            Topology::Random { k } => dir.add_random_topology("best", ranks, k, seed),
        };
        (dir, locs)
    }
}

/// When an island stops evolving (§5.1: the synchronous program runs a
/// fixed 1000 generations; the asynchronous and controlled versions run
/// "for enough generations so that the subpopulation converged further
/// than the synchronous version").
#[derive(Debug, Clone, Copy)]
pub enum StopPolicy {
    /// Run exactly this many generations (the synchronous protocol).
    FixedGenerations(u64),
    /// Run until every island's best-ever fitness reaches `target`, with
    /// a hard generation `cap` for runs that never get there.
    TargetQuality {
        /// Fitness every deme must reach.
        target: f64,
        /// Generation cap.
        cap: u64,
    },
}

/// How a crashed island comes back (§4.1's recovery corollary: a node
/// restored from a snapshot at most `age` iterations old is
/// indistinguishable from a legitimately stale peer, so `Global_Read`'s
/// tolerance makes warm recovery seamless).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryStyle {
    /// Restore application + DSM state from the last intact checkpoint and
    /// resync from writers; rollback distance is `gen − ckpt_gen`.
    Warm,
    /// Abandon state and restart with a fresh random deme at the current
    /// generation (the cold-restart baseline warm recovery is measured
    /// against).
    Cold,
}

/// Crash/recovery schedule for one island: checkpoint cadence plus the
/// crash windows extracted from the platform's fault plan.
#[derive(Debug, Clone)]
pub struct RecoveryPlan {
    /// Cut a checkpoint every this many generations (≥ 1). Strict modes
    /// set this to the age bound, which caps warm-restore rollback at the
    /// staleness the discipline already tolerates.
    pub every: u64,
    /// `(crash_at, restart_at)` windows, sorted by crash time. During a
    /// window the fault layer drops the island's traffic; the island
    /// itself sleeps until `restart_at` and then recovers.
    pub crashes: Vec<(SimTime, SimTime)>,
    /// Warm (from checkpoint) or cold (from scratch).
    pub style: RecoveryStyle,
}

/// Everything an island checkpoint captures: the deme, the RNG reseed that
/// reproduces the post-checkpoint random stream, migration bookkeeping,
/// convergence tracking, and the node's age-tagged DSM cache.
#[derive(Snapshot)]
struct IslandCkpt {
    gen: u64,
    reseed: u64,
    deme: DemeState,
    last_incorporated: Vec<u64>,
    best_seen: f64,
    last_improvement: SimTime,
    time_to_target: Option<SimTime>,
    cache: Vec<(LocId, u64, MigrantBatch)>,
}

/// Open a sealed checkpoint frame for a restore under `cfg`. A frame that
/// unseals and decodes but whose deme does not fit the run — wrong
/// population size, genomes of another length — is as unusable as a
/// corrupt one, and is refused here, where the caller can still fall back
/// to an older frame, rather than after it has been chosen.
fn open_frame(sealed: &[u8], cfg: &IslandConfig) -> Result<IslandCkpt, nscc_ckpt::CkptError> {
    let ck: IslandCkpt = nscc_ckpt::unseal(sealed).and_then(nscc_ckpt::from_bytes)?;
    ck.deme.validate(cfg.func, &cfg.params)?;
    Ok(ck)
}

/// Per-island configuration for one parallel GA run.
#[derive(Debug, Clone)]
pub struct IslandConfig {
    /// Objective function.
    pub func: TestFn,
    /// Per-deme GA parameters (the paper's N=50 defaults).
    pub params: GaParams,
    /// Compute-cost model for the island's node.
    pub cost: CostModel,
    /// Coherence discipline for migrant reads.
    pub mode: Coherence,
    /// Migrants broadcast per generation (the paper uses N/2 = 25).
    pub migration_count: usize,
    /// Stopping rule.
    pub stop: StopPolicy,
    /// Crash/recovery schedule (`None` = no checkpointing, the default —
    /// which also keeps the RNG stream byte-identical to pre-recovery
    /// builds).
    pub recovery: Option<RecoveryPlan>,
    /// Chandy–Lamport consistent snapshots (`None` = off). The island
    /// takes part in marker waves on the out-of-band plane: local capture
    /// reuses its newest sealed checkpoint frame (zero extra RNG draws,
    /// zero virtual time), in-flight channel updates are recorded on the
    /// apply path, and completed frames are posted to the shared board.
    /// Islands never pause for a snapshot; snapshot-on runs stay
    /// byte-identical to snapshot-off runs.
    pub snap: Option<SnapConfig>,
    /// Crash supervision (`None` = the pre-supervision behaviour:
    /// unconditional restart, no backoff). When set, every crash consults
    /// the shared supervisor: restarts come with capped exponential
    /// backoff, and an exhausted budget retires the island so the run
    /// completes degraded with the survivors.
    pub supervisor: Option<Supervisor>,
}

impl IslandConfig {
    /// The paper's configuration for `func` under `mode` with the given
    /// stopping rule.
    pub fn paper(func: TestFn, mode: Coherence, stop: StopPolicy) -> Self {
        IslandConfig {
            func,
            params: GaParams::default(),
            cost: CostModel::default(),
            mode,
            migration_count: 25,
            stop,
            recovery: None,
            snap: None,
            supervisor: None,
        }
    }
}

/// What one island reports at the end of a run.
#[derive(Debug, Clone)]
pub struct IslandOutcome {
    /// The island's rank.
    pub rank: usize,
    /// Generations it executed.
    pub generations: u64,
    /// Its best-ever fitness.
    pub best: f64,
    /// Virtual time at which it first reached the target, if it did.
    pub time_to_target: Option<SimTime>,
    /// Virtual time at which its best-ever fitness last improved.
    pub time_of_last_improvement: SimTime,
    /// Virtual time at which it left the generation loop.
    pub end_time: SimTime,
    /// Crash recoveries it performed (warm or cold).
    pub restores: u64,
    /// Largest rollback distance across its warm restores, in generations
    /// (0 when it never crashed, or only restarted cold).
    pub max_rollback: u64,
    /// Warm restores served from a consistent cut (subset of `restores`).
    pub cut_restores: u64,
    /// Whether the supervisor exhausted this island's restart budget and
    /// retired it (the island's metrics then describe a partial run).
    pub gave_up: bool,
}

/// Harness-side convergence oracle: tracks which islands have reached the
/// quality target so that every island can stop as soon as all have.
///
/// This is *measurement machinery*, not part of the simulated protocol
/// (zero virtual cost) — the paper equivalently ran a generous fixed
/// generation count and verified convergence offline for all 25 trials.
#[derive(Clone)]
pub struct ConvergenceBoard {
    done: Rc<RefCell<Vec<bool>>>,
}

impl ConvergenceBoard {
    /// A board for `ranks` islands.
    pub fn new(ranks: usize) -> Self {
        ConvergenceBoard {
            done: Rc::new(RefCell::new(vec![false; ranks])),
        }
    }

    /// Mark `rank` as converged.
    pub fn mark(&self, rank: usize) {
        self.done.borrow_mut()[rank] = true;
    }

    /// True once every island is marked.
    pub fn all_done(&self) -> bool {
        self.done.borrow().iter().all(|&d| d)
    }

    /// Number of islands marked so far.
    pub fn count(&self) -> usize {
        self.done.borrow().iter().filter(|&&d| d).count()
    }
}

/// Run one island inside its simulated process. `locs[r]` is the shared
/// migrant location written by rank `r` (see
/// [`Directory::add_per_rank`](nscc_dsm::Directory::add_per_rank)).
pub fn run_island(
    ctx: &mut Ctx,
    mut node: DsmNode<MigrantBatch>,
    locs: &[LocId],
    cfg: &IslandConfig,
    board: &ConvergenceBoard,
) -> IslandOutcome {
    let rank = node.rank();
    let p = node.ranks();
    assert_eq!(locs.len(), p, "one migrant location per rank");

    // Recovery runs draw the deme's randomness from an island-owned RNG so
    // that a checkpointed reseed reproduces the post-restore stream exactly;
    // without recovery everything stays on the shared process RNG, keeping
    // baseline runs byte-identical to pre-recovery builds. The cost model
    // always draws from the process RNG — its stream shapes virtual time,
    // not evolution, and must not shift across a restore.
    let mut own_rng: Option<StdRng> = cfg
        .recovery
        .as_ref()
        .map(|_| StdRng::seed_from_u64(ctx.rng().gen()));
    let mut deme = match own_rng.as_mut() {
        Some(rng) => Deme::new(cfg.func, cfg.params.clone(), rng),
        None => Deme::new(cfg.func, cfg.params.clone(), ctx.rng()),
    };
    let mut ckpts: VecDeque<Vec<u8>> = VecDeque::new();
    let mut crash_idx = 0usize;
    let mut restores = 0u64;
    let mut max_rollback = 0u64;
    let mut cut_restores = 0u64;
    let mut gave_up = false;
    // Marker-protocol state: the port on the out-of-band plane, the cut
    // being recorded (id, captured frame, frame generation), and the
    // newest cut already finished locally.
    let snap_port = cfg.snap.as_ref().map(|sc| sc.plane.port(rank));
    let mut snap_active: Option<(u64, Vec<u8>, u64)> = None;
    let mut snap_done: u64 = 0;
    let mut last_ckpt_gen: u64 = 0;
    let mut gen: u64 = 0;
    let mut time_to_target: Option<SimTime> = None;
    let mut last_incorporated: Vec<u64> = vec![0; p];
    let mut best_seen = f64::INFINITY;
    let mut last_improvement = SimTime::ZERO;
    let (target, max_generations, quality_stop) = match cfg.stop {
        StopPolicy::FixedGenerations(g) => (f64::NEG_INFINITY, g, false),
        StopPolicy::TargetQuality { target, cap } => (target, cap, true),
    };

    // An island that starts at the target still participates (writes) until
    // everyone is done, so peers' reads stay satisfiable.
    if quality_stop && deme.best_ever().fitness <= target {
        time_to_target = Some(ctx.now());
        board.mark(rank);
    }

    'gens: while gen < max_generations {
        // Crash windows: the fault layer has been dropping this island's
        // traffic since the crash instant; the island notices here, sits
        // out until the restart time, then recovers per the plan's style.
        if let Some(rec) = &cfg.recovery {
            while crash_idx < rec.crashes.len() && ctx.now() >= rec.crashes[crash_idx].0 {
                let restart_at = rec.crashes[crash_idx].1;
                crash_idx += 1;
                if restart_at > ctx.now() {
                    ctx.advance(restart_at - ctx.now());
                }
                // Supervision: the shared policy brain approves the restart
                // (imposing its capped exponential backoff) or retires the
                // island when the budget is spent.
                if let Some(sup) = &cfg.supervisor {
                    match sup.on_crash(rank) {
                        Decision::Restart { attempt, backoff } => {
                            if backoff > SimTime::ZERO {
                                ctx.advance(backoff);
                            }
                            if let Some(hub) = node.hub() {
                                hub.emit(ObsEvent::SupervisorRestart {
                                    t_ns: ctx.now().as_nanos(),
                                    rank: rank as u32,
                                    attempt,
                                    backoff_ns: backoff.as_nanos(),
                                });
                            }
                        }
                        Decision::GiveUp { restarts: used } => {
                            if let Some(hub) = node.hub() {
                                hub.emit(ObsEvent::SupervisorGiveUp {
                                    t_ns: ctx.now().as_nanos(),
                                    rank: rank as u32,
                                    restarts: used,
                                });
                            }
                            // Degrade gracefully: leave the generation loop;
                            // the retirement write below unblocks any peer
                            // still parked on this island's location.
                            gave_up = true;
                            break 'gens;
                        }
                    }
                }
                let from_gen = gen;
                let mut rolled: Option<IslandCkpt> = None;
                let mut inflight: Option<Vec<(LocId, u64, MigrantBatch)>> = None;
                if rec.style == RecoveryStyle::Warm {
                    // Preferred restore source: the newest complete
                    // consistent cut (this rank's frame plus the in-flight
                    // updates its channels recorded)…
                    let cut = cfg.snap.as_ref().and_then(|sc| {
                        let cut = sc.board.latest_complete()?;
                        let f = cut.frame(rank)?;
                        if f.state.is_empty() {
                            return None; // posted before any local frame existed
                        }
                        let ck = open_frame(&f.state, cfg).ok()?;
                        let inf =
                            nscc_ckpt::from_bytes::<Vec<(LocId, u64, MigrantBatch)>>(&f.inflight)
                                .unwrap_or_default();
                        Some((ck, inf))
                    });
                    // …falling back to the newest intact local stop-world
                    // frame; a corrupt or ill-fitting frame is dropped and
                    // the previous generation tried instead.
                    let mut local: Option<IslandCkpt> = None;
                    while let Some(frame) = ckpts.pop_back() {
                        if let Ok(ck) = open_frame(&frame, cfg) {
                            ckpts.push_back(frame);
                            local = Some(ck);
                            break;
                        }
                    }
                    // Newest state wins: a cut lagging behind the local
                    // frames (marker latency) must not stretch the rollback
                    // past what the age bound promises.
                    rolled = match (cut, local) {
                        (Some((c, inf)), Some(l)) => {
                            if c.gen >= l.gen {
                                inflight = Some(inf);
                                Some(c)
                            } else {
                                Some(l)
                            }
                        }
                        (Some((c, inf)), None) => {
                            inflight = Some(inf);
                            Some(c)
                        }
                        (None, l) => l,
                    };
                }
                let to_gen = match rolled {
                    Some(ck) => {
                        deme = Deme::from_state(cfg.func, cfg.params.clone(), ck.deme)
                            .expect("validated when the frame was opened");
                        own_rng = Some(StdRng::seed_from_u64(ck.reseed));
                        last_incorporated = ck.last_incorporated;
                        best_seen = ck.best_seen;
                        last_improvement = ck.last_improvement;
                        time_to_target = time_to_target.or(ck.time_to_target);
                        // The restored cache is ≤ `every` generations stale
                        // — exactly the staleness Global_Read tolerates, so
                        // the node rejoins as if it were a slow peer (§4.1).
                        node.restore_cache(ck.cache);
                        // A cut restore also replays the in-flight updates
                        // the cut recorded — newer-wins, exactly as live
                        // delivery would have applied them.
                        if let Some(inf) = inflight.take() {
                            cut_restores += 1;
                            for (loc, age, v) in inf {
                                if node.cached_age(loc).is_none_or(|have| age > have) {
                                    node.restore_cache(vec![(loc, age, v)]);
                                }
                            }
                        }
                        gen = ck.gen;
                        gen
                    }
                    // Cold restart (or no intact checkpoint survived):
                    // abandon state, fresh deme at the current generation.
                    None => {
                        let rng = own_rng.as_mut().expect("recovery implies own rng");
                        deme = Deme::new(cfg.func, cfg.params.clone(), rng);
                        gen
                    }
                };
                // Resync: absorb whatever peer updates queued while down.
                node.drain(ctx);
                let rollback = from_gen - to_gen;
                max_rollback = max_rollback.max(rollback);
                restores += 1;
                if let Some(hub) = node.hub() {
                    // The coherence mode's promise travels on the event so
                    // the audit layer can check `rollback ≤ bound` without
                    // knowing the experiment config. Warm restores stay
                    // within `max(age, 1)` (a checkpoint cadence of 1
                    // still rolls back one generation); at age ∞ that is
                    // unbounded by design.
                    let bound = cfg.mode.age().max(1);
                    hub.emit(ObsEvent::Restore {
                        t_ns: ctx.now().as_nanos(),
                        rank: rank as u32,
                        from_iter: from_gen,
                        to_iter: to_gen,
                        rollback,
                        bound,
                    });
                }
            }
        }

        gen += 1;

        // Compute phase: one generation of real GA math, charged to the
        // virtual clock through the cost model.
        let work = match own_rng.as_mut() {
            Some(rng) => deme.step(rng),
            None => deme.step(ctx.rng()),
        };
        let cost = cfg.cost.generation_cost(work, ctx.rng());
        ctx.advance(cost);

        if p > 1 {
            // Publish this generation's best individuals (age = gen).
            node.write(ctx, locs[rank], deme.migrants(cfg.migration_count), gen);

            // Incorporate migrants from every peer under the discipline —
            // but only batches not seen before ("incorporate migrants
            // into its population as and when they arrive", §3.1): a
            // starved deme evolves alone, which is exactly the premature-
            // convergence risk stale asynchrony carries.
            for (q, &loc) in locs.iter().enumerate() {
                if q == rank || !node.is_reader(loc) {
                    continue;
                }
                let (age, migrants) = node.read(ctx, loc, gen, cfg.mode);
                if age > last_incorporated[q] {
                    last_incorporated[q] = age;
                    deme.incorporate(&migrants);
                }
            }
        }

        if deme.best_ever().fitness < best_seen {
            best_seen = deme.best_ever().fitness;
            last_improvement = ctx.now();
        }
        if quality_stop && time_to_target.is_none() && deme.best_ever().fitness <= target {
            time_to_target = Some(ctx.now());
            board.mark(rank);
        }

        // Checkpoint cut: every `every` generations, capture deme + DSM
        // cache + an RNG reseed into a sealed frame. Two frames are kept so
        // a corrupt newest frame still leaves a usable older generation.
        if let Some(rec) = &cfg.recovery {
            if gen.is_multiple_of(rec.every) {
                let rng = own_rng.as_mut().expect("recovery implies own rng");
                let reseed: u64 = rng.gen();
                *rng = StdRng::seed_from_u64(reseed);
                let ck = IslandCkpt {
                    gen,
                    reseed,
                    deme: deme.export_state(),
                    last_incorporated: last_incorporated.clone(),
                    best_seen,
                    last_improvement,
                    time_to_target,
                    cache: node.export_cache(),
                };
                let sealed = nscc_ckpt::seal(&nscc_ckpt::to_bytes(&ck));
                if let Some(hub) = node.hub() {
                    hub.emit(ObsEvent::Checkpoint {
                        t_ns: ctx.now().as_nanos(),
                        rank: rank as u32,
                        iter: gen,
                        bytes: sealed.len() as u64,
                    });
                }
                ckpts.push_back(sealed);
                last_ckpt_gen = gen;
                if ckpts.len() > 2 {
                    ckpts.pop_front();
                }
            }
        }

        // Marker-protocol consistent snapshots: poll the out-of-band plane,
        // join a wave on first marker (capture + forward), finalize once
        // every incoming channel has closed. The whole path costs zero
        // virtual time and zero RNG draws — islands never pause for a
        // snapshot, and snapshot-on runs stay byte-identical.
        if p > 1 {
            if let (Some(sc), Some(port)) = (cfg.snap.as_ref(), snap_port.as_ref()) {
                let mut begin = |node: &mut DsmNode<MigrantBatch>,
                                 ckpts: &VecDeque<Vec<u8>>,
                                 id: u64,
                                 closed: Option<usize>|
                 -> (u64, Vec<u8>, u64) {
                    // Local capture reuses the newest sealed stop-world
                    // frame (empty when this rank checkpoints nothing):
                    // the cut frame is ≤ `every` generations stale, which
                    // the age bound already absorbs.
                    let frame = ckpts.back().cloned().unwrap_or_default();
                    let frame_gen = if frame.is_empty() { 0 } else { last_ckpt_gen };
                    node.snap_begin(closed);
                    port.broadcast(ctx, id);
                    if let Some(hub) = node.hub() {
                        hub.emit(ObsEvent::SnapshotStart {
                            t_ns: ctx.now().as_nanos(),
                            rank: rank as u32,
                            id,
                            gen: frame_gen,
                        });
                    }
                    (id, frame, frame_gen)
                };
                for m in port.poll() {
                    let active_id = snap_active.as_ref().map(|(id, _, _)| *id);
                    if active_id == Some(m.id) {
                        node.snap_close(m.src);
                    } else if m.id > snap_done && active_id.is_none_or(|a| m.id > a) {
                        // First marker of a newer wave; it preempts any
                        // stalled older recording.
                        node.snap_finish();
                        snap_active = Some(begin(&mut node, &ckpts, m.id, Some(m.src)));
                    }
                    // Anything else is a stale marker of an abandoned wave.
                }
                // Initiation: rank 0 starts a wave at the cut cadence.
                if rank == 0
                    && snap_active.is_none()
                    && gen.is_multiple_of(sc.every)
                    && gen > snap_done
                {
                    sc.board.note_start(gen);
                    snap_active = Some(begin(&mut node, &ckpts, gen, None));
                }
                // Local completion: every incoming channel has delivered
                // its marker — post the frame and the recorded in-flight
                // updates to the board.
                if snap_active.is_some() && node.snap_open() == 0 {
                    let (id, frame, frame_gen) = snap_active.take().expect("active cut");
                    let recorded = node.snap_finish();
                    let count = recorded.len() as u64;
                    let inflight_bytes = nscc_ckpt::to_bytes(&recorded);
                    if let Some(hub) = node.hub() {
                        hub.emit(ObsEvent::SnapshotComplete {
                            t_ns: ctx.now().as_nanos(),
                            rank: rank as u32,
                            id,
                            inflight: count,
                            pause_ns: 0,
                        });
                    }
                    sc.board.post(
                        id,
                        nscc_ckpt::CutFrame {
                            rank: rank as u32,
                            gen: frame_gen,
                            state: frame,
                            inflight: inflight_bytes,
                        },
                        count,
                        ctx.now().as_nanos(),
                    );
                    sc.board.clear_wave(rank as u32);
                    snap_done = id;
                } else if let Some((id, _, _)) = snap_active.as_ref() {
                    // Still mid-recording: refresh the board's live wave
                    // state so a wedged run's deadlock report can name the
                    // open channels and in-flight depth per rank.
                    sc.board
                        .note_wave(rank as u32, *id, node.snap_open(), node.snap_recorded());
                }
            }
        }

        // The exit decision must be taken at the same protocol point on
        // every island. Under the barrier discipline, marks posted before
        // barrier `gen` are visible to *all* islands after it and marks of
        // later generations to none, so the post-barrier check is
        // consistent and every island leaves at the same generation. The
        // barrier-free disciplines tolerate ragged exits via the
        // retirement sentinel below. (Fixed-generation runs exit in
        // lockstep by construction.)
        if cfg.mode.uses_barrier() && p > 1 {
            node.barrier(ctx, gen);
        }
        if quality_stop && board.all_done() {
            break;
        }
    }

    // Retirement: publish a final, "infinitely fresh" update so that any
    // peer still blocked in Global_Read on this island unblocks and can
    // observe termination itself.
    if p > 1 && !cfg.mode.uses_barrier() {
        node.write(
            ctx,
            locs[rank],
            deme.migrants(cfg.migration_count),
            u64::MAX,
        );
    }

    IslandOutcome {
        rank,
        generations: gen,
        best: deme.best_ever().fitness,
        time_to_target,
        time_of_last_improvement: last_improvement,
        end_time: ctx.now(),
        restores,
        max_rollback,
        cut_restores,
        gave_up,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nscc_dsm::{Directory, DsmWorld};
    use nscc_msg::MsgConfig;
    use nscc_net::{IdealMedium, Network};
    use nscc_sim::SimBuilder;
    use std::cell::Cell;
    use std::sync::Arc;

    fn run_modes(mode: Coherence, seed: u64) -> Vec<IslandOutcome> {
        let ranks = 3;
        let mut dir = Directory::new();
        let locs = dir.add_per_rank("best", ranks);
        let mut world: DsmWorld<MigrantBatch> = DsmWorld::new(
            Network::new(IdealMedium::new(SimTime::from_millis(1))),
            ranks,
            MsgConfig::default(),
            dir,
        );
        for &l in &locs {
            world.set_initial(l, Vec::new());
        }
        let board = ConvergenceBoard::new(ranks);
        let outcomes = Rc::new(RefCell::new(Vec::new()));
        let mut sim = SimBuilder::new(seed);
        for r in 0..ranks {
            let node = world.node(r);
            let locs = locs.clone();
            let board = board.clone();
            let outcomes = Rc::clone(&outcomes);
            let cfg = IslandConfig {
                cost: CostModel::deterministic(),
                ..IslandConfig::paper(
                    TestFn::F1Sphere,
                    mode,
                    StopPolicy::TargetQuality {
                        target: 0.01,
                        cap: 120,
                    },
                )
            };
            sim.spawn(format!("island{r}"), move |ctx| {
                let out = run_island(ctx, node, &locs, &cfg, &board);
                outcomes.borrow_mut().push(out);
            });
        }
        sim.run().unwrap();
        let mut v = outcomes.take();
        v.sort_by_key(|o| o.rank);
        v
    }

    #[test]
    fn all_modes_run_to_completion_and_converge() {
        for mode in [
            Coherence::Synchronous,
            Coherence::ASYNC,
            Coherence::PartialAsync { age: 0 },
            Coherence::PartialAsync { age: 5 },
        ] {
            let outs = run_modes(mode, 11);
            assert_eq!(outs.len(), 3, "{mode}: all islands must report");
            for o in &outs {
                assert!(o.generations > 0);
                assert!(
                    o.best <= 0.01 || o.generations == 120,
                    "{mode}: island {} best {} after {} gens",
                    o.rank,
                    o.best,
                    o.generations
                );
            }
        }
    }

    #[test]
    fn sync_islands_stay_in_generation_lockstep() {
        let outs = run_modes(Coherence::Synchronous, 13);
        let gens: Vec<u64> = outs.iter().map(|o| o.generations).collect();
        let (min, max) = (
            *gens.iter().min().expect("nonempty"),
            *gens.iter().max().expect("nonempty"),
        );
        assert!(max - min <= 1, "sync generations diverged: {gens:?}");
    }

    #[test]
    fn migration_helps_over_isolation() {
        // With migration (any mode), islands share discoveries; the global
        // best should be at least as good as the worst isolated deme.
        let outs = run_modes(Coherence::PartialAsync { age: 2 }, 17);
        let global_best = outs.iter().map(|o| o.best).fold(f64::INFINITY, f64::min);
        assert!(
            global_best <= 0.01,
            "islands with migration should converge"
        );
    }

    fn run_with_recovery(style: RecoveryStyle, seed: u64) -> Vec<IslandOutcome> {
        let ranks = 3;
        let mut dir = Directory::new();
        let locs = dir.add_per_rank("best", ranks);
        let mut world: DsmWorld<MigrantBatch> = DsmWorld::new(
            Network::new(IdealMedium::new(SimTime::from_millis(1))),
            ranks,
            MsgConfig::default(),
            dir,
        );
        for &l in &locs {
            world.set_initial(l, Vec::new());
        }
        let board = ConvergenceBoard::new(ranks);
        let outcomes = Rc::new(RefCell::new(Vec::new()));
        let mut sim = SimBuilder::new(seed);
        for r in 0..ranks {
            let node = world.node(r);
            let locs = locs.clone();
            let board = board.clone();
            let outcomes = Rc::clone(&outcomes);
            let mut cfg = IslandConfig {
                cost: CostModel::deterministic(),
                ..IslandConfig::paper(
                    TestFn::F1Sphere,
                    Coherence::PartialAsync { age: 3 },
                    StopPolicy::TargetQuality {
                        target: 0.01,
                        cap: 200,
                    },
                )
            };
            if r == 1 {
                cfg.recovery = Some(RecoveryPlan {
                    every: 3,
                    crashes: vec![(SimTime::from_millis(25), SimTime::from_millis(35))],
                    style,
                });
            }
            sim.spawn(format!("island{r}"), move |ctx| {
                let out = run_island(ctx, node, &locs, &cfg, &board);
                outcomes.borrow_mut().push(out);
            });
        }
        sim.run().unwrap();
        let mut v = outcomes.take();
        v.sort_by_key(|o| o.rank);
        v
    }

    #[test]
    fn warm_recovery_bounds_rollback_to_cadence() {
        let outs = run_with_recovery(RecoveryStyle::Warm, 23);
        let crashed = &outs[1];
        assert_eq!(crashed.restores, 1, "the scheduled crash must be taken");
        assert!(
            crashed.max_rollback <= 3,
            "rollback {} exceeds the checkpoint cadence",
            crashed.max_rollback
        );
        for o in [&outs[0], &outs[2]] {
            assert_eq!(o.restores, 0, "rank {} never crashes", o.rank);
            assert_eq!(o.max_rollback, 0);
        }
        // The run as a whole still converges despite the crash.
        let global_best = outs.iter().map(|o| o.best).fold(f64::INFINITY, f64::min);
        assert!(global_best <= 0.01, "crashed run failed to converge");
    }

    #[test]
    fn cold_restart_reports_zero_rollback() {
        let outs = run_with_recovery(RecoveryStyle::Cold, 23);
        let crashed = &outs[1];
        assert_eq!(crashed.restores, 1);
        assert_eq!(
            crashed.max_rollback, 0,
            "cold restart abandons state instead of rolling back"
        );
    }

    fn run_with_snapshots(
        crashes: Vec<(SimTime, SimTime)>,
        supervisor: Option<Supervisor>,
        seed: u64,
    ) -> (Vec<IslandOutcome>, nscc_dsm::SnapshotBoard) {
        let ranks = 3;
        let mut dir = Directory::new();
        let locs = dir.add_per_rank("best", ranks);
        let mut world: DsmWorld<MigrantBatch> = DsmWorld::new(
            Network::new(IdealMedium::new(SimTime::from_millis(1))),
            ranks,
            MsgConfig::default(),
            dir,
        );
        for &l in &locs {
            world.set_initial(l, Vec::new());
        }
        let snap = SnapConfig {
            every: 3,
            plane: nscc_msg::MarkerPlane::new(ranks, SimTime::from_micros(10)),
            board: nscc_dsm::SnapshotBoard::new(ranks),
        };
        let cut_board = snap.board.clone();
        let board = ConvergenceBoard::new(ranks);
        let outcomes = Rc::new(RefCell::new(Vec::new()));
        let mut sim = SimBuilder::new(seed);
        for r in 0..ranks {
            let node = world.node(r);
            let locs = locs.clone();
            let board = board.clone();
            let outcomes = Rc::clone(&outcomes);
            let mut cfg = IslandConfig {
                cost: CostModel::deterministic(),
                ..IslandConfig::paper(
                    TestFn::F1Sphere,
                    Coherence::PartialAsync { age: 3 },
                    StopPolicy::TargetQuality {
                        target: 0.01,
                        cap: 200,
                    },
                )
            };
            cfg.snap = Some(snap.clone());
            cfg.supervisor = supervisor.clone();
            if r == 1 {
                cfg.recovery = Some(RecoveryPlan {
                    every: 3,
                    crashes: crashes.clone(),
                    style: RecoveryStyle::Warm,
                });
            }
            sim.spawn(format!("island{r}"), move |ctx| {
                let out = run_island(ctx, node, &locs, &cfg, &board);
                outcomes.borrow_mut().push(out);
            });
        }
        sim.run().unwrap();
        let mut v = outcomes.take();
        v.sort_by_key(|o| o.rank);
        (v, cut_board)
    }

    #[test]
    fn marker_waves_complete_and_serve_warm_restores() {
        let (outs, cut_board) = run_with_snapshots(
            vec![(SimTime::from_millis(25), SimTime::from_millis(35))],
            None,
            29,
        );
        let c = cut_board.counters();
        assert!(
            c.started >= 1 && c.completed >= 1,
            "cuts must complete without pausing anyone: {c:?}"
        );
        let crashed = &outs[1];
        assert_eq!(crashed.restores, 1, "the scheduled crash must be taken");
        assert!(
            crashed.max_rollback <= 3,
            "rollback {} exceeds the age bound even with cuts in play",
            crashed.max_rollback
        );
        for o in [&outs[0], &outs[2]] {
            assert_eq!(o.restores, 0, "survivors never restore");
            assert!(!o.gave_up);
        }
        let global_best = outs.iter().map(|o| o.best).fold(f64::INFINITY, f64::min);
        assert!(global_best <= 0.01, "crashed run failed to converge");
    }

    #[test]
    fn supervisor_exhaustion_degrades_instead_of_deadlocking() {
        let sup = Supervisor::new(crate::supervise::SupervisorPolicy {
            max_restarts: 1,
            backoff_base: SimTime::from_millis(2),
            backoff_cap: SimTime::from_millis(4),
        });
        let (outs, _) = run_with_snapshots(
            vec![
                (SimTime::from_millis(20), SimTime::from_millis(25)),
                (SimTime::from_millis(30), SimTime::from_millis(35)),
            ],
            Some(sup.clone()),
            31,
        );
        let crashed = &outs[1];
        assert!(crashed.gave_up, "second crash must exhaust the budget");
        assert_eq!(crashed.restores, 1, "only the approved restart restores");
        assert_eq!(sup.failed_ranks(), vec![1]);
        // Survivors keep evolving past the give-up (the retirement write
        // unblocks them) and the run still completes.
        for o in [&outs[0], &outs[2]] {
            assert!(!o.gave_up);
            assert!(o.generations > 0);
        }
        let best = outs.iter().map(|o| o.best).fold(f64::INFINITY, f64::min);
        assert!(best <= 0.01, "survivors still converge");
    }

    #[test]
    fn island_ckpt_roundtrip_is_byte_identical() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut deme = Deme::new(TestFn::F1Sphere, GaParams::default(), &mut rng);
        deme.step(&mut rng);
        let ck = IslandCkpt {
            gen: 7,
            reseed: 0xfeed,
            deme: deme.export_state(),
            last_incorporated: vec![3, 0, 7],
            best_seen: 0.25,
            last_improvement: SimTime::from_millis(42),
            time_to_target: None,
            cache: vec![(LocId(2), 6, vec![*deme.best_ever()])],
        };
        let bytes = nscc_ckpt::to_bytes(&ck);
        let back: IslandCkpt = nscc_ckpt::from_bytes(&bytes).unwrap();
        assert_eq!(back.gen, 7);
        assert_eq!(back.reseed, 0xfeed);
        assert_eq!(back.last_incorporated, vec![3, 0, 7]);
        assert_eq!(back.deme.pop.len(), ck.deme.pop.len());
        assert_eq!(back.cache.len(), 1);
        assert_eq!(nscc_ckpt::to_bytes(&back), bytes);
        // A sealed frame passes the integrity check; a flipped byte fails.
        let mut sealed = nscc_ckpt::seal(&bytes);
        assert!(nscc_ckpt::unseal(&sealed).is_ok());
        let mid = sealed.len() / 2;
        sealed[mid] ^= 1;
        assert!(nscc_ckpt::unseal(&sealed).is_err());
    }

    #[test]
    fn a_frame_that_does_not_fit_the_run_is_refused_like_a_corrupt_one() {
        let written_by = |func: TestFn, params: &GaParams| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(6);
            let deme = Deme::new(func, params.clone(), &mut rng);
            nscc_ckpt::seal(&nscc_ckpt::to_bytes(&IslandCkpt {
                gen: 3,
                reseed: 1,
                deme: deme.export_state(),
                last_incorporated: vec![0; 3],
                best_seen: deme.best_ever().fitness,
                last_improvement: SimTime::ZERO,
                time_to_target: None,
                cache: Vec::new(),
            }))
        };
        let cfg = IslandConfig::paper(
            TestFn::F1Sphere,
            Coherence::PartialAsync { age: 3 },
            StopPolicy::FixedGenerations(10),
        );
        let own = written_by(cfg.func, &cfg.params);
        assert_eq!(open_frame(&own, &cfg).unwrap().gen, 3);
        // Intact frames of a run over another function, or another
        // population size: they unseal and decode, and must not be chosen.
        for foreign in [
            written_by(TestFn::F6Rastrigin, &cfg.params),
            written_by(cfg.func, &GaParams::with_pop_size(20)),
        ] {
            assert!(nscc_ckpt::unseal(&foreign).is_ok());
            assert!(matches!(
                open_frame(&foreign, &cfg),
                Err(nscc_ckpt::CkptError::Malformed(_))
            ));
        }
        let mut corrupt = own;
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 1;
        assert!(open_frame(&corrupt, &cfg).is_err());
    }

    /// A migrant batch built without a single RNG draw (an LCG picks the
    /// bits), so pinned bytes hold under any `rand` implementation.
    fn fixed_batch(count: usize, salt: u64) -> MigrantBatch {
        let func = TestFn::F1Sphere;
        let mut x = salt;
        (0..count)
            .map(|_| {
                let mut genome = crate::encoding::Genome::zeros(func.genome_bits());
                for i in 0..genome.len() {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    genome.set(i, (x >> 33) & 1 == 1);
                }
                let fitness = crate::encoding::eval_genome(func, &genome);
                Individual { genome, fitness }
            })
            .collect()
    }

    #[test]
    fn checkpoint_bytes_match_the_by_value_dsm() {
        // Rank 0 publishes, rank 1 caches the batch, then checkpoints as
        // `run_island` does. Both digests were captured on the commit
        // before DSM values became shared `Arc`s; the frame layout must
        // not have moved.
        let mut dir = Directory::new();
        let locs = dir.add_per_rank("best", 2);
        let mut world: DsmWorld<MigrantBatch> = DsmWorld::new(
            Network::new(IdealMedium::new(SimTime::from_millis(1))),
            2,
            MsgConfig::default(),
            dir,
        );
        for &l in &locs {
            world.set_initial(l, Vec::new());
        }
        let (mut writer, mut reader) = (world.node(0), world.node(1));
        let (peer, own) = (locs[0], locs[1]);
        let digests = Rc::new(Cell::new((0u64, 0u64)));
        let sink = Rc::clone(&digests);
        let mut sim = SimBuilder::new(0);
        sim.spawn("writer", move |ctx| {
            writer.write(ctx, peer, fixed_batch(25, 1), 3);
        });
        sim.spawn("reader", move |ctx| {
            reader.write(ctx, own, fixed_batch(25, 2), 4);
            let (age, _) = reader.global_read(ctx, peer, 3, 0);
            assert_eq!(age, 3);
            let cache = reader.export_cache();
            let cache_digest = nscc_ckpt::fnv1a(&nscc_ckpt::to_bytes(&cache));
            let pop = fixed_batch(50, 3);
            let ck = IslandCkpt {
                gen: 4,
                reseed: 0xfeed,
                deme: DemeState {
                    best_ever: pop[7],
                    pop,
                    window: vec![9.5, 7.25],
                    generation: 4,
                    total_work: crate::GenWork {
                        evals: 130,
                        cache_hits: 20,
                        individuals: 150,
                    },
                },
                last_incorporated: vec![3, 0],
                best_seen: 0.25,
                last_improvement: SimTime::from_millis(42),
                time_to_target: Some(SimTime::from_millis(77)),
                cache,
            };
            let sealed = nscc_ckpt::seal(&nscc_ckpt::to_bytes(&ck));
            sink.set((cache_digest, nscc_ckpt::fnv1a(&sealed)));
        });
        sim.run().unwrap();
        let (cache_digest, frame_digest) = digests.get();
        assert_eq!(
            cache_digest, 2703879985682540472,
            "export_cache() bytes moved"
        );
        assert_eq!(
            frame_digest, 9835009931790374194,
            "sealed IslandCkpt frame moved"
        );
    }

    #[test]
    fn update_wire_size_is_pinned() {
        // 4 (variant tag) + 4 (loc) + 8 (age) + 4 (batch length) +
        // 25 × (8 bits + 4 length + 4 genome bytes + 8 fitness): what
        // `msg.payload_bytes` charges per migrant update. Sharing the value
        // must not change what the wire model sees.
        let msg = nscc_dsm::DsmMsg::Update {
            loc: LocId(3),
            age: 9,
            value: Arc::new(fixed_batch(25, 1)),
        };
        assert_eq!(nscc_msg::wire_size(&msg), 620);
    }

    #[test]
    fn convergence_board_counts() {
        let b = ConvergenceBoard::new(3);
        assert!(!b.all_done());
        b.mark(0);
        b.mark(2);
        assert_eq!(b.count(), 2);
        b.mark(1);
        assert!(b.all_done());
    }
}
