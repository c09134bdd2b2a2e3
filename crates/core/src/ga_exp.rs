//! The GA experiment runner: regenerates the data behind Figures 2 and 4.
//!
//! Protocol (per run seed):
//! 1. **Synchronous reference** — `p` islands of 50 run a fixed
//!    generation budget (the paper's 1000) in lockstep. Its achieved
//!    mean best-ever fitness is the quality bar `Q`, and its time is
//!    measured up to its last quality improvement.
//! 2. **Serial baseline** — one deme of the total population (`50 × p`)
//!    timed to its first hit of `Q`.
//! 3. **Asynchronous and Global_Read versions** — run until *every*
//!    island reaches `Q` ("converged further than the synchronous
//!    version"), with a generation cap. A capped run is a failure and
//!    never flatters the mode (the paper ensured convergence per trial).
//! 4. Speedup = `T_serial / T_mode`.

use std::cell::RefCell;
use std::rc::Rc;

use nscc_dsm::{Coherence, Directory, DsmStats, DsmWorld, SnapConfig, SnapshotBoard};
use nscc_faults::FaultReport;
use nscc_ga::{
    run_island, ConvergenceBoard, CostModel, GaParams, IslandConfig, IslandOutcome, MigrantBatch,
    RecoveryPlan, RecoveryStyle, RecoverySummary, SerialGa, Supervisor, SupervisorPolicy, TestFn,
};
use nscc_msg::{CommStats, MarkerPlane};
use nscc_net::{NetStats, WarpMeter};
use nscc_obs::Hub;
use nscc_sim::{SimBuilder, SimError, SimTime};

use crate::platform::Platform;

/// The `Global_Read` ages of Figures 2–4.
pub const PAPER_AGES: [u64; 5] = [0, 5, 10, 20, 30];

/// The paper's competitor families, in row order: synchronous, fully
/// asynchronous, and `Global_Read` at each of [`PAPER_AGES`]. Every GA and
/// Bayes cell reports these unless told otherwise.
pub fn paper_modes() -> Vec<Coherence> {
    [Coherence::Synchronous, Coherence::ASYNC]
        .into_iter()
        .chain(PAPER_AGES.map(|age| Coherence::PartialAsync { age }))
        .collect()
}

/// Configuration of one GA experiment cell (function × processor count ×
/// platform).
#[derive(Debug, Clone)]
pub struct GaExperiment {
    /// Benchmark function.
    pub func: TestFn,
    /// Processor (island) count.
    pub procs: usize,
    /// Serial-baseline generations (the paper runs 1000; benches scale
    /// this down).
    pub generations: u64,
    /// Generation cap for parallel runs, as a multiple of `generations`.
    pub cap_factor: u64,
    /// Independent repetitions (the paper averages 25).
    pub runs: usize,
    /// Base seed; run `r` uses `base_seed + r`.
    pub base_seed: u64,
    /// Platform (interconnect + background load).
    pub platform: Platform,
    /// Cost model for every node.
    pub cost: CostModel,
    /// Optional observability hub, attached to every run's DSM world and
    /// network (shared across runs: histograms and counters aggregate
    /// over the whole cell).
    pub obs: Option<Hub>,
    /// Coherence modes reported, in row order (default: [`paper_modes`]). The synchronous reference still runs internally to set the
    /// quality bar when `sync` is excluded, but it is then neither
    /// reported nor instrumented — restricting to a single `age=N` mode
    /// yields a report whose histograms describe that mode alone, which
    /// is what makes `nscc diff` of two ages meaningful.
    pub modes: Vec<Coherence>,
    /// Blocked reads degrade to the freshest cached value after this long
    /// (chaos runs only; `None` keeps the paper's wait-forever reads).
    pub read_timeout: Option<SimTime>,
    /// Heartbeat period for the failure detector's daemons (chaos runs
    /// only; `None` spawns none).
    pub heartbeat: Option<SimTime>,
    /// Watchdog: virtual-time limit per parallel run. Under faults a run
    /// that hangs (e.g. every retransmit of a barrier message lost) is
    /// cut here and reported as a failure with a [`FaultReport`] instead
    /// of wedging the sweep.
    pub watchdog: Option<SimTime>,
    /// Crash recovery for islands with `crash_and_restart` windows in the
    /// fault plan (chaos runs, barrier-free modes only). Warm recovery
    /// checkpoints every `age` generations — rollback then stays within
    /// the staleness `Global_Read` already tolerates (§4.1) — while cold
    /// restarts are the baseline it is measured against. `None` (the
    /// default) restarts nodes with whatever state they had, as before.
    pub recovery: Option<RecoveryStyle>,
    /// Deliberate coherence sabotage for audit-pipeline validation: each
    /// node releases its first `inject_stale` would-block `Global_Read`s
    /// immediately with whatever stale value it has cached, violating the
    /// age bound on purpose (`nscc run --inject-stale`). The emitted `ReadDone`
    /// carries the true (excess) staleness, so the audit layer's
    /// staleness monitor must flag every injected release. 0 disables.
    pub inject_stale: u64,
    /// Chandy–Lamport consistent snapshots on barrier-free parallel runs:
    /// `Some(every)` has rank 0 initiate a marker wave every `every`
    /// generations; completed cuts become the preferred warm-restore
    /// source. Islands never pause on the snapshot path, and snapshot-on
    /// runs stay byte-identical to snapshot-off runs outside the report's
    /// `recovery` section. `None` (the default) disables the protocol.
    pub snapshots: Option<u64>,
    /// Crash supervision: when set, every island crash consults a shared
    /// [`Supervisor`] built from this policy — restarts come with capped
    /// exponential backoff, and an exhausted per-rank budget retires the
    /// island so the run completes degraded instead of deadlocking.
    pub supervision: Option<SupervisorPolicy>,
    /// Directory for persisting completed consistent cuts
    /// (`CkptKind::ConsistentCut` generations, one per sealed wave, cut
    /// id as the generation number). `None` keeps cuts in memory only;
    /// ignored unless `snapshots` is on. `nscc inspect --ckpt` renders
    /// the resulting store with a `kind` column.
    pub snap_dir: Option<std::path::PathBuf>,
}

impl GaExperiment {
    /// Paper-like defaults at a bench-friendly scale.
    pub fn new(func: TestFn, procs: usize) -> Self {
        GaExperiment {
            func,
            procs,
            generations: 200,
            cap_factor: 3,
            runs: 5,
            base_seed: 1000,
            platform: Platform::paper_ethernet(procs),
            cost: CostModel::default(),
            obs: None,
            modes: paper_modes(),
            read_timeout: None,
            heartbeat: None,
            watchdog: None,
            recovery: None,
            inject_stale: 0,
            snapshots: None,
            supervision: None,
            snap_dir: None,
        }
    }
}

/// Measurements for one mode, averaged over runs.
#[derive(Debug, Clone)]
pub struct ModeResult {
    /// The mode's label (`serial`, `sync`, `async`, `age=N`).
    pub label: String,
    /// Mean completion time.
    pub mean_time: SimTime,
    /// Mean speedup over the serial baseline.
    pub speedup: f64,
    /// Mean best fitness across islands and runs.
    pub mean_best: f64,
    /// Mean generations executed per island.
    pub mean_generations: f64,
    /// Fraction of runs in which every island reached the target.
    pub success_rate: f64,
    /// Mean messages sent per run (update messages).
    pub mean_messages: f64,
    /// Mean warp metric over the run (1.0 = stable network).
    pub mean_warp: f64,
    /// Aggregate DSM counters (summed over runs).
    pub dsm: DsmStats,
    /// Aggregate message-layer counters (summed over runs) — includes
    /// retransmits, suppressed duplicates and give-ups when the reliable
    /// layer is on.
    pub comm: CommStats,
    /// Crash recoveries performed across all islands and runs.
    pub restores: u64,
    /// Largest warm-restore rollback (generations) seen in any run.
    pub max_rollback: u64,
}

/// Full result of one experiment cell.
#[derive(Debug, Clone)]
pub struct GaExpResult {
    /// The cell's configuration echo.
    pub func: TestFn,
    /// Processor count.
    pub procs: usize,
    /// Serial baseline mean time.
    pub serial_time: SimTime,
    /// Serial baseline mean best fitness.
    pub serial_best: f64,
    /// One row per mode: sync, async, each age.
    pub modes: Vec<ModeResult>,
    /// Aggregate network counters over every parallel run in the cell.
    pub net: NetStats,
    /// Aggregate message-layer counters over every reported run.
    pub comm: CommStats,
    /// One structured report per parallel run the watchdog (or deadlock
    /// detector) cut short under chaos — empty on fault-free cells.
    pub fault_reports: Vec<FaultReport>,
    /// What the snapshot protocol and the supervision layer did, summed
    /// over every run that had either enabled (`None` when neither was).
    pub recovery: Option<RecoverySummary>,
}

impl GaExpResult {
    /// The best partially-asynchronous row (among fully-converging
    /// settings; falls back to the best success rate otherwise).
    pub fn best_partial(&self) -> &ModeResult {
        let ages = || self.modes.iter().filter(|m| m.label.starts_with("age="));
        ages()
            .filter(|m| m.success_rate >= 1.0)
            .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
            .or_else(|| ages().max_by(|a, b| a.speedup.total_cmp(&b.speedup)))
            .expect("age rows exist")
    }

    /// The best competitor (serial = 1.0, sync, async) among
    /// fully-converging settings — a version that fails to converge is
    /// not a competitor (the paper ensured convergence per trial).
    pub fn best_competitor_speedup(&self) -> f64 {
        self.modes
            .iter()
            .filter(|m| (m.label == "sync" || m.label == "async") && m.success_rate >= 1.0)
            .map(|m| m.speedup)
            .fold(1.0, f64::max) // serial itself has speedup 1.0
    }

    /// The paper's headline metric: best partial over best competitor.
    pub fn improvement(&self) -> f64 {
        self.best_partial().speedup / self.best_competitor_speedup() - 1.0
    }
}

/// One parallel run's raw measurements.
struct RunMeasure {
    time: SimTime,
    /// Latest instant at which any island improved its best-ever fitness.
    last_improve: SimTime,
    best: f64,
    generations: f64,
    success: bool,
    messages: u64,
    warp: f64,
    dsm: DsmStats,
    net: NetStats,
    comm: CommStats,
    restores: u64,
    max_rollback: u64,
    /// Set when the run was cut short (watchdog/deadlock under chaos).
    fault: Option<FaultReport>,
    /// Snapshot/supervision summary (`None` when neither was enabled).
    recovery: Option<RecoverySummary>,
}

/// What a parallel run's islands achieved, folded once over their
/// outcomes (an island the watchdog cut short has none).
struct IslandTotals {
    /// Islands that finished.
    done: usize,
    /// Sum of the islands' best-ever fitness.
    best: f64,
    /// Sum of the islands' generations.
    generations: f64,
    restores: u64,
    cut_restores: u64,
    max_rollback: u64,
    /// Latest instant at which any island improved its best-ever fitness.
    last_improve: Option<SimTime>,
    /// Whether every island that finished reached the target.
    all_hit: bool,
}

impl IslandTotals {
    fn fold(outs: &[Option<IslandOutcome>]) -> IslandTotals {
        let zero = IslandTotals {
            done: 0,
            // `Iterator::sum`'s start: a run cut before any island
            // finished reports -0.0, as it always has.
            best: -0.0,
            generations: -0.0,
            restores: 0,
            cut_restores: 0,
            max_rollback: 0,
            last_improve: None,
            all_hit: true,
        };
        outs.iter().flatten().fold(zero, |t, o| IslandTotals {
            done: t.done + 1,
            best: t.best + o.best,
            generations: t.generations + o.generations as f64,
            restores: t.restores + o.restores,
            cut_restores: t.cut_restores + o.cut_restores,
            max_rollback: t.max_rollback.max(o.max_rollback),
            last_improve: t.last_improve.max(Some(o.time_of_last_improvement)),
            all_hit: t.all_hit && o.time_to_target.is_some(),
        })
    }
}

/// Run one parallel GA configuration once. `observe` gates hub
/// attachment, so internal reference runs of unreported modes don't
/// pollute the cell's histograms. `inject` gates the chaos machinery
/// (fault plan, read timeouts, heartbeats, watchdog): the bar-setting
/// synchronous reference always runs with it off, so the quality target
/// describes the clean platform.
fn run_parallel_once(
    exp: &GaExperiment,
    mode: Coherence,
    stop: nscc_ga::StopPolicy,
    seed: u64,
    observe: bool,
    inject: bool,
) -> Result<RunMeasure, SimError> {
    let p = exp.procs;
    let chaos = inject
        && (exp.platform.faults.is_some()
            || exp.watchdog.is_some()
            || exp.read_timeout.is_some()
            || exp.heartbeat.is_some());
    let mut sim = SimBuilder::new(seed);
    let platform = if inject {
        exp.platform.clone()
    } else {
        Platform {
            faults: None,
            ..exp.platform.clone()
        }
    };
    let net = platform.build(&mut sim, seed);
    let warp = WarpMeter::new();

    let mut dir = Directory::new();
    let locs = dir.add_per_rank("best", p);
    let mut world: DsmWorld<MigrantBatch> =
        DsmWorld::new(net.clone(), p, platform.msg.clone(), dir).with_warp(warp.clone());
    if let Some(hub) = exp.obs.as_ref().filter(|_| observe) {
        // One hub often observes many back-to-back programs (sweeps);
        // mark the boundary so an attached audit tap can reset its
        // per-program monitor state (barrier epochs, seq dedup, write
        // watermarks all legitimately restart here).
        hub.note_run_boundary();
        net.attach_obs(hub.clone());
        world = world.with_obs(hub.clone());
        // The sampling profiler is driven by the scheduler; only attach
        // it there when profiling is on, so plain json/trace runs keep
        // their span-free reports byte-for-byte.
        if hub.profile_period() > 0 {
            sim.attach_obs(hub.clone());
        }
    }
    // Wall-clock scheduler accounting is span-free and outside the report's
    // deterministic sections, so it attaches whenever requested — even on
    // unobserved reference runs, whose real cost is still real cost.
    if let Some(hub) = exp.obs.as_ref().filter(|h| h.wants_wall()) {
        sim.attach_wall(hub.clone());
    }
    if exp.inject_stale > 0 && observe {
        world = world.with_stale_injection(exp.inject_stale);
    }
    if chaos {
        if let Some(to) = exp.read_timeout {
            world = world.with_read_timeout(to);
        }
        if let Some(period) = exp.heartbeat {
            world.spawn_heartbeats(&mut sim, period);
        }
        if let Some(limit) = exp.watchdog {
            sim.time_limit(limit);
        }
    }
    for &l in &locs {
        world.set_initial(l, Vec::new());
    }

    let board = ConvergenceBoard::new(p);
    let outcomes: Rc<RefCell<Vec<Option<IslandOutcome>>>> = Rc::new(RefCell::new(vec![None; p]));
    // Consistent snapshots and supervision ride on injected, barrier-free
    // parallel runs only (the synchronous reference must stay exactly the
    // paper's program; under a barrier every generation is already a
    // consistent cut). Snapshots run even on fault-free plans — that is
    // precisely the configuration the byte-identity guarantee is proven
    // against.
    let snap_cfg = exp
        .snapshots
        .filter(|_| inject && p > 1 && !mode.uses_barrier())
        .map(|every| {
            let mut board = SnapshotBoard::new(p);
            if let Some(dir) = &exp.snap_dir {
                match nscc_ckpt::CkptStore::open(dir) {
                    Ok(store) => board = board.with_store(store),
                    Err(e) => eprintln!(
                        "warning: consistent cuts stay in memory — cannot open {}: {e}",
                        dir.display()
                    ),
                }
            }
            SnapConfig {
                every: every.max(1),
                plane: MarkerPlane::new(p, SimTime::from_millis(1)),
                board,
            }
        });
    if let Some(sc) = &snap_cfg {
        // Should the run wedge, the deadlock report names the marker
        // plane's open waves and per-channel in-flight recording depths.
        let board = sc.board.clone();
        sim.deadlock_note(move || board.wave_notes());
    }
    let supervisor = exp
        .supervision
        .filter(|_| inject && !mode.uses_barrier())
        .map(Supervisor::new);
    let cfg = IslandConfig {
        func: exp.func,
        params: GaParams::default(),
        cost: exp.cost.clone(),
        mode,
        migration_count: GaParams::default().pop_size / 2,
        stop,
        recovery: None,
        snap: snap_cfg.clone(),
        supervisor: supervisor.clone(),
    };
    // Crash-with-restart windows become per-rank recovery plans on the
    // barrier-free disciplines. The checkpoint cadence is the age bound
    // (min 1), so a warm restore never rolls back further than the
    // staleness the discipline already tolerates.
    let recovery_for = |rank: usize| -> Option<RecoveryPlan> {
        let style = exp.recovery?;
        if !chaos || mode.uses_barrier() {
            return None;
        }
        let plan = exp.platform.faults.as_ref()?;
        let mut crashes: Vec<(SimTime, SimTime)> = plan
            .crashes()
            .iter()
            .filter(|c| c.node as usize == rank)
            .filter_map(|c| c.restart.map(|restart| (c.at, restart)))
            .collect();
        if crashes.is_empty() {
            return None;
        }
        crashes.sort_by_key(|&(at, _)| at);
        Some(RecoveryPlan {
            every: mode.age().max(1),
            crashes,
            style,
        })
    };
    for r in 0..p {
        let node = world.node(r);
        let locs = locs.clone();
        let mut cfg = cfg.clone();
        cfg.recovery = recovery_for(r);
        let board = board.clone();
        let outcomes = Rc::clone(&outcomes);
        sim.spawn(format!("island{r}"), move |ctx| {
            let out = run_island(ctx, node, &locs, &cfg, &board);
            outcomes.borrow_mut()[r] = Some(out);
        });
    }
    let run = sim.run();
    let isl = IslandTotals::fold(&outcomes.borrow());
    // The mean is over every island of a completed run (the quality bar is
    // the mean best-ever across islands, a per-subpopulation criterion, as
    // the paper uses) and over the islands that finished of a cut one.
    let (time, last_improve, islands, success, fault) = match run {
        Ok(report) => {
            let success = match stop {
                nscc_ga::StopPolicy::FixedGenerations(_) => true,
                nscc_ga::StopPolicy::TargetQuality { .. } => isl.all_hit,
            };
            let last = isl.last_improve.unwrap_or(report.end_time);
            (report.end_time, last, p, success, None)
        }
        Err(err) if chaos => {
            // Under chaos a wedged or over-budget run is data, not a
            // crash: report what the islands achieved before the cut and
            // attach the structured diagnosis.
            let at = match &err {
                SimError::Deadlock { at, .. } => *at,
                SimError::TimeLimitExceeded { limit } => *limit,
                _ => exp.watchdog.unwrap_or(SimTime::ZERO),
            };
            let fault = FaultReport::from_sim_error(seed, &err)
                .with_rto_cap(platform.msg.reliable.as_ref().map(|rc| rc.max_rto));
            (at, at, isl.done.max(1), false, Some(fault))
        }
        Err(err) => return Err(err),
    };
    let recovery = (snap_cfg.is_some() || supervisor.is_some()).then(|| {
        let mut sum = RecoverySummary {
            cut_restores: isl.cut_restores,
            restores: isl.restores,
            max_rollback: isl.max_rollback,
            ..RecoverySummary::default()
        };
        if let Some(sc) = &snap_cfg {
            let c = sc.board.counters();
            sum.snapshots_started = c.started;
            sum.snapshots_completed = c.completed;
            sum.inflight_recorded = c.inflight_recorded;
        }
        if let Some(sup) = &supervisor {
            sup.fill(&mut sum);
        }
        sum
    });
    // The age-bounded-recovery invariant (§4.1) — under Global_Read a warm
    // restore may never roll a node back further than the staleness bound —
    // is no longer a process-killing assert here. Every Restore event
    // carries its bound, and the audit layer's rollback monitor turns an
    // excess into a structured violation (report `audit` section, `nscc
    // gate` exit 2) with flight-recorder context instead of a panic.
    Ok(RunMeasure {
        time,
        last_improve,
        best: isl.best / islands as f64,
        generations: isl.generations / islands as f64,
        success,
        messages: world.comm_stats().sent,
        warp: warp.mean(),
        dsm: world.total_stats(),
        net: net.stats(),
        comm: world.comm_stats(),
        restores: isl.restores,
        max_rollback: isl.max_rollback,
        fault,
        recovery,
    })
}

/// Run the full experiment cell: serial baseline plus every mode in
/// `exp.modes`.
pub fn run_ga_experiment(exp: &GaExperiment) -> Result<GaExpResult, SimError> {
    let modes = exp.modes.clone();
    let sync_ix = modes
        .iter()
        .position(|m| matches!(m, Coherence::Synchronous));

    let mut serial_time_sum = SimTime::ZERO;
    let mut serial_best_sum = 0.0;
    let mut acc: Vec<Vec<RunMeasure>> = (0..modes.len()).map(|_| Vec::new()).collect();

    for r in 0..exp.runs {
        let seed = exp.base_seed + r as u64;
        // Synchronous reference: a fixed generation budget (the paper's
        // 1000). Its achieved quality is the bar, and its time is the
        // instant its quality stopped improving (post-convergence
        // spinning is not billed to it). It runs even when `sync` is not
        // a reported mode (the bar must stay identical across mode
        // subsets), but is only observed when reported. It always runs
        // on the clean platform: the quality bar must describe what the
        // application achieves, not what the fault plan permits.
        let mut sync_measure = run_parallel_once(
            exp,
            Coherence::Synchronous,
            nscc_ga::StopPolicy::FixedGenerations(exp.generations),
            seed,
            sync_ix.is_some(),
            false,
        )?;
        // Quality bar: within 10% of the synchronous quality (absolute
        // tolerance guards bit-resolution floors near zero).
        let q_sync = sync_measure.best;
        let target = q_sync + 0.10 * q_sync.abs() + 1e-9;
        sync_measure.time = sync_measure.last_improve;
        if let Some(ix) = sync_ix {
            acc[ix].push(sync_measure);
        }

        // Serial baseline: total population on one node, timed to the
        // same quality bar.
        let serial = SerialGa::new(
            exp.func,
            GaParams::with_pop_size(50 * exp.procs),
            exp.cost.clone(),
            seed ^ 0x5E71A1,
        )
        .run(exp.generations * exp.cap_factor);
        let t_serial = serial.time_to_quality(target).unwrap_or(serial.time);
        serial_time_sum += t_serial;
        serial_best_sum += serial.best;

        let stop = nscc_ga::StopPolicy::TargetQuality {
            target,
            cap: exp.generations * exp.cap_factor,
        };
        for (mi, &mode) in modes.iter().enumerate() {
            if matches!(mode, Coherence::Synchronous) {
                continue;
            }
            acc[mi].push(run_parallel_once(exp, mode, stop, seed, true, true)?);
        }
    }

    let runs = exp.runs as f64;
    let serial_time = serial_time_sum / exp.runs as u64;
    let mut net_total = NetStats::default();
    let mut comm_total = CommStats::default();
    let mut fault_reports = Vec::new();
    let mut recovery_total: Option<RecoverySummary> = None;
    let mode_results = modes
        .iter()
        .zip(acc)
        .map(|(mode, ms)| {
            // A run that capped out without reaching the quality bar is a
            // failure (the paper "ensured convergence for every trial"):
            // its short cap time must not flatter the mode, so the mean
            // time is taken over *successful* runs only. A mode with no
            // successful run gets speedup 0 (DNF).
            let successes: Vec<&RunMeasure> = ms.iter().filter(|m| m.success).collect();
            let mean_time: SimTime = if successes.is_empty() {
                SimTime::MAX
            } else {
                successes.iter().map(|m| m.time).sum::<SimTime>() / successes.len() as u64
            };
            let speedup = if successes.is_empty() {
                0.0
            } else {
                serial_time.as_secs_f64() / mean_time.as_secs_f64()
            };
            let mut dsm = DsmStats::default();
            let mut comm = CommStats::default();
            for m in &ms {
                dsm.merge(&m.dsm);
                comm.merge(&m.comm);
                net_total.merge(&m.net);
                comm_total.merge(&m.comm);
                if let Some(f) = &m.fault {
                    fault_reports.push(f.clone());
                }
                if let Some(rs) = &m.recovery {
                    recovery_total
                        .get_or_insert_with(RecoverySummary::default)
                        .merge(rs);
                }
            }
            ModeResult {
                label: mode.label(),
                mean_time,
                speedup,
                mean_best: ms.iter().map(|m| m.best).sum::<f64>() / runs,
                mean_generations: ms.iter().map(|m| m.generations).sum::<f64>() / runs,
                success_rate: successes.len() as f64 / runs,
                mean_messages: ms.iter().map(|m| m.messages as f64).sum::<f64>() / runs,
                mean_warp: ms.iter().map(|m| m.warp).sum::<f64>() / runs,
                dsm,
                comm,
                restores: ms.iter().map(|m| m.restores).sum(),
                max_rollback: ms.iter().map(|m| m.max_rollback).max().unwrap_or(0),
            }
        })
        .collect();

    Ok(GaExpResult {
        func: exp.func,
        procs: exp.procs,
        serial_time,
        serial_best: serial_best_sum / runs,
        modes: mode_results,
        net: net_total,
        comm: comm_total,
        fault_reports,
        recovery: recovery_total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_cell_produces_consistent_rows() {
        let exp = GaExperiment {
            generations: 30,
            runs: 2,
            cap_factor: 4,
            cost: CostModel::deterministic(),
            ..GaExperiment::new(TestFn::F1Sphere, 2)
        };
        let res = run_ga_experiment(&exp).unwrap();
        assert_eq!(res.modes.len(), 7); // sync, async, 5 ages
        assert!(res.serial_time > SimTime::ZERO);
        for m in &res.modes {
            assert!(m.mean_time > SimTime::ZERO, "{}", m.label);
            assert!(m.speedup > 0.0);
            assert!(m.mean_messages > 0.0);
        }
        // Parallel exploration with 2x the population should reach the
        // relaxed serial target reliably.
        let ok_rate: f64 =
            res.modes.iter().map(|m| m.success_rate).sum::<f64>() / res.modes.len() as f64;
        assert!(ok_rate > 0.8, "success rate {ok_rate}");
        let _ = res.best_partial();
        assert!(res.best_competitor_speedup() >= 1.0);
    }

    #[test]
    fn chaos_cell_completes_and_reports_resilience_counters() {
        use crate::platform::Platform;
        use nscc_faults::FaultPlan;
        use nscc_msg::ReliableConfig;

        let mut platform = Platform::paper_ethernet(2).with_faults(
            FaultPlan::new(42)
                .loss(0.05)
                .crash(1, SimTime::from_millis(400)),
        );
        platform.msg.reliable = Some(ReliableConfig::default());
        let exp = GaExperiment {
            generations: 20,
            runs: 1,
            cap_factor: 3,
            cost: CostModel::deterministic(),
            platform,
            modes: vec![Coherence::PartialAsync { age: 5 }],
            read_timeout: Some(SimTime::from_millis(50)),
            heartbeat: Some(SimTime::from_millis(20)),
            watchdog: Some(SimTime::from_secs(600)),
            ..GaExperiment::new(TestFn::F1Sphere, 2)
        };
        let res = run_ga_experiment(&exp).unwrap();
        assert_eq!(res.modes.len(), 1);
        let m = &res.modes[0];
        // The run must have finished (possibly degraded, never wedged):
        // either cleanly or via the watchdog with a structured report.
        assert!(m.success_rate >= 1.0 || !res.fault_reports.is_empty());
        // With 5% loss on every frame the fault layer must have bitten,
        // and the reliable layer must have answered.
        assert!(res.net.dropped > 0, "no frames dropped");
        assert!(m.comm.retransmits > 0, "no retransmits recorded");
        // Determinism: the same seeds reproduce the same resilience story.
        let res2 = run_ga_experiment(&exp).unwrap();
        assert_eq!(res.net.dropped, res2.net.dropped);
        assert_eq!(m.comm.retransmits, res2.modes[0].comm.retransmits);
        assert_eq!(
            res.fault_reports.len(),
            res2.fault_reports.len(),
            "fault reports must reproduce per seed"
        );
    }

    #[test]
    fn crash_with_warm_recovery_bounds_rollback_to_age() {
        use crate::platform::Platform;
        use nscc_faults::FaultPlan;

        let platform =
            Platform::paper_ethernet(2).with_faults(FaultPlan::new(42).crash_and_restart(
                1,
                SimTime::from_millis(40),
                SimTime::from_millis(55),
            ));
        let exp = GaExperiment {
            generations: 20,
            runs: 1,
            cap_factor: 3,
            cost: CostModel::deterministic(),
            platform,
            modes: vec![Coherence::PartialAsync { age: 5 }],
            watchdog: Some(SimTime::from_secs(600)),
            recovery: Some(RecoveryStyle::Warm),
            ..GaExperiment::new(TestFn::F1Sphere, 2)
        };
        let res = run_ga_experiment(&exp).unwrap();
        let m = &res.modes[0];
        assert_eq!(m.restores, 1, "the crash window must be taken");
        assert!(
            m.max_rollback <= 5,
            "rollback {} exceeds the age bound",
            m.max_rollback
        );
        // Determinism: the same seed reproduces the same recovery story.
        let res2 = run_ga_experiment(&exp).unwrap();
        assert_eq!(res2.modes[0].restores, 1);
        assert_eq!(res2.modes[0].max_rollback, m.max_rollback);
    }

    #[test]
    fn snapshots_feed_warm_restores_and_stay_invisible() {
        use crate::platform::Platform;
        use nscc_faults::FaultPlan;

        let platform =
            Platform::paper_ethernet(2).with_faults(FaultPlan::new(42).crash_and_restart(
                1,
                SimTime::from_millis(40),
                SimTime::from_millis(55),
            ));
        let exp = GaExperiment {
            generations: 20,
            runs: 1,
            cap_factor: 3,
            cost: CostModel::deterministic(),
            platform,
            modes: vec![Coherence::PartialAsync { age: 5 }],
            watchdog: Some(SimTime::from_secs(600)),
            recovery: Some(RecoveryStyle::Warm),
            snapshots: Some(5),
            ..GaExperiment::new(TestFn::F1Sphere, 2)
        };
        let res = run_ga_experiment(&exp).unwrap();
        let rec = res.recovery.as_ref().expect("snapshots enabled");
        assert!(
            rec.snapshots_started >= 1 && rec.snapshots_completed >= 1,
            "marker waves must complete: {rec:?}"
        );
        assert_eq!(rec.restores, 1, "the crash window must be taken");
        assert!(
            rec.max_rollback <= 5,
            "rollback {} exceeds the age bound",
            rec.max_rollback
        );
        // Snapshots must not perturb the run: the same cell with the
        // protocol off reproduces the exact same application story.
        let off = GaExperiment {
            snapshots: None,
            ..exp.clone()
        };
        let res_off = run_ga_experiment(&off).unwrap();
        assert!(res_off.recovery.is_none(), "no recovery section when off");
        let (m_on, m_off) = (&res.modes[0], &res_off.modes[0]);
        assert_eq!(m_on.mean_time, m_off.mean_time, "virtual time shifted");
        assert_eq!(m_on.mean_best, m_off.mean_best, "evolution shifted");
        assert_eq!(m_on.mean_messages, m_off.mean_messages);
        assert_eq!(m_on.max_rollback, m_off.max_rollback);
    }

    #[test]
    fn supervisor_budget_exhaustion_completes_degraded() {
        use crate::platform::Platform;
        use nscc_faults::FaultPlan;

        // Two crash windows against a budget of one: the first restart is
        // approved, the second crash exhausts the budget and the island
        // retires. The run must complete (degraded), not deadlock.
        let plan = FaultPlan::new(7)
            .crash_and_restart(1, SimTime::from_millis(20), SimTime::from_millis(25))
            .crash_and_restart(1, SimTime::from_millis(32), SimTime::from_millis(37));
        let platform = Platform::paper_ethernet(2).with_faults(plan);
        let exp = GaExperiment {
            generations: 20,
            runs: 1,
            cap_factor: 3,
            cost: CostModel::deterministic(),
            platform,
            modes: vec![Coherence::PartialAsync { age: 5 }],
            watchdog: Some(SimTime::from_secs(600)),
            recovery: Some(RecoveryStyle::Warm),
            snapshots: Some(5),
            supervision: Some(SupervisorPolicy {
                max_restarts: 1,
                backoff_base: SimTime::from_millis(2),
                backoff_cap: SimTime::from_millis(4),
            }),
            ..GaExperiment::new(TestFn::F1Sphere, 2)
        };
        let res = run_ga_experiment(&exp).unwrap();
        assert!(res.fault_reports.is_empty(), "degraded ≠ wedged");
        let rec = res.recovery.as_ref().expect("supervision enabled");
        assert_eq!(rec.restarts_approved, 1, "first crash restarts");
        assert_eq!(rec.give_ups, 1, "second crash exhausts the budget");
        assert_eq!(rec.failed_ranks, vec![1]);
        assert_eq!(rec.restores, 1, "only the approved restart restores");
        assert!(
            rec.max_rollback <= 5,
            "rollback {} exceeds the age bound",
            rec.max_rollback
        );
        assert!(rec.max_backoff_ns > 0, "backoff must have been imposed");
        // Determinism: the same seed reproduces the same degradation.
        let res2 = run_ga_experiment(&exp).unwrap();
        assert_eq!(res2.recovery, res.recovery);
    }

    #[test]
    fn restricted_mode_list_reports_only_those_modes() {
        let hub = Hub::new();
        let exp = GaExperiment {
            generations: 20,
            runs: 1,
            cap_factor: 4,
            cost: CostModel::deterministic(),
            obs: Some(hub.clone()),
            modes: vec![Coherence::PartialAsync { age: 5 }],
            ..GaExperiment::new(TestFn::F1Sphere, 2)
        };
        let res = run_ga_experiment(&exp).unwrap();
        assert_eq!(res.modes.len(), 1);
        assert_eq!(res.modes[0].label, "age=5");
        // The internal synchronous reference still ran (it sets the
        // quality bar) but must not have been observed: a sync run would
        // have recorded barrier events.
        let summary = hub.summary();
        assert_eq!(summary.barriers, 0);
        assert!(summary.reads > 0);
    }
}
