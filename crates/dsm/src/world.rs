//! Construction of a DSM world: directory + communication layer + per-rank
//! nodes with seeded initial values.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use nscc_msg::{CommStats, CommWorld, MsgConfig, WireSize};
use nscc_net::{Network, WarpMeter};
use nscc_obs::Hub;
use nscc_sim::{SimBuilder, SimTime};

use crate::directory::{Directory, LocId};
use crate::node::{DsmMsg, DsmNode, DsmStats};

/// A DSM spanning `ranks` processes over one simulated network.
///
/// Build it once, hand each rank its [`DsmNode`] via
/// [`node`](DsmWorld::node), then read aggregate statistics after the run.
/// World and nodes live and die on the simulation's thread:
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<nscc_dsm::DsmWorld<u64>>();
/// ```
pub struct DsmWorld<T: 'static> {
    comm: CommWorld<DsmMsg<T>>,
    dir: Arc<Directory>,
    /// Seeded initial values, indexed by [`LocId::index`].
    initial: Vec<Option<Arc<T>>>,
    history: usize,
    read_timeout: Option<SimTime>,
    inject_stale: u64,
    stats: Rc<RefCell<Vec<DsmStats>>>,
    obs: Option<Hub>,
}

impl<T: WireSize + 'static> DsmWorld<T> {
    /// Create a world of `ranks` nodes over `net` with the given directory.
    pub fn new(net: Network, ranks: usize, cfg: MsgConfig, dir: Directory) -> Self {
        DsmWorld {
            comm: CommWorld::new(net, ranks, cfg),
            initial: vec![None; dir.len()],
            dir: Arc::new(dir),
            history: 0,
            read_timeout: None,
            inject_stale: 0,
            stats: Rc::new(RefCell::new(vec![DsmStats::default(); ranks])),
            obs: None,
        }
    }

    /// Attach a warp meter to the underlying message layer.
    pub fn with_warp(mut self, warp: WarpMeter) -> Self {
        self.comm = self.comm.with_warp(warp);
        self
    }

    /// Attach an observability hub: every node built afterwards emits
    /// structured read/write/barrier events, and the message layer
    /// forwards warp samples (when a meter is attached). Detached costs
    /// one branch per operation. The directory's location names are
    /// registered with the hub so heatmaps and dependency listings render
    /// `best`/`mig3` instead of raw location ids.
    pub fn with_obs(mut self, hub: Hub) -> Self {
        for (loc, meta) in self.dir.iter() {
            hub.set_loc_name(loc.0, meta.name.clone());
        }
        self.comm = self.comm.with_obs(hub.clone());
        self.obs = Some(hub);
        self
    }

    /// Bound how long any node's blocked read or barrier wait may go
    /// without progress before degrading: reads return the freshest
    /// cached value (tagged [`ReadOutcome::degraded`](crate::ReadOutcome))
    /// and barriers stop waiting on peers the failure detector has
    /// declared dead. `None` (the default) preserves the paper's
    /// wait-forever semantics. Pair with
    /// [`spawn_heartbeats`](DsmWorld::spawn_heartbeats) so silence
    /// implies death rather than idleness.
    pub fn with_read_timeout(mut self, timeout: SimTime) -> Self {
        self.read_timeout = Some(timeout);
        self
    }

    /// Arm deliberate coherence sabotage on every node built afterwards:
    /// each node's first `n` would-block `Global_Read`s return their
    /// stale cached value immediately, violating the age bound on
    /// purpose (see [`DsmNode::set_stale_injection`]). This exists to
    /// validate the audit pipeline end-to-end; 0 (the default) is off.
    pub fn with_stale_injection(mut self, n: u64) -> Self {
        self.inject_stale = n;
        self
    }

    /// Spawn one daemon per rank that beacons [`DsmMsg::Heartbeat`] to
    /// every peer each `period`, keeping the failure detector's
    /// last-heard stamps fresh while a node computes silently. Daemons
    /// never prolong the run; call after building the world, before
    /// `sim.run()`.
    pub fn spawn_heartbeats(&self, sim: &mut SimBuilder, period: SimTime) {
        assert!(period > SimTime::ZERO, "heartbeat period must be positive");
        let ranks = self.ranks();
        for rank in 0..ranks {
            let ep = self.comm.endpoint(rank);
            sim.spawn_daemon(format!("heartbeat{rank}"), move |ctx| loop {
                ctx.advance(period);
                for peer in (0..ranks).filter(|&p| p != rank) {
                    ep.send(ctx, peer, DsmMsg::Heartbeat);
                }
            });
        }
    }

    /// Retain a window of `depth` past versions per location in every
    /// cache, enabling [`DsmNode::get_version`]/[`DsmNode::wait_version`]
    /// (needed by rollback-style consumers that read per-iteration values).
    pub fn with_history(mut self, depth: usize) -> Self {
        self.history = depth;
        self
    }

    /// Seed `loc` with an initial value (age 0) in every cache that can see
    /// it (one shared copy). Reads with a requirement of age ≥ 0 succeed
    /// immediately on it.
    pub fn set_initial(&mut self, loc: LocId, value: T) {
        self.initial[loc.index()] = Some(Arc::new(value));
    }

    /// The static directory.
    pub fn directory(&self) -> &Directory {
        &self.dir
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.comm.ranks()
    }

    /// Build the node for `rank`; call once per rank and move the node into
    /// that rank's process closure.
    pub fn node(&self, rank: usize) -> DsmNode<T> {
        let cache = (self.dir.iter().zip(&self.initial))
            .map(|((_, meta), v)| {
                let sees = meta.writer == rank || meta.readers.contains(&rank);
                v.as_ref().filter(|_| sees).map(|v| (0, Arc::clone(v)))
            })
            .collect();
        let mut node = DsmNode::new(
            rank,
            self.comm.endpoint(rank),
            Arc::clone(&self.dir),
            cache,
            self.history,
            Rc::clone(&self.stats),
            self.obs.clone(),
        );
        if let Some(to) = self.read_timeout {
            node.set_timeout(to);
        }
        if self.inject_stale > 0 {
            node.set_stale_injection(self.inject_stale);
        }
        node
    }

    /// Per-rank DSM counters (updated continuously during the run).
    pub fn stats(&self) -> Vec<DsmStats> {
        self.stats.borrow().clone()
    }

    /// Sum of all ranks' DSM counters.
    pub fn total_stats(&self) -> DsmStats {
        let mut total = DsmStats::default();
        for s in self.stats.borrow().iter() {
            total.merge(s);
        }
        total
    }

    /// Message-layer counters.
    pub fn comm_stats(&self) -> CommStats {
        self.comm.stats()
    }
}
