//! The per-rank DSM node: age-tagged cache, update propagation, the
//! blocking `Global_Read`, and the message barrier.
//!
//! Every read discipline is a `Global_Read` at the mode's age: 0 under a
//! barrier, ∞ for `Coherence::ASYNC` (the uncontrolled asynchronous
//! implementation). The paper's rule is stated once, in the pure `admit`;
//! [`DsmNode::global_read_ex`] is one loop that consults it on entry, after
//! every applied message and at every timeout, and every outcome — hit,
//! sabotage, fresh release, degraded timeout — leaves through its single
//! exit. Blocked reads and barrier waits share one bounded receive; updates
//! and checkpoint restores share one version-window insert.
//!
//! Per-location state (cache, version window) is a vector indexed by
//! [`LocId::index`], and per-rank state (the failure detector's last-heard
//! stamps) a vector indexed by rank: both are dense by construction.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

use nscc_ckpt::json::ToJson;
use nscc_ckpt::Snapshot;
use nscc_msg::{Endpoint, Envelope, WireSize};
use nscc_obs::{Hub, ObsEvent, SpanKind};
use nscc_sim::{Ctx, SimTime};

use crate::directory::{Directory, LocId};

/// Wire messages exchanged by DSM nodes.
#[derive(Debug)]
pub enum DsmMsg<T> {
    /// A new value of a shared location, stamped with the writer's
    /// iteration number ("age" in the paper's sense).
    Update {
        /// Which location.
        loc: LocId,
        /// The writer's iteration number when the value was generated.
        age: u64,
        /// The value itself: packed once by the writer and shared by every
        /// copy of the message (multicast fan-out, retransmits) and every
        /// cache it lands in. Charged on the wire as a plain `T`.
        value: Arc<T>,
    },
    /// Barrier protocol: a rank announcing it reached barrier `epoch`.
    BarrierArrive {
        /// Barrier epoch (monotonically increasing per program).
        epoch: u64,
    },
    /// Barrier protocol: the coordinator releasing barrier `epoch`.
    BarrierRelease {
        /// Barrier epoch being released.
        epoch: u64,
    },
    /// Liveness beacon for the failure detector (see
    /// [`DsmWorld::spawn_heartbeats`](crate::DsmWorld::spawn_heartbeats)).
    /// Carries no data; receipt refreshes the sender's last-heard stamp.
    Heartbeat,
}

/// A 4-byte variant tag, then the fields back to back.
impl<T: WireSize> WireSize for DsmMsg<T> {
    fn wire_size(&self) -> usize {
        const TAG: usize = 4;
        TAG + match self {
            DsmMsg::Update { loc, age, value } => {
                loc.wire_size() + age.wire_size() + value.wire_size()
            }
            DsmMsg::BarrierArrive { epoch } | DsmMsg::BarrierRelease { epoch } => epoch.wire_size(),
            DsmMsg::Heartbeat => 0,
        }
    }
}

// Not derived: copying a message shares its value, so `T: Clone` is not
// needed (and a derive would demand it).
impl<T> Clone for DsmMsg<T> {
    fn clone(&self) -> Self {
        match self {
            DsmMsg::Update { loc, age, value } => DsmMsg::Update {
                loc: *loc,
                age: *age,
                value: Arc::clone(value),
            },
            DsmMsg::BarrierArrive { epoch } => DsmMsg::BarrierArrive { epoch: *epoch },
            DsmMsg::BarrierRelease { epoch } => DsmMsg::BarrierRelease { epoch: *epoch },
            DsmMsg::Heartbeat => DsmMsg::Heartbeat,
        }
    }
}

/// Per-node DSM counters, readable after a run via
/// [`DsmWorld::stats`](crate::DsmWorld::stats).
#[derive(Debug, Clone, Copy, Default, ToJson, Snapshot)]
pub struct DsmStats {
    /// `write` calls performed.
    pub writes: u64,
    /// Update messages pushed to readers.
    pub updates_sent: u64,
    /// Update messages applied to the cache.
    pub updates_applied: u64,
    /// Updates discarded because a newer value was already cached.
    pub updates_stale: u64,
    /// Reads satisfied immediately from the cache.
    pub cache_hits: u64,
    /// Reads that had to block for a fresher value.
    pub blocked_reads: u64,
    /// Total virtual time spent blocked in `Global_Read`.
    pub block_time: SimTime,
    /// Barrier episodes completed.
    pub barriers: u64,
    /// Total virtual time spent waiting at barriers.
    pub barrier_time: SimTime,
    /// `Global_Read`s that timed out and returned a stale cached value
    /// instead of enforcing their staleness bound.
    pub degraded_reads: u64,
    /// Peers this node's failure detector declared dead.
    pub suspected_writers: u64,
    /// Barrier waits abandoned by the failure detector.
    pub barrier_timeouts: u64,
}

impl DsmStats {
    /// Element-wise accumulation.
    pub fn merge(&mut self, other: &DsmStats) {
        self.writes += other.writes;
        self.updates_sent += other.updates_sent;
        self.updates_applied += other.updates_applied;
        self.updates_stale += other.updates_stale;
        self.cache_hits += other.cache_hits;
        self.blocked_reads += other.blocked_reads;
        self.block_time += other.block_time;
        self.barriers += other.barriers;
        self.barrier_time += other.barrier_time;
        self.degraded_reads += other.degraded_reads;
        self.suspected_writers += other.suspected_writers;
        self.barrier_timeouts += other.barrier_timeouts;
    }
}

/// The age stamped on a writer's final "retirement" update: it satisfies
/// any staleness requirement, letting still-blocked readers observe that
/// the writer has left the computation (see
/// [`DsmNode::retire`]).
pub const RETIRE_AGE: u64 = u64::MAX;

/// Outcome of an exact-version wait: the writer retired before (or
/// instead of) publishing the requested version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retired;

/// Everything a `Global_Read` can report (see
/// [`DsmNode::global_read_ex`]): the value, its generation age, and
/// whether and for how long the read blocked.
#[derive(Debug, Clone)]
pub struct ReadOutcome<T> {
    /// Iteration in which the returned value was generated.
    pub age: u64,
    /// The value, shared with the cache (and with every other reader of
    /// the same update). Written values are immutable; to change one,
    /// mutate a copy (`Arc::make_mut` or an explicit clone).
    pub value: Arc<T>,
    /// Whether the read had to block.
    pub blocked: bool,
    /// How long it blocked (zero when served from cache).
    pub block_time: SimTime,
    /// The requirement the read enforced (`curr_iter − age`, saturated).
    pub required: u64,
    /// Whether the staleness bound was *violated*: the read timed out
    /// (see [`DsmWorld::with_read_timeout`](crate::DsmWorld::with_read_timeout))
    /// and returned the freshest cached value instead of blocking further.
    pub degraded: bool,
}

/// How a `Global_Read` was released (see [`DsmNode::global_read_ex`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Release {
    /// The cached value was fresh enough on entry.
    Hit,
    /// Released stale on purpose, spending the sabotage budget.
    Sabotage,
    /// Released by an arriving update after blocking.
    Fresh,
    /// Timed out and degraded to the cached value.
    Degraded,
}

/// Why a `Global_Read` is consulting [`admit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wake {
    /// The read was just issued (pending updates already drained).
    Entry,
    /// A message arrived while blocked and was applied.
    Arrival,
    /// The bounded receive's deadline passed with nothing received.
    Timeout,
}

/// The paper's `Global_Read` rule, pure: with `cached` the age of the
/// cached copy (if any) and `required = curr_iter − age` (saturated),
/// decide how the read is released at this `wake`, or `None` to keep
/// waiting. A cached value generated in iteration `required` or later
/// releases the read: a hit on entry, fresh after blocking. A too-old value
/// is delivered anyway only on entry while the sabotage budget lasts (audit
/// validation), or when a bounded wait times out — liveness over the
/// bound. With nothing cached the read always waits.
fn admit(cached: Option<u64>, required: u64, wake: Wake, sabotage_left: u64) -> Option<Release> {
    let fresh = cached? >= required;
    match wake {
        Wake::Entry if fresh => Some(Release::Hit),
        _ if fresh => Some(Release::Fresh),
        Wake::Entry if sabotage_left > 0 => Some(Release::Sabotage),
        Wake::Timeout => Some(Release::Degraded),
        _ => None,
    }
}

/// One rank's DSM state. Move it into the rank's process closure; it is not
/// shared (each node has exactly one owner process).
pub struct DsmNode<T: 'static> {
    rank: usize,
    ep: Endpoint<DsmMsg<T>>,
    dir: Arc<Directory>,
    /// The age-tagged copy of each location, indexed by [`LocId::index`].
    cache: Vec<Option<(u64, Arc<T>)>>,
    /// Per-location window of recent versions, oldest first (empty unless
    /// `history > 0`).
    versions: Vec<VecDeque<(u64, Arc<T>)>>,
    /// How many past versions to retain per location.
    history: usize,
    /// Applied-update log (history mode only): rollback consumers drain it
    /// with [`take_update_log`](DsmNode::take_update_log) to learn which
    /// `(loc, age)` pairs changed since they last looked.
    update_log: Vec<(LocId, u64)>,
    /// Highest barrier epoch released (observed from the coordinator, or
    /// released by this node when it is the coordinator).
    released: u64,
    /// Coordinator only: which ranks have arrived, per epoch.
    arrivals: HashMap<u64, HashSet<usize>>,
    /// Give up on blocked reads / barrier waits after this long without
    /// progress (`None` = wait forever, the paper's semantics).
    timeout: Option<SimTime>,
    /// Deliberate-sabotage budget: this many would-block `Global_Read`s
    /// are released immediately with the stale cached value, violating
    /// the age bound on purpose so the audit pipeline can be validated
    /// end-to-end (see `DsmWorld::with_stale_injection`). 0 = off.
    inject_stale: u64,
    /// Failure detector: when each rank was last heard from (send-time
    /// stamps of arriving messages, heartbeats included), indexed by rank.
    last_heard: Vec<SimTime>,
    /// Peers declared dead by the failure detector.
    suspected: HashSet<usize>,
    /// Active consistent-snapshot recording (Chandy–Lamport), if any:
    /// updates arriving on still-open incoming channels are copied into
    /// the cut's channel state as they are applied. `None` costs one
    /// branch per applied update.
    snap: Option<SnapRec<T>>,
    stats: DsmStats,
    shared_stats: Rc<RefCell<Vec<DsmStats>>>,
    obs: Option<Hub>,
}

/// In-progress marker-protocol recording for one cut (see
/// [`DsmNode::snap_begin`]). The node keeps serving reads and writes
/// throughout — recording shares the applied value, it never pauses.
struct SnapRec<T> {
    /// Incoming channels whose closing marker has not arrived yet.
    open: HashSet<usize>,
    /// Updates recorded from open channels, in arrival order.
    recorded: Vec<(LocId, u64, Arc<T>)>,
}

impl<T: WireSize + 'static> DsmNode<T> {
    pub(crate) fn new(
        rank: usize,
        ep: Endpoint<DsmMsg<T>>,
        dir: Arc<Directory>,
        cache: Vec<Option<(u64, Arc<T>)>>,
        history: usize,
        shared_stats: Rc<RefCell<Vec<DsmStats>>>,
        obs: Option<Hub>,
    ) -> Self {
        DsmNode {
            rank,
            last_heard: vec![SimTime::ZERO; ep.ranks()],
            ep,
            versions: vec![VecDeque::new(); dir.len()],
            dir,
            cache,
            history,
            update_log: Vec::new(),
            released: 0,
            arrivals: HashMap::new(),
            timeout: None,
            inject_stale: 0,
            suspected: HashSet::new(),
            snap: None,
            stats: DsmStats::default(),
            shared_stats,
            obs,
        }
    }

    /// This node's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn ranks(&self) -> usize {
        self.ep.ranks()
    }

    /// Whether this rank is a registered reader of `loc` (sparse
    /// migration topologies make islands read only their neighbours).
    pub fn is_reader(&self, loc: LocId) -> bool {
        self.dir.meta(loc).readers.contains(&self.rank)
    }

    /// Write a new value of `loc`, generated in the writer's iteration
    /// `iter`. Updates the local copy and pushes the value to every
    /// registered reader (direct sends, §4.1 of the paper): every write
    /// propagates, the retirement sentinel included.
    ///
    /// This is the one allocation a value costs: it is wrapped in an
    /// `Arc` here and that same `Arc` travels in every copy of the update
    /// and sits in every cache, version window and read result.
    pub fn write(&mut self, ctx: &mut Ctx, loc: LocId, value: T, iter: u64) {
        let value = Arc::new(value);
        let meta = self.dir.meta(loc);
        assert_eq!(
            meta.writer, self.rank,
            "rank {} writing location `{}` owned by rank {}",
            self.rank, meta.name, meta.writer
        );
        self.stats.writes += 1;
        if let Some(hub) = &self.obs {
            hub.emit(ObsEvent::Write {
                t_ns: ctx.now().as_nanos(),
                rank: self.rank as u32,
                loc: loc.0,
                age: iter,
            });
        }
        let readers = &meta.readers;
        if !readers.is_empty() {
            self.stats.updates_sent += readers.len() as u64;
            // One pack, one wire frame on broadcast media (pvm_mcast).
            // Tagged with (writer, loc, iter) provenance so blocked
            // readers can attribute their release; the stamp only exists
            // when a hub is attached.
            self.ep.multicast_tagged(
                ctx,
                readers,
                DsmMsg::Update {
                    loc,
                    age: iter,
                    value: Arc::clone(&value),
                },
                loc.0,
                iter,
            );
        }
        self.cache[loc.index()] = Some((iter, value));
        self.flush_stats();
    }

    /// Bound how long blocked reads and barrier waits may stall without
    /// progress before degrading (see
    /// [`DsmWorld::with_read_timeout`](crate::DsmWorld::with_read_timeout)).
    pub fn set_timeout(&mut self, timeout: SimTime) {
        self.timeout = Some(timeout);
    }

    /// Arm the deliberate-sabotage budget: the next `n` would-block
    /// `Global_Read`s return their stale cached value immediately instead
    /// of waiting, emitting a `ReadDone` whose staleness exceeds the
    /// requested bound. Exists solely to validate that the audit layer
    /// catches real bound violations; never enabled by default.
    pub fn set_stale_injection(&mut self, n: u64) {
        self.inject_stale = n;
    }

    /// Peers this node's failure detector has declared dead so far.
    pub fn suspected(&self) -> &HashSet<usize> {
        &self.suspected
    }

    /// Mark every peer that has been silent for longer than `window` as
    /// suspected, emitting one [`WriterSuspected`](ObsEvent::WriterSuspected)
    /// per new suspect. Peers in `exempt` have already proven themselves
    /// (e.g. by arriving at the barrier being waited on) and are skipped —
    /// a rank blocked waiting alongside us is silent but not dead.
    /// Returns how many peers were newly suspected.
    fn suspect_silent_peers(
        &mut self,
        ctx: &Ctx,
        window: SimTime,
        exempt: &HashSet<usize>,
    ) -> usize {
        let now = ctx.now();
        let mut newly = 0;
        for peer in 0..self.ep.ranks() {
            if peer == self.rank || self.suspected.contains(&peer) || exempt.contains(&peer) {
                continue;
            }
            if now.saturating_sub(self.last_heard[peer]) > window {
                self.suspected.insert(peer);
                self.stats.suspected_writers += 1;
                newly += 1;
                if let Some(hub) = &self.obs {
                    hub.emit(ObsEvent::WriterSuspected {
                        t_ns: now.as_nanos(),
                        rank: self.rank as u32,
                        peer: peer as u32,
                    });
                }
            }
        }
        newly
    }

    /// The paper's `Global_Read(locn, curr_iter, age)`: return the cached
    /// value if it was generated no earlier than iteration
    /// `curr_iter − age` of the writer, else block until such a value
    /// arrives. Returns `(generation_age, value)`.
    pub fn global_read(
        &mut self,
        ctx: &mut Ctx,
        loc: LocId,
        curr_iter: u64,
        age: u64,
    ) -> (u64, Arc<T>) {
        let out = self.global_read_ex(ctx, loc, curr_iter, age);
        (out.age, out.value)
    }

    /// [`global_read`](DsmNode::global_read) that also reports whether
    /// the read blocked, for how long, and whether it degraded.
    ///
    /// Every outcome — cache hit, sabotaged release, fresh release after
    /// blocking, degraded timeout — leaves through one exit that books
    /// the counters, emits the outcome's events and publishes the stats.
    pub fn global_read_ex(
        &mut self,
        ctx: &mut Ctx,
        loc: LocId,
        curr_iter: u64,
        age: u64,
    ) -> ReadOutcome<T> {
        let required = curr_iter.saturating_sub(age);
        self.drain(ctx);
        let t0 = ctx.now();
        let mut wake = Wake::Entry;
        let mut deadline = None;
        // Provenance `(received_at, sent_at, stamp)` of the last message
        // applied: on a fresh release, that is the update whose arrival
        // released us (only an update to `loc` can make the cache fresh).
        let mut dep = None;
        let release = loop {
            if let Some(release) = admit(self.cached_age(loc), required, wake, self.inject_stale) {
                break release;
            }
            if wake == Wake::Entry {
                self.stats.blocked_reads += 1;
                if let Some(hub) = &self.obs {
                    hub.emit(ObsEvent::ReadBlocked {
                        t_ns: t0.as_nanos(),
                        rank: self.rank as u32,
                        loc: loc.0,
                        required,
                    });
                    // Tell the profiler what this process is blocked *on*:
                    // samples taken during the wait fold under
                    // `Global_Read;<locn>`. The scheduler reads it back by
                    // its own pid, which is the rank only when no daemon
                    // spawned before the ranks.
                    hub.annotate_phase(ctx.pid().0, "Global_Read", self.dir.meta(loc).name.clone());
                }
            }
            // The first wait, and a timeout with nothing cached to degrade
            // to, each start a fresh deadline.
            if wake != Wake::Arrival {
                deadline = self.timeout.map(|to| ctx.now() + to);
            }
            wake = match self.recv_by(ctx, deadline) {
                None => Wake::Timeout,
                Some(env) => {
                    dep = env.prov.map(|p| (ctx.now(), env.sent_at, p));
                    self.apply(env);
                    Wake::Arrival
                }
            };
        };
        let (have, value) = self.cache[loc.index()]
            .clone()
            .expect("admit released a cached value");
        let block_time = ctx.now() - t0;
        let blocked = matches!(release, Release::Fresh | Release::Degraded);
        let degraded = release == Release::Degraded;
        self.stats.block_time += block_time;
        match release {
            Release::Hit => self.stats.cache_hits += 1,
            Release::Degraded => self.stats.degraded_reads += 1,
            // Deliberate sabotage (audit validation only) spends one budget
            // unit; the emitted ReadDone carries the true excess staleness,
            // which the audit staleness monitor must flag.
            Release::Sabotage => self.inject_stale -= 1,
            Release::Fresh => {}
        }
        if let Some(hub) = &self.obs {
            let (now, rank) = (ctx.now(), self.rank as u32);
            match (release, dep) {
                // A sabotaged release gets a deliberately empty
                // decomposition: no stage accounts for the excess age, so
                // the conservation monitor must flag it just as the
                // staleness monitor flags the bound violation the ReadDone
                // carries.
                (Release::Sabotage, _) if hub.staleness_enabled() => {
                    hub.emit(ObsEvent::ReadAnatomy {
                        t_ns: now.as_nanos(),
                        reader: rank,
                        writer: rank,
                        loc: loc.0,
                        write_iter: have,
                        msg_seq: 0,
                        age_ns: required.saturating_sub(have).max(1),
                        wait_ns: 0,
                        publish_ns: 0,
                        transit_ns: 0,
                        fault_ns: 0,
                        retrans_ns: 0,
                        queue_ns: 0,
                        apply_ns: 0,
                    })
                }
                // Staleness anatomy: decompose this release's observed age
                // into named hop stages from the releasing update's
                // virtual-time stamps. Each stage is a difference of
                // adjacent stamps, so the seven stages telescope to
                // exactly `t_rel - min(t0, write_ns)` — the conservation
                // contract the audit monitor asserts online.
                (Release::Fresh, Some((_, sent_at, p))) if hub.staleness_enabled() => {
                    let (t_rel, t0_ns, s) = (now.as_nanos(), t0.as_nanos(), sent_at.as_nanos());
                    hub.emit(ObsEvent::ReadAnatomy {
                        t_ns: t_rel,
                        reader: rank,
                        writer: p.writer,
                        loc: loc.0,
                        write_iter: p.write_iter,
                        msg_seq: p.msg_seq,
                        age_ns: t_rel - t0_ns.min(p.write_ns),
                        wait_ns: p.write_ns.saturating_sub(t0_ns),
                        publish_ns: s.saturating_sub(p.write_ns),
                        transit_ns: p
                            .arrive_ns
                            .saturating_sub(s)
                            .saturating_sub(p.retrans_ns)
                            .saturating_sub(p.fault_ns),
                        fault_ns: p.fault_ns,
                        retrans_ns: p.retrans_ns,
                        queue_ns: p.recv_ns.saturating_sub(p.arrive_ns),
                        apply_ns: t_rel.saturating_sub(p.recv_ns),
                    });
                }
                _ => {}
            }
            hub.emit(if degraded {
                ObsEvent::ReadDegraded {
                    t_ns: now.as_nanos(),
                    rank,
                    loc: loc.0,
                    required,
                    delivered: have,
                }
            } else {
                // The recorded staleness saturates, so future or retired
                // values count as perfectly fresh.
                ObsEvent::ReadDone {
                    t_ns: now.as_nanos(),
                    rank,
                    loc: loc.0,
                    curr_iter,
                    requested: age,
                    delivered: have,
                    staleness: curr_iter.saturating_sub(have),
                    blocked,
                    block_ns: block_time.as_nanos(),
                }
            });
            if release == Release::Fresh {
                // Blocked waits live on the Phase lane (pid = rank), which
                // the scheduler's own Blocked spans never use.
                hub.span(
                    rank,
                    t0.as_nanos(),
                    now.as_nanos(),
                    SpanKind::Phase,
                    format!("Global_Read:{}", self.dir.meta(loc).name),
                );
                // Causal attribution: which write released us, and where
                // its latency went. In-flight time is the delivery latency
                // minus what queueing and the retransmit protocol already
                // account for.
                if let Some((recv_at, sent_at, p)) = dep {
                    let total = recv_at.saturating_sub(sent_at).as_nanos();
                    hub.emit(ObsEvent::ReadDep {
                        t_ns: now.as_nanos(),
                        reader: rank,
                        writer: p.writer,
                        loc: loc.0,
                        write_iter: p.write_iter,
                        msg_seq: p.msg_seq,
                        block_ns: block_time.as_nanos(),
                        queued_ns: p.queued_ns,
                        inflight_ns: total
                            .saturating_sub(p.queued_ns)
                            .saturating_sub(p.retrans_ns),
                        retrans_ns: p.retrans_ns,
                    });
                }
            }
            if blocked {
                hub.clear_phase(ctx.pid().0);
            }
        }
        self.flush_stats();
        ReadOutcome {
            age: have,
            value,
            blocked,
            block_time,
            required,
            degraded,
        }
    }

    /// Read under a [`Coherence`](crate::Coherence) discipline: a
    /// `Global_Read` at [`Coherence::age`](crate::Coherence::age), which
    /// is 0 under a barrier and `u64::MAX` for
    /// [`Coherence::ASYNC`](crate::Coherence::ASYNC) (the requirement
    /// saturates to 0 and any cached value serves). The emitted
    /// `ReadDone` carries the true requested age and delivered staleness.
    pub fn read(
        &mut self,
        ctx: &mut Ctx,
        loc: LocId,
        curr_iter: u64,
        mode: crate::Coherence,
    ) -> (u64, Arc<T>) {
        self.global_read(ctx, loc, curr_iter, mode.age())
    }

    /// Publish a final "infinitely fresh" update of `loc` so readers still
    /// blocked on this writer unblock and can observe termination
    /// ([`RETIRE_AGE`]). Call once per owned location when leaving the
    /// computation under a barrier-free discipline.
    pub fn retire(&mut self, ctx: &mut Ctx, loc: LocId, value: T) {
        self.write(ctx, loc, value, RETIRE_AGE);
    }

    /// The exact version of `loc` generated at iteration `age`, if it is
    /// in the retained window (requires a world built
    /// [`with_history`](crate::DsmWorld::with_history)). Non-blocking and
    /// local; drains nothing. The window is searched newest first, where
    /// readers' ages cluster; its ages are unique (see `remember`), so the
    /// direction cannot change which entry is found.
    pub fn get_version(&self, loc: LocId, age: u64) -> Option<&Arc<T>> {
        let window = self.versions[loc.index()].iter().rev();
        let (_, v) = window
            .chain(&self.cache[loc.index()])
            .find(|(a, _)| *a == age)?;
        Some(v)
    }

    /// Block until the exact version of `loc` for iteration `age` arrives,
    /// returning it — or [`Retired`] if the writer published its
    /// retirement sentinel instead. Used by the synchronous logic-sampling
    /// discipline, which needs per-iteration values.
    pub fn wait_version(&mut self, ctx: &mut Ctx, loc: LocId, age: u64) -> Result<Arc<T>, Retired> {
        self.drain(ctx);
        let entry = ctx.now();
        let mut waited = false;
        let out = loop {
            let hit = self.get_version(loc, age).cloned();
            if let Some(v) = hit {
                self.stats.cache_hits += 1;
                break Ok(v);
            }
            match self.cached_age(loc) {
                Some(RETIRE_AGE) => break Err(Retired),
                Some(a) if a > age => panic!(
                    "version {age} of `{}` was evicted (latest {a}, window {}); \
                     increase DsmWorld::with_history",
                    self.dir.meta(loc).name,
                    self.history
                ),
                _ => {}
            }
            // Counted per message waited for, not per wait.
            self.stats.blocked_reads += 1;
            waited = true;
            let t0 = ctx.now();
            let env = self.ep.recv(ctx);
            self.apply(env);
            self.stats.block_time += ctx.now() - t0;
        };
        // A wait that blocked gets its Phase-lane span.
        if let (true, Some(hub)) = (waited, &self.obs) {
            hub.span(
                self.rank as u32,
                entry.as_nanos(),
                ctx.now().as_nanos(),
                SpanKind::Phase,
                format!("wait_version:{}", self.dir.meta(loc).name),
            );
        }
        self.flush_stats();
        out
    }

    /// Apply all pending updates without blocking.
    pub fn drain(&mut self, ctx: &mut Ctx) {
        while let Some(env) = self.ep.try_recv(ctx) {
            self.apply(env);
        }
    }

    /// The age of the cached copy of `loc`, if any.
    pub fn cached_age(&self, loc: LocId) -> Option<u64> {
        self.cache[loc.index()].as_ref().map(|(a, _)| *a)
    }

    /// Message-based barrier: rank 0 coordinates; everyone else announces
    /// arrival and waits for the release. Updates arriving during the wait
    /// are applied (they are not lost). `epoch` must increase by 1 per
    /// barrier, starting at 1.
    pub fn barrier(&mut self, ctx: &mut Ctx, epoch: u64) {
        let p = self.ep.ranks();
        self.stats.barriers += 1;
        let t0 = ctx.now();
        if let Some(hub) = &self.obs {
            hub.emit(ObsEvent::BarrierEnter {
                t_ns: t0.as_nanos(),
                rank: self.rank as u32,
                epoch,
            });
        }
        if p == 1 {
            self.finish_barrier(ctx, epoch, t0);
            return;
        }
        if self.rank == 0 {
            // Wait until every peer has arrived or been declared dead:
            // a barrier must not wait forever on a crashed node.
            loop {
                let arrived = self.arrivals.entry(epoch).or_default().clone();
                let waiting = (1..p)
                    .filter(|q| !arrived.contains(q) && !self.suspected.contains(q))
                    .count();
                if waiting == 0 {
                    break;
                }
                let window = self.timeout.map(|to| ctx.now() + to);
                match self.recv_by(ctx, window) {
                    Some(env) => self.apply(env),
                    None => {
                        // Silence exceeded the window: declare unheard
                        // peers dead. Already-arrived peers are exempt —
                        // they are silent because they are waiting on us.
                        if self.suspect_silent_peers(ctx, self.timeout.unwrap(), &arrived) > 0 {
                            self.stats.barrier_timeouts += 1;
                        }
                    }
                }
            }
            // Arrivals at or below a released epoch are dropped on receipt
            // (a suspected-but-alive rank may still arrive late).
            self.arrivals.remove(&epoch);
            self.released = epoch;
            self.ep.broadcast(ctx, DsmMsg::BarrierRelease { epoch });
        } else {
            self.ep.send(ctx, 0, DsmMsg::BarrierArrive { epoch });
            while self.released < epoch {
                let window = self.timeout.map(|to| ctx.now() + to);
                match self.recv_by(ctx, window) {
                    Some(env) => self.apply(env),
                    None => {
                        // A dead coordinator can never release us; exit
                        // the barrier degraded rather than deadlock.
                        self.suspect_silent_peers(ctx, self.timeout.unwrap(), &HashSet::new());
                        if self.suspected.contains(&0) {
                            self.stats.barrier_timeouts += 1;
                            break;
                        }
                    }
                }
            }
        }
        self.finish_barrier(ctx, epoch, t0);
    }

    /// The bounded receive of blocked reads and barrier waits: block
    /// forever without a deadline, otherwise until `deadline` (`None` =
    /// it passed with nothing received).
    fn recv_by(&mut self, ctx: &mut Ctx, deadline: Option<SimTime>) -> Option<Envelope<DsmMsg<T>>> {
        match deadline {
            None => Some(self.ep.recv(ctx)),
            Some(dl) => self.ep.recv_deadline(ctx, dl),
        }
    }

    /// Common barrier epilogue: account the wait, emit the release event
    /// and its Phase-lane span, and publish the counters.
    fn finish_barrier(&mut self, ctx: &mut Ctx, epoch: u64, t0: SimTime) {
        let wait = ctx.now() - t0;
        self.stats.barrier_time += wait;
        if let Some(hub) = &self.obs {
            hub.emit(ObsEvent::BarrierExit {
                t_ns: ctx.now().as_nanos(),
                rank: self.rank as u32,
                epoch,
                wait_ns: wait.as_nanos(),
            });
            if wait > SimTime::ZERO {
                hub.span(
                    self.rank as u32,
                    t0.as_nanos(),
                    ctx.now().as_nanos(),
                    SpanKind::Phase,
                    "barrier",
                );
            }
        }
        self.flush_stats();
    }

    /// Start recording for a consistent cut (local state was just
    /// captured by the caller, which also tracks the cut's id): every incoming channel is open except the
    /// one the first marker arrived on (`closed`, `None` on the
    /// initiator). Updates applied from open channels are copied into the
    /// cut's channel state until [`snap_close`](DsmNode::snap_close)
    /// closes them. A previous unfinished recording is discarded — a
    /// newer marker wave preempts a cut stalled by a dead peer.
    pub fn snap_begin(&mut self, closed: Option<usize>) {
        let mut open: HashSet<usize> = (0..self.ep.ranks()).filter(|&q| q != self.rank).collect();
        if let Some(c) = closed {
            open.remove(&c);
        }
        self.snap = Some(SnapRec {
            open,
            recorded: Vec::new(),
        });
    }

    /// A marker from `src` arrived: stop recording that channel.
    pub fn snap_close(&mut self, src: usize) {
        if let Some(s) = &mut self.snap {
            s.open.remove(&src);
        }
    }

    /// Incoming channels still awaiting their closing marker (0 = the
    /// local part of the cut is complete).
    pub fn snap_open(&self) -> usize {
        self.snap.as_ref().map_or(0, |s| s.open.len())
    }

    /// In-flight updates recorded so far for the active cut (deadlock
    /// breadcrumbs: a large depth with channels still open points at the
    /// writer whose marker never arrived).
    pub fn snap_recorded(&self) -> usize {
        self.snap.as_ref().map_or(0, |s| s.recorded.len())
    }

    /// Finish (or abandon) the recording, returning the in-flight updates
    /// captured from then-open channels, in arrival order (each one the
    /// very value that was applied, not a copy; it encodes as a plain `T`).
    pub fn snap_finish(&mut self) -> Vec<(LocId, u64, Arc<T>)> {
        self.snap.take().map(|s| s.recorded).unwrap_or_default()
    }

    /// Drain the applied-update log (history mode): every `(loc, age)`
    /// whose value was applied (or corrected) since the previous call.
    pub fn take_update_log(&mut self) -> Vec<(LocId, u64)> {
        std::mem::take(&mut self.update_log)
    }

    /// The attached observability hub, if any (recovery layers emit their
    /// checkpoint/restore events through the node's own hub).
    pub fn hub(&self) -> Option<&Hub> {
        self.obs.as_ref()
    }

    /// Restore cache entries from a checkpoint, replacing whatever is
    /// cached for those locations. In history mode the restored values
    /// also enter the version window, so exact-version readers stay
    /// consistent. Pending (undelivered) updates are untouched: draining
    /// them afterwards resyncs the node from its writers, which is exactly
    /// how a legitimately stale peer catches up — the paper's age bound
    /// makes recovery indistinguishable from staleness.
    pub fn restore_cache(&mut self, entries: Vec<(LocId, u64, T)>) {
        for (loc, age, value) in entries {
            let value = Arc::new(value);
            if self.history > 0 {
                self.remember(loc, age, &value);
            }
            self.cache[loc.index()] = Some((age, value));
        }
    }

    /// Enter `value` as version `age` of `loc` in the retained window
    /// (history mode). A version re-using an existing age is a
    /// *correction* (rollback protocols re-publish amended values) and
    /// replaces that version in place, so no age is in the window twice.
    fn remember(&mut self, loc: LocId, age: u64, value: &Arc<T>) {
        let w = &mut self.versions[loc.index()];
        if let Some(slot) = w.iter_mut().rev().find(|(a, _)| *a == age) {
            slot.1 = Arc::clone(value);
        } else {
            w.push_back((age, Arc::clone(value)));
            while w.len() > self.history {
                w.pop_front();
            }
        }
    }

    /// This node's counters so far.
    pub fn stats(&self) -> DsmStats {
        self.stats
    }

    fn apply(&mut self, env: Envelope<DsmMsg<T>>) {
        // Events emitted here are stamped with the update's send time: the
        // receive handler has no clock of its own.
        let sent_at = env.sent_at;
        // Any message is proof of life at its send time (the failure
        // detector compares against send-time stamps throughout).
        let heard = &mut self.last_heard[env.src];
        *heard = (*heard).max(sent_at);
        match env.payload {
            DsmMsg::Update { loc, age, value } => {
                // Marker-protocol channel recording: a cut in progress
                // copies updates from still-open channels into its channel
                // state. The update is *also* applied normally below — the
                // node never stops serving for a snapshot.
                if let Some(s) = &mut self.snap {
                    if s.open.contains(&env.src) {
                        s.recorded.push((loc, age, Arc::clone(&value)));
                    }
                }
                if self.history > 0 {
                    // Versioned mode: retain a window of recent versions.
                    self.update_log.push((loc, age));
                    self.remember(loc, age, &value);
                    self.stats.updates_applied += 1;
                    if !matches!(self.cached_age(loc), Some(have) if have > age) {
                        self.cache[loc.index()] = Some((age, value));
                    }
                    self.flush_stats();
                    return;
                }
                match self.cached_age(loc) {
                    Some(have) if have > age => {
                        // FIFO channels make this rare, but guard anyway:
                        // never replace a newer value with an older one.
                        self.stats.updates_stale += 1;
                        if let Some(hub) = &self.obs {
                            hub.emit(ObsEvent::StaleDiscard {
                                t_ns: sent_at.as_nanos(),
                                rank: self.rank as u32,
                                loc: loc.0,
                                age,
                                have,
                            });
                        }
                    }
                    _ => {
                        self.cache[loc.index()] = Some((age, value));
                        self.stats.updates_applied += 1;
                    }
                }
            }
            DsmMsg::BarrierArrive { epoch } => {
                debug_assert_eq!(self.rank, 0, "only rank 0 coordinates barriers");
                if epoch > self.released {
                    self.arrivals.entry(epoch).or_default().insert(env.src);
                }
            }
            DsmMsg::BarrierRelease { epoch } => {
                self.released = self.released.max(epoch);
            }
            // Proof of life only; handled above for every message kind.
            DsmMsg::Heartbeat => {}
        }
    }

    fn flush_stats(&self) {
        self.shared_stats.borrow_mut()[self.rank] = self.stats;
    }
}

impl<T: Clone + 'static> DsmNode<T> {
    /// Export the age-tagged cache in location order (deterministic
    /// encoding): the DSM half of a node checkpoint. The one place the DSM
    /// copies values out — a checkpoint owns its data (cold path).
    pub fn export_cache(&self) -> Vec<(LocId, u64, T)> {
        let cached = self.cache.iter().enumerate();
        cached
            .filter_map(|(i, e)| {
                e.as_ref()
                    .map(|(age, v)| (LocId(i as u32), *age, T::clone(v)))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DsmWorld;
    use nscc_msg::MsgConfig;
    use nscc_net::{IdealMedium, Network};
    use nscc_sim::SimBuilder;

    /// Every input of the rule against the paper's contract, stated in
    /// terms of `curr_iter − age`: a value generated in that iteration or
    /// later releases the read (a hit on entry, fresh after blocking); a
    /// too-old one is delivered only by sabotage on entry or by a timeout.
    #[test]
    fn admit_follows_the_global_read_contract() {
        let cached_ages = std::iter::once(None).chain((0..=8).map(Some));
        let wakes = [Wake::Entry, Wake::Arrival, Wake::Timeout];
        let mut cases = 0;
        for cached in cached_ages {
            for curr_iter in 0..=8u64 {
                for age in [0, 1, 2, 5, u64::MAX] {
                    for wake in wakes {
                        for budget in [0, 1] {
                            let required = curr_iter.saturating_sub(age);
                            let got = admit(cached, required, wake, budget);
                            let meets = cached.is_some_and(|have| have >= required);
                            let stale = cached.is_some() && !meets;
                            let case = format!(
                                "cached {cached:?}, curr_iter {curr_iter}, age {age}, \
                                 {wake:?}, budget {budget}: {got:?}"
                            );
                            let released_fresh = matches!(got, Some(Release::Hit | Release::Fresh));
                            assert_eq!(released_fresh, meets, "{case}");
                            assert_eq!(
                                got == Some(Release::Hit),
                                meets && wake == Wake::Entry,
                                "{case}"
                            );
                            let sabotage = stale && wake == Wake::Entry && budget > 0;
                            assert_eq!(got == Some(Release::Sabotage), sabotage, "{case}");
                            let degraded = stale && wake == Wake::Timeout;
                            assert_eq!(got == Some(Release::Degraded), degraded, "{case}");
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 10 * 9 * 5 * 3 * 2);
    }

    /// A suspected-but-alive rank that reaches a barrier after the
    /// coordinator released it must not leave an arrival set behind.
    #[test]
    fn late_barrier_arrival_leaves_no_arrival_set() {
        let mut dir = Directory::new();
        dir.add("x", 0, [1, 2]);
        let net = Network::new(IdealMedium::new(SimTime::from_millis(1)));
        let world: DsmWorld<u64> = DsmWorld::new(net, 3, MsgConfig::default(), dir)
            .with_read_timeout(SimTime::from_millis(50));
        let coord = Rc::new(RefCell::new(world.node(0)));
        let mut on_time = world.node(1);
        let mut late = world.node(2);
        let mut sim = SimBuilder::new(0);
        let c = Rc::clone(&coord);
        sim.spawn("rank0", move |ctx| {
            let mut coord = c.borrow_mut();
            coord.barrier(ctx, 1);
            assert!(coord.suspected().contains(&2));
            // Rank 2's arrival at the released barrier lands meanwhile.
            ctx.advance(SimTime::from_millis(500));
            coord.drain(ctx);
        });
        sim.spawn("rank1", move |ctx| on_time.barrier(ctx, 1));
        sim.spawn("rank2", move |ctx| {
            // Stalls past the failure detector's window.
            ctx.advance(SimTime::from_millis(200));
            late.barrier(ctx, 1);
        });
        sim.run().unwrap();
        let arrivals = &coord.borrow().arrivals;
        assert!(arrivals.is_empty(), "arrival sets left: {arrivals:?}");
    }
}
