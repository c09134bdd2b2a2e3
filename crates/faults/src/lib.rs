//! # nscc-faults — deterministic fault injection for the NSCC stack
//!
//! The simulated platform is implausibly kind: every frame arrives exactly
//! once and no node ever dies. This crate makes it hostile — on purpose,
//! deterministically. A [`FaultPlan`] is a seeded, virtual-time schedule of
//! adversities:
//!
//! * per-link message **loss**, **duplication** and **extra delay**
//!   (reordering) probabilities, with per-link overrides;
//! * transient **degradation windows** (extra loss + latency for a while);
//! * node **stall** windows and **crash**(-and-restart) schedules
//!   (fail-silent: frames to/from a dead node vanish);
//! * network **partitions** with heal times.
//!
//! The plan is applied as [`FaultyMedium`], a [`Medium`] wrapper, so
//! `EthernetBus`, `Sp2Switch` and `IdealMedium` compose with it unchanged:
//! the inner medium still computes arrival times (and sees the wire
//! occupied even by frames that are then lost); the wrapper only attaches
//! a delivery [`Verdict`]. Determinism is total — the same plan seed over
//! the same traffic sequence produces the same faults.
//!
//! ```
//! use nscc_faults::{FaultPlan, FaultyMedium};
//! use nscc_net::{IdealMedium, Medium, NodeId, Verdict};
//! use nscc_sim::SimTime;
//!
//! let plan = FaultPlan::new(7).loss(0.5);
//! let mut m = FaultyMedium::new(IdealMedium::new(SimTime::from_millis(1)), plan);
//! let mut dropped = 0;
//! for _ in 0..100 {
//!     let tx = m.plan_transmit(SimTime::ZERO, NodeId(0), NodeId(1), 64);
//!     if matches!(tx.verdict, Verdict::Drop(_)) {
//!         dropped += 1;
//!     }
//! }
//! assert!(dropped > 20 && dropped < 80);
//! ```

#![warn(missing_docs)]

// crates/perf/build-offline.sh passes no `--extern nscc_ckpt` here, only `-L`.
extern crate nscc_ckpt;

mod plan_json;

use std::fmt::{self, Write as _};

use nscc_ckpt::json::{DecodeError, FromJson, Json, Path, Schema, ToJson};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use nscc_net::{DropReason, Medium, MediumStats, NodeId, Transmission, Verdict};
use nscc_sim::{SimError, SimTime};

use plan_json::LinkOverride;

/// Schema version stamped into (and demanded from) every plan document.
pub const PLAN_SCHEMA_VERSION: u64 = 1;

/// A probability, always in `[0, 1]`: the builders clamp into it and a
/// plan document holding anything else is refused. It is written in the
/// plan's float form, `0.0` for zero and the shortest round-trip form
/// (`{:?}`) otherwise, so `1.0` keeps its fraction.
#[derive(Clone, Copy, Default, PartialEq, PartialOrd)]
pub struct Prob(f64);

impl Prob {
    /// `p` clamped into `[0, 1]`.
    pub fn new(p: f64) -> Prob {
        Prob(p.clamp(0.0, 1.0))
    }

    /// The probability as an `f64`.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Prob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

impl fmt::Debug for Prob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

impl ToJson for Prob {
    fn write_json(&self, out: &mut String) {
        if self.0 == 0.0 {
            out.push_str("0.0");
        } else {
            let _ = write!(out, "{:?}", self.0);
        }
    }
}

impl FromJson for Prob {
    fn read_json(value: &Json, at: Path<'_>) -> Result<Self, DecodeError> {
        match f64::read_json(value, at)? {
            p if (0.0..=1.0).contains(&p) => Ok(Prob(p)),
            p => Err(at.error(format!("must be a probability in [0, 1] (got {p})"))),
        }
    }
}

/// Per-link fault probabilities.
#[derive(Debug, Clone, Copy, Default, PartialEq, ToJson, FromJson)]
#[json(default)]
pub struct LinkFaults {
    /// Probability a frame is silently lost.
    #[json(rename = "drop")]
    pub drop_prob: Prob,
    /// Probability a delivered frame arrives twice.
    #[json(rename = "dup")]
    pub dup_prob: Prob,
    /// Probability a delivered frame gets extra delay (reordering).
    pub delay_prob: Prob,
    /// Upper bound of the extra delay drawn when `delay_prob` fires.
    #[json(rename = "delay_max_ns")]
    pub delay_max: SimTime,
}

impl LinkFaults {
    fn is_noop(&self) -> bool {
        self.drop_prob.get() == 0.0 && self.dup_prob.get() == 0.0 && self.delay_prob.get() == 0.0
    }
}

/// A transient all-links degradation window: extra loss and latency
/// between `from` (inclusive) and `until` (exclusive).
#[derive(Debug, Clone, Copy, Default, PartialEq, ToJson, FromJson)]
#[json(default)]
pub struct DegradedWindow {
    /// Window start (inclusive).
    #[json(rename = "from_ns")]
    pub from: SimTime,
    /// Window end (exclusive).
    #[json(rename = "until_ns")]
    pub until: SimTime,
    /// Loss probability added on top of the per-link probability.
    pub extra_drop: Prob,
    /// Latency added to every frame in the window.
    #[json(rename = "extra_delay_ns")]
    pub extra_delay: SimTime,
}

/// A node crash: fail-silent from `at` until `restart` (forever if
/// `None`). Frames to or from a crashed node are dropped; the simulated
/// process itself keeps running blind (its sends vanish), which is exactly
/// how a fail-silent peer looks from the network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, ToJson, FromJson)]
#[json(default)]
pub struct CrashSchedule {
    /// The crashed node.
    pub node: u32,
    /// Crash instant (inclusive).
    #[json(rename = "at_ns")]
    pub at: SimTime,
    /// Optional restart instant (exclusive end of the outage).
    #[json(rename = "restart_ns")]
    pub restart: Option<SimTime>,
}

/// A node stall window: frames to/from the node are held and arrive no
/// earlier than `until` (a GC pause / overloaded peer, not a death).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, ToJson, FromJson)]
#[json(default)]
pub struct StallWindow {
    /// The stalled node.
    pub node: u32,
    /// Stall start (inclusive).
    #[json(rename = "from_ns")]
    pub from: SimTime,
    /// Stall end: held frames arrive at or after this instant.
    #[json(rename = "until_ns")]
    pub until: SimTime,
}

/// A network partition window: frames crossing between `group` and the
/// rest of the nodes are dropped between `from` and `until` (heal time).
#[derive(Debug, Clone, Default, PartialEq, Eq, ToJson, FromJson)]
#[json(default)]
pub struct PartitionWindow {
    /// Partition start (inclusive).
    #[json(rename = "from_ns")]
    pub from: SimTime,
    /// Heal instant (exclusive).
    #[json(rename = "until_ns")]
    pub until: SimTime,
    /// One side of the partition; everything else is the other side.
    pub group: Vec<u32>,
}

/// A seeded, virtual-time fault schedule. Build with the chained DSL:
///
/// ```
/// use nscc_faults::FaultPlan;
/// use nscc_sim::SimTime;
///
/// let plan = FaultPlan::new(42)
///     .loss(0.01)
///     .duplication(0.002)
///     .delay(0.05, SimTime::from_millis(5))
///     .crash(2, SimTime::from_secs(10))
///     .partition(SimTime::from_secs(3), SimTime::from_secs(4), [0, 1]);
/// assert!(!plan.is_noop());
/// ```
///
/// Its JSON document (`nscc run fault_study --fault-plan <path>`, and the
/// `plan` of a hunt
/// repro) is this declaration: every section is written, and all but
/// `schema` and `seed` may be left out of a hand-written plan.
#[derive(Debug, Clone, Default, PartialEq, ToJson, FromJson)]
pub struct FaultPlan {
    schema: Schema<PLAN_SCHEMA_VERSION>,
    seed: u64,
    #[json(default)]
    base: LinkFaults,
    #[json(default)]
    links: Vec<LinkOverride>,
    #[json(default)]
    degraded: Vec<DegradedWindow>,
    #[json(default)]
    crashes: Vec<CrashSchedule>,
    #[json(default)]
    stalls: Vec<StallWindow>,
    #[json(default)]
    partitions: Vec<PartitionWindow>,
}

impl FaultPlan {
    /// An empty plan whose randomness derives entirely from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Set the loss probability on every link.
    pub fn loss(mut self, p: f64) -> Self {
        self.base.drop_prob = Prob::new(p);
        self
    }

    /// Set the duplication probability on every link.
    pub fn duplication(mut self, p: f64) -> Self {
        self.base.dup_prob = Prob::new(p);
        self
    }

    /// With probability `p`, add a uniform extra delay in `[0, max]` to a
    /// frame (the reordering knob: delayed frames overtake one another).
    pub fn delay(mut self, p: f64, max: SimTime) -> Self {
        self.base.delay_prob = Prob::new(p);
        self.base.delay_max = max;
        self
    }

    /// Override the fault probabilities of one directed link.
    pub fn link(mut self, src: u32, dst: u32, faults: LinkFaults) -> Self {
        self.links.push(LinkOverride { src, dst, faults });
        self
    }

    /// Add a transient all-links degradation window.
    pub fn degrade(
        mut self,
        from: SimTime,
        until: SimTime,
        extra_drop: f64,
        extra_delay: SimTime,
    ) -> Self {
        self.degraded.push(DegradedWindow {
            from,
            until,
            extra_drop: Prob::new(extra_drop),
            extra_delay,
        });
        self
    }

    /// Crash `node` at `at`, permanently.
    pub fn crash(mut self, node: u32, at: SimTime) -> Self {
        self.crashes.push(CrashSchedule {
            node,
            at,
            restart: None,
        });
        self
    }

    /// Crash `node` at `at` and bring it back at `restart`.
    pub fn crash_and_restart(mut self, node: u32, at: SimTime, restart: SimTime) -> Self {
        self.crashes.push(CrashSchedule {
            node,
            at,
            restart: Some(restart),
        });
        self
    }

    /// Stall `node` between `from` and `until` (its frames are held, not
    /// lost).
    pub fn stall(mut self, node: u32, from: SimTime, until: SimTime) -> Self {
        self.stalls.push(StallWindow { node, from, until });
        self
    }

    /// Partition `group` away from every other node between `from` and
    /// `until`.
    pub fn partition(
        mut self,
        from: SimTime,
        until: SimTime,
        group: impl IntoIterator<Item = u32>,
    ) -> Self {
        self.partitions.push(PartitionWindow {
            from,
            until,
            group: group.into_iter().collect(),
        });
        self
    }

    /// True when the plan injects nothing (a wrapped medium behaves
    /// identically to the bare one).
    pub fn is_noop(&self) -> bool {
        self.base.is_noop()
            && self.links.iter().all(|l| l.faults.is_noop())
            && self.degraded.is_empty()
            && self.crashes.is_empty()
            && self.stalls.is_empty()
            && self.partitions.is_empty()
    }

    /// The scheduled crash windows (recovery layers use these to plan
    /// checkpoint cadence and restart handling).
    pub fn crashes(&self) -> &[CrashSchedule] {
        &self.crashes
    }

    /// Whether `node` is crashed at virtual time `t`.
    pub fn crashed(&self, node: u32, t: SimTime) -> bool {
        self.crashes
            .iter()
            .any(|c| c.node == node && t >= c.at && c.restart.is_none_or(|r| t < r))
    }

    /// Whether a `src → dst` frame crosses an active partition at `t`.
    pub fn partitioned(&self, src: u32, dst: u32, t: SimTime) -> bool {
        self.partitions
            .iter()
            .any(|p| t >= p.from && t < p.until && p.group.contains(&src) != p.group.contains(&dst))
    }

    /// The effective per-link faults for `src → dst` at `t` (link override
    /// or the base, plus any degradation window in force).
    pub fn effective(&self, src: u32, dst: u32, t: SimTime) -> LinkFaults {
        let mut f = self
            .links
            .iter()
            .find(|l| l.src == src && l.dst == dst)
            .map(|l| l.faults)
            .unwrap_or(self.base);
        for w in &self.degraded {
            if t >= w.from && t < w.until {
                f.drop_prob = Prob::new((f.drop_prob.get() + w.extra_drop.get()).min(1.0));
            }
        }
        f
    }

    /// Extra latency from degradation windows in force at `t`.
    fn degraded_delay(&self, t: SimTime) -> SimTime {
        let mut extra = SimTime::ZERO;
        for w in &self.degraded {
            if t >= w.from && t < w.until {
                extra = extra.saturating_add(w.extra_delay);
            }
        }
        extra
    }

    /// The earliest instant a frame touching `node` at `t` may arrive
    /// (stall windows hold frames).
    fn stall_floor(&self, node: u32, t: SimTime) -> Option<SimTime> {
        self.stalls
            .iter()
            .filter(|s| s.node == node && t >= s.from && t < s.until)
            .map(|s| s.until)
            .max()
    }

    /// One human line summarizing the plan (for banners and reports).
    pub fn describe(&self) -> String {
        format!(
            "seed={} loss={} dup={} delay={}@{} links={} degraded={} crashes={} stalls={} partitions={}",
            self.seed,
            self.base.drop_prob,
            self.base.dup_prob,
            self.base.delay_prob,
            self.base.delay_max,
            self.links.len(),
            self.degraded.len(),
            self.crashes.len(),
            self.stalls.len(),
            self.partitions.len(),
        )
    }
}

/// A [`Medium`] wrapper that applies a [`FaultPlan`] to every frame. The
/// inner medium keeps full authority over timing and contention (lost
/// frames still occupied the wire); the wrapper decides delivery.
///
/// Broadcast capability is deliberately masked (`transmit_broadcast`
/// returns `None`) so multicasts fall back to unicast fan-out and every
/// link gets an independent verdict.
pub struct FaultyMedium {
    inner: Box<dyn Medium>,
    plan: FaultPlan,
    rng: StdRng,
}

impl FaultyMedium {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: impl Medium + 'static, plan: FaultPlan) -> Self {
        let rng = StdRng::seed_from_u64(plan.seed ^ 0xFA17_FA17_FA17_FA17);
        FaultyMedium {
            inner: Box::new(inner),
            plan,
            rng,
        }
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl Medium for FaultyMedium {
    fn transmit(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        payload_bytes: usize,
    ) -> SimTime {
        self.plan_transmit(now, src, dst, payload_bytes).arrival
    }

    fn plan_transmit(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        payload_bytes: usize,
    ) -> Transmission {
        // The wire is occupied regardless of the frame's fate: a frame
        // lost downstream still consumed bandwidth and created contention.
        let mut arrival = self.inner.transmit(now, src, dst, payload_bytes);
        // Everything this layer adds on top of the healthy medium's
        // arrival is booked as injected fault delay.
        let baseline = arrival;

        // Stalled endpoints hold the frame until the window ends.
        let floor = self
            .plan
            .stall_floor(src.0, now)
            .into_iter()
            .chain(self.plan.stall_floor(dst.0, now))
            .max();
        if let Some(f) = floor {
            arrival = arrival.max(f);
        }

        // Crashed endpoints are fail-silent.
        if self.plan.crashed(src.0, now) || self.plan.crashed(dst.0, now) {
            return Transmission {
                arrival,
                verdict: Verdict::Drop(DropReason::NodeDown),
                fault: arrival - baseline,
            };
        }

        // Partitions drop crossing frames until they heal.
        if self.plan.partitioned(src.0, dst.0, now) {
            return Transmission {
                arrival,
                verdict: Verdict::Drop(DropReason::Partitioned),
                fault: arrival - baseline,
            };
        }

        let f = self.plan.effective(src.0, dst.0, now);
        arrival = arrival.saturating_add(self.plan.degraded_delay(now));

        if f.drop_prob.get() > 0.0 && self.rng.gen_bool(f.drop_prob.get()) {
            return Transmission {
                arrival,
                verdict: Verdict::Drop(DropReason::Loss),
                fault: arrival - baseline,
            };
        }

        if f.delay_prob.get() > 0.0 && self.rng.gen_bool(f.delay_prob.get()) {
            let extra = self.rng.gen_range(0..=f.delay_max.as_nanos());
            arrival = arrival.saturating_add(SimTime::from_nanos(extra));
        }

        if f.dup_prob.get() > 0.0 && self.rng.gen_bool(f.dup_prob.get()) {
            let gap = SimTime::from_micros(self.rng.gen_range(20..400));
            return Transmission {
                arrival,
                verdict: Verdict::Duplicate {
                    second: arrival.saturating_add(gap),
                },
                fault: arrival - baseline,
            };
        }

        Transmission {
            arrival,
            verdict: Verdict::Deliver,
            fault: arrival - baseline,
        }
    }

    fn transmit_broadcast(
        &mut self,
        _now: SimTime,
        _src: NodeId,
        _payload_bytes: usize,
    ) -> Option<SimTime> {
        // Mask hardware broadcast so every destination link gets its own
        // independent verdict via unicast fan-out.
        None
    }

    fn stats(&self) -> MediumStats {
        self.inner.stats()
    }

    fn next_free(&self, now: SimTime) -> SimTime {
        self.inner.next_free(now)
    }
}

/// One blocked process's diagnostics inside a [`FaultReport`].
#[derive(Debug, Clone)]
pub struct BlockedDiag {
    /// Process name.
    pub name: String,
    /// What it was waiting on.
    pub reason: String,
    /// Virtual time it blocked at.
    pub since: SimTime,
    /// Last virtual instant it made progress.
    pub last_progress: SimTime,
    /// Messages queued in its mailbox when the run died, if probed.
    pub mailbox_depth: Option<usize>,
}

/// A structured record of a run that died under injected faults: the
/// sim-level watchdog converts would-be deadlocks (and watchdog horizon
/// hits) into one of these instead of a fatal error, so chaos sweeps can
/// report "sync collapsed here" as data.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// The fault plan's seed (reproduces the run).
    pub seed: u64,
    /// Virtual time of death.
    pub at: SimTime,
    /// Cause: `deadlock`, `time_limit`, `event_limit`, or `panic`.
    pub cause: String,
    /// Human-readable summary line.
    pub detail: String,
    /// The reliable layer's retransmit backoff ceiling in nanoseconds,
    /// when the run used one (`ReliableConfig::max_rto`). A report whose
    /// `at` dwarfs this cap means the transport kept retrying on schedule
    /// and the run still died — the failure is not a backoff runaway.
    pub rto_cap_ns: Option<u64>,
    /// Per-process diagnostics (deadlocks only).
    pub blocked: Vec<BlockedDiag>,
}

impl FaultReport {
    /// Build a report from the [`SimError`] that killed a run.
    pub fn from_sim_error(seed: u64, err: &SimError) -> Self {
        match err {
            SimError::Deadlock { at, blocked, notes } => FaultReport {
                seed,
                at: *at,
                cause: "deadlock".into(),
                detail: if notes.is_empty() {
                    format!("{} process(es) blocked with no future event", blocked.len())
                } else {
                    format!(
                        "{} process(es) blocked with no future event; {}",
                        blocked.len(),
                        notes.join("; ")
                    )
                },
                rto_cap_ns: None,
                blocked: blocked
                    .iter()
                    .map(|b| BlockedDiag {
                        name: b.name.clone(),
                        reason: b.reason.clone(),
                        since: b.since,
                        last_progress: b.last_progress,
                        mailbox_depth: b.mailbox_depth,
                    })
                    .collect(),
            },
            SimError::TimeLimitExceeded { limit } => FaultReport {
                seed,
                at: *limit,
                cause: "time_limit".into(),
                detail: format!("watchdog horizon {limit} exceeded"),
                rto_cap_ns: None,
                blocked: Vec::new(),
            },
            SimError::EventLimitExceeded { limit } => FaultReport {
                seed,
                at: SimTime::ZERO,
                cause: "event_limit".into(),
                detail: format!("event cap {limit} exceeded"),
                rto_cap_ns: None,
                blocked: Vec::new(),
            },
            SimError::ProcessPanicked { name, message, .. } => FaultReport {
                seed,
                at: SimTime::ZERO,
                cause: "panic".into(),
                detail: format!("process `{name}` panicked: {message}"),
                rto_cap_ns: None,
                blocked: Vec::new(),
            },
        }
    }

    /// Stamp the transport's retransmit backoff ceiling onto the report
    /// (see [`rto_cap_ns`](FaultReport::rto_cap_ns)).
    pub fn with_rto_cap(mut self, cap: Option<SimTime>) -> Self {
        self.rto_cap_ns = cap.map(|c| c.as_nanos());
        self
    }

    /// One-line summary for logs.
    pub fn summary(&self) -> String {
        format!(
            "fault report (seed {}): {} at t={} — {}",
            self.seed, self.cause, self.at, self.detail
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nscc_net::IdealMedium;

    fn ideal() -> IdealMedium {
        IdealMedium::new(SimTime::from_millis(1))
    }

    #[test]
    fn noop_plan_is_transparent() {
        let plan = FaultPlan::new(1);
        assert!(plan.is_noop());
        let mut m = FaultyMedium::new(ideal(), plan);
        for i in 0..50 {
            let t = SimTime::from_millis(i);
            let tx = m.plan_transmit(t, NodeId(0), NodeId(1), 100);
            assert_eq!(tx.arrival, t + SimTime::from_millis(1));
            assert_eq!(tx.verdict, Verdict::Deliver);
        }
    }

    #[test]
    fn loss_is_seeded_and_deterministic() {
        let verdicts = |seed: u64| -> Vec<bool> {
            let mut m = FaultyMedium::new(ideal(), FaultPlan::new(seed).loss(0.3));
            (0..200)
                .map(|_| {
                    matches!(
                        m.plan_transmit(SimTime::ZERO, NodeId(0), NodeId(1), 64)
                            .verdict,
                        Verdict::Drop(_)
                    )
                })
                .collect()
        };
        assert_eq!(verdicts(5), verdicts(5));
        assert_ne!(verdicts(5), verdicts(6));
        let drops = verdicts(5).iter().filter(|&&d| d).count();
        assert!((20..=100).contains(&drops), "drops {drops}");
    }

    #[test]
    fn crash_drops_frames_both_ways_until_restart() {
        let plan =
            FaultPlan::new(0).crash_and_restart(1, SimTime::from_secs(1), SimTime::from_secs(2));
        let mut m = FaultyMedium::new(ideal(), plan);
        let alive = SimTime::from_millis(500);
        let dead = SimTime::from_millis(1500);
        let back = SimTime::from_millis(2500);
        assert_eq!(
            m.plan_transmit(alive, NodeId(0), NodeId(1), 64).verdict,
            Verdict::Deliver
        );
        assert_eq!(
            m.plan_transmit(dead, NodeId(0), NodeId(1), 64).verdict,
            Verdict::Drop(DropReason::NodeDown)
        );
        assert_eq!(
            m.plan_transmit(dead, NodeId(1), NodeId(0), 64).verdict,
            Verdict::Drop(DropReason::NodeDown)
        );
        assert_eq!(
            m.plan_transmit(back, NodeId(0), NodeId(1), 64).verdict,
            Verdict::Deliver
        );
    }

    #[test]
    fn partition_drops_only_crossing_frames() {
        let plan = FaultPlan::new(0).partition(SimTime::ZERO, SimTime::from_secs(1), [0, 1]);
        let mut m = FaultyMedium::new(ideal(), plan);
        let t = SimTime::from_millis(10);
        assert_eq!(
            m.plan_transmit(t, NodeId(0), NodeId(1), 64).verdict,
            Verdict::Deliver,
            "same side"
        );
        assert_eq!(
            m.plan_transmit(t, NodeId(0), NodeId(2), 64).verdict,
            Verdict::Drop(DropReason::Partitioned)
        );
        assert_eq!(
            m.plan_transmit(t, NodeId(2), NodeId(3), 64).verdict,
            Verdict::Deliver,
            "other side internal"
        );
        // After the heal everything flows again.
        assert_eq!(
            m.plan_transmit(SimTime::from_secs(2), NodeId(0), NodeId(2), 64)
                .verdict,
            Verdict::Deliver
        );
    }

    #[test]
    fn stall_holds_frames_until_window_end() {
        let plan = FaultPlan::new(0).stall(1, SimTime::ZERO, SimTime::from_secs(1));
        let mut m = FaultyMedium::new(ideal(), plan);
        let tx = m.plan_transmit(SimTime::from_millis(10), NodeId(0), NodeId(1), 64);
        assert_eq!(tx.arrival, SimTime::from_secs(1));
        assert_eq!(tx.verdict, Verdict::Deliver);
        // After the window, normal latency again.
        let tx = m.plan_transmit(SimTime::from_secs(3), NodeId(0), NodeId(1), 64);
        assert_eq!(tx.arrival, SimTime::from_secs(3) + SimTime::from_millis(1));
    }

    #[test]
    fn degradation_window_adds_loss_and_latency() {
        let plan = FaultPlan::new(9).degrade(
            SimTime::from_secs(1),
            SimTime::from_secs(2),
            1.0,
            SimTime::from_millis(50),
        );
        let mut m = FaultyMedium::new(ideal(), plan);
        let inside = m.plan_transmit(SimTime::from_millis(1500), NodeId(0), NodeId(1), 64);
        assert!(matches!(inside.verdict, Verdict::Drop(DropReason::Loss)));
        assert_eq!(
            inside.arrival,
            SimTime::from_millis(1500) + SimTime::from_millis(51)
        );
        let outside = m.plan_transmit(SimTime::from_millis(2500), NodeId(0), NodeId(1), 64);
        assert_eq!(outside.verdict, Verdict::Deliver);
    }

    #[test]
    fn injected_delay_is_booked_as_fault() {
        // Clean path: the fault share of the arrival is zero, so the
        // staleness tracer books the whole delay as transit.
        let mut clean = FaultyMedium::new(ideal(), FaultPlan::new(1));
        let tx = clean.plan_transmit(SimTime::ZERO, NodeId(0), NodeId(1), 64);
        assert_eq!(tx.fault, SimTime::ZERO);

        // Degraded window: exactly the injected extra latency is booked,
        // and `arrival - fault` recovers the healthy medium's arrival.
        let plan = FaultPlan::new(9).degrade(
            SimTime::from_secs(1),
            SimTime::from_secs(2),
            0.0,
            SimTime::from_millis(50),
        );
        let mut m = FaultyMedium::new(ideal(), plan);
        let now = SimTime::from_millis(1500);
        let tx = m.plan_transmit(now, NodeId(0), NodeId(1), 64);
        assert_eq!(tx.fault, SimTime::from_millis(50));
        assert_eq!(tx.arrival - tx.fault, now + SimTime::from_millis(1));
    }

    #[test]
    fn duplication_yields_two_arrivals() {
        let mut m = FaultyMedium::new(ideal(), FaultPlan::new(3).duplication(1.0));
        let tx = m.plan_transmit(SimTime::ZERO, NodeId(0), NodeId(1), 64);
        match tx.verdict {
            Verdict::Duplicate { second } => assert!(second > tx.arrival),
            other => panic!("expected duplicate, got {other:?}"),
        }
    }

    #[test]
    fn broadcast_capability_is_masked() {
        let mut m = FaultyMedium::new(ideal(), FaultPlan::new(0).loss(0.1));
        assert!(m.transmit_broadcast(SimTime::ZERO, NodeId(0), 64).is_none());
    }

    #[test]
    fn per_link_override_beats_base() {
        let plan = FaultPlan::new(4).loss(0.0).link(
            0,
            1,
            LinkFaults {
                drop_prob: Prob::new(1.0),
                ..LinkFaults::default()
            },
        );
        let mut m = FaultyMedium::new(ideal(), plan);
        assert!(matches!(
            m.plan_transmit(SimTime::ZERO, NodeId(0), NodeId(1), 64)
                .verdict,
            Verdict::Drop(DropReason::Loss)
        ));
        assert_eq!(
            m.plan_transmit(SimTime::ZERO, NodeId(1), NodeId(0), 64)
                .verdict,
            Verdict::Deliver,
            "reverse direction uses the base"
        );
    }

    #[test]
    fn describe_mentions_the_knobs() {
        let d = FaultPlan::new(11)
            .loss(0.25)
            .crash(3, SimTime::ZERO)
            .describe();
        assert!(d.contains("seed=11"));
        assert!(d.contains("loss=0.25"));
        assert!(d.contains("crashes=1"));
    }
}
