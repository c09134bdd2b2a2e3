//! Library-level headless experiment entrypoint for the fuzz hunter.
//!
//! The bench binaries print tables, write reports and `exit(1)` on a
//! simulation error — none of which a fuzzing driver can use. This
//! module runs the same chaos-study experiment cell as `fault_study`
//! (island GA, `Global_Read` at one age bound, full robustness stack,
//! watchdog always armed) but returns every verdict as data:
//!
//! * the online auditor's recorded violations, as deterministic strings;
//! * structured fault reports (watchdog cuts, deadlocks under chaos);
//! * a hard simulation error (deadlock outside the watchdog's reach),
//!   including any deadlock breadcrumbs, instead of a process exit;
//! * recovery counters (`restores`, `max_rollback`) and the completion
//!   rate, for the rollback-bound and completion oracles;
//! * the staleness tracer's conservation verdict (`traced_releases`,
//!   `conservation_violations`) — the hop tracer is always armed here,
//!   so the fuzzer hunts decomposition bugs for free.
//!
//! Same [`HeadlessSpec`] → byte-identical [`HeadlessOutcome`]: the run
//! is a deterministic discrete-event simulation, so a hunt finding
//! replays exactly from its spec alone.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use nscc_audit::Auditor;
use nscc_ckpt::json::{FromJson, ToJson};
use nscc_core::{run_ga_experiment, FaultPlan, GaExperiment, Platform, RecoveryStyle};
use nscc_dsm::Coherence;
use nscc_ga::{CostModel, SupervisorPolicy, TestFn};
use nscc_msg::ReliableConfig;
use nscc_obs::Hub;
use nscc_sim::SimTime;

/// One complete headless trial: everything the generator mutates,
/// nothing read from the environment. Its JSON form is the `scenario` of
/// a hunt repro: `procs`, `generations`, `runs`, `seed` and `watchdog_ns`
/// are required, every other key may be left out and reads as off.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct HeadlessSpec {
    /// Island count (the experiment's processor count).
    pub procs: usize,
    /// Serial-baseline generations (small for fuzzing; the paper's 1000
    /// would make each trial cost seconds).
    pub generations: u64,
    /// Repetitions per trial (fuzzing wants 1).
    pub runs: usize,
    /// Base seed for the GA runs.
    pub seed: u64,
    /// `Global_Read` age bound (the one coherence mode exercised).
    #[json(default)]
    pub age: u64,
    /// Reliable-delivery configuration; `None` runs the raw datagram
    /// layer (no retransmits — loss then shows up as degraded reads and
    /// watchdog cuts instead).
    #[json(default)]
    pub reliable: Option<ReliableConfig>,
    /// Blocked reads degrade to the cached value after this long.
    #[json(rename = "read_timeout_ns", default)]
    pub read_timeout: Option<SimTime>,
    /// Failure-detector heartbeat period.
    #[json(rename = "heartbeat_ns", default)]
    pub heartbeat: Option<SimTime>,
    /// Virtual-time watchdog — always armed: a fuzzer must never hang.
    #[json(rename = "watchdog_ns")]
    pub watchdog: SimTime,
    /// Deliberately release this many would-block reads stale (the
    /// `NSCC_INJECT_STALE` sabotage; the staleness oracle must catch it).
    #[json(default)]
    pub inject_stale: u64,
    /// Chandy–Lamport snapshot cadence in generations (`None` = off).
    #[json(default)]
    pub snapshots: Option<u64>,
    /// Whether crashes go through the default supervision policy.
    #[json(default)]
    pub supervision: bool,
    /// Fault plan for the wire; `None` (or a no-op plan) keeps it clean.
    #[json(default)]
    pub plan: Option<FaultPlan>,
}

impl HeadlessSpec {
    /// A clean, fast, fault-free trial — the baseline the generator
    /// mutates away from.
    pub fn quick(seed: u64) -> HeadlessSpec {
        HeadlessSpec {
            procs: 4,
            generations: 40,
            runs: 1,
            seed,
            age: 10,
            plan: None,
            // The default 10 ms RTO suits low-latency links; the shared
            // 10 Mbps Ethernet queues migrant batches for longer than
            // that under load, so a tight RTO would retransmit frames
            // that were merely queued.
            reliable: Some(ReliableConfig {
                base_rto: SimTime::from_millis(80),
                ..ReliableConfig::default()
            }),
            read_timeout: Some(SimTime::from_millis(50)),
            heartbeat: Some(SimTime::from_millis(20)),
            watchdog: SimTime::from_secs(3600),
            inject_stale: 0,
            snapshots: None,
            supervision: false,
        }
    }

    /// The chaos-study cell this spec describes: the island GA on the
    /// paper's Ethernet at one `Global_Read` age, with the robustness
    /// stack on — read timeouts, heartbeats, the watchdog and warm
    /// recovery — F1 and a deterministic cost model. Every chaos cell
    /// (this module, `fault_study`, `drill`) is built here.
    pub fn experiment(&self, obs: Option<Hub>) -> GaExperiment {
        let mut platform = Platform::paper_ethernet(self.procs);
        if let Some(plan) = self.plan.as_ref().filter(|p| !p.is_noop()) {
            platform = platform.with_faults(plan.clone());
        }
        platform.msg.reliable = self.reliable;
        GaExperiment {
            generations: self.generations,
            runs: self.runs,
            base_seed: self.seed,
            cost: CostModel::deterministic(),
            platform,
            obs,
            modes: vec![Coherence::PartialAsync { age: self.age }],
            read_timeout: self.read_timeout,
            heartbeat: self.heartbeat,
            watchdog: Some(self.watchdog),
            recovery: Some(RecoveryStyle::Warm),
            inject_stale: self.inject_stale,
            snapshots: self.snapshots,
            supervision: self.supervision.then(SupervisorPolicy::default),
            ..GaExperiment::new(TestFn::F1Sphere, self.procs)
        }
    }
}

/// Everything one headless trial reported, as plain data.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HeadlessOutcome {
    /// The auditor's recorded violations, one deterministic line each
    /// (`monitor@t_ns rank=N: detail`).
    pub violations: Vec<String>,
    /// Total violations counted (recording caps at the auditor's ring
    /// size; this is the uncapped count).
    pub violation_count: u64,
    /// One summary line per watchdog-cut / deadlocked run under chaos.
    pub fault_summaries: Vec<String>,
    /// A hard simulation error (deadlock with the watchdog never firing),
    /// rendered with its breadcrumb notes. The run produced no report.
    pub sim_error: Option<String>,
    /// Fraction of runs in which every island reached the quality bar.
    pub success_rate: f64,
    /// Crash recoveries performed across all islands and runs.
    pub restores: u64,
    /// Largest warm-restore rollback (generations) seen in any run.
    pub max_rollback: u64,
    /// Reliable-layer frames abandoned after exhausting retries.
    pub give_ups: u64,
    /// Blocked reads the staleness tracer decomposed into stage
    /// durations (the tracer is always armed in headless runs).
    pub traced_releases: u64,
    /// Traced releases whose stage sum did NOT equal the observed age —
    /// nonzero means a hop stamp is wrong or missing.
    pub conservation_violations: u64,
}

/// Run `f`; an error it returns, or a panic it raises, comes back as the
/// text of a [`HeadlessOutcome::sim_error`]. A panic in what the stepper
/// itself runs (an event closure, a double borrow of a shared world) is
/// re-raised on `run()`'s caller: left alone it would unwind through the
/// hunt's worker scope and take every finding of the hunt with it.
fn caught<T, E: ToString>(f: impl FnOnce() -> Result<T, E>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result.map_err(|e| e.to_string()),
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic payload>".to_string());
            Err(format!("panic: {message}"))
        }
    }
}

/// Run one trial and collect every verdict. Never exits and never
/// panics, on a simulation error or on a panic inside the trial; the
/// worst outcome is an [`HeadlessOutcome::sim_error`].
pub fn run_headless(spec: &HeadlessSpec) -> HeadlessOutcome {
    // Only derived state is read back (the staleness summary, the audit
    // tap), so the hub retains no raw events: a fuzzing trial must not
    // hold a quarter-million `ObsEvent`s it never looks at.
    let hub = Hub::with_event_capacity(0);
    // The hop tracer is free under fuzzing and turns every trial into a
    // conservation check: stage sums must equal observed ages exactly.
    hub.enable_staleness();
    let auditor = Arc::new(Auditor::new());
    hub.set_tap(auditor.clone());

    let exp = spec.experiment(Some(hub.clone()));

    let mut out = HeadlessOutcome::default();
    match caught(|| run_ga_experiment(&exp)) {
        Ok(res) => {
            let m = &res.modes[0];
            out.success_rate = m.success_rate;
            out.restores = m.restores;
            out.max_rollback = m.max_rollback;
            out.give_ups = m.comm.give_ups;
            out.fault_summaries = res.fault_reports.iter().map(|f| f.summary()).collect();
        }
        Err(e) => out.sim_error = Some(e),
    }
    let stal = hub.staleness_summary();
    out.traced_releases = stal.released;
    out.conservation_violations = stal.conservation_violations;
    out.violation_count = auditor.violation_count();
    out.violations = auditor
        .recorded()
        .iter()
        .map(|v| format!("{}@{} rank={}: {}", v.monitor, v.t_ns, v.rank, v.detail))
        .collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nscc_sim::SimError;

    #[test]
    fn clean_quick_trial_is_quiet_and_deterministic() {
        let spec = HeadlessSpec::quick(7);
        let a = run_headless(&spec);
        assert_eq!(a.sim_error, None);
        assert_eq!(a.violation_count, 0, "clean run must not trip the audit");
        assert!(a.fault_summaries.is_empty());
        assert_eq!(a.success_rate, 1.0);
        assert!(a.traced_releases > 0, "the armed tracer saw releases");
        assert_eq!(
            a.conservation_violations, 0,
            "stage sums must equal observed ages exactly"
        );
        let b = run_headless(&spec);
        assert_eq!(a, b, "same spec must reproduce byte-identically");
    }

    #[test]
    fn a_panicking_trial_is_a_structured_error() {
        let out: Result<(), String> =
            caught(|| -> Result<(), SimError> { panic!("already mutably borrowed: BorrowError") });
        assert_eq!(
            out,
            Err("panic: already mutably borrowed: BorrowError".to_string())
        );
        let out = caught(|| -> Result<(), SimError> { panic!("{} + {}", 1, 2) });
        assert_eq!(out, Err("panic: 1 + 2".to_string()));
        // Errors and values pass through as before.
        let limit = SimTime::from_secs(1);
        let out = caught(|| -> Result<(), SimError> { Err(SimError::TimeLimitExceeded { limit }) });
        assert_eq!(out, Err(SimError::TimeLimitExceeded { limit }.to_string()));
        assert_eq!(caught(|| Ok::<u32, SimError>(7)), Ok(7));
    }

    #[test]
    fn inject_stale_sabotage_trips_the_staleness_monitor() {
        let spec = HeadlessSpec {
            inject_stale: 2,
            ..HeadlessSpec::quick(7)
        };
        let out = run_headless(&spec);
        assert!(
            out.violation_count > 0,
            "sabotaged reads must be flagged: {out:?}"
        );
        assert!(
            out.violations.iter().any(|v| v.starts_with("staleness@")),
            "the staleness monitor names the violation: {:?}",
            out.violations
        );
    }

    #[test]
    fn noop_plan_matches_no_plan() {
        let clean = run_headless(&HeadlessSpec::quick(11));
        let noop = run_headless(&HeadlessSpec {
            plan: Some(FaultPlan::new(99)),
            ..HeadlessSpec::quick(11)
        });
        assert_eq!(clean, noop, "a no-op plan must not perturb the wire");
    }
}
