//! The supervision layer: a policy brain deciding, per island crash,
//! whether to warm-restart the victim (with bounded exponential backoff)
//! or to give up on it and degrade the run.
//!
//! The supervisor is deliberately *not* a process: islands detect their
//! own crash windows (the fault plan drops their traffic; peers' failure
//! detectors suspect them) and consult the shared [`Supervisor`] at the
//! restore point. This keeps the decision global — restart budgets are
//! per rank but the counters are world-wide — without adding a
//! coordinator that could itself fail. On [`Decision::GiveUp`] the island
//! retires (publishes its `RETIRE_AGE` sentinel so blocked peers
//! unblock), the run continues with the survivors, and the report is
//! marked degraded instead of the simulation dying with a deadlock.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use nscc_ckpt::json::ToJson;
use nscc_sim::SimTime;

/// Restart policy: how many times a rank may be restarted, and how the
/// restart backoff grows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorPolicy {
    /// Restarts allowed per rank before the supervisor gives up on it.
    pub max_restarts: u32,
    /// Backoff imposed before the first restart; doubles per attempt.
    pub backoff_base: SimTime,
    /// Ceiling on the exponential backoff.
    pub backoff_cap: SimTime,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            max_restarts: 3,
            backoff_base: SimTime::from_millis(5),
            backoff_cap: SimTime::from_millis(80),
        }
    }
}

/// The supervisor's verdict for one crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Restore from the newest consistent cut (or the stop-world
    /// fallback) after waiting out `backoff`.
    Restart {
        /// Which restart this is for the rank (1 = first).
        attempt: u32,
        /// Backoff to wait before restoring.
        backoff: SimTime,
    },
    /// Restart budget exhausted: mark the rank failed and continue with
    /// the survivors.
    GiveUp {
        /// Restarts the rank consumed before the budget ran out.
        restarts: u32,
    },
}

#[derive(Default)]
struct SupInner {
    attempts: HashMap<usize, u32>,
    restarts: u64,
    give_ups: u64,
    failed: Vec<u32>,
    max_backoff_ns: u64,
}

/// Shared crash-supervision state for one run. Cloneable; every island
/// holds a handle and consults it at its restore points.
#[derive(Clone)]
pub struct Supervisor {
    policy: SupervisorPolicy,
    inner: Rc<RefCell<SupInner>>,
}

impl fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let g = self.inner.borrow();
        f.debug_struct("Supervisor")
            .field("policy", &self.policy)
            .field("restarts", &g.restarts)
            .field("give_ups", &g.give_ups)
            .finish()
    }
}

impl Supervisor {
    /// A supervisor enforcing `policy`.
    pub fn new(policy: SupervisorPolicy) -> Self {
        Supervisor {
            policy,
            inner: Rc::default(),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> SupervisorPolicy {
        self.policy
    }

    /// Rank `rank` crashed: decide restart (with capped exponential
    /// backoff) or give-up (budget exhausted).
    pub fn on_crash(&self, rank: usize) -> Decision {
        let mut g = self.inner.borrow_mut();
        let a = g.attempts.entry(rank).or_insert(0);
        *a += 1;
        let attempt = *a;
        if attempt > self.policy.max_restarts {
            g.give_ups += 1;
            g.failed.push(rank as u32);
            return Decision::GiveUp {
                restarts: attempt - 1,
            };
        }
        let exp = SimTime::from_nanos(
            self.policy
                .backoff_base
                .as_nanos()
                .saturating_mul(1u64 << (attempt - 1).min(16)),
        );
        let backoff = exp.min(self.policy.backoff_cap);
        g.restarts += 1;
        g.max_backoff_ns = g.max_backoff_ns.max(backoff.as_nanos());
        Decision::Restart { attempt, backoff }
    }

    /// Ranks the supervisor has given up on so far.
    pub fn failed_ranks(&self) -> Vec<u32> {
        self.inner.borrow().failed.clone()
    }

    /// Fold the supervisor's counters into a [`RecoverySummary`].
    pub fn fill(&self, sum: &mut RecoverySummary) {
        let g = self.inner.borrow();
        sum.restarts_approved = g.restarts;
        sum.give_ups = g.give_ups;
        sum.failed_ranks = g.failed.clone();
        sum.max_backoff_ns = g.max_backoff_ns;
    }
}

/// The `recovery` section of a run report: what the snapshot protocol
/// and the supervision layer did. Serialized as `null` when neither ran,
/// keeping recovery-off reports byte-identical.
#[derive(Debug, Clone, Default, PartialEq, ToJson)]
pub struct RecoverySummary {
    /// Marker waves initiated.
    pub snapshots_started: u64,
    /// Consistent cuts completed (every rank posted its frame).
    pub snapshots_completed: u64,
    /// In-flight channel messages recorded across all cut frames.
    pub inflight_recorded: u64,
    /// Warm restores served from a consistent cut.
    pub cut_restores: u64,
    /// Total restores performed (cut or stop-world, warm or cold).
    pub restores: u64,
    /// Restarts the supervisor approved.
    pub restarts_approved: u64,
    /// Ranks whose restart budget was exhausted.
    pub give_ups: u64,
    /// The abandoned ranks, in give-up order.
    pub failed_ranks: Vec<u32>,
    /// Largest restart backoff imposed, in virtual ns.
    pub max_backoff_ns: u64,
    /// Largest warm-restore rollback, in generations.
    pub max_rollback: u64,
}

impl RecoverySummary {
    /// Element-wise accumulation across runs (maxima stay maxima).
    pub fn merge(&mut self, other: &RecoverySummary) {
        self.snapshots_started += other.snapshots_started;
        self.snapshots_completed += other.snapshots_completed;
        self.inflight_recorded += other.inflight_recorded;
        self.cut_restores += other.cut_restores;
        self.restores += other.restores;
        self.restarts_approved += other.restarts_approved;
        self.give_ups += other.give_ups;
        self.failed_ranks.extend_from_slice(&other.failed_ranks);
        self.max_backoff_ns = self.max_backoff_ns.max(other.max_backoff_ns);
        self.max_rollback = self.max_rollback.max(other.max_rollback);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_to_the_cap_then_budget_runs_out() {
        let sup = Supervisor::new(SupervisorPolicy {
            max_restarts: 4,
            backoff_base: SimTime::from_millis(10),
            backoff_cap: SimTime::from_millis(25),
        });
        let backoffs: Vec<u64> = (0..4)
            .map(|_| match sup.on_crash(1) {
                Decision::Restart { backoff, .. } => backoff.as_nanos() / 1_000_000,
                Decision::GiveUp { .. } => panic!("budget not yet exhausted"),
            })
            .collect();
        assert_eq!(backoffs, vec![10, 20, 25, 25], "doubling, then capped");
        assert_eq!(
            sup.on_crash(1),
            Decision::GiveUp { restarts: 4 },
            "fifth crash exhausts the budget"
        );
        assert_eq!(sup.failed_ranks(), vec![1]);
    }

    #[test]
    fn budgets_are_per_rank_but_counters_are_global() {
        let sup = Supervisor::new(SupervisorPolicy {
            max_restarts: 1,
            ..SupervisorPolicy::default()
        });
        assert!(matches!(
            sup.on_crash(0),
            Decision::Restart { attempt: 1, .. }
        ));
        assert!(matches!(
            sup.on_crash(2),
            Decision::Restart { attempt: 1, .. }
        ));
        assert!(matches!(sup.on_crash(0), Decision::GiveUp { restarts: 1 }));
        let mut sum = RecoverySummary::default();
        sup.fill(&mut sum);
        assert_eq!(sum.restarts_approved, 2);
        assert_eq!(sum.give_ups, 1);
        assert_eq!(sum.failed_ranks, vec![0]);
    }

    #[test]
    fn summary_merge_accumulates() {
        let mut a = RecoverySummary {
            snapshots_completed: 2,
            restores: 1,
            max_rollback: 3,
            ..RecoverySummary::default()
        };
        let b = RecoverySummary {
            snapshots_completed: 1,
            restores: 2,
            max_rollback: 5,
            failed_ranks: vec![7],
            ..RecoverySummary::default()
        };
        a.merge(&b);
        assert_eq!(a.snapshots_completed, 3);
        assert_eq!(a.restores, 3);
        assert_eq!(a.max_rollback, 5);
        assert_eq!(a.failed_ranks, vec![7]);
    }
}
