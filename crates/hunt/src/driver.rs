//! The budgeted hunt driver: run `budget` generated trials across OS
//! threads and collect every trial whose oracles fired.
//!
//! Determinism contract: scenario `t` is a pure function of
//! `(master_seed, t)` and each trial's simulation is deterministic, so
//! the finding *set* is identical for any worker count — workers only
//! race for trial indices, never for trial content. Findings are sorted
//! by trial index before returning, erasing scheduling order.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use nscc_bench::headless::HeadlessSpec;

use crate::generate::{generate, Envelope};
use crate::oracle::{self, Verdict};

// What crosses a worker's boundary: a scenario in, an outcome and a
// finding out. Every simulation, hub and world is built, run and dropped
// inside one `run_headless` call on one worker; their types are `!Send`
// (`compile_fail` doc-tests where they are defined). The one exception,
// `Auditor`, is asserted `Send + Sync` in `nscc-audit`, which this crate
// does not depend on.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<HeadlessSpec>();
    assert_send::<nscc_bench::headless::HeadlessOutcome>();
    assert_send::<HuntFinding>();
};

/// One hunt's parameters.
#[derive(Debug, Clone)]
pub struct HuntConfig {
    /// The hunt's master seed: same seed + budget → same findings.
    pub master_seed: u64,
    /// Number of trials to run.
    pub budget: u64,
    /// Worker threads (0 → one per available CPU, capped at 8).
    pub workers: usize,
    /// The generator's search space.
    pub envelope: Envelope,
}

impl HuntConfig {
    /// The effective worker count.
    pub fn effective_workers(&self) -> usize {
        let w = if self.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8)
        } else {
            self.workers
        };
        w.max(1).min(self.budget.max(1) as usize)
    }
}

/// One failing trial.
#[derive(Debug, Clone)]
pub struct HuntFinding {
    /// The trial index within the hunt.
    pub trial: u64,
    /// The complete scenario (unshrunk).
    pub spec: HeadlessSpec,
    /// Every oracle that fired.
    pub verdict: Verdict,
}

/// Run the hunt. `progress` receives one line per failing trial, as it
/// is found (unordered across workers; the returned vector is sorted).
pub fn hunt(cfg: &HuntConfig, progress: &(dyn Fn(&str) + Sync)) -> Vec<HuntFinding> {
    let next = AtomicU64::new(0);
    let findings: Mutex<Vec<HuntFinding>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..cfg.effective_workers() {
            scope.spawn(|| loop {
                let trial = next.fetch_add(1, Ordering::Relaxed);
                if trial >= cfg.budget {
                    break;
                }
                let spec = generate(cfg.master_seed, trial, &cfg.envelope);
                let verdict = oracle::trial(&spec);
                if !verdict.is_clean() {
                    progress(&format!(
                        "trial {trial}: {} ({} finding(s))",
                        verdict.primary().unwrap_or("?"),
                        verdict.findings.len()
                    ));
                    findings.lock().unwrap().push(HuntFinding {
                        trial,
                        spec,
                        verdict,
                    });
                }
            });
        }
    });
    let mut found = findings.into_inner().unwrap();
    found.sort_by_key(|f| f.trial);
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sabotage_cfg(budget: u64, workers: usize) -> HuntConfig {
        HuntConfig {
            master_seed: 99,
            budget,
            workers,
            envelope: Envelope {
                // Narrow, fast, guaranteed-to-fire envelope: every trial
                // sabotages, no chaos machinery to slow the sims down.
                sabotage_prob: 1.0,
                max_loss: 0.0,
                max_dup: 0.0,
                max_delay_prob: 0.0,
                max_crashes: 0,
                max_stalls: 0,
                allow_partitions: false,
                procs: (2, 3),
                generations: (12, 16),
                ..Envelope::default()
            },
        }
    }

    #[test]
    fn same_seed_and_budget_yield_identical_findings_across_worker_counts() {
        let a = hunt(&sabotage_cfg(6, 1), &|_| {});
        let b = hunt(&sabotage_cfg(6, 3), &|_| {});
        assert!(!a.is_empty(), "sabotage envelope must produce findings");
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.trial, y.trial);
            assert_eq!(x.verdict, y.verdict);
            assert_eq!(format!("{:?}", x.spec), format!("{:?}", y.spec));
        }
    }

    #[test]
    fn effective_workers_are_bounded_by_budget() {
        let mut cfg = sabotage_cfg(2, 16);
        assert_eq!(cfg.effective_workers(), 2);
        cfg.workers = 0;
        assert!(cfg.effective_workers() >= 1);
    }
}
