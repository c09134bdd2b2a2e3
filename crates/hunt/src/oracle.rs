//! Oracles: turn one trial's [`HeadlessOutcome`] into a machine-readable
//! [`Verdict`], reusing the invariants the repo already enforces —
//! audit-monitor violations, watchdog cuts and deadlocks, the warm
//! recovery rollback bound, and run completion.

use nscc_bench::headless::{run_headless, HeadlessOutcome, HeadlessSpec};

/// One oracle hit: a stable `kind` (what class of failure) plus the
/// concrete `detail` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Failure class: `deadlock`, `audit:<monitor>`, `conservation`,
    /// `rollback`, `fault` or `incomplete`. The shrinker preserves the
    /// most severe kind; the replay digest covers the full detail.
    pub kind: String,
    /// The concrete, deterministic evidence line.
    pub detail: String,
}

impl Finding {
    /// The canonical one-line rendering (`kind: detail`).
    pub fn line(&self) -> String {
        format!("{}: {}", self.kind, self.detail)
    }
}

/// Every oracle hit of one trial, in deterministic order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    /// The findings, ordered: deadlock, audit violations, staleness
    /// conservation, rollback, fault reports, completion.
    pub findings: Vec<Finding>,
}

impl Verdict {
    /// No oracle fired.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The most severe failure kind present (`None` when clean). The
    /// severity order matters to the shrinker: a deadlock must not decay
    /// into a mere incomplete run while shrinking.
    pub fn primary(&self) -> Option<&str> {
        for prefix in [
            "deadlock",
            "audit:",
            "conservation",
            "rollback",
            "fault",
            "incomplete",
        ] {
            if let Some(f) = self.findings.iter().find(|f| f.kind.starts_with(prefix)) {
                return Some(&f.kind);
            }
        }
        self.findings.first().map(|f| f.kind.as_str())
    }

    /// Whether a finding of exactly this kind is present.
    pub fn has_kind(&self, kind: &str) -> bool {
        self.findings.iter().any(|f| f.kind == kind)
    }

    /// The canonical rendering, one line per finding.
    pub fn lines(&self) -> Vec<String> {
        self.findings.iter().map(Finding::line).collect()
    }
}

/// Run `spec` once and judge it: the one trial the driver, the shrinker
/// and replay all make.
pub(crate) fn trial(spec: &HeadlessSpec) -> Verdict {
    judge(spec, &run_headless(spec))
}

/// Judge one trial. Deterministic: the outcome is a pure function of
/// the spec, and the verdict is a pure function of the outcome.
pub fn judge(spec: &HeadlessSpec, out: &HeadlessOutcome) -> Verdict {
    let mut v = Verdict::default();
    if let Some(e) = &out.sim_error {
        v.findings.push(Finding {
            kind: "deadlock".into(),
            detail: e.clone(),
        });
    }
    for line in &out.violations {
        // Violation lines are `monitor@t_ns rank=N: detail`.
        let monitor = line.split('@').next().unwrap_or("unknown");
        v.findings.push(Finding {
            kind: format!("audit:{monitor}"),
            detail: line.clone(),
        });
    }
    if out.violation_count > out.violations.len() as u64 {
        v.findings.push(Finding {
            kind: "audit:overflow".into(),
            detail: format!(
                "{} violation(s) total, {} recorded",
                out.violation_count,
                out.violations.len()
            ),
        });
    }
    if out.conservation_violations > 0 {
        // The staleness tracer decomposes every released read's age into
        // named stage durations; the sums must telescope exactly. A leak
        // here is a tracing bug (a wrong or missing hop stamp), distinct
        // from any age-bound violation the audit monitors report.
        v.findings.push(Finding {
            kind: "conservation".into(),
            detail: format!(
                "{} of {} traced decomposition(s) do not sum to the observed age",
                out.conservation_violations, out.traced_releases
            ),
        });
    }
    if out.max_rollback > spec.age {
        v.findings.push(Finding {
            kind: "rollback".into(),
            detail: format!(
                "warm restore rolled back {} generation(s), past the age bound {}",
                out.max_rollback, spec.age
            ),
        });
    }
    for s in &out.fault_summaries {
        v.findings.push(Finding {
            kind: "fault".into(),
            detail: s.clone(),
        });
    }
    if out.sim_error.is_none() && out.success_rate < 1.0 {
        v.findings.push(Finding {
            kind: "incomplete".into(),
            detail: format!(
                "only {:.2} of runs reached the quality bar",
                out.success_rate
            ),
        });
    }
    v
}

/// FNV-1a 64 digest over the verdict's canonical lines — the byte-exact
/// fingerprint replay compares. Two runs of the same scenario produce
/// the same simulation, hence the same lines, hence the same digest.
pub fn digest(verdict: &Verdict) -> String {
    let text: String = verdict.lines().into_iter().map(|l| l + "\n").collect();
    format!("{:016x}", nscc_ckpt::fnv1a(text.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> HeadlessOutcome {
        HeadlessOutcome {
            success_rate: 1.0,
            ..HeadlessOutcome::default()
        }
    }

    #[test]
    fn clean_outcome_judges_clean() {
        let spec = HeadlessSpec::quick(1);
        let v = judge(&spec, &outcome());
        assert!(v.is_clean());
        assert_eq!(v.primary(), None);
    }

    #[test]
    fn every_oracle_fires_and_severity_orders() {
        let spec = HeadlessSpec::quick(1); // age 10
        let out = HeadlessOutcome {
            violations: vec!["staleness@5 rank=0: stale by 12 (bound 10)".into()],
            violation_count: 1,
            fault_summaries: vec!["watchdog cut run at 3600s".into()],
            sim_error: Some("deadlock at 12ms: 4 blocked".into()),
            success_rate: 0.0,
            max_rollback: 99,
            traced_releases: 40,
            conservation_violations: 3,
            ..HeadlessOutcome::default()
        };
        let v = judge(&spec, &out);
        assert_eq!(v.primary(), Some("deadlock"));
        assert!(v.has_kind("audit:staleness"));
        assert!(v.has_kind("conservation"));
        assert!(v.has_kind("rollback"));
        assert!(v.has_kind("fault"));
        // A sim error means the run never reported; `incomplete` would
        // double-count the deadlock.
        assert!(!v.has_kind("incomplete"));
    }

    #[test]
    fn incomplete_fires_only_without_a_sim_error() {
        let spec = HeadlessSpec::quick(1);
        let out = HeadlessOutcome {
            success_rate: 0.5,
            ..outcome()
        };
        let v = judge(&spec, &out);
        assert_eq!(v.primary(), Some("incomplete"));
    }

    #[test]
    fn conservation_leak_outranks_rollback_but_not_audit() {
        let spec = HeadlessSpec::quick(1);
        let out = HeadlessOutcome {
            traced_releases: 12,
            conservation_violations: 1,
            max_rollback: 99,
            ..outcome()
        };
        let v = judge(&spec, &out);
        assert_eq!(v.primary(), Some("conservation"));
        assert!(v.has_kind("rollback"));
        let with_audit = HeadlessOutcome {
            violations: vec!["age@7 rank=0: x".into()],
            violation_count: 1,
            ..out
        };
        let v = judge(&spec, &with_audit);
        assert_eq!(v.primary(), Some("audit:age"));
        assert!(v.has_kind("conservation"));
    }

    #[test]
    fn traced_clean_runs_stay_clean() {
        let spec = HeadlessSpec::quick(1);
        let out = HeadlessOutcome {
            traced_releases: 500,
            conservation_violations: 0,
            ..outcome()
        };
        assert!(judge(&spec, &out).is_clean());
    }

    #[test]
    fn rollback_respects_the_age_bound() {
        let spec = HeadlessSpec::quick(1); // age 10
        let ok = HeadlessOutcome {
            max_rollback: 10,
            ..outcome()
        };
        assert!(judge(&spec, &ok).is_clean());
        let bad = HeadlessOutcome {
            max_rollback: 11,
            ..outcome()
        };
        assert!(judge(&spec, &bad).has_kind("rollback"));
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let spec = HeadlessSpec::quick(1);
        let out = HeadlessOutcome {
            violations: vec!["staleness@5 rank=0: x".into()],
            violation_count: 1,
            ..outcome()
        };
        let a = digest(&judge(&spec, &out));
        let b = digest(&judge(&spec, &out));
        assert_eq!(a, b);
        let out2 = HeadlessOutcome {
            violations: vec!["staleness@6 rank=0: x".into()],
            violation_count: 1,
            ..outcome()
        };
        assert_ne!(a, digest(&judge(&spec, &out2)));
        assert_eq!(digest(&Verdict::default()), digest(&Verdict::default()));
    }
}
