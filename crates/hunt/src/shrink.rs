//! Delta-debugging shrinker: reduce a failing scenario to a locally
//! minimal repro while preserving its most severe failure kind.
//!
//! One move set, applied to fixpoint. [`candidates`] lists every
//! one-step reduction of a scenario: each fault-plan event dropped
//! ([`FaultPlan::removals`]: base faults, a link override, a degradation
//! window, a crash, a stall, a partition), then each knob simplified
//! (fewer runs, generations and processes, less sabotage, snapshots,
//! supervision, heartbeat, read timeout and reliable layer off). The
//! first candidate that still exhibits the primary failure kind is
//! accepted and the list is rebuilt from it; a full pass that accepts
//! nothing ends the search.
//!
//! Every candidate is an actual re-run of the deterministic simulation,
//! so acceptance is exact, not heuristic. The result is locally minimal:
//! removing any single remaining event or knob loses the failure.

use nscc_bench::headless::HeadlessSpec;
use nscc_core::FaultPlan;

use crate::oracle::{trial, Verdict};

/// Every one-step reduction of `spec` with its log line, in the order
/// the shrinker tries them: each plan event dropped, then each knob
/// simplified, most aggressive first.
fn candidates(spec: &HeadlessSpec) -> Vec<(String, HeadlessSpec)> {
    let mut out: Vec<(String, HeadlessSpec)> = spec
        .plan
        .iter()
        .flat_map(FaultPlan::removals)
        .map(|(event, plan)| {
            let plan = (!plan.is_noop()).then_some(plan);
            (
                format!("drop plan event: {event}"),
                HeadlessSpec {
                    plan,
                    ..spec.clone()
                },
            )
        })
        .collect();
    let mut knob = |label: String, simplify: &dyn Fn(&mut HeadlessSpec)| {
        let mut cand = spec.clone();
        simplify(&mut cand);
        out.push((format!("simplify knob: {label}"), cand));
    };
    if spec.runs > 1 {
        knob(format!("runs {} -> 1", spec.runs), &|s| s.runs = 1);
    }
    if spec.generations > 10 {
        let g = (spec.generations / 2).max(10);
        knob(format!("generations {} -> {g}", spec.generations), &|s| {
            s.generations = g
        });
    }
    if spec.procs > 2 {
        knob(
            format!("procs {} -> {}", spec.procs, spec.procs - 1),
            &|s| s.procs -= 1,
        );
    }
    if spec.inject_stale > 1 {
        knob(format!("inject_stale {} -> 1", spec.inject_stale), &|s| {
            s.inject_stale = 1
        });
    }
    if spec.inject_stale == 1 {
        knob("inject_stale 1 -> 0".into(), &|s| s.inject_stale = 0);
    }
    if spec.snapshots.is_some() {
        knob("snapshots off".into(), &|s| s.snapshots = None);
    }
    if spec.supervision {
        knob("supervision off".into(), &|s| s.supervision = false);
    }
    if spec.heartbeat.is_some() {
        knob("heartbeat off".into(), &|s| s.heartbeat = None);
    }
    if spec.read_timeout.is_some() {
        knob("read timeout off".into(), &|s| s.read_timeout = None);
    }
    if spec.reliable.is_some() {
        knob("reliable layer off".into(), &|s| s.reliable = None);
    }
    out
}

/// Shrink `spec0` to a locally minimal scenario preserving its primary
/// failure kind; `log` receives one line per accepted reduction.
/// Returns the minimal spec and its verdict. Returns `spec0` unchanged
/// (with its verdict) when the scenario is clean — there is nothing to
/// preserve.
pub fn shrink(spec0: &HeadlessSpec, mut log: impl FnMut(&str)) -> (HeadlessSpec, Verdict) {
    let mut best = (spec0.clone(), trial(spec0));
    let Some(kind) = best.1.primary().map(str::to_string) else {
        return best;
    };
    'pass: loop {
        for (step, cand) in candidates(&best.0) {
            let verdict = trial(&cand);
            if verdict.has_kind(&kind) {
                log(&step);
                best = (cand, verdict);
                continue 'pass;
            }
        }
        return best;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nscc_sim::SimTime;

    /// A sabotage scenario dressed up with irrelevant chaos: the
    /// staleness violation comes from `inject_stale` alone, so the
    /// shrinker must strip the fault plan and the optional machinery.
    #[test]
    fn shrink_strips_irrelevant_chaos_from_a_sabotage_repro() {
        let noisy = HeadlessSpec {
            inject_stale: 3,
            plan: Some(FaultPlan::new(5).loss(0.02).crash_and_restart(
                1,
                SimTime::from_millis(40),
                SimTime::from_millis(80),
            )),
            snapshots: Some(8),
            supervision: true,
            ..HeadlessSpec::quick(13)
        };
        let before = trial(&noisy);
        // A sabotaged release carries no honest hop stamps, so its
        // anatomy trips the conservation monitor just before the
        // read-done trips the staleness monitor.
        assert_eq!(before.primary(), Some("audit:conservation"), "{before:?}");
        assert!(before.has_kind("audit:staleness"), "{before:?}");

        let mut steps = Vec::new();
        let (min, verdict) = shrink(&noisy, |s| steps.push(s.to_string()));
        assert_eq!(verdict.primary(), Some("audit:conservation"), "{steps:?}");
        assert!(verdict.has_kind("audit:staleness"), "{steps:?}");
        assert!(min.plan.is_none(), "fault plan was irrelevant: {steps:?}");
        assert_eq!(min.snapshots, None, "{steps:?}");
        assert!(!min.supervision, "{steps:?}");
        assert_eq!(min.inject_stale, 1, "sabotage shrinks to one read");
        assert!(!steps.is_empty());

        // Local minimality: removing the one remaining cause loses the
        // preserved failure kind.
        let without = HeadlessSpec {
            inject_stale: 0,
            ..min.clone()
        };
        let v = trial(&without);
        assert!(!v.has_kind("audit:conservation"), "{v:?}");
        assert!(!v.has_kind("audit:staleness"), "{v:?}");
    }

    #[test]
    fn clean_scenarios_shrink_to_themselves() {
        let clean = HeadlessSpec::quick(3);
        let mut steps = Vec::new();
        let (min, verdict) = shrink(&clean, |s| steps.push(s.to_string()));
        assert!(verdict.is_clean());
        assert!(steps.is_empty());
        assert_eq!(format!("{min:?}"), format!("{clean:?}"));
    }
}
