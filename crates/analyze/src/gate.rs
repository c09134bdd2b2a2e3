//! `nscc gate`: the perf regression gate.
//!
//! Compares fresh `BENCH_*.json` reports against checked-in baselines
//! with per-metric relative thresholds. The simulation is deterministic
//! per seed, so any drift at all is a code change showing up in the
//! numbers — the tolerance exists only to absorb baselines transcribed
//! from 2-decimal printed tables, plus deliberate slack for metrics
//! derived from float reductions.
//!
//! Semantics:
//! - `params` must match the baseline exactly (same keys, same values).
//!   A mismatch means the comparison is meaningless (different workload),
//!   which is a configuration error (exit 2), not a regression (exit 1).
//! - Default scope is the union of `metrics.*` keys: a metric missing on
//!   either side fails the gate. `--all` widens the scope to every
//!   numeric scalar in the report (counters, histogram stats).
//! - A fresh run that dropped raw trace data (events/spans past the hub's
//!   capture capacity) still gates soundly in the default scope: every
//!   `metrics.*` value is derived from unbounded counters, not the raw
//!   streams, so truncation cannot move them. The gate prints a note and
//!   proceeds. Under `--all` the kept-stream counters (`obs.events`,
//!   `obs.spans`) enter the scope, and those saturate at the capacity —
//!   comparing them on a truncated capture is meaningless, so that case
//!   stays a configuration error.
//! - A metric passes iff `|new − base| ≤ max(rel·|base|, abs)`. Equality
//!   at the boundary passes.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use crate::fmt::num;
use crate::report::Report;

/// Gate thresholds and scope.
#[derive(Debug, Clone, Copy)]
pub struct GateConfig {
    /// Relative tolerance (fraction of the baseline magnitude).
    pub rel: f64,
    /// Absolute floor: deltas within this always pass. Absorbs baselines
    /// transcribed from 2-dp tables (worst case ±0.005 per side).
    pub abs: f64,
    /// Compare every numeric scalar, not just `metrics.*`.
    pub all: bool,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            rel: 0.05,
            abs: 0.02,
            all: false,
        }
    }
}

/// What the gate decided, in decreasing order of severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Outcome {
    /// Everything inside tolerance.
    Pass,
    /// At least one metric drifted beyond tolerance or vanished.
    Regression,
    /// The runs are not comparable (params differ, baseline missing).
    ConfigError,
}

impl Outcome {
    /// Process exit code: 0 pass, 1 regression, 2 config error.
    pub fn exit_code(self) -> i32 {
        match self {
            Outcome::Pass => 0,
            Outcome::Regression => 1,
            Outcome::ConfigError => 2,
        }
    }
}

/// Gate one fresh report against its baseline. Returns the human-readable
/// verdict text and the outcome.
pub fn gate_pair(base: &Report, fresh: &Report, cfg: &GateConfig) -> (String, Outcome) {
    let mut out = format!(
        "gate {} vs baseline {}\n",
        fresh.path.display(),
        base.path.display()
    );

    // Params must match exactly; anything else compares different workloads.
    let (pa, pb) = (base.numeric_map("params"), fresh.numeric_map("params"));
    if pa != pb {
        let keys: BTreeSet<&String> = pa.keys().chain(pb.keys()).collect();
        for k in keys {
            match (pa.get(k), pb.get(k)) {
                (Some(a), Some(b)) if a == b => {}
                (a, b) => out.push_str(&format!(
                    "  param mismatch {k}: baseline {} vs fresh {}\n",
                    a.map_or("(missing)".into(), |v| num(*v)),
                    b.map_or("(missing)".into(), |v| num(*v)),
                )),
            }
        }
        out.push_str("  CONFIG ERROR: params differ — refresh the baseline or fix the run\n");
        return (out, Outcome::ConfigError);
    }

    // A coherence violation means the fresh run broke its own contract:
    // its numbers describe an invalid execution, so comparing them to a
    // baseline is meaningless — that's a config error (exit 2), not a
    // regression.
    let audit_violations = fresh
        .root
        .get("audit")
        .and_then(|a| a.get("violations"))
        .and_then(crate::json::Json::as_u64)
        .unwrap_or(0);
    if audit_violations > 0 {
        out.push_str(&format!(
            "  CONFIG ERROR: fresh run's coherence auditor recorded {audit_violations} \
             violation(s) — the run is invalid; see `nscc audit {}` and any \
             FLIGHT_*.json dump\n",
            fresh.path.display()
        ));
        return (out, Outcome::ConfigError);
    }

    // Raw trace truncation never moves a `metrics.*` value (those are
    // counter-derived), so the default scope gates soundly and only gets
    // a note. `--all` pulls the kept-stream counters (`obs.events`,
    // `obs.spans`) into scope, and those saturate at the capture
    // capacity, so gating a truncated capture there is meaningless.
    let obs = fresh.numeric_map("obs");
    let events_dropped = obs.get("events_dropped").copied().unwrap_or(0.0);
    let spans_dropped = obs.get("spans_dropped").copied().unwrap_or(0.0);
    if events_dropped > 0.0 || spans_dropped > 0.0 {
        if cfg.all {
            out.push_str(&format!(
                "  CONFIG ERROR: fresh run dropped raw trace data ({} events, {} spans at \
                 capture capacity) and --all gates the kept-stream counters — rerun with a \
                 larger hub capacity or gate the default metric scope\n",
                num(events_dropped),
                num(spans_dropped)
            ));
            return (out, Outcome::ConfigError);
        }
        out.push_str(&format!(
            "  note: fresh run dropped raw trace data ({} events, {} spans at capture \
             capacity); counters and histograms stay exact, gated metrics are unaffected\n",
            num(events_dropped),
            num(spans_dropped)
        ));
    }

    let scope = |r: &Report| -> BTreeMap<String, f64> {
        if cfg.all {
            // `wall.*` is the scheduler's wall-clock self-accounting
            // (--wall): real host nanoseconds, nondeterministic by
            // nature, so it is never gated — only reported. `audit.*`
            // check counts exist only on --audit runs, so gating
            // them would fail every monitored run against an unmonitored
            // baseline; a *violation* is caught above instead. Same for
            // `staleness.*`: the anatomy counters exist only on
            // --staleness runs, and a decomposition leak is caught
            // by the audit `conservation` monitor, not the gate.
            r.flatten()
                .into_iter()
                .filter(|(k, _)| {
                    !k.starts_with("params.")
                        && k != "schema_version"
                        && !k.starts_with("wall.")
                        && !k.starts_with("audit.")
                        && !k.starts_with("staleness.")
                })
                .collect()
        } else {
            r.numeric_map("metrics")
                .into_iter()
                .map(|(k, v)| (format!("metrics.{k}"), v))
                .collect()
        }
    };
    let (ma, mb) = (scope(base), scope(fresh));
    let keys: BTreeSet<&String> = ma.keys().chain(mb.keys()).collect();
    let total = keys.len();
    let mut failures = 0usize;
    for k in keys {
        match (ma.get(k).copied(), mb.get(k).copied()) {
            (Some(base_v), Some(new_v)) => {
                let tol = (cfg.rel * base_v.abs()).max(cfg.abs);
                let delta = new_v - base_v;
                if delta.abs() > tol {
                    failures += 1;
                    // Round display only — the comparison above is exact.
                    let round6 = |v: f64| (v * 1e6).round() / 1e6;
                    out.push_str(&format!(
                        "  FAIL {k}: {} -> {} (delta {}, allowed ±{})\n",
                        num(base_v),
                        num(new_v),
                        num(round6(delta)),
                        num(round6(tol))
                    ));
                }
            }
            (Some(base_v), None) => {
                failures += 1;
                out.push_str(&format!(
                    "  FAIL {k}: {} -> (missing from fresh run)\n",
                    num(base_v)
                ));
            }
            (None, Some(new_v)) => {
                failures += 1;
                out.push_str(&format!(
                    "  FAIL {k}: (not in baseline) -> {} — refresh the baseline\n",
                    num(new_v)
                ));
            }
            (None, None) => {}
        }
    }

    // Throughput is reported, never gated: wall-clock events/sec is the
    // scheduler-rearchitecture baseline and varies with the host.
    if let Some(line) = throughput_line(fresh) {
        out.push_str(&format!("  {line}\n"));
    }

    let outcome = if failures == 0 {
        out.push_str(&format!(
            "  PASS: {total} metrics within rel={} abs={}\n",
            num(cfg.rel),
            num(cfg.abs)
        ));
        Outcome::Pass
    } else {
        out.push_str(&format!(
            "  REGRESSION: {failures}/{total} metrics out of tolerance\n"
        ));
        Outcome::Regression
    };
    (out, outcome)
}

/// The informational wall-clock throughput of a report's `wall` section
/// (present only on `--wall` runs), or `None`.
fn throughput_line(rep: &Report) -> Option<String> {
    let wall = rep.numeric_map("wall");
    let eps = wall.get("events_per_sec").copied()?;
    Some(format!(
        "wall: {} events in {} ({} events/sec, informational — never gated)",
        num(wall.get("events").copied().unwrap_or(0.0)),
        crate::fmt::ns(wall.get("wall_ns").copied().unwrap_or(0.0) as u64),
        num(eps.round())
    ))
}

/// Gate a set of fresh reports against `<baselines_dir>/<same filename>`.
/// Returns combined text and the worst outcome across all files.
pub fn gate_all(
    baselines_dir: &std::path::Path,
    fresh_paths: &[std::path::PathBuf],
    cfg: &GateConfig,
) -> (String, Outcome) {
    let mut out = String::new();
    let mut worst = Outcome::Pass;
    let mut throughput: Vec<(String, f64)> = Vec::new();
    for path in fresh_paths {
        let fresh = match Report::load(path) {
            Ok(r) => r,
            Err(e) => {
                out.push_str(&format!("{e}\n"));
                worst = worst.max(Outcome::ConfigError);
                continue;
            }
        };
        if let Some(eps) = fresh.numeric_map("wall").get("events_per_sec") {
            throughput.push((fresh.name(), *eps));
        }
        let Some(file_name) = path.file_name() else {
            out.push_str(&format!("{}: not a file path\n", path.display()));
            worst = worst.max(Outcome::ConfigError);
            continue;
        };
        let base_path = baselines_dir.join(file_name);
        let base = match Report::load(&base_path) {
            Ok(r) => r,
            Err(e) => {
                out.push_str(&format!(
                    "{e}\n  CONFIG ERROR: no baseline for {} — run `nscc gate \
                     --update-baselines` to create it\n",
                    path.display()
                ));
                worst = worst.max(Outcome::ConfigError);
                continue;
            }
        };
        let (text, outcome) = gate_pair(&base, &fresh, cfg);
        out.push_str(&text);
        worst = worst.max(outcome);
    }
    // The events/sec series across the gated set: the wall-clock
    // throughput baseline the scheduler rearchitecture must beat.
    // Informational only — it never moves the outcome.
    if !throughput.is_empty() {
        let values: Vec<f64> = throughput.iter().map(|(_, eps)| *eps).collect();
        out.push_str(&format!(
            "throughput (events/sec, informational): {}\n",
            crate::fmt::spark(&values)
        ));
        for (name, eps) in &throughput {
            out.push_str(&format!("  {name}: {}\n", num(eps.round())));
        }
    }
    (out, worst)
}

/// Copy fresh reports over their baselines (`--update-baselines`).
pub fn update_baselines(
    baselines_dir: &std::path::Path,
    fresh_paths: &[std::path::PathBuf],
) -> Result<String, String> {
    let mut out = String::new();
    std::fs::create_dir_all(baselines_dir)
        .map_err(|e| format!("{}: cannot create: {e}", baselines_dir.display()))?;
    for path in fresh_paths {
        // Validate before overwriting a known-good baseline.
        Report::load(path)?;
        let Some(file_name) = path.file_name() else {
            return Err(format!("{}: not a file path", path.display()));
        };
        let dest = baselines_dir.join(file_name);
        std::fs::copy(path, &dest)
            .map_err(|e| format!("{} -> {}: {e}", path.display(), dest.display()))?;
        out.push_str(&format!("updated {}\n", dest.display()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::from_text;

    fn report(doc: &str) -> Report {
        from_text("test.json", doc)
    }

    fn base() -> Report {
        report(
            r#"{"schema_version":2,"name":"t","params":{"runs":3,"seed":42},
               "metrics":{"speedup":10.0,"zeroish":0.0}}"#,
        )
    }

    #[test]
    fn identical_reports_pass() {
        let (text, outcome) = gate_pair(&base(), &base(), &GateConfig::default());
        assert_eq!(outcome, Outcome::Pass);
        assert!(text.contains("PASS: 2 metrics"), "{text}");
        assert_eq!(outcome.exit_code(), 0);
    }

    #[test]
    fn threshold_boundary_exactly_passes_and_just_over_fails() {
        // rel=0.05 of base 10 → tolerance 0.5: 10.5 is exactly at the
        // boundary and must pass; anything beyond fails.
        let at = report(
            r#"{"schema_version":2,"name":"t","params":{"runs":3,"seed":42},
               "metrics":{"speedup":10.5,"zeroish":0.0}}"#,
        );
        let (_, outcome) = gate_pair(&base(), &at, &GateConfig::default());
        assert_eq!(outcome, Outcome::Pass);

        let over = report(
            r#"{"schema_version":2,"name":"t","params":{"runs":3,"seed":42},
               "metrics":{"speedup":10.51,"zeroish":0.0}}"#,
        );
        let (text, outcome) = gate_pair(&base(), &over, &GateConfig::default());
        assert_eq!(outcome, Outcome::Regression);
        assert!(text.contains("FAIL metrics.speedup"), "{text}");
        assert_eq!(outcome.exit_code(), 1);
    }

    #[test]
    fn absolute_floor_covers_zero_baselines() {
        // rel tolerance of a 0.0 baseline is 0; the abs floor (0.02,
        // sized for 2-dp rounding) must carry it.
        let near = report(
            r#"{"schema_version":2,"name":"t","params":{"runs":3,"seed":42},
               "metrics":{"speedup":10.0,"zeroish":0.02}}"#,
        );
        let (_, outcome) = gate_pair(&base(), &near, &GateConfig::default());
        assert_eq!(outcome, Outcome::Pass);

        let far = report(
            r#"{"schema_version":2,"name":"t","params":{"runs":3,"seed":42},
               "metrics":{"speedup":10.0,"zeroish":0.03}}"#,
        );
        let (_, outcome) = gate_pair(&base(), &far, &GateConfig::default());
        assert_eq!(outcome, Outcome::Regression);
    }

    #[test]
    fn param_mismatch_is_config_error_not_regression() {
        let other = report(
            r#"{"schema_version":2,"name":"t","params":{"runs":5,"seed":42},
               "metrics":{"speedup":10.0,"zeroish":0.0}}"#,
        );
        let (text, outcome) = gate_pair(&base(), &other, &GateConfig::default());
        assert_eq!(outcome, Outcome::ConfigError);
        assert!(
            text.contains("param mismatch runs: baseline 3 vs fresh 5"),
            "{text}"
        );
        assert_eq!(outcome.exit_code(), 2);
    }

    #[test]
    fn dropped_trace_data_is_a_note_by_default_and_a_config_error_under_all() {
        let truncated = report(
            r#"{"schema_version":2,"name":"t","params":{"runs":3,"seed":42},
               "metrics":{"speedup":10.0,"zeroish":0.0},"obs":{"events_dropped":7}}"#,
        );
        // Default scope gates counter-derived metrics, which truncation
        // cannot move: note, then a normal verdict.
        let (text, outcome) = gate_pair(&base(), &truncated, &GateConfig::default());
        assert_eq!(outcome, Outcome::Pass);
        assert!(
            text.contains("note: fresh run dropped raw trace data"),
            "{text}"
        );

        // --all gates the kept-stream counters, which saturate at the
        // capture capacity — a truncated capture is not comparable.
        let cfg = GateConfig {
            all: true,
            ..GateConfig::default()
        };
        let (text, outcome) = gate_pair(&base(), &truncated, &cfg);
        assert_eq!(outcome, Outcome::ConfigError);
        assert!(text.contains("dropped raw trace data"), "{text}");
        assert_eq!(outcome.exit_code(), 2);

        // A truncated *baseline* alone doesn't block gating a clean run.
        let (_, outcome) = gate_pair(&truncated, &base(), &GateConfig::default());
        assert_ne!(outcome, Outcome::ConfigError);
    }

    #[test]
    fn missing_metric_on_either_side_fails() {
        let fewer = report(
            r#"{"schema_version":2,"name":"t","params":{"runs":3,"seed":42},
               "metrics":{"speedup":10.0}}"#,
        );
        let (text, outcome) = gate_pair(&base(), &fewer, &GateConfig::default());
        assert_eq!(outcome, Outcome::Regression);
        assert!(text.contains("missing from fresh run"), "{text}");

        let (text, outcome) = gate_pair(&fewer, &base(), &GateConfig::default());
        assert_eq!(outcome, Outcome::Regression);
        assert!(text.contains("not in baseline"), "{text}");
    }

    #[test]
    fn all_scope_compares_counters_too() {
        let a = report(
            r#"{"schema_version":2,"name":"t","params":{},
               "metrics":{},"obs":{"reads":100}}"#,
        );
        let b = report(
            r#"{"schema_version":2,"name":"t","params":{},
               "metrics":{},"obs":{"reads":200}}"#,
        );
        let cfg = GateConfig {
            all: true,
            ..GateConfig::default()
        };
        let (text, outcome) = gate_pair(&a, &b, &cfg);
        assert_eq!(outcome, Outcome::Regression);
        assert!(text.contains("FAIL obs.reads"), "{text}");
        // Default scope ignores the counter drift entirely.
        let (_, outcome) = gate_pair(&a, &b, &GateConfig::default());
        assert_eq!(outcome, Outcome::Pass);
    }

    #[test]
    fn wall_section_is_reported_but_never_gated() {
        // Two runs whose wall-clock accounting differs wildly (as it
        // will, being host-dependent) but whose metrics agree: --all
        // must still pass, and the throughput prints as information.
        let a = report(
            r#"{"schema_version":4,"name":"t","params":{},"metrics":{"m":1.0},
               "wall":{"events":1000,"wall_ns":1000000,"events_per_sec":1000000.0}}"#,
        );
        let b = report(
            r#"{"schema_version":4,"name":"t","params":{},"metrics":{"m":1.0},
               "wall":{"events":1000,"wall_ns":2000000,"events_per_sec":500000.0}}"#,
        );
        let cfg = GateConfig {
            all: true,
            ..GateConfig::default()
        };
        let (text, outcome) = gate_pair(&a, &b, &cfg);
        assert_eq!(outcome, Outcome::Pass, "{text}");
        assert!(
            text.contains("wall: 1000 events in 2.00ms (500000 events/sec, informational"),
            "{text}"
        );
        // A wall-less baseline against a wall-stamped fresh run (or vice
        // versa) is also fine: the section is outside the gated scope.
        let (_, outcome) = gate_pair(&base(), &base(), &cfg);
        assert_eq!(outcome, Outcome::Pass);
    }

    #[test]
    fn audit_violations_make_the_fresh_run_ungateable() {
        let dirty = report(
            r#"{"schema_version":5,"name":"t","params":{"runs":3,"seed":42},
               "metrics":{"speedup":10.0,"zeroish":0.0},
               "audit":{"monitors":[],"checked":10,"violations":3,"dropped":0,
                        "recorded":[]}}"#,
        );
        let (text, outcome) = gate_pair(&base(), &dirty, &GateConfig::default());
        assert_eq!(outcome, Outcome::ConfigError);
        assert!(text.contains("coherence auditor recorded 3"), "{text}");
        assert_eq!(outcome.exit_code(), 2);

        // A clean audited run gates normally, including under --all: the
        // audit check counts stay outside the gated scope so monitored
        // and unmonitored runs compare equal.
        let clean = report(
            r#"{"schema_version":5,"name":"t","params":{"runs":3,"seed":42},
               "metrics":{"speedup":10.0,"zeroish":0.0},
               "audit":{"monitors":[{"name":"staleness","checked":10,
                        "violations":0}],"checked":10,"violations":0,
                        "dropped":0,"recorded":[]}}"#,
        );
        let cfg = GateConfig {
            all: true,
            ..GateConfig::default()
        };
        let (text, outcome) = gate_pair(&base(), &clean, &cfg);
        assert_eq!(outcome, Outcome::Pass, "{text}");
    }

    #[test]
    fn staleness_section_is_reported_but_never_gated() {
        // A tracer-armed fresh run carries a `staleness` section whose
        // counters an untraced baseline lacks entirely: --all must not
        // fail the union over those keys, exactly like wall/audit.
        let traced = report(
            r#"{"schema_version":7,"name":"t","params":{"runs":3,"seed":42},
               "metrics":{"speedup":10.0,"zeroish":0.0},
               "staleness":{"released":120,"conservation_checked":120,
                 "conservation_violations":0,"flows_kept":120,"flows_dropped":0}}"#,
        );
        let cfg = GateConfig {
            all: true,
            ..GateConfig::default()
        };
        let (text, outcome) = gate_pair(&base(), &traced, &cfg);
        assert_eq!(outcome, Outcome::Pass, "{text}");
        let (text, outcome) = gate_pair(&traced, &base(), &cfg);
        assert_eq!(outcome, Outcome::Pass, "{text}");
    }

    #[test]
    fn gate_all_prints_the_throughput_series() {
        let dir = std::env::temp_dir().join("nscc_gate_tp");
        let baselines = dir.join("baselines");
        std::fs::create_dir_all(&dir).unwrap();
        let body = |eps: f64| {
            format!(
                r#"{{"schema_version":4,"name":"t","params":{{}},"metrics":{{"m":1.0}},
                   "wall":{{"events":10,"wall_ns":100,"events_per_sec":{eps}}}}}"#
            )
        };
        let f1 = dir.join("BENCH_a.json");
        let f2 = dir.join("BENCH_b.json");
        std::fs::write(&f1, body(100.0)).unwrap();
        std::fs::write(&f2, body(200.0)).unwrap();
        let fresh = vec![f1, f2];
        update_baselines(&baselines, &fresh).unwrap();
        let (text, outcome) = gate_all(&baselines, &fresh, &GateConfig::default());
        assert_eq!(outcome, Outcome::Pass, "{text}");
        assert!(
            text.contains("throughput (events/sec, informational): ▁█"),
            "{text}"
        );
        assert!(text.contains("  t: 100\n"), "{text}");
        assert!(text.contains("  t: 200\n"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gate_all_and_update_baselines_roundtrip() {
        let dir = std::env::temp_dir().join("nscc_gate_rt");
        let baselines = dir.join("baselines");
        std::fs::create_dir_all(&dir).unwrap();
        let fresh = dir.join("BENCH_t.json");
        std::fs::write(
            &fresh,
            r#"{"schema_version":2,"name":"t","params":{"runs":3},"metrics":{"m":1.0}}"#,
        )
        .unwrap();

        // No baseline yet: config error with a pointer to --update-baselines.
        let cfg = GateConfig::default();
        let (text, outcome) = gate_all(&baselines, std::slice::from_ref(&fresh), &cfg);
        assert_eq!(outcome, Outcome::ConfigError);
        assert!(text.contains("--update-baselines"), "{text}");

        // Update, then the same fresh file gates clean.
        update_baselines(&baselines, std::slice::from_ref(&fresh)).unwrap();
        let (text, outcome) = gate_all(&baselines, std::slice::from_ref(&fresh), &cfg);
        assert_eq!(outcome, Outcome::Pass, "{text}");

        std::fs::remove_dir_all(&dir).ok();
    }
}
