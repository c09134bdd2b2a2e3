//! `nscc drill`: render the recovery story of a run report — what the
//! consistent-snapshot protocol and the crash supervisor did — and
//! re-verify the drill's headline invariant (warm-restore rollback stays
//! within the `Global_Read` age bound) from the report alone.
//!
//! The input is any `BENCH_*.json` with a non-null `recovery` section,
//! canonically `BENCH_drill.json` from `nscc run drill`. Reports
//! whose runs never enabled snapshots or supervision render a hint
//! instead of failing, mirroring `nscc audit`.

use crate::fmt::{ns, num, table};
use crate::json::Json;
use crate::report::Report;

/// Render one report's recovery section. Returns the rendered text and
/// the number of problems found — a rollback past the report's `age`
/// parameter, or coherence-monitor violations recorded alongside — so
/// the CLI can exit 1 on a failed drill.
pub fn drill(rep: &Report) -> (String, u64) {
    let mut out = format!("drill {} ({})\n", rep.name(), rep.path.display());
    let section = match rep.root.get("recovery") {
        Some(s) if !matches!(s, Json::Null) => s,
        _ => {
            out.push_str(
                "  no recovery section — run a bench with snapshots/supervision on \
                 (e.g. the `drill` binary) to populate it\n",
            );
            return (out, 0);
        }
    };

    let get = |key: &str| section.get(key).and_then(Json::as_u64).unwrap_or(0);
    let started = get("snapshots_started");
    let completed = get("snapshots_completed");
    let restores = get("restores");
    let cut_restores = get("cut_restores");
    let give_ups = get("give_ups");
    let max_rollback = get("max_rollback");

    let mut rows = vec![vec!["what".to_string(), "count".to_string()]];
    for (what, v) in [
        ("marker waves started", started),
        ("consistent cuts completed", completed),
        ("in-flight updates recorded", get("inflight_recorded")),
        ("restores (total)", restores),
        ("restores served from a cut", cut_restores),
        ("restarts approved", get("restarts_approved")),
        ("islands retired (budget exhausted)", give_ups),
    ] {
        rows.push(vec![what.to_string(), num(v as f64)]);
    }
    rows.push(vec![
        "largest restart backoff".to_string(),
        ns(get("max_backoff_ns")),
    ]);
    rows.push(vec![
        "largest rollback (generations)".to_string(),
        num(max_rollback as f64),
    ]);
    out.push_str(&table(&rows));

    let failed: Vec<String> = section
        .get("failed_ranks")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(Json::as_u64)
        .map(|r| r.to_string())
        .collect();
    if !failed.is_empty() {
        out.push_str(&format!(
            "  degraded: rank(s) {} abandoned after exhausting their restart budget; \
             the survivors completed the run\n",
            failed.join(", ")
        ));
    }

    let mut problems = 0u64;
    // The headline invariant: rollback never exceeds the staleness the
    // age bound already tolerates. The drill bin records the bound as
    // the `age` parameter; reports without it skip the check.
    if let Some(age) = rep
        .root
        .get("params")
        .and_then(|p| p.get("age"))
        .and_then(Json::as_u64)
    {
        if max_rollback > age {
            problems += 1;
            out.push_str(&format!(
                "ROLLBACK BOUND BROKEN: a restore rolled back {max_rollback} \
                 generation(s) against an age bound of {age}\n"
            ));
        }
    }
    // An audited drill carries the monitors' verdict; surface it here so
    // `nscc drill` alone decides pass/fail.
    if let Some(v) = rep
        .root
        .get("audit")
        .and_then(|a| a.get("violations"))
        .and_then(Json::as_u64)
    {
        if v > 0 {
            problems += v;
            out.push_str(&format!(
                "AUDIT VIOLATIONS: {} recorded during the drill (see `nscc audit`)\n",
                num(v as f64)
            ));
        }
    }
    if problems == 0 {
        out.push_str(&format!(
            "PASS: {completed}/{started} wave(s) completed, {restores} restore(s) \
             ({cut_restores} from cuts), rollback ≤ bound\n"
        ));
    }
    (out, problems)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::write_temp;

    fn report(body: &str) -> Report {
        let p = write_temp("rep.json", body);
        let rep = Report::load(&p).unwrap();
        std::fs::remove_file(p).ok();
        rep
    }

    #[test]
    fn renders_a_passing_drill() {
        let rep = report(
            r#"{"schema_version":6,"name":"drill","params":{"age":5},
                "audit":{"violations":0},
                "recovery":{"snapshots_started":10,"snapshots_completed":9,
                "inflight_recorded":42,"cut_restores":2,"restores":4,
                "restarts_approved":3,"give_ups":1,"failed_ranks":[1],
                "max_backoff_ns":2000000,"max_rollback":3}}"#,
        );
        let (text, problems) = drill(&rep);
        assert_eq!(problems, 0, "{text}");
        assert!(text.contains("PASS"), "{text}");
        assert!(text.contains("9"), "{text}");
        assert!(text.contains("rank(s) 1 abandoned"), "{text}");
        assert!(text.contains("2.00ms"), "{text}");
    }

    #[test]
    fn flags_rollback_past_the_age_bound_and_audit_violations() {
        let rep = report(
            r#"{"schema_version":6,"name":"drill","params":{"age":5},
                "audit":{"violations":2},
                "recovery":{"snapshots_started":1,"snapshots_completed":1,
                "inflight_recorded":0,"cut_restores":0,"restores":1,
                "restarts_approved":1,"give_ups":0,"failed_ranks":[],
                "max_backoff_ns":0,"max_rollback":9}}"#,
        );
        let (text, problems) = drill(&rep);
        assert_eq!(problems, 3, "{text}");
        assert!(text.contains("ROLLBACK BOUND BROKEN"), "{text}");
        assert!(text.contains("AUDIT VIOLATIONS"), "{text}");
        assert!(!text.contains("PASS"), "{text}");
    }

    #[test]
    fn missing_recovery_section_hints_instead_of_failing() {
        let rep = report(r#"{"schema_version":6,"name":"fig2","recovery":null}"#);
        let (text, problems) = drill(&rep);
        assert_eq!(problems, 0);
        assert!(text.contains("no recovery section"), "{text}");
    }
}
