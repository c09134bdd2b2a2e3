//! `nscc audit`: render a run report's coherence-auditor verdict.
//!
//! `nscc run <experiment> --audit` attaches the online invariant
//! monitors (staleness bound, write monotonicity, delivery dedup,
//! barrier lockstep, rollback bound) and stamps their verdict into the
//! report's `audit` section. This command renders that section: the
//! per-monitor check/violation table, then each recorded violation in
//! detection order. The recorded list is capped writer-side; the counts
//! are exact regardless.

use crate::fmt::{ns, num, table};
use crate::json::Json;
use crate::report::Report;

/// Render the audit verdict of one report. Returns the text and the
/// total violation count (so the CLI can exit nonzero on a dirty run).
pub fn audit(rep: &Report) -> (String, u64) {
    let mut out = format!("audit {} ({})\n", rep.name(), rep.path.display());
    let section = match rep.root.get("audit") {
        Some(s) if !matches!(s, Json::Null) => s,
        _ => {
            out.push_str(
                "  no audit section — rerun with --audit to attach the coherence monitors\n",
            );
            return (out, 0);
        }
    };

    let mut rows = vec![vec![
        "monitor".to_string(),
        "checked".to_string(),
        "violations".to_string(),
    ]];
    for m in section
        .get("monitors")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
    {
        rows.push(vec![
            m.get("name").and_then(Json::as_str).unwrap_or("?").into(),
            num(m.get("checked").and_then(Json::as_f64).unwrap_or(0.0)),
            num(m.get("violations").and_then(Json::as_f64).unwrap_or(0.0)),
        ]);
    }
    out.push_str(&table(&rows));

    let checked = section.get("checked").and_then(Json::as_u64).unwrap_or(0);
    let violations = section
        .get("violations")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let dropped = section.get("dropped").and_then(Json::as_u64).unwrap_or(0);
    if violations == 0 {
        out.push_str(&format!(
            "CLEAN: {} checks, no violations\n",
            num(checked as f64)
        ));
        return (out, 0);
    }

    out.push_str(&format!(
        "VIOLATIONS: {} across {} checks\n",
        num(violations as f64),
        num(checked as f64)
    ));
    for v in section
        .get("recorded")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
    {
        out.push_str(&format!(
            "  [{}] {} rank {}: {}\n",
            ns(v.get("t_ns").and_then(Json::as_u64).unwrap_or(0)),
            v.get("monitor").and_then(Json::as_str).unwrap_or("?"),
            num(v.get("rank").and_then(Json::as_f64).unwrap_or(0.0)),
            v.get("detail").and_then(Json::as_str).unwrap_or("?"),
        ));
    }
    if dropped > 0 {
        out.push_str(&format!(
            "  … {} more past the recording cap (the counts above stay exact)\n",
            num(dropped as f64)
        ));
    }
    (out, violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::from_text;

    fn report(doc: &str) -> Report {
        from_text("BENCH_t.json", doc)
    }

    #[test]
    fn unaudited_report_points_at_the_env_var() {
        let rep = report(r#"{"schema_version":5,"name":"t","metrics":{},"audit":null}"#);
        let (text, violations) = audit(&rep);
        assert_eq!(violations, 0);
        assert!(text.contains("rerun with --audit"), "{text}");
    }

    #[test]
    fn clean_audit_renders_the_monitor_table() {
        let rep = report(
            r#"{"schema_version":5,"name":"t","metrics":{},"audit":{
                "monitors":[{"name":"staleness","checked":120,"violations":0},
                            {"name":"barrier","checked":8,"violations":0}],
                "checked":128,"violations":0,"dropped":0,"recorded":[]}}"#,
        );
        let (text, violations) = audit(&rep);
        assert_eq!(violations, 0);
        assert!(text.contains("CLEAN: 128 checks"), "{text}");
        assert!(text.contains("staleness"), "{text}");
        assert!(text.contains("barrier"), "{text}");
    }

    #[test]
    fn dirty_audit_lists_recorded_violations_and_the_drop_note() {
        let rep = report(
            r#"{"schema_version":5,"name":"t","metrics":{},"audit":{
                "monitors":[{"name":"staleness","checked":120,"violations":70}],
                "checked":120,"violations":70,"dropped":6,"recorded":[
                  {"monitor":"staleness","t_ns":1500,"rank":1,
                   "detail":"read of loc 9 delivered staleness 7 > requested bound 5"}]}}"#,
        );
        let (text, violations) = audit(&rep);
        assert_eq!(violations, 70);
        assert!(text.contains("VIOLATIONS: 70 across 120 checks"), "{text}");
        assert!(
            text.contains("[1.50us] staleness rank 1: read of loc 9"),
            "{text}"
        );
        assert!(text.contains("… 6 more past the recording cap"), "{text}");
    }
}
