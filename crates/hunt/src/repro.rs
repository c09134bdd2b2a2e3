//! The portable repro format: one versioned JSON document carrying a
//! complete scenario plus the expected verdict, replayable forever.
//!
//! Two expectation polarities:
//!
//! * `must-reproduce` — the scenario demonstrates a real behaviour
//!   (e.g. the `inject_stale` sabotage tripping the staleness monitor).
//!   Replay fails if the findings' digest diverges from the recorded
//!   one: the repro doubles as a byte-exact determinism check.
//! * `must-not-reproduce` — the scenario used to fail and was fixed.
//!   Replay fails if any oracle fires again: the repro is a regression
//!   guard.
//!
//! The embedded fault plan reuses [`FaultPlan`]'s own versioned JSON;
//! the envelope is read by the workspace's one strict JSON reader
//! ([`nscc_ckpt::json`]) through the same typed field accessors.

use std::fmt::Write as _;

use nscc_bench::headless::{run_headless, HeadlessSpec};
use nscc_ckpt::json::{escape_into, parse, Json};
use nscc_core::FaultPlan;
use nscc_faults::json::Field;
use nscc_msg::ReliableConfig;
use nscc_sim::SimTime;

use crate::oracle::{digest, judge, Verdict};

/// Schema version stamped into (and demanded from) every repro document.
pub const REPRO_SCHEMA_VERSION: u64 = 1;

/// What replay must observe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// The recorded findings must come back byte-identically.
    MustReproduce,
    /// No oracle may fire (a fixed bug staying fixed).
    MustNotReproduce,
}

impl Expectation {
    fn as_str(self) -> &'static str {
        match self {
            Expectation::MustReproduce => "must-reproduce",
            Expectation::MustNotReproduce => "must-not-reproduce",
        }
    }
}

/// One committed repro: scenario + expectation + recorded evidence.
#[derive(Debug, Clone)]
pub struct Repro {
    /// The complete trial configuration.
    pub scenario: HeadlessSpec,
    /// Replay polarity.
    pub expect: Expectation,
    /// FNV digest over the recorded findings (empty-verdict digest for
    /// `must-not-reproduce`).
    pub digest: String,
    /// The recorded findings, for humans and diffs; replay re-derives
    /// them and trusts only the digest.
    pub findings: Vec<String>,
    /// Free-form provenance (which hunt, which trial, what it shows).
    pub note: String,
}

impl Repro {
    /// Package a failing scenario and its verdict as a `must-reproduce`
    /// repro.
    pub fn from_finding(scenario: HeadlessSpec, verdict: &Verdict, note: &str) -> Repro {
        Repro {
            scenario,
            expect: Expectation::MustReproduce,
            digest: digest(verdict),
            findings: verdict.lines(),
            note: note.to_string(),
        }
    }

    /// Re-run the scenario and check the expectation. `Ok` carries a
    /// one-line confirmation; `Err` explains the divergence.
    pub fn replay(&self) -> Result<String, String> {
        let verdict = judge(&self.scenario, &run_headless(&self.scenario));
        let fresh = digest(&verdict);
        match self.expect {
            Expectation::MustReproduce => {
                if fresh == self.digest {
                    Ok(format!(
                        "reproduced: {} finding(s), digest {}",
                        verdict.findings.len(),
                        fresh
                    ))
                } else {
                    let mut msg = format!(
                        "findings diverged: recorded digest {} ({} finding(s)), replay got {} ({}):",
                        self.digest,
                        self.findings.len(),
                        fresh,
                        verdict.findings.len()
                    );
                    for line in verdict.lines().iter().take(8) {
                        let _ = write!(msg, "\n  {line}");
                    }
                    Err(msg)
                }
            }
            Expectation::MustNotReproduce => {
                if verdict.is_clean() {
                    Ok("still clean".to_string())
                } else {
                    let mut msg = format!(
                        "fixed scenario failed again ({} finding(s)):",
                        verdict.findings.len()
                    );
                    for line in verdict.lines().iter().take(8) {
                        let _ = write!(msg, "\n  {line}");
                    }
                    Err(msg)
                }
            }
        }
    }

    /// Serialize to the canonical compact JSON document (trailing
    /// newline included — repros are committed files).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        let _ = write!(out, "{{\"schema\":{REPRO_SCHEMA_VERSION},\"note\":");
        escape_into(&mut out, &self.note);
        out.push_str(",\"scenario\":");
        push_spec(&mut out, &self.scenario);
        let _ = write!(
            out,
            ",\"expect\":{{\"status\":\"{}\",\"digest\":",
            self.expect.as_str()
        );
        escape_into(&mut out, &self.digest);
        out.push_str(",\"findings\":[");
        for (i, line) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(&mut out, line);
        }
        out.push_str("]}}\n");
        out
    }

    /// Strict parse of a repro document (the reading half of the NSCC_*
    /// exit-2 convention: callers treat `Err` as a hard error).
    pub fn from_json(text: &str) -> Result<Repro, String> {
        let doc = parse(text).map_err(|e| e.to_string())?;
        let obj = doc.obj("repro")?;
        let mut scenario = None;
        let mut expect = None;
        let mut doc_digest = None;
        let mut findings = Vec::new();
        let mut note = String::new();
        let mut saw_schema = false;
        for (key, value) in obj {
            match &**key {
                "schema" => {
                    let v = value.u64("schema")?;
                    if v != REPRO_SCHEMA_VERSION {
                        return Err(format!(
                            "unsupported repro schema {v} (this build reads {REPRO_SCHEMA_VERSION})"
                        ));
                    }
                    saw_schema = true;
                }
                "note" => note = value.str("note")?.to_string(),
                "scenario" => scenario = Some(spec_from_value(value)?),
                "expect" => {
                    for (k, v) in value.obj("expect")? {
                        match &**k {
                            "status" => {
                                expect = Some(match v.str("status")? {
                                    "must-reproduce" => Expectation::MustReproduce,
                                    "must-not-reproduce" => Expectation::MustNotReproduce,
                                    other => {
                                        return Err(format!(
                                            "unknown expect status {other:?} (expected \
                                             must-reproduce or must-not-reproduce)"
                                        ))
                                    }
                                })
                            }
                            "digest" => doc_digest = Some(v.str("digest")?.to_string()),
                            "findings" => {
                                for item in v.arr("findings")? {
                                    findings.push(item.str("findings entry")?.to_string());
                                }
                            }
                            other => return Err(format!("unknown expect key `{other}`")),
                        }
                    }
                }
                other => return Err(format!("unknown repro key `{other}`")),
            }
        }
        if !saw_schema {
            return Err("repro missing `schema`".into());
        }
        Ok(Repro {
            scenario: scenario.ok_or("repro missing `scenario`")?,
            expect: expect.ok_or("repro missing `expect.status`")?,
            digest: doc_digest.ok_or("repro missing `expect.digest`")?,
            findings,
            note,
        })
    }

    /// Read a repro from a file, prefixing errors with the path.
    pub fn load(path: &std::path::Path) -> Result<Repro, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Repro::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

// ---------------------------------------------------------------------
// Scenario serialization
// ---------------------------------------------------------------------

fn push_opt_ns(out: &mut String, key: &str, v: Option<SimTime>) {
    match v {
        Some(t) => {
            let _ = write!(out, "\"{key}\":{}", t.as_nanos());
        }
        None => {
            let _ = write!(out, "\"{key}\":null");
        }
    }
}

fn push_spec(out: &mut String, s: &HeadlessSpec) {
    let _ = write!(
        out,
        "{{\"procs\":{},\"generations\":{},\"runs\":{},\"seed\":{},\"age\":{},",
        s.procs, s.generations, s.runs, s.seed, s.age
    );
    match &s.reliable {
        Some(r) => {
            let _ = write!(
                out,
                "\"reliable\":{{\"ack_bytes\":{},\"base_rto_ns\":{},\"max_retries\":{},\
                 \"max_rto_ns\":{}}},",
                r.ack_bytes,
                r.base_rto.as_nanos(),
                r.max_retries,
                r.max_rto.as_nanos()
            );
        }
        None => out.push_str("\"reliable\":null,"),
    }
    push_opt_ns(out, "read_timeout_ns", s.read_timeout);
    out.push(',');
    push_opt_ns(out, "heartbeat_ns", s.heartbeat);
    let _ = write!(
        out,
        ",\"watchdog_ns\":{},\"inject_stale\":{},",
        s.watchdog.as_nanos(),
        s.inject_stale
    );
    match s.snapshots {
        Some(every) => {
            let _ = write!(out, "\"snapshots\":{every},");
        }
        None => out.push_str("\"snapshots\":null,"),
    }
    let _ = write!(out, "\"supervision\":{},", s.supervision);
    match &s.plan {
        Some(plan) => {
            out.push_str("\"plan\":");
            out.push_str(&plan.to_json());
        }
        None => out.push_str("\"plan\":null"),
    }
    out.push('}');
}

fn opt_time(v: &Json, what: &str) -> Result<Option<SimTime>, String> {
    match v {
        Json::Null => Ok(None),
        other => other.time(what).map(Some),
    }
}

fn spec_from_value(v: &Json) -> Result<HeadlessSpec, String> {
    let obj = v.obj("scenario")?;
    let mut s = HeadlessSpec {
        procs: 0,
        generations: 0,
        runs: 0,
        seed: 0,
        age: 0,
        plan: None,
        reliable: None,
        read_timeout: None,
        heartbeat: None,
        watchdog: SimTime::ZERO,
        inject_stale: 0,
        snapshots: None,
        supervision: false,
    };
    let mut seen = [false; 5]; // procs, generations, runs, seed, watchdog
    for (key, value) in obj {
        match &**key {
            "procs" => {
                s.procs = value.u64("procs")? as usize;
                seen[0] = true;
            }
            "generations" => {
                s.generations = value.u64("generations")?;
                seen[1] = true;
            }
            "runs" => {
                s.runs = value.u64("runs")? as usize;
                seen[2] = true;
            }
            "seed" => {
                s.seed = value.u64("seed")?;
                seen[3] = true;
            }
            "age" => s.age = value.u64("age")?,
            "reliable" => {
                s.reliable = match value {
                    Json::Null => None,
                    other => {
                        let mut r = ReliableConfig::default();
                        for (k, v) in other.obj("reliable")? {
                            match &**k {
                                "ack_bytes" => r.ack_bytes = v.u64(k)? as usize,
                                "base_rto_ns" => r.base_rto = v.time(k)?,
                                "max_retries" => r.max_retries = v.u32(k)?,
                                "max_rto_ns" => r.max_rto = v.time(k)?,
                                other => return Err(format!("unknown reliable key `{other}`")),
                            }
                        }
                        Some(r)
                    }
                };
            }
            "read_timeout_ns" => s.read_timeout = opt_time(value, key)?,
            "heartbeat_ns" => s.heartbeat = opt_time(value, key)?,
            "watchdog_ns" => {
                s.watchdog = value.time("watchdog_ns")?;
                seen[4] = true;
            }
            "inject_stale" => s.inject_stale = value.u64("inject_stale")?,
            "snapshots" => {
                s.snapshots = match value {
                    Json::Null => None,
                    other => Some(other.u64("snapshots")?),
                };
            }
            "supervision" => s.supervision = value.bool("supervision")?,
            "plan" => {
                s.plan = match value {
                    Json::Null => None,
                    other => Some(FaultPlan::from_value(other)?),
                };
            }
            other => return Err(format!("unknown scenario key `{other}`")),
        }
    }
    for (ok, name) in seen
        .iter()
        .zip(["procs", "generations", "runs", "seed", "watchdog_ns"])
    {
        if !ok {
            return Err(format!("scenario missing `{name}`"));
        }
    }
    if s.procs < 2 {
        return Err(format!("scenario needs at least 2 procs (got {})", s.procs));
    }
    if s.runs == 0 {
        return Err("scenario needs at least 1 run".into());
    }
    if s.watchdog == SimTime::ZERO {
        return Err("scenario watchdog_ns must be positive (a fuzzer must never hang)".into());
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Finding;

    fn rich_repro() -> Repro {
        let scenario = HeadlessSpec {
            inject_stale: 1,
            plan: Some(FaultPlan::new(9).loss(0.01).crash_and_restart(
                1,
                SimTime::from_millis(20),
                SimTime::from_millis(50),
            )),
            snapshots: Some(8),
            supervision: true,
            ..HeadlessSpec::quick(u64::MAX - 1)
        };
        let verdict = Verdict {
            findings: vec![Finding {
                kind: "audit:staleness".into(),
                detail: "staleness@123 rank=0: stale by 12".into(),
            }],
        };
        Repro::from_finding(scenario, &verdict, "unit fixture \"quoted\"")
    }

    #[test]
    fn round_trip_is_canonical() {
        let repro = rich_repro();
        let text = repro.to_json();
        assert!(text.ends_with("}\n"));
        let back = Repro::from_json(&text).unwrap();
        assert_eq!(back.to_json(), text, "canonical form round-trips exactly");
        assert_eq!(back.expect, Expectation::MustReproduce);
        assert_eq!(back.digest, repro.digest);
        assert_eq!(back.findings, repro.findings);
        assert_eq!(back.note, repro.note);
        assert_eq!(back.scenario.seed, u64::MAX - 1, "u64 seeds survive");
        assert_eq!(
            back.scenario.plan.as_ref().unwrap().to_json(),
            repro.scenario.plan.as_ref().unwrap().to_json()
        );
    }

    /// Every `seed` member under `v`, in document order, as `as_u64`
    /// reads it.
    fn seeds(v: &Json, out: &mut Vec<Option<u64>>) {
        match v {
            Json::Obj(members) => {
                for (k, v) in members {
                    if &**k == "seed" {
                        out.push(v.as_u64());
                    }
                    seeds(v, out);
                }
            }
            Json::Arr(items) => items.iter().for_each(|v| seeds(v, out)),
            _ => {}
        }
    }

    #[test]
    fn committed_repros_round_trip_byte_identically() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../repros");
        let mut seen = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|ext| ext != "json") {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let back = Repro::from_json(&text).unwrap().to_json();
            assert_eq!(back, text, "{}", path.display());
            // Each seed reads back as the digits the file holds, 64-bit
            // ones included.
            let digits: Vec<_> = text
                .split("\"seed\":")
                .skip(1)
                .map(|rest| {
                    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap();
                    Some(rest[..end].parse::<u64>().unwrap())
                })
                .collect();
            let mut read = Vec::new();
            seeds(&parse(&text).unwrap(), &mut read);
            assert_eq!(read, digits, "{}", path.display());
            assert!(!digits.is_empty(), "{}", path.display());
            seen += 1;
        }
        assert_eq!(seen, 3, "repros/*.json");
    }

    #[test]
    fn strict_parser_rejects_bad_documents() {
        let good = rich_repro().to_json();
        for (mutate, why) in [
            ("\"schema\":1", "\"schema\":99"),
            ("\"status\":\"must-reproduce\"", "\"status\":\"maybe\""),
            ("\"procs\":4", "\"procz\":4"),
            ("\"watchdog_ns\":3600000000000", "\"watchdog_ns\":0"),
        ] {
            let bad = good.replace(mutate, why);
            assert_ne!(bad, good, "mutation applied: {mutate}");
            assert!(Repro::from_json(&bad).is_err(), "{mutate} -> {why}");
        }
        assert!(Repro::from_json("{}").is_err(), "missing everything");
        assert!(Repro::from_json("not json").is_err());
    }

    #[test]
    fn load_prefixes_the_path() {
        let dir = std::env::temp_dir().join(format!("nscc-repro-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.json");
        std::fs::write(&good, rich_repro().to_json()).unwrap();
        assert!(Repro::load(&good).is_ok());
        let err = Repro::load(&dir.join("missing.json")).unwrap_err();
        assert!(err.contains("missing.json"), "{err}");
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{").unwrap();
        let err = Repro::load(&bad).unwrap_err();
        assert!(err.contains("bad.json"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sabotage_repro_replays_byte_identically() {
        // End-to-end: a real sabotage scenario, judged, packaged,
        // serialized, parsed back and replayed — the digest must match.
        let scenario = HeadlessSpec {
            inject_stale: 1,
            ..HeadlessSpec::quick(21)
        };
        let verdict = judge(&scenario, &run_headless(&scenario));
        // The injected-stale release trips two oracles: the staleness
        // monitor (age bound broken) and the conservation plane (the
        // sabotaged release has no honest hop stamps to account for its
        // age). The anatomy event precedes the read-done on the wire, so
        // the conservation violation is recorded first.
        assert_eq!(verdict.primary(), Some("audit:conservation"));
        assert!(verdict.has_kind("audit:staleness"));
        assert!(verdict.has_kind("conservation"));
        let repro = Repro::from_finding(scenario, &verdict, "e2e test");
        let back = Repro::from_json(&repro.to_json()).unwrap();
        let confirmation = back.replay().expect("replay confirms");
        assert!(confirmation.contains(&repro.digest), "{confirmation}");
    }

    #[test]
    fn must_not_reproduce_guards_fixed_scenarios() {
        let clean = Repro {
            scenario: HeadlessSpec::quick(3),
            expect: Expectation::MustNotReproduce,
            digest: digest(&Verdict::default()),
            findings: vec![],
            note: "regression guard".into(),
        };
        clean.replay().expect("clean scenario stays clean");

        let still_failing = Repro {
            scenario: HeadlessSpec {
                inject_stale: 1,
                ..HeadlessSpec::quick(3)
            },
            expect: Expectation::MustNotReproduce,
            digest: digest(&Verdict::default()),
            findings: vec![],
            note: "not actually fixed".into(),
        };
        let err = still_failing.replay().unwrap_err();
        assert!(err.contains("failed again"), "{err}");
    }
}
