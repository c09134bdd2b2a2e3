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
//! The document is `#[derive(ToJson, FromJson)]` on [`Repro`], its
//! [`HeadlessSpec`] scenario and the embedded [`FaultPlan`]'s own
//! versioned form, read strictly by the workspace's one JSON reader
//! ([`nscc_ckpt::json`]); every error names its JSON path.
//!
//! [`FaultPlan`]: nscc_core::FaultPlan

use std::fmt::Write as _;

use nscc_bench::headless::{run_headless, HeadlessSpec};
use nscc_ckpt::json::{decode, DecodeError, FromJson, Json, Path, Schema, ToJson};
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

/// Written as its status string.
impl ToJson for Expectation {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl FromJson for Expectation {
    fn read_json(value: &Json, at: Path<'_>) -> Result<Self, DecodeError> {
        match value.as_str().ok_or_else(|| at.error("must be a string"))? {
            "must-reproduce" => Ok(Expectation::MustReproduce),
            "must-not-reproduce" => Ok(Expectation::MustNotReproduce),
            other => Err(at.error(format!(
                "unknown expect status {other:?} (expected must-reproduce or must-not-reproduce)"
            ))),
        }
    }
}

/// One committed repro: scenario + expectation + recorded evidence.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct Repro {
    schema: Schema<REPRO_SCHEMA_VERSION>,
    /// Free-form provenance (which hunt, which trial, what it shows).
    #[json(default)]
    pub note: String,
    /// The complete trial configuration.
    pub scenario: HeadlessSpec,
    /// What replay must observe, and the evidence it is checked against.
    pub expect: Expected,
}

/// A repro's `expect` object: the replay polarity and the recorded
/// findings.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct Expected {
    /// Replay polarity.
    pub status: Expectation,
    /// FNV digest over the recorded findings (empty-verdict digest for
    /// `must-not-reproduce`).
    pub digest: String,
    /// The recorded findings, for humans and diffs; replay re-derives
    /// them and trusts only the digest.
    #[json(default)]
    pub findings: Vec<String>,
}

impl Repro {
    /// Package a failing scenario and its verdict as a `must-reproduce`
    /// repro.
    pub fn from_finding(scenario: HeadlessSpec, verdict: &Verdict, note: &str) -> Repro {
        Repro {
            schema: Schema,
            note: note.to_string(),
            scenario,
            expect: Expected {
                status: Expectation::MustReproduce,
                digest: digest(verdict),
                findings: verdict.lines(),
            },
        }
    }

    /// Re-run the scenario and check the expectation. `Ok` carries a
    /// one-line confirmation; `Err` explains the divergence.
    pub fn replay(&self) -> Result<String, String> {
        let verdict = judge(&self.scenario, &run_headless(&self.scenario));
        let fresh = digest(&verdict);
        let expect = &self.expect;
        match expect.status {
            Expectation::MustReproduce => {
                if fresh == expect.digest {
                    Ok(format!(
                        "reproduced: {} finding(s), digest {}",
                        verdict.findings.len(),
                        fresh
                    ))
                } else {
                    let mut msg = format!(
                        "findings diverged: recorded digest {} ({} finding(s)), replay got {} ({}):",
                        expect.digest,
                        expect.findings.len(),
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
        self.write_json(&mut out);
        out.push('\n');
        out
    }

    /// Strict parse of a repro document (callers treat `Err` as a hard
    /// error and exit 2), then the
    /// checks a scenario must pass to run at all.
    pub fn from_json(text: &str) -> Result<Repro, String> {
        let repro: Repro = decode(text)?;
        let s = &repro.scenario;
        if s.procs < 2 {
            return Err(format!("scenario needs at least 2 procs (got {})", s.procs));
        }
        if s.runs == 0 {
            return Err("scenario needs at least 1 run".into());
        }
        if s.watchdog == SimTime::ZERO {
            return Err("scenario watchdog_ns must be positive (a fuzzer must never hang)".into());
        }
        Ok(repro)
    }

    /// Read a repro from a file, prefixing errors with the path.
    pub fn load(path: &std::path::Path) -> Result<Repro, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Repro::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Finding;
    use crate::{generate, Envelope};
    use nscc_ckpt::json::parse;
    use nscc_core::FaultPlan;
    use rand::Rng;

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
        assert_eq!(back, repro);
        assert_eq!(back.expect.status, Expectation::MustReproduce);
        assert_eq!(back.scenario.seed, u64::MAX - 1, "u64 seeds survive");
    }

    #[test]
    fn generated_scenarios_round_trip_exactly() {
        let env = Envelope::default();
        rand::for_each_case(64, |rng| {
            let spec = generate(rng.gen(), rng.gen_range(0..1_000), &env);
            let verdict = Verdict {
                findings: vec![Finding {
                    kind: "fault".into(),
                    detail: format!("case {}", rng.gen::<u32>()),
                }],
            };
            let repro = Repro::from_finding(spec, &verdict, "property");
            let text = repro.to_json();
            let back = Repro::from_json(&text).unwrap();
            assert_eq!(back, repro);
            assert_eq!(back.to_json(), text);
        });
    }

    /// The committed repros, as text.
    fn committed() -> Vec<(std::path::PathBuf, String)> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../repros");
        let mut out: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
            .map(|path| {
                let text = std::fs::read_to_string(&path).unwrap();
                (path, text)
            })
            .collect();
        out.sort();
        out
    }

    /// Every truncation and a one-byte substitution at every offset of
    /// each committed repro reads as `Ok` or `Err`, never a panic, and
    /// what reads as `Ok` writes back to a document that reads the same.
    #[test]
    fn mangled_repros_read_or_fail_cleanly() {
        for (path, text) in committed() {
            let bytes = text.as_bytes();
            let truncations = (0..bytes.len()).map(|n| bytes[..n].to_vec());
            let substitutions = (0..bytes.len()).flat_map(|i| {
                br#"0-.e\"}],x"#.iter().map(move |&b| {
                    let mut v = bytes.to_vec();
                    v[i] = b;
                    v
                })
            });
            for mutant in truncations.chain(substitutions) {
                let Ok(doc) = String::from_utf8(mutant) else {
                    continue;
                };
                if let Ok(repro) = Repro::from_json(&doc) {
                    let again = repro.to_json();
                    assert_eq!(Repro::from_json(&again), Ok(repro), "{}", path.display());
                }
            }
        }
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
        let mut seen = 0;
        for (path, text) in committed() {
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
            ("\"procs\":4", "\"procs\":4,\"procs\":4"),
            ("\"drop\":0.01", "\"drop\":1.5"),
        ] {
            let bad = good.replace(mutate, why);
            assert_ne!(bad, good, "mutation applied: {mutate}");
            assert!(Repro::from_json(&bad).is_err(), "{mutate} -> {why}");
        }
        assert!(Repro::from_json("{}").is_err(), "missing everything");
        assert!(Repro::from_json("not json").is_err());
        let bad = good.replace("\"drop\":0.01", "\"drop\":1.5");
        assert_eq!(
            Repro::from_json(&bad).unwrap_err(),
            "$.scenario.plan.base.drop: must be a probability in [0, 1] (got 1.5)"
        );
        let bad = good.replace("\"procs\":4", "\"procs\":4,\"procs\":4");
        assert_eq!(
            Repro::from_json(&bad).unwrap_err(),
            "$.scenario.procs: repeated key"
        );
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
        assert!(
            confirmation.contains(&repro.expect.digest),
            "{confirmation}"
        );
    }

    #[test]
    fn must_not_reproduce_guards_fixed_scenarios() {
        let guard = |scenario, note: &str| Repro {
            schema: Schema,
            note: note.into(),
            scenario,
            expect: Expected {
                status: Expectation::MustNotReproduce,
                digest: digest(&Verdict::default()),
                findings: vec![],
            },
        };
        let clean = guard(HeadlessSpec::quick(3), "regression guard");
        clean.replay().expect("clean scenario stays clean");

        let still_failing = guard(
            HeadlessSpec {
                inject_stale: 1,
                ..HeadlessSpec::quick(3)
            },
            "not actually fixed",
        );
        let err = still_failing.replay().unwrap_err();
        assert!(err.contains("failed again"), "{err}");
    }
}
