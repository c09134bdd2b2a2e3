//! The fault plan's JSON document — the portable half of the repro
//! format shared by `nscc-hunt` repros and hand-written
//! `--fault-plan <path>` plans — and the shrinker's mutation hooks.
//!
//! The document is `#[derive(ToJson, FromJson)]` on [`FaultPlan`] and its
//! section types: one canonical compact form (every section present, keys
//! in declaration order), read strictly (unknown, repeated or missing
//! required keys, wrong types, fractional nanoseconds and other schema
//! versions are errors naming their JSON path) while omitted optional
//! sections stay allowed, so short hand-written plans stay short. The one
//! shape the derive does not express is a `links` entry, written here.

use std::fmt::Write as _;

use nscc_ckpt::json::{decode, DecodeError, FromJson, Json, Path, ToJson};

use crate::{FaultPlan, LinkFaults};

/// One `links` entry: a directed link's override, its ends beside its
/// fault keys in one flat object (`{"src":0,"dst":1,"drop":1.0,…}`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LinkOverride {
    pub(crate) src: u32,
    pub(crate) dst: u32,
    pub(crate) faults: LinkFaults,
}

impl ToJson for LinkOverride {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{{\"src\":{},\"dst\":{},", self.src, self.dst);
        // The faults' own object, its opening brace dropped.
        let brace = out.len();
        self.faults.write_json(out);
        out.remove(brace);
    }
}

/// The ends of a `links` entry, read apart from its fault keys.
#[derive(FromJson)]
struct Ends {
    src: u32,
    dst: u32,
}

impl FromJson for LinkOverride {
    fn read_json(value: &Json, at: Path<'_>) -> Result<Self, DecodeError> {
        let members = value
            .as_obj()
            .ok_or_else(|| at.error("must be an object"))?;
        let (ends, faults): (Vec<_>, Vec<_>) = members
            .iter()
            .cloned()
            .partition(|(key, _)| matches!(&**key, "src" | "dst"));
        let Ends { src, dst } = Ends::read_json(&Json::Obj(ends), at)?;
        let faults = LinkFaults::read_json(&Json::Obj(faults), at)?;
        Ok(LinkOverride { src, dst, faults })
    }
}

impl FaultPlan {
    /// Serialize the plan to its canonical compact JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        self.write_json(&mut out);
        out
    }

    /// Parse a plan from its JSON document. Strict: unsupported schema
    /// versions, unknown or repeated keys, wrong types and trailing
    /// garbage are all errors (callers exit 2 on `Err`). Optional sections (`base`, `links`, …) may be omitted
    /// entirely.
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        decode(text)
    }

    /// Read a plan from a JSON file (the `--fault-plan` loader).
    pub fn load(path: &std::path::Path) -> Result<FaultPlan, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        FaultPlan::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

// ---------------------------------------------------------------------
// Mutation hooks (the shrinker's substrate)
// ---------------------------------------------------------------------

impl FaultPlan {
    /// The same plan under a different seed (reseeding a shrunk plan
    /// must not resurrect removed events, so the seed is orthogonal).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The number of removable events the shrinker can enumerate: the
    /// base link faults (when non-noop), then every link override,
    /// degradation window, crash, stall and partition, in that order.
    pub fn events(&self) -> usize {
        usize::from(!self.base.is_noop())
            + self.links.len()
            + self.degraded.len()
            + self.crashes.len()
            + self.stalls.len()
            + self.partitions.len()
    }

    /// One human label per removable event (shrink logs), indexed like
    /// [`without_event`](FaultPlan::without_event).
    pub fn event_label(&self, idx: usize) -> String {
        let mut i = idx;
        if !self.base.is_noop() {
            if i == 0 {
                return format!(
                    "base loss={} dup={} delay={}",
                    self.base.drop_prob, self.base.dup_prob, self.base.delay_prob
                );
            }
            i -= 1;
        }
        if i < self.links.len() {
            let l = &self.links[i];
            return format!("link {}->{} override", l.src, l.dst);
        }
        i -= self.links.len();
        if i < self.degraded.len() {
            let w = &self.degraded[i];
            return format!("degraded window [{}, {})", w.from, w.until);
        }
        i -= self.degraded.len();
        if i < self.crashes.len() {
            let c = &self.crashes[i];
            return match c.restart {
                Some(r) => format!("crash node {} at {} restart {}", c.node, c.at, r),
                None => format!("crash node {} at {}", c.node, c.at),
            };
        }
        i -= self.crashes.len();
        if i < self.stalls.len() {
            let s = &self.stalls[i];
            return format!("stall node {} [{}, {})", s.node, s.from, s.until);
        }
        i -= self.stalls.len();
        if i < self.partitions.len() {
            let p = &self.partitions[i];
            return format!("partition {:?} [{}, {})", p.group, p.from, p.until);
        }
        format!("event #{idx} (out of range)")
    }

    /// The plan with removable event `idx` deleted, or `None` when `idx`
    /// is out of range. Event order matches [`events`](FaultPlan::events).
    pub fn without_event(&self, idx: usize) -> Option<FaultPlan> {
        if idx >= self.events() {
            return None;
        }
        let mut plan = self.clone();
        let mut i = idx;
        if !self.base.is_noop() {
            if i == 0 {
                plan.base = LinkFaults::default();
                return Some(plan);
            }
            i -= 1;
        }
        if i < plan.links.len() {
            plan.links.remove(i);
            return Some(plan);
        }
        i -= plan.links.len();
        if i < plan.degraded.len() {
            plan.degraded.remove(i);
            return Some(plan);
        }
        i -= plan.degraded.len();
        if i < plan.crashes.len() {
            plan.crashes.remove(i);
            return Some(plan);
        }
        i -= plan.crashes.len();
        if i < plan.stalls.len() {
            plan.stalls.remove(i);
            return Some(plan);
        }
        i -= plan.stalls.len();
        plan.partitions.remove(i);
        Some(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prob;
    use nscc_sim::SimTime;

    fn rich_plan() -> FaultPlan {
        FaultPlan::new(u64::MAX - 3)
            .loss(0.01)
            .duplication(0.002)
            .delay(0.05, SimTime::from_millis(5))
            .link(
                0,
                1,
                LinkFaults {
                    drop_prob: Prob::new(1.0),
                    ..LinkFaults::default()
                },
            )
            .degrade(
                SimTime::from_secs(1),
                SimTime::from_secs(2),
                0.5,
                SimTime::from_millis(50),
            )
            .crash(2, SimTime::from_secs(10))
            .crash_and_restart(1, SimTime::from_secs(3), SimTime::from_secs(4))
            .stall(3, SimTime::ZERO, SimTime::from_secs(1))
            .partition(SimTime::from_secs(5), SimTime::from_secs(6), [0, 1])
    }

    #[test]
    fn round_trip_preserves_the_plan_exactly() {
        let plan = rich_plan();
        let text = plan.to_json();
        let back = FaultPlan::from_json(&text).unwrap();
        assert_eq!(back, plan);
        // Canonical form: serializing again is byte-identical.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn seeds_above_2_pow_53_survive() {
        for seed in [(1 << 53) + 1, u64::MAX - 1, u64::MAX] {
            let plan = FaultPlan::new(seed).loss(0.1);
            let back = FaultPlan::from_json(&plan.to_json()).unwrap();
            assert_eq!(back.seed(), seed);
        }
        let doc = r#"{"schema":1,"seed":18446744073709551615}"#;
        assert_eq!(FaultPlan::from_json(doc).unwrap().seed(), u64::MAX);
    }

    #[test]
    fn empty_plan_round_trips() {
        let plan = FaultPlan::new(7);
        let back = FaultPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(back, plan);
        assert!(back.is_noop());
    }

    #[test]
    fn omitted_sections_default_empty() {
        let plan = FaultPlan::from_json(r#"{"schema":1,"seed":9}"#).unwrap();
        assert_eq!(plan.seed(), 9);
        assert!(plan.is_noop());
        let plan = FaultPlan::from_json(r#"{"schema":1,"seed":9,"base":{"drop":0.25}}"#).unwrap();
        assert_eq!(plan, FaultPlan::new(9).loss(0.25));
    }

    #[test]
    fn strict_parser_rejects_bad_documents() {
        for (doc, why) in [
            ("", "empty"),
            ("{", "truncated"),
            (r#"{"seed":1}"#, "missing schema"),
            (r#"{"schema":1}"#, "missing seed"),
            (r#"{"schema":2,"seed":1}"#, "future schema"),
            (r#"{"schema":1,"seed":-1}"#, "negative seed"),
            (r#"{"schema":1,"seed":1.0}"#, "fractional seed"),
            (r#"{"schema":1,"seed":1e3}"#, "exponent seed"),
            (
                r#"{"schema":1,"seed":18446744073709551616}"#,
                "seed above u64::MAX",
            ),
            (r#"{"schema":1.0,"seed":1}"#, "fractional schema"),
            (r#"{"schema":1,"seed":1,"bogus":0}"#, "unknown key"),
            (r#"{"schema":1,"seed":1,"base":{"drop":1.5}}"#, "prob > 1"),
            (r#"{"schema":1,"seed":1,"base":{"dorp":0.1}}"#, "typo key"),
            (
                r#"{"schema":1,"seed":1,"crashes":[{"at_ns":5}]}"#,
                "crash missing node is fine, node defaults",
            ),
            (r#"{"schema":1,"seed":1} trailing"#, "trailing garbage"),
            (
                r#"{"schema":1,"seed":1,"stalls":[{"node":0,"from_ns":1.5,"until_ns":2}]}"#,
                "fractional ns",
            ),
            (r#"{"schema":1,"seed":1,"seed":2}"#, "repeated key"),
            (
                r#"{"schema":1,"seed":1,"links":[{"src":0,"dst":1},{"src":0,"dst":1,"drop":1.5}]}"#,
                "error names its path",
            ),
        ] {
            if why.contains("is fine") {
                assert!(FaultPlan::from_json(doc).is_ok(), "{why}: {doc}");
            } else {
                assert!(FaultPlan::from_json(doc).is_err(), "{why}: {doc}");
            }
        }
        for (doc, err) in [
            (
                r#"{"schema":1,"seed":1,"links":[{"src":0,"dst":1},{"src":0,"dst":1,"drop":1.5}]}"#,
                "$.links[1].drop: must be a probability in [0, 1] (got 1.5)",
            ),
            (r#"{"schema":1,"seed":1,"seed":2}"#, "$.seed: repeated key"),
            (
                r#"{"schema":2,"seed":1}"#,
                "$.schema: unsupported schema 2 (this build reads 1)",
            ),
            (
                r#"{"schema":1,"seed":1,"links":[{"dst":1}]}"#,
                "$.links[0]: missing key `src`",
            ),
            (
                r#"{"schema":1,"seed":1,"crashes":[{"node":0,"at":5}]}"#,
                "$.crashes[0].at: unknown key",
            ),
        ] {
            assert_eq!(FaultPlan::from_json(doc).unwrap_err(), err, "{doc}");
        }
    }

    #[test]
    fn links_entries_read_their_keys_in_any_order() {
        let doc = r#"{"schema":1,"seed":1,"links":[{"drop":0.5,"dst":2,"src":1}]}"#;
        let want = FaultPlan::new(1).link(
            1,
            2,
            LinkFaults {
                drop_prob: Prob::new(0.5),
                ..LinkFaults::default()
            },
        );
        assert_eq!(FaultPlan::from_json(doc).unwrap(), want);
        let doc = r#"{"schema":1,"seed":1,"links":[{"src":1,"dst":2,"src":1}]}"#;
        assert_eq!(
            FaultPlan::from_json(doc).unwrap_err(),
            "$.links[0].src: repeated key"
        );
    }

    /// Every truncation and a one-byte substitution at every offset of a
    /// full plan reads as `Ok` or `Err`, never a panic, and what reads as
    /// `Ok` writes back to a document that reads the same.
    #[test]
    fn mangled_plans_read_or_fail_cleanly() {
        let text = rich_plan().to_json();
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
            let doc = String::from_utf8(mutant).unwrap();
            if let Ok(plan) = FaultPlan::from_json(&doc) {
                assert_eq!(FaultPlan::from_json(&plan.to_json()), Ok(plan), "{doc}");
            }
        }
    }

    #[test]
    fn event_enumeration_covers_every_section() {
        let plan = rich_plan();
        // base + 1 link + 1 degraded + 2 crashes + 1 stall + 1 partition.
        assert_eq!(plan.events(), 7);
        for i in 0..plan.events() {
            let shrunk = plan.without_event(i).unwrap();
            assert_eq!(shrunk.events(), plan.events() - 1, "event {i}");
            assert_ne!(shrunk, plan);
            assert!(!plan.event_label(i).contains("out of range"));
        }
        assert!(plan.without_event(plan.events()).is_none());
    }

    #[test]
    fn removing_every_event_yields_a_noop_plan() {
        let mut plan = rich_plan();
        while plan.events() > 0 {
            plan = plan.without_event(0).unwrap();
        }
        assert!(plan.is_noop());
        assert_eq!(plan.seed(), rich_plan().seed(), "seed is not an event");
    }

    #[test]
    fn with_seed_changes_only_the_seed() {
        let plan = rich_plan();
        let reseeded = plan.clone().with_seed(123);
        assert_eq!(reseeded.seed(), 123);
        assert_eq!(reseeded.events(), plan.events());
        assert_eq!(reseeded.crashes(), plan.crashes());
    }

    #[test]
    fn load_reports_the_path_on_malformed_files() {
        let dir = std::env::temp_dir().join(format!("nscc-plan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.json");
        std::fs::write(&good, rich_plan().to_json()).unwrap();
        assert_eq!(FaultPlan::load(&good).unwrap(), rich_plan());
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{not json").unwrap();
        let err = FaultPlan::load(&bad).unwrap_err();
        assert!(err.contains("bad.json"), "{err}");
        let missing = FaultPlan::load(&dir.join("absent.json")).unwrap_err();
        assert!(missing.contains("absent.json"), "{missing}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
