//! Versioned JSON serialization for [`FaultPlan`] — the portable half of
//! the repro format shared by `nscc-hunt` repros and hand-written
//! `NSCC_FAULT_PLAN=<path>` plans.
//!
//! The writer emits one canonical compact document (every section
//! present, keys in declaration order) so byte-identical plans serialize
//! byte-identically; the reader is strict — unknown keys, wrong types,
//! fractional nanosecond fields and unsupported schema versions are all
//! hard errors — but tolerates *omitted* optional sections so short
//! hand-written plans stay short. Integer fields are read as exact integer
//! tokens ([`crate::json::Field`]), so 64-bit seeds survive the round trip.

use std::fmt::Write as _;

use nscc_ckpt::json::{parse, Json};

use crate::json::Field;
use crate::{CrashSchedule, DegradedWindow, FaultPlan, LinkFaults, PartitionWindow, StallWindow};

/// Schema version stamped into (and demanded from) every plan document.
pub const PLAN_SCHEMA_VERSION: u64 = 1;

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

fn push_f64(out: &mut String, v: f64) {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        let _ = write!(out, "{}.0", v as i64);
    } else {
        let _ = write!(out, "{v:?}");
    }
}

fn push_link_faults(out: &mut String, f: &LinkFaults) {
    out.push_str("\"drop\":");
    push_f64(out, f.drop_prob);
    out.push_str(",\"dup\":");
    push_f64(out, f.dup_prob);
    out.push_str(",\"delay_prob\":");
    push_f64(out, f.delay_prob);
    let _ = write!(out, ",\"delay_max_ns\":{}", f.delay_max.as_nanos());
}

impl FaultPlan {
    /// Serialize the plan to its canonical compact JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"schema\":{PLAN_SCHEMA_VERSION},\"seed\":{},\"base\":{{",
            self.seed
        );
        push_link_faults(&mut out, &self.base);
        out.push_str("},\"links\":[");
        for (i, ((src, dst), f)) in self.links.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"src\":{src},\"dst\":{dst},");
            push_link_faults(&mut out, f);
            out.push('}');
        }
        out.push_str("],\"degraded\":[");
        for (i, w) in self.degraded.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"from_ns\":{},\"until_ns\":{},\"extra_drop\":",
                w.from.as_nanos(),
                w.until.as_nanos()
            );
            push_f64(&mut out, w.extra_drop);
            let _ = write!(out, ",\"extra_delay_ns\":{}}}", w.extra_delay.as_nanos());
        }
        out.push_str("],\"crashes\":[");
        for (i, c) in self.crashes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"node\":{},\"at_ns\":{}", c.node, c.at.as_nanos());
            match c.restart {
                Some(r) => {
                    let _ = write!(out, ",\"restart_ns\":{}", r.as_nanos());
                }
                None => out.push_str(",\"restart_ns\":null"),
            }
            out.push('}');
        }
        out.push_str("],\"stalls\":[");
        for (i, s) in self.stalls.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"node\":{},\"from_ns\":{},\"until_ns\":{}}}",
                s.node,
                s.from.as_nanos(),
                s.until.as_nanos()
            );
        }
        out.push_str("],\"partitions\":[");
        for (i, p) in self.partitions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"from_ns\":{},\"until_ns\":{},\"group\":[",
                p.from.as_nanos(),
                p.until.as_nanos()
            );
            for (j, n) in p.group.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{n}");
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Parse a plan from its JSON document. Strict: unsupported schema
    /// versions, unknown keys, wrong types and trailing garbage are all
    /// errors (callers honoring the NSCC_* convention exit 2 on `Err`).
    /// Optional sections (`base`, `links`, …) may be omitted entirely.
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        FaultPlan::from_value(&parse(text).map_err(|e| e.to_string())?)
    }

    /// Parse a plan from an already-parsed JSON value — the entry point
    /// for documents that embed a plan object (the hunt repro format).
    pub fn from_value(doc: &Json) -> Result<FaultPlan, String> {
        let obj = doc.obj("plan")?;
        let mut plan = FaultPlan::default();
        let mut saw_schema = false;
        let mut saw_seed = false;
        for (key, value) in obj {
            match &**key {
                "schema" => {
                    let v = value.u64("schema")?;
                    if v != PLAN_SCHEMA_VERSION {
                        return Err(format!(
                            "unsupported plan schema {v} (this build reads {PLAN_SCHEMA_VERSION})"
                        ));
                    }
                    saw_schema = true;
                }
                "seed" => {
                    plan.seed = value.u64("seed")?;
                    saw_seed = true;
                }
                "base" => plan.base = link_faults(value)?,
                "links" => {
                    for item in value.arr("links")? {
                        let o = item.obj("links entry")?;
                        let mut f = LinkFaults::default();
                        let mut src = None;
                        let mut dst = None;
                        for (k, v) in o {
                            match &**k {
                                "src" => src = Some(v.u32("src")?),
                                "dst" => dst = Some(v.u32("dst")?),
                                _ => apply_link_fault_key(&mut f, k, v)?,
                            }
                        }
                        let src = src.ok_or("links entry missing `src`")?;
                        let dst = dst.ok_or("links entry missing `dst`")?;
                        plan.links.push(((src, dst), f.clamp()));
                    }
                }
                "degraded" => plan
                    .degraded
                    .extend(entries(value, "degraded", degraded_key)?),
                "crashes" => plan.crashes.extend(entries(value, "crashes", crash_key)?),
                "stalls" => plan.stalls.extend(entries(value, "stalls", stall_key)?),
                "partitions" => {
                    plan.partitions
                        .extend(entries(value, "partitions", partition_key)?)
                }
                other => return Err(unknown_key("plan", other)),
            }
        }
        if !saw_schema {
            return Err("plan missing `schema`".into());
        }
        if !saw_seed {
            return Err("plan missing `seed`".into());
        }
        Ok(plan)
    }

    /// Read a plan from a JSON file (the `NSCC_FAULT_PLAN` loader).
    pub fn load(path: &std::path::Path) -> Result<FaultPlan, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        FaultPlan::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The objects of the `section` array, each read into a `T` that starts
/// at its default, one member at a time by `set`.
fn entries<T: Default>(
    value: &Json,
    section: &str,
    set: fn(&mut T, &str, &Json) -> Result<(), String>,
) -> Result<Vec<T>, String> {
    let mut out = Vec::new();
    for item in value.arr(section)? {
        let mut entry = T::default();
        let members = item.as_obj();
        for (k, v) in members.ok_or_else(|| format!("{section} entry must be an object"))? {
            set(&mut entry, k, v)?;
        }
        out.push(entry);
    }
    Ok(out)
}

fn degraded_key(w: &mut DegradedWindow, key: &str, v: &Json) -> Result<(), String> {
    match key {
        "from_ns" => w.from = v.time(key)?,
        "until_ns" => w.until = v.time(key)?,
        "extra_drop" => w.extra_drop = v.prob(key)?,
        "extra_delay_ns" => w.extra_delay = v.time(key)?,
        other => return Err(unknown_key("degraded", other)),
    }
    Ok(())
}

fn crash_key(c: &mut CrashSchedule, key: &str, v: &Json) -> Result<(), String> {
    match (key, v) {
        ("node", _) => c.node = v.u32(key)?,
        ("at_ns", _) => c.at = v.time(key)?,
        ("restart_ns", Json::Null) => c.restart = None,
        ("restart_ns", _) => c.restart = Some(v.time(key)?),
        (other, _) => return Err(unknown_key("crashes", other)),
    }
    Ok(())
}

fn stall_key(s: &mut StallWindow, key: &str, v: &Json) -> Result<(), String> {
    match key {
        "node" => s.node = v.u32(key)?,
        "from_ns" => s.from = v.time(key)?,
        "until_ns" => s.until = v.time(key)?,
        other => return Err(unknown_key("stalls", other)),
    }
    Ok(())
}

fn partition_key(p: &mut PartitionWindow, key: &str, v: &Json) -> Result<(), String> {
    match key {
        "from_ns" => p.from = v.time(key)?,
        "until_ns" => p.until = v.time(key)?,
        "group" => {
            for n in v.arr("group")? {
                p.group.push(n.u32("group member")?);
            }
        }
        other => return Err(unknown_key("partitions", other)),
    }
    Ok(())
}

fn link_faults(value: &Json) -> Result<LinkFaults, String> {
    let mut f = LinkFaults::default();
    for (k, v) in value.obj("link faults")? {
        apply_link_fault_key(&mut f, k, v)?;
    }
    Ok(f.clamp())
}

fn apply_link_fault_key(f: &mut LinkFaults, key: &str, v: &Json) -> Result<(), String> {
    match key {
        "drop" => f.drop_prob = v.prob(key)?,
        "dup" => f.dup_prob = v.prob(key)?,
        "delay_prob" => f.delay_prob = v.prob(key)?,
        "delay_max_ns" => f.delay_max = v.time(key)?,
        other => return Err(unknown_key("link faults", other)),
    }
    Ok(())
}

fn unknown_key(ctx: &str, key: &str) -> String {
    format!("unknown {ctx} key `{key}`")
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
            let ((s, d), _) = &self.links[i];
            return format!("link {s}->{d} override");
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
                    drop_prob: 1.0,
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
        ] {
            if why.contains("is fine") {
                assert!(FaultPlan::from_json(doc).is_ok(), "{why}: {doc}");
            } else {
                assert!(FaultPlan::from_json(doc).is_err(), "{why}: {doc}");
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
