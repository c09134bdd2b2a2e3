//! Loading and flattening of `BENCH_*.json` run reports and
//! `TRACE_*.json` event dumps.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::json::{parse_with_events, EventLog, Json};

/// The newest export schema this analyzer understands. Must track
/// `nscc_obs::SCHEMA_VERSION` (the analyzer is dependency-free by design,
/// so the constant is mirrored here; `tests/observability.rs` in the
/// workspace root pins the two together). Every version since
/// [`MIN_SCHEMA_VERSION`] is additive, so older documents load too — a
/// v2 report simply has no heatmap/dependency/profile sections, a v3 one
/// no `wall` scheduler-accounting section, a v4 one no `audit`
/// coherence-auditor section, a v5 one no `recovery`
/// snapshot/supervision section, a v6 one no `staleness`
/// anatomy section.
pub const SCHEMA_VERSION: u64 = 7;

/// The oldest export schema this analyzer still reads.
pub const MIN_SCHEMA_VERSION: u64 = 1;

/// Every top-level key this analyzer's subcommands know how to render,
/// across run reports, event dumps and flight dumps. Used by the lenient
/// loaders ([`Report::load_lenient`]) to tell the user which sections of
/// a newer-schema document they are skipping, instead of refusing the
/// file outright.
pub const KNOWN_SECTIONS: &[&str] = &[
    // Run reports.
    "schema_version",
    "name",
    "params",
    "metrics",
    "dsm",
    "net",
    "comm",
    "fault_reports",
    "degraded",
    "obs",
    "recovery",
    "wall",
    "audit",
    "staleness",
    // Event dumps.
    "proc_names",
    "events_dropped",
    "spans_dropped",
    "events",
    "spans",
    // Flight dumps.
    "kind",
    "bench",
    "seed",
    "reason",
    "capacity",
    "violations",
];

/// A loaded, schema-checked JSON artifact (run report or event dump).
#[derive(Debug, Clone)]
pub struct Report {
    /// Where it was loaded from.
    pub path: PathBuf,
    /// The parsed document, less the `events` array that went into
    /// [`events`](Report::events).
    pub root: Json,
    /// The document's `events` array, when its first top-level `events`
    /// member is one (event and flight dumps), decoded in the load pass.
    pub events: Option<EventLog>,
}

impl Report {
    /// Load and schema-check one artifact. Accepts any version in
    /// `MIN_SCHEMA_VERSION..=SCHEMA_VERSION` (schema growth is additive;
    /// sections an old writer never emitted simply render empty) and
    /// refuses anything newer or unstamped — guessing at missing or
    /// renamed keys produces silently wrong analyses, so those are hard,
    /// explained errors.
    pub fn load(path: impl AsRef<Path>) -> Result<Report, String> {
        Report::load_checked(path.as_ref(), |v| {
            if (MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&v) {
                return Ok(());
            }
            Err(format!(
                "schema version {v} but this nscc-analyze understands only \
                 versions {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION}; re-run the \
                 benchmark with a matching toolchain or upgrade nscc-analyze"
            ))
        })
    }

    /// Like [`load`](Report::load), but *forward-compatible*: a document
    /// stamped with a schema **newer** than [`SCHEMA_VERSION`] loads
    /// anyway. Read-only renderers (`nscc inspect`, `nscc diff`) use this
    /// — every schema bump so far has been additive, so the sections this
    /// analyzer knows still render correctly and the caller surfaces the
    /// ones it doesn't via [`unknown_sections`](Report::unknown_sections)
    /// as a one-line note instead of a hard exit. Enforcement paths
    /// (`nscc gate`) stay on the strict loader: silently half-comparing a
    /// newer report could pass a regression.
    pub fn load_lenient(path: impl AsRef<Path>) -> Result<Report, String> {
        Report::load_checked(path.as_ref(), |v| {
            if v >= MIN_SCHEMA_VERSION {
                return Ok(());
            }
            Err(format!(
                "schema version {v} predates the oldest supported export \
                 ({MIN_SCHEMA_VERSION})"
            ))
        })
    }

    /// Read and parse `path`, then hand its stamped `schema_version` to
    /// `accept`, which says why a version it refuses is refused.
    fn load_checked(
        path: &Path,
        accept: impl FnOnce(u64) -> Result<(), String>,
    ) -> Result<Report, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
        let (root, events) =
            parse_with_events(text.trim()).map_err(|e| format!("{}: {e}", path.display()))?;
        match root.get("schema_version").and_then(Json::as_u64) {
            Some(v) => accept(v).map_err(|why| format!("{}: {why}", path.display()))?,
            None => {
                return Err(format!(
                    "{}: no schema_version field — not an NSCC run report or event \
                     dump (or one predating schema stamping)",
                    path.display()
                ))
            }
        }
        Ok(Report {
            path: path.to_path_buf(),
            root,
            events,
        })
    }

    /// Top-level keys this analyzer has no renderer for, in document
    /// order. Non-empty only for documents written by a newer schema than
    /// [`SCHEMA_VERSION`] (or hand-edited ones); callers print them as a
    /// one-line "skipping sections …" note.
    pub fn unknown_sections(&self) -> Vec<String> {
        let Some(members) = self.root.as_obj() else {
            return Vec::new();
        };
        members
            .iter()
            .filter(|(k, _)| !KNOWN_SECTIONS.contains(&&**k))
            .map(|(k, _)| k.to_string())
            .collect()
    }

    /// The document's stamped `schema_version` (validated by
    /// [`load`](Report::load), so always within the accepted range).
    pub fn schema_version(&self) -> u64 {
        self.root
            .get("schema_version")
            .and_then(Json::as_u64)
            .unwrap_or(SCHEMA_VERSION)
    }

    /// The report's `name` field, or the file stem as a fallback.
    pub fn name(&self) -> String {
        self.root
            .get("name")
            .and_then(Json::as_str)
            .map(str::to_string)
            .unwrap_or_else(|| {
                self.path
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_default()
            })
    }

    /// True when the artifact is a raw event dump (`TRACE_*.json`) rather
    /// than a run report.
    pub fn is_event_dump(&self) -> bool {
        (self.events.is_some() || self.root.get("events").is_some())
            && self.root.get("metrics").is_none()
    }

    /// One top-level object as a string → number map (empty when absent).
    pub fn numeric_map(&self, key: &str) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        if let Some(members) = self.root.get(key).and_then(Json::as_obj) {
            for (k, v) in members {
                if let Some(n) = v.as_f64() {
                    out.insert(k.to_string(), n);
                }
            }
        }
        out
    }

    /// Every numeric scalar in the report as a dotted-path map:
    /// `metrics.p4_age=5`, `dsm.blocked_reads`, `obs.staleness.p99`, ….
    /// Arrays (bucket lists, snapshot series, raw streams) are skipped —
    /// their lengths are run-shape, not performance, and the gate compares
    /// scalars.
    pub fn flatten(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        flatten_into(&self.root, String::new(), &mut out);
        out
    }
}

fn flatten_into(v: &Json, prefix: String, out: &mut BTreeMap<String, f64>) {
    match v {
        Json::Num(n) => {
            out.insert(prefix, n.as_f64());
        }
        Json::Obj(members) => {
            for (k, v) in members {
                let path = if prefix.is_empty() {
                    k.to_string()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten_into(v, path, out);
            }
        }
        _ => {}
    }
}

/// `doc` as [`Report::load`] would parse it, without a file or a schema
/// check.
#[cfg(test)]
pub(crate) fn from_text(path: &str, doc: &str) -> Report {
    let (root, events) = parse_with_events(doc).unwrap();
    Report {
        path: PathBuf::from(path),
        root,
        events,
    }
}

/// Write `body` to a fresh temp file for a test. The path is unique per
/// call: tests run on parallel threads, share fixtures, and each deletes
/// its file when done.
#[cfg(test)]
pub(crate) fn write_temp(name: &str, body: &str) -> PathBuf {
    static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("nscc_analyze_{}_{n}_{name}", std::process::id()));
    std::fs::write(&path, body).unwrap();
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_and_flattens_a_report() {
        let path = write_temp(
            "ok.json",
            r#"{"schema_version":2,"name":"unit","params":{"runs":3},
                "metrics":{"speedup":2.5},"obs":{"reads":7,"staleness":
                {"count":1,"sum":2,"min":2,"max":2,"mean":2.0,"p50":2,
                 "p99":2,"buckets":[[3,1]]}}}"#,
        );
        let rep = Report::load(&path).unwrap();
        assert_eq!(rep.name(), "unit");
        assert!(!rep.is_event_dump());
        assert_eq!(rep.numeric_map("metrics")["speedup"], 2.5);
        let flat = rep.flatten();
        assert_eq!(flat["metrics.speedup"], 2.5);
        assert_eq!(flat["obs.staleness.p99"], 2.0);
        assert_eq!(flat["obs.reads"], 7.0);
        assert!(!flat.keys().any(|k| k.contains("buckets")));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn accepts_older_schemas_refuses_newer_or_missing() {
        // Older documents predate newer sections (causal attribution,
        // wall accounting) but remain loadable (the schema grows
        // additively).
        for v in 1..=7u64 {
            let p = write_temp(
                &format!("v{v}.json"),
                &format!(r#"{{"schema_version":{v},"name":"x"}}"#),
            );
            let rep = Report::load(&p).unwrap_or_else(|e| panic!("v{v}: {e}"));
            assert_eq!(rep.schema_version(), v);
            std::fs::remove_file(p).ok();
        }
        let newer = write_temp("v8.json", r#"{"schema_version":8,"name":"x"}"#);
        let err = Report::load(&newer).unwrap_err();
        assert!(err.contains("schema version 8"), "{err}");
        assert!(err.contains("1..=7"), "{err}");
        let none = write_temp("none.json", r#"{"name":"x"}"#);
        let err = Report::load(&none).unwrap_err();
        assert!(err.contains("no schema_version"), "{err}");
        std::fs::remove_file(newer).ok();
        std::fs::remove_file(none).ok();
    }

    #[test]
    fn lenient_load_accepts_newer_schemas_and_names_unknown_sections() {
        // A future writer stamps v99 and adds a section this analyzer
        // has never heard of: the lenient loader still reads the file and
        // reports exactly the foreign keys, so read-only commands can
        // render what they know and note what they skipped.
        let p = write_temp(
            "future.json",
            r#"{"schema_version":99,"name":"x","metrics":{"m":1.0},
                "hologram":{"qubits":3},"metrics2":[]}"#,
        );
        let err = Report::load(&p).unwrap_err();
        assert!(err.contains("schema version 99"), "{err}");
        let rep = Report::load_lenient(&p).expect("lenient load succeeds");
        assert_eq!(rep.schema_version(), 99);
        assert_eq!(rep.unknown_sections(), vec!["hologram", "metrics2"]);
        std::fs::remove_file(p).ok();

        // Current-schema documents have no unknown sections, and garbage
        // is still refused.
        let ok = write_temp("now.json", r#"{"schema_version":7,"name":"x"}"#);
        assert!(Report::load_lenient(&ok)
            .unwrap()
            .unknown_sections()
            .is_empty());
        std::fs::remove_file(ok).ok();
        let none = write_temp("lenient_none.json", r#"{"name":"x"}"#);
        assert!(Report::load_lenient(&none)
            .unwrap_err()
            .contains("no schema_version"));
        std::fs::remove_file(none).ok();
    }

    #[test]
    fn detects_event_dumps() {
        let path = write_temp(
            "dump.json",
            r#"{"schema_version":2,"proc_names":{},"events_dropped":0,
                "spans_dropped":0,"events":[],"spans":[]}"#,
        );
        assert!(Report::load(&path).unwrap().is_event_dump());
        std::fs::remove_file(path).ok();
    }
}
