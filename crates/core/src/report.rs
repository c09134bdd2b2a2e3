//! Machine-readable run reports.
//!
//! A [`RunReport`] merges everything one experiment run (or sweep)
//! produced — experiment parameters, headline metrics, aggregate
//! [`DsmStats`], [`NetStats`] and [`CommStats`], and the observability
//! hub's [`HubSummary`] (histograms, warp distribution, event counters) —
//! into one serializable document. The bench binaries write it as
//! `BENCH_<name>.json` next to the working directory when `NSCC_JSON=1`
//! (or `--json`) is set, so sweeps can be diffed and plotted without
//! scraping stdout tables.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

use nscc_ckpt::json::{self, ToJson};
use nscc_dsm::DsmStats;
use nscc_msg::CommStats;
use nscc_net::NetStats;
use nscc_obs::{Hub, HubSummary};

/// One run's merged, serializable record.
#[derive(Debug, Clone, ToJson)]
pub struct RunReport {
    /// Export schema version ([`nscc_obs::SCHEMA_VERSION`]); consumers
    /// refuse mismatched files instead of guessing at missing keys.
    pub schema_version: u32,
    /// Report name (`BENCH_<name>.json`).
    pub name: String,
    /// Experiment parameters (procs, generations, ages, …).
    pub params: BTreeMap<String, f64>,
    /// Headline metrics (speedups, times in seconds, success rates, …).
    pub metrics: BTreeMap<String, f64>,
    /// Aggregate DSM counters over every run in the cell/sweep.
    pub dsm: DsmStats,
    /// Aggregate network counters, when a network was involved.
    pub net: Option<NetStats>,
    /// Message-layer counters, when available.
    pub comm: Option<CommStats>,
    /// Parallel runs the watchdog (or deadlock detector) cut short under
    /// fault injection.
    pub fault_reports: u64,
    /// `true` when any graceful-degradation path fired during the run —
    /// reads timing out onto cached values, peers suspected dead, frames
    /// abandoned after retries, or watchdog-cut runs. Recomputed by
    /// [`note_degradation`](RunReport::note_degradation); a fault-free
    /// run stays `false` byte-for-byte.
    pub degraded: bool,
    /// The observability hub's summary: staleness/block/delay histograms,
    /// warp distribution, event and drop counters.
    pub obs: HubSummary,
    /// What the consistent-snapshot protocol and the supervision layer
    /// did ([`nscc_ga::RecoverySummary`]): marker waves, completed cuts,
    /// cut-served restores, approved restarts and give-ups. Populated only
    /// when either subsystem was enabled and serialized as `null`
    /// otherwise — snapshot-on runs stay byte-identical to snapshot-off
    /// runs outside this one section.
    pub recovery: Option<nscc_ga::RecoverySummary>,
    /// Wall-clock scheduler self-accounting ([`nscc_obs::SchedSummary`]):
    /// events/sec throughput, park/unpark counts, per-process executing
    /// vs. parked time. Real host-clock numbers, so nondeterministic —
    /// populated only on explicit request (`NSCC_WALL=1`) and serialized
    /// as `null` otherwise, keeping same-seed reports byte-identical.
    pub wall: Option<nscc_obs::SchedSummary>,
    /// The online coherence auditor's findings
    /// ([`nscc_audit::AuditSummary`]): per-monitor checked/violation
    /// counts plus the first recorded violations. Populated only when the
    /// auditor ran (`NSCC_AUDIT=1`) and serialized as `null` otherwise —
    /// monitors-on runs stay byte-identical to monitors-off runs outside
    /// this one section.
    pub audit: Option<nscc_audit::AuditSummary>,
    /// The staleness tracer's per-hop anatomy
    /// ([`nscc_obs::StalenessSummary`]): observed-age and per-stage log₂
    /// histograms (wait/publish/transit/fault/retrans/queue/apply), broken
    /// down by location and by writer→reader link, plus conservation
    /// counters and Perfetto flow bookkeeping. Populated only when the
    /// tracer was armed (`NSCC_STALENESS=1`) and serialized as `null`
    /// otherwise — tracer-on runs stay byte-identical to tracer-off runs
    /// outside this one section.
    pub staleness: Option<nscc_obs::StalenessSummary>,
}

impl RunReport {
    /// Start a report from a hub's current summary. Layer stats and
    /// metrics are filled in afterwards.
    pub fn new(name: impl Into<String>, hub: &Hub) -> Self {
        RunReport {
            schema_version: nscc_obs::SCHEMA_VERSION,
            name: name.into(),
            params: BTreeMap::new(),
            metrics: BTreeMap::new(),
            dsm: DsmStats::default(),
            net: None,
            comm: None,
            fault_reports: 0,
            degraded: false,
            obs: hub.summary(),
            recovery: None,
            wall: None,
            audit: None,
            staleness: None,
        }
    }

    /// Recompute the [`degraded`](RunReport::degraded) marker from the
    /// merged stats. Call after filling `dsm`/`comm`/`fault_reports`/
    /// `recovery`.
    pub fn note_degradation(&mut self) -> &mut Self {
        let give_ups = self.comm.map_or(0, |c| c.give_ups);
        let retired = self.recovery.as_ref().map_or(0, |r| r.give_ups);
        self.degraded = self.fault_reports > 0
            || give_ups > 0
            || retired > 0
            || self.dsm.degraded_reads > 0
            || self.dsm.suspected_writers > 0
            || self.dsm.barrier_timeouts > 0;
        self
    }

    /// Record an experiment parameter.
    pub fn param(&mut self, key: impl Into<String>, value: f64) -> &mut Self {
        self.params.insert(key.into(), value);
        self
    }

    /// Record a headline metric.
    pub fn metric(&mut self, key: impl Into<String>, value: f64) -> &mut Self {
        self.metrics.insert(key.into(), value);
        self
    }

    /// The canonical file name, `BENCH_<name>.json`.
    pub fn filename(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    /// Serialize to a compact JSON string through `nscc_ckpt::json`.
    pub fn to_json(&self) -> String {
        json::to_json(self)
    }

    /// A warning line when the hub dropped raw events or spans — the
    /// aggregate counters and histograms in this report stay exact, but
    /// the raw streams (and anything derived from them, like a critical
    /// path) are truncated. `None` when the capture is complete.
    pub fn drop_warning(&self) -> Option<String> {
        if self.obs.events_dropped == 0 && self.obs.spans_dropped == 0 {
            return None;
        }
        Some(format!(
            "warning: {}: raw trace truncated ({} events, {} spans dropped at capacity); \
             counters/histograms stay exact, raw-stream analyses are partial",
            self.filename(),
            self.obs.events_dropped,
            self.obs.spans_dropped
        ))
    }

    /// Write `BENCH_<name>.json` into `dir`, returning the path written.
    /// Prints a stderr warning when the underlying hub dropped events or
    /// spans, so truncated traces can't masquerade as complete.
    pub fn write_json(&self, dir: impl AsRef<Path>) -> std::io::Result<PathBuf> {
        if let Some(w) = self.drop_warning() {
            eprintln!("{w}");
        }
        let path = dir.as_ref().join(self.filename());
        let mut f = std::fs::File::create(&path)?;
        f.write_all(self.to_json().as_bytes())?;
        f.write_all(b"\n")?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nscc_obs::ObsEvent;

    fn sample_report() -> RunReport {
        let hub = Hub::new();
        hub.emit(ObsEvent::ReadDone {
            t_ns: 10,
            rank: 0,
            loc: 0,
            curr_iter: 7,
            requested: 5,
            delivered: 4,
            staleness: 3,
            blocked: false,
            block_ns: 0,
        });
        let mut rep = RunReport::new("unit", &hub);
        rep.param("procs", 4.0).metric("speedup", 2.5);
        rep.dsm.writes = 11;
        rep.net = Some(NetStats::default());
        rep
    }

    #[test]
    fn report_serializes_to_valid_json() {
        let rep = sample_report();
        let s = rep.to_json();
        nscc_ckpt::json::parse(&s).expect("report JSON validates");
        assert!(s.contains(&format!("\"schema_version\":{}", nscc_obs::SCHEMA_VERSION)));
        assert!(s.contains("\"name\":\"unit\""));
        assert!(s.contains("\"speedup\":2.5"));
        assert!(s.contains("\"staleness\""));
    }

    #[test]
    fn wall_section_is_null_unless_requested() {
        let mut rep = sample_report();
        assert!(
            rep.to_json().contains("\"wall\":null"),
            "default reports carry no nondeterministic wall data"
        );
        rep.wall = Some(nscc_obs::SchedSummary {
            events: 10,
            ..Default::default()
        });
        let s = rep.to_json();
        nscc_ckpt::json::parse(&s).expect("report with wall section validates");
        assert!(s.contains("\"wall\":{\"events\":10,"));
    }

    #[test]
    fn audit_section_is_null_unless_requested() {
        let mut rep = sample_report();
        assert!(
            rep.to_json().contains("\"audit\":null"),
            "default reports carry no audit section"
        );
        let auditor = nscc_audit::Auditor::new();
        rep.audit = Some(auditor.summary());
        let s = rep.to_json();
        nscc_ckpt::json::parse(&s).expect("report with audit section validates");
        assert!(s.contains("\"audit\":{\"monitors\":["));
        assert!(s.contains("\"violations\":0"));
    }

    #[test]
    fn staleness_section_is_null_unless_requested() {
        let mut rep = sample_report();
        assert!(
            rep.to_json().contains("\"staleness\":null"),
            "default reports carry no staleness anatomy section"
        );
        let hub = Hub::new();
        hub.enable_staleness();
        rep.staleness = Some(hub.staleness_summary());
        let s = rep.to_json();
        nscc_ckpt::json::parse(&s).expect("report with staleness section validates");
        assert!(s.contains("\"staleness\":{\"released\":0,"));
    }

    #[test]
    fn recovery_section_is_null_unless_requested() {
        let mut rep = sample_report();
        assert!(
            rep.to_json().contains("\"recovery\":null"),
            "default reports carry no recovery section"
        );
        rep.recovery = Some(nscc_ga::RecoverySummary {
            snapshots_completed: 3,
            cut_restores: 1,
            ..Default::default()
        });
        let s = rep.to_json();
        nscc_ckpt::json::parse(&s).expect("report with recovery section validates");
        assert!(s.contains("\"recovery\":{\"snapshots_started\":0,\"snapshots_completed\":3,"));
        // A supervisor give-up marks the whole report degraded.
        rep.note_degradation();
        assert!(!rep.degraded, "restores alone do not degrade the run");
        rep.recovery.as_mut().unwrap().give_ups = 1;
        rep.note_degradation();
        assert!(rep.degraded, "an abandoned island degrades the report");
    }

    #[test]
    fn drop_warning_flags_truncated_traces() {
        let mut rep = sample_report();
        assert!(rep.drop_warning().is_none());
        rep.obs.events_dropped = 7;
        let w = rep.drop_warning().expect("warning for dropped events");
        assert!(w.contains("7 events"));
        rep.obs.events_dropped = 0;
        rep.obs.spans_dropped = 3;
        assert!(rep.drop_warning().unwrap().contains("3 spans"));
    }

    #[test]
    fn degraded_marker_tracks_resilience_counters() {
        let mut rep = sample_report();
        rep.note_degradation();
        assert!(!rep.degraded, "clean run must not be marked degraded");
        assert!(rep.to_json().contains("\"degraded\":false"));

        rep.dsm.degraded_reads = 2;
        rep.note_degradation();
        assert!(rep.degraded);
        assert!(rep.to_json().contains("\"degraded\":true"));

        rep.dsm.degraded_reads = 0;
        rep.fault_reports = 1;
        rep.note_degradation();
        assert!(rep.degraded, "watchdog-cut runs mark the report degraded");
    }

    #[test]
    fn filename_is_bench_prefixed() {
        assert_eq!(sample_report().filename(), "BENCH_unit.json");
    }

    #[test]
    fn write_json_creates_the_file() {
        let dir = std::env::temp_dir().join("nscc_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = sample_report().write_json(&dir).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        nscc_ckpt::json::parse(body.trim()).expect("file contents validate");
        std::fs::remove_file(path).ok();
    }
}
