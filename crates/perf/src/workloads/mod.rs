//! The four pinned workloads. Each is a fixed list of ops derived from a
//! pinned seed; an op returns a digest of its deterministic outcome, and a
//! pass runs every op once on one thread (closed loop, one client). The
//! run seed only draws the order (see `run`).

mod bayes;
mod ga;
mod hunt;
mod tools;

use std::path::{Path, PathBuf};
use std::sync::Arc;

use nscc_audit::Auditor;
use nscc_dsm::DsmStats;
use nscc_msg::CommStats;
use nscc_net::NetStats;
use nscc_obs::Hub;
use nscc_sim::SimTime;

use crate::trace::Tracer;

/// Workload names, in report order.
pub const NAMES: [&str; 4] = ["ga_sweep", "bayes_sweep", "chaos_hunt", "report_tools"];

/// How much work a workload is sized for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The calibrated op counts every comparison uses.
    Full,
    /// A few tiny ops per workload, for `cargo test`.
    Smoke,
}

/// One workload, set up and ready to run passes.
pub trait Workload {
    /// Number of ops in a pass.
    fn ops(&self) -> usize;

    /// Run op `i` and return the FNV-1a digest of its deterministic
    /// outcome. Spans and (when the tracer is on) counters go to `tr`.
    /// `Err` is a failed op: a `SimError`, an audit or conservation
    /// violation on a clean workload, a tool error.
    fn run_op(&self, i: usize, tr: &mut Tracer) -> Result<u64, String>;

    /// Which of p75/p90/p95 `op_tail_ms` reports — the highest that has
    /// at least ten samples beyond it at this workload's op count and the
    /// benchmark's run length. Fixed per workload, never derived at run
    /// time, so two runs always compare the same statistic.
    fn tail_percentile(&self) -> f64;
}

/// The seed the GA, Bayes and report cells' own seeds are drawn from.
const LIST_SEED: u64 = 20_260_928;

/// Set workload `name` up. `Err` for an unknown name or missing fixture
/// files.
pub fn setup(name: &str, size: Size) -> Result<Box<dyn Workload>, String> {
    match name {
        "ga_sweep" => Ok(Box::new(ga::GaSweep::setup(size))),
        "bayes_sweep" => Ok(Box::new(bayes::BayesSweep::setup(size))),
        "chaos_hunt" => Ok(Box::new(hunt::ChaosHunt::setup(size))),
        "report_tools" => Ok(Box::new(tools::ReportTools::setup(size)?)),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            NAMES.join(", ")
        )),
    }
}

/// The observability attachment of one traced op: a fresh hub with
/// scheduler wall accounting and the audit monitors tapped in.
struct ObsProbe {
    hub: Hub,
    auditor: Arc<Auditor>,
}

impl ObsProbe {
    fn attach(staleness: bool) -> ObsProbe {
        let hub = Hub::new();
        hub.enable_wall();
        if staleness {
            hub.enable_staleness();
        }
        let auditor = Arc::new(Auditor::new());
        hub.set_tap(auditor.clone());
        ObsProbe { hub, auditor }
    }

    /// [`collect`](ObsProbe::collect) for a clean cell, where an audit
    /// violation fails the op.
    fn collect_clean(&self, tr: &mut Tracer) -> Result<(), String> {
        self.collect(tr);
        match self.auditor.violation_count() {
            0 => Ok(()),
            _ => Err(format!(
                "audit violation on a clean cell: {:?}",
                self.auditor.recorded()
            )),
        }
    }

    /// Fold this op's hub-side counters into the pass.
    fn collect(&self, tr: &mut Tracer) {
        tr.sched.adopt_sched(&self.hub);
        let s = self.hub.summary();
        tr.count("obs.events", (s.events + s.events_dropped) as f64);
        tr.count("ckpt.checkpoints", s.checkpoints as f64);
        tr.count("ckpt.restores", s.restores as f64);
        tr.count("audit.violations", self.auditor.violation_count() as f64);
    }
}

/// Fold one run's DSM stats into the pass counters.
fn count_dsm(tr: &mut Tracer, dsm: &DsmStats) {
    tr.count("dsm.writes", dsm.writes as f64);
    tr.count("dsm.cache_hits", dsm.cache_hits as f64);
    tr.count("dsm.blocked_reads", dsm.blocked_reads as f64);
    tr.count("dsm.updates_stale", dsm.updates_stale as f64);
    tr.count("dsm.barriers", dsm.barriers as f64);
    tr.count("dsm.degraded_reads", dsm.degraded_reads as f64);
}

/// Fold one run's network stats into the pass counters.
fn count_net(tr: &mut Tracer, net: &NetStats) {
    tr.count("net.frames", net.medium.frames as f64);
    tr.count("net.messages", net.messages as f64);
    tr.count("net.delay_virt_ns", net.total_delay.as_nanos() as f64);
    tr.count("faults.drops", net.dropped as f64);
    tr.count("faults.dups", net.duplicated as f64);
}

/// Fold one run's message-layer stats into the pass counters.
fn count_comm(tr: &mut Tracer, comm: &CommStats) {
    tr.count("msg.sent", comm.sent as f64);
    tr.count("msg.payload_bytes", comm.payload_bytes as f64);
    tr.count("msg.retransmits", comm.retransmits as f64);
    tr.count("msg.dup_suppressed", comm.dup_suppressed as f64);
    tr.count("msg.give_ups", comm.give_ups as f64);
}

/// Fold one cell's virtual completion times (the serial baseline plus
/// every mode that completed — a capped mode has none) and its headline
/// improvement ratio into the pass counters.
fn count_cell(
    tr: &mut Tracer,
    serial: SimTime,
    modes: impl Iterator<Item = SimTime>,
    improvement: Option<f64>,
) {
    let virt = modes
        .filter(|&t| t != SimTime::MAX)
        .fold(serial, |a, t| a + t);
    tr.count("core.virt_ns", virt.as_nanos() as f64);
    if let Some(imp) = improvement {
        tr.count("core.improvement_sum", imp);
        tr.count("core.cells", 1.0);
    }
}

/// The repository root: `NSCC_PERF_ROOT`, else the nearest ancestor of
/// the working directory that holds `crates/perf/Cargo.toml`.
pub fn repo_root() -> Result<PathBuf, String> {
    if let Some(root) = std::env::var_os("NSCC_PERF_ROOT") {
        return Ok(PathBuf::from(root));
    }
    let cwd = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    cwd.ancestors()
        .find(|d| d.join("crates/perf/Cargo.toml").is_file())
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("{}: not inside the nscc repository", cwd.display()))
}

/// An independent stream of cell seeds per workload (`salt`).
fn cell_seeds(salt: u64) -> nscc_hunt::SplitMix {
    nscc_hunt::SplitMix(LIST_SEED ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}
