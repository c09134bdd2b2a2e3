//! `report_tools` — the tooling half: the obs JSON writer, the three JSON
//! readers and every `nscc` renderer, over reports produced in set-up plus
//! the committed fixtures. Runs **no simulator** in its passes: it is the
//! bypass workload for every sim/obs hot-path change (prediction: no
//! movement) and the one workload a JSON/histogram consolidation must not
//! slow.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nscc_analyze::{
    anatomy, diff, gate_pair, heat, inspect, postmortem, trend_dir, why, GateConfig, Report,
    TrendConfig,
};
use nscc_audit::{render_flight_dump, Auditor, FlightDump};
use nscc_ckpt::fnv1a;
use nscc_core::{run_ga_experiment, FaultPlan, GaExperiment, RunReport};
use nscc_ga::{CostModel, TestFn};
use nscc_hunt::{generate, Envelope, Repro};
use nscc_obs::Hub;

use super::{cell_seeds, repo_root, Size, Workload};
use crate::trace::Tracer;

/// Tool passes per benchmark pass at full size.
const OPS_FULL: usize = 80;

/// Flight-recorder ring size of the set-up cell.
const FLIGHT_RING: u64 = 512;

pub struct ReportTools {
    ops: usize,
    root: PathBuf,
    /// Scratch directory holding the set-up reports; removed on drop.
    dir: PathBuf,
    report: RunReport,
    plan: FaultPlan,
    repros: Vec<String>,
}

fn write(path: &Path, body: &str) -> Result<(), String> {
    std::fs::write(path, body).map_err(|e| format!("{}: cannot write: {e}", path.display()))
}

impl ReportTools {
    pub fn setup(size: Size) -> Result<ReportTools, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let mut rng = cell_seeds(4);
        let root = repo_root()?;
        let dir = root.join(format!(
            "crates/perf/results/scratch/{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("{}: cannot create: {e}", dir.display()))?;

        // One traced GA cell: every report section a v7 reader knows is
        // populated (staleness anatomy, audit verdict, heat/deps,
        // snapshots), and its raw stream and flight ring are dumped too.
        let hub = Hub::new();
        hub.enable_staleness();
        hub.enable_flight(FLIGHT_RING);
        hub.sample_every(50_000_000);
        let auditor = Arc::new(Auditor::new());
        hub.set_tap(auditor.clone());
        let exp = GaExperiment {
            generations: if size == Size::Smoke { 12 } else { 60 },
            runs: 1,
            base_seed: rng.next_u64() >> 16,
            cost: CostModel::deterministic(),
            obs: Some(hub.clone()),
            ..GaExperiment::new(TestFn::F1Sphere, 4)
        };
        let res = run_ga_experiment(&exp).map_err(|e| e.to_string())?;
        let mut report = RunReport::new("perf", &hub);
        report
            .param("generations", exp.generations as f64)
            .param("procs", exp.procs as f64);
        for m in &res.modes {
            report.metric(format!("{}_speedup", m.label), m.speedup);
            report.dsm.merge(&m.dsm);
        }
        report.net = Some(res.net);
        report.comm = Some(res.comm);
        report.audit = Some(auditor.summary());
        report.staleness = Some(hub.staleness_summary());
        report.note_degradation();
        write(&dir.join("BENCH_perf.json"), &report.to_json())?;
        let mut drifted = report.clone();
        for v in drifted.metrics.values_mut() {
            *v *= 1.01;
        }
        write(&dir.join("BENCH_perf_drifted.json"), &drifted.to_json())?;
        write(&dir.join("TRACE_perf.json"), &hub.export_events_json())?;
        let flight = FlightDump::new(
            "perf",
            exp.base_seed,
            "fault",
            FLIGHT_RING,
            hub.flight_events(),
            auditor.recorded(),
        )
        .with_proc_names(hub.summary().proc_names.values().cloned().collect());
        write(&dir.join("FLIGHT_perf.json"), &render_flight_dump(&flight))?;

        let plan = (0..)
            .find_map(|t| generate(exp.base_seed, t, &Envelope::default()).plan)
            .expect("the default envelope generates fault plans");
        let mut repros = Vec::new();
        for name in [
            "crash-deadlock-fault",
            "quality-bar-incomplete",
            "staleness-sabotage",
        ] {
            let path = root.join(format!("repros/{name}.json"));
            repros.push(
                std::fs::read_to_string(&path)
                    .map_err(|e| format!("{}: cannot read: {e}", path.display()))?,
            );
        }
        Ok(ReportTools {
            ops: if size == Size::Smoke { 2 } else { OPS_FULL },
            root,
            dir,
            report,
            plan,
            repros,
        })
    }
}

impl Drop for ReportTools {
    fn drop(&mut self) {
        // Best effort: a leftover scratch directory is ignored by git and
        // harmless to the next run.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Workload for ReportTools {
    fn ops(&self) -> usize {
        self.ops
    }

    fn run_op(&self, _i: usize, tr: &mut Tracer) -> Result<u64, String> {
        let mut out = String::new();
        tr.span("perf.tool_pass", "perf", |tr| -> Result<(), String> {
            let text = tr.span("core.report_to_json", "core", |_| self.report.to_json());
            tr.span("analyze.json_parse", "analyze", |_| {
                nscc_analyze::json::parse(&text)
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            })?;
            out.push_str(&text);

            let load = |tr: &mut Tracer, path: PathBuf| {
                tr.span("analyze.load", "analyze", |_| Report::load(path))
            };
            let fresh = load(tr, self.dir.join("BENCH_perf.json"))?;
            let drifted = load(tr, self.dir.join("BENCH_perf_drifted.json"))?;
            let events = load(tr, self.dir.join("TRACE_perf.json"))?;
            let flight = load(tr, self.dir.join("FLIGHT_perf.json"))?;
            let fixture = load(tr, self.root.join("tests/fixtures/fig2_staleness.json"))?;
            let baseline = load(tr, self.root.join("baselines/BENCH_fig2.json"))?;
            let latest = load(tr, self.root.join("runs/BENCH_fig2.0003.json"))?;

            tr.span("analyze.inspect", "analyze", |_| {
                for rep in [&fresh, &events, &fixture] {
                    out.push_str(&inspect(rep));
                }
            });
            tr.span("analyze.diff", "analyze", |_| {
                out.push_str(&diff(&fresh, &drifted));
                out.push_str(&diff(&baseline, &latest));
            });
            tr.span("analyze.gate", "analyze", |_| {
                for (base, new) in [(&fresh, &drifted), (&baseline, &latest)] {
                    let (text, outcome) = gate_pair(base, new, &GateConfig::default());
                    out.push_str(&text);
                    out.push_str(&format!("{outcome:?}"));
                }
            });
            tr.span("analyze.heat_why", "analyze", |_| -> Result<(), String> {
                for rep in [&fresh, &fixture] {
                    out.push_str(&heat(rep));
                    out.push_str(&why(rep, None, None)?);
                }
                Ok(())
            })?;
            tr.span("analyze.anatomy", "analyze", |_| {
                for rep in [&fresh, &fixture] {
                    let (text, violations) = anatomy(rep);
                    out.push_str(&text);
                    out.push_str(&violations.to_string());
                }
            });
            out.push_str(&tr.span("analyze.postmortem", "analyze", |_| postmortem(&flight))?);
            let (text, drift) = tr.span("analyze.trend", "analyze", |_| {
                trend_dir(&self.root.join("runs"), &TrendConfig::default())
            })?;
            out.push_str(&text);
            out.push_str(&drift.to_string());

            let plan = tr.span("faults.plan_json", "faults", |_| {
                FaultPlan::from_json(&self.plan.to_json())
            })?;
            out.push_str(&plan.to_json());
            tr.span("hunt.repro_parse", "hunt", |_| -> Result<(), String> {
                for text in &self.repros {
                    out.push_str(&Repro::from_json(text)?.to_json());
                }
                Ok(())
            })?;
            tr.span("ckpt.seal_unseal", "ckpt", |_| {
                let sealed = nscc_ckpt::seal(text.as_bytes());
                nscc_ckpt::unseal(&sealed)
                    .map(|payload| out.push_str(&payload.len().to_string()))
                    .map_err(|e| e.to_string())
            })
        })?;
        // Rendered headers echo the file they were loaded from; the
        // scratch and checkout locations are not part of the outcome.
        let stable = out
            .replace(&self.dir.display().to_string(), "")
            .replace(&self.root.display().to_string(), "");
        Ok(fnv1a(stable.as_bytes()))
    }

    fn tail_percentile(&self) -> f64 {
        0.95
    }
}
