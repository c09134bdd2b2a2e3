//! Chaos sweep: GA resilience under frame loss, across `Global_Read`
//! age bounds.
//!
//! For every cell of the loss-rate × age-bound grid (`--loss` ×
//! `--ages`) the island GA runs on the lossy Ethernet with the full
//! robustness stack on — reliable delivery (seq/ack/retransmit), read
//! timeouts degrading to cached values, heartbeat failure detection,
//! warm crash recovery and a virtual-time watchdog — and reports how
//! much of the fault-free speedup survives, what the reliable layer paid
//! for it (retransmits, give-ups) and how often reads had to degrade.
//! Runs the watchdog cut short appear as structured fault reports, not
//! hung sweeps.
//!
//! With `--json` also writes `BENCH_fault_study.json` with one metric
//! set per cell.
//!
//! With `--ckpt-dir`, every completed cell is checkpointed; a killed
//! sweep rerun with `--resume` skips the finished cells and produces a
//! byte-identical report.
//!
//! With `--fault-plan <path>` the wire runs the fault plan from that
//! JSON document (the portable format `nscc hunt` repros carry) instead
//! of the loss-derived plan — reseeded per cell, so the grid still
//! varies. Lets a shrunk repro drive the full bench harness.

use crate::headless::HeadlessSpec;
use crate::{CellResult, Scale, Session};
use nscc_core::fmt::{f2, render_table};
use nscc_core::{run_ga_experiment, FaultPlan, GaExperiment};
use nscc_obs::Hub;
use nscc_sim::SimError;

const PROCS: usize = 4;

/// Run one grid cell, streaming into `obs` when given.
fn run_cell(
    scale: &Scale,
    loss: f64,
    age: u64,
    plan_override: Option<&FaultPlan>,
    obs: Option<Hub>,
) -> Result<CellResult, SimError> {
    // Every cell runs the same robustness stack; only the wire's loss
    // rate and the reads' age bound vary. The plan's seed is derived from
    // the cell so each cell's chaos is independent and reproducible —
    // a --fault-plan override keeps its events but is reseeded the
    // same way, so the grid still varies cell to cell.
    let plan_seed = scale.seed ^ ((loss * 1e6) as u64).wrapping_mul(31) ^ age;
    let plan = match plan_override {
        Some(plan) => Some(plan.clone().with_seed(plan_seed)),
        None if loss > 0.0 => Some(FaultPlan::new(plan_seed).loss(loss)),
        None => None,
    };
    let spec = HeadlessSpec {
        procs: PROCS,
        generations: scale.generations,
        runs: scale.runs,
        age,
        plan,
        inject_stale: scale.inject_stale,
        ..HeadlessSpec::quick(scale.seed)
    };
    let exp = spec.experiment(obs);
    let res = run_ga_experiment(&GaExperiment {
        platform: scale.platform(exp.platform),
        ..exp
    })?;
    let m = &res.modes[0];
    let key = |metric: &str| format!("loss={loss}_age={age}_{metric}");
    // The table row renders these, in this order, after loss and age.
    let metrics = vec![
        (key("speedup"), m.speedup),
        (key("success_rate"), m.success_rate),
        (key("retransmits"), m.comm.retransmits as f64),
        (key("give_ups"), m.comm.give_ups as f64),
        (key("dropped"), res.net.dropped as f64),
        (key("degraded_reads"), m.dsm.degraded_reads as f64),
        (key("fault_reports"), res.fault_reports.len() as f64),
        (key("restores"), m.restores as f64),
        (key("max_rollback"), m.max_rollback as f64),
    ];
    let fault_lines = res
        .fault_reports
        .iter()
        .map(|f| format!("cell loss={loss} age={age}: {}", f.summary()))
        .collect();
    Ok(CellResult {
        t_ns: m.mean_time.as_nanos(),
        iters: vec![m.mean_generations as u64],
        metrics,
        fault_lines,
        dsm: m.dsm,
        net: Some(res.net),
        comm: Some(m.comm),
        ..CellResult::default()
    })
}

pub(super) fn run(mut session: Session) -> u8 {
    let (losses, ages) = (&session.scale.losses, &session.scale.ages);
    let plan_override = session.scale.fault_plan.as_ref();
    if let Some(plan) = plan_override {
        println!("fault plan override (--fault-plan): {}", plan.describe());
    }
    let title = "Fault study: GA resilience under frame loss";
    print!("{}", session.banner(title));
    println!("grid: loss={losses:?} age={ages:?} procs={PROCS} (reliable delivery on)");

    let grid: Vec<(f64, u64)> = losses
        .iter()
        .flat_map(|&loss| ages.iter().map(move |&age| (loss, age)))
        .collect();
    let scale = &session.scale;
    let cells = session.sweep(&grid, |&(loss, age), obs| {
        run_cell(scale, loss, age, plan_override, obs)
    });

    let mut rows = vec![[
        "loss", "age", "speedup", "ok", "rtx", "giveup", "dropped", "degraded", "cut",
    ]
    .map(String::from)
    .to_vec()];
    for (&(loss, age), c) in grid.iter().zip(&cells) {
        let v: Vec<f64> = c.metrics.iter().map(|(_, v)| *v).collect();
        let mut row = vec![format!("{loss}"), format!("{age}"), f2(v[0]), f2(v[1])];
        row.extend(v[2..7].iter().map(f64::to_string));
        rows.push(row);
    }
    println!("\n{}", render_table(&rows));
    println!(
        "columns: speedup over the fault-free serial baseline; ok = fraction of runs \
         reaching the quality bar; rtx/giveup = reliable-layer retransmits and abandoned \
         frames; dropped = frames the fault layer ate; degraded = reads that timed out \
         onto a cached value; cut = runs stopped by the watchdog (see stderr)."
    );

    session.report.param("procs", PROCS as f64);
    session.finish(Some(&cells));
    0
}
