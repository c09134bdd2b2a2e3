//! Automated recovery drill: crash islands mid-run under scheduled
//! fault plans with the consistent-snapshot protocol and the crash
//! supervisor on, then verify the whole recovery story end to end.
//!
//! Four scenarios run back to back:
//!
//! * `single-crash` — one island dies and restarts once; the supervisor
//!   approves the restart and the warm restore (served from the newest
//!   consistent cut when one completed) rolls back no further than the
//!   `Global_Read` age bound.
//! * `double-crash` — two different islands die in separate windows;
//!   both restart under the same budget.
//! * `budget-exhausted` — one island dies twice against a budget of one
//!   restart; the supervisor gives up, the island retires, and the run
//!   completes *degraded* instead of deadlocking.
//! * `identity` — no crash at all: a snapshot-on run must reproduce the
//!   snapshot-off run's application metrics exactly (marker waves are
//!   out-of-band, so they must cost nothing and perturb nothing).
//!
//! Every check is printed as a table row; any failed check makes the
//! drill exit 1 after the report is written. With `--audit` the online
//! auditor taps every scenario, so a rollback past the age bound or an
//! island pausing on the snapshot path is also a recorded violation
//! (and, with `--flight`, triggers a black-box dump for `nscc
//! postmortem`). With `--json` the drill writes `BENCH_drill.json` whose
//! `recovery` section merges all scenarios — the input of `nscc drill`.

use crate::headless::HeadlessSpec;
use crate::{CellResult, Session};
use nscc_core::fmt::render_table;
use nscc_core::{run_ga_experiment, FaultPlan, GaExpResult, GaExperiment};
use nscc_ga::{RecoverySummary, SupervisorPolicy};
use nscc_obs::Hub;
use nscc_sim::SimTime;

const PROCS: usize = 4;

/// The drill's `Global_Read` age bound — also the rollback ceiling every
/// warm restore is checked against.
const AGE: u64 = 5;

/// One pass/fail verdict: scenario, check, pass, detail.
type Check = (&'static str, &'static str, bool, String);

/// The drill experiment: the chaos-study cell (read timeouts,
/// heartbeats, watchdog, warm recovery; the platform's raw datagrams,
/// without reliable delivery) plus snapshots and supervision. One run
/// per scenario — a drill wants exact counters, not averaged sweeps.
fn drill_exp(
    session: &Session,
    plan: FaultPlan,
    snapshots: Option<u64>,
    supervision: Option<SupervisorPolicy>,
    obs: Option<Hub>,
) -> GaExperiment {
    let spec = HeadlessSpec {
        procs: PROCS,
        generations: session.scale.generations,
        runs: 1,
        age: AGE,
        plan: Some(plan),
        reliable: None,
        snapshots,
        ..HeadlessSpec::quick(session.scale.seed)
    };
    let exp = spec.experiment(obs);
    GaExperiment {
        platform: session.scale.platform(exp.platform),
        supervision,
        // With --ckpt-dir given, completed cuts also land on disk as
        // consistent-cut generations (`nscc inspect --ckpt` shows them
        // in the kind column). Scenarios share the store; a later wave
        // with the same initiating generation overwrites atomically.
        snap_dir: session.resume.dir.as_ref().map(std::path::PathBuf::from),
        ..exp
    }
}

/// One scenario as a cell, folded into the report as a sweep's cells are:
/// its counters, its fault lines and its `{scenario}_*` metrics. Its
/// recovery summary is merged into the drill's `total`. The cells do not
/// go through `finish`: with `--ckpt-dir` (drill's cut store) it would
/// read them as a per-cell-hub sweep and replace `obs` with an empty
/// merge.
fn scenario_cell(total: &mut RecoverySummary, scenario: &str, res: &GaExpResult) -> CellResult {
    let m = &res.modes[0];
    let key = |metric: &str| format!("{scenario}_{metric}");
    let mut metrics = vec![
        (key("restores"), m.restores as f64),
        (key("max_rollback"), m.max_rollback as f64),
        (key("fault_reports"), res.fault_reports.len() as f64),
    ];
    if let Some(rec) = &res.recovery {
        metrics.push((key("snapshots_completed"), rec.snapshots_completed as f64));
        metrics.push((key("cut_restores"), rec.cut_restores as f64));
        metrics.push((key("give_ups"), rec.give_ups as f64));
        total.merge(rec);
    }
    CellResult {
        metrics,
        fault_lines: res.fault_reports.iter().map(|f| f.summary()).collect(),
        dsm: m.dsm,
        net: Some(res.net),
        comm: Some(m.comm),
        ..CellResult::default()
    }
}

/// The standard recovery assertions every crash scenario must satisfy:
/// the run completed (no watchdog cuts — degraded is fine, wedged is
/// not), marker waves completed, and no warm restore rolled back past
/// the age bound.
fn common_checks(checks: &mut Vec<Check>, scenario: &'static str, res: &GaExpResult) {
    let rec = res.recovery.clone().unwrap_or_default();
    checks.push((
        scenario,
        "run completed",
        res.fault_reports.is_empty(),
        format!("{} watchdog-cut run(s)", res.fault_reports.len()),
    ));
    checks.push((
        scenario,
        "marker waves completed",
        rec.snapshots_completed >= 1,
        format!(
            "{} started, {} completed",
            rec.snapshots_started, rec.snapshots_completed
        ),
    ));
    checks.push((
        scenario,
        "rollback within age bound",
        rec.max_rollback <= AGE,
        format!("max rollback {} vs bound {AGE}", rec.max_rollback),
    ));
}

pub(super) fn run(mut session: Session) -> u8 {
    let title = "Recovery drill: crash, restore, verify";
    print!("{}", session.banner(title));
    println!("procs={PROCS} age-bound={AGE} (snapshots + supervision + warm recovery on)");

    let seed = session.scale.seed;
    session
        .report
        .param("procs", PROCS as f64)
        .param("age", AGE as f64);
    let mut total = RecoverySummary::default();
    let mut checks: Vec<Check> = Vec::new();
    let supervised = Some(SupervisorPolicy::default());

    // --- single-crash: one island dies once, restarts, warm-restores. ---
    let plan = FaultPlan::new(seed).crash_and_restart(
        1,
        SimTime::from_millis(40),
        SimTime::from_millis(55),
    );
    let exp = drill_exp(&session, plan, Some(AGE), supervised, session.obs());
    let res = session.or_exit(run_ga_experiment(&exp));
    common_checks(&mut checks, "single-crash", &res);
    let rec = res.recovery.clone().unwrap_or_default();
    checks.push((
        "single-crash",
        "crash restored once",
        rec.restores == 1 && rec.restarts_approved == 1,
        format!(
            "{} restore(s), {} approved",
            rec.restores, rec.restarts_approved
        ),
    ));
    checks.push((
        "single-crash",
        "no island abandoned",
        rec.give_ups == 0,
        format!("{} give-up(s)", rec.give_ups),
    ));
    scenario_cell(&mut total, "single_crash", &res).fold_into(&mut session.report);

    // --- double-crash: two islands die in separate windows. ---
    let plan = FaultPlan::new(seed ^ 0xD21)
        .crash_and_restart(1, SimTime::from_millis(30), SimTime::from_millis(42))
        .crash_and_restart(2, SimTime::from_millis(60), SimTime::from_millis(72));
    let exp = drill_exp(&session, plan, Some(AGE), supervised, session.obs());
    let res = session.or_exit(run_ga_experiment(&exp));
    common_checks(&mut checks, "double-crash", &res);
    let rec = res.recovery.clone().unwrap_or_default();
    checks.push((
        "double-crash",
        "both crashes restored",
        rec.restores == 2 && rec.restarts_approved == 2 && rec.give_ups == 0,
        format!(
            "{} restore(s), {} approved, {} give-up(s)",
            rec.restores, rec.restarts_approved, rec.give_ups
        ),
    ));
    scenario_cell(&mut total, "double_crash", &res).fold_into(&mut session.report);

    // --- budget-exhausted: two crashes against a budget of one. ---
    // The windows sit late in the run: a consistent cut needs every
    // rank's frame, so once the island retires no *new* wave can ever
    // complete — the waves the drill asserts on must finish first.
    let plan = FaultPlan::new(seed ^ 0xBED)
        .crash_and_restart(1, SimTime::from_millis(60), SimTime::from_millis(65))
        .crash_and_restart(1, SimTime::from_millis(72), SimTime::from_millis(77));
    let budget = SupervisorPolicy {
        max_restarts: 1,
        backoff_base: SimTime::from_millis(2),
        backoff_cap: SimTime::from_millis(4),
    };
    let exp = drill_exp(&session, plan, Some(AGE), Some(budget), session.obs());
    let res = session.or_exit(run_ga_experiment(&exp));
    common_checks(&mut checks, "budget-exhausted", &res);
    let rec = res.recovery.clone().unwrap_or_default();
    checks.push((
        "budget-exhausted",
        "budget enforced then island retired",
        rec.restarts_approved == 1 && rec.give_ups == 1 && rec.failed_ranks == vec![1],
        format!(
            "{} approved, {} give-up(s), failed ranks {:?}",
            rec.restarts_approved, rec.give_ups, rec.failed_ranks
        ),
    ));
    checks.push((
        "budget-exhausted",
        "backoff was imposed",
        rec.max_backoff_ns > 0,
        format!("max backoff {} ns", rec.max_backoff_ns),
    ));
    scenario_cell(&mut total, "budget_exhausted", &res).fold_into(&mut session.report);

    // --- identity: snapshots must not perturb a crash-free run. ---
    // The marker plane is out-of-band (no frames on the wire, no virtual
    // time, no RNG draws), so the application story must match exactly.
    // The identity pair runs unobserved: its events would double-count in
    // the shared hub, and determinism is what is under test.
    let clean = || FaultPlan::new(seed ^ 0x1DE);
    let on = session.or_exit(run_ga_experiment(&drill_exp(
        &session,
        clean(),
        Some(AGE),
        None,
        None,
    )));
    let off = session.or_exit(run_ga_experiment(&drill_exp(
        &session,
        clean(),
        None,
        None,
        None,
    )));
    let (m_on, m_off) = (&on.modes[0], &off.modes[0]);
    let rec_on = on.recovery.clone().unwrap_or_default();
    checks.push((
        "identity",
        "waves ran on the clean platform",
        rec_on.snapshots_completed >= 1 && rec_on.restores == 0,
        format!(
            "{} completed, {} restore(s)",
            rec_on.snapshots_completed, rec_on.restores
        ),
    ));
    checks.push((
        "identity",
        "snapshots perturb nothing",
        m_on.mean_time == m_off.mean_time
            && m_on.mean_best == m_off.mean_best
            && m_on.mean_messages == m_off.mean_messages
            && m_on.max_rollback == m_off.max_rollback,
        format!(
            "on: t={:?} best={} msgs={}; off: t={:?} best={} msgs={}",
            m_on.mean_time,
            m_on.mean_best,
            m_on.mean_messages,
            m_off.mean_time,
            m_off.mean_best,
            m_off.mean_messages
        ),
    ));
    checks.push((
        "identity",
        "no recovery section when off",
        off.recovery.is_none(),
        format!("off.recovery = {:?}", off.recovery),
    ));
    scenario_cell(&mut total, "identity", &on).fold_into(&mut session.report);

    // --- audit verdict: the monitors saw every scenario's events. ---
    if let Some(v) = session.violations() {
        checks.push((
            "audit",
            "no invariant violations",
            v == 0,
            format!("{v} violation(s) recorded"),
        ));
    }

    let mut rows = vec![["scenario", "check", "verdict", "detail"]
        .map(String::from)
        .to_vec()];
    for (scenario, what, pass, detail) in &checks {
        let verdict = if *pass { "ok" } else { "FAIL" };
        rows.push(vec![
            scenario.to_string(),
            what.to_string(),
            verdict.to_string(),
            detail.clone(),
        ]);
    }
    println!("\n{}", render_table(&rows));
    let failed = checks.iter().filter(|c| !c.2).count();
    println!(
        "drill: {}/{} checks passed; {} wave(s) completed, {} restore(s) \
         ({} from consistent cuts), {} island(s) retired, max rollback {}",
        checks.len() - failed,
        checks.len(),
        total.snapshots_completed,
        total.restores,
        total.cut_restores,
        total.give_ups,
        total.max_rollback
    );

    session.report.recovery = Some(total);
    session.finish(None);
    if failed > 0 {
        eprintln!("error: drill: {failed} check(s) failed (see table)");
        return 1;
    }
    0
}
