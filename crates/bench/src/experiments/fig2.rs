//! Regenerate **Figure 2**: GA speedups over the serial baseline on the
//! unloaded Ethernet, for 2–16 processors — synchronous, fully
//! asynchronous, `Global_Read` ages {0, 5, 10, 20, 30}, and the
//! best-partial-vs-best-competitor summary bar.
//!
//! Prints the best case (function 1) and the average over all eight
//! benchmark functions, exactly the two panels the paper shows. With
//! `--json` also writes `BENCH_fig2.json`: the averaged-panel speedups
//! plus merged DSM/network/message counters and the observability hub's
//! staleness/block/delay histograms.
//!
//! With `--ckpt-dir`, every completed function × processor cell is
//! checkpointed; a killed sweep rerun with `--resume` skips the finished
//! cells and produces a byte-identical report.

use crate::{panel_speedups, speedup_cells, CellResult, Session};
use nscc_core::fmt::render_table;
use nscc_core::{run_ga_experiment, GaExperiment};
use nscc_ga::ALL_FUNCTIONS;

const PROCS: [usize; 4] = [2, 4, 8, 16];

pub(super) fn run(mut session: Session) -> u8 {
    // The averaged panel still needs every function; quick mode restricts
    // it to the four cheapest.
    let functions = &ALL_FUNCTIONS[..if session.scale.all_functions {
        ALL_FUNCTIONS.len()
    } else {
        4
    }];
    let title = "Figure 2: GA speedups on the unloaded network";
    print!("{}", session.banner(title));

    let modes = &session.scale.modes;
    let grid: Vec<_> = functions
        .iter()
        .flat_map(|&f| PROCS.map(|p| (f, p)))
        .collect();
    let scale = &session.scale;
    let cells = session.sweep(&grid, |&(func, p), obs| {
        let mut exp = GaExperiment {
            generations: scale.generations,
            runs: scale.runs,
            base_seed: scale.seed,
            obs,
            modes: modes.clone(),
            ..GaExperiment::new(func, p)
        };
        exp.platform.msg.mailbox_warn = scale.mailbox_warn;
        Ok(CellResult::from_ga(&run_ga_experiment(&exp)?))
    });

    // Panel 1: best case (function 1). Panel 2: average over all
    // functions (ratio of summed serial times to summed parallel times,
    // as the paper defines it); its speedups are the report's metrics.
    println!("\n-- best case: function 1 (sphere) --");
    print!("{}", render_table(&panel(&cells, 1).0));
    println!("\n-- average over {} functions --", functions.len());
    let (rows, metrics) = panel(&cells, functions.len());
    print!("{}", render_table(&rows));

    let rep = &mut session.report;
    rep.param("functions", functions.len() as f64);
    for (k, v) in metrics {
        rep.metric(k, v);
    }
    session.finish(Some(&cells));
    0
}

/// The panel over the first `funcs` functions: its table and its
/// `p{P}_{mode}` / `p{P}_improvement` metrics.
fn panel(cells: &[CellResult], funcs: usize) -> (Vec<Vec<String>>, Vec<(String, f64)>) {
    let labels = &cells[0].labels;
    let mut header = vec!["procs".to_string()];
    header.extend(labels.iter().cloned());
    header.push("best-partial/best-comp".to_string());
    let (mut rows, mut metrics) = (vec![header], Vec::new());
    for (pi, p) in PROCS.iter().enumerate() {
        let group: Vec<&CellResult> = (0..funcs).map(|f| &cells[f * PROCS.len() + pi]).collect();
        let (speedups, improvement) = panel_speedups(&group);
        rows.push([vec![p.to_string()], speedup_cells(&speedups, improvement)].concat());
        for (label, s) in labels.iter().zip(&speedups) {
            metrics.push((format!("p{p}_{label}"), *s));
        }
        if improvement.is_finite() {
            metrics.push((format!("p{p}_improvement"), improvement));
        }
    }
    (rows, metrics)
}
