//! Regenerate **Figure 4**: GA speedups under background network load —
//! 4 compute nodes plus a loader pair offering 0.5, 1 and 2 Mbps on the
//! shared 10 Mbps Ethernet (plus the unloaded 0 Mbps reference row).
//!
//! Prints function 1 and the average over the benchmark functions, and
//! the best-partial-over-best-competitor improvement per load level —
//! the paper's headline claim is that this improvement *grows* with load.
//! Each load × function cell runs once; both panels are rendered from
//! the same cells.
//!
//! With `--ckpt-dir`, every completed load × function cell is
//! checkpointed; a killed sweep rerun with `--resume` skips the finished
//! cells and produces a byte-identical report.

use crate::{panel_speedups, speedup_cells, CellResult, Session};
use nscc_core::fmt::render_table;
use nscc_core::{run_ga_experiment, GaExperiment, Platform};
use nscc_ga::ALL_FUNCTIONS;

const LOADS: [f64; 4] = [0.0, 0.5, 1.0, 2.0];

pub(super) fn run(mut session: Session) -> u8 {
    let functions = &ALL_FUNCTIONS[..if session.scale.all_functions {
        ALL_FUNCTIONS.len()
    } else {
        4
    }];
    let title = "Figure 4: GA speedups on the loaded network (4 processors)";
    print!("{}", session.banner(title));

    let modes = &session.scale.modes;
    let grid: Vec<_> = LOADS
        .iter()
        .flat_map(|&load| functions.iter().map(move |&f| (load, f)))
        .collect();
    let scale = &session.scale;
    let cells = session.sweep(&grid, |&(load, func), obs| {
        let mut exp = GaExperiment {
            generations: scale.generations,
            runs: scale.runs,
            base_seed: scale.seed,
            platform: Platform::loaded_ethernet(4, load),
            obs,
            modes: modes.clone(),
            ..GaExperiment::new(func, 4)
        };
        exp.platform.msg.mailbox_warn = scale.mailbox_warn;
        Ok(CellResult::from_ga(&run_ga_experiment(&exp)?))
    });

    println!("\n-- best case: function 1 (sphere) --");
    print!("{}", render_table(&panel(&cells, functions.len(), 1).0));
    println!("\n-- average over functions --");
    let (rows, metrics) = panel(&cells, functions.len(), functions.len());
    print!("{}", render_table(&rows));

    let rep = &mut session.report;
    rep.param("functions", functions.len() as f64)
        .param("procs", 4.0);
    for (k, v) in metrics {
        rep.metric(k, v);
    }
    session.finish(Some(&cells));
    0
}

/// The panel over the first `funcs` of the `stride` functions per load:
/// its table and its `load{L}_{mode}` / `_improvement` / `_warp_async`
/// metrics.
fn panel(
    cells: &[CellResult],
    stride: usize,
    funcs: usize,
) -> (Vec<Vec<String>>, Vec<(String, f64)>) {
    let labels = &cells[0].labels;
    let mut header = vec!["load (Mbps)".to_string()];
    header.extend(labels.iter().cloned());
    header.push("best-partial/best-comp".to_string());
    header.push("warp(async)".to_string());
    let (mut rows, mut metrics) = (vec![header], Vec::new());
    for (li, load) in LOADS.iter().enumerate() {
        let group: Vec<&CellResult> = cells[li * stride..][..funcs].iter().collect();
        let (speedups, improvement) = panel_speedups(&group);
        // Warp of the fully-async mode, averaged over functions (only
        // reported when `async` is in the mode set).
        let warp = labels
            .iter()
            .position(|l| l == "async")
            .map(|ai| group.iter().map(|c| c.warps[ai]).sum::<f64>() / group.len() as f64);
        let mut row = [
            vec![format!("{load}")],
            speedup_cells(&speedups, improvement),
        ]
        .concat();
        row.push(warp.map_or("n/a".to_string(), |w| format!("{w:.2}")));
        rows.push(row);
        for (label, s) in labels.iter().zip(&speedups) {
            metrics.push((format!("load{load}_{label}"), *s));
        }
        if improvement.is_finite() {
            metrics.push((format!("load{load}_improvement"), improvement));
        }
        if let Some(w) = warp {
            metrics.push((format!("load{load}_warp_async"), w));
        }
    }
    (rows, metrics)
}
