//! Regenerate **Figure 3**: parallel probabilistic-inference speedups on
//! the unloaded network for a 2-node configuration — synchronous, fully
//! asynchronous (rollback), and `Global_Read` ages, for each of the four
//! Table 2 networks plus the average panel. With `--json` also writes
//! `BENCH_fig3.json`.
//!
//! With `--ckpt-dir`, every completed network cell is checkpointed; a
//! killed sweep rerun with `--resume` skips the finished cells and
//! produces a byte-identical report.

use crate::{panel_row, CellResult, Session};
use nscc_bayes::{StopRule, TABLE2};
use nscc_core::fmt::render_table;
use nscc_core::{run_bayes_experiment, BayesExperiment, Platform};
use nscc_sim::SimTime;

pub(super) fn run(mut session: Session) -> u8 {
    let title = "Figure 3: Bayesian-network speedups on the unloaded network (2 processors)";
    print!("{}", session.banner(title));

    let scale = &session.scale;
    let cells = session.sweep(&TABLE2, |&netid, obs| {
        let exp = BayesExperiment {
            stop: StopRule {
                halfwidth: scale.ci,
                ..StopRule::default()
            },
            runs: scale.runs,
            base_seed: scale.seed,
            platform: scale.platform(Platform::paper_ethernet(2)),
            obs,
            ..BayesExperiment::new(netid, 2)
        };
        let r = run_bayes_experiment(&exp)?;
        Ok(CellResult {
            t_ns: r.seq_time.as_nanos(),
            iters: r.modes.iter().map(|m| m.mean_samples as u64).collect(),
            labels: r.modes.iter().map(|m| m.label.clone()).collect(),
            times: r.modes.iter().map(|m| m.mean_time).collect(),
            rollbacks: r.modes.iter().map(|m| m.mean_rollbacks).collect(),
            dsm: r.dsm,
            net: Some(r.net_stats),
            ..CellResult::default()
        })
    });

    let labels = &cells[0].labels;
    let mut header = vec!["network".to_string(), "seq(s)".to_string()];
    header.extend(labels.iter().cloned());
    header.push("best-partial/best-comp".to_string());
    let mut rows = vec![header];
    let mut footer = Vec::new();
    let rep = &mut session.report;
    for (netid, c) in TABLE2.iter().zip(&cells) {
        let name = netid.name();
        let seq_s = SimTime::from_nanos(c.t_ns).as_secs_f64();
        let (row, metrics) = panel_row(&[c], name);
        rows.push([vec![name.to_string(), format!("{seq_s:.2}")], row].concat());
        // The metrics open with one speedup per mode, in mode order.
        let best = (0..labels.len())
            .filter(|&i| labels[i].starts_with("age="))
            .max_by(|&a, &b| metrics[a].1.total_cmp(&metrics[b].1))
            .expect("age rows exist");
        footer.push(format!(
            "{name}: async={:.0} best-age={:.0}",
            c.rollbacks[1], c.rollbacks[best]
        ));
        rep.metric(format!("{name}_seq_s"), seq_s);
        for (key, value) in metrics {
            rep.metric(key, value);
        }
    }
    // Average panel: ratio of summed sequential to summed parallel times.
    let (row, _) = panel_row(&cells.iter().collect::<Vec<_>>(), "average");
    rows.push([vec!["average".to_string(), String::new()], row].concat());
    print!("{}", render_table(&rows));
    println!(
        "\nrollbacks per converged run (mean): {}",
        footer.join("  ")
    );

    rep.param("procs", 2.0);
    session.finish(Some(&cells));
    0
}
