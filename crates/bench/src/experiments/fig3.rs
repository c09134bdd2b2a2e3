//! Regenerate **Figure 3**: parallel probabilistic-inference speedups on
//! the unloaded network for a 2-node configuration — synchronous, fully
//! asynchronous (rollback), and `Global_Read` ages, for each of the four
//! Table 2 networks plus the average panel. With `--json` also writes
//! `BENCH_fig3.json`.
//!
//! With `--ckpt-dir`, every completed network cell is checkpointed; a
//! killed sweep rerun with `--resume` skips the finished cells and
//! produces a byte-identical report.

use crate::{panel_speedups, speedup_cells, CellResult, Session};
use nscc_bayes::{StopRule, TABLE2};
use nscc_core::fmt::render_table;
use nscc_core::{run_bayes_experiment, BayesExperiment};
use nscc_sim::SimTime;

pub(super) fn run(mut session: Session) -> u8 {
    let title = "Figure 3: Bayesian-network speedups on the unloaded network (2 processors)";
    print!("{}", session.banner(title, true));

    let scale = &session.scale;
    let cells = session.sweep(&TABLE2, |&netid, obs| {
        let mut exp = BayesExperiment {
            stop: StopRule {
                halfwidth: scale.ci,
                ..StopRule::default()
            },
            runs: scale.runs,
            base_seed: scale.seed,
            obs,
            ..BayesExperiment::new(netid, 2)
        };
        exp.platform.msg.mailbox_warn = scale.mailbox_warn;
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
        let (speedups, improvement) = panel_speedups(&[c]);
        rows.push(
            [
                vec![name.to_string(), format!("{seq_s:.2}")],
                speedup_cells(&speedups, improvement),
            ]
            .concat(),
        );
        let best = (0..labels.len())
            .filter(|&i| labels[i].starts_with("age="))
            .max_by(|&a, &b| speedups[a].total_cmp(&speedups[b]))
            .expect("age rows exist");
        footer.push(format!(
            "{name}: async={:.0} best-age={:.0}",
            c.rollbacks[1], c.rollbacks[best]
        ));
        rep.metric(format!("{name}_seq_s"), seq_s);
        rep.metric(format!("{name}_improvement"), improvement);
        for (label, s) in labels.iter().zip(&speedups) {
            rep.metric(format!("{name}_{label}"), *s);
        }
    }
    // Average panel: ratio of summed sequential to summed parallel times.
    let (speedups, improvement) = panel_speedups(&cells.iter().collect::<Vec<_>>());
    rows.push(
        [
            vec!["average".to_string(), String::new()],
            speedup_cells(&speedups, improvement),
        ]
        .concat(),
    );
    print!("{}", render_table(&rows));
    println!(
        "\nrollbacks per converged run (mean): {}",
        footer.join("  ")
    );

    rep.param("runs", session.scale.runs as f64)
        .param("ci", session.scale.ci)
        .param("seed", session.scale.seed as f64)
        .param("procs", 2.0);
    session.finish(Some(&cells));
    0
}
