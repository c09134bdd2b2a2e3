//! Regenerate **Table 2**: the four Bayesian belief networks — structure
//! statistics, 2-way partition edge-cut, and uniprocessor inference time
//! (logic sampling to a 90% CI of the configured half-width). With
//! `--json` also writes `BENCH_table2.json` (the baseline is sequential,
//! so no DSM/network counters are involved).

use crate::Session;
use nscc_bayes::{Plan, StopRule, TABLE2};
use nscc_core::fmt::render_table;
use nscc_core::{run_sequential, BayesExperiment};

pub(super) fn run(mut session: Session) -> u8 {
    print!(
        "{}",
        session.banner("Table 2: Four Bayesian belief networks", true)
    );

    let mut rows = vec![["", "A", "AA", "C", "Hailfinder"]
        .map(String::from)
        .to_vec()];
    let mut nodes = vec!["Nodes".to_string()];
    let mut epn = vec!["Edges per node".to_string()];
    let mut vals = vec!["Values per node".to_string()];
    let mut cut = vec!["Edge-cut (2 parts)".to_string()];
    let mut cut_paper = vec!["  (paper)".to_string()];
    let mut time = vec!["Uniproc time (s)".to_string()];
    let mut time_paper = vec!["  (paper)".to_string()];
    let mut samples = vec!["Samples".to_string()];
    let (scale, rep) = (&session.scale, &mut session.report);
    rep.param("runs", scale.runs as f64)
        .param("ci", scale.ci)
        .param("seed", scale.seed as f64);

    for (i, netid) in TABLE2.iter().enumerate() {
        let net = netid.build();
        let mut exp = BayesExperiment::new(*netid, 2);
        exp.stop = StopRule {
            halfwidth: scale.ci,
            ..StopRule::default()
        };
        let query = exp.standard_query();
        let plan = Plan::new(&net, 2, 42, &query);
        let mut t_sum = 0.0;
        let mut s_sum = 0.0;
        for r in 0..scale.runs {
            let seq = run_sequential(&exp, scale.seed + r as u64);
            t_sum += seq.time.as_secs_f64();
            s_sum += seq.samples as f64;
        }
        nodes.push(net.len().to_string());
        epn.push(format!("{:.1}", net.edges_per_node()));
        vals.push(net.max_arity().to_string());
        cut.push(plan.edge_cut.to_string());
        cut_paper.push(["24", "30", "24", "4"][i].to_string());
        time.push(format!("{:.2}", t_sum / scale.runs as f64));
        time_paper.push(["11.12", "11.19", "11.81", "3.15"][i].to_string());
        samples.push(format!("{:.0}", s_sum / scale.runs as f64));
        let name = netid.name();
        rep.metric(format!("{name}_edge_cut"), plan.edge_cut as f64);
        rep.metric(format!("{name}_uniproc_s"), t_sum / scale.runs as f64);
        rep.metric(format!("{name}_samples"), s_sum / scale.runs as f64);
    }
    rows.extend([nodes, epn, vals, cut, cut_paper, time, time_paper, samples]);
    print!("{}", render_table(&rows));
    session.finish(None);
    0
}
