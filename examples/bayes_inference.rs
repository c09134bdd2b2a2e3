//! Parallel probabilistic inference with rollback: logic sampling over a
//! partitioned belief network under the three coherence disciplines.
//!
//! Run with `cargo run --release --example bayes_inference`.

use std::sync::Arc;

use nscc::bayes::{
    run_parallel_inference, sequential_inference, BayesCost, ParallelBayesConfig, Plan, Query,
    StopRule, Table2Net,
};
use nscc::core::Platform;
use nscc::dsm::Coherence;
use nscc::msg::MsgConfig;

fn main() {
    let netid = Table2Net::Hailfinder;
    let net = Arc::new(netid.build());
    let query = Query {
        node: net.len() - 1,
        evidence: vec![],
    };
    let plan = Plan::new(&net, 2, 42, &query);
    println!(
        "{}-like network: {} nodes, {:.1} edges/node, 2-way edge-cut {}",
        netid.name(),
        net.len(),
        net.edges_per_node(),
        plan.edge_cut
    );
    // Enumeration is exponential in the network size, far out of reach at
    // 56 four-valued nodes: a long sequential logic-sampling run is the
    // reference instead.
    let reference = sequential_inference(
        &net,
        &query,
        &StopRule {
            halfwidth: 0.002,
            ..StopRule::default()
        },
        &BayesCost::deterministic(),
        11,
        10_000_000,
    );
    println!(
        "sequential posterior of node {} ({} samples): {:?}\n",
        query.node,
        reference.samples,
        round3(&reference.posterior)
    );

    println!(
        "{:<8} {:>9} {:>8} {:>10} {:>10} {:>10}  posterior",
        "mode", "time (s)", "samples", "rollbacks", "discarded", "conv"
    );
    for mode in [
        Coherence::Synchronous,
        Coherence::ASYNC,
        Coherence::PartialAsync { age: 0 },
        Coherence::PartialAsync { age: 10 },
        Coherence::PartialAsync { age: 30 },
    ] {
        let cfg = ParallelBayesConfig {
            stop: StopRule {
                halfwidth: 0.015,
                ..StopRule::default()
            },
            ..ParallelBayesConfig::new(mode)
        };
        let res = run_parallel_inference(
            Arc::clone(&net),
            query.clone(),
            2,
            cfg,
            Platform::paper_ethernet(2).build_network_only(11),
            MsgConfig::default(),
            11,
        )
        .expect("inference runs");
        let rollbacks: u64 = res.per_part.iter().map(|p| p.rollbacks).sum();
        let discarded: u64 = res.per_part.iter().map(|p| p.discarded).sum();
        println!(
            "{:<8} {:>9.2} {:>8} {:>10} {:>10} {:>10}  {:?}",
            mode.label(),
            res.completion.as_secs_f64(),
            res.drawn,
            rollbacks,
            discarded,
            res.converged,
            round3(&res.posterior)
        );
    }
    println!(
        "\nsync never speculates (0 rollbacks) but stalls; full async speculates \
         without bound and wastes discarded work when it strays; Global_Read \
         bounds the staleness window and keeps both costs small."
    );
}

fn round3(v: &[f64]) -> Vec<f64> {
    v.iter().map(|x| (x * 1000.0).round() / 1000.0).collect()
}
