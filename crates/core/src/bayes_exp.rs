//! The Bayes experiment runner: regenerates the data behind Table 2's
//! uniprocessor inference times and Figure 3's parallel speedups.

use std::sync::Arc;

use nscc_bayes::{
    run_planned_inference, sequential_inference, BayesCost, BeliefNetwork, ParallelBayesConfig,
    Plan, Query, SeqResult, StopRule, Table2Net,
};
use nscc_dsm::DsmStats;
use nscc_net::NetStats;
use nscc_obs::Hub;
use nscc_partition::{edge_cut, partition};
use nscc_sim::{SimError, SimTime};

use crate::ga_exp::paper_modes;
use crate::platform::Platform;

/// Configuration of one Bayes experiment cell (network × partitions).
#[derive(Debug, Clone)]
pub struct BayesExperiment {
    /// The benchmark network.
    pub net: Table2Net,
    /// Processor (partition) count; the paper uses 2.
    pub procs: usize,
    /// Stopping rule (paper: 90% CI ± 0.01).
    pub stop: StopRule,
    /// Repetitions (the paper averages 10).
    pub runs: usize,
    /// Base seed.
    pub base_seed: u64,
    /// Platform.
    pub platform: Platform,
    /// Cost model.
    pub cost: BayesCost,
    /// Samples per block message.
    pub block: usize,
    /// Iteration cap per partition.
    pub max_iterations: u64,
    /// Optional observability hub, attached to every run's DSM world and
    /// network (shared across runs and modes: the cell aggregates).
    pub obs: Option<Hub>,
}

impl BayesExperiment {
    /// Paper-like defaults at a bench-friendly scale (looser CI than the
    /// paper's ±0.01 so cells finish quickly; harnesses can tighten it).
    pub fn new(net: Table2Net, procs: usize) -> Self {
        BayesExperiment {
            net,
            procs,
            stop: StopRule {
                halfwidth: 0.02,
                ..StopRule::default()
            },
            runs: 3,
            base_seed: 7000,
            platform: Platform::paper_ethernet(procs),
            cost: BayesCost::default(),
            block: 8,
            max_iterations: 200_000,
            obs: None,
        }
    }

    /// The standard query for this experiment's network, built as `net`:
    /// evidence on two early nodes
    /// (their default values, keeping the acceptance rate healthy) and a
    /// late query node chosen to reflect each network's character —
    /// *balanced* posteriors for the random networks (whose Table 2
    /// inference times are long) and a *skewed* diagnostic variable for
    /// the Hailfinder-alike (whose Table 2 time is short: skewed
    /// posteriors satisfy the ±0.01 CI with far fewer samples).
    pub fn standard_query(&self, net: &BeliefNetwork) -> Query {
        let defaults = net.default_values();
        // Estimate marginals of the last quarter of nodes with a quick
        // deterministic sweep.
        let probe = 2000u64;
        let start = net.len() - net.len() / 4;
        let mut counts = vec![vec![0u64; 8]; net.len()];
        let mut sample = Vec::new();
        for i in 1..=probe {
            nscc_bayes::forward_sample(net, 0xBEEF, i, &mut sample);
            for v in start..net.len() {
                counts[v][sample[v] as usize] += 1;
            }
        }
        let skewness = |v: usize| -> f64 {
            *counts[v].iter().max().expect("counts nonempty") as f64 / probe as f64
        };
        let candidates = start..net.len();
        let node = match self.net {
            Table2Net::Hailfinder => candidates
                .max_by(|&a, &b| skewness(a).total_cmp(&skewness(b)))
                .expect("candidates nonempty"),
            _ => candidates
                .min_by(|&a, &b| skewness(a).total_cmp(&skewness(b)))
                .expect("candidates nonempty"),
        };
        Query {
            node,
            evidence: vec![(0, defaults[0]), (1, defaults[1])],
        }
    }
}

/// Per-mode measurements, averaged over runs.
#[derive(Debug, Clone)]
pub struct BayesModeResult {
    /// Mode label.
    pub label: String,
    /// Mean completion time.
    pub mean_time: SimTime,
    /// Mean speedup over the sequential baseline.
    pub speedup: f64,
    /// Mean samples drawn to convergence.
    pub mean_samples: f64,
    /// Mean rollbacks per run (all partitions).
    pub mean_rollbacks: f64,
    /// Fraction of runs that converged before the cap.
    pub success_rate: f64,
}

/// Full result of one Bayes experiment cell.
#[derive(Debug, Clone)]
pub struct BayesExpResult {
    /// The network.
    pub net: Table2Net,
    /// Partition count.
    pub procs: usize,
    /// Mean sequential (uniprocessor) inference time — the Table 2 row.
    pub seq_time: SimTime,
    /// Mean sequential samples.
    pub seq_samples: f64,
    /// Edge-cut of the partition plan (Table 2 row).
    pub edge_cut: usize,
    /// One row per mode.
    pub modes: Vec<BayesModeResult>,
    /// Aggregate DSM counters over every parallel run in the cell.
    pub dsm: DsmStats,
    /// Aggregate network counters over every parallel run in the cell
    /// (`net` names the benchmark belief network).
    pub net_stats: NetStats,
}

impl BayesExpResult {
    /// Best partially-asynchronous speedup row.
    pub fn best_partial(&self) -> &BayesModeResult {
        self.modes
            .iter()
            .filter(|m| m.label.starts_with("age="))
            .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
            .expect("age rows exist")
    }

    /// Best competitor speedup (serial = 1.0, sync, async).
    pub fn best_competitor_speedup(&self) -> f64 {
        self.modes
            .iter()
            .filter(|m| m.label == "sync" || m.label == "async")
            .map(|m| m.speedup)
            .fold(1.0, f64::max)
    }

    /// Best partial over best competitor, as a ratio − 1.
    pub fn improvement(&self) -> f64 {
        self.best_partial().speedup / self.best_competitor_speedup() - 1.0
    }
}

/// Run the sequential baseline once (no network, pure virtual compute) on
/// the experiment's network, built as `net`, and its standard `query`.
pub fn run_sequential(
    exp: &BayesExperiment,
    net: &BeliefNetwork,
    query: &Query,
    seed: u64,
) -> SeqResult {
    sequential_inference(
        net,
        query,
        &exp.stop,
        &exp.cost,
        seed,
        exp.max_iterations * exp.block as u64,
    )
}

/// Run the full cell: sequential baseline plus every parallel mode.
pub fn run_bayes_experiment(exp: &BayesExperiment) -> Result<BayesExpResult, SimError> {
    let net = Arc::new(exp.net.build());
    let query = exp.standard_query(&net);
    let skel = net.skeleton();
    let edge_cut = edge_cut(&skel, &partition(&skel, exp.procs, 42));

    let modes = paper_modes();

    let mut seq_time_sum = SimTime::ZERO;
    let mut seq_samples_sum = 0.0;
    let mut dsm_total = DsmStats::default();
    let mut net_total = NetStats::default();
    let mut acc: Vec<Vec<(SimTime, u64, u64, bool)>> =
        (0..modes.len()).map(|_| Vec::new()).collect();

    for r in 0..exp.runs {
        let seed = exp.base_seed + r as u64;
        let seq = run_sequential(exp, &net, &query, seed);
        seq_time_sum += seq.time;
        seq_samples_sum += seq.samples as f64;
        // One partition per run, shared by every mode (the seed is the
        // one `run_parallel_inference` would derive for each of them).
        let plan = Plan::new(&net, exp.procs, seed ^ 0x9A97, &query);

        for (mi, &mode) in modes.iter().enumerate() {
            // Loaders (if any) need a SimBuilder; run_planned_inference
            // builds its own, so loaded Bayes runs use the network-only
            // build (the paper's loaded experiments are GA-only anyway).
            let network = exp.platform.build_network_only(seed);
            if let Some(hub) = &exp.obs {
                // Per-program boundary for any attached audit tap (epochs
                // and sequence numbers legitimately restart here).
                hub.note_run_boundary();
                network.attach_obs(hub.clone());
            }
            let cfg = ParallelBayesConfig {
                stop: exp.stop,
                cost: exp.cost.clone(),
                block: exp.block,
                max_iterations: exp.max_iterations,
                sample_seed: seed,
                obs: exp.obs.clone(),
                ..ParallelBayesConfig::new(mode)
            };
            let res = run_planned_inference(
                Arc::clone(&net),
                &query,
                &plan,
                cfg,
                network.clone(),
                exp.platform.msg.clone(),
                seed,
            )?;
            let rollbacks: u64 = res.per_part.iter().map(|p| p.rollbacks).sum();
            dsm_total.merge(&res.dsm);
            net_total.merge(&network.stats());
            acc[mi].push((res.completion, res.drawn, rollbacks, res.converged));
        }
    }

    let runs = exp.runs as f64;
    let seq_time = seq_time_sum / exp.runs as u64;
    let mode_results = modes
        .iter()
        .zip(acc)
        .map(|(mode, ms)| {
            let mean_time: SimTime =
                ms.iter().map(|&(t, _, _, _)| t).sum::<SimTime>() / ms.len() as u64;
            BayesModeResult {
                label: mode.label(),
                mean_time,
                speedup: seq_time.as_secs_f64() / mean_time.as_secs_f64(),
                mean_samples: ms.iter().map(|&(_, s, _, _)| s as f64).sum::<f64>() / runs,
                mean_rollbacks: ms.iter().map(|&(_, _, rb, _)| rb as f64).sum::<f64>() / runs,
                success_rate: ms.iter().filter(|&&(_, _, _, c)| c).count() as f64 / runs,
            }
        })
        .collect();

    Ok(BayesExpResult {
        net: exp.net,
        procs: exp.procs,
        seq_time,
        seq_samples: seq_samples_sum / runs,
        edge_cut,
        modes: mode_results,
        dsm: dsm_total,
        net_stats: net_total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_baseline_runs() {
        let exp = BayesExperiment {
            stop: StopRule {
                halfwidth: 0.05,
                ..StopRule::default()
            },
            cost: BayesCost::deterministic(),
            ..BayesExperiment::new(Table2Net::Hailfinder, 2)
        };
        let net = exp.net.build();
        let seq = run_sequential(&exp, &net, &exp.standard_query(&net), 1);
        assert!(seq.samples > 0);
        assert!(seq.time > SimTime::ZERO);
    }

    #[test]
    fn small_cell_produces_rows() {
        let exp = BayesExperiment {
            stop: StopRule {
                halfwidth: 0.05,
                ..StopRule::default()
            },
            runs: 1,
            cost: BayesCost::deterministic(),
            block: 4,
            ..BayesExperiment::new(Table2Net::Hailfinder, 2)
        };
        let res = run_bayes_experiment(&exp).unwrap();
        assert_eq!(res.modes.len(), 7);
        assert!(res.seq_time > SimTime::ZERO);
        for m in &res.modes {
            assert!(m.mean_time > SimTime::ZERO, "{}", m.label);
            assert!(m.success_rate > 0.0, "{} did not converge", m.label);
        }
    }
}
