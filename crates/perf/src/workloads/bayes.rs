//! `bayes_sweep` — fig3-shaped parallel logic-sampling cells.
//!
//! The same `sim`/`msg`/`dsm` layers as `ga_sweep`, used differently: two
//! processes instead of eight, small block messages, the rollback /
//! anti-message path instead of barriers, and a larger kernel share. A
//! scheduler gain tuned to 8-way barriers that costs 2-way ping-pong
//! shows here.

use nscc_bayes::{StopRule, Table2Net, TABLE2};
use nscc_ckpt::{fnv1a, Enc, Snapshot};
use nscc_core::{run_bayes_experiment, BayesExpResult, BayesExperiment};

use super::{cell_seeds, count_cell, count_dsm, count_net, ObsProbe, Size, Workload};
use crate::trace::Tracer;

/// Seeds per network at full size (ops = 4 × this).
const SEEDS_FULL: usize = 3;

pub struct BayesSweep {
    cells: Vec<BayesExperiment>,
}

impl BayesSweep {
    pub fn setup(size: Size) -> BayesSweep {
        let mut rng = cell_seeds(2);
        let (seeds, nets): (usize, &[Table2Net]) = match size {
            Size::Full => (SEEDS_FULL, &TABLE2),
            Size::Smoke => (1, &[Table2Net::A, Table2Net::Hailfinder]),
        };
        let mut cells = Vec::new();
        for _ in 0..seeds {
            for &net in nets {
                cells.push(BayesExperiment {
                    // Looser than fig3's 0.02, so a pass fits the run
                    // budget several times over.
                    stop: StopRule {
                        halfwidth: if size == Size::Smoke { 0.08 } else { 0.03 },
                        ..StopRule::default()
                    },
                    runs: 1,
                    base_seed: rng.next_u64() >> 16,
                    ..BayesExperiment::new(net, 2)
                });
            }
        }
        BayesSweep { cells }
    }
}

fn digest(res: &BayesExpResult) -> u64 {
    let mut e = Enc::new();
    res.dsm.encode(&mut e);
    res.net_stats.encode(&mut e);
    res.seq_time.encode(&mut e);
    e.put_f64(res.seq_samples);
    e.put_u64(res.edge_cut as u64);
    for m in &res.modes {
        e.put_str(&m.label);
        m.mean_time.encode(&mut e);
        e.put_f64(m.speedup);
        e.put_f64(m.mean_samples);
        e.put_f64(m.mean_rollbacks);
        e.put_f64(m.success_rate);
    }
    fnv1a(&e.into_bytes())
}

impl Workload for BayesSweep {
    fn ops(&self) -> usize {
        self.cells.len()
    }

    fn run_op(&self, i: usize, tr: &mut Tracer) -> Result<u64, String> {
        let probe = tr.is_on().then(|| ObsProbe::attach(false));
        let exp = BayesExperiment {
            obs: probe.as_ref().map(|p| p.hub.clone()),
            ..self.cells[i].clone()
        };
        let res = tr
            .span("core.bayes_cell", "core", |_| run_bayes_experiment(&exp))
            .map_err(|e| e.to_string())?;
        if let Some(p) = &probe {
            p.collect_clean(tr)?;
            // `BayesExpResult` carries no `CommStats`; with the reliable
            // layer off every message is one network submission.
            tr.count("msg.sent", res.net_stats.messages as f64);
            count_dsm(tr, &res.dsm);
            count_net(tr, &res.net_stats);
            for m in &res.modes {
                tr.count("bayes.samples", m.mean_samples);
                tr.count("bayes.rollbacks", m.mean_rollbacks);
            }
            tr.count("bayes.samples", res.seq_samples);
            let times = res.modes.iter().map(|m| m.mean_time);
            count_cell(tr, res.seq_time, times, Some(res.improvement()));
        }
        Ok(digest(&res))
    }

    fn tail_percentile(&self) -> f64 {
        0.75
    }
}
