//! `ga_sweep` — fig2/fig4-shaped island-GA cells, observability detached.
//!
//! Three shapes, because they load the layers differently: the F1 cell is
//! almost pure `sim` hand-offs plus `msg`/`dsm`/`net` on the clean path;
//! the F6 cell has a 20-variable kernel, so the `ga` share rises; the
//! loaded cell adds the loader pair's background frames, so the `net`
//! share rises. Every cell runs the serial baseline, the synchronous
//! reference and all seven coherence modes once.
//!
//! The cells are a fifth of fig2-quick's length (50 / 20 generations, not
//! 250 / 100): a pass must fit the benchmark's run budget several times
//! over, and nine short cells give more op samples than two long ones.

use nscc_ckpt::{fnv1a, Enc, Snapshot};
use nscc_core::{run_ga_experiment, GaExpResult, GaExperiment, Platform};
use nscc_ga::{CostModel, TestFn};

use super::{cell_seeds, count_cell, count_comm, count_dsm, count_net, ObsProbe, Size, Workload};
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy)]
struct Shape {
    span: &'static str,
    func: TestFn,
    procs: usize,
    generations: u64,
    load_mbps: f64,
}

const SHAPES: [Shape; 3] = [
    Shape {
        span: "core.ga_cell_f1",
        func: TestFn::F1Sphere,
        procs: 8,
        generations: 50,
        load_mbps: 0.0,
    },
    Shape {
        span: "core.ga_cell_f6",
        func: TestFn::F6Rastrigin,
        procs: 8,
        generations: 20,
        load_mbps: 0.0,
    },
    Shape {
        span: "core.ga_cell_loaded",
        func: TestFn::F1Sphere,
        procs: 6,
        generations: 50,
        load_mbps: 1.0,
    },
];

/// Seeds per shape at full size (ops = 3 × this).
const SEEDS_FULL: usize = 3;

pub struct GaSweep {
    cells: Vec<(Shape, GaExperiment)>,
}

impl GaSweep {
    pub fn setup(size: Size) -> GaSweep {
        let mut rng = cell_seeds(1);
        let (seeds, scale) = match size {
            Size::Full => (SEEDS_FULL, 1),
            Size::Smoke => (1, 4),
        };
        let mut cells = Vec::new();
        for _ in 0..seeds {
            for shape in SHAPES {
                let procs = if size == Size::Smoke { 3 } else { shape.procs };
                let platform = if shape.load_mbps > 0.0 {
                    Platform::loaded_ethernet(procs, shape.load_mbps)
                } else {
                    Platform::paper_ethernet(procs)
                };
                cells.push((
                    shape,
                    GaExperiment {
                        generations: shape.generations / scale,
                        runs: 1,
                        // `run r` uses `base_seed + r`: keep clear of overflow.
                        base_seed: rng.next_u64() >> 16,
                        platform,
                        cost: CostModel::deterministic(),
                        ..GaExperiment::new(shape.func, procs)
                    },
                ));
            }
        }
        GaSweep { cells }
    }
}

fn digest(res: &GaExpResult) -> u64 {
    let mut e = Enc::new();
    res.net.encode(&mut e);
    res.comm.encode(&mut e);
    res.serial_time.encode(&mut e);
    e.put_f64(res.serial_best);
    for m in &res.modes {
        e.put_str(&m.label);
        m.mean_time.encode(&mut e);
        e.put_f64(m.speedup);
        e.put_f64(m.mean_best);
        e.put_f64(m.mean_generations);
        e.put_f64(m.success_rate);
        m.dsm.encode(&mut e);
    }
    fnv1a(&e.into_bytes())
}

impl Workload for GaSweep {
    fn ops(&self) -> usize {
        self.cells.len()
    }

    fn run_op(&self, i: usize, tr: &mut Tracer) -> Result<u64, String> {
        let (shape, exp) = &self.cells[i];
        let probe = tr.is_on().then(|| ObsProbe::attach(false));
        let exp = GaExperiment {
            obs: probe.as_ref().map(|p| p.hub.clone()),
            ..exp.clone()
        };
        let res = tr
            .span(shape.span, "core", |_| run_ga_experiment(&exp))
            .map_err(|e| e.to_string())?;
        if let Some(p) = &probe {
            p.collect_clean(tr)?;
            // Island-generations the kernel executed: every reported mode,
            // plus the serial baseline, which evolves the whole population
            // (50 × procs) to the cap — `procs` island-generations each.
            let mut gens = (exp.generations * exp.cap_factor * exp.procs as u64) as f64;
            for m in &res.modes {
                count_dsm(tr, &m.dsm);
                gens += m.mean_generations * exp.procs as f64;
            }
            tr.count("ga.generations", gens);
            if matches!(shape.func, TestFn::F6Rastrigin) {
                tr.count("ga.generations_f6", gens);
            }
            count_net(tr, &res.net);
            count_comm(tr, &res.comm);
            let times = res.modes.iter().map(|m| m.mean_time);
            count_cell(tr, res.serial_time, times, Some(res.improvement()));
        }
        Ok(digest(&res))
    }

    fn tail_percentile(&self) -> f64 {
        0.75
    }
}
