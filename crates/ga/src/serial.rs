//! The optimized serial GA baseline (single deme, fitness cache, virtual
//! time accumulated through the cost model).

use rand::rngs::StdRng;
use rand::SeedableRng;

use nscc_sim::SimTime;

use crate::cost::CostModel;
use crate::functions::TestFn;
use crate::params::GaParams;
use crate::population::{Deme, GenWork};

/// Result of a serial GA run.
#[derive(Debug, Clone)]
pub struct SerialResult {
    /// Best fitness ever observed.
    pub best: f64,
    /// Virtual CPU time of the whole run.
    pub time: SimTime,
    /// Generations executed.
    pub generations: u64,
    /// Best-ever fitness after each generation (index 0 = after gen 1).
    pub history: Vec<f64>,
    /// Cumulative virtual time after each generation (parallel to
    /// `history`).
    pub time_history: Vec<SimTime>,
    /// Total work performed.
    pub work: GenWork,
}

impl SerialResult {
    /// The virtual time at which the run first reached quality `target`
    /// (`None` if it never did). This is the serial side of the
    /// time-to-quality comparison.
    pub fn time_to_quality(&self, target: f64) -> Option<SimTime> {
        self.history
            .iter()
            .position(|&b| b <= target)
            .map(|i| self.time_history[i])
    }
}

/// The serial GA: one deme of the *total* population size (the paper
/// scales total population linearly with processor count, so the serial
/// baseline for `p` processors runs `p * 50` individuals).
pub struct SerialGa {
    deme: Deme,
    rng: StdRng,
    cost: CostModel,
    time: SimTime,
    history: Vec<f64>,
    time_history: Vec<SimTime>,
}

impl SerialGa {
    /// Build a serial GA over `func` with the given parameters and cost
    /// model; `seed` determines the initial population and all stochastic
    /// choices.
    pub fn new(func: TestFn, params: GaParams, cost: CostModel, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let deme = Deme::new(func, params, &mut rng);
        SerialGa {
            deme,
            rng,
            cost,
            time: SimTime::ZERO,
            history: Vec::new(),
            time_history: Vec::new(),
        }
    }

    /// Run exactly `generations` generations.
    pub fn run(mut self, generations: u64) -> SerialResult {
        for _ in 0..generations {
            let work = self.deme.step(&mut self.rng);
            self.time += self.cost.generation_cost(work, &mut self.rng);
            self.history.push(self.deme.best_ever().fitness);
            self.time_history.push(self.time);
        }
        SerialResult {
            best: self.deme.best_ever().fitness,
            time: self.time,
            generations,
            history: self.history,
            time_history: self.time_history,
            work: self.deme.total_work(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_run_accumulates_time_and_history() {
        let r = SerialGa::new(
            TestFn::F1Sphere,
            GaParams::default(),
            CostModel::deterministic(),
            42,
        )
        .run(50);
        assert_eq!(r.generations, 50);
        assert_eq!(r.history.len(), 50);
        assert!(r.time > SimTime::ZERO);
        // History of best-ever is non-increasing.
        for w in r.history.windows(2) {
            assert!(w[1] <= w[0]);
        }
        assert_eq!(r.best, *r.history.last().expect("nonempty history"));
    }

    #[test]
    fn bigger_populations_cost_more_time() {
        let time = |n: usize| {
            SerialGa::new(
                TestFn::F1Sphere,
                GaParams::with_pop_size(n),
                CostModel::deterministic(),
                1,
            )
            .run(20)
            .time
        };
        assert!(time(200) > time(50) * 2);
    }
}
