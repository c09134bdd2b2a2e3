//! Demes (sub-populations) and the generational step: windowed fitness
//! scaling, roulette selection, single-point crossover, bitwise mutation,
//! elitism, and migrant incorporation.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::Rng;
use serde::Serialize;

use crate::cache::FitnessCache;
use crate::encoding::Genome;
use crate::functions::TestFn;
use crate::params::{GaParams, Selection};

/// One candidate solution with its (raw, minimized) fitness.
#[derive(Debug, Clone, Serialize)]
pub struct Individual {
    /// The bit-string genotype.
    pub genome: Genome,
    /// Raw objective value (lower is better).
    pub fitness: f64,
}

/// Work performed by one generational step, for the compute-cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GenWork {
    /// True fitness evaluations (cache misses).
    pub evals: u64,
    /// Evaluations avoided by the fitness cache.
    pub cache_hits: u64,
    /// Individuals processed by selection/crossover/mutation.
    pub individuals: u64,
}

impl GenWork {
    /// Element-wise accumulation.
    pub fn merge(&mut self, other: GenWork) {
        self.evals += other.evals;
        self.cache_hits += other.cache_hits;
        self.individuals += other.individuals;
    }
}

impl nscc_ckpt::Snapshot for Individual {
    fn encode(&self, enc: &mut nscc_ckpt::Enc) {
        self.genome.encode(enc);
        enc.put_f64(self.fitness);
    }

    fn decode(dec: &mut nscc_ckpt::Dec<'_>) -> Result<Self, nscc_ckpt::CkptError> {
        Ok(Individual {
            genome: Genome::decode(dec)?,
            fitness: dec.f64()?,
        })
    }
}

impl nscc_ckpt::Snapshot for GenWork {
    fn encode(&self, enc: &mut nscc_ckpt::Enc) {
        enc.put_u64(self.evals);
        enc.put_u64(self.cache_hits);
        enc.put_u64(self.individuals);
    }

    fn decode(dec: &mut nscc_ckpt::Dec<'_>) -> Result<Self, nscc_ckpt::CkptError> {
        Ok(GenWork {
            evals: dec.u64()?,
            cache_hits: dec.u64()?,
            individuals: dec.u64()?,
        })
    }
}

/// The semantic state of a [`Deme`], extracted for checkpointing. The
/// fitness cache is deliberately excluded: it is a performance artifact
/// whose entries are recomputable, so a restored deme restarts with a cold
/// cache and identical GA behaviour (cache hits change *work accounting*,
/// never selection outcomes — lookups return the same fitness a fresh
/// evaluation would).
#[derive(Debug, Clone)]
pub struct DemeState {
    /// The population, in the deme's current internal order.
    pub pop: Vec<Individual>,
    /// The scaling window of recent worst fitnesses, oldest first.
    pub window: Vec<f64>,
    /// Generations evolved so far.
    pub generation: u64,
    /// Elitist memory.
    pub best_ever: Individual,
    /// Accumulated work counters.
    pub total_work: GenWork,
}

impl nscc_ckpt::Snapshot for DemeState {
    fn encode(&self, enc: &mut nscc_ckpt::Enc) {
        self.pop.encode(enc);
        self.window.encode(enc);
        enc.put_u64(self.generation);
        self.best_ever.encode(enc);
        self.total_work.encode(enc);
    }

    fn decode(dec: &mut nscc_ckpt::Dec<'_>) -> Result<Self, nscc_ckpt::CkptError> {
        Ok(DemeState {
            pop: Vec::<Individual>::decode(dec)?,
            window: Vec::<f64>::decode(dec)?,
            generation: dec.u64()?,
            best_ever: Individual::decode(dec)?,
            total_work: GenWork::decode(dec)?,
        })
    }
}

/// A deme: one (sub-)population evolving under the paper's GA settings.
pub struct Deme {
    func: TestFn,
    params: GaParams,
    pop: Vec<Individual>,
    /// Worst raw fitness of each of the last `W` generations (scaling
    /// baseline C_w = max over this window).
    window: VecDeque<f64>,
    generation: u64,
    best_ever: Individual,
    cache: FitnessCache,
    total_work: GenWork,
}

impl Deme {
    /// A fresh random deme. Different seeds produce disjoint initial
    /// populations (the paper initializes every deme differently).
    pub fn new(func: TestFn, params: GaParams, rng: &mut StdRng) -> Self {
        params.validate();
        let mut cache = FitnessCache::new(func);
        let mut work = GenWork::default();
        let pop: Vec<Individual> = (0..params.pop_size)
            .map(|_| {
                let genome = Genome::random(func.genome_bits(), rng);
                let (fitness, hit) = cache.fitness(&genome, rng);
                if hit {
                    work.cache_hits += 1;
                } else {
                    work.evals += 1;
                }
                Individual { genome, fitness }
            })
            .collect();
        let best_ever = pop
            .iter()
            .min_by(|a, b| a.fitness.total_cmp(&b.fitness))
            .expect("population is nonempty")
            .clone();
        let worst = pop
            .iter()
            .map(|i| i.fitness)
            .fold(f64::NEG_INFINITY, f64::max);
        let mut window = VecDeque::new();
        window.push_back(worst);
        Deme {
            func,
            params,
            pop,
            window,
            generation: 0,
            best_ever,
            cache,
            total_work: work,
        }
    }

    /// The benchmark function this deme optimizes.
    pub fn func(&self) -> TestFn {
        self.func
    }

    /// Generations evolved so far.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Current population (read-only).
    pub fn population(&self) -> &[Individual] {
        &self.pop
    }

    /// Best individual ever observed in this deme (elitist memory).
    pub fn best_ever(&self) -> &Individual {
        &self.best_ever
    }

    /// Best fitness in the *current* population.
    pub fn current_best(&self) -> f64 {
        self.pop
            .iter()
            .map(|i| i.fitness)
            .fold(f64::INFINITY, f64::min)
    }

    /// Mean fitness of the current population (solution-quality metric).
    pub fn mean_fitness(&self) -> f64 {
        self.pop.iter().map(|i| i.fitness).sum::<f64>() / self.pop.len() as f64
    }

    /// Total work performed since construction.
    pub fn total_work(&self) -> GenWork {
        self.total_work
    }

    /// Cache statistics `(hits, misses)`.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache.hits(), self.cache.misses())
    }

    /// Extract the deme's semantic state for a checkpoint (see
    /// [`DemeState`] for what is and isn't captured).
    pub fn export_state(&self) -> DemeState {
        DemeState {
            pop: self.pop.clone(),
            window: self.window.iter().copied().collect(),
            generation: self.generation,
            best_ever: self.best_ever.clone(),
            total_work: self.total_work,
        }
    }

    /// Rebuild a deme from checkpointed state. `func` and `params` come
    /// from the run configuration (they are static and never encoded); the
    /// fitness cache restarts cold.
    pub fn from_state(func: TestFn, params: GaParams, state: DemeState) -> Self {
        params.validate();
        assert!(!state.pop.is_empty(), "checkpointed population is empty");
        Deme {
            func,
            params,
            pop: state.pop,
            window: state.window.into_iter().collect(),
            generation: state.generation,
            best_ever: state.best_ever,
            cache: FitnessCache::new(func),
            total_work: state.total_work,
        }
    }

    /// Evolve one generation; returns the work it cost.
    pub fn step(&mut self, rng: &mut StdRng) -> GenWork {
        let n = self.params.pop_size;
        let replace = ((n as f64 * self.params.generation_gap).round() as usize).clamp(1, n);

        // Windowed scaling: baseline is the worst fitness in the last W
        // generations; scaled fitness = baseline - raw (clamped at 0).
        let baseline = self
            .window
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let weights: Vec<f64> = self
            .pop
            .iter()
            .map(|i| (baseline - i.fitness).max(0.0))
            .collect();
        let total_weight: f64 = weights.iter().sum();
        let selection = self.params.selection;
        // Rank weights (best rank = n, worst = 1): only rank selection
        // reads them, so only rank selection pays for the sort.
        let rank_order: Vec<usize> = if matches!(selection, Selection::Rank) {
            let mut idx: Vec<usize> = (0..self.pop.len()).collect();
            idx.sort_by(|&a, &b| self.pop[a].fitness.total_cmp(&self.pop[b].fitness));
            idx
        } else {
            Vec::new()
        };

        let pop_ref = &self.pop;
        let select = |rng: &mut StdRng| -> usize {
            match selection {
                Selection::RouletteWindow => {
                    if total_weight <= 0.0 {
                        rng.gen_range(0..pop_ref.len())
                    } else {
                        let mut t = rng.gen::<f64>() * total_weight;
                        for (i, w) in weights.iter().enumerate() {
                            t -= w;
                            if t <= 0.0 {
                                return i;
                            }
                        }
                        pop_ref.len() - 1
                    }
                }
                Selection::Tournament { k } => {
                    let mut best = rng.gen_range(0..pop_ref.len());
                    for _ in 1..k {
                        let c = rng.gen_range(0..pop_ref.len());
                        if pop_ref[c].fitness < pop_ref[best].fitness {
                            best = c;
                        }
                    }
                    best
                }
                Selection::Rank => {
                    // Linear rank: weight n for the best, 1 for the worst.
                    let n = pop_ref.len();
                    let total = n * (n + 1) / 2;
                    let mut t = rng.gen_range(0..total);
                    for (r, &i) in rank_order.iter().enumerate() {
                        let w = n - r;
                        if t < w {
                            return i;
                        }
                        t -= w;
                    }
                    rank_order[n - 1]
                }
            }
        };

        // Breed the replacement cohort.
        let bits = self.func.genome_bits();
        let mut children: Vec<Genome> = Vec::with_capacity(replace);
        while children.len() < replace {
            let p1 = select(rng);
            let p2 = select(rng);
            let (mut c1, mut c2) = if rng.gen::<f64>() < self.params.crossover_rate {
                let point = rng.gen_range(1..bits);
                self.pop[p1].genome.crossover(&self.pop[p2].genome, point)
            } else {
                (self.pop[p1].genome.clone(), self.pop[p2].genome.clone())
            };
            c1.mutate(self.params.mutation_rate, rng);
            c2.mutate(self.params.mutation_rate, rng);
            children.push(c1);
            if children.len() < replace {
                children.push(c2);
            }
        }

        // Evaluate children through the cache.
        let mut work = GenWork {
            individuals: replace as u64,
            ..GenWork::default()
        };
        let children: Vec<Individual> = children
            .into_iter()
            .map(|genome| {
                let (fitness, hit) = self.cache.fitness(&genome, rng);
                if hit {
                    work.cache_hits += 1;
                } else {
                    work.evals += 1;
                }
                Individual { genome, fitness }
            })
            .collect();

        // Replace the worst `replace` individuals when G < 1, else the
        // whole population.
        if replace == n {
            self.pop = children;
        } else {
            self.sort_worst_last();
            let keep = n - replace;
            self.pop.truncate(keep);
            self.pop.extend(children);
        }

        // Elitism: the previous best survives if everything new is worse.
        if self.params.elitist {
            let new_best = self.current_best();
            if self.best_ever.fitness < new_best {
                let worst_idx = self
                    .pop
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.fitness.total_cmp(&b.1.fitness))
                    .map(|(i, _)| i)
                    .expect("population is nonempty");
                self.pop[worst_idx] = self.best_ever.clone();
            }
        }

        self.after_change();
        self.generation += 1;
        let worst = self
            .pop
            .iter()
            .map(|i| i.fitness)
            .fold(f64::NEG_INFINITY, f64::max);
        self.window.push_back(worst);
        while self.window.len() > self.params.scaling_window {
            self.window.pop_front();
        }
        self.total_work.merge(work);
        work
    }

    /// The best `count` individuals (ascending fitness), cloned, as the
    /// outgoing migrant batch.
    pub fn migrants(&self, count: usize) -> Vec<Individual> {
        let mut sorted: Vec<&Individual> = self.pop.iter().collect();
        sorted.sort_by(|a, b| a.fitness.total_cmp(&b.fitness));
        sorted.into_iter().take(count).cloned().collect()
    }

    /// Replace the worst individuals with `migrants` — each migrant only
    /// displaces a resident that is actually worse (stale migrant batches
    /// must not poison a deme that has since moved past them).
    pub fn incorporate(&mut self, migrants: &[Individual]) {
        if migrants.is_empty() {
            return;
        }
        let mut migrants: Vec<&Individual> = migrants.iter().collect();
        migrants.sort_by(|a, b| a.fitness.total_cmp(&b.fitness));
        self.sort_worst_last();
        let n = self.pop.len();
        for (i, migrant) in migrants.iter().enumerate() {
            if i >= n {
                break;
            }
            let slot = n - 1 - i; // worst remaining resident
            if migrant.fitness < self.pop[slot].fitness {
                self.pop[slot] = (*migrant).clone();
            } else {
                break; // residents are only better from here inward
            }
        }
        self.after_change();
    }

    fn sort_worst_last(&mut self) {
        self.pop.sort_by(|a, b| a.fitness.total_cmp(&b.fitness));
    }

    fn after_change(&mut self) {
        if let Some(best) = self
            .pop
            .iter()
            .min_by(|a, b| a.fitness.total_cmp(&b.fitness))
        {
            if best.fitness < self.best_ever.fitness {
                self.best_ever = best.clone();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn deme(func: TestFn, seed: u64) -> (Deme, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = Deme::new(func, GaParams::default(), &mut rng);
        (d, rng)
    }

    #[test]
    fn initial_population_is_evaluated() {
        let (d, _) = deme(TestFn::F1Sphere, 0);
        assert_eq!(d.population().len(), 50);
        assert!(d.population().iter().all(|i| i.fitness.is_finite()));
        assert_eq!(d.generation(), 0);
    }

    #[test]
    fn best_ever_is_monotone_under_steps() {
        let (mut d, mut rng) = deme(TestFn::F6Rastrigin, 1);
        let mut prev = d.best_ever().fitness;
        for _ in 0..30 {
            d.step(&mut rng);
            let now = d.best_ever().fitness;
            assert!(now <= prev, "best-ever regressed: {prev} -> {now}");
            prev = now;
        }
    }

    #[test]
    fn elitism_keeps_best_in_population() {
        let (mut d, mut rng) = deme(TestFn::F1Sphere, 2);
        for _ in 0..20 {
            d.step(&mut rng);
            assert!(
                d.current_best() <= d.best_ever().fitness + 1e-12,
                "elitism must keep the best individual alive"
            );
        }
    }

    #[test]
    fn ga_actually_optimizes_the_sphere() {
        let (mut d, mut rng) = deme(TestFn::F1Sphere, 3);
        let start = d.best_ever().fitness;
        for _ in 0..200 {
            d.step(&mut rng);
        }
        let end = d.best_ever().fitness;
        assert!(
            end < start * 0.2 || end < 0.05,
            "GA failed to make progress: {start} -> {end}"
        );
    }

    #[test]
    fn migrants_are_the_best_and_sorted() {
        let (d, _) = deme(TestFn::F1Sphere, 4);
        let m = d.migrants(25);
        assert_eq!(m.len(), 25);
        for w in m.windows(2) {
            assert!(w[0].fitness <= w[1].fitness);
        }
        assert_eq!(m[0].fitness, d.current_best());
    }

    #[test]
    fn incorporate_replaces_worst() {
        let (mut d, mut rng) = deme(TestFn::F1Sphere, 5);
        // Fabricate perfect migrants at the optimum.
        let hero = {
            let genome = Genome::zeros(TestFn::F1Sphere.genome_bits());
            Individual {
                genome,
                fitness: f64::MIN_POSITIVE,
            }
        };
        let worst_before = d
            .population()
            .iter()
            .map(|i| i.fitness)
            .fold(f64::NEG_INFINITY, f64::max);
        d.incorporate(&vec![hero; 10]);
        let worst_after = d
            .population()
            .iter()
            .map(|i| i.fitness)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(worst_after <= worst_before);
        assert_eq!(d.current_best(), f64::MIN_POSITIVE);
        // Migration counts as a population change, not a generation.
        assert_eq!(d.generation(), 0);
        d.step(&mut rng);
        assert_eq!(d.generation(), 1);
    }

    #[test]
    fn cache_hits_accumulate_for_survivors() {
        let (mut d, mut rng) = deme(TestFn::F3Step, 6);
        for _ in 0..50 {
            d.step(&mut rng);
        }
        let (hits, misses) = d.cache_stats();
        assert!(hits > 0, "converging GA must re-encounter genomes");
        assert!(misses > 0);
    }

    #[test]
    fn work_counters_add_up() {
        let (mut d, mut rng) = deme(TestFn::F2Rosenbrock, 7);
        let w = d.step(&mut rng);
        assert_eq!(w.individuals, 50);
        assert_eq!(w.evals + w.cache_hits, 50);
    }

    #[test]
    fn generation_gap_below_one_replaces_fewer() {
        let mut rng = StdRng::seed_from_u64(8);
        let params = GaParams {
            generation_gap: 0.2,
            ..GaParams::default()
        };
        let mut d = Deme::new(TestFn::F1Sphere, params, &mut rng);
        let w = d.step(&mut rng);
        assert_eq!(w.individuals, 10);
    }

    #[test]
    fn deterministic_evolution_per_seed() {
        let run = |seed| {
            let (mut d, mut rng) = deme(TestFn::F8Griewank, seed);
            for _ in 0..20 {
                d.step(&mut rng);
            }
            d.best_ever().fitness
        };
        assert_eq!(run(9), run(9));
    }
}

#[cfg(test)]
mod selection_behavior_tests {
    use super::*;
    use crate::params::Selection;
    use rand::SeedableRng;

    fn converges_with(selection: Selection, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = GaParams {
            selection,
            ..GaParams::default()
        };
        let mut d = Deme::new(TestFn::F1Sphere, params, &mut rng);
        for _ in 0..150 {
            d.step(&mut rng);
        }
        d.best_ever().fitness
    }

    #[test]
    fn every_selection_strategy_optimizes() {
        for s in [
            Selection::RouletteWindow,
            Selection::Tournament { k: 2 },
            Selection::Tournament { k: 4 },
            Selection::Rank,
        ] {
            let best = converges_with(s, 11);
            assert!(best < 0.2, "{s:?} failed to optimize the sphere: {best}");
        }
    }

    #[test]
    fn stronger_tournaments_select_more_greedily() {
        // With heavier selection pressure, early convergence is faster on
        // a unimodal function.
        let mut rng = StdRng::seed_from_u64(5);
        let mk = |k: usize, rng: &mut StdRng| {
            let params = GaParams {
                selection: Selection::Tournament { k },
                ..GaParams::default()
            };
            let mut d = Deme::new(TestFn::F1Sphere, params, rng);
            for _ in 0..15 {
                d.step(rng);
            }
            d.best_ever().fitness
        };
        let weak = mk(1, &mut rng); // k=1 is random selection
        let strong = mk(6, &mut rng);
        assert!(
            strong < weak,
            "6-tournament ({strong}) should beat random selection ({weak}) early"
        );
    }
}
