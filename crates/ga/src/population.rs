//! Demes (sub-populations) and the generational step: windowed fitness
//! scaling, roulette selection, single-point crossover, bitwise mutation,
//! elitism, and migrant incorporation.

use std::cell::RefCell;
use std::collections::VecDeque;

use nscc_msg::WireSize;
use rand::rngs::StdRng;
use rand::Rng;

use crate::cache::FitnessCache;
use crate::encoding::Genome;
use crate::functions::TestFn;
use crate::params::GaParams;

/// One candidate solution with its (raw, minimized) fitness.
#[derive(Debug, Clone, Copy, nscc_ckpt::Snapshot)]
pub struct Individual {
    /// The bit-string genotype.
    pub genome: Genome,
    /// Raw objective value (lower is better).
    pub fitness: f64,
}

/// A migrant on the wire: its genome, then its fitness.
impl WireSize for Individual {
    fn wire_size(&self) -> usize {
        self.genome.wire_size() + self.fitness.wire_size()
    }
}

/// Work performed by one generational step, for the compute-cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, nscc_ckpt::Snapshot)]
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

/// The semantic state of a [`Deme`], extracted for checkpointing. The
/// fitness cache is deliberately excluded: it is a performance artifact
/// whose entries are recomputable, so a restored deme restarts with a cold
/// cache and identical GA behaviour (cache hits change *work accounting*,
/// never selection outcomes — lookups return the same fitness a fresh
/// evaluation would).
#[derive(Debug, Clone, nscc_ckpt::Snapshot)]
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

impl DemeState {
    /// Check that this state can belong to a deme of `func` under `params`:
    /// a population of exactly `pop_size` genomes (and an elitist memory)
    /// of `func`'s length. A state this crate exported always passes; one
    /// decoded from a damaged or foreign frame may not, and must be refused
    /// here rather than panic generations later.
    pub fn validate(&self, func: TestFn, params: &GaParams) -> Result<(), nscc_ckpt::CkptError> {
        if self.pop.len() != params.pop_size {
            return Err(nscc_ckpt::CkptError::Malformed(format!(
                "checkpointed population holds {} individuals, the run is configured for {}",
                self.pop.len(),
                params.pop_size
            )));
        }
        let bits = func.genome_bits();
        let mut genomes = self.pop.iter().chain([&self.best_ever]).map(|i| i.genome);
        if let Some(bad) = genomes.find(|g| g.len() != bits) {
            return Err(nscc_ckpt::CkptError::Malformed(format!(
                "checkpointed genome is {} bits long, {} codes {bits}",
                bad.len(),
                func.name()
            )));
        }
        Ok(())
    }
}

/// A deme: one (sub-)population evolving under the paper's GA settings.
///
/// An [`Individual`] is 48 plain bytes, so `pop` is the contiguous arena;
/// a generation is bred into `next` and the two are swapped, and every
/// other per-generation buffer lives here too — a step allocates nothing
/// (the fitness cache grows by doubling, and that is all).
pub struct Deme {
    func: TestFn,
    params: GaParams,
    pop: Vec<Individual>,
    /// The generation being bred; between steps, what a sort permutes into.
    next: Vec<Individual>,
    /// Roulette weights of `pop` and their running sums: `cum[0] = 0`,
    /// `cum[j + 1] = cum[j] + weights[j]`, so `cum[n]` is the total.
    weights: Vec<f64>,
    cum: Vec<f64>,
    /// Scratch of [`sorted_order`]. In a `RefCell` only so that `migrants`,
    /// a `&self` query, can sort through it too.
    order: RefCell<Vec<(i64, usize)>>,
    /// Worst raw fitness of each of the last `W` generations (scaling
    /// baseline C_w = max over this window).
    window: VecDeque<f64>,
    generation: u64,
    best_ever: Individual,
    cache: FitnessCache,
    total_work: GenWork,
}

/// Half-width, as a fraction of the total weight, of the band around each
/// boundary of the roulette wheel inside which [`roulette`] does not trust
/// the running sums and replays the sequential scan.
///
/// The scan's remainder after `j` subtractions and `t − cum[j]` are the same
/// real number, each computed with at most `j` roundings of at most
/// `ε·total` (ε = 2⁻⁵³): they differ by less than `2jε·total`, far below
/// `2⁻²⁰·total` for any population under 2³². So for a draw outside every
/// band both see the same sign at every boundary, and — weights being
/// non-negative, both sequences are monotone — pick the same index. A draw
/// lands in a band with probability ≈ (n+1)·2⁻¹⁹ (0.08 % at N=400).
const GUARD: f64 = 1.0 / (1u64 << 20) as f64;

/// The index the roulette wheel stops at for the draw `t ∈ [0, total)`: the
/// first `i` with `weights[0] + … + weights[i] ≥ t`, exactly as the
/// sequential scan decides it.
fn roulette(weights: &[f64], cum: &[f64], t: f64) -> usize {
    roulette_by_sums(cum, t).unwrap_or_else(|| roulette_scan(weights, t))
}

/// The boundaries below `t`, by binary search over the running sums (they
/// are non-decreasing: the weights are non-negative). `None` when `t` is
/// within the guard band of a boundary.
fn roulette_by_sums(cum: &[f64], t: f64) -> Option<usize> {
    let n = cum.len() - 1;
    let i = cum[1..].partition_point(|&c| c < t);
    let guard = cum[n] * GUARD;
    (i < n && t - cum[i] >= guard && cum[i + 1] - t >= guard).then_some(i)
}

/// The scan that defines the answer (and the stream every report is pinned
/// to): subtract weights until the remainder is used up.
fn roulette_scan(weights: &[f64], mut t: f64) -> usize {
    for (i, w) in weights.iter().enumerate() {
        t -= w;
        if t <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

/// An integer that orders like [`f64::total_cmp`] (the same bit trick).
fn total_order_key(f: f64) -> i64 {
    let bits = f.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// `pop`'s indices (each with its fitness key) as a stable sort by fitness
/// would arrange them, in `order`. The index is the second sort key, which
/// keeps ties in population order *and* makes the order total — so the
/// in-place unstable sort gives the stable result, without the scratch
/// buffer a stable sort may allocate.
fn sorted_order<'a>(pop: &[Individual], order: &'a mut Vec<(i64, usize)>) -> &'a [(i64, usize)] {
    order.clear();
    let keys = pop.iter().map(|i| total_order_key(i.fitness));
    order.extend(keys.zip(0..));
    order.sort_unstable();
    order
}

fn is_sorted(pop: &[Individual]) -> bool {
    pop.is_sorted_by(|a, b| a.fitness.total_cmp(&b.fitness).is_le())
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
        let best_ever = *pop
            .iter()
            .min_by(|a, b| a.fitness.total_cmp(&b.fitness))
            .expect("population is nonempty");
        let worst = pop
            .iter()
            .map(|i| i.fitness)
            .fold(f64::NEG_INFINITY, f64::max);
        let state = DemeState {
            pop,
            window: vec![worst],
            generation: 0,
            best_ever,
            total_work: work,
        };
        Deme::assemble(func, params, state, cache)
    }

    fn assemble(func: TestFn, params: GaParams, state: DemeState, cache: FitnessCache) -> Self {
        let n = params.pop_size;
        Deme {
            func,
            params,
            pop: state.pop,
            next: Vec::with_capacity(n),
            weights: Vec::with_capacity(n),
            cum: Vec::with_capacity(n + 1),
            order: RefCell::new(Vec::with_capacity(n)),
            window: state.window.into(),
            generation: state.generation,
            best_ever: state.best_ever,
            cache,
            total_work: state.total_work,
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
            best_ever: self.best_ever,
            total_work: self.total_work,
        }
    }

    /// Rebuild a deme from checkpointed state. `func` and `params` come
    /// from the run configuration (they are static and never encoded); the
    /// fitness cache restarts cold. A state that does not
    /// [`validate`](DemeState::validate) against them is an error.
    pub fn from_state(
        func: TestFn,
        params: GaParams,
        state: DemeState,
    ) -> Result<Self, nscc_ckpt::CkptError> {
        params.validate();
        state.validate(func, &params)?;
        Ok(Deme::assemble(func, params, state, FitnessCache::new(func)))
    }

    /// Evolve one generation; returns the work it cost.
    ///
    /// The RNG stream is part of the result (DESIGN.md, "GA kernel"): per
    /// pair of children two selections, the crossover coin, the cut point
    /// if it came up, then one draw per bit of each child; after the whole
    /// cohort is bred, two draws per cache miss in cohort order.
    pub fn step(&mut self, rng: &mut StdRng) -> GenWork {
        let n = self.params.pop_size;
        let replace = ((n as f64 * self.params.generation_gap).round() as usize).clamp(1, n);
        let keep = n - replace;

        // Windowed scaling: baseline is the worst fitness in the last W
        // generations; scaled fitness = baseline - raw (clamped at 0).
        let baseline = self
            .window
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let mut total_weight = 0.0;
        self.weights.clear();
        self.cum.clear();
        self.cum.push(0.0);
        for ind in &self.pop {
            let w = (baseline - ind.fitness).max(0.0);
            total_weight += w;
            self.weights.push(w);
            self.cum.push(total_weight);
        }

        let (pop, weights, cum) = (&self.pop, &self.weights, &self.cum);
        let select = |rng: &mut StdRng| -> usize {
            if total_weight <= 0.0 {
                rng.gen_range(0..pop.len())
            } else {
                roulette(weights, cum, rng.gen::<f64>() * total_weight)
            }
        };

        // Breed the replacement cohort straight into the next generation,
        // behind the seats of the `keep` survivors (seated below).
        let bits = self.func.genome_bits();
        self.next.clear();
        self.next.extend_from_slice(&pop[..keep]);
        while self.next.len() < n {
            let p1 = select(rng);
            let p2 = select(rng);
            let (mut c1, mut c2) = if rng.gen::<f64>() < self.params.crossover_rate {
                let point = rng.gen_range(1..bits);
                pop[p1].genome.crossover(&pop[p2].genome, point)
            } else {
                (pop[p1].genome, pop[p2].genome)
            };
            c1.mutate(self.params.mutation_rate, rng);
            c2.mutate(self.params.mutation_rate, rng);
            for genome in [c1, c2] {
                if self.next.len() < n {
                    self.next.push(Individual {
                        genome,
                        fitness: f64::NAN,
                    });
                }
            }
        }

        // Evaluate children through the cache.
        let mut work = GenWork {
            individuals: replace as u64,
            ..GenWork::default()
        };
        for child in &mut self.next[keep..] {
            let (fitness, hit) = self.cache.fitness(&child.genome, rng);
            child.fitness = fitness;
            if hit {
                work.cache_hits += 1;
            } else {
                work.evals += 1;
            }
        }

        // When G < 1 the best `keep` residents survive, best first. (The
        // seats already hold them if the population was sorted.)
        if keep > 0 && !is_sorted(&self.pop) {
            let order = sorted_order(&self.pop, self.order.get_mut());
            for (seat, &(_, i)) in self.next.iter_mut().zip(&order[..keep]) {
                *seat = self.pop[i];
            }
        }
        std::mem::swap(&mut self.pop, &mut self.next);

        // Elitism: the previous best survives if everything new is worse.
        if self.params.elitist {
            let new_best = self.current_best();
            if self.best_ever.fitness < new_best {
                let worst = self
                    .pop
                    .iter_mut()
                    .max_by(|a, b| a.fitness.total_cmp(&b.fitness))
                    .expect("population is nonempty");
                *worst = self.best_ever;
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

    /// The best `count` individuals (ascending fitness, ties in population
    /// order), copied, as the outgoing migrant batch — the batch is the
    /// only allocation.
    pub fn migrants(&self, count: usize) -> Vec<Individual> {
        let mut order = self.order.borrow_mut();
        let best = sorted_order(&self.pop, &mut order).iter().take(count);
        let mut batch = Vec::with_capacity(best.len());
        batch.extend(best.map(|&(_, i)| self.pop[i]));
        batch
    }

    /// Replace the worst individuals with `migrants` — each migrant only
    /// displaces a resident that is actually worse (stale migrant batches
    /// must not poison a deme that has since moved past them).
    pub fn incorporate(&mut self, migrants: &[Individual]) {
        if migrants.is_empty() {
            return;
        }
        self.sort_worst_last();
        // A batch cut by `migrants` arrives best first; anything else is
        // put in that order (stably) before it is read.
        if is_sorted(migrants) {
            self.displace(migrants.iter());
        } else {
            let mut sorted: Vec<&Individual> = migrants.iter().collect();
            sorted.sort_by(|a, b| a.fitness.total_cmp(&b.fitness));
            self.displace(sorted.into_iter());
        }
        self.after_change();
    }

    /// The `i`-th best migrant takes the seat of the `i`-th worst resident
    /// (`pop` is sorted) for as long as it is the better of the two.
    fn displace<'a>(&mut self, best_first: impl Iterator<Item = &'a Individual>) {
        for (resident, migrant) in self.pop.iter_mut().rev().zip(best_first) {
            if migrant.fitness < resident.fitness {
                *resident = *migrant;
            } else {
                break; // residents are only better from here inward
            }
        }
    }

    fn sort_worst_last(&mut self) {
        if is_sorted(&self.pop) {
            return;
        }
        let order = sorted_order(&self.pop, self.order.get_mut());
        self.next.clear();
        self.next.extend(order.iter().map(|&(_, i)| self.pop[i]));
        std::mem::swap(&mut self.pop, &mut self.next);
    }

    fn after_change(&mut self) {
        if let Some(best) = self
            .pop
            .iter()
            .min_by(|a, b| a.fitness.total_cmp(&b.fitness))
        {
            if best.fitness < self.best_ever.fitness {
                self.best_ever = *best;
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
mod roulette_tests {
    use super::*;
    use rand::SeedableRng;

    fn sums(weights: &[f64]) -> Vec<f64> {
        let mut cum = vec![0.0];
        for w in weights {
            cum.push(cum[cum.len() - 1] + w);
        }
        cum
    }

    /// `t`, its neighbours one ulp away, and points inside and outside the
    /// guard band on both sides.
    fn around(t: f64, guard: f64) -> [f64; 9] {
        [
            t,
            t.next_up(),
            t.next_down(),
            t + guard / 2.0,
            t - guard / 2.0,
            t + guard * 0.999,
            t - guard * 0.999,
            t + guard * 2.0,
            t - guard * 2.0,
        ]
    }

    #[test]
    fn draws_on_and_near_a_boundary_fall_back_and_agree() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut fell_back = 0;
        let mut disagreements_without_the_guard = 0;
        for case in 0..200 {
            let n = [2, 3, 50, 400][case % 4];
            // Integer weights (F3's fitness is integer-valued, and so are
            // its running sums: a draw can land *exactly* on a boundary),
            // fractional ones (where the sums round), and zeros (flat
            // stretches of the wheel).
            let weights: Vec<f64> = (0..n)
                .map(|_| match case % 3 {
                    0 => rng.gen_range(0..6) as f64,
                    1 => rng.gen::<f64>() * 10.0,
                    _ => rng.gen::<f64>().max(0.5) - 0.5,
                })
                .collect();
            let cum = sums(&weights);
            let total = cum[n];
            if total <= 0.0 {
                continue;
            }
            let guard = total * GUARD;
            for &boundary in &cum {
                for t in around(boundary, guard) {
                    if !(0.0..total).contains(&t) {
                        continue;
                    }
                    let by_scan = roulette_scan(&weights, t);
                    assert_eq!(roulette(&weights, &cum, t), by_scan, "t = {t}");
                    let by_sums = roulette_by_sums(&cum, t);
                    if (t - boundary).abs() < guard * 0.9995 {
                        assert_eq!(by_sums, None, "t = {t} is inside the band");
                        fell_back += 1;
                    }
                    if let Some(i) = by_sums {
                        assert_eq!(i, by_scan, "t = {t}");
                    }
                    // What the sums alone would have answered.
                    let unguarded = cum[1..].iter().filter(|&&c| c < t).count().min(n - 1);
                    disagreements_without_the_guard += (unguarded != by_scan) as u32;
                }
            }
        }
        assert!(fell_back > 10_000, "{fell_back}");
        // The band is not decoration: on these draws the running sums and
        // the scan's running remainder round to different sides.
        assert!(
            disagreements_without_the_guard > 0,
            "no draw told the sums from the scan; the test lost its teeth"
        );
    }

    #[test]
    fn random_draws_mostly_take_the_fast_path_and_always_agree() {
        let mut rng = StdRng::seed_from_u64(2);
        for n in [2, 50, 400] {
            let weights: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 3.0).collect();
            let cum = sums(&weights);
            let mut fast = 0;
            for _ in 0..20_000 {
                let t = rng.gen::<f64>() * cum[n];
                let by_scan = roulette_scan(&weights, t);
                assert_eq!(roulette(&weights, &cum, t), by_scan);
                fast += roulette_by_sums(&cum, t).is_some() as u32;
            }
            assert!(
                fast > 19_900,
                "N={n}: only {fast} of 20000 draws skipped the scan"
            );
        }
    }

    #[test]
    fn total_order_key_orders_like_total_cmp() {
        let samples = [
            f64::NEG_INFINITY,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1.0 + f64::EPSILON,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in samples {
            for b in samples {
                assert_eq!(
                    total_order_key(a).cmp(&total_order_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }
}

#[cfg(test)]
mod restore_tests {
    use super::*;
    use nscc_ckpt::CkptError;
    use rand::SeedableRng;

    fn state(func: TestFn, params: &GaParams) -> DemeState {
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = Deme::new(func, params.clone(), &mut rng);
        d.step(&mut rng);
        d.export_state()
    }

    fn refused(func: TestFn, params: &GaParams, state: DemeState) -> String {
        match Deme::from_state(func, params.clone(), state) {
            Err(CkptError::Malformed(why)) => why,
            Err(other) => panic!("wrong error: {other:?}"),
            Ok(_) => panic!("a state that does not fit the run was accepted"),
        }
    }

    #[test]
    fn an_exported_state_restores_and_keeps_evolving() {
        let (func, params) = (TestFn::F6Rastrigin, GaParams::default());
        let mut rng = StdRng::seed_from_u64(4);
        let mut d = Deme::from_state(func, params.clone(), state(func, &params)).unwrap();
        assert_eq!(d.generation(), 1);
        d.step(&mut rng);
        assert_eq!(d.generation(), 2);
    }

    #[test]
    fn an_empty_population_is_refused() {
        let (func, params) = (TestFn::F1Sphere, GaParams::default());
        let mut s = state(func, &params);
        s.pop.clear();
        assert!(refused(func, &params, s).contains("holds 0 individuals"));
    }

    #[test]
    fn a_population_of_the_wrong_size_is_refused() {
        let (func, params) = (TestFn::F1Sphere, GaParams::default());
        let mut s = state(func, &params);
        s.pop.pop();
        assert!(refused(func, &params, s).contains("holds 49 individuals"));
        // The same state under the configuration that wrote it is fine.
        let s = state(func, &GaParams::with_pop_size(20));
        assert!(refused(func, &params, s).contains("holds 20 individuals"));
    }

    #[test]
    fn genomes_of_another_length_are_refused() {
        // A frame written by an F6 run offered to an F1 run: it used to be
        // accepted and to die in `decode`'s length assert a generation on.
        let params = GaParams::default();
        let s = state(TestFn::F6Rastrigin, &params);
        assert!(refused(TestFn::F1Sphere, &params, s).contains("200 bits long"));
        // One bad genome is enough, wherever it sits.
        let mut s = state(TestFn::F1Sphere, &params);
        s.pop[17].genome = Genome::zeros(31);
        assert!(refused(TestFn::F1Sphere, &params, s).contains("31 bits long"));
        let mut s = state(TestFn::F1Sphere, &params);
        s.best_ever.genome = Genome::zeros(29);
        assert!(refused(TestFn::F1Sphere, &params, s).contains("29 bits long"));
    }
}

#[cfg(test)]
mod selection_behavior_tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn every_selection_strategy_optimizes() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut d = Deme::new(TestFn::F1Sphere, GaParams::default(), &mut rng);
        for _ in 0..150 {
            d.step(&mut rng);
        }
        let best = d.best_ever().fitness;
        assert!(best < 0.2, "roulette failed to optimize the sphere: {best}");
    }
}
