//! The GA kernel as it stood at commit 9954bda, before the dense rewrite —
//! moved here verbatim (heap `Vec<u8>` genome, `HashMap<Vec<u8>, f64>`
//! fitness cache, sequential roulette scan, `Deme::{new, step, migrants,
//! incorporate}`, the eight objective functions) minus the wire-size and
//! checkpoint impls, which have their own byte pins, and minus the
//! tournament and rank selection arms, whose strategies no longer exist
//! in the real kernel. It is the reference
//! `kernel_pin.rs` drives in lock-step with the real kernel: same seed in,
//! same population, counters and RNG position out, generation by
//! generation. It was written when `StdRng` was ChaCha under cargo and
//! SplitMix under an offline shim, so a digest table could hold in one
//! build mode only while a differential pin held in both; there is one
//! stream now, so a captured digest table could replace this file.
//!
//! Do not "tidy" this file: its value is that it is the old code.

#![allow(dead_code)]

use std::collections::{HashMap, VecDeque};
use std::f64::consts::PI;

use rand::rngs::StdRng;
use rand::Rng;

use nscc_ga::{GaParams, GenWork, TestFn};

// ---- functions.rs ----------------------------------------------------------

fn foxhole_a(i: usize, j: usize) -> f64 {
    const VALS: [f64; 5] = [-32.0, -16.0, 0.0, 16.0, 32.0];
    match i {
        0 => VALS[j % 5],
        _ => VALS[j / 5],
    }
}

/// `TestFn::eval` of the parent.
pub fn eval(f: TestFn, x: &[f64]) -> f64 {
    assert_eq!(x.len(), f.dims(), "{}: wrong dimensionality", f.name());
    match f {
        TestFn::F1Sphere => x.iter().map(|v| v * v).sum(),
        TestFn::F2Rosenbrock => {
            let (x1, x2) = (x[0], x[1]);
            100.0 * (x1 * x1 - x2).powi(2) + (1.0 - x1).powi(2)
        }
        TestFn::F3Step => 30.0 + x.iter().map(|v| v.floor()).sum::<f64>(),
        TestFn::F4QuarticNoise => x
            .iter()
            .enumerate()
            .map(|(i, v)| (i + 1) as f64 * v.powi(4))
            .sum(),
        TestFn::F5Foxholes => {
            let mut s = 0.002;
            for j in 0..25 {
                let mut denom = (j + 1) as f64;
                for (i, &xi) in x.iter().enumerate() {
                    denom += (xi - foxhole_a(i, j)).powi(6);
                }
                s += 1.0 / denom;
            }
            1.0 / s
        }
        TestFn::F6Rastrigin => {
            let a = 10.0;
            let n = x.len() as f64;
            n * a
                + x.iter()
                    .map(|v| v * v - a * (2.0 * PI * v).cos())
                    .sum::<f64>()
        }
        TestFn::F7Schwefel => x.iter().map(|v| -v * v.abs().sqrt().sin()).sum(),
        TestFn::F8Griewank => {
            let s: f64 = x.iter().map(|v| v * v / 4000.0).sum();
            let p: f64 = x
                .iter()
                .enumerate()
                .map(|(i, v)| (v / ((i + 1) as f64).sqrt()).cos())
                .product();
            s - p + 1.0
        }
    }
}

/// `TestFn::eval_noisy` of the parent.
pub fn eval_noisy(f: TestFn, x: &[f64], u1: f64, u2: f64) -> f64 {
    let base = eval(f, x);
    if f == TestFn::F4QuarticNoise {
        let u1 = u1.clamp(f64::MIN_POSITIVE, 1.0);
        let gauss = (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos();
        base + gauss
    } else {
        base
    }
}

// ---- encoding.rs -----------------------------------------------------------

/// A fixed-length bit string stored packed (LSB-first within each byte).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Genome {
    bits: usize,
    bytes: Vec<u8>,
}

impl Genome {
    pub fn zeros(bits: usize) -> Self {
        Genome {
            bits,
            bytes: vec![0u8; bits.div_ceil(8)],
        }
    }

    pub fn random(bits: usize, rng: &mut impl Rng) -> Self {
        let mut g = Genome::zeros(bits);
        for b in &mut g.bytes {
            *b = rng.gen();
        }
        // Clear the padding bits so Eq/Hash are canonical.
        g.mask_tail();
        g
    }

    /// Not in the parent: build the reference twin of a real genome, for
    /// the tests that feed both kernels the same hand-made input.
    pub fn from_bits(bits: usize, get: impl Fn(usize) -> bool) -> Self {
        let mut g = Genome::zeros(bits);
        for i in 0..bits {
            g.set(i, get(i));
        }
        g
    }

    fn mask_tail(&mut self) {
        let used = self.bits % 8;
        if used != 0 {
            if let Some(last) = self.bytes.last_mut() {
                *last &= (1u8 << used) - 1;
            }
        }
    }

    pub fn len(&self) -> usize {
        self.bits
    }

    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.bits);
        self.bytes[i / 8] & (1 << (i % 8)) != 0
    }

    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.bits);
        let mask = 1u8 << (i % 8);
        if v {
            self.bytes[i / 8] |= mask;
        } else {
            self.bytes[i / 8] &= !mask;
        }
    }

    pub fn flip(&mut self, i: usize) {
        assert!(i < self.bits);
        self.bytes[i / 8] ^= 1 << (i % 8);
    }

    pub fn crossover(&self, other: &Genome, point: usize) -> (Genome, Genome) {
        assert_eq!(self.bits, other.bits, "crossover of unequal genomes");
        assert!(point <= self.bits);
        let mut a = self.clone();
        let mut b = other.clone();
        // Bits are LSB-first within a byte: the byte holding `point` keeps
        // its low `point % 8` bits and swaps the rest; every later byte
        // swaps whole. Padding is zero on both sides, so it stays zero.
        let cut = point / 8;
        if cut < self.bytes.len() {
            let keep = (1u8 << (point % 8)) - 1;
            a.bytes[cut] = (self.bytes[cut] & keep) | (other.bytes[cut] & !keep);
            b.bytes[cut] = (other.bytes[cut] & keep) | (self.bytes[cut] & !keep);
            a.bytes[cut + 1..].copy_from_slice(&other.bytes[cut + 1..]);
            b.bytes[cut + 1..].copy_from_slice(&self.bytes[cut + 1..]);
        }
        (a, b)
    }

    pub fn mutate(&mut self, rate: f64, rng: &mut impl Rng) -> usize {
        let mut flipped = 0;
        for i in 0..self.bits {
            if rng.gen::<f64>() < rate {
                self.flip(i);
                flipped += 1;
            }
        }
        flipped
    }

    pub fn decode_uint(&self, start: usize, width: usize) -> u64 {
        assert!(width <= 64 && start + width <= self.bits);
        let mut v = 0u64;
        for i in 0..width {
            v = (v << 1) | self.get(start + i) as u64;
        }
        v
    }

    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

pub fn decode(f: TestFn, genome: &Genome) -> Vec<f64> {
    let w = f.bits_per_var();
    assert_eq!(
        genome.len(),
        f.genome_bits(),
        "{}: genome length mismatch",
        f.name()
    );
    let (lo, hi) = f.limits();
    let denom = ((1u64 << w) - 1) as f64;
    (0..f.dims())
        .map(|i| {
            let raw = genome.decode_uint(i * w, w) as f64;
            lo + (hi - lo) * raw / denom
        })
        .collect()
}

// ---- cache.rs --------------------------------------------------------------

pub struct FitnessCache {
    func: TestFn,
    map: HashMap<Vec<u8>, f64>,
    hits: u64,
    misses: u64,
    capacity: usize,
}

impl FitnessCache {
    pub fn new(func: TestFn) -> Self {
        FitnessCache::with_capacity(func, 1 << 20)
    }

    pub fn with_capacity(func: TestFn, capacity: usize) -> Self {
        FitnessCache {
            func,
            map: HashMap::new(),
            hits: 0,
            misses: 0,
            capacity: capacity.max(1),
        }
    }

    pub fn fitness(&mut self, genome: &Genome, rng: &mut StdRng) -> (f64, bool) {
        if let Some(&f) = self.map.get(genome.as_bytes()) {
            self.hits += 1;
            return (f, true);
        }
        self.misses += 1;
        let x = decode(self.func, genome);
        let f = eval_noisy(self.func, &x, rng.gen::<f64>(), rng.gen::<f64>());
        if self.map.len() >= self.capacity {
            self.map.clear();
        }
        self.map.insert(genome.as_bytes().to_vec(), f);
        (f, false)
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }
}

// ---- population.rs ---------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Individual {
    pub genome: Genome,
    pub fitness: f64,
}

#[derive(Debug, Clone)]
pub struct DemeState {
    pub pop: Vec<Individual>,
    pub window: Vec<f64>,
    pub generation: u64,
    pub best_ever: Individual,
    pub total_work: GenWork,
}

pub struct Deme {
    func: TestFn,
    params: GaParams,
    pop: Vec<Individual>,
    window: VecDeque<f64>,
    generation: u64,
    best_ever: Individual,
    cache: FitnessCache,
    total_work: GenWork,
}

impl Deme {
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

    pub fn generation(&self) -> u64 {
        self.generation
    }

    pub fn population(&self) -> &[Individual] {
        &self.pop
    }

    pub fn best_ever(&self) -> &Individual {
        &self.best_ever
    }

    pub fn current_best(&self) -> f64 {
        self.pop
            .iter()
            .map(|i| i.fitness)
            .fold(f64::INFINITY, f64::min)
    }

    pub fn mean_fitness(&self) -> f64 {
        self.pop.iter().map(|i| i.fitness).sum::<f64>() / self.pop.len() as f64
    }

    pub fn total_work(&self) -> GenWork {
        self.total_work
    }

    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache.hits(), self.cache.misses())
    }

    pub fn export_state(&self) -> DemeState {
        DemeState {
            pop: self.pop.clone(),
            window: self.window.iter().copied().collect(),
            generation: self.generation,
            best_ever: self.best_ever.clone(),
            total_work: self.total_work,
        }
    }

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

        let pop_ref = &self.pop;
        let select = |rng: &mut StdRng| -> usize {
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

    pub fn migrants(&self, count: usize) -> Vec<Individual> {
        let mut sorted: Vec<&Individual> = self.pop.iter().collect();
        sorted.sort_by(|a, b| a.fitness.total_cmp(&b.fitness));
        sorted.into_iter().take(count).cloned().collect()
    }

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
