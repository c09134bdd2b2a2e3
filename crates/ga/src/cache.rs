//! The fitness cache — the "software caching technique" the paper applies
//! to its optimized serial GA [19] to avoid re-evaluating surviving
//! individuals. Cloned migrants and elitist survivors hit the cache.
//!
//! It is *exact*: a lookup hits if and only if that genome was evaluated
//! since the cache was last cleared, whatever the hash does, so the
//! hit/miss counts — and through the cost model the virtual clock — are a
//! function of the genome sequence alone.

use rand::rngs::StdRng;
use rand::Rng;

use crate::encoding::{decode_into, raw_fields, Coding, Genome, MAX_DIMS};
use crate::functions::TestFn;

/// Widest variable (in bits) that gets a term table: 2^12 `f64`s is 32 KiB,
/// the size of an L1 data cache; every separable Table 1 function codes
/// its variables in 10.
const MAX_TABLE_BITS: usize = 12;

/// Slots the probe table starts with (it doubles from there): enough for
/// the paper's N=50 deme without a first rehash, small enough that a
/// short-lived deme does not pay for a big one.
const INITIAL_SLOTS: usize = 256;

/// Memoizes genome → fitness for one function.
///
/// For the noisy F4, the *first sampled* fitness of a genome is cached:
/// re-evaluating survivors would otherwise resample the noise, which is
/// exactly the recomputation the caching technique avoids.
///
/// Entries live in insertion order in two flat arrays — `keys`, `stride`
/// words per genome, and `vals` — and are found through `slots`, an
/// open-addressed table (linear probing, at most half full) of
/// `hash tag << 32 | entry index + 1`, zero for an empty slot.
pub struct FitnessCache {
    func: TestFn,
    /// Words per key: the genome's used words.
    stride: usize,
    keys: Vec<u64>,
    vals: Vec<f64>,
    slots: Vec<u64>,
    /// `g(x)` for every raw value `x` of one variable, when `func` is a sum
    /// of per-variable terms (see [`TestFn::term`]); empty otherwise.
    terms: Vec<f64>,
    hits: u64,
    misses: u64,
    /// Entry cap; the cache is cleared when full (simple and allocation-
    /// friendly; in practice GA runs stay far below it).
    capacity: usize,
}

/// A cheap word-wise hash (multiply-rotate as in FxHash, the well-mixed
/// high half folded into the low). Lookups compare whole keys, so its
/// quality decides probe lengths and nothing else.
fn hash(key: &[u64]) -> u64 {
    let h = key.iter().fold(0u64, |h, &w| {
        (h.rotate_left(5) ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    });
    h ^ (h >> 32)
}

/// Where the probe sequence of hash `h` starts in a table of `mask + 1`
/// slots: the high half picks the slot (the low half is the tag).
fn home(h: u64, mask: usize) -> usize {
    (h >> 32) as usize & mask
}

/// Seat entry number `entry`, whose key hashes to `h`, in the first free
/// slot of its probe sequence.
fn seat(slots: &mut [u64], h: u64, entry: usize) {
    let mask = slots.len() - 1;
    let mut slot = home(h, mask);
    while slots[slot] != 0 {
        slot = (slot + 1) & mask;
    }
    slots[slot] = (h << 32) | (entry as u64 + 1);
}

impl FitnessCache {
    /// A cache for `func` with the default capacity.
    pub fn new(func: TestFn) -> Self {
        FitnessCache::with_capacity(func, 1 << 20)
    }

    /// A cache holding at most `capacity` entries.
    pub fn with_capacity(func: TestFn, capacity: usize) -> Self {
        let terms = match func.term() {
            Some(g) if func.bits_per_var() <= MAX_TABLE_BITS => {
                let coding = Coding::of(func);
                (0..1u64 << func.bits_per_var())
                    .map(|raw| g(coding.phenotype(raw)))
                    .collect()
            }
            _ => Vec::new(),
        };
        FitnessCache {
            func,
            stride: func.genome_bits().div_ceil(64),
            keys: Vec::new(),
            vals: Vec::new(),
            slots: vec![0; INITIAL_SLOTS],
            terms,
            hits: 0,
            misses: 0,
            // A slot holds `entry index + 1` in 32 bits.
            capacity: capacity.clamp(1, u32::MAX as usize),
        }
    }

    /// Fitness of `genome`, evaluating (and caching) on a miss. Returns
    /// `(fitness, was_hit)`. A miss draws two `f64` from `rng` — F4's noise
    /// — for every function, used or not; a hit draws nothing.
    pub fn fitness(&mut self, genome: &Genome, rng: &mut StdRng) -> (f64, bool) {
        let words = genome.words();
        let key = &words[..self.stride];
        let h = hash(key);
        // A tag match is confirmed against the stored key.
        let mask = self.slots.len() - 1;
        let mut slot = home(h, mask);
        while self.slots[slot] != 0 {
            if self.slots[slot] >> 32 == h & 0xFFFF_FFFF {
                let entry = (self.slots[slot] & 0xFFFF_FFFF) as usize - 1;
                if self.keys[entry * self.stride..]
                    .iter()
                    .take(self.stride)
                    .eq(key)
                {
                    self.hits += 1;
                    return (self.vals[entry], true);
                }
            }
            slot = (slot + 1) & mask;
        }
        self.misses += 1;
        let (u1, u2) = (rng.gen::<f64>(), rng.gen::<f64>());
        let f = self.evaluate(genome, u1, u2);
        if self.vals.len() >= self.capacity {
            self.keys.clear();
            self.vals.clear();
            self.slots.fill(0);
        }
        seat(&mut self.slots, h, self.vals.len());
        self.keys.extend_from_slice(key);
        self.vals.push(f);
        if 2 * self.vals.len() > self.slots.len() {
            self.grow();
        }
        (f, false)
    }

    fn evaluate(&self, genome: &Genome, u1: f64, u2: f64) -> f64 {
        if self.terms.is_empty() {
            let mut x = [0.0; MAX_DIMS];
            self.func
                .eval_noisy(decode_into(self.func, genome, &mut x), u1, u2)
        } else {
            // Only F4 is noisy, and its terms depend on the position.
            let terms = raw_fields(self.func, genome).map(|raw| self.terms[raw as usize]);
            self.func.sum_terms(terms)
        }
    }

    /// Double the probe table and re-seat every entry.
    fn grow(&mut self) {
        let doubled = 2 * self.slots.len();
        self.slots.clear();
        self.slots.resize(doubled, 0);
        for (entry, key) in self.keys.chunks_exact(self.stride).enumerate() {
            seat(&mut self.slots, hash(key), entry);
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (true evaluations) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// True if nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn second_lookup_hits() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut cache = FitnessCache::new(TestFn::F1Sphere);
        let g = Genome::random(TestFn::F1Sphere.genome_bits(), &mut rng);
        let (f1, hit1) = cache.fitness(&g, &mut rng);
        let (f2, hit2) = cache.fitness(&g, &mut rng);
        assert!(!hit1 && hit2);
        assert_eq!(f1, f2);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn noisy_f4_fitness_is_stable_once_cached() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut cache = FitnessCache::new(TestFn::F4QuarticNoise);
        let g = Genome::zeros(TestFn::F4QuarticNoise.genome_bits());
        let (f1, _) = cache.fitness(&g, &mut rng);
        for _ in 0..5 {
            let (f, hit) = cache.fitness(&g, &mut rng);
            assert!(hit);
            assert_eq!(f, f1, "cached noisy fitness must not be resampled");
        }
    }

    #[test]
    fn capacity_overflow_clears_but_keeps_working() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut cache = FitnessCache::with_capacity(TestFn::F1Sphere, 4);
        for _ in 0..20 {
            let g = Genome::random(TestFn::F1Sphere.genome_bits(), &mut rng);
            let _ = cache.fitness(&g, &mut rng);
        }
        assert!(cache.len() <= 4);
        assert_eq!(cache.misses(), 20);
    }

    #[test]
    fn distinct_genomes_are_distinct_entries() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut cache = FitnessCache::new(TestFn::F2Rosenbrock);
        let a = Genome::zeros(TestFn::F2Rosenbrock.genome_bits());
        let mut b = a;
        b.flip(0);
        let (fa, _) = cache.fitness(&a, &mut rng);
        let (fb, _) = cache.fitness(&b, &mut rng);
        assert_ne!(fa, fb);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn hits_survive_table_growth() {
        let func = TestFn::F6Rastrigin;
        let mut rng = StdRng::seed_from_u64(4);
        let mut cache = FitnessCache::new(func);
        let genomes: Vec<Genome> = (0..10 * INITIAL_SLOTS)
            .map(|_| Genome::random(func.genome_bits(), &mut rng))
            .collect();
        let first: Vec<f64> = genomes
            .iter()
            .map(|g| cache.fitness(g, &mut rng).0)
            .collect();
        assert!(cache.slots.len() >= 2 * cache.len());
        for (g, f) in genomes.iter().zip(first) {
            assert_eq!(cache.fitness(g, &mut rng), (f, true));
        }
    }

    #[test]
    fn term_tables_exist_exactly_for_the_separable_functions() {
        for func in crate::functions::ALL_FUNCTIONS {
            let cache = FitnessCache::new(func);
            let expected = match func.term() {
                Some(_) => 1 << func.bits_per_var(),
                None => 0,
            };
            assert_eq!(cache.terms.len(), expected, "{}", func.name());
        }
    }
}
