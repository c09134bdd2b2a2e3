//! Pins the GA kernel against the one it replaced, draw for draw.
//!
//! `common/reference.rs` is the kernel of commit 9954bda, verbatim. Every
//! test here feeds it and the real kernel identically seeded `StdRng`s and
//! demands the same observable result *and the same next RNG output* —
//! i.e. the same number of draws, in an order that produced the same
//! values. That is the whole contract the reports rest on: a run's digest
//! is a function of the population sequence and of where the RNG stands
//! when the cost model and the next operator draw from it. Nothing here is
//! a captured constant, so the file holds whatever stream `StdRng` draws.
//!
//! What it was shown to catch (each broken on purpose in a scratch copy,
//! then discarded): skipping the two per-miss draws for the functions that
//! do not use them, sorting the population without the index tie-break (an
//! unstable sort), cutting a migrant batch with ties in the wrong order,
//! summing the term table back to front, letting `mutate` skip its draws
//! when the rate is zero, and leaving stale entries reachable after the
//! cache clears. Dropping the roulette guard band is *not* caught here: it
//! needs a draw within rounding error of a boundary (≈ 10⁻¹¹ per draw),
//! which no seeded stream produces; the unit test in `population.rs` puts
//! draws there by hand, and fails without the band.

mod common;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use common::reference as old;
use nscc_ga::{
    decode, eval_genome, Deme, FitnessCache, GaParams, Genome, Individual, TestFn, ALL_FUNCTIONS,
};

/// The reference twin of a real genome.
fn twin(g: &Genome) -> old::Genome {
    old::Genome::from_bits(g.len(), |i| g.get(i))
}

fn same_individual(a: &old::Individual, b: &Individual) -> bool {
    a.genome.len() == b.genome.len()
        && a.genome.as_bytes() == b.genome.as_bytes()
        && a.fitness.to_bits() == b.fitness.to_bits()
}

/// Both RNGs stand at the same point of the same stream.
fn assert_same_stream(a: &StdRng, b: &StdRng, what: &str) {
    assert_eq!(
        a.clone().gen::<u64>(),
        b.clone().gen::<u64>(),
        "{what}: the kernels drew a different number of values"
    );
}

fn assert_same_deme(a: &old::Deme, b: &Deme, what: &str) {
    assert_eq!(
        a.population().len(),
        b.population().len(),
        "{what}: population size"
    );
    for (i, (x, y)) in a.population().iter().zip(b.population()).enumerate() {
        assert!(same_individual(x, y), "{what}: individual {i} differs");
    }
    assert!(
        same_individual(a.best_ever(), b.best_ever()),
        "{what}: best_ever differs"
    );
    assert_eq!(a.generation(), b.generation(), "{what}: generation");
    assert_eq!(a.total_work(), b.total_work(), "{what}: total work");
    assert_eq!(a.cache_stats(), b.cache_stats(), "{what}: cache stats");
    assert_eq!(
        a.current_best().to_bits(),
        b.current_best().to_bits(),
        "{what}: current best"
    );
    assert_eq!(
        a.mean_fitness().to_bits(),
        b.mean_fitness().to_bits(),
        "{what}: mean fitness"
    );
}

/// Two demes per kernel, stepped alternately off one RNG and exchanging
/// their best `N/2` every generation, with a checkpoint round trip (which
/// also restarts the caches cold) half way.
fn lock_step(func: TestFn, params: &GaParams, gens: u64, seed: u64) {
    let what = |stage: &str, gen: u64| {
        format!(
            "{} N={} G={} W={} elitist={} seed={seed} gen {gen}: {stage}",
            func.name(),
            params.pop_size,
            params.generation_gap,
            params.scaling_window,
            params.elitist,
        )
    };
    let mut old_rng = StdRng::seed_from_u64(seed);
    let mut new_rng = StdRng::seed_from_u64(seed);
    let mut old_demes = [
        old::Deme::new(func, params.clone(), &mut old_rng),
        old::Deme::new(func, params.clone(), &mut old_rng),
    ];
    let mut new_demes = [
        Deme::new(func, params.clone(), &mut new_rng),
        Deme::new(func, params.clone(), &mut new_rng),
    ];
    for d in 0..2 {
        assert_same_deme(&old_demes[d], &new_demes[d], &what("new", 0));
    }
    assert_same_stream(&old_rng, &new_rng, &what("new", 0));

    let count = params.pop_size / 2;
    for gen in 1..=gens {
        for d in 0..2 {
            let old_work = old_demes[d].step(&mut old_rng);
            let new_work = new_demes[d].step(&mut new_rng);
            assert_eq!(old_work, new_work, "{}", what("step work", gen));
            assert_same_deme(&old_demes[d], &new_demes[d], &what("step", gen));
            assert_same_stream(&old_rng, &new_rng, &what("step", gen));
        }
        let old_batches = [old_demes[0].migrants(count), old_demes[1].migrants(count)];
        let new_batches = [new_demes[0].migrants(count), new_demes[1].migrants(count)];
        for d in 0..2 {
            assert_eq!(old_batches[d].len(), new_batches[d].len());
            for (x, y) in old_batches[d].iter().zip(&new_batches[d]) {
                assert!(same_individual(x, y), "{}", what("migrant batch", gen));
            }
            old_demes[d].incorporate(&old_batches[1 - d]);
            new_demes[d].incorporate(&new_batches[1 - d]);
            assert_same_deme(&old_demes[d], &new_demes[d], &what("incorporate", gen));
        }
        // A second batch in the same generation meets a population whose
        // tail the first one rewrote (the 8-way islands do this 7 times).
        old_demes[0].incorporate(&old_batches[0]);
        new_demes[0].incorporate(&new_batches[0]);
        assert_same_deme(&old_demes[0], &new_demes[0], &what("re-incorporate", gen));
        // A batch that does not arrive best first: nothing in this repo
        // sends one, the API accepts one.
        let old_reversed: Vec<_> = old_batches[1].iter().rev().cloned().collect();
        let new_reversed: Vec<_> = new_batches[1].iter().rev().copied().collect();
        old_demes[1].incorporate(&old_reversed);
        new_demes[1].incorporate(&new_reversed);
        assert_same_deme(&old_demes[1], &new_demes[1], &what("unsorted batch", gen));

        if gen == gens / 2 {
            for d in 0..2 {
                let state = old_demes[d].export_state();
                old_demes[d] = old::Deme::from_state(func, params.clone(), state);
                let state = new_demes[d].export_state();
                new_demes[d] = Deme::from_state(func, params.clone(), state)
                    .expect("a deme's own state validates");
                assert_same_deme(&old_demes[d], &new_demes[d], &what("restore", gen));
            }
        }
    }
    assert_same_stream(&old_rng, &new_rng, &what("end", gens));
}

#[test]
fn every_configuration_evolves_in_lock_step_with_the_reference() {
    let mut case = 0u64;
    for func in ALL_FUNCTIONS {
        for generation_gap in [1.0, 0.2] {
            for elitist in [true, false] {
                for scaling_window in [1, 5] {
                    // Fewer generations where one costs more; N=2 is the
                    // degenerate edge and runs longest.
                    for (pop_size, gens) in [(2, 16), (50, 8), (400, 3)] {
                        let params = GaParams {
                            pop_size,
                            generation_gap,
                            scaling_window,
                            elitist,
                            ..GaParams::default()
                        };
                        case += 1;
                        lock_step(func, &params, gens, 1000 + case);
                    }
                }
            }
        }
        // Each function's 24 roulette cases were once followed by 24
        // tournament and 24 rank cases; skipping their numbers keeps every
        // roulette case on the seed it has always run on.
        case += 48;
    }
}

#[test]
fn converged_runs_stay_in_lock_step() {
    // Long enough for the cache to matter (most children are hits), for
    // ties to dominate the sorts (F3 is integer-valued) and for draws to
    // land in the roulette guard band (≈ 0.08 % of them at N=400).
    for (func, pop_size, gens) in [
        (TestFn::F1Sphere, 50, 150),
        (TestFn::F3Step, 400, 40),
        (TestFn::F6Rastrigin, 50, 60),
    ] {
        lock_step(func, &GaParams::with_pop_size(pop_size), gens, 7);
    }
    // A mutation rate that makes most children new: the miss path.
    let hot = GaParams {
        mutation_rate: 0.05,
        ..GaParams::default()
    };
    lock_step(TestFn::F4QuarticNoise, &hot, 20, 8);
    lock_step(TestFn::F7Schwefel, &hot, 20, 9);
}

/// Both caches see the same genome; same answer, same counters, same draws.
struct CachePair {
    old: old::FitnessCache,
    new: FitnessCache,
    old_rng: StdRng,
    new_rng: StdRng,
}

impl CachePair {
    fn new(func: TestFn, capacity: usize, seed: u64) -> Self {
        CachePair {
            old: old::FitnessCache::with_capacity(func, capacity),
            new: FitnessCache::with_capacity(func, capacity),
            old_rng: StdRng::seed_from_u64(seed),
            new_rng: StdRng::seed_from_u64(seed),
        }
    }

    fn lookup(&mut self, g: &Genome, what: &str) -> bool {
        let (old_f, old_hit) = self.old.fitness(&twin(g), &mut self.old_rng);
        let (new_f, new_hit) = self.new.fitness(g, &mut self.new_rng);
        assert_eq!(old_hit, new_hit, "{what}: hit/miss");
        assert_eq!(old_f.to_bits(), new_f.to_bits(), "{what}: fitness");
        assert_eq!(self.old.len(), self.new.len(), "{what}: entries");
        assert_eq!(
            (self.old.hits(), self.old.misses()),
            (self.new.hits(), self.new.misses()),
            "{what}: counters"
        );
        assert_same_stream(&self.old_rng, &self.new_rng, what);
        new_hit
    }
}

#[test]
fn cache_hits_exactly_what_the_map_hit_across_clears_and_growth() {
    for func in ALL_FUNCTIONS {
        // 64 entries: the clear-when-full rule fires every 64 misses.
        // 1 << 20: the table doubles its way up instead.
        for capacity in [1, 64, 1 << 20] {
            let mut pair = CachePair::new(func, capacity, 21);
            let mut driver = StdRng::seed_from_u64(22);
            let mut seen: Vec<Genome> = Vec::new();
            let (mut hits, mut clears) = (0, 0);
            for i in 0..3000 {
                // Half the lookups repeat a recent genome, some of them
                // one from before the last clear.
                let g = if !seen.is_empty() && driver.gen::<f64>() < 0.5 {
                    let back = driver.gen_range(0..seen.len().min(100));
                    seen[seen.len() - 1 - back]
                } else {
                    Genome::random(func.genome_bits(), &mut driver)
                };
                let before = pair.new.len();
                hits += pair.lookup(&g, &format!("{} cap {capacity} #{i}", func.name())) as u32;
                clears += (pair.new.len() < before) as u32;
                seen.push(g);
            }
            if capacity == 64 {
                assert!(hits > 100, "{}: the hit path must run", func.name());
                assert!(clears > 10, "{}: the clear path must run", func.name());
            }
        }
    }
}

#[test]
fn evaluation_matches_decode_then_eval_bit_for_bit() {
    for func in ALL_FUNCTIONS {
        let (w, dims) = (func.bits_per_var(), func.dims());
        let mut pair = CachePair::new(func, 1 << 20, 31);
        let mut driver = StdRng::seed_from_u64(32);
        // Every raw value at every variable position (a term table has one
        // entry per raw value; the gather has one alignment per position).
        // F5's 17-bit fields are sampled on a stride coprime to 2^17.
        let step = if w <= 12 { 1 } else { 37 };
        let base = Genome::random(func.genome_bits(), &mut driver);
        for var in 0..dims {
            for raw in (0..1u64 << w).step_by(step) {
                let mut g = base;
                for bit in 0..w {
                    g.set(var * w + bit, (raw >> (w - 1 - bit)) & 1 == 1);
                }
                assert_eq!(g.decode_uint(var * w, w), raw);
                pair.lookup(&g, &format!("{} var {var} raw {raw}", func.name()));
            }
        }
        // Whole random genomes, through the cache and through the public
        // decode/eval entry points.
        for i in 0..2000 {
            let g = Genome::random(func.genome_bits(), &mut driver);
            let what = format!("{} random #{i}", func.name());
            pair.lookup(&g, &what);
            let (old_x, new_x) = (old::decode(func, &twin(&g)), decode(func, &g));
            assert_eq!(old_x.len(), new_x.len(), "{what}");
            for (a, b) in old_x.iter().zip(&new_x) {
                assert_eq!(a.to_bits(), b.to_bits(), "{what}: decoded variable");
            }
            assert_eq!(
                old::eval(func, &old_x).to_bits(),
                eval_genome(func, &g).to_bits(),
                "{what}: eval_genome"
            );
        }
        // `eval` itself, off the coding grid.
        let (lo, hi) = func.limits();
        for i in 0..2000 {
            let x: Vec<f64> = (0..dims).map(|_| driver.gen_range(lo..=hi)).collect();
            let (u1, u2) = (driver.gen::<f64>(), driver.gen::<f64>());
            assert_eq!(
                old::eval_noisy(func, &x, u1, u2).to_bits(),
                func.eval_noisy(&x, u1, u2).to_bits(),
                "{} eval #{i} at {x:?}",
                func.name()
            );
        }
    }
}

/// Advance a clone of `rng` by `draws` and compare where both then stand.
fn assert_drew(before: &StdRng, after: &StdRng, draws: impl FnOnce(&mut StdRng), what: &str) {
    let mut expected = before.clone();
    draws(&mut expected);
    assert_same_stream(&expected, after, what);
}

#[test]
fn operators_draw_what_the_stream_contract_says() {
    let mut rng = StdRng::seed_from_u64(41);
    for bits in [1, 7, 8, 9, 30, 64, 65, 200, 240, Genome::MAX_BITS] {
        // `random`: one u8 per used byte.
        let before = rng.clone();
        let mut g = Genome::random(bits, &mut rng);
        assert_drew(
            &before,
            &rng,
            |r| {
                for _ in 0..bits.div_ceil(8) {
                    r.gen::<u8>();
                }
            },
            &format!("random({bits})"),
        );
        // `mutate`: one f64 per bit, whatever the rate and the outcome.
        for rate in [0.0, 0.001, 0.5, 1.0] {
            let before = rng.clone();
            g.mutate(rate, &mut rng);
            assert_drew(
                &before,
                &rng,
                |r| {
                    for _ in 0..bits {
                        r.gen::<f64>();
                    }
                },
                &format!("mutate({bits} bits, rate {rate})"),
            );
        }
    }
    // The cache: two f64 on every miss for every function (only F4 uses
    // them), nothing on a hit.
    for func in ALL_FUNCTIONS {
        let mut cache = FitnessCache::new(func);
        let g = Genome::random(func.genome_bits(), &mut rng);
        let before = rng.clone();
        assert!(!cache.fitness(&g, &mut rng).1);
        assert_drew(
            &before,
            &rng,
            |r| {
                r.gen::<f64>();
                r.gen::<f64>();
            },
            &format!("{} miss", func.name()),
        );
        let before = rng.clone();
        assert!(cache.fitness(&g, &mut rng).1);
        assert_drew(&before, &rng, |_| {}, &format!("{} hit", func.name()));
    }
}
