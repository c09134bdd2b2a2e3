//! Property-based tests of the GA building blocks.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use nscc_ga::{decode, Deme, GaParams, Genome, TestFn, ALL_FUNCTIONS};

proptest! {
    /// Decoding any genome stays inside the function's domain.
    #[test]
    fn decode_stays_in_limits(f in 0usize..ALL_FUNCTIONS.len(), seed in 0u64..10_000) {
        let f = ALL_FUNCTIONS[f];
        let mut rng = StdRng::seed_from_u64(seed);
        let g = Genome::random(f.genome_bits(), &mut rng);
        let x = decode(f, &g);
        let (lo, hi) = f.limits();
        prop_assert_eq!(x.len(), f.dims());
        for v in x {
            prop_assert!((lo..=hi).contains(&v), "{} out of [{lo}, {hi}]", v);
        }
    }

    /// Crossover is the per-bit definition: below the point each child
    /// carries its own parent's bit, from the point on the other's.
    #[test]
    fn crossover_matches_the_per_bit_definition(
        bits in 1usize..=Genome::MAX_BITS,
        point_frac in 0.0f64..1.0,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Genome::random(bits, &mut rng);
        let b = Genome::random(bits, &mut rng);
        // 0.99 of the way is the shim's top sample; reach `bits` itself too.
        for point in [(bits as f64 * point_frac) as usize, bits] {
            let (c, d) = a.crossover(&b, point);
            let (mut c_def, mut d_def) = (Genome::zeros(bits), Genome::zeros(bits));
            for i in 0..bits {
                let (own, other) = if i < point { (&a, &b) } else { (&b, &a) };
                c_def.set(i, own.get(i));
                d_def.set(i, other.get(i));
            }
            prop_assert_eq!((c, d), (c_def, d_def), "{} bits at {}", bits, point);
        }
    }

    /// Mutation is the per-bit definition: bit `i` flips iff the `i`-th
    /// draw is below the rate, and the flips are counted.
    #[test]
    fn mutation_matches_the_per_bit_definition(
        bits in 1usize..=Genome::MAX_BITS,
        rate in 0.0f64..1.0,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let original = Genome::random(bits, &mut rng);
        let mut by_definition = original;
        let mut draws = rng.clone();
        let mut expected_flips = 0;
        for i in 0..bits {
            if draws.gen::<f64>() < rate {
                by_definition.flip(i);
                expected_flips += 1;
            }
        }
        let mut mutated = original;
        let flips = mutated.mutate(rate, &mut rng);
        prop_assert_eq!(mutated, by_definition);
        prop_assert_eq!(flips, expected_flips);
        prop_assert_eq!(rng.gen::<u64>(), draws.gen::<u64>());
    }

    /// A deme's best-ever fitness never regresses, whatever the seed.
    #[test]
    fn best_ever_is_monotone(f in 0usize..ALL_FUNCTIONS.len(), seed in 0u64..500) {
        let f = ALL_FUNCTIONS[f];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut deme = Deme::new(f, GaParams::default(), &mut rng);
        let mut prev = deme.best_ever().fitness;
        for _ in 0..10 {
            deme.step(&mut rng);
            let now = deme.best_ever().fitness;
            prop_assert!(now <= prev);
            prev = now;
        }
    }

    /// Incorporation never worsens the population's best and never
    /// changes its size.
    #[test]
    fn incorporate_is_safe(seed in 0u64..500, k in 1usize..30) {
        let f = TestFn::F1Sphere;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = Deme::new(f, GaParams::default(), &mut rng);
        let b = Deme::new(f, GaParams::default(), &mut rng);
        let before_best = a.current_best();
        let before_len = a.population().len();
        a.incorporate(&b.migrants(k));
        prop_assert!(a.current_best() <= before_best);
        prop_assert_eq!(a.population().len(), before_len);
    }
}

proptest! {
    // Each case below sweeps its whole structure (every width, alignment or
    // length); the seed only varies the bits, so a few cases go a long way.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// decode_uint is the bit-by-bit big-endian read, at every width up to
    /// a word and every start alignment (the gather crosses byte and word
    /// boundaries at some of them).
    #[test]
    fn decode_uint_matches_the_bit_by_bit_definition(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = Genome::random(Genome::MAX_BITS, &mut rng);
        for width in 1..=64 {
            for start in 0..=Genome::MAX_BITS - width {
                let mut by_definition = 0u64;
                for i in 0..width {
                    by_definition = (by_definition << 1) | g.get(start + i) as u64;
                }
                prop_assert_eq!(
                    g.decode_uint(start, width),
                    by_definition,
                    "width {} at {}",
                    width,
                    start
                );
            }
        }
    }

    /// A genome costs its length and its used bytes on the wire, and comes
    /// back from a checkpoint as it went in, at every length.
    #[test]
    fn wire_size_and_snapshot_at_every_length(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for bits in 1..=Genome::MAX_BITS {
            let g = Genome::random(bits, &mut rng);
            prop_assert_eq!(nscc_msg::wire_size(&g), 8 + 4 + bits.div_ceil(8));
            let bytes = nscc_ckpt::to_bytes(&g);
            prop_assert_eq!(bytes.len(), 8 + 8 + bits.div_ceil(8));
            prop_assert_eq!(nscc_ckpt::from_bytes::<Genome>(&bytes).unwrap(), g);
        }
    }
}
