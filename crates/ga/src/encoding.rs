//! Binary genomes and DeJong's fixed-point decoding.

use rand::Rng;
use serde::Serialize;

use crate::functions::TestFn;

/// A fixed-length bit string stored packed (LSB-first within each byte).
///
/// Serializes compactly, so [`nscc_msg::wire_size`] charges migrants their
/// true encoded size.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct Genome {
    bits: usize,
    bytes: Vec<u8>,
}

impl Genome {
    /// An all-zero genome of `bits` bits.
    pub fn zeros(bits: usize) -> Self {
        Genome {
            bits,
            bytes: vec![0u8; bits.div_ceil(8)],
        }
    }

    /// A uniformly random genome of `bits` bits.
    pub fn random(bits: usize, rng: &mut impl Rng) -> Self {
        let mut g = Genome::zeros(bits);
        for b in &mut g.bytes {
            *b = rng.gen();
        }
        // Clear the padding bits so Eq/Hash are canonical.
        g.mask_tail();
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

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.bits
    }

    /// True if the genome has zero bits.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Read bit `i`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.bits);
        self.bytes[i / 8] & (1 << (i % 8)) != 0
    }

    /// Set bit `i`.
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.bits);
        let mask = 1u8 << (i % 8);
        if v {
            self.bytes[i / 8] |= mask;
        } else {
            self.bytes[i / 8] &= !mask;
        }
    }

    /// Flip bit `i`.
    pub fn flip(&mut self, i: usize) {
        assert!(i < self.bits);
        self.bytes[i / 8] ^= 1 << (i % 8);
    }

    /// Single-point crossover at `point` (bits `< point` from `self`, the
    /// rest from `other`). Returns the two children.
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

    /// Flip each bit independently with probability `rate`.
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

    /// Decode an unsigned integer from bits `[start, start+width)`
    /// (big-endian: the first bit is the most significant).
    pub fn decode_uint(&self, start: usize, width: usize) -> u64 {
        assert!(width <= 64 && start + width <= self.bits);
        let mut v = 0u64;
        for i in 0..width {
            v = (v << 1) | self.get(start + i) as u64;
        }
        v
    }

    /// Byte representation (for cache keys).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl nscc_ckpt::Snapshot for Genome {
    fn encode(&self, enc: &mut nscc_ckpt::Enc) {
        enc.put_u64(self.bits as u64);
        enc.put_bytes(&self.bytes);
    }

    fn decode(dec: &mut nscc_ckpt::Dec<'_>) -> Result<Self, nscc_ckpt::CkptError> {
        let bits = dec.u64()? as usize;
        let bytes = dec.bytes()?.to_vec();
        if bytes.len() != bits.div_ceil(8) {
            return Err(nscc_ckpt::CkptError::Malformed(format!(
                "genome of {bits} bits carries {} bytes",
                bytes.len()
            )));
        }
        let mut g = Genome { bits, bytes };
        // Canonicalize padding so Eq/Hash behave even for a checkpoint
        // written by a buggy or hostile encoder.
        g.mask_tail();
        Ok(g)
    }
}

/// Decode a genome into `f`'s decision variables under DeJong's coding:
/// each variable is `bits_per_var` bits mapped affinely onto `[lo, hi]`.
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

/// Evaluate `f` directly on a genome (decode + eval, deterministic part).
pub fn eval_genome(f: TestFn, genome: &Genome) -> f64 {
    f.eval(&decode(f, genome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zeros_decode_to_lower_limit() {
        for f in crate::functions::ALL_FUNCTIONS {
            let g = Genome::zeros(f.genome_bits());
            let x = decode(f, &g);
            let (lo, _) = f.limits();
            assert!(x.iter().all(|&v| (v - lo).abs() < 1e-12), "{}", f.name());
        }
    }

    #[test]
    fn ones_decode_to_upper_limit() {
        for f in crate::functions::ALL_FUNCTIONS {
            let mut g = Genome::zeros(f.genome_bits());
            for i in 0..g.len() {
                g.set(i, true);
            }
            let x = decode(f, &g);
            let (_, hi) = f.limits();
            assert!(x.iter().all(|&v| (v - hi).abs() < 1e-12), "{}", f.name());
        }
    }

    #[test]
    fn decode_uint_is_big_endian() {
        let mut g = Genome::zeros(8);
        g.set(0, true); // MSB of the first 4-bit field
        assert_eq!(g.decode_uint(0, 4), 8);
        g.set(3, true);
        assert_eq!(g.decode_uint(0, 4), 9);
        assert_eq!(g.decode_uint(4, 4), 0);
    }

    #[test]
    fn set_get_flip_roundtrip() {
        let mut g = Genome::zeros(19);
        g.set(0, true);
        g.set(18, true);
        assert!(g.get(0) && g.get(18) && !g.get(9));
        g.flip(18);
        assert!(!g.get(18));
    }

    #[test]
    fn crossover_exchanges_tails() {
        let mut a = Genome::zeros(10);
        let mut b = Genome::zeros(10);
        for i in 0..10 {
            a.set(i, true);
            b.set(i, false);
        }
        let (c, d) = a.crossover(&b, 4);
        for i in 0..10 {
            assert_eq!(c.get(i), i < 4);
            assert_eq!(d.get(i), i >= 4);
        }
    }

    #[test]
    fn crossover_matches_the_bit_by_bit_definition_at_every_point() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for bits in [1, 7, 8, 9, 30, 64, 100] {
            let a = Genome::random(bits, &mut rng);
            let b = Genome::random(bits, &mut rng);
            for point in 0..=bits {
                let (mut c, mut d) = (Genome::zeros(bits), Genome::zeros(bits));
                for i in 0..bits {
                    let (head, tail) = if i < point { (&a, &b) } else { (&b, &a) };
                    c.set(i, head.get(i));
                    d.set(i, tail.get(i));
                }
                assert_eq!(a.crossover(&b, point), (c, d), "{bits} bits at {point}");
            }
        }
    }

    #[test]
    fn crossover_at_extremes_is_identity_or_swap() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let a = Genome::random(32, &mut rng);
        let b = Genome::random(32, &mut rng);
        let (c, d) = a.crossover(&b, 32);
        assert_eq!((c, d), (a.clone(), b.clone()));
        let (c, d) = a.crossover(&b, 0);
        assert_eq!((c, d), (b, a));
    }

    #[test]
    fn mutation_rate_zero_and_one() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let g0 = Genome::random(64, &mut rng);
        let mut g = g0.clone();
        assert_eq!(g.mutate(0.0, &mut rng), 0);
        assert_eq!(g, g0);
        let flipped = g.mutate(1.0, &mut rng);
        assert_eq!(flipped, 64);
        for i in 0..64 {
            assert_eq!(g.get(i), !g0.get(i));
        }
    }

    #[test]
    fn random_genomes_have_canonical_padding() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for bits in [1, 7, 8, 9, 30] {
            let g = Genome::random(bits, &mut rng);
            // Reconstructing from the same visible bits must compare equal.
            let mut h = Genome::zeros(bits);
            for i in 0..bits {
                h.set(i, g.get(i));
            }
            assert_eq!(g, h);
        }
    }

    #[test]
    fn wire_size_is_compact() {
        let g = Genome::zeros(100);
        // 8 (usize) + 4 (len prefix) + 13 bytes of payload.
        assert_eq!(nscc_msg::wire_size(&g), 8 + 4 + 13);
    }
}
