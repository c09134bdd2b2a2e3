//! Binary genomes and DeJong's fixed-point decoding.

use nscc_msg::WireSize;
use rand::rngs::StdRng;
use rand::{Rng, Threshold};

use crate::functions::TestFn;

/// A fixed-length bit string stored packed (LSB-first within each byte),
/// inline: a genome is 40 plain bytes, `Copy`, and never touches the heap.
/// Bytes past the last used one, and the padding bits of that one, are
/// always zero, so the derived `Eq`/`Hash` are canonical.
///
/// Sized compactly on the wire (its length and the *used* bytes), so
/// [`nscc_msg::wire_size`] charges migrants their true encoded size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Genome {
    bits: usize,
    bytes: [u8; Genome::MAX_BITS / 8],
}

/// The genome as four little-endian words: bit `i` is bit `i % 64` of word
/// `i / 64`.
type Words = [u64; Genome::MAX_BITS / 64];

/// Bits `[start, start + width)` of `words` as a big-endian integer (the
/// first bit is the most significant); `1 <= width <= 64`, in range.
fn field(words: &Words, start: usize, width: usize) -> u64 {
    let (word, shift) = (start / 64, start % 64);
    let mut v = words[word] >> shift;
    if shift + width > 64 {
        v |= words[word + 1] << (64 - shift);
    }
    // `v` holds the field first-bit-lowest in its low `width` bits (and
    // junk above); reversing all 64 moves it to the top, first bit highest.
    v.reverse_bits() >> (64 - width)
}

impl Genome {
    /// The longest genome the inline storage holds. Table 1 needs at most
    /// 240 bits (F4: 30 variables × 8 bits); the cap is the next multiple
    /// of a 64-bit word.
    pub const MAX_BITS: usize = 256;

    /// An all-zero genome of `bits` bits. Panics past [`Genome::MAX_BITS`].
    pub fn zeros(bits: usize) -> Self {
        assert!(
            bits <= Genome::MAX_BITS,
            "a genome holds at most Genome::MAX_BITS = {} bits, not {bits}",
            Genome::MAX_BITS
        );
        Genome {
            bits,
            bytes: [0; Genome::MAX_BITS / 8],
        }
    }

    /// A uniformly random genome of `bits` bits: one `u8` draw per used
    /// byte, in order.
    pub fn random(bits: usize, rng: &mut impl Rng) -> Self {
        let mut g = Genome::zeros(bits);
        for b in &mut g.bytes[..bits.div_ceil(8)] {
            *b = rng.gen();
        }
        // Clear the padding bits so Eq/Hash are canonical.
        g.mask_tail();
        g
    }

    fn mask_tail(&mut self) {
        let used = self.bits % 8;
        if used != 0 {
            self.bytes[self.bits / 8] &= (1u8 << used) - 1;
        }
    }

    pub(crate) fn words(&self) -> Words {
        let mut words = [0; Genome::MAX_BITS / 64];
        for (word, chunk) in words.iter_mut().zip(self.bytes.chunks_exact(8)) {
            *word = u64::from_le_bytes(chunk.try_into().expect("chunks of 8"));
        }
        words
    }

    fn from_words(bits: usize, words: Words) -> Self {
        let mut bytes = [0; Genome::MAX_BITS / 8];
        for (chunk, word) in bytes.chunks_exact_mut(8).zip(words) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        Genome { bits, bytes }
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
        // Two masked copies, a word at a time: `head` has the low `point`
        // bits of the 256 set. Padding is zero on both sides, so it stays
        // zero.
        let (a, b) = (self.words(), other.words());
        let head = |w: usize| match point.saturating_sub(64 * w) {
            n if n >= 64 => u64::MAX,
            n => (1 << n) - 1,
        };
        let c = std::array::from_fn(|w| (a[w] & head(w)) | (b[w] & !head(w)));
        let d = std::array::from_fn(|w| (b[w] & head(w)) | (a[w] & !head(w)));
        (
            Genome::from_words(self.bits, c),
            Genome::from_words(self.bits, d),
        )
    }

    /// Flip each bit independently with probability `rate`, and return how
    /// many flipped: bit `i` flips iff the `i`-th of `len()` successive
    /// `gen::<f64>()` draws is below `rate` — one draw per bit, first bit
    /// first, whatever the rate and the outcome. (That stream is what the
    /// reports are pinned to; skipping ahead geometrically would be faster
    /// and would move every GA digest.) The draws are taken a word at a
    /// time ([`StdRng::below_mask`]), and `rate` may be given as a
    /// [`Threshold`] made once for many genomes.
    pub fn mutate(&mut self, rate: impl Into<Threshold>, rng: &mut StdRng) -> usize {
        let (rate, bits) = (rate.into(), self.bits);
        let mut flipped = 0;
        let used = self.bytes.chunks_exact_mut(8).take(bits.div_ceil(64));
        for (w, chunk) in used.enumerate() {
            let mask = rng.below_mask((bits - 64 * w).min(64) as u32, rate);
            let word = u64::from_le_bytes(chunk.try_into().expect("chunks of 8"));
            chunk.copy_from_slice(&(word ^ mask).to_le_bytes());
            flipped += mask.count_ones() as usize;
        }
        flipped
    }

    /// Decode an unsigned integer from bits `[start, start+width)`
    /// (big-endian: the first bit is the most significant).
    pub fn decode_uint(&self, start: usize, width: usize) -> u64 {
        assert!(width <= 64 && start + width <= self.bits);
        if width == 0 {
            return 0;
        }
        field(&self.words(), start, width)
    }

    /// The used bytes (`⌈len/8⌉` of them).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.bits.div_ceil(8)]
    }
}

/// The length, then the used bytes as a sequence: 8 + 4 + ⌈bits/8⌉ on
/// the wire, what a derived size charged while the bytes were a `Vec<u8>`.
impl WireSize for Genome {
    fn wire_size(&self) -> usize {
        self.bits.wire_size() + self.as_bytes().wire_size()
    }
}

impl nscc_ckpt::Snapshot for Genome {
    fn encode(&self, enc: &mut nscc_ckpt::Enc) {
        enc.put_u64(self.bits as u64);
        enc.put_bytes(self.as_bytes());
    }

    fn decode(dec: &mut nscc_ckpt::Dec<'_>) -> Result<Self, nscc_ckpt::CkptError> {
        let bits = dec.u64()?;
        if bits > Genome::MAX_BITS as u64 {
            return Err(nscc_ckpt::CkptError::Malformed(format!(
                "genome of {bits} bits exceeds the {}-bit capacity",
                Genome::MAX_BITS
            )));
        }
        let mut g = Genome::zeros(bits as usize);
        let bytes = dec.bytes()?;
        if bytes.len() != g.as_bytes().len() {
            return Err(nscc_ckpt::CkptError::Malformed(format!(
                "genome of {bits} bits carries {} bytes",
                bytes.len()
            )));
        }
        g.bytes[..bytes.len()].copy_from_slice(bytes);
        // Canonicalize padding so Eq/Hash behave even for a checkpoint
        // written by a buggy or hostile encoder.
        g.mask_tail();
        Ok(g)
    }
}

/// Room for the variables of any Table 1 function (F4 has 30) in a buffer
/// on the stack.
pub(crate) const MAX_DIMS: usize = 32;

/// DeJong's coding of one function's variables: a `bits_per_var`-bit raw
/// value mapped affinely onto the domain `[lo, hi]`.
pub(crate) struct Coding {
    lo: f64,
    span: f64,
    denom: f64,
}

impl Coding {
    pub(crate) fn of(f: TestFn) -> Self {
        let (lo, hi) = f.limits();
        Coding {
            lo,
            span: hi - lo,
            denom: ((1u64 << f.bits_per_var()) - 1) as f64,
        }
    }

    pub(crate) fn phenotype(&self, raw: u64) -> f64 {
        self.lo + self.span * raw as f64 / self.denom
    }
}

/// The raw (integer) value of each of `f`'s variables in `genome`, in
/// variable order.
pub(crate) fn raw_fields(f: TestFn, genome: &Genome) -> impl Iterator<Item = u64> {
    let w = f.bits_per_var();
    assert_eq!(
        genome.len(),
        f.genome_bits(),
        "{}: genome length mismatch",
        f.name()
    );
    let words = genome.words();
    (0..f.dims()).map(move |i| field(&words, i * w, w))
}

/// [`decode`] into a caller-provided buffer; returns the filled prefix.
pub(crate) fn decode_into<'a>(f: TestFn, genome: &Genome, x: &'a mut [f64; MAX_DIMS]) -> &'a [f64] {
    let coding = Coding::of(f);
    let mut dims = 0;
    for (slot, raw) in x.iter_mut().zip(raw_fields(f, genome)) {
        *slot = coding.phenotype(raw);
        dims += 1;
    }
    &x[..dims]
}

/// Decode a genome into `f`'s decision variables under DeJong's coding:
/// each variable is `bits_per_var` bits mapped affinely onto `[lo, hi]`.
pub fn decode(f: TestFn, genome: &Genome) -> Vec<f64> {
    decode_into(f, genome, &mut [0.0; MAX_DIMS]).to_vec()
}

/// Evaluate `f` directly on a genome (decode + eval, deterministic part).
pub fn eval_genome(f: TestFn, genome: &Genome) -> f64 {
    f.eval(decode_into(f, genome, &mut [0.0; MAX_DIMS]))
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
        for bits in [1, 7, 8, 9, 30, 64, 100, 129, Genome::MAX_BITS] {
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
        assert_eq!(a.crossover(&b, 32), (a, b));
        assert_eq!(a.crossover(&b, 0), (b, a));
    }

    #[test]
    fn mutation_rate_zero_and_one() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let g0 = Genome::random(64, &mut rng);
        let mut g = g0;
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

    #[test]
    fn every_table1_function_fits_the_inline_storage() {
        for f in crate::functions::ALL_FUNCTIONS {
            assert!(f.genome_bits() <= Genome::MAX_BITS, "{}", f.name());
            assert!(f.dims() <= MAX_DIMS, "{}", f.name());
        }
    }

    #[test]
    #[should_panic(expected = "Genome::MAX_BITS = 256")]
    fn a_genome_past_the_cap_is_refused_by_name() {
        Genome::zeros(Genome::MAX_BITS + 1);
    }

    #[test]
    fn snapshot_decode_is_total() {
        use nscc_ckpt::{from_bytes, to_bytes, CkptError, Enc};
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        for bits in [0, 1, 30, 255, Genome::MAX_BITS] {
            let g = Genome::random(bits, &mut rng);
            assert_eq!(from_bytes::<Genome>(&to_bytes(&g)).unwrap(), g);
        }
        // Longer than the inline storage: an error, not a slice panic.
        let mut enc = Enc::new();
        enc.put_u64(Genome::MAX_BITS as u64 + 1);
        enc.put_bytes(&[0xff; 33]);
        let err = from_bytes::<Genome>(&enc.into_bytes()).unwrap_err();
        assert!(matches!(err, CkptError::Malformed(_)), "{err:?}");
        // A byte count that does not match the bit count.
        let mut enc = Enc::new();
        enc.put_u64(30);
        enc.put_bytes(&[0xff; 5]);
        let err = from_bytes::<Genome>(&enc.into_bytes()).unwrap_err();
        assert!(matches!(err, CkptError::Malformed(_)), "{err:?}");
        // Set padding bits are cleared, so equality stays canonical.
        let mut enc = Enc::new();
        enc.put_u64(30);
        enc.put_bytes(&[0xff; 4]);
        let g = from_bytes::<Genome>(&enc.into_bytes()).unwrap();
        assert_eq!(g.as_bytes(), [0xff, 0xff, 0xff, 0x3f]);
    }
}
