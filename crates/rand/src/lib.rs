//! The workspace's random numbers: a SplitMix64 `StdRng` behind the trait
//! names of the `rand` crate, and only the calls the workspace makes
//! (`gen`, `gen_range`, `gen_bool`, `shuffle`, `seed_from_u64`), plus
//! [`for_each_case`], the seeded loop the property tests run on, and
//! [`StdRng::below_mask`](rngs::StdRng::below_mask), a word of
//! `gen::<f64>() < p` outcomes taken straight from SplitMix's counter.
//!
//! The package is `nscc-rand`, but every manifest maps it to the name
//! `rand` (`package = "nscc-rand"`), so call sites read `use rand::…`. The
//! name is forced: the frozen `crates/perf/build-offline.sh` compiles this
//! file (through the `tools/offline/rand_shim.rs` forwarder) and hands it
//! to the workspace crates as `--extern rand`, and no other name would be
//! visible to them in that build. Every seeded result in the repository —
//! reports, baselines, repros — comes from this one stream.

use std::ops::{Range, RangeInclusive};

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// Sampling of a "standard" value (rand's `Standard` distribution).
pub trait Standard01: Sized {
    fn sample01<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! std01_int {
    ($($ty:ty),+) => {
        $(
            impl Standard01 for $ty {
                fn sample01<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                    rng.next_u64() as $ty
                }
            }
        )+
    };
}

std01_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard01 for bool {
    fn sample01<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard01 for f64 {
    fn sample01<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random bits in [0, 1), like rand's Standard for f64.
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A probability `p` as a bound on the 53 bits a `gen::<f64>()` draw is
/// made of: the draw is `m·2⁻⁵³` with `m = next_u64() >> 11`, and for an
/// integer `m < 2⁵³`, `m·2⁻⁵³ < p` ⇔ `m < ⌈p·2⁵³⌉`. Scaling by 2⁵³ is
/// exact, and the saturating `as u64` maps NaN and every `p ≤ 0` to 0 (no
/// draw is below them) and a `p` past 2¹¹ to `u64::MAX` (every draw is), so
/// the two tests agree for every `f64`. Computing the bound costs a `ceil`:
/// make it once per run of draws, not once per draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Threshold(u64);

impl Threshold {
    /// The bound `⌈p·2⁵³⌉` (saturated) for the probability `p`.
    pub fn new(p: f64) -> Self {
        Threshold((p * (1u64 << 53) as f64).ceil() as u64)
    }
}

impl From<f64> for Threshold {
    fn from(p: f64) -> Self {
        Threshold::new(p)
    }
}

/// Ranges usable with [`Rng::gen_range`] (rand's `SampleRange`).
pub trait SampleRange<T> {
    fn sample_in<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! range_int {
    ($($ty:ty),+) => {
        $(
            impl SampleRange<$ty> for Range<$ty> {
                fn sample_in<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                    assert!(self.start < self.end, "gen_range: empty range");
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    self.start.wrapping_add((rng.next_u64() % span) as $ty)
                }
            }
            impl SampleRange<$ty> for RangeInclusive<$ty> {
                fn sample_in<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "gen_range: empty range");
                    let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                    if span == 0 {
                        // Full-width range: every value is fair game.
                        return rng.next_u64() as $ty;
                    }
                    lo.wrapping_add((rng.next_u64() % span) as $ty)
                }
            }
        )+
    };
}

range_int!(u8, u16, u32, u64, usize, i32, i64);

impl SampleRange<f64> for Range<f64> {
    fn sample_in<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        self.start + f64::sample01(rng) * (self.end - self.start)
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample_in<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        lo + f64::sample01(rng) * (hi - lo)
    }
}

pub trait Rng: RngCore {
    fn gen<T: Standard01>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample01(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p not in [0, 1]");
        f64::sample01(self) < p
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_in(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub trait SeedableRng: Sized {
    fn seed_from_u64(state: u64) -> Self;
}

pub mod rngs {
    use super::{RngCore, SeedableRng, Threshold};

    /// SplitMix64's increment: the state advances by it once per draw.
    pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    /// SplitMix64's output function up to its last xorshift. That step,
    /// `y ^ (y >> 31)`, leaves the top 31 bits of `y` as they are.
    #[inline]
    fn premix(z: u64) -> u64 {
        let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB)
    }

    /// The last step of the output function.
    #[inline]
    fn finish(y: u64) -> u64 {
        y ^ (y >> 31)
    }

    /// SplitMix64's output function: the one finalizer every seeded
    /// stream and counter-based draw in the workspace goes through.
    #[inline]
    pub fn mix(z: u64) -> u64 {
        finish(premix(z))
    }

    /// SplitMix64: tiny, decent equidistribution, plenty for simulations.
    /// It is counter-based (Steele, Lea & Flood, OOPSLA 2014): the `i`-th
    /// draw from here on is `mix(state + i·GAMMA)`, so a run of draws can be
    /// taken without the chain of state updates between them.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            StdRng {
                state: state.wrapping_add(GAMMA),
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(GAMMA);
            mix(self.state)
        }
    }

    impl StdRng {
        /// The next `n ≤ 64` draws as the outcomes of `gen::<f64>() < p`,
        /// for the `p` that `below` stands for: bit `i` is set iff the
        /// `i`-th draw is below it. Draws exactly `n` values, whatever the
        /// outcome, so the stream stands where `n` `gen::<f64>()` calls
        /// would leave it.
        #[inline]
        pub fn below_mask(&mut self, n: u32, below: Threshold) -> u64 {
            assert!(n <= 64, "below_mask: {n} draws do not fit a word");
            let start = self.state;
            self.state = start.wrapping_add(GAMMA.wrapping_mul(n as u64));
            // A draw is below iff its top 53 bits are at most `last`.
            let Some(last) = below.0.checked_sub(1) else {
                return 0;
            };
            // The top 31 of those are final before the last xorshift, so a
            // draw that is below has `premix ≤ top` (`y >> 33 ≤ last >> 22`
            // as one comparison). At a small `p` that rejects almost every
            // draw, and only the survivors pay for the rest of `mix`.
            let top = match last >> 53 {
                0 => last << 11 | ((1 << 33) - 1),
                _ => u64::MAX,
            };
            let is_below = |y: u64| y <= top && finish(y) >> 11 <= last;
            let (mut z, mut mask, mut i) = (start, 0, 0);
            // Four draws to one branch, which is almost never taken.
            while i + 4 <= n {
                let y = [1, 2, 3, 4].map(|k| premix(z.wrapping_add(GAMMA.wrapping_mul(k))));
                if (y[0] <= top) | (y[1] <= top) | (y[2] <= top) | (y[3] <= top) {
                    for (k, &y) in y.iter().enumerate() {
                        if is_below(y) {
                            mask |= 1 << (i as usize + k);
                        }
                    }
                }
                z = z.wrapping_add(GAMMA.wrapping_mul(4));
                i += 4;
            }
            for i in i..n {
                z = z.wrapping_add(GAMMA);
                if is_below(premix(z)) {
                    mask |= 1 << i;
                }
            }
            mask
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::{for_each_case, Rng};

        /// `x ^ (x >> s)` undone.
        fn unxorshift(y: u64, s: u32) -> u64 {
            (0..64 / s).fold(y, |x, _| y ^ (x >> s))
        }

        /// The inverse of an odd `c` modulo 2⁶⁴ (Newton's iteration).
        fn inverse(c: u64) -> u64 {
            (0..6).fold(c, |inv, _| {
                inv.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(inv)))
            })
        }

        /// The counter value whose `premix` is `y`.
        fn unpremix(y: u64) -> u64 {
            let x = unxorshift(y.wrapping_mul(inverse(0x94D0_49BB_1331_11EB)), 27);
            unxorshift(x.wrapping_mul(inverse(0xBF58_476D_1CE4_E5B9)), 30)
        }

        #[test]
        fn below_mask_decides_draws_on_the_prefilter_edge() {
            // Draws whose value before the last xorshift sits on the
            // prefilter's bound or beside it: where an early rejection could
            // go wrong, and where no seeded stream lands. Each is put in every
            // position of a word of 7 and of 8 draws (the four-draw loop and
            // its remainder).
            for_each_case(200, |rng| {
                let t: u64 = rng.gen_range(1..=1 << 53);
                let p = t as f64 / (1u64 << 53) as f64; // exact: ⌈p·2⁵³⌉ = t
                let top = (t - 1) << 11 | ((1 << 33) - 1);
                for y in [top, top.wrapping_add(1), top - 1, top & !((1 << 33) - 1)] {
                    assert_eq!(premix(unpremix(y)), y);
                    for n in [7, 8] {
                        for lane in 0..n {
                            let at = unpremix(y).wrapping_sub(GAMMA.wrapping_mul(lane + 1));
                            let mut rng = StdRng { state: at };
                            let mut by_draws = rng.clone();
                            let expected = (0..n).fold(0u64, |mask, i| {
                                mask | ((by_draws.gen::<f64>() < p) as u64) << i
                            });
                            let mask = rng.below_mask(n as u32, Threshold::new(p));
                            assert_eq!(mask, expected, "t = {t}, y = {y:#x}, lane {lane} of {n}");
                        }
                    }
                }
            });
        }
    }
}

pub mod seq {
    use super::{Rng, RngCore};

    pub trait SliceRandom {
        fn shuffle<R: RngCore>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: RngCore>(&mut self, rng: &mut R) {
            // Fisher–Yates.
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }
    }
}

/// Runs `property` once per case seed in `0..cases`, each on a fresh
/// `StdRng::seed_from_u64(case)`, and names the seed of a failing case on
/// stderr so it can be rerun alone.
pub fn for_each_case(cases: u64, mut property: impl FnMut(&mut rngs::StdRng)) {
    struct Case(u64);
    impl Drop for Case {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("property failed at case seed {}", self.0);
            }
        }
    }
    for case in 0..cases {
        let _case = Case(case);
        property(&mut rngs::StdRng::seed_from_u64(case));
    }
}

#[cfg(test)]
mod tests {
    use super::{for_each_case, Rng, RngCore, Threshold};

    #[test]
    fn below_mask_is_n_draws_of_gen_f64_below_p() {
        let ps = [
            0.0,
            f64::from_bits(1), // 5e-324, the least positive f64
            1e-3,
            0.5,
            1.0 - f64::EPSILON / 2.0, // the largest draw, 1 − 2⁻⁵³
            1.0,
            1.5,
            -1.0,
            f64::NAN,
        ];
        for_each_case(32, |rng| {
            for p in ps {
                for n in 0..=64 {
                    let mut by_draws = rng.clone();
                    let expected = (0..n).fold(0u64, |mask, i| {
                        mask | ((by_draws.gen::<f64>() < p) as u64) << i
                    });
                    let mask = rng.below_mask(n, Threshold::new(p));
                    assert_eq!(mask, expected, "n = {n}, p = {p:e}");
                    assert_eq!(
                        rng.clone().next_u64(),
                        by_draws.next_u64(),
                        "n = {n}, p = {p:e}"
                    );
                }
            }
        });
    }

    #[test]
    fn below_mask_meets_draws_on_both_sides_of_the_threshold() {
        // Seeded draws almost never land next to a threshold; put the
        // threshold next to the draws instead. For each of a word's draws
        // `m·2⁻⁵³`, a `p` of exactly that value, one ulp above and one ulp
        // below must each split the word like the per-draw test. Words of
        // 61 to 64 draws end on each of the four-draw loop's remainders.
        for_each_case(32, |rng| {
            let n = rng.gen_range(61..=64);
            let mut probe = rng.clone();
            let draws: Vec<f64> = (0..n).map(|_| probe.gen::<f64>()).collect();
            for &d in &draws {
                for p in [d, d.next_up(), d.next_down()] {
                    let expected = draws
                        .iter()
                        .enumerate()
                        .fold(0u64, |mask, (i, &x)| mask | ((x < p) as u64) << i);
                    let mask = rng.clone().below_mask(n, Threshold::new(p));
                    assert_eq!(mask, expected, "p = {p:e}");
                }
            }
        });
    }
}
