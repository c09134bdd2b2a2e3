//! Minimal offline stand-in for the `proptest` crate, good enough to
//! compile and smoke-run this repo's property tests without the real
//! dependency tree. Instead of random exploration, each property runs
//! three deterministic samples per axis: the low end, the midpoint and
//! the high end of every range strategy. That exercises the property's
//! code path and boundary values; the real proptest (in CI / tier-1)
//! does the actual searching.
//!
//! Supported surface (what the test files `tools/offline/check.sh` runs use;
//! the ones it skips need strategies a three-point sampler cannot model):
//! - `proptest! { [#![proptest_config(...)]] #[test] fn name(x in range, ...) { .. } }`,
//!   the body free to `return Ok(())` early as under the real macro
//! - `Range`/`RangeInclusive` strategies over common numeric types, and
//!   `any::<T>()` for the integer types
//! - `prop_assert!`, `prop_assert_eq!`, `ProptestConfig::with_cases`

/// Configuration accepted (and ignored) for API compatibility.
pub struct ProptestConfig {
    /// Number of cases the real proptest would run.
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// A deterministic three-point sampler standing in for `Strategy`.
pub trait Sample {
    type Value;
    /// `which` ∈ {0, 1, 2}: low, midpoint, high.
    fn pick(&self, which: usize) -> Self::Value;
}

/// The strategy `any::<T>()` returns: the whole domain of `T`.
pub struct Any<T>(core::marker::PhantomData<T>);

pub fn any<T>() -> Any<T> {
    Any(core::marker::PhantomData)
}

macro_rules! int_sample {
    ($($t:ty),*) => {$(
        impl Sample for core::ops::Range<$t> {
            type Value = $t;
            fn pick(&self, which: usize) -> $t {
                let hi = self.end - 1;
                match which {
                    0 => self.start,
                    1 => self.start + (hi - self.start) / 2,
                    _ => hi,
                }
            }
        }
        impl Sample for Any<$t> {
            type Value = $t;
            fn pick(&self, which: usize) -> $t {
                match which {
                    0 => <$t>::MIN,
                    1 => <$t>::MAX / 2,
                    _ => <$t>::MAX,
                }
            }
        }
        impl Sample for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn pick(&self, which: usize) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                match which {
                    0 => lo,
                    1 => lo + (hi - lo) / 2,
                    _ => hi,
                }
            }
        }
    )*};
}
int_sample!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Sample for core::ops::Range<f64> {
    type Value = f64;
    fn pick(&self, which: usize) -> f64 {
        match which {
            0 => self.start,
            1 => 0.5 * (self.start + self.end),
            _ => self.start + 0.99 * (self.end - self.start),
        }
    }
}

#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let _ = $cfg;
                for __which in 0..3usize {
                    $(let $arg = $crate::Sample::pick(&($strat), __which);)*
                    // A closure, as in the real macro: the body may leave
                    // a case early with `return Ok(())`.
                    let __case = || -> Result<(), String> {
                        $body
                        Ok(())
                    };
                    __case().unwrap();
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::with_cases(256))]
            $($rest)*
        }
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

pub mod prelude {
    pub use crate::{any, ProptestConfig, Sample};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}
