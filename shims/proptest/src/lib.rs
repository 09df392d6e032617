//! Offline stand-in for [`proptest`](https://docs.rs/proptest).
//!
//! Provides the strategy combinators and the `proptest!` macro surface the
//! workspace's property tests use. Differences from the real crate, all
//! acceptable for these tests:
//!
//! * cases are generated from a deterministic per-test seed (derived from the
//!   test name), so runs are reproducible without a persistence file;
//! * there is **no shrinking** — a failing case panics with the case number;
//! * `prop_assert!` / `prop_assert_eq!` are plain assertions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::{Range, RangeInclusive};

/// Configuration accepted by `#![proptest_config(...)]`.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// Deterministic per-test random source.
pub struct TestRng(StdRng);

impl TestRng {
    /// Seeds from the test name so every test gets a stable, distinct stream.
    pub fn deterministic(name: &str) -> Self {
        let mut hash = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
        for b in name.bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng(StdRng::seed_from_u64(hash))
    }

    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.0
    }
}

/// A generator of test values.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then generates from the strategy it selects.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// Always produces a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// The result of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// The result of [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;

    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

macro_rules! impl_numeric_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.rng().random_range(self.clone())
            }
        }
    )*};
}

impl_numeric_range!(usize, u32, u64, f64);

impl Strategy for RangeInclusive<usize> {
    type Value = usize;

    fn generate(&self, rng: &mut TestRng) -> usize {
        rng.rng().random_range(*self.start()..*self.end() + 1)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        // Closed float ranges are sampled from the half-open range; hitting
        // the exact upper endpoint has probability ~0 anyway.
        if self.start() == self.end() {
            return *self.start();
        }
        rng.rng().random_range(*self.start()..*self.end())
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A: 0);
impl_tuple_strategy!(A: 0, B: 1);
impl_tuple_strategy!(A: 0, B: 1, C: 2);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);

/// Types with a canonical "anything goes" strategy (see [`any`]).
pub trait Arbitrary {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.rng().random()
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.rng().random()
    }
}

/// Strategy producing arbitrary values of `T`.
pub struct Any<T>(std::marker::PhantomData<T>);

pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Sizes accepted by [`vec()`]: exact or ranged.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(exact: usize) -> Self {
            Self {
                lo: exact,
                hi_inclusive: exact,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(range: Range<usize>) -> Self {
            assert!(!range.is_empty(), "empty size range");
            Self {
                lo: range.start,
                hi_inclusive: range.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(range: RangeInclusive<usize>) -> Self {
            Self {
                lo: *range.start(),
                hi_inclusive: *range.end(),
            }
        }
    }

    /// Vector of values from `element`, with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.lo == self.size.hi_inclusive {
                self.size.lo
            } else {
                rng.rng()
                    .random_range(self.size.lo..self.size.hi_inclusive + 1)
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Option strategies (`proptest::option::weighted`).
pub mod option {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// `Some(value)` with probability `p`, `None` otherwise.
    pub fn weighted<S: Strategy>(p: f64, inner: S) -> Weighted<S> {
        Weighted { p, inner }
    }

    pub struct Weighted<S> {
        p: f64,
        inner: S,
    }

    impl<S: Strategy> Strategy for Weighted<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.rng().random_bool(self.p) {
                Some(self.inner.generate(rng))
            } else {
                None
            }
        }
    }
}

/// Declares deterministic property tests; mirrors `proptest::proptest!`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! { config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (config = $config:expr; ) => {};
    (config = $config:expr;
     $(#[$meta:meta])*
     fn $name:ident( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $config;
            let mut __rng = $crate::TestRng::deterministic(stringify!($name));
            for __case in 0..__config.cases {
                let ($($pat,)+) = ($($crate::Strategy::generate(&($strat), &mut __rng),)+);
                $body
            }
        }
        $crate::__proptest_tests! { config = $config; $($rest)* }
    };
}

/// Plain assertion (the shim does not collect failures for shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($arg:tt)*) => { assert!($($arg)*) };
}

/// Plain equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($arg:tt)*) => { assert_eq!($($arg)*) };
}

pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, proptest, Arbitrary, Just, ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_tuples_generate_in_bounds(
            (a, b) in (0usize..10, 1.0f64..2.0),
            v in crate::collection::vec(0usize..5, 1..=4usize),
            opt in crate::option::weighted(0.5, 0u64..9)
        ) {
            prop_assert!(a < 10);
            prop_assert!((1.0..2.0).contains(&b));
            prop_assert!((1..=4).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| x < 5));
            if let Some(x) = opt {
                prop_assert!(x < 9);
            }
        }

        #[test]
        fn flat_map_chains_strategies(n in (1usize..4).prop_flat_map(|n| (Just(n), crate::collection::vec(0usize..10, n)))) {
            let (len, items) = n;
            prop_assert_eq!(items.len(), len);
        }
    }

    #[test]
    fn deterministic_rng_is_stable_per_name() {
        let mut a = crate::TestRng::deterministic("x");
        let mut b = crate::TestRng::deterministic("x");
        let s = (0usize..100).generate(&mut a);
        let t = (0usize..100).generate(&mut b);
        assert_eq!(s, t);
    }
}
