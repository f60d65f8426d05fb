//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! property-testing crate.
//!
//! Implements the subset this workspace's property tests use: the
//! [`Strategy`] trait (integer ranges, tuples, `prop_map`,
//! `prop::collection::vec`, [`any`]), the [`proptest!`] macro, and the
//! `prop_assert*` macros. Differences from the real crate, deliberately
//! accepted:
//!
//! * cases are generated from a **fixed seed** (fully deterministic runs —
//!   256 cases per property);
//! * **no shrinking**: a failing case reports its inputs via the assertion
//!   message but is not minimized.
//!
//! Swapping in the real crate requires no source changes.

#![warn(missing_docs)]

use std::ops::Range;

/// Number of cases each property runs. Matches the real crate's default.
pub const DEFAULT_CASES: u32 = 256;

/// Per-block configuration, settable via
/// `#![proptest_config(ProptestConfig::with_cases(n))]` inside [`proptest!`].
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases each property in the block runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self {
            cases: DEFAULT_CASES,
        }
    }
}

/// A deterministic SplitMix64 generator driving case generation.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift; the tiny bias is irrelevant for test-case
        // generation.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// A recipe for generating values of an associated type.
pub trait Strategy {
    /// The type of value this strategy generates.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_strategy_for_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = (end as i128 - start as i128) as u64;
                (start as i128 + rng.below(span.saturating_add(1).max(1)) as i128) as $t
            }
        }
    )*};
}

impl_strategy_for_int_range!(u8, u32, u64, usize);

macro_rules! impl_strategy_for_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

impl_strategy_for_tuple!(A: 0, B: 1);
impl_strategy_for_tuple!(A: 0, B: 1, C: 2);
impl_strategy_for_tuple!(A: 0, B: 1, C: 2, D: 3);

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Generates an arbitrary value of this type.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u64, usize);

/// Strategy returned by [`any`].
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The strategy generating any value of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

/// Collection strategies (`prop::collection` in the real crate).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Generates `Vec`s whose length is drawn from `size` and whose elements
    /// are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            assert!(self.size.start < self.size.end, "empty size range");
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Mirrors the real crate's `prop` module path (`prop::collection::vec`).
pub mod prop {
    pub use super::collection;
}

/// The glob-importable prelude, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use super::{any, prop, prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};
}

/// Asserts a condition inside a property, reporting the failing inputs.
#[macro_export]
macro_rules! prop_assert {
    ($($arg:tt)*) => { assert!($($arg)*) };
}

/// Asserts equality inside a property, reporting the failing inputs.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($arg:tt)*) => { assert_eq!($($arg)*) };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running the body over [`DEFAULT_CASES`] generated
/// cases. Attributes written above each `fn` (including `#[test]`) are
/// preserved.
#[macro_export]
macro_rules! proptest {
    (@internal $config:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __cases = $crate::ProptestConfig { ..$config }.cases;
            // Seed derived from the test name so distinct properties explore
            // distinct sequences, deterministically across runs.
            let mut __rng = {
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for b in stringify!($name).bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x1000_0000_01b3);
                }
                $crate::TestRng::new(h)
            };
            // Bind each strategy once, then sample it per case. The sampled
            // value shadows the strategy binding inside the loop.
            $(let $arg = $strategy;)+
            for __case in 0..__cases {
                $(let $arg = $crate::Strategy::generate(&$arg, &mut __rng);)+
                $body
            }
        }
    )*};
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@internal $config; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@internal $crate::ProptestConfig::default(); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_pairs() -> impl Strategy<Value = Vec<(u64, bool)>> {
        prop::collection::vec(
            (0u64..10, any::<bool>()).prop_map(|(a, b)| (a * 2, b)),
            1..20,
        )
    }

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3u64..17, y in 0usize..4, z in 1u64..=5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y < 4);
            prop_assert!((1..=5).contains(&z));
        }

        #[test]
        fn mapped_collections_apply_map(v in arb_pairs()) {
            prop_assert!(!v.is_empty() && v.len() < 20);
            for (a, _) in v {
                prop_assert_eq!(a % 2, 0);
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::TestRng::new(5);
        let mut b = crate::TestRng::new(5);
        for _ in 0..50 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
