//! Offline stand-in for the [`rand`](https://crates.io/crates/rand) crate
//! (0.8-flavoured API).
//!
//! Provides exactly what the workspace uses: [`rngs::StdRng`] seeded via
//! [`SeedableRng::seed_from_u64`], [`Rng::gen_range`] over `u32`, `u64` and
//! `usize` ranges and inclusive ranges, and [`Rng::gen_bool`]. The generator is xoshiro256++ seeded through
//! SplitMix64 — statistically strong for workload generation, deterministic
//! for reproducible experiments, and **not** cryptographically secure (the
//! real `StdRng` is ChaCha-based; nothing in this workspace relies on that).
//! Swapping in the real crate requires no source changes.

#![warn(missing_docs)]

/// The core of a random number generator: a source of random `u64`s.
pub trait RngCore {
    /// Returns the next random `u64`.
    fn next_u64(&mut self) -> u64;
}

/// An RNG that can be deterministically seeded.
pub trait SeedableRng: Sized {
    /// Creates an RNG from a `u64` seed, expanding it to full state via
    /// SplitMix64 (the same construction the real crate documents).
    fn seed_from_u64(state: u64) -> Self;
}

/// User-facing convenience methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// Samples a value uniformly from the given range
    /// (`low..high` or `low..=high`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p out of range: {p}");
        // 53 random mantissa bits -> uniform in [0, 1).
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }
}

impl<R: RngCore> Rng for R {}

/// A range that [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Samples one value uniformly from the range.
    fn sample_single<R: RngCore>(self, rng: &mut R) -> T;
}

// Uniform sampling over [0, n) without modulo bias, via Lemire's method
// with a rejection loop.
fn uniform_below(rng: &mut impl RngCore, n: u64) -> u64 {
    debug_assert!(n > 0);
    let mut m = (rng.next_u64() as u128).wrapping_mul(n as u128);
    let mut low = m as u64;
    if low < n {
        let threshold = n.wrapping_neg() % n;
        while low < threshold {
            m = (rng.next_u64() as u128).wrapping_mul(n as u128);
            low = m as u64;
        }
    }
    (m >> 64) as u64
}

/// Types [`Rng::gen_range`] can sample uniformly. Mirrors the real crate's
/// `SampleUniform` so type inference behaves identically (e.g.
/// `rng.gen_range(0..100) < some_u32` infers `u32`).
pub trait SampleUniform: Sized + Copy + PartialOrd {
    /// Uniform sample from `[low, high)` (or `[low, high]` when `inclusive`).
    fn sample_between<R: RngCore>(rng: &mut R, low: Self, high: Self, inclusive: bool) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore>(
                rng: &mut R,
                low: Self,
                high: Self,
                inclusive: bool,
            ) -> Self {
                if inclusive {
                    assert!(low <= high, "gen_range: empty range");
                } else {
                    assert!(low < high, "gen_range: empty range");
                }
                let span = (high as i128 - low as i128) as u128 + inclusive as u128;
                if span == 0 || span > u64::MAX as u128 {
                    // Only reachable for (nearly) the full u64/i64 domain.
                    return rng.next_u64() as $t;
                }
                (low as i128 + uniform_below(rng, span as u64) as i128) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(u32, u64, usize);

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn sample_single<R: RngCore>(self, rng: &mut R) -> T {
        T::sample_between(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample_single<R: RngCore>(self, rng: &mut R) -> T {
        T::sample_between(rng, *self.start(), *self.end(), true)
    }
}

/// Concrete RNG implementations.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// A deterministic, seedable PRNG (xoshiro256++).
    ///
    /// Unlike the real crate's ChaCha-based `StdRng` this is not
    /// cryptographically secure; it is statistically strong and fast, which
    /// is all the workload generators need.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            // SplitMix64 expansion, as recommended by the xoshiro authors.
            let mut sm = state;
            let mut next = move || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            Self {
                s: [next(), next(), next(), next()],
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0u64..1_000_000), b.gen_range(0u64..1_000_000));
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(10u32..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(1u64..=5);
            assert!((1..=5).contains(&w));
            let u = rng.gen_range(0usize..3);
            assert!(u < 3);
        }
    }

    #[test]
    fn all_values_in_small_range_are_hit() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }
}
