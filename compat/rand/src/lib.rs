//! Offline stand-in for the [`rand`](https://crates.io/crates/rand) crate.
//!
//! The build container has no access to the crates.io registry, so this
//! workspace vendors the *API subset it actually uses* behind the same
//! crate name: [`Rng`], [`SeedableRng`], and the [`rngs::SmallRng`] /
//! [`rngs::StdRng`] generator types. Both generators are xoshiro256++
//! seeded through SplitMix64 — a small, fast, statistically strong PRNG
//! (passes BigCrush), which is what the simulation layers need.
//!
//! Streams are **not** bit-compatible with upstream `rand`; every consumer
//! in this repository only relies on determinism-per-seed, never on the
//! exact stream, so this is safe. If the real crate ever becomes
//! available, deleting `compat/rand` and restoring the registry dependency
//! is the only change required.

/// Low-level source of random 64-bit words.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 random bits (upper half of [`Self::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Types that can be sampled uniformly from an RNG (the `Standard`
/// distribution of upstream `rand`).
pub trait Standard: Sized {
    /// Draws one uniformly distributed value.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            #[inline]
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

impl Standard for bool {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges that [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// `next_u64() mod span`, for a nonzero `span` of at most `2^64`. A span
/// that fits in `u64` (all but the full-width inclusive `u64` and `i64`
/// ranges) takes the remainder in `u64`, with the value the `u128`
/// remainder has, and no 128-bit division call.
#[inline]
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u128) -> u128 {
    match u64::try_from(span) {
        Ok(span) => u128::from(rng.next_u64() % span),
        Err(_) => u128::from(rng.next_u64()) % span,
    }
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + below(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + below(rng, span) as i128) as $t
            }
        }
    )*};
}
impl_sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_sample_range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                self.start + (self.end - self.start) * <$t as Standard>::sample_standard(rng)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                lo + (hi - lo) * <$t as Standard>::sample_standard(rng)
            }
        }
    )*};
}
impl_sample_range_float!(f32, f64);

/// High-level sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value of type `T` from its standard uniform distribution
    /// (`[0, 1)` for floats, full range for integers).
    #[inline]
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p must be in [0, 1]");
        f64::sample_standard(self) < p
    }

    /// Draws a value uniformly from `range`.
    #[inline]
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

/// RNGs constructible from a seed.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed (expanded via SplitMix64).
    fn seed_from_u64(seed: u64) -> Self;
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ core shared by [`rngs::SmallRng`] and [`rngs::StdRng`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    fn from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = splitmix64(&mut sm);
        }
        // An all-zero state would be a fixed point; SplitMix64 cannot
        // produce four zero outputs in a row, but guard anyway.
        if s == [0; 4] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256 { s }
    }

    #[inline]
    fn next(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// Concrete generator types, mirroring `rand::rngs`.
pub mod rngs {
    use super::{SeedableRng, Xoshiro256};

    /// Small, fast generator (upstream: also xoshiro256++ on 64-bit).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng(Xoshiro256);

    /// Default "standard" generator. Upstream uses ChaCha12; simulation
    /// code here only needs determinism and statistical quality, which
    /// xoshiro256++ provides at a fraction of the cost.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng(Xoshiro256);

    impl super::RngCore for SmallRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            self.0.next()
        }
    }

    impl super::RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            self.0.next()
        }
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            SmallRng(Xoshiro256::from_u64(seed))
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // Different stream from SmallRng for the same seed, as with
            // upstream's distinct algorithms.
            StdRng(Xoshiro256::from_u64(seed ^ 0xA076_1D64_78BD_642F))
        }
    }
}

/// `rand::prelude` equivalent for glob imports.
pub mod prelude {
    pub use super::rngs::{SmallRng, StdRng};
    pub use super::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::rngs::{SmallRng, StdRng};
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed_and_distinct_across_seeds() {
        let draw = |s| {
            let mut r = SmallRng::seed_from_u64(s);
            (0..8).map(|_| r.gen::<u64>()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn small_and_std_streams_differ() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(1);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn floats_are_unit_interval() {
        let mut r = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x: f64 = r.gen();
            assert!((0.0..1.0).contains(&x));
            let y: f32 = r.gen();
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = SmallRng::seed_from_u64(5);
        for _ in 0..10_000 {
            let a = r.gen_range(3usize..17);
            assert!((3..17).contains(&a));
            let b = r.gen_range(-4i32..=4);
            assert!((-4..=4).contains(&b));
            let c = r.gen_range(0.25f64..=1.0);
            assert!((0.25..=1.0).contains(&c));
        }
    }

    #[test]
    fn u64_remainder_draws_what_the_u128_remainder_drew() {
        let spans: [u128; 8] = [
            1,
            2,
            3,
            60,
            (1 << 32) - 1,
            (1 << 32) + 1,
            1 << 63,
            u128::from(u64::MAX),
        ];
        for span in spans {
            let (mut a, mut b) = (StdRng::seed_from_u64(17), StdRng::seed_from_u64(17));
            for _ in 0..10_000 {
                let want = u128::from(a.next_u64()) % span;
                assert_eq!(super::below(&mut b, span), want, "span {span}");
            }
        }
    }

    #[test]
    fn full_width_inclusive_ranges_reach_the_top_half() {
        let mut r = StdRng::seed_from_u64(19);
        let high = (0..64)
            .filter(|_| r.gen_range(0..=u64::MAX) > 1 << 63)
            .count();
        assert!(high > 0, "no draw above 2^63");
        let high = (0..64)
            .filter(|_| r.gen_range(i64::MIN..=i64::MAX) > 0)
            .count();
        assert!(high > 0, "no positive i64 draw");
        assert_eq!(super::below(&mut r, 1 << 64) >> 64, 0);
    }

    #[test]
    fn gen_bool_mean_is_close_to_p() {
        let mut r = StdRng::seed_from_u64(11);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.3)).count();
        let mean = hits as f64 / 100_000.0;
        assert!((mean - 0.3).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn uniform_mean_and_variance() {
        let mut r = StdRng::seed_from_u64(13);
        let n = 200_000;
        let (mut s1, mut s2) = (0.0_f64, 0.0_f64);
        for _ in 0..n {
            let x: f64 = r.gen();
            s1 += x;
            s2 += x * x;
        }
        let mean = s1 / n as f64;
        let var = s2 / n as f64 - mean * mean;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
        assert!((var - 1.0 / 12.0).abs() < 0.005, "var {var}");
    }
}
