//! Deterministic pseudo-random numbers with a `rand`-compatible surface.
//!
//! [`SmallRng`] is a xoshiro256** generator seeded through splitmix64,
//! exactly reproducible across platforms and Rust versions (no
//! floating-point in the core state transition). The [`Rng`],
//! [`SeedableRng`] and [`SliceRandom`] traits mirror the subset of the
//! `rand` 0.8 API the workspace uses, so call sites read identically:
//!
//! ```
//! use thermo_util::rng::{Rng, SeedableRng, SmallRng};
//! let mut rng = SmallRng::seed_from_u64(42);
//! let u: f64 = rng.gen();
//! let k = rng.gen_range(0..10u64);
//! assert!(u < 1.0 && k < 10);
//! ```

use std::ops::Range;

/// Splitmix64 step: the standard seeding finalizer (also a high-quality
/// 64-bit mixing function in its own right).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives the seed of an independent random stream from a base seed and
/// a stream index (job id, shard id, tenant id, ...).
///
/// Two splitmix64 finalizer steps over `(base, stream)` give every stream
/// a seed that is statistically unrelated to both the base seed and every
/// sibling stream, so parallel jobs seeded as
/// `derive_stream_seed(base, job_id)` draw from disjoint sequences: the
/// property the deterministic execution subsystem (`thermo-exec`) and the
/// tenant shard runner rely on. Pure function of `(base, stream)` —
/// independent of call order, thread, or platform.
pub fn derive_stream_seed(base: u64, stream: u64) -> u64 {
    // Offset the stream index by a golden-ratio multiple before mixing so
    // `(base, 0)` and `(base+1, 0)` never collapse onto the same state,
    // then run two finalizer rounds for full avalanche.
    let mut state = base ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let _ = splitmix64(&mut state);
    splitmix64(&mut state)
}

/// Parses a seed: decimal, or hexadecimal after `0x`, with optional `_`
/// digit separators between digits (`0xa5_2017`). Anything else —
/// empty, signed, spaced, out of range — is `None`.
pub fn parse_seed(s: &str) -> Option<u64> {
    if s.starts_with('_') || s.ends_with('_') {
        return None;
    }
    let digits: String = s.chars().filter(|&c| c != '_').collect();
    let (radix, body) = match digits
        .strip_prefix("0x")
        .or_else(|| digits.strip_prefix("0X"))
    {
        Some(hex) => (16, hex),
        None => (10, digits.as_str()),
    };
    if body.is_empty() || !body.chars().all(|c| c.is_digit(radix)) {
        return None;
    }
    u64::from_str_radix(body, radix).ok()
}

/// Reads a seed knob from the environment variable `var` (unset = `None`).
///
/// # Panics
///
/// Panics, naming the variable and its value, when it is set but is not a
/// [`parse_seed`] seed — a typo must not silently turn a fuzz run into an
/// unfuzzed one.
pub fn seed_from_env(var: &str) -> Option<u64> {
    let value = std::env::var_os(var)?;
    let text = value.to_string_lossy();
    match parse_seed(&text) {
        Some(seed) => Some(seed),
        None => panic!(
            "{var}={text:?} is not a seed (decimal, or hex with a 0x prefix; `_` separators allowed)"
        ),
    }
}

/// A small, fast, deterministic PRNG (xoshiro256**).
///
/// Drop-in for the subset of `rand::rngs::SmallRng` the workspace relies
/// on. Not cryptographically secure; statistically solid for simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    s: [u64; 4],
}

/// Construction from a 64-bit seed (the only seeding mode the repo uses —
/// every run must be reproducible from a printable seed).
pub trait SeedableRng: Sized {
    /// Builds a generator whose whole state derives from `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for SmallRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = splitmix64(&mut sm);
        }
        // All-zero state is the one degenerate case; splitmix64 of any seed
        // cannot produce it for all four words, but guard anyway.
        if s == [0; 4] {
            s[0] = 0x9e37_79b9_7f4a_7c15;
        }
        Self { s }
    }
}

impl SmallRng {
    /// Advances the generator one step (xoshiro256**).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
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

/// Types [`Rng::gen`] can produce (the `rand` `Standard` distribution).
pub trait FromRng {
    /// Draws one value from the generator's full/unit range.
    fn from_rng(rng: &mut SmallRng) -> Self;
}

macro_rules! impl_from_rng_int {
    ($($t:ty),*) => {$(
        impl FromRng for $t {
            #[inline]
            fn from_rng(rng: &mut SmallRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_from_rng_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl FromRng for bool {
    #[inline]
    fn from_rng(rng: &mut SmallRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl FromRng for f64 {
    /// Uniform in `[0, 1)` with full 53-bit mantissa resolution.
    #[inline]
    fn from_rng(rng: &mut SmallRng) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl FromRng for f32 {
    /// Uniform in `[0, 1)` with 24-bit resolution.
    #[inline]
    fn from_rng(rng: &mut SmallRng) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Types [`Rng::gen_range`] can sample over a half-open range.
pub trait SampleUniform: Sized {
    /// Uniform draw from `[lo, hi)`.
    fn sample_range(rng: &mut SmallRng, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_sample_uniform_uint {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_range(rng: &mut SmallRng, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "gen_range: empty range");
                let span = (hi as u64).wrapping_sub(lo as u64);
                // Lemire-style scaling: multiply-shift maps a 64-bit draw
                // onto [0, span) with negligible bias for simulation use.
                let v = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                lo + v as $t
            }
        }
    )*};
}
impl_sample_uniform_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_range(rng: &mut SmallRng, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "gen_range: empty range");
                let span = (hi as i64).wrapping_sub(lo as i64) as u64;
                let v = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                ((lo as i64).wrapping_add(v as i64)) as $t
            }
        }
    )*};
}
impl_sample_uniform_int!(i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    #[inline]
    fn sample_range(rng: &mut SmallRng, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "gen_range: empty range");
        let u = f64::from_rng(rng);
        lo + u * (hi - lo)
    }
}

/// The `rand::Rng` subset used across the workspace, as an extension
/// trait over [`SmallRng`].
pub trait Rng {
    /// Raw 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// One value of `T` (`rand`'s `Standard` distribution: full range for
    /// integers, `[0, 1)` for floats).
    fn gen<T: FromRng>(&mut self) -> T
    where
        Self: AsSmallRng,
    {
        T::from_rng(self.as_small_rng())
    }

    /// Uniform draw from the half-open range `r`.
    fn gen_range<T: SampleUniform>(&mut self, r: Range<T>) -> T
    where
        Self: AsSmallRng,
    {
        T::sample_range(self.as_small_rng(), r.start, r.end)
    }

    /// True with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: AsSmallRng,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p out of range");
        f64::from_rng(self.as_small_rng()) < p
    }

    /// A standard-normal deviate scaled to `mean`/`std_dev` (Box–Muller;
    /// uses two draws per call, no cached spare, so the consumed stream
    /// length is input-independent).
    fn gen_gaussian(&mut self, mean: f64, std_dev: f64) -> f64
    where
        Self: AsSmallRng,
    {
        let rng = self.as_small_rng();
        // Avoid ln(0): the 53-bit uniform can produce exactly 0.
        let u1: f64 = (f64::from_rng(rng)).max(f64::MIN_POSITIVE);
        let u2: f64 = f64::from_rng(rng);
        let r = (-2.0 * u1.ln()).sqrt();
        mean + std_dev * r * (std::f64::consts::TAU * u2).cos()
    }
}

/// Glue so [`Rng`]'s provided methods can reach the concrete generator.
pub trait AsSmallRng {
    /// The underlying concrete generator.
    fn as_small_rng(&mut self) -> &mut SmallRng;
}

impl AsSmallRng for SmallRng {
    #[inline]
    fn as_small_rng(&mut self) -> &mut SmallRng {
        self
    }
}

impl Rng for SmallRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        SmallRng::next_u64(self)
    }
}

/// In-place random reordering and selection on slices (the
/// `rand::seq::SliceRandom` subset the workspace uses).
pub trait SliceRandom {
    /// Element type.
    type Item;

    /// Fisher–Yates shuffle, deterministic for a given generator state.
    fn shuffle(&mut self, rng: &mut SmallRng);

    /// Uniformly random element, `None` when empty.
    fn choose<'a>(&'a self, rng: &mut SmallRng) -> Option<&'a Self::Item>;
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn shuffle(&mut self, rng: &mut SmallRng) {
        for i in (1..self.len()).rev() {
            let j = usize::sample_range(rng, 0, i + 1);
            self.swap(i, j);
        }
    }

    fn choose<'a>(&'a self, rng: &mut SmallRng) -> Option<&'a T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[usize::sample_range(rng, 0, self.len())])
        }
    }
}

/// Samples a Zipf-distributed rank in `0..n` with exponent `theta` by
/// inversion over the harmonic CDF approximation (YCSB's generator lives
/// in `thermo-workloads::dist`; this helper is for quick harness use).
pub fn zipf_rank(rng: &mut SmallRng, n: u64, theta: f64) -> u64 {
    assert!(
        n > 0 && theta > 0.0 && theta < 1.0,
        "zipf_rank: bad parameters"
    );
    let u = f64::from_rng(rng);
    // Inverse of the continuous approximation of the zipf CDF.
    let rank = ((n as f64).powf(1.0 - theta) * u).powf(1.0 / (1.0 - theta)) as u64;
    rank.min(n - 1)
}

/// `rand::rngs` compatibility: `rngs::SmallRng` resolves here.
pub mod rngs {
    pub use super::SmallRng;
}

/// `rand::seq` compatibility: `seq::SliceRandom` resolves here.
pub mod seq {
    pub use super::SliceRandom;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_parse_in_decimal_and_hex() {
        assert_eq!(parse_seed("0xa5_2017"), Some(0xa5_2017));
        assert_eq!(parse_seed("0x1f"), Some(31));
        assert_eq!(parse_seed("0XFF"), Some(255));
        assert_eq!(parse_seed("3735928559"), Some(0xdead_beef));
        assert_eq!(parse_seed("1_000"), Some(1000));
        assert_eq!(parse_seed("0"), Some(0));
        assert_eq!(parse_seed("18446744073709551615"), Some(u64::MAX));
        assert_eq!(parse_seed("0xffff_ffff_ffff_ffff"), Some(u64::MAX));
        for bad in [
            "",
            "-1",
            "+1",
            "abc",
            "1f",
            "0x",
            "0x_",
            "0xg1",
            "1.5",
            "_1",
            "1_",
            " 7",
            "7 ",
            "18446744073709551616",
            "0x1_0000_0000_0000_0000",
        ] {
            assert_eq!(parse_seed(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn stream_seeds_are_pure_and_pairwise_distinct() {
        // Pure function of (base, stream)...
        assert_eq!(derive_stream_seed(7, 3), derive_stream_seed(7, 3));
        // ...and no collisions across a realistic fleet of streams or
        // between adjacent bases (the (base, 0) vs (base+1, 0) trap).
        let mut seen = std::collections::BTreeSet::new();
        for base in 0..8u64 {
            for stream in 0..256u64 {
                assert!(
                    seen.insert(derive_stream_seed(base, stream)),
                    "seed collision at base {base} stream {stream}"
                );
            }
        }
    }

    #[test]
    fn stream_seeds_yield_uncorrelated_generators() {
        // Generators seeded from adjacent stream ids must not produce
        // overlapping prefixes (disjoint per-job streams).
        let mut a = SmallRng::seed_from_u64(derive_stream_seed(42, 0));
        let mut b = SmallRng::seed_from_u64(derive_stream_seed(42, 1));
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        assert!(xs.iter().all(|x| !ys.contains(x)), "streams overlap");
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams should be unrelated, {same} collisions");
    }

    #[test]
    fn unit_floats_in_range_and_spread() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn gen_range_bounds_and_uniformity() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut hist = [0u32; 10];
        for _ in 0..100_000 {
            let k = rng.gen_range(0..10u64);
            hist[k as usize] += 1;
        }
        for &h in &hist {
            assert!((8_000..12_000).contains(&h), "bucket count {h} too skewed");
        }
        // u8 and f64 ranges work too.
        for _ in 0..1000 {
            assert!(rng.gen_range(0..100u8) < 100);
            let x = rng.gen_range(2.0..3.0);
            assert!((2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_negative_ints() {
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..1000 {
            let v = rng.gen_range(-50i64..50);
            assert!((-50..50).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = SmallRng::seed_from_u64(6);
        rng.gen_range(5..5u32);
    }

    #[test]
    fn shuffle_is_a_permutation_and_deterministic() {
        let mut v: Vec<u32> = (0..100).collect();
        let mut w = v.clone();
        v.shuffle(&mut SmallRng::seed_from_u64(9));
        w.shuffle(&mut SmallRng::seed_from_u64(9));
        assert_eq!(v, w, "same seed must shuffle identically");
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v, sorted,
            "a 100-element shuffle virtually never is identity"
        );
    }

    #[test]
    fn choose_covers_all_elements() {
        let v = [1u8, 2, 3];
        let mut rng = SmallRng::seed_from_u64(10);
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[(*v.choose(&mut rng).unwrap() - 1) as usize] = true;
        }
        assert_eq!(seen, [true; 3]);
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = SmallRng::seed_from_u64(11);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gen_gaussian(5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "gaussian mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "gaussian variance {var}");
    }

    #[test]
    fn zipf_rank_head_heavy() {
        let mut rng = SmallRng::seed_from_u64(12);
        let mut head = 0;
        let n = 20_000;
        for _ in 0..n {
            let r = zipf_rank(&mut rng, 1000, 0.99);
            assert!(r < 1000);
            if r < 100 {
                head += 1;
            }
        }
        assert!(head as f64 / n as f64 > 0.5, "zipf head fraction too small");
    }

    #[test]
    fn gen_bool_probability() {
        let mut rng = SmallRng::seed_from_u64(13);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!(
            (2_200..2_800).contains(&hits),
            "gen_bool(0.25) hit {hits}/10000"
        );
    }
}
