//! A small, seeded property-test runner — the in-tree `proptest`
//! replacement.
//!
//! A property is a closure over values drawn from [`Strategy`] instances;
//! the [`forall!`](crate::forall!) macro wires N generated cases through
//! it and, on failure, greedily shrinks the counterexample (integers
//! toward the range start, vectors by dropping and shrinking elements)
//! before reporting it:
//!
//! ```
//! use thermo_util::forall;
//! use thermo_util::proptest_lite::{range, vec_of};
//!
//! forall!(cases = 64, (xs in vec_of(range(0u32..100), 0..20)) => {
//!     let mut sorted = xs.clone();
//!     sorted.sort();
//!     assert_eq!(sorted.len(), xs.len());
//! });
//! ```
//!
//! Everything is deterministic: case `i` of a run is generated from
//! `splitmix64(config seed, i)`, and the default seed is derived from the
//! call site (`file!()`/`line!()`), so a failing case reproduces exactly
//! on rerun.

use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::rng::{splitmix64, SeedableRng, SmallRng};

/// Runner configuration: number of cases and the base seed.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Number of generated cases to run.
    pub cases: u32,
    /// Base seed; case `i` uses a value derived from `seed` and `i`.
    pub seed: u64,
}

/// A source of generated values with optional shrinking.
pub trait Strategy {
    /// The generated value type.
    type Value: Clone + Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut SmallRng) -> Self::Value;

    /// Proposes strictly "smaller" candidates for a failing value.
    /// Strategies without a useful notion of smaller return nothing.
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }

    /// Maps generated values through `f` (no shrinking through the map).
    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        T: Clone + Debug,
        F: Fn(Self::Value) -> T,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy for heterogeneous collections
    /// (e.g. [`weighted`] branch lists).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T: Clone + Debug> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut SmallRng) -> T {
        (**self).generate(rng)
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        (**self).shrink(value)
    }
}

// ---------------------------------------------------------------------------
// Primitive strategies
// ---------------------------------------------------------------------------

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut SmallRng) -> T {
        self.0.clone()
    }
}

/// Integer types usable with [`range`] and [`any`].
pub trait ArbitraryInt: Copy + Clone + Debug + PartialOrd {
    /// Uniform draw from `[lo, hi)`.
    fn sample(rng: &mut SmallRng, lo: Self, hi: Self) -> Self;
    /// Uniform draw over the whole domain.
    fn sample_any(rng: &mut SmallRng) -> Self;
    /// Shrink candidates between `origin` and `value` (toward `origin`).
    fn shrink_toward(origin: Self, value: Self) -> Vec<Self>;
    /// The natural shrink origin for `any` (zero).
    fn zero() -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl ArbitraryInt for $t {
            fn sample(rng: &mut SmallRng, lo: Self, hi: Self) -> Self {
                use crate::rng::Rng;
                rng.gen_range(lo..hi)
            }
            fn sample_any(rng: &mut SmallRng) -> Self {
                rng.next_u64() as $t
            }
            fn shrink_toward(origin: Self, value: Self) -> Vec<Self> {
                if value == origin {
                    return Vec::new();
                }
                // i128 covers every integer type here, so the distance
                // arithmetic cannot overflow and every candidate lies
                // between origin and value (safe to cast back).
                let o = origin as i128;
                let v = value as i128;
                let d = v - o;
                let sign = if d > 0 { 1 } else { -1 };
                // Bisection ladder: origin, then approach `value` from the
                // origin side by halving the remaining distance, ending
                // with the single step `value - sign`. Greedy descent takes
                // the first (largest) jump that still fails.
                let mut out: Vec<Self> = vec![origin];
                for k in 1..=4 {
                    let cand = v - d / (1i128 << k);
                    let cand = cand as Self;
                    if cand != origin && cand != value && !out.contains(&cand) {
                        out.push(cand);
                    }
                }
                let step = (v - sign) as Self;
                if step != origin && !out.contains(&step) {
                    out.push(step);
                }
                out
            }
            fn zero() -> Self {
                0
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Uniform integers in `[lo, hi)`, shrinking toward `lo`.
#[derive(Debug, Clone)]
pub struct IntRange<T> {
    lo: T,
    hi: T,
}

/// Uniform integer strategy over `lo..hi` (half-open, like proptest ranges).
pub fn range<T: ArbitraryInt>(r: Range<T>) -> IntRange<T> {
    assert!(r.start < r.end, "range: empty range");
    IntRange {
        lo: r.start,
        hi: r.end,
    }
}

impl<T: ArbitraryInt> Strategy for IntRange<T> {
    type Value = T;

    fn generate(&self, rng: &mut SmallRng) -> T {
        T::sample(rng, self.lo, self.hi)
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        T::shrink_toward(self.lo, *value)
    }
}

/// Uniform `f64` in `[lo, hi)`, shrinking toward `lo`.
#[derive(Debug, Clone)]
pub struct F64Range {
    lo: f64,
    hi: f64,
}

/// Uniform `f64` strategy over `lo..hi`.
pub fn frange(r: Range<f64>) -> F64Range {
    assert!(r.start < r.end, "frange: empty range");
    F64Range {
        lo: r.start,
        hi: r.end,
    }
}

impl Strategy for F64Range {
    type Value = f64;

    fn generate(&self, rng: &mut SmallRng) -> f64 {
        use crate::rng::Rng;
        self.lo + rng.gen::<f64>() * (self.hi - self.lo)
    }

    fn shrink(&self, value: &f64) -> Vec<f64> {
        if *value == self.lo {
            return Vec::new();
        }
        let mid = self.lo + (value - self.lo) / 2.0;
        if mid != *value {
            vec![self.lo, mid]
        } else {
            vec![self.lo]
        }
    }
}

/// Values drawn uniformly from a type's whole domain (`any::<u64>()`,
/// `any::<bool>()`), shrinking toward zero/`false`.
#[derive(Debug, Clone, Default)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

/// Strategy over the full domain of `T`.
pub fn any<T>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

impl<T: ArbitraryInt> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut SmallRng) -> T {
        T::sample_any(rng)
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        T::shrink_toward(T::zero(), *value)
    }
}

impl Strategy for Any<bool> {
    type Value = bool;

    fn generate(&self, rng: &mut SmallRng) -> bool {
        use crate::rng::Rng;
        rng.gen()
    }

    fn shrink(&self, value: &bool) -> Vec<bool> {
        if *value {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

// ---------------------------------------------------------------------------
// Combinators
// ---------------------------------------------------------------------------

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, T, F> Strategy for Map<S, F>
where
    S: Strategy,
    T: Clone + Debug,
    F: Fn(S::Value) -> T,
{
    type Value = T;

    fn generate(&self, rng: &mut SmallRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

/// Weighted choice among boxed branches of the same value type; the
/// `prop_oneof!`-with-weights replacement. Shrink candidates come from
/// every branch that could plausibly have produced the value.
pub struct Weighted<T> {
    branches: Vec<(u32, BoxedStrategy<T>)>,
    total: u64,
}

/// Builds a weighted-union strategy. Panics if empty or all-zero weight.
pub fn weighted<T: Clone + Debug>(branches: Vec<(u32, BoxedStrategy<T>)>) -> Weighted<T> {
    let total: u64 = branches.iter().map(|(w, _)| *w as u64).sum();
    assert!(
        total > 0,
        "weighted: need at least one branch with weight > 0"
    );
    Weighted { branches, total }
}

impl<T: Clone + Debug> Strategy for Weighted<T> {
    type Value = T;

    fn generate(&self, rng: &mut SmallRng) -> T {
        use crate::rng::Rng;
        let mut pick = rng.gen_range(0..self.total);
        for (w, strat) in &self.branches {
            let w = *w as u64;
            if pick < w {
                return strat.generate(rng);
            }
            pick -= w;
        }
        unreachable!("weighted: pick exceeded total weight");
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        let mut out = Vec::new();
        for (_, strat) in &self.branches {
            out.extend(strat.shrink(value));
        }
        out.truncate(16);
        out
    }
}

/// Vectors of `elem` with a length drawn from `len`; shrinks by dropping
/// chunks/elements and by shrinking individual elements.
#[derive(Debug, Clone)]
pub struct VecOf<S> {
    elem: S,
    min_len: usize,
    max_len: usize,
}

/// `vec_of(strategy, 1..300)` — vector strategy with length in the
/// half-open range.
pub fn vec_of<S: Strategy>(elem: S, len: Range<usize>) -> VecOf<S> {
    assert!(len.start < len.end, "vec_of: empty length range");
    VecOf {
        elem,
        min_len: len.start,
        max_len: len.end,
    }
}

impl<S: Strategy> Strategy for VecOf<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut SmallRng) -> Vec<S::Value> {
        use crate::rng::Rng;
        let len = rng.gen_range(self.min_len..self.max_len);
        (0..len).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let mut out = Vec::new();
        let len = value.len();
        // Drop the front half / back half.
        if len / 2 >= self.min_len && len > 1 {
            out.push(value[..len / 2].to_vec());
            out.push(value[len - len / 2..].to_vec());
        }
        // Drop single elements, last first: ops after the one that fails
        // go at one candidate each (the runner's budget bounds the rest).
        if len > self.min_len {
            for i in (0..len).rev() {
                let mut v = value.clone();
                v.remove(i);
                out.push(v);
            }
        }
        // Shrink individual elements (bounded element count; the per-
        // element candidate ladder is already small).
        for i in 0..len.min(8) {
            for cand in self.elem.shrink(&value[i]) {
                let mut v = value.clone();
                v[i] = cand;
                out.push(v);
            }
        }
        out
    }
}

macro_rules! impl_strategy_tuple {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut SmallRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&value.$idx) {
                        let mut v = value.clone();
                        v.$idx = cand;
                        out.push(v);
                    }
                )+
                out
            }
        }
    )*};
}
impl_strategy_tuple! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// Deterministic per-call-site default seed (mixes `file!()` and `line!()`).
pub fn default_seed(file: &str, line: u32) -> u64 {
    let mut h: u64 = 0x51ab_2e01_77f3_9d41;
    for b in file.bytes() {
        h = splitmix64(&mut { h ^ b as u64 });
    }
    h ^= line as u64;
    splitmix64(&mut h)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs `test` over `cfg.cases` generated values, shrinking the first
/// failure and panicking with the minimal counterexample.
pub fn run<S: Strategy>(cfg: &Config, strat: &S, test: impl Fn(S::Value)) {
    let fails = |v: &S::Value| -> Option<String> {
        let v = v.clone();
        match catch_unwind(AssertUnwindSafe(|| test(v))) {
            Ok(()) => None,
            Err(payload) => Some(panic_message(&*payload)),
        }
    };

    for case in 0..cfg.cases {
        let mut state = cfg.seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(case as u64 + 1));
        let case_seed = splitmix64(&mut state);
        let mut rng = SmallRng::seed_from_u64(case_seed);
        let value = strat.generate(&mut rng);
        if let Some(first_msg) = fails(&value) {
            // Greedy shrink: take the first failing candidate, repeat.
            let mut minimal = value;
            let mut msg = first_msg;
            let mut budget = 2000u32;
            'outer: while budget > 0 {
                for cand in strat.shrink(&minimal) {
                    budget = budget.saturating_sub(1);
                    if let Some(m) = fails(&cand) {
                        minimal = cand;
                        msg = m;
                        continue 'outer;
                    }
                    if budget == 0 {
                        break;
                    }
                }
                break;
            }
            panic!(
                "property failed (case {case}/{cases}, seed {seed:#018x})\n\
                 minimal input: {minimal:?}\n\
                 failure: {msg}",
                cases = cfg.cases,
                seed = cfg.seed,
            );
        }
    }
}

/// Runs a property over generated inputs with shrink-on-failure.
///
/// ```
/// use thermo_util::forall;
/// use thermo_util::proptest_lite::{any, range};
///
/// forall!(cases = 32, (x in range(0u64..1000)), (flag in any::<bool>()) => {
///     let doubled = x * 2;
///     assert!(doubled >= x || flag == flag);
/// });
/// ```
///
/// An optional `seed = <expr>` before the bindings overrides the
/// call-site-derived default seed.
#[macro_export]
macro_rules! forall {
    (cases = $n:expr, seed = $seed:expr, $(($name:ident in $strat:expr)),+ $(,)? => $body:block) => {{
        let strat = ($($strat,)+);
        let cfg = $crate::proptest_lite::Config { cases: $n, seed: $seed };
        $crate::proptest_lite::run(&cfg, &strat, |($($name,)+)| $body);
    }};
    (cases = $n:expr, $(($name:ident in $strat:expr)),+ $(,)? => $body:block) => {{
        let strat = ($($strat,)+);
        let cfg = $crate::proptest_lite::Config {
            cases: $n,
            seed: $crate::proptest_lite::default_seed(file!(), line!()),
        };
        $crate::proptest_lite::run(&cfg, &strat, |($($name,)+)| $body);
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut count = 0u32;
        let counter = std::cell::Cell::new(0u32);
        forall!(cases = 50, (x in range(0u32..100)) => {
            assert!(x < 100);
            counter.set(counter.get() + 1);
        });
        count += counter.get();
        assert_eq!(count, 50);
    }

    #[test]
    fn generation_is_deterministic() {
        let strat = vec_of(range(0u64..1_000_000), 1..50);
        let cfg = Config { cases: 5, seed: 42 };
        let collect = |cfg: &Config| {
            let mut out = Vec::new();
            for case in 0..cfg.cases {
                let mut state = cfg.seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(case as u64 + 1));
                let mut rng = SmallRng::seed_from_u64(splitmix64(&mut state));
                out.push(strat.generate(&mut rng));
            }
            out
        };
        assert_eq!(collect(&cfg), collect(&cfg));
        assert_ne!(collect(&cfg), collect(&Config { cases: 5, seed: 43 }));
    }

    #[test]
    fn failing_property_shrinks_to_minimal_int() {
        // Property "x < 500" fails for x in [500, 1000); minimal is 500.
        let result = catch_unwind(AssertUnwindSafe(|| {
            forall!(cases = 200, seed = 7, (x in range(0u64..1000)) => {
                assert!(x < 500, "too big: {x}");
            });
        }));
        let msg = panic_message(&*result.unwrap_err());
        assert!(
            msg.contains("minimal input: (500,)"),
            "unexpected report:\n{msg}"
        );
    }

    #[test]
    fn failing_property_shrinks_vectors() {
        // Fails when the vec contains any element >= 50; minimal
        // counterexample is a single-element vec [50].
        let result = catch_unwind(AssertUnwindSafe(|| {
            forall!(cases = 200, seed = 11, (xs in vec_of(range(0u32..100), 0..20)) => {
                assert!(xs.iter().all(|&x| x < 50));
            });
        }));
        let msg = panic_message(&*result.unwrap_err());
        assert!(
            msg.contains("minimal input: ([50],)"),
            "unexpected report:\n{msg}"
        );
    }

    #[test]
    fn weighted_union_hits_every_branch() {
        let strat = weighted(vec![
            (8, Just(0u8).boxed()),
            (1, Just(1u8).boxed()),
            (1, range(2u8..10).boxed()),
        ]);
        let mut seen = [false; 3];
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..200 {
            match strat.generate(&mut rng) {
                0 => seen[0] = true,
                1 => seen[1] = true,
                _ => seen[2] = true,
            }
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    fn prop_map_transforms() {
        let strat = range(0u32..10).prop_map(|x| x * 2);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..50 {
            assert_eq!(strat.generate(&mut rng) % 2, 0);
        }
    }

    #[test]
    fn frange_stays_in_bounds_and_shrinks() {
        let strat = frange(1.0..2.0);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..100 {
            let x = strat.generate(&mut rng);
            assert!((1.0..2.0).contains(&x));
        }
        assert!(strat.shrink(&1.5).contains(&1.0));
        assert!(strat.shrink(&1.0).is_empty());
    }

    #[test]
    fn any_bool_and_ints() {
        let mut rng = SmallRng::seed_from_u64(5);
        let b = any::<bool>();
        let mut seen = [false; 2];
        for _ in 0..50 {
            seen[b.generate(&mut rng) as usize] = true;
        }
        assert_eq!(seen, [true, true]);
        assert_eq!(any::<u64>().shrink(&0), Vec::<u64>::new());
        assert!(any::<i64>().shrink(&-10).contains(&0));
    }
}
