//! The co-scheduled runner's only randomized choice — the ordering-fuzz
//! permutation — isolated in `decide.rs` per the repo's RNG-containment
//! rule (D3, which thermo-sim's `clippy.toml` enforces): every draw site
//! lives here, is pure in `(rng state, inputs)`, and is unit-testable
//! without a runner.
#![expect(
    clippy::disallowed_methods,
    reason = "the runner's ordering-fuzz draw lives here (D3)"
)]

use thermo_util::rng::{SliceRandom, SmallRng};

/// Fisher–Yates–shuffles `batch` in place under the fuzz RNG.
///
/// Called once per arbiter window on the order in which tenants advance
/// through it — tenants own disjoint engines, so the runner's contract
/// says that order must not be observable. `tests/sched_fuzz.rs` asserts
/// artifacts are byte-identical under four seeds of this permutation.
pub(crate) fn permute_batch(rng: &mut SmallRng, batch: &mut [u32]) {
    batch.shuffle(rng);
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermo_util::rng::SeedableRng;

    #[test]
    fn permutation_is_seed_deterministic_and_a_bijection() {
        let mut a: Vec<u32> = (0..16).collect();
        let mut b = a.clone();
        permute_batch(&mut SmallRng::seed_from_u64(7), &mut a);
        permute_batch(&mut SmallRng::seed_from_u64(7), &mut b);
        assert_eq!(a, b, "same seed, same permutation");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>(), "a permutation");
        let mut c: Vec<u32> = (0..16).collect();
        permute_batch(&mut SmallRng::seed_from_u64(8), &mut c);
        assert_ne!(a, c, "different seeds diverge (16! ≫ collisions)");
    }
}
