//! Seed derivation for scenario tenant streams — the crate's only legal
//! home for the seed-splitting primitives, which the root `clippy.toml`
//! bans everywhere else (D3, DESIGN.md §11).
//!
//! Every tenant's stream seed is a pure function of
//! `(base_seed, seed_salt, tenant_index)`: independent of compile order,
//! worker count, and scheduling, which is what makes compiled scenarios
//! byte-identical across `THERMO_JOBS` settings.
#![expect(
    clippy::disallowed_methods,
    reason = "scenario tenant seeds are split here and nowhere else (D3)"
)]

use thermo_util::rng::derive_stream_seed;

/// The stream seed for tenant `tenant` of a scenario salted with
/// `seed_salt`, under the run's `base_seed`.
///
/// Matches the seed the sharded/co-scheduled runners hand to shard
/// `tenant` when the runner's base seed is `base_seed ^ seed_salt`, so a
/// scenario can be driven either by the runners or standalone and draw
/// identical streams.
pub fn tenant_stream_seed(base_seed: u64, seed_salt: u64, tenant: u64) -> u64 {
    derive_stream_seed(base_seed ^ seed_salt, tenant)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_and_distinct_per_tenant() {
        let a = tenant_stream_seed(1, 2, 0);
        assert_eq!(a, tenant_stream_seed(1, 2, 0));
        assert_ne!(a, tenant_stream_seed(1, 2, 1));
        assert_ne!(a, tenant_stream_seed(1, 3, 0));
    }
}
