//! Every RNG draw of this crate's policies, in historical draw order.
//!
//! Mirrors `thermostat/src/daemon/decide.rs`: randomized policy decisions
//! live in pure helpers in one module, so the sequence of draws per tick —
//! part of the golden-artifact contract — is auditable in one place. This
//! crate's `clippy.toml` bans RNG draws (D3, DESIGN.md §11) everywhere
//! but here.
//!
//! Draw order per [`crate::Damon`] sampling pass: exactly one
//! [`draw_probe_offset`] draw per region, in region order.
#![expect(
    clippy::disallowed_methods,
    reason = "kstaled's RNG draws live here, in historical draw order (D3)"
)]

use thermo_util::rng::{Rng, SmallRng};

/// Picks the 4KB-page offset to probe within a region of `n_pages` pages
/// (one A-bit sample per region per sampling interval, DAMON-style).
///
/// One uniform draw in `[0, n_pages)`; `n_pages` must be nonzero (regions
/// are filtered to nonzero length at construction).
pub fn draw_probe_offset(rng: &mut SmallRng, n_pages: u64) -> u64 {
    rng.gen_range(0..n_pages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermo_util::rng::SeedableRng;

    #[test]
    fn draw_probe_offset_is_in_range_and_seed_deterministic() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for n in [1u64, 2, 512, 1 << 20] {
            let x = draw_probe_offset(&mut a, n);
            assert!(x < n);
            assert_eq!(x, draw_probe_offset(&mut b, n), "same seed, same draw");
        }
    }
}
