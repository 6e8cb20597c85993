//! Pure decision helpers for the daemon's three phases.
//!
//! Everything here computes on snapshot data — no engine access, no side
//! effects beyond the passed-in RNG and epoch set — so the policy's
//! randomness is consumed in exactly one place per decision and in a fixed
//! order. The RNG draw sequence matches the historical in-line code draw
//! for draw, which is what keeps golden artifacts stable across the
//! mechanism/policy split.
//!
//! This crate's `clippy.toml` bans RNG draws (D3, DESIGN.md §11); this
//! module is their one home, so it expects the lint once for the file.
#![expect(
    clippy::disallowed_methods,
    reason = "the daemon's RNG draws live here, in historical draw order (D3)"
)]

use crate::config::ThermostatConfig;
use std::collections::BTreeSet;
use thermo_mem::{Vpn, PAGES_PER_HUGE};
use thermo_util::rng::SliceRandom;
use thermo_util::rng::SmallRng;

/// Picks this period's sample from the fast-tier huge-page candidates:
/// shuffle, prefer pages not yet visited this coverage epoch (a stable
/// partition, so the shuffle order breaks ties), and keep
/// `sample_fraction` of them (at least one). Returns the selection and the
/// fraction actually achieved.
///
/// The epoch set is updated in place and reset once every candidate has
/// been visited — the paper samples a *different* random 5% each period
/// "so that eventually all pages are sampled".
pub(super) fn select_sample(
    rng: &mut SmallRng,
    mut candidates: Vec<Vpn>,
    sample_fraction: f64,
    sampled_epoch: &mut BTreeSet<Vpn>,
) -> (Vec<Vpn>, f64) {
    let n_candidates = candidates.len();
    let want = ((n_candidates as f64 * sample_fraction).round() as usize).clamp(1, n_candidates);
    if candidates.iter().all(|v| sampled_epoch.contains(v)) {
        sampled_epoch.clear();
    }
    candidates.shuffle(rng);
    // One epoch lookup per candidate: unseen first, each side in shuffle
    // order.
    let (mut picked, seen): (Vec<Vpn>, Vec<Vpn>) = candidates
        .into_iter()
        .partition(|v| !sampled_epoch.contains(v));
    picked.extend(seen);
    picked.truncate(want);
    for &vpn in &picked {
        sampled_epoch.insert(vpn);
    }
    (picked, want as f64 / n_candidates as f64)
}

/// Picks up to `max_poison` of a sampled page's accessed children to
/// poison for BadgerTrap counting (uniformly, by shuffle-and-truncate).
pub(super) fn choose_monitored(
    rng: &mut SmallRng,
    mut accessed: Vec<Vpn>,
    max_poison: usize,
) -> Vec<Vpn> {
    accessed.shuffle(rng);
    accessed.truncate(max_poison);
    accessed
}

/// §6 split placement: decides whether a hot page with a small hot
/// footprint should stay split with its never-accessed children placed in
/// slow memory. Returns those children (in address order) when placement
/// applies, `None` when the page should simply be collapsed.
///
/// `accessed_set` must be in address order (it comes from a
/// [`MemoryView`](thermo_sim::MemoryView) range, which guarantees that).
pub(super) fn split_place_children(
    config: &ThermostatConfig,
    vpn: Vpn,
    accessed_set: &[Vpn],
) -> Option<Vec<Vpn>> {
    if !config.split_placement_enabled {
        return None;
    }
    let cold_children = PAGES_PER_HUGE - accessed_set.len();
    if cold_children < config.split_placement_min_cold_children {
        return None;
    }
    Some(
        (0..PAGES_PER_HUGE as u64)
            .map(|i| vpn.offset(i))
            .filter(|child| accessed_set.binary_search(child).is_err())
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermo_util::forall;
    use thermo_util::proptest_lite::{any, range, vec_of};
    use thermo_util::rng::SeedableRng;

    /// The sort-based selection the partition replaced.
    fn select_by_sort(
        rng: &mut SmallRng,
        mut candidates: Vec<Vpn>,
        sample_fraction: f64,
        sampled_epoch: &mut BTreeSet<Vpn>,
    ) -> (Vec<Vpn>, f64) {
        let n_candidates = candidates.len();
        let want =
            ((n_candidates as f64 * sample_fraction).round() as usize).clamp(1, n_candidates);
        if candidates.iter().all(|v| sampled_epoch.contains(v)) {
            sampled_epoch.clear();
        }
        candidates.shuffle(rng);
        candidates.sort_by_key(|v| sampled_epoch.contains(v));
        candidates.truncate(want);
        for &vpn in &candidates {
            sampled_epoch.insert(vpn);
        }
        (candidates, want as f64 / n_candidates as f64)
    }

    #[test]
    fn select_sample_matches_the_sort_based_selection() {
        // Candidates and epoch members come from one small pool, so the
        // epoch often holds every candidate (the reset case) or none.
        forall!(
            cases = 256,
            (pool in vec_of(range(0u64..40), 1..40)),
            (epoch in vec_of(range(0u64..40), 0..40)),
            (percent in range(1u32..101)),
            (seed in any::<u64>()) => {
            let mut candidates: Vec<Vpn> = pool.iter().map(|&p| Vpn(p * 512)).collect();
            candidates.sort();
            candidates.dedup();
            let fraction = percent as f64 / 100.0;
            let mut epoch_a: BTreeSet<Vpn> = epoch.iter().map(|&p| Vpn(p * 512)).collect();
            let mut epoch_b = epoch_a.clone();
            let mut rng_a = SmallRng::seed_from_u64(seed);
            let mut rng_b = SmallRng::seed_from_u64(seed);
            for _ in 0..3 {
                let got = select_sample(&mut rng_a, candidates.clone(), fraction, &mut epoch_a);
                let want = select_by_sort(&mut rng_b, candidates.clone(), fraction, &mut epoch_b);
                assert_eq!(got, want);
                assert_eq!(epoch_a, epoch_b);
                assert_eq!(rng_a, rng_b, "same RNG draws");
            }
        });
    }
}
