//! Physical memory substrate for the Thermostat (ASPLOS'17) reproduction.
//!
//! The paper evaluates a *two-tiered* main memory: conventional DRAM plus a
//! denser-but-slower technology (3D XPoint class, 400ns..several us access
//! latency). This crate models the physical side of that system:
//!
//! * [`addr`] — typed virtual/physical addresses and page-number arithmetic,
//!   including the 4KB / 2MB page-size algebra that everything else builds on.
//! * [`tier`] — the two memory tiers and their latency / bandwidth / cost
//!   parameters.
//! * [`frame`] — a per-tier physical frame allocator with native huge-frame
//!   (2MB) support, so a 2MB page always occupies 512 physically contiguous
//!   4KB frames.
//! * [`migrate`] — the page migration engine (paper §3.6 moves pages between
//!   NUMA zones; here between tiers) with bandwidth and false-classification
//!   accounting for Table 3.
//! * [`wear`] — write-endurance tracking for the slow tier (paper §6,
//!   "Device wear").
//! * [`cost`] — the memory-cost savings model behind Table 4.
//!
//! # Example
//!
//! ```
//! use thermo_mem::{PhysicalMemory, Tier, TierParams, PageSize};
//!
//! # fn main() -> Result<(), thermo_mem::MemError> {
//! let mut mem = PhysicalMemory::new(
//!     TierParams::dram(64 << 20),      // 64 MiB of fast memory
//!     TierParams::slow_1us(256 << 20), // 256 MiB of slow memory
//! );
//! let huge = mem.alloc(Tier::Fast, PageSize::Huge2M)?;
//! assert!(huge.is_huge_aligned());
//! mem.free(Tier::Fast, huge, PageSize::Huge2M);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
pub mod addr;
pub mod cost;
pub mod error;
pub mod frame;
pub mod migrate;
pub mod startgap;
pub mod tier;
pub mod wear;

pub use addr::{
    translate, PageSize, Pfn, PhysAddr, VirtAddr, Vpn, CACHE_LINE_BYTES, HUGE_PAGE_BYTES,
    PAGES_PER_HUGE, SMALL_PAGE_BYTES,
};
pub use cost::{CostModel, CostReport};
pub use error::MemError;
pub use frame::{FrameAllocator, FrameStats};
pub use migrate::{MigrationEngine, MigrationStats};
pub use startgap::{StartGap, StartGapStats};
pub use tier::{Tier, TierParams};
pub use wear::{WearStats, WearTracker};

use std::fmt;

/// The complete two-tier physical memory: one allocator per tier plus the
/// shared bookkeeping (migration statistics, wear tracking).
///
/// This is the object the simulator's engine owns; the OS-side policies
/// (Thermostat itself, kstaled) act on it only through migrations performed
/// by [`MigrationEngine`].
#[derive(Debug)]
pub struct PhysicalMemory {
    fast: FrameAllocator,
    slow: FrameAllocator,
    fast_params: TierParams,
    slow_params: TierParams,
    wear: WearTracker,
}

impl PhysicalMemory {
    /// Creates a two-tier memory with the given per-tier parameters.
    ///
    /// The fast tier owns physical frame numbers `[0, fast_frames)` and the
    /// slow tier `[fast_frames, fast_frames + slow_frames)`, so a [`Pfn`]
    /// unambiguously identifies its tier.
    pub fn new(fast_params: TierParams, slow_params: TierParams) -> Self {
        // Round each tier down to whole 2MB blocks so the slow tier's PFN
        // base stays huge-aligned and every frame belongs to exactly one
        // tier.
        let block = PAGES_PER_HUGE as u64;
        let fast_frames = fast_params.capacity_bytes / SMALL_PAGE_BYTES as u64 / block * block;
        let slow_frames = slow_params.capacity_bytes / SMALL_PAGE_BYTES as u64 / block * block;
        let fast = FrameAllocator::new(Pfn(0), fast_frames);
        let slow = FrameAllocator::new(Pfn(fast_frames), slow_frames);
        Self {
            fast,
            slow,
            fast_params,
            slow_params,
            wear: WearTracker::new(),
        }
    }

    /// Returns the tier that owns `pfn`.
    ///
    /// # Panics
    ///
    /// Panics if `pfn` is outside both tiers.
    #[inline]
    pub fn tier_of(&self, pfn: Pfn) -> Tier {
        if self.fast.owns(pfn) {
            Tier::Fast
        } else if self.slow.owns(pfn) {
            Tier::Slow
        } else {
            panic!("pfn {pfn:?} is outside physical memory");
        }
    }

    /// Parameters of `tier`.
    pub fn params(&self, tier: Tier) -> &TierParams {
        match tier {
            Tier::Fast => &self.fast_params,
            Tier::Slow => &self.slow_params,
        }
    }

    /// Allocates one page of `size` in `tier`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfMemory`] when the tier cannot satisfy the
    /// request (for huge pages: no 2MB-aligned contiguous run is free).
    pub fn alloc(&mut self, tier: Tier, size: PageSize) -> Result<Pfn, MemError> {
        self.allocator_mut(tier).alloc(size)
    }

    /// Frees a page previously returned by [`alloc`](Self::alloc).
    ///
    /// # Panics
    ///
    /// Panics if the frame is not currently allocated in that tier (double
    /// free) or is misaligned for `size`.
    pub fn free(&mut self, tier: Tier, pfn: Pfn, size: PageSize) {
        self.allocator_mut(tier).free(pfn, size);
    }

    /// Access to the per-tier allocator statistics.
    pub fn stats(&self, tier: Tier) -> FrameStats {
        self.allocator(tier).stats()
    }

    /// Records `bytes` written to the frame's tier; slow-tier writes feed the
    /// wear tracker (paper §6).
    pub fn record_write(&mut self, pfn: Pfn, bytes: u64) {
        if self.tier_of(pfn) == Tier::Slow {
            self.wear.record_write(pfn, bytes);
        }
    }

    /// Wear statistics for the slow tier.
    pub fn wear(&self) -> &WearTracker {
        &self.wear
    }

    /// Total bytes of memory currently allocated in `tier`.
    pub fn used_bytes(&self, tier: Tier) -> u64 {
        self.allocator(tier).stats().used_bytes()
    }

    /// Free bytes remaining in `tier`.
    pub fn free_bytes(&self, tier: Tier) -> u64 {
        self.allocator(tier).stats().free_bytes()
    }

    fn allocator(&self, tier: Tier) -> &FrameAllocator {
        match tier {
            Tier::Fast => &self.fast,
            Tier::Slow => &self.slow,
        }
    }

    fn allocator_mut(&mut self, tier: Tier) -> &mut FrameAllocator {
        match tier {
            Tier::Fast => &mut self.fast,
            Tier::Slow => &mut self.slow,
        }
    }
}

impl fmt::Display for PhysicalMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fast: {}/{} MiB used, slow: {}/{} MiB used",
            self.used_bytes(Tier::Fast) >> 20,
            self.fast_params.capacity_bytes >> 20,
            self.used_bytes(Tier::Slow) >> 20,
            self.slow_params.capacity_bytes >> 20,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_mem() -> PhysicalMemory {
        PhysicalMemory::new(TierParams::dram(8 << 20), TierParams::slow_1us(8 << 20))
    }

    #[test]
    fn tiers_are_disjoint_pfn_ranges() {
        let mut mem = small_mem();
        let f = mem.alloc(Tier::Fast, PageSize::Small4K).unwrap();
        let s = mem.alloc(Tier::Slow, PageSize::Small4K).unwrap();
        assert_eq!(mem.tier_of(f), Tier::Fast);
        assert_eq!(mem.tier_of(s), Tier::Slow);
        assert_ne!(f, s);
    }

    #[test]
    fn huge_alloc_is_aligned() {
        let mut mem = small_mem();
        let h = mem.alloc(Tier::Fast, PageSize::Huge2M).unwrap();
        assert!(h.is_huge_aligned());
    }

    #[test]
    fn used_bytes_tracks_alloc_free() {
        let mut mem = small_mem();
        assert_eq!(mem.used_bytes(Tier::Fast), 0);
        let h = mem.alloc(Tier::Fast, PageSize::Huge2M).unwrap();
        assert_eq!(mem.used_bytes(Tier::Fast), HUGE_PAGE_BYTES as u64);
        mem.free(Tier::Fast, h, PageSize::Huge2M);
        assert_eq!(mem.used_bytes(Tier::Fast), 0);
    }

    #[test]
    fn slow_writes_feed_wear_tracker() {
        let mut mem = small_mem();
        let s = mem.alloc(Tier::Slow, PageSize::Small4K).unwrap();
        mem.record_write(s, 64);
        mem.record_write(s, 64);
        assert_eq!(mem.wear().stats().total_bytes_written, 128);
    }

    #[test]
    fn fast_writes_do_not_feed_wear_tracker() {
        let mut mem = small_mem();
        let f = mem.alloc(Tier::Fast, PageSize::Small4K).unwrap();
        mem.record_write(f, 64);
        assert_eq!(mem.wear().stats().total_bytes_written, 0);
    }

    #[test]
    #[should_panic(expected = "outside physical memory")]
    fn tier_of_out_of_range_panics() {
        let mem = small_mem();
        mem.tier_of(Pfn(u64::MAX / SMALL_PAGE_BYTES as u64));
    }

    #[test]
    fn display_is_nonempty() {
        let mem = small_mem();
        assert!(!format!("{mem}").is_empty());
    }
}
