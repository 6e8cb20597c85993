//! Per-tier physical frame allocator.
//!
//! The allocator hands out 4KB frames and physically contiguous, 2MB-aligned
//! 512-frame runs for huge pages. It is buddy-like at exactly two sizes,
//! which is all the THP machinery needs: a huge page must be backed by a
//! huge frame so that splitting it (Thermostat samples huge pages by
//! splitting, §3.2) is a pure page-table operation that never copies data.
//!
//! Freed 4KB frames coalesce back into their 2MB block once all 512 siblings
//! are free, so long policy runs (which split, collapse and migrate
//! continuously) do not fragment a tier permanently.

use crate::addr::{PageSize, Pfn, PAGES_PER_HUGE};
use crate::error::MemError;
use crate::tier::Tier;
use std::collections::{BTreeMap, BTreeSet};

const WORDS_PER_BITMAP: usize = PAGES_PER_HUGE / 64;

/// Occupancy bitmap for one 2MB block: bit set = 4KB frame free.
type Bitmap = [u64; WORDS_PER_BITMAP];

const FULL_FREE: Bitmap = [u64::MAX; WORDS_PER_BITMAP];

/// Allocation statistics of one tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrameStats {
    /// Total 4KB frames managed.
    pub total_frames: u64,
    /// Currently allocated 4KB frames (huge pages count as 512).
    pub used_frames: u64,
    /// Cumulative 4KB allocations served.
    pub small_allocs: u64,
    /// Cumulative 2MB allocations served.
    pub huge_allocs: u64,
    /// Cumulative allocation failures.
    pub failed_allocs: u64,
}

impl FrameStats {
    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        self.used_frames * 4096
    }

    /// Bytes currently free.
    pub fn free_bytes(&self) -> u64 {
        (self.total_frames - self.used_frames) * 4096
    }
}

/// Frame allocator for a contiguous PFN range belonging to one tier.
#[derive(Debug)]
pub struct FrameAllocator {
    base: Pfn,
    /// Fully free 2MB blocks, by block index (ascending allocation order for
    /// determinism).
    free_huge: BTreeSet<u64>,
    /// Partially allocated blocks: block index -> bitmap of free 4KB frames.
    partial: BTreeMap<u64, Bitmap>,
    stats: FrameStats,
}

impl FrameAllocator {
    /// Creates an allocator over `n_frames` 4KB frames starting at `base`.
    ///
    /// `base` must be 2MB aligned; `n_frames` is rounded down to a whole
    /// number of 2MB blocks.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not huge-aligned.
    pub fn new(base: Pfn, n_frames: u64) -> Self {
        assert!(base.is_huge_aligned(), "allocator base must be 2MB aligned");
        let n_blocks = n_frames / PAGES_PER_HUGE as u64;
        let free_huge: BTreeSet<u64> = (0..n_blocks).collect();
        Self {
            base,
            free_huge,
            partial: BTreeMap::new(),
            stats: FrameStats {
                total_frames: n_blocks * PAGES_PER_HUGE as u64,
                ..FrameStats::default()
            },
        }
    }

    /// True if `pfn` lies inside this allocator's range.
    #[inline]
    pub fn owns(&self, pfn: Pfn) -> bool {
        pfn.0 >= self.base.0 && pfn.0 < self.base.0 + self.stats.total_frames
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> FrameStats {
        self.stats
    }

    /// Allocates one page of `size`.
    ///
    /// 4KB allocations are served from partially-used 2MB blocks first (so
    /// huge blocks are preserved for huge allocations as long as possible),
    /// lowest block index first for determinism.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfMemory`] if no frame of the requested size is free.
    pub fn alloc(&mut self, size: PageSize) -> Result<Pfn, MemError> {
        match size {
            PageSize::Huge2M => self.alloc_huge(),
            PageSize::Small4K => self.alloc_small(),
        }
    }

    /// Frees a page previously allocated with [`alloc`](Self::alloc).
    ///
    /// # Panics
    ///
    /// Panics on double free, on freeing an unowned frame, or on freeing a
    /// misaligned huge page.
    pub fn free(&mut self, pfn: Pfn, size: PageSize) {
        assert!(
            self.owns(pfn),
            "freeing frame {pfn} not owned by this allocator"
        );
        match size {
            PageSize::Huge2M => self.free_huge_block(pfn),
            PageSize::Small4K => self.free_small(pfn),
        }
    }

    fn block_of(&self, pfn: Pfn) -> (u64, usize) {
        let rel = pfn.0 - self.base.0;
        (
            rel / PAGES_PER_HUGE as u64,
            (rel % PAGES_PER_HUGE as u64) as usize,
        )
    }

    fn pfn_of(&self, block: u64, idx: usize) -> Pfn {
        Pfn(self.base.0 + block * PAGES_PER_HUGE as u64 + idx as u64)
    }

    fn alloc_huge(&mut self) -> Result<Pfn, MemError> {
        let Some(&block) = self.free_huge.iter().next() else {
            self.stats.failed_allocs += 1;
            return Err(MemError::OutOfMemory {
                tier: self.tier_hint(),
                size: PageSize::Huge2M,
            });
        };
        self.free_huge.remove(&block);
        self.stats.huge_allocs += 1;
        self.stats.used_frames += PAGES_PER_HUGE as u64;
        Ok(self.pfn_of(block, 0))
    }

    fn alloc_small(&mut self) -> Result<Pfn, MemError> {
        // Prefer an already-partial block.
        if let Some((&block, bitmap)) = self.partial.iter_mut().next() {
            let idx = first_set_bit(bitmap).expect("partial block must have a free frame");
            clear_bit(bitmap, idx);
            if bitmap.iter().all(|w| *w == 0) {
                self.partial.remove(&block);
            }
            self.stats.small_allocs += 1;
            self.stats.used_frames += 1;
            return Ok(self.pfn_of(block, idx));
        }
        // Break a fully-free huge block.
        let Some(&block) = self.free_huge.iter().next() else {
            self.stats.failed_allocs += 1;
            return Err(MemError::OutOfMemory {
                tier: self.tier_hint(),
                size: PageSize::Small4K,
            });
        };
        self.free_huge.remove(&block);
        let mut bitmap = FULL_FREE;
        clear_bit(&mut bitmap, 0);
        self.partial.insert(block, bitmap);
        self.stats.small_allocs += 1;
        self.stats.used_frames += 1;
        Ok(self.pfn_of(block, 0))
    }

    fn free_huge_block(&mut self, pfn: Pfn) {
        assert!(pfn.is_huge_aligned(), "freeing misaligned huge frame {pfn}");
        let (block, _) = self.block_of(pfn);
        assert!(
            !self.free_huge.contains(&block) && !self.partial.contains_key(&block),
            "double free of huge frame {pfn}"
        );
        self.free_huge.insert(block);
        self.stats.used_frames -= PAGES_PER_HUGE as u64;
    }

    fn free_small(&mut self, pfn: Pfn) {
        let (block, idx) = self.block_of(pfn);
        assert!(
            !self.free_huge.contains(&block),
            "double free of small frame {pfn}"
        );
        let bitmap = self.partial.entry(block).or_insert([0; WORDS_PER_BITMAP]);
        assert!(!test_bit(bitmap, idx), "double free of small frame {pfn}");
        set_bit(bitmap, idx);
        self.stats.used_frames -= 1;
        // Coalesce: all 512 siblings free again -> whole block is huge-free.
        if *bitmap == FULL_FREE {
            self.partial.remove(&block);
            self.free_huge.insert(block);
        }
    }

    /// Number of fully-free 2MB blocks currently available.
    pub fn free_huge_blocks(&self) -> u64 {
        self.free_huge.len() as u64
    }

    fn tier_hint(&self) -> Tier {
        // The allocator does not know its tier; base 0 is fast by the
        // `PhysicalMemory` layout convention. Only used for error messages.
        if self.base.0 == 0 {
            Tier::Fast
        } else {
            Tier::Slow
        }
    }
}

fn first_set_bit(bitmap: &Bitmap) -> Option<usize> {
    for (w, word) in bitmap.iter().enumerate() {
        if *word != 0 {
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
    }
    None
}

fn test_bit(bitmap: &Bitmap, idx: usize) -> bool {
    bitmap[idx / 64] & (1u64 << (idx % 64)) != 0
}

fn set_bit(bitmap: &mut Bitmap, idx: usize) {
    bitmap[idx / 64] |= 1u64 << (idx % 64);
}

fn clear_bit(bitmap: &mut Bitmap, idx: usize) {
    bitmap[idx / 64] &= !(1u64 << (idx % 64));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::HUGE_PAGE_BYTES;

    fn alloc_2_blocks() -> FrameAllocator {
        FrameAllocator::new(Pfn(0), 2 * PAGES_PER_HUGE as u64)
    }

    #[test]
    fn huge_then_small_then_exhaust() {
        let mut a = alloc_2_blocks();
        let h = a.alloc(PageSize::Huge2M).unwrap();
        assert!(h.is_huge_aligned());
        // 512 small allocations fit in the remaining block.
        for _ in 0..PAGES_PER_HUGE {
            a.alloc(PageSize::Small4K).unwrap();
        }
        assert!(matches!(
            a.alloc(PageSize::Small4K),
            Err(MemError::OutOfMemory {
                size: PageSize::Small4K,
                ..
            })
        ));
        assert_eq!(a.stats().failed_allocs, 1);
    }

    #[test]
    fn small_allocs_prefer_partial_blocks() {
        let mut a = alloc_2_blocks();
        let s = a.alloc(PageSize::Small4K).unwrap();
        assert_eq!(a.free_huge_blocks(), 1);
        let s2 = a.alloc(PageSize::Small4K).unwrap();
        // Still only one broken block.
        assert_eq!(a.free_huge_blocks(), 1);
        assert_eq!(s.0 / PAGES_PER_HUGE as u64, s2.0 / PAGES_PER_HUGE as u64);
    }

    #[test]
    fn coalescing_restores_huge_block() {
        let mut a = alloc_2_blocks();
        let frames: Vec<Pfn> = (0..PAGES_PER_HUGE)
            .map(|_| a.alloc(PageSize::Small4K).unwrap())
            .collect();
        assert_eq!(a.free_huge_blocks(), 1);
        for f in frames {
            a.free(f, PageSize::Small4K);
        }
        assert_eq!(a.free_huge_blocks(), 2);
        assert_eq!(a.stats().used_frames, 0);
    }

    #[test]
    fn distinct_frames_never_repeated() {
        let mut a = alloc_2_blocks();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2 * PAGES_PER_HUGE {
            let f = a.alloc(PageSize::Small4K).unwrap();
            assert!(seen.insert(f), "frame {f} handed out twice");
        }
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_small_panics() {
        let mut a = alloc_2_blocks();
        let f = a.alloc(PageSize::Small4K).unwrap();
        a.free(f, PageSize::Small4K);
        a.free(f, PageSize::Small4K);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_huge_panics() {
        let mut a = alloc_2_blocks();
        let f = a.alloc(PageSize::Huge2M).unwrap();
        a.free(f, PageSize::Huge2M);
        a.free(f, PageSize::Huge2M);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn free_misaligned_huge_panics() {
        let mut a = alloc_2_blocks();
        let f = a.alloc(PageSize::Huge2M).unwrap();
        a.free(Pfn(f.0 + 1), PageSize::Huge2M);
    }

    #[test]
    fn owns_range() {
        let a = FrameAllocator::new(Pfn(PAGES_PER_HUGE as u64), PAGES_PER_HUGE as u64);
        assert!(!a.owns(Pfn(0)));
        assert!(a.owns(Pfn(PAGES_PER_HUGE as u64)));
        assert!(!a.owns(Pfn(2 * PAGES_PER_HUGE as u64)));
    }

    #[test]
    fn stats_bytes() {
        let mut a = alloc_2_blocks();
        a.alloc(PageSize::Huge2M).unwrap();
        assert_eq!(a.stats().used_bytes(), HUGE_PAGE_BYTES as u64);
        assert_eq!(a.stats().free_bytes(), HUGE_PAGE_BYTES as u64);
    }

    #[test]
    fn bitmap_helpers() {
        let mut b = [0u64; WORDS_PER_BITMAP];
        assert_eq!(first_set_bit(&b), None);
        set_bit(&mut b, 130);
        assert!(test_bit(&b, 130));
        assert_eq!(first_set_bit(&b), Some(130));
        clear_bit(&mut b, 130);
        assert!(!test_bit(&b, 130));
    }
}
