//! The kernel face of [`Engine`]: the mechanism layer.
//!
//! These are the raw operations the OS performs on behalf of a placement
//! policy — huge-page split/collapse, PTE poisoning, A-bit scans, and page
//! migration — each charging its virtual-time cost per the paper's
//! accounting (§3.3 scan/shootdown costs, §4 migration costs). Policy
//! layers normally reach them through the [`PolicyPlan`](super::PolicyPlan)
//! seam rather than calling them directly; they stay public for ablation
//! harnesses, property tests, and simple baselines (CLOCK, DAMON).

use super::{
    Engine, FootprintBreakdown, FABRIC_REMAP_NS, SCAN_SHOOTDOWN_NS, SCAN_VISIT_NS, THP_SURGERY_NS,
    VPID,
};
use thermo_mem::{MemError, PageSize, Pfn, Tier, Vpn, PAGES_PER_HUGE};
use thermo_vm::{scan_and_clear, MapError, Mapping, ScanCost, ScanHit};

impl Engine {
    /// Splits the huge page at `base_vpn` (Thermostat sampling step 1).
    ///
    /// # Errors
    ///
    /// Propagates [`MapError`] from the page table.
    pub fn split_huge(&mut self, base_vpn: Vpn) -> Result<(), MapError> {
        self.fab
            .invalidate_overlapping(base_vpn, PAGES_PER_HUGE as u64);
        self.pt.split_huge(base_vpn)?;
        self.tlb.shootdown(base_vpn, PageSize::Huge2M, VPID);
        self.stats.kernel_time_ns += THP_SURGERY_NS;
        Ok(())
    }

    /// Collapses 512 4KB PTEs back into a huge page.
    ///
    /// # Errors
    ///
    /// Propagates [`MapError`] (e.g. frames not contiguous after per-4KB
    /// migration).
    pub fn collapse_huge(&mut self, base_vpn: Vpn) -> Result<(), MapError> {
        self.fab
            .invalidate_overlapping(base_vpn, PAGES_PER_HUGE as u64);
        self.pt.collapse_huge(base_vpn)?;
        // Stale 4KB TLB entries still translate to the same frames, so only
        // kernel cost is charged; entries age out naturally.
        self.stats.kernel_time_ns += THP_SURGERY_NS;
        Ok(())
    }

    /// Poisons the leaf at `base_vpn` for access counting.
    pub fn poison_page(&mut self, base_vpn: Vpn, size: PageSize) {
        self.fab
            .invalidate_overlapping(base_vpn, size.small_pages() as u64);
        self.trap
            .poison(&mut self.pt, &mut self.tlb, VPID, base_vpn, size);
        self.stats.kernel_time_ns += SCAN_SHOOTDOWN_NS;
    }

    /// Poisons all 512 children of a split huge page — the bulk form of 512
    /// [`poison_page`](Self::poison_page) calls, with identical charges and
    /// observable state but one fabric invalidation and one page-table pass.
    pub fn poison_split_children(&mut self, base_vpn: Vpn) {
        self.fab
            .invalidate_overlapping(base_vpn, PAGES_PER_HUGE as u64);
        self.trap
            .poison_children(&mut self.pt, &mut self.tlb, VPID, base_vpn);
        self.stats.kernel_time_ns += PAGES_PER_HUGE as u64 * SCAN_SHOOTDOWN_NS;
    }

    /// Unpoisons all 512 children of a split huge page and returns their
    /// summed fault counts — the bulk form of 512
    /// [`unpoison_page`](Self::unpoison_page) calls, with identical charges
    /// and observable state.
    pub fn unpoison_split_children(&mut self, base_vpn: Vpn) -> u64 {
        self.fab
            .invalidate_overlapping(base_vpn, PAGES_PER_HUGE as u64);
        self.stats.kernel_time_ns += PAGES_PER_HUGE as u64 * SCAN_SHOOTDOWN_NS;
        self.trap
            .unpoison_children_sum(&mut self.pt, &mut self.tlb, VPID, base_vpn)
    }

    /// Unpoisons the leaf at `base_vpn`, returning its fault count.
    pub fn unpoison_page(&mut self, base_vpn: Vpn) -> u64 {
        let n = self
            .pt
            .lookup(base_vpn)
            .map(|m| m.size.small_pages() as u64)
            .unwrap_or(1);
        self.fab.invalidate_overlapping(base_vpn, n);
        self.stats.kernel_time_ns += SCAN_SHOOTDOWN_NS;
        self.trap
            .unpoison(&mut self.pt, &mut self.tlb, VPID, base_vpn)
    }

    /// Scans and clears Accessed bits over `[start, start + n_pages)`,
    /// appending the results to `out` and charging kernel time.
    pub fn scan_and_clear_accessed(
        &mut self,
        start: Vpn,
        n_pages: u64,
        out: &mut Vec<ScanHit>,
    ) -> ScanCost {
        let cost = scan_and_clear(&mut self.pt, &mut self.tlb, VPID, start, n_pages, out);
        self.stats.kernel_time_ns += cost.time_ns(SCAN_VISIT_NS, SCAN_SHOOTDOWN_NS);
        cost
    }

    /// Reads Accessed bits without clearing (no shootdowns).
    pub fn read_accessed(&mut self, start: Vpn, n_pages: u64, out: &mut Vec<ScanHit>) -> ScanCost {
        let cost = thermo_vm::read_leaves(&self.pt, start, n_pages, out);
        self.stats.kernel_time_ns += cost.ptes_visited * SCAN_VISIT_NS;
        cost
    }

    /// Clears the Accessed bit of exactly the given leaves, shooting down
    /// (and charging for) each one whose bit was set.
    ///
    /// The mutation half of a split snapshot/clear scan: together with the
    /// visit cost a [`MemoryView`](super::MemoryView) already charged, the
    /// total equals a fused [`scan_and_clear_accessed`](Self::scan_and_clear_accessed)
    /// over the same range.
    pub fn clear_accessed_set(&mut self, pages: &[(Vpn, PageSize)]) -> ScanCost {
        let cost = thermo_vm::clear_accessed_set(&mut self.pt, &mut self.tlb, VPID, pages);
        self.stats.kernel_time_ns += cost.time_ns(SCAN_VISIT_NS, SCAN_SHOOTDOWN_NS);
        cost
    }

    /// Migrates the leaf at `base_vpn` to `target`, preserving all PTE flags
    /// (including poison) and keeping the BadgerTrap counter intact.
    ///
    /// # Errors
    ///
    /// [`MemError::AlreadyInTier`] if the page is already there, or
    /// [`MemError::OutOfMemory`] if the target tier is full.
    ///
    /// # Panics
    ///
    /// Panics if `base_vpn` is not the base of a mapped leaf.
    pub fn migrate_page(&mut self, base_vpn: Vpn, target: Tier) -> Result<(), MemError> {
        let m = self.pt.lookup(base_vpn).expect("migrating unmapped page");
        assert_eq!(m.base_vpn, base_vpn, "migrate must target the leaf base");
        self.fab
            .invalidate_overlapping(base_vpn, m.size.small_pages() as u64);
        let shadowed = self.remap_leaf(m, target, true)?;
        self.stats.kernel_time_ns += if shadowed {
            FABRIC_REMAP_NS
        } else {
            self.mig.record(target, m.size)
        };
        Ok(())
    }

    /// Moves the leaf `m` onto a fresh frame in `target`: allocates it,
    /// drops the old frame's LLC lines, frees the old frame, repoints the
    /// PTE and shoots down the stale translation. Charges nothing.
    ///
    /// With `shadow`, a promotion first consumes the fabric shadow of the
    /// page, if any; returns whether it did. Such a fast-tier copy, left by
    /// a recent fabric demotion and still intact, makes the move a pure
    /// remap with no bulk transfer.
    ///
    /// # Errors
    ///
    /// [`MemError::AlreadyInTier`] if the page already lives in `target`,
    /// [`MemError::OutOfMemory`] if `target` is full or a promotion would
    /// exceed the capacity grant.
    fn remap_leaf(&mut self, m: Mapping, target: Tier, shadow: bool) -> Result<bool, MemError> {
        let old = m.pte.pfn();
        let cur = self.mem.tier_of(old);
        if cur == target {
            return Err(MemError::AlreadyInTier {
                pfn: old,
                tier: cur,
            });
        }
        if target == Tier::Fast && !self.fast_has_room(m.size.bytes() as u64) {
            // The capacity grant is a ledger: promotions past it fail
            // like a full tier would, so a tenant's own daemon cannot
            // outgrow what the arbiter granted.
            return Err(MemError::OutOfMemory {
                tier: Tier::Fast,
                size: m.size,
            });
        }
        let shadowed = shadow && target == Tier::Fast && self.fab.take_shadow(m.base_vpn, m.size);
        let new = self.mem.alloc(target, m.size)?;
        self.llc.invalidate_frames(old, m.size.small_pages() as u64);
        self.mem.free(cur, old, m.size);
        self.pt.with_pte_mut(m.base_vpn, |pte| pte.set_pfn(new));
        self.tlb.shootdown(m.base_vpn, m.size, VPID);
        Ok(shadowed)
    }

    /// Migrates a *split* huge page (512 4KB leaves starting at huge-aligned
    /// `base_vpn`) into one physically contiguous huge frame in `target`, so
    /// a later [`collapse_huge`](Self::collapse_huge) can restore the 2MB
    /// mapping. Counted as one 2MB migration.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfMemory`] when `target` lacks a huge frame;
    /// [`MemError::AlreadyInTier`] when the first child already lives there.
    ///
    /// # Panics
    ///
    /// Panics if any of the 512 children is missing or not a 4KB leaf.
    pub fn migrate_split_huge(&mut self, base_vpn: Vpn, target: Tier) -> Result<(), MemError> {
        assert!(
            base_vpn.is_huge_aligned(),
            "split-huge migration needs an aligned base"
        );
        self.fab
            .invalidate_overlapping(base_vpn, PAGES_PER_HUGE as u64);
        let first = self
            .pt
            .lookup(base_vpn)
            .expect("migrating unmapped split page");
        assert_eq!(first.size, PageSize::Small4K, "page is not split");
        if self.mem.tier_of(first.pte.pfn()) == target {
            return Err(MemError::AlreadyInTier {
                pfn: first.pte.pfn(),
                tier: target,
            });
        }
        if target == Tier::Fast && !self.fast_has_room(PageSize::Huge2M.bytes() as u64) {
            return Err(MemError::OutOfMemory {
                tier: Tier::Fast,
                size: PageSize::Huge2M,
            });
        }
        let new = self.mem.alloc(target, PageSize::Huge2M)?;
        // One pass over the window swaps every child onto the new huge
        // frame while collecting the old frames; the per-child LLC/allocator
        // bookkeeping below then runs in the same child order as the
        // per-child loop this replaces, so the observable state is
        // identical with a quarter of the page-table descents.
        let mut olds: Vec<Pfn> = Vec::with_capacity(PAGES_PER_HUGE);
        self.pt
            .for_each_leaf_mut(base_vpn, PAGES_PER_HUGE as u64, |_, size, pte| {
                assert_eq!(size, PageSize::Small4K, "child is not a 4KB leaf");
                olds.push(pte.pfn());
                pte.set_pfn(new.offset(olds.len() as u64 - 1));
            });
        assert_eq!(olds.len(), PAGES_PER_HUGE, "split page child missing");
        if olds.windows(2).all(|w| w[1].0 == w[0].0 + 1) {
            // Still one contiguous huge frame (the common demote-after-split
            // case): drop its lines in a single sweep of the tag store.
            self.llc.invalidate_frames(olds[0], PAGES_PER_HUGE as u64);
        } else {
            for &old in &olds {
                self.llc.invalidate_frame(old);
            }
        }
        for &old in &olds {
            self.mem.free(self.mem.tier_of(old), old, PageSize::Small4K);
        }
        self.tlb.shootdown_window(base_vpn, VPID);
        self.stats.kernel_time_ns += self.mig.record(target, PageSize::Huge2M);
        Ok(())
    }

    /// Remaps a page whose bulk copy already completed on the migration
    /// fabric: the commit half of a `BeginMigrate`/`CommitMigrate`
    /// transaction. Only the remap overhead is charged — the transfer time
    /// was paid asynchronously on the link.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfMemory`] when the target tier can no longer take
    /// the page (the plan layer turns this into a clean abort).
    pub(crate) fn fabric_finalize(
        &mut self,
        base_vpn: Vpn,
        size: PageSize,
        target: Tier,
    ) -> Result<(), MemError> {
        let m = self
            .pt
            .lookup(base_vpn)
            .expect("fabric commit on unmapped page");
        assert_eq!(m.base_vpn, base_vpn, "fabric commit must target a leaf");
        assert_eq!(m.size, size, "page changed shape with a live txn");
        self.remap_leaf(m, target, false)?;
        self.mig.record(target, size);
        self.stats.kernel_time_ns += FABRIC_REMAP_NS;
        Ok(())
    }

    /// Tier currently backing the leaf that covers `vpn`, or `None` when
    /// unmapped.
    pub fn tier_of_vpn(&self, vpn: Vpn) -> Option<Tier> {
        self.pt.lookup(vpn).map(|m| self.mem.tier_of(m.pte.pfn()))
    }

    /// Computes the footprint breakdown by walking every VMA's leaves
    /// (instrumentation — charges no kernel time).
    pub fn footprint_breakdown(&self) -> FootprintBreakdown {
        let mut b = FootprintBreakdown::default();
        for (start, n) in self.vma_ranges() {
            self.pt.for_each_leaf(start, n, |_, size, pte| {
                b.count(size, self.mem.tier_of(pte.pfn()));
            });
        }
        b
    }

    /// Computes the footprint breakdown of every VMA separately, keyed by
    /// the VMA name — which application structure went cold (e.g. the
    /// paper's observation that TPCC's LINEITEM table carries the cold
    /// mass).
    pub fn region_breakdown(&self) -> Vec<(String, FootprintBreakdown)> {
        let mut out = Vec::with_capacity(self.process.vmas().len());
        for v in self.process.vmas() {
            let mut b = FootprintBreakdown::default();
            self.pt
                .for_each_leaf(v.start.vpn(), v.len / 4096, |_, size, pte| {
                    b.count(size, self.mem.tier_of(pte.pfn()));
                });
            out.push((v.name.clone(), b));
        }
        out
    }

    /// Fast-tier bytes held by leaves whose Accessed bit is clear — the
    /// cold capacity a reclaim would take first. Read-only walk, charges
    /// no kernel time (the arbiter reads it through a reporter snapshot).
    pub fn fast_idle_bytes(&self) -> u64 {
        let mut idle = 0u64;
        for (start, n) in self.vma_ranges() {
            self.pt.for_each_leaf(start, n, |_, size, pte| {
                if !pte.accessed() && self.mem.tier_of(pte.pfn()) == Tier::Fast {
                    idle += size.bytes() as u64;
                }
            });
        }
        idle
    }

    /// Demotes up to `want_bytes` of fast-tier capacity to the slow tier,
    /// coldest first (pass A: Accessed-clear leaves, pass B: the rest),
    /// poisoning each demoted page so its faults keep feeding the §4.3
    /// slowdown estimate. Only whole huge leaves are taken: 4KB leaves
    /// may be children of a policy daemon's split-sample window, and
    /// demoting one would break the frame contiguity its later collapse
    /// relies on. Pages held by an in-flight fabric transaction are never
    /// touched (the reclaim-vs-fabric invariant that `prop_arbiter`
    /// checks). Returns the bytes actually reclaimed.
    pub fn reclaim_fast_cold(&mut self, want_bytes: u64) -> u64 {
        let mut cold: Vec<(Vpn, PageSize)> = Vec::new();
        let mut warm: Vec<(Vpn, PageSize)> = Vec::new();
        for (start, n) in self.vma_ranges() {
            self.pt.for_each_leaf(start, n, |vpn, size, pte| {
                if size != PageSize::Huge2M || self.mem.tier_of(pte.pfn()) != Tier::Fast {
                    return;
                }
                if pte.accessed() {
                    warm.push((vpn, size));
                } else {
                    cold.push((vpn, size));
                }
            });
        }
        let mut reclaimed = 0u64;
        for (vpn, size) in cold.into_iter().chain(warm) {
            if reclaimed >= want_bytes {
                break;
            }
            if self.fab.txn_for_page(vpn).is_some() {
                continue;
            }
            if self.mem.free_bytes(Tier::Slow) < size.bytes() as u64 {
                break;
            }
            if self.migrate_page(vpn, Tier::Slow).is_err() {
                continue;
            }
            if !self.trap.is_poisoned(vpn) {
                self.trap
                    .poison(&mut self.pt, &mut self.tlb, VPID, vpn, size);
                self.stats.kernel_time_ns += SCAN_SHOOTDOWN_NS;
            }
            self.displaced.insert(vpn, size.bytes() as u64);
            reclaimed += size.bytes() as u64;
        }
        self.pressure.reclaimed_bytes += reclaimed;
        reclaimed
    }

    /// Promotes up to `want_bytes` of displaced pages back to the fast
    /// tier (address order), unpoisoning each. Entries whose mapping
    /// changed shape, already moved tiers, or sit under a live fabric
    /// transaction are dropped or skipped. Respects the capacity grant.
    /// Returns the bytes actually promoted.
    pub fn promote_displaced(&mut self, want_bytes: u64) -> u64 {
        let mut promoted = 0u64;
        let candidates: Vec<Vpn> = self.displaced.keys().copied().collect();
        for vpn in candidates {
            if promoted >= want_bytes {
                break;
            }
            let Some(m) = self.pt.lookup(vpn) else {
                self.displaced.remove(&vpn);
                continue;
            };
            if m.base_vpn != vpn || self.mem.tier_of(m.pte.pfn()) != Tier::Slow {
                // Split/collapsed or already migrated by the policy
                // daemon: no longer ours to promote.
                self.displaced.remove(&vpn);
                continue;
            }
            if self.fab.txn_for_page(vpn).is_some() {
                continue;
            }
            let bytes = m.size.bytes() as u64;
            let cap_ok = match self.fast_cap_bytes {
                None => true,
                Some(cap) => self.mem.used_bytes(Tier::Fast).saturating_add(bytes) <= cap,
            };
            if !cap_ok || self.mem.free_bytes(Tier::Fast) < bytes {
                break;
            }
            if self.migrate_page(vpn, Tier::Fast).is_err() {
                continue;
            }
            if self.trap.is_poisoned(vpn) {
                self.trap.unpoison(&mut self.pt, &mut self.tlb, VPID, vpn);
                self.stats.kernel_time_ns += SCAN_SHOOTDOWN_NS;
            }
            self.displaced.remove(&vpn);
            promoted += bytes;
        }
        self.pressure.promoted_bytes += promoted;
        promoted
    }
}
