//! [`MemoryView`]: the read-only snapshot half of the engine↔policy seam.
//!
//! At a period boundary a policy asks the engine for a snapshot of the
//! leaves covering a set of VPN ranges — page size, backing tier, A/D bits,
//! poison state, and the BadgerTrap fault counter. The snapshot walks each
//! requested range in order on the calling thread, one
//! [`for_each_leaf`](thermo_vm::PageTable::for_each_leaf) per range, so it
//! is a pure function of the page table.
//!
//! Cost accounting: reading A bits is the visit half of the paper's §3
//! scan. [`Engine::memory_view`] charges `ptes_visited · SCAN_VISIT_NS` of
//! kernel time at the tick where the snapshot is taken — exactly what the
//! historical inline `read_accessed` charged — while the shootdown half is
//! charged by the [`PolicyPlan`](super::PolicyPlan) op that clears the
//! accessed leaves. Summed, a snapshot + targeted clear costs precisely
//! what a fused `scan_and_clear_accessed` over the same ranges did.

use super::{Engine, FootprintBreakdown, SCAN_VISIT_NS};
use std::ops::Range;
use thermo_mem::{PageSize, Tier, Vpn};

/// One leaf mapping as observed at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageInfo {
    /// Base VPN of the leaf.
    pub base_vpn: Vpn,
    /// Leaf size (2MB huge or 4KB child).
    pub size: PageSize,
    /// Tier backing the leaf's frame.
    pub tier: Tier,
    /// Accessed-bit value (not cleared by the snapshot).
    pub accessed: bool,
    /// Dirty-bit value.
    pub dirty: bool,
    /// Whether the PTE is BadgerTrap-poisoned.
    pub poisoned: bool,
    /// The trap unit's fault counter for this leaf (0 when unpoisoned).
    pub fault_count: u64,
}

/// A read-only, immutable snapshot of the leaves covering a set of VPN
/// ranges, taken at one virtual-time instant.
///
/// Owns its data: later engine mutations (migrations, splits, poisoning)
/// never alter an already-taken view, which is what makes "decide on the
/// snapshot, then apply a plan" race-free by construction.
///
/// `#[must_use]`, and the workspace denies `unused_must_use`: taking a view
/// charges the §3 scan's visit cost, so a view dropped as a statement is a
/// scan paid for and never read — it fails to compile.
///
/// ```compile_fail
/// #![deny(unused_must_use)]
/// # use thermo_sim::{Engine, SimConfig};
/// # let mut engine = Engine::new(SimConfig::paper_defaults(64 << 20, 64 << 20));
/// let ranges = engine.vma_ranges();
/// engine.memory_view(&ranges);
/// ```
///
/// Binding it compiles:
///
/// ```
/// #![deny(unused_must_use)]
/// # use thermo_sim::{Engine, SimConfig};
/// # let mut engine = Engine::new(SimConfig::paper_defaults(64 << 20, 64 << 20));
/// let ranges = engine.vma_ranges();
/// let view = engine.memory_view(&ranges);
/// assert!(view.pages().is_empty());
/// ```
#[must_use = "a memory view is a paid-for scan the policy must read"]
#[derive(Debug, Clone)]
pub struct MemoryView {
    at_ns: u64,
    pages: Vec<PageInfo>,
    /// Per requested range: its span of `pages`.
    spans: Vec<Range<usize>>,
}

impl MemoryView {
    /// Virtual time at which the snapshot was taken.
    pub fn at_ns(&self) -> u64 {
        self.at_ns
    }

    /// Every observed leaf, in range order (address order within a range).
    pub fn pages(&self) -> &[PageInfo] {
        &self.pages
    }

    /// Leaves observed inside the `i`-th requested range.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    pub fn range_pages(&self, i: usize) -> &[PageInfo] {
        &self.pages[self.spans[i].clone()]
    }

    /// PTEs visited building the snapshot (the §3 scan visit cost): one
    /// per observed leaf.
    pub fn ptes_visited(&self) -> u64 {
        self.pages.len() as u64
    }

    /// The first observed leaf based at exactly `vpn`, if any.
    pub fn find(&self, vpn: Vpn) -> Option<&PageInfo> {
        self.pages.iter().find(|p| p.base_vpn == vpn)
    }

    /// Footprint breakdown of the observed leaves (equals
    /// [`Engine::footprint_breakdown`] when the ranges cover every VMA
    /// exactly once).
    pub fn breakdown(&self) -> FootprintBreakdown {
        let mut b = FootprintBreakdown::default();
        for p in &self.pages {
            b.count(p.size, p.tier);
        }
        b
    }
}

impl Engine {
    /// Takes a [`MemoryView`] snapshot of `ranges` and charges the §3 scan
    /// visit cost (`ptes_visited · SCAN_VISIT_NS`) to kernel time — this
    /// *is* the read half of an A-bit scan, so policies that snapshot
    /// instead of calling [`read_accessed`](Engine::read_accessed) pay
    /// identical virtual time.
    pub fn memory_view(&mut self, ranges: &[(Vpn, u64)]) -> MemoryView {
        let view = self.memory_view_uncharged(ranges);
        self.stats.kernel_time_ns += view.ptes_visited() * SCAN_VISIT_NS;
        view
    }

    /// [`memory_view`](Engine::memory_view) without the kernel-time charge,
    /// for tests that must not perturb virtual time.
    pub(crate) fn memory_view_uncharged(&self, ranges: &[(Vpn, u64)]) -> MemoryView {
        let mut pages = Vec::new();
        let mut spans = Vec::with_capacity(ranges.len());
        for &(start, n_pages) in ranges {
            let span_start = pages.len();
            self.pt
                .for_each_leaf(start, n_pages, |base_vpn, size, pte| {
                    pages.push(PageInfo {
                        base_vpn,
                        size,
                        tier: self.mem.tier_of(pte.pfn()),
                        accessed: pte.accessed(),
                        dirty: pte.dirty(),
                        poisoned: pte.poisoned(),
                        fault_count: self.trap.count(base_vpn).unwrap_or(0),
                    });
                });
            spans.push(span_start..pages.len());
        }
        MemoryView {
            at_ns: self.clock.now_ns(),
            pages,
            spans,
        }
    }
}
