//! [`MemoryView`]: the read-only snapshot half of the engine↔policy seam.
//!
//! At a period boundary a policy asks the engine for a snapshot of the
//! leaves covering a set of VPN ranges — page size, backing tier, A/D bits,
//! poison state, and the BadgerTrap fault counter. The snapshot is built
//! from shared borrows only (`&PageTable`, `&PhysicalMemory`, `&TrapUnit`),
//! which is what lets it run **off the app thread**: the ranges are cut
//! into shards at *fixed* 32 MiB boundaries and walked by a `thermo-exec`
//! pool sized by `THERMO_SCAN_JOBS`, then merged strictly in shard order.
//!
//! Determinism: shard boundaries are absolute (huge-page-aligned multiples
//! of [`SCAN_SHARD_PAGES`], never derived from the worker count), each
//! shard's walk is a pure function of the page table, and the merge order
//! is the shard order — so the snapshot is byte-identical for any
//! `THERMO_SCAN_JOBS`, including the inline (`workers <= 1`) path which
//! walks the very same shard list serially. Each shard job still receives
//! a `derive_stream_seed(base, shard_id)` seed from the pool (the standard
//! `thermo-exec` contract) so future sampling policies can draw
//! shard-local randomness without restructuring; today's walk is read-only
//! and draws nothing.
//!
//! Cost accounting: reading A bits is the visit half of the paper's §3
//! scan. [`Engine::memory_view`] charges `ptes_visited · SCAN_VISIT_NS` of
//! kernel time at the tick where the snapshot is taken — exactly what the
//! historical inline `read_accessed` charged — while the shootdown half is
//! charged by the [`PolicyPlan`](super::PolicyPlan) op that clears the
//! accessed leaves. Summed, a snapshot + targeted clear costs precisely
//! what a fused `scan_and_clear_accessed` over the same ranges did, so
//! moving the walk off-thread never changes virtual time.

use super::{Engine, FootprintBreakdown, SCAN_VISIT_NS};
use std::ops::Range;
use thermo_mem::{PageSize, PhysicalMemory, Tier, Vpn};
use thermo_trap::TrapUnit;
use thermo_vm::PageTable;

/// Shard granularity of the snapshot walk, in 4KB pages (32 MiB). A fixed
/// constant — never derived from the worker count — so the shard list, the
/// per-shard seed streams, and the merge order are identical for any
/// `THERMO_SCAN_JOBS`. Multiple of 512 so no shard boundary can land inside
/// a huge leaf (which would double-report it).
pub(crate) const SCAN_SHARD_PAGES: u64 = 16 * 512;

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
/// engine.memory_view(&ranges, 1);
/// ```
///
/// Binding it compiles:
///
/// ```
/// #![deny(unused_must_use)]
/// # use thermo_sim::{Engine, SimConfig};
/// # let mut engine = Engine::new(SimConfig::paper_defaults(64 << 20, 64 << 20));
/// let ranges = engine.vma_ranges();
/// let view = engine.memory_view(&ranges, 1);
/// assert!(view.pages().is_empty());
/// ```
#[must_use = "a memory view is a paid-for scan the policy must read"]
#[derive(Debug, Clone)]
pub struct MemoryView {
    at_ns: u64,
    pages: Vec<PageInfo>,
    /// Per requested range: `(start, n_pages, span into `pages`)`.
    spans: Vec<(Vpn, u64, Range<usize>)>,
    ptes_visited: u64,
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
        &self.pages[self.spans[i].2.clone()]
    }

    /// PTEs visited building the snapshot (the §3 scan visit cost).
    pub fn ptes_visited(&self) -> u64 {
        self.ptes_visited
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

/// Cuts `ranges` into walk shards at absolute [`SCAN_SHARD_PAGES`]
/// boundaries, preserving range order. Returns `(range_idx, start,
/// n_pages)` triples; concatenating shard outputs in shard order
/// reproduces the serial whole-range walk byte for byte.
fn shards_of(ranges: &[(Vpn, u64)]) -> Vec<(usize, Vpn, u64)> {
    let mut shards = Vec::new();
    for (ri, &(start, n)) in ranges.iter().enumerate() {
        let end = start.0 + n;
        let mut cur = start.0;
        while cur < end {
            let stop = ((cur / SCAN_SHARD_PAGES) + 1) * SCAN_SHARD_PAGES;
            let stop = stop.min(end);
            shards.push((ri, Vpn(cur), stop - cur));
            cur = stop;
        }
    }
    shards
}

/// Walks one shard read-only, collecting leaf observations.
fn collect_range(
    pt: &PageTable,
    mem: &PhysicalMemory,
    trap: &TrapUnit,
    start: Vpn,
    n_pages: u64,
) -> Vec<PageInfo> {
    let mut out = Vec::new();
    pt.for_each_leaf(start, n_pages, |base_vpn, size, pte| {
        out.push(PageInfo {
            base_vpn,
            size,
            tier: mem.tier_of(pte.pfn()),
            accessed: pte.accessed(),
            dirty: pte.dirty(),
            poisoned: pte.poisoned(),
            fault_count: trap.count(base_vpn).unwrap_or(0),
        });
    });
    out
}

impl Engine {
    /// Takes a [`MemoryView`] snapshot of `ranges` and charges the §3 scan
    /// visit cost (`ptes_visited · SCAN_VISIT_NS`) to kernel time — this
    /// *is* the read half of an A-bit scan, so policies that snapshot
    /// instead of calling [`read_accessed`](Engine::read_accessed) pay
    /// identical virtual time.
    ///
    /// `workers > 1` walks the fixed shard list on a `thermo-exec` pool
    /// (off the app thread); `workers <= 1` walks the same shard list
    /// inline. The result is byte-identical either way.
    pub fn memory_view(&mut self, ranges: &[(Vpn, u64)], workers: usize) -> MemoryView {
        let view = self.memory_view_uncharged(ranges, workers);
        self.stats.kernel_time_ns += view.ptes_visited() * SCAN_VISIT_NS;
        view
    }

    /// [`memory_view`](Engine::memory_view) without the kernel-time charge
    /// — for instrumentation and tests that must not perturb virtual time.
    pub fn memory_view_uncharged(&self, ranges: &[(Vpn, u64)], workers: usize) -> MemoryView {
        let shards = shards_of(ranges);
        let pt = &self.pt;
        let mem = &self.mem;
        let trap = &self.trap;
        let per_shard: Vec<Vec<PageInfo>> = if workers <= 1 || shards.len() <= 1 {
            shards
                .iter()
                .map(|&(_, s, n)| collect_range(pt, mem, trap, s, n))
                .collect()
        } else {
            let jobs: Vec<_> = shards
                .iter()
                .map(|&(_, s, n)| {
                    move |_ctx: &thermo_exec::JobCtx| collect_range(pt, mem, trap, s, n)
                })
                .collect();
            thermo_exec::run_jobs(jobs, &thermo_exec::ExecConfig::new(workers, 0))
                .expect("read-only snapshot shards cannot panic")
        };

        let mut pages = Vec::new();
        let mut spans = Vec::with_capacity(ranges.len());
        let mut shard_iter = shards.iter().zip(per_shard);
        let mut pending: Option<(usize, Vec<PageInfo>)> = None;
        for (ri, &(start, n)) in ranges.iter().enumerate() {
            let span_start = pages.len();
            loop {
                let (shard_ri, chunk) = match pending.take() {
                    Some(p) => p,
                    None => match shard_iter.next() {
                        Some((&(sri, _, _), chunk)) => (sri, chunk),
                        None => break,
                    },
                };
                if shard_ri != ri {
                    pending = Some((shard_ri, chunk));
                    break;
                }
                pages.extend(chunk);
            }
            spans.push((start, n, span_start..pages.len()));
        }
        let ptes_visited = pages.len() as u64;
        MemoryView {
            at_ns: self.clock.now_ns(),
            pages,
            spans,
            ptes_visited,
        }
    }
}
