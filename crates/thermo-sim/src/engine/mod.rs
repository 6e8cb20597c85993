//! The virtual-time execution engine.
//!
//! [`Engine`] owns the whole simulated machine — page table, TLBs, LLC,
//! two-tier physical memory, the BadgerTrap unit and the migration engine —
//! and exposes three faces:
//!
//! * the **application face** (this module): [`Engine::access`] runs one
//!   memory access through the pipeline (TLB → page walk → poison fault →
//!   LLC → memory tier) and charges its latency to virtual time;
//! * the **kernel face** ([`kernel`], mechanism layer): the raw operations
//!   policies perform — A-bit scans, huge-page split/collapse, PTE
//!   poisoning, and page migration between tiers;
//! * the **policy seam** ([`view`] + [`plan`]): a phase-structured boundary
//!   for policy layers (`thermostat::Daemon`, `thermo-kstaled`). A policy
//!   takes a read-only [`MemoryView`] snapshot at a period boundary
//!   (optionally built by sharded `thermo-exec` workers off the app
//!   thread), decides purely on that snapshot, and hands back a
//!   [`PolicyPlan`] that [`Engine::apply_plan`] executes in program
//!   order, atomically, with the paper's virtual-time cost accounting.
//!
//! Everything is deterministic: no host randomness, and the only threads
//! are the scoped read-only snapshot workers whose shard boundaries and
//! merge order are fixed (never worker-derived), so artifacts are
//! byte-identical for any `THERMO_SCAN_JOBS`.

mod kernel;
mod plan;
#[cfg(test)]
mod tests;
mod view;

pub use plan::{OpOutcome, PlanOp, PlanReceipt, PolicyPlan};
pub use view::{MemoryView, PageInfo};

use crate::cache::Llc;
use crate::clock::VirtualClock;
use crate::config::{ColdAccessModel, SimConfig};
use crate::fabric::{Fabric, FabricStats};
use crate::process::{Process, Vma};
use crate::series::RateSeries;
use crate::stats::EngineStats;
use std::collections::BTreeMap;
use thermo_mem::{
    translate, MigrationEngine, MigrationStats, PageSize, Pfn, PhysicalMemory, Tier, VirtAddr, Vpn,
};
use thermo_trap::{TrapStats, TrapUnit};
use thermo_vm::{Mapping, PageTable, Tlb, TlbOutcome, TlbStats, Vpid};

/// Kernel-time cost of one huge-page split or collapse (page-table surgery
/// plus shootdown), ns.
pub(crate) const THP_SURGERY_NS: u64 = 5_000;
/// Minor-fault (demand paging) cost of a 4KB page, ns.
const MINOR_FAULT_SMALL_NS: u64 = 2_000;
/// Minor-fault cost of a 2MB THP allocation (includes zeroing), ns.
const MINOR_FAULT_HUGE_NS: u64 = 40_000;
/// Extra latency an LLC miss pays while a fabric link is copying: the
/// app-visible contention cost of migration traffic, ns.
const CONTENTION_PENALTY_NS: u64 = 60;
/// Kernel-time cost of remapping one page whose copy needs no bulk
/// transfer (a fabric commit or a shadow re-promotion): PTE update plus
/// shootdown, ns.
pub(crate) const FABRIC_REMAP_NS: u64 = 5_000;
/// Bucket width of the slow-tier access-rate series (Figure 3), ns.
const SERIES_BUCKET_NS: u64 = 1_000_000_000;
/// VPID of the single simulated guest.
pub(crate) const VPID: Vpid = Vpid(1);
/// Kernel-time cost per PTE visited during an A-bit scan, ns.
pub(crate) const SCAN_VISIT_NS: u64 = 50;
/// Kernel-time cost per TLB shootdown during an A-bit scan, ns.
pub(crate) const SCAN_SHOOTDOWN_NS: u64 = 1_000;

/// Footprint breakdown by page size and tier — the series plotted in the
/// paper's Figures 5–10 ("2MB_hot_data", "4KB_cold_data", ...).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FootprintBreakdown {
    /// Bytes of 2MB pages in the fast tier.
    pub huge_fast: u64,
    /// Bytes of 2MB pages in the slow tier.
    pub huge_slow: u64,
    /// Bytes of 4KB pages in the fast tier.
    pub small_fast: u64,
    /// Bytes of 4KB pages in the slow tier.
    pub small_slow: u64,
}

impl FootprintBreakdown {
    /// Total resident bytes.
    pub fn total(&self) -> u64 {
        self.huge_fast + self.huge_slow + self.small_fast + self.small_slow
    }

    /// Bytes in the slow tier (the "cold data" curves).
    pub fn cold(&self) -> u64 {
        self.huge_slow + self.small_slow
    }

    /// Fraction of the footprint in the slow tier (0 when empty).
    pub fn cold_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.cold() as f64 / t as f64
        }
    }

    pub(crate) fn count(&mut self, size: PageSize, tier: Tier) {
        match (size, tier) {
            (PageSize::Huge2M, Tier::Fast) => self.huge_fast += size.bytes() as u64,
            (PageSize::Huge2M, Tier::Slow) => self.huge_slow += size.bytes() as u64,
            (PageSize::Small4K, Tier::Fast) => self.small_fast += size.bytes() as u64,
            (PageSize::Small4K, Tier::Slow) => self.small_slow += size.bytes() as u64,
        }
    }
}

/// Accumulator for the access pipeline's hot charges.
///
/// `Engine::access` runs millions of times per simulated second; instead of
/// scattering its tier/LLC counter updates across the full [`EngineStats`]
/// struct it charges this small, cache-hot block, which only
/// [`Engine::stats`] merges in.
#[derive(Debug, Clone, Copy, Default)]
struct AccessCharges {
    accesses: u64,
    writes: u64,
    llc_hits: u64,
    llc_misses: u64,
    fast_tier_accesses: u64,
    slow_tier_accesses: u64,
    app_time_ns: u64,
}

impl AccessCharges {
    #[inline]
    fn fold_into(&self, stats: &mut EngineStats) {
        stats.accesses += self.accesses;
        stats.writes += self.writes;
        stats.llc_hits += self.llc_hits;
        stats.llc_misses += self.llc_misses;
        stats.fast_tier_accesses += self.fast_tier_accesses;
        stats.slow_tier_accesses += self.slow_tier_accesses;
        stats.app_time_ns += self.app_time_ns;
    }
}

/// The simulated machine.
pub struct Engine {
    pub(crate) config: SimConfig,
    pub(crate) clock: VirtualClock,
    pub(crate) tlb: Tlb,
    pub(crate) pt: PageTable,
    pub(crate) mem: PhysicalMemory,
    pub(crate) llc: Llc,
    pub(crate) trap: TrapUnit,
    pub(crate) mig: MigrationEngine,
    pub(crate) fab: Fabric,
    pub(crate) process: Process,
    pub(crate) stats: EngineStats,
    hot: AccessCharges,
    /// Slow-tier access events per time bucket (Figure 3).
    pub(crate) slow_series: RateSeries,
    /// Exact per-4KB-page access counts (Figure 2 ground truth), when
    /// enabled.
    pub(crate) true_access: BTreeMap<Vpn, u64>,
    pub(crate) next_tlb_flush_ns: u64,
    /// Soft cap on fast-tier bytes this engine may hold (`None` = whole
    /// tier, the legacy single-tenant behavior). Set by the capacity
    /// arbiter on the co-scheduled path; enforced in demand paging.
    pub(crate) fast_cap_bytes: Option<u64>,
    /// Pages demand-paged into the slow tier because the fast tier was
    /// capped or full, keyed by leaf base VPN → bytes. The arbiter
    /// promotes from here (in address order) when it grants capacity.
    pub(crate) displaced: BTreeMap<Vpn, u64>,
    pub(crate) pressure: PressureStats,
}

/// Capacity-pressure counters: what the engine did when the fast tier
/// could not take a page. Kept out of the frozen [`EngineStats`] (which
/// is serialized byte-for-byte inside golden notes) so the legacy
/// artifact shape is untouched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PressureStats {
    /// Demand-paging minor faults that fell back to the slow tier.
    pub slow_fallback_faults: u64,
    /// Bytes demoted by arbiter-driven cold reclaim.
    pub reclaimed_bytes: u64,
    /// Displaced bytes promoted back after a capacity grant.
    pub promoted_bytes: u64,
}

thermo_util::json_struct!(PressureStats {
    slow_fallback_faults,
    reclaimed_bytes,
    promoted_bytes,
});

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now_ns", &self.clock.now_ns())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Engine {
    /// Builds a machine from `config`.
    pub fn new(config: SimConfig) -> Self {
        let mem = PhysicalMemory::new(config.fast.clone(), config.slow.clone());
        Self {
            clock: VirtualClock::new(),
            tlb: Tlb::new(config.tlb),
            pt: PageTable::new(),
            llc: Llc::new(config.llc),
            trap: TrapUnit::new(config.trap),
            mig: MigrationEngine::with_defaults(),
            fab: Fabric::new(config.fabric),
            process: Process::new(),
            stats: EngineStats::default(),
            hot: AccessCharges::default(),
            slow_series: RateSeries::new(SERIES_BUCKET_NS),
            true_access: BTreeMap::new(),
            next_tlb_flush_ns: config.tlb_flush_period_ns.unwrap_or(u64::MAX),
            fast_cap_bytes: None,
            displaced: BTreeMap::new(),
            pressure: PressureStats::default(),
            mem,
            config,
        }
    }

    // ------------------------------------------------------------------
    // Application face
    // ------------------------------------------------------------------

    /// Maps a new VMA; frames are allocated lazily on first touch.
    pub fn mmap(
        &mut self,
        len: u64,
        thp: bool,
        writable: bool,
        file_backed: bool,
        name: impl Into<String>,
    ) -> VirtAddr {
        self.process.mmap(len, thp, writable, file_backed, name)
    }

    /// Runs one memory access through the pipeline and returns the latency
    /// charged (also advances the virtual clock).
    ///
    /// # Panics
    ///
    /// Panics on an access outside every VMA (a simulated segfault — a bug
    /// in the workload generator).
    pub fn access(&mut self, va: VirtAddr, write: bool) -> u64 {
        let vpn = va.vpn();
        self.hot.accesses += 1;
        if write {
            self.hot.writes += 1;
        }
        if self.config.track_true_access {
            *self.true_access.entry(vpn).or_insert(0) += 1;
        }

        if self.clock.now_ns() >= self.next_tlb_flush_ns {
            // OS noise: timer tick / context switch flushes the TLB.
            self.tlb.flush_all();
            let period = self
                .config
                .tlb_flush_period_ns
                .expect("flush scheduled only when configured");
            self.next_tlb_flush_ns = self.clock.now_ns() + period;
        }

        let mut lat = 0u64;
        let (base_pfn, size) = match self.tlb.lookup(vpn, VPID) {
            TlbOutcome::HitL1 { pfn, size } => (pfn, size),
            TlbOutcome::HitL2 { pfn, size } => {
                lat += self.config.tlb.l2_hit_ns;
                (pfn, size)
            }
            TlbOutcome::Miss => self.walk(vpn, write, &mut lat),
        };
        let pfn4k = match size {
            PageSize::Small4K => base_pfn,
            PageSize::Huge2M => base_pfn.offset(vpn.index_in_huge() as u64),
        };
        let pa = translate(va, pfn4k, PageSize::Small4K);

        if write && self.fab.has_state() {
            // A write makes in-flight copies and shadow pages stale.
            self.fab.note_write(vpn, self.clock.now_ns());
        }

        if self.llc.access(pa.cache_line()) {
            self.hot.llc_hits += 1;
            lat += self.llc.hit_ns();
        } else {
            self.hot.llc_misses += 1;
            if self.fab.busy() {
                // Migration traffic contends with demand misses for the
                // channel.
                lat += CONTENTION_PENALTY_NS;
                self.fab.note_contended_miss();
            }
            let tier = self.mem.tier_of(pfn4k);
            let mem_ns = match (self.config.cold_model, tier) {
                // Under fault emulation the data physically lives in DRAM.
                (ColdAccessModel::FaultEmulated, _) => self.config.fast.latency_ns(write),
                (ColdAccessModel::Direct, Tier::Fast) => self.config.fast.latency_ns(write),
                (ColdAccessModel::Direct, Tier::Slow) => self.config.slow.latency_ns(write),
            };
            lat += mem_ns;
            match tier {
                Tier::Fast => self.hot.fast_tier_accesses += 1,
                Tier::Slow => {
                    self.hot.slow_tier_accesses += 1;
                    if self.config.cold_model == ColdAccessModel::Direct {
                        self.slow_series.record(self.clock.now_ns(), 1);
                    }
                }
            }
            if write {
                self.mem.record_write(pfn4k, 64);
            }
        }

        self.clock.advance(lat);
        self.hot.app_time_ns += lat;
        if self.fab.busy() {
            self.fab.tick(self.clock.now_ns());
        }
        lat
    }

    /// Charges pure compute time to the application.
    pub fn advance_compute(&mut self, ns: u64) {
        self.clock.advance(ns);
        self.hot.app_time_ns += ns;
        if self.fab.busy() {
            self.fab.tick(self.clock.now_ns());
        }
    }

    fn walk(&mut self, vpn: Vpn, write: bool, lat: &mut u64) -> (Pfn, PageSize) {
        // Fused descent: `touch` resolves the leaf and sets the A (and, for
        // writes, D) bit in a single pass over the flat leaf array, where
        // the radix model needed one descent to look up and a second to
        // update flags. The returned mapping is the pre-update copy, so
        // poison/pfn/size checks below see exactly what `lookup` saw.
        let mapping = match self.pt.touch(vpn, write) {
            Some(m) => m,
            None => {
                let m = self.minor_fault(vpn, lat);
                self.pt.touch(vpn, write).expect("just mapped");
                m
            }
        };
        self.stats.walks += 1;
        let wc = self.config.walk.walk_cost_ns(mapping.size);
        *lat += wc;
        self.stats.walk_time_ns += wc;
        if mapping.pte.poisoned() {
            *lat += self.trap.on_fault(mapping.base_vpn);
            match self.mem.tier_of(mapping.pte.pfn()) {
                Tier::Slow => {
                    self.stats.slow_trap_faults += 1;
                    self.slow_series.record(self.clock.now_ns(), 1);
                }
                Tier::Fast => self.stats.fast_trap_faults += 1,
            }
        }
        // BadgerTrap installs a (temporary) translation even for poisoned
        // pages, so repeated accesses only fault again after a TLB eviction
        // or shootdown.
        self.tlb
            .insert(mapping.base_vpn, mapping.pte.pfn(), mapping.size, VPID);
        (mapping.pte.pfn(), mapping.size)
    }

    fn minor_fault(&mut self, vpn: Vpn, lat: &mut u64) -> Mapping {
        let va = vpn.addr();
        // Copy out only what paging needs: cloning the VMA would clone its
        // name on every fault.
        let (start, end, thp, writable) = self
            .process
            .find(va)
            .map(|vma| (vma.start, vma.end(), vma.thp, vma.writable))
            .unwrap_or_else(|| panic!("segfault: access to unmapped {va}"));
        let huge_base = va.align_down(PageSize::Huge2M);
        let huge_fits = self.config.thp_enabled
            && thp
            && huge_base >= start
            && huge_base.0 + PageSize::Huge2M.bytes() as u64 <= end.0;
        if huge_fits && self.fast_has_room(PageSize::Huge2M.bytes() as u64) {
            if let Ok(frame) = self.mem.alloc(Tier::Fast, PageSize::Huge2M) {
                self.pt
                    .map_huge(huge_base.vpn(), frame, writable)
                    .expect("demand-paged huge window must be unmapped");
                *lat += MINOR_FAULT_HUGE_NS;
                self.stats.minor_faults_huge += 1;
                return self.pt.lookup(vpn).expect("just mapped");
            }
        }
        if self.fast_has_room(PageSize::Small4K.bytes() as u64) {
            if let Ok(frame) = self.mem.alloc(Tier::Fast, PageSize::Small4K) {
                self.pt
                    .map_small(vpn, frame, writable)
                    .expect("demand-paged page must be unmapped");
                *lat += MINOR_FAULT_SMALL_NS;
                self.stats.minor_faults_small += 1;
                return self.pt.lookup(vpn).expect("just mapped");
            }
        }
        // Fast tier capped or full: demand-page into the slow tier and
        // poison the page so accesses fault (§4.3 slowdown signal) and
        // the arbiter can see displaced mass to promote later. No
        // shootdown cost beyond trap bookkeeping — the translation was
        // never installed.
        let frame = self
            .mem
            .alloc(Tier::Slow, PageSize::Small4K)
            .expect("fast and slow tiers out of memory during demand paging");
        self.pt
            .map_small(vpn, frame, writable)
            .expect("demand-paged page must be unmapped");
        self.trap
            .poison(&mut self.pt, &mut self.tlb, VPID, vpn, PageSize::Small4K);
        self.displaced.insert(vpn, PageSize::Small4K.bytes() as u64);
        self.pressure.slow_fallback_faults += 1;
        *lat += MINOR_FAULT_SMALL_NS;
        self.stats.minor_faults_small += 1;
        self.pt.lookup(vpn).expect("just mapped")
    }

    /// Whether the fast tier may take `bytes` more under the current
    /// capacity grant (always true with no cap). Gates demand paging and
    /// every fast-ward migration, so the grant is a real ledger: no
    /// kernel path can grow a tenant past what the arbiter gave it.
    pub(crate) fn fast_has_room(&self, bytes: u64) -> bool {
        match self.fast_cap_bytes {
            None => true,
            Some(cap) => self.mem.used_bytes(Tier::Fast).saturating_add(bytes) <= cap,
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Current virtual time, ns.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Engine statistics, the access accumulator merged in.
    pub fn stats(&self) -> EngineStats {
        let mut s = self.stats;
        self.hot.fold_into(&mut s);
        s
    }

    /// TLB statistics.
    pub fn tlb_stats(&self) -> TlbStats {
        self.tlb.stats()
    }

    /// Trap statistics.
    pub fn trap_stats(&self) -> TrapStats {
        self.trap.stats()
    }

    /// Migration statistics.
    pub fn migration_stats(&self) -> MigrationStats {
        self.mig.stats()
    }

    /// Migration-fabric counters (transactional migration).
    pub fn fabric_stats(&self) -> FabricStats {
        self.fab.stats()
    }

    /// The migration fabric (read-only introspection).
    pub fn fabric(&self) -> &Fabric {
        &self.fab
    }

    /// The slow-tier access-rate series (Figure 3).
    pub fn slow_series(&self) -> &RateSeries {
        &self.slow_series
    }

    /// Resident set size (bytes of mapped physical memory).
    pub fn rss_bytes(&self) -> u64 {
        self.pt.mapped_bytes()
    }

    /// The simulated process (VMA listing).
    pub fn process(&self) -> &Process {
        &self.process
    }

    /// All VMAs (convenience).
    pub fn vmas(&self) -> &[Vma] {
        self.process.vmas()
    }

    /// The VMA ranges as `(start_vpn, n_4k_pages)` pairs — the argument
    /// shape [`Engine::memory_view`] and the scan helpers take.
    pub fn vma_ranges(&self) -> Vec<(Vpn, u64)> {
        self.process
            .vmas()
            .iter()
            .map(|v| (v.start.vpn(), v.len / 4096))
            .collect()
    }

    /// Configuration (read-only).
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The trap unit (for policy layers that read per-page counters).
    pub fn trap(&self) -> &TrapUnit {
        &self.trap
    }

    /// Read-only page table access.
    pub fn page_table(&self) -> &PageTable {
        &self.pt
    }

    /// Exact per-4KB-page access counts (empty unless
    /// `config.track_true_access`).
    pub fn true_access_counts(&self) -> &BTreeMap<Vpn, u64> {
        &self.true_access
    }

    /// Clears the exact access counters.
    pub fn reset_true_access(&mut self) {
        self.true_access.clear();
    }

    /// Free bytes in `tier`.
    pub fn free_bytes(&self, tier: Tier) -> u64 {
        self.mem.free_bytes(tier)
    }

    /// Allocated bytes in `tier`.
    pub fn used_bytes(&self, tier: Tier) -> u64 {
        self.mem.used_bytes(tier)
    }

    /// Sets (or clears) the soft fast-tier capacity grant, bytes.
    pub fn set_fast_cap_bytes(&mut self, cap: Option<u64>) {
        self.fast_cap_bytes = cap;
    }

    /// The current soft fast-tier capacity grant, if any.
    pub fn fast_cap_bytes(&self) -> Option<u64> {
        self.fast_cap_bytes
    }

    /// Capacity-pressure counters (slow-tier demand-paging fallbacks,
    /// arbiter reclaim/promote traffic).
    pub fn pressure_stats(&self) -> PressureStats {
        self.pressure
    }

    /// Total bytes demand-paged into the slow tier for lack of fast
    /// capacity and not yet promoted back.
    pub fn displaced_bytes(&self) -> u64 {
        self.displaced.values().sum()
    }

    /// Physical memory (wear statistics etc.).
    pub fn memory(&self) -> &PhysicalMemory {
        &self.mem
    }
}

thermo_util::json_struct!(FootprintBreakdown {
    huge_fast,
    huge_slow,
    small_fast,
    small_slow
});
