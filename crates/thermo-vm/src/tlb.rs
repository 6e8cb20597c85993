//! Two-level TLB model with VPID tags.
//!
//! The paper's testbed (§4.1): "There is a 64-entry TLB per core and a
//! shared 1024 entry L2 TLB." TLB behaviour matters to Thermostat twice
//! over: (1) huge pages earn their Table-1 speedups through TLB reach and
//! cheaper walks, and (2) BadgerTrap access counting observes TLB *misses*,
//! so the temporal locality captured by the TLB is exactly what the
//! estimator does and doesn't see.
//!
//! The model: per-page-size L1 arrays plus a unified L2, all set-associative
//! with true-LRU within a set, tagged with a VPID (the paper discusses KVM's
//! use of VPIDs in §4.2).

use thermo_mem::{PageSize, Pfn, Vpn, PAGES_PER_HUGE};

/// Virtual processor id tag (KVM tags guest TLB entries with a VPID).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Vpid(pub u16);

/// Geometry of one TLB array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbGeometry {
    /// Total entries.
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
}

impl TlbGeometry {
    /// Creates a geometry; `entries` must be a multiple of `ways`.
    ///
    /// # Panics
    ///
    /// Panics when `entries % ways != 0` or either is zero.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(
            entries > 0 && ways > 0 && entries.is_multiple_of(ways),
            "bad TLB geometry {entries}/{ways}"
        );
        Self { entries, ways }
    }

    fn sets(&self) -> usize {
        self.entries / self.ways
    }
}

/// Configuration of the full TLB hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// L1 array for 4KB translations.
    pub l1_small: TlbGeometry,
    /// L1 array for 2MB translations.
    pub l1_huge: TlbGeometry,
    /// Unified L2 (holds both sizes).
    pub l2: TlbGeometry,
    /// Latency charged on an L2 hit (an L1 hit is free), ns.
    pub l2_hit_ns: u64,
}

impl Default for TlbConfig {
    /// The paper's §4.1 hardware: 64-entry L1 (we give 2MB entries their own
    /// 32-entry array, as on Haswell-class cores), 1024-entry shared L2.
    fn default() -> Self {
        Self {
            l1_small: TlbGeometry::new(64, 4),
            l1_huge: TlbGeometry::new(32, 4),
            l2: TlbGeometry::new(1024, 8),
            l2_hit_ns: 7,
        }
    }
}

impl TlbConfig {
    /// TLB scaled down in proportion to the reproduction's scaled
    /// footprints (DESIGN.md §1): the paper's machine has ~4-9GB of hot
    /// application footprint against a 2GB huge-page L2 reach (1024
    /// entries); with footprints scaled ~16x, the same
    /// footprint-to-reach ratio needs a ~128-entry L2. Without this
    /// scaling, every translation fits in the L2 forever and TLB-miss-based
    /// access counting (BadgerTrap's whole premise) observes nothing.
    pub fn paper_scaled() -> Self {
        Self {
            l1_small: TlbGeometry::new(32, 4),
            l1_huge: TlbGeometry::new(16, 4),
            l2: TlbGeometry::new(128, 8),
            l2_hit_ns: 7,
        }
    }
}

// Entries are stored packed: one u64 tag word (valid bit, page-size bit,
// VPID, base VPN) plus parallel pfn/lru arrays. A probe is then a single
// integer compare per way over a dense tag row instead of a five-field
// struct walk — this array scan is the hottest loop in the simulator.
const TAG_VALID: u64 = 1;
const TAG_HUGE: u64 = 1 << 1;
const TAG_VPID_SHIFT: u32 = 2;
const TAG_VPN_SHIFT: u32 = 18;

#[inline]
fn pack_tag(vpn: Vpn, size: PageSize, vpid: Vpid) -> u64 {
    debug_assert!(vpn.0 < 1 << (64 - TAG_VPN_SHIFT), "VPN overflows tag");
    let size_bit = match size {
        PageSize::Small4K => 0,
        PageSize::Huge2M => TAG_HUGE,
    };
    (vpn.0 << TAG_VPN_SHIFT) | ((vpid.0 as u64) << TAG_VPID_SHIFT) | size_bit | TAG_VALID
}

/// Result of a TLB lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbOutcome {
    /// Hit in the L1 array (no latency).
    HitL1 {
        /// Base frame of the page.
        pfn: Pfn,
        /// Page size of the entry.
        size: PageSize,
    },
    /// Hit in the shared L2 (charged `l2_hit_ns`; entry promoted to L1).
    HitL2 {
        /// Base frame of the page.
        pfn: Pfn,
        /// Page size of the entry.
        size: PageSize,
    },
    /// Miss everywhere; a page walk is required.
    Miss,
}

/// Per-level hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// L1 hits.
    pub l1_hits: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// Full misses.
    pub misses: u64,
    /// Entries invalidated by shootdowns.
    pub shootdowns: u64,
}

impl TlbStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.l1_hits + self.l2_hits + self.misses
    }

    /// Miss ratio in `[0,1]`; 0 when no lookups.
    pub fn miss_ratio(&self) -> f64 {
        let n = self.lookups();
        if n == 0 {
            0.0
        } else {
            self.misses as f64 / n as f64
        }
    }
}

struct Array {
    ways: usize,
    sets: usize,
    /// `sets - 1` when `sets` is a power of two (every shipped geometry);
    /// selects the mask fast path over the division in `set_index`.
    mask: usize,
    pow2: bool,
    /// Valid-entry counts per page size (`[small, huge]`). A probe for a
    /// size with zero resident entries cannot hit and has no side effects,
    /// so `Tlb::lookup` skips it entirely.
    valid: [u32; 2],
    tags: Vec<u64>,
    pfns: Vec<u64>,
    lrus: Vec<u64>,
}

#[inline]
fn size_class(size: PageSize) -> usize {
    match size {
        PageSize::Small4K => 0,
        PageSize::Huge2M => 1,
    }
}

impl Array {
    fn new(geo: TlbGeometry) -> Self {
        let sets = geo.sets();
        Self {
            ways: geo.ways,
            sets,
            mask: sets.wrapping_sub(1),
            pow2: sets.is_power_of_two(),
            valid: [0, 0],
            tags: vec![0; geo.entries],
            pfns: vec![0; geo.entries],
            lrus: vec![0; geo.entries],
        }
    }

    #[inline]
    fn holds(&self, size: PageSize) -> bool {
        self.valid[size_class(size)] > 0
    }

    #[inline]
    fn note_cleared(&mut self, tag: u64) {
        if tag & TAG_VALID != 0 {
            self.valid[(tag & TAG_HUGE != 0) as usize] -= 1;
        }
    }

    /// Set-selection key: huge entries index by their huge-page number so
    /// neighbours spread.
    #[inline]
    fn key_of(vpn: Vpn, size: PageSize) -> usize {
        let key = match size {
            PageSize::Small4K => vpn.0,
            PageSize::Huge2M => vpn.0 / PAGES_PER_HUGE as u64,
        };
        key as usize
    }

    #[inline]
    fn set_of(&self, key: usize) -> usize {
        if self.pow2 {
            key & self.mask
        } else {
            key % self.sets
        }
    }

    #[inline]
    fn set_index(&self, vpn: Vpn, size: PageSize) -> usize {
        self.set_of(Self::key_of(vpn, size))
    }

    /// Probes one set for a pre-packed tag. `Tlb::lookup` packs each
    /// size's tag and key once and reuses them across the L1 and L2
    /// probes of the same (page, size, vpid); the slice borrow hoists the
    /// bounds check out of the way loop.
    #[inline]
    fn probe(&mut self, want: u64, key: usize, tick: u64) -> Option<Pfn> {
        let base = self.set_of(key) * self.ways;
        let tags = &self.tags[base..base + self.ways];
        for (i, t) in tags.iter().enumerate() {
            if *t == want {
                self.lrus[base + i] = tick;
                return Some(Pfn(self.pfns[base + i]));
            }
        }
        None
    }

    fn insert(&mut self, vpn: Vpn, pfn: Pfn, size: PageSize, vpid: Vpid, tick: u64) {
        let want = pack_tag(vpn, size, vpid);
        let base = self.set_index(vpn, size) * self.ways;
        // Reuse an existing entry for the same tag, else the first invalid
        // way, else LRU (first on ties). An invalid way before the tag's
        // own must not win: that would leave two copies of the tag and
        // evict a live entry while a way is free.
        let mut same = None;
        let mut free = None;
        let mut lru = base;
        let mut best = u64::MAX;
        let tags = &self.tags[base..base + self.ways];
        let lrus = &self.lrus[base..base + self.ways];
        for (i, (&t, &l)) in tags.iter().zip(lrus).enumerate() {
            if t == want {
                same = Some(base + i);
                break;
            }
            if t & TAG_VALID == 0 {
                free.get_or_insert(base + i);
            } else if l < best {
                best = l;
                lru = base + i;
            }
        }
        let victim = same.or(free).unwrap_or(lru);
        self.note_cleared(self.tags[victim]);
        self.valid[size_class(size)] += 1;
        self.tags[victim] = want;
        self.pfns[victim] = pfn.0;
        self.lrus[victim] = tick;
    }

    fn invalidate(&mut self, vpn: Vpn, size: PageSize, vpid: Vpid) -> bool {
        let want = pack_tag(vpn, size, vpid);
        let base = self.set_index(vpn, size) * self.ways;
        let mut hit = false;
        for i in base..base + self.ways {
            if self.tags[i] == want {
                self.note_cleared(want);
                self.tags[i] &= !TAG_VALID;
                hit = true;
            }
        }
        hit
    }

    /// Drops every valid 4KB entry of `vpid` whose page lies in the
    /// `PAGES_PER_HUGE` pages from `base`, setting bit `i` of `dropped`
    /// for each page `base + i` that had one.
    fn invalidate_window(
        &mut self,
        base: Vpn,
        vpid: Vpid,
        dropped: &mut [u64; PAGES_PER_HUGE / 64],
    ) {
        if !self.holds(PageSize::Small4K) {
            return;
        }
        // The bits below the VPN: valid, 4KB, and the VPID.
        let low = (1 << TAG_VPN_SHIFT) - 1;
        let want = pack_tag(base, PageSize::Small4K, vpid) & low;
        for tag in &mut self.tags {
            let page = (*tag >> TAG_VPN_SHIFT).wrapping_sub(base.0);
            if *tag & low == want && page < PAGES_PER_HUGE as u64 {
                dropped[page as usize / 64] |= 1 << (page % 64);
                *tag &= !TAG_VALID;
                self.valid[0] -= 1;
            }
        }
    }

    fn flush_all(&mut self) {
        for t in &mut self.tags {
            *t &= !TAG_VALID;
        }
        self.valid = [0, 0];
    }

    fn flush_vpid(&mut self, vpid: Vpid) {
        let want = (vpid.0 as u64) << TAG_VPID_SHIFT;
        let field = 0xFFFFu64 << TAG_VPID_SHIFT;
        for i in 0..self.tags.len() {
            if self.tags[i] & field == want {
                self.note_cleared(self.tags[i]);
                self.tags[i] &= !TAG_VALID;
            }
        }
    }
}

/// The TLB hierarchy: split L1 + unified L2.
pub struct Tlb {
    config: TlbConfig,
    l1_small: Array,
    l1_huge: Array,
    l2: Array,
    tick: u64,
    stats: TlbStats,
}

impl std::fmt::Debug for Tlb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tlb")
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Tlb {
    /// Creates a TLB with the given geometry.
    pub fn new(config: TlbConfig) -> Self {
        Self {
            config,
            l1_small: Array::new(config.l1_small),
            l1_huge: Array::new(config.l1_huge),
            l2: Array::new(config.l2),
            tick: 0,
            stats: TlbStats::default(),
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Looks up the translation for the 4KB page `vpn` under `vpid`,
    /// probing both page sizes (huge entries are tagged by their base VPN).
    ///
    /// L2 hits are promoted into the appropriate L1 array.
    #[inline]
    pub fn lookup(&mut self, vpn: Vpn, vpid: Vpid) -> TlbOutcome {
        self.tick += 1;
        let tick = self.tick;
        let hbase = vpn.huge_base();
        // Pack each size's tag and set key once — the L1 and L2 probes of
        // the same (page, size, vpid) compare against the same word.
        let want_small = pack_tag(vpn, PageSize::Small4K, vpid);
        let want_huge = pack_tag(hbase, PageSize::Huge2M, vpid);
        let key_small = Array::key_of(vpn, PageSize::Small4K);
        let key_huge = Array::key_of(hbase, PageSize::Huge2M);
        // Probes of an array holding zero entries of the probed size cannot
        // hit and have no side effects, so they are skipped outright; probe
        // order among the remaining ones is unchanged (stale entries of
        // either size can coexist, so order is observable).
        if self.l1_small.holds(PageSize::Small4K) {
            if let Some(pfn) = self.l1_small.probe(want_small, key_small, tick) {
                self.stats.l1_hits += 1;
                return TlbOutcome::HitL1 {
                    pfn,
                    size: PageSize::Small4K,
                };
            }
        }
        if self.l1_huge.holds(PageSize::Huge2M) {
            if let Some(pfn) = self.l1_huge.probe(want_huge, key_huge, tick) {
                self.stats.l1_hits += 1;
                return TlbOutcome::HitL1 {
                    pfn,
                    size: PageSize::Huge2M,
                };
            }
        }
        if self.l2.holds(PageSize::Small4K) {
            if let Some(pfn) = self.l2.probe(want_small, key_small, tick) {
                self.stats.l2_hits += 1;
                self.l1_small
                    .insert(vpn, pfn, PageSize::Small4K, vpid, tick);
                return TlbOutcome::HitL2 {
                    pfn,
                    size: PageSize::Small4K,
                };
            }
        }
        if self.l2.holds(PageSize::Huge2M) {
            if let Some(pfn) = self.l2.probe(want_huge, key_huge, tick) {
                self.stats.l2_hits += 1;
                self.l1_huge
                    .insert(hbase, pfn, PageSize::Huge2M, vpid, tick);
                return TlbOutcome::HitL2 {
                    pfn,
                    size: PageSize::Huge2M,
                };
            }
        }
        self.stats.misses += 1;
        TlbOutcome::Miss
    }

    /// Installs a translation after a walk. `vpn` must be the page's base
    /// (huge-aligned for 2MB), `pfn` the base frame.
    pub fn insert(&mut self, vpn: Vpn, pfn: Pfn, size: PageSize, vpid: Vpid) {
        self.tick += 1;
        let tick = self.tick;
        match size {
            PageSize::Small4K => self.l1_small.insert(vpn, pfn, size, vpid, tick),
            PageSize::Huge2M => self.l1_huge.insert(vpn, pfn, size, vpid, tick),
        }
        self.l2.insert(vpn, pfn, size, vpid, tick);
    }

    /// Invalidates one page's translation everywhere (INVLPG / a shootdown
    /// for one page). `vpn` must be the page base for the given size.
    pub fn shootdown(&mut self, vpn: Vpn, size: PageSize, vpid: Vpid) {
        let mut any = false;
        match size {
            PageSize::Small4K => any |= self.l1_small.invalidate(vpn, size, vpid),
            PageSize::Huge2M => any |= self.l1_huge.invalidate(vpn, size, vpid),
        }
        any |= self.l2.invalidate(vpn, size, vpid);
        if any {
            self.stats.shootdowns += 1;
        }
    }

    /// Invalidates every 4KB translation of `vpid` for the
    /// `PAGES_PER_HUGE` pages from `base` (a split huge page's window) in
    /// one pass over the arrays that hold 4KB entries: the bulk form of a
    /// 4KB [`shootdown`](Self::shootdown) of each page, with the same
    /// effect and the same count, one per page that had an entry.
    pub fn shootdown_window(&mut self, base: Vpn, vpid: Vpid) {
        let mut dropped = [0u64; PAGES_PER_HUGE / 64];
        self.l1_small.invalidate_window(base, vpid, &mut dropped);
        self.l2.invalidate_window(base, vpid, &mut dropped);
        let pages: u32 = dropped.iter().map(|bits| bits.count_ones()).sum();
        self.stats.shootdowns += pages as u64;
    }

    /// Flushes every entry (CR3 write without PCID).
    pub fn flush_all(&mut self) {
        self.l1_small.flush_all();
        self.l1_huge.flush_all();
        self.l2.flush_all();
        self.stats.shootdowns += 1;
    }

    /// Flushes every entry belonging to `vpid` (the vmexit side effect
    /// discussed in §4.2).
    pub fn flush_vpid(&mut self, vpid: Vpid) {
        self.l1_small.flush_vpid(vpid);
        self.l1_huge.flush_vpid(vpid);
        self.l2.flush_vpid(vpid);
        self.stats.shootdowns += 1;
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }
}

impl Default for Tlb {
    fn default() -> Self {
        Self::new(TlbConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const V0: Vpid = Vpid(1);

    #[test]
    fn miss_then_insert_then_hit() {
        let mut tlb = Tlb::default();
        assert_eq!(tlb.lookup(Vpn(5), V0), TlbOutcome::Miss);
        tlb.insert(Vpn(5), Pfn(50), PageSize::Small4K, V0);
        assert_eq!(
            tlb.lookup(Vpn(5), V0),
            TlbOutcome::HitL1 {
                pfn: Pfn(50),
                size: PageSize::Small4K
            }
        );
        assert_eq!(tlb.stats().l1_hits, 1);
        assert_eq!(tlb.stats().misses, 1);
    }

    #[test]
    fn huge_entry_covers_interior_pages() {
        let mut tlb = Tlb::default();
        tlb.insert(Vpn(512), Pfn(1024), PageSize::Huge2M, V0);
        match tlb.lookup(Vpn(512 + 77), V0) {
            TlbOutcome::HitL1 { pfn, size } => {
                assert_eq!(pfn, Pfn(1024));
                assert_eq!(size, PageSize::Huge2M);
            }
            other => panic!("expected huge L1 hit, got {other:?}"),
        }
    }

    #[test]
    fn l2_hit_promotes_to_l1() {
        // Tiny L1 so we can evict deterministically.
        let cfg = TlbConfig {
            l1_small: TlbGeometry::new(2, 2),
            l1_huge: TlbGeometry::new(2, 2),
            l2: TlbGeometry::new(16, 4),
            l2_hit_ns: 7,
        };
        let mut tlb = Tlb::new(cfg);
        tlb.insert(Vpn(1), Pfn(11), PageSize::Small4K, V0);
        tlb.insert(Vpn(2), Pfn(12), PageSize::Small4K, V0);
        tlb.insert(Vpn(3), Pfn(13), PageSize::Small4K, V0); // evicts vpn 1 from L1
        assert!(matches!(
            tlb.lookup(Vpn(1), V0),
            TlbOutcome::HitL2 { pfn: Pfn(11), .. }
        ));
        // Promoted: now an L1 hit.
        assert!(matches!(
            tlb.lookup(Vpn(1), V0),
            TlbOutcome::HitL1 { pfn: Pfn(11), .. }
        ));
    }

    #[test]
    fn vpid_isolation() {
        let mut tlb = Tlb::default();
        tlb.insert(Vpn(5), Pfn(50), PageSize::Small4K, Vpid(1));
        assert_eq!(tlb.lookup(Vpn(5), Vpid(2)), TlbOutcome::Miss);
    }

    #[test]
    fn shootdown_removes_all_copies() {
        let mut tlb = Tlb::default();
        tlb.insert(Vpn(5), Pfn(50), PageSize::Small4K, V0);
        tlb.shootdown(Vpn(5), PageSize::Small4K, V0);
        assert_eq!(tlb.lookup(Vpn(5), V0), TlbOutcome::Miss);
        assert_eq!(tlb.stats().shootdowns, 1);
    }

    #[test]
    fn shootdown_huge() {
        let mut tlb = Tlb::default();
        tlb.insert(Vpn(1024), Pfn(2048), PageSize::Huge2M, V0);
        tlb.shootdown(Vpn(1024), PageSize::Huge2M, V0);
        assert_eq!(tlb.lookup(Vpn(1024 + 3), V0), TlbOutcome::Miss);
    }

    #[test]
    fn shootdown_window_drops_small_entries_of_one_vpid() {
        let mut tlb = Tlb::default();
        let base = Vpn(1024);
        tlb.insert(Vpn(1024 + 3), Pfn(7), PageSize::Small4K, V0);
        tlb.insert(Vpn(1024 + 511), Pfn(8), PageSize::Small4K, V0);
        tlb.insert(Vpn(1024 + 512), Pfn(9), PageSize::Small4K, V0);
        tlb.insert(Vpn(1024 + 4), Pfn(10), PageSize::Small4K, Vpid(2));
        tlb.shootdown_window(base, V0);
        // Two pages had entries (each in L1 and L2): two shootdowns.
        assert_eq!(tlb.stats().shootdowns, 2);
        assert_eq!(tlb.lookup(Vpn(1024 + 3), V0), TlbOutcome::Miss);
        assert_eq!(tlb.lookup(Vpn(1024 + 511), V0), TlbOutcome::Miss);
        assert!(matches!(
            tlb.lookup(Vpn(1024 + 512), V0),
            TlbOutcome::HitL1 { .. }
        ));
        assert!(matches!(
            tlb.lookup(Vpn(1024 + 4), Vpid(2)),
            TlbOutcome::HitL1 { .. }
        ));
    }

    #[test]
    fn flush_vpid_only_affects_that_vpid() {
        let mut tlb = Tlb::default();
        tlb.insert(Vpn(5), Pfn(50), PageSize::Small4K, Vpid(1));
        tlb.insert(Vpn(6), Pfn(60), PageSize::Small4K, Vpid(2));
        tlb.flush_vpid(Vpid(1));
        assert_eq!(tlb.lookup(Vpn(5), Vpid(1)), TlbOutcome::Miss);
        assert!(matches!(
            tlb.lookup(Vpn(6), Vpid(2)),
            TlbOutcome::HitL1 { .. }
        ));
    }

    #[test]
    fn flush_all_clears_everything() {
        let mut tlb = Tlb::default();
        tlb.insert(Vpn(5), Pfn(50), PageSize::Small4K, V0);
        tlb.insert(Vpn(512), Pfn(512), PageSize::Huge2M, V0);
        tlb.flush_all();
        assert_eq!(tlb.lookup(Vpn(5), V0), TlbOutcome::Miss);
        assert_eq!(tlb.lookup(Vpn(600), V0), TlbOutcome::Miss);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let cfg = TlbConfig {
            l1_small: TlbGeometry::new(2, 2),
            l1_huge: TlbGeometry::new(2, 2),
            l2: TlbGeometry::new(2, 2),
            l2_hit_ns: 7,
        };
        let mut tlb = Tlb::new(cfg);
        tlb.insert(Vpn(1), Pfn(11), PageSize::Small4K, V0);
        tlb.insert(Vpn(2), Pfn(12), PageSize::Small4K, V0);
        tlb.lookup(Vpn(1), V0); // touch 1 -> 2 becomes L1-LRU
        tlb.insert(Vpn(3), Pfn(13), PageSize::Small4K, V0); // evicts 2 from L1
        assert!(matches!(tlb.lookup(Vpn(1), V0), TlbOutcome::HitL1 { .. }));
        // 2 was evicted from L1; it may still hit in L2 but never in L1.
        assert!(!matches!(tlb.lookup(Vpn(2), V0), TlbOutcome::HitL1 { .. }));
        // 1 was the L2 LRU victim when 3 was inserted, so after the
        // promotion of 2 above, a fresh entry 4 in the same universe still
        // leaves 3 reachable.
        assert!(!matches!(tlb.lookup(Vpn(3), V0), TlbOutcome::Miss));
    }

    #[test]
    fn reinsert_same_tag_updates_in_place() {
        let mut tlb = Tlb::default();
        tlb.insert(Vpn(1), Pfn(11), PageSize::Small4K, V0);
        tlb.insert(Vpn(1), Pfn(99), PageSize::Small4K, V0);
        assert!(matches!(
            tlb.lookup(Vpn(1), V0),
            TlbOutcome::HitL1 { pfn: Pfn(99), .. }
        ));
    }

    #[test]
    fn reinsert_after_a_shootdown_keeps_the_free_way() {
        // One 3-way set everywhere. Re-inserting B must update B's own
        // way, not fill the way A's shootdown freed, so Y takes that way
        // and X survives.
        let cfg = TlbConfig {
            l1_small: TlbGeometry::new(3, 3),
            l1_huge: TlbGeometry::new(3, 3),
            l2: TlbGeometry::new(3, 3),
            l2_hit_ns: 7,
        };
        let mut tlb = Tlb::new(cfg);
        for vpn in [1, 2, 3] {
            tlb.insert(Vpn(vpn), Pfn(vpn * 10), PageSize::Small4K, V0);
        }
        tlb.shootdown(Vpn(1), PageSize::Small4K, V0);
        tlb.insert(Vpn(3), Pfn(30), PageSize::Small4K, V0);
        tlb.insert(Vpn(4), Pfn(40), PageSize::Small4K, V0);
        assert!(matches!(
            tlb.lookup(Vpn(2), V0),
            TlbOutcome::HitL1 { pfn: Pfn(20), .. }
        ));
    }

    #[test]
    fn miss_ratio() {
        let mut tlb = Tlb::default();
        tlb.lookup(Vpn(1), V0);
        tlb.insert(Vpn(1), Pfn(1), PageSize::Small4K, V0);
        tlb.lookup(Vpn(1), V0);
        assert!((tlb.stats().miss_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(tlb.stats().lookups(), 2);
    }

    #[test]
    #[should_panic(expected = "bad TLB geometry")]
    fn bad_geometry_panics() {
        TlbGeometry::new(10, 3);
    }
}

thermo_util::json_newtype!(Vpid);
thermo_util::json_struct!(TlbGeometry { entries, ways });
thermo_util::json_struct!(TlbConfig {
    l1_small,
    l1_huge,
    l2,
    l2_hit_ns
});
