//! Last-level cache model.
//!
//! A physically-indexed, set-associative, true-LRU cache over 64-byte
//! lines. Thermostat cares about the LLC for one specific reason (§3.3):
//! the TLB-miss counts BadgerTrap gathers are a *proxy* for LLC misses, and
//! the proxy is accurate precisely for cold pages ("nearly all accesses
//! incur both TLB and cache misses as there is no temporal locality").
//! Modelling the LLC lets the harnesses verify that claim (and lets the
//! Figure 2 study measure true memory access rates).
//!
//! Each set is one 64-byte row of sixteen `u32` tags, aligned to a
//! host cache line, plus one `u64` recency order: nibble `k` names the way
//! at recency rank `k`, rank 0 the most recent. A probe compares the rank-0
//! way first, then the whole row without branches; a hit or fill moves its
//! way to rank 0. The victim is the lowest invalid way, else the way at
//! rank `ways - 1`. That is exactly true LRU: every access moves one way to
//! rank 0, so valid ways sit in the order of their last use, and the
//! deepest one is the least recent whenever no way is invalid. Where an
//! invalid way sits never matters, because an invalid way always wins.

use thermo_mem::{Pfn, CACHE_LINE_BYTES, HUGE_PAGE_BYTES};

/// Widest associativity the set rows hold.
const MAX_WAYS: usize = 16;

/// Geometry and latency of the LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcConfig {
    /// Capacity in bytes.
    pub size_bytes: u64,
    /// Associativity, at most 16.
    pub ways: usize,
    /// Hit latency, ns.
    pub hit_ns: u64,
}

impl LlcConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        let lines = self.size_bytes as usize / CACHE_LINE_BYTES;
        assert!(
            self.ways <= MAX_WAYS && lines.is_multiple_of(self.ways) && lines > 0,
            "bad LLC geometry"
        );
        lines / self.ways
    }
}

impl Default for LlcConfig {
    /// 4 MiB, 16-way: the paper's 45MB LLC scaled down in proportion to the
    /// scaled application footprints (DESIGN.md §1).
    fn default() -> Self {
        Self {
            size_bytes: 4 << 20,
            ways: 16,
            hit_ns: 30,
        }
    }
}

// A tag is `line << 1 | valid`, so line numbers must fit 31 bits (128GB of
// physical memory at 64B lines, far beyond any simulated machine),
// asserted at access. Ways past the geometry's `ways` hold 0, which no
// packed line equals.
const LINE_VALID: u32 = 1;

#[inline]
fn pack_line(line: u64) -> u32 {
    assert!(line < 1 << 31, "line number overflows tag");
    ((line as u32) << 1) | LINE_VALID
}

// A set's order word is stored XOR the identity order (nibble `k` holds
// way `k`), so the zeroed store every set starts from is a fresh set.
const IDENTITY: u64 = 0xFEDC_BA98_7654_3210;
const NIBBLES: u64 = 0x1111_1111_1111_1111;

/// Moves `way` to rank 0 of the recency order `order` and shifts every
/// way ranked above its old rank down by one.
#[inline]
fn promote(order: u64, way: usize) -> u64 {
    // The nibble holding `way` is the one zero nibble of `x`, and the
    // lowest nibble the borrow trick flags is always a true zero.
    let x = order ^ (NIBBLES * way as u64);
    let zero = x.wrapping_sub(NIBBLES) & !x & (NIBBLES << 3);
    let shift = zero.trailing_zeros() & !3;
    let newer = order & ((1 << shift) - 1);
    let older = order & ((!0 << shift) << 4);
    older | (newer << 4) | way as u64
}

// Deferred bulk invalidation works on 2MB-aligned physical regions of
// `REGION_LINES` lines. A 31-bit line number names one of `MAX_REGIONS`
// regions; no tag can hold a line of a region past those.
const REGION_SHIFT: u32 = (HUGE_PAGE_BYTES / CACHE_LINE_BYTES).trailing_zeros();
const REGION_LINES: u64 = 1 << REGION_SHIFT;
const MAX_REGIONS: usize = 1 << (31 - REGION_SHIFT);

/// The last-level cache.
pub struct Llc {
    config: LlcConfig,
    sets: usize,
    /// `sets - 1` when `sets` is a power of two (every shipped geometry);
    /// selects the mask fast path over the division in set indexing.
    mask: usize,
    pow2: bool,
    /// Bit `w` set for every way `w < ways`.
    ways_mask: u32,
    /// Tag rows: set `s` occupies `tags[skip + s*MAX_WAYS..][..MAX_WAYS]`.
    /// The store has one spare row so that `skip` can start every row on a
    /// 64-byte host boundary; it is allocated zeroed, so untouched rows
    /// cost no host memory.
    tags: Vec<u32>,
    skip: usize,
    /// Per-set recency order, stored XOR [`IDENTITY`].
    order: Vec<u64>,
    /// Bitmap of 2MB regions whose lines [`invalidate_frames`] dropped but
    /// the tag store still holds valid, as long as the highest region
    /// marked needs; empty when nothing is pending. The next [`access`]
    /// clears them all in one sweep before it reads a tag.
    ///
    /// [`invalidate_frames`]: Self::invalidate_frames
    /// [`access`]: Self::access
    pending: Vec<u64>,
}

impl std::fmt::Debug for Llc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Llc")
            .field("config", &self.config)
            .field("pending", &!self.pending.is_empty())
            .finish()
    }
}

impl Llc {
    /// Creates an LLC with the given geometry.
    pub fn new(config: LlcConfig) -> Self {
        let sets = config.sets();
        let tags = vec![0u32; (sets + 1) * MAX_WAYS];
        let skip = (tags.as_ptr() as usize).wrapping_neg() % 64 / size_of::<u32>();
        Self {
            config,
            sets,
            mask: sets.wrapping_sub(1),
            pow2: sets.is_power_of_two(),
            ways_mask: (1 << config.ways) - 1,
            tags,
            skip,
            order: vec![0; sets],
            pending: Vec::new(),
        }
    }

    #[inline]
    fn set_index(&self, line: u64) -> usize {
        if self.pow2 {
            (line as usize) & self.mask
        } else {
            (line as usize) % self.sets
        }
    }

    #[inline]
    fn row_mut(&mut self, set: usize) -> &mut [u32; MAX_WAYS] {
        let base = self.skip + set * MAX_WAYS;
        (&mut self.tags[base..base + MAX_WAYS])
            .try_into()
            .expect("a row is MAX_WAYS tags")
    }

    /// Configuration in use.
    pub fn config(&self) -> &LlcConfig {
        &self.config
    }

    /// Accesses the cache line containing physical line number `line`
    /// (a physical address divided by 64). Returns `true` on hit; on miss
    /// the line is filled, evicting the set's LRU victim. Pending region
    /// invalidations are applied first.
    pub fn access(&mut self, line: u64) -> bool {
        if !self.pending.is_empty() {
            self.sweep_pending();
        }
        let want = pack_line(line);
        let set = self.set_index(line);
        let order = self.order[set] ^ IDENTITY;
        let deepest = 4 * (self.config.ways as u32 - 1);
        let ways_mask = self.ways_mask;
        let row = self.row_mut(set);
        // A repeat hit on the most recent way needs no reordering.
        if row[(order & 0xF) as usize] == want {
            return true;
        }
        let mut hits = 0u32;
        let mut free = 0u32;
        for (i, &tag) in row.iter().enumerate() {
            hits |= ((tag == want) as u32) << i;
            free |= ((tag & LINE_VALID == 0) as u32) << i;
        }
        // Tags are unique within a set, so at most one way hits.
        let hit = hits != 0;
        let way = if hit {
            hits.trailing_zeros() as usize
        } else {
            let free = free & ways_mask;
            let victim = if free != 0 {
                free.trailing_zeros() as usize
            } else {
                (order >> deepest & 0xF) as usize
            };
            row[victim] = want;
            victim
        };
        self.order[set] = promote(order, way) ^ IDENTITY;
        hit
    }

    /// Drops every valid line of every pending region in one pass over the
    /// tag store, then empties the bitmap. Clearing a valid bit leaves the
    /// recency order alone, and only [`access`](Self::access) reads valid
    /// bits, so running this at the next access is indistinguishable from
    /// running it at each [`invalidate_frames`](Self::invalidate_frames).
    #[cold]
    fn sweep_pending(&mut self) {
        let pending = &self.pending;
        // The alignment padding around the rows is 0, never valid.
        for tag in &mut self.tags {
            let region = (*tag >> (1 + REGION_SHIFT)) as usize;
            if *tag & LINE_VALID != 0
                && pending
                    .get(region / 64)
                    .is_some_and(|bits| bits >> (region % 64) & 1 != 0)
            {
                *tag &= !LINE_VALID;
            }
        }
        self.pending.clear();
    }

    /// Invalidates every line belonging to the 4KB frame `pfn` (used when a
    /// frame is migrated or freed so a reused frame cannot produce phantom
    /// hits).
    pub fn invalidate_frame(&mut self, pfn: Pfn) {
        let first_line = pfn.addr().0 / CACHE_LINE_BYTES as u64;
        let lines_per_page = 4096 / CACHE_LINE_BYTES as u64;
        for line in first_line..first_line + lines_per_page {
            let want = pack_line(line);
            let set = self.set_index(line);
            for tag in self.row_mut(set) {
                if *tag == want {
                    *tag &= !LINE_VALID;
                }
            }
        }
    }

    /// Invalidates every line of the `n_frames` contiguous 4KB frames
    /// starting at `first_pfn` — the bulk form of `n_frames`
    /// [`invalidate_frame`](Self::invalidate_frame) calls: every later
    /// [`access`](Self::access) sees exactly the same lines gone. A range
    /// with fewer lines than the cache has sets takes those per-frame
    /// probes. A longer range made of whole 2MB-aligned regions (every
    /// huge frame) is only marked pending, and the next access drops all
    /// pending regions in one sweep of the tag store, so a plan that
    /// migrates many huge pages pays one sweep. Any other long range is
    /// swept at once, with one range compare per tag.
    pub fn invalidate_frames(&mut self, first_pfn: Pfn, n_frames: u64) {
        let lines_per_page = 4096 / CACHE_LINE_BYTES as u64;
        let first_line = first_pfn.addr().0 / CACHE_LINE_BYTES as u64;
        let n_lines = n_frames * lines_per_page;
        if n_lines < self.sets as u64 {
            for f in 0..n_frames {
                self.invalidate_frame(Pfn(first_pfn.0 + f));
            }
            return;
        }
        if first_line.is_multiple_of(REGION_LINES) && n_lines.is_multiple_of(REGION_LINES) {
            // Regions past the last one a tag can name hold no lines.
            let first = (first_line >> REGION_SHIFT) as usize;
            let end = (first + (n_lines >> REGION_SHIFT) as usize).min(MAX_REGIONS);
            if self.pending.len() < end.div_ceil(64) {
                self.pending.resize(end.div_ceil(64), 0);
            }
            for r in first..end {
                self.pending[r / 64] |= 1 << (r % 64);
            }
            return;
        }
        for tag in &mut self.tags {
            if *tag & LINE_VALID != 0 && u64::from(*tag >> 1).wrapping_sub(first_line) < n_lines {
                *tag &= !LINE_VALID;
            }
        }
    }

    /// Hit latency, ns.
    pub fn hit_ns(&self) -> u64 {
        self.config.hit_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Llc {
        // 2 sets x 2 ways x 64B = 256B cache.
        Llc::new(LlcConfig {
            size_bytes: 256,
            ways: 2,
            hit_ns: 10,
        })
    }

    /// The tag store and recency orders as the next access sees them:
    /// pending regions swept.
    fn settled(c: &mut Llc) -> (Vec<u32>, Vec<u64>) {
        if !c.pending.is_empty() {
            c.sweep_pending();
        }
        state(c)
    }

    fn state(c: &Llc) -> (Vec<u32>, Vec<u64>) {
        (store(c).to_vec(), c.order.clone())
    }

    /// The rows of every set, in set order.
    fn store(c: &Llc) -> &[u32] {
        &c.tags[c.skip..c.skip + c.sets * MAX_WAYS]
    }

    /// Whether a valid copy of `line` sits in the tag store right now.
    fn resident(c: &Llc, line: u64) -> bool {
        let want = pack_line(line);
        store(c).contains(&want)
    }

    /// The recency order that lists `ranks` most recent first, then the
    /// other ways in way order.
    fn order_of(ranks: &[usize]) -> u64 {
        let mut order = IDENTITY;
        for &way in ranks.iter().rev() {
            order = promote(order, way);
        }
        order
    }

    #[test]
    fn promote_moves_one_way_to_the_front() {
        let ranks = |order: u64| -> Vec<u64> { (0..16).map(|k| order >> (4 * k) & 0xF).collect() };
        // The most recent way stays put.
        assert_eq!(promote(IDENTITY, 0), IDENTITY);
        // Ways above the promoted one shift down a rank, those below stay.
        let order = promote(IDENTITY, 5);
        assert_eq!(
            ranks(order),
            [5, 0, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]
        );
        let deepest = promote(order, 15);
        assert_eq!(
            ranks(deepest),
            [15, 5, 0, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14]
        );
        // Against a list model over many promotions: the order stays a
        // permutation with the promoted way first.
        let mut model: Vec<u64> = (0..16).collect();
        let mut order = IDENTITY;
        for i in 0..500u64 {
            let way = (i * 7 + i / 3) % 16;
            order = promote(order, way as usize);
            model.retain(|&w| w != way);
            model.insert(0, way);
            assert_eq!(ranks(order), model, "after promoting way {way}");
        }
        assert_eq!(order_of(&[3, 1]), promote(promote(IDENTITY, 1), 3));
    }

    #[test]
    fn a_zeroed_order_word_is_a_fresh_set() {
        let mut c = tiny();
        assert!(c.order.iter().all(|&o| o == 0));
        // Fills take the lowest invalid way; after filling way 0 then way
        // 1 of set 0, way 1 is most recent.
        c.access(0);
        c.access(2);
        assert_eq!(c.order[0] ^ IDENTITY, order_of(&[1, 0]));
        assert_eq!(c.order[1], 0, "set 1 untouched");
    }

    #[test]
    fn rows_start_on_a_host_cache_line() {
        let c = Llc::new(LlcConfig::default());
        assert_eq!(store(&c).as_ptr() as usize % 64, 0);
        assert!(store(&c).iter().all(|&t| t == 0));
    }

    #[test]
    fn ways_past_the_geometry_are_never_used() {
        // 3 ways: fills must stay in ways 0..3 of each row.
        let mut c = Llc::new(LlcConfig {
            size_bytes: 4 * 3 * 64,
            ways: 3,
            hit_ns: 1,
        });
        for l in 0..400u64 {
            c.access(l * 5 % 97);
        }
        for row in store(&c).chunks(MAX_WAYS) {
            assert!(row[3..].iter().all(|&t| t == 0));
        }
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(0));
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (2 sets).
        c.access(0);
        c.access(2);
        c.access(0); // touch 0; 2 is now LRU
        c.access(4); // evicts 2
        assert!(c.access(0), "0 must survive");
        assert!(!c.access(2), "2 must have been evicted");
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        c.access(0); // set 0
        c.access(1); // set 1
        c.access(2); // set 0
        c.access(3); // set 1
        assert!(c.access(0) && c.access(1) && c.access(2) && c.access(3));
    }

    #[test]
    fn invalidate_frame_drops_lines() {
        let mut c = Llc::new(LlcConfig {
            size_bytes: 1 << 20,
            ways: 16,
            hit_ns: 10,
        });
        // Touch all 64 lines of frame 5 and one line of frame 6.
        let base = Pfn(5).addr().0 / 64;
        for l in base..base + 65 {
            c.access(l);
        }
        c.invalidate_frame(Pfn(5));
        assert!((base..base + 64).all(|l| !resident(&c, l)));
        assert!(resident(&c, base + 64), "frame 6 is untouched");
        for l in base..base + 64 {
            assert!(!c.access(l), "line {l} must miss after invalidation");
        }
        assert!(c.access(base + 64));
    }

    #[test]
    fn invalidate_frames_matches_per_frame_calls() {
        let build = || {
            let mut c = Llc::new(LlcConfig {
                size_bytes: 64 << 10, // 64 sets x 16 ways
                ways: 16,
                hit_ns: 10,
            });
            // Touch lines from frames 3..8 plus unrelated lines that must
            // survive, with enough pressure to exercise eviction too.
            for f in 3u64..8 {
                for l in (f * 64..f * 64 + 64).step_by(3) {
                    c.access(l);
                }
            }
            for l in 100_000..100_200u64 {
                c.access(l);
            }
            c
        };
        let mut bulk = build();
        let mut per = build();
        // 5 frames x 64 lines = 320 lines >= 64 sets, not a whole 2MB
        // region: takes the immediate sweep.
        bulk.invalidate_frames(Pfn(3), 5);
        assert!(
            bulk.pending.is_empty(),
            "an unaligned range is never deferred"
        );
        for f in 3u64..8 {
            per.invalidate_frame(Pfn(f));
        }
        assert_eq!(state(&bulk), state(&per), "tag stores must match exactly");
        for l in (0..1000u64).chain(100_000..100_300) {
            assert_eq!(bulk.access(l), per.access(l), "line {l}");
        }
    }

    #[test]
    fn invalidate_frames_matches_per_frame_calls_for_a_huge_page() {
        // The fleet geometry: a 256KB LLC (256 sets x 16 ways) against a
        // 2MB page's 512 frames, the size migrate_page and fabric commits
        // invalidate in bulk.
        let build = || {
            let mut c = Llc::new(LlcConfig {
                size_bytes: 256 << 10,
                ways: 16,
                hit_ns: 10,
            });
            // Lines of the page, of its neighbours on both sides, and an
            // unrelated range, more than the cache holds so some evict.
            for l in (512 * 64 - 300..2 * 512 * 64 + 300).step_by(7) {
                c.access(l);
            }
            for l in 1_000_000..1_001_000u64 {
                c.access(l);
            }
            c
        };
        let mut bulk = build();
        let mut per = build();
        let page = 512 * 64..2 * 512 * 64;
        assert!(page.clone().any(|l| resident(&bulk, l)), "page is resident");
        bulk.invalidate_frames(Pfn(512), 512);
        assert!(!bulk.pending.is_empty(), "a whole 2MB region is deferred");
        for f in 512u64..1024 {
            per.invalidate_frame(Pfn(f));
        }
        assert_eq!(
            settled(&mut bulk),
            state(&per),
            "tag stores must match exactly"
        );
        assert!(!page.clone().any(|l| resident(&bulk, l)));
        for l in (512 * 64 - 400..2 * 512 * 64 + 400).step_by(5) {
            assert_eq!(bulk.access(l), per.access(l), "line {l}");
        }
    }

    #[test]
    fn deferred_regions_sweep_once_before_the_next_access() {
        let build = || {
            let mut c = Llc::new(LlcConfig {
                size_bytes: 256 << 10,
                ways: 16,
                hit_ns: 10,
            });
            for l in (0..4 * 512 * 64u64).step_by(11) {
                c.access(l);
            }
            c
        };
        let mut bulk = build();
        let mut per = build();
        // Two separate huge frames and one two-frame range, then a
        // per-frame invalidation inside a pending region: all commute.
        bulk.invalidate_frames(Pfn(0), 512);
        bulk.invalidate_frames(Pfn(1024), 1024);
        bulk.invalidate_frame(Pfn(3));
        for f in (0u64..512).chain(1024..2048) {
            per.invalidate_frame(Pfn(f));
        }
        let line = 512 * 64 + 5; // frame 512's region stays cached
        assert_eq!(bulk.access(line), per.access(line));
        assert!(
            bulk.pending.is_empty(),
            "the access swept every pending region"
        );
        assert_eq!(state(&bulk), state(&per));
    }

    #[test]
    fn invalidate_frames_small_range_falls_back() {
        let mut c = Llc::new(LlcConfig {
            size_bytes: 1 << 20,
            ways: 16,
            hit_ns: 10,
        });
        let base = Pfn(5).addr().0 / 64;
        for l in base..base + 64 {
            c.access(l);
        }
        // 64 lines < 1024 sets: per-frame path, dropped at once.
        c.invalidate_frames(Pfn(5), 1);
        assert!(c.pending.is_empty());
        assert!((base..base + 64).all(|l| !resident(&c, l)));
        assert!(!c.access(base));
    }

    #[test]
    #[should_panic(expected = "bad LLC geometry")]
    fn bad_geometry_panics() {
        Llc::new(LlcConfig {
            size_bytes: 100,
            ways: 3,
            hit_ns: 1,
        });
    }

    #[test]
    #[should_panic(expected = "bad LLC geometry")]
    fn more_ways_than_a_row_holds_panics() {
        Llc::new(LlcConfig {
            size_bytes: 32 * 64,
            ways: 32,
            hit_ns: 1,
        });
    }

    #[test]
    fn default_geometry_valid() {
        let c = LlcConfig::default();
        assert!(c.sets() > 0);
    }
}

thermo_util::json_struct!(LlcConfig {
    size_bytes,
    ways,
    hit_ns
});
