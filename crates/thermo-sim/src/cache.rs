//! Last-level cache model.
//!
//! A physically-indexed, set-associative, true-LRU cache over 64-byte
//! lines. Thermostat cares about the LLC for one specific reason (§3.3):
//! the TLB-miss counts BadgerTrap gathers are a *proxy* for LLC misses, and
//! the proxy is accurate precisely for cold pages ("nearly all accesses
//! incur both TLB and cache misses as there is no temporal locality").
//! Modelling the LLC lets the harnesses verify that claim (and lets the
//! Figure 2 study measure true memory access rates).

use thermo_mem::{Pfn, CACHE_LINE_BYTES, HUGE_PAGE_BYTES};

/// Geometry and latency of the LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcConfig {
    /// Capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Hit latency, ns.
    pub hit_ns: u64,
}

impl LlcConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        let lines = self.size_bytes as usize / CACHE_LINE_BYTES;
        assert!(
            lines.is_multiple_of(self.ways) && lines > 0,
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

// Each way is one u64 word: the packed tag (`line << 1 | valid`) in the
// high 32 bits and the LRU stamp in the low 32 — so a set is one short
// dense row, a probe touches half the cache lines of split tag/stamp
// arrays, and a hit restamps the word it just compared. Line numbers must
// fit 31 bits (128GB of physical memory at 64B lines — far beyond any
// simulated machine), asserted at access. Stamps saturate at `u32::MAX`
// ticks; the (practically unreachable) wrap point renormalises each set's
// stamps to their within-set rank, which preserves LRU order exactly.
const LINE_VALID: u64 = 1;
const STAMP_BITS: u32 = 32;
const STAMP_MASK: u64 = (1 << STAMP_BITS) - 1;

#[inline]
fn pack_line(line: u64) -> u64 {
    assert!(line < 1 << 31, "line number overflows tag");
    (line << 1) | LINE_VALID
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
    /// Packed rows: set `s` occupies `data[s*ways .. (s+1)*ways]`, one
    /// `tag << 32 | stamp` word per way.
    data: Vec<u64>,
    /// Per-set most-recently-hit/filled way — pure acceleration state: a
    /// probe checks it first and repeat hits cost one compare instead of
    /// an average half-row scan. Never consulted for eviction, so hit/miss
    /// outcomes and victim choices are identical with or without it.
    mru: Vec<u32>,
    tick: u64,
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
        Self {
            config,
            sets,
            mask: sets.wrapping_sub(1),
            pow2: sets.is_power_of_two(),
            data: vec![0; sets * config.ways],
            mru: vec![0; sets],
            tick: 0,
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
        if self.tick >= STAMP_MASK {
            self.renormalize();
        }
        self.tick += 1;
        let tick = self.tick;
        let want = pack_line(line);
        let ways = self.config.ways;
        let set = self.set_index(line);
        let base = set * ways;
        let row = &mut self.data[base..base + ways];
        // MRU short-circuit: repeat hits to a set's hottest line resolve
        // on the first compare. Tags are unique within a set, so finding
        // the tag anywhere is the same hit.
        let h = self.mru[set] as usize;
        if h < ways && row[h] >> STAMP_BITS == want {
            row[h] = (want << STAMP_BITS) | tick;
            return true;
        }
        // One pass: probe for the tag while tracking the would-be victim —
        // the first invalid way, else the set's LRU way (first-minimum wins
        // on ties, matching the split-array layout). Tags are unique within
        // a set, so early-returning on the hit loses nothing.
        let mut invalid = usize::MAX;
        let mut victim = 0;
        let mut best = u64::MAX;
        for i in 0..ways {
            let w = row[i];
            let tag = w >> STAMP_BITS;
            if tag == want {
                row[i] = (want << STAMP_BITS) | tick;
                self.mru[set] = i as u32;
                return true;
            }
            if tag & LINE_VALID == 0 {
                invalid = invalid.min(i);
            } else if w & STAMP_MASK < best {
                best = w & STAMP_MASK;
                victim = i;
            }
        }
        let victim = if invalid != usize::MAX {
            invalid
        } else {
            victim
        };
        row[victim] = (want << STAMP_BITS) | tick;
        self.mru[set] = victim as u32;
        false
    }

    /// Drops every valid line of every pending region in one pass over the
    /// tag store, then empties the bitmap. Clearing a valid bit touches no
    /// stamp and no MRU hint, and only [`access`](Self::access) reads valid
    /// bits, so running this at the next access is indistinguishable from
    /// running it at each [`invalidate_frames`](Self::invalidate_frames).
    #[cold]
    fn sweep_pending(&mut self) {
        let pending = &self.pending;
        for w in &mut self.data {
            let tag = *w >> STAMP_BITS;
            let region = (tag >> (1 + REGION_SHIFT)) as usize;
            if tag & LINE_VALID != 0
                && pending
                    .get(region / 64)
                    .is_some_and(|bits| bits >> (region % 64) & 1 != 0)
            {
                *w &= !(LINE_VALID << STAMP_BITS);
            }
        }
        self.pending.clear();
    }

    /// Rewrites every set's LRU stamps to their within-set rank so the
    /// global tick can restart at `ways`. Relative stamp order — the only
    /// thing eviction reads — is preserved exactly, so the cache behaves
    /// identically to one with unbounded stamps. Runs once per `u32::MAX`
    /// accesses, i.e. effectively never.
    #[cold]
    fn renormalize(&mut self) {
        let ways = self.config.ways;
        let mut ranks = vec![0u64; ways];
        for s in 0..self.sets {
            let row = &mut self.data[s * ways..(s + 1) * ways];
            for i in 0..ways {
                let si = row[i] & STAMP_MASK;
                let mut rank = 0u64;
                for (j, w) in row.iter().enumerate() {
                    let sj = w & STAMP_MASK;
                    if sj < si || (sj == si && j < i) {
                        rank += 1;
                    }
                }
                ranks[i] = rank;
            }
            for (w, r) in row.iter_mut().zip(&ranks) {
                *w = (*w & !STAMP_MASK) | r;
            }
        }
        self.tick = ways as u64;
    }

    /// Invalidates every line belonging to the 4KB frame `pfn` (used when a
    /// frame is migrated or freed so a reused frame cannot produce phantom
    /// hits).
    pub fn invalidate_frame(&mut self, pfn: Pfn) {
        let first_line = pfn.addr().0 / CACHE_LINE_BYTES as u64;
        let lines_per_page = 4096 / CACHE_LINE_BYTES as u64;
        for line in first_line..first_line + lines_per_page {
            let want = pack_line(line);
            let ways = self.config.ways;
            let base = self.set_index(line) * ways;
            for w in &mut self.data[base..base + ways] {
                if *w >> STAMP_BITS == want {
                    *w &= !(LINE_VALID << STAMP_BITS);
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
        for w in &mut self.data {
            let tag = *w >> STAMP_BITS;
            if tag & LINE_VALID != 0 && (tag >> 1).wrapping_sub(first_line) < n_lines {
                *w &= !(LINE_VALID << STAMP_BITS);
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

    /// The tag store as the next access sees it: pending regions swept.
    fn settled(c: &mut Llc) -> &[u64] {
        if !c.pending.is_empty() {
            c.sweep_pending();
        }
        &c.data
    }

    /// Whether a valid copy of `line` sits in the tag store right now.
    fn resident(c: &Llc, line: u64) -> bool {
        let want = pack_line(line);
        c.data.iter().any(|w| w >> STAMP_BITS == want)
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
        assert_eq!(bulk.data, per.data, "tag stores must match exactly");
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
            per.data,
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
        assert_eq!(bulk.data, per.data);
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
    fn renormalize_preserves_lru_behaviour() {
        // Stamp renormalisation must leave eviction decisions untouched:
        // feed two identically-warmed caches the same tail of accesses,
        // with one renormalised in between, and compare every outcome.
        let build = || {
            let mut c = Llc::new(LlcConfig {
                size_bytes: 8 << 10, // 8 sets x 16 ways
                ways: 16,
                hit_ns: 10,
            });
            for l in 0..1000u64 {
                c.access(l % 300);
            }
            c
        };
        let mut plain = build();
        let mut renormed = build();
        renormed.renormalize();
        assert!(renormed.tick < plain.tick, "renorm must rewind the tick");
        for l in 0..2000u64 {
            let line = (l * 7) % 400;
            assert_eq!(plain.access(line), renormed.access(line), "line {line}");
        }
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
