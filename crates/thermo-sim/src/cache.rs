//! Last-level cache model.
//!
//! A physically-indexed, set-associative, true-LRU cache over 64-byte
//! lines. Thermostat cares about the LLC for one specific reason (§3.3):
//! the TLB-miss counts BadgerTrap gathers are a *proxy* for LLC misses, and
//! the proxy is accurate precisely for cold pages ("nearly all accesses
//! incur both TLB and cache misses as there is no temporal locality").
//! Modelling the LLC lets the harnesses verify that claim (and lets the
//! Figure 2 study measure true memory access rates).

use thermo_mem::{Pfn, CACHE_LINE_BYTES};

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

/// Hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LlcStats {
    /// Hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
    /// Lines invalidated by frame invalidations.
    pub invalidations: u64,
}

impl LlcStats {
    /// Miss ratio in `[0,1]`; 0 with no accesses.
    pub fn miss_ratio(&self) -> f64 {
        let n = self.hits + self.misses;
        if n == 0 {
            0.0
        } else {
            self.misses as f64 / n as f64
        }
    }
}

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
    stats: LlcStats,
}

impl std::fmt::Debug for Llc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Llc")
            .field("config", &self.config)
            .field("stats", &self.stats)
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
            stats: LlcStats::default(),
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
    /// the line is filled, evicting the set's LRU victim.
    pub fn access(&mut self, line: u64) -> bool {
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
            self.stats.hits += 1;
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
                self.stats.hits += 1;
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
        self.stats.misses += 1;
        false
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
    /// hits). Returns the number of lines dropped.
    pub fn invalidate_frame(&mut self, pfn: Pfn) -> u64 {
        let first_line = pfn.addr().0 / CACHE_LINE_BYTES as u64;
        let lines_per_page = 4096 / CACHE_LINE_BYTES as u64;
        let mut dropped = 0;
        for line in first_line..first_line + lines_per_page {
            let want = pack_line(line);
            let ways = self.config.ways;
            let base = self.set_index(line) * ways;
            for w in &mut self.data[base..base + ways] {
                if *w >> STAMP_BITS == want {
                    *w &= !(LINE_VALID << STAMP_BITS);
                    dropped += 1;
                }
            }
        }
        self.stats.invalidations += dropped;
        dropped
    }

    /// Invalidates every line of the `n_frames` contiguous 4KB frames
    /// starting at `first_pfn` — the bulk form of `n_frames`
    /// [`invalidate_frame`](Self::invalidate_frame) calls, dropping exactly
    /// the same lines and counting them identically. When the line range
    /// covers at least one full pass of the sets (e.g. a 2MB frame against
    /// any shipped geometry) this is a single sequential sweep of the tag
    /// store with one range compare per tag, instead of scattered per-line
    /// probes.
    pub fn invalidate_frames(&mut self, first_pfn: Pfn, n_frames: u64) -> u64 {
        let lines_per_page = 4096 / CACHE_LINE_BYTES as u64;
        let first_line = first_pfn.addr().0 / CACHE_LINE_BYTES as u64;
        let n_lines = n_frames * lines_per_page;
        if n_lines < self.sets as u64 {
            let mut dropped = 0;
            for f in 0..n_frames {
                dropped += self.invalidate_frame(Pfn(first_pfn.0 + f));
            }
            return dropped;
        }
        let mut dropped = 0;
        for w in &mut self.data {
            let tag = *w >> STAMP_BITS;
            if tag & LINE_VALID != 0 && (tag >> 1).wrapping_sub(first_line) < n_lines {
                *w &= !(LINE_VALID << STAMP_BITS);
                dropped += 1;
            }
        }
        self.stats.invalidations += dropped;
        dropped
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> LlcStats {
        self.stats
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

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
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
        // Touch all 64 lines of frame 5.
        let base = Pfn(5).addr().0 / 64;
        for l in base..base + 64 {
            c.access(l);
        }
        let dropped = c.invalidate_frame(Pfn(5));
        assert_eq!(dropped, 64);
        assert!(!c.access(base), "line must miss after invalidation");
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
        // 5 frames x 64 lines = 320 lines >= 64 sets: takes the sweep path.
        let d_bulk = bulk.invalidate_frames(Pfn(3), 5);
        let mut d_per = 0;
        for f in 3u64..8 {
            d_per += per.invalidate_frame(Pfn(f));
        }
        assert_eq!(d_bulk, d_per);
        assert_eq!(bulk.stats(), per.stats());
        assert_eq!(bulk.data, per.data, "tag stores must match exactly");
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
        let d_bulk = bulk.invalidate_frames(Pfn(512), 512);
        let mut d_per = 0;
        for f in 512u64..1024 {
            d_per += per.invalidate_frame(Pfn(f));
        }
        assert!(d_bulk > 0, "the page had resident lines");
        assert_eq!(d_bulk, d_per);
        assert_eq!(bulk.stats(), per.stats());
        assert_eq!(bulk.data, per.data, "tag stores must match exactly");
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
        // 64 lines < 1024 sets: per-frame path, same observable result.
        assert_eq!(c.invalidate_frames(Pfn(5), 1), 64);
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
        assert_eq!(plain.stats(), renormed.stats());
    }

    #[test]
    fn miss_ratio_math() {
        let mut c = tiny();
        c.access(0);
        c.access(0);
        c.access(0);
        assert!((c.stats().miss_ratio() - 1.0 / 3.0).abs() < 1e-12);
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
