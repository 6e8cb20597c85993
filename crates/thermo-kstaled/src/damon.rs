//! A DAMON-style adaptive region monitor and tiering scheme.
//!
//! Thermostat predates and inspired the DAMON-era tiering work that later
//! landed in Linux. This module implements that design point as a third
//! baseline: instead of per-page poisoning, DAMON tracks *regions* —
//! address ranges assumed homogeneous — by sampling one page per region
//! per sampling interval and counting A-bit hits; regions are split and
//! merged adaptively so the region set tracks the workload's structure at
//! bounded overhead. A DAMOS-like scheme then demotes regions that stay
//! cold for several aggregation windows and promotes slow regions that
//! show accesses again.
//!
//! Comparing this against Thermostat isolates the trade-off the paper's
//! design makes: DAMON's region granularity is cheap and huge-page
//! friendly, but its A-bit samples estimate access *frequency of the
//! sampled page*, not the region's aggregate access *rate* — so, like all
//! A-bit schemes, it cannot bound the slowdown of a placement decision.

use thermo_mem::{PageSize, Tier, Vpn, PAGES_PER_HUGE};
use thermo_sim::{Engine, OpOutcome, PlanOp, PolicyHook, PolicyPlan};
use thermo_util::rng::SeedableRng;
use thermo_util::rng::SmallRng;

/// Configuration of the DAMON-style monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DamonConfig {
    /// Sampling interval: one A-bit probe per region per interval.
    pub sample_interval_ns: u64,
    /// Samples per aggregation window (Linux default: aggregation =
    /// 20 samples).
    pub samples_per_aggregation: u32,
    /// Bounds on the adaptive region count.
    pub min_regions: usize,
    /// Upper bound on regions (splitting stops here).
    pub max_regions: usize,
    /// A region with zero observed accesses for this many consecutive
    /// aggregation windows is demoted.
    pub cold_age_windows: u32,
    /// RNG seed for sampling decisions.
    pub seed: u64,
}

impl Default for DamonConfig {
    fn default() -> Self {
        Self {
            sample_interval_ns: 100_000_000,
            samples_per_aggregation: 20,
            min_regions: 10,
            max_regions: 200,
            cold_age_windows: 3,
            seed: 0xda30,
        }
    }
}

/// One monitored region: `[start, start + n_pages)` in 4KB page units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First 4KB page.
    pub start: Vpn,
    /// Length in 4KB pages.
    pub n_pages: u64,
    /// A-bit hits in the current aggregation window.
    pub nr_accesses: u32,
    /// Consecutive aggregation windows with zero accesses.
    pub age: u32,
}

impl Region {
    fn huge_aligned_range(&self) -> (u64, u64) {
        // Whole huge pages covered by this region.
        let first = self.start.0.div_ceil(PAGES_PER_HUGE as u64);
        let last = (self.start.0 + self.n_pages) / PAGES_PER_HUGE as u64;
        (first, last)
    }
}

/// Statistics for the DAMON baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DamonStats {
    /// Sampling passes performed.
    pub samples: u64,
    /// Aggregation windows completed.
    pub aggregations: u64,
    /// Region splits performed.
    pub splits: u64,
    /// Region merges performed.
    pub merges: u64,
    /// Huge pages demoted by the cold scheme.
    pub demotions: u64,
    /// Huge pages promoted after renewed access.
    pub promotions: u64,
}

/// The DAMON-style monitor + tiering scheme.
#[derive(Debug)]
pub struct Damon {
    config: DamonConfig,
    next_due_ns: u64,
    regions: Vec<Region>,
    samples_in_window: u32,
    rng: SmallRng,
    stats: DamonStats,
    initialized: bool,
}

impl Damon {
    /// Creates the monitor; regions are built from the VMAs on first tick.
    pub fn new(config: DamonConfig) -> Self {
        Self {
            next_due_ns: config.sample_interval_ns,
            rng: SmallRng::seed_from_u64(config.seed),
            config,
            regions: Vec::new(),
            samples_in_window: 0,
            stats: DamonStats::default(),
            initialized: false,
        }
    }

    /// [`Damon::new`]; the worker count has no effect, because every
    /// snapshot walks its ranges on the calling thread. Kept only for
    /// perfbench, its last caller.
    pub fn with_scan_workers(config: DamonConfig, _scan_workers: usize) -> Self {
        Self::new(config)
    }

    /// Current region set.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> DamonStats {
        self.stats
    }

    fn init_regions(&mut self, engine: &mut Engine) {
        self.regions = engine
            .vmas()
            .iter()
            .map(|v| Region {
                start: v.start.vpn(),
                n_pages: v.len / 4096,
                nr_accesses: 0,
                age: 0,
            })
            .filter(|r| r.n_pages > 0)
            .collect();
        // Start from a clean slate: load-phase Accessed bits would
        // otherwise read as activity for dozens of windows.
        let ranges: Vec<(Vpn, u64)> = self.regions.iter().map(|r| (r.start, r.n_pages)).collect();
        let view = engine.memory_view(&ranges);
        crate::debug_assert_all_done(engine.apply_plan(&crate::clear_accessed_plan(&view)));
        // Split down to at least min_regions.
        while self.regions.len() < self.config.min_regions {
            if !self.split_largest() {
                break;
            }
        }
        self.initialized = true;
    }

    fn split_largest(&mut self) -> bool {
        // Never split below huge-page granularity: a 2MB leaf has a single
        // Accessed bit, so sub-huge regions would alias each other's
        // samples (the first probe of a pass steals the bit).
        let Some((idx, _)) = self
            .regions
            .iter()
            .enumerate()
            .max_by_key(|(_, r)| r.n_pages)
            .filter(|(_, r)| r.n_pages >= 2 * PAGES_PER_HUGE as u64)
        else {
            return false;
        };
        let r = self.regions[idx];
        let left_pages = (r.n_pages / 2).div_ceil(PAGES_PER_HUGE as u64) * PAGES_PER_HUGE as u64;
        self.regions[idx].n_pages = left_pages;
        self.regions.insert(
            idx + 1,
            Region {
                start: Vpn(r.start.0 + left_pages),
                n_pages: r.n_pages - left_pages,
                nr_accesses: r.nr_accesses,
                age: r.age,
            },
        );
        self.stats.splits += 1;
        true
    }

    /// One sampling pass: probe one random page per region.
    ///
    /// The probes are snapshotted in one [`MemoryView`] pass and cleared
    /// with one plan. Two probes landing in the same leaf keep the old
    /// sequential semantics: only the first observes the Accessed bit.
    fn sample(&mut self, engine: &mut Engine) {
        let ranges: Vec<(Vpn, u64)> = self
            .regions
            .iter()
            .map(|r| {
                let probe =
                    Vpn(r.start.0 + crate::decide::draw_probe_offset(&mut self.rng, r.n_pages));
                (probe, 1)
            })
            .collect();
        let view = engine.memory_view(&ranges);
        let mut cleared: Vec<(Vpn, PageSize)> = Vec::new();
        for (i, r) in self.regions.iter_mut().enumerate() {
            let Some(p) = view.range_pages(i).first() else {
                continue;
            };
            if p.accessed && !cleared.iter().any(|&(b, _)| b == p.base_vpn) {
                r.nr_accesses += 1;
                cleared.push((p.base_vpn, p.size));
            }
        }
        let mut plan = PolicyPlan::new();
        plan.push(PlanOp::ClearAccessed { pages: cleared });
        crate::debug_assert_all_done(engine.apply_plan(&plan));
        self.stats.samples += 1;
    }

    /// Aggregation: age bookkeeping, the cold/promote scheme, then
    /// split/merge adaptation.
    fn aggregate(&mut self, engine: &mut Engine) {
        // 1. Scheme actions on whole huge pages inside each region: decide
        // against the live tier/leaf state (reads are free), then execute
        // one batched plan in region order. Each huge page belongs to at
        // most one region, so the decisions are independent and OOM
        // fallbacks resolve in the same order the sequential scheme used.
        let regions = std::mem::take(&mut self.regions);
        let mut plan = PolicyPlan::new();
        let mut is_demote: Vec<bool> = Vec::new();
        for r in &regions {
            let (first, last) = r.huge_aligned_range();
            if r.nr_accesses == 0 && r.age + 1 >= self.config.cold_age_windows {
                for h in first..last {
                    let vpn = Vpn(h * PAGES_PER_HUGE as u64);
                    if engine.tier_of_vpn(vpn) == Some(Tier::Fast)
                        && engine
                            .page_table()
                            .lookup(vpn)
                            .map(|m| (m.base_vpn, m.size))
                            == Some((vpn, PageSize::Huge2M))
                    {
                        plan.push(PlanOp::DemoteWholeHuge { vpn });
                        is_demote.push(true);
                    }
                }
            } else if r.nr_accesses > 0 {
                for h in first..last {
                    let vpn = Vpn(h * PAGES_PER_HUGE as u64);
                    if engine.tier_of_vpn(vpn) == Some(Tier::Slow)
                        && engine
                            .page_table()
                            .lookup(vpn)
                            .map(|m| (m.base_vpn, m.size))
                            == Some((vpn, PageSize::Huge2M))
                    {
                        plan.push(PlanOp::PromoteHuge { vpn, split: false });
                        is_demote.push(false);
                    }
                }
            }
        }
        let receipt = engine.apply_plan(&plan);
        for (oc, demote) in receipt.outcomes().iter().zip(&is_demote) {
            if *oc == OpOutcome::Done {
                if *demote {
                    self.stats.demotions += 1;
                } else {
                    self.stats.promotions += 1;
                }
            }
        }
        self.regions = regions;

        // 2. Age + reset counters.
        for r in &mut self.regions {
            if r.nr_accesses == 0 {
                r.age += 1;
            } else {
                r.age = 0;
            }
        }

        // 3. Merge adjacent regions with similar access counts.
        let mut merged: Vec<Region> = Vec::with_capacity(self.regions.len());
        let mut merges_done = 0u64;
        for r in self.regions.drain(..) {
            let can_merge = merged.len() > 1
                && merged.last().is_some_and(|last| {
                    last.start.0 + last.n_pages == r.start.0
                        && last.nr_accesses.abs_diff(r.nr_accesses) <= 1
                });
            if can_merge {
                let last = merged.last_mut().expect("nonempty");
                last.n_pages += r.n_pages;
                last.nr_accesses = last.nr_accesses.max(r.nr_accesses);
                last.age = last.age.min(r.age);
                merges_done += 1;
            } else {
                merged.push(r);
            }
        }
        self.stats.merges += merges_done;
        self.regions = merged;

        // 4. Split back up toward the floor of the adaptive range.
        while self.regions.len() < self.config.min_regions {
            if !self.split_largest() {
                break;
            }
        }
        for r in &mut self.regions {
            r.nr_accesses = 0;
        }
        self.stats.aggregations += 1;
    }
}

impl PolicyHook for Damon {
    fn next_due_ns(&self) -> u64 {
        self.next_due_ns
    }

    fn policy_name(&self) -> &str {
        "damon"
    }

    fn tick(&mut self, engine: &mut Engine) {
        if !self.initialized {
            self.init_regions(engine);
        }
        self.sample(engine);
        self.samples_in_window += 1;
        if self.samples_in_window >= self.config.samples_per_aggregation {
            self.samples_in_window = 0;
            self.aggregate(engine);
        }
        self.next_due_ns += self.config.sample_interval_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermo_mem::VirtAddr;
    use thermo_sim::{run_for, Access, SimConfig, Workload};

    struct HalfHot {
        base: VirtAddr,
        n_huge: u64,
        i: u64,
    }

    impl Workload for HalfHot {
        fn name(&self) -> &str {
            "halfhot"
        }

        fn init(&mut self, engine: &mut Engine) {
            self.base = engine.mmap(self.n_huge * (2 << 20), true, true, false, "heap");
            for p in 0..self.n_huge {
                engine.access(self.base + p * (2 << 20), true);
            }
        }

        fn next_op(&mut self, _now: u64, acc: &mut Vec<Access>) -> Option<u64> {
            let page = self.i % (self.n_huge / 2);
            acc.push(Access::read(
                self.base + page * (2 << 20) + (self.i * 64) % (2 << 20),
            ));
            self.i += 1;
            Some(2_000)
        }
    }

    fn engine() -> Engine {
        Engine::new(SimConfig::paper_defaults(256 << 20, 256 << 20))
    }

    #[test]
    fn damon_builds_and_adapts_regions() {
        let mut e = engine();
        let mut w = HalfHot {
            base: VirtAddr(0),
            n_huge: 16,
            i: 0,
        };
        w.init(&mut e);
        let mut d = Damon::new(DamonConfig {
            min_regions: 8,
            ..DamonConfig::default()
        });
        run_for(&mut e, &mut w, &mut d, 8_000_000_000);
        assert!(d.stats().samples > 50);
        assert!(d.stats().aggregations >= 2);
        assert!(d.regions().len() >= 8);
        // Regions always tile mapped space without overlap.
        let mut prev_end = 0;
        for r in d.regions() {
            assert!(r.start.0 >= prev_end, "regions must not overlap");
            prev_end = r.start.0 + r.n_pages;
        }
    }

    #[test]
    fn damon_demotes_the_idle_half_and_keeps_the_hot_half() {
        let mut e = engine();
        let mut w = HalfHot {
            base: VirtAddr(0),
            n_huge: 16,
            i: 0,
        };
        w.init(&mut e);
        let mut d = Damon::new(DamonConfig {
            min_regions: 16,
            ..DamonConfig::default()
        });
        run_for(&mut e, &mut w, &mut d, 20_000_000_000);
        assert!(d.stats().demotions > 0, "idle half must be demoted");
        // The hot half must still be fast.
        for p in 0..8u64 {
            assert_eq!(
                e.tier_of_vpn((w.base + p * (2 << 20)).vpn()),
                Some(Tier::Fast),
                "hot page {p} wrongly demoted"
            );
        }
        let fb = e.footprint_breakdown();
        assert!(fb.cold_fraction() > 0.2, "cold half should be placed");
    }

    #[test]
    fn damon_promotes_on_renewed_access() {
        struct Shift {
            base: VirtAddr,
            n_huge: u64,
            i: u64,
            shift_at: u64,
        }
        impl Workload for Shift {
            fn name(&self) -> &str {
                "shift"
            }
            fn init(&mut self, engine: &mut Engine) {
                self.base = engine.mmap(self.n_huge * (2 << 20), true, true, false, "heap");
                for p in 0..self.n_huge {
                    engine.access(self.base + p * (2 << 20), true);
                }
            }
            fn next_op(&mut self, now: u64, acc: &mut Vec<Access>) -> Option<u64> {
                let page = if now < self.shift_at {
                    0
                } else {
                    self.n_huge - 1
                };
                acc.push(Access::read(
                    self.base + page * (2 << 20) + (self.i * 64) % (2 << 20),
                ));
                self.i += 1;
                Some(2_000)
            }
        }
        let mut e = engine();
        let mut w = Shift {
            base: VirtAddr(0),
            n_huge: 8,
            i: 0,
            shift_at: 12_000_000_000,
        };
        w.init(&mut e);
        let mut d = Damon::new(DamonConfig {
            min_regions: 8,
            ..DamonConfig::default()
        });
        run_for(&mut e, &mut w, &mut d, 24_000_000_000);
        assert!(d.stats().demotions > 0);
        assert!(d.stats().promotions > 0, "renewed access must promote");
        // The new hot page ends up fast again.
        let last = (w.base + (w.n_huge - 1) * (2 << 20)).vpn();
        assert_eq!(e.tier_of_vpn(last), Some(Tier::Fast));
    }
}
