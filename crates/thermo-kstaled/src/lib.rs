//! kstaled-style idle page tracking — the paper's baseline and motivation.
//!
//! Figure 1 of the paper uses an existing Linux mechanism (kstaled, an
//! Accessed-bit scanner) to show how much data sits idle for ≥10s; Figure 2
//! shows why A-bit scanning is *insufficient*: the number of "hot" 4KB
//! regions inside a 2MB page (hot = accessed in three consecutive scan
//! intervals at the highest affordable scan frequency) correlates poorly
//! with the page's true memory access rate, so A-bit-only policies cannot
//! bound the slowdown of cold placement.
//!
//! Three components:
//!
//! * [`Kstaled`] — a periodic whole-address-space A-bit scanner that tracks
//!   per-huge-page idle age (Figure 1).
//! * [`HotRegionMonitor`] — splits chosen huge pages and tracks per-4KB
//!   consecutive-access streaks (Figure 2's horizontal axis).
//! * [`clock::ClockPolicy`] — a CLOCK-style capacity-driven placement
//!   baseline (the §7 related-work design point Thermostat improves on).

#![warn(missing_docs)]
pub mod clock;
pub mod damon;
pub mod decide;

pub use clock::{ClockConfig, ClockPolicy, ClockStats};
pub use damon::{Damon, DamonConfig, DamonStats};

use std::collections::BTreeMap;
use thermo_mem::{PageSize, Vpn, PAGES_PER_HUGE};
use thermo_sim::{Engine, MemoryView, OpOutcome, PlanOp, PlanReceipt, PolicyHook, PolicyPlan};

/// Configuration for the [`Kstaled`] scanner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KstaledConfig {
    /// Scan period in virtual ns (Linux's kstaled defaults to seconds-scale
    /// scanning; the paper detects idleness over 10s windows).
    pub scan_period_ns: u64,
}

impl Default for KstaledConfig {
    fn default() -> Self {
        Self {
            scan_period_ns: 2_000_000_000,
        }
    }
}

/// Per-huge-page idle bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
struct IdleState {
    /// Consecutive scans with the A bit clear.
    idle_scans: u32,
}

/// The periodic Accessed-bit scanner.
///
/// Works entirely through the engine's snapshot/plan seam: each tick takes
/// a [`MemoryView`] of every VMA, updates idle ages from the snapshot, and
/// clears the observed Accessed bits with one [`PolicyPlan`] — charging
/// exactly what the historical fused scan-and-clear paid.
#[derive(Debug)]
pub struct Kstaled {
    config: KstaledConfig,
    next_due_ns: u64,
    ages: BTreeMap<Vpn, IdleState>,
    scans: u64,
}

impl Kstaled {
    /// Creates a scanner whose first scan fires one period from t=0.
    pub fn new(config: KstaledConfig) -> Self {
        Self {
            next_due_ns: config.scan_period_ns,
            config,
            ages: BTreeMap::new(),
            scans: 0,
        }
    }

    /// [`Kstaled::new`]; the worker count has no effect, because every
    /// snapshot walks its ranges on the calling thread. Kept only for
    /// perfbench, its last caller.
    pub fn with_scan_workers(config: KstaledConfig, _scan_workers: usize) -> Self {
        Self::new(config)
    }

    /// Number of completed scan passes.
    pub fn scans(&self) -> u64 {
        self.scans
    }

    /// Fraction of tracked huge pages idle for at least `min_idle_ns`
    /// (Figure 1's metric with `min_idle_ns` = 10s). Pages split to 4KB are
    /// not counted — the baseline works at 2MB granularity.
    pub fn idle_fraction(&self, min_idle_ns: u64) -> f64 {
        if self.ages.is_empty() {
            return 0.0;
        }
        let need = min_idle_ns.div_ceil(self.config.scan_period_ns).max(1) as u32;
        let idle = self.ages.values().filter(|s| s.idle_scans >= need).count();
        idle as f64 / self.ages.len() as f64
    }

    /// Huge pages idle for at least `min_idle_ns`, by base VPN.
    pub fn idle_pages(&self, min_idle_ns: u64) -> Vec<Vpn> {
        let need = min_idle_ns.div_ceil(self.config.scan_period_ns).max(1) as u32;
        self.ages
            .iter()
            .filter(|(_, s)| s.idle_scans >= need)
            .map(|(k, _)| *k)
            .collect()
    }

    /// Number of huge pages currently tracked.
    pub fn tracked_pages(&self) -> usize {
        self.ages.len()
    }
}

impl PolicyHook for Kstaled {
    fn next_due_ns(&self) -> u64 {
        self.next_due_ns
    }

    fn policy_name(&self) -> &str {
        "kstaled"
    }

    fn tick(&mut self, engine: &mut Engine) {
        let ranges = engine.vma_ranges();
        let view = engine.memory_view(&ranges);
        for p in view.pages() {
            if p.size != PageSize::Huge2M {
                continue;
            }
            let st = self.ages.entry(p.base_vpn).or_default();
            if p.accessed {
                st.idle_scans = 0;
            } else {
                st.idle_scans += 1;
            }
        }
        debug_assert_all_done(engine.apply_plan(&clear_accessed_plan(&view)));
        self.scans += 1;
        self.next_due_ns += self.config.scan_period_ns;
    }
}

/// One [`PlanOp::ClearAccessed`] covering every accessed leaf of `view` —
/// the mutation half of a snapshot-based A-bit scan (same shootdown
/// charges as the historical fused scan over the same ranges).
pub(crate) fn clear_accessed_plan(view: &MemoryView) -> PolicyPlan {
    let mut plan = PolicyPlan::new();
    plan.push(PlanOp::ClearAccessed {
        pages: view
            .pages()
            .iter()
            .filter(|p| p.accessed)
            .map(|p| (p.base_vpn, p.size))
            .collect(),
    });
    plan
}

/// Checks a receipt of synchronous ops (ClearAccessed, SplitSample,
/// Collapse, Poison): each one completes in the tick it is applied.
#[track_caller]
pub(crate) fn debug_assert_all_done(receipt: PlanReceipt) {
    debug_assert!(
        receipt.outcomes().iter().all(|o| *o == OpOutcome::Done),
        "synchronous plan ops complete in their tick"
    );
}

/// Number of consecutive accessed scans after which a 4KB region counts as
/// "hot" (the paper's Figure 2 definition).
pub const HOT_STREAK: u32 = 3;

/// Splits target huge pages and counts hot 4KB regions per huge page.
#[derive(Debug)]
pub struct HotRegionMonitor {
    period_ns: u64,
    next_due_ns: u64,
    max_scans: u32,
    scans_done: u32,
    /// Per target huge page: per-child consecutive-access streaks.
    streaks: BTreeMap<Vpn, Box<[u8; PAGES_PER_HUGE]>>,
    /// Per target huge page: children that ever reached [`HOT_STREAK`].
    ever_hot: BTreeMap<Vpn, Box<[bool; PAGES_PER_HUGE]>>,
    finished: bool,
}

impl HotRegionMonitor {
    /// Splits every `target` huge page in `engine` and prepares monitoring
    /// with `max_scans` passes at `period_ns`.
    ///
    /// # Panics
    ///
    /// Panics if any target is not a mapped huge page.
    pub fn start(engine: &mut Engine, targets: &[Vpn], period_ns: u64, max_scans: u32) -> Self {
        let mut streaks = BTreeMap::new();
        let mut ever_hot = BTreeMap::new();
        // Split each target and clear its children's A bits so the first
        // interval starts clean (one SplitSample op per page).
        let mut plan = PolicyPlan::new();
        for &t in targets {
            plan.push(PlanOp::SplitSample { vpn: t });
            streaks.insert(t, Box::new([0u8; PAGES_PER_HUGE]));
            ever_hot.insert(t, Box::new([false; PAGES_PER_HUGE]));
        }
        debug_assert_all_done(engine.apply_plan(&plan));
        Self {
            period_ns,
            next_due_ns: period_ns,
            max_scans,
            scans_done: 0,
            streaks,
            ever_hot,
            finished: false,
        }
    }

    /// True once all scans have run (the monitor stops ticking by reporting
    /// `u64::MAX` from [`PolicyHook::next_due_ns`]).
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Collapses the targets back and returns `(huge_vpn, hot_region_count)`
    /// per target, sorted by VPN.
    ///
    /// # Panics
    ///
    /// Panics if called before [`finished`](Self::finished).
    pub fn finish(self, engine: &mut Engine) -> Vec<(Vpn, u32)> {
        assert!(self.finished, "finish() before monitoring completed");
        let out: Vec<(Vpn, u32)> = self
            .ever_hot
            .iter()
            .map(|(vpn, hot)| (*vpn, hot.iter().filter(|h| **h).count() as u32))
            .collect();
        let mut plan = PolicyPlan::new();
        for &vpn in self.ever_hot.keys() {
            plan.push(PlanOp::Collapse { vpn });
        }
        debug_assert_all_done(engine.apply_plan(&plan));
        out
    }
}

impl PolicyHook for HotRegionMonitor {
    fn next_due_ns(&self) -> u64 {
        if self.finished {
            u64::MAX
        } else {
            self.next_due_ns
        }
    }

    fn policy_name(&self) -> &str {
        "hot-region-monitor"
    }

    fn tick(&mut self, engine: &mut Engine) {
        let ranges: Vec<(Vpn, u64)> = self
            .streaks
            .keys()
            .map(|&t| (t, PAGES_PER_HUGE as u64))
            .collect();
        let view = engine.memory_view(&ranges);
        for (i, (&t, streaks)) in self.streaks.iter_mut().enumerate() {
            let ever = self.ever_hot.get_mut(&t).expect("target tracked");
            for p in view.range_pages(i) {
                if p.size != PageSize::Small4K {
                    continue; // page got collapsed/migrated underneath us
                }
                let idx = p.base_vpn.index_in_huge();
                if p.accessed {
                    streaks[idx] = streaks[idx].saturating_add(1);
                    if u32::from(streaks[idx]) >= HOT_STREAK {
                        ever[idx] = true;
                    }
                } else {
                    streaks[idx] = 0;
                }
            }
        }
        debug_assert_all_done(engine.apply_plan(&clear_accessed_plan(&view)));
        self.scans_done += 1;
        if self.scans_done >= self.max_scans {
            self.finished = true;
        } else {
            self.next_due_ns += self.period_ns;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermo_mem::VirtAddr;
    use thermo_sim::{run_for, Access, SimConfig, Workload};

    /// Touches the first `hot_huge` huge pages of its buffer every op.
    struct PartialToucher {
        base: VirtAddr,
        hot_huge: u64,
        i: u64,
    }

    impl Workload for PartialToucher {
        fn name(&self) -> &str {
            "partial"
        }

        fn init(&mut self, _e: &mut Engine) {}

        fn next_op(&mut self, _now: u64, acc: &mut Vec<Access>) -> Option<u64> {
            let page = self.i % self.hot_huge;
            acc.push(Access::read(
                self.base + page * (2 << 20) + (self.i * 64) % (2 << 20),
            ));
            self.i += 1;
            Some(10_000)
        }
    }

    fn setup(total_huge: u64) -> (Engine, VirtAddr) {
        let mut e = Engine::new(SimConfig::paper_defaults(256 << 20, 256 << 20));
        let base = e.mmap(total_huge * (2 << 20), true, true, false, "heap");
        for i in 0..total_huge {
            e.access(base + i * (2 << 20), true);
        }
        (e, base)
    }

    #[test]
    fn idle_fraction_detects_untouched_pages() {
        let (mut e, base) = setup(10);
        let mut w = PartialToucher {
            base,
            hot_huge: 3,
            i: 0,
        };
        let mut ks = Kstaled::new(KstaledConfig {
            scan_period_ns: 1_000_000_000,
        });
        run_for(&mut e, &mut w, &mut ks, 12_000_000_000);
        assert!(ks.scans() >= 10);
        assert_eq!(ks.tracked_pages(), 10);
        let idle = ks.idle_fraction(10_000_000_000);
        assert!((idle - 0.7).abs() < 0.05, "expected ~70% idle, got {idle}");
        assert_eq!(ks.idle_pages(10_000_000_000).len(), 7);
    }

    #[test]
    fn fully_hot_workload_has_no_idle_pages() {
        let (mut e, base) = setup(4);
        let mut w = PartialToucher {
            base,
            hot_huge: 4,
            i: 0,
        };
        let mut ks = Kstaled::new(KstaledConfig {
            scan_period_ns: 500_000_000,
        });
        run_for(&mut e, &mut w, &mut ks, 6_000_000_000);
        assert_eq!(ks.idle_fraction(2_000_000_000), 0.0);
    }

    #[test]
    fn idle_fraction_empty_is_zero() {
        let ks = Kstaled::new(KstaledConfig::default());
        assert_eq!(ks.idle_fraction(1), 0.0);
    }

    #[test]
    fn hot_region_monitor_counts_streaky_children() {
        let (mut e, base) = setup(2);
        struct TwoChildren {
            base: VirtAddr,
        }
        impl Workload for TwoChildren {
            fn name(&self) -> &str {
                "two"
            }
            fn init(&mut self, _e: &mut Engine) {}
            fn next_op(&mut self, _n: u64, acc: &mut Vec<Access>) -> Option<u64> {
                acc.push(Access::read(self.base));
                acc.push(Access::read(self.base + 5 * 4096));
                Some(1_000_000)
            }
        }
        let mut w = TwoChildren { base };
        let mut mon = HotRegionMonitor::start(&mut e, &[base.vpn()], 1_000_000_000, 5);
        run_for(&mut e, &mut w, &mut mon, 7_000_000_000);
        assert!(mon.finished());
        let report = mon.finish(&mut e);
        assert_eq!(report.len(), 1);
        let (vpn, hot) = report[0];
        assert_eq!(vpn, base.vpn());
        assert_eq!(hot, 2, "exactly children 0 and 5 are hot");
        assert_eq!(e.page_table().mapped_huge_pages(), 2);
    }

    #[test]
    #[should_panic(expected = "before monitoring completed")]
    fn finish_early_panics() {
        let (mut e, base) = setup(1);
        let mon = HotRegionMonitor::start(&mut e, &[base.vpn()], 1_000_000_000, 5);
        let _ = mon.finish(&mut e);
    }
}
