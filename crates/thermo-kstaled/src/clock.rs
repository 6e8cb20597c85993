//! A CLOCK-style, capacity-driven placement baseline.
//!
//! Classic software two-tier systems (the paper's §7 "software-managed
//! two-level memory" related work) are *capacity*-driven: they keep the
//! fast tier within a size budget and evict not-recently-used pages,
//! rather than bounding slowdown. [`ClockPolicy`] reproduces that design
//! point: a CLOCK hand sweeps huge pages' Accessed bits; when fast-tier
//! usage exceeds the target, pages with a clear A bit are demoted, and any
//! slow page that gets referenced is promoted back on the next sweep.
//!
//! Comparing this against Thermostat isolates the paper's core insight:
//! reference bits say *whether* a page was touched, not *how much placing
//! it in slow memory will hurt.

use std::collections::VecDeque;
use thermo_mem::{PageSize, Tier, Vpn};
use thermo_sim::{Engine, OpOutcome, PlanOp, PolicyHook, PolicyPlan};

/// Configuration for [`ClockPolicy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockConfig {
    /// Sweep period, virtual ns.
    pub sweep_period_ns: u64,
    /// Target fraction of the resident footprint kept in fast memory
    /// (e.g. 0.6 = demote until at most 60% is fast).
    pub fast_target_fraction: f64,
}

impl Default for ClockConfig {
    fn default() -> Self {
        Self {
            sweep_period_ns: 1_000_000_000,
            fast_target_fraction: 0.6,
        }
    }
}

/// Statistics for the CLOCK baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClockStats {
    /// Sweeps completed.
    pub sweeps: u64,
    /// Huge pages demoted.
    pub demotions: u64,
    /// Huge pages promoted after a reference in slow memory.
    pub promotions: u64,
}

/// The CLOCK-with-capacity-target baseline policy.
///
/// Works through the engine's snapshot/plan seam: each sweep takes one
/// [`MemoryView`](thermo_sim::MemoryView), decides on it, and mutates the
/// machine only via [`PolicyPlan`]s. When the migration fabric is enabled
/// (`SimConfig::fabric.enabled`) demotions go through transactional
/// `BeginMigrate`/`CommitMigrate` ops — the copy runs asynchronously and
/// the next sweep collects the receipts.
#[derive(Debug)]
pub struct ClockPolicy {
    config: ClockConfig,
    next_due_ns: u64,
    /// Demotion candidates observed idle last sweep, FIFO hand order.
    idle_queue: VecDeque<Vpn>,
    /// Fabric demotions in flight, as `(vpn, txn_id)`.
    pending: Vec<(Vpn, u64)>,
    stats: ClockStats,
    scan_workers: usize,
}

impl ClockPolicy {
    /// Creates the policy; the first sweep fires one period in. Snapshot
    /// scans use `THERMO_SCAN_JOBS` shard workers (inline when unset).
    pub fn new(config: ClockConfig) -> Self {
        Self::with_scan_workers(config, thermo_exec::scan_jobs_from_env())
    }

    /// [`ClockPolicy::new`] with an explicit snapshot worker count.
    pub fn with_scan_workers(config: ClockConfig, scan_workers: usize) -> Self {
        Self {
            next_due_ns: config.sweep_period_ns,
            config,
            idle_queue: VecDeque::new(),
            pending: Vec::new(),
            stats: ClockStats::default(),
            scan_workers,
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ClockStats {
        self.stats
    }

    /// Collect receipts for fabric demotions begun on earlier sweeps: a
    /// completed copy commits (and the now-slow page is poisoned so the
    /// fault-emulated methodology keeps charging it), an in-flight copy
    /// stays pending, an aborted one is simply dropped — the page stayed
    /// fast and the hand will see it again.
    fn commit_pending(&mut self, engine: &mut Engine) {
        if self.pending.is_empty() {
            return;
        }
        let mut plan = PolicyPlan::new();
        for &(_, id) in &self.pending {
            plan.push(PlanOp::CommitMigrate { txn: id });
        }
        let receipt = engine.apply_plan(&plan);
        let mut follow = PolicyPlan::new();
        let mut still = Vec::new();
        for ((vpn, id), oc) in std::mem::take(&mut self.pending)
            .into_iter()
            .zip(receipt.outcomes())
        {
            match oc {
                OpOutcome::Done => {
                    follow.push(PlanOp::Poison {
                        vpn,
                        size: PageSize::Huge2M,
                    });
                    self.stats.demotions += 1;
                }
                OpOutcome::Pending => still.push((vpn, id)),
                _ => {} // aborted or target-OOM: the page stayed fast
            }
        }
        self.pending = still;
        if !follow.is_empty() {
            crate::debug_assert_all_done(engine.apply_plan(&follow));
        }
    }

    fn sweep(&mut self, engine: &mut Engine) {
        let fabric_mode = engine.config().fabric.enabled;
        if fabric_mode {
            self.commit_pending(engine);
        }
        // Pass 1: snapshot A bits everywhere, then one plan that clears
        // them and promotes referenced slow pages (CLOCK second chance
        // across tiers); idle fast pages enter the demotion queue.
        let ranges = engine.vma_ranges();
        let view = engine.memory_view(&ranges, self.scan_workers);
        self.idle_queue.clear();
        let mut plan = crate::clear_accessed_plan(&view);
        for p in view.pages() {
            if p.size != PageSize::Huge2M {
                continue;
            }
            match p.tier {
                Tier::Fast if !p.accessed => self.idle_queue.push_back(p.base_vpn),
                Tier::Slow if p.accessed => {
                    plan.push(PlanOp::PromoteWholeHuge { vpn: p.base_vpn });
                }
                _ => {}
            }
        }
        let receipt = engine.apply_plan(&plan);
        for oc in &receipt.outcomes()[1..] {
            if *oc == OpOutcome::Done {
                self.stats.promotions += 1;
            }
        }
        // Pass 2: demote idle pages until the fast share is at target.
        let total = engine.rss_bytes().max(1);
        let target_fast = (total as f64 * self.config.fast_target_fraction) as u64;
        if fabric_mode {
            // Transactional demotion: the footprint only changes at commit,
            // so work against a projected fast-tier size instead of
            // re-reading it per page.
            let fb = engine.footprint_breakdown();
            let mut fast_bytes = fb.huge_fast + fb.small_fast;
            while let Some(vpn) = self.idle_queue.pop_front() {
                if fast_bytes <= target_fast {
                    break;
                }
                if self.pending.iter().any(|&(v, _)| v == vpn) {
                    continue;
                }
                if engine.tier_of_vpn(vpn) != Some(Tier::Fast) {
                    continue;
                }
                let mut plan = PolicyPlan::new();
                plan.push(PlanOp::BeginMigrate {
                    vpn,
                    target: Tier::Slow,
                });
                let receipt = engine.apply_plan(&plan);
                if let OpOutcome::Begun(id) = receipt.outcomes()[0] {
                    self.pending.push((vpn, id));
                    fast_bytes -= PageSize::Huge2M.bytes() as u64;
                }
            }
        } else {
            while let Some(vpn) = self.idle_queue.pop_front() {
                let fb = engine.footprint_breakdown();
                if fb.huge_fast + fb.small_fast <= target_fast {
                    break;
                }
                if engine.tier_of_vpn(vpn) != Some(Tier::Fast) {
                    continue;
                }
                // Capacity policies do not monitor cold pages; but under
                // the paper's fault-based evaluation methodology slow pages
                // must be poisoned so accesses pay the emulated latency —
                // DemoteWholeHuge is exactly migrate+poison (or stay-hot on
                // a full slow tier).
                let mut plan = PolicyPlan::new();
                plan.push(PlanOp::DemoteWholeHuge { vpn });
                let receipt = engine.apply_plan(&plan);
                if receipt.outcomes()[0] == OpOutcome::Done {
                    self.stats.demotions += 1;
                }
            }
        }
        self.stats.sweeps += 1;
    }
}

impl PolicyHook for ClockPolicy {
    fn next_due_ns(&self) -> u64 {
        self.next_due_ns
    }

    fn policy_name(&self) -> &str {
        "clock"
    }

    fn tick(&mut self, engine: &mut Engine) {
        self.sweep(engine);
        self.next_due_ns += self.config.sweep_period_ns;
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
            let page = self.i % (self.n_huge / 2); // first half hot
            acc.push(Access::read(
                self.base + page * (2 << 20) + (self.i * 64) % (2 << 20),
            ));
            self.i += 1;
            Some(2_000)
        }
    }

    #[test]
    fn clock_enforces_capacity_target_on_idle_pages() {
        let mut engine = Engine::new(SimConfig::paper_defaults(128 << 20, 128 << 20));
        let mut w = HalfHot {
            base: VirtAddr(0),
            n_huge: 16,
            i: 0,
        };
        w.init(&mut engine);
        let mut clock = ClockPolicy::new(ClockConfig {
            sweep_period_ns: 200_000_000,
            fast_target_fraction: 0.5,
        });
        run_for(&mut engine, &mut w, &mut clock, 3_000_000_000);
        assert!(clock.stats().sweeps > 5);
        let fb = engine.footprint_breakdown();
        let fast_frac = 1.0 - fb.cold_fraction();
        assert!(
            fast_frac <= 0.60,
            "capacity target must be enforced, fast fraction {fast_frac:.2}"
        );
        // The hot half must be in fast memory (second chance protects it).
        for p in 0..8u64 {
            assert_eq!(
                engine.tier_of_vpn((w.base + p * (2 << 20)).vpn()),
                Some(Tier::Fast),
                "hot page {p} must stay fast"
            );
        }
    }

    /// The hot page rotates slowly, so previously-idle (demoted) pages get
    /// referenced again later — CLOCK must promote them.
    struct RotatingHot {
        base: VirtAddr,
        n_huge: u64,
        i: u64,
    }

    impl Workload for RotatingHot {
        fn name(&self) -> &str {
            "rotatinghot"
        }

        fn init(&mut self, engine: &mut Engine) {
            self.base = engine.mmap(self.n_huge * (2 << 20), true, true, false, "heap");
            for p in 0..self.n_huge {
                engine.access(self.base + p * (2 << 20), true);
            }
        }

        fn next_op(&mut self, _now: u64, acc: &mut Vec<Access>) -> Option<u64> {
            let page = (self.i / 200_000) % self.n_huge; // shift every ~0.4s
            acc.push(Access::read(
                self.base + page * (2 << 20) + (self.i * 64) % (2 << 20),
            ));
            self.i += 1;
            Some(2_000)
        }
    }

    #[test]
    fn referenced_slow_pages_get_promoted() {
        let mut engine = Engine::new(SimConfig::paper_defaults(128 << 20, 128 << 20));
        let mut w = RotatingHot {
            base: VirtAddr(0),
            n_huge: 6,
            i: 0,
        };
        w.init(&mut engine);
        let mut clock = ClockPolicy::new(ClockConfig {
            sweep_period_ns: 100_000_000,
            fast_target_fraction: 0.4,
        });
        run_for(&mut engine, &mut w, &mut clock, 3_000_000_000);
        assert!(clock.stats().demotions > 0);
        // The hot spot rotated onto demoted pages, so promotions must have
        // pulled referenced pages back.
        assert!(
            clock.stats().promotions > 0,
            "CLOCK must give referenced pages a second chance"
        );
    }
}
