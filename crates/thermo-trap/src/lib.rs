//! BadgerTrap substrate: poisoned-PTE fault interception and per-page
//! access counting (paper §3.3 and §4.2).
//!
//! The mechanism, verbatim from the paper: *"When a page is sampled for
//! access counting, Thermostat poisons its PTE by setting a reserved bit
//! (bit 51), and then flushes the PTE from the TLB. The next access to the
//! page will incur a hardware page walk (due to the TLB miss) and then
//! trigger a protection fault (due to the poisoned PTE), which is
//! intercepted by BadgerTrap. BadgerTrap's fault handler unpoisons the page,
//! installs a valid translation in the TLB, and then repoisons the PTE. By
//! counting the number of BadgerTrap faults, we can estimate the number of
//! TLB misses to the page, which we use as a proxy for the number of memory
//! accesses."*
//!
//! The same machinery doubles as the paper's **slow-memory emulator**
//! (§4.2): pages logically placed in slow memory stay poisoned, and each
//! fault charges ~1us — simultaneously the emulated slow-access latency and
//! the §3.5 monitoring mechanism for cold pages.
//!
//! [`TrapUnit`] owns the poison set and the per-page fault counters; the
//! simulation engine calls [`TrapUnit::on_fault`] from its access pipeline
//! whenever a walk resolves a poisoned leaf.
//!
//! A split huge page poisoned in bulk ([`TrapUnit::poison_children`], the
//! §3.5 demotion path) keeps its 512 child counters in one grouped entry,
//! so poisoning and unpoisoning it cost one map operation instead of 512.
//! Every query answers as if each child had its own counter.

#![warn(missing_docs)]
use std::collections::BTreeMap;
use thermo_mem::{PageSize, Vpn, PAGES_PER_HUGE};
use thermo_vm::{PageTable, Tlb, Vpid};

/// Configuration of the trap unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrapConfig {
    /// Latency of one intercepted fault, in ns. The paper measures ~1us for
    /// its guest-side BadgerTrap handler and deliberately uses that as the
    /// emulated slow-memory latency.
    pub fault_latency_ns: u64,
}

impl Default for TrapConfig {
    fn default() -> Self {
        Self {
            fault_latency_ns: 1_000,
        }
    }
}

/// Aggregate trap statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrapStats {
    /// Total intercepted faults.
    pub faults: u64,
    /// Total handler latency charged, ns.
    pub fault_time_ns: u64,
    /// Pages currently poisoned.
    pub poisoned_pages: u64,
    /// Cumulative poison operations.
    pub poisons: u64,
    /// Cumulative unpoison operations.
    pub unpoisons: u64,
}

/// Per-page fault counter state.
#[derive(Debug, Clone, Copy)]
struct Counter {
    faults: u64,
    size: PageSize,
}

/// Fault counts of the 512 4KB children of one split huge page, indexed
/// by child offset.
type Group = Box<[u64; PAGES_PER_HUGE]>;

/// The BadgerTrap kernel extension, as a simulation component.
#[derive(Debug, Default)]
pub struct TrapUnit {
    config: TrapConfig,
    counters: BTreeMap<Vpn, Counter>,
    /// Split huge pages poisoned by [`poison_children`](Self::poison_children),
    /// keyed by window base: each entry stands for 512 4KB counters. No key
    /// of `counters` lies inside a grouped window; a single-leaf `poison`,
    /// `unpoison` or `forget` there first splits the group back.
    groups: BTreeMap<Vpn, Group>,
    stats: TrapStats,
}

impl TrapUnit {
    /// Creates a trap unit with the given configuration.
    pub fn new(config: TrapConfig) -> Self {
        Self {
            config,
            counters: BTreeMap::new(),
            groups: BTreeMap::new(),
            stats: TrapStats::default(),
        }
    }

    /// The grouped fault count of 4KB page `vpn`, if its window is grouped.
    fn group_count(&self, vpn: Vpn) -> Option<u64> {
        if self.groups.is_empty() {
            return None;
        }
        self.groups
            .get(&vpn.huge_base())
            .map(|group| group[vpn.index_in_huge()])
    }

    fn group_slot_mut(&mut self, vpn: Vpn) -> Option<&mut u64> {
        if self.groups.is_empty() {
            return None;
        }
        let group = self.groups.get_mut(&vpn.huge_base())?;
        Some(&mut group[vpn.index_in_huge()])
    }

    /// Turns the group covering `vpn`, if any, back into 512 per-leaf
    /// counters with the same fault counts, so a single-leaf operation can
    /// act on one of them.
    fn ungroup(&mut self, vpn: Vpn) {
        if self.groups.is_empty() {
            return;
        }
        let base = vpn.huge_base();
        if let Some(group) = self.groups.remove(&base) {
            for (i, &faults) in group.iter().enumerate() {
                self.counters.insert(
                    base.offset(i as u64),
                    Counter {
                        faults,
                        size: PageSize::Small4K,
                    },
                );
            }
        }
    }

    /// The configured per-fault latency, ns.
    pub fn fault_latency_ns(&self) -> u64 {
        self.config.fault_latency_ns
    }

    /// Changes the per-fault latency (used by harnesses exploring the
    /// 400ns–3us slow-memory projection range).
    pub fn set_fault_latency_ns(&mut self, ns: u64) {
        self.config.fault_latency_ns = ns;
    }

    /// Poisons the leaf whose base is `base_vpn` and flushes its
    /// translation so the next access faults. Starts a fresh fault counter.
    ///
    /// `base_vpn` must be the base VPN of a present leaf of size `size`
    /// (4KB pages during §3.2 sampling; whole huge pages for §3.5 cold-page
    /// monitoring).
    ///
    /// # Panics
    ///
    /// Panics if the leaf is unmapped or its size disagrees with `size` —
    /// the policy layer is responsible for poisoning only pages it mapped.
    pub fn poison(
        &mut self,
        pt: &mut PageTable,
        tlb: &mut Tlb,
        vpid: Vpid,
        base_vpn: Vpn,
        size: PageSize,
    ) {
        let found = pt.with_pte_mut(base_vpn, |pte| pte.poison()).is_some();
        assert!(found, "poisoning unmapped page {base_vpn}");
        let mapping = pt.lookup(base_vpn).expect("just poisoned");
        assert_eq!(mapping.size, size, "poison size mismatch at {base_vpn}");
        assert_eq!(
            mapping.base_vpn, base_vpn,
            "poison must target the leaf base"
        );
        tlb.shootdown(base_vpn, size, vpid);
        self.ungroup(base_vpn);
        self.counters.insert(base_vpn, Counter { faults: 0, size });
        self.stats.poisoned_pages = self.poisoned_len() as u64;
        self.stats.poisons += 1;
    }

    /// Poisons all 512 4KB children of the split huge page at `base_vpn` in
    /// one page-table pass — the bulk counterpart of 512 [`poison`]
    /// calls. Observable state (PTE bits, TLB content, counters,
    /// statistics) is identical to the per-child sequence; the 512 fresh
    /// counters are one grouped entry.
    ///
    /// [`poison`]: Self::poison
    ///
    /// # Panics
    ///
    /// Panics if `base_vpn` is not huge-aligned, or if any child is
    /// unmapped or not a 4KB leaf.
    pub fn poison_children(
        &mut self,
        pt: &mut PageTable,
        tlb: &mut Tlb,
        vpid: Vpid,
        base_vpn: Vpn,
    ) {
        assert!(
            base_vpn.is_huge_aligned(),
            "poisoning children of unaligned window {base_vpn}"
        );
        let mut seen = 0u64;
        pt.for_each_leaf_mut(base_vpn, PAGES_PER_HUGE as u64, |vpn, size, pte| {
            assert_eq!(size, PageSize::Small4K, "poison size mismatch at {vpn}");
            pte.poison();
            seen += 1;
        });
        assert_eq!(
            seen, PAGES_PER_HUGE as u64,
            "poisoning unmapped children under {base_vpn}"
        );
        tlb.shootdown_window(base_vpn, vpid);
        // Fresh counters replace any per-leaf ones in the window, exactly
        // as 512 inserts would.
        let end = base_vpn.offset(PAGES_PER_HUGE as u64);
        while let Some((&vpn, _)) = self.counters.range(base_vpn..end).next() {
            self.counters.remove(&vpn);
        }
        self.groups.insert(base_vpn, Box::new([0; PAGES_PER_HUGE]));
        self.stats.poisoned_pages = self.poisoned_len() as u64;
        self.stats.poisons += PAGES_PER_HUGE as u64;
    }

    /// Unpoisons all 512 4KB children of the split huge page at `base_vpn`
    /// in one page-table pass, returning their summed fault counts — the
    /// bulk counterpart of 512 [`unpoison`](Self::unpoison) calls, with
    /// identical observable state.
    ///
    /// # Panics
    ///
    /// Panics if any child was not poisoned by this unit.
    pub fn unpoison_children_sum(
        &mut self,
        pt: &mut PageTable,
        tlb: &mut Tlb,
        vpid: Vpid,
        base_vpn: Vpn,
    ) -> u64 {
        pt.for_each_leaf_mut(base_vpn, PAGES_PER_HUGE as u64, |vpn, size, pte| {
            assert_eq!(size, PageSize::Small4K, "unpoison size mismatch at {vpn}");
            pte.unpoison();
        });
        let sum = if let Some(group) = self.groups.remove(&base_vpn) {
            tlb.shootdown_window(base_vpn, vpid);
            group.iter().sum()
        } else {
            let mut sum = 0;
            for i in 0..PAGES_PER_HUGE as u64 {
                let vpn = base_vpn.offset(i);
                let counter = self
                    .counters
                    .remove(&vpn)
                    .unwrap_or_else(|| panic!("unpoisoning page {vpn} that was never poisoned"));
                sum += counter.faults;
                tlb.shootdown(vpn, counter.size, vpid);
            }
            sum
        };
        self.stats.poisoned_pages = self.poisoned_len() as u64;
        self.stats.unpoisons += PAGES_PER_HUGE as u64;
        sum
    }

    /// Unpoisons the leaf at `base_vpn`, returning the fault count gathered
    /// while it was poisoned.
    ///
    /// # Panics
    ///
    /// Panics if the page is not currently poisoned by this unit.
    pub fn unpoison(
        &mut self,
        pt: &mut PageTable,
        tlb: &mut Tlb,
        vpid: Vpid,
        base_vpn: Vpn,
    ) -> u64 {
        self.ungroup(base_vpn);
        let counter = self
            .counters
            .remove(&base_vpn)
            .unwrap_or_else(|| panic!("unpoisoning page {base_vpn} that was never poisoned"));
        pt.with_pte_mut(base_vpn, |pte| pte.unpoison());
        tlb.shootdown(base_vpn, counter.size, vpid);
        self.stats.poisoned_pages = self.poisoned_len() as u64;
        self.stats.unpoisons += 1;
        counter.faults
    }

    /// Forgets the counter for `base_vpn` without touching the page table
    /// (used when the page is unmapped or remapped wholesale, e.g. during
    /// migration, and the PTE poison state is rebuilt by the caller).
    pub fn forget(&mut self, base_vpn: Vpn) -> Option<u64> {
        self.ungroup(base_vpn);
        let c = self.counters.remove(&base_vpn);
        self.stats.poisoned_pages = self.poisoned_len() as u64;
        c.map(|c| c.faults)
    }

    /// Intercepts a fault on the poisoned leaf at `base_vpn`.
    ///
    /// Returns the handler latency to charge. The engine is expected to then
    /// install the translation in the TLB (BadgerTrap's
    /// unpoison-install-repoison dance leaves the PTE poisoned but the TLB
    /// holding a valid entry, so only TLB *misses* are counted).
    ///
    /// Faults on pages this unit did not poison (e.g. after a policy bug)
    /// are still counted in the aggregate statistics so they are visible.
    pub fn on_fault(&mut self, base_vpn: Vpn) -> u64 {
        if let Some(faults) = self.group_slot_mut(base_vpn) {
            *faults += 1;
        } else if let Some(c) = self.counters.get_mut(&base_vpn) {
            c.faults += 1;
        }
        self.stats.faults += 1;
        self.stats.fault_time_ns += self.config.fault_latency_ns;
        self.config.fault_latency_ns
    }

    /// Current fault count of a poisoned page (None if not poisoned).
    pub fn count(&self, base_vpn: Vpn) -> Option<u64> {
        self.group_count(base_vpn)
            .or_else(|| self.counters.get(&base_vpn).map(|c| c.faults))
    }

    /// True if `base_vpn` is poisoned by this unit.
    pub fn is_poisoned(&self, base_vpn: Vpn) -> bool {
        self.group_count(base_vpn).is_some() || self.counters.contains_key(&base_vpn)
    }

    /// Reads and resets the fault counter of a poisoned page, keeping it
    /// poisoned (the §3.5 cold-page monitor does this every sampling period).
    ///
    /// Returns `None` if the page is not poisoned.
    pub fn take_count(&mut self, base_vpn: Vpn) -> Option<u64> {
        if let Some(faults) = self.group_slot_mut(base_vpn) {
            return Some(std::mem::take(faults));
        }
        self.counters
            .get_mut(&base_vpn)
            .map(|c| std::mem::take(&mut c.faults))
    }

    /// Reads and resets the fault counters of all 512 4KB children of the
    /// split huge page at `base_vpn`, keeping them poisoned, and returns
    /// their sum — the bulk form of 512 [`take_count`](Self::take_count)
    /// calls, with children that are not poisoned counting 0.
    pub fn take_children_sum(&mut self, base_vpn: Vpn) -> u64 {
        if let Some(group) = self.groups.get_mut(&base_vpn) {
            let sum = group.iter().sum();
            group.fill(0);
            return sum;
        }
        (0..PAGES_PER_HUGE as u64)
            .map(|i| self.take_count(base_vpn.offset(i)).unwrap_or(0))
            .sum()
    }

    /// Number of currently poisoned pages.
    pub fn poisoned_len(&self) -> usize {
        self.counters.len() + self.groups.len() * PAGES_PER_HUGE
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> TrapStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermo_mem::Pfn;
    use thermo_vm::TlbOutcome;

    const V: Vpid = Vpid(0);

    fn setup_small() -> (PageTable, Tlb, TrapUnit) {
        let mut pt = PageTable::new();
        pt.map_small(Vpn(7), Pfn(70), true).unwrap();
        (pt, Tlb::default(), TrapUnit::new(TrapConfig::default()))
    }

    #[test]
    fn poison_sets_bit_and_flushes() {
        let (mut pt, mut tlb, mut trap) = setup_small();
        tlb.insert(Vpn(7), Pfn(70), PageSize::Small4K, V);
        trap.poison(&mut pt, &mut tlb, V, Vpn(7), PageSize::Small4K);
        assert!(pt.lookup(Vpn(7)).unwrap().pte.poisoned());
        assert!(matches!(tlb.lookup(Vpn(7), V), TlbOutcome::Miss));
        assert!(trap.is_poisoned(Vpn(7)));
        assert_eq!(trap.count(Vpn(7)), Some(0));
    }

    #[test]
    fn faults_count_and_charge_latency() {
        let (mut pt, mut tlb, mut trap) = setup_small();
        trap.poison(&mut pt, &mut tlb, V, Vpn(7), PageSize::Small4K);
        assert_eq!(trap.on_fault(Vpn(7)), 1_000);
        assert_eq!(trap.on_fault(Vpn(7)), 1_000);
        assert_eq!(trap.count(Vpn(7)), Some(2));
        let s = trap.stats();
        assert_eq!(s.faults, 2);
        assert_eq!(s.fault_time_ns, 2_000);
    }

    #[test]
    fn unpoison_returns_count_and_clears_bit() {
        let (mut pt, mut tlb, mut trap) = setup_small();
        trap.poison(&mut pt, &mut tlb, V, Vpn(7), PageSize::Small4K);
        trap.on_fault(Vpn(7));
        let n = trap.unpoison(&mut pt, &mut tlb, V, Vpn(7));
        assert_eq!(n, 1);
        assert!(!pt.lookup(Vpn(7)).unwrap().pte.poisoned());
        assert!(!trap.is_poisoned(Vpn(7)));
        assert_eq!(trap.stats().poisoned_pages, 0);
    }

    #[test]
    fn take_count_resets_but_keeps_poisoned() {
        let (mut pt, mut tlb, mut trap) = setup_small();
        trap.poison(&mut pt, &mut tlb, V, Vpn(7), PageSize::Small4K);
        trap.on_fault(Vpn(7));
        assert_eq!(trap.take_count(Vpn(7)), Some(1));
        assert_eq!(trap.count(Vpn(7)), Some(0));
        assert!(pt.lookup(Vpn(7)).unwrap().pte.poisoned());
    }

    #[test]
    fn huge_page_poisoning() {
        let mut pt = PageTable::new();
        pt.map_huge(Vpn(512), Pfn(512), true).unwrap();
        let mut tlb = Tlb::default();
        let mut trap = TrapUnit::default();
        trap.poison(&mut pt, &mut tlb, V, Vpn(512), PageSize::Huge2M);
        assert!(pt.lookup(Vpn(700)).unwrap().pte.poisoned());
        trap.on_fault(Vpn(512));
        assert_eq!(trap.unpoison(&mut pt, &mut tlb, V, Vpn(512)), 1);
        assert!(!pt.lookup(Vpn(700)).unwrap().pte.poisoned());
    }

    #[test]
    fn fault_latency_configurable() {
        let mut trap = TrapUnit::new(TrapConfig {
            fault_latency_ns: 400,
        });
        assert_eq!(trap.fault_latency_ns(), 400);
        trap.set_fault_latency_ns(3_000);
        assert_eq!(trap.on_fault(Vpn(1)), 3_000);
    }

    #[test]
    fn untracked_fault_counts_in_aggregate_only() {
        let mut trap = TrapUnit::default();
        trap.on_fault(Vpn(42));
        assert_eq!(trap.stats().faults, 1);
        assert_eq!(trap.count(Vpn(42)), None);
    }

    #[test]
    fn forget_drops_counter_without_pte_access() {
        let (mut pt, mut tlb, mut trap) = setup_small();
        trap.poison(&mut pt, &mut tlb, V, Vpn(7), PageSize::Small4K);
        trap.on_fault(Vpn(7));
        assert_eq!(trap.forget(Vpn(7)), Some(1));
        assert_eq!(trap.forget(Vpn(7)), None);
        // PTE remains poisoned; caller owns cleanup.
        assert!(pt.lookup(Vpn(7)).unwrap().pte.poisoned());
    }

    #[test]
    #[should_panic(expected = "unmapped")]
    fn poison_unmapped_panics() {
        let mut pt = PageTable::new();
        let mut tlb = Tlb::default();
        let mut trap = TrapUnit::default();
        trap.poison(&mut pt, &mut tlb, V, Vpn(1), PageSize::Small4K);
    }

    #[test]
    #[should_panic(expected = "never poisoned")]
    fn unpoison_unknown_panics() {
        let (mut pt, mut tlb, mut trap) = setup_small();
        trap.unpoison(&mut pt, &mut tlb, V, Vpn(7));
    }

    #[test]
    fn bulk_children_ops_match_per_child_sequence() {
        use thermo_mem::PAGES_PER_HUGE;
        let build = || {
            let mut pt = PageTable::new();
            pt.map_huge(Vpn(512), Pfn(1024), true).unwrap();
            pt.split_huge(Vpn(512)).unwrap();
            (pt, Tlb::default(), TrapUnit::default())
        };
        let (mut pt_a, mut tlb_a, mut trap_a) = build();
        let (mut pt_b, mut tlb_b, mut trap_b) = build();

        trap_a.poison_children(&mut pt_a, &mut tlb_a, V, Vpn(512));
        for i in 0..PAGES_PER_HUGE as u64 {
            trap_b.poison(&mut pt_b, &mut tlb_b, V, Vpn(512 + i), PageSize::Small4K);
        }
        assert_eq!(trap_a.stats(), trap_b.stats());
        for i in 0..PAGES_PER_HUGE as u64 {
            assert_eq!(pt_a.lookup(Vpn(512 + i)), pt_b.lookup(Vpn(512 + i)));
        }

        trap_a.on_fault(Vpn(513));
        trap_b.on_fault(Vpn(513));
        trap_a.on_fault(Vpn(900));
        trap_b.on_fault(Vpn(900));

        let sum_a = trap_a.unpoison_children_sum(&mut pt_a, &mut tlb_a, V, Vpn(512));
        let mut sum_b = 0;
        for i in 0..PAGES_PER_HUGE as u64 {
            sum_b += trap_b.unpoison(&mut pt_b, &mut tlb_b, V, Vpn(512 + i));
        }
        assert_eq!(sum_a, 2);
        assert_eq!(sum_a, sum_b);
        assert_eq!(trap_a.stats(), trap_b.stats());
        for i in 0..PAGES_PER_HUGE as u64 {
            assert_eq!(pt_a.lookup(Vpn(512 + i)), pt_b.lookup(Vpn(512 + i)));
        }
    }

    #[test]
    fn single_leaf_ops_split_a_group_back_with_its_counts() {
        let mut pt = PageTable::new();
        pt.map_huge(Vpn(512), Pfn(1024), true).unwrap();
        pt.split_huge(Vpn(512)).unwrap();
        let mut tlb = Tlb::default();
        let mut trap = TrapUnit::default();
        trap.poison_children(&mut pt, &mut tlb, V, Vpn(512));
        trap.on_fault(Vpn(512));
        trap.on_fault(Vpn(1000));
        trap.on_fault(Vpn(1000));
        assert_eq!(trap.count(Vpn(1000)), Some(2));
        assert_eq!(trap.poisoned_len(), 512);
        // Unpoisoning one child keeps the other 511 and their counts.
        assert_eq!(trap.unpoison(&mut pt, &mut tlb, V, Vpn(512)), 1);
        assert!(!trap.is_poisoned(Vpn(512)));
        assert_eq!(trap.count(Vpn(1000)), Some(2));
        assert_eq!(trap.poisoned_len(), 511);
        assert_eq!(trap.stats().poisoned_pages, 511);
        // A bulk take drains the split-back counters like 511 takes.
        assert_eq!(trap.take_children_sum(Vpn(512)), 2);
        assert_eq!(trap.count(Vpn(1000)), Some(0));
        // Re-poisoning the window regroups it with fresh counters.
        trap.poison_children(&mut pt, &mut tlb, V, Vpn(512));
        assert_eq!(trap.poisoned_len(), 512);
        trap.on_fault(Vpn(1000));
        trap.on_fault(Vpn(600));
        assert_eq!(trap.take_children_sum(Vpn(512)), 2);
        assert_eq!(trap.count(Vpn(1000)), Some(0));
        assert_eq!(trap.poisoned_len(), 512);
        assert_eq!(trap.forget(Vpn(513)), Some(0));
        assert_eq!(trap.poisoned_len(), 511);
    }

    #[test]
    #[should_panic(expected = "unmapped children")]
    fn bulk_poison_unmapped_children_panics() {
        let mut pt = PageTable::new();
        pt.map_small(Vpn(512), Pfn(1), true).unwrap(); // only 1 of 512
        let mut tlb = Tlb::default();
        let mut trap = TrapUnit::default();
        trap.poison_children(&mut pt, &mut tlb, V, Vpn(512));
    }
}

thermo_util::json_struct!(TrapConfig { fault_latency_ns });
