//! Property tests of the BadgerTrap counters.
//!
//! `fault_counts_conserved`: every fault is attributed to exactly one
//! poisoned page and surfaces exactly once through `unpoison`/`take_count`,
//! under arbitrary interleavings.
//!
//! `bulk_ops_match_a_per_leaf_map`: a differential oracle for the grouped
//! counters of split huge pages. The reference is one `BTreeMap` entry of
//! `(faults, size)` per poisoned leaf, which is how the unit kept them
//! before a bulk-poisoned window became one entry. Streams interleave
//! `poison_children`, `unpoison_children_sum` and `take_children_sum` on
//! two split windows with single-leaf ops on their children, on plain 4KB
//! pages and on a huge leaf; after every op the unit must agree with the
//! reference on every count, every poison flag, `poisoned_len`, `stats()`
//! and every PTE poison bit.

use std::collections::{BTreeMap, HashMap};
use thermo_mem::{PageSize, Pfn, Vpn, PAGES_PER_HUGE};
use thermo_trap::{TrapConfig, TrapStats, TrapUnit};
use thermo_util::forall;
use thermo_util::proptest_lite::{range, vec_of, weighted, Strategy};
use thermo_vm::{PageTable, Tlb, Vpid};

const N_PAGES: u64 = 16;

#[derive(Debug, Clone)]
enum Op {
    Poison(u8),
    Unpoison(u8),
    Fault(u8),
    Take(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    weighted(vec![
        (1, range(0u8..N_PAGES as u8).prop_map(Op::Poison).boxed()),
        (1, range(0u8..N_PAGES as u8).prop_map(Op::Unpoison).boxed()),
        (3, range(0u8..N_PAGES as u8).prop_map(Op::Fault).boxed()),
        (1, range(0u8..N_PAGES as u8).prop_map(Op::Take).boxed()),
    ])
}

#[test]
fn fault_counts_conserved() {
    forall!(cases = 64, (ops in vec_of(op_strategy(), 1..300)) => {
        let mut pt = PageTable::new();
        let mut tlb = Tlb::default();
        let mut trap = TrapUnit::new(TrapConfig::default());
        let vpid = Vpid(0);
        for i in 0..N_PAGES {
            pt.map_small(Vpn(i), Pfn(100 + i), true).unwrap();
        }

        // Shadow model.
        let mut poisoned = [false; N_PAGES as usize];
        let mut pending: HashMap<u8, u64> = HashMap::new(); // uncollected faults
        let mut collected = 0u64;
        let mut faults_on_poisoned = 0u64;

        for op in ops {
            match op {
                Op::Poison(p) => {
                    if !poisoned[p as usize] {
                        trap.poison(&mut pt, &mut tlb, vpid, Vpn(p as u64), PageSize::Small4K);
                        poisoned[p as usize] = true;
                        pending.insert(p, 0);
                    }
                }
                Op::Unpoison(p) => {
                    if poisoned[p as usize] {
                        let got = trap.unpoison(&mut pt, &mut tlb, vpid, Vpn(p as u64));
                        let want = pending.remove(&p).unwrap_or(0);
                        assert_eq!(got, want, "unpoison must return pending faults");
                        collected += got;
                        poisoned[p as usize] = false;
                        // PTE poison bit must be clear again.
                        assert!(!pt.lookup(Vpn(p as u64)).unwrap().pte.poisoned());
                    }
                }
                Op::Fault(p) => {
                    // The engine only faults on poisoned pages; mirror that.
                    if poisoned[p as usize] {
                        let lat = trap.on_fault(Vpn(p as u64));
                        assert_eq!(lat, 1_000);
                        *pending.get_mut(&p).expect("tracked") += 1;
                        faults_on_poisoned += 1;
                    }
                }
                Op::Take(p) => {
                    if poisoned[p as usize] {
                        let got = trap.take_count(Vpn(p as u64)).expect("poisoned page");
                        let want = std::mem::take(pending.get_mut(&p).expect("tracked"));
                        assert_eq!(got, want, "take_count must drain pending faults");
                        collected += got;
                    } else {
                        assert_eq!(trap.take_count(Vpn(p as u64)), None);
                    }
                }
            }
            // Conservation: collected + still-pending == all faults.
            let pending_total: u64 = pending.values().sum();
            assert_eq!(collected + pending_total, faults_on_poisoned);
            // Aggregate stats agree.
            assert_eq!(trap.stats().faults, faults_on_poisoned);
            assert_eq!(trap.poisoned_len(), pending.len());
        }
    });
}

/// Two split windows, one huge leaf, and a few plain 4KB pages.
const WINDOWS: [u64; 2] = [512, 1024];
const HUGE: u64 = 2048;
const SINGLES: u64 = 8;

/// A leaf the single-page ops can name.
#[derive(Debug, Clone, Copy)]
enum Leaf {
    Single(u8),
    Child(u8, u16),
    Huge,
}

impl Leaf {
    fn vpn(self) -> Vpn {
        match self {
            Leaf::Single(i) => Vpn(i as u64),
            Leaf::Child(w, i) => Vpn(WINDOWS[w as usize] + i as u64),
            Leaf::Huge => Vpn(HUGE),
        }
    }

    fn size(self) -> PageSize {
        match self {
            Leaf::Huge => PageSize::Huge2M,
            _ => PageSize::Small4K,
        }
    }
}

#[derive(Debug, Clone)]
enum BulkOp {
    PoisonChildren(u8),
    UnpoisonChildren(u8),
    TakeChildren(u8),
    Poison(Leaf),
    Unpoison(Leaf),
    Fault(Leaf),
    Take(Leaf),
    Forget(Leaf),
}

fn leaf_strategy() -> impl Strategy<Value = Leaf> {
    // Children mostly from a few fixed offsets so single-leaf ops keep
    // landing on the same grouped windows.
    let child = weighted(vec![
        (3, range(0u16..3).boxed()),
        (1, range(509u16..512).boxed()),
        (1, range(0u16..PAGES_PER_HUGE as u16).boxed()),
    ]);
    weighted(vec![
        (2, range(0u8..SINGLES as u8).prop_map(Leaf::Single).boxed()),
        (
            6,
            (range(0u8..2), child)
                .prop_map(|(w, i)| Leaf::Child(w, i))
                .boxed(),
        ),
        (1, range(0u8..1).prop_map(|_| Leaf::Huge).boxed()),
    ])
}

fn bulk_op_strategy() -> impl Strategy<Value = BulkOp> {
    weighted(vec![
        (2, range(0u8..2).prop_map(BulkOp::PoisonChildren).boxed()),
        (2, range(0u8..2).prop_map(BulkOp::UnpoisonChildren).boxed()),
        (1, range(0u8..2).prop_map(BulkOp::TakeChildren).boxed()),
        (2, leaf_strategy().prop_map(BulkOp::Poison).boxed()),
        (2, leaf_strategy().prop_map(BulkOp::Unpoison).boxed()),
        (6, leaf_strategy().prop_map(BulkOp::Fault).boxed()),
        (2, leaf_strategy().prop_map(BulkOp::Take).boxed()),
        (1, leaf_strategy().prop_map(BulkOp::Forget).boxed()),
    ])
}

/// The per-leaf reference: counters, PTE poison bits and statistics.
#[derive(Default)]
struct RefTrap {
    counters: BTreeMap<Vpn, (u64, PageSize)>,
    pte_poisoned: BTreeMap<Vpn, bool>,
    stats: TrapStats,
}

impl RefTrap {
    fn poison(&mut self, vpn: Vpn, size: PageSize) {
        self.counters.insert(vpn, (0, size));
        self.pte_poisoned.insert(vpn, true);
        self.stats.poisons += 1;
    }

    fn unpoison(&mut self, vpn: Vpn) -> u64 {
        let (faults, _) = self.counters.remove(&vpn).expect("poisoned");
        self.pte_poisoned.insert(vpn, false);
        self.stats.unpoisons += 1;
        faults
    }

    fn sync(&mut self) {
        self.stats.poisoned_pages = self.counters.len() as u64;
    }
}

#[test]
fn bulk_ops_match_a_per_leaf_map() {
    forall!(cases = 96, (ops in vec_of(bulk_op_strategy(), 1..300)) => {
        let mut pt = PageTable::new();
        let mut tlb = Tlb::default();
        let mut trap = TrapUnit::new(TrapConfig::default());
        let vpid = Vpid(0);
        for i in 0..SINGLES {
            pt.map_small(Vpn(i), Pfn(100 + i), true).unwrap();
        }
        for (k, &w) in WINDOWS.iter().enumerate() {
            pt.map_huge(Vpn(w), Pfn((k as u64 + 1) * 512), true).unwrap();
            pt.split_huge(Vpn(w)).unwrap();
        }
        pt.map_huge(Vpn(HUGE), Pfn(4096), true).unwrap();
        // Every leaf, and the ones most ops land on: all of them are
        // compared after a bulk op, every 16th op and the last one.
        let mut all_leaves: Vec<Vpn> = (0..SINGLES).map(Vpn).collect();
        let mut hot_leaves = all_leaves.clone();
        for &w in &WINDOWS {
            all_leaves.extend((0..PAGES_PER_HUGE as u64).map(|i| Vpn(w + i)));
            hot_leaves.extend((0..3).chain(509..512).map(|i| Vpn(w + i)));
        }
        all_leaves.push(Vpn(HUGE));
        hot_leaves.push(Vpn(HUGE));

        let mut reference = RefTrap::default();
        for (step, op) in ops.iter().enumerate() {
            match *op {
                BulkOp::PoisonChildren(w) => {
                    let base = Vpn(WINDOWS[w as usize]);
                    trap.poison_children(&mut pt, &mut tlb, vpid, base);
                    for i in 0..PAGES_PER_HUGE as u64 {
                        reference.poison(base.offset(i), PageSize::Small4K);
                    }
                }
                BulkOp::UnpoisonChildren(w) => {
                    let base = Vpn(WINDOWS[w as usize]);
                    let all = (0..PAGES_PER_HUGE as u64)
                        .all(|i| reference.counters.contains_key(&base.offset(i)));
                    if all {
                        let got = trap.unpoison_children_sum(&mut pt, &mut tlb, vpid, base);
                        let want: u64 = (0..PAGES_PER_HUGE as u64)
                            .map(|i| reference.unpoison(base.offset(i)))
                            .sum();
                        assert_eq!(got, want, "step {step}: children sum");
                    }
                }
                BulkOp::TakeChildren(w) => {
                    let base = Vpn(WINDOWS[w as usize]);
                    let mut want = 0;
                    for i in 0..PAGES_PER_HUGE as u64 {
                        if let Some((faults, _)) = reference.counters.get_mut(&base.offset(i)) {
                            want += std::mem::take(faults);
                        }
                    }
                    assert_eq!(trap.take_children_sum(base), want, "step {step}: children take");
                }
                BulkOp::Poison(leaf) => {
                    trap.poison(&mut pt, &mut tlb, vpid, leaf.vpn(), leaf.size());
                    reference.poison(leaf.vpn(), leaf.size());
                }
                BulkOp::Unpoison(leaf) => {
                    if reference.counters.contains_key(&leaf.vpn()) {
                        let got = trap.unpoison(&mut pt, &mut tlb, vpid, leaf.vpn());
                        assert_eq!(got, reference.unpoison(leaf.vpn()), "step {step}: unpoison");
                    }
                }
                BulkOp::Fault(leaf) => {
                    assert_eq!(trap.on_fault(leaf.vpn()), 1_000);
                    if let Some((faults, _)) = reference.counters.get_mut(&leaf.vpn()) {
                        *faults += 1;
                    }
                    reference.stats.faults += 1;
                    reference.stats.fault_time_ns += 1_000;
                }
                BulkOp::Take(leaf) => {
                    let want = reference
                        .counters
                        .get_mut(&leaf.vpn())
                        .map(|(faults, _)| std::mem::take(faults));
                    assert_eq!(trap.take_count(leaf.vpn()), want, "step {step}: take");
                }
                BulkOp::Forget(leaf) => {
                    let want = reference.counters.remove(&leaf.vpn()).map(|(f, _)| f);
                    assert_eq!(trap.forget(leaf.vpn()), want, "step {step}: forget");
                }
            }
            reference.sync();
            assert_eq!(trap.stats(), reference.stats, "step {step}: stats");
            assert_eq!(trap.poisoned_len(), reference.counters.len(), "step {step}");
            let full = matches!(
                op,
                BulkOp::PoisonChildren(_) | BulkOp::UnpoisonChildren(_) | BulkOp::TakeChildren(_)
            )
                || step % 16 == 0
                || step + 1 == ops.len();
            let touched = match *op {
                BulkOp::Poison(leaf)
                | BulkOp::Unpoison(leaf)
                | BulkOp::Fault(leaf)
                | BulkOp::Take(leaf)
                | BulkOp::Forget(leaf) => Some(leaf.vpn()),
                _ => None,
            };
            let leaves = if full { &all_leaves } else { &hot_leaves };
            for &vpn in leaves.iter().chain(touched.iter()) {
                let want = reference.counters.get(&vpn).map(|&(f, _)| f);
                assert_eq!(trap.count(vpn), want, "step {step}: count of {vpn}");
                assert_eq!(trap.is_poisoned(vpn), want.is_some(), "step {step}: {vpn}");
                let pte = pt.lookup(vpn).expect("mapped").pte.poisoned();
                let want_pte = reference.pte_poisoned.get(&vpn).copied().unwrap_or(false);
                assert_eq!(pte, want_pte, "step {step}: PTE poison bit of {vpn}");
            }
        }
    });
}
