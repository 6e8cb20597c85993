use super::*;
use thermo_mem::{MemError, PAGES_PER_HUGE};

fn small_engine() -> Engine {
    Engine::new(SimConfig::paper_defaults(64 << 20, 64 << 20))
}

#[test]
fn first_touch_allocates_thp() {
    let mut e = small_engine();
    let base = e.mmap(4 << 20, true, true, false, "heap");
    e.access(base + 123, false);
    assert_eq!(e.stats().minor_faults_huge, 1);
    assert_eq!(e.rss_bytes(), 2 << 20);
    // Second access in same huge page: no new fault, TLB hit.
    e.access(base + 4096, false);
    assert_eq!(e.stats().minor_faults_huge, 1);
    assert_eq!(e.tlb_stats().l1_hits, 1);
}

#[test]
fn non_thp_vma_uses_small_pages() {
    let mut e = small_engine();
    let base = e.mmap(4 << 20, false, true, false, "file");
    e.access(base, false);
    assert_eq!(e.stats().minor_faults_small, 1);
    assert_eq!(e.rss_bytes(), 4096);
}

#[test]
#[should_panic(expected = "segfault")]
fn out_of_vma_access_panics() {
    let mut e = small_engine();
    e.access(VirtAddr(0x100), false);
}

#[test]
fn llc_hit_after_miss() {
    let mut e = small_engine();
    let base = e.mmap(2 << 20, true, true, false, "heap");
    e.access(base, false);
    assert_eq!(e.stats().llc_misses, 1);
    e.access(base + 8, false); // same line
    assert_eq!(e.stats().llc_hits, 1);
}

#[test]
fn clock_advances_with_access_latency() {
    let mut e = small_engine();
    let base = e.mmap(2 << 20, true, true, false, "heap");
    let lat = e.access(base, false);
    assert!(lat > 0);
    assert_eq!(e.now_ns(), lat);
    e.advance_compute(500);
    assert_eq!(e.now_ns(), lat + 500);
}

#[test]
fn poison_fault_counted_and_charged() {
    let mut e = small_engine();
    let base = e.mmap(2 << 20, true, true, false, "heap");
    e.access(base, false); // demand-page as THP
    let hvpn = base.vpn();
    e.poison_page(hvpn, PageSize::Huge2M);
    let lat = e.access(base + 64, false);
    assert!(lat >= 1_000, "fault latency must be charged, got {lat}");
    assert_eq!(e.trap().count(hvpn), Some(1));
    assert_eq!(e.stats().fast_trap_faults, 1);
    // TLB entry installed by the handler: next access doesn't fault.
    e.access(base + 128, false);
    assert_eq!(e.trap().count(hvpn), Some(1));
    assert_eq!(e.unpoison_page(hvpn), 1);
}

#[test]
fn split_then_sample_then_collapse() {
    let mut e = small_engine();
    let base = e.mmap(2 << 20, true, true, false, "heap");
    e.access(base, false);
    let hvpn = base.vpn();
    e.split_huge(hvpn).unwrap();
    // Poison one 4KB child; access it.
    e.poison_page(hvpn.offset(3), PageSize::Small4K);
    e.access(base + 3 * 4096, true);
    assert_eq!(e.trap().count(hvpn.offset(3)), Some(1));
    assert_eq!(e.unpoison_page(hvpn.offset(3)), 1);
    e.collapse_huge(hvpn).unwrap();
    assert_eq!(e.page_table().mapped_huge_pages(), 1);
}

#[test]
fn migrate_huge_to_slow_and_back() {
    let mut e = small_engine();
    let base = e.mmap(2 << 20, true, true, false, "heap");
    e.access(base, false);
    let hvpn = base.vpn();
    assert_eq!(e.tier_of_vpn(hvpn), Some(Tier::Fast));
    e.migrate_page(hvpn, Tier::Slow).unwrap();
    assert_eq!(e.tier_of_vpn(hvpn), Some(Tier::Slow));
    // Already there -> error.
    assert!(matches!(
        e.migrate_page(hvpn, Tier::Slow),
        Err(MemError::AlreadyInTier { .. })
    ));
    e.migrate_page(hvpn, Tier::Fast).unwrap();
    assert_eq!(e.tier_of_vpn(hvpn), Some(Tier::Fast));
    let ms = e.migration_stats();
    assert_eq!(ms.to_slow_pages, 1);
    assert_eq!(ms.back_to_fast_pages, 1);
}

#[test]
fn slow_trap_fault_recorded_in_series() {
    let mut e = small_engine();
    let base = e.mmap(2 << 20, true, true, false, "heap");
    e.access(base, false);
    let hvpn = base.vpn();
    e.migrate_page(hvpn, Tier::Slow).unwrap();
    e.poison_page(hvpn, PageSize::Huge2M);
    e.access(base + 64, false);
    assert_eq!(e.stats().slow_trap_faults, 1);
    assert_eq!(e.slow_series().total(), 1);
}

#[test]
fn migrate_split_huge_restores_contiguity() {
    let mut e = small_engine();
    let base = e.mmap(2 << 20, true, true, false, "heap");
    e.access(base, false);
    let hvpn = base.vpn();
    e.split_huge(hvpn).unwrap();
    e.migrate_split_huge(hvpn, Tier::Slow).unwrap();
    assert_eq!(e.tier_of_vpn(hvpn), Some(Tier::Slow));
    // Contiguous again: collapse must succeed.
    e.collapse_huge(hvpn).unwrap();
    assert_eq!(e.page_table().mapped_huge_pages(), 1);
    assert_eq!(e.migration_stats().to_slow_bytes, 2 << 20);
}

#[test]
fn footprint_breakdown_tracks_tiers_and_sizes() {
    let mut e = small_engine();
    let a = e.mmap(2 << 20, true, true, false, "huge");
    let b = e.mmap(8192, false, true, false, "small");
    e.access(a, false);
    e.access(b, false);
    e.access(b + 4096, false);
    let fb = e.footprint_breakdown();
    assert_eq!(fb.huge_fast, 2 << 20);
    assert_eq!(fb.small_fast, 8192);
    assert_eq!(fb.cold(), 0);
    e.migrate_page(a.vpn(), Tier::Slow).unwrap();
    let fb = e.footprint_breakdown();
    assert_eq!(fb.huge_slow, 2 << 20);
    assert!((fb.cold_fraction() - (2 << 20) as f64 / fb.total() as f64).abs() < 1e-12);
}

#[test]
fn region_breakdown_attributes_tiers_per_vma() {
    let mut e = small_engine();
    let a = e.mmap(2 << 20, true, true, false, "hot-region");
    let b = e.mmap(2 << 20, true, true, false, "cold-region");
    e.access(a, false);
    e.access(b, false);
    e.migrate_page(b.vpn(), Tier::Slow).unwrap();
    let rb = e.region_breakdown();
    let get = |name: &str| {
        rb.iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| *b)
            .expect("region present")
    };
    assert_eq!(get("hot-region").cold(), 0);
    assert_eq!(get("cold-region").cold(), 2 << 20);
    // Regions sum to the global breakdown.
    let total: u64 = rb.iter().map(|(_, b)| b.total()).sum();
    assert_eq!(total, e.footprint_breakdown().total());
}

#[test]
fn scan_accessed_via_engine() {
    let mut e = small_engine();
    let base = e.mmap(2 << 20, true, true, false, "heap");
    e.access(base, false);
    let mut hits = Vec::new();
    e.scan_and_clear_accessed(base.vpn(), 512, &mut hits);
    assert_eq!(hits.len(), 1);
    assert!(hits[0].accessed);
    // Re-scan without intervening access: idle.
    hits.clear();
    e.scan_and_clear_accessed(base.vpn(), 512, &mut hits);
    assert!(!hits[0].accessed);
    // Access again (TLB was shot down, so the walk re-sets A).
    e.access(base, false);
    hits.clear();
    e.scan_and_clear_accessed(base.vpn(), 512, &mut hits);
    assert!(hits[0].accessed);
}

#[test]
fn true_access_tracking_when_enabled() {
    let mut cfg = SimConfig::paper_defaults(64 << 20, 64 << 20);
    cfg.track_true_access = true;
    let mut e = Engine::new(cfg);
    let base = e.mmap(2 << 20, true, true, false, "heap");
    e.access(base, false);
    e.access(base, true);
    e.access(base + 4096, false);
    assert_eq!(e.true_access_counts()[&base.vpn()], 2);
    assert_eq!(e.true_access_counts()[&(base + 4096).vpn()], 1);
    e.reset_true_access();
    assert!(e.true_access_counts().is_empty());
}

#[test]
fn thp_fault_falls_back_to_small_pages_when_no_huge_frame_is_free() {
    // One 2MB block of fast memory; a 4KB allocation breaks it, so the
    // later THP-eligible touch cannot get a huge frame and must fall
    // back to a 4KB mapping (Linux THP does the same).
    let mut cfg = SimConfig::paper_defaults(2 << 20, 16 << 20);
    let mut e = Engine::new(cfg.clone());
    let small_vma = e.mmap(4096, false, true, false, "small");
    e.access(small_vma, true); // carves a 4KB frame out of the only block
    let thp_vma = e.mmap(2 << 20, true, true, false, "thp");
    e.access(thp_vma, true);
    assert_eq!(
        e.stats().minor_faults_huge,
        0,
        "no huge frame was available"
    );
    assert_eq!(e.stats().minor_faults_small, 2);
    assert_eq!(e.rss_bytes(), 2 * 4096);
    // And with THP disabled the same layout never even tries.
    cfg.thp_enabled = false;
    let mut e2 = Engine::new(cfg);
    let v = e2.mmap(2 << 20, true, true, false, "thp");
    e2.access(v, true);
    assert_eq!(e2.stats().minor_faults_huge, 0);
    assert_eq!(e2.stats().minor_faults_small, 1);
}

#[test]
fn os_noise_flush_causes_rewalks() {
    let mut cfg = SimConfig::paper_defaults(64 << 20, 64 << 20);
    cfg.tlb_flush_period_ns = Some(10_000);
    let mut e = Engine::new(cfg);
    let base = e.mmap(2 << 20, true, true, false, "heap");
    e.access(base, true);
    let walks_before = e.stats().walks;
    // Two accesses separated by more than the flush period: the second
    // must re-walk even though the translation was cached.
    e.advance_compute(50_000);
    e.access(base + 64, false);
    assert!(e.stats().walks > walks_before, "flush must force a re-walk");
}

#[test]
fn writes_set_dirty_bit_and_feed_wear_on_slow_tier() {
    let mut e = small_engine();
    let base = e.mmap(2 << 20, true, true, false, "heap");
    e.access(base, true);
    assert!(e.page_table().lookup(base.vpn()).unwrap().pte.dirty());
    e.migrate_page(base.vpn(), Tier::Slow).unwrap();
    // Writes to the slow tier are recorded as device wear.
    e.access(base + 4096, true);
    assert!(e.memory().wear().stats().total_bytes_written > 0);
}

#[test]
fn direct_mode_charges_slow_latency_on_llc_miss() {
    let mut cfg = SimConfig::paper_defaults(64 << 20, 64 << 20);
    cfg.cold_model = ColdAccessModel::Direct;
    let mut e = Engine::new(cfg);
    let base = e.mmap(2 << 20, true, true, false, "heap");
    e.access(base, false);
    e.migrate_page(base.vpn(), Tier::Slow).unwrap();
    // Different line, LLC miss, slow tier, no poison.
    let lat = e.access(base + 4096, false);
    assert!(lat >= 1_000, "slow read must cost ~1us, got {lat}");
    assert_eq!(e.stats().slow_tier_accesses, 1);
    assert_eq!(e.slow_series().total(), 1);
}

// ----------------------------------------------------------------------
// MemoryView (the snapshot half of the policy seam)
// ----------------------------------------------------------------------

/// Builds an engine with a 96MB VMA holding a mix of huge, split, poisoned
/// and migrated leaves on both sides of 32MB boundaries, plus a second
/// small VMA of 4KB pages.
fn mixed_engine() -> (Engine, VirtAddr, VirtAddr) {
    let mut e = Engine::new(SimConfig::paper_defaults(256 << 20, 256 << 20));
    let a = e.mmap(96 << 20, true, true, false, "big");
    let b = e.mmap(4 << 20, false, true, false, "small");
    // Touch huge pages on both sides of the 32MB boundaries.
    for mb in [0u64, 2, 30, 32, 34, 60, 94] {
        e.access(a + (mb << 20), true);
    }
    for i in 0..8u64 {
        e.access(b + i * 4096, i % 2 == 0);
    }
    // Mixed state: split one page, poison another, demote a third.
    e.split_huge((a + (30 << 20)).vpn()).unwrap();
    e.poison_page((a + (32 << 20)).vpn(), PageSize::Huge2M);
    e.migrate_page((a + (60 << 20)).vpn(), Tier::Slow).unwrap();
    (e, a, b)
}

/// Asserts that `view` holds, range by range, exactly the leaves a
/// `read_accessed` of that range alone reports, in the same order.
fn assert_spans_match_read_accessed(e: &mut Engine, view: &MemoryView, ranges: &[(Vpn, u64)]) {
    let mut total = 0;
    for (i, &(start, n)) in ranges.iter().enumerate() {
        let mut hits = Vec::new();
        e.read_accessed(start, n, &mut hits);
        let span = view.range_pages(i);
        assert_eq!(span.len(), hits.len(), "range {i}");
        for (p, h) in span.iter().zip(&hits) {
            assert_eq!(p.base_vpn, h.base_vpn, "range {i}");
            assert_eq!(p.size, h.size);
            assert_eq!(p.accessed, h.accessed);
            assert_eq!(p.dirty, h.dirty);
            assert_eq!(p.poisoned, e.trap().is_poisoned(p.base_vpn));
            assert_eq!(Some(p.tier), e.tier_of_vpn(p.base_vpn));
        }
        assert_eq!(view.pages()[total..total + span.len()], *span, "range {i}");
        total += span.len();
    }
    assert_eq!(view.pages().len(), total);
    assert_eq!(view.ptes_visited(), total as u64);
}

#[test]
fn memory_view_matches_read_accessed_and_footprint() {
    let (mut e, a, _) = mixed_engine();
    // The VMA ranges: the 96MB one crosses two 32MB boundaries.
    let ranges = e.vma_ranges();
    let view = e.memory_view_uncharged(&ranges);
    assert_spans_match_read_accessed(&mut e, &view, &ranges);
    // Aggregates agree with the engine's own walk.
    assert_eq!(view.breakdown(), e.footprint_breakdown());

    // Ranges shaped like the daemon's poison phase: one huge page each, out
    // of address order, covering a split, a poisoned, a demoted, a plain and
    // an unmapped huge slot.
    let ranges: Vec<(Vpn, u64)> = [60u64, 30, 32, 0, 40]
        .iter()
        .map(|mb| ((a + (mb << 20)).vpn(), PAGES_PER_HUGE as u64))
        .collect();
    let view = e.memory_view_uncharged(&ranges);
    assert_spans_match_read_accessed(&mut e, &view, &ranges);
    assert_eq!(view.range_pages(1).len(), PAGES_PER_HUGE);
    assert!(view.range_pages(4).is_empty());
}

#[test]
fn memory_view_is_immutable_under_later_migrations() {
    let (mut e, a, _) = mixed_engine();
    let ranges = e.vma_ranges();
    let view = e.memory_view_uncharged(&ranges);
    let victim = a.vpn();
    assert_eq!(view.find(victim).unwrap().tier, Tier::Fast);
    // Mutate the machine mid-period: demote, split, poison.
    e.migrate_page(victim, Tier::Slow).unwrap();
    e.split_huge((a + (2 << 20)).vpn()).unwrap();
    e.poison_page((a + (34 << 20)).vpn(), PageSize::Huge2M);
    // The snapshot still reports the state at capture time.
    let p = view.find(victim).unwrap();
    assert_eq!(p.tier, Tier::Fast);
    assert_eq!(p.size, PageSize::Huge2M);
    assert!(!view.find((a + (34 << 20)).vpn()).unwrap().poisoned);
    // A fresh view sees the new state.
    let now = e.memory_view_uncharged(&ranges);
    assert_eq!(now.find(victim).unwrap().tier, Tier::Slow);
}

#[test]
fn memory_view_charges_exact_scan_visit_cost() {
    let (mut e, _, _) = mixed_engine();
    let ranges = e.vma_ranges();
    let before = e.stats().kernel_time_ns;
    let uncharged = e.memory_view_uncharged(&ranges);
    assert_eq!(e.stats().kernel_time_ns, before, "uncharged view is free");
    let view = e.memory_view(&ranges);
    assert_eq!(
        e.stats().kernel_time_ns - before,
        view.ptes_visited() * SCAN_VISIT_NS
    );
    assert_eq!(view.ptes_visited(), uncharged.ptes_visited());
}

#[test]
fn view_plus_targeted_clear_costs_what_fused_scan_did() {
    // Cost parity: snapshot (visit charge) + ClearAccessed plan op
    // (shootdown charge) must equal the historical fused
    // scan_and_clear_accessed over the same ranges — proving the seam
    // never changes virtual time.
    let (mut split, _, _) = mixed_engine();
    let (mut fused, _, _) = mixed_engine();
    let ranges = split.vma_ranges();

    let k0 = fused.stats().kernel_time_ns;
    let mut hits = Vec::new();
    for &(start, n) in &ranges {
        fused.scan_and_clear_accessed(start, n, &mut hits);
    }
    let fused_cost = fused.stats().kernel_time_ns - k0;

    let k0 = split.stats().kernel_time_ns;
    let view = split.memory_view(&ranges);
    let accessed: Vec<(Vpn, PageSize)> = view
        .pages()
        .iter()
        .filter(|p| p.accessed)
        .map(|p| (p.base_vpn, p.size))
        .collect();
    let mut plan = PolicyPlan::new();
    plan.push(PlanOp::ClearAccessed { pages: accessed });
    assert_eq!(split.apply_plan(&plan).outcomes(), [OpOutcome::Done]);
    let split_cost = split.stats().kernel_time_ns - k0;

    assert_eq!(split_cost, fused_cost);
    // And both machines end with identical A bits.
    assert_eq!(
        split.memory_view_uncharged(&ranges).pages(),
        fused.memory_view_uncharged(&ranges).pages()
    );
}

// ----------------------------------------------------------------------
// PolicyPlan (the write-back half of the policy seam)
// ----------------------------------------------------------------------

#[test]
fn apply_plan_sample_poison_count_cycle() {
    let mut e = small_engine();
    let base = e.mmap(2 << 20, true, true, false, "heap");
    e.access(base, false);
    let hvpn = base.vpn();

    let mut plan = PolicyPlan::new();
    plan.push(PlanOp::SplitSample { vpn: hvpn });
    plan.push(PlanOp::Poison {
        vpn: hvpn.offset(3),
        size: PageSize::Small4K,
    });
    let receipt = e.apply_plan(&plan);
    assert_eq!(receipt.outcomes(), &[OpOutcome::Done, OpOutcome::Done]);
    assert!(receipt.kernel_time_ns() > 0);

    e.access(base + 3 * 4096, true); // fault on the poisoned child

    let mut plan = PolicyPlan::new();
    plan.push(PlanOp::UnpoisonSum {
        vpns: vec![hvpn.offset(3)],
    });
    plan.push(PlanOp::Collapse { vpn: hvpn });
    let receipt = e.apply_plan(&plan);
    assert_eq!(receipt.outcomes()[0], OpOutcome::Faults(1));
    assert_eq!(e.page_table().mapped_huge_pages(), 1);
}

#[test]
fn apply_plan_demote_consolidate_promote_roundtrip() {
    let mut e = small_engine();
    let base = e.mmap(2 << 20, true, true, false, "heap");
    e.access(base, false);
    let hvpn = base.vpn();
    e.split_huge(hvpn).unwrap();

    // Demote: split page to slow, all children poisoned.
    let mut plan = PolicyPlan::new();
    plan.push(PlanOp::DemoteHuge { vpn: hvpn });
    let receipt = e.apply_plan(&plan);
    assert_eq!(receipt.outcomes(), &[OpOutcome::Done]);
    assert_eq!(e.tier_of_vpn(hvpn), Some(Tier::Slow));
    assert!(e.trap().is_poisoned(hvpn.offset(7)));

    e.access(base + 7 * 4096, false); // one fault on a cold child

    // Consolidate: drain children, collapse, poison the huge PTE.
    let mut plan = PolicyPlan::new();
    plan.push(PlanOp::ConsolidateCold { vpn: hvpn });
    let receipt = e.apply_plan(&plan);
    assert_eq!(receipt.outcomes(), &[OpOutcome::Faults(1)]);
    assert_eq!(e.page_table().mapped_huge_pages(), 1);
    assert!(e.trap().is_poisoned(hvpn));

    // Promote the consolidated page back.
    let mut plan = PolicyPlan::new();
    plan.push(PlanOp::PromoteHuge {
        vpn: hvpn,
        split: false,
    });
    let receipt = e.apply_plan(&plan);
    assert_eq!(receipt.outcomes(), &[OpOutcome::Done]);
    assert_eq!(e.tier_of_vpn(hvpn), Some(Tier::Fast));
    assert!(!e.trap().is_poisoned(hvpn));
}

#[test]
fn apply_plan_demote_oom_collapses_back() {
    // Slow tier smaller than one huge frame: demotion must fail cleanly.
    let mut e = Engine::new(SimConfig::paper_defaults(64 << 20, 1 << 20));
    let base = e.mmap(2 << 20, true, true, false, "heap");
    e.access(base, false);
    let hvpn = base.vpn();
    e.split_huge(hvpn).unwrap();

    let mut plan = PolicyPlan::new();
    plan.push(PlanOp::DemoteHuge { vpn: hvpn });
    let receipt = e.apply_plan(&plan);
    assert_eq!(receipt.outcomes(), &[OpOutcome::DemoteOom]);
    // Fallback restored the huge mapping in fast memory, unpoisoned.
    assert_eq!(e.tier_of_vpn(hvpn), Some(Tier::Fast));
    assert_eq!(e.page_table().mapped_huge_pages(), 1);
    assert!(!e.trap().is_poisoned(hvpn));
}

#[test]
fn apply_plan_promote_oom_repoisons() {
    // Fill the fast tier completely, then split-place one child to slow
    // memory and backfill its freed 4KB frame — so the promotion attempt
    // finds no room and must leave the child cold and monitored.
    let mut e = Engine::new(SimConfig::paper_defaults(4 << 20, 64 << 20));
    let hot = e.mmap(2 << 20, true, true, false, "hot");
    let cold = e.mmap(2 << 20, true, true, false, "cold");
    e.access(hot, false);
    e.access(cold, false);
    let cold_vpn = cold.vpn();
    e.split_huge(cold_vpn).unwrap();
    e.migrate_page(cold_vpn, Tier::Slow).unwrap();
    e.poison_page(cold_vpn, PageSize::Small4K);
    let filler = e.mmap(4096, false, true, false, "filler");
    e.access(filler, false); // takes the 4KB the migration freed

    let mut plan = PolicyPlan::new();
    plan.push(PlanOp::PromoteChild { vpn: cold_vpn });
    let receipt = e.apply_plan(&plan);
    assert_eq!(receipt.outcomes(), &[OpOutcome::PromoteOom]);
    assert_eq!(e.tier_of_vpn(cold_vpn), Some(Tier::Slow));
    assert!(e.trap().is_poisoned(cold_vpn), "must stay monitored");
}

#[test]
fn apply_plan_split_place_moves_only_requested_children() {
    let mut e = small_engine();
    let base = e.mmap(2 << 20, true, true, false, "heap");
    e.access(base, false);
    let hvpn = base.vpn();
    e.split_huge(hvpn).unwrap();

    let cold: Vec<Vpn> = (8..512).map(|i| hvpn.offset(i)).collect();
    let mut plan = PolicyPlan::new();
    plan.push(PlanOp::SplitPlace {
        vpn: hvpn,
        cold_children: cold.clone(),
    });
    let receipt = e.apply_plan(&plan);
    match &receipt.outcomes()[0] {
        OpOutcome::Placed(placed) => assert_eq!(placed, &cold),
        o => panic!("expected Placed, got {o:?}"),
    }
    // Hot children stayed fast and unpoisoned; cold ones are slow+poisoned.
    assert_eq!(e.tier_of_vpn(hvpn), Some(Tier::Fast));
    assert!(!e.trap().is_poisoned(hvpn));
    assert_eq!(e.tier_of_vpn(hvpn.offset(300)), Some(Tier::Slow));
    assert!(e.trap().is_poisoned(hvpn.offset(300)));
}
