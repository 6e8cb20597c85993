//! Property test for the transactional migration fabric: under random
//! interleavings of application accesses, begin/commit/abort, compute
//! gaps, and structural invalidation (poison), the fabric must
//!
//! 1. never lose or duplicate residency — the allocator's per-tier books
//!    equal the page table's per-tier mapped bytes after every op (the
//!    copy is metadata-only until commit);
//! 2. resolve every begun transaction to exactly one of commit/abort;
//! 3. never charge a link more than its capacity per tick — the peak
//!    observed copy rate stays within the configured bandwidth.

use thermo_mem::{PageSize, Tier, VirtAddr, Vpn, PAGES_PER_HUGE};
use thermo_sim::{Engine, FabricConfig, OpOutcome, PlanOp, PolicyPlan, SimConfig};
use thermo_util::forall;
use thermo_util::proptest_lite::{any, range, vec_of, weighted, Strategy};

const N_HUGE: u64 = 6;
const FAST_BYTES: u64 = 64 << 20;
// Room for only 2 of the 6 huge pages: commits toward slow regularly OOM,
// which must resolve as clean aborts.
const SLOW_BYTES: u64 = 2 * (2 << 20);
// Narrow enough that copies span many ops (aborts get a real window),
// wide enough that commits do land.
const LINK_BW: u64 = 200_000_000;

#[derive(Debug, Clone)]
enum Op {
    /// Touch `(page, child)`, optionally as a write (writes during a copy
    /// must abort-and-retry the transaction, never corrupt it).
    Access(u8, u16, bool),
    /// Open a transaction moving `page` to the opposite tier.
    Begin(u8),
    /// Try to commit the `k % live`-th open transaction.
    Commit(u8),
    /// Abort the `k % live`-th open transaction.
    Abort(u8),
    /// Let virtual time pass without touching memory.
    Compute(u32),
    /// Poison `page` — structural invalidation of any in-flight copy.
    Poison(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let page = || range(0u8..N_HUGE as u8);
    weighted(vec![
        (
            5,
            (page(), range(0u16..PAGES_PER_HUGE as u16), any::<bool>())
                .prop_map(|(p, c, w)| Op::Access(p, c, w))
                .boxed(),
        ),
        (3, page().prop_map(Op::Begin).boxed()),
        (3, any::<u8>().prop_map(Op::Commit).boxed()),
        (1, any::<u8>().prop_map(Op::Abort).boxed()),
        (3, range(0u32..500_000).prop_map(Op::Compute).boxed()),
        (1, page().prop_map(Op::Poison).boxed()),
    ])
}

/// Invariant 1: the allocator's books equal the page table's mapped
/// bytes per tier. A fabric that held frames for in-flight copies, or a
/// commit that leaked the source frame, would break this.
fn assert_single_tier_residency(engine: &mut Engine) {
    let fb = engine.footprint_breakdown();
    let fast_used = FAST_BYTES - engine.free_bytes(Tier::Fast);
    let slow_used = SLOW_BYTES - engine.free_bytes(Tier::Slow);
    assert_eq!(
        fb.huge_fast + fb.small_fast,
        fast_used,
        "fast tier books ≠ mapped bytes"
    );
    assert_eq!(
        fb.huge_slow + fb.small_slow,
        slow_used,
        "slow tier books ≠ mapped bytes"
    );
}

fn vpn(base: VirtAddr, p: usize) -> Vpn {
    Vpn(base.vpn().0 + (p * PAGES_PER_HUGE) as u64)
}

#[test]
fn fabric_transactions_preserve_residency_and_resolve_exactly_once() {
    forall!(cases = 256, (ops in vec_of(op_strategy(), 1..120)) => {
        let mut cfg = SimConfig::paper_defaults(FAST_BYTES, SLOW_BYTES);
        cfg.fabric = FabricConfig {
            enabled: true,
            link_bandwidth_bytes_per_sec: LINK_BW,
            ..FabricConfig::default()
        };
        let mut engine = Engine::new(cfg);
        let base = engine.mmap(N_HUGE * (2 << 20), true, true, false, "heap");
        for p in 0..N_HUGE {
            engine.access(base + p * (2 << 20), true);
        }
        // Open transactions as (txn id, page index); at most one per page.
        let mut live: Vec<(u64, usize)> = Vec::new();

        for op in ops {
            match op {
                Op::Access(p, c, write) => {
                    let addr = base + (p as u64) * (2 << 20) + (c as u64) * 4096;
                    engine.access(addr, write);
                }
                Op::Begin(p) => {
                    let p = p as usize;
                    if live.iter().any(|&(_, lp)| lp == p) {
                        continue; // one transaction per page
                    }
                    let v = vpn(base, p);
                    let target = match engine.tier_of_vpn(v) {
                        Some(Tier::Fast) => Tier::Slow,
                        Some(Tier::Slow) => Tier::Fast,
                        None => panic!("page {p} lost its mapping"),
                    };
                    let mut plan = PolicyPlan::new();
                    plan.push(PlanOp::BeginMigrate { vpn: v, target });
                    let receipt = engine.apply_plan(&plan);
                    let OpOutcome::Begun(id) = receipt.outcomes()[0] else {
                        panic!("BeginMigrate must return Begun");
                    };
                    live.push((id, p));
                }
                Op::Commit(k) => {
                    if live.is_empty() {
                        continue;
                    }
                    let idx = k as usize % live.len();
                    let (id, _) = live[idx];
                    let mut plan = PolicyPlan::new();
                    plan.push(PlanOp::CommitMigrate { txn: id });
                    let receipt = engine.apply_plan(&plan);
                    match &receipt.outcomes()[0] {
                        // Resolved: landed, OOM-aborted, or failed-aborted.
                        OpOutcome::Done
                        | OpOutcome::DemoteOom
                        | OpOutcome::PromoteOom
                        | OpOutcome::AbortedTxn => {
                            live.remove(idx);
                        }
                        OpOutcome::Pending => {}
                        other => panic!("CommitMigrate returned {other:?}"),
                    }
                }
                Op::Abort(k) => {
                    if live.is_empty() {
                        continue;
                    }
                    let idx = k as usize % live.len();
                    let (id, _) = live[idx];
                    let mut plan = PolicyPlan::new();
                    plan.push(PlanOp::AbortMigrate { txn: id });
                    let receipt = engine.apply_plan(&plan);
                    assert_eq!(receipt.outcomes()[0], OpOutcome::Done);
                    live.remove(idx);
                }
                Op::Compute(ns) => engine.advance_compute(ns as u64),
                Op::Poison(p) => {
                    let mut plan = PolicyPlan::new();
                    plan.push(PlanOp::Poison {
                        vpn: vpn(base, p as usize),
                        size: PageSize::Huge2M,
                    });
                    assert_eq!(engine.apply_plan(&plan).outcomes().len(), 1);
                    // The overlapping transaction (if any) is now failed
                    // but must still resolve via commit/abort — keep it.
                }
            }
            assert_single_tier_residency(&mut engine);
            // Invariant 3: the copy engine never exceeds link capacity.
            let stats = engine.fabric_stats();
            assert!(
                stats.peak_bytes_per_sec <= LINK_BW,
                "peak copy rate {} exceeds link bandwidth {LINK_BW}",
                stats.peak_bytes_per_sec
            );
        }

        // Invariant 2: every begun transaction resolves to exactly one of
        // commit/abort. Drain the stragglers, then balance the books.
        for (id, _) in live {
            let mut plan = PolicyPlan::new();
            plan.push(PlanOp::AbortMigrate { txn: id });
            assert_eq!(engine.apply_plan(&plan).outcomes()[0], OpOutcome::Done);
        }
        let stats = engine.fabric_stats();
        assert_eq!(engine.fabric().in_flight(), 0, "unresolved transactions");
        assert_eq!(
            stats.begun,
            stats.committed + stats.aborted,
            "begun must equal committed + aborted once drained"
        );
        for p in 0..N_HUGE as usize {
            assert!(
                engine.tier_of_vpn(vpn(base, p)).is_some(),
                "page {p} lost its mapping"
            );
        }
    });
}
