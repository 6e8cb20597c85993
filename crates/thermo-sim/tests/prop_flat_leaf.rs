//! Property test for the flat-leaf translation path: after any random
//! sequence of plan ops (applied through `Engine::apply_plan`), the flat
//! leaf array must remain coherent — the linear enumeration
//! (`for_each_leaf`, what `MemoryView` shards read), the per-page walk
//! (`lookup`, what `Engine::access` resolves through), the leaf
//! counters, and a shadow model of the Thermostat page lifecycle must
//! all agree.
//!
//! The ops between two accesses form one plan. A twin engine applies
//! each plan as one-op plans instead: `apply_plan` runs ops in program
//! order, so outcomes, summed kernel time, engine and trap counters and
//! the footprint must all match the whole-plan engine.

use thermo_mem::{PageSize, VirtAddr, Vpn, PAGES_PER_HUGE};
use thermo_sim::{Engine, PlanOp, PolicyPlan, SimConfig};
use thermo_util::forall;
use thermo_util::proptest_lite::{any, range, vec_of, weighted, Strategy};

const N_HUGE: u64 = 8;

/// Shadow lifecycle state of one 2MB page (paper §3.2/§3.5).
#[derive(Debug, Clone, Copy, PartialEq)]
enum St {
    /// Unsplit, unpoisoned (hot, fast tier).
    Huge,
    /// Split into 512 children for sampling, unpoisoned.
    Split,
    /// Split, demoted to slow, all children poisoned.
    ColdSplit,
    /// Consolidated back to one huge PTE, poisoned, slow tier.
    Cold,
    /// Unsplit, poisoned in place (BadgerTrap counting).
    PoisonHuge,
}

#[derive(Debug, Clone)]
enum Op {
    Access(u8, u16, bool),
    SplitSample(u8),
    Collapse(u8),
    Demote(u8),
    Consolidate(u8),
    Promote(u8),
    Poison(u8),
    Unpoison(u8),
    TakeCounts(u8),
    ClearAccessed(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let page = || range(0u8..N_HUGE as u8);
    weighted(vec![
        (
            3,
            (page(), any::<u16>(), any::<bool>())
                .prop_map(|(p, l, w)| Op::Access(p, l, w))
                .boxed(),
        ),
        (2, page().prop_map(Op::SplitSample).boxed()),
        (2, page().prop_map(Op::Collapse).boxed()),
        (2, page().prop_map(Op::Demote).boxed()),
        (2, page().prop_map(Op::Consolidate).boxed()),
        (2, page().prop_map(Op::Promote).boxed()),
        (1, page().prop_map(Op::Poison).boxed()),
        (1, page().prop_map(Op::Unpoison).boxed()),
        (1, page().prop_map(Op::TakeCounts).boxed()),
        (1, page().prop_map(Op::ClearAccessed).boxed()),
    ])
}

fn vpn(base: VirtAddr, p: usize) -> Vpn {
    Vpn(base.vpn().0 + (p * PAGES_PER_HUGE) as u64)
}

/// The coherence invariant: every read path over the flat leaf array
/// tells the same story, and that story matches the shadow model.
fn check_coherence(engine: &Engine, base: VirtAddr, shadow: &[St; N_HUGE as usize]) {
    let pt = engine.page_table();
    let start = base.vpn();
    let n_pages = N_HUGE * PAGES_PER_HUGE as u64;

    // 1. Linear enumeration — the MemoryView read path.
    let mut leaves: Vec<(Vpn, PageSize, thermo_vm::Pte)> = Vec::new();
    pt.for_each_leaf(start, n_pages, |v, s, pte| leaves.push((v, s, *pte)));

    // 2. Leaf counters agree with both the enumeration and the shadow.
    let huge_leaves = leaves
        .iter()
        .filter(|(_, s, _)| *s == PageSize::Huge2M)
        .count() as u64;
    let small_leaves = leaves
        .iter()
        .filter(|(_, s, _)| *s == PageSize::Small4K)
        .count() as u64;
    assert_eq!(pt.mapped_huge_pages(), huge_leaves);
    assert_eq!(pt.mapped_small_pages(), small_leaves);
    let want_huge = shadow
        .iter()
        .filter(|s| matches!(s, St::Huge | St::Cold | St::PoisonHuge))
        .count() as u64;
    assert_eq!(huge_leaves, want_huge, "shadow: {shadow:?}");
    assert_eq!(
        small_leaves,
        (N_HUGE - want_huge) * PAGES_PER_HUGE as u64,
        "shadow: {shadow:?}"
    );

    // 3. Per-page walk — the Engine::access read path — agrees with the
    //    enumeration on every 4KB page: same leaf, same PTE word, and the
    //    resolved frame is the leaf's base frame plus the in-leaf index.
    let mut it = leaves.iter().peekable();
    for raw in start.0..start.0 + n_pages {
        let v = Vpn(raw);
        let m = pt.lookup(v).expect("whole range stays mapped");
        let &&(lv, ls, lpte) = it.peek().expect("leaf covers every page");
        assert_eq!(m.base_vpn, lv, "walk and enumeration disagree at {v}");
        assert_eq!(m.size, ls);
        assert_eq!(m.pte, lpte, "PTE mismatch at {v}");
        assert_eq!(m.frame_for(v), m.pte.pfn().offset(raw - lv.0));
        let covered = lv.0
            + match ls {
                PageSize::Small4K => 1,
                PageSize::Huge2M => PAGES_PER_HUGE as u64,
            };
        if raw + 1 == covered {
            it.next();
        }
    }
    assert!(it.next().is_none(), "enumeration has leaves past the range");

    // 4. Per-page shadow semantics: size and poison bit per lifecycle
    //    state (split placement poisons children; consolidation re-poisons
    //    the collapsed PTE).
    for (p, st) in shadow.iter().enumerate() {
        let m = pt.lookup(vpn(base, p)).unwrap();
        let (want_size, want_poison) = match st {
            St::Huge => (PageSize::Huge2M, false),
            St::Split => (PageSize::Small4K, false),
            St::ColdSplit => (PageSize::Small4K, true),
            St::Cold => (PageSize::Huge2M, true),
            St::PoisonHuge => (PageSize::Huge2M, true),
        };
        assert_eq!(m.size, want_size, "page {p} in {st:?}");
        assert_eq!(m.pte.poisoned(), want_poison, "page {p} in {st:?}");
    }
}

/// Applies `plan` whole to `engine` and op by op to `twin`, and checks
/// that both tell the same story.
fn apply_both(engine: &mut Engine, twin: &mut Engine, plan: &PolicyPlan) {
    let receipt = engine.apply_plan(plan);
    assert_eq!(receipt.outcomes().len(), plan.len());
    let mut outcomes = Vec::new();
    let mut kernel_time_ns = 0;
    for op in plan.ops() {
        let mut single = PolicyPlan::new();
        single.push(op.clone());
        let r = twin.apply_plan(&single);
        outcomes.extend_from_slice(r.outcomes());
        kernel_time_ns += r.kernel_time_ns();
    }
    assert_eq!(receipt.outcomes(), &outcomes[..], "plan {plan:?}");
    assert_eq!(receipt.kernel_time_ns(), kernel_time_ns, "plan {plan:?}");
    assert_eq!(engine.stats(), twin.stats());
    assert_eq!(engine.trap_stats(), twin.trap_stats());
    assert_eq!(engine.footprint_breakdown(), twin.footprint_breakdown());
}

#[test]
fn flat_leaves_stay_coherent_under_plan_ops() {
    forall!(cases = 24, (ops in vec_of(op_strategy(), 1..200)) => {
        // Equal, roomy tiers: migrations never hit OOM, so every op takes
        // its documented main path and the shadow stays exact.
        let fresh = || {
            let mut engine = Engine::new(SimConfig::paper_defaults(64 << 20, 64 << 20));
            let base = engine.mmap(N_HUGE * (2 << 20), true, true, false, "heap");
            for p in 0..N_HUGE {
                engine.access(base + p * (2 << 20), true);
            }
            (engine, base)
        };
        let (mut engine, base) = fresh();
        let (mut twin, _) = fresh();
        let mut shadow = [St::Huge; N_HUGE as usize];
        // Ops are filtered to structurally legal ones against the shadow,
        // which already holds every earlier op of the pending plan
        // (apply_plan documents structural misuse as a policy bug / panic).
        let mut plan = PolicyPlan::new();

        for op in ops {
            match op {
                Op::Access(p, line, write) => {
                    if !plan.is_empty() {
                        apply_both(&mut engine, &mut twin, &plan);
                        check_coherence(&engine, base, &shadow);
                        plan = PolicyPlan::new();
                    }
                    let off = (line as u64 * 64) % (2 << 20);
                    let va = base + p as u64 * (2 << 20) + off;
                    assert_eq!(engine.access(va, write), twin.access(va, write));
                }
                Op::SplitSample(p) => {
                    if shadow[p as usize] == St::Huge {
                        plan.push(PlanOp::SplitSample { vpn: vpn(base, p as usize) });
                        shadow[p as usize] = St::Split;
                    }
                }
                Op::Collapse(p) => {
                    if shadow[p as usize] == St::Split {
                        plan.push(PlanOp::Collapse { vpn: vpn(base, p as usize) });
                        shadow[p as usize] = St::Huge;
                    }
                }
                Op::Demote(p) => {
                    if shadow[p as usize] == St::Split {
                        plan.push(PlanOp::DemoteHuge { vpn: vpn(base, p as usize) });
                        shadow[p as usize] = St::ColdSplit;
                    }
                }
                Op::Consolidate(p) => {
                    if shadow[p as usize] == St::ColdSplit {
                        plan.push(PlanOp::ConsolidateCold { vpn: vpn(base, p as usize) });
                        shadow[p as usize] = St::Cold;
                    }
                }
                Op::Promote(p) => match shadow[p as usize] {
                    St::ColdSplit => {
                        plan.push(PlanOp::PromoteHuge {
                            vpn: vpn(base, p as usize),
                            split: true,
                        });
                        shadow[p as usize] = St::Huge;
                    }
                    St::Cold => {
                        plan.push(PlanOp::PromoteHuge {
                            vpn: vpn(base, p as usize),
                            split: false,
                        });
                        shadow[p as usize] = St::Huge;
                    }
                    _ => {}
                },
                Op::Poison(p) => {
                    if shadow[p as usize] == St::Huge {
                        plan.push(PlanOp::Poison {
                            vpn: vpn(base, p as usize),
                            size: PageSize::Huge2M,
                        });
                        shadow[p as usize] = St::PoisonHuge;
                    }
                }
                Op::Unpoison(p) => {
                    if shadow[p as usize] == St::PoisonHuge {
                        plan.push(PlanOp::UnpoisonSum {
                            vpns: vec![vpn(base, p as usize)],
                        });
                        shadow[p as usize] = St::Huge;
                    }
                }
                Op::TakeCounts(p) => {
                    if matches!(shadow[p as usize], St::PoisonHuge | St::Cold) {
                        plan.push(PlanOp::TakeCounts {
                            vpn: vpn(base, p as usize),
                            split: false,
                        });
                    }
                }
                Op::ClearAccessed(p) => {
                    let pages = match shadow[p as usize] {
                        St::Huge | St::Cold | St::PoisonHuge => {
                            vec![(vpn(base, p as usize), PageSize::Huge2M)]
                        }
                        St::Split | St::ColdSplit => (0..PAGES_PER_HUGE)
                            .map(|i| (Vpn(vpn(base, p as usize).0 + i as u64), PageSize::Small4K))
                            .collect(),
                    };
                    plan.push(PlanOp::ClearAccessed { pages });
                }
            }
        }
        apply_both(&mut engine, &mut twin, &plan);
        check_coherence(&engine, base, &shadow);
    });
}
