//! [`PolicyPlan`]: the write-back half of the engine↔policy seam.
//!
//! A policy decides on a read-only [`MemoryView`](super::MemoryView)
//! snapshot and hands the engine a plan — an ordered list of [`PlanOp`]s.
//! [`Engine::apply_plan`] executes the ops **in order, atomically with
//! respect to the application** (no app accesses interleave; this is a
//! single policy tick in virtual time), charging each op's kernel-time
//! cost through the same mechanism methods the paper's accounting defines
//! (§3.3 scan/shootdown, §4 migration, THP surgery).
//!
//! Each op returns an [`OpOutcome`] in the [`PlanReceipt`]; outcome `i`
//! corresponds to op `i`. Outcomes carry exactly what the Thermostat
//! daemon needs to update its bookkeeping after the fact: fault counters
//! drained by unpoison/take ops, OOM fallbacks the engine resolved
//! internally (a failed demotion collapses the page back; a failed
//! promotion re-poisons it — the page *always* ends in a consistent
//! state), and the set of children a split placement actually moved.
//!
//! Compound ops exist where the mechanism sequence must not be torn apart
//! by a policy bug: e.g. [`PlanOp::DemoteHuge`] is
//! migrate-split-huge + poison-512-children *or* collapse-on-OOM as one
//! unit, because a half-demoted page (migrated but unmonitored) would
//! silently break the §3.5 correction.

use super::Engine;
use thermo_mem::{MemError, PageSize, Tier, Vpn, PAGES_PER_HUGE};
use thermo_vm::ScanHit;

/// One mechanism step in a [`PolicyPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanOp {
    /// Consolidate a page demoted last period: drain and sum the 512
    /// children's fault counters, collapse the children back into one huge
    /// PTE (the frames are already contiguous in slow memory), and poison
    /// the huge PTE so §3.5 monitoring continues. Returns
    /// [`OpOutcome::Faults`] with the drained sum.
    ConsolidateCold {
        /// Huge-aligned base of the demoted page.
        vpn: Vpn,
    },
    /// Split a sampled fast-tier huge page (Figure 4 scan 1) and clear the
    /// children's inherited Accessed bits.
    SplitSample {
        /// Huge-aligned base of the sampled page.
        vpn: Vpn,
    },
    /// Clear the Accessed bit of exactly these leaves, shooting down each
    /// one whose bit was set (the mutation half of a snapshot-based scan).
    ClearAccessed {
        /// The leaves to clear, as `(base_vpn, size)` pairs.
        pages: Vec<(Vpn, PageSize)>,
    },
    /// Poison one leaf for BadgerTrap counting.
    Poison {
        /// Base of the leaf to poison.
        vpn: Vpn,
        /// Leaf size.
        size: PageSize,
    },
    /// Unpoison each leaf and return the summed fault counts
    /// ([`OpOutcome::Faults`]).
    UnpoisonSum {
        /// Leaf bases to unpoison.
        vpns: Vec<Vpn>,
    },
    /// Drain the trap counter(s) of a still-poisoned cold page without
    /// unpoisoning (`split` drains all 512 children). Pure bookkeeping —
    /// charges no kernel time. Returns [`OpOutcome::Faults`].
    TakeCounts {
        /// Huge-aligned base of the cold page.
        vpn: Vpn,
        /// Whether the page is still split into 512 children.
        split: bool,
    },
    /// Promote one split-placed cold child back to fast memory. On a full
    /// fast tier the child is re-poisoned and stays cold
    /// ([`OpOutcome::PromoteOom`]).
    PromoteChild {
        /// The 4KB child to bring back.
        vpn: Vpn,
    },
    /// Promote a cold huge page back to fast memory (§3.5); `split` says
    /// whether it is still 512 children (demoted this very period). On a
    /// full fast tier the page is re-poisoned and stays cold
    /// ([`OpOutcome::PromoteOom`]).
    PromoteHuge {
        /// Huge-aligned base of the cold page.
        vpn: Vpn,
        /// Whether the page is still split into 512 children.
        split: bool,
    },
    /// Demote a (currently split) sampled page to slow memory and poison
    /// all 512 children. On a full slow tier the page is collapsed back
    /// and stays hot ([`OpOutcome::DemoteOom`]).
    DemoteHuge {
        /// Huge-aligned base of the (split) page to demote.
        vpn: Vpn,
    },
    /// §6 split placement: move the given cold children of a hot page to
    /// slow memory and poison them (children that no longer fit stay
    /// fast). If none moved, the page is collapsed back. Returns
    /// [`OpOutcome::Placed`] with the children actually moved.
    SplitPlace {
        /// Huge-aligned base of the hot (split) page.
        vpn: Vpn,
        /// Its never-accessed children, in address order.
        cold_children: Vec<Vpn>,
    },
    /// Collapse 512 children back into a huge page.
    Collapse {
        /// Huge-aligned base to collapse.
        vpn: Vpn,
    },
    /// Open a transactional migration on the fabric: the copy proceeds
    /// asynchronously as virtual time advances while the application keeps
    /// accessing the page. Returns [`OpOutcome::Begun`] with the
    /// transaction id; a later [`PlanOp::CommitMigrate`] resolves it.
    /// Charges no kernel time — the transfer happens on the link.
    BeginMigrate {
        /// Base of the leaf to move.
        vpn: Vpn,
        /// Destination tier.
        target: Tier,
    },
    /// Try to commit a fabric transaction: [`OpOutcome::Done`] when the
    /// copy completed and the page was remapped (a demotion leaves a
    /// shadow for instant re-promotion), [`OpOutcome::Pending`] when the
    /// copy is still in flight (ask again next period),
    /// [`OpOutcome::AbortedTxn`] when retries were exhausted or the page
    /// was structurally invalidated mid-copy, and
    /// [`OpOutcome::DemoteOom`]/[`OpOutcome::PromoteOom`] when the target
    /// tier filled up before commit (the transaction aborts cleanly).
    CommitMigrate {
        /// Transaction id from [`OpOutcome::Begun`].
        txn: u64,
    },
    /// Abort a fabric transaction unconditionally.
    AbortMigrate {
        /// Transaction id from [`OpOutcome::Begun`].
        txn: u64,
    },
    /// Demote an *unsplit* huge page to slow memory and poison it (the
    /// CLOCK/DAMON baselines' demotion unit — no §3.5 split bookkeeping).
    /// On a full slow tier the page stays hot ([`OpOutcome::DemoteOom`]).
    DemoteWholeHuge {
        /// Huge-aligned base of the page to demote.
        vpn: Vpn,
    },
    /// Promote an unsplit huge page to fast memory, preserving its PTE
    /// flags (a poisoned page stays poisoned — exactly CLOCK's behaviour).
    /// On a full fast tier nothing changes ([`OpOutcome::PromoteOom`]).
    PromoteWholeHuge {
        /// Huge-aligned base of the page to promote.
        vpn: Vpn,
    },
}

/// What one [`PlanOp`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpOutcome {
    /// The op completed on its main path.
    Done,
    /// Fault counters drained by the op, summed.
    Faults(u64),
    /// Promotion hit a full fast tier; the page was re-poisoned in place.
    PromoteOom,
    /// Demotion hit a full slow tier; the page was collapsed back.
    DemoteOom,
    /// Split placement moved exactly these children to slow memory (empty
    /// means the page was collapsed back instead).
    Placed(Vec<Vpn>),
    /// A fabric transaction was opened; carry this id to a later
    /// [`PlanOp::CommitMigrate`] or [`PlanOp::AbortMigrate`].
    Begun(u64),
    /// The transaction's copy is still in flight; commit again later.
    Pending,
    /// The transaction had failed (write-retries exhausted or structural
    /// invalidation) and was resolved as an abort.
    AbortedTxn,
}

/// An ordered list of mechanism ops a policy hands back to the engine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PolicyPlan {
    ops: Vec<PlanOp>,
}

impl PolicyPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an op.
    pub fn push(&mut self, op: PlanOp) {
        self.ops.push(op);
    }

    /// The ops, in execution order.
    pub fn ops(&self) -> &[PlanOp] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the plan has no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Per-op outcomes plus the total kernel time the plan charged.
///
/// `#[must_use]`, and the workspace denies `unused_must_use`: a receipt
/// dropped as a statement fails to compile, because its outcomes (OOM
/// fallbacks, drained fault counts, fabric commits) are what the policy
/// must act on.
///
/// ```compile_fail
/// #![deny(unused_must_use)]
/// # use thermo_sim::{Engine, PolicyPlan, SimConfig};
/// # let mut engine = Engine::new(SimConfig::paper_defaults(64 << 20, 64 << 20));
/// engine.apply_plan(&PolicyPlan::new());
/// ```
///
/// Binding it compiles:
///
/// ```
/// #![deny(unused_must_use)]
/// # use thermo_sim::{Engine, PolicyPlan, SimConfig};
/// # let mut engine = Engine::new(SimConfig::paper_defaults(64 << 20, 64 << 20));
/// let receipt = engine.apply_plan(&PolicyPlan::new());
/// assert!(receipt.outcomes().is_empty());
/// ```
#[must_use = "a plan receipt carries per-op outcomes the policy must act on"]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanReceipt {
    outcomes: Vec<OpOutcome>,
    kernel_time_ns: u64,
}

impl PlanReceipt {
    /// Outcome of op `i` (same order as the plan).
    pub fn outcomes(&self) -> &[OpOutcome] {
        &self.outcomes
    }

    /// Kernel time charged by the whole plan, ns.
    pub fn kernel_time_ns(&self) -> u64 {
        self.kernel_time_ns
    }
}

impl Engine {
    /// Executes `plan` op by op in program order, atomically with respect
    /// to the application, and returns one [`OpOutcome`] per op.
    ///
    /// # Panics
    ///
    /// Panics when an op is structurally impossible (splitting a page that
    /// is not huge, collapsing non-contiguous frames, promoting an
    /// unmapped page): those are policy bugs, not runtime conditions.
    /// Resource exhaustion (a full tier) is *not* a panic — it resolves to
    /// the op's documented fallback outcome.
    pub fn apply_plan(&mut self, plan: &PolicyPlan) -> PlanReceipt {
        let kernel_before = self.stats.kernel_time_ns;
        let mut scratch: Vec<ScanHit> = Vec::new();
        let outcomes = plan
            .ops()
            .iter()
            .map(|op| self.apply_op(op, &mut scratch))
            .collect();
        PlanReceipt {
            outcomes,
            kernel_time_ns: self.stats.kernel_time_ns - kernel_before,
        }
    }

    fn apply_op(&mut self, op: &PlanOp, scratch: &mut Vec<ScanHit>) -> OpOutcome {
        match op {
            PlanOp::ConsolidateCold { vpn } => {
                let sum = self.unpoison_split_children(*vpn);
                self.collapse_huge(*vpn)
                    .expect("demoted page must be collapsible");
                self.poison_page(*vpn, PageSize::Huge2M);
                OpOutcome::Faults(sum)
            }
            PlanOp::SplitSample { vpn } => {
                self.split_huge(*vpn)
                    .expect("sampling candidate must be a huge page");
                scratch.clear();
                self.scan_and_clear_accessed(*vpn, PAGES_PER_HUGE as u64, scratch);
                OpOutcome::Done
            }
            PlanOp::ClearAccessed { pages } => {
                self.clear_accessed_set(pages);
                OpOutcome::Done
            }
            PlanOp::Poison { vpn, size } => {
                self.poison_page(*vpn, *size);
                OpOutcome::Done
            }
            PlanOp::UnpoisonSum { vpns } => {
                let mut sum = 0;
                for &v in vpns {
                    sum += self.unpoison_page(v);
                }
                OpOutcome::Faults(sum)
            }
            PlanOp::TakeCounts { vpn, split } => OpOutcome::Faults(if *split {
                self.trap.take_children_sum(*vpn)
            } else {
                self.trap.take_count(*vpn).unwrap_or(0)
            }),
            PlanOp::PromoteChild { vpn } => {
                self.unpoison_page(*vpn);
                if self.migrate_page(*vpn, Tier::Fast).is_err() {
                    // Fast tier full: re-arm monitoring, child stays cold.
                    self.poison_page(*vpn, PageSize::Small4K);
                    OpOutcome::PromoteOom
                } else {
                    OpOutcome::Done
                }
            }
            PlanOp::PromoteHuge { vpn, split } => {
                let result = if *split {
                    self.unpoison_split_children(*vpn);
                    self.migrate_split_huge(*vpn, Tier::Fast).map(|()| {
                        self.collapse_huge(*vpn)
                            .expect("promoted page must collapse");
                    })
                } else {
                    self.unpoison_page(*vpn);
                    self.migrate_page(*vpn, Tier::Fast)
                };
                match result {
                    Ok(()) => OpOutcome::Done,
                    Err(MemError::OutOfMemory { .. }) => {
                        // Re-poison so monitoring continues; stays cold.
                        if *split {
                            self.poison_split_children(*vpn);
                        } else {
                            self.poison_page(*vpn, PageSize::Huge2M);
                        }
                        OpOutcome::PromoteOom
                    }
                    Err(e) => panic!("unexpected promotion failure: {e}"),
                }
            }
            PlanOp::DemoteHuge { vpn } => match self.migrate_split_huge(*vpn, Tier::Slow) {
                Ok(()) => {
                    self.poison_split_children(*vpn);
                    OpOutcome::Done
                }
                Err(MemError::OutOfMemory { .. }) => {
                    // Slow tier full: the page stays hot.
                    self.collapse_huge(*vpn)
                        .expect("sampled page must collapse");
                    OpOutcome::DemoteOom
                }
                Err(e) => panic!("unexpected demotion failure: {e}"),
            },
            PlanOp::SplitPlace { vpn, cold_children } => {
                let mut placed = Vec::new();
                for &child in cold_children {
                    if self.migrate_page(child, Tier::Slow).is_err() {
                        continue; // slow tier full: child stays fast
                    }
                    self.poison_page(child, PageSize::Small4K);
                    placed.push(child);
                }
                if placed.is_empty() {
                    // Nothing moved (e.g. slow tier full): restore the page.
                    self.collapse_huge(*vpn)
                        .expect("sampled page must collapse");
                }
                OpOutcome::Placed(placed)
            }
            PlanOp::Collapse { vpn } => {
                self.collapse_huge(*vpn)
                    .expect("sampled page must collapse");
                OpOutcome::Done
            }
            PlanOp::BeginMigrate { vpn, target } => {
                let m = self.pt.lookup(*vpn).expect("begin-migrate unmapped page");
                assert_eq!(m.base_vpn, *vpn, "begin-migrate must target a leaf");
                assert_ne!(
                    self.mem.tier_of(m.pte.pfn()),
                    *target,
                    "begin-migrate to the current tier"
                );
                OpOutcome::Begun(self.fab.begin(*vpn, m.size, *target, self.clock.now_ns()))
            }
            PlanOp::CommitMigrate { txn } => {
                self.fab.tick(self.clock.now_ns());
                match self.fab.commit_status(*txn) {
                    crate::fabric::CommitStatus::Pending => OpOutcome::Pending,
                    crate::fabric::CommitStatus::Failed => {
                        self.fab.abort(*txn);
                        OpOutcome::AbortedTxn
                    }
                    crate::fabric::CommitStatus::Ready { vpn, size, target } => {
                        match self.fabric_finalize(vpn, size, target) {
                            Ok(()) => {
                                self.fab.finish_commit(*txn);
                                OpOutcome::Done
                            }
                            Err(_) => {
                                // Target tier filled up while the copy was
                                // in flight: resolve as a clean abort.
                                self.fab.abort(*txn);
                                match target {
                                    Tier::Slow => OpOutcome::DemoteOom,
                                    Tier::Fast => OpOutcome::PromoteOom,
                                }
                            }
                        }
                    }
                }
            }
            PlanOp::AbortMigrate { txn } => {
                self.fab.abort(*txn);
                OpOutcome::Done
            }
            PlanOp::DemoteWholeHuge { vpn } => match self.migrate_page(*vpn, Tier::Slow) {
                Ok(()) => {
                    self.poison_page(*vpn, PageSize::Huge2M);
                    OpOutcome::Done
                }
                Err(MemError::OutOfMemory { .. }) => OpOutcome::DemoteOom,
                Err(e) => panic!("unexpected demotion failure: {e}"),
            },
            PlanOp::PromoteWholeHuge { vpn } => match self.migrate_page(*vpn, Tier::Fast) {
                Ok(()) => OpOutcome::Done,
                Err(MemError::OutOfMemory { .. }) => OpOutcome::PromoteOom,
                Err(e) => panic!("unexpected promotion failure: {e}"),
            },
        }
    }
}
