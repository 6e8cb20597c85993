//! The Thermostat policy daemon — the full §3 mechanism as a
//! [`PolicyHook`].
//!
//! Each sampling period (30s in the paper) runs the three scans of
//! Figure 4, spaced a third of a period apart:
//!
//! 1. **Split** — select a random 5% of fast-tier huge pages, split them
//!    into 4KB PTEs, and clear the children's Accessed bits. (Also
//!    consolidates pages demoted in the previous period: collapse them in
//!    slow memory and switch their monitoring to the huge PTE.)
//! 2. **Poison** — read the children's Accessed bits (the cheap hardware
//!    prefilter), then poison up to K = 50 of the accessed children for
//!    BadgerTrap fault counting.
//! 3. **Classify** — collect fault counts, extrapolate per-huge-page
//!    access rates (§3.2), run the §3.5 correction over the existing cold
//!    set, then place the coldest sampled pages in slow memory up to the
//!    §3.4 rate budget; hot pages are collapsed back to 2MB.
//!
//! Cold pages remain poisoned while in slow memory: under the paper's
//! evaluation methodology the ~1us fault **is** the emulated slow-memory
//! access, and its count drives the correction mechanism.
//!
//! # Structure: mechanism vs. policy
//!
//! Every phase is written against the engine's phase-structured seam. A
//! phase (1) takes a read-only [`MemoryView`](thermo_sim::MemoryView)
//! snapshot, (2) makes all its decisions on that snapshot with the pure
//! helpers in [`decide`] (the only place the daemon's RNG is consulted),
//! and (3) hands the engine a [`PolicyPlan`] whose receipt drives the
//! bookkeeping. The daemon itself never touches page tables, the TLB, or
//! the trap unit directly, and the plan's virtual-time charges equal what
//! the historically fused scan-and-mutate code paid, so artifacts are
//! byte-identical across the refactor.

mod decide;
#[cfg(test)]
mod tests;

use crate::classify::{classify, Candidate};
use crate::config::{MonitorMode, ThermostatConfig};
use crate::correction::{plan_correction, ColdObservation};
use crate::estimate::extrapolate;
use std::collections::{BTreeMap, BTreeSet};
use thermo_mem::{PageSize, Tier, Vpn, PAGES_PER_HUGE};
use thermo_sim::{Engine, FootprintBreakdown, OpOutcome, PlanOp, PolicyHook, PolicyPlan};
use thermo_util::rng::SeedableRng;
use thermo_util::rng::SmallRng;

/// Which of Figure 4's three scans runs next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Split,
    Poison,
    Classify,
}

/// A huge page under monitoring this period.
#[derive(Debug, Clone)]
struct SampledPage {
    vpn: Vpn,
    /// Children whose A bit was set in the prefilter.
    accessed_children: u32,
    /// Poisoned children (PoisonSampling mode).
    monitored: Vec<Vpn>,
    /// True-count snapshot at poison time (hardware-assisted modes).
    snapshot: Vec<(Vpn, u64)>,
    /// Full accessed-children set (kept only when split placement is on).
    accessed_set: Vec<Vpn>,
}

/// Bookkeeping for a page currently placed in slow memory.
#[derive(Debug, Clone, Copy)]
struct ColdPage {
    /// Still split into 4KB PTEs (freshly demoted this period).
    split: bool,
}

/// One record per completed sampling period (drives Figures 5–10).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodRecord {
    /// Virtual time at the end of the period's classify scan.
    pub at_ns: u64,
    /// Footprint breakdown at that time.
    pub breakdown: FootprintBreakdown,
    /// Estimated aggregate rate of the pages demoted this period, acc/s.
    pub demoted_rate: f64,
    /// Observed aggregate slow-memory access rate over the period, acc/s.
    pub slow_rate_observed: f64,
    /// Pages demoted this period.
    pub demoted: u32,
    /// Pages promoted by correction this period.
    pub promoted: u32,
    /// Aggregate cold-set rate seen by the §3.5 correction before it acted,
    /// acc/s (from the per-page fault counters).
    pub correction_rate_before: f64,
    /// Aggregate rate of the cold pages the correction kept, acc/s.
    pub correction_rate_after: f64,
}

/// Aggregate daemon statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Completed sampling periods.
    pub periods: u64,
    /// Huge pages sampled in total.
    pub pages_sampled: u64,
    /// Huge pages demoted to slow memory.
    pub pages_demoted: u64,
    /// Huge pages promoted back by correction.
    pub pages_promoted: u64,
    /// Demotions skipped because the slow tier was full.
    pub demote_oom: u64,
    /// Promotions skipped because the fast tier was full.
    pub promote_oom: u64,
    /// Hot huge pages placed partially (split placement, §6 extension).
    pub pages_split_placed: u64,
    /// Cold 4KB children placed in slow memory by split placement.
    pub split_children_demoted: u64,
}

/// The Thermostat daemon.
#[derive(Debug)]
pub struct Daemon {
    config: ThermostatConfig,
    rng: SmallRng,
    phase: Phase,
    next_due_ns: u64,
    sample: Vec<SampledPage>,
    sampled_fraction_actual: f64,
    cold: BTreeMap<Vpn, ColdPage>,
    /// Fault counts captured during consolidation, credited to the next
    /// correction pass.
    carry_counts: BTreeMap<Vpn, u64>,
    /// §6 split placement: cold 4KB child -> parent huge-page base.
    partial_children: BTreeMap<Vpn, Vpn>,
    /// Huge pages already sampled in the current coverage epoch. The paper
    /// picks a *different* random sample each period "so that eventually
    /// all pages are sampled"; pages outside this set get priority, and the
    /// epoch resets once every candidate has been visited. Ordered so no
    /// iteration-order nondeterminism can ever leak into sampling.
    sampled_epoch: BTreeSet<Vpn>,
    history: Vec<PeriodRecord>,
    stats: DaemonStats,
    last_slow_faults: u64,
    /// Fabric mode: demotions in flight on the migration fabric, as
    /// `(vpn, txn_id)`. Empty unless `SimConfig::fabric.enabled`.
    pending_demotes: Vec<(Vpn, u64)>,
    /// Fabric mode: demotions committed since the last period record.
    fabric_demoted: u32,
}

impl Daemon {
    /// Creates a daemon; the first scan fires one scan interval after t=0.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid
    /// (see [`ThermostatConfig::validate`]).
    pub fn new(config: ThermostatConfig) -> Self {
        config.validate();
        Self {
            rng: SmallRng::seed_from_u64(config.seed),
            phase: Phase::Split,
            next_due_ns: config.scan_interval_ns(),
            sample: Vec::new(),
            sampled_fraction_actual: config.sample_fraction,
            cold: BTreeMap::new(),
            carry_counts: BTreeMap::new(),
            partial_children: BTreeMap::new(),
            sampled_epoch: BTreeSet::new(),
            history: Vec::new(),
            stats: DaemonStats::default(),
            last_slow_faults: 0,
            pending_demotes: Vec::new(),
            fabric_demoted: 0,
            config,
        }
    }

    /// [`Daemon::new`]; the worker count has no effect, because every
    /// snapshot walks its ranges on the calling thread. Kept only for
    /// perfbench, its last caller.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid
    /// (see [`ThermostatConfig::validate`]).
    pub fn with_scan_workers(config: ThermostatConfig, _scan_workers: usize) -> Self {
        Self::new(config)
    }

    /// Current configuration.
    pub fn config(&self) -> &ThermostatConfig {
        &self.config
    }

    /// Changes the tolerable slowdown at runtime (the paper's cgroup knob,
    /// §5: "Thermostat's slowdown threshold can be changed at runtime").
    pub fn set_tolerable_slowdown_pct(&mut self, pct: f64) {
        self.config.tolerable_slowdown_pct = pct;
        self.config.validate();
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> DaemonStats {
        self.stats
    }

    /// Per-period records (Figures 5–10 time series).
    pub fn history(&self) -> &[PeriodRecord] {
        &self.history
    }

    /// Number of huge pages currently placed in slow memory.
    pub fn cold_pages(&self) -> usize {
        self.cold.len()
    }

    /// Number of 4KB children currently split-placed in slow memory
    /// (always 0 unless the §6 split-placement extension is enabled).
    pub fn partial_children(&self) -> usize {
        self.partial_children.len()
    }

    // ------------------------------------------------------------------
    // Scan 1: consolidate + select + split.
    // ------------------------------------------------------------------
    fn split_phase(&mut self, engine: &mut Engine) {
        if engine.config().fabric.enabled {
            // Collect receipts for demotions begun on the fabric last
            // period before consolidation looks at the cold set.
            self.commit_pending_demotes(engine);
        }
        self.consolidate_previous_cold(engine);

        // Candidate set from a snapshot of every VMA: huge pages currently
        // resident in fast memory. Pages with an in-flight fabric demotion
        // are excluded — re-splitting them would invalidate the copy.
        let ranges = engine.vma_ranges();
        let view = engine.memory_view(&ranges);
        let candidates: Vec<Vpn> = view
            .pages()
            .iter()
            .filter(|p| p.size == PageSize::Huge2M && p.tier == Tier::Fast)
            .map(|p| p.base_vpn)
            .filter(|v| !self.pending_demotes.iter().any(|&(pv, _)| pv == *v))
            .collect();
        if candidates.is_empty() {
            self.sample.clear();
            self.sampled_fraction_actual = self.config.sample_fraction;
            return;
        }
        let (selected, fraction) = decide::select_sample(
            &mut self.rng,
            candidates,
            self.config.sample_fraction,
            &mut self.sampled_epoch,
        );
        self.sampled_fraction_actual = fraction;

        let mut plan = PolicyPlan::new();
        for &vpn in &selected {
            plan.push(PlanOp::SplitSample { vpn });
        }
        let receipt = engine.apply_plan(&plan);
        debug_assert!(
            receipt.outcomes().iter().all(|o| *o == OpOutcome::Done),
            "SplitSample is synchronous"
        );
        self.sample = selected
            .into_iter()
            .map(|vpn| SampledPage {
                vpn,
                accessed_children: 0,
                monitored: Vec::new(),
                snapshot: Vec::new(),
                accessed_set: Vec::new(),
            })
            .collect();
        self.stats.pages_sampled += self.sample.len() as u64;
    }

    /// Fabric mode: try to commit every in-flight demotion. A completed
    /// copy remaps the page to slow memory — it is then poisoned (the
    /// fault-emulated methodology keeps charging it) and enters the cold
    /// set unsplit, already consolidated, so the §3.5 correction monitors
    /// it from the next period on. A still-copying transaction stays
    /// pending; an aborted one (write-retries exhausted, structural
    /// invalidation, or slow-tier OOM at commit) is dropped — the page
    /// never left fast memory and will be re-sampled eventually.
    fn commit_pending_demotes(&mut self, engine: &mut Engine) {
        if self.pending_demotes.is_empty() {
            return;
        }
        let mut plan = PolicyPlan::new();
        for &(_, id) in &self.pending_demotes {
            plan.push(PlanOp::CommitMigrate { txn: id });
        }
        let receipt = engine.apply_plan(&plan);
        let mut follow = PolicyPlan::new();
        let mut still = Vec::new();
        for ((vpn, id), oc) in std::mem::take(&mut self.pending_demotes)
            .into_iter()
            .zip(receipt.outcomes())
        {
            match oc {
                OpOutcome::Done => {
                    follow.push(PlanOp::Poison {
                        vpn,
                        size: PageSize::Huge2M,
                    });
                    self.cold.insert(vpn, ColdPage { split: false });
                    self.fabric_demoted += 1;
                }
                OpOutcome::Pending => still.push((vpn, id)),
                OpOutcome::DemoteOom => self.stats.demote_oom += 1,
                OpOutcome::AbortedTxn => {}
                _ => unreachable!("CommitMigrate outcome"),
            }
        }
        self.pending_demotes = still;
        if !follow.is_empty() {
            let receipt = engine.apply_plan(&follow);
            debug_assert!(
                receipt.outcomes().iter().all(|o| *o == OpOutcome::Done),
                "poison follow-ups complete synchronously"
            );
        }
    }

    /// Collapse pages demoted last period: they were migrated into
    /// contiguous huge frames in slow memory, so the 512 child PTEs fold
    /// back into one huge PTE whose poisoning continues the §3.5 monitor.
    /// The drained child fault counts are carried into the next correction
    /// pass.
    fn consolidate_previous_cold(&mut self, engine: &mut Engine) {
        let split_pages: Vec<Vpn> = self
            .cold
            .iter()
            .filter(|(_, c)| c.split)
            .map(|(v, _)| *v)
            .collect();
        let mut plan = PolicyPlan::new();
        for &vpn in &split_pages {
            plan.push(PlanOp::ConsolidateCold { vpn });
        }
        let receipt = engine.apply_plan(&plan);
        for (outcome, &vpn) in receipt.outcomes().iter().zip(&split_pages) {
            let OpOutcome::Faults(sum) = outcome else {
                unreachable!("ConsolidateCold returns Faults");
            };
            *self.carry_counts.entry(vpn).or_insert(0) += sum;
            self.cold.get_mut(&vpn).expect("tracked cold page").split = false;
        }
    }

    // ------------------------------------------------------------------
    // Scan 2: prefilter + poison.
    // ------------------------------------------------------------------
    fn poison_phase(&mut self, engine: &mut Engine) {
        let mode = self.config.monitor_mode;
        let ranges: Vec<(Vpn, u64)> = self
            .sample
            .iter()
            .map(|sp| (sp.vpn, PAGES_PER_HUGE as u64))
            .collect();
        let view = engine.memory_view(&ranges);
        let mut plan = PolicyPlan::new();
        for (i, sp) in self.sample.iter_mut().enumerate() {
            let pages = view.range_pages(i);
            // The prefilter: children the application touched since the
            // split scan cleared their A bits.
            let accessed: Vec<Vpn> = pages
                .iter()
                .filter(|p| p.size == PageSize::Small4K && p.accessed)
                .map(|p| p.base_vpn)
                .collect();
            sp.accessed_children = accessed.len() as u32;
            if self.config.split_placement_enabled {
                sp.accessed_set = accessed.clone();
            }
            // Clear exactly the accessed leaves (the mutation half of the
            // historical fused scan; identical shootdown charges).
            plan.push(PlanOp::ClearAccessed {
                pages: pages
                    .iter()
                    .filter(|p| p.accessed)
                    .map(|p| (p.base_vpn, p.size))
                    .collect(),
            });
            match mode {
                MonitorMode::PoisonSampling => {
                    let monitored = decide::choose_monitored(
                        &mut self.rng,
                        accessed,
                        self.config.max_poison_per_page,
                    );
                    for &child in &monitored {
                        plan.push(PlanOp::Poison {
                            vpn: child,
                            size: PageSize::Small4K,
                        });
                    }
                    sp.monitored = monitored;
                }
                MonitorMode::IdealCmBit | MonitorMode::PebsSampling { .. } => {
                    assert!(
                        engine.config().track_true_access,
                        "hardware-assisted monitor modes need track_true_access"
                    );
                    let counts = engine.true_access_counts();
                    sp.snapshot = (0..PAGES_PER_HUGE as u64)
                        .map(|i| {
                            let v = sp.vpn.offset(i);
                            (v, counts.get(&v).copied().unwrap_or(0))
                        })
                        .collect();
                }
            }
        }
        let receipt = engine.apply_plan(&plan);
        debug_assert!(
            receipt.outcomes().iter().all(|o| *o == OpOutcome::Done),
            "ClearAccessed and Poison are synchronous"
        );
    }

    // ------------------------------------------------------------------
    // Scan 3: estimate + correct + classify + migrate.
    // ------------------------------------------------------------------
    fn classify_phase(&mut self, engine: &mut Engine) {
        let window = self.config.scan_interval_ns();
        let threshold = self.config.target_slow_access_rate();
        let sample = std::mem::take(&mut self.sample);

        // 1. Access-rate estimates for the sampled pages: drain the
        //    monitored children's fault counters and extrapolate (§3.2).
        let mut measure = PolicyPlan::new();
        if matches!(self.config.monitor_mode, MonitorMode::PoisonSampling) {
            for sp in &sample {
                measure.push(PlanOp::UnpoisonSum {
                    vpns: sp.monitored.clone(),
                });
            }
        }
        let measured = engine.apply_plan(&measure);
        let mut estimates: Vec<Candidate> = Vec::with_capacity(sample.len());
        for (i, sp) in sample.iter().enumerate() {
            let rate = match self.config.monitor_mode {
                MonitorMode::PoisonSampling => {
                    let OpOutcome::Faults(faults) = measured.outcomes()[i] else {
                        unreachable!("UnpoisonSum returns Faults");
                    };
                    extrapolate(
                        faults,
                        sp.monitored.len() as u32,
                        sp.accessed_children,
                        window,
                    )
                    .rate_per_sec
                }
                MonitorMode::IdealCmBit => {
                    let counts = engine.true_access_counts();
                    let delta: u64 = sp
                        .snapshot
                        .iter()
                        .map(|(v, old)| counts.get(v).copied().unwrap_or(0).saturating_sub(*old))
                        .sum();
                    delta as f64 / (window as f64 / 1e9)
                }
                MonitorMode::PebsSampling { period } => {
                    let counts = engine.true_access_counts();
                    let sampled: u64 = sp
                        .snapshot
                        .iter()
                        .map(|(v, old)| {
                            counts.get(v).copied().unwrap_or(0).saturating_sub(*old) / period as u64
                        })
                        .sum();
                    (sampled * period as u64) as f64 / (window as f64 / 1e9)
                }
            };
            estimates.push(Candidate {
                vpn: sp.vpn,
                rate_per_sec: rate,
            });
        }

        // 2. §3.5 correction over the existing cold set (whole cold huge
        //    pages plus any split-placed cold children).
        let mut promoted = 0u32;
        let mut correction_rate_before = 0.0;
        let mut correction_rate_after = 0.0;
        if self.config.correction_enabled
            && (!self.cold.is_empty() || !self.partial_children.is_empty())
        {
            let correction = self.correction_observations(engine);
            correction_rate_before = correction.rate_before;
            correction_rate_after = correction.rate_after;
            promoted = self.apply_promotions(engine, &correction.promote);
        }

        // 3. §3.4 classification of the sampled pages, then one placement
        //    plan: demote the cold ones, collapse or split-place the hot
        //    ones.
        let budget = self.sampled_fraction_actual * threshold;
        let result = classify(estimates, budget);
        let fabric_mode = engine.config().fabric.enabled;
        let cold_ops = if fabric_mode { 2 } else { 1 };
        let mut plan = PolicyPlan::new();
        for c in &result.cold {
            if fabric_mode {
                // Transactional demotion: restore the page to one huge leaf
                // and open an async copy toward slow memory. The page stays
                // accessible; a write mid-copy aborts and retries on the
                // fabric, and the commit lands in a later split phase.
                plan.push(PlanOp::Collapse { vpn: c.vpn });
                plan.push(PlanOp::BeginMigrate {
                    vpn: c.vpn,
                    target: Tier::Slow,
                });
            } else {
                plan.push(PlanOp::DemoteHuge { vpn: c.vpn });
            }
        }
        for c in &result.hot {
            let sp = sample
                .iter()
                .find(|s| s.vpn == c.vpn)
                .expect("sampled page tracked");
            match decide::split_place_children(&self.config, sp.vpn, &sp.accessed_set) {
                Some(cold_children) => plan.push(PlanOp::SplitPlace {
                    vpn: sp.vpn,
                    cold_children,
                }),
                None => plan.push(PlanOp::Collapse { vpn: c.vpn }),
            }
        }
        let receipt = engine.apply_plan(&plan);
        let mut demoted = 0u32;
        if fabric_mode {
            for (i, c) in result.cold.iter().enumerate() {
                let OpOutcome::Begun(id) = receipt.outcomes()[i * cold_ops + 1] else {
                    unreachable!("BeginMigrate returns Begun");
                };
                self.pending_demotes.push((c.vpn, id));
            }
            // The period's demotion count is what actually committed since
            // the previous record, not what was merely begun.
            demoted = std::mem::take(&mut self.fabric_demoted);
        } else {
            for (i, c) in result.cold.iter().enumerate() {
                match receipt.outcomes()[i] {
                    OpOutcome::Done => {
                        demoted += 1;
                        self.cold.insert(c.vpn, ColdPage { split: true });
                    }
                    OpOutcome::DemoteOom => self.stats.demote_oom += 1,
                    _ => unreachable!("DemoteHuge returns Done or DemoteOom"),
                }
            }
        }
        for (i, c) in result.hot.iter().enumerate() {
            match &receipt.outcomes()[result.cold.len() * cold_ops + i] {
                OpOutcome::Placed(placed) if !placed.is_empty() => {
                    self.stats.pages_split_placed += 1;
                    self.stats.split_children_demoted += placed.len() as u64;
                    for &child in placed {
                        self.partial_children.insert(child, c.vpn);
                    }
                }
                // Placed([]) means the engine restored the huge page
                // (slow tier full); Done is a plain collapse.
                OpOutcome::Placed(_) | OpOutcome::Done => {}
                _ => unreachable!("hot placement returns Placed or Done"),
            }
        }

        // 4. Period record. The slow-memory access rate is what the paper's
        // Figure 3 plots: BadgerTrap faults to slow pages under fault
        // emulation (or direct slow-tier accesses in Direct mode) — the
        // engine's slow series records exactly that.
        let slow_faults = engine.slow_series().total();
        let observed = (slow_faults - self.last_slow_faults) as f64
            / (self.config.sampling_period_ns as f64 / 1e9);
        self.last_slow_faults = slow_faults;
        let breakdown = engine.footprint_breakdown();
        self.history.push(PeriodRecord {
            at_ns: engine.now_ns(),
            breakdown,
            demoted_rate: result.cold_rate,
            slow_rate_observed: observed,
            demoted,
            promoted,
            correction_rate_before,
            correction_rate_after,
        });
        self.stats.periods += 1;
        self.stats.pages_demoted += demoted as u64;
        self.stats.pages_promoted += promoted as u64;
    }

    /// Drains the cold set's fault counters (without disturbing their
    /// poisoning) and runs the §3.5 correction planner over them.
    fn correction_observations(
        &mut self,
        engine: &mut Engine,
    ) -> crate::correction::CorrectionPlan {
        let partials: Vec<Vpn> = self.partial_children.keys().copied().collect();
        let cold_meta: Vec<(Vpn, bool)> = self.cold.iter().map(|(&v, c)| (v, c.split)).collect();
        let mut plan = PolicyPlan::new();
        for &child in &partials {
            plan.push(PlanOp::TakeCounts {
                vpn: child,
                split: false,
            });
        }
        for &(vpn, split) in &cold_meta {
            plan.push(PlanOp::TakeCounts { vpn, split });
        }
        let receipt = engine.apply_plan(&plan);
        let mut observations = Vec::with_capacity(plan.len());
        for (i, &child) in partials.iter().enumerate() {
            let OpOutcome::Faults(count) = receipt.outcomes()[i] else {
                unreachable!("TakeCounts returns Faults");
            };
            observations.push(ColdObservation { vpn: child, count });
        }
        for (i, &(vpn, _)) in cold_meta.iter().enumerate() {
            let OpOutcome::Faults(count) = receipt.outcomes()[partials.len() + i] else {
                unreachable!("TakeCounts returns Faults");
            };
            let count = count + self.carry_counts.remove(&vpn).unwrap_or(0);
            observations.push(ColdObservation { vpn, count });
        }
        plan_correction(
            observations,
            self.config.target_slow_access_rate(),
            self.config.sampling_period_ns,
        )
    }

    /// Promotes the pages the correction flagged as hot-again, via one
    /// plan; returns how many the period record should count as promoted.
    fn apply_promotions(&mut self, engine: &mut Engine, promote: &[Vpn]) -> u32 {
        let mut plan = PolicyPlan::new();
        let mut is_partial = Vec::with_capacity(promote.len());
        for &vpn in promote {
            if self.partial_children.contains_key(&vpn) {
                plan.push(PlanOp::PromoteChild { vpn });
                is_partial.push(true);
            } else {
                let split = self.cold.get(&vpn).expect("promoting untracked page").split;
                plan.push(PlanOp::PromoteHuge { vpn, split });
                is_partial.push(false);
            }
        }
        let receipt = engine.apply_plan(&plan);
        let mut promoted = 0u32;
        for ((outcome, &vpn), &partial) in receipt.outcomes().iter().zip(promote).zip(&is_partial) {
            match (partial, outcome) {
                (true, OpOutcome::Done) => {
                    self.partial_children.remove(&vpn);
                    promoted += 1;
                }
                (true, OpOutcome::PromoteOom) => {
                    // The child stays cold (re-poisoned by the engine) but
                    // the period record still counts the attempt.
                    self.stats.promote_oom += 1;
                    promoted += 1;
                }
                (false, OpOutcome::Done) => {
                    self.cold.remove(&vpn);
                    self.carry_counts.remove(&vpn);
                    promoted += 1;
                }
                (false, OpOutcome::PromoteOom) => self.stats.promote_oom += 1,
                _ => unreachable!("promotion returns Done or PromoteOom"),
            }
        }
        promoted
    }
}

impl PolicyHook for Daemon {
    fn next_due_ns(&self) -> u64 {
        self.next_due_ns
    }

    fn policy_name(&self) -> &str {
        "thermostat"
    }

    fn tick(&mut self, engine: &mut Engine) {
        match self.phase {
            Phase::Split => {
                self.split_phase(engine);
                self.phase = Phase::Poison;
            }
            Phase::Poison => {
                self.poison_phase(engine);
                self.phase = Phase::Classify;
            }
            Phase::Classify => {
                self.classify_phase(engine);
                self.phase = Phase::Split;
            }
        }
        self.next_due_ns += self.config.scan_interval_ns();
    }
}

thermo_util::json_struct!(PeriodRecord {
    at_ns,
    breakdown,
    demoted_rate,
    slow_rate_observed,
    demoted,
    promoted,
    correction_rate_before,
    correction_rate_after,
});

thermo_util::json_struct!(DaemonStats {
    periods,
    pages_sampled,
    pages_demoted,
    pages_promoted,
    demote_oom,
    promote_oom,
    pages_split_placed,
    split_children_demoted,
});
