//! Simulation configuration.

use crate::cache::LlcConfig;
use crate::fabric::FabricConfig;
use crate::sched::SchedConfig;
use thermo_mem::TierParams;
use thermo_trap::TrapConfig;
use thermo_vm::{TlbConfig, WalkConfig};

/// How accesses to slow-tier pages are charged.
///
/// The paper *emulates* slow memory with BadgerTrap faults (§4.2): data
/// physically stays in DRAM, slow-tier pages stay poisoned, and every TLB
/// miss to them costs the ~1us fault. [`ColdAccessModel::FaultEmulated`]
/// reproduces that methodology exactly and is the default. `Direct` instead
/// models a real slow device: every LLC miss to a slow-tier frame pays the
/// tier's latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColdAccessModel {
    /// The paper's software emulation: poisoned PTEs, fault = slow access.
    /// LLC misses are charged DRAM latency regardless of tier.
    FaultEmulated,
    /// A physical slow device: LLC misses to slow frames pay slow latency
    /// (monitoring faults, when the policy poisons pages, still pay the
    /// trap's fault latency on top — that is the monitoring overhead a real
    /// deployment would see).
    Direct,
}

/// Full configuration of one simulated machine + guest.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// TLB geometry (§4.1 hardware by default).
    pub tlb: TlbConfig,
    /// Page-walk cost model (nested paging by default — the paper's KVM
    /// environment).
    pub walk: WalkConfig,
    /// Last-level cache.
    pub llc: LlcConfig,
    /// Fast tier (DRAM) parameters.
    pub fast: TierParams,
    /// Slow tier parameters.
    pub slow: TierParams,
    /// BadgerTrap fault latency.
    pub trap: TrapConfig,
    /// Cold access charging model.
    pub cold_model: ColdAccessModel,
    /// Transparent huge pages: when false every demand-paging fault maps a
    /// 4KB page (the Table 1 "THP disabled on host and guest" baseline).
    pub thp_enabled: bool,
    /// Track exact per-4KB-page access counts (ground truth for Figure 2;
    /// costs simulation speed, off by default).
    pub track_true_access: bool,
    /// OS-noise TLB flush period: when set, the whole TLB is flushed every
    /// such period of virtual time, modelling timer interrupts, context
    /// switches and vmexits that bound TLB-entry lifetime on a real host.
    /// `None` (default) relies on capacity eviction alone.
    pub tlb_flush_period_ns: Option<u64>,
    /// Migration-fabric knobs (transactional migration is off by default;
    /// `migrate_page` stays synchronous and all pre-fabric goldens hold).
    pub fabric: FabricConfig,
    /// Discrete-event co-scheduling + shared-fast-tier knobs (default
    /// off: the sharded runner and fixed per-tenant budgets, all
    /// pre-existing goldens byte-identical).
    pub sched: SchedConfig,
}

impl SimConfig {
    /// The paper's evaluation platform: nested paging, 1us trap faults,
    /// fault-emulated slow memory, with footprint-scaled cache (the paper's
    /// 45MB LLC and 512GB DRAM scale down with our scaled footprints).
    pub fn paper_defaults(fast_bytes: u64, slow_bytes: u64) -> Self {
        Self {
            tlb: TlbConfig::paper_scaled(),
            walk: WalkConfig::nested(),
            llc: LlcConfig::default(),
            fast: TierParams::dram(fast_bytes),
            slow: TierParams::slow_1us(slow_bytes),
            trap: TrapConfig::default(),
            cold_model: ColdAccessModel::FaultEmulated,
            thp_enabled: true,
            track_true_access: false,
            tlb_flush_period_ns: None,
            fabric: FabricConfig::default(),
            sched: SchedConfig::default(),
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper_defaults(512 << 20, 1 << 30)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermo_vm::PagingMode;

    #[test]
    fn defaults_match_paper_setup() {
        let c = SimConfig::default();
        assert_eq!(c.walk.mode, PagingMode::Nested);
        assert_eq!(c.trap.fault_latency_ns, 1_000);
        assert_eq!(c.cold_model, ColdAccessModel::FaultEmulated);
        // Footprint-scaled TLB (see TlbConfig::paper_scaled).
        assert_eq!(c.tlb.l2.entries, 128);
    }

    #[test]
    fn custom_capacity() {
        let c = SimConfig::paper_defaults(1 << 20, 2 << 20);
        assert_eq!(c.fast.capacity_bytes, 1 << 20);
        assert_eq!(c.slow.capacity_bytes, 2 << 20);
    }
}

thermo_util::json_enum!(ColdAccessModel {
    FaultEmulated,
    Direct
});
thermo_util::json_struct!(SimConfig {
    tlb,
    walk,
    llc,
    fast,
    slow,
    trap,
    cold_model,
    thp_enabled,
    track_true_access,
    tlb_flush_period_ns,
    fabric,
    sched,
});
