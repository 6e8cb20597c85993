//! Page-migration accounting and cost model.
//!
//! Thermostat migrates cold pages to slow memory (§3.6, via the guest NUMA
//! mechanism) and migrates mis-classified pages back (§3.5). Table 3 of the
//! paper reports the resulting *migration rate* and *false-classification
//! rate* in MB/s and argues both are far below slow-memory bandwidth. This
//! module provides the engine that charges migration costs and keeps those
//! statistics.
//!
//! The actual remapping (frame allocation, PTE update, TLB shootdown) is
//! performed by the simulator's MMU layer; this engine is the accounting and
//! latency authority.

use crate::addr::PageSize;
use crate::tier::Tier;

/// Aggregate migration statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MigrationStats {
    /// Pages demoted to slow memory.
    pub to_slow_pages: u64,
    /// Bytes demoted to slow memory.
    pub to_slow_bytes: u64,
    /// Pages promoted back to fast memory by the §3.5 correction mechanism,
    /// i.e. false classifications (or pages whose behaviour changed).
    pub back_to_fast_pages: u64,
    /// Bytes promoted back to fast memory.
    pub back_to_fast_bytes: u64,
}

impl MigrationStats {
    /// Average demotion bandwidth over `elapsed_ns`, in MB/s (Table 3 left
    /// column).
    pub fn to_slow_mbps(&self, elapsed_ns: u64) -> f64 {
        rate_mbps(self.to_slow_bytes, elapsed_ns)
    }

    /// Average false-classification bandwidth over `elapsed_ns`, in MB/s
    /// (Table 3 right column).
    pub fn back_to_fast_mbps(&self, elapsed_ns: u64) -> f64 {
        rate_mbps(self.back_to_fast_bytes, elapsed_ns)
    }
}

fn rate_mbps(bytes: u64, elapsed_ns: u64) -> f64 {
    if elapsed_ns == 0 {
        return 0.0;
    }
    (bytes as f64 / 1e6) / (elapsed_ns as f64 / 1e9)
}

/// Charges migration costs and keeps Table 3 statistics.
#[derive(Debug)]
pub struct MigrationEngine {
    /// Copy bandwidth in bytes/sec; a migration of `b` bytes takes
    /// `b / bandwidth` seconds of virtual time (charged to the kernel, not
    /// to application threads — migrations happen asynchronously in the
    /// paper's setup, so the cost here models bus occupancy, not stall time).
    copy_bandwidth_bytes_per_sec: u64,
    /// Fixed per-page software overhead (page-table updates, TLB shootdown).
    per_page_overhead_ns: u64,
    stats: MigrationStats,
}

impl MigrationEngine {
    /// Creates an engine with the given copy bandwidth and fixed per-page
    /// overhead.
    pub fn new(copy_bandwidth_bytes_per_sec: u64, per_page_overhead_ns: u64) -> Self {
        Self {
            copy_bandwidth_bytes_per_sec,
            per_page_overhead_ns,
            stats: MigrationStats::default(),
        }
    }

    /// Default parameters: the slow tier's ~2GB/s write bandwidth and 5us of
    /// kernel overhead per page (move_pages()-class costs).
    pub fn with_defaults() -> Self {
        Self::new(2_000_000_000, 5_000)
    }

    /// Time to migrate one page of `size`, in ns.
    pub fn migration_cost_ns(&self, size: PageSize) -> u64 {
        let copy = size.bytes() as u64 * 1_000_000_000 / self.copy_bandwidth_bytes_per_sec;
        copy + self.per_page_overhead_ns
    }

    /// Records a migration of one page of `size` towards `target`; returns
    /// the synchronous copy time in ns for the caller to charge (a fabric
    /// commit ignores it: its link already paid for the copy).
    pub fn record(&mut self, target: Tier, size: PageSize) -> u64 {
        let bytes = size.bytes() as u64;
        match target {
            Tier::Slow => {
                self.stats.to_slow_pages += 1;
                self.stats.to_slow_bytes += bytes;
            }
            Tier::Fast => {
                self.stats.back_to_fast_pages += 1;
                self.stats.back_to_fast_bytes += bytes;
            }
        }
        self.migration_cost_ns(size)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> MigrationStats {
        self.stats
    }
}

impl Default for MigrationEngine {
    fn default() -> Self {
        Self::with_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_scales_with_page_size() {
        let e = MigrationEngine::new(1_000_000_000, 1_000); // 1 GB/s
        let small = e.migration_cost_ns(PageSize::Small4K);
        let huge = e.migration_cost_ns(PageSize::Huge2M);
        assert_eq!(small, 4096 + 1_000);
        assert_eq!(huge, 2 * 1024 * 1024 + 1_000);
        assert!(huge > small);
    }

    #[test]
    fn record_accumulates_by_kind() {
        let mut e = MigrationEngine::with_defaults();
        e.record(Tier::Slow, PageSize::Huge2M);
        e.record(Tier::Slow, PageSize::Small4K);
        e.record(Tier::Fast, PageSize::Huge2M);
        let s = e.stats();
        assert_eq!(s.to_slow_pages, 2);
        assert_eq!(s.to_slow_bytes, (2 * 1024 * 1024 + 4096) as u64);
        assert_eq!(s.back_to_fast_pages, 1);
        assert_eq!(s.back_to_fast_bytes, 2 * 1024 * 1024);
    }

    #[test]
    fn rates_in_mbps() {
        let mut e = MigrationEngine::with_defaults();
        // 20 MB demoted over 2 seconds -> 10 MB/s.
        for _ in 0..10 {
            e.record(Tier::Slow, PageSize::Huge2M);
        }
        let mbps = e.stats().to_slow_mbps(2_000_000_000);
        assert!((mbps - 10.485).abs() < 0.1, "got {mbps}");
    }

    #[test]
    fn zero_elapsed_rate_is_zero() {
        let s = MigrationStats::default();
        assert_eq!(s.to_slow_mbps(0), 0.0);
        assert_eq!(s.back_to_fast_mbps(0), 0.0);
    }
}
