//! Write-endurance tracking for the slow tier.
//!
//! Paper §6 ("Device wear"): candidate slow-memory technologies wear out
//! under writes; the paper argues Thermostat's traffic to slow memory
//! (Table 3) is far below endurance limits. This tracker records per-frame
//! and aggregate write volume so harnesses can verify that claim, and also
//! reports a simple hot-spot metric (max per-frame writes) that a start-gap
//! style wear-leveller would flatten.
//!
//! Counters live in dense blocks, one per 2MB physical region, allocated
//! on the region's first write, and the aggregates are kept running, so a
//! write, a frame lookup and a statistics snapshot each cost O(1).

use crate::addr::{Pfn, PAGES_PER_HUGE};

/// Aggregate wear statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WearStats {
    /// Total bytes ever written to the slow tier.
    pub total_bytes_written: u64,
    /// Number of distinct frames written.
    pub frames_written: u64,
    /// Maximum bytes written to any single frame.
    pub max_frame_bytes: u64,
}

impl WearStats {
    /// Average device-level write rate in MB/s over `elapsed_ns`.
    pub fn write_mbps(&self, elapsed_ns: u64) -> f64 {
        if elapsed_ns == 0 {
            return 0.0;
        }
        (self.total_bytes_written as f64 / 1e6) / (elapsed_ns as f64 / 1e9)
    }

    /// Estimated years to reach `endurance_cycles` full-device overwrites of
    /// a device of `capacity_bytes`, at the observed write rate.
    ///
    /// Returns `f64::INFINITY` when nothing has been written.
    pub fn lifetime_years(
        &self,
        capacity_bytes: u64,
        endurance_cycles: u64,
        elapsed_ns: u64,
    ) -> f64 {
        let rate = self.write_mbps(elapsed_ns) * 1e6; // bytes/sec
        if rate == 0.0 {
            return f64::INFINITY;
        }
        let total_writable = capacity_bytes as f64 * endurance_cycles as f64;
        total_writable / rate / (365.25 * 24.0 * 3600.0)
    }
}

/// One 2MB region's counters. Each holds one more than its frame's bytes
/// written, so 0 means never written and a zero-byte write still marks its
/// frame written.
type Block = [u64; PAGES_PER_HUGE];

/// Per-frame write tracker for the slow tier.
#[derive(Debug, Default)]
pub struct WearTracker {
    /// Indexed by region (`pfn >> 9`), up to the highest region written.
    regions: Vec<Option<Box<Block>>>,
    total: u64,
    frames_written: u64,
    max_frame: u64,
}

/// The region of `pfn` and its frame within the region.
fn locate(pfn: Pfn) -> (usize, usize) {
    let region = pfn.0 / PAGES_PER_HUGE as u64;
    (region as usize, (pfn.0 % PAGES_PER_HUGE as u64) as usize)
}

impl WearTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `bytes` written to `pfn`.
    pub fn record_write(&mut self, pfn: Pfn, bytes: u64) {
        let (region, frame) = locate(pfn);
        if region >= self.regions.len() {
            self.regions.resize_with(region + 1, || None);
        }
        let block = self.regions[region].get_or_insert_with(|| Box::new([0; PAGES_PER_HUGE]));
        let counter = &mut block[frame];
        if *counter == 0 {
            *counter = 1;
            self.frames_written += 1;
        }
        *counter += bytes;
        self.max_frame = self.max_frame.max(*counter - 1);
        self.total += bytes;
    }

    /// Aggregate statistics snapshot.
    pub fn stats(&self) -> WearStats {
        WearStats {
            total_bytes_written: self.total,
            frames_written: self.frames_written,
            max_frame_bytes: self.max_frame,
        }
    }

    /// Bytes written to one frame.
    pub fn frame_bytes(&self, pfn: Pfn) -> u64 {
        let (region, frame) = locate(pfn);
        match self.regions.get(region) {
            Some(Some(block)) => block[frame].saturating_sub(1),
            _ => 0,
        }
    }

    /// Clears all recorded wear (used when the tracked device is logically
    /// replaced between experiment phases).
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_aggregates() {
        let mut w = WearTracker::new();
        w.record_write(Pfn(1), 64);
        w.record_write(Pfn(1), 64);
        w.record_write(Pfn(2), 100);
        let s = w.stats();
        assert_eq!(s.total_bytes_written, 228);
        assert_eq!(s.frames_written, 2);
        assert_eq!(s.max_frame_bytes, 128);
        assert_eq!(w.frame_bytes(Pfn(1)), 128);
        assert_eq!(w.frame_bytes(Pfn(99)), 0);
    }

    #[test]
    fn write_rate() {
        let mut w = WearTracker::new();
        w.record_write(Pfn(0), 10_000_000); // 10 MB over 1s
        assert!((w.stats().write_mbps(1_000_000_000) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn lifetime_infinite_without_writes() {
        let s = WearStats::default();
        assert!(s
            .lifetime_years(1 << 30, 1_000_000, 1_000_000_000)
            .is_infinite());
    }

    #[test]
    fn lifetime_finite_with_writes() {
        let mut w = WearTracker::new();
        // 100 MB/s onto a 1 GiB device with 10^6 cycle endurance.
        w.record_write(Pfn(0), 100_000_000);
        let years = w.stats().lifetime_years(1 << 30, 1_000_000, 1_000_000_000);
        // 2^30 B * 1e6 cycles / 1e8 B/s ~= 1.07e7 s ~= 0.34 years.
        assert!((years - 0.34).abs() < 0.01, "got {years}");
    }

    #[test]
    fn reset_clears() {
        let mut w = WearTracker::new();
        w.record_write(Pfn(0), 1);
        w.reset();
        assert_eq!(w.stats(), WearStats::default());
        assert_eq!(w.frame_bytes(Pfn(0)), 0);
    }

    #[test]
    fn a_zero_byte_write_marks_its_frame_written() {
        let mut w = WearTracker::new();
        w.record_write(Pfn(3 << 9 | 7), 0);
        let s = w.stats();
        assert_eq!(s.frames_written, 1);
        assert_eq!(s.max_frame_bytes, 0);
        assert_eq!(w.frame_bytes(Pfn(3 << 9 | 7)), 0);
        w.record_write(Pfn(3 << 9 | 7), 0);
        assert_eq!(w.stats().frames_written, 1);
    }
}
