//! Time-series rate recording.
//!
//! Figure 3 of the paper plots the slow-memory access rate averaged over
//! 30-second windows; [`RateSeries`] buckets event counts by virtual time.

/// Counts events into fixed-width virtual-time buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RateSeries {
    bucket_ns: u64,
    buckets: Vec<u64>,
}

impl RateSeries {
    /// Creates a series with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_ns` is zero.
    pub fn new(bucket_ns: u64) -> Self {
        assert!(bucket_ns > 0, "bucket width must be positive");
        Self {
            bucket_ns,
            buckets: Vec::new(),
        }
    }

    /// Bucket width, ns.
    pub fn bucket_ns(&self) -> u64 {
        self.bucket_ns
    }

    /// Records `n` events at virtual time `now_ns`.
    pub fn record(&mut self, now_ns: u64, n: u64) {
        let idx = (now_ns / self.bucket_ns) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += n;
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Total events recorded.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Per-bucket rates in events/second.
    pub fn rates_per_sec(&self) -> Vec<f64> {
        let scale = 1e9 / self.bucket_ns as f64;
        self.buckets.iter().map(|b| *b as f64 * scale).collect()
    }

    /// Moving average of the per-second rates over `window` buckets
    /// (Figure 3 averages over 30 seconds).
    pub fn smoothed_rates(&self, window: usize) -> Vec<f64> {
        let rates = self.rates_per_sec();
        if window <= 1 || rates.is_empty() {
            return rates;
        }
        let mut out = Vec::with_capacity(rates.len());
        let mut sum = 0.0;
        for i in 0..rates.len() {
            sum += rates[i];
            if i >= window {
                sum -= rates[i - window];
            }
            let n = (i + 1).min(window);
            out.push(sum / n as f64);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_buckets() {
        let mut s = RateSeries::new(1_000_000_000);
        s.record(0, 5);
        s.record(500_000_000, 5);
        s.record(1_500_000_000, 7);
        assert_eq!(s.buckets(), &[10, 7]);
        assert_eq!(s.total(), 17);
    }

    #[test]
    fn rates_scale_with_bucket_width() {
        let mut s = RateSeries::new(500_000_000); // 0.5s buckets
        s.record(0, 10);
        assert_eq!(s.rates_per_sec()[0], 20.0);
    }

    #[test]
    fn smoothing_averages() {
        let mut s = RateSeries::new(1_000_000_000);
        for (t, n) in [(0u64, 10u64), (1, 20), (2, 30), (3, 40)] {
            s.record(t * 1_000_000_000, n);
        }
        let sm = s.smoothed_rates(2);
        assert_eq!(sm, vec![10.0, 15.0, 25.0, 35.0]);
        // window 1 = raw
        assert_eq!(s.smoothed_rates(1), s.rates_per_sec());
    }

    #[test]
    fn gaps_are_zero_buckets() {
        let mut s = RateSeries::new(1_000_000_000);
        s.record(3_200_000_000, 1);
        assert_eq!(s.buckets(), &[0, 0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bucket_panics() {
        RateSeries::new(0);
    }
}
