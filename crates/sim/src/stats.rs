//! Statistics: log-scale histograms and their summaries.
//!
//! The kernel's metric registry keeps one [`Histogram`] per histogram
//! metric; the bench harness reads the resulting [`Summary`] values to print
//! the paper's tables and figures.

use std::fmt;

/// An HdrHistogram-style log-bucketed histogram of `u64` samples
/// (latencies in nanoseconds, sizes in pages, ...).
///
/// Buckets have ~1.6% relative width (64 sub-buckets per power of two),
/// giving accurate percentiles across nine orders of magnitude. The
/// buckets are a fixed 3,712 `u64`s (29 KiB), allocated when the histogram
/// is created.
///
/// ```
/// use latr_sim::Histogram;
/// let mut h = Histogram::new();
/// for v in [100, 200, 300, 400, 500] { h.record(v); }
/// assert_eq!(h.count(), 5);
/// assert!(h.percentile(0.50) >= 290 && h.percentile(0.50) <= 310);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    // 64 sub-buckets per each of 58 powers of two above 64.
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

const SUB_BUCKET_BITS: u32 = 6; // 64 sub-buckets
const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;
const N_BUCKETS: usize = ((64 - SUB_BUCKET_BITS) as usize) * SUB_BUCKETS as usize;

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; N_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_index(value: u64) -> usize {
        if value < SUB_BUCKETS {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros() as u64;
        let shift = msb - SUB_BUCKET_BITS as u64 + 1;
        let base = shift * SUB_BUCKETS;
        let offset = (value >> shift) & (SUB_BUCKETS - 1);
        (base + SUB_BUCKETS + offset) as usize - SUB_BUCKETS as usize
    }

    fn bucket_value(index: usize) -> u64 {
        let index = index as u64;
        if index < SUB_BUCKETS {
            return index;
        }
        let shift = (index - SUB_BUCKETS) / SUB_BUCKETS + 1;
        let offset = index % SUB_BUCKETS;
        // Midpoint of the bucket for an unbiased estimate. The recorded
        // value was `offset << shift` up to bucket width `1 << shift`.
        (offset << shift) + (1 << shift) / 2
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = Self::bucket_index(value).min(N_BUCKETS - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records `n` identical samples.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = Self::bucket_index(value).min(N_BUCKETS - 1);
        self.buckets[idx] += n;
        self.count += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of all samples, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate value at quantile `q` in `[0, 1]`.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_value(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Produces a compact summary of the distribution.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean(),
            min: self.min(),
            p50: self.percentile(0.50),
            p90: self.percentile(0.90),
            p99: self.percentile(0.99),
            p999: self.percentile(0.999),
            max: self.max,
        }
    }
}

/// A compact distribution summary produced by [`Histogram::summary`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum sample.
    pub min: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile (the serving bench's tail headline).
    pub p999: u64,
    /// Maximum sample.
    pub max: u64,
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} min={} p50={} p90={} p99={} p999={} max={}",
            self.count, self.mean, self.min, self.p50, self.p90, self.p99, self.p999, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_exact_for_small_values() {
        let mut h = Histogram::new();
        for v in 0..64 {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 63);
        assert_eq!(h.count(), 64);
    }

    #[test]
    fn histogram_mean_is_exact() {
        let mut h = Histogram::new();
        h.record(100);
        h.record(300);
        assert!((h.mean() - 200.0).abs() < f64::EPSILON);
    }

    #[test]
    fn histogram_percentile_within_bucket_error() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.percentile(0.5) as f64;
        assert!((4800.0..5200.0).contains(&p50), "p50 {p50}");
        let p99 = h.percentile(0.99) as f64;
        assert!((9600.0..10_000.0).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn histogram_percentile_clamped_to_range() {
        let mut h = Histogram::new();
        h.record(1_000_000);
        assert_eq!(h.percentile(0.0), 1_000_000);
        assert_eq!(h.percentile(1.0), 1_000_000);
    }

    #[test]
    fn histogram_empty_is_well_behaved() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(0.5), 0);
    }

    #[test]
    fn histogram_record_n() {
        let mut h = Histogram::new();
        h.record_n(500, 10);
        h.record_n(500, 0);
        assert_eq!(h.count(), 10);
        assert!((h.mean() - 500.0).abs() < 5.0);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1_000);
    }

    #[test]
    fn histogram_huge_values_do_not_overflow() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn summary_display_is_nonempty() {
        let mut h = Histogram::new();
        h.record(5);
        assert!(h.summary().to_string().contains("n=1"));
    }
}
